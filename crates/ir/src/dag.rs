//! Hash-consed DAG view of an expression.
//!
//! The expression tree is convenient for rewriting, but circuits are DAGs:
//! repeated subexpressions are computed once. Converting to a [`CircuitDag`]
//! performs common-subexpression elimination by construction and is the
//! representation used by code generation and by analyses that must count
//! each distinct computation once.
//!
//! [`TermGraph`] is the incremental form of the same structure: one
//! persistent interner that many terms share, with every analysis the cost
//! function needs attached to each node when it is interned. The greedy
//! rewriter scores its candidates on one such graph instead of on cloned
//! trees (see `DESIGN.md`, "The compile path"). It keeps one of its terms
//! *live* — the circuit a search stands on — with a use count per node, so a
//! rewrite of that circuit is priced by the nodes it adds and removes.

use crate::analysis::{DataKind, OpClass, OpCounts};
use crate::cost::{CostBreakdown, CostModel};
use crate::expr::{type_of, BinOp, Expr, Former, Ty, TypeError};
use crate::hash::WordMap;
use crate::symbol::Symbol;

/// Identifier of a node inside a [`CircuitDag`].
pub type NodeId = usize;

/// A single operation (or input) in the circuit DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DagNode {
    /// Encrypted scalar input.
    CtVar(Symbol),
    /// Plaintext scalar input.
    PtVar(Symbol),
    /// Plaintext constant.
    Const(i64),
    /// Scalar binary operation.
    Bin(BinOp, NodeId, NodeId),
    /// Scalar negation.
    Neg(NodeId),
    /// Vector constructor over scalar nodes.
    Vec(Vec<NodeId>),
    /// Element-wise vector binary operation.
    VecBin(BinOp, NodeId, NodeId),
    /// Element-wise vector negation.
    VecNeg(NodeId),
    /// Slot rotation.
    Rot(NodeId, i64),
}

impl DagNode {
    /// Ids of this node's operands.
    pub fn operands(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_operand(|o| out.push(o));
        out
    }

    /// Operand `index` of this node, in the order of [`DagNode::operands`]
    /// (and of [`Expr::paths`]), or `None` past the last.
    pub fn operand(&self, index: usize) -> Option<NodeId> {
        match (self, index) {
            (DagNode::Bin(_, a, _) | DagNode::VecBin(_, a, _), 0) => Some(*a),
            (DagNode::Bin(_, _, b) | DagNode::VecBin(_, _, b), 1) => Some(*b),
            (DagNode::Neg(a) | DagNode::VecNeg(a) | DagNode::Rot(a, _), 0) => Some(*a),
            (DagNode::Vec(elems), i) => elems.get(i).copied(),
            _ => None,
        }
    }

    /// The node's constructor, without its operands: what typing reads.
    fn former(&self) -> Former {
        match self {
            DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_) => Former::Leaf,
            DagNode::Bin(op, _, _) => Former::Bin(*op),
            DagNode::Neg(_) => Former::Neg,
            DagNode::Vec(_) => Former::Vec,
            DagNode::VecBin(op, _, _) => Former::VecBin(*op),
            DagNode::VecNeg(_) => Former::VecNeg,
            DagNode::Rot(_, _) => Former::Rot,
        }
    }

    /// Calls `f` on each operand id, in operand order.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(NodeId)) {
        match self {
            DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_) => {}
            DagNode::Bin(_, a, b) | DagNode::VecBin(_, a, b) => {
                f(*a);
                f(*b);
            }
            DagNode::Neg(a) | DagNode::VecNeg(a) | DagNode::Rot(a, _) => f(*a),
            DagNode::Vec(elems) => elems.iter().copied().for_each(f),
        }
    }

    /// Returns `true` for input/constant nodes.
    pub fn is_leaf(&self) -> bool {
        matches!(
            self,
            DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_)
        )
    }

    /// Arithmetic nodes add one to the circuit depth and count as
    /// operations; inputs, constants and `Vec` packing do not.
    fn is_operation(&self) -> bool {
        !self.is_leaf() && !matches!(self, DagNode::Vec(_))
    }
}

/// A hash-consed circuit DAG with a single output node.
///
/// Node ids are topologically ordered: every operand id is smaller than the
/// id of the node that uses it, so a single forward pass evaluates the
/// circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitDag {
    nodes: Vec<DagNode>,
    output: NodeId,
}

impl CircuitDag {
    /// Builds the DAG of an expression, sharing structurally identical
    /// subexpressions (common-subexpression elimination).
    pub fn from_expr(expr: &Expr) -> Self {
        let mut graph = TermGraph::new();
        let output = graph.intern_expr(expr);
        CircuitDag {
            nodes: graph.nodes,
            output,
        }
    }

    /// The nodes of the DAG in topological order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// The id of the output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Number of nodes (after sharing).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the DAG has no nodes (never the case for DAGs built
    /// from an expression).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes nodes not reachable from the output (dead-code elimination)
    /// and returns the compacted DAG.
    pub fn eliminate_dead_code(&self) -> CircuitDag {
        let mut live = vec![false; self.nodes.len()];
        let mut stack = vec![self.output];
        while let Some(id) = stack.pop() {
            if !live[id] {
                live[id] = true;
                stack.extend(self.nodes[id].operands());
            }
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if live[id] {
                let remapped = match node {
                    DagNode::Bin(op, a, b) => DagNode::Bin(*op, remap[*a], remap[*b]),
                    DagNode::VecBin(op, a, b) => DagNode::VecBin(*op, remap[*a], remap[*b]),
                    DagNode::Neg(a) => DagNode::Neg(remap[*a]),
                    DagNode::VecNeg(a) => DagNode::VecNeg(remap[*a]),
                    DagNode::Rot(a, s) => DagNode::Rot(remap[*a], *s),
                    DagNode::Vec(elems) => DagNode::Vec(elems.iter().map(|e| remap[*e]).collect()),
                    leaf => leaf.clone(),
                };
                remap[id] = nodes.len();
                nodes.push(remapped);
            }
        }
        CircuitDag {
            nodes,
            output: remap[self.output],
        }
    }
}

/// What [`TermGraph`] knows about a node the moment it is interned. Every
/// field is a function of the node and of its operands' attributes, so none
/// is ever recomputed.
#[derive(Debug, Clone, Copy)]
struct NodeAttrs {
    kind: DataKind,
    class: OpClass,
    depth: usize,
    mult_depth: usize,
    ty: Result<Ty, TypeError>,
}

impl NodeAttrs {
    /// The attributes of `node`, given its operands'. The one place they are
    /// computed: [`TermGraph::intern`] stores them, and
    /// [`TermGraph::rewrite_cost`] reads them off nodes it never interns.
    fn of(node: &DagNode, operand: impl Fn(NodeId) -> NodeAttrs) -> NodeAttrs {
        let mut kind = match node {
            DagNode::CtVar(_) => DataKind::Ciphertext,
            _ => DataKind::Plaintext,
        };
        let (mut depth, mut mult_depth) = (0, 0);
        node.for_each_operand(|o| {
            let attrs = operand(o);
            kind = kind.join(attrs.kind);
            depth = depth.max(attrs.depth);
            mult_depth = mult_depth.max(attrs.mult_depth);
        });
        let class = OpClass::of(node, kind, |o| operand(o).kind);
        NodeAttrs {
            kind,
            class,
            depth: depth + usize::from(node.is_operation()),
            mult_depth: mult_depth + usize::from(class.is_ct_ct_mul()),
            ty: type_of(
                node.former(),
                (0..).map_while(|i| node.operand(i)).map(|o| operand(o).ty),
            ),
        }
    }
}

/// Stands for a node [`TermGraph::rewrite_cost`] has not interned, as the
/// operand of its fresh parent. No interned id reaches it.
const FRESH: NodeId = NodeId::MAX;

/// A persistent hash-consed term graph: an interner that any number of
/// expressions share, so structurally identical subterms — within one
/// expression or across many — are one node with one id.
///
/// Ids are assigned in interning order and operands are always interned
/// before their users, so the graph is topologically ordered like a
/// [`CircuitDag`], and nothing observable depends on hash-map iteration.
/// Each node carries its [`DataKind`], type, circuit depth and
/// multiplicative depth from the moment it is interned; [`TermGraph::cost`]
/// of a root is one walk over the nodes reachable from it. The tree analyses
/// ([`circuit_depth`](crate::circuit_depth),
/// [`multiplicative_depth`](crate::multiplicative_depth),
/// [`data_kind`](crate::data_kind), [`Expr::ty`]) agree with the graph's on
/// every term.
///
/// The graph only grows: ids stay valid for its whole life, which is what
/// lets a caller memoise per-subterm work under them.
///
/// One root at a time is *live* ([`TermGraph::set_live`]): the graph keeps
/// a use count per node of that circuit and the circuit's [`OpCounts`], and
/// [`TermGraph::rewrite_cost`] prices a rewrite of it from the nodes the
/// rewrite adds and removes, without interning the rewritten term.
///
/// # Examples
///
/// ```
/// use chehab_ir::{parse, CostModel, TermGraph};
///
/// let model = CostModel::default();
/// let mut graph = TermGraph::new();
/// let sum = graph.intern_expr(&parse("(+ (* a b) c)")?);
/// let product = graph.intern_expr(&parse("(* a b)")?);
/// assert_eq!(graph.len(), 5, "(* a b) is interned once");
/// assert_eq!(graph.multiplicative_depth(sum), 1);
/// assert_eq!(graph.cost(product, &model), model.cost(&parse("(* a b)")?));
/// # Ok::<(), chehab_ir::ParseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermGraph {
    nodes: Vec<DagNode>,
    attrs: Vec<NodeAttrs>,
    interned: WordMap<DagNode, NodeId>,
    // The live circuit: its root, each node's number of uses in it (operand
    // slots of live nodes, plus one for the root; live means nonzero) and
    // its operation counts.
    live_root: Option<NodeId>,
    uses: Vec<u32>,
    live: OpCounts,
    // The previous use count of every change `acquire` and `release` made
    // since the log was last cleared, so a priced rewrite can be undone.
    undo: Vec<(NodeId, u32)>,
    // Scratch of the reachable-set walk: `seen[id] == epoch` marks a node
    // visited by the current walk, so no walk clears or allocates.
    seen: Vec<u64>,
    epoch: u64,
    stack: Vec<NodeId>,
}

impl TermGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with id `id`: its operation and its operands' ids. A
    /// matcher walks a term through it without building the tree.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id]
    }

    /// Whether the term carries encrypted data
    /// ([`data_kind`](crate::data_kind) of its tree form).
    ///
    /// # Panics
    ///
    /// Panics (here and in every other method taking an id) if `id` was not
    /// returned by this graph.
    pub fn data_kind(&self, id: NodeId) -> DataKind {
        self.attrs[id].kind
    }

    /// The term's type ([`Expr::ty`] of its tree form, error included).
    pub fn ty(&self, id: NodeId) -> Result<Ty, TypeError> {
        self.attrs[id].ty
    }

    /// Circuit depth of the term ([`circuit_depth`](crate::circuit_depth) of
    /// its tree form).
    pub fn circuit_depth(&self, id: NodeId) -> usize {
        self.attrs[id].depth
    }

    /// Multiplicative depth of the term
    /// ([`multiplicative_depth`](crate::multiplicative_depth) of its tree
    /// form).
    pub fn multiplicative_depth(&self, id: NodeId) -> usize {
        self.attrs[id].mult_depth
    }

    /// Interns one node whose operands are already in the graph, returning
    /// the existing id if a structurally identical node is.
    ///
    /// # Panics
    ///
    /// Panics if an operand id was not returned by this graph.
    pub fn intern(&mut self, node: DagNode) -> NodeId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let id = self.nodes.len();
        self.attrs.push(NodeAttrs::of(&node, |o| self.attrs[o]));
        self.uses.push(0);
        self.nodes.push(node.clone());
        self.interned.insert(node, id);
        id
    }

    /// Interns an expression and returns the id of its root.
    pub fn intern_expr(&mut self, expr: &Expr) -> NodeId {
        let node = match expr {
            Expr::CtVar(s) => DagNode::CtVar(s.clone()),
            Expr::PtVar(s) => DagNode::PtVar(s.clone()),
            Expr::Const(v) => DagNode::Const(*v),
            Expr::Bin(op, a, b) => DagNode::Bin(*op, self.intern_expr(a), self.intern_expr(b)),
            Expr::Neg(a) => DagNode::Neg(self.intern_expr(a)),
            Expr::Vec(elems) => DagNode::Vec(elems.iter().map(|e| self.intern_expr(e)).collect()),
            Expr::VecBin(op, a, b) => {
                DagNode::VecBin(*op, self.intern_expr(a), self.intern_expr(b))
            }
            Expr::VecNeg(a) => DagNode::VecNeg(self.intern_expr(a)),
            Expr::Rot(a, s) => DagNode::Rot(self.intern_expr(a), *s),
        };
        self.intern(node)
    }

    /// The tree form of term `root`: a shared subterm is copied once per
    /// occurrence. Reads the graph only: interning the tree would return
    /// `root`.
    pub fn expr(&self, root: NodeId) -> Expr {
        let boxed = |operand: NodeId| Box::new(self.expr(operand));
        match &self.nodes[root] {
            DagNode::CtVar(s) => Expr::CtVar(s.clone()),
            DagNode::PtVar(s) => Expr::PtVar(s.clone()),
            DagNode::Const(v) => Expr::Const(*v),
            DagNode::Bin(op, a, b) => Expr::Bin(*op, boxed(*a), boxed(*b)),
            DagNode::Neg(a) => Expr::Neg(boxed(*a)),
            DagNode::Vec(elems) => Expr::Vec(elems.iter().map(|&e| self.expr(e)).collect()),
            DagNode::VecBin(op, a, b) => Expr::VecBin(*op, boxed(*a), boxed(*b)),
            DagNode::VecNeg(a) => Expr::VecNeg(boxed(*a)),
            DagNode::Rot(a, s) => Expr::Rot(boxed(*a), *s),
        }
    }

    /// Interns a copy of node `id` whose `index`-th operand is `operand`
    /// (every other operand, including other occurrences of the replaced
    /// one, is kept). Re-interning the ancestors of a replaced subterm this
    /// way, child to root, yields the id that interning the
    /// [`Expr::replace_at`] result would — in O(depth · arity) instead of
    /// O(tree size).
    ///
    /// # Panics
    ///
    /// Panics if node `id` has no `index`-th operand.
    pub fn with_operand(&mut self, id: NodeId, index: usize, operand: NodeId) -> NodeId {
        let node = self.replaced(id, index, operand);
        self.intern(node)
    }

    /// Node `id` with its `index`-th operand replaced by `operand`.
    fn replaced(&self, id: NodeId, index: usize, operand: NodeId) -> DagNode {
        match (&self.nodes[id], index) {
            (DagNode::Bin(op, _, b), 0) => DagNode::Bin(*op, operand, *b),
            (DagNode::Bin(op, a, _), 1) => DagNode::Bin(*op, *a, operand),
            (DagNode::VecBin(op, _, b), 0) => DagNode::VecBin(*op, operand, *b),
            (DagNode::VecBin(op, a, _), 1) => DagNode::VecBin(*op, *a, operand),
            (DagNode::Neg(_), 0) => DagNode::Neg(operand),
            (DagNode::VecNeg(_), 0) => DagNode::VecNeg(operand),
            (DagNode::Rot(_, s), 0) => DagNode::Rot(operand, *s),
            (DagNode::Vec(elems), i) if i < elems.len() => {
                let mut elems = elems.clone();
                elems[i] = operand;
                DagNode::Vec(elems)
            }
            (node, i) => panic!("with_operand: {node:?} has no operand {i}"),
        }
    }

    /// Per-category operation counts of the circuit rooted at `root`: every
    /// node reachable from it, each counted once
    /// ([`count_ops`](crate::count_ops) of its tree form). Takes `&mut self`
    /// only to reuse the walk's scratch buffers.
    pub fn count_ops(&mut self, root: NodeId) -> OpCounts {
        let TermGraph {
            nodes,
            attrs,
            seen,
            epoch,
            stack,
            ..
        } = self;
        seen.resize(nodes.len(), 0);
        *epoch += 1;
        let mut counts = OpCounts::default();
        seen[root] = *epoch;
        stack.push(root);
        while let Some(id) = stack.pop() {
            counts.record(attrs[id].class);
            nodes[id].for_each_operand(|o| {
                if seen[o] != *epoch {
                    seen[o] = *epoch;
                    stack.push(o);
                }
            });
        }
        counts
    }

    /// The cost breakdown of the circuit rooted at `root` under `model`
    /// ([`CostModel::breakdown`] of its tree form, bit for bit).
    pub fn breakdown(&mut self, root: NodeId, model: &CostModel) -> CostBreakdown {
        let counts = self.count_ops(root);
        model.weigh(&counts, self.attrs[root].depth, self.attrs[root].mult_depth)
    }

    /// The weighted cost of the circuit rooted at `root`
    /// ([`CostModel::cost`] of its tree form, bit for bit).
    pub fn cost(&mut self, root: NodeId, model: &CostModel) -> f64 {
        self.breakdown(root, model).total
    }

    /// Makes the circuit rooted at `root` the live one. The move is
    /// incremental: `root` takes a use, counting down to the nodes already
    /// live, then the previous root gives its use up, counting down to the
    /// nodes still live.
    pub fn set_live(&mut self, root: NodeId) {
        self.acquire(root);
        if let Some(previous) = self.live_root.replace(root) {
            self.release(previous);
        }
        self.undo.clear();
    }

    /// The cost under `model` of the live circuit with one subterm replaced:
    /// [`TermGraph::cost`] of the rewritten circuit's interned root, bit for
    /// bit, with nothing interned.
    ///
    /// `spine` names the replaced subterm by its ancestors, from the live
    /// root down: a pair `(ancestor, child)` says the path goes on through
    /// operand `child` of node `ancestor`, and the first ancestor is the live
    /// root (an empty spine replaces the root). `replacement` is the new subterm's id. Copies of
    /// the ancestors are looked up until the first one the graph lacks; every
    /// copy above it is fresh too, with its attributes from the same
    /// computation [`TermGraph::intern`] stores. The classes of the nodes the
    /// rewrite brings to life are counted, those of the nodes it kills
    /// uncounted, and every use count it changed is put back.
    ///
    /// # Panics
    ///
    /// Panics if no circuit is live, or if an ancestor has no such child.
    pub fn rewrite_cost(
        &mut self,
        spine: &[(NodeId, usize)],
        replacement: NodeId,
        model: &CostModel,
    ) -> f64 {
        let old_root = self
            .live_root
            .expect("rewrite_cost prices a rewrite of the live circuit");
        debug_assert!(
            spine.first().is_none_or(|&(root, _)| root == old_root),
            "the spine starts at the live root"
        );
        let live = self.live;
        // The rewritten subterm so far: its id while the graph has it, then
        // the attributes of its fresh copy.
        let mut known = Some(replacement);
        let mut fresh = None;
        for &(ancestor, child) in spine.iter().rev() {
            let node = self.replaced(ancestor, child, known.unwrap_or(FRESH));
            if known.is_some() {
                known = self.interned.get(&node).copied();
                if known.is_some() {
                    continue;
                }
            }
            let attrs = NodeAttrs::of(&node, |o| match o {
                FRESH => fresh.expect("a fresh operand was priced below"),
                _ => self.attrs[o],
            });
            self.live.record(attrs.class);
            node.for_each_operand(|o| {
                if o != FRESH {
                    self.acquire(o);
                }
            });
            fresh = Some(attrs);
        }
        let root = match known {
            Some(id) => {
                self.acquire(id);
                self.attrs[id]
            }
            None => fresh.expect("a missed ancestor is fresh"),
        };
        self.release(old_root);
        let cost = model.weigh(&self.live, root.depth, root.mult_depth).total;
        self.live = live;
        while let Some((id, uses)) = self.undo.pop() {
            self.uses[id] = uses;
        }
        cost
    }

    /// One more use of `id` in the live circuit: a node that comes alive is
    /// counted and takes a use of each operand.
    fn acquire(&mut self, id: NodeId) {
        self.stack.push(id);
        while let Some(id) = self.stack.pop() {
            self.undo.push((id, self.uses[id]));
            self.uses[id] += 1;
            if self.uses[id] == 1 {
                self.live.record(self.attrs[id].class);
                self.nodes[id].for_each_operand(|o| self.stack.push(o));
            }
        }
    }

    /// One fewer use of `id` in the live circuit: a node that dies is
    /// uncounted and gives up its use of each operand.
    fn release(&mut self, id: NodeId) {
        self.stack.push(id);
        while let Some(id) = self.stack.pop() {
            self.undo.push((id, self.uses[id]));
            self.uses[id] -= 1;
            if self.uses[id] == 0 {
                self.live.unrecord(self.attrs[id].class);
                self.nodes[id].for_each_operand(|o| self.stack.push(o));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn shared_subexpressions_are_interned_once() {
        // (v3*v4) appears twice in the motivating example's left factor.
        let e = parse("(+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6)))").unwrap();
        let dag = CircuitDag::from_expr(&e);
        // Tree has 9 operation nodes, but (* v3 v4) is shared: 8 distinct operations.
        assert_eq!(dag.nodes().iter().filter(|n| n.is_operation()).count(), 6);
        let mut uses = vec![0usize; dag.len()];
        for op in dag.nodes().iter().flat_map(DagNode::operands) {
            uses[op] += 1;
        }
        let shared = uses
            .iter()
            .zip(dag.nodes())
            .filter(|(uses, node)| **uses > 1 && !node.is_leaf())
            .count();
        assert_eq!(shared, 1, "exactly one shared operation node");
    }

    #[test]
    fn topological_order_holds() {
        let e = parse("(VecAdd (VecMul (Vec a b) (Vec c d)) (<< (VecMul (Vec a b) (Vec c d)) 1))")
            .unwrap();
        let dag = CircuitDag::from_expr(&e);
        for (id, node) in dag.nodes().iter().enumerate() {
            for op in node.operands() {
                assert!(op < id, "operand {op} of node {id} must come first");
            }
        }
    }

    #[test]
    fn dead_code_elimination_is_a_no_op_for_reachable_dags() {
        let e = parse("(+ (* a b) c)").unwrap();
        let dag = CircuitDag::from_expr(&e);
        let cleaned = dag.eliminate_dead_code();
        assert_eq!(dag.len(), cleaned.len());
        assert_eq!(cleaned.nodes()[cleaned.output()], dag.nodes()[dag.output()]);
    }

    #[test]
    fn leaves_are_shared() {
        let e = parse("(* a a)").unwrap();
        let dag = CircuitDag::from_expr(&e);
        assert_eq!(dag.len(), 2, "one leaf plus one multiply");
    }

    /// A small seeded generator of (not necessarily well-typed) expressions
    /// over few variables, so subterms repeat within and across programs.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            // xorshift64
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn expr(&mut self, depth: usize) -> Expr {
            let op = BinOp::ALL[self.below(3) as usize];
            match (depth, self.below(10)) {
                (0, 0..=5) | (_, 0) => Expr::ct(format!("c{}", self.below(4))),
                (0, 6..=7) | (_, 1) => Expr::pt(format!("p{}", self.below(3))),
                (0, _) => Expr::constant(self.below(3) as i64),
                (_, 2..=4) => Expr::Bin(op, self.boxed(depth), self.boxed(depth)),
                (_, 5) => Expr::Neg(self.boxed(depth)),
                (_, 6) => Expr::Vec((0..=self.below(3)).map(|_| self.expr(depth - 1)).collect()),
                (_, 7) => Expr::VecBin(op, self.boxed(depth), self.boxed(depth)),
                (_, 8) => Expr::VecNeg(self.boxed(depth)),
                _ => Expr::Rot(self.boxed(depth), self.below(5) as i64 - 2),
            }
        }

        fn boxed(&mut self, depth: usize) -> Box<Expr> {
            Box::new(self.expr(depth - 1))
        }
    }

    fn generated_programs(seed: u64, count: usize) -> Vec<Expr> {
        let mut gen = Gen(seed);
        (0..count).map(|i| gen.expr(1 + i % 6)).collect()
    }

    /// The default model and a depth-heavy one.
    fn models() -> [CostModel; 2] {
        use crate::cost::CostWeights;
        [
            CostModel::default(),
            CostModel::with_weights(CostWeights::new(1.0, 50.0, 50.0)),
        ]
    }

    #[test]
    fn graph_attributes_equal_the_tree_analyses() {
        use crate::analysis::{circuit_depth, count_ops, data_kind, multiplicative_depth};
        let models = models();
        // One graph for every program: a root's analyses must not see the
        // other terms the graph holds.
        let mut graph = TermGraph::new();
        // Subterms whose type is an error, and well-typed ones.
        let mut typed = [0; 2];
        for program in generated_programs(0x5eed, 300) {
            let root = graph.intern_expr(&program);
            assert_eq!(
                graph.expr(root),
                program,
                "a term reads back out of the graph as itself"
            );
            for subterm in program.preorder() {
                let id = graph.intern_expr(subterm);
                assert_eq!(graph.ty(id), subterm.ty(), "{subterm:?}");
                typed[usize::from(subterm.is_well_typed())] += 1;
                assert_eq!(graph.data_kind(id), data_kind(subterm), "{subterm:?}");
                assert_eq!(
                    graph.circuit_depth(id),
                    circuit_depth(subterm),
                    "{subterm:?}"
                );
                assert_eq!(
                    graph.multiplicative_depth(id),
                    multiplicative_depth(subterm),
                    "{subterm:?}"
                );
            }
            assert_eq!(graph.count_ops(root), count_ops(&program), "{program:?}");
            for model in &models {
                assert_eq!(
                    graph.cost(root, model).to_bits(),
                    model.cost(&program).to_bits(),
                    "{program:?}"
                );
            }
        }
        assert!(typed.iter().all(|&n| n > 100), "{typed:?}");
    }

    #[test]
    fn reinterning_a_spine_equals_interning_the_replaced_tree() {
        let programs = generated_programs(0xfeed, 120);
        let mut graph = TermGraph::new();
        for (program, replacement) in programs.iter().zip(programs.iter().skip(1)) {
            let new_subterm = graph.intern_expr(replacement);
            for (path, _) in program.paths() {
                let mut id = new_subterm;
                for cut in (0..path.len()).rev() {
                    let ancestor = graph.intern_expr(program.at_path(&path[..cut]).unwrap());
                    id = graph.with_operand(ancestor, path[cut], id);
                }
                let replaced = program.replace_at(&path, replacement.clone()).unwrap();
                assert_eq!(id, graph.intern_expr(&replaced), "{program:?} at {path:?}");
            }
        }
    }

    /// The live counts are what a full walk from the live root counts.
    fn assert_live_counts(graph: &mut TermGraph, root: NodeId) {
        assert_eq!(graph.live_root, Some(root));
        let walked = graph.count_ops(root);
        assert_eq!(graph.live, walked, "live root {root}");
    }

    #[test]
    fn a_priced_rewrite_costs_what_its_interned_tree_costs() {
        let models = models();
        let programs = generated_programs(0xbead, 301);
        let mut graph = TermGraph::new();
        for (program, replacement) in programs.iter().zip(&programs[1..]) {
            let root = graph.intern_expr(program);
            graph.set_live(root);
            assert_live_counts(&mut graph, root);
            let uses = graph.uses.clone();
            let new_subterm = graph.intern_expr(replacement);
            let paths = program.paths();
            let mut rewritten = Vec::with_capacity(paths.len());
            for (path, _) in &paths {
                let spine: Vec<(NodeId, usize)> = (0..path.len())
                    .map(|cut| {
                        let ancestor = program.at_path(&path[..cut]).unwrap();
                        (graph.intern_expr(ancestor), path[cut])
                    })
                    .collect();
                let len = graph.len();
                let prices = models
                    .each_ref()
                    .map(|model| graph.rewrite_cost(&spine, new_subterm, model));
                assert_eq!(graph.len(), len, "pricing interns nothing");
                let tree = program.replace_at(path, replacement.clone()).unwrap();
                let id = graph.intern_expr(&tree);
                for (model, price) in models.iter().zip(prices) {
                    assert_eq!(
                        price.to_bits(),
                        graph.cost(id, model).to_bits(),
                        "{program:?} at {path:?}"
                    );
                }
                rewritten.push(id);
            }
            assert_eq!(
                graph.uses[..uses.len()],
                uses,
                "pricing puts every use back"
            );
            assert_live_counts(&mut graph, root);
            // Move once more, onto a rewritten circuit, before the next program.
            let moved = rewritten[rewritten.len() / 2];
            graph.set_live(moved);
            assert_live_counts(&mut graph, moved);
        }
    }

    #[test]
    fn with_operand_replaces_one_occurrence_of_a_repeated_operand() {
        let mut graph = TermGraph::new();
        let doubled = graph.intern_expr(&parse("(+ x x)").unwrap());
        let y = graph.intern_expr(&parse("y").unwrap());
        let left = graph.with_operand(doubled, 0, y);
        assert_eq!(left, graph.intern_expr(&parse("(+ y x)").unwrap()));
        let right = graph.with_operand(doubled, 1, y);
        assert_eq!(right, graph.intern_expr(&parse("(+ x y)").unwrap()));
        assert_ne!(left, right);
    }

    #[test]
    fn interning_is_deterministic() {
        let programs = generated_programs(0xd00d, 60);
        let build = || {
            let mut graph = TermGraph::new();
            let roots: Vec<NodeId> = programs.iter().map(|p| graph.intern_expr(p)).collect();
            (graph.nodes, roots)
        };
        assert_eq!(build(), build(), "same terms in the same order, same ids");
        for program in &programs {
            assert_eq!(
                CircuitDag::from_expr(program),
                CircuitDag::from_expr(program)
            );
        }
    }
}
