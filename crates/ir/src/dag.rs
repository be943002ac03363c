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
//! trees (see `DESIGN.md`, "The compile path").

use crate::analysis::{DataKind, OpClass, OpCounts};
use crate::cost::{CostBreakdown, CostModel};
use crate::expr::{BinOp, Expr};
use crate::symbol::Symbol;
use std::collections::HashMap;

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

    fn for_each_operand(&self, mut f: impl FnMut(NodeId)) {
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

    /// Per-node circuit depth (operation nodes add one; `Vec` packing does
    /// not), indexed by node id.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            let child_max = node
                .operands()
                .into_iter()
                .map(|o| depth[o])
                .max()
                .unwrap_or(0);
            depth[id] = child_max + usize::from(node.is_operation());
        }
        depth
    }

    /// Circuit depth of the whole DAG.
    pub fn depth(&self) -> usize {
        self.depths()[self.output]
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
}

/// A persistent hash-consed term graph: an interner that any number of
/// expressions share, so structurally identical subterms — within one
/// expression or across many — are one node with one id.
///
/// Ids are assigned in interning order and operands are always interned
/// before their users, so the graph is topologically ordered like a
/// [`CircuitDag`], and nothing observable depends on hash-map iteration.
/// Each node carries its [`DataKind`], circuit depth and multiplicative
/// depth from the moment it is interned; [`TermGraph::cost`] of a root is one
/// walk over the nodes reachable from it. The tree analyses
/// ([`circuit_depth`](crate::circuit_depth),
/// [`multiplicative_depth`](crate::multiplicative_depth),
/// [`data_kind`](crate::data_kind)) agree with the graph's on every term.
///
/// The graph only grows: ids stay valid for its whole life, which is what
/// lets a caller memoise per-subterm work under them.
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
    interned: HashMap<DagNode, NodeId>,
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
        let mut kind = match node {
            DagNode::CtVar(_) => DataKind::Ciphertext,
            _ => DataKind::Plaintext,
        };
        let (mut depth, mut mult_depth) = (0, 0);
        node.for_each_operand(|o| {
            let operand = self.attrs[o];
            kind = kind.join(operand.kind);
            depth = depth.max(operand.depth);
            mult_depth = mult_depth.max(operand.mult_depth);
        });
        let class = OpClass::of(&node, kind, |o| self.attrs[o].kind);
        let id = self.nodes.len();
        self.attrs.push(NodeAttrs {
            kind,
            class,
            depth: depth + usize::from(node.is_operation()),
            mult_depth: mult_depth + usize::from(class.is_ct_ct_mul()),
        });
        self.nodes.push(node.clone());
        self.interned.insert(node, id);
        id
    }

    /// Interns an expression and returns the id of its root.
    pub fn intern_expr(&mut self, expr: &Expr) -> NodeId {
        self.intern_tree(expr, &mut Vec::new())
    }

    /// Interns an expression and returns the id of *every* tree node, in the
    /// preorder of [`Expr::paths`] (so index 0 is the root). Repeated
    /// subtrees appear once per occurrence, with the same id.
    pub fn intern_preorder(&mut self, expr: &Expr) -> Vec<NodeId> {
        let mut ids = Vec::new();
        self.intern_tree(expr, &mut ids);
        ids
    }

    fn intern_tree(&mut self, expr: &Expr, preorder: &mut Vec<NodeId>) -> NodeId {
        let slot = preorder.len();
        preorder.push(0);
        let node = match expr {
            Expr::CtVar(s) => DagNode::CtVar(s.clone()),
            Expr::PtVar(s) => DagNode::PtVar(s.clone()),
            Expr::Const(v) => DagNode::Const(*v),
            Expr::Bin(op, a, b) => {
                let (a, b) = (self.intern_tree(a, preorder), self.intern_tree(b, preorder));
                DagNode::Bin(*op, a, b)
            }
            Expr::Neg(a) => DagNode::Neg(self.intern_tree(a, preorder)),
            Expr::Vec(elems) => DagNode::Vec(
                elems
                    .iter()
                    .map(|e| self.intern_tree(e, preorder))
                    .collect(),
            ),
            Expr::VecBin(op, a, b) => {
                let (a, b) = (self.intern_tree(a, preorder), self.intern_tree(b, preorder));
                DagNode::VecBin(*op, a, b)
            }
            Expr::VecNeg(a) => DagNode::VecNeg(self.intern_tree(a, preorder)),
            Expr::Rot(a, s) => DagNode::Rot(self.intern_tree(a, preorder), *s),
        };
        let id = self.intern(node);
        preorder[slot] = id;
        id
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
        let node = match (&self.nodes[id], index) {
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
        };
        self.intern(node)
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
    fn depth_matches_tree_depth_without_sharing() {
        let e = parse("(* (+ a b) (* c d))").unwrap();
        let dag = CircuitDag::from_expr(&e);
        assert_eq!(dag.depth(), crate::analysis::circuit_depth(&e));
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

    #[test]
    fn graph_attributes_equal_the_tree_analyses() {
        use crate::analysis::{circuit_depth, count_ops, data_kind, multiplicative_depth};
        use crate::cost::CostWeights;
        let models = [
            CostModel::default(),
            CostModel::with_weights(CostWeights::new(1.0, 50.0, 50.0)),
        ];
        // One graph for every program: a root's analyses must not see the
        // other terms the graph holds.
        let mut graph = TermGraph::new();
        for program in generated_programs(0x5eed, 300) {
            let ids = graph.intern_preorder(&program);
            for (id, subterm) in ids.iter().zip(program.preorder()) {
                assert_eq!(graph.data_kind(*id), data_kind(subterm), "{subterm:?}");
                assert_eq!(
                    graph.circuit_depth(*id),
                    circuit_depth(subterm),
                    "{subterm:?}"
                );
                assert_eq!(
                    graph.multiplicative_depth(*id),
                    multiplicative_depth(subterm),
                    "{subterm:?}"
                );
            }
            assert_eq!(graph.count_ops(ids[0]), count_ops(&program), "{program:?}");
            assert_eq!(
                ids[0],
                graph.intern_expr(&program),
                "interning is idempotent"
            );
            for model in &models {
                assert_eq!(
                    graph.cost(ids[0], model).to_bits(),
                    model.cost(&program).to_bits(),
                    "{program:?}"
                );
            }
        }
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
