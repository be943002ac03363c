//! Static analyses over IR expressions: circuit depth, multiplicative depth,
//! and per-category operation counts.
//!
//! These are the quantities the paper's evaluation reports (Table 6) and the
//! ingredients of the FHE-aware cost function (Section 5.3.1).

use crate::dag::{DagNode, NodeId, TermGraph};
use crate::expr::{BinOp, Expr};
use std::collections::HashMap;

/// Whether a (sub)expression carries encrypted data.
///
/// A node is a *ciphertext* node if any input underneath it is a
/// [`Expr::CtVar`]; otherwise it is plaintext-only and a compiler can fold it
/// or treat operations on it as plaintext precomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Contains at least one encrypted input.
    Ciphertext,
    /// Built only from plaintext inputs and constants.
    Plaintext,
}

impl DataKind {
    pub(crate) fn join(self, other: DataKind) -> DataKind {
        if self == DataKind::Ciphertext || other == DataKind::Ciphertext {
            DataKind::Ciphertext
        } else {
            DataKind::Plaintext
        }
    }
}

/// Classifies a node as ciphertext- or plaintext-valued.
pub fn data_kind(expr: &Expr) -> DataKind {
    match expr {
        Expr::CtVar(_) => DataKind::Ciphertext,
        Expr::PtVar(_) | Expr::Const(_) => DataKind::Plaintext,
        _ => expr
            .children()
            .into_iter()
            .map(data_kind)
            .fold(DataKind::Plaintext, DataKind::join),
    }
}

/// Per-category operation counts of an expression tree.
///
/// Counts follow the notation of the paper's Table 5/6: ciphertext additions
/// and subtractions (`⊕`), ciphertext–ciphertext multiplications (`⊗`),
/// ciphertext–plaintext multiplications (`⊙`) and rotations (`⟳`), split into
/// scalar and vector variants, plus plaintext-only operations (which a
/// backend folds away).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Scalar ciphertext additions/subtractions.
    pub scalar_add_sub: usize,
    /// Scalar ciphertext–ciphertext multiplications.
    pub scalar_mul_ct_ct: usize,
    /// Scalar ciphertext–plaintext multiplications.
    pub scalar_mul_ct_pt: usize,
    /// Scalar ciphertext negations.
    pub scalar_neg: usize,
    /// Vector ciphertext additions/subtractions.
    pub vec_add_sub: usize,
    /// Vector ciphertext–ciphertext multiplications.
    pub vec_mul_ct_ct: usize,
    /// Vector ciphertext–plaintext multiplications.
    pub vec_mul_ct_pt: usize,
    /// Vector ciphertext negations.
    pub vec_neg: usize,
    /// Ciphertext rotations.
    pub rotations: usize,
    /// Operations whose operands are all plaintext (free after folding).
    pub plaintext_ops: usize,
    /// `Vec` constructors that pack at least one ciphertext element.
    pub packs: usize,
}

impl OpCounts {
    /// All ciphertext additions/subtractions (scalar + vector).
    pub fn additions(&self) -> usize {
        self.scalar_add_sub + self.vec_add_sub
    }

    /// All ciphertext–ciphertext multiplications (scalar + vector).
    pub fn ct_ct_muls(&self) -> usize {
        self.scalar_mul_ct_ct + self.vec_mul_ct_ct
    }

    /// Total number of ciphertext operations of any kind.
    pub fn total_ciphertext_ops(&self) -> usize {
        self.scalar_add_sub
            + self.scalar_mul_ct_ct
            + self.scalar_mul_ct_pt
            + self.scalar_neg
            + self.vec_add_sub
            + self.vec_mul_ct_ct
            + self.vec_mul_ct_pt
            + self.vec_neg
            + self.rotations
    }

    /// Total number of *scalar* ciphertext operations. Zero means the
    /// expression is fully vectorized.
    pub fn scalar_ciphertext_ops(&self) -> usize {
        self.scalar_add_sub + self.scalar_mul_ct_ct + self.scalar_mul_ct_pt + self.scalar_neg
    }
}

/// The [`OpCounts`] category one circuit node falls in: the single place
/// the IR classifies operations. [`TermGraph`] stores it per node at intern
/// time; counting a circuit is then a sum over its reachable nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    /// Inputs, constants and plaintext-only `Vec` packs: counted nowhere.
    Free,
    ScalarAddSub,
    ScalarMulCtCt,
    ScalarMulCtPt,
    ScalarNeg,
    VecAddSub,
    VecMulCtCt,
    VecMulCtPt,
    VecNeg,
    Rotation,
    PlaintextOp,
    Pack,
}

impl OpClass {
    /// Classifies `node`, whose own data kind is `kind`, given the kinds of
    /// its operands.
    pub(crate) fn of(
        node: &DagNode,
        kind: DataKind,
        operand_kind: impl Fn(NodeId) -> DataKind,
    ) -> OpClass {
        let ct_ct = |a: &NodeId, b: &NodeId| {
            operand_kind(*a) == DataKind::Ciphertext && operand_kind(*b) == DataKind::Ciphertext
        };
        match node {
            DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_) => OpClass::Free,
            DagNode::Vec(_) if kind == DataKind::Ciphertext => OpClass::Pack,
            DagNode::Vec(_) => OpClass::Free,
            _ if kind == DataKind::Plaintext => OpClass::PlaintextOp,
            DagNode::Bin(BinOp::Add | BinOp::Sub, _, _) => OpClass::ScalarAddSub,
            DagNode::Bin(BinOp::Mul, a, b) if ct_ct(a, b) => OpClass::ScalarMulCtCt,
            DagNode::Bin(BinOp::Mul, _, _) => OpClass::ScalarMulCtPt,
            DagNode::Neg(_) => OpClass::ScalarNeg,
            DagNode::VecBin(BinOp::Add | BinOp::Sub, _, _) => OpClass::VecAddSub,
            DagNode::VecBin(BinOp::Mul, a, b) if ct_ct(a, b) => OpClass::VecMulCtCt,
            DagNode::VecBin(BinOp::Mul, _, _) => OpClass::VecMulCtPt,
            DagNode::VecNeg(_) => OpClass::VecNeg,
            DagNode::Rot(_, _) => OpClass::Rotation,
        }
    }

    /// Ciphertext–ciphertext multiplications are what multiplicative depth
    /// counts.
    pub(crate) fn is_ct_ct_mul(self) -> bool {
        matches!(self, OpClass::ScalarMulCtCt | OpClass::VecMulCtCt)
    }
}

impl OpCounts {
    /// Counts one more node of `class`.
    pub(crate) fn record(&mut self, class: OpClass) {
        if let Some(slot) = self.slot(class) {
            *slot += 1;
        }
    }

    /// Counts one fewer node of `class`.
    pub(crate) fn unrecord(&mut self, class: OpClass) {
        if let Some(slot) = self.slot(class) {
            *slot -= 1;
        }
    }

    fn slot(&mut self, class: OpClass) -> Option<&mut usize> {
        Some(match class {
            OpClass::Free => return None,
            OpClass::ScalarAddSub => &mut self.scalar_add_sub,
            OpClass::ScalarMulCtCt => &mut self.scalar_mul_ct_ct,
            OpClass::ScalarMulCtPt => &mut self.scalar_mul_ct_pt,
            OpClass::ScalarNeg => &mut self.scalar_neg,
            OpClass::VecAddSub => &mut self.vec_add_sub,
            OpClass::VecMulCtCt => &mut self.vec_mul_ct_ct,
            OpClass::VecMulCtPt => &mut self.vec_mul_ct_pt,
            OpClass::VecNeg => &mut self.vec_neg,
            OpClass::Rotation => &mut self.rotations,
            OpClass::PlaintextOp => &mut self.plaintext_ops,
            OpClass::Pack => &mut self.packs,
        })
    }
}

/// Counts the operations of `expr` by category.
///
/// Counting is performed on the hash-consed circuit DAG: structurally
/// identical subexpressions are computed once in the generated circuit (the
/// compiler always applies common-subexpression elimination), so they are
/// counted once here. This matches how the paper reports operation counts
/// and keeps the cost model faithful for rewrites such as rotate-and-add
/// reductions whose *tree* form repeats the packed operand.
pub fn count_ops(expr: &Expr) -> OpCounts {
    let mut graph = TermGraph::new();
    let root = graph.intern_expr(expr);
    graph.count_ops(root)
}

/// Circuit depth: the maximum number of operation nodes on any path from an
/// input (or constant) to the root. Leaves have depth 0; `Vec` constructors
/// are data packing, not arithmetic, and do not add to the depth.
pub fn circuit_depth(expr: &Expr) -> usize {
    match expr {
        Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => 0,
        Expr::Vec(elems) => elems.iter().map(circuit_depth).max().unwrap_or(0),
        _ => {
            1 + expr
                .children()
                .into_iter()
                .map(circuit_depth)
                .max()
                .unwrap_or(0)
        }
    }
}

/// Multiplicative depth: the maximum number of ciphertext–ciphertext
/// multiplications on any path from an input to the root.
///
/// Only multiplications where *both* operands carry ciphertext data count,
/// since those dominate noise growth in BFV; ciphertext–plaintext
/// multiplications grow noise far more slowly and are tracked separately by
/// [`count_ops`].
pub fn multiplicative_depth(expr: &Expr) -> usize {
    match expr {
        Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => 0,
        Expr::Bin(BinOp::Mul, a, b) | Expr::VecBin(BinOp::Mul, a, b) => {
            let child_max = multiplicative_depth(a).max(multiplicative_depth(b));
            let is_ct_ct =
                data_kind(a) == DataKind::Ciphertext && data_kind(b) == DataKind::Ciphertext;
            child_max + usize::from(is_ct_ct)
        }
        _ => expr
            .children()
            .into_iter()
            .map(multiplicative_depth)
            .max()
            .unwrap_or(0),
    }
}

/// Collects every distinct rotation step used in the expression together with
/// the number of times it occurs (input to rotation-key selection).
pub fn rotation_steps(expr: &Expr) -> HashMap<i64, usize> {
    let mut steps = HashMap::new();
    expr.for_each_preorder(&mut |e| {
        if let Expr::Rot(_, s) = e {
            *steps.entry(*s).or_insert(0) += 1;
        }
    });
    steps
}

/// A bundled summary of all analyses, convenient for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitSummary {
    /// Circuit depth (all operation kinds).
    pub depth: usize,
    /// Multiplicative depth (ciphertext–ciphertext multiplications only).
    pub multiplicative_depth: usize,
    /// Operation counts by category.
    pub ops: OpCounts,
    /// Total nodes in the expression tree.
    pub nodes: usize,
}

/// Computes a [`CircuitSummary`] for `expr`.
pub fn summarize(expr: &Expr) -> CircuitSummary {
    let mut graph = TermGraph::new();
    let root = graph.intern_expr(expr);
    CircuitSummary {
        depth: graph.circuit_depth(root),
        multiplicative_depth: graph.multiplicative_depth(root),
        ops: graph.count_ops(root),
        nodes: expr.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn data_kind_propagates_ciphertext() {
        assert_eq!(data_kind(&parse("(+ a b)").unwrap()), DataKind::Ciphertext);
        assert_eq!(
            data_kind(&parse("(+ (pt a) 3)").unwrap()),
            DataKind::Plaintext
        );
        assert_eq!(
            data_kind(&parse("(* (pt w) x)").unwrap()),
            DataKind::Ciphertext
        );
    }

    #[test]
    fn depth_of_leaf_is_zero() {
        assert_eq!(circuit_depth(&parse("a").unwrap()), 0);
        assert_eq!(circuit_depth(&parse("7").unwrap()), 0);
    }

    #[test]
    fn depth_counts_operations_on_longest_path() {
        // ((a*b)*(c*d)) has depth 2; adding an outer + makes it 3.
        let e = parse("(+ (* (* a b) (* c d)) e)").unwrap();
        assert_eq!(circuit_depth(&e), 3);
    }

    #[test]
    fn vec_constructor_does_not_add_depth() {
        let e = parse("(VecAdd (Vec (* a b) c) (Vec d e))").unwrap();
        assert_eq!(circuit_depth(&e), 2);
    }

    #[test]
    fn multiplicative_depth_counts_only_ct_ct_muls() {
        let e = parse("(* (* a b) (* c d))").unwrap();
        assert_eq!(multiplicative_depth(&e), 2);
        // A plaintext multiplier does not add multiplicative depth.
        let e = parse("(* (pt w) (* a b))").unwrap();
        assert_eq!(multiplicative_depth(&e), 1);
        // Additions never add multiplicative depth.
        let e = parse("(+ (+ a b) (+ c d))").unwrap();
        assert_eq!(multiplicative_depth(&e), 0);
    }

    #[test]
    fn motivating_example_depths() {
        // Equation (1) of the paper: mult depth 3, circuit depth 4.
        let e = parse(
            "(* (+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6))) (* (* v7 v8) (* v9 v10)))",
        )
        .unwrap();
        assert_eq!(multiplicative_depth(&e), 3);
        assert_eq!(circuit_depth(&e), 4);
        let counts = count_ops(&e);
        // 10 multiplications in the tree, 9 in the circuit DAG because
        // (* v3 v4) is shared — the paper reports 9.
        assert_eq!(counts.scalar_mul_ct_ct, 9);
        assert_eq!(counts.scalar_add_sub, 1);
    }

    #[test]
    fn op_counts_distinguish_ct_ct_and_ct_pt() {
        let e =
            parse("(VecAdd (VecMul (Vec a b) (Vec c d)) (VecMul (Vec e f) (Vec 1 2)))").unwrap();
        let counts = count_ops(&e);
        assert_eq!(counts.vec_mul_ct_ct, 1);
        assert_eq!(counts.vec_mul_ct_pt, 1);
        assert_eq!(counts.vec_add_sub, 1);
        assert_eq!(counts.rotations, 0);
        assert_eq!(counts.packs, 3);
    }

    #[test]
    fn plaintext_only_ops_are_counted_separately() {
        let e = parse("(* (+ (pt a) 3) x)").unwrap();
        let counts = count_ops(&e);
        assert_eq!(counts.plaintext_ops, 1);
        assert_eq!(counts.scalar_mul_ct_pt, 1);
        assert_eq!(counts.scalar_mul_ct_ct, 0);
    }

    #[test]
    fn rotations_are_counted_and_steps_collected() {
        let e = parse("(VecAdd (<< (Vec a b c d) 2) (>> (Vec a b c d) 1))").unwrap();
        let counts = count_ops(&e);
        assert_eq!(counts.rotations, 2);
        let steps = rotation_steps(&e);
        assert_eq!(steps.get(&2), Some(&1));
        assert_eq!(steps.get(&-1), Some(&1));
    }

    #[test]
    fn summary_is_consistent_with_individual_analyses() {
        let e = parse("(* (+ a b) (* c d))").unwrap();
        let s = summarize(&e);
        assert_eq!(s.depth, circuit_depth(&e));
        assert_eq!(s.multiplicative_depth, multiplicative_depth(&e));
        assert_eq!(s.ops, count_ops(&e));
        assert_eq!(s.nodes, e.node_count());
    }

    #[test]
    fn fully_vectorized_expression_has_no_scalar_ops() {
        let e = parse("(VecMul (VecAdd (Vec a b) (Vec c d)) (Vec e f))").unwrap();
        assert_eq!(count_ops(&e).scalar_ciphertext_ops(), 0);
        let scalar = parse("(* (+ a b) c)").unwrap();
        assert!(count_ops(&scalar).scalar_ciphertext_ops() > 0);
    }
}
