//! The FHE-aware cost function of Section 5.3.1.
//!
//! `Cost(e) = w_ops · C_ops(e) + w_depth · D_circuit(e) + w_mult · D_mult(e)`
//!
//! where `C_ops` sums a per-operator latency estimate over every node of the
//! expression tree, `D_circuit` is the circuit depth and `D_mult` the
//! multiplicative depth. Operator latencies and the three weights are plain
//! data so experiments can sweep them (Table 1).

use crate::analysis::OpCounts;
use crate::dag::TermGraph;
use crate::expr::Expr;

/// Relative latency assigned to each operator category.
///
/// Defaults follow the paper: vector additions/subtractions cost 1, vector
/// multiplications 100, rotations 50, and scalar ciphertext operations 250
/// (deliberately high to push the policy towards vectorized code).
/// Ciphertext–plaintext multiplications are cheaper than ciphertext–ciphertext
/// ones in BFV; they are given an intermediate cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// Vector ciphertext addition/subtraction/negation.
    pub vec_add: f64,
    /// Vector ciphertext–ciphertext multiplication.
    pub vec_mul_ct_ct: f64,
    /// Vector ciphertext–plaintext multiplication.
    pub vec_mul_ct_pt: f64,
    /// Ciphertext rotation.
    pub rotation: f64,
    /// Any scalar (non-vectorized) ciphertext operation.
    pub scalar_op: f64,
    /// Plaintext-only operation (folded away by the backend).
    pub plaintext_op: f64,
}

impl Default for OpCosts {
    fn default() -> Self {
        OpCosts {
            vec_add: 1.0,
            vec_mul_ct_ct: 100.0,
            vec_mul_ct_pt: 30.0,
            rotation: 50.0,
            scalar_op: 250.0,
            plaintext_op: 0.0,
        }
    }
}

/// The weights `(w_ops, w_depth, w_mult)` of the cost function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the operation-cost term.
    pub w_ops: f64,
    /// Weight of the circuit-depth term.
    pub w_depth: f64,
    /// Weight of the multiplicative-depth term.
    pub w_mult: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            w_ops: 1.0,
            w_depth: 1.0,
            w_mult: 1.0,
        }
    }
}

impl CostWeights {
    /// Convenience constructor used by the Table 1 weight sweep.
    pub fn new(w_ops: f64, w_depth: f64, w_mult: f64) -> Self {
        CostWeights {
            w_ops,
            w_depth,
            w_mult,
        }
    }
}

/// The complete FHE cost model: per-operator latencies plus term weights.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    /// Per-operator latency estimates.
    pub op_costs: OpCosts,
    /// Weights of the three cost terms.
    pub weights: CostWeights,
}

/// The three components of the cost of an expression, before weighting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// `C_ops`: summed operator latencies.
    pub ops_cost: f64,
    /// `D_circuit`: circuit depth.
    pub depth: usize,
    /// `D_mult`: multiplicative depth.
    pub multiplicative_depth: usize,
    /// Weighted total.
    pub total: f64,
}

impl CostModel {
    /// Creates a cost model with custom weights and default operator costs.
    pub fn with_weights(weights: CostWeights) -> Self {
        CostModel {
            op_costs: OpCosts::default(),
            weights,
        }
    }

    /// Sums the per-operator latency estimate over the operation counts.
    pub fn ops_cost_of_counts(&self, counts: &OpCounts) -> f64 {
        let c = &self.op_costs;
        (counts.vec_add_sub + counts.vec_neg) as f64 * c.vec_add
            + counts.vec_mul_ct_ct as f64 * c.vec_mul_ct_ct
            + counts.vec_mul_ct_pt as f64 * c.vec_mul_ct_pt
            + counts.rotations as f64 * c.rotation
            + counts.scalar_ciphertext_ops() as f64 * c.scalar_op
            + counts.plaintext_ops as f64 * c.plaintext_op
    }

    /// The weighted sum of the three cost terms of one circuit.
    pub(crate) fn weigh(&self, counts: &OpCounts, depth: usize, mult: usize) -> CostBreakdown {
        let ops_cost = self.ops_cost_of_counts(counts);
        let total = self.weights.w_ops * ops_cost
            + self.weights.w_depth * depth as f64
            + self.weights.w_mult * mult as f64;
        CostBreakdown {
            ops_cost,
            depth,
            multiplicative_depth: mult,
            total,
        }
    }

    /// Evaluates the full weighted cost of an expression and returns its
    /// breakdown. One pass: the expression is interned into a [`TermGraph`],
    /// whose nodes carry both depths.
    pub fn breakdown(&self, expr: &Expr) -> CostBreakdown {
        let mut graph = TermGraph::new();
        let root = graph.intern_expr(expr);
        graph.breakdown(root, self)
    }

    /// The weighted cost of an expression (lower is better).
    pub fn cost(&self, expr: &Expr) -> f64 {
        self.breakdown(expr).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn default_costs_match_the_paper() {
        let c = OpCosts::default();
        assert_eq!(c.vec_add, 1.0);
        assert_eq!(c.vec_mul_ct_ct, 100.0);
        assert_eq!(c.rotation, 50.0);
        assert_eq!(c.scalar_op, 250.0);
    }

    #[test]
    fn scalar_code_costs_more_than_its_vectorized_form() {
        let model = CostModel::default();
        let scalar = parse("(Vec (+ a b) (+ c d))").unwrap();
        let vectorized = parse("(VecAdd (Vec a c) (Vec b d))").unwrap();
        assert!(model.cost(&scalar) > model.cost(&vectorized));
    }

    #[test]
    fn rotations_are_cheaper_than_ct_ct_multiplications() {
        let model = CostModel::default();
        let with_rot = parse("(VecAdd (Vec a b) (<< (Vec c d) 1))").unwrap();
        let with_mul = parse("(VecAdd (Vec a b) (VecMul (Vec c d) (Vec e f)))").unwrap();
        assert!(model.cost(&with_rot) < model.cost(&with_mul));
    }

    #[test]
    fn breakdown_matches_weighted_sum() {
        let weights = CostWeights::new(1.0, 50.0, 50.0);
        let model = CostModel::with_weights(weights);
        let e = parse("(* (+ a b) (* c d))").unwrap();
        let b = model.breakdown(&e);
        let expected = b.ops_cost + 50.0 * b.depth as f64 + 50.0 * b.multiplicative_depth as f64;
        assert!((b.total - expected).abs() < 1e-9);
        assert_eq!(b.depth, 2);
        assert_eq!(b.multiplicative_depth, 2);
    }

    #[test]
    fn increasing_depth_weight_penalizes_deep_circuits() {
        let shallow =
            parse("(VecMul (VecMul (Vec a b) (Vec c d)) (VecMul (Vec e f) (Vec g h)))").unwrap();
        let deep =
            parse("(VecMul (Vec a b) (VecMul (Vec c d) (VecMul (Vec e f) (Vec g h))))").unwrap();
        let flat = CostModel::with_weights(CostWeights::new(1.0, 0.0, 0.0));
        // With no depth weight the two shapes have identical op costs.
        assert_eq!(flat.cost(&shallow), flat.cost(&deep));
        let depth_aware = CostModel::with_weights(CostWeights::new(1.0, 100.0, 100.0));
        assert!(depth_aware.cost(&shallow) < depth_aware.cost(&deep));
    }

    #[test]
    fn plaintext_only_work_is_free_by_default() {
        let model = CostModel::default();
        let e = parse("(+ (pt a) (* (pt b) 3))").unwrap();
        assert_eq!(model.breakdown(&e).ops_cost, 0.0);
    }

    #[test]
    fn ct_pt_multiplication_is_cheaper_than_ct_ct() {
        let model = CostModel::default();
        let ct_pt = parse("(VecMul (Vec a b) (Vec 1 2))").unwrap();
        let ct_ct = parse("(VecMul (Vec a b) (Vec c d))").unwrap();
        assert!(model.cost(&ct_pt) < model.cost(&ct_ct));
    }
}
