//! The rewrite-rule catalog: the action space of the CHEHAB RL agent.
//!
//! The catalog mirrors Appendix E of the paper. Rules fall into five groups:
//! algebraic transformations (commutativity, associativity, distribution),
//! simplifications (identities, factorization, plaintext consolidation),
//! tree balancing, vectorization of isomorphic and non-isomorphic
//! subexpressions, and rotation rules (including composite reduction
//! patterns). The catalog is ordered and stable: the index of a rule is the
//! id of the corresponding RL action.

use crate::rule::{Rule, RuleCategory};
use chehab_ir::{BinOp, DagNode, NodeId, TermGraph, Ty};

/// Builds the full, ordered rule catalog used by CHEHAB RL.
///
/// The catalog always contains at least 84 rules (the count reported by the
/// paper); the exact number is available as `default_catalog().len()`.
pub fn default_catalog() -> Vec<Rule> {
    let mut rules = Vec::with_capacity(96);
    scalar_transformations(&mut rules);
    scalar_simplifications(&mut rules);
    scalar_balancing(&mut rules);
    vector_algebra(&mut rules);
    vector_balancing(&mut rules);
    isomorphic_vectorization(&mut rules);
    procedural_vectorization(&mut rules);
    rotation_rules(&mut rules);
    folding_rules(&mut rules);
    rules
}

fn r(rules: &mut Vec<Rule>, name: &str, cat: RuleCategory, lhs: &str, rhs: &str) {
    rules.push(Rule::rewrite(name, cat, lhs, rhs));
}

fn scalar_transformations(rules: &mut Vec<Rule>) {
    use RuleCategory::Transformation as T;
    r(rules, "add-comm", T, "(+ ?a ?b)", "(+ ?b ?a)");
    r(rules, "mul-comm", T, "(* ?a ?b)", "(* ?b ?a)");
    r(
        rules,
        "add-assoc-left",
        T,
        "(+ ?a (+ ?b ?c))",
        "(+ (+ ?a ?b) ?c)",
    );
    r(
        rules,
        "add-assoc-right",
        T,
        "(+ (+ ?a ?b) ?c)",
        "(+ ?a (+ ?b ?c))",
    );
    r(
        rules,
        "mul-assoc-left",
        T,
        "(* ?a (* ?b ?c))",
        "(* (* ?a ?b) ?c)",
    );
    r(
        rules,
        "mul-assoc-right",
        T,
        "(* (* ?a ?b) ?c)",
        "(* ?a (* ?b ?c))",
    );
    r(
        rules,
        "distribute-left",
        T,
        "(* ?a (+ ?b ?c))",
        "(+ (* ?a ?b) (* ?a ?c))",
    );
    r(
        rules,
        "distribute-right",
        T,
        "(* (+ ?a ?b) ?c)",
        "(+ (* ?a ?c) (* ?b ?c))",
    );
    r(
        rules,
        "sub-distribute-left",
        T,
        "(* ?a (- ?b ?c))",
        "(- (* ?a ?b) (* ?a ?c))",
    );
    r(
        rules,
        "sub-distribute-right",
        T,
        "(* (- ?a ?b) ?c)",
        "(- (* ?a ?c) (* ?b ?c))",
    );
    r(rules, "sub-to-add-neg", T, "(- ?a ?b)", "(+ ?a (- ?b))");
    r(rules, "add-neg-to-sub", T, "(+ ?a (- ?b))", "(- ?a ?b)");
    r(
        rules,
        "neg-distribute-add",
        T,
        "(- (+ ?a ?b))",
        "(+ (- ?a) (- ?b))",
    );
    r(
        rules,
        "neg-collect-add",
        T,
        "(+ (- ?a) (- ?b))",
        "(- (+ ?a ?b))",
    );
    r(rules, "neg-mul-left", T, "(* (- ?a) ?b)", "(- (* ?a ?b))");
    r(rules, "neg-mul-right", T, "(* ?a (- ?b))", "(- (* ?a ?b))");
}

fn scalar_simplifications(rules: &mut Vec<Rule>) {
    use RuleCategory::Simplification as S;
    r(
        rules,
        "factor-left",
        S,
        "(+ (* ?a ?b) (* ?a ?c))",
        "(* ?a (+ ?b ?c))",
    );
    r(
        rules,
        "factor-right",
        S,
        "(+ (* ?b ?a) (* ?c ?a))",
        "(* (+ ?b ?c) ?a)",
    );
    r(
        rules,
        "factor-mixed-1",
        S,
        "(+ (* ?a ?b) (* ?c ?a))",
        "(* ?a (+ ?b ?c))",
    );
    r(
        rules,
        "factor-mixed-2",
        S,
        "(+ (* ?b ?a) (* ?a ?c))",
        "(* ?a (+ ?b ?c))",
    );
    r(
        rules,
        "sub-factor-left",
        S,
        "(- (* ?a ?b) (* ?a ?c))",
        "(* ?a (- ?b ?c))",
    );
    r(
        rules,
        "sub-factor-right",
        S,
        "(- (* ?b ?a) (* ?c ?a))",
        "(* (- ?b ?c) ?a)",
    );
    r(rules, "mul-one", S, "(* ?a 1)", "?a");
    r(rules, "one-mul", S, "(* 1 ?a)", "?a");
    r(rules, "mul-zero", S, "(* ?a 0)", "0");
    r(rules, "zero-mul", S, "(* 0 ?a)", "0");
    r(rules, "add-zero", S, "(+ ?a 0)", "?a");
    r(rules, "zero-add", S, "(+ 0 ?a)", "?a");
    r(rules, "sub-zero", S, "(- ?a 0)", "?a");
    r(rules, "sub-self", S, "(- ?a ?a)", "0");
    r(rules, "neg-neg", S, "(- (- ?a))", "?a");
    r(rules, "mul-two-to-add", S, "(* ?a 2)", "(+ ?a ?a)");
    r(rules, "two-mul-to-add", S, "(* 2 ?a)", "(+ ?a ?a)");
    r(rules, "add-self-to-mul-two", S, "(+ ?a ?a)", "(* ?a 2)");
    r(rules, "zero-sub-to-neg", S, "(- 0 ?a)", "(- ?a)");
    r(
        rules,
        "pt-consolidate",
        S,
        "(* ?p:plain (* ?q:plain ?x))",
        "(* (* ?p ?q) ?x)",
    );
    r(
        rules,
        "pt-pull-out",
        S,
        "(* (* ?p:plain ?x) ?q:plain)",
        "(* (* ?p ?q) ?x)",
    );
}

fn scalar_balancing(rules: &mut Vec<Rule>) {
    use RuleCategory::Balancing as B;
    r(
        rules,
        "mul-balance-right",
        B,
        "(* ?a (* ?b (* ?c ?d)))",
        "(* (* ?a ?b) (* ?c ?d))",
    );
    r(
        rules,
        "mul-balance-left",
        B,
        "(* (* (* ?a ?b) ?c) ?d)",
        "(* (* ?a ?b) (* ?c ?d))",
    );
    r(
        rules,
        "add-balance-right",
        B,
        "(+ ?a (+ ?b (+ ?c ?d)))",
        "(+ (+ ?a ?b) (+ ?c ?d))",
    );
    r(
        rules,
        "add-balance-left",
        B,
        "(+ (+ (+ ?a ?b) ?c) ?d)",
        "(+ (+ ?a ?b) (+ ?c ?d))",
    );
}

fn vector_algebra(rules: &mut Vec<Rule>) {
    use RuleCategory::Transformation as T;
    r(rules, "vec-add-comm", T, "(VecAdd ?a ?b)", "(VecAdd ?b ?a)");
    r(rules, "vec-mul-comm", T, "(VecMul ?a ?b)", "(VecMul ?b ?a)");
    r(
        rules,
        "vec-add-assoc-left",
        T,
        "(VecAdd ?a (VecAdd ?b ?c))",
        "(VecAdd (VecAdd ?a ?b) ?c)",
    );
    r(
        rules,
        "vec-add-assoc-right",
        T,
        "(VecAdd (VecAdd ?a ?b) ?c)",
        "(VecAdd ?a (VecAdd ?b ?c))",
    );
    r(
        rules,
        "vec-mul-assoc-left",
        T,
        "(VecMul ?a (VecMul ?b ?c))",
        "(VecMul (VecMul ?a ?b) ?c)",
    );
    r(
        rules,
        "vec-mul-assoc-right",
        T,
        "(VecMul (VecMul ?a ?b) ?c)",
        "(VecMul ?a (VecMul ?b ?c))",
    );
    r(
        rules,
        "vec-distribute-left",
        T,
        "(VecMul ?a (VecAdd ?b ?c))",
        "(VecAdd (VecMul ?a ?b) (VecMul ?a ?c))",
    );
    r(
        rules,
        "vec-distribute-right",
        T,
        "(VecMul (VecAdd ?a ?b) ?c)",
        "(VecAdd (VecMul ?a ?c) (VecMul ?b ?c))",
    );
    r(
        rules,
        "vec-factor-left",
        RuleCategory::Simplification,
        "(VecAdd (VecMul ?a ?b) (VecMul ?a ?c))",
        "(VecMul ?a (VecAdd ?b ?c))",
    );
    r(
        rules,
        "vec-factor-right",
        RuleCategory::Simplification,
        "(VecAdd (VecMul ?b ?a) (VecMul ?c ?a))",
        "(VecMul (VecAdd ?b ?c) ?a)",
    );
    r(
        rules,
        "vec-sub-factor-left",
        RuleCategory::Simplification,
        "(VecSub (VecMul ?a ?b) (VecMul ?a ?c))",
        "(VecMul ?a (VecSub ?b ?c))",
    );
    r(
        rules,
        "vec-sub-to-add-neg",
        T,
        "(VecSub ?a ?b)",
        "(VecAdd ?a (VecNeg ?b))",
    );
    r(
        rules,
        "vec-add-neg-to-sub",
        T,
        "(VecAdd ?a (VecNeg ?b))",
        "(VecSub ?a ?b)",
    );
    r(
        rules,
        "vec-neg-neg",
        RuleCategory::Simplification,
        "(VecNeg (VecNeg ?a))",
        "?a",
    );
}

fn vector_balancing(rules: &mut Vec<Rule>) {
    use RuleCategory::Balancing as B;
    r(
        rules,
        "vecmul-balance-right",
        B,
        "(VecMul ?x (VecMul ?y (VecMul ?z ?t)))",
        "(VecMul (VecMul ?x ?y) (VecMul ?z ?t))",
    );
    r(
        rules,
        "vecmul-balance-left",
        B,
        "(VecMul (VecMul (VecMul ?x ?y) ?z) ?t)",
        "(VecMul (VecMul ?x ?y) (VecMul ?z ?t))",
    );
    r(
        rules,
        "vecadd-balance-right",
        B,
        "(VecAdd ?x (VecAdd ?y (VecAdd ?z ?t)))",
        "(VecAdd (VecAdd ?x ?y) (VecAdd ?z ?t))",
    );
    r(
        rules,
        "vecadd-balance-left",
        B,
        "(VecAdd (VecAdd (VecAdd ?x ?y) ?z) ?t)",
        "(VecAdd (VecAdd ?x ?y) (VecAdd ?z ?t))",
    );
}

fn isomorphic_vectorization(rules: &mut Vec<Rule>) {
    use RuleCategory::Vectorization as V;
    r(
        rules,
        "add-vectorize-2",
        V,
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1))",
        "(VecAdd (Vec ?a0 ?a1) (Vec ?b0 ?b1))",
    );
    r(
        rules,
        "sub-vectorize-2",
        V,
        "(Vec (- ?a0 ?b0) (- ?a1 ?b1))",
        "(VecSub (Vec ?a0 ?a1) (Vec ?b0 ?b1))",
    );
    r(
        rules,
        "mul-vectorize-2",
        V,
        "(Vec (* ?a0 ?b0) (* ?a1 ?b1))",
        "(VecMul (Vec ?a0 ?a1) (Vec ?b0 ?b1))",
    );
    r(
        rules,
        "neg-vectorize-2",
        V,
        "(Vec (- ?a0) (- ?a1))",
        "(VecNeg (Vec ?a0 ?a1))",
    );
    r(
        rules,
        "add-vectorize-3",
        V,
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2))",
        "(VecAdd (Vec ?a0 ?a1 ?a2) (Vec ?b0 ?b1 ?b2))",
    );
    r(
        rules,
        "sub-vectorize-3",
        V,
        "(Vec (- ?a0 ?b0) (- ?a1 ?b1) (- ?a2 ?b2))",
        "(VecSub (Vec ?a0 ?a1 ?a2) (Vec ?b0 ?b1 ?b2))",
    );
    r(
        rules,
        "mul-vectorize-3",
        V,
        "(Vec (* ?a0 ?b0) (* ?a1 ?b1) (* ?a2 ?b2))",
        "(VecMul (Vec ?a0 ?a1 ?a2) (Vec ?b0 ?b1 ?b2))",
    );
    r(
        rules,
        "add-vectorize-4",
        V,
        "(Vec (+ ?a0 ?b0) (+ ?a1 ?b1) (+ ?a2 ?b2) (+ ?a3 ?b3))",
        "(VecAdd (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))",
    );
    r(
        rules,
        "sub-vectorize-4",
        V,
        "(Vec (- ?a0 ?b0) (- ?a1 ?b1) (- ?a2 ?b2) (- ?a3 ?b3))",
        "(VecSub (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))",
    );
    r(
        rules,
        "mul-vectorize-4",
        V,
        "(Vec (* ?a0 ?b0) (* ?a1 ?b1) (* ?a2 ?b2) (* ?a3 ?b3))",
        "(VecMul (Vec ?a0 ?a1 ?a2 ?a3) (Vec ?b0 ?b1 ?b2 ?b3))",
    );
}

fn procedural_vectorization(rules: &mut Vec<Rule>) {
    use RuleCategory::Vectorization as V;
    for op in BinOp::ALL {
        let full_name = format!("{}-vectorize-full", op_word(op));
        rules.push(Rule::procedural(&full_name, V, move |graph, id| {
            vectorize_full(graph, id, op)
        }));
    }
    rules.push(Rule::procedural(
        "neg-vectorize-full",
        V,
        vectorize_neg_full,
    ));
    for op in BinOp::ALL {
        let partial_name = format!("{}-vectorize-partial", op_word(op));
        rules.push(Rule::procedural(&partial_name, V, move |graph, id| {
            vectorize_partial(graph, id, op)
        }));
    }
}

fn rotation_rules(rules: &mut Vec<Rule>) {
    use RuleCategory::Rotation as R;
    r(
        rules,
        "rot-factor-add",
        R,
        "(VecAdd (<< ?a ?s) (<< ?b ?s))",
        "(<< (VecAdd ?a ?b) ?s)",
    );
    r(
        rules,
        "rot-distribute-add",
        R,
        "(<< (VecAdd ?a ?b) ?s)",
        "(VecAdd (<< ?a ?s) (<< ?b ?s))",
    );
    r(
        rules,
        "rot-factor-mul",
        R,
        "(VecMul (<< ?a ?s) (<< ?b ?s))",
        "(<< (VecMul ?a ?b) ?s)",
    );
    r(
        rules,
        "rot-distribute-mul",
        R,
        "(<< (VecMul ?a ?b) ?s)",
        "(VecMul (<< ?a ?s) (<< ?b ?s))",
    );
    r(
        rules,
        "rot-factor-sub",
        R,
        "(VecSub (<< ?a ?s) (<< ?b ?s))",
        "(<< (VecSub ?a ?b) ?s)",
    );
    r(
        rules,
        "rot-distribute-sub",
        R,
        "(<< (VecSub ?a ?b) ?s)",
        "(VecSub (<< ?a ?s) (<< ?b ?s))",
    );
    rules.push(Rule::procedural("rot-merge", R, rot_merge));
    rules.push(Rule::procedural("rot-zero", R, rot_zero));
    rules.push(Rule::procedural("reduce-sum-rotations", R, reduce_sum_rotations).root_only());
    rules.push(
        Rule::procedural("reduce-product-pairs-rotation", R, reduce_product_pairs).root_only(),
    );
}

fn folding_rules(rules: &mut Vec<Rule>) {
    use RuleCategory::Simplification as S;
    rules.push(Rule::procedural("const-fold", S, const_fold_node));
    rules.push(Rule::procedural("vec-mul-ones", S, vec_mul_ones));
    rules.push(Rule::procedural("vec-add-zeros", S, vec_add_zeros));
}

fn op_word(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
    }
}

// ---------------------------------------------------------------------------
// Procedural rule bodies
//
// Each body reads the matched node by id, rejects on its shape before reading
// anything else, and interns its result children first, left to right: the
// order `TermGraph::intern_expr` interns the rewritten tree in, so the ids
// are the ones interning that tree would give.
// ---------------------------------------------------------------------------

/// `(Vec (op a0 b0) ... (op ak bk))` with every element an application of
/// `op` (and at least two elements) becomes
/// `(VecOp (Vec a0 ... ak) (Vec b0 ... bk))`.
fn vectorize_full(graph: &mut TermGraph, id: NodeId, op: BinOp) -> Option<NodeId> {
    let DagNode::Vec(elems) = graph.node(id) else {
        return None;
    };
    if elems.len() < 2 {
        return None;
    }
    let mut lhs = Vec::with_capacity(elems.len());
    let mut rhs = Vec::with_capacity(elems.len());
    for &e in elems {
        match *graph.node(e) {
            DagNode::Bin(eop, a, b) if eop == op => {
                lhs.push(a);
                rhs.push(b);
            }
            _ => return None,
        }
    }
    let lhs = graph.intern(DagNode::Vec(lhs));
    let rhs = graph.intern(DagNode::Vec(rhs));
    Some(graph.intern(DagNode::VecBin(op, lhs, rhs)))
}

/// `(Vec (- a0) ... (- ak))` becomes `(VecNeg (Vec a0 ... ak))`.
fn vectorize_neg_full(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    let DagNode::Vec(elems) = graph.node(id) else {
        return None;
    };
    if elems.len() < 2 {
        return None;
    }
    let mut inner = Vec::with_capacity(elems.len());
    for &e in elems {
        match *graph.node(e) {
            DagNode::Neg(a) => inner.push(a),
            _ => return None,
        }
    }
    let inner = graph.intern(DagNode::Vec(inner));
    Some(graph.intern(DagNode::VecNeg(inner)))
}

/// Non-isomorphic vectorization (Appendix E): if at least two elements of a
/// `Vec` apply `op` and at least one does not, vectorize the matching
/// elements, keep the non-matching elements in the first operand vector, and
/// pad the second operand vector with the identity element of `op`.
fn vectorize_partial(graph: &mut TermGraph, id: NodeId, op: BinOp) -> Option<NodeId> {
    let DagNode::Vec(elems) = graph.node(id) else {
        return None;
    };
    if elems.len() < 2 {
        return None;
    }
    // Per element: its first operand vector entry, and its second one (`None`
    // for the identity padding).
    let split: Vec<(NodeId, Option<NodeId>)> = elems
        .iter()
        .map(|&e| match *graph.node(e) {
            DagNode::Bin(eop, a, b) if eop == op => (a, Some(b)),
            _ => (e, None),
        })
        .collect();
    let matching = split.iter().filter(|(_, b)| b.is_some()).count();
    if matching < 2 || matching == split.len() {
        return None;
    }
    let lhs = graph.intern(DagNode::Vec(split.iter().map(|&(a, _)| a).collect()));
    let identity = graph.intern(DagNode::Const(op.identity()));
    let rhs = split.iter().map(|&(_, b)| b.unwrap_or(identity)).collect();
    let rhs = graph.intern(DagNode::Vec(rhs));
    Some(graph.intern(DagNode::VecBin(op, lhs, rhs)))
}

/// Merges nested rotations with the same direction.
fn rot_merge(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    let DagNode::Rot(inner, outer_step) = *graph.node(id) else {
        return None;
    };
    let DagNode::Rot(base, inner_step) = *graph.node(inner) else {
        return None;
    };
    if (outer_step >= 0) != (inner_step >= 0) {
        return None;
    }
    let combined = outer_step + inner_step;
    Some(if combined == 0 {
        base
    } else {
        graph.intern(DagNode::Rot(base, combined))
    })
}

/// Removes zero-step rotations.
fn rot_zero(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    match *graph.node(id) {
        DagNode::Rot(inner, 0) => Some(inner),
        _ => None,
    }
}

/// `(VecMul v (Vec 1 1 ...))` (or commuted) becomes `v`.
fn vec_mul_ones(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    let DagNode::VecBin(BinOp::Mul, a, b) = *graph.node(id) else {
        return None;
    };
    if is_const_splat(graph, b, 1) {
        return Some(a);
    }
    if is_const_splat(graph, a, 1) {
        return Some(b);
    }
    None
}

/// `(VecAdd v (Vec 0 0 ...))`, its commuted form, and `(VecSub v zeros)`
/// become `v`.
fn vec_add_zeros(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    match *graph.node(id) {
        DagNode::VecBin(BinOp::Add, a, b) => {
            if is_const_splat(graph, b, 0) {
                Some(a)
            } else if is_const_splat(graph, a, 0) {
                Some(b)
            } else {
                None
            }
        }
        DagNode::VecBin(BinOp::Sub, a, b) if is_const_splat(graph, b, 0) => Some(a),
        _ => None,
    }
}

fn is_const_splat(graph: &TermGraph, id: NodeId, value: i64) -> bool {
    match graph.node(id) {
        DagNode::Vec(elems) => elems
            .iter()
            .all(|&e| matches!(graph.node(e), DagNode::Const(v) if *v == value)),
        _ => false,
    }
}

/// Rewrites a scalar sum of at least four terms into a packed
/// rotate-and-add reduction whose result lands in slot 0.
///
/// If every term is a product `(* l r)` the terms are packed as a single
/// `VecMul`; otherwise the terms themselves are packed. The rule changes the
/// node's type from scalar to vector, so it is restricted to the program
/// root, where only the declared output slots are observed.
fn reduce_sum_rotations(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    // Terms must be scalars (a sum of vectors is not a reduction): a scalar
    // addition types as a scalar exactly when each of its terms does.
    if !matches!(graph.node(id), DagNode::Bin(BinOp::Add, _, _)) || graph.ty(id) != Ok(Ty::Scalar) {
        return None;
    }
    let mut terms = Vec::new();
    flatten_sum(graph, id, &mut terms);
    if terms.len() < 4 {
        return None;
    }
    let products: Option<Vec<(NodeId, NodeId)>> = terms
        .iter()
        .map(|&t| match *graph.node(t) {
            DagNode::Bin(BinOp::Mul, a, b) => Some((a, b)),
            _ => None,
        })
        .collect();
    let packed = match products {
        Some(products) => {
            let lhs = graph.intern(DagNode::Vec(products.iter().map(|p| p.0).collect()));
            let rhs = graph.intern(DagNode::Vec(products.iter().map(|p| p.1).collect()));
            graph.intern(DagNode::VecBin(BinOp::Mul, lhs, rhs))
        }
        None => graph.intern(DagNode::Vec(terms.clone())),
    };
    Some(rotate_add_reduce(graph, packed, terms.len()))
}

/// The terms of the sum rooted at `id`, left to right: every maximal operand
/// that is not itself a scalar addition.
fn flatten_sum(graph: &TermGraph, id: NodeId, terms: &mut Vec<NodeId>) {
    match *graph.node(id) {
        DagNode::Bin(BinOp::Add, a, b) => {
            flatten_sum(graph, a, terms);
            flatten_sum(graph, b, terms);
        }
        _ => terms.push(id),
    }
}

/// Builds the log-depth rotate-and-add tree that sums the first `len` slots
/// of `packed` into slot 0 (zero-fill shift semantics make the padding slots
/// contribute nothing).
fn rotate_add_reduce(graph: &mut TermGraph, packed: NodeId, len: usize) -> NodeId {
    let mut width = len.next_power_of_two();
    let mut acc = packed;
    while width > 1 {
        let half = (width / 2) as i64;
        let rotated = graph.intern(DagNode::Rot(acc, half));
        acc = graph.intern(DagNode::VecBin(BinOp::Add, acc, rotated));
        width /= 2;
    }
    acc
}

/// Composite rotation rule (Appendix E): a `Vec` whose every element is a sum
/// of exactly two products becomes a single packed `VecMul` of width `2k`
/// followed by one rotate-and-add, replacing `2k` scalar multiplications and
/// `k` scalar additions with one vector multiplication, one rotation and one
/// vector addition.
fn reduce_product_pairs(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    let DagNode::Vec(elems) = graph.node(id) else {
        return None;
    };
    if elems.len() < 2 {
        return None;
    }
    let k = elems.len();
    let mut lhs = vec![0; 2 * k];
    let mut rhs = vec![0; 2 * k];
    for (i, &e) in elems.iter().enumerate() {
        let DagNode::Bin(BinOp::Add, p, q) = *graph.node(e) else {
            return None;
        };
        let DagNode::Bin(BinOp::Mul, a, b) = *graph.node(p) else {
            return None;
        };
        let DagNode::Bin(BinOp::Mul, c, d) = *graph.node(q) else {
            return None;
        };
        (lhs[i], rhs[i], lhs[k + i], rhs[k + i]) = (a, b, c, d);
    }
    let lhs = graph.intern(DagNode::Vec(lhs));
    let rhs = graph.intern(DagNode::Vec(rhs));
    let packed = graph.intern(DagNode::VecBin(BinOp::Mul, lhs, rhs));
    let rotated = graph.intern(DagNode::Rot(packed, k as i64));
    Some(graph.intern(DagNode::VecBin(BinOp::Add, packed, rotated)))
}

/// Folds an operation whose operands are literal constants.
fn const_fold_node(graph: &mut TermGraph, id: NodeId) -> Option<NodeId> {
    let constant = |operand: NodeId| match *graph.node(operand) {
        DagNode::Const(v) => Some(v),
        _ => None,
    };
    let folded = match *graph.node(id) {
        DagNode::Bin(op, a, b) => {
            let (x, y) = (constant(a)?, constant(b)?);
            match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
            }
        }
        DagNode::Neg(a) => constant(a)?.wrapping_neg(),
        _ => return None,
    };
    Some(graph.intern(DagNode::Const(folded)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Placement;
    use chehab_ir::{count_ops, equivalent_on_live_slots, parse, Env, Expr};
    use std::collections::HashSet;

    #[test]
    fn catalog_has_at_least_84_rules_with_unique_names() {
        let rules = default_catalog();
        assert!(rules.len() >= 84, "catalog has only {} rules", rules.len());
        let names: HashSet<_> = rules.iter().map(|r| r.name().to_string()).collect();
        assert_eq!(names.len(), rules.len(), "duplicate rule names");
    }

    #[test]
    fn catalog_covers_all_categories() {
        let rules = default_catalog();
        for cat in [
            RuleCategory::Vectorization,
            RuleCategory::Simplification,
            RuleCategory::Transformation,
            RuleCategory::Balancing,
            RuleCategory::Rotation,
        ] {
            assert!(
                rules.iter().any(|r| r.category() == cat),
                "no rule in category {cat}"
            );
        }
    }

    #[test]
    fn root_only_rules_are_marked() {
        let rules = default_catalog();
        let root_only: Vec<_> = rules
            .iter()
            .filter(|r| r.placement() == Placement::RootOnly)
            .map(|r| r.name())
            .collect();
        assert!(root_only.contains(&"reduce-sum-rotations"));
        assert!(root_only.contains(&"reduce-product-pairs-rotation"));
    }

    fn rule(name: &str) -> Rule {
        default_catalog()
            .into_iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("no rule {name}"))
    }

    #[test]
    fn full_vectorization_packs_all_lanes() {
        let e = parse("(Vec (+ a b) (+ c d) (+ e f))").unwrap();
        let out = rule("add-vectorize-full").try_apply(&e).unwrap();
        assert_eq!(out, parse("(VecAdd (Vec a c e) (Vec b d f))").unwrap());
        // Mixed ops are not a full match.
        let mixed = parse("(Vec (+ a b) (* c d))").unwrap();
        assert!(rule("add-vectorize-full").try_apply(&mixed).is_none());
    }

    #[test]
    fn partial_vectorization_pads_with_identity() {
        let e = parse("(Vec (* a b) (* c d) (- f g))").unwrap();
        let out = rule("mul-vectorize-partial").try_apply(&e).unwrap();
        assert_eq!(
            out,
            parse("(VecMul (Vec a c (- f g)) (Vec b d 1))").unwrap()
        );
        // It must not fire when everything matches (the full rule covers that).
        let all = parse("(Vec (* a b) (* c d))").unwrap();
        assert!(rule("mul-vectorize-partial").try_apply(&all).is_none());
    }

    #[test]
    fn partial_vectorization_is_sound() {
        let e = parse("(Vec (* a b) (* c d) (- f g))").unwrap();
        let out = rule("mul-vectorize-partial").try_apply(&e).unwrap();
        let mut env = Env::new();
        env.bind_all(&e, |s| s.as_str().bytes().map(i64::from).sum::<i64>() % 97);
        assert!(equivalent_on_live_slots(&e, &out, &env, 3).unwrap());
    }

    #[test]
    fn neg_vectorization() {
        let e = parse("(Vec (- a) (- b) (- c))").unwrap();
        let out = rule("neg-vectorize-full").try_apply(&e).unwrap();
        assert_eq!(out, parse("(VecNeg (Vec a b c))").unwrap());
    }

    #[test]
    fn sum_reduction_builds_log_depth_rotate_add() {
        // Dot product of length 4, written as unstructured scalar code.
        let e = parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))").unwrap();
        let out = rule("reduce-sum-rotations").try_apply(&e).unwrap();
        let counts = count_ops(&out);
        assert_eq!(counts.vec_mul_ct_ct, 1, "one packed multiplication");
        assert_eq!(counts.rotations, 2, "log2(4) rotations");
        assert_eq!(counts.vec_add_sub, 2, "log2(4) vector additions");
        assert_eq!(counts.scalar_ciphertext_ops(), 0);
        // Slot 0 must hold the dot product.
        let mut env = Env::new();
        env.bind_all(&e, |s| s.as_str().bytes().map(i64::from).sum::<i64>() % 53);
        assert!(equivalent_on_live_slots(&e, &out, &env, 1).unwrap());
    }

    #[test]
    fn sum_reduction_handles_non_product_terms_and_non_power_of_two() {
        let e = parse("(+ (+ (+ x0 x1) (+ x2 x3)) (+ x4 x5))").unwrap();
        let out = rule("reduce-sum-rotations").try_apply(&e).unwrap();
        let mut env = Env::new();
        env.bind_all(&e, |s| s.as_str().bytes().map(i64::from).sum::<i64>() % 31);
        assert!(equivalent_on_live_slots(&e, &out, &env, 1).unwrap());
        assert_eq!(count_ops(&out).rotations, 3, "ceil(log2(6)) rotations");
    }

    #[test]
    fn sum_reduction_requires_at_least_four_terms() {
        let e = parse("(+ (* a b) (* c d))").unwrap();
        assert!(rule("reduce-sum-rotations").try_apply(&e).is_none());
    }

    #[test]
    fn product_pair_reduction_is_sound_on_live_slots() {
        let e = parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))").unwrap();
        let out = rule("reduce-product-pairs-rotation").try_apply(&e).unwrap();
        let counts = count_ops(&out);
        assert_eq!(counts.vec_mul_ct_ct, 1);
        assert_eq!(counts.rotations, 1);
        assert_eq!(counts.vec_add_sub, 1);
        let mut env = Env::new();
        env.bind_all(&e, |s| s.as_str().bytes().map(i64::from).sum::<i64>() % 41);
        assert!(equivalent_on_live_slots(&e, &out, &env, 2).unwrap());
    }

    #[test]
    fn rot_merge_and_rot_zero() {
        let e = parse("(<< (<< (Vec a b c d) 1) 2)").unwrap();
        assert_eq!(
            rule("rot-merge").try_apply(&e).unwrap(),
            parse("(<< (Vec a b c d) 3)").unwrap()
        );
        let opposite = parse("(<< (>> (Vec a b c d) 1) 2)").unwrap();
        assert!(rule("rot-merge").try_apply(&opposite).is_none());
        let zero = parse("(<< (Vec a b) 0)").unwrap();
        assert_eq!(
            rule("rot-zero").try_apply(&zero).unwrap(),
            parse("(Vec a b)").unwrap()
        );
    }

    #[test]
    fn vec_identity_folding() {
        let e = parse("(VecMul (Vec a b) (Vec 1 1))").unwrap();
        assert_eq!(
            rule("vec-mul-ones").try_apply(&e).unwrap(),
            parse("(Vec a b)").unwrap()
        );
        let e = parse("(VecAdd (Vec 0 0) (Vec a b))").unwrap();
        assert_eq!(
            rule("vec-add-zeros").try_apply(&e).unwrap(),
            parse("(Vec a b)").unwrap()
        );
        let not_ones = parse("(VecMul (Vec a b) (Vec 1 2))").unwrap();
        assert!(rule("vec-mul-ones").try_apply(&not_ones).is_none());
    }

    #[test]
    fn const_fold_rule() {
        assert_eq!(
            rule("const-fold")
                .try_apply(&parse("(+ 2 3)").unwrap())
                .unwrap(),
            Expr::Const(5)
        );
        assert_eq!(
            rule("const-fold")
                .try_apply(&parse("(- 4)").unwrap())
                .unwrap(),
            Expr::Const(-4)
        );
        assert!(rule("const-fold")
            .try_apply(&parse("(+ x 3)").unwrap())
            .is_none());
    }

    #[test]
    fn declarative_rules_in_catalog_are_sound_on_a_worked_example() {
        // Motivating example, Section 2: R1 (mul-comm) then R2 (factor) enables
        // mul-vectorize-2 later.
        let eq1 = parse("(+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6)))").unwrap();
        // Apply mul-comm at the left child to move (* v3 v4) into first position.
        let comm = rule("mul-comm");
        let left = eq1.at_path(&[0]).unwrap().clone();
        let left_commuted = comm.try_apply(&left).unwrap();
        let after_comm = eq1.replace_at(&[0], left_commuted).unwrap();
        let factored = rule("factor-left").try_apply(&after_comm).unwrap();
        assert_eq!(
            factored,
            parse("(* (* v3 v4) (+ (* v1 v2) (* v5 v6)))").unwrap()
        );
        let mut env = Env::new();
        env.bind_all(&eq1, |s| {
            s.as_str().bytes().map(i64::from).sum::<i64>() % 19
        });
        assert!(equivalent_on_live_slots(&eq1, &factored, &env, 1).unwrap());
    }
}
