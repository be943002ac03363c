//! Differential test of the greedy rewriter: `RewriteEngine::greedy_optimize`
//! scores candidates on a shared term graph; the reference below is the
//! search it replaced, written over the public API only — every candidate
//! materialised as a tree and costed from scratch. Both must return the
//! identical `(Expr, steps)`, which exercises enumeration order, the strict
//! improvement threshold and first-best tie-breaking, not just final cost.

use chehab::benchsuite::full_suite;
use chehab::datagen::{LlmLikeSynthesizer, RandomGenerator};
use chehab::ir::{cleanup, CostModel, CostWeights, Expr, OpCosts};
use chehab::trs::RewriteEngine;

/// The compiler's default greedy step budget.
const MAX_STEPS: usize = 200;

/// Kernels whose *reference* side takes minutes in a debug build (the
/// optimized side takes milliseconds); CI sweeps them in release.
const SLOW_FOR_THE_REFERENCE: [&str; 4] = [
    "Hamm. Dist. 32",
    "L2 Distance 32",
    "Tree 100-50-10",
    "Tree 100-100-10",
];

fn naive_greedy(engine: &RewriteEngine, expr: &Expr, model: &CostModel) -> (Expr, usize) {
    let mut current = expr.clone();
    let mut current_cost = model.cost(&current);
    let mut steps = 0;
    while steps < MAX_STEPS {
        let mut best: Option<(Expr, f64)> = None;
        for m in engine.all_matches(&current) {
            let candidate = engine
                .apply_at_path(&current, m.rule_index, &m.path)
                .expect("every match applies");
            let cost = model.cost(&candidate);
            if cost < current_cost - 1e-9 && best.as_ref().is_none_or(|(_, b)| cost < *b) {
                best = Some((candidate, cost));
            }
        }
        let Some((next, cost)) = best else { break };
        (current, current_cost) = (next, cost);
        steps += 1;
    }
    (current, steps)
}

/// Default weights; the Table 1 depth-heavy sweep point; and the nearly flat
/// per-op landscape the backend actually measures (add 1 : ct-ct mul 1.1 :
/// rotation 0.65), under which many candidates tie.
fn cost_models() -> [CostModel; 3] {
    [
        CostModel::default(),
        CostModel::with_weights(CostWeights::new(1.0, 50.0, 50.0)),
        CostModel {
            op_costs: OpCosts {
                vec_add: 1.0,
                vec_mul_ct_ct: 1.1,
                vec_mul_ct_pt: 1.0,
                rotation: 0.65,
                ..OpCosts::default()
            },
            weights: CostWeights::default(),
        },
    ]
}

fn assert_same_search(engine: &RewriteEngine, what: &str, program: &Expr, model: &CostModel) {
    let expected = naive_greedy(engine, program, model);
    let actual = engine.greedy_optimize(program, model, MAX_STEPS);
    assert_eq!(
        actual.1, expected.1,
        "{what}: number of steps under {model:?}"
    );
    assert_eq!(
        actual.0, expected.0,
        "{what}: optimized circuit under {model:?}"
    );
    assert_eq!(
        model.cost(&actual.0).to_bits(),
        model.cost(&expected.0).to_bits(),
        "{what}: final cost under {model:?}"
    );
}

/// 200 seeded programs of at most 200 nodes, alternating the structured
/// synthesizer (the RL training distribution) and the uniform generator.
fn generated_programs() -> Vec<Expr> {
    let mut structured = LlmLikeSynthesizer::with_seed(0x9e37);
    let mut uniform = RandomGenerator::with_seed(0x79b9);
    let mut programs = Vec::new();
    while programs.len() < 200 {
        let program = if programs.len() % 2 == 0 {
            structured.generate()
        } else {
            uniform.generate()
        };
        let program = cleanup(&program);
        if program.node_count() <= 200 {
            programs.push(program);
        }
    }
    programs
}

#[test]
fn greedy_matches_the_tree_search_on_the_suite() {
    let engine = RewriteEngine::new();
    let model = CostModel::default();
    for benchmark in full_suite() {
        if !SLOW_FOR_THE_REFERENCE.contains(&benchmark.id().as_str()) {
            assert_same_search(
                &engine,
                &benchmark.id(),
                &cleanup(benchmark.program()),
                &model,
            );
        }
    }
}

/// Each generated program under one of the three cost models in turn; the
/// release sweep below crosses every program with every model.
#[test]
fn greedy_matches_the_tree_search_on_generated_programs() {
    let engine = RewriteEngine::new();
    let models = cost_models();
    for (i, program) in generated_programs().iter().enumerate() {
        let what = format!("generated program {i}");
        assert_same_search(&engine, &what, program, &models[i % models.len()]);
    }
}

#[test]
#[ignore = "the tree-search reference needs a release build: cargo test --release --test greedy_equivalence -- --include-ignored"]
fn greedy_matches_the_tree_search_on_everything_under_every_cost_model() {
    let engine = RewriteEngine::new();
    let suite = full_suite();
    assert_eq!(suite.len(), 46);
    for id in SLOW_FOR_THE_REFERENCE {
        assert!(suite.iter().any(|b| b.id() == id), "unknown kernel {id}");
    }
    let kernels = suite.iter().map(|b| (b.id(), cleanup(b.program())));
    let generated = generated_programs().into_iter().enumerate();
    let generated = generated.map(|(i, program)| (format!("generated program {i}"), program));
    for (what, program) in kernels.chain(generated) {
        for model in cost_models() {
            assert_same_search(&engine, &what, &program, &model);
        }
    }
}
