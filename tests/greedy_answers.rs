//! Greedy's answers on the benchmark suite, pinned.
//!
//! `greedy_equivalence` checks the indexed greedy search against a tree
//! search written over the public API, but both apply the same procedural
//! rule bodies (the reference decides only declarative rules with its own
//! tree matcher): a procedural rule that changed would change both sides
//! alike. This test
//! compares greedy, under the compiler's default cost model and step budget,
//! against a table recorded before the procedural rules moved onto the term
//! graph (`tests/data/greedy_answers.tsv`): per kernel, the number of steps,
//! the bits of the optimized circuit's cost and the FNV-1a 64 hash of its
//! s-expression.
//!
//! On a mismatch the failure prints the whole table as this tree computes
//! it; pasting it over the file re-pins every answer, which only a change
//! that means to move greedy's output may do.

use chehab::benchsuite::full_suite;
use chehab::ir::{cleanup, CostModel};
use chehab::trs::RewriteEngine;
use std::fmt::Write;

/// The compiler's default greedy step budget.
const MAX_STEPS: usize = 200;

const TABLE: &str = include_str!("data/greedy_answers.tsv");

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn greedy_returns_the_pinned_answer_on_every_kernel() {
    let engine = RewriteEngine::new();
    let model = CostModel::default();
    let mut actual = String::from("# kernel\tsteps\tcost_after bits\tFNV-1a 64 of the output\n");
    for benchmark in full_suite() {
        let (optimized, steps) =
            engine.greedy_optimize(&cleanup(benchmark.program()), &model, MAX_STEPS);
        let cost = model.cost(&optimized).to_bits();
        let hash = fnv1a64(&optimized.to_string());
        writeln!(
            actual,
            "{}\t{steps}\t{cost:#018x}\t{hash:#018x}",
            benchmark.id()
        )
        .unwrap();
    }
    assert!(
        TABLE == actual,
        "greedy's answers moved; this tree computes:\n{actual}"
    );
}
