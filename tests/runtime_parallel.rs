//! Equivalence and scheduling tests for the parallel execution runtime:
//! session-based parallel execution must produce bit-identical outputs to
//! the sequential path on every benchsuite kernel, two-level serving must
//! match individual runs, and every lowered schedule must respect the
//! wavefront invariant (operands in strictly earlier levels).

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{CompiledProgram, Compiler, ExecOptions, FheSession};
use chehab::fhe::BfvParameters;
use chehab::runtime::Instr;
use std::collections::HashMap;

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

/// Compiles with the unoptimizing pipeline: the raw scalar kernels have the
/// widest wavefronts (every scalar op is independent), which is exactly what
/// stresses the parallel executor hardest.
fn compile_initial(benchmark: &Benchmark) -> CompiledProgram {
    Compiler::without_optimizer().compile(benchmark.id(), benchmark.program())
}

fn session_of(benchmark: &Benchmark) -> FheSession {
    compile_initial(benchmark)
        .session(&test_params())
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()))
}

/// `run_parallel` is output-identical to sequential `run` on every
/// benchsuite kernel (Porcupine, Coyote, trees) across 1/2/4 threads — all
/// through one shared session per kernel (keys + schedule built once).
#[test]
fn parallel_execution_matches_sequential_on_every_kernel() {
    for benchmark in benchsuite::full_suite() {
        let session = session_of(&benchmark);
        let inputs = inputs_of(&benchmark, 17);
        let sequential = session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: sequential execution failed: {e}", benchmark.id()));
        for threads in [1usize, 2, 4] {
            let options = ExecOptions::sequential().with_threads_per_request(threads);
            let parallel = session.run_parallel(&inputs, &options).unwrap_or_else(|e| {
                panic!("{}: {threads}-thread execution failed: {e}", benchmark.id())
            });
            assert_eq!(
                parallel.outputs,
                sequential.outputs,
                "{}: outputs diverged at {threads} threads",
                benchmark.id()
            );
            assert_eq!(
                parallel.decryption_ok,
                sequential.decryption_ok,
                "{}: decryption outcome diverged at {threads} threads",
                benchmark.id()
            );
            assert_eq!(
                parallel.operation_stats,
                sequential.operation_stats,
                "{}: operation counts diverged at {threads} threads",
                benchmark.id()
            );
            assert_eq!(
                parallel.noise_budget_consumed,
                sequential.noise_budget_consumed,
                "{}: noise accounting diverged at {threads} threads",
                benchmark.id()
            );
        }
    }
}

/// The greedy-optimized (vectorized) circuits stay equivalent too — their
/// schedules are narrower but exercise rotations and packed layouts.
#[test]
fn parallel_execution_matches_sequential_on_optimized_kernels() {
    let params = test_params();
    for id in [
        "Dot Product 16",
        "Box Blur 3x3",
        "L2 Distance 8",
        "Max 3",
        "Tree 50-50-5",
    ] {
        let benchmark = benchsuite::by_id(id).expect("known benchmark id");
        let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
        let session = compiled.session(&params).unwrap();
        let inputs = inputs_of(&benchmark, 23);
        let sequential = session.run(&inputs).unwrap();
        for threads in [2usize, 4] {
            let options = ExecOptions::sequential().with_threads_per_request(threads);
            let parallel = session.run_parallel(&inputs, &options).unwrap();
            assert_eq!(
                parallel.outputs, sequential.outputs,
                "{id}: outputs diverged"
            );
            assert_eq!(
                parallel.operation_stats, sequential.operation_stats,
                "{id}: operation counts diverged"
            );
        }
    }
}

/// Every instruction's operands land in strictly earlier levels, for every
/// benchsuite kernel's schedule.
#[test]
fn schedules_respect_the_wavefront_invariant_on_every_kernel() {
    for benchmark in benchsuite::full_suite() {
        let schedule = compile_initial(&benchmark).schedule();
        let mut level_of = vec![None; schedule.slot_count()];
        for si in schedule.instrs() {
            level_of[si.dst] = Some(si.level);
        }
        for si in schedule.instrs() {
            let operands: Vec<usize> = match &si.instr {
                Instr::Bin { a, b, .. } => vec![*a, *b],
                Instr::Neg { a } | Instr::Rot { a, .. } => vec![*a],
                Instr::Pack { elems, .. } => elems.clone(),
            };
            for operand in operands {
                match level_of[operand] {
                    // Pre-bound operands are available before level 0.
                    None => {}
                    Some(produced) => assert!(
                        produced < si.level,
                        "{}: operand {operand} produced at level {produced}, used at {}",
                        benchmark.id(),
                        si.level
                    ),
                }
            }
        }
        // Level ranges partition the instruction list in level order.
        let mut expected_start = 0;
        for (level, range) in schedule.levels().iter().enumerate() {
            assert_eq!(
                range.start,
                expected_start,
                "{}: gap before level {level}",
                benchmark.id()
            );
            assert!(
                range.end > range.start,
                "{}: empty level {level}",
                benchmark.id()
            );
            expected_start = range.end;
        }
        assert_eq!(expected_start, schedule.instrs().len());
    }
}

/// Two-level execution through one session — requests across the serving
/// workers, instructions within each request — matches one-at-a-time
/// execution, under every thread-allocation split.
#[test]
fn batch_execution_matches_individual_execution() {
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let session = std::sync::Arc::new(session_of(&benchmark));
    let input_sets: Vec<HashMap<String, i64>> = (0..8)
        .map(|seed| inputs_of(&benchmark, 100 + seed))
        .collect();
    let solo: Vec<Vec<u64>> = input_sets
        .iter()
        .map(|inputs| session.run(inputs).unwrap().outputs)
        .collect();
    for (request_threads, threads_per_request) in [(1, 4), (4, 1), (2, 2)] {
        let options = ExecOptions::new()
            .with_request_threads(request_threads)
            .with_threads_per_request(threads_per_request);
        let engine = session.serve(&options);
        let handles: Vec<_> = input_sets
            .iter()
            .map(|inputs| engine.submit(inputs.clone()).unwrap())
            .collect();
        let outputs: Vec<Vec<u64>> = handles
            .into_iter()
            .map(|handle| handle.wait().unwrap().outputs)
            .collect();
        assert_eq!(
            outputs, solo,
            "serving ({request_threads}x{threads_per_request}) diverged from solo runs"
        );
    }
}

/// The timing breakdown is populated and matches the schedule under both
/// scheduler kinds.
#[test]
fn timing_breakdown_reflects_the_schedule() {
    use chehab::compiler::SchedulerKind;
    let benchmark = benchsuite::by_id("Linear Reg. 4").expect("known benchmark id");
    let session = session_of(&benchmark);
    let schedule = session.schedule();

    // Dataflow (the default): per-instruction run spans and queue waits.
    let dataflow = session
        .run_parallel(
            &inputs_of(&benchmark, 3),
            &ExecOptions::sequential().with_threads_per_request(4),
        )
        .unwrap();
    assert_eq!(dataflow.timing.scheduler, SchedulerKind::Dataflow);
    assert_eq!(dataflow.timing.instr_times.len(), schedule.instrs().len());
    assert_eq!(dataflow.timing.queue_waits.len(), schedule.instrs().len());
    assert!(dataflow.timing.wall > std::time::Duration::ZERO);
    // An instruction is released at or after the barrier and runs before
    // the wall ends, so no queue wait outlasts the wall.
    assert!(dataflow
        .timing
        .queue_waits
        .iter()
        .all(|&wait| wait <= dataflow.timing.wall));

    let report = session
        .run_parallel(
            &inputs_of(&benchmark, 3),
            &ExecOptions::sequential()
                .with_threads_per_request(4)
                .with_scheduler(SchedulerKind::Leveled),
        )
        .unwrap();
    assert_eq!(report.timing.scheduler, SchedulerKind::Leveled);
    assert_eq!(report.timing.steals, 0);
    assert_eq!(report.timing.queue_waits.len(), schedule.instrs().len());
    // Every request, dataflow and leveled alike, is counted as served.
    session.run(&inputs_of(&benchmark, 4)).unwrap();
    assert_eq!(session.stats().requests_served, 3);
}
