//! Serving-layer tests: one long-lived `FheSession` must be bit-identical
//! to fresh per-call execution on every benchmark kernel no matter how many
//! requests it serves, and the `ServingEngine` must pair every submission
//! with its own result even when completions happen out of order.

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{Compiler, ExecOptions};
use chehab::fhe::BfvParameters;
use std::collections::HashMap;
use std::sync::Arc;

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

/// One session run N times yields reports bit-identical to fresh per-call
/// execution (the historical shim), over every benchsuite kernel: outputs,
/// operation counts, noise accounting and key counts all match, so session
/// reuse is purely a latency optimization.
#[test]
fn session_reuse_is_bit_identical_to_fresh_execution_on_every_kernel() {
    let params = BfvParameters::insecure_test();
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let inputs = inputs_of(&benchmark, 71);
        let fresh_session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: fresh session failed: {e}", benchmark.id()));
        let fresh = fresh_session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: fresh execution failed: {e}", benchmark.id()));
        let session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        for round in 0..3 {
            let reused = session
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{}: session run failed: {e}", benchmark.id()));
            assert_eq!(
                reused.outputs,
                fresh.outputs,
                "{}: outputs diverged on session round {round}",
                benchmark.id()
            );
            assert_eq!(
                reused.operation_stats,
                fresh.operation_stats,
                "{}: operation counts diverged on session round {round}",
                benchmark.id()
            );
            assert_eq!(
                reused.noise_budget_consumed,
                fresh.noise_budget_consumed,
                "{}: noise accounting diverged on session round {round}",
                benchmark.id()
            );
            assert_eq!(
                reused.decryption_ok,
                fresh.decryption_ok,
                "{}: decryption outcome diverged on session round {round}",
                benchmark.id()
            );
        }
        assert_eq!(
            session.stats().galois_key_count,
            fresh_session.stats().galois_key_count,
            "{}: key counts diverged",
            benchmark.id()
        );
        assert_eq!(session.stats().requests_served, 3);
    }
}

/// The serving engine pairs every submission with its own result: waiting on
/// handles in submission order returns exactly what solo execution of each
/// input produces, with ids assigned in submission order, even though
/// multiple workers complete requests in whatever order they finish.
#[test]
fn serving_engine_returns_results_in_submission_order() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = Arc::new(compiled.session(&params).unwrap());

    let input_sets: Vec<HashMap<String, i64>> = (0..12)
        .map(|seed| inputs_of(&benchmark, 300 + seed))
        .collect();
    let solo: Vec<Vec<u64>> = input_sets
        .iter()
        .map(|inputs| session.run(inputs).unwrap().outputs)
        .collect();

    let engine = session.serve(&ExecOptions::new().with_request_threads(3));
    let handles: Vec<_> = input_sets
        .iter()
        .map(|inputs| {
            engine
                .submit(inputs.clone())
                .expect("engine accepts while live")
        })
        .collect();
    for (i, (handle, expected)) in handles.into_iter().zip(&solo).enumerate() {
        assert_eq!(handle.id(), i as u64, "ids follow submission order");
        let report = handle.wait().expect("served request succeeds");
        assert_eq!(
            &report.outputs, expected,
            "request {i} received another request's result"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.queue_depth, 0);
}

/// `shutdown` drains requests that are still queued or in flight before
/// returning, and the session's cumulative stats see every one of them.
#[test]
fn engine_shutdown_drains_in_flight_requests() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Linear Reg. 4").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = Arc::new(compiled.session(&params).unwrap());

    let engine = session.serve(&ExecOptions::new().with_request_threads(2));
    let handles: Vec<_> = (0..6)
        .map(|seed| {
            engine
                .submit(inputs_of(&benchmark, 400 + seed))
                .expect("engine accepts while live")
        })
        .collect();
    // Shut down immediately: queued work must still complete.
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.in_flight, 0);
    // Every sender was used before the workers exited: none can block.
    for handle in handles {
        let report = handle
            .try_wait()
            .expect("drained request has a result")
            .expect("drained request succeeded");
        assert!(report.decryption_ok);
    }
    assert_eq!(session.stats().requests_served, 6);
}

/// Under the (default) dataflow scheduler, a served request stream
/// populates the engine's latency histograms: per-request wall and queue
/// wait with guarded, ordered percentiles. Rate math stays finite even for
/// an engine that served nothing.
#[test]
fn serving_stats_populate_latency_histograms_under_dataflow() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = Arc::new(compiled.session(&params).unwrap());

    let requests = 8usize;
    let engine = session.serve(&ExecOptions::new().with_request_threads(2));
    let handles: Vec<_> = (0..requests)
        .map(|seed| {
            engine
                .submit(inputs_of(&benchmark, 500 + seed as u64))
                .expect("engine accepts while live")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("served request succeeds");
    }
    let stats = engine.shutdown();

    let wall = &stats.latency.request_wall;
    assert_eq!(wall.count(), requests as u64);
    let (p50, p95, p99) = (
        wall.p50().expect("non-empty histogram has a median"),
        wall.p95().unwrap(),
        wall.p99().unwrap(),
    );
    assert!(p50 <= p95 && p95 <= p99, "percentiles are ordered");
    assert!(p99 <= wall.max().unwrap());
    assert!(wall.max().unwrap() > std::time::Duration::ZERO);
    assert_eq!(stats.latency.queue_wait.count(), requests as u64);

    // The throughput guard: an engine that served nothing reports 0.0, not
    // NaN or infinity.
    let idle = session.serve(&ExecOptions::sequential());
    let idle_stats = idle.shutdown();
    assert_eq!(idle_stats.completed, 0);
    assert!(idle_stats.throughput_rps() == 0.0);
    assert!(idle_stats.latency.request_wall.is_empty());
    assert_eq!(idle_stats.latency.request_wall.p50(), None);
}

/// Session stats expose the one-time setup costs.
#[test]
fn session_stats_expose_setup_costs_and_schedule_shape() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Box Blur 3x3").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = compiled.session(&params).unwrap();
    let before = session.stats();
    assert_eq!(before.requests_served, 0);
    assert!(before.lowering_time > std::time::Duration::ZERO);

    session.run(&inputs_of(&benchmark, 5)).unwrap();
    let after = session.stats();
    assert_eq!(after.requests_served, 1);
    // The one-time costs are set at construction and never re-paid.
    assert_eq!(after.keygen_time, before.keygen_time);
    assert_eq!(after.lowering_time, before.lowering_time);
}
