//! The serving scenario: compile one kernel, build one long-lived
//! `FheSession` (keys + schedule generated exactly once), then stream
//! requests through a persistent `ServingEngine` request queue, traced into
//! `results/trace.json` (Chrome trace format), and print the metrics text.
//!
//! Run with `cargo run --release --example parallel_serving`.

use chehab::benchsuite;
use chehab::compiler::{Compiler, ExecHooks, ExecOptions, TraceSink};
use chehab::fhe::BfvParameters;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let benchmark = benchsuite::by_id("Dot Product 16").expect("known kernel");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let params = BfvParameters::insecure_test();

    // Keygen + schedule lowering happen here, once, regardless of how many
    // requests the session serves afterwards.
    let session = Arc::new(compiled.session(&params).expect("session construction"));
    let stats = session.stats();
    println!(
        "== {}: session up in {:.2?} keygen + {:.2?} lowering; {} instructions across {} \
         wavefront levels (width {})",
        session.program().name(),
        stats.keygen_time,
        stats.lowering_time,
        session.schedule().instrs().len(),
        session.schedule().level_count(),
        session.schedule().max_width()
    );

    // Sixteen independent requests, each with its own input set.
    let requests: Vec<HashMap<String, i64>> = (0..16)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), (seed + i as i64) % 13 + 1))
                .collect()
        })
        .collect();

    // A persistent request queue over the shared session: submit returns a
    // handle immediately; workers drain the queue in the background.
    let options = ExecOptions::new().with_queue_capacity(32);
    let sink = Arc::new(TraceSink::new());
    let hooks = ExecHooks {
        trace: Some(Arc::clone(&sink)),
        ..ExecHooks::default()
    };
    let engine = session.serve_with(&options, &hooks);
    drop(hooks);
    let started = Instant::now();
    let handles: Vec<_> = requests
        .iter()
        .map(|inputs| {
            engine
                .submit(inputs.clone())
                .expect("engine accepts while live")
        })
        .collect();

    // Handles pair each submission with its own result, so results arrive in
    // submission order even if completions interleave.
    for handle in handles {
        let id = handle.id();
        let report = handle.wait().expect("request execution succeeds");
        println!(
            "request {id:2}: output {:?}, {} homomorphic ops, {:.1} noise bits",
            report.outputs,
            report.operation_stats.total(),
            report.noise_budget_consumed
        );
    }
    let elapsed = started.elapsed();

    let serving = engine.shutdown();
    println!(
        "served {} requests in {elapsed:.2?} ({} workers, {:.1} req/s); keygen ran once for all \
         of them",
        serving.completed,
        serving.workers,
        serving.throughput_rps(),
    );

    // Shutdown released the engine's clone of the sink: one span per request.
    let sink = Arc::try_unwrap(sink).expect("engine is shut down");
    std::fs::create_dir_all("results").expect("results/ is creatable");
    std::fs::write("results/trace.json", sink.into_trace().to_chrome_json())
        .expect("results/trace.json is writable");
    println!("wrote results/trace.json\n{}", session.render_metrics());
}
