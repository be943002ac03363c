//! Asserts the serving contract of the session API: key generation and
//! schedule lowering happen exactly once per `FheSession`, no matter how
//! many requests the session serves and through which entry point.
//!
//! This file holds a single test on purpose: `KeyGenerator::instances_created`
//! is a process-global counter, and every integration-test *file* runs as its
//! own process, so no unrelated test can race the counter here.

use chehab::benchsuite;
use chehab::compiler::{BatchPolicy, Compiler, ExecHooks, ExecOptions};
use chehab::fhe::{BfvParameters, KeyGenerator};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn keygen_and_lowering_happen_exactly_once_per_session() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let input_sets: Vec<HashMap<String, i64>> = (0..4)
        .map(|seed| {
            let env = benchmark.input_env(500 + seed);
            benchmark
                .program()
                .variables()
                .into_iter()
                .map(|v| {
                    let value = env.get(v.as_str()).unwrap_or(0) as i64;
                    (v.to_string(), value)
                })
                .collect()
        })
        .collect();

    // Session construction generates keys exactly once...
    let before = KeyGenerator::instances_created();
    let session = Arc::new(compiled.session(&params).unwrap());
    let after_construction = KeyGenerator::instances_created();
    assert_eq!(
        after_construction,
        before + 1,
        "session construction runs keygen exactly once"
    );
    let lowering_time = session.stats().lowering_time;

    // ...and no request after that regenerates anything, through any entry
    // point: run, run_parallel, run_batched, or the serving engine.
    for inputs in &input_sets {
        session.run(inputs).unwrap();
    }
    session
        .run_parallel(
            &input_sets[0],
            &ExecOptions::sequential().with_threads_per_request(2),
        )
        .unwrap();
    session
        .run_batched(
            &input_sets,
            &ExecOptions::new().with_batching(BatchPolicy::default()),
            &ExecHooks::default(),
        )
        .unwrap();
    let engine = session.serve(&ExecOptions::new().with_request_threads(2));
    let handles: Vec<_> = input_sets
        .iter()
        .map(|inputs| {
            engine
                .submit(inputs.clone())
                .expect("engine accepts while live")
        })
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    engine.shutdown();

    assert_eq!(
        KeyGenerator::instances_created(),
        after_construction,
        "no request through a session regenerates keys"
    );
    let stats = session.stats();
    assert_eq!(stats.requests_served, 4 + 1 + 4 + 4);
    assert_eq!(
        stats.lowering_time, lowering_time,
        "schedule lowering is a one-time construction cost"
    );

    // The historical shim, by contrast, rebuilds a session (and its keys)
    // on every call — that is exactly the per-request cost serving avoids.
    compiled.execute(&input_sets[0], &params).unwrap();
    assert_eq!(
        KeyGenerator::instances_created(),
        after_construction + 1,
        "the execute shim pays keygen per call"
    );
}
