//! Asserts the serving contract of the session API: key generation and
//! schedule lowering happen exactly once per `FheSession`, no matter how
//! many requests the session serves and through which entry point.
//!
//! "Keygen once" is held by construction — the keys are plain fields of the
//! session behind `&self`, and CI greps that `KeyGenerator::new` appears once
//! in `crates/core/src` + `crates/runtime/src` — so what this test pins is
//! the observable half: the one-time costs and the key count never move, and
//! every entry point counts its requests into the same session.

use chehab::benchsuite;
use chehab::compiler::{BatchPolicy, Compiler, ExecHooks, ExecOptions};
use chehab::fhe::BfvParameters;
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

    // Session construction generates the keys and lowers the schedule...
    let session = Arc::new(compiled.session(&params).unwrap());
    let built = session.stats();
    assert!(built.keygen_time > std::time::Duration::ZERO);

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

    let stats = session.stats();
    assert_eq!(stats.requests_served, 4 + 1 + 4 + 4);
    assert_eq!(
        (stats.keygen_time, stats.galois_key_count),
        (built.keygen_time, built.galois_key_count),
        "key generation is a one-time construction cost"
    );
    assert_eq!(
        stats.lowering_time, built.lowering_time,
        "schedule lowering is a one-time construction cost"
    );
}
