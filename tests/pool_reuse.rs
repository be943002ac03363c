//! A helper thread is spawned once: the executor's workers of every request
//! and every key-generation batch run on `chehab_fhe::pool`'s parked
//! helpers, so a warm process serves requests and builds sessions without
//! spawning a thread. One test in this binary, so no other test's calls
//! reach the process-wide pool's spawn count.

use chehab::benchsuite;
use chehab::compiler::{Compiler, ExecOptions};
use chehab::fhe::{pool, BfvParameters};
use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::Barrier;

#[test]
fn a_warm_process_spawns_no_thread_for_requests_or_session_builds() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
    let env = benchmark.input_env(3);
    let inputs: HashMap<String, i64> = benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
        .collect();
    let options = ExecOptions::sequential().with_threads_per_request(2);

    // Warm: a key batch asks for at most one helper fewer than the host has
    // cores, and a call that finds one of its helpers parked again may hand
    // it a second index, so the pool is first grown to that width with
    // every helper busy at once.
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let all_running = Barrier::new(cores);
    pool::broadcast(cores - 1, &|_| {
        all_running.wait();
    });
    let session = compiled.session(&params).unwrap();
    let expected = session.run_parallel(&inputs, &options).unwrap().outputs;
    let warm = pool::spawned_helpers();

    for _ in 0..200 {
        let report = session.run_parallel(&inputs, &options).unwrap();
        assert_eq!(report.outputs, expected);
    }
    for _ in 0..20 {
        compiled.session(&params).unwrap();
    }
    assert_eq!(
        pool::spawned_helpers(),
        warm,
        "200 requests on two workers and 20 session builds spawned helpers"
    );
}
