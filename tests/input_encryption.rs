//! A request's input encryptions are the first phase of its run, on the
//! executor's workers: every worker claims entries off one counter and
//! encrypts entry `j` at encryption `first + j` of the stream, so which
//! worker draws an input never changes its bits.
//!
//! The payloads are read through `FheSession::run_payloads` (a
//! `#[doc(hidden)]` hook over the ordinary request path), which returns every
//! input ciphertext's payload stripe in stream order and then the output's.

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{Compiler, ExecOptions, FheSession, SchedulerKind};
use chehab::fhe::BfvParameters;
use std::collections::HashMap;

fn inputs_of(benchmark: &Benchmark, seed: u64) -> HashMap<String, i64> {
    let env = benchmark.input_env(seed);
    benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
        .collect()
}

fn session_of(id: &str, compiler: Compiler) -> (Benchmark, FheSession) {
    let benchmark = benchsuite::by_id(id).expect("a benchsuite kernel");
    let session = compiler
        .compile(benchmark.id(), benchmark.program())
        .session(&BfvParameters::insecure_test())
        .expect("session");
    (benchmark, session)
}

fn options(scheduler: SchedulerKind, threads: usize) -> ExecOptions {
    ExecOptions::sequential()
        .with_scheduler(scheduler)
        .with_threads_per_request(threads)
}

/// Every input ciphertext's payload, and the output's, is the in-order
/// walk's under both release rules at one, two and four workers: on an
/// unvectorized kernel with 32 scalar encryptions, on a vectorized one, on
/// an irregular tree, and on a batched run of three users sharing their
/// ciphertexts.
#[test]
fn input_and_output_payloads_are_the_in_order_ones_at_every_pool_and_rule() {
    let cases = [
        ("L2 Distance 16", Compiler::without_optimizer(), 1usize),
        ("Dot Product 16", Compiler::greedy(), 1),
        ("Tree 50-50-5", Compiler::without_optimizer(), 1),
        ("Linear Reg. 16", Compiler::greedy(), 3),
    ];
    let mut widest = 0;
    for (id, compiler, users) in cases {
        let (benchmark, session) = session_of(id, compiler);
        let encryptions = session.stats().encryptions_per_request;
        widest = widest.max(encryptions);
        assert!(
            users <= session.batch_capacity(),
            "{id}: {users} users need one chunk"
        );
        let sets: Vec<HashMap<String, i64>> = (0..users as u64)
            .map(|k| inputs_of(&benchmark, 40 + k))
            .collect();
        let reference = session
            .run_payloads(&sets, None, Some(3))
            .unwrap_or_else(|e| panic!("{id}: in-order walk failed: {e}"));
        assert_eq!(reference.len(), encryptions + 1, "{id}: inputs + output");
        for scheduler in [SchedulerKind::Leveled, SchedulerKind::Dataflow] {
            for threads in [1, 2, 4] {
                let context = format!("{id}, {users} users, {scheduler:?} at {threads} threads");
                let got = session
                    .run_payloads(&sets, Some(&options(scheduler, threads)), Some(3))
                    .unwrap_or_else(|e| panic!("{context}: run failed: {e}"));
                assert_eq!(got.len(), reference.len(), "{context}");
                for (j, (got, expected)) in got.iter().zip(&reference).enumerate() {
                    let what = if j == encryptions { "output" } else { "input" };
                    assert!(got == expected, "{context}: {what} {j} payload diverged");
                }
            }
        }
    }
    assert!(widest >= 32, "no case encrypts 32 inputs: {widest}");
}

/// Every run of a session draws its own stretch of the stream: two
/// consecutive requests encrypt the same values under different payloads,
/// while one run index draws the same payloads at one worker and at two.
#[test]
fn every_run_draws_its_own_stretch_of_the_stream() {
    let (benchmark, session) = session_of("Dot Product 8", Compiler::without_optimizer());
    let encryptions = session.stats().encryptions_per_request;
    assert_eq!(encryptions, 16);
    let sets = [inputs_of(&benchmark, 5)];
    let two = options(SchedulerKind::Dataflow, 2);

    // A fresh session's next run is run 0.
    let first = session.run_payloads(&sets, Some(&two), None).unwrap();
    assert_eq!(
        first,
        session.run_payloads(&sets, Some(&two), Some(0)).unwrap()
    );
    // An ordinary request takes a run index too; the next one differs in
    // every input.
    let report = session.run(&sets[0]).unwrap();
    let next = session.run_payloads(&sets, Some(&two), None).unwrap();
    for j in 0..encryptions {
        assert_ne!(first[j], next[j], "input {j} reused its randomness");
    }
    assert_eq!(session.run(&sets[0]).unwrap().outputs, report.outputs);

    for run in [1, 7] {
        let one = options(SchedulerKind::Dataflow, 1);
        assert_eq!(
            session.run_payloads(&sets, Some(&one), Some(run)).unwrap(),
            session.run_payloads(&sets, Some(&two), Some(run)).unwrap(),
            "run {run}"
        );
    }
}
