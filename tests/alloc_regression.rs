//! Allocation-regression test for the zero-allocation memory engine.
//!
//! A warm `FheSession` must serve steady-state requests with **zero fresh
//! buffer allocations**: every ciphertext slot vector, payload stripe,
//! *plaintext-encode slot vector*, and *plaintext payload splat* is drawn
//! from the session's `ArenaPool` and returned when its value dies
//! (last-use analysis frees registers mid-run — plaintext registers
//! included — and the output is recycled after decryption). Key-generation
//! scratch buffers round-trip through the `KeyGenerator`'s own pool, so a
//! session issuing dozens of Galois keys samples them all from a handful
//! of buffers. The session pool's counters record every pool miss
//! (`chehab_arena_fresh_allocations_total`), so replaying a request against
//! a warm session and asserting the miss count did not move pins the
//! property across the whole benchsuite — per session, whatever else runs
//! in the process.

use chehab::benchsuite;
use chehab::compiler::{BatchPolicy, Compiler, ExecHooks, ExecOptions, FheSession};
use chehab::fhe::{ArenaPool, BfvParameters};
use std::collections::HashMap;

/// The session pool's (misses, hits) so far.
fn fresh_and_reuses(session: &FheSession) -> (u64, u64) {
    let registry = session.metrics();
    let read = |name| registry.value(name).expect("registered series") as u64;
    (
        read("chehab_arena_fresh_allocations_total"),
        read("chehab_arena_reuses_total"),
    )
}

#[test]
fn warm_kernel_sweep_performs_zero_fresh_buffer_allocations() {
    // A small ring: the allocation behavior is identical at every degree,
    // only the buffer sizes change.
    let params = BfvParameters::insecure_test();
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        let env = benchmark.input_env(29);
        let inputs: HashMap<String, i64> = benchmark
            .program()
            .variables()
            .into_iter()
            .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
            .collect();

        // Two passes fill the pool: the first allocates every buffer the
        // request shape needs, the second proves the pool round-trips.
        let cold = session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", benchmark.id()));
        let warm_up = session.run(&inputs).unwrap();
        assert_eq!(warm_up.outputs, cold.outputs, "{}", benchmark.id());

        let (fresh_before, reuses_before) = fresh_and_reuses(&session);
        let warm = session.run(&inputs).unwrap();
        let (fresh_after, reuses_after) = fresh_and_reuses(&session);
        let (fresh, reuses) = (fresh_after - fresh_before, reuses_after - reuses_before);
        assert_eq!(
            fresh,
            0,
            "{}: a warm request must serve every slot vector and payload \
             stripe from the arena ({reuses} reuses recorded)",
            benchmark.id()
        );
        assert!(
            reuses > 0,
            "{}: a served request must actually draw buffers from the arena",
            benchmark.id()
        );
        assert_eq!(
            warm.outputs,
            cold.outputs,
            "{}: buffer reuse must not change results",
            benchmark.id()
        );
    }

    // Direct round-trip pin for the plaintext-encode path: an encode drawn
    // from a warm arena must be a pool hit, and recycling must return the
    // slot vector so the next encode of the same width hits again.
    let ctx = chehab::fhe::FheContext::new(params).expect("context");
    let pool = ArenaPool::new();
    let mut arena = pool.checkout();
    let first = ctx.encode_in(&[1, 2, 3], &mut arena).expect("encode");
    first.recycle_into(&mut arena);
    let before = pool.alloc_stats();
    let second = ctx.encode_in(&[4, 5, 6], &mut arena).expect("encode");
    let after = pool.alloc_stats();
    assert_eq!(
        after.fresh_allocations, before.fresh_allocations,
        "a recycled plaintext's slot vector must serve the next encode"
    );
    assert_eq!(after.reuses - before.reuses, 1);
    assert_eq!(ctx.decode(&second, 3), vec![4, 5, 6]);
}

/// Slot vectors are as long as a run's lane window, so a batched stream
/// whose batch size varies computes on a few slot-vector length classes
/// instead of one. Once a session has seen each batch size, replaying the
/// stream must still be served entirely from the pool — the classes are a
/// function of the batch size, never of the values.
#[test]
fn a_batched_stream_of_varying_batch_sizes_stops_allocating() {
    let params = BfvParameters::insecure_test();
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let session = compiled.session(&params).expect("session");
        let capacity = session.batch_capacity().min(16);
        let stream = [1, capacity.min(3), capacity, capacity.min(2), 1];
        let replay = |seed: u64| {
            let mut outputs = Vec::new();
            for (i, &users) in stream.iter().enumerate() {
                let sets: Vec<HashMap<String, i64>> = (0..users as u64)
                    .map(|k| {
                        let env = benchmark.input_env(seed + 5 * i as u64 + k);
                        benchmark
                            .program()
                            .variables()
                            .into_iter()
                            .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
                            .collect()
                    })
                    .collect();
                let options = ExecOptions::sequential()
                    .with_batching(BatchPolicy::default().with_max_batch(users));
                let reports = session
                    .run_batched(&sets, &options, &ExecHooks::default())
                    .unwrap_or_else(|e| panic!("{}: batch of {users} failed: {e}", benchmark.id()));
                outputs.extend(reports.into_iter().map(|r| r.outputs));
            }
            outputs
        };
        let cold = replay(29);
        assert_eq!(replay(29), cold, "{}", benchmark.id());
        let (fresh_before, _) = fresh_and_reuses(&session);
        // Other values, same batch sizes: same length classes.
        replay(31);
        assert_eq!(replay(29), cold, "{}", benchmark.id());
        let (fresh_after, _) = fresh_and_reuses(&session);
        assert_eq!(
            fresh_after - fresh_before,
            0,
            "{}: a warm stream of batch sizes {stream:?} allocated fresh buffers",
            benchmark.id()
        );
    }
}
