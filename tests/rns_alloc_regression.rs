//! Allocation-regression test for the RNS multi-limb payload engine.
//!
//! PR 5's zero-allocation property must survive the limb generalization: a
//! warm `FheSession` whose ciphertexts carry `k >= 2` limb stripes still
//! serves steady-state requests with **zero fresh buffer allocations** —
//! the wider `2·k·degree` stripes, the per-limb key polynomials and the
//! multi-limb plaintext splats all round-trip through the same arena pools
//! as the single-limb engine, just at a larger buffer width.
//! Like `alloc_regression.rs`, it reads the session pool's own counters.

use chehab::benchsuite;
use chehab::compiler::{Compiler, FheSession};
use chehab::fhe::BfvParameters;
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
fn warm_multi_limb_kernel_sweep_performs_zero_fresh_buffer_allocations() {
    for limb_count in [2usize, 3] {
        let params = BfvParameters::insecure_test().with_limb_count(limb_count);
        for benchmark in benchsuite::full_suite() {
            let compiled =
                Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
            let session = compiled.session(&params).unwrap_or_else(|e| {
                panic!(
                    "{}: session construction failed at k={limb_count}: {e}",
                    benchmark.id()
                )
            });
            let env = benchmark.input_env(29);
            let inputs: HashMap<String, i64> = benchmark
                .program()
                .variables()
                .into_iter()
                .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
                .collect();

            // Two passes fill the pool with the k-limb stripe widths; the
            // third proves the pool round-trips them.
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
                "{}: a warm k={limb_count} request must serve every slot vector and \
                 limb stripe from the arena ({reuses} reuses recorded)",
                benchmark.id()
            );
            assert!(
                reuses > 0,
                "{}: a served k={limb_count} request must actually draw buffers from the arena",
                benchmark.id()
            );
            assert_eq!(
                warm.outputs,
                cold.outputs,
                "{}: buffer reuse must not change results at k={limb_count}",
                benchmark.id()
            );
        }
    }
}
