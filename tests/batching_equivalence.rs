//! Cross-request SIMD batching equivalence: packing many users into the
//! slot lanes of shared ciphertexts must change *throughput only*. A solo
//! request is the one-user batch of the one request path, so its check is
//! anchored on the independent oracle — the IR interpreter on the
//! uncompiled program — and every user of a multi-user batch must read
//! exactly the outputs it would have gotten from its own solo request, on
//! every benchsuite kernel.

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{BatchPolicy, Compiler, ExecHooks, ExecOptions};
use chehab::fhe::BfvParameters;
use chehab::ir::{evaluate, Env};
use std::collections::HashMap;

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

/// What the IR interpreter computes on the *uncompiled* program: no
/// rewriting, no lowering, no lanes.
fn reference_slots(benchmark: &Benchmark, inputs: &HashMap<String, i64>) -> Vec<u64> {
    let mut env = Env::new();
    for (k, v) in inputs {
        env.bind(k.clone(), *v);
    }
    evaluate(benchmark.program(), &env)
        .expect("reference evaluation succeeds")
        .slots()
        .into_iter()
        .take(benchmark.output_slots())
        .collect()
}

/// Batch size 1 is the degenerate case the whole design pivots on: the
/// flattened lane layout collapses to the single-user layout. Under a
/// batching policy or without one, a one-user batch must decrypt to the
/// interpreter's slots, with identical operation stats, noise consumption
/// and decryption status either way, on all 46 kernels.
#[test]
fn a_one_user_batch_matches_the_ir_interpreter() {
    let params = BfvParameters::insecure_test();
    let options = ExecOptions::sequential().with_batching(BatchPolicy::default());
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
        let session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        let inputs = inputs_of(&benchmark, 41);

        let unbatched = session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: unbatched run failed: {e}", benchmark.id()));
        let batched = session
            .run_batched(
                std::slice::from_ref(&inputs),
                &options,
                &ExecHooks::default(),
            )
            .unwrap_or_else(|e| panic!("{}: batched run failed: {e}", benchmark.id()));

        assert_eq!(batched.len(), 1, "{}: one user, one report", benchmark.id());
        let report = &batched[0];
        assert_eq!(
            report.operation_stats,
            unbatched.operation_stats,
            "{}: batch-1 executed different operations",
            benchmark.id()
        );
        assert_eq!(
            report.noise_budget_consumed,
            unbatched.noise_budget_consumed,
            "{}: batch-1 noise diverged",
            benchmark.id()
        );
        assert_eq!(report.decryption_ok, unbatched.decryption_ok);
        if !report.decryption_ok {
            // Deep circuits can legitimately exhaust the small
            // test-parameter budget; there are no slots to compare.
            continue;
        }
        let expected = reference_slots(&benchmark, &inputs);
        for (label, outputs) in [("batch-1", &report.outputs), ("solo", &unbatched.outputs)] {
            let got: Vec<u64> = outputs.iter().copied().take(expected.len()).collect();
            assert_eq!(
                got,
                expected,
                "{}: {label} outputs diverged from the interpreter",
                benchmark.id()
            );
        }
    }
}

/// Multi-user batches: each user's lane window must scatter back exactly
/// the outputs that user's solo request produces, even though the whole
/// batch shared one homomorphic execution — for a small batch and for one
/// that fills every lane the ciphertext has (64 caps the cost on
/// narrow-stride kernels).
#[test]
fn every_user_of_a_batch_reads_its_own_solo_result() {
    let params = BfvParameters::insecure_test();
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
        let session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        assert!(session.lane_stride() >= 1);
        assert!(session.batch_capacity() >= 1);

        let full = session.batch_capacity().min(64);
        let input_sets: Vec<HashMap<String, i64>> = (0..full as u64)
            .map(|k| inputs_of(&benchmark, 120 + 7 * k))
            .collect();
        let solo: Vec<_> = input_sets
            .iter()
            .map(|inputs| {
                session
                    .run(inputs)
                    .unwrap_or_else(|e| panic!("{}: solo run failed: {e}", benchmark.id()))
            })
            .collect();
        let mut sizes = vec![full.min(3), full];
        sizes.dedup();
        for users in sizes {
            let options = ExecOptions::sequential()
                .with_batching(BatchPolicy::default().with_max_batch(users));
            let batched = session
                .run_batched(&input_sets[..users], &options, &ExecHooks::default())
                .unwrap_or_else(|e| panic!("{}: batched run failed: {e}", benchmark.id()));
            assert_eq!(
                batched.len(),
                users,
                "{}: one report per user",
                benchmark.id()
            );
            for (lane, (batched, solo)) in batched.iter().zip(&solo).enumerate() {
                assert_eq!(
                    batched.outputs,
                    solo.outputs,
                    "{}: user {lane} of {users} read someone else's lane",
                    benchmark.id()
                );
                assert_eq!(batched.decryption_ok, solo.decryption_ok);
            }
        }
    }
}

/// A run stores the slots its users occupy, not `n`: at batch sizes 1, 3 and
/// the (64-capped) lane capacity, every user still decrypts to the
/// interpreter's slots, and every slot vector the run computed on — read off
/// the length classes its session's pool parked, less the two payload
/// classes parked beside them (`k · payload_degree` plaintext splats,
/// `2 · k · payload_degree` ciphertext stripes) — is exactly the run's lane
/// window `min(n, next_pow2(users · stride))`.
///
/// The sessions run at `k = 3` limbs, so both payload classes are three
/// times a power of two: no window (a power of two) coincides with one, and
/// no slot vector (a power of two from encoding on) can hide behind one.
#[test]
fn every_register_of_a_run_is_as_long_as_its_lane_window() {
    let params = BfvParameters::insecure_test().with_limb_count(3);
    let half = params.limb_count * params.payload_degree;
    let payload_classes = [half, 2 * half];
    assert!(payload_classes.iter().all(|len| !len.is_power_of_two()));
    let mut short_runs = 0usize;
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
        let capacity = compiled
            .session(&params)
            .expect("session")
            .batch_capacity()
            .min(64);
        let mut sizes = vec![1, capacity.min(3), capacity];
        sizes.dedup();
        for users in sizes {
            let id = format!("{} x {users}", benchmark.id());
            // A session per size: its pool then holds this run's buffers only.
            let session = compiled.session(&params).expect("session");
            let input_sets: Vec<HashMap<String, i64>> = (0..users as u64)
                .map(|k| inputs_of(&benchmark, 500 + 11 * k))
                .collect();
            let options = ExecOptions::sequential()
                .with_batching(BatchPolicy::default().with_max_batch(users));
            let reports = session
                .run_batched(&input_sets, &options, &ExecHooks::default())
                .unwrap_or_else(|e| panic!("{id}: batched run failed: {e}"));
            assert_eq!(reports.len(), users, "{id}: one report per user");
            for (lane, (report, inputs)) in reports.iter().zip(&input_sets).enumerate() {
                if report.decryption_ok {
                    assert_eq!(
                        report.outputs,
                        reference_slots(&benchmark, inputs),
                        "{id}: user {lane} vs the interpreter"
                    );
                }
            }
            let window = (users * session.lane_stride())
                .next_power_of_two()
                .min(params.slot_count());
            let mut lengths = session.parked_buffer_lengths();
            lengths.retain(|len| !payload_classes.contains(len));
            assert_eq!(lengths, [window], "{id}: a register left the run's window");
            short_runs += usize::from(window < params.slot_count());
        }
    }
    assert!(
        short_runs >= 46,
        "only {short_runs} runs were shorter than n: the check is vacuous"
    );
}

/// A batch larger than the effective lane capacity splits into full chunks
/// plus a ragged tail, each executing as its own shared ciphertext — and
/// still scatters per-user-correct results in input order.
#[test]
fn ragged_chunking_preserves_per_user_results_and_input_order() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = compiled.session(&params).unwrap();

    // Cap batches at 2 lanes: 5 users chunk as [2, 2, 1].
    let options = ExecOptions::sequential().with_batching(BatchPolicy::default().with_max_batch(2));
    let input_sets: Vec<HashMap<String, i64>> =
        (0..5u64).map(|k| inputs_of(&benchmark, 300 + k)).collect();
    let batched = session
        .run_batched(&input_sets, &options, &ExecHooks::default())
        .unwrap();
    assert_eq!(batched.len(), 5);

    for (k, inputs) in input_sets.iter().enumerate() {
        let solo = session.run(inputs).unwrap();
        assert_eq!(batched[k].outputs, solo.outputs, "user {k} out of order");
    }

    // Three chunks formed, 5 requests served through them.
    let text = session.render_metrics();
    assert!(
        text.contains("chehab_batches_formed_total 3"),
        "batch counter missing or wrong:\n{text}"
    );
}
