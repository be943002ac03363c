//! Equivalence tests for the RNS multi-limb coefficient engine.
//!
//! Three angles:
//!
//! 1. **k=1 bit-identity** — with a single-limb chain the generalized
//!    segment-walking kernels degenerate to the pre-RNS Goldilocks stripe
//!    path; every fused payload kernel must match a from-first-principles
//!    scalar oracle exactly, so the existing single-modulus behavior is the
//!    bit-identity floor for the generalized code.
//! 2. **CRT round-trip** — Garner reconstruction and lifting are exact
//!    inverses: random per-limb residues survive
//!    `crt_reconstruct -> crt_lift` unchanged at every chain length, and a
//!    base value below the Goldilocks modulus reconstructs to itself.
//! 3. **End-to-end sweep** — all 46 benchsuite kernels at limb counts 2 and
//!    3 produce outputs, operation counts, noise accounting and decryption
//!    outcomes identical to the k=1 engine, under the process-wide policy
//!    forced to scalar and to each vector back end, at 1 and 4 threads under
//!    both schedulers. Multi-limb payloads only widen the cost-model
//!    arithmetic; the slot pipeline is exact and must not notice.
//!
//! Every test runs each SIMD lane the CPU has and prints the ones it skips.

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{Compiler, ExecOptions, SchedulerKind};
use chehab::fhe::poly::{p_add, p_mul, p_sub, MODULUS};
use chehab::fhe::rns::{add_mod, neg_mod};
use chehab::fhe::{BfvParameters, CtPayload, ModulusChain, SimdPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// [`SimdPolicy::available`], printing the lanes it skips; `test` names who
/// asks.
fn available_policies(test: &str) -> Vec<SimdPolicy> {
    let have = SimdPolicy::available();
    for lane in SimdPolicy::ALL.iter().filter(|p| !have.contains(p)) {
        println!("{test}: skipped {lane:?}, which this CPU does not have");
    }
    have
}

fn random_residues(rng: &mut ChaCha8Rng, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen::<u64>() % q).collect()
}

/// Canonical `a·b mod q` straight from the 128-bit product — the oracle
/// every limb's multiply (Goldilocks epsilon-fold or Barrett) must match.
fn naive_mul(a: u64, b: u64, q: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(q)) as u64
}

/// Canonical `a + b mod q` in 128-bit arithmetic (the Goldilocks limb's
/// operand sum can overflow 64 bits).
fn naive_add(a: u64, b: u64, q: u64) -> u64 {
    ((u128::from(a) + u128::from(b)) % u128::from(q)) as u64
}

/// Canonical `a - b mod q` in 128-bit arithmetic (adding `q` first can
/// overflow 64 bits on the Goldilocks limb).
fn naive_sub(a: u64, b: u64, q: u64) -> u64 {
    ((u128::from(a) + u128::from(q) - u128::from(b)) % u128::from(q)) as u64
}

/// Builds a `k`-limb payload with canonical per-limb residues plus a
/// half-length (`k * degree`) per-limb operand stripe.
fn random_limb_payload(rng: &mut ChaCha8Rng, chain: &ModulusChain) -> (CtPayload, Vec<u64>) {
    let k = chain.limb_count();
    let degree = chain.degree();
    let half = k * degree;
    let mut stripe = vec![0u64; 2 * half];
    let mut operand = vec![0u64; half];
    for li in 0..k {
        let q = chain.limb(li).modulus();
        for j in 0..degree {
            stripe[li * degree + j] = rng.gen::<u64>() % q;
            stripe[half + li * degree + j] = rng.gen::<u64>() % q;
            operand[li * degree + j] = rng.gen::<u64>() % q;
        }
    }
    (CtPayload::from_limb_stripe(stripe, k), operand)
}

/// With a single-limb chain every generalized kernel must reproduce the
/// pre-RNS Goldilocks stripe arithmetic bit for bit — checked against
/// scalar `p_mul`/`p_add`/`p_sub` oracles rather than the kernels
/// themselves, so a segment-walk bug cannot cancel out.
#[test]
fn k1_kernels_are_bit_identical_to_the_goldilocks_oracle() {
    let policies = available_policies("k1_kernels_are_bit_identical_to_the_goldilocks_oracle");
    let mut rng = ChaCha8Rng::seed_from_u64(0x9B5_0001);
    for degree in [8usize, 64, 512] {
        for &policy in &policies {
            let chain = ModulusChain::with_policy(1, degree, policy);
            let a = CtPayload::from_limb_stripe(random_residues(&mut rng, 2 * degree, MODULUS), 1);
            let b = CtPayload::from_limb_stripe(random_residues(&mut rng, 2 * degree, MODULUS), 1);
            let m = random_residues(&mut rng, degree, MODULUS);
            let s0 = random_residues(&mut rng, degree, MODULUS);
            let s1 = random_residues(&mut rng, degree, MODULUS);

            let mut out = vec![0u64; 2 * degree];
            a.mul_eval2(&m, &mut out, &chain);
            for i in 0..degree {
                assert_eq!(out[i], p_mul(a.c0()[i], m[i]), "mul_eval2 c0 @{i}");
                assert_eq!(out[degree + i], p_mul(a.c1()[i], m[i]), "mul_eval2 c1 @{i}");
            }

            // The fused tensor + key-switch kernel: c2 = a1·b1,
            // out0 = a0·b0 + c2·s0, out1 = a0·b1 + a1·b0 + c2·s1.
            a.mul_add_eval2(&b, &s0, &s1, &mut out, &chain);
            for i in 0..degree {
                let c2 = p_mul(a.c1()[i], b.c1()[i]);
                let want0 = p_add(p_mul(a.c0()[i], b.c0()[i]), p_mul(c2, s0[i]));
                let want1 = p_add(
                    p_add(p_mul(a.c0()[i], b.c1()[i]), p_mul(a.c1()[i], b.c0()[i])),
                    p_mul(c2, s1[i]),
                );
                assert_eq!(out[i], want0, "mul_add_eval2 c0 @{i}");
                assert_eq!(out[degree + i], want1, "mul_add_eval2 c1 @{i}");
            }

            a.add2(&b, &mut out, &chain);
            for (i, &got) in out.iter().enumerate() {
                assert_eq!(got, p_add(a.stripe()[i], b.stripe()[i]), "add2 @{i}");
            }
            a.sub2(&b, &mut out, &chain);
            for (i, &got) in out.iter().enumerate() {
                assert_eq!(got, p_sub(a.stripe()[i], b.stripe()[i]), "sub2 @{i}");
            }
        }
    }
}

/// Multi-limb kernels reduce each limb stripe by its own prime and match
/// the same scalar oracles limb by limb, under every policy the CPU has.
#[test]
fn multi_limb_kernels_match_per_limb_oracles() {
    let policies = available_policies("multi_limb_kernels_match_per_limb_oracles");
    let mut rng = ChaCha8Rng::seed_from_u64(0x9B5_0002);
    for k in [2usize, 3] {
        for degree in [8usize, 64, 256] {
            let half = k * degree;
            for &policy in &policies {
                let chain = ModulusChain::with_policy(k, degree, policy);
                let (a, m) = random_limb_payload(&mut rng, &chain);
                let (b, _) = random_limb_payload(&mut rng, &chain);

                let mut out = vec![0u64; 2 * half];
                a.mul_eval2(&m, &mut out, &chain);
                for li in 0..k {
                    let q = chain.limb(li).modulus();
                    for j in 0..degree {
                        let i = li * degree + j;
                        assert_eq!(
                            out[i],
                            naive_mul(a.c0()[i], m[i], q),
                            "mul_eval2 c0 limb {li} @{j} (k={k})"
                        );
                        assert_eq!(
                            out[half + i],
                            naive_mul(a.c1()[i], m[i], q),
                            "mul_eval2 c1 limb {li} @{j} (k={k})"
                        );
                    }
                }

                a.add2(&b, &mut out, &chain);
                for li in 0..k {
                    let q = chain.limb(li).modulus();
                    for j in 0..degree {
                        let i = li * degree + j;
                        assert_eq!(out[i], naive_add(a.c0()[i], b.c0()[i], q));
                        assert_eq!(out[half + i], naive_add(a.c1()[i], b.c1()[i], q));
                    }
                }
                a.sub2(&b, &mut out, &chain);
                for li in 0..k {
                    let q = chain.limb(li).modulus();
                    for j in 0..degree {
                        let i = li * degree + j;
                        assert_eq!(out[i], naive_sub(a.c0()[i], b.c0()[i], q));
                        assert_eq!(out[half + i], naive_sub(a.c1()[i], b.c1()[i], q));
                    }
                }
                let mut neg = vec![0u64; 2 * half];
                a.neg2(&mut neg, &chain);
                for li in 0..k {
                    let q = chain.limb(li).modulus();
                    for j in 0..degree {
                        let i = li * degree + j;
                        assert_eq!(neg[i], neg_mod(a.c0()[i], q), "neg2 limb {li} @{j}");
                        assert_eq!(
                            add_mod(neg[i], a.c0()[i], q),
                            0,
                            "neg2 must be the additive inverse"
                        );
                    }
                }
            }
        }
    }
}

/// Garner CRT: reconstruction and lifting are exact inverses for random
/// per-limb residues at every chain length, and a base value below every
/// modulus reconstructs to itself (single-word integer).
#[test]
fn crt_reconstruct_and_lift_round_trip_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC27_0003);
    for k in 1..=4usize {
        let chain = ModulusChain::new(k, 8);
        for _ in 0..200 {
            let residues: Vec<u64> = (0..k)
                .map(|i| rng.gen::<u64>() % chain.limb(i).modulus())
                .collect();
            let words = chain.crt_reconstruct(&residues);
            assert_eq!(words.len(), k, "one 64-bit word per limb");
            assert_eq!(
                chain.crt_lift(&words),
                residues,
                "crt_lift(crt_reconstruct(r)) must be the identity (k={k})"
            );
        }
        // A base value smaller than every modulus is its own reconstruction.
        let min_q = chain.limbs().iter().map(|l| l.modulus()).min().unwrap();
        for _ in 0..50 {
            let x = rng.gen::<u64>() % min_q;
            let residues: Vec<u64> = (0..k).map(|i| chain.lift_base(i, x)).collect();
            let words = chain.crt_reconstruct(&residues);
            assert_eq!(words[0], x, "small values reconstruct to themselves");
            assert!(words[1..].iter().all(|&w| w == 0));
        }
    }
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

/// All 46 benchsuite kernels end to end at limb counts 2 and 3: outputs,
/// operation counts, noise accounting and decryption outcomes are identical
/// to the k=1 engine, under the process-wide policy forced to scalar and to
/// each vector back end the CPU has, across 1/4 threads and both schedulers.
#[test]
fn every_kernel_is_identical_across_limb_counts_policies_and_schedulers() {
    let policies =
        available_policies("every_kernel_is_identical_across_limb_counts_policies_and_schedulers");
    let base = BfvParameters::insecure_test();
    assert_eq!(base.limb_count, 1, "the default path is the k=1 oracle");
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let inputs = inputs_of(&benchmark, 31);
        for &policy in &policies {
            SimdPolicy::set_global(policy);
            let oracle = compiled
                .session(&base)
                .unwrap_or_else(|e| panic!("{}: k=1 session failed: {e}", benchmark.id()))
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{}: k=1 run failed: {e}", benchmark.id()));
            for k in [2usize, 3] {
                let session = compiled
                    .session(&base.clone().with_limb_count(k))
                    .unwrap_or_else(|e| panic!("{}: k={k} session failed: {e}", benchmark.id()));
                let solo = session.run(&inputs).unwrap_or_else(|e| {
                    panic!("{}: k={k} run failed under {policy:?}: {e}", benchmark.id())
                });
                assert_eq!(
                    solo.outputs,
                    oracle.outputs,
                    "{}: outputs depend on the limb count (k={k}, {policy:?})",
                    benchmark.id()
                );
                assert_eq!(
                    solo.operation_stats,
                    oracle.operation_stats,
                    "{}: operation counts depend on the limb count (k={k})",
                    benchmark.id()
                );
                assert_eq!(
                    solo.noise_budget_consumed,
                    oracle.noise_budget_consumed,
                    "{}: noise accounting depends on the limb count (k={k})",
                    benchmark.id()
                );
                assert_eq!(
                    solo.decryption_ok,
                    oracle.decryption_ok,
                    "{}: decryption outcome depends on the limb count (k={k})",
                    benchmark.id()
                );
                for (threads, scheduler) in [
                    (1usize, SchedulerKind::Dataflow),
                    (4, SchedulerKind::Dataflow),
                    (4, SchedulerKind::Leveled),
                ] {
                    let options = ExecOptions::sequential()
                        .with_threads_per_request(threads)
                        .with_scheduler(scheduler);
                    let parallel = session.run_parallel(&inputs, &options).unwrap_or_else(|e| {
                        panic!(
                            "{}: k={k} {threads}-thread {scheduler:?} run failed under \
                             {policy:?}: {e}",
                            benchmark.id()
                        )
                    });
                    assert_eq!(
                        parallel.outputs,
                        oracle.outputs,
                        "{}: outputs diverged at k={k}, {threads} threads, \
                         {scheduler:?}/{policy:?}",
                        benchmark.id()
                    );
                    assert_eq!(
                        parallel.operation_stats,
                        oracle.operation_stats,
                        "{}: operation counts diverged at k={k}, {threads} threads, \
                         {scheduler:?}/{policy:?}",
                        benchmark.id()
                    );
                }
            }
        }
        SimdPolicy::set_global(SimdPolicy::detected());
    }
}
