//! SIMD-vs-scalar equivalence tests for the hardware-floor arithmetic
//! engine: the AVX2 and AVX-512 stripe kernels and the lazy-reduction NTT
//! must be **bit-identical** to the portable scalar/eager oracles, at every
//! thread count, under both schedulers.
//!
//! Four angles:
//!
//! 1. **Fused-kernel equivalence** — every `CtPayload` kernel (the fused
//!    dual-component multiply/add/sub/neg family plus the Galois gather)
//!    produces identical stripes under `SimdPolicy::Scalar` and every
//!    vector policy the CPU has, on random inputs, from one vector
//!    wide to 1024, under chains of one, two and three limbs (ragged
//!    lengths and scalar tails are the business of `simd.rs`'s own kernel
//!    matrix: a stripe degree is a power of two).
//! 2. **Transform equivalence** — forward and inverse NTTs agree across
//!    policies on random polynomials at several degrees, on every limb of
//!    a three-limb chain.
//! 3. **Lazy-reduction invariant** — the lazy engine keeps values unreduced
//!    across butterfly layers, so the observable contract is that the single
//!    end normalization yields fully canonical outputs that match a
//!    from-first-principles schoolbook negacyclic reference exactly.
//! 4. **End-to-end sweep** — all 46 benchsuite kernels produce identical
//!    outputs, operation counts and noise accounting with the process-wide
//!    policy forced to scalar and to each vector back end
//!    ([`SimdPolicy::set_global`], the test-side spelling of `CHEHAB_SIMD`),
//!    at 1 and 4 threads under both schedulers. Only this test touches the
//!    global policy; the others build one chain (or table set) per lane
//!    with `with_policy`, and a kernel runs on its chain's lane.
//!
//! Every test runs each lane the CPU has and prints the ones it skips; on
//! hardware without a vector lane the comparisons hold trivially — the
//! sweep still exercises the dispatch plumbing.

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{Compiler, ExecOptions, SchedulerKind};
use chehab::fhe::poly::{Domain, NttTables, Poly, MODULUS};
use chehab::fhe::simd::GaloisPermutation;
use chehab::fhe::{BfvParameters, CtPayload, ModulusChain, SimdPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

fn random_residues(rng: &mut ChaCha8Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen::<u64>() % MODULUS).collect()
}

/// [`SimdPolicy::available`], printing the lanes it skips; `test` names who
/// asks.
fn available_policies(test: &str) -> Vec<SimdPolicy> {
    let have = SimdPolicy::available();
    for lane in SimdPolicy::ALL.iter().filter(|p| !have.contains(p)) {
        println!("{test}: skipped {lane:?}, which this CPU does not have");
    }
    have
}

/// The lane `chain`'s kernels run on.
fn lane(chain: &ModulusChain) -> SimdPolicy {
    chain.limb(0).ntt().expect("every limb has tables").policy()
}

/// Runs one payload kernel on the scalar chain `lanes[0]` and on each vector
/// chain after it, and asserts bit-identity.
fn assert_kernel_identical(
    label: &str,
    n: usize,
    lanes: &[ModulusChain],
    kernel: impl Fn(&ModulusChain) -> Vec<u64>,
) {
    let (scalar_chain, vectors) = lanes.split_first().expect("the scalar lane");
    assert_eq!(lane(scalar_chain), SimdPolicy::Scalar);
    let scalar = kernel(scalar_chain);
    for chain in vectors {
        assert_eq!(
            scalar,
            kernel(chain),
            "{label}: scalar and {} stripes diverged (n={n})",
            lane(chain).name()
        );
    }
}

/// `stripes` consecutive limb stripes of `chain`'s degree, each canonical
/// under its own limb's prime.
fn random_limb_stripes(rng: &mut ChaCha8Rng, chain: &ModulusChain, stripes: usize) -> Vec<u64> {
    let mut values = Vec::with_capacity(stripes * chain.degree());
    for stripe in 0..stripes {
        let q = chain.limb(stripe % chain.limb_count()).modulus();
        values.extend((0..chain.degree()).map(|_| rng.gen::<u64>() % q));
    }
    values
}

/// Every fused dual-component kernel is bit-identical between the scalar
/// oracle and every vector policy the CPU has — random inputs, every degree
/// from one four-wide vector up, under chains of one, two and three limbs
/// (Goldilocks alone, then with one and two Barrett limbs), one chain per
/// lane: a kernel runs on its chain's lane.
#[test]
fn fused_payload_kernels_are_bit_identical_under_every_policy() {
    let policies = available_policies("fused_payload_kernels_are_bit_identical_under_every_policy");
    let mut rng = ChaCha8Rng::seed_from_u64(0x51DE0);
    // Degrees must be powers of two (stripe invariant).
    for k in [1usize, 2, 3] {
        for n in [4usize, 8, 64, 1024] {
            let lanes: Vec<ModulusChain> = (policies.iter())
                .map(|&policy| ModulusChain::with_policy(k, n, policy))
                .collect();
            let chain = &lanes[0];
            let len = 2 * k * n;
            let payload = |rng: &mut ChaCha8Rng| {
                CtPayload::from_limb_stripe(random_limb_stripes(rng, chain, 2 * k), k)
            };
            let a = payload(&mut rng);
            let b = payload(&mut rng);
            let mult = random_limb_stripes(&mut rng, chain, k);
            let s0 = random_limb_stripes(&mut rng, chain, k);
            let s1 = random_limb_stripes(&mut rng, chain, k);
            // An arbitrary index permutation is enough for gather
            // equivalence (the real Galois permutations are a subset).
            let perm = GaloisPermutation::new((0..n).map(|i| ((i * 7 + 3) % n) as u32).collect());
            let key = random_limb_stripes(&mut rng, chain, k);

            assert_kernel_identical("mul_eval2", n, &lanes, |chain| {
                let mut out = vec![0u64; len];
                a.mul_eval2(&mult, &mut out, chain);
                out
            });
            assert_kernel_identical("mul_add_eval2", n, &lanes, |chain| {
                let mut out = vec![0u64; len];
                a.mul_add_eval2(&b, &s0, &s1, &mut out, chain);
                out
            });
            assert_kernel_identical("galois_eval2", n, &lanes, |chain| {
                let mut out = vec![0u64; len];
                a.galois_eval2(&perm, &key, &mut out, chain);
                out
            });
            assert_kernel_identical("add2", n, &lanes, |chain| {
                let mut out = vec![0u64; len];
                a.add2(&b, &mut out, chain);
                out
            });
            assert_kernel_identical("sub2", n, &lanes, |chain| {
                let mut out = vec![0u64; len];
                a.sub2(&b, &mut out, chain);
                out
            });
            assert_kernel_identical("neg2", n, &lanes, |chain| {
                let mut out = vec![0u64; len];
                a.neg2(&mut out, chain);
                out
            });
        }
    }
}

/// Forward and inverse transforms are bit-identical between the scalar lane
/// and each vector lane the CPU has, on every limb of the `k = 3` chain —
/// Goldilocks and both Barrett primes — and each round-trips.
#[test]
fn ntt_transforms_are_bit_identical_under_every_policy() {
    let policies = available_policies("ntt_transforms_are_bit_identical_under_every_policy");
    let mut rng = ChaCha8Rng::seed_from_u64(0x77A_B1E);
    for degree in [16usize, 64, 512, 2048] {
        let scalar = ModulusChain::with_policy(3, degree, SimdPolicy::Scalar);
        for &policy in &policies[1..] {
            let vector = ModulusChain::with_policy(3, degree, policy);
            for (limb, (s, v)) in scalar.limbs().iter().zip(vector.limbs()).enumerate() {
                let q = s.modulus();
                let (s, v) = (s.ntt().expect("tables"), v.ntt().expect("tables"));
                for round in 0..4 {
                    let context =
                        format!("{policy:?}, limb {limb}, degree={degree}, round={round}");
                    let input: Vec<u64> = (0..degree).map(|_| rng.gen::<u64>() % q).collect();

                    let mut a = input.clone();
                    let mut b = input.clone();
                    s.forward(&mut a);
                    v.forward(&mut b);
                    assert_eq!(a, b, "forward diverged ({context})");

                    s.inverse(&mut a);
                    v.inverse(&mut b);
                    assert_eq!(a, b, "inverse diverged ({context})");
                    assert_eq!(a, input, "round-trip is not the identity ({context})");
                }
            }
        }
    }
}

/// The lazy-reduction invariant: butterflies keep values unreduced across
/// layers, and the single normalization at the end makes every output
/// canonical (`< p`) and *exactly* equal to the eager reference — here the
/// from-first-principles schoolbook negacyclic product, computed without any
/// NTT at all.
#[test]
fn lazy_ntt_normalization_matches_schoolbook_reference_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1A27);
    let policies =
        available_policies("lazy_ntt_normalization_matches_schoolbook_reference_exactly");
    for degree in [16usize, 64, 128] {
        for &policy in &policies {
            let tables = NttTables::with_policy(degree, policy);
            let a = Poly::from_reduced(random_residues(&mut rng, degree), Domain::Coeff);
            let b = Poly::from_reduced(random_residues(&mut rng, degree), Domain::Coeff);

            // Forward outputs are fully canonical: the lazy residues never
            // escape the transform.
            let mut fa = a.coeffs().to_vec();
            tables.forward(&mut fa);
            assert!(
                fa.iter().all(|&c| c < MODULUS),
                "lazy forward NTT leaked a non-canonical value ({policy:?}, degree={degree})"
            );

            // The full pipeline (forward, pointwise, inverse — all lazy
            // inside) agrees with the O(n^2) schoolbook product exactly.
            let via_ntt = a.mul_ntt(&b, &tables);
            let reference = a.mul_naive(&b);
            assert_eq!(
                via_ntt.coeffs(),
                reference.coeffs(),
                "lazy NTT product diverged from schoolbook ({policy:?}, degree={degree})"
            );
            assert!(via_ntt.coeffs().iter().all(|&c| c < MODULUS));
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

/// All 46 benchsuite kernels, end to end, with the process-wide policy
/// forced to scalar and then to each vector back end the CPU has: outputs,
/// operation counts, noise accounting and decryption outcomes are
/// identical, per policy across 1/4 threads and both schedulers, and across
/// the policies.
#[test]
fn every_kernel_is_bit_identical_under_forced_scalar_and_vectorized_policies() {
    let params = BfvParameters::insecure_test();
    let policies = available_policies(
        "every_kernel_is_bit_identical_under_forced_scalar_and_vectorized_policies",
    );
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let inputs = inputs_of(&benchmark, 29);
        let mut reference = None;
        for &policy in &policies {
            SimdPolicy::set_global(policy);
            let session = compiled
                .session(&params)
                .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
            let solo = session
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{}: run failed under {policy:?}: {e}", benchmark.id()));
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
                        "{}: {threads}-thread {scheduler:?} run failed under {policy:?}: {e}",
                        benchmark.id()
                    )
                });
                assert_eq!(
                    parallel.outputs,
                    solo.outputs,
                    "{}: outputs diverged at {threads} threads under {scheduler:?}/{policy:?}",
                    benchmark.id()
                );
                assert_eq!(
                    parallel.operation_stats,
                    solo.operation_stats,
                    "{}: operation counts diverged at {threads} threads under {scheduler:?}/{policy:?}",
                    benchmark.id()
                );
            }
            match &reference {
                None => reference = Some(solo),
                Some(oracle) => {
                    assert_eq!(
                        solo.outputs,
                        oracle.outputs,
                        "{}: outputs depend on the SIMD policy",
                        benchmark.id()
                    );
                    assert_eq!(
                        solo.operation_stats,
                        oracle.operation_stats,
                        "{}: operation counts depend on the SIMD policy",
                        benchmark.id()
                    );
                    assert_eq!(
                        solo.noise_budget_consumed,
                        oracle.noise_budget_consumed,
                        "{}: noise accounting depends on the SIMD policy",
                        benchmark.id()
                    );
                    assert_eq!(
                        solo.decryption_ok,
                        oracle.decryption_ok,
                        "{}: decryption outcome depends on the SIMD policy",
                        benchmark.id()
                    );
                }
            }
        }
        // Leave the process-wide policy as detection would have set it.
        SimdPolicy::set_global(SimdPolicy::detected());
    }
}
