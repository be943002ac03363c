//! Hot-path equivalence tests: the lazy NTT-domain evaluator's ring
//! arithmetic must agree with the coefficient-domain reference, and it must
//! actually be lazy. (That no slot value depends on a payload is structural:
//! no slot computation reads one.)
//!
//! Two angles:
//!
//! 1. **Randomized ring equivalence** — Eval-domain products and Galois
//!    permutations agree with the coefficient-domain reference on random
//!    polynomials (seeded loops, inputs printed on failure).
//! 2. **Transform minimality** — a multiply→rotate→multiply chain performs
//!    *zero* forward/inverse transforms (operands are born in NTT form, key
//!    payloads are pre-transformed at keygen), and a ct-pt multiply
//!    transforms its plaintext splat exactly once, read through the
//!    telemetry-facing [`chehab::fhe::TransformStats`] snapshot of the
//!    context's `NttTables`.

use chehab::fhe::poly::{Domain, NttTables, Poly, MODULUS};
use chehab::fhe::{
    BfvParameters, Decryptor, Encryptor, Evaluator, FheContext, KeyGenerator, TransformStats,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Eval-domain pointwise products agree with the coefficient-domain NTT
/// product (and the schoolbook reference) on random polynomials.
#[test]
fn eval_domain_products_match_coefficient_domain_on_random_polys() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x40EA7);
    for degree in [16usize, 64, 256] {
        let tables = NttTables::new(degree);
        for case in 0..16 {
            let a: Vec<u64> = (0..degree).map(|_| rng.gen::<u64>() % MODULUS).collect();
            let b: Vec<u64> = (0..degree).map(|_| rng.gen::<u64>() % MODULUS).collect();
            let pa = Poly::from_coeffs(a.clone());
            let pb = Poly::from_coeffs(b.clone());
            let reference = pa.mul_naive(&pb);
            assert_eq!(
                pa.mul_ntt(&pb, &tables),
                reference,
                "degree {degree} case {case}: a={a:?} b={b:?}"
            );
            let lazy = pa.to_eval(&tables).mul_eval(&pb.to_eval(&tables));
            assert_eq!(lazy.domain(), Domain::Eval);
            assert_eq!(
                lazy.to_coeff(&tables),
                reference,
                "degree {degree} case {case}: a={a:?} b={b:?}"
            );
        }
    }
}

/// The Eval-domain Galois permutation agrees with the coefficient-domain
/// automorphism for every odd Galois element of a small ring.
#[test]
fn eval_domain_galois_matches_coefficient_domain_for_all_odd_elements() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B5);
    let degree = 32usize;
    let tables = NttTables::new(degree);
    let coeffs: Vec<u64> = (0..degree).map(|_| rng.gen::<u64>() % MODULUS).collect();
    let p = Poly::from_coeffs(coeffs.clone());
    let p_eval = p.to_eval(&tables);
    for galois_elt in (1..2 * degree).step_by(2) {
        let reference = p.apply_galois(galois_elt);
        let lazy = p_eval.apply_galois_eval(galois_elt).to_coeff(&tables);
        assert_eq!(lazy, reference, "galois element {galois_elt}: p={coeffs:?}");
    }
}

/// A multiply→rotate→multiply chain performs **zero** transforms: fresh
/// ciphertexts are born in NTT form, relinearization and Galois key
/// payloads were pre-transformed at keygen, and nothing downstream of the
/// chain observes coefficient form. A ct-pt multiply costs exactly one
/// forward transform (its plaintext splat), amortized across both payload
/// components and across repeated uses of the same plaintext.
#[test]
fn multiply_rotate_multiply_chain_is_transform_free() {
    let ctx = FheContext::new(BfvParameters::insecure_test()).unwrap();
    assert_eq!(
        ctx.transform_stats(),
        TransformStats::default(),
        "building a context transforms nothing"
    );
    let mut keygen = KeyGenerator::new(ctx.params(), 7);
    let mut encryptor = Encryptor::new(&ctx, &keygen.public_key());
    let decryptor = Decryptor::new(&ctx, &keygen.secret_key());
    let relin = keygen.relin_keys();
    let galois = keygen.galois_keys(&[1]);
    let mut evaluator = Evaluator::new(&ctx);

    let a = encryptor.encrypt_values(&[1, 2, 3, 4]).unwrap();
    let b = encryptor.encrypt_values(&[5, 6, 7, 8]).unwrap();
    // Everything above (context build, keygen, encryption) is session-setup
    // work; the chain below is the steady-state request path.
    ctx.reset_transform_counts();

    let product = evaluator.multiply(&a, &b, &relin);
    let rotated = evaluator.rotate(&product, 1, &galois).unwrap();
    let chained = evaluator.multiply(&rotated, &b, &relin);
    assert_eq!(
        ctx.transform_stats(),
        TransformStats::default(),
        "the multiply-rotate-multiply chain must not transform at all"
    );

    // Decryption stays transform-free too (slots only).
    let pt = decryptor.decrypt(&chained).unwrap();
    assert_eq!(ctx.transform_stats(), TransformStats::default());
    // Functional sanity of the chain: ((a*b) << 1) * b =
    // [12*5, 21*6, 32*7] on the live slots.
    assert_eq!(ctx.decode(&pt, 3), vec![60, 126, 224]);

    // One plaintext splat: exactly one forward transform on first use,
    // zero on reuse (cached on the plaintext across both components).
    let one_splat = TransformStats {
        forward: 1,
        inverse: 0,
    };
    let plain = ctx.encode(&[2, 2, 2, 2]).unwrap();
    let _ = evaluator.multiply_plain(&chained, &plain);
    assert_eq!(ctx.transform_stats(), one_splat);
    let _ = evaluator.multiply_plain(&chained, &plain);
    assert_eq!(ctx.transform_stats(), one_splat);
}

/// The context's counters cover every limb of the chain: a plaintext splat
/// is one forward transform per limb stripe, so one ct-pt multiply counts
/// `k` times at `k` limbs what it counts at one.
#[test]
fn transform_counts_cover_every_limb() {
    let ct_pt_multiply = |limbs: usize| {
        let params = BfvParameters::insecure_test().with_limb_count(limbs);
        let ctx = FheContext::new(params).unwrap();
        let keygen = KeyGenerator::new(ctx.params(), 7);
        let mut encryptor = Encryptor::new(&ctx, &keygen.public_key());
        let a = encryptor.encrypt_values(&[1, 2, 3]).unwrap();
        ctx.reset_transform_counts();
        let plain = ctx.encode(&[2, 2, 2]).unwrap();
        let _ = Evaluator::new(&ctx).multiply_plain(&a, &plain);
        ctx.transform_stats()
    };
    let one = ct_pt_multiply(1);
    assert_eq!(
        one,
        TransformStats {
            forward: 1,
            inverse: 0
        }
    );
    let three = ct_pt_multiply(3);
    assert_eq!(
        three,
        TransformStats {
            forward: 3 * one.forward,
            inverse: 0
        }
    );
}

/// A plaintext first used under one context stays correct when reused
/// under a context with a different payload degree: the Eval-splat cache
/// must never serve a wrong-degree hit (it rebuilds an uncached splat at
/// the operation's own degree instead).
#[test]
fn plaintext_splat_cache_survives_cross_context_reuse() {
    let params_small = BfvParameters {
        payload_degree: 16,
        ..BfvParameters::insecure_test()
    };
    let params_large = BfvParameters::insecure_test();
    let ctx_small = FheContext::new(params_small).unwrap();
    let ctx_large = FheContext::new(params_large).unwrap();
    let keygen_small = KeyGenerator::new(ctx_small.params(), 3);
    let keygen_large = KeyGenerator::new(ctx_large.params(), 3);
    let mut enc_small = Encryptor::new(&ctx_small, &keygen_small.public_key());
    let mut enc_large = Encryptor::new(&ctx_large, &keygen_large.public_key());
    let mut eval_small = Evaluator::new(&ctx_small);
    let mut eval_large = Evaluator::new(&ctx_large);

    let ct_small = enc_small.encrypt_values(&[1, 2]).unwrap();
    let ct_large = enc_large.encrypt_values(&[1, 2]).unwrap();
    // One shared plaintext, first multiplied under the small context (which
    // fills its splat cache at degree 16), then under the large one.
    let shared = ctx_small.encode(&[3, 3]).unwrap();
    let small_product = eval_small.multiply_plain(&ct_small, &shared);
    let crossed = eval_large.multiply_plain(&ct_large, &shared);
    // The reference never saw the small context at all.
    let fresh = ctx_large.encode(&[3, 3]).unwrap();
    let reference = eval_large.multiply_plain(&ct_large, &fresh);
    assert_eq!(crossed.payload(), reference.payload());
    assert_eq!(small_product.payload().degree(), 16);
    assert_eq!(crossed.payload().degree(), 64);
}
