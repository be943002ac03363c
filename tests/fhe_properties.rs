//! Property-based tests of the FHE backend: homomorphism of every operation,
//! NTT correctness, and consistency between the IR interpreter and
//! homomorphic execution of compiled circuits.
//!
//! Written as seeded randomized case loops (the `proptest` crate is
//! unavailable in hermetic builds); every case prints its inputs on failure
//! so a reproduction is one seed away.

use chehab::compiler::Compiler;
use chehab::datagen::LlmLikeSynthesizer;
use chehab::fhe::{
    poly, BfvParameters, Decryptor, Encryptor, Evaluator, FheContext, KeyGenerator, PlainModulus,
};
use chehab::ir::{evaluate, Env, Ty};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

const CASES: usize = 32;

/// `decrypt(op(encrypt(x), encrypt(y))) == op(x, y)` for every evaluator
/// operation.
#[test]
fn evaluator_operations_are_homomorphic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4E_00A);
    let ctx = FheContext::new(BfvParameters::insecure_test()).unwrap();
    let mut keygen = KeyGenerator::new(ctx.params(), 1);
    let mut enc = Encryptor::new(&ctx, &keygen.public_key());
    let dec = Decryptor::new(&ctx, &keygen.secret_key());
    let mut eval = Evaluator::new(&ctx);
    let relin = keygen.relin_keys();
    // Keys for every step the test may draw (the default key set only
    // covers powers of two).
    let galois = keygen.galois_keys(&[1, 2, 3]);
    let t = ctx.plain_modulus() as i64;

    for case in 0..CASES {
        let xs: Vec<i64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..1000))
            .collect();
        let ys: Vec<i64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..1000))
            .collect();
        let step = rng.gen_range(1..4i64);

        let a = enc.encrypt_values(&xs).unwrap();
        let b = enc.encrypt_values(&ys).unwrap();
        let len = xs.len().max(ys.len());
        let at = |v: &[i64], i: usize| v.get(i).copied().unwrap_or(0);

        let sum = dec.decrypt(&eval.add(&a, &b)).unwrap();
        let product = dec.decrypt(&eval.multiply(&a, &b, &relin)).unwrap();
        let difference = dec.decrypt(&eval.sub(&a, &b)).unwrap();
        for i in 0..len {
            let context = format!("case {case}: xs={xs:?} ys={ys:?} slot {i}");
            assert_eq!(
                sum.slots()[i] as i64,
                (at(&xs, i) + at(&ys, i)).rem_euclid(t),
                "{context}"
            );
            assert_eq!(
                product.slots()[i] as i64,
                (at(&xs, i) * at(&ys, i)).rem_euclid(t),
                "{context}"
            );
            assert_eq!(
                difference.slots()[i] as i64,
                (at(&xs, i) - at(&ys, i)).rem_euclid(t),
                "{context}"
            );
        }

        // Rotation towards slot zero behaves like a zero-filled shift over the
        // live prefix.
        let rotated = dec
            .decrypt(&eval.rotate(&a, step, &galois).unwrap())
            .unwrap();
        for i in 0..xs.len() {
            let expected = at(&xs, i + step as usize).rem_euclid(t);
            assert_eq!(
                rotated.slots()[i] as i64,
                expected,
                "case {case}: xs={xs:?} step={step} slot {i}"
            );
        }
    }
}

/// The slot reducer against the `u128 %` arithmetic it replaced, on boundary
/// and random canonical operands, for three plaintext moduli.
#[test]
fn plain_modulus_reducer_matches_the_u128_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4E_00C);
    for t in [12_289u64, 65_537, 786_433] {
        let m = PlainModulus::new(t);
        assert_eq!(m.value(), t);
        let mut operands = vec![0, 1, t - 1];
        operands.extend((0..64).map(|_| rng.gen_range(0..t)));
        for &a in &operands {
            assert_eq!(m.neg(a), (t - a) % t, "t={t}: -{a}");
            for &b in &operands {
                let (wa, wb, wt) = (u128::from(a), u128::from(b), u128::from(t));
                assert_eq!(u128::from(m.add(a, b)), (wa + wb) % wt, "t={t}: {a}+{b}");
                assert_eq!(
                    u128::from(m.sub(a, b)),
                    (wa + wt - wb) % wt,
                    "t={t}: {a}-{b}"
                );
                assert_eq!(u128::from(m.mul(a, b)), (wa * wb) % wt, "t={t}: {a}*{b}");
            }
        }
        // Whole words, too: exact multiples, their neighbours, both ends.
        let mut words = vec![0, t - 1, t, t + 1, u64::MAX - 1, u64::MAX];
        words.extend([u64::MAX / t * t, u64::MAX / t * t - 1]);
        words.extend((0..256).map(|_| rng.gen::<u64>()));
        for x in words {
            assert_eq!(m.reduce(x), x % t, "t={t}: reduce {x}");
        }
    }
}

/// Slots are canonical from encoding onwards; the reducer checks it on entry
/// in debug builds instead of paying a defensive `% t` per slot.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "canonical")]
fn reducer_rejects_non_canonical_operands_in_debug_builds() {
    let t = 786_433;
    let _ = PlainModulus::new(t).add(t, 0);
}

/// The block-copy slot rotation against the indexed definition
/// `out[i] = in[(i + step) mod n]`, at the steps where a split is empty,
/// one slot wide, or exactly half.
#[test]
fn rotation_by_boundary_steps_matches_the_indexed_reference() {
    let ctx = FheContext::new(BfvParameters::insecure_test()).unwrap();
    let n = ctx.slot_count() as i64;
    let steps = [1, -1, n - 1, -(n - 1), n / 2];
    let mut keygen = KeyGenerator::new(ctx.params(), 3);
    let mut enc = Encryptor::new(&ctx, &keygen.public_key());
    let dec = Decryptor::new(&ctx, &keygen.secret_key());
    let mut eval = Evaluator::new(&ctx);
    let galois = keygen.galois_keys(&steps);
    let values: Vec<i64> = (1..=n).collect();
    let a = enc.encrypt_values(&values).unwrap();
    for step in steps {
        let rotated = dec
            .decrypt(&eval.rotate(&a, step, &galois).unwrap())
            .unwrap();
        for (i, &got) in rotated.slots().iter().enumerate() {
            let source = (i as i64 + step).rem_euclid(n) as usize;
            assert_eq!(got as i64, values[source], "step {step} slot {i}");
        }
    }
}

/// NTT-based negacyclic multiplication agrees with the schoolbook product.
#[test]
fn ntt_multiplication_matches_schoolbook() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF4E_00B);
    let tables = poly::NttTables::new(16);
    for case in 0..CASES {
        let a: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1_000_000)).collect();
        let b: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1_000_000)).collect();
        let pa = poly::Poly::from_coeffs(a.clone());
        let pb = poly::Poly::from_coeffs(b.clone());
        assert_eq!(
            pa.mul_ntt(&pb, &tables),
            pa.mul_naive(&pb),
            "case {case}: a={a:?} b={b:?}"
        );
    }
}

/// Compiling and homomorphically executing synthesized programs matches
/// the IR interpreter.
#[test]
fn compiled_programs_match_the_interpreter() {
    let mut executed = 0usize;
    for seed in 0u64..400 {
        if executed >= CASES {
            break;
        }
        let mut synth = LlmLikeSynthesizer::with_seed(seed);
        let program = synth.generate();
        // The same preconditions the original proptest assumed away: small
        // programs whose noise budget survives greedy compilation.
        if program.node_count() > 60 || chehab::ir::multiplicative_depth(&program) > 2 {
            continue;
        }

        let compiled = Compiler::greedy().compile("prop", &program);
        let mut env = Env::new();
        let mut inputs = HashMap::new();
        for (i, v) in program.variables().into_iter().enumerate() {
            let value = (i as i64 % 9) + 1;
            env.bind(v.clone(), value);
            inputs.insert(v.to_string(), value);
        }
        let expected = evaluate(&program, &env).unwrap();
        let live = program.ty().map(Ty::slots).unwrap_or(1);
        let report = compiled
            .session(&BfvParameters::insecure_test())
            .unwrap()
            .run(&inputs)
            .unwrap();
        if !report.decryption_ok {
            continue;
        }
        executed += 1;
        let expected_slots: Vec<u64> = expected.slots().into_iter().take(live).collect();
        let got: Vec<u64> = report
            .outputs
            .iter()
            .copied()
            .take(expected_slots.len())
            .collect();
        assert_eq!(got, expected_slots, "seed {seed}");
    }
    assert!(
        executed >= CASES / 2,
        "too few synthesized programs survived the preconditions"
    );
}
