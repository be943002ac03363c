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
    poly, BfvParameters, Ciphertext, Decryptor, Encryptor, Evaluator, FheContext, KeyGenerator,
    PlainModulus,
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
        for (i, &got) in ctx.decode(&rotated, n as usize).iter().enumerate() {
            let source = (i as i64 + step).rem_euclid(n) as usize;
            assert_eq!(got as i64, values[source], "step {step} slot {i}");
        }
    }
}

/// No result depends on a slot vector's stored length: a program over
/// short prefixes of random lengths and the same program over the same
/// values zero-padded to all `n` slots agree with each other — slots
/// (zero-extended), payload stripes and noise figures bit for bit — and with
/// a plain `n`-entry model of add/sub/neg/mul/ct–pt/cyclic rotation,
/// including rotations that wrap non-zero data past slot 0 or push it past
/// the prefix. At `k = 1` and `k = 3` limbs.
#[test]
fn no_result_depends_on_the_stored_slot_length() {
    for limb_count in [1usize, 3] {
        let params = BfvParameters::insecure_test().with_limb_count(limb_count);
        let ctx = FheContext::new(params).unwrap();
        let n = ctx.slot_count();
        let t = ctx.plain_modulus();
        let m = PlainModulus::new(t);
        let steps: Vec<i64> = [1, 2, 3, 5, 8, 17, 40, (n / 2) as i64, (n - 1) as i64]
            .into_iter()
            .flat_map(|s| [s, -s])
            .collect();
        let mut keygen = KeyGenerator::new(ctx.params(), 7);
        let relin = keygen.relin_keys();
        let galois = keygen.galois_keys(&steps);
        let dec = Decryptor::new(&ctx, &keygen.secret_key());
        let mut eval = Evaluator::new(&ctx);
        let budget = ctx.params().fresh_noise_budget_bits();

        let mut rng = ChaCha8Rng::seed_from_u64(0xF4E_00D + limb_count as u64);
        let mut wrapped_nonzero = 0usize;
        let mut kept_short = 0usize;
        for case in 0..CASES {
            // Two encryptors of one key draw the same payload stream, so the
            // short and the padded side start from identical payloads.
            let mut enc_short = Encryptor::new(&ctx, &keygen.public_key());
            let mut enc_full = Encryptor::new(&ctx, &keygen.public_key());
            // Random length, random zero runs at both ends (so rotations
            // sometimes stay inside the prefix and sometimes do not).
            let random_values = |rng: &mut ChaCha8Rng| -> Vec<i64> {
                let len = match rng.gen_range(0..4) {
                    0 => rng.gen_range(1..=n),
                    _ => rng.gen_range(1..=48),
                };
                let lead = rng.gen_range(0..=len.min(10));
                let trail = rng.gen_range(0..=(len - lead).min(10));
                (0..len)
                    .map(|i| {
                        if i < lead || i >= len - trail {
                            0
                        } else {
                            rng.gen_range(0..t) as i64
                        }
                    })
                    .collect()
            };
            let padded = |values: &[i64]| {
                let mut full = values.to_vec();
                full.resize(n, 0);
                full
            };
            // (short, padded, model) per register.
            let mut registers: Vec<(Ciphertext, Ciphertext, Vec<u64>)> = (0..3)
                .map(|_| {
                    let values = random_values(&mut rng);
                    let model = padded(&values).iter().map(|&v| v as u64).collect();
                    (
                        enc_short.encrypt_values(&values).unwrap(),
                        enc_full.encrypt_values(&padded(&values)).unwrap(),
                        model,
                    )
                })
                .collect();

            for op in 0..20 {
                let a = rng.gen_range(0..registers.len());
                let b = rng.gen_range(0..registers.len());
                let (sa, fa, ma) = registers[a].clone();
                let (sb, fb, mb) = registers[b].clone();
                let zip = |f: &dyn Fn(u64, u64) -> u64| -> Vec<u64> {
                    ma.iter().zip(&mb).map(|(&x, &y)| f(x, y)).collect()
                };
                let room = |cost: f64| {
                    sa.noise_consumed_bits().max(sb.noise_consumed_bits()) + cost < budget - 4.0
                };
                let mut choice = rng.gen_range(0..9);
                if (choice == 2 && !room(34.0)) || (choice == 6 && !room(12.0)) {
                    choice = 0;
                }
                let result = match choice {
                    0 => (
                        eval.add(&sa, &sb),
                        eval.add(&fa, &fb),
                        zip(&|x, y| m.add(x, y)),
                    ),
                    1 => (
                        eval.sub(&sa, &sb),
                        eval.sub(&fa, &fb),
                        zip(&|x, y| m.sub(x, y)),
                    ),
                    2 => (
                        eval.multiply(&sa, &sb, &relin),
                        eval.multiply(&fa, &fb, &relin),
                        zip(&|x, y| m.mul(x, y)),
                    ),
                    3 => (
                        eval.negate(&sa),
                        eval.negate(&fa),
                        ma.iter().map(|&x| m.neg(x)).collect(),
                    ),
                    4..=6 => {
                        let values = random_values(&mut rng);
                        let short = ctx.encode(&values).unwrap();
                        let full = ctx.encode(&padded(&values)).unwrap();
                        let plain = ctx.decode(&full, n);
                        let with = |f: &dyn Fn(u64, u64) -> u64| -> Vec<u64> {
                            ma.iter().zip(&plain).map(|(&x, &y)| f(x, y)).collect()
                        };
                        match choice {
                            4 => (
                                eval.add_plain(&sa, &short),
                                eval.add_plain(&fa, &full),
                                with(&|x, y| m.add(x, y)),
                            ),
                            5 => (
                                eval.sub_plain(&sa, &short),
                                eval.sub_plain(&fa, &full),
                                with(&|x, y| m.sub(x, y)),
                            ),
                            _ => (
                                eval.multiply_plain(&sa, &short),
                                eval.multiply_plain(&fa, &full),
                                with(&|x, y| m.mul(x, y)),
                            ),
                        }
                    }
                    _ => {
                        let step = steps[rng.gen_range(0..steps.len())];
                        let shift = step.rem_euclid(n as i64) as usize;
                        let model: Vec<u64> = (0..n).map(|i| ma[(i + shift) % n]).collect();
                        // Data moved from the bottom of the vector to its top.
                        if step > 0 && ma[..shift].iter().any(|&x| x != 0) {
                            wrapped_nonzero += 1;
                        }
                        let short = eval.rotate(&sa, step, &galois).unwrap();
                        if dec.decrypt_slots(&short).unwrap().len() < n {
                            kept_short += 1;
                        }
                        (short, eval.rotate(&fa, step, &galois).unwrap(), model)
                    }
                };
                let context = format!("k={limb_count} case {case} op {op} (kind {choice})");
                let (short, full, model) = &result;
                let short_plain = dec.decrypt(short).unwrap();
                assert_eq!(
                    &ctx.decode(&short_plain, n),
                    model,
                    "{context}: short vs model"
                );
                assert_eq!(dec.decrypt_slots(full).unwrap(), model, "{context}: padded");
                assert_eq!(short.payload(), full.payload(), "{context}: payload");
                assert_eq!(
                    short.noise_consumed_bits().to_bits(),
                    full.noise_consumed_bits().to_bits(),
                    "{context}: noise"
                );
                let slot = rng.gen_range(0..registers.len());
                registers[slot] = result;
            }
        }
        assert!(
            wrapped_nonzero >= CASES && kept_short >= CASES,
            "k={limb_count}: {wrapped_nonzero} rotations wrapped non-zero data,              {kept_short} stayed shorter than n — both paths must be exercised"
        );
    }
}

/// Key generation and encryption consume the seeded ChaCha8 stream in a
/// pinned order: the payload stripes of an encryptor's first two
/// ciphertexts and the first Galois key's key-switch polynomial fold
/// (FNV-1a over words) to the values recorded at the commit before the
/// generator went eight blocks wide and the draws went bulk. A merely
/// self-consistent stream (two encryptors agreeing with each other) would
/// not notice a reordering; this does.
#[test]
fn keygen_and_encryption_draw_the_recorded_stream() {
    fn fold(words: &[u64]) -> u64 {
        words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        })
    }
    let recorded: [(usize, [u64; 3]); 2] = [
        (
            1,
            [
                0xc7bb_3462_dc8b_f811,
                0xe1e1_e037_1d55_3ee8,
                0x8028_7f04_6c07_d041,
            ],
        ),
        (
            3,
            [
                0x45dc_9468_5c7a_8dc5,
                0x47f1_f6db_d321_fbd8,
                0x5b11_e3a5_835b_7ccd,
            ],
        ),
    ];
    let got = recorded.map(|(limb_count, _)| {
        let ctx =
            FheContext::new(BfvParameters::default_128().with_limb_count(limb_count)).unwrap();
        let mut keygen = KeyGenerator::new(ctx.params(), 7);
        let galois = keygen.galois_keys(&[3, 1]);
        let mut enc = Encryptor::new(&ctx, &keygen.public_key());
        let first = enc.encrypt_values(&[1, 2, 3]).unwrap();
        let second = enc.encrypt_values(&[4]).unwrap();
        let key = galois.switch_stripe(1).expect("step 1 was requested");
        let folds = [
            fold(first.payload().stripe()),
            fold(second.payload().stripe()),
            fold(key),
        ];
        (limb_count, folds)
    });
    assert_eq!(
        got, recorded,
        "(k, [first stripe, second stripe, Galois key for step 1]): got {got:#018x?}"
    );
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
