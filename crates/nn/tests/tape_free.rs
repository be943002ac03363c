//! The tape-free forward pass is the taped one, and the `CLS`-row shortcut
//! is the all-rows encoder, bit for bit.
//!
//! Inference (`infer`, `forward` over a `Matrix`) and training (`encode`,
//! `forward` over a `Var` on a `Tape`) run the same generic layer code over
//! the same kernels; inference records nothing, and both compute only the
//! `CLS` row of the Transformer's last layer. The reference for both is
//! `encode_sequence(ids).row(0)`: every position through every layer, on the
//! tape. Every comparison is on `f32::to_bits`, never within a tolerance:
//! compile-time rollouts take an arg-max over these numbers, and the trained
//! weights must not depend on which path ran.
//!
//! A compile also keeps the Transformer's first-layer rows per (token id,
//! position) across the observations it evaluates (`EncoderRows`): one
//! table serving every sequence below must give each of them the same bits.

use chehab_nn::{
    Activation, EncoderRows, Forward, GruEncoder, Matrix, Mlp, Module, Tape, TransformerConfig,
    TransformerEncoder, Var,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 24;
const MAX_LEN: usize = 20;
const PAD: usize = 0;

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Token sequences around every edge of the encoders' input handling.
fn sequences(rng: &mut ChaCha8Rng) -> Vec<Vec<usize>> {
    let random = |rng: &mut ChaCha8Rng, len: usize| -> Vec<usize> {
        (0..len).map(|_| rng.gen_range(0..VOCAB)).collect()
    };
    let mut out = vec![
        vec![3],
        vec![PAD; MAX_LEN],
        // Out-of-vocabulary ids are clamped to the last row of the table.
        vec![VOCAB, 7, usize::MAX, 2, VOCAB + 100],
    ];
    for len in [2, 5, MAX_LEN - 1, MAX_LEN, MAX_LEN + 1, 3 * MAX_LEN] {
        out.push(random(rng, len));
    }
    // A padded observation: tokens, then padding up to the fixed length.
    let mut padded = random(rng, 6);
    padded.resize(MAX_LEN, PAD);
    out.push(padded);
    out
}

#[test]
fn transformer_inference_is_bit_identical_to_the_taped_forward() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for (num_layers, num_heads) in [(1, 2), (1, 4), (2, 2), (2, 4)] {
        let encoder = TransformerEncoder::new(
            TransformerConfig {
                vocab_size: VOCAB,
                model_dim: 16,
                num_heads,
                num_layers,
                ffn_dim: 32,
                max_len: MAX_LEN,
            },
            &mut rng,
        );
        // One table for the whole gallery, as for one compile's observations.
        let mut rows = EncoderRows::new();
        for ids in sequences(&mut rng) {
            let what = format!(
                "{num_layers} layers, {num_heads} heads, {} tokens",
                ids.len()
            );
            // The gradients a squared loss on the pooled row leaves on every
            // parameter, next to the pooled value itself.
            let tape = Tape::new();
            let train = |pooled: Var<'_>| {
                encoder.zero_grad();
                pooled.mul(&pooled).mean().backward();
                let grads: Vec<Vec<u32>> = encoder
                    .parameters()
                    .iter()
                    .map(|p| bits(&p.borrow_grad()))
                    .collect();
                (bits(&pooled.value()), grads)
            };
            let (all_rows, all_rows_grads) = train(encoder.encode_sequence(&tape, &ids).row(0));
            let (cls_row, cls_row_grads) = train(encoder.encode(&tape, &ids));
            let inferred = encoder.infer(&ids);
            assert_eq!((inferred.rows(), inferred.cols()), (1, 16));
            assert_eq!(bits(&inferred), all_rows, "{what}: infer");
            let from_table = encoder.infer_with(&mut rows, &ids);
            assert_eq!(bits(&from_table), all_rows, "{what}: infer_with");
            assert_eq!(cls_row, all_rows, "{what}: encode");
            assert_eq!(cls_row_grads, all_rows_grads, "{what}: gradients");
        }
        // Every sequence again, now that the table holds every row of it.
        let computed = rows.computed();
        for ids in sequences(&mut ChaCha8Rng::seed_from_u64(11)) {
            let reference = encoder.encode(&Tape::new(), &ids).value();
            assert_eq!(
                bits(&encoder.infer_with(&mut rows, &ids)),
                bits(&reference),
                "{num_layers} layers, {num_heads} heads, {} tokens: from a full table",
                ids.len()
            );
        }
        assert!(computed > 0);
    }
}

#[test]
fn a_row_table_computes_each_token_at_each_position_once() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let encoder = TransformerEncoder::new(
        TransformerConfig {
            max_len: MAX_LEN,
            ..TransformerConfig::small(VOCAB)
        },
        &mut rng,
    );
    let mut rows = EncoderRows::new();
    let gallery = sequences(&mut rng);
    let mut distinct = std::collections::HashSet::new();
    for ids in &gallery {
        encoder.infer_with(&mut rows, ids);
        let clamped = ids.iter().map(|&id| id.min(VOCAB - 1));
        distinct.extend(clamped.take(encoder.config().max_len).enumerate());
        assert_eq!(rows.computed(), distinct.len());
    }
    for ids in &gallery {
        encoder.infer_with(&mut rows, ids);
    }
    assert_eq!(
        rows.computed(),
        distinct.len(),
        "a second pass computes nothing"
    );
}

#[test]
fn gru_inference_is_bit_identical_to_the_taped_forward() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for num_layers in [1, 2] {
        let encoder = GruEncoder::new(VOCAB, 12, num_layers, MAX_LEN, &mut rng);
        for ids in sequences(&mut rng) {
            assert_eq!(
                bits(&encoder.infer(&ids)),
                bits(&encoder.encode(&Tape::new(), &ids).value()),
                "{num_layers} layers, {} tokens",
                ids.len()
            );
        }
    }
}

#[test]
fn mlp_inference_is_bit_identical_to_the_taped_forward() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    for activation in [Activation::Relu, Activation::Tanh, Activation::Identity] {
        let mlp = Mlp::new(&[16, 32, 8, 5], activation, &mut rng);
        for rows in [1, 3] {
            let input = Matrix::xavier(rows, 16, &mut rng);
            let taped = mlp.forward(&Tape::new().constant(input.clone())).value();
            assert_eq!(bits(&mlp.forward(&input)), bits(&taped), "{activation:?}");
        }
    }
}

#[test]
fn inference_follows_the_weights_it_borrows() {
    // Nothing is cached between calls: an optimizer step shows up in the very
    // next inference, exactly as it does on the tape.
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let encoder = TransformerEncoder::new(TransformerConfig::small(VOCAB), &mut rng);
    let ids = [1usize, 2, 3, 4];
    let before = encoder.infer(&ids);
    for p in encoder.parameters() {
        p.set_value(p.value().map(|v| v + 0.01));
    }
    let after = encoder.infer(&ids);
    assert_ne!(bits(&before), bits(&after));
    assert_eq!(
        bits(&after),
        bits(&encoder.encode(&Tape::new(), &ids).value())
    );
    // A row table holds rows of the weights it was filled under; a table
    // made after the step follows the new weights.
    assert_eq!(
        bits(&encoder.infer_with(&mut EncoderRows::new(), &ids)),
        bits(&after)
    );
}
