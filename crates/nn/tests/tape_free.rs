//! The tape-free forward pass is the taped one, bit for bit.
//!
//! Inference (`infer`, `forward` over a `Matrix`) and training (`encode`,
//! `forward` over a `Tensor`) run the same generic layer code over the same
//! `Matrix` kernels; what differs is that inference records nothing and the
//! Transformer's last layer computes only the `CLS` row. Every comparison is
//! on `f32::to_bits`, never within a tolerance: compile-time rollouts take an
//! arg-max over these numbers and must not depend on which path ran.

use chehab_nn::{
    Activation, GruEncoder, Matrix, Mlp, Tensor, TransformerConfig, TransformerEncoder,
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
        for ids in sequences(&mut rng) {
            let taped = encoder.encode(&ids).value();
            let inferred = encoder.infer(&ids);
            assert_eq!((inferred.rows(), inferred.cols()), (1, 16));
            assert_eq!(
                bits(&inferred),
                bits(&taped),
                "{num_layers} layers, {num_heads} heads, {} tokens",
                ids.len()
            );
        }
    }
}

#[test]
fn gru_inference_is_bit_identical_to_the_taped_forward() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for num_layers in [1, 2] {
        let encoder = GruEncoder::new(VOCAB, 12, num_layers, MAX_LEN, &mut rng);
        for ids in sequences(&mut rng) {
            assert_eq!(
                bits(&encoder.infer(&ids)),
                bits(&encoder.encode(&ids).value()),
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
            let taped = mlp.forward(&Tensor::constant(input.clone())).value();
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
    use chehab_nn::Module;
    for p in encoder.parameters() {
        let (r, c) = p.shape();
        p.apply_update(&Matrix::full(r, c, 0.01));
    }
    let after = encoder.infer(&ids);
    assert_ne!(bits(&before), bits(&after));
    assert_eq!(bits(&after), bits(&encoder.encode(&ids).value()));
}
