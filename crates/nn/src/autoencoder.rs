//! Sequence autoencoders for the encoder-architecture ablation
//! (Appendix I.1, Figure 11, Table 7).
//!
//! The encoder (Transformer or GRU) pools a token sequence into a
//! fixed-length embedding; a shared non-autoregressive decoder then predicts
//! the token at every position from the pooled embedding plus a positional
//! code. Reconstruction accuracy measures how much structural information the
//! encoder preserves — the criterion the paper uses to select the
//! Transformer for the RL state representation.

use crate::encoder::SequenceEncoder;
use crate::forward::Forward;
use crate::gru::GruEncoder;
use crate::layers::{Activation, Mlp, Module};
use crate::matrix::Matrix;
use crate::optim::Adam;
use crate::tensor::{Tape, Tensor, Var};
use crate::transformer::{positional_encoding, TransformerConfig, TransformerEncoder};
use rand::Rng;

/// Which encoder architecture an autoencoder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// Self-attention encoder (the paper's choice).
    Transformer,
    /// Recurrent (GRU) encoder baseline.
    Gru,
}

/// A sequence autoencoder: encoder + positional decoder.
pub struct SequenceAutoencoder {
    encoder: SequenceEncoder,
    decoder: Mlp,
    positional: Matrix,
    vocab_size: usize,
    max_len: usize,
    pad_id: usize,
}

/// Reconstruction quality over a corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionAccuracy {
    /// Fraction of sequences reconstructed exactly.
    pub exact_match: f64,
    /// Fraction of individual tokens reconstructed correctly.
    pub token_accuracy: f64,
}

impl SequenceAutoencoder {
    /// Builds an autoencoder around a Transformer encoder.
    pub fn transformer(config: TransformerConfig, pad_id: usize, rng: &mut impl Rng) -> Self {
        let dim = config.model_dim;
        let vocab_size = config.vocab_size;
        let max_len = config.max_len;
        let encoder = TransformerEncoder::new(config, rng);
        Self::with_encoder(
            SequenceEncoder::Transformer(encoder),
            vocab_size,
            dim,
            max_len,
            pad_id,
            rng,
        )
    }

    /// Builds an autoencoder around a GRU encoder with matching capacity.
    pub fn gru(
        vocab_size: usize,
        hidden_dim: usize,
        num_layers: usize,
        max_len: usize,
        pad_id: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let encoder = GruEncoder::new(vocab_size, hidden_dim, num_layers, max_len, rng);
        Self::with_encoder(
            SequenceEncoder::Gru(encoder),
            vocab_size,
            hidden_dim,
            max_len,
            pad_id,
            rng,
        )
    }

    fn with_encoder(
        encoder: SequenceEncoder,
        vocab_size: usize,
        dim: usize,
        max_len: usize,
        pad_id: usize,
        rng: &mut impl Rng,
    ) -> Self {
        SequenceAutoencoder {
            encoder,
            decoder: Mlp::new(&[2 * dim, 2 * dim, vocab_size], Activation::Relu, rng),
            positional: positional_encoding(max_len, dim),
            vocab_size,
            max_len,
            pad_id,
        }
    }

    /// Which encoder kind this autoencoder uses.
    pub fn kind(&self) -> EncoderKind {
        match self.encoder {
            SequenceEncoder::Transformer(_) => EncoderKind::Transformer,
            SequenceEncoder::Gru(_) => EncoderKind::Gru,
        }
    }

    fn truncate<'a>(&self, ids: &'a [usize]) -> &'a [usize] {
        &ids[..ids.len().min(self.max_len)]
    }

    /// Per-position vocabulary logits (`len × vocab`).
    fn decode_logits<V: Forward>(&self, pooled: &V, len: usize) -> V {
        let ones = V::constant(pooled.tape(), Matrix::full(len, 1, 1.0));
        let broadcast = ones.matmul(pooled);
        let pos = self.positional.gather_rows(&(0..len).collect::<Vec<_>>());
        let decoder_input = V::concat_cols(&[broadcast, V::constant(pooled.tape(), pos)]);
        self.decoder.forward(&decoder_input)
    }

    /// Reconstruction loss (cross-entropy per position) for one sequence,
    /// recorded on `tape`.
    pub fn reconstruction_loss<'t>(&self, tape: &'t Tape, ids: &[usize]) -> Var<'t> {
        let ids = self.truncate(ids);
        let pooled = self.encoder.encode(tape, ids);
        let logits = self.decode_logits(&pooled, ids.len());
        logits.cross_entropy(ids, Some(self.pad_id))
    }

    /// Greedy reconstruction of a sequence (tape-free).
    pub fn reconstruct(&self, ids: &[usize]) -> Vec<usize> {
        let ids = self.truncate(ids);
        self.decode_logits(&self.encoder.infer(ids), ids.len())
            .argmax_rows()
    }

    /// Trains the autoencoder on a corpus for a number of epochs; returns the
    /// mean loss of the final epoch.
    pub fn fit(&mut self, corpus: &[Vec<usize>], epochs: usize, learning_rate: f32) -> f32 {
        let mut optimizer = Adam::new(self.parameters(), learning_rate);
        let mut tape = Tape::new();
        let mut last_mean = f32::INFINITY;
        for _ in 0..epochs {
            let mut total = 0.0;
            for ids in corpus {
                if ids.is_empty() {
                    continue;
                }
                tape.clear();
                self.zero_grad();
                let loss = self.reconstruction_loss(&tape, ids);
                total += loss.get(0, 0);
                loss.backward();
                optimizer.step();
            }
            last_mean = total / corpus.len().max(1) as f32;
        }
        last_mean
    }

    /// Evaluates exact-match and token-level reconstruction accuracy.
    pub fn evaluate(&self, corpus: &[Vec<usize>]) -> ReconstructionAccuracy {
        let mut exact = 0usize;
        let mut token_correct = 0usize;
        let mut token_total = 0usize;
        for ids in corpus {
            let truth = self.truncate(ids);
            if truth.is_empty() {
                continue;
            }
            let predicted = self.reconstruct(truth);
            let mut all_match = true;
            for (t, p) in truth.iter().zip(&predicted) {
                if *t == self.pad_id {
                    continue;
                }
                token_total += 1;
                if t == p {
                    token_correct += 1;
                } else {
                    all_match = false;
                }
            }
            if all_match {
                exact += 1;
            }
        }
        ReconstructionAccuracy {
            exact_match: exact as f64 / corpus.len().max(1) as f64,
            token_accuracy: token_correct as f64 / token_total.max(1) as f64,
        }
    }

    /// The vocabulary size the autoencoder was built for.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }
}

impl Module for SequenceAutoencoder {
    fn parameters(&self) -> Vec<Tensor> {
        let mut params = self.encoder.parameters();
        params.extend(self.decoder.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_corpus() -> Vec<Vec<usize>> {
        vec![
            vec![1, 2, 3, 4],
            vec![4, 3, 2, 1],
            vec![1, 3, 1, 3],
            vec![2, 2, 4, 4],
            vec![1, 4, 2, 3],
            vec![3, 1, 4, 2],
        ]
    }

    #[test]
    fn transformer_autoencoder_learns_to_reconstruct_a_tiny_corpus() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = TransformerConfig {
            vocab_size: 6,
            model_dim: 24,
            num_heads: 2,
            num_layers: 1,
            ffn_dim: 48,
            max_len: 8,
        };
        let mut ae = SequenceAutoencoder::transformer(config, 0, &mut rng);
        assert_eq!(ae.kind(), EncoderKind::Transformer);
        let corpus = tiny_corpus();
        let before = ae.evaluate(&corpus);
        ae.fit(&corpus, 120, 5e-3);
        let after = ae.evaluate(&corpus);
        assert!(
            after.token_accuracy > before.token_accuracy.max(0.8),
            "token accuracy did not improve enough: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn gru_autoencoder_trains_and_evaluates() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ae = SequenceAutoencoder::gru(6, 24, 1, 8, 0, &mut rng);
        assert_eq!(ae.kind(), EncoderKind::Gru);
        let corpus = tiny_corpus();
        let loss = ae.fit(&corpus, 40, 5e-3);
        assert!(loss.is_finite());
        let acc = ae.evaluate(&corpus);
        assert!(
            acc.token_accuracy > 0.2,
            "GRU autoencoder should beat random guessing"
        );
    }

    #[test]
    fn reconstruction_has_the_input_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = TransformerConfig::small(8);
        let ae = SequenceAutoencoder::transformer(config, 0, &mut rng);
        assert_eq!(ae.reconstruct(&[1, 2, 3, 4, 5]).len(), 5);
        assert_eq!(ae.vocab_size(), 8);
    }

    #[test]
    fn padding_positions_do_not_count_towards_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = TransformerConfig::small(8);
        let ae = SequenceAutoencoder::transformer(config, 0, &mut rng);
        let acc = ae.evaluate(&[vec![0, 0, 0, 0]]);
        assert_eq!(
            acc.token_accuracy, 0.0,
            "all-padding sequences contribute no tokens"
        );
    }
}
