//! A gated recurrent unit (GRU) sequence encoder: the baseline architecture
//! the Transformer encoder is compared against in Appendix I.1.

use crate::forward::Forward;
use crate::layers::{Linear, Module};
use crate::matrix::Matrix;
use crate::tensor::{Tape, Tensor, Var};
use rand::Rng;

/// A single-direction, single-layer GRU followed by optional stacking.
#[derive(Debug)]
pub struct GruEncoder {
    vocab_size: usize,
    hidden_dim: usize,
    max_len: usize,
    embedding: Tensor,
    layers: Vec<GruLayer>,
}

#[derive(Debug)]
struct GruLayer {
    update_x: Linear,
    update_h: Linear,
    reset_x: Linear,
    reset_h: Linear,
    candidate_x: Linear,
    candidate_h: Linear,
    hidden_dim: usize,
}

impl GruLayer {
    fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        GruLayer {
            update_x: Linear::new(input_dim, hidden_dim, rng),
            update_h: Linear::new(hidden_dim, hidden_dim, rng),
            reset_x: Linear::new(input_dim, hidden_dim, rng),
            reset_h: Linear::new(hidden_dim, hidden_dim, rng),
            candidate_x: Linear::new(input_dim, hidden_dim, rng),
            candidate_h: Linear::new(hidden_dim, hidden_dim, rng),
            hidden_dim,
        }
    }

    /// One GRU step: `h_t = (1 - z) ⊙ h_{t-1} + z ⊙ h̃`.
    fn step<V: Forward>(&self, x: &V, h: &V) -> V {
        let z = self
            .update_x
            .forward(x)
            .add(&self.update_h.forward(h))
            .sigmoid();
        let r = self
            .reset_x
            .forward(x)
            .add(&self.reset_h.forward(h))
            .sigmoid();
        let candidate = self
            .candidate_x
            .forward(x)
            .add(&self.candidate_h.forward(&r.mul(h)))
            .tanh();
        let ones = V::constant(x.tape(), Matrix::full(1, self.hidden_dim, 1.0));
        ones.sub(&z).mul(h).add(&z.mul(&candidate))
    }

    /// Runs the layer over a sequence of `1 × input_dim` values and returns
    /// every hidden state.
    fn run<V: Forward>(&self, on: V::Tape, inputs: &[V]) -> Vec<V> {
        let mut h = V::constant(on, Matrix::zeros(1, self.hidden_dim));
        let mut outputs = Vec::with_capacity(inputs.len());
        for x in inputs {
            h = self.step(x, &h);
            outputs.push(h.clone());
        }
        outputs
    }
}

impl Module for GruLayer {
    fn parameters(&self) -> Vec<Tensor> {
        [
            &self.update_x,
            &self.update_h,
            &self.reset_x,
            &self.reset_h,
            &self.candidate_x,
            &self.candidate_h,
        ]
        .iter()
        .flat_map(|l| l.parameters())
        .collect()
    }
}

impl GruEncoder {
    /// Creates a GRU encoder with `num_layers` stacked layers.
    pub fn new(
        vocab_size: usize,
        hidden_dim: usize,
        num_layers: usize,
        max_len: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let embedding = Tensor::parameter(Matrix::xavier(vocab_size, hidden_dim, rng));
        let layers = (0..num_layers.max(1))
            .map(|_| GruLayer::new(hidden_dim, hidden_dim, rng))
            .collect();
        GruEncoder {
            vocab_size,
            hidden_dim,
            max_len,
            embedding,
            layers,
        }
    }

    /// The embedded tokens, one `1 × hidden_dim` value per position.
    fn embed<V: Forward>(&self, on: V::Tape, token_ids: &[usize]) -> Vec<V> {
        let ids: Vec<usize> = token_ids
            .iter()
            .copied()
            .take(self.max_len)
            .map(|id| id.min(self.vocab_size - 1))
            .collect();
        let embedded = V::gather_rows(&V::param(on, &self.embedding), &ids);
        (0..ids.len()).map(|r| embedded.row(r)).collect()
    }

    /// Per-token hidden states of the final layer (`seq_len × hidden_dim`).
    pub fn encode_sequence<'t>(&self, tape: &'t Tape, token_ids: &[usize]) -> Var<'t> {
        let mut outputs = self.embed(tape, token_ids);
        for layer in &self.layers {
            outputs = layer.run(tape, &outputs);
        }
        stack_rows(&outputs)
    }

    /// The final hidden state of the last layer.
    fn last_hidden<V: Forward>(&self, on: V::Tape, token_ids: &[usize]) -> V {
        let mut inputs: Vec<V> = self.embed(on, token_ids);
        let mut last = V::constant(on, Matrix::zeros(1, self.hidden_dim));
        for layer in &self.layers {
            let outputs = layer.run(on, &inputs);
            last = outputs.last().cloned().unwrap_or(last);
            inputs = outputs;
        }
        last
    }

    /// Fixed-length program embedding, recorded on `tape`: the final hidden
    /// state of the last layer.
    pub fn encode<'t>(&self, tape: &'t Tape, token_ids: &[usize]) -> Var<'t> {
        self.last_hidden(tape, token_ids)
    }

    /// The value of [`GruEncoder::encode`], bit for bit, without a tape.
    pub fn infer(&self, token_ids: &[usize]) -> Matrix {
        self.last_hidden((), token_ids)
    }
}

/// Stacks `1 × d` values into an `n × d` value while preserving gradient
/// flow: row `i` is placed through a constant one-hot selector so that
/// `stack = Σ_i selector_i · row_i`.
fn stack_rows<'t>(rows: &[Var<'t>]) -> Var<'t> {
    assert!(!rows.is_empty(), "cannot stack zero rows");
    let n = rows.len();
    let mut acc: Option<Var<'t>> = None;
    for (i, row) in rows.iter().enumerate() {
        let mut selector = Matrix::zeros(n, 1);
        selector.set(i, 0, 1.0);
        let placed = row.tape().constant(selector).matmul(row);
        acc = Some(match acc {
            None => placed,
            Some(prev) => prev.add(&placed),
        });
    }
    acc.expect("rows is non-empty")
}

impl Module for GruEncoder {
    fn parameters(&self) -> Vec<Tensor> {
        let mut params = vec![self.embedding.clone()];
        for layer in &self.layers {
            params.extend(layer.parameters());
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn encoder(seed: u64) -> GruEncoder {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        GruEncoder::new(16, 24, 2, 64, &mut rng)
    }

    #[test]
    fn encoding_produces_a_fixed_length_vector() {
        let enc = encoder(1);
        let tape = Tape::new();
        assert_eq!(enc.encode(&tape, &[1, 2, 3]).shape(), (1, 24));
        assert_eq!(enc.encode(&tape, &[1; 40]).shape(), (1, 24));
        assert_eq!(enc.hidden_dim, 24);
    }

    #[test]
    fn encoding_is_order_sensitive() {
        let enc = encoder(2);
        assert_ne!(enc.infer(&[1, 2, 3, 4]), enc.infer(&[4, 3, 2, 1]));
    }

    #[test]
    fn gradients_flow_through_the_recurrence() {
        let enc = encoder(3);
        enc.zero_grad();
        enc.encode(&Tape::new(), &[1, 2, 3, 4, 5]).mean().backward();
        let grads_nonzero = enc
            .parameters()
            .iter()
            .filter(|p| p.borrow_grad().norm() > 0.0)
            .count();
        assert!(grads_nonzero > enc.parameters().len() / 2);
    }

    #[test]
    fn sequence_encoding_has_one_row_per_token() {
        let enc = encoder(4);
        let tape = Tape::new();
        let out = enc.encode_sequence(&tape, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(out.shape(), (6, 24));
    }
}
