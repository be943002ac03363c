//! The Transformer encoder used for program state representation
//! (Section 5.1): token embeddings plus sinusoidal positional encodings,
//! a stack of identical self-attention layers, and `CLS` pooling into a
//! fixed-length program embedding.

use crate::forward::Forward;
use crate::layers::{LayerNorm, Linear, Module};
use crate::matrix::Matrix;
use crate::tensor::{Tape, Tensor, Var};
use rand::Rng;

/// Configuration of the Transformer encoder.
///
/// The paper's configuration is 4 layers, 8 heads, and a 256-dimensional
/// embedding; [`TransformerConfig::small`] gives a budget-friendly variant
/// used by the scaled-down experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size of the token embedding table.
    pub vocab_size: usize,
    /// Embedding / model dimension.
    pub model_dim: usize,
    /// Number of attention heads (must divide `model_dim`).
    pub num_heads: usize,
    /// Number of stacked encoder layers.
    pub num_layers: usize,
    /// Hidden dimension of the position-wise feed-forward network.
    pub ffn_dim: usize,
    /// Maximum sequence length (positional encodings are precomputed).
    pub max_len: usize,
}

impl TransformerConfig {
    /// The configuration described in the paper: 4 layers, 8 heads, 256-d.
    pub fn paper(vocab_size: usize) -> Self {
        TransformerConfig {
            vocab_size,
            model_dim: 256,
            num_heads: 8,
            num_layers: 4,
            ffn_dim: 512,
            max_len: 256,
        }
    }

    /// A small configuration for fast training in tests and the scaled-down
    /// experiment harness.
    pub fn small(vocab_size: usize) -> Self {
        TransformerConfig {
            vocab_size,
            model_dim: 32,
            num_heads: 4,
            num_layers: 2,
            ffn_dim: 64,
            max_len: 96,
        }
    }
}

/// Sinusoidal positional encodings (fixed, not learned).
pub(crate) fn positional_encoding(max_len: usize, dim: usize) -> Matrix {
    let mut pe = Matrix::zeros(max_len, dim);
    for pos in 0..max_len {
        for i in 0..dim {
            let angle = pos as f32 / 10_000f32.powf((2 * (i / 2)) as f32 / dim as f32);
            pe.set(pos, i, if i % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    pe
}

/// Multi-head scaled dot-product self-attention.
#[derive(Debug)]
struct MultiHeadAttention {
    query: Linear,
    key: Linear,
    value: Linear,
    output: Linear,
    num_heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    fn new(model_dim: usize, num_heads: usize, rng: &mut impl Rng) -> Self {
        assert_eq!(
            model_dim % num_heads,
            0,
            "model_dim must be divisible by num_heads"
        );
        MultiHeadAttention {
            query: Linear::new(model_dim, model_dim, rng),
            key: Linear::new(model_dim, model_dim, rng),
            value: Linear::new(model_dim, model_dim, rng),
            output: Linear::new(model_dim, model_dim, rng),
            num_heads,
            head_dim: model_dim / num_heads,
        }
    }

    /// Attention of the `queries` rows over every row of `context`: one
    /// output row per query row.
    fn forward<V: Forward>(&self, queries: &V, context: &V) -> V {
        let q = self.query.forward(queries);
        let k = self.key.forward(context);
        let v = self.value.forward(context);
        self.attend(&q, &k, &v)
    }

    /// Attention over projected rows: query rows `q`, key rows `k` and value
    /// rows `v`.
    fn attend<V: Forward>(&self, q: &V, k: &V, v: &V) -> V {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut heads = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let (start, end) = (h * self.head_dim, (h + 1) * self.head_dim);
            let qh = q.slice_cols(start, end);
            let kh = k.slice_cols(start, end);
            let vh = v.slice_cols(start, end);
            let scores = qh.matmul_nt(&kh).scale(scale).softmax_rows();
            heads.push(scores.matmul(&vh));
        }
        self.output.forward(&V::concat_cols(&heads))
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<Tensor> {
        [&self.query, &self.key, &self.value, &self.output]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

/// One pre-norm Transformer encoder layer: self-attention and feed-forward,
/// each with a residual connection.
#[derive(Debug)]
struct EncoderLayer {
    attention: MultiHeadAttention,
    norm1: LayerNorm,
    norm2: LayerNorm,
    ffn_in: Linear,
    ffn_out: Linear,
}

impl EncoderLayer {
    fn new(config: &TransformerConfig, rng: &mut impl Rng) -> Self {
        EncoderLayer {
            attention: MultiHeadAttention::new(config.model_dim, config.num_heads, rng),
            norm1: LayerNorm::new(config.model_dim),
            norm2: LayerNorm::new(config.model_dim),
            ffn_in: Linear::new(config.model_dim, config.ffn_dim, rng),
            ffn_out: Linear::new(config.ffn_dim, config.model_dim, rng),
        }
    }

    /// The layer's output for every position, or — `cls_only` — for
    /// position 0 alone: keys and values still come from every position, but
    /// queries, residuals and the feed-forward block are all row-wise, so
    /// only the row that is kept is computed (with the same arithmetic).
    fn forward<V: Forward>(&self, x: &V, cls_only: bool) -> V {
        let normed = self.norm1.forward(x);
        let cls = cls_only.then(|| (x.row(0), normed.row(0)));
        let (x, queries) = cls.as_ref().map_or((x, &normed), |(x, q)| (x, q));
        self.feed_forward(x, &self.attention.forward(queries, &normed))
    }

    /// The rest of the layer once its input rows `x` have `attended`: the
    /// residual, then the feed-forward block with its residual.
    fn feed_forward<V: Forward>(&self, x: &V, attended: &V) -> V {
        let x = x.add(attended);
        let ffn = self
            .ffn_out
            .forward(&self.ffn_in.forward(&self.norm2.forward(&x)).relu());
        x.add(&ffn)
    }
}

impl Module for EncoderLayer {
    fn parameters(&self) -> Vec<Tensor> {
        let mut params = self.attention.parameters();
        params.extend(self.norm1.parameters());
        params.extend(self.norm2.parameters());
        params.extend(self.ffn_in.parameters());
        params.extend(self.ffn_out.parameters());
        params
    }
}

/// The full Transformer encoder: embedding, positional encoding, a stack of
/// encoder layers, and `CLS` pooling.
#[derive(Debug)]
pub struct TransformerEncoder {
    config: TransformerConfig,
    embedding: Tensor,
    positional: Matrix,
    layers: Vec<EncoderLayer>,
    final_norm: LayerNorm,
}

impl TransformerEncoder {
    /// Creates an encoder with Xavier-initialized parameters.
    pub fn new(config: TransformerConfig, rng: &mut impl Rng) -> Self {
        let embedding = Tensor::parameter(Matrix::xavier(config.vocab_size, config.model_dim, rng));
        let positional = positional_encoding(config.max_len, config.model_dim);
        let layers = (0..config.num_layers)
            .map(|_| EncoderLayer::new(&config, rng))
            .collect();
        TransformerEncoder {
            config,
            embedding,
            positional,
            layers,
            final_norm: LayerNorm::new(config.model_dim),
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// The ids the encoder reads of a sequence: truncated to `max_len`, each
    /// clamped to the vocabulary.
    fn clamped(&self, token_ids: &[usize]) -> Vec<usize> {
        token_ids
            .iter()
            .copied()
            .take(self.config.max_len)
            .map(|id| id.min(self.config.vocab_size - 1))
            .collect()
    }

    /// The encoder stack over a token-id sequence; with `cls_only` the last
    /// layer (and so the final norm) keeps position 0 only.
    fn run<V: Forward>(&self, on: V::Tape, token_ids: &[usize], cls_only: bool) -> V {
        let ids = self.clamped(token_ids);
        let embedded = V::gather_rows(&V::param(on, &self.embedding), &ids);
        let pos = self
            .positional
            .gather_rows(&(0..ids.len()).collect::<Vec<_>>());
        let mut h = embedded.add(&V::constant(on, pos));
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h, cls_only && i + 1 == self.layers.len());
        }
        self.final_norm.forward(&h)
    }

    /// Encodes a token-id sequence into per-token representations
    /// (`seq_len × model_dim`), every position through every layer.
    /// Sequences longer than `max_len` are truncated.
    pub fn encode_sequence<'t>(&self, tape: &'t Tape, token_ids: &[usize]) -> Var<'t> {
        self.run(tape, token_ids, false)
    }

    /// Encodes a sequence and pools it into the fixed-length program
    /// embedding (the representation of the `CLS` token at position 0),
    /// recorded on `tape`. Pooling reads row 0 and the last layer is row-wise
    /// everywhere but in its keys and values, so only that row of it is
    /// computed: value and parameter gradients are those of
    /// `encode_sequence(..).row(0)`, bit for bit (the other rows' gradient is
    /// exactly zero there).
    pub fn encode<'t>(&self, tape: &'t Tape, token_ids: &[usize]) -> Var<'t> {
        self.run::<Var<'t>>(tape, token_ids, true).row(0)
    }

    /// The value of [`TransformerEncoder::encode`], bit for bit, without a
    /// tape.
    pub fn infer(&self, token_ids: &[usize]) -> Matrix {
        self.run::<Matrix>((), token_ids, true).row(0)
    }

    /// [`TransformerEncoder::infer`], bit for bit, reading the first layer's
    /// rows from `rows` where an earlier call under the same weights
    /// computed them. The rows this sequence is the first to need are
    /// computed in one batch and kept there.
    pub fn infer_with(&self, rows: &mut EncoderRows, token_ids: &[usize]) -> Matrix {
        let Some((first, rest)) = self.layers.split_first() else {
            return self.infer(token_ids);
        };
        let slots = rows.slots(self, &self.clamped(token_ids));
        let (key, value) = (rows.key.gather(&slots), rows.value.gather(&slots));
        let (input, query) = if rest.is_empty() {
            // The only layer is the last one: its `CLS` row alone goes on.
            let input = rows.input.gather(&slots[..1]);
            let query = (first.attention.query).forward(&first.norm1.forward(&input));
            (input, query)
        } else {
            (rows.input.gather(&slots), rows.query.gather(&slots))
        };
        let mut h = first.feed_forward(&input, &first.attention.attend(&query, &key, &value));
        for (i, layer) in rest.iter().enumerate() {
            h = layer.forward(&h, i + 1 == rest.len());
        }
        self.final_norm.forward(&h).row(0)
    }
}

/// A slot of [`EncoderRows`] nothing has filled.
const MISSING: u32 = u32::MAX;

/// Rows of one width, appended one after another.
#[derive(Debug, Default)]
struct RowStore {
    width: usize,
    data: Vec<f32>,
}

impl RowStore {
    fn push(&mut self, rows: &Matrix) {
        self.width = rows.cols();
        self.data.extend_from_slice(rows.data());
    }

    /// The rows at `slots`, in that order.
    fn gather(&self, slots: &[u32]) -> Matrix {
        let mut data = Vec::with_capacity(slots.len() * self.width);
        for &slot in slots {
            data.extend_from_slice(&self.data[slot as usize * self.width..][..self.width]);
        }
        Matrix::from_vec(slots.len(), self.width, data)
    }
}

/// The first Transformer layer's rows, kept per (token id, position).
///
/// Before attention mixes positions, a row of the first layer — the token's
/// embedding plus its positional encoding, and that row's key, value and (in
/// a stack of more than one layer) query projections — is a function of its
/// token id and position alone, and every kernel computes a row the same way
/// whatever other rows it is computed with. So a row computed for one
/// sequence is the row another sequence needs at the same (id, position),
/// bit for bit. [`TransformerEncoder::infer_with`] looks each row up here and
/// computes only the missing ones.
///
/// A table holds rows of one encoder under the weights it had when they were
/// computed: make a new one for another encoder, or once the weights change.
/// Nothing else keeps rows between calls.
#[derive(Debug, Default)]
pub struct EncoderRows {
    /// Per `id * max_len + position`, the row's index in the stores, or
    /// [`MISSING`]. Sized by the first encoder that uses the table.
    slots: Vec<u32>,
    input: RowStore,
    key: RowStore,
    value: RowStore,
    /// Empty in a one-layer encoder, whose query is its `CLS` row's alone.
    query: RowStore,
    computed: usize,
}

impl EncoderRows {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// First-layer rows computed into this table so far: one per distinct
    /// (clamped token id, position) among the sequences it served.
    pub fn computed(&self) -> usize {
        self.computed
    }

    /// The index of each position's row, computing the missing ones in one
    /// batch. `encoder` has at least one layer.
    fn slots(&mut self, encoder: &TransformerEncoder, ids: &[usize]) -> Vec<u32> {
        let (first, queries) = (&encoder.layers[0], encoder.layers.len() > 1);
        let config = encoder.config;
        let cells = config.vocab_size * config.max_len;
        if self.slots.is_empty() {
            self.slots = vec![MISSING; cells];
        }
        assert_eq!(self.slots.len(), cells, "rows of another encoder");
        let cell = |position: usize, id: usize| id * config.max_len + position;
        let missing: Vec<usize> = (0..ids.len())
            .filter(|&p| self.slots[cell(p, ids[p])] == MISSING)
            .collect();
        if !missing.is_empty() {
            let missing_ids: Vec<usize> = missing.iter().map(|&p| ids[p]).collect();
            let input = (encoder.embedding.borrow_value().gather_rows(&missing_ids))
                .add(&encoder.positional.gather_rows(&missing));
            let normed = first.norm1.forward(&input);
            self.input.push(&input);
            self.key.push(&first.attention.key.forward(&normed));
            self.value.push(&first.attention.value.forward(&normed));
            if queries {
                self.query.push(&first.attention.query.forward(&normed));
            }
            for &p in &missing {
                self.slots[cell(p, ids[p])] =
                    u32::try_from(self.computed).expect("fewer rows than u32::MAX");
                self.computed += 1;
            }
        }
        (0..ids.len())
            .map(|p| self.slots[cell(p, ids[p])])
            .collect()
    }
}

impl Module for TransformerEncoder {
    fn parameters(&self) -> Vec<Tensor> {
        let mut params = vec![self.embedding.clone()];
        for layer in &self.layers {
            params.extend(layer.parameters());
        }
        params.extend(self.final_norm.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_encoder(seed: u64) -> TransformerEncoder {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TransformerEncoder::new(TransformerConfig::small(16), &mut rng)
    }

    #[test]
    fn encoding_produces_a_fixed_length_vector() {
        let enc = small_encoder(1);
        let tape = Tape::new();
        let short = enc.encode(&tape, &[1, 2, 3]);
        let long = enc.encode(&tape, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(short.shape(), (1, 32));
        assert_eq!(long.shape(), (1, 32));
    }

    #[test]
    fn different_sequences_produce_different_embeddings() {
        let enc = small_encoder(2);
        let a = enc.infer(&[1, 2, 3, 4]);
        let b = enc.infer(&[4, 3, 2, 1]);
        assert_ne!(a, b, "attention must be order sensitive");
    }

    #[test]
    fn sequences_longer_than_max_len_are_truncated() {
        let enc = small_encoder(3);
        let ids: Vec<usize> = (0..500).map(|i| i % 16).collect();
        let tape = Tape::new();
        let out = enc.encode_sequence(&tape, &ids);
        assert_eq!(out.shape().0, enc.config().max_len);
    }

    #[test]
    fn out_of_vocabulary_ids_are_clamped() {
        let enc = small_encoder(4);
        let out = enc.infer(&[9999, 3]);
        assert_eq!((out.rows(), out.cols()), (1, 32));
    }

    #[test]
    fn paper_config_matches_section_5_1() {
        let c = TransformerConfig::paper(160);
        assert_eq!(c.model_dim, 256);
        assert_eq!(c.num_heads, 8);
        assert_eq!(c.num_layers, 4);
    }

    #[test]
    fn encoder_gradients_flow_to_the_embedding_table() {
        let enc = small_encoder(5);
        enc.zero_grad();
        let tape = Tape::new();
        let pooled = enc.encode(&tape, &[1, 2, 3]);
        // A squared loss gives a position-dependent upstream gradient (the
        // plain mean of a layer-normalized row has an almost-zero gradient by
        // construction).
        pooled.mul(&pooled).mean().backward();
        let grads_nonzero = enc
            .parameters()
            .iter()
            .filter(|p| p.borrow_grad().norm() > 0.0)
            .count();
        assert!(
            grads_nonzero > enc.parameters().len() / 2,
            "most parameters should receive gradient"
        );
    }

    #[test]
    fn encoder_can_learn_to_separate_two_token_patterns() {
        // Classify whether token 5 appears in the sequence, using a linear
        // readout on the CLS embedding. Accuracy must exceed chance by a wide
        // margin after a few steps.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let enc = TransformerEncoder::new(
            TransformerConfig {
                vocab_size: 8,
                model_dim: 16,
                num_heads: 2,
                num_layers: 1,
                ffn_dim: 32,
                max_len: 12,
            },
            &mut rng,
        );
        let readout = Linear::new(16, 2, &mut rng);
        let mut params = enc.parameters();
        params.extend(readout.parameters());
        let mut optimizer = Adam::new(params, 5e-3);
        let samples: Vec<(Vec<usize>, usize)> = (0..24)
            .map(|i| {
                let has_five = i % 2 == 0;
                let mut seq: Vec<usize> = vec![1, 2, 3, (i % 4) + 1];
                if has_five {
                    seq[2] = 5;
                }
                (seq, usize::from(has_five))
            })
            .collect();
        let mut tape = Tape::new();
        for _ in 0..60 {
            for (seq, label) in &samples {
                tape.clear();
                enc.zero_grad();
                readout.zero_grad();
                let logits = readout.forward(&enc.encode(&tape, seq));
                let loss = logits.cross_entropy(&[*label], None);
                loss.backward();
                optimizer.step();
            }
        }
        let correct = samples
            .iter()
            .filter(|(seq, label)| {
                let logits = readout.forward(&enc.infer(seq));
                logits.argmax_rows()[0] == *label
            })
            .count();
        assert!(correct >= 20, "only {correct}/24 correct after training");
    }
}
