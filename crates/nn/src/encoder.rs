//! The sequence encoder a model embeds a token sequence with: the
//! Transformer (the paper's choice) or the GRU baseline of Appendix I.1.

use crate::forward::Forward;
use crate::gru::GruEncoder;
use crate::layers::Module;
use crate::matrix::Matrix;
use crate::tensor::{Tape, Tensor, Var};
use crate::transformer::{EncoderRows, TransformerEncoder};

/// A Transformer or GRU encoder behind one interface, shared by the RL
/// policy and the autoencoder ablation.
#[derive(Debug)]
pub enum SequenceEncoder {
    /// Self-attention encoder (the paper's choice).
    Transformer(TransformerEncoder),
    /// Recurrent (GRU) encoder baseline.
    Gru(GruEncoder),
}

impl SequenceEncoder {
    /// The pooled embedding of `tokens` on `tape`, computing only the rows
    /// pooling reads.
    pub fn encode<'t>(&self, tape: &'t Tape, tokens: &[usize]) -> Var<'t> {
        match self {
            SequenceEncoder::Transformer(t) => t.encode(tape, tokens),
            SequenceEncoder::Gru(g) => g.encode(tape, tokens),
        }
    }

    /// [`SequenceEncoder::encode`] with every position run through every
    /// layer before pooling: the reference the shortcut is held against.
    pub fn encode_all_rows<'t>(&self, tape: &'t Tape, tokens: &[usize]) -> Var<'t> {
        match self {
            SequenceEncoder::Transformer(t) => t.encode_sequence(tape, tokens).row(0),
            SequenceEncoder::Gru(g) => g.encode(tape, tokens),
        }
    }

    /// The value of [`SequenceEncoder::encode`] without a tape.
    pub fn infer(&self, tokens: &[usize]) -> Matrix {
        match self {
            SequenceEncoder::Transformer(t) => t.infer(tokens),
            SequenceEncoder::Gru(g) => g.infer(tokens),
        }
    }

    /// [`SequenceEncoder::infer`], reading a Transformer's first-layer rows
    /// from `rows` where they are ([`TransformerEncoder::infer_with`]); a GRU
    /// reads its whole sequence in order and keeps nothing there.
    pub fn infer_with(&self, rows: &mut EncoderRows, tokens: &[usize]) -> Matrix {
        match self {
            SequenceEncoder::Transformer(t) => t.infer_with(rows, tokens),
            SequenceEncoder::Gru(g) => g.infer(tokens),
        }
    }
}

impl Module for SequenceEncoder {
    fn parameters(&self) -> Vec<Tensor> {
        match self {
            SequenceEncoder::Transformer(t) => t.parameters(),
            SequenceEncoder::Gru(g) => g.parameters(),
        }
    }
}
