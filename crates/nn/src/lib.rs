//! # chehab-nn
//!
//! A minimal neural-network substrate built from scratch for the CHEHAB RL
//! reproduction: dense matrices, reverse-mode automatic differentiation,
//! linear / MLP / layer-norm layers, a Transformer encoder (the program
//! state representation of Section 5.1), a GRU encoder (the Appendix I.1
//! baseline), sequence autoencoders for the architecture ablation, and the
//! Adam optimizer used by PPO training.
//!
//! Values are `f32` matrices and everything is deterministic given a seeded
//! RNG, down to the bit: which is what lets the experiment harness reproduce
//! a learning curve and the equivalence suites hold every faster path against
//! a reference with `to_bits`.
//!
//! Every layer's forward pass is written once, over [`Forward`], which has two
//! implementers. Applied to a [`Var`] it is training: the operation is
//! appended to a [`Tape`] — a `Vec` of nodes naming their operands by index,
//! values and gradients in buffers the tape keeps across [`Tape::clear`] — and
//! [`Var::backward`] walks that `Vec` once. Applied to a plain [`Matrix`] it
//! is inference: nothing is recorded. Both borrow the weights from the
//! [`Tensor`] parameters, run the same kernels in the same order, and compute
//! only the `CLS` row of the last Transformer layer, with bit-identical
//! results.
//!
//! ## Example
//!
//! ```
//! use chehab_nn::{Forward, Matrix, Tape, Tensor};
//!
//! let x = Tensor::parameter(Matrix::full(1, 2, 2.0));
//! let tape = Tape::new();
//! let v = tape.param(&x);
//! let loss = v.mul(&v).mean();
//! loss.backward();
//! assert_eq!(loss.get(0, 0), 4.0);
//! assert_eq!(x.grad().get(0, 0), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoencoder;
mod encoder;
mod forward;
mod gru;
mod layers;
mod matrix;
mod optim;
mod tensor;
mod transformer;

pub use autoencoder::{EncoderKind, ReconstructionAccuracy, SequenceAutoencoder};
pub use encoder::SequenceEncoder;
pub use forward::Forward;
pub use gru::GruEncoder;
pub use layers::{Activation, LayerNorm, Linear, Mlp, Module};
pub use matrix::Matrix;
pub use optim::Adam;
pub use tensor::{Tape, Tensor, Var};
pub use transformer::{EncoderRows, TransformerConfig, TransformerEncoder};
