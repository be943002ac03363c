//! # chehab-nn
//!
//! A minimal neural-network substrate built from scratch for the CHEHAB RL
//! reproduction: dense matrices, reverse-mode automatic differentiation,
//! linear / MLP / layer-norm layers, a Transformer encoder (the program
//! state representation of Section 5.1), a GRU encoder (the Appendix I.1
//! baseline), sequence autoencoders for the architecture ablation, and the
//! Adam optimizer used by PPO training.
//!
//! The library is deliberately small and define-by-run: graphs are rebuilt
//! every forward pass, values are `f32` matrices, and everything is
//! deterministic given a seeded RNG — which is what the experiment harness
//! needs to reproduce learning curves.
//!
//! Every layer's forward pass is written once, over [`Forward`]: applied to
//! [`Tensor`]s it records the autodiff tape training needs; applied to plain
//! [`Matrix`] values it is inference — no tape, weights borrowed, and only
//! the `CLS` row of the last Transformer layer — with bit-identical outputs,
//! because both run the same `Matrix` kernels in the same order.
//!
//! ## Example
//!
//! ```
//! use chehab_nn::{Matrix, Tensor};
//!
//! let x = Tensor::parameter(Matrix::full(1, 2, 2.0));
//! let loss = x.mul(&x).mean();
//! loss.backward();
//! assert_eq!(loss.value().get(0, 0), 4.0);
//! assert_eq!(x.grad().get(0, 0), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoencoder;
mod forward;
mod gru;
mod layers;
mod matrix;
mod optim;
mod tensor;
mod transformer;

pub use autoencoder::{EncoderKind, ReconstructionAccuracy, SequenceAutoencoder};
pub use forward::Forward;
pub use gru::GruEncoder;
pub use layers::{Activation, LayerNorm, Linear, Mlp, Module};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use tensor::Tensor;
pub use transformer::{TransformerConfig, TransformerEncoder};
