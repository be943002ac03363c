//! # chehab-fhe
//!
//! A BFV-shaped homomorphic-encryption execution substrate, standing in for
//! Microsoft SEAL in the reproduction of *CHEHAB RL: Learning to Optimize
//! Fully Homomorphic Encryption Computations*.
//!
//! The backend is a *simulation* with three faithful facets (see DESIGN.md
//! for the substitution argument):
//!
//! * **functional**: batched slot values are tracked exactly modulo the
//!   plaintext modulus, so compiled circuits can be checked against plaintext
//!   references end to end;
//! * **cost**: ciphertext payload polynomials undergo real ring arithmetic
//!   sized per operation the way BFV's is, so measured wall-clock keeps the
//!   ct-ct-mul > rotation > addition ordering the paper's cost model
//!   assumes. Payloads are kept lazily in NTT (Eval) form across whole
//!   operation chains (see [`poly`]), so the steady-state work is pointwise
//!   and transform-free (the `kernel_timer` test prints the measured
//!   magnitudes; compiler and scheduler price with the static table);
//! * **noise**: an analytic invariant-noise model reproduces the consumed
//!   noise budgets of Table 6 (369-bit fresh budget under the paper's
//!   parameters, ct-ct multiplications costing tens of bits).
//!
//! The API mirrors SEAL: [`BfvParameters`] → [`FheContext`] →
//! [`KeyGenerator`] → [`Encryptor`] / [`Evaluator`] / [`Decryptor`].
//!
//! ## Example
//!
//! ```
//! use chehab_fhe::{BfvParameters, FheContext, KeyGenerator, Encryptor, Decryptor, Evaluator};
//!
//! let ctx = FheContext::new(BfvParameters::insecure_test())?;
//! let mut keygen = KeyGenerator::new(ctx.params(), 1);
//! let mut encryptor = Encryptor::new(&ctx, &keygen.public_key());
//! let decryptor = Decryptor::new(&ctx, &keygen.secret_key());
//! let mut evaluator = Evaluator::new(&ctx);
//! let relin = keygen.relin_keys();
//!
//! let a = encryptor.encrypt_values(&[2, 3])?;
//! let b = encryptor.encrypt_values(&[5, 7])?;
//! let product = evaluator.multiply(&a, &b, &relin);
//! assert_eq!(ctx.decode(&decryptor.decrypt(&product)?, 2), vec![10, 21]);
//! # Ok::<(), chehab_fhe::FheError>(())
//! ```

// `deny` rather than `forbid`: the `simd` module alone opts back in for the
// stable `std::arch` intrinsics behind runtime feature detection; everything
// else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod crypto;
mod evaluator;
mod keys;
mod noise;
mod params;
pub mod payload;
pub mod poly;
pub mod rns;
pub mod simd;

pub use arena::{ArenaPool, ArenaPoolStats, PolyArena};
pub use crypto::{Ciphertext, Decryptor, Encryptor, FheContext, FheError, Plaintext};
pub use evaluator::{Evaluator, EvaluatorStats};
pub use keys::{GaloisKeys, KeyGenerator, PublicKey, RelinKeys, SecretKey};
pub use noise::NoiseModel;
pub use params::{BfvParameters, ParameterError, SecurityLevel};
pub use payload::CtPayload;
pub use poly::TransformStats;
pub use rns::{ModulusChain, PlainModulus};
pub use simd::SimdPolicy;
