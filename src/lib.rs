//! # chehab
//!
//! Facade crate of the CHEHAB RL reproduction (*CHEHAB RL: Learning to
//! Optimize Fully Homomorphic Encryption Computations*, ASPLOS 2026): it
//! re-exports the public API of every workspace crate and hosts the runnable
//! examples and the cross-crate integration tests.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`ir`] | `chehab-ir` | expression IR, analyses, cost model, tokenizers |
//! | [`trs`] | `chehab-trs` | rewrite-rule catalog and engine |
//! | [`fhe`] | `chehab-fhe` | BFV-style execution backend |
//! | [`nn`] | `chehab-nn` | tensors, autodiff, Transformer/GRU encoders |
//! | [`rl`] | `chehab-rl` | rewrite environment, PPO, policies, agent |
//! | [`datagen`] | `chehab-datagen` | training-data synthesis |
//! | [`benchsuite`] | `chehab-benchsuite` | Porcupine / Coyote / tree kernels |
//! | [`coyote`] | `coyote-baseline` | search-based vectorizer baseline |
//! | [`compiler`] | `chehab-core` | DSL, pipeline, rotation keys, codegen, `FheSession` serving API |
//! | [`runtime`] | `chehab-runtime` | two-level parallel execution runtime + `ServingEngine` request queue |
//!
//! ## Quick start
//!
//! ```
//! use chehab::compiler::{Compiler, DslProgram};
//! use chehab::fhe::BfvParameters;
//! use std::collections::HashMap;
//!
//! let mut p = DslProgram::new("dot2");
//! let a = p.ciphertext_inputs("a", 2);
//! let b = p.ciphertext_inputs("b", 2);
//! let out = &(&a[0] * &b[0]) + &(&a[1] * &b[1]);
//! p.set_output(&out);
//!
//! let compiled = Compiler::greedy().compile(p.name(), &p.lower());
//! let inputs: HashMap<String, i64> =
//!     [("a_0", 1i64), ("a_1", 2), ("b_0", 3), ("b_1", 4)]
//!         .iter().map(|(k, v)| (k.to_string(), *v)).collect();
//! let report = compiled.session(&BfvParameters::insecure_test())?.run(&inputs)?;
//! assert_eq!(report.outputs[0], 11);
//! # Ok::<(), chehab::fhe::FheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The CHEHAB intermediate representation (re-export of `chehab-ir`).
pub mod ir {
    pub use chehab_ir::*;
}

/// The term rewriting system (re-export of `chehab-trs`).
pub mod trs {
    pub use chehab_trs::*;
}

/// The BFV-style execution backend (re-export of `chehab-fhe`).
pub mod fhe {
    pub use chehab_fhe::*;
}

/// The neural-network substrate (re-export of `chehab-nn`).
pub mod nn {
    pub use chehab_nn::*;
}

/// The reinforcement-learning stack (re-export of `chehab-rl`).
pub mod rl {
    pub use chehab_rl::*;
}

/// Training-data synthesis (re-export of `chehab-datagen`).
pub mod datagen {
    pub use chehab_datagen::*;
}

/// The evaluation benchmark kernels (re-export of `chehab-benchsuite`).
pub mod benchsuite {
    pub use chehab_benchsuite::*;
}

/// The Coyote-style baseline compiler (re-export of `coyote-baseline`).
pub mod coyote {
    pub use coyote_baseline::*;
}

/// The CHEHAB compiler pipeline (re-export of `chehab-core`).
pub mod compiler {
    pub use chehab_core::*;
}

/// The two-level parallel execution runtime and persistent serving engine
/// (re-export of `chehab-runtime`).
pub mod runtime {
    pub use chehab_runtime::*;
}
