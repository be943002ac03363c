//! # chehab-ir
//!
//! The intermediate representation of the CHEHAB FHE compiler, reproduced
//! from *CHEHAB RL: Learning to Optimize Fully Homomorphic Encryption
//! Computations* (ASPLOS 2026).
//!
//! The crate provides:
//!
//! * the [`Expr`] expression tree over scalar and vector FHE operations,
//!   with s-expression [`parse`]/printing,
//! * a reference interpreter ([`evaluate`]) over the BFV plaintext ring used
//!   to establish rewrite soundness,
//! * the static analyses reported in the paper's evaluation
//!   ([`circuit_depth`], [`multiplicative_depth`], [`count_ops`]),
//! * the FHE-aware [`CostModel`] of Section 5.3.1,
//! * the ICI and BPE tokenizers of Section 5.1 ([`ici_tokens`],
//!   [`BpeTokenizer`]) and the [`Vocabulary`] used by the embedding model,
//! * the hash-consed [`CircuitDag`] used for CSE and code generation, and the
//!   incremental [`TermGraph`] under it, which the analyses, the cost model
//!   and the greedy rewriter score terms on, and
//! * classic cleanup passes ([`constant_fold`], [`cleanup`]).
//!
//! ## Example
//!
//! ```
//! use chehab_ir::{parse, CostModel, multiplicative_depth};
//!
//! let scalar = parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))")?;
//! let vectorized = parse(
//!     "(VecAdd (VecMul (Vec a e) (Vec b f)) (VecMul (Vec c g) (Vec d h)))",
//! )?;
//!
//! let model = CostModel::default();
//! assert!(model.cost(&vectorized) < model.cost(&scalar));
//! assert_eq!(multiplicative_depth(&vectorized), 1);
//! # Ok::<(), chehab_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cost;
mod dag;
mod eval;
mod expr;
mod hash;
mod parser;
mod passes;
mod symbol;
mod tokenize;

pub use analysis::{
    circuit_depth, count_ops, data_kind, multiplicative_depth, rotation_steps, summarize,
    CircuitSummary, DataKind, OpCounts,
};
pub use cost::{CostBreakdown, CostModel, CostWeights, OpCosts};
pub use dag::{CircuitDag, DagNode, NodeId, TermGraph};
pub use eval::{
    equivalent_on_live_slots, evaluate, shift_zero_fill, Env, EvalError, Value,
    DEFAULT_PLAIN_MODULUS,
};
pub use expr::{BinOp, Expr, Ty, TypeError};
pub use hash::{WordHasher, WordMap};
pub use parser::{parse, ParseError};
pub use passes::{cleanup, constant_fold, merge_rotations};
pub use symbol::Symbol;
pub use tokenize::{
    canonical_form, ici_tokens, BpeTokenizer, Vocabulary, CLS_TOKEN, MAX_ICI_CONSTANTS,
    MAX_ICI_VARIABLES, PAD_TOKEN, UNK_TOKEN,
};
