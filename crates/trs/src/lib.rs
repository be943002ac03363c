//! # chehab-trs
//!
//! The term rewriting system of the CHEHAB FHE compiler (Appendix E of
//! *CHEHAB RL: Learning to Optimize Fully Homomorphic Encryption
//! Computations*): a pattern language with metavariables, a catalog of 84+
//! vectorization / simplification / balancing / rotation rules, and a rewrite
//! engine that enumerates match locations and applies rules at chosen sites.
//!
//! The ordered rule catalog doubles as the action space of the CHEHAB RL
//! agent; the engine's greedy best-improvement optimizer is the original
//! (non-RL) CHEHAB baseline used in the Figure 12 ablation. Both searches
//! stand on a [`MatchIndex`]: rule outcomes and per-rule match counts per
//! distinct subterm, computed once, from which a program state's matches are
//! read by descending the term graph.
//!
//! ## Example
//!
//! ```
//! use chehab_ir::{parse, count_ops, CostModel};
//! use chehab_trs::RewriteEngine;
//!
//! let engine = RewriteEngine::new();
//! let scalar = parse("(Vec (+ a b) (+ c d))").unwrap();
//! let rule = engine.rule_index("add-vectorize-2").unwrap();
//! let vectorized = engine.apply_at_occurrence(&scalar, rule, 0).unwrap();
//! assert_eq!(count_ops(&vectorized).scalar_ciphertext_ops(), 0);
//! assert!(CostModel::default().cost(&vectorized) < CostModel::default().cost(&scalar));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod engine;
mod index;
mod pattern;
mod rule;

pub use catalog::default_catalog;
pub use engine::{Match, RewriteEngine};
pub use index::{MatchIndex, ProgramMatches, Site};
pub use pattern::{parse_pattern, Bindings, Pattern};
pub use rule::{Placement, Rule, RuleCategory};
