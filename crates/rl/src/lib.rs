//! # chehab-rl
//!
//! The reinforcement-learning stack of CHEHAB RL (Sections 5 and 7.1 of the
//! paper): the rewrite-environment MDP, the hierarchical (and flat)
//! actor-critic policy over the term-rewriting action space, PPO with
//! generalized advantage estimation, the training loop over synthesized
//! program datasets, and the compile-time [`Agent`] that applies a trained
//! policy to optimize programs.
//!
//! ## Example
//!
//! ```
//! use chehab_rl::{Policy, PolicyConfig, Trainer, TrainerConfig};
//! use chehab_ir::parse;
//! use rand::SeedableRng;
//!
//! let trainer = Trainer::new(TrainerConfig::small(64, 0));
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let policy = Policy::new(
//!     PolicyConfig::small(trainer.tokenizer().vocab_size(), trainer.engine().rule_count(), 8),
//!     &mut rng,
//! );
//! let dataset = vec![parse("(Vec (+ a b) (+ c d))").unwrap()];
//! let report = trainer.train(&policy, &dataset);
//! assert!(report.episodes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod env;
mod policy;
mod ppo;
mod reward;
mod trainer;

pub use agent::{Agent, AgentConfig, OptimizationOutcome};
pub use env::{Action, EnvConfig, ObservationTokenizer, RewriteEnv, StepOutcome};
pub use policy::{
    ActionEvaluation, ActionSample, ActionSpaceKind, EncoderArch, Policy, PolicyConfig,
    PolicyOutputs, PolicySnapshot,
};
pub use ppo::{PpoConfig, PpoLearner, RolloutBuffer, Transition, UpdateStats};
pub use reward::RewardConfig;
pub use trainer::{CurvePoint, Trainer, TrainerConfig, TrainingReport};
