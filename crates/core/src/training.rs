//! End-to-end agent training: dataset synthesis, PPO training and packaging
//! of the resulting policy into a compile-time [`Agent`].
//!
//! This module is the single entry point the examples and the experiment
//! harness use to obtain CHEHAB RL agents under different ablation settings
//! (training-data source, reward shaping, tokenization, action space,
//! encoder architecture, cost-model weights).

use chehab_datagen::{generate_llm_like_dataset, generate_random_dataset, DataSource};
use chehab_ir::{BpeTokenizer, CostModel, CostWeights, Expr};
use chehab_rl::{
    Agent, AgentConfig, EnvConfig, ObservationTokenizer, Policy, PolicyConfig, RewardConfig,
    Trainer, TrainerConfig, TrainingReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which tokenizer the agent observes programs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenizationKind {
    /// Identifier-and-Constant-Invariant tokenization (default).
    Ici,
    /// Byte-pair encoding trained on random IR text (Figure 10 ablation).
    Bpe,
}

/// Options controlling dataset synthesis and training.
#[derive(Debug, Clone)]
pub struct AgentTrainingOptions {
    /// Number of unique training expressions to synthesize.
    pub dataset_size: usize,
    /// Which generator produces the training data (Figure 8 ablation).
    pub data_source: DataSource,
    /// Total PPO environment steps.
    pub timesteps: usize,
    /// Reward shaping (Figure 9 ablation).
    pub reward: RewardConfig,
    /// Cost-model weights (Table 1 ablation).
    pub cost_weights: CostWeights,
    /// Tokenization (Figure 10 ablation).
    pub tokenization: TokenizationKind,
    /// Use the flat action space instead of the hierarchical one
    /// (Figure 13 ablation).
    pub flat_action_space: bool,
    /// Use a GRU encoder instead of the Transformer (Appendix I.1).
    pub gru_encoder: bool,
    /// Maximum rewrite steps per training episode.
    pub max_episode_steps: usize,
    /// Number of stochastic compile-time rollouts the packaged agent draws.
    pub compile_time_rollouts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AgentTrainingOptions {
    fn default() -> Self {
        AgentTrainingOptions {
            dataset_size: 600,
            data_source: DataSource::LlmLike,
            timesteps: 4000,
            reward: RewardConfig::default(),
            cost_weights: CostWeights::default(),
            tokenization: TokenizationKind::Ici,
            flat_action_space: false,
            gru_encoder: false,
            max_episode_steps: 16,
            compile_time_rollouts: 6,
            seed: 0,
        }
    }
}

impl AgentTrainingOptions {
    /// A very small budget used by unit and integration tests.
    pub fn tiny() -> Self {
        AgentTrainingOptions {
            dataset_size: 60,
            timesteps: 256,
            max_episode_steps: 8,
            compile_time_rollouts: 3,
            ..Self::default()
        }
    }
}

/// A trained agent plus the artifacts of its training run.
#[derive(Debug)]
pub struct TrainedAgent {
    /// The packaged compile-time agent.
    pub agent: Arc<Agent>,
    /// The PPO learning curve and summary statistics.
    pub report: TrainingReport,
    /// Number of expressions in the synthesized training dataset.
    pub dataset_size: usize,
}

/// Synthesizes a dataset, trains a policy with PPO, and packages it into a
/// compile-time agent.
pub fn train_agent(options: &AgentTrainingOptions) -> TrainedAgent {
    let dataset = match options.data_source {
        DataSource::LlmLike => generate_llm_like_dataset(options.dataset_size, options.seed),
        DataSource::Random => generate_random_dataset(options.dataset_size, options.seed),
    };
    // Keep training programs small enough for the scaled-down budget.
    let programs: Vec<Expr> = dataset
        .exprs()
        .iter()
        .filter(|e| e.node_count() <= 80)
        .cloned()
        .collect();
    let programs = if programs.is_empty() {
        dataset.exprs().to_vec()
    } else {
        programs
    };

    let cost_model = CostModel::with_weights(options.cost_weights);
    let env = EnvConfig {
        cost_model,
        reward: options.reward,
        max_steps: options.max_episode_steps,
        max_locations: 8,
        observation_len: 96,
    };
    let trainer_config = TrainerConfig {
        total_timesteps: options.timesteps,
        ppo: chehab_rl::PpoConfig::small(),
        env: env.clone(),
        num_envs: 4,
        seed: options.seed,
    };
    let tokenizer = match options.tokenization {
        TokenizationKind::Ici => ObservationTokenizer::ici(),
        TokenizationKind::Bpe => {
            let corpus: Vec<String> = programs.iter().take(256).map(|e| e.to_string()).collect();
            ObservationTokenizer::bpe(BpeTokenizer::train(&corpus, 192))
        }
    };
    let trainer = Trainer::with_tokenizer(trainer_config, tokenizer);

    let mut policy_config = PolicyConfig::small(
        trainer.tokenizer().vocab_size(),
        trainer.engine().rule_count(),
        env.max_locations,
    );
    if options.flat_action_space {
        policy_config = policy_config.flat();
    }
    if options.gru_encoder {
        policy_config = policy_config.with_gru(2);
    }
    let mut rng = StdRng::seed_from_u64(options.seed ^ 0x90_11C7);
    let policy = Policy::new(policy_config, &mut rng);
    let report = trainer.train(&policy, &programs);

    let agent = Agent::new(
        policy,
        Arc::clone(trainer.engine()),
        Arc::clone(trainer.tokenizer()),
        AgentConfig {
            env: EnvConfig {
                max_steps: 40,
                ..env
            },
            sampled_rollouts: options.compile_time_rollouts,
            seed: options.seed,
        },
    );
    // The Arc shares the agent between compiler handles, not across threads:
    // `Policy` parameters are `Rc`-shared handles without Sync, and
    // compile-time inference happens on the calling thread. Training's PPO
    // threads never touch this policy's handles: each builds its own replica
    // from snapshots of the weights.
    #[allow(clippy::arc_with_non_send_sync)]
    TrainedAgent {
        agent: Arc::new(agent),
        report,
        dataset_size: dataset.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use chehab_fhe::BfvParameters;
    use std::collections::HashMap;

    #[test]
    fn tiny_training_run_produces_a_usable_agent() {
        let trained = train_agent(&AgentTrainingOptions::tiny());
        assert!(trained.dataset_size >= 50);
        assert!(trained.report.episodes > 0);

        // The packaged agent must drive the compiler end to end.
        let program = chehab_ir::parse("(Vec (+ a b) (+ c d))").unwrap();
        let compiler = Compiler::with_rl_agent(Arc::clone(&trained.agent));
        let compiled = compiler.compile("rl", &program);
        assert!(compiled.stats().cost_after <= compiled.stats().cost_before);
        let inputs: HashMap<String, i64> = [("a", 1i64), ("b", 2), ("c", 3), ("d", 4)]
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        let report = compiled
            .session(&BfvParameters::insecure_test())
            .unwrap()
            .run(&inputs)
            .unwrap();
        assert_eq!(report.outputs, vec![3, 7]);
    }

    #[test]
    fn ablation_options_construct_distinct_setups() {
        let defaults = AgentTrainingOptions::default();
        assert_eq!(defaults.data_source, DataSource::LlmLike);
        assert_eq!(defaults.tokenization, TokenizationKind::Ici);
        assert!(!defaults.flat_action_space);
        let step_only = AgentTrainingOptions {
            reward: chehab_rl::RewardConfig::step_only(),
            ..AgentTrainingOptions::tiny()
        };
        assert!(!step_only.reward.use_terminal_reward);
    }
}
