//! The training loop (Section 7.1, Appendix G): episodes are sampled from a
//! dataset of programs, experience is collected into a rollout buffer, and
//! PPO updates the hierarchical (or flat) actor-critic policy.

use crate::env::{EnvConfig, ObservationTokenizer, RewriteEnv};
use crate::policy::Policy;
use crate::ppo::{PpoConfig, PpoLearner, RolloutBuffer, Transition, UpdateStats};
use chehab_ir::Expr;
use chehab_trs::RewriteEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Total environment steps to collect.
    pub total_timesteps: usize,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Environment configuration (reward, step limit, observation length).
    pub env: EnvConfig,
    /// Number of logical environments cycled through round-robin when
    /// collecting experience (the paper uses 8 parallel workers; collection
    /// here is sequential but interleaves the same number of episodes).
    pub num_envs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            total_timesteps: 2_000_000,
            ppo: PpoConfig::default(),
            env: EnvConfig::default(),
            num_envs: 8,
            seed: 0,
        }
    }
}

impl TrainerConfig {
    /// A reduced configuration for tests and the scaled-down harness.
    pub fn small(total_timesteps: usize, seed: u64) -> Self {
        TrainerConfig {
            total_timesteps,
            ppo: PpoConfig::small(),
            env: EnvConfig {
                max_steps: 12,
                observation_len: 96,
                ..EnvConfig::default()
            },
            num_envs: 2,
            seed,
        }
    }
}

/// One point of the training curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Environment steps collected so far.
    pub timestep: usize,
    /// Wall-clock seconds since training started.
    pub wall_clock_seconds: f64,
    /// Mean episode return over the last collection window.
    pub mean_episode_reward: f64,
    /// Mean relative cost improvement of finished episodes in the window.
    pub mean_improvement: f64,
}

/// The outcome of a training run: the learning curve plus summary statistics.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Learning-curve samples, one per PPO update.
    pub curve: Vec<CurvePoint>,
    /// Total episodes finished.
    pub episodes: usize,
    /// Total environment steps collected.
    pub timesteps: usize,
    /// Total wall-clock time in seconds.
    pub wall_clock_seconds: f64,
    /// Seconds spent collecting experience (environment steps and the
    /// policy's tape-free `act`).
    pub collect_seconds: f64,
    /// Seconds spent in PPO updates; with `collect_seconds` it accounts for
    /// `wall_clock_seconds` up to the curve bookkeeping.
    pub update_seconds: f64,
    /// Diagnostics of the final PPO update.
    pub final_update: UpdateStats,
}

impl TrainingReport {
    /// Mean episode reward over the last quarter of the curve (a stable
    /// "final performance" summary used by the ablation figures).
    pub fn final_mean_reward(&self) -> f64 {
        if self.curve.is_empty() {
            return 0.0;
        }
        let start = self.curve.len() - self.curve.len().div_ceil(4);
        let tail = &self.curve[start..];
        tail.iter().map(|p| p.mean_episode_reward).sum::<f64>() / tail.len() as f64
    }
}

/// Trains a policy on a dataset of programs.
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    engine: Arc<RewriteEngine>,
    tokenizer: Arc<ObservationTokenizer>,
}

impl Trainer {
    /// Creates a trainer with the default ICI tokenizer.
    pub fn new(config: TrainerConfig) -> Self {
        Self::with_tokenizer(config, ObservationTokenizer::ici())
    }

    /// Creates a trainer with an explicit observation tokenizer (used by the
    /// ICI-vs-BPE ablation).
    pub fn with_tokenizer(config: TrainerConfig, tokenizer: ObservationTokenizer) -> Self {
        Trainer {
            config,
            engine: Arc::new(RewriteEngine::new()),
            tokenizer: Arc::new(tokenizer),
        }
    }

    /// The rewrite engine whose catalog defines the action space.
    pub fn engine(&self) -> &Arc<RewriteEngine> {
        &self.engine
    }

    /// The observation tokenizer.
    pub fn tokenizer(&self) -> &Arc<ObservationTokenizer> {
        &self.tokenizer
    }

    /// Runs training of `policy` on `dataset`, returning the learning curve.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(&self, policy: &Policy, dataset: &[Expr]) -> TrainingReport {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut learner = PpoLearner::new(policy, self.config.ppo);
        let mut report = TrainingReport::default();

        // Round-robin environments, each holding its own episode.
        let mut envs: Vec<RewriteEnv> = (0..self.config.num_envs.max(1))
            .map(|_| {
                let program = dataset[rng.gen_range(0..dataset.len())].clone();
                RewriteEnv::new(
                    program,
                    Arc::clone(&self.engine),
                    Arc::clone(&self.tokenizer),
                    self.config.env.clone(),
                )
            })
            .collect();

        let mut buffer = RolloutBuffer::new();
        let mut collected = 0usize;
        let mut window_rewards: Vec<f64> = Vec::new();
        let mut window_improvements: Vec<f64> = Vec::new();
        let mut episode_rewards: Vec<f64> = vec![0.0; envs.len()];

        while collected < self.config.total_timesteps {
            let collecting = Instant::now();
            for (env_idx, env) in envs.iter_mut().enumerate() {
                if collected >= self.config.total_timesteps {
                    break;
                }
                if env.is_finished() {
                    let program = dataset[rng.gen_range(0..dataset.len())].clone();
                    env.reset(program);
                    episode_rewards[env_idx] = 0.0;
                }
                let observation = env.observe();
                let rule_mask = env.rule_mask();
                let sample = policy.act(
                    &observation,
                    &rule_mask,
                    |rule| env.location_count(rule),
                    &mut rng,
                    false,
                );
                let location_counts = env.location_counts();
                let outcome = env.step(sample.action);
                episode_rewards[env_idx] += outcome.reward;
                buffer.push(Transition {
                    observation,
                    action: sample.action,
                    rule_mask,
                    location_counts,
                    log_prob: sample.log_prob,
                    value: sample.value,
                    reward: outcome.reward,
                    done: outcome.done,
                });
                collected += 1;
                if outcome.done {
                    report.episodes += 1;
                    window_rewards.push(episode_rewards[env_idx]);
                    let improvement = if env.initial_cost() > 0.0 {
                        (env.initial_cost() - env.current_cost()) / env.initial_cost()
                    } else {
                        0.0
                    };
                    window_improvements.push(improvement);
                }
            }

            report.collect_seconds += collecting.elapsed().as_secs_f64();

            if buffer.len() >= self.config.ppo.steps_per_update
                || collected >= self.config.total_timesteps
            {
                let updating = Instant::now();
                report.final_update = learner.update(policy, &mut buffer);
                report.update_seconds += updating.elapsed().as_secs_f64();
                buffer.clear();
                let mean_reward = if window_rewards.is_empty() {
                    0.0
                } else {
                    window_rewards.iter().sum::<f64>() / window_rewards.len() as f64
                };
                let mean_improvement = if window_improvements.is_empty() {
                    0.0
                } else {
                    window_improvements.iter().sum::<f64>() / window_improvements.len() as f64
                };
                report.curve.push(CurvePoint {
                    timestep: collected,
                    wall_clock_seconds: start.elapsed().as_secs_f64(),
                    mean_episode_reward: mean_reward,
                    mean_improvement,
                });
                window_rewards.clear();
                window_improvements.clear();
            }
        }

        report.timesteps = collected;
        report.wall_clock_seconds = start.elapsed().as_secs_f64();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use chehab_ir::parse;
    use rand_chacha::ChaCha8Rng;

    fn tiny_dataset() -> Vec<Expr> {
        [
            "(Vec (+ a b) (+ c d))",
            "(Vec (* a b) (* c d))",
            "(Vec (- a b) (- c d))",
            "(Vec (+ a b) (+ c d) (+ e f))",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect()
    }

    #[test]
    fn training_produces_a_learning_curve_and_finishes_episodes() {
        let config = TrainerConfig::small(300, 1);
        let trainer = Trainer::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let policy_config = PolicyConfig::small(
            trainer.tokenizer().vocab_size(),
            trainer.engine().rule_count(),
            8,
        );
        let policy = Policy::new(policy_config, &mut rng);
        let report = trainer.train(&policy, &tiny_dataset());
        assert!(report.timesteps >= 300);
        assert!(report.episodes > 0);
        assert!(!report.curve.is_empty());
        assert!(report.wall_clock_seconds > 0.0);
        assert!(report.collect_seconds > 0.0 && report.update_seconds > 0.0);
        assert!(report.collect_seconds + report.update_seconds <= report.wall_clock_seconds);
        assert!(report.final_mean_reward().is_finite());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_on_an_empty_dataset_panics() {
        let trainer = Trainer::new(TrainerConfig::small(10, 1));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let policy = Policy::new(
            PolicyConfig::small(
                trainer.tokenizer().vocab_size(),
                trainer.engine().rule_count(),
                8,
            ),
            &mut rng,
        );
        let _ = trainer.train(&policy, &[]);
    }
}
