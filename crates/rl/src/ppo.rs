//! Proximal Policy Optimization (Section 7.1, Appendix G): rollout storage,
//! generalized advantage estimation, and the clipped-surrogate update.

use crate::env::Action;
use crate::policy::Policy;
use chehab_nn::{Adam, Forward, Matrix, Module, Tape, Var};

/// PPO hyper-parameters (defaults follow Table 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Discount factor `γ`.
    pub gamma: f64,
    /// GAE parameter `λ`.
    pub gae_lambda: f64,
    /// Clip range `ε`.
    pub clip_range: f64,
    /// Number of optimization epochs per update.
    pub update_epochs: usize,
    /// Environment steps collected per update.
    pub steps_per_update: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Entropy bonus coefficient.
    pub entropy_coefficient: f32,
    /// Value-loss coefficient.
    pub value_coefficient: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            learning_rate: 1e-4,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            update_epochs: 20,
            steps_per_update: 2048,
            batch_size: 256,
            entropy_coefficient: 0.01,
            value_coefficient: 0.5,
            max_grad_norm: 0.5,
        }
    }
}

impl PpoConfig {
    /// A reduced configuration for the scaled-down experiment harness and
    /// tests (fewer steps per update, fewer epochs).
    pub fn small() -> Self {
        PpoConfig {
            steps_per_update: 128,
            batch_size: 32,
            update_epochs: 4,
            ..PpoConfig::default()
        }
    }
}

/// One stored transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation token ids.
    pub observation: Vec<usize>,
    /// The action taken.
    pub action: Action,
    /// Rule applicability mask at the time of the action.
    pub rule_mask: Vec<bool>,
    /// Number of match locations of each rule at the time of the action
    /// (one entry per rule, `END` excluded).
    pub location_counts: Vec<usize>,
    /// Log-probability of the action under the behaviour policy.
    pub log_prob: f32,
    /// Critic value estimate of the observation.
    pub value: f32,
    /// Reward received.
    pub reward: f64,
    /// Whether the episode terminated after this transition.
    pub done: bool,
}

/// A rollout buffer with computed advantages and returns.
#[derive(Debug, Default)]
pub struct RolloutBuffer {
    /// Stored transitions in collection order.
    pub transitions: Vec<Transition>,
    advantages: Vec<f64>,
    returns: Vec<f64>,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a transition.
    pub fn push(&mut self, transition: Transition) {
        self.transitions.push(transition);
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.transitions.clear();
        self.advantages.clear();
        self.returns.clear();
    }

    /// Computes generalized advantage estimates and discounted returns.
    /// Episodes are delimited by the `done` flags; the value after a terminal
    /// state is zero.
    pub fn compute_advantages(&mut self, gamma: f64, lambda: f64) {
        let n = self.transitions.len();
        self.advantages = vec![0.0; n];
        self.returns = vec![0.0; n];
        let mut gae = 0.0;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let next_value = if t.done || i + 1 >= n {
                0.0
            } else {
                f64::from(self.transitions[i + 1].value)
            };
            let next_non_terminal = if t.done { 0.0 } else { 1.0 };
            let delta = t.reward + gamma * next_value * next_non_terminal - f64::from(t.value);
            gae = delta + gamma * lambda * next_non_terminal * gae;
            self.advantages[i] = gae;
            self.returns[i] = gae + f64::from(t.value);
        }
        // Normalize advantages for stable updates.
        let mean = self.advantages.iter().sum::<f64>() / n.max(1) as f64;
        let var = self
            .advantages
            .iter()
            .map(|a| (a - mean).powi(2))
            .sum::<f64>()
            / n.max(1) as f64;
        let std = var.sqrt().max(1e-8);
        for a in &mut self.advantages {
            *a = (*a - mean) / std;
        }
    }

    /// The normalized advantage of transition `i`.
    pub fn advantage(&self, i: usize) -> f64 {
        self.advantages[i]
    }

    /// The discounted return of transition `i`.
    pub fn return_at(&self, i: usize) -> f64 {
        self.returns[i]
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
}

/// The PPO learner: owns the optimizer state for a policy and the tape its
/// minibatches are differentiated on.
#[derive(Debug)]
pub struct PpoLearner {
    config: PpoConfig,
    optimizer: Adam,
    tape: Tape,
}

impl PpoLearner {
    /// Creates a learner for `policy`.
    pub fn new(policy: &Policy, config: PpoConfig) -> Self {
        let optimizer = Adam::new(policy.parameters(), config.learning_rate)
            .with_grad_clip(config.max_grad_norm);
        PpoLearner {
            config,
            optimizer,
            tape: Tape::new(),
        }
    }

    /// The learner's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Runs the clipped PPO update over a filled rollout buffer.
    pub fn update(&mut self, policy: &Policy, buffer: &mut RolloutBuffer) -> UpdateStats {
        buffer.compute_advantages(self.config.gamma, self.config.gae_lambda);
        let n = buffer.len();
        if n == 0 {
            return UpdateStats::default();
        }
        let mut stats = UpdateStats::default();
        let mut updates = 0usize;
        for _ in 0..self.config.update_epochs {
            let mut start = 0;
            while start < n {
                let end = (start + self.config.batch_size).min(n);
                let batch: Vec<usize> = (start..end).collect();
                let s = self.update_minibatch(policy, buffer, &batch);
                stats.policy_loss += s.policy_loss;
                stats.value_loss += s.value_loss;
                stats.entropy += s.entropy;
                updates += 1;
                start = end;
            }
        }
        if updates > 0 {
            stats.policy_loss /= updates as f32;
            stats.value_loss /= updates as f32;
            stats.entropy /= updates as f32;
        }
        stats
    }

    fn update_minibatch(
        &mut self,
        policy: &Policy,
        buffer: &RolloutBuffer,
        batch: &[usize],
    ) -> UpdateStats {
        // The whole minibatch goes on the tape before the one backward pass:
        // that is what fixes the order in which the samples' gradients are
        // summed into each parameter.
        self.tape.clear();
        let tape = &self.tape;
        policy.zero_grad();
        let scalar = |value: f32| tape.constant(Matrix::full(1, 1, value));
        let mut sums: Option<[Var<'_>; 3]> = None;
        for &i in batch {
            let t = &buffer.transitions[i];
            let eval = policy.evaluate(
                tape,
                &t.observation,
                t.action,
                &t.rule_mask,
                &t.location_counts,
            );
            // ratio = exp(log_prob_new - log_prob_old)
            let ratio = eval.log_prob.sub(&scalar(t.log_prob)).exp();
            let clipped = clamp(
                &ratio,
                1.0 - self.config.clip_range as f32,
                1.0 + self.config.clip_range as f32,
            );
            let advantage = scalar(buffer.advantage(i) as f32);
            let policy_loss = min(&ratio.mul(&advantage), &clipped.mul(&advantage)).scale(-1.0);
            let value_diff = eval.value.sub(&scalar(buffer.return_at(i) as f32));
            let losses = [policy_loss, value_diff.mul(&value_diff), eval.entropy];
            sums = Some(match sums {
                None => losses,
                Some(sums) => [0, 1, 2].map(|k| sums[k].add(&losses[k])),
            });
        }
        let count = batch.len().max(1) as f32;
        let [policy_loss, value_loss, entropy] = sums
            .expect("non-empty batch")
            .map(|sum| sum.scale(1.0 / count));
        let total = policy_loss
            .add(&value_loss.scale(self.config.value_coefficient))
            .sub(&entropy.scale(self.config.entropy_coefficient));
        total.backward();
        self.optimizer.step();
        UpdateStats {
            policy_loss: policy_loss.get(0, 0),
            value_loss: value_loss.get(0, 0),
            entropy: entropy.get(0, 0),
        }
    }
}

/// Element-wise clamp with straight-through gradient inside the interval.
fn clamp<'t>(x: &Var<'t>, low: f32, high: f32) -> Var<'t> {
    // clamp(x) = low + relu(x - low) - relu(x - high)
    let low_t = x.tape().constant(Matrix::full(1, 1, low));
    let high_t = x.tape().constant(Matrix::full(1, 1, high));
    low_t.add(&x.sub(&low_t).relu()).sub(&x.sub(&high_t).relu())
}

/// Element-wise minimum with subgradient routing to the smaller operand.
fn min<'t>(a: &Var<'t>, b: &Var<'t>) -> Var<'t> {
    // min(a, b) = a - relu(a - b)
    a.sub(&a.sub(b).relu())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_nn::Tensor;

    #[test]
    fn gae_computes_known_values_for_a_short_episode() {
        let mut buffer = RolloutBuffer::new();
        for (reward, value, done) in [(1.0, 0.5, false), (1.0, 0.5, false), (1.0, 0.5, true)] {
            buffer.push(Transition {
                observation: vec![0],
                action: Action::Stop,
                rule_mask: vec![true],
                location_counts: Vec::new(),
                log_prob: -0.1,
                value,
                reward,
                done,
            });
        }
        buffer.compute_advantages(1.0, 1.0);
        // With gamma = lambda = 1 the (unnormalized) advantage of step 0 is
        // (r0 + r1 + r2) - v0 = 2.5; after normalization the ordering must be
        // preserved: earlier steps have larger advantages.
        assert!(buffer.advantage(0) > buffer.advantage(1));
        assert!(buffer.advantage(1) > buffer.advantage(2));
        assert!(buffer.return_at(0) > buffer.return_at(2));
    }

    #[test]
    fn advantages_are_normalized() {
        let mut buffer = RolloutBuffer::new();
        for i in 0..10 {
            buffer.push(Transition {
                observation: vec![0],
                action: Action::Stop,
                rule_mask: vec![true],
                location_counts: Vec::new(),
                log_prob: -0.1,
                value: 0.0,
                reward: i as f64,
                done: i == 9,
            });
        }
        buffer.compute_advantages(0.99, 0.95);
        let mean: f64 = (0..10).map(|i| buffer.advantage(i)).sum::<f64>() / 10.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn ratio_exponential_matches_the_true_exponential() {
        for x in [-1.5f32, -0.2, 0.0, 0.3, 1.0] {
            let t = Tensor::parameter(Matrix::full(1, 1, x));
            let tape = Tape::new();
            let e = tape.param(&t).exp();
            assert!((e.get(0, 0) - x.exp()).abs() < 1e-3, "exp({x})");
            e.mean().backward();
            assert!((t.grad().get(0, 0) - x.exp()).abs() < 2e-2, "d exp({x})/dx");
        }
    }

    #[test]
    fn clamp_and_min_behave_like_their_scalar_counterparts() {
        let tape = Tape::new();
        for x in [-0.5f32, 0.9, 1.05, 1.5] {
            let t = tape.constant(Matrix::full(1, 1, x));
            let clamped = clamp(&t, 0.8, 1.2).get(0, 0);
            assert!((clamped - x.clamp(0.8, 1.2)).abs() < 1e-6);
        }
        let a = tape.constant(Matrix::full(1, 1, 0.7));
        let b = tape.constant(Matrix::full(1, 1, 0.3));
        assert!((min(&a, &b).get(0, 0) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn default_hyperparameters_match_table_4() {
        let c = PpoConfig::default();
        assert_eq!(c.learning_rate, 1e-4);
        assert_eq!(c.gamma, 0.99);
        assert_eq!(c.gae_lambda, 0.95);
        assert_eq!(c.clip_range, 0.2);
        assert_eq!(c.update_epochs, 20);
        assert_eq!(c.steps_per_update, 2048);
        assert_eq!(c.batch_size, 256);
    }
}
