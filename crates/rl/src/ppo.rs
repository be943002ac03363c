//! Proximal Policy Optimization (Section 7.1, Appendix G): rollout storage,
//! generalized advantage estimation, and the clipped-surrogate update.

use crate::env::Action;
use crate::policy::{Policy, PolicyConfig, PolicySnapshot};
use chehab_nn::{Adam, Forward, GradientLog, Matrix, Module, Tape, Tensor, Var};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

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

/// The PPO learner: owns the optimizer state for a policy, and the tape the
/// calling thread differentiates its share of each minibatch on.
///
/// A minibatch is differentiated one sample per tape, on a pool of threads
/// opened once per [`PpoLearner::update`]: the calling thread on the policy
/// itself, each other thread on a replica built from the policy's snapshot
/// and refreshed after every Adam step. A sample's backward pass logs its
/// contributions to the parameters instead of adding them, and the caller
/// adds the logs to the policy's gradients from the minibatch's last sample
/// down to its first — the order one tape holding the whole minibatch would
/// have added them in — so the trained weights do not depend on the number
/// of threads (`DESIGN.md` §3).
#[derive(Debug)]
pub struct PpoLearner {
    config: PpoConfig,
    optimizer: Adam,
    tape: Tape,
    /// Threads differentiating a minibatch, the caller included.
    workers: usize,
}

impl PpoLearner {
    /// Creates a learner for `policy`, differentiating on as many threads as
    /// the host runs in parallel (at most one per sample of a minibatch).
    pub fn new(policy: &Policy, config: PpoConfig) -> Self {
        let optimizer = Adam::new(policy.parameters(), config.learning_rate)
            .with_grad_clip(config.max_grad_norm);
        PpoLearner {
            config,
            optimizer,
            tape: Tape::new(),
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Differentiates on `workers` threads (at least one, the caller): how
    /// the equivalence suite holds the trained weights equal at every pool
    /// size.
    #[doc(hidden)]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
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
        let size = self.config.batch_size.clamp(1, n);
        let params = policy.parameters();
        let pool = Pool::new(policy, buffer, self.config, size);
        let (config, optimizer, tape) = (&self.config, &mut self.optimizer, &mut self.tape);
        thread::scope(|scope| {
            for _ in 1..self.workers.min(size) {
                scope.spawn(|| pool.work());
            }
            let _close = Close(&pool);
            let mut stats = UpdateStats::default();
            let mut updates = 0usize;
            for _ in 0..config.update_epochs {
                for start in (0..n).step_by(size) {
                    let s = pool.minibatch(policy, &params, tape, start..n.min(start + size));
                    optimizer.step();
                    pool.publish(&params);
                    stats.policy_loss += s.policy_loss;
                    stats.value_loss += s.value_loss;
                    stats.entropy += s.entropy;
                    updates += 1;
                }
            }
            if updates > 0 {
                stats.policy_loss /= updates as f32;
                stats.value_loss /= updates as f32;
                stats.entropy /= updates as f32;
            }
            stats
        })
    }
}

/// The minibatches of one update, shared by the threads differentiating them.
struct Pool<'a> {
    buffer: &'a RolloutBuffer,
    config: PpoConfig,
    /// What the replicas are built from.
    policy: PolicyConfig,
    state: Mutex<Round>,
    /// Wakes the workers: a minibatch is posted, or the pool is closed.
    posted: Condvar,
    /// Wakes the caller: a sample is differentiated, or the pool is closed.
    finished: Condvar,
}

/// The minibatch being differentiated.
struct Round {
    /// The policy's weights; a worker copies them into its replica whenever
    /// `version` moves past the one it copied.
    weights: Vec<Matrix>,
    version: usize,
    /// The minibatch's transitions.
    batch: Range<usize>,
    /// Samples not yet claimed: the next claim takes sample `unclaimed - 1`.
    unclaimed: usize,
    /// Each sample of the minibatch, once differentiated (one slot per
    /// sample of the largest minibatch).
    done: Vec<Option<Sample>>,
    /// Logs already replayed, for the next samples.
    spare: Vec<GradientLog>,
    /// The update is over, or a thread of it panicked.
    closed: bool,
}

/// A differentiated sample: its contributions to the parameters, and its
/// policy, value and entropy terms.
struct Sample {
    log: GradientLog,
    losses: [f32; 3],
}

/// Closes the pool when dropped — at the end of the update, or when a thread
/// panics — so that no thread waits for one that is gone.
struct Close<'p, 'a>(&'p Pool<'a>);

impl Drop for Close<'_, '_> {
    fn drop(&mut self) {
        lock(&self.0.state).closed = true;
        self.0.posted.notify_all();
        self.0.finished.notify_all();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'a> Pool<'a> {
    fn new(policy: &Policy, buffer: &'a RolloutBuffer, config: PpoConfig, size: usize) -> Self {
        Pool {
            buffer,
            config,
            policy: *policy.config(),
            state: Mutex::new(Round {
                weights: policy.state(),
                version: 0,
                batch: 0..0,
                unclaimed: 0,
                done: (0..size).map(|_| None).collect(),
                spare: Vec::new(),
                closed: false,
            }),
            posted: Condvar::new(),
            finished: Condvar::new(),
        }
    }

    /// Claims the next unclaimed sample (the minibatch's last one first),
    /// differentiates it on `policy` with the lock released, and files it.
    fn take<'p>(
        &'p self,
        mut round: MutexGuard<'p, Round>,
        policy: &Policy,
        params: &[Tensor],
        tape: &mut Tape,
    ) -> MutexGuard<'p, Round> {
        round.unclaimed -= 1;
        let index = round.unclaimed;
        let (i, count) = (round.batch.start + index, round.batch.len());
        let mut log = round.spare.pop().unwrap_or_default();
        drop(round);
        let losses = self.differentiate(policy, params, tape, i, count, &mut log);
        let mut round = lock(&self.state);
        round.done[index] = Some(Sample { log, losses });
        self.finished.notify_one();
        round
    }

    /// Copies the weights of the last Adam step out for the replicas.
    fn publish(&self, params: &[Tensor]) {
        let mut round = lock(&self.state);
        for (weights, p) in round.weights.iter_mut().zip(params) {
            weights.data_mut().copy_from_slice(p.borrow_value().data());
        }
        round.version += 1;
    }

    /// A worker thread: differentiates the samples it claims on a replica of
    /// the policy until the pool closes.
    fn work(&self) {
        let _close = Close(self);
        let (weights, mut version) = {
            let round = lock(&self.state);
            (round.weights.clone(), round.version)
        };
        let snapshot = PolicySnapshot {
            config: self.policy,
            weights,
        };
        let replica = Policy::from_snapshot(&snapshot).expect("a snapshot fits its own policy");
        let params = replica.parameters();
        let mut tape = Tape::new();
        let mut round = lock(&self.state);
        while !round.closed {
            if round.unclaimed == 0 {
                round = self
                    .posted
                    .wait(round)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if round.version != version {
                replica.load_state(&round.weights);
                version = round.version;
            }
            round = self.take(round, &replica, &params, &mut tape);
        }
    }

    /// The caller's part of a minibatch: posts it, differentiates samples
    /// alongside the workers, and adds every sample's log to the policy's
    /// gradients from the last sample down to the first, each as soon as the
    /// ones after it are in.
    fn minibatch(
        &self,
        policy: &Policy,
        params: &[Tensor],
        tape: &mut Tape,
        batch: Range<usize>,
    ) -> UpdateStats {
        policy.zero_grad();
        let count = batch.len();
        let mut losses = vec![[0.0f32; 3]; count];
        let mut round = lock(&self.state);
        round.batch = batch;
        round.unclaimed = count;
        self.posted.notify_all();
        let mut next = count;
        while next > 0 {
            if let Some(sample) = round.done[next - 1].take() {
                drop(round);
                sample.log.replay(params);
                next -= 1;
                losses[next] = sample.losses;
                round = lock(&self.state);
                round.spare.push(sample.log);
            } else if round.unclaimed > 0 {
                round = self.take(round, policy, params, tape);
            } else {
                assert!(!round.closed, "a PPO worker thread panicked");
                round = self
                    .finished
                    .wait(round)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        drop(round);
        // The terms summed in sample order, then scaled: what the one tape
        // of the whole minibatch would have read off its loss nodes.
        let mean = 1.0 / count as f32;
        let sum = |k: usize| {
            losses
                .iter()
                .map(|l| l[k])
                .reduce(|a, b| a + b)
                .unwrap_or(0.0)
        };
        UpdateStats {
            policy_loss: sum(0) * mean,
            value_loss: sum(1) * mean,
            entropy: sum(2) * mean,
        }
    }

    /// Differentiates transition `i`'s share of the loss of its minibatch
    /// of `count` on `tape`, logging its contributions to `params` (those
    /// of `policy`): returns its policy, value and entropy terms.
    fn differentiate(
        &self,
        policy: &Policy,
        params: &[Tensor],
        tape: &mut Tape,
        i: usize,
        count: usize,
        log: &mut GradientLog,
    ) -> [f32; 3] {
        tape.clear();
        let tape = &*tape;
        let (config, buffer) = (&self.config, self.buffer);
        let scalar = |value: f32| tape.constant(Matrix::full(1, 1, value));
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
            1.0 - config.clip_range as f32,
            1.0 + config.clip_range as f32,
        );
        let advantage = scalar(buffer.advantage(i) as f32);
        let policy_loss = min(&ratio.mul(&advantage), &clipped.mul(&advantage)).scale(-1.0);
        let value_diff = eval.value.sub(&scalar(buffer.return_at(i) as f32));
        let losses = [policy_loss, value_diff.mul(&value_diff), eval.entropy];
        // The minibatch's loss with this sample's terms for its three sums:
        // on one tape of the whole minibatch the sample gets these seeds, and
        // its nodes are visited in this order (entropy, value, policy).
        let [policy_loss, value_loss, entropy] = losses.map(|l| l.scale(1.0 / count as f32));
        let total = policy_loss
            .add(&value_loss.scale(config.value_coefficient))
            .sub(&entropy.scale(config.entropy_coefficient));
        log.clear();
        total.backward_into(params, log);
        losses.map(|l| l.get(0, 0))
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
