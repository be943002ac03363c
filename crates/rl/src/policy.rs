//! Actor-critic policy networks (Section 5.4).
//!
//! The default policy is *hierarchical*: a rule-selection head picks one of
//! the 84+ rewrite rules (or `END`), and a location-selection head —
//! conditioned on the chosen rule — picks which match of that rule to apply.
//! The *flat* policy of the Section 7.6 ablation enumerates `(rule, location)`
//! pairs in one output layer. Both share a sequence encoder (Transformer by
//! default, GRU for the Appendix I.1 comparison) and a value head (the
//! critic, used only during training).

use crate::env::Action;
use chehab_nn::{
    Activation, Forward, GruEncoder, Matrix, Mlp, Module, SequenceEncoder, Tape, Tensor,
    TransformerConfig, TransformerEncoder, Var,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which sequence encoder the policy uses for the program embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderArch {
    /// Self-attention encoder (the paper's choice).
    Transformer {
        /// Number of encoder layers.
        layers: usize,
        /// Number of attention heads.
        heads: usize,
    },
    /// Recurrent baseline.
    Gru {
        /// Number of stacked GRU layers.
        layers: usize,
    },
}

/// Whether the action space is factored into rule × location or flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionSpaceKind {
    /// Rule head plus location head (the paper's design).
    Hierarchical,
    /// One head over every `(rule, location)` pair plus `END`.
    Flat,
}

/// Architecture hyper-parameters of a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Token vocabulary size.
    pub vocab_size: usize,
    /// Program embedding dimension (the paper uses 256).
    pub embedding_dim: usize,
    /// Sequence encoder architecture.
    pub encoder: EncoderArch,
    /// Factored or flat action space.
    pub action_space: ActionSpaceKind,
    /// Number of rewrite rules (the `END` action is added on top).
    pub rule_count: usize,
    /// Maximum number of addressable match locations.
    pub max_locations: usize,
    /// Observation length in tokens.
    pub observation_len: usize,
}

impl PolicyConfig {
    /// The paper's configuration: Transformer with 4 layers / 8 heads and a
    /// 256-d embedding, hierarchical action space.
    pub fn paper(vocab_size: usize, rule_count: usize, max_locations: usize) -> Self {
        PolicyConfig {
            vocab_size,
            embedding_dim: 256,
            encoder: EncoderArch::Transformer {
                layers: 4,
                heads: 8,
            },
            action_space: ActionSpaceKind::Hierarchical,
            rule_count,
            max_locations,
            observation_len: 256,
        }
    }

    /// A small configuration for fast training in tests and the scaled-down
    /// experiment harness.
    pub fn small(vocab_size: usize, rule_count: usize, max_locations: usize) -> Self {
        PolicyConfig {
            vocab_size,
            embedding_dim: 32,
            encoder: EncoderArch::Transformer {
                layers: 1,
                heads: 2,
            },
            action_space: ActionSpaceKind::Hierarchical,
            rule_count,
            max_locations,
            observation_len: 96,
        }
    }

    /// Switches to a flat action space (Figure 13 ablation).
    pub fn flat(mut self) -> Self {
        self.action_space = ActionSpaceKind::Flat;
        self
    }

    /// Switches to a GRU encoder.
    pub fn with_gru(mut self, layers: usize) -> Self {
        self.encoder = EncoderArch::Gru { layers };
        self
    }
}

/// A sampled action together with the quantities PPO stores in its rollout
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct ActionSample {
    /// The chosen action.
    pub action: Action,
    /// Log-probability of the action under the current policy.
    pub log_prob: f32,
    /// The critic's value estimate of the state.
    pub value: f32,
}

/// What the policy computes from an observation alone, before any mask or
/// random draw enters: the program embedding and the logits of the first
/// action head. A compile-time search keeps one per distinct observation
/// ([`Policy::infer`] once, [`Policy::choose`] at every visit).
#[derive(Debug, Clone)]
pub struct PolicyOutputs {
    embedding: Matrix,
    logits: Matrix,
}

/// Differentiable evaluation of a stored action (used by PPO updates):
/// three scalars on the tape the evaluation was recorded on.
#[derive(Debug, Clone, Copy)]
pub struct ActionEvaluation<'t> {
    /// Log-probability of the action.
    pub log_prob: Var<'t>,
    /// Entropy of the action distribution.
    pub entropy: Var<'t>,
    /// The critic's value estimate.
    pub value: Var<'t>,
}

/// The actor-critic policy.
#[derive(Debug)]
pub struct Policy {
    config: PolicyConfig,
    encoder: SequenceEncoder,
    rule_head: Mlp,
    location_head: Mlp,
    flat_head: Option<Mlp>,
    critic: Mlp,
}

impl Policy {
    /// Builds a policy with freshly initialized weights.
    pub fn new(config: PolicyConfig, rng: &mut impl Rng) -> Self {
        let encoder = match config.encoder {
            EncoderArch::Transformer { layers, heads } => {
                let tc = TransformerConfig {
                    vocab_size: config.vocab_size,
                    model_dim: config.embedding_dim,
                    num_heads: heads,
                    num_layers: layers,
                    ffn_dim: config.embedding_dim * 2,
                    max_len: config.observation_len,
                };
                SequenceEncoder::Transformer(TransformerEncoder::new(tc, rng))
            }
            EncoderArch::Gru { layers } => SequenceEncoder::Gru(GruEncoder::new(
                config.vocab_size,
                config.embedding_dim,
                layers,
                config.observation_len,
                rng,
            )),
        };
        let emb = config.embedding_dim;
        let rule_out = config.rule_count + 1;
        let rule_head = Mlp::new(&[emb, 128, 64, rule_out], Activation::Relu, rng);
        let location_head = Mlp::new(
            &[emb + rule_out, 64, 64, config.max_locations],
            Activation::Relu,
            rng,
        );
        let flat_head = matches!(config.action_space, ActionSpaceKind::Flat).then(|| {
            Mlp::new(
                &[emb, 128, 64, config.rule_count * config.max_locations + 1],
                Activation::Relu,
                rng,
            )
        });
        let critic = Mlp::new(&[emb, 256, 128, 64, 1], Activation::Relu, rng);
        Policy {
            config,
            encoder,
            rule_head,
            location_head,
            flat_head,
            critic,
        }
    }

    /// The policy's architecture configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The critic's value estimate for an observation.
    pub fn value(&self, obs: &[usize]) -> f32 {
        self.critic_value(&self.encoder.infer(obs))
    }

    fn critic_value<V: Forward>(&self, embedding: &V) -> f32 {
        self.critic.forward(embedding).to_matrix().get(0, 0)
    }

    /// Logits of the head the action choice starts from: the rule head, or
    /// the flat head of a flat policy.
    fn first_head_logits<V: Forward>(&self, embedding: &V) -> Matrix {
        self.flat_head
            .as_ref()
            .unwrap_or(&self.rule_head)
            .forward(embedding)
            .to_matrix()
    }

    fn masked_distribution(logits: &[f32], mask: impl Fn(usize) -> bool) -> Vec<f32> {
        let mut masked: Vec<f32> = logits
            .iter()
            .enumerate()
            .map(|(i, &l)| if mask(i) { l } else { f32::NEG_INFINITY })
            .collect();
        let max = masked.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if !max.is_finite() {
            // Nothing is valid; fall back to uniform to avoid NaNs.
            let p = 1.0 / masked.len() as f32;
            return vec![p; masked.len()];
        }
        let mut denom = 0.0;
        for v in masked.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        masked.iter().map(|v| v / denom.max(1e-12)).collect()
    }

    fn sample_index(probs: &[f32], rng: &mut impl Rng, deterministic: bool) -> usize {
        if deterministic {
            return probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
        }
        let draw: f32 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if draw <= acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// Runs the network on an observation, without a tape: everything about
    /// a decision that depends on the observation only.
    pub fn infer(&self, obs: &[usize]) -> PolicyOutputs {
        let embedding = self.encoder.infer(obs);
        let logits = self.first_head_logits(&embedding);
        PolicyOutputs { embedding, logits }
    }

    /// Picks an action and returns it with its log-probability.
    ///
    /// `rule_mask` must have length `rule_count + 1` (the last entry is
    /// `END`); `location_count(rule)` reports how many matches the rule has.
    /// Draws from `rng` once per sampled head (never when `deterministic`).
    pub fn choose(
        &self,
        outputs: &PolicyOutputs,
        rule_mask: &[bool],
        location_count: impl Fn(usize) -> usize,
        rng: &mut impl Rng,
        deterministic: bool,
    ) -> (Action, f32) {
        self.choose_from(
            &outputs.embedding,
            &outputs.logits,
            rule_mask,
            location_count,
            rng,
            deterministic,
        )
    }

    fn choose_from<V: Forward>(
        &self,
        embedding: &V,
        logits: &Matrix,
        rule_mask: &[bool],
        location_count: impl Fn(usize) -> usize,
        rng: &mut impl Rng,
        deterministic: bool,
    ) -> (Action, f32) {
        match self.config.action_space {
            ActionSpaceKind::Hierarchical => {
                let rule_probs = Self::masked_distribution(logits.data(), |i| {
                    rule_mask.get(i).copied().unwrap_or(false)
                });
                let rule = Self::sample_index(&rule_probs, rng, deterministic);
                if rule == self.config.rule_count {
                    return (Action::Stop, rule_probs[rule].max(1e-12).ln());
                }
                let locations = location_count(rule).max(1).min(self.config.max_locations);
                let loc_logits = self.location_logits(embedding, rule).to_matrix();
                let loc_probs = Self::masked_distribution(loc_logits.data(), |i| i < locations);
                let location = Self::sample_index(&loc_probs, rng, deterministic);
                (
                    Action::Apply { rule, location },
                    (rule_probs[rule].max(1e-12) * loc_probs[location].max(1e-12)).ln(),
                )
            }
            ActionSpaceKind::Flat => {
                let stop_index = self.config.rule_count * self.config.max_locations;
                let probs = Self::masked_distribution(logits.data(), |i| {
                    if i == stop_index {
                        true
                    } else {
                        let rule = i / self.config.max_locations;
                        let loc = i % self.config.max_locations;
                        rule_mask.get(rule).copied().unwrap_or(false) && loc < location_count(rule)
                    }
                });
                let index = Self::sample_index(&probs, rng, deterministic);
                let action = if index == stop_index {
                    Action::Stop
                } else {
                    Action::Apply {
                        rule: index / self.config.max_locations,
                        location: index % self.config.max_locations,
                    }
                };
                (action, probs[index].max(1e-12).ln())
            }
        }
    }

    /// Samples an action for an observation: [`Policy::infer`], the
    /// critic, then [`Policy::choose`] (same arguments).
    pub fn act(
        &self,
        obs: &[usize],
        rule_mask: &[bool],
        location_count: impl Fn(usize) -> usize,
        rng: &mut impl Rng,
        deterministic: bool,
    ) -> ActionSample {
        let outputs = self.infer(obs);
        let value = self.critic_value(&outputs.embedding);
        let (action, log_prob) =
            self.choose(&outputs, rule_mask, location_count, rng, deterministic);
        ActionSample {
            action,
            log_prob,
            value,
        }
    }

    /// [`Policy::act`] with the network recorded on an autodiff tape, every
    /// position through every layer — neither of the shortcuts `act` takes
    /// (no tape; only the `CLS` row of the last Transformer layer). Kept as
    /// the reference the equivalence suites compare `act` (and whole compiles
    /// and training runs) against, bit for bit.
    pub fn act_on_tape(
        &self,
        obs: &[usize],
        rule_mask: &[bool],
        location_count: impl Fn(usize) -> usize,
        rng: &mut impl Rng,
        deterministic: bool,
    ) -> ActionSample {
        let tape = Tape::new();
        let embedding = self.encoder.encode_all_rows(&tape, obs);
        let value = self.critic_value(&embedding);
        let logits = self.first_head_logits(&embedding);
        let (action, log_prob) = self.choose_from(
            &embedding,
            &logits,
            rule_mask,
            location_count,
            rng,
            deterministic,
        );
        ActionSample {
            action,
            log_prob,
            value,
        }
    }

    fn location_logits<V: Forward>(&self, embedding: &V, rule: usize) -> V {
        let mut one_hot = Matrix::zeros(1, self.config.rule_count + 1);
        one_hot.set(0, rule, 1.0);
        let input = V::concat_cols(&[embedding.clone(), V::constant(embedding.tape(), one_hot)]);
        self.location_head.forward(&input)
    }

    /// Differentiable re-evaluation of a stored transition (used by PPO),
    /// recorded on `tape`: the log-probability and entropy of `action` under
    /// the current parameters plus the value estimate. The encoder computes
    /// only what pooling reads (the `CLS` row of the last Transformer layer);
    /// values and parameter gradients are those of the all-rows evaluation,
    /// bit for bit.
    pub fn evaluate<'t>(
        &self,
        tape: &'t Tape,
        obs: &[usize],
        action: Action,
        rule_mask: &[bool],
        location_count_for_rule: usize,
    ) -> ActionEvaluation<'t> {
        let embedding = self.encoder.encode(tape, obs);
        self.evaluate_embedding(embedding, action, rule_mask, location_count_for_rule)
    }

    /// [`Policy::evaluate`] with every position run through every encoder
    /// layer: the reference the equivalence suite's PPO update is built on.
    #[doc(hidden)]
    pub fn evaluate_all_rows<'t>(
        &self,
        tape: &'t Tape,
        obs: &[usize],
        action: Action,
        rule_mask: &[bool],
        location_count_for_rule: usize,
    ) -> ActionEvaluation<'t> {
        let embedding = self.encoder.encode_all_rows(tape, obs);
        self.evaluate_embedding(embedding, action, rule_mask, location_count_for_rule)
    }

    fn evaluate_embedding<'t>(
        &self,
        embedding: Var<'t>,
        action: Action,
        rule_mask: &[bool],
        location_count_for_rule: usize,
    ) -> ActionEvaluation<'t> {
        let value = self.critic.forward(&embedding);
        match self.config.action_space {
            ActionSpaceKind::Hierarchical => {
                let rule_logits = self.rule_head.forward(&embedding);
                let rule_probs = Self::masked_softmax(&rule_logits, |i| {
                    rule_mask.get(i).copied().unwrap_or(false)
                });
                let log_rule_probs = rule_probs.ln();
                let rule_entropy = rule_probs.mul(&log_rule_probs).sum().scale(-1.0);
                match action {
                    Action::Stop => {
                        let idx = self.config.rule_count;
                        let log_prob = log_rule_probs.slice_cols(idx, idx + 1).sum();
                        ActionEvaluation {
                            log_prob,
                            entropy: rule_entropy,
                            value,
                        }
                    }
                    Action::Apply { rule, location } => {
                        let locations = location_count_for_rule
                            .max(1)
                            .min(self.config.max_locations);
                        let loc_logits = self.location_logits(&embedding, rule);
                        let loc_probs = Self::masked_softmax(&loc_logits, |i| i < locations);
                        let log_loc_probs = loc_probs.ln();
                        let loc_entropy = loc_probs.mul(&log_loc_probs).sum().scale(-1.0);
                        let log_prob = log_rule_probs
                            .slice_cols(rule, rule + 1)
                            .sum()
                            .add(&log_loc_probs.slice_cols(location, location + 1).sum());
                        ActionEvaluation {
                            log_prob,
                            entropy: rule_entropy.add(&loc_entropy),
                            value,
                        }
                    }
                }
            }
            ActionSpaceKind::Flat => {
                let head = self
                    .flat_head
                    .as_ref()
                    .expect("flat head exists for flat policies");
                let logits = head.forward(&embedding);
                let stop_index = self.config.rule_count * self.config.max_locations;
                let max_locations = self.config.max_locations;
                let probs = Self::masked_softmax(&logits, |i| {
                    if i == stop_index {
                        true
                    } else {
                        let rule = i / max_locations;
                        rule_mask.get(rule).copied().unwrap_or(false)
                    }
                });
                let log_probs = probs.ln();
                let entropy = probs.mul(&log_probs).sum().scale(-1.0);
                let index = match action {
                    Action::Stop => stop_index,
                    Action::Apply { rule, location } => rule * max_locations + location,
                };
                let log_prob = log_probs.slice_cols(index, index + 1).sum();
                ActionEvaluation {
                    log_prob,
                    entropy,
                    value,
                }
            }
        }
    }

    fn masked_softmax<'t>(logits: &Var<'t>, mask: impl Fn(usize) -> bool) -> Var<'t> {
        let (_, cols) = logits.shape();
        let mut offset = Matrix::zeros(1, cols);
        for c in 0..cols {
            if !mask(c) {
                offset.set(0, c, -1e9);
            }
        }
        logits.add(&logits.tape().constant(offset)).softmax_rows()
    }
}

impl Module for Policy {
    fn parameters(&self) -> Vec<Tensor> {
        let mut params = self.encoder.parameters();
        params.extend(self.rule_head.parameters());
        params.extend(self.location_head.parameters());
        if let Some(flat) = &self.flat_head {
            params.extend(flat.parameters());
        }
        params.extend(self.critic.parameters());
        params
    }
}

/// A serializable snapshot of a policy: its architecture plus every weight
/// matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// Architecture description.
    pub config: PolicyConfig,
    /// Parameter matrices in [`Module::parameters`] order.
    pub weights: Vec<Matrix>,
}

impl Policy {
    /// Captures a snapshot of the policy.
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            config: self.config,
            weights: self.state(),
        }
    }

    /// Restores a policy from a snapshot.
    pub fn from_snapshot(snapshot: &PolicySnapshot) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let policy = Policy::new(snapshot.config, &mut rng);
        policy.load_state(&snapshot.weights);
        policy
    }

    /// Serializes the policy to a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = serde_json::to_string(&self.snapshot())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Loads a policy from a JSON file written by [`Policy::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let snapshot: PolicySnapshot = serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Policy::from_snapshot(&snapshot))
    }
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::ChaCha8Rng;

    fn small_policy(kind: ActionSpaceKind) -> Policy {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut config = PolicyConfig::small(32, 10, 4);
        config.action_space = kind;
        Policy::new(config, &mut rng)
    }

    #[test]
    fn hierarchical_policy_samples_valid_actions() {
        let policy = small_policy(ActionSpaceKind::Hierarchical);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut mask = vec![false; 11];
        mask[3] = true;
        mask[10] = true; // END
        for _ in 0..20 {
            let sample = policy.act(&[1, 2, 3], &mask, |_| 2, &mut rng, false);
            match sample.action {
                Action::Stop => {}
                Action::Apply { rule, location } => {
                    assert_eq!(rule, 3, "only rule 3 is unmasked");
                    assert!(location < 2);
                }
            }
            assert!(sample.log_prob <= 0.0);
            assert!(sample.value.is_finite());
        }
    }

    #[test]
    fn deterministic_sampling_is_reproducible() {
        let policy = small_policy(ActionSpaceKind::Hierarchical);
        let mask = vec![true; 11];
        let mut rng_a = ChaCha8Rng::seed_from_u64(3);
        let mut rng_b = ChaCha8Rng::seed_from_u64(99);
        let a = policy.act(&[1, 2, 3], &mask, |_| 3, &mut rng_a, true);
        let b = policy.act(&[1, 2, 3], &mask, |_| 3, &mut rng_b, true);
        assert_eq!(a.action, b.action);
    }

    #[test]
    fn flat_policy_samples_and_evaluates() {
        let policy = small_policy(ActionSpaceKind::Flat);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mask = vec![true; 11];
        let sample = policy.act(&[5, 6], &mask, |_| 4, &mut rng, false);
        let tape = Tape::new();
        let eval = policy.evaluate(&tape, &[5, 6], sample.action, &mask, 4);
        assert!(eval.log_prob.get(0, 0) <= 0.0);
        assert!(eval.entropy.get(0, 0) >= 0.0);
    }

    #[test]
    fn evaluate_log_prob_matches_act_log_prob() {
        let policy = small_policy(ActionSpaceKind::Hierarchical);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mask = vec![true; 11];
        let obs = [1usize, 2, 3, 4];
        let sample = policy.act(&obs, &mask, |_| 3, &mut rng, false);
        let loc_count = match sample.action {
            Action::Apply { .. } => 3,
            Action::Stop => 0,
        };
        let tape = Tape::new();
        let eval = policy.evaluate(&tape, &obs, sample.action, &mask, loc_count);
        assert!(
            (eval.log_prob.get(0, 0) - sample.log_prob).abs() < 1e-4,
            "act and evaluate must agree on the action's log-probability"
        );
    }

    #[test]
    fn gradients_flow_through_evaluation() {
        let policy = small_policy(ActionSpaceKind::Hierarchical);
        policy.zero_grad();
        let mask = vec![true; 11];
        let tape = Tape::new();
        let eval = policy.evaluate(
            &tape,
            &[1, 2],
            Action::Apply {
                rule: 2,
                location: 1,
            },
            &mask,
            3,
        );
        eval.log_prob.scale(-1.0).backward();
        let nonzero = policy
            .parameters()
            .iter()
            .filter(|p| p.borrow_grad().norm() > 0.0)
            .count();
        assert!(nonzero > 0, "policy gradient must reach the parameters");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let policy = small_policy(ActionSpaceKind::Hierarchical);
        let dir = std::env::temp_dir().join("chehab_rl_policy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        policy.save(&path).unwrap();
        let restored = Policy::load(&path).unwrap();
        let mask = vec![true; 11];
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = policy.act(&[1, 2, 3], &mask, |_| 2, &mut rng, true);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let b = restored.act(&[1, 2, 3], &mask, |_| 2, &mut rng, true);
        assert_eq!(a.action, b.action);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paper_config_matches_section_5() {
        let c = PolicyConfig::paper(160, 89, 16);
        assert_eq!(c.embedding_dim, 256);
        assert!(matches!(
            c.encoder,
            EncoderArch::Transformer {
                layers: 4,
                heads: 8
            }
        ));
        assert_eq!(c.action_space, ActionSpaceKind::Hierarchical);
    }
}
