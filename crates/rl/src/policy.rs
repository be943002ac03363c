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
    Activation, EncoderRows, Forward, GruEncoder, Matrix, Mlp, Module, SequenceEncoder, Tape,
    Tensor, TransformerConfig, TransformerEncoder, Var,
};
use rand::Rng;
use serde_json::{Error, Value};

/// Which sequence encoder the policy uses for the program embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionSpaceKind {
    /// Rule head plus location head (the paper's design).
    Hierarchical,
    /// One head over every `(rule, location)` pair plus `END`.
    Flat,
}

/// Architecture hyper-parameters of a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// a decision that depends on the observation only. A Transformer
    /// encoder reads its first layer's rows from `rows` where an earlier
    /// observation under the same weights computed them, and keeps the ones
    /// it computes there ([`EncoderRows`]); the outputs are those of a fresh
    /// table, bit for bit.
    pub fn infer(&self, obs: &[usize], rows: &mut EncoderRows) -> PolicyOutputs {
        self.outputs(self.encoder.infer_with(rows, obs))
    }

    fn outputs(&self, embedding: Matrix) -> PolicyOutputs {
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
                    self.flat_legal(i, rule_mask, &location_count)
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

    /// Samples an action for an observation: the network's outputs (those
    /// of [`Policy::infer`]), the critic, then [`Policy::choose`] (same
    /// arguments).
    pub fn act(
        &self,
        obs: &[usize],
        rule_mask: &[bool],
        location_count: impl Fn(usize) -> usize,
        rng: &mut impl Rng,
        deterministic: bool,
    ) -> ActionSample {
        let outputs = self.outputs(self.encoder.infer(obs));
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

    /// Whether the flat head's output `i` is a legal action: `END`, or a
    /// match location of an applicable rule. Sampling ([`Policy::act`]) and
    /// re-evaluation ([`Policy::evaluate`]) mask by this one rule, so a PPO
    /// ratio compares two probabilities of the same distribution.
    fn flat_legal(
        &self,
        i: usize,
        rule_mask: &[bool],
        location_count: impl Fn(usize) -> usize,
    ) -> bool {
        let max_locations = self.config.max_locations;
        let rule = i / max_locations;
        i == self.config.rule_count * max_locations
            || (rule_mask.get(rule).copied().unwrap_or(false)
                && i % max_locations < location_count(rule))
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
    /// bit for bit. `rule_mask` and `location_counts` (entry `r`: what
    /// `location_count(r)` reported to [`Policy::act`], for every rule) are
    /// the ones the action was sampled under.
    pub fn evaluate<'t>(
        &self,
        tape: &'t Tape,
        obs: &[usize],
        action: Action,
        rule_mask: &[bool],
        location_counts: &[usize],
    ) -> ActionEvaluation<'t> {
        let embedding = self.encoder.encode(tape, obs);
        self.evaluate_embedding(embedding, action, rule_mask, location_counts)
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
        location_counts: &[usize],
    ) -> ActionEvaluation<'t> {
        let embedding = self.encoder.encode_all_rows(tape, obs);
        self.evaluate_embedding(embedding, action, rule_mask, location_counts)
    }

    fn evaluate_embedding<'t>(
        &self,
        embedding: Var<'t>,
        action: Action,
        rule_mask: &[bool],
        location_counts: &[usize],
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
                        let locations = location_counts[rule].max(1).min(self.config.max_locations);
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
                    self.flat_legal(i, rule_mask, |rule| location_counts[rule])
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

/// A snapshot of a policy: its architecture plus every weight matrix. Its
/// JSON form is the policy file ([`Policy::save`]).
#[derive(Debug, Clone)]
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
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::ErrorKind::InvalidData`] error if the number or
    /// shapes of the weights disagree with the config's architecture.
    pub fn from_snapshot(snapshot: &PolicySnapshot) -> std::io::Result<Self> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let policy = Policy::new(snapshot.config, &mut rng);
        let params = policy.parameters();
        if params.len() != snapshot.weights.len() {
            return Err(invalid_data(format!(
                "{} weight matrices, the architecture has {}",
                snapshot.weights.len(),
                params.len()
            )));
        }
        for (i, (p, m)) in params.iter().zip(&snapshot.weights).enumerate() {
            if p.shape() != (m.rows(), m.cols()) {
                return Err(invalid_data(format!(
                    "weight {i} is {}x{}, the architecture has {:?}",
                    m.rows(),
                    m.cols(),
                    p.shape()
                )));
            }
        }
        policy.load_state(&snapshot.weights);
        Ok(policy)
    }

    /// Writes the policy to a JSON file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(&self.snapshot().to_json()))
    }

    /// Loads a policy from a JSON file written by [`Policy::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and returns an
    /// [`std::io::ErrorKind::InvalidData`] error if the file is not a policy
    /// file or its weights do not fit its architecture.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let value = serde_json::from_str(&json).map_err(invalid_data)?;
        Policy::from_snapshot(&PolicySnapshot::from_json(&value).map_err(invalid_data)?)
    }
}

fn invalid_data(error: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, error)
}

// The policy file format. Structs are objects with their fields in
// declaration order, unit variants are strings, struct variants are
// single-key objects, a `usize` is an integer and an `f32` a float widened
// to `f64` (which parses back to the same bits).

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn int(n: usize) -> Value {
    Value::Int(n as i64)
}

fn usize_field(value: &Value, name: &str) -> Result<usize, Error> {
    match *value.field(name)? {
        Value::Int(n) => usize::try_from(n).ok(),
        _ => None,
    }
    .ok_or_else(|| Error::msg(format!("`{name}` is not a count")))
}

fn as_f32(value: &Value) -> Result<f32, Error> {
    match *value {
        Value::Float(x) => Ok(x as f32),
        Value::Int(x) => Ok(x as f32),
        _ => Err(Error::msg("matrix entry is not a number")),
    }
}

impl EncoderArch {
    fn to_json(self) -> Value {
        match self {
            EncoderArch::Transformer { layers, heads } => object(vec![(
                "Transformer",
                object(vec![("layers", int(layers)), ("heads", int(heads))]),
            )]),
            EncoderArch::Gru { layers } => {
                object(vec![("Gru", object(vec![("layers", int(layers))]))])
            }
        }
    }

    fn from_json(value: &Value) -> Result<Self, Error> {
        let unknown = || Error::msg(format!("unknown encoder {value:?}"));
        let Value::Object(fields) = value else {
            return Err(unknown());
        };
        let [(tag, body)] = fields.as_slice() else {
            return Err(unknown());
        };
        match tag.as_str() {
            "Transformer" => Ok(EncoderArch::Transformer {
                layers: usize_field(body, "layers")?,
                heads: usize_field(body, "heads")?,
            }),
            "Gru" => Ok(EncoderArch::Gru {
                layers: usize_field(body, "layers")?,
            }),
            _ => Err(unknown()),
        }
    }
}

impl ActionSpaceKind {
    fn to_json(self) -> Value {
        let tag = match self {
            ActionSpaceKind::Hierarchical => "Hierarchical",
            ActionSpaceKind::Flat => "Flat",
        };
        Value::Str(tag.to_string())
    }

    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(tag) if tag == "Hierarchical" => Ok(ActionSpaceKind::Hierarchical),
            Value::Str(tag) if tag == "Flat" => Ok(ActionSpaceKind::Flat),
            _ => Err(Error::msg(format!("unknown action space {value:?}"))),
        }
    }
}

impl PolicyConfig {
    fn to_json(self) -> Value {
        object(vec![
            ("vocab_size", int(self.vocab_size)),
            ("embedding_dim", int(self.embedding_dim)),
            ("encoder", self.encoder.to_json()),
            ("action_space", self.action_space.to_json()),
            ("rule_count", int(self.rule_count)),
            ("max_locations", int(self.max_locations)),
            ("observation_len", int(self.observation_len)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, Error> {
        let config = PolicyConfig {
            vocab_size: usize_field(value, "vocab_size")?,
            embedding_dim: usize_field(value, "embedding_dim")?,
            encoder: EncoderArch::from_json(value.field("encoder")?)?,
            action_space: ActionSpaceKind::from_json(value.field("action_space")?)?,
            rule_count: usize_field(value, "rule_count")?,
            max_locations: usize_field(value, "max_locations")?,
            observation_len: usize_field(value, "observation_len")?,
        };
        match config.encoder {
            EncoderArch::Transformer { heads, .. }
                if heads == 0 || !config.embedding_dim.is_multiple_of(heads) =>
            {
                Err(Error::msg("attention heads must divide the embedding"))
            }
            _ => Ok(config),
        }
    }
}

fn matrix_to_json(m: &Matrix) -> Value {
    object(vec![
        ("rows", int(m.rows())),
        ("cols", int(m.cols())),
        (
            "data",
            Value::Array(m.data().iter().map(|&x| Value::Float(x as f64)).collect()),
        ),
    ])
}

fn matrix_from_json(value: &Value) -> Result<Matrix, Error> {
    let (rows, cols) = (usize_field(value, "rows")?, usize_field(value, "cols")?);
    let data = value
        .field("data")?
        .as_array("data")?
        .iter()
        .map(as_f32)
        .collect::<Result<Vec<f32>, Error>>()?;
    let len = data.len();
    Matrix::try_from_vec(rows, cols, data)
        .ok_or_else(|| Error::msg(format!("a {rows}x{cols} matrix with {len} entries")))
}

impl PolicySnapshot {
    fn to_json(&self) -> Value {
        object(vec![
            ("config", self.config.to_json()),
            (
                "weights",
                Value::Array(self.weights.iter().map(matrix_to_json).collect()),
            ),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, Error> {
        Ok(PolicySnapshot {
            config: PolicyConfig::from_json(value.field("config")?)?,
            weights: value
                .field("weights")?
                .as_array("weights")?
                .iter()
                .map(matrix_from_json)
                .collect::<Result<_, _>>()?,
        })
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
        let eval = policy.evaluate(&tape, &[5, 6], sample.action, &mask, &[4; 10]);
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
        let tape = Tape::new();
        let eval = policy.evaluate(&tape, &obs, sample.action, &mask, &[3; 10]);
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
            &[3; 10],
        );
        eval.log_prob.scale(-1.0).backward();
        let nonzero = policy
            .parameters()
            .iter()
            .filter(|p| p.borrow_grad().norm() > 0.0)
            .count();
        assert!(nonzero > 0, "policy gradient must reach the parameters");
    }

    /// Saves `policy`, loads it back and removes the file.
    fn save_and_load(policy: &Policy, name: &str) -> Policy {
        let path = std::env::temp_dir().join(format!("chehab_rl_policy_{name}.json"));
        policy.save(&path).unwrap();
        let restored = Policy::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        restored
    }

    fn weight_bits(policy: &Policy) -> Vec<(usize, usize, Vec<u32>)> {
        policy
            .state()
            .iter()
            .map(|m| {
                let bits = m.data().iter().map(|x| x.to_bits()).collect();
                (m.rows(), m.cols(), bits)
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let base = PolicyConfig::small(32, 10, 4);
        for (name, config) in [
            ("hierarchical", base),
            ("flat", base.flat()),
            ("gru", base.with_gru(2)),
        ] {
            let policy = Policy::new(config, &mut ChaCha8Rng::seed_from_u64(1));
            let restored = save_and_load(&policy, name);
            assert_eq!(restored.config, config, "{name}");
            assert_eq!(weight_bits(&restored), weight_bits(&policy), "{name}");
        }
    }

    /// The FNV-1a 64 hash of the policy file of one seeded small policy, as
    /// written before the file format was converted by hand: a drift in the
    /// format changes it.
    #[test]
    fn the_policy_file_format_is_pinned() {
        let policy = small_policy(ActionSpaceKind::Hierarchical);
        let path = std::env::temp_dir().join("chehab_rl_policy_pinned.json");
        policy.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(bytes.len(), 1_622_406);
        assert_eq!(hash, 0x885d_897a_9c35_45a9);
    }

    /// Saves a small policy, changes its JSON form by `edit`, and checks the
    /// load fails with `InvalidData` saying `expected`.
    fn load_edited(name: &str, expected: &str, edit: impl FnOnce(&mut Value)) {
        let mut value = small_policy(ActionSpaceKind::Hierarchical)
            .snapshot()
            .to_json();
        edit(&mut value);
        load_text(name, &serde_json::to_string(&value), expected);
    }

    fn load_text(name: &str, text: &str, expected: &str) {
        let path = std::env::temp_dir().join(format!("chehab_rl_policy_bad_{name}.json"));
        std::fs::write(&path, text).unwrap();
        let result = Policy::load(&path);
        std::fs::remove_file(&path).ok();
        let error = result.expect_err(name);
        assert_eq!(
            error.kind(),
            std::io::ErrorKind::InvalidData,
            "{name}: {error}"
        );
        assert!(error.to_string().contains(expected), "{name}: {error}");
    }

    fn field_mut<'v>(value: &'v mut Value, name: &str) -> &'v mut Value {
        let Value::Object(fields) = value else {
            panic!("not an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    fn first_weight(value: &mut Value) -> &mut Value {
        let Value::Array(weights) = field_mut(value, "weights") else {
            panic!("weights is not an array")
        };
        &mut weights[0]
    }

    #[test]
    fn load_rejects_text_that_is_not_json() {
        load_text("not_json", "{\"config\": ", "end of JSON input");
    }

    #[test]
    fn load_rejects_a_missing_field() {
        load_edited("missing_field", "missing field `rule_count`", |v| {
            let Value::Object(fields) = field_mut(v, "config") else {
                panic!("config is not an object")
            };
            fields.retain(|(k, _)| k != "rule_count");
        });
    }

    #[test]
    fn load_rejects_an_unknown_encoder() {
        load_edited("unknown_encoder", "unknown encoder", |v| {
            *field_mut(field_mut(v, "config"), "encoder") =
                object(vec![("Lstm", object(vec![("layers", int(1))]))]);
        });
    }

    #[test]
    fn load_rejects_an_unknown_action_space() {
        load_edited("unknown_action_space", "unknown action space", |v| {
            *field_mut(field_mut(v, "config"), "action_space") = Value::Str("Tree".into());
        });
    }

    #[test]
    fn load_rejects_heads_that_do_not_divide_the_embedding() {
        load_edited("heads", "heads must divide the embedding", |v| {
            *field_mut(field_mut(v, "config"), "encoder") = EncoderArch::Transformer {
                layers: 1,
                heads: 3,
            }
            .to_json();
        });
    }

    #[test]
    fn load_rejects_data_that_does_not_fill_the_matrix() {
        load_edited("short_data", "a 32x31 matrix with 1024 entries", |v| {
            *field_mut(first_weight(v), "cols") = int(31);
        });
    }

    #[test]
    fn load_rejects_a_weight_count_the_architecture_does_not_have() {
        load_edited("weight_count", "38 weight matrices", |v| {
            let Value::Array(weights) = field_mut(v, "weights") else {
                panic!("weights is not an array")
            };
            weights.pop();
        });
    }

    #[test]
    fn load_rejects_a_weight_shape_the_architecture_does_not_have() {
        // 16 x 64 holds the 1024 entries of the 32 x 32 token embedding.
        load_edited("weight_shape", "weight 0 is 16x64", |v| {
            let weight = first_weight(v);
            *field_mut(weight, "rows") = int(16);
            *field_mut(weight, "cols") = int(64);
        });
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
