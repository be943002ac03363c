//! The rewrite environment: FHE circuit optimization as a Markov decision
//! process (Section 5).
//!
//! * **State**: the program being optimized, observed as its ICI (or BPE)
//!   token sequence.
//! * **Action**: a rewrite rule plus the index of the match location to apply
//!   it at, or the special `END` action that terminates the episode.
//! * **Reward**: the relative cost improvement of each step plus a terminal
//!   reward proportional to the total improvement (Section 5.3.2).

use crate::reward::RewardConfig;
use chehab_ir::{BpeTokenizer, CostModel, Expr, NodeId, TermGraph, Vocabulary};
use chehab_trs::{MatchIndex, ProgramMatches, RewriteEngine};
use std::collections::HashMap;
use std::sync::Arc;

/// How programs are tokenized into observations.
#[derive(Debug, Clone)]
pub enum ObservationTokenizer {
    /// Identifier-and-Constant-Invariant tokenization (the paper's default).
    Ici(Vocabulary),
    /// Byte-pair encoding baseline (Figure 10 ablation).
    Bpe {
        /// The trained BPE tokenizer.
        tokenizer: Box<BpeTokenizer>,
        /// The vocabulary derived from its merges.
        vocabulary: Vocabulary,
    },
}

impl ObservationTokenizer {
    /// The default ICI tokenizer.
    pub fn ici() -> Self {
        ObservationTokenizer::Ici(Vocabulary::ici())
    }

    /// A BPE tokenizer baseline.
    pub fn bpe(tokenizer: BpeTokenizer) -> Self {
        let vocabulary = tokenizer.vocabulary();
        ObservationTokenizer::Bpe {
            tokenizer: Box::new(tokenizer),
            vocabulary,
        }
    }

    /// Vocabulary size (the embedding-table height the policy needs).
    pub fn vocab_size(&self) -> usize {
        match self {
            ObservationTokenizer::Ici(v) => v.len(),
            ObservationTokenizer::Bpe { vocabulary, .. } => vocabulary.len(),
        }
    }

    /// Encodes a program into a fixed-length token-id sequence. ICI ids are
    /// read off a term graph, the way the environment reads its states: the
    /// program is interned into one first.
    pub fn encode(&self, expr: &Expr, max_len: usize) -> Vec<usize> {
        match self {
            ObservationTokenizer::Ici(v) => {
                let mut graph = TermGraph::new();
                let root = graph.intern_expr(expr);
                v.encode_graph(&graph, root, max_len)
            }
            ObservationTokenizer::Bpe {
                tokenizer,
                vocabulary,
            } => vocabulary.encode(&tokenizer.tokenize_expr(expr), max_len),
        }
    }

    /// [`ObservationTokenizer::encode`] of the state with id `state` of
    /// `index`: ICI ids from a walk of the index's graph that stops at
    /// `max_len`, BPE ids from the state's text.
    fn encode_state(&self, index: &MatchIndex, state: NodeId, max_len: usize) -> Vec<usize> {
        match self {
            ObservationTokenizer::Ici(v) => v.encode_graph(index.graph(), state, max_len),
            ObservationTokenizer::Bpe { .. } => self.encode(&index.expr(state), max_len),
        }
    }
}

/// Static configuration of the environment.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Cost model used by the reward.
    pub cost_model: CostModel,
    /// Reward shaping configuration.
    pub reward: RewardConfig,
    /// Maximum rewrites per episode (the paper uses 75).
    pub max_steps: usize,
    /// Maximum number of addressable match locations per rule.
    pub max_locations: usize,
    /// Observation length in tokens.
    pub observation_len: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            cost_model: CostModel::default(),
            reward: RewardConfig::default(),
            max_steps: 75,
            max_locations: 16,
            observation_len: 96,
        }
    }
}

/// An action in the rewrite MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Apply rule `rule` at its `location`-th match.
    Apply {
        /// Rule index in the engine's catalog.
        rule: usize,
        /// 0-based match index.
        location: usize,
    },
    /// Terminate the episode.
    Stop,
}

/// The result of one environment step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Reward obtained for the step (including the terminal bonus when the
    /// episode ends).
    pub reward: f64,
    /// Whether the episode has ended.
    pub done: bool,
    /// Whether the chosen action was valid (invalid actions leave the state
    /// unchanged and incur a small penalty).
    pub valid: bool,
}

/// Everything the environment knows about one program state, computed the
/// first time an episode reaches it.
#[derive(Debug, Clone)]
struct StateFacts {
    cost: f64,
    tokens: Vec<usize>,
    matches: ProgramMatches,
}

/// The rewrite environment over one program.
///
/// The environment looks at each program state once: a state is its id in a
/// [`MatchIndex`]'s term graph ([`RewriteEnv::state_id`]), a step names the
/// next one by [`MatchIndex::successor`] without rebuilding it, and the
/// first visit reads its per-rule match counts and cost out of the index and
/// its ICI tokens off the graph (a BPE observation reads its tree, for the
/// text). The tokens, cost and counts are kept under
/// the id for as long as the environment stays on the same initial program —
/// across [`RewriteEnv::restart`]s, until the next [`RewriteEnv::reset`].
#[derive(Debug, Clone)]
pub struct RewriteEnv {
    engine: Arc<RewriteEngine>,
    tokenizer: Arc<ObservationTokenizer>,
    config: EnvConfig,
    index: MatchIndex,
    states: HashMap<NodeId, StateFacts>,
    initial: NodeId,
    current: NodeId,
    steps: usize,
    finished: bool,
}

impl RewriteEnv {
    /// Creates an environment over `program`.
    pub fn new(
        program: Expr,
        engine: Arc<RewriteEngine>,
        tokenizer: Arc<ObservationTokenizer>,
        config: EnvConfig,
    ) -> Self {
        let mut env = RewriteEnv {
            engine,
            tokenizer,
            config,
            index: MatchIndex::new(),
            states: HashMap::new(),
            initial: 0,
            current: 0,
            steps: 0,
            finished: false,
        };
        env.reset(program);
        env
    }

    /// Resets the environment to a new program and returns the first
    /// observation. Everything remembered about the previous program's
    /// states is dropped.
    pub fn reset(&mut self, program: Expr) -> Vec<usize> {
        self.index = MatchIndex::new();
        self.states.clear();
        self.initial = self.index.intern(&program);
        self.learn(self.initial);
        self.restart();
        self.observe()
    }

    /// Starts a new episode on the same initial program, keeping what is
    /// known about its states.
    pub fn restart(&mut self) {
        self.current = self.initial;
        self.steps = 0;
        self.finished = false;
    }

    /// Records the facts of the program state with id `state`.
    fn learn(&mut self, state: NodeId) {
        let matches = self.index.index(&self.engine, state);
        let cost = self.index.cost(state, &self.config.cost_model);
        let tokens = self
            .tokenizer
            .encode_state(&self.index, state, self.config.observation_len);
        self.states.insert(
            state,
            StateFacts {
                cost,
                tokens,
                matches,
            },
        );
    }

    fn facts(&self, state: NodeId) -> &StateFacts {
        &self.states[&state]
    }

    /// The program of a state the environment has reached since the initial
    /// program was set, by its [`RewriteEnv::state_id`], read out of the
    /// index's term graph.
    ///
    /// # Panics
    ///
    /// Panics if no episode on this initial program has reached `state`.
    pub fn program(&self, state: NodeId) -> Expr {
        assert!(
            self.states.contains_key(&state),
            "state {state} not reached"
        );
        self.index.expr(state)
    }

    /// Identifies the current program state: equal programs have equal ids,
    /// for as long as the environment stays on the same initial program.
    pub fn state_id(&self) -> NodeId {
        self.current
    }

    /// Number of distinct program states reached since the initial program
    /// was set.
    pub fn distinct_states(&self) -> usize {
        self.states.len()
    }

    /// The cost of the current program.
    pub fn current_cost(&self) -> f64 {
        self.facts(self.current).cost
    }

    /// The cost of the initial program.
    pub fn initial_cost(&self) -> f64 {
        self.facts(self.initial).cost
    }

    /// Whether the episode has terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total number of rule actions; the `END` action is the index after
    /// them.
    pub fn rule_count(&self) -> usize {
        self.engine.rule_count()
    }

    /// The current observation: the program's token-id sequence.
    pub fn observe(&self) -> Vec<usize> {
        self.facts(self.current).tokens.clone()
    }

    /// Boolean mask over the rule head (length `rule_count() + 1`): `true`
    /// where the rule has at least one match; the `END` action is always
    /// valid.
    pub fn rule_mask(&self) -> Vec<bool> {
        let mut mask = self.facts(self.current).matches.rule_mask();
        mask.push(true);
        mask
    }

    /// Number of addressable match locations for a rule in the current state
    /// (clamped to `max_locations`).
    pub fn location_count(&self, rule: usize) -> usize {
        self.facts(self.current)
            .matches
            .count(rule)
            .min(self.config.max_locations)
    }

    /// [`RewriteEnv::location_count`] of every rule, in rule order (`END`
    /// excluded): what PPO re-evaluates a stored action under.
    pub fn location_counts(&self) -> Vec<usize> {
        let matches = &self.facts(self.current).matches;
        (0..self.rule_count())
            .map(|rule| matches.count(rule).min(self.config.max_locations))
            .collect()
    }

    /// Applies an action.
    ///
    /// Invalid actions (rule with no matches, or an out-of-range location)
    /// leave the program unchanged and receive [`RewardConfig::invalid_penalty`].
    pub fn step(&mut self, action: Action) -> StepOutcome {
        assert!(!self.finished, "step() called on a finished episode");
        self.steps += 1;
        let (initial_cost, current_cost) = (self.initial_cost(), self.current_cost());
        match action {
            Action::Stop => {
                self.finished = true;
                let terminal = self.config.reward.terminal(initial_cost, current_cost);
                StepOutcome {
                    reward: terminal,
                    done: true,
                    valid: true,
                }
            }
            Action::Apply { rule, location } => {
                let (reward, valid) = match self.successor(rule, location) {
                    Some(next) => {
                        self.current = next;
                        let step_reward =
                            self.config.reward.step(current_cost, self.current_cost());
                        (step_reward, true)
                    }
                    None => (self.config.reward.invalid_penalty, false),
                };
                let mut total = reward;
                let done = self.steps >= self.config.max_steps;
                if done {
                    self.finished = true;
                    total += self
                        .config
                        .reward
                        .terminal(initial_cost, self.current_cost());
                }
                StepOutcome {
                    reward: total,
                    done,
                    valid,
                }
            }
        }
    }

    /// The state that applying `rule` at its `location`-th match leads to
    /// (`None` if the rule has fewer matches). Its id comes from the index;
    /// its facts are read out of the index the first time it is reached.
    fn successor(&mut self, rule: usize, location: usize) -> Option<NodeId> {
        let from = &self.states[&self.current];
        let site = self.index.site(&from.matches, rule, location)?;
        let next = self.index.successor(&site);
        if !self.states.contains_key(&next) {
            self.learn(next);
        }
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::parse;

    fn make_env(src: &str) -> RewriteEnv {
        RewriteEnv::new(
            parse(src).unwrap(),
            Arc::new(RewriteEngine::new()),
            Arc::new(ObservationTokenizer::ici()),
            EnvConfig::default(),
        )
    }

    #[test]
    fn observation_has_the_configured_length() {
        let env = make_env("(Vec (+ a b) (+ c d))");
        assert_eq!(env.observe().len(), env.config.observation_len);
    }

    #[test]
    fn rule_mask_includes_the_end_action() {
        let env = make_env("(Vec (+ a b) (+ c d))");
        let mask = env.rule_mask();
        assert_eq!(mask.len(), env.rule_count() + 1);
        assert!(mask[env.rule_count()], "END is always valid");
        assert!(mask.iter().filter(|&&m| m).count() > 1, "some rule applies");
    }

    #[test]
    fn applying_a_vectorization_rule_yields_positive_reward() {
        let mut env = make_env("(Vec (+ a b) (+ c d))");
        let rule = RewriteEngine::new().rule_index("add-vectorize-2").unwrap();
        let before = env.current_cost();
        let outcome = env.step(Action::Apply { rule, location: 0 });
        assert!(outcome.valid);
        assert!(outcome.reward > 0.0, "vectorization must improve the cost");
        assert!(env.current_cost() < before);
        assert!(!outcome.done);
    }

    #[test]
    fn invalid_actions_are_penalized_and_leave_the_state_unchanged() {
        let mut env = make_env("(Vec (+ a b) (+ c d))");
        let rule = RewriteEngine::new().rule_index("rot-merge").unwrap();
        let before = env.state_id();
        let outcome = env.step(Action::Apply { rule, location: 0 });
        assert!(!outcome.valid);
        assert!(outcome.reward < 0.0);
        assert_eq!(env.state_id(), before);
    }

    #[test]
    fn stop_action_ends_the_episode_with_the_terminal_reward() {
        let mut env = make_env("(Vec (+ a b) (+ c d))");
        let rule = RewriteEngine::new().rule_index("add-vectorize-2").unwrap();
        env.step(Action::Apply { rule, location: 0 });
        let outcome = env.step(Action::Stop);
        assert!(outcome.done);
        assert!(env.is_finished());
        assert!(
            outcome.reward > 0.0,
            "terminal reward reflects the total improvement"
        );
    }

    #[test]
    fn episodes_terminate_at_the_step_limit() {
        let mut env = RewriteEnv::new(
            parse("(+ (+ a b) (+ c d))").unwrap(),
            Arc::new(RewriteEngine::new()),
            Arc::new(ObservationTokenizer::ici()),
            EnvConfig {
                max_steps: 3,
                ..EnvConfig::default()
            },
        );
        let comm = RewriteEngine::new().rule_index("add-comm").unwrap();
        let mut done = false;
        for _ in 0..3 {
            done = env
                .step(Action::Apply {
                    rule: comm,
                    location: 0,
                })
                .done;
        }
        assert!(done);
        assert!(env.is_finished());
    }

    #[test]
    fn reset_restores_a_fresh_episode() {
        let mut env = make_env("(Vec (+ a b) (+ c d))");
        let rule = RewriteEngine::new().rule_index("add-vectorize-2").unwrap();
        env.step(Action::Apply { rule, location: 0 });
        let obs = env.reset(parse("(* x y)").unwrap());
        assert_eq!(obs.len(), env.config.observation_len);
        assert_eq!(env.steps, 0);
        assert!(!env.is_finished());
    }

    #[test]
    fn location_count_is_clamped() {
        let env = make_env("(+ (+ (+ (+ a b) (+ c d)) (+ e f)) (+ g h))");
        let comm = RewriteEngine::new().rule_index("add-comm").unwrap();
        assert!(env.location_count(comm) <= env.config.max_locations);
        assert!(env.location_count(comm) >= 1);
        assert_eq!(env.location_count(env.rule_count()), 0);
    }

    #[test]
    fn bpe_observations_work_too() {
        let corpus = vec!["(VecAdd (Vec a b) (Vec c d))".to_string()];
        let tokenizer = ObservationTokenizer::bpe(chehab_ir::BpeTokenizer::train(&corpus, 48));
        assert!(tokenizer.vocab_size() > 3);
        let env = RewriteEnv::new(
            parse("(Vec (+ a b) (+ c d))").unwrap(),
            Arc::new(RewriteEngine::new()),
            Arc::new(tokenizer),
            EnvConfig::default(),
        );
        assert_eq!(env.observe().len(), env.config.observation_len);
    }
}
