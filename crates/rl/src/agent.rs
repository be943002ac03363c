//! The deployed agent: applying a trained policy to optimize a program at
//! compile time.
//!
//! At inference the agent rolls the policy out on the program's rewrite
//! environment; because the policy is stochastic, the agent can draw several
//! rollouts (plus one deterministic greedy rollout) and keep the best final
//! circuit — a cheap way to recover most of the quality of a long-trained
//! policy under the scaled-down training budgets used by the harness
//! (documented in EXPERIMENTS.md).
//!
//! Those rollouts start from the same program and keep walking into states
//! they — or an earlier rollout — have already been in, so one `optimize`
//! call pays for each observation only where it is new (`DESIGN.md`, "The
//! compile path"):
//!
//! * a state is looked at once: its cost, rule matches and observation
//!   tokens (an ICI walk of the state's term graph that stops at the
//!   observation length) are kept under its term-graph id;
//! * the network runs once per distinct observation, its outputs kept per
//!   observation;
//! * within those runs, a Transformer's first-layer row is computed once per
//!   distinct (token id, position), kept in the call's
//!   [`EncoderRows`]; most of an observation's rows are some earlier one's.
//!
//! Everything is kept for the call only: nothing is stored in the [`Policy`]
//! or the [`Agent`], so a weight change shows in the next compile.

use crate::env::{Action, EnvConfig, ObservationTokenizer, RewriteEnv};
use crate::policy::{Policy, PolicyOutputs};
use chehab_ir::{Expr, NodeId};
use chehab_nn::EncoderRows;
use chehab_trs::RewriteEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration of compile-time rollouts.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Environment configuration (cost model, step limit).
    pub env: EnvConfig,
    /// Number of stochastic rollouts to draw in addition to the greedy one.
    pub sampled_rollouts: usize,
    /// RNG seed for the stochastic rollouts.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            env: EnvConfig::default(),
            sampled_rollouts: 4,
            seed: 0,
        }
    }
}

/// Result of optimizing one program with the agent.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The best program found.
    pub optimized: Expr,
    /// Cost of the initial program under the agent's cost model.
    pub initial_cost: f64,
    /// Cost of the optimized program.
    pub final_cost: f64,
    /// Number of rewrites that turned the input into `optimized` (0 when the
    /// input itself is returned).
    pub steps: usize,
    /// Total rollouts performed (greedy + sampled).
    pub rollouts: usize,
    /// Actions taken over all rollouts: rewrites, invalid actions and `END`.
    pub actions: usize,
    /// Distinct program states the rollouts reached, the input included.
    pub distinct_states: usize,
    /// Forward passes of the policy network actually run (one per distinct
    /// observation; `actions` minus this many were answered from the memo).
    pub policy_evaluations: usize,
    /// First-layer encoder rows actually computed: one per distinct (token
    /// id, position) among the evaluated observations (0 for a GRU encoder).
    pub encoded_rows: usize,
}

/// A trained policy packaged for compile-time use.
#[derive(Debug)]
pub struct Agent {
    policy: Policy,
    engine: Arc<RewriteEngine>,
    tokenizer: Arc<ObservationTokenizer>,
    config: AgentConfig,
}

/// What one `optimize` call keeps of the network's work: the outputs per
/// distinct observation, and the encoder rows they were computed from.
#[derive(Default)]
struct Network {
    outputs: HashMap<Vec<usize>, PolicyOutputs>,
    rows: EncoderRows,
}

/// The best state one rollout saw, and how it got there.
struct Rollout {
    /// The best state's [`RewriteEnv::state_id`].
    best: NodeId,
    cost: f64,
    /// Rewrites applied when `best` was reached.
    rewrites: usize,
    actions: usize,
}

impl Agent {
    /// Wraps a trained policy.
    pub fn new(
        policy: Policy,
        engine: Arc<RewriteEngine>,
        tokenizer: Arc<ObservationTokenizer>,
        config: AgentConfig,
    ) -> Self {
        Agent {
            policy,
            engine,
            tokenizer,
            config,
        }
    }

    /// The underlying policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The rewrite engine whose catalog the policy was trained over.
    pub fn engine(&self) -> &Arc<RewriteEngine> {
        &self.engine
    }

    /// Optimizes a program: one deterministic (greedy) rollout plus
    /// `sampled_rollouts` stochastic rollouts; the cheapest final program wins.
    ///
    /// The rollouts start from the same program and revisit each other's
    /// states, so they share one memo for the call: the environment keeps
    /// each state's tokens, rule matches and cost, the network's outputs are
    /// kept per distinct observation, and the encoder's first-layer rows per
    /// distinct (token id, position). All of it dies with the call — the
    /// weights may change before the next one, and a repeated compile must
    /// cost what the first did.
    pub fn optimize(&self, program: &Expr) -> OptimizationOutcome {
        let mut env = RewriteEnv::new(
            program.clone(),
            Arc::clone(&self.engine),
            Arc::clone(&self.tokenizer),
            self.config.env.clone(),
        );
        let mut network = Network::default();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut best: Option<Rollout> = None;
        let mut actions = 0;
        let rollouts = 1 + self.config.sampled_rollouts;
        for rollout in 0..rollouts {
            env.restart();
            let candidate = self.rollout(&mut env, &mut network, rollout == 0, &mut rng);
            actions += candidate.actions;
            if best.as_ref().is_none_or(|b| candidate.cost < b.cost) {
                best = Some(candidate);
            }
        }
        let best = best.expect("at least one rollout");
        OptimizationOutcome {
            optimized: env.program(best.best),
            initial_cost: env.initial_cost(),
            final_cost: best.cost,
            steps: best.rewrites,
            rollouts,
            actions,
            distinct_states: env.distinct_states(),
            policy_evaluations: network.outputs.len(),
            encoded_rows: network.rows.computed(),
        }
    }

    fn rollout(
        &self,
        env: &mut RewriteEnv,
        network: &mut Network,
        deterministic: bool,
        rng: &mut StdRng,
    ) -> Rollout {
        let mut seen = Rollout {
            best: env.state_id(),
            cost: env.initial_cost(),
            rewrites: 0,
            actions: 0,
        };
        let mut rewrites = 0;
        let mut visited = HashSet::from([env.state_id()]);
        while !env.is_finished() {
            let Network { outputs, rows } = network;
            let outputs = outputs
                .entry(env.observe())
                .or_insert_with_key(|observation| self.policy.infer(observation, rows));
            let (action, _) = self.policy.choose(
                outputs,
                &env.rule_mask(),
                |rule| env.location_count(rule),
                rng,
                deterministic,
            );
            let outcome = env.step(action);
            seen.actions += 1;
            rewrites += usize::from(outcome.valid && action != Action::Stop);
            if env.current_cost() < seen.cost {
                seen.cost = env.current_cost();
                seen.best = env.state_id();
                seen.rewrites = rewrites;
            }
            // A deterministic rollout back in a state it has been in picks
            // the same action as then, and again after it: from here on it
            // only cycles through visited states until the step limit, and
            // the best program seen cannot change.
            if deterministic && !visited.insert(env.state_id()) {
                break;
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use chehab_ir::{count_ops, equivalent_on_live_slots, parse, Env};
    use chehab_nn::Module;
    use rand_chacha::ChaCha8Rng;

    fn untrained_agent(sampled_rollouts: usize) -> Agent {
        let engine = Arc::new(RewriteEngine::new());
        let tokenizer = Arc::new(ObservationTokenizer::ici());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let policy = Policy::new(
            PolicyConfig::small(tokenizer.vocab_size(), engine.rule_count(), 8),
            &mut rng,
        );
        Agent::new(
            policy,
            engine,
            tokenizer,
            AgentConfig {
                env: EnvConfig {
                    max_steps: 20,
                    ..EnvConfig::default()
                },
                sampled_rollouts,
                seed: 7,
            },
        )
    }

    /// An untrained agent whose rule head all but always picks `prefer`
    /// (a rule index, or `rule_count` for `END`) wherever the mask allows it.
    fn biased_agent(prefer: &str, sampled_rollouts: usize) -> Agent {
        let agent = untrained_agent(sampled_rollouts);
        let prefer = agent
            .engine
            .rule_index(prefer)
            .unwrap_or(agent.engine.rule_count());
        // Parameter order: encoder, rule head, location head (3 layers),
        // critic (4 layers); the rule head's output bias is its last one.
        let params = agent.policy.parameters();
        let bias = &params[params.len() - 2 * 4 - 2 * 3 - 1];
        let mut logits = bias.value();
        assert_eq!(logits.cols(), agent.engine.rule_count() + 1);
        logits.set(0, prefer, 1e4);
        bias.set_value(logits);
        agent
    }

    #[test]
    fn an_agent_that_stops_immediately_reports_zero_steps() {
        let agent = biased_agent("END", 3);
        let program = parse("(Vec (+ a b) (+ c d))").unwrap();
        let outcome = agent.optimize(&program);
        assert_eq!(outcome.optimized, program);
        assert_eq!(outcome.steps, 0, "END is an action, not a rewrite");
        assert_eq!(outcome.actions, 4, "one END per rollout");
        assert_eq!(outcome.distinct_states, 1);
        assert_eq!(outcome.policy_evaluations, 1);
    }

    #[test]
    fn an_agent_that_cycles_reports_the_rewrites_behind_the_returned_program() {
        // Commuting `(+ a b)` back and forth never changes the cost: the
        // input is returned, whatever the rollouts did after looking at it.
        let agent = biased_agent("add-comm", 2);
        let program = parse("(+ a b)").unwrap();
        let outcome = agent.optimize(&program);
        assert_eq!(outcome.optimized, program);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.distinct_states, 2);
        assert!(outcome.policy_evaluations <= 2);
        // The deterministic rollout ends when it is back at the input (two
        // actions); the sampled ones run to the step limit.
        assert_eq!(outcome.actions, 2 + 2 * 20);
    }

    #[test]
    fn steps_count_the_rewrites_up_to_the_best_program() {
        let agent = biased_agent("add-vectorize-2", 0);
        let program = parse("(Vec (+ a b) (+ c d))").unwrap();
        let outcome = agent.optimize(&program);
        assert!(outcome.final_cost < outcome.initial_cost);
        assert!(outcome.steps >= 1 && outcome.steps <= outcome.actions);
        let vectorized = agent
            .engine
            .apply_at_occurrence(
                &program,
                agent.engine.rule_index("add-vectorize-2").unwrap(),
                0,
            )
            .unwrap();
        assert_eq!(outcome.optimized, vectorized);
        assert_eq!(
            outcome.steps, 1,
            "what the rollout did afterwards does not count"
        );
        assert!(outcome.actions > 1);
    }

    #[test]
    fn optimization_never_returns_a_worse_program() {
        let agent = untrained_agent(3);
        let program = parse("(Vec (+ a b) (+ c d))").unwrap();
        let outcome = agent.optimize(&program);
        assert!(outcome.final_cost <= outcome.initial_cost);
        assert_eq!(outcome.rollouts, 4);
    }

    #[test]
    fn optimization_preserves_semantics() {
        let agent = untrained_agent(4);
        let program = parse("(Vec (* a b) (* c d) (* e f))").unwrap();
        let outcome = agent.optimize(&program);
        let mut env = Env::new();
        env.bind_all(&program, |s| {
            s.as_str().bytes().map(i64::from).sum::<i64>() % 29
        });
        assert!(equivalent_on_live_slots(&program, &outcome.optimized, &env, 3).unwrap());
    }

    #[test]
    fn more_rollouts_never_hurt() {
        let program = parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))").unwrap();
        let few = untrained_agent(0).optimize(&program);
        let many = untrained_agent(6).optimize(&program);
        assert!(many.final_cost <= few.final_cost + 1e-9);
        // With several rollouts even an untrained policy usually stumbles on
        // some vectorization for this small kernel.
        let counts = count_ops(&many.optimized);
        assert!(counts.total_ciphertext_ops() <= count_ops(&program).total_ciphertext_ops());
    }
}
