//! Differential test of the RL compile path.
//!
//! `Agent::optimize` looks at each program state once (a match index over a
//! shared term graph, one memo per call) and runs the policy without an
//! autodiff tape, computing only the `CLS` row of the last Transformer layer.
//! The reference below is the search it replaced, written over the public
//! API only: every rollout re-tokenizes, re-masks and re-matches the program
//! by walking its tree, costs it from scratch, and runs the whole network on
//! the tape (`Policy::act_on_tape`). Both must return the identical program
//! and cost bits — which holds only if every logit, every RNG draw and every
//! location index along every rollout agree, not just the final cost.
//!
//! The same reference environment, driven by the same taped `act`, also
//! stands in for `Trainer::train`'s experience collection: training must
//! yield bit-identical weights either way, so the agent the benchmark
//! compiles with is the agent the parent commit would have trained.

use chehab::benchsuite::{coyote_kernels, porcupine};
use chehab::compiler::training::{train_agent, AgentTrainingOptions};
use chehab::datagen::{generate_llm_like_dataset, LlmLikeSynthesizer};
use chehab::ir::{cleanup, Expr};
use chehab::rl::{
    Action, ActionSample, Agent, AgentConfig, EnvConfig, ObservationTokenizer, Policy,
    PolicyConfig, PolicySnapshot, PpoConfig, PpoLearner, RolloutBuffer, Transition,
};
use chehab::trs::RewriteEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The rewrite MDP of `chehab_rl::RewriteEnv`, one tree walk per question.
struct TreeEnv<'a> {
    engine: &'a RewriteEngine,
    tokenizer: &'a ObservationTokenizer,
    config: &'a EnvConfig,
    current: Expr,
    initial_cost: f64,
    current_cost: f64,
    steps: usize,
    finished: bool,
}

impl<'a> TreeEnv<'a> {
    fn new(
        program: Expr,
        engine: &'a RewriteEngine,
        tokenizer: &'a ObservationTokenizer,
        config: &'a EnvConfig,
    ) -> Self {
        let cost = config.cost_model.cost(&program);
        TreeEnv {
            engine,
            tokenizer,
            config,
            current: program,
            initial_cost: cost,
            current_cost: cost,
            steps: 0,
            finished: false,
        }
    }

    fn observe(&self) -> Vec<usize> {
        self.tokenizer
            .encode(&self.current, self.config.observation_len)
    }

    fn rule_mask(&self) -> Vec<bool> {
        let mut mask = self.engine.applicability_mask(&self.current);
        mask.push(true);
        mask
    }

    fn location_count(&self, rule: usize) -> usize {
        self.engine
            .matches(&self.current, rule)
            .len()
            .min(self.config.max_locations)
    }

    fn act(&self, policy: &Policy, rng: &mut StdRng, deterministic: bool) -> ActionSample {
        policy.act_on_tape(
            &self.observe(),
            &self.rule_mask(),
            |rule| self.location_count(rule),
            rng,
            deterministic,
        )
    }

    /// Returns the step's reward.
    fn step(&mut self, action: Action) -> f64 {
        self.steps += 1;
        let reward = &self.config.reward;
        match action {
            Action::Stop => {
                self.finished = true;
                reward.terminal(self.initial_cost, self.current_cost)
            }
            Action::Apply { rule, location } => {
                let mut total = match self
                    .engine
                    .apply_at_occurrence(&self.current, rule, location)
                {
                    Some(next) => {
                        let next_cost = self.config.cost_model.cost(&next);
                        let step = reward.step(self.current_cost, next_cost);
                        (self.current, self.current_cost) = (next, next_cost);
                        step
                    }
                    None => reward.invalid_penalty,
                };
                if self.steps >= self.config.max_steps {
                    self.finished = true;
                    total += reward.terminal(self.initial_cost, self.current_cost);
                }
                total
            }
        }
    }
}

/// Everything an `Agent` is made of, kept so the reference can use it too.
struct Parts {
    engine: Arc<RewriteEngine>,
    tokenizer: Arc<ObservationTokenizer>,
    config: AgentConfig,
}

/// The rollouts of `Agent::optimize` before it shared anything between them:
/// the best program any rollout saw, first rollout winning ties.
fn reference_optimize(policy: &Policy, parts: &Parts, program: &Expr) -> (Expr, f64) {
    let model = &parts.config.env.cost_model;
    let mut rng = StdRng::seed_from_u64(parts.config.seed);
    let mut best: Option<(Expr, f64)> = None;
    for rollout in 0..=parts.config.sampled_rollouts {
        let mut env = TreeEnv::new(
            program.clone(),
            &parts.engine,
            &parts.tokenizer,
            &parts.config.env,
        );
        let (mut best_seen, mut best_cost) = (program.clone(), env.initial_cost);
        while !env.finished {
            let sample = env.act(policy, &mut rng, rollout == 0);
            env.step(sample.action);
            if env.current_cost < best_cost {
                (best_seen, best_cost) = (env.current.clone(), env.current_cost);
            }
        }
        let cost = model.cost(&best_seen);
        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
            best = Some((best_seen, cost));
        }
    }
    best.expect("at least one rollout")
}

fn assert_same_compile(what: &str, agent: &Agent, parts: &Parts, program: &Expr) {
    let (expected, expected_cost) = reference_optimize(agent.policy(), parts, program);
    let outcome = agent.optimize(program);
    assert_eq!(outcome.optimized, expected, "{what}: optimized circuit");
    assert_eq!(
        outcome.final_cost.to_bits(),
        expected_cost.to_bits(),
        "{what}: final cost"
    );
    assert!(outcome.policy_evaluations <= outcome.actions, "{what}");
    assert!(outcome.distinct_states <= outcome.actions + 1, "{what}");
}

/// The programs the benchmark compiles: `rl_datagen_k3`'s seeded draw from
/// the training distribution and the `structured_greedy` kernels, as the
/// compiler hands them to the optimizer (after cleanup).
fn programs() -> Vec<(String, Expr)> {
    let mut synthesizer = LlmLikeSynthesizer::with_seed(1);
    let mut programs = Vec::new();
    while programs.len() < 24 {
        let program = synthesizer.generate();
        if program.node_count() <= 160 {
            programs.push((format!("datagen {:02}", programs.len()), cleanup(&program)));
        }
    }
    let kernels = [
        porcupine::box_blur(4),
        porcupine::dot_product(32),
        porcupine::hamming_distance(16),
        porcupine::l2_distance(16),
        porcupine::linear_regression(32),
        porcupine::polynomial_regression(32),
        porcupine::gx(4),
        porcupine::roberts_cross(4),
        coyote_kernels::mat_mul(4),
        coyote_kernels::sort(4),
        coyote_kernels::max(5),
    ];
    programs.extend(kernels.iter().map(|b| (b.id(), cleanup(b.program()))));
    programs
}

/// What `train_agent(options)` is made of for ICI / Transformer /
/// hierarchical options (see `chehab_core::training`): the dataset, the
/// configurations, the seeds. Spelled out here because the reference trainer
/// must start from the same place; if `train_agent` changes its set-up, the
/// weight comparison below says so.
struct Setup {
    dataset: Vec<Expr>,
    timesteps: usize,
    seed: u64,
    /// The training environment; the packaged agent's is in `parts`.
    env: EnvConfig,
    parts: Parts,
}

const TRAINING_ENVS: usize = 4;

fn setup(options: &AgentTrainingOptions) -> Setup {
    let dataset: Vec<Expr> = generate_llm_like_dataset(options.dataset_size, options.seed)
        .exprs()
        .iter()
        .filter(|e| e.node_count() <= 80)
        .cloned()
        .collect();
    let env = EnvConfig {
        max_steps: options.max_episode_steps,
        max_locations: 8,
        observation_len: 96,
        ..EnvConfig::default()
    };
    let parts = Parts {
        engine: Arc::new(RewriteEngine::new()),
        tokenizer: Arc::new(ObservationTokenizer::ici()),
        config: AgentConfig {
            env: EnvConfig {
                max_steps: 40,
                ..env.clone()
            },
            sampled_rollouts: options.compile_time_rollouts,
            seed: options.seed,
        },
    };
    Setup {
        dataset,
        timesteps: options.timesteps,
        seed: options.seed,
        env,
        parts,
    }
}

fn policy_config(parts: &Parts) -> PolicyConfig {
    PolicyConfig::small(
        parts.tokenizer.vocab_size(),
        parts.engine.rule_count(),
        parts.config.env.max_locations,
    )
}

/// `Trainer::train`'s experience collection over the tree-walking
/// environment and the taped `act`, feeding the same PPO learner.
fn reference_training(setup: &Setup) -> PolicySnapshot {
    let parts = &setup.parts;
    let mut init = StdRng::seed_from_u64(setup.seed ^ 0x90_11C7);
    let policy = Policy::new(policy_config(parts), &mut init);
    let ppo = PpoConfig::small();
    let mut learner = PpoLearner::new(&policy, ppo);
    let mut rng = StdRng::seed_from_u64(setup.seed);
    let draw = |rng: &mut StdRng| {
        let program = setup.dataset[rng.gen_range(0..setup.dataset.len())].clone();
        TreeEnv::new(program, &parts.engine, &parts.tokenizer, &setup.env)
    };
    let mut envs: Vec<TreeEnv> = (0..TRAINING_ENVS).map(|_| draw(&mut rng)).collect();
    let mut buffer = RolloutBuffer::new();
    let mut collected = 0;
    while collected < setup.timesteps {
        for env in envs.iter_mut() {
            if collected >= setup.timesteps {
                break;
            }
            if env.finished {
                *env = draw(&mut rng);
            }
            let (observation, rule_mask) = (env.observe(), env.rule_mask());
            let sample = env.act(&policy, &mut rng, false);
            let location_count = match sample.action {
                Action::Apply { rule, .. } => env.location_count(rule),
                Action::Stop => 0,
            };
            let reward = env.step(sample.action);
            buffer.push(Transition {
                observation,
                action: sample.action,
                rule_mask,
                location_count,
                log_prob: sample.log_prob,
                value: sample.value,
                reward,
                done: env.finished,
            });
            collected += 1;
        }
        if buffer.len() >= ppo.steps_per_update || collected >= setup.timesteps {
            learner.update(&policy, &mut buffer);
            buffer.clear();
        }
    }
    policy.snapshot()
}

fn weight_bits(agent: &Agent) -> Vec<Vec<u32>> {
    snapshot_bits(&agent.policy().snapshot())
}

fn snapshot_bits(snapshot: &PolicySnapshot) -> Vec<Vec<u32>> {
    let bits = |m: &chehab::nn::Matrix| m.data().iter().map(|v| v.to_bits()).collect();
    snapshot.weights.iter().map(bits).collect()
}

/// An untrained agent with the tiny agent's rollout configuration.
fn untrained_agent(seed: u64, configure: impl Fn(PolicyConfig) -> PolicyConfig) -> (Agent, Parts) {
    let Setup { parts, .. } = setup(&AgentTrainingOptions::tiny());
    let mut rng = StdRng::seed_from_u64(seed);
    let policy = Policy::new(configure(policy_config(&parts)), &mut rng);
    let agent = Agent::new(
        policy,
        Arc::clone(&parts.engine),
        Arc::clone(&parts.tokenizer),
        parts.config.clone(),
    );
    (agent, parts)
}

/// A training run short enough for a debug build: experience collection and
/// one PPO update. The release sweep below trains `tiny()` in full.
#[test]
fn a_trained_agent_has_the_reference_weights_and_compiles_like_the_reference() {
    let options = AgentTrainingOptions {
        timesteps: 48,
        ..AgentTrainingOptions::tiny()
    };
    let setup = setup(&options);
    let trained = train_agent(&options);
    assert_eq!(
        weight_bits(&trained.agent),
        snapshot_bits(&reference_training(&setup)),
        "tape-free act over the match index trains the same policy"
    );
    for (what, program) in programs().iter().step_by(3) {
        assert_same_compile(what, &trained.agent, &setup.parts, program);
    }
}

/// The GRU encoder and the flat action space take other paths through the
/// policy; a sample of the programs here, all of them in the release sweep.
#[test]
fn untrained_gru_and_flat_agents_compile_like_the_reference() {
    let (gru, gru_parts) = untrained_agent(21, |c| c.with_gru(2));
    let (flat, flat_parts) = untrained_agent(22, PolicyConfig::flat);
    for (what, program) in programs().iter().step_by(6) {
        assert_same_compile(&format!("gru, {what}"), &gru, &gru_parts, program);
        assert_same_compile(&format!("flat, {what}"), &flat, &flat_parts, program);
    }
}

#[test]
#[ignore = "the taped tree-walking reference needs a release build: cargo test --release --test rl_equivalence -- --include-ignored"]
fn the_benchmark_agent_and_every_architecture_on_every_program() {
    // The agent `rl_datagen_k3` compiles with: deterministic, and the one the
    // reference trainer produces.
    let options = AgentTrainingOptions::tiny();
    let setup = setup(&options);
    let trained = train_agent(&options);
    assert_eq!(
        weight_bits(&trained.agent),
        weight_bits(&train_agent(&options).agent),
        "training is deterministic"
    );
    assert_eq!(
        weight_bits(&trained.agent),
        snapshot_bits(&reference_training(&setup)),
        "tape-free act over the match index trains the same policy"
    );
    let (gru, gru_parts) = untrained_agent(21, |c| c.with_gru(2));
    let (flat, flat_parts) = untrained_agent(22, PolicyConfig::flat);
    for (what, program) in programs() {
        assert_same_compile(&what, &trained.agent, &setup.parts, &program);
        assert_same_compile(&format!("gru, {what}"), &gru, &gru_parts, &program);
        assert_same_compile(&format!("flat, {what}"), &flat, &flat_parts, &program);
    }
}

#[test]
fn a_repeated_compile_is_not_served_from_a_previous_one() {
    // The memo belongs to one `optimize` call: a second compile of the same
    // program does the same work and reports the same counters.
    let (agent, _) = untrained_agent(23, |c| c);
    let program = cleanup(porcupine::dot_product(8).program());
    let (first, second) = (agent.optimize(&program), agent.optimize(&program));
    assert!(first.policy_evaluations > 0);
    assert_eq!(first.policy_evaluations, second.policy_evaluations);
    assert_eq!(first.distinct_states, second.distinct_states);
    assert_eq!(first.actions, second.actions);
    assert_eq!(first.optimized, second.optimized);
}
