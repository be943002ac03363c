//! Differential test of the RL compile path.
//!
//! `Agent::optimize` looks at each program state once (a match index over a
//! shared term graph, one memo per call), reads its ICI tokens off the graph,
//! and runs the policy without an autodiff tape, computing only the `CLS`
//! row of the last Transformer layer and each first-layer row once per
//! (token, position) in the call. The reference below is the search it
//! replaced, written over the public API only: every rollout tokenizes its
//! program's tree (`Vocabulary::encode_expr`), re-masks and re-matches it by
//! walking the tree, costs it from scratch, and runs the whole network on the
//! tape (`Policy::act_on_tape`). Both must return the identical program and
//! cost bits — which holds only if every token, every logit, every RNG draw
//! and every location index along every rollout agree, not just the final
//! cost.
//!
//! The same reference environment, driven by the same taped `act`, also
//! stands in for `Trainer::train`'s experience collection, and the PPO update
//! is written out below over an evaluation that runs every position through
//! every encoder layer (`Policy::evaluate_all_rows`), on a fresh tape per
//! minibatch. `PpoLearner` evaluates only the `CLS` row of the last
//! Transformer layer on one reused tape; training must yield bit-identical
//! weights either way, so the agent the benchmark compiles with is the agent
//! every earlier commit would have trained.
//!
//! Last, the two properties of the tape that make such equalities possible at
//! all: the order in which a value with several consumers receives their
//! gradients, and that a cleared tape is a fresh one.

use chehab::benchsuite::{coyote_kernels, porcupine};
use chehab::compiler::training::{train_agent, AgentTrainingOptions};
use chehab::datagen::{generate_llm_like_dataset, LlmLikeSynthesizer};
use chehab::ir::{cleanup, Expr, TermGraph, MAX_ICI_VARIABLES};
use chehab::nn::{Adam, Forward, Matrix, Module, Tape, Tensor, Var};
use chehab::rl::{
    Action, ActionSample, Agent, AgentConfig, EncoderArch, EnvConfig, ObservationTokenizer,
    OptimizationOutcome, Policy, PolicyConfig, PolicySnapshot, PpoConfig, RewriteEnv,
    RolloutBuffer, Transition,
};
use chehab::trs::RewriteEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
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
        match self.tokenizer {
            ObservationTokenizer::Ici(vocabulary) => {
                vocabulary.encode_expr(&self.current, self.config.observation_len)
            }
            bpe => bpe.encode(&self.current, self.config.observation_len),
        }
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

    fn location_counts(&self) -> Vec<usize> {
        (0..self.engine.rule_count())
            .map(|rule| self.location_count(rule))
            .collect()
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

/// What the reference search found: the best program any rollout saw
/// (first rollout winning ties), its cost, and every observation it
/// evaluated the policy on.
struct Reference {
    best: Expr,
    cost: f64,
    observations: HashSet<Vec<usize>>,
}

/// The rollouts of `Agent::optimize` before it shared anything between them.
fn reference_optimize(policy: &Policy, parts: &Parts, program: &Expr) -> Reference {
    let model = &parts.config.env.cost_model;
    let mut rng = StdRng::seed_from_u64(parts.config.seed);
    let mut best: Option<(Expr, f64)> = None;
    let mut observations = HashSet::new();
    for rollout in 0..=parts.config.sampled_rollouts {
        let mut env = TreeEnv::new(
            program.clone(),
            &parts.engine,
            &parts.tokenizer,
            &parts.config.env,
        );
        let (mut best_seen, mut best_cost) = (program.clone(), env.initial_cost);
        while !env.finished {
            observations.insert(env.observe());
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
    let (best, cost) = best.expect("at least one rollout");
    Reference {
        best,
        cost,
        observations,
    }
}

fn assert_same_compile(
    what: &str,
    agent: &Agent,
    parts: &Parts,
    program: &Expr,
) -> OptimizationOutcome {
    let expected = reference_optimize(agent.policy(), parts, program);
    let outcome = agent.optimize(program);
    assert_eq!(
        outcome.optimized, expected.best,
        "{what}: optimized circuit"
    );
    assert_eq!(
        outcome.final_cost.to_bits(),
        expected.cost.to_bits(),
        "{what}: final cost"
    );
    assert!(outcome.policy_evaluations <= outcome.actions, "{what}");
    assert!(outcome.distinct_states <= outcome.actions + 1, "{what}");
    outcome
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

/// What `train_agent(options)` is made of for ICI options (see
/// `chehab_core::training`): the dataset, the configurations, the seeds.
/// Spelled out here because the reference trainer must start from the same
/// place; if `train_agent` changes its set-up, the weight comparison below
/// says so.
struct Setup {
    dataset: Vec<Expr>,
    timesteps: usize,
    seed: u64,
    /// The training environment; the packaged agent's is in `parts`.
    env: EnvConfig,
    policy: PolicyConfig,
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
    let mut policy = policy_config(&parts);
    if options.flat_action_space {
        policy = policy.flat();
    }
    if options.gru_encoder {
        policy = policy.with_gru(2);
    }
    Setup {
        dataset,
        timesteps: options.timesteps,
        seed: options.seed,
        env,
        policy,
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

/// `PpoLearner::update`, written out: the clipped surrogate, value loss and
/// entropy bonus of each minibatch summed on a fresh tape over the all-rows
/// evaluation of every sample, one backward pass, one Adam step.
fn reference_update(
    policy: &Policy,
    optimizer: &mut Adam,
    ppo: &PpoConfig,
    buffer: &mut RolloutBuffer,
) {
    buffer.compute_advantages(ppo.gamma, ppo.gae_lambda);
    let clip = ppo.clip_range as f32;
    let indices: Vec<usize> = (0..buffer.len()).collect();
    for _ in 0..ppo.update_epochs {
        for batch in indices.chunks(ppo.batch_size) {
            let tape = Tape::new();
            policy.zero_grad();
            let scalar = |value: f32| tape.constant(Matrix::full(1, 1, value));
            let mut sums: Option<[Var<'_>; 3]> = None;
            for &i in batch {
                let t = &buffer.transitions[i];
                let (obs, mask) = (&t.observation, &t.rule_mask);
                let counts = &t.location_counts;
                let eval = policy.evaluate_all_rows(&tape, obs, t.action, mask, counts);
                let ratio = eval.log_prob.sub(&scalar(t.log_prob)).exp();
                // clamp(x) = low + relu(x - low) - relu(x - high)
                let (low, high) = (scalar(1.0 - clip), scalar(1.0 + clip));
                let clipped = low
                    .add(&ratio.sub(&low).relu())
                    .sub(&ratio.sub(&high).relu());
                let advantage = scalar(buffer.advantage(i) as f32);
                let (unclipped, clipped) = (ratio.mul(&advantage), clipped.mul(&advantage));
                // min(a, b) = a - relu(a - b)
                let surrogate = unclipped.sub(&unclipped.sub(&clipped).relu());
                let value_diff = eval.value.sub(&scalar(buffer.return_at(i) as f32));
                let losses = [
                    surrogate.scale(-1.0),
                    value_diff.mul(&value_diff),
                    eval.entropy,
                ];
                sums = Some(match sums {
                    None => losses,
                    Some(sums) => [0, 1, 2].map(|k| sums[k].add(&losses[k])),
                });
            }
            let mean = 1.0 / batch.len() as f32;
            let [policy_loss, value_loss, entropy] =
                sums.expect("non-empty batch").map(|sum| sum.scale(mean));
            policy_loss
                .add(&value_loss.scale(ppo.value_coefficient))
                .sub(&entropy.scale(ppo.entropy_coefficient))
                .backward();
            optimizer.step();
        }
    }
}

/// `Trainer::train`'s experience collection over the tree-walking
/// environment and the taped `act`, feeding the reference update.
fn reference_training(setup: &Setup) -> PolicySnapshot {
    let parts = &setup.parts;
    let mut init = StdRng::seed_from_u64(setup.seed ^ 0x90_11C7);
    let policy = Policy::new(setup.policy, &mut init);
    let ppo = PpoConfig::small();
    let mut optimizer =
        Adam::new(policy.parameters(), ppo.learning_rate).with_grad_clip(ppo.max_grad_norm);
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
            let location_counts = env.location_counts();
            let reward = env.step(sample.action);
            buffer.push(Transition {
                observation,
                action: sample.action,
                rule_mask,
                location_counts,
                log_prob: sample.log_prob,
                value: sample.value,
                reward,
                done: env.finished,
            });
            collected += 1;
        }
        if buffer.len() >= ppo.steps_per_update || collected >= setup.timesteps {
            reference_update(&policy, &mut optimizer, &ppo, &mut buffer);
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
        "tape-free act and CLS-row updates train the reference policy"
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

/// A deeper Transformer: its first layer computes every position's query
/// too, and is not the `CLS`-only last layer.
fn two_layer_transformer(config: PolicyConfig) -> PolicyConfig {
    PolicyConfig {
        encoder: EncoderArch::Transformer {
            layers: 2,
            heads: 4,
        },
        ..config
    }
}

#[test]
fn an_untrained_two_layer_transformer_agent_compiles_like_the_reference() {
    let (agent, parts) = untrained_agent(27, two_layer_transformer);
    for (what, program) in programs().iter().skip(1).step_by(8) {
        assert_same_compile(&format!("2 layers, {what}"), &agent, &parts, program);
    }
}

/// The census of the row table: one row per distinct (token, position) among
/// the observations the policy was evaluated on — the reference search's,
/// which are the agent's.
#[test]
fn encoded_rows_count_the_distinct_tokens_at_each_position() {
    let (agent, parts) = untrained_agent(28, |c| c);
    let program = cleanup(porcupine::dot_product(8).program());
    let observations = reference_optimize(agent.policy(), &parts, &program).observations;
    let outcome = agent.optimize(&program);
    let pairs: HashSet<(usize, usize)> = (observations.iter())
        .flat_map(|obs| obs.iter().copied().enumerate())
        .collect();
    assert_eq!(outcome.policy_evaluations, observations.len());
    assert_eq!(outcome.encoded_rows, pairs.len());
    let rows = observations.len() * parts.config.env.observation_len;
    assert!(
        pairs.len() < rows,
        "{} rows for {rows} observed",
        pairs.len()
    );
}

/// Nothing an `optimize` call keeps outlives it: after a weight change the
/// next compile is the reference's under the new weights.
#[test]
fn a_compile_after_a_weight_change_follows_the_new_weights() {
    for (layers, configure) in [
        (1, (|c| c) as fn(PolicyConfig) -> PolicyConfig),
        (2, two_layer_transformer),
    ] {
        let (agent, parts) = untrained_agent(29, configure);
        let program = cleanup(porcupine::dot_product(8).program());
        let before = agent.optimize(&program);
        for p in agent.policy().parameters() {
            p.set_value(p.value().map(|v| v * 1.5 + 0.01));
        }
        let what = format!("{layers} layers, new weights");
        let after = assert_same_compile(&what, &agent, &parts, &program);
        assert!(before.encoded_rows > 0 && after.encoded_rows > 0, "{what}");
    }
}

/// The ICI ids the environment reads off the term graph are those of the
/// state's tree, at every length, on the benchmark's programs and one with
/// more identifiers than the vocabulary reserves.
#[test]
fn graph_tokens_are_the_tree_tokens_of_every_program() {
    let vocabulary = chehab::ir::Vocabulary::ici();
    let wide = (0..MAX_ICI_VARIABLES + 8).fold("(* x y)".to_string(), |sum, i| {
        format!("(+ {sum} (* a{i} 7{i}))")
    });
    let wide = ("wide".to_string(), chehab::ir::parse(&wide).unwrap());
    for (what, program) in programs().into_iter().chain([wide]) {
        let mut graph = TermGraph::new();
        let root = graph.intern_expr(&program);
        for len in [1, 8, 96, 4 * program.node_count()] {
            assert_eq!(
                vocabulary.encode_graph(&graph, root, len),
                vocabulary.encode_expr(&program, len),
                "{what}, {len} tokens"
            );
        }
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
        "tape-free act and CLS-row updates train the reference policy"
    );
    // The GRU encoder and the flat head take other paths through `evaluate`.
    for (what, other) in [
        (
            "gru",
            AgentTrainingOptions {
                gru_encoder: true,
                timesteps: 128,
                ..options.clone()
            },
        ),
        (
            "flat",
            AgentTrainingOptions {
                flat_action_space: true,
                ..options.clone()
            },
        ),
    ] {
        assert_eq!(
            weight_bits(&train_agent(&other).agent),
            snapshot_bits(&reference_training(&self::setup(&other))),
            "{what}: trained weights"
        );
    }
    let (gru, gru_parts) = untrained_agent(21, |c| c.with_gru(2));
    let (flat, flat_parts) = untrained_agent(22, PolicyConfig::flat);
    let (deep, deep_parts) = untrained_agent(27, two_layer_transformer);
    for (what, program) in programs() {
        assert_same_compile(&what, &trained.agent, &setup.parts, &program);
        assert_same_compile(&format!("gru, {what}"), &gru, &gru_parts, &program);
        assert_same_compile(&format!("flat, {what}"), &flat, &flat_parts, &program);
        assert_same_compile(&format!("2 layers, {what}"), &deep, &deep_parts, &program);
    }
}

/// PPO's ratio compares `evaluate`'s probability of a stored action with the
/// one `act` sampled it at, so both must mask the same actions. Along
/// episodes of `Dot Product 8`, under either action space, they agree on
/// every sampled action's log-probability.
#[test]
fn act_and_evaluate_agree_on_every_sampled_log_prob() {
    for flat in [false, true] {
        let what = if flat { "flat" } else { "hierarchical" };
        let (agent, parts) = untrained_agent(25, |c| if flat { c.flat() } else { c });
        let policy = agent.policy();
        let program = cleanup(porcupine::dot_product(8).program());
        let mut env = RewriteEnv::new(
            program.clone(),
            Arc::clone(&parts.engine),
            Arc::clone(&parts.tokenizer),
            parts.config.env.clone(),
        );
        let mut rng = StdRng::seed_from_u64(26);
        let mut applied = 0;
        for step in 0..24 {
            if env.is_finished() {
                env.reset(program.clone());
            }
            let (obs, mask) = (env.observe(), env.rule_mask());
            let sample = policy.act(&obs, &mask, |r| env.location_count(r), &mut rng, false);
            let tape = Tape::new();
            let eval = policy.evaluate(&tape, &obs, sample.action, &mask, &env.location_counts());
            let gap = (eval.log_prob.get(0, 0) - sample.log_prob).abs();
            assert!(
                gap < 1e-5,
                "{what}, step {step}: act and evaluate differ by {gap}"
            );
            if let Action::Apply { .. } = sample.action {
                applied += 1;
            }
            env.step(sample.action);
        }
        assert!(applied > 0, "{what}: the episodes apply rules");
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
    assert!(first.encoded_rows > 0);
    assert_eq!(first.encoded_rows, second.encoded_rows);
    assert_eq!(first.optimized, second.optimized);
}

/// The gradient a `1 × 1` parameter `x = 1` receives through `y = 1 · x` when
/// `y` is read by `c = 1 · y`, `a = 1e8 · y` and `b = -1e8 · y` (recorded in
/// that order) and the loss is `(a + b) + c`.
fn three_consumer_gradient(tape: &Tape) -> f32 {
    let x = Tensor::parameter(Matrix::full(1, 1, 1.0));
    let y = tape.param(&x).scale(1.0);
    let (c, a, b) = (y.scale(1.0), y.scale(1e8), y.scale(-1e8));
    a.add(&b).add(&c).backward();
    let gradient = x.borrow_grad().get(0, 0);
    gradient
}

#[test]
fn accumulation_order_is_part_of_the_tape_contract() {
    // Gradients are handed back in the reverse of the depth-first post-order
    // from the loss over operands in operand order: post-order is a, b,
    // a + b, c, so `y` receives c's 1 first, then b's -1e8 (absorbing the 1:
    // f32 spacing at 1e8 is 8), then a's 1e8 — zero. Reverse creation order
    // would add -1e8, 1e8 and then 1, and leave 1.
    assert_eq!(
        three_consumer_gradient(&Tape::new()).to_bits(),
        0f32.to_bits()
    );

    // A cleared tape is a fresh one: the same evaluation leaves the same
    // gradient bits whether its buffers are new or still hold another graph.
    let (agent, _) = untrained_agent(24, |c| c);
    let policy = agent.policy();
    let mask = vec![true; policy.config().rule_count + 1];
    let counts = vec![3; policy.config().rule_count];
    let gradients = |tape: &Tape, obs: &[usize], action: Action| -> Vec<Vec<u32>> {
        policy.zero_grad();
        let eval = policy.evaluate(tape, obs, action, &mask, &counts);
        let loss = eval.log_prob.add(&eval.value.mul(&eval.entropy));
        loss.backward();
        let bits = |p: &Tensor| p.borrow_grad().data().iter().map(|v| v.to_bits()).collect();
        policy.parameters().iter().map(bits).collect()
    };
    let apply = Action::Apply {
        rule: 2,
        location: 1,
    };
    let fresh = gradients(&Tape::new(), &[5, 3, 8, 1], apply);
    let mut reused = Tape::new();
    gradients(&reused, &[7; 40], Action::Stop);
    assert_eq!(three_consumer_gradient(&reused).to_bits(), 0f32.to_bits());
    reused.clear();
    assert_eq!(gradients(&reused, &[5, 3, 8, 1], apply), fresh);
}
