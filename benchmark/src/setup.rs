//! One complete set-up of a workload: inputs and oracle outputs from the seed
//! → agent training (RL workload) → compile every program → build every
//! session → warm up. The run repeats it and keeps medians, which is also
//! the determinism self-check: every repetition compiles every program again
//! and must reproduce the same circuit and the same outputs.

use crate::spans::{SpanId, Tracer};
use crate::stats::ms;
use crate::workloads::{CompilerKind, Program, Solo, Workload};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use chehab_core::{output_slots_of, CompiledProgram, Compiler, ExecutionReport, FheSession};
use chehab_fhe::{BfvParameters, FheError};
use chehab_ir::{evaluate, Env};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Input sets generated (and oracle outputs pre-computed) per program.
pub const INPUT_SETS: usize = 64;
/// Untimed requests served per session before anything is timed.
const WARMUP_REQUESTS: usize = 2;
/// A compile that outlives this counts every request of its program as
/// failed instead of hanging the run.
pub const COMPILE_LIMIT: Duration = Duration::from_secs(20);
/// Bound on agent training (fixed work, about two seconds on the sizing host).
const TRAIN_LIMIT: Duration = Duration::from_secs(150);

pub type Inputs = HashMap<String, i64>;

type Job<C> = Box<dyn FnOnce(&C) + Send>;

/// A thread that owns a value which cannot cross threads (the RL agent's
/// tensors are `!Send`) and runs time-boxed jobs against it. A job that
/// exceeds its limit wedges the lane: later calls return `None` at once
/// instead of queueing behind it, and the thread is abandoned to process
/// exit.
pub struct Lane<C> {
    jobs: Option<Sender<Job<C>>>,
    wedged: Cell<bool>,
    thread: Option<JoinHandle<()>>,
}

impl<C: 'static> Lane<C> {
    pub fn spawn(make: impl FnOnce() -> C + Send + 'static) -> Self {
        let (jobs, queue) = channel::<Job<C>>();
        let thread = std::thread::spawn(move || {
            let context = make();
            for job in queue {
                job(&context);
            }
        });
        Lane {
            jobs: Some(jobs),
            wedged: Cell::new(false),
            thread: Some(thread),
        }
    }

    /// Runs `job` on the lane; `None` if it (or an earlier job) overran its
    /// limit or panicked.
    pub fn call<R: Send + 'static>(
        &self,
        limit: Duration,
        job: impl FnOnce(&C) -> R + Send + 'static,
    ) -> Option<R> {
        if self.wedged.get() {
            return None;
        }
        let (reply, result) = channel();
        self.jobs
            .as_ref()?
            .send(Box::new(move |context: &C| {
                let _ = reply.send(job(context));
            }))
            .ok()?;
        let outcome = result.recv_timeout(limit).ok();
        if outcome.is_none() {
            self.wedged.set(true);
        }
        outcome
    }
}

impl<C> Drop for Lane<C> {
    fn drop(&mut self) {
        self.jobs = None;
        if let (false, Some(thread)) = (self.wedged.get(), self.thread.take()) {
            let _ = thread.join();
        }
    }
}

/// What the compile lane owns: one compiler per configuration the workload
/// uses (the RL one holds the agent trained for it).
pub struct Compilers {
    greedy: Compiler,
    unoptimized: Compiler,
    rl: Option<Compiler>,
    pub training: Training,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Training {
    pub wall: Duration,
    pub timesteps: usize,
}

impl Compilers {
    fn new(train: bool) -> Self {
        let mut training = Training::default();
        let rl = train.then(|| {
            // Fixed training seed and budget: the agent is part of the
            // workload's definition, not of the traffic.
            let options = AgentTrainingOptions::tiny();
            let started = Instant::now();
            let trained = train_agent(&options);
            training = Training {
                wall: started.elapsed(),
                timesteps: options.timesteps,
            };
            Compiler::with_rl_agent(trained.agent)
        });
        Compilers {
            greedy: Compiler::greedy(),
            unoptimized: Compiler::without_optimizer(),
            rl,
            training,
        }
    }

    pub fn compiler(&self, kind: CompilerKind) -> &Compiler {
        match kind {
            CompilerKind::Greedy => &self.greedy,
            CompilerKind::Unoptimized => &self.unoptimized,
            CompilerKind::Rl => self.rl.as_ref().expect("the RL workload trains an agent"),
        }
    }
}

pub fn compile_lane(workload: &Workload) -> Lane<Compilers> {
    let train = workload
        .programs
        .iter()
        .any(|p| p.compiler == CompilerKind::Rl);
    Lane::spawn(move || Compilers::new(train))
}

/// One program with its generated input sets and the oracle's outputs:
/// `chehab_ir::evaluate` on the *original, uncompiled* program, never the
/// compiler under test.
pub struct Case {
    pub program: Program,
    pub inputs: Vec<Inputs>,
    pub oracle: Vec<Vec<u64>>,
}

/// The per-program row of the report.
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub id: String,
    pub nodes: usize,
    /// Every timed `Compiler::compile` / `CompiledProgram::session` wall of
    /// this program, ms: one per set-up, the rest from `retime`.
    pub compile_walls: Vec<f64>,
    pub session_walls: Vec<f64>,
    pub compile_ms: f64,
    pub steps: usize,
    pub cost_before: f64,
    pub cost_after: f64,
    pub instrs: usize,
    pub width: usize,
    pub session_ms: f64,
    pub keygen_ms: f64,
    pub lowering_ms: f64,
    pub galois_keys: usize,
    pub ops: usize,
    pub noise_bits: f64,
    /// Outputs of the first warm-up request (input set 0).
    pub outputs: Vec<u64>,
    /// Filled by the solo phase.
    pub request_ms_p50: f64,
}

pub struct Unit {
    pub case: Case,
    pub row: Row,
    /// Span and start of this unit's `compile` and `session` calls (traced
    /// run), for the children laid inside them afterwards.
    pub compile_span: Option<(SpanId, Instant)>,
    pub session_span: Option<(SpanId, Instant)>,
    /// `None` when the compile hit its time-box or the session failed to
    /// build: every request of the program then counts as failed.
    pub session: Option<Arc<FheSession>>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Prepared {
    pub units: Vec<Unit>,
    /// The lane that compiled them (the traced run re-times its children
    /// there, against the same trained agent).
    pub lane: Lane<Compilers>,
    /// Wall of this whole set-up.
    pub wall: Duration,
    pub training: Training,
    pub warmup: Tally,
}

pub fn params(workload: &Workload) -> BfvParameters {
    BfvParameters::default_128().with_limb_count(workload.limbs)
}

pub fn serve_solo(
    session: &FheSession,
    solo: Solo,
    inputs: &Inputs,
) -> Result<ExecutionReport, FheError> {
    match solo {
        Solo::Run => session.run(inputs),
        Solo::Parallel(options) => session.run_parallel(inputs, &options),
    }
}

/// A request is correct when it decrypted and its slots equal the oracle's.
pub fn is_correct(result: &Result<ExecutionReport, FheError>, oracle: &[u64]) -> bool {
    matches!(result, Ok(report) if report.decryption_ok && report.outputs == oracle)
}

fn generate_cases(workload: &Workload, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    workload
        .programs
        .iter()
        .map(|program| {
            let variables = program.expr.variables();
            let slots = output_slots_of(&program.expr);
            let mut inputs = Vec::with_capacity(INPUT_SETS);
            let mut oracle = Vec::with_capacity(INPUT_SETS);
            for _ in 0..INPUT_SETS {
                let set: Inputs = variables
                    .iter()
                    .map(|v| (v.to_string(), rng.gen_range(0..=16)))
                    .collect();
                let mut env = Env::new();
                for (name, value) in &set {
                    env.bind(name.as_str(), *value);
                }
                let value = evaluate(&program.expr, &env)
                    .expect("benchmark programs are well-typed and fully bound");
                oracle.push(value.slots().into_iter().take(slots).collect());
                inputs.push(set);
            }
            Case {
                program: program.clone(),
                inputs,
                oracle,
            }
        })
        .collect()
}

fn compile_on(
    lane: &Lane<Compilers>,
    program: &Program,
) -> Option<(CompiledProgram, Instant, Duration)> {
    let (id, expr, kind) = (program.id.clone(), program.expr.clone(), program.compiler);
    lane.call(COMPILE_LIMIT, move |compilers| {
        let started = Instant::now();
        let compiled = compilers.compiler(kind).compile(id, &expr);
        (compiled, started, started.elapsed())
    })
}

/// Runs the whole set-up chain once.
pub fn prepare(
    workload: &Workload,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Prepared {
    let started = Instant::now();
    let cases = generate_cases(workload, seed);
    tracer.record(
        "harness.generate_and_oracle",
        started,
        started.elapsed(),
        parent,
        None,
    );

    // A fresh lane per set-up, so agent training is paid (and timed) by
    // every repetition like every other step.
    let lane = compile_lane(workload);
    let train_started = Instant::now();
    let training = lane
        .call(TRAIN_LIMIT, |compilers| compilers.training)
        .unwrap_or_default();
    if training.timesteps > 0 {
        tracer.record("rl.train_agent", train_started, training.wall, parent, None);
    }

    let params = params(workload);
    let mut warmup = Tally::default();
    let units = cases
        .into_iter()
        .map(|case| {
            let mut row = Row {
                id: case.program.id.clone(),
                nodes: case.program.expr.node_count(),
                ..Row::default()
            };
            let (mut compile_span, mut session_span) = (None, None);
            let session = compile_on(&lane, &case.program).and_then(|(compiled, at, wall)| {
                compile_span = tracer.record("core.compile", at, wall, parent, None).map(|id| (id, at));
                row.compile_ms = ms(wall);
                row.compile_walls.push(ms(wall));
                row.steps = compiled.stats().optimizer_steps;
                row.cost_before = compiled.stats().cost_before;
                row.cost_after = compiled.stats().cost_after;
                let at = Instant::now();
                let session = compiled.session(&params);
                let wall = at.elapsed();
                session_span = tracer.record("core.session", at, wall, parent, None).map(|id| (id, at));
                row.session_ms = ms(wall);
                row.session_walls.push(ms(wall));
                session.ok().map(Arc::new)
            });
            if let Some(session) = &session {
                let stats = session.stats();
                row.keygen_ms = ms(stats.keygen_time);
                row.lowering_ms = ms(stats.lowering_time);
                row.galois_keys = stats.galois_key_count;
                row.instrs = session.schedule().instrs().len();
                row.width = session.schedule().max_width();
                for request in 0..WARMUP_REQUESTS {
                    let result = serve_solo(session, workload.solo, &case.inputs[request]);
                    warmup.note(is_correct(&result, &case.oracle[request]));
                    if let (0, Ok(report)) = (request, result) {
                        row.ops = report.operation_stats.total();
                        row.noise_bits = report.noise_budget_consumed;
                        row.outputs = report.outputs;
                    }
                }
            } else {
                eprintln!(
                    "benchmark: {} failed to compile within {COMPILE_LIMIT:?} or to build its session",
                    row.id
                );
            }
            Unit {
                case,
                row,
                compile_span,
                session_span,
                session,
            }
        })
        .collect();

    Prepared {
        units,
        lane,
        wall: started.elapsed(),
        training,
        warmup,
    }
}

/// Re-times the two cheap steps, `Compiler::compile` and
/// `CompiledProgram::session`, for about `budget`: round-robin over the
/// programs from `*cursor` on, at least one program. The run calls it between
/// the blocks of the timed phases, so a program's timings are spread over the
/// whole run instead of sitting inside one set-up. Kept out of
/// [`Prepared::wall`]: it is measurement, not set-up.
pub fn retime(workload: &Workload, prepared: &mut Prepared, cursor: &mut usize, budget: Duration) {
    if prepared.units.iter().all(|unit| unit.session.is_none()) {
        return;
    }
    let params = params(workload);
    let started = Instant::now();
    loop {
        let index = *cursor % prepared.units.len();
        *cursor += 1;
        let unit = &mut prepared.units[index];
        if let Some(session) = &unit.session {
            if let Some((_, _, wall)) = compile_on(&prepared.lane, &unit.case.program) {
                unit.row.compile_walls.push(ms(wall));
            }
            let building = Instant::now();
            let rebuilt = session.program().session(&params);
            unit.row.session_walls.push(ms(building.elapsed()));
            drop(rebuilt);
        }
        if started.elapsed() >= budget {
            return;
        }
    }
}

/// The determinism self-check: two set-ups of the same workload and seed must
/// agree on every program's circuit size, noise, schedule and outputs.
pub fn check_repeatable(first: &[Row], again: &[Row]) -> Result<(), String> {
    for (a, b) in first.iter().zip(again) {
        if (a.ops, a.instrs, &a.outputs) != (b.ops, b.instrs, &b.outputs)
            || a.noise_bits.to_bits() != b.noise_bits.to_bits()
        {
            return Err(format!(
                "{}: compiling twice gave different results: ops {} vs {}, noise bits {} vs {}, \
                 instrs {} vs {}, outputs equal: {}",
                a.id,
                a.ops,
                b.ops,
                a.noise_bits,
                b.noise_bits,
                a.instrs,
                b.instrs,
                a.outputs == b.outputs
            ));
        }
    }
    Ok(())
}
