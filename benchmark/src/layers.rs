//! The traced run: the per-layer ladder under the end-to-end chain.
//!
//! Three sources, all outside `crates/`: (1) harness spans around public
//! calls; (2) values public calls already return (`CompileStats`,
//! `SessionStats`, `ExecutionReport::{server_time, timing}`, `ServingStats`,
//! `CoalescerStats`, `FheSession::metrics()`); (3) isolated calls into lower
//! layers' public functions on the workload's own shapes. Where a parent call
//! is opaque (`Compiler::compile`), its children are re-timed as sibling
//! calls on the same input. A metric that does not apply to a workload (the
//! RL layers off `rl_datagen_k3`, the coalescer off `batched_open_k2`) reads 0.

use crate::phases::{closed_loop, open_loop, solo_phase, EngineOutcome, SoloOutcome, Stop};
use crate::setup::{
    is_correct, params, prepare, Compilers, Prepared, Row, Tally, Unit, COMPILE_LIMIT,
};
use crate::spans::{chrome_trace_json, Tracer};
use crate::stats::{mean, median, ms, percentile, ratio, us, Metric};
use crate::workloads::{threads, CompilerKind, OpenLoad, Solo, Traffic, Workload};
use crate::Report;
use chehab_core::{
    select_rotation_keys, BatchPolicy, ExecOptions, FheSession, OptimizerKind, SchedulerKind,
};
use chehab_fhe::poly::NttTables;
use chehab_fhe::{
    BfvParameters, Ciphertext, Decryptor, Encryptor, Evaluator, FheContext, KeyGenerator,
};
use chehab_ir::{cleanup, rotation_steps, CircuitDag, DagNode, DataKind, Expr};
use chehab_rl::ObservationTokenizer;
use chehab_runtime::{data_kinds, CoalescerConfig, RequestCoalescer, ServingConfig, ServingEngine};
use chehab_trs::RewriteEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests per phase in the traced run.
const TRACED_REQUESTS: usize = 200;
/// Requests per program and thread count in the thread-scaling pass.
const SCALING_REQUESTS: usize = 6;
/// Observation length of the policy (`EnvConfig::observation_len`).
const OBSERVATION_TOKENS: usize = 96;
/// Match locations the policy addresses (`train_agent`'s `max_locations`).
const MAX_LOCATIONS: usize = 8;
/// Rates of the open-loop sweep, requests per second, and its latency limit.
const SWEEP_RATES: [f64; 3] = [1000.0, 3000.0, 6000.0];
const SLO_P99_MS: f64 = 25.0;

/// Median of `reps` walls, each taken by `sample` itself (so it can keep
/// clean-up out of the timed interval).
fn median_wall(reps: usize, sample: impl FnMut() -> Duration) -> Duration {
    let mut walls: Vec<Duration> = std::iter::repeat_with(sample).take(reps.max(1)).collect();
    walls.sort_unstable();
    walls[walls.len() / 2]
}

/// Median wall of `reps` calls of `f`, and the last result.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, Duration) {
    let mut last = None;
    let wall = median_wall(reps, || {
        let started = Instant::now();
        last = Some(black_box(f()));
        started.elapsed()
    });
    (last.expect("reps >= 1"), wall)
}

/// The compile-side ladder of one program: `Compiler::compile` is opaque, so
/// its children are re-timed here as sibling calls on the same input.
#[derive(Debug, Clone, Copy, Default)]
struct CompileLayers {
    /// The whole `compile`, re-timed next to its children so that parent and
    /// children see the same spell of the host.
    compile: Duration,
    cleanup: Duration,
    cost_call: Duration,
    tokenize: Duration,
    all_matches: Duration,
    matches: usize,
    mask: Duration,
    greedy: Duration,
    greedy_steps: usize,
    rl_optimize: Duration,
    rl_steps: usize,
    rl_improved: bool,
    policy_forward: Duration,
    act: Duration,
    rotation_plan: Duration,
    dag_build: Duration,
    dag_nodes: usize,
}

fn compile_layers(
    compilers: &Compilers,
    kind: CompilerKind,
    original: &Expr,
    circuit: &Expr,
) -> CompileLayers {
    let options = compilers.compiler(kind).options();
    let model = &options.cost_model;
    let engine = RewriteEngine::new();
    let tokenizer = ObservationTokenizer::ici();
    let cleaned = cleanup(original);

    let mut layers = CompileLayers {
        // `compile` cleans up twice: the original, then the optimizer's output.
        cleanup: timed(3, || cleanup(original)).1 + timed(3, || cleanup(circuit)).1,
        cost_call: timed(25, || model.cost(&cleaned)).1,
        tokenize: timed(25, || tokenizer.encode(&cleaned, OBSERVATION_TOKENS)).1,
        mask: timed(3, || engine.applicability_mask(&cleaned)).1,
        compile: timed(1, || compilers.compiler(kind).compile("retimed", original)).1,
        ..CompileLayers::default()
    };
    let (dag, wall) = timed(3, || CircuitDag::from_expr(circuit).eliminate_dead_code());
    (layers.dag_nodes, layers.dag_build) = (dag.len(), wall);
    let (matches, wall) = timed(1, || engine.all_matches(&cleaned));
    (layers.matches, layers.all_matches) = (matches.len(), wall);
    let steps: Vec<i64> = rotation_steps(circuit).keys().copied().collect();
    layers.rotation_plan = timed(3, || {
        select_rotation_keys(&steps, options.rotation_key_budget)
    })
    .1;

    match &options.optimizer {
        OptimizerKind::None => {}
        OptimizerKind::Greedy { max_steps } => {
            let ((_, steps), wall) =
                timed(1, || engine.greedy_optimize(&cleaned, model, *max_steps));
            (layers.greedy, layers.greedy_steps) = (wall, steps);
        }
        OptimizerKind::RlPolicy(agent) => {
            let (outcome, wall) = timed(1, || agent.optimize(&cleaned));
            layers.rl_optimize = wall;
            layers.rl_steps = outcome.steps;
            layers.rl_improved = outcome.final_cost < outcome.initial_cost;

            let observation = tokenizer.encode(&cleaned, OBSERVATION_TOKENS);
            let mut mask = agent.engine().applicability_mask(&cleaned);
            mask.push(true);
            let mut rng = StdRng::seed_from_u64(0);
            layers.policy_forward = timed(5, || agent.policy().value(&observation)).1;
            layers.act = timed(5, || {
                agent.policy().act(
                    &observation,
                    &mask,
                    |rule| {
                        agent
                            .engine()
                            .matches(&cleaned, rule)
                            .len()
                            .min(MAX_LOCATIONS)
                    },
                    &mut rng,
                    true,
                )
            })
            .1;
        }
    }
    layers
}

/// Ciphertexts `FheSession` encrypts per request, *computed* from the DAG
/// the way its client-side binding walks it today: every ciphertext input
/// node, plus every leaf-only vector packed before encryption.
fn encryptions_per_request(session: &FheSession) -> usize {
    let dag = CircuitDag::from_expr(session.program().circuit()).eliminate_dead_code();
    let kinds = data_kinds(&dag);
    let packed_by_client = session.program().layout_before_encryption();
    dag.nodes()
        .iter()
        .enumerate()
        .filter(|(id, node)| {
            kinds[*id] != DataKind::Plaintext
                && match node {
                    DagNode::CtVar(_) => true,
                    DagNode::Vec(elems) => {
                        packed_by_client && elems.iter().all(|&e| dag.nodes()[e].is_leaf())
                    }
                    _ => false,
                }
        })
        .count()
}

/// The `chehab-fhe` rungs at the workload's degree and limb count, warm arena.
#[derive(Debug, Clone, Copy, Default)]
struct FheRungs {
    ntt_fwd_ns_per_coeff: f64,
    ntt_inv_ns_per_coeff: f64,
    encrypt: Duration,
    decrypt: Duration,
    add: Duration,
    mul_plain: Duration,
    mul: Duration,
    rotate: Duration,
    keygen: Duration,
    galois_key: Duration,
}

fn fhe_rungs(params: &BfvParameters) -> Result<FheRungs, String> {
    const OPS: usize = 200;
    let fail = |e: chehab_fhe::FheError| e.to_string();
    let ctx = FheContext::new(params.clone()).map_err(fail)?;
    let (mut keygen, keygen_wall) = timed(3, || {
        let mut keygen = KeyGenerator::new(ctx.params(), 0xBE7C4);
        black_box((keygen.public_key(), keygen.relin_keys()));
        keygen
    });
    let steps = [1i64, 2, 4, 8];
    let (galois, galois_wall) = timed(1, || keygen.galois_keys(&steps));
    let relin = keygen.relin_keys();
    let mut encryptor = Encryptor::new(&ctx, &keygen.public_key());
    let decryptor = Decryptor::new(&ctx, &keygen.secret_key());
    let mut evaluator = Evaluator::new(&ctx);

    let values: Vec<i64> = (1..=16).collect();
    let a = encryptor.encrypt_values(&values).map_err(fail)?;
    let b = encryptor.encrypt_values(&values).map_err(fail)?;
    let plain = ctx.encode(&values).map_err(fail)?;

    let mut rungs = FheRungs {
        keygen: keygen_wall,
        galois_key: galois_wall / steps.len() as u32,
        ..FheRungs::default()
    };
    rungs.encrypt = median_wall(OPS, || {
        let started = Instant::now();
        let fresh = black_box(encryptor.encrypt_values(&values));
        let wall = started.elapsed();
        // Back into the encryptor's arena, outside the timed interval.
        if let Ok(fresh) = fresh {
            let mut arena = encryptor.take_arena();
            fresh.recycle_into(&mut arena);
            encryptor.set_arena(arena);
        }
        wall
    });
    let mut op = |f: &dyn Fn(&mut Evaluator) -> Ciphertext| {
        median_wall(OPS, || {
            let started = Instant::now();
            let out = black_box(f(&mut evaluator));
            let wall = started.elapsed();
            evaluator.recycle(out);
            wall
        })
    };
    rungs.add = op(&|e| e.add(&a, &b));
    rungs.mul_plain = op(&|e| e.multiply_plain(&a, &plain));
    rungs.mul = op(&|e| e.multiply(&a, &b, &relin));
    rungs.rotate = op(&|e| e.rotate(&a, 1, &galois).expect("step 1 is keyed"));
    let product = evaluator.multiply(&a, &b, &relin);
    rungs.decrypt = timed(OPS, || decryptor.decrypt_slots(&product).map(<[u64]>::len)).1;

    // NTT rungs over every limb of the chain: limb 0 is the Goldilocks
    // tables, the rest the generic Barrett limbs.
    let degree = params.payload_degree;
    let goldilocks = NttTables::new(degree);
    let mut forward = Duration::ZERO;
    let mut inverse = Duration::ZERO;
    for limb in ctx.chain().limbs().iter().take(params.limb_count) {
        let modulus = limb.modulus();
        let mut buffer: Vec<u64> = (0..degree as u64)
            .map(|j| j.wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus)
            .collect();
        match limb.ntt() {
            None => {
                forward += timed(OPS, || goldilocks.forward(&mut buffer)).1;
                inverse += timed(OPS, || goldilocks.inverse(&mut buffer)).1;
            }
            Some(ntt) => {
                forward += timed(OPS, || ntt.forward(&mut buffer)).1;
                inverse += timed(OPS, || ntt.inverse(&mut buffer)).1;
            }
        }
    }
    let coeffs = (degree * params.limb_count) as f64;
    rungs.ntt_fwd_ns_per_coeff = forward.as_secs_f64() * 1e9 / coeffs;
    rungs.ntt_inv_ns_per_coeff = inverse.as_secs_f64() * 1e9 / coeffs;
    Ok(rungs)
}

/// Median submit→wait round trip through a `ServingEngine` and through a
/// `RequestCoalescer` (flush at one request, no linger) whose handlers do
/// nothing: the cost of queue, hand-off and handle alone.
fn noop_round_trips() -> (Duration, Duration) {
    const TRIPS: usize = 2000;
    let engine = ServingEngine::new(ServingConfig::sized(1, 64), |_, request: u64| request);
    let engine_trip = timed(TRIPS, || {
        engine.submit(7).ok().and_then(|h| h.try_wait().ok())
    })
    .1;
    engine.shutdown();
    let coalescer = RequestCoalescer::new(
        CoalescerConfig {
            policy: BatchPolicy::default()
                .with_max_batch(1)
                .with_max_linger(Duration::ZERO),
            workers: 1,
            queue_capacity: 64,
            lane_capacity: 1,
        },
        |batch: Vec<(u64, u64)>| batch.into_iter().map(|(_, request)| request).collect(),
    );
    let coalescer_trip = timed(TRIPS, || {
        coalescer.submit(7).ok().and_then(|h| h.try_wait().ok())
    })
    .1;
    coalescer.shutdown();
    (engine_trip, coalescer_trip)
}

/// What the thread-scaling pass reads off `ExecutionReport::timing`.
#[derive(Debug, Default)]
struct Scaling {
    /// Σ over programs of the median `server_time` at one thread / at `T`.
    server_1: f64,
    server_t: f64,
    /// Σ over programs of median (`server_time` − Σ `instr_times`) at one thread.
    dispatch_ms: f64,
    instrs: usize,
    /// Σ over programs of the median critical-path makespan at `T`.
    critical_path_ms: f64,
    queue_wait_us: Vec<f64>,
    steals: Vec<f64>,
    tally: Tally,
}

fn scaling_pass(units: &[Unit], scheduler: SchedulerKind) -> Scaling {
    let mut scaling = Scaling::default();
    let one = ExecOptions::sequential().with_scheduler(scheduler);
    let wide = one.with_threads_per_request(threads());
    for unit in units {
        let Some(session) = &unit.session else {
            continue;
        };
        let run = |options: &ExecOptions, tally: &mut Tally| {
            let mut reports = Vec::new();
            for set in 0..SCALING_REQUESTS {
                let result = session.run_parallel(&unit.case.inputs[set], options);
                tally.note(is_correct(&result, &unit.case.oracle[set]));
                reports.extend(result.ok());
            }
            reports
        };
        let at_one = run(&one, &mut scaling.tally);
        let at_t = run(&wide, &mut scaling.tally);
        let server = |r: &chehab_core::ExecutionReport| ms(r.server_time);
        scaling.server_1 += median(&at_one.iter().map(server).collect::<Vec<_>>());
        scaling.server_t += median(&at_t.iter().map(server).collect::<Vec<_>>());
        scaling.dispatch_ms += median(
            &at_one
                .iter()
                .map(|r| {
                    ms(r.server_time
                        .saturating_sub(r.timing.instr_times.iter().sum()))
                })
                .collect::<Vec<_>>(),
        );
        scaling.instrs += session.schedule().instrs().len();
        scaling.critical_path_ms += median(
            &at_t
                .iter()
                .filter(|r| r.timing.instr_times.len() >= session.schedule().instrs().len())
                .map(|r| {
                    ms(session
                        .schedule()
                        .critical_path_makespan(&r.timing.instr_times))
                })
                .collect::<Vec<_>>(),
        );
        for report in &at_t {
            scaling
                .queue_wait_us
                .extend(report.timing.queue_waits.iter().map(|w| us(*w)));
            scaling.steals.push(report.timing.steals as f64);
        }
    }
    scaling
}

/// Reads a counter of the session's registry (registration is idempotent, so
/// asking for a registered name returns its live handle).
fn session_counter(session: &FheSession, name: &str) -> u64 {
    session.metrics().counter(name, "").get()
}

fn counters(units: &[Unit]) -> (u64, u64) {
    units
        .iter()
        .filter_map(|u| u.session.as_ref())
        .fold((0, 0), |(fresh, ntt), s| {
            (
                fresh + session_counter(s, "chehab_arena_fresh_allocations_total"),
                ntt + session_counter(s, "chehab_ntt_forward_transforms_total")
                    + session_counter(s, "chehab_ntt_inverse_transforms_total"),
            )
        })
}

fn merged(
    outcome: &EngineOutcome,
    pick: impl Fn(&chehab_core::CoalescerStats) -> &chehab_core::Histogram,
) -> chehab_core::Histogram {
    let mut all = chehab_core::Histogram::new();
    for stats in &outcome.coalescers {
        all.merge(pick(stats));
    }
    all
}

pub fn run_traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Report, String> {
    let tracer = Tracer::new(true);
    let setup_started = Instant::now();
    let setup_span = tracer.open("setup", setup_started);
    let prepared: Prepared = prepare(workload, seed, &tracer, setup_span);
    tracer.close(setup_span, setup_started + prepared.wall);
    let mut tally = prepared.warmup;

    // --- compile side: sibling re-timings on the lane that compiled.
    let mut compile: Vec<CompileLayers> = Vec::new();
    for unit in &prepared.units {
        let Some(session) = &unit.session else {
            continue;
        };
        let (kind, original) = (unit.case.program.compiler, unit.case.program.expr.clone());
        let circuit = session.program().circuit().clone();
        let layers = prepared
            .lane
            .call(COMPILE_LIMIT * 2, move |c| {
                compile_layers(c, kind, &original, &circuit)
            })
            .ok_or("re-timing a compile's children overran its limit")?;
        // The re-timed children, laid end to end inside the opaque parents.
        if let Some((span, started)) = unit.compile_span {
            let mut offset = Duration::ZERO;
            for (name, wall) in [
                ("ir.cleanup", layers.cleanup),
                ("trs.greedy_optimize", layers.greedy),
                ("rl.optimize", layers.rl_optimize),
                ("core.rotation_plan", layers.rotation_plan),
            ] {
                tracer.place(name, started, offset, wall, Some(span), None);
                offset += wall;
            }
        }
        if let Some((span, started)) = unit.session_span {
            let stats = session.stats();
            tracer.place(
                "fhe.keygen",
                started,
                Duration::ZERO,
                stats.keygen_time,
                Some(span),
                None,
            );
            tracer.place(
                "runtime.lower",
                started,
                stats.keygen_time,
                stats.lowering_time,
                Some(span),
                None,
            );
        }
        compile.push(layers);
    }
    let sum = |pick: &dyn Fn(&CompileLayers) -> Duration| ms(compile.iter().map(pick).sum());
    let per_call_us = |pick: &dyn Fn(&CompileLayers) -> Duration| {
        mean(&compile.iter().map(|l| us(pick(l))).collect::<Vec<_>>())
    };
    let rows: Vec<_> = prepared.units.iter().map(|u| u.row.clone()).collect();
    let compile_ms = sum(&|l| l.compile);
    let optimizer_ms = sum(&|l| l.greedy) + sum(&|l| l.rl_optimize);
    let cleanup_ms = sum(&|l| l.cleanup);
    let rotation_plan_ms = sum(&|l| l.rotation_plan);
    let cost_calls_ms = 2.0 * sum(&|l| l.cost_call);
    let dag_build_ms = sum(&|l| l.dag_build);
    let compile_attributed =
        optimizer_ms + cleanup_ms + rotation_plan_ms + cost_calls_ms + dag_build_ms;
    let rl_programs = compile.iter().filter(|l| !l.rl_optimize.is_zero()).count();

    // --- session side.
    let sessions: Vec<&FheSession> = prepared
        .units
        .iter()
        .filter_map(|u| u.session.as_deref())
        .collect();
    let lower_ms: f64 = sessions
        .iter()
        .map(|s| ms(timed(3, || s.program().schedule()).1))
        .sum();
    let encrypts: Vec<f64> = prepared
        .units
        .iter()
        .map(|u| {
            u.session
                .as_deref()
                .map_or(0.0, |s| encryptions_per_request(s) as f64)
        })
        .collect();

    // --- request side: the same solo requests untraced and traced, in
    // alternating quarters so neither side gets the warmer half.
    let quarter = Stop::Requests(TRACED_REQUESTS / 4);
    let off = Tracer::new(false);
    let (mut untraced, mut solo) = (SoloOutcome::default(), SoloOutcome::default());
    let before = counters(&prepared.units);
    for _ in 0..4 {
        for (tracer, into) in [(&off, &mut untraced), (&tracer, &mut solo)] {
            let part = solo_phase(
                &prepared.units,
                workload.solo,
                quarter,
                tracer,
                into.samples.len() as u64,
                0,
            );
            into.samples.extend(part.samples);
            tally.add(part.tally);
        }
    }
    let after = counters(&prepared.units);
    let requests = (solo.samples.len() + untraced.samples.len()).max(1) as f64;
    let traced_requests = solo.samples.len().max(1) as f64;
    let wall_ms: f64 = solo.samples.iter().map(|s| s.wall_ms).sum();
    let server_ms: f64 = solo.samples.iter().map(|s| s.server_ms).sum();
    let p50 = |o: &SoloOutcome| median(&o.samples.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    let trace_overhead_pct = 100.0 * (ratio(p50(&solo), p50(&untraced)) - 1.0);

    let scheduler = match workload.solo {
        Solo::Run => SchedulerKind::Leveled,
        Solo::Parallel(options) => options.scheduler,
    };
    let scaling = scaling_pass(&prepared.units, scheduler);
    tally.add(scaling.tally);

    // --- engine side.
    let engine = match workload.traffic {
        Traffic::Closed { clients, options } => closed_loop(
            &prepared.units,
            clients,
            &options,
            Stop::Requests(TRACED_REQUESTS),
        ),
        Traffic::Open(load) => open_loop(
            &prepared.units,
            load,
            Duration::from_secs_f64(seconds / 8.0),
            seed,
        ),
    };
    tally.add(engine.tally);
    let batches: u64 = engine.coalescers.iter().map(|c| c.batches_formed).sum();
    let batched: u64 = engine.coalescers.iter().map(|c| c.completed).sum();
    let (engine_trip, coalescer_trip) = noop_round_trips();

    // Latency at each of a few fixed rates, and the highest that meets the
    // limit (a step function of the rate, so reported here and not gated).
    let mut sweep_p99 = [0.0f64; SWEEP_RATES.len()];
    let mut max_rate_in_slo = 0.0;
    if let Traffic::Open(load) = workload.traffic {
        for (slot, rate) in SWEEP_RATES.iter().enumerate() {
            let step = open_loop(
                &prepared.units,
                OpenLoad {
                    rate: *rate,
                    ..load
                },
                Duration::from_secs_f64(seconds / 6.0),
                seed,
            );
            tally.add(step.tally);
            let latencies: Vec<f64> = step.done.iter().map(|(_, latency)| *latency).collect();
            sweep_p99[slot] = percentile(&latencies, 0.99);
            if step.tally.failed == 0 && sweep_p99[slot] <= SLO_P99_MS {
                max_rate_in_slo = *rate;
            }
        }
    }

    let p = params(workload);
    let fhe = fhe_rungs(&p)?;
    // Computed, not measured, bytes of one ct-ct multiply: two operands of
    // two polynomials read and one result of two written, each
    // `degree * k * 8` bytes — six streams.
    let mul_bytes = (p.payload_degree * p.limb_count * 8 * 6) as f64;

    // Request attribution: what the leaf metrics explain of the traced solo
    // wall. Left over is chehab-core's own client-side bookkeeping.
    let client_fhe_ms = solo
        .samples
        .iter()
        .map(|s| encrypts.get(s.unit).copied().unwrap_or(0.0) * ms(fhe.encrypt) + ms(fhe.decrypt))
        .sum::<f64>();
    let request_unattributed = ratio((wall_ms - server_ms - client_fhe_ms).max(0.0), wall_ms);

    let metric = |name, unit, value| Metric { name, unit, value };
    let session_median = |pick: &dyn Fn(&Row) -> f64| {
        median(
            &rows
                .iter()
                .filter(|r| !r.session_walls.is_empty())
                .map(pick)
                .collect::<Vec<_>>(),
        )
    };
    let metrics = vec![
        metric("ir.cleanup_ms", "ms", cleanup_ms),
        metric("ir.cost_us", "us", per_call_us(&|l| l.cost_call)),
        metric("ir.tokenize_us", "us", per_call_us(&|l| l.tokenize)),
        metric(
            "ir.dag_nodes",
            "count",
            compile.iter().map(|l| l.dag_nodes as f64).sum(),
        ),
        metric("ir.dag_build_ms", "ms", dag_build_ms),
        metric("trs.all_matches_ms", "ms", sum(&|l| l.all_matches)),
        metric(
            "trs.matches",
            "count",
            compile.iter().map(|l| l.matches as f64).sum(),
        ),
        metric("trs.greedy_ms", "ms", sum(&|l| l.greedy)),
        metric(
            "trs.greedy_steps",
            "count",
            compile.iter().map(|l| l.greedy_steps as f64).sum(),
        ),
        metric(
            "trs.steps_per_match",
            "ratio",
            ratio(
                compile.iter().map(|l| l.greedy_steps as f64).sum(),
                compile
                    .iter()
                    .filter(|l| !l.greedy.is_zero())
                    .map(|l| l.matches as f64)
                    .sum(),
            ),
        ),
        metric("trs.mask_ms", "ms", sum(&|l| l.mask)),
        metric(
            "nn.policy_forward_ms",
            "ms",
            ratio(sum(&|l| l.policy_forward), rl_programs as f64),
        ),
        metric(
            "rl.act_ms",
            "ms",
            ratio(sum(&|l| l.act), rl_programs as f64),
        ),
        metric("rl.optimize_ms", "ms", sum(&|l| l.rl_optimize)),
        metric(
            "rl.rollout_steps",
            "count",
            compile.iter().map(|l| l.rl_steps as f64).sum(),
        ),
        metric(
            "rl.improved_share",
            "ratio",
            ratio(
                compile.iter().filter(|l| l.rl_improved).count() as f64,
                rl_programs as f64,
            ),
        ),
        metric(
            "rl.train_steps_per_s",
            "1/s",
            ratio(
                prepared.training.timesteps as f64,
                prepared.training.wall.as_secs_f64(),
            ),
        ),
        metric(
            "core.compile_self_ms",
            "ms",
            (compile_ms - optimizer_ms - cleanup_ms).max(0.0),
        ),
        metric("core.rotation_plan_ms", "ms", rotation_plan_ms),
        metric(
            "core.galois_keys",
            "count",
            rows.iter().map(|r| r.galois_keys as f64).sum(),
        ),
        metric("core.keygen_ms", "ms", session_median(&|r| r.keygen_ms)),
        metric("core.lowering_ms", "ms", session_median(&|r| r.lowering_ms)),
        metric(
            "core.encrypts_per_req",
            "count",
            ratio(encrypts.iter().sum(), sessions.len() as f64),
        ),
        metric(
            "core.client_ms",
            "ms",
            (wall_ms - server_ms) / traced_requests,
        ),
        metric(
            "core.client_share",
            "ratio",
            ratio(wall_ms - server_ms, wall_ms),
        ),
        metric("runtime.lower_ms", "ms", lower_ms),
        metric(
            "runtime.instrs",
            "count",
            rows.iter().map(|r| r.instrs as f64).sum(),
        ),
        metric(
            "runtime.max_width",
            "count",
            rows.iter().map(|r| r.width as f64).fold(0.0, f64::max),
        ),
        metric(
            "runtime.exec_ms",
            "ms",
            median(&solo.samples.iter().map(|s| s.server_ms).collect::<Vec<_>>()),
        ),
        metric(
            "runtime.dispatch_us",
            "us",
            ratio(scaling.dispatch_ms * 1e3, scaling.instrs as f64),
        ),
        metric(
            "runtime.critical_path_share",
            "ratio",
            ratio(scaling.critical_path_ms, scaling.server_t),
        ),
        metric(
            "runtime.parallel_speedup",
            "ratio",
            ratio(scaling.server_1, scaling.server_t),
        ),
        metric(
            "runtime.queue_wait_us_p95",
            "us",
            percentile(&scaling.queue_wait_us, 0.95),
        ),
        metric("runtime.steals", "count", mean(&scaling.steals)),
        metric("runtime.engine_noop_us", "us", us(engine_trip)),
        metric(
            "runtime.engine_queue_ms_p50",
            "ms",
            engine.queue_wait.p50().map_or(0.0, ms),
        ),
        metric("runtime.coalescer_noop_us", "us", us(coalescer_trip)),
        metric("runtime.batches", "count", batches as f64),
        metric(
            "runtime.batch_size_mean",
            "count",
            ratio(batched as f64, batches as f64),
        ),
        metric(
            "runtime.linger_ms_p50",
            "ms",
            merged(&engine, |c| &c.linger).p50().map_or(0.0, ms),
        ),
        metric(
            "runtime.lane_occupancy_pct",
            "%",
            merged(&engine, |c| &c.lane_occupancy)
                .mean()
                .map_or(0.0, |m| m.as_nanos() as f64),
        ),
        metric(
            "runtime.generator_late_ms_p99",
            "ms",
            percentile(&engine.generator_late_ms, 0.99),
        ),
        metric("runtime.open_p99_ms_at_1000", "ms", sweep_p99[0]),
        metric("runtime.open_p99_ms_at_3000", "ms", sweep_p99[1]),
        metric("runtime.open_p99_ms_at_6000", "ms", sweep_p99[2]),
        metric("runtime.max_rate_in_slo", "req/s", max_rate_in_slo),
        metric(
            "fhe.ntt_fwd_ns_per_coeff",
            "ns/coeff",
            fhe.ntt_fwd_ns_per_coeff,
        ),
        metric(
            "fhe.ntt_inv_ns_per_coeff",
            "ns/coeff",
            fhe.ntt_inv_ns_per_coeff,
        ),
        metric("fhe.encrypt_us", "us", us(fhe.encrypt)),
        metric("fhe.decrypt_us", "us", us(fhe.decrypt)),
        metric("fhe.add_us", "us", us(fhe.add)),
        metric("fhe.mul_plain_us", "us", us(fhe.mul_plain)),
        metric("fhe.mul_us", "us", us(fhe.mul)),
        metric("fhe.rotate_us", "us", us(fhe.rotate)),
        metric(
            "fhe.mul_gbps",
            "GB/s",
            ratio(mul_bytes / 1e9, fhe.mul.as_secs_f64()),
        ),
        metric(
            "fhe.ratio_mul_add",
            "ratio",
            ratio(us(fhe.mul), us(fhe.add)),
        ),
        metric(
            "fhe.ratio_rot_add",
            "ratio",
            ratio(us(fhe.rotate), us(fhe.add)),
        ),
        metric("fhe.keygen_ms", "ms", ms(fhe.keygen)),
        metric("fhe.galois_key_ms", "ms", ms(fhe.galois_key)),
        metric(
            "fhe.fresh_allocs_per_req",
            "count",
            (after.0 - before.0) as f64 / requests,
        ),
        metric(
            "fhe.ntt_per_req",
            "count",
            (after.1 - before.1) as f64 / requests,
        ),
        metric(
            "compile.unattributed_share",
            "ratio",
            ratio((compile_ms - compile_attributed).max(0.0), compile_ms),
        ),
        metric("request.unattributed_share", "ratio", request_unattributed),
        metric("trace_overhead_pct", "%", trace_overhead_pct),
    ];

    let trace_path = out_dir.join(format!("trace-{}.json", workload.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, chrome_trace_json(&tracer.spans())));
    match written {
        Ok(()) => eprintln!("benchmark: trace written to {}", trace_path.display()),
        Err(error) => eprintln!(
            "benchmark: could not write {}: {error}",
            trace_path.display()
        ),
    }

    Ok(Report {
        metrics,
        tally,
        rows,
        notes: vec![
            ("traced_requests_per_phase", TRACED_REQUESTS.to_string()),
            ("spans", tracer.spans().len().to_string()),
        ],
    })
}
