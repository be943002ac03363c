//! # chehab-bench
//!
//! The evaluation harness of the CHEHAB RL reproduction: shared measurement
//! code used by one experiment binary per figure/table of the paper
//! (Figures 5–13, Tables 1, 6 and 7) plus the Criterion micro-benchmarks.
//!
//! Every binary accepts a few command-line flags (see [`HarnessConfig`]) to
//! scale the run between a quick smoke test and a full-suite evaluation, and
//! writes its rows as CSV into `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

use chehab_benchsuite::Benchmark;
use chehab_core::{
    external_compile_stats, output_slots_of, select_rotation_keys, BatchPolicy, CompiledProgram,
    Compiler, ExecHooks, ExecOptions, ExecutionReport, FaultPlan, TraceSink,
};
use chehab_fhe::{BfvParameters, FheError, SimdPolicy};
use chehab_ir::{circuit_depth, multiplicative_depth, rotation_steps};
use chehab_rl::Agent;
use coyote_baseline::{CoyoteCompiler, CoyoteConfig};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line configuration shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Number of timed executions per circuit (the median is reported).
    pub runs: usize,
    /// Payload polynomial degree of the BFV cost simulation.
    pub payload_degree: usize,
    /// PPO timesteps for agents trained inside the harness.
    pub timesteps: usize,
    /// If `true`, only a representative subset of benchmark instances is
    /// evaluated (the default); `--full` evaluates every instance.
    pub quick: bool,
    /// Maximum layout candidates the Coyote baseline explores.
    pub coyote_max_candidates: usize,
    /// Worker threads for parallel-runtime measurements (`--threads N`).
    pub threads: usize,
    /// Requests per kernel for serving measurements (`--requests N`).
    pub requests: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            runs: 3,
            payload_degree: 1024,
            timesteps: 2500,
            quick: true,
            coyote_max_candidates: 48,
            threads: 4,
            requests: 8,
        }
    }
}

impl HarnessConfig {
    /// Parses `--runs N`, `--payload N`, `--timesteps N`, `--full`,
    /// `--threads N`, `--requests N` and `--coyote-candidates N` from the
    /// process arguments.
    pub fn from_args() -> Self {
        let mut config = HarnessConfig::default();
        let args: Vec<String> = std::env::args().collect();
        let value_after = |flag: &str| -> Option<usize> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse().ok())
        };
        if let Some(v) = value_after("--runs") {
            config.runs = v.max(1);
        }
        if let Some(v) = value_after("--payload") {
            config.payload_degree = v.max(8).next_power_of_two();
        }
        if let Some(v) = value_after("--timesteps") {
            config.timesteps = v.max(64);
        }
        if let Some(v) = value_after("--coyote-candidates") {
            config.coyote_max_candidates = v.max(1);
        }
        if let Some(v) = value_after("--threads") {
            config.threads = v.max(1);
        }
        if let Some(v) = value_after("--requests") {
            config.requests = v.max(1);
        }
        if args.iter().any(|a| a == "--full") {
            config.quick = false;
        }
        config
    }

    /// The BFV parameters used for execution measurements.
    pub fn params(&self) -> BfvParameters {
        BfvParameters {
            payload_degree: self.payload_degree,
            ..BfvParameters::default_128()
        }
    }

    /// The Coyote search configuration the harness uses.
    pub fn coyote_config(&self) -> CoyoteConfig {
        CoyoteConfig {
            base_candidates: 8,
            candidates_per_op: 2,
            max_candidates: self.coyote_max_candidates,
            ..CoyoteConfig::default()
        }
    }

    /// The benchmark instances to evaluate under this configuration.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let all = chehab_benchsuite::full_suite();
        if !self.quick {
            return all;
        }
        // Representative quick subset: the smaller instance sizes of every
        // kernel family.
        let keep = [
            "Box Blur 3x3",
            "Box Blur 4x4",
            "Dot Product 4",
            "Dot Product 16",
            "Dot Product 32",
            "Hamm. Dist. 4",
            "Hamm. Dist. 16",
            "L2 Distance 4",
            "L2 Distance 16",
            "L2 Distance 32",
            "Linear Reg. 4",
            "Linear Reg. 16",
            "Linear Reg. 32",
            "Poly. Reg. 4",
            "Poly. Reg. 16",
            "Poly. Reg. 32",
            "Gx 3x3",
            "Gx 4x4",
            "Gy 3x3",
            "Rob. Cross 3x3",
            "Mat. Mul. 3x3",
            "Mat. Mul. 4x4",
            "Max 3",
            "Max 4",
            "Sort 3",
            "Tree 50-50-5",
            "Tree 100-50-5",
            "Tree 100-100-5",
        ];
        all.into_iter()
            .filter(|b| keep.contains(&b.id().as_str()))
            .collect()
    }
}

/// The compiler configurations the evaluation compares.
#[derive(Clone)]
pub enum CompilerUnderTest {
    /// The naive, unoptimized lowering ("Initial" in Table 6).
    Initial,
    /// The original CHEHAB greedy term rewriting.
    ChehabGreedy,
    /// CHEHAB RL with a trained agent.
    ChehabRl(Arc<Agent>),
    /// CHEHAB RL with the input-layout transformation applied after
    /// encryption (the last configuration of Table 6).
    ChehabRlLayoutAfter(Arc<Agent>),
    /// The Coyote-style search baseline.
    Coyote(CoyoteConfig),
}

impl CompilerUnderTest {
    /// Short label used in tables and CSV files.
    pub fn label(&self) -> &'static str {
        match self {
            CompilerUnderTest::Initial => "Initial",
            CompilerUnderTest::ChehabGreedy => "CHEHAB",
            CompilerUnderTest::ChehabRl(_) => "CHEHAB RL",
            CompilerUnderTest::ChehabRlLayoutAfter(_) => "CHEHAB RL (layout after enc.)",
            CompilerUnderTest::Coyote(_) => "Coyote",
        }
    }

    /// Compiles a benchmark program under this configuration.
    pub fn compile(&self, benchmark: &Benchmark) -> CompiledProgram {
        match self {
            CompilerUnderTest::Initial => {
                Compiler::without_optimizer().compile(benchmark.id(), benchmark.program())
            }
            CompilerUnderTest::ChehabGreedy => {
                Compiler::greedy().compile(benchmark.id(), benchmark.program())
            }
            CompilerUnderTest::ChehabRl(agent) => Compiler::with_rl_agent(Arc::clone(agent))
                .compile(benchmark.id(), benchmark.program()),
            CompilerUnderTest::ChehabRlLayoutAfter(agent) => {
                let mut compiler = Compiler::with_rl_agent(Arc::clone(agent));
                compiler.options_mut().layout_before_encryption = false;
                compiler.compile(benchmark.id(), benchmark.program())
            }
            CompilerUnderTest::Coyote(config) => {
                let result =
                    CoyoteCompiler::with_config(config.clone()).compile(benchmark.program());
                let steps: Vec<i64> = rotation_steps(&result.circuit).keys().copied().collect();
                CompiledProgram::from_circuit(
                    benchmark.id(),
                    result.circuit.clone(),
                    output_slots_of(benchmark.program()),
                    select_rotation_keys(&steps, 28),
                    true,
                    external_compile_stats(&result.circuit, result.compile_time),
                )
            }
        }
    }
}

/// One measured (benchmark, compiler) pair.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark identifier (e.g. `"Dot Product 32"`).
    pub benchmark: String,
    /// Compiler label.
    pub compiler: String,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
    /// Median server-side execution time over the configured runs.
    pub exec_time: Duration,
    /// Noise budget consumed by the output ciphertext (bits).
    pub noise_consumed: f64,
    /// Whether decryption succeeded (noise budget not exhausted).
    pub decryption_ok: bool,
    /// Circuit depth of the compiled circuit.
    pub depth: usize,
    /// Multiplicative depth of the compiled circuit.
    pub mult_depth: usize,
    /// Executed ciphertext–ciphertext multiplications.
    pub ct_ct_muls: usize,
    /// Executed ciphertext–plaintext multiplications.
    pub ct_pt_muls: usize,
    /// Executed rotations.
    pub rotations: usize,
    /// Executed ciphertext additions/subtractions/negations.
    pub additions: usize,
    /// Whether the homomorphic result matched the plaintext reference.
    pub correct: bool,
}

/// Compiles and measures one benchmark under one compiler.
pub fn measure(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
) -> Measurement {
    let compiled = compiler.compile(benchmark);
    let inputs: HashMap<String, i64> = benchmark
        .program()
        .variables()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v.to_string(), (i as i64 % 7) + 1))
        .collect();
    let expected = {
        let mut env = chehab_ir::Env::new();
        for (k, v) in &inputs {
            env.bind(k.clone(), *v);
        }
        chehab_ir::evaluate(benchmark.program(), &env)
            .map(|v| {
                v.slots()
                    .into_iter()
                    .take(benchmark.output_slots())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    };

    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let mut reports: Vec<ExecutionReport> = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        match session.run(&inputs) {
            Ok(report) => reports.push(report),
            Err(e) => panic!("{}: execution failed: {e}", benchmark.id()),
        }
    }
    reports.sort_by_key(|r| r.server_time);
    let median = reports[reports.len() / 2].clone();
    let correct = median.decryption_ok
        && median
            .outputs
            .iter()
            .take(expected.len())
            .copied()
            .collect::<Vec<_>>()
            == expected;

    Measurement {
        benchmark: benchmark.id(),
        compiler: compiler.label().to_string(),
        compile_time: compiled.stats().compile_time,
        exec_time: median.server_time,
        noise_consumed: median.noise_budget_consumed,
        decryption_ok: median.decryption_ok,
        depth: circuit_depth(compiled.circuit()),
        mult_depth: multiplicative_depth(compiled.circuit()),
        ct_ct_muls: median.operation_stats.ct_ct_multiplications,
        ct_pt_muls: median.operation_stats.ct_pt_multiplications,
        rotations: median.operation_stats.rotations,
        additions: median.operation_stats.additions + median.operation_stats.negations,
        correct,
    }
}

/// One sequential-vs-parallel comparison of a compiled kernel.
#[derive(Debug, Clone)]
pub struct ParallelMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Compiler label the circuit came from.
    pub compiler: String,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Median sequential server time (ms).
    pub sequential_ms: f64,
    /// Median parallel wall time (ms) as measured on this host — bounded by
    /// the host's actual core count.
    pub parallel_wall_ms: f64,
    /// `sequential_ms / parallel_wall_ms` on this host.
    pub wall_speedup: f64,
    /// Projected `threads`-worker makespan (ms) of the leveled schedule,
    /// computed from measured per-instruction latencies
    /// ([`chehab_core::CompiledProgram::schedule`] +
    /// `Schedule::makespan`) — what the wavefront runtime delivers once the
    /// host has that many free cores.
    pub projected_parallel_ms: f64,
    /// Sequential sum of the same measured per-instruction latencies (ms),
    /// the numerator of the projected speedup.
    pub compute_ms: f64,
    /// `compute_ms / projected_parallel_ms`: the timer-augmented speedup of
    /// the schedule at `threads` workers.
    pub speedup: f64,
    /// Wavefront levels of the schedule (critical-path length).
    pub schedule_levels: usize,
    /// Widest level (available intra-request parallelism).
    pub schedule_width: usize,
    /// Live output slots of the kernel.
    pub output_slots: usize,
}

/// Measures one benchmark under one compiler, sequentially and with the
/// parallel wavefront runtime, reporting median times over `runs`.
pub fn measure_parallel(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    threads: usize,
) -> ParallelMeasurement {
    let compiled = compiler.compile(benchmark);
    let inputs: HashMap<String, i64> = benchmark
        .program()
        .variables()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v.to_string(), (i as i64 % 7) + 1))
        .collect();
    let median = |times: &mut Vec<Duration>| -> Duration {
        times.sort_unstable();
        times[times.len() / 2]
    };
    // One session serves every timed run: keys and schedule are built once,
    // so the medians measure execution, not setup.
    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let schedule = session.schedule();
    let parallel_options = ExecOptions::sequential().with_threads_per_request(threads);
    let mut sequential = Vec::with_capacity(runs.max(1));
    let mut parallel = Vec::with_capacity(runs.max(1));
    let mut compute = Vec::with_capacity(runs.max(1));
    let mut projected = Vec::with_capacity(runs.max(1));
    let mut reference: Option<Vec<u64>> = None;
    for _ in 0..runs.max(1) {
        let seq = session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: sequential execution failed: {e}", benchmark.id()));
        let par = session
            .run_parallel(&inputs, &parallel_options)
            .unwrap_or_else(|e| panic!("{}: parallel execution failed: {e}", benchmark.id()));
        assert_eq!(
            seq.outputs,
            par.outputs,
            "{}: parallel outputs diverged from sequential",
            benchmark.id()
        );
        if let Some(expected) = &reference {
            assert_eq!(
                &par.outputs,
                expected,
                "{}: nondeterministic outputs",
                benchmark.id()
            );
        } else {
            reference = Some(par.outputs.clone());
        }
        // Project the N-worker makespan from the *measured* per-instruction
        // latencies of the sequential run (timer-augmented cost function).
        compute.push(schedule.makespan(&seq.timing.instr_times, 1));
        projected.push(schedule.makespan(&seq.timing.instr_times, threads));
        sequential.push(seq.server_time);
        parallel.push(par.server_time);
    }
    let sequential_ms = ms(median(&mut sequential));
    let parallel_wall_ms = ms(median(&mut parallel));
    let compute_ms = ms(median(&mut compute));
    let projected_parallel_ms = ms(median(&mut projected));
    ParallelMeasurement {
        benchmark: benchmark.id(),
        compiler: compiler.label().to_string(),
        threads,
        sequential_ms,
        parallel_wall_ms,
        wall_speedup: sequential_ms / parallel_wall_ms.max(1e-9),
        projected_parallel_ms,
        compute_ms,
        speedup: compute_ms / projected_parallel_ms.max(1e-9),
        schedule_levels: schedule.level_count(),
        schedule_width: schedule.max_width(),
        output_slots: benchmark.output_slots(),
    }
}

/// Writes parallel measurements as JSON into `path` and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_parallel_json(
    path: impl AsRef<std::path::Path>,
    threads: usize,
    measurements: &[ParallelMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("compiler".into(), Value::Str(m.compiler.clone())),
                ("threads".into(), Value::Int(m.threads as i64)),
                ("sequential_ms".into(), Value::Float(m.sequential_ms)),
                ("parallel_wall_ms".into(), Value::Float(m.parallel_wall_ms)),
                ("wall_speedup".into(), Value::Float(m.wall_speedup)),
                ("compute_ms".into(), Value::Float(m.compute_ms)),
                (
                    "projected_parallel_ms".into(),
                    Value::Float(m.projected_parallel_ms),
                ),
                ("speedup".into(), Value::Float(m.speedup)),
                (
                    "schedule_levels".into(),
                    Value::Int(m.schedule_levels as i64),
                ),
                ("schedule_width".into(), Value::Int(m.schedule_width as i64)),
                ("output_slots".into(), Value::Int(m.output_slots as i64)),
            ])
        })
        .collect();
    let speedups: Vec<f64> = measurements.iter().map(|m| m.speedup).collect();
    let ones = vec![1.0; speedups.len()];
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("parallel_exec".into())),
        ("threads".into(), Value::Int(threads as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "speedup_semantics".into(),
            Value::Str(
                "speedup = compute_ms / projected_parallel_ms: the N-worker makespan of the \
                 leveled schedule projected from measured per-instruction latencies \
                 (timer-augmented); wall_speedup is the raw wall-clock ratio on this host and \
                 is bounded by host_cpus"
                    .into(),
            ),
        ),
        (
            "geomean_speedup".into(),
            Value::Float(geometric_mean_ratio(&speedups, &ones)),
        ),
        (
            "max_speedup".into(),
            Value::Float(speedups.iter().copied().fold(0.0, f64::max)),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// One session-reuse vs per-call-rebuild serving comparison of a kernel.
///
/// "Rebuild" is the historical shim path: every request pays key generation
/// and schedule lowering again ([`CompiledProgram::execute`]). "Serving" is
/// the session path: one [`chehab_core::FheSession`] built up front, then
/// every request submitted through a persistent
/// [`chehab_runtime::ServingEngine`].
#[derive(Debug, Clone)]
pub struct ServingMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Compiler label the circuit came from.
    pub compiler: String,
    /// Requests per measured pass.
    pub requests: usize,
    /// Median one-time session construction cost (keygen + lowering), ms.
    pub setup_ms: f64,
    /// Median per-request execution time under session reuse, ms.
    pub request_ms: f64,
    /// Median wall time of serving all requests via per-call rebuild, ms.
    pub rebuild_wall_ms: f64,
    /// Median wall time of one session + all requests through the serving
    /// engine, ms.
    pub serving_wall_ms: f64,
    /// `rebuild_wall_ms / requests`: amortized per-request latency of the
    /// rebuild path.
    pub rebuild_per_request_ms: f64,
    /// `serving_wall_ms / requests`: amortized per-request latency of the
    /// serving path (setup divided across the stream).
    pub serving_per_request_ms: f64,
    /// Measured amortized speedup: `rebuild_wall_ms / serving_wall_ms`, the
    /// raw wall-clock ratio on the measuring host (noise-prone on busy
    /// 1-CPU hosts, where the setup signal is a few percent of a pass).
    pub wall_amortized_speedup: f64,
    /// Amortized speedup derived from the median measured component times:
    /// `(setup + request) / (setup / requests + request)` — the same
    /// timer-derived convention as [`ParallelMeasurement::speedup`]. It
    /// quantifies *how much* reuse saves, not *whether* it wins: with any
    /// nonzero setup cost this ratio exceeds 1.0 by construction, so
    /// per-kernel win/loss claims must use
    /// [`ServingMeasurement::wall_amortized_speedup`].
    pub amortized_speedup: f64,
}

/// Measures one kernel's amortized per-request latency under session reuse
/// (one [`chehab_core::FheSession`] + serving engine) versus per-call
/// rebuild (the [`CompiledProgram::execute`] shim), with medians over `runs`
/// passes of `requests` requests each.
pub fn measure_serving(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    requests: usize,
) -> ServingMeasurement {
    let compiled = compiler.compile(benchmark);
    let requests = requests.max(1);
    let input_sets: Vec<HashMap<String, i64>> = (0..requests)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();
    let median = |times: &mut Vec<Duration>| -> Duration {
        times.sort_unstable();
        times[times.len() / 2]
    };

    // Median one-time setup (keygen + schedule lowering + fallbacks).
    let mut setups = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        let session = compiled
            .session(params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        setups.push(started.elapsed());
        drop(session);
    }

    // Median per-request execution time under reuse (one warm session),
    // sampled across `runs` passes over the request stream so a scheduler
    // stall in any single pass cannot skew the median.
    let warm = compiled.session(params).unwrap();
    let mut request_times = Vec::with_capacity(runs.max(1) * requests);
    let mut reuse_outputs = Vec::with_capacity(requests);
    for run in 0..runs.max(1) {
        for inputs in &input_sets {
            let started = Instant::now();
            let report = warm
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: session run failed: {e}", benchmark.id()));
            request_times.push(started.elapsed());
            if run == 0 {
                reuse_outputs.push(report.outputs);
            }
        }
    }

    // Per-call rebuild: every request pays keygen + lowering again.
    let mut rebuild_walls = Vec::with_capacity(runs.max(1));
    for run in 0..runs.max(1) {
        let started = Instant::now();
        for (inputs, expected) in input_sets.iter().zip(&reuse_outputs) {
            let report = compiled
                .execute(inputs, params)
                .unwrap_or_else(|e| panic!("{}: per-call execution failed: {e}", benchmark.id()));
            if run == 0 {
                assert_eq!(
                    &report.outputs,
                    expected,
                    "{}: rebuild and session-reuse outputs diverged",
                    benchmark.id()
                );
            }
        }
        rebuild_walls.push(started.elapsed());
    }

    // Session reuse through the persistent serving engine (sequential worker
    // so the comparison is apples-to-apples on any host).
    let mut serving_walls = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        let session = Arc::new(compiled.session(params).unwrap());
        let engine = session.serve(&ExecOptions::sequential());
        let handles: Vec<_> = input_sets
            .iter()
            .map(|inputs| {
                engine
                    .submit(inputs.clone())
                    .expect("engine accepts while live")
            })
            .collect();
        for (handle, expected) in handles.into_iter().zip(&reuse_outputs) {
            let report = handle
                .wait()
                .unwrap_or_else(|e| panic!("{}: served request failed: {e}", benchmark.id()));
            assert_eq!(
                &report.outputs,
                expected,
                "{}: served outputs diverged",
                benchmark.id()
            );
        }
        engine.shutdown();
        serving_walls.push(started.elapsed());
    }

    let setup_ms = ms(median(&mut setups));
    let request_ms = ms(median(&mut request_times));
    let rebuild_wall_ms = ms(median(&mut rebuild_walls));
    let serving_wall_ms = ms(median(&mut serving_walls));
    ServingMeasurement {
        benchmark: benchmark.id(),
        compiler: compiler.label().to_string(),
        requests,
        setup_ms,
        request_ms,
        rebuild_wall_ms,
        serving_wall_ms,
        rebuild_per_request_ms: rebuild_wall_ms / requests as f64,
        serving_per_request_ms: serving_wall_ms / requests as f64,
        wall_amortized_speedup: rebuild_wall_ms / serving_wall_ms.max(1e-9),
        amortized_speedup: (setup_ms + request_ms)
            / (setup_ms / requests as f64 + request_ms).max(1e-9),
    }
}

/// Writes serving measurements as JSON into `path` (same artifact family as
/// [`write_parallel_json`]) and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_serving_json(
    path: impl AsRef<std::path::Path>,
    requests: usize,
    measurements: &[ServingMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("compiler".into(), Value::Str(m.compiler.clone())),
                ("requests".into(), Value::Int(m.requests as i64)),
                ("setup_ms".into(), Value::Float(m.setup_ms)),
                ("request_ms".into(), Value::Float(m.request_ms)),
                ("rebuild_wall_ms".into(), Value::Float(m.rebuild_wall_ms)),
                ("serving_wall_ms".into(), Value::Float(m.serving_wall_ms)),
                (
                    "rebuild_per_request_ms".into(),
                    Value::Float(m.rebuild_per_request_ms),
                ),
                (
                    "serving_per_request_ms".into(),
                    Value::Float(m.serving_per_request_ms),
                ),
                (
                    "wall_amortized_speedup".into(),
                    Value::Float(m.wall_amortized_speedup),
                ),
                (
                    "amortized_speedup".into(),
                    Value::Float(m.amortized_speedup),
                ),
            ])
        })
        .collect();
    let wall: Vec<f64> = measurements
        .iter()
        .map(|m| m.wall_amortized_speedup)
        .collect();
    let amortized: Vec<f64> = measurements.iter().map(|m| m.amortized_speedup).collect();
    let ones = vec![1.0; measurements.len()];
    let reuse_wins = measurements
        .iter()
        .filter(|m| m.wall_amortized_speedup > 1.0)
        .count();
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("serving".into())),
        ("requests".into(), Value::Int(requests as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "speedup_semantics".into(),
            Value::Str(
                "wall_amortized_speedup = rebuild_wall_ms / serving_wall_ms: measured total wall \
                 time of serving `requests` requests with a throwaway session per call (the \
                 historical execute shim) over one persistent FheSession + ServingEngine; \
                 reuse_wins counts kernels where this measured ratio exceeds 1.0. \
                 amortized_speedup = (setup + request) / (setup/requests + request) from median \
                 measured component times quantifies the magnitude of the saving (it exceeds 1.0 \
                 by construction whenever setup takes nonzero time, so it carries no win/loss \
                 information)"
                    .into(),
            ),
        ),
        ("kernel_count".into(), Value::Int(measurements.len() as i64)),
        ("reuse_wins".into(), Value::Int(reuse_wins as i64)),
        (
            "geomean_amortized_speedup".into(),
            Value::Float(geometric_mean_ratio(&amortized, &ones)),
        ),
        (
            "geomean_wall_amortized_speedup".into(),
            Value::Float(geometric_mean_ratio(&wall, &ones)),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// Resilience figures of one kernel: a clean serving pass versus the same
/// request stream under a seeded fault storm (planned worker panics, latency
/// spikes, forced queue-full rejections, one explicit cancellation).
#[derive(Debug, Clone)]
pub struct ChaosMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Compiler label.
    pub compiler: String,
    /// Requests per pass.
    pub requests: usize,
    /// p95 request wall latency of the fault-free pass, ms.
    pub clean_p95_ms: f64,
    /// p95 request wall latency under the fault storm, ms.
    pub chaos_p95_ms: f64,
    /// Storm requests that completed with a report.
    pub ok: usize,
    /// Storm requests that failed with an isolated worker panic.
    pub panicked: usize,
    /// Storm requests resolved as cancelled (one is cancelled on purpose).
    pub cancelled: usize,
    /// Worker panics recorded by the storm session's resilience counters.
    pub worker_panics: u64,
    /// Whether every non-faulted storm request's outputs were bit-identical
    /// to a clean solo run of the same inputs.
    pub non_faulted_exact: bool,
}

impl ChaosMeasurement {
    /// Every storm request resolved — the zero-hang criterion (a hang would
    /// strand the harness on `wait` instead of producing a measurement).
    pub fn completed_all(&self) -> bool {
        self.ok + self.panicked + self.cancelled == self.requests
    }
}

/// Serves one kernel's request stream twice — once clean, once under a
/// seeded [`FaultPlan`] storm plus two forced queue-full rejections and one
/// explicit mid-flight cancellation — and reports error counts, resilience
/// counters and the p95 latency of both passes. The same `seed` always
/// yields the same fault points.
pub fn measure_chaos(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    requests: usize,
    seed: u64,
) -> ChaosMeasurement {
    let compiled = compiler.compile(benchmark);
    let requests = requests.max(2);
    let input_sets: Vec<HashMap<String, i64>> = (0..requests)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();
    let serve_options = ExecOptions::new().with_request_threads(2);

    // Clean pass: the expected outputs and the fault-free latency profile.
    let session = Arc::new(
        compiled
            .session(params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id())),
    );
    let expected: Vec<Vec<u64>> = input_sets
        .iter()
        .map(|inputs| {
            session
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: clean run failed: {e}", benchmark.id()))
                .outputs
        })
        .collect();
    let engine = session.serve(&serve_options);
    let handles: Vec<_> = input_sets
        .iter()
        .map(|inputs| {
            engine
                .submit(inputs.clone())
                .expect("engine accepts while live")
        })
        .collect();
    for handle in handles {
        handle
            .wait()
            .unwrap_or_else(|e| panic!("{}: clean served request failed: {e}", benchmark.id()));
    }
    let clean = engine.shutdown();

    // Storm pass on a fresh session so the resilience counters start at
    // zero. Fault points are derived from `seed` over the stream's total
    // dispatch range; submission retries ride out the forced rejections.
    let session = Arc::new(
        compiled
            .session(params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id())),
    );
    let span = (session.schedule().instrs().len() * requests) as u64;
    let plan = FaultPlan::storm(seed, span.max(1), 2);
    plan.force_queue_full(2);
    let hooks = ExecHooks {
        faults: Some(plan),
        ..ExecHooks::default()
    };
    let engine = session.serve_with(&serve_options, &hooks).into_engine();
    let handles: Vec<_> = input_sets
        .iter()
        .map(|inputs| {
            engine
                .submit_with_retry(inputs.clone(), 8, Duration::from_millis(1))
                .expect("retries outlast the forced queue-full budget")
        })
        .collect();
    if let Some(victim) = handles.last() {
        victim.cancel();
    }
    let (mut ok, mut panicked, mut cancelled) = (0usize, 0usize, 0usize);
    let mut non_faulted_exact = true;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(report) => {
                ok += 1;
                non_faulted_exact &= report.outputs == expected[i];
            }
            Err(FheError::WorkerPanic { .. }) => panicked += 1,
            Err(FheError::Cancelled) => cancelled += 1,
            Err(e) => panic!("{}: unexpected storm error: {e}", benchmark.id()),
        }
    }
    let chaos = engine.shutdown();
    let p95 =
        |stats: &chehab_runtime::ServingStats| stats.latency.request_wall.p95().map_or(0.0, ms);
    ChaosMeasurement {
        benchmark: benchmark.id(),
        compiler: compiler.label().to_string(),
        requests,
        clean_p95_ms: p95(&clean),
        chaos_p95_ms: p95(&chaos),
        ok,
        panicked,
        cancelled,
        worker_panics: chaos.resilience.worker_panics,
        non_faulted_exact,
    }
}

/// Writes chaos measurements as JSON into `path` (same artifact family as
/// [`write_serving_json`]) and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chaos_json(
    path: impl AsRef<std::path::Path>,
    requests: usize,
    seed: u64,
    measurements: &[ChaosMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("requests".into(), Value::Int(m.requests as i64)),
                ("clean_p95_ms".into(), Value::Float(m.clean_p95_ms)),
                ("chaos_p95_ms".into(), Value::Float(m.chaos_p95_ms)),
                ("ok".into(), Value::Int(m.ok as i64)),
                ("panicked".into(), Value::Int(m.panicked as i64)),
                ("cancelled".into(), Value::Int(m.cancelled as i64)),
                ("worker_panics".into(), Value::Int(m.worker_panics as i64)),
                ("non_faulted_exact".into(), Value::Bool(m.non_faulted_exact)),
                ("completed_all".into(), Value::Bool(m.completed_all())),
            ])
        })
        .collect();
    let total = |f: fn(&ChaosMeasurement) -> usize| -> i64 {
        measurements.iter().map(f).sum::<usize>() as i64
    };
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("chaos".into())),
        ("requests".into(), Value::Int(requests as i64)),
        ("seed".into(), Value::UInt(seed)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "semantics".into(),
            Value::Str(
                "Each kernel's request stream is served twice: clean, then under a seeded \
                 FaultPlan storm (2 planned worker panics, latency spikes, 2 forced queue-full \
                 rejections ridden out by submission retries, 1 explicit cancellation). \
                 completed_all = every storm request resolved (zero hangs); non_faulted_exact = \
                 every storm request that completed produced outputs bit-identical to a clean \
                 solo run; panicked is bounded by the planned panic points"
                    .into(),
            ),
        ),
        ("kernel_count".into(), Value::Int(measurements.len() as i64)),
        ("total_ok".into(), Value::Int(total(|m| m.ok))),
        ("total_panicked".into(), Value::Int(total(|m| m.panicked))),
        ("total_cancelled".into(), Value::Int(total(|m| m.cancelled))),
        (
            "all_exact".into(),
            Value::Bool(measurements.iter().all(|m| m.non_faulted_exact)),
        ),
        (
            "zero_hangs".into(),
            Value::Bool(measurements.iter().all(ChaosMeasurement::completed_all)),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// One hot-path re-measurement of a kernel's per-request serving latency,
/// compared against the request latency recorded in a previous
/// `BENCH_serving.json` (the pre-optimization baseline).
#[derive(Debug, Clone)]
pub struct HotpathMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Median per-request wall time under session reuse now, ms.
    pub request_ms: f64,
    /// The same quantity from the baseline artifact, if the kernel appears
    /// there.
    pub baseline_request_ms: Option<f64>,
    /// `baseline_request_ms / request_ms` (above 1.0 = the hot path got
    /// faster).
    pub improvement: Option<f64>,
    /// Whether every request's decrypted outputs matched the plaintext
    /// reference (the same bit-exactness bar the seed executor met).
    pub correct: bool,
}

/// Re-measures one kernel's per-request latency the way `measure_serving`
/// does (one warm session, `requests` requests per pass, medians over
/// `runs` passes), checking every output against the plaintext reference.
pub fn measure_hotpath(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    requests: usize,
    baseline_request_ms: Option<f64>,
) -> HotpathMeasurement {
    let compiled = compiler.compile(benchmark);
    let requests = requests.max(1);
    let input_sets: Vec<HashMap<String, i64>> = (0..requests)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<u64>> = input_sets
        .iter()
        .map(|inputs| {
            let mut env = chehab_ir::Env::new();
            for (k, v) in inputs {
                env.bind(k.clone(), *v);
            }
            chehab_ir::evaluate(benchmark.program(), &env)
                .map(|v| {
                    v.slots()
                        .into_iter()
                        .take(benchmark.output_slots())
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();

    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let mut request_times = Vec::with_capacity(runs.max(1) * requests);
    let mut correct = true;
    for _ in 0..runs.max(1) {
        for (inputs, expected) in input_sets.iter().zip(&expected) {
            let started = Instant::now();
            let report = session
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: session run failed: {e}", benchmark.id()));
            request_times.push(started.elapsed());
            let got: Vec<u64> = report
                .outputs
                .iter()
                .copied()
                .take(expected.len())
                .collect();
            correct &= report.decryption_ok && &got == expected;
        }
    }
    request_times.sort_unstable();
    let request_ms = ms(request_times[request_times.len() / 2]);
    HotpathMeasurement {
        benchmark: benchmark.id(),
        request_ms,
        baseline_request_ms,
        improvement: baseline_request_ms.map(|b| b / request_ms.max(1e-9)),
        correct,
    }
}

/// One dataflow-vs-leveled scheduling comparison of a kernel, against the
/// sequential per-request latency recorded in `BENCH_hotpath.json` (the
/// leveled-engine baseline).
#[derive(Debug, Clone)]
pub struct DataflowMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Workers of the dataflow/leveled projections and the threaded runs.
    pub threads: usize,
    /// Median sequential (1-worker, leveled) per-request wall now, ms —
    /// the same quantity `BENCH_hotpath.json` records.
    pub sequential_request_ms: f64,
    /// Median sequential server-side (scheduled-execution) time, ms.
    pub sequential_server_ms: f64,
    /// Median measured per-request wall of the dataflow executor at
    /// `threads` workers *on this host* — bounded by the host's core count,
    /// so on a 1-CPU builder it shows scheduling overhead, not speedup.
    pub dataflow_wall_ms: f64,
    /// Leveled (barrier-synchronized) makespan projection at `threads`
    /// workers from the measured per-instruction latencies, ms.
    pub leveled_projected_ms: f64,
    /// Barrier-free dataflow makespan projection at `threads` workers from
    /// the same measured latencies, ms.
    pub dataflow_projected_ms: f64,
    /// The true critical-path (infinite-worker) makespan, ms — the floor no
    /// scheduler can beat.
    pub critical_path_ms: f64,
    /// Barrier slack the dataflow scheduler reclaims versus the leveled one:
    /// `leveled_projected_ms - dataflow_projected_ms`.
    pub reclaimed_slack_ms: f64,
    /// Projected per-request wall at `threads` workers: the sequential
    /// request wall with its server portion replaced by the dataflow
    /// makespan projection (client-side binding and decryption are
    /// per-request costs parallelism does not touch).
    pub projected_request_ms: f64,
    /// The baseline per-request wall from `BENCH_hotpath.json`, if present.
    pub baseline_request_ms: Option<f64>,
    /// `baseline_request_ms / projected_request_ms` (above 1.0 = the
    /// dataflow engine serves a request faster than the leveled baseline).
    pub improvement: Option<f64>,
    /// Ready instructions stolen between workers, median per threaded run.
    pub steals: u64,
    /// Median per-instruction queue wait of the threaded runs, microseconds.
    pub queue_wait_p50_us: f64,
    /// Whether every output (sequential, threaded dataflow) matched the
    /// plaintext reference bit-exactly.
    pub correct: bool,
}

/// Measures one kernel under the dataflow scheduler: sequential and
/// `threads`-worker runs through one warm session (medians over `runs`
/// passes of `requests` requests), makespan projections from the measured
/// per-instruction latencies, and bit-exactness against the plaintext
/// reference and the sequential outputs.
pub fn measure_dataflow(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    requests: usize,
    threads: usize,
    baseline_request_ms: Option<f64>,
) -> DataflowMeasurement {
    let compiled = compiler.compile(benchmark);
    let requests = requests.max(1);
    let input_sets: Vec<HashMap<String, i64>> = (0..requests)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<u64>> = input_sets
        .iter()
        .map(|inputs| {
            let mut env = chehab_ir::Env::new();
            for (k, v) in inputs {
                env.bind(k.clone(), *v);
            }
            // A failed reference evaluation must abort the measurement, not
            // silently vacuate the bit-exactness check.
            let value = chehab_ir::evaluate(benchmark.program(), &env).unwrap_or_else(|e| {
                panic!(
                    "{}: plaintext reference evaluation failed: {e}",
                    benchmark.id()
                )
            });
            value
                .slots()
                .into_iter()
                .take(benchmark.output_slots())
                .collect()
        })
        .collect();

    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let schedule = session.schedule();
    let dataflow_options = ExecOptions::sequential().with_threads_per_request(threads);
    let median_d = |times: &mut Vec<Duration>| -> f64 {
        times.sort_unstable();
        ms(times[times.len() / 2])
    };
    let median_f = |values: &mut Vec<f64>| -> f64 {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };

    let mut seq_requests = Vec::new();
    let mut seq_servers = Vec::new();
    let mut df_walls = Vec::new();
    let mut leveled_proj = Vec::new();
    let mut dataflow_proj = Vec::new();
    let mut critical = Vec::new();
    let mut steals = Vec::new();
    let mut waits = Vec::new();
    let mut correct = true;
    for _ in 0..runs.max(1) {
        for (inputs, expected) in input_sets.iter().zip(&expected) {
            let started = Instant::now();
            let seq = session
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: sequential run failed: {e}", benchmark.id()));
            seq_requests.push(started.elapsed());
            seq_servers.push(seq.server_time);

            let started = Instant::now();
            let par = session
                .run_parallel(inputs, &dataflow_options)
                .unwrap_or_else(|e| panic!("{}: dataflow run failed: {e}", benchmark.id()));
            df_walls.push(started.elapsed());

            let got: Vec<u64> = seq.outputs.iter().copied().take(expected.len()).collect();
            correct &= seq.decryption_ok && &got == expected;
            correct &= par.outputs == seq.outputs && par.decryption_ok == seq.decryption_ok;

            // Projections from the *sequential* run's measured latencies
            // (clean per-op times, no worker interference).
            leveled_proj.push(ms(schedule.makespan(&seq.timing.instr_times, threads)));
            dataflow_proj.push(ms(
                schedule.dataflow_makespan(&seq.timing.instr_times, threads)
            ));
            critical.push(ms(schedule.critical_path_makespan(&seq.timing.instr_times)));
            steals.push(par.timing.steals);
            if let Some(p50) = par.timing.queue_wait_percentile(0.5) {
                waits.push(p50.as_secs_f64() * 1e6);
            }
        }
    }

    let sequential_request_ms = median_d(&mut seq_requests);
    let sequential_server_ms = median_d(&mut seq_servers);
    let dataflow_wall_ms = median_d(&mut df_walls);
    let leveled_projected_ms = median_f(&mut leveled_proj);
    let dataflow_projected_ms = median_f(&mut dataflow_proj);
    let critical_path_ms = median_f(&mut critical);
    steals.sort_unstable();
    let projected_request_ms =
        (sequential_request_ms - sequential_server_ms).max(0.0) + dataflow_projected_ms;
    DataflowMeasurement {
        benchmark: benchmark.id(),
        threads,
        sequential_request_ms,
        sequential_server_ms,
        dataflow_wall_ms,
        leveled_projected_ms,
        dataflow_projected_ms,
        critical_path_ms,
        reclaimed_slack_ms: (leveled_projected_ms - dataflow_projected_ms).max(0.0),
        projected_request_ms,
        baseline_request_ms,
        improvement: baseline_request_ms.map(|b| b / projected_request_ms.max(1e-9)),
        steals: steals[steals.len() / 2],
        queue_wait_p50_us: if waits.is_empty() {
            0.0
        } else {
            median_f(&mut waits)
        },
        correct,
    }
}

/// Writes dataflow measurements as JSON into `path` and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_dataflow_json(
    path: impl AsRef<std::path::Path>,
    requests: usize,
    threads: usize,
    measurements: &[DataflowMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("threads".into(), Value::Int(m.threads as i64)),
                (
                    "sequential_request_ms".into(),
                    Value::Float(m.sequential_request_ms),
                ),
                (
                    "sequential_server_ms".into(),
                    Value::Float(m.sequential_server_ms),
                ),
                ("dataflow_wall_ms".into(), Value::Float(m.dataflow_wall_ms)),
                (
                    "leveled_projected_ms".into(),
                    Value::Float(m.leveled_projected_ms),
                ),
                (
                    "dataflow_projected_ms".into(),
                    Value::Float(m.dataflow_projected_ms),
                ),
                ("critical_path_ms".into(), Value::Float(m.critical_path_ms)),
                (
                    "reclaimed_slack_ms".into(),
                    Value::Float(m.reclaimed_slack_ms),
                ),
                (
                    "projected_request_ms".into(),
                    Value::Float(m.projected_request_ms),
                ),
                (
                    "baseline_request_ms".into(),
                    m.baseline_request_ms.map_or(Value::Null, Value::Float),
                ),
                (
                    "improvement".into(),
                    m.improvement.map_or(Value::Null, Value::Float),
                ),
                ("steals".into(), Value::Int(m.steals as i64)),
                (
                    "queue_wait_p50_us".into(),
                    Value::Float(m.queue_wait_p50_us),
                ),
                ("correct".into(), Value::Bool(m.correct)),
            ])
        })
        .collect();
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let reclaimed: Vec<f64> = measurements.iter().map(|m| m.reclaimed_slack_ms).collect();
    let ones = vec![1.0; improvements.len()];
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("dataflow".into())),
        ("requests".into(), Value::Int(requests as i64)),
        ("threads".into(), Value::Int(threads as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "speedup_semantics".into(),
            Value::Str(
                "improvement = baseline request_ms (from BENCH_hotpath.json, the leveled \
                 sequential engine) / projected_request_ms, where projected_request_ms replaces \
                 the measured sequential server span with the barrier-free dataflow makespan at \
                 `threads` workers projected from measured per-instruction latencies \
                 (Schedule::dataflow_makespan, same timer-augmented convention as \
                 BENCH_parallel_exec.json; wall speedups are unattainable on this host — see \
                 host_cpus — so dataflow_wall_ms records the raw measured wall for honesty). \
                 reclaimed_slack_ms = leveled_projected_ms - dataflow_projected_ms is the \
                 barrier slack the dataflow scheduler reclaims at the same worker count; \
                 critical_path_ms is the dependency-limited floor. correct asserts sequential \
                 and dataflow outputs are bit-identical and match the plaintext reference"
                    .into(),
            ),
        ),
        (
            "kernels_measured".into(),
            Value::Int(measurements.len() as i64),
        ),
        (
            "kernels_with_baseline".into(),
            Value::Int(improvements.len() as i64),
        ),
        (
            "geomean_improvement".into(),
            Value::Float(geometric_mean_ratio(&improvements, &ones)),
        ),
        (
            "total_reclaimed_slack_ms".into(),
            Value::Float(reclaimed.iter().sum()),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// Loads `benchmark -> request_ms` from a previous `BENCH_serving.json`
/// artifact, or `None` if the file is missing or unparseable.
pub fn load_serving_request_baseline(
    path: impl AsRef<std::path::Path>,
) -> Option<HashMap<String, f64>> {
    load_kernel_field_baseline(path, "request_ms")
}

/// Loads `benchmark -> <field>` from any of the `BENCH_*.json` artifacts
/// (every artifact stores a `kernels` array of per-benchmark objects), or
/// `None` if the file is missing or unparseable. Kernels without the field
/// are skipped.
pub fn load_kernel_field_baseline(
    path: impl AsRef<std::path::Path>,
    field: &str,
) -> Option<HashMap<String, f64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let value: serde::Value = serde_json::from_str(&text).ok()?;
    let kernels = value.field("kernels").ok()?.as_array("kernels").ok()?;
    let mut baseline = HashMap::new();
    for kernel in kernels {
        let name = match kernel.field("benchmark") {
            Ok(serde::Value::Str(s)) => s.clone(),
            _ => continue,
        };
        let entry = match kernel.field(field) {
            Ok(serde::Value::Float(f)) => *f,
            Ok(serde::Value::Int(i)) => *i as f64,
            _ => continue,
        };
        baseline.insert(name, entry);
    }
    Some(baseline)
}

/// One memory-layout measurement of a kernel: warm per-request latency of
/// the striped/arena-backed engine against the `BENCH_dataflow.json`
/// sequential baseline, plus the allocation counters that prove the
/// zero-allocation steady state.
#[derive(Debug, Clone)]
pub struct MemlayoutMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Workers of the threaded bit-equivalence check.
    pub threads: usize,
    /// Median warm per-request wall under session reuse (sequential), ms.
    pub request_ms: f64,
    /// The same quantity recorded by the pre-stripe engine in
    /// `BENCH_dataflow.json` (`sequential_request_ms`), if present.
    pub baseline_request_ms: Option<f64>,
    /// `baseline_request_ms / request_ms` (above 1.0 = the memory engine
    /// made requests faster).
    pub improvement: Option<f64>,
    /// Fresh buffer allocations of the *first* (cold) request — the price
    /// every request paid before the arena existed.
    pub cold_allocs: u64,
    /// Fresh buffer allocations per warm request (steady state; the
    /// acceptance bar is ~0).
    pub warm_allocs_per_request: f64,
    /// Arena buffer reuses per warm request (how many allocations the pool
    /// absorbs each request).
    pub warm_reuses_per_request: f64,
    /// Whether every output matched the plaintext reference, and the
    /// threaded dataflow run matched the sequential run bit for bit.
    pub correct: bool,
}

/// Measures one kernel under the zero-allocation memory engine: cold vs
/// warm arena-miss counts (deltas of the session pool's own counters), warm
/// sequential per-request latency (medians over
/// `runs` passes of `requests` requests), and bit-equivalence of a
/// `threads`-worker dataflow pass against the sequential outputs and the
/// plaintext reference.
pub fn measure_memlayout(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    requests: usize,
    threads: usize,
    baseline_request_ms: Option<f64>,
) -> MemlayoutMeasurement {
    let compiled = compiler.compile(benchmark);
    let requests = requests.max(1);
    let input_sets: Vec<HashMap<String, i64>> = (0..requests)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<u64>> = input_sets
        .iter()
        .map(|inputs| {
            let mut env = chehab_ir::Env::new();
            for (k, v) in inputs {
                env.bind(k.clone(), *v);
            }
            let value = chehab_ir::evaluate(benchmark.program(), &env).unwrap_or_else(|e| {
                panic!(
                    "{}: plaintext reference evaluation failed: {e}",
                    benchmark.id()
                )
            });
            value
                .slots()
                .into_iter()
                .take(benchmark.output_slots())
                .collect()
        })
        .collect();

    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let mut correct = true;
    // The session pool's (misses, hits) so far.
    let arena_counters = || {
        let registry = session.metrics();
        (
            registry
                .counter("chehab_arena_fresh_allocations_total", "")
                .get(),
            registry.counter("chehab_arena_reuses_total", "").get(),
        )
    };

    // Cold request: every buffer is a pool miss — the allocation bill every
    // request footed before the arena existed.
    let (fresh_at_start, _) = arena_counters();
    let cold = session
        .run(&input_sets[0])
        .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", benchmark.id()));
    let cold_allocs = arena_counters().0 - fresh_at_start;
    correct &= cold.decryption_ok
        && cold
            .outputs
            .iter()
            .take(expected[0].len())
            .eq(expected[0].iter());

    // Warm the pool across the whole request stream once.
    for inputs in &input_sets {
        let _ = session.run(inputs).unwrap();
    }

    // Measured warm passes: latency medians plus the steady-state counters.
    let (fresh_when_warm, reuses_when_warm) = arena_counters();
    let mut request_times = Vec::with_capacity(runs.max(1) * requests);
    for _ in 0..runs.max(1) {
        for (inputs, expected) in input_sets.iter().zip(&expected) {
            let started = Instant::now();
            let report = session
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", benchmark.id()));
            request_times.push(started.elapsed());
            let got: Vec<u64> = report
                .outputs
                .iter()
                .copied()
                .take(expected.len())
                .collect();
            correct &= report.decryption_ok && &got == expected;
        }
    }
    let measured_requests = request_times.len() as f64;
    let (fresh, reuses) = arena_counters();
    let warm_allocs_per_request = (fresh - fresh_when_warm) as f64 / measured_requests;
    let warm_reuses_per_request = (reuses - reuses_when_warm) as f64 / measured_requests;
    request_times.sort_unstable();
    let request_ms = ms(request_times[request_times.len() / 2]);

    // Threaded bit-equivalence: the recycling register file must not change
    // a single output bit under concurrent execution.
    let dataflow_options = ExecOptions::sequential().with_threads_per_request(threads);
    for (inputs, expected) in input_sets.iter().zip(&expected) {
        let seq = session.run(inputs).unwrap();
        let par = session
            .run_parallel(inputs, &dataflow_options)
            .unwrap_or_else(|e| panic!("{}: threaded run failed: {e}", benchmark.id()));
        correct &= par.outputs == seq.outputs && par.decryption_ok == seq.decryption_ok;
        let got: Vec<u64> = seq.outputs.iter().copied().take(expected.len()).collect();
        correct &= &got == expected;
    }

    MemlayoutMeasurement {
        benchmark: benchmark.id(),
        threads,
        request_ms,
        baseline_request_ms,
        improvement: baseline_request_ms.map(|b| b / request_ms.max(1e-9)),
        cold_allocs,
        warm_allocs_per_request,
        warm_reuses_per_request,
        correct,
    }
}

/// Writes memory-layout measurements as JSON into `path` and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_memlayout_json(
    path: impl AsRef<std::path::Path>,
    requests: usize,
    threads: usize,
    measurements: &[MemlayoutMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("threads".into(), Value::Int(m.threads as i64)),
                ("request_ms".into(), Value::Float(m.request_ms)),
                (
                    "baseline_request_ms".into(),
                    m.baseline_request_ms.map_or(Value::Null, Value::Float),
                ),
                (
                    "improvement".into(),
                    m.improvement.map_or(Value::Null, Value::Float),
                ),
                ("cold_allocs".into(), Value::Int(m.cold_allocs as i64)),
                (
                    "warm_allocs_per_request".into(),
                    Value::Float(m.warm_allocs_per_request),
                ),
                (
                    "warm_reuses_per_request".into(),
                    Value::Float(m.warm_reuses_per_request),
                ),
                ("correct".into(), Value::Bool(m.correct)),
            ])
        })
        .collect();
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let ones = vec![1.0; improvements.len()];
    let zero_alloc_kernels = measurements
        .iter()
        .filter(|m| m.warm_allocs_per_request == 0.0)
        .count();
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("memlayout".into())),
        ("requests".into(), Value::Int(requests as i64)),
        ("threads".into(), Value::Int(threads as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "speedup_semantics".into(),
            Value::Str(
                "improvement = baseline sequential_request_ms (from BENCH_dataflow.json, the \
                 split-layout engine with per-op heap allocation) / request_ms re-measured under \
                 the striped zero-allocation engine, per kernel on measured warm wall time. \
                 cold_allocs counts fresh buffer allocations (slot vectors + payload stripes) of \
                 the first request against an empty arena — the per-request allocation bill of \
                 the old engine; warm_allocs_per_request is the same counter in steady state and \
                 the acceptance bar is ~0 (warm_reuses_per_request shows how many allocations \
                 the arena absorbs instead). Arc control blocks, per-request bookkeeping vectors \
                 and plaintext encodes are not pooled and not counted. correct asserts plaintext \
                 reference equality and sequential == threaded dataflow outputs bit for bit"
                    .into(),
            ),
        ),
        (
            "kernels_measured".into(),
            Value::Int(measurements.len() as i64),
        ),
        (
            "kernels_with_baseline".into(),
            Value::Int(improvements.len() as i64),
        ),
        (
            "zero_alloc_kernels".into(),
            Value::Int(zero_alloc_kernels as i64),
        ),
        (
            "geomean_improvement".into(),
            Value::Float(geometric_mean_ratio(&improvements, &ones)),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// One traced request of a kernel: summary figures of a full structured
/// span capture (session phases + per-worker instruction spans) exported as
/// Chrome-trace JSON, with bit-identity asserted against an untraced run.
#[derive(Debug, Clone)]
pub struct TraceMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Workers of the traced dataflow run.
    pub threads: usize,
    /// Wall time of the traced request, ms.
    pub request_ms: f64,
    /// Recorded spans (session phases + instructions).
    pub span_count: usize,
    /// Trace tracks (one session track + one per executor worker).
    pub track_count: usize,
    /// Instruction spans recorded with steal provenance.
    pub stolen_spans: usize,
    /// Whether the traced outputs matched both the untraced run (bit for
    /// bit) and the plaintext reference.
    pub correct: bool,
    /// The Chrome/Perfetto `traceEvents` JSON of the capture.
    pub chrome_json: String,
}

/// Serves one request of a kernel with tracing on (dataflow scheduler,
/// `threads` workers) and one with tracing off, asserts the outputs are
/// bit-identical and match the plaintext reference, and exports the capture
/// as Chrome-trace JSON.
pub fn measure_trace(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    threads: usize,
) -> TraceMeasurement {
    let compiled = compiler.compile(benchmark);
    let inputs: HashMap<String, i64> = benchmark
        .program()
        .variables()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v.to_string(), (i as i64 % 7) + 1))
        .collect();
    let expected = {
        let mut env = chehab_ir::Env::new();
        for (k, v) in &inputs {
            env.bind(k.clone(), *v);
        }
        chehab_ir::evaluate(benchmark.program(), &env)
            .map(|v| {
                v.slots()
                    .into_iter()
                    .take(benchmark.output_slots())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    };

    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let options = ExecOptions::sequential().with_threads_per_request(threads);
    let untraced = session
        .run_parallel(&inputs, &options)
        .unwrap_or_else(|e| panic!("{}: untraced run failed: {e}", benchmark.id()));
    let sink = Arc::new(TraceSink::new());
    let hooks = ExecHooks {
        trace: Some(Arc::clone(&sink)),
        ..ExecHooks::default()
    };
    let started = Instant::now();
    let traced = session
        .run_batched(std::slice::from_ref(&inputs), &options, &hooks)
        .unwrap_or_else(|e| panic!("{}: traced run failed: {e}", benchmark.id()))
        .remove(0);
    let request_ms = ms(started.elapsed());
    drop(hooks);
    let trace = Arc::try_unwrap(sink)
        .expect("the hooks held the only other sink clone")
        .into_trace();

    let got: Vec<u64> = traced
        .outputs
        .iter()
        .copied()
        .take(expected.len())
        .collect();
    let correct = traced.outputs == untraced.outputs
        && traced.decryption_ok == untraced.decryption_ok
        && traced.decryption_ok
        && got == expected;

    TraceMeasurement {
        benchmark: benchmark.id(),
        threads,
        request_ms,
        span_count: trace.events().len(),
        track_count: trace.track_labels().len(),
        stolen_spans: trace
            .events()
            .iter()
            .filter(|e| e.stolen_from.is_some())
            .count(),
        correct,
        chrome_json: trace.to_chrome_json(),
    }
}

/// Writes trace-capture summaries as JSON into `path` and returns it. The
/// full Chrome-trace JSON of each capture is *not* embedded — callers write
/// the sample capture they want to keep as its own artifact (loadable
/// directly in `chrome://tracing`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_trace_json(
    path: impl AsRef<std::path::Path>,
    threads: usize,
    measurements: &[TraceMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("threads".into(), Value::Int(m.threads as i64)),
                ("request_ms".into(), Value::Float(m.request_ms)),
                ("span_count".into(), Value::Int(m.span_count as i64)),
                ("track_count".into(), Value::Int(m.track_count as i64)),
                ("stolen_spans".into(), Value::Int(m.stolen_spans as i64)),
                ("correct".into(), Value::Bool(m.correct)),
            ])
        })
        .collect();
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("trace".into())),
        ("threads".into(), Value::Int(threads as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "semantics".into(),
            Value::Str(
                "One traced request per kernel under the dataflow scheduler at `threads` \
                 workers: span_count counts recorded spans (session bind/execute/decrypt \
                 phases plus one span per executed instruction), track_count the trace tracks \
                 (one session track + one per executor worker), stolen_spans the instruction \
                 spans carrying steal provenance. correct asserts the traced outputs are \
                 bit-identical to an untraced run and match the plaintext reference — tracing \
                 observes, never perturbs"
                    .into(),
            ),
        ),
        (
            "kernels_measured".into(),
            Value::Int(measurements.len() as i64),
        ),
        (
            "all_correct".into(),
            Value::Bool(measurements.iter().all(|m| m.correct)),
        ),
        (
            "total_spans".into(),
            Value::Int(measurements.iter().map(|m| m.span_count as i64).sum()),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// Writes hot-path measurements as JSON into `path` and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_hotpath_json(
    path: impl AsRef<std::path::Path>,
    requests: usize,
    measurements: &[HotpathMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("request_ms".into(), Value::Float(m.request_ms)),
                (
                    "baseline_request_ms".into(),
                    m.baseline_request_ms.map_or(Value::Null, Value::Float),
                ),
                (
                    "improvement".into(),
                    m.improvement.map_or(Value::Null, Value::Float),
                ),
                ("correct".into(), Value::Bool(m.correct)),
            ])
        })
        .collect();
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let ones = vec![1.0; improvements.len()];
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("hotpath".into())),
        ("requests".into(), Value::Int(requests as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "speedup_semantics".into(),
            Value::Str(
                "improvement = baseline request_ms (from BENCH_serving.json, the pre-hot-path \
                 engine) / request_ms re-measured under the current engine, per kernel on \
                 measured wall time; geomean_improvement aggregates kernels present in the \
                 baseline. correct asserts every request's outputs matched the plaintext \
                 reference"
                    .into(),
            ),
        ),
        (
            "kernels_measured".into(),
            Value::Int(measurements.len() as i64),
        ),
        (
            "kernels_with_baseline".into(),
            Value::Int(improvements.len() as i64),
        ),
        (
            "geomean_improvement".into(),
            Value::Float(geometric_mean_ratio(&improvements, &ones)),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// One per-limb-count timing point of the RNS modulus-chain sweep.
#[derive(Debug, Clone)]
pub struct RnsPoint {
    /// RNS limbs carried by every ciphertext payload at this point.
    pub limbs: usize,
    /// Median per-request wall time at this limb count, ms.
    pub request_ms: f64,
    /// `request_ms / request_ms(k = 1)`: the measured per-limb cost scaling
    /// (the arithmetic grows linearly in `k`; everything per-request that is
    /// not payload arithmetic does not).
    pub scaling_vs_k1: f64,
}

/// One kernel measured end to end across RNS limb counts: the decrypted
/// outputs must be identical at every `k` (the slot pipeline is exact and
/// limb count only widens the cost-model payload), so the sweep is both a
/// correctness check and a per-limb scaling record.
#[derive(Debug, Clone)]
pub struct RnsMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// One timing point per requested limb count, in the order given.
    pub points: Vec<RnsPoint>,
    /// Whether the decrypted outputs were bit-identical across every limb
    /// count.
    pub identical_across_limbs: bool,
    /// Whether every run decrypted correctly against the plaintext
    /// reference.
    pub correct: bool,
}

/// Measures one kernel's warm per-request latency at each limb count in
/// `limb_counts` (one warm-up pass, then `runs` timed requests per count,
/// median reported), asserting outputs against the plaintext reference and
/// against each other across limb counts.
pub fn measure_rns(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    limb_counts: &[usize],
) -> RnsMeasurement {
    let compiled = compiler.compile(benchmark);
    let inputs: HashMap<String, i64> = benchmark
        .program()
        .variables()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v.to_string(), (i as i64 % 11) + 1))
        .collect();
    let expected: Vec<u64> = {
        let mut env = chehab_ir::Env::new();
        for (k, v) in &inputs {
            env.bind(k.clone(), *v);
        }
        chehab_ir::evaluate(benchmark.program(), &env)
            .map(|v| {
                v.slots()
                    .into_iter()
                    .take(benchmark.output_slots())
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut points = Vec::with_capacity(limb_counts.len());
    let mut correct = true;
    let mut identical = true;
    let mut reference: Option<Vec<u64>> = None;
    let mut base_ms: Option<f64> = None;
    for &k in limb_counts {
        let session = compiled
            .session(&params.clone().with_limb_count(k))
            .unwrap_or_else(|e| {
                panic!(
                    "{}: session construction failed at k={k}: {e}",
                    benchmark.id()
                )
            });
        let warm = session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: warm-up run failed at k={k}: {e}", benchmark.id()));
        match &reference {
            None => reference = Some(warm.outputs.clone()),
            Some(r) => identical &= &warm.outputs == r,
        }
        let mut times = Vec::with_capacity(runs.max(1));
        for _ in 0..runs.max(1) {
            let started = Instant::now();
            let report = session
                .run(&inputs)
                .unwrap_or_else(|e| panic!("{}: run failed at k={k}: {e}", benchmark.id()));
            times.push(started.elapsed());
            let got: Vec<u64> = report
                .outputs
                .iter()
                .copied()
                .take(expected.len())
                .collect();
            correct &= report.decryption_ok && got == expected;
        }
        times.sort_unstable();
        let request_ms = ms(times[times.len() / 2]);
        let base = *base_ms.get_or_insert(request_ms);
        points.push(RnsPoint {
            limbs: k,
            request_ms,
            scaling_vs_k1: request_ms / base.max(1e-9),
        });
    }
    RnsMeasurement {
        benchmark: benchmark.id(),
        points,
        identical_across_limbs: identical,
        correct,
    }
}

/// Re-snapshots the timer-augmented per-op cost model
/// ([`chehab_runtime::CalibratedCostModel`]) with every ciphertext carrying
/// `limbs` RNS stripes, projecting the measured per-limb op latencies into
/// an [`chehab_ir::OpCosts`] table (vec_add = 1.0 convention) for the
/// dataflow scheduler's critical-path priorities.
pub fn calibrate_rns_costs(
    params: &BfvParameters,
    limbs: usize,
    iters: usize,
) -> chehab_ir::OpCosts {
    use chehab_fhe::{Encryptor, Evaluator, FheContext, KeyGenerator};
    use chehab_runtime::{CalibratedCostModel, OpKind};
    let ctx = FheContext::new(params.clone().with_limb_count(limbs)).expect("valid parameters");
    let mut keygen = KeyGenerator::new(ctx.params(), 0xCA11B);
    let mut encryptor = Encryptor::new(&ctx, &keygen.public_key());
    let relin = keygen.relin_keys();
    let galois = keygen.galois_keys(&[1]);
    let mut evaluator = Evaluator::new(&ctx);
    let ct_a = encryptor.encrypt_values(&[1, 2, 3]).expect("encrypt");
    let ct_b = encryptor.encrypt_values(&[4, 5, 6]).expect("encrypt");
    let pt = ctx.encode(&[7, 8, 9]).expect("encode");
    let mut model = CalibratedCostModel::new();
    // One untimed warm-up of each op primes twiddle tables and the arena.
    std::hint::black_box(evaluator.add(&ct_a, &ct_b));
    std::hint::black_box(evaluator.multiply(&ct_a, &ct_b, &relin));
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        std::hint::black_box(evaluator.add(&ct_a, &ct_b));
        model.record(OpKind::Addition, t.elapsed());

        let t = Instant::now();
        std::hint::black_box(evaluator.negate(&ct_a));
        model.record(OpKind::Negation, t.elapsed());

        let t = Instant::now();
        std::hint::black_box(evaluator.multiply(&ct_a, &ct_b, &relin));
        model.record(OpKind::MulCtCt, t.elapsed());

        let t = Instant::now();
        std::hint::black_box(evaluator.multiply_plain(&ct_a, &pt));
        model.record(OpKind::MulCtPt, t.elapsed());

        let t = Instant::now();
        let rotated = evaluator.rotate(&ct_a, 1, &galois).expect("keyed step");
        model.record(OpKind::Rotation, t.elapsed());

        let t = Instant::now();
        let mut acc = evaluator.rotate(&ct_b, 1, &galois).expect("keyed step");
        evaluator.add_assign(&mut acc, &rotated);
        model.record(OpKind::Pack, t.elapsed());
        std::hint::black_box(&acc);
    }
    model.to_op_costs(&chehab_ir::OpCosts::default())
}

/// Writes the RNS limb-count sweep (`measure_rns` rows plus the per-`k`
/// calibrated [`chehab_ir::OpCosts`] tables) as `BENCH_rns.json`.
pub fn write_rns_json(
    path: impl AsRef<std::path::Path>,
    runs: usize,
    measurements: &[RnsMeasurement],
    calibrations: &[(usize, chehab_ir::OpCosts)],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let op_costs_json = |c: &chehab_ir::OpCosts| {
        Value::Object(vec![
            ("vec_add".into(), Value::Float(c.vec_add)),
            ("vec_mul_ct_ct".into(), Value::Float(c.vec_mul_ct_ct)),
            ("vec_mul_ct_pt".into(), Value::Float(c.vec_mul_ct_pt)),
            ("rotation".into(), Value::Float(c.rotation)),
            ("scalar_op".into(), Value::Float(c.scalar_op)),
            ("plaintext_op".into(), Value::Float(c.plaintext_op)),
        ])
    };
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            let points: Vec<Value> = m
                .points
                .iter()
                .map(|p| {
                    Value::Object(vec![
                        ("limbs".into(), Value::Int(p.limbs as i64)),
                        ("request_ms".into(), Value::Float(p.request_ms)),
                        ("scaling_vs_k1".into(), Value::Float(p.scaling_vs_k1)),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("points".into(), Value::Array(points)),
                (
                    "identical_across_limbs".into(),
                    Value::Bool(m.identical_across_limbs),
                ),
                ("correct".into(), Value::Bool(m.correct)),
            ])
        })
        .collect();
    // Geomean scaling per limb count beyond the first, across kernels.
    let limb_counts: Vec<usize> = measurements
        .first()
        .map(|m| m.points.iter().map(|p| p.limbs).collect())
        .unwrap_or_default();
    let scaling_summary: Vec<Value> = limb_counts
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &k)| {
            let scalings: Vec<f64> = measurements
                .iter()
                .filter_map(|m| m.points.get(i).map(|p| p.scaling_vs_k1))
                .collect();
            let ones = vec![1.0; scalings.len()];
            Value::Object(vec![
                ("limbs".into(), Value::Int(k as i64)),
                (
                    "geomean_scaling_vs_k1".into(),
                    Value::Float(geometric_mean_ratio(&scalings, &ones)),
                ),
            ])
        })
        .collect();
    let calibration_rows: Vec<Value> = calibrations
        .iter()
        .map(|(k, costs)| {
            Value::Object(vec![
                ("limbs".into(), Value::Int(*k as i64)),
                ("op_costs".into(), op_costs_json(costs)),
            ])
        })
        .collect();
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("rns".into())),
        ("runs".into(), Value::Int(runs as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "semantics".into(),
            Value::Str(
                "Each kernel runs end to end at every limb count with a ModulusChain of \
                 NTT-friendly primes (limb 0 = Goldilocks, generic limbs Barrett-reduced); \
                 request_ms is the median warm per-request wall time, scaling_vs_k1 divides it \
                 by the k=1 figure of the same kernel (payload arithmetic grows linearly in k; \
                 slots, scheduling and noise accounting do not). identical_across_limbs asserts \
                 the decrypted outputs are bit-identical at every k; correct asserts them \
                 against the plaintext reference. calibration re-snapshots the per-op cost \
                 model with k-limb ciphertexts and projects the measured latencies into \
                 OpCosts tables (vec_add = 1.0 convention)"
                    .into(),
            ),
        ),
        (
            "kernels_measured".into(),
            Value::Int(measurements.len() as i64),
        ),
        ("scaling_summary".into(), Value::Array(scaling_summary)),
        ("kernels".into(), Value::Array(rows)),
        ("calibration".into(), Value::Array(calibration_rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// One (batch size, latency) point of a cross-request batching sweep.
#[derive(Debug, Clone)]
pub struct BatchingPoint {
    /// Users packed into the shared ciphertexts of one execution.
    pub batch: usize,
    /// Median wall time of serving the whole batch through
    /// [`chehab_core::FheSession::run_batched`], ms.
    pub wall_ms: f64,
    /// `wall_ms / batch`: amortized per-request latency at this batch size.
    pub amortized_ms: f64,
}

/// One cross-request SIMD batching sweep of a kernel: amortized per-request
/// latency at batch sizes 1, 2, 4, ... up to the program's lane capacity,
/// against the unbatched serving latency recorded in `BENCH_serving.json`.
#[derive(Debug, Clone)]
pub struct BatchingMeasurement {
    /// Benchmark identifier.
    pub benchmark: String,
    /// Slot distance between consecutive users' lane windows (the
    /// rotation-envelope span of one user's data).
    pub lane_stride: usize,
    /// Users one ciphertext can carry under that stride.
    pub batch_capacity: usize,
    /// The sweep, ascending in batch size (first point is always batch 1).
    pub points: Vec<BatchingPoint>,
    /// Unbatched per-request latency from `BENCH_serving.json`, if present.
    pub baseline_request_ms: Option<f64>,
    /// Smallest amortized per-request latency across the sweep, ms.
    pub best_amortized_ms: f64,
    /// `points[0].amortized_ms / best_amortized_ms`: how much batching
    /// shrinks the per-request latency versus running the same engine at
    /// batch 1 (above 1.0 = batching pays for itself).
    pub batching_speedup: f64,
    /// `baseline_request_ms / best_amortized_ms`, if a baseline exists.
    pub improvement: Option<f64>,
    /// Whether batch 1 was bit-identical to the unbatched session path and
    /// every verified user of the largest batch read exactly its own solo
    /// outputs.
    pub correct: bool,
}

/// Batch sizes a sweep visits, capped at the kernel's effective capacity.
const BATCH_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Sweeps one kernel's amortized per-request latency across batch sizes
/// (medians over `runs` passes per size), verifying per-user bit-exactness:
/// batch 1 against the unbatched path, and the first users of the largest
/// batch (up to 8, to bound verification cost) against their solo runs.
pub fn measure_batching(
    benchmark: &Benchmark,
    compiler: &CompilerUnderTest,
    params: &BfvParameters,
    runs: usize,
    baseline_request_ms: Option<f64>,
) -> BatchingMeasurement {
    let compiled = compiler.compile(benchmark);
    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let capacity = session.batch_capacity().min(*BATCH_SWEEP.last().unwrap());
    let sizes: Vec<usize> = BATCH_SWEEP
        .iter()
        .copied()
        .filter(|&b| b <= capacity)
        .collect();
    let largest = *sizes.last().unwrap();

    let input_sets: Vec<HashMap<String, i64>> = (0..largest)
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();

    // Solo references for the verified prefix (the batch must scatter these
    // exact outputs back to their lanes).
    let verified = largest.min(8);
    let solo: Vec<ExecutionReport> = input_sets[..verified]
        .iter()
        .map(|inputs| {
            session
                .run(inputs)
                .unwrap_or_else(|e| panic!("{}: solo run failed: {e}", benchmark.id()))
        })
        .collect();

    let mut correct = true;
    let mut points = Vec::with_capacity(sizes.len());
    for &batch in &sizes {
        let options =
            ExecOptions::sequential().with_batching(BatchPolicy::default().with_max_batch(batch));
        let mut walls = Vec::with_capacity(runs.max(1));
        for run in 0..runs.max(1) {
            let started = Instant::now();
            let reports = session
                .run_batched(&input_sets[..batch], &options, &ExecHooks::default())
                .unwrap_or_else(|e| panic!("{}: batched run failed: {e}", benchmark.id()));
            walls.push(started.elapsed());
            if run == 0 {
                for (lane, report) in reports.iter().take(verified).enumerate() {
                    correct &= report.outputs == solo[lane].outputs;
                }
                if batch == 1 {
                    // Batch 1 must be *bit-identical*, not merely correct.
                    correct &= reports[0].operation_stats == solo[0].operation_stats
                        && reports[0].noise_budget_consumed == solo[0].noise_budget_consumed;
                }
            }
        }
        walls.sort_unstable();
        let wall_ms = ms(walls[walls.len() / 2]);
        points.push(BatchingPoint {
            batch,
            wall_ms,
            amortized_ms: wall_ms / batch as f64,
        });
    }

    let best_amortized_ms = points
        .iter()
        .map(|p| p.amortized_ms)
        .fold(f64::INFINITY, f64::min);
    BatchingMeasurement {
        benchmark: benchmark.id(),
        lane_stride: session.lane_stride(),
        batch_capacity: session.batch_capacity(),
        baseline_request_ms,
        batching_speedup: points[0].amortized_ms / best_amortized_ms.max(1e-9),
        improvement: baseline_request_ms.map(|b| b / best_amortized_ms.max(1e-9)),
        best_amortized_ms,
        points,
        correct,
    }
}

/// Writes batching sweeps as JSON into `path` (same artifact family as
/// [`write_serving_json`]) and returns it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_batching_json(
    path: impl AsRef<std::path::Path>,
    runs: usize,
    measurements: &[BatchingMeasurement],
) -> std::io::Result<std::path::PathBuf> {
    use serde::Value;
    let rows: Vec<Value> = measurements
        .iter()
        .map(|m| {
            let sweep: Vec<Value> = m
                .points
                .iter()
                .map(|p| {
                    Value::Object(vec![
                        ("batch".into(), Value::Int(p.batch as i64)),
                        ("wall_ms".into(), Value::Float(p.wall_ms)),
                        ("amortized_ms".into(), Value::Float(p.amortized_ms)),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("benchmark".into(), Value::Str(m.benchmark.clone())),
                ("lane_stride".into(), Value::Int(m.lane_stride as i64)),
                ("batch_capacity".into(), Value::Int(m.batch_capacity as i64)),
                ("points".into(), Value::Array(sweep)),
                (
                    "baseline_request_ms".into(),
                    m.baseline_request_ms.map_or(Value::Null, Value::Float),
                ),
                (
                    "best_amortized_ms".into(),
                    Value::Float(m.best_amortized_ms),
                ),
                ("batching_speedup".into(), Value::Float(m.batching_speedup)),
                (
                    "improvement".into(),
                    m.improvement.map_or(Value::Null, Value::Float),
                ),
                ("correct".into(), Value::Bool(m.correct)),
            ])
        })
        .collect();
    let speedups: Vec<f64> = measurements.iter().map(|m| m.batching_speedup).collect();
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let batching_wins = measurements
        .iter()
        .filter(|m| m.batching_speedup > 1.0)
        .count();
    let document = Value::Object(vec![
        ("experiment".into(), Value::Str("batching".into())),
        ("runs".into(), Value::Int(runs as i64)),
        ("host_cpus".into(), Value::Int(available_cpus() as i64)),
        (
            "simd_policy".into(),
            Value::Str(SimdPolicy::global().name().into()),
        ),
        (
            "speedup_semantics".into(),
            Value::Str(
                "each kernel sweeps batch sizes 1,2,4,... up to its lane capacity through \
                 FheSession::run_batched (many users packed into the slot lanes of shared \
                 ciphertexts, one homomorphic execution per batch); amortized_ms = median batch \
                 wall / batch. batching_speedup = amortized_ms at batch 1 / best amortized_ms \
                 across the sweep (above 1.0 = batching shrank per-request latency); \
                 improvement = the unbatched request_ms from BENCH_serving.json / best \
                 amortized_ms. correct asserts batch 1 is bit-identical to the unbatched path \
                 and verified users of the largest batch read exactly their solo outputs"
                    .into(),
            ),
        ),
        (
            "kernels_measured".into(),
            Value::Int(measurements.len() as i64),
        ),
        ("batching_wins".into(), Value::Int(batching_wins as i64)),
        (
            "geomean_batching_speedup".into(),
            Value::Float(geometric_mean_ratio(&speedups, &vec![1.0; speedups.len()])),
        ),
        (
            "geomean_improvement".into(),
            Value::Float(geometric_mean_ratio(
                &improvements,
                &vec![1.0; improvements.len()],
            )),
        ),
        ("kernels".into(), Value::Array(rows)),
    ]);
    let path = path.as_ref().to_path_buf();
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&document).expect("stub serializer is infallible"),
    )?;
    Ok(path)
}

/// Number of CPUs available to this process.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Geometric mean of the ratios `numerator[i] / denominator[i]`.
pub fn geometric_mean_ratio(numerators: &[f64], denominators: &[f64]) -> f64 {
    let ratios: Vec<f64> = numerators
        .iter()
        .zip(denominators)
        .filter(|(n, d)| **n > 0.0 && **d > 0.0)
        .map(|(n, d)| n / d)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Writes `rows` under `header` into `results/<name>.csv` (creating the
/// directory if needed) and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    Ok(path)
}

/// Formats a duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The CSV header matching [`print_measurements`] rows.
pub const MEASUREMENT_CSV_HEADER: &str = "benchmark,compiler,compile_ms,exec_ms,noise_bits,depth,mult_depth,ct_ct_muls,ct_pt_muls,rotations,additions,correct";

/// Prints a standard measurement table and returns the rows as CSV strings.
pub fn print_measurements(measurements: &[Measurement]) -> Vec<String> {
    println!(
        "{:<22} {:<30} {:>12} {:>12} {:>10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "benchmark",
        "compiler",
        "compile(ms)",
        "exec(ms)",
        "noise(b)",
        "depth",
        "mdep",
        "ct-ct",
        "ct-pt",
        "rot",
        "correct"
    );
    let mut rows = Vec::new();
    for m in measurements {
        println!(
            "{:<22} {:<30} {:>12.2} {:>12.3} {:>10.1} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
            m.benchmark,
            m.compiler,
            ms(m.compile_time),
            ms(m.exec_time),
            m.noise_consumed,
            m.depth,
            m.mult_depth,
            m.ct_ct_muls,
            m.ct_pt_muls,
            m.rotations,
            if m.decryption_ok {
                if m.correct {
                    "yes"
                } else {
                    "NO"
                }
            } else {
                "budget!"
            }
        );
        rows.push(format!(
            "{},{},{:.3},{:.3},{:.1},{},{},{},{},{},{},{}",
            m.benchmark,
            m.compiler,
            ms(m.compile_time),
            ms(m.exec_time),
            m.noise_consumed,
            m.depth,
            m.mult_depth,
            m.ct_ct_muls,
            m.ct_pt_muls,
            m.rotations,
            m.additions,
            m.correct
        ));
    }
    rows
}

/// Prints the geometric-mean comparison line used by Figures 5–7 and writes
/// nothing; returns (exec ratio, compile ratio, noise ratio) of
/// `baseline / subject` so values above 1 mean the subject wins.
pub fn summarize_vs_baseline(
    measurements: &[Measurement],
    subject: &str,
    baseline: &str,
) -> (f64, f64, f64) {
    let mut subject_exec = Vec::new();
    let mut baseline_exec = Vec::new();
    let mut subject_compile = Vec::new();
    let mut baseline_compile = Vec::new();
    let mut subject_noise = Vec::new();
    let mut baseline_noise = Vec::new();
    let by_benchmark: HashMap<&str, Vec<&Measurement>> =
        measurements.iter().fold(HashMap::new(), |mut acc, m| {
            acc.entry(m.benchmark.as_str()).or_default().push(m);
            acc
        });
    for group in by_benchmark.values() {
        let find = |label: &str| group.iter().find(|m| m.compiler == label);
        if let (Some(s), Some(b)) = (find(subject), find(baseline)) {
            subject_exec.push(s.exec_time.as_secs_f64());
            baseline_exec.push(b.exec_time.as_secs_f64());
            subject_compile.push(s.compile_time.as_secs_f64());
            baseline_compile.push(b.compile_time.as_secs_f64());
            subject_noise.push(s.noise_consumed);
            baseline_noise.push(b.noise_consumed);
        }
    }
    let exec = geometric_mean_ratio(&baseline_exec, &subject_exec);
    let compile = geometric_mean_ratio(&baseline_compile, &subject_compile);
    let noise = geometric_mean_ratio(&baseline_noise, &subject_noise);
    println!(
        "\ngeometric means ({baseline} / {subject}): execution {exec:.2}x, compilation {compile:.2}x, consumed noise {noise:.2}x"
    );
    (exec, compile, noise)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_equal_series_is_one() {
        let a = [1.0, 2.0, 4.0];
        assert!((geometric_mean_ratio(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let num = [2.0, 8.0];
        let den = [1.0, 2.0];
        assert!((geometric_mean_ratio(&num, &den) - 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn quick_subset_is_a_subset_of_the_full_suite() {
        let quick = HarnessConfig::default().benchmarks();
        let full = HarnessConfig {
            quick: false,
            ..HarnessConfig::default()
        }
        .benchmarks();
        assert!(quick.len() < full.len());
        assert_eq!(full.len(), 46);
        for b in &quick {
            assert!(full.iter().any(|f| f.id() == b.id()));
        }
    }

    #[test]
    fn measuring_a_small_benchmark_works_end_to_end() {
        let benchmark = chehab_benchsuite::by_id("Dot Product 4").unwrap();
        let params = BfvParameters::insecure_test();
        let m = measure(&benchmark, &CompilerUnderTest::ChehabGreedy, &params, 1);
        assert!(m.correct, "greedy-compiled dot product must be correct");
        assert!(m.exec_time > Duration::from_nanos(0));
        let naive = measure(&benchmark, &CompilerUnderTest::Initial, &params, 1);
        assert!(naive.correct);
        assert!(m.ct_ct_muls <= naive.ct_ct_muls);
    }

    #[test]
    fn coyote_measurements_work_end_to_end() {
        let benchmark = chehab_benchsuite::by_id("Linear Reg. 4").unwrap();
        let params = BfvParameters::insecure_test();
        let config = coyote_baseline::CoyoteConfig::fast();
        let m = measure(&benchmark, &CompilerUnderTest::Coyote(config), &params, 1);
        assert!(m.correct);
        assert!(m.rotations > 0 || m.ct_pt_muls > 0);
    }
}
