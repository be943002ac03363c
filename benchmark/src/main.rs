//! The repository's benchmark: one chain from DSL source to decrypted slots
//! (compile → session build → request → engine), measured from outside
//! through public calls only. See `README.md` for every metric and workload.
//!
//! ```text
//! chehab-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! chehab-benchmark --all [...]        # re-spawns itself once per workload
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`
//! — the end-to-end metrics untraced, the per-layer metrics with `--trace 1`.

mod host;
mod layers;
mod phases;
mod setup;
mod spans;
mod stats;
mod workloads;

use phases::{closed_loop, open_loop, solo_phase, EngineOutcome, SoloSample, Stop};
use setup::{check_repeatable, prepare, retime, Prepared, Row, Tally};
use spans::Tracer;
use stats::{
    geomean, mean, median, metrics_object, number, percentile, quietest, quote, ratio, Metric,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Traffic, Workload};

/// Default of `--seed` (documented in README.md; `check.sh` also runs 2).
const DEFAULT_SEED: u64 = 1;
/// Default of `--seconds`: how long a run measures, split evenly between
/// the solo phase and the engine phase (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 24.0;
/// Repetitions of the whole chain per run (see `run_end_to_end`); `setup_s`
/// is the median of their set-ups.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--all" => args.all = true,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err(format!(
            "give exactly one of --all and --workload <{}>",
            workloads::NAMES.join("|")
        ));
    }
    Ok(args)
}

/// `--all`: one process per workload (so `peak_rss_mb` and `setup_s` belong
/// to one workload), each printing its own result line.
fn run_all() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passed: Vec<String> = std::env::args().skip(1).filter(|a| a != "--all").collect();
    for name in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(&passed)
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("workload {name} exited with {status}"));
        }
    }
    Ok(())
}

/// Everything a run reports besides the contract's result line.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub rows: Vec<Row>,
    /// Free-form `"key": value` JSON members (sample counts, validity).
    pub notes: Vec<(&'static str, String)>,
}

fn engine_phase(
    workload: &Workload,
    prepared: &Prepared,
    seconds: f64,
    seed: u64,
) -> EngineOutcome {
    let budget = Duration::from_secs_f64(seconds);
    match workload.traffic {
        Traffic::Closed { clients, options } => {
            closed_loop(&prepared.units, clients, &options, Stop::After(budget))
        }
        Traffic::Open(load) => open_loop(&prepared.units, load, budget, seed),
    }
}

/// Cycles of (solo block, engine block, re-timing block) after each set-up.
const CYCLES: usize = 4;
/// How `--seconds` is split between the three kinds of block.
const SOLO_SHARE: f64 = 0.375;
const ENGINE_SHARE: f64 = 0.375;
const RETIME_SHARE: f64 = 0.25;
/// Least length of a window of the solo phase (whole rounds), seconds.
const SOLO_WINDOW: f64 = 0.1;
/// Length of a window of the engine phase, seconds: long enough to hold a
/// few rounds of the program set, so that windows compare.
const ENGINE_WINDOW: f64 = 0.25;
/// Start of every engine block left out of its windows: the engines are
/// started per block, and their first requests run cold.
const ENGINE_WARM: f64 = 0.1;
/// Share of a phase's windows its metrics are computed from. A lone request
/// needs one quiet core (or `T` for a moment); the engine phase keeps every
/// core busy and needs them all quiet at once, which is rarer, so a fifth of
/// its windows would be picked by luck more than by quiet (ten-run sets in calm
/// and busy spells of the sizing host: README.md).
const SOLO_QUIET_SHARE: f64 = 0.2;
const ENGINE_QUIET_SHARE: f64 = 0.5;
/// No block is asked to run shorter than this, seconds.
const SHORTEST_BLOCK: f64 = 0.3;

/// What is left of one kind of block's share of `--seconds`, dealt out evenly
/// over the blocks still to come, so one block that overran is made up for.
struct Budget {
    left: f64,
    blocks: usize,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget {
            left: seconds,
            blocks: SETUP_REPS * CYCLES,
        }
    }

    fn next(&mut self) -> f64 {
        let share = self.left / self.blocks.max(1) as f64;
        self.blocks = self.blocks.saturating_sub(1);
        share.max(SHORTEST_BLOCK)
    }

    fn spent(&mut self, wall: Duration) {
        self.left = (self.left - wall.as_secs_f64()).max(0.0);
    }
}

/// A window of the solo phase: whole round-robin rounds spanning at least
/// `SOLO_WINDOW`, as `(program, wall ms)`.
type SoloWindow = Vec<(usize, f64)>;

fn solo_windows(samples: &[SoloSample]) -> Vec<SoloWindow> {
    let mut windows: Vec<SoloWindow> = Vec::new();
    let mut open: SoloWindow = Vec::new();
    let mut opened = 0.0;
    for (index, sample) in samples.iter().enumerate() {
        open.push((sample.unit, sample.wall_ms));
        let round_ends = samples
            .get(index + 1)
            .is_none_or(|next| next.round != sample.round);
        if round_ends && sample.at.as_secs_f64() - opened >= SOLO_WINDOW {
            windows.push(std::mem::take(&mut open));
            opened = sample.at.as_secs_f64();
        }
    }
    // Rounds left over at the end of a block join the window before them.
    match windows.last_mut() {
        Some(last) => last.append(&mut open),
        None if !open.is_empty() => windows.push(open),
        None => {}
    }
    windows
}

/// Per program, the median wall over `windows`; 0 for a program they missed.
fn program_medians(windows: &[&SoloWindow], programs: usize) -> Vec<f64> {
    (0..programs)
        .map(|program| {
            let walls: Vec<f64> = windows
                .iter()
                .flat_map(|window| window.iter())
                .filter(|(unit, _)| *unit == program)
                .map(|(_, wall)| *wall)
                .collect();
            median(&walls)
        })
        .collect()
}

/// A window of the engine phase: its length in seconds and the latencies (ms)
/// of the requests completed in it.
struct EngineWindow {
    seconds: f64,
    latencies: Vec<f64>,
}

/// Cuts `[ENGINE_WARM, block)` of an engine block into equal windows of about
/// `ENGINE_WINDOW`; completions outside it (the cold start, stragglers after the
/// stop) are checked and counted like all others but not timed.
fn engine_windows(done: &[(Duration, f64)], block: f64) -> Vec<EngineWindow> {
    let count = (((block - ENGINE_WARM) / ENGINE_WINDOW) as usize).max(1);
    let seconds = (block - ENGINE_WARM) / count as f64;
    let mut windows: Vec<EngineWindow> = (0..count)
        .map(|_| EngineWindow {
            seconds,
            latencies: Vec::new(),
        })
        .collect();
    for (at, latency) in done {
        let at = at.as_secs_f64();
        if at >= ENGINE_WARM && at < block {
            let slot = (((at - ENGINE_WARM) / seconds) as usize).min(count - 1);
            windows[slot].latencies.push(*latency);
        }
    }
    windows.retain(|window| window.latencies.len() >= 5);
    windows
}

/// A run is `SETUP_REPS` repetitions of: set-up, then `CYCLES` cycles of a
/// solo block, an engine block and a re-timing block (compile and session
/// build again). Every step is so sampled over the whole length of the run,
/// in pieces shorter than the spells in which the host's other tenants slow
/// it, and reported from the quiet pieces (see `stats::quietest`).
fn run_end_to_end(workload: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let tracer = Tracer::new(false);
    let programs = workload.programs.len();
    let mut tally = Tally::default();
    let mut setup_walls = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut solo: Vec<SoloWindow> = Vec::new();
    let mut engine: Vec<EngineWindow> = Vec::new();
    let (mut solo_samples, mut engine_samples, mut solo_rounds) = (0, 0, 0);
    let mut generator_late_ms = Vec::new();
    let mut solo_budget = Budget::new(seconds * SOLO_SHARE);
    let mut engine_budget = Budget::new(seconds * ENGINE_SHARE);
    let mut retime_budget = Budget::new(seconds * RETIME_SHARE);
    let mut retime_cursor = 0;

    for rep in 0..SETUP_REPS {
        let mut prepared = prepare(workload, seed, &tracer, None);
        setup_walls.push(prepared.wall.as_secs_f64());
        tally.add(prepared.warmup);
        if rep == 0 {
            peak_rss_mb = host::peak_rss_mb();
        }

        for cycle in 0..CYCLES {
            let stop = Stop::After(Duration::from_secs_f64(solo_budget.next()));
            let started = Instant::now();
            let part = solo_phase(
                &prepared.units,
                workload.solo,
                stop,
                &tracer,
                0,
                solo_rounds,
            );
            solo_budget.spent(started.elapsed());
            tally.add(part.tally);
            solo_samples += part.samples.len();
            solo_rounds += part.samples.last().map_or(0, |last| last.round + 1);
            solo.extend(solo_windows(&part.samples));

            let block = engine_budget.next();
            let started = Instant::now();
            let part = engine_phase(
                workload,
                &prepared,
                block,
                seed.wrapping_add((rep * CYCLES + cycle) as u64),
            );
            engine_budget.spent(started.elapsed());
            tally.add(part.tally);
            engine_samples += part.done.len();
            generator_late_ms.extend(part.generator_late_ms.iter().copied());
            engine.extend(engine_windows(&part.done, block));

            let block = retime_budget.next();
            let started = Instant::now();
            retime(
                workload,
                &mut prepared,
                &mut retime_cursor,
                Duration::from_secs_f64(block),
            );
            retime_budget.spent(started.elapsed());
        }

        let mut again: Vec<Row> = prepared.units.iter().map(|u| u.row.clone()).collect();
        if rows.is_empty() {
            rows = again;
        } else {
            check_repeatable(&rows, &again)?;
            for (kept, row) in rows.iter_mut().zip(&mut again) {
                kept.compile_walls.append(&mut row.compile_walls);
                kept.session_walls.append(&mut row.session_walls);
            }
        }
    }

    // Solo phase: a window's score is what `request_ms_p50` would read on it.
    let solo_scores: Vec<f64> = solo
        .iter()
        .map(|window| geomean(&program_medians(&[window], programs)))
        .collect();
    let quiet_solo: Vec<&SoloWindow> = quietest(&solo_scores, SOLO_QUIET_SHARE)
        .into_iter()
        .map(|w| &solo[w])
        .collect();
    let solo_p50 = program_medians(&quiet_solo, programs);
    let solo_pool: Vec<f64> = quiet_solo
        .iter()
        .flat_map(|window| window.iter().map(|(_, wall)| *wall))
        .collect();

    // Engine phase: a window's score is its median latency.
    let engine_scores: Vec<f64> = engine.iter().map(|w| median(&w.latencies)).collect();
    let quiet_engine: Vec<&EngineWindow> = quietest(&engine_scores, ENGINE_QUIET_SHARE)
        .into_iter()
        .map(|w| &engine[w])
        .collect();
    let engine_pool: Vec<f64> = quiet_engine
        .iter()
        .flat_map(|w| w.latencies.iter().copied())
        .collect();

    // Best of every timed compile and session build of a program: like the
    // quiet windows above, interference only ever adds time.
    let least = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    for (row, p50) in rows.iter_mut().zip(&solo_p50) {
        row.compile_ms = least(&row.compile_walls);
        row.session_ms = least(&row.session_walls);
        row.request_ms_p50 = *p50;
    }
    let built: Vec<&Row> = rows
        .iter()
        .filter(|r| !r.session_walls.is_empty())
        .collect();

    let mut notes = vec![
        ("solo_samples", solo_samples.to_string()),
        ("engine_samples", engine_samples.to_string()),
        (
            "windows",
            format!(
                "{{\"solo\": {}, \"solo_quiet\": {}, \"solo_quiet_samples\": {}, \"engine\": {}, \
                 \"engine_quiet\": {}, \"engine_quiet_samples\": {}}}",
                solo.len(),
                quiet_solo.len(),
                solo_pool.len(),
                engine.len(),
                quiet_engine.len(),
                engine_pool.len()
            ),
        ),
        (
            "timings_per_program",
            format!(
                "{{\"compile\": {}, \"session\": {}}}",
                built
                    .iter()
                    .map(|r| r.compile_walls.len())
                    .min()
                    .unwrap_or(0),
                built
                    .iter()
                    .map(|r| r.session_walls.len())
                    .min()
                    .unwrap_or(0)
            ),
        ),
        ("setup_repetitions_s", format!("{setup_walls:?}")),
    ];
    if let Traffic::Open(_) = workload.traffic {
        // A generator that runs late distorts the arrival process. Latency is
        // taken from due times, so lateness is charged to the system; the
        // report says whether it stayed under a tenth of the median latency.
        let late_p99 = percentile(&generator_late_ms, 0.99);
        let valid = late_p99 < median(&engine_pool) / 10.0;
        notes.push(("generator_late_ms_p99", number(late_p99)));
        notes.push(("open_loop_valid", valid.to_string()));
        if !valid {
            eprintln!(
                "benchmark: open-loop generator ran late (p99 {late_p99:.3} ms): see README.md"
            );
        }
    }
    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        metric("setup_s", "s", median(&setup_walls)),
        metric(
            "compile_s",
            "s",
            built.iter().map(|r| r.compile_ms).sum::<f64>() / 1e3,
        ),
        metric(
            "circuit_ops",
            "ops",
            built.iter().map(|r| r.ops as f64).sum(),
        ),
        metric(
            "noise_bits",
            "bits",
            mean(&built.iter().map(|r| r.noise_bits).collect::<Vec<_>>()),
        ),
        metric(
            "session_build_ms",
            "ms",
            median(&built.iter().map(|r| r.session_ms).collect::<Vec<_>>()),
        ),
        metric("request_ms_p50", "ms", geomean(&solo_p50)),
        metric("request_ms_p95", "ms", percentile(&solo_pool, 0.95)),
        metric(
            "engine_rps",
            "req/s",
            ratio(
                engine_pool.len() as f64,
                quiet_engine.iter().map(|w| w.seconds).sum(),
            ),
        ),
        metric("engine_ms_p50", "ms", median(&engine_pool)),
        metric("engine_ms_p95", "ms", percentile(&engine_pool, 0.95)),
        metric(
            "ok_share",
            "ratio",
            ratio(
                (tally.attempted - tally.failed) as f64,
                tally.attempted as f64,
            ),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ];
    Ok(Report {
        metrics,
        tally,
        rows,
        notes,
    })
}

fn row_json(row: &Row) -> String {
    format!(
        "{{\"id\": {}, \"nodes\": {}, \"compile_ms\": {}, \"steps\": {}, \"cost_before\": {}, \
         \"cost_after\": {}, \"instrs\": {}, \"width\": {}, \"session_ms\": {}, \"keygen_ms\": {}, \
         \"galois_keys\": {}, \"request_ms_p50\": {}, \"ops\": {}, \"noise_bits\": {}}}",
        quote(&row.id),
        row.nodes,
        number(row.compile_ms),
        row.steps,
        number(row.cost_before),
        number(row.cost_after),
        row.instrs,
        row.width,
        number(row.session_ms),
        number(row.keygen_ms),
        row.galois_keys,
        number(row.request_ms_p50),
        row.ops,
        number(row.noise_bits),
    )
}

/// The full report — fingerprint, aggregates, per-program rows — beside the
/// result line, which the contract keeps to four keys.
fn write_report(path: &Path, args: &Args, workload: &Workload, report: &Report, result_line: &str) {
    let rows: Vec<String> = report.rows.iter().map(row_json).collect();
    let notes: String = report
        .notes
        .iter()
        .map(|(key, value)| format!("  {}: {value},\n", quote(key)))
        .collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"threads\": {},\n  \"host\": {},\n{notes}  \"result\": {result_line},\n  \
         \"programs\": [\n    {}\n  ]\n}}\n",
        quote(workload.name),
        args.seed,
        number(args.seconds),
        args.trace,
        workloads::threads(),
        host::fingerprint_json(),
        rows.join(",\n    "),
    );
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => eprintln!("benchmark: report written to {}", path.display()),
        Err(error) => eprintln!("benchmark: could not write {}: {error}", path.display()),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let workload = workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; one of {}",
            workloads::NAMES.join(", ")
        )
    })?;
    let report = if args.trace {
        layers::run_traced(&workload, args.seed, args.seconds, &args.out_dir)?
    } else {
        run_end_to_end(&workload, args.seed, args.seconds)?
    };
    let correct = report.tally.failed == 0 && report.tally.attempted > 0;
    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.tally.attempted,
        report.tally.failed,
        metrics_object(&report.metrics)
    );
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out_dir.join(format!("{}-{kind}.json", workload.name));
    write_report(&path, args, &workload, &report, &result_line);
    println!("{result_line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.all {
            run_all().map(|()| true)
        } else {
            run(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Outputs that differ from the oracle fail the command, after the
        // result line has said how many.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
