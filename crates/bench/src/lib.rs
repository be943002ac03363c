//! # chehab-bench
//!
//! The paper's evaluation: shared measurement code used by one experiment
//! binary per figure/table (Figures 5–13, Tables 1 and 6). Performance of
//! the serving stack itself is measured elsewhere, by `benchmark/` +
//! `BENCHMARK.json`.
//!
//! Every binary accepts a few command-line flags (see [`HarnessConfig`]) to
//! scale the run between a quick smoke test and a full-suite evaluation, and
//! writes its rows as CSV into `results/`.
//!
//! A figure that compares two compilers (Figures 5–9 and 12) is data, a
//! [`Figure`], over the one comparison [`Figure::run`]. Every binary that
//! measures circuits ends in [`exit_if_incorrect`]: a ratio of two timings
//! stands only for circuits that decrypt to the interpreter's outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chehab_benchsuite::Benchmark;
use chehab_core::training::AgentTrainingOptions;
use chehab_core::{
    external_compile_stats, output_slots_of, select_rotation_keys, CompiledProgram, Compiler,
    ExecutionReport,
};
use chehab_fhe::BfvParameters;
use chehab_ir::{circuit_depth, multiplicative_depth, rotation_steps};
use chehab_rl::Agent;
use coyote_baseline::{CoyoteCompiler, CoyoteConfig};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

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
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            runs: 3,
            payload_degree: 1024,
            timesteps: 2500,
            quick: true,
            coyote_max_candidates: 48,
        }
    }
}

impl HarnessConfig {
    /// The flags [`HarnessConfig::parse`] accepts, as printed on a bad
    /// invocation.
    const USAGE: &'static str =
        "[--full] [--runs N] [--payload N] [--timesteps N] [--coyote-candidates N]";

    /// Parses `--runs N`, `--payload N`, `--timesteps N`,
    /// `--coyote-candidates N` and `--full` from `args` (the process
    /// arguments without the program name). Values are clamped to what the
    /// harness can run: `runs` and `coyote-candidates` to at least 1,
    /// `timesteps` to at least 64, `payload` to a power of two ≥ 8.
    ///
    /// # Errors
    ///
    /// An unknown argument, a flag without a value, or a value that is not
    /// a non-negative integer.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut config = HarnessConfig::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || -> Result<usize, String> {
                let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                v.parse()
                    .map_err(|_| format!("{flag}: `{v}` is not a non-negative integer"))
            };
            match flag.as_str() {
                "--full" => config.quick = false,
                "--runs" => config.runs = value()?.max(1),
                "--payload" => {
                    config.payload_degree = value()?
                        .max(8)
                        .checked_next_power_of_two()
                        .ok_or("--payload: no power of two that large")?;
                }
                "--timesteps" => config.timesteps = value()?.max(64),
                "--coyote-candidates" => config.coyote_max_candidates = value()?.max(1),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(config)
    }

    /// [`HarnessConfig::parse`] over the process arguments; on an error
    /// prints it with a one-line usage and exits with status 2.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::parse(&args.collect::<Vec<_>>()).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {program} {}", Self::USAGE);
            std::process::exit(2)
        })
    }

    /// The default agent training options at this run's `--timesteps`.
    pub fn training(&self) -> AgentTrainingOptions {
        AgentTrainingOptions {
            timesteps: self.timesteps,
            ..AgentTrainingOptions::default()
        }
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
    let mut env = chehab_ir::Env::new();
    env.bind_all(benchmark.program(), |v| inputs[v.as_str()]);
    let mut expected = chehab_ir::evaluate(benchmark.program(), &env)
        .map(|v| v.slots())
        .unwrap_or_default();
    expected.truncate(benchmark.output_slots());

    let session = compiled
        .session(params)
        .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
    let mut reports: Vec<ExecutionReport> = (0..runs.max(1))
        .map(|_| session.run(&inputs))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("{}: execution failed: {e}", benchmark.id()));
    reports.sort_by_key(|r| r.server_time);
    let median = reports[reports.len() / 2].clone();
    let correct = median.decryption_ok && median.outputs.starts_with(&expected);

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
            match (m.decryption_ok, m.correct) {
                (false, _) => "budget!",
                (true, true) => "yes",
                (true, false) => "NO",
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

/// What a [`Figure`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Median execution time over `--runs` runs, in milliseconds.
    Execution,
    /// Compilation time of one run, in milliseconds.
    Compilation,
    /// Noise budget one run consumes, in bits; the CSV adds whether each
    /// side's output decrypted.
    Noise,
}

impl Metric {
    const ALL: [Metric; 3] = [Metric::Execution, Metric::Compilation, Metric::Noise];

    fn value(self, m: &Measurement) -> f64 {
        match self {
            Metric::Execution => ms(m.exec_time),
            Metric::Compilation => ms(m.compile_time),
            Metric::Noise => m.noise_consumed,
        }
    }

    /// Its unit, and the decimals its values are written with.
    fn unit(self) -> (&'static str, usize) {
        match self {
            Metric::Noise => ("bits", 1),
            _ => ("ms", 3),
        }
    }
}

/// One side of a [`Figure`]: a compiler, its name in the table (and in its
/// [`Measurement::compiler`]) and the stem of its CSV columns (`<stem>_ms`,
/// `<stem>_bits`, `<stem>_ok`).
pub struct Side(pub CompilerUnderTest, pub &'static str, pub &'static str);

/// A figure that compares two compilers kernel by kernel on one metric
/// (Figures 5–9 and 12).
pub struct Figure {
    /// The heading printed above the table.
    pub title: String,
    /// The CSV's name under `results/`, without `.csv`.
    pub csv: &'static str,
    /// The compiler the figure is about.
    pub subject: Side,
    /// The compiler it is compared with.
    pub baseline: Side,
    /// What is compared.
    pub metric: Metric,
    /// The name of the baseline ÷ subject column.
    pub ratio: &'static str,
}

impl Figure {
    /// Measures `[subject, baseline]` on each of `benchmarks` in order and
    /// prints each pair's table row as it is measured; returns the pairs
    /// (each measurement named by its side's label) and their CSV rows.
    pub fn compare(
        &self,
        benchmarks: &[Benchmark],
        params: &BfvParameters,
        runs: usize,
    ) -> (Vec<[Measurement; 2]>, Vec<String>) {
        let (metric, sides) = (self.metric, [&self.subject, &self.baseline]);
        let (unit, p) = metric.unit();
        let [s, b] = sides.map(|Side(_, label, _)| format!("{label} ({unit})"));
        println!("\n== {}", self.title);
        println!("{:<22} {s:>20} {b:>20} {:>10}", "benchmark", self.ratio);
        benchmarks
            .iter()
            .map(|benchmark| {
                let pair = sides.map(|Side(compiler, label, _)| Measurement {
                    compiler: label.to_string(),
                    ..measure(benchmark, compiler, params, runs)
                });
                let [s, b] = pair.each_ref().map(|m| metric.value(m));
                let ratio = b / s.max(1e-9);
                let id = benchmark.id();
                println!("{id:<22} {s:>20.p$} {b:>20.p$} {ratio:>9.2}x");
                let mut row = format!("{id},{s:.p$},{b:.p$},{ratio:.3}");
                if metric == Metric::Noise {
                    row += &format!(",{},{}", pair[0].decryption_ok, pair[1].decryption_ok);
                }
                (pair, row)
            })
            .unzip()
    }

    /// Runs the figure under `config`: [`Figure::compare`] over its kernels
    /// (`config.runs` runs for [`Metric::Execution`], one otherwise), then
    /// writes `results/<csv>.csv`, prints [`summarize_pairs`] and returns
    /// the pairs.
    pub fn run(&self, config: &HarnessConfig) -> Vec<[Measurement; 2]> {
        let runs = match self.metric {
            Metric::Execution => config.runs,
            _ => 1,
        };
        let (pairs, rows) = self.compare(&config.benchmarks(), &config.params(), runs);
        let (Side(_, s, s_stem), Side(_, b, b_stem)) = (&self.subject, &self.baseline);
        let (unit, _) = self.metric.unit();
        let mut header = format!("benchmark,{s_stem}_{unit},{b_stem}_{unit},{}", self.ratio);
        if self.metric == Metric::Noise {
            header += &format!(",{s_stem}_ok,{b_stem}_ok");
        }
        match write_csv(self.csv, &header, &rows) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
        summarize_pairs(&pairs, s, b);
        pairs
    }
}

/// Prints and returns the geometric means over `pairs` (each
/// `[subject, baseline]`) of baseline ÷ subject execution time, compilation
/// time and consumed noise, in that order: above 1, the subject wins.
pub fn summarize_pairs(pairs: &[[Measurement; 2]], subject: &str, baseline: &str) -> [f64; 3] {
    let means = Metric::ALL.map(|metric| {
        let side = |i: usize| -> Vec<f64> { pairs.iter().map(|p| metric.value(&p[i])).collect() };
        geometric_mean_ratio(&side(1), &side(0))
    });
    let [exec, compile, noise] = means;
    println!(
        "\ngeometric means ({baseline} / {subject}): execution {exec:.2}x, compilation {compile:.2}x, consumed noise {noise:.2}x"
    );
    means
}

/// The first of `measurements` whose circuit did not decrypt to the
/// interpreter's outputs.
pub fn first_incorrect<'a>(
    measurements: impl IntoIterator<Item = &'a Measurement>,
) -> Option<&'a Measurement> {
    measurements.into_iter().find(|m| !m.correct)
}

/// Exits with status 1, naming it, if any of `measurements` is
/// [`first_incorrect`]: every binary that measures circuits ends here.
pub fn exit_if_incorrect<'a>(measurements: impl IntoIterator<Item = &'a Measurement>) {
    if let Some(m) = first_incorrect(measurements) {
        eprintln!(
            "error: {} compiled by {} did not decrypt to the reference outputs",
            m.benchmark, m.compiler
        );
        std::process::exit(1);
    }
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

    fn parse(command_line: &str) -> Result<HarnessConfig, String> {
        let args: Vec<String> = command_line.split_whitespace().map(String::from).collect();
        HarnessConfig::parse(&args)
    }

    /// (quick, runs, payload_degree, timesteps, coyote_max_candidates).
    fn fields(c: &HarnessConfig) -> (bool, usize, usize, usize, usize) {
        (
            c.quick,
            c.runs,
            c.payload_degree,
            c.timesteps,
            c.coyote_max_candidates,
        )
    }

    #[test]
    fn parse_accepts_every_documented_flag_and_keeps_the_clamps() {
        let c = parse("--full --runs 5 --payload 100 --timesteps 300 --coyote-candidates 7");
        assert_eq!(fields(&c.unwrap()), (false, 5, 128, 300, 7));
        let c = parse("--runs 0 --payload 0 --timesteps 1 --coyote-candidates 0");
        assert_eq!(fields(&c.unwrap()), (true, 1, 8, 64, 1));
        assert_eq!(
            fields(&parse("").unwrap()),
            fields(&HarnessConfig::default())
        );
    }

    #[test]
    fn parse_rejects_unknown_flags_and_unparsable_values() {
        for bad in [
            "--dataflow",
            "--threads 8",
            "--runs x",
            "--runs -1",
            "--runs",
            "--payload 18446744073709551615",
            "3",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(parse("--dataflow").unwrap_err().contains("--dataflow"));
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

    /// `Initial` against greedy CHEHAB on `metric`, written to no file.
    fn initial_vs_greedy(metric: Metric) -> Figure {
        Figure {
            title: "Initial vs CHEHAB".into(),
            csv: "unused",
            subject: Side(CompilerUnderTest::Initial, "Initial", "initial"),
            baseline: Side(CompilerUnderTest::ChehabGreedy, "CHEHAB", "chehab"),
            metric,
            ratio: "ratio",
        }
    }

    /// The first two kernels of the quick suite, in suite order.
    fn two_kernels() -> Vec<Benchmark> {
        HarnessConfig::default().benchmarks()[..2].to_vec()
    }

    #[test]
    fn a_comparison_pairs_each_kernel_in_suite_order_and_rows_hold_baseline_over_subject() {
        let kernels = two_kernels();
        let params = BfvParameters::insecure_test();
        for metric in Metric::ALL {
            let (pairs, rows) = initial_vs_greedy(metric).compare(&kernels, &params, 1);
            assert_eq!(pairs.len(), kernels.len());
            assert_eq!(rows.len(), kernels.len());
            for ((kernel, [s, b]), row) in kernels.iter().zip(&pairs).zip(&rows) {
                assert_eq!((&s.benchmark, &b.benchmark), (&kernel.id(), &kernel.id()));
                assert_eq!(
                    (s.compiler.as_str(), b.compiler.as_str()),
                    ("Initial", "CHEHAB")
                );
                let ratio = metric.value(b) / metric.value(s).max(1e-9);
                assert_eq!(row.split(',').nth(3), Some(format!("{ratio:.3}").as_str()));
                assert_eq!(
                    row.split(',').count(),
                    if metric == Metric::Noise { 6 } else { 4 }
                );
            }
        }
    }

    #[test]
    fn the_summary_pairs_by_position_even_under_one_label() {
        let kernels = two_kernels();
        let params = BfvParameters::insecure_test();
        let mut twins = initial_vs_greedy(Metric::Execution);
        twins.subject = Side(CompilerUnderTest::ChehabGreedy, "CHEHAB", "first");
        for figure in [initial_vs_greedy(Metric::Execution), twins] {
            let (pairs, _) = figure.compare(&kernels, &params, 1);
            let side =
                |i: usize| -> Vec<f64> { pairs.iter().map(|p| ms(p[i].exec_time)).collect() };
            let [exec, ..] = summarize_pairs(&pairs, figure.subject.1, figure.baseline.1);
            assert_eq!(exec, geometric_mean_ratio(&side(1), &side(0)));
        }
    }

    /// A measurement of `benchmark` whose correctness is `correct`.
    fn measured(benchmark: &str, correct: bool) -> Measurement {
        Measurement {
            benchmark: benchmark.into(),
            compiler: "CHEHAB RL".into(),
            compile_time: Duration::from_millis(1),
            exec_time: Duration::from_millis(1),
            noise_consumed: 10.0,
            decryption_ok: true,
            depth: 1,
            mult_depth: 0,
            ct_ct_muls: 0,
            ct_pt_muls: 0,
            rotations: 0,
            additions: 1,
            correct,
        }
    }

    #[test]
    fn the_shared_check_names_the_first_incorrect_measurement() {
        let ms = [
            measured("a", true),
            measured("b", false),
            measured("c", false),
        ];
        assert_eq!(
            first_incorrect(&ms).map(|m| m.benchmark.as_str()),
            Some("b")
        );
        assert!(first_incorrect(&ms[..1]).is_none());
        assert!(first_incorrect(&[]).is_none());
    }
}
