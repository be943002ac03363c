//! Table 6: per-benchmark circuit metrics (depth, multiplicative depth,
//! ciphertext operation counts, consumed noise, compile time) for the
//! Initial / CHEHAB RL / Coyote / CHEHAB-RL-with-post-encryption-layout
//! configurations.
//!
//! Usage: `cargo run --release -p chehab-bench --bin table6_full_metrics -- [--full] [--runs N] [--timesteps N]`

use chehab_bench::{
    exit_if_incorrect, measure, print_measurements, summarize_pairs, write_csv, CompilerUnderTest,
    HarnessConfig, Measurement, MEASUREMENT_CSV_HEADER,
};
use chehab_core::training::train_agent;
use std::sync::Arc;

fn main() {
    let config = HarnessConfig::from_args();
    let params = config.params();
    println!(
        "== Table 6: full per-benchmark metrics ({} benchmarks)",
        config.benchmarks().len()
    );
    println!(
        "training the CHEHAB RL agent ({} timesteps)...",
        config.timesteps
    );
    let trained = train_agent(&config.training());
    println!(
        "agent trained on {} synthesized programs in {:.1}s\n",
        trained.dataset_size, trained.report.wall_clock_seconds
    );

    let compilers = [
        CompilerUnderTest::Initial,
        CompilerUnderTest::ChehabRl(Arc::clone(&trained.agent)),
        CompilerUnderTest::Coyote(config.coyote_config()),
        CompilerUnderTest::ChehabRlLayoutAfter(Arc::clone(&trained.agent)),
    ];

    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        for compiler in &compilers {
            measurements.push(measure(&benchmark, compiler, &params, config.runs));
        }
    }
    let rows = print_measurements(&measurements);
    match write_csv("table6_full_metrics", MEASUREMENT_CSV_HEADER, &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    let rl_coyote: Vec<[Measurement; 2]> = measurements
        .chunks(compilers.len())
        .map(|m| [m[1].clone(), m[2].clone()])
        .collect();
    summarize_pairs(&rl_coyote, compilers[1].label(), compilers[2].label());
    exit_if_incorrect(&measurements);
}
