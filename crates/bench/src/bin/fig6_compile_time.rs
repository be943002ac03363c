//! Figure 6: compilation time of CHEHAB RL and the Coyote baseline across
//! the benchmark suite.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig6_compile_time -- [--full]`

use chehab_bench::{measure, ms, write_csv, CompilerUnderTest, HarnessConfig};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use std::sync::Arc;

fn main() {
    let config = HarnessConfig::from_args();
    let params = config.params();
    println!("== Figure 6: compilation time, CHEHAB RL vs Coyote");
    let trained = train_agent(&AgentTrainingOptions {
        timesteps: config.timesteps,
        ..AgentTrainingOptions::default()
    });
    let rl = CompilerUnderTest::ChehabRl(Arc::clone(&trained.agent));
    let coyote = CompilerUnderTest::Coyote(config.coyote_config());

    println!(
        "{:<22} {:>18} {:>16} {:>10}",
        "benchmark", "CHEHAB RL (ms)", "Coyote (ms)", "ratio"
    );
    let mut measurements = Vec::new();
    let mut rows = Vec::new();
    for benchmark in config.benchmarks() {
        let m_rl = measure(&benchmark, &rl, &params, 1);
        let m_coyote = measure(&benchmark, &coyote, &params, 1);
        let ratio = ms(m_coyote.compile_time) / ms(m_rl.compile_time).max(1e-9);
        println!(
            "{:<22} {:>18.2} {:>16.2} {:>9.2}x",
            benchmark.id(),
            ms(m_rl.compile_time),
            ms(m_coyote.compile_time),
            ratio
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.3}",
            benchmark.id(),
            ms(m_rl.compile_time),
            ms(m_coyote.compile_time),
            ratio
        ));
        measurements.push(m_rl);
        measurements.push(m_coyote);
    }
    let _ = write_csv(
        "fig6_compile_time",
        "benchmark,chehab_rl_ms,coyote_ms,ratio",
        &rows,
    );
    chehab_bench::summarize_vs_baseline(&measurements, "CHEHAB RL", "Coyote");
    if let Some(m) = measurements.iter().find(|m| !m.correct) {
        eprintln!(
            "error: {} compiled by {} did not decrypt to the reference outputs",
            m.benchmark, m.compiler
        );
        std::process::exit(1);
    }
}
