//! Figure 5: execution time of the benchmark circuits generated by
//! CHEHAB RL and by the Coyote baseline (semi-log series in the paper).
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig5_exec_time -- [--full] [--runs N] [--timesteps N]`

use chehab_bench::{measure, ms, write_csv, CompilerUnderTest, HarnessConfig};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use std::sync::Arc;

fn main() {
    let config = HarnessConfig::from_args();
    let params = config.params();
    println!("== Figure 5: execution time, CHEHAB RL vs Coyote");
    let trained = train_agent(&AgentTrainingOptions {
        timesteps: config.timesteps,
        ..AgentTrainingOptions::default()
    });
    let rl = CompilerUnderTest::ChehabRl(Arc::clone(&trained.agent));
    let coyote = CompilerUnderTest::Coyote(config.coyote_config());

    println!(
        "{:<22} {:>16} {:>16} {:>10}",
        "benchmark", "CHEHAB RL (ms)", "Coyote (ms)", "speedup"
    );
    let mut measurements = Vec::new();
    let mut rows = Vec::new();
    for benchmark in config.benchmarks() {
        let m_rl = measure(&benchmark, &rl, &params, config.runs);
        let m_coyote = measure(&benchmark, &coyote, &params, config.runs);
        let speedup = ms(m_coyote.exec_time) / ms(m_rl.exec_time).max(1e-9);
        println!(
            "{:<22} {:>16.3} {:>16.3} {:>9.2}x",
            benchmark.id(),
            ms(m_rl.exec_time),
            ms(m_coyote.exec_time),
            speedup
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.3}",
            benchmark.id(),
            ms(m_rl.exec_time),
            ms(m_coyote.exec_time),
            speedup
        ));
        measurements.push(m_rl);
        measurements.push(m_coyote);
    }
    let _ = write_csv(
        "fig5_exec_time",
        "benchmark,chehab_rl_ms,coyote_ms,speedup",
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
