//! Figure 7: consumed invariant-noise budget of the circuits generated by
//! CHEHAB RL and by the Coyote baseline.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig7_noise -- [--full]`

use chehab_bench::{measure, write_csv, CompilerUnderTest, HarnessConfig};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use std::sync::Arc;

fn main() {
    let config = HarnessConfig::from_args();
    let params = config.params();
    println!(
        "== Figure 7: consumed noise budget (of {:.0} bits), CHEHAB RL vs Coyote",
        params.fresh_noise_budget_bits()
    );
    let trained = train_agent(&AgentTrainingOptions {
        timesteps: config.timesteps,
        ..AgentTrainingOptions::default()
    });
    let rl = CompilerUnderTest::ChehabRl(Arc::clone(&trained.agent));
    let coyote = CompilerUnderTest::Coyote(config.coyote_config());

    println!(
        "{:<22} {:>16} {:>14} {:>10}",
        "benchmark", "CHEHAB RL (b)", "Coyote (b)", "ratio"
    );
    let mut measurements = Vec::new();
    let mut rows = Vec::new();
    for benchmark in config.benchmarks() {
        let m_rl = measure(&benchmark, &rl, &params, 1);
        let m_coyote = measure(&benchmark, &coyote, &params, 1);
        let ratio = m_coyote.noise_consumed / m_rl.noise_consumed.max(1e-9);
        let exhausted = if m_coyote.decryption_ok {
            ""
        } else {
            "  (Coyote exhausted the budget)"
        };
        println!(
            "{:<22} {:>16.1} {:>14.1} {:>9.2}x{exhausted}",
            benchmark.id(),
            m_rl.noise_consumed,
            m_coyote.noise_consumed,
            ratio
        );
        rows.push(format!(
            "{},{:.1},{:.1},{:.3},{},{}",
            benchmark.id(),
            m_rl.noise_consumed,
            m_coyote.noise_consumed,
            ratio,
            m_rl.decryption_ok,
            m_coyote.decryption_ok
        ));
        measurements.push(m_rl);
        measurements.push(m_coyote);
    }
    let _ = write_csv(
        "fig7_noise",
        "benchmark,chehab_rl_bits,coyote_bits,ratio,chehab_rl_ok,coyote_ok",
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
