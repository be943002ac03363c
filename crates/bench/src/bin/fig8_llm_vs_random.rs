//! Figure 8: execution time of circuits produced by an agent trained on
//! LLM-style structured data versus the same agent trained on uniformly
//! random data.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig8_llm_vs_random -- [--timesteps N]`

use chehab_bench::CompilerUnderTest::ChehabRl;
use chehab_bench::{exit_if_incorrect, Figure, HarnessConfig, Metric, Side};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use chehab_datagen::DataSource;

fn main() {
    let config = HarnessConfig::from_args();
    let [llm, random] = [DataSource::LlmLike, DataSource::Random].map(|data_source| {
        train_agent(&AgentTrainingOptions {
            data_source,
            ..config.training()
        })
    });
    println!(
        "final mean episode reward: LLM-style {:.2}, random {:.2}",
        llm.report.final_mean_reward(),
        random.report.final_mean_reward()
    );
    let pairs = Figure {
        title: "Figure 8: LLM-style vs random training data".into(),
        csv: "fig8_llm_vs_random",
        subject: Side(ChehabRl(llm.agent), "LLM data", "llm"),
        baseline: Side(ChehabRl(random.agent), "random", "random"),
        metric: Metric::Execution,
        ratio: "speedup",
    }
    .run(&config);
    exit_if_incorrect(pairs.iter().flatten());
}
