//! Figure 9: execution time of circuits produced by an agent trained with
//! the combined step + terminal reward versus the same agent trained with
//! the step reward only.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig9_reward_ablation -- [--timesteps N]`

use chehab_bench::CompilerUnderTest::ChehabRl;
use chehab_bench::{exit_if_incorrect, Figure, HarnessConfig, Metric, Side};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use chehab_rl::RewardConfig;

fn main() {
    let config = HarnessConfig::from_args();
    let [combined, step_only] =
        [RewardConfig::default(), RewardConfig::step_only()].map(|reward| {
            train_agent(&AgentTrainingOptions {
                reward,
                ..config.training()
            })
        });
    let pairs = Figure {
        title: "Figure 9: step+terminal vs step-only reward".into(),
        csv: "fig9_reward_ablation",
        subject: Side(ChehabRl(combined.agent), "step+terminal", "step_terminal"),
        baseline: Side(ChehabRl(step_only.agent), "step only", "step_only"),
        metric: Metric::Execution,
        ratio: "ratio",
    }
    .run(&config);
    exit_if_incorrect(pairs.iter().flatten());
}
