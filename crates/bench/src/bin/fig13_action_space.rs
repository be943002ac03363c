//! Figure 13: learning curves (mean episode reward over timesteps) of the
//! hierarchical rule/location policy versus the flat rule×location policy.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig13_action_space -- [--timesteps N]`

use chehab_bench::{write_csv, HarnessConfig};
use chehab_core::training::{train_agent, AgentTrainingOptions};

fn main() {
    let config = HarnessConfig::from_args();
    println!("== Figure 13: hierarchical vs flat action space (learning curves)");
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for (label, flat) in [("hierarchical", false), ("flat", true)] {
        let trained = train_agent(&AgentTrainingOptions {
            flat_action_space: flat,
            ..config.training()
        });
        println!(
            "\n{label}: final mean reward {:.3} over {} episodes",
            trained.report.final_mean_reward(),
            trained.report.episodes
        );
        println!("  {:>10} {:>14}", "timestep", "mean reward");
        for point in &trained.report.curve {
            println!(
                "  {:>10} {:>14.3}",
                point.timestep, point.mean_episode_reward
            );
            rows.push(format!(
                "{label},{},{:.4}",
                point.timestep, point.mean_episode_reward
            ));
        }
        finals.push((label, trained.report.final_mean_reward()));
    }
    if let [(_, hier), (_, flat)] = finals[..] {
        println!(
            "\nfinal mean reward: hierarchical {hier:.3} vs flat {flat:.3}{}",
            if hier >= flat {
                "  (hierarchical learns better, as in the paper)"
            } else {
                ""
            }
        );
    }
    let _ = write_csv("fig13_action_space", "policy,timestep,mean_reward", &rows);
}
