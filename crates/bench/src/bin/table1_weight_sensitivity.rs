//! Table 1: sensitivity of execution time and consumed noise to the cost
//! weights `(w_ops, w_depth, w_mult)`; every variant is reported relative to
//! the default `(1, 1, 1)`.
//!
//! `ops_ratio` is the clock-free column: the geometric mean, over kernels, of
//! the operations the variant's circuit executes (ciphertext multiplications,
//! rotations, additions) over the default's. Read it before `exec_ratio`: at
//! the quick settings the execution ratios read 0.81–1.30 for identical code,
//! so an `exec_ratio` inside that band says nothing on its own.
//!
//! Usage: `cargo run --release -p chehab-bench --bin table1_weight_sensitivity -- [--timesteps N]`

use chehab_bench::{
    exit_if_incorrect, geometric_mean_ratio, measure, summarize_pairs, write_csv,
    CompilerUnderTest, HarnessConfig, Measurement,
};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use chehab_ir::CostWeights;

/// The homomorphic operations a measured circuit executes.
fn executed_ops(m: &Measurement) -> f64 {
    (m.ct_ct_muls + m.ct_pt_muls + m.rotations + m.additions) as f64
}

fn main() {
    let config = HarnessConfig::from_args();
    let params = config.params();
    println!("== Table 1: reward-weight sensitivity");
    let weight_sets = [
        ("(1,1,1)", CostWeights::new(1.0, 1.0, 1.0)),
        ("(1,50,50)", CostWeights::new(1.0, 50.0, 50.0)),
        ("(1,100,100)", CostWeights::new(1.0, 100.0, 100.0)),
        ("(1,150,150)", CostWeights::new(1.0, 150.0, 150.0)),
    ];
    let measured: Vec<Vec<Measurement>> = weight_sets
        .iter()
        .map(|(label, weights)| {
            println!("training agent with weights {label}...");
            let trained = train_agent(&AgentTrainingOptions {
                cost_weights: *weights,
                ..config.training()
            });
            let compiler = CompilerUnderTest::ChehabRl(trained.agent);
            let benchmarks = config.benchmarks();
            benchmarks
                .iter()
                .map(|b| measure(b, &compiler, &params, config.runs))
                .collect()
        })
        .collect();

    // A variant against the default is each kernel's pair [default, variant]:
    // above 1, the variant is slower / noisier / executes more operations.
    let ops = |side: &[Measurement]| -> Vec<f64> { side.iter().map(executed_ops).collect() };
    let rows: Vec<String> = weight_sets
        .iter()
        .zip(&measured)
        .map(|((label, _), variant)| {
            let pairs: Vec<[Measurement; 2]> = measured[0]
                .iter()
                .zip(variant)
                .map(|(default, variant)| [default.clone(), variant.clone()])
                .collect();
            let [exec, _, noise] = summarize_pairs(&pairs, weight_sets[0].0, label);
            let ops_ratio = geometric_mean_ratio(&ops(variant), &ops(&measured[0]));
            println!("executed operations ({label} / default): {ops_ratio:.2}x");
            format!("{label},{exec:.4},{noise:.4},{ops_ratio:.4}")
        })
        .collect();
    let _ = write_csv(
        "table1_weight_sensitivity",
        "weights,exec_ratio,noise_ratio,ops_ratio",
        &rows,
    );
    exit_if_incorrect(measured.iter().flatten());
}
