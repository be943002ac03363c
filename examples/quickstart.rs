//! Quickstart: write an FHE kernel in the CHEHAB DSL, compile it with the
//! greedy optimizer, execute it homomorphically, and inspect the circuit
//! metrics the paper reports (operation counts, multiplicative depth,
//! consumed noise budget).
//!
//! Run with `cargo run --release --example quickstart`.

use chehab::compiler::{Compiler, DslProgram};
use chehab::fhe::BfvParameters;
use chehab::ir::summarize;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write the kernel: squared L2 distance between two 8-element vectors.
    let n = 8;
    let mut program = DslProgram::new("l2_distance_8");
    let a = program.ciphertext_inputs("a", n);
    let b = program.ciphertext_inputs("b", n);
    let terms: Vec<_> = (0..n)
        .map(|i| {
            let diff = &a[i] - &b[i];
            &diff * &diff
        })
        .collect();
    let total = program.add_many(&terms);
    program.set_output(&total);
    let scalar_ir = program.lower();

    println!("== CHEHAB quickstart: {}", program.name());
    println!("scalar IR: {scalar_ir}");
    let before = summarize(&scalar_ir);
    println!(
        "before optimization: {} ct-ct muls, {} adds, multiplicative depth {}",
        before.ops.ct_ct_muls(),
        before.ops.additions(),
        before.multiplicative_depth
    );

    // 2. Compile with the greedy term-rewriting optimizer.
    let compiler = Compiler::greedy();
    let compiled = compiler.compile(program.name(), &scalar_ir);
    let after = compiled.stats().summary_after;
    println!(
        "after optimization:  {} ct-ct muls, {} vector adds, {} rotations, multiplicative depth {}",
        after.ops.ct_ct_muls(),
        after.ops.vec_add_sub,
        after.ops.rotations,
        after.multiplicative_depth
    );
    println!(
        "cost model: {:.1} -> {:.1} ({} rewrite steps, compiled in {:?})",
        compiled.stats().cost_before,
        compiled.stats().cost_after,
        compiled.stats().optimizer_steps,
        compiled.stats().compile_time
    );

    // 3. Execute homomorphically and check against the clear computation.
    let mut inputs = HashMap::new();
    let mut expected: i64 = 0;
    for i in 0..n {
        let (x, y) = (i as i64 + 1, 2 * i as i64);
        inputs.insert(format!("a_{i}"), x);
        inputs.insert(format!("b_{i}"), y);
        expected += (x - y) * (x - y);
    }
    let params = BfvParameters::default_128();
    let report = compiled.session(&params)?.run(&inputs)?;

    println!(
        "homomorphic result: {} (expected {expected})",
        report.outputs[0]
    );
    println!(
        "server time: {:?}, noise budget consumed: {:.1} bits (remaining {:.1} of {:.0})",
        report.server_time,
        report.noise_budget_consumed,
        report.noise_budget_remaining,
        params.fresh_noise_budget_bits()
    );
    println!(
        "homomorphic operations: {} ct-ct muls, {} ct-pt muls, {} rotations, {} additions",
        report.operation_stats.ct_ct_multiplications,
        report.operation_stats.ct_pt_multiplications,
        report.operation_stats.rotations,
        report.operation_stats.additions
    );
    assert_eq!(report.outputs[0] as i64, expected);
    Ok(())
}
