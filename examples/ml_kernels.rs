//! Machine-learning building blocks under FHE: dot product, L2 distance and
//! polynomial-regression residuals over encrypted data — the workloads the
//! paper's introduction motivates (private inference / private analytics).
//!
//! The example also demonstrates the rotation-key selection pass
//! (Appendix B): the dot-product reduction needs several rotation steps and
//! the compiler keeps the generated Galois keys within the configured budget.
//!
//! Run with `cargo run --release --example ml_kernels`.

use chehab::benchsuite::porcupine;
use chehab::compiler::Compiler;
use chehab::fhe::BfvParameters;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = BfvParameters {
        payload_degree: 1024,
        ..BfvParameters::default_128()
    };
    let compiler = Compiler::greedy();

    // --- Dot product of two encrypted feature vectors (length 16).
    let dot = porcupine::dot_product(16);
    let compiled = compiler.compile(dot.id(), dot.program());
    let mut inputs = HashMap::new();
    let mut expected = 0i64;
    for i in 0..16i64 {
        inputs.insert(format!("a_{i}"), i + 1);
        inputs.insert(format!("b_{i}"), 2 * i + 1);
        expected += (i + 1) * (2 * i + 1);
    }
    let session = compiled.session(&params)?;
    let report = session.run(&inputs)?;
    println!("== {}", dot.id());
    println!(
        "  result {} (expected {expected}); {} rotations over {} Galois keys (budget {})",
        report.outputs[0],
        report.operation_stats.rotations,
        session.stats().galois_key_count,
        compiled.rotation_plan().budget,
    );
    println!(
        "  multiplicative depth {}, noise consumed {:.1} bits, server time {:?}",
        compiled.stats().summary_after.multiplicative_depth,
        report.noise_budget_consumed,
        report.server_time
    );
    assert_eq!(report.outputs[0] as i64, expected);

    // --- Squared L2 distance between two encrypted embeddings (length 8).
    let l2 = porcupine::l2_distance(8);
    let compiled = compiler.compile(l2.id(), l2.program());
    let mut inputs = HashMap::new();
    let mut expected = 0i64;
    for i in 0..8i64 {
        inputs.insert(format!("a_{i}"), 3 * i);
        inputs.insert(format!("b_{i}"), i + 2);
        expected += (3 * i - (i + 2)) * (3 * i - (i + 2));
    }
    let report = compiled.session(&params)?.run(&inputs)?;
    println!("== {}", l2.id());
    println!(
        "  result {} (expected {expected}); ops: {} ct-ct muls, {} additions, {} rotations",
        report.outputs[0],
        report.operation_stats.ct_ct_multiplications,
        report.operation_stats.additions,
        report.operation_stats.rotations
    );
    assert_eq!(report.outputs[0] as i64, expected);

    // --- Polynomial-regression residuals over 8 encrypted points.
    let poly = porcupine::polynomial_regression(8);
    let compiled = compiler.compile(poly.id(), poly.program());
    let mut inputs = HashMap::new();
    let (c0, c1, c2) = (2i64, 3i64, 1i64);
    inputs.insert("c0".to_string(), c0);
    inputs.insert("c1".to_string(), c1);
    inputs.insert("c2".to_string(), c2);
    let mut expected = Vec::new();
    for i in 0..8i64 {
        let x = i - 3;
        let y = 50 + i;
        inputs.insert(format!("x_{i}"), x);
        inputs.insert(format!("y_{i}"), y);
        expected.push((y - (c0 + c1 * x + c2 * x * x)).rem_euclid(786_433) as u64);
    }
    let report = compiled.session(&params)?.run(&inputs)?;
    println!("== {}", poly.id());
    println!(
        "  residuals {:?}; multiplicative depth {}, noise consumed {:.1} bits",
        report.outputs,
        compiled.stats().summary_after.multiplicative_depth,
        report.noise_budget_consumed
    );
    assert_eq!(report.outputs, expected);

    println!("\nall ML kernels matched their cleartext references under encryption");
    Ok(())
}
