//! The session's bind plan: the client side lowered once, one encryption per
//! *live* ciphertext input register.
//!
//! The oracle is independent of the plan: outputs are compared with
//! `chehab_ir::evaluate` on the *uncompiled* program, and the expected
//! encryption count and lane geometry are recomputed here from the compiled
//! circuit's DAG and the public schedule — the definition of "pre-bound"
//! (every ciphertext input, every plaintext node, every leaf-only vector
//! under the default layout) deliberately restated rather than imported.

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{
    external_compile_stats, output_slots_of, select_rotation_keys, BatchPolicy, CompiledProgram,
    Compiler, ExecHooks, ExecOptions, FheSession,
};
use chehab::fhe::BfvParameters;
use chehab::ir::{evaluate, parse, CircuitDag, DagNode, DataKind, Env};
use chehab::runtime::{data_kinds, lane_geometry};
use std::collections::HashMap;
use std::time::Duration;

fn inputs_of(benchmark: &Benchmark, seed: u64) -> HashMap<String, i64> {
    let env = benchmark.input_env(seed);
    benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
        .collect()
}

fn reference_slots(benchmark: &Benchmark, inputs: &HashMap<String, i64>) -> Vec<u64> {
    let mut env = Env::new();
    for (k, v) in inputs {
        env.bind(k.clone(), *v);
    }
    evaluate(benchmark.program(), &env)
        .expect("reference evaluation succeeds")
        .slots()
        .into_iter()
        .take(benchmark.output_slots())
        .collect()
}

/// What a session pre-binds, recomputed from the compiled circuit.
struct Prebound {
    dag: CircuitDag,
    /// Ciphertext registers the client could encrypt: inputs and (default
    /// layout) leaf-only vectors.
    cipher: Vec<usize>,
    /// Structural slot width per register, 0 where an instruction writes.
    widths: Vec<usize>,
}

fn prebound_of(compiled: &CompiledProgram) -> Prebound {
    let dag = CircuitDag::from_expr(compiled.circuit()).eliminate_dead_code();
    let kinds = data_kinds(&dag);
    let nodes = dag.nodes();
    let leaf_only = |elems: &[usize]| elems.iter().all(|&e| nodes[e].is_leaf());
    let mut cipher = Vec::new();
    let mut widths = vec![0usize; dag.len()];
    let mut structural = vec![0usize; dag.len()];
    for (id, node) in nodes.iter().enumerate() {
        structural[id] = match node {
            DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_) => 1,
            DagNode::Vec(elems) => elems.len().max(1),
            other => other
                .operands()
                .into_iter()
                .map(|o| structural[o])
                .max()
                .unwrap_or(1),
        };
        let packed_by_client = compiled.layout_before_encryption()
            && matches!(node, DagNode::Vec(elems) if leaf_only(elems));
        if kinds[id] == DataKind::Plaintext {
            widths[id] = structural[id];
        } else if matches!(node, DagNode::CtVar(_)) || packed_by_client {
            widths[id] = structural[id];
            cipher.push(id);
        }
    }
    Prebound {
        dag,
        cipher,
        widths,
    }
}

fn counter(session: &FheSession, name: &str) -> u64 {
    session.metrics().value(name).expect("registered series") as u64
}

/// All 46 kernels × {greedy, unoptimized} × {solo, batch of 3}: outputs are
/// the interpreter's on the uncompiled program, the session encrypts exactly
/// the ciphertext registers its schedule reads, and the lane geometry is
/// sized over those live registers only — never wider, never fewer lanes,
/// than sized over *every* pre-bound register.
#[test]
fn every_kernel_binds_only_what_its_schedule_reads_and_decrypts_to_the_interpreter() {
    let params = BfvParameters::insecure_test();
    let batched = ExecOptions::sequential().with_batching(BatchPolicy::default());
    let mut vectorised = 0usize;
    for benchmark in benchsuite::full_suite() {
        for (label, compiler) in [
            ("greedy", Compiler::greedy()),
            ("unoptimized", Compiler::without_optimizer()),
        ] {
            let id = format!("{} ({label})", benchmark.id());
            let compiled = compiler.compile(benchmark.id(), benchmark.program());
            let session = compiled
                .session(&params)
                .unwrap_or_else(|e| panic!("{id}: session construction failed: {e}"));
            let schedule = session.schedule();
            let prebound = prebound_of(&compiled);
            assert_eq!(prebound.dag.len(), schedule.slot_count(), "{id}");

            // --- one encryption per live ciphertext register.
            let live = |r: usize| schedule.consumer_counts()[r] > 0 || r == schedule.output();
            let expected = prebound.cipher.iter().filter(|&&r| live(r)).count();
            let encryptions = session.stats().encryptions_per_request;
            assert_eq!(encryptions, expected, "{id}: encryptions per request");
            assert!(encryptions <= prebound.cipher.len(), "{id}");
            let scalar_inputs = prebound
                .cipher
                .iter()
                .filter(|&&r| matches!(prebound.dag.nodes()[r], DagNode::CtVar(_)))
                .count();
            let fully_vectorised = scalar_inputs > 0
                && prebound
                    .cipher
                    .iter()
                    .all(|&r| !matches!(prebound.dag.nodes()[r], DagNode::CtVar(_)) || !live(r));
            if fully_vectorised {
                vectorised += 1;
                assert_eq!(
                    encryptions,
                    prebound.cipher.len() - scalar_inputs,
                    "{id}: a fully vectorised kernel encrypts its packed vectors only"
                );
            }

            // --- lane geometry: over the registers the plan binds, which can
            // only narrow the stride sized over every pre-bound register.
            let geometry_over = |widths: &[usize]| {
                lane_geometry(
                    schedule,
                    widths,
                    compiled.output_slots(),
                    params.slot_count(),
                )
            };
            let live_widths: Vec<usize> = (0..prebound.widths.len())
                .map(|r| if live(r) { prebound.widths[r] } else { 0 })
                .collect();
            let geometry = geometry_over(&live_widths);
            assert_eq!(session.lane_stride(), geometry.stride, "{id}: lane stride");
            assert_eq!(session.batch_capacity(), geometry.lanes, "{id}: capacity");
            let over_all = geometry_over(&prebound.widths);
            assert!(geometry.stride <= over_all.stride, "{id}: stride grew");
            assert!(geometry.lanes >= over_all.lanes, "{id}: capacity shrank");

            // --- solo and a batch of three against the interpreter.
            let sets: Vec<HashMap<String, i64>> = (0..3u64)
                .map(|k| inputs_of(&benchmark, 301 + 13 * k))
                .collect();
            let solo = session
                .run(&sets[0])
                .unwrap_or_else(|e| panic!("{id}: solo run failed: {e}"));
            let reports = session
                .run_batched(&sets, &batched, &ExecHooks::default())
                .unwrap_or_else(|e| panic!("{id}: batched run failed: {e}"));
            assert_eq!(reports.len(), sets.len(), "{id}: one report per user");
            // One bind for the solo request, one per chunk of the batch.
            let binds = 1 + sets.len().div_ceil(session.batch_capacity()) as u64;
            assert_eq!(
                counter(&session, "chehab_encryptions_total"),
                binds * encryptions as u64,
                "{id}: the registry counts one plan's worth of encryptions per bind"
            );
            for (user, (report, inputs)) in std::iter::once(&solo)
                .chain(&reports)
                .zip(std::iter::once(&sets[0]).chain(&sets))
                .enumerate()
            {
                if !report.decryption_ok {
                    // Deep circuits can exhaust the small test budget.
                    continue;
                }
                let expected = reference_slots(&benchmark, inputs);
                let got: Vec<u64> = report
                    .outputs
                    .iter()
                    .copied()
                    .take(expected.len())
                    .collect();
                assert_eq!(got, expected, "{id}: report {user} vs the interpreter");
            }
        }
    }
    assert!(
        vectorised >= 10,
        "only {vectorised} kernel compilations were fully vectorised: the strict check is vacuous"
    );
}

fn compile_raw(circuit: &str, layout_before_encryption: bool) -> CompiledProgram {
    let circuit = parse(circuit).expect("circuit parses");
    let steps: Vec<i64> = chehab::ir::rotation_steps(&circuit)
        .keys()
        .copied()
        .collect();
    CompiledProgram::from_circuit(
        "edge",
        circuit.clone(),
        output_slots_of(&circuit),
        select_rotation_keys(&steps, 28),
        layout_before_encryption,
        external_compile_stats(&circuit, Duration::from_millis(1)),
    )
}

fn bindings(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Registers nothing consumes but the circuit returns are live; inputs a
/// request omits read zero; the run-time layout keeps every scalar live.
#[test]
fn edge_cases_of_liveness() {
    let params = BfvParameters::insecure_test();
    let run = |circuit: &str, layout_before: bool, inputs: &[(&str, i64)]| {
        let session = compile_raw(circuit, layout_before)
            .session(&params)
            .expect("session");
        let report = session.run(&bindings(inputs)).expect("run");
        assert!(report.decryption_ok);
        (
            report.outputs,
            session.stats().encryptions_per_request,
            report.operation_stats.total(),
        )
    };

    // The output *is* a bare ciphertext input: consumer count 0, still bound.
    assert_eq!(run("a", true, &[("a", 9)]), (vec![9], 1, 0));
    // The output is a client-packed vector: one encryption, not three.
    assert_eq!(
        run("(Vec a b 3)", true, &[("a", 4), ("b", 5)]),
        (vec![4, 5, 3], 1, 0)
    );
    // A missing input defaults to 0, in a packed vector and as a live scalar.
    assert_eq!(
        run(
            "(VecAdd (Vec a b) (Vec c d))",
            true,
            &[("a", 1), ("b", 2), ("d", 7)]
        )
        .0,
        vec![1, 9]
    );
    assert_eq!(run("(+ a b)", true, &[("a", 7)]), (vec![7], 2, 1));
    // Layout after encryption: vectors are packed at run time from scalars
    // the server reads, so every one of them is encrypted.
    let (outputs, encryptions, _) = run(
        "(VecAdd (Vec a b c d) (Vec e f g h))",
        false,
        &[
            ("a", 1),
            ("b", 2),
            ("c", 3),
            ("d", 4),
            ("e", 5),
            ("f", 6),
            ("g", 7),
            ("h", 8),
        ],
    );
    assert_eq!((outputs, encryptions), (vec![6, 8, 10, 12], 8));
    // A plaintext-only program binds its output and encrypts nothing.
    assert_eq!(run("(+ (pt w) 3)", true, &[("w", 10)]), (vec![13], 0, 0));
}

/// A run-time pack decides whether it folds plaintext elements in from the
/// circuit, never from a request's values: a plaintext element that happens
/// to read zero costs the same operations as any other value, and in a batch
/// every user's lane still gets its own value.
#[test]
fn pack_operation_count_is_independent_of_request_values() {
    let params = BfvParameters::insecure_test();
    // Non-leaf elements force run-time packing under either layout.
    let session = compile_raw("(VecMul (Vec (+ a b) (pt w)) (Vec c d))", true)
        .session(&params)
        .expect("session");
    let with = |w: i64| bindings(&[("a", 1), ("b", 2), ("c", 3), ("d", 4), ("w", w)]);
    let nonzero = session.run(&with(5)).expect("run");
    let zero = session.run(&with(0)).expect("run");
    assert_eq!(nonzero.outputs, vec![9, 20]);
    assert_eq!(zero.outputs, vec![9, 0]);
    assert_eq!(zero.operation_stats, nonzero.operation_stats);
    assert_eq!(zero.noise_budget_consumed, nonzero.noise_budget_consumed);
    // One rotation-free placement, the plaintext fold, the multiplication
    // and the inner addition.
    assert_eq!(nonzero.operation_stats.additions, 2);

    let batch = session
        .run_batched(
            &[with(0), with(6), with(0)],
            &ExecOptions::sequential().with_batching(BatchPolicy::default()),
            &ExecHooks::default(),
        )
        .expect("batched run");
    let outputs: Vec<&[u64]> = batch.iter().map(|r| r.outputs.as_slice()).collect();
    assert_eq!(outputs, [&[9, 0][..], &[9, 24], &[9, 0]]);
    assert_eq!(batch[0].operation_stats, nonzero.operation_stats);

    // A literal zero is the one plaintext element that folds nothing.
    let literal = compile_raw("(VecMul (Vec (+ a b) 0) (Vec c d))", true)
        .session(&params)
        .expect("session")
        .run(&with(0))
        .expect("run");
    assert_eq!(literal.outputs, vec![9, 0]);
    assert_eq!(literal.operation_stats.additions, 1);
}
