//! Equivalence and liveness tests for the executor's two release rules:
//! barrier-free dependency counting and level-by-level release must both
//! produce outputs bit-identical to the in-order reference walk on every
//! benchsuite kernel at every thread count, must fully drain adversarial
//! DAG shapes (long dependent chains interleaved with wide fan-out) without
//! deadlocking, and must be deterministic in their results no matter how
//! the steal order falls out.

use chehab::benchsuite;
use chehab::compiler::{
    external_compile_stats, output_slots_of, select_rotation_keys, CompiledProgram, Compiler,
    ExecOptions, ExecutionReport, SchedulerKind,
};
use chehab::fhe::BfvParameters;
use chehab::ir::{evaluate, parse, BinOp, CircuitDag, DataKind, Env};
use chehab::runtime::{data_kinds, Instr};
use std::collections::HashMap;
use std::time::Duration;

fn test_params() -> BfvParameters {
    BfvParameters::insecure_test()
}

fn dataflow_options(threads: usize) -> ExecOptions {
    ExecOptions::sequential()
        .with_threads_per_request(threads)
        .with_scheduler(SchedulerKind::Dataflow)
}

fn leveled_options(threads: usize) -> ExecOptions {
    ExecOptions::sequential()
        .with_threads_per_request(threads)
        .with_scheduler(SchedulerKind::Leveled)
}

fn assert_equivalent(a: &ExecutionReport, b: &ExecutionReport, context: &str) {
    assert_eq!(a.outputs, b.outputs, "{context}: outputs diverged");
    assert_eq!(
        a.decryption_ok, b.decryption_ok,
        "{context}: decryption outcome diverged"
    );
    assert_eq!(
        a.operation_stats, b.operation_stats,
        "{context}: operation counts diverged"
    );
    assert_eq!(
        a.noise_budget_consumed, b.noise_budget_consumed,
        "{context}: noise accounting diverged"
    );
}

/// Every (release rule × thread count) cell of the one executor matches the
/// in-order reference walk — outputs, operation counts, noise bits — on
/// every benchsuite kernel, and the walk itself matches the plaintext
/// interpreter. The unoptimized lowering has the widest schedules, which
/// stresses the ready queue hardest.
#[test]
fn dataflow_matches_wavefront_on_every_kernel() {
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let session = compiled
            .session(&test_params())
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        let env = benchmark.input_env(17);
        let inputs: HashMap<String, i64> = benchmark
            .program()
            .variables()
            .into_iter()
            .map(|v| {
                let value = env.get(v.as_str()).unwrap_or(0) as i64;
                (v.to_string(), value)
            })
            .collect();
        let reference = session
            .run_in_order(&inputs)
            .unwrap_or_else(|e| panic!("{}: in-order walk failed: {e}", benchmark.id()));
        // Deep circuits can exhaust the small test budget.
        if reference.decryption_ok {
            let expected: Vec<u64> = chehab::ir::evaluate(benchmark.program(), &env)
                .expect("reference evaluation succeeds")
                .slots()
                .into_iter()
                .take(benchmark.output_slots())
                .collect();
            assert_eq!(
                reference.outputs[..expected.len()],
                expected[..],
                "{}: in-order walk vs the interpreter",
                benchmark.id()
            );
        }
        let schedule = session.schedule();
        for options in [leveled_options, dataflow_options] {
            for threads in [1usize, 2, 4, 8] {
                let options = options(threads);
                let context = format!(
                    "{} under {:?} at {threads} threads",
                    benchmark.id(),
                    options.scheduler
                );
                let report = session
                    .run_parallel(&inputs, &options)
                    .unwrap_or_else(|e| panic!("{context}: execution failed: {e}"));
                assert_equivalent(&report, &reference, &context);
                // Full drain: every instruction ran exactly once (operation
                // counts already match), and the breakdown carries one
                // measured span and one queue wait per instruction.
                assert_eq!(report.timing.scheduler, options.scheduler, "{context}");
                assert_eq!(
                    report.timing.instr_times.len(),
                    schedule.instrs().len(),
                    "{context}: missing instruction timings"
                );
                assert_eq!(
                    report.timing.queue_waits.len(),
                    schedule.instrs().len(),
                    "{context}: missing queue waits"
                );
            }
        }
    }
}

/// A plaintext minus a ciphertext (run as `-(y - p)`) and run-time packs
/// whose element 0 is a ciphertext and a plaintext: the in-order walk
/// decrypts to the interpreter's slots, and each release rule at one and two
/// workers matches the walk bit for bit.
#[test]
fn plain_minus_cipher_and_packing_match_the_interpreter() {
    let source = "(VecAdd (Vec (- (pt p) a) (+ b c) (* a c)) (Vec (pt q) (* a b) (- 7 c)))";
    let program = parse(source).unwrap();
    let compiled = Compiler::without_optimizer().compile("plain minus cipher", &program);
    let kinds = data_kinds(&CircuitDag::from_expr(compiled.circuit()).eliminate_dead_code());
    let plain = |r: usize| kinds[r] == DataKind::Plaintext;
    let session = compiled.session(&test_params()).unwrap();
    let instrs = session.schedule().instrs();
    let plain_minus_cipher = (instrs.iter())
        .filter(
            |si| matches!(si.instr, Instr::Bin { op: BinOp::Sub, a, b } if plain(a) && !plain(b)),
        )
        .count();
    assert!(plain_minus_cipher > 0, "the schedule holds a plain − ct");
    let pack_heads: Vec<bool> = (instrs.iter())
        .filter_map(|si| match &si.instr {
            Instr::Pack { elems, .. } => Some(plain(elems[0])),
            _ => None,
        })
        .collect();
    assert!(
        pack_heads.contains(&false),
        "a pack starts with a ciphertext"
    );
    assert!(pack_heads.contains(&true), "a pack starts with a plaintext");

    let inputs: HashMap<String, i64> = [("a", 3), ("b", 5), ("c", 11), ("p", 1), ("q", 2)]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    let mut env = Env::new();
    for (name, &value) in &inputs {
        env.bind(name.clone(), value);
    }
    let expected: Vec<u64> = evaluate(&program, &env)
        .unwrap()
        .slots()
        .into_iter()
        .take(compiled.output_slots())
        .collect();
    let reference = session.run_in_order(&inputs).unwrap();
    assert!(reference.decryption_ok);
    assert_eq!(reference.outputs[..expected.len()], expected[..]);
    for options in [leveled_options, dataflow_options] {
        for threads in [1usize, 2] {
            let options = options(threads);
            let context = format!("{:?} at {threads} threads", options.scheduler);
            let report = session.run_parallel(&inputs, &options).unwrap();
            assert_equivalent(&report, &reference, &context);
        }
    }
}

/// A seeded adversarial schedule: `width` independent products (wide
/// fan-out, all ready at once) drained through a left-fold accumulation
/// chain (every add depends on the previous add *and* one product), plus an
/// independent long chain of additions. Exercises injector fan-out, local
/// deque growth and cross-chain stealing at once.
fn adversarial_program(width: usize, chain: usize) -> CompiledProgram {
    let mut products = String::new();
    let mut fold = String::new();
    for i in 0..width {
        let product = format!("(VecMul (Vec a{i} b{i}) (Vec c{i} d{i}))");
        fold = if i == 0 {
            product
        } else {
            format!("(VecAdd {fold} {product})")
        };
        products.push(' ');
    }
    let mut tail = String::from("(Vec x0 y0)");
    for i in 1..chain {
        tail = format!("(VecAdd {tail} (Vec x{i} y{i}))");
    }
    let source = format!("(VecAdd {fold} {tail})");
    let circuit = chehab::ir::parse(&source).expect("well-formed adversarial source");
    let steps: Vec<i64> = chehab::ir::rotation_steps(&circuit)
        .keys()
        .copied()
        .collect();
    let slots = output_slots_of(&circuit);
    CompiledProgram::from_circuit(
        "adversarial",
        circuit.clone(),
        slots,
        select_rotation_keys(&steps, 28),
        true,
        external_compile_stats(&circuit, Duration::from_millis(1)),
    )
}

fn adversarial_inputs(width: usize, chain: usize, seed: i64) -> HashMap<String, i64> {
    let mut inputs = HashMap::new();
    for i in 0..width as i64 {
        inputs.insert(format!("a{i}"), (seed + i) % 7 + 1);
        inputs.insert(format!("b{i}"), (seed + 2 * i) % 5 + 1);
        inputs.insert(format!("c{i}"), (seed + 3 * i) % 11 + 1);
        inputs.insert(format!("d{i}"), (seed + 5 * i) % 3 + 1);
    }
    for i in 0..chain as i64 {
        inputs.insert(format!("x{i}"), (seed + 7 * i) % 13 + 1);
        inputs.insert(format!("y{i}"), (seed + 11 * i) % 9 + 1);
    }
    inputs
}

/// The adversarial DAG (wide fan-out + long chains) executes to completion
/// at every thread count — no deadlock, no lost instruction — and matches
/// the sequential result bit for bit.
#[test]
fn adversarial_dag_drains_fully_without_deadlock() {
    let (width, chain) = (24, 40);
    let program = adversarial_program(width, chain);
    let session = program.session(&test_params()).unwrap();
    let schedule = session.schedule();
    // The shape is as intended: a ready set as wide as the fan-out and a
    // dependency depth at least the chain length.
    assert!(schedule.max_width() >= width);
    assert!(schedule.level_count() >= chain);

    let inputs = adversarial_inputs(width, chain, 3);
    let sequential = session.run(&inputs).unwrap();
    assert!(sequential.decryption_ok);
    for threads in [2usize, 4, 8, 16] {
        let dataflow = session
            .run_parallel(&inputs, &dataflow_options(threads))
            .unwrap_or_else(|e| panic!("{threads}-thread adversarial run failed: {e}"));
        assert_equivalent(
            &dataflow,
            &sequential,
            &format!("adversarial DAG at {threads} threads"),
        );
        assert_eq!(
            dataflow.timing.instr_times.len(),
            schedule.instrs().len(),
            "full drain records every instruction"
        );
    }
}

/// Leveled is a release rule, not a barrier: on the adversarial uneven
/// schedule at 2/4/8 threads no level-`l+1` instruction starts before the
/// last level-`l` instruction finished — read off the untraced report's
/// per-instruction starts and spans.
#[test]
fn leveled_releases_a_level_only_after_the_one_below_has_finished() {
    let (width, chain) = (24, 40);
    let session = adversarial_program(width, chain)
        .session(&test_params())
        .unwrap();
    let schedule = session.schedule();
    let inputs = adversarial_inputs(width, chain, 5);
    for threads in [2usize, 4, 8] {
        let timing = session
            .run_parallel(&inputs, &leveled_options(threads))
            .unwrap()
            .timing;

        // Per level: the earliest start and the latest end of its
        // instructions, as offsets from the barrier.
        let mut bounds = vec![(Duration::MAX, Duration::ZERO); schedule.level_count()];
        for (index, si) in schedule.instrs().iter().enumerate() {
            let (first_start, last_end) = &mut bounds[si.level];
            let start = timing.starts[index];
            *first_start = (*first_start).min(start);
            *last_end = (*last_end).max(start + timing.instr_times[index]);
        }
        for (level, pair) in bounds.windows(2).enumerate() {
            assert!(
                pair[1].0 >= pair[0].1,
                "{threads} threads: level {} started at {:?}, before level {level} \
                 finished at {:?}",
                level + 1,
                pair[1].0,
                pair[0].1
            );
        }
    }
}

/// Result registers are independent of the steal order: repeated runs at
/// the same thread count (each with its own nondeterministic interleaving)
/// and runs across different thread counts all produce identical outputs,
/// operation counts and noise accounting.
#[test]
fn results_are_independent_of_steal_order() {
    let (width, chain) = (16, 24);
    let program = adversarial_program(width, chain);
    let session = program.session(&test_params()).unwrap();
    let inputs = adversarial_inputs(width, chain, 11);
    let reference = session.run(&inputs).unwrap();
    for round in 0..6 {
        for threads in [4usize, 8] {
            let report = session
                .run_parallel(&inputs, &dataflow_options(threads))
                .unwrap();
            assert_equivalent(
                &report,
                &reference,
                &format!("round {round} at {threads} threads"),
            );
        }
    }
}
