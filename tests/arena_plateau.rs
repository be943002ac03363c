//! A session's buffer count must plateau under multi-threaded dataflow
//! execution.
//!
//! With two dataflow workers, the worker that retires a register is rarely
//! the one that allocates the next output, and `bind` is neither: buffers
//! recycled into one checked-out arena used to be invisible to every other
//! arena's `take`, so the session allocated 12–14 fresh buffers a request
//! for as long as it served (180 MB → 1.2 GB in 20 s on the benchmark's
//! `unstructured_wide`). The pool now parks every restored buffer where any
//! arena's miss finds it, which bounds what a session ever allocates by what
//! one request can hold at once — however the workers interleave.

use chehab::benchsuite::trees::{tree, TreeParams};
use chehab::compiler::{Compiler, ExecOptions, FheSession, SchedulerKind};
use chehab::fhe::BfvParameters;
use std::collections::HashMap;

fn fresh_and_retained(session: &FheSession) -> (u64, f64) {
    let registry = session.metrics();
    let read = |name| registry.value(name).expect("registered series");
    (
        read("chehab_arena_fresh_allocations_total") as u64,
        read("chehab_arena_retained_buffers"),
    )
}

#[test]
fn two_thread_dataflow_sessions_stop_allocating() {
    let params = BfvParameters::insecure_test();
    // `Tree 100-100-7`, the widest program of the benchmark's
    // `unstructured_wide` workload.
    let benchmark = tree(TreeParams {
        fullness: 100,
        homogeneity: 100,
        depth: 7,
    });
    let session = Compiler::greedy()
        .compile(benchmark.id(), benchmark.program())
        .session(&params)
        .expect("session");
    let options = ExecOptions::sequential()
        .with_threads_per_request(2)
        .with_scheduler(SchedulerKind::Dataflow);
    assert!(session.schedule().max_width() >= 2, "both workers get work");

    let serve = |requests: std::ops::Range<u64>| {
        let mut outputs = Vec::new();
        for seed in requests {
            let env = benchmark.input_env(seed % 7);
            let inputs: HashMap<String, i64> = benchmark
                .program()
                .variables()
                .into_iter()
                .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
                .collect();
            let report = session.run_parallel(&inputs, &options).expect("request");
            if seed % 7 == 0 {
                outputs.push(report.outputs);
            }
        }
        outputs
    };

    let first_outputs = serve(0..150);
    let (first_fresh, first_retained) = fresh_and_retained(&session);
    let second_outputs = serve(150..300);
    let (total_fresh, retained) = fresh_and_retained(&session);

    assert!(first_fresh > 0, "a cold session allocates its working set");
    let late = total_fresh - first_fresh;
    assert!(
        late * 20 <= first_fresh,
        "requests 151-300 allocated {late} fresh buffers, requests 1-150 {first_fresh}: \
         the pool is still growing"
    );
    // Every buffer ever allocated is parked between requests — none leaked,
    // none stranded — so the retained count plateaus with the allocations.
    assert_eq!(retained, total_fresh as f64);
    assert!(retained <= first_retained * 1.05);
    // Buffer reuse across workers never changes a result.
    assert!(first_outputs.iter().all(|o| *o == first_outputs[0]));
    assert!(second_outputs.iter().all(|o| *o == first_outputs[0]));
}
