//! Fault-injection and resilience tests: cancellation must stop a request
//! mid-flight (not just at dequeue), cancelled requests must not leak arena
//! buffers, a seeded fault storm must never hang or kill the engine, and
//! every non-faulted request must stay bit-identical to a clean run.

use chehab::compiler::{
    BatchPolicy, CancellationToken, Compiler, ExecHooks, ExecOptions, ExecutionReport, FaultPlan,
    FheSession, RequestError, TrySubmitError,
};
use chehab::fhe::{BfvParameters, FheError};
use chehab::runtime::ServingStats;
use chehab::{benchsuite, benchsuite::Benchmark};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn inputs_of(benchmark: &Benchmark, seed: u64) -> HashMap<String, i64> {
    let env = benchmark.input_env(seed);
    benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| {
            let value = env.get(v.as_str()).unwrap_or(0) as i64;
            (v.to_string(), value)
        })
        .collect()
}

fn session_for(id: &str) -> (Arc<FheSession>, Benchmark) {
    let benchmark = benchsuite::by_id(id).expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = Arc::new(compiled.session(&BfvParameters::insecure_test()).unwrap());
    (session, benchmark)
}

/// One engine-less request under an external token and a fault plan.
fn run_hooked(
    session: &FheSession,
    inputs: &HashMap<String, i64>,
    options: &ExecOptions,
    token: &CancellationToken,
    plan: Option<&FaultPlan>,
) -> Result<ExecutionReport, FheError> {
    let hooks = ExecHooks {
        cancel: Some(token.clone()),
        faults: plan.cloned(),
        ..ExecHooks::default()
    };
    session
        .run_batched(std::slice::from_ref(inputs), options, &hooks)
        .map(|mut reports| reports.remove(0))
}

/// Hooks that inject `plan` and nothing else.
fn faulting(plan: &FaultPlan) -> ExecHooks {
    ExecHooks {
        faults: Some(plan.clone()),
        ..ExecHooks::default()
    }
}

/// A two-lane batching policy with a short linger, for the batched halves
/// of the serving tests.
fn two_lanes() -> BatchPolicy {
    BatchPolicy::default()
        .with_max_batch(2)
        .with_max_linger(Duration::from_millis(1))
}

/// Reads one series of the session's metrics registry.
fn metric(session: &FheSession, name: &str) -> u64 {
    session.metrics().value(name).expect("registered series") as u64
}

/// The tentpole acceptance check: a request cancelled at dispatch index 8
/// while 8 dataflow workers are chewing on it stops scheduling the
/// remaining instructions — the plan's dispatch counter (the telemetry both
/// executors feed) stays strictly below the schedule length — and the
/// request resolves with `FheError::Cancelled`.
#[test]
fn cancellation_stops_a_dataflow_request_mid_flight() {
    let (session, benchmark) = session_for("Hamm. Dist. 32");
    let total = session.schedule().instrs().len() as u64;
    assert!(
        total > 24,
        "kernel must be large enough that a mid-flight stop is observable"
    );

    let token = CancellationToken::new();
    let plan = FaultPlan::new();
    plan.cancel_token_at(8, &token);
    let options = ExecOptions::new().with_threads_per_request(8);
    let error = run_hooked(
        &session,
        &inputs_of(&benchmark, 7),
        &options,
        &token,
        Some(&plan),
    )
    .expect_err("the cancelled request must not produce a report");
    assert_eq!(error, FheError::Cancelled);

    // At most the 8 in-flight dispatches that raced the cancellation ran
    // past the trigger; the bulk of the schedule never dispatched.
    let dispatched = plan.instructions_dispatched();
    assert!(
        dispatched < total,
        "cancelled request dispatched all {total} instructions"
    );
    // A cancelled request is not counted as served.
    assert_eq!(session.stats().requests_served, 0);

    // The session remains fully serviceable afterwards.
    let report = session.run(&inputs_of(&benchmark, 7)).unwrap();
    assert!(report.decryption_ok);
}

/// An already-dead token fails before any ciphertext work: zero dispatches.
#[test]
fn a_pre_cancelled_token_fails_before_binding() {
    let (session, benchmark) = session_for("Dot Product 8");
    let token = CancellationToken::new();
    token.cancel();
    let plan = FaultPlan::new();
    let error = run_hooked(
        &session,
        &inputs_of(&benchmark, 1),
        &ExecOptions::sequential(),
        &token,
        Some(&plan),
    )
    .unwrap_err();
    assert_eq!(error, FheError::Cancelled);
    assert_eq!(plan.instructions_dispatched(), 0);

    let expired = CancellationToken::deadline_in(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(1));
    let error = run_hooked(
        &session,
        &inputs_of(&benchmark, 1),
        &ExecOptions::sequential(),
        &expired,
        None,
    )
    .unwrap_err();
    assert_eq!(error, FheError::DeadlineExceeded);
}

/// 100 cancel cycles leak nothing: after warm-up, cancelled requests return
/// every arena buffer to the session pool, so the pool's fresh-allocation
/// counter stays flat across the whole run.
#[test]
fn one_hundred_cancel_cycles_leak_no_arena_buffers() {
    let (session, benchmark) = session_for("Dot Product 8");
    let inputs = inputs_of(&benchmark, 9);
    let options = ExecOptions::new().with_threads_per_request(4);

    // Warm-up: complete runs and one cancelled run at each trigger point we
    // will use, so every buffer length class is pooled.
    session.run_parallel(&inputs, &options).unwrap();
    session.run_parallel(&inputs, &options).unwrap();
    for trigger in [1, 2, 3, 4] {
        let token = CancellationToken::new();
        let plan = FaultPlan::new();
        plan.cancel_token_at(trigger, &token);
        let _ = run_hooked(&session, &inputs, &options, &token, Some(&plan));
    }

    let fresh_before = metric(&session, "chehab_arena_fresh_allocations_total");
    for cycle in 0..100u64 {
        let token = CancellationToken::new();
        let plan = FaultPlan::new();
        // Triggers stay well inside the 7-instruction schedule so at least
        // one dispatch after the trigger observes the cancelled token.
        plan.cancel_token_at(1 + (cycle % 4), &token);
        let error = run_hooked(&session, &inputs, &options, &token, Some(&plan))
            .expect_err("every cycle cancels");
        assert_eq!(error, FheError::Cancelled, "cycle {cycle}");
    }
    // A real leak grows linearly — ~100 fresh allocations here. The pool's
    // high-water mark may still creep up a couple of times when a scheduling
    // race briefly needs one more concurrent buffer than any warm-up run
    // did, so allow a small constant while still catching per-cycle leaks.
    let fresh_after = metric(&session, "chehab_arena_fresh_allocations_total");
    let grown = fresh_after - fresh_before;
    assert!(
        grown < 10,
        "cancelled requests leaked arena buffers ({grown} fresh allocations across 100 cycles)"
    );

    // And the session still serves clean requests bit-identically.
    let clean = session.run_parallel(&inputs, &options).unwrap();
    assert!(clean.decryption_ok);
}

/// A panic while peers sleep on the scheduler's condvar: the last dispatch
/// of a schedule depends on everything else, so under four workers the other
/// three have nothing to pop when it fires. Under either release rule the
/// sleepers are woken, the request resolves with `WorkerPanic` — not a
/// second panic out of the executor's scope — and the session serves the
/// next request bit-identically.
#[test]
fn a_panic_while_peers_wait_surfaces_as_worker_panic_under_both_rules() {
    use chehab::compiler::SchedulerKind;
    let (session, benchmark) = session_for("Hamm. Dist. 32");
    let schedule = session.schedule();
    let total = schedule.instrs().len() as u64;
    assert!(schedule.max_width() >= 4, "both rules must get a real pool");
    let inputs = inputs_of(&benchmark, 13);
    let clean = session.run(&inputs).unwrap();
    for scheduler in [SchedulerKind::Leveled, SchedulerKind::Dataflow] {
        let options = ExecOptions::sequential()
            .with_threads_per_request(4)
            .with_scheduler(scheduler);
        let plan = FaultPlan::panic_at(&[total - 1]);
        let error = session
            .run_batched(std::slice::from_ref(&inputs), &options, &faulting(&plan))
            .expect_err("the injected panic fails the request");
        assert!(
            matches!(error, FheError::WorkerPanic { .. }),
            "{scheduler:?}: {error:?}"
        );
        assert_eq!(plan.instructions_dispatched(), total, "{scheduler:?}");
        let after = session.run_parallel(&inputs, &options).unwrap();
        assert_eq!(after.outputs, clean.outputs, "{scheduler:?}");
    }
}

/// A seeded fault storm — planned worker panics, latency spikes, forced
/// queue-full rejections, one explicit cancellation — over a serving engine
/// completes with zero hangs and zero engine deaths, errors stay bounded by
/// the plan, and every non-faulted request's outputs are bit-identical to a
/// clean solo run; on narrow, wide and deep irregular schedules.
#[test]
fn a_seeded_fault_storm_never_hangs_and_non_faulted_outputs_are_exact() {
    for id in [
        "Dot Product 8",
        "Linear Reg. 4",
        "L2 Distance 8",
        "Mat. Mul. 3x3",
        "Sort 3",
        "Tree 100-100-5",
    ] {
        let (session, benchmark) = session_for(id);
        let requests = 10usize;
        let input_sets: Vec<HashMap<String, i64>> = (0..requests)
            .map(|seed| inputs_of(&benchmark, 900 + seed as u64))
            .collect();
        let clean: Vec<Vec<u64>> = input_sets
            .iter()
            .map(|inputs| session.run(inputs).unwrap().outputs)
            .collect();

        // One panic point somewhere in the first requests' dispatch range,
        // plus latency spikes and two forced queue-full rejections.
        let span = (session.schedule().instrs().len() * requests) as u64;
        let plan = FaultPlan::storm(0xC4A05, span.max(1), 2);
        plan.force_queue_full(2);
        let engine = session.serve_with(
            &ExecOptions::new().with_request_threads(3),
            &faulting(&plan),
        );

        let mut handles = Vec::new();
        let mut rejections = 0;
        for inputs in &input_sets {
            // A forced queue-full hands the request back; submit it again.
            let mut request = inputs.clone();
            let handle = loop {
                match engine.try_submit(request) {
                    Ok(handle) => break handle,
                    Err(TrySubmitError::QueueFull(returned)) => {
                        assert_eq!(&returned, inputs, "{id}: the rejection hands it back");
                        rejections += 1;
                        request = returned;
                    }
                    Err(other) => panic!("{id}: unexpected rejection: {other}"),
                }
            };
            handles.push(handle);
        }
        // Ten requests never fill the queue: both rejections were forced.
        assert_eq!(rejections, 2, "{id}: the forced queue-full budget");
        // The last request is cancelled while the storm runs: it resolves
        // as cancelled, or normally if a worker had already finished it.
        handles[requests - 1].cancel();

        let mut failed = 0usize;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.wait() {
                Ok(report) => assert_eq!(
                    report.outputs, clean[i],
                    "{id}: non-faulted request {i} diverged from the clean run"
                ),
                Err(FheError::WorkerPanic { .. }) => failed += 1,
                Err(FheError::Cancelled) if i == requests - 1 => {}
                Err(other) => panic!("{id}: unexpected storm error: {other}"),
            }
        }
        // Bounded error count: at most one failure per planned panic point.
        assert!(failed <= 2, "{id}: {failed} failures from 2 panic points");
        let stats = engine.shutdown();
        assert_eq!(stats.completed, requests as u64, "{id}: zero hangs");
        assert_eq!(
            metric(&session, "chehab_worker_panics_total") as usize,
            failed
        );

        // The storm's panics were isolated: the engine survived, and the
        // session still serves clean requests afterwards.
        let after = session.run(&input_sets[0]).unwrap();
        assert_eq!(after.outputs, clean[0]);
    }
}

/// A worker killed *outside* the handler (the hard-failure mode) abandons
/// exactly its in-flight batch — one request unbatched, at most `max_batch`
/// batched — instead of hanging the waiters, and the remaining workers keep
/// serving.
#[test]
fn a_killed_worker_abandons_its_request_without_hanging_waiters() {
    let solo = ExecOptions::new().with_request_threads(2);
    for (options, max_lost) in [(solo, 1), (solo.with_batching(two_lanes()), 2)] {
        let (session, benchmark) = session_for("Dot Product 8");
        let plan = FaultPlan::new();
        plan.kill_workers(1);
        let engine = session.serve_with(&options, &faulting(&plan));
        let handles: Vec<_> = (0..6)
            .map(|seed| engine.submit(inputs_of(&benchmark, 40 + seed)).unwrap())
            .collect();
        let mut abandoned = 0usize;
        let mut served = 0usize;
        for handle in handles {
            match handle.try_wait() {
                Ok(result) => {
                    served += 1;
                    assert!(result.expect("served request succeeds").decryption_ok);
                }
                Err(RequestError::Abandoned) => abandoned += 1,
                Err(RequestError::Panicked) => {
                    panic!("handler panics are caught, not re-raised here")
                }
            }
        }
        assert!(
            (1..=max_lost).contains(&abandoned),
            "exactly the killed worker's batch is lost, not {abandoned} requests"
        );
        assert_eq!(
            served,
            6 - abandoned,
            "the surviving worker drains the rest"
        );
        engine.shutdown();
        // One worker panic per abandoned member, whatever the batch size.
        assert_eq!(
            metric(&session, "chehab_worker_panics_total"),
            abandoned as u64
        );
    }
}

/// The exported resilience series are the cells the engines bump, not a
/// mirror synced at read time: a handle taken before the request already
/// shows an instruction-level panic, with no registry read in between.
#[test]
fn a_worker_panic_is_counted_in_the_registry_cell_itself() {
    let (session, benchmark) = session_for("Dot Product 8");
    let panics = session.metrics().counter("chehab_worker_panics_total", "");
    let engine = session.serve_with(
        &ExecOptions::sequential(),
        &faulting(&FaultPlan::panic_at(&[0])),
    );
    let error = engine
        .submit(inputs_of(&benchmark, 7))
        .unwrap()
        .wait()
        .expect_err("the injected panic fails the request");
    assert!(matches!(error, FheError::WorkerPanic { .. }), "{error:?}");
    assert!(panics.get() >= 1);
    assert_eq!(engine.shutdown().completed, 1);
}

/// Every engine of a session counts its requests' outcomes in the session's
/// cells, once: two engines — the unbatched shape `serve` builds and the
/// lane-batching shape of `serve_batched`, each under its own fault plan —
/// each serve one request whose executor panics and one cancelled request.
/// The session's series equal the error handles of both engines, while each
/// engine's stats count only the requests it served.
#[test]
fn two_engines_count_outcomes_once_in_the_session_cells() {
    let (session, benchmark) = session_for("Dot Product 8");
    let last = session.schedule().instrs().len() as u64 - 1;
    let solo = ExecOptions::sequential();
    let (mut cancelled, mut panicked) = (0, 0);
    for options in [solo, solo.with_batching(two_lanes())] {
        // The panic falls on the last instruction, after the whole run.
        let engine = session.serve_with(&options, &faulting(&FaultPlan::panic_at(&[last])));
        let panicking = engine.submit(inputs_of(&benchmark, 1)).unwrap();
        let panic = panicking.wait().expect_err("the injected panic fails it");
        assert!(matches!(panic, FheError::WorkerPanic { .. }), "{panic:?}");
        panicked += 1;
        // Each request runs alone (a batch of one carries its own token),
        // so the cancellation reaches the executor.
        let doomed = engine.submit(inputs_of(&benchmark, 2)).unwrap();
        doomed.cancel();
        match doomed.wait() {
            Err(FheError::Cancelled) => cancelled += 1,
            // A worker that finished before the cancel landed.
            Ok(report) => assert!(report.decryption_ok),
            Err(other) => panic!("unexpected error: {other}"),
        }
        let stats = engine.shutdown();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
        assert_eq!(stats.latency.request_wall.count(), 2);
    }
    assert!(cancelled >= 1, "a cancel lands before its run completes");
    assert_eq!(
        metric(&session, "chehab_requests_cancelled_total"),
        cancelled
    );
    assert_eq!(metric(&session, "chehab_worker_panics_total"), panicked);
}

/// Deadlines flow end to end, batched or not: a serving engine with an
/// aggressive deadline resolves late requests with
/// `FheError::DeadlineExceeded`, counts them in the resilience stats, and
/// mirrors the count into the session's Prometheus export.
#[test]
fn deadlines_resolve_requests_with_deadline_exceeded_and_are_counted() {
    let tight = ExecOptions::new()
        .with_request_threads(1)
        .with_deadline(Duration::from_nanos(1));
    for batched in [false, true] {
        let (session, benchmark) = session_for("Linear Reg. 4");
        // Warm the session so one clean baseline exists.
        let clean = session.run(&inputs_of(&benchmark, 3)).unwrap();
        assert!(clean.decryption_ok);

        let engine = if batched {
            session.serve_batched(&tight.with_batching(two_lanes()))
        } else {
            session.serve(&tight)
        };
        let handle = engine.submit(inputs_of(&benchmark, 3)).unwrap();
        let error = handle.wait().expect_err("a 1ns deadline always expires");
        assert_eq!(error, FheError::DeadlineExceeded);
        assert_eq!(engine.shutdown().completed, 1);
        assert_eq!(metric(&session, "chehab_deadline_missed_total"), 1);
        // The failed request did not feed the request counter.
        assert_eq!(session.stats().requests_served, 1);
    }
}

/// Submission-side faults reach a batched engine too: a forced queue-full
/// rejects `try_submit` (handing the request back) until the budget is
/// spent, then the same request is admitted and served.
#[test]
fn forced_queue_full_rejects_a_batched_try_submit() {
    let (session, benchmark) = session_for("Dot Product 8");
    let plan = FaultPlan::new();
    plan.force_queue_full(1);
    let options = ExecOptions::sequential().with_batching(two_lanes());
    let coalescer = session.serve_with(&options, &faulting(&plan));
    let rejected = coalescer
        .try_submit(inputs_of(&benchmark, 5))
        .expect_err("the forced rejection fires on an empty queue");
    assert!(matches!(rejected, TrySubmitError::QueueFull(_)));
    let handle = coalescer
        .try_submit(rejected.into_request())
        .expect("the budget is spent");
    assert!(handle.wait().unwrap().decryption_ok);
    assert_eq!(coalescer.shutdown().completed, 1);
}

/// What a handle received, as `RequestHandle::try_wait` returns it.
type Received = Result<Result<ExecutionReport, FheError>, RequestError>;

/// The session's outcome series: cancelled, deadline missed, worker panics.
fn outcome_series(session: &FheSession) -> [u64; 3] {
    [
        "chehab_requests_cancelled_total",
        "chehab_deadline_missed_total",
        "chehab_worker_panics_total",
    ]
    .map(|name| metric(session, name))
}

/// The handles' results tallied by the same three kinds; a handle that
/// never got a value (a handler panic, an abandoned request) is a worker
/// panic.
fn tally(received: &[Received]) -> [u64; 3] {
    let mut kinds = [0; 3];
    for result in received {
        match result {
            Ok(Err(FheError::Cancelled)) => kinds[0] += 1,
            Ok(Err(FheError::DeadlineExceeded)) => kinds[1] += 1,
            Ok(Err(FheError::WorkerPanic { .. })) | Err(_) => kinds[2] += 1,
            Ok(_) => {}
        }
    }
    kinds
}

/// Serves `n` requests through one engine whose batches fill: four lanes
/// and a one-minute linger, so a batch flushes when full, at a member's
/// deadline, or at shutdown. The members `cancel` picks are cancelled right
/// after their own submission, while their batch lingers. Returns what each
/// handle received, the engine's stats, and how far the session's outcome
/// series moved.
fn serve_filling_batches(
    session: &Arc<FheSession>,
    benchmark: &Benchmark,
    n: usize,
    options: ExecOptions,
    plan: Option<FaultPlan>,
    cancel: fn(usize) -> bool,
) -> (Vec<Received>, ServingStats, [u64; 3]) {
    let before = outcome_series(session);
    let policy = BatchPolicy::default()
        .with_max_batch(4)
        .with_max_linger(Duration::from_secs(60));
    let hooks = ExecHooks {
        faults: plan,
        ..ExecHooks::default()
    };
    let engine = session.serve_with(&options.with_batching(policy), &hooks);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let handle = engine.submit(inputs_of(benchmark, 60 + i as u64)).unwrap();
            if cancel(i) {
                handle.cancel();
            }
            handle
        })
        .collect();
    let stats = engine.shutdown();
    let received = handles.into_iter().map(|h| h.try_wait()).collect();
    let after = outcome_series(session);
    let moved = [0, 1, 2].map(|k| after[k] - before[k]);
    (received, stats, moved)
}

/// Each outcome series counts what the handles received, over a sweep of
/// batch sizes 1–4 and four cases: no fault, executor panics, a cancelled
/// subset and an expired deadline. A batch of two or more runs under no
/// member's token, so a cancelled member whose shared run completed is
/// served; an executor panic poisons the batch, and each member runs again
/// alone under its own token.
#[test]
fn each_outcome_series_equals_the_handles_of_its_kind() {
    let (session, benchmark) = session_for("Dot Product 8");
    assert!(session.batch_capacity() >= 4, "four users fit one batch");
    let solo = ExecOptions::sequential();
    let expired = solo.with_deadline(Duration::from_nanos(1));
    let none: fn(usize) -> bool = |_| false;
    let even: fn(usize) -> bool = |i| i % 2 == 0;
    for n in 1..=4 {
        let cases = [
            ("no fault", solo, None, none),
            // The shared run panics at dispatch 0, the first solo retry at 1.
            ("panic_at", solo, Some(FaultPlan::panic_at(&[0, 1])), none),
            ("cancelled subset", solo, None, even),
            ("expired deadline", expired, None, none),
        ];
        for (case, options, plan, cancel) in cases {
            let (received, stats, series) =
                serve_filling_batches(&session, &benchmark, n, options, plan, cancel);
            let handles = tally(&received);
            assert_eq!(series, handles, "{case}, {n} requests: series vs handles");
            assert_eq!(stats.completed, n as u64, "{case}, {n} requests");
            for result in &received {
                if let Ok(Ok(report)) = result {
                    assert!(report.decryption_ok, "{case}, {n} requests");
                }
            }
            let lone = u64::from(n == 1);
            match case {
                "no fault" => assert_eq!(handles, [0, 0, 0]),
                "panic_at" => {
                    assert_eq!(handles, [0, 0, 1], "{n} requests");
                    let retried = if n > 1 { n as u64 } else { 0 };
                    assert_eq!((stats.batch_panics, stats.solo_retries), (1, retried));
                }
                "cancelled subset" => assert_eq!(handles, [lone, 0, 0], "{n} requests"),
                _ => {
                    // Batches form as the expired members flush; a member
                    // that ran alone reports its deadline.
                    assert_eq!((handles[0], handles[2]), (0, 0), "{n} requests");
                    assert!(handles[1] >= lone, "{n} requests");
                }
            }
        }
    }
}

/// A batch of two lingers with the second member cancelled, and its shared
/// run panics at its first dispatch: the batch is poisoned, the first
/// member's solo retry serves it, and the second's stops on its cancelled
/// token. No handle received a worker panic, so none is counted; one
/// received `Cancelled`, so one is.
#[test]
fn an_executor_panic_in_a_batch_with_a_cancelled_member_counts_what_each_handle_gets() {
    let (session, benchmark) = session_for("Dot Product 8");
    let (received, stats, series) = serve_filling_batches(
        &session,
        &benchmark,
        2,
        ExecOptions::sequential(),
        Some(FaultPlan::panic_at(&[0])),
        |i| i == 1,
    );
    assert!(matches!(received[0], Ok(Ok(ref report)) if report.decryption_ok));
    assert!(matches!(received[1], Ok(Err(FheError::Cancelled))));
    assert_eq!(
        series,
        [1, 0, 0],
        "cancelled 1, deadline missed 0, panics 0"
    );
    assert_eq!((stats.batch_panics, stats.solo_retries), (1, 2));
}
