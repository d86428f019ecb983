//! Property: the service layer is a pure concurrency wrapper — it changes
//! *where* rounds run, never *what* they decide. Across generated mapping
//! tasks: N owned sessions running concurrently on one shared
//! `Arc<Database>` accept exactly the query set a sequential
//! single-session run accepts, and a session validated by the
//! work-stealing pool at 2/4/8 threads accepts exactly the 1-thread
//! (sequential-loop) set.

#[path = "support/task_session.rs"]
mod task_session;

use prism_core::scheduler::SchedulerKind;
use prism_core::{DiscoveryConfig, DiscoveryService, SessionHandle};
use prism_datasets::{mondial, MappingTask, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::Database;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use task_session::task_session;

/// The walkthrough database, built once and shared by every service the
/// properties stand up: the point is many services/sessions over ONE
/// frozen `Arc<Database>`.
fn db() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(mondial(42, 1)))
}

/// Concurrent sessions per service.
const SESSIONS: usize = 4;

/// PathLength keeps the properties estimator-free (scheduling order is
/// irrelevant to the accept set, which is all these properties compare).
fn engine_config(threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        validation_threads: threads,
        ..DiscoveryConfig::with_scheduler(SchedulerKind::PathLength)
    }
}

/// Session shaped like the generated task's constraint grid.
fn session_for(svc: &DiscoveryService, task: &MappingTask, threads: usize) -> SessionHandle {
    task_session(
        svc,
        task.column_count,
        &task.samples,
        &task.metadata,
        engine_config(threads),
    )
}

/// Sorted result keys of the last round — the accept set, order-blind.
/// The rounds here are fault-free, so a degraded one (an empty result
/// from a contained coordinator panic) fails rather than compares.
fn accept_set(session: &SessionHandle) -> Vec<String> {
    let result = session.result().expect("round ran");
    assert!(!result.degraded, "{:?}", result.fault_reports);
    let mut keys: Vec<String> = result.queries.iter().map(|q| q.key.clone()).collect();
    keys.sort();
    keys
}

fn generate_task(seed: u64, resolution: Resolution) -> Vec<MappingTask> {
    let taskgen = TaskGenerator::new(db(), TaskGenConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    taskgen.generate_many(resolution, 1, &mut rng)
}

fn arb_resolution() -> impl Strategy<Value = Resolution> {
    prop_oneof![
        Just(Resolution::Exact),
        Just(Resolution::Disjunction),
        Just(Resolution::Range),
        Just(Resolution::Metadata),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_sessions_accept_the_sequential_set(
        seed in 0u64..1_000,
        resolution in arb_resolution(),
    ) {
        for task in &generate_task(seed, resolution) {
            // Reference: one session, one thread, its own service.
            let seq_svc = DiscoveryService::new(Arc::clone(db()), engine_config(1));
            let mut reference = session_for(&seq_svc, task, 1);
            reference.start_searching().unwrap();
            let expected = accept_set(&reference);

            // N sessions describing the same task, racing on one service
            // (shared plan cache, shared thread budget, shared database).
            let svc = DiscoveryService::new(Arc::clone(db()), engine_config(4));
            let handles: Vec<SessionHandle> = (0..SESSIONS)
                .map(|_| session_for(&svc, task, 2))
                .collect();
            let accepted: Vec<Vec<String>> = std::thread::scope(|scope| {
                let joins: Vec<_> = handles
                    .into_iter()
                    .map(|mut session| {
                        scope.spawn(move || {
                            session.start_searching().unwrap();
                            accept_set(&session)
                        })
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            prop_assert_eq!(svc.rounds_run(), SESSIONS as u64);
            // Sessions racing on a cold cache compile each class at most
            // once between them.
            let cache = svc.plan_cache();
            prop_assert!((cache.compiled as u64) <= cache.misses);
            for (i, keys) in accepted.iter().enumerate() {
                prop_assert_eq!(
                    keys, &expected,
                    "session {} diverged from the sequential run ({:?}/{})",
                    i, resolution, seed
                );
            }
        }
    }

    #[test]
    fn work_stealing_thread_counts_agree_with_the_sequential_loop(
        seed in 0u64..1_000,
        resolution in arb_resolution(),
    ) {
        for task in &generate_task(seed, resolution) {
            // One service with budget for the widest pool; each session
            // leases a different worker count, so the same shared plan
            // cache serves the sequential loop and every stealing pool.
            let svc = DiscoveryService::with_thread_budget(Arc::clone(db()), engine_config(1), 8);
            let mut reference = session_for(&svc, task, 1);
            reference.start_searching().unwrap();
            let expected = accept_set(&reference);
            for threads in [2usize, 4, 8] {
                let mut session = session_for(&svc, task, threads);
                session.start_searching().unwrap();
                prop_assert_eq!(
                    accept_set(&session), expected.clone(),
                    "work-stealing pool @ {} threads diverged ({:?}/{})",
                    threads, resolution, seed
                );
            }
        }
    }
}

/// Deterministic multi-session smoke on the walkthrough constraints with
/// the full default engine (Bayes scheduler, trained estimator). One cold
/// session fills the service-global plan cache; then `SESSIONS` warm
/// sessions run concurrently, and each must accept the cold set without
/// compiling a single plan, every class served by the shared cache.
#[test]
fn walkthrough_smoke_across_concurrent_sessions() {
    let svc = DiscoveryService::new(Arc::clone(db()), DiscoveryConfig::default());
    let describe = |session: &mut SessionHandle| {
        session
            .set_sample_cell(0, 0, "California || Nevada")
            .unwrap();
        session.set_sample_cell(0, 1, "Lake Tahoe").unwrap();
        session
            .set_metadata_cell(2, "DataType=='decimal' AND MinValue>='0'")
            .unwrap();
    };
    let mut cold = svc.open_default_session();
    describe(&mut cold);
    let cold_plans = cold.start_searching().unwrap().stats.exec.plans_built;
    let expected = accept_set(&cold);
    assert!(!expected.is_empty(), "walkthrough discovers queries");
    assert!(
        cold_plans > 0,
        "the cold session compiles the round's classes"
    );

    let mut handles: Vec<SessionHandle> =
        (0..SESSIONS).map(|_| svc.open_default_session()).collect();
    for session in &mut handles {
        describe(session);
    }
    let warm: Vec<(Vec<String>, u64)> = std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut session| {
                scope.spawn(move || {
                    let plans = session.start_searching().unwrap().stats.exec.plans_built;
                    (accept_set(&session), plans)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for (i, (keys, plans)) in warm.iter().enumerate() {
        assert_eq!(
            keys, &expected,
            "warm session {i} diverged from the cold round"
        );
        assert_eq!(
            *plans, 0,
            "warm session {i} compiled plans the shared cache holds"
        );
    }
    assert_eq!(svc.sessions_opened(), SESSIONS as u64 + 1);
    assert_eq!(svc.rounds_run(), SESSIONS as u64 + 1);
    // At most one session compiled each class: the cache registered every
    // class once (misses) and served every later request from the slot.
    let cache = svc.plan_cache();
    assert!(cache.entries > 0);
    assert!(
        (cache.compiled as u64) <= cache.misses,
        "compiles bounded by first-registrations"
    );
}
