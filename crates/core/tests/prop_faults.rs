//! Chaos properties of the fault-isolation layer.
//!
//! The discovery stack promises to *degrade, not die*: a panicking filter
//! validation or a slot that overruns the round deadline must never hang
//! the pool, poison sibling sessions, or surface an unvalidated query.
//! These tests arm the deterministic injector
//! ([`prism_core::FaultSpec`]) at full and partial rates across thread
//! counts 1/2/4 and check, against a fault-free baseline of the same
//! walkthrough task:
//!
//! - fault-free runs are bit-identical across thread counts, with no
//!   fault injected or reported;
//! - under injected panics the accept set is a **sound subset** of the
//!   baseline, the result is flagged degraded, and each fault report
//!   names the faulted filter's SQL;
//! - delay faults never change any result;
//! - one chaotic session on a [`DiscoveryService`] cannot poison its
//!   clean siblings;
//! - a near-zero deadline on a populated database returns promptly
//!   instead of finishing a long scan (the executor's deadline tick);
//! - a slot that overruns the deadline times the round out without
//!   degrading it, and the round's answer stays a sound subset.
//!
//! The final test arms `panic:0.02:seed7` at 4 threads and sweeps
//! generated tasks until the injector demonstrably fires, asserting
//! soundness throughout.

#[path = "support/task_session.rs"]
mod task_session;

use prism_core::{
    DiscoveryConfig, DiscoveryResult, DiscoveryService, FaultSpec, SessionConfig, SessionHandle,
};
use prism_datasets::{mondial, MappingTask, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::Database;
use prism_lang::UdfRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use task_session::task_session;

fn fixture() -> &'static Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(mondial(42, 1)))
}

/// A discovery config that is deterministic under test: chaos comes only
/// from the explicit `faults` argument.
fn config(threads: usize, faults: Option<FaultSpec>) -> DiscoveryConfig {
    DiscoveryConfig {
        validation_threads: threads,
        faults,
        // The demo's result cap truncates the ranked list, which would
        // break subset comparisons (a chaos run that loses a top query
        // backfills past the clean run's cutoff). Lift it: soundness is
        // about the full accept set.
        result_limit: usize::MAX,
        ..DiscoveryConfig::default()
    }
}

fn walkthrough_grid(session: &mut SessionHandle) {
    session
        .set_sample_cell(0, 0, "California || Nevada")
        .unwrap();
    session.set_sample_cell(0, 1, "Lake Tahoe").unwrap();
    session
        .set_metadata_cell(2, "DataType=='decimal' AND MinValue>='0'")
        .unwrap();
}

/// One session on a fresh service, so every run starts from empty caches.
fn open_session(config: SessionConfig) -> SessionHandle {
    DiscoveryService::new(Arc::clone(fixture()), config.discovery.clone()).open_session(config)
}

fn run_walkthrough(config: DiscoveryConfig) -> DiscoveryResult {
    let mut session = open_session(SessionConfig {
        discovery: config,
        ..SessionConfig::default()
    });
    walkthrough_grid(&mut session);
    session.start_searching().unwrap().clone()
}

/// Injected chaos fires in validation slots, never in the round
/// coordinator: the service reports a coordinator panic as an empty
/// degraded round, which would pass every subset check.
fn assert_no_coordinator_fault(result: &DiscoveryResult) {
    assert!(
        result
            .fault_reports
            .iter()
            .all(|r| r.filter_sql != "(round coordinator)"),
        "the round coordinator panicked: {:?}",
        result.fault_reports
    );
}

fn keys(result: &DiscoveryResult) -> Vec<String> {
    let mut k: Vec<String> = result.queries.iter().map(|q| q.key.clone()).collect();
    k.sort();
    k
}

/// Fault-free sequential reference for the walkthrough task.
fn baseline() -> &'static Vec<String> {
    static BASE: OnceLock<Vec<String>> = OnceLock::new();
    BASE.get_or_init(|| {
        let result = run_walkthrough(config(1, None));
        assert!(!result.degraded, "{:?}", result.fault_reports);
        assert!(!result.queries.is_empty(), "walkthrough finds queries");
        keys(&result)
    })
}

fn is_subset(sub: &[String], sup: &[String]) -> bool {
    sub.iter().all(|k| sup.binary_search(k).is_ok())
}

#[test]
fn fault_free_runs_are_bit_identical_across_threads() {
    for threads in [1usize, 2, 4] {
        let result = run_walkthrough(config(threads, None));
        assert_eq!(
            &keys(&result),
            baseline(),
            "clean run diverged at {threads} threads"
        );
        assert!(!result.degraded);
        assert!(result.fault_reports.is_empty());
        assert!(result.degradation_notice().is_none());
        assert_eq!(result.stats.faults_injected, 0);
    }
}

#[test]
fn injected_panics_degrade_to_a_sound_subset() {
    let spec = FaultSpec::parse("panic:1.0:seed42").unwrap();
    for threads in [1usize, 2, 4] {
        let result = run_walkthrough(config(threads, Some(spec.clone())));
        // Every validation slot panics, so nothing can be accepted — but
        // the round completes and explains itself.
        assert!(
            result.queries.is_empty(),
            "all-faulting run accepted queries at {threads} threads"
        );
        assert!(result.degraded);
        assert!(result.stats.faults_injected > 0);
        assert!(!result.fault_reports.is_empty());
        for report in &result.fault_reports {
            assert!(
                report.filter_sql.starts_with("SELECT"),
                "fault report names the filter query: {:?}",
                report.filter_sql
            );
            assert!(
                report.reason.contains("injected fault"),
                "contained panic message survives: {:?}",
                report.reason
            );
        }
        let notice = result.degradation_notice().expect("degraded => notice");
        assert!(notice.contains("partial results"));
    }
}

#[test]
fn partial_panic_chaos_is_sound_and_reproducible() {
    // A partial rate: some filters fault, the rest validate normally.
    let spec = FaultSpec::parse("panic:0.3:seed7").unwrap();
    for threads in [1usize, 2, 4] {
        let run = || run_walkthrough(config(threads, Some(spec.clone())));
        let result = run();
        assert_no_coordinator_fault(&result);
        assert!(
            is_subset(&keys(&result), baseline()),
            "chaos run accepted a query the clean run does not ({threads} threads)"
        );
        assert_eq!(result.degraded, !result.fault_reports.is_empty());
        // Same spec, same task, same thread count → bit-identical rerun:
        // injection decisions are a pure function of (seed, token).
        let again = run();
        assert_eq!(keys(&result), keys(&again));
        assert_eq!(result.stats.faults_injected, again.stats.faults_injected);
        assert_eq!(result.fault_reports.len(), again.fault_reports.len());
    }
}

#[test]
fn delay_faults_never_change_results() {
    let spec = FaultSpec::parse("delay:1.0:seed3").unwrap();
    for threads in [1usize, 4] {
        let result = run_walkthrough(config(threads, Some(spec.clone())));
        assert_eq!(&keys(&result), baseline());
        assert!(!result.degraded);
        assert!(result.fault_reports.is_empty());
        assert!(result.stats.faults_injected > 0, "delays did fire");
    }
}

#[test]
fn chaotic_session_cannot_poison_siblings() {
    let svc = DiscoveryService::new(Arc::clone(fixture()), config(4, None));
    let chaos = FaultSpec::parse("panic:1.0:seed7").unwrap();
    let configs = [config(4, Some(chaos)), config(4, None), config(4, None)];
    let results: Vec<DiscoveryResult> = std::thread::scope(|scope| {
        let joins: Vec<_> = configs
            .iter()
            .map(|c| {
                let mut session = svc.open_session(SessionConfig {
                    discovery: c.clone(),
                    ..SessionConfig::default()
                });
                walkthrough_grid(&mut session);
                scope.spawn(move || {
                    session.start_searching().unwrap();
                    session.result().expect("round ran").clone()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    assert_eq!(svc.rounds_run(), 3);
    // The chaotic session degrades in isolation…
    assert!(results[0].degraded);
    assert_no_coordinator_fault(&results[0]);
    assert!(results[0].queries.is_empty());
    assert!(!results[0].fault_reports.is_empty());
    // …while its siblings are oracle-identical and clean.
    for (i, sibling) in results[1..].iter().enumerate() {
        assert_eq!(
            &keys(sibling),
            baseline(),
            "sibling {} was poisoned by the chaotic session",
            i + 1
        );
        assert!(!sibling.degraded);
        assert_eq!(sibling.stats.faults_injected, 0);
    }
}

#[test]
fn near_zero_deadline_returns_promptly() {
    // Regression for the deadline blind spot: a round whose budget expires
    // mid-scan must abort cooperatively (executor step ticks), not finish
    // the scan. With a ~zero budget the round returns almost immediately,
    // reports the timeout, and anything it did return is still validated.
    for threads in [1usize, 4] {
        let cfg = DiscoveryConfig {
            time_budget: Duration::from_millis(1),
            ..config(threads, None)
        };
        let start = Instant::now();
        let result = run_walkthrough(cfg);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "near-zero deadline took {elapsed:?} at {threads} threads"
        );
        assert!(result.timed_out, "a 1ms budget must report a timeout");
        let ks = keys(&result);
        let extra: Vec<&String> = ks
            .iter()
            .filter(|k| baseline().binary_search(k).is_err())
            .collect();
        assert!(
            extra.is_empty(),
            "timed-out run at {threads} threads accepted unvalidated queries: {extra:?}"
        );
    }
}

/// A slot that overruns the round deadline makes the round time out, not
/// degrade: workers stop taking slots once the deadline has passed, and a
/// verdict that finishes late still counts. `@slow` accepts every value,
/// but the first time each pool worker calls it, it sleeps four times the
/// round's 100 ms budget; the calling thread, where related-column search
/// evaluates it, never sleeps. The round's keys must be a subset of the
/// same task's keys when nothing sleeps.
#[test]
fn overrunning_slot_times_out_without_degrading() {
    let caller = std::thread::current().id();
    let run = |threads: usize, budget: Duration, sleep: Duration| {
        let mut udfs = UdfRegistry::new();
        udfs.register_value("slow", move |_| {
            thread_local!(static SLEPT: Cell<bool> = const { Cell::new(false) });
            if std::thread::current().id() != caller && !SLEPT.with(|s| s.replace(true)) {
                std::thread::sleep(sleep);
            }
            true
        });
        let config = DiscoveryConfig {
            time_budget: budget,
            ..config(threads, None)
        };
        let svc = DiscoveryService::new(Arc::clone(fixture()), config.clone());
        let samples = [vec![
            Some("Lake Tahoe".to_string()),
            Some("@slow".to_string()),
        ]];
        let mut session = task_session(&svc, 2, &samples, &[None, None], config);
        session.set_udfs(udfs);
        session.start_searching().unwrap().clone()
    };
    for threads in [2usize, 4] {
        let full = run(threads, Duration::from_secs(60), Duration::ZERO);
        assert!(!full.timed_out && !full.degraded, "{threads} threads");
        assert!(!full.queries.is_empty(), "{threads} threads");
        let cut = run(
            threads,
            Duration::from_millis(100),
            Duration::from_millis(400),
        );
        assert_no_coordinator_fault(&cut);
        assert!(cut.timed_out, "{threads} threads");
        assert!(!cut.degraded, "{threads} threads: {:?}", cut.fault_reports);
        assert!(cut.fault_reports.is_empty(), "{threads} threads");
        assert!(
            is_subset(&keys(&cut), &keys(&full)),
            "the overrun round at {threads} threads accepted a query the full round does not"
        );
    }
}

/// A low-rate seeded chaos smoke at 4 threads: it sweeps generated mapping
/// tasks until the injector demonstrably fires (site tokens are filter
/// indices, so larger tasks reach deeper into the seeded fault stream),
/// asserting every chaotic accept set stays a subset of its own fault-free
/// baseline.
#[test]
fn env_chaos_smoke_injects_and_stays_sound() {
    let chaos = FaultSpec::parse("panic:0.02:seed7").unwrap();
    let taskgen = TaskGenerator::new(fixture(), TaskGenConfig::default());
    let mut injected_total = 0u64;
    'outer: for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for resolution in [
            Resolution::Exact,
            Resolution::Disjunction,
            Resolution::Range,
            Resolution::Metadata,
        ] {
            for task in taskgen.generate_many(resolution, 1, &mut rng) {
                let chaotic = run_task(&task, config(4, Some(chaos.clone())));
                let clean = run_task(&task, config(4, None));
                assert!(!clean.degraded, "{:?}", clean.fault_reports);
                assert_no_coordinator_fault(&chaotic);
                assert!(
                    is_subset(&keys(&chaotic), &keys(&clean)),
                    "chaos accepted a query the clean run does not ({resolution:?}/{seed})"
                );
                assert_eq!(chaotic.degraded, !chaotic.fault_reports.is_empty());
                injected_total += chaotic.stats.faults_injected;
                if injected_total > 0 && seed >= 4 {
                    break 'outer;
                }
            }
        }
    }
    assert!(
        injected_total > 0,
        "chaos is armed but no fault ever fired across the sweep"
    );
}

fn run_task(task: &MappingTask, config: DiscoveryConfig) -> DiscoveryResult {
    let svc = DiscoveryService::new(Arc::clone(fixture()), config.clone());
    task_session(
        &svc,
        task.column_count,
        &task.samples,
        &task.metadata,
        config,
    )
    .start_searching()
    .unwrap()
    .clone()
}
