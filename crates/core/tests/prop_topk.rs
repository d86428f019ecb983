//! Top-k rounds against full classification.
//!
//! A round at result limit k decides only the candidates its list depends
//! on: the scheduler retires candidates that k accepted ones outrank, and
//! the round enumerates and schedules one join-tree size (tier) at a time.
//! It must still return the first k queries of the same round at an
//! unbounded limit, key for key and in order, and the unbounded round
//! must find the task's own query. The corpus crosses Mondial,
//! IMDB and NBA at scale 1 with taskgen tasks of one, two and three sample
//! rows, two resolutions each; the rounds cross every scheduler, one and
//! four validation threads, and limits 1, 3 and 64. Fault injection is
//! `prop_matrix`'s axis.
//!
//! A second test sweeps each capped round's deadline from nothing to twice
//! its run time, so that some deadlines fall between tier passes: a round
//! returns the unbounded head, or reports a timeout and returns only
//! queries of the unbounded list, and never degrades.
//!
//! A third test pins the work the default cap saves on that corpus with
//! deterministic counters, the way CI pins perfbench's pick counters:
//! perfbench's traced pass classifies every candidate, so it cannot see
//! this saving.

#[path = "support/small_task.rs"]
mod small_task;
#[path = "support/task_session.rs"]
mod task_session;

use prism_core::{
    DiscoveredQuery, DiscoveryConfig, DiscoveryResult, DiscoveryService, SchedulerKind,
};
use prism_datasets::{imdb, mondial, nba, Resolution};
use prism_db::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use small_task::{small_task, Task};
use std::sync::Arc;
use task_session::task_session;

const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Naive,
    SchedulerKind::PathLength,
    SchedulerKind::Bayes,
    SchedulerKind::Oracle,
];
const THREADS: [usize; 2] = [1, 4];
const LIMITS: [usize; 3] = [1, 3, 64];

/// A taskgen draw is kept only with at most this many candidates, which
/// bounds the Oracle's full classification in a debug build.
const MAX_CANDIDATES: usize = 600;

/// Per sample-row count, two resolutions in turn from one seeded stream
/// per database.
fn tasks(db: &Database, d: usize) -> Vec<Task> {
    let mut rng = StdRng::seed_from_u64(d as u64);
    let mut out = Vec::new();
    for sample_rows in 1..=3 {
        for r in 0..2 {
            let resolution = Resolution::ALL[(d + 2 * sample_rows + r) % Resolution::ALL.len()];
            out.push(small_task(
                db,
                resolution,
                sample_rows,
                MAX_CANDIDATES,
                &mut rng,
            ));
        }
    }
    out
}

/// The corpus: each database with its tasks.
fn corpus() -> Vec<(Arc<Database>, Vec<Task>)> {
    [mondial(42, 1), imdb(42, 1), nba(42, 1)]
        .into_iter()
        .enumerate()
        .map(|(d, db)| {
            let tasks = tasks(&db, d);
            (Arc::new(db), tasks)
        })
        .collect()
}

/// A fresh service on `db` whose thread budget grants four threads.
fn service(db: &Arc<Database>) -> DiscoveryService {
    let config = DiscoveryConfig {
        validation_threads: 4,
        ..DiscoveryConfig::default()
    };
    DiscoveryService::new(Arc::clone(db), config)
}

/// One round that must not be degraded: no validation faults here.
fn round(
    svc: &DiscoveryService,
    task: &Task,
    config: DiscoveryConfig,
    at: &str,
) -> DiscoveryResult {
    let result = task_session(
        svc,
        task.column_count,
        &task.samples,
        &task.metadata,
        config,
    )
    .start_searching()
    .unwrap()
    .clone();
    assert!(!result.degraded, "{at}: {:?}", result.fault_reports);
    result
}

/// One round that must be neither degraded nor timed out.
fn run(svc: &DiscoveryService, task: &Task, config: DiscoveryConfig, at: &str) -> DiscoveryResult {
    let result = round(svc, task, config, at);
    assert!(!result.timed_out, "{at}: timed out");
    result
}

fn keys(queries: &[DiscoveredQuery]) -> Vec<&str> {
    queries.iter().map(|q| q.key.as_str()).collect()
}

#[test]
fn capped_rounds_return_the_unbounded_head() {
    let (mut skipped_a_tier, mut cut_inside_a_tier, mut cut_inside_a_tie) = (0, 0, 0);
    for (db, tasks) in corpus() {
        let svc = service(&db);
        for task in &tasks {
            for scheduler in SCHEDULERS {
                for threads in THREADS {
                    let at = format!("{}, {scheduler:?}, {threads} thread(s)", task.label);
                    let unbounded = DiscoveryConfig {
                        scheduler,
                        validation_threads: threads,
                        result_limit: usize::MAX,
                        ..DiscoveryConfig::default()
                    };
                    let full = run(&svc, task, unbounded.clone(), &at);
                    assert!(keys(&full.queries).contains(&task.truth.as_str()), "{at}");
                    for k in LIMITS {
                        let at = format!("{at}, limit {k}");
                        let capped = run(
                            &svc,
                            task,
                            DiscoveryConfig {
                                result_limit: k,
                                ..unbounded.clone()
                            },
                            &at,
                        );
                        let head = &full.queries[..k.min(full.queries.len())];
                        assert_eq!(keys(&capped.queries), keys(head), "{at}");
                        let (c, f) = (&capped.stats, &full.stats);
                        skipped_a_tier += usize::from(c.candidates < f.candidates);
                        cut_inside_a_tier += usize::from(
                            c.candidates == f.candidates && c.validations < f.validations,
                        );
                        if k < full.queries.len() {
                            let key = |q: &DiscoveredQuery| {
                                (q.candidate.query.join_count(), q.estimated_rows)
                            };
                            cut_inside_a_tie +=
                                usize::from(key(&full.queries[k - 1]) == key(&full.queries[k]));
                        }
                    }
                }
            }
        }
    }
    eprintln!(
        "{skipped_a_tier} capped rounds skipped a tier, {cut_inside_a_tier} cut inside a tier, \
         {cut_inside_a_tie} cut inside a tie"
    );
    assert!(skipped_a_tier > 0, "no capped round skipped a tier");
    assert!(cut_inside_a_tier > 0, "no capped round cut inside a tier");
    assert!(cut_inside_a_tie > 0, "no cap fell inside a rank-key tie");
}

/// A capped round that its deadline interrupts anywhere, between tier
/// passes too, still returns a sound part of its answer and says so. Each
/// budget from nothing to twice the round's own run time yields the
/// unbounded head exactly, or reports a timeout with every query in the
/// unbounded list.
#[test]
fn capped_rounds_under_a_deadline_stay_sound() {
    const STEPS: u32 = 16;
    let (mut timed_out, mut complete) = (0, 0);
    for (db, tasks) in corpus() {
        let svc = service(&db);
        for task in &tasks {
            for threads in THREADS {
                let unbounded = DiscoveryConfig {
                    validation_threads: threads,
                    result_limit: usize::MAX,
                    ..DiscoveryConfig::default()
                };
                let full = run(&svc, task, unbounded.clone(), &task.label);
                for k in [1, 3] {
                    let at = format!("{}, {threads} thread(s), limit {k}", task.label);
                    let capped = DiscoveryConfig {
                        result_limit: k,
                        ..unbounded.clone()
                    };
                    let span = run(&svc, task, capped.clone(), &at).stats.elapsed * 2;
                    let head = &full.queries[..k.min(full.queries.len())];
                    for step in 0..=STEPS {
                        let time_budget = span * step / STEPS;
                        let at = format!("{at}, budget {time_budget:?}");
                        let config = DiscoveryConfig {
                            time_budget,
                            ..capped.clone()
                        };
                        let got = round(&svc, task, config, &at);
                        if got.timed_out {
                            let all = keys(&full.queries);
                            assert!(keys(&got.queries).iter().all(|q| all.contains(q)), "{at}");
                            timed_out += 1;
                        } else {
                            assert_eq!(keys(&got.queries), keys(head), "{at}");
                            complete += 1;
                        }
                    }
                }
            }
        }
    }
    eprintln!("{timed_out} rounds timed out, {complete} completed");
    assert!(timed_out > 0, "no budget interrupted a round");
}

/// Summed work of one pass over the corpus.
#[derive(Debug, Default, PartialEq, Eq)]
struct Work {
    candidates: usize,
    filters: usize,
    validations: u64,
    rows_examined: u64,
}

/// One Bayes pass at one validation thread over the corpus, each database
/// on a fresh service, so that shared plans adapt from these rounds alone.
fn work(result_limit: usize) -> Work {
    let mut sum = Work::default();
    for (db, tasks) in corpus() {
        let svc = service(&db);
        for task in &tasks {
            let config = DiscoveryConfig {
                result_limit,
                validation_threads: 1,
                ..DiscoveryConfig::default()
            };
            let stats = run(&svc, task, config, &task.label).stats;
            sum.candidates += stats.candidates;
            sum.filters += stats.filters;
            sum.validations += stats.validations;
            sum.rows_examined += stats.exec.rows_examined;
        }
    }
    sum
}

/// The default cap's saving, pinned exactly. A change that moves these
/// counters updates them and says why.
#[test]
fn capped_work_counters_are_pinned() {
    let capped = work(DiscoveryConfig::default().result_limit);
    let unbounded = work(usize::MAX);
    eprintln!("capped {capped:?}, unbounded {unbounded:?}");
    assert!(capped.candidates < unbounded.candidates);
    assert!(capped.filters < unbounded.filters);
    assert!(capped.validations < unbounded.validations);
    assert!(capped.rows_examined < unbounded.rows_examined);
    let pinned = |candidates, filters, validations, rows_examined| Work {
        candidates,
        filters,
        validations,
        rows_examined,
    };
    assert_eq!(capped, pinned(1_938, 6_706, 1_908, 104_529), "capped");
    assert_eq!(unbounded, pinned(2_100, 7_456, 2_433, 123_793), "unbounded");
}
