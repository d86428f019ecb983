//! Discovery against a brute-force reference, across one in-process
//! configuration matrix.
//!
//! The reference takes related-column search and candidate enumeration as
//! given. It accepts a candidate iff, for every sample row, some row of the
//! candidate's PJ query satisfies all of that sample's constrained cells
//! (`prism_lang::matches_value_with`), evaluating the query by nested loops
//! over materialized rows (`prism_db`'s `tests/support/nested_loop.rs`). It
//! uses no filter, scheduler, plan, index, zone map or cache.
//!
//! The matrix crosses four two-valued axes: rows per zone-map block (64,
//! 1024), validation threads (1, 4), fault injection (none,
//! `panic:0.02:seed7`) and result limit (small, unbounded). Its five cells
//! cover every pair of axis values. Each runs every task: taskgen tasks at
//! all five resolutions, with one, two and three sample rows, on Mondial,
//! IMDB and NBA, plus the Table 1 walk-through. Every dataset is rendered
//! as CSV and ingested again at both block sizes, so both see the same
//! inferred column types. Every table fits in one 1,024-row block, so only
//! the 64-row databases show discovery multi-block zone maps.
//!
//! What a round owes the reference:
//! - fault-free and unbounded: exactly its accept set, neither degraded nor
//!   timed out. Every scheduler runs in the fault-free cells.
//! - under chaos: a subset of it (a degraded round is a sound partial
//!   answer), degraded iff it reports a fault.
//! - capped at k: the first k of the same configuration's unbounded list,
//!   or a subset of that list under chaos. A capped chaos round that
//!   reports no fault decided everything its list needs on ground truth,
//!   so it is the first k of the fault-free unbounded list.

#[path = "../../db/tests/support/nested_loop.rs"]
mod nested_loop;
#[path = "support/small_task.rs"]
mod small_task;
#[path = "support/task_session.rs"]
mod task_session;

use nested_loop::{for_each_match, SlotPred};
use prism_core::candidates::enumerate_candidates;
use prism_core::related::find_related;
use prism_core::{
    DiscoveryConfig, DiscoveryResult, DiscoveryService, FaultSpec, SchedulerKind, TargetConstraints,
};
use prism_datasets::{imdb, mondial, nba, Resolution};
use prism_db::schema::ColumnRef;
use prism_db::types::Value;
use prism_db::{canonical_key, Database, DatabaseBuilder, PjQuery};
use prism_lang::matches_value_with;
use rand::rngs::StdRng;
use rand::SeedableRng;
use small_task::{small_task, Task};
use std::sync::Arc;
use task_session::task_session;

const BLOCK_ROWS: [usize; 2] = [64, 1024];
const THREADS: [usize; 2] = [1, 4];
const CHAOS: [Option<&str>; 2] = [None, Some("panic:0.02:seed7")];
/// The small result limit, below most tasks' accept-set sizes.
const SMALL_LIMIT: usize = 3;
const LIMITS: [usize; 2] = [SMALL_LIMIT, usize::MAX];

/// One value index per axis: block rows, threads, chaos, result limit.
/// These five cells cover every pair of values of the four axes.
const CELLS: [[usize; 4]; 5] = [
    [0, 0, 0, 0],
    [0, 1, 1, 1],
    [1, 0, 1, 1],
    [1, 1, 0, 1],
    [1, 1, 1, 0],
];

const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Naive,
    SchedulerKind::PathLength,
    SchedulerKind::Bayes,
    SchedulerKind::Oracle,
];

/// A taskgen draw is kept only with at most this many candidates, which
/// bounds the reference's nested loops.
const MAX_CANDIDATES: usize = 800;

/// The fault report's filter of a round whose coordinator panicked. The
/// service returns such a round as an empty degraded result, which would
/// pass every subset check.
const COORDINATOR: &str = "(round coordinator)";

/// The Table 1 walk-through of the paper.
fn walkthrough() -> Task {
    let some = |s: &str| Some(s.to_string());
    Task {
        label: "walk-through".to_string(),
        column_count: 3,
        samples: vec![vec![some("California || Nevada"), some("Lake Tahoe"), None]],
        metadata: vec![None, None, some("DataType=='decimal' AND MinValue>='0'")],
        truth: "T[Lake,geo_lake] J[Lake.Name=geo_lake.Lake] \
                P[geo_lake.Province,Lake.Name,Lake.Area]"
            .to_string(),
    }
}

/// `db` rendered as CSV and ingested again, foreign keys included, at
/// `block_rows` rows per block.
fn reingest(db: &Database, block_rows: usize) -> Database {
    let catalog = db.catalog();
    let mut b = DatabaseBuilder::new(db.name()).with_block_rows(block_rows);
    for (tid, schema) in catalog.tables() {
        let header: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        let mut text = header.join(",");
        text.push('\n');
        for row in 0..db.row_count(tid) as u32 {
            for c in 0..schema.arity() as u32 {
                if c > 0 {
                    text.push(',');
                }
                match db.value(ColumnRef::new(tid, c), row) {
                    Value::Null => {}
                    Value::Text(s) if s.contains([',', '"', '\n', '\r']) || s.trim() != s => {
                        text.push('"');
                        text.push_str(&s.replace('"', "\"\""));
                        text.push('"');
                    }
                    v => text.push_str(&v.to_string()),
                }
            }
            text.push('\n');
        }
        b.add_table_from_csv(schema.name.as_str(), &text)
            .expect("rendered CSV ingests");
    }
    for fk in catalog.foreign_keys() {
        let name = |c: ColumnRef| {
            let t = catalog.table(c.table);
            (t.name.as_str(), t.column(c.column).name.as_str())
        };
        let ((ft, fc), (tt, tc)) = (name(fk.from), name(fk.to));
        b.add_foreign_key(ft, fc, tt, tc)
            .expect("foreign key columns exist");
    }
    b.build()
}

/// Every table's rows, indexed by table id.
type Rows = Vec<Vec<Vec<Value>>>;

fn materialize(db: &Database) -> Rows {
    db.catalog()
        .tables()
        .map(|(tid, schema)| {
            (0..db.row_count(tid) as u32)
                .map(|row| {
                    (0..schema.arity() as u32)
                        .map(|c| db.value(ColumnRef::new(tid, c), row))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Does some row of `q` satisfy every constrained cell of each sample?
fn reference_accepts(rows: &Rows, q: &PjQuery, tc: &TargetConstraints) -> bool {
    let tables: Vec<&[Vec<Value>]> = q
        .nodes
        .iter()
        .map(|t| rows[t.0 as usize].as_slice())
        .collect();
    tc.samples.iter().all(|sample| {
        let tests: Vec<SlotPred<'_>> = sample
            .cells()
            .iter()
            .map(|c| -> SlotPred<'_> {
                let c = c.as_ref()?;
                Some(Box::new(move |v: &Value| {
                    matches_value_with(c, v, &tc.udfs)
                }))
            })
            .collect();
        // Stop at the first witness.
        for_each_match(&tables, q, &tests, &mut |_| false)
    })
}

/// A task with its reference accept set, which must hold the task's truth.
struct Reference {
    task: Task,
    keys: Vec<String>,
}

fn reference(db: &Database, rows: &Rows, task: Task) -> Reference {
    let tc = task.constraints();
    let config = DiscoveryConfig::default();
    let related = find_related(db, &tc, &config);
    let cands = enumerate_candidates(db, &related, &config, None);
    assert!(!cands.truncated, "{}", task.label);
    let mut keys: Vec<String> = cands
        .candidates
        .iter()
        .filter(|c| reference_accepts(rows, &c.query, &tc))
        .map(|c| canonical_key(&c.query, db))
        .collect();
    keys.sort();
    assert!(
        keys.binary_search(&task.truth).is_ok(),
        "{}: the reference rejects the task's own query {}",
        task.label,
        task.truth
    );
    Reference { task, keys }
}

/// Three taskgen tasks per resolution, with one, two and three sample
/// rows, drawn in turn from one seeded stream per resolution.
fn references(db: &Database, rows: &Rows) -> Vec<Reference> {
    let mut out = Vec::new();
    for (r, resolution) in Resolution::ALL.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(r as u64);
        for sample_rows in 1..=3 {
            let task = small_task(db, resolution, sample_rows, MAX_CANDIDATES, &mut rng);
            out.push(reference(db, rows, task));
        }
    }
    out
}

fn run(svc: &DiscoveryService, task: &Task, discovery: DiscoveryConfig) -> DiscoveryResult {
    task_session(
        svc,
        task.column_count,
        &task.samples,
        &task.metadata,
        discovery,
    )
    .start_searching()
    .unwrap()
    .clone()
}

fn ranked(result: &DiscoveryResult) -> Vec<String> {
    result.queries.iter().map(|q| q.key.clone()).collect()
}

fn sorted(result: &DiscoveryResult) -> Vec<String> {
    let mut keys = ranked(result);
    keys.sort();
    keys
}

fn is_subset(sub: &[String], sup: &[String]) -> bool {
    sub.iter().all(|k| sup.binary_search(k).is_ok())
}

/// What every round owes: no coordinator panic, no timeout, and a
/// degraded flag set exactly when a fault is reported, which only chaos
/// may cause.
fn check_health(result: &DiscoveryResult, chaos: bool, at: &str) {
    assert!(
        result
            .fault_reports
            .iter()
            .all(|r| r.filter_sql != COORDINATOR),
        "{at}: the round coordinator panicked: {:?}",
        result.fault_reports
    );
    assert!(!result.timed_out, "{at}: timed out");
    assert_eq!(
        result.degraded,
        !result.fault_reports.is_empty(),
        "{at}: degraded without a fault report, or the reverse"
    );
    assert!(
        chaos || !result.degraded,
        "{at}: {:?}",
        result.fault_reports
    );
}

/// What the matrix saw, for its non-vacuity checks.
#[derive(Default)]
struct Tally {
    /// Blocks the executor skipped in the one-thread 64-row cell. Pool
    /// workers run shared plans in OS order, so a four-thread cell's
    /// execution counters differ between runs.
    blocks_skipped_64: u64,
    /// Chaos rounds that injected a fault and degraded.
    degraded_by_chaos: usize,
    /// Fault-free capped rounds whose unbounded list was longer than k.
    cut_by_limit: usize,
    /// Capped chaos rounds that reported no fault.
    clean_capped_chaos: usize,
    /// Rounds run.
    rounds: usize,
}

impl Tally {
    fn count(&mut self, result: &DiscoveryResult, cell: [usize; 4]) {
        self.rounds += 1;
        if cell == CELLS[0] {
            self.blocks_skipped_64 += result.stats.exec.blocks_skipped;
        }
        self.degraded_by_chaos += usize::from(result.stats.faults_injected > 0 && result.degraded);
    }
}

/// Runs every cell on one task and checks each round. A capped cell also
/// runs its configuration unbounded, to compare the two lists.
fn check_task(svcs: &[DiscoveryService; 2], reference: &Reference, tally: &mut Tally) {
    for [b, t, c, l] in CELLS {
        let chaos = CHAOS[c].map(|s| FaultSpec::parse(s).unwrap());
        let schedulers: &[SchedulerKind] = match chaos {
            Some(_) => &[SchedulerKind::Bayes],
            None => &SCHEDULERS,
        };
        for &scheduler in schedulers {
            let at = format!(
                "{}: {} rows per block, {} thread(s), faults {:?}, {scheduler:?}",
                reference.task.label, BLOCK_ROWS[b], THREADS[t], CHAOS[c]
            );
            let unbounded = DiscoveryConfig {
                scheduler,
                validation_threads: THREADS[t],
                faults: chaos.clone(),
                result_limit: usize::MAX,
                ..DiscoveryConfig::default()
            };
            let full = run(&svcs[b], &reference.task, unbounded.clone());
            check_health(&full, chaos.is_some(), &at);
            if chaos.is_some() {
                assert!(
                    is_subset(&sorted(&full), &reference.keys),
                    "{at}: accepted a key the reference rejects"
                );
            } else {
                assert_eq!(sorted(&full), reference.keys, "{at}: not the reference");
            }
            tally.count(&full, [b, t, c, l]);
            let k = LIMITS[l];
            if k == usize::MAX {
                continue;
            }
            let at = format!("{at}, limit {k}");
            let capped = run(
                &svcs[b],
                &reference.task,
                DiscoveryConfig {
                    result_limit: k,
                    ..unbounded.clone()
                },
            );
            check_health(&capped, chaos.is_some(), &at);
            if chaos.is_some() {
                assert!(
                    is_subset(&sorted(&capped), &sorted(&full)),
                    "{at}: not a subset of the unbounded list"
                );
                if capped.fault_reports.is_empty() {
                    let clean = DiscoveryConfig {
                        faults: None,
                        ..unbounded
                    };
                    let head: Vec<String> = ranked(&run(&svcs[b], &reference.task, clean))
                        .into_iter()
                        .take(k)
                        .collect();
                    assert_eq!(
                        ranked(&capped),
                        head,
                        "{at}: reports no fault, but is not the fault-free unbounded head"
                    );
                    tally.clean_capped_chaos += 1;
                }
            } else {
                let head: Vec<String> = ranked(&full).into_iter().take(k).collect();
                assert_eq!(ranked(&capped), head, "{at}: not the unbounded list's head");
                tally.cut_by_limit += usize::from(full.queries.len() > k);
            }
            tally.count(&capped, [b, t, c, l]);
        }
    }
}

#[test]
fn discovery_matches_the_reference_in_every_cell() {
    // The cells must meet every pair of values of every two axes.
    for a in 0..4 {
        for b in a + 1..4 {
            for (va, vb) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                assert!(
                    CELLS.iter().any(|c| c[a] == va && c[b] == vb),
                    "axes {a} and {b} never meet at values {va} and {vb}"
                );
            }
        }
    }
    let generated = [mondial(42, 1), imdb(42, 1), nba(42, 1)];
    let mut tally = Tally::default();
    for (d, db) in generated.iter().enumerate() {
        let [small, large] = BLOCK_ROWS.map(|b| reingest(db, b));
        let rows = materialize(&large);
        let mut refs = references(&large, &rows);
        if d == 0 {
            refs.push(reference(&large, &rows, walkthrough()));
        }
        // One service per block size, so each keeps a warm plan cache and
        // one trained estimator across every cell and task.
        let svcs = [small, large].map(|db| {
            DiscoveryService::new(
                Arc::new(db),
                DiscoveryConfig {
                    validation_threads: 4,
                    ..DiscoveryConfig::default()
                },
            )
        });
        let skipped_before = tally.blocks_skipped_64;
        for r in &refs {
            check_task(&svcs, r, &mut tally);
        }
        assert!(
            tally.blocks_skipped_64 > skipped_before,
            "zone maps skipped no block of {} at 64 rows per block and one thread",
            db.name()
        );
    }
    assert!(
        tally.degraded_by_chaos > 0,
        "no chaos round injected a fault and degraded"
    );
    assert!(tally.cut_by_limit > 0, "the small limit never cut a list");
    assert!(
        tally.clean_capped_chaos > 0,
        "every capped chaos round reported a fault"
    );
    eprintln!(
        "{} rounds; {} blocks skipped at 64 rows and one thread; {} chaos rounds degraded; \
         {} lists cut; {} capped chaos rounds without a fault",
        tally.rounds,
        tally.blocks_skipped_64,
        tally.degraded_by_chaos,
        tally.cut_by_limit,
        tally.clean_capped_chaos
    );
}
