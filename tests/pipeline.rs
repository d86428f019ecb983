//! Cross-database pipeline tests: synthesized tasks at every resolution on
//! all three demo databases must rediscover their ground-truth queries
//! (Figure 2's architecture, end to end).

use prism::core::{DiscoveryConfig, DiscoveryResult, DiscoveryService, TargetConstraints};
use prism::datasets::{imdb, mondial, nba, MappingTask, Resolution, TaskGenConfig, TaskGenerator};
use prism::db::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn engine_config() -> DiscoveryConfig {
    DiscoveryConfig {
        result_limit: 100_000,
        ..DiscoveryConfig::default()
    }
}

/// One fault-free round on `task`: the service contains a coordinator
/// panic as an empty degraded result, which must fail these tests.
fn run_task(svc: &DiscoveryService, task: &MappingTask) -> DiscoveryResult {
    let constraints =
        TargetConstraints::parse(task.column_count, &task.samples, &task.metadata).unwrap();
    let result = svc.run(&constraints);
    assert!(!result.degraded, "{:?}", result.fault_reports);
    result
}

fn run_tasks(db: &Arc<Database>, resolution: Resolution, n: usize, seed: u64) -> (usize, usize) {
    let svc = DiscoveryService::new(Arc::clone(db), engine_config());
    let taskgen = TaskGenerator::new(db, TaskGenConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = taskgen.generate_many(resolution, n, &mut rng);
    assert!(!tasks.is_empty(), "task generation failed on {}", db.name());
    let mut found = 0;
    for task in &tasks {
        let result = run_task(&svc, task);
        assert!(!result.timed_out, "timeout on {}", db.name());
        if result.queries.iter().any(|q| q.key == task.truth_key) {
            found += 1;
        }
    }
    (found, tasks.len())
}

#[test]
fn mondial_exact_tasks_rediscover_ground_truth() {
    let db = Arc::new(mondial(42, 1));
    let (found, total) = run_tasks(&db, Resolution::Exact, 6, 1);
    assert_eq!(found, total, "exact constraints must always find the truth");
}

#[test]
fn mondial_loose_tasks_still_find_ground_truth() {
    let db = Arc::new(mondial(42, 1));
    for resolution in [
        Resolution::Disjunction,
        Resolution::Range,
        Resolution::Metadata,
    ] {
        let (found, total) = run_tasks(&db, resolution, 5, 2);
        assert_eq!(
            found, total,
            "{resolution:?}: loosening constraints must not lose the truth \
             (the true query still satisfies looser constraints)"
        );
    }
}

#[test]
fn imdb_tasks_rediscover_ground_truth() {
    let db = Arc::new(imdb(42, 1));
    for resolution in [Resolution::Exact, Resolution::Range] {
        let (found, total) = run_tasks(&db, resolution, 5, 3);
        assert_eq!(found, total, "{resolution:?} on IMDB");
    }
}

#[test]
fn nba_tasks_rediscover_ground_truth() {
    let db = Arc::new(nba(42, 1));
    for resolution in [Resolution::Exact, Resolution::Disjunction] {
        let (found, total) = run_tasks(&db, resolution, 5, 4);
        assert_eq!(found, total, "{resolution:?} on NBA");
    }
}

#[test]
fn missing_cells_never_lose_the_truth_only_add_noise() {
    let svc = DiscoveryService::new(Arc::new(mondial(42, 1)), engine_config());
    let taskgen = TaskGenerator::new(
        svc.database(),
        TaskGenConfig {
            min_columns: 3,
            max_columns: 3,
            missing_cells: 1,
            ..TaskGenConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let tasks = taskgen.generate_many(Resolution::Missing, 4, &mut rng);
    for task in &tasks {
        let result = run_task(&svc, task);
        assert!(
            result.queries.iter().any(|q| q.key == task.truth_key),
            "truth lost with one missing cell: {}",
            task.truth_sql
        );
    }
}

#[test]
fn preprocessing_artifacts_agree_across_databases() {
    // Sanity of the substrate stack for all three generators: index, stats,
    // graph, and join indexes must be mutually consistent.
    for db in [mondial(7, 1), imdb(7, 1), nba(7, 1)] {
        for (tid, schema) in db.catalog().tables() {
            let table = db.table(tid);
            for (ci, _def) in schema.columns.iter().enumerate() {
                let col = prism::db::ColumnRef::new(tid, ci as u32);
                let stats = db.stats().column(col);
                assert_eq!(stats.row_count as usize, table.row_count());
                // MCV counts can never exceed non-null rows.
                let mcv_mass: u32 = stats.most_common.iter().map(|(_, c)| *c).sum();
                assert!(mcv_mass <= stats.non_null_count());
            }
        }
        // Every graph edge's endpoints carry join indexes.
        for e in 0..db.graph().edge_count() {
            let edge = db.graph().edge(prism::db::EdgeId(e as u32));
            assert!(db.join_index(edge.a).is_some());
            assert!(db.join_index(edge.b).is_some());
        }
    }
}
