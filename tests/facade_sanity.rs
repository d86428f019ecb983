//! Workspace-level sanity: every `prism::*` facade re-export resolves and
//! the three layers compose — parse a constraint via `prism::lang`, load a
//! toy table via `prism::db`, run one discovery round via `prism::core`.
//! This is the canary that catches facade/workspace wiring regressions
//! before the heavier end-to-end suites run.

use prism::bayes::{BayesEstimator, TrainConfig};
use prism::core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism::db::{ColumnDef, DataType, DatabaseBuilder, Value};
use prism::lang::{matches_value, parse_metadata_constraint, parse_value_constraint};
use std::sync::Arc;

fn toy_db() -> prism::db::Database {
    let mut b = DatabaseBuilder::new("sanity");
    b.add_table(
        "Lake",
        vec![
            ColumnDef::new("Name", DataType::Text).not_null(),
            ColumnDef::new("Area", DataType::Decimal),
        ],
    )
    .unwrap();
    b.add_rows(
        "Lake",
        vec![
            vec!["Lake Tahoe".into(), Value::Decimal(497.0)],
            vec!["Crater Lake".into(), Value::Decimal(53.2)],
        ],
    )
    .unwrap();
    b.build()
}

#[test]
fn lang_parses_through_the_facade() {
    let c = parse_value_constraint("California || Nevada").unwrap();
    assert!(matches_value(&c, &Value::text("Nevada")));
    assert!(!matches_value(&c, &Value::text("Oregon")));
    parse_metadata_constraint("DataType=='decimal' AND MinValue>='0'").unwrap();
}

#[test]
fn db_builds_and_indexes_through_the_facade() {
    let db = toy_db();
    assert_eq!(db.catalog().table_count(), 1);
    assert_eq!(db.total_rows(), 2);
    // The inverted index answers keyword probes after preprocessing.
    assert!(!db.index().lookup_cell("lake tahoe").is_empty());
}

#[test]
fn core_discovers_on_a_toy_database_through_the_facade() {
    let constraints = TargetConstraints::parse(
        2,
        &[vec![Some("Lake Tahoe".to_string()), None]],
        &[None, Some("DataType=='decimal'".to_string())],
    )
    .unwrap();
    let service = DiscoveryService::new(Arc::new(toy_db()), DiscoveryConfig::default());
    let result = service.run(&constraints);
    assert!(!result.degraded, "{:?}", result.fault_reports);
    assert!(!result.timed_out);
    assert!(
        !result.queries.is_empty(),
        "discovery found nothing on the toy database"
    );
    let rows = result.queries[0]
        .candidate
        .query
        .execute(service.database(), 100)
        .unwrap();
    assert!(rows.iter().any(|r| r[0] == Value::text("Lake Tahoe")));
}

#[test]
fn bayes_and_datasets_resolve_through_the_facade() {
    // `prism::datasets` builds the paper's synthetic databases and
    // `prism::bayes` trains on them — one round-trip proves both exports.
    let db = prism::datasets::nba(7, 1);
    let est = BayesEstimator::train(&db, &TrainConfig::default());
    assert!(est.has_join_indicators());
}
