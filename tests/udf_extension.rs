//! The paper's announced future-work extension: user-defined functions as
//! constraints ("we plan to support more metadata constraints, and even
//! user-defined functions" — Section 2.1). End-to-end through the facade.

use prism::core::{
    DiscoveryConfig, DiscoveryResult, DiscoveryService, SessionConfig, TargetConstraints,
};
use prism::datasets::mondial;
use prism::db::{DataType, Value};
use prism::lang::UdfRegistry;
use std::sync::Arc;

fn service() -> DiscoveryService {
    DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default())
}

/// One fault-free round: the service contains a coordinator panic as an
/// empty degraded result, which must fail these tests, not pass them.
fn run(svc: &DiscoveryService, tc: &TargetConstraints) -> DiscoveryResult {
    let result = svc.run(tc);
    assert!(!result.degraded, "{:?}", result.fault_reports);
    result
}

fn registry() -> UdfRegistry {
    let mut udfs = UdfRegistry::new();
    // Value UDF: "this cell looks like a US-style state name" — something no
    // built-in predicate can express.
    udfs.register_value("two_word_name", |v: &Value| {
        v.as_text()
            .is_some_and(|s| s.split_whitespace().count() == 2)
    });
    // Value UDF over numbers.
    udfs.register_value("positive", |v: &Value| {
        v.as_number().is_some_and(|x| x > 0.0)
    });
    // Column UDF: a plausible "surface area" column — decimal-typed, wide
    // dynamic range, no negatives.
    udfs.register_column("looks_like_area", |s| {
        s.dtype == DataType::Decimal
            && s.min_num.is_some_and(|m| m >= 0.0)
            && s.max_num.is_some_and(|m| m > 100.0)
    });
    udfs
}

#[test]
fn value_udf_constrains_cells() {
    let tc = TargetConstraints::parse(
        2,
        &[vec![
            Some("Lake Tahoe".to_string()),
            Some("@two_word_name".to_string()),
        ]],
        &[],
    )
    .unwrap()
    .with_udfs(registry());
    assert!(tc.missing_udfs().is_empty());
    let svc = service();
    let result = run(&svc, &tc);
    assert!(!result.queries.is_empty());
    // Soundness: some result row's column-1 cell has exactly two words.
    for q in &result.queries {
        let rows = q.candidate.query.execute(svc.database(), 200_000).unwrap();
        assert!(
            rows.iter().any(|r| r[1]
                .as_text()
                .is_some_and(|s| s.split_whitespace().count() == 2)),
            "{} has no two-word witness",
            q.sql
        );
    }
}

#[test]
fn column_udf_acts_as_metadata() {
    let tc = TargetConstraints::parse(
        2,
        &[vec![Some("Lake Tahoe".to_string()), None]],
        &[None, Some("@looks_like_area".to_string())],
    )
    .unwrap()
    .with_udfs(registry());
    let svc = service();
    let result = run(&svc, &tc);
    assert!(!result.queries.is_empty());
    // Every accepted assignment's column 1 satisfies the column UDF.
    for q in &result.queries {
        let col = q.candidate.assignment[1];
        let stats = svc.database().stats().column(col);
        assert_eq!(stats.dtype, DataType::Decimal, "{}", q.sql);
        assert!(stats.min_num.unwrap() >= 0.0);
    }
}

#[test]
fn udfs_combine_with_builtin_predicates() {
    // area >= 100 AND positive — conjunction of builtin + UDF.
    let tc = TargetConstraints::parse(
        2,
        &[vec![
            Some("Lake Tahoe".to_string()),
            Some(">= 100 && @positive".to_string()),
        ]],
        &[],
    )
    .unwrap()
    .with_udfs(registry());
    let result = run(&service(), &tc);
    assert!(!result.queries.is_empty());
}

#[test]
fn unregistered_udf_matches_nothing() {
    let tc = TargetConstraints::parse(1, &[vec![Some("@ghost".to_string())]], &[]).unwrap(); // no registry attached
    assert_eq!(tc.missing_udfs(), vec!["@ghost (value)"]);
    let result = run(&service(), &tc);
    assert!(result.queries.is_empty(), "unknown UDFs are conservative");
}

#[test]
fn session_rejects_unknown_udfs_with_a_clear_error() {
    let mut session = service().open_session(SessionConfig::default());
    session.set_sample_cell(0, 0, "@phantom").unwrap();
    let err = session.start_searching().unwrap_err();
    assert!(err.to_string().contains("phantom"), "{err}");
    // After registering, the search runs.
    let mut udfs = UdfRegistry::new();
    udfs.register_value("phantom", |v: &Value| {
        v.as_text().is_some_and(|s| s == "Lake Tahoe")
    });
    session.set_udfs(udfs);
    let result = session.start_searching().unwrap();
    assert!(!result.degraded, "{:?}", result.fault_reports);
    assert!(!result.queries.is_empty());
}

#[test]
fn udf_constraints_render_and_reparse() {
    let c = prism::lang::parse_value_constraint("@positive || Lake Tahoe").unwrap();
    let rendered = c.to_string();
    assert!(rendered.contains("@positive"));
    let reparsed = prism::lang::parse_value_constraint(&rendered).unwrap();
    assert_eq!(c, reparsed);
    let m =
        prism::lang::parse_metadata_constraint("@looks_like_area AND DataType=='decimal'").unwrap();
    let reparsed = prism::lang::parse_metadata_constraint(&m.to_string()).unwrap();
    assert_eq!(m, reparsed);
}
