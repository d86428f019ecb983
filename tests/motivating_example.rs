//! End-to-end reproduction of the paper's motivating example (Table 1,
//! Sections 1 and 3) through the public facade crate.

use prism::core::explain::{all_picks, explain};
use prism::core::{
    DiscoveryConfig, DiscoveryResult, DiscoveryService, SchedulerKind, TargetConstraints,
};
use prism::datasets::mondial;
use prism::db::Value;
use std::sync::Arc;

fn walkthrough_constraints() -> TargetConstraints {
    TargetConstraints::parse(
        3,
        &[vec![
            Some("California || Nevada".to_string()),
            Some("Lake Tahoe".to_string()),
            None,
        ]],
        &[
            None,
            None,
            Some("DataType=='decimal' AND MinValue>='0'".to_string()),
        ],
    )
    .unwrap()
}

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

const DESIRED_SQL: &str = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                           FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";

#[test]
fn the_desired_query_is_discovered() {
    let result = run(&service(), &walkthrough_constraints());
    assert!(!result.timed_out);
    assert!(
        result.queries.iter().any(|q| q.sql == DESIRED_SQL),
        "missing desired query among {:?}",
        result.queries.iter().map(|q| &q.sql).collect::<Vec<_>>()
    );
}

#[test]
fn table_1_rows_are_reproduced() {
    let svc = service();
    let result = run(&svc, &walkthrough_constraints());
    let hit = result
        .queries
        .iter()
        .find(|q| q.sql == DESIRED_SQL)
        .unwrap();
    let rows = hit.candidate.query.execute(svc.database(), 10_000).unwrap();
    for (state, lake, area) in [
        ("California", "Lake Tahoe", 497.0),
        ("Oregon", "Crater Lake", 53.2),
        ("Florida", "Fort Peck Lake", 981.0),
    ] {
        assert!(
            rows.iter().any(|r| r[0] == Value::text(state)
                && r[1] == Value::text(lake)
                && r[2] == Value::Decimal(area)),
            "Table 1 row ({state}, {lake}, {area}) missing"
        );
    }
}

#[test]
fn every_returned_query_satisfies_all_constraints() {
    let svc = service();
    let db = svc.database();
    let tc = walkthrough_constraints();
    let result = run(&svc, &tc);
    assert!(!result.queries.is_empty());
    for q in &result.queries {
        // Sample constraint: some result row matches all constrained cells.
        let rows = q.candidate.query.execute(db, 200_000).unwrap();
        let witness = rows.iter().any(|row| {
            tc.samples[0]
                .cells()
                .iter()
                .enumerate()
                .all(|(i, c)| match c {
                    Some(c) => prism::lang::matches_value(c, &row[i]),
                    None => true,
                })
        });
        assert!(witness, "{} lacks a witness row", q.sql);
        // Metadata constraint: the assigned column's statistics satisfy it.
        let col = q.candidate.assignment[2];
        let def = db.catalog().column_def(col);
        assert!(
            prism::lang::metadata_satisfied(
                tc.metadata[2].as_ref().unwrap(),
                &def.name,
                db.stats().column(col)
            ),
            "{} column 2 violates metadata",
            q.sql
        );
    }
}

#[test]
fn the_returned_set_is_complete_wrt_naive_validation() {
    // Every candidate accepted by exhaustive naive validation must also be
    // accepted by the scheduled run — filter scheduling is an optimization,
    // not an approximation.
    let db = Arc::new(mondial(42, 1));
    let tc = walkthrough_constraints();
    let keys = |kind| -> Vec<String> {
        let svc = DiscoveryService::new(Arc::clone(&db), DiscoveryConfig::with_scheduler(kind));
        run(&svc, &tc).queries.into_iter().map(|q| q.key).collect()
    };
    let mut a = keys(SchedulerKind::Bayes);
    let mut b = keys(SchedulerKind::Naive);
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn explanation_graph_of_the_desired_query_matches_figure_4c() {
    let svc = service();
    let tc = walkthrough_constraints();
    let result = run(&svc, &tc);
    let hit = result
        .queries
        .iter()
        .find(|q| q.sql == DESIRED_SQL)
        .unwrap();
    let g = explain(svc.database(), &hit.candidate, &tc, &all_picks(&tc));
    assert_eq!(g.relations.len(), 2, "orange squares");
    assert_eq!(g.attributes.len(), 3, "green ellipses");
    assert_eq!(g.joins.len(), 1, "join edge");
    assert_eq!(g.constraints.len(), 3, "blue constraint boxes");
    let dot = g.to_dot();
    assert!(dot.contains("orange") && dot.contains("palegreen") && dot.contains("lightblue"));
}

#[test]
fn discovery_stays_well_inside_the_interactive_budget() {
    let result = run(&service(), &walkthrough_constraints());
    // The paper's demo budget is 60 s; synthetic Mondial at scale 1 should
    // resolve in a tiny fraction of that even on slow machines.
    assert!(result.stats.elapsed.as_secs() < 30);
    assert!(!result.timed_out);
}
