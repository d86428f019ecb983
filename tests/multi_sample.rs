//! Multiple sample-constraint rows: the paper's Configuration section lets
//! the user set "number of sample constraints"; a satisfying query must
//! contain EVERY sample row in its result. These tests exercise the
//! cross-sample intersection logic end-to-end, plus the demo's iterative
//! refinement loop (step 4.4: "repeat the above process").

use prism::core::{
    DiscoveryConfig, DiscoveryResult, DiscoveryService, SessionConfig, SessionHandle,
    TargetConstraints,
};
use prism::datasets::mondial;
use prism::lang::matches_value;
use std::sync::Arc;

fn service(config: DiscoveryConfig) -> DiscoveryService {
    DiscoveryService::new(Arc::new(mondial(42, 1)), config)
}

/// One fault-free round: the service contains a coordinator panic as an
/// empty degraded result, which must fail these tests, not pass them.
fn run(svc: &DiscoveryService, tc: &TargetConstraints) -> DiscoveryResult {
    let result = svc.run(tc);
    assert!(!result.degraded, "{:?}", result.fault_reports);
    result
}

#[test]
fn two_sample_rows_intersect_candidates() {
    let svc = service(DiscoveryConfig::default());
    // Two lakes with their states: both rows must appear in the result.
    let tc = TargetConstraints::parse(
        2,
        &[
            vec![Some("Lake Tahoe".into()), Some("California".into())],
            vec![Some("Crater Lake".into()), Some("Oregon".into())],
        ],
        &[],
    )
    .unwrap();
    let result = run(&svc, &tc);
    assert!(!result.queries.is_empty());
    for q in &result.queries {
        let rows = q.candidate.query.execute(svc.database(), 200_000).unwrap();
        for sample in &tc.samples {
            let witness = rows.iter().any(|row| {
                row.iter()
                    .zip(sample.cells())
                    .all(|(v, c)| c.as_ref().map(|c| matches_value(c, v)).unwrap_or(true))
            });
            assert!(witness, "{} misses a sample row", q.sql);
        }
    }
}

#[test]
fn contradictory_second_sample_prunes_everything() {
    let svc = service(DiscoveryConfig::default());
    // Row 1 is satisfiable; row 2 pairs a lake with the wrong state, so no
    // single query can contain both (for the lake/state interpretation) —
    // and no other column pair holds both combinations either.
    let tc = TargetConstraints::parse(
        2,
        &[
            vec![Some("Lake Tahoe".into()), Some("California".into())],
            vec![Some("Crater Lake".into()), Some("Nevada".into())],
        ],
        &[],
    )
    .unwrap();
    let result = run(&svc, &tc);
    for q in &result.queries {
        // Any survivor must genuinely satisfy both rows.
        let rows = q.candidate.query.execute(svc.database(), 200_000).unwrap();
        for sample in &tc.samples {
            assert!(rows.iter().any(|row| row
                .iter()
                .zip(sample.cells())
                .all(|(v, c)| c.as_ref().map(|c| matches_value(c, v)).unwrap_or(true))));
        }
    }
}

#[test]
fn fewer_samples_never_yield_fewer_queries() {
    // Adding a sample row can only constrain further (monotonicity).
    let svc = service(DiscoveryConfig {
        result_limit: 100_000,
        ..DiscoveryConfig::default()
    });
    let one = TargetConstraints::parse(
        2,
        &[vec![Some("Lake Tahoe".into()), Some("California".into())]],
        &[],
    )
    .unwrap();
    let two = TargetConstraints::parse(
        2,
        &[
            vec![Some("Lake Tahoe".into()), Some("California".into())],
            vec![Some("Crater Lake".into()), Some("Oregon".into())],
        ],
        &[],
    )
    .unwrap();
    let keys_one: Vec<String> = run(&svc, &one).queries.into_iter().map(|q| q.key).collect();
    let keys_two: Vec<String> = run(&svc, &two).queries.into_iter().map(|q| q.key).collect();
    assert!(keys_two.len() <= keys_one.len());
    for k in &keys_two {
        assert!(
            keys_one.contains(k),
            "two-sample result {k} absent from one-sample set"
        );
    }
}

#[test]
fn session_supports_iterative_refinement() {
    // Demo step 4.4: the user inspects results, tightens the description,
    // and searches again within the same session.
    let config = DiscoveryConfig {
        result_limit: 100_000,
        ..DiscoveryConfig::default()
    };
    let mut session = service(config.clone()).open_session(SessionConfig {
        target_columns: 2,
        sample_rows: 1,
        with_metadata: true,
        discovery: config,
    });
    let search = |session: &mut SessionHandle| {
        let result = session.start_searching().unwrap();
        assert!(!result.degraded, "{:?}", result.fault_reports);
        result.queries.len()
    };
    session.set_sample_cell(0, 0, "Lake Tahoe").unwrap();
    let broad = search(&mut session);
    assert!(broad > 0);
    // Refine: the second column must be a non-negative decimal.
    session
        .set_metadata_cell(1, "DataType=='decimal' AND MinValue>='0'")
        .unwrap();
    let refined = search(&mut session);
    assert!(refined > 0);
    assert!(
        refined <= broad,
        "refinement must narrow the result list ({refined} > {broad})"
    );
    // The refined result view replaces the old one.
    let sql = session.result_sql(0).unwrap().to_string();
    let graph = session.explain_result(0, None).unwrap();
    assert!(!sql.is_empty());
    assert!(!graph.relations.is_empty());
}
