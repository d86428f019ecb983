//! Property-based tests of the discovery engine's core guarantees, driven
//! by randomized constraints over synthetic Mondial.

use prism::core::{DiscoveryConfig, DiscoveryResult, DiscoveryService, TargetConstraints};
use prism::datasets::mondial;
use prism::db::Database;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Shared database + service: building them once keeps the 48-case
/// proptest runs fast.
fn engine() -> &'static DiscoveryService {
    static ENGINE: OnceLock<DiscoveryService> = OnceLock::new();
    ENGINE.get_or_init(|| {
        DiscoveryService::new(
            Arc::new(mondial(42, 1)),
            DiscoveryConfig {
                result_limit: 100_000,
                ..DiscoveryConfig::default()
            },
        )
    })
}

fn db() -> &'static Database {
    engine().database()
}

/// One fault-free round. The service contains a coordinator panic as an
/// empty degraded result, which every property below would accept.
fn run(tc: &TargetConstraints) -> DiscoveryResult {
    let result = engine().run(tc);
    assert!(!result.degraded, "{:?}", result.fault_reports);
    result
}

/// Keywords that exist in Mondial plus ones that don't.
fn arb_keyword() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Lake Tahoe".to_string()),
        Just("California".to_string()),
        Just("Nevada".to_string()),
        Just("Crater Lake".to_string()),
        Just("Mississippi".to_string()),
        Just("United States".to_string()),
        Just("Everest".to_string()),
        Just("Nonexistent Keyword".to_string()),
        "[A-Z][a-z]{2,8}".prop_map(|s| s),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: every query returned for a single-keyword task really
    /// contains the keyword in the projected column.
    #[test]
    fn returned_queries_always_satisfy_a_keyword_constraint(kw in arb_keyword()) {
        let Ok(tc) = TargetConstraints::parse(
            1,
            &[vec![Some(kw.clone())]],
            &[],
        ) else { return Ok(()); };
        let result = run(&tc);
        for q in &result.queries {
            let rows = q.candidate.query.execute(db(), 500_000).unwrap();
            let c = tc.samples[0].cell(0).unwrap();
            prop_assert!(
                rows.iter().any(|r| prism::lang::matches_value(c, &r[0])),
                "{} has no row matching `{kw}`", q.sql
            );
        }
    }

    /// Widening a keyword into a disjunction never loses queries.
    #[test]
    fn disjunction_widening_is_monotone(kw in arb_keyword()) {
        let Ok(tight) = TargetConstraints::parse(1, &[vec![Some(kw.clone())]], &[]) else {
            return Ok(());
        };
        let Ok(loose) = TargetConstraints::parse(
            1,
            &[vec![Some(format!("{kw} || Oregon"))]],
            &[],
        ) else { return Ok(()); };
        let tight_keys: Vec<String> = run(&tight).queries.into_iter().map(|q| q.key).collect();
        let loose_keys: Vec<String> = run(&loose).queries.into_iter().map(|q| q.key).collect();
        for k in &tight_keys {
            prop_assert!(
                loose_keys.contains(k),
                "query {k} lost when widening `{kw}` with a disjunct"
            );
        }
    }

    /// Discovery is deterministic.
    #[test]
    fn discovery_is_deterministic(kw in arb_keyword()) {
        let Ok(tc) = TargetConstraints::parse(1, &[vec![Some(kw)]], &[]) else {
            return Ok(());
        };
        let a: Vec<String> = run(&tc).queries.into_iter().map(|q| q.key).collect();
        let b: Vec<String> = run(&tc).queries.into_iter().map(|q| q.key).collect();
        prop_assert_eq!(a, b);
    }

    /// Adding a numeric range column never panics and never times out on
    /// the synthetic database, whatever the bounds.
    #[test]
    fn range_constraints_are_robust(lo in -1000i64..1_000_000, width in 0i64..100_000) {
        let tc = TargetConstraints::parse(
            2,
            &[vec![
                Some("Lake Tahoe".to_string()),
                Some(format!(">= {lo} && <= {}", lo + width)),
            ]],
            &[],
        ).unwrap();
        let result = run(&tc);
        prop_assert!(!result.timed_out);
        // Soundness of the numeric column.
        for q in &result.queries {
            let rows = q.candidate.query.execute(db(), 500_000).unwrap();
            let c = tc.samples[0].cell(1).unwrap();
            prop_assert!(rows.iter().any(|r| prism::lang::matches_value(c, &r[1])));
        }
    }
}
