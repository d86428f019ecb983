//! Join-order equivalence properties: a cost-ordered plan must accept the
//! exact row set of the declaration-ordered (fixed) plan — same projected
//! rows modulo enumeration order — across many-block (64-row) and
//! single-block-heavy (4096-row) layouts, under 1 and 4 threads sharing
//! one prepared plan, and the cost order must stay under a bounded
//! rows-examined ratio on a deliberately adversarial skewed scenario.

use prism_datasets::skewed;
use prism_db::schema::ColumnDef;
use prism_db::types::{DataType, Value, ValueRef};
use prism_db::{
    Database, DatabaseBuilder, ExecScratch, ExecStats, JoinCond, JoinOrder, PjQuery, ProjPred,
    ScanPred,
};
use proptest::prelude::*;

const BLOCK_SIZES: [usize; 2] = [64, 4096];

/// (value, hub?) rows: hub rows all share FK key 1, the rest spread out, so
/// generated databases range from uniform to heavily skewed fan-out.
fn arb_row() -> impl Strategy<Value = (i64, bool)> {
    (
        (-100i64..100),
        prop_oneof![Just(true), Just(true), Just(false)],
    )
}

fn build_db(rows: &[(i64, bool)], block_rows: usize) -> Database {
    let mut b = DatabaseBuilder::new("order").with_block_rows(block_rows);
    b.add_table(
        "U",
        vec![
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("id", DataType::Int),
        ],
    )
    .unwrap();
    b.add_table(
        "V",
        vec![
            ColumnDef::new("fk", DataType::Int),
            ColumnDef::new("val", DataType::Int),
        ],
    )
    .unwrap();
    // A fixed key domain so probes hit real posting runs.
    for k in 1..=8i64 {
        b.add_row("U", vec![Value::Text(format!("u{k}")), Value::Int(k)])
            .unwrap();
    }
    for (i, &(val, hub)) in rows.iter().enumerate() {
        let fk = if hub { 1 } else { 1 + (i as i64 % 8) };
        b.add_row("V", vec![Value::Int(fk), Value::Int(val)])
            .unwrap();
    }
    b.add_foreign_key("V", "fk", "U", "id").unwrap();
    b.build()
}

fn collect(
    db: &Database,
    q: &PjQuery,
    preds: &[ProjPred<'_>],
    mode: JoinOrder,
) -> (Vec<Vec<Value>>, ExecStats) {
    let prepared = q.prepare_with(db, preds, mode).unwrap();
    let mut scratch = ExecScratch::new();
    let mut stats = ExecStats::default();
    let mut rows = Vec::new();
    prepared
        .for_each_row(db, preds, &mut scratch, &mut stats, &mut |r| {
            rows.push(r.iter().map(|v| v.to_value()).collect());
            true
        })
        .unwrap();
    rows.sort();
    (rows, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cost-ordered and declaration-ordered plans accept identical row
    /// sets for a join with a text predicate on one side and a
    /// range-hinted numeric predicate on the other, at both block layouts.
    #[test]
    fn cost_and_fixed_plans_are_row_identical(
        rows in proptest::collection::vec(arb_row(), 1..200),
        lo in -110i64..110,
        width in 0i64..80,
        key in 1i64..=8,
    ) {
        let (lo, hi) = (lo as f64, (lo + width) as f64);
        for bs in BLOCK_SIZES {
            let db = build_db(&rows, bs);
            let q = PjQuery {
                nodes: vec![
                    db.catalog().table_id("U").unwrap(),
                    db.catalog().table_id("V").unwrap(),
                ],
                joins: vec![JoinCond {
                    left_node: 0,
                    left_col: 1,
                    right_node: 1,
                    right_col: 0,
                }],
                projection: vec![(0, 0), (1, 1)],
            };
            let name = format!("u{key}");
            let is_name = |v: ValueRef<'_>| v.as_text() == Some(name.as_str());
            let in_range =
                move |v: ValueRef<'_>| v.as_number().is_some_and(|x| lo <= x && x <= hi);
            let preds: [ProjPred<'_>; 2] = [
                Some(ScanPred::new(&is_name)),
                Some(ScanPred::new(&in_range).with_range(lo, hi)),
            ];
            let (fixed, _) = collect(&db, &q, &preds, JoinOrder::Fixed);
            let (cost, cost_stats) = collect(&db, &q, &preds, JoinOrder::Cost);
            prop_assert_eq!(&fixed, &cost, "block_rows={}", bs);
            prop_assert_eq!(cost_stats.rows_estimated > 0, true);
        }
    }
}

/// The skewed taskgen scenario with a hub predicate: declaration order
/// probes straight through the hot tag's posting run, the cost order scans
/// a zone-pruned score range instead. Both must agree on rows, and the
/// cost order must examine at most a third of the fixed order's rows on
/// seed 11 and at most a fifth on seed 42, where it examines 2,119 rows
/// against 12,544 (5.92x).
#[test]
fn adversarial_skew_stays_under_bounded_rows_examined_ratio() {
    for (seed, ratio) in [(11, 3), (42, 5)] {
        let db = skewed(seed, 10, 1.2);
        let q = PjQuery {
            nodes: vec![
                db.catalog().table_id("Tag").unwrap(),
                db.catalog().table_id("Item").unwrap(),
            ],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 1, // Tag.id
                right_node: 1,
                right_col: 0, // Item.tag
            }],
            projection: vec![(0, 0), (1, 1)],
        };
        let is_hub = |v: ValueRef<'_>| v.as_text() == Some("tag1");
        let in_range = |v: ValueRef<'_>| {
            v.as_number()
                .is_some_and(|x| (1000.0..=1100.0).contains(&x))
        };
        let preds: [ProjPred<'_>; 2] = [
            Some(ScanPred::new(&is_hub)),
            Some(ScanPred::new(&in_range).with_range(1000.0, 1100.0)),
        ];
        let (fixed, fixed_stats) = collect(&db, &q, &preds, JoinOrder::Fixed);
        let (cost, cost_stats) = collect(&db, &q, &preds, JoinOrder::Cost);
        assert_eq!(fixed, cost, "adversarial plans must be row-identical");
        assert!(!fixed.is_empty(), "the hub owns rows in every score range");
        assert!(
            cost_stats.rows_examined * ratio <= fixed_stats.rows_examined,
            "cost order must dodge the hub on seed {seed}: {} examined vs {}, need {ratio}x",
            cost_stats.rows_examined,
            fixed_stats.rows_examined
        );
    }
}

/// One cost-ordered prepared plan shared by 4 threads (each with its own
/// scratch) returns the same match count as a single-threaded run — the
/// adaptive guard's counters are concurrency-safe and never perturb
/// results, even when a recompile races.
#[test]
fn shared_plan_is_identical_across_1_and_4_threads() {
    let db = skewed(5, 1, 1.0);
    let q = PjQuery {
        nodes: vec![
            db.catalog().table_id("Tag").unwrap(),
            db.catalog().table_id("Item").unwrap(),
        ],
        joins: vec![JoinCond {
            left_node: 0,
            left_col: 1,
            right_node: 1,
            right_col: 0,
        }],
        projection: vec![(0, 0)],
    };
    // `ScanPred` borrows an unsync `dyn Fn`, so every thread builds its own
    // predicate array from this shared, capture-free closure.
    fn is_hub(v: ValueRef<'_>) -> bool {
        v.as_text() == Some("tag1")
    }
    let make_preds = || -> [ProjPred<'static>; 1] { [Some(ScanPred::new(&is_hub))] };
    let prepared = q.prepare_with(&db, &make_preds(), JoinOrder::Cost).unwrap();

    let count_once = || {
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        prepared
            .count_matching(&db, &make_preds(), u64::MAX, &mut scratch, &mut stats)
            .unwrap()
    };
    let baseline = count_once();
    assert!(baseline > 0);
    // Enough runs per thread to cross the guard's recompile threshold
    // while all four threads hammer the same plan.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let preds = make_preds();
                    let mut scratch = ExecScratch::new();
                    let mut stats = ExecStats::default();
                    for _ in 0..6 {
                        let c = prepared
                            .count_matching(&db, &preds, u64::MAX, &mut scratch, &mut stats)
                            .unwrap();
                        assert_eq!(c, baseline);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    // And the plan still answers identically afterwards.
    assert_eq!(count_once(), baseline);
}
