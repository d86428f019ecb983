//! The executor against a brute-force reference.
//!
//! Random 3–4-table databases with Zipf-skewed and NULL join keys are
//! queried through chain and star join trees, optionally closed into a
//! cycle by one extra join condition (a residual check), so depth
//! separators of one, two and more keys all occur. Dictionary and
//! range-hinted predicates make deep sub-searches fail. At 64- and
//! 1024-row blocks and under both join orders, every run's rows (as a
//! multiset), existence verdict and capped count must equal the nested-loop
//! evaluator of `support/nested_loop.rs`, which uses no index, plan, zone
//! map or memo. The hub-skewed cases must also hit the executor's nogood
//! memo, so the comparison covers memoized searches and is not vacuous.

#[path = "support/nested_loop.rs"]
mod nested_loop;

use nested_loop::{for_each_match, SlotPred};
use prism_db::schema::ColumnDef;
use prism_db::types::{DataType, Value, ValueRef};
use prism_db::{
    Database, DatabaseBuilder, ExecScratch, ExecStats, JoinCond, JoinOrder, PjQuery, ProjPred,
    ScanPred,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const CASES: u32 = 32;
const BLOCK_ROWS: [usize; 2] = [64, 1024];
const ORDERS: [JoinOrder; 2] = [JoinOrder::Fixed, JoinOrder::Cost];
/// Join keys draw from `0..KEYS`; key 0 is the Zipf hub.
const KEYS: usize = 8;
/// Tags `t0`..`t4`.
const TAGS: u8 = 5;
/// Column layout of every generated table: three join keys, a dictionary
/// tag and a numeric value.
const COLUMNS: [(&str, DataType); 5] = [
    ("k0", DataType::Int),
    ("k1", DataType::Int),
    ("k2", DataType::Int),
    ("tag", DataType::Text),
    ("val", DataType::Int),
];
const TAG: u32 = 3;
const VAL: u32 = 4;

/// One row before the Zipf mapping: three key draws and a tag draw (per
/// mille, the lowest tenth meaning NULL) and a value (38 or above means
/// NULL).
type RawRow = ((u32, u32, u32), u32, i64);

/// A predicate draw per projection slot: `(kind, a, b)`.
type RawPred = (u8, u8, u8);

#[derive(Debug)]
struct Case {
    tables: Vec<Vec<RawRow>>,
    star: bool,
    residual: bool,
    hub: bool,
    preds: Vec<RawPred>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let row = ((0u32..1000, 0u32..1000, 0u32..1000), 0u32..1000, 0i64..40);
    (
        3usize..5,
        (0u8..2, 0u8..2, 0u8..2),
        proptest::collection::vec(proptest::collection::vec(row, 3..70), 4),
        proptest::collection::vec((0u8..16, 0u8..40, 0u8..12), 8),
    )
        .prop_map(|(n, (star, residual, hub), mut tables, preds)| {
            tables.truncate(n);
            // Four-table joins multiply out fast; keep their tables small
            // enough for the nested-loop reference.
            if n == 4 {
                for t in &mut tables {
                    t.truncate(20);
                }
            }
            Case {
                tables,
                star: star == 1,
                residual: residual == 1,
                hub: hub == 1,
                preds: preds[..2 * n].to_vec(),
            }
        })
}

/// Zipf draw over `0..n` with exponent `s` (weights `1/(k+1)^s`), or
/// `None` (NULL) for the lowest tenth of `per_mille`.
fn zipf_of(per_mille: u32, n: usize, s: f64) -> Option<usize> {
    let u = per_mille.checked_sub(100)?;
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let mut u = f64::from(u) / 900.0 * weights.iter().sum::<f64>();
    for (k, w) in weights.iter().enumerate() {
        if u < *w {
            return Some(k);
        }
        u -= w;
    }
    Some(n - 1)
}

fn key(per_mille: u32, s: f64) -> Value {
    zipf_of(per_mille, KEYS, s).map_or(Value::Null, |k| Value::Int(k as i64))
}

/// The case's cell values, one `Vec<Value>` per row.
fn cells(case: &Case) -> Vec<Vec<Vec<Value>>> {
    let s = if case.hub { 2.0 } else { 1.2 };
    case.tables
        .iter()
        .map(|rows| {
            rows.iter()
                .map(|&((a, b, c), tag, val)| {
                    vec![
                        key(a, s),
                        key(b, s),
                        key(c, s),
                        match zipf_of(tag, TAGS as usize, 1.2) {
                            Some(t) => format!("t{t}").into(),
                            None => Value::Null,
                        },
                        if val < 38 {
                            Value::Int(val)
                        } else {
                            Value::Null
                        },
                    ]
                })
                .collect()
        })
        .collect()
}

fn join(left_node: usize, left_col: u32, right_node: usize, right_col: u32) -> JoinCond {
    JoinCond {
        left_node,
        left_col,
        right_node,
        right_col,
    }
}

/// Node `i` is table `Ti`. A star joins the center's `k0`, `k1`, `k2` to
/// each leaf's `k0`; a chain joins each table's `k1` to the next one's
/// `k0`. The residual closes a cycle on columns no tree join uses as a
/// foreign key, so it has no join index.
fn query(case: &Case) -> PjQuery {
    let n = case.tables.len();
    let mut joins: Vec<JoinCond> = if case.star {
        (1..n).map(|i| join(0, i as u32 - 1, i, 0)).collect()
    } else {
        (1..n).map(|i| join(i - 1, 1, i, 0)).collect()
    };
    if case.residual {
        joins.push(if case.star {
            join(1, 1, 2, 1)
        } else {
            join(0, 2, n - 1, 2)
        });
    }
    PjQuery {
        nodes: (0..n as u32).map(prism_db::TableId).collect(),
        joins,
        projection: (0..n).flat_map(|i| [(i, TAG), (i, VAL)]).collect(),
    }
}

fn build(case: &Case, cells: &[Vec<Vec<Value>>], q: &PjQuery, block_rows: usize) -> Database {
    let mut b = DatabaseBuilder::new("reference").with_block_rows(block_rows);
    for (t, rows) in cells.iter().enumerate() {
        let name = format!("T{t}");
        let defs = COLUMNS
            .iter()
            .map(|&(c, dtype)| ColumnDef::new(c, dtype))
            .collect();
        b.add_table(&name, defs).unwrap();
        b.add_rows(&name, rows.clone()).unwrap();
    }
    let tree_joins = q.joins.len() - usize::from(case.residual);
    for j in &q.joins[..tree_joins] {
        b.add_foreign_key(
            &format!("T{}", j.right_node),
            COLUMNS[j.right_col as usize].0,
            &format!("T{}", j.left_node),
            COLUMNS[j.left_col as usize].0,
        )
        .unwrap();
    }
    b.build()
}

/// One slot's predicate: the test closure and its numeric hull hint. Range
/// predicates reject NULL, as the hint's contract requires.
type Pred = (Box<dyn Fn(ValueRef<'_>) -> bool>, Option<(f64, f64)>);

fn predicates(case: &Case, q: &PjQuery) -> Vec<Option<Pred>> {
    q.projection
        .iter()
        .zip(&case.preds)
        .map(|(&(_, col), &(kind, a, b))| -> Option<Pred> {
            if col == TAG {
                let name = format!("t{}", a % TAGS);
                match kind {
                    0..=9 => None,
                    10..=13 => Some((
                        Box::new(move |v: ValueRef<'_>| v.as_text() == Some(name.as_str())),
                        None,
                    )),
                    _ => Some((
                        Box::new(move |v: ValueRef<'_>| {
                            v.is_null() || v.as_text() == Some(name.as_str())
                        }),
                        None,
                    )),
                }
            } else {
                let lo = f64::from(a);
                let hi = if kind == 15 {
                    lo - 1.0
                } else {
                    lo + f64::from(b)
                };
                let test: Box<dyn Fn(ValueRef<'_>) -> bool> = Box::new(move |v: ValueRef<'_>| {
                    v.as_number().is_some_and(|x| lo <= x && x <= hi)
                });
                match kind {
                    0..=9 => None,
                    10 | 11 => Some((test, None)),
                    _ => Some((test, Some((lo, hi)))),
                }
            }
        })
        .collect()
}

/// Every result row of `q` over `cells` under `preds`, projected and
/// sorted: the nested-loop reference's answer.
fn nested_loop(cells: &[Vec<Vec<Value>>], q: &PjQuery, preds: &[ProjPred<'_>]) -> Vec<Vec<Value>> {
    let tests: Vec<SlotPred<'_>> = preds
        .iter()
        .map(|p| -> SlotPred<'_> {
            let p = (*p)?;
            Some(Box::new(move |v: &Value| p.matches(v.as_value_ref())))
        })
        .collect();
    let tables: Vec<&[Vec<Value>]> = cells.iter().map(Vec::as_slice).collect();
    let mut out = Vec::new();
    for_each_match(&tables, q, &tests, &mut |at| {
        out.push(
            q.projection
                .iter()
                .map(|&(node, col)| cells[node][at[node]][col as usize].clone())
                .collect(),
        );
        true
    });
    out.sort();
    out
}

/// Runs every executor path on one case and compares each with the
/// reference. Returns the nogood-memo hits per (block size, join order).
fn check(case: &Case) -> Result<[[u64; 2]; 2], TestCaseError> {
    let cells = cells(case);
    let q = query(case);
    let owned = predicates(case, &q);
    let preds: Vec<ProjPred<'_>> = owned
        .iter()
        .map(|p| {
            p.as_ref().map(|(test, range)| {
                let sp = ScanPred::new(&**test);
                match range {
                    Some((lo, hi)) => sp.with_range(*lo, *hi),
                    None => sp,
                }
            })
        })
        .collect();
    let want = nested_loop(&cells, &q, &preds);
    let want_all = nested_loop(&cells, &q, &[]);
    let cap = want.len() as u64 / 2 + 1;
    let mut hits = [[0u64; 2]; 2];
    // One scratch serves every run of the case, across databases.
    let mut scratch = ExecScratch::new();
    for (b, &block_rows) in BLOCK_ROWS.iter().enumerate() {
        let db = build(case, &cells, &q, block_rows);
        let mut all = q.execute(&db, usize::MAX).unwrap();
        all.sort();
        prop_assert_eq!(&all, &want_all, "execute, {} rows per block", block_rows);
        for (o, &order) in ORDERS.iter().enumerate() {
            let at = format!("{order:?} order, {block_rows} rows per block");
            let prepared = q.prepare_with(&db, &preds, order).unwrap();
            let mut stats = ExecStats::default();
            let mut rows: Vec<Vec<Value>> = Vec::new();
            prepared
                .for_each_row(&db, &preds, &mut scratch, &mut stats, &mut |r| {
                    rows.push(r.iter().map(|v| v.to_value()).collect());
                    true
                })
                .unwrap();
            rows.sort();
            prop_assert_eq!(&rows, &want, "rows, {}", at);
            let found = prepared
                .exists_matching(&db, &preds, &mut scratch, &mut stats)
                .unwrap();
            prop_assert_eq!(found, !want.is_empty(), "exists_matching, {}", at);
            let count = prepared
                .count_matching(&db, &preds, cap, &mut scratch, &mut stats)
                .unwrap();
            prop_assert_eq!(
                count,
                (want.len() as u64).min(cap),
                "count_matching, {}",
                at
            );
            hits[b][o] = stats.nogood_hits;
        }
    }
    Ok(hits)
}

/// Drives the generated cases by hand rather than through `proptest!`, so
/// that the memo hits of all hub-skewed cases can be summed before the
/// non-vacuity assertion.
#[test]
fn executor_matches_nested_loop_reference() {
    let strategy = arb_case();
    let mut rng = TestRng::deterministic("executor_matches_nested_loop_reference");
    let mut hub_hits = [[0u64; 2]; 2];
    for n in 0..CASES {
        let case = strategy.generate(&mut rng);
        match check(&case) {
            Ok(hits) if case.hub => {
                for (sum, h) in hub_hits.iter_mut().flatten().zip(hits.iter().flatten()) {
                    *sum += h;
                }
            }
            Ok(_) => {}
            Err(e) => panic!("case {n} of {CASES} failed: {e}\n{case:?}"),
        }
    }
    for (b, per_order) in hub_hits.iter().enumerate() {
        for (o, &h) in per_order.iter().enumerate() {
            assert!(
                h > 0,
                "no nogood hit on the hub cases ({:?} order, {} rows per block)",
                ORDERS[o],
                BLOCK_ROWS[b]
            );
        }
    }
}
