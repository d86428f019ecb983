//! The executor against a brute-force reference.
//!
//! Random 3–4-table databases with Zipf-skewed and NULL join keys are
//! queried through chain, star, fan and text-key chain join trees,
//! optionally closed into a cycle by one extra join condition (a residual
//! check), so depth separators of one, two and more keys all occur.
//! Dictionary and range-hinted predicates make deep sub-searches fail. The
//! join keys are projected too, with point, overlapping, disjoint and empty
//! ranges, so the columns one equi-join equates (a key class: two members in
//! a chain or star, every node's `k0` in a fan, two classes merged by some
//! residuals) carry ranges that refute a run or bound its other members.
//! An `Int` key joins a `Decimal` one in star trees (`F64` key space), and
//! text keys (`Sym` space) join in text chains and some cycles, their
//! predicates often carrying the empty hull a text keyword gets. At 64- and
//! 1024-row blocks and under both join orders, every run's rows (as a
//! multiset), existence verdict and capped count must equal the nested-loop
//! evaluator of `support/nested_loop.rs`, which uses no index, plan, zone
//! map, memo or bound. The comparison is not vacuous: the hub-skewed cases
//! must hit the executor's nogood memo, some run must be refuted by a class
//! bound, and some run must check a propagated bound and still emit rows.

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

const CASES: u32 = 64;
const BLOCK_ROWS: [usize; 2] = [64, 1024];
const ORDERS: [JoinOrder; 2] = [JoinOrder::Fixed, JoinOrder::Cost];
/// Join keys draw from `0..KEYS`; key 0 is the Zipf hub.
const KEYS: usize = 8;
/// Tags `t0`..`t4`.
const TAGS: u8 = 5;
/// Column layout of every generated table: four join keys (the third
/// `Decimal`, the fourth text), a dictionary tag and a numeric value.
const COLUMNS: [(&str, DataType); 6] = [
    ("k0", DataType::Int),
    ("k1", DataType::Int),
    ("k2", DataType::Decimal),
    ("ks", DataType::Text),
    ("tag", DataType::Text),
    ("val", DataType::Int),
];
const KS: u32 = 3;
const TAG: u32 = 4;
const VAL: u32 = 5;

/// One row before the Zipf mapping: four key draws and a tag draw (per
/// mille, the lowest tenth meaning NULL) and a value (38 or above means
/// NULL).
type RawRow = ((u32, u32, u32, u32), u32, i64);

/// A predicate draw per projection slot: `(kind, a, b)`.
type RawPred = (u8, u8, u8);

/// The join tree: a chain joins each table's `k1` to the next one's `k0`;
/// a star joins the center's `k0`, `k1`, `k2` to each leaf's `k0`; a fan
/// joins the center's `k0` to each leaf's `k0`, one class of every node; a
/// text chain joins each table's text key to the next one's.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Fan,
    TextChain,
}

/// The cycle-closing join: none, on numeric columns no tree join uses, on
/// the text keys, or on two tree-join columns of different classes (of one
/// class in a fan, fresh columns in a text chain), which merges them.
#[derive(Debug, Clone, Copy)]
enum Residual {
    None,
    Fresh,
    Text,
    Merge,
}

#[derive(Debug)]
struct Case {
    tables: Vec<Vec<RawRow>>,
    shape: Shape,
    residual: Residual,
    hub: bool,
    preds: Vec<RawPred>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let key = || 0u32..1000;
    let row = ((key(), key(), key(), key()), 0u32..1000, 0i64..40);
    (
        3usize..5,
        (0u8..4, 0u8..4, 0u8..2),
        proptest::collection::vec(proptest::collection::vec(row, 3..70), 4),
        proptest::collection::vec((0u8..16, 0u8..40, 0u8..12), 4 * COLUMNS.len()),
    )
        .prop_map(|(n, (shape, residual, hub), mut tables, preds)| {
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
                shape: [Shape::Chain, Shape::Star, Shape::Fan, Shape::TextChain]
                    [usize::from(shape)],
                residual: [
                    Residual::None,
                    Residual::Fresh,
                    Residual::Text,
                    Residual::Merge,
                ][usize::from(residual)],
                hub: hub == 1,
                preds: preds[..COLUMNS.len() * n].to_vec(),
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

/// A join key: the Zipf draw as an integer, a decimal or a text code.
fn key(per_mille: u32, s: f64, dtype: DataType) -> Value {
    match zipf_of(per_mille, KEYS, s) {
        None => Value::Null,
        Some(k) => match dtype {
            DataType::Int => Value::Int(k as i64),
            DataType::Decimal => Value::Decimal(k as f64),
            _ => format!("s{k}").into(),
        },
    }
}

/// The case's cell values, one `Vec<Value>` per row.
fn cells(case: &Case) -> Vec<Vec<Vec<Value>>> {
    let s = if case.hub { 2.0 } else { 1.2 };
    case.tables
        .iter()
        .map(|rows| {
            rows.iter()
                .map(|&((a, b, c, d), tag, val)| {
                    let keys = [a, b, c, d].into_iter().zip(COLUMNS);
                    keys.map(|(draw, (_, dtype))| key(draw, s, dtype))
                        .chain([
                            match zipf_of(tag, TAGS as usize, 1.2) {
                                Some(t) => format!("t{t}").into(),
                                None => Value::Null,
                            },
                            if val < 38 {
                                Value::Int(val)
                            } else {
                                Value::Null
                            },
                        ])
                        .collect()
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

/// Node `i` is table `Ti`, joined as its [`Shape`] and [`Residual`] say.
/// Every column of every node is projected. The `Fresh` and `Text`
/// residuals have no join index.
fn query(case: &Case) -> PjQuery {
    let n = case.tables.len();
    let mut joins: Vec<JoinCond> = match case.shape {
        Shape::Chain => (1..n).map(|i| join(i - 1, 1, i, 0)).collect(),
        Shape::Star => (1..n).map(|i| join(0, i as u32 - 1, i, 0)).collect(),
        Shape::Fan => (1..n).map(|i| join(0, 0, i, 0)).collect(),
        Shape::TextChain => (1..n).map(|i| join(i - 1, KS, i, KS)).collect(),
    };
    joins.extend(match (case.residual, case.shape) {
        (Residual::None, _) => None,
        (Residual::Fresh, Shape::Chain | Shape::TextChain) => Some(join(0, 2, n - 1, 2)),
        (Residual::Fresh, _) => Some(join(1, 1, 2, 1)),
        (Residual::Text, _) => Some(join(0, KS, n - 1, KS)),
        // T0.k1 = T1.k0 and T1.k1 = T2.k0 become one class.
        (Residual::Merge, Shape::Chain | Shape::TextChain) => Some(join(0, 1, 2, 0)),
        // T0.k0 = T1.k0 and T0.k1 = T2.k0 become one class in a star; in a
        // fan the cycle stays inside its one class.
        (Residual::Merge, _) => Some(join(1, 0, 2, 0)),
    });
    PjQuery {
        nodes: (0..n as u32).map(prism_db::TableId).collect(),
        joins,
        projection: (0..n)
            .flat_map(|i| (0..COLUMNS.len() as u32).map(move |c| (i, c)))
            .collect(),
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
    let tree_joins = case.tables.len() - 1;
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

/// The hull of a text keyword: no number matches it.
const EMPTY: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);

/// A key column that no join condition reads gets no predicate.
fn predicates(case: &Case, q: &PjQuery) -> Vec<Option<Pred>> {
    let joined = |node: usize, col: u32| {
        q.joins.iter().any(|j| {
            (j.left_node, j.left_col) == (node, col) || (j.right_node, j.right_col) == (node, col)
        })
    };
    q.projection
        .iter()
        .zip(&case.preds)
        .map(|(&(node, col), &(kind, a, b))| match col {
            TAG => text_pred(col, kind, a),
            VAL => value_pred(kind, a, b),
            _ if !joined(node, col) => None,
            KS => text_pred(col, kind, a),
            _ => key_pred(kind, a, b),
        })
        .collect()
}

/// Equality with `t0`..`t4` on the tag, or with `s0` or `s1`, the most
/// frequent text keys, on a joined text key (half of its draws). Some carry
/// the empty hull discovery gives a text keyword; some also accept NULL.
fn text_pred(col: u32, kind: u8, a: u8) -> Option<Pred> {
    let (name, none) = if col == TAG {
        (format!("t{}", a % TAGS), 11)
    } else {
        (format!("s{}", a % 2), 7)
    };
    let eq = move |v: ValueRef<'_>| v.as_text() == Some(name.as_str());
    match kind {
        k if k <= none => None,
        12 | 13 => Some((Box::new(eq), None)),
        14 => Some((Box::new(move |v| v.is_null() || eq(v)), None)),
        _ => Some((Box::new(eq), Some(EMPTY))),
    }
}

/// A range on the value column, with or without its hull, or empty.
fn value_pred(kind: u8, a: u8, b: u8) -> Option<Pred> {
    let lo = f64::from(a);
    let hi = if kind == 15 {
        lo - 1.0
    } else {
        lo + f64::from(b)
    };
    let within = move |v: ValueRef<'_>| v.as_number().is_some_and(|x| lo <= x && x <= hi);
    match kind {
        0..=11 => None,
        12 => Some((Box::new(within), None)),
        _ => Some((Box::new(within), Some((lo, hi)))),
    }
}

/// A range on a numeric join key, low enough to meet the Zipf-frequent
/// keys: a point, a range, two points under the hull spanning them, and
/// rarely an empty range or a range without its hull.
fn key_pred(kind: u8, a: u8, b: u8) -> Option<Pred> {
    let lo = f64::from(a % 4);
    let hi = match (kind, b % 4) {
        (12, _) => lo,
        (15, 0) => lo - 1.0,
        _ => lo + 1.0 + f64::from(b % 3),
    };
    let within = move |v: ValueRef<'_>| v.as_number().is_some_and(|x| lo <= x && x <= hi);
    match (kind, b % 4) {
        (0..=11, _) => None,
        (14, _) => Some((
            Box::new(move |v| v.as_number().is_some_and(|x| x == lo || x == hi)),
            Some((lo, hi)),
        )),
        (15, 1) => Some((Box::new(within), None)),
        _ => Some((Box::new(within), Some((lo, hi)))),
    }
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

/// What one (block size, join order) cell saw over the cases, for the
/// non-vacuity checks.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    /// Nogood-memo hits on the hub-skewed cases.
    hub_hits: u64,
    /// Runs a class bound proved empty.
    refuted: u64,
    /// Enumerations that checked a propagated bound and emitted rows.
    checked_with_rows: u64,
}

/// Runs every executor path on one case, compares each with the reference,
/// and adds what each (block size, join order) cell saw to `seen`.
fn check(case: &Case, seen: &mut [[Seen; 2]; 2]) -> Result<(), TestCaseError> {
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
            let cell = &mut seen[b][o];
            cell.checked_with_rows += u64::from(stats.bound_checked_runs > 0 && !rows.is_empty());
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
            cell.refuted += stats.bound_refuted_runs;
            if case.hub {
                cell.hub_hits += stats.nogood_hits;
            }
        }
    }
    Ok(())
}

/// Drives the generated cases by hand rather than through `proptest!`, so
/// that what the cases saw can be summed before the non-vacuity
/// assertions.
#[test]
fn executor_matches_nested_loop_reference() {
    let strategy = arb_case();
    let mut rng = TestRng::deterministic("executor_matches_nested_loop_reference");
    let mut seen = [[Seen::default(); 2]; 2];
    for n in 0..CASES {
        let case = strategy.generate(&mut rng);
        if let Err(e) = check(&case, &mut seen) {
            panic!("case {n} of {CASES} failed: {e}\n{case:?}");
        }
    }
    for (b, per_order) in seen.iter().enumerate() {
        for (o, cell) in per_order.iter().enumerate() {
            let at = format!("{:?} order, {} rows per block", ORDERS[o], BLOCK_ROWS[b]);
            eprintln!("{at}: {cell:?}");
            assert!(cell.hub_hits > 0, "no nogood hit on the hub cases ({at})");
            assert!(cell.refuted > 0, "no run refuted by a class bound ({at})");
            assert!(
                cell.checked_with_rows > 0,
                "no run checked a propagated bound and emitted rows ({at})"
            );
        }
    }
}
