//! Per-column statistics collected during preprocessing.
//!
//! Section 2.3: *"To check a metadata constraint, we use metadata
//! information, e.g., min/max values, collected during preprocessing."*
//! Beyond the metadata fields the paper names (data type, min/max value,
//! maximum text length), this store keeps equi-depth histograms and
//! most-common-value lists — these feed both metadata-constraint checking and
//! the selectivity estimates used by filter scheduling.

use crate::column::ColumnData;
use crate::interner::SymbolTable;
use crate::schema::{ColumnRef, TableId};
use crate::table::Table;
use crate::types::{DataType, Value};
use std::collections::HashMap;

/// Equi-depth histogram over the numeric view of a column
/// (`Value::as_number`); Date/Time columns use their ordinals.
///
/// Each bucket `(bounds[i], bounds[i+1]]` tracks its row count split into an
/// interpolated part (values strictly below the upper bound) and a point mass
/// sitting exactly at the upper bound. The split keeps estimates accurate on
/// skewed columns where one value dominates (common in FK columns).
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    /// `bounds.len() == bucket_count + 1`; strictly increasing except for a
    /// single-value column, where it is `[v, v]`.
    bounds: Vec<f64>,
    /// Per bucket: values strictly inside `(bounds[i], bounds[i+1])`.
    below: Vec<u32>,
    /// Per bucket: values exactly equal to `bounds[i+1]`.
    at_upper: Vec<u32>,
    total: u32,
}

impl EquiDepthHistogram {
    /// Build from the non-null numeric values of a column.
    pub fn build(mut values: Vec<f64>, buckets: usize) -> Option<EquiDepthHistogram> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = values.len();
        let b = buckets.min(n);
        let mut bounds = vec![values[0]];
        let mut below = Vec::with_capacity(b);
        let mut at_upper = Vec::with_capacity(b);
        let mut prev_idx = 0usize;
        for i in 1..=b {
            if prev_idx >= n {
                break;
            }
            let mut idx = (i * n / b).max(prev_idx + 1).min(n);
            let upper = values[idx - 1];
            // Pull all duplicates of the boundary value into this bucket so
            // bounds stay strictly increasing and the point mass is exact.
            while idx < n && values[idx] == upper {
                idx += 1;
            }
            let at = values[prev_idx..idx]
                .iter()
                .rev()
                .take_while(|&&v| v == upper)
                .count() as u32;
            bounds.push(upper);
            at_upper.push(at);
            below.push((idx - prev_idx) as u32 - at);
            prev_idx = idx;
        }
        Some(EquiDepthHistogram {
            bounds,
            below,
            at_upper,
            total: n as u32,
        })
    }

    pub fn total(&self) -> u32 {
        self.total
    }

    /// Estimated fraction of values `<= x`, with linear interpolation inside
    /// the containing bucket. Point masses at bucket boundaries are counted
    /// exactly.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        let lo = self.bounds[0];
        let hi = *self.bounds.last().expect("nonempty");
        if x < lo {
            return 0.0;
        }
        if x >= hi {
            return 1.0;
        }
        let mut acc = 0.0f64;
        // bounds[0] itself carries the minimum value(s); they are part of the
        // first bucket's `below` mass only when distinct from its upper
        // bound, which `build` guarantees, so count them via interpolation.
        for i in 0..self.below.len() {
            let b_lo = self.bounds[i];
            let b_hi = self.bounds[i + 1];
            if x >= b_hi {
                acc += (self.below[i] + self.at_upper[i]) as f64;
                continue;
            }
            let width = b_hi - b_lo;
            let frac = if width > 0.0 {
                ((x - b_lo) / width).clamp(0.0, 1.0)
            } else {
                1.0
            };
            acc += self.below[i] as f64 * frac;
            break;
        }
        acc / self.total as f64
    }

    /// Estimated fraction of values in `[lo, hi]`.
    pub fn fraction_range(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        // Nudge below `lo` to approximate a closed lower bound.
        let below_lo = if lo <= self.bounds[0] {
            0.0
        } else {
            self.fraction_leq(lo - f64::EPSILON.max(lo.abs() * 1e-12))
        };
        (self.fraction_leq(hi) - below_lo).max(0.0)
    }
}

/// Statistics for a single column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub dtype: DataType,
    pub row_count: u32,
    pub null_count: u32,
    pub distinct_count: u32,
    /// Min/max of the numeric view (numbers, date/time ordinals).
    pub min_num: Option<f64>,
    pub max_num: Option<f64>,
    /// Lexicographic min/max for text columns.
    pub min_text: Option<String>,
    pub max_text: Option<String>,
    /// Longest text length in characters (the paper's "maximum text length").
    pub max_text_len: Option<u32>,
    pub histogram: Option<EquiDepthHistogram>,
    /// Up to `MCV_LIMIT` most common non-null values with their counts.
    pub most_common: Vec<(Value, u32)>,
    /// Occurrence count of the single most frequent non-null value. For a
    /// column covered by a CSR join index this equals the longest posting
    /// run (both exclude NULLs), so the planner can read worst-case probe
    /// fan-out without touching the index.
    pub max_key_run: u32,
}

const MCV_LIMIT: usize = 12;
const HISTOGRAM_BUCKETS: usize = 32;

/// Row budget of the sampled statistics path: a stride is chosen so roughly
/// this many rows are touched per column.
const SAMPLE_TARGET: usize = 65_536;

/// Tables at or under this row count get exact statistics at build; larger
/// tables use the sampled path so a 10M-row ingest does not pay a second
/// full scan per column.
pub(crate) const STATS_EXACT_ROWS: usize = 1_000_000;

impl ColumnStats {
    /// Collect exact statistics for column `column` of `table`, reading
    /// through the typed column storage: numeric columns scan raw
    /// `i64`/`f64` slices; dictionary columns count frequencies per symbol
    /// code and resolve each distinct value once.
    pub fn collect(table: &Table, syms: &SymbolTable, column: u32, dtype: DataType) -> ColumnStats {
        Self::collect_with_stride(table, syms, column, dtype, 1)
    }

    /// Sampled statistics for large columns: one deterministic stride walk
    /// touching about `SAMPLE_TARGET` (65,536) rows. Row and NULL counts stay exact
    /// (the null bitmap keeps a running count), numeric min/max come exact
    /// from the frozen zone summary, and distinct counts / MCV frequencies /
    /// histogram masses are scaled estimates from the sample. Text and
    /// date/time bounds are sample-approximate.
    pub fn collect_sampled(
        table: &Table,
        syms: &SymbolTable,
        column: u32,
        dtype: DataType,
    ) -> ColumnStats {
        let n = table.column(column).len();
        let stride = (n / SAMPLE_TARGET).max(2);
        Self::collect_with_stride(table, syms, column, dtype, stride)
    }

    fn collect_with_stride(
        table: &Table,
        syms: &SymbolTable,
        column: u32,
        dtype: DataType,
        stride: usize,
    ) -> ColumnStats {
        let col = table.column(column);
        let row_count = col.len() as u32;
        let null_count = col.null_count();
        let mut numbers: Vec<f64> = Vec::new();
        let mut min_text: Option<&str> = None;
        let mut max_text: Option<&str> = None;
        let mut max_text_len: Option<u32> = None;
        // Frequencies keyed on the column's compact representation; `Value`s
        // are materialized only for the truncated MCV list below. With
        // `stride > 1` these are sample frequencies, scaled afterwards.
        let mut mcv: Vec<(Value, u32)>;
        match col.data() {
            ColumnData::Int(vals) => {
                let mut freqs: HashMap<i64, u32> = HashMap::new();
                for r in (0..vals.len()).step_by(stride) {
                    if col.is_null(r) {
                        continue;
                    }
                    let x = vals[r];
                    *freqs.entry(x).or_insert(0) += 1;
                    numbers.push(x as f64);
                }
                mcv = freqs.into_iter().map(|(x, c)| (Value::Int(x), c)).collect();
            }
            ColumnData::Decimal(vals) => {
                // Finite decimals with -0.0 normalized: bit patterns are a
                // sound equality key.
                let mut freqs: HashMap<u64, u32> = HashMap::new();
                for r in (0..vals.len()).step_by(stride) {
                    if col.is_null(r) {
                        continue;
                    }
                    let x = vals[r];
                    *freqs.entry(x.to_bits()).or_insert(0) += 1;
                    numbers.push(x);
                }
                mcv = freqs
                    .into_iter()
                    .map(|(bits, c)| (Value::Decimal(f64::from_bits(bits)), c))
                    .collect();
            }
            ColumnData::Sym(codes) => {
                let mut freqs: HashMap<u32, u32> = HashMap::new();
                for r in (0..codes.len()).step_by(stride) {
                    if col.is_null(r) {
                        continue;
                    }
                    let code = codes[r];
                    *freqs.entry(code).or_insert(0) += 1;
                    // Date/time symbols still feed the numeric histogram
                    // through their ordinals.
                    match dtype {
                        DataType::Date => numbers.push(syms.date(code).ordinal()),
                        DataType::Time => numbers.push(syms.time(code).ordinal()),
                        _ => {}
                    }
                }
                // Text bounds need one pass over *distinct* symbols only.
                if dtype == DataType::Text {
                    for &code in freqs.keys() {
                        let s = syms.text(code);
                        let len = s.chars().count() as u32;
                        max_text_len = Some(max_text_len.map_or(len, |m| m.max(len)));
                        min_text = Some(min_text.map_or(s, |m| if s < m { s } else { m }));
                        max_text = Some(max_text.map_or(s, |m| if s > m { s } else { m }));
                    }
                }
                mcv = freqs
                    .into_iter()
                    .map(|(code, c)| (syms.value(dtype, code), c))
                    .collect();
            }
        }
        let non_null = row_count - null_count;
        // Distinct: exact at stride 1; otherwise scale up by assuming each
        // sample singleton stands for `stride` rows of an unseen value
        // (heavy values are sampled and counted, so only the singleton tail
        // is extrapolated). Capped by the exact non-null count.
        let sampled_distinct = mcv.len() as u32;
        let distinct_count = if stride == 1 {
            sampled_distinct
        } else {
            let singletons = mcv.iter().filter(|&&(_, c)| c == 1).count() as u64;
            let est = sampled_distinct as u64 + singletons * (stride as u64 - 1);
            est.min(non_null as u64) as u32
        };
        // Scale sample frequencies to full-table counts so MCV-based
        // selectivities divide by the exact non-null count.
        if stride > 1 {
            for (_, c) in &mut mcv {
                *c = (*c as u64 * stride as u64).min(non_null as u64) as u32;
            }
        }
        // Sort by descending frequency, tie-broken by value for determinism.
        mcv.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let max_key_run = mcv.first().map(|&(_, c)| c).unwrap_or(0);
        mcv.truncate(MCV_LIMIT);
        let (mut min_num, mut max_num) = if numbers.is_empty() {
            (None, None)
        } else {
            let mut mn = f64::INFINITY;
            let mut mx = f64::NEG_INFINITY;
            for &x in &numbers {
                mn = mn.min(x);
                mx = mx.max(x);
            }
            (Some(mn), Some(mx))
        };
        // Sampled numeric bounds are repaired from the frozen zone summary,
        // which covers every row exactly (`build` freezes before stats).
        if stride > 1 {
            if let Some(meta) = col.summary_meta() {
                match meta.zone {
                    crate::column::Zone::Int { min, max } => {
                        min_num = Some(min as f64);
                        max_num = Some(max as f64);
                    }
                    crate::column::Zone::Dec { min, max, .. } => {
                        min_num = Some(min);
                        max_num = Some(max);
                    }
                    _ => {}
                }
            }
        }
        let histogram = EquiDepthHistogram::build(numbers, HISTOGRAM_BUCKETS);
        ColumnStats {
            dtype,
            row_count,
            null_count,
            distinct_count,
            min_num,
            max_num,
            min_text: min_text.map(str::to_string),
            max_text: max_text.map(str::to_string),
            max_text_len,
            histogram,
            most_common: mcv,
            max_key_run,
        }
    }

    pub fn non_null_count(&self) -> u32 {
        self.row_count - self.null_count
    }

    /// Approximate heap bytes of this column's statistics (histogram
    /// arrays, MCV list, text bounds) — the stats line of
    /// [`crate::Database::memory_report`].
    pub fn heap_bytes(&self) -> usize {
        let hist = self
            .histogram
            .as_ref()
            .map(|h| h.bounds.len() * 8 + (h.below.len() + h.at_upper.len()) * 4)
            .unwrap_or(0);
        let mcv: usize = self
            .most_common
            .iter()
            .map(|(v, _)| std::mem::size_of::<Value>() + 4 + v.as_text().map(str::len).unwrap_or(0))
            .sum();
        let text = self.min_text.as_ref().map(String::len).unwrap_or(0)
            + self.max_text.as_ref().map(String::len).unwrap_or(0);
        hist + mcv + text
    }

    /// Estimated fraction of non-null values equal to `v`. Uses the MCV list
    /// when the value is listed, otherwise assumes the residual mass is
    /// spread uniformly over the unlisted distinct values.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        let n = self.non_null_count();
        if n == 0 {
            return 0.0;
        }
        if let Some((_, c)) = self.most_common.iter().find(|(mv, _)| mv == v) {
            return *c as f64 / n as f64;
        }
        let mcv_mass: u32 = self.most_common.iter().map(|(_, c)| *c).sum();
        let rest_distinct = self
            .distinct_count
            .saturating_sub(self.most_common.len() as u32);
        if rest_distinct == 0 {
            return 0.0; // every distinct value is in the MCV list
        }
        let rest_mass = n.saturating_sub(mcv_mass) as f64;
        (rest_mass / rest_distinct as f64 / n as f64).min(1.0)
    }

    /// Estimated fraction of non-null values within `[lo, hi]` (numeric
    /// view). Falls back to a coarse min/max interpolation when no histogram
    /// exists.
    pub fn selectivity_range(&self, lo: f64, hi: f64) -> f64 {
        if let Some(h) = &self.histogram {
            return h.fraction_range(lo, hi);
        }
        match (self.min_num, self.max_num) {
            (Some(mn), Some(mx)) if mx > mn => {
                let lo_c = lo.max(mn);
                let hi_c = hi.min(mx);
                ((hi_c - lo_c) / (mx - mn)).clamp(0.0, 1.0)
            }
            (Some(mn), Some(_)) if lo <= mn && mn <= hi => 1.0,
            (Some(_), Some(_)) => 0.0,
            _ => 0.0,
        }
    }
}

/// All column statistics for one database.
#[derive(Debug, Default)]
pub struct StatsStore {
    per_table: Vec<Vec<ColumnStats>>,
}

impl StatsStore {
    pub fn new() -> StatsStore {
        StatsStore::default()
    }

    pub fn push_table(&mut self, stats: Vec<ColumnStats>) {
        self.per_table.push(stats);
    }

    pub fn column(&self, col: ColumnRef) -> &ColumnStats {
        &self.per_table[col.table.index()][col.column as usize]
    }

    pub fn table(&self, table: TableId) -> &[ColumnStats] {
        &self.per_table[table.index()]
    }

    /// Distinct non-null values of `(table, col)` — the planner's primary
    /// cardinality input for equality selectivity and probe fan-out.
    pub fn distinct_count(&self, table: TableId, col: u32) -> u32 {
        self.per_table[table.index()][col as usize].distinct_count
    }

    /// Longest single-key run of `(table, col)`: how many rows the most
    /// frequent value occupies. Mirrors the longest CSR posting run for
    /// indexed columns (see [`ColumnStats::max_key_run`]) and bounds the
    /// worst-case fan-out of one join probe on skewed data.
    pub fn max_key_run(&self, table: TableId, col: u32) -> u32 {
        self.per_table[table.index()][col as usize].max_key_run
    }

    /// Approximate heap bytes across every column's statistics.
    pub fn heap_bytes(&self) -> usize {
        self.per_table
            .iter()
            .flatten()
            .map(ColumnStats::heap_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};

    fn numeric_table(values: &[f64]) -> (TableSchema, Table, SymbolTable) {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef {
                name: "x".into(),
                dtype: DataType::Decimal,
                nullable: true,
            }],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        for &v in values {
            t.push_row(&s, &mut syms, vec![Value::Decimal(v)]).unwrap();
        }
        (s, t, syms)
    }

    #[test]
    fn histogram_fractions_are_monotone_and_bounded() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = EquiDepthHistogram::build(vals, 16).unwrap();
        assert_eq!(h.total(), 1000);
        assert_eq!(h.fraction_leq(-1.0), 0.0);
        assert_eq!(h.fraction_leq(999.0), 1.0);
        let mid = h.fraction_leq(499.0);
        assert!((mid - 0.5).abs() < 0.05, "mid fraction {mid}");
        let mut prev = 0.0;
        for x in [10.0, 100.0, 250.0, 600.0, 900.0] {
            let f = h.fraction_leq(x);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn histogram_range_estimates() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = EquiDepthHistogram::build(vals, 16).unwrap();
        let f = h.fraction_range(250.0, 749.0);
        assert!((f - 0.5).abs() < 0.06, "range fraction {f}");
        assert_eq!(h.fraction_range(10.0, 5.0), 0.0);
    }

    #[test]
    fn histogram_handles_heavy_duplicates() {
        let mut vals = vec![5.0; 900];
        vals.extend((0..100).map(|i| i as f64 / 10.0));
        let h = EquiDepthHistogram::build(vals, 8).unwrap();
        // >= 90% of the mass sits at exactly 5.0.
        assert!(h.fraction_leq(5.0) > 0.89);
        assert!(h.fraction_leq(4.9) < 0.2);
    }

    #[test]
    fn collect_basic_numeric_stats() {
        let (s, t, syms) = numeric_table(&[3.0, 1.0, 2.0]);
        let st = ColumnStats::collect(&t, &syms, 0, s.columns[0].dtype);
        assert_eq!(st.row_count, 3);
        assert_eq!(st.null_count, 0);
        assert_eq!(st.distinct_count, 3);
        assert_eq!(st.min_num, Some(1.0));
        assert_eq!(st.max_num, Some(3.0));
        assert!(st.max_text_len.is_none());
    }

    #[test]
    fn collect_counts_nulls_and_text_lengths() {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef {
                name: "name".into(),
                dtype: DataType::Text,
                nullable: true,
            }],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        for v in [
            Value::text("Lake Tahoe"),
            Value::Null,
            Value::text("Po"),
            Value::text("Lake Tahoe"),
        ] {
            t.push_row(&s, &mut syms, vec![v]).unwrap();
        }
        let st = ColumnStats::collect(&t, &syms, 0, DataType::Text);
        assert_eq!(st.null_count, 1);
        assert_eq!(st.distinct_count, 2);
        assert_eq!(st.max_text_len, Some(10));
        assert_eq!(st.min_text.as_deref(), Some("Lake Tahoe"));
        assert_eq!(st.max_text.as_deref(), Some("Po"));
        assert_eq!(st.most_common[0], (Value::text("Lake Tahoe"), 2));
    }

    #[test]
    fn selectivity_eq_uses_mcv_then_uniform_residual() {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef {
                name: "x".into(),
                dtype: DataType::Int,
                nullable: false,
            }],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        // 50 copies of 1, then 50 distinct values 100..150.
        for _ in 0..50 {
            t.push_row(&s, &mut syms, vec![Value::Int(1)]).unwrap();
        }
        for i in 100..150 {
            t.push_row(&s, &mut syms, vec![Value::Int(i)]).unwrap();
        }
        let st = ColumnStats::collect(&t, &syms, 0, DataType::Int);
        assert!((st.selectivity_eq(&Value::Int(1)) - 0.5).abs() < 1e-9);
        let unlisted = st.selectivity_eq(&Value::Int(120));
        assert!(unlisted > 0.0 && unlisted < 0.05, "unlisted {unlisted}");
    }

    #[test]
    fn selectivity_range_with_and_without_histogram() {
        let (_, t, syms) = numeric_table(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let st = ColumnStats::collect(&t, &syms, 0, DataType::Decimal);
        let f = st.selectivity_range(0.0, 49.0);
        assert!((f - 0.5).abs() < 0.07, "got {f}");
        // Without a histogram (constant column), min==max fallback path:
        let (_, t2, syms2) = numeric_table(&[7.0, 7.0, 7.0]);
        let st2 = ColumnStats::collect(&t2, &syms2, 0, DataType::Decimal);
        assert_eq!(st2.selectivity_range(6.0, 8.0), 1.0);
        assert_eq!(st2.selectivity_range(8.0, 9.0), 0.0);
    }

    /// The sampled path keeps row/NULL counts exact, repairs numeric
    /// min/max from the frozen zone summary, and lands distinct/MCV
    /// estimates in the right ballpark on both uniform and skewed data.
    #[test]
    fn sampled_stats_track_exact_structure() {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![
                ColumnDef {
                    name: "uniq".into(),
                    dtype: DataType::Int,
                    nullable: true,
                },
                ColumnDef {
                    name: "hub".into(),
                    dtype: DataType::Int,
                    nullable: false,
                },
            ],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        let n: i64 = 200_000;
        for i in 0..n {
            let uniq = if i % 100 == 7 {
                Value::Null
            } else {
                Value::Int(i)
            };
            // 90% of hub rows carry one value; the rest are i.
            let hub = if i % 10 != 0 {
                Value::Int(-1)
            } else {
                Value::Int(i)
            };
            t.push_row(&s, &mut syms, vec![uniq, hub]).unwrap();
        }
        t.freeze_blocks(1024);
        let uniq = ColumnStats::collect_sampled(&t, &syms, 0, DataType::Int);
        assert_eq!(uniq.row_count, n as u32);
        assert_eq!(uniq.null_count, n as u32 / 100);
        // Zone-summary repair makes the bounds exact despite sampling.
        assert_eq!(uniq.min_num, Some(0.0));
        assert_eq!(uniq.max_num, Some((n - 1) as f64));
        // Mostly-unique column: the singleton scale-up should land within a
        // factor of two of the truth (and never exceed the non-null count).
        let truth = uniq.non_null_count() as f64;
        let est = uniq.distinct_count as f64;
        assert!(
            est > truth * 0.5 && est <= truth,
            "distinct est {est} vs {truth}"
        );

        let hub = ColumnStats::collect_sampled(&t, &syms, 1, DataType::Int);
        assert_eq!(hub.null_count, 0);
        // The dominant value is sampled densely; its scaled run should be
        // within 20% of the true 90% mass.
        let run = hub.max_key_run as f64 / hub.non_null_count() as f64;
        assert!((run - 0.9).abs() < 0.2, "hub run fraction {run}");
        assert_eq!(hub.most_common[0].0, Value::Int(-1));
        // Equality selectivity on the hub value stays near 0.9.
        let sel = hub.selectivity_eq(&Value::Int(-1));
        assert!((sel - 0.9).abs() < 0.2, "hub selectivity {sel}");
    }

    #[test]
    fn empty_column_stats() {
        let (_, t, syms) = numeric_table(&[]);
        let st = ColumnStats::collect(&t, &syms, 0, DataType::Decimal);
        assert_eq!(st.row_count, 0);
        assert!(st.histogram.is_none());
        assert_eq!(st.selectivity_eq(&Value::Int(1)), 0.0);
    }
}
