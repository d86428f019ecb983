//! Column discretization for Bayesian network learning.
//!
//! Each column is mapped into a small number of bins: bin 0 is reserved for
//! NULL; text columns get one bin per most-common value plus an `OTHER`
//! bin; numeric (and date/time, via ordinals) columns get equi-depth
//! quantile bins. Every bin keeps a small reservoir of example values so
//! that arbitrary value constraints can be scored per bin at query time.
//! `fit` samples row ids, then stores each reservoir as its distinct
//! values with multiplicities (a text MCV bin's eight samples are one
//! value): each distinct value is materialized once, and scoring evaluates
//! a constraint once per distinct sampled value.

use prism_db::column::{Column, ColumnData};
use prism_db::interner::SymbolTable;
use prism_db::table::Table;
use prism_db::types::{DataType, Value, ValueRef};
use prism_lang::{matches_value, ValueConstraint};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Reserved bin id for NULL cells.
pub const NULL_BIN: u8 = 0;

const SAMPLES_PER_BIN: usize = 8;

/// The binning rule for one column.
#[derive(Debug, Clone)]
enum Binning {
    /// Exact-value bins (text MCVs): value -> bin, else OTHER bin.
    Exact { values: Vec<Value>, other: u8 },
    /// Quantile bins over the numeric view: `cuts[i]` is the inclusive upper
    /// bound of bin `i+1` (bins start after the NULL bin).
    Quantile { cuts: Vec<f64> },
}

/// A trained discretizer for one column.
#[derive(Debug, Clone)]
pub struct Discretizer {
    binning: Binning,
    bin_count: u8,
    /// Reservoir of observed values per bin (index = bin id), as distinct
    /// values (exact identity, see [`Column::cell_identity`]) with the
    /// number of reservoir slots each fills.
    samples: Vec<Vec<(Value, u32)>>,
    /// Observed row count per bin, for exact per-bin predicate fractions.
    bin_rows: Vec<u32>,
}

impl Discretizer {
    /// Learn a discretizer from a typed column, then assign each row a bin.
    /// Returns the discretizer and the per-row bin ids.
    pub fn fit(
        table: &Table,
        syms: &SymbolTable,
        column: u32,
        max_bins: usize,
        rng: &mut StdRng,
    ) -> (Discretizer, Vec<u8>) {
        let col = table.column(column);
        let n = col.len();
        let non_null_count = n as u32 - col.null_count();

        // Every non-text type has a numeric view (date/time via ordinals),
        // so the declared type decides the binning rule.
        let numeric = col.dtype() != DataType::Text && non_null_count > 0;
        let binning = if numeric {
            let mut nums: Vec<f64> = (0..n)
                .filter_map(|r| col.value_ref(syms, r).as_number())
                .collect();
            nums.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            nums.dedup();
            let b = max_bins.max(1).min(nums.len());
            let mut cuts = Vec::with_capacity(b);
            for i in 1..=b {
                let idx = (i * nums.len() / b).saturating_sub(1);
                let cut = nums[idx];
                if cuts.last() != Some(&cut) {
                    cuts.push(cut);
                }
            }
            Binning::Quantile { cuts }
        } else {
            // Frequency-ranked distinct values, capped; the rest fold into
            // the OTHER bin. Dictionary columns count per symbol code and
            // materialize only the ranked distinct values.
            let mut ranked: Vec<(Value, u32)> = match col.data() {
                ColumnData::Sym(codes) => {
                    let mut freq: HashMap<u32, u32> = HashMap::new();
                    for (r, &code) in codes.iter().enumerate() {
                        if !col.is_null(r) {
                            *freq.entry(code).or_insert(0) += 1;
                        }
                    }
                    freq.into_iter()
                        .map(|(code, c)| (syms.value(col.dtype(), code), c))
                        .collect()
                }
                // Numeric columns reach here only when fully NULL.
                _ => Vec::new(),
            };
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranked.truncate(max_bins.max(1));
            let values: Vec<Value> = ranked.into_iter().map(|(v, _)| v).collect();
            let other = (values.len() + 1) as u8;
            Binning::Exact { values, other }
        };

        let bin_count = match &binning {
            Binning::Exact { values, .. } => values.len() as u8 + 2, // null + values + other
            Binning::Quantile { cuts } => cuts.len() as u8 + 1,      // null + quantile bins
        };

        let mut disc = Discretizer {
            binning,
            bin_count,
            samples: Vec::new(),
            bin_rows: vec![0; bin_count as usize],
        };

        let mut assignments = Vec::with_capacity(n);
        let mut reservoirs: Vec<Vec<u32>> = vec![Vec::new(); bin_count as usize];
        for r in 0..n {
            let bin = disc.bin_of_ref(col.value_ref(syms, r));
            assignments.push(bin);
            let seen = disc.bin_rows[bin as usize];
            disc.bin_rows[bin as usize] += 1;
            // Reservoir sampling keeps a uniform sample of rows per bin.
            let slot = &mut reservoirs[bin as usize];
            if slot.len() < SAMPLES_PER_BIN {
                slot.push(r as u32);
            } else {
                let j = rng.gen_range(0..=seen as usize);
                if j < SAMPLES_PER_BIN {
                    slot[j] = r as u32;
                }
            }
        }
        disc.samples = reservoirs
            .iter()
            .map(|rows| distinct_values(col, syms, rows))
            .collect();
        (disc, assignments)
    }

    /// Number of bins, including the NULL bin.
    pub fn bin_count(&self) -> u8 {
        self.bin_count
    }

    /// The bin of a value.
    pub fn bin_of(&self, v: &Value) -> u8 {
        self.bin_of_ref(v.as_value_ref())
    }

    /// The bin of a borrowed cell view (no materialization).
    pub fn bin_of_ref(&self, v: ValueRef<'_>) -> u8 {
        if v.is_null() {
            return NULL_BIN;
        }
        match &self.binning {
            Binning::Exact { values, other } => values
                .iter()
                .position(|x| x.as_value_ref() == v)
                .map(|i| (i + 1) as u8)
                .unwrap_or(*other),
            Binning::Quantile { cuts } => {
                let Some(x) = v.as_number() else {
                    // A stray non-numeric value in a numeric column: last bin.
                    return self.bin_count - 1;
                };
                match cuts.iter().position(|&c| x <= c) {
                    Some(i) => (i + 1) as u8,
                    None => cuts.len() as u8, // above the top cut: clamp
                }
            }
        }
    }

    /// Estimated fraction of this bin's rows that satisfy `c`, from the
    /// bin's reservoir sample: the multiplicity of the matching distinct
    /// values over the reservoir size. NULL bins satisfy nothing.
    pub fn bin_match_fraction(&self, bin: u8, c: &ValueConstraint) -> f64 {
        if bin == NULL_BIN {
            return 0.0;
        }
        let sample = &self.samples[bin as usize];
        if sample.is_empty() {
            return 0.0;
        }
        let (mut hits, mut size) = (0u32, 0u32);
        for (v, m) in sample {
            size += m;
            if matches_value(c, v) {
                hits += m;
            }
        }
        f64::from(hits) / f64::from(size)
    }

    /// The reservoir of `bin`: its distinct sampled values, each with the
    /// number of reservoir slots it fills.
    pub fn bin_sample(&self, bin: u8) -> &[(Value, u32)] {
        &self.samples[bin as usize]
    }

    /// Observed rows in each bin during training.
    pub fn bin_rows(&self) -> &[u32] {
        &self.bin_rows
    }
}

/// The distinct cells of `rows` (by [`Column::cell_identity`]), each
/// materialized once, with the number of rows holding it.
fn distinct_values(col: &Column, syms: &SymbolTable, rows: &[u32]) -> Vec<(Value, u32)> {
    let mut distinct: Vec<(Option<u64>, usize, u32)> = Vec::with_capacity(rows.len());
    for &r in rows {
        let id = col.cell_identity(r as usize);
        match distinct.iter_mut().find(|d| d.0 == id) {
            Some(d) => d.2 += 1,
            None => distinct.push((id, r as usize, 1)),
        }
    }
    distinct
        .into_iter()
        .map(|(_, r, m)| (col.value_ref(syms, r).to_value(), m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_db::schema::{ColumnDef, TableSchema};
    use prism_db::types::DataType;
    use prism_lang::parse_value_constraint;
    use rand::SeedableRng;

    fn text_table(values: &[Option<&str>]) -> (TableSchema, Table, SymbolTable) {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef::new("c", DataType::Text)],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        for v in values {
            t.push_row(
                &s,
                &mut syms,
                vec![v.map(Value::text).unwrap_or(Value::Null)],
            )
            .unwrap();
        }
        (s, t, syms)
    }

    fn num_table(values: &[Option<f64>]) -> (TableSchema, Table, SymbolTable) {
        let s = TableSchema {
            name: "T".into(),
            columns: vec![ColumnDef::new("c", DataType::Decimal)],
        };
        let mut syms = SymbolTable::new();
        let mut t = Table::new(&s);
        for v in values {
            t.push_row(
                &s,
                &mut syms,
                vec![v.map(Value::Decimal).unwrap_or(Value::Null)],
            )
            .unwrap();
        }
        (s, t, syms)
    }

    #[test]
    fn text_column_gets_exact_bins_plus_other() {
        let (_, t, syms) =
            text_table(&[Some("a"), Some("a"), Some("b"), Some("c"), Some("d"), None]);
        let mut rng = StdRng::seed_from_u64(1);
        let (d, bins) = Discretizer::fit(&t, &syms, 0, 2, &mut rng);
        // null + 2 MCVs + other = 4 bins.
        assert_eq!(d.bin_count(), 4);
        assert_eq!(bins.len(), 6);
        assert_eq!(bins[5], NULL_BIN);
        // "a" (most common) and the dedup winner "b" get their own bins.
        assert_eq!(bins[0], bins[1]);
        assert_ne!(bins[0], bins[2]);
        // c and d share the OTHER bin.
        assert_eq!(bins[3], bins[4]);
    }

    #[test]
    fn numeric_column_quantile_bins_are_ordered() {
        let vals: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let (_, t, syms) = num_table(&vals);
        let mut rng = StdRng::seed_from_u64(1);
        let (d, bins) = Discretizer::fit(&t, &syms, 0, 4, &mut rng);
        assert_eq!(d.bin_count(), 5); // null + 4 quantile bins
                                      // Bins must be monotone in the value.
        for w in bins.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(d.bin_of(&Value::Decimal(0.0)), 1);
        assert_eq!(d.bin_of(&Value::Decimal(99.0)), 4);
        // Out-of-range values clamp to the extreme bins.
        assert_eq!(d.bin_of(&Value::Decimal(1e9)), 4);
        assert_eq!(d.bin_of(&Value::Decimal(-1e9)), 1);
    }

    #[test]
    fn bin_match_fraction_scores_predicates() {
        let vals: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let (_, t, syms) = num_table(&vals);
        let mut rng = StdRng::seed_from_u64(7);
        let (d, _) = Discretizer::fit(&t, &syms, 0, 4, &mut rng);
        let low = parse_value_constraint("< 25").unwrap();
        // Bin 1 covers the lowest quartile: all its samples satisfy `< 25`.
        assert!(d.bin_match_fraction(1, &low) > 0.99);
        // The top bin has no values below 25.
        assert_eq!(d.bin_match_fraction(4, &low), 0.0);
        // NULL bin never matches.
        assert_eq!(d.bin_match_fraction(NULL_BIN, &low), 0.0);
    }

    #[test]
    fn constant_column_collapses_to_one_bin() {
        let (_, t, syms) = num_table(&[Some(5.0), Some(5.0), Some(5.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let (d, bins) = Discretizer::fit(&t, &syms, 0, 8, &mut rng);
        assert_eq!(d.bin_count(), 2); // null + single value bin
        assert!(bins.iter().all(|&b| b == 1));
    }

    #[test]
    fn all_null_column_is_handled() {
        let (_, t, syms) = text_table(&[None, None]);
        let mut rng = StdRng::seed_from_u64(1);
        let (d, bins) = Discretizer::fit(&t, &syms, 0, 4, &mut rng);
        assert!(bins.iter().all(|&b| b == NULL_BIN));
        assert!(d.bin_count() >= 1);
    }

    #[test]
    fn bin_rows_counts_match_assignments() {
        let (_, t, syms) = text_table(&[Some("a"), Some("a"), Some("b"), None]);
        let mut rng = StdRng::seed_from_u64(1);
        let (d, bins) = Discretizer::fit(&t, &syms, 0, 4, &mut rng);
        let total: u32 = d.bin_rows().iter().sum();
        assert_eq!(total as usize, bins.len());
        assert_eq!(d.bin_rows()[NULL_BIN as usize], 1);
    }
}
