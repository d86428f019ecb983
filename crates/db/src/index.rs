//! Index structures: the CSR hash join index and the inverted keyword index.
//!
//! ## Join indexes (CSR layout)
//!
//! [`JoinIndex`] maps a column's compact `u64` join keys
//! ([`crate::column::Column::join_key_in`]) to the rows carrying them. The
//! layout is CSR-style — one sorted key array, one offsets array, one
//! shared row-id arena — instead of the pointer-heavy
//! `HashMap<u64, Vec<u32>>` it replaces: three flat allocations total, no
//! per-key `Vec`, and the memory footprint is exactly auditable
//! ([`JoinIndex::heap_bytes`], surfaced by
//! [`crate::Database::memory_report`]). Probes go through a small
//! open-addressing hash header when the key count warrants one, falling
//! back to binary search on the sorted keys below that.
//!
//! ## Inverted keyword index
//!
//! Section 2.3 of the paper: *"The way we validate a value constraint on a
//! column is … leveraging the inverted index provided in most DBMS systems."*
//! Commercial systems expose full-text indexes; [`InvertedIndex`] is our own
//! equivalent. The canonical form of each whole cell
//! ([`crate::types::Value::index_key`]) maps to the columns that hold it,
//! which answers the default equality semantics of a value constraint.
//! Other constraints, `CONTAINS` among them, fall back to related-column
//! search's early-exit scan.
//!
//! Related-column discovery asks only "which columns contain this
//! keyword?", so the index keeps column lists, not row ids, and
//! [`crate::Database`] canonicalizes each distinct cell of a column once.

use crate::column::Column;
use crate::schema::ColumnRef;
use crate::types::{KeySpace, ValueRef};
use std::collections::HashMap;

/// Distinct-key count at which a probe header is built; below it, binary
/// search over so few keys beats the header's extra cache line.
const HASH_HEADER_MIN_KEYS: usize = 16;

/// Fibonacci multiplier for the header slot hash (2⁶⁴ / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// CSR hash join index of one column: compact join key → matching rows.
///
/// `keys` is sorted ascending; the rows carrying `keys[i]` are
/// `rows[offsets[i] .. offsets[i + 1]]`, in ascending row order. `header`,
/// when non-empty, is an open-addressing table of key indexes (+1; 0 marks
/// an empty slot) sized to a power of two ≥ 2× the key count.
#[derive(Debug, Default, Clone)]
pub struct JoinIndex {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    rows: Vec<u32>,
    header: Vec<u32>,
    /// Longest single-key posting run, folded during `build` so the
    /// planner's estimation accessors stay O(1).
    max_run: u32,
}

impl JoinIndex {
    /// Build the index of `column`, keying every non-NULL cell in `space`.
    /// NULL cells are excluded: SQL equi-joins never match NULL = NULL.
    pub fn build(column: &Column, space: KeySpace) -> JoinIndex {
        let mut pairs: Vec<(u64, u32)> = (0..column.len())
            .filter_map(|r| column.join_key_in(r, space).map(|k| (k, r as u32)))
            .collect();
        // Sorting by (key, row) groups keys and keeps each group's rows
        // ascending — the same order the HashMap layout accumulated them in.
        pairs.sort_unstable();
        let mut keys: Vec<u64> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut rows: Vec<u32> = Vec::with_capacity(pairs.len());
        for (k, r) in pairs {
            if keys.last() != Some(&k) {
                keys.push(k);
                offsets.push(rows.len() as u32);
            }
            rows.push(r);
            *offsets.last_mut().expect("pushed above") = rows.len() as u32;
        }
        let header = build_header(&keys);
        let max_run = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        JoinIndex {
            keys,
            offsets,
            rows,
            header,
            max_run,
        }
    }

    /// Index of `key` in the sorted key array, via the hash header when
    /// present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.header.is_empty() {
            return self.keys.binary_search(&key).ok();
        }
        let mask = self.header.len() - 1;
        let mut slot =
            (key.wrapping_mul(FIB) >> (64 - self.header.len().trailing_zeros())) as usize;
        loop {
            match self.header[slot] {
                0 => return None,
                e => {
                    let i = (e - 1) as usize;
                    if self.keys[i] == key {
                        return Some(i);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Rows whose cell carries `key` (empty for unknown keys), ascending.
    #[inline]
    pub fn rows(&self, key: u64) -> &[u32] {
        match self.find(key) {
            Some(i) => &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            None => &[],
        }
    }

    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total row ids stored across all keys.
    pub fn indexed_rows(&self) -> usize {
        self.rows.len()
    }

    /// Length of the longest single-key posting run — the worst-case
    /// fan-out of one probe. The cost-based planner blends this with
    /// [`JoinIndex::avg_run`] so a Zipf hub key cannot hide behind a
    /// benign average.
    pub fn max_run(&self) -> usize {
        self.max_run as usize
    }

    /// Mean posting-run length (rows per distinct key); `0.0` when empty.
    pub fn avg_run(&self) -> f64 {
        if self.keys.is_empty() {
            0.0
        } else {
            self.rows.len() as f64 / self.keys.len() as f64
        }
    }

    /// Exact heap bytes of the CSR arrays and probe header — this is the
    /// whole index; there are no per-key allocations to estimate.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 8 + self.offsets.len() * 4 + self.rows.len() * 4 + self.header.len() * 4
    }
}

/// Open-addressing header over the sorted keys (empty below the size
/// threshold). Load factor ≤ 0.5, so probe chains stay short.
fn build_header(keys: &[u64]) -> Vec<u32> {
    if keys.len() < HASH_HEADER_MIN_KEYS {
        return Vec::new();
    }
    let size = (keys.len() * 2).next_power_of_two();
    let shift = 64 - size.trailing_zeros();
    let mask = size - 1;
    let mut header = vec![0u32; size];
    for (i, &k) in keys.iter().enumerate() {
        let mut slot = (k.wrapping_mul(FIB) >> shift) as usize;
        while header[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        header[slot] = (i + 1) as u32;
    }
    header
}

/// Keyword → columns map over an entire database.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    cells: HashMap<String, Vec<ColumnRef>>,
}

impl InvertedIndex {
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Index one cell of `column`. [`crate::Database`] calls this once per
    /// distinct cell of each column, column by column.
    pub fn add(&mut self, column: ColumnRef, value: ValueRef<'_>) {
        let Some(key) = value.index_key() else {
            return; // NULLs are not indexed.
        };
        let columns = self.cells.entry(key).or_default();
        // Columns are indexed one after another, so this column, if
        // present, is the last one.
        if columns.last() != Some(&column) {
            columns.push(column);
        }
    }

    /// The columns holding a cell whose canonical form equals `keyword`
    /// (case-insensitive for text, numeric-normalized for numbers).
    fn columns(&self, keyword: &str) -> &[ColumnRef] {
        self.cells
            .get(&normalize(keyword))
            .map_or(&[], |c| c.as_slice())
    }

    /// Columns that contain `keyword` as an exact cell value.
    pub fn columns_with_cell(&self, keyword: &str) -> impl Iterator<Item = ColumnRef> + '_ {
        self.columns(keyword).iter().copied()
    }

    /// Does `column` contain `keyword` as an exact cell value?
    pub fn column_has_cell(&self, column: ColumnRef, keyword: &str) -> bool {
        self.columns(keyword).contains(&column)
    }

    /// Number of distinct cell keys (diagnostics).
    pub fn distinct_keys(&self) -> usize {
        self.cells.len()
    }

    /// Approximate heap bytes: the map's slots (key, column list and
    /// control byte each), then every key and column list at its
    /// allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let slot = size_of::<String>() + size_of::<Vec<ColumnRef>>() + 1;
        let owned = self
            .cells
            .iter()
            .map(|(key, columns)| key.capacity() + columns.capacity() * size_of::<ColumnRef>());
        self.cells.capacity() * slot + owned.sum::<usize>()
    }
}

fn normalize(s: &str) -> String {
    s.trim().to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;

    fn col(t: u32, c: u32) -> ColumnRef {
        ColumnRef::new(TableId(t), c)
    }

    fn sample_index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add(col(0, 0), ValueRef::Text("Lake Tahoe"));
        ix.add(col(0, 0), ValueRef::Text("Crater Lake"));
        ix.add(col(0, 0), ValueRef::Text("lake tahoe "));
        ix.add(col(0, 1), ValueRef::Decimal(497.0));
        ix.add(col(0, 1), ValueRef::Null);
        ix.add(col(1, 0), ValueRef::Text("Lake Tahoe"));
        ix.add(col(1, 1), ValueRef::Text("California"));
        ix
    }

    #[test]
    fn exact_cell_lookup_is_case_insensitive() {
        let ix = sample_index();
        let cols: Vec<_> = ix.columns_with_cell("lake tahoe").collect();
        // Two spellings of one key in column (0, 0) list it once.
        assert_eq!(cols, vec![col(0, 0), col(1, 0)]);
        assert_eq!(ix.columns_with_cell("LAKE TAHOE").count(), 2);
    }

    #[test]
    fn numeric_cells_match_user_spelling() {
        let ix = sample_index();
        let cols: Vec<_> = ix.columns_with_cell("497").collect();
        assert_eq!(cols, vec![col(0, 1)]);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let ix = sample_index();
        assert_eq!(ix.columns_with_cell("NULL").count(), 0);
        assert_eq!(ix.columns_with_cell("null").count(), 0);
        assert_eq!(ix.distinct_keys(), 4);
    }

    #[test]
    fn column_has_cell_narrows_to_one_column() {
        let ix = sample_index();
        assert!(ix.column_has_cell(col(1, 0), "Lake Tahoe"));
        assert!(!ix.column_has_cell(col(1, 1), "Lake Tahoe"));
    }

    #[test]
    fn missing_keyword_yields_empty() {
        let ix = sample_index();
        assert_eq!(ix.columns_with_cell("atlantis").count(), 0);
        assert!(!ix.column_has_cell(col(0, 0), "atlantis"));
    }

    mod csr {
        use crate::column::Column;
        use crate::index::JoinIndex;
        use crate::interner::SymbolTable;
        use crate::types::{DataType, KeySpace, Value};

        fn int_column(vals: &[Option<i64>]) -> Column {
            let mut syms = SymbolTable::new();
            let mut c = Column::new(DataType::Int);
            for v in vals {
                c.push(v.map(Value::Int).unwrap_or(Value::Null), &mut syms);
            }
            c
        }

        #[test]
        fn groups_rows_per_key_in_ascending_order() {
            let c = int_column(&[Some(7), Some(3), None, Some(7), Some(-1), Some(3)]);
            let ix = JoinIndex::build(&c, KeySpace::Int);
            assert_eq!(ix.len(), 3);
            assert_eq!(ix.indexed_rows(), 5, "NULL row excluded");
            assert_eq!(ix.rows(7i64 as u64), &[0, 3]);
            assert_eq!(ix.rows(3i64 as u64), &[1, 5]);
            assert_eq!(ix.rows(-1i64 as u64), &[4]);
            assert_eq!(ix.rows(99i64 as u64), &[] as &[u32]);
            assert!(ix.contains_key(7i64 as u64));
            assert!(!ix.contains_key(99i64 as u64));
        }

        #[test]
        fn hash_header_and_binary_search_paths_agree() {
            // 1000 distinct keys: well past the header threshold.
            let vals: Vec<Option<i64>> = (0..1000).map(|i| Some(i * 31 - 500)).collect();
            let c = int_column(&vals);
            let with_header = JoinIndex::build(&c, KeySpace::Int);
            assert!(!with_header.header.is_empty());
            let stripped = JoinIndex {
                header: Vec::new(),
                ..with_header.clone()
            };
            for probe in -600i64..600 {
                let k = probe as u64;
                assert_eq!(with_header.rows(k), stripped.rows(k), "key {probe}");
            }
        }

        #[test]
        fn empty_and_tiny_indexes_probe_safely() {
            let empty = JoinIndex::default();
            assert!(empty.is_empty());
            assert_eq!(empty.rows(0), &[] as &[u32]);
            let c = int_column(&[Some(i64::MAX), Some(i64::MIN)]);
            let ix = JoinIndex::build(&c, KeySpace::Int);
            assert!(ix.header.is_empty(), "below header threshold");
            assert_eq!(ix.rows(i64::MAX as u64), &[0]);
            assert_eq!(ix.rows(i64::MIN as u64), &[1]);
            assert_eq!(ix.rows((i64::MAX - 1) as u64), &[] as &[u32]);
        }

        #[test]
        fn heap_bytes_are_exact_over_the_flat_arrays() {
            let c = int_column(&[Some(1), Some(2), Some(2)]);
            let ix = JoinIndex::build(&c, KeySpace::Int);
            // 2 keys * 8 + 3 offsets * 4 + 3 rows * 4 (no header).
            assert_eq!(ix.heap_bytes(), 16 + 12 + 12);
        }
    }
}
