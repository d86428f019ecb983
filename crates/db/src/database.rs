//! The immutable, preprocessed database.
//!
//! A [`Database`] is assembled once through [`DatabaseBuilder`] and then
//! frozen. `build()` performs the preprocessing the paper assumes happens "a
//! priori": it populates the inverted index, collects per-column statistics,
//! derives the schema graph from the declared foreign keys, and materializes
//! hash join indexes for every column that participates in a join edge.
//!
//! Join indexes are keyed on the compact `u64` join keys of
//! [`crate::column::Column::join_key`] — never on `Value` — so probe loops
//! stay allocation- and hash-heavy-`Value`-free (see the `column` module
//! docs for the key contract).

use crate::batch::ColumnBatch;
use crate::error::DbError;
use crate::graph::{JoinEdge, SchemaGraph};
use crate::index::{InvertedIndex, JoinIndex};
use crate::interner::SymbolTable;
use crate::schema::{Catalog, ColumnDef, ColumnRef, ForeignKey, TableId, TableSchema};
use crate::stats::{ColumnStats, StatsStore};
use crate::table::Table;
use crate::types::{DataType, KeySpace, Value, ValueRef};
use std::collections::{HashMap, HashSet};

impl ColumnDef {
    /// A nullable column (the common case in Mondial-style data).
    pub fn new(name: impl Into<String>, dtype: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// Mark this column NOT NULL.
    pub fn not_null(mut self) -> ColumnDef {
        self.nullable = false;
        self
    }
}

/// Default rows per zone-map block unless
/// [`DatabaseBuilder::with_block_rows`] overrides it.
pub const DEFAULT_BLOCK_ROWS: usize = 1024;

/// Bounds on configurable block sizes: tiny blocks drown the data in
/// metadata, huge ones never prune.
const MIN_BLOCK_ROWS: usize = 16;
const MAX_BLOCK_ROWS: usize = 1 << 22;

/// Incrementally assembles a [`Database`].
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    name: String,
    catalog: Catalog,
    tables: Vec<Table>,
    symbols: SymbolTable,
    block_rows: Option<usize>,
    ingest: IngestReport,
}

impl DatabaseBuilder {
    pub fn new(name: impl Into<String>) -> DatabaseBuilder {
        DatabaseBuilder {
            name: name.into(),
            catalog: Catalog::new(),
            tables: Vec::new(),
            symbols: SymbolTable::new(),
            block_rows: None,
            ingest: IngestReport::default(),
        }
    }

    /// The block size `build()` will freeze at, resolved now. Columns get
    /// this as their incremental-zone hint at declaration so bulk appends
    /// fold zone maps block-by-block; if the effective size changes later
    /// (a late [`DatabaseBuilder::with_block_rows`]), the freeze falls back
    /// to a full re-scan — correctness never depends on the hint.
    fn resolved_block_rows(&self) -> usize {
        self.block_rows.unwrap_or(DEFAULT_BLOCK_ROWS)
    }

    /// Mutable ingest accounting (the CSV ingest path updates it).
    pub(crate) fn ingest_mut(&mut self) -> &mut IngestReport {
        &mut self.ingest
    }

    /// Override the zone-map block size for this database (rows per block,
    /// clamped to sane bounds). Defaults to [`DEFAULT_BLOCK_ROWS`]. Tests
    /// use this to exercise many-block layouts.
    pub fn with_block_rows(mut self, rows: usize) -> DatabaseBuilder {
        self.block_rows = Some(rows.clamp(MIN_BLOCK_ROWS, MAX_BLOCK_ROWS));
        self
    }

    /// Declare a table.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
    ) -> Result<TableId, DbError> {
        let schema = TableSchema {
            name: name.into(),
            columns,
        };
        let id = self.catalog.add_table(schema)?;
        let mut table = Table::new(self.catalog.table(id));
        table.set_zone_hint(self.resolved_block_rows());
        self.tables.push(table);
        Ok(id)
    }

    /// An empty [`ColumnBatch`] shaped like a declared table, for the typed
    /// bulk-append path.
    pub fn new_batch(&self, table: &str) -> Result<ColumnBatch, DbError> {
        let tid = self
            .catalog
            .table_id(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        Ok(ColumnBatch::for_schema(self.catalog.table(tid)))
    }

    /// Bulk-append a typed batch into a declared table — the zero-`Value`
    /// counterpart of [`DatabaseBuilder::add_rows`]. Arity, column lengths,
    /// types, and NOT NULL are validated per batch; see
    /// [`crate::Table::append_batch`].
    pub fn append_batch(&mut self, table: &str, batch: ColumnBatch) -> Result<(), DbError> {
        let tid = self
            .catalog
            .table_id(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let schema = self.catalog.table(tid);
        let rows = batch.rows();
        self.tables[tid.index()].append_batch(schema, &mut self.symbols, batch)?;
        self.ingest.batch_rows += rows;
        Ok(())
    }

    /// [`DatabaseBuilder::append_batch`] by table id, without the bulk-batch
    /// accounting — the CSV ingest path uses this and reports its rows under
    /// the CSV counters instead.
    pub(crate) fn append_batch_internal(
        &mut self,
        tid: TableId,
        batch: ColumnBatch,
    ) -> Result<(), DbError> {
        let schema = self.catalog.table(tid);
        self.tables[tid.index()].append_batch(schema, &mut self.symbols, batch)
    }

    /// Insert one row into a declared table.
    pub fn add_row(&mut self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        let tid = self
            .catalog
            .table_id(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let schema = self.catalog.table(tid);
        self.tables[tid.index()].push_row(schema, &mut self.symbols, row)
    }

    /// Insert many rows into a declared table.
    pub fn add_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), DbError> {
        for row in rows {
            self.add_row(table, row)?;
        }
        Ok(())
    }

    /// Declare a joinable column pair: `from_table.from_col` references
    /// `to_table.to_col`. This becomes an edge of the schema graph.
    pub fn add_foreign_key(
        &mut self,
        from_table: &str,
        from_col: &str,
        to_table: &str,
        to_col: &str,
    ) -> Result<(), DbError> {
        let from = self.catalog.column_ref(from_table, from_col)?;
        let to = self.catalog.column_ref(to_table, to_col)?;
        self.catalog.add_foreign_key(ForeignKey { from, to })
    }

    /// Freeze the database and run all preprocessing.
    pub fn build(self) -> Database {
        let DatabaseBuilder {
            name,
            catalog,
            mut tables,
            symbols,
            block_rows,
            ingest,
        } = self;

        // Partition every column into fixed-size blocks and compute zone
        // maps; the executor prunes against them (see `column` module docs).
        let block_rows = block_rows.unwrap_or(DEFAULT_BLOCK_ROWS);
        for t in &mut tables {
            t.freeze_blocks(block_rows);
        }

        // Inverted index over every column's distinct cells: each is
        // canonicalized once, however many rows repeat it.
        let mut index = InvertedIndex::new();
        for (tid, schema) in catalog.tables() {
            let table = &tables[tid.index()];
            for c in 0..schema.arity() as u32 {
                let col = table.column(c);
                let mut seen: HashSet<u64> = HashSet::new();
                for r in 0..col.len() {
                    if col.cell_identity(r).is_some_and(|id| seen.insert(id)) {
                        index.add(ColumnRef::new(tid, c), col.value_ref(&symbols, r));
                    }
                }
            }
        }

        // Column statistics. Tables past the exact threshold use the
        // sampled path so a 10M-row ingest does not pay a second full
        // per-column scan.
        let mut stats = StatsStore::new();
        for (tid, schema) in catalog.tables() {
            let table = &tables[tid.index()];
            let sampled = table.row_count() > crate::stats::STATS_EXACT_ROWS;
            let per_col = schema
                .columns
                .iter()
                .enumerate()
                .map(|(c, def)| {
                    if sampled {
                        ColumnStats::collect_sampled(table, &symbols, c as u32, def.dtype)
                    } else {
                        ColumnStats::collect(table, &symbols, c as u32, def.dtype)
                    }
                })
                .collect();
            stats.push_table(per_col);
        }

        // Schema graph from foreign keys.
        let edges: Vec<JoinEdge> = catalog
            .foreign_keys()
            .iter()
            .map(|fk| JoinEdge {
                a: fk.from,
                b: fk.to,
            })
            .collect();
        let graph = SchemaGraph::new(catalog.table_count(), edges);

        // Assign every column its join-key space: native per type, except
        // that Int columns in an FK-connected component containing a
        // Decimal column demote to F64 so the whole component shares one
        // space (an Int FK must be able to probe a Decimal PK index). A
        // fixpoint over the (few) FK edges settles the components.
        let mut key_spaces: Vec<Vec<KeySpace>> = catalog
            .tables()
            .map(|(_, schema)| {
                schema
                    .columns
                    .iter()
                    .map(|def| def.dtype.native_key_space())
                    .collect()
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for fk in catalog.foreign_keys() {
                let a = key_spaces[fk.from.table.index()][fk.from.column as usize];
                let b = key_spaces[fk.to.table.index()][fk.to.column as usize];
                if a != b && a != KeySpace::Sym && b != KeySpace::Sym {
                    key_spaces[fk.from.table.index()][fk.from.column as usize] = KeySpace::F64;
                    key_spaces[fk.to.table.index()][fk.to.column as usize] = KeySpace::F64;
                    changed = true;
                }
            }
        }

        // CSR join indexes for every column touched by a join edge, keyed
        // on compact join keys in the column's assigned space. NULL keys
        // are excluded: SQL equi-joins never match NULL = NULL.
        let mut join_indexes: HashMap<ColumnRef, JoinIndex> = HashMap::new();
        for fk in catalog.foreign_keys() {
            for col in [fk.from, fk.to] {
                let space = key_spaces[col.table.index()][col.column as usize];
                join_indexes.entry(col).or_insert_with(|| {
                    JoinIndex::build(tables[col.table.index()].column(col.column), space)
                });
            }
        }

        Database {
            name,
            catalog,
            tables,
            symbols,
            index,
            stats,
            graph,
            join_indexes,
            key_spaces,
            block_rows,
            ingest,
        }
    }
}

/// A frozen, fully preprocessed database.
#[derive(Debug)]
pub struct Database {
    name: String,
    catalog: Catalog,
    tables: Vec<Table>,
    symbols: SymbolTable,
    index: InvertedIndex,
    stats: StatsStore,
    graph: SchemaGraph,
    join_indexes: HashMap<ColumnRef, JoinIndex>,
    /// Per-table, per-column assigned join-key space (see `build`).
    key_spaces: Vec<Vec<KeySpace>>,
    /// Rows per zone-map block, fixed at build time.
    block_rows: usize,
    /// Ingest-side accounting accumulated by the builder.
    ingest: IngestReport,
}

impl Database {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// The database-wide value interner.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    pub fn row_count(&self, id: TableId) -> usize {
        self.tables[id.index()].row_count()
    }

    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::row_count).sum()
    }

    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    pub fn stats(&self) -> &StatsStore {
        &self.stats
    }

    pub fn graph(&self) -> &SchemaGraph {
        &self.graph
    }

    /// The precomputed hash join index of a column, if it participates in
    /// any join edge.
    pub fn join_index(&self, col: ColumnRef) -> Option<&JoinIndex> {
        self.join_indexes.get(&col)
    }

    /// The join-key space assigned to a column at build time: native per
    /// type, except Int columns whose FK component reaches a Decimal
    /// column (those key in [`KeySpace::F64`]). Both endpoints of every
    /// declared FK edge share a space by construction.
    #[inline]
    pub fn key_space(&self, col: ColumnRef) -> KeySpace {
        self.key_spaces[col.table.index()][col.column as usize]
    }

    /// Compact join key of one cell in the column's assigned key space
    /// (`None` for NULL). Keys of two columns compare meaningfully only
    /// when the columns share a space — FK edge endpoints always do.
    #[inline]
    pub fn join_key(&self, col: ColumnRef, row: u32) -> Option<u64> {
        self.tables[col.table.index()]
            .column(col.column)
            .join_key_in(row as usize, self.key_space(col))
    }

    /// Borrowed cell view via a [`ColumnRef`] (zero-copy).
    pub fn value_ref(&self, col: ColumnRef, row: u32) -> ValueRef<'_> {
        self.tables[col.table.index()].value_ref(&self.symbols, row, col.column)
    }

    /// Owned cell value via a [`ColumnRef`] (materializes text).
    pub fn value(&self, col: ColumnRef, row: u32) -> Value {
        self.value_ref(col, row).to_value()
    }

    /// Rows per zone-map block, fixed when the database was built
    /// ([`DatabaseBuilder::with_block_rows`], else [`DEFAULT_BLOCK_ROWS`]).
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Audit the frozen database's memory: per-table column bytes (data
    /// vectors + null bitmaps + zone maps), per-join-index bytes, and the
    /// keyword index. CSR made the join indexes exact — three flat arrays
    /// plus the probe header, no per-key allocations to estimate.
    pub fn memory_report(&self) -> MemoryReport {
        let tables = self
            .catalog
            .tables()
            .map(|(tid, schema)| {
                let t = &self.tables[tid.index()];
                TableMemory {
                    table: schema.name.clone(),
                    rows: t.row_count(),
                    column_bytes: t.column_bytes(),
                    zone_map_bytes: t.zone_map_bytes(),
                }
            })
            .collect();
        let mut indexes: Vec<JoinIndexMemory> = self
            .join_indexes
            .iter()
            .map(|(&col, ix)| JoinIndexMemory {
                table: self.catalog.table(col.table).name.clone(),
                column: self
                    .catalog
                    .table(col.table)
                    .column(col.column)
                    .name
                    .clone(),
                distinct_keys: ix.len(),
                indexed_rows: ix.indexed_rows(),
                bytes: ix.heap_bytes(),
            })
            .collect();
        indexes.sort_by(|a, b| (&a.table, &a.column).cmp(&(&b.table, &b.column)));
        MemoryReport {
            block_rows: self.block_rows,
            tables,
            indexes,
            keyword_index_bytes: self.index.heap_bytes(),
            interner_bytes: self.symbols.heap_bytes(),
            stats_bytes: self.stats.heap_bytes(),
            ingest: self.ingest.clone(),
        }
    }

    /// Ingest-side accounting: CSV bytes/rows/time and bulk-batch rows
    /// accumulated while the builder loaded data.
    pub fn ingest_report(&self) -> &IngestReport {
        &self.ingest
    }
}

/// Ingest-side accounting, accumulated by [`DatabaseBuilder`] across every
/// CSV ingest and bulk-batch append, and surfaced by
/// [`Database::memory_report`]. All fields are integers so the report stays
/// `Eq`; derived rates are methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// CSV bytes parsed by the streaming reader.
    pub csv_bytes: usize,
    /// Rows ingested through the streaming CSV reader.
    pub csv_rows: usize,
    /// Wall nanoseconds spent parsing CSV (scan + typed parse + append).
    pub csv_parse_nanos: u64,
    /// Widest parse-thread count used by any CSV ingest (1 = sequential).
    pub parse_threads: usize,
    /// Rows ingested through the typed bulk-append path.
    pub batch_rows: usize,
}

impl IngestReport {
    /// CSV rows per second (`None` when nothing was CSV-ingested).
    pub fn rows_per_sec(&self) -> Option<f64> {
        (self.csv_parse_nanos > 0)
            .then(|| self.csv_rows as f64 / (self.csv_parse_nanos as f64 / 1e9))
    }

    /// CSV megabytes per second (`None` when nothing was CSV-ingested).
    pub fn mb_per_sec(&self) -> Option<f64> {
        (self.csv_parse_nanos > 0)
            .then(|| self.csv_bytes as f64 / 1e6 / (self.csv_parse_nanos as f64 / 1e9))
    }
}

/// Memory audit of one table's column storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMemory {
    pub table: String,
    pub rows: usize,
    /// Data vectors + null bitmaps + zone maps.
    pub column_bytes: usize,
    /// Zone-map share of `column_bytes`.
    pub zone_map_bytes: usize,
}

/// Memory audit of one CSR join index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinIndexMemory {
    pub table: String,
    pub column: String,
    pub distinct_keys: usize,
    pub indexed_rows: usize,
    /// Exact heap bytes of the keys/offsets/rows arrays and probe header.
    pub bytes: usize,
}

/// The result of [`Database::memory_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport {
    pub block_rows: usize,
    pub tables: Vec<TableMemory>,
    pub indexes: Vec<JoinIndexMemory>,
    /// Approximate inverted keyword index bytes (cell keys and column
    /// lists).
    pub keyword_index_bytes: usize,
    /// Approximate dictionary (interner) bytes, shared by every table.
    pub interner_bytes: usize,
    /// Approximate per-column statistics bytes.
    pub stats_bytes: usize,
    /// Ingest-side accounting (CSV parse throughput, bulk-batch rows).
    pub ingest: IngestReport,
}

impl MemoryReport {
    /// Column bytes summed over all tables.
    pub fn total_column_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.column_bytes).sum()
    }

    /// Column storage is append-only, so the ingest-time peak equals the
    /// final total: data vectors + null bitmaps + zone maps across tables.
    pub fn peak_column_bytes(&self) -> usize {
        self.total_column_bytes()
    }

    /// Join-index bytes summed over all indexed columns.
    pub fn join_index_bytes(&self) -> usize {
        self.indexes.iter().map(|i| i.bytes).sum()
    }

    /// Every index's bytes: the join indexes plus the keyword index.
    pub fn total_index_bytes(&self) -> usize {
        self.join_index_bytes() + self.keyword_index_bytes
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "columns: {} B across {} tables (zone maps {} B @ {} rows/block)",
            self.total_column_bytes(),
            self.tables.len(),
            self.tables.iter().map(|t| t.zone_map_bytes).sum::<usize>(),
            self.block_rows,
        )?;
        for t in &self.tables {
            writeln!(
                f,
                "  {:<16} {:>8} rows  {:>10} B",
                t.table, t.rows, t.column_bytes
            )?;
        }
        writeln!(
            f,
            "join indexes: {} B across {} columns (CSR)",
            self.join_index_bytes(),
            self.indexes.len(),
        )?;
        for i in &self.indexes {
            writeln!(
                f,
                "  {:<16} {:>8} keys  {:>10} B  ({} rows)",
                format!("{}.{}", i.table, i.column),
                i.distinct_keys,
                i.bytes,
                i.indexed_rows,
            )?;
        }
        writeln!(f, "keyword index: ~{} B", self.keyword_index_bytes)?;
        if self.ingest.csv_rows > 0 || self.ingest.batch_rows > 0 {
            writeln!(
                f,
                "ingest: {} csv rows ({} B, {:.1} MB/s, {:.0} rows/s, {} threads), {} batch rows",
                self.ingest.csv_rows,
                self.ingest.csv_bytes,
                self.ingest.mb_per_sec().unwrap_or(0.0),
                self.ingest.rows_per_sec().unwrap_or(0.0),
                self.ingest.parse_threads.max(1),
                self.ingest.batch_rows,
            )?;
        }
        writeln!(
            f,
            "interner: ~{} B, column stats: ~{} B",
            self.interner_bytes, self.stats_bytes
        )
    }
}

/// The scheduler's parallel validation engine shares the frozen database
/// (and everything reachable from it) immutably across worker threads.
/// Keep the proof at the type level: an accidental `Rc`/`RefCell`/raw-ptr
/// regression in any reachable structure fails to compile here.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Database>();
    _assert_send_sync::<JoinIndex>();
    _assert_send_sync::<SymbolTable>();
    _assert_send_sync::<InvertedIndex>();
    _assert_send_sync::<StatsStore>();
    _assert_send_sync::<crate::column::Column>();
    _assert_send_sync::<crate::column::BlockMeta>();
    _assert_send_sync::<crate::exec::ExecStats>();
    // Prepared plans live in caches shared by validation workers; the
    // scratch is per-thread but must be movable into worker threads.
    _assert_send_sync::<crate::exec::PreparedQuery>();
    _assert_send_sync::<crate::exec::ExecScratch>();
    _assert_send_sync::<MemoryReport>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A two-table toy database shaped like the paper's motivating example.
    pub(crate) fn lakes_db() -> Database {
        let mut b = DatabaseBuilder::new("toy");
        b.add_table(
            "Lake",
            vec![
                ColumnDef::new("Name", DataType::Text).not_null(),
                ColumnDef::new("Area", DataType::Decimal),
            ],
        )
        .unwrap();
        b.add_table(
            "geo_lake",
            vec![
                ColumnDef::new("Lake", DataType::Text).not_null(),
                ColumnDef::new("Province", DataType::Text).not_null(),
            ],
        )
        .unwrap();
        b.add_rows(
            "Lake",
            vec![
                vec!["Lake Tahoe".into(), Value::Decimal(497.0)],
                vec!["Crater Lake".into(), Value::Decimal(53.2)],
                vec!["Fort Peck Lake".into(), Value::Decimal(981.0)],
                vec!["Dead Lake".into(), Value::Null],
            ],
        )
        .unwrap();
        b.add_rows(
            "geo_lake",
            vec![
                vec!["Lake Tahoe".into(), "California".into()],
                vec!["Lake Tahoe".into(), "Nevada".into()],
                vec!["Crater Lake".into(), "Oregon".into()],
                vec!["Fort Peck Lake".into(), "Montana".into()],
            ],
        )
        .unwrap();
        b.add_foreign_key("geo_lake", "Lake", "Lake", "Name")
            .unwrap();
        b.build()
    }

    #[test]
    fn build_populates_index_stats_graph() {
        let db = lakes_db();
        assert_eq!(db.total_rows(), 8);
        // Inverted index finds Lake Tahoe in both tables.
        let cols: Vec<_> = db.index().columns_with_cell("lake tahoe").collect();
        assert_eq!(cols.len(), 2);
        // Stats know Area's min/max (NULL excluded).
        let area = db.catalog().column_ref("Lake", "Area").unwrap();
        let st = db.stats().column(area);
        assert_eq!(st.min_num, Some(53.2));
        assert_eq!(st.max_num, Some(981.0));
        assert_eq!(st.null_count, 1);
        // Graph has the declared FK edge.
        assert_eq!(db.graph().edge_count(), 1);
    }

    #[test]
    fn join_index_excludes_nulls_and_covers_fk_columns() {
        let db = lakes_db();
        let name = db.catalog().column_ref("Lake", "Name").unwrap();
        let ji = db.join_index(name).expect("FK column has a join index");
        // Probe by the compact key of the geo_lake side: interning makes the
        // key of "Lake Tahoe" identical across tables.
        let geo_lake = db.catalog().column_ref("geo_lake", "Lake").unwrap();
        let key = db.join_key(geo_lake, 0).unwrap();
        assert_eq!(ji.rows(key), &[0]);
        // Dead Lake's NULL area produced no join-index entry anywhere; a
        // NULL cell has no key at all.
        let area = db.catalog().column_ref("Lake", "Area").unwrap();
        assert_eq!(db.join_key(area, 3), None);
        // Non-FK column has no join index.
        assert!(db.join_index(area).is_none());
    }

    #[test]
    fn symbols_are_shared_across_tables() {
        let db = lakes_db();
        let lake_name = db.catalog().column_ref("Lake", "Name").unwrap();
        let geo_lake = db.catalog().column_ref("geo_lake", "Lake").unwrap();
        // "Lake Tahoe" row 0 in Lake and rows 0/1 in geo_lake: same key.
        assert_eq!(db.join_key(lake_name, 0), db.join_key(geo_lake, 0));
        assert_eq!(db.join_key(geo_lake, 0), db.join_key(geo_lake, 1));
        assert_eq!(db.value_ref(geo_lake, 0), ValueRef::Text("Lake Tahoe"));
    }

    /// Regression for the ROADMAP `f64`-view collision: Int↔Int edges key
    /// on raw `i64` bits, so integers adjacent to `i64::MAX` (which share
    /// an `f64` image) must not join as equal.
    #[test]
    fn int_join_keys_are_exact_at_i64_max_adjacent_values() {
        let mut b = DatabaseBuilder::new("bigint");
        b.add_table("P", vec![ColumnDef::new("id", DataType::Int).not_null()])
            .unwrap();
        b.add_table("F", vec![ColumnDef::new("p", DataType::Int).not_null()])
            .unwrap();
        // i64::MAX and i64::MAX - 1 round to the same f64; under the old
        // f64-bit keys the FK row joined both parents.
        b.add_rows(
            "P",
            vec![vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MAX - 1)]],
        )
        .unwrap();
        b.add_row("F", vec![Value::Int(i64::MAX - 1)]).unwrap();
        b.add_foreign_key("F", "p", "P", "id").unwrap();
        let db = b.build();
        let p_id = db.catalog().column_ref("P", "id").unwrap();
        let f_p = db.catalog().column_ref("F", "p").unwrap();
        assert_eq!(db.key_space(p_id), KeySpace::Int);
        assert_eq!(db.key_space(f_p), KeySpace::Int);
        let ix = db.join_index(p_id).expect("PK side indexed");
        let key = db.join_key(f_p, 0).unwrap();
        assert_eq!(ix.rows(key), &[1], "only the exact integer may match");
        // End-to-end: the join yields exactly one pair.
        let q = crate::exec::PjQuery {
            nodes: vec![
                db.catalog().table_id("F").unwrap(),
                db.catalog().table_id("P").unwrap(),
            ],
            joins: vec![crate::exec::JoinCond {
                left_node: 0,
                left_col: 0,
                right_node: 1,
                right_col: 0,
            }],
            projection: vec![(1, 0)],
        };
        let rows = q.execute(&db, 10).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(i64::MAX - 1)]]);
    }

    /// An Int FK into a Decimal PK demotes the whole component to the f64
    /// key space, keeping cross-type joins working.
    #[test]
    fn int_decimal_fk_component_shares_the_f64_space() {
        let mut b = DatabaseBuilder::new("mixed");
        b.add_table(
            "P",
            vec![ColumnDef::new("id", DataType::Decimal).not_null()],
        )
        .unwrap();
        b.add_table("F", vec![ColumnDef::new("p", DataType::Int).not_null()])
            .unwrap();
        // A second Int↔Int edge hanging off the same component must demote
        // too (spaces are a component property, not an edge property).
        b.add_table("G", vec![ColumnDef::new("f", DataType::Int).not_null()])
            .unwrap();
        b.add_rows(
            "P",
            vec![vec![Value::Decimal(7.0)], vec![Value::Decimal(8.5)]],
        )
        .unwrap();
        b.add_row("F", vec![Value::Int(7)]).unwrap();
        b.add_row("G", vec![Value::Int(7)]).unwrap();
        b.add_foreign_key("F", "p", "P", "id").unwrap();
        b.add_foreign_key("G", "f", "F", "p").unwrap();
        let db = b.build();
        for (t, c) in [("P", "id"), ("F", "p"), ("G", "f")] {
            let col = db.catalog().column_ref(t, c).unwrap();
            assert_eq!(db.key_space(col), KeySpace::F64, "{t}.{c}");
        }
        // Int 7 probes the Decimal index and matches 7.0.
        let p_id = db.catalog().column_ref("P", "id").unwrap();
        let f_p = db.catalog().column_ref("F", "p").unwrap();
        let ix = db.join_index(p_id).unwrap();
        assert_eq!(ix.rows(db.join_key(f_p, 0).unwrap()), &[0]);
    }

    #[test]
    fn build_freezes_zone_maps_at_the_configured_block_size() {
        let mut b = DatabaseBuilder::new("blocks").with_block_rows(16);
        b.add_table("T", vec![ColumnDef::new("x", DataType::Int)])
            .unwrap();
        for i in 0..100 {
            b.add_row("T", vec![Value::Int(i)]).unwrap();
        }
        let db = b.build();
        assert_eq!(db.block_rows(), 16);
        let col = db.table(db.catalog().table_id("T").unwrap()).column(0);
        assert_eq!(col.block_rows(), Some(16));
        assert_eq!(col.block_meta().len(), 7);
        // Block 0 holds 0..=15, so key 50 is provably absent from it.
        assert!(!col.block_may_contain_key(0, 50i64 as u64, KeySpace::Int));
        assert!(col.block_may_contain_key(3, 50i64 as u64, KeySpace::Int));
        // Multi-block columns surface zone-map bytes in the memory audit.
        let report = db.memory_report();
        assert!(report.tables.iter().all(|t| t.zone_map_bytes > 0));
    }

    #[test]
    fn tiny_block_size_requests_are_clamped() {
        let mut b = DatabaseBuilder::new("clamp").with_block_rows(1);
        b.add_table("T", vec![ColumnDef::new("x", DataType::Int)])
            .unwrap();
        b.add_row("T", vec![Value::Int(1)]).unwrap();
        assert_eq!(b.build().block_rows(), 16);
    }

    #[test]
    fn memory_report_audits_columns_and_csr_indexes() {
        let db = lakes_db();
        let report = db.memory_report();
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.indexes.len(), 2, "both FK endpoints indexed");
        assert!(report.total_column_bytes() > 0);
        assert!(report.total_index_bytes() > 0);
        // The CSR accounting is exact: recompute one index by hand.
        let name = db.catalog().column_ref("Lake", "Name").unwrap();
        let ji = db.join_index(name).unwrap();
        let line = report
            .indexes
            .iter()
            .find(|i| i.table == "Lake" && i.column == "Name")
            .expect("Lake.Name audited");
        assert_eq!(line.bytes, ji.heap_bytes());
        assert_eq!(line.distinct_keys, ji.len());
        assert_eq!(line.indexed_rows, 4);
        // The toy tables fit one block each, so no zone maps are allocated
        // (single-block columns skip them); the display still renders.
        assert!(report.tables.iter().all(|t| t.zone_map_bytes == 0));
        let rendered = report.to_string();
        assert!(rendered.contains("join indexes"));
        assert!(rendered.contains("geo_lake.Lake"));
    }

    #[test]
    fn memory_report_counts_the_keyword_index() {
        let db = lakes_db();
        let report = db.memory_report();
        // Every non-NULL cell is indexed, and the lakes are text.
        assert!(report.keyword_index_bytes > 0);
        assert_eq!(report.keyword_index_bytes, db.index().heap_bytes());
        assert_eq!(
            report.total_index_bytes(),
            report.join_index_bytes() + report.keyword_index_bytes
        );
        assert_eq!(
            report.join_index_bytes(),
            report.indexes.iter().map(|i| i.bytes).sum::<usize>()
        );
        assert!(report.to_string().contains("keyword index"));
    }

    #[test]
    fn unknown_table_insert_errors() {
        let mut b = DatabaseBuilder::new("x");
        let err = b.add_row("Nope", vec![]);
        assert!(matches!(err, Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn value_accessor_reads_cells() {
        let db = lakes_db();
        let prov = db.catalog().column_ref("geo_lake", "Province").unwrap();
        assert_eq!(db.value(prov, 1), Value::text("Nevada"));
        assert_eq!(db.value_ref(prov, 1), ValueRef::Text("Nevada"));
    }
}
