//! # prism-db — the relational substrate for Prism
//!
//! The Prism demo paper (CIDR 2019) assumes a relational source database with
//! three pieces of supporting machinery that its discovery algorithm relies
//! on:
//!
//! 1. an **inverted index** mapping keywords to the `(table, column)`
//!    positions that contain them (Section 2.3: *"we validate a value
//!    constraint on a column … leveraging the inverted index"*),
//! 2. **column metadata collected during preprocessing** — data type, min/max
//!    value, maximum text length — used to check metadata constraints, and
//! 3. a **schema graph** whose nodes are tables and whose edges are joinable
//!    column pairs, which the candidate search walks to enumerate join trees.
//!
//! This crate provides all three, plus the storage and execution layer they
//! sit on: typed values ([`Value`], [`DataType`]), table schemas and foreign
//! keys ([`Catalog`]), **typed columnar storage** ([`Table`], [`Column`],
//! [`ColumnData`]) with per-database value interning ([`SymbolTable`]), an
//! immutable preprocessed [`Database`], and an executor for **Project–Join
//! (PJ) queries** ([`PjQuery`]) supporting both full evaluation and
//! early-exit existence checks (the workhorse of filter validation).
//! Execution follows a prepare/execute split: [`PjQuery::prepare`] compiles
//! a reusable [`PreparedQuery`] (validated once, planned once) that runs
//! against a clearing-not-reallocating [`ExecScratch`] — see the `exec`
//! module docs.
//!
//! ## Storage layout
//!
//! Each column is one contiguous primitive vector — `Vec<i64>` for ints,
//! `Vec<f64>` for decimals, `Vec<u32>` dictionary codes for text/date/time —
//! plus a null bitmap. Text, dates, and times are interned once per database
//! in the [`SymbolTable`], so equal values carry equal `u32` codes across
//! every table. Join indexes and the probe/backtrack loops of the executor
//! operate on the compact `u64` keys of [`Column::join_key`]; owned
//! [`Value`]s are materialized only at projection boundaries, and predicates
//! see zero-copy [`ValueRef`] views. See the `column` module docs for the
//! full join-key contract.
//!
//! At freeze, every column is partitioned into fixed-size row blocks with
//! per-block zone maps ([`BlockMeta`]; [`DEFAULT_BLOCK_ROWS`] rows unless
//! [`DatabaseBuilder::with_block_rows`] sets another size), which the
//! executor uses to skip provably-empty blocks during scans ([`ScanPred`] range hints,
//! [`ExecStats::blocks_skipped`]); join indexes are CSR-shaped
//! ([`JoinIndex`]: sorted keys + offsets + row arena), and
//! [`Database::memory_report`] audits both exactly and estimates the keyword index.
//!
//! Everything is deterministic and in-memory; databases are built once via
//! [`DatabaseBuilder`] and never mutated afterwards, which is exactly the
//! "preprocess a priori, then interactively query" lifecycle of the paper.

pub mod batch;
pub mod column;
pub mod csv;
pub mod database;
pub mod error;
pub mod exec;
pub mod faults;
pub mod graph;
pub mod hash;
pub mod index;
pub mod interner;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod table;
pub mod types;

pub use batch::ColumnBatch;
pub use column::{BlockMeta, Column, ColumnData, NullBitmap, Zone};
pub use csv::{infer_type, parse_csv};
pub use database::{
    Database, DatabaseBuilder, IngestReport, JoinIndexMemory, MemoryReport, TableMemory,
    DEFAULT_BLOCK_ROWS,
};
pub use error::DbError;
pub use exec::{
    ExecScratch, ExecStats, JoinCond, JoinOrder, PjQuery, PreparedQuery, ProjPred, RowCallback,
    ScanPred,
};
pub use faults::{FaultKind, FaultSite, FaultSpec};
pub use graph::{EdgeId, JoinEdge, JoinTree, SchemaGraph};
pub use index::{InvertedIndex, JoinIndex};
pub use interner::SymbolTable;
pub use schema::{Catalog, ColumnDef, ColumnRef, ForeignKey, TableId, TableSchema};
pub use sql::{canonical_key, render_sql};
pub use stats::{ColumnStats, EquiDepthHistogram, StatsStore};
pub use table::Table;
pub use types::{DataType, Date, KeySpace, Time, Value, ValueRef};
