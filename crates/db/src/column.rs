//! Typed column vectors with null bitmaps.
//!
//! Storage is one contiguous primitive vector per column — `Vec<i64>` for
//! ints, `Vec<f64>` for decimals, and `Vec<u32>` dictionary codes for
//! text/date/time (see [`crate::interner::SymbolTable`]) — plus a null
//! bitmap. Scans and join probes operate on these raw slices; an owned
//! [`Value`] is materialized only at projection boundaries.
//!
//! ## The compact join-key contract
//!
//! [`Column::join_key_in`] maps every non-null cell to a `u64` in a given
//! [`KeySpace`] such that two cells of join-compatible columns (as enforced
//! by [`crate::Catalog::add_foreign_key`]) are equal under the engine's
//! join semantics **iff** their keys *in a common space* are equal:
//!
//! * [`KeySpace::Int`] keys are the raw `i64` bit pattern — exact over the
//!   whole integer range. The database assigns this space to `Int` columns
//!   whose FK-connected component contains no `Decimal` column (the common
//!   case), fixing the >2⁵³ neighbor collisions of the `f64` view;
//! * [`KeySpace::F64`] keys are the bit pattern of the cell's `f64`
//!   numeric view (`-0.0` is normalized on insert), so an `Int` FK probes
//!   a `Decimal` PK index directly. Exact for |v| < 2⁵³; beyond that,
//!   neighboring integers share an `f64` image and therefore a key;
//! * [`KeySpace::Sym`] keys are the dictionary code, which the
//!   per-database interner keeps equal across tables for equal values.
//!
//! Hash join indexes, probe loops, and residual join checks all operate on
//! these keys; no `Value` is hashed or cloned on the validation hot path.
//! [`crate::Database::key_space`] records each column's assigned space.
//!
//! ## Block zone maps
//!
//! When a database freezes, every column is partitioned into fixed-size row
//! blocks ([`crate::Database::block_rows`], `PRISM_BLOCK_ROWS`) and one
//! [`BlockMeta`] is computed per block: min/max over the non-NULL values for
//! `Int`/`Decimal` columns (NaN tracked separately so bit-equality key
//! probes stay sound), and the code range plus a 64-bit code fingerprint for
//! dictionary columns. The executor consults these through
//! [`Column::block_may_contain_key`] / [`Column::block_may_overlap_range`]
//! to skip whole blocks before touching a row; both tests are conservative
//! (`false` proves the block holds no matching row, `true` proves nothing).
//!
//! Zone maps are built in **one typed pass** per column (the data kind is
//! matched once, not per row). A column that fits a single block allocates
//! no per-block metadata — its one block would be touched by any scan
//! anyway — but every frozen column carries an **inline whole-column
//! summary zone** ([`Column::may_contain_key`] /
//! [`Column::may_overlap_range`]; folded from the block zones when they
//! exist), so a probe that provably misses the entire column skips the
//! scan even on small tables.

use crate::interner::SymbolTable;
use crate::types::{DataType, KeySpace, Value, ValueRef};

/// The typed payload of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Decimal(Vec<f64>),
    /// Dictionary codes into the database's [`SymbolTable`]
    /// (text/date/time columns).
    Sym(Vec<u32>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Decimal(v) => v.len(),
            ColumnData::Sym(v) => v.len(),
        }
    }
}

/// A fixed-size bitmap marking NULL rows. Rows are appended in order.
#[derive(Debug, Clone, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    count: u32,
}

impl NullBitmap {
    pub(crate) fn push(&mut self, null: bool) {
        let word = self.len / 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        if null {
            self.words[word] |= 1u64 << (self.len % 64);
            self.count += 1;
        }
        self.len += 1;
    }

    /// Bulk-append another bitmap's bits at the current length. Word-wise:
    /// each source word lands as one (shift == 0) or two shifted ORs, so a
    /// batch of N rows costs N/64 word operations instead of N bit pushes.
    pub(crate) fn extend_from(&mut self, other: &NullBitmap) {
        let offset = self.len;
        self.len += other.len;
        self.words.resize(self.len.div_ceil(64), 0);
        self.count += other.count;
        if other.count == 0 {
            return;
        }
        let (base, shift) = (offset / 64, offset % 64);
        for (i, &w) in other.words.iter().enumerate() {
            if w == 0 {
                continue;
            }
            self.words[base + i] |= w << shift;
            if shift != 0 {
                // Bits past `other.len` are never set, so a non-zero
                // carry word is always in range.
                let carry = w >> (64 - shift);
                if carry != 0 {
                    self.words[base + i + 1] |= carry;
                }
            }
        }
    }

    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        // Fast path: most columns have no NULLs at all, and `count` shares
        // a cache line with the words pointer.
        self.count != 0 && self.words[row / 64] >> (row % 64) & 1 == 1
    }

    /// Number of NULL rows.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// True when no row is NULL — lets scans skip the bitmap test.
    pub fn none_null(&self) -> bool {
        self.count == 0
    }
}

/// Zone summary of one row block (see the module docs). Only non-NULL rows
/// contribute; an all-NULL block is [`Zone::AllNull`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Zone {
    /// Every row of the block is NULL — no key or range can match.
    AllNull,
    /// Min/max of the non-NULL `i64` values in the block.
    Int { min: i64, max: i64 },
    /// Min/max of the non-NULL, non-NaN `f64` values in the block
    /// (`-0.0` is normalized on insert, so zero is unambiguous). `has_nan`
    /// keeps bit-equality key probes sound: a NaN key can only match inside
    /// a block that stored a NaN.
    Dec { min: f64, max: f64, has_nan: bool },
    /// Code range of the non-NULL dictionary codes in the block, plus a
    /// 64-bit fingerprint with bit `code % 64` set per distinct code — a
    /// one-word "is this code possibly here?" filter on top of the range.
    Sym { min: u32, max: u32, mask: u64 },
}

/// Per-block metadata: the value zone plus a has-NULL bit (lets consumers
/// skip the null-bitmap test inside all-non-NULL blocks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    pub has_null: bool,
    pub zone: Zone,
}

impl BlockMeta {
    /// Can any row summarized by this meta carry compact join key `key` in
    /// `space`? Conservative: `false` proves absence, `true` proves
    /// nothing.
    #[inline]
    pub fn may_contain_key(&self, key: u64, space: KeySpace) -> bool {
        match (self.zone, space) {
            (Zone::AllNull, _) => false, // NULL rows never carry a key
            (Zone::Int { min, max }, KeySpace::Int) => {
                let k = key as i64;
                min <= k && k <= max
            }
            (Zone::Int { min, max }, KeySpace::F64) => {
                // The key is `(v as f64).to_bits()` of some i64 v. i64→f64
                // conversion is monotone, so the f64 images of the zone's
                // values all lie in [min as f64, max as f64] — exact, no
                // rounding margin needed.
                let f = f64::from_bits(key);
                (min as f64) <= f && f <= (max as f64)
            }
            (Zone::Dec { min, max, has_nan }, KeySpace::F64) => {
                let f = f64::from_bits(key);
                if f.is_nan() {
                    // Keys compare by bit pattern, so a NaN key can match a
                    // stored NaN; only a NaN-free zone is provably clear.
                    has_nan
                } else {
                    min <= f && f <= max
                }
            }
            (Zone::Sym { min, max, mask }, KeySpace::Sym) => {
                let code = key as u32;
                min <= code && code <= max && mask >> (code % 64) & 1 == 1
            }
            (z, s) => unreachable!("zone {z:?} probed in space {s:?}"),
        }
    }

    /// Can any non-NULL numeric row summarized by this meta lie in the
    /// closed interval `[lo, hi]`? Conservative like
    /// [`BlockMeta::may_contain_key`]; always `true` for dictionary zones
    /// (ranges don't apply to codes). NaN rows can never satisfy a range,
    /// so they are ignored here.
    #[inline]
    pub fn may_overlap_range(&self, lo: f64, hi: f64) -> bool {
        match self.zone {
            Zone::AllNull => false,
            // i64→f64 conversion is monotone and `lo`/`hi` are exactly
            // representable, so `(max as f64) < lo` implies `max < lo` (and
            // symmetrically) — the integer test needs no rounding margin.
            Zone::Int { min, max } => !((max as f64) < lo || (min as f64) > hi),
            Zone::Dec { min, max, .. } => !(max < lo || min > hi),
            Zone::Sym { .. } => true,
        }
    }

    /// Widen this meta to also cover everything `other` covers.
    fn fold(&mut self, other: &BlockMeta) {
        self.has_null |= other.has_null;
        self.zone = match (self.zone, other.zone) {
            (z, Zone::AllNull) => z,
            (Zone::AllNull, z) => z,
            (Zone::Int { min: a, max: b }, Zone::Int { min: c, max: d }) => Zone::Int {
                min: a.min(c),
                max: b.max(d),
            },
            (
                Zone::Dec {
                    min: a,
                    max: b,
                    has_nan: x,
                },
                Zone::Dec {
                    min: c,
                    max: d,
                    has_nan: y,
                },
            ) => Zone::Dec {
                min: a.min(c),
                max: b.max(d),
                has_nan: x || y,
            },
            (
                Zone::Sym {
                    min: a,
                    max: b,
                    mask: x,
                },
                Zone::Sym {
                    min: c,
                    max: d,
                    mask: y,
                },
            ) => Zone::Sym {
                min: a.min(c),
                max: b.max(d),
                mask: x | y,
            },
            (a, b) => unreachable!("folding mismatched zones {a:?} / {b:?}"),
        };
    }
}

/// One typed column: declared type, primitive data vector, null bitmap.
/// NULL rows hold a placeholder in the data vector (0 / 0.0 / `u32::MAX`)
/// and are flagged in the bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    data: ColumnData,
    nulls: NullBitmap,
    /// Largest symbol code stored in a `Sym` column (0 when empty). Bounds
    /// this column's code range without a scan — e.g. for sizing per-scan
    /// predicate memo bitmaps to the column, not the whole database.
    max_sym: u32,
    /// Zone maps, one per `block_rows`-sized block. Empty until
    /// [`Column::freeze_blocks`] runs (the database freeze does so), and
    /// empty for columns that fit one block (see `freeze_blocks`).
    blocks: Vec<BlockMeta>,
    /// Whole-column summary zone, present once frozen — an inline field,
    /// not an allocation. For multi-block columns it is the fold of the
    /// per-block zones (no second data pass); for single-block columns it
    /// is the *only* zone computed, so range/key probes can still prove a
    /// whole small table empty without per-block metadata.
    summary: Option<BlockMeta>,
    /// Rows per block; 0 until frozen or when the column fits one block.
    block_rows: u32,
    /// Block size for *incremental* zone accumulation during bulk ingest
    /// (0 = disabled). Set by the owning builder so zone maps can be folded
    /// block-by-block as batches land, making the freeze an O(tail)
    /// finalize instead of a full re-scan.
    zone_hint: u32,
    /// Rows already covered by accumulated entries of `blocks`. Invariant
    /// while accumulating: `zoned_upto % zone_hint == 0` and
    /// `blocks.len() == zoned_upto / zone_hint`.
    zoned_upto: usize,
}

/// Placeholder code stored in `Sym` columns at NULL rows.
pub(crate) const NULL_SYM: u32 = u32::MAX;

impl Column {
    /// An empty column of declared type `dtype`.
    pub fn new(dtype: DataType) -> Column {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Decimal => ColumnData::Decimal(Vec::new()),
            DataType::Text | DataType::Date | DataType::Time => ColumnData::Sym(Vec::new()),
        };
        Column {
            dtype,
            data,
            nulls: NullBitmap::default(),
            max_sym: 0,
            blocks: Vec::new(),
            summary: None,
            block_rows: 0,
            zone_hint: 0,
            zoned_upto: 0,
        }
    }

    /// Enable incremental zone accumulation at `block_rows` rows per block.
    /// The builder calls this with its resolved block size so bulk appends
    /// fold zone maps as they go and the freeze only scans the tail.
    pub(crate) fn set_zone_hint(&mut self, block_rows: usize) {
        self.zone_hint = block_rows as u32;
    }

    /// Upper bound (inclusive) of the symbol codes stored in this column;
    /// 0 for numeric or empty columns.
    pub fn max_sym_code(&self) -> u32 {
        self.max_sym
    }

    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw typed payload, for vectorized consumers (stats, discretizers).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.nulls.is_null(row)
    }

    pub fn null_count(&self) -> u32 {
        self.nulls.count()
    }

    /// The exact identity of cell `row`, `None` for NULL: its dictionary
    /// code, integer, or float bits. All cells of one column share one
    /// representation, so two cells are equal exactly when their
    /// identities are — unlike `Value` equality, which merges `1` and
    /// `1.0`.
    #[inline]
    pub fn cell_identity(&self, row: usize) -> Option<u64> {
        if self.nulls.is_null(row) {
            return None;
        }
        Some(match &self.data {
            ColumnData::Int(v) => v[row] as u64,
            ColumnData::Decimal(v) => v[row].to_bits(),
            ColumnData::Sym(v) => u64::from(v[row]),
        })
    }

    /// Append one cell. The value must already be validated against (and
    /// widened to) this column's type — [`crate::Table::push_row`] does so.
    pub(crate) fn push(&mut self, v: Value, syms: &mut SymbolTable) {
        if !self.blocks.is_empty() || self.summary.is_some() {
            // Freeze is the last thing to happen to a column, but a mutation
            // must never leave stale zone maps behind. Per-cell pushes also
            // abandon incremental accumulation (the freeze re-scans).
            self.blocks.clear();
            self.summary = None;
            self.block_rows = 0;
            self.zoned_upto = 0;
        }
        match (&mut self.data, v) {
            (ColumnData::Int(vec), Value::Null) => {
                vec.push(0);
                self.nulls.push(true);
            }
            (ColumnData::Int(vec), Value::Int(i)) => {
                vec.push(i);
                self.nulls.push(false);
            }
            (ColumnData::Decimal(vec), Value::Null) => {
                vec.push(0.0);
                self.nulls.push(true);
            }
            (ColumnData::Decimal(vec), Value::Decimal(d)) => {
                // Normalize -0.0 so equal values share bit patterns (join
                // keys and stats both key on bits). `Value::decimal` does
                // this too, but raw `Value::Decimal(-0.0)` can reach us.
                vec.push(if d == 0.0 { 0.0 } else { d });
                self.nulls.push(false);
            }
            (ColumnData::Sym(vec), Value::Null) => {
                vec.push(NULL_SYM);
                self.nulls.push(true);
            }
            (ColumnData::Sym(vec), Value::Text(s)) => {
                let code = syms.intern_text_owned(s);
                self.max_sym = self.max_sym.max(code);
                vec.push(code);
                self.nulls.push(false);
            }
            (ColumnData::Sym(vec), Value::Date(d)) => {
                let code = syms.intern_date(d);
                self.max_sym = self.max_sym.max(code);
                vec.push(code);
                self.nulls.push(false);
            }
            (ColumnData::Sym(vec), Value::Time(t)) => {
                let code = syms.intern_time(t);
                self.max_sym = self.max_sym.max(code);
                vec.push(code);
                self.nulls.push(false);
            }
            (_, v) => unreachable!("push of {} into {} column", v.type_name(), self.dtype),
        }
    }

    /// Bulk-append pre-typed rows: a data vector shaped like this column
    /// (already validated/widened and, for `Sym`, already carrying *global*
    /// interner codes with `NULL_SYM` at null rows) plus the matching null
    /// bitmap. Zone maps are folded incrementally for every complete
    /// `zone_hint`-sized block the append closes, so the eventual freeze
    /// only has to scan the tail.
    pub(crate) fn append_parts(&mut self, part: &ColumnData, part_nulls: &NullBitmap) {
        self.unfreeze_for_append();
        match (&mut self.data, part) {
            (ColumnData::Int(vec), ColumnData::Int(p)) => vec.extend_from_slice(p),
            (ColumnData::Decimal(vec), ColumnData::Decimal(p)) => {
                // Normalize -0.0 like the per-cell path, so bit-keyed joins
                // and zone probes see one zero.
                vec.extend(p.iter().map(|&d| if d == 0.0 { 0.0 } else { d }));
            }
            (ColumnData::Decimal(vec), ColumnData::Int(p)) => {
                // Int batches widen into decimal columns, mirroring
                // `push_row`'s per-cell widening.
                vec.extend(p.iter().map(|&i| i as f64));
            }
            (ColumnData::Sym(vec), ColumnData::Sym(p)) => {
                vec.extend_from_slice(p);
                for &code in p {
                    if code != NULL_SYM {
                        self.max_sym = self.max_sym.max(code);
                    }
                }
            }
            _ => unreachable!("batch column shape mismatch is validated upstream"),
        }
        self.nulls.extend_from(part_nulls);
        self.fold_zones_to_len();
    }

    /// Drop freeze artifacts (summary, tail block, `block_rows`) while
    /// keeping the incrementally accumulated complete blocks, so appends
    /// after a freeze stay O(new rows).
    fn unfreeze_for_append(&mut self) {
        if self.summary.is_some() {
            self.summary = None;
            self.block_rows = 0;
            if self.zone_hint > 0 {
                self.blocks
                    .truncate(self.zoned_upto / self.zone_hint as usize);
            } else {
                self.blocks.clear();
            }
        }
    }

    /// Fold a zone-map entry for every complete `zone_hint`-sized block not
    /// yet covered. No-op when accumulation is disabled.
    fn fold_zones_to_len(&mut self) {
        let hint = self.zone_hint as usize;
        if hint == 0 {
            return;
        }
        let n = self.len();
        while self.zoned_upto + hint <= n {
            let meta = self.chunk_meta(self.zoned_upto, self.zoned_upto + hint);
            self.blocks.push(meta);
            self.zoned_upto += hint;
        }
    }

    /// Borrowed view of one cell. Zero-copy: text resolves through the
    /// interner without cloning.
    #[inline]
    pub fn value_ref<'a>(&'a self, syms: &'a SymbolTable, row: usize) -> ValueRef<'a> {
        if self.nulls.is_null(row) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Int(v) => ValueRef::Int(v[row]),
            ColumnData::Decimal(v) => ValueRef::Decimal(v[row]),
            // Columns are homogeneous: the declared type names the symbol
            // kind, so resolution is one dense-vector load, no enum branch.
            ColumnData::Sym(v) => match self.dtype {
                DataType::Text => ValueRef::Text(syms.text(v[row])),
                DataType::Date => ValueRef::Date(syms.date(v[row])),
                DataType::Time => ValueRef::Time(syms.time(v[row])),
                _ => unreachable!("numeric columns are not dictionary-encoded"),
            },
        }
    }

    /// Iterate all cells as borrowed views, in row order.
    pub fn iter<'a>(
        &'a self,
        syms: &'a SymbolTable,
    ) -> impl ExactSizeIterator<Item = ValueRef<'a>> + 'a {
        (0..self.len()).map(move |r| self.value_ref(syms, r))
    }

    /// Compact join key of one cell in the column's *native* key space
    /// (`None` for NULL). Prefer [`crate::Database::join_key`], which keys
    /// in the column's FK-component-assigned space — the two differ only
    /// for `Int` columns demoted to [`KeySpace::F64`] by a `Decimal`
    /// join partner.
    #[inline]
    pub fn join_key(&self, row: usize) -> Option<u64> {
        self.join_key_in(row, self.dtype.native_key_space())
    }

    /// Compact join key of one cell in `space` (`None` for NULL). See the
    /// module docs for the key contract. `space` must be one the column's
    /// data can key in: [`KeySpace::Int`] is only valid for `Int` columns
    /// (a `Decimal` column is never `Int`-spaced).
    #[inline]
    pub fn join_key_in(&self, row: usize, space: KeySpace) -> Option<u64> {
        if self.nulls.is_null(row) {
            return None;
        }
        Some(match (&self.data, space) {
            (ColumnData::Int(v), KeySpace::Int) => v[row] as u64,
            (ColumnData::Int(v), KeySpace::F64) => (v[row] as f64).to_bits(),
            (ColumnData::Decimal(v), KeySpace::F64) => v[row].to_bits(),
            (ColumnData::Sym(v), KeySpace::Sym) => v[row] as u64,
            _ => unreachable!("column data cannot key in {space:?}"),
        })
    }

    /// The symbol code of one cell of a dictionary column (`None` for NULL).
    /// Panics on numeric columns.
    pub fn sym(&self, row: usize) -> Option<u32> {
        match &self.data {
            ColumnData::Sym(v) => (!self.nulls.is_null(row)).then(|| v[row]),
            _ => panic!("sym() on a numeric column"),
        }
    }

    /// (Re)compute the per-block zone maps at `block_rows` rows per block.
    /// Called once when the owning database freezes; idempotent.
    ///
    /// The computation is one typed pass per column: the data kind is
    /// matched **once** and each block's summary comes from a tight loop
    /// over its chunk slice (with a branch-free body when the column has no
    /// NULLs — the common case). Columns that fit a **single block**
    /// allocate no per-block metadata (it could never skip anything a scan
    /// wouldn't touch) but still get the inline whole-column summary.
    pub(crate) fn freeze_blocks(&mut self, block_rows: usize) {
        debug_assert!(block_rows > 0);
        // Re-freezing first strips the previous freeze's artifacts but keeps
        // incrementally accumulated blocks, so repeat freezes stay O(tail).
        self.unfreeze_for_append();
        let n = self.len();
        if n <= block_rows {
            // Single block: per-block zone maps could never skip anything a
            // scan wouldn't touch anyway, so no metadata Vec is allocated —
            // but the inline whole-column summary is still computed (one
            // tight pass), so range and key probes can prove the entire
            // column empty.
            self.blocks.clear();
            self.zoned_upto = 0;
            self.block_rows = 0;
            self.summary = (n > 0).then(|| self.chunk_meta(0, n));
            return;
        }
        let complete = (n / block_rows) * block_rows;
        if self.zone_hint as usize == block_rows
            && self.zoned_upto == complete
            && self.blocks.len() == complete / block_rows
            && complete > 0
        {
            // Fast path: ingest already folded a zone for every complete
            // block at exactly this granularity — only the (< block_rows)
            // tail is left to scan. `zoned_upto` stays at `complete`; the
            // tail block is a freeze artifact that `unfreeze_for_append`
            // strips again if more rows arrive.
            if n > complete {
                let meta = self.chunk_meta(complete, n);
                self.blocks.push(meta);
            }
        } else {
            // Slow path: no usable accumulation (per-cell inserts, or a
            // different block size was requested) — full re-scan.
            self.blocks.clear();
            self.blocks.reserve_exact(n.div_ceil(block_rows));
            for start in (0..n).step_by(block_rows) {
                let meta = self.chunk_meta(start, (start + block_rows).min(n));
                self.blocks.push(meta);
            }
            self.zoned_upto = if self.zone_hint as usize == block_rows {
                complete
            } else {
                0
            };
        }
        self.block_rows = block_rows as u32;
        // The whole-column summary is the fold of the block zones — no
        // second pass over the data.
        let mut summary = self.blocks[0];
        for b in &self.blocks[1..] {
            summary.fold(b);
        }
        self.summary = Some(summary);
    }

    /// Zone summary of rows `start..end`, computed in one tight typed loop
    /// (the data kind is matched once per chunk, and the NULL test is
    /// skipped entirely for NULL-free columns).
    fn chunk_meta(&self, start: usize, end: usize) -> BlockMeta {
        debug_assert!(start < end && end <= self.len());
        let no_nulls = self.nulls.none_null();
        let nulls = &self.nulls;
        match &self.data {
            ColumnData::Int(v) => {
                let (mut min, mut max) = (i64::MAX, i64::MIN);
                let mut has_null = false;
                let mut any = false;
                if no_nulls {
                    any = true;
                    for &x in &v[start..end] {
                        min = min.min(x);
                        max = max.max(x);
                    }
                } else {
                    for (i, &x) in v[start..end].iter().enumerate() {
                        if nulls.is_null(start + i) {
                            has_null = true;
                            continue;
                        }
                        any = true;
                        min = min.min(x);
                        max = max.max(x);
                    }
                }
                let zone = if any {
                    Zone::Int { min, max }
                } else {
                    Zone::AllNull
                };
                BlockMeta { has_null, zone }
            }
            ColumnData::Decimal(v) => {
                // Empty range auto-fails every overlap test until a finite
                // value lands in the chunk.
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                let mut has_nan = false;
                let mut has_null = false;
                let mut any = false;
                for (i, &x) in v[start..end].iter().enumerate() {
                    if !no_nulls && nulls.is_null(start + i) {
                        has_null = true;
                        continue;
                    }
                    any = true;
                    if x.is_nan() {
                        has_nan = true;
                    } else {
                        min = min.min(x);
                        max = max.max(x);
                    }
                }
                let zone = if any {
                    Zone::Dec { min, max, has_nan }
                } else {
                    Zone::AllNull
                };
                BlockMeta { has_null, zone }
            }
            ColumnData::Sym(v) => {
                let (mut min, mut max) = (u32::MAX, 0u32);
                let mut mask = 0u64;
                let mut has_null = false;
                let mut any = false;
                for (i, &code) in v[start..end].iter().enumerate() {
                    if !no_nulls && nulls.is_null(start + i) {
                        has_null = true;
                        continue;
                    }
                    any = true;
                    min = min.min(code);
                    max = max.max(code);
                    mask |= 1u64 << (code % 64);
                }
                let zone = if any {
                    Zone::Sym { min, max, mask }
                } else {
                    Zone::AllNull
                };
                BlockMeta { has_null, zone }
            }
        }
    }

    /// Rows per zone-map block (`None` before the database freeze).
    #[inline]
    pub fn block_rows(&self) -> Option<usize> {
        (self.block_rows > 0).then_some(self.block_rows as usize)
    }

    /// Per-block zone maps (empty before the database freeze).
    pub fn block_meta(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Can any row of block `b` carry compact join key `key` in `space`?
    /// Conservative: `false` proves absence, `true` proves nothing. Blocks
    /// are `block_rows()` rows; `b` must be in range once frozen.
    #[inline]
    pub fn block_may_contain_key(&self, b: usize, key: u64, space: KeySpace) -> bool {
        match self.blocks.get(b) {
            Some(meta) => meta.may_contain_key(key, space),
            None => true, // not frozen / single block: nothing provable here
        }
    }

    /// Can any non-NULL numeric row of block `b` lie in the closed interval
    /// `[lo, hi]`? Conservative like [`Column::block_may_contain_key`];
    /// always `true` for dictionary columns (ranges don't apply to codes).
    /// NaN rows can never satisfy a range, so they are ignored here.
    #[inline]
    pub fn block_may_overlap_range(&self, b: usize, lo: f64, hi: f64) -> bool {
        match self.blocks.get(b) {
            Some(meta) => meta.may_overlap_range(lo, hi),
            None => true,
        }
    }

    /// Can *any* row of the whole column carry `key` in `space`? Answered
    /// from the inline summary zone, so it works even for single-block
    /// columns that carry no per-block metadata. `true` before freeze.
    #[inline]
    pub fn may_contain_key(&self, key: u64, space: KeySpace) -> bool {
        match &self.summary {
            Some(meta) => meta.may_contain_key(key, space),
            None => !self.is_empty(), // unfrozen: nothing provable
        }
    }

    /// Can any non-NULL numeric row of the whole column lie in `[lo, hi]`?
    /// Summary-level companion of [`Column::block_may_overlap_range`].
    #[inline]
    pub fn may_overlap_range(&self, lo: f64, hi: f64) -> bool {
        match &self.summary {
            Some(meta) => meta.may_overlap_range(lo, hi),
            None => !self.is_empty(),
        }
    }

    /// The whole-column summary zone (`None` before the database freeze).
    pub fn summary_meta(&self) -> Option<&BlockMeta> {
        self.summary.as_ref()
    }

    /// Heap bytes held by this column's data vector, null bitmap, and zone
    /// maps (content, not capacity — the auditable payload).
    pub fn heap_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(v) => v.len() * std::mem::size_of::<i64>(),
            ColumnData::Decimal(v) => v.len() * std::mem::size_of::<f64>(),
            ColumnData::Sym(v) => v.len() * std::mem::size_of::<u32>(),
        };
        data + self.nulls.words.len() * 8 + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Zone-map bytes alone (part of [`Column::heap_bytes`]).
    pub fn zone_map_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Date;

    #[test]
    fn null_bitmap_tracks_positions_and_count() {
        let mut b = NullBitmap::default();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.count(), 44);
        assert!(b.is_null(0));
        assert!(!b.is_null(1));
        assert!(b.is_null(129));
        assert!(!b.none_null());
    }

    #[test]
    fn int_column_join_keys_match_decimal_column_in_f64_space() {
        let mut syms = SymbolTable::new();
        let mut ci = Column::new(DataType::Int);
        let mut cd = Column::new(DataType::Decimal);
        ci.push(Value::Int(497), &mut syms);
        cd.push(Value::Decimal(497.0), &mut syms);
        // F64 is the common space of an Int↔Decimal comparison.
        assert_eq!(
            ci.join_key_in(0, KeySpace::F64),
            cd.join_key_in(0, KeySpace::F64)
        );
        ci.push(Value::Null, &mut syms);
        assert_eq!(ci.join_key(1), None);
        assert_eq!(ci.join_key_in(1, KeySpace::F64), None);
    }

    #[test]
    fn int_space_keys_are_exact_beyond_f64_precision() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(i64::MAX), &mut syms);
        c.push(Value::Int(i64::MAX - 1), &mut syms);
        // The f64 view conflates the neighbors; the Int space keeps them
        // apart (this is the whole point of the Int key space).
        assert_eq!(
            c.join_key_in(0, KeySpace::F64),
            c.join_key_in(1, KeySpace::F64)
        );
        assert_ne!(
            c.join_key_in(0, KeySpace::Int),
            c.join_key_in(1, KeySpace::Int)
        );
        // Native space of an Int column is Int.
        assert_eq!(c.join_key(0), c.join_key_in(0, KeySpace::Int));
    }

    #[test]
    fn sym_column_resolves_through_interner() {
        let mut syms = SymbolTable::new();
        let mut a = Column::new(DataType::Text);
        let mut b = Column::new(DataType::Text);
        a.push(Value::text("Lake Tahoe"), &mut syms);
        b.push(Value::text("Lake Tahoe"), &mut syms);
        b.push(Value::Null, &mut syms);
        // Same value, same key — across distinct columns.
        assert_eq!(a.join_key(0), b.join_key(0));
        assert_eq!(a.value_ref(&syms, 0), ValueRef::Text("Lake Tahoe"));
        assert_eq!(b.value_ref(&syms, 1), ValueRef::Null);
        assert_eq!(b.sym(1), None);
    }

    #[test]
    fn negative_zero_normalizes_on_insert() {
        let mut syms = SymbolTable::new();
        let mut a = Column::new(DataType::Decimal);
        let mut b = Column::new(DataType::Decimal);
        // Raw Value::Decimal(-0.0) bypasses Value::decimal's normalization;
        // the column must normalize anyway so bit-keyed joins and stats see
        // one zero.
        a.push(Value::Decimal(-0.0), &mut syms);
        b.push(Value::Decimal(0.0), &mut syms);
        assert_eq!(a.join_key(0), b.join_key(0));
        assert_eq!(a.value_ref(&syms, 0), ValueRef::Decimal(0.0));
    }

    #[test]
    fn int_zone_maps_bound_blocks_and_prune_keys_and_ranges() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        for v in [5i64, -3, 9, 100, 200, 150] {
            c.push(Value::Int(v), &mut syms);
        }
        c.freeze_blocks(3);
        assert_eq!(c.block_rows(), Some(3));
        assert_eq!(c.block_meta().len(), 2);
        assert_eq!(c.block_meta()[0].zone, Zone::Int { min: -3, max: 9 },);
        // Key pruning in the Int space.
        assert!(c.block_may_contain_key(0, 5i64 as u64, KeySpace::Int));
        assert!(!c.block_may_contain_key(0, 100i64 as u64, KeySpace::Int));
        assert!(c.block_may_contain_key(1, 100i64 as u64, KeySpace::Int));
        // ...and through the f64 view.
        assert!(c.block_may_contain_key(0, (5f64).to_bits(), KeySpace::F64));
        assert!(!c.block_may_contain_key(0, (100f64).to_bits(), KeySpace::F64));
        // Range pruning.
        assert!(c.block_may_overlap_range(0, 0.0, 4.0));
        assert!(!c.block_may_overlap_range(0, 10.0, 99.0));
        assert!(c.block_may_overlap_range(1, 10.0, 150.0));
    }

    #[test]
    fn all_null_blocks_prune_everything() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Decimal);
        c.push(Value::Null, &mut syms);
        c.push(Value::Null, &mut syms);
        c.push(Value::Decimal(7.0), &mut syms);
        c.freeze_blocks(2);
        assert_eq!(c.block_meta()[0].zone, Zone::AllNull);
        assert!(c.block_meta()[0].has_null);
        assert!(!c.block_may_contain_key(0, (7f64).to_bits(), KeySpace::F64));
        assert!(!c.block_may_overlap_range(0, f64::NEG_INFINITY, f64::INFINITY));
        assert!(c.block_may_contain_key(1, (7f64).to_bits(), KeySpace::F64));
        assert!(!c.block_meta()[1].has_null);
    }

    #[test]
    fn negative_zero_zone_covers_positive_zero_probe() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Decimal);
        // Raw -0.0 normalizes on insert, so the zone stores +0.0 and a
        // probe key built from 0.0 bits must not be pruned. (Two rows at
        // one row per block: single-block columns skip zone maps.)
        c.push(Value::Decimal(-0.0), &mut syms);
        c.push(Value::Decimal(7.0), &mut syms);
        c.freeze_blocks(1);
        assert!(c.block_may_contain_key(0, (0f64).to_bits(), KeySpace::F64));
        assert!(c.block_may_overlap_range(0, 0.0, 0.0));
        assert!(!c.block_may_overlap_range(0, 1.0, 2.0));
    }

    #[test]
    fn int_zone_is_exact_at_i64_extremes() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(i64::MAX - 1), &mut syms);
        c.push(Value::Int(0), &mut syms);
        c.freeze_blocks(1);
        // Exact in the Int space: only the stored neighbor passes block 0.
        assert!(c.block_may_contain_key(0, (i64::MAX - 1) as u64, KeySpace::Int));
        assert!(!c.block_may_contain_key(0, i64::MAX as u64, KeySpace::Int));
        assert!(!c.block_may_contain_key(0, i64::MIN as u64, KeySpace::Int));
    }

    #[test]
    fn single_block_columns_skip_zone_maps_but_keep_a_summary() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        for i in 0..10 {
            c.push(Value::Int(i), &mut syms);
        }
        c.freeze_blocks(16);
        // The whole column fits one block: no per-block metadata is
        // allocated and block-level probes prove nothing...
        assert_eq!(c.block_rows(), None);
        assert!(c.block_meta().is_empty());
        assert_eq!(c.zone_map_bytes(), 0);
        assert!(c.block_may_contain_key(0, 999, KeySpace::Int));
        assert!(c.block_may_overlap_range(0, 1e9, 2e9));
        // ...but the inline whole-column summary still prunes.
        assert!(c.may_contain_key(7i64 as u64, KeySpace::Int));
        assert!(!c.may_contain_key(999, KeySpace::Int));
        assert!(c.may_overlap_range(5.0, 6.0));
        assert!(!c.may_overlap_range(1e9, 2e9));
        // One more row pushes it past the block size: zones appear, and the
        // summary becomes their fold.
        for i in 90..97 {
            c.push(Value::Int(i), &mut syms);
        }
        c.freeze_blocks(16);
        assert_eq!(c.block_rows(), Some(16));
        assert_eq!(c.block_meta().len(), 2);
        assert_eq!(
            c.summary_meta().unwrap().zone,
            Zone::Int { min: 0, max: 96 }
        );
        assert!(!c.may_overlap_range(100.0, 200.0));
    }

    #[test]
    fn mutation_after_freeze_drops_the_summary_too() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1), &mut syms);
        c.freeze_blocks(4);
        assert!(!c.may_contain_key(50i64 as u64, KeySpace::Int));
        c.push(Value::Int(50), &mut syms);
        assert!(c.summary_meta().is_none(), "stale summary dropped");
        assert!(c.may_contain_key(50i64 as u64, KeySpace::Int));
    }

    #[test]
    fn sym_zone_mask_filters_absent_codes() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Text);
        for s in ["a", "b", "c"] {
            c.push(Value::text(s), &mut syms);
        }
        // Intern a code that never enters the column.
        let absent_in_range = syms.intern_text("z1");
        c.push(Value::text("e"), &mut syms); // code 4
        c.freeze_blocks(2);
        assert_eq!(c.block_meta().len(), 2);
        let Zone::Sym { min, max, .. } = c.block_meta()[1].zone else {
            panic!("sym zone expected");
        };
        // Block 1 holds {"c" (2), "e" (4)}: "z1" (code 3) is inside
        // [min, max] yet absent — the mask prunes it.
        assert_eq!((min, max), (2, 4));
        assert!(min < absent_in_range && absent_in_range < max);
        assert!(!c.block_may_contain_key(1, absent_in_range as u64, KeySpace::Sym));
        assert!(c.block_may_contain_key(1, 2, KeySpace::Sym));
        assert!(c.block_may_contain_key(0, 0, KeySpace::Sym));
        // ...and the plain code range prunes block 0.
        assert!(!c.block_may_contain_key(0, absent_in_range as u64, KeySpace::Sym));
        // Ranges never prune dictionary columns.
        assert!(c.block_may_overlap_range(0, 1e9, 2e9));
    }

    #[test]
    fn mutation_after_freeze_drops_stale_zone_maps() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(1), &mut syms);
        c.push(Value::Int(2), &mut syms);
        c.freeze_blocks(1);
        assert_eq!(c.block_meta().len(), 2);
        c.push(Value::Int(999), &mut syms);
        assert!(c.block_meta().is_empty());
        assert_eq!(c.block_rows(), None);
        // Unfrozen columns prove nothing.
        assert!(c.block_may_contain_key(0, 12345, KeySpace::Int));
    }

    #[test]
    fn heap_bytes_counts_data_nulls_and_zones() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Int);
        for i in 0..100 {
            c.push(Value::Int(i), &mut syms);
        }
        let before = c.heap_bytes();
        assert_eq!(before, 100 * 8 + 2 * 8); // data + 2 bitmap words
        c.freeze_blocks(16);
        assert_eq!(
            c.heap_bytes() - before,
            7 * std::mem::size_of::<BlockMeta>()
        );
        assert_eq!(c.zone_map_bytes(), 7 * std::mem::size_of::<BlockMeta>());
    }

    #[test]
    fn date_column_is_dictionary_encoded() {
        let mut syms = SymbolTable::new();
        let mut c = Column::new(DataType::Date);
        let d = Date::new(2000, 1, 1);
        c.push(Value::Date(d), &mut syms);
        c.push(Value::Date(d), &mut syms);
        assert_eq!(c.sym(0), c.sym(1));
        assert_eq!(c.value_ref(&syms, 0), ValueRef::Date(d));
        assert_eq!(syms.len(), 1);
    }
}
