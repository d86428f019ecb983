//! Streaming CSV ingestion with type inference.
//!
//! The demo ships synthetic databases, but a downstream user's first move is
//! loading their own data — often at a scale where a per-cell `Value` detour
//! dominates build time. This module parses RFC-4180-style CSV (quoted
//! fields, embedded commas/newlines, doubled-quote escapes) **straight into
//! typed column batches**: a byte-span scanner yields field slices without
//! materializing `Vec<Vec<String>>`, one bounded inference pass over a
//! prefix sample picks column types, and row chunks are parsed in parallel
//! on a `std::thread::scope` pool (split at newline boundaries outside
//! quotes), each worker filling a [`ColumnBatch`] that the coordinator
//! splices into storage in chunk order. Empty fields become NULL.
//!
//! ## Lexical grammar
//!
//! Types are inferred in the order `int → decimal → date → time → text`
//! over the trimmed non-empty fields of each column, and field parsing
//! delegates to the standard library so the accepted grammar is exactly
//! `str::parse`:
//!
//! * **int** — `i64::from_str`: optional `+`/`-` sign, decimal digits.
//!   `"+5"` is an int; `"1e3"` is **not** (no exponent form).
//! * **decimal** — `f64::from_str`, restricted to finite results: signs,
//!   fractions, and exponents (`"1e3"`, `"+5"`, `".5"`) are decimals, while
//!   `"nan"`/`"inf"`/overflowing exponents fail the finite check and fall
//!   through to text.
//! * **date** — `YYYY-MM-DD`; **time** — `HH:MM[:SS]`.
//!
//! Surrounding ASCII whitespace is ignored when *typing* any field (quoted
//! or not), and a field whose trimmed content is empty is NULL in every
//! column. Stored **text** keeps quoted fields verbatim — `" x "` quoted
//! retains its padding — while unquoted text is trimmed.

use crate::batch::ColumnBatch;
use crate::database::DatabaseBuilder;
use crate::error::DbError;
use crate::schema::{ColumnDef, TableId};
use crate::types::{DataType, Date, Time, Value};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Rows of the bounded type-inference sample. Columns still all-empty after
/// the sample keep being scanned (those columns only) until a non-empty
/// field or EOF, so sampled inference agrees with whole-column inference.
const SAMPLE_ROWS: usize = 4096;

/// Inputs below this size are parsed on the calling thread; chunk split +
/// thread spawn overhead would dominate.
const PARALLEL_MIN_BYTES: usize = 64 * 1024;

/// Parse threads for the streaming ingest: the machine's available
/// parallelism, capped because ingest is memory-bound well before 8 cores.
fn ingest_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One scanned field: a byte span of the raw input, plus whether any quote
/// character participated (`quoted`) and whether the effective content
/// differs from the raw slice (`dirty` — quote chars to strip/unescape or
/// carriage returns to swallow).
#[derive(Debug, Clone, Copy)]
struct FieldSpan {
    start: usize,
    end: usize,
    quoted: bool,
    dirty: bool,
}

impl FieldSpan {
    /// The field's effective text: the raw slice when clean, else rebuilt
    /// into `scratch` (quote toggles removed, `""` unescaped, unquoted
    /// `\r` swallowed).
    fn effective<'a>(&self, text: &'a str, scratch: &'a mut String) -> &'a str {
        let raw = &text[self.start..self.end];
        if !self.dirty {
            return raw;
        }
        scratch.clear();
        unescape_into(raw, scratch);
        scratch
    }
}

/// Rebuild a dirty field's effective content. Mirrors the char loop of the
/// sequential parser: quotes toggle, doubled quotes inside quotes emit one
/// quote, `\r` outside quotes is swallowed, everything else is copied.
fn unescape_into(raw: &str, out: &mut String) {
    let bytes = raw.as_bytes();
    let mut in_quotes = false;
    let mut run = 0usize; // start of the current clean run
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if in_quotes {
            if b == b'"' {
                out.push_str(&raw[run..i]);
                if bytes.get(i + 1) == Some(&b'"') {
                    out.push('"');
                    i += 2;
                } else {
                    in_quotes = false;
                    i += 1;
                }
                run = i;
                continue;
            }
        } else if b == b'"' || b == b'\r' {
            out.push_str(&raw[run..i]);
            if b == b'"' {
                in_quotes = true;
            }
            i += 1;
            run = i;
            continue;
        }
        i += 1;
    }
    out.push_str(&raw[run..]);
}

/// Scan one row's field spans starting at `*pos`, advancing `*pos` past the
/// terminating newline. Returns `false` when no row remains. The trailing
/// line without a newline is a row unless it is completely empty (matching
/// the sequential parser: `""` input has no rows, `"a,b\n"` has one).
fn scan_row(bytes: &[u8], pos: &mut usize, spans: &mut Vec<FieldSpan>) -> bool {
    spans.clear();
    if *pos >= bytes.len() {
        return false;
    }
    let mut start = *pos;
    let mut in_quotes = false;
    let mut quoted = false;
    let mut dirty = false;
    let mut i = *pos;
    while i < bytes.len() {
        let b = bytes[i];
        if in_quotes {
            if b == b'"' {
                if bytes.get(i + 1) == Some(&b'"') {
                    i += 2;
                    continue;
                }
                in_quotes = false;
            }
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                in_quotes = true;
                quoted = true;
                dirty = true;
            }
            b'\r' => dirty = true,
            b',' => {
                spans.push(FieldSpan {
                    start,
                    end: i,
                    quoted,
                    dirty,
                });
                start = i + 1;
                quoted = false;
                dirty = false;
            }
            b'\n' => {
                spans.push(FieldSpan {
                    start,
                    end: i,
                    quoted,
                    dirty,
                });
                *pos = i + 1;
                return true;
            }
            _ => {}
        }
        i += 1;
    }
    // EOF without a newline.
    let span = FieldSpan {
        start,
        end: bytes.len(),
        quoted,
        dirty,
    };
    *pos = bytes.len();
    if spans.is_empty() {
        let empty = if span.dirty {
            let mut s = String::new();
            // Safe: spans always lie on ASCII delimiter boundaries.
            unescape_into(
                std::str::from_utf8(&bytes[span.start..span.end]).expect("input is str-backed"),
                &mut s,
            );
            s.is_empty()
        } else {
            span.start == span.end
        };
        if empty {
            return false;
        }
    }
    spans.push(span);
    true
}

/// Parse CSV text into rows of string fields. The first row is typically a
/// header, but this function does not interpret it.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut spans = Vec::new();
    let mut scratch = String::new();
    let mut rows = Vec::new();
    while scan_row(bytes, &mut pos, &mut spans) {
        let mut row = Vec::with_capacity(spans.len());
        for s in &spans {
            row.push(s.effective(text, &mut scratch).to_string());
        }
        rows.push(row);
    }
    rows
}

/// Like [`parse_csv`] but keeping each field's quoted flag, for the legacy
/// loader's quote-aware trim.
fn parse_csv_flagged(text: &str) -> Vec<Vec<(String, bool)>> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let mut spans = Vec::new();
    let mut scratch = String::new();
    let mut rows = Vec::new();
    while scan_row(bytes, &mut pos, &mut spans) {
        let mut row = Vec::with_capacity(spans.len());
        for s in &spans {
            row.push((s.effective(text, &mut scratch).to_string(), s.quoted));
        }
        rows.push(row);
    }
    rows
}

/// Infer the narrowest type that fits every non-empty field of a column.
/// Empty columns default to text. See the module docs for the accepted
/// lexical grammar of each type.
pub fn infer_type(fields: &[&str]) -> DataType {
    let mut ladder = TypeLadder::new();
    for s in fields {
        let t = s.trim();
        if !t.is_empty() {
            ladder.feed(t);
        }
    }
    ladder.decide()
}

/// Incremental form of [`infer_type`]: each rung is an "all fields parse"
/// predicate, falsified independently as trimmed non-empty fields stream
/// through, so sampled and whole-column inference share one definition.
#[derive(Debug, Clone)]
struct TypeLadder {
    any: bool,
    int_ok: bool,
    dec_ok: bool,
    date_ok: bool,
    time_ok: bool,
}

impl TypeLadder {
    fn new() -> TypeLadder {
        TypeLadder {
            any: false,
            int_ok: true,
            dec_ok: true,
            date_ok: true,
            time_ok: true,
        }
    }

    /// Feed one trimmed, non-empty field.
    fn feed(&mut self, t: &str) {
        self.any = true;
        if self.int_ok {
            self.int_ok = t.parse::<i64>().is_ok();
        }
        if self.dec_ok {
            self.dec_ok = t.parse::<f64>().map(|x| x.is_finite()).unwrap_or(false);
        }
        if self.date_ok {
            self.date_ok = Date::parse(t).is_some();
        }
        if self.time_ok {
            self.time_ok = Time::parse(t).is_some();
        }
    }

    fn decide(&self) -> DataType {
        if !self.any {
            DataType::Text
        } else if self.int_ok {
            DataType::Int
        } else if self.dec_ok {
            DataType::Decimal
        } else if self.date_ok {
            DataType::Date
        } else if self.time_ok {
            DataType::Time
        } else {
            DataType::Text
        }
    }
}

/// Does a trimmed, non-empty field parse under `dtype`? (`Text` fits all.)
fn fits(t: &str, dtype: DataType) -> bool {
    match dtype {
        DataType::Int => t.parse::<i64>().is_ok(),
        DataType::Decimal => t.parse::<f64>().map(|x| x.is_finite()).unwrap_or(false),
        DataType::Date => Date::parse(t).is_some(),
        DataType::Time => Time::parse(t).is_some(),
        DataType::Text => true,
    }
}

/// The type a column falls back to when `t` failed to parse under
/// `current`. `Int` demotes to `Decimal` when the offending field is a
/// finite decimal (e.g. `"2.5"`, `"1e3"`); everything else demotes to
/// `Text` — int-parsable sample fields can never be dates or times, so no
/// other rung can hold (the grammars are disjoint).
fn demote_from(current: DataType, t: &str) -> DataType {
    match current {
        DataType::Int if t.parse::<f64>().map(|x| x.is_finite()).unwrap_or(false) => {
            DataType::Decimal
        }
        _ => DataType::Text,
    }
}

/// The wider of two column types along the demotion chain.
fn wider(a: DataType, b: DataType) -> DataType {
    if a == b {
        return a;
    }
    match (a, b) {
        (DataType::Text, _) | (_, DataType::Text) => DataType::Text,
        (DataType::Int, DataType::Decimal) | (DataType::Decimal, DataType::Int) => {
            DataType::Decimal
        }
        _ => DataType::Text,
    }
}

/// Split `bytes[from..]` into at most `parts` chunks cut at newline
/// boundaries outside quotes, in one pass. Every `"` toggles quote parity —
/// a doubled escape toggles twice, so parity at any unquoted newline agrees
/// with the escape-aware scanner and the cut is always at a true row
/// boundary. Each chunk carries the index of its first data row.
fn split_chunks(bytes: &[u8], from: usize, parts: usize) -> Vec<(Range<usize>, usize)> {
    let len = bytes.len();
    if parts <= 1 || len - from < PARALLEL_MIN_BYTES {
        return vec![(from..len, 0)];
    }
    let target = (len - from) / parts;
    let mut chunks = Vec::with_capacity(parts);
    let mut chunk_start = from;
    let mut rows_before = 0usize;
    let mut rows_in_chunk = 0usize;
    let mut in_quotes = false;
    let mut next_cut = from + target;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                rows_in_chunk += 1;
                if i + 1 >= next_cut && chunks.len() + 1 < parts && i + 1 < len {
                    chunks.push((chunk_start..i + 1, rows_before));
                    rows_before += rows_in_chunk;
                    rows_in_chunk = 0;
                    chunk_start = i + 1;
                    next_cut = i + 1 + target;
                }
            }
            _ => {}
        }
    }
    if chunk_start < len {
        chunks.push((chunk_start..len, rows_before));
    }
    chunks
}

/// One worker's parse of one chunk.
struct ChunkOutcome {
    batch: ColumnBatch,
    rows: usize,
    /// Per-column types after any local demotions.
    local: Vec<DataType>,
    /// True when a field failed its column type — the batch is discarded
    /// and the coordinator re-parses under the folded wider types.
    changed: bool,
    /// First ragged row: (absolute data row index, field count).
    arity_err: Option<(usize, usize)>,
}

/// Parse one chunk of data rows into a typed [`ColumnBatch`]. On a type
/// conflict the worker stops storing but keeps *checking*, folding every
/// needed demotion into `local` so the coordinator restarts at most once
/// per ladder step (Int → Decimal → Text bounds it at two restarts total).
fn parse_chunk(chunk: &str, start_row: usize, dtypes: &[DataType]) -> ChunkOutcome {
    let bytes = chunk.as_bytes();
    let arity = dtypes.len();
    let mut local = dtypes.to_vec();
    let mut batch = ColumnBatch::from_dtypes(dtypes);
    let mut changed = false;
    let mut pos = 0usize;
    let mut rows = 0usize;
    let mut spans = Vec::with_capacity(arity);
    let mut scratch = String::new();
    while scan_row(bytes, &mut pos, &mut spans) {
        if spans.len() != arity {
            return ChunkOutcome {
                batch,
                rows,
                local,
                changed,
                arity_err: Some((start_row + rows, spans.len())),
            };
        }
        for (c, span) in spans.iter().enumerate() {
            let eff = span.effective(chunk, &mut scratch);
            if !changed {
                if push_field(&mut batch, c, eff, span.quoted, local[c]) {
                    continue;
                }
                local[c] = demote_from(local[c], eff.trim());
                changed = true;
            } else {
                let t = eff.trim();
                if !t.is_empty() && !fits(t, local[c]) {
                    local[c] = demote_from(local[c], t);
                }
            }
        }
        rows += 1;
    }
    ChunkOutcome {
        batch,
        rows,
        local,
        changed,
        arity_err: None,
    }
}

/// Fault-isolated wrapper around [`parse_chunk`]: a panicking worker is
/// caught and surfaces as [`DbError::IngestPanic`] naming the chunk's
/// first row. Parsing is deterministic, so a retry could only repeat the
/// panic. The builder is untouched, so a failed ingest leaves no partial
/// table behind.
fn parse_chunk_guarded(
    chunk: &str,
    start_row: usize,
    dtypes: &[DataType],
) -> Result<ChunkOutcome, DbError> {
    catch_unwind(AssertUnwindSafe(|| parse_chunk(chunk, start_row, dtypes))).map_err(|payload| {
        DbError::IngestPanic {
            chunk_row: start_row,
            message: panic_message(&*payload),
        }
    })
}

/// Best-effort text of a panic payload (the `&str`/`String` forms cover
/// `panic!` and `assert!`; anything else is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Push one effective field into the batch under `dtype`; `false` on a
/// parse conflict (nothing is pushed). NULL rule: trimmed-empty content is
/// NULL everywhere; stored text keeps quoted fields verbatim and trims
/// unquoted ones.
fn push_field(batch: &mut ColumnBatch, c: usize, eff: &str, quoted: bool, dtype: DataType) -> bool {
    // The batch was built from the same dtypes this function matches on,
    // so a kind mismatch is structurally impossible.
    const ALIGNED: &str = "batch columns are built from the dtypes being pushed";
    if dtype == DataType::Text {
        if quoted {
            if eff.is_empty() {
                batch.push_null(c);
            } else {
                batch.push_str(c, eff).expect(ALIGNED);
            }
        } else {
            let t = eff.trim();
            if t.is_empty() {
                batch.push_null(c);
            } else {
                batch.push_str(c, t).expect(ALIGNED);
            }
        }
        return true;
    }
    let t = eff.trim();
    if t.is_empty() {
        batch.push_null(c);
        return true;
    }
    match dtype {
        DataType::Int => match t.parse::<i64>() {
            Ok(v) => {
                batch.push_int(c, v).expect(ALIGNED);
                true
            }
            Err(_) => false,
        },
        DataType::Decimal => match t.parse::<f64>() {
            Ok(v) if v.is_finite() => {
                batch.push_decimal(c, v).expect(ALIGNED);
                true
            }
            _ => false,
        },
        DataType::Date => match Date::parse(t) {
            Some(d) => {
                batch.push_date(c, d).expect(ALIGNED);
                true
            }
            None => false,
        },
        DataType::Time => match Time::parse(t) {
            Some(v) => {
                batch.push_time(c, v).expect(ALIGNED);
                true
            }
            None => false,
        },
        DataType::Text => unreachable!("handled above"),
    }
}

/// Convert one CSV field to a typed value; trimmed-empty → NULL. Quoted
/// text keeps its padding; unquoted text is trimmed (numeric/date/time
/// parsing trims either way, matching inference).
fn field_to_value(field: &str, quoted: bool, dtype: DataType) -> Result<Value, DbError> {
    if dtype == DataType::Text {
        return Ok(if quoted {
            if field.is_empty() {
                Value::Null
            } else {
                Value::Text(field.to_string())
            }
        } else {
            let t = field.trim();
            if t.is_empty() {
                Value::Null
            } else {
                Value::Text(t.to_string())
            }
        });
    }
    let s = field.trim();
    if s.is_empty() {
        return Ok(Value::Null);
    }
    let mismatch = || DbError::TypeMismatch {
        table: String::new(),
        column: String::new(),
        expected: dtype,
        got: "text",
    };
    Ok(match dtype {
        DataType::Int => Value::Int(s.parse::<i64>().map_err(|_| mismatch())?),
        DataType::Decimal => Value::decimal(s.parse::<f64>().map_err(|_| mismatch())?)?,
        DataType::Date => Value::Date(Date::parse(s).ok_or_else(mismatch)?),
        DataType::Time => Value::Time(Time::parse(s).ok_or_else(mismatch)?),
        DataType::Text => unreachable!("handled above"),
    })
}

impl DatabaseBuilder {
    /// Declare a table from CSV text whose first row is the header, with
    /// inferred column types, and stream all data rows into typed columns.
    ///
    /// This is the zero-`Value` path: fields are parsed as byte spans
    /// straight into [`ColumnBatch`]es, in parallel chunks when the input
    /// is large, on up to 8 threads. Semantics match
    /// the legacy per-row loader except for the quote-aware trim fix
    /// (quoted text keeps its padding).
    pub fn add_table_from_csv(
        &mut self,
        name: impl Into<String>,
        csv_text: &str,
    ) -> Result<TableId, DbError> {
        self.ingest_csv(name.into(), csv_text, ingest_threads())
    }

    /// [`DatabaseBuilder::add_table_from_csv`] with an explicit parse
    /// thread count (tests pin 1/2/4; `0` is treated as 1).
    pub fn add_table_from_csv_threads(
        &mut self,
        name: impl Into<String>,
        csv_text: &str,
        threads: usize,
    ) -> Result<TableId, DbError> {
        self.ingest_csv(name.into(), csv_text, threads.max(1))
    }

    /// Stream a CSV file from disk: the file is read into one buffer and
    /// ingested via [`DatabaseBuilder::add_table_from_csv`].
    pub fn add_table_from_csv_path(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<TableId, DbError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| DbError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        self.ingest_csv(name.into(), &text, ingest_threads())
    }

    /// The pre-streaming loader: materializes every row as
    /// `Vec<(String, _)>`, converts each cell through [`Value`], and
    /// inserts row by row. Kept as an independent oracle for the streaming
    /// path's equivalence tests. Trim semantics match the streaming path
    /// (quote-aware).
    pub fn add_table_from_csv_legacy(
        &mut self,
        name: impl Into<String>,
        csv_text: &str,
    ) -> Result<TableId, DbError> {
        let name = name.into();
        let rows = parse_csv_flagged(csv_text);
        let Some((header, data)) = rows.split_first() else {
            return Err(DbError::InvalidQuery(format!(
                "CSV for table `{name}` has no header row"
            )));
        };
        let arity = header.len();
        for (i, row) in data.iter().enumerate() {
            if row.len() != arity {
                return Err(DbError::ArityMismatch {
                    table: format!("{name} (csv row {})", i + 2),
                    expected: arity,
                    got: row.len(),
                });
            }
        }
        let columns: Vec<ColumnDef> = (0..arity)
            .map(|c| {
                let fields: Vec<&str> = data.iter().map(|r| r[c].0.as_str()).collect();
                ColumnDef::new(header[c].0.trim(), infer_type(&fields))
            })
            .collect();
        let dtypes: Vec<DataType> = columns.iter().map(|c| c.dtype).collect();
        let tid = self.add_table(name.clone(), columns)?;
        for row in data {
            let values: Result<Vec<Value>, DbError> = row
                .iter()
                .zip(&dtypes)
                .map(|((f, quoted), t)| field_to_value(f, *quoted, *t))
                .collect();
            self.add_row(&name, values?)?;
        }
        Ok(tid)
    }

    /// The streaming ingest core: header scan → bounded sample inference →
    /// parallel chunk parse (with demote-and-restart on sample misses) →
    /// in-order batch splice. All parsing completes before the builder is
    /// touched, so an error leaves it unchanged.
    fn ingest_csv(&mut self, name: String, text: &str, threads: usize) -> Result<TableId, DbError> {
        let started = std::time::Instant::now();
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let mut spans = Vec::new();
        let mut scratch = String::new();
        if !scan_row(bytes, &mut pos, &mut spans) {
            return Err(DbError::InvalidQuery(format!(
                "CSV for table `{name}` has no header row"
            )));
        }
        let mut header: Vec<String> = Vec::with_capacity(spans.len());
        for s in &spans {
            header.push(s.effective(text, &mut scratch).trim().to_string());
        }
        let arity = header.len();
        let data_start = pos;

        // Bounded inference pass over a prefix sample. Past the horizon,
        // only columns that have not yet seen a non-empty field keep
        // scanning, so the sampled decision can only disagree with the
        // whole-column one in ways the verify-and-demote loop repairs.
        let mut ladders = vec![TypeLadder::new(); arity];
        let mut row = 0usize;
        while scan_row(bytes, &mut pos, &mut spans) {
            if spans.len() != arity {
                return Err(DbError::ArityMismatch {
                    table: format!("{name} (csv row {})", row + 2),
                    expected: arity,
                    got: spans.len(),
                });
            }
            let sampling = row < SAMPLE_ROWS;
            for (c, span) in spans.iter().enumerate() {
                if !sampling && ladders[c].any {
                    continue;
                }
                let t = span.effective(text, &mut scratch).trim();
                if !t.is_empty() {
                    // Feed owns no reference to scratch past this call.
                    let mut l = std::mem::replace(&mut ladders[c], TypeLadder::new());
                    l.feed(t);
                    ladders[c] = l;
                }
            }
            row += 1;
            if row >= SAMPLE_ROWS && ladders.iter().all(|l| l.any) {
                break;
            }
        }
        let mut dtypes: Vec<DataType> = ladders.iter().map(TypeLadder::decide).collect();

        // Parse rounds: conflicts fold into wider types and restart; the
        // demotion ladder (Int → Decimal → Text) bounds this at 3 rounds.
        let (outcomes, used_threads) = loop {
            let chunks = split_chunks(bytes, data_start, threads);
            let outcomes: Vec<ChunkOutcome> = if chunks.len() <= 1 {
                chunks
                    .into_iter()
                    .map(|(r, sr)| parse_chunk_guarded(&text[r], sr, &dtypes))
                    .collect::<Result<_, DbError>>()?
            } else {
                let dt: &[DataType] = &dtypes;
                std::thread::scope(|s| {
                    let handles: Vec<_> = chunks
                        .iter()
                        .map(|(r, sr)| {
                            let (r, sr) = (r.clone(), *sr);
                            s.spawn(move || parse_chunk_guarded(&text[r], sr, dt))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("guarded CSV worker cannot unwind"))
                        .collect::<Result<_, DbError>>()
                })?
            };
            if let Some((row, got)) = outcomes.iter().filter_map(|o| o.arity_err).min() {
                return Err(DbError::ArityMismatch {
                    table: format!("{name} (csv row {})", row + 2),
                    expected: arity,
                    got,
                });
            }
            if outcomes.iter().any(|o| o.changed) {
                for o in &outcomes {
                    for (c, &t) in o.local.iter().enumerate() {
                        dtypes[c] = wider(dtypes[c], t);
                    }
                }
                continue;
            }
            let n = outcomes.len();
            break (outcomes, n);
        };

        let columns: Vec<ColumnDef> = header
            .iter()
            .zip(&dtypes)
            .map(|(h, &d)| ColumnDef::new(h.clone(), d))
            .collect();
        let tid = self.add_table(name, columns)?;
        let mut total_rows = 0usize;
        for o in outcomes {
            total_rows += o.rows;
            self.append_batch_internal(tid, o.batch)?;
        }
        let ing = self.ingest_mut();
        ing.csv_bytes += text.len();
        ing.csv_rows += total_rows;
        ing.csv_parse_nanos += started.elapsed().as_nanos() as u64;
        ing.parse_threads = ing.parse_threads.max(used_threads);
        Ok(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAKES_CSV: &str = "\
Name,Area,Discovered
Lake Tahoe,497,1844-02-14
Crater Lake,53.2,1853-06-12
Fort Peck Lake,981,
\"Lake of the Woods\",4350,1688-01-01
";

    #[test]
    fn parses_simple_rows() {
        let rows = parse_csv("a,b\n1,2\n3,4\n");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec!["a", "b"]);
        assert_eq!(rows[2], vec!["3", "4"]);
    }

    #[test]
    fn parses_quotes_commas_and_embedded_newlines() {
        let rows =
            parse_csv("name,note\n\"Tahoe, Lake\",\"line1\nline2\"\n\"He said \"\"hi\"\"\",x\n");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1][0], "Tahoe, Lake");
        assert_eq!(rows[1][1], "line1\nline2");
        assert_eq!(rows[2][0], "He said \"hi\"");
    }

    #[test]
    fn handles_missing_trailing_newline_and_crlf() {
        let rows = parse_csv("a,b\r\n1,2");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
        assert!(parse_csv("").is_empty());
    }

    #[test]
    fn trailing_line_rules_match_the_sequential_parser() {
        // A trailing quoted-empty or bare-CR line is no row at all...
        assert_eq!(parse_csv("a,b\n\"\"").len(), 1);
        assert_eq!(parse_csv("a,b\n\r").len(), 1);
        // ...but any comma or content makes it one.
        assert_eq!(parse_csv("a,b\n,").len(), 2);
        assert_eq!(parse_csv("a,b\n\" \"")[1], vec![" "]);
        // A lone newline is one row with one empty field.
        assert_eq!(parse_csv("\n"), vec![vec![String::new()]]);
    }

    #[test]
    fn type_inference_order() {
        assert_eq!(infer_type(&["1", "2", "3"]), DataType::Int);
        assert_eq!(infer_type(&["1", "2.5"]), DataType::Decimal);
        assert_eq!(infer_type(&["2001-01-01", "1999-12-31"]), DataType::Date);
        assert_eq!(infer_type(&["09:30", "10:00:01"]), DataType::Time);
        assert_eq!(infer_type(&["1", "x"]), DataType::Text);
        assert_eq!(infer_type(&["", ""]), DataType::Text);
        // Empty fields don't break inference.
        assert_eq!(infer_type(&["1", "", "3"]), DataType::Int);
    }

    /// The accepted lexical grammar is exactly `str::parse` (module docs):
    /// `+5` is an int, `1e3` is a decimal (i64 has no exponent form), and
    /// non-finite spellings fall through to text.
    #[test]
    fn numeric_grammar_is_str_parse() {
        assert_eq!(infer_type(&["+5", "-3"]), DataType::Int);
        assert_eq!(infer_type(&["1e3", "2"]), DataType::Decimal);
        assert_eq!(infer_type(&[".5", "+2.5", "1E-2"]), DataType::Decimal);
        assert_eq!(infer_type(&["nan"]), DataType::Text);
        assert_eq!(infer_type(&["inf", "1"]), DataType::Text);
        assert_eq!(infer_type(&["1e400"]), DataType::Text); // overflows to inf
        assert_eq!(infer_type(&[" 5 "]), DataType::Int); // typing trims
    }

    #[test]
    fn builds_a_table_with_inferred_schema_and_nulls() {
        let mut b = DatabaseBuilder::new("csv");
        let tid = b.add_table_from_csv("Lake", LAKES_CSV).unwrap();
        let db = b.build();
        let schema = db.catalog().table(tid);
        assert_eq!(schema.columns[0].dtype, DataType::Text);
        assert_eq!(schema.columns[1].dtype, DataType::Decimal);
        assert_eq!(schema.columns[2].dtype, DataType::Date);
        assert_eq!(db.row_count(tid), 4);
        // Empty Discovered field became NULL.
        let discovered = db.catalog().column_ref("Lake", "Discovered").unwrap();
        assert_eq!(db.value(discovered, 2), Value::Null);
        // Quoted name kept intact; index finds it.
        assert_eq!(db.index().columns_with_cell("Lake of the Woods").count(), 1);
        // Ingest accounting reached the report.
        assert_eq!(db.ingest_report().csv_rows, 4);
        assert_eq!(db.ingest_report().csv_bytes, LAKES_CSV.len());
    }

    #[test]
    fn csv_tables_join_with_builder_tables() {
        let mut b = DatabaseBuilder::new("csv");
        b.add_table_from_csv("Lake", LAKES_CSV).unwrap();
        b.add_table_from_csv(
            "geo_lake",
            "Lake,State\nLake Tahoe,California\nLake Tahoe,Nevada\nCrater Lake,Oregon\n",
        )
        .unwrap();
        b.add_foreign_key("geo_lake", "Lake", "Lake", "Name")
            .unwrap();
        let db = b.build();
        assert_eq!(db.graph().edge_count(), 1);
        let q = crate::exec::PjQuery {
            nodes: vec![
                db.catalog().table_id("Lake").unwrap(),
                db.catalog().table_id("geo_lake").unwrap(),
            ],
            joins: vec![crate::exec::JoinCond {
                left_node: 1,
                left_col: 0,
                right_node: 0,
                right_col: 0,
            }],
            projection: vec![(1, 1), (0, 0)],
        };
        assert_eq!(q.execute(&db, 100).unwrap().len(), 3);
    }

    #[test]
    fn ragged_rows_are_rejected_with_row_number() {
        let mut b = DatabaseBuilder::new("csv");
        let err = b.add_table_from_csv("T", "a,b\n1\n").unwrap_err();
        match err {
            DbError::ArityMismatch { table, .. } => assert!(table.contains("row 2")),
            other => panic!("unexpected {other:?}"),
        }
        // A late ragged row (past any sample prefix) is still caught before
        // the table is declared.
        let mut b = DatabaseBuilder::new("csv");
        let err = b
            .add_table_from_csv("T", "a,b\n1,2\n3,4\n5,6,7\n")
            .unwrap_err();
        match err {
            DbError::ArityMismatch { table, got, .. } => {
                assert!(table.contains("row 4"), "{table}");
                assert_eq!(got, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(b.new_batch("T").is_err(), "builder left untouched");
    }

    #[test]
    fn headerless_csv_is_rejected() {
        let mut b = DatabaseBuilder::new("csv");
        assert!(b.add_table_from_csv("T", "").is_err());
    }

    /// Satellite regression: quoted text keeps its padding; unquoted text
    /// is still trimmed (and quoted whitespace-only is not NULL).
    #[test]
    fn quoted_text_keeps_padding_unquoted_is_trimmed() {
        let csv = "name,tag\n\" padded \",  plain  \n\" \",x\n";
        for streaming in [true, false] {
            let mut b = DatabaseBuilder::new("trim");
            let tid = if streaming {
                b.add_table_from_csv("T", csv).unwrap()
            } else {
                b.add_table_from_csv_legacy("T", csv).unwrap()
            };
            let db = b.build();
            assert_eq!(
                db.value_ref(crate::schema::ColumnRef::new(tid, 0), 0)
                    .to_value(),
                Value::text(" padded "),
                "streaming={streaming}"
            );
            assert_eq!(
                db.value_ref(crate::schema::ColumnRef::new(tid, 1), 0)
                    .to_value(),
                Value::text("plain"),
                "streaming={streaming}"
            );
            assert_eq!(
                db.value_ref(crate::schema::ColumnRef::new(tid, 0), 1)
                    .to_value(),
                Value::text(" "),
                "streaming={streaming}"
            );
        }
    }

    /// Quoted padded numbers still parse (typing trims quoted fields too,
    /// matching `infer_type`).
    #[test]
    fn quoted_padded_numbers_stay_numeric() {
        let mut b = DatabaseBuilder::new("q");
        let tid = b.add_table_from_csv("T", "x\n\" 5 \"\n7\n").unwrap();
        let db = b.build();
        assert_eq!(db.catalog().table(tid).columns[0].dtype, DataType::Int);
        assert_eq!(
            db.value(crate::schema::ColumnRef::new(tid, 0), 0),
            Value::Int(5)
        );
    }

    /// A sample that says Int but a later field that is decimal (or text)
    /// demotes the column and re-parses — the final schema matches
    /// whole-column inference.
    #[test]
    fn late_conflicts_demote_like_whole_column_inference() {
        // Build a CSV whose first SAMPLE_ROWS rows are ints and whose last
        // row is wider.
        for (tail, want) in [
            ("2.5", DataType::Decimal),
            ("1e3", DataType::Decimal),
            ("x", DataType::Text),
            ("inf", DataType::Text),
        ] {
            let mut csv = String::from("v\n");
            for i in 0..(SAMPLE_ROWS + 10) {
                csv.push_str(&format!("{i}\n"));
            }
            csv.push_str(tail);
            csv.push('\n');
            let mut b = DatabaseBuilder::new("demote");
            let tid = b.add_table_from_csv("T", &csv).unwrap();
            let db = b.build();
            assert_eq!(
                db.catalog().table(tid).columns[0].dtype,
                want,
                "tail={tail}"
            );
            assert_eq!(db.row_count(tid), SAMPLE_ROWS + 11);
        }
    }

    /// Columns all-empty within the sample keep scanning until their first
    /// non-empty field, so the inferred type still matches whole-column
    /// inference.
    #[test]
    fn all_empty_sample_columns_extend_the_scan() {
        let mut csv = String::from("a,b\n");
        for i in 0..(SAMPLE_ROWS + 5) {
            csv.push_str(&format!("{i},\n"));
        }
        csv.push_str("9,42\n");
        let mut b = DatabaseBuilder::new("empty");
        let tid = b.add_table_from_csv("T", &csv).unwrap();
        let db = b.build();
        assert_eq!(db.catalog().table(tid).columns[1].dtype, DataType::Int);
        assert_eq!(
            db.stats()
                .column(crate::schema::ColumnRef::new(tid, 1))
                .null_count as usize,
            SAMPLE_ROWS + 5
        );
    }

    #[test]
    fn csv_path_ingest_reads_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("prism_csv_path_test.csv");
        std::fs::write(&path, LAKES_CSV).unwrap();
        let mut b = DatabaseBuilder::new("file");
        let tid = b.add_table_from_csv_path("Lake", &path).unwrap();
        let db = b.build();
        assert_eq!(db.row_count(tid), 4);
        std::fs::remove_file(&path).ok();
        let mut b = DatabaseBuilder::new("file");
        let err = b
            .add_table_from_csv_path("Lake", dir.join("prism_no_such_file.csv"))
            .unwrap_err();
        assert!(matches!(err, DbError::Io { .. }));
    }

    /// The legacy `Value`-detour loader and the streaming loader build
    /// identical tables on the toy fixture.
    #[test]
    fn legacy_and_streaming_loaders_agree_on_lakes() {
        let mut a = DatabaseBuilder::new("s");
        let ta = a.add_table_from_csv("Lake", LAKES_CSV).unwrap();
        let da = a.build();
        let mut l = DatabaseBuilder::new("l");
        let tl = l.add_table_from_csv_legacy("Lake", LAKES_CSV).unwrap();
        let dl = l.build();
        assert_eq!(
            da.catalog().table(ta).columns,
            dl.catalog().table(tl).columns
        );
        assert_eq!(da.row_count(ta), dl.row_count(tl));
        for r in 0..da.row_count(ta) as u32 {
            assert_eq!(
                da.table(ta).row(da.symbols(), r),
                dl.table(tl).row(dl.symbols(), r)
            );
        }
    }
}
