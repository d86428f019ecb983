//! Property tests for the streaming CSV ingest path: the zero-`Value`
//! loader must be observationally identical to the legacy per-row loader
//! (same values, same NULLs, same interned symbols, same zone maps), and
//! the chunked parallel parse must be byte-for-byte equivalent to the
//! sequential one on arbitrary quoted/CRLF/embedded-newline inputs.

use prism_db::types::Value;
use prism_db::{Database, DatabaseBuilder};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One CSV field: raw content plus "the renderer must quote this even if
/// it doesn't have to" (exercises the quoted-vs-unquoted trim split).
type Field = (String, bool);
type Row = (Field, Field, Field, Field);

fn arb_bool() -> impl Strategy<Value = bool> {
    (0usize..2).prop_map(|b| b == 1)
}

fn arb_quoted<S: Strategy<Value = String>>(s: S) -> impl Strategy<Value = Field> {
    (s, arb_bool())
}

/// Free text drawn from printable ASCII plus every CSV special character:
/// commas, quotes, bare newlines, and carriage returns.
fn arb_free() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            (0x20u32..0x7F).prop_map(|c| char::from_u32(c).expect("printable ascii")),
            Just('\n'),
            Just('\r'),
            Just('"'),
            Just(','),
        ],
        0..8,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Int-ish cells: canonical, sign-prefixed, padded, or NULL. A rare free
/// cell forces the demote path (Int → Text restart in chunk workers).
fn arb_int_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (-9_999i64..9_999).prop_map(|n| n.to_string()),
        (0i64..999).prop_map(|n| format!(" +{n} ")),
        "[a-z]{1,3}",
    ]
}

fn arb_dec_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (-9_999i64..9_999).prop_map(|n| format!("{n}.25")),
        (-40i64..40).prop_map(|n| format!("  {n}e2")),
    ]
}

fn arb_date_cell() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        (1900i64..2100, 1i64..=12, 1i64..=28).prop_map(|(y, m, d)| format!("{y}-{m:02}-{d:02}")),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        arb_quoted(arb_int_cell()),
        arb_quoted(arb_dec_cell()),
        arb_quoted(arb_date_cell()),
        arb_quoted(arb_free()),
    )
}

fn needs_quote(s: &str) -> bool {
    s.contains([',', '"', '\n', '\r'])
}

fn render_field(out: &mut String, (s, force): &Field) {
    if *force || needs_quote(s) {
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Render rows under a fixed four-column header. `crlf` picks the line
/// terminator; `trailing_nl` decides whether the last row is terminated.
fn render_csv(rows: &[Row], crlf: bool, trailing_nl: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut out = String::from("i,d,when,s");
    for (a, b, c, d) in rows {
        out.push_str(eol);
        render_field(&mut out, a);
        out.push(',');
        render_field(&mut out, b);
        out.push(',');
        render_field(&mut out, c);
        out.push(',');
        render_field(&mut out, d);
    }
    if trailing_nl {
        out.push_str(eol);
    }
    out
}

enum Loader {
    Streaming(usize),
    Legacy,
}

fn build(text: &str, loader: Loader, block_rows: Option<usize>) -> Database {
    let mut b = DatabaseBuilder::new("P");
    if let Some(rows) = block_rows {
        b = b.with_block_rows(rows);
    }
    match loader {
        Loader::Streaming(threads) => b.add_table_from_csv_threads("T", text, threads),
        Loader::Legacy => b.add_table_from_csv_legacy("T", text),
    }
    .expect("generated CSV is well-formed");
    b.build()
}

/// Row-identical: same values (symbols resolved), same NULL structure,
/// same inferred types, and identical per-block zone maps.
fn assert_equiv(a: &Database, b: &Database, ctx: &str) -> Result<(), TestCaseError> {
    let ta = a.table(a.catalog().table_id("T").expect("table exists"));
    let tb = b.table(b.catalog().table_id("T").expect("table exists"));
    prop_assert_eq!(ta.row_count(), tb.row_count(), "{}: row counts differ", ctx);
    for r in 0..ta.row_count() as u32 {
        prop_assert_eq!(
            ta.row(a.symbols(), r),
            tb.row(b.symbols(), r),
            "{}: row {} differs",
            ctx,
            r
        );
    }
    for c in 0..4u32 {
        let ca = ta.column(c);
        let cb = tb.column(c);
        prop_assert_eq!(ca.dtype(), cb.dtype(), "{}: col {} dtype", ctx, c);
        prop_assert_eq!(
            ca.null_count(),
            cb.null_count(),
            "{}: col {} null count",
            ctx,
            c
        );
        prop_assert_eq!(
            ca.block_meta(),
            cb.block_meta(),
            "{}: col {} zone maps",
            ctx,
            c
        );
        prop_assert_eq!(
            ca.summary_meta(),
            cb.summary_meta(),
            "{}: col {} summary zone",
            ctx,
            c
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite: the streaming loader is an exact stand-in for the legacy
    /// `Value`-per-cell `add_row` path, at the default block size and at
    /// 64-row blocks.
    #[test]
    fn streaming_loader_matches_legacy_add_row_path(
        rows in proptest::collection::vec(arb_row(), 0..24),
        crlf in arb_bool(),
        trailing_nl in arb_bool(),
    ) {
        let text = render_csv(&rows, crlf, trailing_nl);
        for block_rows in [None, Some(64)] {
            let streaming = build(&text, Loader::Streaming(1), block_rows);
            let legacy = build(&text, Loader::Legacy, block_rows);
            assert_equiv(&streaming, &legacy, &format!("block_rows {block_rows:?}"))?;
            prop_assert_eq!(streaming.ingest_report().csv_rows, rows.len());
        }
    }
}

proptest! {
    // Each case tiles the generated rows past the parallel-split threshold
    // (~64 KiB), so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: chunked parallel parsing is equivalent to the sequential
    /// parse for arbitrary quoted/CRLF/embedded-newline inputs — chunk
    /// splits never land inside a quoted field, and per-chunk batches
    /// splice back in order.
    #[test]
    fn chunked_parallel_parse_matches_sequential(
        rows in proptest::collection::vec(arb_row(), 1..16),
        crlf in arb_bool(),
        trailing_nl in arb_bool(),
    ) {
        // Tile the data section until the input is big enough to split.
        let one = render_csv(&rows, crlf, true);
        let (header, data) = one.split_once(if crlf { "\r\n" } else { "\n" }).expect("header row");
        let copies = 70 * 1024 / data.len() + 1;
        let mut text = String::with_capacity(header.len() + 1 + copies * data.len());
        text.push_str(header);
        text.push_str(if crlf { "\r\n" } else { "\n" });
        for _ in 0..copies {
            text.push_str(data);
        }
        if !trailing_nl {
            while text.ends_with(['\r', '\n']) {
                text.pop();
            }
        }

        let sequential = build(&text, Loader::Streaming(1), None);
        for threads in [2usize, 4] {
            let parallel = build(&text, Loader::Streaming(threads), None);
            prop_assert!(
                parallel.ingest_report().parse_threads >= 2,
                "input of {} bytes did not split",
                text.len()
            );
            assert_equiv(&sequential, &parallel, &format!("{threads} threads"))?;
        }
    }
}

/// CSV fragments that stress the reader: lone and doubled quotes, bare and
/// paired line breaks, separators and padding, non-ASCII text with curly
/// quotes, and numeric, date- and time-shaped fields, valid or not.
fn arb_fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("\""),
        Just("\"\""),
        Just("\r"),
        Just("\n"),
        Just("\r\n"),
        Just(","),
        Just("\t"),
        Just(" "),
        Just("a"),
        Just("é"),
        Just("中"),
        Just("\u{1F980}"),
        Just("\u{2019}"),
        Just("\u{201D}"),
        Just("42"),
        Just("-3.5e2"),
        Just("NaN"),
        Just("9223372036854775808"),
        Just("2024-02-29"),
        Just("2023-13-45"),
        Just("23:59:59"),
        Just("24:61:00"),
    ]
}

/// The no-panic contract of the ingest path (`DatabaseBuilder` reads user
/// CSV): any text yields a table or a typed error at one and four parse
/// threads, and a table that loads also builds. Each text also runs tiled
/// past the parallel-split threshold, so chunk splits land in malformed
/// input too; some tiled loads must really parse in parallel.
#[test]
fn arbitrary_csv_text_loads_or_errs_without_panicking() {
    let strategy = proptest::collection::vec(arb_fragment(), 0..24);
    let mut rng = proptest::test_runner::TestRng::deterministic("arbitrary_csv_text");
    let (mut loaded, mut split) = (0, 0);
    for case in 0..256 {
        let text: String = strategy.generate(&mut rng).concat();
        let tiled = if text.is_empty() {
            String::new()
        } else {
            text.repeat(70 * 1024 / text.len() + 1)
        };
        for input in [&text, &tiled] {
            for threads in [1, 4] {
                let outcome = std::panic::catch_unwind(|| {
                    let mut b = DatabaseBuilder::new("P");
                    b.add_table_from_csv_threads("T", input, threads)
                        .is_ok()
                        .then(|| b.build().ingest_report().parse_threads)
                });
                let Ok(parse_threads) = outcome else {
                    panic!(
                        "case {case}: panicked at {threads} thread(s) on {} bytes of {text:?}",
                        input.len()
                    );
                };
                loaded += usize::from(parse_threads.is_some());
                split += usize::from(parse_threads.is_some_and(|t| t > 1));
            }
        }
    }
    eprintln!("{loaded} loads succeeded, {split} of them split across threads");
    assert!(split > 0, "no tiled text parsed in parallel");
}

/// Quoted padding survives the streaming path and the legacy path alike
/// (the trim fix is shared), while unquoted padding still trims — checked
/// here end to end through both loaders rather than at the field level.
#[test]
fn quoted_padding_is_preserved_by_both_loaders() {
    let text = "s,t\n\"  padded  \",  bare  \n";
    for loader in [Loader::Streaming(1), Loader::Legacy] {
        let db = build(text, loader, None);
        let t = db.table(db.catalog().table_id("T").unwrap());
        assert_eq!(
            t.row(db.symbols(), 0),
            vec![Value::text("  padded  "), Value::text("bare")]
        );
    }
}
