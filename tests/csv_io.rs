//! Edge-case coverage for the typed CSV/TSV ingestion layer, driven
//! through the public facade the way a user would: quoted delimiters,
//! CRLF endings, ragged rows, null tokens, a byte-order mark,
//! type-inference conflicts falling back to `Str`, types fixed only at the
//! end of the input, and error order.

use relative_trust::io::{
    load_path, load_path_chunked, read_instance, CsvOptions, IoError, LoadReport,
};
use relative_trust::prelude::*;
use relative_trust::scenarios::{gen, WAREHOUSE_ERRORS};

#[test]
fn quoted_delimiters_quotes_and_newlines_stay_literal() {
    let csv = "name,note\n\
               \"Doe, Jane\",\"says \"\"hi\"\"\"\n\
               plain,\"two\nlines\"\n";
    let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    let inst = &report.instance;
    assert_eq!(inst.len(), 2);
    assert_eq!(
        *inst.cell(CellRef::new(0, AttrId(0))).unwrap(),
        Value::str("Doe, Jane")
    );
    assert_eq!(
        *inst.cell(CellRef::new(0, AttrId(1))).unwrap(),
        Value::str("says \"hi\"")
    );
    assert_eq!(
        *inst.cell(CellRef::new(1, AttrId(1))).unwrap(),
        Value::str("two\nlines")
    );
}

#[test]
fn crlf_input_parses_like_lf_input() {
    let lf = "a,b\n1,x\n2,y\n";
    let crlf = "a,b\r\n1,x\r\n2,y\r\n";
    let from_lf = read_instance(lf.as_bytes(), &CsvOptions::csv()).unwrap();
    let from_crlf = read_instance(crlf.as_bytes(), &CsvOptions::csv()).unwrap();
    assert_eq!(from_lf.instance, from_crlf.instance);
    assert_eq!(from_lf.columns, from_crlf.columns);
}

#[test]
fn ragged_rows_are_errors_with_line_numbers() {
    let csv = "a,b,c\n1,2,3\n4,5\n";
    let err = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap_err();
    match err {
        IoError::Parse { line, message } => {
            assert_eq!(line, 3);
            assert!(message.contains("expected 3 fields, found 2"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    // Too many fields is just as ragged as too few.
    let err = read_instance("a,b\n1,2,3\n".as_bytes(), &CsvOptions::csv()).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err:?}");
}

#[test]
fn unquoted_null_spellings_load_as_null_and_quoted_ones_as_text() {
    let csv = "a,b\nNULL,1\nNA,2\n\"NULL\",3\n,4\n";
    let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    let inst = &report.instance;
    // Unquoted NULL / NA / empty are all null tokens...
    assert!(inst.cell(CellRef::new(0, AttrId(0))).unwrap().is_null());
    assert!(inst.cell(CellRef::new(1, AttrId(0))).unwrap().is_null());
    assert!(inst.cell(CellRef::new(3, AttrId(0))).unwrap().is_null());
    // ...but a *quoted* "NULL" is a literal string.
    assert_eq!(
        *inst.cell(CellRef::new(2, AttrId(0))).unwrap(),
        Value::str("NULL")
    );
    assert_eq!(report.null_cells, 3);
}

#[test]
fn empty_input_is_an_error() {
    let err = read_instance("".as_bytes(), &CsvOptions::csv()).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 0, .. }), "{err:?}");
    assert!(err.to_string().contains("missing header"), "{err}");
}

#[test]
fn type_inference_conflicts_fall_back_to_str() {
    // Column a: ints until a stray word → Str (and "7" loads as the
    // string "7", not the integer 7). Column b: ints then a float → Float.
    // Column c: all ints → Int. Column d: only nulls → Str.
    let csv = "a,b,c,d\n7,1,10,NULL\n8,2.5,11,\nword,3,12,NA\n";
    let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    assert_eq!(
        report.columns,
        vec![
            ColumnType::Str,
            ColumnType::Float,
            ColumnType::Int,
            ColumnType::Str
        ]
    );
    let inst = &report.instance;
    assert_eq!(
        *inst.cell(CellRef::new(0, AttrId(0))).unwrap(),
        Value::str("7")
    );
    assert_eq!(
        *inst.cell(CellRef::new(0, AttrId(1))).unwrap(),
        Value::float(1.0)
    );
    assert_eq!(
        *inst.cell(CellRef::new(0, AttrId(2))).unwrap(),
        Value::Int(10)
    );
    // Non-finite spellings never become floats.
    let report = read_instance("x\n1.5\ninf\n".as_bytes(), &CsvOptions::csv()).unwrap();
    assert_eq!(report.columns, vec![ColumnType::Str]);
}

#[test]
fn tsv_dialect_and_instance_from_csv_round_trip() {
    let dir = std::env::temp_dir().join("rt_csv_io_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.tsv");
    std::fs::write(&path, "id\tscore\n1\t2.5\n2\t3.5\n").unwrap();
    let inst = load_path(&path, &CsvOptions::tsv()).unwrap().instance;
    assert_eq!(inst.len(), 2);
    assert_eq!(
        *inst.cell(CellRef::new(1, AttrId(1))).unwrap(),
        Value::float(3.5)
    );
    // The file and the in-memory text load alike.
    let text = std::fs::read_to_string(&path).unwrap();
    let buffered = read_instance(text.as_bytes(), &CsvOptions::tsv()).unwrap();
    let streamed = load_path(&path, &CsvOptions::tsv()).unwrap();
    assert_eq!(buffered.instance, streamed.instance);
    std::fs::remove_file(&path).ok();
}

/// Asserts two loads agree on everything a load reports: the instance
/// (codes and dictionaries included), column types and null count.
fn assert_same_load(a: &LoadReport, b: &LoadReport, context: &str) {
    assert_eq!(a.instance, b.instance, "{context}: instances differ");
    for (attr, _) in a.instance.schema().attributes() {
        assert_eq!(
            a.instance.codes(attr),
            b.instance.codes(attr),
            "{context}: {attr:?}"
        );
        assert_eq!(
            a.instance.dict(attr).constants(),
            b.instance.dict(attr).constants(),
            "{context}: {attr:?}"
        );
    }
    assert_eq!(a.columns, b.columns, "{context}: column types");
    assert_eq!(a.null_cells, b.null_cells, "{context}: null cells");
}

#[test]
fn chunked_streaming_is_identical_for_every_chunk_size() {
    // Every entry point is the same one-pass load: the in-memory reader,
    // the file loader, and `load_path_chunked`, whose chunk size is
    // ignored.
    let csv = relative_trust::scenarios::HOSPITAL_CSV;
    let options = CsvOptions::csv().relation("hospital");
    let whole = read_instance(csv.as_bytes(), &options).unwrap();

    let dir = std::env::temp_dir().join("rt_csv_io_chunked_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hospital.csv");
    std::fs::write(&path, csv).unwrap();
    assert_same_load(&whole, &load_path(&path, &options).unwrap(), "load_path");
    for chunk_rows in [1usize, 7, 10_000] {
        let chunked = load_path_chunked(&path, chunk_rows, &options).unwrap();
        assert_same_load(&whole, &chunked, &format!("chunk_rows={chunk_rows}"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn ragged_chunk_boundaries_keep_quoted_fields_intact() {
    // A quoted field holding delimiters, escaped quotes and embedded
    // newlines, between quote-free records, loads the same from a file
    // as from memory.
    let csv = "name,note\n\
               \"Doe, Jane\",\"says \"\"hi\"\"\"\n\
               plain,\"two\nlines\"\n\
               \"last, one\",\"tail\nend\"\n\
               bare,text\n";
    let whole = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    let dir = std::env::temp_dir().join(format!("rt_csv_io_quoted_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quoted.csv");
    std::fs::write(&path, csv).unwrap();
    assert_same_load(
        &whole,
        &load_path(&path, &CsvOptions::csv()).unwrap(),
        "file",
    );
    let inst = &whole.instance;
    assert_eq!(
        *inst.cell(CellRef::new(2, AttrId(1))).unwrap(),
        Value::str("tail\nend")
    );
    assert_eq!(
        *inst.cell(CellRef::new(3, AttrId(1))).unwrap(),
        Value::str("text")
    );

    // Errors keep their line numbers.
    std::fs::write(&path, "a,b,c\n1,2,3\n4,5\n").unwrap();
    let err = load_path(&path, &CsvOptions::csv()).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_leading_byte_order_mark_is_not_part_of_the_first_name() {
    let report = read_instance("\u{feff}A,B\n1,x\n1,y\n".as_bytes(), &CsvOptions::csv()).unwrap();
    let names: Vec<&str> = report
        .instance
        .schema()
        .attributes()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(names, ["A", "B"]);
    assert_eq!(report.columns, [ColumnType::Int, ColumnType::Str]);
}

#[test]
fn deferred_typing_keeps_value_by_value_codes() {
    // Built so that the one-pass load must fix types at EOF and rewrite
    // codes: `n` starts with a null and spells 7 as `07` before `7` (Int);
    // `f` holds both `1` and `1.0` (Float); `s` reads as Int for 500 rows
    // and demotes to Str on its last row, so its `07` and `7` stay apart.
    let rows = 501;
    let mut csv = String::from("n,f,s\n");
    let mut reference = Instance::new(Schema::new("csv", vec!["n", "f", "s"]).unwrap());
    for i in 0..rows {
        let n = match i {
            0 => "".to_string(),
            1 => "07".to_string(),
            2 => "7".to_string(),
            _ if i % 9 == 0 => "NA".to_string(),
            _ => (i % 11).to_string(),
        };
        let f = match i % 4 {
            0 => "1".to_string(),
            1 => "1.0".to_string(),
            2 => format!("{}.5", i % 6),
            _ => (i % 5).to_string(),
        };
        let s = match i {
            1 => "07".to_string(),
            2 => "7".to_string(),
            500 => "word".to_string(),
            _ => (i % 13).to_string(),
        };
        csv.push_str(&format!("{n},{f},{s}\n"));
        let n = if n.is_empty() || n == "NA" {
            Value::Null
        } else {
            Value::Int(n.parse().unwrap())
        };
        let row = vec![n, Value::float(f.parse().unwrap()), Value::str(s)];
        reference.push(Tuple::new(row)).unwrap();
    }
    let columns = [ColumnType::Int, ColumnType::Float, ColumnType::Str];
    let nulls = (0..rows)
        .filter(|&r| {
            reference
                .cell(CellRef::new(r, AttrId(0)))
                .unwrap()
                .is_null()
        })
        .count();
    let expected = LoadReport {
        instance: reference,
        columns: columns.to_vec(),
        null_cells: nulls,
    };

    let dir = std::env::temp_dir().join(format!("rt_csv_io_deferred_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deferred.csv");
    std::fs::write(&path, &csv).unwrap();
    let options = CsvOptions::csv();
    assert_same_load(&expected, &load_path(&path, &options).unwrap(), "load_path");
    assert_same_load(
        &expected,
        &read_instance(csv.as_bytes(), &options).unwrap(),
        "read_instance",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_first_bad_line_is_the_one_reported() {
    // The first ragged line, ahead of later ragged and malformed ones.
    let csv = "a,b\n1,x\n2\n3,y,z\n\"open,w\n";
    let err = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err:?}");
}

#[test]
fn warehouse_csv_loads_back_as_the_generated_instance() {
    // The ingest scale test: `RT_WAREHOUSE_ROWS` rows (CI runs 100k in
    // release; the debug default stays small).
    let rows: usize = std::env::var("RT_WAREHOUSE_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let dir = std::env::temp_dir().join(format!("rt_csv_io_warehouse_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warehouse.csv");
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        gen::write_warehouse_csv(&mut out, rows, 17, WAREHOUSE_ERRORS).unwrap();
        std::io::Write::flush(&mut out).unwrap();
    }
    let report = load_path(&path, &CsvOptions::csv().relation("warehouse")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let (generated, _) = gen::warehouse_with_errors(rows, 17, WAREHOUSE_ERRORS);
    assert_eq!(report.instance, generated);
    for (attr, _) in generated.schema().attributes() {
        assert_eq!(
            report.instance.codes(attr),
            generated.codes(attr),
            "{attr:?}"
        );
        assert_eq!(
            report.instance.dict(attr).constants(),
            generated.dict(attr).constants(),
            "{attr:?}"
        );
    }
    assert_eq!(report.null_cells, 0);
}

#[test]
fn typed_load_feeds_the_engine_end_to_end() {
    // The whole point of the ingestion layer: a loaded instance drops
    // straight into a repair session.
    let csv = "dept,manager\nsales,kim\nsales,lee\nops,pat\n";
    let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    let schema = report.instance.schema().clone();
    let fds = FdSet::parse(&["dept->manager"], &schema).unwrap();
    let engine = RepairEngine::builder(report.instance, fds)
        .weight(WeightKind::AttrCount)
        .parallelism(Parallelism::Serial)
        .build()
        .unwrap();
    let repair = engine.repair_at(engine.delta_p_original()).unwrap();
    assert!(repair.modified_fds.holds_on(&repair.repaired_instance));
}

#[test]
fn written_csv_reads_back_as_the_same_data() {
    // Every string the writer must quote to survive the reader's null
    // policy and trimming, next to ones it must not disturb.
    let strings = [
        "",
        "NULL",
        "null",
        "NA",
        " padded ",
        "\tlead",
        "trail ",
        "a,b",
        "say \"hi\"",
        "two\nlines",
        "NULLs",
        "plain",
    ];
    let schema = Schema::new("rt", vec!["s", "n", "x"]).unwrap();
    let mut original = Instance::new(schema);
    for (i, s) in strings.iter().enumerate() {
        let n = if i % 3 == 0 {
            Value::Null
        } else {
            Value::Int(i as i64)
        };
        let row = vec![Value::str(*s), n, Value::float(i as f64 / 4.0)];
        original.push(Tuple::new(row)).unwrap();
    }
    original
        .push(Tuple::new(vec![Value::Null, Value::Int(-1), Value::Null]))
        .unwrap();

    let mut buf = Vec::new();
    relative_trust::relation::csv::write_instance(&original, &mut buf).unwrap();
    let reread = read_instance(buf.as_slice(), &CsvOptions::csv()).unwrap();
    assert_eq!(
        reread.columns,
        vec![ColumnType::Str, ColumnType::Int, ColumnType::Float]
    );
    assert_eq!(reread.instance.len(), original.len());
    for (row, tuple) in original.tuples() {
        assert_eq!(
            reread.instance.tuple(row).unwrap(),
            tuple,
            "row {row} changed in a write → read round trip"
        );
    }
}

/// SplitMix64 — the fuzz loop's seeded randomness, no dependencies.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded, mostly malformed CSV text: a header and a few records of
/// 0 to 300 fields (ragged widths included), built from well-formed
/// fields mixed with doubled and stray quotes, unterminated quoted fields,
/// NUL bytes, invalid UTF-8 and CR-only line ends.
fn fuzz_csv(rng: &mut Mix) -> Vec<u8> {
    const FIELDS: &[&[u8]] = &[
        b"ab",
        b"7",
        b"2.5",
        b"",
        b"NULL",
        b"\"x,y\"",
        b"\"a\"\"b\"",
        b"\"two\nlines\"",
        b"a\"b",
        b"\"abc",
        b"\"q\"tail",
        b"\0",
        b"n\0ul",
        b"\xff",
        b"\xc3",
        b"caf\xc3\xa9",
        b"\r",
        b" padded ",
    ];
    const ENDS: &[&[u8]] = &[b"\n", b"\r\n", b"\r", b"\n\n"];
    let width = match rng.below(4) {
        0 => rng.below(4),
        1 => 300,
        _ => rng.below(301),
    };
    // Most fields are clean, so some cases load and the error paths sit
    // deep inside otherwise valid input.
    let dirt = 1 + rng.below(40);
    let mut text = Vec::new();
    for record in 0..=rng.below(6) {
        let fields = match rng.below(8) {
            0 => rng.below(width + 2),
            _ => width,
        };
        for f in 0..fields.max(1) {
            if f > 0 {
                text.push(b',');
            }
            if record == 0 {
                text.extend_from_slice(format!("c{f}").as_bytes());
            } else if rng.below(dirt) == 0 {
                text.extend_from_slice(FIELDS[rng.below(FIELDS.len())]);
            } else {
                text.extend_from_slice(FIELDS[rng.below(3)]);
            }
        }
        text.extend_from_slice(
            ENDS[if rng.below(dirt) == 0 {
                rng.below(ENDS.len())
            } else {
                0
            }],
        );
    }
    text
}

#[test]
fn seeded_malformed_input_fails_typed_and_never_panics() {
    let dir = std::env::temp_dir().join(format!("rt_csv_io_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.csv");
    let (mut loaded, mut rejected) = (0, 0);
    for case in 0..48u64 {
        let mut rng = Mix(0xC5F_F022 ^ case);
        let text = fuzz_csv(&mut rng);

        // The record parser alone: every record or a typed error, then EOF.
        let mut records =
            relative_trust::io::record::RecordReader::new(std::io::BufReader::new(&text[..]), b',')
                .unwrap();
        loop {
            match records.next_record() {
                Ok(Some(record)) => assert!(record.len() <= text.len() + 1, "case {case}"),
                Ok(None) => break,
                Err(IoError::Parse { line, .. }) => {
                    assert!(line >= 1, "case {case}: parse errors carry a line");
                    break;
                }
                Err(e) => {
                    assert!(matches!(e, IoError::Io(_)), "case {case}: {e:?}");
                    break;
                }
            }
        }

        // Every loader agrees: the same instance, or an error for all.
        std::fs::write(&path, &text).unwrap();
        let buffered = read_instance(&text[..], &CsvOptions::csv());
        let streamed = load_path(&path, &CsvOptions::csv());
        match (&buffered, &streamed) {
            (Ok(a), Ok(b)) => assert_eq!(a.instance, b.instance, "case {case}"),
            (Err(_), Err(e)) => assert!(!e.to_string().is_empty(), "case {case}"),
            _ => panic!(
                "case {case}: loaders disagree: {:?} vs {:?}",
                buffered.as_ref().map(|r| r.instance.len()),
                streamed.as_ref().map(|r| r.instance.len())
            ),
        }
        match buffered {
            Ok(_) => loaded += 1,
            Err(_) => rejected += 1,
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // The loop exercises both outcomes, not just one.
    assert!(
        loaded >= 4 && rejected >= 4,
        "{loaded} loaded, {rejected} rejected"
    );
}

/// The loader's block size: the body of a larger input is cut into blocks
/// of about this many bytes, each extended to the end of its last record.
const BLOCK: usize = 256 * 1024;

/// A source that returns one byte per read, so a load cannot lean on how
/// its input arrives.
struct OneByteReads<'a>(&'a [u8]);

impl std::io::Read for OneByteReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (buf.first_mut(), self.0.split_first()) {
            (Some(slot), Some((&byte, rest))) => {
                *slot = byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn quoted_fields_across_every_block_cut_load_alike_from_any_source() {
    // About 1 MiB of body. Each block ends at the first record boundary
    // `BLOCK` bytes or more past its start; a quoted field with line breaks
    // and doubled quotes is placed across each of those marks.
    let header = "id,note,qty\n";
    let mut body = String::new();
    let mut spanning = Vec::new();
    let mut row = 0;
    let mut block_start = 0;
    while body.len() < 4 * BLOCK {
        let mark = block_start + BLOCK;
        while body.len() + 40 < mark {
            body.push_str(&format!("{row},plain {},{}\n", row % 97, row % 13));
            row += 1;
        }
        let note = format!("row {row}\nsays \"hi\"\r\n{}", "x".repeat(80));
        let field_start = body.len() + format!("{row},").len();
        body.push_str(&format!(
            "{row},\"{}\",{}\n",
            note.replace('"', "\"\""),
            row % 13
        ));
        assert!(
            field_start < mark && mark < body.len() - 4,
            "the field spans the mark"
        );
        spanning.push((row, note.replace("\r\n", "\n")));
        row += 1;
        block_start = body.len();
    }
    let text = format!("{header}{body}");

    let dir = std::env::temp_dir().join(format!("rt_csv_io_blocks_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blocks.csv");
    std::fs::write(&path, &text).unwrap();
    let options = CsvOptions::csv();
    let from_file = load_path(&path, &options).unwrap();
    let byte_by_byte = read_instance(OneByteReads(text.as_bytes()), &options).unwrap();
    assert_same_load(&from_file, &byte_by_byte, "one byte per read");
    std::fs::remove_dir_all(&dir).ok();

    let inst = &from_file.instance;
    assert_eq!(inst.len(), row);
    assert_eq!(
        from_file.columns,
        [ColumnType::Int, ColumnType::Str, ColumnType::Int]
    );
    for (row, note) in spanning {
        assert_eq!(
            *inst.cell(CellRef::new(row, AttrId(1))).unwrap(),
            Value::str(note)
        );
        assert_eq!(
            *inst.cell(CellRef::new(row, AttrId(0))).unwrap(),
            Value::Int(row as i64)
        );
    }
}

/// `rows` one-line records of `fields` small integers, then the header:
/// record `r` is on line `r + 2`.
fn numeric_rows(rows: usize, fields: usize) -> Vec<String> {
    let mut lines = vec![(0..fields)
        .map(|f| format!("c{f}"))
        .collect::<Vec<_>>()
        .join(",")];
    lines.extend((0..rows).map(|r| {
        (0..fields)
            .map(|f| ((r + f) % 1000).to_string())
            .collect::<Vec<_>>()
            .join(",")
    }));
    lines
}

/// The line whose record starts about `offset` bytes into `lines`.
fn line_at(lines: &[String], offset: usize) -> usize {
    let mut at = 0;
    for (i, line) in lines.iter().enumerate() {
        at += line.len() + 1;
        if at > offset {
            return i + 1;
        }
    }
    panic!("the input is shorter than {offset} bytes")
}

fn parse_error(lines: &[String]) -> (usize, String) {
    let text = lines.join("\n") + "\n";
    match read_instance(text.as_bytes(), &CsvOptions::csv()).unwrap_err() {
        IoError::Parse { line, message } => (line, message),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn multi_block_loads_report_their_first_bad_line() {
    // An error in the second block beats one in the fourth, though the
    // later block may be encoded first: a ragged row beats a stray quote,
    // and a stray quote beats a ragged row.
    let lines = numeric_rows(150_000, 2);
    let early = line_at(&lines, BLOCK + BLOCK / 2);
    let late = line_at(&lines, 3 * BLOCK + BLOCK / 2);
    for (first, second, expected) in [
        ("1", "x\"y,1", "expected 2 fields, found 1"),
        ("x\"y,1", "1", "unexpected quote"),
    ] {
        let mut lines = lines.clone();
        lines[early - 1] = first.to_string();
        lines[late - 1] = second.to_string();
        let (line, message) = parse_error(&lines);
        assert_eq!(line, early);
        assert!(message.contains(expected), "{message}");
    }

    // Within one later block, a fault in the last column beats a fault in
    // the first column on a later row.
    let lines = numeric_rows(100_000, 3);
    let first = line_at(&lines, 2 * BLOCK + BLOCK / 3);
    for (bad, later, expected) in [
        ("1,2", "x\"0,2,3", "expected 3 fields, found 2"),
        ("1,2,x\"2", "1", "unexpected quote"),
    ] {
        let mut lines = lines.clone();
        lines[first - 1] = bad.to_string();
        lines[first + 2] = later.to_string();
        let (line, message) = parse_error(&lines);
        assert_eq!(line, first);
        assert!(message.contains(expected), "{message}");
    }

    // A stray quote on line 2 of a 2 MiB input.
    let mut lines = numeric_rows(300_000, 2);
    assert!(lines.iter().map(|l| l.len() + 1).sum::<usize>() > 8 * BLOCK);
    lines[1] = "x\"y,1".to_string();
    let (line, message) = parse_error(&lines);
    assert_eq!(line, 2);
    assert!(message.contains("unexpected quote"), "{message}");
}
