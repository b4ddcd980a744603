//! Edge-case coverage for the typed CSV/TSV ingestion layer, driven
//! through the public facade the way a user would: quoted delimiters,
//! CRLF endings, ragged rows, null-token policy, and type-inference
//! conflicts falling back to `Str`.

use relative_trust::io::{
    infer_schema, load_path, load_path_chunked, read_instance, read_instance_chunked, CsvOptions,
    IoError,
};
use relative_trust::prelude::*;

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
fn null_tokens_apply_per_cell_and_quoting_escapes_them() {
    let csv = "a,b\nNULL,1\nNA,2\n\"NULL\",3\n,4\n";
    let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    let inst = &report.instance;
    // Unquoted NULL / NA / empty all hit the default null policy...
    assert!(inst.cell(CellRef::new(0, AttrId(0))).unwrap().is_null());
    assert!(inst.cell(CellRef::new(1, AttrId(0))).unwrap().is_null());
    assert!(inst.cell(CellRef::new(3, AttrId(0))).unwrap().is_null());
    // ...but a *quoted* "NULL" is a literal string.
    assert_eq!(
        *inst.cell(CellRef::new(2, AttrId(0))).unwrap(),
        Value::str("NULL")
    );
    assert_eq!(report.null_cells, 3);

    // A custom token list replaces the default policy entirely.
    let custom = CsvOptions::csv().nulls(["-"]);
    let report = read_instance("a\n-\nNULL\n".as_bytes(), &custom).unwrap();
    assert!(report
        .instance
        .cell(CellRef::new(0, AttrId(0)))
        .unwrap()
        .is_null());
    assert_eq!(
        *report.instance.cell(CellRef::new(1, AttrId(0))).unwrap(),
        Value::str("NULL")
    );
}

#[test]
fn empty_input_is_an_error() {
    for err in [
        read_instance("".as_bytes(), &CsvOptions::csv()).unwrap_err(),
        read_instance_chunked("".as_bytes(), 2, &CsvOptions::csv()).unwrap_err(),
    ] {
        assert!(matches!(err, IoError::Parse { line: 0, .. }), "{err:?}");
        assert!(err.to_string().contains("missing header"), "{err}");
    }
}

#[test]
fn type_inference_conflicts_fall_back_to_str() {
    // Column a: ints until a stray word → Str (and "7" loads as the
    // string "7", not the integer 7). Column b: ints then a float → Float.
    // Column c: all ints → Int. Column d: only nulls → Str.
    let csv = "a,b,c,d\n7,1,10,NULL\n8,2.5,11,\nword,3,12,NA\n";
    let schema = infer_schema(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    assert_eq!(
        schema.columns,
        vec![
            ColumnType::Str,
            ColumnType::Float,
            ColumnType::Int,
            ColumnType::Str
        ]
    );
    let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
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
    let schema = infer_schema("x\n1.5\ninf\n".as_bytes(), &CsvOptions::csv()).unwrap();
    assert_eq!(schema.columns, vec![ColumnType::Str]);
}

#[test]
fn tsv_dialect_and_instance_from_csv_round_trip() {
    let dir = std::env::temp_dir().join("rt_csv_io_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.tsv");
    std::fs::write(&path, "id\tscore\n1\t2.5\n2\t3.5\n").unwrap();
    // The `Instance::from_csv` spelling comes from the extension trait.
    let inst = Instance::from_csv(&path, &CsvOptions::tsv()).unwrap();
    assert_eq!(inst.len(), 2);
    assert_eq!(
        *inst.cell(CellRef::new(1, AttrId(1))).unwrap(),
        Value::float(3.5)
    );
    // load_path (two streaming passes) agrees with the buffered reader.
    let text = std::fs::read_to_string(&path).unwrap();
    let buffered = read_instance(text.as_bytes(), &CsvOptions::tsv()).unwrap();
    let streamed = load_path(&path, &CsvOptions::tsv()).unwrap();
    assert_eq!(buffered.instance, streamed.instance);
    std::fs::remove_file(&path).ok();
}

#[test]
fn chunked_streaming_is_identical_for_every_chunk_size() {
    // The memory-bounded ingestion contract: the chunk size is an
    // accounting knob, never a semantic one. Chunk-of-1, chunk-of-10k
    // (bigger than the fixture, so a single flush) and the unchunked
    // reader must produce the same instance — codes, dictionaries,
    // column types and null count included.
    let csv = relative_trust::scenarios::HOSPITAL_CSV;
    let options = CsvOptions::csv().relation("hospital");
    let whole = read_instance(csv.as_bytes(), &options).unwrap();
    for chunk_rows in [1usize, 7, 10_000] {
        let chunked = read_instance_chunked(csv.as_bytes(), chunk_rows, &options).unwrap();
        assert_eq!(
            whole.instance, chunked.instance,
            "chunk_rows={chunk_rows}: instances differ"
        );
        assert_eq!(whole.columns, chunked.columns, "chunk_rows={chunk_rows}");
        assert_eq!(
            whole.null_cells, chunked.null_cells,
            "chunk_rows={chunk_rows}"
        );
    }

    // Same contract for the file-backed streaming pass.
    let dir = std::env::temp_dir().join("rt_csv_io_chunked_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hospital.csv");
    std::fs::write(&path, csv).unwrap();
    let streamed = load_path(&path, &options).unwrap();
    for chunk_rows in [1usize, 10_000] {
        let chunked = load_path_chunked(&path, chunk_rows, &options).unwrap();
        assert_eq!(
            streamed.instance, chunked.instance,
            "chunk_rows={chunk_rows}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn ragged_chunk_boundaries_keep_quoted_fields_intact() {
    // Regression guard: a quoted field holding delimiters, escaped quotes
    // and embedded newlines must survive chunk boundaries landing on (and
    // inside the textual span of) its record. chunk_rows=1 puts a flush
    // between every pair of records, chunk_rows=2 puts one mid-list.
    let csv = "name,note\n\
               \"Doe, Jane\",\"says \"\"hi\"\"\"\n\
               plain,\"two\nlines\"\n\
               \"last, one\",\"tail\nend\"\n";
    let whole = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
    for chunk_rows in [1usize, 2, 3] {
        let chunked =
            read_instance_chunked(csv.as_bytes(), chunk_rows, &CsvOptions::csv()).unwrap();
        assert_eq!(
            whole.instance, chunked.instance,
            "chunk_rows={chunk_rows}: quoted fields corrupted at a chunk boundary"
        );
    }
    let inst = &whole.instance;
    assert_eq!(
        *inst.cell(CellRef::new(2, AttrId(1))).unwrap(),
        Value::str("tail\nend")
    );

    // Errors keep their line numbers even when they land mid-chunk.
    let err =
        read_instance_chunked("a,b,c\n1,2,3\n4,5\n".as_bytes(), 1, &CsvOptions::csv()).unwrap_err();
    assert!(matches!(err, IoError::Parse { line: 3, .. }), "{err:?}");
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
