//! The streaming record parser underneath every ingestion entry point.
//!
//! [`RecordReader`] pulls one record at a time from any [`BufRead`] source
//! and hands it out as borrowed slices of an internal, reused buffer — no
//! per-record or per-field allocations once the buffers have grown to the
//! widest record. It understands the usual CSV dialect family:
//!
//! * a configurable single-byte delimiter (`,` for CSV, `\t` for TSV, …);
//! * double-quoted fields that may contain the delimiter, quotes (doubled,
//!   `""` = one literal quote) and line breaks;
//! * CRLF and LF line endings (a CR directly before the line break is
//!   stripped; line breaks *inside* quoted fields are normalized to `\n`);
//! * empty lines between records are skipped (whitespace-only lines are
//!   real one-field records, never dropped);
//! * one UTF-8 byte-order mark at the very start of the stream is dropped,
//!   so it never becomes part of the first column's name.
//!
//! Lines are read as bytes and validated as UTF-8 once each. A line with no
//! `"` in it is split on the delimiter in place: its fields are slices of
//! the line, copied nowhere. Only a line holding a quote goes through the
//! quote-aware scanner, which unescapes its fields into a second buffer.
//!
//! Malformed input — a stray quote inside an unquoted field, text after a
//! closing quote, an unterminated quoted field at EOF — is a typed
//! [`IoError::Parse`] carrying the 1-based physical line number on which
//! the record started. Invalid UTF-8 is an [`IoError::Io`].
//!
//! The loader splits its input into blocks that end at record boundaries
//! (`BlockCutter`), parses each with a reader that starts at the block's
//! first line, and so reports the same records, lines and errors as one
//! reader over the whole input.

use crate::error::IoError;
use std::io::{BufRead, Read};

/// The UTF-8 encoding of U+FEFF, the byte-order mark some editors write at
/// the start of a CSV file.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Incremental record reader over a buffered input stream.
#[derive(Debug)]
pub struct RecordReader<R> {
    input: R,
    delimiter: u8,
    /// Raw current line, reused across reads.
    line_buf: String,
    /// Unescaped text of the current record's fields, when it has quotes.
    text: String,
    /// The current record's fields, as ranges of `line_buf` (quote-free
    /// record) or of `text` (quoted record).
    spans: Vec<Span>,
    /// 1-based number of the last physical line read.
    line: usize,
}

/// One field of the current record: its byte range and whether it was
/// quoted (the loader trims unquoted fields and reads some as null; quoted
/// fields are literal).
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    quoted: bool,
}

/// One parsed record, borrowed from the reader's internal buffers.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    text: &'a str,
    spans: &'a [Span],
    /// 1-based physical line on which the record starts.
    pub line: usize,
}

impl<'a> Record<'a> {
    /// Number of fields.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the record has no fields (never produced by the reader).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The raw text of field `i` and whether it was quoted.
    pub fn field(&self, i: usize) -> (&'a str, bool) {
        let span = self.spans[i];
        (&self.text[span.start..span.end], span.quoted)
    }

    /// Iterates over `(raw text, was quoted)` pairs.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&'a str, bool)> + '_ {
        (0..self.len()).map(move |i| self.field(i))
    }
}

impl<R: BufRead> RecordReader<R> {
    /// Creates a reader over `input` with the given field delimiter.
    ///
    /// The delimiter must be an ASCII byte other than a quote or a line
    /// break — those are structural in every dialect this parser accepts.
    pub fn new(input: R, delimiter: u8) -> Result<Self, IoError> {
        if !delimiter.is_ascii() || matches!(delimiter, b'"' | b'\n' | b'\r') {
            return Err(IoError::parse(
                0,
                format!("invalid delimiter {:?}", delimiter as char),
            ));
        }
        Ok(RecordReader::starting_at(input, delimiter, 1))
    }

    /// A reader whose input starts at physical line `first_line` (1-based)
    /// of a larger stream, at a record boundary: records report their lines
    /// in that stream, and a U+FEFF at the start of a later line is field
    /// text. `delimiter` must already be valid.
    pub(crate) fn starting_at(input: R, delimiter: u8, first_line: usize) -> Self {
        RecordReader {
            input,
            delimiter,
            line_buf: String::new(),
            text: String::new(),
            spans: Vec::new(),
            line: first_line - 1,
        }
    }

    /// The number of physical lines read so far, counting from line 1 of
    /// the stream, and the input positioned just after them.
    pub(crate) fn into_input(self) -> (usize, R) {
        (self.line, self.input)
    }

    /// Reads the next physical line (without its terminator) into
    /// `line_buf`. Returns `false` at EOF.
    fn next_line(&mut self) -> Result<bool, IoError> {
        // The line is read as bytes into `line_buf`'s own allocation and
        // handed back after one UTF-8 check, so no line is copied.
        let mut bytes = std::mem::take(&mut self.line_buf).into_bytes();
        bytes.clear();
        if self.input.read_until(b'\n', &mut bytes)? == 0 {
            return Ok(false);
        }
        if self.line == 0 && bytes.starts_with(BOM) {
            bytes.drain(..BOM.len());
        }
        self.line += 1;
        if bytes.last() == Some(&b'\n') {
            bytes.pop();
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
        }
        self.line_buf = String::from_utf8(bytes).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(true)
    }

    /// Parses the next record, or `None` at EOF. The returned record
    /// borrows the reader's buffers and is invalidated by the next call.
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>, IoError> {
        // Skip *empty* lines between records. Whitespace-only lines are
        // NOT skipped: they are real one-field records (the loader trims
        // them to a null) — silently dropping them would shift row indices
        // against the source file.
        loop {
            if !self.next_line()? {
                return Ok(None);
            }
            if !self.line_buf.is_empty() {
                break;
            }
        }
        self.spans.clear();
        let record_line = self.line;
        let bytes = self.line_buf.as_bytes();
        if !bytes.contains(&b'"') {
            // An ASCII delimiter byte is a whole character, so every split
            // point is a character boundary.
            let mut start = 0;
            for (at, &b) in bytes.iter().enumerate() {
                if b == self.delimiter {
                    self.spans.push(Span {
                        start,
                        end: at,
                        quoted: false,
                    });
                    start = at + 1;
                }
            }
            self.spans.push(Span {
                start,
                end: self.line_buf.len(),
                quoted: false,
            });
            return Ok(Some(Record {
                text: &self.line_buf,
                spans: &self.spans,
                line: record_line,
            }));
        }

        self.text.clear();
        let delimiter = self.delimiter as char;
        let mut field_start = 0;
        let mut in_quotes = false;
        let mut field_was_quoted = false;
        // `line_buf` is swapped out during the scan so quoted fields can
        // pull in continuation lines without aliasing `self`.
        let mut pending = std::mem::take(&mut self.line_buf);
        let mut chars = pending.chars().peekable();
        loop {
            match chars.next() {
                None if in_quotes => {
                    // A quoted field continues onto the next physical line.
                    if !self.next_line()? {
                        return Err(IoError::parse(record_line, "unterminated quoted field"));
                    }
                    self.text.push('\n');
                    std::mem::swap(&mut pending, &mut self.line_buf);
                    chars = pending.chars().peekable();
                }
                None => {
                    self.spans.push(Span {
                        start: field_start,
                        end: self.text.len(),
                        quoted: field_was_quoted,
                    });
                    break;
                }
                Some(c) if in_quotes => {
                    if c == '"' {
                        if chars.peek() == Some(&'"') {
                            self.text.push('"');
                            chars.next();
                        } else {
                            in_quotes = false;
                        }
                    } else {
                        self.text.push(c);
                    }
                }
                Some('"') => {
                    if field_was_quoted || self.text.len() != field_start {
                        return Err(IoError::parse(
                            record_line,
                            if field_was_quoted {
                                "unexpected text after closing quote"
                            } else {
                                "unexpected quote in unquoted field"
                            },
                        ));
                    }
                    in_quotes = true;
                    field_was_quoted = true;
                }
                Some(c) if c == delimiter => {
                    self.spans.push(Span {
                        start: field_start,
                        end: self.text.len(),
                        quoted: field_was_quoted,
                    });
                    field_start = self.text.len();
                    field_was_quoted = false;
                }
                Some(c) => {
                    if field_was_quoted {
                        return Err(IoError::parse(
                            record_line,
                            "unexpected text after closing quote",
                        ));
                    }
                    self.text.push(c);
                }
            }
        }
        self.line_buf = pending;
        Ok(Some(Record {
            text: &self.text,
            spans: &self.spans,
            line: record_line,
        }))
    }
}

/// Where the record grammar stands after a byte, as far as quoting goes:
/// just enough state to find the line breaks that end records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Quoting {
    /// At the start of a field, so also at the start of a line.
    FieldStart,
    /// Inside an unquoted field.
    Unquoted,
    /// Inside a quoted field, where line breaks are field text.
    Quoted,
    /// After a quote inside a quoted field: the closing quote, or the first
    /// of a doubled one.
    AfterQuote,
    /// After a closing quote and a CR: fine only right before a line break.
    AfterQuoteCr,
    /// The line holds a quote the grammar rejects, so the record reader
    /// fails on it or on an earlier line.
    Rejected,
}

/// Cuts a record stream into blocks of raw text that end at record
/// boundaries, counting the lines of each, so every block parses on its own
/// with a reader [started at](RecordReader::starting_at) its first line.
#[derive(Debug)]
pub(crate) struct BlockCutter<R> {
    input: R,
    delimiter: u8,
    state: Quoting,
    /// Physical lines before the next block.
    lines: usize,
    /// In the block being cut: the offset just past its last record.
    boundary: usize,
    /// The input is used up, or nothing after the last block can matter.
    done: bool,
    /// The last block ends at a line the grammar rejects.
    rejected: bool,
    error: Option<std::io::Error>,
}

impl<R: BufRead> BlockCutter<R> {
    /// A cutter over `input`, positioned at a record boundary after `lines`
    /// physical lines.
    pub(crate) fn new(input: R, delimiter: u8, lines: usize) -> Self {
        BlockCutter {
            input,
            delimiter,
            state: Quoting::FieldStart,
            lines,
            boundary: 0,
            done: false,
            rejected: false,
            error: None,
        }
    }

    /// Fills `text` with the next block and returns its first physical
    /// line, or `None` once the input is used up. A block is `target`
    /// bytes, or the rest of the input, extended to the first line break
    /// outside a quoted field. A line with a quote the grammar rejects ends
    /// its block and the input: the block's reader reports an error there
    /// or earlier, and an error wins over everything after it.
    ///
    /// A read error ends the input after the last whole record read; it is
    /// kept for [`BlockCutter::end`].
    pub(crate) fn next_block(&mut self, text: &mut Vec<u8>, target: usize) -> Option<usize> {
        text.clear();
        if self.done {
            return None;
        }
        let first_line = self.lines + 1;
        self.boundary = 0;
        let mut read_error = None;
        // Room to finish the last line too, as a rule without regrowing;
        // only what is read is touched, so a small input stays small.
        text.reserve(target + 4096);
        match (&mut self.input).take(target as u64).read_to_end(text) {
            Ok(n) if n < target => self.done = true,
            Ok(_) => {}
            Err(e) => read_error = Some(e),
        }
        let mut scanned = 0;
        loop {
            if let Some(end) = self.scan(text, scanned) {
                // The rejected line's error comes before any read error.
                text.truncate(end);
                self.done = true;
                self.rejected = true;
                break;
            }
            scanned = text.len();
            if let Some(e) = read_error {
                text.truncate(self.boundary);
                self.error = Some(e);
                self.done = true;
                break;
            }
            if self.done || (self.state == Quoting::FieldStart && text.last() == Some(&b'\n')) {
                break;
            }
            match self.input.read_until(b'\n', text) {
                Ok(0) => self.done = true,
                Ok(_) => {}
                Err(e) => read_error = Some(e),
            }
        }
        (!text.is_empty()).then_some(first_line)
    }

    /// Physical lines cut so far, counting from line 1 of the stream.
    pub(crate) fn lines(&self) -> usize {
        self.lines
    }

    /// `true` once [`BlockCutter::next_block`] has nothing more to cut.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// What ended the input early: a read error, kept for the caller to
    /// report after every block before it, or (`Ok(true)`) a line the
    /// grammar rejects, which a block's reader must have failed on.
    pub(crate) fn end(&mut self) -> std::io::Result<bool> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.rejected),
        }
    }

    /// Runs the quoting state over `text[from..]`, counting line breaks and
    /// noting the last record boundary. Returns the offset just past the
    /// line break that ends a rejected line, where the block must end.
    fn scan(&mut self, text: &[u8], from: usize) -> Option<usize> {
        let newlines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count();
        let mut i = from;
        while i < text.len() {
            match self.state {
                Quoting::FieldStart | Quoting::Unquoted => {
                    // Up to the next quote only line breaks and delimiters
                    // matter, and only the last of them sets the state.
                    let end = find(&text[i..], b'"').map_or(text.len(), |p| i + p);
                    let run = &text[i..end];
                    if let Some(last) = run.iter().rposition(|&b| b == b'\n') {
                        self.lines += newlines(run);
                        self.boundary = i + last + 1;
                    }
                    if let Some(&last) = run.last() {
                        self.state = if last == b'\n' || last == self.delimiter {
                            Quoting::FieldStart
                        } else {
                            Quoting::Unquoted
                        };
                    }
                    if end == text.len() {
                        break;
                    }
                    self.state = match self.state {
                        Quoting::FieldStart => Quoting::Quoted,
                        _ => Quoting::Rejected,
                    };
                    i = end + 1;
                }
                Quoting::Quoted => {
                    let end = find(&text[i..], b'"').map_or(text.len(), |p| i + p);
                    self.lines += newlines(&text[i..end]);
                    if end < text.len() {
                        self.state = Quoting::AfterQuote;
                    }
                    i = end + 1;
                }
                Quoting::AfterQuote | Quoting::AfterQuoteCr => {
                    let b = text[i];
                    i += 1;
                    self.state = match (self.state, b) {
                        (_, b'\n') => {
                            self.lines += 1;
                            self.boundary = i;
                            Quoting::FieldStart
                        }
                        (Quoting::AfterQuote, b'"') => Quoting::Quoted,
                        (Quoting::AfterQuote, b'\r') => Quoting::AfterQuoteCr,
                        (Quoting::AfterQuote, b) if b == self.delimiter => Quoting::FieldStart,
                        _ => Quoting::Rejected,
                    };
                }
                Quoting::Rejected => return Some(i + find(&text[i..], b'\n')? + 1),
            }
        }
        None
    }
}

/// The offset of the first `byte` in `bytes`.
fn find(bytes: &[u8], byte: u8) -> Option<usize> {
    // `contains` is the vectorized test; most runs have no match.
    if bytes.contains(&byte) {
        bytes.iter().position(|&b| b == byte)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(input: &str, delim: u8) -> Result<Vec<Vec<(String, bool)>>, IoError> {
        let mut reader = RecordReader::new(input.as_bytes(), delim)?;
        let mut out = Vec::new();
        while let Some(rec) = reader.next_record()? {
            out.push(
                rec.fields()
                    .map(|(t, q)| (t.to_string(), q))
                    .collect::<Vec<_>>(),
            );
        }
        Ok(out)
    }

    #[test]
    fn plain_records_split_on_the_delimiter() {
        let recs = collect("a,b,c\n1,2,3\n", b',').unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0][1], ("b".to_string(), false));
        assert_eq!(recs[1][2], ("3".to_string(), false));
        let recs = collect("a\tb\n1\t2\n", b'\t').unwrap();
        assert_eq!(recs[1][0], ("1".to_string(), false));
    }

    #[test]
    fn quoted_fields_keep_delimiters_quotes_and_newlines() {
        let recs = collect("\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n", b',').unwrap();
        assert_eq!(recs[0][0], ("a,b".to_string(), true));
        assert_eq!(recs[0][1], ("say \"hi\"".to_string(), true));
        assert_eq!(recs[0][2], ("two\nlines".to_string(), true));
    }

    #[test]
    fn crlf_and_blank_lines_are_handled() {
        let recs = collect("a,b\r\n\r\n1,2\r\n\n", b',').unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1][1], ("2".to_string(), false));
    }

    #[test]
    fn whitespace_only_lines_are_records_not_blanks() {
        // A single-column file: the "   " row is a real record (a null once
        // the loader trims it), not a skippable blank.
        let recs = collect("a\nx\n   \ny\n", b',').unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[2][0], ("   ".to_string(), false));
    }

    #[test]
    fn line_numbers_survive_multiline_fields() {
        let input = "h1,h2\n\"x\ny\",1\nlast,2\n";
        let mut reader = RecordReader::new(input.as_bytes(), b',').unwrap();
        assert_eq!(reader.next_record().unwrap().unwrap().line, 1);
        assert_eq!(reader.next_record().unwrap().unwrap().line, 2);
        // The multiline record consumed lines 2 and 3.
        assert_eq!(reader.next_record().unwrap().unwrap().line, 4);
    }

    #[test]
    fn malformed_input_is_rejected_with_line_numbers() {
        let err = collect("a,b\n\"open,2\n", b',').unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = collect("a,b\nx\"y,2\n", b',').unwrap_err();
        assert!(err.to_string().contains("unexpected quote"));
        assert!(err.to_string().contains("line 2"));
        let err = collect("\"ok\"trailing,2\n", b',').unwrap_err();
        assert!(err.to_string().contains("after closing quote"));
        assert!(RecordReader::new("x".as_bytes(), b'"').is_err());
        assert!(RecordReader::new("x".as_bytes(), 0xA7).is_err());
    }

    #[test]
    fn one_leading_byte_order_mark_is_dropped() {
        let recs = collect("\u{feff}a,b\n1,2\n", b',').unwrap();
        assert_eq!(recs[0][0], ("a".to_string(), false));
        // Only at stream start: a later U+FEFF is field text.
        let recs = collect("\u{feff}\u{feff}a\n\u{feff}x\n", b',').unwrap();
        assert_eq!(recs[0][0], ("\u{feff}a".to_string(), false));
        assert_eq!(recs[1][0], ("\u{feff}x".to_string(), false));
    }

    #[test]
    fn invalid_utf8_is_an_io_error() {
        let mut reader = RecordReader::new(&b"a,b\n\xff,2\n"[..], b',').unwrap();
        assert!(reader.next_record().unwrap().is_some());
        assert!(matches!(reader.next_record(), Err(IoError::Io(_))));
    }

    #[test]
    fn empty_fields_and_trailing_delimiters() {
        let recs = collect("a,,c\n,,\n", b',').unwrap();
        assert_eq!(recs[0].len(), 3);
        assert_eq!(recs[0][1], (String::new(), false));
        assert_eq!(recs[1].len(), 3);
        // A quoted empty field is distinguishable from an unquoted one.
        let recs = collect("\"\",x\n", b',').unwrap();
        assert_eq!(recs[0][0], (String::new(), true));
    }
}
