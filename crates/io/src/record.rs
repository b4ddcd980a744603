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

use crate::error::IoError;
use std::io::BufRead;

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
/// quoted (quoted fields are exempt from trimming and null classification
/// downstream).
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
        Ok(RecordReader {
            input,
            delimiter,
            line_buf: String::new(),
            text: String::new(),
            spans: Vec::new(),
            line: 0,
        })
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
        // NOT skipped: they are real one-field records (null or a literal
        // "   " depending on the caller's trim/null policy) — silently
        // dropping them would shift row indices against the source file.
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
        // A single-column file: the "   " row is a real record (null under
        // the default trim/null policy downstream), not a skippable blank.
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
