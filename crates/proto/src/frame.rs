//! Line-delimited framing with a hard size cap.

use std::io::{BufRead, Read, Write};

/// Maximum payload bytes of one frame (excluding the `\n` terminator).
///
/// Large enough for a spectrum over the catalog scenarios, small enough
/// that a malicious or broken peer cannot make the server buffer without
/// bound. Both sides enforce it: writers refuse to emit an oversized
/// frame, readers consume one to its newline and report it as a typed
/// error so the stream stays synchronized.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// How reading a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream — the peer closed between frames.
    Closed,
    /// The stream ended in the middle of a frame (no trailing newline).
    Truncated,
    /// The frame exceeded [`MAX_FRAME_BYTES`]. The reader has already
    /// consumed the rest of the line (up to its newline), so the caller
    /// may keep using the stream.
    Oversized,
    /// The frame is not valid UTF-8.
    Encoding,
    /// An underlying I/O failure (stringified).
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Oversized => {
                write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes")
            }
            FrameError::Encoding => write!(f, "frame is not valid UTF-8"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one newline-terminated frame, enforcing [`MAX_FRAME_BYTES`].
///
/// On [`FrameError::Oversized`] the offending line has been drained, so
/// the next call starts at the next frame boundary.
pub fn read_frame<R: BufRead>(reader: &mut R) -> Result<String, FrameError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take((MAX_FRAME_BYTES + 1) as u64)
        .read_until(b'\n', &mut buf)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    if buf.is_empty() {
        return Err(FrameError::Closed);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized);
        }
        return String::from_utf8(buf).map_err(|_| FrameError::Encoding);
    }
    if buf.len() > MAX_FRAME_BYTES {
        // Over the cap with no newline yet: drain the rest of the line so
        // the stream re-synchronizes, then report the typed error.
        let mut discard = Vec::new();
        reader
            .read_until(b'\n', &mut discard)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        return Err(FrameError::Oversized);
    }
    Err(FrameError::Truncated)
}

/// Writes one frame (payload + `\n`) and flushes.
///
/// The payload and its terminator go out in a single `write_all`: on an
/// unbuffered socket two writes would be two segments, and Nagle's
/// algorithm holds the second (the lone `\n`) until the peer's delayed
/// ACK for the first arrives — tens of milliseconds per request.
///
/// Payloads are rendered by `rt_engine::json::render`, which escapes every
/// control character — a rendered frame can never contain a raw newline.
/// The size cap is enforced here too, so a server response that would be
/// unreadable on the other side fails loudly at the writer.
pub fn write_frame<W: Write>(writer: &mut W, payload: &str) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized);
    }
    debug_assert!(!payload.contains('\n'), "frame payloads must be one line");
    let mut frame = Vec::with_capacity(payload.len() + 1);
    frame.extend_from_slice(payload.as_bytes());
    frame.push(b'\n');
    writer
        .write_all(&frame)
        .and_then(|()| writer.flush())
        .map_err(|e| FrameError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"type\":\"ping\"}").unwrap();
        write_frame(&mut wire, "{\"type\":\"stats\"}").unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"type\":\"ping\"}");
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"type\":\"stats\"}");
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
    }

    #[test]
    fn crlf_terminators_are_accepted() {
        let mut reader = BufReader::new("{\"a\":1}\r\n".as_bytes());
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"a\":1}");
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed() {
        let mut reader = BufReader::new("{\"partial\":".as_bytes());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Truncated)
        ));

        // An oversized line is drained: the next frame still parses.
        let mut wire = vec![b'x'; MAX_FRAME_BYTES + 10];
        wire.push(b'\n');
        wire.extend_from_slice(b"{\"ok\":1}\n");
        let mut reader = BufReader::new(wire.as_slice());
        assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Oversized)
        ));
        assert_eq!(read_frame(&mut reader).unwrap(), "{\"ok\":1}");
    }

    #[test]
    fn invalid_utf8_is_typed() {
        let mut reader = BufReader::new(&[0xff, 0xfe, b'\n'][..]);
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Encoding)));
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write() {
        let mut writer = CountingWriter::default();
        write_frame(&mut writer, "{\"type\":\"ping\"}").unwrap();
        assert_eq!(writer.writes, vec![b"{\"type\":\"ping\"}\n".to_vec()]);
        write_frame(&mut writer, "").unwrap();
        assert_eq!(writer.writes.len(), 2);
        assert_eq!(writer.writes[1], b"\n");
    }

    #[test]
    fn writer_refuses_oversized_payloads() {
        let mut wire = Vec::new();
        let huge = "x".repeat(MAX_FRAME_BYTES + 1);
        assert!(matches!(
            write_frame(&mut wire, &huge),
            Err(FrameError::Oversized)
        ));
        assert!(wire.is_empty());
    }
}
