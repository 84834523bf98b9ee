//! The length-prefixed frame layer: everything that touches raw bytes.
//!
//! A frame is `[u32 BE length][u8 kind][payload]`, where `length` counts the
//! kind byte plus the payload (so the smallest legal frame is `length == 1`:
//! a kind with an empty payload).  Payloads are UTF-8 text, line-oriented;
//! the framing layer treats them as opaque bytes.
//!
//! Reads distinguish four situations the service must tell apart:
//!
//! * a complete frame — [`ReadOutcome::Frame`];
//! * a clean end-of-stream *at a frame boundary* — [`ReadOutcome::Eof`],
//!   how a client says it is done;
//! * a read timeout before any byte of a frame arrived —
//!   [`ReadOutcome::Idle`], which lets a handler poll its shutdown flag
//!   without losing frame sync;
//! * everything else — a [`WireError`]: EOF or timeout *mid-frame*
//!   ([`WireError::Truncated`]), a length prefix beyond the negotiated cap
//!   ([`WireError::Oversized`]), a zero-length frame
//!   ([`WireError::EmptyFrame`]), an unassigned kind byte
//!   ([`WireError::UnknownKind`]) or transport I/O failure.

use std::fmt;
use std::io::{self, IoSlice, IoSliceMut, Read, Write};

/// Default cap on one frame's length (kind byte + payload): 32 MiB, far
/// above any report the service streams, low enough that a hostile length
/// prefix cannot balloon allocation.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// The message kinds of the sweep-service protocol.  Client-to-server kinds
/// live below `0x80`, server-to-client kinds at `0x80` and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: submit a sweep request.
    Submit = 0x01,
    /// Client → server: ask for service counters.
    Stats = 0x02,
    /// Client → server: cancel the named request.
    Cancel = 0x03,
    /// Client → server: stop the daemon.
    Shutdown = 0x04,
    /// Server → client: the sweep was admitted.
    Accepted = 0x81,
    /// Server → client: the sweep was refused (budget, backpressure, parse).
    Rejected = 0x82,
    /// Server → client: one finished cell of the running sweep.
    Cell = 0x83,
    /// Server → client: the sweep finished; stream totals follow.
    Done = 0x84,
    /// Server → client: service counters.
    StatsReply = 0x85,
    /// Server → client: the request failed after admission.
    Error = 0x86,
    /// Server → client: shutdown acknowledged.
    ShutdownAck = 0x87,
}

impl FrameKind {
    /// The kind's wire byte.
    #[must_use]
    pub const fn byte(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte, `None` for unassigned values.
    #[must_use]
    pub const fn from_byte(byte: u8) -> Option<Self> {
        Some(match byte {
            0x01 => Self::Submit,
            0x02 => Self::Stats,
            0x03 => Self::Cancel,
            0x04 => Self::Shutdown,
            0x81 => Self::Accepted,
            0x82 => Self::Rejected,
            0x83 => Self::Cell,
            0x84 => Self::Done,
            0x85 => Self::StatsReply,
            0x86 => Self::Error,
            0x87 => Self::ShutdownAck,
            _ => return None,
        })
    }
}

/// One decoded frame: a kind plus its opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind.
    pub kind: FrameKind,
    /// The payload bytes (UTF-8 text at the protocol layer).
    pub payload: Vec<u8>,
}

impl Frame {
    /// The payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] when the payload is not UTF-8.
    pub fn text(&self) -> Result<&str, WireError> {
        std::str::from_utf8(&self.payload).map_err(|_| WireError::Malformed {
            reason: "frame payload is not UTF-8".into(),
        })
    }
}

/// What one read attempt produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
    /// The read timed out before any byte of a new frame arrived (only with
    /// a read timeout set on the stream); frame sync is intact.
    Idle,
}

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// A length prefix exceeded the negotiated frame cap.
    Oversized {
        /// The advertised length.
        length: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended (or timed out) in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read.
        got: usize,
    },
    /// A frame advertised length zero (not even a kind byte).
    EmptyFrame,
    /// An unassigned kind byte.
    UnknownKind(u8),
    /// The frame arrived intact but its payload does not decode.
    Malformed {
        /// What failed to parse.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "wire I/O error: {err}"),
            Self::Oversized { length, max } => {
                write!(f, "frame length {length} exceeds the {max}-byte cap")
            }
            Self::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame ({got} of {expected} bytes)")
            }
            Self::EmptyFrame => write!(f, "zero-length frame (no kind byte)"),
            Self::UnknownKind(byte) => write!(f, "unknown frame kind 0x{byte:02x}"),
            Self::Malformed { reason } => write!(f, "malformed payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf` completely.  `Ok(n)` with `n < buf.len()` means clean EOF
/// after `n` bytes; timeouts surface as `Err` unless nothing was read yet
/// and `idle_ok` — then `Ok(0)` with `was_idle` flagged via the error path
/// is avoided by the caller checking `n == 0`.
fn read_exact_or_eof(stream: &mut impl Read, buf: &mut [u8]) -> Result<usize, io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(filled)
}

/// Reads one frame.
///
/// With a read timeout set on the stream, a timeout before the first byte of
/// the length prefix yields [`ReadOutcome::Idle`]; a timeout anywhere later
/// is [`WireError::Truncated`] (the stream has lost frame sync and must be
/// dropped).
///
/// # Errors
///
/// See [`WireError`]; `max_frame` bounds the accepted length prefix.
pub fn read_frame(stream: &mut impl Read, max_frame: usize) -> Result<ReadOutcome, WireError> {
    let mut header = [0_u8; 4];
    let got = match read_exact_or_eof(stream, &mut header) {
        Ok(got) => got,
        Err(err) if is_timeout(&err) => return Ok(ReadOutcome::Idle),
        Err(err) => return Err(err.into()),
    };
    if got == 0 {
        return Ok(ReadOutcome::Eof);
    }
    if got < header.len() {
        return Err(WireError::Truncated {
            expected: header.len(),
            got,
        });
    }
    let length = u32::from_be_bytes(header) as usize;
    if length == 0 {
        return Err(WireError::EmptyFrame);
    }
    if length > max_frame {
        return Err(WireError::Oversized {
            length,
            max: max_frame,
        });
    }
    let mut kind = [0_u8; 1];
    let mut payload = vec![0_u8; length - 1];
    let got = match read_kind_and_payload(stream, &mut kind, &mut payload) {
        Ok(got) => got,
        Err(err) if is_timeout(&err) => {
            return Err(WireError::Truncated {
                expected: length,
                got: 0,
            })
        }
        Err(err) => return Err(err.into()),
    };
    if got < length {
        return Err(WireError::Truncated {
            expected: length,
            got,
        });
    }
    let kind = FrameKind::from_byte(kind[0]).ok_or(WireError::UnknownKind(kind[0]))?;
    Ok(ReadOutcome::Frame(Frame { kind, payload }))
}

/// Fills the kind byte and then the payload, returning the bytes read
/// (short only at EOF).  The first read is vectored over both, so a frame
/// body that has already arrived is taken in one call and the payload lands
/// in its own buffer, never shifted.
fn read_kind_and_payload(
    stream: &mut impl Read,
    kind: &mut [u8; 1],
    payload: &mut [u8],
) -> Result<usize, io::Error> {
    let total = 1 + payload.len();
    let mut filled = 0;
    while filled < total {
        let read = if filled == 0 {
            stream.read_vectored(&mut [IoSliceMut::new(kind), IoSliceMut::new(payload)])
        } else {
            stream.read(&mut payload[filled - 1..])
        };
        match read {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(filled)
}

/// Writes one frame and flushes.
///
/// # Errors
///
/// Returns [`WireError::Oversized`] when the payload exceeds `max_frame`,
/// or the transport error.
pub fn write_frame(
    stream: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
    max_frame: usize,
) -> Result<(), WireError> {
    let length = payload.len() + 1;
    if length > max_frame {
        return Err(WireError::Oversized {
            length,
            max: max_frame,
        });
    }
    let length_bytes = u32::try_from(length)
        .map_err(|_| WireError::Oversized {
            length,
            max: max_frame,
        })?
        .to_be_bytes();
    let [l0, l1, l2, l3] = length_bytes;
    let header = [l0, l1, l2, l3, kind.byte()];
    write_all_vectored(stream, &mut [IoSlice::new(&header), IoSlice::new(payload)])?;
    stream.flush()?;
    Ok(())
}

/// Writes every buffer in order, handing the transport all of what remains
/// in each call, so a frame normally leaves in one write (one segment on a
/// `TCP_NODELAY` socket) without being copied into one buffer first.
fn write_all_vectored(stream: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(kind: FrameKind, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload, MAX_FRAME).unwrap();
        match read_frame(&mut Cursor::new(buf), MAX_FRAME).unwrap() {
            ReadOutcome::Frame(frame) => frame,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        let frame = roundtrip(FrameKind::Submit, b"id demo\ngrid modules=8");
        assert_eq!(frame.kind, FrameKind::Submit);
        assert_eq!(frame.text().unwrap(), "id demo\ngrid modules=8");
        let empty = roundtrip(FrameKind::Stats, b"");
        assert_eq!(empty.kind, FrameKind::Stats);
        assert!(empty.payload.is_empty());
    }

    #[test]
    fn every_kind_byte_round_trips() {
        for kind in [
            FrameKind::Submit,
            FrameKind::Stats,
            FrameKind::Cancel,
            FrameKind::Shutdown,
            FrameKind::Accepted,
            FrameKind::Rejected,
            FrameKind::Cell,
            FrameKind::Done,
            FrameKind::StatsReply,
            FrameKind::Error,
            FrameKind::ShutdownAck,
        ] {
            assert_eq!(FrameKind::from_byte(kind.byte()), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0x00), None);
        assert_eq!(FrameKind::from_byte(0x7f), None);
        assert_eq!(FrameKind::from_byte(0xff), None);
    }

    #[test]
    fn clean_eof_at_a_boundary_is_not_an_error() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty), MAX_FRAME).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn truncated_header_and_body_are_errors() {
        // Two header bytes, then EOF.
        let err = read_frame(&mut Cursor::new(vec![0, 0]), MAX_FRAME).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                expected: 4,
                got: 2
            }
        ));
        // A full header promising 100 bytes, then only 3.
        let mut buf = 100_u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[FrameKind::Submit.byte(), b'x', b'y']);
        let err = read_frame(&mut Cursor::new(buf), MAX_FRAME).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                expected: 100,
                got: 3
            }
        ));
    }

    #[test]
    fn oversized_and_empty_prefixes_are_rejected_without_allocation() {
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Oversized { max: 1024, .. }));
        let err = read_frame(&mut Cursor::new(0_u32.to_be_bytes().to_vec()), 1024).unwrap_err();
        assert!(matches!(err, WireError::EmptyFrame));
        // Writing oversized payloads is refused before any bytes move.
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, FrameKind::Cell, &[0; 64], 16).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        assert!(sink.is_empty());
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let mut buf = 1_u32.to_be_bytes().to_vec();
        buf.push(0x42);
        let err = read_frame(&mut Cursor::new(buf), MAX_FRAME).unwrap_err();
        assert!(matches!(err, WireError::UnknownKind(0x42)));
    }

    #[test]
    fn errors_display_their_cause() {
        for (err, needle) in [
            (WireError::EmptyFrame, "zero-length"),
            (WireError::UnknownKind(7), "0x07"),
            (WireError::Oversized { length: 10, max: 5 }, "cap"),
            (
                WireError::Truncated {
                    expected: 4,
                    got: 1,
                },
                "mid-frame",
            ),
            (
                WireError::Malformed {
                    reason: "bad".into(),
                },
                "bad",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    /// A transport that records every call it receives.
    #[derive(Default)]
    struct RecordingWriter {
        bytes: Vec<u8>,
        /// `(vectored, bytes taken)` per write call.
        calls: Vec<(bool, usize)>,
        flushes: usize,
        /// When set, each call takes at most this many bytes.
        limit: Option<usize>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let take = buf.len().min(self.limit.unwrap_or(usize::MAX));
            self.bytes.extend_from_slice(&buf[..take]);
            self.calls.push((false, take));
            Ok(take)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut budget = self.limit.unwrap_or(usize::MAX);
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(budget);
                self.bytes.extend_from_slice(&buf[..take]);
                budget -= take;
                taken += take;
            }
            self.calls.push((true, taken));
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut bytes = u32::try_from(payload.len() + 1)
            .unwrap()
            .to_be_bytes()
            .to_vec();
        bytes.push(kind.byte());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn each_frame_reaches_the_transport_in_one_write() {
        let payload = "cell 0\nr 0123456789abcdef\n".repeat(500);
        for body in [payload.as_bytes(), b"".as_slice()] {
            let mut sink = RecordingWriter::default();
            write_frame(&mut sink, FrameKind::Cell, body, MAX_FRAME).unwrap();
            assert_eq!(sink.calls, [(true, 5 + body.len())]);
            assert_eq!(sink.flushes, 1);
            assert_eq!(sink.bytes, frame_bytes(FrameKind::Cell, body));
        }
        // A transport that takes a few bytes per call still receives the
        // exact frame, resumed mid-header and mid-payload.
        let mut sink = RecordingWriter {
            limit: Some(3),
            ..RecordingWriter::default()
        };
        write_frame(&mut sink, FrameKind::Done, b"id x\n", MAX_FRAME).unwrap();
        assert_eq!(sink.bytes, frame_bytes(FrameKind::Done, b"id x\n"));
        assert!(sink
            .calls
            .iter()
            .all(|&(vectored, taken)| vectored && taken <= 3));
    }

    #[test]
    fn a_transport_that_accepts_nothing_is_an_error() {
        let mut sink = RecordingWriter {
            limit: Some(0),
            ..RecordingWriter::default()
        };
        let err = write_frame(&mut sink, FrameKind::Cell, b"x", MAX_FRAME).unwrap_err();
        assert!(matches!(err, WireError::Io(e) if e.kind() == io::ErrorKind::WriteZero));
    }

    #[test]
    fn every_cut_point_reports_the_same_truncation() {
        let payload = b"cell 3\nmodules 8\n";
        let frame = frame_bytes(FrameKind::Cell, payload);
        let length = payload.len() + 1;
        assert!(matches!(
            read_frame(&mut Cursor::new(&frame[..0]), MAX_FRAME).unwrap(),
            ReadOutcome::Eof
        ));
        for cut in 1..frame.len() {
            let err = read_frame(&mut Cursor::new(&frame[..cut]), MAX_FRAME).unwrap_err();
            let (expected, got) = if cut < 4 { (4, cut) } else { (length, cut - 4) };
            assert!(
                matches!(err, WireError::Truncated { expected: e, got: g } if e == expected && g == got),
                "cut {cut}: {err:?}"
            );
        }
        match read_frame(&mut Cursor::new(&frame), MAX_FRAME).unwrap() {
            ReadOutcome::Frame(read) => {
                assert_eq!(read.kind, FrameKind::Cell);
                assert_eq!(read.payload, payload);
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    /// A reader that hands out at most one byte per call and only through
    /// the default (non-vectored) `read_vectored`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            match buf.first_mut() {
                Some(slot) => {
                    *slot = first;
                    self.0 = rest;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    #[test]
    fn byte_at_a_time_transports_read_whole_frames_and_honest_truncations() {
        let mut stream = frame_bytes(FrameKind::Submit, b"id a\ngrid modules=8");
        stream.extend(frame_bytes(FrameKind::Stats, b""));
        let mut reader = Trickle(&stream);
        for (kind, payload) in [
            (FrameKind::Submit, b"id a\ngrid modules=8".as_slice()),
            (FrameKind::Stats, b""),
        ] {
            match read_frame(&mut reader, MAX_FRAME).unwrap() {
                ReadOutcome::Frame(frame) => {
                    assert_eq!(frame.kind, kind);
                    assert_eq!(frame.payload, payload);
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME).unwrap(),
            ReadOutcome::Eof
        ));
        let frame = frame_bytes(FrameKind::Cell, b"abc");
        let err = read_frame(&mut Trickle(&frame[..6]), MAX_FRAME).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                expected: 4,
                got: 2
            }
        ));
    }

    /// A reader that times out after handing out `ready` bytes.
    struct Stall<'a> {
        ready: &'a [u8],
    }

    impl Read for Stall<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.ready.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let take = buf.len().min(self.ready.len());
            buf[..take].copy_from_slice(&self.ready[..take]);
            self.ready = &self.ready[take..];
            Ok(take)
        }
    }

    #[test]
    fn timeouts_keep_their_outcomes() {
        let frame = frame_bytes(FrameKind::Cell, b"payload");
        assert!(matches!(
            read_frame(&mut Stall { ready: &[] }, MAX_FRAME).unwrap(),
            ReadOutcome::Idle
        ));
        // Mid-body a timeout reports the frame length with nothing counted.
        for cut in 4..frame.len() {
            let err = read_frame(
                &mut Stall {
                    ready: &frame[..cut],
                },
                MAX_FRAME,
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated {
                        expected: 8,
                        got: 0
                    }
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn length_and_kind_errors_are_unchanged() {
        let err = read_frame(&mut Cursor::new(0_u32.to_be_bytes()), MAX_FRAME).unwrap_err();
        assert!(matches!(err, WireError::EmptyFrame));
        let mut oversized = 1025_u32.to_be_bytes().to_vec();
        oversized.extend([0; 8]);
        let err = read_frame(&mut Cursor::new(oversized), 1024).unwrap_err();
        assert!(matches!(
            err,
            WireError::Oversized {
                length: 1025,
                max: 1024
            }
        ));
        // The cap is inclusive.
        let at_cap = frame_bytes(FrameKind::Cell, &[b'x'; 1023]);
        assert!(matches!(
            read_frame(&mut Cursor::new(at_cap), 1024).unwrap(),
            ReadOutcome::Frame(_)
        ));
        let err = write_frame(&mut Vec::new(), FrameKind::Cell, &[b'x'; 1024], 1024).unwrap_err();
        assert!(matches!(
            err,
            WireError::Oversized {
                length: 1025,
                max: 1024
            }
        ));
        for byte in [0x00, 0x05, 0x80, 0x88, 0xff] {
            let mut frame = frame_bytes(FrameKind::Cell, b"abc");
            frame[4] = byte;
            let err = read_frame(&mut Cursor::new(&frame), MAX_FRAME).unwrap_err();
            assert!(
                matches!(err, WireError::UnknownKind(b) if b == byte),
                "{byte:#x}"
            );
            // A truncated frame reports the truncation, not the kind.
            let err = read_frame(&mut Cursor::new(&frame[..6]), MAX_FRAME).unwrap_err();
            assert!(matches!(
                err,
                WireError::Truncated {
                    expected: 4,
                    got: 2
                }
            ));
        }
    }
}
