//! Append-only checkpoint journals for long sweeps.
//!
//! One journal per request id, `<id>.ckpt` inside the server's checkpoint
//! directory (ids are path-safe by [`validate_id`](crate::protocol::validate_id)).
//! The format is a text header binding the journal to one exact request:
//!
//! ```text
//! teg-sweep-checkpoint v2
//! grid <canonical grid spec>
//! policy <policy token>
//! cell <index> <escaped byte length> <escaped CELL payload>
//! cell <index> <escaped byte length> <escaped CELL payload>
//! …
//! ```
//!
//! Each finished cell is appended — and flushed — *before* it is streamed to
//! the client, so anything the client saw is durable.  Escaping folds the
//! multi-line CELL payload onto one journal line (`\` → `\\`, newline →
//! `\n`); the stored bytes are exactly what [`encode_cell`](crate::codec::encode_cell)
//! produced, so a resumed request re-emits byte-identical frames without
//! re-solving.
//!
//! Crash safety is structural: every cell record carries the byte length of
//! its escaped payload, so each line proves its own completeness.  A final
//! line whose payload matches its declared length is a finished append that
//! merely lost its trailing newline (killed between `write` and the
//! terminator landing) and is recovered; a line whose payload falls short of
//! the declared length is genuinely torn and is dropped along with
//! everything after it, leaving the cells before it usable.  A header that
//! does not match the resubmitted request's grid spec and policy is a
//! [`CheckpointLoad::Mismatch`] — the server rejects rather than mixing
//! incompatible results.  v1 journals (no length field) mismatch on the
//! format line and are likewise refused rather than half-recovered.  Lines
//! end in `\n` only, and the index and length fields must be canonical
//! unsigned decimal, the form the writer produces.
//!
//! # Cost
//!
//! An append is linear in the payload, copies it once and allocates
//! nothing: a word-at-a-time scan counts the bytes that need escaping, the
//! `cell <index> <length> ` prefix is written, then the runs between `\n`
//! and `\\` bytes are copied straight into the journal's buffer, which is
//! sized so a typical cell reaches the file in one write at the single
//! flush.  [`unescape_payload`] copies runs the same way on resume.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read as _, Write};
use std::path::{Path, PathBuf};

use crate::codec::parse_usize;

/// Magic first line of every journal.
pub const CHECKPOINT_MAGIC: &str = "teg-sweep-checkpoint v2";

/// Buffer size of an open journal: room for a typical escaped cell line, so
/// an append reaches the file in one write.
const JOURNAL_BUFFER: usize = 64 * 1024;

/// The index of the first `\n` or `\\` in `bytes` at or after `from`.
/// Scans a word at a time: a lane of `word ^ broadcast(byte)` is zero
/// exactly where `word` holds `byte`, and the lowest flagged lane of the
/// zero-byte test is always a true hit.
fn next_escape(bytes: &[u8], mut from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let lanes_equal = |word: u64, byte: u8| {
        let x = word ^ (ONES * u64::from(byte));
        x.wrapping_sub(ONES) & !x & HIGH
    };
    while let Some(chunk) = bytes.get(from..).and_then(<[u8]>::first_chunk::<8>) {
        let word = u64::from_le_bytes(*chunk);
        let hits = lanes_equal(word, b'\n') | lanes_equal(word, b'\\');
        if hits != 0 {
            return Some(from + (hits.trailing_zeros() / 8) as usize);
        }
        from += 8;
    }
    let tail = bytes.get(from..)?;
    let at = tail
        .iter()
        .position(|&byte| byte == b'\n' || byte == b'\\')?;
    Some(from + at)
}

/// Calls `emit` with `payload` escaped, in pieces: the runs between the
/// bytes that need escaping, and each such byte's escape sequence.
fn escape_runs<E>(payload: &str, mut emit: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
    let bytes = payload.as_bytes();
    let mut start = 0;
    while let Some(at) = next_escape(bytes, start) {
        emit(&payload[start..at])?;
        emit(if bytes[at] == b'\n' { "\\n" } else { "\\\\" })?;
        start = at + 1;
    }
    emit(&payload[start..])
}

/// The length of `payload` once escaped.
fn escaped_len(payload: &str) -> usize {
    let bytes = payload.as_bytes();
    let mut len = bytes.len();
    let mut from = 0;
    while let Some(at) = next_escape(bytes, from) {
        len += 1;
        from = at + 1;
    }
    len
}

/// Folds a CELL payload onto one journal line.
#[must_use]
pub fn escape_payload(payload: &str) -> String {
    let mut out = String::with_capacity(escaped_len(payload));
    let Ok(()) = escape_runs(payload, |piece| {
        out.push_str(piece);
        Ok::<(), Infallible>(())
    });
    out
}

/// Inverse of [`escape_payload`]; `None` for a torn escape sequence.
#[must_use]
pub fn unescape_payload(line: &str) -> Option<String> {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        match rest.as_bytes().get(at + 1)? {
            b'\\' => out.push('\\'),
            b'n' => out.push('\n'),
            _ => return None,
        }
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    Some(out)
}

/// Writes one journal record, `cell <index> <escaped length> <escaped
/// payload>\n`, without building it in memory first.
fn write_cell_line(out: &mut impl Write, index: usize, payload: &str) -> io::Result<()> {
    write!(out, "cell {index} {} ", escaped_len(payload))?;
    escape_runs(payload, |piece| out.write_all(piece.as_bytes()))?;
    out.write_all(b"\n")
}

/// The journal file for one request id.
#[must_use]
pub fn checkpoint_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.ckpt"))
}

/// What loading a journal found.
#[derive(Debug)]
pub enum CheckpointLoad {
    /// No journal exists for the id — a fresh run.
    Missing,
    /// A journal exists but belongs to a different grid or policy.
    Mismatch {
        /// Which header line disagreed.
        reason: String,
    },
    /// The recovered cells: grid index → the exact CELL payload previously
    /// streamed.
    Cells(BTreeMap<usize, String>),
}

/// Loads the journal for `id`, checking its header against the resubmitted
/// request's canonical grid spec and policy token.
///
/// # Errors
///
/// Propagates I/O failures other than the file not existing.
pub fn load_checkpoint(
    dir: &Path,
    id: &str,
    grid_spec: &str,
    policy: &str,
) -> io::Result<CheckpointLoad> {
    let path = checkpoint_path(dir, id);
    let mut text = String::new();
    match File::open(&path) {
        Ok(mut file) => {
            file.read_to_string(&mut text)?;
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            return Ok(CheckpointLoad::Missing);
        }
        Err(err) => return Err(err),
    }
    // Every cell record is self-validating (it declares its escaped payload
    // length), so the final line is parsed even without a trailing newline:
    // a complete append that lost only its terminator is recovered, while a
    // genuinely truncated one fails its own length check below.
    let mut lines = text.split('\n');
    let expect = |got: Option<&str>, want: &str, what: &str| -> Result<(), String> {
        match got {
            Some(line) if line == want => Ok(()),
            Some(line) => Err(format!("{what} mismatch: journal has `{line}`")),
            None => Err(format!("journal truncated before its {what} line")),
        }
    };
    let header = expect(lines.next(), CHECKPOINT_MAGIC, "format")
        .and_then(|()| expect(lines.next(), &format!("grid {grid_spec}"), "grid"))
        .and_then(|()| expect(lines.next(), &format!("policy {policy}"), "policy"));
    if let Err(reason) = header {
        return Ok(CheckpointLoad::Mismatch { reason });
    }
    let mut cells = BTreeMap::new();
    for line in lines {
        // Stop at the first malformed or short line; everything before it is
        // intact.  A torn append truncates the line somewhere, so either the
        // prefix fields fail to parse or the payload comes up shorter than
        // its declared length.
        let Some(rest) = line.strip_prefix("cell ") else {
            break;
        };
        let Some((index, rest)) = rest.split_once(' ') else {
            break;
        };
        let Some(index) = parse_usize(index) else {
            break;
        };
        let Some((length, escaped)) = rest.split_once(' ') else {
            break;
        };
        let Some(length) = parse_usize(length) else {
            break;
        };
        if escaped.len() != length {
            break;
        }
        let Some(payload) = unescape_payload(escaped) else {
            break;
        };
        cells.insert(index, payload);
    }
    Ok(CheckpointLoad::Cells(cells))
}

/// An open journal accepting cell appends.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: BufWriter<File>,
}

impl CheckpointWriter {
    /// Opens (or creates) the journal for `id`, writing the header when the
    /// file is new.  Call [`load_checkpoint`] first — this does not validate
    /// an existing header.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn open(dir: &Path, id: &str, grid_spec: &str, policy: &str) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = checkpoint_path(dir, id);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let fresh = file.metadata()?.len() == 0;
        let mut writer = Self {
            file: BufWriter::with_capacity(JOURNAL_BUFFER, file),
        };
        if fresh {
            writer.file.write_all(
                format!("{CHECKPOINT_MAGIC}\ngrid {grid_spec}\npolicy {policy}\n").as_bytes(),
            )?;
            writer.file.flush()?;
        }
        Ok(writer)
    }

    /// Appends one finished cell and flushes, so the entry is durable before
    /// the cell is streamed.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, index: usize, payload: &str) -> io::Result<()> {
        write_cell_line(&mut self.file, index, payload)?;
        self.file.flush()
    }
}

/// Removes the journal for `id` (after a successful DONE).
///
/// # Errors
///
/// Propagates deletion failures other than the file already being gone.
pub fn delete_checkpoint(dir: &Path, id: &str) -> io::Result<()> {
    match std::fs::remove_file(checkpoint_path(dir, id)) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(err) => Err(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_cell;
    use crate::codec::testkit::{faulted_cells, synthetic_cell, Rng, LABELS};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The original char-wise escape.
    fn reference_escape(payload: &str) -> String {
        let mut out = String::with_capacity(payload.len());
        for c in payload.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out
    }

    /// The original char-wise unescape.
    fn reference_unescape(line: &str) -> Option<String> {
        let mut out = String::with_capacity(line.len());
        let mut chars = line.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next()? {
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                _ => return None,
            }
        }
        Some(out)
    }

    /// The original journal record, built whole with `format!`.
    fn reference_line(index: usize, payload: &str) -> String {
        let escaped = reference_escape(payload);
        format!("cell {index} {} {escaped}\n", escaped.len())
    }

    /// A random string over characters the escape treats specially, their
    /// neighbours, and multi-byte UTF-8.
    fn awkward_text(rng: &mut Rng) -> String {
        const PIECES: [&str; 12] = [
            "\\",
            "\n",
            "n",
            "\\n",
            "\\\\",
            "a",
            " ",
            "ü",
            "熱",
            "🚗",
            "\r",
            "0123456789abcdef",
        ];
        (0..rng.below(40)).map(|_| rng.pick(&PIECES)).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "teg-serve-ckpt-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn escaping_round_trips_awkward_payloads() {
        for payload in ["", "plain", "two\nlines\n", "back\\slash", "\\n\n\\\\"] {
            let escaped = escape_payload(payload);
            assert!(!escaped.contains('\n'));
            assert_eq!(unescape_payload(&escaped).unwrap(), payload);
        }
        assert!(unescape_payload("torn\\").is_none());
        assert!(unescape_payload("bad\\x").is_none());
    }

    #[test]
    fn journal_round_trips_and_deletes() {
        let dir = temp_dir("roundtrip");
        assert!(matches!(
            load_checkpoint(&dir, "job", "modules=8", "measured").unwrap(),
            CheckpointLoad::Missing
        ));
        let mut writer = CheckpointWriter::open(&dir, "job", "modules=8", "measured").unwrap();
        writer.append(0, "cell 0\nbody a\n").unwrap();
        writer.append(2, "cell 2\nbody b\n").unwrap();
        drop(writer);
        // Reopening appends without duplicating the header.
        let mut writer = CheckpointWriter::open(&dir, "job", "modules=8", "measured").unwrap();
        writer.append(1, "cell 1\nbody c\n").unwrap();
        drop(writer);
        let CheckpointLoad::Cells(cells) =
            load_checkpoint(&dir, "job", "modules=8", "measured").unwrap()
        else {
            panic!("expected cells");
        };
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[&0], "cell 0\nbody a\n");
        assert_eq!(cells[&1], "cell 1\nbody c\n");
        assert_eq!(cells[&2], "cell 2\nbody b\n");
        delete_checkpoint(&dir, "job").unwrap();
        delete_checkpoint(&dir, "job").unwrap(); // idempotent
        assert!(matches!(
            load_checkpoint(&dir, "job", "modules=8", "measured").unwrap(),
            CheckpointLoad::Missing
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grid_and_policy_mismatches_are_refused() {
        let dir = temp_dir("mismatch");
        let mut writer = CheckpointWriter::open(&dir, "job", "modules=8", "measured").unwrap();
        writer.append(0, "x").unwrap();
        drop(writer);
        for (grid, policy) in [("modules=12", "measured"), ("modules=8", "fixed:0.002")] {
            assert!(matches!(
                load_checkpoint(&dir, "job", grid, policy).unwrap(),
                CheckpointLoad::Mismatch { .. }
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_and_malformed_lines_drop_cleanly() {
        let dir = temp_dir("torn");
        let mut writer = CheckpointWriter::open(&dir, "job", "g", "measured").unwrap();
        writer.append(0, "good\n").unwrap();
        drop(writer);
        let path = checkpoint_path(&dir, "job");
        // A torn append: the payload is shorter than its declared length.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"cell 1 17 half-writt").unwrap();
        drop(file);
        let CheckpointLoad::Cells(cells) = load_checkpoint(&dir, "job", "g", "measured").unwrap()
        else {
            panic!("expected cells");
        };
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[&0], "good\n");
        // An append torn inside the length field itself also drops.
        std::fs::write(
            &path,
            format!("{CHECKPOINT_MAGIC}\ngrid g\npolicy measured\ncell 1 1"),
        )
        .unwrap();
        let CheckpointLoad::Cells(cells) = load_checkpoint(&dir, "job", "g", "measured").unwrap()
        else {
            panic!("expected cells");
        };
        assert!(cells.is_empty());
        // A malformed middle line ends recovery at that point.
        std::fs::write(
            &path,
            format!(
                "{CHECKPOINT_MAGIC}\ngrid g\npolicy measured\ncell 0 1 a\ngarbage\ncell 1 1 b\n"
            ),
        )
        .unwrap();
        let CheckpointLoad::Cells(cells) = load_checkpoint(&dir, "job", "g", "measured").unwrap()
        else {
            panic!("expected cells");
        };
        assert_eq!(cells.len(), 1);
        assert!(cells.contains_key(&0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn complete_final_line_without_newline_is_recovered() {
        // Regression: a finished append that lost only its trailing newline
        // (process killed between the payload landing and the terminator)
        // used to be dropped as torn, so resume re-solved a finished cell.
        // The length field proves the line complete, so it is recovered.
        let dir = temp_dir("noterm");
        let mut writer = CheckpointWriter::open(&dir, "job", "g", "measured").unwrap();
        writer.append(0, "cell 0\nbody a\n").unwrap();
        writer.append(1, "cell 1\nbody b\n").unwrap();
        drop(writer);
        let path = checkpoint_path(&dir, "job");
        // Chop exactly the final newline: the last record is complete but
        // unterminated.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.last(), Some(&b'\n'));
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let CheckpointLoad::Cells(cells) = load_checkpoint(&dir, "job", "g", "measured").unwrap()
        else {
            panic!("expected cells");
        };
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[&0], "cell 0\nbody a\n");
        assert_eq!(cells[&1], "cell 1\nbody b\n");
        // Chop one more byte and the same record is genuinely torn: only the
        // terminated cell survives.
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let CheckpointLoad::Cells(cells) = load_checkpoint(&dir, "job", "g", "measured").unwrap()
        else {
            panic!("expected cells");
        };
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[&0], "cell 0\nbody a\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #[test]
        fn escape_and_journal_line_match_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            for round in 0..8 {
                let payload = if round % 2 == 0 {
                    awkward_text(&mut rng)
                } else {
                    encode_cell(&synthetic_cell(&mut rng))
                };
                let escaped = escape_payload(&payload);
                prop_assert_eq!(&escaped, &reference_escape(&payload));
                prop_assert_eq!(escaped_len(&payload), escaped.len());
                prop_assert_eq!(unescape_payload(&escaped).as_deref(), Some(payload.as_str()));
                let index = rng.pick(&[0, 7, usize::MAX]);
                let mut line = Vec::new();
                write_cell_line(&mut line, index, &payload).unwrap();
                prop_assert_eq!(String::from_utf8(line).unwrap(), reference_line(index, &payload));
            }
        }

        #[test]
        fn unescape_matches_the_reference_on_arbitrary_text(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            for _ in 0..16 {
                let line = awkward_text(&mut rng);
                prop_assert_eq!(unescape_payload(&line), reference_unescape(&line), "{:?}", line);
            }
        }
    }

    #[test]
    fn real_cells_journal_like_the_reference() {
        for (index, cell) in faulted_cells().iter().enumerate() {
            let payload = encode_cell(cell);
            let mut line = Vec::new();
            write_cell_line(&mut line, index, &payload).unwrap();
            assert_eq!(
                String::from_utf8(line).unwrap(),
                reference_line(index, &payload)
            );
        }
        for label in LABELS {
            assert_eq!(escape_payload(label), reference_escape(label));
        }
    }

    #[test]
    fn cell_fields_must_be_canonical_decimal_and_lines_end_in_newline() {
        let dir = temp_dir("canonical");
        let path = checkpoint_path(&dir, "job");
        let header = format!("{CHECKPOINT_MAGIC}\ngrid g\npolicy measured\n");
        for bad in [
            "cell +1 1 a\n",
            "cell 01 1 a\n",
            "cell 1 +1 a\n",
            "cell 1 01 a\n",
            "cell -1 1 a\n",
            "cell 1 1 a\r\n",
        ] {
            std::fs::write(&path, format!("{header}cell 0 1 z\n{bad}cell 2 1 b\n")).unwrap();
            let CheckpointLoad::Cells(cells) =
                load_checkpoint(&dir, "job", "g", "measured").unwrap()
            else {
                panic!("expected cells");
            };
            assert_eq!(cells.keys().copied().collect::<Vec<_>>(), [0], "{bad:?}");
        }
        // A CRLF header is not the header the writer wrote.
        std::fs::write(&path, header.replace('\n', "\r\n")).unwrap();
        assert!(matches!(
            load_checkpoint(&dir, "job", "g", "measured").unwrap(),
            CheckpointLoad::Mismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
