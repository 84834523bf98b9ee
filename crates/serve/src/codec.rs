//! Bit-exact text encoding of sweep cell reports.
//!
//! A CELL frame's payload is line-oriented UTF-8.  Every `f64` travels as the
//! sixteen-digit lowercase hex of its IEEE-754 bit pattern, so decoding
//! reconstructs the *identical* bits — no shortest-representation or
//! rounding concerns.  Aggregates ([`SimulationReport`]'s energy totals and
//! [`SweepReport`](teg_sim::SweepReport)'s summaries) are *not* transported:
//! the constructors recompute them from the records in record order, which is
//! exactly how the in-process runner produced them, so a decoded report
//! compares equal (`PartialEq`) to the original.
//!
//! Layout (one cell):
//!
//! ```text
//! cell <index>
//! modules <module_count>
//! seed <seed>
//! variation <variation>
//! drive <label>
//! fault <label>
//! lineup <label>
//! step <f64 hex>
//! reports <n>
//! scheme <name>            ┐
//! switches <count>         │ repeated n times; each scheme block carries
//! runtime <total> <max> <invocations> <faulted>
//! records <m>              │ its m per-step records
//! r <time> <array> <net> <delivered> <ideal> <groups> <switched> <overhead> <comp> <faults> <events>
//! ```
//!
//! Labels and scheme names occupy the rest of their line, so they may contain
//! spaces; nothing else in the grammar is positional past the first token.
//!
//! The grammar is strict and canonical: hex digits are lowercase, integers
//! are unsigned decimal without a sign or leading zeros, every line ends in
//! `\n` (no `\r`), a cell without reports carries a zero step, and nothing
//! follows the last record.  So any payload [`decode_cell`] accepts
//! re-encodes to itself byte for byte.
//!
//! # Cost
//!
//! Both directions are one linear pass with no per-field allocation.
//! [`encode_cell`] writes into one buffer sized up front for the whole cell,
//! with `f64` fields through a nibble table and integers through a small
//! decimal writer.  [`decode_cell`] walks a byte cursor over the payload,
//! reads record fields in place without splitting their lines, and
//! allocates only the decoded report itself: its labels, scheme names and
//! record vectors.

use std::cmp::Ordering;

use teg_reconfig::RuntimeStats;
use teg_sim::{CellKey, ComparisonReport, SimulationReport, StepRecord, SweepCellReport};
use teg_units::{Joules, Seconds, Watts};

use crate::wire::WireError;

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// A space plus one `f64` hex field.
const HEX_FIELD: usize = 1 + 16;
/// A space plus the longest integer field (`u64::MAX` has 20 digits).
const DEC_FIELD: usize = 1 + 20;
/// Upper bound on a keyed line of at most four numeric fields.
const KEYED_LINE: usize = 16 + 4 * DEC_FIELD;
/// Upper bound on one `r` line.
const RECORD_LINE: usize = 2 + 7 * HEX_FIELD + 4 * DEC_FIELD;
/// Lower bounds on the bytes one record line and one scheme block occupy,
/// so a hostile count cannot reserve more than the payload could hold.
/// A record is `r`, seven hex fields, four one-digit fields and `\n`; a
/// block is `scheme \n`, `switches 0\n`, a runtime line with two hex and
/// two one-digit fields, and `records 0\n`.
const MIN_RECORD_LINE: usize = 2 + 7 * HEX_FIELD + 4 * 2;
const MIN_SCHEME_BLOCK: usize = 8 + 11 + (8 + 2 * HEX_FIELD + 2 * 2) + 10;

/// The sixteen lowercase hex digits of an `f64`'s bit pattern.
fn hex_digits(value: f64) -> [u8; 16] {
    let bits = value.to_bits();
    let mut digits = [0_u8; 16];
    for (at, digit) in digits.iter_mut().enumerate() {
        *digit = HEX_DIGITS[((bits >> (60 - 4 * at)) & 0xf) as usize];
    }
    digits
}

/// Encodes an `f64` as the sixteen-digit lowercase hex of its bit pattern.
#[must_use]
pub fn f64_hex(value: f64) -> String {
    hex_digits(value).iter().copied().map(char::from).collect()
}

/// The value of eight ASCII hex digits loaded big-endian into `chunk`
/// (first digit in the top byte), or `None` unless every byte is `0-9` or
/// `a-f`.  Branch-free SWAR: each byte becomes a candidate nibble, which is
/// accepted only if it encodes back to that byte; the nibbles are then
/// packed pairwise.
fn hex8(chunk: u64) -> Option<u64> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Each lane's candidate nibble: '0'-'9' is 0x30-0x39 and 'a'-'f' is
    // 0x61-0x66, so the low four bits plus nine if bit 6 is set.
    let nibbles = (chunk & (ONES * 0xf)) + ((chunk >> 6) & ONES) * 9;
    // Re-encode each nibble (at most 24, so no lane carries) and accept
    // only lanes that reproduce their byte and hold a value below 16.
    let letters = ((nibbles + ONES * 0x76) >> 7) & ONES;
    let encoded = nibbles + ONES * u64::from(b'0') + letters * 0x27;
    if encoded != chunk || (nibbles + ONES * 0x70) & HIGH != 0 {
        return None;
    }
    let pairs = ((nibbles >> 4) | nibbles) & 0x00ff_00ff_00ff_00ff;
    let quads = ((pairs >> 8) | pairs) & 0x0000_ffff_0000_ffff;
    Some(((quads >> 16) | quads) & 0xffff_ffff)
}

/// The bits of exactly sixteen lowercase hex digits.
fn hex_bits(token: &[u8]) -> Option<u64> {
    let (high, low) = token.split_first_chunk::<8>()?;
    let low: &[u8; 8] = low.try_into().ok()?;
    Some((hex8(u64::from_be_bytes(*high))? << 32) | hex8(u64::from_be_bytes(*low))?)
}

/// Decodes an `f64` from [`f64_hex`] output.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] when the token is not exactly sixteen
/// lowercase hex digits.
pub fn parse_f64_hex(token: &str) -> Result<f64, WireError> {
    hex_bits(token.as_bytes())
        .map(f64::from_bits)
        .ok_or_else(|| malformed(format!("bad f64 hex token `{token}`")))
}

/// Parses canonical unsigned decimal: ASCII digits only, no sign, no leading
/// zero except `0` itself, and no overflow.
pub(crate) fn parse_decimal(token: &str) -> Option<u64> {
    match token.as_bytes() {
        [] | [b'0', _, ..] => None,
        digits => digits.iter().try_fold(0_u64, |acc, &digit| {
            let value = digit.wrapping_sub(b'0');
            if value > 9 {
                return None;
            }
            acc.checked_mul(10)?.checked_add(u64::from(value))
        }),
    }
}

pub(crate) fn parse_usize(token: &str) -> Option<usize> {
    parse_decimal(token).and_then(|value| usize::try_from(value).ok())
}

fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        reason: reason.into(),
    }
}

/// The encode buffer: ASCII keys and numerals plus UTF-8 labels.
struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// Writes a line key (numeric fields follow with their own spaces).
    fn key(&mut self, key: &str) {
        self.out.extend_from_slice(key.as_bytes());
    }

    /// Writes a space and an `f64` hex field.
    fn hex(&mut self, value: f64) {
        self.out.push(b' ');
        self.out.extend_from_slice(&hex_digits(value));
    }

    /// Writes a space and an unsigned decimal field.
    fn dec(&mut self, value: u64) {
        let mut digits = [0_u8; 20];
        let mut start = digits.len();
        let mut rest = value;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.out.push(b' ');
        self.out.extend_from_slice(&digits[start..]);
    }

    fn end(&mut self) {
        self.out.push(b'\n');
    }

    /// Writes `<key> <value>\n`.
    fn dec_line(&mut self, key: &str, value: usize) {
        self.key(key);
        self.dec(value as u64);
        self.end();
    }

    /// Writes `<key> <text>\n`; the text runs to the end of the line.
    fn text_line(&mut self, key: &str, text: &str) {
        self.key(key);
        self.out.push(b' ');
        self.out.extend_from_slice(text.as_bytes());
        self.end();
    }
}

/// An upper bound on the encoded length of `cell`.
fn encoded_len_bound(cell: &SweepCellReport) -> usize {
    let key = cell.key();
    let labels = key.drive().len() + key.fault().len() + key.lineup().len();
    let reports: usize = cell
        .report()
        .reports()
        .iter()
        .map(|r| 4 * KEYED_LINE + r.scheme().len() + r.records().len() * RECORD_LINE)
        .sum();
    9 * KEYED_LINE + labels + reports
}

/// Serialises one cell report into a CELL frame payload.
#[must_use]
pub fn encode_cell(cell: &SweepCellReport) -> String {
    let key = cell.key();
    let mut enc = Encoder {
        out: Vec::with_capacity(encoded_len_bound(cell)),
    };
    enc.dec_line("cell", key.index());
    enc.dec_line("modules", key.module_count());
    enc.key("seed");
    enc.dec(key.seed());
    enc.end();
    enc.dec_line("variation", key.variation());
    enc.text_line("drive", key.drive());
    enc.text_line("fault", key.fault());
    enc.text_line("lineup", key.lineup());
    let reports = cell.report().reports();
    let step = reports.first().map(|r| r.step()).unwrap_or(Seconds::ZERO);
    enc.key("step");
    enc.hex(step.value());
    enc.end();
    enc.dec_line("reports", reports.len());
    for report in reports {
        enc.text_line("scheme", report.scheme());
        enc.dec_line("switches", report.switch_count());
        let rt = report.runtime();
        enc.key("runtime");
        enc.hex(rt.total().value());
        enc.hex(rt.max().value());
        enc.dec(rt.invocations() as u64);
        enc.dec(rt.faulted_invocations() as u64);
        enc.end();
        enc.dec_line("records", report.records().len());
        for r in report.records() {
            enc.key("r");
            enc.hex(r.time().value());
            enc.hex(r.array_power().value());
            enc.hex(r.net_power().value());
            enc.hex(r.delivered_power().value());
            enc.hex(r.ideal_power().value());
            enc.dec(r.group_count() as u64);
            enc.dec(u64::from(r.switched()));
            enc.hex(r.overhead_energy().value());
            enc.hex(r.computation().value());
            enc.dec(r.faults_active() as u64);
            enc.dec(r.fault_events() as u64);
            enc.end();
        }
    }
    String::from_utf8(enc.out).expect("the encoder writes ASCII fields and UTF-8 labels")
}

/// Cursor over the payload's `\n`-terminated lines with keyed-line helpers.
struct Lines<'a> {
    rest: &'a str,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            rest: text,
            line_no: 0,
        }
    }

    /// The rest of the next line after the expected key and its space.
    fn rest(&mut self, key: &str) -> Result<&'a str, WireError> {
        self.line_no += 1;
        let (rest, after) = keyed_line(self.rest, key, self.line_no)?;
        self.rest = after;
        Ok(rest)
    }

    /// A cursor over the next line's `count` fields after `key`.
    fn fields<'l>(
        &'l mut self,
        key: &'static str,
        count: usize,
        what: &'static str,
    ) -> Fields<'l, 'a> {
        self.line_no += 1;
        let line = self.rest;
        // After a wrong key every read fails, and is explained from `line`.
        self.rest = line
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .unwrap_or("");
        Fields {
            lines: self,
            line,
            key,
            what,
            left: count,
            count,
        }
    }

    fn usize(&mut self, key: &str) -> Result<usize, WireError> {
        let rest = self.rest(key)?;
        parse_usize(rest)
            .ok_or_else(|| malformed(format!("`{key}` value `{rest}` is not an integer")))
    }

    fn u64(&mut self, key: &str) -> Result<u64, WireError> {
        let rest = self.rest(key)?;
        parse_decimal(rest)
            .ok_or_else(|| malformed(format!("`{key}` value `{rest}` is not an integer")))
    }

    /// A count field, plus how many of its items the unread payload could
    /// hold at `min_len` bytes each — the most worth reserving.
    fn count(&mut self, key: &str, min_len: usize) -> Result<(usize, usize), WireError> {
        let count = self.usize(key)?;
        Ok((count, count.min(self.rest.len() / min_len)))
    }
}

/// Splits `<key> <rest>\n` off the front of `text`, returning the rest of
/// the line and what follows its newline.
fn keyed_line<'a>(
    text: &'a str,
    key: &str,
    line_no: usize,
) -> Result<(&'a str, &'a str), WireError> {
    if text.is_empty() {
        return Err(malformed(format!("payload ended before `{key}` line")));
    }
    let Some(end) = text.find('\n') else {
        return Err(malformed(format!(
            "line {line_no}: `{key}` line is not newline-terminated"
        )));
    };
    let line = &text[..end];
    let rest = line
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| malformed(format!("line {line_no}: expected `{key} …`, got `{line}`")))?;
    Ok((rest, &text[end + 1..]))
}

/// Cursor over the fields of one `<key> <field> … <field>\n` line, read
/// straight from the payload: a well-formed line is never scanned for its
/// end or split.  Each read checks the byte after its field (a space, or
/// the newline after the last field); only when a read fails does
/// [`Fields::explain`] delimit the line to name its first defect.
struct Fields<'l, 'a> {
    lines: &'l mut Lines<'a>,
    /// The payload from the start of this line.
    line: &'a str,
    key: &'static str,
    what: &'static str,
    /// Fields not yet read.
    left: usize,
    count: usize,
}

impl<'a> Fields<'_, 'a> {
    /// The byte that must follow the next field.
    fn delimiter(&self) -> u8 {
        if self.left == 1 {
            b'\n'
        } else {
            b' '
        }
    }

    /// Consumes a `len`-byte field and its delimiter.
    fn advance(&mut self, len: usize) {
        self.lines.rest = &self.lines.rest[len + 1..];
        self.left -= 1;
    }

    /// The next field's text, up to a space or newline.
    fn token(&self) -> &'a str {
        let rest = self.lines.rest;
        &rest[..rest.find([' ', '\n']).unwrap_or(rest.len())]
    }

    /// The line's first defect: a missing or unterminated line, a wrong
    /// key, a wrong field count, or else the failed field's own `err`.
    fn explain(&self, err: WireError) -> WireError {
        let (fields, _) = match keyed_line(self.line, self.key, self.lines.line_no) {
            Ok(split) => split,
            Err(line_err) => return line_err,
        };
        let what = self.what;
        match (1 + fields.matches(' ').count()).cmp(&self.count) {
            Ordering::Less => malformed(format!("{what} line has too few fields: `{fields}`")),
            Ordering::Greater => malformed(format!("{what} line has too many fields: `{fields}`")),
            Ordering::Equal => err,
        }
    }

    fn hex(&mut self) -> Result<f64, WireError> {
        let bytes = self.lines.rest.as_bytes();
        if bytes.get(16) == Some(&self.delimiter()) {
            if let Some(bits) = hex_bits(&bytes[..16]) {
                self.advance(16);
                return Ok(f64::from_bits(bits));
            }
        }
        let token = self.token();
        Err(self.explain(malformed(format!("bad f64 hex token `{token}`"))))
    }

    fn usize(&mut self, error: &str) -> Result<usize, WireError> {
        let token = self.token();
        if self.lines.rest.as_bytes().get(token.len()) == Some(&self.delimiter()) {
            if let Some(value) = parse_usize(token) {
                self.advance(token.len());
                return Ok(value);
            }
        }
        Err(self.explain(malformed(error)))
    }

    /// A `0`/`1` field.
    fn flag(&mut self, name: &str) -> Result<bool, WireError> {
        let token = self.token();
        let value = match token {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        };
        match value {
            Some(value) if self.lines.rest.as_bytes().get(1) == Some(&self.delimiter()) => {
                self.advance(1);
                Ok(value)
            }
            _ => Err(self.explain(malformed(format!("{name} `{token}`")))),
        }
    }
}

/// Rebuilds a cell report from a CELL frame payload, bit-identically.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] naming the offending line when the
/// payload deviates from the grammar.
pub fn decode_cell(text: &str) -> Result<SweepCellReport, WireError> {
    let mut lines = Lines::new(text);
    let index = lines.usize("cell")?;
    let modules = lines.usize("modules")?;
    let seed = lines.u64("seed")?;
    let variation = lines.usize("variation")?;
    let drive = lines.rest("drive")?.to_owned();
    let fault = lines.rest("fault")?.to_owned();
    let lineup = lines.rest("lineup")?.to_owned();
    let step = Seconds::new(parse_f64_hex(lines.rest("step")?)?);
    let (report_count, reserve) = lines.count("reports", MIN_SCHEME_BLOCK)?;
    if report_count == 0 && step.value().to_bits() != 0 {
        return Err(malformed("a cell without reports must carry a zero step"));
    }
    let mut reports = Vec::with_capacity(reserve);
    for _ in 0..report_count {
        let scheme = lines.rest("scheme")?.to_owned();
        let switches = lines.usize("switches")?;
        let mut fields = lines.fields("runtime", 4, "runtime");
        let runtime = RuntimeStats::from_parts(
            Seconds::new(fields.hex()?),
            Seconds::new(fields.hex()?),
            fields.usize("runtime invocations is not an integer")?,
            fields.usize("runtime faulted count is not an integer")?,
        );
        let (record_count, reserve) = lines.count("records", MIN_RECORD_LINE)?;
        let mut records = Vec::with_capacity(reserve);
        for _ in 0..record_count {
            let mut r = lines.fields("r", 11, "record");
            let time = Seconds::new(r.hex()?);
            let array = Watts::new(r.hex()?);
            let net = Watts::new(r.hex()?);
            let delivered = Watts::new(r.hex()?);
            let ideal = Watts::new(r.hex()?);
            let groups = r.usize("record group count is not an integer")?;
            let switched = r.flag("record switched flag")?;
            let overhead = Joules::new(r.hex()?);
            let comp = Seconds::new(r.hex()?);
            let record = StepRecord::new(
                time, array, net, delivered, ideal, groups, switched, overhead, comp,
            )
            .with_faults(
                r.usize("record fault count is not an integer")?,
                r.usize("record event count is not an integer")?,
            );
            records.push(record);
        }
        reports.push(SimulationReport::new(
            scheme, records, step, switches, runtime,
        ));
    }
    if !lines.rest.is_empty() {
        return Err(malformed(format!(
            "line {}: trailing data after the last record",
            lines.line_no + 1
        )));
    }
    let key = CellKey::from_parts(index, modules, seed, drive, variation, fault, lineup);
    Ok(SweepCellReport::from_parts(
        key,
        ComparisonReport::from_reports(reports),
    ))
}

/// Test support shared by the codec and journal tests: the `format!`
/// encoder the one-pass writer replaced, kept as the byte reference, and
/// generators for real and synthetic cells.
#[cfg(test)]
pub(crate) mod testkit {
    use std::sync::OnceLock;

    use teg_sim::{GridSpec, RuntimePolicy, SweepRunner};

    use super::*;

    fn reference_hex(value: f64) -> String {
        format!("{:016x}", value.to_bits())
    }

    /// The original encoder: one `format!` per field and per line.
    pub(crate) fn reference_encode(cell: &SweepCellReport) -> String {
        let key = cell.key();
        let mut out = String::new();
        out.push_str(&format!("cell {}\n", key.index()));
        out.push_str(&format!("modules {}\n", key.module_count()));
        out.push_str(&format!("seed {}\n", key.seed()));
        out.push_str(&format!("variation {}\n", key.variation()));
        out.push_str(&format!("drive {}\n", key.drive()));
        out.push_str(&format!("fault {}\n", key.fault()));
        out.push_str(&format!("lineup {}\n", key.lineup()));
        let reports = cell.report().reports();
        let step = reports.first().map(|r| r.step()).unwrap_or(Seconds::ZERO);
        out.push_str(&format!("step {}\n", reference_hex(step.value())));
        out.push_str(&format!("reports {}\n", reports.len()));
        for report in reports {
            out.push_str(&format!("scheme {}\n", report.scheme()));
            out.push_str(&format!("switches {}\n", report.switch_count()));
            let rt = report.runtime();
            out.push_str(&format!(
                "runtime {} {} {} {}\n",
                reference_hex(rt.total().value()),
                reference_hex(rt.max().value()),
                rt.invocations(),
                rt.faulted_invocations(),
            ));
            out.push_str(&format!("records {}\n", report.records().len()));
            for r in report.records() {
                out.push_str(&format!(
                    "r {} {} {} {} {} {} {} {} {} {} {}\n",
                    reference_hex(r.time().value()),
                    reference_hex(r.array_power().value()),
                    reference_hex(r.net_power().value()),
                    reference_hex(r.delivered_power().value()),
                    reference_hex(r.ideal_power().value()),
                    r.group_count(),
                    u8::from(r.switched()),
                    reference_hex(r.overhead_energy().value()),
                    reference_hex(r.computation().value()),
                    r.faults_active(),
                    r.fault_events(),
                ));
            }
        }
        out
    }

    /// Cells of a small fixed-seed grid with a fault axis, so fault counts
    /// are non-zero; solved once per test binary.
    pub(crate) fn faulted_cells() -> &'static [SweepCellReport] {
        static CELLS: OnceLock<Vec<SweepCellReport>> = OnceLock::new();
        CELLS.get_or_init(|| {
            let grid = GridSpec::parse(
                "modules=6|seeds=4|drive=city:8|var=none\
                 |fault=healthy,random:severe:severe|lineup=paper-fixed:0.002",
            )
            .unwrap()
            .to_grid()
            .unwrap();
            SweepRunner::new()
                .workers(1)
                .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)))
                .run(&grid)
                .unwrap()
                .cells()
                .to_vec()
        })
    }

    /// SplitMix64: a small seeded generator for synthetic inputs.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        pub(crate) fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    /// Bit patterns a text encoding could plausibly mangle.
    pub(crate) const AWKWARD_BITS: [u64; 14] = [
        0x0000_0000_0000_0000, // +0
        0x8000_0000_0000_0000, // -0
        0x0000_0000_0000_0001, // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x800f_ffff_ffff_ffff, // negative subnormal
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN
        0x7ff8_dead_beef_cafe, // NaN with payload bits
        0xfff8_0000_0000_0042, // negative NaN with payload bits
        0x7fef_ffff_ffff_ffff, // f64::MAX
        0x3ff0_0000_0000_0000, // 1.0
        0x0010_0000_0000_0000, // f64::MIN_POSITIVE
    ];

    /// Labels with spaces, multi-byte UTF-8, backslashes and carriage
    /// returns (anything but a newline fits the grammar).
    pub(crate) const LABELS: [&str; 9] = [
        "",
        "city",
        "city drive",
        " padded  twice ",
        "ünïcødé ✓ 熱電",
        "emoji 🚗💨",
        "back\\slash \\n",
        "cr\r",
        "tab\there",
    ];

    pub(crate) fn f64_sample(rng: &mut Rng) -> f64 {
        if rng.below(2) == 0 {
            f64::from_bits(rng.pick(&AWKWARD_BITS))
        } else {
            f64::from_bits(rng.next())
        }
    }

    pub(crate) fn count_sample(rng: &mut Rng) -> usize {
        match rng.below(6) {
            0 => usize::MAX,
            1 => usize::MAX - 1,
            2 => rng.next() as usize,
            3 => rng.pick(&[0, 1, 9, 10, 99, 100]),
            _ => rng.below(1000),
        }
    }

    /// A synthetic cell exercising every field with awkward values.
    pub(crate) fn synthetic_cell(rng: &mut Rng) -> SweepCellReport {
        let step = Seconds::new(f64_sample(rng));
        let reports = (0..rng.below(4))
            .map(|_| {
                let records = (0..rng.below(6))
                    .map(|_| {
                        StepRecord::new(
                            Seconds::new(f64_sample(rng)),
                            Watts::new(f64_sample(rng)),
                            Watts::new(f64_sample(rng)),
                            Watts::new(f64_sample(rng)),
                            Watts::new(f64_sample(rng)),
                            count_sample(rng),
                            rng.below(2) == 1,
                            Joules::new(f64_sample(rng)),
                            Seconds::new(f64_sample(rng)),
                        )
                        .with_faults(count_sample(rng), count_sample(rng))
                    })
                    .collect();
                let runtime = RuntimeStats::from_parts(
                    Seconds::new(f64_sample(rng)),
                    Seconds::new(f64_sample(rng)),
                    count_sample(rng),
                    count_sample(rng),
                );
                SimulationReport::new(rng.pick(&LABELS), records, step, count_sample(rng), runtime)
            })
            .collect();
        let key = CellKey::from_parts(
            count_sample(rng),
            count_sample(rng),
            rng.next(),
            rng.pick(&LABELS),
            count_sample(rng),
            rng.pick(&LABELS),
            rng.pick(&LABELS),
        );
        SweepCellReport::from_parts(key, ComparisonReport::from_reports(reports))
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use proptest::prelude::*;
    use teg_sim::{RuntimePolicy, ScenarioGrid, SchemeLineup, SweepRunner};

    fn sample_cells() -> Vec<SweepCellReport> {
        let grid = ScenarioGrid::builder()
            .module_counts([6])
            .seeds([3])
            .duration_seconds(8)
            .lineups([SchemeLineup::parse("paper-fixed:0.002").unwrap()])
            .build()
            .unwrap();
        let report = SweepRunner::new()
            .workers(1)
            .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)))
            .run(&grid)
            .unwrap();
        report.cells().to_vec()
    }

    #[test]
    fn f64_hex_is_bit_exact_for_awkward_values() {
        for v in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            6.02e23,
        ] {
            let decoded = parse_f64_hex(&f64_hex(v)).unwrap();
            assert_eq!(v.to_bits(), decoded.to_bits(), "{v}");
        }
        let nan = parse_f64_hex(&f64_hex(f64::NAN)).unwrap();
        assert_eq!(f64::NAN.to_bits(), nan.to_bits());
        assert!(parse_f64_hex("xyz").is_err());
        assert!(parse_f64_hex("00").is_err());
        assert!(parse_f64_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn real_cells_round_trip_bit_identically() {
        for cell in sample_cells() {
            let payload = encode_cell(&cell);
            let decoded = decode_cell(&payload).unwrap();
            assert_eq!(decoded, cell);
            // And re-encoding is byte-identical — the stream is canonical.
            assert_eq!(encode_cell(&decoded), payload);
        }
    }

    #[test]
    fn malformed_payloads_name_the_problem() {
        let cell = &sample_cells()[0];
        let good = encode_cell(cell);
        for (broken, needle) in [
            (String::from("cell zero\n"), "not an integer"),
            (String::from("bogus 0\n"), "expected `cell"),
            (good.replace("reports 4", "reports 9"), "payload ended"),
            (good.replacen("r ", "r 0123456789abcdef ", 1), "too many"),
            (String::new(), "payload ended"),
        ] {
            let err = decode_cell(&broken).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    fn decode_err(payload: &str) -> String {
        match decode_cell(payload) {
            Ok(_) => panic!("decoded a non-canonical payload:\n{payload}"),
            Err(err) => err.to_string(),
        }
    }

    #[test]
    fn hex_fields_accept_only_sixteen_lowercase_digits() {
        assert_eq!(parse_f64_hex("3ff0000000000000").unwrap(), 1.0);
        for token in [
            "+3ff000000000000",
            "-3ff000000000000",
            "3FF0000000000000",
            "3ff000000000000A",
            " 3ff000000000000",
            "3ff000000000000 ",
            "3ff000000000000g",
            "3ff00000000000000",
            "3ff00000000000ü",
            "",
        ] {
            let err = parse_f64_hex(token).unwrap_err();
            assert!(
                err.to_string().contains("bad f64 hex token"),
                "{token}: {err}"
            );
        }
    }

    #[test]
    fn decimal_fields_accept_only_canonical_unsigned_digits() {
        assert_eq!(parse_decimal("0"), Some(0));
        assert_eq!(parse_decimal("10"), Some(10));
        assert_eq!(parse_decimal("18446744073709551615"), Some(u64::MAX));
        for token in [
            "",
            "+5",
            "-5",
            "05",
            "00",
            " 5",
            "5 ",
            "5a",
            "18446744073709551616",
        ] {
            assert_eq!(parse_decimal(token), None, "{token}");
        }
    }

    #[test]
    fn non_canonical_payloads_are_refused_by_name() {
        let good = encode_cell(&faulted_cells()[1]);
        assert!(good.contains("\nmodules 6\n"));
        let first_record = good.find("\nr ").unwrap() + 1;
        let record_end = first_record + good[first_record..].find('\n').unwrap();
        let record = &good[first_record..record_end];
        let with_record = |new: &str| good.replacen(record, new, 1);
        let upper_hex = format!("r {}", record[2..].to_uppercase());
        assert_ne!(upper_hex, record, "the pinned record has hex letters");
        let fields: Vec<&str> = record.split(' ').collect();
        let with_field = |at: usize, value: &str| {
            let mut fields = fields.clone();
            fields[at] = value;
            with_record(&fields.join(" "))
        };
        for (broken, needle) in [
            (
                good.replacen("modules 6", "modules +6", 1),
                "not an integer",
            ),
            (
                good.replacen("modules 6", "modules 06", 1),
                "not an integer",
            ),
            (good.replacen("seed 4", "seed +4", 1), "not an integer"),
            (good.replacen("step 3ff", "step 3FF", 1), "bad f64 hex"),
            (good.replacen("step 3", "step +", 1), "bad f64 hex"),
            (with_record(&upper_hex), "bad f64 hex"),
            (with_field(6, "+1"), "group count"),
            (with_field(6, "03"), "group count"),
            (with_field(10, "+0"), "fault count"),
            (with_field(11, "00"), "event count"),
            (with_field(7, "2"), "switched flag `2`"),
            (with_record(&fields[..11].join(" ")), "too few fields"),
            (with_record(&format!("{record} ")), "too many fields"),
            (with_record(&record.replacen("r ", "q ", 1)), "expected `r"),
            (
                good.replacen("runtime 3", "runtime 3 ", 1),
                "too many fields",
            ),
            (good.replace('\n', "\r\n"), "not an integer"),
            (
                good.trim_end_matches('\n').to_owned(),
                "not newline-terminated",
            ),
            (format!("{good}\n"), "trailing data"),
            (format!("{good}r 0\n"), "trailing data"),
            (
                good.replacen("drive city\n", "drive\n", 1),
                "expected `drive",
            ),
            (
                "cell 0\nmodules 6\nseed 1\nvariation 0\ndrive d\nfault f\nlineup l\n\
                 step 3ff0000000000000\nreports 0\n"
                    .to_owned(),
                "zero step",
            ),
        ] {
            let err = decode_err(&broken);
            assert!(err.contains(needle), "expected `{needle}`, got `{err}`");
        }
    }

    #[test]
    fn hostile_counts_cannot_reserve_beyond_the_payload() {
        let header = "cell 0\nmodules 6\nseed 1\nvariation 0\ndrive d\nfault f\nlineup l\n\
                      step 3ff0000000000000\n";
        let huge = format!("{header}reports {}\n", usize::MAX);
        assert!(decode_err(&huge).contains("payload ended"));
        let huge = format!(
            "{header}reports 1\nscheme s\nswitches 0\n\
             runtime 0000000000000000 0000000000000000 0 0\nrecords {}\n",
            usize::MAX
        );
        assert!(decode_err(&huge).contains("payload ended"));
    }

    #[test]
    fn real_faulted_cells_encode_like_the_reference() {
        assert!(faulted_cells()
            .iter()
            .flat_map(|c| c.report().reports())
            .flat_map(|r| r.records())
            .any(|r| r.faults_active() > 0));
        for cell in faulted_cells() {
            assert_eq!(encode_cell(cell), reference_encode(cell));
        }
    }

    proptest! {
        #[test]
        fn encoding_matches_the_format_reference_on_synthetic_cells(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            for _ in 0..4 {
                let cell = synthetic_cell(&mut rng);
                let payload = encode_cell(&cell);
                prop_assert_eq!(&payload, &reference_encode(&cell));
                prop_assert!(payload.len() <= encoded_len_bound(&cell), "buffer outgrown");
                // NaN fields defeat `PartialEq`, so the round trip is checked
                // on the bytes: the decoded cell re-encodes to the payload.
                let decoded = decode_cell(&payload).unwrap();
                prop_assert_eq!(encode_cell(&decoded), payload);
            }
        }

        #[test]
        fn hex_fields_match_the_reference_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = Rng(seed);
            for _ in 0..64 {
                let value = f64_sample(&mut rng);
                let hex = f64_hex(value);
                prop_assert_eq!(&hex, &format!("{:016x}", value.to_bits()));
                prop_assert_eq!(parse_f64_hex(&hex).unwrap().to_bits(), value.to_bits());
            }
        }

        #[test]
        fn hex_parsing_matches_a_lowercase_only_radix_parse(seed in 0u64..u64::MAX) {
            const ALPHABET: &[u8] = b"0123456789abcdef0123456789abcdefABCDEFgxz+- /:@`\n";
            let mut rng = Rng(seed);
            for _ in 0..64 {
                let mut token: Vec<u8> = format!("{:016x}", rng.next()).into_bytes();
                for _ in 0..rng.below(3) {
                    let at = rng.below(16);
                    token[at] = rng.pick(ALPHABET);
                }
                let token = String::from_utf8(token).unwrap();
                let canonical = token.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
                let expected = canonical.then(|| u64::from_str_radix(&token, 16).unwrap());
                prop_assert_eq!(parse_f64_hex(&token).ok().map(f64::to_bits), expected, "{}", token);
            }
        }

        #[test]
        fn mutated_payloads_decode_only_to_themselves(seed in 0u64..u64::MAX) {
            const ALPHABET: &[u8] = b"0123456789abcdef0123456789abcdefAF+- \n\rrx";
            let mut rng = Rng(seed);
            let cells = faulted_cells();
            let mut accepted = 0;
            for _ in 0..32 {
                let mut bytes = encode_cell(&cells[rng.below(cells.len())]).into_bytes();
                for _ in 0..1 + rng.below(2) {
                    let at = rng.below(bytes.len());
                    match rng.below(4) {
                        0 | 1 => bytes[at] = rng.pick(ALPHABET),
                        2 => bytes.insert(at, rng.pick(ALPHABET)),
                        _ => {
                            bytes.remove(at);
                        }
                    }
                }
                let payload = String::from_utf8(bytes).unwrap();
                if let Ok(cell) = decode_cell(&payload) {
                    prop_assert_eq!(encode_cell(&cell), payload);
                    accepted += 1;
                }
            }
            prop_assert!(accepted > 0, "no mutation decoded; the property checked nothing");
        }
    }
}
