//! Canonical snapshot codec: sectioned `key=value` text with an FNV-1a
//! fingerprint over the exact bytes.
//!
//! Snapshots exist so replay can be O(journal tail) instead of O(journal):
//! a run serializes its full state at a watermark, and a restart restores
//! the state and folds only the records above it. For that to be *provably*
//! equivalent to from-scratch replay, the serialization must be canonical —
//! one state, one byte string — so equality of state reduces to equality of
//! one `u64` fingerprint, the same reduction the journal itself uses.
//!
//! The format is deliberately primitive: UTF-8 lines, `[section]` headers,
//! `key=value` pairs in a fixed order chosen by the writer. The reader is
//! *strict* — it demands exactly the keys the writer emitted, in order, and
//! numbers only in the one form the writer prints them (no `+`, no leading
//! zero, no `-0`, hex digits lower-case and 16 wide) — because a lenient
//! reader would accept byte strings the writer never produces, and then
//! "restored fingerprint == snapshot fingerprint" would stop implying "same
//! state". Floats travel as exact bit patterns (`{:016x}` of
//! `f64::to_bits`), never decimal, for the same reason.
//!
//! The writer allocates nothing per value: digits go straight into its
//! buffer, and a key with nothing to escape is one copy.
//!
//! Nothing here panics: the writer is infallible by construction and the
//! reader returns `Err(String)` on any malformed input, so a corrupted
//! snapshot file degrades into a diagnosable restore error, not a crash.

use crate::fnv::Fnv;

/// Builds a canonical snapshot string and its fingerprint.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: String,
}

impl SnapWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        SnapWriter { buf: String::new() }
    }

    /// Start a `[name]` section. Names must not contain `]` or newlines;
    /// offending characters are escaped like string values so the line
    /// structure survives arbitrary input.
    pub fn section(&mut self, name: &str) {
        self.buf.push('[');
        push_escaped(&mut self.buf, name);
        self.buf.push_str("]\n");
    }

    /// Write `key=<decimal u64>`.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        push_decimal(&mut self.buf, v);
        self.buf.push('\n');
    }

    /// Write `key=<decimal i64>`.
    pub fn i64(&mut self, key: &str, v: i64) {
        self.key(key);
        if v < 0 {
            self.buf.push('-');
        }
        push_decimal(&mut self.buf, v.unsigned_abs());
        self.buf.push('\n');
    }

    /// Write an `f64` as its exact bit pattern (`{:016x}`), so restore is
    /// bit-identical and no decimal rounding can perturb a fingerprint.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        let mut bits = v.to_bits();
        let mut hex = [b'0'; 16];
        for d in hex.iter_mut().rev() {
            // A nibble is below 16, so the cast is lossless.
            let nibble = (bits & 0xf) as u8;
            *d = if nibble < 10 {
                b'0' + nibble
            } else {
                b'a' - 10 + nibble
            };
            bits >>= 4;
        }
        // Sixteen ASCII hex digits are UTF-8, so this never skips; one
        // `push_str` beats sixteen `push`es.
        if let Ok(hex) = std::str::from_utf8(&hex) {
            self.buf.push_str(hex);
        }
        self.buf.push('\n');
    }

    /// Write a bool as `0`/`1`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.u64(key, u64::from(v));
    }

    /// Write a string with `\\`, `\n`, `\r` escaped so values stay on one
    /// line and decode losslessly.
    pub fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        push_escaped(&mut self.buf, v);
        self.buf.push('\n');
    }

    /// Append text another `SnapWriter` produced, byte for byte: a cached
    /// section. Canonical input stays canonical only if `text` is exactly
    /// what the writer would emit here; callers that cache keep a debug
    /// check of that.
    pub fn append(&mut self, text: &str) {
        self.buf.push_str(text);
    }

    /// FNV-1a fingerprint of the bytes written so far.
    pub fn fingerprint(&self) -> u64 {
        Fnv::new().write_bytes(self.buf.as_bytes()).finish()
    }

    /// The canonical snapshot text.
    pub fn finish(self) -> String {
        self.buf
    }

    fn key(&mut self, key: &str) {
        push_escaped(&mut self.buf, key);
        self.buf.push('=');
    }
}

/// Append the decimal digits of `v` (what `v.to_string()` writes) without
/// allocating: the digits fill a stack array from its end.
fn push_decimal(buf: &mut String, mut v: u64) {
    let mut digits = [b'0'; 20];
    let mut len = 0;
    for d in digits.iter_mut().rev() {
        // A remainder mod 10 is below 10, so the cast is lossless.
        *d = b'0' + (v % 10) as u8;
        v /= 10;
        len += 1;
        if v == 0 {
            break;
        }
    }
    buf.extend(
        digits
            .iter()
            .skip(digits.len() - len)
            .map(|&d| char::from(d)),
    );
}

/// The escape sequence of a byte that needs one. Every escaped character
/// is ASCII, so a byte found this way sits on a char boundary.
fn escape(b: u8) -> Option<&'static str> {
    match b {
        b'\\' => Some("\\\\"),
        b'\n' => Some("\\n"),
        b'\r' => Some("\\r"),
        b']' => Some("\\b"),
        b'=' => Some("\\e"),
        _ => None,
    }
}

/// Append `s` with `\\`, `\n`, `\r`, `]` and `=` escaped. The runs between
/// escapes go in one `push_str` each, so a plain key is one copy.
fn push_escaped(buf: &mut String, s: &str) {
    let mut rest = s;
    while let Some((at, esc)) = rest
        .bytes()
        .enumerate()
        .find_map(|(i, b)| Some((i, escape(b)?)))
    {
        let (plain, tail) = rest.split_at(at);
        buf.push_str(plain);
        buf.push_str(esc);
        rest = tail.get(1..).unwrap_or_default();
    }
    buf.push_str(rest);
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('b') => out.push(']'),
            Some('e') => out.push('='),
            other => return Err(format!("snap: bad escape \\{:?}", other)),
        }
    }
    Ok(out)
}

/// Whether `v` is a decimal the writer emits: ASCII digits only, and no
/// leading zero unless `v` is `0`.
fn is_canonical_decimal(v: &str) -> bool {
    !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) && (v == "0" || !v.starts_with('0'))
}

/// The value of `v` if it is exactly 16 lower-case hex digits, the one
/// form the writer prints a bit pattern or a fingerprint in.
fn parse_hex16(v: &str) -> Option<u64> {
    let canonical = v.len() == 16 && v.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    u64::from_str_radix(v, 16).ok().filter(|_| canonical)
}

/// Strict sequential reader over a [`SnapWriter`]-produced string.
///
/// Every accessor demands the *next* line match the expected shape
/// (section header or `key=value` with the expected key); any deviation is
/// an error naming the line, so truncation, reordering, and hand-edits are
/// all caught before a half-restored state can leak out. Lines end in `\n`
/// alone, as the writer ends them: a line holding a `\r` is refused.
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// The input after the last line consumed.
    rest: &'a str,
    /// 1-based line number of the last line consumed.
    line_no: usize,
}

impl<'a> SnapReader<'a> {
    /// Read `text` from the start.
    pub fn new(text: &'a str) -> Self {
        SnapReader {
            rest: text,
            line_no: 0,
        }
    }

    fn next_line(&mut self) -> Result<&'a str, String> {
        self.line_no += 1;
        if self.rest.is_empty() {
            return Err(format!(
                "snap: unexpected end of input at line {}",
                self.line_no
            ));
        }
        // One pass finds the end of the line, or a `\r` before it.
        let end = self.rest.bytes().position(|b| b == b'\n' || b == b'\r');
        let (line, tail) = self.rest.split_at(end.unwrap_or(self.rest.len()));
        self.rest = match tail.strip_prefix('\n') {
            Some(next) => next,
            None if tail.is_empty() => tail,
            None => {
                return Err(format!(
                    "snap: line {}: carriage return after {line:?} (the writer ends lines with \\n alone)",
                    self.line_no
                ))
            }
        };
        Ok(line)
    }

    /// Expect a `[name]` section header.
    pub fn section(&mut self, name: &str) -> Result<(), String> {
        let line = self.next_line()?;
        let inner = line
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| {
                format!(
                    "snap: line {}: expected section [{name}], got {line:?}",
                    self.line_no
                )
            })?;
        let got = unescape(inner)?;
        if got != name {
            return Err(format!(
                "snap: line {}: expected section [{name}], got [{got}]",
                self.line_no
            ));
        }
        Ok(())
    }

    fn value(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self.next_line()?;
        let (k, v) = line.split_once('=').ok_or_else(|| {
            format!(
                "snap: line {}: expected {key}=..., got {line:?}",
                self.line_no
            )
        })?;
        let got = unescape(k)?;
        if got != key {
            return Err(format!(
                "snap: line {}: expected key {key}, got {got}",
                self.line_no
            ));
        }
        Ok(v)
    }

    /// Read `key=<decimal u64>` in the writer's form: no sign, no
    /// leading zero.
    pub fn u64(&mut self, key: &str) -> Result<u64, String> {
        let v = self.value(key)?;
        match v.parse::<u64>() {
            Ok(n) if is_canonical_decimal(v) => Ok(n),
            _ => Err(self.bad(key, "u64", v)),
        }
    }

    /// Read `key=<decimal i64>` in the writer's form: no `+`, no leading
    /// zero, and no `-0`.
    pub fn i64(&mut self, key: &str) -> Result<i64, String> {
        let v = self.value(key)?;
        let canonical = match v.strip_prefix('-') {
            Some(magnitude) => magnitude != "0" && is_canonical_decimal(magnitude),
            None => is_canonical_decimal(v),
        };
        match v.parse::<i64>() {
            Ok(n) if canonical => Ok(n),
            _ => Err(self.bad(key, "i64", v)),
        }
    }

    /// Read an `f64` stored as its `{:016x}` bit pattern: exactly 16
    /// lower-case hex digits.
    pub fn f64(&mut self, key: &str) -> Result<f64, String> {
        let v = self.value(key)?;
        match parse_hex16(v) {
            Some(bits) => Ok(f64::from_bits(bits)),
            None => Err(self.bad(key, "f64 bits", v)),
        }
    }

    /// Read a bool stored as `0`/`1`.
    pub fn bool(&mut self, key: &str) -> Result<bool, String> {
        match self.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(format!("snap: line {}: {key}: bad bool {n}", self.line_no)),
        }
    }

    /// Read an escaped string value.
    pub fn str(&mut self, key: &str) -> Result<String, String> {
        let v = self.value(key)?;
        unescape(v)
    }

    fn bad(&self, key: &str, kind: &str, v: &str) -> String {
        format!(
            "snap: line {}: {key}: bad {kind} {v:?} (not the writer's canonical form)",
            self.line_no
        )
    }

    /// Expect end of input — trailing garbage is as fatal as truncation.
    pub fn done(&mut self) -> Result<(), String> {
        if self.rest.is_empty() {
            return Ok(());
        }
        let line = self
            .rest
            .split_once('\n')
            .map_or(self.rest, |(line, _)| line);
        Err(format!(
            "snap: line {}: trailing content {line:?}",
            self.line_no + 1
        ))
    }
}

/// FNV-1a fingerprint of a snapshot string (equals
/// [`SnapWriter::fingerprint`] of the writer that produced it).
pub fn fingerprint(text: &str) -> u64 {
    Fnv::new().write_bytes(text.as_bytes()).finish()
}

/// Frame `body` as a self-describing artifact: a `<tag> fnv=<16 hex>`
/// header line carrying the body's [`fingerprint`], then the body, so
/// truncation or tampering is caught before any state is rebuilt.
pub fn seal(tag: &str, body: &str) -> String {
    format!("{tag} fnv={:016x}\n{body}", fingerprint(body))
}

/// The body of a [`seal`]ed `tag` artifact. Like [`SnapReader`], it is
/// strict: the header must be exactly the line `seal` writes (no other
/// spacing, case, sign or width, no `\r`), and the body must match its
/// fingerprint. Every error names the expected tag.
pub fn open<'a>(tag: &str, text: &'a str) -> Result<&'a str, String> {
    let (head, body) = text
        .split_once('\n')
        .ok_or_else(|| format!("snap: expected a `{tag}` artifact, got no header line"))?;
    let fnv = head
        .strip_prefix(tag)
        .and_then(|rest| rest.strip_prefix(" fnv="))
        .and_then(parse_hex16)
        .ok_or_else(|| {
            format!("snap: expected a `{tag} fnv=<16 lower-case hex>` header, got {head:?}")
        })?;
    let got = fingerprint(body);
    if got != fnv {
        return Err(format!(
            "snap: `{tag}` body fingerprint {got:016x} does not match the header's {fnv:016x}"
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_scalar_kinds() {
        let mut w = SnapWriter::new();
        w.section("hdr");
        w.u64("n", 42);
        w.i64("d", -7);
        w.f64("x", -0.125);
        w.bool("on", true);
        w.str("name", "a=b\nc\\d]e");
        let fp = w.fingerprint();
        let text = w.finish();
        assert_eq!(fingerprint(&text), fp);

        let mut r = SnapReader::new(&text);
        r.section("hdr").expect("section");
        assert_eq!(r.u64("n").expect("n"), 42);
        assert_eq!(r.i64("d").expect("d"), -7);
        assert_eq!(r.f64("x").expect("x"), -0.125);
        assert!(r.bool("on").expect("on"));
        assert_eq!(r.str("name").expect("name"), "a=b\nc\\d]e");
        r.done().expect("done");
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1.0e300, f64::NAN] {
            let mut w = SnapWriter::new();
            w.f64("v", v);
            let text = w.finish();
            let got = SnapReader::new(&text).f64("v").expect("v");
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strict_reader_rejects_drift() {
        let mut w = SnapWriter::new();
        w.section("s");
        w.u64("a", 1);
        let text = w.finish();

        // Wrong section name.
        assert!(SnapReader::new(&text).section("t").is_err());
        // Wrong key.
        let mut r = SnapReader::new(&text);
        r.section("s").expect("section");
        assert!(r.u64("b").is_err());
        // Truncation.
        let mut r = SnapReader::new("[s]");
        r.section("s").expect("section");
        assert!(r.u64("a").is_err());
        // Trailing garbage.
        let mut extra = text.clone();
        extra.push_str("junk\n");
        let mut r2 = SnapReader::new(&extra);
        r2.section("s").expect("section");
        r2.u64("a").expect("a");
        assert!(r2.done().is_err());
        // Line endings the writer never prints: CRLF, or a stray `\r`.
        for (text, line) in [
            ("[s]\r\na=1\r\n", 1),
            ("[s]\na=1\r", 2),
            ("[s]\na=\r1\n", 2),
        ] {
            let mut r = SnapReader::new(text);
            let err = r.section("s").and_then(|()| r.u64("a")).expect_err(text);
            assert!(
                err.contains(&format!("line {line}: carriage return")),
                "{err}"
            );
        }
        // Numbers the writer never prints, most of which `str::parse` or
        // `from_str_radix` accepts.
        for line in ["queue=+8", "queue=08", "queue=", "queue=-0"] {
            let err = SnapReader::new(line).u64("queue").expect_err(line);
            assert!(err.contains("line 1: queue: bad u64"), "{err}");
        }
        for line in ["d=+7", "d=-07", "d=-0", "d=00", "d=-"] {
            let err = SnapReader::new(line).i64("d").expect_err(line);
            assert!(err.contains("line 1: d: bad i64"), "{err}");
        }
        for line in [
            "wait_lo=3FF0000000000000",
            "wait_lo=+3ff000000000000",
            "wait_lo=3ff",
            "wait_lo=03ff0000000000000",
        ] {
            let err = SnapReader::new(line).f64("wait_lo").expect_err(line);
            assert!(err.contains("line 1: wait_lo: bad f64 bits"), "{err}");
        }
        assert_eq!(SnapReader::new("d=-7").i64("d"), Ok(-7));
        assert_eq!(SnapReader::new("d=0").i64("d"), Ok(0));
        assert_eq!(SnapReader::new("queue=0").u64("queue"), Ok(0));
    }

    #[test]
    fn open_accepts_only_what_seal_writes() {
        let body = "[s]\na=1\n";
        let text = seal("demo v1", body);
        assert_eq!(
            text,
            format!("demo v1 fnv={:016x}\n{body}", fingerprint(body))
        );
        assert_eq!(open("demo v1", &text), Ok(body));
        let hex = format!("{:016x}", fingerprint(body));
        assert!(hex.bytes().any(|b| b.is_ascii_alphabetic()), "{hex}");
        for head in [
            format!("demo v1 fnv={}", hex.to_uppercase()),
            format!("demo v1 fnv=+{hex}"),
            format!("demo v1 fnv=0{hex}"),
            format!("demo v1 fnv={}", &hex[1..]),
            format!("demo v1 fnv={hex}  "),
            format!("demo v1 fnv={hex}\r"),
            format!("demo v1fnv={hex}"),
            format!("demo v1  fnv={hex}"),
            format!("demo v2 fnv={hex}"),
        ] {
            let err = open("demo v1", &format!("{head}\n{body}")).expect_err(&head);
            assert!(err.contains("`demo v1 fnv=<16 lower-case hex>`"), "{err}");
        }
        let err = open("demo v1", &format!("{text}x")).expect_err("edited body");
        assert!(err.contains("`demo v1` body fingerprint"), "{err}");
        let err = open("demo v1", "demo v1").expect_err("no header line");
        assert!(err.contains("`demo v1`"), "{err}");
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_byte() {
        let mut a = SnapWriter::new();
        a.u64("n", 1);
        let mut b = SnapWriter::new();
        b.u64("n", 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
