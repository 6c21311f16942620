//! Compact, dependency-free binary codec for WAL records and snapshots.
//!
//! The wire format is non-self-describing and fixed by convention:
//!
//! - integers are fixed-width little-endian (`u8`/`u16`/`u32`/`u64`/`i64`);
//! - `f64` is its IEEE-754 bit pattern as a `u64` (NaN payloads survive);
//! - `bool` is one byte, `0` or `1`;
//! - strings and byte slices are a `u64` length prefix followed by raw
//!   bytes; sequences and maps are a `u64` element count followed by the
//!   elements in order;
//! - `Option<T>` is a tag byte (`0` = `None`, `1` = `Some`) then the value;
//! - enums are a `u32` variant index chosen by the hand-written codec.
//!
//! Encoders push onto a [`Writer`]; decoders pull from a [`Reader`] that
//! bounds-checks every read, so truncated or bit-flipped input yields a
//! [`BinError`], never a panic or an out-of-bounds slice. Length prefixes
//! are sanity-checked against the bytes actually remaining, so a corrupted
//! length cannot trigger a pathological allocation. Both ends must agree
//! on the type — there are no field names or type markers in the stream,
//! which is exactly why every durable artifact carrying one of these
//! payloads also carries a CRC and a format version.

use std::fmt;

/// Decode (or encode-invariant) failure. Carries a human-readable reason;
/// callers treat any `BinError` as "this record/snapshot is unusable".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError(pub String);

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary codec error: {}", self.0)
    }
}

impl std::error::Error for BinError {}

impl BinError {
    /// Builds an error from any message.
    pub fn msg(m: impl Into<String>) -> Self {
        Self(m.into())
    }
}

/// Codec result.
pub type Result<T> = std::result::Result<T, BinError>;

/// Append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` by IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// `usize` travels as `u64` so the format is identical across targets.
    pub fn usize(&mut self, v: usize) {
        // lint:allow(truncation) usize is at most 64 bits on every
        // supported target, so this widens; it is the one sanctioned
        // usize->u64 conversion in the format layer.
        self.u64(v as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed bytes that `write` encodes in place: the wire form
    /// of [`Writer::bytes`] over what `write` pushes, without building
    /// those bytes apart and copying them in. The prefix is reserved,
    /// then filled once `write` returns.
    pub fn nested(&mut self, write: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u64(0);
        write(self);
        let len = u64::try_from(self.buf.len() - at - 8).unwrap_or(u64::MAX);
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Sequence element count; the caller then encodes each element.
    pub fn seq_len(&mut self, n: usize) {
        self.usize(n);
    }

    /// Option tag; the caller encodes the value after a `true` tag.
    pub fn opt_tag(&mut self, present: bool) {
        self.u8(u8::from(present));
    }

    /// Enum variant index.
    pub fn variant(&mut self, idx: u32) {
        self.u32(idx);
    }
}

/// Bounds-checked decode cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts the input was fully consumed — trailing bytes mean the
    /// payload does not match the expected schema.
    pub fn finish(self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(BinError::msg(format!(
                "{} trailing bytes after value",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(BinError::msg(format!(
                "unexpected end of input: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Exactly `N` bytes as a fixed array (for the `from_le_bytes`
    /// decoders below; the copy cannot fail once `take` has bounds-checked
    /// the read).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// `i64`, little-endian.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// `f64` by IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `bool` from one byte; any value other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BinError::msg(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// `usize` from its `u64` wire form.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| BinError::msg(format!("usize overflow: {v}")))
    }

    /// Decodes a length prefix, rejecting values that could not possibly
    /// be satisfied by the remaining input (every element is at least one
    /// byte on the wire, so `len > remaining` is always corrupt).
    pub fn seq_len(&mut self) -> Result<usize> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(BinError::msg(format!(
                "implausible length {n} with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|e| BinError::msg(format!("invalid utf-8: {e}")))
    }

    /// Option tag byte; `true` means a value follows.
    pub fn opt_tag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BinError::msg(format!("invalid option tag {b:#04x}"))),
        }
    }

    /// Enum variant index.
    pub fn variant(&mut self) -> Result<u32> {
        self.u32()
    }
}

/// Copies the `N` bytes at `off` out of a header buffer, for the
/// `from_le_bytes` decoders in `wal` and `snapshot`. Offsets and widths
/// are compile-time constants at every call site, inside fixed-size
/// headers that were filled by `read_exact`, so the slice arithmetic
/// cannot go out of bounds at runtime.
pub(crate) fn field<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[off..off + N]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded() -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 7);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.bool(true);
        w.str("datacron");
        w.bytes(&[1, 2, 3]);
        w.opt_tag(false);
        w.opt_tag(true);
        w.u32(99);
        w.variant(2);
        w.into_bytes()
    }

    #[test]
    fn primitives_round_trip() {
        let bytes = encoded();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "datacron");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(!r.opt_tag().unwrap());
        assert!(r.opt_tag().unwrap());
        assert_eq!(r.u32().unwrap(), 99);
        assert_eq!(r.variant().unwrap(), 2);
        r.finish().unwrap();
    }

    #[test]
    fn nested_writes_the_bytes_wire_form() {
        let mut apart = Writer::new();
        apart.u8(7);
        apart.bytes(&[1, 2, 3, 4, 5]);
        apart.bytes(&[]);
        let mut nested = Writer::new();
        nested.u8(7);
        nested.nested(|w| {
            w.u8(1);
            w.u32(u32::from_le_bytes([2, 3, 4, 5]));
        });
        nested.nested(|_| {});
        assert_eq!(nested.into_bytes(), apart.into_bytes());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut w = Writer::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = r.f64().unwrap();
        assert!(back.is_nan());
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncation_at_every_cut_errors_not_panics() {
        let bytes = encoded();
        for cut in 0..bytes.len() {
            let slice = &bytes[..cut];
            let mut r = Reader::new(slice);
            let res: Result<()> = (|| {
                r.u8()?;
                r.u16()?;
                r.u32()?;
                r.u64()?;
                r.i64()?;
                r.f64()?;
                r.bool()?;
                r.string()?;
                r.bytes()?;
                r.opt_tag()?;
                r.opt_tag()?;
                r.u32()?;
                r.variant()?;
                Ok(())
            })();
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u32(7);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        assert!(r.finish().is_err());
    }

    #[test]
    fn implausible_length_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 2); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.bytes().is_err());
        let mut r = Reader::new(&bytes);
        assert!(r.seq_len().is_err());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let bytes = [7u8];
        let mut r = Reader::new(&bytes);
        assert!(r.bool().is_err());
        let mut r = Reader::new(&bytes);
        assert!(r.opt_tag().is_err());
    }

    #[test]
    fn empty_input_finishes_clean() {
        Reader::new(&[]).finish().unwrap();
    }
}
