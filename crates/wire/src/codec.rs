//! Codec primitives: a hand-rolled little-endian writer/reader pair and
//! the [`Wire`] trait tying a Rust type to its wire form.
//!
//! Deliberately serde-free, matching the repository's no-external-deps
//! style: every encoding is explicit, so the byte layout *is* the
//! protocol specification (see DESIGN.md).
//!
//! Layout conventions:
//! * integers are little-endian, fixed width;
//! * `f64` is its IEEE-754 bit pattern, little-endian;
//! * `bool` is one byte, `0` or `1` — anything else is a decode error;
//! * `String` is a `u32` byte length followed by UTF-8 bytes;
//! * `Vec<T>` is a `u32` element count followed by the elements;
//! * `Option<T>` is a one-byte presence tag (`0`/`1`) then the value.

use crate::error::WireError;

/// Recursive wire values (policy requirement expressions) deeper than
/// this are rejected: a crafted frame must not be able to overflow the
/// decoder's stack.
pub const MAX_NESTING: u32 = 64;

/// Append-only encode buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// An empty writer with room for `bytes` before it has to grow.
    pub fn with_capacity(bytes: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, without consuming the writer.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Discard everything written, keeping the allocation — lets a hot
    /// path (batch assembly) reuse one buffer across frames.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Write one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i16`, little-endian two's complement.
    #[inline]
    pub fn put_i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a `bool` as one strict `0`/`1` byte.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with no length prefix (frame assembly only).
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrite 4 bytes at `at` with a little-endian `u32` (back-patching
    /// the frame length once the payload size is known).
    #[inline]
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The buffer itself, for an encoder that appends to a `Vec<u8>`
    /// (the flight recorder's telemetry bodies).
    #[inline]
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Encode a value via its [`Wire`] impl.
    #[inline]
    pub fn put<T: Wire>(&mut self, v: &T) {
        v.encode(self);
    }
}

/// Cursor over an encoded buffer. Every getter returns
/// [`WireError::Truncated`] instead of reading past the end.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Recursion depth of the value currently being decoded.
    depth: u32,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the buffer.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The sub-slice between two previously observed offsets. Out-of-range
    /// offsets yield an empty slice rather than a panic (offsets are
    /// supposed to come from [`WireReader::pos`], but a decoder must never
    /// be able to panic).
    #[inline]
    pub fn slice(&self, start: usize, end: usize) -> &'a [u8] {
        self.buf.get(start..end).unwrap_or(&[])
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `i16`.
    #[inline]
    pub fn get_i16(&mut self) -> Result<i16, WireError> {
        let b = self.take(2)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    /// Read an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a strict `0`/`1` boolean byte.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("bool byte not 0/1")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        Ok(self.get_str_ref()?.to_owned())
    }

    /// Read a length-prefixed UTF-8 string as a borrowed view into the
    /// underlying buffer — the zero-copy twin of [`WireReader::get_str`].
    #[inline]
    pub fn get_str_ref(&mut self) -> Result<&'a str, WireError> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// Read `n` raw bytes as a borrowed slice.
    #[inline]
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Decode a value via its [`Wire`] impl.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Enter one level of recursive decoding; errors past [`MAX_NESTING`].
    #[inline]
    pub fn descend(&mut self) -> Result<(), WireError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(WireError::BadValue("nesting exceeds MAX_NESTING"));
        }
        Ok(())
    }

    /// Leave one level of recursive decoding.
    #[inline]
    pub fn ascend(&mut self) {
        self.depth -= 1;
    }

    /// Assert the buffer was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// A type with a wire encoding. `decode` must accept any byte sequence
/// without panicking, returning a typed [`WireError`] on garbage.
pub trait Wire: Sized {
    /// Append this value to the writer.
    fn encode(&self, w: &mut WireWriter);
    /// Read one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_f64()
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::BadValue("Option tag not 0/1")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get_u32()? as usize;
        // A corrupt count must not drive a huge allocation before the
        // per-element reads hit Truncated: every element costs at least
        // one byte, so cap the preallocation at what the buffer can hold.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = WireWriter::new();
        v.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-1.25f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(String::from("hé🙂"));
        roundtrip(String::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((String::from("a"), 2.5f64));
    }

    #[test]
    fn nan_bit_pattern_preserved() {
        let mut w = WireWriter::new();
        f64::NAN.encode(&mut w);
        let bytes = w.into_vec();
        let back = f64::decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = WireWriter::new();
        String::from("hello").encode(&mut w);
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            let err = String::decode(&mut WireReader::new(&bytes[..cut]));
            assert!(matches!(err, Err(WireError::Truncated { .. })), "cut {cut}");
        }
    }

    #[test]
    fn bad_bool_and_option_tags() {
        assert_eq!(
            bool::decode(&mut WireReader::new(&[2])),
            Err(WireError::BadValue("bool byte not 0/1"))
        );
        assert_eq!(
            Option::<u64>::decode(&mut WireReader::new(&[9])),
            Err(WireError::BadValue("Option tag not 0/1"))
        );
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = WireWriter::new();
        w.put_u32(2);
        w.put_raw(&[0xff, 0xfe]);
        let bytes = w.into_vec();
        assert_eq!(
            String::decode(&mut WireReader::new(&bytes)),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    fn huge_vec_count_does_not_allocate() {
        // Count claims 1 billion elements; buffer holds none.
        let mut w = WireWriter::new();
        w.put_u32(1_000_000_000);
        let bytes = w.into_vec();
        let err = Vec::<u64>::decode(&mut WireReader::new(&bytes));
        assert!(matches!(err, Err(WireError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        true.encode(&mut w);
        w.put_u8(0xaa);
        let bytes = w.into_vec();
        let mut r = WireReader::new(&bytes);
        bool::decode(&mut r).unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }
}
