//! MSB-first bit-level writer/reader for the chunk codec.
//!
//! The codec emits variable-width fields (1-bit hold flags, 7–65-bit
//! zigzagged deltas, 1–64-bit XOR windows); this module packs them densely
//! into bytes. Writing is append-only; reading is a cursor over an
//! immutable byte slice. Both sides count bits, so a decoder can detect a
//! truncated stream instead of misreading past the end.

/// Append-only bit sink. Bits fill each byte from the most significant
/// position down, so the byte stream is a straight left-to-right
/// transcription of the bit stream.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0 when the stream is
    /// byte-aligned).
    used: u8,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.used == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.used as usize
        }
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("push_bit opened a byte");
            *last |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    /// Appends the low `n` bits of `value`, most significant first.
    /// `n` must be 1..=64.
    pub fn push_bits(&mut self, value: u64, n: u8) {
        debug_assert!((1..=64).contains(&n), "push_bits width {n}");
        for i in (0..n).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Finishes the stream, returning the packed bytes (final byte
    /// zero-padded) and the exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        let bits = self.bit_len();
        (self.bytes, bits)
    }
}

/// Cursor over a packed bit stream.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position of the cursor.
    pos: usize,
    /// Total valid bits (the writer's `bit_len`).
    len: usize,
}

impl<'a> BitReader<'a> {
    /// A cursor over `len` valid bits of `bytes`.
    pub fn new(bytes: &'a [u8], len: usize) -> Self {
        BitReader { bytes, pos: 0, len }
    }

    /// A cursor at bit `pos` over `len` valid bits of `bytes` — how a
    /// decoder resumes mid-stream from a restart point.
    pub fn at(bytes: &'a [u8], pos: usize, len: usize) -> Self {
        BitReader { bytes, pos, len }
    }

    /// Absolute bit position of the cursor.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.len.saturating_sub(self.pos)
    }

    /// The next 64 bits from the cursor, most significant first, zero past
    /// the end of the bytes. Bits past the valid length may be anything:
    /// callers decide on peeked bits only after [`BitReader::skip`] or a
    /// read has checked that they exist.
    #[inline]
    pub fn peek(&self) -> u64 {
        peek_at(self.bytes, self.pos)
    }

    /// The underlying bytes and the valid bit length, for loops that keep
    /// the cursor in a local and [`BitReader::seek`] back.
    pub(crate) fn parts(&self) -> (&'a [u8], usize) {
        (self.bytes, self.len)
    }

    /// Moves the cursor to bit `pos` (at most the valid length).
    pub(crate) fn seek(&mut self, pos: usize) {
        debug_assert!(pos <= self.len);
        self.pos = pos;
    }

    /// Advances over `n` bits; `None` (cursor unmoved) if fewer remain.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Option<()> {
        if self.remaining() < n {
            return None;
        }
        self.pos += n;
        Some(())
    }

    /// Reads one bit; `None` past the end.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        Some(self.read_bits(1)? == 1)
    }

    /// Reads `n` bits (1..=64), most significant first; `None` if fewer
    /// remain.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!((1..=64).contains(&n), "read_bits width {n}");
        if self.remaining() < n as usize {
            return None;
        }
        // One peek holds at least 57 bits; wider fields take two.
        let out = if n <= 56 {
            self.peek() >> (64 - n)
        } else {
            let high = self.peek() >> 32;
            (high << (n - 32)) | (peek_at(self.bytes, self.pos + 32) >> (96 - n))
        };
        self.pos += n as usize;
        Some(out)
    }
}

/// The 64 bits of `bytes` from bit `pos`, most significant first, zero
/// past the end of the bytes.
#[inline]
pub(crate) fn peek_at(bytes: &[u8], pos: usize) -> u64 {
    let i = pos / 8;
    let word = match bytes.get(i..i + 8) {
        Some(eight) => u64::from_be_bytes(eight.try_into().expect("8 bytes")),
        None => {
            let mut buf = [0u8; 8];
            let tail = bytes.get(i..).unwrap_or_default();
            buf[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(buf)
        }
    };
    word << (pos % 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true, false, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        let (bytes, len) = w.finish();
        assert_eq!(len, pattern.len());
        let mut r = BitReader::new(&bytes, len);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0x1234_5678, 32);
        w.push_bit(true);
        let (bytes, len) = w.finish();
        assert_eq!(len, 3 + 64 + 32 + 1);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(32), Some(0x1234_5678));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn truncated_stream_reports_none_not_garbage() {
        let mut w = BitWriter::new();
        w.push_bits(0xFFFF, 16);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_bits(7), None, "only 6 bits remain");
        assert_eq!(r.read_bits(6), Some(0x3F));
    }

    #[test]
    fn reader_resumes_at_any_bit_position() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0xDEAD_BEEF_0123_4567, 64);
        w.push_bits(0b01, 2);
        let (bytes, len) = w.finish();
        let mut r = BitReader::at(&bytes, 4, len);
        assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_0123_4567));
        assert_eq!(r.position(), 68);
        assert_eq!(r.read_bits(2), Some(0b01));
        // A sub-slice starting at byte 1 holds the same bits shifted by 8.
        let mut r = BitReader::at(&bytes[1..], 12 - 8, len - 8);
        assert_eq!(r.read_bits(8), Some(0xAD));
    }

    #[test]
    fn byte_alignment_is_tracked_across_boundaries() {
        let mut w = BitWriter::new();
        for i in 0..23 {
            w.push_bit(i % 3 == 0);
        }
        assert_eq!(w.bit_len(), 23);
        let (bytes, len) = w.finish();
        assert_eq!(bytes.len(), 3);
        let mut r = BitReader::new(&bytes, len);
        for i in 0..23 {
            assert_eq!(r.read_bit(), Some(i % 3 == 0), "bit {i}");
        }
    }
}
