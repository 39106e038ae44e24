//! The chunk codec: delta-of-delta timestamps + Gorilla-style XOR floats.
//!
//! Samples are `(t, watts)` pairs of `f64`s with non-decreasing, finite,
//! non-negative timestamps and finite, non-negative watts. Both columns are
//! compressed losslessly at the *bit-pattern* level, so a decoded sample is
//! `to_bits`-identical to what was encoded — the property every energy
//! query downstream relies on.
//!
//! **Timestamps.** For finite non-negative `f64`s, the IEEE-754 bit
//! pattern is order-isomorphic to the value, so the `u64` bit patterns of
//! a valid timestamp column are non-decreasing. The encoder stores the
//! first pattern raw, then the delta-of-delta of consecutive patterns in
//! Gorilla's bucketed scheme: a metronomic logger (deltas repeating
//! bit-for-bit, which a fixed-cadence meter produces over long stretches)
//! costs **one bit per sample**; jitter pays only for the bits it moves.
//!
//! **Watts.** Classic Gorilla XOR: a repeated value (a quantized meter
//! holding a level) is one bit; a changed value stores only the meaningful
//! window of the XOR, reusing the previous window when it still fits.
//!
//! **Restarts.** The whole running state after a sample fits in a
//! [`CodecState`] (previous time/watts bits, previous delta, XOR window).
//! The encoder exposes it with its bit length, so sealing can record a
//! restart point every `K` samples, and [`Decoder::resume`] continues the
//! stream from any recorded point — a query decodes one block, not the
//! chunk. The decoder streams: [`Decoder::fill`] writes samples into a
//! caller's buffer and takes the steady-meter case (same cadence, same
//! watts: two control bits) in a tight loop.
//!
//! The encoder is deliberately validation-free: the store validates at its
//! append boundary, and the decoder re-checks on the way out (a chunk that
//! passed its CRC but decodes into invalid samples is reported as corrupt,
//! never surfaced).

use crate::bits::{peek_at, BitReader, BitWriter};

/// Zigzag-folds a signed delta-of-delta into an unsigned value so small
/// magnitudes of either sign stay small. The input fits in 65 bits
/// (difference of two `u64` deltas), hence `i128`/`u128`.
fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(z: u128) -> i128 {
    ((z >> 1) as i128) ^ -((z & 1) as i128)
}

/// The codec's running state right after one sample: everything a
/// decoder needs to resume the stream at the next sample's bits. Chunk
/// restart points ([`crate::chunk::Restart`]) persist one of these every
/// `K` samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecState {
    /// Bit pattern of the sample's timestamp.
    pub t_bits: u64,
    /// Bit pattern of the sample's watts.
    pub w_bits: u64,
    /// Timestamp bit-pattern delta from the previous sample (0 after the
    /// first sample of a stream).
    pub delta: u64,
    /// Leading zeros of the current XOR window; `u8::MAX` marks "no window
    /// yet".
    pub leading: u8,
    /// Width of the current XOR window (0 when there is none).
    pub meaningful: u8,
}

impl CodecState {
    /// The state after a stream's first sample.
    fn first(t_bits: u64, w_bits: u64) -> Self {
        CodecState { t_bits, w_bits, delta: 0, leading: u8::MAX, meaningful: 0 }
    }

    /// Whether the XOR window fields describe a window the decoder can
    /// use (or no window at all). A state read back from disk must pass
    /// this before a decoder resumes from it.
    pub fn is_valid(&self) -> bool {
        (self.leading == u8::MAX && self.meaningful == 0)
            || (self.meaningful >= 1 && self.leading as u16 + self.meaningful as u16 <= 64)
    }

    /// The sample's timestamp.
    pub fn t(&self) -> f64 {
        f64::from_bits(self.t_bits)
    }

    /// The sample's watts.
    pub fn w(&self) -> f64 {
        f64::from_bits(self.w_bits)
    }
}

/// Streaming encoder for one chunk.
#[derive(Debug)]
pub struct Encoder {
    bw: BitWriter,
    count: usize,
    state: CodecState,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder { bw: BitWriter::new(), count: 0, state: CodecState::first(0, 0) }
    }

    /// Samples encoded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Bits written so far: where the next sample's encoding starts.
    pub fn bit_len(&self) -> usize {
        self.bw.bit_len()
    }

    /// The codec state after the last pushed sample (meaningless before
    /// the first push).
    pub fn state(&self) -> CodecState {
        self.state
    }

    /// Appends one sample. The caller guarantees validity (finite,
    /// non-negative, `t` non-decreasing); the encoder is lossless either
    /// way, but the decoder will reject streams that decode invalid.
    pub fn push(&mut self, t: f64, w: f64) {
        let t_bits = t.to_bits();
        let w_bits = w.to_bits();
        if self.count == 0 {
            self.bw.push_bits(t_bits, 64);
            self.bw.push_bits(w_bits, 64);
        } else {
            self.push_time(t_bits);
            self.push_watts(w_bits);
        }
        self.state.t_bits = t_bits;
        self.state.w_bits = w_bits;
        self.count += 1;
    }

    fn push_time(&mut self, t_bits: u64) {
        let delta = t_bits - self.state.t_bits;
        let dod = delta as i128 - self.state.delta as i128;
        self.state.delta = delta;
        if dod == 0 {
            self.bw.push_bit(false);
            return;
        }
        let z = zigzag(dod);
        if z < (1 << 7) {
            self.bw.push_bits(0b10, 2);
            self.bw.push_bits(z as u64, 7);
        } else if z < (1 << 12) {
            self.bw.push_bits(0b110, 3);
            self.bw.push_bits(z as u64, 12);
        } else if z < (1 << 20) {
            self.bw.push_bits(0b1110, 4);
            self.bw.push_bits(z as u64, 20);
        } else if z < (1 << 32) {
            self.bw.push_bits(0b11110, 5);
            self.bw.push_bits(z as u64, 32);
        } else {
            // Worst case: 65 bits of zigzagged delta-of-delta, split as
            // high bit + low 64.
            self.bw.push_bits(0b11111, 5);
            self.bw.push_bit((z >> 64) & 1 == 1);
            self.bw.push_bits(z as u64, 64);
        }
    }

    fn push_watts(&mut self, w_bits: u64) {
        let xor = w_bits ^ self.state.w_bits;
        if xor == 0 {
            self.bw.push_bit(false);
            return;
        }
        self.bw.push_bit(true);
        let leading = xor.leading_zeros() as u8;
        let trailing = xor.trailing_zeros() as u8;
        let meaningful = 64 - leading - trailing;
        let (prev_leading, prev_meaningful) = (self.state.leading, self.state.meaningful);
        let fits_prev = prev_leading != u8::MAX
            && leading >= prev_leading
            && (64 - prev_leading - prev_meaningful) <= trailing;
        if fits_prev {
            // Confined to the previous window: control '0', then the
            // window's bits.
            self.bw.push_bit(false);
            let prev_trailing = 64 - prev_leading - prev_meaningful;
            self.bw.push_bits(xor >> prev_trailing, prev_meaningful);
        } else {
            // New window: control '1', 6-bit leading count, 6-bit
            // (length - 1), then the meaningful bits.
            self.bw.push_bit(true);
            self.bw.push_bits(leading as u64, 6);
            self.bw.push_bits((meaningful - 1) as u64, 6);
            self.bw.push_bits(xor >> trailing, meaningful);
            self.state.leading = leading;
            self.state.meaningful = meaningful;
        }
    }

    /// Finishes the stream: packed payload bytes plus the exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        self.bw.finish()
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// Why a chunk payload failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit stream ended before `count` samples were read.
    Truncated,
    /// A decoded sample violated the trace invariants (non-finite or
    /// negative values, backwards timestamps) — the payload is corrupt
    /// even though its checksum matched.
    InvalidSample {
        /// Index of the offending sample among those this decoder read.
        index: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bit stream ended mid-sample"),
            DecodeError::InvalidSample { index } => {
                write!(f, "decoded sample {index} violates trace invariants")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Streaming decoder: fills a caller's buffer with validated samples, from
/// the start of a stream or resumed at a restart point, without building
/// any columns.
#[derive(Debug)]
pub struct Decoder<'a> {
    br: BitReader<'a>,
    /// State after the previous sample (meaningless until `started`).
    state: CodecState,
    /// Whether a sample precedes the cursor (false only at a stream's
    /// start, where the first sample is stored raw).
    started: bool,
    decoded: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder at the start of a stream of `bit_len` valid bits.
    pub fn new(bytes: &'a [u8], bit_len: usize) -> Self {
        let state = CodecState::first(0, 0);
        Decoder { br: BitReader::new(bytes, bit_len), state, started: false, decoded: 0 }
    }

    /// A decoder resuming at bit `pos` of `bytes` (valid up to bit
    /// `bit_len`) right after a sample whose codec state was `state`.
    /// The caller checks [`CodecState::is_valid`] first.
    pub fn resume(bytes: &'a [u8], pos: usize, bit_len: usize, state: CodecState) -> Self {
        Decoder { br: BitReader::at(bytes, pos, bit_len), state, started: true, decoded: 0 }
    }

    /// The state after the last decoded (or resumed-from) sample.
    pub fn state(&self) -> Option<CodecState> {
        self.started.then_some(self.state)
    }

    /// Bit position of the next sample's encoding.
    pub fn position(&self) -> usize {
        self.br.position()
    }

    /// Decodes the next `out.len()` samples into `out`, checking the trace
    /// invariants: finite, non-negative values and timestamps that never
    /// go backwards.
    pub fn fill(&mut self, out: &mut [(f64, f64)]) -> Result<(), DecodeError> {
        let mut i = 0;
        while i < out.len() {
            if self.started {
                i += self.fill_repeats(&mut out[i..])?;
            }
            if i < out.len() {
                out[i] = self.next_general()?;
                i += 1;
            }
        }
        Ok(())
    }

    /// The common case on a steady meter — same cadence, same watts — is
    /// the two control bits `00` per sample. Decodes a run of those with
    /// the cursor and timestamp in locals (the watts are the previous
    /// sample's, already checked), stopping at the first sample that needs
    /// the general path; returns how many it wrote.
    #[inline]
    fn fill_repeats(&mut self, out: &mut [(f64, f64)]) -> Result<usize, DecodeError> {
        let (bytes, len) = self.br.parts();
        let mut pos = self.br.position();
        let mut t_bits = self.state.t_bits;
        let (delta, w) = (self.state.delta, self.state.w());
        let mut n = 0;
        let mut result = Ok(());
        for slot in out.iter_mut() {
            if pos + 2 > len || peek_at(bytes, pos) >> 62 != 0 {
                break;
            }
            let prev_t = f64::from_bits(t_bits);
            let t = f64::from_bits(t_bits.wrapping_add(delta));
            if !(t >= prev_t && t.is_finite()) {
                result = Err(DecodeError::InvalidSample { index: self.decoded + n });
                break;
            }
            t_bits = t.to_bits();
            pos += 2;
            *slot = (t, w);
            n += 1;
        }
        self.br.seek(pos);
        self.state.t_bits = t_bits;
        self.decoded += n;
        result.map(|()| n)
    }

    fn next_general(&mut self) -> Result<(f64, f64), DecodeError> {
        let index = self.decoded;
        let br = &mut self.br;
        let prev = self.state;
        let next = if !self.started {
            let t_bits = br.read_bits(64).ok_or(DecodeError::Truncated)?;
            let w_bits = br.read_bits(64).ok_or(DecodeError::Truncated)?;
            CodecState::first(t_bits, w_bits)
        } else {
            let delta = (prev.delta as i128 + read_dod(br)?) as u64;
            let mut next = CodecState { t_bits: prev.t_bits.wrapping_add(delta), delta, ..prev };
            if !br.read_bit().ok_or(DecodeError::Truncated)? {
                // Repeated watts.
            } else if !br.read_bit().ok_or(DecodeError::Truncated)? {
                if prev.leading == u8::MAX {
                    return Err(DecodeError::InvalidSample { index });
                }
                let prev_trailing = 64 - prev.leading - prev.meaningful;
                let window = br.read_bits(prev.meaningful).ok_or(DecodeError::Truncated)?;
                next.w_bits ^= window << prev_trailing;
            } else {
                let leading = br.read_bits(6).ok_or(DecodeError::Truncated)? as u8;
                let meaningful = br.read_bits(6).ok_or(DecodeError::Truncated)? as u8 + 1;
                if leading + meaningful > 64 {
                    return Err(DecodeError::InvalidSample { index });
                }
                let trailing = 64 - leading - meaningful;
                let window = br.read_bits(meaningful).ok_or(DecodeError::Truncated)?;
                next.w_bits ^= window << trailing;
                next.leading = leading;
                next.meaningful = meaningful;
            }
            next
        };
        let (t, w) = (next.t(), next.w());
        let ordered = !self.started || t >= prev.t();
        if !t.is_finite() || t < 0.0 || !w.is_finite() || w < 0.0 || !ordered {
            return Err(DecodeError::InvalidSample { index });
        }
        self.state = next;
        self.started = true;
        self.decoded += 1;
        Ok((t, w))
    }
}

/// Decodes a payload of exactly `count` samples into parallel columns,
/// validating the trace invariants on the way out.
pub fn decode(
    payload: &[u8],
    bit_len: usize,
    count: usize,
) -> Result<(Vec<f64>, Vec<f64>), DecodeError> {
    let mut samples = vec![(0.0, 0.0); count];
    Decoder::new(payload, bit_len).fill(&mut samples)?;
    Ok(samples.into_iter().unzip())
}

fn read_dod(br: &mut BitReader<'_>) -> Result<i128, DecodeError> {
    // Control prefix '0', '10', '110', '1110', '11110' or '11111': count
    // its leading ones in one peek.
    let ones = br.peek().leading_ones().min(5) as usize;
    br.skip(if ones < 5 { ones + 1 } else { 5 }).ok_or(DecodeError::Truncated)?;
    let z = match ones {
        0 => return Ok(0),
        1 => br.read_bits(7),
        2 => br.read_bits(12),
        3 => br.read_bits(20),
        4 => br.read_bits(32),
        _ => {
            let high = br.read_bits(1).ok_or(DecodeError::Truncated)? as u128;
            let low = br.read_bits(64).ok_or(DecodeError::Truncated)? as u128;
            return Ok(unzigzag((high << 64) | low));
        }
    };
    Ok(unzigzag(z.ok_or(DecodeError::Truncated)? as u128))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(samples: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
        let mut enc = Encoder::new();
        for &(t, w) in samples {
            enc.push(t, w);
        }
        let (payload, bits) = enc.finish();
        decode(&payload, bits, samples.len()).expect("valid stream decodes")
    }

    #[test]
    fn empty_and_single_sample() {
        let (t, w) = round_trip(&[]);
        assert!(t.is_empty() && w.is_empty());
        let (t, w) = round_trip(&[(1.5, 250.25)]);
        assert_eq!((t[0], w[0]), (1.5, 250.25));
    }

    #[test]
    fn bit_identical_round_trip() {
        let samples = [
            (0.0, 80.0),
            (1.0, 80.0),
            (2.0, 80.1),
            (2.0, 250.7),
            (3.5, 250.7),
            (1e9, 0.1),
            (1.0000000001e9, 1e-300),
            (f64::MAX / 2.0, 4999.9),
        ];
        let (t, w) = round_trip(&samples);
        for (i, &(st, sw)) in samples.iter().enumerate() {
            assert_eq!(t[i].to_bits(), st.to_bits(), "time {i}");
            assert_eq!(w[i].to_bits(), sw.to_bits(), "watts {i}");
        }
    }

    #[test]
    fn metronomic_cadence_costs_two_bits_per_sample() {
        // Exact 1 s cadence with a held power level: after the first
        // sample the time delta repeats bit-for-bit (dod = 0 → 1 bit) and
        // the power XOR is 0 (1 bit).
        let n = 10_000usize;
        let mut enc = Encoder::new();
        for i in 0..n {
            enc.push(1_000_000.0 + i as f64, 242.5);
        }
        let (payload, bits) = enc.finish();
        // First sample is 128 bits; the steady state must stay under
        // 4 bits/sample even across exponent-boundary hiccups.
        assert!(bits < 128 + 4 * n, "steady-state stream took {bits} bits");
        let (t, w) = decode(&payload, bits, n).unwrap();
        assert_eq!(t.len(), n);
        assert!(w.iter().all(|&x| x == 242.5));
    }

    #[test]
    fn decoder_resumes_from_a_recorded_state() {
        let samples: Vec<(f64, f64)> =
            (0..500).map(|i| (i as f64 * 0.5 + (i / 7) as f64, (i % 13) as f64)).collect();
        let mut enc = Encoder::new();
        let mut mark = None;
        for (i, &(t, w)) in samples.iter().enumerate() {
            if i == 200 {
                mark = Some((enc.state(), enc.bit_len()));
            }
            enc.push(t, w);
        }
        let (payload, bits) = enc.finish();
        let (state, pos) = mark.unwrap();
        assert!(state.is_valid());
        assert_eq!((state.t(), state.w()), samples[199]);
        let mut dec = Decoder::resume(&payload, pos, bits, state);
        let mut out = vec![(0.0, 0.0); 300];
        dec.fill(&mut out).unwrap();
        for (got, want) in out.iter().zip(&samples[200..]) {
            assert_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()));
        }
        assert_eq!(dec.position(), bits);
        assert_eq!(dec.state(), Some(enc_state_after(&samples)));
    }

    fn enc_state_after(samples: &[(f64, f64)]) -> CodecState {
        let mut enc = Encoder::new();
        for &(t, w) in samples {
            enc.push(t, w);
        }
        enc.state()
    }

    #[test]
    fn truncated_payload_is_detected() {
        let mut enc = Encoder::new();
        for i in 0..50 {
            enc.push(i as f64, 100.0 + (i % 7) as f64);
        }
        let (payload, bits) = enc.finish();
        assert_eq!(decode(&payload, bits / 2, 50).unwrap_err(), DecodeError::Truncated);
        // Claiming more samples than were written also fails loudly.
        assert_eq!(decode(&payload, bits, 51).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [
            0i128,
            1,
            -1,
            i64::MAX as i128,
            i64::MIN as i128,
            (u64::MAX as i128),
            -(u64::MAX as i128),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
