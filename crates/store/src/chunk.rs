//! Sealed-chunk segment format: `[magic][len][payload][footer]` records in
//! one append-only file.
//!
//! Each sealed chunk carries a fixed-size footer summarizing everything a
//! window query needs without decompressing the payload: first/last
//! timestamp and watts, the *prefix energy* at the chunk's first and last
//! sample (bit-exact snapshots of the store's running trapezoid
//! accumulation), peak/min watts, the payload's exact bit length, and
//! CRCs over both payload and footer. `energy_between` binary-searches
//! these footers and touches at most one block of each of its two
//! boundary chunks' payloads.
//!
//! **Restart trailer.** A payload is the codec bit stream, then — when the
//! chunk holds more than [`RESTART_INTERVAL`] (`K`) samples — a trailer
//! that splits the stream into blocks of `K` samples:
//!
//! ```text
//! restarts  (blocks − 1) × 42 B   state after the sample before block j ≥ 1:
//!                                 t bits, w bits, delta, chain value,
//!                                 bit offset (u64 each), XOR window (2 × u8)
//! crcs      blocks × 4 B          CRC-32 of each block's payload bytes
//! K, blocks, TRAILER_MAGIC, crc   4 × u32; the CRC covers the trailer
//! ```
//!
//! A query then reads and checks one block's bytes and decodes at most `K`
//! samples ([`walk_block`]) instead of the whole chunk. A chunk whose
//! `payload_len == ceil(bit_len / 8)` has no trailer and reads as **one
//! block** through the same path (its CRC is the whole-payload CRC), so
//! segments written without trailers still open and answer bit-exactly; a
//! trailer that fails its own checks degrades the chunk to that one-block
//! form, where the whole-payload CRC then reports the damage.
//!
//! Opening a segment scans records sequentially — header, *seek over* the
//! bit stream, footer, trailer — so cold data is never read. A torn tail
//! (crash during a seal) fails its magic/length/CRC checks and the scan
//! reports the last valid offset; the store truncates there and re-seals
//! from the WAL.

use crate::codec::{CodecState, DecodeError, Decoder};
use crate::crc::crc32;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// Magic prefix of every block: "TGSC" (TGI Store Chunk).
pub const BLOCK_MAGIC: u32 = 0x5447_5343;
/// Magic prefix of every footer: "TGSF".
pub const FOOTER_MAGIC: u32 = 0x5447_5346;
/// Serialized footer size, bytes.
pub const FOOTER_LEN: usize = 96;
/// Block header size: magic + payload length.
pub const BLOCK_HEADER_LEN: usize = 8;
/// Magic in every restart trailer: "TGSR".
pub const TRAILER_MAGIC: u32 = 0x5447_5352;
/// Samples per restart block (`K`), chosen by measurement (DESIGN.md §4h).
/// Sealing records it in each trailer and readers use the recorded value,
/// so changing it never invalidates existing segments.
pub const RESTART_INTERVAL: usize = 2048;
/// Serialized size of one [`Restart`].
const RESTART_LEN: usize = 42;
/// Fixed tail of a trailer: interval, block count, magic, CRC.
const TRAILER_TAIL_LEN: usize = 16;
/// Payload bytes the segment scan reads along with each footer, so a
/// trailer of up to this size costs no extra read at open.
const TAIL_READ: u64 = 4096;

/// An in-memory chunk summary: the footer plus the payload's location in
/// the segment file. One of these per sealed chunk stays resident; the
/// payload stays on disk until a query needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the payload within the segment file.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Exact valid bit count of the payload's bit stream.
    pub bit_len: u64,
    /// Samples in the chunk (always ≥ 1 for a sealed chunk).
    pub count: u64,
    /// First sample's timestamp.
    pub first_t: f64,
    /// Last sample's timestamp.
    pub last_t: f64,
    /// First sample's power.
    pub first_w: f64,
    /// Last sample's power.
    pub last_w: f64,
    /// Prefix energy (J) at the chunk's first sample — the store's running
    /// trapezoid accumulation snapshotted bit-exactly at seal time.
    pub cum_first: f64,
    /// Prefix energy at the chunk's last sample.
    pub cum_last: f64,
    /// Highest power in the chunk.
    pub peak_w: f64,
    /// Lowest power in the chunk.
    pub min_w: f64,
    /// CRC-32 of the payload bytes.
    pub payload_crc: u32,
}

impl ChunkMeta {
    /// Serializes the footer (without the payload-offset, which is implied
    /// by the block's position in the file).
    pub fn encode_footer(&self) -> [u8; FOOTER_LEN] {
        let mut out = [0u8; FOOTER_LEN];
        let mut at = 0usize;
        let mut put = |bytes: &[u8]| {
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&FOOTER_MAGIC.to_le_bytes());
        put(&self.count.to_le_bytes());
        put(&self.bit_len.to_le_bytes());
        put(&self.first_t.to_bits().to_le_bytes());
        put(&self.last_t.to_bits().to_le_bytes());
        put(&self.first_w.to_bits().to_le_bytes());
        put(&self.last_w.to_bits().to_le_bytes());
        put(&self.cum_first.to_bits().to_le_bytes());
        put(&self.cum_last.to_bits().to_le_bytes());
        put(&self.peak_w.to_bits().to_le_bytes());
        put(&self.min_w.to_bits().to_le_bytes());
        put(&self.payload_len.to_le_bytes());
        put(&self.payload_crc.to_le_bytes());
        debug_assert_eq!(at, FOOTER_LEN - 4);
        let crc = crc32(&out[..FOOTER_LEN - 4]);
        out[FOOTER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a footer, returning `None` on bad magic or checksum.
    pub fn decode_footer(bytes: &[u8; FOOTER_LEN], payload_offset: u64) -> Option<ChunkMeta> {
        let stored_crc = u32::from_le_bytes(bytes[FOOTER_LEN - 4..].try_into().ok()?);
        if crc32(&bytes[..FOOTER_LEN - 4]) != stored_crc {
            return None;
        }
        let mut at = 0usize;
        let mut take_u32 = |bytes: &[u8]| -> u32 {
            let v = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            at += 4;
            v
        };
        if take_u32(bytes) != FOOTER_MAGIC {
            return None;
        }
        let mut at8 = 4usize;
        let mut take_u64 = || -> u64 {
            let v = u64::from_le_bytes(bytes[at8..at8 + 8].try_into().expect("8 bytes"));
            at8 += 8;
            v
        };
        let count = take_u64();
        let bit_len = take_u64();
        let first_t = f64::from_bits(take_u64());
        let last_t = f64::from_bits(take_u64());
        let first_w = f64::from_bits(take_u64());
        let last_w = f64::from_bits(take_u64());
        let cum_first = f64::from_bits(take_u64());
        let cum_last = f64::from_bits(take_u64());
        let peak_w = f64::from_bits(take_u64());
        let min_w = f64::from_bits(take_u64());
        let tail = at8;
        let payload_len = u32::from_le_bytes(bytes[tail..tail + 4].try_into().expect("4 bytes"));
        let payload_crc =
            u32::from_le_bytes(bytes[tail + 4..tail + 8].try_into().expect("4 bytes"));
        Some(ChunkMeta {
            payload_offset,
            payload_len,
            bit_len,
            count,
            first_t,
            last_t,
            first_w,
            last_w,
            cum_first,
            cum_last,
            peak_w,
            min_w,
            payload_crc,
        })
    }
}

/// Where decoding resumes for one block: the codec state, bit offset and
/// chain value right after the sample that precedes the block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Restart {
    /// Codec state after the preceding sample (its t/w bits are that
    /// sample).
    pub state: CodecState,
    /// Bit offset of the block's first sample within the bit stream.
    pub bit_offset: u64,
    /// Prefix-energy chain value at the preceding sample.
    pub cum: f64,
}

/// One block of a sealed chunk as the resident index describes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Where decoding resumes; `None` for the first block, which starts
    /// the stream.
    pub resume: Option<Restart>,
    /// Samples in the block.
    pub samples: u64,
    /// Bit range `[start, end)` of the block's samples in the bit stream.
    pub bits: (u64, u64),
    /// Payload byte range `[start, end)` the block's CRC covers (the whole
    /// payload, trailer included, for a chunk read as one block).
    pub bytes: (u64, u64),
    /// CRC-32 of those bytes.
    pub crc: u32,
}

impl Block {
    /// The binary-search key: the timestamp of the sample before the block
    /// (−∞ for the first block). Every sample at or before a query time
    /// `t` lies in blocks whose key is `<= t`.
    pub fn key(&self) -> f64 {
        self.resume.map_or(f64::NEG_INFINITY, |r| r.state.t())
    }
}

/// A sealed chunk's resident summary: its footer plus its block index.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    /// The footer.
    pub meta: ChunkMeta,
    /// The restart blocks, in sample order (at least one).
    pub blocks: Vec<Block>,
}

impl SealedChunk {
    /// Wraps a footer with the index read from its trailer bytes (`None`
    /// when the chunk has no trailer), falling back to one block when the
    /// trailer fails any check.
    pub fn new(meta: ChunkMeta, trailer: Option<&[u8]>) -> SealedChunk {
        let blocks = trailer.and_then(|t| decode_trailer(&meta, t)).unwrap_or_else(|| {
            vec![Block {
                resume: None,
                samples: meta.count,
                bits: (0, meta.bit_len),
                bytes: (0, meta.payload_len as u64),
                crc: meta.payload_crc,
            }]
        });
        SealedChunk { meta, blocks }
    }

    /// Index of the block holding the last sample with `time <= t`, for
    /// `t` at or after the chunk's first timestamp.
    pub fn block_for(&self, t: f64) -> usize {
        self.blocks.partition_point(|b| b.key() <= t) - 1
    }
}

/// Bytes of the bit stream proper: the trailer, if any, starts here.
pub fn stream_bytes(meta: &ChunkMeta) -> u64 {
    meta.bit_len.div_ceil(8)
}

/// Serializes the restart trailer of a chunk whose bit stream is `stream`
/// (`bit_len` valid bits), with `restarts[j]` the resume point of block
/// `j + 1`, recorded every [`RESTART_INTERVAL`] samples.
pub fn encode_trailer(stream: &[u8], bit_len: u64, restarts: &[Restart]) -> Vec<u8> {
    let blocks = restarts.len() + 1;
    let mut out = Vec::with_capacity(blocks * (RESTART_LEN + 4) + TRAILER_TAIL_LEN);
    for r in restarts {
        out.extend_from_slice(&r.state.t_bits.to_le_bytes());
        out.extend_from_slice(&r.state.w_bits.to_le_bytes());
        out.extend_from_slice(&r.state.delta.to_le_bytes());
        out.extend_from_slice(&r.cum.to_bits().to_le_bytes());
        out.extend_from_slice(&r.bit_offset.to_le_bytes());
        out.push(r.state.leading);
        out.push(r.state.meaningful);
    }
    let starts = std::iter::once(0).chain(restarts.iter().map(|r| r.bit_offset));
    let ends = restarts.iter().map(|r| r.bit_offset).chain(std::iter::once(bit_len));
    for (start, end) in starts.zip(ends) {
        let crc = crc32(&stream[(start / 8) as usize..end.div_ceil(8) as usize]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out.extend_from_slice(&(RESTART_INTERVAL as u32).to_le_bytes());
    out.extend_from_slice(&(blocks as u32).to_le_bytes());
    out.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses and validates a trailer against its footer: CRC, magic, block
/// count for the recorded interval, increasing in-range bit offsets,
/// usable codec states, valid restart watts, and restart timestamps
/// inside the chunk's span. `None` on any failure.
pub fn decode_trailer(meta: &ChunkMeta, trailer: &[u8]) -> Option<Vec<Block>> {
    let u32_at = |at: usize| u32::from_le_bytes(trailer[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(trailer[at..at + 8].try_into().expect("8 bytes"));
    let len = trailer.len();
    if len < TRAILER_TAIL_LEN
        || crc32(&trailer[..len - 4]) != u32_at(len - 4)
        || u32_at(len - 8) != TRAILER_MAGIC
    {
        return None;
    }
    let interval = u32_at(len - 16) as u64;
    let blocks = u32_at(len - 12) as u64;
    if interval == 0 || blocks == 0 || blocks != meta.count.div_ceil(interval) {
        return None;
    }
    if len as u64 != (blocks - 1) * RESTART_LEN as u64 + blocks * 4 + TRAILER_TAIL_LEN as u64 {
        return None;
    }
    let crcs_at = (blocks as usize - 1) * RESTART_LEN;
    let mut out = Vec::with_capacity(blocks as usize);
    let mut start = 0u64;
    let mut prev_key = meta.first_t;
    for j in 0..blocks as usize {
        let resume = if j == 0 {
            None
        } else {
            let at = (j - 1) * RESTART_LEN;
            let state = CodecState {
                t_bits: u64_at(at),
                w_bits: u64_at(at + 8),
                delta: u64_at(at + 16),
                leading: trailer[at + 40],
                meaningful: trailer[at + 41],
            };
            let r = Restart {
                state,
                bit_offset: u64_at(at + 32),
                cum: f64::from_bits(u64_at(at + 24)),
            };
            let key = state.t();
            let key_ok = key >= prev_key && key <= meta.last_t;
            let w_ok = state.w().is_finite() && state.w() >= 0.0;
            if !state.is_valid() || !key_ok || !w_ok || !r.cum.is_finite() || r.bit_offset <= start
            {
                return None;
            }
            prev_key = key;
            Some(r)
        };
        out.push(Block {
            resume,
            samples: interval.min(meta.count - j as u64 * interval),
            bits: (resume.map_or(0, |r| r.bit_offset), 0),
            bytes: (0, 0),
            crc: u32_at(crcs_at + 4 * j),
        });
        start = out[j].bits.0;
    }
    if start >= meta.bit_len {
        return None;
    }
    for j in 0..out.len() {
        let end = out.get(j + 1).map_or(meta.bit_len, |b| b.bits.0);
        let block = &mut out[j];
        block.bits.1 = end;
        block.bytes = (block.bits.0 / 8, end.div_ceil(8));
    }
    Some(out)
}

/// Why a block failed its checks on the way out.
#[derive(Debug, PartialEq, Eq)]
pub enum BlockError {
    /// The block's bytes do not match its CRC.
    Checksum,
    /// The bit stream failed to decode.
    Decode(DecodeError),
    /// A decoded boundary sample or the end-of-block codec state disagrees
    /// with the footer or the next restart point.
    Edge,
    /// The rebuilt energy chain disagrees with the footer or the next
    /// restart point.
    Chain,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Checksum => write!(f, "payload checksum mismatch"),
            BlockError::Decode(e) => write!(f, "{e}"),
            BlockError::Edge => write!(f, "decoded edge samples disagree with the index"),
            BlockError::Chain => write!(f, "rebuilt energy chain disagrees with the index"),
        }
    }
}

impl std::error::Error for BlockError {}

impl From<DecodeError> for BlockError {
    fn from(e: DecodeError) -> Self {
        BlockError::Decode(e)
    }
}

/// Samples [`walk_block`] decodes per batch before its visitor sees them.
const WALK_BATCH: usize = 64;

/// Checks and decodes block `b` of `chunk` from its payload bytes `bytes`
/// (exactly `blocks[b].bytes`), calling `visit(t, w, cum)` for each of its
/// samples in order, with `cum` the prefix-energy chain advanced with the
/// same arithmetic the store used at append time. One streaming decode, no
/// columns: samples pass through a small stack batch, so the decode loop
/// is compiled once whatever the visitor. After the last sample it checks
/// the decoder state, bit position and chain against the next restart
/// point (or, for the last block, the footer's last sample, bit length and
/// `cum_last`); the first block's first sample is checked against the
/// footer.
///
/// `visit` sees samples before those end checks run, so callers must
/// discard what they gathered when this returns an error. Returns the
/// number of samples decoded (at most the trailer's `K`).
pub fn walk_block(
    chunk: &SealedChunk,
    b: usize,
    bytes: &[u8],
    mut visit: impl FnMut(f64, f64, f64),
) -> Result<u64, BlockError> {
    let (mut walk, first) = BlockWalk::start(chunk, b, bytes)?;
    if let Some((t, w, cum)) = first {
        visit(t, w, cum);
    }
    let mut batch = Batch { samples: [(0.0, 0.0); WALK_BATCH], cum: [0.0; WALK_BATCH] };
    loop {
        let n = walk.fill(&mut batch)?;
        for (&(t, w), &cum) in batch.samples[..n].iter().zip(&batch.cum) {
            visit(t, w, cum);
        }
        if n < WALK_BATCH {
            return walk.finish();
        }
    }
}

/// A decoded sample and the chain value at it: `(t, w, cum)`.
type Chained = (f64, f64, f64);

/// One batch of decoded samples and their chain values.
struct Batch {
    samples: [(f64, f64); WALK_BATCH],
    cum: [f64; WALK_BATCH],
}

/// A block decode in progress (see [`walk_block`]).
struct BlockWalk<'a> {
    chunk: &'a SealedChunk,
    b: usize,
    dec: Decoder<'a>,
    /// Bit offset of `bytes[0]` within the chunk's bit stream.
    base: u64,
    /// The last sample and its chain value.
    prev: Chained,
    /// Samples still to decode.
    left: u64,
}

impl<'a> BlockWalk<'a> {
    /// Checks the block's CRC and positions a decoder at its first sample.
    /// The first block's first sample is decoded here, checked against the
    /// footer, and returned for the caller to visit.
    fn start(
        chunk: &'a SealedChunk,
        b: usize,
        bytes: &'a [u8],
    ) -> Result<(Self, Option<Chained>), BlockError> {
        let meta = &chunk.meta;
        let block = &chunk.blocks[b];
        if bytes.len() as u64 != block.bytes.1 - block.bytes.0 || crc32(bytes) != block.crc {
            return Err(BlockError::Checksum);
        }
        let base = block.bytes.0 * 8;
        let (start, end) = ((block.bits.0 - base) as usize, (block.bits.1 - base) as usize);
        if end > bytes.len() * 8 || block.samples == 0 {
            return Err(BlockError::Decode(DecodeError::Truncated));
        }
        let walk = |dec, prev, left| BlockWalk { chunk, b, dec, base, prev, left };
        match block.resume {
            Some(r) => {
                let dec = Decoder::resume(bytes, start, end, r.state);
                Ok((walk(dec, (r.state.t(), r.state.w(), r.cum), block.samples), None))
            }
            None => {
                let mut dec = Decoder::new(bytes, end);
                let mut first = [(0.0, 0.0)];
                dec.fill(&mut first)?;
                let [(t, w)] = first;
                if t.to_bits() != meta.first_t.to_bits() || w.to_bits() != meta.first_w.to_bits() {
                    return Err(BlockError::Edge);
                }
                let first = (t, w, meta.cum_first);
                Ok((walk(dec, first, block.samples - 1), Some(first)))
            }
        }
    }

    /// Decodes up to a batch of samples, advancing the chain; returns how
    /// many it wrote (fewer than a full batch only at the block's end).
    fn fill(&mut self, out: &mut Batch) -> Result<usize, BlockError> {
        let n = (self.left as usize).min(WALK_BATCH);
        self.dec.fill(&mut out.samples[..n])?;
        let (mut pt, mut pw, mut pc) = self.prev;
        for (&(t, w), cum) in out.samples[..n].iter().zip(&mut out.cum) {
            pc += 0.5 * (pw + w) * (t - pt);
            *cum = pc;
            (pt, pw) = (t, w);
        }
        self.prev = (pt, pw, pc);
        self.left -= n as u64;
        Ok(n)
    }

    /// The end-of-block checks; returns the samples the block holds.
    fn finish(self) -> Result<u64, BlockError> {
        let meta = &self.chunk.meta;
        let end_bit = self.dec.position() as u64 + self.base;
        let state = self.dec.state();
        let (state_ok, want_cum) = match self.chunk.blocks.get(self.b + 1) {
            Some(next) => {
                let r = next.resume.ok_or(BlockError::Edge)?;
                (state == Some(r.state) && end_bit == r.bit_offset, r.cum)
            }
            None => {
                let s = state.ok_or(BlockError::Edge)?;
                let last_ok =
                    s.t_bits == meta.last_t.to_bits() && s.w_bits == meta.last_w.to_bits();
                (last_ok && end_bit == meta.bit_len, meta.cum_last)
            }
        };
        if !state_ok {
            return Err(BlockError::Edge);
        }
        if self.prev.2.to_bits() != want_cum.to_bits() {
            return Err(BlockError::Chain);
        }
        Ok(self.chunk.blocks[self.b].samples)
    }
}

/// Serializes one full block (`header + payload + footer`) ready to append
/// to the segment file. `meta.payload_offset` is ignored; the caller knows
/// where the block lands.
pub fn encode_block(meta: &ChunkMeta, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(meta.payload_len as usize, payload.len());
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len() + FOOTER_LEN);
    out.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
    out.extend_from_slice(&meta.payload_len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&meta.encode_footer());
    out
}

/// Scans a segment file from the start, returning every valid chunk's
/// footer and block index plus the byte length of the valid prefix. The
/// scan stops at the first record whose magic, length, or footer CRC
/// fails — the torn tail a crash mid-seal leaves — and reads no bit-stream
/// bytes, only footers and trailers.
pub fn scan_segment<F: Read + Seek>(file: &mut F) -> io::Result<(Vec<SealedChunk>, u64)> {
    let total = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(0))?;
    let mut chunks = Vec::new();
    let mut offset = 0u64;
    loop {
        let remaining = total - offset;
        if remaining < (BLOCK_HEADER_LEN + FOOTER_LEN) as u64 {
            break;
        }
        let mut header = [0u8; BLOCK_HEADER_LEN];
        file.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) as u64;
        if magic != BLOCK_MAGIC || payload_len > remaining - (BLOCK_HEADER_LEN + FOOTER_LEN) as u64
        {
            break;
        }
        // Seek over the bit stream — cold data stays cold — and read the
        // end of the payload with the footer: one read covers a trailer of
        // up to TAIL_READ bytes.
        let tail = payload_len.min(TAIL_READ);
        file.seek(SeekFrom::Current((payload_len - tail) as i64))?;
        let mut buf = vec![0u8; tail as usize + FOOTER_LEN];
        file.read_exact(&mut buf)?;
        let footer: &[u8; FOOTER_LEN] = buf[tail as usize..].try_into().expect("footer bytes");
        let payload_offset = offset + BLOCK_HEADER_LEN as u64;
        let meta = match ChunkMeta::decode_footer(footer, payload_offset) {
            Some(meta)
                if meta.payload_len as u64 == payload_len
                    && meta.count > 0
                    && stream_bytes(&meta) <= payload_len =>
            {
                meta
            }
            _ => break,
        };
        offset += BLOCK_HEADER_LEN as u64 + payload_len + FOOTER_LEN as u64;
        let trailer_len = payload_len - stream_bytes(&meta);
        let trailer = if trailer_len == 0 {
            None
        } else if trailer_len <= tail {
            Some(buf[(tail - trailer_len) as usize..tail as usize].to_vec())
        } else {
            file.seek(SeekFrom::Start(payload_offset + stream_bytes(&meta)))?;
            let mut trailer = vec![0u8; trailer_len as usize];
            file.read_exact(&mut trailer)?;
            file.seek(SeekFrom::Start(offset))?;
            Some(trailer)
        };
        chunks.push(SealedChunk::new(meta, trailer.as_deref()));
    }
    Ok((chunks, offset))
}

/// Reads one chunk's whole payload (bit stream and trailer); the caller
/// checks it against `payload_crc`.
pub fn read_payload<F: Read + Seek>(file: &mut F, meta: &ChunkMeta) -> io::Result<Vec<u8>> {
    read_at(file, meta.payload_offset, meta.payload_len as u64)
}

/// Reads the payload bytes one block covers; [`walk_block`] checks them.
pub fn read_block<F: Read + Seek>(
    file: &mut F,
    meta: &ChunkMeta,
    block: &Block,
) -> io::Result<Vec<u8>> {
    read_at(file, meta.payload_offset + block.bytes.0, block.bytes.1 - block.bytes.0)
}

fn read_at<F: Read + Seek>(file: &mut F, offset: u64, len: u64) -> io::Result<Vec<u8>> {
    file.seek(SeekFrom::Start(offset))?;
    let mut bytes = vec![0u8; len as usize];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Appends a block and returns the new file length. The caller fsyncs.
pub fn append_block<F: Write + Seek>(
    file: &mut F,
    end: u64,
    meta: &ChunkMeta,
    payload: &[u8],
) -> io::Result<u64> {
    file.seek(SeekFrom::Start(end))?;
    let block = encode_block(meta, payload);
    file.write_all(&block)?;
    Ok(end + block.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn meta(payload: &[u8]) -> ChunkMeta {
        ChunkMeta {
            payload_offset: 0,
            payload_len: payload.len() as u32,
            bit_len: payload.len() as u64 * 8,
            count: 3,
            first_t: 0.0,
            last_t: 2.0,
            first_w: 100.0,
            last_w: 120.0,
            cum_first: 0.0,
            cum_last: 220.0,
            peak_w: 120.0,
            min_w: 100.0,
            payload_crc: crc32(payload),
        }
    }

    #[test]
    fn footer_round_trips() {
        let m = meta(b"payload");
        let encoded = m.encode_footer();
        let back = ChunkMeta::decode_footer(&encoded, 0).expect("valid footer");
        assert_eq!(back, m);
    }

    #[test]
    fn footer_rejects_corruption() {
        let m = meta(b"payload");
        let mut encoded = m.encode_footer();
        encoded[10] ^= 1;
        assert!(ChunkMeta::decode_footer(&encoded, 0).is_none());
    }

    #[test]
    fn scan_recovers_blocks_and_stops_at_torn_tail() {
        let mut file = Cursor::new(Vec::new());
        let p1 = b"first payload".to_vec();
        let p2 = b"second".to_vec();
        let mut end = 0;
        end = append_block(&mut file, end, &meta(&p1), &p1).unwrap();
        end = append_block(&mut file, end, &meta(&p2), &p2).unwrap();
        let clean_len = end;
        // A torn third block: header + half a payload, no footer.
        file.seek(SeekFrom::Start(end)).unwrap();
        file.write_all(&BLOCK_MAGIC.to_le_bytes()).unwrap();
        file.write_all(&400u32.to_le_bytes()).unwrap();
        file.write_all(b"torn....").unwrap();

        let (chunks, valid_len) = scan_segment(&mut file).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(valid_len, clean_len);
        assert_eq!(chunks[0].meta.payload_len as usize, p1.len());
        let payload = read_payload(&mut file, &chunks[1].meta).unwrap();
        assert_eq!(payload, p2);
        assert_eq!(crc32(&payload), chunks[1].meta.payload_crc);
    }

    #[test]
    fn trailer_round_trips_and_rejects_damage() {
        let mut enc = crate::codec::Encoder::new();
        let mut restarts = Vec::new();
        let n = 5 * RESTART_INTERVAL / 2;
        for i in 0..n {
            if i > 0 && i % RESTART_INTERVAL == 0 {
                let state = enc.state();
                restarts.push(Restart { state, bit_offset: enc.bit_len() as u64, cum: i as f64 });
            }
            enc.push(i as f64, 100.0 + (i % 3) as f64);
        }
        let (stream, bit_len) = enc.finish();
        let trailer = encode_trailer(&stream, bit_len as u64, &restarts);
        let mut payload = stream.clone();
        payload.extend_from_slice(&trailer);
        let m = ChunkMeta {
            bit_len: bit_len as u64,
            count: n as u64,
            last_t: (n - 1) as f64,
            ..meta(&payload)
        };
        let blocks = decode_trailer(&m, &trailer).expect("valid trailer");
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].bits.0, 0);
        assert_eq!(blocks[1].resume, Some(restarts[0]));
        assert_eq!(blocks[2].bits, (restarts[1].bit_offset, bit_len as u64));
        assert_eq!(blocks.iter().map(|b| b.samples).sum::<u64>(), n as u64);
        for b in &blocks {
            assert_eq!(b.crc, crc32(&stream[b.bytes.0 as usize..b.bytes.1 as usize]));
        }
        // Any flipped byte fails the trailer CRC.
        for at in [0, trailer.len() / 2, trailer.len() - 1] {
            let mut bad = trailer.clone();
            bad[at] ^= 1;
            assert!(decode_trailer(&m, &bad).is_none(), "flip at {at}");
        }
        // A footer whose count disagrees with the block count is refused.
        assert!(decode_trailer(&ChunkMeta { count: n as u64 * 2, ..m }, &trailer).is_none());
        assert_eq!(SealedChunk::new(m, Some(&trailer[1..])).blocks.len(), 1);
    }

    #[test]
    fn scan_of_empty_file_is_empty() {
        let mut file = Cursor::new(Vec::new());
        let (chunks, valid_len) = scan_segment(&mut file).unwrap();
        assert!(chunks.is_empty());
        assert_eq!(valid_len, 0);
    }
}
