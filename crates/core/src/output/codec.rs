//! Payload codecs: the `ckpt_compress=` selector, the word-wise
//! PackBits-style RLE encoder and its decoder, and the XOR delta.

use crate::checkpoint::invalid;
use std::io;

/// Checkpoint/snapshot payload encoding, selected by `ckpt_compress=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptCodec {
    /// Raw little-endian f64 bytes (the v2 discipline).
    #[default]
    Raw,
    /// XOR-delta against the previous checkpoint's payload, then RLE.
    /// The first shard of a run (or after a re-tile) has no base and is
    /// written as the self-contained RLE-only shard; later shards name
    /// their base step.
    Delta,
}

impl CkptCodec {
    /// Parse a `ckpt_compress=` value.
    pub fn parse(s: &str) -> Result<CkptCodec, String> {
        match s {
            "none" | "raw" => Ok(CkptCodec::Raw),
            "delta" => Ok(CkptCodec::Delta),
            other => Err(format!("expected none|delta, got '{other}'")),
        }
    }

    /// Canonical name (reports, CLI echo).
    pub fn name(&self) -> &'static str {
        match self {
            CkptCodec::Raw => "none",
            CkptCodec::Delta => "delta",
        }
    }
}

const LANE_LO: u64 = 0x0101_0101_0101_0101;
const LANE_HI: u64 = 0x8080_8080_8080_8080;

/// The eight bytes at `src[at..at + 8]` as one little-endian word (lane
/// `k` of the word is byte `at + k`).
#[inline(always)]
fn word_at(src: &[u8], at: usize) -> u64 {
    // An `[at..at + 8]` slice is eight bytes; both callers loop on `at + 8 <= src.len()`.
    u64::from_le_bytes(src[at..at + 8].try_into().expect("eight-byte window"))
}

/// First `t >= from` where three equal bytes start (`src[t] == src[t + 1]
/// == src[t + 2]`), or `src.len()`. Eight candidates per iteration: lane
/// `k` of `(w0 ^ w1) | (w1 ^ w2)` over three overlapping loads is zero
/// exactly when a triple starts at `p + k`, and the lowest set bit of
/// the zero-byte test is exact (a borrow can only leave a zero lane).
#[inline]
fn next_triple(src: &[u8], from: usize) -> usize {
    let n = src.len();
    let mut p = from;
    while p + 10 <= n {
        let (w0, w1, w2) = (word_at(src, p), word_at(src, p + 1), word_at(src, p + 2));
        let z = (w0 ^ w1) | (w1 ^ w2);
        let hit = z.wrapping_sub(LANE_LO) & !z & LANE_HI;
        if hit != 0 {
            return p + (hit.trailing_zeros() / 8) as usize;
        }
        p += 8;
    }
    while p + 2 < n {
        if src[p] == src[p + 1] && src[p + 1] == src[p + 2] {
            return p;
        }
        p += 1;
    }
    n
}

/// Length of the run of `src[from]` that starts at `from`, eight bytes
/// per compare against the broadcast byte.
#[inline]
fn run_len(src: &[u8], from: usize) -> usize {
    let n = src.len();
    let b = src[from];
    let mut p = from;
    while p + 8 <= n {
        let diff = word_at(src, p) ^ (b as u64 * LANE_LO);
        if diff != 0 {
            return p - from + (diff.trailing_zeros() / 8) as usize;
        }
        p += 8;
    }
    while p < n && src[p] == b {
        p += 1;
    }
    p - from
}

/// RLE-encode `src` into `out` (appended). PackBits-style framing: a
/// control byte `c < 0x80` introduces a literal run of `c + 1` bytes;
/// `c >= 0x80` repeats the next byte `c - 0x80 + 3` times (runs shorter
/// than 3 are cheaper as literals). Worst case grows by 1 byte per 128.
///
/// The parse is the greedy one, stated over whole spans: everything up
/// to the next triple is literal, cut into 128-byte frames from its
/// start; the run at the triple is cut into 130-byte repeat frames, and
/// a 1–2 byte remainder opens the next literal. That is byte for byte
/// what deciding frame by frame produces (a frame boundary inside a
/// literal span is never a triple start, one inside a run always is),
/// so both scans can go a word at a time.
pub fn rle_encode(src: &[u8], out: &mut Vec<u8>) {
    let n = src.len();
    let mut i = 0;
    while i < n {
        let t = next_triple(src, i);
        for frame in src[i..t].chunks(128) {
            out.push((frame.len() - 1) as u8);
            out.extend_from_slice(frame);
        }
        i = t;
        if i < n {
            let mut run = run_len(src, i);
            while run >= 3 {
                let take = run.min(130);
                out.extend_from_slice(&[0x80 + (take - 3) as u8, src[i]]);
                i += take;
                run -= take;
            }
        }
    }
}

/// Decode [`rle_encode`] output into `out` (appended). `expect` is the
/// decoded length the caller knows from the shard header; a stream that
/// overruns or underruns it is corrupt.
pub fn rle_decode(src: &[u8], expect: usize, out: &mut Vec<u8>) -> io::Result<()> {
    let before = out.len();
    let mut i = 0;
    while i < src.len() {
        let c = src[i];
        i += 1;
        if c < 0x80 {
            let len = c as usize + 1;
            if i + len > src.len() {
                return Err(invalid("shard RLE stream truncated inside a literal run".into()));
            }
            out.extend_from_slice(&src[i..i + len]);
            i += len;
        } else {
            let Some(&b) = src.get(i) else {
                return Err(invalid("shard RLE stream truncated inside a repeat run".into()));
            };
            i += 1;
            let len = (c - 0x80) as usize + 3;
            out.resize(out.len() + len, b);
        }
        if out.len() - before > expect {
            return Err(invalid(format!(
                "shard RLE stream decodes past its recorded length ({expect} bytes); \
                 the file is corrupt"
            )));
        }
    }
    if out.len() - before != expect {
        return Err(invalid(format!(
            "shard RLE stream decoded {} bytes, header records {expect}; the file is corrupt",
            out.len() - before
        )));
    }
    Ok(())
}

/// XOR `buf` in place with `base` (delta encode and decode are the same
/// involution). Lengths must match — a shard geometry change resets the
/// chain instead of deltaing across it.
pub fn xor_with(buf: &mut [u8], base: &[u8]) {
    assert_eq!(buf.len(), base.len(), "XOR-delta base length mismatch");
    for (b, &p) in buf.iter_mut().zip(base) {
        *b ^= p;
    }
}
