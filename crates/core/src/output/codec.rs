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
    // An `[at..at + 8]` slice is eight bytes; every caller loops on `at + 8 <= len`.
    u64::from_le_bytes(src[at..at + 8].try_into().expect("eight-byte window"))
}

/// The byte string the encoder scans: a payload, or its XOR against an
/// equal-length delta base, formed as the scans load it — so a delta
/// link is coded without an XOR image of the payload.
pub(super) trait Scan: Copy {
    fn len(self) -> usize;
    fn byte(self, at: usize) -> u8;
    fn word(self, at: usize) -> u64;
    /// Append `self[from..to]` to `out`.
    fn append(self, from: usize, to: usize, out: &mut Vec<u8>);
}

impl Scan for &[u8] {
    #[inline(always)]
    fn len(self) -> usize {
        <[u8]>::len(self)
    }
    #[inline(always)]
    fn byte(self, at: usize) -> u8 {
        self[at]
    }
    #[inline(always)]
    fn word(self, at: usize) -> u64 {
        word_at(self, at)
    }
    #[inline(always)]
    fn append(self, from: usize, to: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self[from..to]);
    }
}

/// `raw ^ base`, byte by byte.
#[derive(Clone, Copy)]
pub(super) struct Xor<'a>(&'a [u8], &'a [u8]);

impl<'a> Xor<'a> {
    pub(super) fn new(raw: &'a [u8], base: &'a [u8]) -> Xor<'a> {
        assert_eq!(raw.len(), base.len(), "XOR-delta base length mismatch");
        Xor(raw, base)
    }
}

impl Scan for Xor<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn byte(self, at: usize) -> u8 {
        self.0[at] ^ self.1[at]
    }
    #[inline(always)]
    fn word(self, at: usize) -> u64 {
        word_at(self.0, at) ^ word_at(self.1, at)
    }
    #[inline(always)]
    fn append(self, from: usize, to: usize, out: &mut Vec<u8>) {
        out.extend(self.0[from..to].iter().zip(&self.1[from..to]).map(|(a, b)| a ^ b));
    }
}

/// First `t >= from` where three equal bytes start (`src[t] == src[t + 1]
/// == src[t + 2]`), or `src.len()`. Eight candidates per iteration: lane
/// `k` of `(w0 ^ w1) | (w1 ^ w2)` over three overlapping loads is zero
/// exactly when a triple starts at `p + k`, and the lowest set bit of
/// the zero-byte test is exact (a borrow can only leave a zero lane).
#[inline]
fn next_triple<S: Scan>(src: S, from: usize) -> usize {
    let n = src.len();
    let mut p = from;
    while p + 10 <= n {
        let (w0, w1, w2) = (src.word(p), src.word(p + 1), src.word(p + 2));
        let z = (w0 ^ w1) | (w1 ^ w2);
        let hit = z.wrapping_sub(LANE_LO) & !z & LANE_HI;
        if hit != 0 {
            return p + (hit.trailing_zeros() / 8) as usize;
        }
        p += 8;
    }
    while p + 2 < n {
        if src.byte(p) == src.byte(p + 1) && src.byte(p + 1) == src.byte(p + 2) {
            return p;
        }
        p += 1;
    }
    n
}

/// Length of the run of `src[from]` that starts at `from`, eight bytes
/// per compare against the broadcast byte.
#[inline]
fn run_len<S: Scan>(src: S, from: usize) -> usize {
    let n = src.len();
    let b = src.byte(from);
    let mut p = from;
    while p + 8 <= n {
        let diff = src.word(p) ^ (b as u64 * LANE_LO);
        if diff != 0 {
            return p - from + (diff.trailing_zeros() / 8) as usize;
        }
        p += 8;
    }
    while p < n && src.byte(p) == b {
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
    rle_encode_spilled(src, out, usize::MAX, |_| Ok(())).expect("a no-op spill cannot fail");
}

/// [`rle_encode`] of `src`, handing `out` to `spill` whenever a frame
/// leaves it `spill_at` bytes or longer: the stream passes through one
/// buffer of about that size and is never held whole.
#[inline(always)]
pub(super) fn rle_encode_spilled<S: Scan>(
    src: S,
    out: &mut Vec<u8>,
    spill_at: usize,
    mut spill: impl FnMut(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let n = src.len();
    let mut i = 0;
    while i < n {
        let t = next_triple(src, i);
        while i < t {
            let end = t.min(i + 128);
            out.push((end - i - 1) as u8);
            src.append(i, end, out);
            i = end;
            if out.len() >= spill_at {
                spill(out)?;
            }
        }
        if i < n {
            let (b, mut run) = (src.byte(i), run_len(src, i));
            while run >= 3 {
                let take = run.min(130);
                out.extend_from_slice(&[0x80 + (take - 3) as u8, b]);
                i += take;
                run -= take;
            }
            if out.len() >= spill_at {
                spill(out)?;
            }
        }
    }
    Ok(())
}

/// One decoded frame of an RLE stream.
enum Frame<'a> {
    Literal(&'a [u8]),
    Repeat(usize, u8),
}

/// Walk an [`rle_encode`] stream that must decode to exactly `expect`
/// bytes, handing each frame to `apply` with its output offset. Every
/// frame is checked against the stream and against `expect` first.
#[inline(always)]
fn rle_walk(src: &[u8], expect: usize, mut apply: impl FnMut(usize, Frame)) -> io::Result<()> {
    let (mut i, mut at) = (0, 0);
    while i < src.len() {
        let c = src[i];
        i += 1;
        let (len, frame) = if c < 0x80 {
            let len = c as usize + 1;
            let Some(bytes) = src.get(i..i + len) else {
                return Err(invalid("shard RLE stream truncated inside a literal run".into()));
            };
            i += len;
            (len, Frame::Literal(bytes))
        } else {
            let Some(&b) = src.get(i) else {
                return Err(invalid("shard RLE stream truncated inside a repeat run".into()));
            };
            i += 1;
            let len = (c - 0x80) as usize + 3;
            (len, Frame::Repeat(len, b))
        };
        if at + len > expect {
            return Err(invalid(format!(
                "shard RLE stream decodes past its recorded length ({expect} bytes); \
                 the file is corrupt"
            )));
        }
        apply(at, frame);
        at += len;
    }
    if at != expect {
        return Err(invalid(format!(
            "shard RLE stream decoded {at} bytes, header records {expect}; the file is corrupt"
        )));
    }
    Ok(())
}

/// Decode [`rle_encode`] output into `out` (appended). `expect` is the
/// decoded length the caller knows from the shard header; a stream that
/// overruns or underruns it is corrupt.
pub fn rle_decode(src: &[u8], expect: usize, out: &mut Vec<u8>) -> io::Result<()> {
    rle_walk(src, expect, |_, frame| match frame {
        Frame::Literal(bytes) => out.extend_from_slice(bytes),
        Frame::Repeat(len, b) => out.resize(out.len() + len, b),
    })
}

/// XOR the decode of an [`rle_encode`] stream into `out` in place — a
/// delta link applied to its base's payload. The stream must decode to
/// exactly `out.len()` bytes; zero repeats, most of a delta, cost nothing.
pub(super) fn rle_decode_xor(src: &[u8], out: &mut [u8]) -> io::Result<()> {
    rle_walk(src, out.len(), |at, frame| match frame {
        Frame::Literal(bytes) => xor_with(&mut out[at..at + bytes.len()], bytes),
        Frame::Repeat(_, 0) => {}
        Frame::Repeat(len, b) => out[at..at + len].iter_mut().for_each(|x| *x ^= b),
    })
}

/// XOR `buf` in place with `base` (delta encode and decode are the same
/// involution). Lengths must match — a shard geometry change resets the
/// chain instead of deltaing across it.
pub(super) fn xor_with(buf: &mut [u8], base: &[u8]) {
    assert_eq!(buf.len(), base.len(), "XOR-delta base length mismatch");
    for (b, &p) in buf.iter_mut().zip(base) {
        *b ^= p;
    }
}
