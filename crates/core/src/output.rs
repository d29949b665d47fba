//! The overlapped output pipeline: per-rank checkpoint/snapshot shards,
//! delta + RLE compression, and the async double-buffered writer.
//!
//! The paper's production runs emitted 500 GB 3-D snapshots while
//! sustaining 15.2 TFlops — output has to hide behind compute the same
//! way halo traffic does. Three pieces reproduce that discipline here:
//!
//! 1. **Shards (format v3).** Each rank serializes its *owned* region —
//!    no gather, no rank-0 bottleneck — into a self-describing file:
//!
//!    ```text
//!    magic "YYCORE\0\3"  (8 bytes)
//!    nr, nth, nph, gth, gph : u64 × 5     (full-panel geometry)
//!    step : u64 ; time : f64 ; dt_cache : f64
//!    pth, pph, rank, panel : u64 × 4      (layout + owner)
//!    j0, tnth, k0, tnph : u64 × 4         (owned tile, interior coords)
//!    flags : u64                          (bit 0 delta, bit 1 RLE)
//!    base_step : u64                      (delta base; MAX when raw)
//!    raw_len, enc_len : u64 × 2
//!    payload : enc_len bytes              (encoded owned region)
//!    hashed_len : u64 ; crc32 : u32       (integrity footer)
//!    ```
//!
//!    The CRC covers the header and the **uncompressed** payload, so a
//!    decode of corrupt input can never pass the check, whatever the
//!    codec does with the bytes. [`merge_shards`] reassembles any
//!    complete shard set into the serial-format [`Checkpoint`]
//!    byte-identically (the restart-onto-any-layout property).
//!
//! 2. **Codecs.** A zero-dependency XOR-delta against the previous
//!    checkpoint's payload (most field bytes are unchanged between
//!    nearby checkpoints, so the delta is zero-heavy) chained into a
//!    byte-wise RLE codec (PackBits-style: literal runs and repeat runs,
//!    worst-case expansion 1/128 + 2 bytes). Delta shards name their
//!    base step; the merging reader walks the chain back to the nearest
//!    self-contained shard.
//!
//! 3. **The writer.** [`OutputStage`] owns a two-slot buffer pool and
//!    (in async mode) one writer thread per rank. The producer packs
//!    into a free slot and hands it off; encoding and the file write
//!    overlap the next RK4 steps when a core is free for the writer,
//!    and are paid in full when none is — so an event is kept as cheap
//!    as its memory traffic: word-wise scans, no per-event allocation.
//!    When both slots are in flight the producer blocks — that
//!    backpressure is measured and charged to the `writer_wait` phase
//!    (and the `output` kernel counter), so the run report shows
//!    exactly how much output cost the pipeline failed to hide.

use crate::checkpoint::{
    blank_panels, check_footer, invalid, read_exact_ctx, read_header, read_u64, Checkpoint, Crc32,
    HashingReader, MAX_DIM,
};
use crate::config::RunConfig;
use crate::parallel::parallel_checkpoint;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use yy_field::{unpack_region, Region, Shape};
use yy_mhd::State;

/// Shard format magic: same prefix as the serial checkpoint, version 3.
pub(crate) const SHARD_MAGIC: &[u8; 8] = b"YYCORE\0\x03";

/// `base_step` sentinel for self-contained (non-delta) shards.
const NO_BASE: u64 = u64::MAX;

/// Payload flag: bytes are XOR-deltas against the `base_step` payload.
const FLAG_DELTA: u64 = 1;
/// Payload flag: bytes are RLE-compressed.
const FLAG_RLE: u64 = 2;

// ---------------------------------------------------------------- codec

/// Checkpoint/snapshot payload encoding, selected by `ckpt_compress=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptCodec {
    /// Raw little-endian f64 bytes (the v2 discipline).
    #[default]
    Raw,
    /// Byte-wise run-length compression of the payload.
    Rle,
    /// XOR-delta against the previous checkpoint's payload, then RLE.
    /// The first shard of a run (or after a re-tile) is written
    /// self-contained; later shards name their base step.
    Delta,
}

impl CkptCodec {
    /// Parse a `ckpt_compress=` value.
    pub fn parse(s: &str) -> Result<CkptCodec, String> {
        match s {
            "none" | "raw" => Ok(CkptCodec::Raw),
            "rle" => Ok(CkptCodec::Rle),
            "delta" => Ok(CkptCodec::Delta),
            other => Err(format!("expected none|rle|delta, got '{other}'")),
        }
    }

    /// Canonical name (reports, CLI echo).
    pub fn name(&self) -> &'static str {
        match self {
            CkptCodec::Raw => "none",
            CkptCodec::Rle => "rle",
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

// ------------------------------------------------------------- shard v3

/// Everything a shard's header says about its origin and placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMeta {
    /// Full-panel padded geometry (identical across the set).
    pub shape: Shape,
    /// Step counter at capture.
    pub step: u64,
    /// Simulated time at capture.
    pub time: f64,
    /// Cached CFL step at capture.
    pub dt_cache: f64,
    /// Tile layout that wrote the set (θ × φ tiles per panel).
    pub pth: u64,
    /// φ tiles per panel.
    pub pph: u64,
    /// World rank that owned this block.
    pub rank: u64,
    /// Panel index (0 = Yin, 1 = Yang).
    pub panel: u64,
    /// First owned colatitude index (interior coordinates).
    pub j0: u64,
    /// Owned colatitude extent.
    pub tnth: u64,
    /// First owned longitude index.
    pub k0: u64,
    /// Owned longitude extent.
    pub tnph: u64,
    /// Payload flags (delta / RLE bits).
    pub flags: u64,
    /// Base step of a delta payload ([`NO_BASE`] when self-contained).
    pub base_step: u64,
}

impl ShardMeta {
    /// Bytes of the uncompressed payload this tile must carry: 8 arrays
    /// × region points × 8 bytes.
    fn expected_raw_len(&self) -> u64 {
        8 * self.shape.nr as u64 * self.tnth * self.tnph * 8
    }

    /// The owned block in full-panel interior coordinates.
    fn global_region(&self) -> Region {
        Region {
            i0: 0,
            i1: self.shape.nr,
            j0: self.j0 as isize,
            j1: (self.j0 + self.tnth) as isize,
            k0: self.k0 as isize,
            k1: (self.k0 + self.tnph) as isize,
        }
    }
}

/// Canonical shard file name for `(step, rank)`. Steps sort
/// lexicographically, so a directory listing is also a timeline.
pub fn shard_file_name(step: u64, rank: usize) -> String {
    format!("step{step:010}.r{rank:04}.yys")
}

/// Parse a [`shard_file_name`] back into `(step, rank)`.
pub fn parse_shard_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("step")?;
    let (step, rest) = rest.split_at_checked(10)?;
    let rest = rest.strip_prefix(".r")?;
    let rank = rest.strip_suffix(".yys")?;
    Some((step.parse().ok()?, rank.parse().ok()?))
}

/// Pack the owned region of `state` (8 arrays, canonical order, f64
/// little-endian) into `raw`, replacing its contents: one pass, each
/// owned row converted straight into the (pooled) buffer.
pub(crate) fn pack_shard_payload(state: &State, tnth: usize, tnph: usize, raw: &mut Vec<u8>) {
    let nr = state.shape().nr;
    raw.clear();
    raw.reserve(8 * nr * tnth * tnph * 8);
    for arr in state.arrays() {
        for k in 0..tnph as isize {
            for j in 0..tnth as isize {
                let at = raw.len();
                raw.resize(at + 8 * nr, 0);
                for (dst, v) in raw[at..].chunks_exact_mut(8).zip(arr.row(j, k)) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
}

/// Serialize one shard into `out` (replacing its contents): header,
/// encoded payload, CRC footer. `raw` is the uncompressed payload from
/// [`pack_shard_payload`]; `base` is the previous checkpoint's step and
/// payload when the codec is [`CkptCodec::Delta`] and one exists;
/// `delta` is scratch for the XOR image. The encoder appends straight
/// into the file image, so with recycled `delta`/`out` buffers an event
/// allocates nothing. Returns the flags and base step actually used (a
/// delta request without a base degrades to a self-contained RLE shard).
pub(crate) fn encode_shard(
    meta: &ShardMeta,
    raw: &[u8],
    base: Option<(u64, &[u8])>,
    codec: CkptCodec,
    delta: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> (u64, u64) {
    let base = base.filter(|(_, prev)| codec == CkptCodec::Delta && prev.len() == raw.len());
    let (flags, base_step) = match (codec, base) {
        (CkptCodec::Raw, _) => (0, NO_BASE),
        (_, None) => (FLAG_RLE, NO_BASE),
        (_, Some((base_step, _))) => (FLAG_DELTA | FLAG_RLE, base_step),
    };
    out.clear();
    // Worst case (header + every literal frame full + footer), so the
    // appends below never regrow a recycled buffer.
    out.reserve(256 + raw.len() + raw.len() / 128);
    out.extend_from_slice(SHARD_MAGIC);
    for v in [
        meta.shape.nr as u64,
        meta.shape.nth as u64,
        meta.shape.nph as u64,
        meta.shape.gth as u64,
        meta.shape.gph as u64,
        meta.step,
        meta.time.to_bits(),
        meta.dt_cache.to_bits(),
        meta.pth,
        meta.pph,
        meta.rank,
        meta.panel,
        meta.j0,
        meta.tnth,
        meta.k0,
        meta.tnph,
        flags,
        base_step,
        raw.len() as u64,
        0, // enc_len, patched below once the payload is encoded
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let header_len = out.len();
    match (codec, base) {
        (CkptCodec::Raw, _) => out.extend_from_slice(raw),
        (_, None) => rle_encode(raw, out),
        (_, Some((_, prev))) => {
            delta.clear();
            delta.extend(raw.iter().zip(prev).map(|(a, b)| a ^ b));
            rle_encode(delta, out);
        }
    }
    let enc_len = (out.len() - header_len) as u64;
    out[header_len - 8..header_len].copy_from_slice(&enc_len.to_le_bytes());
    // The CRC covers the header and the *uncompressed* payload: hash the
    // raw bytes but write the encoded ones, so codec bugs cannot forge
    // integrity.
    let mut crc = Crc32::new();
    crc.update(&out[..header_len]);
    crc.update(raw);
    let hashed_len = (header_len + raw.len()) as u64;
    out.extend_from_slice(&hashed_len.to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    (flags, base_step)
}

/// Read one shard: header and **decoded** (uncompressed) payload, with
/// the CRC footer verified over header + uncompressed bytes. `base`
/// resolves a delta shard's base payload by step; self-contained shards
/// never call it.
pub(crate) fn read_shard<R: Read>(
    r: &mut R,
    base: &mut dyn FnMut(u64) -> io::Result<Vec<u8>>,
) -> io::Result<(ShardMeta, Vec<u8>)> {
    let mut hr = HashingReader { inner: r, crc: Crc32::new(), len: 0 };
    let mut magic = [0u8; 8];
    read_exact_ctx(&mut hr, &mut magic, "shard magic")?;
    if &magic != SHARD_MAGIC {
        return Err(if magic[..7] == SHARD_MAGIC[..7] {
            invalid(format!(
                "unsupported shard version {} (this build reads version {})",
                magic[7], SHARD_MAGIC[7]
            ))
        } else {
            invalid("not a yycore checkpoint shard (bad magic)".to_string())
        });
    }
    let (shape, step, time, dt_cache) = read_header(&mut hr, "shard")?;
    let (nth, nph) = (shape.nth as u64, shape.nph as u64);
    let pth = read_u64(&mut hr, "shard layout (pth)")?;
    let pph = read_u64(&mut hr, "shard layout (pph)")?;
    let rank = read_u64(&mut hr, "shard rank")?;
    let panel = read_u64(&mut hr, "shard panel")?;
    let j0 = read_u64(&mut hr, "shard tile (j0)")?;
    let tnth = read_u64(&mut hr, "shard tile (nth)")?;
    let k0 = read_u64(&mut hr, "shard tile (k0)")?;
    let tnph = read_u64(&mut hr, "shard tile (nph)")?;
    let flags = read_u64(&mut hr, "shard flags")?;
    let base_step = read_u64(&mut hr, "shard base step")?;
    let raw_len = read_u64(&mut hr, "shard payload length")?;
    let enc_len = read_u64(&mut hr, "shard encoded length")?;
    let meta = ShardMeta {
        shape,
        step,
        time,
        dt_cache,
        pth,
        pph,
        rank,
        panel,
        j0,
        tnth,
        k0,
        tnph,
        flags,
        base_step,
    };
    if panel > 1 {
        return Err(invalid(format!("shard panel index {panel} (must be 0 or 1)")));
    }
    if pth == 0 || pph == 0 || pth > MAX_DIM || pph > MAX_DIM {
        return Err(invalid(format!("implausible shard layout {pth}x{pph}")));
    }
    if j0 + tnth > nth || k0 + tnph > nph || tnth == 0 || tnph == 0 {
        return Err(invalid(format!(
            "shard tile [{j0}, {j0}+{tnth}) x [{k0}, {k0}+{tnph}) does not fit the \
             {nth} x {nph} panel interior; header is corrupt"
        )));
    }
    if raw_len != meta.expected_raw_len() {
        return Err(invalid(format!(
            "shard payload length mismatch: header records {raw_len} bytes, the tile \
             geometry requires {}",
            meta.expected_raw_len()
        )));
    }
    if enc_len > raw_len + raw_len / 128 + 16 {
        return Err(invalid(format!(
            "shard encoded length {enc_len} exceeds the codec bound for {raw_len} raw \
             bytes; header is corrupt"
        )));
    }
    let header_len = hr.len;
    let mut header_crc = hr.crc;
    let mut encoded = vec![0u8; enc_len as usize];
    // Read the encoded payload from the *raw* reader: the CRC hashes the
    // decoded bytes instead.
    read_exact_ctx(hr.inner, &mut encoded, "shard payload")?;
    let mut raw = Vec::with_capacity(raw_len as usize);
    if flags & FLAG_RLE != 0 {
        rle_decode(&encoded, raw_len as usize, &mut raw)?;
    } else {
        if encoded.len() != raw_len as usize {
            return Err(invalid(format!(
                "shard raw payload is {} bytes, header records {raw_len}",
                encoded.len()
            )));
        }
        raw = encoded;
    }
    if flags & FLAG_DELTA != 0 {
        if base_step == NO_BASE {
            return Err(invalid(
                "shard is flagged delta but names no base step; header is corrupt".to_string(),
            ));
        }
        let prev = base(base_step)?;
        if prev.len() != raw.len() {
            return Err(invalid(format!(
                "shard delta base (step {base_step}) is {} bytes, this shard is {}; \
                 the chain is inconsistent",
                prev.len(),
                raw.len()
            )));
        }
        xor_with(&mut raw, &prev);
    }
    header_crc.update(&raw);
    check_footer(
        hr.inner,
        "shard",
        header_len + raw_len,
        header_crc.finish(),
        format_args!(" (step {step}, rank {rank})"),
    )?;
    Ok((meta, raw))
}

/// Load and fully decode the shard for `(step, rank)` from `dir`,
/// following the delta chain backwards until a self-contained base.
pub(crate) fn load_shard(dir: &Path, step: u64, rank: usize) -> io::Result<(ShardMeta, Vec<u8>)> {
    let path = dir.join(shard_file_name(step, rank));
    let bytes = std::fs::read(&path).map_err(|e| {
        io::Error::new(e.kind(), format!("reading shard {}: {e}", path.display()))
    })?;
    let mut resolve = |base: u64| -> io::Result<Vec<u8>> {
        if base >= step {
            return Err(invalid(format!(
                "shard delta chain does not terminate: step {step} names base {base}"
            )));
        }
        Ok(load_shard(dir, base, rank)?.1)
    };
    read_shard(&mut bytes.as_slice(), &mut resolve)
}

/// The steps for which `dir` holds at least one shard, ascending.
pub fn shard_steps(dir: &Path) -> io::Result<Vec<u64>> {
    let mut steps: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some((step, _)) = parse_shard_name(&entry.file_name().to_string_lossy()) {
            steps.push(step);
        }
    }
    steps.sort_unstable();
    steps.dedup();
    Ok(steps)
}

/// Reassemble a shard set into the serial-format [`Checkpoint`] —
/// byte-identical to the one a serial run (or the rank-0 gather path)
/// would have written at the same step.
///
/// `step` selects a specific shard set; `None` takes the newest step
/// with a complete, mutually consistent set. The configuration must
/// match the set's geometry: the unowned ghost padding of a serial
/// checkpoint carries *initialization* values, so the merger rebuilds
/// them from `cfg` exactly as the serial driver does, places every
/// shard's owned block, and refills the overset frames and walls.
pub fn merge_shards(cfg: &RunConfig, dir: &Path, step: Option<u64>) -> io::Result<Checkpoint> {
    let steps = shard_steps(dir)?;
    if steps.is_empty() {
        return Err(invalid(format!("no checkpoint shards found in {}", dir.display())));
    }
    let candidates: Vec<u64> = match step {
        Some(s) => {
            if !steps.contains(&s) {
                return Err(invalid(format!(
                    "no shards for step {s} in {} (available steps: {steps:?})",
                    dir.display()
                )));
            }
            vec![s]
        }
        // Newest first; fall back to older sets if the newest is
        // incomplete (a kill can land mid-flight between two ranks'
        // atomic renames).
        None => steps.iter().rev().copied().collect(),
    };
    let mut last_err: Option<io::Error> = None;
    for s in candidates {
        match merge_step(cfg, dir, s) {
            Ok(ck) => return Ok(ck),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one candidate step was tried"))
}

fn merge_step(cfg: &RunConfig, dir: &Path, step: u64) -> io::Result<Checkpoint> {
    // Which ranks wrote a shard at this step?
    let mut ranks: Vec<usize> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some((s, r)) = parse_shard_name(&entry?.file_name().to_string_lossy()) {
            if s == step {
                ranks.push(r);
            }
        }
    }
    ranks.sort_unstable();
    let first = load_shard(dir, step, *ranks.first().expect("caller saw this step"))?;
    let world = (2 * first.0.pth * first.0.pph) as usize;
    if ranks != (0..world).collect::<Vec<_>>() {
        return Err(invalid(format!(
            "shard set at step {step} is incomplete: layout {}x{} needs ranks 0..{world}, \
             found {ranks:?}",
            first.0.pth, first.0.pph
        )));
    }
    let grid = cfg.grid();
    let shape = grid.full_shape();
    if first.0.shape != shape {
        return Err(invalid(format!(
            "shard geometry {:?} does not match the run configuration {:?}",
            first.0.shape, shape
        )));
    }
    let mut panels = blank_panels(cfg, &grid);
    // Coverage check: each panel's interior must be tiled exactly once.
    let mut covered = [vec![false; shape.nth * shape.nph], vec![false; shape.nth * shape.nph]];
    for rank in 0..world {
        let (meta, raw) = if rank == first.0.rank as usize {
            first.clone()
        } else {
            load_shard(dir, step, rank)?
        };
        for (what, a, b) in [
            ("layout", meta.pth, first.0.pth),
            ("layout", meta.pph, first.0.pph),
            ("step", meta.step, first.0.step),
            ("time", meta.time.to_bits(), first.0.time.to_bits()),
            ("dt cache", meta.dt_cache.to_bits(), first.0.dt_cache.to_bits()),
        ] {
            if a != b {
                return Err(invalid(format!(
                    "shard set at step {step} is inconsistent: rank {rank} disagrees with \
                     rank {} on the {what}",
                    first.0.rank
                )));
            }
        }
        if meta.shape != shape || meta.rank != rank as u64 {
            return Err(invalid(format!(
                "shard set at step {step} is inconsistent: rank {rank} header says rank {} \
                 shape {:?}",
                meta.rank, meta.shape
            )));
        }
        let cover = &mut covered[meta.panel as usize];
        for j in meta.j0..meta.j0 + meta.tnth {
            for k in meta.k0..meta.k0 + meta.tnph {
                let cell = &mut cover[j as usize * shape.nph + k as usize];
                if *cell {
                    return Err(invalid(format!(
                        "shard set at step {step} overlaps at panel {} node ({j}, {k})",
                        meta.panel
                    )));
                }
                *cell = true;
            }
        }
        // Place the owned block.
        let vals: Vec<f64> = raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let region = meta.global_region();
        let mut rest: &[f64] = &vals;
        for arr in panels[meta.panel as usize].arrays_mut() {
            rest = unpack_region(arr, region, rest);
        }
        debug_assert!(rest.is_empty());
    }
    for (p, cover) in covered.iter().enumerate() {
        if let Some(hole) = cover.iter().position(|&c| !c) {
            return Err(invalid(format!(
                "shard set at step {step} leaves panel {p} node ({}, {}) uncovered",
                hole / shape.nph,
                hole % shape.nph
            )));
        }
    }
    let [yin, yang] = panels;
    Ok(parallel_checkpoint(cfg, yin, yang, step, first.0.time, first.0.dt_cache))
}

/// Whether `path` names a shard *directory* (as opposed to a serial
/// checkpoint file): used by `resume=` to pick the reader.
pub fn is_shard_dir(path: &Path) -> bool {
    path.is_dir()
}

// ------------------------------------------------------ the writer stage

/// Totals the writer accumulates (readable while the stage runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Files durably written (checkpoint shards + snapshot products).
    pub files_written: u64,
    /// Encoded bytes written to disk.
    pub bytes_written: u64,
    /// Uncompressed payload bytes behind those writes.
    pub bytes_raw: u64,
    /// Wall nanoseconds spent on the consumer side — shard encoding
    /// plus file writes (the cost the async mode hides behind compute).
    pub write_wall_ns: u64,
    /// Wall nanoseconds the *producer* spent blocked on the buffer pool
    /// (async backpressure) or writing inline (sync mode).
    pub writer_wait_ns: u64,
}

/// One queued write: either a fully serialized file image (`shard:
/// None`, written verbatim) or a raw shard payload (`shard: Some`) that
/// the *consumer* — the writer thread in async mode — encodes with the
/// delta/RLE codec before writing, keeping everything but the pack
/// memcpy off the step path.
struct Job {
    path: PathBuf,
    bytes: Vec<u8>,
    raw_len: u64,
    shard: Option<(ShardMeta, CkptCodec)>,
}

/// Shard-encoding state owned by the consumer side: the previous raw
/// payload (the delta base) and its step, the XOR-image scratch and the
/// file image — recycled event to event, so encoding allocates nothing.
/// One consumer at a time touches it — the writer thread in async mode,
/// the submitting producer in sync mode — so the mutex never contends.
#[derive(Default)]
struct EncState {
    prev: Vec<u8>,
    prev_step: Option<u64>,
    delta: Vec<u8>,
    out: Vec<u8>,
}

struct PoolState {
    free: Vec<Vec<u8>>,
    jobs: VecDeque<Job>,
    open: bool,
    in_flight: usize,
    err: Option<String>,
}

struct Shared {
    state: Mutex<PoolState>,
    // Signaled when a buffer returns to the pool (producer side waits).
    free_cv: Condvar,
    // Signaled when work arrives or the stage closes (writer side waits).
    work_cv: Condvar,
    enc: Mutex<EncState>,
    files_written: AtomicU64,
    bytes_written: AtomicU64,
    bytes_raw: AtomicU64,
    write_wall_ns: AtomicU64,
}

impl Shared {
    /// Encode (shard jobs) and write one job; returns the buffer to
    /// recycle. All of this runs on the consumer side — hidden behind
    /// compute in async mode, inline (the measured baseline) in sync.
    fn write_one(&self, job: Job) -> Vec<u8> {
        let Job { path, mut bytes, raw_len, shard } = job;
        let t0 = std::time::Instant::now();
        let (res, on_disk) = match shard {
            None => (write_atomic(&path, &bytes), bytes.len() as u64),
            Some((meta, codec)) => {
                let mut enc = self.enc.lock().unwrap_or_else(|p| p.into_inner());
                let EncState { prev, prev_step, delta, out } = &mut *enc;
                // Only an *older* step is a base: re-emitting a step
                // (a 0-step run's final shard) must not overwrite the
                // file with a delta against itself.
                let base = prev_step.filter(|&s| s < meta.step).map(|s| (s, prev.as_slice()));
                encode_shard(&meta, &bytes, base, codec, delta, out);
                let res = write_atomic(&path, out);
                if res.is_ok() {
                    // The payload just written becomes the next delta
                    // base; the old base buffer goes back to the pool.
                    std::mem::swap(prev, &mut bytes);
                    *prev_step = Some(meta.step);
                }
                (res, out.len() as u64)
            }
        };
        self.write_wall_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match res {
            Ok(()) => {
                self.files_written.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(on_disk, Ordering::Relaxed);
                self.bytes_raw.fetch_add(raw_len, Ordering::Relaxed);
            }
            Err(e) => {
                let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
                st.err.get_or_insert_with(|| format!("writing {}: {e}", path.display()));
            }
        }
        bytes
    }
}

/// Write `bytes` to `path` atomically: a sibling temp file is renamed
/// into place, so a reader (or a post-kill merge) never sees a torn
/// file — any shard that exists is complete and CRC-checked.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The per-rank output stage: a two-slot buffer pool feeding either an
/// inline write (sync mode, the before/after baseline) or a dedicated
/// writer thread (async mode, writes hidden behind compute).
///
/// Producer protocol: [`OutputStage::acquire`] a free buffer (blocking
/// when both slots are in flight — the measured backpressure), fill it
/// with a serialized file image, [`OutputStage::submit`] it. The stage
/// must be [`OutputStage::finish`]ed to surface write errors.
pub struct OutputStage {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
    async_mode: bool,
}

impl OutputStage {
    /// Build a stage. `async_mode = false` keeps every write on the
    /// caller's thread; `true` spawns the writer thread.
    pub fn new(async_mode: bool) -> OutputStage {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                free: vec![Vec::new(), Vec::new()],
                jobs: VecDeque::new(),
                open: true,
                in_flight: 0,
                err: None,
            }),
            free_cv: Condvar::new(),
            work_cv: Condvar::new(),
            enc: Mutex::new(EncState::default()),
            files_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_raw: AtomicU64::new(0),
            write_wall_ns: AtomicU64::new(0),
        });
        let handle = if async_mode {
            let sh = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("yy-output-writer".into())
                    .spawn(move || writer_main(&sh))
                    .expect("spawn output writer thread"),
            )
        } else {
            None
        };
        OutputStage { shared, handle, async_mode }
    }

    /// Whether writes overlap compute.
    pub fn is_async(&self) -> bool {
        self.async_mode
    }

    /// Take a free buffer, blocking while both slots are in flight.
    /// Returns the buffer (cleared) and the nanoseconds spent blocked —
    /// the caller charges them to the `writer_wait` phase.
    pub fn acquire(&self) -> (Vec<u8>, u64) {
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(mut buf) = st.free.pop() {
            buf.clear();
            return (buf, 0);
        }
        let t0 = std::time::Instant::now();
        loop {
            st = self.shared.free_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            if let Some(mut buf) = st.free.pop() {
                buf.clear();
                return (buf, t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Hand a filled buffer to the writer. In async mode this returns
    /// immediately (the write overlaps the next steps); in sync mode the
    /// write happens here and its nanoseconds are returned so the caller
    /// can charge them like a blocked acquire.
    pub fn submit(&self, path: PathBuf, bytes: Vec<u8>, raw_len: u64) -> u64 {
        self.submit_job(Job { path, bytes, raw_len, shard: None })
    }

    /// Hand a *raw* shard payload to the writer; the consumer side
    /// encodes it (delta chain, RLE) and writes the result, so in async
    /// mode the producer pays only for the pack memcpy. Shards must be
    /// submitted in step order — the consumer chains each one against
    /// the previous payload it saw.
    pub fn submit_shard(
        &self,
        path: PathBuf,
        raw: Vec<u8>,
        meta: ShardMeta,
        codec: CkptCodec,
    ) -> u64 {
        let raw_len = raw.len() as u64;
        self.submit_job(Job { path, bytes: raw, raw_len, shard: Some((meta, codec)) })
    }

    fn submit_job(&self, job: Job) -> u64 {
        if self.async_mode {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.jobs.push_back(job);
            drop(st);
            self.shared.work_cv.notify_one();
            0
        } else {
            let t0 = std::time::Instant::now();
            let buf = self.shared.write_one(job);
            let ns = t0.elapsed().as_nanos() as u64;
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.free.push(buf);
            ns
        }
    }

    /// Block until every submitted write is durable. Returns the
    /// nanoseconds spent blocked (charged to `writer_wait`).
    pub fn flush(&self) -> u64 {
        let t0 = std::time::Instant::now();
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        while !st.jobs.is_empty() || st.in_flight > 0 {
            st = self.shared.free_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        t0.elapsed().as_nanos() as u64
    }

    /// Totals so far (the report reads these after a flush).
    pub fn totals(&self) -> IoTotals {
        IoTotals {
            files_written: self.shared.files_written.load(Ordering::Relaxed),
            bytes_written: self.shared.bytes_written.load(Ordering::Relaxed),
            bytes_raw: self.shared.bytes_raw.load(Ordering::Relaxed),
            write_wall_ns: self.shared.write_wall_ns.load(Ordering::Relaxed),
            writer_wait_ns: 0,
        }
    }

    /// Drain the queue, stop the writer thread, and surface any write
    /// error. Returns the final totals.
    pub fn finish(mut self) -> Result<IoTotals, String> {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.open = false;
            drop(st);
            self.shared.work_cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            h.join().map_err(|_| "output writer thread panicked".to_string())?;
        }
        let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        match &st.err {
            Some(e) => Err(e.clone()),
            None => Ok(IoTotals {
                files_written: self.shared.files_written.load(Ordering::Relaxed),
                bytes_written: self.shared.bytes_written.load(Ordering::Relaxed),
                bytes_raw: self.shared.bytes_raw.load(Ordering::Relaxed),
                write_wall_ns: self.shared.write_wall_ns.load(Ordering::Relaxed),
                writer_wait_ns: 0,
            }),
        }
    }
}

impl Drop for OutputStage {
    fn drop(&mut self) {
        // A dropped stage (failed pass teardown) must not leak the
        // thread: close the queue and let it drain.
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.open = false;
            drop(st);
            self.shared.work_cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn writer_main(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    st.in_flight += 1;
                    break Some(job);
                }
                if !st.open {
                    break None;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(job) = job else { return };
        let buf = shared.write_one(job);
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.in_flight -= 1;
        if st.free.len() < 2 {
            st.free.push(buf);
        }
        drop(st);
        shared.free_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSim;
    use yy_testkit::{check_with, tk_assert, tk_assert_eq, Config, Gen};

    fn gen_bytes(g: &mut Gen) -> Vec<u8> {
        let n = g.range_usize(0, 4000);
        let mut v = Vec::with_capacity(n);
        while v.len() < n {
            match g.below(4) {
                // Long constant run (the XOR-delta shape).
                0 => {
                    let b = g.below(256) as u8;
                    let run = g.range_usize(1, 600).min(n - v.len());
                    v.extend(std::iter::repeat_n(b, run));
                }
                // Short noisy stretch (raw f64 mantissas).
                _ => {
                    let run = g.range_usize(1, 40).min(n - v.len());
                    for _ in 0..run {
                        v.push(g.below(256) as u8);
                    }
                }
            }
        }
        v
    }

    /// The byte-at-a-time encoder [`rle_encode`] replaced, kept verbatim
    /// as the stream oracle: format v3 is whatever this loop emits.
    fn rle_encode_reference(src: &[u8], out: &mut Vec<u8>) {
        let n = src.len();
        let mut i = 0;
        while i < n {
            let b = src[i];
            let mut run = 1;
            while i + run < n && src[i + run] == b && run < 130 {
                run += 1;
            }
            if run >= 3 {
                out.push(0x80 + (run - 3) as u8);
                out.push(b);
                i += run;
                continue;
            }
            // Literal segment: scan forward until a repeat run of >= 3
            // starts (or the 128-byte frame fills).
            let start = i;
            i += run;
            while i < n && i - start < 128 {
                let b2 = src[i];
                let mut r2 = 1;
                while i + r2 < n && src[i + r2] == b2 && r2 < 3 {
                    r2 += 1;
                }
                if r2 >= 3 {
                    break;
                }
                i += r2;
            }
            if i - start > 128 {
                i = start + 128;
            }
            out.push((i - start - 1) as u8);
            out.extend_from_slice(&src[start..i]);
        }
    }

    /// Inputs aimed at the encoder's edges, 0..=700 bytes long so the
    /// sub-word scalar tails run: noise, two-symbol noise, runs of 1–5,
    /// runs across the 130 cap, literal frames across 128 with an equal
    /// pair on the boundary, and f64-delta-like words.
    fn gen_edge_bytes(g: &mut Gen) -> Vec<u8> {
        let n = g.range_usize(0, 701);
        let mut v: Vec<u8> = Vec::with_capacity(n + 8);
        let shape = g.below(6);
        while v.len() < n {
            match shape {
                0 => v.push(g.below(256) as u8),
                1 => v.push(g.below(2) as u8),
                2 => {
                    let b = g.below(4) as u8;
                    v.extend(std::iter::repeat_n(b, g.range_usize(1, 6)));
                }
                3 => {
                    let b = g.below(256) as u8;
                    v.extend(std::iter::repeat_n(b, g.range_usize(120, 400)));
                    v.extend((0..g.range_usize(0, 4)).map(|_| g.below(256) as u8));
                }
                4 => {
                    // Distinct neighbours (no pair, no triple) up to one
                    // or two bytes short of a frame end, then a pair.
                    let gap = g.range_usize(120, 132);
                    for _ in 0..gap {
                        let last = v.last().copied().unwrap_or(0);
                        v.push(last.wrapping_add(1 + g.below(200) as u8));
                    }
                    let last = v.last().copied().unwrap_or(0);
                    v.extend(std::iter::repeat_n(last, g.range_usize(1, 3)));
                }
                _ => {
                    v.extend((0..5).map(|_| g.below(256) as u8));
                    v.extend([0, 0, 0]);
                }
            }
        }
        v.truncate(n);
        v
    }

    #[test]
    fn rle_stream_is_the_reference_encoders_byte_for_byte() {
        for (name, gen) in [
            ("rle_oracle_edges", gen_edge_bytes as fn(&mut Gen) -> Vec<u8>),
            ("rle_oracle_mixed", gen_bytes),
        ] {
            check_with(Config::with_cases(400), name, gen, |src| {
                let (mut enc, mut want) = (Vec::new(), Vec::new());
                rle_encode(src, &mut enc);
                rle_encode_reference(src, &mut want);
                tk_assert!(enc == want, "stream differs from the reference on {} bytes", src.len());
                let mut dec = Vec::new();
                rle_decode(&enc, src.len(), &mut dec).map_err(|e| e.to_string())?;
                tk_assert!(dec == *src, "RLE roundtrip changed the bytes");
                Ok(())
            });
        }
    }

    #[test]
    fn rle_roundtrips_and_respects_the_expansion_bound() {
        check_with(Config::with_cases(60), "rle_roundtrip", gen_bytes, |src| {
            let mut enc = Vec::new();
            rle_encode(src, &mut enc);
            tk_assert!(
                enc.len() <= src.len() + src.len() / 128 + 2,
                "encoded {} bytes from {} (bound exceeded)",
                enc.len(),
                src.len()
            );
            let mut dec = Vec::new();
            rle_decode(&enc, src.len(), &mut dec).map_err(|e| e.to_string())?;
            tk_assert!(dec == *src, "RLE roundtrip changed the bytes");
            Ok(())
        });
    }

    #[test]
    fn rle_compresses_zero_runs_hard() {
        let src = vec![0u8; 130 * 100];
        let mut enc = Vec::new();
        rle_encode(&src, &mut enc);
        assert_eq!(enc.len(), 200, "a pure zero run costs 2 bytes per 130");
        let mut dec = Vec::new();
        rle_decode(&enc, src.len(), &mut dec).unwrap();
        assert_eq!(dec, src);
    }

    #[test]
    fn rle_rejects_corrupt_streams() {
        let src: Vec<u8> = (0..=255u8).collect();
        let mut enc = Vec::new();
        rle_encode(&src, &mut enc);
        let mut dec = Vec::new();
        // Truncated stream.
        let err = rle_decode(&enc[..enc.len() - 1], src.len(), &mut dec).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Wrong expected length.
        dec.clear();
        let err = rle_decode(&enc, src.len() - 1, &mut dec).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn xor_delta_is_an_involution() {
        check_with(Config::with_cases(20), "xor_involution", gen_bytes, |src| {
            let mut base = src.clone();
            base.reverse();
            let mut d = src.clone();
            xor_with(&mut d, &base);
            xor_with(&mut d, &base);
            tk_assert_eq!(d, *src);
            Ok(())
        });
    }

    #[test]
    fn shard_names_roundtrip_and_sort_by_step() {
        assert_eq!(parse_shard_name(&shard_file_name(42, 3)), Some((42, 3)));
        assert_eq!(parse_shard_name("stepXX.r0.yys"), None);
        assert_eq!(parse_shard_name("unrelated.txt"), None);
        assert!(shard_file_name(9, 0) < shard_file_name(10, 0));
    }

    /// One rank's worth of state for shard tests: a 1×1 layout means the
    /// serial panel states *are* the owned blocks.
    fn sim_at(steps: u64) -> SerialSim {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        let mut sim = SerialSim::new(cfg);
        sim.run(steps, 0);
        sim
    }

    fn meta_for(sim: &SerialSim, rank: u64, panel: u64) -> ShardMeta {
        let shape = sim.yin.shape();
        ShardMeta {
            shape,
            step: sim.step,
            time: sim.time,
            dt_cache: sim.dt_cache,
            pth: 1,
            pph: 1,
            rank,
            panel,
            j0: 0,
            tnth: shape.nth as u64,
            k0: 0,
            tnph: shape.nph as u64,
            flags: 0,
            base_step: NO_BASE,
        }
    }

    fn no_base(_: u64) -> io::Result<Vec<u8>> {
        panic!("self-contained shard must not resolve a base")
    }

    type Encoded = (Vec<u8>, (u64, u64));

    fn encode(m: &ShardMeta, raw: &[u8], base: Option<(u64, &[u8])>, c: CkptCodec) -> Encoded {
        let (mut delta, mut file) = (Vec::new(), Vec::new());
        let used = encode_shard(m, raw, base, c, &mut delta, &mut file);
        (file, used)
    }

    #[test]
    fn shard_roundtrips_exactly_under_every_codec() {
        let sim = sim_at(2);
        let meta = meta_for(&sim, 0, 0);
        let mut raw = Vec::new();
        pack_shard_payload(&sim.yin, meta.tnth as usize, meta.tnph as usize, &mut raw);
        for codec in [CkptCodec::Raw, CkptCodec::Rle, CkptCodec::Delta] {
            let file = encode(&meta, &raw, None, codec).0;
            let (back_meta, back_raw) =
                read_shard(&mut file.as_slice(), &mut no_base).unwrap();
            assert_eq!(back_raw, raw, "{codec:?} payload roundtrip");
            assert_eq!(back_meta.step, meta.step);
            assert_eq!(back_meta.shape, meta.shape);
        }
    }

    /// Synthetic owned block with no libm in it (platform-stable bytes):
    /// coarse values, so most f64 bytes repeat, with zero stretches long
    /// enough to cross the 130-byte repeat cap. `nudge` perturbs every
    /// `nudge`-th value, giving the delta links something sparse to code.
    fn fixture_state(shape: Shape, nudge: usize) -> State {
        let mut s = State::zeros(shape);
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for arr in s.arrays_mut() {
            for (at, v) in arr.data_mut().iter_mut().enumerate() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = if (at / 48) % 4 == 0 { 0.0 } else { ((x >> 40) % 17) as f64 * 0.25 };
                if nudge > 0 && at % nudge == 0 {
                    *v += 1.0 / 1024.0;
                }
            }
        }
        s
    }

    /// Format v3 pinned, not inferred: (file length, CRC-32 of the whole
    /// file) for one synthetic block under `none`, `rle`, `delta` with no
    /// base, and a two-link delta chain — recorded with the byte-wise
    /// encoder and slice-by-8 CRC of the commit before the word-wise
    /// rewrite. A change here is a format change.
    #[test]
    fn shard_format_v3_bytes_are_pinned() {
        let shape = Shape::new(8, 6, 10, 2, 2);
        let payload = |nudge: usize| {
            let mut raw = Vec::new();
            pack_shard_payload(&fixture_state(shape, nudge), shape.nth, shape.nph, &mut raw);
            raw
        };
        let meta = |step: u64| ShardMeta {
            shape,
            step,
            time: step as f64 * 0.5,
            dt_cache: 0.125,
            pth: 1,
            pph: 1,
            rank: 1,
            panel: 1,
            j0: 0,
            tnth: shape.nth as u64,
            k0: 0,
            tnph: shape.nph as u64,
            flags: 0,
            base_step: NO_BASE,
        };
        let (a, b, c) = (payload(0), payload(5), payload(3));
        let files = [
            encode(&meta(0), &a, None, CkptCodec::Raw).0,
            encode(&meta(0), &a, None, CkptCodec::Rle).0,
            encode(&meta(0), &a, None, CkptCodec::Delta).0,
            encode(&meta(2), &b, Some((0, &a)), CkptCodec::Delta).0,
            encode(&meta(4), &c, Some((2, &b)), CkptCodec::Delta).0,
        ];
        let got: Vec<(usize, u32)> = files
            .iter()
            .map(|f| {
                let mut crc = Crc32::new();
                crc.update(f);
                (f.len(), crc.finish())
            })
            .collect();
        let pinned = [
            (0x78b4, 0xddef_9e72),
            (0x3618, 0xfae4_79c6),
            (0x3618, 0xfae4_79c6),
            (0x0cc1, 0x8ee7_10da),
            (0x1a29, 0x9c73_9ce7),
        ];
        assert_eq!(got, pinned, "shard format v3 bytes changed");
        // The chain still decodes to the payloads it was built from.
        let mut chain = |s: u64| Ok(if s == 0 { a.clone() } else { b.clone() });
        assert_eq!(read_shard(&mut files[4].as_slice(), &mut chain).unwrap().1, c);
    }

    #[test]
    fn delta_shard_chains_to_its_base_and_compresses() {
        let mut sim = sim_at(1);
        let meta0 = meta_for(&sim, 0, 0);
        let mut raw0 = Vec::new();
        pack_shard_payload(&sim.yin, meta0.tnth as usize, meta0.tnph as usize, &mut raw0);
        sim.run(1, 0);
        let meta1 = meta_for(&sim, 0, 0);
        let mut raw1 = Vec::new();
        pack_shard_payload(&sim.yin, meta1.tnth as usize, meta1.tnph as usize, &mut raw1);
        let (file, (flags, base_step)) =
            encode(&meta1, &raw1, Some((meta0.step, &raw0)), CkptCodec::Delta);
        assert_eq!(flags, FLAG_DELTA | FLAG_RLE);
        assert_eq!(base_step, meta0.step);
        let mut resolved = false;
        let mut resolve = |s: u64| {
            assert_eq!(s, meta0.step);
            resolved = true;
            Ok(raw0.clone())
        };
        let (_, back) = read_shard(&mut file.as_slice(), &mut resolve).unwrap();
        assert!(resolved, "delta decode must consult the base");
        assert_eq!(back, raw1);
    }

    #[test]
    fn corrupt_shards_are_rejected_with_context() {
        let sim = sim_at(1);
        let meta = meta_for(&sim, 0, 0);
        let mut raw = Vec::new();
        pack_shard_payload(&sim.yin, meta.tnth as usize, meta.tnph as usize, &mut raw);
        let file = encode(&meta, &raw, None, CkptCodec::Rle).0;
        // Truncation anywhere names what was being read.
        for cut in [4, 60, 180, file.len() / 2, file.len() - 6, file.len() - 1] {
            let err = read_shard(&mut &file[..cut], &mut no_base).unwrap_err();
            assert!(
                err.to_string().contains("truncated"),
                "cut at {cut}: unexpected error {err}"
            );
        }
        // A payload bit flip must trip the CRC (or the codec's internal
        // consistency checks) — never decode silently.
        for pos in [250, file.len() / 2, file.len() - 20] {
            let mut bad = file.clone();
            bad[pos] ^= 0x04;
            let err = read_shard(&mut bad.as_slice(), &mut no_base).unwrap_err();
            assert!(
                matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "flip at {pos}: unexpected error {err}"
            );
        }
        // A header bit flip in the step counter lands in the CRC too.
        let mut bad = file.clone();
        bad[48] ^= 0x01; // low byte of the step field
        let err = read_shard(&mut bad.as_slice(), &mut no_base).unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        // Old-version magic is named.
        let mut bad = file;
        bad[7] = 0x02;
        let err = read_shard(&mut bad.as_slice(), &mut no_base).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn codec_parse_accepts_the_cli_names() {
        assert_eq!(CkptCodec::parse("none"), Ok(CkptCodec::Raw));
        assert_eq!(CkptCodec::parse("rle"), Ok(CkptCodec::Rle));
        assert_eq!(CkptCodec::parse("delta"), Ok(CkptCodec::Delta));
        let err = CkptCodec::parse("zip").unwrap_err();
        assert!(err.contains("expected none|rle|delta"), "{err}");
        for c in [CkptCodec::Raw, CkptCodec::Rle, CkptCodec::Delta] {
            assert_eq!(CkptCodec::parse(c.name()), Ok(c));
        }
    }

    #[test]
    fn output_stage_writes_atomically_in_both_modes() {
        let dir = std::env::temp_dir().join(format!("yy_output_stage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for async_mode in [false, true] {
            let stage = OutputStage::new(async_mode);
            let mut waited = 0;
            for i in 0..5u32 {
                let (mut buf, w) = stage.acquire();
                waited += w;
                buf.clear();
                buf.extend_from_slice(format!("payload {i} ({async_mode})").as_bytes());
                let name = dir.join(format!("f{async_mode}_{i}.bin"));
                waited += stage.submit(name, buf, 10);
            }
            waited += stage.flush();
            let totals = stage.finish().expect("no write errors");
            assert_eq!(totals.files_written, 5);
            assert_eq!(totals.bytes_raw, 50);
            assert!(totals.bytes_written > 0);
            let _ = waited; // blocking is legal, not required
            for i in 0..5u32 {
                let body =
                    std::fs::read_to_string(dir.join(format!("f{async_mode}_{i}.bin"))).unwrap();
                assert_eq!(body, format!("payload {i} ({async_mode})"));
            }
            // No temp litter after a flush.
            assert!(
                std::fs::read_dir(&dir)
                    .unwrap()
                    .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")),
                "temp files left behind"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn output_stage_surfaces_write_errors_at_finish() {
        let stage = OutputStage::new(true);
        let (mut buf, _) = stage.acquire();
        buf.extend_from_slice(b"x");
        stage.submit(PathBuf::from("/nonexistent-dir/zz/f.bin"), buf, 1);
        stage.flush();
        let err = stage.finish().unwrap_err();
        assert!(err.contains("/nonexistent-dir"), "{err}");
    }
}
