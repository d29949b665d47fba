//! The shard container (format v3): header and placement metadata, file
//! naming, payload packing, and the encoder/reader pair with the CRC
//! over header + uncompressed payload.

use super::codec::{rle_decode, rle_encode, xor_with, CkptCodec};
use crate::checkpoint::{
    check_footer, invalid, read_exact_ctx, read_header, read_u64, Crc32, HashingReader, MAX_DIM,
};
use std::io;
use std::path::Path;
use yy_field::{Region, Shape};
use yy_mhd::State;

/// Shard format magic: same prefix as the serial checkpoint, version 3.
pub(crate) const SHARD_MAGIC: &[u8; 8] = b"YYCORE\0\x03";

/// `base_step` sentinel for self-contained (non-delta) shards.
pub(super) const NO_BASE: u64 = u64::MAX;

/// Payload flag: bytes are XOR-deltas against the `base_step` payload.
pub(super) const FLAG_DELTA: u64 = 1;
/// Payload flag: bytes are RLE-compressed.
pub(super) const FLAG_RLE: u64 = 2;

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
    pub(super) fn global_region(&self) -> Region {
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
    let base = base.filter(|(_, prev)| prev.len() == raw.len());
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

/// Read one shard from the file image `r` (advanced past it): header and
/// **decoded** (uncompressed) payload, with the CRC footer verified over
/// header + uncompressed bytes. `base` resolves a delta shard's base
/// payload by step; self-contained shards never call it. Both payload
/// lengths are checked against the bytes actually present before
/// anything is sized by them.
pub(crate) fn read_shard(
    r: &mut &[u8],
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
    let (header_len, mut header_crc) = (hr.len, hr.crc);
    // The encoded payload is taken from the *raw* image: the CRC hashes
    // the decoded bytes instead.
    let rest: &[u8] = hr.inner;
    let Some((encoded, footer)) =
        usize::try_from(enc_len).ok().and_then(|n| rest.split_at_checked(n))
    else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "shard truncated: encoded length {enc_len} exceeds the {} bytes left in the file",
                rest.len()
            ),
        ));
    };
    *hr.inner = footer;
    let mut raw = if flags & FLAG_RLE != 0 {
        // A repeat frame turns 2 bytes into at most 130.
        if raw_len > 65 * enc_len {
            return Err(invalid(format!(
                "shard payload length {raw_len} exceeds 65 x the encoded length {enc_len}, the \
                 codec's largest expansion; header is corrupt"
            )));
        }
        let mut raw = Vec::with_capacity(raw_len as usize);
        rle_decode(encoded, raw_len as usize, &mut raw)?;
        raw
    } else {
        if enc_len != raw_len {
            return Err(invalid(format!(
                "shard raw payload is {enc_len} bytes, header records {raw_len}"
            )));
        }
        encoded.to_vec()
    };
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
