//! The shard container (format v3): header and placement metadata, file
//! naming, payload packing, and the encoder/reader pair with the CRC
//! over header + uncompressed payload.

use super::codec::{rle_decode, rle_decode_xor, rle_encode_spilled, xor_with, CkptCodec, Xor};
use crate::checkpoint::{
    check_footer, invalid, read_exact_ctx, read_header, read_u64, Crc32, HashingReader, MAX_DIM,
};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
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
    pub(super) fn expected_raw_len(&self) -> u64 {
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

/// Place a [`pack_shard_payload`] image of the owned block `meta`
/// describes into `panel` (the full-panel state), each row converted
/// straight from the bytes. The caller has checked that `raw` is as
/// long as `meta`'s tile needs.
pub(super) fn unpack_shard_payload(meta: &ShardMeta, panel: &mut State, raw: &[u8]) {
    let region = meta.global_region();
    let mut rows = raw.chunks_exact(8 * meta.shape.nr);
    for arr in panel.arrays_mut() {
        for k in region.k0..region.k1 {
            for j in region.j0..region.j1 {
                let src = rows.next().expect("the caller checked the payload length");
                for (v, c) in arr.row_mut(j, k).iter_mut().zip(src.chunks_exact(8)) {
                    // `chunks_exact(8)` yields eight-byte slices.
                    *v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                }
            }
        }
    }
}

/// Bytes of a v3 shard header: the magic and 20 `u64` fields.
const HEADER_LEN: usize = 8 + 20 * 8;

/// The encoded stream goes to the file in writes of about this size.
const CHUNK: usize = 64 << 10;

/// Write one shard to `out`: header, encoded payload, CRC footer. `raw`
/// is the uncompressed payload from [`pack_shard_payload`]; `base` is
/// the delta base's step and payload when the codec is
/// [`CkptCodec::Delta`] and one exists. The XOR against the base is
/// formed inside the RLE scan, and the stream reaches `out` through
/// `chunk`, one small recycled buffer, so encoding holds no image of
/// the payload or the file; `enc_len` is patched in place at the end.
/// Returns the flags and base step actually used (a delta request
/// without a base degrades to a self-contained RLE shard) and the
/// file's length.
pub(crate) fn encode_shard<W: Write + Seek>(
    meta: &ShardMeta,
    raw: &[u8],
    base: Option<(u64, &[u8])>,
    codec: CkptCodec,
    chunk: &mut Vec<u8>,
    out: &mut W,
) -> io::Result<(u64, u64, u64)> {
    let base = base.filter(|(_, prev)| prev.len() == raw.len());
    let (flags, base_step) = match (codec, base) {
        (CkptCodec::Raw, _) => (0, NO_BASE),
        (_, None) => (FLAG_RLE, NO_BASE),
        (_, Some((base_step, _))) => (FLAG_DELTA | FLAG_RLE, base_step),
    };
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(SHARD_MAGIC);
    for (dst, v) in header[8..].chunks_exact_mut(8).zip([
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
    ]) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    chunk.clear();
    chunk.extend_from_slice(&header);
    // Bytes handed to `out` so far, the header's included.
    let mut spilled = 0u64;
    let mut spill = |buf: &mut Vec<u8>| {
        out.write_all(buf)?;
        spilled += buf.len() as u64;
        buf.clear();
        Ok(())
    };
    match (codec, base) {
        (CkptCodec::Raw, _) => {
            spill(chunk)?;
            out.write_all(raw)?;
            spilled += raw.len() as u64;
        }
        (_, None) => rle_encode_spilled(raw, chunk, CHUNK, &mut spill)?,
        (_, Some((_, prev))) => rle_encode_spilled(Xor::new(raw, prev), chunk, CHUNK, &mut spill)?,
    }
    let enc_len = spilled + chunk.len() as u64 - HEADER_LEN as u64;
    header[HEADER_LEN - 8..].copy_from_slice(&enc_len.to_le_bytes());
    // The CRC covers the header and the *uncompressed* payload: hash the
    // raw bytes but write the encoded ones, so codec bugs cannot forge
    // integrity.
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(raw);
    chunk.extend_from_slice(&((HEADER_LEN + raw.len()) as u64).to_le_bytes());
    chunk.extend_from_slice(&crc.finish().to_le_bytes());
    out.write_all(chunk)?;
    out.seek(SeekFrom::Start(HEADER_LEN as u64 - 8))?;
    out.write_all(&enc_len.to_le_bytes())?;
    Ok((flags, base_step, HEADER_LEN as u64 + enc_len + 12))
}

/// Read a shard's header from `hr` and check it: magic, geometry caps,
/// tile placement, payload lengths. Returns the header and the raw and
/// encoded payload lengths.
fn read_shard_header(hr: &mut HashingReader<'_, &[u8]>) -> io::Result<(ShardMeta, u64, u64)> {
    let mut magic = [0u8; 8];
    read_exact_ctx(hr, &mut magic, "shard magic")?;
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
    let (shape, step, time, dt_cache) = read_header(hr, "shard")?;
    let (nth, nph) = (shape.nth as u64, shape.nph as u64);
    let pth = read_u64(hr, "shard layout (pth)")?;
    let pph = read_u64(hr, "shard layout (pph)")?;
    let rank = read_u64(hr, "shard rank")?;
    let panel = read_u64(hr, "shard panel")?;
    let j0 = read_u64(hr, "shard tile (j0)")?;
    let tnth = read_u64(hr, "shard tile (nth)")?;
    let k0 = read_u64(hr, "shard tile (k0)")?;
    let tnph = read_u64(hr, "shard tile (nph)")?;
    let flags = read_u64(hr, "shard flags")?;
    let base_step = read_u64(hr, "shard base step")?;
    let raw_len = read_u64(hr, "shard payload length")?;
    let enc_len = read_u64(hr, "shard encoded length")?;
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
    if flags & FLAG_RLE != 0 && raw_len > 65 * enc_len {
        // A repeat frame turns 2 bytes into at most 130.
        return Err(invalid(format!(
            "shard payload length {raw_len} exceeds 65 x the encoded length {enc_len}, the \
             codec's largest expansion; header is corrupt"
        )));
    }
    if flags & FLAG_RLE == 0 && enc_len != raw_len {
        return Err(invalid(format!(
            "shard raw payload is {enc_len} bytes, header records {raw_len}"
        )));
    }
    if flags & FLAG_DELTA != 0 && base_step == NO_BASE {
        return Err(invalid(
            "shard is flagged delta but names no base step; header is corrupt".to_string(),
        ));
    }
    Ok((meta, raw_len, enc_len))
}

/// Read one shard from the file image `r` (advanced past it) into
/// `payload`, with the CRC footer verified over header + **decoded**
/// bytes. A self-contained shard replaces `payload`; a delta link is
/// XOR-ed into it in place, so `payload` must hold its base's payload.
/// Both payload lengths are checked against the bytes actually present
/// before anything is sized by them.
pub(crate) fn read_shard(r: &mut &[u8], payload: &mut Vec<u8>) -> io::Result<ShardMeta> {
    let mut hr = HashingReader { inner: r, crc: Crc32::new(), len: 0 };
    let (meta, raw_len, enc_len) = read_shard_header(&mut hr)?;
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
    let (step, rank) = (meta.step, meta.rank);
    if meta.flags & FLAG_DELTA == 0 {
        payload.clear();
        if meta.flags & FLAG_RLE != 0 {
            payload.reserve(raw_len as usize);
            rle_decode(encoded, raw_len as usize, payload)?;
        } else {
            payload.extend_from_slice(encoded);
        }
    } else {
        if payload.len() as u64 != raw_len {
            return Err(invalid(format!(
                "shard delta base (step {}) is {} bytes, this shard is {raw_len}; \
                 the chain is inconsistent",
                meta.base_step,
                payload.len()
            )));
        }
        if meta.flags & FLAG_RLE != 0 {
            rle_decode_xor(encoded, payload)?;
        } else {
            xor_with(payload, encoded);
        }
    }
    header_crc.update(payload);
    check_footer(
        hr.inner,
        "shard",
        header_len + raw_len,
        header_crc.finish(),
        format_args!(" (step {step}, rank {rank})"),
    )?;
    Ok(meta)
}

/// Read the file of `(step, rank)` in `dir` into `file` (replacing its
/// contents): its first `limit` bytes, or all of it.
fn read_file(
    dir: &Path,
    step: u64,
    rank: usize,
    limit: Option<usize>,
    file: &mut Vec<u8>,
) -> io::Result<()> {
    let path = dir.join(shard_file_name(step, rank));
    file.clear();
    let read = File::open(&path).and_then(|mut f| match limit {
        Some(n) => f.take(n as u64).read_to_end(file),
        None => {
            file.reserve(usize::try_from(f.metadata()?.len()).unwrap_or(0));
            f.read_to_end(file)
        }
    });
    read.map(drop)
        .map_err(|e| io::Error::new(e.kind(), format!("reading shard {}: {e}", path.display())))
}

/// Read and check the header of the shard for `(step, rank)` in `dir`,
/// through the `file` buffer; the payload is not read.
pub(crate) fn load_shard_header(
    dir: &Path,
    step: u64,
    rank: usize,
    file: &mut Vec<u8>,
) -> io::Result<ShardMeta> {
    read_file(dir, step, rank, Some(HEADER_LEN), file)?;
    let mut hr = HashingReader { inner: &mut file.as_slice(), crc: Crc32::new(), len: 0 };
    Ok(read_shard_header(&mut hr)?.0)
}

/// Load and fully decode the shard for `(step, rank)` from `dir` into
/// `payload`: walk the headers back along the delta chain to its
/// self-contained base, then decode forward, each link XOR-ed into the
/// one payload and its CRC checked, through the one `file` buffer.
pub(crate) fn load_shard(
    dir: &Path,
    step: u64,
    rank: usize,
    payload: &mut Vec<u8>,
    file: &mut Vec<u8>,
) -> io::Result<ShardMeta> {
    let mut chain = vec![step];
    loop {
        let link = chain[chain.len() - 1];
        let meta = load_shard_header(dir, link, rank, file)?;
        if meta.flags & FLAG_DELTA == 0 {
            break;
        }
        if meta.base_step >= link {
            return Err(invalid(format!(
                "shard delta chain does not terminate: step {link} names base {} (rank {rank})",
                meta.base_step
            )));
        }
        chain.push(meta.base_step);
    }
    let mut meta = None;
    for &link in chain.iter().rev() {
        read_file(dir, link, rank, None, file)?;
        meta = Some(read_shard(&mut file.as_slice(), payload)?);
    }
    Ok(meta.expect("a chain holds at least its own step"))
}
