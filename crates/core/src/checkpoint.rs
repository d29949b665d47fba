//! Binary checkpoint / restart.
//!
//! A checkpoint stores both panels' full state plus the simulation clock
//! in a self-describing little-endian binary format (version 2):
//!
//! ```text
//! magic "YYCORE\0\2"  (8 bytes)
//! nr, nth, nph, gth, gph : u64 × 5       (padded array geometry)
//! step : u64 ; time : f64 ; dt_cache : f64
//! 16 arrays (8 per panel, canonical order), each the full padded
//! storage as f64 little-endian
//! payload_len : u64 ; crc32 : u32        (integrity footer)
//! ```
//!
//! The footer covers everything before it (magic, header, and field
//! data) with a CRC-32 (IEEE, reflected) plus the exact byte count, so
//! [`Checkpoint::read_from`] rejects truncated or bit-flipped files with
//! a descriptive error instead of silently misreading — a restart from
//! silently corrupted state would poison the whole recovery chain.
//! Version-1 files (no footer) are rejected by the magic check.
//!
//! Restart is bit-exact: a run continued from a checkpoint produces the
//! same trajectory as one that never stopped (verified by an integration
//! test), because a state is its owned points. Their overset frames and
//! walls are stored with them, and every other padded cell (a
//! *leftover* cell, which no stencil reads) is zero in every state a
//! driver builds. A restore takes the owned points only, so a file whose
//! leftover cells hold anything else resumes to the same bytes.

use crate::serial::SerialSim;
use std::io::{self, Read, Write};
use yy_field::{Array3, Shape};
use yy_mhd::State;

pub(crate) const MAGIC: &[u8; 8] = b"YYCORE\0\x02";

/// Largest accepted value for any single geometry dimension. A corrupt
/// header must fail here, not in a multi-terabyte allocation.
pub(crate) const MAX_DIM: u64 = 65_536;
/// Largest accepted ghost width.
const MAX_GHOST: u64 = 64;

// -- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) ---------------------

// Slicing-by-16: table[0] is the classic byte-at-a-time table; table[j]
// advances a byte's contribution j more positions through the register,
// so sixteen lookups fold sixteen input bytes per iteration and only
// four of them wait on the previous iteration's register. Same
// polynomial, same stream semantics as the one-table loop (the test
// oracle) — checkpoint and shard CRCs cover every payload byte, so this
// is squarely on the output and restart hot paths. Where the CPU has a
// carry-less multiply, inputs of 128 bytes and more fold 64 bytes per
// step instead (`crc32_clmul`), and the tables take the tail.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Fold the four bytes of `w` (little-endian) through tables
/// `top - 3 ..= top`: the lowest byte is the farthest from the end of
/// the 16-byte block, so it takes the highest table.
#[inline(always)]
fn crc32_fold4(top: usize, w: u32) -> u32 {
    let t = &CRC32_TABLES;
    (t[top][(w & 0xFF) as usize] ^ t[top - 1][((w >> 8) & 0xFF) as usize])
        ^ (t[top - 2][((w >> 16) & 0xFF) as usize] ^ t[top - 3][(w >> 24) as usize])
}

/// Advance the CRC register `c` over `bytes` with the sixteen tables:
/// the path for short inputs, for hosts without carry-less multiply, and
/// the oracle the fold is tested against.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for ch in &mut chunks {
        let w = |at: usize| u32::from_le_bytes([ch[at], ch[at + 1], ch[at + 2], ch[at + 3]]);
        // Twelve of the sixteen lookups do not touch the register:
        // fold them first and join the register's four last, so the
        // loop-carried chain is one lookup and three XORs deep
        // (summed left to right it is six, and half the speed).
        let rest = crc32_fold4(11, w(4)) ^ crc32_fold4(7, w(8)) ^ crc32_fold4(3, w(12));
        c = crc32_fold4(15, w(0) ^ c) ^ rest;
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Inputs shorter than this stay on the tables: the fold's set-up and
/// Barrett reduction cost about as much as a hundred bytes of lookups.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// One 16-byte little-endian lane, loaded without a raw pointer.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn clmul_lane(b: &[u8; 16]) -> std::arch::x86_64::__m128i {
    let v = u128::from_le_bytes(*b);
    std::arch::x86_64::_mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// `x·k` folded 128 bits forward (low half by `k.lo`, high half by
/// `k.hi`), plus the lane `next` it lands on.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn clmul_fold(
    x: std::arch::x86_64::__m128i,
    k: std::arch::x86_64::__m128i,
    next: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let lo = _mm_clmulepi64_si128(x, k, 0x00);
    let hi = _mm_clmulepi64_si128(x, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// Advance the CRC register `c` over the 16-byte lanes of `bytes` by
/// carry-less multiplication (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009, reflected IEEE
/// constants): four lanes fold 64 bytes forward per step, then into
/// one, then down to 64 and 32 bits, and a Barrett reduction by the
/// polynomial leaves the register. Returns it with the < 16-byte tail
/// left for the tables; an input under 64 bytes comes back untouched.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
    use std::arch::x86_64::*;
    // k1, k2 = x^(4·128±32) mod P (fold by 64 bytes); k3, k4 =
    // x^(128±32) mod P (by 16 bytes); k5 = x^64 mod P (to 32 bits); P'
    // the polynomial and μ = ⌊x^64 / P⌋ (Barrett). All bit-reflected, as
    // the paper gives them for the reflected polynomial.
    let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
    let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
    let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);

    let (lanes, tail) = bytes.as_chunks::<16>();
    let (blocks, singles) = lanes.as_chunks::<4>();
    let Some((first, blocks)) = blocks.split_first() else {
        return (c, bytes);
    };
    let mut x = first.map(|b| clmul_lane(&b));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    for block in blocks {
        for (x, b) in x.iter_mut().zip(block) {
            *x = clmul_fold(*x, k1k2, clmul_lane(b));
        }
    }
    let mut acc = x[0];
    for &next in &x[1..] {
        acc = clmul_fold(acc, k3k4, next);
    }
    for b in singles {
        acc = clmul_fold(acc, k3k4, clmul_lane(b));
    }
    // 128 → 64 bits: the low half times k4 onto the high half.
    acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, k3k4, 0x10));
    // 64 → 32: the low word times k5 onto the rest.
    acc = _mm_xor_si128(
        _mm_srli_si128(acc, 4),
        _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
    );
    let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
    let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    (_mm_extract_epi32(_mm_xor_si128(r, acc), 1) as u32, tail)
}

/// Streaming CRC-32 accumulator.
#[derive(Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Hash `bytes` into the register: by carry-less multiplication where
    /// the CPU has it and the input is long enough, by the tables
    /// otherwise. The CPU decides; the register and the result are the
    /// same either way.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= CLMUL_MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `crc32_clmul` is a safe `#[target_feature(enable =
            // "pclmulqdq,sse4.1")]` function: all it requires of its caller
            // is a CPU that executes both, and the guard has just detected
            // them on the CPU we run on.
            let (c, tail) = unsafe { crc32_clmul(self.0, bytes) };
            self.0 = c;
            tail
        } else {
            bytes
        };
        self.0 = crc32_sliced(self.0, bytes);
    }

    pub(crate) fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// Writer adapter hashing and counting everything written through it.
pub(crate) struct HashingWriter<'a, W: Write> {
    pub(crate) inner: &'a mut W,
    pub(crate) crc: Crc32,
    pub(crate) len: u64,
}

impl<W: Write> Write for HashingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write_all(buf)?;
        self.crc.update(buf);
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter hashing and counting everything read through it.
pub(crate) struct HashingReader<'a, R: Read> {
    pub(crate) inner: &'a mut R,
    pub(crate) crc: Crc32,
    pub(crate) len: u64,
}

impl<R: Read> Read for HashingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }
}

/// `read_exact` with a descriptive truncation error: a short read names
/// what was being read instead of a bare "failed to fill whole buffer".
pub(crate) fn read_exact_ctx<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("checkpoint truncated while reading {what}"),
            )
        } else {
            e
        }
    })
}

pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Truncation context for a field of the `noun` container: the
/// checkpoint's are bare, a shard's carry the noun.
fn field(noun: &str, what: &str) -> String {
    if noun == "checkpoint" { what.to_string() } else { format!("{noun} {what}") }
}

pub(crate) fn read_u64<R: Read>(r: &mut R, what: &str) -> io::Result<u64> {
    let mut b = [0u8; 8];
    read_exact_ctx(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

/// The header fields that follow the magic in both containers
/// (`noun`: "checkpoint" or "shard"): padded geometry, step, time and
/// cached dt, with the geometry bounded before anything is allocated.
pub(crate) fn read_header<R: Read>(r: &mut R, noun: &str) -> io::Result<(Shape, u64, f64, f64)> {
    const GEOMETRY: [(&str, u64); 5] = [
        ("nr", MAX_DIM),
        ("nth", MAX_DIM),
        ("nph", MAX_DIM),
        ("gth", MAX_GHOST),
        ("gph", MAX_GHOST),
    ];
    let mut g = [0u64; 5];
    for (v, (name, _)) in g.iter_mut().zip(GEOMETRY) {
        *v = read_u64(r, &field(noun, &format!("geometry ({name})")))?;
    }
    let step = read_u64(r, &field(noun, "step counter"))?;
    for (v, (name, cap)) in g.into_iter().zip(GEOMETRY) {
        if v > cap {
            return Err(invalid(format!(
                "implausible {noun} geometry: {name} = {v} (limit {cap}); header is corrupt"
            )));
        }
    }
    let [nr, nth, nph, gth, gph] = g;
    if nr == 0 || nth == 0 || nph == 0 {
        return Err(invalid(format!(
            "implausible {noun} geometry: nr/nth/nph = {nr}/{nth}/{nph} (must be nonzero)"
        )));
    }
    let time = f64::from_bits(read_u64(r, &field(noun, "time"))?);
    let dt_cache = f64::from_bits(read_u64(r, &field(noun, "dt cache"))?);
    let shape = Shape::new(nr as usize, nth as usize, nph as usize, gth as usize, gph as usize);
    Ok((shape, step, time, dt_cache))
}

/// Read the `length: u64, crc32: u32` footer and check it against the
/// `len` bytes hashed into `crc`. `r` is the underlying reader: the
/// footer covers what precedes it and must not hash itself. `at`
/// locates the file in a CRC message (empty for a checkpoint).
pub(crate) fn check_footer<R: Read>(
    r: &mut R,
    noun: &str,
    len: u64,
    crc: u32,
    at: std::fmt::Arguments<'_>,
) -> io::Result<()> {
    let stored_len = read_u64(r, &field(noun, "length footer"))?;
    let mut cb = [0u8; 4];
    read_exact_ctx(r, &mut cb, &field(noun, "CRC footer"))?;
    let stored_crc = u32::from_le_bytes(cb);
    if stored_len != len {
        let counted = if noun == "checkpoint" { "payload" } else { "hashed" };
        return Err(invalid(format!(
            "{noun} length mismatch: footer records {stored_len} {counted} bytes, read {len}"
        )));
    }
    if stored_crc != crc {
        return Err(invalid(format!(
            "{noun} CRC mismatch: stored {stored_crc:#010x}, computed {crc:#010x}{at}; \
             the file is corrupt"
        )));
    }
    Ok(())
}

/// Checkpoint payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Padded array geometry of both panels.
    pub shape: Shape,
    /// Step counter at capture time.
    pub step: u64,
    /// Simulated time at capture.
    pub time: f64,
    /// Cached CFL step (restored so a resumed run recomputes dt at
    /// exactly the same step numbers as an uninterrupted one).
    pub dt_cache: f64,
    /// The Yin panel's full state (ghosts included).
    pub yin: State,
    /// The Yang panel's full state.
    pub yang: State,
}

impl Checkpoint {
    /// Capture a serial simulation's restartable state.
    pub fn capture(sim: &SerialSim) -> Checkpoint {
        Checkpoint {
            shape: sim.yin.shape(),
            step: sim.step,
            time: sim.time,
            dt_cache: sim.dt_cache,
            yin: sim.yin.clone(),
            yang: sim.yang.clone(),
        }
    }

    /// Refresh an existing checkpoint in place from a serial simulation,
    /// reusing the panel buffers instead of cloning two full states.
    /// Steady-state allocation-free (pinned by `ckpt_alloc.rs`); the
    /// shapes must match.
    pub fn capture_into(sim: &SerialSim, ck: &mut Checkpoint) {
        assert_eq!(
            sim.yin.shape(),
            ck.shape,
            "checkpoint shape {:?} does not match the simulation",
            ck.shape
        );
        ck.step = sim.step;
        ck.time = sim.time;
        ck.dt_cache = sim.dt_cache;
        ck.yin.copy_from(&sim.yin);
        ck.yang.copy_from(&sim.yang);
    }

    /// Restore into a simulation of the same shape: its owned points,
    /// frames and walls included, and zero in every other padded cell.
    pub fn restore(&self, sim: &mut SerialSim) {
        assert_eq!(
            sim.yin.shape(),
            self.shape,
            "checkpoint shape {:?} does not match the simulation",
            self.shape
        );
        let (nth, nph) = (self.shape.nth as isize, self.shape.nph as isize);
        for (dst, src) in [&mut sim.yin, &mut sim.yang].into_iter().zip([&self.yin, &self.yang]) {
            dst.fill_zero();
            for (d, s) in dst.arrays_mut().into_iter().zip(src.arrays()) {
                for k in 0..nph {
                    for j in 0..nth {
                        d.row_mut(j, k).copy_from_slice(s.row(j, k));
                    }
                }
            }
        }
        sim.step = self.step;
        sim.time = self.time;
        sim.dt_cache = self.dt_cache;
    }

    /// Serialize to a writer (format v2, with integrity footer).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut hw = HashingWriter { inner: w, crc: Crc32::new(), len: 0 };
        hw.write_all(MAGIC)?;
        for v in [
            self.shape.nr as u64,
            self.shape.nth as u64,
            self.shape.nph as u64,
            self.shape.gth as u64,
            self.shape.gph as u64,
            self.step,
        ] {
            hw.write_all(&v.to_le_bytes())?;
        }
        hw.write_all(&self.time.to_le_bytes())?;
        hw.write_all(&self.dt_cache.to_le_bytes())?;
        let mut buf = vec![0u8; CHUNK];
        for panel in [&self.yin, &self.yang] {
            for arr in panel.arrays() {
                write_array(&mut hw, arr, &mut buf)?;
            }
        }
        let payload_len = hw.len;
        let crc = hw.crc.finish();
        w.write_all(&payload_len.to_le_bytes())?;
        w.write_all(&crc.to_le_bytes())?;
        Ok(())
    }

    /// Deserialize from a reader, verifying the length and CRC-32
    /// footer. Truncation, bit flips, and implausible geometry all fail
    /// with a descriptive [`io::Error`]; the panels' storage grows with
    /// the bytes read, so a header claiming more than the stream holds
    /// fails as a truncation, not as an allocation.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Checkpoint> {
        let mut hr = HashingReader { inner: r, crc: Crc32::new(), len: 0 };
        let mut magic = [0u8; 8];
        read_exact_ctx(&mut hr, &mut magic, "magic")?;
        if &magic != MAGIC {
            return Err(if magic[..7] == MAGIC[..7] {
                invalid(format!(
                    "unsupported checkpoint version {} (this build reads version {})",
                    magic[7], MAGIC[7]
                ))
            } else {
                invalid("not a yycore checkpoint (bad magic)".to_string())
            });
        }
        let (shape, step, time, dt_cache) = read_header(&mut hr, "checkpoint")?;
        let mut buf = vec![0u8; CHUNK];
        let mut panel = || -> io::Result<State> {
            let mut arrays = Vec::with_capacity(8);
            for _ in 0..8 {
                arrays.push(read_array(&mut hr, shape, &mut buf)?);
            }
            Ok(State::from_arrays(arrays.try_into().expect("eight arrays were read")))
        };
        let (yin, yang) = (panel()?, panel()?);
        let (payload_len, crc) = (hr.len, hr.crc.finish());
        check_footer(r, "checkpoint", payload_len, crc, format_args!(""))?;
        Ok(Checkpoint { shape, step, time, dt_cache, yin, yang })
    }

    /// Write to a file path.
    pub fn save(&self, path: &std::path::Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Read from a file path.
    pub fn load(path: &std::path::Path) -> io::Result<Checkpoint> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        Checkpoint::read_from(&mut r)
    }
}

/// Bytes of field data converted, hashed and moved per call: small enough
/// that a chunk is still in cache when it is hashed and converted, large
/// enough that the buffered reader and writer pass it straight through.
const CHUNK: usize = 64 * 1024;

/// Write `a` as f64 little-endian through `buf`, one chunk at a time.
fn write_array<W: Write>(w: &mut W, a: &Array3, buf: &mut [u8]) -> io::Result<()> {
    for vals in a.data().chunks(buf.len() / 8) {
        let bytes = &mut buf[..vals.len() * 8];
        for (dst, v) in bytes.chunks_exact_mut(8).zip(vals) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Read one array of `shape` through `buf`, one chunk at a time. The
/// storage grows with the bytes the stream delivers, never with what the
/// header claims: doubling while the first array comes in, and a whole
/// array at once when the stream has already delivered one, so its
/// capacity stays within twice the bytes read.
fn read_array<R: Read>(
    hr: &mut HashingReader<'_, R>,
    shape: Shape,
    buf: &mut [u8],
) -> io::Result<Array3> {
    let (n, per_chunk) = (shape.len(), buf.len() / 8);
    let mut data: Vec<f64> = Vec::new();
    while data.len() < n {
        let bytes = &mut buf[..(n - data.len()).min(per_chunk) * 8];
        read_exact_ctx(hr, bytes, "field data")?;
        let delivered = usize::try_from(hr.len / 8).unwrap_or(usize::MAX);
        let want = (2 * data.capacity()).max(delivered).min(n);
        data.reserve_exact(want - data.len());
        // `chunks_exact(8)` yields eight-byte slices.
        data.extend(
            bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
    }
    Ok(Array3::from_vec(shape, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    fn reference_checkpoint(steps: u64) -> (Checkpoint, Vec<u8>) {
        let mut sim = SerialSim::new(RunConfig::small());
        sim.run(steps, 0);
        let ck = Checkpoint::capture(&sim);
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        (ck, buf)
    }

    #[test]
    fn round_trip_through_memory() {
        let (ck, buf) = reference_checkpoint(2);
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn crc_reference_vector() {
        // Pin the CRC-32 implementation to the standard check value.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    /// Oracle: the one-table loop the sixteen tables are derived from.
    fn bytewise(bytes: &[u8]) -> u32 {
        let c = bytes.iter().fold(0xFFFF_FFFF_u32, |c, &b| {
            CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        });
        c ^ 0xFFFF_FFFF
    }

    /// The dispatched CRC (carry-less multiply on a host that has it),
    /// the tables and the byte loop agree on every input, whole and split.
    fn crc_agrees(bytes: &[u8], split: usize) -> Result<(), String> {
        use yy_testkit::tk_assert_eq;
        let want = bytewise(bytes);
        let mut whole = Crc32::new();
        whole.update(bytes);
        let mut parts = Crc32::new();
        parts.update(&bytes[..split]);
        parts.update(&bytes[split..]);
        tk_assert_eq!(crc32_sliced(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF, want);
        tk_assert_eq!(whole.finish(), want);
        tk_assert_eq!(parts.finish(), want);
        Ok(())
    }

    #[test]
    fn dispatched_crc_matches_the_tables_and_the_byte_loop() {
        use yy_testkit::{check_with, Config, DetRng, Gen};
        // Every length through the fold's 128-byte threshold and its 64-
        // and 16-byte steps, at every alignment, split at a random point.
        let gen = |g: &mut Gen| -> (Vec<u8>, u64) {
            ((0..1116).map(|_| g.below(256) as u8).collect(), g.below(u64::MAX))
        };
        check_with(Config::with_cases(3), "crc_dispatch", gen, |(data, seed)| {
            let mut rng = DetRng::seed_from_u64(*seed);
            for len in 0..=1100 {
                for at in 0..16 {
                    let split = rng.range_usize(0, len + 1);
                    crc_agrees(&data[at..at + len], split)
                        .map_err(|e| format!("len {len} at {at} split {split}: {e}"))?;
                }
            }
            Ok(())
        });
        // And one buffer the size of a shard payload.
        let mut rng = DetRng::seed_from_u64(0x3_0000);
        let big: Vec<u8> = (0..3 << 20).map(|_| rng.below(256) as u8).collect();
        crc_agrees(&big, 1_234_567).unwrap();
    }

    #[test]
    fn sliced_crc_matches_the_byte_loop_at_every_split() {
        use yy_testkit::{check_with, tk_assert_eq, Config, Gen};
        let gen = |g: &mut Gen| -> Vec<u8> { (0..64).map(|_| g.below(256) as u8).collect() };
        check_with(Config::with_cases(8), "crc_split", gen, |data| {
            for len in 0..=data.len() {
                for split in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&data[..split]);
                    c.update(&data[split..len]);
                    tk_assert_eq!(c.finish(), bytewise(&data[..len]));
                }
            }
            Ok(())
        });
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let (_, mut buf) = reference_checkpoint(1);
        buf[0] ^= 0xFF;
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn old_version_is_rejected_with_version_message() {
        let (_, mut buf) = reference_checkpoint(1);
        buf[7] = 0x01; // pretend to be the footer-less v1 format
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn truncated_stream_is_rejected_with_context() {
        let (_, buf) = reference_checkpoint(1);
        // Truncation anywhere must fail: inside the header, inside the
        // field data, and inside the footer itself.
        for cut in [4, 40, buf.len() / 2, buf.len() - 6, buf.len() - 1] {
            let short = &buf[..cut];
            let err = Checkpoint::read_from(&mut &short[..]).unwrap_err();
            assert!(
                err.to_string().contains("truncated"),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected_by_the_crc() {
        let (_, buf) = reference_checkpoint(1);
        // Flip one bit in the field payload (past the 64-byte header) and
        // one in the header itself.
        for pos in [9, 100, buf.len() / 2, buf.len() - 20] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            let err = Checkpoint::read_from(&mut bad.as_slice()).unwrap_err();
            // Payload flips trip the CRC; header flips may instead trip
            // the geometry cap or leave the stream short (truncation).
            // Any descriptive rejection is acceptable, silence is not.
            assert!(
                matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "flip at {pos}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn footer_length_mismatch_is_reported() {
        let (_, mut buf) = reference_checkpoint(1);
        let at = buf.len() - 12; // low byte of the length footer
        buf[at] ^= 0x01;
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
    }

    #[test]
    fn absurd_geometry_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        // nr claims ~10^15 cells; reading must bail on the sanity cap
        // rather than attempt the allocation.
        for v in [1_u64 << 50, 13, 24, 2, 2, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&0.0_f64.to_le_bytes());
        buf.extend_from_slice(&0.0_f64.to_le_bytes());
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// Header words of the largest geometry the caps admit: 65 536³
    /// interior nodes, two ghosts, step 0.
    const HUGE: [u64; 6] = [65_536, 65_536, 65_536, 2, 2, 0];

    #[test]
    fn hostile_checkpoint_inside_the_caps_fails_before_allocation() {
        // ~2 PB of state claimed by a 136-byte file: the reader must run
        // out of bytes, not of memory.
        let mut buf = MAGIC.to_vec();
        for v in HUGE.into_iter().chain([0, 0]) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&[0; 64]);
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated while reading field data"), "{err}");
    }

    #[test]
    fn hostile_shards_inside_the_caps_fail_before_allocation() {
        use crate::output::{merge_shards, shard_file_name};
        // A 1×1 set whose two headers claim 2⁵⁴ payload bytes: first as a
        // raw payload the file does not hold, then as an RLE stream of 16
        // bytes that could never decode to it.
        let dir = std::env::temp_dir().join(format!("yycore_hostile_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw_len = 1_u64 << 54;
        for (flags, enc_len, want) in [
            (0, raw_len, "shard truncated: encoded length 18014398509481984 exceeds the 0 bytes"),
            (2, 16, "shard payload length 18014398509481984 exceeds 65 x the encoded length 16"),
        ] {
            for rank in 0..2_u64 {
                let mut file = b"YYCORE\0\x03".to_vec();
                let tile = [1, 1, rank, rank, 0, 65_536, 0, 65_536, flags, u64::MAX];
                for v in HUGE.into_iter().chain([0, 0]).chain(tile).chain([raw_len, enc_len]) {
                    file.extend_from_slice(&v.to_le_bytes());
                }
                // The RLE file does hold its 16 bytes and a footer.
                if flags != 0 {
                    file.resize(file.len() + 16 + 12, 0);
                }
                std::fs::write(dir.join(shard_file_name(0, rank as usize)), file).unwrap();
            }
            let err = merge_shards(&RunConfig::small(), &dir, None).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_across_chunk_boundaries() {
        // 37·21·23 = 17 871 values per array: two full 8 192-value chunks
        // and a partial one.
        let shape = Shape::new(37, 17, 19, 2, 2);
        assert!(shape.len() > 2 * CHUNK / 8 && !shape.len().is_multiple_of(CHUNK / 8));
        let mut seq = 0.0;
        let mut panel = || {
            State::from_arrays(std::array::from_fn(|_| {
                Array3::from_fn(shape, |i, j, k| {
                    seq += 1.0;
                    seq + i as f64 * 1e-3 + j as f64 * 1e-6 + k as f64 * 1e-9
                })
            }))
        };
        let (yin, yang) = (panel(), panel());
        let ck = Checkpoint { shape, step: 7, time: 0.25, dt_cache: 1e-3, yin, yang };
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 64 + 16 * shape.len() * 8 + 12);
        assert_eq!(Checkpoint::read_from(&mut buf.as_slice()).unwrap(), ck);
    }

    #[test]
    fn restart_is_bit_exact() {
        // Continuous run vs checkpoint-restart run.
        let cfg = RunConfig::small();
        let mut continuous = SerialSim::new(cfg.clone());
        continuous.run(4, 0);

        let mut first = SerialSim::new(cfg.clone());
        first.run(2, 0);
        let ck = Checkpoint::capture(&first);
        let mut resumed = SerialSim::new(cfg);
        ck.restore(&mut resumed);
        resumed.run(2, 0);

        assert_eq!(continuous.step, resumed.step);
        assert_eq!(continuous.time, resumed.time);
        assert_eq!(continuous.yin, resumed.yin);
        assert_eq!(continuous.yang, resumed.yang);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("yycore_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ck");
        let mut sim = SerialSim::new(RunConfig::small());
        sim.run(1, 0);
        let ck = Checkpoint::capture(&sim);
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        std::fs::remove_file(&path).ok();
    }
}
