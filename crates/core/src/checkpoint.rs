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
//! test), because the ghost/frame values are stored too.

use crate::config::RunConfig;
use crate::serial::{fill_pair, SerialSim};
use std::io::{self, Read, Write};
use yy_field::{Array3, Shape};
use yy_mesh::{OversetColumn, Panel, PatchGrid};
use yy_mhd::{initialize, State};

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
// is squarely on the output hot path.
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

/// Streaming CRC-32 accumulator.
#[derive(Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
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
        self.0 = c;
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

    /// Restore into a freshly constructed simulation (whose configuration
    /// must produce the same shape).
    pub fn restore(&self, sim: &mut SerialSim) {
        assert_eq!(
            sim.yin.shape(),
            self.shape,
            "checkpoint shape {:?} does not match the simulation",
            self.shape
        );
        sim.yin.copy_from(&self.yin);
        sim.yang.copy_from(&self.yang);
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
        for panel in [&self.yin, &self.yang] {
            for arr in panel.arrays() {
                write_array(&mut hw, arr)?;
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
    /// with a descriptive [`io::Error`].
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
        let mut yin = State::zeros(shape);
        let mut yang = State::zeros(shape);
        for panel in [&mut yin, &mut yang] {
            for arr in panel.arrays_mut() {
                read_array(&mut hr, arr)?;
            }
        }
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

    /// A step-0 checkpoint of `cfg`'s run awaiting owned blocks, its
    /// panels *initialized* rather than zeroed: the serial driver's ghost
    /// padding keeps its initialization values forever (syncs only
    /// rewrite frames and walls), so a checkpoint assembled from owned
    /// blocks is byte-identical to a serial one only if the unowned
    /// padding carries the same initial bytes.
    pub(crate) fn blank(cfg: &RunConfig, grid: &PatchGrid) -> Checkpoint {
        let [yin, yang] = [Panel::Yin, Panel::Yang].map(|p| {
            let mut s = State::zeros(grid.full_shape());
            initialize(&mut s, grid, None, &cfg.params, &cfg.init, p);
            s
        });
        Checkpoint { shape: grid.full_shape(), step: 0, time: 0.0, dt_cache: 0.0, yin, yang }
    }

    /// Close a checkpoint whose owned blocks have all been placed: the
    /// blocks carry owned values only, so refill the overset frames and
    /// wall conditions exactly as the serial driver's boundary
    /// synchronisation would, and stamp the clock.
    pub(crate) fn seal(
        &mut self,
        cfg: &RunConfig,
        cols: &[OversetColumn],
        step: u64,
        time: f64,
        dt_cache: f64,
    ) {
        fill_pair(&mut self.yin, &mut self.yang, cols, cfg.params.t_inner, cfg.mag_bc, None);
        (self.step, self.time, self.dt_cache) = (step, time, dt_cache);
    }
}

pub(crate) fn write_array<W: Write>(w: &mut W, a: &Array3) -> io::Result<()> {
    // One bulk conversion per array keeps the writer syscall-friendly.
    let mut bytes = Vec::with_capacity(a.data().len() * 8);
    for v in a.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)
}

pub(crate) fn read_array<R: Read>(r: &mut R, a: &mut Array3) -> io::Result<()> {
    let n = a.data().len();
    let mut bytes = vec![0u8; n * 8];
    read_exact_ctx(r, &mut bytes, "field data")?;
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        // `chunks_exact(8)` yields eight-byte slices.
        a.data_mut()[i] = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    Ok(())
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

    #[test]
    fn sliced_crc_matches_the_byte_loop_at_every_split() {
        // Oracle: the one-table loop the sixteen tables are derived from.
        fn bytewise(bytes: &[u8]) -> u32 {
            let c = bytes.iter().fold(0xFFFF_FFFF_u32, |c, &b| {
                CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
            });
            c ^ 0xFFFF_FFFF
        }
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
