//! Probes of the machine itself: the roofline's two roofs, taken in the
//! traced run so they come from the same minutes as the kernel rates,
//! and the reference stencil every end-to-end run calibrates its clock
//! against.

use std::hint::black_box;
use std::time::Instant;

fn read_kib(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.trim()
        .strip_suffix('K')?
        .parse::<u64>()
        .ok()
        .map(|k| k * 1024)
}

/// Size of the last-level cache of CPU 0 as sysfs reports it.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| read_kib(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .max()
}

fn mem_available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix("MemAvailable:"))?;
    line.trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()
        .map(|k| k * 1024)
}

/// Elements per triad array for the memory-bandwidth probe: each array
/// four times the last-level cache, clipped so the three arrays together
/// stay within 1/32 of `MemAvailable` (first-touch page faults on this
/// class of VM cost about 5 s per GiB, and the probe runs in every
/// traced run). Returns the element count and whether the clip applied.
pub fn mem_triad_len() -> (usize, bool) {
    let want = 4 * llc_bytes().unwrap_or(32 << 20);
    let cap = mem_available_bytes().unwrap_or(8 << 30) / 32 / 3;
    ((want.min(cap) / 8) as usize, cap < want)
}

/// Elements per array for the cache-resident triad: three arrays,
/// 1.5 MiB together.
pub const L2_TRIAD_LEN: usize = 64 * 1024;

pub struct Triad {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Triad {
    pub fn new(len: usize) -> Triad {
        Triad {
            a: vec![0.0; len],
            b: vec![1.0; len],
            c: vec![2.0; len],
        }
    }

    /// One pass of `a = b + s·c`; returns the bytes it moved, computed
    /// from the array sizes (two reads and one write per element).
    pub fn pass(&mut self, s: f64) -> u64 {
        for ((a, b), c) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
            *a = b + s * c;
        }
        black_box(&mut self.a);
        24 * self.a.len() as u64
    }
}

/// Multiply-add chains per probe: enough independent work to keep both
/// floating-point pipes busy through the 8-cycle multiply-add latency,
/// few enough to stay in the 16 vector registers.
const CHAINS: usize = 12;

pub const SCALAR_FLOPS_PER_ROUND: f64 = 2.0 * CHAINS as f64;
pub const PACKED_FLOPS_PER_ROUND: f64 = 4.0 * CHAINS as f64;

/// Lane-width-pinned probes. Plain Rust cannot ask for a scalar
/// multiply: the compiler packs independent `f64` chains into two-lane
/// instructions on its own, so the scalar roof needs the `_sd`
/// intrinsics.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;
    use std::time::Instant;

    #[target_feature(enable = "sse2")]
    pub fn scalar_chain_seconds(iters: u64) -> f64 {
        let a = _mm_set_sd(black_box(1.000_000_1));
        let b = _mm_set_sd(black_box(1e-9));
        let mut x = [_mm_set_sd(black_box(1.0)); CHAINS];
        let t = Instant::now();
        for _ in 0..iters {
            for v in &mut x {
                *v = _mm_add_sd(_mm_mul_sd(*v, a), b);
            }
        }
        let s = t.elapsed().as_secs_f64();
        black_box(x.map(|v| _mm_cvtsd_f64(v)));
        s
    }

    #[target_feature(enable = "sse2")]
    pub fn packed_chain_seconds(iters: u64) -> f64 {
        let a = _mm_set1_pd(black_box(1.000_000_1));
        let b = _mm_set1_pd(black_box(1e-9));
        let mut x = [_mm_set1_pd(black_box(1.0)); CHAINS];
        let t = Instant::now();
        for _ in 0..iters {
            for v in &mut x {
                *v = _mm_add_pd(_mm_mul_pd(*v, a), b);
            }
        }
        let s = t.elapsed().as_secs_f64();
        // Both lanes feed the result, so neither can be optimised away.
        black_box(x.map(|v| _mm_cvtsd_f64(_mm_add_sd(v, _mm_unpackhi_pd(v, v)))));
        s
    }
}

/// Seconds for `iters` rounds of [`CHAINS`] independent scalar
/// `x = x·a + b` updates (2 flops each).
#[cfg(target_arch = "x86_64")]
pub fn scalar_chain_seconds(iters: u64) -> f64 {
    // SAFETY: SSE2, the only feature the probe enables, is part of the
    // x86_64 baseline every CPU of this architecture implements.
    unsafe { lanes::scalar_chain_seconds(iters) }
}

/// Seconds for `iters` rounds of [`CHAINS`] independent two-lane packed
/// `x = x·a + b` updates (4 flops each) — the widest form the default
/// `x86_64` target may emit.
#[cfg(target_arch = "x86_64")]
pub fn packed_chain_seconds(iters: u64) -> f64 {
    // SAFETY: as for `scalar_chain_seconds`.
    unsafe { lanes::packed_chain_seconds(iters) }
}

/// Off `x86_64` there are no lane-width intrinsics to pin down: both
/// probes run a plain loop, over [`CHAINS`] and twice [`CHAINS`]
/// values, and report whatever the compiler made of it.
#[cfg(not(target_arch = "x86_64"))]
fn plain_chain_seconds<const N: usize>(iters: u64) -> f64 {
    use std::time::Instant;
    let (a, b) = (black_box(1.000_000_1), black_box(1e-9));
    let mut x = [black_box(1.0f64); N];
    let t = Instant::now();
    for _ in 0..iters {
        for v in &mut x {
            *v = *v * a + b;
        }
    }
    let s = t.elapsed().as_secs_f64();
    black_box(x);
    s
}

#[cfg(not(target_arch = "x86_64"))]
pub fn scalar_chain_seconds(iters: u64) -> f64 {
    plain_chain_seconds::<CHAINS>(iters)
}

#[cfg(not(target_arch = "x86_64"))]
pub fn packed_chain_seconds(iters: u64) -> f64 {
    plain_chain_seconds::<{ 2 * CHAINS }>(iters)
}

/// Fields the reference stencil couples, as many as the solver's state.
const REF_FIELDS: usize = 8;
/// The reference stencil's block: the solver's 24-long radial rows, and
/// few enough of them that all sixteen arrays (300 KiB) stay in the
/// private L2, so the probe feels what happens to the core and not what
/// happens to the shared last-level cache.
const REF_DIMS: (usize, usize, usize) = (24, 10, 10);
/// Passes per probe: about 10 ms, long enough that a momentary clock
/// boost cannot set the fastest probe.
const REF_PASSES: usize = 100;
/// Seconds per point update of the reference stencil on the builder's
/// box (2-vCPU guest, Xeon @ 2.1 GHz) with the host quiet: the fastest
/// probe of several quiet runs. End-to-end timings are scaled by this
/// over the run's own fastest probe.
pub const REF_NOMINAL_S_PER_POINT: f64 = 70.0e-9;

/// The benchmark's own yardstick: a seven-point stencil over eight
/// coupled fields, shaped like the solver's right-hand side (many L1
/// loads and a few hundred dependent-free flops per point, one division
/// per field). A neighbour on the host slows this loop and the solver by
/// nearly the same factor (measured 1.6x against 1.75x, with register-only
/// multiply-add chains unmoved and cache-resident triads at 1.3x), which
/// is what makes it usable as a clock. It lives here, outside the
/// workspace crates, so no change to the solver can move it.
pub struct RefStencil {
    src: Vec<Vec<f64>>,
    dst: Vec<Vec<f64>>,
}

impl Default for RefStencil {
    fn default() -> RefStencil {
        let (nr, nth, nph) = REF_DIMS;
        let field = |f: usize| {
            (0..nr * nth * nph)
                .map(|i| 1.0 + 1e-3 * ((i * 7 + f * 13) % 101) as f64)
                .collect()
        };
        RefStencil {
            src: (0..REF_FIELDS).map(field).collect(),
            dst: vec![vec![0.0; nr * nth * nph]; REF_FIELDS],
        }
    }
}

impl RefStencil {
    /// Interior points one pass updates.
    pub const POINTS: usize = (REF_DIMS.0 - 2) * (REF_DIMS.1 - 2) * (REF_DIMS.2 - 2);

    fn pass(&mut self) {
        let (nr, nth, nph) = REF_DIMS;
        for k in 1..nph - 1 {
            for j in 1..nth - 1 {
                let o = (k * nth + j) * nr;
                let (north, south, east, west) = (o + nr, o - nr, o + nth * nr, o - nth * nr);
                for i in 1..nr - 1 {
                    let mut c = [0.0; REF_FIELDS];
                    let mut g = [[0.0; 3]; REF_FIELDS];
                    for (f, a) in self.src.iter().enumerate() {
                        c[f] = a[o + i];
                        g[f] = [
                            a[o + i + 1] - a[o + i - 1],
                            a[north + i] - a[south + i],
                            a[east + i] - a[west + i],
                        ];
                    }
                    for f in 0..REF_FIELDS {
                        let mut acc = 0.0;
                        for h in 0..REF_FIELDS {
                            acc +=
                                c[h] * (g[f][0] * g[h][0] + g[f][1] * g[h][1] + g[f][2] * g[h][2]);
                        }
                        self.dst[f][o + i] = c[f] + 1e-3 * acc / (1.0 + c[f] * c[f]);
                    }
                }
            }
        }
        // Neither the inputs nor the results are known to the compiler, so
        // no pass can be folded into the one before it.
        black_box((&mut self.src, &mut self.dst));
    }

    /// One probe: seconds per point update over [`REF_PASSES`] passes.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REF_PASSES {
            self.pass();
        }
        t.elapsed().as_secs_f64() / (REF_PASSES * Self::POINTS) as f64
    }
}
