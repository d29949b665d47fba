//! Per-kernel performance counters — the software stand-in for the Earth
//! Simulator's hardware counter report (`MPIPROGINF`, List 1 of the
//! paper).
//!
//! The paper's 15.2 TFlops headline is not a trace: it is read off a
//! *counter report* — per-process FLOP count, vector element count and
//! average vector length, aggregated at `MPI_Finalize`. This module
//! reproduces that discipline in software. Every numerical site (RHS
//! sweep, RK4 combine, halo pack/unpack, overset donate/fill, health
//! scan) tallies **exact, analytically derived** counts into a
//! [`CounterSet`]: FLOPs from the per-point constants the kernels are
//! written against, grid points touched, innermost-loop executions
//! (`loops`, so `points / loops` is the equivalent vector length the ES
//! counters would report), and modeled bytes moved. Wall time per kernel
//! is sampled with a monotonic clock only while the set is enabled.
//!
//! A disabled `CounterSet` costs **one relaxed atomic load** per site
//! and nothing else — no clock reads, no tallying; the repo benchmark's
//! `obs.all_armed_ratio` row measures the enabled path against it.
//!
//! Snapshots reduce across ranks exactly: every tally is an integer far
//! below 2⁵³, so an elementwise-Sum allreduce over the
//! [`CounterSnapshot::to_f64s`] words is lossless (the same trick the
//! histogram merge uses).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Kernel identifiers: the per-kernel counter namespace.
///
/// Stable u8 ids, used both as `CounterSet` indices and as the `sub`
/// byte of [`crate::Event::CounterSample`] wire records.
pub mod kernel {
    /// The RHS finite-difference sweep (640 flops/point, `yy-mhd`).
    pub const RHS: u8 = 0;
    /// RK4 state combines (axpy / assign-axpy over the 8 state arrays).
    pub const RK4_COMBINE: u8 = 1;
    /// Halo region pack (owned boundary bands → message buffers).
    pub const HALO_PACK: u8 = 2;
    /// Halo region unpack (message buffers → ghost bands).
    pub const HALO_UNPACK: u8 = 3;
    /// Overset donate: bilinear interpolation + tangent rotation of
    /// donor columns for the partner panel.
    pub const OVERSET_DONATE: u8 = 4;
    /// Overset fill: placing received (or locally interpolated) columns
    /// into the target frame.
    pub const OVERSET_FILL: u8 = 5;
    /// Solver health scan (NaN/Inf + positivity floors).
    pub const HEALTH_SCAN: u8 = 6;
    /// Output pipeline: checkpoint/snapshot shard pack, encode (delta +
    /// RLE) and file write. `flops` stays 0 — the slot exists so the
    /// roofline table shows where the output bytes and wall time go.
    pub const OUTPUT: u8 = 7;
    /// Number of kernels.
    pub const COUNT: usize = 8;

    /// Kernel name for reports and exposition labels.
    pub fn name(id: u8) -> &'static str {
        match id {
            RHS => "rhs",
            RK4_COMBINE => "rk4_combine",
            HALO_PACK => "halo_pack",
            HALO_UNPACK => "halo_unpack",
            OVERSET_DONATE => "overset_donate",
            OVERSET_FILL => "overset_fill",
            HEALTH_SCAN => "health_scan",
            OUTPUT => "output",
            _ => "unknown",
        }
    }
}

/// One site's contribution to a kernel's counters. All counts are exact
/// (derived from loop bounds and per-point constants, never sampled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTally {
    /// Grid points (or values, for copy kernels) processed.
    pub points: u64,
    /// Innermost-loop executions. For a kernel that makes one radial pass
    /// per point this equals `points / vector-length`; fused multi-pass
    /// kernels (the RHS) execute several inner loops per column.
    pub loops: u64,
    /// Total inner-loop trip count — the ES "vector element" counter.
    /// `vector_elements / loops` is the equivalent vector length; for a
    /// single-pass kernel it equals `points`, and for a P-pass fused
    /// kernel it is `P × points` (so the ratio stays the radial extent).
    pub vector_elements: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Modeled bytes read (stencil/table traffic, not cache-measured).
    pub bytes_read: u64,
    /// Modeled bytes written.
    pub bytes_written: u64,
}

/// Per-kernel atomic counter cell.
#[derive(Debug, Default)]
struct KernelCell {
    calls: AtomicU64,
    points: AtomicU64,
    loops: AtomicU64,
    vector_elements: AtomicU64,
    flops: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    wall_ns: AtomicU64,
}

/// The per-rank performance-counter registry: one cell per kernel id,
/// behind an enabled flag with the flight recorder's fast-path
/// discipline (one relaxed load when disabled).
///
/// All mutation is relaxed-atomic, so a set can be shared (`Arc`)
/// between the solver thread and a snapshotting sampler or exporter.
#[derive(Debug)]
pub struct CounterSet {
    enabled: AtomicBool,
    cells: [KernelCell; kernel::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::new()
    }
}

impl CounterSet {
    /// A zeroed, **disabled** counter set.
    pub fn new() -> Self {
        CounterSet { enabled: AtomicBool::new(false), cells: Default::default() }
    }

    /// A zeroed, enabled counter set.
    pub fn enabled() -> Self {
        let set = CounterSet::new();
        set.set_enabled(true);
        set
    }

    /// Whether tallies are currently recorded — the one relaxed load
    /// every site pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable recording (counts are kept across toggles).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Zero every cell (the stepping-window reset at loop entry).
    pub fn reset(&self) {
        for cell in &self.cells {
            cell.calls.store(0, Ordering::Relaxed);
            cell.points.store(0, Ordering::Relaxed);
            cell.loops.store(0, Ordering::Relaxed);
            cell.vector_elements.store(0, Ordering::Relaxed);
            cell.flops.store(0, Ordering::Relaxed);
            cell.bytes_read.store(0, Ordering::Relaxed);
            cell.bytes_written.store(0, Ordering::Relaxed);
            cell.wall_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Tally one kernel invocation. No-op (one relaxed load) when
    /// disabled.
    #[inline]
    pub fn add(&self, id: u8, t: KernelTally) {
        if !self.is_enabled() {
            return;
        }
        self.add_always(id, t);
    }

    fn add_always(&self, id: u8, t: KernelTally) {
        let c = &self.cells[id as usize];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.points.fetch_add(t.points, Ordering::Relaxed);
        c.loops.fetch_add(t.loops, Ordering::Relaxed);
        c.vector_elements.fetch_add(t.vector_elements, Ordering::Relaxed);
        c.flops.fetch_add(t.flops, Ordering::Relaxed);
        c.bytes_read.fetch_add(t.bytes_read, Ordering::Relaxed);
        c.bytes_written.fetch_add(t.bytes_written, Ordering::Relaxed);
    }

    /// Start a wall-time sample: `Some(now)` when enabled, `None` (no
    /// clock read) when disabled. Pair with [`CounterSet::add_timed`].
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Tally one invocation plus the wall time since `t0` (from
    /// [`CounterSet::timer`]). When `t0` is `None` the set was disabled
    /// at span start; re-check once and drop the span.
    #[inline]
    pub fn add_timed(&self, id: u8, t: KernelTally, t0: Option<Instant>) {
        let Some(t0) = t0 else {
            return;
        };
        if !self.is_enabled() {
            return;
        }
        self.add_always(id, t);
        self.cells[id as usize]
            .wall_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// An immutable copy of every cell.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            kernels: std::array::from_fn(|i| {
                let c = &self.cells[i];
                KernelSnapshot {
                    calls: c.calls.load(Ordering::Relaxed),
                    points: c.points.load(Ordering::Relaxed),
                    loops: c.loops.load(Ordering::Relaxed),
                    vector_elements: c.vector_elements.load(Ordering::Relaxed),
                    flops: c.flops.load(Ordering::Relaxed),
                    bytes_read: c.bytes_read.load(Ordering::Relaxed),
                    bytes_written: c.bytes_written.load(Ordering::Relaxed),
                    wall_ns: c.wall_ns.load(Ordering::Relaxed),
                }
            }),
        }
    }
}

/// Immutable per-kernel counter state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// Kernel invocations.
    pub calls: u64,
    /// Grid points / values processed.
    pub points: u64,
    /// Innermost-loop executions.
    pub loops: u64,
    /// Total inner-loop trip count (ES vector element counter).
    pub vector_elements: u64,
    /// Floating-point operations (exact).
    pub flops: u64,
    /// Modeled bytes read.
    pub bytes_read: u64,
    /// Modeled bytes written.
    pub bytes_written: u64,
    /// Wall time attributed to the kernel (ns).
    pub wall_ns: u64,
}

/// Words per kernel in the f64 merge encoding.
const WORDS_PER_KERNEL: usize = 8;

/// Number of f64 words [`CounterSnapshot::to_f64s`] produces.
pub const COUNTER_MERGE_WORDS: usize = WORDS_PER_KERNEL * kernel::COUNT;

impl KernelSnapshot {
    /// Achieved MFLOPS over the kernel's attributed wall time (0 when
    /// untimed).
    pub fn mflops(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.flops as f64 / (self.wall_ns as f64 / 1e9) / 1e6
        }
    }

    /// Arithmetic intensity: flops per modeled byte moved.
    pub fn intensity(&self) -> f64 {
        let bytes = self.bytes_read + self.bytes_written;
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }

    /// Equivalent vector length `vector_elements / loops` — what the ES
    /// average vector length counter reports for a radially-vectorized
    /// loop. Decomposition-invariant for the fused RHS: both numerator
    /// and denominator scale with the pass count, so the ratio stays the
    /// radial extent of the inner loop.
    pub fn avg_vector_length(&self) -> f64 {
        if self.loops == 0 {
            0.0
        } else {
            self.vector_elements as f64 / self.loops as f64
        }
    }
}

/// Immutable all-kernel counter state: what crosses rank boundaries and
/// lands in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Per-kernel snapshots, indexed by [`kernel`] id.
    pub kernels: [KernelSnapshot; kernel::COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot { kernels: [KernelSnapshot::default(); kernel::COUNT] }
    }
}

impl CounterSnapshot {
    /// Whether any kernel recorded anything.
    pub fn is_empty(&self) -> bool {
        self.kernels.iter().all(|k| k.calls == 0)
    }

    /// Sum of per-kernel FLOP counts — the number the aggregate
    /// [`crate::hist`]-style property test pins against the scalar
    /// flop meter.
    pub fn total_flops(&self) -> u64 {
        self.kernels.iter().map(|k| k.flops).sum()
    }

    /// The roofline table `yycore profile` prints: one row per kernel
    /// that ran — calls, measured MFLOPS, arithmetic intensity,
    /// equivalent vector length, share of the total flops.
    pub fn roofline_text(&self) -> String {
        let total_flops = self.total_flops().max(1);
        let mut out = format!(
            "{:<16} {:>10} {:>14} {:>10} {:>8} {:>8}\n",
            "kernel", "calls", "MFLOPS", "flops/B", "avg VL", "%flops"
        );
        for (id, k) in self.kernels.iter().enumerate().filter(|(_, k)| k.calls > 0) {
            // A kernel that counts flops but no wall time of its own runs
            // inside another kernel's timer: the RK4 combine, flushed per
            // column by the RHS sweep.
            let rate = if k.flops > 0 && k.wall_ns == 0 {
                "fused into rhs".to_string()
            } else {
                format!("{:.1}", k.mflops())
            };
            out.push_str(&format!(
                "{:<16} {:>10} {:>14} {:>10.3} {:>8.1} {:>8.2}\n",
                kernel::name(id as u8),
                k.calls,
                rate,
                k.intensity(),
                k.avg_vector_length(),
                100.0 * k.flops as f64 / total_flops as f64
            ));
        }
        out
    }

    /// Elementwise merge (every field adds — wall times are per-rank
    /// attributions, so their sum is all-rank seconds like the phase
    /// breakdown). Associative and commutative with the default as
    /// identity.
    pub fn merged(self, other: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            kernels: std::array::from_fn(|i| {
                let (a, b) = (self.kernels[i], other.kernels[i]);
                KernelSnapshot {
                    calls: a.calls + b.calls,
                    points: a.points + b.points,
                    loops: a.loops + b.loops,
                    vector_elements: a.vector_elements + b.vector_elements,
                    flops: a.flops + b.flops,
                    bytes_read: a.bytes_read + b.bytes_read,
                    bytes_written: a.bytes_written + b.bytes_written,
                    wall_ns: a.wall_ns + b.wall_ns,
                }
            }),
        }
    }

    /// All cells as f64 words for an elementwise-Sum allreduce. Exact
    /// while every count stays below 2⁵³.
    pub fn to_f64s(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(COUNTER_MERGE_WORDS);
        for k in &self.kernels {
            v.extend_from_slice(&[
                k.calls as f64,
                k.points as f64,
                k.loops as f64,
                k.vector_elements as f64,
                k.flops as f64,
                k.bytes_read as f64,
                k.bytes_written as f64,
                k.wall_ns as f64,
            ]);
        }
        v
    }

    /// Rebuild from [`CounterSnapshot::to_f64s`] words.
    pub fn from_f64s(words: &[f64]) -> CounterSnapshot {
        assert_eq!(words.len(), COUNTER_MERGE_WORDS, "merged counter word count");
        CounterSnapshot {
            kernels: std::array::from_fn(|i| {
                let w = &words[i * WORDS_PER_KERNEL..(i + 1) * WORDS_PER_KERNEL];
                KernelSnapshot {
                    calls: w[0] as u64,
                    points: w[1] as u64,
                    loops: w[2] as u64,
                    vector_elements: w[3] as u64,
                    flops: w[4] as u64,
                    bytes_read: w[5] as u64,
                    bytes_written: w[6] as u64,
                    wall_ns: w[7] as u64,
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(points: u64, flops: u64) -> KernelTally {
        KernelTally {
            points,
            loops: points / 8,
            vector_elements: points,
            flops,
            bytes_read: 10 * points,
            bytes_written: points,
        }
    }

    #[test]
    fn disabled_set_records_nothing() {
        let set = CounterSet::new();
        set.add(kernel::RHS, tally(64, 640));
        assert!(set.timer().is_none(), "disabled set must not read the clock");
        set.add_timed(kernel::RHS, tally(64, 640), None);
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn enabled_set_tallies_exactly() {
        let set = CounterSet::enabled();
        set.add(kernel::RHS, tally(64, 640 * 64));
        set.add(kernel::RHS, tally(64, 640 * 64));
        set.add(kernel::RK4_COMBINE, tally(8, 112 * 8));
        let s = set.snapshot();
        let rhs = s.kernels[kernel::RHS as usize];
        assert_eq!(rhs.calls, 2);
        assert_eq!(rhs.points, 128);
        assert_eq!(rhs.loops, 16);
        assert_eq!(rhs.vector_elements, 128);
        assert_eq!(rhs.flops, 2 * 640 * 64);
        assert_eq!(rhs.avg_vector_length(), 8.0);
        assert_eq!(s.total_flops(), 2 * 640 * 64 + 112 * 8);
        assert!((rhs.intensity() - rhs.flops as f64 / (11.0 * 128.0)).abs() < 1e-12);
    }

    #[test]
    fn timed_add_attributes_wall_time() {
        let set = CounterSet::enabled();
        let t0 = set.timer();
        assert!(t0.is_some());
        set.add_timed(kernel::HEALTH_SCAN, tally(100, 1000), t0);
        let k = set.snapshot().kernels[kernel::HEALTH_SCAN as usize];
        assert_eq!(k.calls, 1);
        assert!(k.wall_ns > 0, "a timed add must accumulate wall time");
        assert!(k.mflops() > 0.0);
    }

    #[test]
    fn reset_zeroes_but_keeps_enablement() {
        let set = CounterSet::enabled();
        set.add(kernel::RHS, tally(64, 640));
        set.reset();
        assert!(set.snapshot().is_empty());
        assert!(set.is_enabled());
    }

    #[test]
    fn f64_words_roundtrip_and_sum_merge() {
        let a = CounterSet::enabled();
        a.add(kernel::RHS, tally(64, 640 * 64));
        a.add(kernel::HALO_PACK, tally(32, 0));
        let b = CounterSet::enabled();
        b.add(kernel::RHS, tally(16, 640 * 16));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        // Simulate the allreduce: elementwise sum of the words.
        let summed: Vec<f64> =
            sa.to_f64s().iter().zip(sb.to_f64s()).map(|(x, y)| x + y).collect();
        assert_eq!(CounterSnapshot::from_f64s(&summed), sa.merged(sb));
        assert_eq!(CounterSnapshot::from_f64s(&sa.to_f64s()), sa);
        assert_eq!(
            sa.merged(CounterSnapshot::default()),
            sa,
            "default is the merge identity"
        );
    }

    #[test]
    fn kernel_names_are_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..kernel::COUNT as u8 {
            let n = kernel::name(id);
            assert_ne!(n, "unknown");
            assert!(seen.insert(n), "duplicate kernel name {n}");
        }
        assert_eq!(kernel::name(200), "unknown");
    }

    #[test]
    fn derived_rates_are_zero_safe() {
        let k = KernelSnapshot::default();
        assert_eq!(k.mflops(), 0.0);
        assert_eq!(k.intensity(), 0.0);
        assert_eq!(k.avg_vector_length(), 0.0);
    }
}
