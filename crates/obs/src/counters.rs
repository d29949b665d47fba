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
//! [`CounterSnapshot::to_f64s`] words is lossless.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

crate::event::code_table! {
    /// Kernel identifiers: the per-kernel counter namespace. The codes
    /// are dense from 0: they index [`CounterSet`]'s cells and
    /// [`CounterSnapshot::kernels`].
    pub enum Kernel {
        /// The RHS finite-difference sweep (640 flops/point, `yy-mhd`).
        Rhs = 0 => "rhs",
        /// RK4 state combines (axpy / assign-axpy over the 8 state arrays).
        Rk4Combine = 1 => "rk4_combine",
        /// Halo region pack (owned boundary bands → message buffers).
        HaloPack = 2 => "halo_pack",
        /// Halo region unpack (message buffers → ghost bands).
        HaloUnpack = 3 => "halo_unpack",
        /// Overset donate: bilinear interpolation + tangent rotation of
        /// donor columns for the partner panel.
        OversetDonate = 4 => "overset_donate",
        /// Overset fill: placing received (or locally interpolated) columns
        /// into the target frame.
        OversetFill = 5 => "overset_fill",
        /// Solver health scan (NaN/Inf + positivity floors).
        HealthScan = 6 => "health_scan",
        /// Output pipeline: checkpoint/snapshot shard pack, encode (delta +
        /// RLE) and file write. `flops` stays 0 — the slot exists so the
        /// roofline table shows where the output bytes and wall time go.
        Output = 7 => "output",
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

impl KernelTally {
    /// A flop-free copy kernel: `values` values of `width` bytes each,
    /// moved in `rows` inner loops, every value read once and written
    /// once (halo pack/unpack, overset fill, the output packs).
    pub fn copy(values: u64, width: u64, rows: u64) -> KernelTally {
        KernelTally {
            points: values,
            loops: rows,
            vector_elements: values,
            flops: 0,
            bytes_read: values * width,
            bytes_written: values * width,
        }
    }

    /// Owned counts, real traffic: this tally's points, loops and flops
    /// (the decomposition-invariant owned-node convention) with the
    /// bytes of `real`, the work a rank did on ghosts as well.
    pub fn with_traffic_of(self, real: KernelTally) -> KernelTally {
        KernelTally { bytes_read: real.bytes_read, bytes_written: real.bytes_written, ..self }
    }
}

/// Words per kernel cell: [`KernelSnapshot::words`]'s length.
const WORDS: usize = 8;

/// Number of f64 words [`CounterSnapshot::to_f64s`] produces.
pub const COUNTER_MERGE_WORDS: usize = WORDS * Kernel::COUNT;

/// The per-rank performance-counter registry: one cell of
/// [`KernelSnapshot::words`] per kernel id, behind an enabled flag with
/// the flight recorder's fast-path discipline (one relaxed load when
/// disabled).
///
/// All mutation is relaxed-atomic, so a set can be shared (`Arc`)
/// between the solver thread and a snapshotting sampler or exporter.
#[derive(Debug)]
pub struct CounterSet {
    enabled: AtomicBool,
    cells: [[AtomicU64; WORDS]; Kernel::COUNT],
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
        CounterSet { enabled: AtomicBool::new(true), cells: Default::default() }
    }

    /// Whether tallies are currently recorded — the one relaxed load
    /// every site pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Zero every cell (the stepping-window reset at loop entry).
    pub fn reset(&self) {
        for word in self.cells.iter().flatten() {
            word.store(0, Ordering::Relaxed);
        }
    }

    /// Tally one kernel invocation. No-op (one relaxed load) when
    /// disabled.
    #[inline]
    pub fn add(&self, id: Kernel, t: KernelTally) {
        if self.is_enabled() {
            self.add_always(id, t, 0);
        }
    }

    fn add_always(&self, id: Kernel, t: KernelTally, wall_ns: u64) {
        let one_call = KernelSnapshot {
            calls: 1,
            points: t.points,
            loops: t.loops,
            vector_elements: t.vector_elements,
            flops: t.flops,
            bytes_read: t.bytes_read,
            bytes_written: t.bytes_written,
            wall_ns,
        };
        for (cell, word) in self.cells[id as usize].iter().zip(one_call.words()) {
            cell.fetch_add(word, Ordering::Relaxed);
        }
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
    pub fn add_timed(&self, id: Kernel, t: KernelTally, t0: Option<Instant>) {
        let Some(t0) = t0 else {
            return;
        };
        if self.is_enabled() {
            self.add_always(id, t, t0.elapsed().as_nanos() as u64);
        }
    }

    /// An immutable copy of every cell.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            kernels: std::array::from_fn(|k| {
                KernelSnapshot::from_words(std::array::from_fn(|w| {
                    self.cells[k][w].load(Ordering::Relaxed)
                }))
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

impl KernelSnapshot {
    /// The names of [`KernelSnapshot::words`], in order: the report's
    /// per-kernel JSON keys.
    pub const WORD_NAMES: [&'static str; WORDS] = [
        "calls",
        "points",
        "loops",
        "vector_elements",
        "flops",
        "bytes_read",
        "bytes_written",
        "wall_ns",
    ];

    /// Every field as one array: what the cells, the merge, the f64
    /// encoding and the exporters walk.
    pub fn words(&self) -> [u64; WORDS] {
        [
            self.calls,
            self.points,
            self.loops,
            self.vector_elements,
            self.flops,
            self.bytes_read,
            self.bytes_written,
            self.wall_ns,
        ]
    }

    /// Inverse of [`KernelSnapshot::words`].
    pub fn from_words(words: [u64; WORDS]) -> KernelSnapshot {
        let [calls, points, loops, vector_elements, flops, bytes_read, bytes_written, wall_ns] =
            words;
        KernelSnapshot {
            calls,
            points,
            loops,
            vector_elements,
            flops,
            bytes_read,
            bytes_written,
            wall_ns,
        }
    }

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Per-kernel snapshots, indexed by [`Kernel`] id.
    pub kernels: [KernelSnapshot; Kernel::COUNT],
}

impl CounterSnapshot {
    /// One kernel's snapshot.
    pub fn get(&self, kernel: Kernel) -> KernelSnapshot {
        self.kernels[kernel as usize]
    }

    /// Every kernel with its snapshot, in id order.
    pub fn rows(&self) -> impl Iterator<Item = (Kernel, &KernelSnapshot)> {
        Kernel::ALL.into_iter().zip(&self.kernels)
    }

    /// Whether any kernel recorded anything.
    pub fn is_empty(&self) -> bool {
        self.kernels.iter().all(|k| k.calls == 0)
    }

    /// Sum of per-kernel FLOP counts — what the core tests pin against
    /// the aggregate `RunReport.flops`.
    pub fn total_flops(&self) -> u64 {
        self.kernels.iter().map(|k| k.flops).sum()
    }

    /// The roofline table `yycore run` and `parallel` print: one row per kernel
    /// that ran — calls, measured MFLOPS, arithmetic intensity,
    /// equivalent vector length, share of the total flops.
    pub fn roofline_text(&self) -> String {
        let total_flops = self.total_flops().max(1);
        let mut out = format!(
            "{:<16} {:>10} {:>14} {:>10} {:>8} {:>8}\n",
            "kernel", "calls", "MFLOPS", "flops/B", "avg VL", "%flops"
        );
        for (kernel, k) in self.rows().filter(|(_, k)| k.calls > 0) {
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
                kernel.name(),
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
            kernels: std::array::from_fn(|k| {
                let (a, b) = (self.kernels[k].words(), other.kernels[k].words());
                KernelSnapshot::from_words(std::array::from_fn(|w| a[w] + b[w]))
            }),
        }
    }

    /// All cells as f64 words for an elementwise-Sum allreduce. Exact
    /// while every count stays below 2⁵³.
    pub fn to_f64s(&self) -> Vec<f64> {
        self.kernels.iter().flat_map(|k| k.words()).map(|w| w as f64).collect()
    }

    /// Rebuild from [`CounterSnapshot::to_f64s`] words.
    pub fn from_f64s(words: &[f64]) -> CounterSnapshot {
        assert_eq!(words.len(), COUNTER_MERGE_WORDS, "merged counter word count");
        CounterSnapshot {
            kernels: std::array::from_fn(|k| {
                KernelSnapshot::from_words(std::array::from_fn(|w| words[k * WORDS + w] as u64))
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
        set.add(Kernel::Rhs, tally(64, 640));
        assert!(set.timer().is_none(), "disabled set must not read the clock");
        set.add_timed(Kernel::Rhs, tally(64, 640), None);
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn enabled_set_tallies_exactly() {
        let set = CounterSet::enabled();
        set.add(Kernel::Rhs, tally(64, 640 * 64));
        set.add(Kernel::Rhs, tally(64, 640 * 64));
        set.add(Kernel::Rk4Combine, tally(8, 112 * 8));
        let s = set.snapshot();
        let rhs = s.get(Kernel::Rhs);
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
        set.add_timed(Kernel::HealthScan, tally(100, 1000), t0);
        let k = set.snapshot().get(Kernel::HealthScan);
        assert_eq!(k.calls, 1);
        assert!(k.wall_ns > 0, "a timed add must accumulate wall time");
        assert!(k.mflops() > 0.0);
    }

    #[test]
    fn reset_zeroes_but_keeps_enablement() {
        let set = CounterSet::enabled();
        set.add(Kernel::Rhs, tally(64, 640));
        set.reset();
        assert!(set.snapshot().is_empty());
        assert!(set.is_enabled());
    }

    #[test]
    fn f64_words_roundtrip_and_sum_merge() {
        let a = CounterSet::enabled();
        a.add(Kernel::Rhs, tally(64, 640 * 64));
        a.add(Kernel::HaloPack, tally(32, 0));
        let b = CounterSet::enabled();
        b.add(Kernel::Rhs, tally(16, 640 * 16));
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
        for (i, k) in Kernel::ALL.into_iter().enumerate() {
            assert_eq!(k as usize, i, "kernel ids are dense: they index the cells");
            assert!(seen.insert(k.name()), "duplicate kernel name {}", k.name());
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!((Kernel::Rhs as u8, Kernel::Output as u8), (0, 7));
    }

    #[test]
    fn words_are_the_fields_in_name_order() {
        let words = [1, 2, 3, 4, 5, 6, 7, 8];
        let k = KernelSnapshot::from_words(words);
        assert_eq!(k.words(), words);
        assert_eq!((k.calls, k.flops, k.wall_ns), (1, 5, 8));
        let at = |name| KernelSnapshot::WORD_NAMES.iter().position(|&n| n == name);
        assert_eq!((at("calls"), at("flops"), at("wall_ns")), (Some(0), Some(4), Some(7)));
    }

    #[test]
    fn derived_rates_are_zero_safe() {
        let k = KernelSnapshot::default();
        assert_eq!(k.mflops(), 0.0);
        assert_eq!(k.intensity(), 0.0);
        assert_eq!(k.avg_vector_length(), 0.0);
    }
}
