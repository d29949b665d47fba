//! Floating-point operation accounting.
//!
//! The paper's headline numbers come from the Earth Simulator's hardware
//! FLOP counters (the `MPIPROGINF` report). We reproduce that accounting in
//! software: every numerical kernel carries an analytic flops-per-point
//! constant, and each site reports its exact [`KernelTally`] once, to the
//! [`Meters`] panel the solver carries. The ES performance model converts
//! the counts into projected sustained TFlops (Tables II/III) and
//! `MPIPROGINF` listings (List 1).
//!
//! The panel is one `u64` of aggregate flops (always on — the source of
//! `RunReport.flops`, one integer add per site) plus a shared per-kernel
//! [`CounterSet`] that breaks the same counts down by kernel, with bytes,
//! loop counts and wall time (see `yy_obs::counters`). Both are fed from
//! the same call, so the per-kernel totals sum to the aggregate by
//! construction — a property the core test suite pins. A rate is a count
//! over a wall time somebody else measured: `RunReport::mflops` (the run's)
//! and `KernelSnapshot::mflops` (the kernel's own).

use std::sync::Arc;
use std::time::Instant;

use yy_obs::counters::{CounterSet, Kernel, KernelTally};

/// The solver's instrument panel: the aggregate flop count plus a shared
/// per-kernel [`CounterSet`].
///
/// Every kernel site reports once, through [`Meters::kernel`] or
/// [`Meters::kernel_timed`]; the tally's FLOPs feed both the aggregate
/// and the per-kernel cell, so `Σ per-kernel flops == aggregate flops`
/// holds exactly whenever the counter set was enabled since the last
/// [`Meters::reset`].
#[derive(Debug, Clone, Default)]
pub struct Meters {
    flops: u64,
    counters: Arc<CounterSet>,
}

impl Meters {
    /// A fresh panel with a private, **disabled** counter set (aggregate
    /// accounting only — the cheapest configuration).
    pub fn new() -> Self {
        Meters::default()
    }

    /// A panel recording per-kernel counters into `counters` (shareable
    /// with a sampler or exporter).
    pub fn with_counters(counters: Arc<CounterSet>) -> Self {
        Meters { flops: 0, counters }
    }

    /// The shared per-kernel counter set.
    pub fn counters(&self) -> &Arc<CounterSet> {
        &self.counters
    }

    /// Record one kernel invocation: the tally's FLOPs land in the
    /// aggregate unconditionally, and the full tally lands in the
    /// per-kernel cell when counters are enabled.
    #[inline]
    pub fn kernel(&mut self, id: Kernel, tally: KernelTally) {
        self.flops += tally.flops;
        self.counters.add(id, tally);
    }

    /// Start a wall-time sample for [`Meters::kernel_timed`]; `None`
    /// (no clock read) when counters are disabled.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        self.counters.timer()
    }

    /// [`Meters::kernel`] plus wall-time attribution from a
    /// [`Meters::timer`] sample.
    #[inline]
    pub fn kernel_timed(&mut self, id: Kernel, tally: KernelTally, t0: Option<Instant>) {
        self.flops += tally.flops;
        self.counters.add_timed(id, tally, t0);
    }

    /// Total aggregate operations recorded.
    #[inline]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Zero the aggregate and the per-kernel counters. The drivers call
    /// it at stepping-loop entry, so a report counts the loop only.
    pub fn reset(&mut self) {
        self.flops = 0;
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_counts() {
        let mut m = Meters::new();
        m.kernel(Kernel::Rhs, KernelTally { flops: 10, ..KernelTally::default() });
        m.kernel_timed(Kernel::Rhs, KernelTally { flops: 700, ..KernelTally::default() }, None);
        assert_eq!(m.flops(), 710);
    }

    #[test]
    fn meters_feed_both_views_consistently() {
        let counters = Arc::new(CounterSet::enabled());
        let mut m = Meters::with_counters(Arc::clone(&counters));
        let tally = KernelTally {
            points: 100,
            loops: 10,
            vector_elements: 100,
            flops: 64_000,
            bytes_read: 800,
            bytes_written: 80,
        };
        m.kernel(Kernel::Rhs, tally);
        let t0 = m.timer();
        m.kernel_timed(Kernel::Rk4Combine, KernelTally { flops: 1_000, ..tally }, t0);
        let snap = counters.snapshot();
        assert_eq!(snap.total_flops(), m.flops());
        assert_eq!(snap.kernels[Kernel::Rhs as usize].points, 100);
        assert!(snap.kernels[Kernel::Rk4Combine as usize].wall_ns > 0);
    }

    #[test]
    fn disabled_meters_still_count_aggregate_flops() {
        let mut m = Meters::new(); // disabled counter set
        m.kernel(
            Kernel::Rhs,
            KernelTally { points: 4, loops: 1, flops: 2_560, ..KernelTally::default() },
        );
        assert_eq!(m.flops(), 2_560, "aggregate meter is always on");
        assert!(m.counters().snapshot().is_empty());
        assert!(m.timer().is_none());
    }

    #[test]
    fn meters_reset_clears_both_views() {
        let counters = Arc::new(CounterSet::enabled());
        let mut m = Meters::with_counters(Arc::clone(&counters));
        m.kernel(
            Kernel::Rhs,
            KernelTally { points: 1, loops: 1, flops: 640, ..KernelTally::default() },
        );
        m.reset();
        assert_eq!(m.flops(), 0);
        assert!(counters.snapshot().is_empty());
    }
}
