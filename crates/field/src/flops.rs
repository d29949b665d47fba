//! Floating-point operation accounting.
//!
//! The paper's headline numbers come from the Earth Simulator's hardware
//! FLOP counters (the `MPIPROGINF` report). We reproduce that accounting in
//! software: every numerical kernel carries an analytic flops-per-point
//! constant, and the solver accumulates exact counts into a [`FlopMeter`].
//! The ES performance model converts these counts into projected sustained
//! TFlops (Tables II/III) and `MPIPROGINF` listings (List 1).
//!
//! [`Meters`] is the full instrument panel the solvers actually carry: the
//! scalar [`FlopMeter`] (always on — it is the source of `RunReport.flops`
//! and costs one integer add per site) plus a shared per-kernel
//! [`CounterSet`] that breaks the same exact counts down by kernel, with
//! bytes, loop counts and wall time (see `yy_obs::counters`). The two views
//! are fed from the same [`Meters::kernel`] call, so the per-kernel totals
//! sum to the aggregate by construction — a property the core test suite
//! pins.
//!
//! **Measurement window**: `FlopMeter::mflops` divides by time since
//! construction *or the last reset*. Drivers must call
//! [`Meters::reset`] at stepping-loop entry so setup/warmup (grid
//! construction, initial boundary fill) does not deflate the reported rate
//! — the regression test `reset_restarts_the_measurement_window` guards
//! this contract.

use std::sync::Arc;
use std::time::Instant;

use yy_obs::counters::{CounterSet, KernelTally};

/// Accumulates floating-point-operation counts and wall time.
#[derive(Debug, Clone)]
pub struct FlopMeter {
    flops: u64,
    started: Instant,
}

impl Default for FlopMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl FlopMeter {
    /// A zeroed meter whose clock starts now.
    pub fn new() -> Self {
        FlopMeter { flops: 0, started: Instant::now() }
    }

    /// Record `n` floating point operations.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.flops += n;
    }

    /// Total operations recorded.
    #[inline]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Seconds since construction (or the last [`FlopMeter::reset`]).
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Measured MFLOPS since construction/reset.
    pub fn mflops(&self) -> f64 {
        let dt = self.elapsed_seconds();
        if dt <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / dt / 1.0e6
    }

    /// Zero the counter and restart the clock.
    pub fn reset(&mut self) {
        self.flops = 0;
        self.started = Instant::now();
    }
}

/// The solver's instrument panel: the aggregate [`FlopMeter`] plus a
/// shared per-kernel [`CounterSet`].
///
/// Every kernel site reports once, through [`Meters::kernel`] or
/// [`Meters::kernel_timed`]; the tally's FLOPs feed both the scalar
/// meter and the per-kernel cell, so `Σ per-kernel flops == aggregate
/// flops` holds exactly whenever the counter set was enabled for the
/// whole window.
#[derive(Debug, Clone)]
pub struct Meters {
    flop: FlopMeter,
    counters: Arc<CounterSet>,
}

impl Default for Meters {
    fn default() -> Self {
        Self::new()
    }
}

impl Meters {
    /// A fresh panel with a private, **disabled** counter set (scalar
    /// accounting only — the cheapest configuration).
    pub fn new() -> Self {
        Meters { flop: FlopMeter::new(), counters: Arc::new(CounterSet::new()) }
    }

    /// A panel recording per-kernel counters into `counters` (shareable
    /// with a sampler or exporter).
    pub fn with_counters(counters: Arc<CounterSet>) -> Self {
        Meters { flop: FlopMeter::new(), counters }
    }

    /// The shared per-kernel counter set.
    pub fn counters(&self) -> &Arc<CounterSet> {
        &self.counters
    }

    /// Record `n` operations against the aggregate meter only (for
    /// sites with no kernel identity; prefer [`Meters::kernel`]).
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.flop.add(n);
    }

    /// Record one kernel invocation: the tally's FLOPs land in the
    /// aggregate meter unconditionally, and the full tally lands in the
    /// per-kernel cell when counters are enabled.
    #[inline]
    pub fn kernel(&mut self, id: u8, tally: KernelTally) {
        self.flop.add(tally.flops);
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
    pub fn kernel_timed(&mut self, id: u8, tally: KernelTally, t0: Option<Instant>) {
        self.flop.add(tally.flops);
        self.counters.add_timed(id, tally, t0);
    }

    /// Total aggregate operations recorded.
    #[inline]
    pub fn flops(&self) -> u64 {
        self.flop.flops()
    }

    /// Seconds since construction or the last [`Meters::reset`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.flop.elapsed_seconds()
    }

    /// Aggregate MFLOPS over the current measurement window.
    pub fn mflops(&self) -> f64 {
        self.flop.mflops()
    }

    /// Open the measurement window: zero the aggregate meter, restart
    /// its clock, and zero the per-kernel counters. Call at stepping
    /// loop entry so setup/warmup stays outside the window.
    pub fn reset(&mut self) {
        self.flop.reset();
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_counts() {
        let mut m = FlopMeter::new();
        m.add(10);
        m.add(700);
        assert_eq!(m.flops(), 710);
    }

    #[test]
    fn reset_zeroes() {
        let mut m = FlopMeter::new();
        m.add(5);
        m.reset();
        assert_eq!(m.flops(), 0);
    }

    #[test]
    fn mflops_is_finite_and_nonnegative() {
        let mut m = FlopMeter::new();
        m.add(100_000);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let rate = m.mflops();
        assert!(rate.is_finite() && rate > 0.0);
    }

    #[test]
    fn reset_restarts_the_measurement_window() {
        // Regression: mflops must measure the stepping window, not
        // elapsed-since-construction. A meter built long before the
        // loop must, after reset, report against the short window only.
        let mut m = FlopMeter::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let stale = m.elapsed_seconds();
        m.reset(); // loop entry
        assert!(
            m.elapsed_seconds() < stale,
            "reset must restart the clock (window {} !< stale {})",
            m.elapsed_seconds(),
            stale
        );
        m.add(2_000_000);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let rate = m.mflops();
        let deflated = m.flops() as f64 / (stale + m.elapsed_seconds()) / 1e6;
        assert!(
            rate > deflated,
            "windowed rate {rate} should beat construction-based {deflated}"
        );
    }

    #[test]
    fn meters_feed_both_views_consistently() {
        use yy_obs::counters::kernel;
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
        m.kernel(kernel::RHS, tally);
        let t0 = m.timer();
        m.kernel_timed(kernel::RK4_COMBINE, KernelTally { flops: 1_000, ..tally }, t0);
        m.add(5); // aggregate-only site
        let snap = counters.snapshot();
        assert_eq!(snap.total_flops() + 5, m.flops());
        assert_eq!(snap.kernels[kernel::RHS as usize].points, 100);
        assert!(snap.kernels[kernel::RK4_COMBINE as usize].wall_ns > 0);
    }

    #[test]
    fn disabled_meters_still_count_aggregate_flops() {
        use yy_obs::counters::kernel;
        let mut m = Meters::new(); // disabled counter set
        m.kernel(
            kernel::RHS,
            KernelTally { points: 4, loops: 1, flops: 2_560, ..KernelTally::default() },
        );
        assert_eq!(m.flops(), 2_560, "aggregate meter is always on");
        assert!(m.counters().snapshot().is_empty());
        assert!(m.timer().is_none());
    }

    #[test]
    fn meters_reset_clears_both_views() {
        use yy_obs::counters::kernel;
        let counters = Arc::new(CounterSet::enabled());
        let mut m = Meters::with_counters(Arc::clone(&counters));
        m.kernel(
            kernel::RHS,
            KernelTally { points: 1, loops: 1, flops: 640, ..KernelTally::default() },
        );
        m.reset();
        assert_eq!(m.flops(), 0);
        assert!(counters.snapshot().is_empty());
    }
}
