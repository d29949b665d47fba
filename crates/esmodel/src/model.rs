//! The projection model: solver workload × machine → sustained TFlops.

use crate::machine::EsMachine;

/// What one grid point of the solver costs per time step — measured from
/// the instrumented Rust kernels, not assumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Floating-point operations per grid point per full RK4 step
    /// (4 RHS evaluations + the state combines).
    pub flops_per_point_step: f64,
    /// State arrays exchanged per boundary synchronisation.
    pub fields: usize,
    /// Bytes per value on the wire.
    pub bytes_per_value: usize,
    /// Boundary synchronisations per step (one per RK4 stage).
    pub syncs_per_step: usize,
}

impl KernelProfile {
    /// The yycore profile: the RHS kernel is 640 flops/point (counted in
    /// `yy-mhd`), evaluated 4× per step, plus ~128 flops/point of RK4
    /// combines, CFL and subsidiary-variable arithmetic.
    pub fn yycore_default() -> Self {
        KernelProfile {
            flops_per_point_step: 640.0 * 4.0 + 128.0,
            fields: 8,
            bytes_per_value: 8,
            syncs_per_step: 4,
        }
    }

    /// Override the flops/point/step with a measured count: a run's
    /// `flops / (steps × interior points)`. The one route from a
    /// measurement into [`project`].
    pub fn with_measured_flops(mut self, f: f64) -> Self {
        self.flops_per_point_step = f;
        self
    }
}

/// A run configuration to project: process count and the global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunShape {
    /// Total MPI processes (both panels).
    pub procs: usize,
    /// Radial nodes.
    pub nr: usize,
    /// Latitudinal nodes per panel (514 in the paper's runs).
    pub nth: usize,
    /// Longitudinal nodes per panel (1538).
    pub nph: usize,
}

/// The paper's headline sustained performance at the flagship shape, in
/// TFlops — the fixed point projections are read against.
pub const PAPER_FLAGSHIP_TFLOPS: f64 = 15.2;

/// Half-width of the acceptance window around
/// [`PAPER_FLAGSHIP_TFLOPS`]: a calibrated model plus measured inputs
/// should land within ±2 TFlops of the headline (the same tolerance the
/// crate's own calibration tests assert).
pub const FLAGSHIP_WINDOW_TFLOPS: f64 = 2.0;

/// Whether a projection lands inside the paper's flagship window.
pub fn in_flagship_window(tflops: f64) -> bool {
    (tflops - PAPER_FLAGSHIP_TFLOPS).abs() <= FLAGSHIP_WINDOW_TFLOPS
}

/// Flagship-shape projection from a measured hidden-communication
/// fraction ([`Projection::with_exposed_comm`]): what the paper's
/// 4096-process run would sustain if its exchanges were hidden as the
/// measured run's were.
pub fn flagship_projection(hidden: f64) -> Projection {
    let (machine, profile) = (EsMachine::earth_simulator(), KernelProfile::yycore_default());
    project(&machine, &EsModelParams::calibrated(), &profile, &RunShape::flagship())
        .with_exposed_comm(&machine, &profile, hidden.clamp(0.0, 1.0))
}

impl RunShape {
    /// The paper's flagship shape: 4096 processes, 511 × 514 × 1538 × 2
    /// grid points (Table II's headline row).
    pub fn flagship() -> Self {
        RunShape { procs: 4096, nr: 511, nth: 514, nph: 1538 }
    }

    /// Total grid points `nr × nth × nph × 2` — the number the paper
    /// quotes for each row of Table II.
    pub fn grid_points(&self) -> usize {
        2 * self.nr * self.nth * self.nph
    }

    /// Near-square factorization of the per-panel process count
    /// (`MPI_DIMS_CREATE`), preferring more processes along φ.
    pub fn panel_dims(&self) -> [usize; 2] {
        let tiles = self.procs / 2;
        let mut best = [1, tiles];
        let mut best_gap = usize::MAX;
        let mut d = 1;
        while d * d <= tiles {
            if tiles % d == 0 {
                let gap = tiles / d - d;
                if gap < best_gap {
                    best_gap = gap;
                    best = [d, tiles / d];
                }
            }
            d += 1;
        }
        best
    }

    /// Average tile extent `(nth_local, nph_local)`.
    pub fn tile_extent(&self) -> (f64, f64) {
        let [pth, pph] = self.panel_dims();
        (self.nth as f64 / pth as f64, self.nph as f64 / pph as f64)
    }

    /// Load-imbalance factor: the largest tile (⌈nth/pθ⌉ × ⌈nph/pφ⌉) sets
    /// the pace of every synchronised step. E.g. the paper's 4096-process
    /// run splits 514 rows over 32 processes — 16 rows each with two
    /// processes carrying 17 — a built-in ~10 % straggler penalty, while
    /// the 1200-process run divides far more evenly (~3.5 %). This is a
    /// real and often overlooked reason small partitions look more
    /// "efficient" in Table II.
    pub fn imbalance(&self) -> f64 {
        let [pth, pph] = self.panel_dims();
        let biggest = self.nth.div_ceil(pth) * self.nph.div_ceil(pph);
        let average = (self.nth as f64 / pth as f64) * (self.nph as f64 / pph as f64);
        biggest as f64 / average
    }
}

/// Calibrated model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EsModelParams {
    /// Fraction of vector peak attainable at infinite vector length
    /// (memory bandwidth + instruction mix ceiling).
    pub kappa0: f64,
    /// Hockney n½: vector length at which half the asymptotic rate is
    /// reached. An *effective* value — it also absorbs strip-mining and
    /// bank-conflict overheads.
    pub n_half: f64,
    /// Effective per-process interconnect bandwidth (bytes/s). The
    /// hardware share is 3.1 GB/s; contention keeps the achieved value
    /// below that.
    pub bw_per_proc: f64,
    /// Per-message latency (s).
    pub latency: f64,
    /// Scalar overhead per (θ, φ) column per stage (s): loop setup,
    /// address arithmetic and other unvectorized work whose cost does not
    /// scale with the radial length. This is what makes the 255-radial
    /// rows of Table II disproportionately slower than the 511 rows —
    /// half the vector work amortizing the same scalar overhead.
    pub t_column: f64,
    /// Interconnect contention scale: achieved bandwidth degrades as
    /// `bw / (1 + procs / contention_procs)` — larger partitions share
    /// more crossbar paths, which is why Table II's efficiency falls with
    /// process count much faster than a pure surface/volume argument
    /// predicts.
    pub contention_procs: f64,
}

impl EsModelParams {
    /// Constants fitted once against the paper's Table II (the
    /// `table2_model_matches_paper_shape` test asserts the resulting
    /// agreement): mean relative TFlops error across the six published
    /// rows is a few percent.
    pub fn calibrated() -> Self {
        // Fitted by grid search against TABLE2_PAPER (rms relative TFlops
        // error 6.0 %, every row within 10 %, orderings exact) with a soft
        // constraint keeping the flagship communication+wait fraction near
        // the paper's statement. Note bw_per_proc ≈ the hardware share
        // (2 × 12.3 GB/s / 8 = 3.1 GB/s) — the fit recovered a physically
        // sensible value rather than a fudge.
        EsModelParams {
            kappa0: 0.70,
            n_half: 5.0,
            bw_per_proc: 3.0e9,
            latency: 80.0e-6,
            t_column: 7.0e-6,
            contention_procs: 600.0,
        }
    }

    /// Effective per-AP compute rate at average vector length `vl`.
    pub fn ap_rate(&self, machine: &EsMachine, vl: f64) -> f64 {
        machine.ap_peak * self.kappa0 * vl / (vl + self.n_half)
    }

    /// Achieved per-process bandwidth in a `procs`-process partition.
    pub fn achieved_bw(&self, procs: usize) -> f64 {
        self.bw_per_proc / (1.0 + procs as f64 / self.contention_procs)
    }
}

/// The model's output for one run shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The projected run shape.
    pub shape: RunShape,
    /// Seconds per time step.
    pub t_step: f64,
    /// Compute seconds per step (per process).
    pub t_compute: f64,
    /// Communication seconds per step (per process).
    pub t_comm: f64,
    /// Sustained performance (flops/s, whole machine partition).
    pub sustained: f64,
    /// Fraction of theoretical peak.
    pub efficiency: f64,
    /// Fraction of step time spent communicating.
    pub comm_fraction: f64,
    /// Average vector length the counters would report.
    pub avg_vector_length: f64,
}

impl Projection {
    /// Sustained TFlops.
    pub fn tflops(&self) -> f64 {
        self.sustained / 1e12
    }

    /// The step with only part of its communication exposed. `hidden` is
    /// the fraction of the per-step communication time covered by
    /// deep-interior compute while messages are in flight — measured:
    /// `RunReport::phases` of an overlapped parallel run exposes it as
    /// `hidden_comm_fraction()` (`interior / (interior + wait)`):
    /// `t_step = t_compute + (1 − hidden) · t_comm`. `t_comm` keeps the
    /// modeled exchange volume; nothing hidden is `self` exactly.
    pub fn with_exposed_comm(
        self,
        machine: &EsMachine,
        profile: &KernelProfile,
        hidden: f64,
    ) -> Projection {
        assert!((0.0..=1.0).contains(&hidden), "hidden fraction {hidden} must be in [0, 1]");
        let exposed_comm = (1.0 - hidden) * self.t_comm;
        let t_step = self.t_compute + exposed_comm;
        let points = self.shape.grid_points() as f64;
        let sustained = profile.flops_per_point_step * points / t_step;
        Projection {
            t_step,
            sustained,
            efficiency: sustained / machine.peak_of(self.shape.procs),
            comm_fraction: exposed_comm / t_step,
            ..self
        }
    }
}

/// Project a run shape onto the machine.
pub fn project(
    machine: &EsMachine,
    params: &EsModelParams,
    profile: &KernelProfile,
    shape: &RunShape,
) -> Projection {
    assert!(shape.procs >= 2 && shape.procs % 2 == 0, "need an even process count");
    let points = shape.grid_points() as f64;
    let per_proc_points = points / shape.procs as f64;
    let flops_per_proc_step = profile.flops_per_point_step * per_proc_points;

    let vl = machine.avg_vector_length(shape.nr);
    let (nth_l, nph_l) = shape.tile_extent();
    let columns_per_proc = nth_l * nph_l;
    // The slowest (largest) tile sets the step time.
    let t_compute = shape.imbalance()
        * (flops_per_proc_step / params.ap_rate(machine, vl)
            + columns_per_proc * profile.syncs_per_step as f64 * params.t_column);

    // Halo traffic: each process sends its tile perimeter (both θ edges +
    // both φ edges, one ghost layer), all fields, every sync.
    let perimeter_nodes = 2.0 * (nth_l + nph_l + 2.0);
    let halo_values = perimeter_nodes * shape.nr as f64 * profile.fields as f64;
    // Overset traffic: the panel's frame columns (≈ the panel perimeter
    // in columns), interpolated radial columns of all fields, spread over
    // the panel's processes.
    let frame_columns = 2.0 * (shape.nth + shape.nph) as f64;
    let overset_values =
        frame_columns * shape.nr as f64 * profile.fields as f64 / (shape.procs as f64 / 2.0);
    let bytes_per_sync = (halo_values + overset_values) * profile.bytes_per_value as f64;
    // ~4 halo neighbours + ~1 overset peer per sync.
    let msgs_per_sync = 5.0;
    let t_comm = profile.syncs_per_step as f64
        * (bytes_per_sync / params.achieved_bw(shape.procs) + msgs_per_sync * params.latency);

    let t_step = t_compute + t_comm;
    let sustained = profile.flops_per_point_step * points / t_step;
    Projection {
        shape: *shape,
        t_step,
        t_compute,
        t_comm,
        sustained,
        efficiency: sustained / machine.peak_of(shape.procs),
        comm_fraction: t_comm / t_step,
        avg_vector_length: vl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EsMachine, EsModelParams, KernelProfile) {
        (
            EsMachine::earth_simulator(),
            EsModelParams::calibrated(),
            KernelProfile::yycore_default(),
        )
    }

    fn paper_shape(procs: usize, nr: usize) -> RunShape {
        RunShape { procs, nr, nth: 514, nph: 1538 }
    }

    #[test]
    fn flagship_projection_is_in_range() {
        let (m, p, k) = setup();
        let proj = project(&m, &p, &k, &paper_shape(4096, 511));
        assert!(
            (proj.tflops() - 15.2).abs() < 2.0,
            "flagship projection {:.1} TFlops",
            proj.tflops()
        );
        assert!((proj.efficiency - 0.46).abs() < 0.06);
        // The paper quotes ~10 % pure transfer time; our comm term also
        // absorbs synchronization waits, so allow up to 25 %.
        assert!(proj.comm_fraction > 0.02 && proj.comm_fraction < 0.25);
        assert!((proj.avg_vector_length - 251.6).abs() < 2.0);
    }

    #[test]
    fn flagship_window_helpers_agree_with_the_calibration() {
        assert_eq!(RunShape::flagship(), paper_shape(4096, 511));
        // With nothing hidden the helper equals the blocking `project`,
        // which the calibration pins inside the paper window.
        let proj = flagship_projection(0.0);
        assert!(in_flagship_window(proj.tflops()), "{:.1} TFlops", proj.tflops());
        // Hiding communication can only raise the projection.
        assert!(flagship_projection(1.0).tflops() >= proj.tflops());
        assert!(!in_flagship_window(9.0) && !in_flagship_window(20.0));
    }

    #[test]
    fn efficiency_falls_with_procs_at_fixed_size() {
        let (m, p, k) = setup();
        let big = project(&m, &p, &k, &paper_shape(4096, 511));
        let small = project(&m, &p, &k, &paper_shape(1200, 511));
        assert!(small.efficiency > big.efficiency);
    }

    #[test]
    fn bigger_radial_grid_is_more_efficient() {
        let (m, p, k) = setup();
        let r511 = project(&m, &p, &k, &paper_shape(3888, 511));
        let r255 = project(&m, &p, &k, &paper_shape(3888, 255));
        assert!(r511.efficiency > r255.efficiency);
        assert!(r511.tflops() > r255.tflops());
    }

    #[test]
    fn grid_points_match_paper() {
        assert_eq!(paper_shape(4096, 511).grid_points(), 807_923_704);
        assert_eq!(paper_shape(3888, 255).grid_points(), 403_171_320);
    }

    #[test]
    fn panel_dims_factorizations() {
        assert_eq!(paper_shape(4096, 511).panel_dims(), [32, 64]);
        assert_eq!(paper_shape(3888, 511).panel_dims(), [36, 54]);
        assert_eq!(paper_shape(2560, 511).panel_dims(), [32, 40]);
        assert_eq!(paper_shape(1200, 255).panel_dims(), [24, 25]);
    }

    #[test]
    fn overlap_hides_comm_and_raises_sustained() {
        let (m, p, k) = setup();
        let shape = paper_shape(4096, 511);
        let blocking = project(&m, &p, &k, &shape);
        let hide = |hidden| blocking.with_exposed_comm(&m, &k, hidden);
        assert_eq!(blocking, hide(0.0), "zero hidden fraction must reduce to project()");
        let (half, full) = (hide(0.5), hide(1.0));
        // t_comm reports the *modeled* exchange volume unchanged; the step
        // time and exposed comm fraction shrink with the hidden fraction.
        assert_eq!(half.t_comm, blocking.t_comm);
        assert!(half.t_step < blocking.t_step && full.t_step < half.t_step);
        assert!((full.t_step - blocking.t_compute).abs() < 1e-15);
        assert!(half.sustained > blocking.sustained);
        assert!(half.comm_fraction < blocking.comm_fraction);
        assert_eq!(full.comm_fraction, 0.0);
        // The fully-hidden flagship gains the paper's quoted ~10 % comm
        // share back, but cannot exceed the compute-bound ceiling.
        assert!(full.tflops() > blocking.tflops() * 1.02);
        assert!(full.efficiency <= p.kappa0 + 1e-9);
    }

    /// `(hidden, t_step, sustained, efficiency, comm_fraction)` of the
    /// flagship shape, written down from the overlap-only projection
    /// function (and its flagship wrapper, which agreed with it) before
    /// one exposed-communication step replaced them.
    const EXPOSED_FLAGSHIP: [(f64, f64, f64, f64, f64); 3] = [
        (0.0, 0.14923084912318108, 14552613813511.129, 0.44411052897678005, 0.20783761075923166),
        (0.37, 0.1377550093638477, 15764936072966.785, 0.4811076682423946, 0.14184561029203518),
        (1.0, 0.11821506598984773, 18370745709675.49, 0.5606306674095303, 0.0),
    ];

    #[test]
    fn exposed_comm_step_reproduces_the_three_functions_it_replaced() {
        let (m, p, k) = setup();
        let blocking = project(&m, &p, &k, &RunShape::flagship());
        for (hidden, t_step, sustained, efficiency, comm_fraction) in EXPOSED_FLAGSHIP {
            let got = blocking.with_exposed_comm(&m, &k, hidden);
            assert_eq!(got.t_step, blocking.t_compute + (1.0 - hidden) * blocking.t_comm);
            assert_eq!(
                got,
                Projection { t_step, sustained, efficiency, comm_fraction, ..blocking },
                "hidden {hidden}"
            );
            // What the CLI's `hidden comm fraction` line prints.
            assert_eq!(got, flagship_projection(hidden));
        }
        // Nothing hidden: `project`, field for field.
        assert_eq!(blocking.with_exposed_comm(&m, &k, 0.0), blocking);
    }

    #[test]
    fn comm_time_scales_inversely_with_bandwidth() {
        let (m, mut p, k) = setup();
        let base = project(&m, &p, &k, &paper_shape(4096, 511));
        p.bw_per_proc /= 2.0;
        let slow = project(&m, &p, &k, &paper_shape(4096, 511));
        assert!(slow.t_comm > base.t_comm * 1.5);
        assert!(slow.efficiency < base.efficiency);
    }
}
