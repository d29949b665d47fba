//! Right-hand side of the normalized compressible MHD system
//! (paper eqs. 2–6), discretized with 2nd-order central differences in
//! spherical coordinates.
//!
//! # Formulas
//!
//! With `v = f/ρ`, `T = p/ρ`, the evaluated terms are:
//!
//! **Continuity** `∂ρ/∂t = −∇·f` with
//! `∇·f = (1/r²)∂r(r²f_r) + (1/(r sinθ))∂θ(sinθ f_θ) + (1/(r sinθ))∂φ f_φ`.
//!
//! **Momentum** (component `c` of `∇·(vf)`, conservative flux form plus
//! curvature terms):
//! ```text
//! [∇·(vf)]_r = Flux(f_r) − (f_θ v_θ + f_φ v_φ)/r
//! [∇·(vf)]_θ = Flux(f_θ) + f_θ v_r / r − cot θ f_φ v_φ / r
//! [∇·(vf)]_φ = Flux(f_φ) + f_φ v_r / r + cot θ f_φ v_θ / r
//! Flux(q) = (1/r²)∂r(r² v_r q) + (1/(r sinθ))∂θ(sinθ v_θ q)
//!         + (1/(r sinθ))∂φ(v_φ q)
//! ```
//!
//! **Magnetic field** `B = ∇×A` (first derivatives of the state), and
//! **current** via the identity `j = ∇×B = ∇(∇·A) − ∇²A`, evaluated with
//! direct second-derivative stencils of A so that no communicated
//! intermediate field is needed (see the crate docs).
//!
//! For a vector field Q the two second-derivative primitives are
//! ```text
//! (∇²Q)_r = ∇²Q_r − (2/r²)(Q_r + ∂θQ_θ + cotθ Q_θ + (1/sinθ)∂φQ_φ)
//! (∇²Q)_θ = ∇²Q_θ + (2/r²)∂θQ_r − Q_θ/(r²sin²θ) − (2cosθ/(r²sin²θ))∂φQ_φ
//! (∇²Q)_φ = ∇²Q_φ + (2/(r²sinθ))∂φQ_r + (2cosθ/(r²sin²θ))∂φQ_θ − Q_φ/(r²sin²θ)
//! ```
//! and, writing `H = cotθ Q_θ + ∂θQ_θ + (1/sinθ)∂φQ_φ` so that
//! `∇·Q = ∂rQ_r + 2Q_r/r + H/r`:
//! ```text
//! [∇(∇·Q)]_r = ∂rrQ_r + (2/r)∂rQ_r − 2Q_r/r² + (1/r)∂rH − H/r²
//! [∇(∇·Q)]_θ = (1/r)(∂r∂θQ_r + (2/r)∂θQ_r + (1/r)∂θH)
//! [∇(∇·Q)]_φ = (1/(r sinθ))(∂r∂φQ_r + (2/r)∂φQ_r + (1/r)∂φH)
//! ∂rH = cotθ ∂rQ_θ + ∂r∂θQ_θ + (1/sinθ)∂r∂φQ_φ
//! ∂θH = −Q_θ/sin²θ + cotθ ∂θQ_θ + ∂θθQ_θ − (cosθ/sin²θ)∂φQ_φ + (1/sinθ)∂θ∂φQ_φ
//! ∂φH = cotθ ∂φQ_θ + ∂θ∂φQ_θ + (1/sinθ)∂φφQ_φ
//! ```
//!
//! **Strain tensor** (for the viscous heating Φ):
//! ```text
//! e_rr = ∂r v_r                e_θθ = (1/r)∂θv_θ + v_r/r
//! e_φφ = (1/(r sinθ))∂φv_φ + v_r/r + cotθ v_θ/r
//! e_rθ = ½((1/r)∂θv_r + ∂rv_θ − v_θ/r)
//! e_rφ = ½((1/(r sinθ))∂φv_r + ∂rv_φ − v_φ/r)
//! e_θφ = ½((1/(r sinθ))∂φv_θ + (1/r)∂θv_φ − cotθ v_φ/r)
//! ```

use crate::ops::{ColGeom, Cols, Spacings};
use crate::params::PhysParams;
use crate::state::State;
use crate::tables::ForceTables;
use yy_field::{Array3, Meters, Shape, VectorField};
use yy_mesh::Metric;
use yy_obs::counters::{Kernel, KernelTally};

/// Approximate floating-point operations per interior grid point of one
/// RHS evaluation, counted from the kernel source (stencil arithmetic,
/// metric products, force assembly). Used by the FLOP meter; the Earth
/// Simulator model scales this to the machine's counters. The count is
/// dominated by the two vector second-derivative primitives (j and the
/// viscous force) and the advection fluxes.
pub const RHS_FLOPS_PER_POINT: u64 = 640;

/// Modeled values read per interior point of one RHS evaluation, for the
/// fused sweep: 5 state reads in the `v`/`T` precompute (ρ, p, f×3) plus
/// 12 array streams through the fused column passes (8 state + v×3 + T).
/// Under the φ-tile blocking each array's stencil rows stream through
/// cache roughly once per sweep, so the model charges one read per array
/// per point; the 9 scratch rows of a run (B, j, ∇p buffers, ≤ 18 KB
/// at [`RUN_LANES`] = 256) stay cache-resident and are not charged. A
/// traffic model for the roofline, not a cache measurement. (The
/// pre-rewrite unfused kernel modeled 8 × 7 reads/point — each state
/// array billed once per distinct stencil leg, the cache behaviour of
/// one mega-loop traversal.)
pub const RHS_READS_PER_POINT: u64 = 17;

/// Values written per interior point: v×3 + T in the precompute plus the
/// 8 tendency arrays.
pub const RHS_WRITES_PER_POINT: u64 = 12;

/// Fused passes the kernel makes over each `(θ, φ)` column, one call per
/// run of θ-adjacent columns: continuity, B = ∇×A, the current j, ∇p,
/// advection ×3, force assembly, viscous force, the pressure equation
/// (advection + heating + diffusion, one pass), induction. The counter
/// accounting bills `loops` and `vector_elements` per column and pass,
/// so `avg_vector_length` stays the radial interior extent regardless
/// of decomposition, run length or fusion degree.
pub const RHS_PASSES_PER_COLUMN: u64 = 11;

/// Which nodes an RHS evaluation updates: tile-local index ranges of the
/// finite-difference interior (globally non-frame columns, radially
/// interior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InteriorRange {
    /// First radial index updated (inclusive).
    pub i0: usize,
    /// One past the last radial index.
    pub i1: usize,
    /// First local colatitude index updated.
    pub j0: isize,
    /// One past the last colatitude index.
    pub j1: isize,
    /// First local longitude index updated.
    pub k0: isize,
    /// One past the last longitude index.
    pub k1: isize,
}

impl InteriorRange {
    /// The full-panel interior: radial `1..nr−1`, horizontal inside the
    /// overset frame.
    pub fn full_panel(grid: &yy_mesh::PatchGrid) -> Self {
        let (nr, nth, nph) = grid.dims();
        let f = grid.frame() as isize;
        InteriorRange {
            i0: 1,
            i1: nr - 1,
            j0: f,
            j1: nth as isize - f,
            k0: f,
            k1: nph as isize - f,
        }
    }

    /// For a tile `t` of a decomposed panel: the owned columns clipped to
    /// the globally non-frame region, expressed in tile-local indices.
    pub fn for_tile(grid: &yy_mesh::PatchGrid, t: &yy_mesh::Tile) -> Self {
        let (nr, nth, nph) = grid.dims();
        let f = grid.frame();
        let gj0 = t.j0.max(f);
        let gj1 = (t.j0 + t.nth).min(nth - f);
        let gk0 = t.k0.max(f);
        let gk1 = (t.k0 + t.nph).min(nph - f);
        InteriorRange {
            i0: 1,
            i1: nr - 1,
            j0: gj0 as isize - t.j0 as isize,
            j1: gj1 as isize - t.j0 as isize,
            k0: gk0 as isize - t.k0 as isize,
            k1: gk1 as isize - t.k0 as isize,
        }
    }

    /// Number of updated nodes.
    pub fn points(&self) -> usize {
        if self.j1 <= self.j0 || self.k1 <= self.k0 || self.i1 <= self.i0 {
            return 0;
        }
        (self.i1 - self.i0) * ((self.j1 - self.j0) * (self.k1 - self.k0)) as usize
    }

    /// True when this range updates no nodes.
    pub fn is_empty(&self) -> bool {
        self.points() == 0
    }

    /// Split into a *deep interior* and a *boundary shell* for
    /// communication/compute overlap.
    ///
    /// The deep interior is the sub-range whose 9-point horizontal stencil
    /// reads **no** column a boundary exchange can modify: halo ghosts at
    /// tile edges, overset frame columns at panel edges. The stencil
    /// radius is 1, so shrinking by one column on each θ/φ side is both
    /// necessary and sufficient. Radially the deep box keeps the full
    /// extent `i0..i1`: the wall condition is column-local (it reads
    /// nothing an exchange delivers), so an owned column's wall planes
    /// already hold their final values when the deep sweep reads them.
    /// The boundary shell is the set-difference — up to four disjoint
    /// full-height boxes (two θ bands, two φ bands) that together with
    /// the deep interior exactly tile `self`; every box spans `i0..i1`,
    /// so every interior point runs full-length radial vector loops.
    ///
    /// Ranges fewer than two columns wide fall back to an empty deep
    /// interior with the whole range as a single shell box.
    pub fn split_overlap(&self) -> OverlapSplit {
        if self.is_empty() {
            return OverlapSplit { deep: None, shell: Vec::new() };
        }
        if self.j1 - self.j0 < 2 || self.k1 - self.k0 < 2 {
            // Too thin for the four bands to stay disjoint.
            return OverlapSplit { deep: None, shell: vec![*self] };
        }
        let deep = InteriorRange {
            j0: self.j0 + 1,
            j1: self.j1 - 1,
            k0: self.k0 + 1,
            k1: self.k1 - 1,
            ..*self
        };
        let shell = [
            // θ bands (full φ width).
            InteriorRange { j1: self.j0 + 1, ..*self },
            InteriorRange { j0: self.j1 - 1, ..*self },
            // φ bands at θ-deep columns.
            InteriorRange { j0: deep.j0, j1: deep.j1, k1: self.k0 + 1, ..*self },
            InteriorRange { j0: deep.j0, j1: deep.j1, k0: self.k1 - 1, ..*self },
        ]
        .into_iter()
        .filter(|r| !r.is_empty())
        .collect();
        OverlapSplit { deep: (!deep.is_empty()).then_some(deep), shell }
    }

    /// Split the range into up to `n` consecutive φ-chunks (for pipelining
    /// the deep-interior sweep between communication phases). The chunks
    /// are disjoint, cover `self`, and preserve the (k, j, i) sweep order.
    pub fn chunks_phi(&self, n: usize) -> Vec<InteriorRange> {
        let nk = (self.k1 - self.k0).max(0) as usize;
        let n = n.max(1).min(nk.max(1));
        let mut out = Vec::with_capacity(n);
        let mut k = self.k0;
        for c in 0..n {
            let k_next = self.k0 + ((nk * (c + 1)) / n) as isize;
            out.push(InteriorRange { k0: k, k1: k_next, ..*self });
            k = k_next;
        }
        out
    }
}

/// Result of [`InteriorRange::split_overlap`]: the exchange-independent
/// deep interior plus the boundary-shell bands that complete the tiling.
/// Walls are column-local and set before the deep sweep; deep clears the
/// θ/φ edges only.
#[derive(Debug, Clone)]
pub struct OverlapSplit {
    /// Columns whose stencils read nothing a boundary exchange writes,
    /// over the full radial extent (`None` when the range is too thin
    /// to have any).
    pub deep: Option<InteriorRange>,
    /// Disjoint full-height θ/φ bands covering the rest of the range.
    pub shell: Vec<InteriorRange>,
}

impl OverlapSplit {
    /// All sub-ranges (deep first), for tiling checks.
    pub fn all_ranges(&self) -> Vec<InteriorRange> {
        self.deep.iter().chain(self.shell.iter()).copied().collect()
    }
}

/// φ-band width of the fused sweep's cache blocking: the smallest band
/// that still reuses a column's θ/φ stencil neighbours (the working-set
/// minimiser). Not a knob — its sweep over 0…32 measured 12.40–12.69 ms
/// per step, inside run-to-run noise (EXPERIMENTS.md).
const PHI_BLOCK: isize = 2;

/// Lane budget of a *run*, the fused sweep's unit of work: the
/// θ-adjacent columns at one φ, which [`Shape::idx`] lays end to end,
/// as many as fit in `RUN_LANES` lanes and never fewer than one. Short
/// radial rows then pay the eleven pass calls and the eight flush calls
/// once per run instead of once per column; at nr = 255 a run is one
/// column. Not a knob — chosen by a measured sweep (EXPERIMENTS.md,
/// "Long vectors for short rows").
const RUN_LANES: usize = 256;

/// The `[r, θ, φ]` component rows of one [`RowBufs`] field.
type Rows3 = [Vec<f64>; 3];

/// Per-run scratch rows for the sweeps, one lane per node of the run:
/// intermediate fields (B, the current j, ∇p; `[r, θ, φ]` components)
/// each pass stores for later passes of the same run, and the run's
/// eight tendency rows `k` (canonical [`State::arrays`] order) on their
/// way to the [`RhsSink`]. Together 17 rows of at most
/// `max(RUN_LANES, nr)` lanes (≈ 35 KB) — cache-resident by construction.
#[derive(Debug, Clone)]
struct RowBufs {
    b: Rows3,
    j: Rows3,
    gp: Rows3,
    k: [Vec<f64>; 8],
}

impl RowBufs {
    fn new(lanes: usize) -> Self {
        let rows = || [vec![0.0; lanes], vec![0.0; lanes], vec![0.0; lanes]];
        RowBufs { b: rows(), j: rows(), gp: rows(), k: std::array::from_fn(|_| vec![0.0; lanes]) }
    }
}

/// The per-column scalars the RHS reads at one node: the [`ColGeom`]
/// fields the kernels use and the Coriolis Ω of the node's column. The
/// reference sweep and a one-column run take them from the column; a
/// longer run reads them from the [`LaneTables`] lane by lane — the same
/// values, so the same bits.
#[derive(Debug, Clone, Copy)]
struct NodeScalars {
    cot_t: f64,
    inv_sin: f64,
    inv_sin2: f64,
    sin_n: f64,
    sin_s: f64,
    om_r: f64,
    om_t: f64,
    om_p: f64,
}

impl NodeScalars {
    fn new(metric: &Metric, forces: &ForceTables, j: isize, k: isize) -> Self {
        let ColGeom { cot_t, inv_sin, inv_sin2, sin_n, sin_s, .. } = ColGeom::new(metric, j);
        let (om_r, om_t, om_p) = forces.omega_at(j, k);
        NodeScalars { cot_t, inv_sin, inv_sin2, sin_n, sin_s, om_r, om_t, om_p }
    }
}

/// Where a kernel reads the [`NodeScalars`] of lane `q`: from one value
/// for a run of one column — a loop invariant, held in registers — or
/// from [`LaneRows`] for a run that crosses a seam, at one load per lane
/// and factor. One kernel body, instantiated for each; the traversal
/// picks by the run's column count.
trait Scalars: Copy {
    /// Re-cut to `n` lanes, as [`Cols::fit`] does and for the same reason.
    fn fit(self, n: usize) -> Self;
    /// The scalars of lane `q`.
    fn at(&self, q: usize) -> NodeScalars;
}

impl Scalars for NodeScalars {
    #[inline(always)]
    fn fit(self, _: usize) -> Self {
        self
    }

    #[inline(always)]
    fn at(&self, _: usize) -> NodeScalars {
        *self
    }
}

/// A run's window of the per-lane scalar rows: lane `q` of every row is
/// node `q` of the run.
#[derive(Clone, Copy)]
struct LaneRows<'a>([&'a [f64]; 8]);

impl Scalars for LaneRows<'_> {
    #[inline(always)]
    fn fit(self, n: usize) -> Self {
        LaneRows(self.0.map(|row| &row[..n]))
    }

    #[inline(always)]
    fn at(&self, q: usize) -> NodeScalars {
        let [cot_t, inv_sin, inv_sin2, sin_n, sin_s, om_r, om_t, om_p] = self.0.map(|row| row[q]);
        NodeScalars { cot_t, inv_sin, inv_sin2, sin_n, sin_s, om_r, om_t, om_p }
    }
}

/// The per-column scalars of the fused sweep as per-lane rows of one run
/// (lane `q` is node `i0 + q`, counted on through the seams). The radial
/// rows `r`, `r²` (from lane −1, for the stencil legs), `1/r` and
/// gravity are the same for every run of a sweep, since each starts at
/// `i0`, and are filled once per sweep. For runs of more than one column
/// the [`NodeScalars`] rows (`scalars`, in field order) are filled too:
/// the θ factors once per run start and φ-band, Ω once per run. A wall
/// lane holds a column's values and is dropped by the flush.
#[derive(Debug, Clone)]
struct LaneTables {
    r: Vec<f64>,
    r2: Vec<f64>,
    inv_r: Vec<f64>,
    grav: Vec<f64>,
    scalars: [Vec<f64>; 8],
}

impl LaneTables {
    /// Rows of `lanes` lanes (`lanes + 2` for the stencil windows).
    fn new(lanes: usize) -> Self {
        LaneTables {
            r: vec![0.0; lanes + 2],
            r2: vec![0.0; lanes + 2],
            inv_r: vec![0.0; lanes],
            grav: vec![0.0; lanes],
            scalars: std::array::from_fn(|_| vec![0.0; lanes]),
        }
    }

    /// The radial rows of runs that start at node `i0`.
    fn fill_radial(&mut self, metric: &Metric, forces: &ForceTables, i0: usize) {
        let nr = metric.r.len();
        for (q, (r, r2)) in self.r.iter_mut().zip(&mut self.r2).enumerate() {
            let i = (i0 - 1 + q) % nr;
            (*r, *r2) = (metric.r[i], metric.r2[i]);
        }
        for (q, (ir, g)) in self.inv_r.iter_mut().zip(&mut self.grav).enumerate() {
            let i = (i0 + q) % nr;
            (*ir, *g) = (metric.inv_r[i], forces.grav[i]);
        }
    }

    /// The θ-factor rows of a run of `columns` columns from `ja` on,
    /// `nr` lanes per column.
    fn fill_theta(&mut self, metric: &Metric, ja: isize, columns: isize, nr: usize) {
        let [cot_t, inv_sin, inv_sin2, sin_n, sin_s, ..] = &mut self.scalars;
        for (c, j) in (ja..ja + columns).enumerate() {
            let g = ColGeom::new(metric, j);
            let col = c * nr..((c + 1) * nr).min(cot_t.len());
            cot_t[col.clone()].fill(g.cot_t);
            inv_sin[col.clone()].fill(g.inv_sin);
            inv_sin2[col.clone()].fill(g.inv_sin2);
            sin_n[col.clone()].fill(g.sin_n);
            sin_s[col].fill(g.sin_s);
        }
    }

    /// The Ω rows of the run of `columns` columns from `(ja, k)` on.
    fn fill_omega(&mut self, forces: &ForceTables, ja: isize, k: isize, columns: isize, nr: usize) {
        let [.., om_r, om_t, om_p] = &mut self.scalars;
        for (c, j) in (ja..ja + columns).enumerate() {
            let (r, t, p) = forces.omega_at(j, k);
            let col = c * nr..((c + 1) * nr).min(om_r.len());
            om_r[col.clone()].fill(r);
            om_t[col.clone()].fill(t);
            om_p[col].fill(p);
        }
    }

    /// The scalar rows of the first `lanes` lanes.
    fn rows(&self, lanes: usize) -> LaneRows<'_> {
        LaneRows(std::array::from_fn(|f| &self.scalars[f][..lanes]))
    }
}

/// Where a sweep's tendency `k` goes. The sweeps leave each run's
/// eight tendency rows in cache-resident buffers and flush them here,
/// so an RK4 stage combines `k` into the step *inside* the RHS sweep
/// and the tendency never travels to memory.
pub enum RhsSink<'a> {
    /// `out ← k` on the swept nodes: the unfused form [`compute_rhs`]
    /// uses, and the oracle the fused forms are tested against.
    Store(&'a mut State),
    /// A non-final RK4 stage: `acc += b·k` and `next = y0 + a·k` on the
    /// swept nodes — per element the expressions of
    /// [`State::axpy_and_assign_axpy`], so the bits are the same. Nodes
    /// outside the sweep (walls, frames, ghosts) are not touched: the
    /// caller owns them ([`State::copy_walls_from`], the boundary sync).
    Stage {
        /// The step result being accumulated.
        acc: &'a mut State,
        /// The state at the step head.
        y0: &'a State,
        /// The next stage's input.
        next: &'a mut State,
        /// RK4 weight of this stage times dt.
        b: f64,
        /// RK4 node coefficient of the next stage times dt.
        a: f64,
    },
    /// The final RK4 stage: `acc += b·k` ([`State::axpy`]'s expression).
    Final {
        /// The step result being accumulated.
        acc: &'a mut State,
        /// RK4 weight of this stage times dt.
        b: f64,
    },
}

impl<'a> RhsSink<'a> {
    /// The sink of RK4 stage `s` (0-based) of a step of size `dt`, from
    /// the shared tableau: stages 0–2 accumulate `dt·b_s·k` into `acc`
    /// and build `next = y0 + dt·c_{s+1}·k`; stage 3 only accumulates.
    pub fn rk4_stage(
        s: usize,
        dt: f64,
        acc: &'a mut State,
        y0: &'a State,
        next: &'a mut State,
    ) -> Self {
        use geomath::rk4::{RK4_NODES, RK4_WEIGHTS};
        let b = dt * RK4_WEIGHTS[s];
        if s < 3 {
            RhsSink::Stage { acc, y0, next, b, a: dt * RK4_NODES[s + 1] }
        } else {
            RhsSink::Final { acc, b }
        }
    }

    /// The `RK4_COMBINE` tally of one whole stage through this sink,
    /// over the owned nodes of the accumulator (padding excluded, so
    /// global totals are decomposition-invariant). Points, flops and
    /// vector elements are those of the separate combine pass this
    /// replaces — `Stage` does the work of two axpy-type ops, `Final` of
    /// one, at 2 flops per element of 8 arrays. The byte model is what
    /// still moves: `acc` and `y0` in, `acc` and `next` out (`acc` in
    /// and out for `Final`); `k` stays in cache. The drivers bill it
    /// untimed — the wall time is inside the RHS timer.
    pub fn combine_tally(&self) -> KernelTally {
        let (acc, ops) = match self {
            RhsSink::Store(_) => return KernelTally::default(),
            RhsSink::Stage { acc, .. } => (acc, 2),
            RhsSink::Final { acc, .. } => (acc, 1),
        };
        let sh = acc.shape();
        let (columns, owned) = ((sh.nth * sh.nph) as u64, sh.owned_len() as u64);
        KernelTally {
            points: ops * owned,
            loops: columns,
            vector_elements: owned,
            flops: ops * 16 * owned,
            bytes_read: ops * 8 * owned * 8,
            bytes_written: ops * 8 * owned * 8,
        }
    }

    /// Panic unless every state of the sink has the swept state's shape
    /// (the flush addresses all of them by one flat row range).
    fn check_shape(&self, shape: Shape) {
        let same = match self {
            RhsSink::Store(out) => out.shape() == shape,
            RhsSink::Stage { acc, y0, next, .. } => {
                acc.shape() == shape && y0.shape() == shape && next.shape() == shape
            }
            RhsSink::Final { acc, .. } => acc.shape() == shape,
        };
        assert!(same, "RhsSink state shape differs from the swept state's {shape:?}");
    }
}

/// Stamp the ISA instantiations of one leaf kernel (DESIGN §6f). The
/// function inside is the kernel's single body and becomes
/// `#[inline(always)]`; beside it goes a module of the same name with
/// one `#[inline(never)]` wrapper per instantiation — `baseline`, built
/// for the compile-time target, and on x86-64 `avx2`, the same body at
/// four f64 lanes. `avx2` alone, no `fma`: nothing may contract, the
/// lanes must evaluate the baseline's IEEE operations in its order. The
/// wrappers are leaf functions for the reason the kernels always were:
/// their `&mut [f64]` outputs are *parameters*, `noalias` against every
/// input row. The wide wrappers are safe `#[target_feature]` functions:
/// callable without `unsafe` from a context that has `avx2` enabled
/// (the `avx2` traversal below) and from nowhere else.
macro_rules! isa_kernel {
    (
        $(#[$doc:meta])*
        fn $name:ident $(<$g:ident: $bound:ident>)? ($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$doc])*
        #[inline(always)]
        fn $name $(<$g: $bound>)? ($($arg: $ty),*) $body

        #[allow(clippy::too_many_arguments)]
        mod $name {
            #[allow(unused_imports)] // the flush kernels take plain slices only
            use super::*;

            #[inline(never)]
            pub(super) fn baseline $(<$g: $bound>)? ($($arg: $ty),*) {
                super::$name($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx2")]
            pub(super) fn avx2 $(<$g: $bound>)? ($($arg: $ty),*) {
                super::$name($($arg),*)
            }
        }
    };
}

isa_kernel! {
    /// One run of a [`RhsSink::Stage`] flush: of every `nr` lanes, the
    /// first `n` — a column's swept nodes — and none of the wall lanes
    /// between them. A leaf kernel for the reason the `pass_*` kernels
    /// are: slice *parameters* are `noalias`, and each segment cuts all
    /// four to one length, so its loop is packed f64.
    #[allow(clippy::too_many_arguments)]
    fn flush_stage(
        acc: &mut [f64],
        next: &mut [f64],
        y0: &[f64],
        k: &[f64],
        b: f64,
        a: f64,
        nr: usize,
        n: usize,
    ) {
        let lanes = k.len();
        let (acc, next, y0) = (&mut acc[..lanes], &mut next[..lanes], &y0[..lanes]);
        let (acc, next) = (acc.chunks_mut(nr), next.chunks_mut(nr));
        for ((acc, next), (y0, k)) in acc.zip(next).zip(y0.chunks(nr).zip(k.chunks(nr))) {
            let (acc, next, y0, k) = (&mut acc[..n], &mut next[..n], &y0[..n], &k[..n]);
            for q in 0..n {
                // Both loads before either store: the states are allocated
                // alike, so `acc[q]` and `y0[q]` tend to sit 4 KiB-aliased, and
                // a load behind an aliasing store stalls on it.
                let (kq, yq, aq) = (k[q], y0[q], acc[q]);
                next[q] = yq + a * kq;
                acc[q] = aq + b * kq;
            }
        }
    }
}

isa_kernel! {
    /// One run of a [`RhsSink::Final`] flush, segmented as `flush_stage`.
    fn flush_final(acc: &mut [f64], k: &[f64], b: f64, nr: usize, n: usize) {
        let acc = &mut acc[..k.len()];
        for (acc, k) in acc.chunks_mut(nr).zip(k.chunks(nr)) {
            let (acc, k) = (&mut acc[..n], &k[..n]);
            for q in 0..n {
                acc[q] += b * k[q];
            }
        }
    }
}

/// Which implementation of the column sweep [`sweep_rhs`] runs. All
/// three are bit-identical (asserted three ways by the tests here and
/// the cross-layout harness in `yy-core`); they differ in speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RhsKernels {
    /// The leaf kernels at the widest instantiation this host runs:
    /// `avx2` where the CPU reports it, `baseline` everywhere else. A
    /// property of the platform, so nothing configures it.
    #[default]
    Detected,
    /// The leaf kernels built for the compile-time target — what a host
    /// without AVX2 runs, selectable so the tests can diff it against
    /// the wide instantiation on a host that has both.
    Baseline,
    /// The pre-rewrite reference sweep: the exactness oracle, a value
    /// for the tests only like `Baseline`.
    Reference,
}

impl RhsKernels {
    /// What a sweep under this selector runs on this host, as the run
    /// summaries print it (`yycore run|parallel|profile`).
    pub fn label(self) -> &'static str {
        match self {
            RhsKernels::Reference => "reference",
            #[cfg(target_arch = "x86_64")]
            RhsKernels::Detected if std::arch::is_x86_feature_detected!("avx2") => {
                "avx2 (runtime-detected)"
            }
            RhsKernels::Detected | RhsKernels::Baseline => "baseline",
        }
    }
}

/// Reusable scratch arrays for RHS evaluation (velocity and temperature
/// over the padded tile, radial row buffers for the fused passes), plus
/// the kernel selector. Everything the RHS path needs is allocated here
/// once — steady state allocates nothing (regression-guarded by
/// `tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct RhsScratch {
    /// Velocity `v = f/ρ` over the padded tile.
    pub v: VectorField,
    /// Temperature `T = p/ρ` over the padded tile.
    pub temp: Array3,
    /// Per-run rows for the fused passes.
    rows: RowBufs,
    /// The fused sweep's per-lane θ-factor and radial tables.
    lanes: LaneTables,
    /// Which sweep implementation runs; same arithmetic per point
    /// bit-for-bit, so only the exactness harness (and debugging) ever
    /// moves it off the default.
    pub kernels: RhsKernels,
}

impl RhsScratch {
    /// Allocate scratch for tiles of `shape` (detected leaf kernels).
    pub fn new(shape: Shape) -> Self {
        RhsScratch {
            v: VectorField::zeros(shape),
            temp: Array3::zeros(shape),
            rows: RowBufs::new(RUN_LANES.max(shape.nr)),
            lanes: LaneTables::new(RUN_LANES.max(shape.nr)),
            kernels: RhsKernels::Detected,
        }
    }
}

/// Vector second-derivative bundle at one node: the vector Laplacian and
/// grad-div of a field given its component stencils.
struct VecSecond {
    lap: [f64; 3],
    grad_div: [f64; 3],
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn vec_second(
    qr: &Cols,
    qt: &Cols,
    qp: &Cols,
    i: usize,
    sp: &Spacings,
    g: &NodeScalars,
    inv_r: f64,
) -> VecSecond {
    let inv_r2 = inv_r * inv_r;
    let qr_c = qr.c[i];
    let qt_c = qt.c[i];
    let qp_c = qp.c[i];

    let dqr_r = qr.ddr(i, sp);
    let dqr_t = qr.ddt(i, sp);
    let dqr_p = qr.ddp(i, sp);
    let dqt_r = qt.ddr(i, sp);
    let dqt_t = qt.ddt(i, sp);
    let dqt_p = qt.ddp(i, sp);
    let dqp_p = qp.ddp(i, sp);

    let lap_r_scalar = qr.laplacian(i, sp, inv_r, g.inv_sin2, g.cot_t);
    let lap_t_scalar = qt.laplacian(i, sp, inv_r, g.inv_sin2, g.cot_t);
    let lap_p_scalar = qp.laplacian(i, sp, inv_r, g.inv_sin2, g.cot_t);

    let lap = [
        lap_r_scalar - 2.0 * inv_r2 * (qr_c + dqt_t + g.cot_t * qt_c + g.inv_sin * dqp_p),
        lap_t_scalar + 2.0 * inv_r2 * dqr_t
            - inv_r2 * g.inv_sin2 * qt_c
            - 2.0 * inv_r2 * g.cot_t * g.inv_sin * dqp_p,
        lap_p_scalar + 2.0 * inv_r2 * g.inv_sin * dqr_p + 2.0 * inv_r2 * g.cot_t * g.inv_sin * dqt_p
            - inv_r2 * g.inv_sin2 * qp_c,
    ];

    // H = cotθ Qθ + ∂θQθ + (1/sinθ)∂φQφ and its derivatives.
    let h = g.cot_t * qt_c + dqt_t + g.inv_sin * dqp_p;
    let dh_r = g.cot_t * dqt_r + qt.drt(i, sp) + g.inv_sin * qp.drp(i, sp);
    let dh_t = -g.inv_sin2 * qt_c + g.cot_t * dqt_t + qt.d2t(i, sp)
        - g.cot_t * g.inv_sin * dqp_p
        + g.inv_sin * qp.dtp(i, sp);
    let dh_p = g.cot_t * dqt_p + qt.dtp(i, sp) + g.inv_sin * qp.d2p(i, sp);

    let grad_div = [
        qr.d2r(i, sp) + 2.0 * inv_r * dqr_r - 2.0 * inv_r2 * qr_c + inv_r * dh_r - inv_r2 * h,
        inv_r * (qr.drt(i, sp) + 2.0 * inv_r * dqr_t + inv_r * dh_t),
        inv_r * g.inv_sin * (qr.drp(i, sp) + 2.0 * inv_r * dqr_p + inv_r * dh_p),
    ];

    VecSecond { lap, grad_div }
}

/// Evaluate the full MHD right-hand side over `range`, writing into `out`
/// (which is zeroed first, so non-interior nodes carry zero tendency).
///
/// `state` must have valid values on the whole padded region — i.e. halo
/// exchange, overset interpolation and physical boundary conditions have
/// all been applied to it.
#[allow(clippy::too_many_arguments)]
pub fn compute_rhs(
    state: &State,
    metric: &Metric,
    forces: &ForceTables,
    params: &PhysParams,
    range: &InteriorRange,
    scratch: &mut RhsScratch,
    out: &mut State,
    meter: &mut Meters,
) {
    out.fill_zero();
    sweep_rhs(state, metric, forces, params, range, scratch, &mut RhsSink::Store(out), meter);
}

/// Evaluate the RHS over `range` and hand each column's tendency to
/// `sink` — the one stage-sweep entry point of the serial driver and
/// both parallel sync modes, and the building block for split
/// (deep-interior / boundary-shell) sweeps over disjoint sub-ranges.
/// Only nodes of `range` are written, whatever the sink.
///
/// `state` only needs valid values on `range` expanded by the stencil
/// radius (one node in every direction): the subsidiary `v = f/ρ`,
/// `T = p/ρ` fields are recomputed over exactly that expansion, so a
/// deep-interior sweep can run before ghost/frame data arrives. The
/// per-point arithmetic does not depend on the range, so sweeping a
/// disjoint tiling of a range is bit-identical to one sweep over it.
#[allow(clippy::too_many_arguments)]
pub fn sweep_rhs(
    state: &State,
    metric: &Metric,
    forces: &ForceTables,
    params: &PhysParams,
    range: &InteriorRange,
    scratch: &mut RhsScratch,
    sink: &mut RhsSink,
    meter: &mut Meters,
) {
    if range.is_empty() {
        return;
    }
    sink.check_shape(state.shape());
    let t0 = meter.timer();
    primitives(state, range, scratch);
    // Bit-identical sweeps; which one runs is a property of the host
    // (the reference is the oracle switch only).
    match scratch.kernels {
        RhsKernels::Reference => {
            reference_sweep(state, metric, forces, params, range, scratch, sink)
        }
        #[cfg(target_arch = "x86_64")]
        RhsKernels::Detected if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: `avx2::fused_sweep` is a safe `#[target_feature(enable =
            // "avx2")]` function: all it requires of its caller is a CPU that
            // executes AVX2, and this arm's guard has just detected that on
            // the CPU we run on. Below this call safe `avx2` code calls safe
            // `avx2` code; this is the only place the requirement is assumed.
            unsafe { avx2::fused_sweep(state, metric, forces, params, range, scratch, sink) }
        }
        RhsKernels::Detected | RhsKernels::Baseline => {
            baseline::fused_sweep(state, metric, forces, params, range, scratch, sink)
        }
    }

    let points = range.points() as u64;
    let columns = ((range.j1 - range.j0) * (range.k1 - range.k0)) as u64;
    meter.kernel_timed(
        Kernel::Rhs,
        KernelTally {
            points,
            // The model bills RHS_PASSES_PER_COLUMN radial loops per
            // (j,k) column, however many columns one run of the fused
            // kernel covers; vector_elements counts the same passes per
            // point, so vector_elements/loops is the radial interior
            // extent — the equivalent vector length the ES counters
            // would report, invariant under decomposition, run length
            // and fusion degree. (The reference sweep bills the same
            // model: the tally describes the kernel contract, not which
            // implementation ran.)
            loops: RHS_PASSES_PER_COLUMN * columns,
            vector_elements: RHS_PASSES_PER_COLUMN * points,
            flops: points * RHS_FLOPS_PER_POINT,
            bytes_read: points * RHS_READS_PER_POINT * 8,
            bytes_written: points * RHS_WRITES_PER_POINT * 8,
        },
        t0,
    );
}

/// `v = f/ρ` and `T = p/ρ` into `scratch`, over `range` plus the stencil
/// radius — in every direction, radial included: a boundary-shell plane
/// only divides the three radial nodes its stencils read, not the whole
/// column (pointwise, so recomputing a node in overlapping partial
/// sweeps yields bit-identical values).
fn primitives(state: &State, range: &InteriorRange, scratch: &mut RhsScratch) {
    let shape = state.shape();
    let (gth, gph) = (shape.gth as isize, shape.gph as isize);
    let j_lo = (range.j0 - 1).max(-gth);
    let j_hi = (range.j1 + 1).min(shape.nth as isize + gth);
    let k_lo = (range.k0 - 1).max(-gph);
    let k_hi = (range.k1 + 1).min(shape.nph as isize + gph);
    let i_lo = range.i0.saturating_sub(1);
    let i_hi = (range.i1 + 1).min(shape.nr);
    for k in k_lo..k_hi {
        for j in j_lo..j_hi {
            let rho = &state.rho.row(j, k)[i_lo..i_hi];
            let prs = &state.press.row(j, k)[i_lo..i_hi];
            let fr = &state.f.r.row(j, k)[i_lo..i_hi];
            let ft = &state.f.t.row(j, k)[i_lo..i_hi];
            let fp = &state.f.p.row(j, k)[i_lo..i_hi];
            let vr = &mut scratch.v.r.row_mut(j, k)[i_lo..i_hi];
            for i in 0..vr.len() {
                vr[i] = fr[i] / rho[i];
            }
            let vt = &mut scratch.v.t.row_mut(j, k)[i_lo..i_hi];
            for i in 0..vt.len() {
                vt[i] = ft[i] / rho[i];
            }
            let vp = &mut scratch.v.p.row_mut(j, k)[i_lo..i_hi];
            for i in 0..vp.len() {
                vp[i] = fp[i] / rho[i];
            }
            let tt = &mut scratch.temp.row_mut(j, k)[i_lo..i_hi];
            for i in 0..tt.len() {
                tt[i] = prs[i] / rho[i];
            }
        }
    }
}

/// The pre-rewrite RHS column sweep: one mega-loop per point evaluating
/// every term. Kept (and kept allocation-free) as the bit-exactness
/// reference for the fused kernel — `tests/` and the cross-layout
/// harness in `yy-core` diff the two on every grid they touch. Reached
/// only through the [`RhsKernels::Reference`] oracle switch; it hands
/// its tendency rows to the sink exactly as the fused sweep does.
#[allow(clippy::too_many_arguments)]
fn reference_sweep(
    state: &State,
    metric: &Metric,
    forces: &ForceTables,
    params: &PhysParams,
    range: &InteriorRange,
    scratch: &mut RhsScratch,
    sink: &mut RhsSink,
) {
    let (rows, v, temp) = (&mut scratch.rows, &scratch.v, &scratch.temp);
    let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
    let gamma = params.gamma;
    let gm1 = gamma - 1.0;
    let (mu, kappa, eta) = (params.mu, params.kappa, params.eta);

    // Radial helper tables (precomputed on the metric — the old per-call
    // `r2` allocation was the hot-loop bug this PR fixes).
    let r = &metric.r;
    let inv_r = &metric.inv_r;
    let r2 = &metric.r2;

    for k in range.k0..range.k1 {
        for j in range.j0..range.j1 {
            let g = NodeScalars::new(metric, forces, j, k);
            let p_cols = Cols::new(&state.press, j, k);
            let t_cols = Cols::new(temp, j, k);
            let fr_cols = Cols::new(&state.f.r, j, k);
            let ft_cols = Cols::new(&state.f.t, j, k);
            let fp_cols = Cols::new(&state.f.p, j, k);
            let vr_cols = Cols::new(&v.r, j, k);
            let vt_cols = Cols::new(&v.t, j, k);
            let vp_cols = Cols::new(&v.p, j, k);
            let ar_cols = Cols::new(&state.a.r, j, k);
            let at_cols = Cols::new(&state.a.t, j, k);
            let ap_cols = Cols::new(&state.a.p, j, k);
            let rho_row = state.rho.row(j, k);
            let (om_r, om_t, om_p) = forces.omega_at(j, k);

            let [k_rho, k_p, k_fr, k_ft, k_fp, k_ar, k_at, k_ap] = &mut rows.k;
            for i in range.i0..range.i1 {
                let q = i - range.i0;
                let ir = inv_r[i];
                let ir2 = ir * ir;
                let rho_c = rho_row[i];
                let p_c = p_cols.c[i];
                let fr_c = fr_cols.c[i];
                let ft_c = ft_cols.c[i];
                let fp_c = fp_cols.c[i];
                let vr_c = vr_cols.c[i];
                let vt_c = vt_cols.c[i];
                let vp_c = vp_cols.c[i];

                // --- continuity -------------------------------------------------
                let div_f = ir2 * (r2[i + 1] * fr_cols.c[i + 1] - r2[i - 1] * fr_cols.c[i - 1])
                    * sp.inv_2dr
                    + ir * g.inv_sin
                        * ((g.sin_s * ft_cols.s[i] - g.sin_n * ft_cols.n[i]) * sp.inv_2dt
                            + (fp_cols.e[i] - fp_cols.w[i]) * sp.inv_2dp);

                // --- magnetic field B = ∇×A -------------------------------------
                let b_r = ir * g.inv_sin
                    * ((g.sin_s * ap_cols.s[i] - g.sin_n * ap_cols.n[i]) * sp.inv_2dt
                        - (at_cols.e[i] - at_cols.w[i]) * sp.inv_2dp);
                let b_t = ir
                    * (g.inv_sin * (ar_cols.e[i] - ar_cols.w[i]) * sp.inv_2dp
                        - (r[i + 1] * ap_cols.c[i + 1] - r[i - 1] * ap_cols.c[i - 1]) * sp.inv_2dr);
                let b_p = ir
                    * ((r[i + 1] * at_cols.c[i + 1] - r[i - 1] * at_cols.c[i - 1]) * sp.inv_2dr
                        - (ar_cols.s[i] - ar_cols.n[i]) * sp.inv_2dt);

                // --- current j = ∇(∇·A) − ∇²A ------------------------------------
                let a2 = vec_second(&ar_cols, &at_cols, &ap_cols, i, &sp, &g, ir);
                let j_r = a2.grad_div[0] - a2.lap[0];
                let j_t = a2.grad_div[1] - a2.lap[1];
                let j_p = a2.grad_div[2] - a2.lap[2];

                // --- momentum: advection ∇·(vf) ----------------------------------
                let flux = |q: &Cols| -> f64 {
                    ir2 * (r2[i + 1] * vr_cols.c[i + 1] * q.c[i + 1]
                        - r2[i - 1] * vr_cols.c[i - 1] * q.c[i - 1])
                        * sp.inv_2dr
                        + ir * g.inv_sin
                            * ((g.sin_s * vt_cols.s[i] * q.s[i] - g.sin_n * vt_cols.n[i] * q.n[i])
                                * sp.inv_2dt
                                + (vp_cols.e[i] * q.e[i] - vp_cols.w[i] * q.w[i]) * sp.inv_2dp)
                };
                let adv_r = flux(&fr_cols) - (ft_c * vt_c + fp_c * vp_c) * ir;
                let adv_t = flux(&ft_cols) + (ft_c * vr_c) * ir - g.cot_t * (fp_c * vp_c) * ir;
                let adv_p =
                    flux(&fp_cols) + (fp_c * vr_c) * ir + g.cot_t * (fp_c * vt_c) * ir;

                // --- pressure gradient -------------------------------------------
                let gp_r = p_cols.ddr(i, &sp);
                let gp_t = ir * p_cols.ddt(i, &sp);
                let gp_p = ir * g.inv_sin * p_cols.ddp(i, &sp);

                // --- Lorentz force j×B -------------------------------------------
                let jxb_r = j_t * b_p - j_p * b_t;
                let jxb_t = j_p * b_r - j_r * b_p;
                let jxb_p = j_r * b_t - j_t * b_r;

                // --- Coriolis 2ρ v×Ω = 2 f×Ω -------------------------------------
                let cor_r = 2.0 * (ft_c * om_p - fp_c * om_t);
                let cor_t = 2.0 * (fp_c * om_r - fr_c * om_p);
                let cor_p = 2.0 * (fr_c * om_t - ft_c * om_r);

                // --- viscous force µ(∇²v + ⅓∇(∇·v)) ------------------------------
                let v2 = vec_second(&vr_cols, &vt_cols, &vp_cols, i, &sp, &g, ir);
                let visc_r = mu * (v2.lap[0] + v2.grad_div[0] / 3.0);
                let visc_t = mu * (v2.lap[1] + v2.grad_div[1] / 3.0);
                let visc_p = mu * (v2.lap[2] + v2.grad_div[2] / 3.0);

                // --- pressure equation pieces ------------------------------------
                let dvr_r = vr_cols.ddr(i, &sp);
                let dvt_t = vt_cols.ddt(i, &sp);
                let dvp_p = vp_cols.ddp(i, &sp);
                let div_v = dvr_r
                    + 2.0 * ir * vr_c
                    + ir * (g.cot_t * vt_c + dvt_t)
                    + ir * g.inv_sin * dvp_p;
                let v_grad_p =
                    vr_c * gp_r + vt_c * gp_t + vp_c * gp_p;
                let lap_t = t_cols.laplacian(i, &sp, ir, g.inv_sin2, g.cot_t);
                let j2 = j_r * j_r + j_t * j_t + j_p * j_p;

                let e_rr = dvr_r;
                let e_tt = ir * dvt_t + vr_c * ir;
                let e_pp = ir * g.inv_sin * dvp_p + vr_c * ir + g.cot_t * vt_c * ir;
                let e_rt = 0.5 * (ir * vr_cols.ddt(i, &sp) + vt_cols.ddr(i, &sp) - vt_c * ir);
                let e_rp =
                    0.5 * (ir * g.inv_sin * vr_cols.ddp(i, &sp) + vp_cols.ddr(i, &sp) - vp_c * ir);
                let e_tp = 0.5
                    * (ir * g.inv_sin * vt_cols.ddp(i, &sp) + ir * vp_cols.ddt(i, &sp)
                        - g.cot_t * vp_c * ir);
                let ee = e_rr * e_rr
                    + e_tt * e_tt
                    + e_pp * e_pp
                    + 2.0 * (e_rt * e_rt + e_rp * e_rp + e_tp * e_tp);
                let phi_visc = 2.0 * mu * (ee - div_v * div_v / 3.0);

                // --- induction: ∂A/∂t = v×B − ηj ----------------------------------
                let vxb_r = vt_c * b_p - vp_c * b_t;
                let vxb_t = vp_c * b_r - vr_c * b_p;
                let vxb_p = vr_c * b_t - vt_c * b_r;

                // --- assemble ----------------------------------------------------
                k_rho[q] = -div_f;
                k_fr[q] = -adv_r - gp_r + jxb_r + rho_c * forces.grav[i] + cor_r + visc_r;
                k_ft[q] = -adv_t - gp_t + jxb_t + cor_t + visc_t;
                k_fp[q] = -adv_p - gp_p + jxb_p + cor_p + visc_p;
                k_p[q] = -v_grad_p - gamma * p_c * div_v
                    + gm1 * (kappa * lap_t + eta * j2 + phi_visc);
                k_ar[q] = vxb_r - eta * j_r;
                k_at[q] = vxb_t - eta * j_t;
                k_ap[q] = vxb_p - eta * j_p;
            }
            let (row, n) = (state.shape().idx(range.i0, j, k), range.i1 - range.i0);
            baseline::flush(sink, row..row + n, state.shape().nr, n, &rows.k);
        }
    }
}

/// Stamp one ISA instantiation of the run traversal — the fused sweep
/// and the sink flush it ends each run with — as module `$isa`, calling
/// the `$isa` instantiation of every leaf kernel. The text is the same
/// for all of them; what differs is the `#[target_feature]` it is
/// compiled under, which is what lets the `avx2` traversal call the
/// `avx2` kernels as the safe functions they are (DESIGN §6f).
macro_rules! isa_traversal {
    ($isa:ident $(, #[$feature:meta])?) => {
        mod $isa {
            use super::*;

            /// The fused RHS sweep: [`RHS_PASSES_PER_COLUMN`] stride-1 passes
            /// per *run* of θ-adjacent columns (up to [`RUN_LANES`] lanes,
            /// one vector through the rows `Shape::idx` lays end to end)
            /// instead of one register-starved mega-loop per point, over
            /// φ-bands of [`PHI_BLOCK`] columns.
            ///
            /// This function only traverses: per run it gathers the input
            /// slices into a [`Run`] and calls the eleven `pass_*` leaf
            /// kernels below, which own the loops. The split is what makes
            /// those loops compile to packed f64 (see [`Cols::fit`]): each
            /// kernel is `#[inline(never)]`, so its `&mut [f64]` outputs are
            /// *parameters* — `noalias` against every input row, which a row
            /// sliced out of `out: &mut State` inside one big function never
            /// was — and it re-cuts its inputs at the top to the length of
            /// its output (`n`, or `n + 2` for stencil rows), so no bounds
            /// check survives in the loop.
            ///
            /// A run's lanes include the wall nodes between its columns.
            /// Every lane evaluates the same expression tree, and the lanes
            /// at walls read neighbours across the row seam; they are
            /// computed and dropped, since the flush writes each column's
            /// swept nodes only. Intermediate fields (B, j, ∇p) and the
            /// eight tendency rows land in cache-resident row buffers; a f64
            /// store/load roundtrip is exact, expression trees are copied
            /// from the reference sweep verbatim (vector lanes evaluate the
            /// same IEEE operations in the same order as scalar code, at any
            /// lane count, on the same operands — the per-lane tables hold
            /// the reference's per-column scalars), and the force/pressure
            /// accumulations split the reference's left-associated sums at
            /// association boundaries — so the result is **bit-identical**
            /// to [`reference_sweep`] (asserted by the tests here and the
            /// cross-layout harness in `yy-core`). Columns are independent,
            /// which makes the run and φ-band traversal bit-exact too.
            $(#[$feature])?
            #[allow(clippy::too_many_arguments)]
            pub(super) fn fused_sweep(
                state: &State,
                metric: &Metric,
                forces: &ForceTables,
                params: &PhysParams,
                range: &InteriorRange,
                scratch: &mut RhsScratch,
                sink: &mut RhsSink,
            ) {
                let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
                let shape = state.shape();
                let (nr, i0, n) = (shape.nr, range.i0, range.i1 - range.i0);
                // Columns per run: as many as `RUN_LANES` holds, at least one.
                let run_columns = (1 + RUN_LANES.saturating_sub(n) / nr) as isize;
                let (rows, tables) = (&mut scratch.rows, &mut scratch.lanes);
                let (v, temp) = (&scratch.v, &scratch.temp);
                tables.fill_radial(metric, forces, i0);

                // φ-band blocking: process `PHI_BLOCK`-wide bands with the
                // runs innermost, so a band's stencil rows stay cache-hot
                // across the θ sweep.
                let mut kb = range.k0;
                while kb < range.k1 {
                    let kb1 = (kb + PHI_BLOCK).min(range.k1);
                    let mut ja = range.j0;
                    while ja < range.j1 {
                        let columns = run_columns.min(range.j1 - ja);
                        let lanes = (columns as usize - 1) * nr + n;
                        if columns > 1 {
                            tables.fill_theta(metric, ja, columns, nr);
                        }
                        for k in kb..kb1 {
                            if columns > 1 {
                                tables.fill_omega(forces, ja, k, columns, nr);
                            }
                            let start = shape.idx(i0, ja, k);
                            let run = |a| Cols::run(a, ja, k, i0, lanes);
                            let c = Run {
                                p: run(&state.press),
                                t: run(temp),
                                fr: run(&state.f.r),
                                ft: run(&state.f.t),
                                fp: run(&state.f.p),
                                vr: run(&v.r),
                                vt: run(&v.t),
                                vp: run(&v.p),
                                ar: run(&state.a.r),
                                at: run(&state.a.t),
                                ap: run(&state.a.p),
                                rho: &state.rho.data()[start..start + lanes],
                                r: &tables.r[..lanes + 2],
                                r2: &tables.r2[..lanes + 2],
                                ir: &tables.inv_r[..lanes],
                                grav: &tables.grav[..lanes],
                                sp: &sp,
                                params,
                            };
                            if columns == 1 {
                                passes(rows, &c, NodeScalars::new(metric, forces, ja, k), lanes);
                            } else {
                                passes(rows, &c, tables.rows(lanes), lanes);
                            }
                            flush(sink, start..start + lanes, nr, n, &rows.k);
                        }
                        ja += columns;
                    }
                    kb = kb1;
                }
            }

            /// The eleven passes over one run of `lanes` lanes, its
            /// per-column scalars read from `g`.
            $(#[$feature])?
            fn passes<G: Scalars>(rows: &mut RowBufs, c: &Run, g: G, lanes: usize) {
                let [rho_o, pr_o, fr_o, ft_o, fp_o, ar_o, at_o, ap_o] =
                    rows.k.each_mut().map(|row| &mut row[..lanes]);
                pass_continuity::$isa(rho_o, c, g);
                let [b_r, b_t, b_p] = rows.b.each_mut().map(|row| &mut row[..lanes]);
                pass_curl_a::$isa(b_r, b_t, b_p, c, g);
                let [j_r, j_t, j_p] = rows.j.each_mut().map(|row| &mut row[..lanes]);
                pass_current::$isa(j_r, j_t, j_p, c, g);
                let [gp_r, gp_t, gp_p] = rows.gp.each_mut().map(|row| &mut row[..lanes]);
                pass_grad_p::$isa(gp_r, gp_t, gp_p, c, g);
                pass_advect_r::$isa(fr_o, c, g);
                pass_advect_t::$isa(ft_o, c, g);
                pass_advect_p::$isa(fp_o, c, g);
                pass_forces::$isa(fr_o, ft_o, fp_o, &rows.b, &rows.j, &rows.gp, c, g);
                pass_viscous::$isa(fr_o, ft_o, fp_o, c, g);
                pass_pressure::$isa(pr_o, &rows.gp, &rows.j, c, g);
                pass_induction::$isa(ar_o, at_o, ap_o, &rows.b, &rows.j, c);
            }

            /// Flush the tendency rows `k` of a run whose lanes sit at flat
            /// indices `span` of every state array: of every `nr` lanes the
            /// first `n`, a column's swept nodes. The wall lanes between
            /// them are dropped, so only swept nodes are written.
            $(#[$feature])?
            pub(super) fn flush(
                sink: &mut RhsSink,
                span: std::ops::Range<usize>,
                nr: usize,
                n: usize,
                k: &[Vec<f64>; 8],
            ) {
                let lanes = span.len();
                match sink {
                    RhsSink::Store(out) => {
                        for (out, k) in out.arrays_mut().into_iter().zip(k) {
                            let segments = out.data_mut()[span.clone()].chunks_mut(nr);
                            for (out, k) in segments.zip(k[..lanes].chunks(nr)) {
                                out[..n].copy_from_slice(&k[..n]);
                            }
                        }
                    }
                    // Indexed, not zipped by value: an array `IntoIter` live
                    // across the call has a destructor, the call becomes an
                    // `invoke`, and rustc 1.95 attaches a `#[target_feature]`
                    // function's `inline(never)` to plain calls only — the
                    // wide flush kernels would dissolve into the traversal
                    // (`scripts/check_simd.sh` counts them).
                    RhsSink::Stage { acc, y0, next, b, a } => {
                        let (acc, next, y0) = (acc.arrays_mut(), next.arrays_mut(), y0.arrays());
                        for (q, k) in k.iter().enumerate() {
                            let acc = &mut acc[q].data_mut()[span.clone()];
                            let next = &mut next[q].data_mut()[span.clone()];
                            let y0 = &y0[q].data()[span.clone()];
                            flush_stage::$isa(acc, next, y0, &k[..lanes], *b, *a, nr, n);
                        }
                    }
                    RhsSink::Final { acc, b } => {
                        let acc = acc.arrays_mut();
                        for (q, k) in k.iter().enumerate() {
                            let acc = &mut acc[q].data_mut()[span.clone()];
                            flush_final::$isa(acc, &k[..lanes], *b, nr, n);
                        }
                    }
                }
            }
        }
    };
}

isa_traversal!(baseline);
#[cfg(target_arch = "x86_64")]
isa_traversal!(avx2, #[target_feature(enable = "avx2")]);

/// Everything the leaf kernels read of one run but its [`Scalars`].
/// Stencil rows and the `r`/`r2` windows hold `lanes + 2` entries (local
/// index `q+1` ↔ lane `q`); the centre-only rows `rho`/`ir`/`grav` hold
/// `lanes` (index `q` ↔ lane `q`).
struct Run<'a> {
    p: Cols<'a>,
    t: Cols<'a>,
    fr: Cols<'a>,
    ft: Cols<'a>,
    fp: Cols<'a>,
    vr: Cols<'a>,
    vt: Cols<'a>,
    vp: Cols<'a>,
    ar: Cols<'a>,
    at: Cols<'a>,
    ap: Cols<'a>,
    rho: &'a [f64],
    r: &'a [f64],
    r2: &'a [f64],
    ir: &'a [f64],
    grav: &'a [f64],
    sp: &'a Spacings,
    params: &'a PhysParams,
}

/// Cut the three rows of a row-buffer field to `n` lanes.
#[inline(always)]
fn fit3(rows: &Rows3, n: usize) -> (&[f64], &[f64], &[f64]) {
    (&rows[0][..n], &rows[1][..n], &rows[2][..n])
}

isa_kernel! {
    /// Pass 1: continuity, ∂ρ/∂t = −∇·f.
    fn pass_continuity<G: Scalars>(rho_o: &mut [f64], c: &Run, g: G) {
        let n = rho_o.len();
        let (fr, ft, fp) = (c.fr.fit(n + 2), c.ft.fit(n + 2), c.fp.fit(n + 2));
        let (r2_w, ir_w, sp, geo) = (&c.r2[..n + 2], &c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            let ir2 = ir * ir;
            let div_f = ir2 * (r2_w[li + 1] * fr.c[li + 1] - r2_w[li - 1] * fr.c[li - 1]) * sp.inv_2dr
                + ir * g.inv_sin
                    * ((g.sin_s * ft.s[li] - g.sin_n * ft.n[li]) * sp.inv_2dt
                        + (fp.e[li] - fp.w[li]) * sp.inv_2dp);
            rho_o[q] = -div_f;
        }
    }
}

isa_kernel! {
    /// Pass 2: B = ∇×A into row buffers.
    fn pass_curl_a<G: Scalars>(b_r: &mut [f64], b_t: &mut [f64], b_p: &mut [f64], c: &Run, g: G) {
        let n = b_r.len();
        let (b_t, b_p) = (&mut b_t[..n], &mut b_p[..n]);
        let (ar, at, ap) = (c.ar.fit(n + 2), c.at.fit(n + 2), c.ap.fit(n + 2));
        let (r_w, ir_w, sp, geo) = (&c.r[..n + 2], &c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            b_r[q] = ir * g.inv_sin
                * ((g.sin_s * ap.s[li] - g.sin_n * ap.n[li]) * sp.inv_2dt
                    - (at.e[li] - at.w[li]) * sp.inv_2dp);
            b_t[q] = ir
                * (g.inv_sin * (ar.e[li] - ar.w[li]) * sp.inv_2dp
                    - (r_w[li + 1] * ap.c[li + 1] - r_w[li - 1] * ap.c[li - 1]) * sp.inv_2dr);
            b_p[q] = ir
                * ((r_w[li + 1] * at.c[li + 1] - r_w[li - 1] * at.c[li - 1]) * sp.inv_2dr
                    - (ar.s[li] - ar.n[li]) * sp.inv_2dt);
        }
    }
}

isa_kernel! {
    /// Pass 3: current j = ∇(∇·A) − ∇²A into row buffers.
    fn pass_current<G: Scalars>(j_r: &mut [f64], j_t: &mut [f64], j_p: &mut [f64], c: &Run, g: G) {
        let n = j_r.len();
        let (j_t, j_p) = (&mut j_t[..n], &mut j_p[..n]);
        let (ar, at, ap) = (c.ar.fit(n + 2), c.at.fit(n + 2), c.ap.fit(n + 2));
        let (ir_w, sp, geo) = (&c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let a2 = vec_second(&ar, &at, &ap, q + 1, sp, &geo.at(q), ir_w[q]);
            j_r[q] = a2.grad_div[0] - a2.lap[0];
            j_t[q] = a2.grad_div[1] - a2.lap[1];
            j_p[q] = a2.grad_div[2] - a2.lap[2];
        }
    }
}

isa_kernel! {
    /// Pass 4: pressure gradient into row buffers.
    fn pass_grad_p<G: Scalars>(
        gp_r: &mut [f64],
        gp_t: &mut [f64],
        gp_p: &mut [f64],
        c: &Run,
        g: G,
    ) {
        let n = gp_r.len();
        let (gp_t, gp_p) = (&mut gp_t[..n], &mut gp_p[..n]);
        let (p, ir_w, sp, geo) = (c.p.fit(n + 2), &c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            gp_r[q] = p.ddr(li, sp);
            gp_t[q] = ir * p.ddt(li, sp);
            gp_p[q] = ir * g.inv_sin * p.ddp(li, sp);
        }
    }
}

/// The conservative advection flux `Flux(q)` of the module docs at
/// local index `li`, term for term the reference's `flux` closure.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn flux(
    q: &Cols,
    vr: &Cols,
    vt: &Cols,
    vp: &Cols,
    r2_w: &[f64],
    li: usize,
    ir: f64,
    sp: &Spacings,
    g: &NodeScalars,
) -> f64 {
    let ir2 = ir * ir;
    ir2 * (r2_w[li + 1] * vr.c[li + 1] * q.c[li + 1] - r2_w[li - 1] * vr.c[li - 1] * q.c[li - 1])
        * sp.inv_2dr
        + ir * g.inv_sin
            * ((g.sin_s * vt.s[li] * q.s[li] - g.sin_n * vt.n[li] * q.n[li]) * sp.inv_2dt
                + (vp.e[li] * q.e[li] - vp.w[li] * q.w[li]) * sp.inv_2dp)
}

isa_kernel! {
    /// Passes 5–7: advection, one momentum component each — out.f = −∇·(vf).
    fn pass_advect_r<G: Scalars>(fr_o: &mut [f64], c: &Run, g: G) {
        let n = fr_o.len();
        let (fr, ft, fp) = (c.fr.fit(n + 2), c.ft.fit(n + 2), c.fp.fit(n + 2));
        let (vr, vt, vp) = (c.vr.fit(n + 2), c.vt.fit(n + 2), c.vp.fit(n + 2));
        let (r2_w, ir_w, sp, geo) = (&c.r2[..n + 2], &c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            let adv_r = flux(&fr, &vr, &vt, &vp, r2_w, li, ir, sp, &g)
                - (ft.c[li] * vt.c[li] + fp.c[li] * vp.c[li]) * ir;
            fr_o[q] = -adv_r;
        }
    }
}

isa_kernel! {
    fn pass_advect_t<G: Scalars>(ft_o: &mut [f64], c: &Run, g: G) {
        let n = ft_o.len();
        let (ft, fp) = (c.ft.fit(n + 2), c.fp.fit(n + 2));
        let (vr, vt, vp) = (c.vr.fit(n + 2), c.vt.fit(n + 2), c.vp.fit(n + 2));
        let (r2_w, ir_w, sp, geo) = (&c.r2[..n + 2], &c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            let adv_t = flux(&ft, &vr, &vt, &vp, r2_w, li, ir, sp, &g) + (ft.c[li] * vr.c[li]) * ir
                - g.cot_t * (fp.c[li] * vp.c[li]) * ir;
            ft_o[q] = -adv_t;
        }
    }
}

isa_kernel! {
    fn pass_advect_p<G: Scalars>(fp_o: &mut [f64], c: &Run, g: G) {
        let n = fp_o.len();
        let fp = c.fp.fit(n + 2);
        let (vr, vt, vp) = (c.vr.fit(n + 2), c.vt.fit(n + 2), c.vp.fit(n + 2));
        let (r2_w, ir_w, sp, geo) = (&c.r2[..n + 2], &c.ir[..n], c.sp, g.fit(n));
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            let adv_p = flux(&fp, &vr, &vt, &vp, r2_w, li, ir, sp, &g) + (fp.c[li] * vr.c[li]) * ir
                + g.cot_t * (fp.c[li] * vt.c[li]) * ir;
            fp_o[q] = -adv_p;
        }
    }
}

isa_kernel! {
    /// Pass 8: body forces — −∇p, j×B, gravity, Coriolis — accumulated onto
    /// −advection in the reference's left-associated order.
    #[allow(clippy::too_many_arguments)]
    fn pass_forces<G: Scalars>(
        fr_o: &mut [f64],
        ft_o: &mut [f64],
        fp_o: &mut [f64],
        b: &Rows3,
        j: &Rows3,
        gp: &Rows3,
        c: &Run,
        g: G,
    ) {
        let n = fr_o.len();
        let (ft_o, fp_o) = (&mut ft_o[..n], &mut fp_o[..n]);
        let ((b_r, b_t, b_p), (j_r, j_t, j_p), (gp_r, gp_t, gp_p)) =
            (fit3(b, n), fit3(j, n), fit3(gp, n));
        let (fr, ft, fp) = (&c.fr.c[1..n + 1], &c.ft.c[1..n + 1], &c.fp.c[1..n + 1]);
        let (rho, grav, lane) = (&c.rho[..n], &c.grav[..n], g.fit(n));
        for q in 0..n {
            let NodeScalars { om_r, om_t, om_p, .. } = lane.at(q);
            let jxb_r = j_t[q] * b_p[q] - j_p[q] * b_t[q];
            let jxb_t = j_p[q] * b_r[q] - j_r[q] * b_p[q];
            let jxb_p = j_r[q] * b_t[q] - j_t[q] * b_r[q];
            let cor_r = 2.0 * (ft[q] * om_p - fp[q] * om_t);
            let cor_t = 2.0 * (fp[q] * om_r - fr[q] * om_p);
            let cor_p = 2.0 * (fr[q] * om_t - ft[q] * om_r);
            fr_o[q] = fr_o[q] - gp_r[q] + jxb_r + rho[q] * grav[q] + cor_r;
            ft_o[q] = ft_o[q] - gp_t[q] + jxb_t + cor_t;
            fp_o[q] = fp_o[q] - gp_p[q] + jxb_p + cor_p;
        }
    }
}

isa_kernel! {
    /// Pass 9: viscous force µ(∇²v + ⅓∇(∇·v)), the final momentum addend.
    fn pass_viscous<G: Scalars>(
        fr_o: &mut [f64],
        ft_o: &mut [f64],
        fp_o: &mut [f64],
        c: &Run,
        g: G,
    ) {
        let n = fr_o.len();
        let (ft_o, fp_o) = (&mut ft_o[..n], &mut fp_o[..n]);
        let (vr, vt, vp) = (c.vr.fit(n + 2), c.vt.fit(n + 2), c.vp.fit(n + 2));
        let (ir_w, sp, geo, mu) = (&c.ir[..n], c.sp, g.fit(n), c.params.mu);
        for q in 0..n {
            let v2 = vec_second(&vr, &vt, &vp, q + 1, sp, &geo.at(q), ir_w[q]);
            fr_o[q] += mu * (v2.lap[0] + v2.grad_div[0] / 3.0);
            ft_o[q] += mu * (v2.lap[1] + v2.grad_div[1] / 3.0);
            fp_o[q] += mu * (v2.lap[2] + v2.grad_div[2] / 3.0);
        }
    }
}

isa_kernel! {
    /// Pass 10: the whole pressure equation in one pass — advection
    /// −v·∇p − γp∇·v, viscous heating Φ from the strain tensor, diffusion
    /// κ∇²T and Ohmic heating ηj². `div_v` is computed once and shared
    /// between the advection and heating terms, exactly as the reference
    /// does; the assembled sum keeps the reference's left-associated order,
    /// so the merge is bit-exact.
    fn pass_pressure<G: Scalars>(pr_o: &mut [f64], gp: &Rows3, j: &Rows3, c: &Run, g: G) {
        let n = pr_o.len();
        let ((gp_r, gp_t, gp_p), (j_r, j_t, j_p)) = (fit3(gp, n), fit3(j, n));
        let (p_c, t_c) = (&c.p.c[..n + 2], c.t.fit(n + 2));
        let (vr, vt, vp) = (c.vr.fit(n + 2), c.vt.fit(n + 2), c.vp.fit(n + 2));
        let (ir_w, sp, geo) = (&c.ir[..n], c.sp, g.fit(n));
        let PhysParams { gamma, mu, kappa, eta, .. } = *c.params;
        let gm1 = gamma - 1.0;
        for q in 0..n {
            let (li, g) = (q + 1, geo.at(q));
            let ir = ir_w[q];
            let dvr_r = vr.ddr(li, sp);
            let dvt_t = vt.ddt(li, sp);
            let dvp_p = vp.ddp(li, sp);
            let div_v = dvr_r
                + 2.0 * ir * vr.c[li]
                + ir * (g.cot_t * vt.c[li] + dvt_t)
                + ir * g.inv_sin * dvp_p;
            let v_grad_p = vr.c[li] * gp_r[q] + vt.c[li] * gp_t[q] + vp.c[li] * gp_p[q];
            let lap_t = t_c.laplacian(li, sp, ir, g.inv_sin2, g.cot_t);
            let j2 = j_r[q] * j_r[q] + j_t[q] * j_t[q] + j_p[q] * j_p[q];
            let e_rr = dvr_r;
            let e_tt = ir * dvt_t + vr.c[li] * ir;
            let e_pp = ir * g.inv_sin * dvp_p + vr.c[li] * ir + g.cot_t * vt.c[li] * ir;
            let e_rt = 0.5 * (ir * vr.ddt(li, sp) + vt.ddr(li, sp) - vt.c[li] * ir);
            let e_rp = 0.5 * (ir * g.inv_sin * vr.ddp(li, sp) + vp.ddr(li, sp) - vp.c[li] * ir);
            let e_tp = 0.5
                * (ir * g.inv_sin * vt.ddp(li, sp) + ir * vp.ddt(li, sp) - g.cot_t * vp.c[li] * ir);
            let ee = e_rr * e_rr
                + e_tt * e_tt
                + e_pp * e_pp
                + 2.0 * (e_rt * e_rt + e_rp * e_rp + e_tp * e_tp);
            let phi_visc = 2.0 * mu * (ee - div_v * div_v / 3.0);
            pr_o[q] =
                -v_grad_p - gamma * p_c[li] * div_v + gm1 * (kappa * lap_t + eta * j2 + phi_visc);
        }
    }
}

isa_kernel! {
    /// Pass 11: induction ∂A/∂t = v×B − ηj.
    fn pass_induction(
        ar_o: &mut [f64],
        at_o: &mut [f64],
        ap_o: &mut [f64],
        b: &Rows3,
        j: &Rows3,
        c: &Run,
    ) {
        let n = ar_o.len();
        let (at_o, ap_o) = (&mut at_o[..n], &mut ap_o[..n]);
        let ((b_r, b_t, b_p), (j_r, j_t, j_p)) = (fit3(b, n), fit3(j, n));
        let (vr, vt, vp) = (&c.vr.c[1..n + 1], &c.vt.c[1..n + 1], &c.vp.c[1..n + 1]);
        let eta = c.params.eta;
        for q in 0..n {
            let vxb_r = vt[q] * b_p[q] - vp[q] * b_t[q];
            let vxb_t = vp[q] * b_r[q] - vr[q] * b_p[q];
            let vxb_p = vr[q] * b_t[q] - vt[q] * b_r[q];
            ar_o[q] = vxb_r - eta * j_r[q];
            at_o[q] = vxb_t - eta * j_t[q];
            ap_o[q] = vxb_p - eta * j_p[q];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{hydrostatic_profile, initialize, InitOptions};
    use crate::tables::rotation_axis;
    use yy_mesh::{Panel, PatchGrid, PatchSpec};

    fn setup(nth: usize) -> (PatchGrid, Metric, ForceTables, PhysParams) {
        setup_nr(16, nth)
    }

    fn setup_nr(nr: usize, nth: usize) -> (PatchGrid, Metric, ForceTables, PhysParams) {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(nr, nth, 0.35, 1.0));
        let metric = Metric::full(&grid);
        let params = PhysParams::default_laptop();
        let (_, nthg, nphg) = grid.dims();
        let forces = ForceTables::new(
            &metric,
            nthg,
            nphg,
            1,
            params.g0,
            params.omega,
            rotation_axis(Panel::Yin),
        );
        (grid, metric, forces, params)
    }

    /// With f = 0 and A = 0 and the hydrostatic (ρ, p) profile, the RHS
    /// must vanish up to discretization error, and converge away at 2nd
    /// order.
    #[test]
    fn hydrostatic_state_is_a_discrete_equilibrium() {
        let residual = |nth: usize, nr: usize| {
            let grid =
                PatchGrid::new(PatchSpec::equal_spacing(nr, nth, 0.35, 1.0));
            let metric = Metric::full(&grid);
            let params = PhysParams::default_laptop();
            let (_, nthg, nphg) = grid.dims();
            let forces = ForceTables::new(
                &metric,
                nthg,
                nphg,
                1,
                params.g0,
                params.omega,
                rotation_axis(Panel::Yin),
            );
            let mut state = State::zeros(grid.full_shape());
            let opts = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, seed: 1 };
            initialize(&mut state, &grid, None, &params, &opts, Panel::Yin);
            let range = InteriorRange::full_panel(&grid);
            let mut scratch = RhsScratch::new(grid.full_shape());
            let mut out = State::zeros(grid.full_shape());
            let mut meter = Meters::new();
            compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter);
            // Momentum residual is the interesting one: −∇p + ρg ≈ 0.
            out.f.r.max_abs_owned().max(out.f.t.max_abs_owned()).max(out.f.p.max_abs_owned())
        };
        let e1 = residual(9, 16);
        let e2 = residual(17, 32);
        let rate = (e1 / e2).log2();
        assert!(
            rate > 1.6,
            "hydrostatic residual convergence rate {rate:.2} ({e1:.3e} → {e2:.3e})"
        );
    }

    /// `|got − want| ≤ 1e-12 · |want|` at every interior node of `range`.
    fn assert_closed_form(
        range: &InteriorRange,
        what: &str,
        mut got_want: impl FnMut(usize, isize, isize) -> (f64, f64),
    ) {
        for k in range.k0..range.k1 {
            for j in range.j0..range.j1 {
                for i in range.i0..range.i1 {
                    let (got, want) = got_want(i, j, k);
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs(),
                        "{what} at ({i},{j},{k}): {got:e} vs closed form {want:e}"
                    );
                }
            }
        }
    }

    /// Uniform radial expansion, v = r r̂ at uniform ρ₀ and p₀, A = 0.
    /// The centered difference of r³ is 3r² + Δr², so ∂ρ/∂t = −∇·f =
    /// −ρ₀(3 + Δr²/r²) exactly. ∇p, ∇²T and j vanish, and isotropic
    /// expansion dissipates nothing (Φ = 2µ(e:e − (∇·v)²/3) = 0), so
    /// ∂p/∂t = −γp₀∇·v = −3γp₀. Pins the `r²` metric factor and γ in
    /// the pressure equation, in every sweep.
    #[test]
    fn uniform_radial_expansion_matches_its_closed_form() {
        let (grid, metric, forces, params) = setup(9);
        let shape = grid.full_shape();
        let (rho0, p0) = (1.3, 0.7);
        let mut state = State::zeros(shape);
        state.rho.fill(rho0);
        state.press.fill(p0);
        for row in state.f.r.data_mut().chunks_exact_mut(shape.nr) {
            row.iter_mut().zip(&metric.r).for_each(|(x, &r)| *x = rho0 * r);
        }
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut out = State::zeros(shape);
        for kernels in selectors() {
            scratch.kernels = kernels;
            compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut Meters::new());
            let dr2 = metric.dr * metric.dr;
            assert_closed_form(&range, &format!("{kernels:?} ∂ρ/∂t"), |i, j, k| {
                (out.rho.at(i, j, k), -rho0 * (3.0 + dr2 * metric.inv_r[i] * metric.inv_r[i]))
            });
            assert_closed_form(&range, &format!("{kernels:?} ∂p/∂t"), |i, j, k| {
                (out.press.at(i, j, k), -3.0 * params.gamma * p0)
            });
        }
    }

    /// Ohmic heating at rest: with f = 0, uniform ρ and p and an
    /// arbitrary A, ∂A/∂t = −ηj and ∂p/∂t = (γ−1)ηj², so
    /// η·∂p/∂t = (γ−1)|∂A/∂t|² at every node, in every sweep.
    #[test]
    fn ohmic_heating_at_rest_is_eta_j_squared() {
        let (grid, metric, forces, params) = setup(9);
        let shape = grid.full_shape();
        let mut state = State::zeros(shape);
        state.rho.fill(1.3);
        state.press.fill(0.7);
        let mut rng = Lcg(0x0b5e_55ed);
        for a in [&mut state.a.r, &mut state.a.t, &mut state.a.p] {
            a.data_mut().iter_mut().for_each(|x| *x = rng.below(2001) as f64 / 1000.0 - 1.0);
        }
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut out = State::zeros(shape);
        for kernels in selectors() {
            scratch.kernels = kernels;
            compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut Meters::new());
            assert!(out.press.max_abs_owned() > 0.0, "{kernels:?}: the noise drives no current");
            assert_closed_form(&range, &format!("{kernels:?} η·∂p/∂t"), |i, j, k| {
                let da2: f64 = [&out.a.r, &out.a.t, &out.a.p].iter().map(|a| a.at(i, j, k).powi(2)).sum();
                (params.eta * out.press.at(i, j, k), (params.gamma - 1.0) * da2)
            });
        }
    }

    /// Uniform magnetic field (A = r sinθ φ̂ gives B = 2ẑ): the current j
    /// and hence the Lorentz force and ohmic terms must vanish; A's
    /// tendency must be −ηj ≈ 0 when v = 0.
    #[test]
    fn uniform_field_carries_no_current() {
        let (grid, metric, forces, params) = setup(17);
        let shape = grid.full_shape();
        let mut state = State::zeros(shape);
        // Hydrostatic background for positivity.
        let (rho_prof, p_prof) = hydrostatic_profile(&params, grid.r());
        for k in -1..(shape.nph as isize + 1) {
            for j in -1..(shape.nth as isize + 1) {
                let st = grid.theta().coord_signed(j).sin();
                for i in 0..shape.nr {
                    state.rho.set(i, j, k, rho_prof[i]);
                    state.press.set(i, j, k, p_prof[i]);
                    state.a.p.set(i, j, k, grid.r().coord(i) * st);
                }
            }
        }
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut out = State::zeros(shape);
        let mut meter = Meters::new();
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter);
        // ∂A/∂t = −ηj must be tiny (j = 0 analytically; the sinθ stencil
        // error is O(h²) ≈ 1e-3 at this resolution).
        let j_resid =
            out.a.r.max_abs_owned().max(out.a.t.max_abs_owned()).max(out.a.p.max_abs_owned());
        assert!(j_resid < 1e-4, "j residual {j_resid:.3e}");
    }

    /// Solid-body rotation v = Ω' r sinθ φ̂ about the polar axis is
    /// rigid: the strain, divergence, and viscous force vanish.
    /// Run with gravity, rotation, and pressure terms disabled so only
    /// the flow terms remain, then check the azimuthal momentum tendency
    /// (advection of solid rotation balances the centrifugal-like terms
    /// only in r and θ; the φ component must vanish identically).
    #[test]
    fn solid_body_rotation_has_no_viscous_force() {
        let (grid, metric, _forces, _) = setup(17);
        let mut params = PhysParams::default_laptop();
        params.omega = 0.0;
        params.g0 = 0.0;
        params.mu = 0.0; // pure advection first: exact zeros expected
        params.kappa = 0.0;
        let (_, nthg, nphg) = grid.dims();
        let forces =
            ForceTables::new(&metric, nthg, nphg, 1, 0.0, 0.0, rotation_axis(Panel::Yin));
        let shape = grid.full_shape();
        let mut state = State::zeros(shape);
        for k in -1..(shape.nph as isize + 1) {
            for j in -1..(shape.nth as isize + 1) {
                let st = grid.theta().coord_signed(j).sin();
                for i in 0..shape.nr {
                    let r = grid.r().coord(i);
                    state.rho.set(i, j, k, 1.0);
                    state.press.set(i, j, k, 1.0); // uniform p: no pressure force
                    state.f.p.set(i, j, k, 0.1 * r * st);
                }
            }
        }
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut out = State::zeros(shape);
        let mut meter = Meters::new();
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter);
        // φ-momentum: ∇·(v f)|_φ for solid rotation is identically zero
        // (no φ-dependence, vr = vθ = 0) — exactly, with µ = 0.
        let fp_resid = out.f.p.max_abs_owned();
        assert!(fp_resid < 1e-12, "φ tendency {fp_resid:.3e}");
        // ∇·v = 0 and Φ = 0 for rigid rotation; T uniform → conduction 0.
        assert!(out.press.max_abs_owned() < 1e-12);
        // ρ tendency: ∇·f = 0 for this field.
        assert!(out.rho.max_abs_owned() < 1e-12);

        // With viscosity on, the viscous force on rigid rotation is zero
        // only up to the O(h²) stencil error on sin θ — check smallness.
        params.mu = 2e-3;
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter);
        let fp_visc = out.f.p.max_abs_owned();
        assert!(fp_visc < 1e-5, "viscous residual on rigid rotation {fp_visc:.3e}");
    }

    /// The billed [`KernelTally`] is the kernel *contract* — points ×
    /// the published per-point constants, [`RHS_PASSES_PER_COLUMN`] loops
    /// per column — whichever implementation ran and however the range
    /// was split (deep + shell partial sweeps must bill what one full
    /// sweep bills), plus the tally of the RK4 combine a stage sweep
    /// folds in. The constants themselves are pinned: the ES
    /// projection and the `ci.sh` window gate are functions of them.
    #[test]
    fn flop_accounting_matches_range() {
        assert_eq!(
            (RHS_FLOPS_PER_POINT, RHS_READS_PER_POINT, RHS_WRITES_PER_POINT, RHS_PASSES_PER_COLUMN),
            (640, 17, 12, 11)
        );
        let (grid, metric, forces, params) = setup(9);
        let shape = grid.full_shape();
        let mut state = State::zeros(shape);
        state.rho.fill(1.0);
        state.press.fill(1.0);
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut out = State::zeros(shape);
        let tally = |sweep: &mut dyn FnMut(&mut Meters)| {
            let mut meter = Meters::with_counters(std::sync::Arc::new(
                yy_obs::counters::CounterSet::enabled(),
            ));
            sweep(&mut meter);
            let k = meter.counters().snapshot().get(Kernel::Rhs);
            assert_eq!(meter.flops(), k.flops);
            (k.points, k.loops, k.vector_elements, k.flops, k.bytes_read, k.bytes_written)
        };
        let full = tally(&mut |m| {
            compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, m)
        });
        let (points, columns) = (
            range.points() as u64,
            ((range.j1 - range.j0) * (range.k1 - range.k0)) as u64,
        );
        assert!(points > 0);
        assert_eq!(
            full,
            (points, 11 * columns, 11 * points, 640 * points, 17 * 8 * points, 12 * 8 * points)
        );
        let split = range.split_overlap();
        assert!(split.deep.is_some() && !split.shell.is_empty());
        let parts = tally(&mut |m| {
            for sub in split.all_ranges() {
                let sink = &mut RhsSink::Store(&mut out);
                sweep_rhs(&state, &metric, &forces, &params, &sub, &mut scratch, sink, m);
            }
        });
        // Every box spans the radial extent, so splitting regroups the
        // columns and changes nothing in the accounting, loops included.
        assert_eq!(parts, full);

        // The combine folded into a stage sweep bills the points, flops
        // and vector elements of the separate pass it replaced, over the
        // owned nodes; only the byte model moved (`k` stays in cache).
        let (columns, owned) = ((shape.nth * shape.nph) as u64, shape.owned_len() as u64);
        let mut next = State::zeros(shape);
        assert_eq!(RhsSink::Store(&mut next).combine_tally(), KernelTally::default());
        assert_eq!(
            RhsSink::Stage { acc: &mut out, y0: &state, next: &mut next, b: 0.1, a: 0.1 }
                .combine_tally(),
            KernelTally {
                points: 2 * owned,
                loops: columns,
                vector_elements: owned,
                flops: 32 * owned,
                bytes_read: 2 * 8 * 8 * owned,
                bytes_written: 2 * 8 * 8 * owned,
            }
        );
        assert_eq!(
            RhsSink::Final { acc: &mut out, b: 0.1 }.combine_tally(),
            KernelTally {
                points: owned,
                loops: columns,
                vector_elements: owned,
                flops: 16 * owned,
                bytes_read: 8 * 8 * owned,
                bytes_written: 8 * 8 * owned,
            }
        );
    }

    #[test]
    fn interior_range_for_tile_clips_frame() {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(8, 17, 0.35, 1.0));
        let (_, nth, nph) = grid.dims();
        let d = yy_mesh::Decomp2D::new(2, 2, &grid);
        // Top-left tile touches the j=0 and k=0 frame.
        let t = d.tile(0);
        let r = InteriorRange::for_tile(&grid, &t);
        assert_eq!(r.j0, 1);
        assert_eq!(r.k0, 1);
        assert_eq!(r.j1, t.nth as isize); // interior continues into next tile
        // Bottom-right tile touches the far frames.
        let t3 = d.tile(3);
        let r3 = InteriorRange::for_tile(&grid, &t3);
        assert_eq!(r3.j0, 0);
        assert_eq!(r3.j1 as usize + t3.j0, nth - 1);
        assert_eq!(r3.k1 as usize + t3.k0, nph - 1);
    }

    /// Exhaustively verify that `split_overlap` tiles a range: every node
    /// covered exactly once, every box at full radial height, the deep
    /// interior one column inside every θ/φ edge.
    fn assert_exact_tiling(r: &InteriorRange) {
        let split = r.split_overlap();
        let mut seen = std::collections::HashSet::new();
        for sub in split.all_ranges() {
            // Sub-ranges stay inside the parent.
            assert!(sub.i0 >= r.i0 && sub.i1 <= r.i1, "radial overflow in {sub:?} of {r:?}");
            assert!(sub.j0 >= r.j0 && sub.j1 <= r.j1, "θ overflow in {sub:?} of {r:?}");
            assert!(sub.k0 >= r.k0 && sub.k1 <= r.k1, "φ overflow in {sub:?} of {r:?}");
            for k in sub.k0..sub.k1 {
                for j in sub.j0..sub.j1 {
                    for i in sub.i0..sub.i1 {
                        assert!(
                            seen.insert((i, j, k)),
                            "node ({i},{j},{k}) covered twice splitting {r:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(seen.len(), r.points(), "gap in the tiling of {r:?}");
        for sub in split.all_ranges() {
            assert_eq!((sub.i0, sub.i1), (r.i0, r.i1), "{sub:?} must span the radial extent");
        }
        if let Some(d) = split.deep {
            assert_eq!((d.j0, d.j1), (r.j0 + 1, r.j1 - 1), "deep must clear the θ edges");
            assert_eq!((d.k0, d.k1), (r.k0 + 1, r.k1 - 1), "deep must clear the φ edges");
        }
    }

    /// Deep-interior/boundary-shell split must exactly tile asymmetric
    /// ranges, including thin and degenerate ones.
    #[test]
    fn overlap_split_tiles_asymmetric_ranges() {
        let ranges = [
            InteriorRange { i0: 1, i1: 15, j0: 2, j1: 9, k0: 0, k1: 23 },
            InteriorRange { i0: 1, i1: 7, j0: 0, j1: 3, k0: 1, k1: 4 },
            InteriorRange { i0: 2, i1: 4, j0: -1, j1: 1, k0: 0, k1: 9 }, // thin θ
            InteriorRange { i0: 1, i1: 2, j0: 0, j1: 5, k0: 0, k1: 5 },  // single radial level
            InteriorRange { i0: 1, i1: 15, j0: 3, j1: 4, k0: 2, k1: 3 }, // single column
            InteriorRange { i0: 1, i1: 15, j0: 0, j1: 3, k0: 0, k1: 2 }, // thin φ
            InteriorRange { i0: 3, i1: 3, j0: 0, j1: 4, k0: 0, k1: 4 },  // empty
        ];
        for r in &ranges {
            assert_exact_tiling(r);
        }
    }

    /// The same property on real tile ranges from uneven decompositions
    /// and different halo/frame widths.
    #[test]
    fn overlap_split_tiles_decomposed_tiles() {
        for ext in [1, 2, 3] {
            let grid = PatchGrid::new(
                PatchSpec::equal_spacing(10, 17, 0.35, 1.0).with_ext(ext),
            );
            for (pth, pph) in [(1, 1), (2, 3), (3, 2), (1, 4)] {
                let d = yy_mesh::Decomp2D::new(pth, pph, &grid);
                for rank in 0..pth * pph {
                    let t = d.tile(rank);
                    let r = InteriorRange::for_tile(&grid, &t);
                    assert_exact_tiling(&r);
                    // Sanity: the paper-size direction splits unevenly here,
                    // so at least one decomposition exercises asymmetric tiles.
                }
            }
        }
    }

    /// Minimal LCG so the seeded tests need no external dependencies.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// An initialized state with noise in all eight arrays, so no term of
    /// the RHS vanishes (and no value is −0.0).
    fn noisy_state(grid: &PatchGrid, params: &PhysParams, seed: u64) -> State {
        let mut state = State::zeros(grid.full_shape());
        initialize(&mut state, grid, None, params, &InitOptions::default(), Panel::Yin);
        let mut rng = Lcg(seed);
        let mut noise = move || rng.below(2001) as f64 / 1000.0 - 1.0;
        for x in state.rho.data_mut().iter_mut().chain(state.press.data_mut()) {
            *x *= 1.0 + 0.05 * noise();
        }
        for a in [&mut state.f.r, &mut state.f.t, &mut state.f.p] {
            a.data_mut().iter_mut().for_each(|x| *x = 0.05 * noise());
        }
        for a in [&mut state.a.r, &mut state.a.t, &mut state.a.p] {
            a.data_mut().iter_mut().for_each(|x| *x = 0.3 * noise());
        }
        state
    }

    fn assert_bitwise(a: &State, b: &State, what: &str) {
        for (x, y) in a.arrays().into_iter().zip(b.arrays()) {
            assert!(
                x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits()),
                "{what}: states differ"
            );
        }
    }

    /// The three sweeps a [`RhsKernels`] selects. On a host without AVX2
    /// `Detected` *is* `Baseline`: say so instead of passing silently.
    fn selectors() -> [RhsKernels; 3] {
        if RhsKernels::Detected.label() == RhsKernels::Baseline.label() {
            println!("SKIP: no AVX2 on this host — the wide leg reruns the baseline kernels");
        }
        [RhsKernels::Reference, RhsKernels::Baseline, RhsKernels::Detected]
    }

    /// Both instantiations of the leaf kernels must reproduce the
    /// pre-rewrite reference mega-loop **bit-for-bit** on every code path
    /// a vector loop creates: radial extents below the lane width
    /// (`n < width` skips the vector body), every residue mod 4 (scalar
    /// epilogue of a four-lane loop), and long ones — for whole ranges
    /// starting at different radial offsets and for the deep + shell
    /// boxes of their `split_overlap()`, through all three sinks.
    #[test]
    fn kernel_instantiations_match_reference_over_radial_extents() {
        let (grid, metric, forces, params) = setup_nr(255, 9);
        let shape = grid.full_shape();
        let y0 = noisy_state(&grid, &params, 0x5eed_cafe_f00d_0001);
        let acc0 = noisy_state(&grid, &params, 0x5eed_cafe_f00d_0002);
        let (b, a) = (1.7e-3 / 6.0, 0.85e-3);

        let mut scratch = RhsScratch::new(shape);
        let mut meter = Meters::new();
        // Sweep `boxes` through sink 0 (Store, into `next`), 1 (Stage) or
        // 2 (Final); returns every state the sink may write.
        let mut sweep = |kernels: RhsKernels, sink: usize, boxes: &[InteriorRange]| {
            scratch.kernels = kernels;
            let (mut acc, mut next) = (acc0.clone(), State::zeros(shape));
            for r in boxes {
                let sink = &mut match sink {
                    0 => RhsSink::Store(&mut next),
                    1 => RhsSink::Stage { acc: &mut acc, y0: &y0, next: &mut next, b, a },
                    _ => RhsSink::Final { acc: &mut acc, b },
                };
                sweep_rhs(&y0, &metric, &forces, &params, r, &mut scratch, sink, &mut meter);
            }
            (acc, next)
        };
        let full = InteriorRange::full_panel(&grid);
        let [reference, instantiations @ ..] = selectors();
        for n in [1, 2, 3, 4, 5, 7, 8, 22, 253] {
            let i0 = 1 + (253 - n).min(n % 4);
            let range = InteriorRange { i0, i1: i0 + n, ..full };
            let split = range.split_overlap().all_ranges();
            for sink in 0..3 {
                let (acc_ref, next_ref) = sweep(reference, sink, &[range]);
                if sink == 0 {
                    for x in next_ref.arrays() {
                        assert!(x.data().iter().any(|v| *v != 0.0), "n={n}: a tendency is all zero");
                    }
                }
                for kernels in instantiations {
                    for (boxes, tiling) in [(&[range][..], "whole"), (&split[..], "split")] {
                        let what = format!("n={n} sink {sink} {kernels:?} {tiling}");
                        let (acc, next) = sweep(kernels, sink, boxes);
                        assert_bitwise(&acc, &acc_ref, &format!("{what}: acc"));
                        assert_bitwise(&next, &next_ref, &format!("{what}: next"));
                    }
                }
            }
        }
    }

    /// Runs of θ-adjacent columns must not move a bit, wherever the run
    /// boundaries fall: radial interiors of every length mod 4 (nr 10–13,
    /// 24, 27), θ-widths of one column, two, one run less one, one run,
    /// one run plus one and the full width, so that runs end short, end
    /// exactly and spill one column over — through all three sinks and
    /// both instantiations, against the reference sweep. The wall and
    /// frame nodes of `acc` and `next` are poisoned with a *signalling*
    /// NaN: copies keep its bits, but any arithmetic on it returns it
    /// quieted, so a dropped wall lane that leaks into the flush, or a
    /// swept segment that spills past `i1`, shows even as `acc += b·k`.
    /// The forces take Yang's rotation axis, so Ω varies with φ too.
    #[test]
    fn runs_match_reference_at_every_run_boundary() {
        let poison = f64::from_bits(0x7ff4_dead_beef_0041);
        for nr in [10, 11, 12, 13, 24, 27] {
            let n = nr - 2;
            let m = 1 + RUN_LANES.saturating_sub(n) / nr;
            let (grid, metric, _, params) = setup_nr(nr, m + 1);
            let (_, nthg, nphg) = grid.dims();
            let axis = rotation_axis(Panel::Yang);
            let forces = ForceTables::new(&metric, nthg, nphg, 1, params.g0, params.omega, axis);
            let shape = grid.full_shape();
            let full = InteriorRange::full_panel(&grid);
            let width = (full.j1 - full.j0) as usize;
            assert!(width > m + 1, "nr={nr}: the panel must hold a run and a spill");
            let y0 = noisy_state(&grid, &params, 0x5eed_0000 + nr as u64);
            let mut acc0 = noisy_state(&grid, &params, 0xacc0_0000 + nr as u64);
            let mut next0 = noisy_state(&grid, &params, 0x0e47_0000 + nr as u64);
            // Every allocated node `(i, j, k)` outside `r`.
            let outside = |r: InteriorRange| {
                let (gth, gph) = (shape.gth as isize, shape.gph as isize);
                let ks = -gph..shape.nph as isize + gph;
                let js = move |k| (-gth..shape.nth as isize + gth).map(move |j| (j, k));
                ks.flat_map(js).flat_map(move |(j, k)| (0..nr).map(move |i| (i, j, k))).filter(
                    move |&(i, j, k)| {
                        !((r.i0..r.i1).contains(&i)
                            && (r.j0..r.j1).contains(&j)
                            && (r.k0..r.k1).contains(&k))
                    },
                )
            };
            for state in [&mut acc0, &mut next0] {
                for arr in state.arrays_mut() {
                    outside(full).for_each(|(i, j, k)| arr.set(i, j, k, poison));
                }
            }
            let (b, a) = (1.7e-3 / 6.0, 0.85e-3);
            let mut scratch = RhsScratch::new(shape);
            let mut widths = vec![1, 2, m - 1, m, m + 1, width];
            widths.retain(|&w| w >= 1);
            widths.dedup();
            for w in widths {
                // Three φ columns: a `PHI_BLOCK` band and the next one.
                let (j1, k0, k1) = (full.j0 + w as isize, full.k0 + 1, full.k0 + 4);
                let range = InteriorRange { j1, k0, k1, ..full };
                for sink in 0..3 {
                    let mut sweep = |kernels: RhsKernels| {
                        scratch.kernels = kernels;
                        let (mut acc, mut next) = (acc0.clone(), next0.clone());
                        let sink = &mut match sink {
                            0 => RhsSink::Store(&mut next),
                            1 => RhsSink::Stage { acc: &mut acc, y0: &y0, next: &mut next, b, a },
                            _ => RhsSink::Final { acc: &mut acc, b },
                        };
                        let m = &mut Meters::new();
                        sweep_rhs(&y0, &metric, &forces, &params, &range, &mut scratch, sink, m);
                        (acc, next)
                    };
                    let [reference, instantiations @ ..] = selectors();
                    let (acc_ref, next_ref) = sweep(reference);
                    // Outside the sweep every bit survives; the runs must
                    // then match the reference everywhere.
                    for (after, before) in [(&acc_ref, &acc0), (&next_ref, &next0)] {
                        for (x, x0) in after.arrays().into_iter().zip(before.arrays()) {
                            for (i, j, k) in outside(range) {
                                assert_eq!(
                                    x.at(i, j, k).to_bits(),
                                    x0.at(i, j, k).to_bits(),
                                    "nr={nr} width={w} sink {sink}: ({i},{j},{k}) was written"
                                );
                            }
                        }
                    }
                    for kernels in instantiations {
                        let what = format!("nr={nr} width={w} sink {sink} {kernels:?}");
                        let (acc, next) = sweep(kernels);
                        assert_bitwise(&acc, &acc_ref, &format!("{what}: acc"));
                        assert_bitwise(&next, &next_ref, &format!("{what}: next"));
                    }
                }
            }
        }
    }

    /// Folding the RK4 combine into the sweep must not move a bit: a
    /// `Stage`/`Final` sink ≡ `compute_rhs` + `axpy_and_assign_axpy` /
    /// `axpy`, on **every** node of `acc` and `next` — interior, walls,
    /// frames, padding — once the walls are refreshed the way the drivers
    /// do at the step head. `next` starts as the step-head state with
    /// its interior and walls poisoned: the flush must overwrite exactly
    /// the interior (a missed node stays NaN, a stray write off the range
    /// or a −0.0 flip shows against `y0 + a·0`), and the refresh must
    /// restore the frozen walls the sweep never writes.
    #[test]
    fn sink_flush_matches_unfused_combine_bitwise() {
        for nr in [8, 24, 255] {
            let (grid, metric, forces, params) = setup_nr(nr, 9);
            let shape = grid.full_shape();
            let y0 = noisy_state(&grid, &params, 0x5eed_0000 + nr as u64);
            let acc0 = noisy_state(&grid, &params, 0xacc0_0000 + nr as u64);
            let (b, a) = (1.7e-3 / 6.0, 0.85e-3);
            let range = InteriorRange::full_panel(&grid);
            let mut scratch = RhsScratch::new(shape);
            let m = &mut Meters::new();

            // The unfused oracle.
            let mut k = State::zeros(shape);
            compute_rhs(&y0, &metric, &forces, &params, &range, &mut scratch, &mut k, m);
            let (mut acc_stage, mut acc_final) = (acc0.clone(), acc0.clone());
            let mut next_ref = State::zeros(shape);
            acc_stage.axpy_and_assign_axpy(b, &k, &mut next_ref, &y0, a);
            acc_final.axpy(b, &k);

            let mut poisoned = y0.clone();
            for arr in poisoned.arrays_mut() {
                for k in 0..shape.nph as isize {
                    for j in 0..shape.nth as isize {
                        let (interior_col, row) = (
                            (range.j0..range.j1).contains(&j) && (range.k0..range.k1).contains(&k),
                            arr.row_mut(j, k),
                        );
                        row[0] = f64::NAN;
                        row[nr - 1] = f64::NAN;
                        if interior_col {
                            row[1..nr - 1].fill(f64::NAN);
                        }
                    }
                }
            }

            let split = range.split_overlap().all_ranges();
            assert_eq!(split.len(), 5, "deep + four bands");
            for (boxes, tiling) in [(&[range][..], "full"), (&split[..], "split")] {
                for kernels in selectors() {
                    scratch.kernels = kernels;
                    let what = format!("nr={nr} {tiling} {kernels:?}");
                    let (mut acc, mut next) = (acc0.clone(), poisoned.clone());
                    for r in boxes {
                        let sink =
                            &mut RhsSink::Stage { acc: &mut acc, y0: &y0, next: &mut next, b, a };
                        sweep_rhs(&y0, &metric, &forces, &params, r, &mut scratch, sink, m);
                    }
                    next.copy_walls_from(&y0);
                    assert_bitwise(&acc, &acc_stage, &format!("{what}: Stage acc"));
                    assert_bitwise(&next, &next_ref, &format!("{what}: Stage next"));

                    let mut acc = acc0.clone();
                    for r in boxes {
                        let sink = &mut RhsSink::Final { acc: &mut acc, b };
                        sweep_rhs(&y0, &metric, &forces, &params, r, &mut scratch, sink, m);
                    }
                    assert_bitwise(&acc, &acc_final, &format!("{what}: Final acc"));
                }
            }
        }
    }

    /// φ-chunking must partition a range in sweep order.
    #[test]
    fn phi_chunks_partition_the_range() {
        let r = InteriorRange { i0: 1, i1: 9, j0: 0, j1: 7, k0: 2, k1: 13 };
        for n in [1, 2, 3, 5, 11, 50] {
            let chunks = r.chunks_phi(n);
            assert!(chunks.len() <= n.max(1));
            let mut k = r.k0;
            let mut pts = 0;
            for c in &chunks {
                assert_eq!(c.k0, k, "chunks must be consecutive");
                assert!((c.i0, c.i1, c.j0, c.j1) == (r.i0, r.i1, r.j0, r.j1));
                k = c.k1;
                pts += c.points();
            }
            assert_eq!(k, r.k1);
            assert_eq!(pts, r.points());
        }
    }

    /// Summing partial sweeps over the overlap split must reproduce the
    /// full sweep bit-for-bit, including the flop accounting.
    #[test]
    fn split_sweeps_match_full_sweep_bitwise() {
        let (grid, metric, forces, params) = setup(13);
        let shape = grid.full_shape();
        let mut state = State::zeros(shape);
        initialize(
            &mut state,
            &grid,
            None,
            &params,
            &InitOptions { perturb_amplitude: 1e-2, ..InitOptions::default() },
            Panel::Yin,
        );
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut full = State::zeros(shape);
        let mut meter_full = Meters::new();
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut full, &mut meter_full);

        let split = range.split_overlap();
        let mut parts = State::zeros(shape);
        let mut meter_parts = Meters::new();
        parts.fill_zero();
        // Deep interior first (possibly φ-chunked), then the shell — the
        // order the overlapped driver uses.
        let chunks = split.deep.map(|deep| deep.chunks_phi(3)).unwrap_or_default();
        for sub in chunks.iter().chain(&split.shell) {
            let (sink, m) = (&mut RhsSink::Store(&mut parts), &mut meter_parts);
            sweep_rhs(&state, &metric, &forces, &params, sub, &mut scratch, sink, m);
        }
        assert_eq!(meter_parts.flops(), meter_full.flops(), "split flop accounting must agree");
        for (a, b) in full.arrays().into_iter().zip(parts.arrays()) {
            assert_eq!(a.data(), b.data(), "split sweep must be bit-identical");
        }
    }

    /// Tendencies outside the interior range must be exactly zero (the
    /// RK4 combine relies on it).
    #[test]
    fn rhs_is_zero_outside_interior() {
        let (grid, metric, forces, params) = setup(9);
        let shape = grid.full_shape();
        let mut state = State::zeros(shape);
        state.rho.fill(1.0);
        state.press.fill(1.0);
        state.f.t.fill(0.01);
        let range = InteriorRange::full_panel(&grid);
        let mut scratch = RhsScratch::new(shape);
        let mut out = State::zeros(shape);
        let mut meter = Meters::new();
        compute_rhs(&state, &metric, &forces, &params, &range, &mut scratch, &mut out, &mut meter);
        let (nr, nth, nph) = grid.dims();
        // Radial boundary planes.
        for k in 0..nph as isize {
            for j in 0..nth as isize {
                assert_eq!(out.f.t.at(0, j, k), 0.0);
                assert_eq!(out.f.t.at(nr - 1, j, k), 0.0);
            }
        }
        // Frame columns.
        for k in 0..nph as isize {
            assert_eq!(out.rho.at(2, 0, k), 0.0);
            assert_eq!(out.rho.at(2, nth as isize - 1, k), 0.0);
        }
    }
}
