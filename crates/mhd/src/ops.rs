//! Second-order central finite-difference stencils in spherical
//! coordinates.
//!
//! The kernels process one `(θ, φ)` column at a time: [`Cols`] borrows the
//! nine radial rows around a column (center, the four edge neighbours and
//! the four corner neighbours) so the inner loop over the radial index is
//! unit-stride — the structure the Earth Simulator vectorized and modern
//! CPUs stream through cache.
//!
//! Index conventions: `j` grows with colatitude θ (towards south), `k`
//! grows with longitude φ (towards east). First derivatives are 2-point
//! centered, second derivatives 3-point, mixed second derivatives 4-point
//! crosses; all are O(h²).

use yy_field::Array3;

/// Precomputed inverse spacings for the stencil formulas.
#[derive(Debug, Clone, Copy)]
pub struct Spacings {
    /// `1 / (2Δr)` — first radial derivative factor.
    pub inv_2dr: f64,
    /// `1 / (2Δθ)`.
    pub inv_2dt: f64,
    /// `1 / (2Δφ)`.
    pub inv_2dp: f64,
    /// `1 / Δr²` — second derivative factor.
    pub inv_dr2: f64,
    /// `1 / Δθ²`.
    pub inv_dt2: f64,
    /// `1 / Δφ²`.
    pub inv_dp2: f64,
    /// `1 / (4ΔrΔθ)` — mixed derivative factor.
    pub inv_4drdt: f64,
    /// `1 / (4ΔrΔφ)`.
    pub inv_4drdp: f64,
    /// `1 / (4ΔθΔφ)`.
    pub inv_4dtdp: f64,
}

impl Spacings {
    /// Precompute all inverse-spacing factors.
    pub fn new(dr: f64, dt: f64, dp: f64) -> Self {
        Spacings {
            inv_2dr: 0.5 / dr,
            inv_2dt: 0.5 / dt,
            inv_2dp: 0.5 / dp,
            inv_dr2: 1.0 / (dr * dr),
            inv_dt2: 1.0 / (dt * dt),
            inv_dp2: 1.0 / (dp * dp),
            inv_4drdt: 0.25 / (dr * dt),
            inv_4drdp: 0.25 / (dr * dp),
            inv_4dtdp: 0.25 / (dt * dp),
        }
    }
}

/// The nine radial rows around column `(j, k)` of one array.
///
/// Naming: `c` center; `n`/`s` = θ∓ (north/south); `w`/`e` = φ∓/φ+
/// (west/east); corners `nw`, `ne`, `sw`, `se`.
pub struct Cols<'a> {
    /// Center row.
    pub c: &'a [f64],
    /// North row (j − 1).
    pub n: &'a [f64],
    /// South row (j + 1).
    pub s: &'a [f64],
    /// West row (k − 1).
    pub w: &'a [f64],
    /// East row (k + 1).
    pub e: &'a [f64],
    /// North-west corner row.
    pub nw: &'a [f64],
    /// North-east corner row.
    pub ne: &'a [f64],
    /// South-west corner row.
    pub sw: &'a [f64],
    /// South-east corner row.
    pub se: &'a [f64],
}

impl<'a> Cols<'a> {
    /// Borrow the stencil rows around `(j, k)`. The column and all eight
    /// neighbours must lie within the padded array.
    #[inline]
    pub fn new(a: &'a Array3, j: isize, k: isize) -> Self {
        Cols {
            c: a.row(j, k),
            n: a.row(j - 1, k),
            s: a.row(j + 1, k),
            w: a.row(j, k - 1),
            e: a.row(j, k + 1),
            nw: a.row(j - 1, k - 1),
            ne: a.row(j - 1, k + 1),
            sw: a.row(j + 1, k - 1),
            se: a.row(j + 1, k + 1),
        }
    }

    /// Reslice every row to the window `[i0−1, i1+1)`, so that stencil
    /// calls at the *local* index `li = i − i0 + 1` (ranging over
    /// `1..=i1−i0`) stay inside nine slices of `i1−i0+2` lanes each.
    /// Requires `i0 ≥ 1` and `i1 + 1 ≤ nr` — the finite-difference
    /// interior always satisfies it. Windowing alone does not make a
    /// radial loop vectorize: see [`Cols::fit`] for what does.
    #[inline]
    pub fn window(&self, i0: usize, i1: usize) -> Cols<'a> {
        self.map(|row| &row[i0 - 1..i1 + 1])
    }

    /// Borrow the nine stencil rows of a *run*: the `lanes` consecutive
    /// nodes from `(i0, j, k)` on, continuing into rows `j+1, j+2, …`
    /// past the end of row `j` ([`yy_field::Shape::idx`] lays
    /// consecutive θ rows end to end). Every row is cut to
    /// `[start−1, start+lanes+1)`, so local index `li` is node `li−1` of
    /// the run with both radial neighbours in the slice. For one column,
    /// `lanes = i1 − i0`, these are the slices of
    /// `Cols::new(a, j, k).window(i0, i1)`. Requires `i0 ≥ 1` and a run
    /// that stops at least one node before the end of its last row.
    #[inline]
    pub fn run(a: &'a Array3, j: isize, k: isize, i0: usize, lanes: usize) -> Self {
        let (data, shape) = (a.data(), a.shape());
        let w = |j: isize, k: isize| &data[shape.idx(i0 - 1, j, k)..][..lanes + 2];
        Cols {
            c: w(j, k),
            n: w(j - 1, k),
            s: w(j + 1, k),
            w: w(j, k - 1),
            e: w(j, k + 1),
            nw: w(j - 1, k - 1),
            ne: w(j - 1, k + 1),
            sw: w(j + 1, k - 1),
            se: w(j + 1, k + 1),
        }
    }

    /// Re-cut every row to its first `len` lanes (panics if a row is
    /// shorter). A no-op on the values; its point is what the optimizer
    /// learns. A leaf kernel that calls this at its top — with `len`
    /// derived from the length of its `&mut [f64]` output parameter —
    /// pins all nine lengths to the one number its loop bound comes
    /// from, inside the function being compiled, so every `row[li±1]`
    /// bounds check folds away. Together with the output being a
    /// parameter (`noalias` against every input row) and the stencil
    /// helpers below being `#[inline(always)]` (a call in the loop body
    /// blocks vectorization outright), that is what lets LLVM emit
    /// packed f64 for the radial loop. Under `lto = "thin"` that
    /// codegen happens at the final link: judge it in the linked
    /// binary (`scripts/check_simd.sh`), not in the rlib's `--emit asm`.
    #[inline(always)]
    pub fn fit(&self, len: usize) -> Cols<'a> {
        self.map(|row| &row[..len])
    }

    /// Apply one re-slicing to all nine rows.
    #[inline(always)]
    fn map(&self, f: impl Fn(&'a [f64]) -> &'a [f64]) -> Cols<'a> {
        Cols {
            c: f(self.c),
            n: f(self.n),
            s: f(self.s),
            w: f(self.w),
            e: f(self.e),
            nw: f(self.nw),
            ne: f(self.ne),
            sw: f(self.sw),
            se: f(self.se),
        }
    }

    /// ∂/∂r at radial index `i` (requires `1 ≤ i ≤ nr−2`).
    #[inline(always)]
    pub fn ddr(&self, i: usize, sp: &Spacings) -> f64 {
        (self.c[i + 1] - self.c[i - 1]) * sp.inv_2dr
    }

    /// ∂/∂θ.
    #[inline(always)]
    pub fn ddt(&self, i: usize, sp: &Spacings) -> f64 {
        (self.s[i] - self.n[i]) * sp.inv_2dt
    }

    /// ∂/∂φ.
    #[inline(always)]
    pub fn ddp(&self, i: usize, sp: &Spacings) -> f64 {
        (self.e[i] - self.w[i]) * sp.inv_2dp
    }

    /// ∂²/∂r².
    #[inline(always)]
    pub fn d2r(&self, i: usize, sp: &Spacings) -> f64 {
        (self.c[i + 1] - 2.0 * self.c[i] + self.c[i - 1]) * sp.inv_dr2
    }

    /// ∂²/∂θ².
    #[inline(always)]
    pub fn d2t(&self, i: usize, sp: &Spacings) -> f64 {
        (self.s[i] - 2.0 * self.c[i] + self.n[i]) * sp.inv_dt2
    }

    /// ∂²/∂φ².
    #[inline(always)]
    pub fn d2p(&self, i: usize, sp: &Spacings) -> f64 {
        (self.e[i] - 2.0 * self.c[i] + self.w[i]) * sp.inv_dp2
    }

    /// ∂²/∂r∂θ (4-point cross).
    #[inline(always)]
    pub fn drt(&self, i: usize, sp: &Spacings) -> f64 {
        ((self.s[i + 1] - self.s[i - 1]) - (self.n[i + 1] - self.n[i - 1])) * sp.inv_4drdt
    }

    /// ∂²/∂r∂φ.
    #[inline(always)]
    pub fn drp(&self, i: usize, sp: &Spacings) -> f64 {
        ((self.e[i + 1] - self.e[i - 1]) - (self.w[i + 1] - self.w[i - 1])) * sp.inv_4drdp
    }

    /// ∂²/∂θ∂φ.
    #[inline(always)]
    pub fn dtp(&self, i: usize, sp: &Spacings) -> f64 {
        ((self.se[i] - self.sw[i]) - (self.ne[i] - self.nw[i])) * sp.inv_4dtdp
    }

    /// Scalar Laplacian in spherical coordinates:
    /// `∇²q = q_rr + (2/r) q_r + (1/r²)(q_θθ + cot θ q_θ) + q_φφ/(r² sin²θ)`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn laplacian(
        &self,
        i: usize,
        sp: &Spacings,
        inv_r: f64,
        inv_sin2: f64,
        cot_t: f64,
    ) -> f64 {
        let inv_r2 = inv_r * inv_r;
        self.d2r(i, sp)
            + 2.0 * inv_r * self.ddr(i, sp)
            + inv_r2 * (self.d2t(i, sp) + cot_t * self.ddt(i, sp))
            + inv_r2 * inv_sin2 * self.d2p(i, sp)
    }
}

/// Geometric factors of one `(θ, φ)` column, evaluated once per column and
/// reused across the radial loop and all fields.
#[derive(Debug, Clone, Copy)]
pub struct ColGeom {
    /// `sin θ` at the column.
    pub sin_t: f64,
    /// `cos θ`.
    pub cos_t: f64,
    /// `cot θ`.
    pub cot_t: f64,
    /// `1 / sin θ`.
    pub inv_sin: f64,
    /// `1 / sin² θ`.
    pub inv_sin2: f64,
    /// `sin θ` at the north (j−1) neighbour column — the metric-weighted
    /// θ-derivatives need it.
    pub sin_n: f64,
    /// `sin θ` at the south (j+1) neighbour column.
    pub sin_s: f64,
}

impl ColGeom {
    /// Evaluate the factors at local column `j` of metric `m`.
    pub fn new(m: &yy_mesh::Metric, j: isize) -> Self {
        let sin_t = m.sin_t(j);
        let inv_sin = 1.0 / sin_t;
        ColGeom {
            sin_t,
            cos_t: m.cos_t(j),
            cot_t: m.cot_t(j),
            inv_sin,
            inv_sin2: inv_sin * inv_sin,
            sin_n: m.sin_t(j - 1),
            sin_s: m.sin_t(j + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_field::Shape;
    use yy_mesh::{Metric, PatchGrid, PatchSpec};

    /// Sample q(r, θ, φ) = r² sin²θ cos φ on a full-panel array.
    fn sample(grid: &PatchGrid) -> Array3 {
        Array3::from_fn(grid.full_shape(), |i, j, k| {
            let r = grid.r().coord(i);
            let t = grid.theta().coord_signed(j);
            let p = grid.phi().coord_signed(k);
            r * r * t.sin().powi(2) * p.cos()
        })
    }

    struct Exact {
        r: f64,
        t: f64,
        p: f64,
    }

    impl Exact {
        // Hand-derived derivatives of q = r² sin²θ cos φ.
        fn ddr(&self) -> f64 {
            2.0 * self.r * self.t.sin().powi(2) * self.p.cos()
        }
        fn ddt(&self) -> f64 {
            self.r * self.r * (2.0 * self.t).sin() * self.p.cos()
        }
        fn ddp(&self) -> f64 {
            -self.r * self.r * self.t.sin().powi(2) * self.p.sin()
        }
        fn d2r(&self) -> f64 {
            2.0 * self.t.sin().powi(2) * self.p.cos()
        }
        fn d2t(&self) -> f64 {
            2.0 * self.r * self.r * (2.0 * self.t).cos() * self.p.cos()
        }
        fn d2p(&self) -> f64 {
            -self.r * self.r * self.t.sin().powi(2) * self.p.cos()
        }
        fn drt(&self) -> f64 {
            2.0 * self.r * (2.0 * self.t).sin() * self.p.cos()
        }
        fn drp(&self) -> f64 {
            -2.0 * self.r * self.t.sin().powi(2) * self.p.sin()
        }
        fn dtp(&self) -> f64 {
            -self.r * self.r * (2.0 * self.t).sin() * self.p.sin()
        }
        /// ∇²q = 6 sin²θ cosφ + (2cos²θ + 2cos2θ) cosφ − cosφ
        /// (radial + colatitude + longitude parts, hand-derived).
        fn laplacian(&self) -> f64 {
            let cp = self.p.cos();
            let radial = 6.0 * self.t.sin().powi(2) * cp;
            let colat = (2.0 * self.t.cos().powi(2) + 2.0 * (2.0 * self.t).cos()) * cp;
            let lon = -cp;
            radial + colat + lon
        }
    }

    fn max_errors(nth: usize) -> [f64; 10] {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(nth, nth, 0.35, 1.0));
        let q = sample(&grid);
        let m = Metric::full(&grid);
        let sp = Spacings::new(m.dr, m.dth, m.dph);
        let (nr, nthg, nphg) = grid.dims();
        let mut errs = [0.0_f64; 10];
        for j in 1..(nthg as isize - 1) {
            for k in 1..(nphg as isize - 1) {
                let cols = Cols::new(&q, j, k);
                let geom = ColGeom::new(&m, j);
                for i in 1..nr - 1 {
                    let ex = Exact { r: m.r[i], t: m.theta(j), p: m.phi(k) };
                    let inv_r = m.inv_r[i];
                    let got = [
                        cols.ddr(i, &sp),
                        cols.ddt(i, &sp),
                        cols.ddp(i, &sp),
                        cols.d2r(i, &sp),
                        cols.d2t(i, &sp),
                        cols.d2p(i, &sp),
                        cols.drt(i, &sp),
                        cols.drp(i, &sp),
                        cols.dtp(i, &sp),
                        cols.laplacian(i, &sp, inv_r, geom.inv_sin2, geom.cot_t),
                    ];
                    let exact = [
                        ex.ddr(),
                        ex.ddt(),
                        ex.ddp(),
                        ex.d2r(),
                        ex.d2t(),
                        ex.d2p(),
                        ex.drt(),
                        ex.drp(),
                        ex.dtp(),
                        ex.laplacian(),
                    ];
                    for (e, (g, x)) in errs.iter_mut().zip(got.iter().zip(exact)) {
                        *e = e.max((g - x).abs());
                    }
                }
            }
        }
        errs
    }

    #[test]
    fn all_stencils_converge_second_order() {
        let e1 = max_errors(9);
        let e2 = max_errors(17);
        let names = [
            "ddr", "ddt", "ddp", "d2r", "d2t", "d2p", "drt", "drp", "dtp", "laplacian",
        ];
        for idx in 0..10 {
            // Radial derivatives of r² are exact for 2nd-order stencils, so
            // allow either tiny absolute error or ≥ 1.7 convergence rate.
            if e2[idx] < 1e-10 {
                continue;
            }
            let rate = (e1[idx] / e2[idx]).log2();
            assert!(
                rate > 1.7,
                "{}: rate {rate:.2} (errors {:.3e} → {:.3e})",
                names[idx],
                e1[idx],
                e2[idx]
            );
        }
    }

    #[test]
    fn radial_stencils_are_exact_for_quadratics() {
        // Central differences reproduce polynomials of degree ≤ 2 exactly.
        let shape = Shape::new(8, 3, 3, 1, 1);
        let dr = 0.1;
        let a = Array3::from_fn(shape, |i, _, _| {
            let r = i as f64 * dr;
            3.0 * r * r - 2.0 * r + 1.0
        });
        let sp = Spacings::new(dr, 1.0, 1.0);
        let cols = Cols::new(&a, 1, 1);
        for i in 1..7 {
            let r = i as f64 * dr;
            assert!((cols.ddr(i, &sp) - (6.0 * r - 2.0)).abs() < 1e-12);
            assert!((cols.d2r(i, &sp) - 6.0).abs() < 1e-10);
        }
    }

    #[test]
    fn mixed_stencil_is_exact_for_bilinear() {
        let shape = Shape::new(4, 4, 4, 1, 1);
        let (dt, dp) = (0.2, 0.3);
        let a = Array3::from_fn(shape, |_, j, k| (j as f64 * dt) * (k as f64 * dp) * 5.0);
        let sp = Spacings::new(1.0, dt, dp);
        let cols = Cols::new(&a, 1, 1);
        for i in 0..4 {
            assert!((cols.dtp(i, &sp) - 5.0).abs() < 1e-12);
        }
    }

    /// A windowed `Cols` must reproduce every stencil of the unwindowed
    /// one bit-for-bit at the shifted local index — the fused RHS kernel
    /// relies on this identity for its bit-exactness guarantee.
    #[test]
    fn windowed_stencils_are_bit_identical() {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(13, 11, 0.35, 1.0));
        let q = sample(&grid);
        let m = Metric::full(&grid);
        let sp = Spacings::new(m.dr, m.dth, m.dph);
        let (nr, nthg, nphg) = grid.dims();
        for (i0, i1) in [(1, nr - 1), (1, 2), (3, 7), (nr - 4, nr - 1)] {
            for j in 1..(nthg as isize - 1) {
                for k in 1..(nphg as isize - 1) {
                    let cols = Cols::new(&q, j, k);
                    let geom = ColGeom::new(&m, j);
                    let win = cols.window(i0, i1);
                    let run = Cols::run(&q, j, k, i0, i1 - i0);
                    for (a, b) in [(win.c, run.c), (win.n, run.n), (win.se, run.se)] {
                        assert!(std::ptr::eq(a, b), "a one-column run is the window");
                    }
                    for i in i0..i1 {
                        let li = i - i0 + 1;
                        assert_eq!(cols.ddr(i, &sp), win.ddr(li, &sp));
                        assert_eq!(cols.ddt(i, &sp), win.ddt(li, &sp));
                        assert_eq!(cols.ddp(i, &sp), win.ddp(li, &sp));
                        assert_eq!(cols.d2r(i, &sp), win.d2r(li, &sp));
                        assert_eq!(cols.d2t(i, &sp), win.d2t(li, &sp));
                        assert_eq!(cols.d2p(i, &sp), win.d2p(li, &sp));
                        assert_eq!(cols.drt(i, &sp), win.drt(li, &sp));
                        assert_eq!(cols.drp(i, &sp), win.drp(li, &sp));
                        assert_eq!(cols.dtp(i, &sp), win.dtp(li, &sp));
                        assert_eq!(
                            cols.laplacian(i, &sp, m.inv_r[i], geom.inv_sin2, geom.cot_t),
                            win.laplacian(li, &sp, m.inv_r[i], geom.inv_sin2, geom.cot_t),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn col_geom_matches_metric() {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(6, 13, 0.35, 1.0));
        let m = Metric::full(&grid);
        let g = ColGeom::new(&m, 3);
        assert!((g.sin_t - m.sin_t(3)).abs() < 1e-15);
        assert!((g.cot_t * g.sin_t - g.cos_t).abs() < 1e-14);
        assert!((g.inv_sin2 * g.sin_t * g.sin_t - 1.0).abs() < 1e-13);
        assert!((g.sin_n - m.sin_t(2)).abs() < 1e-15);
        assert!((g.sin_s - m.sin_t(4)).abs() < 1e-15);
    }
}
