//! One Yin-Yang component grid ("patch"), identical for Yin and Yang.
//!
//! The nominal patch spans θ ∈ [π/4, 3π/4] and φ ∈ [−3π/4, 3π/4]. The
//! grid extends `ext` extra cells beyond the nominal span on each
//! horizontal side: the mid-edge points of one nominal patch fall exactly
//! *on* the partner's nominal boundary (see the worked example in
//! `geomath::yinyang`), so without extension the bilinear donors of a
//! boundary node would themselves be boundary nodes. With `ext ≥ 1` every
//! boundary node of one patch lies strictly inside the partner's
//! finite-difference interior. The paper's 514 × 1538 node counts reflect
//! the same construction (512/1536 nominal intervals plus margin).

use geomath::Grid1D;
use std::f64::consts::PI;
use yy_field::Shape;

/// Which component grid a quantity lives on. The paper also calls Yin the
/// "n-grid" and Yang the "e-grid".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Panel {
    /// The "n-grid": the low-latitude band of the geographic coordinates.
    Yin,
    /// The "e-grid": the same band in the complementary coordinates.
    Yang,
}

impl Panel {
    /// The partner panel.
    #[inline]
    pub fn other(self) -> Panel {
        match self {
            Panel::Yin => Panel::Yang,
            Panel::Yang => Panel::Yin,
        }
    }

    /// Panel index: Yin = 0, Yang = 1 (the `MPI_COMM_SPLIT` color).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Panel::Yin => 0,
            Panel::Yang => 1,
        }
    }

    /// Inverse of [`Panel::index`].
    pub fn from_index(i: usize) -> Panel {
        match i {
            0 => Panel::Yin,
            1 => Panel::Yang,
            _ => panic!("panel index {i} out of range"),
        }
    }
}

/// Resolution and extent parameters of a Yin-Yang patch pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchSpec {
    /// Radial node count.
    pub nr: usize,
    /// Nodes across the *nominal* 90° colatitude span (θ = π/4 … 3π/4).
    pub nth_nominal: usize,
    /// Nodes across the *nominal* 270° longitude span.
    pub nph_nominal: usize,
    /// Inner shell radius (paper normalization: ro = 1).
    pub ri: f64,
    /// Outer shell radius.
    pub ro: f64,
    /// Extension cells beyond the nominal span per horizontal side.
    pub ext: usize,
    /// Ghost width for the finite-difference stencil (1 for the paper's
    /// second-order central differences).
    pub halo: usize,
}

impl PatchSpec {
    /// A spec with (approximately) equal angular spacing in θ and φ:
    /// `nph_nominal = 3 (nth_nominal − 1) + 1` since the φ span is three
    /// times the θ span.
    pub fn equal_spacing(nr: usize, nth_nominal: usize, ri: f64, ro: f64) -> Self {
        PatchSpec {
            nr,
            nth_nominal,
            nph_nominal: 3 * (nth_nominal - 1) + 1,
            ri,
            ro,
            ext: 2,
            halo: 1,
        }
    }

    /// Override the extension width.
    pub fn with_ext(mut self, ext: usize) -> Self {
        self.ext = ext;
        self
    }
}

/// The discretized geometry of one component grid.
#[derive(Debug, Clone)]
pub struct PatchGrid {
    spec: PatchSpec,
    r: Grid1D,
    theta: Grid1D,
    phi: Grid1D,
}

impl PatchGrid {
    /// Build the patch for `spec`.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (too few nodes, bad radii) or if
    /// the extended span would reach the coordinate poles (θ ≤ 0), which
    /// would reintroduce exactly the singularity the Yin-Yang grid
    /// removes.
    pub fn new(spec: PatchSpec) -> Self {
        // Volume solvers want ≥ 4 radial nodes (wall + interior + wall);
        // surface problems (transport, shallow water) use thin 2-node
        // shells whose radial direction is inert.
        assert!(spec.nr >= 2, "need at least 2 radial nodes");
        assert!(spec.nth_nominal >= 4 && spec.nph_nominal >= 4, "patch too coarse");
        assert!(spec.ri > 0.0 && spec.ro > spec.ri, "bad shell radii");
        let dth = (PI / 2.0) / (spec.nth_nominal as f64 - 1.0);
        let dph = (3.0 * PI / 2.0) / (spec.nph_nominal as f64 - 1.0);
        let e = spec.ext as f64;
        let th_min = PI / 4.0 - e * dth;
        let th_max = 3.0 * PI / 4.0 + e * dth;
        // Keep a further halo's worth of margin from the poles: ghost
        // nodes of θ-edge tiles must also have sin θ bounded away from 0.
        let pole_margin = (spec.halo as f64 + 0.5) * dth;
        assert!(
            th_min - pole_margin > 0.0 && th_max + pole_margin < PI,
            "extension {} too large: extended span would reach the poles",
            spec.ext
        );
        let ph_min = -3.0 * PI / 4.0 - e * dph;
        let ph_max = 3.0 * PI / 4.0 + e * dph;
        PatchGrid {
            spec,
            r: Grid1D::new(spec.nr, spec.ri, spec.ro, 0),
            theta: Grid1D::new(spec.nth_nominal + 2 * spec.ext, th_min, th_max, spec.halo),
            phi: Grid1D::new(spec.nph_nominal + 2 * spec.ext, ph_min, ph_max, spec.halo),
        }
    }

    /// The spec this grid was built from.
    #[inline]
    pub fn spec(&self) -> PatchSpec {
        self.spec
    }

    /// Radial grid (no ghosts; physical boundaries at its ends).
    #[inline]
    pub fn r(&self) -> &Grid1D {
        &self.r
    }

    /// Colatitude grid (owned nodes include the extension; ghosts = halo).
    #[inline]
    pub fn theta(&self) -> &Grid1D {
        &self.theta
    }

    /// Longitude grid.
    #[inline]
    pub fn phi(&self) -> &Grid1D {
        &self.phi
    }

    /// Total owned node counts `(nr, nθ, nφ)` of the whole panel.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.spec.nr, self.theta.len(), self.phi.len())
    }

    /// Total grid points of the full Yin-Yang pair
    /// (`nr × nθ × nφ × 2`, the number the paper quotes).
    pub fn total_points(&self) -> usize {
        2 * self.spec.nr * self.theta.len() * self.phi.len()
    }

    /// Field shape for the *whole panel* held in one block (serial runs).
    pub fn full_shape(&self) -> Shape {
        Shape::new(self.spec.nr, self.theta.len(), self.phi.len(), self.spec.halo, self.spec.halo)
    }

    /// Width of the overset boundary frame in nodes (equal to the FD
    /// stencil radius = halo width): frame nodes are set by interpolation
    /// from the partner panel, interior nodes by finite differences.
    #[inline]
    pub fn frame(&self) -> usize {
        self.spec.halo
    }

    /// Is global column `(j, k)` (owned indices) part of the overset
    /// boundary frame?
    #[inline]
    pub fn is_frame(&self, j: isize, k: isize) -> bool {
        let f = self.frame() as isize;
        let nth = self.theta.len() as isize;
        let nph = self.phi.len() as isize;
        j < f || j >= nth - f || k < f || k >= nph - f
    }

    /// Is `(θ, φ)` within the *nominal* Yin patch span (used by the
    /// coverage analysis and for choosing which panel's "double solution"
    /// to keep when visualizing)?
    pub fn in_nominal_span(theta: f64, phi: f64) -> bool {
        (PI / 4.0..=3.0 * PI / 4.0).contains(&theta)
            && (-3.0 * PI / 4.0..=3.0 * PI / 4.0).contains(&phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomath::approx_eq;

    fn small() -> PatchGrid {
        PatchGrid::new(PatchSpec::equal_spacing(8, 17, 0.35, 1.0))
    }

    #[test]
    fn equal_spacing_matches_aspect() {
        let g = small();
        assert!(approx_eq(g.theta().spacing(), g.phi().spacing(), 1e-12));
        let (nr, nth, nph) = g.dims();
        assert_eq!(nr, 8);
        assert_eq!(nth, 17 + 4);
        assert_eq!(nph, 49 + 4);
    }

    #[test]
    fn nominal_span_sits_inside_extended_span() {
        let g = small();
        assert!(g.theta().min() < PI / 4.0);
        assert!(g.theta().max() > 3.0 * PI / 4.0);
        assert!(g.phi().min() < -3.0 * PI / 4.0);
        assert!(g.phi().max() > 3.0 * PI / 4.0);
        // Extension is exactly ext cells.
        assert!(approx_eq(PI / 4.0 - g.theta().min(), 2.0 * g.theta().spacing(), 1e-12));
    }

    #[test]
    fn extended_span_stays_clear_of_poles() {
        let g = small();
        let h = g.spec().halo as f64;
        assert!(g.theta().min() - h * g.theta().spacing() > 0.0);
        assert!(g.theta().max() + h * g.theta().spacing() < PI);
    }

    #[test]
    fn frame_classification() {
        let g = small();
        let (_, nth, nph) = g.dims();
        assert!(g.is_frame(0, 10));
        assert!(g.is_frame(nth as isize - 1, 10));
        assert!(g.is_frame(5, 0));
        assert!(g.is_frame(5, nph as isize - 1));
        assert!(!g.is_frame(1, 1));
        assert!(!g.is_frame(nth as isize - 2, nph as isize - 2));
    }

    #[test]
    fn total_points_counts_both_panels() {
        let g = small();
        let (nr, nth, nph) = g.dims();
        assert_eq!(g.total_points(), 2 * nr * nth * nph);
    }

    #[test]
    fn paper_scale_spec_matches_published_grid() {
        // The flagship run: 511 × 514 × 1538 × 2. With ext = 1 applied to
        // 512/1536 nominal node counts we land on the published numbers.
        let spec = PatchSpec {
            nr: 511,
            nth_nominal: 512,
            nph_nominal: 1536,
            ri: 0.35,
            ro: 1.0,
            ext: 1,
            halo: 1,
        };
        let g = PatchGrid::new(spec);
        let (nr, nth, nph) = g.dims();
        assert_eq!((nr, nth, nph), (511, 514, 1538));
        assert_eq!(g.total_points(), 807_923_704); // ≈ 8.1 × 10⁸, as in Table III
    }

    #[test]
    fn panel_enum_round_trips() {
        assert_eq!(Panel::Yin.other(), Panel::Yang);
        assert_eq!(Panel::Yang.other(), Panel::Yin);
        assert_eq!(Panel::from_index(Panel::Yin.index()), Panel::Yin);
        assert_eq!(Panel::from_index(Panel::Yang.index()), Panel::Yang);
    }

    #[test]
    #[should_panic(expected = "poles")]
    fn oversized_extension_panics() {
        PatchGrid::new(PatchSpec::equal_spacing(8, 9, 0.35, 1.0).with_ext(4));
    }

    #[test]
    fn nominal_span_predicate() {
        assert!(PatchGrid::in_nominal_span(PI / 2.0, 0.0));
        assert!(!PatchGrid::in_nominal_span(0.1, 0.0)); // near pole
        assert!(!PatchGrid::in_nominal_span(PI / 2.0, PI)); // far side
    }
}
