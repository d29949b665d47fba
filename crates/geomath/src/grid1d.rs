//! Uniform 1-D node grids with ghost extensions.
//!
//! Every mesh dimension in the workspace (radius, colatitude, longitude) is
//! a uniform node-centred grid: `n` owned nodes spanning `[min, max]`
//! inclusive, with `nghost` extra nodes continued at the same spacing on
//! each side for finite-difference halos.

/// A uniform 1-D grid of `n ≥ 2` nodes on `[min, max]`, with `nghost`
/// ghost nodes beyond each end.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid1D {
    n: usize,
    min: f64,
    max: f64,
    d: f64,
    nghost: usize,
}

impl Grid1D {
    /// Build a grid with `n` owned nodes on `[min, max]` and `nghost` ghost
    /// nodes per side.
    ///
    /// # Panics
    /// Panics if `n < 2` or `max <= min`.
    pub fn new(n: usize, min: f64, max: f64, nghost: usize) -> Self {
        assert!(n >= 2, "a Grid1D needs at least two nodes, got {n}");
        assert!(max > min, "degenerate grid extent [{min}, {max}]");
        let d = (max - min) / (n as f64 - 1.0);
        Grid1D { n, min, max, d, nghost }
    }

    /// Number of owned nodes (excluding ghosts).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the grid has no owned nodes — never, by construction;
    /// provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ghost layer width per side.
    #[inline]
    pub fn nghost(&self) -> usize {
        self.nghost
    }

    /// Node spacing.
    #[inline]
    pub fn spacing(&self) -> f64 {
        self.d
    }

    /// First owned coordinate.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Last owned coordinate.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coordinate of owned node `i ∈ [0, n)`.
    ///
    /// The endpoints are returned exactly to keep boundary logic robust.
    #[inline]
    pub fn coord(&self, i: usize) -> f64 {
        debug_assert!(i < self.n);
        if i == 0 {
            self.min
        } else if i == self.n - 1 {
            self.max
        } else {
            self.min + self.d * i as f64
        }
    }

    /// Coordinate of a node in signed index space, where negative indices
    /// and indices `≥ n` address ghost nodes.
    #[inline]
    pub fn coord_signed(&self, i: isize) -> f64 {
        self.min + self.d * i as f64
    }

    /// Locate `x`: returns `(i, frac)` with `x = coord(i) + frac * d`,
    /// `0 ≤ frac < 1`, and `i` clamped to `[0, n − 2]` so that `(i, i + 1)`
    /// is always a valid owned interval. Returns `None` if `x` lies outside
    /// `[min, max]` by more than `tol` (in units of spacing).
    pub fn locate(&self, x: f64, tol: f64) -> Option<(usize, f64)> {
        let s = (x - self.min) / self.d;
        if s < -tol || s > (self.n as f64 - 1.0) + tol {
            return None;
        }
        let s = s.clamp(0.0, self.n as f64 - 1.0);
        let mut i = s.floor() as usize;
        if i >= self.n - 1 {
            i = self.n - 2;
        }
        Some((i, s - i as f64))
    }

    /// `true` iff `x` lies inside the owned span `[min, max]`, up to
    /// `tol` spacings of slack.
    #[inline]
    pub fn contains(&self, x: f64, tol: f64) -> bool {
        x >= self.min - tol * self.d && x <= self.max + tol * self.d
    }

    /// Iterator over the owned node coordinates.
    pub fn coords(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.n).map(move |i| self.coord(i))
    }

    /// A sub-grid of the owned nodes `[start, start + len)` with the same
    /// spacing and ghost width. Used by the domain decomposition: a rank's
    /// tile of the θ or φ dimension.
    pub fn subgrid(&self, start: usize, len: usize) -> Grid1D {
        assert!(len >= 2, "subgrid needs at least two nodes");
        assert!(start + len <= self.n, "subgrid [{start}, {}) out of range", start + len);
        Grid1D {
            n: len,
            min: self.min + self.d * start as f64,
            max: self.min + self.d * (start + len - 1) as f64,
            d: self.d,
            nghost: self.nghost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn coords_and_spacing() {
        let g = Grid1D::new(5, 0.0, 1.0, 2);
        assert_eq!(g.len(), 5);
        assert!(approx_eq(g.spacing(), 0.25, 1e-15));
        assert_eq!(g.coord(0), 0.0);
        assert_eq!(g.coord(4), 1.0);
        assert!(approx_eq(g.coord(2), 0.5, 1e-15));
        assert!(approx_eq(g.coord_signed(-1), -0.25, 1e-15));
        assert!(approx_eq(g.coord_signed(5), 1.25, 1e-15));
    }

    #[test]
    fn locate_interior_and_edges() {
        let g = Grid1D::new(5, 0.0, 1.0, 0);
        let (i, f) = g.locate(0.3, 0.0).unwrap();
        assert_eq!(i, 1);
        assert!(approx_eq(f, 0.2, 1e-12));
        // Exactly on a node.
        let (i, f) = g.locate(0.5, 0.0).unwrap();
        assert_eq!(i, 2);
        assert!(approx_eq(f, 0.0, 1e-12));
        // The right endpoint clamps to the last interval with frac 1.
        let (i, f) = g.locate(1.0, 0.0).unwrap();
        assert_eq!(i, 3);
        assert!(approx_eq(f, 1.0, 1e-12));
        // Out of range.
        assert!(g.locate(1.2, 0.0).is_none());
        assert!(g.locate(-0.1, 0.0).is_none());
        // Tolerance admits slightly-outside points.
        assert!(g.locate(-0.01, 0.1).is_some());
    }

    #[test]
    fn subgrid_preserves_geometry() {
        let g = Grid1D::new(11, 0.0, 1.0, 1);
        let s = g.subgrid(3, 4);
        assert_eq!(s.len(), 4);
        assert!(approx_eq(s.spacing(), g.spacing(), 1e-15));
        assert!(approx_eq(s.min(), 0.3, 1e-12));
        assert!(approx_eq(s.max(), 0.6, 1e-12));
        assert!(approx_eq(s.coord(1), g.coord(4), 1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subgrid_bounds_checked() {
        Grid1D::new(5, 0.0, 1.0, 0).subgrid(3, 4);
    }

    #[test]
    fn contains_with_slack() {
        let g = Grid1D::new(3, -1.0, 1.0, 0);
        assert!(g.contains(0.0, 0.0));
        assert!(g.contains(-1.0, 0.0));
        assert!(!g.contains(1.5, 0.0));
        assert!(g.contains(1.5, 0.6)); // 0.6 spacings of slack = 0.6
    }

    #[test]
    fn coords_iterator_matches_coord() {
        let g = Grid1D::new(7, 2.0, 3.2, 0);
        let v: Vec<f64> = g.coords().collect();
        assert_eq!(v.len(), 7);
        for (i, &x) in v.iter().enumerate() {
            assert!(approx_eq(x, g.coord(i), 1e-15));
        }
    }
}
