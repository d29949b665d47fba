//! 2-D block decomposition of a panel over ranks.
//!
//! The paper decomposes each panel over a `Pθ × Pφ` Cartesian process
//! array (`MPI_CART_CREATE`); the radial dimension stays whole on every
//! rank (it is the vectorized dimension). Blocks are contiguous node
//! ranges whose sizes differ by at most one.

use crate::patch::PatchGrid;
use yy_field::Shape;

/// Contiguous block `idx` of `n` items split into `parts` blocks:
/// returns `(start, len)`. Earlier blocks get the extra items.
pub fn block_range(n: usize, parts: usize, idx: usize) -> (usize, usize) {
    assert!(parts >= 1 && idx < parts, "block {idx} of {parts}");
    assert!(n >= parts, "cannot split {n} items into {parts} non-empty blocks");
    let base = n / parts;
    let extra = n % parts;
    if idx < extra {
        ((base + 1) * idx, base + 1)
    } else {
        (extra * (base + 1) + (idx - extra) * base, base)
    }
}

/// Which block owns item `g` under the [`block_range`] layout.
pub fn owner_of(n: usize, parts: usize, g: usize) -> usize {
    assert!(g < n);
    let base = n / parts;
    let extra = n % parts;
    let boundary = extra * (base + 1);
    if g < boundary {
        g / (base + 1)
    } else {
        extra + (g - boundary) / base
    }
}

/// Narrowest tile either axis may be cut to: one interior node per halo
/// side.
pub const MIN_TILE_WIDTH: usize = 2;

/// The (θ, φ) process-grid decomposition of one panel.
///
/// Blocks follow the [`block_range`] layout on both axes. `tile` and
/// `owner` are mutually inverse — routing, gathering, and checkpoint
/// restore all lean on that invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomp2D {
    /// Process count along colatitude.
    pub pth: usize,
    /// Process count along longitude.
    pub pph: usize,
    /// Global owned colatitude node count being decomposed.
    pub nth: usize,
    /// Global owned longitude node count.
    pub nph: usize,
}

impl Decomp2D {
    /// Decompose `grid`'s horizontal plane over a `pth × pph` process
    /// array with near-equal node counts.
    pub fn new(pth: usize, pph: usize, grid: &PatchGrid) -> Self {
        let (_, nth, nph) = grid.dims();
        assert!(
            nth >= MIN_TILE_WIDTH * pth && nph >= MIN_TILE_WIDTH * pph,
            "tiles would be thinner than 2 nodes"
        );
        Decomp2D { pth, pph, nth, nph }
    }

    /// Number of tiles (= panel communicator size).
    pub fn tiles(&self) -> usize {
        self.pth * self.pph
    }

    /// The tile of panel-rank `rank` (row-major over `(θ, φ)`, matching
    /// `CartComm`'s coordinate convention).
    pub fn tile(&self, rank: usize) -> Tile {
        assert!(rank < self.tiles());
        let cth = rank / self.pph;
        let cph = rank % self.pph;
        let (j0, nth) = block_range(self.nth, self.pth, cth);
        let (k0, nph) = block_range(self.nph, self.pph, cph);
        Tile { rank, cth, cph, j0, nth, k0, nph }
    }

    /// Panel-rank owning global column `(j, k)`.
    pub fn owner(&self, j: usize, k: usize) -> usize {
        owner_of(self.nth, self.pth, j) * self.pph + owner_of(self.nph, self.pph, k)
    }

    /// Predicted load imbalance of this layout: the largest tile's node
    /// count over the mean tile's (1.0 = perfectly balanced; a parallel
    /// run's achieved imbalance is the same ratio over measured per-rank
    /// compute time).
    pub fn predicted_imbalance(&self) -> f64 {
        // The first block of each axis is a widest one.
        let largest = block_range(self.nth, self.pth, 0).1 * block_range(self.nph, self.pph, 0).1;
        let mean = (self.nth * self.nph) as f64 / self.tiles() as f64;
        largest as f64 / mean
    }
}

/// One rank's tile: a rectangle of globally-indexed columns, radially
/// whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Panel rank.
    pub rank: usize,
    /// Process-grid coordinate along colatitude.
    pub cth: usize,
    /// Process-grid coordinate along longitude.
    pub cph: usize,
    /// First owned global θ index.
    pub j0: usize,
    /// Owned colatitude node count.
    pub nth: usize,
    /// First owned global φ index.
    pub k0: usize,
    /// Owned longitude node count.
    pub nph: usize,
}

impl Tile {
    /// Local field shape (radial size from `grid`, halos from the spec).
    pub fn shape(&self, grid: &PatchGrid) -> Shape {
        let spec = grid.spec();
        Shape::new(spec.nr, self.nth, self.nph, spec.halo, spec.halo)
    }

    /// Convert a global column index to tile-local signed indices
    /// (`0` = first owned node; negatives = ghosts).
    #[inline]
    pub fn to_local(&self, j: usize, k: usize) -> (isize, isize) {
        (j as isize - self.j0 as isize, k as isize - self.k0 as isize)
    }

    /// Does the *padded* tile (owned + `halo` ghosts) contain global
    /// column `(j, k)`?
    pub fn contains_padded(&self, j: isize, k: isize, halo: usize) -> bool {
        let h = halo as isize;
        j >= self.j0 as isize - h
            && j < (self.j0 + self.nth) as isize + h
            && k >= self.k0 as isize - h
            && k < (self.k0 + self.nph) as isize + h
    }

    /// Does the owned tile contain global column `(j, k)`?
    pub fn contains(&self, j: usize, k: usize) -> bool {
        j >= self.j0 && j < self.j0 + self.nth && k >= self.k0 && k < self.k0 + self.nph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patch::PatchSpec;

    #[test]
    fn block_ranges_tile_exactly() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (16, 4), (13, 5)] {
            let mut covered = 0;
            for idx in 0..p {
                let (s, l) = block_range(n, p, idx);
                assert_eq!(s, covered, "blocks must be contiguous");
                assert!(l >= n / p && l <= n / p + 1);
                covered += l;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn owner_is_inverse_of_block_range() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (16, 4), (13, 5), (514, 8)] {
            for idx in 0..p {
                let (s, l) = block_range(n, p, idx);
                for g in s..s + l {
                    assert_eq!(owner_of(n, p, g), idx, "n={n} p={p} g={g}");
                }
            }
        }
    }

    fn grid() -> PatchGrid {
        PatchGrid::new(PatchSpec::equal_spacing(8, 17, 0.35, 1.0))
    }

    #[test]
    fn decomp_tiles_cover_panel() {
        let g = grid();
        let d = Decomp2D::new(3, 4, &g);
        assert_eq!(d.tiles(), 12);
        let (_, nth, nph) = g.dims();
        let mut hit = vec![false; nth * nph];
        for r in 0..d.tiles() {
            let t = d.tile(r);
            assert_eq!(t.rank, r);
            for j in t.j0..t.j0 + t.nth {
                for k in t.k0..t.k0 + t.nph {
                    assert!(!hit[j * nph + k], "column ({j},{k}) owned twice");
                    hit[j * nph + k] = true;
                    assert_eq!(d.owner(j, k), r);
                    assert!(t.contains(j, k));
                }
            }
        }
        assert!(hit.iter().all(|&b| b));
    }

    #[test]
    fn tile_local_indexing() {
        let g = grid();
        let d = Decomp2D::new(2, 2, &g);
        let t = d.tile(3); // bottom-right tile
        let (lj, lk) = t.to_local(t.j0, t.k0);
        assert_eq!((lj, lk), (0, 0));
        let (lj, lk) = t.to_local(t.j0 + 2, t.k0 + 5);
        assert_eq!((lj, lk), (2, 5));
    }

    #[test]
    fn contains_padded_extends_by_halo() {
        let g = grid();
        let d = Decomp2D::new(2, 2, &g);
        let t = d.tile(0);
        let edge_j = (t.j0 + t.nth) as isize;
        assert!(!t.contains(edge_j as usize, t.k0));
        assert!(t.contains_padded(edge_j, t.k0 as isize, 1));
        assert!(!t.contains_padded(edge_j + 1, t.k0 as isize, 1));
        assert!(t.contains_padded(t.j0 as isize - 1, t.k0 as isize, 1));
    }

    #[test]
    fn tile_shape_matches_patch_halo() {
        let g = grid();
        let d = Decomp2D::new(2, 3, &g);
        let t = d.tile(4);
        let s = t.shape(&g);
        assert_eq!(s.nr, 8);
        assert_eq!(s.nth, t.nth);
        assert_eq!(s.nph, t.nph);
        assert_eq!(s.gth, 1);
        assert_eq!(s.gph, 1);
    }

    #[test]
    #[should_panic(expected = "thinner")]
    fn overdecomposition_panics() {
        let g = grid();
        Decomp2D::new(11, 1, &g);
    }

    #[test]
    fn uniform_constructor_reproduces_block_range_layout() {
        let g = grid();
        let d = Decomp2D::new(3, 4, &g);
        for r in 0..d.tiles() {
            let t = d.tile(r);
            assert_eq!((t.j0, t.nth), block_range(d.nth, 3, t.cth));
            assert_eq!((t.k0, t.nph), block_range(d.nph, 4, t.cph));
        }
    }

    #[test]
    fn predicted_imbalance_is_largest_tile_over_mean() {
        // The default 16×13 grid owns 17 × 41 columns per panel.
        let g = PatchGrid::new(PatchSpec::equal_spacing(16, 13, 0.35, 1.0));
        assert_eq!(Decomp2D::new(1, 1, &g).predicted_imbalance(), 1.0);
        // 2×2 cuts them 9+8 × 21+20: 189 nodes against a mean of 174.25.
        let imb = Decomp2D::new(2, 2, &g).predicted_imbalance();
        assert_eq!(imb, 189.0 / 174.25);
        assert_eq!(format!("{imb:.4}"), "1.0846");
    }
}
