//! The core 3-D array type with θ/φ ghost layers and radial unit stride.

/// Logical shape of a patch-local field.
///
/// `nr × nth × nph` are the *owned* node counts; `gth`/`gph` are the ghost
/// widths per side in colatitude/longitude. The radial dimension carries no
/// ghosts (it is never decomposed and physical boundaries live on its end
/// planes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Radial node count (no ghosts).
    pub nr: usize,
    /// Owned colatitude node count.
    pub nth: usize,
    /// Owned longitude node count.
    pub nph: usize,
    /// Ghost width per side in colatitude.
    pub gth: usize,
    /// Ghost width per side in longitude.
    pub gph: usize,
}

impl Shape {
    /// Construct a shape from owned extents and ghost widths.
    pub const fn new(nr: usize, nth: usize, nph: usize, gth: usize, gph: usize) -> Self {
        Shape { nr, nth, nph, gth, gph }
    }

    /// Padded colatitude extent `nth + 2 gth`.
    #[inline]
    pub const fn nth_pad(&self) -> usize {
        self.nth + 2 * self.gth
    }

    /// Padded longitude extent `nph + 2 gph`.
    #[inline]
    pub const fn nph_pad(&self) -> usize {
        self.nph + 2 * self.gph
    }

    /// Total allocated length.
    #[inline]
    pub const fn len(&self) -> usize {
        self.nr * self.nth_pad() * self.nph_pad()
    }

    /// `true` iff any dimension is zero (never for valid shapes).
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owned node count `nr * nth * nph` (ghosts excluded).
    #[inline]
    pub const fn owned_len(&self) -> usize {
        self.nr * self.nth * self.nph
    }

    /// Flat index of `(i, j, k)` where `j ∈ [−gth, nth + gth)` and
    /// `k ∈ [−gph, nph + gph)` are *owned-relative* signed indices
    /// (0 is the first owned node; negatives address ghosts).
    #[inline]
    pub fn idx(&self, i: usize, j: isize, k: isize) -> usize {
        debug_assert!(i < self.nr, "radial index {i} out of range {}", self.nr);
        debug_assert!(
            j >= -(self.gth as isize) && j < (self.nth + self.gth) as isize,
            "colatitude index {j} out of range"
        );
        debug_assert!(
            k >= -(self.gph as isize) && k < (self.nph + self.gph) as isize,
            "longitude index {k} out of range"
        );
        let jp = (j + self.gth as isize) as usize;
        let kp = (k + self.gph as isize) as usize;
        (kp * self.nth_pad() + jp) * self.nr + i
    }
}

/// A dense 3-D array of `f64` with the [`Shape`] layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Array3 {
    shape: Shape,
    data: Vec<f64>,
}

impl Array3 {
    /// Zero-initialized array.
    pub fn zeros(shape: Shape) -> Self {
        Array3 { shape, data: vec![0.0; shape.len()] }
    }

    /// Constant-filled array.
    pub fn filled(shape: Shape, value: f64) -> Self {
        Array3 { shape, data: vec![value; shape.len()] }
    }

    /// Take `data` as the storage of `shape` (laid out as [`Shape::idx`]
    /// indexes it).
    ///
    /// # Panics
    /// If `data` does not hold exactly `shape.len()` values.
    pub fn from_vec(shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), shape.len(), "storage length does not match {shape:?}");
        Array3 { shape, data }
    }

    /// Build from a function of owned-relative indices `(i, j, k)`,
    /// evaluated over the **whole padded range** including ghosts.
    pub fn from_fn<F: FnMut(usize, isize, isize) -> f64>(shape: Shape, mut f: F) -> Self {
        let mut a = Array3::zeros(shape);
        let (gth, gph) = (shape.gth as isize, shape.gph as isize);
        for k in -gph..(shape.nph as isize + gph) {
            for j in -gth..(shape.nth as isize + gth) {
                for i in 0..shape.nr {
                    let idx = shape.idx(i, j, k);
                    a.data[idx] = f(i, j, k);
                }
            }
        }
        a
    }

    /// The array's shape descriptor.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Read the node `(i, j, k)` (owned-relative signed `j`, `k`).
    #[inline]
    pub fn at(&self, i: usize, j: isize, k: isize) -> f64 {
        self.data[self.shape.idx(i, j, k)]
    }

    /// Write the node `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: isize, k: isize, v: f64) {
        let idx = self.shape.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Raw storage (for kernels that index manually with [`Shape::idx`]).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Contiguous radial row at `(j, k)`.
    #[inline]
    pub fn row(&self, j: isize, k: isize) -> &[f64] {
        let base = self.shape.idx(0, j, k);
        &self.data[base..base + self.shape.nr]
    }

    /// Mutable contiguous radial row at `(j, k)`.
    #[inline]
    pub fn row_mut(&mut self, j: isize, k: isize) -> &mut [f64] {
        let base = self.shape.idx(0, j, k);
        &mut self.data[base..base + self.shape.nr]
    }

    /// Set every element (ghosts included) to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self ← self + c * other`, over the full padded storage.
    ///
    /// Used by the RK4 update; shapes must match.
    pub fn axpy(&mut self, c: f64, other: &Array3) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// `self ← other + c * delta` (RK4 stage state construction).
    pub fn assign_axpy(&mut self, other: &Array3, c: f64, delta: &Array3) {
        assert_eq!(self.shape, other.shape, "assign_axpy shape mismatch");
        assert_eq!(self.shape, delta.shape, "assign_axpy shape mismatch");
        for ((dst, a), d) in self.data.iter_mut().zip(&other.data).zip(&delta.data) {
            *dst = a + c * d;
        }
    }

    /// Fused RK4 combine: `self ← self + a·delta` **and**
    /// `stage ← base + c·delta` in one traversal. The arithmetic per
    /// element is exactly [`Array3::axpy`] followed by
    /// [`Array3::assign_axpy`] (bit-identical), but `delta` streams
    /// through cache once instead of twice — the RK4 combine is purely
    /// memory-bound, so halving its dominant stream matters.
    pub fn axpy_and_assign_axpy(
        &mut self,
        a: f64,
        delta: &Array3,
        stage: &mut Array3,
        base: &Array3,
        c: f64,
    ) {
        assert_eq!(self.shape, delta.shape, "axpy_and_assign_axpy shape mismatch");
        assert_eq!(self.shape, stage.shape, "axpy_and_assign_axpy shape mismatch");
        assert_eq!(self.shape, base.shape, "axpy_and_assign_axpy shape mismatch");
        for (((acc, s), b), d) in self
            .data
            .iter_mut()
            .zip(stage.data.iter_mut())
            .zip(&base.data)
            .zip(&delta.data)
        {
            *acc += a * d;
            *s = b + c * d;
        }
    }

    /// Copy all storage from `other` (shapes must match).
    pub fn copy_from(&mut self, other: &Array3) {
        assert_eq!(self.shape, other.shape, "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Maximum of `|self|` over the **owned** region.
    pub fn max_abs_owned(&self) -> f64 {
        let mut m: f64 = 0.0;
        for k in 0..self.shape.nph as isize {
            for j in 0..self.shape.nth as isize {
                for &v in self.row(j, k) {
                    m = m.max(v.abs());
                }
            }
        }
        m
    }

    /// Minimum over the **owned** region (`+∞` for an empty one; NaNs
    /// are skipped, as by [`f64::min`]).
    ///
    /// Eight independent accumulators, folded at the end: one running
    /// `m = m.min(v)` is a 4-cycle `minsd` dependency per element, and
    /// the per-step health and CFL scans spent more on two of those
    /// chains than on everything else they do. `min` is order-free, so
    /// the result is the sequential one.
    pub fn min_owned(&self) -> f64 {
        let mut m = [f64::INFINITY; 8];
        for k in 0..self.shape.nph as isize {
            for j in 0..self.shape.nth as isize {
                let mut chunks = self.row(j, k).chunks_exact(8);
                for c in &mut chunks {
                    for (m, &v) in m.iter_mut().zip(c) {
                        *m = m.min(v);
                    }
                }
                for &v in chunks.remainder() {
                    m[0] = m[0].min(v);
                }
            }
        }
        m.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// `true` iff any element (owned or ghost) is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Shape {
        Shape::new(4, 3, 5, 1, 2)
    }

    #[test]
    fn shape_arithmetic() {
        let s = small();
        assert_eq!(s.nth_pad(), 5);
        assert_eq!(s.nph_pad(), 9);
        assert_eq!(s.len(), 4 * 5 * 9);
        assert_eq!(s.owned_len(), 60);
        assert!(!s.is_empty());
    }

    #[test]
    fn idx_is_bijective_over_padded_range() {
        let s = small();
        let mut seen = vec![false; s.len()];
        for k in -2..7_isize {
            for j in -1..4_isize {
                for i in 0..4 {
                    let idx = s.idx(i, j, k);
                    assert!(!seen[idx], "duplicate index at ({i},{j},{k})");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn radial_rows_are_contiguous() {
        let s = small();
        assert_eq!(s.idx(1, 0, 0), s.idx(0, 0, 0) + 1);
        assert_eq!(s.idx(3, 2, -1), s.idx(0, 2, -1) + 3);
    }

    #[test]
    fn get_set_round_trip_including_ghosts() {
        let mut a = Array3::zeros(small());
        a.set(2, -1, 6, 7.5);
        a.set(0, 0, 0, -1.0);
        assert_eq!(a.at(2, -1, 6), 7.5);
        assert_eq!(a.at(0, 0, 0), -1.0);
        assert_eq!(a.at(3, 2, 4), 0.0);
    }

    #[test]
    fn from_fn_covers_ghosts() {
        let a = Array3::from_fn(small(), |i, j, k| i as f64 + 10.0 * j as f64 + 100.0 * k as f64);
        assert_eq!(a.at(1, -1, -2), 1.0 - 10.0 - 200.0);
        assert_eq!(a.at(3, 3, 6), 3.0 + 30.0 + 600.0);
    }

    #[test]
    fn axpy_and_assign_axpy() {
        let s = small();
        let mut a = Array3::filled(s, 1.0);
        let b = Array3::filled(s, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.at(0, 0, 0), 2.0);
        let mut c = Array3::zeros(s);
        c.assign_axpy(&a, -1.0, &b);
        assert_eq!(c.at(1, 1, 1), 0.0);
    }

    #[test]
    fn row_accessors_match_at() {
        let a = Array3::from_fn(small(), |i, j, k| (i + 7) as f64 * (j + 2) as f64 + k as f64);
        let row = a.row(1, 3);
        assert_eq!(row.len(), 4);
        for (i, &v) in row.iter().enumerate() {
            assert_eq!(v, a.at(i, 1, 3));
        }
    }

    #[test]
    fn max_abs_ignores_ghosts() {
        let mut a = Array3::zeros(small());
        a.set(0, -1, 0, 100.0); // ghost
        a.set(1, 1, 1, -3.0); // owned
        assert_eq!(a.max_abs_owned(), 3.0);
    }

    /// `min_owned` ≡ the sequential `m = m.min(v)` scan over owned rows:
    /// row lengths on both sides of the eight-lane chunking, the minimum
    /// planted at every radial position in turn, ghosts and NaNs ignored.
    #[test]
    fn min_owned_matches_sequential_scan() {
        for nr in [1, 3, 7, 8, 9, 16, 21] {
            let shape = Shape::new(nr, 3, 2, 1, 1);
            for at in 0..nr {
                let mut a = Array3::from_fn(shape, |i, j, k| {
                    2.0 + (i as isize * 7 + j * 3 + k).rem_euclid(5) as f64
                });
                a.set(at, 2, 1, -4.5); // owned minimum
                a.set(0, -1, 0, -100.0); // ghost
                a.set((at + 1) % nr, 0, 0, f64::NAN);
                let mut seq = f64::INFINITY;
                for k in 0..2 {
                    for j in 0..3 {
                        for &v in a.row(j, k) {
                            seq = seq.min(v);
                        }
                    }
                }
                assert_eq!(seq, -4.5);
                assert_eq!(a.min_owned().to_bits(), seq.to_bits(), "nr={nr} at={at}");
            }
        }
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Array3::zeros(small());
        assert!(!a.has_non_finite());
        a.set(0, 0, 0, f64::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn axpy_rejects_shape_mismatch() {
        let mut a = Array3::zeros(small());
        let b = Array3::zeros(Shape::new(4, 3, 5, 1, 1));
        a.axpy(1.0, &b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_range_ghost_index_panics_in_debug() {
        let a = Array3::zeros(small());
        let _ = a.at(0, -2, 0); // gth = 1, so -2 is out of range
    }
}
