//! The simulation state: the eight basic variables of the paper.

use yy_field::{Array3, Shape, VectorField};

/// The basic variables: ρ, p, mass flux f = ρv, vector potential A.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// Mass density ρ.
    pub rho: Array3,
    /// Pressure p.
    pub press: Array3,
    /// Mass flux density f = ρv.
    pub f: VectorField,
    /// Magnetic vector potential A.
    pub a: VectorField,
}

impl State {
    /// Zero-initialized state.
    pub fn zeros(shape: Shape) -> Self {
        State {
            rho: Array3::zeros(shape),
            press: Array3::zeros(shape),
            f: VectorField::zeros(shape),
            a: VectorField::zeros(shape),
        }
    }

    /// Assemble a state from its eight arrays in the canonical order of
    /// [`State::arrays`].
    ///
    /// # Panics
    /// If the arrays do not all share one shape.
    pub fn from_arrays(arrays: [Array3; 8]) -> Self {
        let shape = arrays[0].shape();
        assert!(arrays.iter().all(|a| a.shape() == shape), "state arrays differ in shape");
        let [rho, press, fr, ft, fp, ar, at, ap] = arrays;
        State {
            rho,
            press,
            f: VectorField { r: fr, t: ft, p: fp },
            a: VectorField { r: ar, t: at, p: ap },
        }
    }

    /// Shared shape of the eight arrays.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.rho.shape()
    }

    /// The eight scalar arrays in canonical order
    /// (ρ, p, fr, fθ, fφ, Ar, Aθ, Aφ) — the order used by ghost-fill
    /// packing, checkpoints and snapshots.
    pub fn arrays(&self) -> [&Array3; 8] {
        [
            &self.rho,
            &self.press,
            &self.f.r,
            &self.f.t,
            &self.f.p,
            &self.a.r,
            &self.a.t,
            &self.a.p,
        ]
    }

    /// Mutable view of the eight arrays in canonical order.
    pub fn arrays_mut(&mut self) -> [&mut Array3; 8] {
        [
            &mut self.rho,
            &mut self.press,
            &mut self.f.r,
            &mut self.f.t,
            &mut self.f.p,
            &mut self.a.r,
            &mut self.a.t,
            &mut self.a.p,
        ]
    }

    /// `self ← self + c · other` on all eight arrays.
    pub fn axpy(&mut self, c: f64, other: &State) {
        self.rho.axpy(c, &other.rho);
        self.press.axpy(c, &other.press);
        self.f.axpy(c, &other.f);
        self.a.axpy(c, &other.a);
    }

    /// Fused RK4 combine on all eight arrays: `self ← self + a·delta`
    /// and `stage ← base + c·delta` in one traversal of `delta` —
    /// bit-identical to `axpy` followed by [`Array3::assign_axpy`] with
    /// the same coefficients, reading the stage tendency once instead of
    /// twice.
    pub fn axpy_and_assign_axpy(
        &mut self,
        a: f64,
        delta: &State,
        stage: &mut State,
        base: &State,
        c: f64,
    ) {
        self.rho.axpy_and_assign_axpy(a, &delta.rho, &mut stage.rho, &base.rho, c);
        self.press.axpy_and_assign_axpy(a, &delta.press, &mut stage.press, &base.press, c);
        self.f.axpy_and_assign_axpy(a, &delta.f, &mut stage.f, &base.f, c);
        self.a.axpy_and_assign_axpy(a, &delta.a, &mut stage.a, &base.a, c);
    }

    /// Copy all arrays from `other`.
    pub fn copy_from(&mut self, other: &State) {
        self.rho.copy_from(&other.rho);
        self.press.copy_from(&other.press);
        self.f.copy_from(&other.f);
        self.a.copy_from(&other.a);
    }

    /// Copy the two radial wall nodes of every padded column from
    /// `other`. An RK4 stage sweep writes interior nodes only and the wall
    /// condition leaves ρ (and conducting-wall A) frozen, so a stage
    /// buffer takes those values from the state at the step head.
    pub fn copy_walls_from(&mut self, other: &State) {
        let nr = self.shape().nr;
        for (dst, src) in self.arrays_mut().into_iter().zip(other.arrays()) {
            assert_eq!(dst.shape(), src.shape(), "copy_walls_from shape mismatch");
            for (d, s) in dst.data_mut().chunks_exact_mut(nr).zip(src.data().chunks_exact(nr)) {
                d[0] = s[0];
                d[nr - 1] = s[nr - 1];
            }
        }
    }

    /// Zero every array (ghosts included).
    pub fn fill_zero(&mut self) {
        for arr in self.arrays_mut() {
            arr.fill(0.0);
        }
    }

    /// `true` iff any of the eight arrays contains NaN/inf.
    pub fn has_non_finite(&self) -> bool {
        self.arrays().iter().any(|a| a.has_non_finite())
    }

    /// Positivity check over the owned region: ρ > 0 and p > 0 everywhere
    /// (a cheap guard the drivers run between steps).
    pub fn is_physical(&self) -> bool {
        let s = self.shape();
        for k in 0..s.nph as isize {
            for j in 0..s.nth as isize {
                for (&r, &p) in self.rho.row(j, k).iter().zip(self.press.row(j, k)) {
                    if !(r > 0.0 && p > 0.0) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape::new(3, 4, 5, 1, 1)
    }

    #[test]
    fn canonical_order_is_stable() {
        let mut s = State::zeros(shape());
        for (idx, arr) in s.arrays_mut().into_iter().enumerate() {
            arr.fill(idx as f64);
        }
        assert_eq!(s.rho.at(0, 0, 0), 0.0);
        assert_eq!(s.press.at(0, 0, 0), 1.0);
        assert_eq!(s.f.r.at(0, 0, 0), 2.0);
        assert_eq!(s.f.p.at(0, 0, 0), 4.0);
        assert_eq!(s.a.r.at(0, 0, 0), 5.0);
        assert_eq!(s.a.p.at(0, 0, 0), 7.0);
    }

    #[test]
    fn axpy_combines_states() {
        let mut a = State::zeros(shape());
        let mut b = State::zeros(shape());
        b.rho.fill(2.0);
        b.a.p.fill(-4.0);
        a.axpy(0.5, &b);
        assert_eq!(a.rho.at(1, 1, 1), 1.0);
        assert_eq!(a.a.p.at(1, 1, 1), -2.0);
        assert_eq!(a.press.at(1, 1, 1), 0.0);
    }

    #[test]
    fn physicality_checks() {
        let mut s = State::zeros(shape());
        assert!(!s.is_physical()); // ρ = p = 0 is not physical
        s.rho.fill(1.0);
        s.press.fill(1.0);
        assert!(s.is_physical());
        s.press.set(1, 2, 3, -1.0);
        assert!(!s.is_physical());
        assert!(!s.has_non_finite());
        s.f.t.set(0, 0, 0, f64::NAN);
        assert!(s.has_non_finite());
    }
}
