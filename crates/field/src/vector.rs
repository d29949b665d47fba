//! A spherical-component vector field: three [`Array3`]s `(r, θ, φ)`.

use crate::array3::{Array3, Shape};

/// Vector field with spherical components, struct-of-arrays layout.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    /// Radial component.
    pub r: Array3,
    /// Colatitude component.
    pub t: Array3,
    /// Longitude component.
    pub p: Array3,
}

impl VectorField {
    /// Zero-initialized vector field.
    pub fn zeros(shape: Shape) -> Self {
        VectorField {
            r: Array3::zeros(shape),
            t: Array3::zeros(shape),
            p: Array3::zeros(shape),
        }
    }

    /// Shared shape of the three component arrays.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.r.shape()
    }

    /// Component arrays in fixed order `(r, θ, φ)`.
    pub fn components(&self) -> [&Array3; 3] {
        [&self.r, &self.t, &self.p]
    }

    /// `self ← self + c * other` on every component.
    pub fn axpy(&mut self, c: f64, other: &VectorField) {
        self.r.axpy(c, &other.r);
        self.t.axpy(c, &other.t);
        self.p.axpy(c, &other.p);
    }

    /// Fused `self ← self + a·delta` and `stage ← base + c·delta` on
    /// every component (see [`Array3::axpy_and_assign_axpy`]).
    pub fn axpy_and_assign_axpy(
        &mut self,
        a: f64,
        delta: &VectorField,
        stage: &mut VectorField,
        base: &VectorField,
        c: f64,
    ) {
        self.r.axpy_and_assign_axpy(a, &delta.r, &mut stage.r, &base.r, c);
        self.t.axpy_and_assign_axpy(a, &delta.t, &mut stage.t, &base.t, c);
        self.p.axpy_and_assign_axpy(a, &delta.p, &mut stage.p, &base.p, c);
    }

    /// Copy all three components from `other`.
    pub fn copy_from(&mut self, other: &VectorField) {
        self.r.copy_from(&other.r);
        self.t.copy_from(&other.t);
        self.p.copy_from(&other.p);
    }

    /// `true` iff any component holds a NaN/inf anywhere.
    pub fn has_non_finite(&self) -> bool {
        self.r.has_non_finite() || self.t.has_non_finite() || self.p.has_non_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape::new(3, 4, 5, 1, 1)
    }

    #[test]
    fn axpy_applies_to_all_components() {
        let mut v = VectorField::zeros(shape());
        let mut w = VectorField::zeros(shape());
        w.r.fill(1.0);
        w.t.fill(2.0);
        w.p.fill(3.0);
        v.axpy(2.0, &w);
        assert_eq!(v.r.at(0, 0, 0), 2.0);
        assert_eq!(v.t.at(1, 1, 1), 4.0);
        assert_eq!(v.p.at(2, 3, 4), 6.0);
    }

    #[test]
    fn components_order_is_r_theta_phi() {
        let mut v = VectorField::zeros(shape());
        v.r.fill(1.0);
        v.t.fill(2.0);
        v.p.fill(3.0);
        let c = v.components();
        assert_eq!(c[0].at(0, 0, 0), 1.0);
        assert_eq!(c[1].at(0, 0, 0), 2.0);
        assert_eq!(c[2].at(0, 0, 0), 3.0);
    }

    #[test]
    fn non_finite_detection_spans_components() {
        let mut v = VectorField::zeros(shape());
        assert!(!v.has_non_finite());
        v.p.set(0, 0, 0, f64::INFINITY);
        assert!(v.has_non_finite());
    }
}
