//! Physical parameters of the normalized MHD system.
//!
//! Normalization (paper §III): outer radius `ro = 1`, outer-wall
//! temperature `T(ro) = 1`, outer-wall density `ρ(ro) = 1`. The system has
//! six free parameters, including the three dissipation constants µ, K, η;
//! the paper's flagship run used dissipation 10× smaller than their earlier
//! dipole-reversal runs, i.e. Rayleigh number ≈ 3 × 10⁶ and Ekman number
//! ≈ 2 × 10⁻⁵. Laptop-scale runs in this repository use gentler values
//! (the defaults below) for stability at coarse resolution; the parameter
//! struct lets every example/bench state exactly what it ran.

/// Parameters of the normalized compressible MHD system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysParams {
    /// Ratio of specific heats γ.
    pub gamma: f64,
    /// Dynamic viscosity µ (constant).
    pub mu: f64,
    /// Thermal conductivity K (constant).
    pub kappa: f64,
    /// Electrical resistivity η (constant).
    pub eta: f64,
    /// Gravity coefficient: `g = −g0 / r² r̂`.
    pub g0: f64,
    /// Frame rotation rate Ω (axis = geographic z, i.e. Yin's polar axis).
    pub omega: f64,
    /// Inner-wall temperature (outer wall is 1 by normalization).
    pub t_inner: f64,
    /// Inner shell radius (outer is 1 by normalization).
    pub ri: f64,
}

impl PhysParams {
    /// Gentle defaults that convect stably at the coarse resolutions used
    /// in tests and examples.
    pub fn default_laptop() -> Self {
        PhysParams {
            gamma: 5.0 / 3.0,
            mu: 2e-3,
            kappa: 2e-3,
            eta: 2e-3,
            g0: 1.0,
            omega: 2.0,
            t_inner: 2.0,
            ri: 0.35,
        }
    }

    /// Sound speed at temperature `t`: `c_s = √(γ T)`.
    #[inline]
    pub fn sound_speed(&self, t: f64) -> f64 {
        (self.gamma * t).sqrt()
    }

    /// Ekman number `E = µ / (2 Ω d²)` with shell gap `d = 1 − ri`
    /// (using the outer-wall density 1 as the density scale).
    pub fn ekman(&self) -> f64 {
        let d = 1.0 - self.ri;
        self.mu / (2.0 * self.omega * d * d)
    }

    /// A Rayleigh-number-like vigor index
    /// `Ra = g0 ΔT d³ / (µ K)` with ΔT = t_inner − 1, d = 1 − ri (density
    /// and specific-heat scales are 1 in paper units).
    pub fn rayleigh(&self) -> f64 {
        let d = 1.0 - self.ri;
        self.g0 * (self.t_inner - 1.0) * d.powi(3) / (self.mu * self.kappa)
    }

    /// Sanity-check the parameter set without panicking; the CLI uses
    /// this as a pre-flight so bad configs exit with a diagnostic
    /// instead of an assertion backtrace.
    pub fn check(&self) -> Result<(), String> {
        if !(self.gamma > 1.0) {
            return Err(format!("γ must exceed 1 (got {})", self.gamma));
        }
        if !(self.mu >= 0.0 && self.kappa >= 0.0 && self.eta >= 0.0) {
            return Err(format!(
                "dissipation coefficients must be non-negative (µ {}, κ {}, η {})",
                self.mu, self.kappa, self.eta
            ));
        }
        if !(self.ri > 0.0 && self.ri < 1.0) {
            return Err(format!("ri must lie in (0, 1) (got {})", self.ri));
        }
        if !(self.t_inner > 1.0) {
            return Err(format!(
                "inner wall must be hotter than outer (T(ro) = 1; t_inner {})",
                self.t_inner
            ));
        }
        if !(self.g0 >= 0.0) {
            return Err(format!("gravity must point inward (g0 {})", self.g0));
        }
        if !(self.omega >= 0.0) {
            return Err(format!("use a non-negative rotation rate (omega {})", self.omega));
        }
        Ok(())
    }

    /// Sanity-check the parameter set; panics on nonsense values. Called
    /// by the drivers at setup.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid physics parameters: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PhysParams::default_laptop().validate();
    }

    #[test]
    fn sound_speed_scaling() {
        let p = PhysParams::default_laptop();
        assert!((p.sound_speed(1.0) - (5.0_f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(p.sound_speed(4.0) > p.sound_speed(1.0));
    }

    #[test]
    #[should_panic(expected = "hotter")]
    fn cold_inner_wall_rejected() {
        let mut p = PhysParams::default_laptop();
        p.t_inner = 0.5;
        p.validate();
    }
}
