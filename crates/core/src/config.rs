//! Run configuration for the geodynamo drivers.

use crate::cli::{key, num, suggestion, Key, SOLVER};
use yy_mesh::{PatchGrid, PatchSpec};
use yy_mhd::{init::InitOptions, rhs::RhsKernels, MagneticBc, PhysParams};

/// Everything needed to set up a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Radial node count.
    pub nr: usize,
    /// Nodes across the nominal 90° colatitude span.
    pub nth_nominal: usize,
    /// Patch extension cells (see `yy_mesh::PatchSpec`).
    pub ext: usize,
    /// Physics.
    pub params: PhysParams,
    /// Magnetic wall condition (one value: the conducting wall).
    pub mag_bc: MagneticBc,
    /// Initial perturbation controls.
    pub init: InitOptions,
    /// Advective CFL safety factor.
    pub cfl: f64,
    /// Recompute dt every this many steps (1 = every step).
    pub dt_every: usize,
    /// Which RHS sweep runs: the leaf kernels at the host's detected
    /// vector width (the default). All are bit-identical; the baseline
    /// instantiation and the unfused reference sweep (the exactness
    /// oracle) are values for the tests only, so no key selects them.
    pub rhs_kernels: RhsKernels,
}

impl RunConfig {
    /// A quick, well-conditioned default for tests and examples.
    pub fn small() -> Self {
        RunConfig {
            nr: 16,
            nth_nominal: 13,
            ext: 2,
            params: PhysParams::default_laptop(),
            mag_bc: MagneticBc::ConductingWall,
            init: InitOptions::default(),
            cfl: 0.3,
            dt_every: 5,
            rhs_kernels: RhsKernels::Detected,
        }
    }

    /// A medium resolution for the convection/ dynamo examples.
    pub fn medium() -> Self {
        RunConfig { nr: 24, nth_nominal: 25, ..Self::small() }
    }

    /// Pre-flight validation: geometry large enough for the FD stencils
    /// and the overset frame, sane stepping controls, and admissible
    /// physics. Returns a one-line diagnostic instead of panicking.
    pub fn check(&self) -> Result<(), String> {
        if self.nr < 8 {
            return Err(format!("nr must be at least 8 (got {})", self.nr));
        }
        if self.nth_nominal < 9 {
            return Err(format!("nth must be at least 9 (got {})", self.nth_nominal));
        }
        // `PatchGrid::new` asserts this margin: the extended span plus a
        // halo and a half of ghost nodes must stay off the poles. With
        // no extension the overset border finds no interior donors.
        let max_ext = (self.nth_nominal - 5) / 2;
        if !(1..=max_ext).contains(&self.ext) {
            return Err(format!(
                "ext must lie in 1..={max_ext} for nth={} (got {}): the extended patch \
                 must overlap its partner and stay off the poles",
                self.nth_nominal, self.ext
            ));
        }
        if !(self.cfl > 0.0 && self.cfl <= 1.0) {
            return Err(format!("cfl must lie in (0, 1] (got {})", self.cfl));
        }
        if self.dt_every == 0 {
            return Err("dt_every must be at least 1".into());
        }
        self.params.check()
    }

    /// Build the patch grid for this configuration.
    pub fn grid(&self) -> PatchGrid {
        PatchGrid::new(
            PatchSpec::equal_spacing(self.nr, self.nth_nominal, self.params.ri, 1.0)
                .with_ext(self.ext),
        )
    }

    /// Apply one `key=value` override: a lookup in [`KEYS`].
    pub fn apply_override(&mut self, key: &str, value: &str) -> Result<(), String> {
        match KEYS.iter().find(|row| row.name == key) {
            Some(row) => row.apply(self, value),
            None => Err(format!(
                "unknown config key '{key}'{}",
                suggestion(key, KEYS.iter().map(|row| row.name))
            )),
        }
    }

    /// Parse a list of `key=value` arguments (e.g. from `std::env::args`).
    pub fn apply_args<I: IntoIterator<Item = String>>(&mut self, args: I) -> Result<(), String> {
        for arg in args {
            let Some((k, v)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got '{arg}'"));
            };
            self.apply_override(k.trim(), v.trim())?;
        }
        Ok(())
    }
}

/// The `key=value` rows of a [`RunConfig`] — the examples' whole CLI
/// ([`RunConfig::apply_args`]) and the physics half of `yycore help`.
pub const KEYS: [Key<RunConfig>; 16] = [
    key!("nr", "N", SOLVER, "radial nodes [16]", |c, v| c.nr = num(v)?),
    key!("nth", "N", SOLVER, "nodes across the nominal 90-degree colatitude span [13]",
        |c, v| c.nth_nominal = num(v)?),
    key!("ext", "N", SOLVER, "patch extension cells [2]", |c, v| c.ext = num(v)?),
    key!("cfl", "F", SOLVER, "advective CFL safety factor [0.3]", |c, v| c.cfl = num(v)?),
    key!("dt_every", "N", SOLVER, "recompute dt every N steps [5]", |c, v| c.dt_every = num(v)?),
    key!("mu", "F", SOLVER, "dynamic viscosity", |c, v| c.params.mu = num(v)?),
    key!("kappa", "F", SOLVER, "thermal conductivity", |c, v| c.params.kappa = num(v)?),
    key!("eta", "F", SOLVER, "electrical resistivity", |c, v| c.params.eta = num(v)?),
    key!("omega", "F", SOLVER, "frame rotation rate", |c, v| c.params.omega = num(v)?),
    key!("g0", "F", SOLVER, "gravity coefficient, g = -g0/r^2", |c, v| c.params.g0 = num(v)?),
    key!("t_inner", "F", SOLVER, "inner-wall temperature", |c, v| c.params.t_inner = num(v)?),
    key!("gamma", "F", SOLVER, "ratio of specific heats", |c, v| c.params.gamma = num(v)?),
    key!("ri", "F", SOLVER, "inner radius (outer = 1)", |c, v| c.params.ri = num(v)?),
    key!("perturb", "F", SOLVER, "relative pressure perturbation amplitude [0.03 from yycore]",
        |c, v| c.init.perturb_amplitude = num(v)?),
    key!("seed_amp", "F", SOLVER, "magnetic seed amplitude",
        |c, v| c.init.seed_amplitude = num(v)?),
    key!("seed", "N", SOLVER, "master RNG seed of the perturbations", |c, v| c.init.seed = num(v)?),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_builds_a_grid() {
        let cfg = RunConfig::small();
        let g = cfg.grid();
        let (nr, nth, nph) = g.dims();
        assert_eq!(nr, 16);
        assert_eq!(nth, 13 + 2 * cfg.ext);
        assert!(nph > 3 * nth / 2);
    }

    #[test]
    fn overrides_apply() {
        let mut cfg = RunConfig::small();
        cfg.apply_args(["nr=20".to_string(), "mu=0.5".to_string()]).unwrap();
        assert_eq!(cfg.nr, 20);
        assert_eq!(cfg.params.mu, 0.5);
        assert_eq!(cfg.rhs_kernels, RhsKernels::Detected);
        for gone in ["phi_block=4", "rhs_impl=reference", "mag_bc=conducting"] {
            let err = cfg.apply_args([gone.to_string()]).unwrap_err();
            assert!(err.contains("unknown config key"), "{gone}: {err}");
        }
        assert_eq!(cfg.rhs_kernels, RhsKernels::Detected);
    }

    #[test]
    fn check_accepts_stock_configs_and_rejects_nonsense() {
        assert_eq!(RunConfig::small().check(), Ok(()));
        assert_eq!(RunConfig::medium().check(), Ok(()));
        let mut cfg = RunConfig::small();
        cfg.nr = 2;
        assert!(cfg.check().unwrap_err().contains("nr"));
        let mut cfg = RunConfig::small();
        cfg.cfl = 0.0;
        assert!(cfg.check().unwrap_err().contains("cfl"));
        let mut cfg = RunConfig::small();
        cfg.params.ri = 1.5;
        assert!(cfg.check().unwrap_err().contains("ri"));
    }

    #[test]
    fn bad_overrides_are_reported() {
        let mut cfg = RunConfig::small();
        assert!(cfg.apply_override("nr", "abc").is_err());
        assert!(cfg.apply_override("nope", "1").is_err());
        assert!(cfg.apply_args(["noequals".to_string()]).is_err());
    }
}
