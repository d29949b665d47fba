//! Solver health guards.
//!
//! An explicit MHD step that goes unstable does not fail loudly — it
//! fails by drifting: densities dip negative, the CFL time step
//! collapses, and a few hundred steps later every field is NaN. The
//! guards here catch the drift early and *classify* it, so the
//! supervised parallel driver ([`crate::parallel::run_parallel_supervised`])
//! can degrade gracefully — first reducing `dt` and rolling back to the
//! last good checkpoint, then aborting with a descriptive error instead
//! of a panic deep in a stencil loop.
//!
//! The two floors (minimum ρ and p) cover the owned (non-ghost) region
//! only: ghost frames are filled by halo/overset exchange and
//! legitimately hold zeros before the first sync, so including them
//! would trip false positives. The finiteness test reads every
//! allocated node, padding included: a zero is finite, and a NaN in a
//! ghost frame is as fatal as one in the owned region ([`scan_tally`]
//! bills the owned nodes only).

use yy_mhd::State;
use yy_obs::event::HealthCode;

/// Thresholds for the solver health scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthLimits {
    /// Minimum admissible density anywhere in the owned region.
    pub rho_floor: f64,
    /// Minimum admissible pressure anywhere in the owned region.
    pub press_floor: f64,
    /// `dt` collapse detector: a freshly computed CFL step below
    /// `dt_collapse × reference` (the first dt of the run) means the
    /// wave speeds have blown up.
    pub dt_collapse: f64,
}

impl Default for HealthLimits {
    fn default() -> Self {
        // The floors are far below any healthy dynamo state (the
        // initial condition is O(1)) but far above the denormal range a
        // collapsing solution sweeps through.
        HealthLimits { rho_floor: 1e-8, press_floor: 1e-10, dt_collapse: 1e-3 }
    }
}

/// A detected health violation.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthViolation {
    /// A field contains NaN or ±inf.
    NonFinite {
        /// Canonical field name (`rho`, `press`, `f_r`, … `a_p`).
        field: &'static str,
    },
    /// Density fell below the floor.
    DensityFloor {
        /// Observed minimum.
        min: f64,
        /// Configured floor.
        floor: f64,
    },
    /// Pressure fell below the floor.
    PressureFloor {
        /// Observed minimum.
        min: f64,
        /// Configured floor.
        floor: f64,
    },
    /// The CFL step collapsed relative to the start of the run.
    DtCollapse {
        /// Freshly computed step.
        dt: f64,
        /// Reference step (first of the run).
        reference: f64,
    },
}

impl HealthViolation {
    /// Which guard tripped, without the measured values, so flight
    /// recorders can log a fixed-width [`yy_obs::Event::HealthViolation`]
    /// without carrying the formatted message.
    pub fn code(&self) -> HealthCode {
        match self {
            HealthViolation::NonFinite { .. } => HealthCode::NonFinite,
            HealthViolation::DensityFloor { .. } => HealthCode::DensityFloor,
            HealthViolation::PressureFloor { .. } => HealthCode::PressureFloor,
            HealthViolation::DtCollapse { .. } => HealthCode::DtCollapse,
        }
    }
}

impl std::fmt::Display for HealthViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthViolation::NonFinite { field } => {
                write!(f, "non-finite values in field `{field}`")
            }
            HealthViolation::DensityFloor { min, floor } => {
                write!(f, "density floor violated: min rho {min:e} < floor {floor:e}")
            }
            HealthViolation::PressureFloor { min, floor } => {
                write!(f, "pressure floor violated: min p {min:e} < floor {floor:e}")
            }
            HealthViolation::DtCollapse { dt, reference } => {
                write!(f, "CFL blow-up: dt {dt:e} collapsed below {reference:e} reference")
            }
        }
    }
}

/// Canonical field names, index-aligned with [`State::arrays`].
const FIELD_NAMES: [&str; 8] = ["rho", "press", "f_r", "f_t", "f_p", "a_r", "a_t", "a_p"];

/// Counter tally for one health scan of a state with `columns` owned
/// (θ, φ) columns of radial length `nr`.
///
/// The accounting convention is over owned nodes — 1 comparison-flop per
/// node per finite scan of the 8 fields, plus the 2 positivity-floor
/// min-scans of ρ and p — so the global per-kernel totals are identical
/// for every decomposition (serial panels and parallel tiles tile the
/// same owned node set). The scans themselves may touch padding; the
/// tally is the model, like the RHS byte counts.
pub fn scan_tally(columns: u64, nr: u64) -> yy_obs::KernelTally {
    let points = columns * nr;
    yy_obs::KernelTally {
        points,
        loops: columns,
        vector_elements: points,
        flops: 10 * points,
        bytes_read: 10 * points * 8,
        bytes_written: 0,
    }
}

/// Stateful health checker for one panel/tile.
#[derive(Debug, Clone)]
pub struct HealthGuard {
    limits: HealthLimits,
    reference_dt: Option<f64>,
}

impl HealthGuard {
    /// A guard with the given limits and no dt reference yet.
    pub fn new(limits: HealthLimits) -> Self {
        HealthGuard { limits, reference_dt: None }
    }

    /// The configured limits.
    pub fn limits(&self) -> &HealthLimits {
        &self.limits
    }

    /// Scan a state for NaN/Inf anywhere and floor violations in the
    /// owned region. Returns the first violation found.
    pub fn check_state(&self, state: &State) -> Result<(), HealthViolation> {
        for (name, arr) in FIELD_NAMES.iter().zip(state.arrays()) {
            if arr.has_non_finite() {
                return Err(HealthViolation::NonFinite { field: name });
            }
        }
        let rho_min = state.rho.min_owned();
        if rho_min < self.limits.rho_floor {
            return Err(HealthViolation::DensityFloor { min: rho_min, floor: self.limits.rho_floor });
        }
        let press_min = state.press.min_owned();
        if press_min < self.limits.press_floor {
            return Err(HealthViolation::PressureFloor {
                min: press_min,
                floor: self.limits.press_floor,
            });
        }
        Ok(())
    }

    /// Check a freshly computed CFL step against the run's reference
    /// (established by the first call). Non-finite or non-positive steps
    /// are reported as collapse too.
    pub fn check_dt(&mut self, dt: f64) -> Result<(), HealthViolation> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(HealthViolation::DtCollapse {
                dt,
                reference: self.reference_dt.unwrap_or(f64::NAN),
            });
        }
        match self.reference_dt {
            None => {
                self.reference_dt = Some(dt);
                Ok(())
            }
            Some(reference) => {
                if dt < self.limits.dt_collapse * reference {
                    Err(HealthViolation::DtCollapse { dt, reference })
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_field::Shape;

    fn healthy_state() -> State {
        let mut s = State::zeros(Shape::new(4, 5, 6, 2, 2));
        for arr in s.arrays_mut() {
            for v in arr.data_mut() {
                *v = 1.0;
            }
        }
        s
    }

    #[test]
    fn healthy_state_passes() {
        let guard = HealthGuard::new(HealthLimits::default());
        assert_eq!(guard.check_state(&healthy_state()), Ok(()));
    }

    #[test]
    fn nan_is_caught_and_named() {
        let guard = HealthGuard::new(HealthLimits::default());
        let mut s = healthy_state();
        s.f.t.data_mut()[7] = f64::NAN;
        assert_eq!(guard.check_state(&s), Err(HealthViolation::NonFinite { field: "f_t" }));
    }

    #[test]
    fn density_floor_scans_owned_region_only() {
        let guard = HealthGuard::new(HealthLimits::default());
        let mut s = healthy_state();
        // A ghost-row zero must NOT trip the floor…
        let bad = s.rho.row_mut(-1, 0);
        bad[0] = 0.0;
        assert_eq!(guard.check_state(&s), Ok(()));
        // …but an owned-region violation must.
        s.rho.row_mut(0, 0)[1] = 1e-12;
        assert_eq!(
            guard.check_state(&s),
            Err(HealthViolation::DensityFloor { min: 1e-12, floor: 1e-8 })
        );
    }

    #[test]
    fn pressure_floor_is_enforced() {
        let guard = HealthGuard::new(HealthLimits::default());
        let mut s = healthy_state();
        s.press.row_mut(2, 3)[0] = -0.5;
        assert_eq!(
            guard.check_state(&s),
            Err(HealthViolation::PressureFloor { min: -0.5, floor: 1e-10 })
        );
    }

    #[test]
    fn dt_collapse_uses_the_first_dt_as_reference() {
        let mut guard = HealthGuard::new(HealthLimits::default());
        assert_eq!(guard.check_dt(1e-3), Ok(()));
        assert_eq!(guard.check_dt(9e-4), Ok(()));
        assert_eq!(
            guard.check_dt(1e-7),
            Err(HealthViolation::DtCollapse { dt: 1e-7, reference: 1e-3 })
        );
        assert!(guard.check_dt(f64::NAN).is_err());
        assert!(guard.check_dt(0.0).is_err());
    }
}
