//! Cross-grid validation: the Yin-Yang solver and the full-sphere
//! latitude–longitude baseline discretize the same physics, so matched
//! runs must agree on the bulk diagnostics.
//!
//! This is the repository's strongest physics check: the two solvers
//! share the RHS kernels but differ in *everything geometric* — sphere
//! coverage, boundary plumbing (overset interpolation vs pole mapping),
//! quadrature, time step. Agreement is evidence that the Yin-Yang
//! machinery (transforms, interpolation, frames) introduces no spurious
//! physics.

use yy_latlon::LatLonSim;
use yy_mhd::{init::InitOptions, PhysParams};
use yycore::{RunConfig, SerialSim};

/// Evolve both discretizations of the unperturbed conductive equilibrium
/// to the same physical time and compare thermal energy and mass
/// (normalizing the Yin-Yang overlap double-count by covered area).
#[test]
fn equilibrium_thermodynamics_agree_across_grids() {
    let params = PhysParams::default_laptop();
    let opts = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, seed: 5 };

    let mut cfg = RunConfig::small();
    cfg.params = params;
    cfg.init = opts;
    let mut yy = SerialSim::new(cfg);

    let mut ll = LatLonSim::new(16, 12, 24, params, &opts);

    let t_target = 0.01;
    while yy.time < t_target {
        let dt = yy.auto_dt();
        yy.advance(dt);
    }
    while ll.time < t_target {
        let dt = ll.auto_dt();
        ll.advance(dt);
    }

    let d_ll = ll.diagnostics();

    // The average-renormalized integrals agree to a couple of percent...
    let norm = yy_mhd::energy::overlap_normalization(&yy.grid);
    let d_yy = yy.diagnostics();
    let thermal_ratio = d_yy.thermal * norm / d_ll.thermal;
    assert!(
        (thermal_ratio - 1.0).abs() < 0.02,
        "thermal energy ratio {thermal_ratio} (yy {} vs ll {})",
        d_yy.thermal * norm,
        d_ll.thermal
    );
    let mass_ratio = d_yy.mass * norm / d_ll.mass;
    assert!((mass_ratio - 1.0).abs() < 0.02, "mass ratio {mass_ratio}");

    // ...and the per-column overlap-deduplicated integrals agree to
    // quadrature accuracy (an order of magnitude tighter).
    use yy_mesh::dedup_column_weights;
    let weights = dedup_column_weights(&yy.grid);
    let metric = yy_mesh::Metric::full(&yy.grid);
    let range = yy_mhd::rhs::InteriorRange::full_panel(&yy.grid);
    let params = &yy.cfg.params;
    let dedup = |panel| {
        let w = Some(weights.as_slice());
        yy_mhd::energy::compute_diagnostics(panel, &yy.grid, &metric, None, params, &range, w)
    };
    let d_dedup = dedup(&yy.yin).merged(dedup(&yy.yang));
    // At these very coarse grids (Δθ ≈ 7.5°/15°) the two quadratures
    // themselves carry ~0.5 % error; the dedup integral must land inside
    // that and beat the crude renormalization.
    let mass_dedup_ratio = d_dedup.mass / d_ll.mass;
    assert!(
        (mass_dedup_ratio - 1.0).abs() < 8e-3,
        "dedup mass ratio {mass_dedup_ratio}"
    );
    // (At nth = 13 both approaches sit inside quadrature noise of each
    // other; the dedup weights' O(Δ²) superiority is asserted cleanly by
    // the sphere-area identity test in yy-mesh at finer resolution.)
    let thermal_dedup_ratio = d_dedup.thermal / d_ll.thermal;
    assert!(
        (thermal_dedup_ratio - 1.0).abs() < 8e-3,
        "dedup thermal ratio {thermal_dedup_ratio}"
    );
}

/// Perturbed runs develop comparable flow on both grids: same order of
/// kinetic energy at the same time (the flows differ in detail — the
/// noise patterns are grid-specific — but the linear-stage growth is set
/// by the shared physics).
#[test]
fn perturbed_runs_develop_comparable_flow() {
    let params = PhysParams::default_laptop();
    let opts = InitOptions { perturb_amplitude: 2e-2, seed_amplitude: 0.0, seed: 5 };

    let mut cfg = RunConfig::small();
    cfg.params = params;
    cfg.init = opts;
    let mut yy = SerialSim::new(cfg);
    let mut ll = LatLonSim::new(16, 12, 24, params, &opts);

    let t_target = 0.02;
    while yy.time < t_target {
        let dt = yy.auto_dt();
        yy.advance(dt);
    }
    while ll.time < t_target {
        let dt = ll.auto_dt();
        ll.advance(dt);
    }
    let norm = yy_mhd::energy::overlap_normalization(&yy.grid);
    let k_yy = yy.diagnostics().kinetic * norm;
    let k_ll = ll.diagnostics().kinetic;
    assert!(k_yy > 0.0 && k_ll > 0.0);
    let ratio = k_yy / k_ll;
    assert!(
        (0.2..5.0).contains(&ratio),
        "kinetic energies differ by more than expected: yy {k_yy:.3e} vs ll {k_ll:.3e}"
    );
}

/// The headline claim of the conversion (§IV): at matched angular
/// resolution the Yin-Yang grid takes a much larger stable time step
/// because it has no pole-converging cells.
#[test]
fn yinyang_timestep_beats_latlon() {
    let params = PhysParams::default_laptop();
    let opts = InitOptions { perturb_amplitude: 0.0, seed_amplitude: 0.0, seed: 1 };

    // Matched Δθ: Yin-Yang 90°/(13−1) = 7.5° ↔ lat-lon 180°/24 = 7.5°.
    let mut cfg = RunConfig::small();
    cfg.nth_nominal = 13;
    cfg.params = params;
    cfg.init = opts;
    let yy = SerialSim::new(cfg);
    let ll = LatLonSim::new(16, 24, 48, params, &opts);

    let dt_yy = yy.auto_dt();
    let dt_ll = ll.auto_dt();
    assert!(
        dt_yy > 3.0 * dt_ll,
        "expected a large Yin-Yang step advantage, got {dt_yy:.3e} vs {dt_ll:.3e}"
    );
}
