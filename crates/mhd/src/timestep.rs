//! CFL time-step control.
//!
//! The explicit RK4 step must resolve the fastest signal: flow speed plus
//! the fast magnetosonic speed (bounded here by `c_s + v_A`). A separate
//! diffusive bound covers the explicit dissipation terms. Each rank
//! evaluates its local bound; the drivers reduce with a MIN across ranks
//! so every process steps with the same `dt`.

use crate::params::PhysParams;
use crate::rhs::InteriorRange;
use crate::state::State;
use yy_mesh::Metric;

/// Hand `visit` the squared signal speeds `(|v|², c_s², v_A²)` of every
/// node of `range`, in sweep order — the one traversal under both
/// [`wave_speed_max`] and [`wave_speed_breakdown`], which differ only in
/// how they fold it.
///
/// `v_A = |B| / √ρ` is evaluated from `B = ∇×A` with the same central
/// stencils as the solver.
#[inline(always)]
fn for_each_speed2(
    state: &State,
    metric: &Metric,
    params: &PhysParams,
    range: &InteriorRange,
    mut visit: impl FnMut(f64, f64, f64),
) {
    use crate::ops::{ColGeom, Cols, Spacings};
    let sp = Spacings::new(metric.dr, metric.dth, metric.dph);
    // Loop-invariant scalars hoisted to locals so the inner loop reads
    // registers, not struct fields (identical arithmetic, just fewer
    // loads the optimizer must prove redundant).
    let (inv_2dr, inv_2dt, inv_2dp) = (sp.inv_2dr, sp.inv_2dt, sp.inv_2dp);
    let gamma = params.gamma;
    // Radial windows: every slice the inner loop reads is cut to exactly
    // the interior extent (centered stencils get the extent plus one
    // frame node on each side), so indexing with a local `q` bounded by
    // the loop is provably in-range and the checks vectorize away. The
    // per-node arithmetic and the sequential visiting order are those of
    // the strided spelling, so the folds are bit-identical to it.
    let (i0, i1) = (range.i0, range.i1);
    let n = i1 - i0;
    let r_w = &metric.r[i0 - 1..i1 + 1];
    let ir_w = &metric.inv_r[i0..i1];
    for k in range.k0..range.k1 {
        for j in range.j0..range.j1 {
            let g = ColGeom::new(metric, j);
            let (inv_sin, sin_n, sin_s) = (g.inv_sin, g.sin_n, g.sin_s);
            let rho = &state.rho.row(j, k)[i0..i1];
            let prs = &state.press.row(j, k)[i0..i1];
            let fr = &state.f.r.row(j, k)[i0..i1];
            let ft = &state.f.t.row(j, k)[i0..i1];
            let fp = &state.f.p.row(j, k)[i0..i1];
            let ar = Cols::new(&state.a.r, j, k);
            let at = Cols::new(&state.a.t, j, k);
            let ap = Cols::new(&state.a.p, j, k);
            let (ar_n, ar_s) = (&ar.n[i0..i1], &ar.s[i0..i1]);
            let (ar_e, ar_w) = (&ar.e[i0..i1], &ar.w[i0..i1]);
            let (at_e, at_w) = (&at.e[i0..i1], &at.w[i0..i1]);
            let (ap_n, ap_s) = (&ap.n[i0..i1], &ap.s[i0..i1]);
            let at_c = &at.c[i0 - 1..i1 + 1];
            let ap_c = &ap.c[i0 - 1..i1 + 1];
            for q in 0..n {
                let ir = ir_w[q];
                let v2 = (fr[q] * fr[q] + ft[q] * ft[q] + fp[q] * fp[q]) / (rho[q] * rho[q]);
                let cs2 = gamma * prs[q] / rho[q];
                let b_r = ir * inv_sin
                    * ((sin_s * ap_s[q] - sin_n * ap_n[q]) * inv_2dt
                        - (at_e[q] - at_w[q]) * inv_2dp);
                let b_t = ir
                    * (inv_sin * (ar_e[q] - ar_w[q]) * inv_2dp
                        - (r_w[q + 2] * ap_c[q + 2] - r_w[q] * ap_c[q]) * inv_2dr);
                let b_p = ir
                    * ((r_w[q + 2] * at_c[q + 2] - r_w[q] * at_c[q]) * inv_2dr
                        - (ar_s[q] - ar_n[q]) * inv_2dt);
                let va2 = (b_r * b_r + b_t * b_t + b_p * b_p) / rho[q];
                visit(v2, cs2, va2);
            }
        }
    }
}

/// Maximum signal speed `|v| + c_s + v_A` over the FD interior.
///
/// The cost is one sweep and is amortized by calling this every few
/// steps (the drivers re-use the previous `dt` in between).
pub fn wave_speed_max(
    state: &State,
    metric: &Metric,
    params: &PhysParams,
    range: &InteriorRange,
) -> f64 {
    let mut vmax: f64 = 0.0;
    for_each_speed2(state, metric, params, range, |v2, cs2, va2| {
        vmax = vmax.max(v2.sqrt() + cs2.sqrt() + va2.sqrt());
    });
    vmax
}

/// Component maxima of the signal speed over a tile.
///
/// Each field is the maximum of that component alone; the CFL bound uses
/// their pointwise sum, so `flow + sound + alfven` over-estimates the
/// combined maximum (the three maxima need not coincide) while each
/// component alone under-estimates it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeedBreakdown {
    /// Maximum flow speed `|v|`.
    pub flow: f64,
    /// Maximum adiabatic sound speed `√(γ p / ρ)`.
    pub sound: f64,
    /// Maximum Alfvén speed `|B| / √ρ` with `B = ∇×A`.
    pub alfven: f64,
}

impl SpeedBreakdown {
    /// Merge with another tile's breakdown (component-wise max).
    pub fn merged(&self, other: &SpeedBreakdown) -> SpeedBreakdown {
        SpeedBreakdown {
            flow: self.flow.max(other.flow),
            sound: self.sound.max(other.sound),
            alfven: self.alfven.max(other.alfven),
        }
    }
}

/// Per-component signal-speed maxima over the FD interior.
///
/// Diagnostic companion to [`wave_speed_max`]: same sweep and the same
/// `B = ∇×A` central stencils, but tracking flow, sound and Alfvén maxima
/// separately so a run report can show *which* wave limits the time step
/// (in the paper's regime the Alfvén speed dominates once the dynamo
/// saturates).
pub fn wave_speed_breakdown(
    state: &State,
    metric: &Metric,
    params: &PhysParams,
    range: &InteriorRange,
) -> SpeedBreakdown {
    // Fold the squares and take one root per maximum: sqrt is monotone
    // and correctly rounded, so this is the per-node `max(√x)` bit for bit.
    let (mut flow2, mut sound2, mut alfven2) = (0.0f64, 0.0f64, 0.0f64);
    for_each_speed2(state, metric, params, range, |v2, cs2, va2| {
        flow2 = flow2.max(v2);
        sound2 = sound2.max(cs2);
        alfven2 = alfven2.max(va2);
    });
    SpeedBreakdown { flow: flow2.sqrt(), sound: sound2.sqrt(), alfven: alfven2.sqrt() }
}

/// CFL time step from a wave speed and the tile's smallest spacing.
///
/// Combines the advective bound `cfl · Δx / s_max` with the explicit
/// diffusion bound `cfl_diff · Δx² ρ_min / max(µ, K, η)`.
pub fn cfl_timestep(
    max_speed: f64,
    min_dx: f64,
    rho_min: f64,
    params: &PhysParams,
    cfl: f64,
) -> f64 {
    assert!(min_dx > 0.0 && cfl > 0.0);
    let adv = if max_speed > 0.0 { cfl * min_dx / max_speed } else { f64::INFINITY };
    let diff_coef = params.mu.max(params.kappa).max(params.eta);
    let diff = if diff_coef > 0.0 {
        0.25 * cfl * min_dx * min_dx * rho_min.max(1e-300) / diff_coef
    } else {
        f64::INFINITY
    };
    let dt = adv.min(diff);
    assert!(dt.is_finite() && dt > 0.0, "degenerate time step: speeds {max_speed}, dx {min_dx}");
    dt
}

/// Minimum owned density (for the diffusive bound).
pub fn rho_min_owned(state: &State) -> f64 {
    state.rho.min_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{initialize, InitOptions};
    use yy_mesh::{Panel, PatchGrid, PatchSpec};

    fn setup() -> (PatchGrid, Metric, State, PhysParams) {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(16, 13, 0.35, 1.0));
        let metric = Metric::full(&grid);
        let params = PhysParams::default_laptop();
        let mut state = State::zeros(grid.full_shape());
        initialize(&mut state, &grid, None, &params, &InitOptions::default(), Panel::Yin);
        (grid, metric, state, params)
    }

    #[test]
    fn static_state_speed_is_sound_speed() {
        let (grid, metric, state, params) = setup();
        let range = InteriorRange::full_panel(&grid);
        let s = wave_speed_max(&state, &metric, &params, &range);
        // Fastest sound speed is at the hot inner wall region:
        // c_s = √(γ T) with T ≤ t_inner.
        let cs_max = params.sound_speed(params.t_inner);
        assert!(s > params.sound_speed(1.0) * 0.99, "speed {s} too low");
        assert!(s <= cs_max * 1.01, "speed {s} exceeds max sound speed {cs_max}");
    }

    #[test]
    fn flow_and_field_raise_the_speed() {
        let (grid, metric, mut state, params) = setup();
        let range = InteriorRange::full_panel(&grid);
        let base = wave_speed_max(&state, &metric, &params, &range);
        state.f.p.fill(0.5); // add flow
        let with_flow = wave_speed_max(&state, &metric, &params, &range);
        assert!(with_flow > base);
        // Strong uniform-B potential raises it further (Alfvén).
        let shape = state.shape();
        for k in -1..(shape.nph as isize + 1) {
            for j in -1..(shape.nth as isize + 1) {
                let st = grid.theta().coord_signed(j).sin();
                for i in 0..shape.nr {
                    state.a.p.set(i, j, k, 2.0 * grid.r().coord(i) * st);
                }
            }
        }
        let with_b = wave_speed_max(&state, &metric, &params, &range);
        assert!(with_b > with_flow);
    }

    #[test]
    fn breakdown_components_bracket_the_combined_maximum() {
        let (grid, metric, mut state, params) = setup();
        let range = InteriorRange::full_panel(&grid);
        state.f.p.fill(0.3); // flow so every component is non-trivial
        let shape = state.shape();
        for k in -1..(shape.nph as isize + 1) {
            for j in -1..(shape.nth as isize + 1) {
                let st = grid.theta().coord_signed(j).sin();
                for i in 0..shape.nr {
                    state.a.p.set(i, j, k, 0.8 * grid.r().coord(i) * st);
                }
            }
        }
        let combined = wave_speed_max(&state, &metric, &params, &range);
        let b = wave_speed_breakdown(&state, &metric, &params, &range);
        assert!(b.flow > 0.0 && b.sound > 0.0 && b.alfven > 0.0);
        for comp in [b.flow, b.sound, b.alfven] {
            assert!(comp <= combined * (1.0 + 1e-12), "component {comp} exceeds combined {combined}");
        }
        let sum = b.flow + b.sound + b.alfven;
        assert!(combined <= sum * (1.0 + 1e-12), "combined {combined} exceeds sum {sum}");
    }

    /// Both folds over the shared traversal reproduce, bit for bit, what
    /// the two separate loops they replace computed (values recorded
    /// from those) — on the static and the driven state of the tests
    /// above, over the full panel and over an off-centre sub-box.
    #[test]
    fn speed_folds_match_recorded_bits() {
        let (grid, metric, mut state, params) = setup();
        let range = InteriorRange::full_panel(&grid);
        let bits = |state: &State, range: &InteriorRange| {
            let b = wave_speed_breakdown(state, &metric, &params, range);
            let max = wave_speed_max(state, &metric, &params, range);
            [max, b.flow, b.sound, b.alfven].map(f64::to_bits)
        };
        assert_eq!(
            bits(&state, &range),
            [0x3ffbf6f43b163698, 0x0000000000000000, 0x3ffbf5ed1e815262, 0x3f39b0492317346f]
        );
        state.f.p.fill(0.3);
        let shape = state.shape();
        for k in -1..(shape.nph as isize + 1) {
            for j in -1..(shape.nth as isize + 1) {
                let st = grid.theta().coord_signed(j).sin();
                for i in 0..shape.nr {
                    state.a.p.set(i, j, k, 0.8 * grid.r().coord(i) * st);
                }
            }
        }
        assert_eq!(
            bits(&state, &range),
            [0x40097a500eb84b12, 0x3fd2ceb7b5f9d831, 0x3ffbf5ed1e815262, 0x3ff956846a55b11f]
        );
        let sub = InteriorRange { i0: 3, i1: 8, j0: range.j0 + 1, k1: range.k1 - 2, ..range };
        assert_eq!(
            bits(&state, &sub),
            [0x4009251f1e88c3ee, 0x3fcef55b0cd4b36b, 0x3ffa0119e5d766ee, 0x3ff6fcd11e72e5df]
        );
    }

    #[test]
    fn breakdown_merge_is_componentwise_max() {
        let a = SpeedBreakdown { flow: 1.0, sound: 5.0, alfven: 0.1 };
        let b = SpeedBreakdown { flow: 2.0, sound: 4.0, alfven: 0.3 };
        let m = a.merged(&b);
        assert_eq!(m, SpeedBreakdown { flow: 2.0, sound: 5.0, alfven: 0.3 });
        assert_eq!(m, b.merged(&a));
    }

    #[test]
    fn static_state_breakdown_is_sound_dominated() {
        let (grid, metric, state, params) = setup();
        let range = InteriorRange::full_panel(&grid);
        let b = wave_speed_breakdown(&state, &metric, &params, &range);
        assert_eq!(b.flow, 0.0);
        assert!(b.alfven < 1e-3 * b.sound, "seed field should be negligible: {b:?}");
        let combined = wave_speed_max(&state, &metric, &params, &range);
        assert!(b.sound <= combined && combined <= b.sound + b.alfven, "{b:?} vs {combined}");
    }

    #[test]
    fn cfl_scales_inversely_with_speed() {
        let p = PhysParams::default_laptop();
        let dt1 = cfl_timestep(1.0, 0.01, 1.0, &p, 0.4);
        let dt2 = cfl_timestep(2.0, 0.01, 1.0, &p, 0.4);
        assert!((dt1 / dt2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diffusive_bound_kicks_in_for_large_dissipation() {
        let mut p = PhysParams::default_laptop();
        p.mu = 10.0;
        let dt = cfl_timestep(1.0, 0.01, 1.0, &p, 0.4);
        // Advective bound would be 4e-3; diffusive is 0.25·0.4·1e-4/10 = 1e-6.
        assert!(dt < 1e-5);
    }

    #[test]
    fn rho_min_ignores_ghosts() {
        let (_, _, mut state, _) = setup();
        state.rho.set(0, -1, 0, 1e-12); // ghost
        let m = rho_min_owned(&state);
        assert!(m > 0.1);
    }
}
