//! Magnetic free decay through the overset and the walls: the first rung
//! of the verification ladder that has an exact eigenvalue.
//!
//! The shell is at rest and stays at rest (no gravity, a nearly
//! isothermal conductive profile, no perturbation), so induction reduces
//! to ∂A/∂t = −η∇×∇×A. A tangential vector potential A = ∇×(ψx) =
//! ∇ψ×x with ψ = T(r)·Y_l about an axis n is divergence-free, and
//! ∇×∇×A = −∇²A = −∇×(x∇²ψ). Its eigenmodes have
//! T = j_l(kr)·y_l(kr_i) − y_l(kr)·j_l(kr_i), which vanishes at r_i; the
//! conducting wall freezes A at both walls, so T(r_o) = 0 picks k as the
//! first root of j_l(kr_i)·y_l(kr_o) − j_l(kr_o)·y_l(kr_i). The magnetic
//! energy then decays at exactly 2ηk².
//!
//! A is written on every node of both panels from its Cartesian form,
//! l = 1: A ∝ (T/r)(n×x) and l = 2: A ∝ (T/r²)(n·x)(n×x), with n mapped
//! into each panel's frame, so it is single-valued across Yin and Yang.
//! (Written as T̃(r)·r̂×∇Y_l with the full gradient ∇, the profile is
//! T̃ = r·T: one more power of 1/r in the Cartesian form belongs to T̃,
//! not to T.) At a 90° tilt the field crosses the seam, and the overset
//! interpolation is inside the measured rate.

use geomath::yinyang::yinyang_cartesian;
use geomath::{SphericalBasis, SphericalPoint, Vec3};
use yycore::{RunConfig, SerialSim};

/// Spherical Bessel functions `(j_l(x), y_l(x))` for l = 1, 2.
fn bessel(l: u32, x: f64) -> (f64, f64) {
    let (s, c) = x.sin_cos();
    match l {
        1 => (s / (x * x) - c / x, -c / (x * x) - s / x),
        2 => {
            let a = 3.0 / (x * x) - 1.0;
            (
                a * s / x - 3.0 * c / (x * x),
                -a * c / x - 3.0 * s / (x * x),
            )
        }
        _ => unreachable!("closed forms for l = 1, 2 only"),
    }
}

/// The radial profile `T(r)` of wavenumber `k`; zero at `ri` by
/// construction.
fn profile(l: u32, k: f64, ri: f64, r: f64) -> f64 {
    let (j, y) = bessel(l, k * r);
    let (ji, yi) = bessel(l, k * ri);
    j * yi - y * ji
}

/// The smallest `k > 0` with `T(ro) = 0`: a scan for the first sign
/// change, then bisection to round-off.
fn first_root(l: u32, ri: f64, ro: f64) -> f64 {
    let f = |k: f64| profile(l, k, ri, ro);
    let step = 0.05;
    let mut lo = step;
    while f(lo) * f(lo + step) > 0.0 {
        lo += step;
        assert!(lo < 100.0, "no root below k = 100");
    }
    let mut hi = lo + step;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(lo) * f(mid) <= 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// One free-decay run: the mode (l, tilt of its axis from the Yin pole)
/// on a grid of `nth` nominal colatitude nodes, with the radial and
/// angular spacings halved together as `nth − 1` doubles.
struct Case {
    l: u32,
    tilt_deg: f64,
    nth: usize,
}

/// Base state at rest: no gravity and a conductive profile only a
/// hundredth from isothermal, so the flow stays negligible; η is raised
/// (and is the largest diffusivity, so it sets dt) to keep the window
/// short in wall time. The one-cell extension keeps the ghost column,
/// whose sin θ bounds the CFL step, furthest from the pole.
fn config(nth: usize) -> RunConfig {
    let mut cfg = RunConfig::small();
    let m = (nth - 1) / 8; // 1, 2, 4: the refinement level
    (cfg.nth_nominal, cfg.nr, cfg.ext) = (nth, 7 * m + 1, 1);
    cfg.params.g0 = 0.0;
    cfg.params.t_inner = 1.01;
    cfg.params.eta = 0.05;
    cfg.init.perturb_amplitude = 0.0;
    cfg.init.seed_amplitude = 0.0;
    cfg.cfl = 1.0;
    cfg
}

/// Write A = ∇(T·Y_l)×x (up to a constant) on every node of both
/// panels, walls and frames included.
fn seed_mode(sim: &mut SerialSim, l: u32, k: f64, axis: Vec3) {
    let ri = sim.cfg.params.ri;
    let grid = &sim.grid;
    let shape = sim.yin.shape();
    let (gth, gph) = (shape.gth as isize, shape.gph as isize);
    // The Yang frame is the Yin frame under the involution (−x, z, y),
    // a rotation, so n×x and n·x map with it.
    for (state, n) in [
        (&mut sim.yin, axis),
        (&mut sim.yang, yinyang_cartesian(axis)),
    ] {
        for k_ph in -gph..shape.nph as isize + gph {
            for j in -gth..shape.nth as isize + gth {
                let (theta, phi) = (grid.theta().coord_signed(j), grid.phi().coord_signed(k_ph));
                let basis = SphericalBasis::at(theta, phi);
                for i in 0..shape.nr {
                    let r = grid.r().coord(i);
                    let x = SphericalPoint::new(r, theta, phi).to_cartesian();
                    let t = 1e-8 * profile(l, k, ri, r);
                    let a = n.cross(x) * (t * n.dot(x).powi(l as i32 - 1) / r.powi(l as i32));
                    let (ar, at, ap) = basis.from_cartesian(a);
                    state.a.r.set(i, j, k_ph, ar);
                    state.a.t.set(i, j, k_ph, at);
                    state.a.p.set(i, j, k_ph, ap);
                }
            }
        }
    }
}

/// The measured and the exact energy decay rate of `case`. The rate is
/// the least-squares slope of ln E_mag over t ∈ [τ/16, τ/8], τ = 1/(2ηk²)
/// the exact e-folding time: by τ/16 the grid-scale transients of the
/// sampled (not discrete) eigenmode have died out. Every grid steps the
/// same window with a fixed dt at or under its CFL step.
fn decay_rates(case: &Case) -> (f64, f64) {
    let cfg = config(case.nth);
    let (ri, eta) = (cfg.params.ri, cfg.params.eta);
    let k = first_root(case.l, ri, 1.0);
    let exact = 2.0 * eta * k * k;
    let mut sim = SerialSim::new(cfg);
    let tilt = case.tilt_deg.to_radians();
    seed_mode(&mut sim, case.l, k, Vec3::new(tilt.sin(), 0.0, tilt.cos()));
    let skip = 1.0 / (16.0 * exact);
    let per_skip = (skip / sim.auto_dt()).ceil() as u64;
    let dt = skip / per_skip as f64;
    let mut samples = Vec::new();
    for step in 1..=2 * per_skip {
        sim.advance(dt);
        if step >= per_skip {
            samples.push((sim.time, sim.diagnostics().magnetic.ln()));
        }
    }
    let n = samples.len() as f64;
    let (st, se) = samples
        .iter()
        .fold((0.0, 0.0), |(a, b), &(t, e)| (a + t, b + e));
    let (mt, me) = (st / n, se / n);
    let (num, den) = samples.iter().fold((0.0, 0.0), |(a, b), &(t, e)| {
        (a + (t - mt) * (e - me), b + (t - mt) * (t - mt))
    });
    (-num / den, exact)
}

fn relative_error(case: &Case) -> f64 {
    let (measured, exact) = decay_rates(case);
    let err = (measured - exact).abs() / exact;
    eprintln!(
        "l={} tilt={:>2}° nth={:>2}: rate {measured:.6} vs exact {exact:.6}, rel err {err:.3e}",
        case.l, case.tilt_deg, case.nth
    );
    err
}

/// The tier-1 pair: l = 1 with its axis on the Yin equator, so the field
/// crosses the seam; halving the spacing must cut the rate error to at
/// most 0.35 of the coarse grid's (second order gives 0.25).
#[test]
fn free_decay_rate_converges_across_the_seam() {
    let coarse = relative_error(&Case {
        l: 1,
        tilt_deg: 90.0,
        nth: 9,
    });
    let fine = relative_error(&Case {
        l: 1,
        tilt_deg: 90.0,
        nth: 17,
    });
    assert!(
        fine <= 0.35 * coarse,
        "free-decay rate error {coarse:.3e} -> {fine:.3e} on halving the spacing \
         (ratio {:.2}, want <= 0.35)",
        fine / coarse
    );
}

/// The three-grid study: l ∈ {1, 2} × tilt ∈ {0°, 90°}, observed order
/// of the rate error ≥ 1.9 on the finer pair.
#[test]
#[ignore = "three-grid study, minutes in debug; scripts/ci.sh runs it in release"]
fn free_decay_rate_is_second_order_for_l1_l2_at_both_tilts() {
    for l in [1, 2] {
        for tilt_deg in [0.0, 90.0] {
            let errs = [9, 17, 33].map(|nth| relative_error(&Case { l, tilt_deg, nth }));
            let order = (errs[1] / errs[2]).log2();
            let errs = errs.map(|e| format!("{e:.3e}")).join(" -> ");
            eprintln!("l={l} tilt={tilt_deg}°: observed order {order:.2} ({errs})");
            assert!(
                order >= 1.9,
                "l={l} tilt={tilt_deg}°: order {order:.2} ({errs})"
            );
        }
    }
}
