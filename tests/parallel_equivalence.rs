//! Cross-crate integration: the flat-MPI-style parallel driver is
//! equivalent to the serial reference under decompositions and
//! configurations beyond what the crate-level tests exercise.

use yy_mhd::MagneticBc;
use yycore::{run_parallel, RunConfig, SerialSim};

fn cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 2e-2;
    cfg.init.seed_amplitude = 1e-4;
    cfg
}

/// Asymmetric decomposition (3 × 2 — six tiles per panel, twelve ranks)
/// with a magnetic seed active, conducting magnetic walls, over enough
/// steps that every communication path (halo corners, overset ghost
/// frames, dt reduction) has fired repeatedly.
#[test]
fn asymmetric_decomposition_matches_serial_bitwise() {
    let mut cfg = cfg();
    cfg.nth_nominal = 17; // enough rows for a 3-way θ split
    cfg.mag_bc = MagneticBc::ConductingWall;
    let mut serial = SerialSim::new(cfg.clone());
    serial.run(4, 0);
    let rep = run_parallel(&cfg, 3, 2, 4, 0, true);
    let yin = rep.yin.expect("gathered yin");
    let yang = rep.yang.expect("gathered yang");
    let (_, nth, nph) = serial.grid.dims();
    for (ser, par) in [(&serial.yin, &yin), (&serial.yang, &yang)] {
        for (sa, pa) in ser.arrays().into_iter().zip(par.arrays()) {
            for k in 0..nph as isize {
                for j in 0..nth as isize {
                    for i in 0..cfg.nr {
                        assert_eq!(sa.at(i, j, k), pa.at(i, j, k), "node ({i},{j},{k})");
                    }
                }
            }
        }
    }
}

/// The communication volume accounting is self-consistent: overset bytes
/// are independent of the intra-panel decomposition (the frame is fixed),
/// while halo bytes grow with the number of internal tile boundaries.
#[test]
fn traffic_scales_with_decomposition() {
    let cfg = cfg();
    let a = run_parallel(&cfg, 1, 2, 2, 0, false).report;
    let b = run_parallel(&cfg, 2, 2, 2, 0, false).report;
    assert!(b.halo_bytes > a.halo_bytes, "more tiles → more halo traffic");
    // Overset volume is decomposition-independent up to the ghost-frame
    // duplicates along tile seams (a few percent).
    let rel = (b.overset_bytes as f64 - a.overset_bytes as f64) / a.overset_bytes as f64;
    assert!(
        (0.0..0.35).contains(&rel),
        "overset bytes {} vs {} (rel {rel})",
        a.overset_bytes,
        b.overset_bytes
    );
}

/// Diagnostics reduce identically regardless of rank count.
#[test]
fn reduced_diagnostics_are_decomposition_invariant() {
    let cfg = cfg();
    let a = run_parallel(&cfg, 1, 2, 3, 1, false).report;
    let b = run_parallel(&cfg, 2, 3, 3, 1, false).report;
    assert_eq!(a.series.len(), b.series.len());
    for (pa, pb) in a.series.iter().zip(&b.series) {
        assert_eq!(pa.step, pb.step);
        assert!(geomath::approx_eq(pa.diag.kinetic, pb.diag.kinetic, 1e-12));
        assert!(geomath::approx_eq(pa.diag.magnetic, pb.diag.magnetic, 1e-12));
        assert_eq!(pa.diag.max_speed, pb.diag.max_speed);
        assert_eq!(pa.dt, pb.dt, "dt must be decomposition-invariant");
    }
}
