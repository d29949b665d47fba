//! Properties of the per-kernel performance counters.
//!
//! Two invariants make the counter subsystem trustworthy as the
//! repo's software `MPIPROGINF`:
//!
//! 1. **Conservation** — the per-kernel FLOP cells sum exactly to the
//!    aggregate `RunReport.flops`. Both views are fed from the same
//!    `Meters::kernel` call, so any drift means a kernel site reports
//!    to one view and not the other.
//! 2. **Decomposition invariance** — FLOP tallies follow the
//!    owned-node convention, so the global per-kernel totals of a
//!    serial run and of parallel runs at different process grids are
//!    *bit-exactly* equal. (Byte counts for the halo kernels are the
//!    documented exception: ghost traffic genuinely depends on the
//!    decomposition.)

use yy_obs::Kernel;
use yycore::{run_parallel, RunConfig, SerialSim};

fn quick_cfg() -> RunConfig {
    let mut cfg = RunConfig::small();
    cfg.init.perturb_amplitude = 1e-2;
    cfg
}

const STEPS: u64 = 3;

#[test]
fn per_kernel_flops_sum_exactly_to_the_aggregate() {
    let mut sim = SerialSim::new(quick_cfg());
    let report = sim.run(STEPS, 0);
    assert!(report.flops > 0, "serial run must count flops");
    assert_eq!(
        report.kernels.total_flops(),
        report.flops,
        "per-kernel cells must sum exactly to the aggregate meter"
    );
    // Every compute kernel was exercised; halo kernels carry no flops
    // anywhere (serial has no halos at all).
    for id in [Kernel::Rhs, Kernel::Rk4Combine, Kernel::OversetDonate, Kernel::HealthScan] {
        let k = &report.kernels.kernels[id as usize];
        assert!(k.calls > 0 && k.flops > 0, "{} must be exercised", id.name());
    }
    for id in [Kernel::HaloPack, Kernel::HaloUnpack] {
        assert_eq!(report.kernels.kernels[id as usize].calls, 0);
    }
}

#[test]
fn per_kernel_totals_are_decomposition_invariant() {
    let cfg = quick_cfg();
    let mut sim = SerialSim::new(cfg.clone());
    let serial = sim.run(STEPS, 0);
    let p12 = run_parallel(&cfg, 1, 2, STEPS, 0, false);
    let p22 = run_parallel(&cfg, 2, 2, STEPS, 0, false);

    for (tag, par) in [("1x2", &p12.report), ("2x2", &p22.report)] {
        // The parallel conservation law holds per decomposition too.
        assert_eq!(
            par.kernels.total_flops(),
            par.flops,
            "{tag}: per-kernel cells must sum to the aggregate"
        );
        for id in Kernel::ALL {
            let s = &serial.kernels.kernels[id as usize];
            let p = &par.kernels.kernels[id as usize];
            assert_eq!(
                s.flops,
                p.flops,
                "{tag}: {} global FLOP total must match serial exactly",
                id.name()
            );
        }
        // Owned-node point tallies are decomposition-invariant as well —
        // overset included, since its counters tally owned-target jobs
        // only (halo tallies depend on how the boundary is cut).
        for id in [
            Kernel::Rhs,
            Kernel::Rk4Combine,
            Kernel::OversetDonate,
            Kernel::OversetFill,
            Kernel::HealthScan,
        ] {
            let s = &serial.kernels.kernels[id as usize];
            let p = &par.kernels.kernels[id as usize];
            assert_eq!(s.points, p.points, "{tag}: {} points", id.name());
            // Vector-element tallies are per-point models (a P-pass fused
            // sweep counts P·points), so they are decomposition-invariant
            // everywhere — including the fused RHS and the fused RK4
            // combine, whose pass structure must not leak into the model.
            assert_eq!(
                s.vector_elements,
                p.vector_elements,
                "{tag}: {} vector_elements",
                id.name()
            );
            // Loop counts (and hence equivalent vector length) are a
            // property of the sweep structure — which the overlapped
            // pipeline keeps: its deep box and shell bands all span the
            // full radial extent, so the RHS makes the same radial
            // passes per column as the serial sweep.
            assert_eq!(s.loops, p.loops, "{tag}: {} loops", id.name());
        }
    }

    // And the two decompositions agree with each other on everything
    // global, including the overset interpolation volume.
    for id in Kernel::ALL {
        let a = &p12.report.kernels.kernels[id as usize];
        let b = &p22.report.kernels.kernels[id as usize];
        assert_eq!(a.flops, b.flops, "{} flops 1x2 vs 2x2", id.name());
    }
    for id in [Kernel::OversetDonate, Kernel::OversetFill] {
        let a = &p12.report.kernels.kernels[id as usize];
        let b = &p22.report.kernels.kernels[id as usize];
        assert_eq!(a.points, b.points, "{} points 1x2 vs 2x2", id.name());
    }
}

/// The measured-run → ES-projection route `yycore tables` takes. Both
/// readings are pure functions of the exact counters, not of the host:
/// a projection outside the paper's window means the flop accounting
/// changed; an RHS intensity under 2.0 flops/byte (the fused
/// sweep models 2.76, the unfused one 1.25) means per-leg stencil
/// billing came back without the model being retuned.
#[test]
fn measured_profile_projects_into_the_flagship_window() {
    use yy_esmodel::model::{project, RunShape};
    use yy_esmodel::{in_flagship_window, EsMachine, EsModelParams, KernelProfile};

    let mut sim = SerialSim::new(quick_cfg());
    let interior = sim.interior_points();
    let report = sim.run(STEPS, 0);
    let measured = report.flops as f64 / (report.steps as f64 * interior as f64);
    let profile = KernelProfile::yycore_default().with_measured_flops(measured);
    let projection = project(
        &EsMachine::earth_simulator(),
        &EsModelParams::calibrated(),
        &profile,
        &RunShape::flagship(),
    );
    assert!(in_flagship_window(projection.tflops()), "{:.1} TFlops", projection.tflops());
    let rhs = report.kernels.kernels[Kernel::Rhs as usize].intensity();
    assert!(rhs > 2.0, "RHS intensity {rhs:.2} flops/byte");
}
