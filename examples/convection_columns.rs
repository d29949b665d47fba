//! Reproduce the content of Fig. 2: columnar convection cells in a
//! rotating spherical shell, viewed in the equatorial plane.
//!
//! Runs a rotating-convection simulation (dynamo terms active but with a
//! negligible seed field, as in the early phase of the paper's runs),
//! then writes:
//!
//! * `out/fig2_equatorial_wz.ppm`  — axial-vorticity disk (the paper's
//!   cyclonic/anticyclonic column colors),
//! * `out/fig2_equatorial_t.ppm`   — temperature disk,
//! * `out/fig2_equatorial.csv`     — raw slice data,
//!
//! and prints the detected number of convection columns.
//!
//! ```text
//! cargo run --release --example convection_columns [steps=N] [key=value...]
//! ```

use std::path::PathBuf;
use yy_mesh::{Metric, Panel};
use yycore::snapshots::{
    axial_vorticity, count_convection_columns, equatorial_disk_ppm, orthographic_shell_ppm,
    sample_equatorial, temperature,
};
use yycore::{RunConfig, SerialSim};

fn main() {
    let mut steps: u64 = 300;
    let mut cfg = RunConfig::medium();
    // Vigorous rotating convection (the laptop defaults at a faster
    // rotation), negligible magnetic field.
    cfg.params.omega = 4.0;
    cfg.init.perturb_amplitude = 5e-2;
    cfg.init.seed_amplitude = 0.0;

    let mut passthrough = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("steps=") {
            steps = v.parse().expect("steps must be an integer");
        } else {
            passthrough.push(arg);
        }
    }
    cfg.apply_args(passthrough).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let out = PathBuf::from("out");
    std::fs::create_dir_all(&out).expect("create out/");

    println!("# rotating convection, {} grid points, {steps} steps", cfg.grid().total_points());
    let mut sim = SerialSim::new(cfg);
    let report = sim.run(steps, (steps / 10).max(1));
    let last = report.series.last().expect("series").diag;
    println!(
        "# t = {:.4}: kinetic {:.3e}, max|v| {:.3}",
        report.time, last.kinetic, last.max_speed
    );

    // Axial vorticity on both panels → equatorial composite.
    let metric = Metric::full(&sim.grid);
    let wz_yin = axial_vorticity(&sim.yin, &sim.grid, &metric, Panel::Yin);
    let wz_yang = axial_vorticity(&sim.yang, &sim.grid, &metric, Panel::Yang);
    let eq_wz = sample_equatorial(&wz_yin, &wz_yang, &sim.grid, 512);
    equatorial_disk_ppm(&eq_wz, &out.join("fig2_equatorial_wz.ppm"), 512)
        .expect("write vorticity disk");

    let t_yin = temperature(&sim.yin);
    let t_yang = temperature(&sim.yang);
    let eq_t = sample_equatorial(&t_yin, &t_yang, &sim.grid, 512);
    equatorial_disk_ppm(&eq_t, &out.join("fig2_equatorial_t.ppm"), 512)
        .expect("write temperature disk");

    std::fs::write(out.join("fig2_equatorial.csv"), eq_wz.to_csv()).expect("write csv");

    // Fig. 2(b): the same vorticity data viewed from 45°N, on a mid-shell
    // spherical surface in orthographic projection.
    let mid = sim.grid.spec().nr / 2;
    orthographic_shell_ppm(
        &wz_yin,
        &wz_yang,
        &sim.grid,
        mid,
        45_f64.to_radians(),
        20_f64.to_radians(),
        &out.join("fig2_45N_wz.ppm"),
        512,
    )
    .expect("write 45N view");

    let columns = count_convection_columns(eq_wz.mid_shell_ring(), 0.2);
    let mode = yy_mhd::spectra::dominant_mode(eq_wz.mid_shell_ring(), 40);
    let centroid = yy_mhd::spectra::spectral_centroid(eq_wz.mid_shell_ring(), 40);
    println!(
        "# convection columns at mid-shell: {columns} (sign count); \
         dominant azimuthal mode m = {mode}, spectral centroid {centroid:.1}"
    );
    println!(
        "# wrote out/fig2_equatorial_wz.ppm, fig2_equatorial_t.ppm, fig2_45N_wz.ppm, \
         fig2_equatorial.csv"
    );
}
