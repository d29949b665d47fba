//! The classical overset-grid accuracy test on the Yin-Yang pair:
//! advect a cosine bell once around the sphere on a tilted solid-body
//! wind (Williamson test case 1) and compare against the exact solution.
//!
//! With a tilted axis the bell's trajectory crosses the overset seams and
//! both polar caps — the route a latitude–longitude grid needs special
//! pole treatment for. A clean O(h²)-converging error is end-to-end
//! evidence that the Yin-Yang interpolation machinery adds no spurious
//! behaviour (the validation strategy of the papers the SC2004 paper
//! cites: Ohdaira et al. [14], Yoshida & Kageyama [21]).
//!
//! ```text
//! cargo run --release --example transport_validation [tilt_deg=45]
//! ```

use geomath::Vec3;
use yy_mesh::{PatchGrid, PatchSpec};
use yy_rigs::transport::{cosine_bell, TransportSim};

fn main() {
    let mut tilt_deg: f64 = 45.0;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("tilt_deg=") {
            tilt_deg = v.parse().expect("tilt_deg must be a number");
        }
    }
    let tilt = tilt_deg.to_radians();
    let axis = Vec3::new(tilt.sin(), 0.0, tilt.cos());
    let center = Vec3::new(0.0, 1.0, 0.0);

    println!("# cosine-bell advection, axis tilted {tilt_deg} deg from the polar axis");
    println!("# nth    steps   l2 error     linf error   rate");
    let mut prev: Option<f64> = None;
    for (nth, steps) in [(13, 300), (25, 600), (49, 1200)] {
        let grid = PatchGrid::new(PatchSpec::equal_spacing(4, nth, 0.9, 1.0));
        let mut sim = TransportSim::new(grid, axis, 1.0);
        sim.set_scalar(|x| cosine_bell(center, 0.9, x));
        sim.run_revolution(steps);
        let (l2, linf) = sim.error_norms(|x| cosine_bell(center, 0.9, x));
        let rate = prev.map(|p: f64| (p / l2).log2());
        println!(
            "# {nth:4}   {steps:5}   {l2:.4e}   {linf:.4e}   {}",
            rate.map(|r| format!("{r:.2}")).unwrap_or_else(|| "-".into())
        );
        prev = Some(l2);
    }
    println!("# (rate ≈ 2 is the scheme's formal order; the overset seams do not degrade it)");
}
