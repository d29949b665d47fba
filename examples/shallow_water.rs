//! Shallow-water validation on the Yin-Yang grid (the system the paper's
//! ref. [14] used to validate the grid): Williamson test case 2, steady
//! geostrophic flow, for a sweep of rotation-axis tilts including the
//! α = 90° pole-crossing case.
//!
//! ```text
//! cargo run --release --example shallow_water [t_end=2.0]
//! ```

use geomath::Vec3;
use yy_mesh::{PatchGrid, PatchSpec};
use yy_rigs::shallow::{williamson_tc2, ShallowSim};

fn main() {
    let mut t_end: f64 = 2.0;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("t_end=") {
            t_end = v.parse().expect("t_end must be a number");
        }
    }
    let (omega, g, h0, u0) = (1.0, 1.0, 1.0, 0.2);
    println!("# Williamson TC2 on the Yin-Yang grid: steady geostrophic flow");
    println!("# omega={omega} g={g} h0={h0} u0={u0}, integrated to t={t_end}");
    println!("# tilt(deg)   nth   l2 depth error   rate");
    for tilt_deg in [0.0_f64, 45.0, 90.0] {
        let tilt = tilt_deg.to_radians();
        let axis = Vec3::new(tilt.sin(), 0.0, tilt.cos());
        let mut prev: Option<f64> = None;
        for nth in [13_usize, 25, 49] {
            let grid = PatchGrid::new(PatchSpec::equal_spacing(2, nth, 0.9, 1.0));
            let mut sim = ShallowSim::new(grid, axis, omega, g);
            let (h_exact, v_exact) = williamson_tc2(axis, omega, g, h0, u0);
            sim.set_state(&h_exact, &v_exact);
            let dt = 0.25 * sim.grid().theta().spacing() * 0.7;
            while sim.time < t_end {
                sim.advance(dt);
            }
            let (l2, _) = sim.depth_error(&h_exact);
            let rate = prev.map(|p: f64| (p / l2).log2());
            println!(
                "#   {tilt_deg:5.1}   {nth:4}   {l2:.4e}       {}",
                rate.map(|r| format!("{r:.2}")).unwrap_or_else(|| "-".into())
            );
            prev = Some(l2);
        }
    }
    println!("# (the 90-degree tilt runs the jet straight over both poles — Yang territory)");
}
