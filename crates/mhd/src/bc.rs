//! Physical boundary conditions at the shell walls `r = ri, ro`.
//!
//! The paper's model: both walls rotate rigidly with the frame (no-slip in
//! the rotating frame → `v = f = 0`), and wall temperatures are fixed
//! (hot inner, `T(ro) = 1` outer). We impose:
//!
//! * `f = 0` on both wall planes;
//! * `p = ρ_wall · T_wall` with the wall density frozen at its initial
//!   hydrostatic value (a Dirichlet treatment; together with `f = 0` the
//!   wall thermodynamic state is simply pinned — robust at 2nd order);
//! * perfectly conducting magnetic walls ([`MagneticBc::ConductingWall`]):
//!   tangential electric field zero, so the wall values of A stay frozen
//!   at the (tiny) initial seed. This is automatic because the RK4 update
//!   never touches the wall planes, so A is not written here at all.
//!
//! The radial wall planes are *not* evolved by the RHS (its interior
//! range is `1..nr−1`), so this function is the only writer of wall data
//! after initialization.

use crate::state::State;

/// Magnetic wall condition. It has one value, the paper's conducting
/// wall; the type stays so callers keep naming the condition they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MagneticBc {
    /// Perfectly conducting, line-tied walls: wall A frozen.
    #[default]
    ConductingWall,
}

/// Apply the physical wall conditions to `state`.
///
/// `t_inner` is the fixed inner-wall temperature; the outer wall is at the
/// normalized temperature 1. `mag_bc` has one value, under which A is
/// left as it is.
pub fn apply_physical_bc(state: &mut State, t_inner: f64, mag_bc: MagneticBc) {
    let MagneticBc::ConductingWall = mag_bc;
    let shape = state.shape();
    let nr = shape.nr;
    let (gth, gph) = (shape.gth as isize, shape.gph as isize);
    for k in -gph..(shape.nph as isize + gph) {
        for j in -gth..(shape.nth as isize + gth) {
            // No-slip co-rotating walls.
            for arr in [&mut state.f.r, &mut state.f.t, &mut state.f.p] {
                arr.set(0, j, k, 0.0);
                arr.set(nr - 1, j, k, 0.0);
            }
            // Fixed wall temperature: p = ρ T_wall.
            let p_in = state.rho.at(0, j, k) * t_inner;
            let p_out = state.rho.at(nr - 1, j, k) * 1.0;
            state.press.set(0, j, k, p_in);
            state.press.set(nr - 1, j, k, p_out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_field::Shape;

    fn dirty_state() -> State {
        let mut s = State::zeros(Shape::new(5, 3, 3, 1, 1));
        s.rho.fill(2.0);
        s.press.fill(9.0);
        for arr in s.arrays_mut() {
            arr.set(0, 0, 0, 7.0);
            arr.set(4, 2, 2, -7.0);
        }
        s
    }

    #[test]
    fn walls_are_no_slip_and_isothermal() {
        let mut s = dirty_state();
        apply_physical_bc(&mut s, 2.5, MagneticBc::ConductingWall);
        for j in -1..4_isize {
            for k in -1..4_isize {
                assert_eq!(s.f.r.at(0, j, k), 0.0);
                assert_eq!(s.f.t.at(4, j, k), 0.0);
                // p = ρ T_wall at both walls.
                assert_eq!(s.press.at(0, j, k), s.rho.at(0, j, k) * 2.5);
                assert_eq!(s.press.at(4, j, k), s.rho.at(4, j, k));
            }
        }
        // Interior untouched.
        assert_eq!(s.press.at(2, 1, 1), 9.0);
    }

    #[test]
    fn conducting_wall_freezes_a() {
        let mut s = dirty_state();
        let before_in = s.a.r.at(0, 1, 1);
        let before_out = s.a.p.at(4, 1, 1);
        apply_physical_bc(&mut s, 2.0, MagneticBc::ConductingWall);
        assert_eq!(s.a.r.at(0, 1, 1), before_in);
        assert_eq!(s.a.p.at(4, 1, 1), before_out);
    }

    /// Bitwise, on a state with noise in every array (ghost columns
    /// included): the rank pipeline applies the condition once per sync,
    /// the serial fill after every overset, and neither may change a bit
    /// a previous application already set.
    #[test]
    fn bc_is_idempotent() {
        for mag_bc in [MagneticBc::ConductingWall] {
            let mut s = State::zeros(Shape::new(7, 4, 5, 1, 1));
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            for arr in s.arrays_mut() {
                for v in arr.data_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *v = (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                }
            }
            apply_physical_bc(&mut s, 2.0, mag_bc);
            let once = s.clone();
            apply_physical_bc(&mut s, 2.0, mag_bc);
            for (a, b) in s.arrays().into_iter().zip(once.arrays()) {
                let same = a.data().iter().zip(b.data()).all(|(p, q)| p.to_bits() == q.to_bits());
                assert!(same, "{mag_bc:?}: second application changed a bit");
            }
        }
    }
}
