//! Classical 4th-order Runge–Kutta on flat state vectors.
//!
//! The paper integrates the MHD system with classical RK4. The solver
//! crates use the same Butcher tableau but drive it through their own
//! staged loop (they must refill ghost zones between stages); this module
//! provides the reference step used for convergence testing, plus the
//! tableau constants shared with the PDE integrator.

/// RK4 stage weights `(b1, b2, b3, b4) = (1/6, 1/3, 1/3, 1/6)`.
pub const RK4_WEIGHTS: [f64; 4] = [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0];

/// RK4 stage abscissae `(0, 1/2, 1/2, 1)` — the fraction of `dt` at which
/// each stage's state is evaluated.
pub const RK4_NODES: [f64; 4] = [0.0, 0.5, 0.5, 1.0];

/// Advance `y` by one RK4 step of size `dt` under `rhs(t, y, dydt)`.
///
/// `rhs` must write the derivative of every component into `dydt`.
/// Scratch storage is caller-provided via `work` (4 stage slopes + 1 stage
/// state, each `y.len()` long) so repeated stepping does not allocate.
pub fn rk4_step<F>(t: f64, dt: f64, y: &mut [f64], work: &mut Rk4Work, mut rhs: F)
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    let n = y.len();
    work.ensure(n);
    let Rk4Work { k1, k2, k3, k4, stage } = work;

    rhs(t, y, k1);
    for i in 0..n {
        stage[i] = y[i] + 0.5 * dt * k1[i];
    }
    rhs(t + 0.5 * dt, stage, k2);
    for i in 0..n {
        stage[i] = y[i] + 0.5 * dt * k2[i];
    }
    rhs(t + 0.5 * dt, stage, k3);
    for i in 0..n {
        stage[i] = y[i] + dt * k3[i];
    }
    rhs(t + dt, stage, k4);
    for i in 0..n {
        y[i] += dt
            * (RK4_WEIGHTS[0] * k1[i]
                + RK4_WEIGHTS[1] * k2[i]
                + RK4_WEIGHTS[2] * k3[i]
                + RK4_WEIGHTS[3] * k4[i]);
    }
}

/// Reusable scratch buffers for [`rk4_step`].
#[derive(Debug, Default, Clone)]
pub struct Rk4Work {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    stage: Vec<f64>,
}

impl Rk4Work {
    /// Allocate buffers for state vectors of length `n`.
    pub fn new(n: usize) -> Self {
        let mut w = Rk4Work::default();
        w.ensure(n);
        w
    }

    fn ensure(&mut self, n: usize) {
        for buf in [&mut self.k1, &mut self.k2, &mut self.k3, &mut self.k4, &mut self.stage] {
            if buf.len() != n {
                buf.resize(n, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// `steps` equal RK4 steps from t = 0 to `t1`.
    fn integrate(t1: f64, steps: usize, y: &mut [f64], rhs: impl Fn(f64, &[f64], &mut [f64])) {
        let dt = t1 / steps as f64;
        let mut work = Rk4Work::new(y.len());
        for n in 0..steps {
            rk4_step(n as f64 * dt, dt, y, &mut work, &rhs);
        }
    }

    #[test]
    fn exponential_decay_exact_to_fourth_order() {
        // y' = −y, y(0) = 1 → y(1) = e⁻¹.
        let run = |steps: usize| {
            let mut y = [1.0];
            integrate(1.0, steps, &mut y, |_, y, dy| dy[0] = -y[0]);
            (y[0] - (-1.0_f64).exp()).abs()
        };
        let (e1, e2) = (run(10), run(20));
        let rate = (e1 / e2).log2();
        assert!(rate > 3.9 && rate < 4.2, "convergence rate {rate}");
    }

    #[test]
    fn harmonic_oscillator_conserves_energy_well() {
        // y'' = −y as a system; RK4 has tiny energy drift per period.
        let mut y = [1.0, 0.0];
        integrate(2.0 * std::f64::consts::PI, 200, &mut y, |_, y, dy| {
            dy[0] = y[1];
            dy[1] = -y[0];
        });
        assert!(approx_eq(y[0], 1.0, 1e-7));
        assert!(approx_eq(y[1], 0.0, 1e-7));
    }

    #[test]
    fn time_dependent_rhs_uses_stage_times() {
        // y' = t → y(1) = y(0) + 1/2, exactly reproduced by RK4
        // only if the stage times are fed correctly.
        let mut y = [0.0];
        let mut work = Rk4Work::new(1);
        rk4_step(0.0, 1.0, &mut y, &mut work, |t, _, dy| dy[0] = t);
        assert!(approx_eq(y[0], 0.5, 1e-14));
    }

    #[test]
    fn work_buffers_resize_on_demand() {
        let mut work = Rk4Work::default();
        let mut y = vec![1.0; 7];
        rk4_step(0.0, 0.1, &mut y, &mut work, |_, y, dy| {
            for i in 0..y.len() {
                dy[i] = -y[i];
            }
        });
        assert!(y.iter().all(|&v| v < 1.0 && v > 0.89));
    }

    #[test]
    fn weights_sum_to_one() {
        let s: f64 = RK4_WEIGHTS.iter().sum();
        assert!(approx_eq(s, 1.0, 1e-15));
    }
}
