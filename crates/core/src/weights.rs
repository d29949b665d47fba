//! Measured-cost column weights for the elastic partitioner.
//!
//! [`Decomp2D::weighted`] balances arbitrary per-row/per-column costs;
//! this module derives those costs from the per-kernel performance
//! counters of a short serial probe run. Stencil work (the RHS sweep,
//! which the RK4 combine runs inside of, and the health scan) spreads
//! uniformly over every column; overset interpolation work is
//! attributed to the donor and target columns the schedule actually
//! touches, which is what makes the panel edges measurably heavier than
//! the interior and the weighted cuts non-uniform.
//!
//! The probe's wall-clock numbers are nondeterministic, but they only
//! move *cut boundaries* — the trajectory is decomposition-invariant
//! (proved bitwise by the kernel-exactness harness), so a measured
//! layout never perturbs the physics.

use crate::config::RunConfig;
use crate::serial::SerialSim;
use yy_mesh::{build_overset_columns, Decomp2D, PatchGrid};
use yy_obs::counters::{kernel, CounterSnapshot};

/// Per-column cost map of one panel (both panels are congruent, so one
/// map serves both).
#[derive(Debug, Clone)]
pub struct ColumnCosts {
    /// Owned colatitude node count.
    pub nth: usize,
    /// Owned longitude node count.
    pub nph: usize,
    /// Cost of column `(j, k)` at `j * nph + k`, arbitrary units.
    w: Vec<f64>,
}

impl ColumnCosts {
    /// Every column costs the same — reproduces the uniform layout.
    pub fn uniform(grid: &PatchGrid) -> Self {
        let (_, nth, nph) = grid.dims();
        ColumnCosts { nth, nph, w: vec![1.0; nth * nph] }
    }

    /// Derive costs from a measured kernel-counter snapshot. Stencil
    /// kernels spread evenly over the `2·nth·nph` columns of both
    /// panels; overset donate/fill costs land on the donor/target
    /// columns of the interpolation schedule. Falls back from wall time
    /// to FLOP counts per kernel when a kernel recorded no wall time.
    pub fn from_snapshot(snap: &CounterSnapshot, grid: &PatchGrid) -> Self {
        let (_, nth, nph) = grid.dims();
        let cost_of = |id: u8| {
            let k = &snap.kernels[id as usize];
            if k.wall_ns > 0 {
                k.wall_ns as f64
            } else {
                k.flops as f64
            }
        };
        // The RK4 combine's wall time is inside the RHS timer.
        let stencil = cost_of(kernel::RHS) + cost_of(kernel::HEALTH_SCAN);
        let base = (stencil / (2 * nth * nph) as f64).max(1.0);
        let mut w = vec![base; nth * nph];
        let cols = build_overset_columns(grid)
            .unwrap_or_else(|e| panic!("invalid Yin-Yang configuration: {e}"));
        if !cols.is_empty() {
            // Both directions interpolate every column once per fill:
            // 2·cols jobs share the measured donate/fill cost.
            let donate = cost_of(kernel::OVERSET_DONATE) / (2 * cols.len()) as f64;
            let fill = cost_of(kernel::OVERSET_FILL) / (2 * cols.len()) as f64;
            for c in &cols {
                if c.don_j < nth && c.don_k < nph {
                    w[c.don_j * nph + c.don_k] += donate;
                }
                if c.tgt_j < nth && c.tgt_k < nph {
                    w[c.tgt_j * nph + c.tgt_k] += fill;
                }
            }
        }
        ColumnCosts { nth, nph, w }
    }

    /// Run a short serial probe with counters armed and derive the cost
    /// map from what it measured.
    pub fn measure(cfg: &RunConfig, probe_steps: u64) -> Self {
        let mut sim = SerialSim::new(cfg.clone());
        let report = sim.run(probe_steps.max(1), 0);
        Self::from_snapshot(&report.kernels, &cfg.grid())
    }

    /// Marginal cost of each θ row (summed over φ) — the θ weight vector
    /// for [`Decomp2D::weighted`].
    pub fn theta_marginal(&self) -> Vec<f64> {
        (0..self.nth)
            .map(|j| self.w[j * self.nph..(j + 1) * self.nph].iter().sum())
            .collect()
    }

    /// Marginal cost of each φ column (summed over θ).
    pub fn phi_marginal(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.nph];
        for j in 0..self.nth {
            for k in 0..self.nph {
                m[k] += self.w[j * self.nph + k];
            }
        }
        m
    }

    /// Build the measured-cost decomposition for a `pth × pph` layout.
    pub fn decompose(&self, pth: usize, pph: usize, grid: &PatchGrid) -> Decomp2D {
        Decomp2D::weighted(pth, pph, grid, &self.theta_marginal(), &self.phi_marginal())
    }

    /// Total modeled cost of one tile under this map.
    pub fn tile_cost(&self, d: &Decomp2D, rank: usize) -> f64 {
        let t = d.tile(rank);
        let mut sum = 0.0;
        for j in t.j0..t.j0 + t.nth {
            for k in t.k0..t.k0 + t.nph {
                sum += self.w[j * self.nph + k];
            }
        }
        sum
    }

    /// Predicted load imbalance of a decomposition under this cost map:
    /// the heaviest tile's cost over the mean tile cost (1.0 = perfectly
    /// balanced; the parallel run's achieved imbalance is the same ratio
    /// over measured per-rank compute time).
    pub fn predicted_imbalance(&self, d: &Decomp2D) -> f64 {
        let tiles = d.tiles();
        let costs: Vec<f64> = (0..tiles).map(|r| self.tile_cost(d, r)).collect();
        let total: f64 = costs.iter().sum();
        if !(total > 0.0) {
            return 1.0;
        }
        let mean = total / tiles as f64;
        costs.iter().cloned().fold(0.0_f64, f64::max) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yy_obs::counters::{CounterSet, KernelTally};

    fn grid() -> PatchGrid {
        RunConfig::small().grid()
    }

    fn synthetic_snapshot() -> CounterSnapshot {
        let set = CounterSet::enabled();
        set.add(
            kernel::RHS,
            KernelTally {
                points: 1000,
                loops: 100,
                vector_elements: 1000,
                flops: 640_000,
                bytes_read: 8000,
                bytes_written: 8000,
            },
        );
        set.add(
            kernel::OVERSET_DONATE,
            KernelTally {
                points: 100,
                loops: 10,
                vector_elements: 100,
                flops: 50_000,
                bytes_read: 800,
                bytes_written: 800,
            },
        );
        set.add(
            kernel::OVERSET_FILL,
            KernelTally {
                points: 100,
                loops: 10,
                vector_elements: 100,
                flops: 30_000,
                bytes_read: 800,
                bytes_written: 800,
            },
        );
        set.snapshot()
    }

    #[test]
    fn uniform_costs_predict_near_perfect_balance() {
        let g = grid();
        let c = ColumnCosts::uniform(&g);
        let d = Decomp2D::new(2, 2, &g);
        let imb = c.predicted_imbalance(&d);
        // Near-equal node counts: tiles differ by at most one row/column.
        assert!(imb >= 1.0 && imb < 1.2, "uniform imbalance {imb}");
    }

    #[test]
    fn overset_attribution_makes_edge_columns_heavier() {
        let g = grid();
        let c = ColumnCosts::from_snapshot(&synthetic_snapshot(), &g);
        let th = c.theta_marginal();
        let ph = c.phi_marginal();
        let (_, nth, nph) = g.dims();
        assert_eq!(th.len(), nth);
        assert_eq!(ph.len(), nph);
        // The overset frame lives at the panel edges: the first/last θ
        // rows must carry more cost than the interior median row.
        let mid = th[nth / 2];
        assert!(
            th[0] > mid || th[nth - 1] > mid,
            "edge rows must be heavier: {:?}",
            &th[..3]
        );
        assert!(th.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn weighted_cuts_reduce_predicted_imbalance_for_skewed_costs() {
        let g = grid();
        let c = ColumnCosts::from_snapshot(&synthetic_snapshot(), &g);
        let uni = Decomp2D::new(2, 2, &g);
        let wtd = c.decompose(2, 2, &g);
        let imb_u = c.predicted_imbalance(&uni);
        let imb_w = c.predicted_imbalance(&wtd);
        assert!(
            imb_w <= imb_u + 1e-9,
            "weighted cuts must not worsen the modeled balance: {imb_w} vs {imb_u}"
        );
        assert!(imb_w >= 1.0);
    }

    #[test]
    fn measured_probe_produces_usable_weights() {
        let mut cfg = RunConfig::small();
        cfg.init.perturb_amplitude = 1e-2;
        let c = ColumnCosts::measure(&cfg, 1);
        let d = c.decompose(1, 2, &cfg.grid());
        assert_eq!(d.tiles(), 2);
        assert!(c.predicted_imbalance(&d).is_finite());
    }
}
