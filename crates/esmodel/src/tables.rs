//! Generators for Table I, Table II and Table III of the paper, and the
//! one sequence from a measured profile to everything it projects to.

use crate::machine::EsMachine;
use crate::model::{project, EsModelParams, KernelProfile, Projection, RunShape};
use crate::mpiproginf::{list1_text, ReportShape};

/// A published Table II row: `(procs, nr, TFlops, efficiency)` with the
/// horizontal grid fixed at 514 × 1538 × 2.
pub const TABLE2_PAPER: [(usize, usize, f64, f64); 6] = [
    (4096, 511, 15.2, 0.46),
    (3888, 511, 13.8, 0.44),
    (3888, 255, 12.1, 0.39),
    (2560, 511, 10.3, 0.50),
    (2560, 255, 9.17, 0.45),
    (1200, 255, 5.40, 0.56),
];

/// One generated Table II row: the paper's published values next to this
/// model's projection.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// MPI process count.
    pub procs: usize,
    /// Radial grid size (255 or 511).
    pub nr: usize,
    /// Published sustained TFlops.
    pub paper_tflops: f64,
    /// Published fraction of peak.
    pub paper_efficiency: f64,
    /// This model's projection for the same shape.
    pub projection: Projection,
}

/// Table I as text.
pub fn table1_text() -> String {
    let es = EsMachine::earth_simulator();
    let mut s = String::new();
    s.push_str("Table I: Specifications of the Earth Simulator\n");
    s.push_str(&format!(
        "  Peak performance of arithmetic processor (AP)  {:.0} Gflops\n",
        es.ap_peak / 1e9
    ));
    s.push_str(&format!("  Number of AP in a processor node (PN)          {}\n", es.ap_per_node));
    s.push_str(&format!("  Total number of PN                             {}\n", es.nodes));
    s.push_str(&format!(
        "  Total number of AP                             {} AP x {} PN = {}\n",
        es.ap_per_node,
        es.nodes,
        es.total_aps()
    ));
    s.push_str(&format!(
        "  Shared memory size of PN                       {} GB\n",
        es.node_memory >> 30
    ));
    // The paper floors 40.96 TFlops to "40 Tflops".
    s.push_str(&format!(
        "  Total peak performance                         {:.0} Gflops x {} AP = {:.0} Tflops\n",
        es.ap_peak / 1e9,
        es.total_aps(),
        (es.total_peak() / 1e12).floor()
    ));
    s.push_str(&format!(
        "  Total main memory                              {} TB\n",
        es.total_memory() >> 40
    ));
    s.push_str(&format!(
        "  Inter-node data transfer rate                  {:.1} GB/s x 2\n",
        es.internode_bw / 1e9
    ));
    s
}

/// Compute the model's Table II rows for `profile`.
pub fn table2_rows(profile: &KernelProfile) -> Vec<Table2Row> {
    let machine = EsMachine::earth_simulator();
    let params = EsModelParams::calibrated();
    TABLE2_PAPER
        .iter()
        .map(|&(procs, nr, tf, eff)| Table2Row {
            procs,
            nr,
            paper_tflops: tf,
            paper_efficiency: eff,
            projection: project(
                &machine,
                &params,
                profile,
                &RunShape { procs, nr, nth: 514, nph: 1538 },
            ),
        })
        .collect()
}

/// Table II as text: published vs modeled.
pub fn table2_text(profile: &KernelProfile) -> String {
    let mut s = String::new();
    s.push_str("Table II: yycore performance on the Earth Simulator (paper vs model)\n");
    s.push_str(
        "  procs   grid points           paper TF  eff    model TF  eff    comm%  AVL\n",
    );
    for row in table2_rows(profile) {
        let p = row.projection;
        s.push_str(&format!(
            "  {:5}   {:3}x514x1538x2      {:5.2}    {:4.2}   {:5.2}     {:4.2}   {:4.1}   {:5.1}\n",
            row.procs,
            row.nr,
            row.paper_tflops,
            row.paper_efficiency,
            p.tflops(),
            p.efficiency,
            100.0 * p.comm_fraction,
            p.avg_vector_length,
        ));
    }
    s
}

/// A Table III column (one SC paper's reported run).
#[derive(Debug, Clone, Copy)]
pub struct Table3Entry {
    /// Code/author label.
    pub label: &'static str,
    /// Sustained TFlops reported.
    pub tflops: f64,
    /// Processor nodes used.
    pub nodes: usize,
    /// Fraction of peak.
    pub efficiency: f64,
    /// Total grid points.
    pub grid_points: f64,
    /// Simulation kind (fluid / wave propagation).
    pub kind: &'static str,
    /// Numerical method.
    pub method: &'static str,
    /// Parallelization style.
    pub parallelization: &'static str,
}

/// The four comparison codes of Table III (static published data).
pub const TABLE3_OTHERS: [Table3Entry; 4] = [
    Table3Entry {
        label: "Shingu [16] (atmosphere)",
        tflops: 26.6,
        nodes: 640,
        efficiency: 0.65,
        grid_points: 7.1e8,
        kind: "fluid",
        method: "spectral",
        parallelization: "MPI-microtask",
    },
    Table3Entry {
        label: "Yokokawa [20] (turbulence)",
        tflops: 16.4,
        nodes: 512,
        efficiency: 0.50,
        grid_points: 8.6e9,
        kind: "fluid",
        method: "spectral",
        parallelization: "MPI-microtask",
    },
    Table3Entry {
        label: "Sakagami [15] (inertial fusion)",
        tflops: 14.9,
        nodes: 512,
        efficiency: 0.45,
        grid_points: 1.7e10,
        kind: "fluid",
        method: "finite volume",
        parallelization: "HPF (flat MPI)",
    },
    Table3Entry {
        label: "Komatitsch [8] (seismic wave)",
        tflops: 5.0,
        nodes: 243,
        efficiency: 0.32,
        grid_points: 5.5e9,
        kind: "wave propagation",
        method: "spectral element",
        parallelization: "flat MPI",
    },
];

/// Table III as text, with this code's (projected) flagship entry last.
pub fn table3_text(profile: &KernelProfile) -> String {
    let machine = EsMachine::earth_simulator();
    let params = EsModelParams::calibrated();
    let flagship = RunShape::flagship();
    let proj = project(&machine, &params, profile, &flagship);
    let aps_per_node = machine.ap_per_node;

    let mut s = String::new();
    s.push_str("Table III: Performances on the Earth Simulator reported at SC\n");
    s.push_str(
        "  code                              TF/PN        eff   g.p.      g.p./AP   Flops/g.p.\n",
    );
    let mut write_row = |label: &str,
                         tflops: f64,
                         nodes: usize,
                         eff: f64,
                         gp: f64,
                         method: &str| {
        let aps = (nodes * aps_per_node) as f64;
        s.push_str(&format!(
            "  {:33} {:4.1}T/{:3}   {:4.2}  {:8.1e}  {:8.1e}  {:6.1}K   [{}]\n",
            label,
            tflops,
            nodes,
            eff,
            gp,
            gp / aps,
            tflops * 1e12 / gp / 1e3,
            method,
        ));
    };
    for e in TABLE3_OTHERS {
        write_row(e.label, e.tflops, e.nodes, e.efficiency, e.grid_points, e.method);
    }
    let gp = flagship.grid_points() as f64;
    write_row(
        "Kageyama et al. (geodynamo, this)",
        proj.tflops(),
        flagship.procs / aps_per_node,
        proj.efficiency,
        gp,
        "finite difference",
    );
    s
}

/// What one measured profile projects to, as the paper prints it: the
/// pieces `yycore tables` prints after Table I.
#[derive(Debug)]
pub struct Artifacts {
    /// Tables II and III, each closed by a blank line.
    pub tables: String,
    /// List 1: the `MPIPROGINF` listing of the flagship run's
    /// projection (Table II's headline row).
    pub list1: String,
}

/// Project `profile` onto the calibrated machine: Tables II and III and
/// the flagship List 1.
pub fn artifacts(profile: &KernelProfile) -> Artifacts {
    let flagship = project(
        &EsMachine::earth_simulator(),
        &EsModelParams::calibrated(),
        profile,
        &RunShape::flagship(),
    );
    Artifacts {
        tables: format!("{}\n{}\n", table2_text(profile), table3_text(profile)),
        list1: list1_text(&ReportShape::paper_window(flagship)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_the_published_numbers() {
        let t = table1_text();
        assert!(t.contains("8 Gflops"));
        assert!(t.contains("640"));
        assert!(t.contains("5120"));
        assert!(t.contains("40 Tflops"));
        assert!(t.contains("12.3 GB/s x 2"));
    }

    /// The calibration acceptance test: the model reproduces every
    /// published Table II row within 15 % relative TFlops error (mean
    /// under 8 %), with the correct orderings.
    #[test]
    fn table2_model_matches_paper_shape() {
        let rows = table2_rows(&KernelProfile::yycore_default());
        let mut rel_sum = 0.0;
        for row in &rows {
            let rel = (row.projection.tflops() - row.paper_tflops).abs() / row.paper_tflops;
            assert!(
                rel < 0.15,
                "{} procs nr={}: model {:.2} vs paper {:.2} ({:.0} %)",
                row.procs,
                row.nr,
                row.projection.tflops(),
                row.paper_tflops,
                100.0 * rel
            );
            rel_sum += rel;
        }
        assert!(rel_sum / 6.0 < 0.08, "mean relative error {:.3}", rel_sum / 6.0);
        // Orderings (the "shape"): TFlops ranks exactly as published.
        for w in rows.windows(2) {
            assert!(
                w[0].projection.tflops() > w[1].projection.tflops(),
                "TFlops ordering broken between rows"
            );
        }
    }

    #[test]
    fn table2_text_renders_all_rows() {
        let t = table2_text(&KernelProfile::yycore_default());
        assert_eq!(t.lines().count(), 2 + 6);
        assert!(t.contains("4096"));
        assert!(t.contains("1200"));
    }

    #[test]
    fn table3_intensity_matches_paper() {
        // The paper's Table III quotes ~19K sustained Flops per grid
        // point and ~2.1e5 grid points per AP for yycore.
        let t = table3_text(&KernelProfile::yycore_default());
        assert!(t.contains("Kageyama"));
        let ours = t.lines().last().unwrap();
        // g.p./AP ≈ 2.0e5.
        assert!(ours.contains("2.0e5") || ours.contains("1.9e5"), "row: {ours}");
        // All four comparison codes present.
        for e in TABLE3_OTHERS {
            assert!(t.contains(e.label.split(' ').next().unwrap()));
        }
    }
}
