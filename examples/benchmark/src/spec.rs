//! The benchmark's fixed shape: workloads, metric names, units, bounds.
//!
//! `BENCHMARK.json` at the repository root states the same tables for
//! the driver; `--smoke` diffs the two so they cannot drift apart.

use yycore::RunConfig;

/// Which public driver a workload's segment calls.
#[derive(Clone, Copy)]
pub enum Driver {
    /// `SerialSim::run(S, 0)` on one long-lived simulation.
    Serial,
    /// A fresh `run_parallel(cfg, 1, 1, S, 0, false)`.
    Parallel,
    /// A fresh `run_parallel_supervised` writing delta-coded shards
    /// every 2 steps, then `merge_shards` of the newest set.
    Checkpointed,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    /// Long-radial grid (nr = 255, nth = 13) instead of `medium()`.
    pub long_radial: bool,
    /// Steps per timed segment. Segments are kept to a few tenths of a
    /// second: the host's slow phases last seconds, and the reported
    /// fastest segment needs only one undisturbed window.
    pub steps: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serial_medium",
        why: "single-threaded baseline of the problem par_* solve: short radial rows (24), no comm, no output",
        driver: Driver::Serial,
        long_radial: false,
        steps: 4,
    },
    Workload {
        name: "serial_longradial",
        why: "the paper's regime: radial vector length 255 (odd), bandwidth-bound rows, few columns, 21.7 MiB state",
        driver: Driver::Serial,
        long_radial: true,
        steps: 2,
    },
    Workload {
        name: "par_2rank",
        why: "two rank threads on two cores: mailboxes, overset exchange, overlapped step pipeline; bypasses output",
        driver: Driver::Parallel,
        long_radial: false,
        steps: 8,
    },
    Workload {
        name: "par_ckpt",
        why: "supervisor, health scan, delta-coded shard writes every 2 steps, then merge_shards of the newest set",
        driver: Driver::Checkpointed,
        long_radial: false,
        steps: 6,
    },
];

/// Steps per segment in `--smoke` runs.
pub const SMOKE_STEPS: u64 = 2;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The run configuration: everything at its default except the grid,
    /// the seed and the perturbation amplitude. Struct-update syntax
    /// keeps the kernel-selection fields at whatever the library's
    /// default is, unnamed.
    pub fn config(&self, seed: u64, smoke: bool) -> RunConfig {
        let base = if smoke {
            RunConfig::small()
        } else {
            RunConfig::medium()
        };
        let mut cfg = if self.long_radial {
            RunConfig {
                nr: if smoke { 63 } else { 255 },
                nth_nominal: 13,
                ext: 2,
                ..base
            }
        } else {
            base
        };
        cfg.init.seed = seed;
        cfg.init.perturb_amplitude = 1e-2;
        cfg
    }

    pub fn steps(&self, smoke: bool) -> u64 {
        if smoke {
            SMOKE_STEPS
        } else {
            self.steps
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// What a user of the solver sees, per workload. Every bound is the
/// widest allowed: over ten seeds the run-to-run spread (interquartile
/// range ÷ median) measured 3–5 % for `ns_per_point_step`, up to 8 % for
/// `peak_rss_mib` and 16 % for `restore_s` (both on `par_ckpt`, whose
/// allocator settles into one of two retention modes per process), and
/// a neighbour on the shared host can double any timing for minutes.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("ns_per_point_step", "ns", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.25),
    e2e("restore_s", "s", 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// Single-layer numbers from the traced run, grouped by workspace crate.
pub const PER_LAYER: [MetricSpec; 64] = [
    // The machine, measured in the same run, for the roofline.
    hi("machine.triad_gb_per_s_l2", "GB/s"),
    hi("machine.triad_gb_per_s_mem", "GB/s"),
    hi("machine.f64_gflops_scalar", "Gflop/s"),
    hi("machine.f64_gflops_packed", "Gflop/s"),
    lo("machine.ref_stencil_ns_per_point", "ns"),
    // yy-mhd
    lo("mhd.rhs_ns_per_point", "ns"),
    hi("mhd.rhs_gflops", "Gflop/s"),
    lo("mhd.rhs_flops_per_point", "count"),
    hi("mhd.rhs_flops_per_byte", "flop/B"),
    hi("mhd.rhs_roofline_share", "ratio"),
    lo("mhd.bc_ns_per_point", "ns"),
    lo("mhd.cfl_ns_per_point", "ns"),
    lo("mhd.diag_ns_per_point", "ns"),
    lo("mhd.init_ms", "ms"),
    // yy-field
    lo("field.combine_ns_per_point", "ns"),
    hi("field.combine_gb_per_s", "GB/s"),
    hi("field.copy_gb_per_s", "GB/s"),
    hi("field.pack_gb_per_s", "GB/s"),
    // yy-mesh
    lo("mesh.fill_pair_ns_per_column", "ns"),
    lo("mesh.donate_ns_per_column", "ns"),
    lo("mesh.overset_columns", "count"),
    lo("mesh.overset_build_ms", "ms"),
    lo("mesh.metric_build_ms", "ms"),
    lo("mesh.grid_build_ms", "ms"),
    // yy-parcomm
    lo("parcomm.spawn_join_us", "us"),
    lo("parcomm.pingpong_us", "us"),
    lo("parcomm.band_roundtrip_us", "us"),
    hi("parcomm.band_gb_per_s", "GB/s"),
    lo("parcomm.allreduce_us", "us"),
    lo("parcomm.overset_bytes_per_step", "B"),
    lo("parcomm.halo_bytes_per_step_1x2", "B"),
    lo("parcomm.overset_bytes_per_step_1x2", "B"),
    // yycore drivers: the harness-driven RK4 step against `advance`.
    hi("core.step_closure_share", "ratio"),
    lo("core.step_unattributed_ms", "ms"),
    lo("core.step_rhs_ms", "ms"),
    lo("core.step_combine_ms", "ms"),
    lo("core.step_fill_ms", "ms"),
    lo("core.step_copy_ms", "ms"),
    lo("core.driver_overhead_share", "ratio"),
    lo("core.trace_overhead_share", "ratio"),
    hi("core.par_efficiency", "ratio"),
    lo("core.supervised_ratio", "ratio"),
    lo("core.health_scan_ns_per_point", "ns"),
    lo("core.step_ms_p90", "ms"),
    // yycore::checkpoint and yycore::output
    lo("ckpt.capture_ms", "ms"),
    hi("ckpt.write_mib_per_s", "MiB/s"),
    hi("ckpt.read_mib_per_s", "MiB/s"),
    lo("ckpt.bytes", "B"),
    hi("output.rle_encode_mib_per_s", "MiB/s"),
    hi("output.rle_decode_mib_per_s", "MiB/s"),
    hi("output.stage_write_mib_per_s", "MiB/s"),
    lo("output.bytes_raw_per_segment", "B"),
    hi("output.compression_ratio", "ratio"),
    lo("output.ckpt_on_ratio", "ratio"),
    // yy-obs
    lo("obs.default_ratio", "ratio"),
    lo("obs.all_armed_ratio", "ratio"),
    // yy-esmodel: exact, count-derived.
    lo("esmodel.flops_per_point_step", "count"),
    hi("esmodel.avg_vector_length", "count"),
    hi("esmodel.flagship_tflops", "Tflop/s"),
    // yy-latlon: the paper's motivating comparator.
    lo("latlon.ns_per_point_step", "ns"),
    hi("latlon.dt_ratio", "ratio"),
    // The harness itself.
    lo("harness.trace_spans", "count"),
    lo("harness.trace_run_s", "s"),
    lo("harness.layer_repeats_min", "count"),
];
