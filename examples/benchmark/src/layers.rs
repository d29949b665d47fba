//! The traced run: per-layer metrics from spans recorded around the
//! harness's own calls into each workspace crate, on the workload's
//! grid. Separate from the end-to-end run, which records no spans.
//!
//! Every measurement gets a share of the run's `--seconds`; it repeats
//! until the share is spent (at least [`MIN_REPEATS`], at most
//! [`MAX_REPEATS`] times) and reports the median.

use crate::machine;
use crate::spec::Workload;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use yy_esmodel::model::{project, RunShape};
use yy_esmodel::{EsMachine, EsModelParams, KernelProfile};
use yy_field::pack::{pack_region, unpack_region, Region};
use yy_field::Meters;
use yy_latlon::LatLonSim;
use yy_mesh::interp::{interp_scalar_column, interp_vector_column};
use yy_mesh::{build_overset_columns, Metric, OversetColumn, Panel};
use yy_mhd::rhs::{InteriorRange, RhsScratch, RHS_READS_PER_POINT, RHS_WRITES_PER_POINT};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{apply_physical_bc, compute_rhs, initialize, ForceTables, State, RHS_FLOPS_PER_POINT};
use yy_obs::counters::CounterSet;
use yy_parcomm::stats::TrafficClass;
use yy_parcomm::{ReduceOp, Universe};
use yycore::checkpoint::Checkpoint;
use yycore::output::{rle_decode, rle_encode};
use yycore::serial::fill_pair;
use yycore::{
    run_parallel, run_parallel_supervised, CkptCodec, HealthGuard, HealthLimits, ObsOpts,
    OutputStage, RecoveryOpts, RunConfig, SerialSim, TraceMode,
};

const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 21;
/// Driver segments in the traced run are capped at this many steps so
/// the five interleaved driver variants fit the run.
const MAX_DRIVER_STEPS: u64 = 4;
/// A call this long touches far more data than the caches hold, so a
/// separate warm-up call would only repeat it.
const SELF_WARMING: Duration = Duration::from_millis(20);
const MIB: f64 = 1024.0 * 1024.0;

pub struct LayerOutcome {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub tracer: Tracer,
}

/// Measurement state shared by every layer section.
struct Bench {
    tracer: Tracer,
    seconds: f64,
    smoke: bool,
    fewest_repeats: usize,
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Bench {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what.to_string());
        }
    }

    fn more(&self, done: usize, started: Instant, share: f64) -> bool {
        done < MIN_REPEATS
            || (!self.smoke
                && done < MAX_REPEATS
                && started.elapsed().as_secs_f64() < share * self.seconds)
    }

    /// Repeat `f` under a span named `name`, one warm-up first (a call
    /// longer than [`SELF_WARMING`] counts as its own warm-up). `f`
    /// returns the sample itself (seconds), which lets a measurement
    /// taken inside rank threads pass through; returns the median.
    fn sample(&mut self, name: &'static str, share: f64, mut f: impl FnMut() -> f64) -> f64 {
        let started = Instant::now();
        let mut samples = vec![self.tracer.leaf(name, None, 0, &mut f)];
        if started.elapsed() < SELF_WARMING {
            samples.clear();
        }
        while self.more(samples.len(), started, share) {
            let seg = samples.len() as u64;
            samples.push(self.tracer.leaf(name, None, seg, &mut f));
        }
        self.fewest_repeats = self.fewest_repeats.min(samples.len());
        median(&samples)
    }

    /// [`Bench::sample`] of the wall time of `f` itself.
    fn time(&mut self, name: &'static str, share: f64, mut f: impl FnMut()) -> f64 {
        self.sample(name, share, || {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
    }

    /// Round-robin over `variants` so slow host drift lands on all of
    /// them; returns each variant's median wall time.
    fn interleaved(
        &mut self,
        share: f64,
        variants: &mut [(&'static str, &mut dyn FnMut())],
    ) -> Vec<f64> {
        let started = Instant::now();
        let mut samples = vec![Vec::new(); variants.len()];
        while self.more(samples[0].len(), started, share) {
            let seg = samples[0].len() as u64;
            for ((name, f), out) in variants.iter_mut().zip(&mut samples) {
                out.push(self.tracer.leaf(name, None, seg, || {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                }));
            }
        }
        self.fewest_repeats = self.fewest_repeats.min(samples[0].len());
        samples.iter().map(|s| median(s)).collect()
    }
}

/// Everything `SerialSim::advance` uses, rebuilt from public
/// constructors so the harness can drive one RK4 step itself.
struct StepParts {
    metric: Metric,
    forces: [ForceTables; 2],
    cols: Vec<OversetColumn>,
    range: InteriorRange,
    scratch: RhsScratch,
    meter: Meters,
    y0: [State; 2],
    k: [State; 2],
    stage: [State; 2],
}

impl StepParts {
    fn new(cfg: &RunConfig) -> StepParts {
        let grid = cfg.grid();
        let metric = Metric::full(&grid);
        let (_, nth, nph) = grid.dims();
        let halo = grid.spec().halo;
        let forces = [Panel::Yin, Panel::Yang].map(|p| {
            ForceTables::new(
                &metric,
                nth,
                nph,
                halo,
                cfg.params.g0,
                cfg.params.omega,
                rotation_axis(p),
            )
        });
        let shape = grid.full_shape();
        let pair = || [State::zeros(shape), State::zeros(shape)];
        StepParts {
            metric,
            forces,
            cols: build_overset_columns(&grid).expect("a valid Yin-Yang configuration"),
            range: InteriorRange::full_panel(&grid),
            scratch: RhsScratch::new(shape),
            meter: Meters::with_counters(Arc::new(CounterSet::enabled())),
            y0: pair(),
            k: pair(),
            stage: pair(),
        }
    }

    /// One RK4 step out of public calls, the same sequence as
    /// `SerialSim::advance`: per panel 2 copies, 4 RHS, 3 fused and 1
    /// plain combine; per step 4 overset fills. Each call is a leaf
    /// span under the returned `step` span.
    fn traced_step(
        &mut self,
        tr: &mut Tracer,
        seg: u64,
        cfg: &RunConfig,
        yin: &mut State,
        yang: &mut State,
        dt: f64,
    ) -> usize {
        let weights = geomath::rk4::RK4_WEIGHTS;
        let nodes = [0.5, 0.5, 1.0];
        let (t_inner, mag_bc) = (cfg.params.t_inner, cfg.mag_bc);
        let step = tr.open("step", None, seg);
        let parent = Some(step);
        for (p, state) in [&*yin, &*yang].into_iter().enumerate() {
            tr.leaf("copy", parent, seg, || {
                self.y0[p].copy_from(state);
                self.stage[p].copy_from(state);
            });
        }
        for s in 0..4 {
            for p in 0..2 {
                tr.leaf("rhs", parent, seg, || {
                    compute_rhs(
                        &self.stage[p],
                        &self.metric,
                        &self.forces[p],
                        &cfg.params,
                        &self.range,
                        &mut self.scratch,
                        &mut self.k[p],
                        &mut self.meter,
                    )
                });
            }
            if s < 3 {
                tr.leaf("combine", parent, seg, || {
                    let [s0, s1] = &mut self.stage;
                    yin.axpy_and_assign_axpy(
                        dt * weights[s],
                        &self.k[0],
                        s0,
                        &self.y0[0],
                        dt * nodes[s],
                    );
                    yang.axpy_and_assign_axpy(
                        dt * weights[s],
                        &self.k[1],
                        s1,
                        &self.y0[1],
                        dt * nodes[s],
                    );
                });
                tr.leaf("fill_pair", parent, seg, || {
                    let [s0, s1] = &mut self.stage;
                    fill_pair(s0, s1, &self.cols, t_inner, mag_bc, Some(&mut self.meter));
                });
            } else {
                tr.leaf("combine", parent, seg, || {
                    yin.axpy(dt * weights[s], &self.k[0]);
                    yang.axpy(dt * weights[s], &self.k[1]);
                });
            }
        }
        tr.leaf("fill_pair", parent, seg, || {
            fill_pair(
                yin,
                yang,
                &self.cols,
                t_inner,
                mag_bc,
                Some(&mut self.meter),
            );
        });
        tr.close(step);
        step
    }
}

fn supervised(
    cfg: &RunConfig,
    steps: u64,
    sample_every: u64,
    opts: &RecoveryOpts,
) -> yycore::SupervisedReport {
    run_parallel_supervised(cfg, 1, 1, steps, sample_every, opts)
        .expect("a fault-free supervised run completes")
}

pub fn run(w: &Workload, seed: u64, seconds: f64, smoke: bool, scratch: &Path) -> LayerOutcome {
    let run_started = Instant::now();
    let cfg = w.config(seed, smoke);
    let steps = w.steps(smoke).min(MAX_DRIVER_STEPS);
    let mut b = Bench {
        tracer: Tracer::new(),
        seconds,
        smoke,
        fewest_repeats: usize::MAX,
        values: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut section_started = Instant::now();
    let mut lap = |section: &str| {
        println!(
            "section {section}: {:.2} s",
            section_started.elapsed().as_secs_f64()
        );
        section_started = Instant::now();
    };
    let (packed_gflops, triad_mem) = machine_section(&mut b);
    lap("machine");
    let serial_step_s = step_section(&mut b, &cfg, steps);
    lap("step");
    kernel_section(&mut b, &cfg, packed_gflops, triad_mem);
    lap("kernels");
    comm_section(&mut b, &cfg);
    lap("comm");
    driver_section(&mut b, &cfg, steps, serial_step_s, scratch);
    lap("drivers");
    checkpoint_section(&mut b, &cfg, scratch);
    lap("checkpoint");
    latlon_section(&mut b, &cfg);
    lap("latlon");
    b.put("harness.trace_spans", b.tracer.len() as f64);
    b.put("harness.layer_repeats_min", b.fewest_repeats as f64);
    b.put("harness.trace_run_s", run_started.elapsed().as_secs_f64());
    LayerOutcome {
        values: b.values,
        attempted: b.attempted,
        failed: b.failed,
        problems: b.problems,
        tracer: b.tracer,
    }
}

/// The two roofs. Returns (packed Gflop/s, memory triad GB/s).
fn machine_section(b: &mut Bench) -> (f64, f64) {
    let mut small = machine::Triad::new(machine::L2_TRIAD_LEN);
    let bytes = small.pass(3.0);
    let l2 = b.time("machine.triad_l2", 0.005, || {
        for _ in 0..64 {
            small.pass(3.0);
        }
    });
    b.put("machine.triad_gb_per_s_l2", 64.0 * bytes as f64 / l2 / 1e9);

    let (len, clipped) = if b.smoke {
        (1 << 20, true)
    } else {
        machine::mem_triad_len()
    };
    println!(
        "memory triad: 3 arrays of {:.1} MiB each, last-level cache {:.1} MiB, clipped to MemAvailable/32: {clipped}",
        len as f64 * 8.0 / MIB,
        machine::llc_bytes().unwrap_or(0) as f64 / MIB
    );
    let mut big = machine::Triad::new(len);
    let bytes = big.pass(3.0);
    let mem = b.time("machine.triad_mem", 0.03, || {
        big.pass(3.0);
    });
    let triad_mem = bytes as f64 / mem / 1e9;
    b.put("machine.triad_gb_per_s_mem", triad_mem);
    drop(big);

    let iters = if b.smoke { 1 << 18 } else { 1 << 22 };
    let scalar = b.sample("machine.f64_scalar", 0.005, || {
        machine::scalar_chain_seconds(iters)
    });
    let packed = b.sample("machine.f64_packed", 0.005, || {
        machine::packed_chain_seconds(iters)
    });
    let scalar_gflops = machine::SCALAR_FLOPS_PER_ROUND * iters as f64 / scalar / 1e9;
    let packed_gflops = machine::PACKED_FLOPS_PER_ROUND * iters as f64 / packed / 1e9;
    b.put("machine.f64_gflops_scalar", scalar_gflops);
    b.put("machine.f64_gflops_packed", packed_gflops);

    // The yardstick of the end-to-end runs, so the traced run shows what
    // state the host was in.
    let mut yardstick = machine::RefStencil::default();
    let stencil = b.sample("machine.ref_stencil", 0.005, || yardstick.probe());
    b.put("machine.ref_stencil_ns_per_point", stencil * 1e9);
    (packed_gflops, triad_mem)
}

/// The harness-driven RK4 step against `SerialSim::advance`, and
/// `run(S, 0)` against `S × advance`. Returns the median seconds per
/// step of `run`.
fn step_section(b: &mut Bench, cfg: &RunConfig, steps: u64) -> f64 {
    let mut sim = SerialSim::new(cfg.clone());
    let start = Checkpoint::capture(&sim);
    let dt = sim.auto_dt();
    let mut parts = StepParts::new(cfg);
    let (mut yin, mut yang) = (start.yin.clone(), start.yang.clone());

    // Alternate blocks of consecutive steps on each path, so each runs
    // in its own steady state (the two paths own separate arrays, and
    // switching after every step would time cache refills instead).
    // Both evolve the same trajectory at a fixed dt; the first step of a
    // block re-warms the path's arrays and is not timed.
    const BLOCK: u64 = 2;
    let (mut advance_s, mut harness_s, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut round = 0;
    while b.more(round, started, 0.12) {
        sim.advance(dt);
        for n in 0..BLOCK {
            advance_s.push(
                b.tracer
                    .leaf("advance", None, round as u64 * BLOCK + n, || {
                        let t = Instant::now();
                        sim.advance(dt);
                        t.elapsed().as_secs_f64()
                    }),
            );
        }
        parts.traced_step(&mut Tracer::new(), 0, cfg, &mut yin, &mut yang, dt);
        for n in 0..BLOCK {
            let step = parts.traced_step(
                &mut b.tracer,
                round as u64 * BLOCK + n,
                cfg,
                &mut yin,
                &mut yang,
                dt,
            );
            harness_s.push(b.tracer.duration_ns(step) as f64 / 1e9);
            spans.push(step);
        }
        let identical = yin == sim.yin && yang == sim.yang;
        b.check(
            identical,
            "harness-driven RK4 steps differ bitwise from SerialSim::advance",
        );
        round += 1;
    }
    b.fewest_repeats = b.fewest_repeats.min(advance_s.len());
    let advance = median(&advance_s);
    let child_ms = |b: &Bench, name: Option<&str>| -> f64 {
        median(
            &spans
                .iter()
                .map(|&s| b.tracer.children_ns(s, name) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let attributed_ms = child_ms(b, None);
    b.put("core.step_closure_share", attributed_ms / (advance * 1e3));
    b.put("core.step_unattributed_ms", advance * 1e3 - attributed_ms);
    for (metric, span) in [
        ("core.step_rhs_ms", "rhs"),
        ("core.step_combine_ms", "combine"),
        ("core.step_fill_ms", "fill_pair"),
        ("core.step_copy_ms", "copy"),
    ] {
        let v = child_ms(b, Some(span));
        b.put(metric, v);
    }
    b.put(
        "core.trace_overhead_share",
        median(&harness_s) / advance - 1.0,
    );
    b.put("core.step_ms_p90", percentile(&advance_s, 90.0) * 1e3);

    // The driver around the step: dt, health scan, diagnostics, report.
    let mut report = None;
    let run = b.time("run", 0.10, || {
        start.restore(&mut sim);
        report = Some(sim.run(steps, 0));
    });
    b.put(
        "core.driver_overhead_share",
        (run - steps as f64 * advance) / run,
    );

    // yy-esmodel: exact, count-derived from that run's flop meter.
    let report = report.expect("the run repeated at least once");
    let flops_per_point_step =
        report.flops as f64 / report.steps as f64 / sim.interior_points() as f64;
    let es = EsMachine::earth_simulator();
    let profile = KernelProfile::yycore_default().with_measured_flops(flops_per_point_step);
    let flagship = project(
        &es,
        &EsModelParams::calibrated(),
        &profile,
        &RunShape::flagship(),
    );
    b.put("esmodel.flops_per_point_step", flops_per_point_step);
    b.put("esmodel.avg_vector_length", es.avg_vector_length(cfg.nr));
    b.put("esmodel.flagship_tflops", flagship.tflops());
    run / steps as f64
}

/// yy-mhd, yy-field and yy-mesh kernels and set-up pieces.
fn kernel_section(b: &mut Bench, cfg: &RunConfig, packed_gflops: f64, triad_mem: f64) {
    let mut sim = SerialSim::new(cfg.clone());
    let mut parts = StepParts::new(cfg);
    let grid = cfg.grid();
    let shape = grid.full_shape();
    let panel_points = shape.owned_len() as f64;
    let grid_points = grid.total_points() as f64;
    let (t_inner, mag_bc) = (cfg.params.t_inner, cfg.mag_bc);

    // yy-mhd
    let rhs = b.time("mhd.rhs", 0.03, || {
        compute_rhs(
            &sim.yin,
            &parts.metric,
            &parts.forces[0],
            &cfg.params,
            &parts.range,
            &mut parts.scratch,
            &mut parts.k[0],
            &mut parts.meter,
        )
    });
    let interior = parts.range.points() as f64;
    let flops = RHS_FLOPS_PER_POINT as f64;
    let rhs_gflops = flops * interior / rhs / 1e9;
    // Computed from the kernel's modelled array traffic, not measured.
    let flops_per_byte = flops / (8.0 * (RHS_READS_PER_POINT + RHS_WRITES_PER_POINT) as f64);
    b.put("mhd.rhs_ns_per_point", rhs * 1e9 / interior);
    b.put("mhd.rhs_gflops", rhs_gflops);
    b.put("mhd.rhs_flops_per_point", flops);
    b.put("mhd.rhs_flops_per_byte", flops_per_byte);
    b.put(
        "mhd.rhs_roofline_share",
        rhs_gflops / packed_gflops.min(triad_mem * flops_per_byte),
    );
    let mut work = sim.yin.clone();
    let bc = b.time("mhd.bc", 0.005, || {
        apply_physical_bc(&mut work, t_inner, mag_bc)
    });
    b.put("mhd.bc_ns_per_point", bc * 1e9 / panel_points);
    let cfl = b.time("mhd.cfl", 0.01, || {
        std::hint::black_box(sim.auto_dt());
    });
    b.put("mhd.cfl_ns_per_point", cfl * 1e9 / grid_points);
    let diag = b.time("mhd.diag", 0.01, || {
        std::hint::black_box(sim.diagnostics());
    });
    b.put("mhd.diag_ns_per_point", diag * 1e9 / grid_points);
    let init = b.time("mhd.init", 0.01, || {
        initialize(&mut work, &grid, None, &cfg.params, &cfg.init, Panel::Yin)
    });
    b.put("mhd.init_ms", init * 1e3);

    // yy-field. Combines and copies stream the padded arrays, ghosts
    // included; bytes are computed from the array sizes.
    let len = shape.len() as f64;
    let (k, stage, y0) = (&parts.k, &mut parts.stage, &parts.y0);
    let combine = b.time("field.combine", 0.01, || {
        sim.yin
            .axpy_and_assign_axpy(1e-9, &k[0], &mut stage[0], &y0[0], 1e-9)
    });
    b.put("field.combine_ns_per_point", combine * 1e9 / len);
    b.put(
        "field.combine_gb_per_s",
        5.0 * 8.0 * 8.0 * len / combine / 1e9,
    );
    let copy = b.time("field.copy", 0.005, || stage[0].copy_from(&sim.yang));
    b.put("field.copy_gb_per_s", 2.0 * 8.0 * 8.0 * len / copy / 1e9);
    let band = Region {
        i0: 0,
        i1: shape.nr,
        j0: 0,
        j1: grid.spec().halo as isize,
        k0: 0,
        k1: shape.nph as isize,
    };
    let mut buf = Vec::new();
    let pack = b.time("field.pack", 0.005, || {
        buf.clear();
        for a in sim.yang.arrays() {
            pack_region(a, band, &mut buf);
        }
        let mut rest = buf.as_slice();
        for a in stage[1].arrays_mut() {
            rest = unpack_region(a, band, rest);
        }
    });
    b.put(
        "field.pack_gb_per_s",
        4.0 * 8.0 * buf.len() as f64 / pack / 1e9,
    );
    let round_trip = sim
        .yang
        .arrays()
        .into_iter()
        .zip(stage[1].arrays())
        .all(|(src, dst)| {
            (band.k0..band.k1).all(|k| (band.j0..band.j1).all(|j| src.row(j, k) == dst.row(j, k)))
        });
    b.check(
        round_trip,
        "pack_region/unpack_region did not round-trip the θ-band",
    );

    // yy-mesh
    let columns = parts.cols.len() as f64;
    let (mut yin, mut yang) = (sim.yin.clone(), sim.yang.clone());
    let fill = b.time("mesh.fill_pair", 0.01, || {
        fill_pair(&mut yin, &mut yang, &parts.cols, t_inner, mag_bc, None)
    });
    b.put("mesh.fill_pair_ns_per_column", fill * 1e9 / (2.0 * columns));
    let mut rows = [(); 3].map(|_| vec![0.0; shape.nr]);
    let donate = b.time("mesh.donate", 0.01, || {
        let [r0, r1, r2] = &mut rows;
        for col in &parts.cols {
            interp_scalar_column(col, &yang.rho, r0);
            interp_scalar_column(col, &yang.press, r0);
            interp_vector_column(col, &yang.f.r, &yang.f.t, &yang.f.p, r0, r1, r2);
            interp_vector_column(col, &yang.a.r, &yang.a.t, &yang.a.p, r0, r1, r2);
        }
        std::hint::black_box(&mut rows);
    });
    b.put("mesh.donate_ns_per_column", donate * 1e9 / columns);
    b.put("mesh.overset_columns", columns);
    let build = b.time("mesh.overset_build", 0.005, || {
        std::hint::black_box(build_overset_columns(&grid).expect("a valid configuration"));
    });
    b.put("mesh.overset_build_ms", build * 1e3);
    let metric = b.time("mesh.metric_build", 0.005, || {
        std::hint::black_box(Metric::full(&grid));
    });
    b.put("mesh.metric_build_ms", metric * 1e3);
    let grid_build = b.time("mesh.grid_build", 0.005, || {
        std::hint::black_box(cfg.grid());
    });
    b.put("mesh.grid_build_ms", grid_build * 1e3);

    // yycore::health
    let guard = HealthGuard::new(HealthLimits::default());
    let scan = b.time("core.health_scan", 0.005, || {
        std::hint::black_box(guard.check_state(&sim.yang).is_ok());
    });
    b.put("core.health_scan_ns_per_point", scan * 1e9 / panel_points);
}

/// yy-parcomm between two rank threads: spawn/join, a one-value
/// ping-pong, a θ-band round trip, an allreduce.
fn comm_section(b: &mut Bench, cfg: &RunConfig) {
    const TAG: u64 = 7;
    let rounds: usize = if b.smoke { 50 } else { 500 };
    let spawn = b.time("parcomm.spawn_join", 0.01, || {
        Universe::run(2, |world| world.rank());
    });
    b.put("parcomm.spawn_join_us", spawn * 1e6);

    // Rank 0 times `rounds` round trips of `payload`; rank 1 echoes.
    let round_trip = |payload: Vec<f64>, rounds: usize| -> f64 {
        let results = Universe::run(2, |world| {
            if world.rank() == 0 {
                let t = Instant::now();
                for _ in 0..rounds {
                    world.send_f64s(1, TAG, payload.clone(), TrafficClass::Halo);
                    std::hint::black_box(world.recv_f64s(1, TAG));
                }
                t.elapsed().as_secs_f64() / rounds as f64
            } else {
                for _ in 0..rounds {
                    let got = world.recv_f64s(0, TAG);
                    world.send_f64s(0, TAG, got, TrafficClass::Halo);
                }
                0.0
            }
        });
        results[0]
    };
    let ping = b.sample("parcomm.pingpong", 0.01, || round_trip(vec![1.0], rounds));
    b.put("parcomm.pingpong_us", ping * 1e6);
    let shape = cfg.grid().full_shape();
    let band_values = 8 * shape.nr * cfg.grid().spec().halo * shape.nph;
    let band = b.sample("parcomm.band", 0.01, || {
        round_trip(vec![1.0; band_values], rounds / 5)
    });
    b.put("parcomm.band_roundtrip_us", band * 1e6);
    b.put(
        "parcomm.band_gb_per_s",
        2.0 * 8.0 * band_values as f64 / band / 1e9,
    );
    let allreduce = b.sample("parcomm.allreduce", 0.01, || {
        Universe::run(2, |world| {
            let t = Instant::now();
            for _ in 0..rounds {
                std::hint::black_box(world.allreduce_f64(world.rank() as f64, ReduceOp::Max));
            }
            t.elapsed().as_secs_f64() / rounds as f64
        })[0]
    });
    b.put("parcomm.allreduce_us", allreduce * 1e6);

    // Counts only: four rank threads are more than this box has cores,
    // so no wall-clock number is taken from the 1×2 layout.
    let wide = run_parallel(cfg, 1, 2, 3, 0, false).report;
    b.put(
        "parcomm.halo_bytes_per_step_1x2",
        wide.halo_bytes as f64 / 3.0,
    );
    b.put(
        "parcomm.overset_bytes_per_step_1x2",
        wide.overset_bytes as f64 / 3.0,
    );
}

/// The public drivers against each other, five variants interleaved:
/// plain `run_parallel`, supervised, supervised with observability off,
/// supervised with everything armed, supervised writing shards.
fn driver_section(b: &mut Bench, cfg: &RunConfig, steps: u64, serial_step_s: f64, scratch: &Path) {
    let deadline = Duration::from_secs(120);
    let default_opts = RecoveryOpts {
        deadline,
        ..RecoveryOpts::default()
    };
    let off = RecoveryOpts {
        obs: ObsOpts {
            mode: TraceMode::Off,
            counters: false,
            ..ObsOpts::default()
        },
        ..default_opts.clone()
    };
    let armed = RecoveryOpts {
        obs: ObsOpts {
            mode: TraceMode::Enabled,
            counters: true,
            series: true,
            rules: Some(PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../watch.rules"
            ))),
            ..ObsOpts::default()
        },
        ..default_opts.clone()
    };
    let shard_dir = scratch.join("trace_shards");
    let ckpt = RecoveryOpts {
        checkpoint_every: 2,
        ckpt_dir: Some(shard_dir.clone()),
        ckpt_compress: CkptCodec::parse("delta").expect("delta is a codec name"),
        ..default_opts.clone()
    };
    let (mut plain_report, mut ckpt_report, mut default_report) = (None, None, None);
    let walls = b.interleaved(
        0.30,
        &mut [
            ("run_parallel", &mut || {
                plain_report = Some(run_parallel(cfg, 1, 1, steps, 0, false).report)
            }),
            ("supervised", &mut || {
                default_report = Some(supervised(cfg, steps, 0, &default_opts).report)
            }),
            ("supervised_obs_off", &mut || {
                supervised(cfg, steps, 0, &off);
            }),
            ("supervised_all_armed", &mut || {
                supervised(cfg, steps, 1, &armed);
            }),
            ("supervised_ckpt", &mut || {
                std::fs::remove_dir_all(&shard_dir).ok();
                ckpt_report = Some(supervised(cfg, steps, 0, &ckpt).report);
            }),
        ],
    );
    std::fs::remove_dir_all(&shard_dir).ok();
    let [t_plain, t_sup, t_off, t_armed, t_ckpt] = walls[..] else {
        unreachable!("five variants")
    };
    // Two rank threads against one serial thread, both timed from
    // outside the public call (spawn and init included on the parallel
    // side, as in the end-to-end metric).
    b.put(
        "core.par_efficiency",
        serial_step_s / (2.0 * t_plain / steps as f64),
    );
    b.put("core.supervised_ratio", t_sup / t_plain);
    b.put("obs.default_ratio", t_sup / t_off);
    b.put("obs.all_armed_ratio", t_armed / t_off);
    b.put("output.ckpt_on_ratio", t_ckpt / t_sup);
    let (plain_report, default_report, ckpt_report) = (
        plain_report.expect("ran at least once"),
        default_report.expect("ran at least once"),
        ckpt_report.expect("ran at least once"),
    );
    b.put(
        "parcomm.overset_bytes_per_step",
        plain_report.overset_bytes as f64 / steps as f64,
    );
    b.check(
        plain_report.overset_bytes == default_report.overset_bytes,
        "supervised and plain runs moved different overset byte counts",
    );
    b.put(
        "output.bytes_raw_per_segment",
        ckpt_report.io.bytes_raw as f64,
    );
    b.put(
        "output.compression_ratio",
        ckpt_report.io.compression_ratio(),
    );
}

/// yycore::checkpoint and yycore::output on in-memory sinks, and the
/// asynchronous writer stage on shard-sized buffers.
fn checkpoint_section(b: &mut Bench, cfg: &RunConfig, scratch: &Path) {
    let sim = SerialSim::new(cfg.clone());
    let mut ck = Checkpoint::capture(&sim);
    let capture = b.time("ckpt.capture", 0.005, || {
        Checkpoint::capture_into(&sim, &mut ck)
    });
    b.put("ckpt.capture_ms", capture * 1e3);
    let mut bytes = Vec::new();
    let write = b.time("ckpt.write", 0.01, || {
        bytes.clear();
        ck.write_to(&mut bytes)
            .expect("writing to a Vec cannot fail");
    });
    let mib = bytes.len() as f64 / MIB;
    b.put("ckpt.write_mib_per_s", mib / write);
    b.put("ckpt.bytes", bytes.len() as f64);
    let mut read_back = None;
    let read = b.time("ckpt.read", 0.01, || {
        read_back = Some(Checkpoint::read_from(&mut bytes.as_slice()));
    });
    b.put("ckpt.read_mib_per_s", mib / read);
    b.check(
        matches!(read_back, Some(Ok(back)) if back == ck),
        "Checkpoint::write_to / read_from did not round-trip",
    );

    // The codec on one panel's worth of raw checkpoint bytes.
    let raw = &bytes[..bytes.len() / 2];
    let raw_mib = raw.len() as f64 / MIB;
    let mut encoded = Vec::new();
    let encode = b.time("output.rle_encode", 0.01, || {
        encoded.clear();
        rle_encode(raw, &mut encoded);
    });
    b.put("output.rle_encode_mib_per_s", raw_mib / encode);
    let mut decoded = Vec::new();
    let mut decode_ok = true;
    let decode = b.time("output.rle_decode", 0.01, || {
        decoded.clear();
        decode_ok &= rle_decode(&encoded, raw.len(), &mut decoded).is_ok();
    });
    b.put("output.rle_decode_mib_per_s", raw_mib / decode);
    b.check(
        decode_ok && decoded == raw,
        "rle_encode / rle_decode did not round-trip",
    );

    let dir = scratch.join("stage");
    std::fs::create_dir_all(&dir).expect("creating a scratch directory");
    const FILES: usize = 4;
    let stage_write = b.time("output.stage_write", 0.02, || {
        let stage = OutputStage::new(true);
        for n in 0..FILES {
            let (mut buf, _) = stage.acquire();
            buf.extend_from_slice(raw);
            stage.submit(dir.join(format!("shard{n}.bin")), buf, raw.len() as u64);
        }
        stage.flush();
        stage.finish().expect("the writer stage reports no error");
    });
    b.put(
        "output.stage_write_mib_per_s",
        FILES as f64 * raw_mib / stage_write,
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// yy-latlon at matched angular spacing: the paper's motivating
/// comparator.
fn latlon_section(b: &mut Bench, cfg: &RunConfig) {
    let dth = 90.0 / (cfg.nth_nominal as f64 - 1.0);
    let nth = (180.0 / dth).round() as usize;
    let mut ll = LatLonSim::new(cfg.nr, nth, 2 * nth, cfg.params, &cfg.init);
    let yy_dt = SerialSim::new(cfg.clone()).auto_dt();
    let ll_dt = ll.auto_dt();
    b.put("latlon.dt_ratio", yy_dt / ll_dt);
    let step = b.time("latlon.advance", 0.04, || ll.advance(ll_dt));
    b.put(
        "latlon.ns_per_point_step",
        step * 1e9 / ll.grid.total_points() as f64,
    );
}
