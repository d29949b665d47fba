//! Compile-only pin of the surface `examples/benchmark/src` builds
//! against: `yycore`, what it imports from the crates `yycore` depends
//! on, and the signatures of the calls it makes. The benchmark is a
//! package of its own that tier-1 never compiles, so a move that breaks
//! one of its imports or calls would otherwise show only in
//! `run.sh --smoke`.

#![allow(unused_imports)]

use std::path::PathBuf;
use std::time::Duration;
use yy_esmodel::model::{project, RunShape};
use yy_esmodel::{EsMachine, EsModelParams, KernelProfile};
use yy_field::pack::{pack_region, unpack_region, Region};
use yy_field::Meters;
use yy_mesh::interp::{interp_scalar_column, interp_vector_column};
use yy_mesh::{build_overset_columns, Metric, OversetColumn, Panel};
use yy_mhd::rhs::{InteriorRange, RhsScratch, RHS_READS_PER_POINT, RHS_WRITES_PER_POINT};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{
    apply_physical_bc, compute_rhs, initialize, Diagnostics, ForceTables, State,
    RHS_FLOPS_PER_POINT,
};
use yy_obs::counters::CounterSet;
use yy_obs::json::{escape, num};
use yy_obs::Json;
use yy_parcomm::stats::TrafficClass;
use yy_parcomm::{Comm, ReduceOp, Universe};
use yycore::checkpoint::Checkpoint;
use yycore::output::{rle_decode, rle_encode};
use yycore::serial::fill_pair;
use yycore::{
    merge_shards, run_parallel, run_parallel_supervised, CkptCodec, HealthGuard, HealthLimits,
    ObsOpts, OutputStage, RecoveryOpts, RunConfig, RunReport, SerialSim, SupervisedReport,
    TraceMode,
};

/// The two struct literals the benchmark writes, field for field.
#[test]
fn benchmark_imports_and_struct_literals_compile() {
    let obs = ObsOpts {
        mode: TraceMode::Off,
        counters: false,
        series: true,
        rules: Some(PathBuf::from("watch.rules")),
        ..ObsOpts::default()
    };
    let opts = RecoveryOpts {
        checkpoint_every: 2,
        ckpt_dir: Some(PathBuf::from("shards")),
        ckpt_compress: CkptCodec::parse("delta").expect("delta is a codec name"),
        deadline: Duration::from_secs(120),
        obs,
        ..RecoveryOpts::default()
    };
    assert!(opts.check().is_ok());
    // What it reads off a supervised run.
    let _reads = |sup: SupervisedReport| -> (RunReport, Checkpoint, usize) {
        (sup.report, sup.final_checkpoint, sup.recoveries.len())
    };
}

/// The `yy_parcomm` calls the benchmark's comm section makes, at the
/// signatures it makes them with.
#[test]
fn benchmark_parcomm_calls_keep_their_signatures() {
    let _rank: fn(&Comm) -> usize = Comm::rank;
    let _send: fn(&Comm, usize, u64, Vec<f64>, TrafficClass) = Comm::send_f64s;
    let _recv: fn(&Comm, usize, u64) -> Vec<f64> = Comm::recv_f64s;
    let _reduce: fn(&Comm, f64, ReduceOp) -> f64 = Comm::allreduce_f64;
    let out = Universe::run(2, |world| {
        let peer = 1 - world.rank();
        world.send_f64s(peer, 7, vec![world.rank() as f64], TrafficClass::Halo);
        world.recv_f64s(peer, 7)[0] + world.allreduce_f64(1.0, ReduceOp::Max)
    });
    assert_eq!(out, vec![2.0, 1.0]);
}

/// The `yycore` calls the benchmark makes, at the signatures it makes
/// them with: a renamed, re-typed or removed method fails here, not
/// only in `run.sh --smoke`.
#[test]
fn benchmark_yycore_calls_keep_their_signatures() {
    use std::io;
    use std::path::Path;
    use yy_mhd::{MagneticBc, PhysParams};
    use yycore::{HealthViolation, IoTotals, ParallelReport};

    let _capture: fn(&SerialSim) -> Checkpoint = Checkpoint::capture;
    let _capture_into: fn(&SerialSim, &mut Checkpoint) = Checkpoint::capture_into;
    let _restore: fn(&Checkpoint, &mut SerialSim) = Checkpoint::restore;
    let _write_to: fn(&Checkpoint, &mut Vec<u8>) -> io::Result<()> = Checkpoint::write_to;
    let _read_from: fn(&mut &'static [u8]) -> io::Result<Checkpoint> = Checkpoint::read_from;
    let _save: fn(&Checkpoint, &Path) -> io::Result<()> = Checkpoint::save;
    let _load: fn(&Path) -> io::Result<Checkpoint> = Checkpoint::load;

    let _new: fn(RunConfig) -> SerialSim = SerialSim::new;
    let _run: fn(&mut SerialSim, u64, u64) -> RunReport = SerialSim::run;
    let _advance: fn(&mut SerialSim, f64) = SerialSim::advance;
    let _auto_dt: fn(&SerialSim) -> f64 = SerialSim::auto_dt;
    let _diagnostics: fn(&SerialSim) -> Diagnostics = SerialSim::diagnostics;
    let _points: fn(&SerialSim) -> usize = SerialSim::interior_points;

    let _fill: fn(&mut State, &mut State, &[OversetColumn], f64, MagneticBc, Option<&mut Meters>) =
        fill_pair;
    let _rhs: fn(
        &State,
        &Metric,
        &ForceTables,
        &PhysParams,
        &InteriorRange,
        &mut RhsScratch,
        &mut State,
        &mut Meters,
    ) = compute_rhs;
    let _merge: fn(&RunConfig, &Path, Option<u64>) -> io::Result<Checkpoint> = merge_shards;
    let _par: fn(&RunConfig, usize, usize, u64, u64, bool) -> ParallelReport = run_parallel;
    type Supervised = Result<SupervisedReport, String>;
    let _sup: fn(&RunConfig, usize, usize, u64, u64, &RecoveryOpts) -> Supervised =
        run_parallel_supervised;

    let _stage: fn(bool) -> OutputStage = OutputStage::new;
    let _acquire: fn(&OutputStage) -> (Vec<u8>, u64) = OutputStage::acquire;
    let _submit: fn(&OutputStage, PathBuf, Vec<u8>, u64) -> u64 = OutputStage::submit;
    let _flush: fn(&OutputStage) -> u64 = OutputStage::flush;
    let _finish: fn(OutputStage) -> Result<IoTotals, String> = OutputStage::finish;

    let _guard: fn(HealthLimits) -> HealthGuard = HealthGuard::new;
    let _check: fn(&HealthGuard, &State) -> Result<(), HealthViolation> = HealthGuard::check_state;
}
