//! Compile-only pin of the surface `examples/benchmark/src` builds
//! against: `yycore`, and what it imports from the crates `yycore`
//! depends on. The benchmark is a package of its own that tier-1 never
//! compiles, so a move that breaks one of its imports would otherwise
//! show only in `run.sh --smoke`.

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
