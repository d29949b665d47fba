//! Compile-only pin of the `yycore` surface `examples/benchmark/src`
//! builds against. The benchmark is a package of its own that tier-1
//! never compiles, so a move that breaks one of its imports would
//! otherwise show only in `run.sh --smoke`.

#![allow(unused_imports)]

use std::path::PathBuf;
use std::time::Duration;
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
