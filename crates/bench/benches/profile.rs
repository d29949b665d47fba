//! Measured per-kernel profile artifact: run the serial reference
//! solver with counters armed and emit the per-kernel costs the ES
//! model consumes — exact flops per grid point per step, measured
//! MFLOPS, arithmetic intensity and equivalent vector length per
//! kernel, plus the projection the measured profile yields at the
//! paper's flagship shape.
//!
//! With `BENCH_PROFILE_JSON=<path>` set, writes a machine-readable
//! summary (`BENCH_profile.json` in CI; schema-checked there).
//!
//! Knobs: `YY_BENCH_PROFILE_GRID` (small|medium), `YY_BENCH_PROFILE_STEPS`.
//!
//! Run with: `cargo bench -p yy-bench --bench profile`

use yy_esmodel::model::{project, project_kernels, RunShape};
use yy_esmodel::{EsMachine, EsModelParams, KernelProfile};
use yy_obs::counters::kernel;
use yycore::{RunConfig, SerialSim};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let mut cfg = match std::env::var("YY_BENCH_PROFILE_GRID").as_deref() {
        Ok("medium") => RunConfig::medium(),
        _ => RunConfig::small(),
    };
    cfg.init.perturb_amplitude = 1e-2;
    let steps = env_u64("YY_BENCH_PROFILE_STEPS", 5);

    let mut sim = SerialSim::new(cfg.clone());
    let interior = sim.interior_points();
    let report = sim.run(steps, 0);
    let snap = &report.kernels;
    let costs = report.kernel_costs(interior, cfg.nr);
    let total: f64 = costs.iter().map(|k| k.flops_per_point_step).sum();

    let machine = EsMachine::earth_simulator();
    let params = EsModelParams::calibrated();
    let shape = RunShape::flagship();
    let projection = project(&machine, &params, &KernelProfile::from_kernels(&costs), &shape);

    let mut rows = String::new();
    for (i, (cost, proj)) in
        costs.iter().zip(project_kernels(&machine, &params, &costs, &shape)).enumerate()
    {
        let id = (0..kernel::COUNT)
            .find(|&id| kernel::name(id as u8) == cost.name)
            .expect("cost rows come from kernel ids");
        let k = &snap.kernels[id];
        println!(
            "profile/{:<16} {:>10.2} flops/pt/step  {:>10.1} MFLOPS  VL {:>5.1}  {:>5.2}% time @ES",
            cost.name,
            cost.flops_per_point_step,
            k.mflops(),
            k.avg_vector_length(),
            proj.time_fraction * 100.0
        );
        rows.push_str(&format!(
            concat!(
                "{}    {{ \"name\": \"{}\", \"flops_per_point_step\": {:.4}, ",
                "\"mflops\": {:.1}, \"intensity\": {:.4}, \"avg_vector_length\": {:.2}, ",
                "\"es_time_fraction\": {:.4} }}"
            ),
            if i == 0 { "" } else { ",\n" },
            cost.name,
            cost.flops_per_point_step,
            k.mflops(),
            k.intensity(),
            k.avg_vector_length(),
            proj.time_fraction,
        ));
    }
    println!(
        "profile/total            {total:>10.2} flops/pt/step -> ES flagship {:.1} TFlops",
        projection.tflops()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"profile\",\n",
            "  \"steps\": {},\n",
            "  \"interior_points\": {},\n",
            "  \"flops_per_point_step\": {:.4},\n",
            "  \"es_flagship_tflops\": {:.3},\n",
            "  \"kernels\": [\n{}\n  ]\n",
            "}}\n"
        ),
        report.steps, interior, total, projection.tflops(), rows
    );
    if let Ok(path) = std::env::var("BENCH_PROFILE_JSON") {
        std::fs::write(&path, &json).expect("write BENCH_profile.json");
        println!("wrote {path}");
    }
}
