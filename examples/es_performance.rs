//! Regenerate the paper's performance artifacts: Table I, Table II,
//! Table III and the MPIPROGINF report (List 1) — what `yycore tables`
//! prints.
//!
//! The kernel workload (flops per grid point per step) is *measured* from
//! a real instrumented run of the solver, then projected onto the Earth
//! Simulator machine model (see `yy-esmodel` and DESIGN.md for the
//! substitution rationale).
//!
//! ```text
//! cargo run --release --example es_performance
//! ```

fn main() {
    print!("{}", yycore::report::paper_tables_text());
}
