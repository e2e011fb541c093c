//! The repository benchmark. One command runs a workload for a fixed
//! time, checks its outputs, and prints every metric by name and unit;
//! the last line of standard output is one JSON object:
//!
//! ```text
//! cargo run --release --offline --manifest-path perf/Cargo.toml -- \
//!     --workload compile|fig7|fault_sweep --seed <n> --seconds <n> --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics, writing
//! the spans to `perf/out/`. See `perf/README.md` for the metric
//! definitions.

mod compile;
mod fault_sweep;
mod fig7;
mod legs;
mod metrics;
mod run;
mod stats;
mod trace;

use axmemo_workloads::Scale;

fn main() {
    let args = match run::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", run::USAGE);
            std::process::exit(2);
        }
    };
    let mut workload: Box<dyn run::Workload> = match args.workload.as_str() {
        "compile" => Box::new(compile::Compile),
        "fig7" => Box::new(fig7::Fig7 { scale: Scale::Full }),
        "fault_sweep" => Box::new(fault_sweep::FaultSweep::new(args.seed)),
        other => {
            eprintln!("error: unknown workload {other}\n{}", run::USAGE);
            std::process::exit(2);
        }
    };
    std::process::exit(run::run(&args, workload.as_mut()));
}
