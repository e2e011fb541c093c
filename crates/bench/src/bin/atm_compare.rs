//! §6.2 "Comparison with prior work": per-benchmark speedup of our ATM
//! (Approximate Task Memoization) reimplementation, normalised to the
//! baseline. The paper reports speedups only for blackscholes, fft,
//! inversek2j and kmeans, with slowdowns elsewhere and a geomean of
//! 0.8x.

use axmemo_bench::{atm_outcome, collect_events, geomean, scale_from_env, DispatchTier};
use axmemo_workloads::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_env();
    println!("ATM comparison (software task memoization), scale {scale:?}");
    println!(
        "{:<14} | {:>10} | {:>10} | {:>14} | {:>12}",
        "Benchmark", "speedup", "hit rate", "false-hit rate", "inst ratio"
    );
    let mut speedups = Vec::new();
    for bench in all_benchmarks() {
        let inputs = collect_events(bench.as_ref(), scale, DispatchTier::default(), None)?;
        let atm = atm_outcome(&inputs);
        println!(
            "{:<14} | {:>9.2}x | {:>9.1}% | {:>13.2}% | {:>12.2}",
            bench.meta().name,
            atm.speedup,
            100.0 * atm.hit_rate(),
            100.0 * atm.collision_rate(),
            atm.inst_ratio,
        );
        speedups.push(atm.speedup);
    }
    println!();
    println!(
        "ATM geomean speedup: {:.2}x (paper: 0.8x)",
        geomean(&speedups)
    );
    Ok(())
}
