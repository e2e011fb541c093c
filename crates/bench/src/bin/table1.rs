//! Table 1: DDDG analysis of the benchmarks — total dynamic candidate
//! subgraphs, unique subgraphs after filtering, mean compute-to-input
//! ratio, and memoization coverage.
//!
//! Per §5 the analysis runs on the *sample* input set (disjoint from
//! evaluation) and a bounded trace window.

use axmemo_bench::{table1_summary, BenchArgs, Table};
use axmemo_workloads::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let mut table = Table::new(
        "Table 1: dynamic data dependence graph (DDDG) analysis",
        &["Benchmark", "# dynamic", "# unique", "CI_Ratio", "Coverage"],
    );
    for bench in all_benchmarks() {
        let summary = table1_summary(bench.as_ref())?;
        table.row(vec![
            bench.meta().name.to_string(),
            summary.total_dynamic_subgraphs.to_string(),
            summary.unique_subgraphs.to_string(),
            format!("{:.2}", summary.mean_ci_ratio),
            format!("{:.2}%", 100.0 * summary.coverage),
        ]);
    }
    println!("{}", table.render(args.report));
    Ok(())
}
