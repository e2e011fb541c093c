//! Table 1 pin: the §5 analysis of all ten kernels (tiny scale, sample
//! dataset, 200 000-event trace window) reproduces the committed rows
//! at the table's printed precision.

use axmemo_bench::table1_summary;
use axmemo_workloads::all_benchmarks;

/// Kernel, dynamic candidates, unique candidates, mean CI ratio,
/// coverage (%), as `table1` prints them.
const ROWS: [(&str, usize, usize, &str, &str); 10] = [
    ("blackscholes", 46080, 1, "69.38", "99.46"),
    ("fft", 4550, 3, "29.33", "47.43"),
    ("inversek2j", 13312, 1, "91.00", "97.50"),
    ("jmeint", 512, 1, "12.70", "94.07"),
    ("jpeg", 14144, 4, "28.86", "98.14"),
    ("kmeans", 28672, 5, "11.06", "88.18"),
    ("sobel", 8100, 3, "13.83", "77.50"),
    ("hotspot", 5400, 2, "8.04", "81.01"),
    ("lavamd", 8256, 3, "12.08", "97.96"),
    ("srad", 15300, 3, "32.00", "96.14"),
];

#[test]
fn table1_rows_match_the_committed_values() {
    let benches = all_benchmarks();
    let names: Vec<&str> = benches.iter().map(|b| b.meta().name).collect();
    let expected: Vec<&str> = ROWS.iter().map(|r| r.0).collect();
    assert_eq!(names, expected, "Table 1 row order");
    for (bench, &(name, dynamic, unique, ci, coverage)) in benches.iter().zip(&ROWS) {
        let s = table1_summary(bench.as_ref()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = (
            s.total_dynamic_subgraphs,
            s.unique_subgraphs,
            format!("{:.2}", s.mean_ci_ratio),
            format!("{:.2}", 100.0 * s.coverage),
        );
        assert_eq!(
            got,
            (dynamic, unique, ci.to_string(), coverage.to_string()),
            "{name}"
        );
    }
}
