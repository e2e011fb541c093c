//! `compile`: Table 1's §5 analysis of all ten kernels (trace capture,
//! DDDG, candidate search, filtering, merging) on the *sample* dataset
//! at tiny scale, then `memoize` and lowering. The memoized program is
//! then run once on the held-out *eval* dataset at the headline LUT
//! configuration, so the compiled output is checked as well as timed.
//! Codegen, lowering and the check use the small-scale program: a
//! tiny-scale run lasts about a millisecond, too short to time steadily.
//!
//! Inputs are fixed by `Dataset::seed()`; the run seed does not enter.

use std::collections::HashSet;

use axmemo_compiler::candidates::{
    filter_unique, find_candidates, merge_overlapping, AnalysisSummary, Candidate, SearchConfig,
};
use axmemo_compiler::dddg::Dddg;
use axmemo_compiler::trace::TraceCapture;
use axmemo_core::config::MemoConfig;
use axmemo_sim::cpu::{SimConfig, Simulator};
use axmemo_sim::pipeline::LatencyModel;
use axmemo_workloads::{all_benchmarks, Benchmark, Dataset, Scale};

use crate::legs::{self, HEADLINE};
use crate::run::{Pass, Workload};
use crate::trace::Tracer;

/// Trace window per kernel, as in the `table1` binary.
pub const TRACE_CAP: usize = 200_000;

/// Scale of the compiled program and its held-out check.
const CHECK_SCALE: Scale = Scale::Small;

/// Jaccard threshold of the merge step, as in `candidates::analyze`.
const MERGE_THRESHOLD: f64 = 0.5;

/// Table 1 as the unmodified code computes it (`table1` at
/// `AXMEMO_SCALE=tiny`, the same values as `experiment_output_small.txt`):
/// kernel, dynamic candidates, unique candidates, mean CI ratio, coverage.
pub const EXPECTED: [(&str, usize, usize, f64, f64); 10] = [
    ("blackscholes", 46080, 1, 69.38, 0.9946),
    ("fft", 4550, 3, 29.33, 0.4743),
    ("inversek2j", 13312, 1, 91.00, 0.9750),
    ("jmeint", 512, 1, 12.70, 0.9407),
    ("jpeg", 14144, 4, 28.86, 0.9814),
    ("kmeans", 28672, 5, 11.06, 0.8818),
    ("sobel", 8100, 3, 13.83, 0.7750),
    ("hotspot", 5400, 2, 8.04, 0.8101),
    ("lavamd", 8256, 3, 12.08, 0.9796),
    ("srad", 15300, 3, 32.00, 0.9614),
];

/// `candidates::analyze`'s summary, computed from the three steps the
/// benchmark times separately.
pub fn summarize(g: &Dddg, dynamic: &[Candidate], unique: &[Candidate]) -> AnalysisSummary {
    let mean_ci_ratio = if unique.is_empty() {
        0.0
    } else {
        unique.iter().map(Candidate::ci_ratio).sum::<f64>() / unique.len() as f64
    };
    let covered: HashSet<usize> = dynamic
        .iter()
        .flat_map(|c| c.vertices.iter().copied())
        .collect();
    let covered_weight: u64 = covered.iter().map(|&v| g.vertices[v].weight).sum();
    let total = g.total_weight();
    AnalysisSummary {
        total_dynamic_subgraphs: dynamic.len(),
        unique_subgraphs: unique.len(),
        mean_ci_ratio,
        coverage: if total == 0 {
            0.0
        } else {
            covered_weight as f64 / total as f64
        },
    }
}

/// Compare a summary with the Table 1 row, at the precision Table 1
/// prints (two decimals; coverage as a percentage with two decimals).
pub fn check_summary(name: &str, s: &AnalysisSummary) -> Option<String> {
    let Some(&(_, dynamic, unique, ci, coverage)) = EXPECTED.iter().find(|e| e.0 == name) else {
        return Some(format!("no expected Table 1 row for {name}"));
    };
    let same = s.total_dynamic_subgraphs == dynamic
        && s.unique_subgraphs == unique
        && format!("{:.2}", s.mean_ci_ratio) == format!("{ci:.2}")
        && format!("{:.2}", 100.0 * s.coverage) == format!("{:.2}", 100.0 * coverage);
    (!same).then(|| {
        format!(
            "Table 1 row {} {} {:.2} {:.2}% != expected {dynamic} {unique} {ci:.2} {:.2}%",
            s.total_dynamic_subgraphs,
            s.unique_subgraphs,
            s.mean_ci_ratio,
            100.0 * s.coverage,
            100.0 * coverage
        )
    })
}

/// The `compile` workload.
#[derive(Debug, Default)]
pub struct Compile;

impl Workload for Compile {
    fn provenance(&self) -> String {
        format!(
            "\"scale\": \"Tiny\", \"jobs\": 1, \"analysis_dataset\": \"sample\", \
             \"trace_cap\": {TRACE_CAP}, \"check_scale\": \"{CHECK_SCALE:?}\", \
             \"check_dataset\": \"eval\", \"check_config\": \"{HEADLINE}\""
        )
    }

    fn inputs(&self, _index: u64) -> String {
        "fixed".to_string()
    }

    fn pass(&mut self, t: &mut Tracer, _index: u64, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let headline = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
        for bench in all_benchmarks() {
            let name = bench.meta().name;
            let problems = kernel(t, &mut pass, bench.as_ref(), &headline, traced)
                .err()
                .into_iter()
                .flatten()
                .collect();
            pass.finish_op(&format!("{name}/table1"), problems);
        }
        pass
    }
}

/// One kernel: analysis, codegen, lowering, and the held-out check.
fn kernel(
    t: &mut Tracer,
    pass: &mut Pass,
    bench: &dyn Benchmark,
    headline: &MemoConfig,
    traced: bool,
) -> Result<(), Vec<String>> {
    let name = bench.meta().name;
    let cell = format!("{name}/table1");
    let one = |e: String| vec![e];
    let (program, _) = t.span("workloads.program", &cell, |_| bench.program(Scale::Tiny));
    let mut machine = t.span("workloads.setup", &cell, |_| {
        bench.setup(Scale::Tiny, Dataset::Sample)
    });
    let mut sim = Simulator::new(SimConfig::baseline()).map_err(|e| one(e.to_string()))?;
    let mut cap = TraceCapture::with_limit(TRACE_CAP);
    t.span("compiler.trace", &cell, |_| {
        sim.run_traced(&program, &mut machine, Some(&mut cap))
    })
    .map_err(|e| one(format!("trace run: {e}")))?;
    let graph = t.span("compiler.dddg", &cell, |_| {
        Dddg::from_trace(cap.events(), &LatencyModel::default())
    });
    let cfg = SearchConfig::default();
    let dynamic = t.span("compiler.search", &cell, |_| find_candidates(&graph, &cfg));
    let filtered = t.span("compiler.filter", &cell, |_| filter_unique(&dynamic));
    let unique = t.span("compiler.merge", &cell, |_| {
        merge_overlapping(&filtered, MERGE_THRESHOLD)
    });
    let summary = summarize(&graph, &dynamic, &unique);
    pass.add("compiler.trace_events", cap.events().len() as f64);
    pass.add("compiler.dddg_vertices", graph.len() as f64);
    pass.add("compiler.dynamic_candidates", dynamic.len() as f64);
    pass.add("compiler.unique_candidates", unique.len() as f64);
    pass.digest.add(&format!(
        "{cell} {} {} {:.9} {:.9}",
        summary.total_dynamic_subgraphs,
        summary.unique_subgraphs,
        summary.mean_ci_ratio,
        summary.coverage
    ));
    let mut problems: Vec<String> = check_summary(name, &summary).into_iter().collect();

    // Codegen, lowering, and the held-out check on the eval dataset.
    let bound = bench.meta().metric.bound();
    let base_cell = format!("{name}/baseline");
    let lowered = legs::prepare(t, bench, CHECK_SCALE, &base_cell).map_err(one)?;
    let base = legs::baseline_leg(
        t,
        bench,
        CHECK_SCALE,
        Dataset::Eval,
        &lowered.base,
        &base_cell,
    )
    .map_err(one)?;
    legs::record_baseline(pass, &base_cell, &base);
    if base.golden_error > bound {
        problems.push(format!(
            "baseline vs golden error {:e} > bound {bound}",
            base.golden_error
        ));
    }
    let memo_cell = format!("{name}/{HEADLINE}");
    let leg = legs::memo_leg(
        t,
        bench,
        CHECK_SCALE,
        Dataset::Eval,
        &lowered.memo,
        headline,
        &base,
        traced,
        &memo_cell,
    )
    .map_err(one)?;
    legs::record_memo(pass, name, &memo_cell, &leg);
    pass.add(&format!("core.lut.hit_rate.{name}"), leg.hit_rate);
    pass.speedups.push(leg.speedup);
    pass.energies.push(leg.energy_reduction);
    pass.error_over_bound.push(leg.error / bound);
    if leg.error > bound {
        problems.push(format!("memoized error {:e} > bound {bound}", leg.error));
    }
    if traced {
        let cfg = MemoConfig {
            data_width: bench.data_width(),
            ..headline.clone()
        };
        let mismatches = legs::replay(t, pass, &leg.events, &cfg, &memo_cell);
        if mismatches > 0 {
            problems.push(format!(
                "{mismatches} replayed CRCs differ from the recorded ones"
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_compiler::candidates::analyze;
    use axmemo_workloads::benchmark_by_name;

    /// The benchmark's three timed steps reproduce `analyze` exactly.
    #[test]
    fn summarize_matches_analyze() {
        let bench = benchmark_by_name("jmeint").unwrap();
        let (program, _) = bench.program(Scale::Tiny);
        let mut machine = bench.setup(Scale::Tiny, Dataset::Sample);
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut cap = TraceCapture::with_limit(TRACE_CAP);
        sim.run_traced(&program, &mut machine, Some(&mut cap))
            .unwrap();
        let g = Dddg::from_trace(cap.events(), &LatencyModel::default());
        let cfg = SearchConfig::default();
        let dynamic = find_candidates(&g, &cfg);
        let unique = merge_overlapping(&filter_unique(&dynamic), MERGE_THRESHOLD);
        assert_eq!(summarize(&g, &dynamic, &unique), analyze(&g, &cfg));
        assert_eq!(
            check_summary("jmeint", &summarize(&g, &dynamic, &unique)),
            None
        );
    }

    #[test]
    fn check_summary_flags_a_changed_row() {
        let mut s = AnalysisSummary {
            total_dynamic_subgraphs: 512,
            unique_subgraphs: 1,
            mean_ci_ratio: 12.7,
            coverage: 0.9407,
        };
        assert_eq!(check_summary("jmeint", &s), None);
        s.unique_subgraphs = 2;
        assert!(check_summary("jmeint", &s).is_some());
        assert!(check_summary("doom", &s).is_some());
    }
}
