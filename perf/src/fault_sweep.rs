//! `fault_sweep`: the 190-cell `sweep::matrix` (fault-free plus three
//! fault domains × {unprotected, parity+SECDED} × three flip rates, all
//! ten kernels) at small scale through `Orchestrator::run_inner` with two
//! jobs and the shared `BaselineCache`. Pass `i` of a run uses fault seed
//! `seed + i`.
//!
//! Each pass first times the set-up calls a cell makes (build, memoize
//! and lower each kernel, generate its eval dataset) outside the pool;
//! inside the pool the cells repeat that work and it counts in the
//! pass's wall time only.

use axmemo_bench::orchestrator::{merge_profiles, JobOutcome, Orchestrator};
use axmemo_bench::{sweep, ReportMode};
use axmemo_workloads::{all_benchmarks, benchmark_by_name, Dataset, Scale};

use crate::legs;
use crate::run::{Pass, Workload};
use crate::stats;
use crate::trace::Tracer;

/// Worker threads of the sweep pool.
pub const JOBS: usize = 2;

/// Cells per kernel: the fault-free group plus 3 domains × 2
/// protections × 3 flip rates.
const CELLS_PER_KERNEL: usize = 19;

/// The `fault_sweep` workload.
#[derive(Debug)]
pub struct FaultSweep {
    /// Fault seed of the first pass.
    pub seed: u64,
    /// Dataset scale (the benchmark runs [`Scale::Small`]).
    pub scale: Scale,
    /// Kernels in the matrix (the benchmark runs all ten).
    pub benches: Vec<String>,
}

impl FaultSweep {
    /// The benchmark's configuration: all ten kernels at small scale.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            scale: Scale::Small,
            benches: all_benchmarks()
                .iter()
                .map(|b| b.meta().name.to_string())
                .collect(),
        }
    }
}

impl Workload for FaultSweep {
    fn provenance(&self) -> String {
        let cells = self.benches.len() * CELLS_PER_KERNEL;
        let tail =
            stats::highest_tail_percentile(cells).map_or("null".to_string(), |p| p.to_string());
        format!(
            "\"scale\": \"{:?}\", \"jobs\": {JOBS}, \"dataset\": \"eval\", \"first_fault_seed\": {}, \
             \"cell_ms_samples_per_pass\": {cells}, \"cell_ms_tail_percentile\": {tail}, \
             \"cell_ms_resolution_ms\": 1",
            self.scale, self.seed,
        )
    }

    fn inputs(&self, index: u64) -> String {
        format!("fault-seed-{}", self.seed + index)
    }

    fn pass(&mut self, t: &mut Tracer, index: u64, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let seed = self.seed + index;
        for name in &self.benches {
            let Some(bench) = benchmark_by_name(name) else {
                pass.finish_op(name, vec!["unknown benchmark".into()]);
                continue;
            };
            let cell = format!("{name}/prepare");
            if let Err(e) = legs::prepare(t, bench.as_ref(), self.scale, &cell) {
                pass.finish_op(&cell, vec![e]);
            }
            t.span("workloads.setup", &cell, |_| {
                bench.setup(self.scale, Dataset::Eval)
            });
        }

        let (matrix, metas) = sweep::matrix(seed, &self.benches);
        let orchestrator = Orchestrator::new(self.scale).jobs(JOBS).profile(traced);
        let (outcomes, cache) = t.span("bench.run_inner", &format!("sweep/seed-{seed}"), |_| {
            orchestrator.run_inner(&matrix)
        });
        let table = sweep::table(self.scale, seed, &metas, &outcomes).render(ReportMode::Json);
        pass.digest.add(&table);

        let mut unprotected = 0u64;
        let mut unprotected_over = 0u64;
        let mut cell_ms = Vec::with_capacity(outcomes.len());
        for (meta, outcome) in metas.iter().zip(&outcomes) {
            let cell = format!("{}/{}", outcome.spec.benchmark, outcome.spec.label);
            cell_ms.push(outcome.wall_ms as f64);
            pass.add("bench.retries", f64::from(outcome.attempts - 1));
            pass.add(
                "bench.faults_cleared",
                f64::from(u8::from(outcome.faults_cleared)),
            );
            let bound =
                benchmark_by_name(&outcome.spec.benchmark).map_or(0.0, |b| b.meta().metric.bound());
            let r = match &outcome.result {
                Ok(r) => r,
                Err(f) => {
                    pass.finish_op(
                        &cell,
                        vec![format!("status {}: {}", outcome.status(), f.message)],
                    );
                    continue;
                }
            };
            pass.digest.add(&format!(
                "{cell} {} {:?} {:?} {:e} {:e}",
                outcome.status(),
                r.baseline_stats,
                r.memo_stats,
                r.hit_rate,
                r.error.output_error
            ));
            record_cell(&mut pass, outcome);
            let ratio = r.error.output_error / bound;
            let mut problems = Vec::new();
            if meta.protection == "none" && meta.ppm > 0 {
                unprotected += 1;
                unprotected_over += u64::from(r.error.output_error > bound);
            } else {
                pass.error_over_bound.push(ratio);
                if r.error.output_error > bound {
                    problems.push(format!("error {:e} > bound {bound}", r.error.output_error));
                }
            }
            if meta.ppm == 0 {
                pass.speedups.push(r.speedup);
                pass.energies.push(r.energy_reduction);
                pass.add(
                    &format!("core.lut.hit_rate.{}", outcome.spec.benchmark),
                    r.hit_rate,
                );
                // Every cell shares this kernel's one baseline run.
                pass.sim_insts += r.baseline_stats.dynamic_insts;
                pass.add("sim.baseline_insts", r.baseline_stats.dynamic_insts as f64);
                pass.add("sim.baseline_cycles", r.baseline_stats.cycles as f64);
                pass.add("sim.branch_bubbles", r.baseline_stats.branch_bubbles as f64);
            }
            pass.finish_op(&cell, problems);
        }

        pass.add("bench.cells", outcomes.len() as f64);
        pass.add("bench.jobs", JOBS as f64);
        pass.add("bench.cell_ms_sum", cell_ms.iter().sum());
        pass.add(
            "bench.cell_ms_p50",
            stats::percentile(&cell_ms, 50.0).unwrap_or(0.0),
        );
        // p90 is quoted only when at least ten cells lie beyond it.
        if stats::highest_tail_percentile(cell_ms.len()).is_some() {
            pass.add(
                "bench.cell_ms_p90",
                stats::percentile(&cell_ms, 90.0).unwrap_or(0.0),
            );
        }
        pass.add(
            "bench.unprotected_over_bound_frac",
            if unprotected == 0 {
                0.0
            } else {
                unprotected_over as f64 / unprotected as f64
            },
        );
        if let Some(cache) = &cache {
            pass.add("bench.baselines_computed", cache.computed() as f64);
            pass.add("bench.baselines_reused", cache.reused() as f64);
            pass.add("bench.programs_compiled", cache.programs_compiled() as f64);
            pass.add("bench.programs_reused", cache.programs_reused() as f64);
        }
        if let Some(profile) = merge_profiles(&outcomes) {
            legs::record_profile(&mut pass, &profile);
        }
        pass
    }
}

/// Add one successful cell's memoized-leg counters to the pass.
fn record_cell(pass: &mut Pass, outcome: &JobOutcome) {
    let Ok(r) = &outcome.result else { return };
    let s = &r.memo_stats;
    pass.sim_insts += s.dynamic_insts;
    pass.add("sim.memo_insts", s.dynamic_insts as f64);
    pass.add("sim.memo_cycles", s.cycles as f64);
    pass.add("sim.memo_stall_cycles", s.memo_stall_cycles as f64);
    pass.add("sim.branch_bubbles", s.branch_bubbles as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced(seed: u64) -> FaultSweep {
        FaultSweep {
            seed,
            scale: Scale::Tiny,
            benches: vec!["blackscholes".into(), "sobel".into()],
        }
    }

    /// Same seed, same digest and counts; another seed, another digest.
    #[test]
    fn digest_and_counts_repeat_per_seed() {
        let mut t = Tracer::default();
        let a = reduced(7).pass(&mut t, 0, false);
        let b = reduced(7).pass(&mut t, 0, true);
        let c = reduced(7).pass(&mut t, 1, false);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.attempted, 38);
        assert_eq!(a.digest.hex(), b.digest.hex());
        assert_ne!(a.digest.hex(), c.digest.hex());
        for name in [
            "sim.memo_insts",
            "sim.memo_cycles",
            "bench.cells",
            "bench.baselines_computed",
        ] {
            assert_eq!(a.layer[name], b.layer[name], "{name}");
        }
        assert_eq!(a.layer["bench.cells"], 38.0);
        assert_eq!(a.layer["bench.baselines_computed"], 2.0);
        assert!(b.layer["profile.crc_beat_cycles"] > 0.0);
    }
}
