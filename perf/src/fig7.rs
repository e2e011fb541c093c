//! `fig7`: Figure 7 at full scale — ten kernels, each with one baseline
//! leg and one memoized leg per `MemoConfig::paper_sweep()` LUT
//! configuration, on the eval dataset and the threaded tier. The
//! software-LUT and ATM contender columns of Fig. 7 are not run.
//!
//! Inputs are fixed by `Dataset::seed()`; the run seed does not enter.

use axmemo_core::config::MemoConfig;
use axmemo_workloads::{all_benchmarks, Benchmark, Dataset, Scale};

use crate::legs::{self, HEADLINE};
use crate::run::{Pass, Workload};
use crate::trace::Tracer;

/// The `fig7` workload at a given scale (the benchmark runs it at
/// [`Scale::Full`]; tests use [`Scale::Tiny`]).
#[derive(Debug)]
pub struct Fig7 {
    /// Dataset scale.
    pub scale: Scale,
}

impl Workload for Fig7 {
    fn provenance(&self) -> String {
        format!(
            "\"scale\": \"{:?}\", \"jobs\": 1, \"dataset\": \"eval\", \"headline_config\": \"{HEADLINE}\"",
            self.scale
        )
    }

    fn inputs(&self, _index: u64) -> String {
        "fixed".to_string()
    }

    fn pass(&mut self, t: &mut Tracer, _index: u64, traced: bool) -> Pass {
        let mut pass = Pass::default();
        for bench in all_benchmarks() {
            kernel(t, &mut pass, bench.as_ref(), self.scale, traced);
        }
        pass
    }
}

/// One kernel: set-up, the baseline leg, then the four memoized legs.
fn kernel(t: &mut Tracer, pass: &mut Pass, bench: &dyn Benchmark, scale: Scale, traced: bool) {
    let name = bench.meta().name;
    let bound = bench.meta().metric.bound();
    let base_cell = format!("{name}/baseline");
    let base = legs::prepare(t, bench, scale, &base_cell).and_then(|lowered| {
        let base = legs::baseline_leg(t, bench, scale, Dataset::Eval, &lowered.base, &base_cell)?;
        Ok((lowered, base))
    });
    let (lowered, base) = match base {
        Ok(ok) => ok,
        Err(e) => {
            pass.finish_op(&base_cell, vec![e]);
            return;
        }
    };
    legs::record_baseline(pass, &base_cell, &base);
    let mut problems = Vec::new();
    if base.golden_error > bound {
        problems.push(format!(
            "baseline vs golden error {:e} > bound {bound}",
            base.golden_error
        ));
    }
    pass.finish_op(&base_cell, problems);

    for (label, memo) in MemoConfig::paper_sweep() {
        let cell = format!("{name}/{label}");
        let leg = match legs::memo_leg(
            t,
            bench,
            scale,
            Dataset::Eval,
            &lowered.memo,
            &memo,
            &base,
            traced,
            &cell,
        ) {
            Ok(leg) => leg,
            Err(e) => {
                pass.finish_op(&cell, vec![e]);
                continue;
            }
        };
        legs::record_memo(pass, name, &cell, &leg);
        pass.error_over_bound.push(leg.error / bound);
        let mut problems = Vec::new();
        if leg.error > bound {
            problems.push(format!("memoized error {:e} > bound {bound}", leg.error));
        }
        if label == HEADLINE {
            pass.speedups.push(leg.speedup);
            pass.energies.push(leg.energy_reduction);
            pass.add(&format!("core.lut.hit_rate.{name}"), leg.hit_rate);
        }
        if traced {
            let cfg = MemoConfig {
                data_width: bench.data_width(),
                ..memo
            };
            let mismatches = legs::replay(t, pass, &leg.events, &cfg, &cell);
            if mismatches > 0 {
                problems.push(format!(
                    "{mismatches} replayed CRCs differ from the recorded ones"
                ));
            }
        }
        pass.finish_op(&cell, problems);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_bench::run_cell;

    /// The benchmark's call-by-call legs give the library runner's
    /// numbers, and two passes (one traced) give the same digest.
    #[test]
    fn legs_match_runner_and_digest_repeats() {
        let mut w = Fig7 { scale: Scale::Tiny };
        let mut t = Tracer::default();
        let first = w.pass(&mut t, 0, false);
        let second = w.pass(&mut t, 1, true);
        assert!(first.failures.is_empty(), "{:?}", first.failures);
        assert!(second.failures.is_empty(), "{:?}", second.failures);
        assert_eq!(first.attempted, 50);
        assert_eq!(first.digest.hex(), second.digest.hex());
        for name in [
            "sim.memo_insts",
            "core.lut.lookups",
            "core.lut.l1_hits",
            "sim.baseline_cycles",
        ] {
            assert_eq!(first.layer[name], second.layer[name], "{name}");
        }
        assert!(second.layer["profile.crc_beat_cycles"] > 0.0);
        assert_eq!(
            second.layer["core.replay.lookups"],
            second.layer["core.lut.lookups"]
        );

        let headline = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
        for (i, bench) in all_benchmarks().iter().enumerate() {
            let r = run_cell(bench.as_ref(), Scale::Tiny, &headline).unwrap();
            assert_eq!(first.speedups[i], r.speedup, "{}", bench.meta().name);
            assert_eq!(
                first.energies[i],
                r.energy_reduction,
                "{}",
                bench.meta().name
            );
        }
    }
}
