//! Regression pin: with `FaultConfig::default()` (all injection off),
//! every benchmark's metrics must stay byte-identical to the pre-fault
//! behaviour of the repository. The golden digests in
//! `tests/data/golden_tiny.txt` were captured from the tree *before*
//! the fault-injection subsystem existed; any drift in this test means
//! the default-off fault path is not a true no-op. Both execution tiers
//! must reproduce the same digests.

use axmemo_core::config::MemoConfig;
use axmemo_sim::cpu::DispatchTier;
use axmemo_telemetry::Telemetry;
use axmemo_workloads::{all_benchmarks, run, Benchmark, RunRequest, Scale};

const GOLDEN: &str = include_str!("data/golden_tiny.txt");

/// One deterministic digest line per (benchmark, config) cell. Floats
/// are rendered as raw bit patterns so the comparison is exact.
fn digest_line(
    bench: &dyn Benchmark,
    label: &str,
    cfg: &MemoConfig,
    dispatch: DispatchTier,
) -> String {
    let req = RunRequest {
        dispatch,
        ..RunRequest::new(bench, Scale::Tiny, cfg)
    };
    let r = run(&req, &mut Telemetry::off())
        .expect("tiny run succeeds")
        .result;
    format!(
        "{name} {label} base_cycles={bc} base_insts={bi} memo_cycles={mc} memo_insts={mi} \
         memo_ops={mo} speedup={sp:016x} energy={en:016x} hit_rate={hr:016x} error={er:016x}",
        name = bench.meta().name,
        bc = r.baseline_stats.cycles,
        bi = r.baseline_stats.dynamic_insts,
        mc = r.memo_stats.cycles,
        mi = r.memo_stats.dynamic_insts,
        mo = r.memo_stats.memo_insts,
        sp = r.speedup.to_bits(),
        en = r.energy_reduction.to_bits(),
        hr = r.hit_rate.to_bits(),
        er = r.error.output_error.to_bits(),
    )
}

fn compute_digests(dispatch: DispatchTier) -> Vec<String> {
    let configs = [
        ("l1-8k", MemoConfig::l1_only(8 * 1024)),
        ("l1l2", MemoConfig::l1_l2(8 * 1024, 256 * 1024)),
    ];
    let mut lines = Vec::new();
    for bench in all_benchmarks() {
        for (label, cfg) in &configs {
            lines.push(digest_line(bench.as_ref(), label, cfg, dispatch));
        }
    }
    lines
}

#[test]
fn default_fault_config_is_byte_identical_to_pre_fault_tree() {
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    for dispatch in DispatchTier::ALL {
        let digests = compute_digests(dispatch);
        // Print the computed digests so a legitimate regeneration (after
        // an intentional behaviour change) is copy-pasteable.
        for line in &digests {
            println!("{line}");
        }
        assert_eq!(
            digests.len(),
            golden.len(),
            "digest count changed: update tests/data/golden_tiny.txt only if the \
             behaviour change is intentional"
        );
        for (computed, expected) in digests.iter().zip(&golden) {
            assert_eq!(
                computed,
                expected,
                "metrics drifted from the pre-fault-injection tree ({})",
                dispatch.name()
            );
        }
    }
}
