//! The threaded interpreter is an *optimisation*, never a semantic
//! change: these tests pin byte-identical results across both
//! execution tiers — the legacy instruction-at-a-time loop
//! (`--dispatch legacy`, the executable spec) and the threaded
//! superblock interpreter (`--dispatch threaded`, the default) — at
//! the benchmark and sweep level: metrics, raw run statistics,
//! telemetry event streams, and the whole aggregated fault-sweep
//! report. `tests/differential.rs` checks the same equivalence on
//! generated programs.

use axmemo_bench::orchestrator::Orchestrator;
use axmemo_bench::{sweep, DispatchTier, ReportMode};
use axmemo_core::config::MemoConfig;
use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
use axmemo_sim::ir::{Cond, IAluOp, Operand};
use axmemo_sim::ProgramBuilder;
use axmemo_telemetry::{event_to_json, RingBufferSink, Telemetry};
use axmemo_workloads::runner::{run, RunRequest};
use axmemo_workloads::{all_benchmarks, Scale};

/// Every registered benchmark at tiny scale: identical baseline and
/// memoized [`axmemo_sim::stats::RunStats`], identical paper metrics,
/// and an identical telemetry event stream (every LUT probe, quality
/// decision and span edge at the same simulated cycle) on both
/// interpreters.
#[test]
fn every_benchmark_is_bit_identical_across_interpreters() {
    let cfg = MemoConfig::l1_l2(8 * 1024, 256 * 1024);
    for bench in all_benchmarks() {
        let name = bench.meta().name;
        let mut legs = Vec::new();
        for tier in DispatchTier::ALL {
            let sink = RingBufferSink::new(4_000_000);
            let mut tel = Telemetry::enabled();
            tel.add_sink(Box::new(sink.clone()));
            let req = RunRequest {
                dispatch: tier,
                ..RunRequest::new(bench.as_ref(), Scale::Tiny, &cfg)
            };
            let report = run(&req, &mut tel)
                .unwrap_or_else(|e| panic!("{name} (dispatch={}): {e}", tier.name()));
            assert_eq!(sink.dropped(), 0, "{name}: event stream truncated");
            let events: Vec<String> = sink.events().iter().map(event_to_json).collect();
            let json = report.to_json(tel.registry());
            legs.push((tier, report, json, events));
        }
        let (_, ref_report, ref_json, ref_events) = &legs[0];
        for (tier, report, json, events) in &legs[1..] {
            let t = tier.name();
            assert_eq!(
                report.result.baseline_stats, ref_report.result.baseline_stats,
                "{name} ({t}): baseline stats diverge"
            );
            assert_eq!(
                report.result.memo_stats, ref_report.result.memo_stats,
                "{name} ({t}): memoized stats diverge"
            );
            assert_eq!(
                report.result.error.output_error, ref_report.result.error.output_error,
                "{name} ({t}): output error diverges"
            );
            assert_eq!(
                report.result.hit_rate, ref_report.result.hit_rate,
                "{name} ({t}): hit rate diverges"
            );
            assert_eq!(json, ref_json, "{name} ({t}): report JSON diverges");
            assert_eq!(
                events.len(),
                ref_events.len(),
                "{name} ({t}): event counts diverge"
            );
            for (i, (got, want)) in events.iter().zip(ref_events).enumerate() {
                assert_eq!(got, want, "{name} ({t}): event {i} diverges");
            }
        }
    }
}

/// Side-exit stress: a conditional branch whose bias *flips* mid-run.
/// The superblock builder fuses it one way from its static shape, so
/// for a long stretch of the run every fused copy of the branch
/// disagrees with the runtime direction and side-exits mid-superblock.
/// Stats, registers, and memory must still match the legacy loop
/// exactly.
#[test]
fn biased_branch_flip_mid_run_side_exits_exactly() {
    // Phase 1 (i < 600): inner forward branch never taken (fused
    // direction holds). Phase 2 (i >= 600): taken every iteration —
    // constant side exits from the unrolled chain.
    let mut b = ProgramBuilder::new();
    b.movi(1, 0).movi(2, 1200).movi(3, 0).movi(6, 600);
    let top = b.label("top");
    let skip = b.label("skip");
    b.bind(top);
    b.branch(Cond::LtS, 1, Operand::Reg(6), skip);
    b.alu(IAluOp::Add, 3, 3, Operand::Imm(13));
    b.alu(IAluOp::Xor, 3, 3, Operand::Reg(1));
    b.bind(skip);
    b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
    b.branch(Cond::LtS, 1, Operand::Reg(2), top);
    b.halt();
    let program = b.build().unwrap();

    let run = |dispatch: DispatchTier| {
        let cfg = SimConfig {
            dispatch,
            ..SimConfig::baseline()
        };
        let mut sim = Simulator::new(cfg).unwrap();
        let mut machine = Machine::new(64 * 1024);
        let stats = sim.run(&program, &mut machine).unwrap();
        (stats, machine.regs, machine.mem)
    };
    let reference = run(DispatchTier::Legacy);
    assert_eq!(run(DispatchTier::Threaded), reference);
    // Sanity: both phases actually executed.
    assert_eq!(reference.1[1], 1200);
    assert_ne!(reference.1[3], 0);
}

/// The reduced fault sweep — fault injection, retries, shared baselines
/// and all — renders a byte-identical JSON report on every execution
/// tier (the in-tree version of the CI `fault_sweep --dispatch …`
/// golden diffs).
#[test]
fn reduced_fault_sweep_golden_diff_across_interpreters() {
    let benches = vec!["blackscholes".to_string(), "fft".to_string()];
    let (matrix, metas) = sweep::matrix(7, &benches);
    let render = |tier: DispatchTier| -> String {
        let outcomes = Orchestrator::new(Scale::Tiny)
            .jobs(1)
            .dispatch(tier)
            .run(&matrix);
        sweep::table(Scale::Tiny, 7, &metas, &outcomes).render(ReportMode::Json)
    };
    assert_eq!(
        render(DispatchTier::Threaded),
        render(DispatchTier::Legacy),
        "fault-sweep report must not depend on the interpreter"
    );
}
