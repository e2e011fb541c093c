//! The calls a `fig7` cell makes, one public function at a time, each
//! inside its own span: build, memoize and lower the programs, run the
//! baseline and memoized legs, read and score the outputs, and (traced
//! runs only) replay the memoized leg's lookup stream through the CRC
//! unit and the LUT hierarchy.

use std::sync::OnceLock;
use std::time::Instant;

use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_core::crc::{CrcAlgorithm, PipelinedCrc};
use axmemo_core::lut::LutStats;
use axmemo_core::two_level::TwoLevelLut;
use axmemo_core::unit::{LookupEvent, UnitStats};
use axmemo_sim::cpu::{SimConfig, Simulator};
use axmemo_sim::decoded::DecodedProgram;
use axmemo_sim::energy::EnergyModel;
use axmemo_sim::pipeline::LatencyModel;
use axmemo_sim::stats::RunStats;
use axmemo_sim::threaded::ThreadedProgram;
use axmemo_telemetry::{PhaseId, Profile, Telemetry};
use axmemo_workloads::runner::compute_error;
use axmemo_workloads::{Benchmark, Dataset, Scale};

use crate::run::Pass;
use crate::trace::Tracer;

/// The configuration Fig. 7's headline geomeans are quoted at.
pub const HEADLINE: &str = "L1 (8KB) + L2 (512KB)";

/// Both legs of a benchmark, lowered for the threaded tier.
pub struct Lowered {
    /// Lowered baseline program.
    pub base: ThreadedProgram,
    /// Lowered memoized program.
    pub memo: ThreadedProgram,
}

/// Build, memoize and lower `bench` at `scale` (set-up calls).
pub fn prepare(
    t: &mut Tracer,
    bench: &dyn Benchmark,
    scale: Scale,
    cell: &str,
) -> Result<Lowered, String> {
    let (program, specs) = t.span("workloads.program", cell, |_| bench.program(scale));
    let memo_program = t
        .span("compiler.codegen", cell, |_| memoize(&program, &specs))
        .map_err(|e| format!("memoize: {e}"))?;
    let (base, memo) = t.span("sim.lower", cell, |_| {
        let latency = LatencyModel::default();
        let base = ThreadedProgram::compile(&DecodedProgram::compile(&program, &latency));
        let memo = ThreadedProgram::compile(&DecodedProgram::compile(&memo_program, &latency));
        (base, memo)
    });
    Ok(Lowered { base, memo })
}

/// Result of a baseline leg.
pub struct BaselineLeg {
    /// Simulated statistics.
    pub stats: RunStats,
    /// Outputs read from the finished machine.
    pub exact: Vec<f64>,
    /// Error of those outputs against the Rust golden model.
    pub golden_error: f64,
}

/// Set up a machine, compute the golden outputs from its inputs, run
/// the baseline program on it and score the outputs against the golden.
pub fn baseline_leg(
    t: &mut Tracer,
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    base: &ThreadedProgram,
    cell: &str,
) -> Result<BaselineLeg, String> {
    let mut machine = t.span("workloads.setup", cell, |_| bench.setup(scale, dataset));
    let golden = t.span("workloads.golden", cell, |_| bench.golden(&machine, scale));
    let mut sim = Simulator::new(SimConfig::baseline()).map_err(|e| e.to_string())?;
    sim.reset();
    let stats = t
        .span("sim.baseline", cell, |_| {
            sim.run_prepared_threaded(base, &mut machine)
        })
        .map_err(|e| format!("baseline run: {e}"))?;
    let exact = t.span("workloads.outputs", cell, |_| {
        bench.outputs(&machine, scale)
    });
    let metric = bench.meta().metric;
    let golden_error = t.span("workloads.error", cell, |_| {
        compute_error(metric, &golden, &exact).output_error
    });
    Ok(BaselineLeg {
        stats,
        exact,
        golden_error,
    })
}

/// Result of a memoized leg.
pub struct MemoLeg {
    /// Simulated statistics.
    pub stats: RunStats,
    /// Memoization-unit counters.
    pub unit: UnitStats,
    /// L1 LUT statistics.
    pub l1: LutStats,
    /// L2 LUT statistics.
    pub l2: LutStats,
    /// LUT hit rate across levels.
    pub hit_rate: f64,
    /// Output error against the baseline leg.
    pub error: f64,
    /// Baseline ÷ memoized cycles.
    pub speedup: f64,
    /// Baseline ÷ memoized energy.
    pub energy_reduction: f64,
    /// Cycle attribution (traced runs only).
    pub profile: Option<Profile>,
    /// Recorded lookups (traced runs only).
    pub events: Vec<LookupEvent>,
}

/// Run the memoized program under `memo` on a fresh machine and score it
/// against `base`. A traced leg also records the lookup stream and a
/// cycle-attribution profile; neither changes a simulated statistic.
#[allow(clippy::too_many_arguments)]
pub fn memo_leg(
    t: &mut Tracer,
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    program: &ThreadedProgram,
    memo: &MemoConfig,
    base: &BaselineLeg,
    traced: bool,
    cell: &str,
) -> Result<MemoLeg, String> {
    let cfg = MemoConfig {
        data_width: bench.data_width(),
        ..memo.clone()
    };
    let mut sim = Simulator::new(SimConfig::with_memo(cfg.clone())).map_err(|e| e.to_string())?;
    if traced {
        let mut tel = Telemetry::off();
        tel.profiler_mut().enable();
        tel.profiler_mut().set_label(bench.meta().name);
        tel.profiler_mut().enter(PhaseId::Run);
        sim.set_telemetry(tel);
        sim.memo_unit_mut()
            .expect("memo configured")
            .enable_event_log();
    }
    sim.reset();
    let mut machine = t.span("workloads.setup", cell, |_| bench.setup(scale, dataset));
    let stats = t
        .span("sim.memo", cell, |_| {
            sim.run_prepared_threaded(program, &mut machine)
        })
        .map_err(|e| format!("memoized run: {e}"))?;
    let profile = traced.then(|| {
        let mut tel = sim.take_telemetry();
        tel.profiler_mut().exit_cycles(stats.cycles);
        tel.take_profile().unwrap_or_default()
    });
    let approx = t.span("workloads.outputs", cell, |_| {
        bench.outputs(&machine, scale)
    });
    let metric = bench.meta().metric;
    let error = t.span("workloads.error", cell, |_| {
        compute_error(metric, &base.exact, &approx).output_error
    });
    let unit = sim.memo_unit_mut().expect("memo configured");
    let events = unit.take_event_log();
    let energy = EnergyModel::for_l1_lut(cfg.l1_bytes);
    Ok(MemoLeg {
        stats,
        unit: unit.stats(),
        l1: unit.lut().l1_stats(),
        l2: unit.lut().l2_stats(),
        hit_rate: unit.lut().total_hit_rate(),
        error,
        speedup: base.stats.cycles as f64 / stats.cycles.max(1) as f64,
        energy_reduction: energy.total_pj(&base.stats.energy)
            / energy.total_pj(&stats.energy).max(f64::MIN_POSITIVE),
        profile,
        events,
    })
}

/// Add a memoized leg's simulated counters to the pass (per-layer
/// counts and the digest).
pub fn record_memo(pass: &mut Pass, kernel: &str, cell: &str, leg: &MemoLeg) {
    pass.digest.add(&format!(
        "{cell} {:?} {:?} {:?} {:?}",
        leg.stats, leg.unit, leg.l1, leg.l2
    ));
    pass.sim_insts += leg.stats.dynamic_insts;
    pass.add("sim.memo_insts", leg.stats.dynamic_insts as f64);
    pass.add(
        &format!("sim.memo_insts.{kernel}"),
        leg.stats.dynamic_insts as f64,
    );
    pass.add("sim.memo_cycles", leg.stats.cycles as f64);
    pass.add("sim.memo_stall_cycles", leg.stats.memo_stall_cycles as f64);
    pass.add("sim.branch_bubbles", leg.stats.branch_bubbles as f64);
    pass.add("core.lut.lookups", leg.unit.lookups as f64);
    pass.add("core.lut.l1_hits", leg.unit.l1_hits as f64);
    pass.add("core.lut.l2_hits", leg.unit.l2_hits as f64);
    pass.add("core.lut.updates", leg.unit.updates as f64);
    pass.add(
        "core.lut.evictions",
        (leg.l1.evictions + leg.l2.evictions) as f64,
    );
    pass.add(
        "core.lut.invalidations",
        (leg.l1.invalidations + leg.l2.invalidations) as f64,
    );
    pass.add("core.crc.input_bytes", leg.unit.input_bytes as f64);
    if let Some(profile) = &leg.profile {
        record_profile(pass, profile);
    }
}

/// Add a baseline leg's simulated counters to the pass.
pub fn record_baseline(pass: &mut Pass, cell: &str, leg: &BaselineLeg) {
    pass.digest.add(&format!("{cell} {:?}", leg.stats));
    pass.sim_insts += leg.stats.dynamic_insts;
    pass.add("sim.baseline_insts", leg.stats.dynamic_insts as f64);
    pass.add("sim.baseline_cycles", leg.stats.cycles as f64);
    pass.add("sim.branch_bubbles", leg.stats.branch_bubbles as f64);
}

/// Profiler phases reported per layer, by wire name.
const PROFILE_PHASES: [(&str, &str); 6] = [
    ("crc.beat", "profile.crc_beat_cycles"),
    ("lut.l1.search", "profile.lut_l1_search_cycles"),
    ("lut.l2.probe", "profile.lut_l2_probe_cycles"),
    ("lut.update", "profile.lut_update_cycles"),
    ("lut.evict", "profile.lut_evict_cycles"),
    ("quality.monitor", "profile.quality_cycles"),
];

/// Add a profile's exclusive cycles per leaf phase to the pass.
pub fn record_profile(pass: &mut Pass, profile: &Profile) {
    for (path, stat) in &profile.phases {
        let leaf = path.rsplit(';').next().unwrap_or(path);
        if let Some((_, metric)) = PROFILE_PHASES.iter().find(|(p, _)| *p == leaf) {
            pass.add(metric, stat.cycles as f64);
        }
    }
}

/// Host cost of one `Instant::now()` pair, subtracted from per-call
/// replay timings.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut deltas: Vec<u64> = (0..1001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        deltas.sort_unstable();
        deltas[deltas.len() / 2]
    })
}

/// Replay a recorded lookup stream: every input through
/// `PipelinedCrc::checksum` (checked against the recorded CRC), then
/// every lookup, and every update a miss led to, through a fresh
/// `TwoLevelLut`. Adds host costs and the hit gap to the pass; returns
/// the number of CRC mismatches.
pub fn replay(
    t: &mut Tracer,
    pass: &mut Pass,
    events: &[LookupEvent],
    memo: &MemoConfig,
    cell: &str,
) -> u64 {
    t.span("core.replay", cell, |_| {
        let crc = PipelinedCrc::new(memo.crc_width);
        let start = Instant::now();
        let mut mismatches = 0u64;
        let mut bytes = 0u64;
        for e in events {
            bytes += e.input_bytes.len() as u64;
            if std::hint::black_box(crc.checksum(&e.input_bytes)) != e.crc {
                mismatches += 1;
            }
        }
        let crc_ns = start.elapsed().as_nanos() as f64;

        let overhead = clock_overhead_ns();
        let mut lut = TwoLevelLut::new(memo);
        let (mut lookup_ns, mut update_ns, mut updates) = (0u64, 0u64, 0u64);
        let mut hit_gap = 0i64;
        for e in events {
            let t0 = Instant::now();
            let outcome = std::hint::black_box(lut.lookup(e.lut, e.crc));
            let t1 = Instant::now();
            lookup_ns += ((t1 - t0).as_nanos() as u64).saturating_sub(overhead);
            hit_gap += i64::from(outcome.is_hit()) - i64::from(e.hit);
            if let (false, Some(data)) = (outcome.is_hit(), e.data) {
                let t2 = Instant::now();
                lut.update(e.lut, e.crc, data);
                update_ns += ((t2.elapsed()).as_nanos() as u64).saturating_sub(overhead);
                updates += 1;
            }
        }
        pass.add("core.replay.crc_ns", crc_ns);
        pass.add("core.replay.crc_bytes", bytes as f64);
        pass.add("core.replay.lookups", events.len() as f64);
        pass.add("core.replay.lookup_ns", lookup_ns as f64);
        pass.add("core.replay.updates", updates as f64);
        pass.add("core.replay.update_ns", update_ns as f64);
        pass.add("core.replay_hit_gap", hit_gap as f64);
        mismatches
    })
}
