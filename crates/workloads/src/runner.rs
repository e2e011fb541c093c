//! One-stop harness: run a benchmark baseline and memoized under a
//! given LUT configuration and report the paper's metrics (speedup,
//! energy reduction, dynamic-instruction ratio, hit rate, output error).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::meta::Metric;
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_core::lut::LutStats;
use axmemo_core::snapshot::{MemoSnapshot, RecoveryOutcome, RecoveryReport};
use axmemo_core::unit::UnitStats;
use axmemo_core::RestorePolicy;
use axmemo_sim::cpu::{DispatchTier, SimConfig, SimError, Simulator};
use axmemo_sim::decoded::DecodedProgram;
use axmemo_sim::energy::EnergyModel;
use axmemo_sim::pipeline::LatencyModel;
use axmemo_sim::stats::RunStats;
use axmemo_sim::threaded::ThreadedProgram;
use axmemo_sim::Program;
use axmemo_telemetry::{escape_json, PhaseId, Telemetry};

/// Per-element relative errors (for the Fig. 10b CDF) plus aggregates.
#[derive(Debug, Clone, Default)]
pub struct ErrorReport {
    /// Equation 2 whole-output error (or misclassification rate).
    pub output_error: f64,
    /// Element-wise relative errors, for CDF plotting.
    pub elementwise: Vec<f64>,
    /// Output elements where the exact or approximate value was NaN or
    /// infinite. Such pairs are clamped to [`NON_FINITE_ERROR`] (unless
    /// bit-identical) so aggregates stay finite instead of silently
    /// poisoning every downstream mean with NaN.
    pub non_finite: u64,
}

/// Everything the figures need for one (benchmark, config) cell.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// LUT configuration label.
    pub config: String,
    /// Baseline cycles / memoized cycles (Fig. 7a).
    pub speedup: f64,
    /// Baseline energy / memoized energy (Fig. 7b).
    pub energy_reduction: f64,
    /// Memoized dynamic instructions / baseline (Fig. 8, total bar).
    pub dyn_inst_ratio: f64,
    /// Fraction of the memoized run's instructions that are memoization
    /// overhead (Fig. 8, black segment).
    pub memo_inst_fraction: f64,
    /// Total LUT hit rate across levels (Fig. 9).
    pub hit_rate: f64,
    /// Output quality loss (Fig. 10a).
    pub error: ErrorReport,
    /// Raw stats for deeper analysis.
    pub baseline_stats: RunStats,
    /// Raw stats of the memoized run.
    pub memo_stats: RunStats,
}

/// [`BenchmarkResult`] plus the observability surface of the memoized
/// run: memoization-unit counters, per-level LUT statistics, and the
/// telemetry handle (metrics registry, completed spans, event sinks)
/// that was threaded through the simulator.
#[derive(Debug)]
pub struct RunReport {
    /// The paper metrics (what the figures consume).
    pub result: BenchmarkResult,
    /// Memoization-unit counters of the memoized run.
    pub unit_stats: UnitStats,
    /// L1 LUT statistics of the memoized run.
    pub l1_lut: LutStats,
    /// L2 LUT statistics (all zero for single-level configurations).
    pub l2_lut: LutStats,
    /// The telemetry handle after the run. Disabled (and empty) when
    /// the caller passed a disabled handle.
    pub telemetry: Telemetry,
    /// Recovery account when the run warm-started from a snapshot
    /// (`None` for ordinary cold runs — the default-off path is
    /// byte-identical, including in [`Self::to_json`]).
    pub recovery: Option<RecoveryReport>,
}

impl RunReport {
    /// One machine-readable JSON object with the paper metrics, the
    /// LUT-level statistics, and the telemetry metrics registry.
    pub fn to_json(&self) -> String {
        let r = &self.result;
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str("\"name\":\"");
        escape_json(&r.name, &mut s);
        s.push_str("\",\"config\":\"");
        escape_json(&r.config, &mut s);
        s.push_str("\",");
        s.push_str(&format!("\"speedup\":{},", r.speedup));
        s.push_str(&format!("\"energy_reduction\":{},", r.energy_reduction));
        s.push_str(&format!("\"dyn_inst_ratio\":{},", r.dyn_inst_ratio));
        s.push_str(&format!("\"memo_inst_fraction\":{},", r.memo_inst_fraction));
        s.push_str(&format!("\"hit_rate\":{},", r.hit_rate));
        s.push_str(&format!("\"output_error\":{},", r.error.output_error));
        s.push_str(&format!(
            "\"baseline\":{{\"cycles\":{},\"insts\":{}}},",
            r.baseline_stats.cycles, r.baseline_stats.dynamic_insts
        ));
        s.push_str(&format!(
            "\"memoized\":{{\"cycles\":{},\"insts\":{},\"memo_insts\":{}}},",
            r.memo_stats.cycles, r.memo_stats.dynamic_insts, r.memo_stats.memo_insts
        ));
        let u = &self.unit_stats;
        s.push_str(&format!(
            "\"unit\":{{\"lookups\":{},\"reported_hits\":{},\"l1_hits\":{},\"l2_hits\":{},\"sampled_misses\":{},\"updates\":{},\"invalidates\":{}}},",
            u.lookups, u.reported_hits, u.l1_hits, u.l2_hits, u.sampled_misses, u.updates, u.invalidates
        ));
        for (label, l) in [("l1_lut", &self.l1_lut), ("l2_lut", &self.l2_lut)] {
            s.push_str(&format!(
                "\"{label}\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}},",
                l.hits, l.misses, l.inserts, l.evictions
            ));
        }
        if let Some(rec) = &self.recovery {
            s.push_str(&format!(
                "\"recovery\":{{\"outcome\":\"{}\",\"entries_restored\":{},\"entries_discarded\":{},\"torn_tail\":{}}},",
                match rec.outcome {
                    RecoveryOutcome::Restored => "restored",
                    RecoveryOutcome::ColdStart => "cold_start",
                },
                rec.entries_restored(),
                rec.entries_discarded(),
                rec.torn_tail
            ));
        }
        s.push_str(&format!(
            "\"metrics\":{}",
            self.telemetry.registry().to_json()
        ));
        s.push('}');
        s
    }
}

/// Per-run switches orthogonal to the LUT configuration.
///
/// `Default` matches [`run_benchmark`]: truncation as specified by the
/// benchmark, threaded superblock interpreter on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Disable input truncation (exact memoization) for the Fig. 11
    /// approximation-effectiveness comparison.
    pub zero_trunc: bool,
    /// Execution tier for both legs (default
    /// [`DispatchTier::Threaded`]). The slower tiers produce
    /// bit-identical results (pinned by the decode-equivalence tests),
    /// so they exist as escape hatches and as the reference sides of
    /// golden diffs.
    pub dispatch: DispatchTier,
}

/// Persistence plan for one run: where to restore warm LUT state from
/// before executing and where to write the end-of-run snapshot.
///
/// Kept separate from [`RunOptions`] (which stays `Copy` and keys the
/// baseline/program caches) because paths are per-cell, not per-sweep.
/// The empty plan is the default and reproduces a plain run
/// byte-for-byte — persistence is an escape hatch with the same
/// default-off discipline as `--dispatch legacy`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotPlan {
    /// Snapshot file to warm-start from, if any. The file is recovered
    /// with the total [`MemoSnapshot::recover`] path: a corrupt or torn
    /// file degrades to a reported cold start, never an error — only
    /// I/O failures (missing file, permissions) abort the run.
    pub restore_from: Option<PathBuf>,
    /// Path to atomically write the end-of-run warm image to, if any.
    pub snapshot_out: Option<PathBuf>,
    /// Order/admission policy for the restore. The default
    /// (`OldestFirst`) reproduces pre-policy restores byte-for-byte;
    /// `MruFirst` bounds restore pollution for scan-dominated
    /// workloads (sobel/jmeint — see EXPERIMENTS.md). Inert without
    /// `restore_from`.
    pub restore_policy: RestorePolicy,
}

impl SnapshotPlan {
    /// `true` when the plan does nothing (the byte-identical default).
    /// The policy alone never makes a plan non-empty: it only shapes a
    /// restore that `restore_from` requests.
    pub fn is_empty(&self) -> bool {
        self.restore_from.is_none() && self.snapshot_out.is_none()
    }

    /// `true` when the run warm-starts from a snapshot — the property
    /// that must reach the [`BaselineCache`] keys so warm cells never
    /// share compiled programs or baselines with cold ones.
    pub fn warm(&self) -> bool {
        self.restore_from.is_some()
    }
}

/// A benchmark's programs compiled once and shared across every run
/// that uses default truncation: the baseline and memoized [`Program`]s
/// plus their threaded-superblock forms (against
/// [`LatencyModel::default`], the latency every runner-constructed
/// [`SimConfig`] uses).
///
/// Zero-truncation runs rebuild their specs (different codegen output),
/// so they never consume a `PreparedProgram`.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The baseline program.
    pub program: Program,
    /// The memoized program (default truncation).
    pub memo_program: Program,
    /// Threaded-superblock baseline program.
    pub threaded_base: ThreadedProgram,
    /// Threaded-superblock memoized program.
    pub threaded_memo: ThreadedProgram,
}

impl PreparedProgram {
    /// Build and superblock-lower both legs of `bench` at `scale`.
    ///
    /// # Errors
    ///
    /// Propagates codegen failures as a boxed error.
    pub fn compile(
        bench: &dyn Benchmark,
        scale: Scale,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (program, specs) = bench.program(scale);
        let memo_program = memoize(&program, &specs)?;
        let latency = LatencyModel::default();
        let threaded_base = ThreadedProgram::compile(&DecodedProgram::compile(&program, &latency));
        let threaded_memo =
            ThreadedProgram::compile(&DecodedProgram::compile(&memo_program, &latency));
        Ok(Self {
            program,
            memo_program,
            threaded_base,
            threaded_memo,
        })
    }
}

/// Run `bench` on `scale`/`dataset`, baseline vs. memoized with `memo`
/// LUT configuration (data width is overridden by the benchmark's
/// requirement).
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
) -> Result<BenchmarkResult, Box<dyn std::error::Error>> {
    run_benchmark_opts(bench, scale, dataset, memo, RunOptions::default())
}

/// Like [`run_benchmark`], with [`RunOptions`] switches (exact
/// memoization for Fig. 11, legacy-interpreter escape hatch).
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error.
pub fn run_benchmark_opts(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
) -> Result<BenchmarkResult, Box<dyn std::error::Error>> {
    run_benchmark_report(bench, scale, dataset, memo, opts, Telemetry::off())
        .map(|report| report.result)
}

/// Like [`run_benchmark_opts`], with a telemetry handle threaded
/// through the memoized run. The whole run executes under a
/// `run:<name>` span; every LUT probe, quality decision, and
/// per-run counter flows into `tel`'s registry and sinks, and the
/// handle comes back inside the [`RunReport`]. Pass
/// [`Telemetry::off()`] for a zero-cost run.
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error
/// (the telemetry handle is dropped on the error path).
pub fn run_benchmark_report(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    mut tel: Telemetry,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let mut report = run_benchmark_inner(
        bench,
        scale,
        dataset,
        memo,
        opts,
        &mut tel,
        u64::MAX,
        None,
        None,
        None,
    )?;
    report.telemetry = tel;
    Ok(report)
}

/// Like [`run_benchmark_report`], reusing a [`BaselineCache`] so the
/// fault-free baseline run (which depends only on the benchmark, scale
/// and dataset — never on the memoization or fault configuration) is
/// simulated once per distinct key instead of once per call. Passing
/// `None` reproduces [`run_benchmark_report`] exactly; the cached path
/// is byte-identical because the baseline simulation is deterministic.
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error,
/// including a cached [`BaselineFailure`] when the shared baseline run
/// itself failed.
pub fn run_benchmark_report_cached(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    mut tel: Telemetry,
    cache: Option<&BaselineCache>,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let (baseline, prepared) = match cache {
        Some(cache) => {
            let prepared = cache.prepared_for(bench, scale, opts);
            let baseline = cache.get_or_compute(bench, scale, dataset, u64::MAX, opts.dispatch)?;
            (Some(baseline), prepared)
        }
        None => (None, None),
    };
    let mut report = run_benchmark_inner(
        bench,
        scale,
        dataset,
        memo,
        opts,
        &mut tel,
        u64::MAX,
        baseline.as_deref(),
        prepared.as_deref(),
        None,
    )?;
    report.telemetry = tel;
    Ok(report)
}

/// Like [`run_benchmark_report_cached`], with a [`SnapshotPlan`]: the
/// memoization unit is warm-started from `plan.restore_from` (if set)
/// before the run and its end-of-run warm image is written atomically
/// to `plan.snapshot_out` (if set). An empty plan reproduces
/// [`run_benchmark_report_cached`] byte-for-byte.
///
/// Warm-started runs use restore-keyed [`BaselineCache`] slots
/// (`warm = true`), so their baselines and compiled programs never mix
/// with cold cells sharing the same cache.
///
/// # Errors
///
/// Propagates simulator faults, codegen failures, cached
/// [`BaselineFailure`]s, and snapshot *I/O* failures
/// ([`axmemo_core::snapshot::SnapshotError`], which names the offending
/// path) as a boxed error. A corrupt or torn snapshot file is **not**
/// an error: recovery degrades to a cold start recorded in
/// [`RunReport::recovery`].
#[allow(clippy::too_many_arguments)]
pub fn run_benchmark_report_snap(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    mut tel: Telemetry,
    cache: Option<&BaselineCache>,
    plan: &SnapshotPlan,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let warm = plan.warm();
    let (baseline, prepared) = match cache {
        Some(cache) => {
            let prepared = cache.prepared_for_keyed(bench, scale, opts, warm);
            let baseline =
                cache.get_or_compute_keyed(bench, scale, dataset, u64::MAX, opts.dispatch, warm)?;
            (Some(baseline), prepared)
        }
        None => (None, None),
    };
    let mut report = run_benchmark_inner(
        bench,
        scale,
        dataset,
        memo,
        opts,
        &mut tel,
        u64::MAX,
        baseline.as_deref(),
        prepared.as_deref(),
        Some(plan),
    )?;
    report.telemetry = tel;
    Ok(report)
}

/// The fault-free reference leg of a benchmark run: the baseline
/// [`RunStats`] every speedup/energy/instruction ratio is normalised
/// against, plus the exact output vector quality metrics compare to.
///
/// Depends only on `(benchmark, scale, dataset)` — the memoization
/// configuration (LUT geometry, faults, truncation) never touches the
/// baseline core — which is what makes it shareable across every cell
/// of a sweep via [`BaselineCache`].
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Statistics of the non-memoized baseline run.
    pub stats: RunStats,
    /// Exact outputs read back from the finished baseline machine.
    pub exact: Vec<f64>,
}

/// Run only the baseline leg of `bench` (no memoization) under a cycle
/// watchdog and return the shareable [`BaselineRun`]. `dispatch`
/// selects the interpreter (results are bit-identical across tiers).
///
/// # Errors
///
/// Propagates simulator failures (including
/// [`SimError::CycleLimit`] watchdog trips) as a boxed error.
pub fn run_baseline(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    max_cycles: u64,
    dispatch: DispatchTier,
) -> Result<BaselineRun, Box<dyn std::error::Error>> {
    let (program, _specs) = bench.program(scale);
    baseline_leg(bench, &program, scale, dataset, max_cycles, dispatch, None)
}

/// Baseline leg with an already-built program (shared by the inline
/// path, which reuses the program it must build anyway for codegen).
/// When `prepared` carries the shared lowered forms, the simulator
/// skips its internal decode/lowering for the non-legacy tiers;
/// otherwise `dispatch` decides which interpreter [`Simulator::run`]
/// dispatches to internally.
fn baseline_leg(
    bench: &dyn Benchmark,
    program: &Program,
    scale: Scale,
    dataset: Dataset,
    max_cycles: u64,
    dispatch: DispatchTier,
    prepared: Option<&PreparedProgram>,
) -> Result<BaselineRun, Box<dyn std::error::Error>> {
    let mut base_sim = Simulator::new(SimConfig {
        max_cycles,
        dispatch,
        ..SimConfig::baseline()
    })?;
    let mut base_machine = bench.setup(scale, dataset);
    base_sim.reset();
    let stats = match (prepared, dispatch) {
        (Some(p), DispatchTier::Threaded) => {
            base_sim.run_prepared_threaded(&p.threaded_base, &mut base_machine)?
        }
        _ => base_sim.run(program, &mut base_machine)?,
    };
    let exact = bench.outputs(&base_machine, scale);
    Ok(BaselineRun { stats, exact })
}

/// Why a shared baseline run failed, in a cloneable form every cell
/// waiting on the same cache slot can receive.
#[derive(Debug, Clone)]
pub struct BaselineFailure {
    /// Failure class (watchdog trip, panic, or ordinary error) —
    /// classified exactly as an inline attempt would classify it.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
}

impl std::fmt::Display for BaselineFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline run failed ({:?}): {}", self.kind, self.message)
    }
}

impl std::error::Error for BaselineFailure {}

/// Classify a boxed run error the same way [`run_budgeted`] does.
fn classify_error(e: &(dyn std::error::Error + 'static)) -> FailureKind {
    match e.downcast_ref::<SimError>() {
        Some(SimError::CycleLimit { .. }) => FailureKind::Watchdog,
        _ => FailureKind::Error,
    }
}

type BaselineSlot = Arc<OnceLock<Result<Arc<BaselineRun>, BaselineFailure>>>;
type PreparedSlot = Arc<OnceLock<Option<Arc<PreparedProgram>>>>;
/// Baseline slot key: `(benchmark, scale, dataset, dispatch, warm)`.
type BaselineKey = (String, Scale, Dataset, DispatchTier, bool);

/// Thread-safe once-per-key map of shared baseline runs, keyed by
/// `(benchmark, scale, dataset, dispatch)`.
///
/// A sweep's fault matrix runs every benchmark under many (domain ×
/// protection × rate) cells, but the fault-free baseline those cells
/// normalise against is identical for all of them — the memoization
/// configuration never reaches the baseline core. This cache computes
/// each baseline exactly once per sweep (the first cell to ask performs
/// the simulation; concurrent askers block on the same [`OnceLock`] and
/// then share the [`Arc`]) and counts computations vs. reuses so
/// orchestrators can export `orchestrator.baseline.{computed,reused}`
/// telemetry.
///
/// Baseline *failures* (watchdog trip, panic, simulator error) are
/// cached too: the simulation is deterministic, so re-running it for
/// every sibling cell would fail identically 19 more times.
/// In addition to baseline runs, the cache shares *compiled programs*:
/// building, memoizing and superblock-lowering a benchmark is
/// deterministic and identical for every cell with default truncation,
/// so the cache holds one [`PreparedProgram`] per `(benchmark, scale)`
/// and every threaded-tier run executes it via
/// [`Simulator::run_prepared_threaded`] instead of recompiling per
/// attempt.
///
/// Both maps carry a `warm` flag in their keys: a cell warm-started
/// from a snapshot ([`SnapshotPlan::warm`]) keys separate slots, so a
/// restore can never poison the shared baselines or compiled programs
/// that cold cells normalise against (today the baseline core never
/// sees the restored LUT, but the key keeps that an invariant of the
/// cache rather than a property callers must re-verify).
#[derive(Debug, Default)]
pub struct BaselineCache {
    slots: Mutex<HashMap<BaselineKey, BaselineSlot>>,
    programs: Mutex<HashMap<(String, Scale, bool), PreparedSlot>>,
    computed: AtomicU64,
    reused: AtomicU64,
    programs_compiled: AtomicU64,
    programs_reused: AtomicU64,
}

impl BaselineCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared baseline for `(bench, scale, dataset, dispatch)`,
    /// simulating it under `max_cycles` on first request and serving the
    /// cached run (or cached failure) afterwards. Panics inside the
    /// baseline run are caught and cached as [`FailureKind::Panic`]
    /// failures. The execution tier is part of the key so a
    /// `--dispatch legacy` run genuinely exercises the legacy loop
    /// instead of reusing a fast-path baseline (they are bit-identical,
    /// but the golden diffs exist to prove exactly that).
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`BaselineFailure`] when the
    /// baseline simulation failed.
    pub fn get_or_compute(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
        dispatch: DispatchTier,
    ) -> Result<Arc<BaselineRun>, BaselineFailure> {
        self.get_or_compute_keyed(bench, scale, dataset, max_cycles, dispatch, false)
    }

    /// [`Self::get_or_compute`] with the warm-start flag in the key:
    /// cells restoring from a snapshot get their own slots (see the
    /// type-level docs).
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`BaselineFailure`] when the
    /// baseline simulation failed.
    pub fn get_or_compute_keyed(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
        dispatch: DispatchTier,
        warm: bool,
    ) -> Result<Arc<BaselineRun>, BaselineFailure> {
        let key = (
            bench.meta().name.to_string(),
            scale,
            dataset,
            dispatch,
            warm,
        );
        let slot = {
            let mut slots = self.slots.lock().expect("baseline cache poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut fresh = false;
        let result = slot.get_or_init(|| {
            fresh = true;
            // Fast-path baselines reuse the shared compiled program
            // when available; a `None` (codegen failed) falls through to
            // the inline path so the error is reproduced and classified.
            let prepared = if dispatch != DispatchTier::Legacy {
                self.prepared_keyed(bench, scale, warm)
            } else {
                None
            };
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &prepared {
                    Some(p) => baseline_leg(
                        bench,
                        &p.program,
                        scale,
                        dataset,
                        max_cycles,
                        dispatch,
                        Some(&**p),
                    ),
                    None => run_baseline(bench, scale, dataset, max_cycles, dispatch),
                }));
            match outcome {
                Ok(Ok(baseline)) => Ok(Arc::new(baseline)),
                Ok(Err(e)) => Err(BaselineFailure {
                    kind: classify_error(e.as_ref()),
                    message: e.to_string(),
                }),
                Err(payload) => Err(BaselineFailure {
                    kind: FailureKind::Panic,
                    message: panic_message(payload.as_ref()),
                }),
            }
        });
        if fresh {
            self.computed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// The shared compiled-and-lowered programs for `(bench, scale,
    /// warm)`, built once per key. Returns `None` when compilation
    /// failed (by error or panic); callers then fall back to inline
    /// compilation, which reproduces the failure with full context.
    fn prepared_keyed(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        warm: bool,
    ) -> Option<Arc<PreparedProgram>> {
        let key = (bench.meta().name.to_string(), scale, warm);
        let slot = {
            let mut programs = self.programs.lock().expect("program cache poisoned");
            Arc::clone(programs.entry(key).or_default())
        };
        let mut fresh = false;
        let result = slot.get_or_init(|| {
            fresh = true;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                PreparedProgram::compile(bench, scale)
            }))
            .ok()
            .and_then(Result::ok)
            .map(Arc::new)
        });
        if fresh {
            self.programs_compiled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.programs_reused.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// [`Self::prepared_keyed`] (cold key) gated on the options that
    /// make it usable: a prepared program is compiled with default
    /// truncation for the threaded tier, so zero-truncation or legacy
    /// runs get `None` and compile inline.
    fn prepared_for(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        opts: RunOptions,
    ) -> Option<Arc<PreparedProgram>> {
        self.prepared_for_keyed(bench, scale, opts, false)
    }

    /// [`Self::prepared_for`] with the warm-start flag in the key.
    fn prepared_for_keyed(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        opts: RunOptions,
        warm: bool,
    ) -> Option<Arc<PreparedProgram>> {
        if opts.dispatch != DispatchTier::Legacy && !opts.zero_trunc {
            self.prepared_keyed(bench, scale, warm)
        } else {
            None
        }
    }

    /// Prepared-program compilations actually performed (one per
    /// distinct `(benchmark, scale)`).
    pub fn programs_compiled(&self) -> u64 {
        self.programs_compiled.load(Ordering::Relaxed)
    }

    /// Prepared-program requests served from an existing slot.
    pub fn programs_reused(&self) -> u64 {
        self.programs_reused.load(Ordering::Relaxed)
    }

    /// Baseline simulations actually performed (one per distinct key).
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Requests served from an already-computed (or in-flight) slot.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Measured baseline cycles per benchmark, sorted by name — the raw
    /// column of the derived per-benchmark budget table (failed
    /// baselines are omitted). See [`DerivedBudget`].
    pub fn baseline_cycles(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().expect("baseline cache poisoned");
        let mut rows: Vec<(String, u64)> = slots
            .iter()
            .filter_map(|((name, _, _, _, _), slot)| {
                let run = slot.get()?.as_ref().ok()?;
                Some((name.clone(), run.stats.cycles))
            })
            .collect();
        rows.sort();
        // Both interpreter variants produce bit-identical stats; a cache
        // that saw both keys would list the benchmark twice otherwise.
        rows.dedup();
        rows
    }
}

/// [`run_benchmark_report`] with a simulated-cycle watchdog budget and
/// an optionally injected pre-computed baseline. When `baseline` is
/// `Some`, only the memoized leg is simulated (under `max_cycles`); the
/// baseline leg — which is independent of the memoization config — is
/// taken from the shared run. When `None`, the baseline leg runs inline
/// exactly as before. `prepared` optionally supplies the shared
/// compiled-and-lowered programs; it is only consumed when the
/// options allow (non-legacy tier, default truncation) — otherwise the
/// programs are built inline.
/// The telemetry handle is borrowed so it *survives* the error path:
/// the sim-side spans and phase frames a failed run leaves open are
/// drained via [`Telemetry::close_open_spans`] before returning, and
/// the caller (budgeted retry loops, sweep jobs) keeps its registry,
/// sinks, and profiler across attempts. The returned [`RunReport`]
/// carries a disabled placeholder handle; the by-value wrappers move
/// the real one back in.
/// `plan` optionally adds snapshot persistence: restore the warm image
/// before the memoized run, arm the end-of-run capture, and write the
/// image atomically after the metrics are collected. `None` (and the
/// empty plan) leave the run byte-identical to the plain path.
#[allow(clippy::too_many_arguments)]
fn run_benchmark_inner(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    tel: &mut Telemetry,
    max_cycles: u64,
    baseline: Option<&BaselineRun>,
    prepared: Option<&PreparedProgram>,
    plan: Option<&SnapshotPlan>,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let prepared = prepared.filter(|_| opts.dispatch != DispatchTier::Legacy && !opts.zero_trunc);
    // Load and recover the warm image first, while the telemetry handle
    // is still in hand (it moves into the simulator below): recovery
    // decisions land in the same registry/sinks as the run itself.
    // Only I/O failures abort; corrupt bytes degrade to a reported cold
    // start.
    let plan = plan.filter(|p| !p.is_empty());
    let mut recovery: Option<RecoveryReport> = None;
    let mut warm_image: Option<MemoSnapshot> = None;
    if let Some(path) = plan.and_then(|p| p.restore_from.as_deref()) {
        let (snap, report) = MemoSnapshot::load_tel(path, tel)?;
        warm_image = snap;
        recovery = Some(report);
    }
    let inline_built;
    let (program, memo_program): (&Program, &Program) = match prepared {
        Some(p) => (&p.program, &p.memo_program),
        None => {
            let (program, mut specs) = bench.program(scale);
            if opts.zero_trunc {
                for spec in &mut specs {
                    for il in &mut spec.input_loads {
                        il.trunc = 0;
                    }
                    for ri in &mut spec.reg_inputs {
                        ri.trunc = 0;
                    }
                }
            }
            let memo_program = memoize(&program, &specs)?;
            inline_built = (program, memo_program);
            (&inline_built.0, &inline_built.1)
        }
    };
    let memo_cfg = MemoConfig {
        data_width: bench.data_width(),
        ..memo.clone()
    };

    // Baseline leg: shared run when injected, simulated inline
    // otherwise.
    let inline_baseline;
    let baseline = match baseline {
        Some(shared) => shared,
        None => {
            inline_baseline = baseline_leg(
                bench,
                program,
                scale,
                dataset,
                max_cycles,
                opts.dispatch,
                prepared,
            )?;
            &inline_baseline
        }
    };
    let base_stats = &baseline.stats;
    let exact = &baseline.exact;

    // Memoized run, under a `run:<name>` span with the telemetry
    // handle installed in the simulator (it reaches the memoization
    // unit and the LUT hierarchy from there).
    let mut memo_sim = Simulator::new(SimConfig {
        max_cycles,
        dispatch: opts.dispatch,
        ..SimConfig::with_memo(memo_cfg.clone())
    })?;
    let mut memo_machine = bench.setup(scale, dataset);
    tel.set_cycle(0);
    tel.span_enter(&format!("run:{}", bench.meta().name));
    tel.profiler_mut().set_label(bench.meta().name);
    tel.profiler_mut().enter(PhaseId::Run);
    memo_sim.set_telemetry(std::mem::take(tel));
    memo_sim.reset();
    // Warm-start after reset (reset wipes the unit) and arm the
    // end-of-run capture: compiled programs invalidate every LUT before
    // halting, so the warm image is grabbed at the first invalidate,
    // not after the wipe.
    if let Some(plan) = plan {
        if let Some(unit) = memo_sim.memo_unit_mut() {
            if let Some(image) = &warm_image {
                let summary = unit.restore_warm_with(image, plan.restore_policy);
                if let Some(rec) = recovery.as_mut() {
                    rec.applied = Some(summary);
                }
            }
            if plan.snapshot_out.is_some() {
                unit.arm_warm_capture();
            }
        }
    }
    let memo_stats = match (prepared, opts.dispatch) {
        (Some(p), DispatchTier::Threaded) => {
            memo_sim.run_prepared_threaded(&p.threaded_memo, &mut memo_machine)
        }
        _ => memo_sim.run(memo_program, &mut memo_machine),
    };
    *tel = memo_sim.take_telemetry();
    let memo_stats = match memo_stats {
        Ok(stats) => stats,
        Err(e) => {
            // Watchdog trips and sim errors abandon the run mid-span;
            // drain the open span/phase stacks so the handle stays
            // balanced for the caller's next attempt.
            tel.close_open_spans();
            tel.flush();
            return Err(e.into());
        }
    };
    tel.set_cycle(memo_stats.cycles);
    tel.span_exit();
    tel.profiler_mut().exit_cycles(memo_stats.cycles);
    tel.flush();
    let approx = bench.outputs(&memo_machine, scale);

    // Metrics.
    let energy_model = EnergyModel::for_l1_lut(memo_cfg.l1_bytes);
    let base_energy = energy_model.total_pj(&base_stats.energy);
    let memo_energy = energy_model.total_pj(&memo_stats.energy);
    let hit_rate = memo_sim
        .memo_unit()
        .map(|u| u.lut().total_hit_rate())
        .unwrap_or(0.0);
    let error = compute_error(bench.meta().metric, exact, &approx);

    let result = BenchmarkResult {
        name: bench.meta().name.to_string(),
        config: format!("{memo:?}"),
        speedup: base_stats.cycles as f64 / memo_stats.cycles.max(1) as f64,
        energy_reduction: base_energy / memo_energy.max(f64::MIN_POSITIVE),
        dyn_inst_ratio: memo_stats.dynamic_insts as f64 / base_stats.dynamic_insts.max(1) as f64,
        memo_inst_fraction: memo_stats.memo_fraction(),
        hit_rate,
        error,
        baseline_stats: *base_stats,
        memo_stats,
    };
    let (unit_stats, l1_lut, l2_lut) = match memo_sim.memo_unit() {
        Some(u) => (u.stats(), u.lut().l1_stats(), u.lut().l2_stats()),
        None => Default::default(),
    };
    // Persist the end-of-run warm image last, so a snapshot only ever
    // describes a run that completed (a failed run returns above and
    // leaves any prior snapshot file untouched).
    if let Some(path) = plan.and_then(|p| p.snapshot_out.as_deref()) {
        let image = memo_sim
            .memo_unit_mut()
            .and_then(|u| u.take_warm_image())
            .unwrap_or_default();
        image.write_atomic_tel(path, tel)?;
    }
    Ok(RunReport {
        result,
        unit_stats,
        l1_lut,
        l2_lut,
        telemetry: Telemetry::off(),
        recovery,
    })
}

/// Why a supervised benchmark run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked; the panic was caught so sibling benchmarks in a
    /// sweep keep running.
    Panic,
    /// The watchdog cycle budget expired
    /// ([`axmemo_sim::cpu::SimError::CycleLimit`]): the program did not
    /// terminate — or did not terminate fast enough — under this
    /// configuration.
    Watchdog,
    /// The simulator or code generator reported an ordinary error.
    Error,
}

/// Structured failure from [`run_supervised`] / [`run_budgeted`].
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Benchmark that failed.
    pub benchmark: String,
    /// Failure class of the *final* attempt.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
    /// Whether a degraded-config retry was attempted before giving up.
    pub retried: bool,
    /// Total attempts made (same-config retries plus the optional
    /// faults-off attempt).
    pub attempts: u32,
    /// The wall-clock cap expired before every budgeted attempt could
    /// run; the failure describes the last attempt that did.
    pub wall_clock_exhausted: bool,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed ({:?}, {} attempt{}{}): {}",
            self.benchmark,
            self.kind,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            if self.wall_clock_exhausted {
                ", wall-clock budget exhausted"
            } else {
                ""
            },
            self.message
        )
    }
}

impl std::error::Error for RunFailure {}

/// Per-job budget for [`run_budgeted`]: a simulated-cycle watchdog, an
/// optional wall-clock cap, and a bounded retry schedule with
/// exponential backoff. This generalizes [`SupervisorConfig`]'s one-shot
/// faults-off retry for long-running sweep/service harnesses where a
/// transient failure (fault storm, watchdog trip under a pathological
/// seed) should be retried a bounded number of times, with growing
/// pauses so a sweep full of failing jobs does not spin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetPolicy {
    /// Watchdog *ceiling* in simulated cycles. Without a shared
    /// baseline this uniform value is applied to the baseline and
    /// memoized runs individually (the pre-cache behaviour); with one,
    /// it bounds the baseline run and caps the per-benchmark watchdog
    /// derived by [`BudgetPolicy::derived`].
    pub max_cycles: u64,
    /// Per-benchmark watchdog derivation from the shared baseline's
    /// measured cycles (see [`DerivedBudget`]). Only takes effect when
    /// a [`BaselineCache`] supplies a baseline — a uniform ceiling
    /// cannot be tight across benchmarks whose costs differ by ~30×
    /// (jpeg vs. blackscholes), but `margin × measured baseline` can.
    /// `None` keeps the uniform `max_cycles` watchdog everywhere.
    pub derived: Option<DerivedBudget>,
    /// Wall-clock cap for all attempts of one job, in milliseconds.
    /// `None` means uncapped. The cap is checked *between* attempts: a
    /// running attempt is never interrupted (results stay deterministic),
    /// but no further retry starts once the cap has expired.
    pub wall_clock_cap_ms: Option<u64>,
    /// Maximum same-configuration attempts (≥ 1).
    pub max_attempts: u32,
    /// Pause before the first same-configuration retry, in milliseconds.
    /// Zero disables sleeping (the retries still happen).
    pub backoff_base_ms: u64,
    /// Multiplier applied to the pause after every retry.
    pub backoff_factor: u32,
    /// Ceiling on a single backoff pause, in milliseconds.
    pub backoff_cap_ms: u64,
    /// After every same-configuration attempt failed under a
    /// fault-injecting configuration, make one final attempt with all
    /// fault injection cleared (isolating "the fault model broke it"
    /// from "the benchmark is broken").
    pub retry_without_faults: bool,
}

impl Default for BudgetPolicy {
    fn default() -> Self {
        Self {
            max_cycles: u64::MAX,
            derived: Some(DerivedBudget::default()),
            wall_clock_cap_ms: None,
            max_attempts: 1,
            backoff_base_ms: 25,
            backoff_factor: 2,
            backoff_cap_ms: 1_000,
            retry_without_faults: true,
        }
    }
}

/// Per-benchmark watchdog derivation: once a sweep's [`BaselineCache`]
/// has measured a benchmark's fault-free baseline cycles, the memoized
/// legs of every sibling cell run under `margin × baseline` cycles
/// (with a floor for very small runs) instead of one uniform sweep-wide
/// ceiling. A memoized run that is `margin`× slower than its own
/// baseline is pathological regardless of the benchmark's absolute
/// cost, so `full`-scale sweeps get tight watchdogs without false trips
/// on the expensive kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedBudget {
    /// Watchdog = `margin × measured baseline cycles` …
    pub margin: u64,
    /// … but never below this floor (tiny baselines leave no headroom
    /// for fixed memoization overheads otherwise).
    pub floor_cycles: u64,
}

impl Default for DerivedBudget {
    fn default() -> Self {
        Self {
            margin: 8,
            floor_cycles: 1_000_000,
        }
    }
}

impl DerivedBudget {
    /// The derived watchdog for a benchmark whose baseline measured
    /// `baseline_cycles`, clamped to the policy-wide `ceiling`
    /// ([`BudgetPolicy::max_cycles`]).
    pub fn watchdog(&self, baseline_cycles: u64, ceiling: u64) -> u64 {
        self.margin
            .saturating_mul(baseline_cycles)
            .max(self.floor_cycles)
            .min(ceiling)
    }
}

impl BudgetPolicy {
    /// Backoff pause in milliseconds before retry number `retry` (the
    /// first retry is `retry = 0`): `base * factor^retry`, saturating,
    /// clamped to [`Self::backoff_cap_ms`].
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let factor = u64::from(self.backoff_factor.max(1)).saturating_pow(retry);
        self.backoff_base_ms
            .saturating_mul(factor)
            .min(self.backoff_cap_ms)
    }

    /// The full pause schedule for this policy: one entry per possible
    /// same-configuration retry (`max_attempts - 1` entries).
    pub fn backoff_schedule(&self) -> Vec<u64> {
        (0..self.max_attempts.saturating_sub(1))
            .map(|r| self.backoff_ms(r))
            .collect()
    }
}

/// Successful outcome of [`run_budgeted`], annotated with what the
/// budget machinery had to do to get it.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The paper metrics of the successful attempt.
    pub result: BenchmarkResult,
    /// Attempts made, including the successful one.
    pub attempts: u32,
    /// The successful attempt ran with fault injection cleared (every
    /// attempt with the requested fault configuration failed).
    pub faults_cleared: bool,
}

/// Supervised, budgeted variant of [`run_benchmark`] for sweep
/// orchestration: panics are caught, a watchdog bounds simulated cycles,
/// failed attempts are retried up to [`BudgetPolicy::max_attempts`]
/// times with exponential backoff, an optional wall-clock cap stops the
/// retry loop, and a final faults-off attempt isolates fault-model
/// breakage. See [`run_supervised`] for the one-shot policy it
/// generalizes.
///
/// # Errors
///
/// Returns a [`RunFailure`] describing the final failed attempt, with
/// the attempt count and whether the wall-clock budget expired.
pub fn run_budgeted(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    policy: &BudgetPolicy,
) -> Result<SupervisedRun, RunFailure> {
    run_budgeted_cached(
        bench,
        scale,
        dataset,
        memo,
        policy,
        None,
        RunOptions::default(),
    )
}

/// [`run_budgeted`] with an optional shared [`BaselineCache`].
///
/// With a cache, the fault-free baseline leg is fetched from it —
/// simulated once per distinct `(benchmark, scale, dataset)` across the
/// whole sweep, under the policy's `max_cycles` ceiling — and only the
/// memoized leg runs per attempt, under the per-benchmark watchdog of
/// [`BudgetPolicy::derived`] (when set) instead of the uniform ceiling.
/// A cached baseline *failure* short-circuits every attempt with the
/// identical failure an inline re-run would deterministically produce,
/// so the retry/wall-clock accounting matches the uncached path without
/// re-simulating a run that cannot succeed.
///
/// Without a cache this is exactly [`run_budgeted`]: baseline and
/// memoized legs both run inline under the uniform `max_cycles`.
///
/// # Errors
///
/// Returns a [`RunFailure`] describing the final failed attempt, with
/// the attempt count and whether the wall-clock budget expired.
pub fn run_budgeted_cached(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    policy: &BudgetPolicy,
    cache: Option<&BaselineCache>,
    opts: RunOptions,
) -> Result<SupervisedRun, RunFailure> {
    let mut tel = Telemetry::off();
    run_budgeted_cached_tel(bench, scale, dataset, memo, policy, cache, opts, &mut tel)
}

/// [`run_budgeted_cached`] with a caller-owned telemetry handle that
/// survives every attempt — panics and watchdog trips included. This is
/// the sweep-orchestration entry point for profiling: install an
/// enabled profiler on `tel` (typically on an otherwise-disabled handle
/// so event streams stay byte-identical) and read
/// [`Telemetry::take_profile`] after a successful return.
///
/// Recovery semantics:
///
/// - After any failed attempt the span and phase stacks are drained
///   ([`Telemetry::close_open_spans`]), so a panicking benchmark
///   followed by a healthy one yields a balanced span tree.
/// - If a panic fires while the handle is installed in the simulator,
///   the handle itself is forfeited with the unwound stack; an enabled
///   replacement is restored (accumulated sinks are lost — they
///   unwound with the attempt) and the profiler is re-enabled.
/// - Profile data from failed attempts is discarded
///   ([`axmemo_telemetry::Profiler::clear`]), so the profile of a
///   successful return describes exactly one successful run — making
///   aggregated sweep profiles independent of the attempt schedule and
///   therefore of worker count and wall-clock caps.
///
/// # Errors
///
/// Returns a [`RunFailure`] describing the final failed attempt, with
/// the attempt count and whether the wall-clock budget expired.
#[allow(clippy::too_many_arguments)]
pub fn run_budgeted_cached_tel(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    policy: &BudgetPolicy,
    cache: Option<&BaselineCache>,
    opts: RunOptions,
    tel: &mut Telemetry,
) -> Result<SupervisedRun, RunFailure> {
    let name = bench.meta().name.to_string();
    let was_enabled = tel.is_enabled();
    let was_profiling = tel.profiler().is_enabled();
    let started = std::time::Instant::now();
    let baseline =
        cache.map(|c| c.get_or_compute(bench, scale, dataset, policy.max_cycles, opts.dispatch));
    // Compiled programs are shared across attempts (and across sibling
    // cells through the cache); the attempt loop then only re-simulates.
    let prepared = cache.and_then(|c| c.prepared_for(bench, scale, opts));
    // With a shared baseline in hand, the memoized leg runs under the
    // tight per-benchmark watchdog; otherwise the uniform ceiling
    // bounds both legs (pre-cache behaviour, bit-for-bit).
    let memo_max_cycles = match (&baseline, policy.derived) {
        (Some(Ok(run)), Some(derived)) => derived.watchdog(run.stats.cycles, policy.max_cycles),
        _ => policy.max_cycles,
    };
    let wall_exhausted = |attempts_left: bool| -> bool {
        attempts_left
            && policy
                .wall_clock_cap_ms
                .is_some_and(|cap| started.elapsed().as_millis() as u64 >= cap)
    };
    let attempt =
        |cfg: &MemoConfig, tel: &mut Telemetry| -> Result<BenchmarkResult, (FailureKind, String)> {
            let shared = match &baseline {
                Some(Ok(run)) => Some(run.as_ref()),
                // The deterministic baseline failed once; every inline
                // retry would reproduce it exactly.
                Some(Err(fail)) => return Err((fail.kind, fail.message.clone())),
                None => None,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_benchmark_inner(
                    bench,
                    scale,
                    dataset,
                    cfg,
                    opts,
                    tel,
                    memo_max_cycles,
                    shared,
                    prepared.as_deref(),
                    None,
                )
                .map(|report| report.result)
            }));
            let failure = match outcome {
                Ok(Ok(result)) => return Ok(result),
                Ok(Err(e)) => (classify_error(e.as_ref()), e.to_string()),
                Err(payload) => (FailureKind::Panic, panic_message(payload.as_ref())),
            };
            // Failed-attempt hygiene: drain whatever the abandoned run
            // left open, restore the handle if the panic forfeited it
            // mid-simulation, and drop the attempt's profile data so a
            // later success profiles exactly one run.
            tel.close_open_spans();
            if was_enabled && !tel.is_enabled() {
                *tel = Telemetry::enabled();
            }
            if was_profiling && !tel.profiler().is_enabled() {
                tel.profiler_mut().enable();
            }
            tel.profiler_mut().clear();
            Err(failure)
        };

    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    let mut last_failure = None;
    let mut exhausted = false;
    for retry in 0..max_attempts {
        if retry > 0 {
            if wall_exhausted(true) {
                exhausted = true;
                break;
            }
            let pause = policy.backoff_ms(retry - 1);
            if pause > 0 {
                std::thread::sleep(std::time::Duration::from_millis(pause));
            }
        }
        attempts += 1;
        match attempt(memo, tel) {
            Ok(result) => {
                return Ok(SupervisedRun {
                    result,
                    attempts,
                    faults_cleared: false,
                })
            }
            Err(failure) => last_failure = Some(failure),
        }
    }

    let faults_active = memo.faults != axmemo_core::faults::FaultConfig::default();
    if policy.retry_without_faults && faults_active && !wall_exhausted(true) {
        let degraded = MemoConfig {
            faults: axmemo_core::faults::FaultConfig::default(),
            ..memo.clone()
        };
        attempts += 1;
        match attempt(&degraded, tel) {
            Ok(result) => {
                return Ok(SupervisedRun {
                    result,
                    attempts,
                    faults_cleared: true,
                });
            }
            Err(failure) => last_failure = Some(failure),
        }
    }

    let (kind, message) = last_failure.expect("at least one attempt ran");
    Err(RunFailure {
        benchmark: name,
        kind,
        message,
        retried: attempts > 1,
        attempts,
        wall_clock_exhausted: exhausted,
    })
}

/// Supervision policy for [`run_supervised`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Watchdog budget in simulated cycles, applied to the baseline and
    /// memoized runs individually.
    pub max_cycles: u64,
    /// When the first attempt fails under a fault-injecting
    /// configuration, retry once with all fault injection cleared
    /// before reporting failure.
    pub retry_without_faults: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_cycles: u64::MAX,
            retry_without_faults: true,
        }
    }
}

/// Supervised variant of [`run_benchmark`] for sweeps that must survive
/// individual benchmark failures: panics are caught and converted into
/// [`RunFailure`]s, a watchdog bounds simulated cycles, and a failing
/// fault-injected run is retried once with faults cleared (isolating
/// "the fault model broke it" from "the benchmark is broken").
///
/// This is the one-shot special case of [`run_budgeted`] (one attempt,
/// no backoff, no wall-clock cap), kept for callers that do not need a
/// retry budget.
///
/// # Errors
///
/// Returns a [`RunFailure`] describing the final failed attempt.
pub fn run_supervised(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    sup: &SupervisorConfig,
) -> Result<BenchmarkResult, RunFailure> {
    let policy = BudgetPolicy {
        max_cycles: sup.max_cycles,
        max_attempts: 1,
        backoff_base_ms: 0,
        retry_without_faults: sup.retry_without_faults,
        ..BudgetPolicy::default()
    };
    run_budgeted(bench, scale, dataset, memo, &policy).map(|run| run.result)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Relative error recorded for a non-finite output pair (finite, so CDF
/// plots and window means remain well-defined).
pub const NON_FINITE_ERROR: f64 = 1e9;

/// Replace non-finite output pairs with a finite maximal-error pair
/// `(1.0, 1.0 + NON_FINITE_ERROR)` — or a zero-error pair when the two
/// values are bit-identical (the approximation reproduced the NaN/inf
/// exactly). Returns `None` vectors when everything was already finite
/// so the common path allocates nothing.
fn sanitize_outputs(exact: &[f64], approx: &[f64]) -> (Option<Vec<f64>>, Option<Vec<f64>>, u64) {
    let non_finite = exact
        .iter()
        .zip(approx)
        .filter(|(x, xh)| !x.is_finite() || !xh.is_finite())
        .count() as u64;
    if non_finite == 0 {
        return (None, None, 0);
    }
    let mut e = exact.to_vec();
    let mut a = approx.to_vec();
    for (x, xh) in e.iter_mut().zip(a.iter_mut()) {
        if x.is_finite() && xh.is_finite() {
            continue;
        }
        if x.to_bits() == xh.to_bits() {
            *x = 1.0;
            *xh = 1.0;
        } else {
            *x = 1.0;
            *xh = 1.0 + NON_FINITE_ERROR;
        }
    }
    (Some(e), Some(a), non_finite)
}

/// Compute the quality metric between exact and approximate outputs.
/// NaN/infinite elements (possible under fault injection — a corrupted
/// LUT word can decode to any f32 bit pattern) are counted and clamped
/// rather than propagated; see [`ErrorReport::non_finite`].
pub fn compute_error(metric: Metric, exact: &[f64], approx: &[f64]) -> ErrorReport {
    let (exact_s, approx_s, non_finite) = sanitize_outputs(exact, approx);
    let exact = exact_s.as_deref().unwrap_or(exact);
    let approx = approx_s.as_deref().unwrap_or(approx);
    match metric {
        Metric::Numeric | Metric::Image => {
            let output_error = axmemo_compiler::output_error(exact, approx);
            let elementwise = exact
                .iter()
                .zip(approx)
                .map(|(x, xh)| {
                    let d = x.abs().max(1e-9);
                    (xh - x).abs() / d
                })
                .collect();
            ErrorReport {
                output_error,
                elementwise,
                non_finite,
            }
        }
        Metric::Misclassification => {
            let wrong: Vec<f64> = exact
                .iter()
                .zip(approx)
                .map(|(x, xh)| if (x - xh).abs() > 0.5 { 1.0 } else { 0.0 })
                .collect();
            let rate = wrong.iter().sum::<f64>() / wrong.len().max(1) as f64;
            ErrorReport {
                output_error: rate,
                elementwise: wrong,
                non_finite,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_sim::cpu::Machine;

    #[test]
    fn misclassification_error_path() {
        let e = compute_error(
            Metric::Misclassification,
            &[1.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
        );
        assert!((e.output_error - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_error_path() {
        let e = compute_error(Metric::Numeric, &[3.0, 4.0], &[3.0, 5.0]);
        assert!((e.output_error - 0.04).abs() < 1e-12);
        assert_eq!(e.elementwise.len(), 2);
        assert_eq!(e.non_finite, 0);
    }

    #[test]
    fn non_finite_outputs_are_counted_and_clamped() {
        let e = compute_error(
            Metric::Numeric,
            &[3.0, 4.0, f64::NAN, 5.0],
            &[3.0, f64::NAN, f64::NAN, f64::INFINITY],
        );
        // Three pairs involved a non-finite value...
        assert_eq!(e.non_finite, 3);
        // ...but every aggregate stays finite.
        assert!(e.output_error.is_finite());
        assert!(e.elementwise.iter().all(|v| v.is_finite()));
        // Bit-identical NaNs mean the approximation reproduced the
        // exact output: zero error for that element.
        assert_eq!(e.elementwise[2], 0.0);
        // Mismatched non-finite pairs clamp to the penalty value.
        assert_eq!(e.elementwise[1], NON_FINITE_ERROR);
        assert_eq!(e.elementwise[3], NON_FINITE_ERROR);
        // Misclassification treats clamped pairs as wrong answers.
        let m = compute_error(Metric::Misclassification, &[1.0, f64::NAN], &[1.0, 0.0]);
        assert_eq!(m.non_finite, 1);
        assert!((m.output_error - 0.5).abs() < 1e-12);
    }

    /// A benchmark whose program construction panics (models a bug in
    /// one kernel that must not take down a whole sweep).
    #[derive(Debug)]
    struct PanickyBench;

    impl crate::Benchmark for PanickyBench {
        fn meta(&self) -> crate::meta::WorkloadMeta {
            crate::meta::WorkloadMeta {
                name: "panicky",
                suite: "test",
                domain: "test",
                description: "",
                dataset: "",
                input_bytes: &[4],
                truncated_bits: &[0],
                metric: Metric::Numeric,
            }
        }
        fn program(
            &self,
            _scale: crate::Scale,
        ) -> (axmemo_sim::Program, Vec<axmemo_compiler::RegionSpec>) {
            panic!("synthetic benchmark bug");
        }
        fn setup(&self, _scale: crate::Scale, _dataset: crate::Dataset) -> Machine {
            Machine::new(64)
        }
        fn outputs(&self, _machine: &Machine, _scale: crate::Scale) -> Vec<f64> {
            Vec::new()
        }
        fn golden(&self, _machine: &Machine, _scale: crate::Scale) -> Vec<f64> {
            Vec::new()
        }
    }

    #[test]
    fn supervised_runner_catches_panics() {
        let fail = run_supervised(
            &PanickyBench,
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &MemoConfig::l1_only(4096),
            &SupervisorConfig::default(),
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        assert_eq!(fail.benchmark, "panicky");
        assert!(fail.message.contains("synthetic benchmark bug"));
        assert!(!fail.retried);
    }

    #[test]
    fn supervised_runner_watchdog_bounds_cycles() {
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let sup = SupervisorConfig {
            max_cycles: 1_000, // far below what even Tiny needs
            ..SupervisorConfig::default()
        };
        let fail = run_supervised(
            bench.as_ref(),
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &MemoConfig::l1_only(4096),
            &sup,
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog);
        assert!(fail.message.contains("cycle limit"), "{}", fail.message);
        assert!(!fail.retried, "no fault config, so no retry");
    }

    #[test]
    fn supervised_runner_retries_without_faults() {
        use axmemo_core::faults::FaultConfig;
        // A fault storm: every memory access spikes by 100k cycles, so
        // the memoized run blows the watchdog budget — but the retry
        // with faults cleared fits comfortably.
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let memo = MemoConfig {
            faults: FaultConfig {
                seed: 3,
                latency_spike_ppm: axmemo_core::faults::PPM,
                latency_spike_cycles: 100_000,
                ..FaultConfig::default()
            },
            ..MemoConfig::l1_only(4096)
        };
        let sup = SupervisorConfig {
            max_cycles: 2_000_000,
            ..SupervisorConfig::default()
        };
        let result = run_supervised(
            bench.as_ref(),
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &memo,
            &sup,
        )
        .expect("degraded retry must succeed");
        assert!(result.speedup > 0.0);
        // With the retry disabled, the same configuration must fail.
        let sup_no_retry = SupervisorConfig {
            retry_without_faults: false,
            ..sup
        };
        let fail = run_supervised(
            bench.as_ref(),
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &memo,
            &sup_no_retry,
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog);
    }

    #[test]
    fn panicking_benchmark_leaves_shared_handle_clean() {
        // Satellite regression: a caught panic must not leave the
        // caller's telemetry handle with unbalanced open spans — the
        // next (healthy) benchmark through the same handle must record
        // a clean span tree and a one-run profile.
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let policy = BudgetPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
            ..BudgetPolicy::default()
        };
        let fail = run_budgeted_cached_tel(
            &PanickyBench,
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &MemoConfig::l1_only(4096),
            &policy,
            None,
            RunOptions::default(),
            &mut tel,
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        // The handle survived the panic, balanced and still profiling.
        assert!(tel.is_enabled());
        assert!(tel.profiler().is_enabled());
        assert_eq!(tel.close_open_spans(), 0, "no spans left open");

        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        run_budgeted_cached_tel(
            bench.as_ref(),
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &MemoConfig::l1_only(4096),
            &policy,
            None,
            RunOptions::default(),
            &mut tel,
        )
        .expect("healthy benchmark after a panic");
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        let runs: Vec<_> = tel
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("run:"))
            .collect();
        assert_eq!(runs.len(), 1, "exactly one completed run span");
        assert_eq!(runs[0].path, "run:blackscholes");
        assert_eq!(runs[0].depth, 0);
        let profile = tel.take_profile().expect("profiler enabled");
        let run = &profile.phases["run"];
        assert_eq!(run.count, 1, "profile describes exactly one run");
        assert!(run.total > 0);
    }

    #[test]
    fn watchdog_failure_recovers_span_stack() {
        // A watchdog trip abandons the run mid-span (inside the
        // simulator); the budgeted runner must drain the open stack so
        // the handle stays balanced, then a degraded-config success
        // must profile exactly one run.
        use axmemo_core::faults::FaultConfig;
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let memo = MemoConfig {
            faults: FaultConfig {
                seed: 3,
                latency_spike_ppm: axmemo_core::faults::PPM,
                latency_spike_cycles: 100_000,
                ..FaultConfig::default()
            },
            ..MemoConfig::l1_only(4096)
        };
        let policy = BudgetPolicy {
            max_cycles: 2_000_000,
            derived: None,
            max_attempts: 1,
            backoff_base_ms: 0,
            retry_without_faults: true,
            ..BudgetPolicy::default()
        };
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let run = run_budgeted_cached_tel(
            bench.as_ref(),
            crate::Scale::Tiny,
            crate::Dataset::Eval,
            &memo,
            &policy,
            None,
            RunOptions::default(),
            &mut tel,
        )
        .expect("degraded retry must succeed");
        assert!(run.faults_cleared);
        assert_eq!(run.attempts, 2);
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        // The failed fault-injected attempt's profile was discarded:
        // only the successful run remains.
        let profile = tel.take_profile().expect("profiler enabled");
        assert_eq!(profile.phases["run"].count, 1);
    }
}
