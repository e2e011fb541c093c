//! One-stop harness: run a benchmark baseline and memoized under a
//! given LUT configuration and report the paper's metrics (speedup,
//! energy reduction, dynamic-instruction ratio, hit rate, output error).
//!
//! Every cell of the evaluation — a figure column, a fault-sweep job, a
//! warm-start generation — is one [`RunRequest`] passed to [`run`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::meta::Metric;
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_core::faults::FaultConfig;
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
use axmemo_telemetry::{escape_json, PhaseId, Registry, Telemetry};

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
/// run: memoization-unit counters, per-level LUT statistics, the
/// snapshot recovery account, and what supervision had to do to get
/// the result. The telemetry the run recorded stays in the caller's
/// handle (see [`run`]).
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
    /// Recovery account when the run warm-started from a snapshot
    /// (`None` for ordinary cold runs — the default-off path is
    /// byte-identical, including in [`Self::to_json`]).
    pub recovery: Option<RecoveryReport>,
    /// Attempts made, including the successful one (2 only after the
    /// faults-off retry).
    pub attempts: u32,
    /// The result comes from the faults-off retry: the attempt with the
    /// requested fault configuration failed.
    pub faults_cleared: bool,
}

impl RunReport {
    /// One machine-readable JSON object with the paper metrics, the
    /// LUT-level statistics, and `registry` (the metrics of the
    /// telemetry handle the run recorded into).
    pub fn to_json(&self, registry: &Registry) -> String {
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
        s.push_str(&format!("\"metrics\":{}", registry.to_json()));
        s.push('}');
        s
    }
}

/// Persistence plan for one run: where to restore warm LUT state from
/// before executing and where to write the end-of-run snapshot.
///
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
    /// Missing parent directories are created.
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
}

/// One benchmark cell for [`run`]: a benchmark, baseline vs. memoized
/// under one LUT configuration, plus the per-run switches.
///
/// [`RunRequest::new`] gives the defaults — evaluation dataset,
/// threaded tier, benchmark-specified truncation, no cycle ceiling, no
/// shared cache, no persistence; override fields with struct-update
/// syntax:
///
/// ```
/// use axmemo_core::config::MemoConfig;
/// use axmemo_telemetry::Telemetry;
/// use axmemo_workloads::runner::{run, RunRequest};
/// use axmemo_workloads::{benchmark_by_name, Scale};
///
/// let bench = benchmark_by_name("blackscholes").unwrap();
/// let memo = MemoConfig::l1_only(4 * 1024);
/// let exact = RunRequest {
///     zero_trunc: true,
///     ..RunRequest::new(bench.as_ref(), Scale::Tiny, &memo)
/// };
/// let report = run(&exact, &mut Telemetry::off()).unwrap();
/// assert_eq!(report.attempts, 1);
/// assert!(report.result.speedup > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// The benchmark to run.
    pub bench: &'a dyn Benchmark,
    /// Problem size.
    pub scale: Scale,
    /// Input set (default [`Dataset::Eval`]).
    pub dataset: Dataset,
    /// LUT configuration of the memoized leg (the data width is
    /// overridden by the benchmark's requirement).
    pub memo: &'a MemoConfig,
    /// Execution tier for both legs (default [`DispatchTier::Threaded`]).
    /// The tiers are bit-identical (pinned by the equivalence and
    /// differential tests); `Legacy` is the executable spec.
    pub dispatch: DispatchTier,
    /// Disable input truncation (exact memoization) for the Fig. 11
    /// approximation-effectiveness comparison.
    pub zero_trunc: bool,
    /// Simulated-cycle ceiling: bounds the baseline leg and caps the
    /// memoized leg's watchdog (see [`memo_watchdog`]). Default
    /// `u64::MAX`.
    pub max_cycles: u64,
    /// Shared baselines and compiled programs; `None` simulates the
    /// baseline inside this call (the `--no-baseline-cache` path, with
    /// identical results).
    pub cache: Option<&'a BaselineCache>,
    /// Warm-start / end-of-run snapshot plan (default empty).
    pub snapshot: SnapshotPlan,
}

impl<'a> RunRequest<'a> {
    /// `bench` at `scale` under `memo`, with every switch at its default.
    pub fn new(bench: &'a dyn Benchmark, scale: Scale, memo: &'a MemoConfig) -> Self {
        Self {
            bench,
            scale,
            dataset: Dataset::Eval,
            memo,
            dispatch: DispatchTier::default(),
            zero_trunc: false,
            max_cycles: u64::MAX,
            cache: None,
            snapshot: SnapshotPlan::default(),
        }
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

/// The fault-free reference leg of a benchmark run: the baseline
/// [`RunStats`] every speedup/energy/instruction ratio is normalised
/// against, plus the exact output vector quality metrics compare to.
///
/// Depends only on `(benchmark, scale, dataset)` — the memoization
/// configuration (LUT geometry, faults, truncation, warm state) never
/// touches the baseline core — which is what makes it shareable across
/// every cell of a sweep via [`BaselineCache`].
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Statistics of the non-memoized baseline run.
    pub stats: RunStats,
    /// Exact outputs read back from the finished baseline machine.
    pub exact: Vec<f64>,
}

/// Why a shared baseline run failed, in a cloneable form every cell
/// waiting on the same cache slot can receive.
#[derive(Debug, Clone)]
pub struct BaselineFailure {
    /// Failure class (watchdog trip, panic, or ordinary error) —
    /// classified exactly as a memoized attempt would classify it.
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

/// Classify a boxed run error: watchdog trip or ordinary error.
fn classify_error(e: &(dyn std::error::Error + 'static)) -> FailureKind {
    match e.downcast_ref::<SimError>() {
        Some(SimError::CycleLimit { .. }) => FailureKind::Watchdog,
        _ => FailureKind::Error,
    }
}

/// The memoized leg's watchdog is this many times the measured baseline
/// cycles: a memoized run `WATCHDOG_MARGIN`× slower than its own
/// baseline is pathological whatever the benchmark's absolute cost.
pub const WATCHDOG_MARGIN: u64 = 8;

/// Lower bound on the memoized leg's watchdog, so tiny baselines leave
/// headroom for fixed memoization overheads.
pub const WATCHDOG_FLOOR_CYCLES: u64 = 1_000_000;

/// The memoized leg's cycle watchdog for a benchmark whose baseline
/// measured `baseline_cycles`: `min(max(WATCHDOG_MARGIN × baseline,
/// WATCHDOG_FLOOR_CYCLES), max_cycles)`, saturating. The same rule
/// applies whether the baseline came from a [`BaselineCache`] or was
/// simulated inline, so both paths fail (and succeed) identically.
pub fn memo_watchdog(baseline_cycles: u64, max_cycles: u64) -> u64 {
    WATCHDOG_MARGIN
        .saturating_mul(baseline_cycles)
        .max(WATCHDOG_FLOOR_CYCLES)
        .min(max_cycles)
}

type BaselineSlot = Arc<OnceLock<Result<Arc<BaselineRun>, BaselineFailure>>>;
type PreparedSlot = Arc<OnceLock<Option<Arc<PreparedProgram>>>>;
/// Baseline slot key: `(benchmark, scale, dataset, dispatch)`.
type BaselineKey = (String, Scale, Dataset, DispatchTier);

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
/// attempt. Warm-started cells share both maps with cold ones: the
/// baseline core has no memoization unit and a [`PreparedProgram`] is
/// immutable, so a restore can reach neither.
#[derive(Debug, Default)]
pub struct BaselineCache {
    slots: Mutex<HashMap<BaselineKey, BaselineSlot>>,
    programs: Mutex<HashMap<(String, Scale), PreparedSlot>>,
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
        let key = (bench.meta().name.to_string(), scale, dataset, dispatch);
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
            let prepared = match dispatch {
                DispatchTier::Threaded => self.prepared(bench, scale),
                DispatchTier::Legacy => None,
            };
            simulate_baseline(
                bench,
                scale,
                dataset,
                max_cycles,
                dispatch,
                prepared.as_deref(),
            )
            .map(Arc::new)
        });
        if fresh {
            self.computed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// The shared compiled-and-lowered programs for `(bench, scale)`,
    /// built once per key. Returns `None` when compilation failed (by
    /// error or panic); callers then fall back to inline compilation,
    /// which reproduces the failure with full context.
    fn prepared(&self, bench: &dyn Benchmark, scale: Scale) -> Option<Arc<PreparedProgram>> {
        let key = (bench.meta().name.to_string(), scale);
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

    /// Measured baseline cycles per benchmark, sorted by name — the
    /// inputs of the per-benchmark [`memo_watchdog`]s (failed baselines
    /// are omitted).
    pub fn baseline_cycles(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock().expect("baseline cache poisoned");
        let mut rows: Vec<(String, u64)> = slots
            .iter()
            .filter_map(|((name, _, _, _), slot)| {
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

/// Simulate the baseline leg of `bench` (no memoization) under a
/// `max_cycles` watchdog. `prepared` supplies the shared lowered program
/// for the threaded tier; without it the program is built here. Panics
/// are caught and classified like every other failure.
fn simulate_baseline(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    max_cycles: u64,
    dispatch: DispatchTier,
    prepared: Option<&PreparedProgram>,
) -> Result<BaselineRun, BaselineFailure> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<BaselineRun, Box<dyn std::error::Error>> {
            let mut sim = Simulator::new(SimConfig {
                max_cycles,
                dispatch,
                ..SimConfig::baseline()
            })?;
            let mut machine = bench.setup(scale, dataset);
            sim.reset();
            let stats = match prepared {
                Some(p) if dispatch == DispatchTier::Threaded => {
                    sim.run_prepared_threaded(&p.threaded_base, &mut machine)?
                }
                _ => sim.run(&bench.program(scale).0, &mut machine)?,
            };
            let exact = bench.outputs(&machine, scale);
            Ok(BaselineRun { stats, exact })
        },
    ));
    match outcome {
        Ok(Ok(baseline)) => Ok(baseline),
        Ok(Err(e)) => Err(BaselineFailure {
            kind: classify_error(e.as_ref()),
            message: e.to_string(),
        }),
        Err(payload) => Err(BaselineFailure {
            kind: FailureKind::Panic,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Run one benchmark cell: the baseline leg (from `req.cache` or
/// simulated here, under `req.max_cycles`) and the memoized leg (under
/// [`memo_watchdog`]), then the paper metrics.
///
/// Every call is supervised, so a sweep survives any one cell:
///
/// - Panics are caught and failures classified ([`FailureKind`]).
/// - When `req.memo` injects faults and the attempt fails, one more
///   attempt runs with fault injection cleared, isolating "the fault
///   model broke it" from "the benchmark is broken"
///   ([`RunReport::faults_cleared`]). Runs are seeded and
///   deterministic, so a same-configuration retry could only repeat
///   the failure.
/// - `tel` survives every attempt. The memoized run executes under a
///   `run:<name>` span with `tel` installed in the simulator, so LUT
///   probes, quality decisions and per-run counters land in its
///   registry and sinks. After a failed attempt the open span and phase
///   stacks are drained, a handle forfeited to a panic is replaced by
///   an enabled one (its sinks are lost with the unwound attempt), and
///   the profile is cleared, so a successful return profiles exactly
///   one run — whatever the attempt schedule or worker count.
/// - `req.snapshot` restores the warm image before the memoized run and
///   writes the end-of-run image after it. A corrupt or torn snapshot
///   is not an error: it degrades to a cold start recorded in
///   [`RunReport::recovery`].
///
/// # Errors
///
/// A [`RunFailure`] naming the last attempt's failure class and
/// message: watchdog trips, simulator and codegen errors, panics,
/// (cached) baseline failures and snapshot I/O errors, whose message
/// names the offending path.
pub fn run(req: &RunRequest<'_>, tel: &mut Telemetry) -> Result<RunReport, RunFailure> {
    let baseline = match req.cache {
        Some(cache) => cache.get_or_compute(
            req.bench,
            req.scale,
            req.dataset,
            req.max_cycles,
            req.dispatch,
        ),
        None => simulate_baseline(
            req.bench,
            req.scale,
            req.dataset,
            req.max_cycles,
            req.dispatch,
            None,
        )
        .map(Arc::new),
    };
    // Compiled programs are shared across attempts and, through the
    // cache, across sibling cells; they carry default truncation and
    // threaded lowering only.
    let prepared = req
        .cache
        .filter(|_| req.dispatch == DispatchTier::Threaded && !req.zero_trunc)
        .and_then(|cache| cache.prepared(req.bench, req.scale));
    let mut outcome = attempt(req, req.memo, &baseline, prepared.as_deref(), tel);
    let faults_cleared = outcome.is_err() && req.memo.faults != FaultConfig::default();
    if faults_cleared {
        let degraded = MemoConfig {
            faults: FaultConfig::default(),
            ..req.memo.clone()
        };
        outcome = attempt(req, &degraded, &baseline, prepared.as_deref(), tel);
    }
    let attempts = 1 + u32::from(faults_cleared);
    match outcome {
        Ok(report) => Ok(RunReport {
            attempts,
            faults_cleared,
            ..report
        }),
        Err((kind, message)) => Err(RunFailure {
            benchmark: req.bench.meta().name.to_string(),
            kind,
            message,
            attempts,
        }),
    }
}

/// One supervised attempt of the memoized leg under `memo`; see [`run`]
/// for the failed-attempt hygiene.
fn attempt(
    req: &RunRequest<'_>,
    memo: &MemoConfig,
    baseline: &Result<Arc<BaselineRun>, BaselineFailure>,
    prepared: Option<&PreparedProgram>,
    tel: &mut Telemetry,
) -> Result<RunReport, (FailureKind, String)> {
    // A failed baseline is deterministic: the attempt fails the same way.
    let baseline = baseline
        .as_ref()
        .map_err(|fail| (fail.kind, fail.message.clone()))?;
    let was_enabled = tel.is_enabled();
    let was_profiling = tel.profiler().is_enabled();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        memo_leg(req, memo, baseline, prepared, tel)
    }));
    let failure = match outcome {
        Ok(Ok(report)) => return Ok(report),
        Ok(Err(e)) => (classify_error(e.as_ref()), e.to_string()),
        Err(payload) => (FailureKind::Panic, panic_message(payload.as_ref())),
    };
    tel.close_open_spans();
    if was_enabled && !tel.is_enabled() {
        *tel = Telemetry::enabled();
    }
    if was_profiling && !tel.profiler().is_enabled() {
        tel.profiler_mut().enable();
    }
    tel.profiler_mut().clear();
    Err(failure)
}

/// The memoized leg against an already-computed baseline, plus the
/// metrics and the optional snapshot restore/write. Sim-side spans and
/// phase frames a failed run leaves open are drained before returning.
fn memo_leg(
    req: &RunRequest<'_>,
    memo: &MemoConfig,
    baseline: &BaselineRun,
    prepared: Option<&PreparedProgram>,
    tel: &mut Telemetry,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let bench = req.bench;
    let name = bench.meta().name;
    // Load and recover the warm image first, while the telemetry handle
    // is still in hand (it moves into the simulator below): recovery
    // decisions land in the same registry/sinks as the run itself.
    // Only I/O failures abort; corrupt bytes degrade to a reported cold
    // start.
    let plan = Some(&req.snapshot).filter(|p| !p.is_empty());
    let mut recovery: Option<RecoveryReport> = None;
    let mut warm_image: Option<MemoSnapshot> = None;
    if let Some(path) = plan.and_then(|p| p.restore_from.as_deref()) {
        let (snap, report) = MemoSnapshot::load(path, tel)?;
        warm_image = snap;
        recovery = Some(report);
    }
    let inline_built;
    let memo_program: &Program = match prepared {
        Some(p) => &p.memo_program,
        None => {
            let (program, mut specs) = bench.program(req.scale);
            if req.zero_trunc {
                for spec in &mut specs {
                    for il in &mut spec.input_loads {
                        il.trunc = 0;
                    }
                    for ri in &mut spec.reg_inputs {
                        ri.trunc = 0;
                    }
                }
            }
            inline_built = memoize(&program, &specs)?;
            &inline_built
        }
    };
    let memo_cfg = MemoConfig {
        data_width: bench.data_width(),
        ..memo.clone()
    };
    let base_stats = &baseline.stats;

    // Memoized run, under a `run:<name>` span with the telemetry
    // handle installed in the simulator (it reaches the memoization
    // unit and the LUT hierarchy from there).
    let mut memo_sim = Simulator::new(SimConfig {
        max_cycles: memo_watchdog(base_stats.cycles, req.max_cycles),
        dispatch: req.dispatch,
        ..SimConfig::with_memo(memo_cfg.clone())
    })?;
    let mut memo_machine = bench.setup(req.scale, req.dataset);
    tel.set_cycle(0);
    tel.span_enter(&format!("run:{name}"));
    tel.profiler_mut().set_label(name);
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
                let summary = unit.restore_warm(image, plan.restore_policy);
                if let Some(rec) = recovery.as_mut() {
                    rec.applied = Some(summary);
                }
            }
            if plan.snapshot_out.is_some() {
                unit.arm_warm_capture();
            }
        }
    }
    let memo_stats = match prepared {
        Some(p) => memo_sim.run_prepared_threaded(&p.threaded_memo, &mut memo_machine),
        None => memo_sim.run(memo_program, &mut memo_machine),
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
    let approx = bench.outputs(&memo_machine, req.scale);

    // Metrics.
    let energy_model = EnergyModel::for_l1_lut(memo_cfg.l1_bytes);
    let base_energy = energy_model.total_pj(&base_stats.energy);
    let memo_energy = energy_model.total_pj(&memo_stats.energy);
    let hit_rate = memo_sim
        .memo_unit()
        .map(|u| u.lut().total_hit_rate())
        .unwrap_or(0.0);
    let error = compute_error(bench.meta().metric, &baseline.exact, &approx);

    let result = BenchmarkResult {
        name: name.to_string(),
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
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| {
                std::io::Error::new(e.kind(), format!("snapshot dir {}: {e}", dir.display()))
            })?;
        }
        let image = memo_sim
            .memo_unit_mut()
            .and_then(|u| u.take_warm_image())
            .unwrap_or_default();
        image.write_atomic(path, tel)?;
    }
    Ok(RunReport {
        result,
        unit_stats,
        l1_lut,
        l2_lut,
        recovery,
        attempts: 1,
        faults_cleared: false,
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

/// Structured failure from [`run`].
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Benchmark that failed.
    pub benchmark: String,
    /// Failure class of the *final* attempt.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
    /// Attempts made (2 when the faults-off retry ran).
    pub attempts: u32,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed ({:?}, {} attempt{}): {}",
            self.benchmark,
            self.kind,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for RunFailure {}

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

    /// Every memory access spikes by 100k cycles, so the memoized run
    /// blows any sane watchdog — but the faults-off retry fits.
    fn fault_storm() -> MemoConfig {
        MemoConfig {
            faults: FaultConfig {
                seed: 3,
                latency_spike_ppm: axmemo_core::faults::PPM,
                latency_spike_cycles: 100_000,
                ..FaultConfig::default()
            },
            ..MemoConfig::l1_only(4096)
        }
    }

    #[test]
    fn supervised_runner_catches_panics() {
        let memo = MemoConfig::l1_only(4096);
        let fail = run(
            &RunRequest::new(&PanickyBench, crate::Scale::Tiny, &memo),
            &mut Telemetry::off(),
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        assert_eq!(fail.benchmark, "panicky");
        assert!(fail.message.contains("synthetic benchmark bug"));
        assert_eq!(fail.attempts, 1, "no fault config, so no retry");
    }

    #[test]
    fn supervised_runner_watchdog_bounds_cycles() {
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let memo = MemoConfig::l1_only(4096);
        let req = RunRequest {
            max_cycles: 1_000, // far below what even Tiny needs
            ..RunRequest::new(bench.as_ref(), crate::Scale::Tiny, &memo)
        };
        let fail = run(&req, &mut Telemetry::off()).unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog);
        assert!(fail.message.contains("cycle limit"), "{}", fail.message);
        assert_eq!(fail.attempts, 1, "no fault config, so no retry");
    }

    #[test]
    fn supervised_runner_retries_without_faults() {
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let memo = fault_storm();
        let req = RunRequest {
            max_cycles: 2_000_000,
            ..RunRequest::new(bench.as_ref(), crate::Scale::Tiny, &memo)
        };
        let report = run(&req, &mut Telemetry::off()).expect("degraded retry must succeed");
        assert!(report.result.speedup > 0.0);
        // The attempt with the storm failed; only the retry succeeded.
        assert_eq!(report.attempts, 2);
        assert!(report.faults_cleared);
        // A fault-free configuration succeeds first try.
        let clean = MemoConfig::l1_only(4096);
        let report = run(
            &RunRequest {
                memo: &clean,
                ..req
            },
            &mut Telemetry::off(),
        )
        .expect("fault-free run");
        assert_eq!(report.attempts, 1);
        assert!(!report.faults_cleared);
    }

    #[test]
    fn panicking_benchmark_leaves_shared_handle_clean() {
        // A caught panic must not leave the caller's telemetry handle
        // with unbalanced open spans — the next (healthy) benchmark
        // through the same handle must record a clean span tree and a
        // one-run profile.
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let memo = MemoConfig::l1_only(4096);
        let fail = run(
            &RunRequest::new(&PanickyBench, crate::Scale::Tiny, &memo),
            &mut tel,
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        // The handle survived the panic, balanced and still profiling.
        assert!(tel.is_enabled());
        assert!(tel.profiler().is_enabled());
        assert_eq!(tel.close_open_spans(), 0, "no spans left open");

        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        run(
            &RunRequest::new(bench.as_ref(), crate::Scale::Tiny, &memo),
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
        // simulator); the runner must drain the open stack so the
        // handle stays balanced, then the faults-off success must
        // profile exactly one run.
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let memo = fault_storm();
        let req = RunRequest {
            max_cycles: 2_000_000,
            ..RunRequest::new(bench.as_ref(), crate::Scale::Tiny, &memo)
        };
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let report = run(&req, &mut tel).expect("degraded retry must succeed");
        assert!(report.faults_cleared);
        assert_eq!(report.attempts, 2);
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        // The failed fault-injected attempt's profile was discarded:
        // only the successful run remains.
        let profile = tel.take_profile().expect("profiler enabled");
        assert_eq!(profile.phases["run"].count, 1);
    }
}
