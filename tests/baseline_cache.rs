//! Integration tests for baseline sharing: the reduced fault sweep is
//! byte-identical with the cache on vs. `--no-baseline-cache` at any
//! worker count, performs exactly one baseline simulation per distinct
//! benchmark (asserted via `orchestrator.baseline.computed`), warm and
//! cold cells share one baseline, and the per-benchmark watchdogs come
//! from measured baseline cycles.

use axmemo_bench::orchestrator::Orchestrator;
use axmemo_bench::{sweep, DispatchTier, ReportMode};
use axmemo_core::config::MemoConfig;
use axmemo_telemetry::Telemetry;
use axmemo_workloads::runner::{
    memo_watchdog, run, BaselineCache, RunRequest, SnapshotPlan, WATCHDOG_FLOOR_CYCLES,
    WATCHDOG_MARGIN,
};
use axmemo_workloads::{benchmark_by_name, Dataset, Scale};

/// The PR's acceptance property: the reduced `fault_sweep` report is
/// byte-identical between the shared-baseline path and the
/// `--no-baseline-cache` escape hatch, on the serial path and on the
/// worker pool — and the cached runs simulate each distinct benchmark's
/// baseline exactly once (not once per job).
#[test]
fn reduced_sweep_is_byte_identical_with_and_without_cache() {
    let benches = vec!["blackscholes".to_string(), "fft".to_string()];
    let (matrix, metas) = sweep::matrix(7, &benches);
    assert_eq!(matrix.len(), 19 * benches.len());

    let render = |cache: bool, jobs: usize| -> (String, u64, u64) {
        let mut tel = Telemetry::enabled();
        let outcomes = Orchestrator::new(Scale::Tiny)
            .jobs(jobs)
            .baseline_cache(cache)
            .run_with_telemetry(&matrix, &mut tel);
        let report = sweep::table(Scale::Tiny, 7, &metas, &outcomes).render(ReportMode::Json);
        let computed = tel.registry().counter("orchestrator.baseline.computed");
        let reused = tel.registry().counter("orchestrator.baseline.reused");
        (report, computed, reused)
    };

    let (cached_j1, computed_j1, reused_j1) = render(true, 1);
    let (cached_j4, computed_j4, reused_j4) = render(true, 4);
    let (uncached_j1, computed_off, _) = render(false, 1);
    let (uncached_j4, _, _) = render(false, 4);

    assert_eq!(cached_j1, uncached_j1, "cache must not change the report");
    assert_eq!(
        cached_j1, cached_j4,
        "cached report is worker-count independent"
    );
    assert_eq!(
        uncached_j1, uncached_j4,
        "uncached report is worker-count independent"
    );

    // Exactly one baseline simulation per distinct benchmark — not per
    // job — regardless of worker count; every other job reuses it.
    assert_eq!(computed_j1, benches.len() as u64);
    assert_eq!(computed_j4, benches.len() as u64);
    assert_eq!(reused_j1, (matrix.len() - benches.len()) as u64);
    assert_eq!(reused_j4, (matrix.len() - benches.len()) as u64);
    // The escape hatch has no cache at all.
    assert_eq!(computed_off, 0);
}

/// Direct cache semantics: the first request computes, subsequent
/// requests (same key) reuse the same shared run; distinct keys get
/// their own computation; and the measured-cycles table feeds the
/// derived budgets.
#[test]
fn baseline_cache_computes_once_per_key() {
    let cache = BaselineCache::new();
    let bs = benchmark_by_name("blackscholes").unwrap();
    let sobel = benchmark_by_name("sobel").unwrap();

    let first = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("tiny baseline succeeds");
    let second = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("cached baseline succeeds");
    assert!(std::sync::Arc::ptr_eq(&first, &second), "same shared run");
    assert_eq!(cache.computed(), 1);
    assert_eq!(cache.reused(), 1);

    // A different scale is a different key.
    cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Small,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("small baseline succeeds");
    // A different benchmark is a different key.
    cache
        .get_or_compute(
            sobel.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Threaded,
        )
        .expect("sobel baseline succeeds");
    assert_eq!(cache.computed(), 3);

    // The execution tier is part of the key: a legacy-loop request
    // simulates its own baseline instead of reusing the fast-path run
    // (they are bit-identical — the golden diffs prove it — but sharing
    // across interpreters would defeat those diffs).
    let legacy = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            u64::MAX,
            DispatchTier::Legacy,
        )
        .expect("legacy baseline succeeds");
    assert!(!std::sync::Arc::ptr_eq(&first, &legacy), "distinct slot");
    assert_eq!(legacy.stats, first.stats, "bit-identical stats");
    assert_eq!(cache.computed(), 4);

    let cycles = cache.baseline_cycles();
    // Both tier variants of blackscholes/Tiny measure identical
    // cycles and collapse to one row.
    assert_eq!(cycles.len(), 3, "one measured entry per distinct run");
    assert!(cycles.iter().all(|(_, c)| *c > 0));
    assert!(
        cycles.windows(2).all(|w| w[0].0 <= w[1].0),
        "sorted by name"
    );
}

/// A baseline that trips the watchdog is cached as a failure and shared:
/// one simulation, every sibling request receives the identical
/// structured failure.
#[test]
fn failed_baseline_is_cached_and_shared() {
    use axmemo_workloads::FailureKind;
    let cache = BaselineCache::new();
    let bs = benchmark_by_name("blackscholes").unwrap();
    let a = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            1_000,
            DispatchTier::Threaded,
        )
        .unwrap_err();
    let b = cache
        .get_or_compute(
            bs.as_ref(),
            Scale::Tiny,
            Dataset::Eval,
            1_000,
            DispatchTier::Threaded,
        )
        .unwrap_err();
    assert_eq!(a.kind, FailureKind::Watchdog);
    assert_eq!(a.message, b.message);
    assert_eq!(cache.computed(), 1, "the failing run is simulated once");
    assert_eq!(cache.reused(), 1);
    assert!(
        cache.baseline_cycles().is_empty(),
        "failures have no cycles"
    );
}

/// The memoized leg's watchdog is `WATCHDOG_MARGIN × baseline` with a
/// floor, clamped to the request's `max_cycles`.
#[test]
fn derived_budget_watchdog_math() {
    assert_eq!((WATCHDOG_MARGIN, WATCHDOG_FLOOR_CYCLES), (8, 1_000_000));
    // Small baselines sit on the floor.
    assert_eq!(memo_watchdog(10_000, u64::MAX), 1_000_000);
    // Large baselines scale by the margin.
    assert_eq!(memo_watchdog(10_000_000, u64::MAX), 80_000_000);
    // The request's ceiling always wins, even below the floor.
    assert_eq!(memo_watchdog(10_000_000, 5_000_000), 5_000_000);
    assert_eq!(memo_watchdog(10_000, 1_000), 1_000);
    // Saturating: an absurd baseline must not overflow.
    assert_eq!(memo_watchdog(u64::MAX / 2, u64::MAX), u64::MAX);
}

/// A warm (restored) cell and a cold cell on one cache simulate the
/// baseline once — the baseline core has no memoization unit, so a
/// restore cannot reach it — and each returns exactly what it returns
/// on a cache of its own.
#[test]
fn warm_and_cold_cells_share_one_baseline() {
    let dir = std::env::temp_dir().join(format!("axmemo-warmkey-{}", std::process::id()));
    let image = dir.join("fft.axmsnap");
    let bench = benchmark_by_name("fft").unwrap();
    let memo = MemoConfig::l1_only(8 * 1024);
    let cell = |cache: &BaselineCache, plan: SnapshotPlan| {
        let req = RunRequest {
            cache: Some(cache),
            snapshot: plan,
            ..RunRequest::new(bench.as_ref(), Scale::Tiny, &memo)
        };
        let mut tel = Telemetry::enabled();
        let report = run(&req, &mut tel).expect("tiny cell succeeds");
        report.to_json(tel.registry())
    };
    let cold_plan = SnapshotPlan {
        snapshot_out: Some(image.clone()),
        ..SnapshotPlan::default()
    };
    let warm_plan = SnapshotPlan {
        restore_from: Some(image.clone()),
        ..SnapshotPlan::default()
    };

    let shared = BaselineCache::new();
    let cold = cell(&shared, cold_plan.clone());
    let warm = cell(&shared, warm_plan.clone());
    assert_eq!(shared.computed(), 1, "one baseline for warm and cold");
    assert_eq!(shared.reused(), 1);
    assert_eq!(shared.programs_compiled(), 1, "one compiled program");
    assert!(warm.contains("\"recovery\":{\"outcome\":\"restored\""));

    let cold_alone = cell(&BaselineCache::new(), cold_plan);
    let warm_alone = cell(&BaselineCache::new(), warm_plan);
    assert_eq!(cold, cold_alone, "cold cell independent of cache sharing");
    assert_eq!(warm, warm_alone, "warm cell independent of cache sharing");
    let _ = std::fs::remove_dir_all(&dir);
}
