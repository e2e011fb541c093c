//! The memoized hot path allocates nothing: with telemetry off, a whole
//! threaded-tier run of a memoized kernel (every `ld_crc`, `lookup`,
//! `update`, LUT hit and eviction) makes zero heap allocations.
//!
//! A counting global allocator tallies allocations per thread, and only
//! while this thread has armed it, so the test harness and any other
//! test thread cannot pollute the count.

use axmemo_core::config::MemoConfig;
use axmemo_sim::cpu::{SimConfig, Simulator};
use axmemo_telemetry::Telemetry;
use axmemo_workloads::{benchmark_by_name, Dataset, PreparedProgram, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

#[test]
fn memoized_runs_allocate_nothing_with_telemetry_off() {
    for name in ["blackscholes", "sobel"] {
        let bench = benchmark_by_name(name).expect("benchmark exists");
        let prepared = PreparedProgram::compile(bench.as_ref(), Scale::Tiny).expect("compiles");
        let mut sim = Simulator::new(SimConfig::with_memo(MemoConfig {
            data_width: bench.data_width(),
            ..MemoConfig::l1_l2(8 * 1024, 512 * 1024)
        }))
        .expect("valid config");
        sim.set_telemetry(Telemetry::off());
        sim.reset();
        let mut machine = bench.setup(Scale::Tiny, Dataset::Eval);
        let (stats, allocs) =
            allocations_in(|| sim.run_prepared_threaded(&prepared.threaded_memo, &mut machine));
        stats.unwrap_or_else(|e| panic!("{name}: {e}"));
        let unit = sim.memo_unit().expect("memo unit").stats();
        assert!(
            unit.reported_hits > 0,
            "{name}: the run must exercise LUT hits"
        );
        assert_eq!(
            allocs, 0,
            "{name}: heap allocations during the memoized run"
        );
    }
}
