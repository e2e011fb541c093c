//! Domain example: an image-processing pipeline (the paper's intro
//! motivation — cyber-physical/IoT devices processing real-world,
//! redundancy-rich sensor data). Runs the sobel workload end-to-end
//! through the simulator, baseline vs. memoized, and reports the Fig. 7
//! metrics for this single application.
//!
//! Run with: `cargo run --release --example image_pipeline`

use axmemo_bench::run_cell;
use axmemo_core::config::MemoConfig;
use axmemo_workloads::{benchmark_by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sobel = benchmark_by_name("sobel").expect("sobel is registered");
    println!("Sobel edge detection through the AxMemo pipeline");
    println!(
        "{:<24} | {:>8} | {:>8} | {:>8} | {:>10}",
        "configuration", "speedup", "energy", "hit rate", "error"
    );
    for (name, cfg) in MemoConfig::paper_sweep() {
        let r = run_cell(sobel.as_ref(), Scale::Small, &cfg)?;
        println!(
            "{:<24} | {:>7.2}x | {:>7.2}x | {:>7.1}% | {:>9.4}%",
            name,
            r.speedup,
            r.energy_reduction,
            100.0 * r.hit_rate,
            100.0 * r.error.output_error
        );
        // The image error bound from §5 is 1%.
        assert!(
            r.error.output_error < 0.01,
            "quality within the paper's image bound"
        );
    }
    Ok(())
}
