//! Design-space exploration: sweep L1 LUT size, CRC width, and data
//! width for one benchmark and print the resulting speedup / hit-rate /
//! area trade-offs — the kind of study §6.1's "LUT hardware
//! configurations" paragraph describes.
//!
//! Run with: `cargo run --release --example design_space`

use axmemo_bench::run_cell;
use axmemo_core::config::{DataWidth, MemoConfig};
use axmemo_core::crc::CrcWidth;
use axmemo_sim::energy::AreaModel;
use axmemo_workloads::{benchmark_by_name, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmark_by_name("kmeans").expect("kmeans is registered");
    println!("Design space for kmeans (Scale::Small)");
    println!(
        "{:<34} | {:>8} | {:>8} | {:>10}",
        "configuration", "speedup", "hit rate", "area (mm^2)"
    );

    // L1 size sweep.
    for l1 in [4 * 1024, 8 * 1024, 16 * 1024] {
        let cfg = MemoConfig::l1_only(l1);
        let r = run_cell(bench.as_ref(), Scale::Small, &cfg)?;
        let area = AreaModel::for_l1_lut(l1);
        println!(
            "{:<34} | {:>7.2}x | {:>7.1}% | {:>10.4}",
            format!("L1 {} KB", l1 / 1024),
            r.speedup,
            100.0 * r.hit_rate,
            area.memoization_area(1)
        );
    }

    // CRC width sweep (narrower tags risk collisions; wider cost more).
    for width in [CrcWidth::W16, CrcWidth::W32, CrcWidth::W64] {
        let cfg = MemoConfig {
            crc_width: width,
            ..MemoConfig::l1_only(8 * 1024)
        };
        let r = run_cell(bench.as_ref(), Scale::Small, &cfg)?;
        println!(
            "{:<34} | {:>7.2}x | {:>7.1}% | {:>10}",
            format!("L1 8 KB, {width}"),
            r.speedup,
            100.0 * r.hit_rate,
            "-"
        );
    }

    // Data width (8-byte entries halve associativity).
    for dw in [DataWidth::W4, DataWidth::W8] {
        let cfg = MemoConfig {
            data_width: dw,
            ..MemoConfig::l1_only(8 * 1024)
        };
        // Note: the runner overrides data width with the benchmark's
        // requirement for packed outputs; kmeans uses 4-byte outputs so
        // both variants run as requested only through the raw config.
        let r = run_cell(bench.as_ref(), Scale::Small, &cfg)?;
        println!(
            "{:<34} | {:>7.2}x | {:>7.1}% | {:>10}",
            format!("L1 8 KB, {:?} data", dw),
            r.speedup,
            100.0 * r.hit_rate,
            "-"
        );
    }
    Ok(())
}
