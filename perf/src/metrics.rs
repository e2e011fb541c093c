//! The catalogue of metrics the benchmark prints, by name and unit. It
//! must agree with `BENCHMARK.json` at the repository root (a test below
//! checks it).

/// The ten kernels, in Table 2 order (checked against the registry).
pub const KERNELS: [&str; 10] = [
    "blackscholes",
    "fft",
    "inversek2j",
    "jmeint",
    "jpeg",
    "kmeans",
    "sobel",
    "hotspot",
    "lavamd",
    "srad",
];

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("minst_per_s", "Minst/s"),
    ("sim_speedup_geomean", "x"),
    ("energy_reduction_geomean", "x"),
    ("error_over_bound_max", "ratio"),
];

/// Per-layer metrics that are not per kernel, printed by a traced run.
const PER_LAYER_FIXED: [(&str, &str); 58] = [
    ("workloads.program_s", "s"),
    ("workloads.setup_s", "s"),
    ("workloads.golden_s", "s"),
    ("workloads.error_s", "s"),
    ("compiler.trace_s", "s"),
    ("compiler.trace_events", "count"),
    ("compiler.dddg_s", "s"),
    ("compiler.dddg_vertices", "count"),
    ("compiler.search_s", "s"),
    ("compiler.search_ns_per_vertex", "ns"),
    ("compiler.dynamic_candidates", "count"),
    ("compiler.filter_s", "s"),
    ("compiler.unique_candidates", "count"),
    ("compiler.merge_s", "s"),
    ("compiler.codegen_s", "s"),
    ("sim.lower_s", "s"),
    ("sim.baseline_s", "s"),
    ("sim.memo_s", "s"),
    ("sim.baseline_minst_per_s", "Minst/s"),
    ("sim.memo_minst_per_s", "Minst/s"),
    ("sim.baseline_insts", "count"),
    ("sim.memo_insts", "count"),
    ("sim.baseline_cycles", "count"),
    ("sim.memo_cycles", "count"),
    ("sim.memo_stall_cycles", "count"),
    ("sim.branch_bubbles", "count"),
    ("core.lut.lookups", "count"),
    ("core.lut.l1_hits", "count"),
    ("core.lut.l2_hits", "count"),
    ("core.lut.updates", "count"),
    ("core.lut.evictions", "count"),
    ("core.lut.invalidations", "count"),
    ("core.crc.input_bytes", "count"),
    ("core.crc.ns_per_byte", "ns/byte"),
    ("core.lut.lookup_ns", "ns"),
    ("core.lut.update_ns", "ns"),
    ("core.replay_share", "fraction"),
    ("core.replay_hit_gap", "count"),
    ("profile.crc_beat_cycles", "count"),
    ("profile.lut_l1_search_cycles", "count"),
    ("profile.lut_l2_probe_cycles", "count"),
    ("profile.lut_update_cycles", "count"),
    ("profile.lut_evict_cycles", "count"),
    ("profile.quality_cycles", "count"),
    ("bench.cells", "count"),
    ("bench.cell_ms_p50", "ms"),
    ("bench.cell_ms_p90", "ms"),
    ("bench.pool_busy_frac", "fraction"),
    ("bench.retries", "count"),
    ("bench.faults_cleared", "count"),
    ("bench.baselines_computed", "count"),
    ("bench.baselines_reused", "count"),
    ("bench.programs_compiled", "count"),
    ("bench.programs_reused", "count"),
    ("bench.unprotected_over_bound_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
    ("unaccounted_frac", "fraction"),
    ("failed_frac", "fraction"),
];

/// Per-layer metrics repeated for each kernel, as `<prefix>.<kernel>`.
const PER_KERNEL: [(&str, &str); 3] = [
    ("compiler.search_s", "s"),
    ("sim.memo_ns_per_inst", "ns"),
    ("core.lut.hit_rate", "fraction"),
];

/// Every per-layer metric, by name and unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (prefix, unit) in PER_KERNEL {
        for k in KERNELS {
            out.push((format!("{prefix}.{k}"), unit));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "<x>"` values of one top-level array of
    /// `BENCHMARK.json`, read without a JSON library.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let q1 = rest.find('"').unwrap() + 1;
                let q2 = q1 + rest[q1..].find('"').unwrap();
                rest[q1..q2].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&json, "per_layer"), layer);
        assert_eq!(
            names_in(&json, "workloads"),
            ["compile", "fig7", "fault_sweep"]
        );
        for n in e2e.iter().chain(&layer) {
            assert!(valid_name(n), "bad metric name {n}");
        }
        assert!(layer.len() <= 128);
    }

    #[test]
    fn units_match_benchmark_json() {
        let json = benchmark_json();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer());
        for (name, unit) in all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} must have unit {unit}");
        }
    }

    #[test]
    fn kernel_list_matches_registry() {
        let names: Vec<&str> = axmemo_workloads::all_benchmarks()
            .iter()
            .map(|b| b.meta().name)
            .collect();
        assert_eq!(names, KERNELS);
    }
}
