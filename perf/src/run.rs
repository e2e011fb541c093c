//! The measurement loop shared by every workload: repeat passes until
//! the run has lasted `--seconds`, then reduce the passes to medians and
//! print the result.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::{Duration, Instant};

use axmemo_bench::geomean;

use crate::metrics::{self, END_TO_END};
use crate::stats::{self, Digest};
use crate::trace::{self, json_string, Span, Tracer};

/// What one pass of a workload produced, besides its spans.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations (kernels or cells) attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Simulated instructions behind `minst_per_s`.
    pub sim_insts: u64,
    /// Baseline ÷ memoized cycles per kernel at the headline config.
    pub speedups: Vec<f64>,
    /// Baseline ÷ memoized energy per kernel at the headline config.
    pub energies: Vec<f64>,
    /// Output error ÷ bound of every checked memoized cell.
    pub error_over_bound: Vec<f64>,
    /// Digest of every simulated statistic of the pass.
    pub digest: Digest,
    /// Per-layer counts, summed over the pass. Names outside the
    /// catalogue are inputs to derived metrics and are never printed.
    pub layer: BTreeMap<String, f64>,
}

impl Pass {
    /// Add `v` to the per-layer count `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.layer.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Close one operation: it failed if any of its checks did.
    pub fn finish_op(&mut self, cell: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{cell}: {}", problems.join("; ")));
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.layer.get(name).copied().unwrap_or(0.0)
    }
}

/// A workload: one pass is one complete run of it.
pub trait Workload {
    /// Provenance fields particular to the workload (JSON members).
    fn provenance(&self) -> String;
    /// Names the inputs of pass `index`: passes with the same inputs
    /// must give the same digest.
    fn inputs(&self, index: u64) -> String;
    /// Run pass number `index`; `traced` passes also record the
    /// per-layer extras (event replay, cycle profile).
    fn pass(&mut self, t: &mut Tracer, index: u64, traced: bool) -> Pass;
}

/// Spans whose time counts as set-up.
const SETUP_SPANS: [&str; 4] = [
    "workloads.program",
    "workloads.setup",
    "compiler.codegen",
    "sim.lower",
];

/// Spans whose time simulates the instructions in [`Pass::sim_insts`].
const SIM_SPANS: [&str; 3] = ["sim.baseline", "sim.memo", "bench.run_inner"];

/// Spans reported as `<name>_s`.
const TIMED_SPANS: [&str; 13] = [
    "workloads.program",
    "workloads.setup",
    "workloads.golden",
    "workloads.error",
    "compiler.trace",
    "compiler.dddg",
    "compiler.search",
    "compiler.filter",
    "compiler.merge",
    "compiler.codegen",
    "sim.lower",
    "sim.baseline",
    "sim.memo",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A finished pass reduced to numbers.
#[derive(Debug)]
struct Reduced {
    wall_s: f64,
    setup_s: f64,
    sim_insts: f64,
    sim_s: f64,
    layer: BTreeMap<String, f64>,
}

/// Reduce pass `pass` whose spans are `spans[range]`, the first of them
/// its root; `self_ns` holds the self time of every span.
fn reduce(pass: &Pass, spans: &[Span], range: Range<usize>, self_ns: &[u64]) -> Reduced {
    let root = range.start;
    let pass_spans = &spans[range];
    let mut time: BTreeMap<&str, f64> = BTreeMap::new();
    let mut per_kernel: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    for s in &pass_spans[1..] {
        let secs = s.dur_ns() as f64 * 1e-9;
        *time.entry(s.name).or_insert(0.0) += secs;
        let kernel = s.cell.split('/').next().unwrap_or("");
        *per_kernel.entry((s.name, kernel)).or_insert(0.0) += secs;
    }
    let t = |n: &str| time.get(n).copied().unwrap_or(0.0);
    let wall_s = pass_spans[0].dur_ns() as f64 * 1e-9;
    let setup_s = SETUP_SPANS.iter().map(|n| t(n)).sum();
    let sim_s: f64 = SIM_SPANS.iter().map(|n| t(n)).sum();

    let mut layer = pass.layer.clone();
    for n in TIMED_SPANS {
        layer.insert(format!("{n}_s"), t(n));
    }
    for k in metrics::KERNELS {
        let search = per_kernel
            .get(&("compiler.search", k))
            .copied()
            .unwrap_or(0.0);
        layer.insert(format!("compiler.search_s.{k}"), search);
        let memo = per_kernel.get(&("sim.memo", k)).copied().unwrap_or(0.0);
        let insts = pass.get(&format!("sim.memo_insts.{k}"));
        layer.insert(
            format!("sim.memo_ns_per_inst.{k}"),
            ratio(memo * 1e9, insts),
        );
    }
    let derived = [
        (
            "compiler.search_ns_per_vertex",
            ratio(
                t("compiler.search") * 1e9,
                pass.get("compiler.dddg_vertices"),
            ),
        ),
        (
            "sim.baseline_minst_per_s",
            ratio(pass.get("sim.baseline_insts") * 1e-6, t("sim.baseline")),
        ),
        (
            "sim.memo_minst_per_s",
            ratio(pass.get("sim.memo_insts") * 1e-6, t("sim.memo")),
        ),
        (
            "core.crc.ns_per_byte",
            ratio(
                pass.get("core.replay.crc_ns"),
                pass.get("core.replay.crc_bytes"),
            ),
        ),
        (
            "core.lut.lookup_ns",
            ratio(
                pass.get("core.replay.lookup_ns"),
                pass.get("core.replay.lookups"),
            ),
        ),
        (
            "core.lut.update_ns",
            ratio(
                pass.get("core.replay.update_ns"),
                pass.get("core.replay.updates"),
            ),
        ),
        ("core.replay_share", ratio(t("core.replay"), t("sim.memo"))),
        (
            "bench.pool_busy_frac",
            ratio(
                pass.get("bench.cell_ms_sum") * 1e-3,
                pass.get("bench.jobs") * t("bench.run_inner"),
            ),
        ),
        (
            "unaccounted_frac",
            ratio(self_ns[root] as f64 * 1e-9, wall_s),
        ),
    ];
    for (name, v) in derived {
        layer.insert(name.to_string(), v);
    }
    Reduced {
        wall_s,
        setup_s,
        sim_insts: pass.sim_insts as f64,
        sim_s,
        layer,
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per run.
    pub seconds: u64,
    /// Print per-layer metrics from traced passes.
    pub trace: bool,
}

/// Usage line for errors.
pub const USAGE: &str =
    "usage: axmemo-perf --workload compile|fig7|fault_sweep --seed <n> --seconds <n> --trace 0|1";

impl Args {
    /// Parse `--workload <w> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = number()?,
                "--seconds" => out.seconds = number()?.max(1),
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Code revision, read from the checkout's `.git` directory (no `git`
/// process, so nothing outside the checkout is read); `unknown` without one.
fn revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| Some(l.strip_suffix(r)?.strip_suffix(' ')?.to_string()))
        }),
        None => Some(head.to_string()),
    };
    sha.filter(|s| s.len() >= 12 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .map_or_else(|| "unknown".to_string(), |s| s[..12].to_string())
}

fn median_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Format a number for JSON with every digit (non-finite becomes 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run `workload` for `args.seconds`, print the report, and return the
/// process exit code (non-zero when any check failed).
pub fn run(args: &Args, workload: &mut dyn Workload) -> i32 {
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut t = Tracer::default();
    let mut done: Vec<(bool, usize, Pass)> = Vec::new();
    let mut first_pass_rss = None;
    for index in 0u64.. {
        // A traced run alternates untraced and traced passes so the
        // overhead is measured under the same conditions.
        let traced = args.trace && index % 2 == 1;
        let root = t.spans().len();
        let pass = t.span("pass", &format!("pass/{index}"), |t| {
            workload.pass(t, index, traced)
        });
        done.push((traced, root, pass));
        // Peak memory of one complete run of the workload: later passes
        // reuse a fragmenting heap, so their peak grows with the pass count.
        first_pass_rss.get_or_insert_with(peak_rss_mb);
        let have_traced = !args.trace || done.iter().any(|d| d.0);
        if have_traced && started.elapsed() >= deadline {
            break;
        }
    }

    let spans = t.spans();
    let self_ns = trace::self_times(spans);
    let ends: Vec<usize> = done
        .iter()
        .skip(1)
        .map(|d| d.1)
        .chain([spans.len()])
        .collect();
    let reduced: Vec<(bool, Reduced)> = done
        .iter()
        .zip(ends)
        .map(|((traced, root, pass), end)| (*traced, reduce(pass, spans, *root..end, &self_ns)))
        .collect();
    let untraced: Vec<&Reduced> = reduced.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<&Reduced> = reduced.iter().filter(|r| r.0).map(|r| &r.1).collect();

    let attempted: u64 = done.iter().map(|d| d.2.attempted).sum();
    let mut failures: Vec<String> = done.iter().flat_map(|d| d.2.failures.clone()).collect();
    // Passes with the same inputs must simulate identically, traced or not.
    let mut digests: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (i, (_, _, pass)) in done.iter().enumerate() {
        digests
            .entry(workload.inputs(i as u64))
            .or_default()
            .insert(pass.digest.hex());
    }
    for (inputs, set) in &digests {
        if set.len() > 1 {
            failures.push(format!(
                "{inputs}: passes with the same inputs gave {} different digests",
                set.len()
            ));
        }
    }
    let failed = failures.len() as u64;
    for f in &failures {
        eprintln!("FAILED {f}");
    }

    let all_passes = || done.iter().map(|d| &d.2);
    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("wall_s", median_of(untraced.iter().map(|r| r.wall_s))),
        ("setup_s", median_of(untraced.iter().map(|r| r.setup_s))),
        ("peak_rss_mb", first_pass_rss.unwrap_or(0.0)),
        (
            "minst_per_s",
            // Work per second: total over the untraced passes, so short
            // simulation legs are weighted by their length.
            ratio(
                untraced.iter().map(|r| r.sim_insts).sum::<f64>() * 1e-6,
                untraced.iter().map(|r| r.sim_s).sum(),
            ),
        ),
        (
            "sim_speedup_geomean",
            median_of(
                all_passes()
                    .filter(|p| !p.speedups.is_empty())
                    .map(|p| geomean(&p.speedups)),
            ),
        ),
        (
            "energy_reduction_geomean",
            median_of(
                all_passes()
                    .filter(|p| !p.energies.is_empty())
                    .map(|p| geomean(&p.energies)),
            ),
        ),
        (
            "error_over_bound_max",
            all_passes()
                .flat_map(|p| p.error_over_bound.iter().copied())
                .fold(0.0, f64::max),
        ),
    ]);

    let mut metrics_json = String::new();
    let mut push_metric = |name: &str, value: f64, unit: &str| {
        if !metrics_json.is_empty() {
            metrics_json.push_str(", ");
        }
        json_string(name, &mut metrics_json);
        metrics_json.push_str(&format!(": {{\"value\": {}, \"unit\": ", num(value)));
        json_string(unit, &mut metrics_json);
        metrics_json.push('}');
    };
    if args.trace {
        let mut layer: BTreeMap<String, f64> = BTreeMap::new();
        for (name, _) in metrics::per_layer() {
            let v = median_of(
                traced
                    .iter()
                    .map(|r| r.layer.get(&name).copied().unwrap_or(0.0)),
            );
            layer.insert(name, v);
        }
        let overhead = ratio(
            median_of(traced.iter().map(|r| r.wall_s)),
            median_of(untraced.iter().map(|r| r.wall_s)),
        ) - 1.0;
        layer.insert("trace_overhead_frac".into(), overhead);
        layer.insert("failed_frac".into(), ratio(failed as f64, attempted as f64));
        for (name, unit) in metrics::per_layer() {
            push_metric(&name, layer[&name], unit);
            println!("{name} = {} {unit}", num(layer[&name]));
        }
        write_trace(args, workload, spans);
    } else {
        for (name, unit) in END_TO_END {
            push_metric(name, e2e[name], unit);
            println!("{name} = {} {unit}", num(e2e[name]));
        }
        println!(
            "paper (Fig. 7, L1 8KB + L2 512KB): sim_speedup_geomean 2.82 x, \
             energy_reduction_geomean 2.72 x; the simulator is not validated against hardware"
        );
    }

    let mut prov = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}, \
         \"nproc\": {}, \"dispatch\": \"threaded\", \"revision\": ",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.provenance(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    json_string(&revision(), &mut prov);
    let samples = |f: fn(&Reduced) -> f64, rs: &[&Reduced]| {
        rs.iter().map(|r| num(f(r))).collect::<Vec<_>>().join(", ")
    };
    prov.push_str(&format!(
        ", \"untraced_passes\": {}, \"traced_passes\": {}, \"median_samples\": {}, \
         \"wall_s_untraced\": [{}], \"setup_s_untraced\": [{}], \"wall_s_traced\": [{}], \
         \"digests\": [",
        untraced.len(),
        traced.len(),
        if args.trace {
            traced.len()
        } else {
            untraced.len()
        },
        samples(|r| r.wall_s, &untraced),
        samples(|r| r.setup_s, &untraced),
        samples(|r| r.wall_s, &traced),
    ));
    let pairs = digests
        .iter()
        .flat_map(|(inputs, set)| set.iter().map(move |d| format!("{inputs} {d}")));
    for (i, pair) in pairs.enumerate() {
        if i > 0 {
            prov.push_str(", ");
        }
        json_string(&pair, &mut prov);
    }
    prov.push_str("]}");
    println!("provenance: {prov}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics_json}}}}}",
        failed == 0
    );
    i32::from(failed > 0)
}

/// Write the spans and the self-time table of a traced run to
/// `out/<workload>-seed<n>-trace.json` in the benchmark directory.
fn write_trace(args: &Args, workload: &dyn Workload, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}-trace.json", args.workload, args.seed));
    let by_name = trace::self_time_by_name(spans);
    let mut ranked: Vec<(&str, f64)> = by_name.iter().map(|(n, s)| (*n, *s)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("self time by span (all passes):");
    for (name, secs) in &ranked {
        eprintln!("  {name:<20} {secs:>10.4} s");
    }
    let mut out = format!(
        "{{\"workload\": \"{}\", {}, \"self_time_s\": {{",
        args.workload,
        workload.provenance()
    );
    for (i, (name, secs)) in ranked.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(name, &mut out);
        out.push_str(&format!(": {}", num(*secs)));
    }
    out.push_str("}, \"spans\": ");
    out.push_str(&trace::spans_json(spans));
    out.push_str("}\n");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
