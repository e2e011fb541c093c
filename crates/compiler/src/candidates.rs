//! Candidate subgraph search (§5 step 3).
//!
//! An *AxMemo-transformable* candidate subgraph `S` of the DDDG is a
//! vertex set that can be replaced by a LUT access without disturbing
//! the rest of the program: every edge entering `S` lands on an input
//! vertex, every edge leaving `S` departs from an output vertex. The
//! desirability of `S` is its **compute-to-input ratio**
//!
//! ```text
//! CI_Ratio = Σ_{v ∈ S} weight(v) / #inputs(S)
//! ```
//!
//! The search grows one subgraph backward from every vertex, which is
//! its sole output, toward producers. A producer may join `S` only once
//! all of its consumers are inside `S`; otherwise it would be a second
//! output. Among the producers that are ready, growth always takes the
//! one it sighted first: scanning `S` in the order its vertices joined,
//! and each vertex's inputs in order, it is the first ready producer met.
//! Growth covers the whole admissible backward cone and keeps the
//! best-ratio prefix within the input budget. Candidates are then
//! filtered for structural uniqueness (identical static-pc signatures,
//! e.g. loop iterations), subset-pruned, and overlapping survivors
//! merged — producing the Table 1 statistics.
//!
//! # Incremental growth
//!
//! Growth never re-measures `S`. Adding a vertex updates three pieces of
//! state per sighted producer `p`:
//!
//! - `inside[p]` counts the consumer edges of `p` that land in `S`; `p`
//!   is ready when it equals `p`'s consumer count.
//! - The external-input count is the number of producers outside `S`
//!   with `inside[p] > 0`. It goes up when a producer is first sighted
//!   and down when that producer joins `S`. Each load in `S` adds one
//!   memory input on top.
//! - `key[p]` is where `p` was first sighted: the position in the growth
//!   order of the consumer that sighted it, then `p`'s index among that
//!   consumer's inputs. Ready producers wait in a min-heap on this key,
//!   so the next pop is exactly the first ready producer of the scan
//!   above. A FIFO of ready producers would pick a different one.
//!
//! The state lives in one map keyed by vertex, which the search clears
//! and reuses for every root. Cones are small (at most 907 vertices in
//! Table 1's graphs of up to 121 k vertices), so the map stays tens of
//! kilobytes where arrays sized to the graph would take megabytes.
//!
//! A root whose cone has `k` vertices of in-degree at most `deg` costs
//! O(k·deg·log k).

use crate::dddg::{Dddg, VertexId};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One candidate subgraph (dynamic instance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Vertices in the subgraph (dynamic ids).
    pub vertices: Vec<VertexId>,
    /// The sole output vertex the search was rooted at.
    pub output: VertexId,
    /// Number of external inputs (distinct producers outside `S` plus
    /// load vertices' memory inputs).
    pub num_inputs: usize,
    /// Total vertex weight.
    pub weight: u64,
    /// Sorted static-pc signature (structural identity).
    pub signature: Vec<usize>,
}

impl Candidate {
    /// Compute-to-input ratio (Equation 1).
    pub fn ci_ratio(&self) -> f64 {
        self.weight as f64 / self.num_inputs.max(1) as f64
    }
}

/// Search parameters.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum inputs AxMemo hardware supports per memoized block.
    pub max_inputs: usize,
    /// Minimum CI_Ratio for a candidate to be kept.
    pub min_ci_ratio: f64,
    /// Minimum vertices in a candidate (trivial one-op blocks are not
    /// worth a lookup).
    pub min_vertices: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_inputs: 16,
            min_ci_ratio: 4.0,
            min_vertices: 3,
        }
    }
}

/// Table 1 row: the aggregate analysis of one benchmark's DDDG.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSummary {
    /// Total dynamic candidate subgraphs found.
    pub total_dynamic_subgraphs: usize,
    /// Unique subgraphs after structural dedup + subset pruning + merge.
    pub unique_subgraphs: usize,
    /// Mean CI_Ratio over the filtered unique candidates.
    pub mean_ci_ratio: f64,
    /// Memoization coverage: weight of candidate vertices over total
    /// graph weight.
    pub coverage: f64,
}

/// What the growth of the current root knows about one vertex it has
/// sighted: membership in `S`, `inside` and `key` of the module docs.
#[derive(Debug, Clone, Copy, Default)]
struct Sighting {
    /// Whether the vertex has joined `S`.
    joined: bool,
    /// Consumer edges of the vertex that land in `S`.
    inside: usize,
    /// First sighting: (position in `order` of the sighting consumer,
    /// index among its inputs).
    key: (usize, usize),
}

/// Hasher for vertex ids: one multiply (as in rustc's FxHash). Keys are
/// dense small integers, so SipHash's flood resistance buys nothing.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Scratch state of the incremental growth, reused for every root.
#[derive(Default)]
struct Growth {
    /// Every vertex the current root's growth has sighted or joined.
    seen: HashMap<VertexId, Sighting, BuildHasherDefault<IdHasher>>,
    /// Vertices of `S` in the order they joined.
    order: Vec<VertexId>,
    /// Ready producers, smallest first-sighting key on top.
    ready: BinaryHeap<Reverse<((usize, usize), VertexId)>>,
}

impl Growth {
    /// Find the best candidate rooted at `output`.
    ///
    /// Grows `S` over the whole admissible backward cone of `output`,
    /// one ready producer at a time in first-sighting order, and keeps
    /// the prefix of that growth with the best ratio among those within
    /// `cfg.max_inputs` and at least `cfg.min_vertices` long (the first
    /// such prefix on ties).
    fn grow_from(&mut self, g: &Dddg, output: VertexId, cfg: &SearchConfig) -> Option<Candidate> {
        self.seen.clear();
        self.order.clear();
        self.ready.clear();
        let (mut external, mut loads, mut weight) = (0usize, 0usize, 0u64);
        // (ratio, prefix length, inputs, weight) of the best prefix.
        let mut best: Option<(f64, usize, usize, u64)> = None;
        let mut next = Some(output);
        while let Some(v) = next {
            let vertex = &g.vertices[v];
            let pos = self.order.len();
            let s = self.seen.entry(v).or_default();
            s.joined = true;
            if s.inside > 0 {
                external -= 1;
            }
            self.order.push(v);
            weight += vertex.weight;
            // A load inside S brings one memory input into the block.
            loads += usize::from(vertex.is_load);
            for (idx, &p) in vertex.inputs.iter().enumerate() {
                let s = self.seen.entry(p).or_insert(Sighting {
                    key: (pos, idx),
                    ..Sighting::default()
                });
                if s.joined {
                    continue;
                }
                if s.inside == 0 {
                    external += 1;
                }
                s.inside += 1;
                if s.inside == g.vertices[p].outputs.len() {
                    self.ready.push(Reverse((s.key, p)));
                }
            }
            let inputs = external + loads;
            if inputs <= cfg.max_inputs && self.order.len() >= cfg.min_vertices {
                let ratio = weight as f64 / inputs.max(1) as f64;
                if best.is_none_or(|(r, ..)| ratio > r) {
                    best = Some((ratio, self.order.len(), inputs, weight));
                }
            }
            next = self.ready.pop().map(|Reverse((_, p))| p);
        }

        let (ratio, keep, num_inputs, weight) = best?;
        if ratio < cfg.min_ci_ratio {
            return None;
        }
        let mut vertices = self.order[..keep].to_vec();
        vertices.sort_unstable();
        let mut signature: Vec<usize> = vertices.iter().map(|&v| g.vertices[v].pc).collect();
        signature.sort_unstable();
        Some(Candidate {
            vertices,
            output,
            num_inputs,
            weight,
            signature,
        })
    }
}

/// Run the search: one growth per vertex, in vertex order.
pub fn find_candidates(g: &Dddg, cfg: &SearchConfig) -> Vec<Candidate> {
    let mut growth = Growth::default();
    (0..g.len())
        .filter_map(|v| growth.grow_from(g, v, cfg))
        .collect()
}

/// A signature as a set: its distinct pcs, ascending.
fn pc_set(signature: &[usize]) -> Vec<usize> {
    let mut set = signature.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// Whether ascending set `a` is a subset of ascending set `b`.
fn is_subset(a: &[usize], b: &[usize]) -> bool {
    let mut b = b.iter();
    a.iter().all(|x| b.any(|y| y == x))
}

/// Size of the intersection of two ascending sets.
fn intersection_len(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Structural dedup (identical static signatures) and subset pruning —
/// §5's filtering step. Returns the unique candidates, longest
/// signature first; equal lengths keep their input order.
pub fn filter_unique(candidates: &[Candidate]) -> Vec<Candidate> {
    // Dedup by signature, keeping the first dynamic instance.
    let mut seen: HashSet<&[usize]> = HashSet::new();
    let mut unique: Vec<&Candidate> = candidates
        .iter()
        .filter(|c| seen.insert(&c.signature))
        .collect();
    // Subset pruning: drop candidates whose signature is a subset of
    // a longer (or earlier) kept one's.
    unique.sort_by_key(|c| Reverse(c.signature.len()));
    let mut kept: Vec<(Vec<usize>, &Candidate)> = Vec::new();
    for c in unique {
        let set = pc_set(&c.signature);
        if !kept.iter().any(|(k, _)| is_subset(&set, k)) {
            kept.push((set, c));
        }
    }
    kept.into_iter().map(|(_, c)| c.clone()).collect()
}

/// Merge unique candidates whose static signatures overlap heavily
/// (§5: "we merge the remaining subgraphs with high overlap to create
/// larger subgraphs for better memoization efficiency"). Two candidates
/// merge when the Jaccard similarity of their signatures exceeds
/// `threshold`; merging unions the signatures and sums the weights.
pub fn merge_overlapping(candidates: &[Candidate], threshold: f64) -> Vec<Candidate> {
    let mut pool: Vec<Candidate> = candidates.to_vec();
    let mut sets: Vec<Vec<usize>> = pool.iter().map(|c| pc_set(&c.signature)).collect();
    // Merge the first overlapping pair, then rescan from the start.
    while let Some((i, j)) = first_overlap(&sets, threshold) {
        let second = pool.remove(j);
        let second_set = sets.remove(j);
        let mut sig = [sets[i].as_slice(), &second_set].concat();
        sig.sort_unstable();
        sig.dedup();
        let first = &mut pool[i];
        // Union of vertex sets; weight of the union counted once per
        // vertex.
        let mut verts: Vec<VertexId> = first
            .vertices
            .iter()
            .chain(second.vertices.iter())
            .copied()
            .collect();
        verts.sort_unstable();
        verts.dedup();
        first.vertices = verts;
        first.signature = sig.clone();
        first.num_inputs = first.num_inputs.max(second.num_inputs);
        first.weight = first.weight.max(second.weight);
        sets[i] = sig;
    }
    pool
}

/// The first pair `(i, j)`, `i < j`, whose signature sets have Jaccard
/// similarity of at least `threshold`.
fn first_overlap(sets: &[Vec<usize>], threshold: f64) -> Option<(usize, usize)> {
    (0..sets.len())
        .flat_map(|i| (i + 1..sets.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            let inter = intersection_len(&sets[i], &sets[j]);
            let union = sets[i].len() + sets[j].len() - inter;
            union != 0 && inter as f64 / union as f64 >= threshold
        })
}

/// Produce the Table 1 summary for one benchmark's DDDG.
pub fn analyze(g: &Dddg, cfg: &SearchConfig) -> AnalysisSummary {
    let dynamic = find_candidates(g, cfg);
    let unique = merge_overlapping(&filter_unique(&dynamic), 0.5);
    let mean_ci_ratio = if unique.is_empty() {
        0.0
    } else {
        unique.iter().map(Candidate::ci_ratio).sum::<f64>() / unique.len() as f64
    };
    // Coverage: weight of vertices belonging to any dynamic candidate.
    let mut covered = vec![false; g.len()];
    for c in &dynamic {
        for &v in &c.vertices {
            covered[v] = true;
        }
    }
    let covered_weight: u64 = g
        .vertices
        .iter()
        .zip(&covered)
        .filter(|(_, &c)| c)
        .map(|(v, _)| v.weight)
        .sum();
    let total = g.total_weight();
    AnalysisSummary {
        total_dynamic_subgraphs: dynamic.len(),
        unique_subgraphs: unique.len(),
        mean_ci_ratio,
        coverage: if total == 0 {
            0.0
        } else {
            covered_weight as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dddg::Vertex;
    use crate::trace::TraceCapture;
    use axmemo_sim::builder::ProgramBuilder;
    use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
    use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, Inst, MemWidth, Operand};
    use axmemo_sim::pipeline::LatencyModel;

    fn dddg_of(build: impl FnOnce(&mut ProgramBuilder)) -> Dddg {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(4096);
        let mut cap = TraceCapture::new();
        sim.run_traced(&p, &mut m, Some(&mut cap)).unwrap();
        Dddg::from_trace(cap.events(), &LatencyModel::default())
    }

    /// An expensive chain with two inputs: exp(x) * log(y) + x.
    fn expensive_block(b: &mut ProgramBuilder) {
        b.movi(10, 0x100);
        b.ld(MemWidth::B4, 1, 10, 0); // x
        b.ld(MemWidth::B4, 2, 10, 4); // y
        b.fun(FUnOp::Exp, 3, 1);
        b.fun(FUnOp::Log, 4, 2);
        b.fbin(FBinOp::Mul, 5, 3, 4);
        b.fbin(FBinOp::Add, 6, 5, 1);
        b.st(MemWidth::B4, 6, 10, 8);
    }

    #[test]
    fn finds_high_ci_block() {
        let g = dddg_of(expensive_block);
        let cands = find_candidates(&g, &SearchConfig::default());
        assert!(!cands.is_empty());
        let best = cands
            .iter()
            .max_by(|a, b| a.ci_ratio().total_cmp(&b.ci_ratio()))
            .unwrap();
        // The exp+log+mul+add chain should be found with few inputs.
        assert!(best.weight >= 90, "weight {}", best.weight);
        assert!(best.num_inputs <= 4, "inputs {}", best.num_inputs);
        assert!(best.ci_ratio() > 20.0, "ratio {}", best.ci_ratio());
    }

    #[test]
    fn loop_iterations_dedup_to_one_unique() {
        let g = dddg_of(|b| {
            b.movi(20, 0).movi(21, 8).movi(10, 0x100);
            let top = b.label("top");
            b.bind(top);
            b.ld(MemWidth::B4, 1, 10, 0);
            b.fun(FUnOp::Exp, 2, 1);
            b.fbin(FBinOp::Mul, 3, 2, 2);
            b.fbin(FBinOp::Add, 4, 3, 2);
            b.st(MemWidth::B4, 4, 10, 4);
            b.alu(IAluOp::Add, 20, 20, Operand::Imm(1));
            b.branch(Cond::LtS, 20, Operand::Reg(21), top);
        });
        let cfg = SearchConfig {
            min_ci_ratio: 2.0,
            ..SearchConfig::default()
        };
        let dynamic = find_candidates(&g, &cfg);
        let unique = filter_unique(&dynamic);
        assert!(dynamic.len() >= 8, "dynamic {}", dynamic.len());
        // All 8 iterations share one structure (plus perhaps the loop
        // counter chain).
        assert!(unique.len() <= 3, "unique {}", unique.len());
    }

    #[test]
    fn subset_candidates_are_pruned() {
        let g = dddg_of(expensive_block);
        let cands = find_candidates(&g, &SearchConfig::default());
        let unique = filter_unique(&cands);
        // No kept signature may be a strict subset of another.
        for (i, a) in unique.iter().enumerate() {
            for (j, b) in unique.iter().enumerate() {
                if i == j {
                    continue;
                }
                let a_set: std::collections::HashSet<_> = a.signature.iter().collect();
                let b_set: std::collections::HashSet<_> = b.signature.iter().collect();
                assert!(!a_set.is_subset(&b_set), "candidate {i} ⊂ {j}");
            }
        }
    }

    #[test]
    fn analyze_reports_coverage() {
        let g = dddg_of(expensive_block);
        let s = analyze(&g, &SearchConfig::default());
        assert!(s.total_dynamic_subgraphs >= 1);
        assert!(s.unique_subgraphs >= 1);
        assert!(s.coverage > 0.5, "coverage {}", s.coverage);
        assert!(s.coverage <= 1.0);
        assert!(s.mean_ci_ratio > 0.0);
    }

    #[test]
    fn merge_unions_heavily_overlapping_candidates() {
        let mk = |sig: Vec<usize>| Candidate {
            vertices: sig.clone(),
            output: *sig.last().unwrap(),
            num_inputs: 2,
            weight: sig.len() as u64 * 10,
            signature: sig,
        };
        // 4/5 overlap: merges. Disjoint: survives separately.
        let a = mk(vec![1, 2, 3, 4]);
        let b = mk(vec![2, 3, 4, 5]);
        let c = mk(vec![100, 101]);
        let merged = merge_overlapping(&[a, b, c], 0.5);
        assert_eq!(merged.len(), 2);
        let big = merged.iter().find(|m| m.signature.len() == 5).unwrap();
        assert_eq!(big.signature, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_with_high_threshold_is_identity() {
        let mk = |sig: Vec<usize>| Candidate {
            vertices: sig.clone(),
            output: *sig.last().unwrap(),
            num_inputs: 2,
            weight: 10,
            signature: sig,
        };
        let cands = vec![mk(vec![1, 2]), mk(vec![2, 3])];
        let merged = merge_overlapping(&cands, 0.99);
        assert_eq!(merged.len(), 2);
    }

    /// The original quadratic growth, kept as the oracle for the
    /// incremental one: it re-measures `S` after every added vertex and
    /// rescans `S` from the start for the next ready producer.
    fn reference_grow_from(g: &Dddg, output: VertexId, cfg: &SearchConfig) -> Option<Candidate> {
        let mut in_s: HashSet<VertexId> = HashSet::from([output]);
        let mut order: Vec<VertexId> = vec![output];
        let mut best: Option<(f64, usize)> = None; // (ratio, order length)

        loop {
            let (inputs, weight) = reference_measure(g, &in_s);
            if inputs <= cfg.max_inputs && order.len() >= cfg.min_vertices {
                let ratio = weight as f64 / inputs.max(1) as f64;
                if best.map(|(r, _)| ratio > r).unwrap_or(true) {
                    best = Some((ratio, order.len()));
                }
            }
            let next = order.iter().find_map(|&v| {
                g.vertices[v].inputs.iter().copied().find(|p| {
                    !in_s.contains(p) && g.vertices[*p].outputs.iter().all(|c| in_s.contains(c))
                })
            });
            match next {
                Some(p) => {
                    in_s.insert(p);
                    order.push(p);
                }
                None => break,
            }
        }

        let (_, keep) = best?;
        let kept: HashSet<VertexId> = order[..keep].iter().copied().collect();
        let (inputs, weight) = reference_measure(g, &kept);
        let mut vertices: Vec<VertexId> = kept.into_iter().collect();
        vertices.sort_unstable();
        let mut signature: Vec<usize> = vertices.iter().map(|&v| g.vertices[v].pc).collect();
        signature.sort_unstable();
        let cand = Candidate {
            vertices,
            output,
            num_inputs: inputs,
            weight,
            signature,
        };
        (cand.ci_ratio() >= cfg.min_ci_ratio).then_some(cand)
    }

    /// External inputs and total weight of a vertex set, from scratch.
    fn reference_measure(g: &Dddg, s: &HashSet<VertexId>) -> (usize, u64) {
        let mut ext: std::collections::BTreeSet<VertexId> = Default::default();
        let mut weight = 0;
        let mut load_inputs = 0usize;
        for &v in s {
            weight += g.vertices[v].weight;
            for &p in &g.vertices[v].inputs {
                if !s.contains(&p) {
                    ext.insert(p);
                }
            }
            if g.vertices[v].is_load {
                load_inputs += 1;
            }
        }
        (ext.len() + load_inputs, weight)
    }

    fn reference_find_candidates(g: &Dddg, cfg: &SearchConfig) -> Vec<Candidate> {
        (0..g.len())
            .filter_map(|v| reference_grow_from(g, v, cfg))
            .collect()
    }

    /// SplitMix64, so generated graphs are reproducible from the seed.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random DAG in topological order. Producers are drawn from a few
    /// hubs (wide fan-out) or from recent vertices (chains and diamonds);
    /// about a third of the vertices are loads, and some consumers list
    /// a producer again as a later input. Static pcs come from a small
    /// pool so that signatures repeat.
    fn random_dag(seed: u64) -> Dddg {
        let mut rng = SplitMix64(seed);
        let n = 1 + rng.below(48) as usize;
        let hubs = 1 + rng.below(4) as usize;
        let max_fan_in = 1 + rng.below(4);
        let mut g = Dddg::default();
        for i in 0..n {
            let mut inputs: Vec<VertexId> = Vec::new();
            if i > 0 {
                for _ in 0..rng.below(max_fan_in + 1) {
                    let p = if rng.below(3) == 0 {
                        rng.below(hubs.min(i) as u64) as usize
                    } else {
                        i - 1 - rng.below(i.min(4) as u64) as usize
                    };
                    if !inputs.contains(&p) {
                        inputs.push(p);
                    }
                }
                if !inputs.is_empty() && rng.below(6) == 0 {
                    inputs.push(inputs[rng.below(inputs.len() as u64) as usize]);
                }
            }
            g.vertices.push(Vertex {
                pc: rng.below(8) as usize,
                // Only the dot export reads the instruction.
                inst: Inst::Halt,
                // Mostly cheap vertices with a few expensive ones, so the
                // best prefix often stops short of the whole cone.
                weight: if rng.below(4) == 0 {
                    20 + rng.below(40)
                } else {
                    1 + rng.below(3)
                },
                inputs,
                outputs: Vec::new(),
                value: 0,
                is_load: rng.below(3) == 0,
            });
        }
        for c in 0..n {
            for k in 0..g.vertices[c].inputs.len() {
                let p = g.vertices[c].inputs[k];
                g.vertices[p].outputs.push(c);
            }
        }
        g
    }

    #[test]
    fn incremental_search_matches_reference_on_generated_dags() {
        let mut nonempty = 0;
        for seed in 0..500u64 {
            let g = random_dag(seed);
            for max_inputs in [0, 1, 16] {
                for min_vertices in [1, 3] {
                    let cfg = SearchConfig {
                        max_inputs,
                        min_ci_ratio: if seed % 2 == 0 { 0.0 } else { 4.0 },
                        min_vertices,
                    };
                    let got = find_candidates(&g, &cfg);
                    let want = reference_find_candidates(&g, &cfg);
                    assert_eq!(
                        got, want,
                        "seed {seed}, max_inputs {max_inputs}, min_vertices {min_vertices}"
                    );
                    nonempty += usize::from(!got.is_empty());
                }
            }
        }
        // The generator must exercise the search, not just empty graphs.
        assert!(nonempty > 1500, "only {nonempty} non-empty searches");
    }

    #[test]
    fn incremental_search_matches_reference_on_traced_blocks() {
        let g = dddg_of(expensive_block);
        let cfg = SearchConfig {
            min_ci_ratio: 0.0,
            min_vertices: 1,
            ..SearchConfig::default()
        };
        assert_eq!(
            find_candidates(&g, &cfg),
            reference_find_candidates(&g, &cfg)
        );
    }

    #[test]
    fn ready_producers_join_in_first_sighting_order() {
        // r reads [a, b, c]; c reads a; b reads d; d is a load of e,
        // which x also reads. After r joins, b and c are ready; b's join
        // makes d ready, then c's join makes a ready. First sighting puts
        // a (sighted by r) before d (sighted by b); a FIFO of ready
        // producers would take d first.
        let mk = |inputs: Vec<VertexId>, is_load: bool| Vertex {
            pc: 0,
            inst: Inst::Halt,
            weight: 10,
            inputs,
            outputs: Vec::new(),
            value: 0,
            is_load,
        };
        let (a, e, d, b, c, r, x) = (0, 1, 2, 3, 4, 5, 6);
        let mut g = Dddg {
            vertices: vec![
                mk(vec![], false),
                mk(vec![], false),
                mk(vec![e], true),
                mk(vec![d], false),
                mk(vec![a], false),
                mk(vec![a, b, c], false),
                mk(vec![e], false),
            ],
        };
        g.vertices[a].outputs = vec![c, r];
        g.vertices[e].outputs = vec![d, x];
        g.vertices[d].outputs = vec![b];
        g.vertices[b].outputs = vec![r];
        g.vertices[c].outputs = vec![r];
        // {r, b, c, a} has one input (d); {r, b, c, d} has three (a, e
        // and d's load), and so does every later prefix.
        let cfg = SearchConfig {
            max_inputs: 1,
            min_ci_ratio: 0.0,
            min_vertices: 4,
        };
        let cands = find_candidates(&g, &cfg);
        let root = cands.iter().find(|c| c.output == r).unwrap();
        assert_eq!(root.vertices, vec![a, b, c, r]);
        assert_eq!(root.num_inputs, 1);
        assert_eq!(cands, reference_find_candidates(&g, &cfg));
    }

    #[test]
    fn filter_unique_keeps_first_instance_in_input_order() {
        let mk = |output: VertexId, sig: Vec<usize>| Candidate {
            vertices: vec![output],
            output,
            num_inputs: 1,
            weight: 10,
            signature: sig,
        };
        // Repeated pcs are one set: [5, 5, 6] ⊆ [5, 6, 7, 8].
        let cands = vec![
            mk(0, vec![1, 2]),
            mk(1, vec![5, 5, 6]),
            mk(2, vec![1, 2]),
            mk(3, vec![3, 4]),
            mk(4, vec![5, 6, 7, 8]),
        ];
        let unique = filter_unique(&cands);
        let outputs: Vec<VertexId> = unique.iter().map(|c| c.output).collect();
        assert_eq!(outputs, vec![4, 0, 3]);
    }

    #[test]
    fn low_reuse_graph_yields_no_candidates() {
        // Cheap ALU-only chain: CI ratio below threshold.
        let g = dddg_of(|b| {
            b.movi(1, 1);
            b.alu(IAluOp::Add, 2, 1, Operand::Imm(1));
            b.alu(IAluOp::Add, 3, 2, Operand::Imm(1));
        });
        let cands = find_candidates(&g, &SearchConfig::default());
        assert!(cands.is_empty());
    }
}
