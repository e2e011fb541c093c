//! Differential test of the threaded tier against the executable spec.
//!
//! The legacy instruction-at-a-time loop (`DispatchTier::Legacy`) is the
//! spec; the threaded superblock interpreter must be observably
//! identical to it on *any* well-formed program, not only on the ten
//! kernels. A [`SplitMix64`]-seeded generator builds programs with
//! bounded (optionally nested) loops, biased forward branches whose
//! direction flips mid-run, in-bounds and out-of-bounds loads and
//! stores, divides that may hit zero, plain region markers, and memo
//! regions lowered through `codegen::memoize` with random truncation.
//! Each program also draws a random memoization/fault configuration,
//! branch predictor, and `max_insts`/`max_cycles` watchdogs.
//!
//! Every case runs on both tiers and is compared element by element:
//! the `Result` (so `RunStats` on success and the exact `SimError`
//! variant and payload on failure), the final registers and memory,
//! the memoization unit's statistics, and the full telemetry event
//! stream. A failure names its seed, so it always reproduces.

use axmemo_compiler::codegen::{memoize, InputLoad, RegInput, RegionSpec};
use axmemo_core::config::{DataWidth, MemoConfig};
use axmemo_core::faults::{FaultConfig, FaultDomain, Protection};
use axmemo_core::ids::LutId;
use axmemo_sim::cpu::{DispatchTier, Machine, SimConfig, SimError, Simulator};
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program, Reg};
use axmemo_sim::predictor::{PredictorConfig, PredictorKind};
use axmemo_sim::{ProgramBuilder, RunStats};
use axmemo_telemetry::{event_to_json, RingBufferSink, Telemetry};
use axmemo_workloads::gen::SplitMix64;
use axmemo_workloads::{benchmark_by_name, Dataset, Scale};

/// Generated cases checked in tier-1.
const SEEDS: u64 = 512;

/// Machine memory per case.
const MEM_BYTES: usize = 16 * 1024;
/// Input words the generated loops read (`[INPUT_BASE, +INPUT_SPAN)`).
const INPUT_BASE: u64 = 0x100;
const INPUT_SPAN: u64 = 0x800;
/// Stores land `OUT_OFFSET` bytes above the current input address.
const OUT_OFFSET: i32 = 0x2000;

/// Data registers `x1..=x16` are the only ones random ops write.
const DATA_REGS: u64 = 16;
/// Current input address (`BASE + 8 * counter`).
const ADDR: Reg = 20;
/// Base of the input region.
const BASE: Reg = 21;
/// Loop counters and bounds for the outer and the nested loop.
const CTR: [Reg; 2] = [24, 25];
const BOUND: [Reg; 2] = [26, 27];

const IALU_OPS: [IAluOp; 11] = [
    IAluOp::Add,
    IAluOp::Sub,
    IAluOp::Mul,
    IAluOp::Div,
    IAluOp::Rem,
    IAluOp::And,
    IAluOp::Or,
    IAluOp::Xor,
    IAluOp::Shl,
    IAluOp::Shr,
    IAluOp::Sar,
];
const FBIN_OPS: [FBinOp; 7] = [
    FBinOp::Add,
    FBinOp::Sub,
    FBinOp::Mul,
    FBinOp::Div,
    FBinOp::Min,
    FBinOp::Max,
    FBinOp::CmpLt,
];
const FUN_OPS: [FUnOp; 11] = [
    FUnOp::Sqrt,
    FUnOp::Exp,
    FUnOp::Log,
    FUnOp::Sin,
    FUnOp::Cos,
    FUnOp::Atan,
    FUnOp::Neg,
    FUnOp::Abs,
    FUnOp::Floor,
    FUnOp::ToInt,
    FUnOp::FromInt,
];
const CONDS: [Cond; 8] = [
    Cond::Eq,
    Cond::Ne,
    Cond::LtS,
    Cond::GeS,
    Cond::LtU,
    Cond::GeU,
    Cond::FLt,
    Cond::FGe,
];
const WIDTHS: [MemWidth; 3] = [MemWidth::B1, MemWidth::B4, MemWidth::B8];

/// One generated case: a program, its initial machine, and the
/// simulator configuration both tiers run it under.
struct Case {
    program: Program,
    machine: Machine,
    config: SimConfig,
}

/// Builds one random program.
struct Gen {
    rng: SplitMix64,
    b: ProgramBuilder,
    specs: Vec<RegionSpec>,
    next_region: u32,
    /// Whether memo regions may be emitted.
    memo: bool,
    /// Out-of-bounds accesses emitted so far (capped so most programs
    /// run to completion).
    oob: u32,
}

impl Gen {
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.index(xs.len())]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.below(100) < percent
    }

    fn data_reg(&mut self) -> Reg {
        1 + self.rng.below(DATA_REGS) as Reg
    }

    fn operand(&mut self) -> Operand {
        if self.chance(50) {
            Operand::Reg(self.data_reg())
        } else if self.chance(3) {
            Operand::Imm(0)
        } else {
            Operand::Imm(self.rng.below(64) as i64 - 16)
        }
    }

    /// One straight-line compute op on data registers.
    fn compute(&mut self) {
        let rd = self.data_reg();
        let ra = self.data_reg();
        match self.rng.below(10) {
            0..=4 => {
                let op = self.pick(&IALU_OPS);
                let rb = self.operand();
                self.b.alu(op, rd, ra, rb);
            }
            5..=6 => {
                let op = self.pick(&FBIN_OPS);
                let rb = self.data_reg();
                self.b.fbin(op, rd, ra, rb);
            }
            7 => {
                let op = self.pick(&FUN_OPS);
                self.b.fun(op, rd, ra);
            }
            8 => {
                self.b.mov(rd, ra);
            }
            _ => {
                let v = self.rng.below(8);
                self.b.movi(rd, v);
            }
        }
    }

    /// An in-bounds load from the current input window.
    fn load(&mut self) -> usize {
        let width = self.pick(&WIDTHS);
        let rd = self.data_reg();
        let offset = 8 * self.rng.below(8) as i32;
        let index = self.b.here();
        self.b.ld(width, rd, ADDR, offset);
        index
    }

    /// An in-bounds store into the output window.
    fn store(&mut self) {
        let width = self.pick(&WIDTHS);
        let rs = self.data_reg();
        let offset = OUT_OFFSET + 8 * self.rng.below(8) as i32;
        self.b.st(width, rs, ADDR, offset);
    }

    /// A load or store whose address is (very likely) out of bounds:
    /// either a data register used as a base or an offset past the end
    /// of memory.
    fn out_of_bounds(&mut self) {
        self.oob += 1;
        let width = self.pick(&WIDTHS);
        let (base, offset) = if self.chance(50) {
            (self.data_reg(), 0)
        } else {
            (ADDR, MEM_BYTES as i32 + 8 * self.rng.below(4) as i32)
        };
        if self.chance(50) {
            let rd = self.data_reg();
            self.b.ld(width, rd, base, offset);
        } else {
            let rs = self.data_reg();
            self.b.st(width, rs, base, offset);
        }
    }

    /// A forward branch over a few ops. Half of them test the loop
    /// counter against a mid-run threshold, so the branch is biased one
    /// way for the first iterations and the other way afterwards —
    /// every fused copy disagrees with its static prediction once the
    /// bias flips.
    fn skip(&mut self, depth: usize, trip: u64) {
        let skip = self.b.label("skip");
        if self.chance(50) {
            let threshold = self.rng.below(trip + 1) as i64;
            let cond = self.pick(&[Cond::LtS, Cond::GeS]);
            self.b
                .branch(cond, CTR[depth], Operand::Imm(threshold), skip);
        } else {
            let cond = self.pick(&CONDS);
            let ra = self.data_reg();
            let rb = self.operand();
            self.b.branch(cond, ra, rb, skip);
        }
        for _ in 0..1 + self.rng.below(3) {
            self.compute();
        }
        if self.chance(30) {
            self.store();
        }
        self.b.bind(skip);
    }

    /// A memoizable region: input loads, marked body, output store,
    /// plus the [`RegionSpec`] `codegen::memoize` lowers it with.
    fn memo_region(&mut self) {
        let id = self.next_region;
        self.next_region += 1;
        let mut input_loads = Vec::new();
        let mut inputs = Vec::new();
        for _ in 0..1 + self.rng.below(2) {
            let width = self.pick(&[MemWidth::B4, MemWidth::B8]);
            let rd = self.data_reg();
            let offset = 8 * self.rng.below(4) as i32;
            input_loads.push(InputLoad {
                index: self.b.here(),
                trunc: self.rng.below(24) as u8,
            });
            self.b.ld(width, rd, ADDR, offset);
            inputs.push(rd);
        }
        let mut reg_inputs = Vec::new();
        if self.chance(40) {
            reg_inputs.push(RegInput {
                reg: self.data_reg(),
                width: self.pick(&[MemWidth::B4, MemWidth::B8]),
                trunc: self.rng.below(16) as u8,
            });
        }
        let output = self.data_reg();
        self.b.region_begin(id);
        for _ in 0..1 + self.rng.below(4) {
            let ra = self.pick(&inputs);
            let rb = self.pick(&inputs);
            if self.chance(50) {
                let op = self.pick(&[FBinOp::Add, FBinOp::Mul, FBinOp::Div, FBinOp::Max]);
                self.b.fbin(op, output, ra, rb);
            } else {
                let op = self.pick(&IALU_OPS);
                self.b.alu(op, output, ra, Operand::Reg(rb));
            }
        }
        self.b.region_end(id);
        self.b.st(MemWidth::B8, output, ADDR, OUT_OFFSET);
        self.specs.push(RegionSpec {
            region: id,
            lut: LutId::new(self.rng.below(3) as u8).unwrap(),
            input_loads,
            reg_inputs,
            output,
        });
    }

    /// A bounded counted loop at `depth` (0 = outer, 1 = nested).
    fn counted_loop(&mut self, depth: usize) {
        let trip = 1 + self.rng.below(if depth == 0 { 64 } else { 6 });
        self.b.movi(CTR[depth], 0).movi(BOUND[depth], trip);
        let top = self.b.label("top");
        self.b.bind(top);
        self.b.alu(IAluOp::Shl, ADDR, CTR[depth], Operand::Imm(3));
        self.b.alu(IAluOp::Add, ADDR, ADDR, Operand::Reg(BASE));
        let mut memo_regions = 0;
        for _ in 0..2 + self.rng.below(8) {
            match self.rng.below(100) {
                0..=39 => self.compute(),
                40..=51 => {
                    self.load();
                }
                52..=59 => self.store(),
                60..=71 => self.skip(depth, trip),
                72..=81 if self.memo && memo_regions < 2 => {
                    memo_regions += 1;
                    self.memo_region();
                }
                82..=84 => {
                    let id = 1000 + self.rng.below(4) as u32;
                    self.b.region_begin(id);
                    self.compute();
                    self.b.region_end(id);
                }
                85..=87 => {
                    let over = self.b.label("over");
                    self.b.jump(over);
                    self.compute();
                    self.b.bind(over);
                }
                88..=91 if depth == 0 => self.counted_loop(1),
                92..=93 if self.oob < 1 => self.out_of_bounds(),
                _ => self.compute(),
            }
        }
        self.b
            .alu(IAluOp::Add, CTR[depth], CTR[depth], Operand::Imm(1));
        self.b
            .branch(Cond::LtS, CTR[depth], Operand::Reg(BOUND[depth]), top);
    }
}

/// A random data-register value: small integers, float bit patterns,
/// and raw 64-bit noise.
fn reg_value(rng: &mut SplitMix64) -> u64 {
    match rng.below(4) {
        0 => rng.below(8),
        1 => u64::from((rng.f32() * 4.0 - 1.0).to_bits()),
        2 => u64::from(((rng.below(4) as f32) + 0.5).to_bits()),
        _ => rng.next_u64(),
    }
}

/// Generate a random program (memoized through `codegen::memoize` when
/// it contains memo regions) and its initial machine.
fn gen_program(rng: &mut SplitMix64, memo: bool) -> (Program, Machine) {
    let mut g = Gen {
        rng: SplitMix64::new(rng.next_u64()),
        b: ProgramBuilder::new(),
        specs: Vec::new(),
        next_region: 1,
        memo,
        oob: 0,
    };
    for r in 1..=DATA_REGS as Reg {
        let v = reg_value(&mut g.rng);
        g.b.movi(r, v);
    }
    let base = INPUT_BASE + 8 * g.rng.below(64);
    g.b.movi(BASE, base);
    for _ in 0..1 + g.rng.below(2) {
        g.counted_loop(0);
    }
    if !g.specs.is_empty() {
        // Real kernels drop their LUT contents at program end.
        let lut = g.specs[0].lut;
        g.b.memo_invalidate(lut);
    }
    if g.chance(30) {
        // Trailing markers after the last counted instruction.
        g.b.region_begin(2000);
        g.b.region_end(2000);
    }
    g.b.halt();
    let program = g.b.build().expect("generated program is well-formed");
    let program = if g.specs.is_empty() {
        program
    } else {
        memoize(&program, &g.specs).expect("codegen accepts generated regions")
    };

    // Inputs drawn from a small alphabet so memo regions see reuse.
    let mut machine = Machine::new(MEM_BYTES);
    let alphabet: Vec<u64> = (0..1 + rng.below(6)).map(|_| reg_value(rng)).collect();
    for addr in (INPUT_BASE..INPUT_BASE + INPUT_SPAN).step_by(8) {
        let v = alphabet[rng.index(alphabet.len())];
        machine.store(addr, MemWidth::B8, v).unwrap();
    }
    (program, machine)
}

/// A random fault configuration (often fault-free).
fn gen_faults(rng: &mut SplitMix64) -> FaultConfig {
    if rng.below(3) == 0 {
        return FaultConfig::default();
    }
    let domain = FaultDomain::ALL[rng.index(3)];
    let protection = if rng.bool() {
        Protection::Unprotected
    } else {
        Protection::EccProtected
    };
    let rate = [1_000, 20_000, 200_000][rng.index(3)];
    let mut faults = FaultConfig::domain(rng.next_u64(), rate, domain, protection);
    if rng.bool() {
        faults.dropped_update_ppm = [50_000, 500_000][rng.index(2)];
    }
    if rng.bool() {
        faults.latency_spike_ppm = [10_000, 100_000][rng.index(2)];
        faults.latency_spike_cycles = 1 + rng.below(300);
    }
    faults
}

/// A random simulator configuration for a program that does (`memo`)
/// or does not contain memoization instructions.
fn gen_config(rng: &mut SplitMix64, memo: bool) -> SimConfig {
    // Memoized programs mostly get a unit; occasionally none, which
    // must fail identically (`NoMemoUnit`) on both tiers.
    let with_unit = if memo { rng.below(8) != 0 } else { rng.bool() };
    let memo_cfg = with_unit.then(|| {
        let base = match rng.below(3) {
            0 => MemoConfig::l1_only(1024),
            1 => MemoConfig::l1_only(4 * 1024),
            _ => MemoConfig::l1_l2(1024, 16 * 1024),
        };
        MemoConfig {
            data_width: if rng.bool() {
                DataWidth::W4
            } else {
                DataWidth::W8
            },
            input_queue_depth: [1, 2, 16][rng.index(3)],
            quality_monitoring: rng.below(4) != 0,
            faults: gen_faults(rng),
            ..base
        }
    });
    let predictor = rng.bool().then(|| PredictorConfig {
        kind: if rng.bool() {
            PredictorKind::Bimodal
        } else {
            PredictorKind::Gshare
        },
        entries: 64,
        mispredict_penalty: 1 + rng.below(8),
    });
    // Watchdogs: usually unarmed (the threaded tier's unguarded hot
    // loop), otherwise tight enough to trip mid-run.
    let max_insts = if rng.below(4) == 0 {
        rng.below(3_000)
    } else {
        u64::MAX
    };
    let max_cycles = if rng.below(4) == 0 {
        rng.below(6_000)
    } else {
        u64::MAX
    };
    SimConfig {
        memo: memo_cfg,
        predictor,
        max_insts,
        max_cycles,
        ..SimConfig::baseline()
    }
}

fn gen_case(seed: u64) -> Case {
    let mut rng = SplitMix64::new(seed);
    let memo = rng.below(4) != 0;
    let (program, machine) = gen_program(&mut rng, memo);
    let config = gen_config(&mut rng, memo);
    Case {
        program,
        machine,
        config,
    }
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<RunStats, SimError>,
    regs: Vec<u64>,
    mem: Vec<u8>,
    memo_hit: bool,
    unit: Option<String>,
    events: Vec<String>,
}

fn observe(case: &Case, dispatch: DispatchTier) -> Observed {
    let mut sim = Simulator::new(SimConfig {
        dispatch,
        ..case.config.clone()
    })
    .expect("generated configuration is valid");
    let sink = RingBufferSink::new(1 << 20);
    let mut tel = Telemetry::enabled();
    tel.add_sink(Box::new(sink.clone()));
    sim.set_telemetry(tel);
    let mut machine = case.machine.clone();
    let result = sim.run(&case.program, &mut machine);
    sim.telemetry_mut().flush();
    assert_eq!(sink.dropped(), 0, "event stream truncated");
    Observed {
        result,
        regs: machine.regs.to_vec(),
        mem: machine.mem,
        memo_hit: machine.memo_hit,
        unit: sim.memo_unit().map(|u| {
            format!(
                "{:?} {:?} {:?} {:?}",
                u.stats(),
                u.lut().l1_stats(),
                u.lut().l2_stats(),
                u.fault_stats()
            )
        }),
        events: sink.events().iter().map(event_to_json).collect(),
    }
}

/// Run `case` on both tiers and compare every observable.
fn assert_tiers_agree(label: &str, case: &Case) -> Observed {
    let spec = observe(case, DispatchTier::Legacy);
    let fast = observe(case, DispatchTier::Threaded);
    assert_eq!(fast.result, spec.result, "{label}: result diverges");
    assert_eq!(fast.regs, spec.regs, "{label}: registers diverge");
    assert!(fast.mem == spec.mem, "{label}: memory diverges");
    assert_eq!(fast.memo_hit, spec.memo_hit, "{label}: memo flag diverges");
    assert_eq!(fast.unit, spec.unit, "{label}: memoization unit diverges");
    assert_eq!(
        fast.events.len(),
        spec.events.len(),
        "{label}: event counts diverge"
    );
    for (i, (got, want)) in fast.events.iter().zip(&spec.events).enumerate() {
        assert_eq!(got, want, "{label}: event {i} diverges");
    }
    spec
}

#[test]
fn generated_programs_match_the_spec() {
    let mut completed = 0;
    let mut failures = std::collections::HashSet::new();
    let mut with_hits = 0;
    for seed in 0..SEEDS {
        let case = gen_case(seed);
        let spec = assert_tiers_agree(&format!("seed {seed}"), &case);
        match &spec.result {
            Ok(stats) => {
                completed += 1;
                if stats.memo_insts > 0 && spec.events.iter().any(|e| e.contains("lut.hit")) {
                    with_hits += 1;
                }
            }
            Err(e) => {
                failures.insert(std::mem::discriminant(e));
            }
        }
    }
    // The generator actually reaches the paths it claims to: most
    // programs run to completion, a fair share hit the LUT, and every
    // error class (memory fault, divide by zero, both watchdogs, and a
    // missing memoization unit) shows up.
    assert!(
        completed >= SEEDS / 3,
        "only {completed} programs completed"
    );
    assert!(
        with_hits >= SEEDS / 10,
        "only {with_hits} programs hit the LUT"
    );
    for (what, err) in [
        (
            "out-of-bounds",
            SimError::MemOutOfBounds {
                addr: 0,
                width: MemWidth::B1,
            },
        ),
        ("divide by zero", SimError::DivByZero { pc: 0 }),
        ("instruction limit", SimError::InstLimit { limit: 0 }),
        ("cycle limit", SimError::CycleLimit { limit: 0 }),
        ("missing unit", SimError::NoMemoUnit { pc: 0 }),
    ] {
        assert!(
            failures.contains(&std::mem::discriminant(&err)),
            "no generated program failed with {what}"
        );
    }
}

/// Fixed heterogeneous cells: one program under a fault-free unit, two distinct fault-injection
/// cells (different domains, rates, and protection, so their LUT
/// invalidation patterns diverge almost immediately), a different LUT
/// geometry, and a watchdog tight enough to halt the run early.
fn heterogeneous_cells(data_width: DataWidth) -> Vec<(&'static str, MemoConfig, u64)> {
    let base = MemoConfig {
        data_width,
        ..MemoConfig::l1_l2(8 * 1024, 256 * 1024)
    };
    vec![
        ("fault-free", base.clone(), u64::MAX),
        (
            "L1 unprotected flips",
            MemoConfig {
                faults: FaultConfig::domain(
                    7,
                    50_000,
                    FaultDomain::L1Only,
                    Protection::Unprotected,
                ),
                ..base.clone()
            },
            u64::MAX,
        ),
        (
            "L2 ECC flips",
            MemoConfig {
                faults: FaultConfig::domain(
                    11,
                    5_000,
                    FaultDomain::L2Only,
                    Protection::EccProtected,
                ),
                ..base.clone()
            },
            u64::MAX,
        ),
        (
            "small L1 only",
            MemoConfig {
                data_width,
                ..MemoConfig::l1_only(4 * 1024)
            },
            u64::MAX,
        ),
        ("tight watchdog", base, 5_000),
    ]
}

/// Fixed generator seeds under the heterogeneous cells.
#[test]
fn fixed_seeds_match_under_heterogeneous_faults_and_early_halt() {
    for seed in [3, 17, 42] {
        let mut rng = SplitMix64::new(seed);
        let (program, machine) = gen_program(&mut rng, true);
        for (label, memo, max_cycles) in heterogeneous_cells(DataWidth::W4) {
            let case = Case {
                program: program.clone(),
                machine: machine.clone(),
                config: SimConfig {
                    max_cycles,
                    ..SimConfig::with_memo(memo)
                },
            };
            assert_tiers_agree(&format!("seed {seed}, {label}"), &case);
        }
    }
}

/// The same cells on a real kernel: blackscholes' memoized program at
/// tiny scale. The scenario must exercise what it claims — the
/// watchdog cell halts early with `CycleLimit`, and the fault and
/// geometry cells diverge from the fault-free one.
#[test]
fn kernel_matches_under_heterogeneous_faults_and_early_halt() {
    let bench = benchmark_by_name("blackscholes").expect("blackscholes registered");
    let (program, specs) = bench.program(Scale::Tiny);
    let program = memoize(&program, &specs).expect("codegen");
    let machine = bench.setup(Scale::Tiny, Dataset::Eval);
    let mut outcomes = Vec::new();
    for (label, memo, max_cycles) in heterogeneous_cells(bench.data_width()) {
        let case = Case {
            program: program.clone(),
            machine: machine.clone(),
            config: SimConfig {
                max_cycles,
                ..SimConfig::with_memo(memo)
            },
        };
        outcomes.push(assert_tiers_agree(&format!("blackscholes, {label}"), &case).result);
    }
    assert!(
        matches!(outcomes[4], Err(SimError::CycleLimit { limit: 5_000 })),
        "tight watchdog must trip: {:?}",
        outcomes[4]
    );
    let stats: Vec<RunStats> = outcomes[..4]
        .iter()
        .map(|r| r.expect("untimed cells complete"))
        .collect();
    assert!(
        stats[1..].iter().any(|s| *s != stats[0]),
        "fault/geometry cells never diverged from the fault-free cell"
    );
}
