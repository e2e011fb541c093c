//! Threaded-code execution tier: superblock fusion over the decoded
//! program.
//!
//! [`ThreadedProgram::compile`] lowers a [`DecodedProgram`]'s basic
//! blocks into **superblocks** — straight-line chains fused across
//! unconditional jumps and statically predicted conditional edges (see
//! [`DecodedProgram::superblocks`]) — and flattens each chain into a
//! dense run of fused ops. The hot loop then pays one outer dispatch
//! per *superblock* instead of one block lookup per basic block and one
//! decoded-enum match per instruction:
//!
//! - loop back-edges are fused repeatedly, so a tiny hot loop executes
//!   as dozens of unrolled iterations of straight-line fused ops;
//! - each fused op bakes its functional-unit class into the variant, so
//!   the scoreboard call is a monomorphic specialized helper
//!   (`Pipeline::issue_int` and friends) instead of the generic
//!   `Pipeline::issue`;
//! - branches carry their statically predicted direction; when the
//!   runtime direction disagrees, a **side exit** applies the precise
//!   cumulative block counts for the executed chain prefix and falls
//!   back to the outer loop at the architecturally correct pc.
//!
//! Exactness is by construction, not by sampling: every op performs the
//! same watchdog guard, error check, pipeline call, and telemetry call
//! in the same order as the legacy loop, so `RunStats`, machine
//! state, error values, fault-injector draws, and telemetry event
//! streams are bit-identical across tiers (pinned by
//! `tests/decode_equivalence.rs`, `tests/differential.rs` and the CI
//! golden diffs). Runs of consecutive region markers compress into one
//! guard op — valid because the watchdog state cannot change between
//! two zero-cost markers, so one check is equivalent to N.

use crate::cpu::{
    charge_mem_levels, cond_taken, fbin, funop, ialu, ialu_simple, input_value, spike_cycles,
    Machine, SimError, Simulator,
};
use crate::decoded::{BlockCounts, DecodedInst, DecodedProgram};
use crate::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth};
use crate::pipeline::{FuClass, LatencyModel, Pipeline};
use crate::predictor::BranchPredictor;
use crate::stats::{InstClassCounts, RunStats};
use axmemo_core::faults::Protection;
use axmemo_core::ids::{LutId, ThreadId, MAX_LUTS};
use axmemo_core::unit::LookupResult;
use axmemo_telemetry::PhaseId;

/// One fused op. The functional-unit class is the variant — the
/// interpreter's match arm calls the corresponding monomorphic
/// `Pipeline` helper directly, with no per-op `FuClass` dispatch.
/// Branch-like variants carry their side-exit binding: `exit_pc` (the
/// architectural pc to resume at) and `exit` (index into the program's
/// cumulative exit-count table for the chain prefix ending at this op's
/// block).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedOp {
    /// Simple ALU op (infallible subset; `IntAlu` unit).
    AluRR {
        op: IAluOp,
        rd: u8,
        ra: u8,
        rb: u8,
        lat: u64,
    },
    /// Simple ALU op against an immediate.
    AluRI {
        op: IAluOp,
        rd: u8,
        ra: u8,
        imm: u64,
        lat: u64,
    },
    /// Integer multiply (`IntMul` unit).
    MulRR { rd: u8, ra: u8, rb: u8, lat: u64 },
    /// Integer multiply against an immediate.
    MulRI { rd: u8, ra: u8, imm: u64, lat: u64 },
    /// Integer divide/remainder (`IntDiv` unit; `pc` for `DivByZero`).
    DivRR {
        op: IAluOp,
        rd: u8,
        ra: u8,
        rb: u8,
        lat: u64,
        pc: u32,
    },
    /// Integer divide/remainder against an immediate.
    DivRI {
        op: IAluOp,
        rd: u8,
        ra: u8,
        imm: u64,
        lat: u64,
        pc: u32,
    },
    /// Pipelined f32 binary op (`Fp` unit).
    FBinP {
        op: FBinOp,
        rd: u8,
        ra: u8,
        rb: u8,
        lat: u64,
    },
    /// f32 divide (`FpLong`: unpipelined use of the FP unit).
    FBinLong { rd: u8, ra: u8, rb: u8, lat: u64 },
    /// Pipelined f32 unary op.
    FUnP { op: FUnOp, rd: u8, ra: u8, lat: u64 },
    /// Unpipelined f32 unary op (sqrt / libm pseudo-ops).
    FUnLong { op: FUnOp, rd: u8, ra: u8, lat: u64 },
    /// Load (`LdSt` unit; latency from the cache model at run time).
    Ld {
        width: MemWidth,
        rd: u8,
        base: u8,
        offset: i32,
    },
    /// Store; `lat` is the precomputed store latency.
    St {
        width: MemWidth,
        rs: u8,
        base: u8,
        offset: i32,
        lat: u64,
    },
    /// Load immediate.
    MovImm { rd: u8, imm: u64 },
    /// Register move.
    Mov { rd: u8, ra: u8 },
    /// Conditional branch, register-register form. `expect_taken` is
    /// the fused direction; disagreement side-exits to `exit_pc`.
    BranchRR {
        cond: Cond,
        ra: u8,
        rb: u8,
        pc: u32,
        exit_pc: u32,
        exit: u32,
        expect_taken: bool,
    },
    /// Conditional branch against an immediate.
    BranchRI {
        cond: Cond,
        ra: u8,
        imm: u64,
        pc: u32,
        exit_pc: u32,
        exit: u32,
        expect_taken: bool,
    },
    /// Unconditional jump whose target is the next block in the chain:
    /// timing only (issue + bubble), no control transfer.
    JumpFused,
    /// Unconditional jump ending the chain (out-of-range target or
    /// fusion cap): exits to `target` with the chain's total counts.
    JumpExit { target: u32 },
    /// `branch_memo_hit` with fused expectation on the condition code.
    MemoBranchHit {
        exit_pc: u32,
        exit: u32,
        expect_hit: bool,
    },
    /// `ld_crc` (generic `Memo`-port issue path, as in the legacy
    /// loop).
    MemoLdCrc {
        width: MemWidth,
        rd: u8,
        base: u8,
        offset: i32,
        lut: LutId,
        trunc: u32,
        beat: u64,
        pc: u32,
    },
    /// `reg_crc`.
    MemoRegCrc {
        width: MemWidth,
        src: u8,
        mask: u64,
        lut: LutId,
        trunc: u32,
        beat: u64,
        pc: u32,
    },
    /// `lookup`.
    MemoLookup { rd: u8, lut: LutId, pc: u32 },
    /// `update`.
    MemoUpdate { src: u8, lut: LutId, pc: u32 },
    /// `invalidate`.
    MemoInvalidate { lut: LutId, pc: u32 },
    /// Watchdog check standing in for a maximal run of consecutive
    /// region markers (not a dynamic instruction).
    Guard,
    /// Stop execution, applying the chain's total counts.
    Halt,
}

/// Per-superblock metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbMeta {
    /// Fused ops `[ops_start, ops_end)` of the flat op array.
    pub(crate) ops_start: u32,
    pub(crate) ops_end: u32,
    /// The leader pc of the head block (entry invariant).
    pub(crate) entry_pc: u32,
    /// Architectural pc after falling off the end of the chain (the
    /// last block's `end`).
    pub(crate) fall_pc: u32,
    /// Exit-count index holding the whole chain's cumulative counts.
    pub(crate) total_exit: u32,
}

/// A program lowered to the threaded-dispatch form: fused superblock
/// chains over a [`DecodedProgram`].
///
/// Like the decoded form, a threaded program depends only on the
/// instruction sequence and the [`LatencyModel`] — share one behind an
/// `Arc` across simulators, sweep cells, and threads, and run it via
/// `Simulator::run_prepared_threaded`.
///
/// ```
/// use axmemo_sim::pipeline::LatencyModel;
/// use axmemo_sim::{DecodedProgram, ProgramBuilder, ThreadedProgram};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(1, 41);
/// b.alu(axmemo_sim::ir::IAluOp::Add, 1, 1, axmemo_sim::ir::Operand::Imm(1));
/// b.halt();
/// let program = b.build().unwrap();
///
/// let decoded = DecodedProgram::compile(&program, &LatencyModel::default());
/// let threaded = ThreadedProgram::compile(&decoded);
/// // One superblock per basic block of the decoded program.
/// assert_eq!(threaded.superblock_count(), decoded.block_count());
/// assert!(threaded.op_count() >= decoded.len());
/// ```
#[derive(Debug, Clone)]
pub struct ThreadedProgram {
    /// Flat fused-op array; superblocks are contiguous runs.
    pub(crate) ops: Vec<FusedOp>,
    /// One superblock per basic block, in block order (so the decoded
    /// `block_of` table maps a leader pc straight to its superblock).
    pub(crate) superblocks: Vec<SbMeta>,
    /// Containing block — and therefore superblock — of every pc.
    pub(crate) block_of: Vec<u32>,
    /// Cumulative [`BlockCounts`] per chain position, per superblock:
    /// a side exit at chain position `j` applies entry `base + j` in
    /// one shot.
    pub(crate) exit_counts: Vec<BlockCounts>,
    /// Per-superblock pc ranges for profiler attribution:
    /// `(entry_pc, max end over the chain)`.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// The latency model the program was lowered against.
    latency: LatencyModel,
}

impl ThreadedProgram {
    /// Lower a decoded program into fused superblocks.
    pub fn compile(dp: &DecodedProgram) -> Self {
        let n = dp.insts.len();
        let chains = dp.superblocks();
        let mut ops = Vec::new();
        let mut superblocks = Vec::with_capacity(chains.len());
        let mut exit_counts = Vec::with_capacity(chains.len());
        let mut ranges = Vec::with_capacity(chains.len());
        for sb in &chains {
            let chain = sb.block_indices();
            let ops_start = ops.len() as u32;
            let base_exit = exit_counts.len() as u32;
            let mut cum = BlockCounts::default();
            let mut max_end = 0u32;
            for &b in chain {
                let blk = &dp.blocks[b as usize];
                cum.absorb(&blk.counts);
                exit_counts.push(cum);
                max_end = max_end.max(blk.end);
            }
            for (j, &b) in chain.iter().enumerate() {
                let blk = &dp.blocks[b as usize];
                let last_in_chain = j + 1 == chain.len();
                lower_block(dp, blk, base_exit + j as u32, last_in_chain, n, &mut ops);
            }
            let last_blk = &dp.blocks[*chain.last().expect("chains are non-empty") as usize];
            superblocks.push(SbMeta {
                ops_start,
                ops_end: ops.len() as u32,
                entry_pc: sb.entry_pc() as u32,
                fall_pc: last_blk.end,
                total_exit: base_exit + (chain.len() - 1) as u32,
            });
            ranges.push((sb.entry_pc() as u32, max_end));
        }
        Self {
            ops,
            superblocks,
            block_of: dp.block_of.clone(),
            exit_counts,
            ranges,
            latency: *dp.latency(),
        }
    }

    /// The latency model this program was lowered against (a prepared
    /// run must use a simulator configured with an equal model).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of superblocks (always equal to the decoded program's
    /// basic-block count: one chain per leader).
    pub fn superblock_count(&self) -> usize {
        self.superblocks.len()
    }

    /// Total fused ops across all superblocks (unrolling makes this
    /// larger than the static instruction count).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// The fused direction and side-exit pc of a conditional branch at
/// decoded index `pc` whose block ends at `end`: mid-chain backward
/// in-range branches are fused taken (exit = fall-through), everything
/// else is fused not-taken (exit = target). Must mirror
/// `DecodedProgram::fused_successor` exactly.
fn branch_fusion(target: usize, pc: usize, end: usize, n: usize, last: bool) -> (bool, u32) {
    if !last && target <= pc && target < n {
        (true, end as u32)
    } else {
        (false, target as u32)
    }
}

/// Append one basic block's fused ops, bound to exit-count slot `exit`.
fn lower_block(
    dp: &DecodedProgram,
    blk: &crate::decoded::Block,
    exit: u32,
    last_in_chain: bool,
    n: usize,
    ops: &mut Vec<FusedOp>,
) {
    let start = blk.start as usize;
    let end = blk.end as usize;
    let mut in_region_run = false;
    for pc in start..end {
        let inst = dp.insts[pc];
        if matches!(inst, DecodedInst::Region) {
            if !in_region_run {
                ops.push(FusedOp::Guard);
                in_region_run = true;
            }
            continue;
        }
        in_region_run = false;
        let pc32 = pc as u32;
        let fused = match inst {
            DecodedInst::IAluRR {
                op,
                rd,
                ra,
                rb,
                lat,
                fu,
            } => match fu {
                FuClass::IntMul => FusedOp::MulRR { rd, ra, rb, lat },
                FuClass::IntDiv => FusedOp::DivRR {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                    pc: pc32,
                },
                _ => FusedOp::AluRR {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                },
            },
            DecodedInst::IAluRI {
                op,
                rd,
                ra,
                imm,
                lat,
                fu,
            } => match fu {
                FuClass::IntMul => FusedOp::MulRI { rd, ra, imm, lat },
                FuClass::IntDiv => FusedOp::DivRI {
                    op,
                    rd,
                    ra,
                    imm,
                    lat,
                    pc: pc32,
                },
                _ => FusedOp::AluRI {
                    op,
                    rd,
                    ra,
                    imm,
                    lat,
                },
            },
            DecodedInst::FBin {
                op,
                rd,
                ra,
                rb,
                lat,
                fu,
            } => match fu {
                FuClass::FpLong => FusedOp::FBinLong { rd, ra, rb, lat },
                _ => FusedOp::FBinP {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                },
            },
            DecodedInst::FUn {
                op,
                rd,
                ra,
                lat,
                fu,
            } => match fu {
                FuClass::FpLong => FusedOp::FUnLong { op, rd, ra, lat },
                _ => FusedOp::FUnP { op, rd, ra, lat },
            },
            DecodedInst::Ld {
                width,
                rd,
                base,
                offset,
            } => FusedOp::Ld {
                width,
                rd,
                base,
                offset,
            },
            DecodedInst::St {
                width,
                rs,
                base,
                offset,
                lat,
            } => FusedOp::St {
                width,
                rs,
                base,
                offset,
                lat,
            },
            DecodedInst::MovImm { rd, imm } => FusedOp::MovImm { rd, imm },
            DecodedInst::Mov { rd, ra } => FusedOp::Mov { rd, ra },
            DecodedInst::BranchRR {
                cond,
                ra,
                rb,
                target,
            } => {
                debug_assert_eq!(pc, end - 1, "branch must terminate its block");
                let (expect_taken, exit_pc) = branch_fusion(target, pc, end, n, last_in_chain);
                FusedOp::BranchRR {
                    cond,
                    ra,
                    rb,
                    pc: pc32,
                    exit_pc,
                    exit,
                    expect_taken,
                }
            }
            DecodedInst::BranchRI {
                cond,
                ra,
                imm,
                target,
            } => {
                debug_assert_eq!(pc, end - 1, "branch must terminate its block");
                let (expect_taken, exit_pc) = branch_fusion(target, pc, end, n, last_in_chain);
                FusedOp::BranchRI {
                    cond,
                    ra,
                    imm,
                    pc: pc32,
                    exit_pc,
                    exit,
                    expect_taken,
                }
            }
            DecodedInst::Jump { target } => {
                if last_in_chain {
                    FusedOp::JumpExit {
                        target: target as u32,
                    }
                } else {
                    // The chain's next block is the jump target by
                    // construction: the jump reduces to pure timing.
                    FusedOp::JumpFused
                }
            }
            DecodedInst::BranchMemoHit { target } => {
                let expect_hit = !last_in_chain && target < n;
                let exit_pc = if expect_hit {
                    end as u32
                } else {
                    target as u32
                };
                FusedOp::MemoBranchHit {
                    exit_pc,
                    exit,
                    expect_hit,
                }
            }
            DecodedInst::MemoLdCrc {
                width,
                rd,
                base,
                offset,
                lut,
                trunc,
                beat,
            } => FusedOp::MemoLdCrc {
                width,
                rd,
                base,
                offset,
                lut,
                trunc,
                beat,
                pc: pc32,
            },
            DecodedInst::MemoRegCrc {
                width,
                src,
                mask,
                lut,
                trunc,
                beat,
            } => FusedOp::MemoRegCrc {
                width,
                src,
                mask,
                lut,
                trunc,
                beat,
                pc: pc32,
            },
            DecodedInst::MemoLookup { rd, lut } => FusedOp::MemoLookup { rd, lut, pc: pc32 },
            DecodedInst::MemoUpdate { src, lut } => FusedOp::MemoUpdate { src, lut, pc: pc32 },
            DecodedInst::MemoInvalidate { lut } => FusedOp::MemoInvalidate { lut, pc: pc32 },
            DecodedInst::Halt => FusedOp::Halt,
            DecodedInst::Region => unreachable!("handled above"),
        };
        ops.push(fused);
    }
}

impl Simulator {
    /// The threaded-dispatch interpreter: executes fused superblocks.
    /// Every observable — `RunStats`, error values, telemetry event
    /// streams, fault-injector draws — matches `run_legacy` exactly;
    /// equivalence tests pin this.
    pub(crate) fn run_threaded(
        &mut self,
        tp: &ThreadedProgram,
        machine: &mut Machine,
    ) -> Result<RunStats, SimError> {
        // Specialize the hot loop on whether a watchdog is armed: with
        // both limits at `u64::MAX` the per-op guard can never fire
        // (`dyn_insts` cannot reach 2^64 in any real run and a cycle
        // count cannot exceed `u64::MAX`), so the unarmed variant
        // compiles the check out entirely while staying exact.
        if self.config.max_insts == u64::MAX && self.config.max_cycles == u64::MAX {
            self.run_threaded_impl::<false>(tp, machine)
        } else {
            self.run_threaded_impl::<true>(tp, machine)
        }
    }

    fn run_threaded_impl<const WATCHDOG: bool>(
        &mut self,
        tp: &ThreadedProgram,
        machine: &mut Machine,
    ) -> Result<RunStats, SimError> {
        let lat = self.config.latency;
        let mut pipe = Pipeline::new();
        let mut predictor = self.config.predictor.map(BranchPredictor::new);
        let mut stats = RunStats::default();
        let mut classes = InstClassCounts::default();
        // Cache statistics accumulate across runs; snapshot for deltas.
        let l1d_before = self.cache.l1d_stats();
        let l2_before = self.cache.l2_stats();
        let tid = ThreadId(0);
        // Per-LUT cycle when the CRC unit finishes the queued beats.
        let mut crc_ready = [0u64; MAX_LUTS];
        // Queue capacity in cycles of backlog (1 byte ≈ 1 cycle).
        let queue_capacity: u64 = self
            .config
            .memo
            .as_ref()
            .map(|m| m.input_queue_depth as u64 * 8)
            .unwrap_or(0);
        // Config-dependent LUT charging, hoisted out of the loop.
        let has_l2_lut = self
            .memo
            .as_ref()
            .is_some_and(|u| u.config().l2_bytes.is_some());
        let ecc = self
            .memo
            .as_ref()
            .is_some_and(|u| u.config().faults.protection == Protection::EccProtected);
        let max_insts = self.config.max_insts;
        let max_cycles = self.config.max_cycles;
        let taken_bubble = lat.taken_branch_bubble;
        let mut dyn_insts = 0u64;
        let mut pc = 0usize;
        // Profiler plumbing: with profiling on, each superblock retire
        // attributes its cycle/instruction deltas to the superblock's pc
        // range. The `dispatch.threaded` leaf is charged once, at the
        // end of the run (see below).
        let prof_on = self.telemetry.profiler().is_enabled();
        if prof_on {
            self.telemetry.profiler_mut().begin_blocks(&tp.ranges);
        }
        self.telemetry.profiler_mut().enter(PhaseId::Dispatch);

        'run: loop {
            let Some(&sb_idx) = tp.block_of.get(pc) else {
                return Err(SimError::PcOutOfRange { pc });
            };
            let sb = &tp.superblocks[sb_idx as usize];
            debug_assert_eq!(
                sb.entry_pc as usize, pc,
                "control transfer into the middle of a superblock"
            );
            let (sb_cycle0, sb_inst0) = if prof_on {
                (pipe.now(), dyn_insts)
            } else {
                (0, 0)
            };
            let mut next_pc = sb.fall_pc as usize;
            let mut exit = sb.total_exit;
            for op in &tp.ops[sb.ops_start as usize..sb.ops_end as usize] {
                // Same per-dynamic-instruction guard order as the other
                // tiers, so watchdog trip points match bit for bit.
                if WATCHDOG && ((dyn_insts >= max_insts) | (pipe.now() > max_cycles)) {
                    if dyn_insts >= max_insts {
                        return Err(SimError::InstLimit { limit: max_insts });
                    }
                    return Err(SimError::CycleLimit { limit: max_cycles });
                }
                match *op {
                    FusedOp::Guard => {
                        continue; // stands in for a run of region markers
                    }
                    FusedOp::Halt => {
                        dyn_insts += 1;
                        stats.apply_block(&mut classes, &tp.exit_counts[sb.total_exit as usize]);
                        if prof_on {
                            let cyc = pipe.now().saturating_sub(sb_cycle0);
                            self.telemetry.profiler_mut().block_retire(
                                sb_idx as usize,
                                cyc,
                                dyn_insts - sb_inst0,
                            );
                        }
                        break 'run;
                    }
                    FusedOp::AluRR {
                        op,
                        rd,
                        ra,
                        rb,
                        lat,
                    } => {
                        let v = ialu_simple(op, machine.reg(ra), machine.reg(rb));
                        machine.set_reg(rd, v);
                        let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                        pipe.issue_int(e, rd, lat);
                    }
                    FusedOp::AluRI {
                        op,
                        rd,
                        ra,
                        imm,
                        lat,
                    } => {
                        let v = ialu_simple(op, machine.reg(ra), imm);
                        machine.set_reg(rd, v);
                        pipe.issue_int(pipe.src_ready(ra), rd, lat);
                    }
                    FusedOp::MulRR { rd, ra, rb, lat } => {
                        let v = machine.reg(ra).wrapping_mul(machine.reg(rb));
                        machine.set_reg(rd, v);
                        let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                        pipe.issue_mul(e, rd, lat);
                    }
                    FusedOp::MulRI { rd, ra, imm, lat } => {
                        let v = machine.reg(ra).wrapping_mul(imm);
                        machine.set_reg(rd, v);
                        pipe.issue_mul(pipe.src_ready(ra), rd, lat);
                    }
                    FusedOp::DivRR {
                        op,
                        rd,
                        ra,
                        rb,
                        lat,
                        pc: at,
                    } => {
                        let a = machine.reg(ra);
                        let b = machine.reg(rb);
                        let v = ialu(op, a, b).ok_or(SimError::DivByZero { pc: at as usize })?;
                        machine.set_reg(rd, v);
                        let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                        pipe.issue_div(e, rd, lat);
                    }
                    FusedOp::DivRI {
                        op,
                        rd,
                        ra,
                        imm,
                        lat,
                        pc: at,
                    } => {
                        let a = machine.reg(ra);
                        let v = ialu(op, a, imm).ok_or(SimError::DivByZero { pc: at as usize })?;
                        machine.set_reg(rd, v);
                        pipe.issue_div(pipe.src_ready(ra), rd, lat);
                    }
                    FusedOp::FBinP {
                        op,
                        rd,
                        ra,
                        rb,
                        lat,
                    } => {
                        let v = fbin(op, machine.reg_f32(ra), machine.reg_f32(rb));
                        machine.set_reg_f32(rd, v);
                        let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                        pipe.issue_fp(e, rd, lat);
                    }
                    FusedOp::FBinLong { rd, ra, rb, lat } => {
                        let v = machine.reg_f32(ra) / machine.reg_f32(rb);
                        machine.set_reg_f32(rd, v);
                        let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                        pipe.issue_fp_long(e, rd, lat);
                    }
                    FusedOp::FUnP { op, rd, ra, lat } => {
                        let v = funop(op, machine.reg(ra));
                        machine.set_reg(rd, v);
                        pipe.issue_fp(pipe.src_ready(ra), rd, lat);
                    }
                    FusedOp::FUnLong { op, rd, ra, lat } => {
                        let v = funop(op, machine.reg(ra));
                        machine.set_reg(rd, v);
                        pipe.issue_fp_long(pipe.src_ready(ra), rd, lat);
                    }
                    FusedOp::Ld {
                        width,
                        rd,
                        base,
                        offset,
                    } => {
                        let addr = machine.reg(base).wrapping_add_signed(offset.into());
                        let v = machine.load(addr, width)?;
                        machine.set_reg(rd, v);
                        let (mut latency, served) = self.cache.access_served(addr);
                        latency += spike_cycles(&mut self.mem_faults);
                        charge_mem_levels(&mut stats, served);
                        pipe.issue_ldst(pipe.src_ready(base), Some(rd), latency);
                    }
                    FusedOp::St {
                        width,
                        rs,
                        base,
                        offset,
                        lat,
                    } => {
                        let addr = machine.reg(base).wrapping_add_signed(offset.into());
                        machine.store(addr, width, machine.reg(rs))?;
                        let (_, served) = self.cache.access_served(addr);
                        charge_mem_levels(&mut stats, served);
                        let st_latency = lat + spike_cycles(&mut self.mem_faults);
                        let e = pipe.src_ready(rs).max(pipe.src_ready(base));
                        pipe.issue_ldst(e, None, st_latency);
                    }
                    FusedOp::MovImm { rd, imm } => {
                        machine.set_reg(rd, imm);
                        pipe.issue_int(0, rd, 1);
                    }
                    FusedOp::Mov { rd, ra } => {
                        machine.set_reg(rd, machine.reg(ra));
                        pipe.issue_int(pipe.src_ready(ra), rd, 1);
                    }
                    FusedOp::BranchRR {
                        cond,
                        ra,
                        rb,
                        pc: bpc,
                        exit_pc,
                        exit: ex,
                        expect_taken,
                    } => {
                        let taken = cond_taken(cond, machine.reg(ra), machine.reg(rb));
                        let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                        pipe.issue_branch(e);
                        match predictor.as_mut() {
                            Some(bp) => {
                                let stall = bp.resolve(bpc as usize, taken);
                                if stall > 0 {
                                    pipe.branch_bubble(stall);
                                    stats.branch_bubbles += 1;
                                }
                            }
                            None if taken => {
                                pipe.branch_bubble(taken_bubble);
                                stats.branch_bubbles += 1;
                            }
                            None => {}
                        }
                        if taken != expect_taken {
                            dyn_insts += 1;
                            next_pc = exit_pc as usize;
                            exit = ex;
                            break;
                        }
                    }
                    FusedOp::BranchRI {
                        cond,
                        ra,
                        imm,
                        pc: bpc,
                        exit_pc,
                        exit: ex,
                        expect_taken,
                    } => {
                        let taken = cond_taken(cond, machine.reg(ra), imm);
                        pipe.issue_branch(pipe.src_ready(ra));
                        match predictor.as_mut() {
                            Some(bp) => {
                                let stall = bp.resolve(bpc as usize, taken);
                                if stall > 0 {
                                    pipe.branch_bubble(stall);
                                    stats.branch_bubbles += 1;
                                }
                            }
                            None if taken => {
                                pipe.branch_bubble(taken_bubble);
                                stats.branch_bubbles += 1;
                            }
                            None => {}
                        }
                        if taken != expect_taken {
                            dyn_insts += 1;
                            next_pc = exit_pc as usize;
                            exit = ex;
                            break;
                        }
                    }
                    FusedOp::JumpFused => {
                        pipe.issue_branch(0);
                        pipe.branch_bubble(taken_bubble);
                        stats.branch_bubbles += 1;
                    }
                    FusedOp::JumpExit { target } => {
                        pipe.issue_branch(0);
                        pipe.branch_bubble(taken_bubble);
                        stats.branch_bubbles += 1;
                        dyn_insts += 1;
                        next_pc = target as usize;
                        break; // `exit` already holds the chain total
                    }
                    FusedOp::MemoBranchHit {
                        exit_pc,
                        exit: ex,
                        expect_hit,
                    } => {
                        pipe.issue_branch(0);
                        if machine.memo_hit {
                            pipe.branch_bubble(taken_bubble);
                            stats.branch_bubbles += 1;
                        }
                        if machine.memo_hit != expect_hit {
                            dyn_insts += 1;
                            next_pc = exit_pc as usize;
                            exit = ex;
                            break;
                        }
                    }
                    FusedOp::MemoLdCrc {
                        width,
                        rd,
                        base,
                        offset,
                        lut,
                        trunc,
                        beat,
                        pc: at_pc,
                    } => {
                        let unit = self
                            .memo
                            .as_mut()
                            .ok_or(SimError::NoMemoUnit { pc: at_pc as usize })?;
                        let addr = machine.reg(base).wrapping_add_signed(offset.into());
                        let raw = machine.load(addr, width)?;
                        machine.set_reg(rd, raw);
                        let (mut latency, served) = self.cache.access_served(addr);
                        latency += spike_cycles(&mut self.mem_faults);
                        charge_mem_levels(&mut stats, served);
                        let backlog = crc_ready[lut.index()];
                        let not_before = backlog.saturating_sub(queue_capacity);
                        let at = pipe.issue(&[base], Some(rd), FuClass::LdSt, latency, not_before);
                        self.telemetry.set_cycle(at);
                        unit.feed_tel(
                            lut,
                            tid,
                            input_value(width, raw),
                            trunc,
                            &mut self.telemetry,
                        );
                        crc_ready[lut.index()] = crc_ready[lut.index()].max(at + latency) + beat;
                        if not_before > at {
                            stats.memo_stall_cycles += not_before - at;
                        }
                    }
                    FusedOp::MemoRegCrc {
                        width,
                        src,
                        mask,
                        lut,
                        trunc,
                        beat,
                        pc: at_pc,
                    } => {
                        let unit = self
                            .memo
                            .as_mut()
                            .ok_or(SimError::NoMemoUnit { pc: at_pc as usize })?;
                        let raw = machine.reg(src) & mask;
                        let backlog = crc_ready[lut.index()];
                        let not_before = backlog.saturating_sub(queue_capacity);
                        let at = pipe.issue(&[src], None, FuClass::Memo, 1, not_before);
                        self.telemetry.set_cycle(at);
                        unit.feed_tel(
                            lut,
                            tid,
                            input_value(width, raw),
                            trunc,
                            &mut self.telemetry,
                        );
                        crc_ready[lut.index()] = crc_ready[lut.index()].max(at + 1) + beat;
                    }
                    FusedOp::MemoLookup { rd, lut, pc: at_pc } => {
                        let unit = self
                            .memo
                            .as_mut()
                            .ok_or(SimError::NoMemoUnit { pc: at_pc as usize })?;
                        // lookup waits for the CRC pipeline to drain (§3.4).
                        let not_before = crc_ready[lut.index()];
                        self.telemetry.set_cycle(pipe.now().max(not_before));
                        let result = unit.lookup_tel(lut, tid, &mut self.telemetry);
                        let latency = unit.lookup_cycles(&result);
                        let before = pipe.now();
                        pipe.issue(&[], Some(rd), FuClass::Memo, latency, not_before);
                        stats.memo_stall_cycles += not_before.saturating_sub(before.max(1)) / 2;
                        let mut lut_accesses = 1;
                        if has_l2_lut
                            && !matches!(
                                result,
                                LookupResult::Hit {
                                    level: axmemo_core::two_level::HitLevel::L1,
                                    ..
                                }
                            )
                        {
                            stats.energy.l2_lut_accesses += 1;
                            lut_accesses += 1;
                        }
                        if ecc {
                            stats.energy.ecc_checks += lut_accesses;
                        }
                        match result {
                            LookupResult::Hit { data, .. } => {
                                machine.set_reg(rd, data);
                                machine.memo_hit = true;
                            }
                            _ => {
                                machine.memo_hit = false;
                            }
                        }
                    }
                    FusedOp::MemoUpdate {
                        src,
                        lut,
                        pc: at_pc,
                    } => {
                        let unit = self
                            .memo
                            .as_mut()
                            .ok_or(SimError::NoMemoUnit { pc: at_pc as usize })?;
                        let data = machine.reg(src);
                        self.telemetry.set_cycle(pipe.now());
                        let cycles = unit.update_tel(lut, tid, data, &mut self.telemetry);
                        pipe.issue(&[src], None, FuClass::Memo, cycles, 0);
                        let mut lut_accesses = 1;
                        if has_l2_lut {
                            stats.energy.l2_lut_accesses += 1;
                            lut_accesses += 1;
                        }
                        if ecc {
                            stats.energy.ecc_checks += lut_accesses;
                        }
                    }
                    FusedOp::MemoInvalidate { lut, pc: at_pc } => {
                        let unit = self
                            .memo
                            .as_mut()
                            .ok_or(SimError::NoMemoUnit { pc: at_pc as usize })?;
                        self.telemetry.set_cycle(pipe.now());
                        let cycles = unit.invalidate_tel(lut, &mut self.telemetry);
                        pipe.issue(&[], None, FuClass::Memo, cycles, 0);
                    }
                }
                dyn_insts += 1;
            }
            stats.apply_block(&mut classes, &tp.exit_counts[exit as usize]);
            if prof_on {
                let cyc = pipe.now().saturating_sub(sb_cycle0);
                self.telemetry.profiler_mut().block_retire(
                    sb_idx as usize,
                    cyc,
                    dyn_insts - sb_inst0,
                );
            }
            pc = next_pc;
        }

        stats.dynamic_insts = dyn_insts;
        stats.energy.instructions = dyn_insts;
        stats.cycles = pipe.drain();
        // Every pipeline cycle advances inside a superblock, so the
        // fused chains retired `pipe.now()` cycles in total; the
        // `dispatch.threaded` leaf takes whatever share of them the LUT
        // leaves did not claim, and Dispatch keeps the final drain.
        // Settling once per run keeps the leaves summing exactly to
        // `stats.cycles`: LUT charges can overrun the cycle delta of
        // the superblock that issued them (modelled unit latency
        // overlapping pipeline time), and a per-superblock charge
        // would have to be clamped at zero there, over-attributing.
        let prof = self.telemetry.profiler_mut();
        if prof_on {
            let lut_cycles = prof.open_charged();
            prof.leaf(
                PhaseId::DispatchThreaded,
                pipe.now().saturating_sub(lut_cycles),
            );
        }
        prof.exit_cycles(stats.cycles);
        if let Some(unit) = self.memo.as_ref() {
            stats.energy.quality_compares = unit.stats().sampled_misses;
        }
        let predictor_stats = predictor.as_ref().map(|bp| bp.stats());
        self.flush_run_telemetry(&stats, &classes, predictor_stats, l1d_before, l2_before);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cpu::{DispatchTier, SimConfig};
    use crate::ir::{Operand, Program};

    fn run_tier(p: &Program, dispatch: DispatchTier) -> Result<(RunStats, [u64; 32]), SimError> {
        let cfg = SimConfig {
            dispatch,
            ..SimConfig::baseline()
        };
        let mut sim = Simulator::new(cfg).unwrap();
        let mut m = Machine::new(64 * 1024);
        let stats = sim.run(p, &mut m)?;
        Ok((stats, m.regs))
    }

    fn assert_tiers_agree(p: &Program) {
        let reference = run_tier(p, DispatchTier::Legacy);
        assert_eq!(run_tier(p, DispatchTier::Threaded), reference);
    }

    #[test]
    fn unrolled_loop_matches_reference() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 1000);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        assert_tiers_agree(&b.build().unwrap());
    }

    #[test]
    fn side_exit_on_forward_branch_taken() {
        // The forward branch is fused not-taken but IS taken on some
        // iterations: every taken instance side-exits mid-superblock.
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 100).movi(3, 0);
        let top = b.label("top");
        let skip = b.label("skip");
        b.bind(top);
        b.alu(IAluOp::And, 4, 1, Operand::Imm(1));
        b.branch(Cond::Ne, 4, Operand::Imm(0), skip);
        b.alu(IAluOp::Add, 3, 3, Operand::Imm(7));
        b.bind(skip);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        assert_tiers_agree(&b.build().unwrap());
    }

    #[test]
    fn loop_exit_side_exits_the_unrolled_chain() {
        // A backward branch fused taken exits the chain exactly once,
        // on the final iteration — the not-taken side exit.
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 7); // 7 iterations: mid-chain exit
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.alu(IAluOp::Add, 5, 1, Operand::Imm(100));
        b.halt();
        assert_tiers_agree(&b.build().unwrap());
    }

    #[test]
    fn div_by_zero_mid_chain_reports_original_pc() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 10).movi(2, 0);
        b.alu(IAluOp::Div, 3, 1, Operand::Reg(2));
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(
            run_tier(&p, DispatchTier::Threaded),
            Err(SimError::DivByZero { pc: 2 })
        );
        assert_eq!(
            run_tier(&p, DispatchTier::Legacy),
            Err(SimError::DivByZero { pc: 2 })
        );
    }

    #[test]
    fn trailing_region_markers_keep_watchdog_semantics() {
        // A region marker after the last counted instruction: the
        // InstLimit trip must fire at the marker's guard check in every
        // tier (not fall off the end as PcOutOfRange).
        let mut b = ProgramBuilder::new();
        b.movi(1, 1);
        b.region_begin(1);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.region_end(1);
        b.halt();
        let p = b.build().unwrap();
        for max_insts in [0, 1, 2, 3] {
            let run = |dispatch: DispatchTier| {
                let cfg = SimConfig {
                    dispatch,
                    max_insts,
                    ..SimConfig::baseline()
                };
                let mut sim = Simulator::new(cfg).unwrap();
                let mut m = Machine::new(64);
                sim.run(&p, &mut m)
            };
            let reference = run(DispatchTier::Legacy);
            assert_eq!(run(DispatchTier::Threaded), reference, "insts {max_insts}");
        }
    }

    #[test]
    fn jump_to_out_of_range_target_matches_reference() {
        let p = Program {
            insts: vec![crate::ir::Inst::Jump { target: 9 }],
        };
        let r = run_tier(&p, DispatchTier::Threaded);
        assert_eq!(r, run_tier(&p, DispatchTier::Legacy));
        assert_eq!(r, Err(SimError::PcOutOfRange { pc: 9 }));
    }

    #[test]
    fn lowering_fuses_backward_branches_and_unrolls() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(100), top);
        b.halt();
        let p = b.build().unwrap();
        let dp = DecodedProgram::compile(&p, &LatencyModel::default());
        let tp = ThreadedProgram::compile(&dp);
        assert_eq!(tp.superblock_count(), dp.block_count());
        // Unrolling multiplies the op count well past the static count.
        assert!(tp.op_count() > 4 * dp.len(), "ops {}", tp.op_count());
        // The loop-body superblock's branches are all fused-taken
        // except the last (chain-ending) copy.
        let sb = &tp.superblocks[1];
        let branches: Vec<bool> = tp.ops[sb.ops_start as usize..sb.ops_end as usize]
            .iter()
            .filter_map(|op| match *op {
                FusedOp::BranchRI { expect_taken, .. } => Some(expect_taken),
                _ => None,
            })
            .collect();
        assert!(branches.len() > 8);
        assert!(branches[..branches.len() - 1].iter().all(|&t| t));
        assert!(!branches[branches.len() - 1]);
    }

    #[test]
    fn predictor_equivalence_across_tiers() {
        use crate::predictor::PredictorConfig;
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 300);
        let top = b.label("top");
        let skip = b.label("skip");
        b.bind(top);
        b.alu(IAluOp::And, 4, 1, Operand::Imm(3));
        b.branch(Cond::Ne, 4, Operand::Imm(0), skip);
        b.alu(IAluOp::Add, 3, 3, Operand::Imm(1));
        b.bind(skip);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let p = b.build().unwrap();
        let run = |dispatch: DispatchTier| {
            let cfg = SimConfig {
                dispatch,
                predictor: Some(PredictorConfig::default()),
                ..SimConfig::baseline()
            };
            let mut sim = Simulator::new(cfg).unwrap();
            let mut m = Machine::new(64 * 1024);
            let stats = sim.run(&p, &mut m).unwrap();
            (stats, m.regs)
        };
        let reference = run(DispatchTier::Legacy);
        assert_eq!(run(DispatchTier::Threaded), reference);
    }
}
