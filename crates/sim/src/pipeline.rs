//! In-order pipeline timing model.
//!
//! Approximates the ARM "high-performance in-order" (HPI) configuration
//! of Table 3: two-wide in-order issue; per core two integer ALUs, one
//! multiplier, one divider, one FP unit, and one load/store unit. The
//! model is a scoreboard: each dynamic instruction issues at the
//! earliest cycle where (a) an issue slot is free, (b) its source
//! registers are ready, and (c) its functional unit is available.
//! Divides and FP divides/sqrts occupy their unit for the full latency
//! (unpipelined); everything else is fully pipelined. Taken branches
//! insert a fixed front-end bubble.

use crate::ir::{FBinOp, FUnOp, IAluOp, NUM_REGS};

/// Functional-unit classes (Table 3 mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuClass {
    /// Two simple integer ALUs.
    IntAlu,
    /// One integer multiplier (pipelined).
    IntMul,
    /// One integer divider (unpipelined).
    IntDiv,
    /// One FP unit (pipelined for add/mul; div/sqrt/libm unpipelined).
    Fp,
    /// Unpipelined use of the FP unit.
    FpLong,
    /// One load/store unit.
    LdSt,
    /// Branch resolves in the ALU.
    Branch,
    /// Memoization unit port.
    Memo,
}

/// Latency classes for the core's instructions (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Simple ALU ops.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide.
    pub int_div: u64,
    /// FP add/sub/mul/min/max.
    pub fp_op: u64,
    /// FP divide / sqrt.
    pub fp_div: u64,
    /// Fused libm pseudo-ops (exp/log/sin/cos/atan): cost of the
    /// library-call sequence they stand for on an in-order core.
    pub fp_libm: u64,
    /// Store (fire-and-forget into the write buffer).
    pub store: u64,
    /// Taken-branch front-end bubble.
    pub taken_branch_bubble: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            int_alu: 1,
            int_mul: 3,
            int_div: 12,
            fp_op: 4,
            fp_div: 15,
            fp_libm: 45,
            store: 1,
            taken_branch_bubble: 2,
        }
    }
}

impl LatencyModel {
    /// Latency + FU class of an integer ALU op.
    pub fn ialu(&self, op: IAluOp) -> (u64, FuClass) {
        match op {
            IAluOp::Mul => (self.int_mul, FuClass::IntMul),
            IAluOp::Div | IAluOp::Rem => (self.int_div, FuClass::IntDiv),
            _ => (self.int_alu, FuClass::IntAlu),
        }
    }

    /// Latency + FU class of an FP binary op.
    pub fn fbin(&self, op: FBinOp) -> (u64, FuClass) {
        match op {
            FBinOp::Div => (self.fp_div, FuClass::FpLong),
            _ => (self.fp_op, FuClass::Fp),
        }
    }

    /// Latency + FU class of an FP unary op.
    pub fn fun(&self, op: FUnOp) -> (u64, FuClass) {
        match op {
            FUnOp::Sqrt => (self.fp_div, FuClass::FpLong),
            FUnOp::Exp | FUnOp::Log | FUnOp::Sin | FUnOp::Cos | FUnOp::Atan => {
                (self.fp_libm, FuClass::FpLong)
            }
            FUnOp::Neg | FUnOp::Abs => (1, FuClass::Fp),
            FUnOp::Floor | FUnOp::ToInt | FUnOp::FromInt => (self.fp_op, FuClass::Fp),
        }
    }
}

/// Per-cycle issue counters packed into one word so [`Pipeline::issue`]
/// resets them with a single store when the cycle advances. Lane layout
/// (8 bits each — issue width 2 means no lane can overflow):
/// bits 0–7 total issued, 8–15 ALU/branch, 16–23 multiplier,
/// 24–31 FP, 32–39 load/store, 40–47 memo port.
const LANE_TOTAL: u32 = 0;
const LANE_ALU: u32 = 8;
const LANE_MUL: u32 = 16;
const LANE_FP: u32 = 24;
const LANE_LDST: u32 = 32;
const LANE_MEMO: u32 = 40;

/// The issue scoreboard.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Cycle currently being filled with issue slots.
    cycle: u64,
    /// Packed per-cycle issue counts (total + per-FU structural limits);
    /// see the `LANE_*` constants.
    issued: u64,
    /// Cycle each architectural register's value becomes available.
    reg_ready: [u64; NUM_REGS],
    /// Unpipelined units: next cycle they are free.
    div_free: u64,
    fp_long_free: u64,
    /// Issue width.
    width: u64,
}

impl Pipeline {
    /// Fresh two-wide pipeline at cycle 0.
    pub fn new() -> Self {
        Self {
            cycle: 0,
            issued: 0,
            reg_ready: [0; NUM_REGS],
            div_free: 0,
            fp_long_free: 0,
            width: 2,
        }
    }

    /// The cycle the pipeline has reached.
    #[inline]
    pub fn now(&self) -> u64 {
        self.cycle
    }

    #[inline]
    fn advance_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            self.cycle = cycle;
            self.issued = 0;
        }
    }

    #[inline]
    fn fu_slot_full(&self, fu: FuClass) -> bool {
        let lane = |shift: u32| (self.issued >> shift) & 0xff;
        match fu {
            FuClass::IntAlu | FuClass::Branch => lane(LANE_ALU) >= 2,
            FuClass::IntMul => lane(LANE_MUL) >= 1,
            FuClass::IntDiv => false, // availability handled via div_free
            FuClass::Fp | FuClass::FpLong => lane(LANE_FP) >= 1,
            FuClass::LdSt => lane(LANE_LDST) >= 1,
            FuClass::Memo => lane(LANE_MEMO) >= 1,
        }
    }

    #[inline]
    fn count_fu(&mut self, fu: FuClass) {
        self.issued += (1 << LANE_TOTAL)
            + match fu {
                FuClass::IntAlu | FuClass::Branch => 1 << LANE_ALU,
                FuClass::IntMul => 1 << LANE_MUL,
                FuClass::IntDiv => 0,
                FuClass::Fp | FuClass::FpLong => 1 << LANE_FP,
                FuClass::LdSt => 1 << LANE_LDST,
                FuClass::Memo => 1 << LANE_MEMO,
            };
    }

    /// Issue one instruction.
    ///
    /// * `srcs` — source registers that must be ready.
    /// * `dst` — destination register written `latency` cycles later.
    /// * `fu` — functional unit consumed.
    /// * `not_before` — external earliest-issue constraint (memoization
    ///   ordering, queue backpressure).
    ///
    /// Returns the cycle the instruction issued at.
    #[inline(always)]
    pub fn issue(
        &mut self,
        srcs: &[u8],
        dst: Option<u8>,
        fu: FuClass,
        latency: u64,
        not_before: u64,
    ) -> u64 {
        // Earliest cycle sources are ready. Register ids are masked to
        // NUM_REGS (callers pass architectural indices, which the IR
        // validates); the mask lets the compiler elide bounds checks.
        let mut earliest = not_before.max(self.cycle);
        for &s in srcs {
            earliest = earliest.max(self.reg_ready[s as usize & (NUM_REGS - 1)]);
        }
        match fu {
            FuClass::IntDiv => earliest = earliest.max(self.div_free),
            FuClass::FpLong => earliest = earliest.max(self.fp_long_free),
            _ => {}
        }
        self.advance_to(earliest);
        // Find a cycle with a free issue slot and FU port.
        while (self.issued & 0xff) >= self.width || self.fu_slot_full(fu) {
            let next = self.cycle + 1;
            self.advance_to(next);
        }
        let at = self.cycle;
        self.count_fu(fu);
        if let Some(d) = dst {
            self.reg_ready[d as usize & (NUM_REGS - 1)] = at + latency;
        }
        match fu {
            FuClass::IntDiv => self.div_free = at + latency,
            FuClass::FpLong => self.fp_long_free = at + latency,
            _ => {}
        }
        at
    }

    // ---- Specialized issue paths for the threaded tier ----
    //
    // `FusedOp` bakes the FU class into the variant, so the threaded
    // interpreter calls one of the monomorphic helpers below instead of
    // the generic `issue`: the FU-class match, slot predicate, and lane
    // increment all constant-fold per call site. Each helper is
    // behaviour-identical to `issue` with the corresponding `FuClass`
    // (pinned by the `specialized_issue_matches_generic` test); callers
    // compute the source-readiness max themselves via `src_ready`.

    /// Cycle register `r`'s value becomes available (masked index,
    /// matching [`Pipeline::issue`]'s source handling).
    #[inline(always)]
    pub(crate) fn src_ready(&self, r: u8) -> u64 {
        self.reg_ready[r as usize & (NUM_REGS - 1)]
    }

    /// Claim an issue slot no earlier than `earliest` on the FU lane at
    /// bit `SHIFT` with per-cycle port capacity `CAP`.
    #[inline(always)]
    fn issue_slot<const SHIFT: u32, const CAP: u64>(&mut self, earliest: u64) -> u64 {
        self.advance_to(earliest);
        while (self.issued & 0xff) >= self.width || ((self.issued >> SHIFT) & 0xff) >= CAP {
            let next = self.cycle + 1;
            self.advance_to(next);
        }
        let at = self.cycle;
        self.issued += (1 << LANE_TOTAL) + (1 << SHIFT);
        at
    }

    /// `issue(&[..], Some(rd), FuClass::IntAlu, latency, 0)` with the
    /// source max precomputed into `earliest`.
    #[inline(always)]
    pub(crate) fn issue_int(&mut self, earliest: u64, rd: u8, latency: u64) {
        let at = self.issue_slot::<LANE_ALU, 2>(earliest);
        self.reg_ready[rd as usize & (NUM_REGS - 1)] = at + latency;
    }

    /// `issue(&[..], None, FuClass::Branch, 1, 0)`.
    #[inline(always)]
    pub(crate) fn issue_branch(&mut self, earliest: u64) {
        self.issue_slot::<LANE_ALU, 2>(earliest);
    }

    /// `issue(&[..], Some(rd), FuClass::IntMul, latency, 0)`.
    #[inline(always)]
    pub(crate) fn issue_mul(&mut self, earliest: u64, rd: u8, latency: u64) {
        let at = self.issue_slot::<LANE_MUL, 1>(earliest);
        self.reg_ready[rd as usize & (NUM_REGS - 1)] = at + latency;
    }

    /// `issue(&[..], Some(rd), FuClass::IntDiv, latency, 0)`: no FU
    /// lane — the unpipelined divider serialises through `div_free`.
    #[inline(always)]
    pub(crate) fn issue_div(&mut self, earliest: u64, rd: u8, latency: u64) {
        self.advance_to(earliest.max(self.div_free));
        while (self.issued & 0xff) >= self.width {
            let next = self.cycle + 1;
            self.advance_to(next);
        }
        let at = self.cycle;
        self.issued += 1 << LANE_TOTAL;
        self.reg_ready[rd as usize & (NUM_REGS - 1)] = at + latency;
        self.div_free = at + latency;
    }

    /// `issue(&[..], Some(rd), FuClass::Fp, latency, 0)`.
    #[inline(always)]
    pub(crate) fn issue_fp(&mut self, earliest: u64, rd: u8, latency: u64) {
        let at = self.issue_slot::<LANE_FP, 1>(earliest);
        self.reg_ready[rd as usize & (NUM_REGS - 1)] = at + latency;
    }

    /// `issue(&[..], Some(rd), FuClass::FpLong, latency, 0)`: shares
    /// the FP port and additionally occupies it for the full latency.
    #[inline(always)]
    pub(crate) fn issue_fp_long(&mut self, earliest: u64, rd: u8, latency: u64) {
        let at = self.issue_slot::<LANE_FP, 1>(earliest.max(self.fp_long_free));
        self.reg_ready[rd as usize & (NUM_REGS - 1)] = at + latency;
        self.fp_long_free = at + latency;
    }

    /// `issue(&[..], dst, FuClass::LdSt, latency, 0)`.
    #[inline(always)]
    pub(crate) fn issue_ldst(&mut self, earliest: u64, dst: Option<u8>, latency: u64) {
        let at = self.issue_slot::<LANE_LDST, 1>(earliest);
        if let Some(d) = dst {
            self.reg_ready[d as usize & (NUM_REGS - 1)] = at + latency;
        }
    }

    /// Charge a taken-branch bubble: the front end refills.
    #[inline]
    pub fn branch_bubble(&mut self, bubble: u64) {
        let next = self.cycle + 1 + bubble;
        self.advance_to(next);
    }

    /// Final cycle count: when every written register is ready.
    pub fn drain(&self) -> u64 {
        let mut end = self.cycle + 1;
        for &r in &self.reg_ready {
            end = end.max(r);
        }
        end
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_issue_packs_two_per_cycle() {
        let mut p = Pipeline::new();
        let c0 = p.issue(&[], Some(1), FuClass::IntAlu, 1, 0);
        let c1 = p.issue(&[], Some(2), FuClass::IntAlu, 1, 0);
        let c2 = p.issue(&[], Some(3), FuClass::IntAlu, 1, 0);
        assert_eq!(c0, 0);
        assert_eq!(c1, 0);
        assert_eq!(c2, 1); // third op spills to the next cycle
    }

    #[test]
    fn raw_dependency_stalls() {
        let mut p = Pipeline::new();
        p.issue(&[], Some(1), FuClass::Fp, 4, 0); // r1 ready at 4
        let c = p.issue(&[1], Some(2), FuClass::IntAlu, 1, 0);
        assert_eq!(c, 4);
    }

    #[test]
    fn single_fp_port_serialises_fp_ops() {
        let mut p = Pipeline::new();
        let a = p.issue(&[], Some(1), FuClass::Fp, 4, 0);
        let b = p.issue(&[], Some(2), FuClass::Fp, 4, 0);
        assert_eq!(a, 0);
        assert_eq!(b, 1); // pipelined but one port
    }

    #[test]
    fn unpipelined_divider_blocks() {
        let mut p = Pipeline::new();
        let a = p.issue(&[], Some(1), FuClass::IntDiv, 12, 0);
        let b = p.issue(&[], Some(2), FuClass::IntDiv, 12, 0);
        assert_eq!(a, 0);
        assert_eq!(b, 12);
    }

    #[test]
    fn not_before_constraint_respected() {
        let mut p = Pipeline::new();
        let c = p.issue(&[], None, FuClass::Memo, 2, 50);
        assert_eq!(c, 50);
    }

    #[test]
    fn taken_branch_inserts_bubble() {
        let mut p = Pipeline::new();
        p.issue(&[], None, FuClass::Branch, 1, 0);
        p.branch_bubble(2);
        let c = p.issue(&[], Some(1), FuClass::IntAlu, 1, 0);
        assert_eq!(c, 3);
    }

    #[test]
    fn drain_covers_inflight_latency() {
        let mut p = Pipeline::new();
        p.issue(&[], Some(1), FuClass::FpLong, 45, 0);
        assert!(p.drain() >= 45);
    }

    #[test]
    fn specialized_issue_matches_generic() {
        // Drive a generic-issue pipeline and a specialized-issue
        // pipeline through the same mixed sequence; every observable
        // (now, drain, per-op issue interleavings via shared state)
        // must agree cycle-for-cycle.
        let mut g = Pipeline::new();
        let mut s = Pipeline::new();
        let seq: [(FuClass, u8, [u8; 2], u64); 12] = [
            (FuClass::IntAlu, 1, [0, 0], 1),
            (FuClass::IntAlu, 2, [1, 1], 1),
            (FuClass::IntMul, 3, [1, 2], 3),
            (FuClass::IntDiv, 4, [3, 2], 12),
            (FuClass::IntDiv, 5, [4, 1], 12),
            (FuClass::Fp, 6, [5, 5], 4),
            (FuClass::FpLong, 7, [6, 6], 15),
            (FuClass::Fp, 8, [7, 7], 4),
            (FuClass::LdSt, 9, [8, 8], 3),
            (FuClass::Branch, 0, [9, 9], 1),
            (FuClass::IntAlu, 10, [9, 9], 1),
            (FuClass::LdSt, 0, [10, 10], 1),
        ];
        for &(fu, rd, srcs, lat) in &seq {
            let dst = (rd != 0).then_some(rd);
            g.issue(&srcs, dst, fu, lat, 0);
            let e = s.src_ready(srcs[0]).max(s.src_ready(srcs[1]));
            match fu {
                FuClass::IntAlu => s.issue_int(e, rd, lat),
                FuClass::IntMul => s.issue_mul(e, rd, lat),
                FuClass::IntDiv => s.issue_div(e, rd, lat),
                FuClass::Fp => s.issue_fp(e, rd, lat),
                FuClass::FpLong => s.issue_fp_long(e, rd, lat),
                FuClass::LdSt => s.issue_ldst(e, dst, lat),
                FuClass::Branch => s.issue_branch(e),
                FuClass::Memo => unreachable!(),
            }
            assert_eq!(g.now(), s.now());
        }
        assert_eq!(g.drain(), s.drain());
        assert_eq!(g.reg_ready, s.reg_ready);
    }

    #[test]
    fn latency_model_dispatch() {
        let m = LatencyModel::default();
        assert_eq!(m.ialu(IAluOp::Add), (1, FuClass::IntAlu));
        assert_eq!(m.ialu(IAluOp::Div), (12, FuClass::IntDiv));
        assert_eq!(m.fbin(FBinOp::Div), (15, FuClass::FpLong));
        assert_eq!(m.fun(FUnOp::Exp), (45, FuClass::FpLong));
        assert_eq!(m.fun(FUnOp::Neg), (1, FuClass::Fp));
    }
}
