//! Run statistics: dynamic instruction counts, cycles, and the energy
//! event breakdown consumed by [`crate::energy::EnergyModel`].
//!
//! The batched-counter machinery lives here too: the threaded
//! interpreter accumulates each basic block's input-independent counts
//! once at decode time (`crate::decoded::BlockCounts`) and folds them
//! into a run's statistics in one shot at superblock exit via
//! `RunStats::apply_block`.

use crate::decoded::BlockCounts;

/// Counts of energy-bearing events during one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyBreakdown {
    /// All committed dynamic instructions (per-instruction overhead).
    pub instructions: u64,
    /// Integer ALU executes.
    pub int_alu_ops: u64,
    /// Integer multiplies.
    pub int_mul_ops: u64,
    /// Integer divides/remainders.
    pub int_div_ops: u64,
    /// FP add/sub/mul/min/max executes.
    pub fp_ops: u64,
    /// FP divide/sqrt executes.
    pub fp_div_ops: u64,
    /// Fused libm pseudo-op executes.
    pub fp_libm_ops: u64,
    /// L1D accesses (loads + stores).
    pub l1d_accesses: u64,
    /// L2 accesses (L1D misses).
    pub l2_accesses: u64,
    /// DRAM accesses (L2 misses).
    pub dram_accesses: u64,
    /// CRC unit 4-byte beats.
    pub crc_beats: u64,
    /// Hash Value Register accesses.
    pub hvr_accesses: u64,
    /// L1 LUT probes/updates.
    pub l1_lut_accesses: u64,
    /// L2 LUT probes/updates.
    pub l2_lut_accesses: u64,
    /// Quality-monitor comparisons.
    pub quality_compares: u64,
    /// ECC parity/SECDED checks on protected LUT arrays.
    pub ecc_checks: u64,
}

/// Complete statistics for one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed dynamic instructions (markers excluded).
    pub dynamic_insts: u64,
    /// Of which: AxMemo extension instructions plus the memo-hit branch
    /// (the black bars of Fig. 8). `ld_crc` counts as a *normal*
    /// instruction per the paper ("we consider ldr_crc ... as a normal
    /// instruction because they simply substitute the original load").
    pub memo_insts: u64,
    /// Energy event counters.
    pub energy: EnergyBreakdown,
    /// Cycles lost to memoization-unit ordering/queue stalls.
    pub memo_stall_cycles: u64,
    /// Taken-branch bubbles.
    pub branch_bubbles: u64,
}

impl EnergyBreakdown {
    /// Field-wise accumulation of another breakdown into this one.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.instructions += other.instructions;
        self.int_alu_ops += other.int_alu_ops;
        self.int_mul_ops += other.int_mul_ops;
        self.int_div_ops += other.int_div_ops;
        self.fp_ops += other.fp_ops;
        self.fp_div_ops += other.fp_div_ops;
        self.fp_libm_ops += other.fp_libm_ops;
        self.l1d_accesses += other.l1d_accesses;
        self.l2_accesses += other.l2_accesses;
        self.dram_accesses += other.dram_accesses;
        self.crc_beats += other.crc_beats;
        self.hvr_accesses += other.hvr_accesses;
        self.l1_lut_accesses += other.l1_lut_accesses;
        self.l2_lut_accesses += other.l2_lut_accesses;
        self.quality_compares += other.quality_compares;
        self.ecc_checks += other.ecc_checks;
    }
}

/// Dynamic instruction counts by class, flushed to telemetry at the end
/// of a run (locals in the hot loop; no registry lookups per commit).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InstClassCounts {
    pub ialu: u64,
    pub fbin: u64,
    pub fun: u64,
    pub load: u64,
    pub store: u64,
    pub mov: u64,
    pub branch: u64,
    pub jump: u64,
    pub memo: u64,
}

impl RunStats {
    /// Add one retired basic block's (or fused superblock prefix's)
    /// input-independent counts (see [`BlockCounts`]) into the run's
    /// statistics.
    #[inline]
    pub(crate) fn apply_block(&mut self, classes: &mut InstClassCounts, c: &BlockCounts) {
        classes.ialu += c.ialu;
        classes.fbin += c.fbin;
        classes.fun += c.fun;
        classes.load += c.load;
        classes.store += c.store;
        classes.mov += c.mov;
        classes.branch += c.branch;
        classes.jump += c.jump;
        classes.memo += c.memo;
        self.memo_insts += c.memo_insts;
        self.energy.int_alu_ops += c.int_alu_ops;
        self.energy.int_mul_ops += c.int_mul_ops;
        self.energy.int_div_ops += c.int_div_ops;
        self.energy.fp_ops += c.fp_ops;
        self.energy.fp_div_ops += c.fp_div_ops;
        self.energy.fp_libm_ops += c.fp_libm_ops;
        self.energy.l1d_accesses += c.l1d_accesses;
        self.energy.crc_beats += c.crc_beats;
        self.energy.hvr_accesses += c.hvr_accesses;
        self.energy.l1_lut_accesses += c.l1_lut_accesses;
    }
}

impl RunStats {
    /// Fraction of dynamic instructions that are memoization overhead.
    pub fn memo_fraction(&self) -> f64 {
        if self.dynamic_insts == 0 {
            0.0
        } else {
            self.memo_insts as f64 / self.dynamic_insts as f64
        }
    }

    /// Accumulate another run's statistics into this one. Work counters
    /// (instructions, energy events, stalls) add; `cycles` takes the
    /// maximum, matching the makespan semantics of concurrent cores —
    /// for sequential runs, sum `cycles` separately.
    pub fn merge(&mut self, other: &RunStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.dynamic_insts += other.dynamic_insts;
        self.memo_insts += other.memo_insts;
        self.energy.merge(&other.energy);
        self.memo_stall_cycles += other.memo_stall_cycles;
        self.branch_bubbles += other.branch_bubbles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_work_and_takes_makespan() {
        let mut a = RunStats {
            cycles: 100,
            dynamic_insts: 10,
            memo_insts: 2,
            memo_stall_cycles: 5,
            branch_bubbles: 3,
            ..RunStats::default()
        };
        a.energy.instructions = 10;
        a.energy.fp_ops = 4;
        let mut b = RunStats {
            cycles: 250,
            dynamic_insts: 30,
            memo_insts: 6,
            memo_stall_cycles: 1,
            branch_bubbles: 7,
            ..RunStats::default()
        };
        b.energy.instructions = 30;
        b.energy.dram_accesses = 2;
        b.energy.ecc_checks = 9;
        a.merge(&b);
        assert_eq!(a.cycles, 250, "makespan, not sum");
        assert_eq!(a.dynamic_insts, 40);
        assert_eq!(a.memo_insts, 8);
        assert_eq!(a.memo_stall_cycles, 6);
        assert_eq!(a.branch_bubbles, 10);
        assert_eq!(a.energy.instructions, 40);
        assert_eq!(a.energy.fp_ops, 4);
        assert_eq!(a.energy.dram_accesses, 2);
        assert_eq!(a.energy.ecc_checks, 9);
    }

    #[test]
    fn merge_with_default_is_identity_on_counters() {
        let a = RunStats {
            cycles: 42,
            dynamic_insts: 7,
            memo_insts: 1,
            ..RunStats::default()
        };
        let mut m = RunStats::default();
        m.merge(&a);
        assert_eq!(m, a);
    }

    #[test]
    fn memo_fraction_handles_zero() {
        assert_eq!(RunStats::default().memo_fraction(), 0.0);
        let s = RunStats {
            dynamic_insts: 10,
            memo_insts: 2,
            ..RunStats::default()
        };
        assert!((s.memo_fraction() - 0.2).abs() < 1e-12);
    }
}
