//! Timing parameters for the AxMemo ISA extensions (Table 4).
//!
//! All latencies include the 1-cycle overhead of reading/writing the
//! dummy register that enforces program ordering for `ld_crc`,
//! `reg_crc`, and `lookup` (§4 / §6.1).

use crate::MemoInst;

/// Table 4 timing parameters, in core clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoTiming {
    /// `ld_crc`/`reg_crc`: cycles per byte of input absorbed by the
    /// memoization unit. The CPU is not stalled unless the unit's input
    /// queue is full.
    pub crc_cycles_per_byte: u64,
    /// `lookup` when the L1 LUT answers.
    pub lookup_l1_cycles: u64,
    /// `lookup` when the L2 LUT answers (LLC partition latency).
    pub lookup_l2_cycles: u64,
    /// `update` latency (entry allocation overlapped with computation).
    pub update_cycles: u64,
    /// `invalidate`: one cycle per way in a set (dedicated flash-clear
    /// hardware walks ways, not entries).
    pub invalidate_cycles_per_way: u64,
    /// Dummy-register read+write overhead added to each ordered
    /// instruction (already included in the figures above per §6.1; kept
    /// explicit for the ablation bench).
    pub dummy_reg_overhead: u64,
    /// Parity/SECDED check latency per LUT access when the arrays are
    /// ECC-protected; zero cost when protection is off.
    pub ecc_check_cycles: u64,
}

impl MemoTiming {
    /// The paper's Table 4 values.
    pub const fn paper() -> Self {
        Self {
            crc_cycles_per_byte: 1,
            lookup_l1_cycles: 2,
            lookup_l2_cycles: 13,
            update_cycles: 2,
            invalidate_cycles_per_way: 1,
            dummy_reg_overhead: 1,
            ecc_check_cycles: 1,
        }
    }

    /// Issue-stage occupancy of an instruction: the cycles the *CPU*
    /// spends on it (as opposed to the memoization unit working in the
    /// background). `ld_crc`/`reg_crc` retire in one cycle unless the
    /// queue back-pressures; `lookup` blocks until the LUT answers.
    pub fn cpu_cycles(&self, inst: &MemoInst, l2_hit: bool, ways: u64) -> u64 {
        self.cpu_cycles_protected(inst, l2_hit, ways, false)
    }

    /// [`Self::cpu_cycles`] with the LUT protection scheme taken into
    /// account: an ECC-`protected` array adds [`Self::ecc_check_cycles`]
    /// to every `lookup`/`update` (the syndrome check sits on the array
    /// read path).
    pub fn cpu_cycles_protected(
        &self,
        inst: &MemoInst,
        l2_hit: bool,
        ways: u64,
        protected: bool,
    ) -> u64 {
        let ecc = if protected { self.ecc_check_cycles } else { 0 };
        match inst {
            // The load itself is charged by the cache model; the CRC
            // streaming happens in the background.
            MemoInst::LdCrc { .. } | MemoInst::RegCrc { .. } => 1,
            MemoInst::Lookup { .. } => {
                if l2_hit {
                    self.lookup_l2_cycles + ecc
                } else {
                    self.lookup_l1_cycles + ecc
                }
            }
            MemoInst::Update { .. } => self.update_cycles + ecc,
            MemoInst::Invalidate { .. } => self.invalidate_cycles_per_way * ways,
        }
    }
}

impl Default for MemoTiming {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_core::ids::LutId;

    #[test]
    fn paper_values_match_table4() {
        let t = MemoTiming::paper();
        assert_eq!(t.crc_cycles_per_byte, 1);
        assert_eq!(t.lookup_l1_cycles, 2);
        assert_eq!(t.lookup_l2_cycles, 13);
        assert_eq!(t.update_cycles, 2);
        assert_eq!(t.invalidate_cycles_per_way, 1);
    }

    /// Table 4 is defined twice: here (what `table4_5` prints) and as
    /// the memoization unit's `UnitTiming` (what the simulator charges).
    /// Both destructurings are exhaustive, so a field added to either
    /// side fails to compile until it is paired here.
    #[test]
    fn paper_timing_matches_the_unit_the_simulator_charges() {
        let MemoTiming {
            crc_cycles_per_byte,
            lookup_l1_cycles,
            lookup_l2_cycles,
            update_cycles,
            invalidate_cycles_per_way,
            // Folded into the latencies above (§6.1); the unit has no
            // separate charge for it.
            dummy_reg_overhead: _,
            ecc_check_cycles,
        } = MemoTiming::paper();
        let axmemo_core::unit::UnitTiming {
            cycles_per_input_byte,
            lookup_l1,
            lookup_l2,
            update,
            invalidate_per_way,
            ecc_check,
        } = axmemo_core::unit::UnitTiming::default();
        assert_eq!(
            crc_cycles_per_byte, cycles_per_input_byte,
            "CRC cycles/byte"
        );
        assert_eq!(lookup_l1_cycles, lookup_l1, "L1 lookup");
        assert_eq!(lookup_l2_cycles, lookup_l2, "L2 lookup");
        assert_eq!(update_cycles, update, "update");
        assert_eq!(
            invalidate_cycles_per_way, invalidate_per_way,
            "invalidate/way"
        );
        assert_eq!(ecc_check_cycles, ecc_check, "ECC check");
    }

    #[test]
    fn cpu_cycles_dispatch() {
        let t = MemoTiming::paper();
        let lut = LutId::new(0).unwrap();
        assert_eq!(t.cpu_cycles(&MemoInst::Lookup { dst: 0, lut }, false, 8), 2);
        assert_eq!(t.cpu_cycles(&MemoInst::Lookup { dst: 0, lut }, true, 8), 13);
        assert_eq!(t.cpu_cycles(&MemoInst::Update { src: 0, lut }, false, 8), 2);
        assert_eq!(t.cpu_cycles(&MemoInst::Invalidate { lut }, false, 8), 8);
        assert_eq!(
            t.cpu_cycles(
                &MemoInst::RegCrc {
                    src: 0,
                    lut,
                    trunc: 0
                },
                false,
                8
            ),
            1
        );
    }

    #[test]
    fn ecc_protection_adds_check_latency() {
        let t = MemoTiming::paper();
        let lut = LutId::new(0).unwrap();
        let lookup = MemoInst::Lookup { dst: 0, lut };
        let update = MemoInst::Update { src: 0, lut };
        assert_eq!(t.cpu_cycles_protected(&lookup, false, 8, true), 3);
        assert_eq!(t.cpu_cycles_protected(&lookup, true, 8, true), 14);
        assert_eq!(t.cpu_cycles_protected(&update, false, 8, true), 3);
        // Invalidate walks ways without reading data: no ECC cost.
        assert_eq!(
            t.cpu_cycles_protected(&MemoInst::Invalidate { lut }, false, 8, true),
            8
        );
        // Unprotected arrays keep Table 4 exactly.
        assert_eq!(t.cpu_cycles_protected(&lookup, false, 8, false), 2);
    }
}
