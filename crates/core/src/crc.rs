//! Cyclic redundancy check (CRC) hashing units.
//!
//! AxMemo uses CRC to compress an arbitrary-length stream of memoization
//! inputs into a fixed-size lookup-table tag (§3.1 of the paper). CRC is
//! chosen because it is streaming (inputs can be "accumulated" as they
//! arrive, hiding hash latency behind the original loads), every input bit
//! affects the output, the hardware is cheap, and the width is
//! configurable (16/32/64 bits).
//!
//! Three implementations are provided, mirroring Fig. 3:
//!
//! * [`SerialCrc`] — the LFSR-with-input-XOR reference that processes one
//!   *bit* per step. It is the specification against which the faster
//!   variants are property-tested.
//! * [`TableCrc`] — the byte-parallel (n = 8) implementation. In hardware
//!   this needs a `2^8 × m`-bit constant RAM (one byte per cycle, matching
//!   Table 4's "one cycle for each byte"). In software it hashes byte
//!   slices eight and four bytes at a time with slice-by-8 tables and
//!   finishes the tail with the byte table.
//! * [`PipelinedCrc`] — the 4×-unrolled, pipelined unit of §6.1 that
//!   absorbs a whole 1-, 4- or 8-byte input word per step
//!   ([`CrcAlgorithm::feed_word`]). This is what the memoization unit
//!   instantiates. It is bit-identical to the others; only its
//!   [`HardwareTiming`] differs.
//!
//! The slice-by-8 tables are built at compile time, one `static` per
//! width, so a unit owns no table memory. [`TableCrc::constant_ram_bytes`]
//! still reports the hardware's single 256-entry RAM: the extra tables
//! are how software unrolls the loop, not a modelled cost.
//!
//! # Examples
//!
//! ```
//! use axmemo_core::crc::{CrcAlgorithm, CrcWidth, TableCrc};
//!
//! let crc = TableCrc::new(CrcWidth::W32);
//! let mut state = crc.init();
//! crc.feed(&mut state, &42u32.to_le_bytes());
//! crc.feed(&mut state, &7u32.to_le_bytes());
//! let tag = crc.finalize(state);
//! assert_ne!(tag, crc.finalize(crc.init()));
//! ```

use core::fmt;

/// Supported CRC widths (§3.1: "16-bit CRC, 32-bit CRC, 64-bit CRC etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CrcWidth {
    /// 16-bit CRC (CCITT polynomial).
    W16,
    /// 32-bit CRC (IEEE 802.3 polynomial). The paper's evaluated design.
    #[default]
    W32,
    /// 64-bit CRC (ECMA-182 polynomial).
    W64,
}

impl CrcWidth {
    /// Number of bits in the CRC value.
    pub fn bits(self) -> u32 {
        match self {
            CrcWidth::W16 => 16,
            CrcWidth::W32 => 32,
            CrcWidth::W64 => 64,
        }
    }

    /// The reflected generator polynomial used for this width.
    pub const fn polynomial(self) -> u64 {
        match self {
            // CRC-16/CCITT (reflected 0x1021)
            CrcWidth::W16 => 0x8408,
            // CRC-32 (reflected 0x04C11DB7), as used by Ethernet/zlib
            CrcWidth::W32 => 0xEDB8_8320,
            // CRC-64/XZ (reflected ECMA-182)
            CrcWidth::W64 => 0xC96C_5795_D787_0F42,
        }
    }

    /// Mask selecting the low `bits()` bits of a `u64`.
    pub const fn mask(self) -> u64 {
        match self {
            CrcWidth::W16 => 0xFFFF,
            CrcWidth::W32 => 0xFFFF_FFFF,
            CrcWidth::W64 => u64::MAX,
        }
    }

    /// This width's compile-time slice-by-8 tables.
    fn tables(self) -> &'static SliceTables {
        match self {
            CrcWidth::W16 => &TABLES_W16,
            CrcWidth::W32 => &TABLES_W32,
            CrcWidth::W64 => &TABLES_W64,
        }
    }
}

/// Slice-by-8 tables: `t[k][b]` is the register contribution of input
/// byte `b` followed by `k` zero bytes. `t[0]` is the classic byte table.
type SliceTables = [[u64; 256]; 8];

const fn slice_tables(width: CrcWidth) -> SliceTables {
    let poly = width.polynomial();
    let mask = width.mask();
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            // Reflected form: shift right, XOR polynomial on carry-out.
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc & mask;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES_W16: SliceTables = slice_tables(CrcWidth::W16);
static TABLES_W32: SliceTables = slice_tables(CrcWidth::W32);
static TABLES_W64: SliceTables = slice_tables(CrcWidth::W64);

/// Absorb one byte: the byte-table step.
#[inline(always)]
fn absorb1(t: &SliceTables, crc: u64, byte: u8) -> u64 {
    (crc >> 8) ^ t[0][((crc ^ u64::from(byte)) & 0xFF) as usize]
}

/// Absorb the low four bytes of `word` (little-endian order) in one step.
/// Register bits above the four consumed bytes shift down unchanged.
#[inline(always)]
fn absorb4(t: &SliceTables, crc: u64, word: u64) -> u64 {
    let x = crc ^ (word & 0xFFFF_FFFF);
    (crc >> 32)
        ^ t[3][(x & 0xFF) as usize]
        ^ t[2][((x >> 8) & 0xFF) as usize]
        ^ t[1][((x >> 16) & 0xFF) as usize]
        ^ t[0][((x >> 24) & 0xFF) as usize]
}

/// Absorb all eight bytes of `word` (little-endian order) in one step.
#[inline(always)]
fn absorb8(t: &SliceTables, crc: u64, word: u64) -> u64 {
    let x = crc ^ word;
    t[7][(x & 0xFF) as usize]
        ^ t[6][((x >> 8) & 0xFF) as usize]
        ^ t[5][((x >> 16) & 0xFF) as usize]
        ^ t[4][((x >> 24) & 0xFF) as usize]
        ^ t[3][((x >> 32) & 0xFF) as usize]
        ^ t[2][((x >> 40) & 0xFF) as usize]
        ^ t[1][((x >> 48) & 0xFF) as usize]
        ^ t[0][(x >> 56) as usize]
}

impl fmt::Display for CrcWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CRC{}", self.bits())
    }
}

/// In-flight CRC state. Stored in a Hash Value Register between input
/// beats; see [`crate::hvr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcState {
    /// Current shift-register contents (low `width.bits()` bits valid).
    value: u64,
    width: CrcWidth,
}

impl CrcState {
    /// Raw register contents. Exposed for the HVR file and for tests.
    pub fn raw(self) -> u64 {
        self.value
    }

    /// The width this state was created for.
    pub fn width(self) -> CrcWidth {
        self.width
    }
}

/// Hardware cost model of a CRC implementation, in core clock cycles.
///
/// Latencies come from Table 4 ("one cycle for each byte of data") and the
/// synthesis results in Table 5 (all units < 0.5 ns, so no cycle-time
/// impact at 2 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareTiming {
    /// Bytes of input consumed per clock cycle.
    pub bytes_per_cycle: u32,
    /// Pipeline fill latency in cycles before the first result is valid.
    pub pipeline_depth: u32,
}

impl HardwareTiming {
    /// Cycles needed to absorb `bytes` of input (excluding pipeline fill).
    pub fn cycles_for(self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(self.bytes_per_cycle as u64)
    }
}

/// A streaming CRC implementation.
///
/// All implementors of a given [`CrcWidth`] must produce bit-identical
/// results; only their hardware timing differs. This trait is sealed in
/// spirit (the memoization unit only instantiates the types in this
/// module) but left open so that experiments can plug in alternative
/// hash functions (see the `hash_ablation` bench).
pub trait CrcAlgorithm: fmt::Debug {
    /// Fresh state (all-ones preset, the conventional CRC init).
    fn init(&self) -> CrcState;

    /// Absorb `data` into `state`, one byte at a time in order.
    fn feed(&self, state: &mut CrcState, data: &[u8]);

    /// Absorb the low `bytes` bytes of `word`, least-significant byte
    /// first: the same as feeding `&word.to_le_bytes()[..bytes]`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes > 8`.
    fn feed_word(&self, state: &mut CrcState, word: u64, bytes: usize) {
        self.feed(state, &word.to_le_bytes()[..bytes]);
    }

    /// Produce the final CRC value (final XOR applied).
    fn finalize(&self, state: CrcState) -> u64;

    /// The width of CRC values produced.
    fn width(&self) -> CrcWidth;

    /// The unit's hardware cost model.
    fn timing(&self) -> HardwareTiming;

    /// Convenience: hash a complete buffer in one call.
    fn checksum(&self, data: &[u8]) -> u64 {
        let mut s = self.init();
        self.feed(&mut s, data);
        self.finalize(s)
    }
}

fn init_state(width: CrcWidth) -> CrcState {
    CrcState {
        value: width.mask(), // all-ones preset
        width,
    }
}

fn finalize_state(state: CrcState) -> u64 {
    // Final XOR with all-ones, masked to width.
    (state.value ^ state.width.mask()) & state.width.mask()
}

/// Bit-serial CRC: the linear-feedback shift register with the input bit
/// XORed into the feedback path (Fig. 3, "serial CRC unit").
///
/// Processes one input bit per step; in hardware this is the cheapest
/// (but slowest) implementation. Used here as the executable
/// specification.
#[derive(Debug, Clone, Copy)]
pub struct SerialCrc {
    width: CrcWidth,
}

impl SerialCrc {
    /// Create a bit-serial CRC unit of the given width.
    pub fn new(width: CrcWidth) -> Self {
        Self { width }
    }
}

impl CrcAlgorithm for SerialCrc {
    fn init(&self) -> CrcState {
        init_state(self.width)
    }

    fn feed(&self, state: &mut CrcState, data: &[u8]) {
        debug_assert_eq!(state.width, self.width, "state/unit width mismatch");
        let poly = self.width.polynomial();
        for &byte in data {
            let mut crc = state.value ^ u64::from(byte);
            for _ in 0..8 {
                // Reflected form: shift right, XOR polynomial on carry-out.
                let lsb = crc & 1;
                crc >>= 1;
                if lsb == 1 {
                    crc ^= poly;
                }
            }
            state.value = crc & self.width.mask();
        }
    }

    fn finalize(&self, state: CrcState) -> u64 {
        finalize_state(state)
    }

    fn width(&self) -> CrcWidth {
        self.width
    }

    fn timing(&self) -> HardwareTiming {
        // 1 bit per cycle => 1/8 byte per cycle. We round conservatively to
        // 8 cycles per byte by reporting fractional throughput via depth.
        HardwareTiming {
            bytes_per_cycle: 1, // consumed per *8 cycles*; modelled below
            pipeline_depth: 8,
        }
    }
}

/// Byte-parallel, table-driven CRC (Fig. 3, "n-bit parallel"; n = 8).
///
/// In hardware the 256-entry constant table is a `2^8 × m`-bit RAM (1 KB
/// for CRC-32). Processes one byte per cycle, matching Table 4's latency
/// for `ld_crc`/`reg_crc`. In software, [`CrcAlgorithm::feed`] consumes
/// eight- and four-byte chunks through the shared slice-by-8 tables and
/// the tail through the byte table; the result is the same as the
/// byte-at-a-time loop for any split of the input.
#[derive(Clone, Copy)]
pub struct TableCrc {
    width: CrcWidth,
    tables: &'static SliceTables,
}

impl TableCrc {
    /// Build the unit. Its tables are the width's compile-time statics.
    pub fn new(width: CrcWidth) -> Self {
        Self {
            width,
            tables: width.tables(),
        }
    }

    /// Size in bytes of the constant RAM (for the energy/area model).
    pub fn constant_ram_bytes(&self) -> usize {
        256 * (self.width.bits() as usize / 8)
    }
}

impl fmt::Debug for TableCrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableCrc")
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

impl CrcAlgorithm for TableCrc {
    fn init(&self) -> CrcState {
        init_state(self.width)
    }

    fn feed(&self, state: &mut CrcState, data: &[u8]) {
        debug_assert_eq!(state.width, self.width, "state/unit width mismatch");
        let t = self.tables;
        let mut crc = state.value;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            crc = absorb8(t, crc, word);
        }
        let mut tail = chunks.remainder();
        if let Some((word, rest)) = tail.split_first_chunk::<4>() {
            crc = absorb4(t, crc, u64::from(u32::from_le_bytes(*word)));
            tail = rest;
        }
        for &byte in tail {
            crc = absorb1(t, crc, byte);
        }
        state.value = crc;
    }

    #[inline]
    fn feed_word(&self, state: &mut CrcState, word: u64, bytes: usize) {
        debug_assert_eq!(state.width, self.width, "state/unit width mismatch");
        let t = self.tables;
        match bytes {
            1 => state.value = absorb1(t, state.value, word as u8),
            4 => state.value = absorb4(t, state.value, word),
            8 => state.value = absorb8(t, state.value, word),
            _ => self.feed(state, &word.to_le_bytes()[..bytes]),
        }
    }

    fn finalize(&self, state: CrcState) -> u64 {
        finalize_state(state)
    }

    fn width(&self) -> CrcWidth {
        self.width
    }

    fn timing(&self) -> HardwareTiming {
        HardwareTiming {
            bytes_per_cycle: 1,
            pipeline_depth: 1,
        }
    }
}

/// The 4×-unrolled, pipelined CRC unit synthesised in §6.1 ("to match the
/// throughput of the CRC unit with the most common case of a 4-byte
/// input, we unrolled the 32-bit CRC unit four times and apply
/// pipelining").
///
/// This is the word-wide unit of §6.1 in software as well:
/// [`CrcAlgorithm::feed_word`] absorbs a whole 1-, 4- or 8-byte input in
/// one slice-by-4/8 step instead of a byte loop. Functionally identical
/// to [`TableCrc`]; its timing model consumes 4 bytes per cycle with a
/// 2-stage pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelinedCrc {
    inner: TableCrc,
}

impl PipelinedCrc {
    /// Create the unrolled/pipelined unit.
    pub fn new(width: CrcWidth) -> Self {
        Self {
            inner: TableCrc::new(width),
        }
    }
}

impl CrcAlgorithm for PipelinedCrc {
    fn init(&self) -> CrcState {
        self.inner.init()
    }

    fn feed(&self, state: &mut CrcState, data: &[u8]) {
        self.inner.feed(state, data);
    }

    #[inline]
    fn feed_word(&self, state: &mut CrcState, word: u64, bytes: usize) {
        self.inner.feed_word(state, word, bytes);
    }

    fn finalize(&self, state: CrcState) -> u64 {
        self.inner.finalize(state)
    }

    fn width(&self) -> CrcWidth {
        self.inner.width()
    }

    fn timing(&self) -> HardwareTiming {
        HardwareTiming {
            bytes_per_cycle: 4,
            pipeline_depth: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test vectors for the standard check input
    /// "123456789" (the conventional CRC validation string).
    #[test]
    fn crc32_known_answer() {
        let crc = TableCrc::new(CrcWidth::W32);
        assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc16_known_answer() {
        let crc = TableCrc::new(CrcWidth::W16);
        // CRC-16/X-25 check value (reflected CCITT polynomial with
        // all-ones preset and final XOR, matching our init/finalize).
        assert_eq!(crc.checksum(b"123456789"), 0x906E);
    }

    #[test]
    fn crc64_known_answer() {
        let crc = TableCrc::new(CrcWidth::W64);
        // CRC-64/XZ check value.
        assert_eq!(crc.checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn serial_matches_table_on_basic_inputs() {
        for width in [CrcWidth::W16, CrcWidth::W32, CrcWidth::W64] {
            let serial = SerialCrc::new(width);
            let table = TableCrc::new(width);
            for input in [&b""[..], b"a", b"123456789", b"\x00\x00\x00\x00"] {
                assert_eq!(
                    serial.checksum(input),
                    table.checksum(input),
                    "width {width} input {input:?}"
                );
            }
        }
    }

    #[test]
    fn pipelined_matches_table() {
        let a = PipelinedCrc::new(CrcWidth::W32);
        let b = TableCrc::new(CrcWidth::W32);
        assert_eq!(
            a.checksum(b"streaming input"),
            b.checksum(b"streaming input")
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let crc = TableCrc::new(CrcWidth::W32);
        let mut s = crc.init();
        crc.feed(&mut s, b"hello ");
        crc.feed(&mut s, b"world");
        assert_eq!(crc.finalize(s), crc.checksum(b"hello world"));
    }

    #[test]
    fn empty_input_hashes_to_zero_xor() {
        // init ^ final-xor cancels for the empty message.
        let crc = TableCrc::new(CrcWidth::W32);
        assert_eq!(crc.checksum(b""), 0);
    }

    #[test]
    fn every_bit_affects_output() {
        // Property claimed in §3.1 item (2): flip any single bit of a
        // 9-float (36-byte) input and the CRC changes.
        let crc = TableCrc::new(CrcWidth::W32);
        let base = [0xA5u8; 36];
        let reference = crc.checksum(&base);
        for byte in 0..36 {
            for bit in 0..8 {
                let mut flipped = base;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc.checksum(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn constant_ram_size_matches_width() {
        assert_eq!(TableCrc::new(CrcWidth::W32).constant_ram_bytes(), 1024);
        assert_eq!(TableCrc::new(CrcWidth::W16).constant_ram_bytes(), 512);
        assert_eq!(TableCrc::new(CrcWidth::W64).constant_ram_bytes(), 2048);
    }

    #[test]
    fn timing_cycles_for_bytes() {
        let t = PipelinedCrc::new(CrcWidth::W32).timing();
        assert_eq!(t.cycles_for(4), 1);
        assert_eq!(t.cycles_for(5), 2);
        assert_eq!(t.cycles_for(36), 9);
        let t1 = TableCrc::new(CrcWidth::W32).timing();
        assert_eq!(t1.cycles_for(4), 4);
    }

    #[test]
    fn width_display_and_mask() {
        assert_eq!(CrcWidth::W32.to_string(), "CRC32");
        assert_eq!(CrcWidth::W16.mask(), 0xFFFF);
        assert_eq!(CrcWidth::W64.mask(), u64::MAX);
        assert_eq!(CrcWidth::default(), CrcWidth::W32);
    }
}
