//! Crash-consistent persistence of warm memoization state.
//!
//! A production memo-service's most valuable asset is its warm LUT;
//! this module makes it survive restarts. [`MemoSnapshot`] captures the
//! [`crate::two_level::TwoLevelLut`] contents (L1 + L2 entries plus donor statistics),
//! the [`AdaptiveTruncation`] controller and the [`QualityMonitor`]
//! ladder position into a versioned, section-based binary format, and
//! [`MemoSnapshot::recover`] rebuilds as much of that state as the
//! bytes allow.
//!
//! # Format (version 1, all little-endian)
//!
//! ```text
//! file header   (20 B): magic "AXMSNAP\x01" | version u32 | section
//!                       count u32 | CRC32 of the preceding 16 bytes
//! section × N:
//!   header      (20 B): tag u32 | payload_len u64 | payload CRC32 |
//!                       CRC32 of the preceding 16 bytes
//!   payload     (payload_len B)
//! ```
//!
//! Entry sections (`l1_entries`, `l2_entries`) hold fixed-size 21-byte
//! records — `lut_id u8 | crc u64 | data u64 | record CRC32` — in LRU
//! order, oldest first.
//!
//! # Torn-update semantics
//!
//! The design follows the criticality split of the data-partitioning
//! literature: *metadata* (the file header and each section header,
//! which the decoder must trust to walk the stream) is critical and
//! integrity-checked before use, while a *payload entry* is
//! approximable — the LUT is a cache, so a torn or corrupt entry is
//! safe to discard. Concretely:
//!
//! - A bad file header is unrecoverable: the run cold-starts, with the
//!   reason recorded in the [`RecoveryReport`].
//! - A bad or truncated **section header** ends parsing: lengths past
//!   that point cannot be trusted, so the remaining sections are
//!   reported as a torn tail.
//! - A **payload** whose CRC fails is salvaged record-by-record for
//!   entry sections (each record carries its own CRC; corrupt records
//!   are discarded, intact ones restored) and discarded whole for
//!   scalar sections (controller/monitor state is all-or-nothing).
//! - A truncated final payload keeps its valid record prefix and
//!   discards the torn tail.
//!
//! Every decision is counted and event-logged through
//! [`axmemo_telemetry::Telemetry`], and publication is atomic: the
//! writer streams to a `.tmp` sibling, syncs, then renames, so readers
//! see either the old snapshot or the new one, never a torn file.
//! [`CrashPoint`] provides the seeded kill-at-random-point injector the
//! recovery tests sweep.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::adaptive::{AdaptiveConfig, AdaptiveState, AdaptiveTruncation};
use crate::crc::{CrcAlgorithm, CrcWidth, TableCrc};
use crate::ids::LutId;
use crate::lut::{ExportedEntry, LutStats};
use crate::quality::{DegradationStage, QualityMonitor, QualityState};
use crate::two_level::TwoLevelLut;
use axmemo_telemetry::{Telemetry, Value};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"AXMSNAP\x01";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Size of the file header in bytes.
pub const FILE_HEADER_BYTES: usize = 20;
/// Size of each section header in bytes.
pub const SECTION_HEADER_BYTES: usize = 20;
/// Size of one LUT-entry record in bytes.
pub const ENTRY_RECORD_BYTES: usize = 21;

const TAG_GEOMETRY: u32 = 1;
const TAG_L1_ENTRIES: u32 = 2;
const TAG_L2_ENTRIES: u32 = 3;
const TAG_LUT_STATS: u32 = 4;
const TAG_ADAPTIVE: u32 = 5;
const TAG_QUALITY: u32 = 6;

fn section_name(tag: u32) -> &'static str {
    match tag {
        TAG_GEOMETRY => "geometry",
        TAG_L1_ENTRIES => "l1_entries",
        TAG_L2_ENTRIES => "l2_entries",
        TAG_LUT_STATS => "lut_stats",
        TAG_ADAPTIVE => "adaptive",
        TAG_QUALITY => "quality",
        _ => "unknown",
    }
}

fn crc32(crc: &TableCrc, data: &[u8]) -> u32 {
    crc.checksum(data) as u32
}

/// Structured error for snapshot file IO. Content-level corruption is
/// never an error — it flows into the [`RecoveryReport`] instead — so
/// every variant names the offending path for a user-facing message.
#[derive(Debug)]
pub enum SnapshotError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation was applied to.
        path: PathBuf,
        /// Short verb describing the operation ("read", "create", ...).
        op: &'static str,
        /// The underlying IO error.
        source: std::io::Error,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, op, source } => {
                write!(f, "snapshot {op} {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
        }
    }
}

/// Geometry of the hierarchy a snapshot was captured from. Recorded
/// for reporting only: restore is geometry-agnostic because each entry
/// record stores the full CRC, from which the target array recomputes
/// its own set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotGeometry {
    /// L1 sets at capture time.
    pub l1_sets: u64,
    /// L1 associativity at capture time.
    pub l1_ways: u64,
    /// Data field width in bytes.
    pub data_width_bytes: u32,
    /// `(sets, ways)` of the L2, when one was configured.
    pub l2: Option<(u64, u64)>,
}

impl SnapshotGeometry {
    /// The geometry of `lut`'s levels.
    pub(crate) fn of(lut: &TwoLevelLut) -> Self {
        let l1 = lut.l1().geometry();
        Self {
            l1_sets: l1.sets as u64,
            l1_ways: l1.ways as u64,
            data_width_bytes: l1.data_width.bytes() as u32,
            l2: lut
                .l2()
                .map(|l2| (l2.geometry().sets as u64, l2.geometry().ways as u64)),
        }
    }
}

/// Why a run cold-started instead of restoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// A (possibly partial) warm state was restored.
    Restored,
    /// Nothing usable was recovered; the run starts cold.
    ColdStart,
}

/// What happened to one section during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionDisposition {
    /// The whole payload validated and parsed.
    Salvaged,
    /// An entry section with some records salvaged and some discarded.
    PartiallySalvaged {
        /// Records restored into the snapshot.
        restored: u64,
        /// Records discarded (CRC-invalid or torn).
        discarded: u64,
    },
    /// The section was discarded; the reason says why.
    Discarded {
        /// Human-readable reason.
        reason: String,
    },
    /// An unknown tag (future format extension) was skipped.
    Skipped,
}

/// Per-section recovery record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionReport {
    /// Raw section tag.
    pub tag: u32,
    /// Section name ("l1_entries", "quality", ...).
    pub name: &'static str,
    /// What the decoder did with it.
    pub disposition: SectionDisposition,
}

/// Counters from applying a recovered snapshot to a live unit (the
/// decode-level salvage counts live in [`RecoveryReport`]; these count
/// what the target hierarchy actually accepted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Entries installed into the target L1.
    pub l1_restored: u64,
    /// Salvaged L1 entries the target could not hold.
    pub l1_dropped: u64,
    /// Entries installed into the target L2.
    pub l2_restored: u64,
    /// Salvaged L2 entries the target could not hold (always all of
    /// them when the target has no L2).
    pub l2_dropped: u64,
    /// Whether the quality-monitor ladder position was applied.
    pub quality_restored: bool,
}

/// Structured account of one recovery attempt: which sections were
/// salvaged or discarded and why, how many entries survived, and
/// whether the net result is a warm restore or a cold start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Net outcome.
    pub outcome: RecoveryOutcome,
    /// Reason when `outcome` is [`RecoveryOutcome::ColdStart`].
    pub cold_start_reason: Option<String>,
    /// Section count the file header promised.
    pub sections_expected: u32,
    /// Per-section dispositions, in stream order.
    pub sections: Vec<SectionReport>,
    /// L1 entry records salvaged from the stream.
    pub l1_entries_restored: u64,
    /// L1 entry records discarded (CRC-invalid or torn).
    pub l1_entries_discarded: u64,
    /// L2 entry records salvaged from the stream.
    pub l2_entries_restored: u64,
    /// L2 entry records discarded.
    pub l2_entries_discarded: u64,
    /// Whether the adaptive-truncation controller state was recovered.
    pub adaptive_restored: bool,
    /// Whether the quality-monitor state was recovered.
    pub quality_restored: bool,
    /// Parsing stopped before the promised section count (truncated
    /// stream or corrupt section header).
    pub torn_tail: bool,
    /// Counters from applying the snapshot to a live unit, when a
    /// caller did so (see [`crate::unit::MemoizationUnit::restore_warm`]).
    pub applied: Option<RestoreSummary>,
}

impl RecoveryReport {
    fn cold(reason: impl Into<String>) -> Self {
        Self {
            outcome: RecoveryOutcome::ColdStart,
            cold_start_reason: Some(reason.into()),
            sections_expected: 0,
            sections: Vec::new(),
            l1_entries_restored: 0,
            l1_entries_discarded: 0,
            l2_entries_restored: 0,
            l2_entries_discarded: 0,
            adaptive_restored: false,
            quality_restored: false,
            torn_tail: false,
            applied: None,
        }
    }

    /// Total entry records salvaged across both levels.
    pub fn entries_restored(&self) -> u64 {
        self.l1_entries_restored + self.l2_entries_restored
    }

    /// Total entry records discarded across both levels.
    pub fn entries_discarded(&self) -> u64 {
        self.l1_entries_discarded + self.l2_entries_discarded
    }

    /// One-line human-readable summary for logs and tables.
    pub fn describe(&self) -> String {
        match self.outcome {
            RecoveryOutcome::ColdStart => format!(
                "cold start ({})",
                self.cold_start_reason.as_deref().unwrap_or("unknown")
            ),
            RecoveryOutcome::Restored => {
                let salvaged = self
                    .sections
                    .iter()
                    .filter(|s| {
                        matches!(
                            s.disposition,
                            SectionDisposition::Salvaged
                                | SectionDisposition::PartiallySalvaged { .. }
                        )
                    })
                    .count();
                format!(
                    "restored {}/{} sections, {} entries ({} discarded){}",
                    salvaged,
                    self.sections_expected,
                    self.entries_restored(),
                    self.entries_discarded(),
                    if self.torn_tail { ", torn tail" } else { "" }
                )
            }
        }
    }
}

/// Order in which previously-exported entries are re-installed by a
/// warm restore (see `EXPERIMENTS.md`, "Warm start").
///
/// Entries are exported in LRU order, oldest first. Restoring them in
/// that same order reproduces the donor's relative recency exactly —
/// the right default, and byte-identical to the pre-policy behaviour.
/// But for scan-dominated workloads whose working set exceeds the LUT
/// (sobel, jmeint), a full restore is pollution: the image holds the
/// donor's tail-end entries, the run probes from the start of the
/// stream, and every restored way must be evicted one miss at a time.
/// [`RestorePolicy::MruFirst`] bounds that pollution: entries are
/// admitted newest-first (the donor's hottest state wins) and each set
/// accepts restored entries into at most half its ways, leaving the
/// other half invalid for the live run's working set. Entries past the
/// cap are counted as dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RestorePolicy {
    /// Replay the export stream oldest-first, displacing the least
    /// recently restored entry when a set overflows. The default;
    /// reproduces pre-policy restores byte-for-byte.
    #[default]
    OldestFirst,
    /// Fresh-biased warm start: admit entries newest-first, never
    /// displace, cap restored occupancy at half of each set's ways,
    /// and start the quality ladder fresh instead of resuming the
    /// donor's rung (the warm run re-earns any degradation from its
    /// own sampled comparisons).
    MruFirst,
}

impl RestorePolicy {
    /// Parse a command-line spelling (`oldest` / `mru`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "oldest" | "oldest-first" => Some(Self::OldestFirst),
            "mru" | "mru-first" => Some(Self::MruFirst),
            _ => None,
        }
    }

    /// The command-line spelling.
    pub fn label(self) -> &'static str {
        match self {
            Self::OldestFirst => "oldest",
            Self::MruFirst => "mru",
        }
    }
}

/// Captured warm state: everything needed to resume a memoization unit
/// where a previous run left off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoSnapshot {
    /// Source-hierarchy geometry (reporting only).
    pub geometry: Option<SnapshotGeometry>,
    /// L1 entries in LRU order, oldest first.
    pub l1_entries: Vec<ExportedEntry>,
    /// L2 entries in LRU order, oldest first.
    pub l2_entries: Vec<ExportedEntry>,
    /// Donor run's L1 statistics (informational; never merged into the
    /// restored run's counters — see `tests/snapshot_recovery.rs`).
    pub l1_stats: Option<LutStats>,
    /// Donor run's L2 statistics (informational).
    pub l2_stats: Option<LutStats>,
    /// Adaptive-truncation controller state, when one was active.
    pub adaptive: Option<AdaptiveState>,
    /// Quality-monitor ladder state.
    pub quality: Option<QualityState>,
}

impl MemoSnapshot {
    /// Capture the warm state of a LUT hierarchy plus the optional
    /// controllers that steer it.
    pub fn capture(
        lut: &TwoLevelLut,
        adaptive: Option<&AdaptiveTruncation>,
        quality: Option<&QualityMonitor>,
    ) -> Self {
        Self::capture_tel(lut, adaptive, quality, &mut Telemetry::off())
    }

    /// [`Self::capture`] with telemetry: stored records skipped because
    /// their state was corrupt (an out-of-range stored `lut_id` — a
    /// fault the export path degrades through rather than panics on)
    /// are counted into `snapshot.capture.bad_records`.
    pub fn capture_tel(
        lut: &TwoLevelLut,
        adaptive: Option<&AdaptiveTruncation>,
        quality: Option<&QualityMonitor>,
        tel: &mut Telemetry,
    ) -> Self {
        let (l1_entries, l1_skipped) = lut.export_l1_counted();
        let (l2_entries, l2_skipped) = lut.export_l2_counted();
        if l1_skipped + l2_skipped > 0 {
            tel.count("snapshot.capture.bad_records", l1_skipped + l2_skipped);
        }
        Self {
            geometry: Some(SnapshotGeometry::of(lut)),
            l1_entries,
            l2_entries,
            l1_stats: Some(lut.l1_stats()),
            l2_stats: Some(lut.l2_stats()),
            adaptive: adaptive.map(AdaptiveTruncation::export_state),
            quality: quality.map(QualityMonitor::export_state),
        }
    }

    /// Serialize to the version-1 binary format.
    pub fn encode(&self) -> Vec<u8> {
        let crc = TableCrc::new(CrcWidth::W32);
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();
        if let Some(geo) = &self.geometry {
            sections.push((TAG_GEOMETRY, encode_geometry(geo)));
        }
        sections.push((TAG_L1_ENTRIES, encode_entries(&crc, &self.l1_entries)));
        sections.push((TAG_L2_ENTRIES, encode_entries(&crc, &self.l2_entries)));
        if self.l1_stats.is_some() || self.l2_stats.is_some() {
            sections.push((
                TAG_LUT_STATS,
                encode_stats(
                    self.l1_stats.unwrap_or_default(),
                    self.l2_stats.unwrap_or_default(),
                ),
            ));
        }
        if let Some(a) = &self.adaptive {
            sections.push((TAG_ADAPTIVE, encode_adaptive(a)));
        }
        if let Some(q) = &self.quality {
            sections.push((TAG_QUALITY, encode_quality(q)));
        }

        let mut out = Vec::with_capacity(
            FILE_HEADER_BYTES
                + sections
                    .iter()
                    .map(|(_, p)| SECTION_HEADER_BYTES + p.len())
                    .sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let header_crc = crc32(&crc, &out[..16]);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (tag, payload) in &sections {
            let mut header = Vec::with_capacity(SECTION_HEADER_BYTES);
            header.extend_from_slice(&tag.to_le_bytes());
            header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            header.extend_from_slice(&crc32(&crc, payload).to_le_bytes());
            let hcrc = crc32(&crc, &header);
            header.extend_from_slice(&hcrc.to_le_bytes());
            out.extend_from_slice(&header);
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decode a snapshot, salvaging whatever the bytes allow. Never
    /// panics and never fails: unrecoverable content (bad magic,
    /// corrupt file header, unsupported version) yields `(None,
    /// report)` with the cold-start reason recorded.
    pub fn recover(bytes: &[u8]) -> (Option<Self>, RecoveryReport) {
        Self::recover_tel(bytes, &mut Telemetry::off())
    }

    /// [`Self::recover`] with telemetry: every per-section decision is
    /// counted (`snapshot.restore.*`) and emitted as a
    /// `snapshot.section` event; the net outcome as `snapshot.restore`.
    pub fn recover_tel(bytes: &[u8], tel: &mut Telemetry) -> (Option<Self>, RecoveryReport) {
        let (snap, report) = decode(bytes);
        for s in &report.sections {
            let (disposition, detail) = match &s.disposition {
                SectionDisposition::Salvaged => {
                    tel.count("snapshot.restore.sections_salvaged", 1);
                    ("salvaged", String::new())
                }
                SectionDisposition::PartiallySalvaged {
                    restored,
                    discarded,
                } => {
                    tel.count("snapshot.restore.sections_salvaged", 1);
                    tel.count("snapshot.restore.entries_restored", *restored);
                    tel.count("snapshot.restore.entries_discarded", *discarded);
                    (
                        "partial",
                        format!("{restored} restored, {discarded} discarded"),
                    )
                }
                SectionDisposition::Discarded { reason } => {
                    tel.count("snapshot.restore.sections_discarded", 1);
                    ("discarded", reason.clone())
                }
                SectionDisposition::Skipped => {
                    tel.count("snapshot.restore.sections_skipped", 1);
                    ("skipped", String::new())
                }
            };
            tel.event(
                "snapshot.section",
                &[
                    ("section", Value::Str(s.name.into())),
                    ("disposition", Value::Str(disposition.into())),
                    ("detail", Value::Str(detail)),
                ],
            );
        }
        if report.outcome == RecoveryOutcome::ColdStart {
            tel.count("snapshot.restore.cold_starts", 1);
        }
        tel.event(
            "snapshot.restore",
            &[
                (
                    "outcome",
                    Value::Str(match report.outcome {
                        RecoveryOutcome::Restored => "restored".into(),
                        RecoveryOutcome::ColdStart => "cold_start".into(),
                    }),
                ),
                ("entries_restored", Value::U64(report.entries_restored())),
                ("entries_discarded", Value::U64(report.entries_discarded())),
                ("torn_tail", Value::Bool(report.torn_tail)),
                (
                    "reason",
                    Value::Str(report.cold_start_reason.clone().unwrap_or_default()),
                ),
            ],
        );
        (snap, report)
    }

    /// Write the snapshot to `path` with atomic publication: the bytes
    /// stream to a `.tmp` sibling, are synced to disk, then renamed
    /// into place. A crash mid-write leaves the previous snapshot (or
    /// no file) — never a torn one. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] naming the path and operation that failed.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, SnapshotError> {
        self.write_atomic_tel(path, &mut Telemetry::off())
    }

    /// [`Self::write_atomic`] with telemetry (`snapshot.write` event,
    /// byte/section counters).
    pub fn write_atomic_tel(&self, path: &Path, tel: &mut Telemetry) -> Result<u64, SnapshotError> {
        use std::io::Write as _;
        let bytes = self.encode();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let io_err = |path: &Path, op: &'static str| {
            let path = path.to_path_buf();
            move |source| SnapshotError::Io { path, op, source }
        };
        let mut file = std::fs::File::create(&tmp).map_err(io_err(&tmp, "create"))?;
        file.write_all(&bytes).map_err(io_err(&tmp, "write"))?;
        file.sync_all().map_err(io_err(&tmp, "sync"))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(io_err(path, "rename"))?;
        tel.count("snapshot.write.bytes", bytes.len() as u64);
        tel.count(
            "snapshot.write.entries",
            (self.l1_entries.len() + self.l2_entries.len()) as u64,
        );
        tel.event(
            "snapshot.write",
            &[
                ("path", Value::Str(path.display().to_string())),
                ("bytes", Value::U64(bytes.len() as u64)),
                (
                    "entries",
                    Value::U64((self.l1_entries.len() + self.l2_entries.len()) as u64),
                ),
            ],
        );
        Ok(bytes.len() as u64)
    }

    /// Read and recover a snapshot file.
    ///
    /// # Errors
    ///
    /// Only filesystem-level failures (missing file, permissions)
    /// return [`SnapshotError`]; corrupt *content* is salvaged or
    /// reported as a cold start in the [`RecoveryReport`].
    pub fn load(path: &Path) -> Result<(Option<Self>, RecoveryReport), SnapshotError> {
        Self::load_tel(path, &mut Telemetry::off())
    }

    /// [`Self::load`] with telemetry (see [`Self::recover_tel`]).
    pub fn load_tel(
        path: &Path,
        tel: &mut Telemetry,
    ) -> Result<(Option<Self>, RecoveryReport), SnapshotError> {
        let bytes = std::fs::read(path).map_err(|source| SnapshotError::Io {
            path: path.to_path_buf(),
            op: "read",
            source,
        })?;
        Ok(Self::recover_tel(&bytes, tel))
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn encode_geometry(geo: &SnapshotGeometry) -> Vec<u8> {
    let mut p = Vec::with_capacity(37);
    p.extend_from_slice(&geo.l1_sets.to_le_bytes());
    p.extend_from_slice(&geo.l1_ways.to_le_bytes());
    p.extend_from_slice(&geo.data_width_bytes.to_le_bytes());
    p.push(u8::from(geo.l2.is_some()));
    let (s, w) = geo.l2.unwrap_or((0, 0));
    p.extend_from_slice(&s.to_le_bytes());
    p.extend_from_slice(&w.to_le_bytes());
    p
}

fn encode_entries(crc: &TableCrc, entries: &[ExportedEntry]) -> Vec<u8> {
    let mut p = Vec::with_capacity(entries.len() * ENTRY_RECORD_BYTES);
    for e in entries {
        let start = p.len();
        p.push(e.lut_id.raw());
        p.extend_from_slice(&e.crc.to_le_bytes());
        p.extend_from_slice(&e.data.to_le_bytes());
        let rec_crc = crc32(crc, &p[start..]);
        p.extend_from_slice(&rec_crc.to_le_bytes());
    }
    p
}

fn encode_stats(l1: LutStats, l2: LutStats) -> Vec<u8> {
    let mut p = Vec::with_capacity(80);
    for s in [l1, l2] {
        for v in [s.hits, s.misses, s.inserts, s.evictions, s.invalidations] {
            p.extend_from_slice(&v.to_le_bytes());
        }
    }
    p
}

fn encode_adaptive(a: &AdaptiveState) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&a.config.target_error.to_le_bytes());
    p.extend_from_slice(&a.config.raise_margin.to_le_bytes());
    p.extend_from_slice(&a.config.normal_window.to_le_bytes());
    p.extend_from_slice(&a.config.profile_window.to_le_bytes());
    p.extend_from_slice(&a.config.min_bits.to_le_bytes());
    p.extend_from_slice(&a.config.max_bits.to_le_bytes());
    p.extend_from_slice(&a.bits.to_le_bytes());
    p.push(u8::from(a.profiling));
    p.extend_from_slice(&a.remaining.to_le_bytes());
    p.extend_from_slice(&a.err_sum.to_le_bytes());
    p.extend_from_slice(&a.err_count.to_le_bytes());
    p.extend_from_slice(&(a.history.len() as u64).to_le_bytes());
    for (bits, err) in &a.history {
        p.extend_from_slice(&bits.to_le_bytes());
        p.extend_from_slice(&err.to_le_bytes());
    }
    p
}

fn stage_to_u8(stage: DegradationStage) -> u8 {
    match stage {
        DegradationStage::Healthy => 0,
        DegradationStage::ReducedTruncation => 1,
        DegradationStage::Rewarmed => 2,
        DegradationStage::Disabled => 3,
    }
}

fn stage_from_u8(v: u8) -> Option<DegradationStage> {
    Some(match v {
        0 => DegradationStage::Healthy,
        1 => DegradationStage::ReducedTruncation,
        2 => DegradationStage::Rewarmed,
        3 => DegradationStage::Disabled,
        _ => return None,
    })
}

fn encode_quality(q: &QualityState) -> Vec<u8> {
    let mut p = Vec::new();
    p.push(stage_to_u8(q.stage));
    p.extend_from_slice(&q.hits_seen.to_le_bytes());
    p.extend_from_slice(&q.clean_windows.to_le_bytes());
    p.extend_from_slice(&q.probe_wait.to_le_bytes());
    p.extend_from_slice(&q.probe_period.to_le_bytes());
    p.extend_from_slice(&q.comparisons.to_le_bytes());
    p.extend_from_slice(&q.large_errors.to_le_bytes());
    p.extend_from_slice(&q.escalations.to_le_bytes());
    p.extend_from_slice(&q.probes.to_le_bytes());
    p.extend_from_slice(&(q.window.len() as u64).to_le_bytes());
    for e in &q.window {
        p.extend_from_slice(&e.to_le_bytes());
    }
    p
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .map(|s| f64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode(bytes: &[u8]) -> (Option<MemoSnapshot>, RecoveryReport) {
    let crc = TableCrc::new(CrcWidth::W32);
    if bytes.len() < FILE_HEADER_BYTES {
        return (None, RecoveryReport::cold("file header truncated"));
    }
    if bytes[..8] != MAGIC {
        return (None, RecoveryReport::cold("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let header_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if crc32(&crc, &bytes[..16]) != header_crc {
        return (None, RecoveryReport::cold("file header CRC mismatch"));
    }
    if version != FORMAT_VERSION {
        return (
            None,
            RecoveryReport::cold(format!("unsupported format version {version}")),
        );
    }

    let mut snap = MemoSnapshot::default();
    let mut report = RecoveryReport {
        outcome: RecoveryOutcome::Restored,
        cold_start_reason: None,
        sections_expected: section_count,
        sections: Vec::new(),
        l1_entries_restored: 0,
        l1_entries_discarded: 0,
        l2_entries_restored: 0,
        l2_entries_discarded: 0,
        adaptive_restored: false,
        quality_restored: false,
        torn_tail: false,
        applied: None,
    };

    let mut pos = FILE_HEADER_BYTES;
    for _ in 0..section_count {
        let remaining = bytes.len() - pos;
        if remaining < SECTION_HEADER_BYTES {
            report.torn_tail = true;
            report.sections.push(SectionReport {
                tag: 0,
                name: "torn",
                disposition: SectionDisposition::Discarded {
                    reason: "section header truncated".into(),
                },
            });
            break;
        }
        let header = &bytes[pos..pos + SECTION_HEADER_BYTES];
        let hcrc = u32::from_le_bytes(header[16..20].try_into().unwrap());
        if crc32(&crc, &header[..16]) != hcrc {
            // Metadata is critical: a corrupt header means the length
            // field cannot be trusted, so everything past it is a torn
            // tail.
            report.torn_tail = true;
            report.sections.push(SectionReport {
                tag: 0,
                name: "torn",
                disposition: SectionDisposition::Discarded {
                    reason: "section header CRC mismatch".into(),
                },
            });
            break;
        }
        let tag = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let payload_len = u64::from_le_bytes(header[4..12].try_into().unwrap()) as usize;
        let payload_crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
        pos += SECTION_HEADER_BYTES;
        let available = bytes.len() - pos;
        let truncated = payload_len > available;
        let payload = &bytes[pos..pos + payload_len.min(available)];
        let crc_ok = !truncated && crc32(&crc, payload) == payload_crc;

        let disposition = match tag {
            TAG_L1_ENTRIES | TAG_L2_ENTRIES => {
                let (entries, restored, discarded) =
                    decode_entries(&crc, payload, payload_len, crc_ok);
                let (r, d) = (restored, discarded);
                if tag == TAG_L1_ENTRIES {
                    snap.l1_entries = entries;
                    report.l1_entries_restored += r;
                    report.l1_entries_discarded += d;
                } else {
                    snap.l2_entries = entries;
                    report.l2_entries_restored += r;
                    report.l2_entries_discarded += d;
                }
                if crc_ok {
                    SectionDisposition::Salvaged
                } else {
                    SectionDisposition::PartiallySalvaged {
                        restored: r,
                        discarded: d,
                    }
                }
            }
            _ if !crc_ok => SectionDisposition::Discarded {
                reason: if truncated {
                    "payload truncated".into()
                } else {
                    "payload CRC mismatch".into()
                },
            },
            TAG_GEOMETRY => match decode_geometry(payload) {
                Some(g) => {
                    snap.geometry = Some(g);
                    SectionDisposition::Salvaged
                }
                None => SectionDisposition::Discarded {
                    reason: "geometry payload malformed".into(),
                },
            },
            TAG_LUT_STATS => match decode_stats(payload) {
                Some((l1, l2)) => {
                    snap.l1_stats = Some(l1);
                    snap.l2_stats = Some(l2);
                    SectionDisposition::Salvaged
                }
                None => SectionDisposition::Discarded {
                    reason: "stats payload malformed".into(),
                },
            },
            TAG_ADAPTIVE => match decode_adaptive(payload) {
                Some(a) => {
                    snap.adaptive = Some(a);
                    report.adaptive_restored = true;
                    SectionDisposition::Salvaged
                }
                None => SectionDisposition::Discarded {
                    reason: "adaptive payload malformed".into(),
                },
            },
            TAG_QUALITY => match decode_quality(payload) {
                Some(q) => {
                    snap.quality = Some(q);
                    report.quality_restored = true;
                    SectionDisposition::Salvaged
                }
                None => SectionDisposition::Discarded {
                    reason: "quality payload malformed".into(),
                },
            },
            _ => SectionDisposition::Skipped,
        };
        report.sections.push(SectionReport {
            tag,
            name: section_name(tag),
            disposition,
        });
        if truncated {
            // The stream ended inside this payload: everything after it
            // is gone.
            report.torn_tail = true;
            break;
        }
        pos += payload_len;
    }

    let any_salvaged = report.sections.iter().any(|s| {
        matches!(
            s.disposition,
            SectionDisposition::Salvaged | SectionDisposition::PartiallySalvaged { .. }
        )
    });
    if !any_salvaged {
        report.outcome = RecoveryOutcome::ColdStart;
        report.cold_start_reason = Some("no section salvaged".into());
        return (None, report);
    }
    (Some(snap), report)
}

/// Decode entry records, validating each record's own CRC. When the
/// section's payload CRC already validated, records are trusted except
/// for a defensive `lut_id` range check; otherwise each record is
/// admitted only if its CRC matches (a flipped record is discarded, the
/// rest salvaged; a truncated tail is discarded).
fn decode_entries(
    crc: &TableCrc,
    payload: &[u8],
    promised_len: usize,
    crc_ok: bool,
) -> (Vec<ExportedEntry>, u64, u64) {
    let expected = (promised_len / ENTRY_RECORD_BYTES) as u64;
    let mut entries = Vec::new();
    let mut offset = 0usize;
    while offset + ENTRY_RECORD_BYTES <= payload.len() {
        let rec = &payload[offset..offset + ENTRY_RECORD_BYTES];
        offset += ENTRY_RECORD_BYTES;
        let body = &rec[..17];
        let rec_crc = u32::from_le_bytes(rec[17..21].try_into().unwrap());
        if !crc_ok && crc32(crc, body) != rec_crc {
            continue; // corrupt record: discard, keep scanning.
        }
        let Some(lut_id) = LutId::new(body[0]) else {
            continue; // out-of-range id: never admit it.
        };
        entries.push(ExportedEntry {
            lut_id,
            crc: u64::from_le_bytes(body[1..9].try_into().unwrap()),
            data: u64::from_le_bytes(body[9..17].try_into().unwrap()),
        });
    }
    let restored = entries.len() as u64;
    (entries, restored, expected.saturating_sub(restored))
}

fn decode_geometry(payload: &[u8]) -> Option<SnapshotGeometry> {
    let mut r = Reader::new(payload);
    let l1_sets = r.u64()?;
    let l1_ways = r.u64()?;
    let data_width_bytes = r.u32()?;
    let has_l2 = r.u8()? != 0;
    let l2_sets = r.u64()?;
    let l2_ways = r.u64()?;
    if !r.done() {
        return None;
    }
    Some(SnapshotGeometry {
        l1_sets,
        l1_ways,
        data_width_bytes,
        l2: has_l2.then_some((l2_sets, l2_ways)),
    })
}

fn decode_stats(payload: &[u8]) -> Option<(LutStats, LutStats)> {
    let mut r = Reader::new(payload);
    let mut read = || -> Option<LutStats> {
        Some(LutStats {
            hits: r.u64()?,
            misses: r.u64()?,
            inserts: r.u64()?,
            evictions: r.u64()?,
            invalidations: r.u64()?,
        })
    };
    let l1 = read()?;
    let l2 = read()?;
    if !r.done() {
        return None;
    }
    Some((l1, l2))
}

fn decode_adaptive(payload: &[u8]) -> Option<AdaptiveState> {
    let mut r = Reader::new(payload);
    let config = AdaptiveConfig {
        target_error: r.f64()?,
        raise_margin: r.f64()?,
        normal_window: r.u64()?,
        profile_window: r.u64()?,
        min_bits: r.u32()?,
        max_bits: r.u32()?,
    };
    let bits = r.u32()?;
    let profiling = r.u8()? != 0;
    let remaining = r.u64()?;
    let err_sum = r.f64()?;
    let err_count = r.u64()?;
    let history_len = r.u64()?;
    // A plausibility bound: each pair costs 12 bytes, so the length can
    // never exceed the remaining payload.
    if history_len > (payload.len() as u64) / 12 {
        return None;
    }
    let mut history = Vec::with_capacity(history_len as usize);
    for _ in 0..history_len {
        let bits = r.u32()?;
        let err = r.f64()?;
        history.push((bits, err));
    }
    if !r.done() {
        return None;
    }
    Some(AdaptiveState {
        config,
        bits,
        profiling,
        remaining,
        err_sum,
        err_count,
        history,
    })
}

fn decode_quality(payload: &[u8]) -> Option<QualityState> {
    let mut r = Reader::new(payload);
    let stage = stage_from_u8(r.u8()?)?;
    let hits_seen = r.u64()?;
    let clean_windows = r.u32()?;
    let probe_wait = r.u64()?;
    let probe_period = r.u64()?;
    let comparisons = r.u64()?;
    let large_errors = r.u64()?;
    let escalations = r.u64()?;
    let probes = r.u64()?;
    let window_len = r.u64()?;
    if window_len > (payload.len() as u64) / 8 {
        return None;
    }
    let mut window = Vec::with_capacity(window_len as usize);
    for _ in 0..window_len {
        window.push(r.f64()?);
    }
    if !r.done() {
        return None;
    }
    Some(QualityState {
        stage,
        hits_seen,
        clean_windows,
        probe_wait,
        probe_period,
        comparisons,
        large_errors,
        escalations,
        probes,
        window,
    })
}

// ---------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------

/// How a [`CrashPoint`] damages the snapshot stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Truncate the stream at the offset — the classic torn write of a
    /// kill mid-`write(2)`.
    Truncate,
    /// Flip one bit at the offset — latent media corruption.
    BitFlip,
}

/// A seeded kill-at-random-point injector: damages an encoded snapshot
/// at a deterministic pseudo-random offset so tests can sweep crash
/// points reproducibly.
///
/// # Examples
///
/// ```
/// use axmemo_core::snapshot::{CrashMode, CrashPoint, MemoSnapshot};
///
/// let snap = MemoSnapshot::default();
/// let mut bytes = snap.encode();
/// CrashPoint::seeded(42, CrashMode::Truncate, bytes.len()).apply(&mut bytes);
/// let (_state, report) = MemoSnapshot::recover(&bytes); // never panics
/// assert!(report.sections_expected <= 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Damage mode.
    pub mode: CrashMode,
    /// Byte offset the damage lands on (`< len` passed to
    /// [`CrashPoint::seeded`]).
    pub offset: usize,
    /// Bit index flipped in [`CrashMode::BitFlip`] mode.
    pub bit: u8,
}

impl CrashPoint {
    /// Derive a crash point for a stream of `len` bytes from a seed
    /// (SplitMix64 over the seed; deterministic across runs and
    /// platforms).
    pub fn seeded(seed: u64, mode: CrashMode, len: usize) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let offset = (next() % len.max(1) as u64) as usize;
        let bit = (next() % 8) as u8;
        Self { mode, offset, bit }
    }

    /// Apply the damage to `bytes` in place.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let offset = self.offset.min(bytes.len() - 1);
        match self.mode {
            CrashMode::Truncate => bytes.truncate(offset),
            CrashMode::BitFlip => bytes[offset] ^= 1 << self.bit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoConfig;

    fn warm_lut() -> TwoLevelLut {
        let mut lut = TwoLevelLut::new(&MemoConfig::l1_l2(1024, 8 * 1024));
        for i in 0..200u64 {
            lut.update(LutId::new((i % 3) as u8).unwrap(), i * 1_103, i);
        }
        lut
    }

    #[test]
    fn encode_recover_roundtrip_is_lossless() {
        let lut = warm_lut();
        let qm = QualityMonitor::new();
        let snap = MemoSnapshot::capture(&lut, None, Some(&qm));
        let bytes = snap.encode();
        let (recovered, report) = MemoSnapshot::recover(&bytes);
        let recovered = recovered.expect("clean bytes restore");
        assert_eq!(recovered, snap);
        assert_eq!(report.outcome, RecoveryOutcome::Restored);
        assert!(!report.torn_tail);
        assert_eq!(report.entries_discarded(), 0);
        assert_eq!(
            report.entries_restored(),
            (snap.l1_entries.len() + snap.l2_entries.len()) as u64
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = MemoSnapshot::default();
        let bytes = snap.encode();
        let (recovered, report) = MemoSnapshot::recover(&bytes);
        assert_eq!(recovered, Some(snap));
        assert_eq!(report.outcome, RecoveryOutcome::Restored);
    }

    #[test]
    fn bad_magic_is_reported_cold_start() {
        let mut bytes = MemoSnapshot::default().encode();
        bytes[0] ^= 0xFF;
        let (state, report) = MemoSnapshot::recover(&bytes);
        assert!(state.is_none());
        assert_eq!(report.outcome, RecoveryOutcome::ColdStart);
        assert_eq!(report.cold_start_reason.as_deref(), Some("bad magic"));
    }

    #[test]
    fn unsupported_version_is_reported_cold_start() {
        let crc = TableCrc::new(CrcWidth::W32);
        let mut bytes = MemoSnapshot::default().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let fixed = crc32(&crc, &bytes[..16]);
        bytes[16..20].copy_from_slice(&fixed.to_le_bytes());
        let (state, report) = MemoSnapshot::recover(&bytes);
        assert!(state.is_none());
        assert!(report
            .cold_start_reason
            .as_deref()
            .unwrap()
            .contains("version"));
    }

    #[test]
    fn flipped_entry_record_is_discarded_not_admitted() {
        let lut = warm_lut();
        let snap = MemoSnapshot::capture(&lut, None, None);
        let mut bytes = snap.encode();
        // Flip a byte inside the first L1 entry record's data field.
        // Layout: file header, then geometry section, then L1 entries.
        let geometry_payload = 37;
        let first_record =
            FILE_HEADER_BYTES + SECTION_HEADER_BYTES + geometry_payload + SECTION_HEADER_BYTES;
        bytes[first_record + 10] ^= 0x40;
        let (state, report) = MemoSnapshot::recover(&bytes);
        let state = state.expect("rest of the snapshot salvages");
        assert_eq!(report.l1_entries_discarded, 1);
        assert_eq!(state.l1_entries.len(), snap.l1_entries.len() - 1);
        // The damaged record's payload never appears.
        let damaged = snap.l1_entries[0];
        assert!(state
            .l1_entries
            .iter()
            .all(|e| !(e.crc == damaged.crc && e.data != damaged.data)));
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let lut = warm_lut();
        let snap = MemoSnapshot::capture(&lut, None, None);
        let bytes = snap.encode();
        // Cut in the middle of the L2 entry section payload: the final
        // lut_stats section (20 B header + 80 B payload) disappears
        // entirely and the L2 payload loses its tail.
        let mut cut = bytes.clone();
        cut.truncate(bytes.len() - (20 + 80 + 10));
        let (state, report) = MemoSnapshot::recover(&cut);
        let state = state.expect("prefix salvages");
        assert!(report.torn_tail);
        assert_eq!(state.l1_entries, snap.l1_entries);
        assert!(state.l2_entries.len() < snap.l2_entries.len());
    }

    #[test]
    fn atomic_write_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("axmemo_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.snap");
        let snap = MemoSnapshot::capture(&warm_lut(), None, None);
        let n = snap.write_atomic(&path).expect("write");
        assert_eq!(n, snap.encode().len() as u64);
        // No temp file left behind.
        assert!(!dir.join("unit.snap.tmp").exists());
        let (loaded, report) = MemoSnapshot::load(&path).expect("load");
        assert_eq!(loaded, Some(snap));
        assert_eq!(report.outcome, RecoveryOutcome::Restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_names_the_path() {
        let path = Path::new("/nonexistent/axmemo.snap");
        let err = MemoSnapshot::load(path).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/axmemo.snap"));
    }

    #[test]
    fn crash_points_are_deterministic_per_seed() {
        let a = CrashPoint::seeded(7, CrashMode::BitFlip, 1000);
        let b = CrashPoint::seeded(7, CrashMode::BitFlip, 1000);
        assert_eq!(a, b);
        let c = CrashPoint::seeded(8, CrashMode::BitFlip, 1000);
        assert!(a.offset != c.offset || a.bit != c.bit);
        assert!(a.offset < 1000);
    }

    #[test]
    fn snapshot_geometry_reports_both_levels() {
        let lut = TwoLevelLut::new(&MemoConfig::l1_l2(1024, 8 * 1024));
        let geo = SnapshotGeometry::of(&lut);
        assert_eq!(geo.l1_sets, 16);
        assert!(geo.l2.is_some());
    }

    #[test]
    fn restore_policy_parses_cli_spellings() {
        assert_eq!(
            RestorePolicy::parse("oldest"),
            Some(RestorePolicy::OldestFirst)
        );
        assert_eq!(RestorePolicy::parse("mru"), Some(RestorePolicy::MruFirst));
        assert_eq!(RestorePolicy::parse("bogus"), None);
        assert_eq!(RestorePolicy::default(), RestorePolicy::OldestFirst);
        assert_eq!(RestorePolicy::MruFirst.label(), "mru");
    }
}
