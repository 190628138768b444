//! Report types: what happened at each explored crash point.

use serde::{Deserialize, Serialize};

/// How a crash image was derived from the recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashKind {
    /// Power failed after exactly `writes` writes reached the platter
    /// (in issue order, nothing reordered).
    Prefix {
        /// Writes that completed before the failure.
        writes: usize,
    },
    /// Write number `write` (1-based) was torn: only its first
    /// `persisted` bytes made it, the rest of the block kept its old
    /// contents.
    TornWrite {
        /// The interrupted write.
        write: usize,
        /// Bytes of the new data that persisted.
        persisted: usize,
    },
    /// The device had a volatile write cache: at the crash, every write
    /// after the last completed flush barrier was dropped — except
    /// write `straggler` (1-based), which the cache had already evicted
    /// out of order.
    VolatileCache {
        /// Writes guaranteed durable by the last flush barrier.
        durable: usize,
        /// The one post-barrier write that persisted anyway.
        straggler: usize,
    },
    /// Deep reordering inside the volatile cache: the crash struck
    /// after write `crashed_at` (1-based) had been issued, the cache
    /// dropped everything after the last completed flush barrier —
    /// except write `straggler`, which it had evicted out of order.
    /// Unlike [`CrashKind::VolatileCache`], the straggler here is an
    /// *interior* post-barrier write (`straggler < crashed_at`), so one
    /// crash instant yields many reordering scenarios.
    ReorderedWrite {
        /// Writes guaranteed durable by the last flush barrier.
        durable: usize,
        /// The interior post-barrier write that persisted anyway.
        straggler: usize,
        /// The write whose completion the crash interrupted.
        crashed_at: usize,
    },
}

impl CrashKind {
    /// Writes guaranteed present in the crash image and covered by its
    /// durability contract — data loss is only judged against these.
    pub fn guaranteed_writes(&self) -> usize {
        match *self {
            CrashKind::Prefix { writes } => writes,
            CrashKind::TornWrite { write, .. } => write - 1,
            CrashKind::VolatileCache { durable, .. } => durable,
            CrashKind::ReorderedWrite { durable, .. } => durable,
        }
    }
}

/// The core of a classification: everything about a crash image's
/// fate except the [`CrashKind`] it was reached through. This is what
/// the digest dedup and the persistent verdict store key by image
/// content — two crash kinds producing byte-identical images
/// under the same durability contract share one `OutcomeCore`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCore {
    /// The classification.
    pub verdict: Verdict,
    /// Exit code of the deciding `e2fsck` run, when one completed.
    pub fsck_exit: Option<i32>,
    /// Number of fixes the repair applied.
    pub fixes: usize,
    /// Whether recovery needed a backup superblock.
    pub used_backup_superblock: bool,
    /// Human-readable explanation.
    pub detail: String,
}

impl OutcomeCore {
    /// Attaches the crash kind, yielding a full [`CrashOutcome`].
    pub fn into_outcome(self, kind: CrashKind) -> CrashOutcome {
        CrashOutcome {
            kind,
            verdict: self.verdict,
            fsck_exit: self.fsck_exit,
            fixes: self.fixes,
            used_backup_superblock: self.used_backup_superblock,
            detail: self.detail,
        }
    }
}

/// Outcome class of one crash point, worst last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// `e2fsck -n -f` finds nothing; the image mounts as-is.
    Consistent,
    /// `e2fsck -y` (possibly via a backup superblock) restores a clean,
    /// mountable image with all flush-covered data intact.
    Repairable,
    /// The image was repaired and mounts, but data a flush barrier had
    /// guaranteed durable is gone.
    DataLoss,
    /// No fsck strategy produced a clean, mountable image.
    Unrecoverable,
}

/// One explored crash point and its fate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrashOutcome {
    /// How the image was derived.
    pub kind: CrashKind,
    /// The classification.
    pub verdict: Verdict,
    /// Exit code of the deciding `e2fsck` run, when one ran to
    /// completion (0 = clean, 1 = corrected, 4 = uncorrected).
    pub fsck_exit: Option<i32>,
    /// Number of fixes the repair applied.
    pub fixes: usize,
    /// Whether recovery needed a backup superblock (`e2fsck -b`).
    pub used_backup_superblock: bool,
    /// Human-readable explanation.
    pub detail: String,
}

/// Per-verdict totals of a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictCounts {
    /// Crash points already consistent.
    pub consistent: usize,
    /// Crash points repaired losslessly.
    pub repairable: usize,
    /// Crash points repaired with durable data missing.
    pub data_loss: usize,
    /// Crash points no strategy recovered.
    pub unrecoverable: usize,
}

/// I/O-level accounting of one exploration run: the denominators any
/// future performance change is measured against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Crash points enumerated (= `outcomes.len()`).
    pub crash_points: usize,
    /// Block writes issued materialising crash images: the rolling
    /// device's advance up to the last class representative, plus one
    /// write per torn or straggler representative. At most `writes` plus
    /// `images_classified`; the replaying reference explorer pays O(W²).
    pub blocks_replayed: u64,
    /// Images pushed through the full recovery stack.
    pub images_classified: usize,
    /// Flush barriers observed in the recorded trace.
    pub flushes_observed: usize,
    /// Classification worker threads used.
    pub threads: usize,
    /// Block reads issued materialising crash images.
    #[serde(default)]
    pub blocks_read: u64,
    /// Bulk `read_blocks` calls during materialisation (their blocks are
    /// also counted into `blocks_read`).
    #[serde(default)]
    pub bulk_reads: u64,
    /// Bulk `write_blocks` calls during materialisation (their blocks
    /// are also counted into `blocks_replayed`).
    #[serde(default)]
    pub bulk_writes: u64,
    /// Per-read buffer allocations (`read_block_vec`) during
    /// materialisation.
    #[serde(default)]
    pub vec_allocs: u64,
    /// Crash schedules whose planned image digest and durability
    /// contract matched an earlier schedule's, so they share its
    /// verdict and were never materialised
    /// (`crash_points - por_classes`).
    #[serde(default)]
    pub schedules_pruned: usize,
    /// Distinct (image digest, durability contract) classes planned
    /// from the trace; each is answered by the store or by classifying
    /// one representative.
    #[serde(default)]
    pub por_classes: usize,
    /// Verdicts answered by the persistent cross-run store.
    #[serde(default)]
    pub store_hits: usize,
    /// Store lookups that had to fall through to classification.
    #[serde(default)]
    pub store_misses: usize,
}

/// Everything the explorer learned about one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrashReport {
    /// Workload name.
    pub workload: String,
    /// Writes in the recorded trace.
    pub writes: usize,
    /// Flush barriers in the recorded trace.
    pub flushes: usize,
    /// One entry per explored crash point.
    pub outcomes: Vec<CrashOutcome>,
    /// Accounting of the exploration itself (depends on the store and
    /// the thread count; excluded from report equality).
    #[serde(default)]
    pub stats: ExploreStats,
}

impl CrashReport {
    /// Totals by verdict.
    pub fn counts(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        for o in &self.outcomes {
            match o.verdict {
                Verdict::Consistent => c.consistent += 1,
                Verdict::Repairable => c.repairable += 1,
                Verdict::DataLoss => c.data_loss += 1,
                Verdict::Unrecoverable => c.unrecoverable += 1,
            }
        }
        c
    }

    /// Crash points that left the image in need of repair (or worse).
    pub fn corrupting(&self) -> usize {
        self.outcomes.len() - self.counts().consistent
    }

    /// The worst verdict seen, or `Consistent` for an empty report.
    pub fn worst(&self) -> Verdict {
        self.outcomes.iter().map(|o| o.verdict).max().unwrap_or(Verdict::Consistent)
    }

    /// A canonical rendering of the outcomes: one string per crash
    /// point, sorted. Two explorations agree exactly when their
    /// signatures are equal, regardless of explorer, thread count or
    /// store.
    pub fn canonical_signature(&self) -> Vec<String> {
        let mut sig: Vec<String> = self.outcomes.iter().map(|o| format!("{o:?}")).collect();
        sig.sort();
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(verdict: Verdict) -> CrashOutcome {
        CrashOutcome {
            kind: CrashKind::Prefix { writes: 0 },
            verdict,
            fsck_exit: Some(0),
            fixes: 0,
            used_backup_superblock: false,
            detail: String::new(),
        }
    }

    #[test]
    fn verdicts_order_by_severity() {
        assert!(Verdict::Consistent < Verdict::Repairable);
        assert!(Verdict::Repairable < Verdict::DataLoss);
        assert!(Verdict::DataLoss < Verdict::Unrecoverable);
    }

    #[test]
    fn counts_and_worst() {
        let report = CrashReport {
            workload: "t".to_string(),
            writes: 3,
            flushes: 1,
            outcomes: vec![
                outcome(Verdict::Consistent),
                outcome(Verdict::Repairable),
                outcome(Verdict::Repairable),
            ],
            stats: ExploreStats::default(),
        };
        let c = report.counts();
        assert_eq!((c.consistent, c.repairable, c.data_loss, c.unrecoverable), (1, 2, 0, 0));
        assert_eq!(report.corrupting(), 2);
        assert_eq!(report.worst(), Verdict::Repairable);
    }

    #[test]
    fn guaranteed_writes_per_kind() {
        assert_eq!(CrashKind::Prefix { writes: 5 }.guaranteed_writes(), 5);
        assert_eq!(CrashKind::TornWrite { write: 5, persisted: 100 }.guaranteed_writes(), 4);
        assert_eq!(CrashKind::VolatileCache { durable: 2, straggler: 5 }.guaranteed_writes(), 2);
        let deep = CrashKind::ReorderedWrite { durable: 2, straggler: 4, crashed_at: 6 };
        assert_eq!(deep.guaranteed_writes(), 2);
    }

    #[test]
    fn outcome_core_round_trips_into_outcome() {
        let core = OutcomeCore {
            verdict: Verdict::Repairable,
            fsck_exit: Some(1),
            fixes: 3,
            used_backup_superblock: true,
            detail: "fixed".to_string(),
        };
        let json = serde_json::to_string(&core).unwrap();
        let back: OutcomeCore = serde_json::from_str(&json).unwrap();
        assert_eq!(back, core);
        let kind = CrashKind::ReorderedWrite { durable: 1, straggler: 2, crashed_at: 3 };
        let full = core.into_outcome(kind);
        assert_eq!(full.kind, kind);
        assert_eq!(full.verdict, Verdict::Repairable);
        assert!(full.used_backup_superblock);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = CrashReport {
            workload: "t".to_string(),
            writes: 1,
            flushes: 0,
            outcomes: vec![outcome(Verdict::Unrecoverable)],
            stats: ExploreStats { crash_points: 1, threads: 2, ..ExploreStats::default() },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: CrashReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workload, report.workload);
        assert_eq!(back.outcomes[0].verdict, Verdict::Unrecoverable);
        assert_eq!(back.stats, report.stats);
    }

    #[test]
    fn stats_default_when_absent_from_json() {
        // reports serialised before the stats field existed still parse
        let json = r#"{"workload":"t","writes":0,"flushes":0,"outcomes":[]}"#;
        let back: CrashReport = serde_json::from_str(json).unwrap();
        assert_eq!(back.stats, ExploreStats::default());
    }

    #[test]
    fn canonical_signature_ignores_order_but_not_content() {
        let a = CrashReport {
            workload: "t".to_string(),
            writes: 2,
            flushes: 0,
            outcomes: vec![outcome(Verdict::Consistent), outcome(Verdict::Repairable)],
            stats: ExploreStats::default(),
        };
        let mut b = a.clone();
        b.outcomes.reverse();
        b.stats.schedules_pruned = 7; // stats never affect the signature
        assert_eq!(a.canonical_signature(), b.canonical_signature());
        let mut c = a.clone();
        c.outcomes[0].verdict = Verdict::DataLoss;
        assert_ne!(a.canonical_signature(), c.canonical_signature());
    }
}
