//! Crash-consistency exploration for the simulated Ext4 ecosystem.
//!
//! The paper's dependency violations corrupt file systems through
//! *completed* operations (Figure 1: a `sparse_super2` resize). This
//! crate asks the complementary robustness question: what does every
//! *interrupted* operation leave behind? It takes the write/flush
//! stream a [`blockdev::RecordingDevice`] captured, enumerates crash
//! points over it ([`explore`]), materialises the post-crash image for
//! each, and pushes the image through the real recovery stack —
//! `e2fsck -n -f`, `e2fsck -y -f` with a backup-superblock fallback
//! (locations supplied by [`e2fstools::backup_superblock_candidates`],
//! themselves a cross-component dependency on the `mke2fs` sparse
//! features), and a read-only remount with a durable-data audit.
//!
//! Every crash point lands in one of four classes ([`Verdict`]):
//! `Consistent`, `Repairable`, `DataLoss` or `Unrecoverable`. For a
//! journalled workload the first two are the contract: the jbd2-style
//! commit protocol (data, flush, commit record, flush) must make every
//! write prefix recoverable. [`workloads`] packages the operations the
//! repro drives: `mke2fs` format, the Figure 1 resize, journalled file
//! writes, and `e4defrag`.
//!
//! [`explore`] is one engine: it plans every schedule's image digest
//! from the trace, shares verdicts between schedules with the same
//! image and durability contract (and with a persistent
//! [`VerdictStore`]), builds only the remaining class representatives
//! on a rolling copy-on-write device, and classifies them on the shared
//! worker pool. The `oracle` feature adds `explore_reference`, which
//! replays and classifies every schedule with no dedup: the reference
//! the equivalence tests and the benchmark hold the engine to.
//!
//! # Examples
//!
//! ```
//! use crashsim::{explore, journaled_write_workload, ExploreOptions, Verdict};
//!
//! let files = vec![("note".to_string(), vec![42u8; 100])];
//! let workload = journaled_write_workload(&files).unwrap();
//! let report = explore(&workload, &ExploreOptions::sampled(4)).unwrap();
//! assert!(report.outcomes.iter().all(|o| o.verdict <= Verdict::Repairable));
//! ```

mod explore;
#[cfg(any(test, feature = "oracle"))]
mod oracle;
mod report;
mod workloads;

pub use blockdev::{IoEvent, IoTrace, StoreKey, StoreOpenReport, VerdictStore};
pub use explore::{explore, ExploreOptions};
#[cfg(any(test, feature = "oracle"))]
pub use oracle::explore_reference;
pub use report::{
    CrashKind, CrashOutcome, CrashReport, ExploreStats, OutcomeCore, Verdict, VerdictCounts,
};
pub use workloads::{
    defrag_workload, figure1_resize_workload, format_workload, generated_corpus,
    generated_workload, journaled_write_workload, CorpusSpec, DurableExpectation, Workload,
};
