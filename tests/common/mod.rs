//! Shared checks for the crash-exploration equivalence tests.

use std::sync::Arc;

use proptest::prelude::*;

use confdep_suite::crashsim::{
    explore, explore_reference, CrashReport, DurableExpectation, ExploreOptions, VerdictStore,
    Workload,
};

/// Prefix caps the engine is raced under: uncapped, the clamped
/// degenerate caps, and two real samples.
pub const CAPS: [Option<usize>; 5] = [None, Some(0), Some(1), Some(3), Some(8)];

/// A report's outcomes in enumeration order (the canonical signature
/// only compares the sorted multiset; the engine also promises the
/// reference's order).
pub fn ordered_outcomes(report: &CrashReport) -> Vec<String> {
    report.outcomes.iter().map(|o| format!("{o:?}")).collect()
}

/// Races the engine against the replaying reference explorer on `w`
/// under `opts`, on 1 and 2 threads, without a store and then over a
/// cold and a warm one. Every run must match the reference outcome for
/// outcome, account for every schedule, and write no more blocks than
/// the reference; the warm run must build and classify nothing.
pub fn race_engine_against_reference(
    w: &Workload,
    opts: &ExploreOptions,
) -> Result<CrashReport, TestCaseError> {
    let reference = explore_reference(w, opts).unwrap();
    let want = ordered_outcomes(&reference);
    prop_assert_eq!(reference.stats.images_classified, reference.outcomes.len());
    for threads in [1, 2] {
        let plain = opts.clone().with_threads(threads);
        let stored = plain.clone().with_store(Arc::new(VerdictStore::in_memory(true)));
        for (leg, run) in [("no store", &plain), ("cold store", &stored), ("warm store", &stored)] {
            let r = explore(w, run).unwrap();
            let s = r.stats;
            let context = format!("{leg}, {threads} thread(s), {s:?}");
            prop_assert_eq!(&want, &ordered_outcomes(&r), "{context}");
            prop_assert_eq!(s.crash_points, r.outcomes.len(), "{context}");
            prop_assert_eq!(
                s.images_classified + s.schedules_pruned + s.store_hits,
                s.crash_points,
                "{context}"
            );
            prop_assert!(
                s.blocks_replayed <= reference.stats.blocks_replayed,
                "engine wrote {} blocks, reference {}: {context}",
                s.blocks_replayed,
                reference.stats.blocks_replayed
            );
            if leg == "warm store" {
                prop_assert_eq!(s.blocks_replayed, 0, "{context}");
                prop_assert_eq!(s.images_classified, 0, "{context}");
            }
        }
    }
    Ok(reference)
}

/// `w` with one never-written file made durable after every write,
/// latest first, so each crash point fails its audit on the file of its
/// own guarantee: byte-identical images under different durability
/// contracts then get different verdicts, and a dedup that merged them
/// would show.
pub fn with_missing_files(w: &Workload) -> Workload {
    let mut w = w.clone();
    for k in (1..=w.trace.write_count()).rev() {
        w.expectations.push(DurableExpectation {
            file: format!("missing{k}"),
            content: vec![1],
            durable_after: k,
        });
    }
    w
}
