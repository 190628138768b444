//! Property-based equivalence of the crash-exploration engine and the
//! replaying reference explorer: on randomized journalled workloads,
//! under every prefix cap, with and without deep reordering, on 1 and 2
//! threads and over a cold and a warm verdict store, the engine must
//! produce the reference's outcomes in the reference's order — dedup
//! and store hits never changing a verdict — while writing no more
//! blocks.

mod common;

use proptest::prelude::*;

use common::{race_engine_against_reference, with_missing_files, CAPS};
use confdep_suite::crashsim::{journaled_write_workload, ExploreOptions, Verdict};

/// Random small files for a journalled workload: 1–3 files with
/// distinct names, arbitrary fill bytes and sizes that exercise the
/// empty, sub-block and multi-block cases.
fn workload_files() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    prop::collection::vec((0u8..255, 0usize..2500), 1..4).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (byte, len))| (format!("file{i}"), vec![byte; len]))
            .collect()
    })
}

proptest! {
    // each case races the engine against the reference under every cap
    // and reorder setting, so a handful of cases compares thousands of
    // classified images
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn all_engine_configurations_agree(files in workload_files()) {
        let w = journaled_write_workload(&files).unwrap();
        for max_prefix_points in CAPS {
            for deep_reorder in [false, true] {
                let opts =
                    ExploreOptions { max_prefix_points, deep_reorder, ..ExploreOptions::default() };
                race_engine_against_reference(&w, &opts)?;
            }
        }
        // the durability half of the dedup key
        let lossy = with_missing_files(&w);
        let reference = race_engine_against_reference(&lossy, &ExploreOptions::default())?;
        prop_assert!(reference.outcomes.iter().any(|o| o.verdict == Verdict::DataLoss));
    }
}
