//! Property-based equivalence of the engine's trace-planned dedup on
//! generated multi-op corpora: under every prefix cap, with and without
//! deep reordering, on 1 and 2 threads, the engine must match the
//! replaying reference explorer outcome for outcome while pruning
//! schedules, and a run over a warm verdict store must build and
//! classify nothing.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{race_engine_against_reference, with_missing_files, CAPS};
use confdep_suite::crashsim::{
    explore, generated_workload, CorpusSpec, ExploreOptions, OutcomeCore, Verdict, VerdictStore,
};

proptest! {
    // each case enumerates a generated multi-op trace under every cap
    // and reorder setting, replaying every schedule for the reference
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn por_agrees_with_exhaustive_on_generated_corpora(
        seed in 0u64..u64::MAX,
        ops in 4usize..9,
        batch in 1u32..5,
    ) {
        let w = generated_workload(&CorpusSpec { seed, ops, max_batch_ops: batch }).unwrap();
        for max_prefix_points in CAPS {
            for deep_reorder in [false, true] {
                let opts =
                    ExploreOptions { max_prefix_points, deep_reorder, ..ExploreOptions::corpus() };
                race_engine_against_reference(&w, &opts)?;
            }
        }

        // the durability half of the dedup key, under deep reordering
        let lossy = with_missing_files(&w);
        let reference = race_engine_against_reference(&lossy, &ExploreOptions::corpus())?;
        prop_assert!(reference.outcomes.iter().any(|o| o.verdict == Verdict::DataLoss));

        // the corpus configuration enumerates deep reorderings, which the
        // dedup collapses into fewer classes than schedules
        let engine = explore(&w, &ExploreOptions::corpus().with_threads(2)).unwrap();
        prop_assert!(engine.stats.schedules_pruned > 0);
        prop_assert_eq!(
            engine.stats.por_classes + engine.stats.schedules_pruned,
            engine.outcomes.len()
        );
    }
}

#[test]
fn warm_disk_store_replays_zero_images() {
    let path =
        std::env::temp_dir().join(format!("crashsim_por_equiv_{}.vstore", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let w = generated_workload(&CorpusSpec { seed: 99, ops: 8, max_batch_ops: 3 }).unwrap();

    let cold_store: Arc<VerdictStore<OutcomeCore>> = Arc::new(VerdictStore::open(&path));
    let cold =
        explore(&w, &ExploreOptions::corpus().with_store(Arc::clone(&cold_store))).unwrap();
    assert!(cold.stats.images_classified > 0);
    drop(cold_store);

    let warm_store: Arc<VerdictStore<OutcomeCore>> = Arc::new(VerdictStore::open(&path));
    assert_eq!(warm_store.preloaded(), cold.stats.por_classes);
    let warm =
        explore(&w, &ExploreOptions::corpus().with_store(Arc::clone(&warm_store))).unwrap();
    assert_eq!(warm.stats.images_classified, 0);
    assert_eq!(warm.stats.blocks_replayed, 0);
    assert_eq!(cold.canonical_signature(), warm.canonical_signature());
    let _ = std::fs::remove_file(&path);
}
