//! The reference explorer: every schedule replayed from scratch and
//! classified, with no dedup and no store.
//!
//! It walks the same schedule enumeration as [`crate::explore`], but
//! builds each image by replaying the schedule's write prefix onto a
//! fresh copy of the pre-workload image (O(k) block writes for prefix
//! `k`, O(W²) in total) and classifies every image on its own. That
//! makes it slow and obviously right: the equivalence tests and the
//! benchmark's reference leg hold the engine to it outcome for outcome.
//! Compiled for tests and under the `oracle` feature only.

use blockdev::{BlockDevice, DeviceError, StatsDevice};
use conpool::{effective_threads, parallel_map};

use crate::explore::{absorb_io, classify_image, walk, ExploreOptions, Rolling};
use crate::report::{CrashReport, ExploreStats};
use crate::workloads::Workload;

/// A schedule's image as a replay recipe: the write prefix to apply and
/// an optional block overwrite on top.
type Recipe = (usize, Option<(u64, Vec<u8>)>);

/// Counts the walk's position: writes applied and writes durable at the
/// last barrier.
#[derive(Default)]
struct ReplayRoll {
    done: usize,
    durable: usize,
}

impl Rolling for ReplayRoll {
    type Image = Recipe;

    fn advance(&mut self, _block: u64, _data: &[u8], _pre: &[u8]) -> Result<(), DeviceError> {
        self.done += 1;
        Ok(())
    }

    fn barrier(&mut self) {
        self.durable = self.done;
    }

    fn prefix(&mut self) -> Result<Recipe, DeviceError> {
        Ok((self.done, None))
    }

    fn overwrite(
        &mut self,
        block: u64,
        _current: &[u8],
        bytes: &[u8],
    ) -> Result<Recipe, DeviceError> {
        Ok((self.done, Some((block, bytes.to_vec()))))
    }

    fn straggler(&mut self, _: usize, block: u64, data: &[u8]) -> Result<Recipe, DeviceError> {
        Ok((self.durable, Some((block, data.to_vec()))))
    }
}

/// Explores `workload` the slow way: each enumerated schedule is
/// replayed from the pre-workload image and classified, on
/// [`ExploreOptions::threads`] workers. The store is ignored. Outcomes
/// come back in enumeration order; `images_classified` equals
/// `crash_points`, and the class and store counters stay zero.
///
/// # Errors
///
/// Propagates device errors from replaying the trace.
pub fn explore_reference(
    workload: &Workload,
    opts: &ExploreOptions,
) -> Result<CrashReport, DeviceError> {
    let recipes = walk(workload, opts, &mut ReplayRoll::default(), None)?;
    let threads = effective_threads(opts.threads);
    let results = parallel_map(recipes, threads, |_, (kind, (prefix, overwrite))| {
        let mut dev = StatsDevice::new(workload.pre.clone());
        workload.trace.apply_prefix(&mut dev, prefix)?;
        if let Some((block, bytes)) = overwrite {
            dev.write_block(block, &bytes)?;
        }
        let io = dev.stats();
        let core = classify_image(dev.into_inner(), workload, kind.guaranteed_writes());
        Ok::<_, DeviceError>((core.into_outcome(kind), io))
    });
    let mut stats = ExploreStats {
        crash_points: results.len(),
        images_classified: results.len(),
        flushes_observed: workload.trace.flush_count(),
        threads,
        ..ExploreStats::default()
    };
    let mut outcomes = Vec::with_capacity(results.len());
    for result in results {
        let (outcome, io) = result?;
        absorb_io(&mut stats, io);
        outcomes.push(outcome);
    }
    Ok(CrashReport {
        workload: workload.name.clone(),
        writes: workload.trace.write_count(),
        flushes: workload.trace.flush_count(),
        outcomes,
        stats,
    })
}
