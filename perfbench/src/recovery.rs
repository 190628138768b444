//! `recovery`: crash exploration plus fault-injection campaigns per op.
//!
//! Every op does the same work: it explores each generated crash
//! workload of a small seeded corpus with the corpus engine (deep
//! reordering plus partial-order reduction, no persistent store), then
//! runs a single-fault campaign on each of the 12 faultsim grid
//! configurations, with reduced sampling caps and a fresh verdict cache
//! per campaign. Outcomes must match the ones set-up recorded, every
//! schedule must get a verdict, and no fault campaign may show a panic
//! or a policy violation.

use crashsim::{
    explore, generated_workload, CorpusSpec, ExploreOptions, Workload as CrashWorkload,
};
use faultsim::{run_campaign, CampaignConfig, CampaignOptions, FaultWorkload, VerdictCache};

use crate::trace::Tracer;
use crate::{splitmix, Workload};

/// Generated crash workloads per op.
const CRASH_WORKLOADS: usize = 2;
/// File operations per generated crash workload, with journal group
/// commit over up to this many ops.
const CRASH_OPS: usize = 3;
const CRASH_BATCH: u32 = 2;
/// Configurations in the faultsim grid.
const GRID: usize = 12;

/// Reduced fault sampling caps: one read-fault schedule per grid
/// configuration, so that the whole op takes tens of milliseconds.
fn campaign_options() -> CampaignOptions {
    CampaignOptions {
        threads: 0,
        write_points: 0,
        read_points: 1,
        flush_points: 0,
        corrupt_points: 0,
        verdict_cache: true,
    }
}

/// What an op must reproduce: outcome counts per crash workload and
/// per grid configuration.
#[derive(PartialEq, Eq, Clone, Debug, Default)]
struct Outcomes {
    crash: Vec<(usize, [usize; 4])>,
    fault: Vec<(usize, [usize; 5])>,
}

pub struct Recovery {
    crash: Vec<CrashWorkload>,
    fault: Vec<FaultWorkload>,
    expected: Outcomes,
    /// The current op's engine stats.
    crash_stats: Vec<crashsim::ExploreStats>,
    fault_stats: Vec<faultsim::CampaignStats>,
}

impl Recovery {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = seed;
        let crash = (0..CRASH_WORKLOADS)
            .map(|_| {
                generated_workload(&CorpusSpec {
                    seed: splitmix(&mut rng),
                    ops: CRASH_OPS,
                    max_batch_ops: CRASH_BATCH,
                })
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let grid = CampaignConfig::full_grid();
        if grid.len() != GRID {
            return Err(format!(
                "faultsim grid has {} configurations, expected {GRID}",
                grid.len()
            ));
        }
        let fault = grid.into_iter().map(FaultWorkload::standard).collect();
        let mut w = Recovery {
            crash,
            fault,
            expected: Outcomes::default(),
            crash_stats: Vec::new(),
            fault_stats: Vec::new(),
        };
        // the reference outcomes: one op's worth
        w.expected = w.run(&mut Tracer::new())?;
        Ok(w)
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<Outcomes, String> {
        self.crash_stats.clear();
        self.fault_stats.clear();
        let mut got = Outcomes::default();
        let opts = ExploreOptions::corpus();
        for (j, workload) in self.crash.iter().enumerate() {
            let report = tr
                .span("crashsim.explore", || explore(workload, &opts))
                .map_err(|e| format!("crash workload {j}: exploration failed: {e}"))?;
            if report.outcomes.len() != report.stats.crash_points {
                return Err(format!("crash workload {j}: unclassified crash points"));
            }
            let c = report.counts();
            got.crash.push((
                report.outcomes.len(),
                [c.consistent, c.repairable, c.data_loss, c.unrecoverable],
            ));
            self.crash_stats.push(report.stats);
        }
        for (j, workload) in self.fault.iter().enumerate() {
            let report = tr
                .span("faultsim.campaign", || {
                    run_campaign(workload, &campaign_options(), &VerdictCache::new(true))
                })
                .map_err(|e| format!("grid configuration {j}: campaign failed: {e}"))?;
            let f = report.counts();
            if report.outcomes.len() != report.stats.faults_explored
                || !report.policy_honoured()
                || f.panic != 0
                || f.policy_violation != 0
            {
                return Err(format!("grid configuration {j}: a broken fault policy"));
            }
            got.fault.push((
                report.outcomes.len(),
                [
                    f.clean_error,
                    f.degraded_read_only,
                    f.data_loss,
                    f.policy_violation,
                    f.panic,
                ],
            ));
            self.fault_stats.push(report.stats);
        }
        Ok(got)
    }
}

impl Workload for Recovery {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> bool {
        match self.run(tr) {
            Ok(got) => got == self.expected,
            Err(e) => {
                eprintln!("perfbench: recovery op {i}: {e}");
                false
            }
        }
    }

    fn after_traced_op(&mut self, _i: u64, tr: &mut Tracer) {
        let explore_ms = tr.op_ms("crashsim.explore");
        let campaign_ms = tr.op_ms("faultsim.campaign");
        tr.record("crashsim.explore_ms", explore_ms);
        tr.record("faultsim.campaign_ms", campaign_ms);
        let crash = |f: fn(&crashsim::ExploreStats) -> u64| {
            self.crash_stats.iter().map(f).sum::<u64>() as f64
        };
        tr.record("crashsim.schedules", crash(|c| c.crash_points as u64));
        tr.record("crashsim.por_classes", crash(|c| c.por_classes as u64));
        tr.record(
            "crashsim.images_classified",
            crash(|c| c.images_classified as u64),
        );
        tr.record("crashsim.blocks_replayed", crash(|c| c.blocks_replayed));
        tr.record("blockdev.blocks_read", crash(|c| c.blocks_read));
        tr.record("blockdev.bulk_writes", crash(|c| c.bulk_writes));
        tr.record("blockdev.vec_allocs", crash(|c| c.vec_allocs));
        let fault = |f: fn(&faultsim::CampaignStats) -> usize| {
            self.fault_stats.iter().map(f).sum::<usize>() as f64
        };
        tr.record("faultsim.schedules", fault(|f| f.faults_explored));
        let hits = fault(|f| f.digest_cache_hits);
        let lookups = hits + fault(|f| f.digest_cache_misses);
        tr.record("faultsim.digest_hit_ratio", hits / lookups.max(1.0));
    }

    fn layers(&self) -> &'static [&'static str] {
        &[
            "crashsim.explore_ms",
            "crashsim.schedules",
            "crashsim.por_classes",
            "crashsim.images_classified",
            "crashsim.blocks_replayed",
            "blockdev.blocks_read",
            "blockdev.bulk_writes",
            "blockdev.vec_allocs",
            "faultsim.campaign_ms",
            "faultsim.schedules",
            "faultsim.digest_hit_ratio",
        ]
    }
}
