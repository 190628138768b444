//! Crash-consistency exploration over the ecosystem's key workloads.
//!
//! Records each workload's write/flush stream, enumerates crash points
//! (write prefixes, torn final writes, out-of-order volatile-cache
//! states), pushes every post-crash image through the recovery stack,
//! and emits the classified results as JSON on stdout. Human-readable
//! progress goes to stderr so the JSON stays parseable.
//!
//! # Benchmark mode
//!
//! `repro_crashsim --bench` races two legs over the same workloads —
//!
//! * `sequential`: the reference explorer (every schedule replayed in
//!   full and classified, one thread, no dedup);
//! * `parallel_cached`: the engine (schedules planned and deduplicated
//!   from the trace, representatives built on a rolling CoW device and
//!   classified on the worker pool) —
//!
//! verifies both produce identical reports (canonical signature), and
//! writes the timings to `BENCH_crashsim.json` (`--out PATH` to
//! redirect). The corpus section races the reference against the
//! engine with a cold and then a warm persistent store. `--smoke`
//! shrinks the run for CI gates; `--threads N` pins the worker count
//! (default: one per core).

use std::sync::Arc;
use std::time::Instant;

use blockdev::DeviceError;
use crashsim::{
    defrag_workload, explore, explore_reference, figure1_resize_workload, format_workload,
    generated_corpus, journaled_write_workload, CrashReport, ExploreOptions, ExploreStats,
    OutcomeCore, StoreOpenReport, Verdict, VerdictCounts, VerdictStore, Workload,
};
use serde::Serialize;

/// One workload's results plus the derived summary numbers.
#[derive(Serialize)]
struct Entry {
    workload: String,
    writes: usize,
    flushes: usize,
    crash_points: usize,
    counts: VerdictCounts,
    worst: Verdict,
    corrupting: usize,
    stats: ExploreStats,
    outcomes: Vec<crashsim::CrashOutcome>,
}

impl Entry {
    fn from_report(report: CrashReport) -> Entry {
        Entry {
            workload: report.workload.clone(),
            writes: report.writes,
            flushes: report.flushes,
            crash_points: report.outcomes.len(),
            counts: report.counts(),
            worst: report.worst(),
            corrupting: report.corrupting(),
            stats: report.stats,
            outcomes: report.outcomes,
        }
    }
}

#[derive(Serialize)]
struct Summary {
    description: String,
    entries: Vec<Entry>,
}

/// An explorer under test: the engine or the reference.
type Explorer = fn(&Workload, &ExploreOptions) -> Result<CrashReport, DeviceError>;

/// One leg's measured run over one workload.
#[derive(Serialize, Default)]
struct Leg {
    wall_ms: f64,
    blocks_replayed: u64,
    images_classified: usize,
    schedules_pruned: usize,
    por_classes: usize,
    store_hits: usize,
    store_misses: usize,
    threads: usize,
}

impl Leg {
    /// Explores `reps` times and keeps the fastest wall time (the runs
    /// are deterministic, so the stats and the report are identical
    /// across repetitions unless a store warms up between them).
    fn measure(
        workload: &Workload,
        explorer: Explorer,
        opts: &ExploreOptions,
        reps: usize,
    ) -> (Leg, CrashReport) {
        let mut best: Option<(f64, CrashReport)> = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let report = explorer(workload, opts).unwrap_or_else(|e| {
                eprintln!("exploration of '{}' failed: {e}", workload.name);
                std::process::exit(1);
            });
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if best.as_ref().is_none_or(|(b, _)| wall_ms < *b) {
                best = Some((wall_ms, report));
            }
        }
        let (wall_ms, report) = best.expect("at least one repetition ran");
        let s = report.stats;
        (
            Leg {
                wall_ms,
                blocks_replayed: s.blocks_replayed,
                images_classified: s.images_classified,
                schedules_pruned: s.schedules_pruned,
                por_classes: s.por_classes,
                store_hits: s.store_hits,
                store_misses: s.store_misses,
                threads: s.threads,
            },
            report,
        )
    }
}

/// Per-workload comparison of the reference and the engine.
#[derive(Serialize)]
struct BenchRow {
    workload: String,
    writes: usize,
    flushes: usize,
    crash_points: usize,
    sequential: Leg,
    parallel_cached: Leg,
    wall_speedup_cached: f64,
    reports_identical: bool,
}

#[derive(Serialize)]
struct BenchTotals {
    sequential_wall_ms: f64,
    parallel_cached_wall_ms: f64,
    sequential_blocks_replayed: u64,
    engine_blocks_replayed: u64,
    schedules_pruned: usize,
    wall_speedup_cached: f64,
}

#[derive(Serialize)]
struct BenchSummary {
    description: String,
    smoke: bool,
    prefix_points_cap: usize,
    rows: Vec<BenchRow>,
    totals: BenchTotals,
    all_reports_identical: bool,
    corpus: CorpusSummary,
}

/// The reference vs the engine over a cold and then a warm store, per
/// corpus entry.
#[derive(Serialize)]
struct CorpusRow {
    workload: String,
    writes: usize,
    flushes: usize,
    schedules_enumerated: usize,
    exhaustive: Leg,
    por_cold: Leg,
    por_warm: Leg,
    prune_ratio: f64,
    wall_speedup_por: f64,
    wall_speedup_warm: f64,
    reports_identical: bool,
    verdict_counts_identical: bool,
}

#[derive(Serialize)]
struct CorpusTotals {
    exhaustive_wall_ms: f64,
    por_cold_wall_ms: f64,
    por_warm_wall_ms: f64,
    schedules_enumerated: usize,
    schedules_pruned: usize,
    por_classes: usize,
    prune_ratio: f64,
    warm_store_hits: usize,
    warm_images_classified: usize,
    warm_blocks_replayed: u64,
    corpus_wall_ratio_por: f64,
    corpus_wall_ratio_warm: f64,
}

#[derive(Serialize)]
struct CorpusSummary {
    description: String,
    store_path: String,
    /// What the cold leg saw opening its (freshly removed) store file.
    cold_store_open: StoreOpenReport,
    /// What the warm leg saw reopening the persisted store.
    warm_store_open: StoreOpenReport,
    workloads: usize,
    ops_per_workload: usize,
    max_batch_ops: u32,
    rows: Vec<CorpusRow>,
    totals: CorpusTotals,
    all_reports_identical: bool,
    warm_run_clean: bool,
}

/// Races the reference explorer's full deep-reorder enumeration against
/// the engine (cold store, then a second warm run over the persisted
/// verdicts) on a generated multi-op corpus. Exits nonzero if any
/// engine run's canonical signature or verdict-class counts diverge
/// from the reference.
fn run_corpus(smoke: bool, threads: usize, store_path: &std::path::Path) -> CorpusSummary {
    let (count, ops, batch) = if smoke { (2, 6, 2) } else { (3, 16, 4) };
    let corpus = generated_corpus(0xC0FFEE, count, ops, batch).unwrap_or_else(|e| {
        eprintln!("corpus generation failed: {e}");
        std::process::exit(1);
    });

    // the bench owns its store file: the cold leg must start empty
    let _ = std::fs::remove_file(store_path);
    let exhaustive_opts = ExploreOptions { deep_reorder: true, ..ExploreOptions::default() }
        .with_threads(threads);
    let cold_store: Arc<VerdictStore<OutcomeCore>> = Arc::new(VerdictStore::open(store_path));
    let cold_store_open = cold_store.open_report().clone();
    let cold_opts =
        ExploreOptions::corpus().with_threads(threads).with_store(Arc::clone(&cold_store));

    let mut rows: Vec<CorpusRow> = Vec::new();
    let mut reports = Vec::new();
    for workload in &corpus {
        eprintln!(
            "corpus '{}' ({} writes, {} flushes)...",
            workload.name,
            workload.trace.write_count(),
            workload.trace.flush_count()
        );
        // one repetition per leg: the store makes repeated runs
        // non-equivalent by design
        let (exhaustive, ex_report) =
            Leg::measure(workload, explore_reference, &exhaustive_opts, 1);
        let (por_cold, cold_report) = Leg::measure(workload, explore, &cold_opts, 1);
        reports.push((ex_report, cold_report));
        rows.push(CorpusRow {
            workload: workload.name.clone(),
            writes: workload.trace.write_count(),
            flushes: workload.trace.flush_count(),
            schedules_enumerated: 0, // filled below from the exhaustive report
            prune_ratio: 0.0,
            wall_speedup_por: exhaustive.wall_ms / por_cold.wall_ms.max(f64::EPSILON),
            wall_speedup_warm: 0.0,
            exhaustive,
            por_cold,
            por_warm: Leg::default(),
            reports_identical: false,
            verdict_counts_identical: false,
        });
    }

    // drop the cold handle and reopen: the warm leg must prove the
    // verdicts round-trip through the on-disk store, not the heap
    drop(cold_opts);
    drop(cold_store);
    let warm_store: Arc<VerdictStore<OutcomeCore>> = Arc::new(VerdictStore::open(store_path));
    let warm_store_open = warm_store.open_report().clone();
    eprintln!("warm store preloaded {} verdicts", warm_store.preloaded());
    let warm_opts =
        ExploreOptions::corpus().with_threads(threads).with_store(Arc::clone(&warm_store));

    let mut all_identical = true;
    let mut warm_clean = true;
    for ((row, workload), (ex_report, cold_report)) in
        rows.iter_mut().zip(&corpus).zip(&reports)
    {
        let (por_warm, warm_report) = Leg::measure(workload, explore, &warm_opts, 1);
        row.por_warm = por_warm;
        row.schedules_enumerated = ex_report.outcomes.len();
        row.prune_ratio =
            row.schedules_enumerated as f64 / (row.por_cold.por_classes.max(1)) as f64;
        row.wall_speedup_warm = row.exhaustive.wall_ms / row.por_warm.wall_ms.max(f64::EPSILON);
        let ex_sig = ex_report.canonical_signature();
        row.reports_identical = ex_sig == cold_report.canonical_signature()
            && ex_sig == warm_report.canonical_signature();
        row.verdict_counts_identical = ex_report.counts() == cold_report.counts()
            && ex_report.counts() == warm_report.counts();
        if row.por_warm.images_classified != 0 || row.por_warm.blocks_replayed != 0 {
            warm_clean = false;
        }
        all_identical &= row.reports_identical && row.verdict_counts_identical;
        eprintln!(
            "  enumerated {} -> {} classes ({:.1}x pruned) | exhaustive {:.1} ms | \
             por {:.1} ms | warm {:.1} ms ({} store hits) | identical: {}",
            row.schedules_enumerated,
            row.por_cold.por_classes,
            row.prune_ratio,
            row.exhaustive.wall_ms,
            row.por_cold.wall_ms,
            row.por_warm.wall_ms,
            row.por_warm.store_hits,
            row.reports_identical,
        );
    }

    let totals = CorpusTotals {
        exhaustive_wall_ms: rows.iter().map(|r| r.exhaustive.wall_ms).sum(),
        por_cold_wall_ms: rows.iter().map(|r| r.por_cold.wall_ms).sum(),
        por_warm_wall_ms: rows.iter().map(|r| r.por_warm.wall_ms).sum(),
        schedules_enumerated: rows.iter().map(|r| r.schedules_enumerated).sum(),
        schedules_pruned: rows.iter().map(|r| r.por_cold.schedules_pruned).sum(),
        por_classes: rows.iter().map(|r| r.por_cold.por_classes).sum(),
        prune_ratio: rows.iter().map(|r| r.schedules_enumerated).sum::<usize>() as f64
            / rows.iter().map(|r| r.por_cold.por_classes).sum::<usize>().max(1) as f64,
        warm_store_hits: rows.iter().map(|r| r.por_warm.store_hits).sum(),
        warm_images_classified: rows.iter().map(|r| r.por_warm.images_classified).sum(),
        warm_blocks_replayed: rows.iter().map(|r| r.por_warm.blocks_replayed).sum(),
        corpus_wall_ratio_por: rows.iter().map(|r| r.exhaustive.wall_ms).sum::<f64>()
            / rows.iter().map(|r| r.por_cold.wall_ms).sum::<f64>().max(f64::EPSILON),
        corpus_wall_ratio_warm: rows.iter().map(|r| r.exhaustive.wall_ms).sum::<f64>()
            / rows.iter().map(|r| r.por_warm.wall_ms).sum::<f64>().max(f64::EPSILON),
    };
    eprintln!(
        "corpus total: {} schedules -> {} classes ({:.1}x) | exhaustive {:.1} ms -> \
         por {:.1} ms ({:.2}x) -> warm {:.1} ms ({:.2}x, {} cross-run hits)",
        totals.schedules_enumerated,
        totals.por_classes,
        totals.prune_ratio,
        totals.exhaustive_wall_ms,
        totals.por_cold_wall_ms,
        totals.corpus_wall_ratio_por,
        totals.por_warm_wall_ms,
        totals.corpus_wall_ratio_warm,
        totals.warm_store_hits,
    );

    CorpusSummary {
        description: "corpus-scale crash exploration: the reference explorer's full \
                      deep-reorder enumeration vs the engine over a cold persistent store vs \
                      the engine over the warm store, on generated multi-op workloads under \
                      journal group commit"
            .to_string(),
        store_path: store_path.display().to_string(),
        cold_store_open,
        warm_store_open,
        workloads: count,
        ops_per_workload: ops,
        max_batch_ops: batch,
        rows,
        totals,
        all_reports_identical: all_identical,
        warm_run_clean: warm_clean,
    }
}

fn build_workloads(smoke: bool) -> Vec<Workload> {
    let built = if smoke {
        // one small journalled workload: enough writes for a handful of
        // crash points, seconds of wall time
        vec![journaled_write_workload(&[("tiny".to_string(), vec![0x55u8; 300])])]
    } else {
        let files = vec![
            ("first".to_string(), vec![0x41u8; 900]),
            ("second".to_string(), vec![0x42u8; 500]),
        ];
        vec![
            format_workload(),
            figure1_resize_workload(),
            journaled_write_workload(&files),
            defrag_workload(),
        ]
    };
    built
        .into_iter()
        .map(|w| {
            w.unwrap_or_else(|e| {
                eprintln!("workload construction failed: {e}");
                std::process::exit(1);
            })
        })
        .collect()
}

fn run_bench(smoke: bool, threads: usize, out: &str, store_path: Option<&str>) {
    let cap = if smoke { 8 } else { 64 };
    let reps = if smoke { 1 } else { 3 };
    let sequential_opts = ExploreOptions::sampled(cap);
    let cached_opts = ExploreOptions::sampled(cap).with_threads(threads);

    let mut rows = Vec::new();
    let mut all_identical = true;
    for workload in build_workloads(smoke) {
        eprintln!(
            "benchmarking '{}' ({} writes, {} flushes)...",
            workload.name,
            workload.trace.write_count(),
            workload.trace.flush_count()
        );
        let (sequential, seq_report) =
            Leg::measure(&workload, explore_reference, &sequential_opts, reps);
        let (parallel_cached, cached_report) =
            Leg::measure(&workload, explore, &cached_opts, reps);
        let identical = seq_report.canonical_signature() == cached_report.canonical_signature();
        all_identical &= identical;
        eprintln!(
            "  reference {:.1} ms ({} blocks) | engine {:.1} ms ({} blocks, {} schedules \
             pruned) | identical: {identical}",
            sequential.wall_ms,
            sequential.blocks_replayed,
            parallel_cached.wall_ms,
            parallel_cached.blocks_replayed,
            parallel_cached.schedules_pruned,
        );
        rows.push(BenchRow {
            workload: workload.name.clone(),
            writes: seq_report.writes,
            flushes: seq_report.flushes,
            crash_points: seq_report.outcomes.len(),
            wall_speedup_cached: sequential.wall_ms / parallel_cached.wall_ms.max(f64::EPSILON),
            sequential,
            parallel_cached,
            reports_identical: identical,
        });
    }

    let sum = |f: fn(&BenchRow) -> f64| rows.iter().map(f).sum::<f64>();
    let totals = BenchTotals {
        sequential_wall_ms: sum(|r| r.sequential.wall_ms),
        parallel_cached_wall_ms: sum(|r| r.parallel_cached.wall_ms),
        sequential_blocks_replayed: rows.iter().map(|r| r.sequential.blocks_replayed).sum(),
        engine_blocks_replayed: rows.iter().map(|r| r.parallel_cached.blocks_replayed).sum(),
        schedules_pruned: rows.iter().map(|r| r.parallel_cached.schedules_pruned).sum(),
        wall_speedup_cached: sum(|r| r.sequential.wall_ms)
            / sum(|r| r.parallel_cached.wall_ms).max(f64::EPSILON),
    };
    eprintln!(
        "total: reference {:.1} ms / {} blocks -> engine {:.1} ms ({:.2}x) / {} blocks, \
         {} schedules pruned",
        totals.sequential_wall_ms,
        totals.sequential_blocks_replayed,
        totals.parallel_cached_wall_ms,
        totals.wall_speedup_cached,
        totals.engine_blocks_replayed,
        totals.schedules_pruned,
    );

    let default_store = std::env::temp_dir().join("crashsim_corpus.vstore");
    let store_path = store_path
        .map(std::path::PathBuf::from)
        .unwrap_or(default_store);
    let corpus = run_corpus(smoke, threads, &store_path);
    let corpus_ok = corpus.all_reports_identical && corpus.warm_run_clean;
    let corpus_warm_clean = corpus.warm_run_clean;

    let summary = BenchSummary {
        description: "crash-exploration benchmark: the sequential replay reference vs the \
                      engine (trace-planned digest dedup, representatives built on a rolling \
                      CoW device, classification worker pool); plus the corpus-scale race over \
                      a persistent verdict store"
            .to_string(),
        smoke,
        prefix_points_cap: cap,
        rows,
        totals,
        all_reports_identical: all_identical,
        corpus,
    };
    let json = serde_json::to_string_pretty(&summary).unwrap_or_else(|e| {
        eprintln!("serialisation failed: {e}");
        std::process::exit(1);
    });
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("writing {out} failed: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
    if !all_identical {
        eprintln!("ERROR: the engine and the reference disagreed on at least one report");
        std::process::exit(1);
    }
    if !corpus_ok {
        if !corpus_warm_clean {
            eprintln!("ERROR: warm-store corpus run still materialised or classified images");
        } else {
            eprintln!("ERROR: an engine corpus run diverged from the reference enumeration");
        }
        std::process::exit(1);
    }
}

fn run_repro(store_path: Option<&str>) {
    let mut opts = ExploreOptions::sampled(64).with_threads(0);
    let store = store_path.map(|p| {
        let s: Arc<VerdictStore<OutcomeCore>> = Arc::new(VerdictStore::open(p));
        eprintln!("verdict store '{}': {} verdicts preloaded", p, s.preloaded());
        s
    });
    if let Some(s) = &store {
        opts = opts.with_store(Arc::clone(s));
    }
    let mut entries = Vec::new();
    for workload in build_workloads(false) {
        eprintln!(
            "exploring '{}' ({} writes, {} flushes)...",
            workload.name,
            workload.trace.write_count(),
            workload.trace.flush_count()
        );
        let report = match explore(&workload, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("exploration of '{}' failed: {e}", workload.name);
                std::process::exit(1);
            }
        };
        let c = report.counts();
        eprintln!(
            "  {} crash points: {} consistent, {} repairable, {} data-loss, {} unrecoverable",
            report.outcomes.len(),
            c.consistent,
            c.repairable,
            c.data_loss,
            c.unrecoverable
        );
        let s = &report.stats;
        eprintln!(
            "  materialisation I/O: {} block writes ({} bulk calls), {} block reads \
             ({} bulk calls), {} vec allocs",
            s.blocks_replayed, s.bulk_writes, s.blocks_read, s.bulk_reads, s.vec_allocs
        );
        entries.push(Entry::from_report(report));
    }
    if let Some(s) = &store {
        eprintln!(
            "verdict store: {} hits, {} misses, {} verdicts held",
            s.hits(),
            s.misses(),
            s.len()
        );
    }

    let summary = Summary {
        description: "crash-consistency exploration: write prefixes, torn final writes and \
                      volatile-cache reorderings of each workload's recorded I/O trace"
            .to_string(),
        entries,
    };
    match serde_json::to_string_pretty(&summary) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("serialisation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = false;
    let mut smoke = false;
    let mut threads = 0usize; // 0 = one worker per core
    let mut out = "BENCH_crashsim.json".to_string();
    let mut store: Option<String> = std::env::var("CRASHSIM_STORE").ok();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = true,
            "--smoke" => smoke = true,
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a number");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--store" => {
                i += 1;
                store = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--store needs a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: repro_crashsim [--store PATH] \
                     [--bench [--smoke] [--threads N] [--out PATH]]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if bench {
        run_bench(smoke, threads, &out, store.as_deref());
    } else {
        run_repro(store.as_deref());
    }
}
