//! `perfbench` — the end-to-end benchmark of the confdep reproduction.
//!
//! ```text
//! perfbench --workload pipeline|serve|recovery --seed N --seconds S --trace 0|1
//!           [--ops N] [--repo DIR] [--out-dir DIR]
//! ```
//!
//! One process, one closed-loop client: each op waits for the previous
//! one, and every library call gets the CLI's default thread count
//! (`0`, one worker per core). Inputs are generated in set-up from
//! `--seed` and cycled in a fixed order. Set-up (input generation, plan
//! compile and a fixed number of warm-up ops) runs [`SETUP_REPS`]
//! times, each from a cleared process-global analysis cache as a fresh
//! process starts; `setup_s` is their median wall time, host-normalised
//! like the op latencies below with the median gauge reading of the
//! timed loop that follows.
//!
//! Op latencies are host-normalised: after every op the timed loop runs
//! the fixed reference kernel of [`gauge`], and each op's wall time is
//! scaled by [`gauge::NOMINAL_MS`] over the mean of the gauge times
//! either side of it, raised to [`gauge::EXPONENT`]. Shared-cache
//! contention from other tenants of the host slows both, so it largely
//! cancels. The raw wall-time figures go to the provenance record.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` traces a seeded half of the ops: traced ops record a
//! span around every layer call, per-layer metrics are per-op medians
//! over them (raw wall time), and `trace_overhead` is the traced over
//! the untraced mean normalised op latency.
//!
//! Every op checks its outputs; a wrong or failed op counts as a miss
//! and the run continues. The last line of standard output is the
//! result object; the line before it is the host and provenance record,
//! which is also written to `--out-dir` along with every op's latency
//! and, for a traced run, the span log.

mod gauge;
mod host;
mod pipeline;
mod recovery;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Warm-up ops per set-up repetition.
const WARMUP_OPS: u64 = 3;

/// One benchmark workload: set up once, then driven one op at a time.
pub trait Workload {
    /// Runs op `i` (span-wrapping every layer call in `tr`) and checks
    /// its outputs; returns whether every output was correct.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> bool;

    /// Traced-run extras after a traced op, outside its timing (direct
    /// layer probes and per-op counters).
    fn after_traced_op(&mut self, _i: u64, _tr: &mut Tracer) {}

    /// Names of the per-layer metrics the workload records with
    /// [`Tracer::record`] or fixes in set-up.
    fn layers(&self) -> &'static [&'static str];

    /// Per-layer values fixed in set-up rather than measured per op.
    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Every per-layer metric any workload reports, `(name, unit)` in
/// `BENCHMARK.json` order. A workload reports 0 for a layer it never
/// calls.
const ALL_LAYERS: &[(&str, &str)] = &[
    ("cir.compile_ms", "ms"),
    ("taint.analyze_ms", "ms"),
    ("taint.instructions_visited", "count"),
    ("taint.set_unions", "count"),
    ("confdep.extract_ms", "ms"),
    ("confdep.evaluate_ms", "ms"),
    ("confdep.solver_ms", "ms"),
    ("contools.condocck_ms", "ms"),
    ("contools.conhandleck_ms", "ms"),
    ("contools.fuzz_ms", "ms"),
    ("contools.fuzz_executed", "count"),
    ("contools.fuzz_unique_ratio", "ratio"),
    ("convalid.plan_compile_ms", "ms"),
    ("convalid.validate_ms", "ms"),
    ("convalid.parse_us", "us"),
    ("convalid.validate_us", "us"),
    ("convalid.evaluated_per_query", "count"),
    ("convalid.memo_hit_ratio", "ratio"),
    ("convalid.memo_evictions", "count"),
    ("crashsim.explore_ms", "ms"),
    ("crashsim.schedules", "count"),
    ("crashsim.por_classes", "count"),
    ("crashsim.images_classified", "count"),
    ("crashsim.blocks_replayed", "count"),
    ("blockdev.blocks_read", "count"),
    ("blockdev.bulk_writes", "count"),
    ("blockdev.vec_allocs", "count"),
    ("faultsim.campaign_ms", "ms"),
    ("faultsim.schedules", "count"),
    ("faultsim.digest_hit_ratio", "ratio"),
    ("conpool.threads_effective", "count"),
    ("trace_overhead", "ratio"),
    ("trace_span_coverage", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    max_ops: Option<u64>,
    repo: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        max_ops: None,
        repo: PathBuf::from("."),
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--ops" => args.max_ops = Some(value.parse().map_err(|_| bad("an op count"))?),
            "--repo" => args.repo = PathBuf::from(&value),
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_seed {
        return Err("--seed is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn make_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "pipeline" => Box::new(pipeline::Pipeline::new(seed)?),
        "serve" => Box::new(serve::Serve::new(seed)?),
        "recovery" => Box::new(recovery::Recovery::new(seed)?),
        _ => {
            return Err(format!(
                "unknown workload {name:?} (pipeline, serve, recovery)"
            ))
        }
    })
}

/// splitmix64 step: the benchmark's seeded input generator.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Value at quantile `q` by nearest rank; `v` must be sorted.
fn nearest_rank(v: &[f64], q: f64) -> f64 {
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // benchmark infrastructure, built before any timing
    let mut gauge = gauge::Gauge::new();
    // set-up: several full repetitions, each from scratch
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut tr = Tracer::new();
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        confdep::cache::global().clear();
        let t0 = Instant::now();
        let mut w = match make_workload(&args.workload, args.seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        // warm-up ops belong to set-up; their verdicts are not scored
        for i in 0..WARMUP_OPS {
            w.op(u64::MAX - i, &mut tr);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPS >= 1");

    // the timed closed loop
    let mut lat_ms: Vec<f64> = Vec::new();
    let mut raw_ms: Vec<f64> = Vec::new();
    let mut gauge_ms: Vec<f64> = Vec::new();
    let mut op_rows = String::from("start_s\tlatency_ms\tgauge_ms\tnorm_latency_ms\n");
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut ok = 0u64;
    let mut attempted = 0u64;
    let steal_start = host::steal_s();
    let mut gauge_before = gauge.time_ms();
    let start = Instant::now();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline && args.max_ops.is_none_or(|m| attempted < m) {
        let i = attempted;
        // one op of each pair is traced, picked by a seeded coin, so
        // traced and untraced ops both cover every position of a
        // workload's input cycle
        let coin = splitmix(&mut (i / 2)) % 2;
        let traced = args.trace && i % 2 == coin;
        tr.set_enabled(traced);
        tr.start_op(i);
        let t0 = Instant::now();
        let root = tr.begin("op");
        let good = w.op(i, &mut tr);
        tr.end(root);
        let raw = t0.elapsed().as_secs_f64() * 1e3;
        let gauge_after = gauge.time_ms();
        let ms = gauge::normalise(raw, (gauge_before + gauge_after) / 2.0);
        gauge_before = gauge_after;
        op_rows.push_str(&format!(
            "{}\t{raw}\t{gauge_after}\t{ms}\n",
            t0.duration_since(start).as_secs_f64()
        ));
        if traced {
            let coverage = tr.op_coverage("op");
            tr.record("trace_span_coverage", coverage);
            w.after_traced_op(i, &mut tr);
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        lat_ms.push(ms);
        raw_ms.push(raw);
        gauge_ms.push(gauge_after);
        attempted += 1;
        ok += u64::from(good);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steal_s = host::steal_s() - steal_start;
    tr.set_enabled(false);

    let mut sorted = lat_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&sorted);
    let p95 = nearest_rank(&sorted, 0.95);
    let beyond_p95 = sorted.iter().filter(|&&x| x > p95).count();
    let ok_ratio = ok as f64 / attempted.max(1) as f64;
    let mut raw_sorted = raw_ms.clone();
    raw_sorted.sort_by(f64::total_cmp);
    let threads_effective = conpool::effective_threads(0);
    let mut metrics: Vec<String> = Vec::new();
    if args.trace {
        let setup_layers = w.setup_layers();
        for &(layer, unit) in ALL_LAYERS {
            let value = match layer {
                "conpool.threads_effective" => threads_effective as f64,
                "trace_overhead" => mean(&traced_ms) / mean(&untraced_ms),
                name => {
                    if let Some((_, v)) = setup_layers.iter().find(|(n, _)| *n == name) {
                        *v
                    } else if let Some(series) = tr.series(name) {
                        median(series)
                    } else if w.layers().contains(&name) {
                        eprintln!("perfbench: per-layer metric {name} was never recorded");
                        return ExitCode::FAILURE;
                    } else {
                        0.0 // the workload never calls this layer
                    }
                }
            };
            metrics.push(json_metric(layer, value, unit));
        }
    } else {
        let setup = gauge::normalise(median(&setup_s), median(&gauge_ms));
        metrics.push(json_metric("setup_s", setup, "s"));
        let norm_s = lat_ms.iter().sum::<f64>() / 1e3;
        metrics.push(json_metric(
            "norm_throughput",
            attempted as f64 / norm_s,
            "1/s",
        ));
        metrics.push(json_metric("norm_lat_p50_ms", p50, "ms"));
        metrics.push(json_metric("norm_lat_p95_ms", p95, "ms"));
        metrics.push(json_metric("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(json_metric("ok_ratio", ok_ratio, "ratio"));
    }

    let host = host::record(&args.repo);
    let provenance = format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"threads_requested\":0,\"threads_effective\":{threads_effective},\
         \"ops\":{attempted},\"samples_beyond_p95\":{beyond_p95},\"run_wall_s\":{wall_s},\
         \"raw_throughput\":{},\"raw_lat_p50_ms\":{},\"raw_lat_p95_ms\":{},\
         \"gauge_p50_ms\":{},\"gauge_nominal_ms\":{},\"run_steal_s\":{steal_s},\"setup_reps\":{SETUP_REPS},\"raw_setup_s_each\":{setup_s:?},\
         \"host\":{host}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        attempted as f64 / (raw_ms.iter().sum::<f64>() / 1e3),
        median(&raw_sorted),
        nearest_rank(&raw_sorted, 0.95),
        median(&gauge_ms),
        gauge::NOMINAL_MS,
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        attempted > 0 && ok == attempted,
        attempted - ok,
        metrics.join(",")
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        std::fs::write(
            args.out_dir.join(format!("{stem}.json")),
            format!("{provenance}\n{result}\n"),
        )?;
        std::fs::write(args.out_dir.join(format!("{stem}.ops.tsv")), &op_rows)?;
        if args.trace {
            tr.write_spans(&args.out_dir.join(format!("{stem}.spans.jsonl")))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write to {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("{provenance}");
    println!("{result}");
    ExitCode::SUCCESS
}
