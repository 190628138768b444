//! `serve`: `validate --batch` at volume on long-lived serving engines.
//!
//! Each op parses one fixed-size ext4 batch and one fixed-size F2FS
//! batch of query lines and validates them on a per-ecosystem
//! `EngineOptions::serving()` engine whose plan was compiled in set-up.
//! Every verdict vector is checked against a direct
//! `Constraint::evaluate` table built in set-up.
//!
//! The traffic follows the repository's own serving model, `repro_service`:
//! a pool of 400 distinct states (solver witnesses plus seeded
//! mutations) sampled with repetition, where one query in 100 sees a
//! state for the first time (its 40,000-query stream over 400 states
//! measures 99% memo hits). Here the repeat traffic is such a sampled
//! stream over a 400-state hot set, and the first-sight queries come
//! from a cold stream over more distinct states than the memo holds.
//! Set-up fills the memo to capacity, so every timed batch runs in the
//! steady, evicting state.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use confdep::{ConstraintSet, Solver, Verdict};
use convalid::{ConfigQuery, EngineOptions, MemoOptions, ValidationEngine, ValidationPlan};
use e2fstools::params::ParamType;
use e2fstools::typed::TypedConfig;
use ecosys::Ecosystem;

use crate::trace::Tracer;
use crate::{splitmix, Workload};

/// Distinct hot states per ecosystem: `repro_service`'s pool size.
const HOT_STATES: usize = 400;
/// Length of the sampled hot stream, cycled in order:
/// `repro_service`'s stream length.
const HOT_STREAM: usize = 40_000;
/// Distinct cold states per ecosystem, cycled in order: more than the
/// memo's capacity, so a cold state is always evicted before it recurs.
const COLD_STATES: usize = 81_920;
/// One line in this many is cold: `repro_service`'s share of
/// first-sight queries (400 of 40,000).
const COLD_EVERY: usize = 100;
/// Query lines per ecosystem batch, sized so an op takes tens of
/// milliseconds and a run holds several hundred ops.
const BATCH: usize = 512;

/// One ecosystem's serving state.
struct Lane {
    eco: Ecosystem,
    engine: ValidationEngine,
    /// Query lines: hot states first, then cold ones.
    lines: Vec<String>,
    /// The sampled hot stream: indices into the hot states.
    hot_stream: Vec<usize>,
    /// Direct-evaluation verdicts of each line's state.
    reference: Vec<Arc<[Verdict]>>,
    /// Next cold line to send.
    cold_cursor: usize,
    hot_cursor: usize,
}

pub struct Serve {
    lanes: Vec<Lane>,
    plan_compile_ms: f64,
    /// Engine counters before the current traced op.
    before: Counters,
}

#[derive(Default, Clone, Copy)]
struct Counters {
    queries: usize,
    evaluated: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

fn counters(lanes: &[Lane]) -> Counters {
    let mut c = Counters::default();
    for lane in lanes {
        let stats = lane.engine.stats();
        c.queries += stats.queries;
        c.evaluated += stats.constraints_evaluated;
        if let Some(memo) = stats.memo {
            c.hits += memo.hits;
            c.misses += memo.misses;
            c.evictions += memo.evictions;
        }
    }
    c
}

fn parse(eco: &Ecosystem, line: &str) -> Option<ConfigQuery> {
    if eco.name == "ext4" {
        ConfigQuery::parse_line(line)
    } else {
        ConfigQuery::parse_line_for(eco, line)
    }
}

/// Distinct query lines for `eco`, `count` of them: every solver
/// witness, then seeded mutations of witnesses (integer and boolean
/// parameter rewrites on both halves), rendered to the batch-line
/// format and deduplicated by the parsed query's fingerprint. Each new
/// state is handed to `admit` with its parsed query.
fn query_lines(
    eco: &Ecosystem,
    set: &ConstraintSet,
    seed: u64,
    count: usize,
    mut admit: impl FnMut(String, ConfigQuery),
) -> Result<(), String> {
    let scope = eco.solver_scope();
    let solver = Solver::with_scope(set, scope.clone());
    let witnesses = solver.witness_targets();
    if witnesses.is_empty() {
        return Err(format!("{}: the solver found no witnesses", eco.name));
    }
    let int_params: Vec<(bool, String, Vec<i64>)> = scope
        .registry
        .iter()
        .filter(|p| matches!(p.param_type, ParamType::Int { .. }))
        .map(|p| {
            let create = p.component == scope.create_component;
            (
                create,
                p.name.clone(),
                solver.int_pool(&p.component, &p.name),
            )
        })
        .collect();
    let features = solver.feature_pool(scope.create_component);
    let render = |mkfs: &TypedConfig, mount: &TypedConfig| {
        let solved = confdep::SolvedConfig {
            mkfs: mkfs.clone(),
            mount: mount.clone(),
        };
        solved
            .render_with(&scope)
            .map(|(args, opts)| format!("{} | {opts}", args.join(" ")))
    };

    let mut seen: HashSet<u64> = HashSet::with_capacity(count);
    // returns how many distinct states are admitted so far
    let mut offer = |line: String| {
        if let Some(q) = parse(eco, &line) {
            if seen.len() < count && seen.insert(q.fingerprint()) {
                admit(line, q);
            }
        }
        seen.len()
    };
    let mut have = 0;
    for (_, _, w) in &witnesses {
        if let Some(line) = render(&w.mkfs, &w.mount) {
            have = offer(line);
        }
    }
    let mut rng = seed;
    for _ in 0..count * 20 {
        if have >= count {
            return Ok(());
        }
        let (_, _, base) = &witnesses[(splitmix(&mut rng) % witnesses.len() as u64) as usize];
        let (mut mkfs, mut mount) = (base.mkfs.clone(), base.mount.clone());
        for _ in 0..3 {
            let pick = splitmix(&mut rng);
            if pick.is_multiple_of(4) && !features.is_empty() {
                let f = &features[(splitmix(&mut rng) % features.len() as u64) as usize];
                mkfs.set_bool(f, splitmix(&mut rng).is_multiple_of(2));
            } else if !int_params.is_empty() {
                let (create, name, pool) =
                    &int_params[(splitmix(&mut rng) % int_params.len() as u64) as usize];
                // half pool values (range edges), half wide random ones
                let value = if pick.is_multiple_of(2) && !pool.is_empty() {
                    pool[(splitmix(&mut rng) % pool.len() as u64) as usize]
                } else {
                    (splitmix(&mut rng) % 100_000) as i64
                };
                let cfg = if *create { &mut mkfs } else { &mut mount };
                cfg.set_int(name, value);
            }
        }
        if let Some(line) = render(&mkfs, &mount) {
            have = offer(line);
        }
    }
    if have >= count {
        return Ok(());
    }
    Err(format!(
        "{}: only {have} distinct states generated",
        eco.name
    ))
}

impl Serve {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut lanes = Vec::new();
        let mut plan_compile_ms = 0.0;
        let mut rng = seed;
        for eco in [ecosys::ext4(), ecosys::f2fs()] {
            let set = eco.constraints().map_err(|e| e.to_string())?;
            let direct = set.clone();
            let t0 = Instant::now();
            let plan = Arc::new(ValidationPlan::compile_for(set, eco));
            plan_compile_ms += t0.elapsed().as_secs_f64() * 1e3;
            let engine = ValidationEngine::new(plan, EngineOptions::serving());

            // generate the states, build the direct-evaluation table, and
            // fill the memo: the cold stream alone overflows it, and the
            // hot states go in last so they are resident
            let mut lines = Vec::with_capacity(HOT_STATES + COLD_STATES);
            let mut reference: Vec<Arc<[Verdict]>> = Vec::with_capacity(lines.capacity());
            let mut pending: Vec<ConfigQuery> = Vec::new();
            let mut hot: Vec<ConfigQuery> = Vec::with_capacity(HOT_STATES);
            let mut agrees = true;
            let mut fill = |pending: &mut Vec<ConfigQuery>, reference: &[Arc<[Verdict]>]| {
                let outcomes = engine.validate_many(pending, 0);
                let done = reference.len() - pending.len();
                agrees &= outcomes
                    .iter()
                    .zip(&reference[done..])
                    .all(|(o, r)| o.verdicts == *r);
                pending.clear();
            };
            query_lines(
                &eco,
                &direct,
                splitmix(&mut rng),
                HOT_STATES + COLD_STATES,
                |line, q| {
                    let views = q.views();
                    reference.push(
                        direct
                            .constraints()
                            .iter()
                            .map(|c| c.evaluate(&views))
                            .collect(),
                    );
                    lines.push(line);
                    if hot.len() < HOT_STATES {
                        hot.push(q.clone());
                    }
                    pending.push(q);
                    if pending.len() == 4096 {
                        fill(&mut pending, &reference);
                    }
                },
            )?;
            fill(&mut pending, &reference);
            fill(&mut hot, &reference[..HOT_STATES]);
            if !agrees {
                return Err(format!(
                    "{}: served verdicts differ from direct evaluation",
                    eco.name
                ));
            }
            let capacity = MemoOptions::default().capacity;
            let filled = engine.stats().memo.map_or(0, |m| m.entries);
            if COLD_STATES <= capacity || filled < capacity * 9 / 10 {
                return Err(format!(
                    "{}: memo holds {filled} of {capacity} entries",
                    eco.name
                ));
            }
            let hot_stream = (0..HOT_STREAM)
                .map(|_| (splitmix(&mut rng) % HOT_STATES as u64) as usize)
                .collect();
            lanes.push(Lane {
                eco,
                engine,
                lines,
                hot_stream,
                reference,
                cold_cursor: 0,
                hot_cursor: 0,
            });
        }
        Ok(Serve {
            lanes,
            plan_compile_ms,
            before: Counters::default(),
        })
    }
}

impl Workload for Serve {
    fn op(&mut self, _i: u64, tr: &mut Tracer) -> bool {
        if tr.enabled() {
            self.before = counters(&self.lanes);
        }
        let mut ok = true;
        for lane in &mut self.lanes {
            // building the batch runs the allocator work that freeing
            // the last one deferred, so it belongs to the parse span
            let (picks, queries) = tr.span("convalid.parse", || {
                // the same positions of every batch are cold; both
                // streams are cycled in order
                let picks: Vec<usize> = (0..BATCH)
                    .map(|j| {
                        if j % COLD_EVERY == COLD_EVERY - 1 {
                            let k = lane.cold_cursor;
                            lane.cold_cursor = (k + 1) % COLD_STATES;
                            HOT_STATES + k
                        } else {
                            let k = lane.hot_cursor;
                            lane.hot_cursor = (k + 1) % HOT_STREAM;
                            lane.hot_stream[k]
                        }
                    })
                    .collect();
                let queries: Vec<ConfigQuery> = picks
                    .iter()
                    .filter_map(|&k| parse(&lane.eco, &lane.lines[k]))
                    .collect();
                (picks, queries)
            });
            let outcomes = tr.span("convalid.validate", || {
                lane.engine.validate_many(&queries, 0)
            });
            ok &= tr.span("check", || {
                outcomes.len() == picks.len()
                    && picks
                        .iter()
                        .zip(&outcomes)
                        .all(|(&k, o)| o.verdicts == lane.reference[k])
            });
            // freeing the parsed batch is part of the query lifecycle
            tr.span("convalid.parse", || drop((queries, outcomes)));
        }
        ok
    }

    fn after_traced_op(&mut self, _i: u64, tr: &mut Tracer) {
        let now = counters(&self.lanes);
        let last = self.before;
        let queries = (now.queries - last.queries).max(1) as f64;
        let lookups = (now.hits + now.misses - last.hits - last.misses).max(1) as f64;
        let parse_ms = tr.op_ms("convalid.parse");
        let validate_ms = tr.op_ms("convalid.validate");
        tr.record("convalid.parse_us", parse_ms * 1e3 / queries);
        tr.record("convalid.validate_us", validate_ms * 1e3 / queries);
        tr.record(
            "convalid.evaluated_per_query",
            (now.evaluated - last.evaluated) as f64 / queries,
        );
        tr.record(
            "convalid.memo_hit_ratio",
            (now.hits - last.hits) as f64 / lookups,
        );
        tr.record(
            "convalid.memo_evictions",
            (now.evictions - last.evictions) as f64,
        );
    }

    fn layers(&self) -> &'static [&'static str] {
        &[
            "convalid.parse_us",
            "convalid.validate_us",
            "convalid.evaluated_per_query",
            "convalid.memo_hit_ratio",
            "convalid.memo_evictions",
            "convalid.plan_compile_ms",
        ]
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("convalid.plan_compile_ms", self.plan_compile_ms)]
    }
}
