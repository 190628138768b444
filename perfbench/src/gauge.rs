//! The host-speed gauge: a fixed reference kernel timed next to every op.
//!
//! On a shared host, neighbours that thrash the shared last-level cache
//! slow memory-heavy code by up to about 1.7x in phases of a second or
//! two, while pure arithmetic keeps its speed. The confdep crates are
//! memory-heavy, so their wall time moves with those phases from run to
//! run. The gauge is a kernel of the same character (sorting, hashing,
//! number formatting and a pointer chase over a last-level-cache-sized
//! table) that never changes with the program: it lives in this package,
//! calls no confdep crate, and allocates nothing after
//! [`Gauge::new`], so the program's allocator state cannot change its
//! speed. Timing it after each op and scaling the op's latency by
//! [`NOMINAL_MS`] over the mean of the gauge times on either side of the
//! op, raised to [`EXPONENT`], gives a host-normalised latency: the op's
//! latency in the host state where the gauge reads [`NOMINAL_MS`].
//! Those phases largely cancel in it.
//!
//! The gauge runs cold, straight after the op, as the cache-sensitive
//! code of the program does. The op's cache footprint therefore sets
//! part of the reading: a change that shrinks it can speed the gauge
//! and so understate its own gain. A warm reading (an untimed run
//! first) avoids that but was tried and dropped: its time moved by up
//! to 2x between runs independently of the ops and did not track them.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::splitmix;

/// The gauge time that normalised latencies are scaled to: a typical
/// reading on a 2 vCPU Xeon host, so that there normalised and raw
/// latencies are of the same size.
pub const NOMINAL_MS: f64 = 3.0;

/// How strongly op latency follows the gauge. Within a run, the slope
/// of log op wall time on log gauge time, pooled over five 15 s runs
/// per workload on a 2 vCPU Xeon host whose shared cache was contended
/// in phases, was 1.26 for pipeline, 1.24 for serve and 1.60 for
/// recovery. Between runs recovery followed the gauge with a slope near
/// 1, so its own 1.6 moved its medians by 10% between two sets of runs
/// taken in different host states, against at most 5% with one value
/// for all workloads.
pub const EXPONENT: f64 = 1.25;

/// A raw wall time (in any unit) scaled to the nominal gauge time,
/// given the gauge time around the interval it measured.
pub fn normalise(raw: f64, gauge_ms: f64) -> f64 {
    raw * (NOMINAL_MS / gauge_ms).powf(EXPONENT)
}

/// Keys sorted, hashed and formatted per gauge run.
const KEYS: usize = 20_000;
/// Pointer-chase table size in `u32` slots (4 MiB).
const CHASE_SLOTS: usize = 1 << 20;
/// Pointer-chase steps per gauge run.
const CHASE_STEPS: usize = 10_000;

pub struct Gauge {
    keys: Vec<u64>,
    index: HashMap<u64, u64>,
    text: String,
    chase: Vec<u32>,
}

impl Gauge {
    /// Builds the gauge's buffers; every later run reuses them.
    pub fn new() -> Self {
        let mut state = 0x0067_6175_6765;
        // Sattolo's shuffle: one random cycle through the whole table
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = (splitmix(&mut state) % i as u64) as usize;
            chase.swap(i, j);
        }
        let mut gauge = Gauge {
            keys: Vec::with_capacity(KEYS),
            index: HashMap::with_capacity(KEYS),
            text: String::with_capacity(KEYS * 8),
            chase,
        };
        // first run sizes every buffer for good
        black_box(gauge.kernel());
        gauge
    }

    /// One run of the reference kernel on fixed input.
    fn kernel(&mut self) -> u64 {
        let mut state = 0x6b65_726e_656c;
        self.keys.clear();
        self.keys
            .extend((0..KEYS).map(|_| splitmix(&mut state) % 1_000_000));
        self.keys.sort_unstable();
        self.index.clear();
        for (i, k) in self.keys.iter().enumerate() {
            self.index.insert(*k, i as u64);
        }
        let mut acc = 0u64;
        for k in self.keys.iter().step_by(3) {
            acc = acc.wrapping_add(self.index.get(k).copied().unwrap_or(0));
        }
        self.text.clear();
        for k in self.keys.iter().take(KEYS / 10) {
            let _ = write!(self.text, "{k},");
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        acc ^ self.text.len() as u64 ^ u64::from(at)
    }

    /// Wall time of one kernel run, in ms.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel());
        t0.elapsed().as_secs_f64() * 1e3
    }
}
