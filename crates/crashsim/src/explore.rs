//! Crash-point enumeration, image materialisation and classification.
//!
//! For a recorded trace of `W` writes the explorer considers:
//!
//! * every **write prefix** — power fails after exactly `k` writes,
//!   `k = 0..=W`;
//! * a **torn** variant of each prefix's final write — the interrupted
//!   write persisted only its first half;
//! * **volatile-cache** variants — writes issued after the last flush
//!   barrier are dropped, except the most recent one, which the cache
//!   evicted out of order. This is the scenario the journal's flush
//!   barriers exist to prevent: a commit record persisting before the
//!   data it seals.
//!
//! Each image is judged with the real (simulated) recovery stack:
//! `e2fsck -n -f`, then `e2fsck -y -f` with a backup-superblock
//! fallback, then a read-only mount and a durable-data audit.
//!
//! # Engine
//!
//! [`explore`] runs one pipeline:
//!
//! 1. **Plan.** Every schedule's image digest is computed straight from
//!    the trace, with nothing materialised: each recorded write carries
//!    its pre-image and [`ImageDigest`] is a commutative per-block sum,
//!    so a rolling contribution swap yields every image's identity.
//! 2. **Dedup.** Schedules whose (digest, applicable durability
//!    expectations) match an earlier one share its verdict — torn and
//!    reordered variants often collapse onto byte-identical images, and
//!    writes that commute (distinct blocks, no barrier between them)
//!    sum to the same digest by construction. Surviving classes are
//!    then looked up in the persistent store, if one is attached.
//! 3. **Build.** Only the class representatives still unanswered are
//!    materialised, in one pass of a rolling [`CowDevice`] that advances
//!    write by write and freezes copy-on-write snapshots; the pass stops
//!    after the last representative and is skipped when none is left,
//!    so a store-warm run never touches a device. Each snapshot's
//!    tracked digest must equal its planned one (a hard assertion, in
//!    release builds too).
//! 4. **Classify.** The representatives fan out across a scoped worker
//!    pool ([`ExploreOptions::threads`]) and the verdicts are merged
//!    back in enumeration order.
//!
//! The reference explorer (feature `oracle`) replays every schedule
//! from the pre-workload image and classifies it without dedup; the
//! equivalence tests hold this engine to it outcome for outcome.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use blockdev::{
    block_contribution, digest_device, BlockContribution, BlockDevice, CowDevice, DeviceError,
    ImageDigest, IoEvent, IoStats, StatsDevice, StoreKey, VerdictStore,
};
use conpool::{effective_threads, parallel_map};
use e2fstools::{E2fsck, FsckMode};
use ext4sim::{Ext4Fs, InodeNo, MountOptions};

use crate::report::{CrashKind, CrashReport, ExploreStats, OutcomeCore, Verdict};
use crate::workloads::Workload;

/// Which crash models to enumerate, how densely, and how many workers
/// classify the images.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Add a torn variant of each explored prefix's final write.
    pub torn_writes: bool,
    /// Add out-of-order volatile-cache variants.
    pub volatile_cache: bool,
    /// Cap on the number of prefix points (evenly sampled, always
    /// including the empty and the complete prefix). `None` explores
    /// every prefix; caps below 2 are clamped to 2, since the two
    /// endpoints are always kept.
    pub max_prefix_points: Option<usize>,
    /// Classification worker threads: `1` runs inline and sequential,
    /// `0` uses one worker per available core.
    pub threads: usize,
    /// Also enumerate *interior* volatile-cache reorderings
    /// ([`CrashKind::ReorderedWrite`]): at every explored crash point,
    /// each post-barrier write may be the one the cache evicted out of
    /// order — not just the most recent one. This multiplies the
    /// schedule count per flush epoch (≈ n²/2 schedules for n writes),
    /// and the digest dedup collapses it back down.
    pub deep_reorder: bool,
    /// Persistent cross-run verdict store shared with faultsim
    /// ([`VerdictStore`]); verdicts found here skip materialisation and
    /// classification entirely, and fresh verdicts are written back.
    pub store: Option<Arc<VerdictStore<OutcomeCore>>>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            torn_writes: true,
            volatile_cache: true,
            max_prefix_points: None,
            threads: 1,
            deep_reorder: false,
            store: None,
        }
    }
}

impl ExploreOptions {
    /// A cheaper configuration for large traces: at most `points`
    /// prefixes, with both extra crash models still on.
    pub fn sampled(points: usize) -> Self {
        ExploreOptions { max_prefix_points: Some(points), ..ExploreOptions::default() }
    }

    /// Classifies on `threads` workers (0 = one per available core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The corpus-scale configuration: deep reordering enumerated, one
    /// classification worker per core. Attach a persistent store with
    /// [`ExploreOptions::with_store`].
    pub fn corpus() -> Self {
        ExploreOptions { deep_reorder: true, threads: 0, ..ExploreOptions::default() }
    }

    /// Attaches a persistent cross-run verdict store.
    #[must_use]
    pub fn with_store(mut self, store: Arc<VerdictStore<OutcomeCore>>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Explores every enumerated crash point of `workload` and classifies
/// each post-crash image.
///
/// The report's outcome list does not depend on the thread count or
/// the store: every run produces the same outcomes in the same
/// enumeration order. Only [`CrashReport::stats`] reflects the work
/// done.
///
/// # Errors
///
/// Propagates device errors from materialising crash images (out of
/// range writes in a malformed trace; not produced by the built-in
/// workloads).
///
/// # Panics
///
/// Panics if a materialised image's content digest differs from the
/// digest planned for it from the trace — the dedup would otherwise
/// have shared verdicts between different images.
pub fn explore(workload: &Workload, opts: &ExploreOptions) -> Result<CrashReport, DeviceError> {
    let store = opts.store.as_deref();
    let plan = walk(workload, opts, &mut DigestRoll::new(workload)?, None)?;

    // one verdict slot per class, holding a stored verdict or awaiting
    // its representative's classification: (schedule, slot, store key)
    let mut slot_of: Vec<usize> = Vec::with_capacity(plan.len());
    let mut ready: Vec<Option<OutcomeCore>> = Vec::new();
    let mut todo: Vec<(usize, usize, StoreKey)> = Vec::new();
    let mut seen: HashMap<(ImageDigest, Vec<u16>), usize> = HashMap::new();
    for (i, &(kind, digest)) in plan.iter().enumerate() {
        let applicable = applicable_expectations(workload, kind.guaranteed_writes());
        let class = match seen.entry((digest, applicable)) {
            Entry::Occupied(class) => {
                slot_of.push(*class.get());
                continue;
            }
            Entry::Vacant(class) => class,
        };
        let key = (digest, store_extra(workload, &class.key().1));
        class.insert(ready.len());
        slot_of.push(ready.len());
        let hit = store.and_then(|s| s.lookup(key));
        if hit.is_none() {
            todo.push((i, ready.len(), key));
        }
        ready.push(hit);
    }
    let threads = effective_threads(opts.threads);
    let mut stats = ExploreStats {
        crash_points: plan.len(),
        images_classified: todo.len(),
        flushes_observed: workload.trace.flush_count(),
        threads,
        schedules_pruned: plan.len() - ready.len(),
        por_classes: ready.len(),
        store_hits: if store.is_some() { ready.len() - todo.len() } else { 0 },
        store_misses: if store.is_some() { todo.len() } else { 0 },
        ..ExploreStats::default()
    };

    // build the representatives in one rolling pass that stops after
    // the last; a fully answered plan builds no device at all
    if !todo.is_empty() {
        let wanted: Vec<usize> = todo.iter().map(|t| t.0).collect();
        let mut roll = CowRoll::new(workload)?;
        let images = walk(workload, opts, &mut roll, Some(&wanted))?;
        absorb_io(&mut stats, roll.rolling.stats());
        stats.blocks_replayed += roll.extra_writes;
        let jobs: Vec<_> = todo
            .into_iter()
            .zip(images)
            .map(|((i, slot, key), (kind, mut image))| {
                assert_eq!(
                    image.digest(),
                    Some(plan[i].1),
                    "materialised image differs from its trace-planned digest ({kind:?})"
                );
                // only repair writes remain: stop hashing them
                image.stop_digest_tracking();
                (kind, image, slot, key)
            })
            .collect();
        let cores = parallel_map(jobs, threads, |_, (kind, image, slot, key)| {
            (slot, key, classify_image(image, workload, kind.guaranteed_writes()))
        });
        for (slot, key, core) in cores {
            if let Some(store) = store {
                store.insert(key, core.clone());
            }
            ready[slot] = Some(core);
        }
    }
    let outcomes = plan
        .into_iter()
        .zip(slot_of)
        .map(|((kind, _), slot)| {
            ready[slot].clone().expect("every class resolved").into_outcome(kind)
        })
        .collect();
    Ok(CrashReport {
        workload: workload.name.clone(),
        writes: workload.trace.write_count(),
        flushes: workload.trace.flush_count(),
        outcomes,
        stats,
    })
}

/// The prefix lengths to explore: all of `0..=writes`, or an even
/// sample of at most `cap` of them that keeps both endpoints (`cap` is
/// clamped to 2, the endpoints themselves).
fn prefix_points(writes: usize, cap: Option<usize>) -> Vec<usize> {
    match cap {
        Some(max) => {
            let max = max.max(2);
            if writes + 1 > max {
                let mut ks: Vec<usize> = (0..max).map(|i| i * writes / (max - 1)).collect();
                ks.dedup();
                ks
            } else {
                (0..=writes).collect()
            }
        }
        None => (0..=writes).collect(),
    }
}

/// The first-half-persisted image of a write: the recorded pre-image
/// with the new data's first `persisted` bytes laid over it.
fn torn_bytes(data: &[u8], pre: &[u8], persisted: usize) -> Vec<u8> {
    let mut torn = pre.to_vec();
    torn[..persisted].copy_from_slice(&data[..persisted]);
    torn
}

// ---------------------------------------------------------------------
// schedule enumeration
// ---------------------------------------------------------------------

/// The state a schedule walk rolls forward along the trace. Every crash
/// image is a write-prefix state with at most one block overwritten on
/// top, so one walk serves the planner (which rolls a content digest),
/// the materialiser (a copy-on-write device) and the reference explorer
/// (a replay recipe).
pub(crate) trait Rolling {
    /// What one schedule's image is in this representation.
    type Image;
    /// Applies the next trace write to the rolling prefix state.
    fn advance(&mut self, block: u64, data: &[u8], pre: &[u8]) -> Result<(), DeviceError>;
    /// Marks the current prefix state as the last flush barrier's.
    fn barrier(&mut self);
    /// The current prefix state's image.
    fn prefix(&mut self) -> Result<Self::Image, DeviceError>;
    /// The current prefix state with `block`, which now holds
    /// `current`, overwritten by `bytes`.
    fn overwrite(
        &mut self,
        block: u64,
        current: &[u8],
        bytes: &[u8],
    ) -> Result<Self::Image, DeviceError>;
    /// The last barrier's state with the open epoch's `nth` write
    /// (0-based; `data` to `block`) on top.
    fn straggler(
        &mut self,
        nth: usize,
        block: u64,
        data: &[u8],
    ) -> Result<Self::Image, DeviceError>;
}

/// Enumerates the crash schedules of `workload` in their canonical
/// order and builds the image of every schedule, or only of the
/// schedules whose indices the ascending list `wanted` holds — then it
/// stops at the first trace event after the last of them.
///
/// At each explored prefix `k` the order is: the prefix itself, its
/// torn final write, the interior stragglers of the open flush epoch
/// (deep reordering) and the volatile-cache straggler `k`.
pub(crate) fn walk<R: Rolling>(
    workload: &Workload,
    opts: &ExploreOptions,
    roll: &mut R,
    wanted: Option<&[usize]>,
) -> Result<Vec<(CrashKind, R::Image)>, DeviceError> {
    let points = prefix_points(workload.trace.write_count(), opts.max_prefix_points);
    let mut next_point = points.iter().copied().peekable();
    let end = wanted.map_or(usize::MAX, |w| w.last().map_or(0, |&last| last + 1));
    let mut out = Vec::new();
    // schedules enumerated so far
    let index = Cell::new(0usize);
    let mut emit = |kind: CrashKind, build: &mut dyn FnMut() -> Result<R::Image, DeviceError>| {
        if wanted.is_none_or(|w| w.binary_search(&index.get()).is_ok()) {
            out.push((kind, build()?));
        }
        index.set(index.get() + 1);
        Ok::<_, DeviceError>(())
    };
    let mut durable = 0usize;
    let mut done = 0usize;
    // writes issued since the last flush barrier, for deep reordering:
    // any of them may be the out-of-order straggler
    let mut epoch: Vec<(u64, &[u8])> = Vec::new();

    if next_point.peek() == Some(&0) {
        next_point.next();
        emit(CrashKind::Prefix { writes: 0 }, &mut || roll.prefix())?;
    }
    for event in workload.trace.events() {
        if index.get() >= end {
            break;
        }
        let (block, data, pre) = match event {
            IoEvent::Flush => {
                durable = done;
                roll.barrier();
                epoch.clear();
                continue;
            }
            IoEvent::Write { block, data, pre } => (*block, data.as_slice(), pre.as_slice()),
        };
        roll.advance(block, data, pre)?;
        epoch.push((block, data));
        done += 1;
        let k = done;
        if next_point.peek() != Some(&k) {
            continue;
        }
        next_point.next();
        emit(CrashKind::Prefix { writes: k }, &mut || roll.prefix())?;
        if opts.torn_writes {
            let persisted = data.len() / 2;
            emit(CrashKind::TornWrite { write: k, persisted }, &mut || {
                roll.overwrite(block, data, &torn_bytes(data, pre, persisted))
            })?;
        }
        if opts.deep_reorder {
            // the open epoch holds writes durable+1..=k; every interior
            // one may be the straggler the cache evicted
            for (nth, &(s_block, s_data)) in epoch[..epoch.len() - 1].iter().enumerate() {
                let straggler = durable + 1 + nth;
                let kind = CrashKind::ReorderedWrite { durable, straggler, crashed_at: k };
                emit(kind, &mut || roll.straggler(nth, s_block, s_data))?;
            }
        }
        // only interesting when the straggler actually jumps a queue:
        // with durable == k-1 the image equals the plain prefix
        if opts.volatile_cache && durable + 1 < k {
            let kind = CrashKind::VolatileCache { durable, straggler: k };
            emit(kind, &mut || roll.straggler(epoch.len() - 1, block, data))?;
        }
    }
    Ok(out)
}

/// Plans digests: the rolling prefix digest, the digest at the last
/// barrier, each block's contribution at that barrier for the blocks
/// written since (recorded at a block's first post-barrier write, whose
/// pre-image still is the barrier-time content), and the new
/// contribution of each write of the open epoch.
struct DigestRoll {
    cur: ImageDigest,
    durable: ImageDigest,
    at_barrier: HashMap<u64, BlockContribution>,
    epoch: Vec<BlockContribution>,
}

impl DigestRoll {
    fn new(workload: &Workload) -> Result<Self, DeviceError> {
        let cur = match workload.pre.digest() {
            Some(digest) => digest,
            None => digest_device(&workload.pre)?,
        };
        Ok(DigestRoll { cur, durable: cur, at_barrier: HashMap::new(), epoch: Vec::new() })
    }
}

impl Rolling for DigestRoll {
    type Image = ImageDigest;

    fn advance(&mut self, block: u64, data: &[u8], pre: &[u8]) -> Result<(), DeviceError> {
        let old = block_contribution(block, pre);
        let new = block_contribution(block, data);
        self.at_barrier.entry(block).or_insert(old);
        self.cur.replace(old, new);
        self.epoch.push(new);
        Ok(())
    }

    fn barrier(&mut self) {
        self.durable = self.cur;
        self.at_barrier.clear();
        self.epoch.clear();
    }

    fn prefix(&mut self) -> Result<ImageDigest, DeviceError> {
        Ok(self.cur)
    }

    fn overwrite(
        &mut self,
        block: u64,
        current: &[u8],
        bytes: &[u8],
    ) -> Result<ImageDigest, DeviceError> {
        let mut d = self.cur;
        d.replace(block_contribution(block, current), block_contribution(block, bytes));
        Ok(d)
    }

    fn straggler(&mut self, nth: usize, block: u64, _: &[u8]) -> Result<ImageDigest, DeviceError> {
        let mut d = self.durable;
        d.replace(self.at_barrier[&block], self.epoch[nth]);
        Ok(d)
    }
}

/// Materialises images: one rolling copy-on-write device plus a frozen
/// snapshot at the last barrier. A prefix image is a snapshot; a torn
/// or straggler image costs one block write on top of one.
struct CowRoll {
    rolling: StatsDevice<CowDevice>,
    durable: CowDevice,
    extra_writes: u64,
}

impl CowRoll {
    fn new(workload: &Workload) -> Result<Self, DeviceError> {
        let rolling = match workload.pre.digest() {
            Some(_) => workload.pre.snapshot(),
            None => CowDevice::from_device(&workload.pre)?,
        };
        Ok(CowRoll {
            durable: rolling.snapshot(),
            rolling: StatsDevice::new(rolling),
            extra_writes: 0,
        })
    }

    fn write_on(
        &mut self,
        mut dev: CowDevice,
        block: u64,
        bytes: &[u8],
    ) -> Result<CowDevice, DeviceError> {
        dev.write_block(block, bytes)?;
        self.extra_writes += 1;
        Ok(dev)
    }
}

impl Rolling for CowRoll {
    type Image = CowDevice;

    fn advance(&mut self, block: u64, data: &[u8], _pre: &[u8]) -> Result<(), DeviceError> {
        self.rolling.write_block(block, data)
    }

    fn barrier(&mut self) {
        self.durable = self.rolling.inner().snapshot();
    }

    fn prefix(&mut self) -> Result<CowDevice, DeviceError> {
        Ok(self.rolling.inner().snapshot())
    }

    fn overwrite(
        &mut self,
        block: u64,
        _current: &[u8],
        bytes: &[u8],
    ) -> Result<CowDevice, DeviceError> {
        let snap = self.rolling.inner().snapshot();
        self.write_on(snap, block, bytes)
    }

    fn straggler(&mut self, _: usize, block: u64, data: &[u8]) -> Result<CowDevice, DeviceError> {
        let snap = self.durable.snapshot();
        self.write_on(snap, block, data)
    }
}

/// Folds one materialisation device's I/O counters into the run stats.
pub(crate) fn absorb_io(stats: &mut ExploreStats, io: IoStats) {
    stats.blocks_replayed += io.writes;
    stats.blocks_read += io.reads;
    stats.bulk_reads += io.bulk_reads;
    stats.bulk_writes += io.bulk_writes;
    stats.vec_allocs += io.vec_allocs;
}

// ---------------------------------------------------------------------
// classification
// ---------------------------------------------------------------------

/// Indices of the durability expectations covered by a crash point
/// guaranteeing `guaranteed` writes. Classification depends on the
/// crash kind *only* through this set, so it is the second half of the
/// dedup key: byte-identical images under the same applicable set
/// always share a verdict.
fn applicable_expectations(workload: &Workload, guaranteed: usize) -> Vec<u16> {
    workload
        .expectations
        .iter()
        .enumerate()
        .filter(|(_, e)| e.durable_after <= guaranteed)
        .map(|(i, _)| i as u16)
        .collect()
}

/// FNV-1a over raw bytes (store-key context hashing).
fn fnv1a_bytes(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The context half of a persistent-store key: a crash image's verdict
/// depends on the image bytes *and* on what recovery is asked to check —
/// block size, backup-superblock candidates, and the exact contents of
/// the applicable durability expectations. Hashing them into the key
/// keeps verdicts from leaking between unrelated workloads that happen
/// to share an image digest.
fn store_extra(workload: &Workload, applicable: &[u16]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a_bytes(&mut h, &workload.block_size.to_le_bytes());
    for &b in &workload.backup_superblocks {
        fnv1a_bytes(&mut h, &b.to_le_bytes());
    }
    for &i in applicable {
        let e = &workload.expectations[i as usize];
        fnv1a_bytes(&mut h, e.file.as_bytes());
        fnv1a_bytes(&mut h, &[0]);
        fnv1a_bytes(&mut h, &e.content);
        fnv1a_bytes(&mut h, &[0xff]);
    }
    h
}

/// Result of the read-only remount plus durable-data audit.
enum DataCheck {
    Ok,
    Missing(String),
    Unmountable(String),
}

fn check_mount_and_data<D: BlockDevice>(
    dev: D,
    workload: &Workload,
    guaranteed: usize,
) -> DataCheck {
    let fs = match Ext4Fs::mount(dev, &MountOptions::read_only()) {
        Ok(fs) => fs,
        Err(e) => return DataCheck::Unmountable(e.to_string()),
    };
    let root = fs.root_inode();
    for exp in &workload.expectations {
        if exp.durable_after > guaranteed {
            continue; // not yet covered by a flush at this crash point
        }
        match fs.lookup(root, &exp.file) {
            Ok(Some(entry)) => match fs.read_file_to_vec(InodeNo(entry.inode)) {
                Ok(data) if data == exp.content => {}
                Ok(_) => {
                    return DataCheck::Missing(format!("durable file '{}' content differs", exp.file))
                }
                Err(e) => {
                    return DataCheck::Missing(format!("durable file '{}' unreadable: {e}", exp.file))
                }
            },
            Ok(None) => return DataCheck::Missing(format!("durable file '{}' missing", exp.file)),
            Err(e) => {
                return DataCheck::Missing(format!("lookup of durable file '{}' failed: {e}", exp.file))
            }
        }
    }
    DataCheck::Ok
}

fn core(
    verdict: Verdict,
    fsck_exit: Option<i32>,
    fixes: usize,
    used_backup_superblock: bool,
    detail: String,
) -> OutcomeCore {
    OutcomeCore { verdict, fsck_exit, fixes, used_backup_superblock, detail }
}

/// Classifies one materialised crash image. Takes the image by value:
/// the `-n` probe lends it out and gets it back untouched, and each
/// repair attempt makes at most one copy (a cheap snapshot of a
/// [`CowDevice`]).
pub(crate) fn classify_image<D: BlockDevice + Clone>(
    img: D,
    workload: &Workload,
    guaranteed: usize,
) -> OutcomeCore {
    // an untouched copy left over from the probe, consumed by the first
    // repair attempt so the probe and that attempt share one copy
    let mut spare: Option<D> = None;

    // 1. already consistent? `e2fsck -n -f` must find nothing AND the
    // image must mount with its durable data intact
    match E2fsck::with_mode(FsckMode::Check).forced().run(img.clone()) {
        Ok((dev, res)) if res.exit_code == 0 => {
            match check_mount_and_data(dev, workload, guaranteed) {
                DataCheck::Ok => {
                    return core(
                        Verdict::Consistent,
                        Some(0),
                        0,
                        false,
                        "clean without repair".to_string(),
                    )
                }
                DataCheck::Missing(what) => {
                    return core(
                        Verdict::DataLoss,
                        Some(0),
                        0,
                        false,
                        format!("image checks clean but {what}"),
                    )
                }
                // clean yet unmountable: fall through to the repair path
                DataCheck::Unmountable(_) => {}
            }
        }
        // `-n` leaves the image untouched, so the returned device is
        // still pristine — reuse it instead of cloning again
        Ok((dev, _)) => spare = Some(dev),
        Err(_) => {}
    }

    // 2. repair: primary superblock first, then each backup candidate
    let mut attempts: Vec<Option<u64>> = vec![None];
    attempts.extend(workload.backup_superblocks.iter().map(|&b| Some(b)));
    let mut last_failure = "image not recognisable as a file system".to_string();
    for attempt in attempts {
        let mut fsck = E2fsck::with_mode(FsckMode::Fix).forced();
        if let Some(block) = attempt {
            fsck = fsck.with_backup_superblock(block, workload.block_size);
        }
        let target = spare.take().unwrap_or_else(|| img.clone());
        let (dev, res) = match fsck.run(target) {
            Ok(pair) => pair,
            Err(e) => {
                last_failure = e.to_string();
                continue;
            }
        };
        let mut fixes = res.fixes.len();
        let mut exit = res.exit_code;
        let mut dev = dev;
        if exit == 4 {
            // structural repairs can expose counter drift; give the
            // tool the customary second pass
            match E2fsck::with_mode(FsckMode::Fix).forced().run(dev) {
                Ok((d, second)) => {
                    fixes += second.fixes.len();
                    exit = second.exit_code;
                    dev = d;
                }
                Err(e) => {
                    last_failure = e.to_string();
                    continue;
                }
            }
        }
        if exit == 4 {
            last_failure = "errors left uncorrected after two fsck passes".to_string();
            continue;
        }
        // verify the repair took
        let (dev, verify) = match E2fsck::with_mode(FsckMode::Check).forced().run(dev) {
            Ok(pair) => pair,
            Err(e) => {
                last_failure = e.to_string();
                continue;
            }
        };
        if verify.exit_code != 0 {
            last_failure = "repaired image still fails a forced check".to_string();
            continue;
        }
        let used_backup = attempt.is_some();
        let via = match attempt {
            Some(block) => format!(" via backup superblock at block {block}"),
            None => String::new(),
        };
        match check_mount_and_data(dev, workload, guaranteed) {
            DataCheck::Ok => {
                return core(
                    Verdict::Repairable,
                    Some(exit),
                    fixes,
                    used_backup,
                    format!("repaired with {fixes} fix(es){via}"),
                )
            }
            DataCheck::Missing(what) => {
                return core(
                    Verdict::DataLoss,
                    Some(exit),
                    fixes,
                    used_backup,
                    format!("repaired{via}, but {what}"),
                )
            }
            DataCheck::Unmountable(e) => {
                last_failure = format!("repaired image does not mount: {e}");
                continue;
            }
        }
    }

    core(Verdict::Unrecoverable, None, 0, false, last_failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{figure1_resize_workload, journaled_write_workload, Workload};
    use blockdev::{MemDevice, RecordingDevice};
    use contest_helpers::*;

    // small helpers shared by the tests below
    mod contest_helpers {
        use super::*;
        use e2fstools::Mke2fs;

        /// A clean sparse_super image (backups in group 1 and 3).
        pub fn clean_image() -> MemDevice {
            let m = Mke2fs::from_args(&["-b", "1024", "/dev/t", "12288"]).unwrap();
            m.run(MemDevice::new(1024, 16384)).unwrap().0
        }
    }

    #[test]
    fn prefix_points_sampling_keeps_endpoints() {
        assert_eq!(prefix_points(4, None), vec![0, 1, 2, 3, 4]);
        assert_eq!(prefix_points(4, Some(10)), vec![0, 1, 2, 3, 4]);
        let sampled = prefix_points(100, Some(5));
        assert_eq!(sampled.first(), Some(&0));
        assert_eq!(sampled.last(), Some(&100));
        assert_eq!(sampled.len(), 5);
    }

    #[test]
    fn prefix_points_tiny_caps_clamp_to_endpoints() {
        // caps below 2 cannot honour "at most `points`" and keep both
        // endpoints; they clamp to exactly the endpoints
        assert_eq!(prefix_points(100, Some(0)), vec![0, 100]);
        assert_eq!(prefix_points(100, Some(1)), vec![0, 100]);
        assert_eq!(prefix_points(100, Some(2)), vec![0, 100]);
        // degenerate traces still honour the bound
        assert_eq!(prefix_points(0, Some(0)), vec![0]);
        assert_eq!(prefix_points(1, Some(1)), vec![0, 1]);
    }

    #[test]
    fn stragglers_track_flush_barriers() {
        let mut rec = RecordingDevice::new(MemDevice::new(512, 8));
        rec.write_block(0, &[1u8; 512]).unwrap();
        rec.write_block(1, &[2u8; 512]).unwrap();
        rec.flush().unwrap();
        rec.write_block(2, &[3u8; 512]).unwrap();
        rec.write_block(3, &[4u8; 512]).unwrap();
        let (_, trace) = rec.into_parts();
        let w = Workload {
            name: "t".to_string(),
            pre: CowDevice::new(512, 8),
            trace,
            block_size: 512,
            expectations: Vec::new(),
            backup_superblocks: Vec::new(),
        };
        let opts = ExploreOptions { deep_reorder: true, ..ExploreOptions::default() };
        let stragglers: Vec<CrashKind> = walk(&w, &opts, &mut DigestRoll::new(&w).unwrap(), None)
            .unwrap()
            .into_iter()
            .map(|(kind, _)| kind)
            .filter(|kind| {
                matches!(kind, CrashKind::VolatileCache { .. } | CrashKind::ReorderedWrite { .. })
            })
            .collect();
        assert_eq!(
            stragglers,
            vec![
                CrashKind::ReorderedWrite { durable: 0, straggler: 1, crashed_at: 2 },
                CrashKind::VolatileCache { durable: 0, straggler: 2 },
                CrashKind::ReorderedWrite { durable: 2, straggler: 3, crashed_at: 4 },
                CrashKind::VolatileCache { durable: 2, straggler: 4 },
            ]
        );
    }

    #[test]
    fn garbage_trace_on_blank_device_is_unrecoverable() {
        let mut rec = RecordingDevice::new(MemDevice::new(1024, 64));
        rec.write_block(0, &[0xFFu8; 1024]).unwrap();
        let (_, trace) = rec.into_parts();
        let w = Workload {
            name: "garbage".to_string(),
            pre: CowDevice::new(1024, 64),
            trace,
            block_size: 1024,
            expectations: Vec::new(),
            backup_superblocks: Vec::new(),
        };
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        assert!(report.outcomes.iter().all(|o| o.verdict == Verdict::Unrecoverable));
    }

    #[test]
    fn overwritten_primary_superblock_recovers_from_backup() {
        // the traced "workload" wipes block 1 (the primary superblock)
        let pre = clean_image();
        let mut rec = RecordingDevice::new(pre.clone());
        rec.write_block(1, &vec![0u8; 1024]).unwrap();
        let (_, trace) = rec.into_parts();
        let w = Workload {
            name: "sb-wipe".to_string(),
            pre: CowDevice::from_device(&pre).unwrap(),
            trace,
            block_size: 1024,
            expectations: Vec::new(),
            backup_superblocks: vec![8193],
        };
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        // prefix 1 = superblock gone; must come back via block 8193
        let wiped = report
            .outcomes
            .iter()
            .find(|o| matches!(o.kind, CrashKind::Prefix { writes: 1 }))
            .expect("prefix 1 explored");
        assert_eq!(wiped.verdict, Verdict::Repairable, "{}", wiped.detail);
        assert!(wiped.used_backup_superblock, "{}", wiped.detail);
    }

    #[test]
    fn journaled_prefixes_never_lose_the_file_system() {
        let files = vec![("steady".to_string(), vec![7u8; 600])];
        let w = journaled_write_workload(&files).unwrap();
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        assert!(report.writes > 0);
        for o in &report.outcomes {
            assert!(
                o.verdict <= Verdict::Repairable,
                "{:?} -> {:?}: {}",
                o.kind,
                o.verdict,
                o.detail
            );
        }
    }

    #[test]
    fn defrag_crashes_never_lose_durable_data() {
        // regression: the defragmenter must (a) publish the new block
        // mapping only after the copied data, with a flush barrier in
        // between, and (b) free the old blocks only after the publish —
        // otherwise prefix, torn and volatile-cache crash points all
        // surface the pre-existing files with wrong contents
        let w = crate::workloads::defrag_workload().unwrap();
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        let counts = report.counts();
        assert_eq!(counts.data_loss, 0, "{:?}", counts);
        assert_eq!(counts.unrecoverable, 0, "{:?}", counts);
    }

    #[test]
    fn figure1_resize_has_corrupting_crash_points() {
        let w = figure1_resize_workload().unwrap();
        let report = explore(&w, &ExploreOptions::sampled(9)).unwrap();
        assert!(report.corrupting() >= 1, "counts: {:?}", report.counts());
        // the *completed* resize is itself corrupt (the Figure 1 bug):
        let full = report
            .outcomes
            .iter()
            .find(|o| matches!(o.kind, CrashKind::Prefix { writes } if writes == report.writes))
            .expect("complete prefix explored");
        assert_ne!(full.verdict, Verdict::Consistent, "{}", full.detail);
    }

    /// Outcomes in enumeration order.
    fn ordered(r: &CrashReport) -> Vec<String> {
        r.outcomes.iter().map(|o| format!("{o:?}")).collect()
    }

    #[test]
    fn engines_threads_and_cache_agree_exactly() {
        let files = vec![
            ("alpha".to_string(), vec![1u8; 700]),
            ("beta".to_string(), vec![2u8; 300]),
        ];
        let w = journaled_write_workload(&files).unwrap();
        let reference = crate::explore_reference(&w, &ExploreOptions::default()).unwrap();
        let sequential = explore(&w, &ExploreOptions::default()).unwrap();
        let parallel = explore(&w, &ExploreOptions::default().with_threads(4)).unwrap();
        // identical outcome lists, in the same enumeration order
        assert_eq!(ordered(&reference), ordered(&sequential));
        assert_eq!(ordered(&reference), ordered(&parallel));
        assert_eq!(sequential.stats, ExploreStats { threads: 1, ..parallel.stats });
        // the rolling device writes O(W) blocks where replay writes O(W²)
        assert!(
            sequential.stats.blocks_replayed < reference.stats.blocks_replayed,
            "rolling {} vs reference {}",
            sequential.stats.blocks_replayed,
            reference.stats.blocks_replayed
        );
        // journalled traces collapse many torn variants onto their
        // prefix images, so the dedup must fire without changing a
        // single verdict
        assert!(parallel.stats.schedules_pruned > 0, "{:?}", parallel.stats);
        assert_eq!(
            parallel.stats.images_classified + parallel.stats.schedules_pruned,
            parallel.outcomes.len()
        );
        assert_eq!(reference.stats.images_classified, reference.outcomes.len());
        assert_eq!(parallel.stats.threads, 4);
    }

    #[test]
    fn por_engine_matches_exhaustive_and_prunes() {
        let files = vec![
            ("alpha".to_string(), vec![1u8; 700]),
            ("beta".to_string(), vec![2u8; 300]),
        ];
        let w = journaled_write_workload(&files).unwrap();
        let deep = ExploreOptions { deep_reorder: true, ..ExploreOptions::default() };
        let reference = crate::explore_reference(&w, &deep).unwrap();
        let engine = explore(&w, &deep).unwrap();
        assert_eq!(ordered(&reference), ordered(&engine));
        // deep reordering enumerates interior stragglers
        assert!(
            engine.outcomes.iter().any(|o| matches!(o.kind, CrashKind::ReorderedWrite { .. })),
            "deep reorder enumerated no interior stragglers"
        );
        // ... and the dedup collapses them without changing a verdict
        assert!(engine.stats.schedules_pruned > 0, "{:?}", engine.stats);
        assert_eq!(
            engine.stats.por_classes + engine.stats.schedules_pruned,
            engine.outcomes.len(),
            "{:?}",
            engine.stats
        );
        assert_eq!(engine.stats.images_classified, engine.stats.por_classes);
        assert_eq!(reference.stats.schedules_pruned, 0);
    }

    #[test]
    fn store_warm_run_replays_nothing() {
        let files = vec![("alpha".to_string(), vec![1u8; 700])];
        let w = journaled_write_workload(&files).unwrap();
        let store = std::sync::Arc::new(VerdictStore::in_memory(true));
        let opts = ExploreOptions::corpus().with_threads(1).with_store(store.clone());
        let cold = explore(&w, &opts).unwrap();
        assert!(cold.stats.images_classified > 0);
        assert_eq!(cold.stats.store_hits, 0);
        assert_eq!(cold.stats.store_misses, cold.stats.por_classes);
        let warm = explore(&w, &opts).unwrap();
        assert_eq!(warm.stats.images_classified, 0, "warm run classified an image");
        assert_eq!(warm.stats.blocks_replayed, 0, "warm run touched the device layer");
        assert_eq!(warm.stats.store_hits, warm.stats.por_classes);
        assert_eq!(cold.canonical_signature(), warm.canonical_signature());
        assert_eq!(store.len(), cold.stats.por_classes);
    }
}
