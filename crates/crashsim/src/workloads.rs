//! Canonical workloads whose write streams the explorer crash-tests.
//!
//! Each builder runs one ecosystem operation over a [`RecordingDevice`]
//! and packages the pre-image, the trace, the durability expectations
//! and the backup-superblock candidates into a [`Workload`].

use blockdev::{CowDevice, MemDevice, RecordingDevice};
use contools::standard_image;
use e2fstools::{backup_superblock_candidates, E4defrag, Mke2fs, Resize2fs, ToolError};
use ext4sim::{Ext4Fs, FsError, MountOptions};

use crate::IoTrace;

/// Data the workload made durable: once `durable_after` writes are
/// guaranteed on disk (a flush barrier covered them), `file` must
/// survive any crash with exactly `content`.
#[derive(Debug, Clone)]
pub struct DurableExpectation {
    /// File name in the root directory.
    pub file: String,
    /// Expected contents.
    pub content: Vec<u8>,
    /// Trace write count at the moment the data was flushed.
    pub durable_after: usize,
}

/// A recorded workload, ready for crash-point exploration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used in the report.
    pub name: String,
    /// Device contents before the traced operation. Its tracked content
    /// digest and cheap snapshots let the explorer start every run
    /// without rescanning the image.
    pub pre: CowDevice,
    /// The operation's write/flush stream.
    pub trace: IoTrace,
    /// File-system block size (for `e2fsck -B`).
    pub block_size: u32,
    /// Durability contract to judge data loss against.
    pub expectations: Vec<DurableExpectation>,
    /// Blocks to try with `e2fsck -b` when the primary superblock is
    /// unusable.
    pub backup_superblocks: Vec<u64>,
}

/// `dev` as a digest-tracking copy-on-write image.
fn cow_image(dev: &MemDevice) -> Result<CowDevice, ToolError> {
    Ok(CowDevice::from_device(dev).map_err(FsError::from)?)
}

/// Backup-superblock candidates of the file system on `dev`, or none
/// when the image is not (yet) openable.
fn candidates_from(dev: &MemDevice) -> Vec<u64> {
    Ext4Fs::open_for_maintenance(dev.clone())
        .map(|fs| backup_superblock_candidates(fs.layout()))
        .unwrap_or_default()
}

/// `mke2fs -b 1024 /dev/crash 12288` on a blank device. Early crash
/// points leave no recognisable file system at all — format is the one
/// workload where `Unrecoverable` outcomes are the expected baseline.
pub fn format_workload() -> Result<Workload, ToolError> {
    let blank = MemDevice::new(1024, 16384);
    let m = Mke2fs::from_args(&["-b", "1024", "/dev/crash", "12288"])?;
    let (rec, _) = m.run(RecordingDevice::new(blank.clone()))?;
    let (post, trace) = rec.into_parts();
    Ok(Workload {
        name: "mke2fs-format".to_string(),
        pre: cow_image(&blank)?,
        trace,
        block_size: 1024,
        expectations: Vec::new(),
        backup_superblocks: candidates_from(&post),
    })
}

/// The paper's Figure 1 case: grow a `sparse_super2` file system with
/// `resize2fs`. Even the *complete* trace is a corrupting "crash point"
/// here — the resize itself miscomputes the last group's free blocks.
pub fn figure1_resize_workload() -> Result<Workload, ToolError> {
    // the same image ConHandleCk injects its Figure 1 violation into —
    // crash exploration extends that completed-operation check to every
    // mid-operation power-failure point
    let pre = standard_image("sparse_super2,^sparse_super,^resize_inode");
    let (rec, _) = Resize2fs::to_size(16384).run(RecordingDevice::new(pre.clone()))?;
    let (post, trace) = rec.into_parts();
    // the resize may relocate the sparse_super2 backups: candidates from
    // both the old and the new geometry are valid recovery points
    let mut backups = candidates_from(&pre);
    for b in candidates_from(&post) {
        if !backups.contains(&b) {
            backups.push(b);
        }
    }
    Ok(Workload {
        name: "figure1-sparse-super2-resize".to_string(),
        pre: cow_image(&pre)?,
        trace,
        block_size: 1024,
        expectations: Vec::new(),
        backup_superblocks: backups,
    })
}

/// Mount–write–unmount cycles on a journalled file system, one cycle
/// per `(name, content)` pair. Each clean unmount commits through the
/// journal and ends in a flush, so every earlier cycle's file is part
/// of the durability contract from that point on.
pub fn journaled_write_workload(files: &[(String, Vec<u8>)]) -> Result<Workload, ToolError> {
    let m = Mke2fs::from_args(&["-b", "1024", "/dev/crash", "4096"])?;
    let (pre, _) = m.run(MemDevice::new(1024, 4096))?;
    let mut rec = RecordingDevice::new(pre.clone());
    let mut expectations = Vec::new();
    for (name, content) in files {
        let mut fs = Ext4Fs::mount(rec, &MountOptions::default())?;
        let root = fs.root_inode();
        let ino = fs.create_file(root, name)?;
        if !content.is_empty() {
            fs.write_file(ino, 0, content)?;
        }
        rec = fs.unmount()?;
        expectations.push(DurableExpectation {
            file: name.clone(),
            content: content.clone(),
            durable_after: rec.trace().write_count(),
        });
    }
    let (_, trace) = rec.into_parts();
    Ok(Workload {
        name: "journaled-file-writes".to_string(),
        pre: cow_image(&pre)?,
        trace,
        block_size: 1024,
        // single block group: no backup superblocks exist
        expectations,
        backup_superblocks: Vec::new(),
    })
}

/// `e4defrag` over two deliberately interleaved files. Both files were
/// durable before the defragmenter started, so they must survive every
/// crash point with their contents intact (`durable_after: 0`).
pub fn defrag_workload() -> Result<Workload, ToolError> {
    let dev = standard_image("");
    let mut fs = Ext4Fs::mount(dev, &MountOptions::default())?;
    let root = fs.root_inode();
    let a = fs.create_file(root, "frag_a")?;
    let b = fs.create_file(root, "frag_b")?;
    // alternate extends so the two files' blocks interleave on disk
    for i in 0..8u64 {
        fs.write_file(a, i * 1024, &[0xAA; 1024])?;
        fs.write_file(b, i * 1024, &[0xBB; 1024])?;
    }
    let pre = fs.unmount()?;

    let rec = RecordingDevice::new(pre.clone());
    let mut fs = Ext4Fs::mount(rec, &MountOptions::default())?;
    E4defrag::new().run(&mut fs)?;
    let rec = fs.unmount()?;
    let (_, trace) = rec.into_parts();
    let expectations = vec![
        DurableExpectation { file: "frag_a".to_string(), content: vec![0xAA; 8 * 1024], durable_after: 0 },
        DurableExpectation { file: "frag_b".to_string(), content: vec![0xBB; 8 * 1024], durable_after: 0 },
    ];
    let backup_superblocks = candidates_from(&pre);
    Ok(Workload {
        name: "e4defrag-online".to_string(),
        pre: cow_image(&pre)?,
        trace,
        block_size: 1024,
        expectations,
        backup_superblocks,
    })
}

/// Parameters for a [`generated_workload`] multi-op corpus entry.
///
/// The same spec always produces the same workload: the op mix is
/// drawn from a splitmix64 stream seeded with `seed`, so corpus runs
/// are reproducible across machines and benchmark invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Seed for the deterministic op-mix generator.
    pub seed: u64,
    /// Number of file operations to record.
    pub ops: usize,
    /// `max_batch_ops` mount tunable for the recorded session (0/1 =
    /// commit-per-op, >1 = journal group commit).
    pub max_batch_ops: u32,
}

/// Deterministic splitmix64, same constants as `bench::synth`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Contents for file number `counter`: the first eight bytes are the
/// counter itself so every generated file body is unique.
fn corpus_content(counter: u64, rng: &mut SplitMix64) -> Vec<u8> {
    let len = 120 + rng.below(881) as usize;
    let mut content = vec![(rng.next() & 0xff) as u8; len];
    content[..8].copy_from_slice(&counter.to_le_bytes());
    content
}

/// A generated multi-op workload: a single journalled mount session
/// mixing creates, overwrites, renames, deletes and an occasional
/// online defrag, with [`Ext4Fs::sync`] called after every operation.
///
/// Durability expectations cover the files live at unmount. Each
/// expectation's `durable_after` is the earliest sealed sync (group
/// commit) from which that exact `(name, content)` pair persisted
/// unchanged to the end of the trace, so renames, overwrites and
/// deletes of *other* files never invalidate it.
pub fn generated_workload(spec: &CorpusSpec) -> Result<Workload, ToolError> {
    use std::collections::BTreeMap;

    let m = Mke2fs::from_args(&["-b", "1024", "/dev/corpus", "4096"])?;
    let (pre, _) = m.run(MemDevice::new(1024, 4096))?;
    let rec = RecordingDevice::new(pre.clone());
    let opts = MountOptions { max_batch_ops: spec.max_batch_ops, ..MountOptions::default() };
    let mut fs = Ext4Fs::mount(rec, &opts)?;
    let root = fs.root_inode();

    let mut rng = SplitMix64(spec.seed);
    let mut live: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    // (write count, live set) at each sealed group commit
    let mut durable_points: Vec<(usize, BTreeMap<String, Vec<u8>>)> = Vec::new();
    let mut counter: u64 = 0;

    for _ in 0..spec.ops {
        let roll = rng.below(100);
        if live.is_empty() || roll < 40 {
            // create a fresh file
            counter += 1;
            let name = format!("f{counter}");
            let content = corpus_content(counter, &mut rng);
            let ino = fs.create_file(root, &name)?;
            fs.write_file(ino, 0, &content)?;
            live.insert(name, content);
        } else if roll < 60 {
            // overwrite an existing file with new contents
            let victim = rng.below(live.len() as u64) as usize;
            let name = match live.keys().nth(victim) {
                Some(n) => n.clone(),
                None => continue,
            };
            counter += 1;
            let content = corpus_content(counter, &mut rng);
            if let Some(entry) = fs.lookup(root, &name)? {
                let ino = ext4sim::InodeNo(entry.inode);
                fs.truncate(ino)?;
                fs.write_file(ino, 0, &content)?;
                live.insert(name, content);
            }
        } else if roll < 75 {
            // rename to a fresh name
            let victim = rng.below(live.len() as u64) as usize;
            let name = match live.keys().nth(victim) {
                Some(n) => n.clone(),
                None => continue,
            };
            counter += 1;
            let new_name = format!("r{counter}");
            fs.rename(root, &name, root, &new_name)?;
            if let Some(content) = live.remove(&name) {
                live.insert(new_name, content);
            }
        } else if roll < 90 {
            // delete
            let victim = rng.below(live.len() as u64) as usize;
            let name = match live.keys().nth(victim) {
                Some(n) => n.clone(),
                None => continue,
            };
            fs.unlink(root, &name)?;
            live.remove(&name);
        } else if live.len() >= 2 {
            // online defrag across whatever is currently live
            E4defrag::new().run(&mut fs)?;
        }
        if fs.sync()? {
            durable_points.push((fs.device().trace().write_count(), live.clone()));
        }
    }

    let rec = fs.unmount()?;
    // unmount force-seals any pending group commit
    durable_points.push((rec.trace().write_count(), live.clone()));
    let (_, trace) = rec.into_parts();

    // Each surviving file is durable from the earliest sealed commit at
    // which its final contents appeared and were never changed again.
    let final_writes = trace.write_count();
    let mut expectations = Vec::new();
    for (name, content) in &live {
        let mut durable_after = final_writes;
        for (writes, snapshot) in durable_points.iter().rev() {
            if snapshot.get(name) == Some(content) {
                durable_after = *writes;
            } else {
                break;
            }
        }
        expectations.push(DurableExpectation {
            file: name.clone(),
            content: content.clone(),
            durable_after,
        });
    }

    Ok(Workload {
        name: format!(
            "corpus-s{}-o{}-b{}",
            spec.seed, spec.ops, spec.max_batch_ops
        ),
        pre: cow_image(&pre)?,
        trace,
        block_size: 1024,
        // single block group: no backup superblocks exist
        expectations,
        backup_superblocks: Vec::new(),
    })
}

/// A corpus of [`generated_workload`] entries with seeds derived from
/// `seed` via splitmix64, all sharing `ops` and `max_batch_ops`.
pub fn generated_corpus(
    seed: u64,
    count: usize,
    ops: usize,
    max_batch_ops: u32,
) -> Result<Vec<Workload>, ToolError> {
    let mut rng = SplitMix64(seed);
    (0..count)
        .map(|_| {
            generated_workload(&CorpusSpec { seed: rng.next(), ops, max_batch_ops })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journaled_workload_records_expectations_in_order() {
        let files = vec![
            ("alpha".to_string(), vec![1u8; 700]),
            ("beta".to_string(), vec![2u8; 300]),
        ];
        let w = journaled_write_workload(&files).unwrap();
        assert_eq!(w.expectations.len(), 2);
        assert!(w.expectations[0].durable_after < w.expectations[1].durable_after);
        assert_eq!(w.expectations[1].durable_after, w.trace.write_count());
        // each unmount commits through the journal and flushes
        assert!(w.trace.flush_count() >= 2, "flushes: {}", w.trace.flush_count());
    }

    #[test]
    fn format_workload_traces_the_whole_format() {
        let w = format_workload().unwrap();
        assert!(w.trace.write_count() > 10);
        assert_eq!(w.backup_superblocks, vec![8193]);
    }

    #[test]
    fn figure1_workload_knows_its_backups() {
        let w = figure1_resize_workload().unwrap();
        assert!(w.backup_superblocks.contains(&8193), "{:?}", w.backup_superblocks);
        assert!(w.trace.write_count() > 0);
    }

    #[test]
    fn defrag_workload_guards_preexisting_data() {
        let w = defrag_workload().unwrap();
        assert!(w.expectations.iter().all(|e| e.durable_after == 0));
    }

    #[test]
    fn generated_workload_is_deterministic() {
        let spec = CorpusSpec { seed: 7, ops: 10, max_batch_ops: 1 };
        let a = generated_workload(&spec).unwrap();
        let b = generated_workload(&spec).unwrap();
        assert_eq!(a.trace.write_count(), b.trace.write_count());
        assert_eq!(a.expectations.len(), b.expectations.len());
        for (ea, eb) in a.expectations.iter().zip(&b.expectations) {
            assert_eq!(ea.file, eb.file);
            assert_eq!(ea.content, eb.content);
            assert_eq!(ea.durable_after, eb.durable_after);
        }
        assert!(!a.expectations.is_empty(), "corpus left no live files");
    }

    #[test]
    fn generated_workload_expectations_are_final_live_set() {
        let spec = CorpusSpec { seed: 42, ops: 14, max_batch_ops: 3 };
        let w = generated_workload(&spec).unwrap();
        // every expectation's durable point lies inside the trace
        let total = w.trace.write_count();
        for e in &w.expectations {
            assert!(e.durable_after <= total, "{} > {}", e.durable_after, total);
            assert!(e.content.len() >= 120);
        }
        // names are unique
        let mut names: Vec<_> = w.expectations.iter().map(|e| e.file.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), w.expectations.len());
    }

    #[test]
    fn generated_corpus_varies_by_seed() {
        let corpus = generated_corpus(1, 3, 8, 1).unwrap();
        assert_eq!(corpus.len(), 3);
        let counts: Vec<_> = corpus.iter().map(|w| w.trace.write_count()).collect();
        assert!(
            counts.windows(2).any(|p| p[0] != p[1]),
            "all corpus entries traced identically: {counts:?}"
        );
    }
}
