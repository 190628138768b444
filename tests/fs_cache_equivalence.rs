//! The buffered metadata cache must be invisible on disk: any workload
//! run under `CachePolicy::WriteBack` has to leave the unmounted device
//! byte-identical to the same workload under the write-through
//! baseline, across mkfs configurations — and crash exploration of a
//! journaled workload recorded through the cached mount path must
//! classify every crash point exactly as the legacy replay engine does.

use proptest::prelude::*;

use confdep_suite::blockdev::{digest_device, MemDevice};
use confdep_suite::crashsim::{explore, explore_reference, journaled_write_workload, ExploreOptions};
use confdep_suite::e2fstools::Mke2fs;
use confdep_suite::ext4sim::{CachePolicy, Ext4Fs, FsError, InodeNo, MountOptions};

/// Valid `-O` sets the generator samples (invalid combinations are
/// conbugck's business; here both arms must get past the format).
const FEATURE_SETS: [&str; 6] = [
    "",
    "has_journal",
    "inline_data",
    "metadata_csum",
    "bigalloc,^resize_inode",
    "sparse_super2,^sparse_super,^resize_inode",
];

const BLOCK_SIZES: [u32; 3] = [1024, 2048, 4096];

#[derive(Debug, Clone)]
enum Op {
    Mkdir(u8),
    Create(u8, u8),
    Write(u8, u8, u16, u8),
    Truncate(u8, u8),
    Unlink(u8, u8),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..4).prop_map(Op::Mkdir),
            (0u8..4, 0u8..6).prop_map(|(d, f)| Op::Create(d, f)),
            (0u8..4, 0u8..6, 0u16..9000, 1u8..255)
                .prop_map(|(d, f, len, byte)| Op::Write(d, f, len, byte)),
            (0u8..4, 0u8..6).prop_map(|(d, f)| Op::Truncate(d, f)),
            (0u8..4, 0u8..6).prop_map(|(d, f)| Op::Unlink(d, f)),
        ],
        1..30,
    )
}

/// Runs the op sequence on a freshly formatted image under `policy` and
/// returns the unmounted device, or `None` if the configuration was
/// rejected at format time (the caller asserts rejection is
/// policy-independent).
fn run_workload(
    bs: u32,
    features: &str,
    ops: &[Op],
    policy: CachePolicy,
) -> Option<MemDevice> {
    let bs_str = bs.to_string();
    let mut argv = vec!["-b", bs_str.as_str()];
    if !features.is_empty() {
        argv.push("-O");
        argv.push(features);
    }
    argv.push("/dev/equiv");
    let num_blocks = 8 * 1024 * 1024 / u64::from(bs);
    let mkfs = Mke2fs::from_args(&argv).ok()?.with_cache_policy(policy);
    let (dev, _) = mkfs.run(MemDevice::new(bs, num_blocks)).ok()?;

    let mut fs = Ext4Fs::mount_with_policy(dev, &MountOptions::default(), policy)
        .expect("a freshly formatted image mounts");
    let root = fs.root_inode();
    // `dir 0` aliases the root; the rest are real directories created up
    // front so every op has a resolvable parent
    let mut dirs = vec![root];
    for d in 1..4 {
        dirs.push(fs.mkdir(root, &format!("base{d}")).expect("fresh image has room"));
    }
    let resolve = |fs: &Ext4Fs<MemDevice>, dir: InodeNo, f: u8| -> Option<InodeNo> {
        fs.lookup(dir, &format!("f{f}"))
            .expect("lookup on a healthy image")
            .map(|e| InodeNo(e.inode))
    };
    for op in ops {
        // results are allowed to be errors (duplicate create, missing
        // unlink target, a full fs) — but must not poison the image
        let _: Result<(), FsError> = match *op {
            Op::Mkdir(d) => {
                let parent = dirs[d as usize % dirs.len()];
                fs.mkdir(parent, "sub").map(|_| ())
            }
            Op::Create(d, f) => {
                let parent = dirs[d as usize % dirs.len()];
                fs.create_file(parent, &format!("f{f}")).map(|_| ())
            }
            Op::Write(d, f, len, byte) => {
                let parent = dirs[d as usize % dirs.len()];
                match resolve(&fs, parent, f) {
                    Some(ino) => fs.write_file(ino, 0, &vec![byte; len as usize]),
                    None => Ok(()),
                }
            }
            Op::Truncate(d, f) => {
                let parent = dirs[d as usize % dirs.len()];
                match resolve(&fs, parent, f) {
                    Some(ino) => fs.truncate(ino),
                    None => Ok(()),
                }
            }
            Op::Unlink(d, f) => {
                let parent = dirs[d as usize % dirs.len()];
                fs.unlink(parent, &format!("f{f}"))
            }
        };
    }
    Some(fs.unmount().expect("clean unmount"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn cached_image_is_byte_identical_to_write_through(
        bs_idx in 0usize..BLOCK_SIZES.len(),
        feat_idx in 0usize..FEATURE_SETS.len(),
        ops in ops_strategy(),
    ) {
        let bs = BLOCK_SIZES[bs_idx];
        let features = FEATURE_SETS[feat_idx];
        let baseline = run_workload(bs, features, &ops, CachePolicy::WriteThrough);
        let cached = run_workload(bs, features, &ops, CachePolicy::WriteBack);
        match (baseline, cached) {
            (Some(wt), Some(wb)) => {
                let da = digest_device(&wt).expect("in-range scan");
                let db = digest_device(&wb).expect("in-range scan");
                prop_assert_eq!(da, db, "bs={} features={:?}", bs, features);
            }
            (None, None) => {} // rejected under both policies: fine
            (wt, wb) => {
                return Err(TestCaseError::fail(format!(
                    "format acceptance diverged: write-through={} write-back={}",
                    wt.is_some(),
                    wb.is_some()
                )));
            }
        }
    }
}

/// The journaled workload is recorded through the cached (write-back)
/// mount path; the replaying reference explorer and the engine must
/// still agree on every crash point's verdict.
#[test]
fn journaled_workload_verdicts_match_across_engines() {
    let files = vec![
        ("alpha".to_string(), vec![0x11u8; 800]),
        ("beta".to_string(), vec![0x22u8; 400]),
    ];
    let workload = journaled_write_workload(&files).expect("workload builds");
    let baseline = explore_reference(&workload, &ExploreOptions::default()).expect("explores");
    let cached = explore(&workload, &ExploreOptions::default().with_threads(2)).expect("explores");
    assert_eq!(baseline.canonical_signature(), cached.canonical_signature());
    assert!(!baseline.outcomes.is_empty());
}
