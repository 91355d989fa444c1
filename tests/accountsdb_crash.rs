//! The flat store's durable protocol, checked at every crash point.
//!
//! A short session (blocks absorbed, flushed and snapshotted) runs on a
//! real store whose file operations go through a recording [`Fs`]. The
//! explorer then replays the recorded operations into a model of what a
//! disk may keep after a power loss, crashes after every operation, and
//! reopens every image the model allows with the real
//! [`AccountsDb::open`].
//!
//! The crash model, per operation since the last matching sync:
//! - a file's data written since its last `SyncFile` may be lost, kept,
//!   or torn: the new bytes cut at a few offsets (every offset in the
//!   deep sweep);
//! - a directory entry created or renamed since the directory's last
//!   `SyncDir` may be lost, each one independently (every subset of at
//!   most [`MAX_PENDING`] pending entries per crash point).
//!
//! Directories themselves exist from the start, and nothing is reordered
//! within a file beyond the tear. Images that come out identical at one
//! crash point are reopened once.
//!
//! The invariant: the reopened store is exactly one of the snapshots that
//! had started by the crash (or the empty store), and no older than the
//! last snapshot whose `snapshot()` had returned. Its `head_height()`,
//! `snapshot_root()` and `export_state().merkle_root()` all match that
//! snapshot, and neither the reopen nor the checks panic.

use mtpu_repro::accountsdb::durable::{Fs, FsOp, RealFs};
use mtpu_repro::accountsdb::AccountsDb;
use mtpu_repro::evm::overlay::{AccountDelta, BlockDelta, TxDelta};
use mtpu_repro::evm::state::State;
use mtpu_repro::primitives::map::FastSet;
use mtpu_repro::primitives::{Address, B256, U256};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// 4 flushes and 2 snapshots: `F` absorbs a block and flushes it, `S`
/// absorbs a block and snapshots (whose own flush writes that block).
const SESSION: &str = "FFS FFS";
/// 8 flushes and 3 snapshots.
const DEEP_SESSION: &str = "FFFS FFFS FFS";
/// Bound on the pending directory entries whose subsets are enumerated.
const MAX_PENDING: usize = 12;

/// Records every operation, then performs it on the real file system.
#[derive(Debug, Default)]
struct Recorder {
    ops: Mutex<Vec<FsOp>>,
}

impl Fs for Recorder {
    fn apply(&self, op: &FsOp) -> io::Result<()> {
        self.ops.lock().unwrap().push(op.clone());
        RealFs.apply(op)
    }
}

/// One snapshot the session took: what a reopen at it must show, and the
/// span of recorded operations its `snapshot()` call covered.
#[derive(Debug)]
struct Snap {
    height: u64,
    root: B256,
    /// Operations recorded before the call started.
    started: usize,
    /// Operations recorded when it returned.
    returned: usize,
}

/// The recorded session: its operations (paths relative to the store
/// directory) and its snapshots, the empty store first.
#[derive(Debug)]
struct Session {
    ops: Vec<FsOp>,
    snaps: Vec<Snap>,
}

/// A fresh directory, unique within this process (tests run in parallel).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mtpu-accountsdb-crash-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn addr(n: u64) -> Address {
    Address::from_low_u64(n)
}

/// Block `h`: creates account `10 + h` (with code on odd heights) and two
/// slots, pays account 1 and rewrites one of its slots; account 2 is
/// deleted at height 4 and re-created with fresh storage at height 6.
fn block(h: u64) -> TxDelta {
    let mut tx = TxDelta::default();
    let mut fresh = AccountDelta {
        shadows_base: true,
        balance: Some(U256::from(1000 + h)),
        nonce: Some(h),
        ..Default::default()
    };
    if h % 2 == 1 {
        let code = vec![0x60, h as u8, 0x00];
        fresh.code = Some((code.clone(), B256::keccak(&code)));
    }
    fresh.storage.insert(U256::from(h), U256::from(h * 7));
    fresh.storage.insert(U256::from(h + 1), U256::from(h * 11));
    tx.accounts.insert(addr(10 + h), fresh);

    let mut payer = AccountDelta {
        shadows_base: h == 1,
        balance: Some(U256::from(500 + 3 * h)),
        nonce: Some(h),
        ..Default::default()
    };
    payer.storage.insert(U256::from(h % 3), U256::from(h * 13));
    tx.accounts.insert(addr(1), payer);

    let second = match h {
        1 => Some(AccountDelta {
            shadows_base: true,
            balance: Some(U256::from(77u64)),
            storage: [(U256::ONE, U256::from(5u64))].into_iter().collect(),
            ..Default::default()
        }),
        4 => Some(AccountDelta {
            shadows_base: true,
            deleted: true,
            ..Default::default()
        }),
        6 => Some(AccountDelta {
            shadows_base: true,
            balance: Some(U256::from(66u64)),
            storage: [(U256::from(9u64), U256::from(9u64))].into_iter().collect(),
            ..Default::default()
        }),
        _ => None,
    };
    if let Some(d) = second {
        tx.accounts.insert(addr(2), d);
    }
    tx
}

/// Runs `schedule` on a fresh store through a [`Recorder`].
fn record(schedule: &str) -> Session {
    let dir = scratch_dir("session");
    let recorder = Arc::new(Recorder::default());
    let db = AccountsDb::open_with_fs(&dir, recorder.clone()).unwrap();
    let recorded = || recorder.ops.lock().unwrap().len();
    let mut state = State::new();
    let mut snaps = vec![Snap {
        height: 0,
        root: state.merkle_root(),
        started: 0,
        returned: 0,
    }];
    for (i, step) in schedule.chars().filter(|c| !c.is_whitespace()).enumerate() {
        let h = i as u64 + 1;
        let mut delta = BlockDelta::new();
        delta.merge(&block(h), &db);
        db.absorb(&delta, h);
        delta.apply_to(&mut state);
        match step {
            'F' => assert!(db.flush_up_to(h).unwrap() > 0),
            'S' => {
                let root = state.merkle_root();
                let started = recorded();
                db.snapshot(Some(root)).unwrap();
                snaps.push(Snap {
                    height: h,
                    root,
                    started,
                    returned: recorded(),
                });
            }
            other => panic!("unknown session step {other:?}"),
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let relative = |p: &PathBuf| p.strip_prefix(&dir).unwrap().to_path_buf();
    let ops = recorder
        .ops
        .lock()
        .unwrap()
        .iter()
        .map(|op| match op {
            FsOp::Write(p, bytes) => FsOp::Write(relative(p), bytes.clone()),
            FsOp::SyncFile(p) => FsOp::SyncFile(relative(p)),
            FsOp::SyncDir(p) => FsOp::SyncDir(relative(p)),
            FsOp::Rename(from, to) => FsOp::Rename(relative(from), relative(to)),
        })
        .collect();
    Session { ops, snaps }
}

/// A directory-entry change not yet made durable by a `SyncDir`.
#[derive(Debug)]
enum Entry {
    /// `name` now names file `ino` (a creation).
    Link(String, usize),
    /// `to` names file `ino` and `from` is gone.
    Rename(String, String, usize),
}

#[derive(Debug, Default)]
struct Dir {
    /// Entries as of the last `SyncDir`.
    synced: BTreeMap<String, usize>,
    /// Entry changes since, in order.
    pending: Vec<Entry>,
    /// Entries as the running process sees them.
    now: BTreeMap<String, usize>,
}

#[derive(Debug)]
struct Inode {
    /// Contents as the running process sees them.
    data: Vec<u8>,
    /// Contents as of the last `SyncFile`.
    synced: Vec<u8>,
}

/// What the disk may hold: files and the directories naming them.
#[derive(Debug, Default)]
struct Disk {
    inodes: Vec<Inode>,
    dirs: BTreeMap<PathBuf, Dir>,
}

fn split(path: &Path) -> (PathBuf, String) {
    let dir = path.parent().unwrap_or(Path::new("")).to_path_buf();
    (
        dir,
        path.file_name().unwrap().to_string_lossy().into_owned(),
    )
}

impl Disk {
    fn apply(&mut self, op: &FsOp) {
        match op {
            FsOp::Write(path, bytes) => {
                let (dir, name) = split(path);
                let dir = self.dirs.entry(dir).or_default();
                match dir.now.get(&name) {
                    Some(&ino) => self.inodes[ino].data = bytes.clone(),
                    None => {
                        let ino = self.inodes.len();
                        self.inodes.push(Inode {
                            data: bytes.clone(),
                            synced: Vec::new(),
                        });
                        dir.now.insert(name.clone(), ino);
                        dir.pending.push(Entry::Link(name, ino));
                    }
                }
            }
            FsOp::SyncFile(path) => {
                let (dir, name) = split(path);
                let ino = self.dirs[&dir].now[&name];
                self.inodes[ino].synced = self.inodes[ino].data.clone();
            }
            FsOp::SyncDir(dir) => {
                let dir = self.dirs.entry(dir.clone()).or_default();
                dir.synced = dir.now.clone();
                dir.pending.clear();
            }
            FsOp::Rename(from, to) => {
                let ((dir, from), (to_dir, to)) = (split(from), split(to));
                assert_eq!(dir, to_dir, "the protocol renames within one directory");
                let dir = self.dirs.get_mut(&dir).unwrap();
                let ino = dir.now.remove(&from).expect("rename of a missing file");
                dir.now.insert(to.clone(), ino);
                dir.pending.push(Entry::Rename(from, to, ino));
            }
        }
    }

    /// Every image a crash now may leave: relative path → contents.
    fn images(&self, every_tear: bool) -> Vec<BTreeMap<PathBuf, Vec<u8>>> {
        let pending: Vec<(&PathBuf, &Entry)> = self
            .dirs
            .iter()
            .flat_map(|(path, dir)| dir.pending.iter().map(move |e| (path, e)))
            .collect();
        assert!(
            pending.len() <= MAX_PENDING,
            "{} directory entries pending, beyond the explorer's bound of {MAX_PENDING}",
            pending.len()
        );
        // The contents each file may hold.
        let contents: Vec<Vec<Vec<u8>>> = self
            .inodes
            .iter()
            .map(|inode| {
                if inode.data == inode.synced {
                    return vec![inode.data.clone()];
                }
                let len = inode.data.len();
                let cuts: Vec<usize> = if every_tear {
                    (0..len).collect()
                } else {
                    vec![1, len / 2, len.saturating_sub(1)]
                };
                let mut choices = vec![inode.synced.clone(), inode.data.clone()];
                choices.extend(cuts.into_iter().map(|c| inode.data[..c].to_vec()));
                choices.sort();
                choices.dedup();
                choices
            })
            .collect();

        let mut images = Vec::new();
        for kept in 0u32..1 << pending.len() {
            let mut names: BTreeMap<PathBuf, BTreeMap<String, usize>> = self
                .dirs
                .iter()
                .map(|(path, dir)| (path.clone(), dir.synced.clone()))
                .collect();
            for (i, (path, entry)) in pending.iter().enumerate() {
                if kept & (1 << i) == 0 {
                    continue;
                }
                let names = names.get_mut(*path).unwrap();
                match entry {
                    Entry::Link(name, ino) => {
                        names.insert(name.clone(), *ino);
                    }
                    Entry::Rename(from, to, ino) => {
                        names.remove(from);
                        names.insert(to.clone(), *ino);
                    }
                }
            }
            let files: Vec<(PathBuf, usize)> = names
                .iter()
                .flat_map(|(dir, names)| names.iter().map(move |(n, &ino)| (dir.join(n), ino)))
                .collect();
            // Every combination of the contents of the files this image
            // names.
            let mut partial = vec![BTreeMap::new()];
            for (path, ino) in &files {
                partial = partial
                    .into_iter()
                    .flat_map(|image: BTreeMap<PathBuf, Vec<u8>>| {
                        contents[*ino].iter().map(move |bytes| {
                            let mut image = image.clone();
                            image.insert(path.clone(), bytes.clone());
                            image
                        })
                    })
                    .collect();
            }
            images.extend(partial);
        }
        images
    }
}

/// Writes `image` into a fresh directory, reopens it and checks the
/// invariant against the snapshots `allowed` at this crash point.
fn check_image(
    image: &BTreeMap<PathBuf, Vec<u8>>,
    allowed: &[Snap],
    dir: &Path,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("storage")).unwrap();
    for (path, bytes) in image {
        std::fs::write(dir.join(path), bytes).unwrap();
    }
    let reopened = catch_unwind(AssertUnwindSafe(|| {
        let db = AccountsDb::open(dir).map_err(|e| format!("reopen failed: {e}"))?;
        let height = db.head_height();
        let snap = allowed.iter().find(|s| s.height == height).ok_or_else(|| {
            let heights: Vec<u64> = allowed.iter().map(|s| s.height).collect();
            format!("reopened at height {height}, allowed heights {heights:?}")
        })?;
        let want = (snap.height > 0).then_some(snap.root);
        if db.snapshot_root() != want {
            return Err(format!(
                "height {height}: snapshot_root {:?}, want {want:?}",
                db.snapshot_root()
            ));
        }
        let derived = db.export_state().merkle_root();
        if derived != snap.root {
            return Err(format!(
                "height {height}: derived root {derived}, want {}",
                snap.root
            ));
        }
        Ok(())
    }));
    reopened.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

fn describe(image: &BTreeMap<PathBuf, Vec<u8>>) -> String {
    let files: Vec<String> = image
        .iter()
        .map(|(path, bytes)| format!("{}={}B", path.display(), bytes.len()))
        .collect();
    files.join(" ")
}

/// Crashes after every operation of `schedule`'s session and checks every
/// image; returns how many distinct images were reopened.
fn explore(schedule: &str, every_tear: bool) -> usize {
    let session = record(schedule);
    let dir = scratch_dir("image");
    let mut disk = Disk::default();
    let mut seen = FastSet::default();
    for crash in 0..=session.ops.len() {
        if crash > 0 {
            disk.apply(&session.ops[crash - 1]);
        }
        // Snapshots that had started by now; the oldest allowed is the
        // last one whose `snapshot()` had returned.
        let started = session.snaps.iter().filter(|s| s.started <= crash).count();
        let oldest = session.snaps[..started]
            .iter()
            .rposition(|s| s.returned <= crash)
            .expect("the empty store has always returned");
        let allowed = &session.snaps[oldest..started];
        for image in disk.images(every_tear) {
            let mut h = DefaultHasher::new();
            (&image, oldest, started).hash(&mut h);
            if !seen.insert(h.finish()) {
                continue;
            }
            if let Err(why) = check_image(&image, allowed, &dir) {
                let after = match crash {
                    0 => "before any operation".to_string(),
                    k => format!("after op {k} {:?}", brief(&session.ops[k - 1])),
                };
                panic!("crash {after}, image [{}]: {why}", describe(&image));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    seen.len()
}

/// An operation without its bytes, for messages.
fn brief(op: &FsOp) -> String {
    match op {
        FsOp::Write(p, bytes) => format!("Write({}, {}B)", p.display(), bytes.len()),
        FsOp::SyncFile(p) => format!("SyncFile({})", p.display()),
        FsOp::SyncDir(p) => format!("SyncDir({:?})", p.display().to_string()),
        FsOp::Rename(from, to) => format!("Rename({}, {})", from.display(), to.display()),
    }
}

#[test]
fn a_flush_writes_and_syncs_one_file_and_a_snapshot_syncs_both_directories() {
    let session = record("FS");
    let ops: Vec<String> = session
        .ops
        .iter()
        .map(|op| match op {
            FsOp::Write(p, _) => format!("Write {}", p.display()),
            FsOp::SyncFile(p) => format!("SyncFile {}", p.display()),
            FsOp::SyncDir(p) => format!("SyncDir /{}", p.display()),
            FsOp::Rename(from, to) => format!("Rename {} {}", from.display(), to.display()),
        })
        .collect();
    assert_eq!(
        ops,
        [
            "Write storage/000000.acc",
            "SyncFile storage/000000.acc",
            "Write storage/000001.acc",
            "SyncFile storage/000001.acc",
            "SyncDir /storage",
            "Write MANIFEST.tmp",
            "SyncFile MANIFEST.tmp",
            "Rename MANIFEST.tmp MANIFEST",
            "SyncDir /",
        ]
    );
}

#[test]
fn every_crash_point_reopens_at_a_started_snapshot() {
    let images = explore(SESSION, false);
    assert!(images > 50, "only {images} distinct crash images");
}

#[test]
#[ignore = "deep sweep (every tear offset, 8 flushes, 3 snapshots); run with --ignored"]
fn every_crash_point_and_tear_offset_of_a_longer_session() {
    let images = explore(DEEP_SESSION, true);
    assert!(images > 1000, "only {images} distinct crash images");
}
