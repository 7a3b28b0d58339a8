//! A minimal filesystem abstraction with deterministic fault injection.
//!
//! The sharded store ([`crate::shard::ShardedStore`]) never touches
//! `std::fs` directly: every byte goes through the [`Vfs`] trait, so the
//! same code path runs against the real disk ([`RealFs`]), an in-memory
//! filesystem for fast tests ([`MemFs`]), or a fault-injecting wrapper
//! ([`FailpointFs`]) that can tear a write at a chosen byte, fail a rename,
//! flip a bit after the fact, or fail a sync — all deterministic
//! functions of a scripted [`FailSpec`], in the same spirit as
//! [`crate::fault::FaultPlan`] on the network layer. Crash-recovery is
//! therefore testable without real crashes: ingest through a `FailpointFs`
//! until it halts, then reopen the surviving files through the clean inner
//! filesystem and recover.

use crate::fault::mix64;
use crate::mmap::FileMap;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The filesystem operations the sharded store needs. Deliberately tiny —
/// whole-value reads and writes plus append, rename, truncate and sync —
/// so fault injection can reason about every byte that moves.
pub trait Vfs: Send + Sync {
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` and writes `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` to `path`, creating it if absent.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Renames `from` to `to` (replacing `to` if it exists).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Flushes the file's data to stable storage.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Length of the file in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Whether the file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// A read-only byte view of the whole file. The default is an owned
    /// [`read`](Vfs::read) (so fault injection and in-memory filesystems
    /// keep working unchanged); [`RealFs`] overrides it with a zero-copy
    /// `mmap(2)` on Unix.
    fn map(&self, path: &Path) -> io::Result<FileMap> {
        Ok(FileMap::from_vec(self.read(path)?))
    }
}

/// The real disk.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .read(true)
            .open(path)?
            .sync_all()
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn map(&self, path: &Path) -> io::Result<FileMap> {
        FileMap::map_file(path)
    }
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a simulated power loss (advanced by
    /// [`Vfs::sync`]).
    synced_len: usize,
    /// Whether the file was ever fsynced: a synced-while-empty file
    /// survives a power loss (as an empty file), a never-synced one
    /// vanishes.
    ever_synced: bool,
}

/// An in-memory filesystem: fast, hermetic, and able to simulate losing
/// everything written since the last sync ([`MemFs::drop_unsynced`]).
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<HashMap<PathBuf, MemFile>>,
}

impl MemFs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a power loss: every file reverts to its last-synced
    /// prefix. Files never synced vanish entirely.
    pub fn drop_unsynced(&self) {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        files.retain(|_, f| f.ever_synced);
        for f in files.values_mut() {
            f.data.truncate(f.synced_len);
        }
    }

    /// Flips the byte at `offset` in `path` with `xor` — simulated bit rot,
    /// outside any I/O operation.
    pub fn corrupt_byte(&self, path: &Path, offset: u64, xor: u8) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        let f = files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        let at = offset as usize;
        if at >= f.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "corruption offset past end of file",
            ));
        }
        f.data[at] ^= xor;
        Ok(())
    }
}

impl Vfs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let files = self.files.lock().expect("memfs mutex poisoned");
        files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        let f = files.entry(path.to_owned()).or_default();
        f.data = data.to_vec();
        f.synced_len = 0;
        f.ever_synced = false;
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        files
            .entry(path.to_owned())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        let f = files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        files.insert(to.to_owned(), f);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        let f = files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        f.data.truncate(len as usize);
        f.synced_len = f.synced_len.min(f.data.len());
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut files = self.files.lock().expect("memfs mutex poisoned");
        let f = files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        f.synced_len = f.data.len();
        f.ever_synced = true;
        Ok(())
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let files = self.files.lock().expect("memfs mutex poisoned");
        files
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn exists(&self, path: &Path) -> bool {
        self.files
            .lock()
            .expect("memfs mutex poisoned")
            .contains_key(path)
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }
}

impl<T: Vfs + ?Sized> Vfs for Arc<T> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        (**self).rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        (**self).remove(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        (**self).truncate(path, len)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        (**self).sync(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        (**self).len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        (**self).create_dir_all(dir)
    }
    fn map(&self, path: &Path) -> io::Result<FileMap> {
        (**self).map(path)
    }
}

impl<T: Vfs + ?Sized> Vfs for &T {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        (**self).rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        (**self).remove(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        (**self).truncate(path, len)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        (**self).sync(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        (**self).len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        (**self).create_dir_all(dir)
    }
    fn map(&self, path: &Path) -> io::Result<FileMap> {
        (**self).map(path)
    }
}

/// Which [`Vfs`] operation a failpoint fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailOp {
    /// Whole-file [`Vfs::write`].
    Write,
    /// [`Vfs::append`].
    Append,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::sync`].
    Sync,
}

/// What happens when a failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Only the first `keep` payload bytes land, the operation reports an
    /// error, and the filesystem halts (simulated process death mid-write).
    TornWrite {
        /// Payload bytes that make it to the file before the tear.
        keep: usize,
    },
    /// The operation succeeds but the byte at `offset` of the target file
    /// is XORed with `xor` afterwards — *silent* corruption the caller is
    /// never told about (bit rot, firmware lies).
    CorruptByte {
        /// Byte offset within the file (clamped to the last byte).
        offset: u64,
        /// Mask to XOR in (0 is remapped to 0xFF so the byte always changes).
        xor: u8,
    },
    /// The operation reports an error and has no effect. The filesystem
    /// keeps running (a transient EIO the caller must clean up after).
    ErrOnly,
    /// The operation reports an error, has no effect, and the filesystem
    /// halts — every later operation fails too (process killed between
    /// operations).
    Halt,
}

/// One scripted failure: the `index`-th occurrence (0-based) of `op` fires
/// `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failpoint {
    /// Operation class to intercept.
    pub op: FailOp,
    /// 0-based occurrence count at which to fire.
    pub index: u64,
    /// Failure to inject.
    pub kind: FailKind,
}

/// The failure profile of a [`FailpointFs`]: a scripted failpoint list
/// plus optional seeded probabilistic tearing, deterministic per
/// `(seed, op-index)` exactly like [`crate::fault::FaultPlan`] is per
/// `(seed, entity, attempt)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailSpec {
    /// Scripted failpoints (checked before the probabilistic roll).
    pub fail_at: Vec<Failpoint>,
    /// Seed for the probabilistic rolls.
    pub seed: u64,
    /// Probability an append tears partway (payload cut at a seeded offset)
    /// and the filesystem halts.
    pub torn_append_rate: f64,
    /// Probability a sync fails (without halting).
    pub sync_fail_rate: f64,
}

impl FailSpec {
    /// A spec with a single scripted failpoint.
    pub fn once(op: FailOp, index: u64, kind: FailKind) -> Self {
        Self {
            fail_at: vec![Failpoint { op, index, kind }],
            ..Self::default()
        }
    }
}

fn fail_err(what: &str) -> io::Error {
    io::Error::other(format!("failpoint: {what}"))
}

/// A [`Vfs`] decorator that injects the failures scripted in a
/// [`FailSpec`]. Counts each operation class; once a halting failure fires,
/// every subsequent operation fails, so the surviving file state is exactly
/// what a crash at that point would leave. Reads are never failed — they
/// model the *recovery* process inspecting the disk afterwards.
pub struct FailpointFs<V> {
    inner: V,
    spec: FailSpec,
    writes: AtomicU64,
    appends: AtomicU64,
    renames: AtomicU64,
    syncs: AtomicU64,
    halted: AtomicBool,
}

impl<V: Vfs> FailpointFs<V> {
    /// Decorates `inner` with `spec`.
    pub fn new(inner: V, spec: FailSpec) -> Self {
        Self {
            inner,
            spec,
            writes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            halted: AtomicBool::new(false),
        }
    }

    /// The wrapped filesystem.
    pub fn inner(&self) -> &V {
        &self.inner
    }

    /// Whether a halting failpoint has fired.
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    /// Operations of `op` class seen so far.
    pub fn ops_seen(&self, op: FailOp) -> u64 {
        self.counter(op).load(Ordering::Relaxed)
    }

    fn counter(&self, op: FailOp) -> &AtomicU64 {
        match op {
            FailOp::Write => &self.writes,
            FailOp::Append => &self.appends,
            FailOp::Rename => &self.renames,
            FailOp::Sync => &self.syncs,
        }
    }

    /// Returns the failure (if any) for the current occurrence of `op`,
    /// bumping its counter.
    fn next_fault(&self, op: FailOp) -> io::Result<Option<FailKind>> {
        if self.halted.load(Ordering::Relaxed) {
            return Err(fail_err("filesystem halted by earlier failure"));
        }
        let index = self.counter(op).fetch_add(1, Ordering::Relaxed);
        for fp in &self.spec.fail_at {
            if fp.op == op && fp.index == index {
                return Ok(Some(fp.kind));
            }
        }
        let (salt, rate) = match op {
            FailOp::Append => (0x7061_u64, self.spec.torn_append_rate),
            FailOp::Sync => (0x5359_u64, self.spec.sync_fail_rate),
            _ => return Ok(None),
        };
        if rate > 0.0 {
            let roll = mix64(self.spec.seed ^ mix64(salt ^ (index << 16)));
            if (roll >> 11) as f64 / ((1u64 << 53) as f64) < rate {
                return Ok(Some(match op {
                    // Seeded tear offset; the modulus is patched in by the
                    // caller, which knows the payload length.
                    FailOp::Append => FailKind::TornWrite {
                        keep: (mix64(roll) % u32::MAX as u64) as usize,
                    },
                    _ => FailKind::ErrOnly,
                }));
            }
        }
        Ok(None)
    }

    fn halt(&self) {
        self.halted.store(true, Ordering::Relaxed);
    }
}

impl<V: Vfs> Vfs for FailpointFs<V> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.next_fault(FailOp::Write)? {
            None => self.inner.write(path, data),
            Some(FailKind::TornWrite { keep }) => {
                self.inner.write(path, &data[..keep.min(data.len())])?;
                self.halt();
                Err(fail_err("torn write (halted)"))
            }
            Some(FailKind::CorruptByte { offset, xor }) => {
                self.inner.write(path, data)?;
                corrupt_in_place(&self.inner, path, offset, xor)
            }
            Some(FailKind::ErrOnly) => Err(fail_err("write failed")),
            Some(FailKind::Halt) => {
                self.halt();
                Err(fail_err("write failed (halted)"))
            }
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.next_fault(FailOp::Append)? {
            None => self.inner.append(path, data),
            Some(FailKind::TornWrite { keep }) => {
                // Probabilistic tears carry a seeded raw offset; reduce it
                // to a strict prefix of this payload.
                let keep = if data.is_empty() {
                    0
                } else {
                    keep % data.len()
                };
                self.inner.append(path, &data[..keep])?;
                self.halt();
                Err(fail_err("torn append (halted)"))
            }
            Some(FailKind::CorruptByte { offset, xor }) => {
                self.inner.append(path, data)?;
                corrupt_in_place(&self.inner, path, offset, xor)
            }
            Some(FailKind::ErrOnly) => Err(fail_err("append failed")),
            Some(FailKind::Halt) => {
                self.halt();
                Err(fail_err("append failed (halted)"))
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.next_fault(FailOp::Rename)? {
            None => self.inner.rename(from, to),
            Some(FailKind::ErrOnly) => Err(fail_err("rename failed")),
            Some(FailKind::Halt) => {
                self.halt();
                Err(fail_err("rename failed (halted)"))
            }
            Some(FailKind::CorruptByte { offset, xor }) => {
                self.inner.rename(from, to)?;
                corrupt_in_place(&self.inner, to, offset, xor)
            }
            Some(FailKind::TornWrite { .. }) => Err(fail_err("torn write on a rename op")),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        if self.halted() {
            return Err(fail_err("filesystem halted by earlier failure"));
        }
        self.inner.remove(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if self.halted() {
            return Err(fail_err("filesystem halted by earlier failure"));
        }
        self.inner.truncate(path, len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.next_fault(FailOp::Sync)? {
            None => self.inner.sync(path),
            Some(FailKind::Halt) => {
                self.halt();
                Err(fail_err("sync failed (halted)"))
            }
            // Every other kind degrades to a plain failed sync: the data
            // may or may not be durable, the caller only learns "error".
            Some(_) => Err(fail_err("sync failed")),
        }
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if self.halted() {
            return Err(fail_err("filesystem halted by earlier failure"));
        }
        self.inner.create_dir_all(dir)
    }
}

/// Applies [`FailKind::CorruptByte`] to a just-written file: flips one byte
/// in place and *succeeds*, because silent corruption is silent.
fn corrupt_in_place<V: Vfs>(fs: &V, path: &Path, offset: u64, xor: u8) -> io::Result<()> {
    let mut data = fs.read(path)?;
    if !data.is_empty() {
        let at = (offset as usize).min(data.len() - 1);
        data[at] ^= if xor == 0 { 0xFF } else { xor };
        fs.write(path, &data)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn memfs_round_trips() {
        let fs = MemFs::new();
        fs.write(&p("/d/a"), b"hello").unwrap();
        fs.append(&p("/d/a"), b" world").unwrap();
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"hello world");
        assert_eq!(fs.len(&p("/d/a")).unwrap(), 11);
        fs.write(&p("/d/b"), b"x").unwrap();
        fs.rename(&p("/d/a"), &p("/d/c")).unwrap();
        assert!(!fs.exists(&p("/d/a")));
        assert_eq!(fs.read(&p("/d/c")).unwrap(), b"hello world");
        fs.truncate(&p("/d/c"), 5).unwrap();
        assert_eq!(fs.read(&p("/d/c")).unwrap(), b"hello");
        fs.remove(&p("/d/c")).unwrap();
        assert!(fs.read(&p("/d/c")).is_err());
    }

    #[test]
    fn memfs_drop_unsynced_loses_tail() {
        let fs = MemFs::new();
        fs.write(&p("/a"), b"durable").unwrap();
        fs.sync(&p("/a")).unwrap();
        fs.append(&p("/a"), b" volatile").unwrap();
        fs.write(&p("/b"), b"never synced").unwrap();
        fs.drop_unsynced();
        assert_eq!(fs.read(&p("/a")).unwrap(), b"durable");
        assert!(!fs.exists(&p("/b")));
    }

    #[test]
    fn torn_append_halts_with_prefix() {
        let fs = FailpointFs::new(
            MemFs::new(),
            FailSpec::once(FailOp::Append, 1, FailKind::TornWrite { keep: 3 }),
        );
        fs.append(&p("/w"), b"aaaa").unwrap();
        let err = fs.append(&p("/w"), b"bbbb").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert!(fs.halted());
        assert!(fs.append(&p("/w"), b"cccc").is_err());
        assert_eq!(fs.inner().read(&p("/w")).unwrap(), b"aaaabbb");
    }

    #[test]
    fn corrupt_byte_is_silent() {
        let fs = FailpointFs::new(
            MemFs::new(),
            FailSpec::once(
                FailOp::Write,
                0,
                FailKind::CorruptByte {
                    offset: 1,
                    xor: 0x20,
                },
            ),
        );
        fs.write(&p("/c"), b"AAAA").unwrap(); // success: corruption is silent
        assert!(!fs.halted());
        assert_eq!(fs.inner().read(&p("/c")).unwrap(), b"AaAA");
    }

    #[test]
    fn err_only_has_no_effect_and_no_halt() {
        let fs = FailpointFs::new(
            MemFs::new(),
            FailSpec::once(FailOp::Write, 0, FailKind::ErrOnly),
        );
        assert!(fs.write(&p("/e"), b"x").is_err());
        assert!(!fs.halted());
        assert!(!fs.inner().exists(&p("/e")));
        fs.write(&p("/e"), b"x").unwrap();
    }

    #[test]
    fn seeded_torn_appends_are_deterministic() {
        let run = |seed| {
            let fs = FailpointFs::new(
                MemFs::new(),
                FailSpec {
                    seed,
                    torn_append_rate: 0.2,
                    ..FailSpec::default()
                },
            );
            let mut survived = 0u32;
            for i in 0..64 {
                if fs
                    .append(&p("/s"), format!("rec{i:03}").as_bytes())
                    .is_err()
                {
                    break;
                }
                survived += 1;
            }
            (survived, fs.inner().read(&p("/s")).unwrap_or_default())
        };
        let (a, data_a) = run(7);
        let (b, data_b) = run(7);
        assert_eq!(a, b, "same seed, same tear point");
        assert_eq!(data_a, data_b);
        assert!(a < 64, "rate 0.2 over 64 appends must tear");
        let (c, _) = run(8);
        // Different seeds are allowed to collide, but the surviving data is
        // still a strict record prefix plus a partial record.
        let _ = c;
    }

    #[test]
    fn sync_fail_rate_does_not_halt() {
        let fs = FailpointFs::new(
            MemFs::new(),
            FailSpec {
                seed: 3,
                sync_fail_rate: 1.0,
                ..FailSpec::default()
            },
        );
        fs.write(&p("/f"), b"x").unwrap();
        assert!(fs.sync(&p("/f")).is_err());
        assert!(!fs.halted());
        fs.append(&p("/f"), b"y").unwrap();
    }
}
