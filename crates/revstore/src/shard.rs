//! The out-of-core revision corpus: delta-encoded, hash-sharded segment
//! logs with mmap-backed snapshot materialization.
//!
//! [`RevisionStore`](crate::RevisionStore) keeps every revision's full wikitext in memory — fine
//! for thousands of entities, hopeless for the million-entity corpora the
//! real system crawls (full-Wikipedia revision history is terabytes).
//! [`ShardedStore`] keeps the corpus on disk instead and materializes
//! page histories on demand:
//!
//! * **Delta-encoded entity logs.** Each revision is appended as a
//!   checksummed frame (`len:u32 crc:u32 payload`, the codec of
//!   [`crate::wal`]): a line-splice delta against the entity's previous
//!   revision when that is smaller, a full text otherwise. Every
//!   `snapshot_every`-th revision per entity is forced full, so
//!   materializing any revision replays at most `snapshot_every − 1`
//!   deltas past the nearest checkpoint frame.
//! * **Hash sharding.** Entity logs are interleaved across
//!   `shards` segment files by `mix64(entity) % shards`. Shards are
//!   independent: they ingest in parallel (one appender per shard, each
//!   behind its own lock) and fail independently — a torn write in one
//!   segment cannot touch another's bytes, and recovery reports losses
//!   per shard.
//! * **mmap-backed reads.** Reads take frames through [`Vfs::map`]: a
//!   zero-copy `mmap(2)` view on a real filesystem, an owned read on
//!   [`MemFs`](crate::failfs::MemFs) so every fault test still runs. Only
//!   the in-memory *frame index* (offsets, lengths, per-entity time order)
//!   and the bounded ingest bases below stay on the heap.
//! * **Window-scoped extraction reads.** [`FetchSource::fetch_window`]
//!   replays an entity's chain through one reusable buffer, splicing
//!   deltas in place, and keeps owned text only for the last revision
//!   before the window and the revisions inside it: no per-revision
//!   `String` outside the window and no sort. An entity whose log arrived
//!   out of time order is materialized instead.
//! * **Bounded working set.** Nothing decoded is kept between reads:
//!   [`materialize`](ShardedStore::materialize) (what
//!   [`FetchSource::fetch_history`] serves) decodes the chain into a
//!   history the caller owns. The segment pages a read faults in are
//!   handed back to the kernel once they pass the [`MemoryBudget`], so the
//!   corpus itself never needs to fit in RAM. During ingest the per-shard
//!   delta bases are bounded by `ingest_base_budget`: evicting a base
//!   simply restarts that entity's chain with a full frame.
//!
//! **Mining equivalence.** Both reads verify every frame's CRC and every
//! decoded text's UTF-8, so they lose or serve a page alike. A full read
//! folds the frames through [`PageHistory::extend`] — one stable sort by
//! timestamp, exactly what [`RevisionStore::record_batch`](crate::RevisionStore::record_batch) does; a window
//! read returns, for an in-order log, the same revisions for the window's
//! base snapshot and its span. So a mined result over a `ShardedStore` is
//! byte-identical to the in-memory store at any shard count, snapshot
//! interval, or memory budget (differential proptests pin this).
//!
//! **Crash safety.** Opening a store scans each segment's longest valid
//! frame prefix (CRC + structural header checks), truncates anything
//! after it, and reports per-shard losses in a [`ShardRecoveryReport`] in
//! the torn-tail/corrupt-frame taxonomy of [`TailOutcome`]. A failed
//! append or sync *wedges* its shard: the failure may have left torn bytes
//! after the last valid frame, so every later append to that shard is
//! refused until the store is reopened (and the scan truncates the
//! damage) — an acknowledged append is never written after garbage.

use crate::failfs::Vfs;
use crate::fault::mix64;
use crate::fetch::{FetchError, FetchSource, FetchedHistory};
use crate::mmap::FileMap;
use crate::store::{CrawlStats, PageHistory};
use crate::wal::{self, crc32, SyncPolicy, TailOutcome, WalError};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wiclean_types::{EntityId, Timestamp, Window};

/// On-disk format version of a sharded store directory.
const SHARD_STORE_VERSION: u32 = 1;

/// The most segment files a store may hash entity logs across.
pub const MAX_SHARDS: u32 = 4096;

/// Knobs of a [`ShardedStore`]. Validated on construction and at
/// deserialize time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardPolicy {
    /// Number of segment files entity logs are hashed across
    /// (1..=[`MAX_SHARDS`]).
    pub shards: u32,
    /// Force a full-text frame every this many revisions per entity, so a
    /// materialization replays at most `snapshot_every − 1` deltas past a
    /// checkpoint frame. 1 disables delta encoding entirely (every frame
    /// full) — the "full-text store" baseline the corpus bench compares
    /// against.
    pub snapshot_every: u32,
    /// Fsync cadence per shard segment.
    pub sync: SyncPolicy,
    /// Byte budget for the per-shard delta-base texts kept during ingest
    /// (the previous revision per entity, needed to splice the next).
    /// Evicting a base restarts that entity's chain with a full frame —
    /// a compression heuristic, never a correctness concern.
    pub ingest_base_budget: u64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            shards: 8,
            snapshot_every: 16,
            sync: SyncPolicy::EveryN(256),
            ingest_base_budget: 64 << 20,
        }
    }
}

impl ShardPolicy {
    /// Validates the knob values.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_SHARDS).contains(&self.shards) {
            return Err(format!("shard policy: shards must be in 1..={MAX_SHARDS}"));
        }
        if self.snapshot_every == 0 {
            return Err("shard policy: snapshot_every must be at least 1".to_owned());
        }
        self.sync.validate()
    }
}

impl<'de> serde::Deserialize<'de> for ShardPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{content_into_fields, take_field, take_field_or_default};
        const NAME: &str = "ShardPolicy";
        let content = serde::Deserializer::deserialize_content(deserializer)?;
        let mut fields = content_into_fields::<D::Error>(content, NAME)?;
        let defaults = Self::default();
        let policy = Self {
            shards: take_field(&mut fields, "shards", NAME)?,
            snapshot_every: take_field(&mut fields, "snapshot_every", NAME)?,
            sync: take_field(&mut fields, "sync", NAME)?,
            ingest_base_budget: take_field_or_default::<Option<u64>, D::Error>(
                &mut fields,
                "ingest_base_budget",
                NAME,
            )?
            .unwrap_or(defaults.ingest_base_budget),
        };
        policy.validate().map_err(serde::de::Error::custom)?;
        Ok(policy)
    }
}

/// The store's immutable identity, persisted as `meta.json` in the store
/// directory at creation so a reopen cannot mis-shard or mis-checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct ShardMeta {
    version: u32,
    shards: u32,
    snapshot_every: u32,
}

/// The mapped-page residency budget of a [`ShardedStore`]: once the
/// segment pages its reads have faulted in pass `capacity` bytes, the
/// store hands them back to the kernel.
#[derive(Debug)]
pub struct MemoryBudget {
    capacity: u64,
}

impl MemoryBudget {
    /// A budget of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self { capacity }
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

/// What one shard lost during recovery. Only shards that actually dropped
/// bytes appear in a [`ShardRecoveryReport`]'s loss list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardLoss {
    /// Which shard.
    pub shard: u32,
    /// Bytes after the shard's last valid frame.
    pub bytes_dropped: u64,
    /// How the shard's scan ended.
    pub outcome: TailOutcome,
}

/// The per-shard outcome of opening a [`ShardedStore`]: what every shard
/// kept, and exactly what the damaged ones lost. Shards are independent
/// files, so one shard's torn tail never costs another shard a byte.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRecoveryReport {
    /// Shards scanned.
    pub shards: u32,
    /// Frame records kept across all shards.
    pub records_recovered: u64,
    /// Shards that dropped bytes, with per-shard accounting.
    pub losses: Vec<ShardLoss>,
}

impl ShardRecoveryReport {
    /// Whether every shard scanned clean.
    pub fn is_clean(&self) -> bool {
        self.losses.is_empty()
    }

    /// Total bytes dropped across shards.
    pub fn bytes_dropped(&self) -> u64 {
        self.losses.iter().map(|l| l.bytes_dropped).sum()
    }
}

/// Counter snapshot of a [`ShardedStore`] — the corpus-side numbers that
/// feed `MineStats` (`bytes_on_disk`, delta-chain replay work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Valid segment bytes across all shards.
    pub bytes_on_disk: u64,
    /// Full-text frames written.
    pub frames_full: u64,
    /// Delta frames written.
    pub frames_delta: u64,
    /// Always 0. Kept because the frozen benchmark reads it; goes with
    /// ROADMAP item 2.
    pub snapshot_cache_misses: u64,
    /// Always 0. Kept because the frozen benchmark reads it; goes with
    /// ROADMAP item 2.
    pub snapshot_cache_evictions: u64,
    /// Delta frames decoded while reading page histories (both readers).
    pub delta_chain_replays: u64,
    /// Times the store handed its segments' resident pages back to the
    /// kernel (`madvise(MADV_DONTNEED)`) because the pages faulted in by
    /// materializations exceeded the memory budget. Zero on in-memory
    /// filesystems and on corpora smaller than the budget.
    #[serde(default)]
    pub map_residency_releases: u64,
}

/// One frame's position in a shard segment, held in the in-memory index.
/// Timestamps are not kept here — decoding provides them — so the index
/// stays small at million-entity scale.
#[derive(Debug, Clone, Copy)]
struct FrameRef {
    /// Frame start (the `len` header) within the segment file.
    offset: u64,
    /// Payload length.
    len: u32,
    /// Whether the frame is full-text (a chain checkpoint).
    full: bool,
}

/// One entity's log within a shard: its frames in arrival order plus the
/// running maximum timestamp (for out-of-order accounting, matching
/// [`PageHistory::push`]'s definition).
#[derive(Debug, Default)]
struct EntityLog {
    frames: Vec<FrameRef>,
    max_time: Timestamp,
    /// Whether some frame arrived with a time below `max_time`: arrival
    /// order is then not time order, and only a sorted materialization
    /// answers window queries.
    out_of_order: bool,
}

impl EntityLog {
    /// Indexes one more frame of the entity; returns whether it arrived
    /// out of time order.
    fn push(&mut self, frame: FrameRef, time: Timestamp) -> bool {
        self.frames.push(frame);
        if time < self.max_time {
            self.out_of_order = true;
            return true;
        }
        self.max_time = time;
        false
    }
}

/// An entity's frame list and a segment view covering it, taken under
/// the shard lock and then decoded lock-free.
struct Chain {
    shard: u32,
    frames: Vec<FrameRef>,
    map: Arc<FileMap>,
    in_order: bool,
}

/// What one chain replay kept, and the read work it did.
struct Replay {
    /// The kept revisions, in arrival order.
    kept: Vec<(Timestamp, String)>,
    /// Text bytes decoded, over every revision of the chain.
    bytes: u64,
}

struct ShardState {
    /// Frame index: everything needed to locate and schedule frames
    /// without touching segment bytes.
    index: HashMap<EntityId, EntityLog>,
    /// Valid bytes in the segment (== next append offset).
    bytes: u64,
    /// Bounded delta bases for ingest (previous text per entity).
    bases: HashMap<EntityId, String>,
    bases_bytes: u64,
    /// FIFO insertion order for base eviction.
    base_order: VecDeque<EntityId>,
    /// Appends since the last fsync (for `SyncPolicy::EveryN`).
    since_sync: u32,
    /// Cached byte view of the segment, remapped when it grows.
    map: Option<(u64, Arc<FileMap>)>,
    /// Set by a failed append or sync: the segment may end in torn bytes
    /// past `bytes`, so further appends are refused until a reopen.
    wedged: bool,
}

impl ShardState {
    fn empty() -> Self {
        Self {
            index: HashMap::new(),
            bytes: 0,
            bases: HashMap::new(),
            bases_bytes: 0,
            base_order: VecDeque::new(),
            since_sync: 0,
            map: None,
            wedged: false,
        }
    }
}

#[derive(Default)]
struct Counters {
    frames_full: AtomicU64,
    frames_delta: AtomicU64,
    delta_chain_replays: AtomicU64,
    pages_fetched: AtomicU64,
    revisions_scanned: AtomicU64,
    bytes_scanned: AtomicU64,
    out_of_order: AtomicU64,
    /// Page-granular estimate of segment bytes faulted in by
    /// materializations since the last residency release.
    map_touch_bytes: AtomicU64,
    map_residency_releases: AtomicU64,
}

/// The out-of-core revision corpus: see the module docs for the design.
///
/// Appends take `&self` and lock only the target entity's shard, so
/// ingestion parallelizes per shard (one `MiningPool` task per shard —
/// `wiclean_core`'s `ingest_sharded` drives this). Reads lock a shard only
/// long enough to clone the entity's frame list and grab the segment map,
/// then decode lock-free.
pub struct ShardedStore<V> {
    fs: V,
    dir: PathBuf,
    policy: ShardPolicy,
    states: Vec<Mutex<ShardState>>,
    counters: Counters,
    /// Residency budget of the segment pages reads fault in, in bytes.
    map_budget: u64,
}

impl<V: Vfs> ShardedStore<V> {
    /// Creates an empty sharded store in `dir` (which must not already
    /// contain one), persisting the store's identity in `meta.json`.
    pub fn create(
        fs: V,
        dir: &Path,
        policy: ShardPolicy,
        budget: Arc<MemoryBudget>,
    ) -> Result<Self, WalError> {
        policy.validate().map_err(WalError::Corrupt)?;
        fs.create_dir_all(dir)?;
        let meta_path = dir.join("meta.json");
        if fs.exists(&meta_path) {
            return Err(WalError::Corrupt(format!(
                "sharded store already exists at {}",
                dir.display()
            )));
        }
        let meta = ShardMeta {
            version: SHARD_STORE_VERSION,
            shards: policy.shards,
            snapshot_every: policy.snapshot_every,
        };
        let json = serde_json::to_string(&meta).expect("meta serializes");
        fs.write(&meta_path, json.as_bytes())?;
        fs.sync(&meta_path)?;
        let states = (0..policy.shards)
            .map(|_| Mutex::new(ShardState::empty()))
            .collect();
        Ok(Self {
            fs,
            dir: dir.to_owned(),
            policy,
            states,
            counters: Counters::default(),
            map_budget: budget.capacity(),
        })
    }

    /// Opens an existing sharded store, scanning every shard's longest
    /// valid frame prefix, truncating damage, and reporting per-shard
    /// losses. `sync` and `ingest_base_budget` come from `policy`; the
    /// structural knobs (`shards`, `snapshot_every`) come from the
    /// directory's `meta.json` — they are properties of the bytes on
    /// disk, not of the reopening process.
    pub fn open(
        fs: V,
        dir: &Path,
        policy: ShardPolicy,
        budget: Arc<MemoryBudget>,
    ) -> Result<(Self, ShardRecoveryReport), WalError> {
        let meta_path = dir.join("meta.json");
        let meta_bytes = fs.read(&meta_path).map_err(|e| {
            WalError::Corrupt(format!(
                "sharded store at {} has no readable meta.json: {e}",
                dir.display()
            ))
        })?;
        let meta_text = String::from_utf8(meta_bytes)
            .map_err(|_| WalError::Corrupt("meta.json is not UTF-8".to_owned()))?;
        let meta: ShardMeta = serde_json::from_str(&meta_text)
            .map_err(|e| WalError::Corrupt(format!("meta.json does not parse: {e}")))?;
        if meta.version != SHARD_STORE_VERSION {
            return Err(WalError::Corrupt(format!(
                "sharded store version {} (this build reads {})",
                meta.version, SHARD_STORE_VERSION
            )));
        }
        let policy = ShardPolicy {
            shards: meta.shards,
            snapshot_every: meta.snapshot_every,
            ..policy
        };
        policy.validate().map_err(WalError::Corrupt)?;

        let mut states = Vec::with_capacity(policy.shards as usize);
        let mut report = ShardRecoveryReport {
            shards: policy.shards,
            ..ShardRecoveryReport::default()
        };
        for shard in 0..policy.shards {
            let path = segment_path(dir, shard);
            let mut state = ShardState::empty();
            if fs.exists(&path) {
                let data = fs.map(&path)?;
                let scan = scan_segment(&data, &mut state.index);
                state.bytes = scan.valid_bytes;
                report.records_recovered += scan.records;
                if scan.dropped_bytes > 0 {
                    drop(data);
                    fs.truncate(&path, scan.valid_bytes)?;
                    fs.sync(&path)?;
                    report.losses.push(ShardLoss {
                        shard,
                        bytes_dropped: scan.dropped_bytes,
                        outcome: scan.outcome,
                    });
                }
            }
            states.push(Mutex::new(state));
        }
        Ok((
            Self {
                fs,
                dir: dir.to_owned(),
                policy,
                states,
                counters: Counters::default(),
                map_budget: budget.capacity(),
            },
            report,
        ))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The effective policy (structural knobs come from `meta.json` after
    /// an [`open`](Self::open)).
    pub fn policy(&self) -> &ShardPolicy {
        &self.policy
    }

    /// Which shard `entity`'s log lives in.
    pub fn shard_of(&self, entity: EntityId) -> u32 {
        (mix64(entity.as_u32() as u64) % self.policy.shards as u64) as u32
    }

    /// Appends one revision of `entity`. Locks only the entity's shard,
    /// so distinct shards append concurrently. A failed write or sync
    /// wedges the shard: this and every later append to it fail until the
    /// store is reopened.
    pub fn append(&self, entity: EntityId, time: Timestamp, text: &str) -> Result<(), WalError> {
        let shard = self.shard_of(entity);
        let path = segment_path(&self.dir, shard);
        let mut state = self.states[shard as usize].lock();
        let state = &mut *state;
        if state.wedged {
            return Err(wedged(shard));
        }

        let log = state.index.entry(entity).or_default();
        let seen = log.frames.len() as u32;
        // Chain checkpoints: the first frame per entity and every
        // snapshot_every-th after it are forced full. snapshot_every == 1
        // is the all-full (delta-disabled) configuration.
        let want_delta = seen > 0 && !seen.is_multiple_of(self.policy.snapshot_every);
        let base = if want_delta {
            state.bases.get(&entity).map(String::as_str)
        } else {
            None
        };
        let payload = wal::encode_payload_parts(entity, time, text, base);
        let full = payload[0] == wal::TAG_FULL;
        let frame = wal::frame_payload(&payload);

        if let Err(e) = self.fs.append(&path, &frame) {
            state.wedged = true;
            return Err(e.into());
        }

        let frame_ref = FrameRef {
            offset: state.bytes,
            len: payload.len() as u32,
            full,
        };
        if log.push(frame_ref, time) {
            self.counters.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        state.bytes += frame.len() as u64;
        if full {
            self.counters.frames_full.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.frames_delta.fetch_add(1, Ordering::Relaxed);
        }

        // Refresh the entity's delta base, evicting oldest bases past the
        // budget (their entities simply restart with a full frame later).
        match state.bases.insert(entity, text.to_owned()) {
            Some(old) => state.bases_bytes -= old.len() as u64,
            None => state.base_order.push_back(entity),
        }
        state.bases_bytes += text.len() as u64;
        while state.bases_bytes > self.policy.ingest_base_budget {
            let Some(victim) = state.base_order.pop_front() else {
                break;
            };
            if victim == entity {
                state.base_order.push_back(victim);
                if state.base_order.len() == 1 {
                    break;
                }
                continue;
            }
            if let Some(gone) = state.bases.remove(&victim) {
                state.bases_bytes -= gone.len() as u64;
            }
        }

        let due = match self.policy.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => {
                state.since_sync += 1;
                state.since_sync >= n
            }
            SyncPolicy::Never => false,
        };
        if due {
            sync_shard(&self.fs, &path, state)?;
        }
        Ok(())
    }

    /// Appends a whole history (arrival order preserved).
    pub fn append_history<'a>(
        &self,
        entity: EntityId,
        revisions: impl IntoIterator<Item = (Timestamp, &'a str)>,
    ) -> Result<(), WalError> {
        for (time, text) in revisions {
            self.append(entity, time, text)?;
        }
        Ok(())
    }

    /// Fsyncs every shard segment (regardless of sync policy).
    pub fn flush(&self) -> Result<(), WalError> {
        for shard in 0..self.policy.shards {
            let path = segment_path(&self.dir, shard);
            let mut state = self.states[shard as usize].lock();
            if state.bytes > 0 {
                sync_shard(&self.fs, &path, &mut state)?;
            }
        }
        Ok(())
    }

    /// Materializes `entity`'s full history: decodes the entity's frame
    /// chain from the (mapped) segment and stable-sorts it by timestamp —
    /// byte-identical to [`RevisionStore::record_batch`] over the same
    /// arrival sequence.
    ///
    /// [`RevisionStore::record_batch`]: crate::store::RevisionStore::record_batch
    pub fn materialize(&self, entity: EntityId) -> Result<Option<PageHistory>, WalError> {
        let Some(chain) = self.chain(entity)? else {
            return Ok(None);
        };
        let replay = self.replay(&chain, None)?;
        let mut history = PageHistory::new();
        history.extend(replay.kept);
        Ok(Some(history))
    }

    /// Locates `entity`'s frames: `None` if it has no revisions.
    fn chain(&self, entity: EntityId) -> Result<Option<Chain>, WalError> {
        let shard = self.shard_of(entity);
        let mut state = self.states[shard as usize].lock();
        let Some(log) = state.index.get(&entity) else {
            return Ok(None);
        };
        let frames = log.frames.clone();
        let in_order = !log.out_of_order;
        let need = frames.last().map_or(0, |f| f.offset + 8 + f.len as u64);
        let map = self.segment_map(&mut state, shard, need)?;
        Ok(Some(Chain {
            shard,
            frames,
            map,
            in_order,
        }))
    }

    /// Replays `chain` in arrival order through one reusable buffer,
    /// verifying every frame's CRC and every decoded text's UTF-8, and
    /// keeps an owned copy of the revisions `window` needs: with `None`
    /// all of them; with a window (only valid on an in-order chain) the
    /// last revision before `window.start` and those inside the window.
    fn replay(&self, chain: &Chain, window: Option<&Window>) -> Result<Replay, WalError> {
        let Chain {
            shard, frames, map, ..
        } = chain;
        let corrupt = |e: String| WalError::Corrupt(format!("shard {shard}: {e}"));
        let keep = |i: usize, time: Timestamp| match window {
            None => true,
            Some(w) if time >= w.start => time < w.end,
            // Before the window: keep only the last such revision, the one
            // whose successor (read from its header) is not before it.
            Some(w) => frames
                .get(i + 1)
                .and_then(|next| frame_time(map, next))
                .is_none_or(|next| next >= w.start),
        };
        let mut replay = Replay {
            kept: Vec::with_capacity(if window.is_none() { frames.len() } else { 0 }),
            bytes: 0,
        };
        let mut buf = Vec::new();
        let mut deltas = 0u64;
        for (i, frame) in frames.iter().enumerate() {
            let payload = verified_payload(map, frame).map_err(corrupt)?;
            let (time, text) = wal::decode_into(payload, &mut buf, i > 0).map_err(corrupt)?;
            replay.bytes += text.len() as u64;
            if keep(i, time) {
                replay.kept.push((time, text.to_owned()));
            }
            deltas += u64::from(!frame.full);
        }
        if deltas > 0 {
            self.counters
                .delta_chain_replays
                .fetch_add(deltas, Ordering::Relaxed);
        }
        self.note_map_touch(frames.len() as u64);
        Ok(replay)
    }

    /// Counts one fetched page against the crawl counters.
    fn count_fetch(&self, revisions: u64, bytes: u64) {
        self.counters.pages_fetched.fetch_add(1, Ordering::Relaxed);
        self.counters
            .revisions_scanned
            .fetch_add(revisions, Ordering::Relaxed);
        self.counters
            .bytes_scanned
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// The fetch error for an entity whose chain is unreadable (post-open
    /// bit rot): the page is lost to this run, exactly like a crawl's
    /// deleted page.
    fn gone(&self, entity: EntityId) -> FetchError {
        FetchError::Gone {
            revisions_lost: self.history_version(entity),
        }
    }

    /// Accounts `frames` decoded frames against the residency budget and
    /// hands the segments' resident pages back to the kernel once the
    /// estimate crosses it. File-backed pages are only evicted under
    /// global memory pressure, so a scan over segments larger than RAM's
    /// comfort zone would otherwise accumulate the whole corpus in RSS —
    /// an out-of-core store has to give pages back itself. Each frame is
    /// charged one page (frames are far smaller than a page but scattered,
    /// and `MADV_RANDOM` suppresses readahead, so a frame touch faults in
    /// about one page); the overestimate merely releases a little early.
    fn note_map_touch(&self, frames: u64) {
        const PAGE: u64 = 4096;
        let budget = self.map_budget;
        let touched = self
            .counters
            .map_touch_bytes
            .fetch_add(frames * PAGE, Ordering::Relaxed)
            + frames * PAGE;
        if touched < budget {
            return;
        }
        // One thread wins the reset and performs the release; the rest
        // keep accumulating into the fresh counter.
        if self.counters.map_touch_bytes.swap(0, Ordering::Relaxed) < budget {
            return;
        }
        let mut released = 0u64;
        for state in &self.states {
            if let Some((_, map)) = &state.lock().map {
                released += map.release_resident();
            }
        }
        if released > 0 {
            self.counters
                .map_residency_releases
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Returns the shard's byte view, remapping when the segment grew past
    /// the cached mapping.
    fn segment_map(
        &self,
        state: &mut ShardState,
        shard: u32,
        need: u64,
    ) -> Result<Arc<FileMap>, WalError> {
        if let Some((len, map)) = &state.map {
            if *len >= need {
                return Ok(Arc::clone(map));
            }
        }
        let map = Arc::new(self.fs.map(&segment_path(&self.dir, shard))?);
        if (map.len() as u64) < need {
            return Err(WalError::Corrupt(format!(
                "shard {shard}: segment shorter than its index ({} < {need})",
                map.len()
            )));
        }
        state.map = Some((map.len() as u64, Arc::clone(&map)));
        Ok(map)
    }

    /// Whether `entity` has any recorded revisions.
    pub fn contains(&self, entity: EntityId) -> bool {
        let shard = self.shard_of(entity);
        self.states[shard as usize]
            .lock()
            .index
            .contains_key(&entity)
    }

    /// All entities with at least one revision, ascending.
    pub fn entities(&self) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .states
            .iter()
            .flat_map(|s| s.lock().index.keys().copied().collect::<Vec<_>>())
            .collect();
        out.sort();
        out
    }

    /// Entities with at least one revision.
    pub fn page_count(&self) -> usize {
        self.states.iter().map(|s| s.lock().index.len()).sum()
    }

    /// Total revisions across all entities.
    pub fn revision_count(&self) -> u64 {
        self.states
            .iter()
            .map(|s| {
                s.lock()
                    .index
                    .values()
                    .map(|log| log.frames.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Corpus-side counter snapshot (disk bytes, frame mix, replay work).
    pub fn corpus_stats(&self) -> CorpusStats {
        CorpusStats {
            bytes_on_disk: self.states.iter().map(|s| s.lock().bytes).sum(),
            frames_full: self.counters.frames_full.load(Ordering::Relaxed),
            frames_delta: self.counters.frames_delta.load(Ordering::Relaxed),
            snapshot_cache_misses: 0,
            snapshot_cache_evictions: 0,
            delta_chain_replays: self.counters.delta_chain_replays.load(Ordering::Relaxed),
            map_residency_releases: self.counters.map_residency_releases.load(Ordering::Relaxed),
        }
    }
}

impl<V: Vfs> FetchSource for ShardedStore<V> {
    fn fetch_history(&self, entity: EntityId) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        match self.materialize(entity) {
            Ok(Some(history)) => {
                let bytes: usize = history.revisions().iter().map(|r| r.text.len()).sum();
                self.count_fetch(history.len() as u64, bytes as u64);
                Ok(Some(FetchedHistory::Owned(history)))
            }
            Ok(None) => Ok(None),
            Err(_) => Err(self.gone(entity)),
        }
    }

    /// Replays the entity's chain and keeps only what `window` needs; an
    /// out-of-order log is materialized and sorted instead, through
    /// [`fetch_history`](Self::fetch_history).
    fn fetch_window(
        &self,
        entity: EntityId,
        window: &Window,
    ) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        let chain = match self.chain(entity) {
            Ok(Some(chain)) if chain.in_order => chain,
            Ok(Some(_)) => return self.fetch_history(entity),
            Ok(None) => return Ok(None),
            Err(_) => return Err(self.gone(entity)),
        };
        let replay = self
            .replay(&chain, Some(window))
            .map_err(|_| self.gone(entity))?;
        self.count_fetch(chain.frames.len() as u64, replay.bytes);
        let mut history = PageHistory::new();
        history.extend(replay.kept);
        Ok(Some(FetchedHistory::Owned(history)))
    }

    fn crawl_stats(&self) -> CrawlStats {
        CrawlStats {
            pages_fetched: self.counters.pages_fetched.load(Ordering::Relaxed),
            revisions_scanned: self.counters.revisions_scanned.load(Ordering::Relaxed),
            bytes_scanned: self.counters.bytes_scanned.load(Ordering::Relaxed),
            out_of_order: self.counters.out_of_order.load(Ordering::Relaxed),
            ..CrawlStats::default()
        }
    }

    fn history_version(&self, entity: EntityId) -> u64 {
        let shard = self.shard_of(entity);
        self.states[shard as usize]
            .lock()
            .index
            .get(&entity)
            .map_or(0, |log| log.frames.len() as u64)
    }
}

/// The payload of `frame` in `map`, after checking it against the CRC
/// stored in its header.
fn verified_payload<'m>(map: &'m [u8], frame: &FrameRef) -> Result<&'m [u8], String> {
    let at = frame.offset as usize;
    let (Some(header), Some(payload)) = (
        map.get(at..at + 8),
        map.get(at + 8..at + 8 + frame.len as usize),
    ) else {
        return Err("frame runs past mapped segment".to_owned());
    };
    let stored_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 crc bytes"));
    if crc32(payload) != stored_crc {
        return Err(format!(
            "frame at {at} fails its checksum (bit rot after open?)"
        ));
    }
    Ok(payload)
}

/// The timestamp in `frame`'s payload header, read without decoding the
/// frame; `None` if the frame lies outside `map`.
fn frame_time(map: &[u8], frame: &FrameRef) -> Option<Timestamp> {
    let at = frame.offset as usize + 8 + 5;
    let bytes = map.get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("8 time bytes")))
}

/// `dir/shard-NNNN.seg`.
fn segment_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:04}.seg"))
}

/// Fsyncs one shard's segment, wedging the shard if the sync fails (the
/// unsynced frames may or may not be durable; the caller only knows
/// "error").
fn sync_shard<V: Vfs>(fs: &V, path: &Path, state: &mut ShardState) -> Result<(), WalError> {
    if let Err(e) = fs.sync(path) {
        state.wedged = true;
        return Err(e.into());
    }
    state.since_sync = 0;
    Ok(())
}

/// The error every append to a wedged shard returns.
fn wedged(shard: u32) -> WalError {
    WalError::Io(std::io::Error::other(format!(
        "shard {shard} is wedged by an earlier failed write or sync; reopen the store to recover"
    )))
}

struct SegmentScan {
    records: u64,
    valid_bytes: u64,
    dropped_bytes: u64,
    outcome: TailOutcome,
}

/// Scans a segment image's longest valid frame prefix into `index`,
/// *without* materializing any text: per frame it checks the CRC and the
/// structural header (tag, lengths adding up, delta frames having a prior
/// frame for their entity), which is everything short of decoding: UTF-8
/// validity and splice bounds are re-verified lazily at materialization,
/// where the base text exists.
fn scan_segment(data: &[u8], index: &mut HashMap<EntityId, EntityLog>) -> SegmentScan {
    let mut at = 0usize;
    let mut records = 0u64;
    let mut outcome = TailOutcome::Clean;
    while at < data.len() {
        let remaining = data.len() - at;
        if remaining < 8 {
            outcome = TailOutcome::TornTail;
            break;
        }
        let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 len bytes"));
        let crc = u32::from_le_bytes(data[at + 4..at + 8].try_into().expect("4 crc bytes"));
        if len > wal::MAX_PAYLOAD {
            outcome = TailOutcome::CorruptFrame;
            break;
        }
        if (len as usize) > remaining - 8 {
            outcome = TailOutcome::TornTail;
            break;
        }
        let payload = &data[at + 8..at + 8 + len as usize];
        if crc32(payload) != crc {
            outcome = TailOutcome::CorruptFrame;
            break;
        }
        match parse_frame_header(payload, index) {
            Some((entity, time, full)) => {
                let frame = FrameRef {
                    offset: at as u64,
                    len,
                    full,
                };
                index.entry(entity).or_default().push(frame, time);
                records += 1;
            }
            None => {
                outcome = TailOutcome::CorruptFrame;
                break;
            }
        }
        at += 8 + len as usize;
    }
    SegmentScan {
        records,
        valid_bytes: at as u64,
        dropped_bytes: (data.len() - at) as u64,
        outcome,
    }
}

/// Structural header check of one payload; returns `(entity, time, full)`
/// or `None` if the frame cannot be valid.
fn parse_frame_header(
    payload: &[u8],
    index: &HashMap<EntityId, EntityLog>,
) -> Option<(EntityId, Timestamp, bool)> {
    if payload.len() < 13 {
        return None;
    }
    let tag = payload[0];
    let entity = EntityId::from_u32(u32::from_le_bytes(payload[1..5].try_into().ok()?));
    let time = u64::from_le_bytes(payload[5..13].try_into().ok()?);
    match tag {
        wal::TAG_FULL => {
            if payload.len() < 17 {
                return None;
            }
            let text_len = u32::from_le_bytes(payload[13..17].try_into().ok()?) as usize;
            (17 + text_len == payload.len()).then_some((entity, time, true))
        }
        wal::TAG_DELTA => {
            if payload.len() < 25 {
                return None;
            }
            let mid_len = u32::from_le_bytes(payload[21..25].try_into().ok()?) as usize;
            if 25 + mid_len != payload.len() {
                return None;
            }
            // A delta's base is the previous frame for the same entity in
            // this segment; without one the chain cannot decode.
            index
                .get(&entity)
                .is_some_and(|log| !log.frames.is_empty())
                .then_some((entity, time, false))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failfs::MemFs;
    use crate::store::RevisionStore;

    fn budget(bytes: u64) -> Arc<MemoryBudget> {
        Arc::new(MemoryBudget::new(bytes))
    }

    fn policy(shards: u32, snapshot_every: u32) -> ShardPolicy {
        ShardPolicy {
            shards,
            snapshot_every,
            sync: SyncPolicy::Always,
            ..ShardPolicy::default()
        }
    }

    fn text(i: usize) -> String {
        format!("line one stays\nlink points at [[T{i}]]\nline three stays\n")
    }

    #[test]
    fn round_trips_against_revision_store() {
        let fs = MemFs::new();
        let dir = Path::new("/store");
        let store = ShardedStore::create(&fs, dir, policy(4, 3), budget(1 << 20)).unwrap();
        let mut reference = RevisionStore::new();
        // Out-of-order, interleaved, with in-place edits.
        let stream = [
            (7u32, 30u64, 0usize),
            (3, 10, 1),
            (7, 20, 2),
            (7, 20, 3), // equal timestamps keep arrival order
            (3, 40, 4),
            (9, 5, 5),
            (7, 25, 6),
        ];
        for &(e, t, i) in &stream {
            let entity = EntityId::from_u32(e);
            store.append(entity, t, &text(i)).unwrap();
            reference.record(entity, t, text(i));
        }
        for &(e, _, _) in &stream {
            let entity = EntityId::from_u32(e);
            let got = store.materialize(entity).unwrap().unwrap();
            assert_eq!(got.revisions(), reference.peek(entity).unwrap().revisions());
        }
        assert_eq!(store.page_count(), 3);
        assert_eq!(store.revision_count(), 7);
    }

    #[test]
    fn snapshot_every_bounds_delta_chains() {
        let fs = MemFs::new();
        let store =
            ShardedStore::create(&fs, Path::new("/k"), policy(1, 4), budget(1 << 20)).unwrap();
        let e = EntityId::from_u32(1);
        for i in 0..10 {
            store.append(e, i as u64, &text(i)).unwrap();
        }
        let stats = store.corpus_stats();
        // Frames 0, 4, 8 are forced full; the rest may delta (and do, the
        // edit touches one line of three).
        assert_eq!(stats.frames_full, 3);
        assert_eq!(stats.frames_delta, 7);
    }

    #[test]
    fn delta_disabled_writes_all_full_frames() {
        let fs = MemFs::new();
        let store =
            ShardedStore::create(&fs, Path::new("/f"), policy(2, 1), budget(1 << 20)).unwrap();
        let e = EntityId::from_u32(1);
        for i in 0..6 {
            store.append(e, i as u64, &text(i)).unwrap();
        }
        let stats = store.corpus_stats();
        assert_eq!(stats.frames_delta, 0);
        assert_eq!(stats.frames_full, 6);
        assert_eq!(
            store.materialize(e).unwrap().unwrap().len(),
            6,
            "all-full store still materializes"
        );
    }

    #[cfg(unix)]
    #[test]
    fn tiny_budget_releases_map_residency_on_real_fs() {
        use crate::failfs::RealFs;

        let dir = std::env::temp_dir().join(format!("wiclean-shard-resid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reference = RevisionStore::new();
        {
            let store = ShardedStore::create(RealFs, &dir, policy(2, 4), budget(1 << 20)).unwrap();
            for e in 0..16u32 {
                for r in 0..6usize {
                    let entity = EntityId::from_u32(e);
                    store
                        .append(entity, r as u64, &text(e as usize + r))
                        .unwrap();
                    reference.record(entity, r as u64, text(e as usize + r));
                }
            }
            store.flush().unwrap();
        }
        // A budget far below one materialization's page estimate forces a
        // residency release on (nearly) every decode.
        let (store, report) = ShardedStore::open(RealFs, &dir, policy(2, 4), budget(4096)).unwrap();
        assert!(report.is_clean());
        for e in 0..16u32 {
            let entity = EntityId::from_u32(e);
            let got = store.materialize(entity).unwrap().unwrap();
            assert_eq!(
                got.revisions(),
                reference.peek(entity).unwrap().revisions(),
                "released pages must fault back in with identical bytes"
            );
        }
        let stats = store.corpus_stats();
        assert!(
            stats.map_residency_releases > 0,
            "mapped segments over budget must be handed back, stats: {stats:?}"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rebuilds_index_and_serves_identical_histories() {
        let fs = MemFs::new();
        let dir = Path::new("/reopen");
        let mut reference = RevisionStore::new();
        {
            let store = ShardedStore::create(&fs, dir, policy(3, 2), budget(1 << 20)).unwrap();
            for e in 0..20u32 {
                for r in 0..5usize {
                    let entity = EntityId::from_u32(e);
                    let t = (r as u64) * 7 % 13; // deliberately out of order
                    store.append(entity, t, &text(e as usize + r)).unwrap();
                    reference.record(entity, t, text(e as usize + r));
                }
            }
            store.flush().unwrap();
        }
        let (store, report) = ShardedStore::open(&fs, dir, policy(3, 2), budget(1 << 20)).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.records_recovered, 100);
        for e in 0..20u32 {
            let entity = EntityId::from_u32(e);
            let got = store.materialize(entity).unwrap().unwrap();
            assert_eq!(got.revisions(), reference.peek(entity).unwrap().revisions());
        }
    }

    #[test]
    fn open_uses_meta_shard_count_not_callers() {
        let fs = MemFs::new();
        let dir = Path::new("/meta");
        {
            let store = ShardedStore::create(&fs, dir, policy(5, 2), budget(1 << 20)).unwrap();
            store.append(EntityId::from_u32(9), 1, "x\n").unwrap();
            store.flush().unwrap();
        }
        // Caller passes a different shard count; meta.json wins.
        let (store, _) = ShardedStore::open(&fs, dir, policy(2, 7), budget(1 << 20)).unwrap();
        assert_eq!(store.policy().shards, 5);
        assert_eq!(store.policy().snapshot_every, 2);
        assert!(store.contains(EntityId::from_u32(9)));
    }

    #[test]
    fn torn_tail_in_one_shard_leaves_others_intact() {
        let fs = MemFs::new();
        let dir = Path::new("/torn");
        let mut per_entity = HashMap::new();
        {
            let store = ShardedStore::create(&fs, dir, policy(4, 3), budget(1 << 20)).unwrap();
            for e in 0..12u32 {
                let entity = EntityId::from_u32(e);
                for r in 0..3usize {
                    store
                        .append(entity, r as u64, &text(e as usize + r))
                        .unwrap();
                }
                per_entity.insert(entity, store.shard_of(entity));
            }
            store.flush().unwrap();
        }
        // Tear the tail of shard 0 only.
        let victim_path = segment_path(dir, 0);
        let len = fs.len(&victim_path).unwrap();
        fs.truncate(&victim_path, len - 5).unwrap();

        let (store, report) = ShardedStore::open(&fs, dir, policy(4, 3), budget(1 << 20)).unwrap();
        assert_eq!(report.losses.len(), 1);
        assert_eq!(report.losses[0].shard, 0);
        assert_eq!(report.losses[0].outcome, TailOutcome::TornTail);
        assert!(report.losses[0].bytes_dropped > 0);
        // Every entity in an untouched shard still materializes in full.
        for (&entity, &shard) in &per_entity {
            let got = store.materialize(entity).unwrap().unwrap();
            if shard != 0 {
                assert_eq!(got.len(), 3, "shard {shard} must be unaffected");
            }
        }
    }

    #[test]
    fn corrupt_frame_drops_that_shards_suffix_only() {
        let fs = MemFs::new();
        let dir = Path::new("/rot");
        {
            let store = ShardedStore::create(&fs, dir, policy(2, 2), budget(1 << 20)).unwrap();
            for e in 0..8u32 {
                let entity = EntityId::from_u32(e);
                for r in 0..4usize {
                    store.append(entity, r as u64, &text(r)).unwrap();
                }
            }
            store.flush().unwrap();
        }
        let victim = segment_path(dir, 1);
        let mid = fs.len(&victim).unwrap() / 2;
        fs.corrupt_byte(&victim, mid, 0x40).unwrap();

        let (store, report) = ShardedStore::open(&fs, dir, policy(2, 2), budget(1 << 20)).unwrap();
        assert_eq!(report.losses.len(), 1);
        assert_eq!(report.losses[0].shard, 1);
        assert_eq!(report.losses[0].outcome, TailOutcome::CorruptFrame);
        // Shard 0's entities are complete.
        for e in 0..8u32 {
            let entity = EntityId::from_u32(e);
            if store.shard_of(entity) == 0 {
                assert_eq!(store.materialize(entity).unwrap().unwrap().len(), 4);
            }
        }
    }

    #[test]
    fn materialize_after_append_sees_the_new_revision() {
        let fs = MemFs::new();
        let store =
            ShardedStore::create(&fs, Path::new("/inv"), policy(1, 4), budget(1 << 20)).unwrap();
        let e = EntityId::from_u32(3);
        store.append(e, 1, "a\n").unwrap();
        assert_eq!(store.materialize(e).unwrap().unwrap().len(), 1);
        store.append(e, 2, "b\n").unwrap();
        let got = store.materialize(e).unwrap().unwrap();
        let revisions: Vec<(Timestamp, &str)> = got
            .revisions()
            .iter()
            .map(|r| (r.time, r.text.as_str()))
            .collect();
        assert_eq!(revisions, [(1, "a\n"), (2, "b\n")]);
        assert_eq!(*store.fetch_history(e).unwrap().unwrap(), got);
        assert_eq!(store.history_version(e), 2);
    }

    #[test]
    fn evicted_ingest_base_restarts_chain_with_full_frame() {
        let fs = MemFs::new();
        let mut p = policy(1, 100);
        p.ingest_base_budget = 1; // evict after every insert
        let store = ShardedStore::create(&fs, Path::new("/base"), p, budget(1 << 20)).unwrap();
        let a = EntityId::from_u32(1);
        let b = EntityId::from_u32(2);
        store.append(a, 1, &text(0)).unwrap();
        store.append(b, 1, &text(0)).unwrap(); // evicts a's base
        store.append(a, 2, &text(1)).unwrap(); // no base: must write full
        let stats = store.corpus_stats();
        assert_eq!(stats.frames_delta, 0, "evicted bases force full frames");
        // And the history still materializes correctly.
        assert_eq!(store.materialize(a).unwrap().unwrap().len(), 2);
    }

    #[test]
    fn delta_frames_shrink_the_segment() {
        let fs = MemFs::new();
        let long = "header line\n".repeat(40);
        let edit = |i: usize| format!("{long}tail [[T{i}]]\n");
        let mk = |snapshot_every: u32, dir: &str| {
            let store = ShardedStore::create(
                &fs,
                Path::new(dir),
                policy(1, snapshot_every),
                budget(1 << 20),
            )
            .unwrap();
            let e = EntityId::from_u32(1);
            for i in 0..12usize {
                store.append(e, i as u64, &edit(i)).unwrap();
            }
            store.corpus_stats().bytes_on_disk
        };
        let delta_bytes = mk(16, "/delta");
        let full_bytes = mk(1, "/full");
        assert!(
            delta_bytes * 4 < full_bytes,
            "single-line edits must delta-compress ≥4×: {delta_bytes} vs {full_bytes}"
        );
    }

    #[test]
    fn fetch_source_counts_crawl_work() {
        let fs = MemFs::new();
        let store =
            ShardedStore::create(&fs, Path::new("/crawl"), policy(2, 4), budget(1 << 20)).unwrap();
        let e = EntityId::from_u32(1);
        store.append(e, 5, "abc\n").unwrap();
        store.append(e, 3, "abcd\n").unwrap(); // out of order
        let fetched = store.fetch_history(e).unwrap().unwrap();
        assert_eq!(fetched.len(), 2);
        let stats = store.crawl_stats();
        assert_eq!(stats.pages_fetched, 1);
        assert_eq!(stats.revisions_scanned, 2);
        assert_eq!(stats.bytes_scanned, 9);
        assert_eq!(stats.out_of_order, 1);
        assert_eq!(
            store.fetch_history(EntityId::from_u32(99)).unwrap(),
            None,
            "unknown entity is definitively absent, not an error"
        );
    }

    #[test]
    fn create_refuses_existing_store() {
        let fs = MemFs::new();
        let dir = Path::new("/dup");
        ShardedStore::create(&fs, dir, policy(1, 1), budget(1024)).unwrap();
        assert!(ShardedStore::create(&fs, dir, policy(1, 1), budget(1024)).is_err());
    }

    /// A filesystem whose `tear_at`-th append lands only 3 bytes and
    /// fails, after which it keeps running — an EIO/ENOSPC partial write,
    /// not a process death.
    struct TearOnce {
        inner: MemFs,
        tear_at: u64,
        appends: AtomicU64,
    }

    impl Vfs for TearOnce {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, data)
        }
        fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
            if self.appends.fetch_add(1, Ordering::Relaxed) == self.tear_at {
                self.inner.append(path, &data[..3])?;
                return Err(std::io::Error::other("torn append"));
            }
            self.inner.append(path, data)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
            self.inner.truncate(path, len)
        }
        fn sync(&self, path: &Path) -> std::io::Result<()> {
            self.inner.sync(path)
        }
        fn len(&self, path: &Path) -> std::io::Result<u64> {
            self.inner.len(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.inner.create_dir_all(dir)
        }
    }

    #[test]
    fn failed_append_wedges_the_shard_until_reopen() {
        let fs = TearOnce {
            inner: MemFs::new(),
            tear_at: 1,
            appends: AtomicU64::new(0),
        };
        let dir = Path::new("/wedge");
        let e = EntityId::from_u32(1);
        {
            let store = ShardedStore::create(&fs, dir, policy(1, 4), budget(1 << 20)).unwrap();
            store.append(e, 1, &text(0)).unwrap();
            assert!(
                store.append(e, 2, &text(1)).is_err(),
                "the torn append fails"
            );
            // The filesystem still works, but the segment now ends in torn
            // bytes: an append after them would be acknowledged at an
            // offset pointing into garbage, so the shard refuses it.
            let err = store.append(e, 3, &text(2)).unwrap_err();
            assert!(err.to_string().contains("wedged"), "{err}");
            let got = store.materialize(e).unwrap().unwrap();
            assert_eq!(got.len(), 1, "the acknowledged revision still reads");
        }
        let (store, report) = ShardedStore::open(&fs, dir, policy(1, 4), budget(1 << 20)).unwrap();
        assert_eq!(report.records_recovered, 1);
        assert_eq!(report.losses.len(), 1);
        assert_eq!(report.losses[0].outcome, TailOutcome::TornTail);
        assert_eq!(report.losses[0].bytes_dropped, 3);
        // Reopening truncated the torn bytes: the shard accepts appends.
        store.append(e, 3, &text(2)).unwrap();
        let got = store.materialize(e).unwrap().unwrap();
        assert_eq!(got.revisions().len(), 2);
        assert_eq!(got.revisions()[1].time, 3);
    }

    #[test]
    fn failed_sync_wedges_the_shard() {
        use crate::failfs::{FailKind, FailOp, FailSpec, FailpointFs};
        // Sync #0 is the meta.json sync at creation; #1 the first append's.
        let mem = MemFs::new();
        let fs = FailpointFs::new(&mem, FailSpec::once(FailOp::Sync, 1, FailKind::ErrOnly));
        let dir = Path::new("/sync");
        let e = EntityId::from_u32(1);
        let store = ShardedStore::create(&fs, dir, policy(1, 4), budget(1 << 20)).unwrap();
        assert!(
            store.append(e, 1, &text(0)).is_err(),
            "the failed sync fails"
        );
        assert!(!fs.halted(), "the filesystem keeps running");
        let err = store.append(e, 2, &text(1)).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{err}");
        drop(store);
        // The unacknowledged frame did land; it is the only one.
        let (store, report) = ShardedStore::open(&mem, dir, policy(1, 4), budget(1 << 20)).unwrap();
        assert!(report.is_clean());
        assert_eq!(store.revision_count(), 1);
    }

    #[test]
    fn huge_length_field_is_corruption() {
        let fs = MemFs::new();
        let dir = Path::new("/huge");
        {
            let store = ShardedStore::create(&fs, dir, policy(1, 1), budget(1 << 20)).unwrap();
            store.append(EntityId::from_u32(1), 1, &text(0)).unwrap();
            store.append(EntityId::from_u32(1), 2, &text(1)).unwrap();
        }
        let mut data = fs.read(&segment_path(dir, 0)).unwrap();
        assert_eq!(scan_segment(&data, &mut HashMap::new()).records, 2);
        // Set the top bit of the first frame's length: structurally it now
        // "runs past EOF", but no writer ever produces 2 GiB payloads, so
        // this must be flagged as corruption, not a tolerable torn tail.
        data[3] |= 0x80;
        let scan = scan_segment(&data, &mut HashMap::new());
        assert_eq!(scan.outcome, TailOutcome::CorruptFrame);
        assert_eq!(scan.records, 0);
        assert_eq!(scan.dropped_bytes, data.len() as u64);
    }

    /// Segments written by the store before the slicing-by-16 CRC kernel
    /// (two shards, a full frame every 3 revisions, entity 2 out of time
    /// order, a multi-byte character spliced by a delta), as hex.
    const EARLIER_SEGMENTS: [&str; 2] = [
        concat!(
            "2d0000005d31e66301020000000c000000000000001c0000003d3d20436172656572203d3d0a2a205b5b506c61796572",
            "20315d5d0a1a0000006765dd850202000000050000000000000018000000030000000100000032",
        ),
        concat!(
            "420000005091a62701010000000a00000000000000310000007b7b496e666f626f7820700a7c2063757272656e745f63",
            "6c7562203d205b5b436c756220415d5d0a7d7d0a70726f73650a1a0000007fa871760201000000140000000000000024",
            "0000000c000000010000004228000000e3ed67c902010000001e0000000000000024000000010000000f000000435d5d",
            "0a7d7d0a70726f736520c3a945000000652c104e01010000002800000000000000340000007b7b496e666f626f782070",
            "0a7c2063757272656e745f636c7562203d205b5b436c756220415d5d0a7d7d0a70726f736520c3a90a13000000422677",
            "ca0103000000010000000000000002000000720a",
        ),
    ];

    #[test]
    fn store_written_before_the_crc_kernel_opens_clean() {
        let hex = |h: &str| -> Vec<u8> {
            (0..h.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
                .collect()
        };
        let fs = MemFs::new();
        let dir = Path::new("/earlier");
        fs.create_dir_all(dir).unwrap();
        let meta = r#"{"version":1,"shards":2,"snapshot_every":3}"#;
        fs.write(&dir.join("meta.json"), meta.as_bytes()).unwrap();
        for (shard, seg) in EARLIER_SEGMENTS.iter().enumerate() {
            fs.write(&segment_path(dir, shard as u32), &hex(seg))
                .unwrap();
        }
        let (store, report) = ShardedStore::open(&fs, dir, policy(9, 9), budget(1 << 20)).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.records_recovered, 7);

        let mut reference = RevisionStore::new();
        for (e, t, text) in [
            (
                1,
                10,
                "{{Infobox p\n| current_club = [[Club A]]\n}}\nprose\n",
            ),
            (2, 12, "== Career ==\n* [[Player 1]]\n"),
            (
                1,
                20,
                "{{Infobox p\n| current_club = [[Club B]]\n}}\nprose\n",
            ),
            (
                1,
                30,
                "{{Infobox p\n| current_club = [[Club C]]\n}}\nprose \u{e9}\n",
            ),
            (2, 5, "== Career ==\n* [[Player 2]]\n"),
            (
                1,
                40,
                "{{Infobox p\n| current_club = [[Club A]]\n}}\nprose \u{e9}\n",
            ),
            (3, 1, "r\n"),
        ] {
            reference.record(EntityId::from_u32(e), t, text.to_owned());
        }
        let window = Window::new(15, 35);
        for e in 1..=3 {
            let entity = EntityId::from_u32(e);
            let want = reference.peek(entity).unwrap();
            let trimmed = store.fetch_window(entity, &window).unwrap().unwrap();
            assert_eq!(trimmed.revisions_in(&window), want.revisions_in(&window));
            assert_eq!(trimmed.snapshot_at(14), want.snapshot_at(14));
            let got = store.materialize(entity).unwrap().unwrap();
            assert_eq!(got.revisions(), want.revisions());
        }
        // The window read keeps only the base and the window's revisions.
        let trimmed = store
            .fetch_window(EntityId::from_u32(1), &window)
            .unwrap()
            .unwrap();
        let times: Vec<Timestamp> = trimmed.revisions().iter().map(|r| r.time).collect();
        assert_eq!(times, [10, 20, 30]);
    }

    #[test]
    fn shard_policy_validates() {
        assert!(ShardPolicy::default().validate().is_ok());
        assert!(policy(0, 1).validate().is_err());
        assert!(policy(1, 0).validate().is_err());
        let json = serde_json::to_string(&ShardPolicy::default()).unwrap();
        let back: ShardPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ShardPolicy::default());
        assert!(serde_json::from_str::<ShardPolicy>(
            "{\"shards\":0,\"snapshot_every\":1,\"sync\":\"Always\"}"
        )
        .is_err());
    }
}
