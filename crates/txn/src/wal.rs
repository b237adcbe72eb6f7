//! Write-ahead log for committed PDT deltas.
//!
//! The paper (§2, footnote 2): "at each commit column-stores need to write
//! information in a Write-Ahead-Log, but that causes only sequential I/O".
//! Each commit appends one record containing, per touched table, the
//! *serialized* (conflict-free, consecutive) delta entries. Recovery
//! replays records in order, propagating each delta into the master
//! Write-PDT — reproducing exactly the in-memory state at the last commit.
//!
//! ## Checkpoint markers
//!
//! A background checkpoint folds every commit up to some sequence number
//! into a fresh stable image *while later commits keep appending records*.
//! The log therefore cannot simply be truncated at a file offset when a
//! checkpoint completes: a record written during the stable rewrite (seq >
//! the checkpoint's pinned sequence) lands in the file **before** the
//! checkpoint's marker, but is *not* contained in the new image. Instead
//! the checkpoint appends a [`WalRecord::Checkpoint`] marker carrying the
//! pinned sequence; recovery ([`Wal::read_effective`]) replays, per table,
//! only the commit entries with `seq` greater than the table's last marker
//! — everything at or below it is already durable in the image the table
//! was rebuilt from. Skipping is by sequence number, not file position,
//! precisely because of that mid-merge interleaving.
//!
//! ## Retirement
//!
//! Skipped records still cost recovery a parse, so [`GroupWal`]
//! physically *retires* them by sequence, not by offset: it rewrites the
//! log to the records recovery reads — each `(table, partition)`'s
//! covering marker, the commit deltas no image-bearing marker covers, and
//! the last commit (emptied if need be, so recovery resumes the same
//! sequence). The rewrite streams the log into `<path>.tmp` beside
//! commits, then, under the file lock only, copies the bytes appended
//! meanwhile, fsyncs, renames over the log, fsyncs the directory and
//! reopens the appender. It runs once an image-bearing marker is durable
//! and the log has doubled since its last rewrite
//! ([`GroupWal::maybe_retire`]), or on demand ([`GroupWal::retire`]), so
//! the log scales with live state rather than with commit count. Markers
//! without an image (image-less databases, whose caller owns the recovery
//! base) never retire anything.
//!
//! ## Batched entries
//!
//! The engine's write path is batch-first: a bulk append stages one
//! `DmlBatch` per statement, and its WAL flattening is one entry per
//! batch, not one per row. Two dedicated kind codes carry
//! those entries: [`pdt::INS_BATCH`] (values = `n` whole tuples
//! back-to-back) and [`pdt::DEL_BATCH`] (values = `n` sort keys
//! back-to-back). For PDT logs a batch-insert entry's `sid` is the shared
//! insertion point of all its tuples, and a batch-delete entry covers
//! victims at the *consecutive* SIDs `sid..sid+n`; value-based logs set
//! `sid = 0` and ignore it. [`coalesce_entries`] folds any per-row entry
//! stream into this compact form (order-preserving), and
//! [`rebuild_pdt`] / the engine's key-entry replay expand it back.
//!
//! ## Partition tags
//!
//! Range-partitioned tables keep one delta structure — and therefore one
//! WAL footprint — per partition, so every per-table delta in a commit
//! record and every checkpoint marker carries a `partition` index (`0` for
//! unpartitioned tables). Recovery dispatches entries to the tagged
//! partition's structure, and checkpoint markers cover exactly one
//! partition: folding partition 3 into a fresh stable slice never makes
//! replay skip partition 5's commits.
//!
//! Record layout (little-endian):
//!
//! ```text
//! commit:     [magic u32][seq u64][ntables u32]
//!               ntables × [name_len u16][name bytes][partition u32][nentries u32]
//!                 nentries × [sid u64][kind u16][nvals u32][payload]
//! checkpoint: [ckpt_magic u32][seq u64][name_len u16][name bytes][partition u32]
//!               [has_image u8][image_seq u64 when has_image = 1]
//!               [scope u8]  0 = whole partition
//!                           1 = range: [s0 u64][s1 u64][nentries u32]
//!                                 nentries × [sid u64][kind u16][nvals u32][payload]
//! payload: INS → full tuple, DEL → sort-key values, MOD → one value,
//!          INS_BATCH → n tuples, DEL_BATCH → n sort keys
//! value:   [tag u8][data]   (0=Null 1=Bool 2=Int 3=Double 4=Str 5=Date)
//! ```
//!
//! A **range-scoped** marker (scope 1) is written by sub-partition
//! compaction: only delta addressing stable SIDs `[s0, s1)` was folded
//! into the published image, and the marker inlines the *residual* —
//! the covered commits' out-of-range remainder, rebased onto the
//! post-compaction stable. Replay filtering is unchanged (commits ≤
//! `seq` are skipped wholesale); image-based recovery replays the
//! residual between the image load and the surviving commits. Residual
//! values use the plain inline encoding, never dictionary codes.
//!
//! A marker's `image_seq` is the manifest sequence of the persisted
//! compressed image ([`columnar::ImageStore`]) the checkpoint published in
//! its merge phase — always equal to the marker's own `seq`, recorded
//! explicitly so recovery knows whether a marker's folded history exists
//! on disk (image-based recovery) or is purely in-memory durable-by-replay
//! (markers written by image-less databases carry `has_image = 0`).

use columnar::{Schema, Value};
use pdt::builder::PdtBuilder;
use pdt::value_space::ValueSpace;
use pdt::{Pdt, Upd, DEL, DEL_BATCH, INS, INS_BATCH};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

// "pdtT": commit records carry a per-record string dictionary and log
// string values as `u32` codes into it, so a batched entry repeating
// the same string (low-cardinality columns, key echoes in DEL/modify
// entries) pays its bytes once. Bumped from "pdtP" (the partition-
// tagged format, itself bumped from "pdtB") so dictionary-less logs
// from older builds fail loudly with "bad record magic" instead of
// misparsing — replay them with the build that wrote them, checkpoint,
// and restart ("pdtR"/"pdtS" are the image-file and marker magics,
// skipped to keep the magics distinct).
const MAGIC: u32 = 0x7064_7454;
// "pdtU": checkpoint markers carry a scope byte — full-partition or
// range-scoped (sub-partition compaction), the latter with the folded
// SID window and the residual out-of-range delta inline. Bumped from
// "pdtS" so scope-less markers from older builds fail loudly instead of
// silently replaying a compacted partition as if fully checkpointed;
// replay such logs with the build that wrote them, checkpoint, restart
// ("pdtT" is the commit magic — skipped to keep the magics distinct).
const CKPT_MAGIC: u32 = 0x7064_7455;

/// One entry of a logged delta.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    pub sid: u64,
    pub kind: u16,
    pub values: Vec<Value>,
}

/// One log record: a commit's per-partition deltas, or a checkpoint marker.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A commit at sequence `seq` with its delta entries, one element per
    /// touched `(table, partition)` pair. Unpartitioned tables log
    /// partition `0`.
    Commit {
        seq: u64,
        tables: Vec<(String, u32, Vec<WalEntry>)>,
    },
    /// `(table, partition)` was checkpointed: every commit with sequence
    /// ≤ `seq` touching that partition is folded into the stable slice the
    /// partition restarts from. Commits with a later sequence — including
    /// ones physically *before* this marker in the file, written while the
    /// checkpoint merge ran — are not, and neither are other partitions'
    /// commits at any sequence.
    Checkpoint {
        seq: u64,
        table: String,
        partition: u32,
        /// Manifest sequence of the persisted compressed image the
        /// checkpoint published (equal to `seq`); `None` when the
        /// checkpoint folded in memory only, in which case the covered
        /// commits exist nowhere on disk after this marker.
        image_seq: Option<u64>,
        /// `Some((s0, s1))` for a range-scoped marker (sub-partition
        /// compaction): only delta addressing stable SIDs in `[s0, s1)`
        /// was folded into the published image. The covered commits'
        /// out-of-range remainder is *not* in the image — it rides in
        /// `residual`, rebased onto the post-compaction stable, and
        /// recovery replays it on top of the image before the surviving
        /// commits. `None` is a whole-partition marker (empty residual).
        range: Option<(u64, u64)>,
        residual: Vec<WalEntry>,
    },
}

impl WalRecord {
    /// The record's commit sequence.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Commit { seq, .. } => *seq,
            WalRecord::Checkpoint { seq, .. } => *seq,
        }
    }
}

/// Append-only write-ahead log.
pub struct Wal {
    out: BufWriter<File>,
    /// File length: every byte below it was written and flushed.
    len: u64,
}

impl Wal {
    /// Open (creating if needed) for appending.
    pub fn open(path: &Path) -> std::io::Result<Wal> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        let len = f.metadata()?.len();
        Ok(Wal {
            out: BufWriter::new(f),
            len,
        })
    }

    /// Append one commit: the logical delta entries per touched
    /// `(table, partition)` pair (partition `0` for unpartitioned tables).
    /// Entries are backend-agnostic — PDT commits log their *serialized*
    /// (conflict-free, consecutive) deltas via [`pdt_entries`]; value-based
    /// stores log key-addressed entries with `sid = 0`.
    pub fn append_commit(
        &mut self,
        seq: u64,
        deltas: &[(&str, u32, &[WalEntry])],
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        encode_commit_record(&mut buf, seq, deltas);
        self.append_raw(&buf)
    }

    /// Append a checkpoint marker: `(table, partition)`'s commits with
    /// sequence ≤ `seq` are durable in a fresh stable image — persisted
    /// on disk when `image_seq` is set. Must be written under the same
    /// exclusion that orders commits (the engine's commit guard), after
    /// the new image is installed.
    pub fn append_checkpoint(
        &mut self,
        table: &str,
        partition: u32,
        seq: u64,
        image_seq: Option<u64>,
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        encode_checkpoint_record(&mut buf, table, partition, seq, image_seq, None, &[]);
        self.append_raw(&buf)
    }

    /// Append pre-encoded record bytes as one physical write + flush
    /// window. The group-commit coordinator ([`GroupWal`]) uses this to
    /// land a whole batch of records in a single append.
    fn append_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.write_all(bytes)?;
        self.out.flush()?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Read every record of a log file.
    pub fn read_all(path: &Path) -> std::io::Result<Vec<WalRecord>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            records.push(parse_record(&bytes, &mut pos)?);
        }
        Ok(records)
    }

    /// Read the log and resolve checkpoint markers: returns only commit
    /// records, with each `(table, partition)`'s entries dropped when a
    /// marker covers them (`seq` ≤ the partition's last marker). This is
    /// the record stream a recovery that rebuilt every partition from its
    /// checkpointed stable image must replay.
    pub fn read_effective(path: &Path) -> std::io::Result<Vec<WalRecord>> {
        Ok(effective_commits(Self::read_all(path)?))
    }
}

/// Resolve checkpoint markers over an already-read record stream — the
/// filtering behind [`Wal::read_effective`]; [`checkpoint_markers`] also
/// hands back the markers for image-based recovery.
pub fn effective_commits(records: Vec<WalRecord>) -> Vec<WalRecord> {
    checkpoint_markers(records).1
}

/// Encode one commit record into `buf` (the layout `read_all` parses).
///
/// The record opens with a **per-record string dictionary**: the sorted
/// distinct strings of every logged value, written once. String values in
/// the entry stream are then logged as tag-6 `u32` codes into it, so a
/// batched entry repeating a string (low-cardinality columns, the key
/// echoes of delete/modify entries) pays the bytes once per record.
fn encode_commit_record(buf: &mut Vec<u8>, seq: u64, deltas: &[(&str, u32, &[WalEntry])]) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    // Distinct strings, sorted so identical commits encode identically.
    let mut strs: Vec<&str> = deltas
        .iter()
        .flat_map(|(_, _, entries)| entries.iter())
        .flat_map(|e| e.values.iter())
        .filter_map(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    strs.sort_unstable();
    strs.dedup();
    buf.extend_from_slice(&(strs.len() as u32).to_le_bytes());
    for s in &strs {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    let codes: HashMap<&str, u32> = strs
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    buf.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for (name, partition, entries) in deltas {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&partition.to_le_bytes());
        buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in *entries {
            buf.extend_from_slice(&e.sid.to_le_bytes());
            buf.extend_from_slice(&e.kind.to_le_bytes());
            // u32: a batched entry carries a whole statement's values
            buf.extend_from_slice(&(e.values.len() as u32).to_le_bytes());
            for v in &e.values {
                encode_value(buf, v, &codes);
            }
        }
    }
}

/// Encode one checkpoint marker into `buf`. A `range` makes it a
/// range-scoped (sub-partition compaction) marker whose `residual`
/// entries ride inline — values use the plain tagged encoding (no
/// string dictionary; markers are rare and residuals small when
/// compaction targets the delta-hot ranges it is built for).
fn encode_checkpoint_record(
    buf: &mut Vec<u8>,
    table: &str,
    partition: u32,
    seq: u64,
    image_seq: Option<u64>,
    range: Option<(u64, u64)>,
    residual: &[WalEntry],
) {
    buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(table.len() as u16).to_le_bytes());
    buf.extend_from_slice(table.as_bytes());
    buf.extend_from_slice(&partition.to_le_bytes());
    match image_seq {
        Some(s) => {
            buf.push(1);
            buf.extend_from_slice(&s.to_le_bytes());
        }
        None => buf.push(0),
    }
    match range {
        None => buf.push(0),
        Some((s0, s1)) => {
            buf.push(1);
            buf.extend_from_slice(&s0.to_le_bytes());
            buf.extend_from_slice(&s1.to_le_bytes());
            let no_dict = HashMap::new();
            buf.extend_from_slice(&(residual.len() as u32).to_le_bytes());
            for e in residual {
                buf.extend_from_slice(&e.sid.to_le_bytes());
                buf.extend_from_slice(&e.kind.to_le_bytes());
                buf.extend_from_slice(&(e.values.len() as u32).to_le_bytes());
                for v in &e.values {
                    encode_value(buf, v, &no_dict);
                }
            }
        }
    }
}

/// Coordinator counters: logical records enqueued vs physical append
/// windows, and the bytes the log gained and lost. `appends < commits`
/// means group commit batched concurrent records into shared
/// write+flush windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Commit records enqueued.
    pub commits: u64,
    /// Checkpoint markers enqueued.
    pub checkpoints: u64,
    /// Physical write + flush windows the log file saw.
    pub appends: u64,
    /// Bytes appended by commits and markers since open — the log's write
    /// volume, which retirement does not undo.
    pub bytes_appended: u64,
    /// Bytes removed from the log by retirement since open. The log file
    /// holds its length at open plus `bytes_appended - bytes_retired`.
    pub bytes_retired: u64,
}

/// Log growth below which retirement is never due: rewriting a log this
/// small costs more fsyncs than its replay.
pub const RETIRE_MIN_BYTES: u64 = 64 << 10;

/// Read size of the streaming passes over the log during retirement.
const STREAM_CHUNK: usize = 256 << 10;

/// A step of log retirement after which a crash can be injected
/// ([`GroupWal::crash_retirement_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireStep {
    /// `<path>.tmp` holds the whole live log, fsync'd; `<path>` is
    /// untouched.
    TmpWritten,
    /// The rename over `<path>` landed and the directory is fsync'd; the
    /// appender still points at the replaced file.
    Renamed,
    /// The appender reopened on the rewritten file: retirement is done.
    Reopened,
}

struct GroupState {
    /// Encoded records awaiting the next flush window, in enqueue
    /// (= commit sequence) order.
    pending: Vec<u8>,
    /// Number of records currently sitting in `pending`.
    pending_records: u64,
    /// Monotonic ticket counters: total records ever enqueued / made
    /// durable. A record's ticket is the value of `enqueued` right after
    /// its enqueue; it is durable once `durable >= ticket`.
    enqueued: u64,
    durable: u64,
    /// A leader is currently writing a batch (off this lock).
    flushing: bool,
    /// Test seam: suppress leader election so records pile up in
    /// `pending`; waiters block until the hold is released.
    hold: bool,
    /// Sticky I/O failure — the batch that hit it is lost, every waiter
    /// for a non-durable ticket gets the error.
    io_error: Option<String>,
    /// An image-bearing checkpoint marker became durable since the last
    /// retirement scan — the first half of the retirement trigger.
    image_marker_durable: bool,
    stats: WalStats,
}

/// Retirement bookkeeping, behind its own lock so one rewrite runs at a
/// time without blocking commits.
struct RetireState {
    /// Log length right after the last rewrite (or at open).
    base_len: u64,
    /// Test seam: simulate a crash right after this step.
    crash_at: Option<RetireStep>,
}

/// Group-commit coordinator around a [`Wal`].
///
/// Commit protocols *enqueue* their encoded record (cheap, in-memory,
/// under the engine's commit guard so the buffer stays in sequence
/// order) and later *wait* for durability after releasing their locks.
/// The first waiter that finds no flush in progress elects itself
/// leader, takes the whole pending buffer, and lands it in **one**
/// physical write + flush window (`Wal::append_raw`); concurrently
/// arriving commits therefore share append windows instead of paying
/// one `write_all` + `flush` each. Followers block until the leader's
/// window covers their ticket.
///
/// The durable prefix of the file is always a sequence-ordered prefix of
/// the enqueue order, so recovery is byte-identical to the sequential
/// path — [`Wal::read_effective`] filters checkpoint markers by
/// sequence, not file position, and that invariant is preserved.
///
/// The coordinator also **retires** history ([`GroupWal::maybe_retire`],
/// [`GroupWal::retire`]): it rewrites the log to the records recovery
/// still needs, so the file scales with live state, not commit count.
pub struct GroupWal {
    path: PathBuf,
    state: StdMutex<GroupState>,
    file: StdMutex<Wal>,
    retire: StdMutex<RetireState>,
    cv: Condvar,
    /// Registry holding `db.wal.bytes_appended` / `db.wal.bytes_retired`,
    /// registered once at open; the handles below are the live counters.
    metrics: obs::Registry,
    bytes_appended: Arc<obs::metrics::Counter>,
    bytes_retired: Arc<obs::metrics::Counter>,
}

impl GroupWal {
    /// Open (creating if needed) for appending.
    pub fn open(path: &Path) -> std::io::Result<GroupWal> {
        let wal = Wal::open(path)?;
        let metrics = obs::Registry::new();
        let bytes_appended = metrics.counter("db.wal.bytes_appended", &[]);
        let bytes_retired = metrics.counter("db.wal.bytes_retired", &[]);
        Ok(GroupWal {
            path: path.to_path_buf(),
            state: StdMutex::new(GroupState {
                pending: Vec::new(),
                pending_records: 0,
                enqueued: 0,
                durable: 0,
                flushing: false,
                hold: false,
                io_error: None,
                image_marker_durable: false,
                stats: WalStats::default(),
            }),
            retire: StdMutex::new(RetireState {
                base_len: wal.len,
                crash_at: None,
            }),
            file: StdMutex::new(wal),
            cv: Condvar::new(),
            metrics,
            bytes_appended,
            bytes_retired,
        })
    }

    /// Enqueue one commit record; returns the ticket to pass to
    /// [`Self::wait_durable`]. Callers must hold whatever exclusion
    /// orders their sequence numbers (the engine's commit guard) across
    /// `alloc_seq` + `enqueue_commit` so the buffer stays in seq order.
    pub fn enqueue_commit(&self, seq: u64, deltas: &[(&str, u32, &[WalEntry])]) -> u64 {
        let ticket = {
            let mut g = self.state.lock().unwrap();
            encode_commit_record(&mut g.pending, seq, deltas);
            g.pending_records += 1;
            g.enqueued += 1;
            g.stats.commits += 1;
            g.enqueued
        };
        obs::event!(obs::TraceKind::WalEnqueue, seq: seq, a: ticket);
        ticket
    }

    /// Block until the record behind `ticket` is durable (its bytes
    /// written and flushed). Self-elects as flush leader when no flush is
    /// in progress, so progress never depends on another thread. Only
    /// tickets returned by an enqueue may be waited on.
    pub fn wait_durable(&self, ticket: u64) -> std::io::Result<()> {
        let mut durable_span = obs::span!(obs::TraceKind::WalDurable, a: ticket);
        let mut g = self.state.lock().unwrap();
        loop {
            if g.durable >= ticket {
                durable_span.set_seq(g.durable);
                return Ok(());
            }
            if let Some(msg) = &g.io_error {
                durable_span.cancel();
                return Err(std::io::Error::other(msg.clone()));
            }
            if !g.flushing && !g.hold {
                g = self.flush_batch(g);
            } else {
                g = self.cv.wait(g).unwrap();
            }
        }
    }

    /// Enqueue a checkpoint marker and wait until it (and everything
    /// enqueued before it) is durable. Synchronous on purpose: the
    /// caller installs the checkpointed image under the commit guard, and
    /// a recovered log must never cover an image with a marker that was
    /// not yet on disk when the image became the recovery base.
    pub fn append_checkpoint(
        &self,
        table: &str,
        partition: u32,
        seq: u64,
        image_seq: Option<u64>,
    ) -> std::io::Result<()> {
        self.append_checkpoint_range(table, partition, seq, image_seq, None, &[])
    }

    /// [`GroupWal::append_checkpoint`] with a range scope: the marker
    /// records that only stable SIDs in `range` were folded and carries
    /// the rebased out-of-range `residual` for recovery. Synchronous,
    /// like the whole-partition form.
    pub fn append_checkpoint_range(
        &self,
        table: &str,
        partition: u32,
        seq: u64,
        image_seq: Option<u64>,
        range: Option<(u64, u64)>,
        residual: &[WalEntry],
    ) -> std::io::Result<()> {
        let ticket = {
            let mut g = self.state.lock().unwrap();
            encode_checkpoint_record(
                &mut g.pending,
                table,
                partition,
                seq,
                image_seq,
                range,
                residual,
            );
            g.pending_records += 1;
            g.enqueued += 1;
            g.stats.checkpoints += 1;
            g.enqueued
        };
        self.wait_durable(ticket)?;
        if image_seq.is_some() {
            self.state
                .lock()
                .expect("WAL state lock poisoned")
                .image_marker_durable = true;
        }
        Ok(())
    }

    /// Leader path: take the whole pending buffer and land it in one
    /// physical append window. Enters with the state lock held, returns
    /// with it re-held.
    fn flush_batch<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, GroupState>,
    ) -> StdMutexGuard<'a, GroupState> {
        g.flushing = true;
        let batch = std::mem::take(&mut g.pending);
        let records = std::mem::take(&mut g.pending_records);
        let hi = g.enqueued;
        drop(g);
        // `flushing` excludes other leaders, so the file lock is
        // uncontended; taking it off the state lock keeps enqueues and
        // ticket reads running during the write.
        let res = if batch.is_empty() {
            Ok(())
        } else {
            let _flush_span =
                obs::span!(obs::TraceKind::WalFlushWindow, a: records, b: batch.len() as u64);
            self.file.lock().unwrap().append_raw(&batch)
        };
        let mut g = self.state.lock().unwrap();
        g.flushing = false;
        match res {
            // a retirement that failed mid-swap poisoned the log while this
            // batch waited for the file: it may sit in the replaced file,
            // so it is not durable
            Ok(()) if g.io_error.is_some() => {}
            Ok(()) => {
                if records > 0 {
                    g.stats.appends += 1;
                }
                self.bytes_appended.add(batch.len() as u64);
                g.durable = g.durable.max(hi);
            }
            Err(e) => g.io_error = Some(e.to_string()),
        }
        self.cv.notify_all();
        g
    }

    /// Counters snapshot (commits/markers enqueued, physical appends,
    /// bytes appended and retired).
    pub fn stats(&self) -> WalStats {
        WalStats {
            bytes_appended: self.bytes_appended.get(),
            bytes_retired: self.bytes_retired.get(),
            ..self.state.lock().expect("WAL state lock poisoned").stats
        }
    }

    /// The registry holding this log's byte counters
    /// (`db.wal.bytes_appended`, `db.wal.bytes_retired`).
    pub fn metrics(&self) -> &obs::Registry {
        &self.metrics
    }

    /// Retire history if due: an image-bearing checkpoint marker became
    /// durable since the last rewrite, and the log has at least doubled
    /// since then (and reached [`RETIRE_MIN_BYTES`]). Returns the bytes
    /// retired — 0 when not due or while another retirement runs. Call it
    /// off the commit guard: the scan runs beside commits.
    pub fn maybe_retire(&self) -> std::io::Result<u64> {
        let Ok(mut r) = self.retire.try_lock() else {
            return Ok(0);
        };
        let armed = self
            .state
            .lock()
            .expect("WAL state lock poisoned")
            .image_marker_durable;
        let len = self.file.lock().expect("WAL file lock poisoned").len;
        if !armed || len < r.base_len.saturating_mul(2).max(RETIRE_MIN_BYTES) {
            return Ok(0);
        }
        self.rewrite(&mut r)
    }

    /// Retire history now, whatever the log's growth — e.g. once
    /// maintenance drained every partition. Returns the bytes retired; a
    /// log without image-bearing markers is left as it is (0).
    pub fn retire(&self) -> std::io::Result<u64> {
        let mut r = self.retire.lock().expect("WAL retire lock poisoned");
        self.rewrite(&mut r)
    }

    /// Test seam: make the next retirement die right after `step`, as a
    /// crash would. The log stops accepting records (every later commit
    /// fails), and the files stay as the crash left them.
    pub fn crash_retirement_at(&self, step: Option<RetireStep>) {
        self.retire
            .lock()
            .expect("WAL retire lock poisoned")
            .crash_at = step;
    }

    /// Rewrite the log to its live records:
    ///
    /// 1. *Scan*, beside commits: the durable prefix `[0, end)` is streamed
    ///    twice — once to find each partition's covering marker, once to
    ///    write the live records to `<path>.tmp`, which is then fsync'd.
    ///    Live are the covering marker of each `(table, partition)` (its
    ///    bytes copied as they are), every commit delta that partition's
    ///    image-bearing marker does not cover (in log order), and the
    ///    last commit — emptied if need be, so recovery resumes the same
    ///    sequence.
    /// 2. *Swap*, under the file lock: the bytes appended since `end` are
    ///    copied verbatim, the tmp file fsync'd and renamed over `<path>`,
    ///    the directory fsync'd and the appender reopened. Commits wait
    ///    for durability only during this step; enqueues never wait.
    ///
    /// Recovery from the rewritten log equals recovery from the old one:
    /// retired deltas are exactly those recovery skips (commits at or
    /// below a partition's covering marker), markers that lost to a later
    /// one are never read, and the kept records keep their order.
    fn rewrite(&self, r: &mut RetireState) -> std::io::Result<u64> {
        let mut span = obs::span!(obs::TraceKind::WalRetire);
        let Some((tmp, end)) = self.stage_live()? else {
            span.cancel();
            return Ok(0);
        };
        span.set_a(end);
        let retired = self.swap_in(r, tmp, end)?;
        span.set_b(retired);
        Ok(retired)
    }

    /// Rewrite step 1, beside commits: stream the live records of the
    /// durable prefix into `<path>.tmp` and fsync it. Returns the staged
    /// file and the prefix length, or `None` when the log holds no
    /// image-bearing marker.
    fn stage_live(&self) -> std::io::Result<Option<(File, u64)>> {
        {
            let mut g = self.state.lock().expect("WAL state lock poisoned");
            if let Some(msg) = &g.io_error {
                return Err(std::io::Error::other(msg.clone()));
            }
            // a marker landing from here on re-arms the trigger
            g.image_marker_durable = false;
        }
        let end = self.file.lock().expect("WAL file lock poisoned").len;
        let live = LiveSet::scan(&self.path, end)?;
        if !live.has_image_marker() {
            return Ok(None);
        }
        let tmp_path = retire_tmp_path(&self.path);
        match live.write_tmp(&self.path, end, &tmp_path) {
            Ok(tmp) => Ok(Some((tmp, end))),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }

    /// Rewrite step 2, under the file lock: append the bytes made durable
    /// since `end` to the staged file, fsync it, rename it over the log,
    /// fsync the directory and reopen the appender. Returns the bytes
    /// retired.
    fn swap_in(&self, r: &mut RetireState, mut tmp: File, end: u64) -> std::io::Result<u64> {
        let tmp_path = retire_tmp_path(&self.path);
        let mut file = self.file.lock().expect("WAL file lock poisoned");
        let old_len = file.len;
        let copied = copy_tail(&self.path, end, old_len, &mut tmp);
        drop(tmp);
        let new_len = match copied {
            Ok(n) => n,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        };
        self.crash_point(r, RetireStep::TmpWritten)?;
        if let Err(e) = std::fs::rename(&tmp_path, &self.path) {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
        // From here on the appender points at the replaced file until it
        // reopens: any failure must stop the log from taking records.
        let swapped = sync_parent_dir(&self.path)
            .and_then(|()| self.crash_point(r, RetireStep::Renamed))
            .and_then(|()| Wal::open(&self.path))
            .map(|wal| *file = wal)
            .and_then(|()| self.crash_point(r, RetireStep::Reopened));
        if let Err(e) = swapped {
            self.poison(&e);
            return Err(e);
        }
        drop(file);
        let retired = old_len.saturating_sub(new_len);
        self.bytes_retired.add(retired);
        r.base_len = new_len;
        Ok(retired)
    }

    /// Fail the retirement at `step` if a simulated crash is armed there.
    fn crash_point(&self, r: &mut RetireState, step: RetireStep) -> std::io::Result<()> {
        if r.crash_at != Some(step) {
            return Ok(());
        }
        r.crash_at = None;
        let e = std::io::Error::other(format!("simulated crash after retirement step {step:?}"));
        self.poison(&e);
        Err(e)
    }

    /// Make every current and future durability wait fail with `e`.
    fn poison(&self, e: &std::io::Error) {
        self.state.lock().expect("WAL state lock poisoned").io_error = Some(e.to_string());
        self.cv.notify_all();
    }

    /// Records currently buffered and not yet durable — test seam.
    pub fn pending_records(&self) -> u64 {
        self.state.lock().unwrap().pending_records
    }

    /// Test seam: while held, no waiter elects itself leader, so
    /// concurrently arriving records deterministically pile up into one
    /// batch; releasing the hold wakes the waiters and the first one
    /// flushes the whole buffer in a single append window.
    pub fn hold_flushes(&self, hold: bool) {
        let mut g = self.state.lock().unwrap();
        g.hold = hold;
        drop(g);
        self.cv.notify_all();
    }
}

/// What survives retirement in a log prefix: each partition's covering
/// marker and the last commit record, both located by their ordinal in
/// the prefix.
struct LiveSet {
    markers: HashMap<String, HashMap<u32, LiveMarker>>,
    last_commit: Option<usize>,
}

struct LiveMarker {
    at: usize,
    seq: u64,
    image: bool,
}

impl LiveSet {
    /// First pass: find the covering markers (highest sequence, the later
    /// one on a tie — the rule of [`checkpoint_markers`]).
    fn scan(path: &Path, end: u64) -> std::io::Result<LiveSet> {
        let mut live = LiveSet {
            markers: HashMap::new(),
            last_commit: None,
        };
        let mut stream = RecordStream::open(path, end)?;
        let mut at = 0;
        while let Some(rec) = stream.next_record()? {
            match rec {
                Outline::Checkpoint {
                    seq,
                    table,
                    partition,
                    image,
                } => {
                    let parts = live.markers.entry(table).or_default();
                    if parts.get(&partition).is_none_or(|m| seq >= m.seq) {
                        parts.insert(partition, LiveMarker { at, seq, image });
                    }
                }
                Outline::Commit { .. } => live.last_commit = Some(at),
            }
            at += 1;
        }
        Ok(live)
    }

    fn has_image_marker(&self) -> bool {
        self.markers
            .values()
            .flat_map(|p| p.values())
            .any(|m| m.image)
    }

    /// Whether the partition's covering marker folded commit `seq`'s
    /// delta into a persisted image.
    fn retires(&self, table: &str, partition: u32, seq: u64) -> bool {
        self.markers
            .get(table)
            .and_then(|parts| parts.get(&partition))
            .is_some_and(|m| m.image && seq <= m.seq)
    }

    /// Second pass: stream the live records of `[0, end)` into a fresh
    /// `tmp` file, in log order, and fsync it. Kept records and kept
    /// commit sections are copied as encoded; no value is decoded.
    fn write_tmp(&self, path: &Path, end: u64, tmp: &Path) -> std::io::Result<File> {
        let mut out = BufWriter::new(File::create(tmp)?);
        let mut stream = RecordStream::open(path, end)?;
        let mut at = 0;
        while let Some(rec) = stream.next_record()? {
            match rec {
                Outline::Checkpoint {
                    table, partition, ..
                } => {
                    if self.markers[&table][&partition].at == at {
                        out.write_all(stream.raw())?;
                    }
                }
                Outline::Commit { seq, dict, tables } => {
                    let kept: Vec<&Range<usize>> = tables
                        .iter()
                        .filter(|(t, p, _)| !self.retires(t, *p, seq))
                        .map(|(_, _, section)| section)
                        .collect();
                    if kept.len() == tables.len() {
                        out.write_all(stream.raw())?;
                    } else if !kept.is_empty() || self.last_commit == Some(at) {
                        // the same record narrowed to its kept sections;
                        // the dictionary stays whole, so codes still
                        // resolve (an emptied record needs none)
                        let bytes = &stream.buf;
                        out.write_all(&MAGIC.to_le_bytes())?;
                        out.write_all(&seq.to_le_bytes())?;
                        if kept.is_empty() {
                            out.write_all(&0u32.to_le_bytes())?;
                        } else {
                            out.write_all(&bytes[dict])?;
                        }
                        out.write_all(&(kept.len() as u32).to_le_bytes())?;
                        for section in kept {
                            out.write_all(&bytes[section.clone()])?;
                        }
                    }
                }
            }
            at += 1;
        }
        let f = out.into_inner().map_err(|e| e.into_error())?;
        f.sync_data()?;
        Ok(f)
    }
}

/// A record's outline: enough to filter it and copy its parts without
/// decoding a value. Ranges index the buffer the record was read from.
enum Outline {
    Commit {
        seq: u64,
        /// The encoded string dictionary, count included.
        dict: Range<usize>,
        /// Each touched `(table, partition)` with its encoded section.
        tables: Vec<(String, u32, Range<usize>)>,
    },
    Checkpoint {
        seq: u64,
        table: String,
        partition: u32,
        image: bool,
    },
}

/// [`parse_record`]'s walk without decoding: validates the framing of the
/// record at `bytes[*pos]` and returns its outline.
fn outline_record(bytes: &[u8], pos: &mut usize) -> std::io::Result<Outline> {
    let magic = read_u32(bytes, pos)?;
    if magic == CKPT_MAGIC {
        let seq = read_u64(bytes, pos)?;
        let table = read_name(bytes, pos)?;
        let partition = read_u32(bytes, pos)?;
        let image = match read_u8(bytes, pos)? {
            0 => false,
            1 => {
                read_u64(bytes, pos)?;
                true
            }
            f => return Err(corrupt(&format!("bad checkpoint image flag {f}"))),
        };
        match read_u8(bytes, pos)? {
            0 => {}
            1 => {
                skip(bytes, pos, 16)?;
                skip_entries(bytes, pos)?;
            }
            f => return Err(corrupt(&format!("bad checkpoint scope {f}"))),
        }
        return Ok(Outline::Checkpoint {
            seq,
            table,
            partition,
            image,
        });
    }
    if magic != MAGIC {
        return Err(corrupt("bad record magic"));
    }
    let seq = read_u64(bytes, pos)?;
    let dict_start = *pos;
    for _ in 0..read_u32(bytes, pos)? {
        let n = read_u32(bytes, pos)? as usize;
        skip(bytes, pos, n)?;
    }
    let dict = dict_start..*pos;
    let ntables = read_u32(bytes, pos)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(bytes.len() - *pos));
    for _ in 0..ntables {
        let start = *pos;
        let name = read_name(bytes, pos)?;
        let partition = read_u32(bytes, pos)?;
        skip_entries(bytes, pos)?;
        tables.push((name, partition, start..*pos));
    }
    Ok(Outline::Commit { seq, dict, tables })
}

/// [`read_entries`] without decoding.
fn skip_entries(bytes: &[u8], pos: &mut usize) -> std::io::Result<()> {
    for _ in 0..read_u32(bytes, pos)? {
        skip(bytes, pos, 10)?; // sid u64, kind u16
        for _ in 0..read_u32(bytes, pos)? {
            let width = match read_u8(bytes, pos)? {
                0 => 0,
                1 => 1,
                2 | 3 => 8,
                4 => read_u32(bytes, pos)? as usize,
                5 | 6 => 4,
                t => return Err(corrupt(&format!("bad value tag {t}"))),
            };
            skip(bytes, pos, width)?;
        }
    }
    Ok(())
}

fn skip(bytes: &[u8], pos: &mut usize, n: usize) -> std::io::Result<()> {
    *pos = pos
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| corrupt("truncated field"))?;
    Ok(())
}

/// Reads the records of a log prefix `[0, len)` through a bounded buffer,
/// so a pass over the log never holds all of it in memory.
struct RecordStream {
    src: std::io::Take<File>,
    buf: Vec<u8>,
    /// `buf[start..end]` holds the record last returned.
    start: usize,
    end: usize,
    eof: bool,
}

impl RecordStream {
    fn open(path: &Path, len: u64) -> std::io::Result<RecordStream> {
        Ok(RecordStream {
            src: File::open(path)?.take(len),
            buf: Vec::new(),
            start: 0,
            end: 0,
            eof: false,
        })
    }

    /// The outline of the next record, or `None` at the end of the prefix.
    fn next_record(&mut self) -> std::io::Result<Option<Outline>> {
        self.start = self.end;
        loop {
            if self.start < self.buf.len() {
                let mut pos = self.start;
                match outline_record(&self.buf, &mut pos) {
                    Ok(rec) => {
                        self.end = pos;
                        return Ok(Some(rec));
                    }
                    Err(e) if self.eof => return Err(e),
                    // the record runs past the buffer: read more
                    Err(_) => {}
                }
            } else if self.eof {
                return Ok(None);
            }
            self.fill()?;
        }
    }

    /// The encoded bytes of the record [`Self::next_record`] last returned.
    fn raw(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Drop the consumed bytes, then read at least as many as are still
    /// buffered, so a record larger than a chunk doubles its way in.
    fn fill(&mut self) -> std::io::Result<()> {
        self.buf.drain(..self.start);
        self.start = 0;
        self.end = 0;
        let want = STREAM_CHUNK.max(self.buf.len()) as u64;
        let got = self.src.by_ref().take(want).read_to_end(&mut self.buf)? as u64;
        self.eof = got < want;
        Ok(())
    }
}

/// `<path>.tmp`, where retirement stages the rewritten log.
fn retire_tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".tmp");
    PathBuf::from(s)
}

/// Append the log's bytes `[from, to)` to `out` and fsync it; returns
/// `out`'s new length.
fn copy_tail(path: &Path, from: u64, to: u64, out: &mut File) -> std::io::Result<u64> {
    let mut src = File::open(path)?;
    src.seek(SeekFrom::Start(from))?;
    let copied = std::io::copy(&mut src.take(to - from), out)?;
    if copied != to - from {
        return Err(corrupt("log shorter than its appended length"));
    }
    out.sync_data()?;
    out.stream_position()
}

/// fsync the directory holding `path`, so a rename into it is durable.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The covering checkpoint marker of one `(table, partition)` — see
/// [`checkpoint_markers`].
#[derive(Debug, Clone)]
pub struct CoveringMarker {
    /// Commit sequence the marker covers (commits ≤ this are folded).
    pub seq: u64,
    /// Manifest sequence of the persisted image to rebuild from.
    pub image_seq: Option<u64>,
    /// Folded SID window for a range-scoped marker; `None` = whole
    /// partition.
    pub range: Option<(u64, u64)>,
    /// Out-of-range delta (rebased onto the post-compaction stable) to
    /// replay on top of the image before the surviving commits. Empty
    /// for whole-partition markers.
    pub residual: Vec<WalEntry>,
}

/// Covering markers keyed by table, then partition (nested so replay
/// filtering probes it by `&str` without allocating per record).
pub type CoveringMarkers = HashMap<String, HashMap<u32, CoveringMarker>>;

/// Split a record stream into the *covering* (highest-sequence; the later
/// one on a tie) checkpoint marker per table and partition, and the
/// commits recovery must replay — each commit keeps only the
/// `(table, partition)` deltas no covering marker folded, in log order.
/// Consumes the records: residuals move into the markers and commits are
/// filtered in place, so neither is copied.
///
/// Recovery rebuilds each partition from the persisted image the covering
/// marker references — `image_seq` is the manifest sequence to load —
/// replays the marker's `residual` (non-empty only for range-scoped
/// markers), then replays the surviving commits.
pub fn checkpoint_markers(records: Vec<WalRecord>) -> (CoveringMarkers, Vec<WalRecord>) {
    let mut markers = CoveringMarkers::new();
    let mut commits = Vec::with_capacity(records.len());
    for rec in records {
        match rec {
            WalRecord::Checkpoint {
                seq,
                table,
                partition,
                image_seq,
                range,
                residual,
            } => {
                let parts = markers.entry(table).or_default();
                if parts.get(&partition).is_none_or(|m| seq >= m.seq) {
                    let marker = CoveringMarker {
                        seq,
                        image_seq,
                        range,
                        residual,
                    };
                    parts.insert(partition, marker);
                }
            }
            commit => commits.push(commit),
        }
    }
    for rec in &mut commits {
        if let WalRecord::Commit { seq, tables } = rec {
            tables.retain(|(t, p, _)| {
                markers
                    .get(t.as_str())
                    .and_then(|parts| parts.get(p))
                    .is_none_or(|m| *seq > m.seq)
            });
        }
    }
    (markers, commits)
}

/// Flatten a (serialized, consecutive) PDT into loggable entries: one
/// entry per *batch* where the structure allows it — consecutive inserts
/// at one insertion point and deletes of consecutive SIDs collapse into
/// `INS_BATCH` / `DEL_BATCH` entries via [`coalesce_entries`].
pub fn pdt_entries(pdt: &Pdt) -> Vec<WalEntry> {
    let per_row = pdt.iter().map(|e| {
        let values: Vec<Value> = if e.upd.is_ins() {
            pdt.vals().get_insert(e.upd.val)
        } else if e.upd.is_del() {
            pdt.vals().get_delete(e.upd.val)
        } else {
            vec![pdt.vals().get_modify(e.upd.col_no() as usize, e.upd.val)]
        };
        WalEntry {
            sid: e.sid,
            kind: e.upd.kind,
            values,
        }
    });
    coalesce_entries(per_row)
}

/// Fold a per-row entry stream into batched entries, order-preserving:
///
/// * a run of `INS` entries sharing one `sid` (a bulk insert into one
///   stable gap — always the case for value-based logs, whose sids are 0)
///   becomes one `INS_BATCH` entry with the tuples back-to-back;
/// * a run of `DEL` entries whose sids ascend by exactly 1 (deleting a
///   contiguous stable range; trivially true at sid 0 for value-based
///   logs — see below) becomes one `DEL_BATCH` entry at the run's first
///   sid;
/// * everything else (modifies, isolated inserts/deletes) passes through.
///
/// Value-based stores log every entry with `sid = 0`, so their DEL runs
/// never ascend; they emit `DEL_BATCH` entries directly instead.
pub fn coalesce_entries(entries: impl IntoIterator<Item = WalEntry>) -> Vec<WalEntry> {
    let mut out: Vec<WalEntry> = Vec::new();
    // per-item value width of the growing batch entry (0 = no open batch)
    let mut open_width = 0usize;
    let mut open_items = 0u64;
    for e in entries {
        if let Some(prev) = out.last_mut() {
            if open_width > 0 && e.kind == prev.kind {
                let extends = match e.kind {
                    INS => e.sid == prev.sid,
                    DEL => e.sid == prev.sid + open_items,
                    _ => false,
                };
                if extends && e.values.len() == open_width {
                    prev.values.extend(e.values);
                    open_items += 1;
                    continue;
                }
            }
            // close a pending 2+-item run into its batch kind
            if open_items > 1 {
                prev.kind = match prev.kind {
                    INS => INS_BATCH,
                    DEL => DEL_BATCH,
                    k => k,
                };
            }
        }
        open_width = match e.kind {
            INS | DEL => e.values.len(),
            _ => 0,
        };
        open_items = 1;
        out.push(e);
    }
    if open_items > 1 {
        if let Some(prev) = out.last_mut() {
            prev.kind = match prev.kind {
                INS => INS_BATCH,
                DEL => DEL_BATCH,
                k => k,
            };
        }
    }
    out
}

/// Rebuild a (consecutive) delta PDT from logged entries for propagation.
/// Batched entries expand back to their per-row updates: `INS_BATCH`
/// tuples all insert at the entry's sid, `DEL_BATCH` keys delete the
/// consecutive sids starting there.
pub fn rebuild_pdt(schema: &Schema, sk_cols: &[usize], entries: &[WalEntry]) -> Pdt {
    let tuple_width = schema.len();
    let key_width = sk_cols.len();
    let mut vals = ValueSpace::new(schema.clone(), sk_cols.to_vec());
    let mut staged: Vec<(u64, Upd)> = Vec::with_capacity(entries.len());
    for e in entries {
        match e.kind {
            INS => staged.push((e.sid, Upd::ins(vals.add_insert(&e.values)))),
            DEL => staged.push((e.sid, Upd::del(vals.add_delete(&e.values)))),
            INS_BATCH => {
                for tuple in e.values.chunks(tuple_width) {
                    staged.push((e.sid, Upd::ins(vals.add_insert(tuple))));
                }
            }
            DEL_BATCH => {
                for (i, key) in e.values.chunks(key_width).enumerate() {
                    staged.push((e.sid + i as u64, Upd::del(vals.add_delete(key))));
                }
            }
            col => staged.push((
                e.sid,
                Upd::modify(col, vals.add_modify(col as usize, &e.values[0])),
            )),
        }
    }
    let mut b = PdtBuilder::new(vals, pdt::DEFAULT_FANOUT);
    for (sid, upd) in staged {
        b.push(sid, upd);
    }
    b.build()
}

/// Split a pinned PDT at the stable-SID window `[s0, s1)` for a
/// range-scoped checkpoint. Entries addressing the window — plus, when
/// `fold_tail` is set (the window ends at the partition's last block),
/// inserts parked at exactly `s1`, the append gap — are the part the
/// range merge folds into fresh blocks and are dropped here. Everything
/// else is the **residual**: prefix entries (`sid < s0`) keep their
/// SIDs, suffix entries (`sid ≥ s1`) shift by the window's net row
/// delta, because the merged range now occupies `[s0, s1 + net)` in the
/// spliced stable. Returns the residual as coalesced loggable entries
/// (the marker payload; [`rebuild_pdt`] turns it back into the new
/// in-memory read layer) and the signed `net` row delta.
///
/// Relies on [`Pdt::iter`] yielding entries in non-decreasing SID order,
/// so the running net delta is complete before the first suffix entry.
pub fn rebase_pdt_outside_range(
    pdt: &Pdt,
    s0: u64,
    s1: u64,
    fold_tail: bool,
) -> (Vec<WalEntry>, i64) {
    let mut net: i64 = 0;
    let mut kept: Vec<WalEntry> = Vec::new();
    for e in pdt.iter() {
        let is_ins = e.upd.is_ins();
        let in_range = if is_ins {
            e.sid >= s0 && (e.sid < s1 || (fold_tail && e.sid == s1))
        } else {
            e.sid >= s0 && e.sid < s1
        };
        if in_range {
            if is_ins {
                net += 1;
            } else if e.upd.is_del() {
                net -= 1;
            }
            continue;
        }
        let values: Vec<Value> = if is_ins {
            pdt.vals().get_insert(e.upd.val)
        } else if e.upd.is_del() {
            pdt.vals().get_delete(e.upd.val)
        } else {
            vec![pdt.vals().get_modify(e.upd.col_no() as usize, e.upd.val)]
        };
        let sid = if e.sid >= s1 {
            e.sid
                .checked_add_signed(net)
                .expect("net insert delta cannot move a suffix SID below zero")
        } else {
            e.sid
        };
        kept.push(WalEntry {
            sid,
            kind: e.upd.kind,
            values,
        });
    }
    (coalesce_entries(kept), net)
}

/// Parse the record starting at `bytes[*pos]` and advance `pos` past it.
/// Every count is bounded by the bytes left before it sizes an
/// allocation, so corrupt input fails with `InvalidData`, never a panic
/// or a huge reservation.
fn parse_record(bytes: &[u8], pos: &mut usize) -> std::io::Result<WalRecord> {
    let magic = read_u32(bytes, pos)?;
    if magic == CKPT_MAGIC {
        let seq = read_u64(bytes, pos)?;
        let table = read_name(bytes, pos)?;
        let partition = read_u32(bytes, pos)?;
        let image_seq = match read_u8(bytes, pos)? {
            0 => None,
            1 => Some(read_u64(bytes, pos)?),
            f => return Err(corrupt(&format!("bad checkpoint image flag {f}"))),
        };
        let (range, residual) = match read_u8(bytes, pos)? {
            0 => (None, Vec::new()),
            1 => {
                let s0 = read_u64(bytes, pos)?;
                let s1 = read_u64(bytes, pos)?;
                // residual values are always inline (no per-record
                // dictionary on markers)
                (Some((s0, s1)), read_entries(bytes, pos, &[])?)
            }
            f => return Err(corrupt(&format!("bad checkpoint scope {f}"))),
        };
        return Ok(WalRecord::Checkpoint {
            seq,
            table,
            partition,
            image_seq,
            range,
            residual,
        });
    }
    if magic != MAGIC {
        return Err(corrupt("bad record magic"));
    }
    let seq = read_u64(bytes, pos)?;
    // per-record string dictionary (sorted distinct strings)
    let nstrs = read_u32(bytes, pos)? as usize;
    let mut dict = Vec::with_capacity(nstrs.min(bytes.len() - *pos));
    for _ in 0..nstrs {
        let n = read_u32(bytes, pos)? as usize;
        let s = std::str::from_utf8(
            bytes
                .get(
                    *pos..pos
                        .checked_add(n)
                        .ok_or_else(|| corrupt("bad dict entry"))?,
                )
                .ok_or_else(|| corrupt("truncated dict entry"))?,
        )
        .map_err(|_| corrupt("bad utf8 dict entry"))?
        .to_string();
        *pos += n;
        dict.push(s);
    }
    let ntables = read_u32(bytes, pos)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(bytes.len() - *pos));
    for _ in 0..ntables {
        let name = read_name(bytes, pos)?;
        let partition = read_u32(bytes, pos)?;
        tables.push((name, partition, read_entries(bytes, pos, &dict)?));
    }
    Ok(WalRecord::Commit { seq, tables })
}

/// `[nentries u32]` then per entry `[sid u64][kind u16][nvals u32][values]`.
fn read_entries(bytes: &[u8], pos: &mut usize, dict: &[String]) -> std::io::Result<Vec<WalEntry>> {
    let nentries = read_u32(bytes, pos)? as usize;
    let mut entries = Vec::with_capacity(nentries.min(bytes.len() - *pos));
    for _ in 0..nentries {
        let sid = read_u64(bytes, pos)?;
        let kind = read_u16(bytes, pos)?;
        let nvals = read_u32(bytes, pos)? as usize;
        let mut values = Vec::with_capacity(nvals.min(bytes.len() - *pos));
        for _ in 0..nvals {
            values.push(decode_value(bytes, pos, dict)?);
        }
        entries.push(WalEntry { sid, kind, values });
    }
    Ok(entries)
}

/// `[name_len u16][name bytes]`.
fn read_name(bytes: &[u8], pos: &mut usize) -> std::io::Result<String> {
    let n = read_u16(bytes, pos)? as usize;
    let name = std::str::from_utf8(
        bytes
            .get(*pos..*pos + n)
            .ok_or_else(|| corrupt("truncated name"))?,
    )
    .map_err(|_| corrupt("bad utf8 name"))?
    .to_string();
    *pos += n;
    Ok(name)
}

/// Encode one value. Strings present in `codes` (every string of a commit
/// record — the dictionary is built from the record's own values) are
/// logged as tag-6 codes; the tag-4 inline form remains for strings
/// outside the dictionary.
fn encode_value(buf: &mut Vec<u8>, v: &Value, codes: &HashMap<&str, u32>) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(3);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => match codes.get(s.as_str()) {
            Some(c) => {
                buf.push(6);
                buf.extend_from_slice(&c.to_le_bytes());
            }
            None => {
                buf.push(4);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        },
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn decode_value(bytes: &[u8], pos: &mut usize, dict: &[String]) -> std::io::Result<Value> {
    let tag = *bytes.get(*pos).ok_or_else(|| corrupt("truncated value"))?;
    *pos += 1;
    Ok(match tag {
        0 => Value::Null,
        1 => {
            let b = *bytes.get(*pos).ok_or_else(|| corrupt("truncated bool"))?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        2 => Value::Int(read_i64(bytes, pos)?),
        3 => Value::Double(f64::from_le_bytes(read_array::<8>(bytes, pos)?)),
        4 => {
            let n = read_u32(bytes, pos)? as usize;
            let s = std::str::from_utf8(
                bytes
                    .get(*pos..*pos + n)
                    .ok_or_else(|| corrupt("truncated str"))?,
            )
            .map_err(|_| corrupt("bad utf8"))?
            .to_string();
            *pos += n;
            Value::Str(s)
        }
        5 => Value::Date(i32::from_le_bytes(read_array::<4>(bytes, pos)?)),
        6 => {
            let code = read_u32(bytes, pos)? as usize;
            Value::Str(
                dict.get(code)
                    .ok_or_else(|| corrupt(&format!("string code {code} out of range")))?
                    .clone(),
            )
        }
        t => return Err(corrupt(&format!("bad value tag {t}"))),
    })
}

fn corrupt(msg: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("WAL corrupt: {msg}"),
    )
}

fn read_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> std::io::Result<[u8; N]> {
    let s = bytes
        .get(*pos..*pos + N)
        .ok_or_else(|| corrupt("truncated field"))?;
    *pos += N;
    Ok(s.try_into().unwrap())
}

fn read_u8(b: &[u8], p: &mut usize) -> std::io::Result<u8> {
    Ok(read_array::<1>(b, p)?[0])
}

fn read_u16(b: &[u8], p: &mut usize) -> std::io::Result<u16> {
    Ok(u16::from_le_bytes(read_array::<2>(b, p)?))
}

fn read_u32(b: &[u8], p: &mut usize) -> std::io::Result<u32> {
    Ok(u32::from_le_bytes(read_array::<4>(b, p)?))
}

fn read_u64(b: &[u8], p: &mut usize) -> std::io::Result<u64> {
    Ok(u64::from_le_bytes(read_array::<8>(b, p)?))
}

fn read_i64(b: &[u8], p: &mut usize) -> std::io::Result<i64> {
    Ok(i64::from_le_bytes(read_array::<8>(b, p)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::ValueType;

    #[test]
    fn value_codec_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(3.5),
            Value::Str("héllo".into()),
            Value::Date(19000),
        ];
        // inline path: no dictionary in scope
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(&mut buf, v, &HashMap::new());
        }
        let mut pos = 0;
        for v in &vals {
            assert_eq!(&decode_value(&buf, &mut pos, &[]).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // dictionary path: the string is logged as a 5-byte code
        let dict = vec!["héllo".to_string()];
        let codes: HashMap<&str, u32> = [("héllo", 0u32)].into_iter().collect();
        let mut coded = Vec::new();
        encode_value(&mut coded, &Value::Str("héllo".into()), &codes);
        assert_eq!(coded.len(), 5);
        let mut pos = 0;
        assert_eq!(
            decode_value(&coded, &mut pos, &dict).unwrap(),
            Value::Str("héllo".into())
        );
        // an out-of-range code is corruption, not a panic
        let mut pos = 0;
        assert!(decode_value(&coded, &mut pos, &[]).is_err());
    }

    #[test]
    fn commit_record_dictionary_dedups_strings() {
        // 100 entries sharing two strings: the encoded record stores each
        // string's bytes once and 4-byte codes elsewhere.
        let long = "x".repeat(64);
        let entries: Vec<WalEntry> = (0..100)
            .map(|i| WalEntry {
                sid: i,
                kind: INS,
                values: vec![Value::Str(long.clone()), Value::Str("y".into())],
            })
            .collect();
        let mut buf = Vec::new();
        encode_commit_record(&mut buf, 1, &[("t", 0, entries.as_slice())]);
        // far below the ~8.7 KiB an inline encoding would take
        assert!(buf.len() < 3000, "record is {} bytes", buf.len());
        // and it decodes back to the original entries
        let dir = std::env::temp_dir().join("pdt_wal_dict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dict.wal");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, &buf).unwrap();
        let records = Wal::read_all(&path).unwrap();
        let WalRecord::Commit { tables, .. } = &records[0] else {
            panic!("expected a commit record");
        };
        assert_eq!(tables[0].2, entries);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn coalesce_batches_runs_and_rebuild_expands_them() {
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let ins = |sid: u64, k: i64| WalEntry {
            sid,
            kind: INS,
            values: vec![Value::Int(k), Value::Int(k)],
        };
        let del = |sid: u64, k: i64| WalEntry {
            sid,
            kind: DEL,
            values: vec![Value::Int(k)],
        };
        // 3 inserts at one gap + 2 deletes of consecutive sids + an
        // isolated insert + a modify: 7 per-row entries → 4 logged entries
        let per_row = vec![
            ins(2, 20),
            ins(2, 21),
            ins(2, 22),
            del(5, 50),
            del(6, 60),
            WalEntry {
                sid: 7,
                kind: 1,
                values: vec![Value::Int(-1)],
            },
            ins(9, 90),
        ];
        let coalesced = coalesce_entries(per_row.clone());
        assert_eq!(coalesced.len(), 4);
        assert_eq!(coalesced[0].kind, INS_BATCH);
        assert_eq!(coalesced[0].values.len(), 6);
        assert_eq!(coalesced[1].kind, DEL_BATCH);
        assert_eq!(coalesced[1].sid, 5);
        assert_eq!(coalesced[3].kind, INS);
        // the batched log rebuilds the identical PDT
        let from_rows = rebuild_pdt(&schema, &[0], &per_row);
        let from_batches = rebuild_pdt(&schema, &[0], &coalesced);
        from_batches.check_invariants();
        assert_eq!(from_rows.len(), from_batches.len());
        let a: Vec<_> = from_rows
            .iter()
            .map(|e| (e.sid, e.rid, e.upd.kind))
            .collect();
        let b: Vec<_> = from_batches
            .iter()
            .map(|e| (e.sid, e.rid, e.upd.kind))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_entries_roundtrip_through_the_log() {
        let dir = std::env::temp_dir().join("pdt_wal_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.wal");
        let _ = std::fs::remove_file(&path);
        let entries = vec![
            WalEntry {
                sid: 3,
                kind: INS_BATCH,
                values: vec![
                    Value::Int(1),
                    Value::Str("a".into()),
                    Value::Int(2),
                    Value::Str("b".into()),
                ],
            },
            WalEntry {
                sid: 0,
                kind: DEL_BATCH,
                values: vec![Value::Int(7), Value::Int(8)],
            },
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(1, &[("t", 3, entries.as_slice())])
                .unwrap();
        }
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 1);
        let WalRecord::Commit { seq, tables } = &records[0] else {
            panic!("expected a commit record");
        };
        assert_eq!(*seq, 1);
        assert_eq!(tables[0].1, 3, "partition tag roundtrips");
        assert_eq!(tables[0].2, entries);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_markers_cover_exactly_one_partition() {
        let dir = std::env::temp_dir().join("pdt_wal_part_marker_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part.wal");
        let _ = std::fs::remove_file(&path);
        let ins = |k: i64| {
            vec![WalEntry {
                sid: 0,
                kind: INS,
                values: vec![Value::Int(k)],
            }]
        };
        {
            let mut wal = Wal::open(&path).unwrap();
            // seq 1 touches partitions 0 and 1; seq 2 touches partition 0
            let (e0, e1, e2) = (ins(10), ins(20), ins(30));
            wal.append_commit(1, &[("t", 0, e0.as_slice()), ("t", 1, e1.as_slice())])
                .unwrap();
            wal.append_commit(2, &[("t", 0, e2.as_slice())]).unwrap();
            // partition 0 checkpointed at seq 2: both its deltas are folded,
            // with a persisted image referenced by the marker
            wal.append_checkpoint("t", 0, 2, Some(2)).unwrap();
        }
        let all = Wal::read_all(&path).unwrap();
        assert!(
            matches!(
                all.last(),
                Some(WalRecord::Checkpoint {
                    seq: 2,
                    partition: 0,
                    image_seq: Some(2),
                    ..
                })
            ),
            "image sequence roundtrips through the marker"
        );
        let (markers, _) = checkpoint_markers(all);
        let m = &markers["t"][&0];
        assert_eq!((m.seq, m.image_seq), (2, Some(2)));
        assert!(m.range.is_none() && m.residual.is_empty());
        let effective = Wal::read_effective(&path).unwrap();
        let kept: Vec<(u64, String, u32)> = effective
            .iter()
            .flat_map(|r| match r {
                WalRecord::Commit { seq, tables } => tables
                    .iter()
                    .map(|(t, p, _)| (*seq, t.clone(), *p))
                    .collect::<Vec<_>>(),
                WalRecord::Checkpoint { .. } => vec![],
            })
            .collect();
        // partition 1's commit survives; partition 0's are covered
        assert_eq!(kept, vec![(1, "t".to_string(), 1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn range_marker_roundtrips_with_residual() {
        let dir = std::env::temp_dir().join("pdt_wal_range_marker_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("range.wal");
        let _ = std::fs::remove_file(&path);
        let residual = vec![
            WalEntry {
                sid: 3,
                kind: INS,
                values: vec![Value::Int(7), Value::Str("x".into()), Value::Null],
            },
            WalEntry {
                sid: 90,
                kind: DEL_BATCH,
                values: vec![Value::Int(1), Value::Int(2)],
            },
        ];
        {
            let gw = GroupWal::open(&path).unwrap();
            gw.append_checkpoint_range("t", 2, 5, Some(5), Some((32, 96)), &residual)
                .unwrap();
            // a whole-partition marker after it must stay the covering one
            gw.append_checkpoint("t", 2, 9, Some(9)).unwrap();
        }
        let all = Wal::read_all(&path).unwrap();
        assert_eq!(all.len(), 2);
        let WalRecord::Checkpoint {
            seq,
            range,
            residual: got,
            ..
        } = &all[0]
        else {
            panic!("expected a checkpoint record");
        };
        assert_eq!(*seq, 5);
        assert_eq!(*range, Some((32, 96)));
        assert_eq!(*got, residual, "residual values roundtrip inline");
        let (markers, _) = checkpoint_markers(all);
        let m = &markers["t"][&2];
        assert_eq!((m.seq, m.range), (9, None), "highest-seq marker covers");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebase_outside_range_keeps_prefix_and_shifts_suffix() {
        // stable rows 0..100; window [40, 60); entries on both sides
        let schema = Schema::from_pairs(&[("k", ValueType::Int)]);
        let entries = vec![
            WalEntry {
                sid: 10,
                kind: INS,
                values: vec![Value::Int(1)],
            },
            WalEntry {
                sid: 45,
                kind: INS,
                values: vec![Value::Int(2)],
            },
            WalEntry {
                sid: 50,
                kind: DEL,
                values: vec![Value::Int(3)],
            },
            WalEntry {
                sid: 55,
                kind: DEL,
                values: vec![Value::Int(4)],
            },
            WalEntry {
                sid: 80,
                kind: DEL,
                values: vec![Value::Int(5)],
            },
        ];
        let pdt = rebuild_pdt(&schema, &[0], &entries);
        let (residual, net) = rebase_pdt_outside_range(&pdt, 40, 60, false);
        // in-range: 1 insert, 2 deletes → net -1
        assert_eq!(net, -1);
        assert_eq!(residual.len(), 2);
        assert_eq!((residual[0].sid, residual[0].kind), (10, INS));
        assert_eq!(
            (residual[1].sid, residual[1].kind),
            (79, DEL),
            "suffix delete shifts by the window's net row delta"
        );
        // tail fold captures the append gap at s1
        let tail = vec![WalEntry {
            sid: 100,
            kind: INS,
            values: vec![Value::Int(6)],
        }];
        let pdt = rebuild_pdt(&schema, &[0], &tail);
        let (residual, net) = rebase_pdt_outside_range(&pdt, 60, 100, true);
        assert_eq!((residual.len(), net), (0, 1), "trailing inserts fold");
        let (residual, net) = rebase_pdt_outside_range(&pdt, 0, 60, false);
        assert_eq!(net, 0);
        assert_eq!(residual[0].sid, 100, "untouched window shifts nothing");
    }

    #[test]
    fn group_commit_shares_one_append_window_across_writers() {
        let dir = std::env::temp_dir().join("pdt_wal_group_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.wal");
        let _ = std::fs::remove_file(&path);
        let gw = std::sync::Arc::new(GroupWal::open(&path).unwrap());
        let entry = |k: i64| {
            vec![WalEntry {
                sid: 0,
                kind: INS,
                values: vec![Value::Int(k)],
            }]
        };
        // a solo commit pays one physical append window
        let e = entry(0);
        let t = gw.enqueue_commit(1, &[("t", 0, e.as_slice())]);
        gw.wait_durable(t).unwrap();
        assert_eq!(gw.stats().appends, 1);
        // hold the flusher so 4 concurrent writers deterministically pile
        // their records into one pending batch
        gw.hold_flushes(true);
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let gw = gw.clone();
            handles.push(std::thread::spawn(move || {
                let e = entry(i as i64 + 1);
                let t = gw.enqueue_commit(2 + i, &[("t", 0, e.as_slice())]);
                gw.wait_durable(t).unwrap();
            }));
        }
        while gw.pending_records() < 4 {
            std::thread::yield_now();
        }
        // the held-back records are NOT on disk yet (this is the crash
        // window a group-commit crash test kills in)
        assert_eq!(Wal::read_all(&path).unwrap().len(), 1);
        gw.hold_flushes(false);
        for h in handles {
            h.join().unwrap();
        }
        let s = gw.stats();
        assert_eq!(s.commits, 5);
        assert_eq!(
            s.appends, 2,
            "4 concurrent commits must share one append window"
        );
        assert!(
            s.commits - s.appends >= 3,
            "≥1 fewer append per commit on average at 4 writers"
        );
        let mut seqs: Vec<u64> = Wal::read_all(&path)
            .unwrap()
            .iter()
            .map(|r| r.seq())
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "no record lost or duplicated");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_checkpoint_marker_is_synchronous_and_flushes_pending() {
        let dir = std::env::temp_dir().join("pdt_wal_group_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group_ckpt.wal");
        let _ = std::fs::remove_file(&path);
        let gw = GroupWal::open(&path).unwrap();
        let e = vec![WalEntry {
            sid: 0,
            kind: INS,
            values: vec![Value::Int(7)],
        }];
        // an enqueued-but-unflushed commit rides along with the marker
        let _ticket = gw.enqueue_commit(1, &[("t", 0, e.as_slice())]);
        gw.append_checkpoint("t", 0, 1, None).unwrap();
        assert_eq!(gw.pending_records(), 0, "marker append drains the buffer");
        let s = gw.stats();
        assert_eq!((s.commits, s.checkpoints, s.appends), (1, 1, 1));
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0], WalRecord::Commit { seq: 1, .. }));
        assert!(matches!(recs[1], WalRecord::Checkpoint { seq: 1, .. }));
        let _ = std::fs::remove_file(&path);
    }

    fn retire_test_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pdt_wal_retire_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("retire.wal");
        let _ = std::fs::remove_file(&path);
        path
    }

    fn one_ins(k: i64) -> Vec<WalEntry> {
        vec![WalEntry {
            sid: 0,
            kind: INS,
            values: vec![Value::Int(k), Value::Str(format!("s{k}"))],
        }]
    }

    /// `(seq, table, partition, first key)` of every commit delta, and
    /// `(seq, table, partition, image, range, residual)` of every marker.
    #[allow(clippy::type_complexity)]
    fn log_contents(
        path: &Path,
    ) -> (
        Vec<(u64, String, u32, Value)>,
        Vec<(u64, String, u32, Option<u64>, Option<(u64, u64)>, usize)>,
    ) {
        let (mut commits, mut markers) = (Vec::new(), Vec::new());
        for rec in Wal::read_all(path).unwrap() {
            match rec {
                WalRecord::Commit { seq, tables } => {
                    for (t, p, e) in tables {
                        commits.push((seq, t, p, e[0].values[0].clone()));
                    }
                }
                WalRecord::Checkpoint {
                    seq,
                    table,
                    partition,
                    image_seq,
                    range,
                    residual,
                } => markers.push((seq, table, partition, image_seq, range, residual.len())),
            }
        }
        (commits, markers)
    }

    #[test]
    fn retire_keeps_exactly_the_live_records() {
        let path = retire_test_log("live");
        let gw = GroupWal::open(&path).unwrap();
        let commit = |seq: u64, parts: &[(&str, u32)]| {
            let entries: Vec<Vec<WalEntry>> = parts.iter().map(|_| one_ins(seq as i64)).collect();
            let deltas: Vec<(&str, u32, &[WalEntry])> = parts
                .iter()
                .zip(&entries)
                .map(|(&(t, p), e)| (t, p, e.as_slice()))
                .collect();
            let t = gw.enqueue_commit(seq, &deltas);
            gw.wait_durable(t).unwrap();
        };
        let residual = one_ins(-1);
        commit(1, &[("t", 0), ("t", 1)]);
        commit(2, &[("t", 0), ("u", 0)]);
        // superseded by the range marker at seq 3 below
        gw.append_checkpoint("t", 0, 1, Some(1)).unwrap();
        commit(3, &[("t", 0)]);
        // image-less marker: covers (u, 0) for replay, retires nothing
        gw.append_checkpoint("u", 0, 2, None).unwrap();
        commit(4, &[("t", 0), ("t", 1)]);
        gw.append_checkpoint_range("t", 0, 3, Some(3), Some((0, 8)), &residual)
            .unwrap();
        commit(5, &[("t", 0)]);
        // covers every commit of (t, 1): the last commit empties out
        gw.append_checkpoint("t", 1, 5, Some(5)).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let effective_before = Wal::read_effective(&path).unwrap();

        let retired = gw.retire().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(retired, before - after);
        let s = gw.stats();
        assert_eq!((s.bytes_appended, s.bytes_retired), (before, retired));
        let (commits, markers) = log_contents(&path);
        let t = |s: &str| s.to_string();
        // seq 1 and 3 are covered everywhere and dropped; seq 2 keeps the
        // image-less partition, seq 4 the delta above (t, 0)'s marker
        assert_eq!(
            commits,
            vec![
                (2, t("u"), 0, Value::Int(2)),
                (4, t("t"), 0, Value::Int(4)),
                (5, t("t"), 0, Value::Int(5)),
            ]
        );
        assert_eq!(
            markers,
            vec![
                (2, t("u"), 0, None, None, 0),
                (3, t("t"), 0, Some(3), Some((0, 8)), 1),
                (5, t("t"), 1, Some(5), None, 0),
            ]
        );
        // recovery reads the same covering markers and commit deltas
        let flat = |recs: Vec<WalRecord>| -> Vec<(u64, String, u32, Vec<WalEntry>)> {
            recs.into_iter()
                .flat_map(|r| match r {
                    WalRecord::Commit { seq, tables } => tables
                        .into_iter()
                        .map(|(t, p, e)| (seq, t, p, e))
                        .collect::<Vec<_>>(),
                    WalRecord::Checkpoint { .. } => vec![],
                })
                .collect()
        };
        let effective_after = Wal::read_effective(&path).unwrap();
        assert_eq!(
            effective_after.last().map(|r| r.seq()),
            effective_before.last().map(|r| r.seq()),
            "recovery resumes the same sequence"
        );
        assert_eq!(flat(effective_after), flat(effective_before));
        // the reopened appender appends to the rewritten file
        commit(6, &[("t", 1)]);
        assert_eq!(Wal::read_all(&path).unwrap().last().unwrap().seq(), 6);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            gw.stats().bytes_appended - gw.stats().bytes_retired
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retirement_is_due_after_an_image_marker_once_the_log_doubles() {
        let path = retire_test_log("trigger");
        let gw = GroupWal::open(&path).unwrap();
        let big = vec![WalEntry {
            sid: 0,
            kind: INS,
            values: vec![Value::Str("x".repeat(4096))],
        }];
        let mut seq = 0;
        let mut grow_to = |gw: &GroupWal, bytes: u64| {
            while std::fs::metadata(&path).map_or(0, |m| m.len()) < bytes {
                seq += 1;
                let t = gw.enqueue_commit(seq, &[("t", 0, big.as_slice())]);
                gw.wait_durable(t).unwrap();
            }
            seq
        };
        let s = grow_to(&gw, RETIRE_MIN_BYTES);
        assert_eq!(gw.maybe_retire().unwrap(), 0, "no image-bearing marker yet");
        gw.append_checkpoint("t", 0, s, None).unwrap();
        assert_eq!(
            gw.maybe_retire().unwrap(),
            0,
            "image-less markers never arm"
        );
        gw.append_checkpoint("t", 0, s, Some(s)).unwrap();
        assert!(gw.maybe_retire().unwrap() > 0, "armed and past the floor");
        assert_eq!(gw.maybe_retire().unwrap(), 0, "disarmed by the rewrite");
        let base = std::fs::metadata(&path).unwrap().len();
        // re-armed by a fresh marker, but the log has not doubled yet
        let s = grow_to(&gw, RETIRE_MIN_BYTES - 8192);
        gw.append_checkpoint("t", 0, s, Some(s)).unwrap();
        assert_eq!(gw.maybe_retire().unwrap(), 0, "armed, below the floor");
        grow_to(&gw, (2 * base).max(RETIRE_MIN_BYTES));
        assert!(gw.maybe_retire().unwrap() > 0, "armed and doubled");
        let _ = std::fs::remove_file(&path);
    }

    /// Records made durable after a rewrite's scan are copied over in its
    /// swap: no commit is lost or duplicated.
    #[test]
    fn commits_between_scan_and_swap_survive() {
        let path = retire_test_log("tail");
        let gw = GroupWal::open(&path).unwrap();
        let commit = |seq: u64, part: u32| {
            let e = one_ins(seq as i64);
            let t = gw.enqueue_commit(seq, &[("t", part, e.as_slice())]);
            gw.wait_durable(t).unwrap();
        };
        for seq in 1..=4 {
            commit(seq, 0);
        }
        gw.append_checkpoint("t", 0, 3, Some(3)).unwrap();
        let (tmp, end) = gw
            .stage_live()
            .unwrap()
            .expect("an image marker to retire by");
        // durable after the scan: the swap must carry them over verbatim,
        // covered or not
        commit(5, 1);
        gw.append_checkpoint("t", 0, 5, Some(5)).unwrap();
        commit(6, 0);
        let mut r = gw.retire.lock().unwrap();
        assert!(gw.swap_in(&mut r, tmp, end).unwrap() > 0);
        drop(r);
        let (commits, markers) = log_contents(&path);
        let seqs: Vec<(u64, u32)> = commits.iter().map(|c| (c.0, c.2)).collect();
        assert_eq!(seqs, vec![(4, 0), (5, 1), (6, 0)]);
        let marker_seqs: Vec<u64> = markers.iter().map(|m| m.0).collect();
        assert_eq!(marker_seqs, vec![3, 5]);
        // the tail's own covered history goes at the next rewrite
        assert!(gw.retire().unwrap() > 0);
        let (commits, markers) = log_contents(&path);
        assert_eq!(commits.iter().map(|c| c.0).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(markers.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebuild_pdt_from_entries() {
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let entries = vec![
            WalEntry {
                sid: 1,
                kind: INS,
                values: vec![Value::Int(5), Value::Int(50)],
            },
            WalEntry {
                sid: 2,
                kind: 1,
                values: vec![Value::Int(99)],
            },
            WalEntry {
                sid: 4,
                kind: DEL,
                values: vec![Value::Int(40)],
            },
        ];
        let p = rebuild_pdt(&schema, &[0], &entries);
        p.check_invariants();
        assert_eq!(p.len(), 3);
        assert_eq!(p.delta_total(), 0);
    }
}
