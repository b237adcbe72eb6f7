//! WAL retirement ≡ no retirement, differentially.
//!
//! Retirement rewrites the log to the records recovery still reads: each
//! partition's covering checkpoint marker, the commit deltas no
//! image-bearing marker covers, and the last commit. Recovery from the
//! rewritten log must therefore land exactly where recovery from the full
//! log does — for every update policy, partitioned and not, with
//! range-scoped compaction markers carrying residuals — and a crash at
//! any step of the rewrite must leave a log that still recovers. The
//! differential harness ([`DiffHarness`]) runs one database per policy in
//! lockstep against `NaiveImage`, so "recovers like the full log" is
//! checked as "both recover to the model".

use columnar::{Schema, TableMeta, Tuple, Value, ValueType};
use engine::testkit::DiffHarness;
use engine::{
    Database, MaintenanceConfig, MaintenanceScheduler, PartitionSpec, RetireStep, TableOptions,
    ALL_POLICIES,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("v", ValueType::Int),
        ("s", ValueType::Str),
    ])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i * 10),
                Value::Int(i),
                Value::Str(format!("r{i}")),
            ]
        })
        .collect()
}

fn row(k: i64, v: i64) -> Tuple {
    vec![Value::Int(k), Value::Int(v), Value::Str(format!("w{v}"))]
}

fn test_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdt_retire_{test}_{}", std::process::id()))
}

fn storage_harness(test: &str, partitions: usize) -> DiffHarness {
    let h = DiffHarness::with_storage(test_dir(test), "t", schema(), vec![0], base_rows(48), 8);
    if partitions > 1 {
        h.with_partitions(partitions)
    } else {
        h
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Retire every log, recover from the rewritten logs, then put the full
/// logs back and recover from those: both must reach the model. The
/// rewritten logs must not be longer than the full ones.
fn assert_retired_recovers_like_full(h: &mut DiffHarness) {
    let full: Vec<(PathBuf, Vec<u8>)> = ALL_POLICIES
        .iter()
        .map(|&p| {
            let path = h.wal_file(p).expect("storage harness has logs");
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    h.retire_wal();
    for (path, bytes) in &full {
        assert!(
            file_len(path) <= bytes.len() as u64,
            "{path:?}: retirement grew the log"
        );
    }
    h.crash_recover(); // from the rewritten logs
    for (path, bytes) in &full {
        std::fs::write(path, bytes).unwrap();
    }
    h.crash_recover(); // from the full logs
}

/// Churn, range compactions (residual-carrying markers), a whole
/// checkpoint and commits after the last marker — then retire.
#[test]
fn retired_log_recovers_like_the_full_log() {
    for partitions in [1, 3] {
        let mut h = storage_harness(&format!("equal{partitions}"), partitions);
        h.insert(row(25, 100));
        h.delete(20);
        h.modify(30, 1, Value::Int(-30));
        h.compact(0, 2, 4); // residual: the churn outside blocks 2..4
        h.insert(row(475, 101));
        h.checkpoint();
        h.insert(row(135, 102));
        h.update_col(&[3, 9], 1, &[Value::Int(-3), Value::Int(-9)]);
        h.compact(0, 0, 2);
        h.delete(5); // uncovered by any marker: must survive retirement
        assert_retired_recovers_like_full(&mut h);
        // the recovered databases keep committing, retiring, recovering
        h.insert(row(333, 103));
        h.checkpoint();
        h.retire_wal();
        h.crash_recover();
    }
}

/// A crash after each step of the rewrite — tmp file written, renamed
/// over the log, appender reopened — leaves a log that recovers to the
/// last acknowledged state, and the recovered databases retire cleanly.
#[test]
fn crash_at_each_retirement_step_recovers() {
    let steps = [
        RetireStep::TmpWritten,
        RetireStep::Renamed,
        RetireStep::Reopened,
    ];
    for partitions in [1, 3] {
        for step in steps {
            let mut h = storage_harness(&format!("crash{partitions}_{step:?}"), partitions);
            h.insert(row(25, 100));
            h.delete(9);
            h.compact(0, 0, 3);
            h.checkpoint();
            h.insert(row(475, 101));
            h.modify(4, 1, Value::Int(-4));
            h.retire_wal_crashing_at(step);
            for policy in ALL_POLICIES {
                let wal = h.wal_file(policy).unwrap();
                let tmp = PathBuf::from(format!("{}.tmp", wal.display()));
                assert_eq!(
                    tmp.exists(),
                    step == RetireStep::TmpWritten,
                    "{policy:?}: the staged log survives a crash before its rename only"
                );
            }
            h.crash_recover();
            h.insert(row(333, 102));
            h.compact(0, 1, 2);
            h.retire_wal(); // overwrites any stale tmp file
            h.crash_recover();
        }
    }
}

/// A WAL-only database has no image store, so its checkpoint markers
/// reference nothing on disk and the caller owns the recovery base: the
/// log is never rewritten.
#[test]
fn wal_only_database_never_rewrites() {
    let dir = test_dir("wal_only");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wal.log");
    let _ = std::fs::remove_file(&wal);
    let db = Database::with_wal(&wal).unwrap();
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions::default().with_block_rows(8),
        base_rows(48),
    )
    .unwrap();
    for i in 0..20 {
        let mut txn = db.begin();
        txn.insert("t", row(i * 10 + 5, i)).unwrap();
        txn.commit().unwrap();
        db.checkpoint("t").unwrap();
    }
    let before = std::fs::read(&wal).unwrap();
    assert_eq!(db.retire_wal().unwrap(), 0);
    assert_eq!(std::fs::read(&wal).unwrap(), before, "log untouched");
    assert_eq!(db.wal_stats().unwrap().bytes_retired, 0);
}

/// Write `txns` small transactions into a two-partition PDT table with
/// images, compacting and checkpointing as it goes, then drain: returns
/// the log's length afterwards and the bytes ever appended to it.
fn drained_log_len(test: &str, txns: i64) -> (u64, u64) {
    let dir = test_dir(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wal.log");
    let db = Arc::new(Database::with_storage(&wal, &dir.join("images")).unwrap());
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions::default()
            .with_block_rows(8)
            .with_partitions(PartitionSpec::SplitPoints(vec![vec![Value::Int(240)]])),
        base_rows(48),
    )
    .unwrap();
    // workers that never wake: the drain below is the only maintenance
    let sched = MaintenanceScheduler::start(
        db.clone(),
        MaintenanceConfig::with_tick(Duration::from_secs(3600)),
    );
    for i in 0..txns {
        let mut txn = db.begin();
        txn.insert("t", row(i * 4 + 1, i)).unwrap(); // partition 0
        txn.insert("t", row(1000 + i * 4 + 1, i)).unwrap(); // partition 1
        txn.commit().unwrap();
        if i % 7 == 3 {
            db.compact_range("t", (i % 2) as usize, 0, 2).unwrap();
        }
        if i % 11 == 5 {
            db.checkpoint("t").unwrap();
        }
    }
    sched.drain().unwrap();
    sched.shutdown();
    let stats = db.wal_stats().unwrap();
    let len = file_len(&wal);
    assert_eq!(
        len,
        stats.bytes_appended - stats.bytes_retired,
        "log length = bytes appended - bytes retired"
    );
    let live = db.read_view().visible_rows("t").unwrap();
    drop(db);
    // the drained log still recovers the whole state
    let db = Database::with_storage(&wal, &dir.join("images")).unwrap();
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions::default()
            .with_block_rows(8)
            .with_partitions(PartitionSpec::SplitPoints(vec![vec![Value::Int(240)]])),
        base_rows(48),
    )
    .unwrap();
    db.recover_from(&wal).unwrap();
    assert_eq!(db.read_view().visible_rows("t").unwrap(), live);
    assert_eq!(live, 48 + 2 * txns as u64);
    (len, stats.bytes_appended)
}

/// After a drain the log holds live state only, so its size does not
/// depend on how many commits came before.
#[test]
fn drained_log_size_is_independent_of_history() {
    let (short, short_appended) = drained_log_len("drain_short", 12);
    let (long, long_appended) = drained_log_len("drain_long", 120);
    assert!(long_appended > 5 * short_appended, "history grew");
    assert_eq!(short, long, "live log bytes after a drain");
}

/// The byte counters are registered once and surface in the unified
/// metrics snapshot with the values `wal_stats` reports.
#[test]
fn byte_counters_reach_the_metrics_snapshot() {
    let mut h = storage_harness("metrics", 1);
    h.insert(row(25, 100));
    h.checkpoint();
    h.retire_wal();
    for (policy, db) in h.dbs() {
        let stats = db.wal_stats().unwrap();
        assert!(
            stats.bytes_appended > 0 && stats.bytes_retired > 0,
            "{policy:?}"
        );
        let snap = db.metrics();
        let get = |name: &str| {
            snap.metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value.as_u64())
                .unwrap_or_else(|| panic!("{policy:?}: {name} missing"))
        };
        assert_eq!(get("db.wal.bytes_appended"), stats.bytes_appended);
        assert_eq!(get("db.wal.bytes_retired"), stats.bytes_retired);
    }
}

#[derive(Debug, Clone)]
enum Action {
    Insert(i64, i64),
    DeleteRid(usize),
    UpdateCol(usize, i64),
    Checkpoint,
    /// Compact `[b0, b0 + len)` of partition `p` (clamped by the step).
    Compact(usize, usize, usize),
    Retire,
    CrashRecover,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0i64..400, any::<i64>()).prop_map(|(k, v)| Action::Insert(k, v)),
        2 => any::<usize>().prop_map(Action::DeleteRid),
        3 => (any::<usize>(), any::<i64>()).prop_map(|(r, v)| Action::UpdateCol(r, v)),
        1 => Just(Action::Checkpoint),
        3 => (0usize..4, 0usize..6, 1usize..4).prop_map(|(p, b0, l)| Action::Compact(p, b0, l)),
        2 => Just(Action::Retire),
        1 => Just(Action::CrashRecover),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random scripts of churn, range compactions, checkpoints,
    /// retirements and crashes: every recovery agrees with the model,
    /// and at the end recovery from the retired logs equals recovery
    /// from the logs as they were before the last retirement.
    #[test]
    fn random_scripts_recover_alike_with_and_without_retirement(
        actions in prop::collection::vec(action_strategy(), 4..16),
        partitions in 1usize..4,
    ) {
        let mut h = DiffHarness::with_storage(
            test_dir("script"), "t", schema(), vec![0], base_rows(24), 8,
        );
        if partitions > 1 {
            h = h.with_partitions(partitions);
        }
        for action in &actions {
            let visible = h.model().len();
            match action {
                // odd keys so collisions come from the script, not the base
                Action::Insert(k, v) => {
                    h.insert(row(k * 2 + 1, *v));
                }
                Action::DeleteRid(r) => {
                    if visible > 0 {
                        h.delete(r % visible);
                    }
                }
                Action::UpdateCol(r, v) => {
                    if visible > 0 {
                        h.update_col(&[(r % visible) as u64], 1, &[Value::Int(*v)]);
                    }
                }
                Action::Checkpoint => h.checkpoint(),
                Action::Compact(p, b0, len) => h.compact(*p, *b0, b0 + len),
                Action::Retire => h.retire_wal(),
                Action::CrashRecover => h.crash_recover(),
            }
        }
        // a residual-carrying step so the final retirement has a range
        // marker to keep
        h.insert(row(9, 1));
        h.insert(row(239, 2));
        h.compact(0, 0, 1);
        assert_retired_recovers_like_full(&mut h);
    }
}

/// Retirement reached through the automatic trigger: once the log has
/// grown past the floor, an image-bearing checkpoint retires history on
/// its own, and recovery still agrees with the model.
#[test]
fn checkpoints_retire_history_once_the_log_doubles() {
    let mut h = storage_harness("auto", 2);
    // ~80 commits of ~1 KiB each push every log past the 64 KiB floor
    let pad = "x".repeat(1000);
    for i in 0..80 {
        h.insert(vec![
            Value::Int(i * 6 + 1),
            Value::Int(i),
            Value::Str(format!("{pad}{i}")),
        ]);
        if i % 20 == 19 {
            h.checkpoint();
        }
    }
    for (policy, db) in h.dbs() {
        let stats = db.wal_stats().unwrap();
        assert!(stats.bytes_retired > 0, "{policy:?}: {stats:?}");
        let wal = h.wal_file(policy).unwrap();
        assert_eq!(
            file_len(&wal),
            stats.bytes_appended - stats.bytes_retired,
            "{policy:?}"
        );
    }
    h.crash_recover();
}
