//! `trickle_durable`: write-heavy. Two writers, each owning one of two
//! range partitions of a 1M-row PDT table stored with a WAL plus images,
//! commit small transactions (an 8-row `append` of fresh keys plus an
//! 8-row `update_col`, 90% of them in the hottest tenth of the writer's
//! partition) while the maintenance scheduler compacts underneath. After
//! the timed phase the run drains maintenance, drops the database,
//! re-declares the table and times `recover_from` on its own, five times.

use crate::report::{median, ms, peak_rss_mb, quantile, ratio, reset_peak_rss, tail, Report};
use crate::scan::{base_rows, digest, distinct_rids, schema, NDATA};
use crate::trace::{self, finish_trace, maintenance_layers, untraced, wal_layers, Sample};
use crate::{spans, timed_setups, Cfg};
use bench::{between_key, KeyKind};
use columnar::{ColumnVec, TableMeta, Value, ValueType};
use engine::{
    CompactionConfig, Database, MaintenanceConfig, MaintenanceScheduler, PartitionSpec,
    TableOptions, UpdatePolicy,
};
use exec::Batch;
use obs::TraceKind;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpch::gen::Rng;

const ROWS_PER_TXN: u64 = 8;
/// Value bytes one transaction commits: 8 appended rows of 5 ints plus
/// 8 updated ints.
const USER_BYTES_PER_TXN: u64 = ROWS_PER_TXN * (1 + NDATA as u64) * 8 + ROWS_PER_TXN * 8;
const WRITERS: usize = 2;

/// PDT, two range partitions split at row `n/2` (key `n`), budgets
/// lowered from the defaults and heat-driven compaction on.
fn options(n: u64) -> TableOptions {
    TableOptions::default()
        .with_policy(UpdatePolicy::Pdt)
        .with_partitions(PartitionSpec::SplitPoints(vec![vec![Value::Int(n as i64)]]))
        .with_flush_threshold(64 << 10)
        .with_checkpoint_threshold(8 << 20)
        .with_compaction(CompactionConfig {
            enabled: true,
            ..CompactionConfig::default()
        })
}

struct Store {
    wal: PathBuf,
    images: PathBuf,
}

impl Store {
    fn new(dir: &Path) -> Result<Store, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(Store {
            wal: dir.join("wal.log"),
            images: dir.join("images"),
        })
    }

    fn open(&self, n: u64, rows: Vec<columnar::Tuple>) -> Result<Database, String> {
        let db = Database::with_storage(&self.wal, &self.images).map_err(|e| e.to_string())?;
        db.create_table(TableMeta::new("t", schema(), vec![0]), options(n), rows)
            .map_err(|e| e.to_string())?;
        Ok(db)
    }
}

/// One writer's private state: its partition's gap range and how many
/// rows it has committed into it.
struct Writer {
    part: usize,
    rng: Rng,
    /// Inter-row gaps `[lo, hi)` of the partition; gap `g` takes key `2g+1`.
    gaps: (u64, u64),
    used: HashSet<u64>,
    /// Used gaps inside the hottest tenth.
    hot_used: u64,
    /// Visible rows of the partition (base plus committed appends).
    visible: u64,
}

/// Outcome of one writer's timed loop.
#[derive(Default)]
struct WriterOut {
    /// `(ms begin→ack, traced)` of every committed transaction.
    lat: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

impl Writer {
    /// A key no transaction has used: 90% of them in the hottest tenth
    /// of the partition's gaps, until that tenth is half used.
    fn fresh_key(&mut self) -> Result<i64, String> {
        let (lo, hi) = self.gaps;
        let hot = ((hi - lo) / 10).max(1);
        if self.used.len() as u64 >= (hi - lo) / 2 {
            return Err(format!("partition {} ran out of fresh keys", self.part));
        }
        loop {
            let in_hot = self.rng.below(10) < 9 && self.hot_used < hot / 2;
            let g = lo + self.rng.below(if in_hot { hot } else { hi - lo });
            if self.used.insert(g) {
                self.hot_used += u64::from(g < lo + hot);
                return Ok(between_key(g, 1, KeyKind::Int)[0].as_int());
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.used.len() as u64 + ROWS_PER_TXN >= (self.gaps.1 - self.gaps.0) / 2
    }

    /// One transaction, timed from `begin` to the acknowledged commit.
    fn txn(&mut self, db: &Database, types: &[ValueType]) -> Result<f64, String> {
        let t0 = Instant::now();
        let _op = spans::op("txn");
        let mut txn = {
            let _s = spans::span("engine.begin");
            db.begin()
        };
        let mut rows = Batch::with_capacity(types, ROWS_PER_TXN as usize);
        for _ in 0..ROWS_PER_TXN {
            let k = self.fresh_key()?;
            let mut row = vec![Value::Int(k)];
            row.extend((0..NDATA).map(|c| Value::Int(k ^ c as i64)));
            rows.push_owned_row(row);
        }
        {
            let _s = spans::span("engine.dml.append");
            txn.append("t", rows).map_err(|e| e.to_string())?;
        }
        let visible = self.visible + ROWS_PER_TXN;
        // partition 0 starts at rid 0; partition 1 after everything
        // partition 0 shows this snapshot
        let base = if self.part == 0 {
            0
        } else {
            let _s = spans::span("engine.visible_rows");
            txn.visible_rows("t").map_err(|e| e.to_string())? - visible
        };
        let window = if self.rng.below(10) < 9 {
            (visible / 10).max(ROWS_PER_TXN)
        } else {
            visible
        };
        let rids: Vec<u64> = distinct_rids(&mut self.rng, ROWS_PER_TXN, window)
            .into_iter()
            .map(|r| base + r)
            .collect();
        let vals = ColumnVec::Int(rids.iter().map(|_| self.rng.range(0, 1 << 40)).collect());
        {
            let _s = spans::span("engine.dml.update_col");
            txn.update_col("t", &rids, 2, vals)
                .map_err(|e| e.to_string())?;
        }
        {
            let _s = spans::span("engine.commit");
            txn.commit().map_err(|e| e.to_string())?;
        }
        self.visible += ROWS_PER_TXN;
        Ok(ms(t0.elapsed()))
    }

    fn run(&mut self, db: &Database, deadline: Instant) -> WriterOut {
        let types = schema().types();
        let mut out = WriterOut::default();
        // a writer stops early only if its partition runs out of keys
        while Instant::now() < deadline && !self.exhausted() {
            out.attempted += 1;
            let win = spans::window();
            match self.txn(db, &types) {
                Ok(t) => out.lat.push((t, win.traced())),
                Err(_) => out.failed += 1,
            }
        }
        out
    }
}

struct Setup {
    store: Store,
    db: Arc<Database>,
    sched: MaintenanceScheduler,
}

fn setup(cfg: &Cfg, n: u64, rep: usize) -> Result<Setup, String> {
    let store = Store::new(&cfg.tmp.join(format!("setup{rep}")))?;
    let db = Arc::new(store.open(n, base_rows(n))?);
    let sched = MaintenanceScheduler::start(db.clone(), MaintenanceConfig::default());
    Ok(Setup { store, db, sched })
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let n: u64 = if cfg.toy { 100_000 } else { 1_000_000 };
    let mut rep = Report::default();

    let (Setup { store, db, sched }, setup_times) =
        timed_setups(cfg, |r| setup(cfg, n, r), |old: Setup| old.sched.shutdown())?;

    let half = n / 2;
    let mut writers: Vec<Writer> = (0..WRITERS)
        .map(|w| Writer {
            part: w,
            rng: Rng::new(
                cfg.seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(w as u64 + 1),
            ),
            gaps: if w == 0 { (0, half - 1) } else { (half, n) },
            used: HashSet::new(),
            hot_used: 0,
            visible: half,
        })
        .collect();

    let wal_len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let wal_before = wal_len(&store.wal);
    let stats_before = db.wal_stats().unwrap_or_default();
    reset_peak_rss()?;
    let tracer = cfg.trace.then(trace::Tracer::start);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let outs: Vec<WriterOut> = std::thread::scope(|s| {
        let handles: Vec<_> = writers
            .iter_mut()
            .map(|w| {
                let db = &db;
                s.spawn(move || w.run(db, deadline))
            })
            .collect();
        if cfg.trace {
            trace::alternate_tracing(deadline, Duration::from_millis(200));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect()
    });
    trace::set_tracing(false);
    let elapsed = t0.elapsed().as_secs_f64();
    let peak_mb = peak_rss_mb();
    let maint = sched.stats();
    let wal_growth = wal_len(&store.wal) - wal_before;
    let wal_stats = db.wal_stats().unwrap_or_default();

    let lat: Vec<Sample> = outs.iter().flat_map(|o| o.lat.iter().copied()).collect();
    rep.attempted = outs.iter().map(|o| o.attempted).sum();
    rep.failed = outs.iter().map(|o| o.failed).sum();
    let committed = lat.len() as u64;
    let plain = untraced(cfg, &lat);
    let tail_v = tail(&mut rep, "txn", &plain, 0.99);

    // the traced run's write-path probe: a few transactions alone, so
    // block reads per transaction are not mixed with other work
    let mut probe_blocks = Vec::new();
    if cfg.trace {
        sched.drain().map_err(|e| e.to_string())?;
        let types = schema().types();
        for _ in 0..20 {
            let before = db.io().stats();
            writers[0].txn(&db, &types)?;
            probe_blocks.push(db.io().stats().since(&before).blocks_read as f64);
        }
    }

    // drain, take the live digest, drop the database
    sched.drain().map_err(|e| e.to_string())?;
    let errors = sched.stats().errors;
    let last_error = sched.last_error();
    sched.shutdown();
    let (live_rows, live_digest) = digest(&db, "t")?;
    let appended: u64 = writers.iter().map(|w| w.visible - half).sum();
    drop(db);

    // restart: re-declare the table and time recover_from on its own
    if cfg.trace {
        trace::set_tracing(true);
    }
    let mut rec_ms = Vec::new();
    let mut read_all_ms = Vec::new();
    let mut recovered = Vec::new();
    let recoveries = if cfg.toy { 1 } else { 5 };
    for _ in 0..recoveries {
        let t = Instant::now();
        let records = txn::wal::Wal::read_all(&store.wal).map_err(|e| e.to_string())?;
        read_all_ms.push(ms(t.elapsed()));
        drop(records);
        let db = store.open(n, base_rows(n))?;
        let t = Instant::now();
        db.recover_from(&store.wal).map_err(|e| e.to_string())?;
        rec_ms.push(ms(t.elapsed()));
        let (rows, d) = digest(&db, "t")?;
        recovered.push((rows, cfg.maybe_corrupt(d)));
    }
    trace::set_tracing(false);
    let (rec_rows, rec_digest) = recovered[0];
    rep.check(
        "recovered_digest_equals_live",
        recovered.iter().all(|&r| r == (live_rows, live_digest)),
        format!(
            "{} recoveries: first {rec_rows} rows digest {rec_digest:016x}, live {live_rows} rows digest {live_digest:016x}",
            recovered.len()
        ),
    );
    rep.check(
        "live_row_count",
        live_rows == cfg.maybe_corrupt(n + appended),
        format!("{live_rows} rows, expected {n} + {appended} appended"),
    );
    let min_steps = if cfg.toy { 1 } else { 3 };
    rep.guard(
        "compaction_ran",
        maint.compactions >= min_steps && errors == 0,
        format!(
            "{} compaction steps (need >= {min_steps}) and {errors} maintenance errors{} in {elapsed:.1} s",
            maint.compactions,
            last_error.map(|e| format!(" (last: {e})")).unwrap_or_default()
        ),
    );

    let txns_per_s = committed as f64 / elapsed;
    rep.e2e("op_ms", median(&plain), "ms");
    rep.e2e("op_tail_ms", tail_v, "ms");
    rep.e2e("aux_ms", median(&rec_ms), "ms");
    rep.info("txn_p50_ms", median(&plain), "ms");
    rep.info("txn_p99_ms", tail_v, "ms");
    rep.info("txn_samples", plain.len() as f64, "count");
    rep.info("txns_per_s", txns_per_s, "1/s");
    rep.info("recovery_s", median(&rec_ms) / 1e3, "s");
    let user_bytes = (committed * USER_BYTES_PER_TXN) as f64;
    let w_bytes_per_user = ratio(
        wal_growth as f64 + maint.stable_bytes_written as f64,
        user_bytes,
    );
    rep.info("write_bytes_per_user_byte", w_bytes_per_user, "ratio");
    rep.info("compaction_steps", maint.compactions as f64, "count");

    if let Some(tracer) = tracer {
        let (events, dropped) = tracer.finish();
        let recorded = spans::take();
        let p50_ms = |name: &str| median(&spans::durations_ms(&recorded, name));
        rep.layer("engine.dml.append_ms", p50_ms("engine.dml.append"), "ms");
        rep.layer(
            "engine.dml.update_col_ms",
            p50_ms("engine.dml.update_col"),
            "ms",
        );
        let commit_us: Vec<f64> = spans::durations_ms(&recorded, "engine.commit")
            .iter()
            .map(|m| m * 1e3)
            .collect();
        rep.layer("engine.commit_us.p50", median(&commit_us), "us");
        rep.layer("engine.commit_us.p99", quantile(&commit_us, 0.99), "us");
        let blocks = median(&probe_blocks);
        rep.layer("engine.dml.blocks_read_per_txn", blocks, "count");
        rep.layer(
            "engine.dml.rows_written_per_block_read",
            ratio((2 * ROWS_PER_TXN) as f64, blocks),
            "ratio",
        );
        wal_layers(
            &mut rep,
            &events,
            &stats_before,
            &wal_stats,
            wal_growth,
            committed,
        );
        rep.layer("txn.wal.read_all_ms", median(&read_all_ms), "ms");
        maintenance_layers(&mut rep, &events, &maint);
        rep.layer(
            "columnar.image.bytes_per_txn",
            ratio(maint.stable_bytes_written as f64, committed as f64),
            "B",
        );
        rep.layer(
            "engine.write_bytes_per_user_byte",
            w_bytes_per_user,
            "ratio",
        );
        let adopted = events
            .iter()
            .filter(|e| e.kind == TraceKind::RecoveryImageAdopt)
            .count();
        let replayed: u64 = events
            .iter()
            .filter(|e| e.kind == TraceKind::RecoveryWalReplay)
            .map(|e| e.a)
            .sum();
        let reps = rec_ms.len() as f64;
        rep.layer(
            "engine.recovery.images_adopted",
            adopted as f64 / reps,
            "count",
        );
        rep.layer(
            "engine.recovery.wal_entries_replayed",
            replayed as f64 / reps,
            "count",
        );
        finish_trace(
            &mut rep,
            cfg,
            &recorded,
            &lat,
            dropped,
            "txn",
            "trickle_durable",
        )?;
    }

    rep.e2e("setup_s", median(&setup_times), "s");
    rep.e2e("peak_rss_mb", peak_mb, "MB");
    Ok(rep)
}
