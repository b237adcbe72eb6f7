//! `scan_updated`: read-only merge-scans under updates (the paper's
//! Figure 17). Three 1M-row tables, one per update policy, receive the
//! same 1-per-100-rows update script through batched DML; one client
//! then runs full scans of the four data columns round-robin across
//! them.

use crate::report::{
    median, ms, peak_rss_mb, quantile, ratio, reset_peak_rss, tail, Digest, Report,
};
use crate::trace::{self, untraced, Sample};
use crate::{spans, timed_setups, Cfg};
use bench::{between_key, micro_row, KeyKind};
use columnar::{ColumnVec, IoTracker, Schema, TableMeta, Tuple, Value, ValueType};
use engine::{Database, ScanSpec, TableOptions, UpdatePolicy};
use exec::{Batch, Operator};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use tpch::gen::Rng;

pub const NDATA: usize = 4;
/// Data columns every timed scan reads (column 0 is the key).
const DATA_COLS: [usize; NDATA] = [1, 2, 3, 4];
/// Update transactions the script is split into.
const SCRIPT_TXNS: u64 = 4;

/// `(table, policy, metric tag, span name of one scan)`. The timed loop
/// also scans the PDT table's clean view (its stable image alone) each
/// round, the base the paper compares merge-scans with.
const TABLES: [(&str, UpdatePolicy, &str, &str); 3] = [
    ("t_pdt", UpdatePolicy::Pdt, "pdt", "scan.pdt"),
    ("t_vdt", UpdatePolicy::Vdt, "vdt", "scan.vdt"),
    (
        "t_rowstore",
        UpdatePolicy::RowStore,
        "rowstore",
        "scan.rowstore",
    ),
];

fn rows_for(cfg: &Cfg) -> u64 {
    if cfg.toy {
        20_000
    } else {
        1_000_000
    }
}

/// One int key and four int data columns.
pub fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k0", ValueType::Int),
        ("v0", ValueType::Int),
        ("v1", ValueType::Int),
        ("v2", ValueType::Int),
        ("v3", ValueType::Int),
    ])
}

pub fn base_rows(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| micro_row(i, 1, NDATA, KeyKind::Int))
        .collect()
}

/// What the update script did to one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScriptOutcome {
    inserted: u64,
    modified: u64,
    deleted: u64,
}

/// The update script of `bench::EngineMicroLoad`, seeded: `total`
/// updates (⅓ insert of fresh keys, ⅓ modify of the first data column,
/// ⅓ delete, positions uniform) in `SCRIPT_TXNS` batched transactions.
/// The same seed on the same base image yields the same logical image
/// under every policy.
fn apply_script(
    db: &Database,
    table: &str,
    n: u64,
    total: u64,
    seed: u64,
) -> Result<ScriptOutcome, String> {
    let mut rng = Rng::new(seed);
    let mut used_gaps = HashSet::new();
    let mut out = ScriptOutcome {
        inserted: 0,
        modified: 0,
        deleted: 0,
    };
    let types: Vec<ValueType> = schema().types();
    let err = |e: engine::DbError| format!("{table}: {e}");
    for t in 0..SCRIPT_TXNS {
        let more = total / SCRIPT_TXNS + u64::from(t < total % SCRIPT_TXNS);
        let third = more / 3;
        let (ins, dels) = (third, third);
        let mods = more - 2 * third;
        let mut txn = db.begin();
        let mut rows = Batch::with_capacity(&types, ins as usize);
        let mut pushed = 0;
        while pushed < ins && (used_gaps.len() as u64) < n {
            let g = rng.below(n);
            if !used_gaps.insert(g) {
                continue;
            }
            let mut row = between_key(g, 1, KeyKind::Int);
            row.extend((0..NDATA).map(|c| Value::Int(c as i64)));
            rows.push_owned_row(row);
            pushed += 1;
        }
        out.inserted += txn.append(table, rows).map_err(err)? as u64;
        let visible = txn.visible_rows(table).map_err(err)?;
        let rids = distinct_rids(&mut rng, mods, visible);
        let vals = ColumnVec::Int(rids.iter().map(|_| rng.range(0, 1 << 40)).collect());
        out.modified += txn.update_col(table, &rids, 1, vals).map_err(err)? as u64;
        let visible = txn.visible_rows(table).map_err(err)?;
        let rids = distinct_rids(&mut rng, dels, visible);
        out.deleted += txn.delete_rids(table, &rids).map_err(err)? as u64;
        txn.commit().map_err(err)?;
    }
    Ok(out)
}

pub fn distinct_rids(rng: &mut Rng, count: u64, visible: u64) -> Vec<u64> {
    let mut set = HashSet::new();
    while (set.len() as u64) < count.min(visible) {
        set.insert(rng.below(visible));
    }
    let mut rids: Vec<u64> = set.into_iter().collect();
    rids.sort_unstable();
    rids
}

struct Setup {
    db: Database,
    outcome: ScriptOutcome,
}

fn setup(cfg: &Cfg, n: u64) -> Result<Setup, String> {
    let db = Database::new();
    let mut outcome = None;
    for (name, policy, _, _) in TABLES {
        db.create_table(
            TableMeta::new(name, schema(), vec![0]),
            TableOptions::default()
                .with_compression(true)
                .with_policy(policy),
            base_rows(n),
        )
        .map_err(|e| format!("create {name}: {e}"))?;
        let o = apply_script(&db, name, n, n / 100, cfg.seed)?;
        if outcome.is_some_and(|prev| prev != o) {
            return Err(format!(
                "update script diverged on {name}: {o:?} vs {outcome:?}"
            ));
        }
        outcome = Some(o);
    }
    Ok(Setup {
        db,
        outcome: outcome.expect("three tables"),
    })
}

/// Row count and digest of a full scan of every column (key included).
pub fn digest(db: &Database, table: &str) -> Result<(u64, u64), String> {
    let view = db.read_view();
    let mut scan = view
        .scan_with(table, ScanSpec::all())
        .map_err(|e| format!("{table}: {e}"))?;
    let mut d = Digest::default();
    let mut rows = 0;
    while let Some(b) = scan.next_batch() {
        for i in 0..b.num_rows() {
            for c in &b.cols {
                d.add(c.as_int()[i]);
            }
        }
        rows += b.num_rows() as u64;
    }
    Ok((rows, d.0))
}

/// One timed full scan of the data columns, recorded as span `op`:
/// `(ms, rows)`.
fn timed_scan(
    db: &Database,
    table: &str,
    op: &'static str,
    clean: bool,
) -> Result<(f64, u64), String> {
    let t0 = Instant::now();
    let _op = spans::op(op);
    let view = {
        let _s = spans::span("engine.read_view");
        if clean {
            db.clean_view()
        } else {
            db.read_view()
        }
    };
    let mut scan = {
        let _s = spans::span("engine.scan_with");
        view.scan_with(table, ScanSpec::cols(DATA_COLS.to_vec()))
            .map_err(|e| format!("{table}: {e}"))?
    };
    let rows = {
        let _s = spans::span("exec.drain");
        let mut rows = 0u64;
        while let Some(b) = scan.next_batch() {
            rows += std::hint::black_box(b.num_rows()) as u64;
        }
        rows
    };
    Ok((ms(t0.elapsed()), rows))
}

/// What the scan client measured. Index 3 of `lat` is the clean scan.
#[derive(Default)]
struct ClientOut {
    lat: [Vec<Sample>; 4],
    attempted: u64,
    failed: u64,
    /// Scans that returned another row count than expected.
    wrong_counts: u64,
}

/// The scan client's closed loop until `deadline`: rounds of the three
/// tables' full scans plus one scan of the PDT table's clean view. `want`
/// is the expected row count of each.
fn client(db: &Database, want: &[u64; 4], deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    let scans = TABLES.map(|(name, _, _, op)| (name, op, false));
    let scans = [scans[0], scans[1], scans[2], ("t_pdt", "scan.clean", true)];
    for i in (0..scans.len()).cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let (name, op, clean) = scans[i];
        out.attempted += 1;
        let win = spans::window();
        match timed_scan(db, name, op, clean) {
            Ok((t, rows)) if rows == want[i] => out.lat[i].push((t, win.traced())),
            Ok(_) => {
                out.wrong_counts += 1;
                out.failed += 1;
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let n = rows_for(cfg);
    let mut rep = Report::default();

    let (Setup { db, outcome }, setup_times) = timed_setups(cfg, |_| setup(cfg, n), drop)?;
    let updates = outcome.inserted + outcome.modified + outcome.deleted;
    let expected = n + outcome.inserted - outcome.deleted;

    // output check: the three policies' merged images agree
    let mut digests = Vec::new();
    for (name, ..) in TABLES {
        let (rows, d) = digest(&db, name)?;
        rep.check(
            &format!("{name}.row_count"),
            rows == cfg.maybe_corrupt(expected),
            format!(
                "{rows} rows, expected {n} + {} inserted - {} deleted = {expected}",
                outcome.inserted, outcome.deleted
            ),
        );
        digests.push(d);
    }
    let pdt_digest = cfg.maybe_corrupt(digests[0]);
    rep.check(
        "merged_images_equal",
        digests[1..].iter().all(|&d| d == pdt_digest),
        format!(
            "digests pdt={pdt_digest:016x} vdt={:016x} rowstore={:016x}",
            digests[1], digests[2]
        ),
    );

    // warm-up round, then the timed closed loop
    let mut io_per_scan = Vec::new();
    for (name, _, _, op) in TABLES {
        let before = db.io().stats();
        timed_scan(&db, name, op, false)?;
        io_per_scan.push(db.io().stats().since(&before));
    }
    reset_peak_rss()?;
    let tracer = cfg.trace.then(trace::Tracer::start);
    // output check: every timed scan returns the expected row count
    let want = [expected, expected, expected, n].map(|w| cfg.maybe_corrupt(w));
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    // the client runs on its own thread while this one switches tracing
    let out = std::thread::scope(|s| {
        let h = s.spawn(|| client(&db, &want, deadline));
        if cfg.trace {
            trace::alternate_tracing(deadline, Duration::from_millis(200));
        }
        h.join().expect("scan client panicked")
    });
    trace::set_tracing(false);
    let elapsed = t0.elapsed().as_secs_f64();
    let peak_mb = peak_rss_mb();
    let ClientOut {
        lat,
        attempted,
        failed,
        wrong_counts,
    } = out;
    rep.attempted = attempted;
    rep.failed = failed;
    rep.check(
        "timed_scan_row_counts",
        wrong_counts == 0,
        format!(
            "{wrong_counts} of {attempted} timed scans returned a row count other than {expected} (merged) or {n} (clean)"
        ),
    );
    let plain = |i: usize| untraced(cfg, &lat[i]);
    let p50: Vec<f64> = (0..3).map(|i| median(&plain(i))).collect();
    let pdt = plain(0);
    // The gated scan latencies are p90s: on a shared 2-core host the
    // busy core runs faster in phases of seconds, so a run's scan times
    // form a fast and a slow mode in varying shares and its p50 swings
    // between them (IQR/median 0.23-0.31 over ten runs), while its p90
    // stays in the slow mode (0.04-0.12).
    let (pdt_p90, vdt_p90) = (quantile(&pdt, 0.9), quantile(&plain(1), 0.9));
    // p92: a 20 s run in the slow mode makes about 145 PDT scans
    let tail_v = tail(&mut rep, "scan_pdt", &pdt, 0.92);

    rep.e2e("op_ms", pdt_p90, "ms");
    rep.e2e("op_tail_ms", tail_v, "ms");
    rep.e2e("aux_ms", vdt_p90, "ms");
    rep.info("scans_per_s", rep.attempted as f64 / elapsed, "1/s");
    rep.info("scan_pdt_p50_ms", p50[0], "ms");
    rep.info("scan_pdt_p90_ms", pdt_p90, "ms");
    rep.info("scan_pdt_p92_ms", tail_v, "ms");
    rep.info("scan_vdt_p50_ms", p50[1], "ms");
    rep.info("scan_vdt_p90_ms", vdt_p90, "ms");
    rep.info("scan_rowstore_p50_ms", p50[2], "ms");
    rep.info("scans_per_policy", pdt.len() as f64, "count");
    rep.info("updates_applied", updates as f64, "count");

    // paper claims, printed with their bases
    let clean_p50 = median(&plain(3));
    rep.info("scan_clean_p50_ms", clean_p50, "ms");
    let claim = |what: &str, r: f64, base: String, holds: bool| {
        format!(
            "{what} = {r:.2} ({base}); paper: >= ~3x -> {}",
            if holds {
                "reproduced"
            } else {
                "not reproduced"
            }
        )
    };
    rep.claims.push(claim(
        "scan VDT/PDT",
        ratio(p50[1], p50[0]),
        format!(
            "{:.3} ms / {:.3} ms p50 full scans, {updates} updates on {n} rows",
            p50[1], p50[0]
        ),
        ratio(p50[1], p50[0]) >= 3.0,
    ));
    rep.claims.push(claim(
        "scan RowStore/PDT",
        ratio(p50[2], p50[0]),
        format!("{:.3} ms / {:.3} ms", p50[2], p50[0]),
        ratio(p50[2], p50[0]) >= 3.0,
    ));
    rep.claims.push(format!(
        "scan PDT/clean = {:.3} ({:.3} ms / {:.3} ms p50 of interleaved clean scans); paper: PDT merge-scan costs about as much as a clean scan",
        ratio(p50[0], clean_p50),
        p50[0],
        clean_p50
    ));
    let delta_bytes: Vec<f64> = TABLES
        .iter()
        .map(|(name, ..)| db.delta_bytes(name).map(|b| b as f64))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    rep.claims.push(format!(
        "delta bytes per update PDT = {:.1}, VDT = {:.1}, RowStore = {:.1} (VDT/PDT = {:.2}, base {updates} updates); paper: PDT is the smaller",
        delta_bytes[0] / updates as f64,
        delta_bytes[1] / updates as f64,
        delta_bytes[2] / updates as f64,
        ratio(delta_bytes[1], delta_bytes[0])
    ));

    if let Some(tracer) = tracer {
        let (_events, dropped) = tracer.finish();
        let recorded = spans::take();
        for (i, (_, _, tag, _)) in TABLES.iter().enumerate() {
            rep.layer(
                &format!("columnar.io.blocks_read_per_scan.{tag}"),
                io_per_scan[i].blocks_read as f64,
                "count",
            );
            rep.layer(
                &format!("columnar.io.bytes_read_per_scan.{tag}"),
                io_per_scan[i].bytes_read as f64,
                "B",
            );
            rep.layer(
                &format!("engine.delta_bytes_per_update.{tag}"),
                delta_bytes[i] / updates as f64,
                "B",
            );
            rep.layer(
                &format!("exec.merge_overhead_ns_per_row.{tag}"),
                (p50[i] - clean_p50) * 1e6 / expected as f64,
                "ns",
            );
        }
        rep.layer(
            "exec.clean_scan_ns_per_row",
            clean_p50 * 1e6 / n as f64,
            "ns",
        );
        layer_microbench(&db, cfg, n, &mut rep)?;
        for root in ["scan.vdt", "scan.rowstore"] {
            rep.notes.push(spans::breakdown(&recorded, root).0);
        }
        trace::finish_trace(
            &mut rep,
            cfg,
            &recorded,
            &lat[0],
            dropped,
            "scan.pdt",
            "scan_updated",
        )?;
    }

    rep.e2e("setup_s", median(&setup_times), "s");
    rep.e2e("peak_rss_mb", peak_mb, "MB");
    rep.info("setup_reps", setup_times.len() as f64, "count");
    Ok(rep)
}

/// Decode and merge timed separately, block by block, over the PDT
/// table's stable image and standalone update structures carrying the
/// same 1-per-100 update rate (`bench::apply_micro_updates`): the
/// engine keeps its own structures private.
fn layer_microbench(db: &Database, cfg: &Cfg, n: u64, rep: &mut Report) -> Result<(), String> {
    let stable = db.stable_single("t_pdt").map_err(|e| e.to_string())?;
    let rows = base_rows(n);
    let (pdt_d, vdt_d, rs_d) =
        bench::apply_micro_updates(&rows, 1, NDATA, KeyKind::Int, n / 100, cfg.seed);
    drop(rows);
    let io = IoTracker::new();
    let proj = DATA_COLS.to_vec();
    let decode = |c: usize, b: usize| -> Result<ColumnVec, String> {
        stable.read_block(c, b, &io).map_err(|e| e.to_string())
    };
    let fresh =
        || -> Vec<ColumnVec> { (0..NDATA).map(|_| ColumnVec::new(ValueType::Int)).collect() };
    let mut decode_ns = Vec::new();
    let mut merge_ns: [Vec<f64>; 3] = Default::default();
    for _pass in 0..3 {
        let (mut dec, mut m) = (Duration::ZERO, [Duration::ZERO; 3]);
        let mut pm = pdt::PdtMerger::new(&pdt_d, 0);
        let mut vm = vdt::VdtMerger::new(&vdt_d);
        let mut rm = rowstore::RowMerger::new(&rs_d);
        for b in 0..stable.num_blocks() {
            let (start, end) = stable.block_range(b);
            let len = (end - start) as usize;
            let t = Instant::now();
            let cols: Vec<ColumnVec> = proj
                .iter()
                .map(|&c| decode(c, b))
                .collect::<Result<_, _>>()?;
            dec += t.elapsed();
            let sk = vec![decode(0, b)?];
            let mut out = fresh();
            let t = Instant::now();
            pm.merge_block(start, len, &proj, &cols, &mut out);
            m[0] += t.elapsed();
            std::hint::black_box(&out);
            let mut out = fresh();
            let t = Instant::now();
            vm.merge_block(len, &proj, &sk, &cols, &mut out);
            m[1] += t.elapsed();
            std::hint::black_box(&out);
            let mut out = fresh();
            let t = Instant::now();
            rm.merge_block(len, &proj, &sk, &cols, &mut out);
            m[2] += t.elapsed();
            std::hint::black_box(&out);
        }
        decode_ns.push(dec.as_nanos() as f64 / n as f64);
        for i in 0..3 {
            merge_ns[i].push(m[i].as_nanos() as f64 / n as f64);
        }
    }
    rep.layer("columnar.decode_ns_per_row", median(&decode_ns), "ns");
    for (i, (_, _, tag, _)) in TABLES.iter().enumerate() {
        rep.layer(
            &format!("{tag}.merge_ns_per_row"),
            median(&merge_ns[i]),
            "ns",
        );
    }
    Ok(())
}
