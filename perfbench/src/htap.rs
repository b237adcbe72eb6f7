//! `htap_mixed`: writes beside reads through `server::Server`, in the
//! shape of the `bench::mixed` runner but bounded by time. TPC-H
//! (`lineitem` and `orders` in 4 range partitions, PDT, WAL on) serves
//! one query session cycling Q1/Q6/Q12 and one refresh session that
//! commits RF1+RF2 chunks back to back, while maintenance checkpoints
//! whole partitions underneath and admission control is on.

use crate::report::{median, ms, peak_rss_mb, ratio, reset_peak_rss, tail, Report};
use crate::trace::{self, finish_trace, kind_us, maintenance_layers, untraced, wal_layers, Sample};
use crate::{spans, timed_setups, Cfg};
use columnar::{Tuple, Value};
use engine::{Database, MaintenanceConfig, PartitionSpec, TableOptions, UpdatePolicy};
use obs::TraceKind;
use server::{AdmissionConfig, Server, ServerConfig, ServerError, Session};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpch::queries::run_query;
use tpch::{stage_rf1_chunk, stage_rf2_chunk, RefreshStreams};

const QUERIES: [(usize, &str); 3] = [(1, "tpch.q01"), (6, "tpch.q06"), (12, "tpch.q12")];
/// Orders per RF1 chunk and keys per RF2 chunk of one refresh transaction.
const CHUNK: usize = 4;
/// Partitions of `lineitem` and `orders`.
const PARTS: usize = 4;

struct Sizing {
    sf: f64,
    /// Scale of the refresh streams relative to the spec's 0.1 %.
    fraction: f64,
    /// Per-partition checkpoint budget, lowered from the 64 MiB default
    /// so whole-partition checkpoints run within the timed window.
    checkpoint_bytes: usize,
}

fn sizing(cfg: &Cfg) -> Sizing {
    if cfg.toy {
        Sizing {
            sf: 0.005,
            fraction: 100.0,
            checkpoint_bytes: 16 << 10,
        }
    } else {
        // sized so the refresh stream outlasts the query window
        Sizing {
            sf: 0.05,
            fraction: 4.0 * cfg.seconds.max(1.0),
            checkpoint_bytes: 256 << 10,
        }
    }
}

struct Setup {
    server: Server,
    db: Arc<Database>,
    wal: PathBuf,
    streams: Arc<RefreshStreams>,
    base_orders: u64,
    base_lines: u64,
    /// Lineitems per base order key (what an RF2 delete removes).
    lines_of: Arc<HashMap<i64, u64>>,
}

fn setup(cfg: &Cfg, s: &Sizing, rep: usize) -> Result<Setup, String> {
    let dir = cfg.tmp.join(format!("setup{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let wal = dir.join("wal.log");
    let data = tpch::gen::generate_seeded(s.sf, cfg.seed);
    let streams = Arc::new(RefreshStreams::build(&data, s.fraction));
    let mut lines_of: HashMap<i64, u64> = HashMap::new();
    for l in &data.lineitem {
        *lines_of.entry(l[0].as_int()).or_default() += 1;
    }
    let (base_orders, base_lines) = (data.orders.len() as u64, data.lineitem.len() as u64);
    let db = Database::with_wal(&wal).map_err(|e| e.to_string())?;
    let opts = TableOptions::default()
        .with_policy(UpdatePolicy::Pdt)
        .with_checkpoint_threshold(s.checkpoint_bytes);
    // the generated rows move into the tables: no copy outlives set-up
    let tpch::gen::TpchData {
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
        ..
    } = data;
    for (name, rows) in [
        ("region", region),
        ("nation", nation),
        ("supplier", supplier),
        ("customer", customer),
        ("part", part),
        ("partsupp", partsupp),
        ("orders", orders),
        ("lineitem", lineitem),
    ] {
        let o = if matches!(name, "lineitem" | "orders") {
            opts.clone().with_partitions(PartitionSpec::Count(PARTS))
        } else {
            opts.clone()
        };
        db.create_table(tpch::table_meta(name), o, rows)
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    let db = Arc::new(db);
    let server = Server::start(
        db.clone(),
        ServerConfig {
            max_sessions: 2,
            maintenance: Some(MaintenanceConfig::default()),
            admission: AdmissionConfig::default(),
            ..ServerConfig::default()
        },
    );
    Ok(Setup {
        server,
        db,
        wal,
        streams,
        base_orders,
        base_lines,
        lines_of: Arc::new(lines_of),
    })
}

/// Value bytes of a row as a user would count them.
fn value_bytes(row: &Tuple) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            Value::Date(_) => 4,
            Value::Bool(_) | Value::Null => 1,
            _ => 8,
        })
        .sum()
}

#[derive(Default)]
struct RefreshOut {
    /// `(ms begin→ack, traced)` per committed refresh transaction.
    lat: Vec<Sample>,
    attempted: u64,
    failed: u64,
    backpressure: u64,
    orders_in: u64,
    lines_in: u64,
    orders_out: u64,
    lines_out: u64,
    user_bytes: u64,
    /// Active window `[first begin, last ack]`, in seconds from the start.
    window: (f64, f64),
    exhausted: bool,
}

fn refresh(
    session: &Session,
    streams: &RefreshStreams,
    lines_of: &HashMap<i64, u64>,
    start: Instant,
    deadline: Instant,
) -> RefreshOut {
    let mut out = RefreshOut::default();
    let ins: Vec<_> = streams.inserts.chunks(CHUNK).collect();
    let dels: Vec<_> = streams.delete_keys.chunks(CHUNK).collect();
    let mut i = 0;
    out.window.0 = start.elapsed().as_secs_f64();
    while Instant::now() < deadline {
        if i >= ins.len() || i >= dels.len() {
            out.exhausted = true;
            break;
        }
        out.attempted += 1;
        let win = spans::window();
        let t0 = Instant::now();
        let result = (|| -> Result<(), ServerError> {
            let _op = spans::op("rf.txn");
            let mut txn = {
                let _s = spans::span("server.begin");
                session.begin()
            };
            {
                let _s = spans::span("server.admission");
                txn.touch("orders")?;
                txn.touch("lineitem")?;
            }
            {
                let _s = spans::span("tpch.rf1_stage");
                stage_rf1_chunk(txn.raw(), ins[i])?;
            }
            {
                let _s = spans::span("tpch.rf2_stage");
                stage_rf2_chunk(txn.raw(), dels[i])?;
            }
            let _s = spans::span("server.commit");
            txn.commit().map(|_| ())
        })();
        match result {
            Ok(()) => {
                out.lat.push((ms(t0.elapsed()), win.traced()));
                out.window.1 = start.elapsed().as_secs_f64();
                for (order, lines) in ins[i] {
                    out.orders_in += 1;
                    out.lines_in += lines.len() as u64;
                    out.user_bytes +=
                        value_bytes(order) + lines.iter().map(value_bytes).sum::<u64>();
                }
                for k in dels[i] {
                    out.orders_out += 1;
                    out.lines_out += lines_of.get(k).copied().unwrap_or(0);
                    out.user_bytes += 8;
                }
                i += 1;
            }
            // refused: retry the same chunk once maintenance catches up
            Err(ServerError::Backpressure { .. }) => {
                out.failed += 1;
                out.backpressure += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            // anything else: the chunk is not applied and is skipped
            Err(_) => {
                out.failed += 1;
                i += 1;
            }
        }
    }
    out
}

#[derive(Default)]
struct QueryOut {
    /// `(ms per Q1+Q6+Q12 cycle, traced)`.
    cycles: Vec<Sample>,
    attempted: u64,
    failed: u64,
    window: (f64, f64),
}

fn query_cycles(session: &Session, sf: f64, start: Instant, deadline: Instant) -> QueryOut {
    let mut out = QueryOut::default();
    out.window.0 = start.elapsed().as_secs_f64();
    while Instant::now() < deadline {
        let win = spans::window();
        let t0 = Instant::now();
        let _op = spans::op("query.cycle");
        for (n, label) in QUERIES {
            out.attempted += 1;
            let _s = spans::span(label);
            let rows = session.query(label, |view| run_query(n, view, sf));
            if rows.is_empty() {
                out.failed += 1;
            }
        }
        drop(_op);
        out.cycles.push((ms(t0.elapsed()), win.traced()));
        out.window.1 = start.elapsed().as_secs_f64();
    }
    out
}

pub fn run(cfg: &Cfg) -> Result<Report, String> {
    let sizing = sizing(cfg);
    let mut rep = Report::default();
    let (st, setup_times) = timed_setups(
        cfg,
        |r| setup(cfg, &sizing, r),
        |old: Setup| {
            old.server.shutdown();
        },
    )?;
    let wal_len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let wal_before = wal_len(&st.wal);
    let stats_before = st.db.wal_stats().unwrap_or_default();
    let maint_before = st.server.maintenance_stats().unwrap_or_default();
    reset_peak_rss()?;

    let tracer = cfg.trace.then(trace::Tracer::start);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let (streams, lines_of) = (st.streams.clone(), st.lines_of.clone());
    let rf = st
        .server
        .spawn("refresh", move |s| {
            refresh(s, &streams, &lines_of, start, deadline)
        })
        .map_err(|e| e.to_string())?;
    let sf = sizing.sf;
    let q = st
        .server
        .spawn("query", move |s| query_cycles(s, sf, start, deadline))
        .map_err(|e| e.to_string())?;
    if cfg.trace {
        trace::alternate_tracing(deadline, Duration::from_millis(1000));
    }
    let rf = rf.join().map_err(|e| e.to_string())?;
    let q = q.join().map_err(|e| e.to_string())?;
    trace::set_tracing(false);
    let elapsed = start.elapsed().as_secs_f64();
    let peak_mb = peak_rss_mb();
    let wal_growth = wal_len(&st.wal) - wal_before;
    let wal_stats = st.db.wal_stats().unwrap_or_default();
    let maint = st.server.maintenance_stats().unwrap_or_default();
    let checkpoints = maint.checkpoints - maint_before.checkpoints;

    // one query cycle alone, for bytes read per query
    let mut bytes_per_query = 0.0;
    if cfg.trace {
        st.server.drain_maintenance().map_err(|e| e.to_string())?;
        let s = st.server.session("probe");
        let before = st.db.io().stats();
        for (n, label) in QUERIES {
            s.query(label, |view| run_query(n, view, sf));
        }
        bytes_per_query =
            st.db.io().stats().since(&before).bytes_read as f64 / QUERIES.len() as f64;
    }

    st.server.drain_maintenance().map_err(|e| e.to_string())?;
    let orders = st.db.row_count("orders").map_err(|e| e.to_string())?;
    let lines = st.db.row_count("lineitem").map_err(|e| e.to_string())?;
    let want_orders = cfg.maybe_corrupt(st.base_orders + rf.orders_in - rf.orders_out);
    let want_lines = cfg.maybe_corrupt(st.base_lines + rf.lines_in - rf.lines_out);
    rep.check(
        "orders_count",
        orders == want_orders,
        format!(
            "{orders} rows, expected {} base + {} RF1 - {} RF2 = {want_orders}",
            st.base_orders, rf.orders_in, rf.orders_out
        ),
    );
    rep.check(
        "lineitem_count",
        lines == want_lines,
        format!(
            "{lines} rows, expected {} base + {} RF1 - {} RF2 = {want_lines}",
            st.base_lines, rf.lines_in, rf.lines_out
        ),
    );
    let metrics = st.server.shutdown();
    drop(metrics);

    rep.guard(
        "checkpoint_ran",
        checkpoints >= 1,
        format!("{checkpoints} whole-partition checkpoints in {elapsed:.1} s"),
    );
    let q_window = (q.window.1 - q.window.0).max(1e-9);
    let overlap =
        ((rf.window.1.min(q.window.1) - rf.window.0.max(q.window.0)) / q_window).clamp(0.0, 1.0);
    rep.guard(
        "refresh_overlaps_queries",
        overlap >= 0.9 && !rf.exhausted,
        format!(
            "refresh active {:.2}-{:.2} s, queries {:.2}-{:.2} s: overlap {overlap:.3} of the query window{}",
            rf.window.0,
            rf.window.1,
            q.window.0,
            q.window.1,
            if rf.exhausted { " (refresh stream ran out)" } else { "" }
        ),
    );

    rep.attempted = rf.attempted + q.attempted;
    rep.failed = rf.failed + q.failed;
    let txn = untraced(cfg, &rf.lat);
    let cycles = untraced(cfg, &q.cycles);
    let tail_v = tail(&mut rep, "refresh txn", &txn, 0.9);
    let txns_per_s = rf.lat.len() as f64 / elapsed;
    rep.e2e("op_ms", median(&txn), "ms");
    rep.e2e("op_tail_ms", tail_v, "ms");
    rep.e2e("aux_ms", median(&cycles), "ms");
    rep.info("txn_p50_ms", median(&txn), "ms");
    rep.info("txn_p90_ms", tail_v, "ms");
    rep.info("txn_samples", txn.len() as f64, "count");
    rep.info("txns_per_s", txns_per_s, "1/s");
    rep.info("query_cycle_p50_ms", median(&cycles), "ms");
    rep.info("query_cycles", cycles.len() as f64, "count");
    let w = ratio(wal_growth as f64, rf.user_bytes as f64);
    rep.info("write_bytes_per_user_byte", w, "ratio");
    rep.info("checkpoints", checkpoints as f64, "count");
    rep.info("refresh_overlap", overlap, "ratio");
    rep.info("backpressure_refusals", rf.backpressure as f64, "count");

    if let Some(tracer) = tracer {
        let (events, dropped) = tracer.finish();
        let recorded = spans::take();
        let p50_ms = |name: &str| median(&spans::durations_ms(&recorded, name));
        for (_, label) in QUERIES {
            rep.layer(&format!("{label}_ms"), p50_ms(label), "ms");
        }
        rep.layer("tpch.rf1_stage_ms", p50_ms("tpch.rf1_stage"), "ms");
        rep.layer("tpch.rf2_stage_ms", p50_ms("tpch.rf2_stage"), "ms");
        let commit_us: Vec<f64> = spans::durations_ms(&recorded, "server.commit")
            .iter()
            .map(|m| m * 1e3)
            .collect();
        rep.layer("engine.commit_us.p50", median(&commit_us), "us");
        rep.layer(
            "engine.commit_us.p99",
            crate::report::quantile(&commit_us, 0.99),
            "us",
        );
        let delays: f64 = kind_us(&events, TraceKind::AdmissionDelay).iter().sum();
        let traced_txns = rf.lat.iter().filter(|s| s.1 == Some(true)).count() as f64;
        rep.layer(
            "server.admission.delay_ms",
            ratio(delays / 1e3, traced_txns),
            "ms",
        );
        rep.layer("server.admission.rejects", rf.backpressure as f64, "count");
        rep.layer("exec.io.bytes_read_per_query", bytes_per_query, "B");
        wal_layers(
            &mut rep,
            &events,
            &stats_before,
            &wal_stats,
            wal_growth,
            rf.lat.len() as u64,
        );
        let mut m = maint.clone();
        m.checkpoints = checkpoints;
        maintenance_layers(&mut rep, &events, &m);
        rep.layer("engine.write_bytes_per_user_byte", w, "ratio");
        rep.notes.push(spans::breakdown(&recorded, "query.cycle").0);
        finish_trace(
            &mut rep,
            cfg,
            &recorded,
            &rf.lat,
            dropped,
            "rf.txn",
            "htap_mixed",
        )?;
    }

    rep.e2e("setup_s", median(&setup_times), "s");
    rep.e2e("peak_rss_mb", peak_mb, "MB");
    Ok(rep)
}
