//! The traced run: `obs` records drained into memory, tracing switched
//! on and off in slices, and the per-layer metrics every workload shares.

use crate::report::{median, ratio, Report};
use crate::{spans, Cfg};
use obs::{MemorySink, TraceDrain, TraceEvent, TraceKind};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traced run's collector: `obs` records drained into a
/// [`MemorySink`] by a background thread. Tracing itself is switched
/// with [`set_tracing`].
pub struct Tracer {
    sink: Arc<MemorySink>,
    drain: TraceDrain,
    dropped_before: u64,
}

impl Tracer {
    pub fn start() -> Tracer {
        let sink = Arc::new(MemorySink::new());
        let drain = TraceDrain::start(sink.clone(), Duration::from_millis(10));
        Tracer {
            sink,
            drain,
            dropped_before: obs::trace::dropped(),
        }
    }

    /// Switch tracing off, drain what is left, and return the decoded
    /// events plus the records dropped while this tracer ran.
    pub fn finish(self) -> (Vec<TraceEvent>, u64) {
        set_tracing(false);
        self.drain.stop();
        (
            self.sink.events(),
            obs::trace::dropped() - self.dropped_before,
        )
    }
}

pub use crate::spans::set_tracing;

/// On the calling thread, switch tracing on and off in alternating
/// slices until `deadline`, so one traced run also times untraced
/// operations (the tracing overhead). Ends with tracing off.
pub fn alternate_tracing(deadline: Instant, slice: Duration) {
    let mut on = false;
    while Instant::now() < deadline {
        on = !on;
        set_tracing(on);
        let left = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(slice.min(left));
    }
    set_tracing(false);
}

/// Durations in µs of the `obs` span records of `kind`.
pub fn kind_us(events: &[TraceEvent], kind: TraceKind) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.dur_ns as f64 / 1e3)
        .collect()
}

/// Install-phase time of each maintenance step in µs: from the end of
/// its merge span to its install event on the same thread and partition
/// (the engine records pin and install as point events, not spans).
pub fn install_us(events: &[TraceEvent], merge: TraceKind, install: TraceKind) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.kind == install)
        .filter_map(|i| {
            events
                .iter()
                .filter(|m| m.kind == merge && m.thread == i.thread && m.part == i.part)
                .map(|m| m.ts_ns + m.dur_ns)
                .filter(|&end| end <= i.ts_ns)
                .max()
                .map(|end| (i.ts_ns - end) as f64 / 1e3)
        })
        .collect()
}

/// One timed operation: milliseconds, and whether tracing was on
/// throughout (`Some(true)`), off throughout (`Some(false)`) or switched
/// meanwhile (`None`).
pub type Sample = (f64, Option<bool>);

/// The samples a traced run's metric may use: untraced ones in a traced
/// run, all of them otherwise.
pub fn untraced(cfg: &Cfg, xs: &[Sample]) -> Vec<f64> {
    xs.iter()
        .filter(|s| !cfg.trace || s.1 == Some(false))
        .map(|s| s.0)
        .collect()
}

/// Traced-minus-untraced median operation time, as a percentage of the
/// untraced median.
pub fn overhead_pct(samples: &[Sample]) -> f64 {
    let traced: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 == Some(true))
        .map(|s| s.0)
        .collect();
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 == Some(false))
        .map(|s| s.0)
        .collect();
    let p = median(&plain);
    ratio(median(&traced) - p, p) * 100.0
}

/// `txn` layer metrics from the `obs` write-path spans and `WalStats`.
pub fn wal_layers(
    rep: &mut Report,
    events: &[obs::TraceEvent],
    before: &engine::WalStats,
    after: &engine::WalStats,
    wal_growth: u64,
    committed: u64,
) {
    rep.layer(
        "txn.wal.flush_window_us",
        median(&kind_us(events, TraceKind::WalFlushWindow)),
        "us",
    );
    rep.layer(
        "txn.wal.durable_wait_us",
        median(&kind_us(events, TraceKind::WalDurable)),
        "us",
    );
    let records = (after.commits + after.checkpoints) - (before.commits + before.checkpoints);
    let appends = after.appends - before.appends;
    rep.notes.push(format!(
        "txn.wal.records_per_append = {records} records / {appends} appends"
    ));
    rep.layer(
        "txn.wal.records_per_append",
        ratio(records as f64, appends as f64),
        "ratio",
    );
    rep.layer(
        "txn.wal.bytes_per_txn",
        ratio(wal_growth as f64, committed as f64),
        "B",
    );
}

/// Maintenance metrics: counts from the scheduler, phase times from the
/// `obs` checkpoint/compaction spans.
pub fn maintenance_layers(
    rep: &mut Report,
    events: &[obs::TraceEvent],
    m: &engine::MaintenanceStats,
) {
    let p50_ms = |k| median(&kind_us(events, k)) / 1e3;
    rep.layer(
        "engine.compaction.merge_ms",
        p50_ms(TraceKind::CompactionMerge),
        "ms",
    );
    let install = |merge, install| median(&install_us(events, merge, install));
    rep.layer(
        "engine.compaction.install_us",
        install(TraceKind::CompactionMerge, TraceKind::CompactionInstall),
        "us",
    );
    let blocks = m.compaction_blocks_merged + m.compaction_blocks_reused;
    rep.layer(
        "engine.compaction.blocks_reused_ratio",
        ratio(m.compaction_blocks_reused as f64, blocks as f64),
        "ratio",
    );
    rep.layer(
        "engine.maintenance.w_amp",
        ratio(m.stable_bytes_written as f64, m.delta_bytes_retired as f64),
        "ratio",
    );
    rep.notes.push(format!(
        "engine.maintenance.w_amp = {} stable bytes written / {} delta bytes retired; reused {} of {blocks} blocks",
        m.stable_bytes_written, m.delta_bytes_retired, m.compaction_blocks_reused
    ));
    // counts over a fixed window have no better direction: printed only
    rep.notes.push(format!(
        "engine.compaction.steps = {}, engine.checkpoint.count = {}",
        m.compactions, m.checkpoints
    ));
    rep.layer(
        "engine.checkpoint.merge_ms",
        p50_ms(TraceKind::CheckpointMerge),
        "ms",
    );
    rep.layer(
        "engine.checkpoint.install_us",
        install(TraceKind::CheckpointMerge, TraceKind::CheckpointInstall),
        "us",
    );
    rep.layer("engine.maintenance.errors", m.errors as f64, "count");
}

/// Shared tail of a traced run: overhead, drops, the blocking-path
/// breakdown of `root` operations, and the span file.
pub fn finish_trace(
    rep: &mut Report,
    cfg: &Cfg,
    recorded: &[spans::Span],
    samples: &[Sample],
    dropped: u64,
    root: &str,
    workload: &str,
) -> Result<(), String> {
    rep.layer("obs.trace_overhead_pct", overhead_pct(samples), "%");
    rep.layer("obs.trace.dropped", dropped as f64, "count");
    rep.guard(
        "trace_dropped_zero",
        dropped == 0,
        format!("{dropped} obs records dropped"),
    );
    let (line, share) = spans::breakdown(recorded, root);
    rep.notes.push(line);
    rep.layer("trace.blocking_path_remainder_pct", share * 100.0, "%");
    rep.notes.push(format!(
        "trace.ops = {} traced operations, trace.spans = {} spans",
        samples.iter().filter(|s| s.1 == Some(true)).count(),
        recorded.len()
    ));
    let path = Path::new(".bench_out").join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
    spans::write_jsonl(recorded, &path).map_err(|e| format!("write {path:?}: {e}"))?;
    rep.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}
