//! One benchmark for the column store: merge-scans under updates, durable
//! trickle writes, and the HTAP mix, each broken down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_updated --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selfcheck
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. Failed output checks or validity guards
//! print `"correct": false` and exit with code 1. See `perfbench/README.md`
//! for what each workload and metric means.

mod htap;
mod report;
mod scan;
mod selfcheck;
mod spans;
mod trace;
mod trickle;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// The durability policy in effect: the WAL is written and flushed to
/// the OS once per group-commit window, never fsync'd.
pub const DURABILITY: &str = "wal-flush-per-group-commit-window-no-fsync";

pub const WORKLOADS: [&str; 3] = ["scan_updated", "trickle_durable", "htap_mixed"];

/// End-to-end metrics (`--trace 0`), emitted by every workload. What the
/// operation is differs per workload; see `perfbench/README.md`.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("aux_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), emitted by every workload; a layer a
/// workload does not drive reads 0.
pub const LAYERS: [(&str, &str); 50] = [
    ("columnar.decode_ns_per_row", "ns"),
    ("columnar.io.blocks_read_per_scan.pdt", "count"),
    ("columnar.io.blocks_read_per_scan.vdt", "count"),
    ("columnar.io.blocks_read_per_scan.rowstore", "count"),
    ("columnar.io.bytes_read_per_scan.pdt", "B"),
    ("columnar.io.bytes_read_per_scan.vdt", "B"),
    ("columnar.io.bytes_read_per_scan.rowstore", "B"),
    ("columnar.image.bytes_per_txn", "B"),
    ("pdt.merge_ns_per_row", "ns"),
    ("vdt.merge_ns_per_row", "ns"),
    ("rowstore.merge_ns_per_row", "ns"),
    ("engine.delta_bytes_per_update.pdt", "B"),
    ("engine.delta_bytes_per_update.vdt", "B"),
    ("engine.delta_bytes_per_update.rowstore", "B"),
    ("exec.clean_scan_ns_per_row", "ns"),
    ("exec.merge_overhead_ns_per_row.pdt", "ns"),
    ("exec.merge_overhead_ns_per_row.vdt", "ns"),
    ("exec.merge_overhead_ns_per_row.rowstore", "ns"),
    ("exec.io.bytes_read_per_query", "B"),
    ("engine.dml.append_ms", "ms"),
    ("engine.dml.update_col_ms", "ms"),
    ("engine.dml.blocks_read_per_txn", "count"),
    ("engine.dml.rows_written_per_block_read", "ratio"),
    ("engine.commit_us.p50", "us"),
    ("engine.commit_us.p99", "us"),
    ("txn.wal.flush_window_us", "us"),
    ("txn.wal.durable_wait_us", "us"),
    ("txn.wal.records_per_append", "ratio"),
    ("txn.wal.bytes_per_txn", "B"),
    ("txn.wal.read_all_ms", "ms"),
    ("engine.compaction.merge_ms", "ms"),
    ("engine.compaction.install_us", "us"),
    ("engine.compaction.blocks_reused_ratio", "ratio"),
    ("engine.maintenance.w_amp", "ratio"),
    ("engine.checkpoint.merge_ms", "ms"),
    ("engine.checkpoint.install_us", "us"),
    ("engine.maintenance.errors", "count"),
    ("engine.recovery.images_adopted", "count"),
    ("engine.recovery.wal_entries_replayed", "count"),
    ("engine.write_bytes_per_user_byte", "ratio"),
    ("tpch.q01_ms", "ms"),
    ("tpch.q06_ms", "ms"),
    ("tpch.q12_ms", "ms"),
    ("tpch.rf1_stage_ms", "ms"),
    ("tpch.rf2_stage_ms", "ms"),
    ("server.admission.delay_ms", "ms"),
    ("server.admission.rejects", "count"),
    ("obs.trace.dropped", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.blocking_path_remainder_pct", "%"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes (the self-check); full sizes otherwise.
    pub toy: bool,
    /// Corrupt the expected value every output check compares (self-check
    /// only), so that each check must fail.
    pub corrupt: bool,
    /// Scratch directory for WALs and images, inside the checkout.
    pub tmp: PathBuf,
}

impl Cfg {
    /// Times the set-up is repeated (its median is `setup_s`).
    fn setup_reps(&self) -> usize {
        if self.toy {
            1
        } else {
            5
        }
    }

    /// Perturb a digest or an expected count when the self-check asks for
    /// corrupted ones.
    pub fn maybe_corrupt(&self, d: u64) -> u64 {
        if self.corrupt {
            d ^ 1
        } else {
            d
        }
    }
}

/// Run the workload's set-up [`Cfg::setup_reps`] times, each one after
/// the previous is passed to `discard`. Returns the last set-up and the
/// duration of each in seconds.
pub fn timed_setups<T>(
    cfg: &Cfg,
    make: impl Fn(usize) -> Result<T, String>,
    discard: impl Fn(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for r in 0..cfg.setup_reps() {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t0 = Instant::now();
        last = Some(make(r)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selfcheck",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Cfg> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selfcheck") {
        return None;
    }
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
        corrupt: false,
        tmp: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => cfg.workload = val(),
            "--seed" => cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = val() == "1",
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) || cfg.seconds <= 0.0 {
        usage();
    }
    Some(cfg)
}

/// The environment header printed with every result.
fn env_header(cfg: &Cfg) {
    // never look for a repository above the working directory
    let cwd = std::env::current_dir().unwrap_or_default();
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "env git_sha={sha} nproc={nproc} profile={profile} workload={} seed={} seconds={} trace={} durability={DURABILITY}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
    );
}

/// Run one workload to its report (set-up, timed phase, checks).
pub fn run_workload(cfg: &Cfg) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.tmp).map_err(|e| format!("create {:?}: {e}", cfg.tmp))?;
    let out = match cfg.workload.as_str() {
        "scan_updated" => scan::run(cfg),
        "trickle_durable" => trickle::run(cfg),
        "htap_mixed" => htap::run(cfg),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    // the shared parent goes too once no other run uses it
    if let Some(parent) = cfg.tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut report = out?;
    report.canonicalize();
    Ok(report)
}

fn main() {
    let Some(mut cfg) = parse_args() else {
        std::process::exit(selfcheck::run());
    };
    cfg.tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", cfg.workload, std::process::id()));
    env_header(&cfg);
    match run_workload(&cfg) {
        Ok(report) => {
            report.print(cfg.trace);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
