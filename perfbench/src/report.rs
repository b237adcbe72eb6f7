//! Result assembly: named metrics with units, output checks, validity
//! guards, paper-claim lines, the environment header and the final JSON
//! line.

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A pass/fail line: an output check (fails the command) or a workload
/// validity guard (printed with its base, fails the command too).
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (the `--trace 0` JSON).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (the `--trace 1` JSON).
    pub layer: Vec<Metric>,
    /// The workload's own named metrics, printed only.
    pub info: Vec<Metric>,
    pub checks: Vec<Check>,
    pub guards: Vec<Check>,
    /// Printed, never gated.
    pub claims: Vec<String>,
    /// Printed span breakdowns (traced runs).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(metric(name, value, unit));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(metric(name, value, unit));
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn guard(&mut self, name: &str, ok: bool, detail: String) {
        self.guards.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Every output check and validity guard passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().chain(&self.guards).all(|c| c.ok)
    }

    /// Print the human-readable lines, then the JSON result line last.
    pub fn print(&self, trace: bool) {
        let layers: &[Metric] = if trace { &self.layer } else { &[] };
        for (label, list) in [
            ("end_to_end", &self.e2e[..]),
            ("per_layer", layers),
            ("workload", &self.info[..]),
        ] {
            for m in list {
                println!("{label} {} = {} {}", m.name, fmt_num(m.value), m.unit);
            }
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {} ({} failed or refused / {} attempted)",
            fmt_num(rate),
            self.failed,
            self.attempted
        );
        for c in &self.checks {
            println!("check {} {}: {}", c.name, pass(c.ok), c.detail);
        }
        for g in &self.guards {
            println!("guard {} {}: {}", g.name, pass(g.ok), g.detail);
        }
        for c in &self.claims {
            println!("claim {c}");
        }
        for n in &self.notes {
            println!("{n}");
        }
        println!("{}", self.json(trace));
    }

    /// The result object: `--trace 0` carries the end-to-end metrics,
    /// `--trace 1` the per-layer ones.
    pub fn json(&self, trace: bool) -> String {
        let list = if trace { &self.layer } else { &self.e2e };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in list.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A finite number in full precision (non-finite values print as 0 so
/// the JSON stays valid; callers guard their denominators).
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of `xs` (sorted internally); 0 for an
/// empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile as a tail latency, with a printed line giving how
/// many samples lie beyond it (the tail is meant to have at least ten).
pub fn tail(rep: &mut Report, what: &str, xs: &[f64], q: f64) -> f64 {
    let beyond = (xs.len() as f64 * (1.0 - q)).floor();
    rep.notes.push(format!(
        "tail {what} = p{:.0} of {} samples, {beyond} beyond it{}",
        q * 100.0,
        xs.len(),
        if beyond < 10.0 {
            " (fewer than 10: run longer)"
        } else {
            ""
        }
    ));
    quantile(xs, q)
}

/// Return freed heap memory to the OS, then reset this process's peak
/// resident set size to its current one, so that [`peak_rss_mb`] covers
/// only what runs after the call: the program's memory in the timed
/// phase, not the set-up's freed input vectors.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers; it only releases
        // free pages of the allocator's own arenas.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a style running digest over 64-bit words, in scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, v: i64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Report {
    /// Order the JSON metrics as `crate::E2E` / `crate::LAYERS` list
    /// them, filling a layer this workload does not drive with 0.
    /// Panics when a workload reports a metric outside those lists.
    pub fn canonicalize(&mut self) {
        let pick = |have: &[Metric], list: &[(&str, &'static str)], fill: bool| -> Vec<Metric> {
            for m in have {
                assert!(
                    list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                    "metric {} ({}) is not declared",
                    m.name,
                    m.unit
                );
            }
            list.iter()
                .filter_map(|(n, u)| match have.iter().find(|m| m.name == *n) {
                    Some(m) => Some(m.clone()),
                    None => fill.then(|| metric(n, 0.0, u)),
                })
                .collect()
        };
        self.e2e = pick(&self.e2e, &crate::E2E, false);
        self.layer = pick(&self.layer, &crate::LAYERS, true);
    }
}
