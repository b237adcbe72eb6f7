//! Tiny-scale self-check of the benchmark itself: every workload runs at
//! toy size, traced and untraced, and must pass its output checks and
//! emit exactly the metrics `BENCHMARK.json` names, each with its unit;
//! then every workload runs once more with every expected digest and
//! count corrupted, and each of its output checks must fail.
//!
//! Run from the repository root: `perfbench --selfcheck`.

use crate::{run_workload, Cfg, WORKLOADS};
use std::path::{Path, PathBuf};

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let field = |obj: &str, f: &str| -> Option<String> {
        let at = obj.find(&format!("\"{f}\""))?;
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"')?;
        let close = rest[open + 1..].find('"')?;
        Some(rest[open + 1..open + 1 + close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

fn toy(workload: &str, trace: bool, corrupt: bool) -> Cfg {
    Cfg {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1.0,
        trace,
        toy: true,
        corrupt,
        tmp: PathBuf::from(".bench_tmp").join(format!(
            "selfcheck-{workload}-{}-{}",
            u8::from(trace),
            std::process::id()
        )),
    }
}

/// Run the self-check with `BENCHMARK.json` at `manifest`; returns the
/// number of failures.
pub fn check(manifest: &Path) -> usize {
    let mut failures = 0;
    let mut verdict = |ok: bool, what: String| {
        println!("selfcheck {} {what}", if ok { "PASS" } else { "FAIL" });
        failures += usize::from(!ok);
    };
    let json = match std::fs::read_to_string(manifest) {
        Ok(j) => j,
        Err(e) => {
            verdict(false, format!("read {manifest:?}: {e}"));
            return failures;
        }
    };
    let lists = [
        (false, declared(&json, "end_to_end")),
        (true, declared(&json, "per_layer")),
    ];
    for (trace, want) in &lists {
        let ours: Vec<(String, String)> = if *trace {
            crate::LAYERS.iter()
        } else {
            crate::E2E.iter()
        }
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
        verdict(
            !want.is_empty() && *want == ours,
            format!(
                "BENCHMARK.json lists the {} metrics the code emits",
                if *trace { "per-layer" } else { "end-to-end" }
            ),
        );
    }
    for w in WORKLOADS {
        for (trace, want) in &lists {
            match run_workload(&toy(w, *trace, false)) {
                Ok(rep) => {
                    let failed: Vec<&str> = rep
                        .checks
                        .iter()
                        .chain(&rep.guards)
                        .filter(|c| !c.ok)
                        .map(|c| c.name.as_str())
                        .collect();
                    verdict(
                        rep.correct(),
                        format!(
                            "{w} trace={} checks and guards pass {failed:?}",
                            u8::from(*trace)
                        ),
                    );
                    let got: Vec<(String, String)> = if *trace { &rep.layer } else { &rep.e2e }
                        .iter()
                        .map(|m| (m.name.clone(), m.unit.to_string()))
                        .collect();
                    verdict(
                        got == *want,
                        format!(
                            "{w} trace={} emits every declared metric with its unit",
                            u8::from(*trace)
                        ),
                    );
                    verdict(
                        rep.json(*trace).starts_with("{\"correct\": true"),
                        format!("{w} trace={} result line", u8::from(*trace)),
                    );
                }
                Err(e) => verdict(false, format!("{w} trace={}: {e}", u8::from(*trace))),
            }
        }
        match run_workload(&toy(w, false, true)) {
            Ok(rep) => {
                let passed: Vec<&str> = rep
                    .checks
                    .iter()
                    .filter(|c| c.ok)
                    .map(|c| c.name.as_str())
                    .collect();
                verdict(
                    !rep.checks.is_empty() && passed.is_empty() && !rep.correct(),
                    format!("{w} every output check fails on corrupted expectations {passed:?}"),
                );
            }
            Err(e) => verdict(false, format!("{w} corrupted run: {e}")),
        }
    }
    failures
}

/// The `--selfcheck` entry point: exit code 0 when everything passed.
pub fn run() -> i32 {
    let failures = check(Path::new("BENCHMARK.json"));
    println!("selfcheck: {failures} failures");
    i32::from(failures > 0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn benchmark_self_check_passes() {
        // the test runs from the package directory
        assert_eq!(super::check(std::path::Path::new("../BENCHMARK.json")), 0);
    }
}
