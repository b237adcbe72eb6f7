//! The benchmark's own spans around each public layer call.
//!
//! A span records its name, start, end, parent and operation id. Spans
//! are recorded only while `obs` tracing is on (one flag switches both),
//! kept in memory, and written out when the run ends. A layer's self
//! time is its span minus its children.

use crate::report::ratio;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Operation id shared by a root span and its descendants.
    pub op: u64,
    pub name: &'static str,
    /// Nanoseconds on the `obs` trace clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Tracing was switched while the span was open, so its children
    /// may be missing.
    pub torn: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT: AtomicU64 = AtomicU64::new(1);
/// Bumped every time tracing is switched on or off.
static GEN: AtomicU64 = AtomicU64::new(0);

/// Switch `obs` tracing (and with it these spans) on or off.
pub fn set_tracing(on: bool) {
    GEN.fetch_add(1, Ordering::SeqCst);
    obs::trace::set_enabled(on);
}

/// Where one operation ran relative to the tracing switch: opened with
/// [`window`], read with [`Window::traced`] when the operation ends.
pub struct Window {
    on: bool,
    gen: u64,
}

pub fn window() -> Window {
    Window {
        gen: GEN.load(Ordering::SeqCst),
        on: on(),
    }
}

impl Window {
    /// `Some(true)` for an operation traced throughout, `Some(false)` for
    /// one untraced throughout, `None` when tracing switched meanwhile.
    pub fn traced(&self) -> Option<bool> {
        (GEN.load(Ordering::SeqCst) == self.gen).then_some(self.on)
    }
}

thread_local! {
    /// Open spans of this thread: `(id, op)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, u64, u64)>,
}

/// Whether spans are being recorded (the `obs` tracing flag).
pub fn on() -> bool {
    obs::trace::enabled()
}

/// Open a root span: a new operation.
pub fn op(name: &'static str) -> Guard {
    open(name, true)
}

/// Open a child of the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

fn open(name: &'static str, root: bool) -> Guard {
    if !on() {
        return Guard { open: None };
    }
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = STACK.with(|s| {
        let s = s.borrow();
        match (root, s.last()) {
            (false, Some(&(pid, pop))) => (pid, pop),
            _ => (0, id),
        }
    });
    STACK.with(|s| s.borrow_mut().push((id, op)));
    Guard {
        open: Some((
            id,
            parent,
            op,
            name,
            obs::trace::now_ns(),
            GEN.load(Ordering::SeqCst),
        )),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, op, name, start_ns, gen)) = self.open.take() {
            let end_ns = obs::trace::now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&(i, _)| i == id) {
                    s.truncate(pos);
                }
            });
            let span = Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
                torn: GEN.load(Ordering::SeqCst) != gen,
            };
            if let Ok(mut all) = SPANS.lock() {
                all.push(span);
            }
        }
    }
}

/// Every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Durations in ms of every whole span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && !s.torn)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Self time (ns) of every span: its duration minus its direct
/// children's (children of one span run sequentially on its thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.dur_ns()
                    .saturating_sub(child.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Blocking-path breakdown of the operations rooted at `root`. The
/// operations around the median (the middle tenth, at least one) are
/// averaged: each span name on the path gets its mean self time, and the
/// remainder is the root's own self time, the part no child span covers.
/// Returns the printed line and that remainder as a share of the mean
/// operation time. Torn operations (tracing switched mid-way) are left
/// out.
pub fn breakdown(spans: &[Span], root: &str) -> (String, f64) {
    let selfs = self_times(spans);
    let mut roots: Vec<&Span> = spans.iter().filter(|s| s.name == root && !s.torn).collect();
    if roots.is_empty() {
        return (format!("breakdown {root}: no traced operations"), 0.0);
    }
    roots.sort_by_key(|r| r.dur_ns());
    let band = (roots.len() / 10).max(1);
    let lo = (roots.len() - band) / 2;
    let middle: std::collections::BTreeSet<u64> =
        roots[lo..lo + band].iter().map(|r| r.op).collect();
    let mut parts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| middle.contains(&s.op) && s.name != root)
    {
        *parts.entry(s.name).or_default() += selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e6;
    }
    let k = band as f64;
    let total: f64 = roots[lo..lo + band]
        .iter()
        .map(|r| r.dur_ns() as f64 / 1e6)
        .sum::<f64>()
        / k;
    let explained: f64 = parts.values().sum::<f64>() / k;
    let remainder = total - explained;
    let share = ratio(remainder, total);
    let list: Vec<String> = parts
        .iter()
        .map(|(n, v)| format!("{n} {:.4}", v / k))
        .collect();
    (
        format!(
            "breakdown {root}: {band} ops around the median of {} average {total:.4} ms = {} + remainder {remainder:.4} ms ({:.1}%)",
            roots.len(),
            list.join(" + "),
            share * 100.0
        ),
        share,
    )
}

/// Write the spans as JSON lines (name, start, end, parent, op).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
