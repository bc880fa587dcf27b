//! Span tracing around the benchmark's calls into each layer.
//!
//! Every thread records into its own [`Tracer`] — a plain `Vec`, so sample
//! closures on Monte Carlo runner threads take no lock — and a tracer hands
//! its spans to the process-wide collection only when it is dropped. The
//! collection is read once, after the measured work, by [`take_all`].
//!
//! A span carries its name, start and end (nanoseconds since the process
//! epoch), the span that caused it, and the operation it belongs to. A
//! layer's self time is its duration minus the part of that interval its
//! children cover ([`self_time_ns`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation (chunk, campaign, request) the span belongs to.
    pub op: u64,
    /// Layer-qualified call name, e.g. `circuits.eye_margins`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A per-thread span recorder. Disabled tracers record nothing and cost
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    op: u64,
    parent: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for a span opened by [`Tracer::begin`]; pass it to
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder whose root spans attach to no parent.
    pub fn new(enabled: bool) -> Self {
        Tracer::child_of(enabled, 0, 0)
    }

    /// A recorder whose root spans attach to `parent` of operation `op` —
    /// how work on another thread hangs under the span that started it.
    pub fn child_of(enabled: bool, op: u64, parent: u64) -> Self {
        Tracer {
            enabled,
            op,
            parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts recording spans for operation `op`, switching tracing on or
    /// off for it; root spans of the operation have no parent.
    pub fn start_op(&mut self, op: u64, enabled: bool) {
        self.op = op;
        self.enabled = enabled;
        self.parent = 0;
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.open.last().map_or(self.parent, |&i| self.spans[i].id);
        self.spans.push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            op: self.op,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span; spans must close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let innermost = self.open.pop();
            debug_assert_eq!(innermost, Some(index), "spans close innermost first");
            self.spans[index].end_ns = now_ns();
        }
    }

    /// Records `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span whose interval was measured elsewhere (for example
    /// from two event callbacks), under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(self.parent, |&i| self.spans[i].id);
        self.spans.push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Id of the innermost open span (0 when none) — the parent to hand a
    /// [`Tracer::child_of`] on another thread.
    pub fn current(&self) -> u64 {
        self.open.last().map_or(self.parent, |&i| self.spans[i].id)
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // A poisoned collection only means another thread panicked while
        // appending; every append leaves the Vec valid.
        let mut all = COLLECTED.lock().unwrap_or_else(|e| e.into_inner());
        all.append(&mut self.spans);
    }
}

/// Takes every span flushed so far, ordered by start.
pub fn take_all() -> Vec<Span> {
    let mut all = std::mem::take(&mut *COLLECTED.lock().unwrap_or_else(|e| e.into_inner()));
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Duration of `span` minus the union of its children's intervals clipped
/// to it.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time_ns(s, kids))
        })
        .collect()
}

/// Writes spans as tab-separated lines: id, parent, op, name, start, end.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 0, 100);
        // Overlapping children (two threads) cover 10..50 once, plus
        // 60..70; one child pokes past the parent's end and is clipped.
        let a = span(2, 1, 10, 40);
        let b = span(3, 1, 20, 50);
        let c = span(4, 1, 60, 70);
        let d = span(5, 1, 95, 130);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c, &d]), 100 - 40 - 10 - 5);
        assert_eq!(self_time_ns(&root, &[]), 100);
        let st = self_times(&[root.clone(), a.clone(), b, c, d]);
        assert_eq!(st[&1], 45);
        assert_eq!(st[&2], 30);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_disabled_tracers_record_nothing() {
        let mut off = Tracer::new(false);
        let o = off.begin("x");
        off.end(o);
        assert!(off.spans.is_empty());

        let mut t = Tracer::new(true);
        t.start_op(7, true);
        let outer = t.begin("outer");
        let parent_id = t.current();
        t.time("inner", || std::hint::black_box(3 + 4));
        t.end(outer);
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, parent_id);
        assert_eq!(inner.op, 7);
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        // Keep this test's spans out of the process-wide collection.
        t.spans.clear();
    }
}
