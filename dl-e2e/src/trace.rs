//! In-memory spans recorded by the harness around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent on the same thread) and the epoch it worked on as the shared id.
//! A layer's *self time* is its spans' duration minus the part their child
//! spans cover; the tracer keeps that sum per name for every span, and the
//! first [`SPAN_CAP`] raw spans for the trace file written at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept for the trace file; totals cover every span regardless.
pub const SPAN_CAP: usize = 50_000;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub epoch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u64,
    name: &'static str,
    epoch: u64,
    start_ns: u64,
    child_ns: u64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

pub struct Tracer {
    origin: Instant,
    /// Span ids start at 1; 0 means "no parent".
    next_id: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span on this thread; it closes when the guard drops. With no
    /// `epoch` of its own the span inherits its parent's.
    pub fn span(&self, name: &'static str, epoch: Option<u64>) -> SpanGuard<'_> {
        self.enter(name, epoch, self.now_ns());
        SpanGuard { tracer: self }
    }

    /// [`Tracer::span`] with an explicit clock (the arithmetic under test).
    pub fn enter(&self, name: &'static str, epoch: Option<u64>, at_ns: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with_borrow_mut(|s| {
            let epoch = epoch.unwrap_or_else(|| s.last().map_or(0, |p| p.epoch));
            s.push(Frame {
                id,
                name,
                epoch,
                start_ns: at_ns,
                child_ns: 0,
            })
        });
    }

    pub fn exit(&self, at_ns: u64) {
        let (frame, parent) = STACK.with_borrow_mut(|s| {
            let frame = s.pop().expect("exit without enter");
            let dur = at_ns.saturating_sub(frame.start_ns);
            let parent = s.last_mut().map_or(0, |p| {
                p.child_ns += dur;
                p.id
            });
            (frame, parent)
        });
        let dur = at_ns.saturating_sub(frame.start_ns);
        let mut inner = self.inner.lock().expect("tracer lock");
        let t = inner.totals.entry(frame.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if inner.spans.len() < SPAN_CAP {
            inner.spans.push(Span {
                id: frame.id,
                parent,
                name: frame.name,
                epoch: frame.epoch,
                start_ns: frame.start_ns,
                end_ns: at_ns,
            });
        }
    }

    pub fn total(&self, name: &str) -> Total {
        let inner = self.inner.lock().expect("tracer lock");
        inner.totals.get(name).copied().unwrap_or_default()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        self.inner.lock().expect("tracer lock").totals.clone()
    }

    /// The trace file: per-name totals plus the retained raw spans.
    pub fn to_json(&self, workload: &str) -> String {
        let inner = self.inner.lock().expect("tracer lock");
        let mut out = format!("{{\"workload\": \"{workload}\", \"totals\": {{");
        for (i, (name, t)) in inner.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            out += &format!(
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out += &format!("}}, \"spans_kept\": {}, \"spans\": [\n", inner.spans.len());
        for (i, s) in inner.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            out += &format!(
                "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"epoch\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.epoch, s.start_ns, s.end_ns
            );
        }
        out += "\n]}\n";
        out
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.exit(self.tracer.now_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = Tracer::new();
        // run [0,1000] ⊃ engine [100,400] ⊃ coder [150,250];
        //               engine [500,700] ⊃ coder [500,600], coder [600,650]
        t.enter("run", Some(0), 0);
        t.enter("engine", Some(1), 100);
        t.enter("coder", None, 150);
        t.exit(250);
        t.exit(400);
        t.enter("engine", Some(2), 500);
        t.enter("coder", None, 500);
        t.exit(600);
        t.enter("coder", None, 600);
        t.exit(650);
        t.exit(700);
        t.exit(1000);
        let (run, engine, coder) = (t.total("run"), t.total("engine"), t.total("coder"));
        assert_eq!((coder.count, coder.total_ns, coder.self_ns), (3, 250, 250));
        assert_eq!((engine.count, engine.total_ns), (2, 500));
        assert_eq!(engine.self_ns, 500 - 250);
        assert_eq!(run.self_ns, 1000 - 500);
        // Self times partition the root.
        assert_eq!(run.self_ns + engine.self_ns + coder.self_ns, run.total_ns);
    }

    #[test]
    fn spans_record_their_parent_and_shared_epoch() {
        let t = Tracer::new();
        t.enter("engine", Some(9), 10);
        t.enter("coder", None, 20);
        t.exit(30);
        t.exit(40);
        let json = t.to_json("w");
        let inner = t.inner.lock().unwrap();
        let coder = &inner.spans[0];
        let engine = &inner.spans[1];
        assert_eq!(
            (coder.name, coder.parent, coder.epoch),
            ("coder", engine.id, 9)
        );
        assert_eq!(engine.parent, 0);
        assert!(json.contains("\"spans_kept\": 2"));
    }
}
