//! Event recording: spans, counters, and thread-local capture.
//!
//! A [`Trace`] is a flat event stream; span nesting is encoded by
//! `Begin`/`End` bracketing (the report layer rebuilds the tree). Events
//! carry a deterministic payload (`name`, `args`) plus one non-normative
//! timestamp (`ts_ns`, relative to the enclosing capture's start).

use crate::clock;
use std::cell::RefCell;

/// A deterministic argument value attached to an event.
///
/// Variants cover everything the pipeline records: unsigned counters,
/// signed gains, configured ratios, and static labels. `f64` values are
/// only ever *configuration* echoes (e.g. the matching ratio) — never
/// measurements — so their formatting is deterministic too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V {
    /// Unsigned counter (module counts, cuts, move counts).
    U(u64),
    /// Signed value (gains).
    I(i64),
    /// Configured floating-point value (never a measurement).
    F(f64),
    /// Static label (engine names, algorithm names).
    S(&'static str),
}

impl From<u64> for V {
    fn from(v: u64) -> Self {
        V::U(v)
    }
}
impl From<usize> for V {
    fn from(v: usize) -> Self {
        V::U(v as u64)
    }
}
impl From<u32> for V {
    fn from(v: u32) -> Self {
        V::U(u64::from(v))
    }
}
impl From<i64> for V {
    fn from(v: i64) -> Self {
        V::I(v)
    }
}
impl From<i32> for V {
    fn from(v: i32) -> Self {
        V::I(i64::from(v))
    }
}
impl From<f64> for V {
    fn from(v: f64) -> Self {
        V::F(v)
    }
}
impl From<&'static str> for V {
    fn from(v: &'static str) -> Self {
        V::S(v)
    }
}

/// Event kind: span bracket or point sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// Span start; matched by the next same-depth `End`.
    Begin,
    /// Span end.
    End,
    /// Point sample carrying deterministic counter values.
    Counter,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span bracket or counter sample.
    pub kind: EvKind,
    /// Event name (static, deterministic).
    pub name: &'static str,
    /// Nanoseconds since the enclosing capture began. **Non-normative**:
    /// the only field excluded from the determinism contract.
    pub ts_ns: u64,
    /// Deterministic argument values.
    pub args: Vec<(&'static str, V)>,
}

/// A captured event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events in recording order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Appends `child` into this trace wrapped in one `name` span, rebasing
    /// the child's timestamps after this trace's last event. Recorder-free:
    /// the execution layer uses it to assemble a start's full contribution
    /// (every attempt, wrapped) before splicing it into the batch stream in
    /// start order with [`append_raw`].
    pub fn append_span(&mut self, name: &'static str, args: &[(&'static str, V)], child: &Trace) {
        let base = self.events.last().map_or(0, |e| e.ts_ns);
        let child_end = child.events.last().map_or(0, |e| e.ts_ns);
        self.events.push(Event {
            kind: EvKind::Begin,
            name,
            ts_ns: base,
            args: args.to_vec(),
        });
        for ev in &child.events {
            self.events.push(Event {
                ts_ns: base + ev.ts_ns,
                ..ev.clone()
            });
        }
        self.events.push(Event {
            kind: EvKind::End,
            name,
            ts_ns: base + child_end,
            args: Vec::new(),
        });
    }
}

struct Recorder {
    events: Vec<Event>,
    t0_ns: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// True when a recorder is installed on this thread — i.e. a hook firing
/// now would actually record. Hooks that do non-trivial work to assemble
/// their arguments (gain histograms, occupancy scans) should check this
/// first.
pub fn recording() -> bool {
    REC.with(|r| r.borrow().is_some())
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Restores the previous recorder even if the captured closure panics, so
/// `#[should_panic]` tests cannot leave a stale recorder installed.
struct CaptureScope {
    prev: Option<Recorder>,
}

impl CaptureScope {
    fn install() -> Self {
        let fresh = Recorder {
            events: Vec::new(),
            t0_ns: clock::now_ns(),
        };
        let prev = REC.with(|r| r.borrow_mut().replace(fresh));
        CaptureScope { prev }
    }

    fn finish(mut self) -> Trace {
        let cur = REC.with(|r| {
            let mut slot = r.borrow_mut();
            let cur = slot.take();
            *slot = self.prev.take();
            cur
        });
        std::mem::forget(self);
        Trace {
            events: cur.map_or_else(Vec::new, |r| r.events),
        }
    }
}

impl Drop for CaptureScope {
    fn drop(&mut self) {
        // Unwinding path: drop whatever the closure recorded, restore the
        // outer recorder.
        REC.with(|r| {
            *r.borrow_mut() = self.prev.take();
        });
    }
}

/// Runs `f` with a fresh recorder installed on this thread and returns its
/// value plus the captured trace.
///
/// Only the calling thread records: a thread `f` spawns has no recorder
/// until it captures on its own. Captures nest: an inner `capture` stashes
/// the outer recorder and restores it afterwards, which is how the
/// execution layer captures one stream per attempt and then merges them into
/// the caller's stream via [`Trace::append_span`] and [`append_raw`].
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let scope = CaptureScope::install();
    let value = f();
    let trace = scope.finish();
    (value, trace)
}

/// RAII span: records `Begin` on creation and `End` on drop.
///
/// Inert (records nothing) when created while not [`recording`].
///
/// Under the `obs-alloc` feature an armed guard also snapshots the
/// thread's allocation tallies at `Begin` and attaches the deltas to the
/// `End` event as `alloc_bytes`/`alloc_count`/`alloc_peak` args — the
/// innermost-open-span attribution the `alloc` module documents. The alloc
/// args are non-normative (removed by `strip_profile`), so span content
/// stays identical between `obs` and `obs-alloc` builds.
#[derive(Debug)]
#[must_use = "a span ends when the guard drops"]
pub struct SpanGuard {
    name: Option<&'static str>,
    #[cfg(feature = "obs-alloc")]
    alloc: Option<crate::alloc::SpanAlloc>,
}

/// Opens a span; the returned guard closes it when dropped.
pub fn span(name: &'static str, args: &[(&'static str, V)]) -> SpanGuard {
    let mut armed = false;
    with_recorder(|rec| {
        let ts_ns = clock::now_ns() - rec.t0_ns;
        rec.events.push(Event {
            kind: EvKind::Begin,
            name,
            ts_ns,
            args: args.to_vec(),
        });
        armed = true;
    });
    SpanGuard {
        name: armed.then_some(name),
        #[cfg(feature = "obs-alloc")]
        alloc: armed.then(crate::alloc::span_begin),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            let mut args: Vec<(&'static str, V)> = Vec::new();
            #[cfg(feature = "obs-alloc")]
            if let Some(window) = self.alloc.take() {
                let (bytes, count, peak) = crate::alloc::span_end(window);
                args.push(("alloc_bytes", V::U(bytes)));
                args.push(("alloc_count", V::U(count)));
                args.push(("alloc_peak", V::U(peak)));
            }
            with_recorder(|rec| {
                let ts_ns = clock::now_ns() - rec.t0_ns;
                rec.events.push(Event {
                    kind: EvKind::End,
                    name,
                    ts_ns,
                    args: std::mem::take(&mut args),
                });
            });
        }
    }
}

/// Records a counter sample.
pub fn counter(name: &'static str, args: &[(&'static str, V)]) {
    with_recorder(|rec| {
        let ts_ns = clock::now_ns() - rec.t0_ns;
        rec.events.push(Event {
            kind: EvKind::Counter,
            name,
            ts_ns,
            args: args.to_vec(),
        });
    });
}

/// Appends a previously captured trace **verbatim** into the current
/// recorder — no wrapper span — rebasing timestamps onto this recorder's
/// timeline.
///
/// This is the deterministic merge primitive: the execution layer captures
/// each start's attempts (on whichever worker thread ran it), wraps them
/// with [`Trace::append_span`], and splices the contributions (or
/// checkpoint-restored ones) **in start order**, so the merged stream's
/// content is independent of the thread count and of which worker ran which
/// start. No-op when not [`recording`].
pub fn append_raw(child: &Trace) {
    with_recorder(|rec| {
        let base = clock::now_ns() - rec.t0_ns;
        for ev in &child.events {
            rec.events.push(Event {
                ts_ns: base + ev.ts_ns,
                ..ev.clone()
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(t: &Trace) -> Vec<(&'static str, EvKind)> {
        t.events.iter().map(|e| (e.name, e.kind)).collect()
    }

    #[test]
    fn hooks_without_recorder_are_noops() {
        assert!(!recording());
        let s = span("orphan", &[]);
        assert!(s.name.is_none(), "an orphan span is inert");
        counter("orphan", &[]);
    }

    #[test]
    fn capture_records_only_its_own_thread() {
        let (spawned, t) = capture(|| {
            counter("here", &[]);
            std::thread::scope(|s| {
                s.spawn(|| {
                    counter("elsewhere", &[]);
                    recording()
                })
                .join()
                .expect("joins")
            })
        });
        assert!(!spawned, "a spawned thread has no recorder");
        assert_eq!(names(&t), vec![("here", EvKind::Counter)]);
    }

    #[test]
    fn spans_and_counters_nest() {
        let (_, t) = capture(|| {
            let _outer = span("outer", &[("n", V::U(2))]);
            for i in 0..2u64 {
                let _inner = span("inner", &[("i", V::U(i))]);
                counter("tick", &[("i", V::U(i))]);
            }
        });
        assert_eq!(
            names(&t),
            vec![
                ("outer", EvKind::Begin),
                ("inner", EvKind::Begin),
                ("tick", EvKind::Counter),
                ("inner", EvKind::End),
                ("inner", EvKind::Begin),
                ("tick", EvKind::Counter),
                ("inner", EvKind::End),
                ("outer", EvKind::End),
            ]
        );
        // Timestamps are monotone within one capture.
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn nested_capture_restores_outer_recorder() {
        let (_, outer) = capture(|| {
            counter("before", &[]);
            let (_, inner) = capture(|| counter("inner", &[]));
            assert_eq!(names(&inner), vec![("inner", EvKind::Counter)]);
            let mut wrapped = Trace::default();
            wrapped.append_span("start", &[("start", V::U(0))], &inner);
            append_raw(&wrapped);
            counter("after", &[]);
        });
        assert_eq!(
            names(&outer),
            vec![
                ("before", EvKind::Counter),
                ("start", EvKind::Begin),
                ("inner", EvKind::Counter),
                ("start", EvKind::End),
                ("after", EvKind::Counter),
            ]
        );
    }

    #[test]
    fn capture_restores_recorder_on_panic() {
        let (_, outer) = capture(|| {
            counter("kept", &[]);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (_, _t) = capture(|| {
                    counter("lost", &[]);
                    panic!("boom");
                });
            }));
            assert!(r.is_err());
            counter("still-kept", &[]);
        });
        assert_eq!(
            names(&outer),
            vec![("kept", EvKind::Counter), ("still-kept", EvKind::Counter)]
        );
    }

    #[test]
    fn append_rebases_timestamps() {
        let (_, child) = capture(|| counter("c", &[]));
        let (_, parent) = capture(|| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let mut wrapped = Trace::default();
            wrapped.append_span("start", &[], &child);
            append_raw(&wrapped);
        });
        // The appended child's counter is rebased at/after the parent Begin.
        assert!(parent.events[1].ts_ns >= parent.events[0].ts_ns);
        assert!(parent.events[0].ts_ns >= 1_000_000);
    }
}
