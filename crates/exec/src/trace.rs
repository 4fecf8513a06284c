//! Per-start trace plumbing for the scheduler in [`crate::supervise`].
//!
//! Under `obs`, when the batch's caller is capturing, each attempt runs
//! inside its own capture, on whichever worker claimed the start, and is
//! wrapped into the start's contribution; the
//! scheduler splices the contributions into the caller's trace **in start
//! order** — so the merged stream's content is thread-count-invariant, the
//! same argument as for the result vector itself. Without `obs` every item
//! here is a zero-sized stand-in with the same signature, so the
//! scheduler's plumbing is feature-independent.

pub use imp::*;

#[cfg(feature = "obs")]
mod imp {
    use mlpart_obs::{EvKind, Trace};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One attempt's captured events (`None` when the batch is untraced).
    pub(crate) type StartTrace = Option<Trace>;

    /// A start's full trace contribution: the concatenation of its
    /// per-attempt streams, each wrapped in its `start` span. Empty when
    /// the batch is untraced; the unit type on non-`obs` builds.
    /// Checkpoints persist this and replay it verbatim on resume.
    pub type StartContribution = Trace;

    /// Whether the batch is traced: the calling thread is inside a capture
    /// that the per-start streams will be merged into.
    pub(crate) fn recording() -> bool {
        mlpart_obs::recording()
    }

    /// Runs `body` under the per-start isolation boundary: `catch_unwind`,
    /// inside an obs capture when `traced`, so a panicking start still
    /// yields the events it recorded before unwinding.
    pub(crate) fn capture_unwind<T>(
        traced: bool,
        body: impl FnOnce() -> T,
    ) -> (std::thread::Result<T>, StartTrace) {
        let body = || catch_unwind(AssertUnwindSafe(body));
        if traced {
            let (result, trace) = mlpart_obs::capture(body);
            (result, Some(trace))
        } else {
            (body(), None)
        }
    }

    /// Appends attempt `a` of start `i` to the start's contribution as a
    /// `start` span. Attempt 0 carries only the start index, so a
    /// retry-free batch merges to one `start` span per start; retries are
    /// tagged with their attempt index.
    pub(crate) fn append_attempt(
        contribution: &mut StartContribution,
        i: usize,
        a: u32,
        trace: &StartTrace,
    ) {
        if let Some(t) = trace {
            if a == 0 {
                contribution.append_span("start", &[("start", i.into())], t);
            } else {
                contribution.append_span("start", &[("start", i.into()), ("attempt", a.into())], t);
            }
        }
    }

    /// Splices a start's contribution into the calling thread's recorder
    /// verbatim (the wrapper spans are already inside).
    pub(crate) fn append_contribution(t: &StartContribution) {
        mlpart_obs::append_raw(t);
    }

    /// Best-effort phase attribution for a failed start: the innermost span
    /// open when the panic began unwinding. Span guards close during the
    /// unwind (their `Drop` records `End`), so a drained stack is recovered
    /// from the trailing run of `End` events the unwind appended.
    pub(crate) fn failure_phase(trace: &StartTrace) -> Option<String> {
        let t = trace.as_ref()?;
        let mut stack: Vec<&'static str> = Vec::new();
        for e in &t.events {
            match e.kind {
                EvKind::Begin => stack.push(e.name),
                EvKind::End => {
                    stack.pop();
                }
                EvKind::Counter => {}
            }
        }
        if let Some(name) = stack.last() {
            // A panic with the unwind trace cut short (or a non-unwinding
            // recorder) leaves the true open stack behind.
            return Some((*name).to_string());
        }
        // The first End of the trailing End-run names the phase that was
        // closing when the trace stopped.
        let trailing = t
            .events
            .iter()
            .rev()
            .take_while(|e| e.kind == EvKind::End)
            .count();
        t.events
            .get(t.events.len() - trailing)
            .map(|e| e.name.to_string())
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    pub(crate) type StartTrace = ();

    /// A start's full trace contribution: the unit type on non-`obs` builds
    /// (the per-attempt `start` spans under `obs`).
    pub type StartContribution = ();

    pub(crate) fn recording() -> bool {
        false
    }

    pub(crate) fn capture_unwind<T>(
        _traced: bool,
        body: impl FnOnce() -> T,
    ) -> (std::thread::Result<T>, StartTrace) {
        (catch_unwind(AssertUnwindSafe(body)), ())
    }

    pub(crate) fn append_attempt(
        _contribution: &mut StartContribution,
        _i: usize,
        _a: u32,
        _trace: &StartTrace,
    ) {
    }

    pub(crate) fn append_contribution(_t: &StartContribution) {}

    pub(crate) fn failure_phase(_trace: &StartTrace) -> Option<String> {
        None
    }
}
