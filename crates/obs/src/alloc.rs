//! Opt-in allocation accounting (cargo feature `obs-alloc`).
//!
//! Compiling this module installs [`TrackingAlloc`] as the process global
//! allocator: a thin wrapper over [`std::alloc::System`] that maintains four
//! thread-local tallies — cumulative allocated bytes, allocation count, live
//! bytes, and a live-bytes high-water mark. The span layer snapshots the
//! tallies at `Begin` and attaches the deltas to the matching `End` event
//! (`alloc_bytes`/`alloc_count`/`alloc_peak`), attributing every allocation
//! to the innermost open span on the allocating thread.
//!
//! # Non-normative by construction
//!
//! Allocation values are telemetry, like timestamps. Every start runs on a
//! refinement workspace of its own, so which worker runs a start no longer
//! moves them, but they still follow the standard library's growth policy
//! for collections and whatever the toolchain inlines or elides, which no
//! result depends on. The exporters therefore treat the `alloc_*` keys
//! exactly like timing — zeroed by `strip_timing`, removed entirely by
//! `strip_profile` so traces from `obs-alloc` and plain `obs` builds
//! compare equal on content.
//!
//! The tallies are `Cell`s in `const`-initialized thread-local storage: no
//! lazy initialization, no destructor, and no allocation inside the
//! allocator hooks themselves, so the wrapper cannot recurse or touch TLS
//! during thread teardown. It never reads a clock — `clock.rs` stays the
//! crate's single wall-clock site.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Cumulative bytes handed out on this thread.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Cumulative successful allocations on this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
    /// Live bytes: allocated minus freed *on this thread*. A buffer freed
    /// on a different thread than it was allocated on under-counts here;
    /// the pipeline's per-start workspaces are thread-confined, so in
    /// practice the watermark tracks real usage.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the innermost span snapshot.
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Global allocator wrapper that tallies per-thread allocation traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAlloc;

#[inline]
fn on_alloc(size: u64) {
    BYTES.set(BYTES.get().wrapping_add(size));
    COUNT.set(COUNT.get().wrapping_add(1));
    let live = LIVE.get().saturating_add(size);
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

#[inline]
fn on_dealloc(size: u64) {
    LIVE.set(LIVE.get().saturating_sub(size));
}

// SAFETY: delegates every allocation verbatim to `System`; the bookkeeping
// only touches const-initialized thread-local `Cell`s (no allocation, no
// locks, no reentrancy).
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Accounted as one new allocation of the new size plus a free
            // of the old block — the live watermark stays exact and the
            // byte tally counts traffic, not residency.
            on_alloc(new_size as u64);
            on_dealloc(layout.size() as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A snapshot of this thread's tallies at span `Begin`, consumed at `End`.
#[derive(Debug, Clone, Copy)]
pub struct SpanAlloc {
    bytes0: u64,
    count0: u64,
    live0: u64,
    outer_peak: u64,
}

/// Snapshot of one thread's allocation counters (for tests and harnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Cumulative allocated bytes on this thread.
    pub bytes: u64,
    /// Cumulative allocation count on this thread.
    pub count: u64,
    /// Live bytes (allocated minus freed on this thread).
    pub live: u64,
}

/// Reads this thread's current tallies.
pub fn tally() -> Tally {
    Tally {
        bytes: BYTES.get(),
        count: COUNT.get(),
        live: LIVE.get(),
    }
}

/// Opens a span-attribution window: snapshots the cumulative tallies and
/// resets the peak watermark to the current live size, so a nested span
/// measures its own high-water mark rather than inheriting the parent's.
pub(crate) fn span_begin() -> SpanAlloc {
    let s = SpanAlloc {
        bytes0: BYTES.get(),
        count0: COUNT.get(),
        live0: LIVE.get(),
        outer_peak: PEAK.get(),
    };
    PEAK.set(LIVE.get());
    s
}

/// Closes a window opened by [`span_begin`], returning
/// `(bytes, count, peak)`: bytes and allocations since the snapshot, and
/// the peak growth of live bytes above the level at span entry. Restores
/// the enclosing span's watermark, folding in anything the inner span
/// pushed it past.
pub(crate) fn span_end(s: SpanAlloc) -> (u64, u64, u64) {
    let bytes = BYTES.get().wrapping_sub(s.bytes0);
    let count = COUNT.get().wrapping_sub(s.count0);
    let inner_peak = PEAK.get();
    PEAK.set(s.outer_peak.max(inner_peak));
    (bytes, count, inner_peak.saturating_sub(s.live0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_grow_with_allocations() {
        let before = tally();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = tally();
        assert!(after.bytes >= before.bytes + 4096, "bytes counted");
        assert!(after.count > before.count, "count counted");
        drop(v);
        assert!(tally().live <= after.live, "dealloc shrinks live");
    }

    #[test]
    fn span_window_attributes_bytes_and_peak() {
        let w = span_begin();
        let v: Vec<u8> = Vec::with_capacity(10_000);
        drop(v);
        let (bytes, count, peak) = span_end(w);
        assert!(bytes >= 10_000, "window sees the allocation: {bytes}");
        assert!(count >= 1);
        assert!(peak >= 10_000, "peak tracks the transient: {peak}");
    }

    #[test]
    fn nested_windows_restore_outer_peak() {
        let outer = span_begin();
        let big: Vec<u8> = Vec::with_capacity(50_000);
        drop(big);
        let inner = span_begin();
        let small: Vec<u8> = Vec::with_capacity(100);
        drop(small);
        let (_, _, inner_peak) = span_end(inner);
        let (_, _, outer_peak) = span_end(outer);
        assert!(
            inner_peak < 50_000,
            "inner window does not inherit outer peak"
        );
        assert!(
            outer_peak >= 50_000,
            "outer window keeps its own high-water mark"
        );
    }
}
