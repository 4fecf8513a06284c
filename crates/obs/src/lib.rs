//! Deterministic structured observability for the mlpart workspace.
//!
//! The multilevel pipeline's behavior is governed by per-level dynamics the
//! paper only reports in aggregate: how the matching ratio shapes the
//! hierarchy, how FM/CLIP passes converge at each uncoarsening level, and
//! where time actually goes. This crate is the measurement substrate: a
//! zero-dependency tracing layer the algorithm crates hook into behind
//! per-crate `obs` cargo features. At run time a hook records exactly when
//! [`capture`] has installed a recorder on its thread; there is no other
//! gate.
//!
//! The algorithm crates never call [`span`] or [`counter`] directly: each
//! call site is one `mlpart_hypergraph::obs_span!` or `obs_counter!` line.
//! The macros are the gate — their expansion carries the
//! `#[cfg(feature = "obs")]`, evaluated in the calling crate — and the
//! compiler enforces it: every library crate, where all the refinement and
//! coarsening hooks live, takes this crate as an optional dependency that no
//! default build enables, so a hook written without a macro fails the
//! default build, and a macro used in a crate without an `obs` feature
//! fails `clippy -D warnings` through `unexpected_cfgs`. The root `mlpart`
//! facade links this crate in every build, for the [`json`] codec its
//! checkpoints use; it holds no hooks.
//!
//! # Determinism contract
//!
//! Trace **content** — event kinds, names, nesting, and every argument
//! value — is a pure function of `(netlist, config, seed)`: counters record
//! deterministic algorithm state (moves attempted/kept/rolled back, gain
//! distributions, bucket occupancy, matching pass sizes, rebalance work),
//! never anything derived from timing or scheduling. Only the `ts`/`dur_ns`
//! timestamp fields vary between runs; [`export::strip_timing`] normalizes
//! them so two traces can be compared byte-for-byte. The parallel execution
//! layer merges per-worker streams by start index, so the merged stream is
//! also identical at every thread count.
//!
//! Timing itself flows through exactly one monotonic-clock site
//! ([`clock::now_ns`]) — the only file in this crate on the lint
//! wall-clock whitelist.
//!
//! # Profiling layer
//!
//! On top of the raw trace sit derived, equally deterministic views:
//! [`metrics`] folds counter events into a fixed-bucket registry,
//! [`profile`] rolls the span tree up into per-phase self/total time (and,
//! under the `obs-alloc` feature, per-phase allocation tallies from the
//! tracking global allocator in [`alloc`](crate)), and
//! [`profile::to_folded`] exports flamegraph-compatible folded stacks. The
//! [`diff`] module (surfaced as the `obs-diff` binary) compares two run
//! reports: normative content must match byte-for-byte after
//! [`export::strip_profile`], and per-phase telemetry ratios past a
//! threshold flag a regression.
//!
//! # Recording model
//!
//! Events are recorded into a thread-local recorder (private to [`trace`])
//! installed by [`capture`]. Instrumentation hooks ([`span`], [`counter`])
//! are no-ops unless a recorder is installed on the current thread, so a
//! library user who never captures pays one thread-local check per hook.
//! Captures on different threads never see each other, so tests and
//! parallel workers each capture on their own.
//!
//! ```
//! use mlpart_obs as obs;
//!
//! let (value, trace) = obs::capture(|| {
//!     let _run = obs::span("run", &[("runs", obs::V::U(1))]);
//!     obs::counter("pass", &[("cut_before", obs::V::U(40)), ("cut_after", obs::V::U(31))]);
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(trace.events.len(), 3); // span begin + counter + span end
//! let jsonl = obs::export::to_jsonl(&trace);
//! assert!(obs::export::strip_timing(&jsonl).contains("\"cut_after\":31"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "obs-alloc")]
pub mod alloc;
pub mod clock;
pub mod diff;
pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod schema;
pub mod trace;

pub use export::{
    strip_folded, strip_profile, strip_timing, to_chrome_trace, to_jsonl, trace_from_jsonl,
};
pub use profile::to_folded;
pub use trace::{
    append_raw, capture, counter, recording, span, EvKind, Event, SpanGuard, Trace, V,
};
