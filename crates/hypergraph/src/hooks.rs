//! One-line call-site macros for the optional hook layers: observability
//! (`mlpart-obs`), phase-boundary audits (`mlpart-audit`) and fault
//! injection (`mlpart-fault`).
//!
//! Each macro puts its `#[cfg(feature = "...")]` inside the expansion, and a
//! `cfg` in a macro expansion is evaluated in the crate that *calls* the
//! macro. A call site therefore needs no gate of its own: in a build without
//! the calling crate's feature the hook expands to nothing, so its arguments
//! are never evaluated. The span, counter and fault macros borrow their
//! arguments inside a closure that is never called (the snapshot form keeps
//! its expression in a branch that never runs), so a value that only feeds
//! a hook is never an unused-variable warning. `audit!` checks name
//! `mlpart_audit` items, so without the feature they are dropped entirely.
//!
//! The compiler enforces the gate:
//!
//! * every hook crate is an optional dependency that no workspace member
//!   enables by default, so a hook written without a macro names a crate the
//!   default build does not have;
//! * a calling crate must declare the matching feature (`obs`, `audit`,
//!   `fault`); a macro used in a crate without it fails
//!   `clippy -D warnings` through the `unexpected_cfgs` lint.
//!
//! ```ignore
//! // In a crate with `obs`, `audit` and `fault` features forwarding to the
//! // optional `mlpart-obs`, `mlpart-audit` and `mlpart-fault` dependencies:
//! use mlpart_hypergraph::{audit, fault_point, obs_counter, obs_span};
//!
//! obs_span!("coarsen", "modules" => h.num_modules());
//! obs_counter!("rebalance", "level" => level, "moves" => moves);
//! audit!(mlpart_audit::audit_partition(h, &p));
//! fault_point!("pass", u64::from(pass));
//! if fault_point!(should_exhaust("pass", u64::from(pass))) { /* ... */ }
//! ```

/// Opens an `mlpart_obs` span that lasts to the end of the enclosing block.
///
/// `obs_span!(name, "key" => value, ...)`: each value is converted with
/// `mlpart_obs::V::from`. Nested spans close in reverse order, as their
/// guards drop. Expands to nothing unless the calling crate's `obs` feature
/// is on.
#[macro_export]
macro_rules! obs_span {
    ($name:expr $(, $key:literal => $val:expr)* $(,)?) => {
        #[cfg(feature = "obs")]
        let _obs_span = ::mlpart_obs::span($name, &[$(($key, ::mlpart_obs::V::from($val))),*]);
        #[cfg(not(feature = "obs"))]
        let _ = || {
            let _ = &$name;
            $(let _ = &$val;)*
        };
    };
}

/// Records an `mlpart_obs` counter sample.
///
/// `obs_counter!(name, "key" => value, ...)` records one sample, its values
/// converted with `mlpart_obs::V::from`.
///
/// `obs_counter!(snapshot: expr)` is an expression: `Some(expr)` while a
/// trace is recording, else `None` without evaluating `expr`. It takes a
/// sample of state that a later counter reports after the state has moved
/// on (a pass's post-fill gain spread, reported with the pass's outcome).
///
/// Both forms compile to nothing (`None`) unless the calling crate's `obs`
/// feature is on.
#[macro_export]
macro_rules! obs_counter {
    (snapshot: $sample:expr) => {{
        #[cfg(feature = "obs")]
        let sample = ::mlpart_obs::recording().then(|| $sample);
        #[cfg(not(feature = "obs"))]
        let sample = if false { Some($sample) } else { None };
        sample
    }};
    ($name:expr $(, $key:literal => $val:expr)* $(,)?) => {
        #[cfg(feature = "obs")]
        ::mlpart_obs::counter($name, &[$(($key, ::mlpart_obs::V::from($val))),*]);
        #[cfg(not(feature = "obs"))]
        let _ = || {
            let _ = &$name;
            $(let _ = &$val;)*
        };
    };
}

/// Runs phase-boundary audit checks when `MLPART_AUDIT=1`.
///
/// `audit!(check, ...)` is `if mlpart_audit::enabled() { enforce(check); ... }`:
/// each check is an `mlpart_audit::AuditResult` expression, evaluated in
/// order only while audits are on. Expands to nothing unless the calling
/// crate's `audit` feature is on.
#[macro_export]
macro_rules! audit {
    ($($check:expr),+ $(,)?) => {
        #[cfg(feature = "audit")]
        if ::mlpart_audit::enabled() {
            $(::mlpart_audit::enforce($check);)+
        }
    };
}

/// A deterministic fault-injection site.
///
/// `fault_point!(site, idx)` panics when the active `MLPART_FAULTS` plan
/// holds `panic@site:idx` (`mlpart_fault::maybe_panic`).
///
/// `fault_point!(query(site, idx))` is an expression: the `bool` answer of
/// `mlpart_fault::query`, e.g. `should_exhaust` or `should_unbalance`.
///
/// Both forms compile to nothing (`false`) unless the calling crate's
/// `fault` feature is on.
#[macro_export]
macro_rules! fault_point {
    ($query:ident($site:expr, $idx:expr)) => {{
        #[cfg(feature = "fault")]
        let hit = ::mlpart_fault::$query($site, $idx);
        #[cfg(not(feature = "fault"))]
        let hit = {
            let _ = || {
                let _ = (&$site, &$idx);
            };
            false
        };
        hit
    }};
    ($site:expr, $idx:expr) => {
        #[cfg(feature = "fault")]
        ::mlpart_fault::maybe_panic($site, $idx);
        #[cfg(not(feature = "fault"))]
        let _ = || {
            let _ = (&$site, &$idx);
        };
    };
}
