//! The crate's single monotonic-clock site.
//!
//! Every timestamp in a trace comes from [`now_ns`] and nowhere else, so
//! this file is the crate's one exemption from `clippy.toml`'s
//! disallowed `Instant` (the `#[expect]` below). Timestamps are
//! telemetry only: they feed the `ts`/`dur_ns` fields that
//! [`crate::export::strip_timing`] removes before any equality comparison,
//! and no algorithm decision ever reads them.

#![expect(
    clippy::disallowed_types,
    reason = "the crate's one monotonic-clock site: timestamps are telemetry only and are \
              stripped before any trace comparison"
)]

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// Using a process-wide epoch (rather than `Instant` values directly) keeps
/// the recorded integers small and lets merged multi-thread streams share
/// one timeline.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    // u128 -> u64 truncation is unreachable in practice (584 years).
    epoch.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
