//! Deterministic fault injection for the mlpart workspace.
//!
//! Fault tolerance that is never exercised is fault tolerance that does not
//! work. This crate injects three kinds of failures — panics, budget
//! exhaustion, and deterministic balance corruption — at named sites inside
//! the algorithm crates (`start` and `attempt` in the parallel executor,
//! `level` at uncoarsening boundaries, `pass` at refinement pass
//! boundaries), so every isolation, degradation, and repair path can be
//! negative-tested on real workloads.
//!
//! # Gating
//!
//! Mirrors `mlpart-audit` exactly: call sites (each one
//! `mlpart_hypergraph::fault_point!`) are compiled in only under per-crate
//! `fault` cargo features, and at runtime nothing fires
//! unless the `MLPART_FAULTS` environment variable holds a fault plan (or a
//! test forces one with [`force_plan`]). With the feature compiled in but no
//! plan active, every hook is a cheap no-op and results are byte-identical
//! to an uninstrumented build — injection never perturbs the algorithms' RNG
//! streams.
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of `KIND@SITE[:SELECTOR]` entries:
//!
//! * `KIND` — `panic` (the site panics), `exhaust` (the budget meter
//!   reports the site's budget as exhausted, truncating the run), or
//!   `unbalance` (the site deterministically corrupts its solution's
//!   balance so the repair pass has something to fix).
//! * `SITE` — a site name (`start`, `attempt`, `level`, `pass`). The
//!   `attempt` site indexes retry attempts as `start * 8 + attempt`, so a
//!   fault can hit one attempt of one start without hitting its retries.
//! * `SELECTOR` — which hits trigger: omitted means **every** hit;
//!   `3` or `0|2|5` trigger on the listed indices only; `p=0.25` or
//!   `p=0.25@SEED` trigger pseudo-randomly with the given probability.
//!
//! ```text
//! MLPART_FAULTS="panic@start:2|5"          # starts 2 and 5 panic
//! MLPART_FAULTS="exhaust@pass:3"           # budget exhausts at pass 3
//! MLPART_FAULTS="panic@level:p=0.5@7"      # half of all levels panic
//! MLPART_FAULTS="panic@attempt:16"         # start 2, attempt 0 panics
//! MLPART_FAULTS="unbalance@start:0"        # start 0 needs balance repair
//! ```
//!
//! # Determinism
//!
//! Probabilistic selectors are keyed off a seeded SplitMix64 stream over
//! `(seed, site, index)` — the same finalizer `child_seed` uses — never off
//! OS entropy, wall-clock, or thread identity. A given plan therefore fires
//! at exactly the same sites on every run and at every thread count, so an
//! injected failure is always reproducible.
//!
//! ```
//! use mlpart_fault as fault;
//!
//! let plan = fault::FaultPlan::parse("panic@start:1").unwrap();
//! fault::force_plan(plan);
//! assert!(fault::should_panic("start", 1));
//! assert!(!fault::should_panic("start", 0));
//! assert!(!fault::should_exhaust("pass", 1));
//! fault::clear_force();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site panics with a structured `injected fault: …` payload.
    Panic,
    /// The budget meter treats the site's budget as exhausted.
    Exhaust,
    /// The site deterministically corrupts its solution's balance,
    /// exercising the repair-to-feasible pass.
    Unbalance,
}

/// A malformed fault plan: the offending `KIND@SITE[:SELECTOR]` token plus
/// what was wrong with it. Surfaced by the CLI as an invalid-input error
/// (exit 2), never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The plan entry that failed to parse, verbatim.
    pub token: String,
    /// Why the entry was rejected.
    pub reason: String,
}

impl PlanError {
    fn new(token: &str, reason: impl Into<String>) -> PlanError {
        PlanError {
            token: token.to_owned(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault entry {:?}: {}", self.token, self.reason)
    }
}

impl std::error::Error for PlanError {}

/// Which hits of a site trigger the fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Selector {
    /// Every hit triggers.
    All,
    /// Only the listed indices trigger.
    Indices(Vec<u64>),
    /// A hit at index `i` triggers when the SplitMix64 hash of
    /// `(seed, site, i)` falls below the probability threshold.
    Prob {
        /// Trigger probability in `[0, 1]`.
        p: f64,
        /// Seed of the deterministic selection stream.
        seed: u64,
    },
}

/// One `KIND@SITE[:SELECTOR]` plan entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What happens when the entry fires.
    pub kind: FaultKind,
    /// Site name the entry is bound to (`start`, `level`, `pass`).
    pub site: String,
    /// Which hits fire.
    pub selector: Selector,
}

/// A parsed fault plan: the set of active injection entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Plan entries, in spec order.
    pub specs: Vec<FaultSpec>,
}

/// SplitMix64 finalizer — the same mixer `child_seed` uses, reimplemented
/// here so this crate stays dependency-free.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so each site gets an independent stream.
fn site_hash(site: &str) -> u64 {
    site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

impl Selector {
    fn triggers(&self, site: &str, idx: u64) -> bool {
        match self {
            Selector::All => true,
            Selector::Indices(list) => list.contains(&idx),
            Selector::Prob { p, seed } => {
                let draw = splitmix(seed ^ site_hash(site) ^ idx.wrapping_mul(0x9e37_79b9));
                // Map the draw to [0, 1) and compare; p >= 1 always fires.
                (draw >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - p
            }
        }
    }
}

impl FaultPlan {
    /// Parses a plan spec (the `MLPART_FAULTS` grammar above).
    ///
    /// # Errors
    ///
    /// Returns a typed [`PlanError`] naming the malformed entry verbatim.
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanError> {
        let mut specs = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind_str, rest) = entry
                .split_once('@')
                .ok_or_else(|| PlanError::new(entry, "expected KIND@SITE[:SELECTOR]"))?;
            let kind = match kind_str {
                "panic" => FaultKind::Panic,
                "exhaust" => FaultKind::Exhaust,
                "unbalance" => FaultKind::Unbalance,
                other => {
                    return Err(PlanError::new(
                        entry,
                        format!("unknown kind {other:?} (expected panic, exhaust, or unbalance)"),
                    ))
                }
            };
            let (site, selector) = match rest.split_once(':') {
                None => (rest, Selector::All),
                Some((site, sel)) => (site, Self::parse_selector(entry, sel)?),
            };
            if site.is_empty() {
                return Err(PlanError::new(entry, "empty site name"));
            }
            specs.push(FaultSpec {
                kind,
                site: site.to_owned(),
                selector,
            });
        }
        Ok(FaultPlan { specs })
    }

    fn parse_selector(entry: &str, sel: &str) -> Result<Selector, PlanError> {
        if let Some(prob) = sel.strip_prefix("p=") {
            let (p_str, seed_str) = match prob.split_once('@') {
                Some((p, s)) => (p, Some(s)),
                None => (prob, None),
            };
            let p: f64 = p_str
                .parse()
                .map_err(|_| PlanError::new(entry, format!("bad probability {p_str:?}")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(PlanError::new(entry, "probability not in [0, 1]"));
            }
            let seed = match seed_str {
                Some(s) => s
                    .parse()
                    .map_err(|_| PlanError::new(entry, format!("bad seed {s:?}")))?,
                None => 0,
            };
            return Ok(Selector::Prob { p, seed });
        }
        let indices: Result<Vec<u64>, _> = sel.split('|').map(str::parse).collect();
        match indices {
            Ok(list) if !list.is_empty() => Ok(Selector::Indices(list)),
            _ => Err(PlanError::new(entry, format!("bad selector {sel:?}"))),
        }
    }

    /// True when any entry of `kind` at `site` triggers for hit `idx`.
    pub fn triggers(&self, kind: FaultKind, site: &str, idx: u64) -> bool {
        self.specs
            .iter()
            .any(|s| s.kind == kind && s.site == site && s.selector.triggers(site, idx))
    }
}

// Runtime gate: 0 = follow MLPART_FAULTS, 1 = forced plan, 2 = forced off.
static MODE: AtomicU8 = AtomicU8::new(0);
static FORCED: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

fn env_plan() -> Option<&'static Arc<FaultPlan>> {
    static ENV: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    ENV.get_or_init(|| {
        let spec = std::env::var("MLPART_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        // A malformed plan is a hard configuration error: silently running
        // *without* the requested faults would make a negative test pass
        // vacuously.
        let plan =
            FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("invalid MLPART_FAULTS plan: {e}"));
        Some(Arc::new(plan))
    })
    .as_ref()
}

/// The active fault plan, if any: a forced plan takes precedence, then the
/// cached `MLPART_FAULTS` environment plan.
pub fn active_plan() -> Option<Arc<FaultPlan>> {
    match MODE.load(Ordering::Relaxed) {
        2 => None,
        1 => FORCED.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        _ => env_plan().cloned(),
    }
}

/// True when a fault plan is active (injection may fire).
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        2 => false,
        1 => true,
        _ => env_plan().is_some(),
    }
}

/// Overrides the environment with an explicit plan for the whole process.
/// Tests use this together with [`test_lock`]; restore with [`clear_force`].
pub fn force_plan(plan: FaultPlan) {
    *FORCED.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(plan));
    MODE.store(1, Ordering::Relaxed);
}

/// Returns to following the `MLPART_FAULTS` environment.
pub fn clear_force() {
    MODE.store(0, Ordering::Relaxed);
    *FORCED.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Forces injection *off* even when the process runs under `MLPART_FAULTS`
/// (CI's fault suite does), for tests asserting disabled behavior. Restore
/// with [`clear_force`].
pub fn force_off() {
    MODE.store(2, Ordering::Relaxed);
}

/// Serializes tests that flip the process-global plan, which would
/// otherwise race under the parallel test runner. Public because the
/// algorithm crates' fault tests share the same global.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// True when a `panic` fault at `site`/`idx` should fire.
pub fn should_panic(site: &str, idx: u64) -> bool {
    active_plan().is_some_and(|p| p.triggers(FaultKind::Panic, site, idx))
}

/// True when an `exhaust` fault at `site`/`idx` should fire (consumed by
/// the budget meter, which records it as an injected truncation).
pub fn should_exhaust(site: &str, idx: u64) -> bool {
    active_plan().is_some_and(|p| p.triggers(FaultKind::Exhaust, site, idx))
}

/// True when an `unbalance` fault at `site`/`idx` should fire (consumed by
/// the CLI, which deterministically overloads one part of the start's
/// solution so the repair-to-feasible pass is exercised end to end).
pub fn should_unbalance(site: &str, idx: u64) -> bool {
    active_plan().is_some_and(|p| p.triggers(FaultKind::Unbalance, site, idx))
}

/// Validates the `MLPART_FAULTS` environment variable without arming the
/// plan cache: `Ok(())` when the variable is unset, empty, or well-formed.
///
/// Binaries call this before any fault site can fire so a malformed plan
/// becomes a typed invalid-input error (exit 2) on stderr instead of a
/// panic deep inside a worker thread.
///
/// # Errors
///
/// The [`PlanError`] naming the offending plan token.
pub fn validate_env() -> Result<(), PlanError> {
    match std::env::var("MLPART_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(|_| ()),
        _ => Ok(()),
    }
}

/// Panics with a structured payload when a `panic` fault at `site`/`idx`
/// fires; no-op otherwise. The payload names the site and index so failure
/// records stay machine-checkable.
pub fn maybe_panic(site: &str, idx: u64) {
    if should_panic(site, idx) {
        panic!("injected fault: panic@{site}:{idx}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FaultPlan::parse("panic@start:2|5, exhaust@pass:3,panic@level:p=0.5@7")
            .expect("parses");
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.specs[0].kind, FaultKind::Panic);
        assert_eq!(plan.specs[0].site, "start");
        assert_eq!(plan.specs[0].selector, Selector::Indices(vec![2, 5]));
        assert_eq!(plan.specs[1].kind, FaultKind::Exhaust);
        assert_eq!(plan.specs[2].selector, Selector::Prob { p: 0.5, seed: 7 });
        let all = FaultPlan::parse("panic@start").expect("parses");
        assert_eq!(all.specs[0].selector, Selector::All);
        assert_eq!(
            FaultPlan::parse("").expect("empty plan"),
            FaultPlan::default()
        );
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "panic",
            "panic@",
            "boom@start",
            "panic@start:",
            "panic@start:x",
            "panic@start:p=2",
            "panic@start:p=x",
            "panic@start:p=0.5@x",
            "unbalance@start:-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn plan_errors_name_the_offending_token() {
        // The bad entry is quoted verbatim even inside a longer plan, so a
        // user can find it in a multi-entry MLPART_FAULTS value.
        let err = FaultPlan::parse("panic@start:1,boom@pass,exhaust@level").expect_err("rejected");
        assert_eq!(err.token, "boom@pass");
        assert!(err.reason.contains("unknown kind"), "{err}");
        let rendered = err.to_string();
        assert!(rendered.contains("\"boom@pass\""), "{rendered}");

        let err = FaultPlan::parse("panic@start:p=1.5").expect_err("rejected");
        assert_eq!(err.token, "panic@start:p=1.5");
        assert!(err.reason.contains("[0, 1]"), "{err}");
    }

    /// Fuzz-ish sweep: no input, however mangled, may panic the parser —
    /// it either parses or returns a typed error naming a token.
    #[test]
    fn parser_never_panics_on_mangled_input() {
        let atoms = [
            "panic",
            "exhaust",
            "unbalance",
            "boom",
            "",
            "@",
            ":",
            ",",
            "p=",
            "p=0.5",
            "p=x",
            "start",
            "level",
            "pass",
            "attempt",
            "0",
            "1|2",
            "|",
            "@@",
            "::",
            "9999999999999999999",
            "p=0.25@42",
            "-3",
            "\u{1F980}",
            " ",
        ];
        // Deterministic recombination of atoms (SplitMix64-driven), a few
        // thousand adversarial plans.
        let mut z = 0x5eed_u64;
        for _ in 0..4000 {
            let mut plan = String::new();
            for _ in 0..(1 + (splitmix(z) % 5)) {
                z = z.wrapping_add(1);
                plan.push_str(atoms[(splitmix(z) % atoms.len() as u64) as usize]);
                z = z.wrapping_add(1);
                if splitmix(z).is_multiple_of(2) {
                    plan.push(',');
                }
            }
            match FaultPlan::parse(&plan) {
                Ok(_) => {}
                Err(e) => {
                    assert!(!e.token.is_empty(), "error for {plan:?} names no token");
                    assert!(!e.reason.is_empty(), "error for {plan:?} gives no reason");
                }
            }
        }
    }

    #[test]
    fn validate_env_matches_parse() {
        // validate_env reads the real environment; the test process does not
        // set MLPART_FAULTS (the CI fault suite runs the e2e flavor), so an
        // unset/empty variable must validate clean.
        if std::env::var("MLPART_FAULTS").map_or(true, |s| s.trim().is_empty()) {
            assert_eq!(validate_env(), Ok(()));
        }
    }

    #[test]
    fn unbalance_kind_parses_and_triggers() {
        let plan = FaultPlan::parse("unbalance@start:0|3").expect("parses");
        assert_eq!(plan.specs[0].kind, FaultKind::Unbalance);
        let _gate = test_lock();
        force_plan(plan);
        assert!(should_unbalance("start", 0));
        assert!(should_unbalance("start", 3));
        assert!(!should_unbalance("start", 1));
        assert!(!should_panic("start", 0));
        clear_force();
    }

    #[test]
    fn index_selectors_trigger_exactly() {
        let plan = FaultPlan::parse("panic@start:2|5").unwrap();
        for idx in 0..10 {
            assert_eq!(
                plan.triggers(FaultKind::Panic, "start", idx),
                idx == 2 || idx == 5
            );
            assert!(!plan.triggers(FaultKind::Panic, "pass", idx));
            assert!(!plan.triggers(FaultKind::Exhaust, "start", idx));
        }
    }

    #[test]
    fn probabilistic_selector_is_deterministic_and_calibrated() {
        let plan = FaultPlan::parse("panic@pass:p=0.25@42").unwrap();
        let fires: Vec<bool> = (0..4000)
            .map(|i| plan.triggers(FaultKind::Panic, "pass", i))
            .collect();
        let again: Vec<bool> = (0..4000)
            .map(|i| plan.triggers(FaultKind::Panic, "pass", i))
            .collect();
        assert_eq!(
            fires, again,
            "selection is a pure function of (seed, site, idx)"
        );
        let rate = fires.iter().filter(|&&b| b).count() as f64 / fires.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
        // Different sites and seeds give different streams.
        let other_site: Vec<bool> = (0..4000)
            .map(|i| plan.triggers(FaultKind::Panic, "pass2", i))
            .collect();
        assert!(!other_site.iter().any(|&b| b), "entries are site-scoped");
        let p0 = FaultPlan::parse("panic@pass:p=0").unwrap();
        assert!((0..100).all(|i| !p0.triggers(FaultKind::Panic, "pass", i)));
        let p1 = FaultPlan::parse("panic@pass:p=1").unwrap();
        assert!((0..100).all(|i| p1.triggers(FaultKind::Panic, "pass", i)));
    }

    #[test]
    fn force_gate_round_trips() {
        let _gate = test_lock();
        force_plan(FaultPlan::parse("panic@start:0").unwrap());
        assert!(enabled());
        assert!(should_panic("start", 0));
        assert!(!should_panic("start", 1));
        force_off();
        assert!(!enabled());
        assert!(!should_panic("start", 0));
        clear_force();
    }

    #[test]
    fn injected_panic_payload_is_structured() {
        let _gate = test_lock();
        force_plan(FaultPlan::parse("panic@level:3").unwrap());
        let err = std::panic::catch_unwind(|| maybe_panic("level", 3)).expect_err("fires");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert_eq!(msg, "injected fault: panic@level:3");
        maybe_panic("level", 4); // selector miss: no panic
        clear_force();
    }
}
