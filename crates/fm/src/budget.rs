//! Deterministic effort budgets for refinement and the multilevel pipelines.
//!
//! A [`Budget`] bounds how much work a single start may spend — moves
//! applied, refinement passes, uncoarsening levels, and (optionally, off by
//! default) a soft wall-clock deadline. Enforcement is **cooperative**: the
//! engines consult a [`BudgetMeter`] only at pass and level boundaries, so a
//! budgeted run is a prefix of the unbudgeted pass sequence and the returned
//! partition is always the best-so-far solution — the multilevel method's
//! natural degradability (any level's solution projects to a valid final
//! partition).
//!
//! # Determinism
//!
//! The move/pass/level limits count deterministic algorithm state, so a
//! budgeted run is a pure function of `(netlist, config, budget, seed)` and
//! bit-identical at every thread count — each start accounts against its own
//! meter. The **soft deadline is explicitly non-normative**: it reads the
//! wall clock (the one exception, allowed by this module's `#[expect]`)
//! and may truncate at different boundaries on different machines. It is
//! `None` by default and must stay out of any reproducibility-sensitive
//! experiment; everything else in this module never touches a clock.
//!
//! # Fault injection
//!
//! Under the `fault` feature the checkpoints double as injection sites:
//! `panic@pass` / `panic@level` faults fire here, and `exhaust@pass` /
//! `exhaust@level` faults record an [`BudgetLimit::Injected`] truncation —
//! exercising exactly the code paths real budget exhaustion takes.

#![expect(
    clippy::disallowed_types,
    reason = "the soft wall-clock deadline is non-normative (off by default, documented as \
              machine-dependent); every reproducible limit counts moves, passes or levels"
)]

use mlpart_hypergraph::fault_point;

/// Effort bounds for one start. `None` fields are unlimited; the default
/// budget is fully unlimited and adds no overhead beyond a few compares per
/// pass boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budget {
    /// Maximum refinement moves applied (attempted moves, counted at pass
    /// boundaries; a pass in flight finishes before the limit is enforced).
    pub max_moves: Option<u64>,
    /// Maximum refinement passes across the whole start.
    pub max_passes: Option<u64>,
    /// Maximum uncoarsening levels refined; further levels still project
    /// and rebalance so the final partition stays valid and feasible.
    pub max_levels: Option<u64>,
    /// Soft wall-clock deadline in seconds. **Non-normative**: checked only
    /// at pass/level boundaries and dependent on machine speed, so two runs
    /// with the same seed may truncate differently. Off (`None`) by default.
    pub soft_deadline_secs: Option<f64>,
}

impl Budget {
    /// The unlimited budget (every field `None`).
    pub const UNLIMITED: Budget = Budget {
        max_moves: None,
        max_passes: None,
        max_levels: None,
        soft_deadline_secs: None,
    };

    /// True when no limit is set (the meter can skip all bookkeeping).
    pub fn is_unlimited(&self) -> bool {
        self.max_moves.is_none()
            && self.max_passes.is_none()
            && self.max_levels.is_none()
            && self.soft_deadline_secs.is_none()
    }
}

/// Which limit a truncated run hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLimit {
    /// `max_moves` reached.
    Moves,
    /// `max_passes` reached.
    Passes,
    /// `max_levels` reached.
    Levels,
    /// The non-normative soft deadline elapsed.
    Deadline,
    /// A fault-injection `exhaust` entry fired at this checkpoint.
    Injected,
}

impl BudgetLimit {
    /// Stable lowercase name for reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            BudgetLimit::Moves => "moves",
            BudgetLimit::Passes => "passes",
            BudgetLimit::Levels => "levels",
            BudgetLimit::Deadline => "deadline",
            BudgetLimit::Injected => "injected",
        }
    }
}

/// Record of a budget-truncated run: which limit fired and at which
/// checkpoint. Carried in pipeline results and surfaced in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// The limit that fired.
    pub limit: BudgetLimit,
    /// Checkpoint site name (`pass` or `level`).
    pub site: &'static str,
    /// Uncoarsening level at the checkpoint, when known.
    pub level: Option<u32>,
    /// Pass index at the checkpoint, when at a pass boundary.
    pub pass: Option<u32>,
}

/// Accumulates one start's spend against a [`Budget`] and answers the
/// cooperative checkpoints. Once any limit fires the meter stays exhausted:
/// every later checkpoint declines, so refinement stops but projection and
/// rebalancing continue to a valid final partition.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: Budget,
    moves: u64,
    passes: u64,
    levels: u64,
    /// Present only when a soft deadline is set (the sole wall-clock read).
    started: Option<std::time::Instant>,
    truncation: Option<Truncation>,
    /// Level context stamped onto pass-boundary truncation records.
    current_level: Option<u32>,
}

impl BudgetMeter {
    /// Creates a meter for `budget`. Reads the wall clock once, and only if
    /// a soft deadline is set.
    pub fn new(budget: &Budget) -> Self {
        BudgetMeter {
            budget: *budget,
            moves: 0,
            passes: 0,
            levels: 0,
            started: budget.soft_deadline_secs.map(|_| std::time::Instant::now()),
            truncation: None,
            current_level: None,
        }
    }

    /// A meter that never truncates (and never reads a clock).
    pub fn unlimited() -> Self {
        BudgetMeter::new(&Budget::UNLIMITED)
    }

    /// True once any limit has fired.
    pub fn exhausted(&self) -> bool {
        self.truncation.is_some()
    }

    /// The truncation record, if any limit has fired.
    pub fn truncation(&self) -> Option<Truncation> {
        self.truncation
    }

    /// Total attempted moves accounted so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Total passes accounted so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Sets the level context stamped onto pass-boundary truncations.
    pub fn set_level_context(&mut self, level: Option<u32>) {
        self.current_level = level;
    }

    fn truncate(&mut self, limit: BudgetLimit, site: &'static str, pass: Option<u32>) {
        if self.truncation.is_none() {
            self.truncation = Some(Truncation {
                limit,
                site,
                level: self.current_level,
                pass,
            });
        }
    }

    /// Shared limit checks for both checkpoint kinds.
    fn limits_fired(&self) -> Option<BudgetLimit> {
        if let Some(max) = self.budget.max_moves {
            if self.moves >= max {
                return Some(BudgetLimit::Moves);
            }
        }
        if let Some(max) = self.budget.max_passes {
            if self.passes >= max {
                return Some(BudgetLimit::Passes);
            }
        }
        if let (Some(deadline), Some(started)) = (self.budget.soft_deadline_secs, self.started) {
            if started.elapsed().as_secs_f64() >= deadline {
                return Some(BudgetLimit::Deadline);
            }
        }
        None
    }

    /// Checkpoint before starting refinement pass `pass`: returns `false`
    /// when the pass must not run. Doubles as the `pass` fault-injection
    /// site.
    pub fn pass_checkpoint(&mut self, pass: u32) -> bool {
        fault_point!("pass", u64::from(pass));
        if self.exhausted() {
            return false;
        }
        if fault_point!(should_exhaust("pass", u64::from(pass))) {
            self.truncate(BudgetLimit::Injected, "pass", Some(pass));
            return false;
        }
        if let Some(limit) = self.limits_fired() {
            self.truncate(limit, "pass", Some(pass));
            return false;
        }
        true
    }

    /// Accounts one finished pass and its attempted moves.
    pub fn note_pass(&mut self, attempted_moves: u64) {
        self.passes += 1;
        self.moves += attempted_moves;
    }

    /// Checkpoint before refining uncoarsening level `level`: returns
    /// `false` when the level's refinement must be skipped (projection and
    /// rebalancing still run). Doubles as the `level` fault-injection site.
    pub fn level_checkpoint(&mut self, level: u32) -> bool {
        fault_point!("level", u64::from(level));
        if self.exhausted() {
            return false;
        }
        if fault_point!(should_exhaust("level", u64::from(level))) {
            self.current_level = Some(level);
            self.truncate(BudgetLimit::Injected, "level", None);
            return false;
        }
        if let Some(max) = self.budget.max_levels {
            if self.levels >= max {
                self.current_level = Some(level);
                self.truncate(BudgetLimit::Levels, "level", None);
                return false;
            }
        }
        if let Some(limit) = self.limits_fired() {
            self.current_level = Some(level);
            self.truncate(limit, "level", None);
            return false;
        }
        true
    }

    /// Accounts one refined level.
    pub fn note_level(&mut self) {
        self.levels += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_truncates() {
        let mut m = BudgetMeter::unlimited();
        for pass in 0..1000 {
            assert!(m.pass_checkpoint(pass));
            m.note_pass(10_000);
        }
        for level in 0..100 {
            assert!(m.level_checkpoint(level));
            m.note_level();
        }
        assert!(!m.exhausted());
        assert_eq!(m.truncation(), None);
        assert!(Budget::UNLIMITED.is_unlimited());
        assert!(Budget::default().is_unlimited());
    }

    #[test]
    fn pass_limit_fires_at_the_boundary() {
        let mut m = BudgetMeter::new(&Budget {
            max_passes: Some(2),
            ..Budget::default()
        });
        assert!(m.pass_checkpoint(0));
        m.note_pass(5);
        assert!(m.pass_checkpoint(1));
        m.note_pass(5);
        assert!(!m.pass_checkpoint(2), "third pass declined");
        let t = m.truncation().expect("truncated");
        assert_eq!(t.limit, BudgetLimit::Passes);
        assert_eq!(t.site, "pass");
        assert_eq!(t.pass, Some(2));
        // Exhaustion is sticky across checkpoint kinds.
        assert!(!m.pass_checkpoint(3));
        assert!(!m.level_checkpoint(0));
        assert_eq!(m.truncation().unwrap().limit, BudgetLimit::Passes);
    }

    #[test]
    fn move_limit_counts_attempted_moves() {
        let mut m = BudgetMeter::new(&Budget {
            max_moves: Some(10),
            ..Budget::default()
        });
        assert!(m.pass_checkpoint(0));
        m.note_pass(7);
        assert!(m.pass_checkpoint(1), "under the limit");
        m.note_pass(7);
        assert!(!m.pass_checkpoint(2), "14 >= 10");
        assert_eq!(m.truncation().unwrap().limit, BudgetLimit::Moves);
        assert_eq!(m.moves(), 14);
        assert_eq!(m.passes(), 2);
    }

    #[test]
    fn zero_move_budget_blocks_the_first_pass() {
        let mut m = BudgetMeter::new(&Budget {
            max_moves: Some(0),
            ..Budget::default()
        });
        assert!(!m.pass_checkpoint(0));
        assert_eq!(m.truncation().unwrap().limit, BudgetLimit::Moves);
    }

    #[test]
    fn level_limit_blocks_refinement_and_stamps_context() {
        let mut m = BudgetMeter::new(&Budget {
            max_levels: Some(1),
            ..Budget::default()
        });
        assert!(m.level_checkpoint(4));
        m.note_level();
        assert!(!m.level_checkpoint(3));
        let t = m.truncation().expect("truncated");
        assert_eq!(t.limit, BudgetLimit::Levels);
        assert_eq!(t.site, "level");
        assert_eq!(t.level, Some(3));
    }

    #[test]
    fn pass_truncation_carries_level_context() {
        let mut m = BudgetMeter::new(&Budget {
            max_passes: Some(0),
            ..Budget::default()
        });
        m.set_level_context(Some(2));
        assert!(!m.pass_checkpoint(0));
        let t = m.truncation().unwrap();
        assert_eq!(t.level, Some(2));
        assert_eq!(t.pass, Some(0));
    }

    #[test]
    fn limit_names_are_stable() {
        assert_eq!(BudgetLimit::Moves.name(), "moves");
        assert_eq!(BudgetLimit::Passes.name(), "passes");
        assert_eq!(BudgetLimit::Levels.name(), "levels");
        assert_eq!(BudgetLimit::Deadline.name(), "deadline");
        assert_eq!(BudgetLimit::Injected.name(), "injected");
    }

    #[test]
    fn soft_deadline_is_off_by_default_and_reads_no_clock() {
        let m = BudgetMeter::new(&Budget::default());
        assert!(m.started.is_none(), "no Instant without a deadline");
        // An already-elapsed deadline truncates at the first checkpoint.
        let mut m = BudgetMeter::new(&Budget {
            soft_deadline_secs: Some(0.0),
            ..Budget::default()
        });
        assert!(!m.pass_checkpoint(0));
        assert_eq!(m.truncation().unwrap().limit, BudgetLimit::Deadline);
    }

    #[cfg(feature = "fault")]
    #[test]
    fn injected_exhaustion_records_injected_limit() {
        let _gate = mlpart_fault::test_lock();
        mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse("exhaust@pass:1").unwrap());
        let mut m = BudgetMeter::unlimited();
        assert!(m.pass_checkpoint(0));
        m.note_pass(3);
        assert!(!m.pass_checkpoint(1));
        assert_eq!(m.truncation().unwrap().limit, BudgetLimit::Injected);
        mlpart_fault::clear_force();
    }
}
