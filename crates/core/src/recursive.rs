//! Recursive multilevel bisection: the classic alternative to direct k-way
//! partitioning.
//!
//! The paper partitions 4 ways *directly* with a Sanchis-style engine
//! (§III-C); most placement flows of the era instead quadrisected by
//! bisecting twice. This module provides that alternative, for any `k`, so
//! the two strategies can be compared (see the `ablation` harness binary):
//! each side of an ML bisection is extracted as a sub-netlist and bisected
//! again, recursively, until every region is a single part.

use crate::error::{expect_valid, PipelineError};
use crate::ml::MlConfig;
use crate::vcycle::{Bisect, Ctx, Cycle, Pinned, Request, Window};
use mlpart_fm::{BudgetMeter, RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    adapted_epsilon, audit, metrics, obs_span, Constraints, Hypergraph, ModuleId, PartId, Partition,
};

/// Statistics from a recursive bisection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecursiveResult {
    /// Final k-way cut (all nets counted, measured on the original netlist).
    pub cut: u64,
    /// Final `Σ_e (span(e) − 1)`.
    pub sum_of_degrees: u64,
    /// Number of bisections performed (`k − 1` unless a region became too
    /// small to split).
    pub bisections: usize,
    /// `Some` when a budget limit fired during any region's bisection; the
    /// budget is shared across all regions, so later bisections degrade to
    /// projected (unrefined) splits.
    pub truncation: Option<Truncation>,
}

impl RecursiveResult {
    fn new(h: &Hypergraph, p: &Partition, bisections: usize, meter: &BudgetMeter) -> Self {
        RecursiveResult {
            cut: metrics::cut(h, p),
            sum_of_degrees: metrics::sum_of_spans_minus_one(h, p),
            bisections,
            truncation: meter.truncation(),
        }
    }
}

/// Partitions `h` into an **arbitrary** `k` parts by recursive ML bisection
/// under the constrained schedule; `req.constraints` is required and gives
/// `k`, ε and the pins.
///
/// The driver splits each region `⌈k/2⌉ : ⌊k/2⌋` with an area target
/// proportional to the part counts, runs every bisection under the
/// per-level tolerance `ε′ = (1 + ε)^(1/⌈log₂ k⌉) − 1` ([`adapted_epsilon`])
/// so the composed imbalance never exceeds the requested ε, and routes each
/// fixed module to whichever side of a split contains its pinned part.
/// Regions with fewer than two modules are left whole, so a part may be
/// empty on degenerate inputs. A budget in `req` is shared by every region:
/// once it is exhausted, the remaining regions still split, unrefined,
/// keeping the `k`-part shape.
///
/// # Errors
///
/// [`PipelineError::Unsupported`] when `req` carries no constraints;
/// [`PipelineError::Constraints`] when a pin is out of range;
/// [`PipelineError::Netlist`] when a region sub-netlist fails extraction;
/// plus anything a region's bisection reports.
///
/// # Examples
///
/// ```
/// use mlpart_core::{recursive_ml_partition, MlConfig, Request};
/// use mlpart_hypergraph::{Constraints, HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(60);
/// for i in 0..59 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let c = Constraints::new(3, 0.1, vec![])?;
/// let req = Request { constraints: Some(&c), ..Request::default() };
/// let (p, r) = recursive_ml_partition(&h, &MlConfig::default(), &mut seeded_rng(4), req)?;
/// assert_eq!(p.k(), 3);
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// # Ok(())
/// # }
/// ```
pub fn recursive_ml_partition(
    h: &Hypergraph,
    cfg: &MlConfig,
    rng: &mut MlRng,
    req: Request<'_>,
) -> Result<(Partition, RecursiveResult), PipelineError> {
    let Some(c) = req.constraints else {
        return Err(PipelineError::Unsupported(
            "recursive_ml_partition needs constraints: they give k",
        ));
    };
    let k = c.k();
    let n = h.num_modules();
    c.check_modules(n)?;
    obs_span!("recursive_partition", "k" => k, "modules" => n, "fixed" => c.fixed().len());
    req.with(rng, |_, cx| {
        let mut split = Split {
            h,
            cfg,
            pins: c,
            epsilon: adapted_epsilon(c.epsilon(), k),
            region: vec![0u32; n],
            bisections: 0,
        };
        let members: Vec<u32> = (0..n as u32).collect();
        split.region(&members, 0, k, cx)?;
        let p = Partition::from_assignment(h, k, split.region)
            .ok_or(PipelineError::InvalidRegionIds { k })?;
        audit!(
            mlpart_audit::audit_partition(h, &p),
            mlpart_audit::audit_fixed_assignment(&p, c.fixed()),
        );
        let result = RecursiveResult::new(h, &p, split.bisections, cx.meter);
        Ok((p, result))
    })
}

/// [`recursive_ml_partition`] with caller-owned scratch and budget,
/// panicking on invalid input.
///
/// # Panics
///
/// Panics where [`recursive_ml_partition`] returns an error.
pub fn recursive_ml_partition_budgeted_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    meter: &mut BudgetMeter,
) -> (Partition, RecursiveResult) {
    let req = Request {
        constraints: Some(constraints),
        meter: Some(meter),
        workspace: Some(ws),
    };
    expect_valid(recursive_ml_partition(h, cfg, rng, req))
}

/// The state of one general-k recursion: final part ids land in `region`.
struct Split<'a> {
    h: &'a Hypergraph,
    cfg: &'a MlConfig,
    pins: &'a Constraints,
    epsilon: f64,
    region: Vec<u32>,
    bisections: usize,
}

impl Split<'_> {
    /// Assigns `members` the final part ids `part_base .. part_base +
    /// k_region`, bisecting `⌈k/2⌉ : ⌊k/2⌋` until regions are single parts.
    /// Regions recurse low side first, so the RNG schedule is a pure
    /// function of the inputs.
    fn region(
        &mut self,
        members: &[u32],
        part_base: u32,
        k_region: u32,
        cx: &mut Ctx<'_>,
    ) -> Result<(), PipelineError> {
        if k_region == 1 || members.len() < 2 {
            // A single part, or too small to bisect: pins keep their parts,
            // free modules take the region's first part.
            for &v in members {
                let pin = self.pins.part_of(ModuleId::from(v));
                self.region[v as usize] = pin.unwrap_or(part_base);
            }
            return Ok(());
        }
        let k_lo = k_region - k_region / 2; // ⌈k/2⌉ parts on side 0
        let mut keep = vec![false; self.h.num_modules()];
        for &v in members {
            keep[v as usize] = true;
        }
        let (sub, back) = self.h.extract(&keep)?;
        obs_span!(
            "region",
            "part_base" => part_base,
            "k_region" => k_region,
            "modules" => members.len(),
        );
        // A pin belongs to side 0 iff its part falls in the low part range.
        let boundary = part_base + k_lo;
        let sub_fixed: Vec<(ModuleId, PartId)> = back
            .iter()
            .enumerate()
            .filter_map(|(sub_v, &orig)| {
                let pin = self.pins.part_of(orig)?;
                Some((ModuleId::new(sub_v), u32::from(pin >= boundary)))
            })
            .collect();
        let target0 = ((sub.total_area() as u128 * k_lo as u128) / k_region as u128) as u64;
        let window = Window::Split {
            target0,
            epsilon: self.epsilon,
        };
        let cycle = Cycle {
            refiner: Bisect(&self.cfg.fm),
            pins: Some(Pinned {
                fixed: &sub_fixed,
                window,
            }),
        };
        let (sub_p, _) = cycle.run(&sub, self.cfg, cx)?;
        self.bisections += 1;
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for (&side, &orig) in sub_p.assignment().iter().zip(&back) {
            let half = if side == 0 { &mut low } else { &mut high };
            half.push(orig.raw());
        }
        self.region(&low, part_base, k_lo, cx)?;
        self.region(&high, boundary, k_region / 2, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::ml_bipartition;
    use mlpart_fm::{Budget, BudgetLimit};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn four_communities(size: usize) -> Hypergraph {
        let n = 4 * size;
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for c in 0..4usize {
            let base = size * c;
            for i in 0..size {
                b.add_net([base + i, base + (i + 1) % size]).unwrap();
                b.add_net([base + i, base + (i + 5) % size]).unwrap();
            }
            b.add_net([base + size - 1, (base + size) % n]).unwrap();
        }
        b.build().unwrap()
    }

    fn general(h: &Hypergraph, c: &Constraints, seed: u64) -> (Partition, RecursiveResult) {
        let req = Request {
            constraints: Some(c),
            ..Request::default()
        };
        recursive_ml_partition(h, &MlConfig::default(), &mut seeded_rng(seed), req).unwrap()
    }

    #[test]
    fn two_parts_equal_constrained_bisection() {
        let h = four_communities(16);
        let c = Constraints::unconstrained(2);
        for seed in 0..6 {
            let (p1, r1) = general(&h, &c, seed);
            let req = Request {
                constraints: Some(&c),
                ..Request::default()
            };
            let cfg = MlConfig::default();
            let (p2, r2) = ml_bipartition(&h, &cfg, &mut seeded_rng(seed), req).unwrap();
            assert_eq!(p1.assignment(), p2.assignment(), "seed {seed}");
            assert_eq!(r1.cut, r2.cut, "seed {seed}");
            assert_eq!(r1.bisections, 1);
        }
    }

    #[test]
    fn handles_tiny_netlists() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0, 1]).unwrap();
        b.add_net([1, 2]).unwrap();
        let h = b.build().unwrap();
        let (p, _) = general(&h, &Constraints::unconstrained(8), 0);
        assert_eq!(p.k(), 8);
        assert!(p.validate(&h));
    }

    #[test]
    fn budgeted_recursion_shares_one_meter_across_regions() {
        let h = four_communities(32);
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(2),
            ..Budget::default()
        });
        let c = Constraints::unconstrained(4);
        let req = Request {
            constraints: Some(&c),
            meter: Some(&mut meter),
            ..Request::default()
        };
        let cfg = MlConfig::default();
        let (p, r) = recursive_ml_partition(&h, &cfg, &mut seeded_rng(3), req).unwrap();
        // Two passes cannot cover three bisections' V-cycles.
        assert_eq!(
            r.truncation.expect("must truncate").limit,
            BudgetLimit::Passes
        );
        assert_eq!(p.k(), 4, "shape is preserved under exhaustion");
        assert!(p.validate(&h));
        assert_eq!(r.bisections, 3, "exhausted regions still split");
    }

    #[test]
    fn rejects_a_request_without_constraints() {
        let h = four_communities(8);
        let cfg = MlConfig::default();
        let err = recursive_ml_partition(&h, &cfg, &mut seeded_rng(0), Request::default());
        assert!(matches!(err, Err(PipelineError::Unsupported(_))));
    }

    #[test]
    fn general_k_produces_exactly_k_near_even_parts() {
        let h = four_communities(30); // 120 unit modules
        for k in [3u32, 5, 6] {
            let (p, r) = general(&h, &Constraints::unconstrained(k), 5);
            assert_eq!(p.k(), k);
            assert!(p.validate(&h));
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert_eq!(r.bisections, k as usize - 1, "k−1 bisections for k={k}");
            let target = h.total_area() / k as u64;
            for (part, &area) in p.part_areas().iter().enumerate() {
                assert!(
                    area >= target / 2 && area <= target * 2,
                    "k={k} part {part} area {area} far from target {target}: {:?}",
                    p.part_areas()
                );
            }
        }
    }

    #[test]
    fn general_k_honors_pins() {
        let h = four_communities(30);
        let pins = vec![
            (ModuleId::new(0), 4),
            (ModuleId::new(31), 0),
            (ModuleId::new(64), 2),
            (ModuleId::new(119), 1),
        ];
        let c = Constraints::new(5, 0.2, pins).unwrap();
        for seed in 0..4 {
            let (p, _) = general(&h, &c, seed);
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert!(p.validate(&h));
        }
    }

    #[test]
    fn general_k_is_deterministic_given_seed() {
        let h = four_communities(20);
        let c = Constraints::new(3, 0.1, vec![(ModuleId::new(2), 1)]).unwrap();
        let (p1, r1) = general(&h, &c, 17);
        let (p2, r2) = general(&h, &c, 17);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn general_k_power_of_two_matches_quadrant_structure() {
        let h = four_communities(25);
        let c = Constraints::unconstrained(4);
        let best = (0..5).map(|s| general(&h, &c, s).1.cut).min().unwrap();
        assert!(best <= 10, "best={best}");
    }

    #[test]
    fn general_k_one_part_puts_everything_in_part_zero() {
        let h = four_communities(8);
        let (p, r) = general(&h, &Constraints::unconstrained(1), 0);
        assert_eq!(p.k(), 1);
        assert_eq!(r.bisections, 0);
        assert_eq!(r.cut, 0);
    }
}
