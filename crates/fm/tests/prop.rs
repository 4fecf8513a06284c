//! Property-based tests for the FM/CLIP engines and the gain-bucket
//! structure: refinement never worsens a solution, always respects balance,
//! reports cuts consistently, and the buckets behave like a priority
//! structure under arbitrary operation sequences.

use mlpart_fm::{
    fm_partition, refine, BucketPolicy, Engine, Filing, FmConfig, GainBuckets, OpenClasses,
    RefineRequest, RefineWorkspace,
};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, Hypergraph, HypergraphBuilder, ModuleId, PartBounds, Partition};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<usize>>)> {
    (2usize..32).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..6, n);
        let nets = proptest::collection::vec(proptest::collection::vec(0usize..n, 2..6), 1..50);
        (areas, nets)
    })
}

/// A weighted netlist of mostly two-pin nets (14 in 20), some of 3–6
/// pins, and a few of 7 or 12 pins, which a `max_net_size` of 6 hides from
/// the engine (duplicate pins merge, so a drawn net may come out smaller).
fn arb_edge_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<(Vec<usize>, u32)>)> {
    (4usize..40).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..6, n);
        let net = (
            0usize..20,
            proptest::collection::vec(0usize..n, 12),
            1u32..5,
        );
        let nets = proptest::collection::vec(net, 1..80).prop_map(|nets| {
            nets.into_iter()
                .map(|(kind, mut pins, weight)| {
                    pins.truncate(match kind {
                        0..=13 => 2,
                        14..=17 => kind - 11,
                        18 => 7,
                        _ => 12,
                    });
                    (pins, weight)
                })
                .collect()
        });
        (areas, nets)
    })
}

fn build(areas: Vec<u64>, nets: &[Vec<usize>]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for net in nets {
        b.add_net(net.iter().copied()).expect("in range");
    }
    b.build().expect("valid")
}

fn build_weighted(areas: Vec<u64>, nets: &[(Vec<usize>, u32)]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for (net, weight) in nets {
        b.add_weighted_net(net.iter().copied(), *weight)
            .expect("in range");
    }
    b.build().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn refinement_never_worsens_and_stays_feasible(
        (areas, nets) in arb_netlist(),
        engine_clip in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let h = build(areas, &nets);
        let cfg = FmConfig {
            engine: if engine_clip { Engine::Clip } else { Engine::Fm },
            ..FmConfig::default()
        };
        let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
        let mut rng = seeded_rng(seed);
        // Start from a feasible random solution.
        let p0 = Partition::random(&h, 2, &mut rng);
        prop_assume!(balance.is_partition_feasible(&p0));
        let start_cut = metrics::cut(&h, &p0);
        let mut p = p0;
        let r = refine(&h, &mut p, &cfg, &mut rng, RefineRequest::default()).unwrap();
        prop_assert!(r.cut <= start_cut, "cut worsened: {} -> {}", start_cut, r.cut);
        prop_assert!(balance.is_partition_feasible(&p), "balance violated");
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        prop_assert!(p.validate(&h));
    }

    #[test]
    fn result_statistics_are_consistent(
        (areas, nets) in arb_netlist(),
        seed in 0u64..1000,
    ) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(seed);
        let cfg = FmConfig::default();
        let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        prop_assert!(r.internal_cut <= r.cut);
        prop_assert!(r.kept_moves <= r.attempted_moves);
        prop_assert!(r.passes >= 1);
        // Selection checks a move's feasibility before making it.
        for s in &r.pass_stats {
            prop_assert!(s.inspected >= s.attempted_moves as u64);
        }
    }

    #[test]
    fn policies_agree_on_reachability(
        (areas, nets) in arb_netlist(),
        seed in 0u64..200,
    ) {
        // All three policies must produce valid, feasible solutions (quality
        // differs; correctness must not).
        let h = build(areas, &nets);
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            let cfg = FmConfig { policy, ..FmConfig::default() };
            let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
            prop_assert!(balance.is_partition_feasible(&p));
            prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn buckets_behave_like_priority_structure(
        ops in proptest::collection::vec((0u8..3, 0usize..16, -5i32..=5, 0usize..4), 1..200),
        policy in 0usize..3,
        classes in 1usize..=4,
        merged in any::<bool>(),
        mask in any::<u32>(),
        open_mask in 0u32..16,
        floor in -6i32..=5,
    ) {
        // Model-based test over every policy, both filings and 1–4
        // classes: mirror GainBuckets with one list per bucket, i.e. each
        // module's key, class and insertion stamp, and open the classes in
        // `open_mask`. After every operation the structure must report each
        // module's class, and a tallied LIFO/FIFO structure must count each
        // (key, class) as the model does. Under a feasibility mask (bit `v`
        // of `mask`), LIFO and FIFO must pick the first feasible open-class
        // member in the single list's order (newest stamp first under LIFO,
        // oldest first under FIFO) without checking a closed-class member,
        // and `bucket_members` must list the open classes in that order.
        // Random ignores classes: its pick must be a feasible member of the
        // highest bucket that has one, and each bucket must hold exactly the
        // model's members for its key (a stale position after a
        // swap-remove shows up here). Selection walks only the keys above
        // `floor` (every key at −6) and checks no member at or below it.
        let floor = (floor > -6).then_some(floor);
        let above = |key: i32| floor.is_none_or(|f| key > f);
        let policy = [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random][policy];
        let filing = if merged { Filing::Merged } else { Filing::Tallied };
        let feasible = move |v: ModuleId| (mask >> v.index()) & 1 == 1;
        let open: Vec<bool> = (0..classes).map(|c| (open_mask >> c) & 1 == 1).collect();
        let mut b = GainBuckets::new(16, 5, policy, classes, filing);
        let mut stamps = vec![0u32; 16];
        let mut clock = 0u32;
        let mut model: std::collections::BTreeMap<usize, (i32, usize)> = Default::default();
        let mut rng = seeded_rng(0);
        for (op, vi, key, class) in ops {
            let v = ModuleId::new(vi);
            match op {
                0 => {
                    model.entry(vi).or_insert_with(|| {
                        let class = class % classes;
                        clock += 1;
                        stamps[vi] = clock;
                        b.insert(v, class, key);
                        (key, class)
                    });
                }
                1 => {
                    if model.remove(&vi).is_some() {
                        b.remove(v);
                    }
                }
                _ => {
                    if let Some(entry) = model.get_mut(&vi) {
                        clock += 1;
                        stamps[vi] = clock;
                        b.update_key(v, key);
                        entry.0 = key;
                    }
                }
            }
            prop_assert_eq!(b.len(), model.len());
            for u in 0..16 {
                prop_assert_eq!(b.class_of(ModuleId::new(u)), model.get(&u).map(|e| e.1));
            }
            let tallied = policy != BucketPolicy::Random && filing == Filing::Tallied;
            for key in -5..=5 {
                for c in 0..classes {
                    let n = model.values().filter(|&&(k, cl)| k == key && cl == c).count();
                    let want = tallied.then_some(n as u32);
                    prop_assert_eq!(b.tally(key, c), want, "key {} class {}", key, c);
                }
            }
            // The open-class members of bucket `key` in single-list order.
            let single_list = |key: i32| -> Vec<usize> {
                let mut members: Vec<usize> = model
                    .iter()
                    .filter(|&(_, &(k, c))| k == key && open[c])
                    .map(|(&v, _)| v)
                    .collect();
                members.sort_by_key(|&v| stamps[v]);
                if policy == BucketPolicy::Lifo {
                    members.reverse();
                }
                members
            };
            let view = OpenClasses::new(&open, &stamps);
            let (mut checked_closed, mut checked_below) = (None, None);
            let got = b.select_above(&mut rng, view, floor, |v| {
                let (key, class) = model[&v.index()];
                if !open[class] {
                    checked_closed = Some(v);
                }
                if !above(key) {
                    checked_below = Some(v);
                }
                feasible(v)
            });
            prop_assert_eq!(checked_below, None, "member at or below the floor checked");
            if policy != BucketPolicy::Random {
                prop_assert_eq!(checked_closed, None, "closed-class member checked");
            }
            if policy == BucketPolicy::Random {
                let best = model
                    .iter()
                    .filter(|&(&v, &(k, _))| above(k) && feasible(ModuleId::new(v)))
                    .map(|(_, &(k, _))| k)
                    .max();
                match (got, best) {
                    (None, None) => {}
                    (Some(m), Some(max)) => {
                        prop_assert!(feasible(m), "infeasible {:?} selected", m);
                        prop_assert_eq!(b.key_of(m), max);
                        prop_assert_eq!(model[&m.index()].0, max);
                    }
                    (got, want) => {
                        prop_assert!(false, "selected {:?}, best feasible key {:?}", got, want)
                    }
                }
            } else {
                let want = (-5..=5)
                    .rev()
                    .filter(|&key| above(key))
                    .find_map(|key| single_list(key).into_iter().find(|&v| feasible(ModuleId::new(v))));
                prop_assert_eq!(got.map(|m| m.index()), want);
            }
            for key in -5..=5 {
                let mut got: Vec<usize> =
                    b.bucket_members(key, view).iter().map(|m| m.index()).collect();
                let want = if policy == BucketPolicy::Random {
                    got.sort_unstable();
                    let mut all: Vec<usize> =
                        model.iter().filter(|&(_, &(k, _))| k == key).map(|(&v, _)| v).collect();
                    all.sort_unstable();
                    all
                } else {
                    single_list(key)
                };
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn side_gated_refinement_under_random_windows(
        (areas, nets) in arb_netlist(),
        sides in proptest::collection::vec(any::<bool>(), 32),
        pins in proptest::collection::vec(0u8..4, 32),
        window in (0u64..=100, 0u64..=100, 0u64..=100, 0u64..=100),
        fifo in any::<bool>(),
        clip in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // The side gate of LIFO/FIFO selection on tiny netlists with random
        // areas, per-side windows (percentages of the total area, so the
        // start is often outside them) and pins (modules drawn 0 stay on
        // their start side). Built with `--features audit`, every pick made
        // with a side closed is re-run without the gate and must choose the
        // same module, and each pass start recounts the side tallies. In
        // every build: pins stay put, the reported cut is the partition's,
        // every pick was checked, and since each move is checked before it
        // is made, a run that keeps any move ends inside the windows (one
        // that keeps none returns its start).
        #[cfg(feature = "audit")]
        mlpart_audit::force_enabled(true);
        let h = build(areas, &nets);
        let n = h.num_modules();
        let total = h.total_area();
        let pct = |x: u64| total * x / 100;
        let (a, b, c, d) = window;
        let bounds = PartBounds::new(
            vec![pct(a.min(b)), pct(c.min(d))],
            vec![pct(a.max(b)), pct(c.max(d))],
        );
        let assignment: Vec<u32> = (0..n).map(|i| u32::from(sides[i % 32])).collect();
        let p0 = Partition::from_assignment(&h, 2, assignment).expect("valid");
        let fixed: Vec<(ModuleId, u32)> = (0..n)
            .filter(|&i| pins[i % 32] == 0)
            .map(|i| (ModuleId::new(i), p0.part(ModuleId::new(i))))
            .collect();
        let cfg = FmConfig {
            engine: if clip { Engine::Clip } else { Engine::Fm },
            policy: if fifo { BucketPolicy::Fifo } else { BucketPolicy::Lifo },
            ..FmConfig::default()
        };
        let mut p = p0.clone();
        let req = RefineRequest {
            bounds: Some(&bounds),
            fixed: &fixed,
            ..RefineRequest::default()
        };
        let r = refine(&h, &mut p, &cfg, &mut seeded_rng(seed), req).unwrap();
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        for &(v, side) in &fixed {
            prop_assert_eq!(p.part(v), side);
        }
        for s in &r.pass_stats {
            prop_assert!(s.inspected >= s.attempted_moves as u64);
        }
        if r.kept_moves > 0 {
            prop_assert!(bounds.is_partition_feasible(&p), "areas {:?}", p.part_areas());
        } else {
            prop_assert_eq!(p.assignment(), p0.assignment());
        }
    }

    #[test]
    fn edge_heavy_weighted_refinement_under_every_discipline(
        (areas, nets) in arb_edge_netlist(),
        sides in proptest::collection::vec(any::<bool>(), 40),
        pins in proptest::collection::vec(0u8..6, 40),
        seed in 0u64..1000,
    ) {
        // The two-pin update path and the net-major gain init under every
        // bucket policy and both gain disciplines, with pins (modules drawn 0) and invisible large nets.
        // Built with `--features audit`, every pass start and every move
        // re-derives the gains, keys and pin counts the updates wrote. In
        // every build: the engine's running cut of its final pass is the
        // visible cut of the result, no pass worsens it, the result stays in
        // the ratio window and pins stay put.
        #[cfg(feature = "audit")]
        mlpart_audit::force_enabled(true);
        let h = build_weighted(areas, &nets);
        let n = h.num_modules();
        let assignment: Vec<u32> = (0..n).map(|i| u32::from(sides[i])).collect();
        let p0 = Partition::from_assignment(&h, 2, assignment).expect("valid");
        let balance = PartBounds::from_epsilon(&h, 2, 0.2);
        prop_assume!(balance.is_partition_feasible(&p0));
        let fixed: Vec<(ModuleId, u32)> = (0..n)
            .filter(|&i| pins[i] == 0)
            .map(|i| (ModuleId::new(i), p0.part(ModuleId::new(i))))
            .collect();
        let start = metrics::cut_with_net_size_limit(&h, &p0, 6);
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            for engine in [Engine::Fm, Engine::Clip] {
                let cfg = FmConfig {
                    engine,
                    policy,
                    max_net_size: 6,
                    ..FmConfig::default()
                };
                let mut p = p0.clone();
                let req = RefineRequest { fixed: &fixed, ..RefineRequest::default() };
                let r = refine(&h, &mut p, &cfg, &mut seeded_rng(seed), req).unwrap();
                let what = format!("{policy} {engine}");
                prop_assert_eq!(r.cut, metrics::cut(&h, &p), "{}", what);
                let visible = metrics::cut_with_net_size_limit(&h, &p, 6);
                prop_assert_eq!(r.internal_cut, visible, "{}", what);
                let last = r.pass_stats.last().map(|s| s.cut_after);
                prop_assert_eq!(last, Some(visible), "{}", what);
                prop_assert!(visible <= start, "{}: {} -> {}", what, start, visible);
                prop_assert!(balance.is_partition_feasible(&p), "{}", what);
                for &(v, side) in &fixed {
                    prop_assert_eq!(p.part(v), side, "{}", what);
                }
            }
        }
    }

    #[test]
    fn refining_the_complement_returns_the_complement(
        (areas, nets) in arb_edge_netlist(),
        sides in proptest::collection::vec(any::<bool>(), 40),
        pins in proptest::collection::vec(0u8..6, 40),
        seed in 0u64..1000,
    ) {
        // Side-swap equivariance: the ratio window is the same for both
        // sides, and the fill, gains, keys, feasibility and side gate never
        // tell the sides apart. So refining the complement of `p0`, with
        // every pin on its opposite side, must return the complement of
        // refining `p0`, with an equal `FmResult` (so equal `PassStats`),
        // under every bucket policy and both gain disciplines, with and
        // without pins (modules drawn 0).
        let h = build_weighted(areas, &nets);
        let n = h.num_modules();
        let flip = |p: &Partition| {
            let swapped = p.assignment().iter().map(|&s| 1 - s).collect();
            Partition::from_assignment(&h, 2, swapped).expect("valid")
        };
        let p0 = Partition::from_assignment(&h, 2, (0..n).map(|i| u32::from(sides[i])).collect())
            .expect("valid");
        prop_assume!(PartBounds::from_epsilon(&h, 2, 0.2).is_partition_feasible(&p0));
        let pinned: Vec<(ModuleId, u32)> = (0..n)
            .filter(|&i| pins[i] == 0)
            .map(|i| (ModuleId::new(i), p0.part(ModuleId::new(i))))
            .collect();
        for fixed in [Vec::new(), pinned] {
            let fixed_flipped: Vec<(ModuleId, u32)> =
                fixed.iter().map(|&(v, s)| (v, 1 - s)).collect();
            for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
                for engine in [Engine::Fm, Engine::Clip] {
                    let cfg = FmConfig {
                        engine,
                        policy,
                        max_net_size: 6,
                        ..FmConfig::default()
                    };
                    let mut p = p0.clone();
                    let req = RefineRequest { fixed: &fixed, ..RefineRequest::default() };
                    let r = refine(&h, &mut p, &cfg, &mut seeded_rng(seed), req).unwrap();
                    let mut q = flip(&p0);
                    let req = RefineRequest { fixed: &fixed_flipped, ..RefineRequest::default() };
                    let rq = refine(&h, &mut q, &cfg, &mut seeded_rng(seed), req).unwrap();
                    let what = format!("{policy} {engine} pins {}", fixed.len());
                    let want = flip(&p);
                    prop_assert_eq!(q.assignment(), want.assignment(), "{}", what);
                    prop_assert_eq!(&rq, &r, "{}", what);
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation(
        (areas, nets) in arb_netlist(),
        engine_clip in any::<bool>(),
        random in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // The engine runs on a shared, reused `RefineState`; a request
        // without a workspace gets a fresh one. For any netlist and seed, a
        // workspace that has already been bound to *other* problems must
        // yield the same move sequence, cut, and per-pass statistics as a
        // throwaway workspace — under LIFO lists and under Random's dense
        // buckets, which `reset` must empty.
        let h = build(areas, &nets);
        let cfg = FmConfig {
            engine: if engine_clip { Engine::Clip } else { Engine::Fm },
            policy: if random { BucketPolicy::Random } else { BucketPolicy::Lifo },
            ..FmConfig::default()
        };
        let mut ws = RefineWorkspace::new();
        // Dirty the workspace on an unrelated problem so reuse is real.
        {
            let dirty = build(vec![1, 2, 3], &[vec![0, 1], vec![1, 2]]);
            let mut rng = seeded_rng(seed ^ 0xdead);
            fm_partition(&dirty, &cfg, &mut rng, RefineRequest::reusing(&mut ws)).unwrap();
        }

        let mut rng_a = seeded_rng(seed);
        let fresh = RefineRequest::default();
        let (p_fresh, r_fresh) = fm_partition(&h, &cfg, &mut rng_a, fresh).unwrap();
        let mut rng_b = seeded_rng(seed);
        let reuse = RefineRequest::reusing(&mut ws);
        let (p_reuse, r_reuse) = fm_partition(&h, &cfg, &mut rng_b, reuse).unwrap();
        prop_assert_eq!(p_fresh.assignment(), p_reuse.assignment());
        prop_assert_eq!(&r_fresh, &r_reuse);

        // Same property for pure refinement from a shared starting point.
        let mut rng = seeded_rng(seed.wrapping_add(1));
        let p0 = Partition::random(&h, 2, &mut rng);
        let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
        prop_assume!(balance.is_partition_feasible(&p0));
        let mut p1 = p0.clone();
        let mut p2 = p0;
        let mut rng1 = seeded_rng(seed);
        let r1 = refine(&h, &mut p1, &cfg, &mut rng1, RefineRequest::default()).unwrap();
        let mut rng2 = seeded_rng(seed);
        let r2 = refine(&h, &mut p2, &cfg, &mut rng2, RefineRequest::reusing(&mut ws)).unwrap();
        prop_assert_eq!(p1.assignment(), p2.assignment());
        prop_assert_eq!(r1.cut, r2.cut);
        prop_assert_eq!(r1.kept_moves, r2.kept_moves);
        prop_assert_eq!(r1.attempted_moves, r2.attempted_moves);
        prop_assert_eq!(&r1.pass_stats, &r2.pass_stats);
    }

    #[test]
    fn clip_and_fm_find_equal_or_better_than_initial_on_feasible_start(
        (areas, nets) in arb_netlist(),
        assignment_bits in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let h = build(areas, &nets);
        let assignment: Vec<u32> = (0..h.num_modules())
            .map(|i| u32::from(assignment_bits[i % assignment_bits.len()]))
            .collect();
        let p0 = Partition::from_assignment(&h, 2, assignment).expect("valid");
        let balance = PartBounds::from_epsilon(&h, 2, 0.2);
        prop_assume!(balance.is_partition_feasible(&p0));
        let start = metrics::cut(&h, &p0);
        for engine in [Engine::Fm, Engine::Clip] {
            let cfg = FmConfig { engine, ..FmConfig::default() };
            let mut rng = seeded_rng(5);
            let mut p = p0.clone();
            let r = refine(&h, &mut p, &cfg, &mut rng, RefineRequest::default()).unwrap();
            prop_assert!(r.cut <= start);
        }
    }
}
