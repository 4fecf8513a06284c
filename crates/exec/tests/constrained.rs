//! The determinism contract extended to constraint-aware jobs: a multi-start
//! batch of constrained pipelines is bit-identical at every thread count
//! (1, 4, 8), and every surviving start honors the fixed-module pins. The
//! runner is generic over the job closure, so constraints flow through by
//! capture — these tests pin down that nothing in the fan-out path can
//! perturb a constrained result.

use mlpart_core::{
    ml_bipartition, ml_kway, recursive_ml_partition, BudgetMeter, Constraints, MlConfig,
    MlKwayConfig, Request,
};
use mlpart_exec::run_starts;
use mlpart_fm::RefineWorkspace;
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{Hypergraph, HypergraphBuilder, ModuleId, PartId, Partition};

fn two_communities(half: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_unit_areas(2 * half);
    for base in [0, half] {
        for i in 0..half {
            b.add_net([base + i, base + (i + 1) % half]).unwrap();
            b.add_net([base + i, base + (i + 3) % half]).unwrap();
        }
    }
    b.add_net([half - 1, half]).unwrap();
    b.build().unwrap()
}

fn assert_pins(p: &Partition, fixed: &[(ModuleId, PartId)], ctx: &str) {
    for &(v, part) in fixed {
        assert_eq!(p.part(v), part, "{ctx}: module {v:?} moved");
    }
}

#[test]
fn constrained_bipartition_batch_is_thread_count_invariant() {
    let h = two_communities(48);
    let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1), (ModuleId::new(60), 0)]).unwrap();
    let cfg = MlConfig::default();
    let job = |rng: &mut MlRng, ws: &mut RefineWorkspace| {
        let (p, r) = ml_bipartition(
            &h,
            &cfg,
            rng,
            Request {
                constraints: Some(&c),
                workspace: Some(ws),
                ..Request::default()
            },
        )
        .expect("valid run");
        (p.assignment().to_vec(), r.cut)
    };
    let (seq, _) = run_starts(12, 7, 1, &job);
    for (i, (assignment, _)) in seq.iter().enumerate() {
        let p = Partition::from_assignment(&h, 2, assignment.clone()).unwrap();
        assert_pins(&p, c.fixed(), &format!("start {i}"));
    }
    for threads in [4, 8] {
        let (par, _) = run_starts(12, 7, threads, &job);
        assert_eq!(seq, par, "threads={threads}");
    }
}

#[test]
fn constrained_kway_batch_is_thread_count_invariant() {
    let h = two_communities(48);
    let c = Constraints::new(4, 0.2, vec![(ModuleId::new(3), 2), (ModuleId::new(50), 0)]).unwrap();
    let cfg = MlKwayConfig::default();
    let job = |rng: &mut MlRng, ws: &mut RefineWorkspace| {
        let (p, r) = ml_kway(
            &h,
            &cfg,
            rng,
            Request {
                constraints: Some(&c),
                workspace: Some(ws),
                ..Request::default()
            },
        )
        .expect("valid run");
        (p.assignment().to_vec(), r.cut)
    };
    let (seq, _) = run_starts(12, 11, 1, &job);
    for (i, (assignment, _)) in seq.iter().enumerate() {
        let p = Partition::from_assignment(&h, 4, assignment.clone()).unwrap();
        assert_pins(&p, c.fixed(), &format!("start {i}"));
    }
    for threads in [4, 8] {
        let (par, _) = run_starts(12, 11, threads, &job);
        assert_eq!(seq, par, "threads={threads}");
    }
}

#[test]
fn constrained_general_k_batch_is_thread_count_invariant() {
    let h = two_communities(36);
    let c = Constraints::new(3, 0.2, vec![(ModuleId::new(1), 2)]).unwrap();
    let cfg = MlConfig::default();
    let job = |rng: &mut MlRng, ws: &mut RefineWorkspace| {
        let (p, r) = recursive_ml_partition(
            &h,
            &cfg,
            rng,
            Request {
                constraints: Some(&c),
                meter: Some(&mut BudgetMeter::unlimited()),
                workspace: Some(ws),
            },
        )
        .expect("valid run");
        (p.assignment().to_vec(), r.cut)
    };
    let (seq, _) = run_starts(8, 29, 1, &job);
    for (i, (assignment, _)) in seq.iter().enumerate() {
        let p = Partition::from_assignment(&h, 3, assignment.clone()).unwrap();
        assert_pins(&p, c.fixed(), &format!("start {i}"));
    }
    for threads in [4, 8] {
        let (par, _) = run_starts(8, 29, threads, &job);
        assert_eq!(seq, par, "threads={threads}");
    }
}
