//! Sweeps the constraint-generic drivers over k ∈ {2, 4, 8} × ε ∈ {0.02,
//! 0.10} on the selected suite — the cost surface the constraint model adds
//! on top of the paper's fixed k = 2/4, r = 0.1 tables.
//!
//! Every cell pins two modules to opposite parts so the fixed-terminal path
//! is exercised end to end (the wrappers assert the pins held), and re-runs
//! the batch at one and four worker threads to recheck the executor's
//! bit-identity contract on the constrained code paths. Emits one JSON line
//! per (circuit, k, ε) cell plus a `meta` line (committed as
//! `results/kway_eps.json`); exits non-zero on any determinism violation.

use mlpart_bench::{algos, run_many_par, with_report, HarnessArgs};
use mlpart_hypergraph::rng::child_seed;
use mlpart_hypergraph::{Constraints, ModuleId};

const KS: [u32; 3] = [2, 4, 8];
const EPSILONS: [f64; 2] = [0.02, 0.10];

fn main() {
    let args = HarnessArgs::from_env();
    let ok = with_report(&args, "table_kway_eps", || sweep(&args));
    std::process::exit(i32::from(!ok));
}

fn sweep(args: &HarnessArgs) -> bool {
    println!(
        "{{\"group\":\"kway_eps\",\"bench\":\"meta\",\"runs_per_cell\":{},\
         \"seed\":{},\"note\":\"two modules pinned to opposite parts per \
         cell; each cell re-run at 1 and 4 threads and compared \
         bit-for-bit\"}}",
        args.runs, args.seed
    );
    let mut ok = true;
    for (ci, c) in args.circuits().iter().enumerate() {
        let h = c.generate(args.seed);
        for (ki, &k) in KS.iter().enumerate() {
            for (ei, &eps) in EPSILONS.iter().enumerate() {
                // Pin the first module to the last part and a mid-netlist
                // module to part 0 — far apart in every circuit generator's
                // layout, so the pins genuinely constrain the partition.
                let pins = vec![
                    (ModuleId::new(0), k - 1),
                    (ModuleId::new(h.num_modules() / 2), 0),
                ];
                let cons = Constraints::new(k, eps, pins).expect("pins in range, ε > 0");
                let cell = (ci * KS.len() + ki) * EPSILONS.len() + ei;
                let seed = child_seed(args.seed, 7_000 + cell as u64);
                let job =
                    |rng: &mut _, ws: &mut _| algos::ml_constrained_in(&h, 0.5, &cons, rng, ws);
                let stats = run_many_par(args.runs, seed, 1, job);
                let par = run_many_par(args.runs, seed, 4, job);
                if stats != par {
                    eprintln!(
                        "DETERMINISM VIOLATION: {} k={k} eps={eps} changed \
                         cut statistics between 1 and 4 threads",
                        c.name
                    );
                    ok = false;
                }
                println!(
                    "{{\"group\":\"kway_eps\",\"bench\":\"{}/k{k}/eps{eps}\",\
                     \"min_cut\":{},\"avg_cut\":{:.2},\"cpu_secs\":{:.6},\
                     \"wall_secs\":{:.6}}}",
                    c.name, stats.cut.min, stats.cut.avg, stats.cpu_secs, stats.wall_secs,
                );
            }
        }
    }
    ok
}
