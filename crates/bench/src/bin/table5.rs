//! Regenerates **Table V**: `ML_F` for matching ratios R ∈ {1.0, 0.5, 0.33}
//! — minimum cut, average cut, and CPU time.
//!
//! Paper finding: slower coarsening (smaller R) lowers average cuts —
//! dramatically so on the largest circuits — at a noticeable CPU cost;
//! R = 0.5 and R = 0.33 are nearly indistinguishable.

use mlpart_bench::{algos, print_level_stats, sweeps, HarnessArgs};
use mlpart_core::{ml_bipartition, MlConfig, Request};
use mlpart_hypergraph::rng::seeded_rng;

fn main() {
    let args = HarnessArgs::from_env();
    let ok = sweeps::run_ratio_sweep("Table V — ML_F", &args, algos::ml_f_in);

    // Appendix: the per-level refinement trajectory of one representative
    // run (ML_F, R = 0.5) on the largest selected circuit, from the
    // instrumentation in `MlResult::level_stats`.
    if let Some(c) = args.circuits().iter().max_by_key(|c| c.modules) {
        let h = c.generate(args.seed);
        let mut rng = seeded_rng(args.seed);
        let (_, r) = ml_bipartition(
            &h,
            &MlConfig::fm().with_ratio(0.5),
            &mut rng,
            Request::default(),
        )
        .expect("valid run");
        print_level_stats(
            &format!(
                "per-level stats — {} (ML_F, R = 0.5, seed {})",
                c.name, args.seed
            ),
            &r.level_stats,
        );
    }
    std::process::exit(i32::from(!ok));
}
