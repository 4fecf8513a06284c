//! Regenerates **Table IX**: 4-way partitioning — multilevel quadrisection
//! (`ML_F`, R = 1.0, T = 100) vs GORDIAN-style placement-derived
//! quadrisection vs flat 4-way FM/CLIP vs 4-way LSMC.
//!
//! Paper finding: both the minimum and the average `ML_F` cuts beat the
//! GORDIAN-derived quadrisection, and the flat move-based engines trail far
//! behind on larger circuits.

use mlpart_bench::{algos, paper, report_shape_checks, run_many_par, HarnessArgs, ShapeCheck};
use mlpart_hypergraph::rng::child_seed;

fn main() {
    let args = HarnessArgs::from_env();
    println!(
        "Table IX — 4-way partitioning ({} runs per cell, seed {})",
        args.runs, args.seed
    );
    println!();
    println!(
        "{:<16} {:>14} {:>9} {:>7} {:>7} {:>8} {:>8}   {:>9}",
        "Test Case", "ML_F min(avg)", "GORDIAN", "FM", "CLIP", "LSMC_F", "LSMC_C", "paperML_F"
    );
    let (mut ml_min, mut gordian_best, mut fm_min, mut clip_min) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (ci, c) in args.circuits().iter().enumerate() {
        let (h, pads) = c.generate_with_pads(args.seed);
        let base = child_seed(args.seed, 9_000 + ci as u64);
        let ml = run_many_par(args.runs, child_seed(base, 0), args.threads, |rng, ws| {
            algos::ml4_in(&h, rng, ws)
        });
        let (g_quad, g_lin) = algos::gordian_cuts(&h, &pads);
        let gordian = g_quad.min(g_lin);
        let fm = run_many_par(args.runs, child_seed(base, 1), args.threads, |rng, ws| {
            algos::fm4_in(&h, rng, ws)
        });
        let clip = run_many_par(args.runs, child_seed(base, 2), args.threads, |rng, ws| {
            algos::clip4_in(&h, rng, ws)
        });
        let descents = args.runs.max(10);
        let lf = run_many_par(1, child_seed(base, 3), args.threads, |rng, _ws| {
            algos::lsmc4_f(&h, descents, rng)
        });
        let lc = run_many_par(1, child_seed(base, 4), args.threads, |rng, _ws| {
            algos::lsmc4_c(&h, descents, rng)
        });
        let p = paper::table9_row(c.name);
        println!(
            "{:<16} {:>6} ({:>5.0}) {:>9} {:>7} {:>7} {:>8} {:>8}   {:>9}",
            c.name,
            ml.cut.min,
            ml.cut.avg,
            gordian,
            fm.cut.min,
            clip.cut.min,
            lf.cut.min,
            lc.cut.min,
            p.map_or("-".to_owned(), |r| format!(
                "{}({:.0})",
                r.ml_f_min, r.ml_f_avg
            )),
        );
        ml_min.push(ml.cut.min.max(1) as f64);
        gordian_best.push(gordian.max(1) as f64);
        fm_min.push(fm.cut.min.max(1) as f64);
        clip_min.push(clip.cut.min.max(1) as f64);
    }
    let vs_gordian = mlpart_bench::geomean_ratio(&ml_min, &gordian_best);
    let vs_fm = mlpart_bench::geomean_ratio(&ml_min, &fm_min);
    let vs_clip = mlpart_bench::geomean_ratio(&ml_min, &clip_min);
    println!();
    println!("geomean min-cut ratio ML_F/GORDIAN: {vs_gordian:.3}");
    println!("geomean min-cut ratio ML_F/FM4:     {vs_fm:.3}");
    println!("geomean min-cut ratio ML_F/CLIP4:   {vs_clip:.3}");
    let wins = ml_min
        .iter()
        .zip(&gordian_best)
        .filter(|(m, g)| m <= g)
        .count();
    let checks = vec![
        ShapeCheck::new(
            format!(
                "ML_F min cut beats the placement-derived quadrisection on most circuits ({wins}/{})",
                ml_min.len()
            ),
            wins * 3 >= ml_min.len() * 2,
        ),
        ShapeCheck::new(
            format!("ML_F beats GORDIAN overall (ratio {vs_gordian:.3} < 1)"),
            vs_gordian < 1.0,
        ),
        ShapeCheck::new(
            format!("ML_F beats flat 4-way FM (ratio {vs_fm:.3} < 1)"),
            vs_fm < 1.0,
        ),
    ];
    std::process::exit(i32::from(!report_shape_checks(&checks)));
}
