//! Metric records, summary statistics, the result line, and the baseline
//! comparison behind `--check`.
//!
//! Metric names and units are produced by the workload runs; which way is
//! better and each end-to-end bound come from `BENCHMARK.json`, embedded at
//! build time, so the bounds `--check` enforces are the ones the benchmark
//! declares.

use mlpart_obs::json::{self, Json};

/// The benchmark declaration at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: usize,
    /// One message per failed start: a panic, a non-zero exit, a failed
    /// correctness check, or a replay that diverged from the pipeline.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The last line of a run: the `correct`/`attempted`/`failed`/`metrics`
    /// object.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), value)
            })
            .collect();
        json::to_string(&Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failures.len() as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]))
    }
}

/// Metrics in these units come from deterministic work (cuts, counts and
/// their ratios) and must repeat exactly at the same seed.
pub fn is_exact_unit(unit: &str) -> bool {
    matches!(unit, "nets" | "count" | "bytes" | "ratio")
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// The regression bound (a share of the baseline); end-to-end only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Declaration {
    pub run_seconds: u64,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Declaration {
    pub fn load() -> Result<Declaration, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {f:?}"))
                    };
                    Ok(Declared {
                        name: field("name")?,
                        unit: field("unit")?,
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_num),
                    })
                })
                .collect()
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .ok_or("BENCHMARK.json: missing run_seconds")?;
        Ok(Declaration {
            run_seconds: run_seconds as u64,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

/// The `{metric: value}` map of one run's result object.
fn values(result: &Json) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Compares a fresh ledger (`{workload: {trace0: result, trace1: result}}`)
/// against the ledgers of a baseline recorded at the same seed, returning
/// one line per violation:
/// - a metric in an exact unit differs from the baseline;
/// - an end-to-end metric is worse than the baseline median by more than
///   its declared bound;
/// - a run was incorrect, or a metric is missing.
pub fn compare(decl: &Declaration, baseline: &[&Json], fresh: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let Json::Obj(workloads) = fresh else {
        return vec!["fresh ledger is not an object".to_string()];
    };
    for (wl, modes) in workloads {
        for mode in ["trace0", "trace1"] {
            let Some(run) = modes.get(mode) else {
                out.push(format!("{wl}/{mode}: missing from the fresh run"));
                continue;
            };
            if run.get("correct") != Some(&Json::Bool(true)) {
                out.push(format!("{wl}/{mode}: run reported failures"));
            }
            for (name, value) in values(run) {
                let Some(d) = decl.find(&name) else {
                    out.push(format!("{wl}/{mode}: {name} is not declared"));
                    continue;
                };
                let base: Vec<f64> = baseline
                    .iter()
                    .filter_map(|b| b.get(wl)?.get(mode))
                    .filter_map(|r| values(r).into_iter().find(|(n, _)| *n == name))
                    .map(|(_, v)| v)
                    .collect();
                if base.is_empty() {
                    out.push(format!("{wl}/{mode}: {name} has no baseline value"));
                    continue;
                }
                if is_exact_unit(&d.unit) {
                    if base.iter().any(|&b| b != value) {
                        out.push(format!(
                            "{wl}/{mode}: {name} = {value} but the baseline has {base:?}"
                        ));
                    }
                } else if let Some(bound) = d.bound {
                    let b = median(&base);
                    let worse = if d.lower_is_better {
                        value > b * (1.0 + bound)
                    } else {
                        value < b * (1.0 - bound)
                    };
                    if worse {
                        out.push(format!(
                            "{wl}/{mode}: {name} = {value} {} is worse than the baseline \
                             {b} by more than {:.0}%",
                            d.unit,
                            bound * 100.0
                        ));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.75), 3.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    fn ledger(p50: f64, cut: f64) -> Json {
        let run = |metrics: Vec<(&'static str, f64, &'static str)>| {
            let mut o = Outcome {
                attempted: 1,
                ..Outcome::default()
            };
            for (n, v, u) in metrics {
                o.push(n, u, v);
            }
            json::parse(&o.result_line()).expect("valid result line")
        };
        Json::Obj(vec![(
            "bisect-ml".to_string(),
            Json::Obj(vec![
                (
                    "trace0".to_string(),
                    run(vec![("start_p50_ms", p50, "ms"), ("cut_avg", cut, "nets")]),
                ),
                ("trace1".to_string(), run(vec![("fm.passes", 7.0, "count")])),
            ]),
        )])
    }

    #[test]
    fn compare_gates_exact_units_and_bounds() {
        let decl = Declaration::load().expect("BENCHMARK.json parses");
        let base = ledger(100.0, 50.0);
        assert!(compare(&decl, &[&base], &ledger(104.0, 50.0)).is_empty());
        let slower = compare(&decl, &[&base], &ledger(200.0, 50.0));
        assert_eq!(slower.len(), 1, "{slower:?}");
        assert!(slower[0].contains("start_p50_ms"));
        let other_cut = compare(&decl, &[&base], &ledger(100.0, 50.5));
        assert_eq!(other_cut.len(), 1, "{other_cut:?}");
        assert!(other_cut[0].contains("cut_avg"));
    }
}
