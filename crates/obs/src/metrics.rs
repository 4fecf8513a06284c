//! Deterministic metrics registry derived from a captured trace.
//!
//! A [`Registry`] folds a trace's counter events into one [`Metric`] per
//! `(counter name, argument key)` pair: occurrence count, sum, min/max, the
//! last observed value (gauge semantics), and a histogram over fixed log2
//! bucket edges. Every field is a pure function of trace *content* — the
//! fold never looks at timestamps, and the non-normative argument keys
//! (timing and allocation telemetry) are excluded up front — so a registry
//! built from a merged multi-thread trace is bit-identical to the
//! single-thread one, inheriting the start-order merge contract of
//! [`crate::append_raw`].
//!
//! # Log2 bucket edges
//!
//! Bucket `b` of a histogram counts samples whose magnitude has bit length
//! `b`: bucket 0 holds the value 0, bucket 1 holds 1, bucket 2 holds 2–3,
//! bucket `b` holds `[2^(b-1), 2^b)`. The edges are fixed by the u64 value
//! domain (65 buckets), never adapted to the data, so two histograms of the
//! same samples are always identical — the property that lets the
//! determinism suites compare serialized registries byte-for-byte.

use crate::export::is_non_normative_key;
use crate::json;
use crate::trace::{EvKind, Trace, V};

/// Number of log2 buckets: bit lengths 0 (the value 0) through 64.
pub const LOG2_BUCKETS: usize = 65;

/// The histogram bucket index for a sample magnitude: its bit length.
pub fn bucket_of(magnitude: u64) -> usize {
    (u64::BITS - magnitude.leading_zeros()) as usize
}

/// Aggregated samples of one `(counter name, argument key)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// `counter.arg` — e.g. `fm_pass.kept`.
    pub name: String,
    /// Number of samples folded in.
    pub count: u64,
    /// Saturating sum of the sample values.
    pub sum: i64,
    /// Smallest sample.
    pub min: i64,
    /// Largest sample.
    pub max: i64,
    /// Last sample in trace order (gauge reading).
    pub last: i64,
    /// Log2 histogram over sample magnitudes; `buckets[b]` counts samples
    /// with bit length `b` (see [`bucket_of`]).
    pub buckets: [u64; LOG2_BUCKETS],
}

impl Metric {
    fn new(name: String) -> Self {
        Metric {
            name,
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
            last: 0,
            buckets: [0; LOG2_BUCKETS],
        }
    }

    /// Folds one sample in.
    pub fn record(&mut self, value: i64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        self.buckets[bucket_of(value.unsigned_abs())] += 1;
    }

    /// Serializes as a JSON object. Buckets are emitted sparsely as
    /// `[bit_length, count]` pairs in ascending bucket order.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(&format!(
            ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"last\":{},\"log2\":[",
            self.count, self.sum, self.min, self.max, self.last
        ));
        let mut first = true;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{b},{n}]"));
            }
        }
        out.push_str("]}");
    }
}

/// Deterministic registry: one [`Metric`] per counter argument, in first
/// appearance order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    /// The metrics, ordered by first appearance in the trace.
    pub metrics: Vec<Metric>,
}

impl Registry {
    /// Folds every counter event of `trace` into a registry.
    ///
    /// Only integer-valued arguments (`V::U`/`V::I`) participate: `f64`
    /// args are configuration echoes and static labels carry no magnitude.
    /// Keys on the non-normative list (timing, allocation) are skipped so
    /// the registry stays a pure function of content.
    pub fn from_trace(trace: &Trace) -> Registry {
        let mut reg = Registry::default();
        for ev in &trace.events {
            if ev.kind != EvKind::Counter {
                continue;
            }
            for (key, value) in &ev.args {
                if is_non_normative_key(key) {
                    continue;
                }
                let value = match value {
                    V::U(n) => i64::try_from(*n).unwrap_or(i64::MAX),
                    V::I(n) => *n,
                    V::F(_) | V::S(_) => continue,
                };
                reg.record(ev.name, key, value);
            }
        }
        reg
    }

    /// Folds one sample into the `(counter, arg)` metric, creating it on
    /// first appearance.
    pub fn record(&mut self, counter: &str, arg: &str, value: i64) {
        let name = format!("{counter}.{arg}");
        let metric = match self.metrics.iter_mut().position(|m| m.name == name) {
            Some(i) => &mut self.metrics[i],
            None => {
                self.metrics.push(Metric::new(name));
                self.metrics.last_mut().expect("just pushed")
            }
        };
        metric.record(value);
    }

    /// Serializes the registry as a JSON array (the `metrics` section of a
    /// `mlpart-run-report-v3` document).
    pub fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            m.write_json(out);
        }
        out.push(']');
    }

    /// [`Registry::write_json`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{capture, counter, span};

    #[test]
    fn bucket_edges_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    fn sample() -> Trace {
        let (_, t) = capture(|| {
            let _run = span("run", &[("runs", V::U(2))]);
            for i in 0..3u64 {
                counter(
                    "fm_pass",
                    &[
                        ("kept", V::U(4 + i)),
                        ("gain", V::I(-2 + i as i64)),
                        ("ratio", V::F(0.35)),
                        ("fill_ms", V::F(1.25)),
                    ],
                );
            }
        });
        t
    }

    #[test]
    fn registry_folds_counters_in_first_appearance_order() {
        let reg = Registry::from_trace(&sample());
        let names: Vec<&str> = reg.metrics.iter().map(|m| m.name.as_str()).collect();
        // F-valued args (ratio, fill_ms) are skipped; span args don't count.
        assert_eq!(names, ["fm_pass.kept", "fm_pass.gain"]);
        let kept = &reg.metrics[0];
        assert_eq!(
            (kept.count, kept.sum, kept.min, kept.max, kept.last),
            (3, 15, 4, 6, 6)
        );
        assert_eq!(kept.buckets[3], 3, "4,5,6 all have bit length 3");
        let gain = &reg.metrics[1];
        assert_eq!((gain.min, gain.max, gain.sum), (-2, 0, -3));
        assert_eq!(gain.buckets[0], 1, "the value 0");
        assert_eq!(gain.buckets[1], 1, "|-1| = 1");
        assert_eq!(gain.buckets[2], 1, "|-2| = 2");
    }

    #[test]
    fn registry_json_is_stable_and_sparse() {
        let reg = Registry::from_trace(&sample());
        let doc = reg.to_json();
        assert_eq!(doc, reg.to_json(), "serialization is deterministic");
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("fm_pass.kept"));
        let log2 = arr[0].get("log2").unwrap().as_arr().unwrap();
        assert_eq!(log2.len(), 1, "sparse: only the populated bucket");
    }

    #[test]
    fn identical_content_yields_identical_registries() {
        let a = sample();
        let mut b = sample();
        for ev in &mut b.events {
            ev.ts_ns += 5_000_000; // timing shifts never reach the registry
        }
        assert_eq!(Registry::from_trace(&a), Registry::from_trace(&b));
    }
}
