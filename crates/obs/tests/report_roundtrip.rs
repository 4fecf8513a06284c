//! Round-trip guarantees for run reports: the emitted v3 document
//! re-serializes byte-identically after parsing and loads through
//! [`mlpart_obs::report::parse_report`].

use mlpart_obs as obs;
use obs::json;
use obs::report::{parse_report, RunReport};

fn sample_report() -> RunReport {
    let (_, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("runs", 2u64.into())]);
        for i in 0..2u64 {
            let _start = obs::span("start", &[("start", i.into())]);
            let _level = obs::span("level", &[("level", 0u64.into())]);
            obs::counter(
                "fm_pass",
                &[("pass", 0u64.into()), ("cut_after", (30 + i).into())],
            );
        }
    });
    RunReport {
        meta: vec![("algo", obs::V::S("ml-fm")), ("seed", 1997u64.into())],
        cuts: vec![31, 30],
        failures: Vec::new(),
        truncations: Vec::new(),
        retries: Vec::new(),
        repairs: Vec::new(),
        wall_secs: 0.25,
        cpu_secs: 0.5,
        trace,
    }
}

/// `--report-out` documents survive parse → re-serialize byte-for-byte:
/// the hand-rolled emitter and the generic [`json::write_value`] writer
/// agree on every formatting decision (key order, integer formatting,
/// escaping), so external tooling can edit-and-rewrite reports without
/// spurious diffs.
#[test]
fn v3_report_reserializes_byte_identically() {
    let doc = sample_report().to_json();
    let parsed = json::parse(&doc).expect("report parses");
    assert_eq!(json::to_string(&parsed), doc);
}

#[test]
fn v3_report_loads_with_profile_and_metrics() {
    let doc = sample_report().to_json();
    let loaded = parse_report(&doc).expect("v3 loads");
    assert_eq!(loaded.alloc_tracked, cfg!(feature = "obs-alloc"));
    let names: Vec<&str> = loaded.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["run", "start", "level"]);
    assert_eq!(loaded.phases[1].count, 2, "two starts aggregate");
    assert!(
        json::parse(&doc)
            .unwrap()
            .get("metrics")
            .unwrap()
            .as_arr()
            .is_some(),
        "metrics section present"
    );
}
