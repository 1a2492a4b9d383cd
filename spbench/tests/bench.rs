//! The benchmark's own tests, at smoke scale.

use spbench::json::Json;
use spbench::run::{run, Options, Pin, Report};
use spbench::workload::{Identity, Workload, SMOKE};
use spbench::{BENCHMARK_JSON, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(w: Workload, trace: Option<PathBuf>, pins: &[Pin]) -> Report {
    run(&Options {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: &SMOKE,
        pins,
    })
}

fn trace_path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{}.json", w.name()))
}

/// `(name, unit)` of each entry of a `BENCHMARK.json` list.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_verifies_at_smoke_scale_untraced_and_traced() {
    for w in Workload::ALL {
        let r = smoke(w, None, &[]);
        assert_eq!(
            (r.failed, r.exit_code()),
            (0, 0),
            "{}: {:?}",
            w.name(),
            r.errors
        );
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);

        let path = trace_path(w);
        let r = smoke(w, Some(path.clone()), &[]);
        assert_eq!(r.failed, 0, "{} traced: {:?}", w.name(), r.errors);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        let value = |name: &str| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert!(value("trace.overhead_ratio") > Some(0.0));
        assert!(value("topo.place_ns.n") >= Some(1000.0));
        let spans = std::fs::read_to_string(&path).expect("trace file written");
        let doc = Json::parse(&spans).expect("trace is JSON");
        let spans = doc.get("spans").and_then(Json::as_array).expect("spans");
        assert!(spans
            .iter()
            .any(|s| s.get("rep").and_then(Json::as_str) == Some("traced")));
        if w == Workload::Pod4096 {
            assert!(
                value("pod.run_1w_s") > Some(0.0),
                "1 worker ≡ 2 workers ran"
            );
        }
    }
}

#[test]
fn result_line_parses_back_to_the_same_metrics() {
    let r = smoke(Workload::CtrlSteady, None, &[]);
    let text = r.render();
    let last = text.lines().last().expect("output has lines");
    let doc = Json::parse(last).expect("last line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("attempted").and_then(Json::as_f64),
        Some(r.attempted as f64)
    );
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), r.metrics.len());
    for (m, (name, v)) in r.metrics.iter().zip(metrics) {
        assert_eq!(name, m.name);
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(m.value));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
    }
    for m in r.extra.iter().chain(&r.metrics) {
        assert!(text.contains(&format!("\n{} {} {}\n", m.name, m.value, m.unit)));
    }
}

#[test]
fn names_match_benchmark_json() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = listed(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
}

#[test]
fn a_forged_pin_fails_every_rep_and_the_exit_code() {
    let forged = [Pin {
        workload: "ctrl-steady",
        seed: 7,
        id: Identity {
            fingerprint: 0x0bad,
            journal_hash: 0x0bad,
            snapshots: 0,
        },
    }];
    let r = smoke(Workload::CtrlSteady, None, &forged);
    assert!(r.attempted > 0);
    assert_eq!(r.failed, r.attempted, "fail_ratio must be 1");
    let fail_ratio = r
        .extra
        .iter()
        .find(|m| m.name == "fail_ratio")
        .map(|m| m.value);
    assert_eq!(fail_ratio, Some(1.0));
    assert_ne!(r.exit_code(), 0);
    assert!(r.result_json().starts_with("{\"correct\": false,"));
}
