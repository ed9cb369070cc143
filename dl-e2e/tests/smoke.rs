//! Every workload at toy scale, through the same entry point the
//! benchmark's command uses, with the result line validated.

use std::path::PathBuf;

use dl_e2e::spec::{END_TO_END, PER_LAYER, TCP_WORKLOAD, WORKLOADS};
use dl_e2e::workload::{self, RunResult};

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("dl-e2e-out")
}

/// A strict little JSON reader: enough to prove the result line parses
/// and to walk it. Returns the value and the rest of the input.
#[derive(Debug, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

fn parse(s: &str) -> (Json, &str) {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('{') {
        let mut fields = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('}') {
            return (Json::Obj(fields), r);
        }
        loop {
            let (key, r) = parse(rest);
            let Json::Str(key) = key else {
                panic!("object key must be a string")
            };
            let r = r.trim_start().strip_prefix(':').expect("colon after key");
            let (value, r) = parse(r);
            fields.push((key, value));
            let r = r.trim_start();
            if let Some(r) = r.strip_prefix(',') {
                rest = r;
            } else {
                return (
                    Json::Obj(fields),
                    r.strip_prefix('}').expect("closing brace"),
                );
            }
        }
    }
    if let Some(rest) = s.strip_prefix('"') {
        let end = rest.find('"').expect("closing quote");
        assert!(!rest[..end].contains('\\'), "no escapes expected");
        return (Json::Str(rest[..end].to_string()), &rest[end + 1..]);
    }
    for (lit, v) in [("true", true), ("false", false)] {
        if let Some(rest) = s.strip_prefix(lit) {
            return (Json::Bool(v), rest);
        }
    }
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(s.len());
    (Json::Num(s[..end].parse().expect("a number")), &s[end..])
}

fn check_result_line(r: &RunResult, expect: &[dl_e2e::spec::Metric]) {
    let line = r.to_json();
    assert!(!line.contains('\n'));
    let (json, rest) = parse(&line);
    assert_eq!(rest.trim(), "");
    let Json::Obj(top) = json else {
        panic!("top level must be an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(top[0].1, Json::Bool(true));
    assert!(matches!(top[1].1, Json::Num(n) if n >= 1.0 && n.fract() == 0.0));
    assert!(matches!(top[2].1, Json::Num(n) if n >= 0.0 && n.fract() == 0.0));
    let Json::Obj(metrics) = &top[3].1 else {
        panic!("metrics must be an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = expect.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for ((_, m), spec) in metrics.iter().zip(expect) {
        let Json::Obj(fields) = m else {
            panic!("a metric is an object")
        };
        assert_eq!(fields.len(), 2);
        assert!(matches!(fields[0], (ref k, Json::Num(v)) if k == "value" && v.is_finite()));
        assert_eq!(
            fields[1],
            ("unit".to_string(), Json::Str(spec.unit.to_string()))
        );
    }
}

#[test]
fn every_workload_runs_at_toy_scale_and_prints_a_valid_result() {
    for name in WORKLOADS.iter().map(|w| w.name).chain([TCP_WORKLOAD]) {
        let r = workload::run(name, 7, 1.0, false, &out_dir()).expect("listed workload");
        assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        assert_eq!(r.failed, 0, "{name}");
        check_result_line(&r, &END_TO_END);
        // End-to-end metrics are never zero.
        for row in &r.rows {
            assert!(row.value > 0.0, "{name} {} = {}", row.name, row.value);
        }
    }
    assert!(workload::run("no-such-workload", 7, 0.4, false, &out_dir()).is_none());
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let dir = out_dir();
    let r = workload::run("crash-revive-n7", 7, 0.4, true, &dir).expect("listed workload");
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    check_result_line(&r, &PER_LAYER);
    let value = |name: &str| r.rows.iter().find(|row| row.name == name).unwrap().value;
    // One populated metric per layer this workload enters.
    for name in [
        "erasure.encode_mbps",
        "crypto.merkle_verify_ns",
        "pool.threads",
        "coder.calls",
        "vid.retrieve_us",
        "ba.msgs_per_decision",
        "wire.vote_wire_bytes",
        "core.self_s",
        "store.bytes_per_payload_byte",
        "sim.events",
        "net.write_segments_mbps",
        "catchup_ms",
        "wall_ms_per_payload_mb",
    ] {
        assert!(value(name) > 0.0, "{name} = {}", value(name));
    }
    let trace = std::fs::read_to_string(dir.join("trace-crash-revive-n7.json")).unwrap();
    assert!(trace.contains("\"core.handle_burst\"") && trace.contains("\"coder.encode\""));
}

#[test]
fn virtual_time_metrics_repeat_exactly_per_seed() {
    let run = |seed| workload::run("vbw-rate-dl", seed, 0.4, false, &out_dir()).unwrap();
    let (a, b, c) = (run(11), run(11), run(12));
    let virtual_rows = |r: &RunResult| -> Vec<(&'static str, u64)> {
        r.rows
            .iter()
            .filter(|row| row.name != "setup_s")
            .map(|row| (row.name, row.value.to_bits()))
            .collect()
    };
    assert_eq!(virtual_rows(&a), virtual_rows(&b));
    assert_ne!(virtual_rows(&a), virtual_rows(&c));
}
