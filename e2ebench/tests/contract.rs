//! The benchmark's own tests: seeded op streams are reproducible, every
//! workload passes its correctness checks at a tiny scale, and the metric
//! lists agree with `BENCHMARK.json`.

use e2ebench::run::{op_stream, run, RunConfig, END_TO_END, PER_LAYER, UNGATED};
use e2ebench::workload::{Scale, Workload};
use std::path::PathBuf;

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn same_seed_gives_byte_identical_op_stream() {
    for w in Workload::ALL {
        for scale in [Scale::Tiny, Scale::Full] {
            let a = op_stream(w, scale, 7, 1.0).to_bytes();
            let b = op_stream(w, scale, 7, 1.0).to_bytes();
            let c = op_stream(w, scale, 8, 1.0).to_bytes();
            assert_eq!(a, b, "{}: same seed, different stream", w.name());
            assert_ne!(a, c, "{}: different seeds, same stream", w.name());
        }
    }
}

#[test]
fn churn_edges_are_the_same_for_every_seed() {
    for w in Workload::ALL {
        let a = op_stream(w, Scale::Tiny, 1, 1.0);
        let b = op_stream(w, Scale::Tiny, 2, 1.0);
        assert_eq!(a.churn, b.churn, "{}", w.name());
        assert_ne!(a.reads, b.reads, "{}", w.name());
    }
}

fn smoke(w: Workload, trace: bool) -> e2ebench::run::Report {
    let cfg = RunConfig {
        workload: w,
        scale: Scale::Tiny,
        seed: 3,
        seconds: 1.0,
        trace,
        out_dir: out_dir(&format!("smoke-{}-{trace}", w.name())),
    };
    let report = run(&cfg).expect("tiny run completes");
    assert!(report.correct, "{}: {}", w.name(), report.record);
    assert_eq!(report.failed, 0, "{}: {}", w.name(), report.record);
    assert!(report.attempted > 0);
    report
}

#[test]
fn tiny_runs_of_every_workload_pass_all_checks() {
    for w in Workload::ALL {
        let report = smoke(w, false);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", w.name());
        for m in &report.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_tiny_run_reports_every_layer_metric() {
    let report = smoke(Workload::DenseChurn, true);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut expected: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    expected.extend(UNGATED.iter().map(|m| m.0.to_string()));
    expected.extend(END_TO_END.iter().map(|m| format!("overhead.{}", m.0)));
    assert_eq!(names, expected);
    let value = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(value("engine.ingest_ms") > 0.0);
    assert!(value("matching.instances") > 0.0);
    assert!(value("graph.splice_ms") > 0.0);
    assert!(value("e2e.capacity_qps") > 0.0);
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(json) = std::fs::read_to_string(path) else {
        return; // the benchmark directory alone, without the repository
    };
    let listed = json.matches("\"name\":").count();
    let workloads = Workload::ALL.len();
    assert_eq!(
        listed,
        workloads + END_TO_END.len() + PER_LAYER.len() + UNGATED.len() + END_TO_END.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&UNGATED) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    for (name, unit) in END_TO_END {
        assert!(json.contains(&format!(
            "\"name\": \"overhead.{name}\", \"unit\": \"{unit}\""
        )));
    }
}
