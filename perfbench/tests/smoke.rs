//! Smoke-size passes of all four workloads on quick-trained artifacts.
//!
//! Every named metric must print with its unit, `BENCHMARK.json` must list
//! exactly the metrics the code reports, and the exact counts of a traced
//! run (`sim.steps`, `sim.fleet.slot_steps`, `journal.cells`,
//! `rl.updates`) must repeat across two passes at one seed.

use attack_core::pipeline::{prepare, PipelineConfig};
use perfbench::bench::{run_untraced, Metric, Plan};
use perfbench::report::{check_metrics, result_json, END_TO_END, PER_LAYER};
use perfbench::trace::run_traced;
use perfbench::workload::{Size, Workload};
use std::path::{Path, PathBuf};

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke")
}

/// Quick-trained artifacts (trained once, then loaded from the cache).
fn quick_artifacts() -> PathBuf {
    let dir = scratch().join("quick-artifacts");
    prepare(&PipelineConfig::quick(&dir));
    dir
}

fn plan(workload: Workload, artifacts: &Path, pass: &str) -> Plan {
    Plan {
        workload,
        seed: 10_000,
        seconds: 0.0,
        size: Size::Smoke,
        artifacts_src: artifacts.to_path_buf(),
        work_dir: scratch()
            .join("runs")
            .join(format!("{}-{pass}", workload.name())),
    }
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn assert_printed_with_units(line: &str, expected: &[(&str, &str)]) {
    for (name, unit) in expected {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at..];
        let end = rest.find('}').expect("metric object closes");
        assert!(
            rest[..end].contains(&format!("\"unit\": \"{unit}\"")),
            "{name} printed without unit {unit}: {}",
            &rest[..end]
        );
    }
}

#[test]
fn every_workload_reports_its_metrics_and_exact_counts_repeat() {
    let artifacts = quick_artifacts();
    for workload in Workload::ALL {
        let untraced = run_untraced(&plan(workload, &artifacts, "untraced"))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        check_metrics(&untraced.metrics, false).expect("end-to-end metrics");
        assert_eq!(untraced.failed, 0, "{}", workload.name());
        assert_printed_with_units(&result_json(true, &untraced), &END_TO_END);

        let passes: Vec<_> = ["a", "b"]
            .iter()
            .map(|pass| {
                run_traced(&plan(workload, &artifacts, pass))
                    .unwrap_or_else(|e| panic!("{} traced: {e}", workload.name()))
            })
            .collect();
        for traced in &passes {
            check_metrics(&traced.metrics, true).expect("per-layer metrics");
            assert_printed_with_units(&result_json(true, traced), &PER_LAYER);
        }
        for count in [
            "sim.steps",
            "sim.fleet.slot_steps",
            "journal.cells",
            "rl.updates",
        ] {
            let (a, b) = (
                value(&passes[0].metrics, count),
                value(&passes[1].metrics, count),
            );
            assert_eq!(a, b, "{}: {count} differs across passes", workload.name());
            assert!(a > 0.0, "{}: {count} is zero", workload.name());
        }
    }
}

/// The metric names, units and order of `BENCHMARK.json` match the code.
#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let section = |key: &str, next: Option<&str>| {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = next.map_or(text.len(), |n| {
            text.find(&format!("\"{n}\"")).expect("next")
        });
        text[start..end].to_string()
    };
    let entries = |body: String| -> Vec<(String, String)> {
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap()
                    .to_string();
                (name, unit)
            })
            .collect()
    };
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        entries(section("end_to_end", Some("per_layer"))),
        as_owned(&END_TO_END)
    );
    assert_eq!(entries(section("per_layer", None)), as_owned(&PER_LAYER));
    let workloads = section("workloads", Some("end_to_end"));
    for w in Workload::ALL {
        assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
