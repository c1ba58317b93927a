//! Quick-scale checks of the benchmark itself: every workload reports
//! exactly the metrics `BENCHMARK.json` declares, and a deliberately
//! wrong result is counted as a failure.

use mpmd_perfbench::report::{self, WORKLOADS};
use mpmd_perfbench::{Cfg, Scale};
use std::collections::BTreeSet;
use std::time::Duration;

fn cfg(corrupt: bool) -> Cfg {
    Cfg {
        seed: 7,
        time: Duration::from_millis(50),
        scale: Scale::Quick,
        corrupt,
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    v.get(section)
        .and_then(|s| s.as_array())
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    for (name, w) in WORKLOADS {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let out = if trace {
                report::traced(w, &cfg(false), |part| report::run(w, part).into())
            } else {
                report::run(w, &cfg(false))
            };
            let got: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&got, want, "{name} trace={trace}");
            assert_eq!(
                out.failed, 0,
                "{name} trace={trace}: an output check failed"
            );
            assert!(out.attempted > 0, "{name} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn a_wrong_result_counts_in_failed_frac() {
    for (name, w) in WORKLOADS {
        let out = report::run(w, &cfg(true));
        assert!(
            out.failed > 0 && out.failed <= out.attempted,
            "{name}: {} of {} failed",
            out.failed,
            out.attempted
        );
    }
}
