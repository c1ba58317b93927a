//! One benchmark run of a workload, untraced (end-to-end metrics) or
//! traced (per-layer metrics).

use crate::spans::Spans;
use crate::{announce, ladder, rmi, stream, suite, Cfg, E2e, Metric};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Rmi,
    Stream,
    Suite,
}

pub const WORKLOADS: [(&str, Workload); 3] = [
    ("rmi_pingpong", Workload::Rmi),
    ("splitc_stream", Workload::Stream),
    ("sim_suite", Workload::Suite),
];

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares: end-to-end ones untraced,
    /// per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Untraced runs: the same figures under the workload's own names.
    pub named: Vec<Metric>,
    /// Traced runs: every span recorded.
    pub spans: Option<Spans>,
}

/// One workload's results, kept until every metric has been derived.
enum Run {
    Rmi(rmi::RmiRun),
    Stream(stream::StreamRun),
    Suite(suite::SuiteRun),
}

impl Run {
    fn go(w: Workload, cfg: &Cfg, spans: Option<Spans>) -> Run {
        match w {
            Workload::Rmi => Run::Rmi(rmi::run(cfg, spans)),
            Workload::Stream => Run::Stream(stream::run(cfg, spans)),
            Workload::Suite => Run::Suite(suite::run(cfg, spans)),
        }
    }

    fn e2e(&self) -> &E2e {
        match self {
            Run::Rmi(r) => &r.e2e,
            Run::Stream(r) => &r.e2e,
            Run::Suite(r) => &r.e2e,
        }
    }

    fn take_spans(&mut self) -> Option<Spans> {
        match self {
            Run::Rmi(r) => r.spans.take(),
            Run::Stream(r) => r.spans.take(),
            Run::Suite(r) => r.spans.take(),
        }
    }

    fn named(&self) -> Vec<Metric> {
        let e = self.e2e();
        let n = e.pooled().count();
        let (p50, p99) = (e.quantile(0.5) / 1e3, e.quantile(0.99) / 1e3);
        match self {
            Run::Rmi(r) => vec![
                Metric::new("rmi_p50_us", p50, "us", n),
                Metric::new("rmi_p99_us", p99, "us", n),
                Metric::new("rmi_per_s", e.ops_per_s(), "1/s", n),
                Metric::new(
                    "threaded_rmis_per_fabric_run",
                    r.threaded_per_run as f64,
                    "count",
                    1,
                ),
                // Where the process was seen to abort (NOTES.md, defect 1).
                Metric::new("threaded_rmis_abort_limit", 50_000.0, "count", 0),
            ],
            Run::Stream(r) => vec![
                Metric::new("stream_mb_per_s", r.mb_per_s(), "MB/s", n),
                Metric::new("batch_p50_us", p50, "us", n),
                Metric::new("batch_p99_us", p99, "us", n),
            ],
            Run::Suite(_) => vec![Metric::new("suite_s", p50 / 1e6, "s", n)],
        }
    }

    fn layers(&self, am_rtt_us: f64) -> Vec<Metric> {
        match self {
            Run::Rmi(r) => rmi::layer_metrics(r, am_rtt_us),
            Run::Stream(r) => stream::layer_metrics(r),
            Run::Suite(r) => suite::layer_metrics(r),
        }
    }
}

/// An untraced run.
pub fn run(w: Workload, cfg: &Cfg) -> Outcome {
    let r = Run::go(w, cfg, None);
    let e = r.e2e();
    Outcome {
        attempted: e.attempted,
        failed: e.failed,
        metrics: e.metrics(),
        named: r.named(),
        spans: None,
    }
}

/// The untraced part of a traced run: what it attempted and failed, and
/// its end-to-end metrics by name.
pub struct Plain {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(String, f64)>,
}

impl From<Outcome> for Plain {
    fn from(o: Outcome) -> Self {
        Plain {
            attempted: o.attempted,
            failed: o.failed,
            values: o.metrics.into_iter().map(|m| (m.name, m.value)).collect(),
        }
    }
}

/// The traced run: `w` untraced, then traced (the difference is the
/// tracing overhead), the two other workloads traced, and the layer
/// ladder, in 30/30/10/10/20 shares of the run time. Every layer is
/// measured whichever workload is chosen.
///
/// `plain` runs the untraced part on the `Cfg` it is given. Peak memory
/// (VmHWM) only grows within a process, so its overhead is meaningful
/// only if `plain` runs in a process of its own and the traced part is
/// the first work of this one: both then read VmHWM after the same
/// amount of work from the same start.
pub fn traced(w: Workload, cfg: &Cfg, plain: impl FnOnce(&Cfg) -> Plain) -> Outcome {
    let part = |f: f64| Cfg {
        time: cfg.time.mul_f64(f),
        ..*cfg
    };
    let plain = plain(&part(0.3));
    let epoch = Instant::now();
    let mut runs = vec![Run::go(w, &part(0.3), Some(Spans::new(epoch, 0)))];
    let mut overhead: Vec<Metric> = runs[0]
        .e2e()
        .metrics()
        .into_iter()
        .filter_map(|t| {
            let u = plain.values.iter().find(|(n, _)| *n == t.name)?.1;
            // Positive is a cost.
            let v = match t.name.as_str() {
                "ops_per_s" => u / t.value - 1.0,
                _ => t.value / u - 1.0,
            };
            Some(Metric::new(
                format!("trace.overhead.{}", t.name),
                v,
                "frac",
                t.n,
            ))
        })
        .collect();
    for (k, &(_, other)) in WORKLOADS.iter().enumerate() {
        if other != w {
            runs.push(Run::go(
                other,
                &part(0.1),
                Some(Spans::new(epoch, 10 * k as u64)),
            ));
        }
    }
    let lad = ladder::run(cfg.time.mul_f64(0.2));
    announce(lad.ops());
    runs.sort_by_key(|r| match r {
        Run::Rmi(_) => 0,
        Run::Stream(_) => 1,
        Run::Suite(_) => 2,
    });
    let mut metrics = lad.metrics();
    for r in &runs {
        metrics.extend(r.layers(lad.am_rtt_us()));
    }
    metrics.append(&mut overhead);
    let mut out = Outcome {
        attempted: plain.attempted + lad.ops(),
        failed: plain.failed + lad.wrong,
        metrics,
        named: Vec::new(),
        spans: None,
    };
    let mut all = Spans::new(epoch, 0);
    for r in &mut runs {
        out.attempted += r.e2e().attempted;
        out.failed += r.e2e().failed;
        all.absorb(r.take_spans().expect("traced runs record spans"));
    }
    out.spans = Some(all);
    out
}
