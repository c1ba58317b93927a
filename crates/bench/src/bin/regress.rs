//! Perf-regression gate over the observability suite.
//!
//! Runs the paper-scale application suite (`--quick` for the CI smoke
//! scale) with the metrics registry on, plus a dedicated null-RMI
//! round-trip measurement, writes the full report — latency histograms,
//! virtual-time breakdowns, and wall-clock — to
//! `results/BENCH_observability.json`, and diffs it against the committed
//! baseline in `crates/bench/testdata/` with per-metric tolerances
//! (see [`mpmd_bench::regress`]). Exits nonzero when any metric moved
//! beyond its tolerance, or `2` when the baseline is missing or carries an
//! incomparable `schema_version`.
//!
//! With `--fastpath` it instead gates the short-message fast path on wall
//! clock: a null-RMI throughput microbenchmark (best of three reps) plus the
//! quick Figure 5 suite, compared against the committed
//! `results/BENCH_fastpath.json`. It fails (exit 1) when short-message
//! throughput drops more than 10% below the baseline, or when the virtual
//! round-trip latency — which is deterministic — changes at all.
//!
//! With `--local` it gates the wall-clock [`LocalFabric`] hot path: null-RMI
//! round trips on real OS threads (best of three reps), compared against
//! the committed `results/BENCH_local.json`. It fails (exit 1) when
//! throughput drops more than 50%, or when a latency percentile climbs more
//! than one log2 histogram bucket (the histogram is power-of-two bucketed,
//! so "one bucket" is the finest detectable change) above the baseline.
//!
//! The two wall-clock gates never rewrite their baselines while comparing:
//! only `--update-baseline` does, and a compare run writes its report only
//! to an explicit `--json` path.
//!
//! Usage: `cargo run --release --bin regress -- [--quick] [-j N]
//! [--fastpath] [--local] [--update-baseline] [--json <path>]`

use mpmd_bench::experiments::{run_fig5, run_profile_suite, Cell, Scale};
use mpmd_bench::fmt::{
    bucket_object, reject_unknown_args, render_table, take_json_flag, take_switch, write_json,
    SCHEMA_VERSION,
};
use mpmd_bench::regress::compare;
use mpmd_bench::runner::take_jobs_flag;
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{to_us, CostModel, Histogram, Sim};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str =
    "regress [--quick] [-j N] [--fastpath] [--local] [--update-baseline] [--json <path>]";

/// Null-RMI iterations per rep of the fast-path throughput microbenchmark.
const FASTPATH_ITERS: usize = 2_000;
/// Wall-clock reps; the best (fastest) rep is the gated number, which damps
/// scheduler noise on loaded CI machines.
const FASTPATH_REPS: usize = 3;
/// Allowed relative drop in short-message throughput before the gate fails.
const FASTPATH_TOLERANCE: f64 = 0.10;

/// Null-RMI iterations per rep of the `--local` wall-clock gate.
const LOCAL_ITERS: usize = 2_000;
/// Wall-clock reps of the `--local` gate; each percentile gates on its best
/// (lowest) rep, which damps scheduler noise the same way `--fastpath`'s
/// best-of-three throughput number does.
const LOCAL_REPS: usize = 3;
/// Allowed relative drop in `--local` null-RMI throughput. Much wider than
/// the fastpath tolerance because the wall-clock backend measures the host
/// directly, and a virtualized CI host drifts up to ~2x between quiet and
/// busy windows; 50% still fails the pre-overhaul data path (which measured
/// ~0.35x of the baseline back to back), and the sharp edge of this gate is
/// the latency-bucket check, which only a real latency-class change trips.
const LOCAL_TOLERANCE: f64 = 0.50;

/// Committed baselines of the two wall-clock gates (relative to the
/// repository root, where CI runs them).
const FASTPATH_BASELINE: &str = "results/BENCH_fastpath.json";
const LOCAL_BASELINE: &str = "results/BENCH_local.json";

// Reports carry histogram objects from schema version 2 on.
const _: () = assert!(SCHEMA_VERSION >= 2);

/// The baseline half of a wall-clock gate. Under `--update-baseline` the
/// report replaces the committed `baseline` and `None` ends the gate;
/// otherwise the committed copy is read and returned untouched, so a failed
/// attempt cannot become the baseline its retry is judged against. Either
/// way the report also goes to an explicit `--json` path.
fn wall_gate_baseline(
    baseline: &Path,
    report: &serde_json::Value,
    update: bool,
    json_out: Option<PathBuf>,
) -> Option<serde_json::Value> {
    if let Some(out) = json_out {
        write_json(&out, report);
    }
    if update {
        write_json(baseline, report);
        eprintln!("baseline updated: {}", baseline.display());
        return None;
    }
    let base: serde_json::Value = std::fs::read_to_string(baseline)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or_else(|| {
            eprintln!(
                "error: no committed baseline at {}; rerun with --update-baseline",
                baseline.display()
            );
            std::process::exit(2)
        });
    Some(base)
}

/// Round-trip latency distribution of null (0-word) Simple RMIs, straight
/// from the registry's `ccxx.rmi_rtt_ns` histogram.
fn null_rmi(iters: usize) -> Histogram {
    let report = Sim::new(2).metrics(true).run(move |ctx| {
        cx::init(&ctx, CcxxConfig::tham());
        cx::barrier(&ctx);
        if ctx.node() == 0 {
            for _ in 0..iters {
                cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
            }
        }
        cx::finalize(&ctx);
    });
    report
        .metrics
        .expect("metrics were enabled")
        .hist("ccxx.rmi_rtt_ns")
        .expect("null RMIs record ccxx.rmi_rtt_ns")
}

/// One experiment cell as a report entry: virtual-time breakdown, raw
/// counters, and the run's global latency/occupancy histograms.
fn cell_value(c: &Cell) -> serde_json::Value {
    let m = c
        .breakdown
        .metrics
        .as_ref()
        .expect("profile suite runs with metrics on");
    let g = m.global();
    let comps = c.breakdown.components();
    let mut v = serde_json::Map::new();
    v.insert("elapsed_ns".into(), c.breakdown.elapsed.to_value());
    v.insert(
        "components_ns".into(),
        bucket_object(|bk| comps[bk.index()].to_value()),
    );
    v.insert("counts".into(), c.breakdown.counts.to_value());
    v.insert("units".into(), c.units.to_value());
    let mut counters = serde_json::Map::new();
    for (name, val) in &g.counters {
        counters.insert(name.to_string(), val.to_value());
    }
    v.insert("counters".into(), serde_json::Value::Object(counters));
    let mut hists = serde_json::Map::new();
    for (name, h) in &g.hists {
        hists.insert(name.to_string(), h.to_value());
    }
    v.insert("hists".into(), serde_json::Value::Object(hists));
    serde_json::Value::Object(v)
}

fn build_report(
    scale: Scale,
    iters: usize,
    rmi: &Histogram,
    rmi_wall: f64,
    cells: &[Cell],
    suite_wall: f64,
    total_wall: f64,
) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert("table".into(), "regress".to_value());
    m.insert("schema_version".into(), SCHEMA_VERSION.to_value());
    m.insert(
        "scale".into(),
        if scale == Scale::Quick {
            "quick"
        } else {
            "paper"
        }
        .to_value(),
    );
    m.insert("wall_clock_secs".into(), total_wall.to_value());
    let mut rm = serde_json::Map::new();
    rm.insert("iters".into(), (iters as u64).to_value());
    rm.insert("wall_secs".into(), rmi_wall.to_value());
    rm.insert("rtt_ns".into(), rmi.to_value());
    m.insert("null_rmi".into(), serde_json::Value::Object(rm));
    m.insert("suite_wall_secs".into(), suite_wall.to_value());
    let mut exps = serde_json::Map::new();
    for c in cells {
        exps.insert(format!("{} {}", c.lang.label(), c.label), cell_value(c));
    }
    m.insert("experiments".into(), serde_json::Value::Object(exps));
    serde_json::Value::Object(m)
}

fn baseline_path(scale: Scale) -> PathBuf {
    let tag = if scale == Scale::Quick {
        "quick"
    } else {
        "paper"
    };
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("testdata/regress_baseline_{tag}.json"))
}

fn print_summary(iters: usize, rmi: &Histogram, cells: &[Cell]) {
    println!(
        "null RMI round trip over {iters} iters (µs): p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}",
        to_us(rmi.p50()),
        to_us(rmi.p90()),
        to_us(rmi.p99()),
        to_us(rmi.max),
    );
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let g = c.breakdown.metrics.as_ref().unwrap().global();
            vec![
                format!("{} {}", c.lang.label(), c.label),
                format!("{:.2}", to_us(c.breakdown.elapsed) / 1_000.0),
                c.breakdown.counts.msgs_sent.to_string(),
                g.hists.len().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["run", "elapsed ms", "msgs", "hists"], &rows)
    );
}

/// Wall-clock gate over the zero-allocation short-message path.
///
/// Compares against the committed `results/BENCH_fastpath.json`, which only
/// `--update-baseline` rewrites (see [`wall_gate_baseline`]).
fn run_fastpath(jobs: usize, update: bool, json_out: Option<PathBuf>) {
    eprintln!("regress: measuring the short-message fast path...");
    let mut best_wall = f64::INFINITY;
    let mut rtt = None;
    for _ in 0..FASTPATH_REPS {
        let t = Instant::now();
        let h = null_rmi(FASTPATH_ITERS);
        best_wall = best_wall.min(t.elapsed().as_secs_f64());
        rtt = Some(h);
    }
    let rtt = rtt.expect("at least one rep ran");
    let per_sec = FASTPATH_ITERS as f64 / best_wall;
    let t = Instant::now();
    let cells = run_fig5(Scale::Quick, &[0.1, 0.4, 0.7, 1.0], jobs);
    let fig5_wall = t.elapsed().as_secs_f64();
    let fig5_virtual: u64 = cells
        .iter()
        .map(|(_, _, sc, cc)| sc.breakdown.elapsed + cc.breakdown.elapsed)
        .sum();

    let mut m = serde_json::Map::new();
    m.insert("table".into(), "fastpath".to_value());
    m.insert("schema_version".into(), SCHEMA_VERSION.to_value());
    let mut rm = serde_json::Map::new();
    rm.insert("iters".into(), (FASTPATH_ITERS as u64).to_value());
    rm.insert("reps".into(), (FASTPATH_REPS as u64).to_value());
    rm.insert("best_wall_secs".into(), best_wall.to_value());
    rm.insert("rmi_per_sec".into(), per_sec.to_value());
    rm.insert("rtt_p50_ns".into(), rtt.p50().to_value());
    rm.insert("rtt_p99_ns".into(), rtt.p99().to_value());
    m.insert("null_rmi".into(), serde_json::Value::Object(rm));
    let mut fm = serde_json::Map::new();
    fm.insert("pairs".into(), (cells.len() as u64).to_value());
    fm.insert("virtual_elapsed_ns".into(), fig5_virtual.to_value());
    fm.insert("wall_secs".into(), fig5_wall.to_value());
    m.insert("fig5_quick".into(), serde_json::Value::Object(fm));
    let report = serde_json::Value::Object(m);

    println!(
        "fast path: {per_sec:.0} null RMIs/s wall (best of {FASTPATH_REPS}, \
         p50 {:.1} µs virtual), fig5 quick suite {fig5_wall:.2}s wall",
        to_us(rtt.p50()),
    );

    let baseline = Path::new(FASTPATH_BASELINE);
    let Some(base) = wall_gate_baseline(baseline, &report, update, json_out) else {
        return;
    };
    let mut failed = false;
    let base_per_sec = base["null_rmi"]["rmi_per_sec"].as_f64().unwrap_or(0.0);
    if per_sec < base_per_sec * (1.0 - FASTPATH_TOLERANCE) {
        eprintln!(
            "regression: null-RMI throughput {per_sec:.0}/s is more than \
             {:.0}% below the baseline {base_per_sec:.0}/s",
            FASTPATH_TOLERANCE * 100.0
        );
        failed = true;
    }
    if let Some(base_p50) = base["null_rmi"]["rtt_p50_ns"].as_u64() {
        if base_p50 != rtt.p50() {
            eprintln!(
                "regression: virtual null-RMI p50 RTT changed from {base_p50} ns \
                 to {} ns (virtual time is deterministic; an intentional cost-model \
                 change needs --update-baseline)",
                rtt.p50()
            );
            failed = true;
        }
    }
    if let Some(base_fig5) = base["fig5_quick"]["wall_secs"].as_f64() {
        let ratio = fig5_wall / base_fig5;
        eprintln!("fig5 quick wall vs baseline: {ratio:.2}x (informational)");
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "fastpath: throughput within {:.0}% of the baseline in {}",
        FASTPATH_TOLERANCE * 100.0,
        baseline.display()
    );
}

/// Wall-clock gate over the [`LocalFabric`] hot path (lock-free rings,
/// adaptive wait, wall-clock coalescing daemon).
///
/// Like `--fastpath`, compares against a committed baseline,
/// `results/BENCH_local.json`, that only `--update-baseline` rewrites.
/// Latencies come from the registry's log2-bucketed `ccxx.rmi_rtt_ns`
/// histogram, so percentiles are bucket upper edges (`2^k - 1` ns); the
/// gate allows exactly one bucket of upward drift (`new <= 2*old + 1`) — the
/// finest regression the histogram can resolve — and any more is a real
/// latency-class change, not noise.
fn run_local(update: bool, json_out: Option<PathBuf>) {
    eprintln!("regress: measuring the LocalFabric wall-clock hot path...");
    let mut best_wall = f64::INFINITY;
    let mut p50 = u64::MAX;
    let mut p99 = u64::MAX;
    for _ in 0..LOCAL_REPS {
        let t = Instant::now();
        let h = LocalFabric::run(2, move |ctx| {
            cx::init(&ctx, CcxxConfig::tham());
            cx::barrier(&ctx);
            if ctx.node() == 0 {
                for _ in 0..LOCAL_ITERS {
                    cx::rmi(&ctx, 1, cx::M_NULL, &[], None, CallMode::Simple);
                }
            }
            cx::finalize(&ctx);
        })
        .metrics
        .expect("LocalFabric runs with metrics on")
        .hist("ccxx.rmi_rtt_ns")
        .expect("null RMIs record ccxx.rmi_rtt_ns");
        best_wall = best_wall.min(t.elapsed().as_secs_f64());
        assert_eq!(h.count, LOCAL_ITERS as u64, "lost null-RMI round trips");
        p50 = p50.min(h.p50());
        p99 = p99.min(h.p99());
    }
    let per_sec = LOCAL_ITERS as f64 / best_wall;

    let mut m = serde_json::Map::new();
    m.insert("table".into(), "local_gate".to_value());
    m.insert("schema_version".into(), SCHEMA_VERSION.to_value());
    let mut rm = serde_json::Map::new();
    rm.insert("iters".into(), (LOCAL_ITERS as u64).to_value());
    rm.insert("reps".into(), (LOCAL_REPS as u64).to_value());
    rm.insert("best_wall_secs".into(), best_wall.to_value());
    rm.insert("rmi_per_sec".into(), per_sec.to_value());
    rm.insert("rtt_p50_ns".into(), p50.to_value());
    rm.insert("rtt_p99_ns".into(), p99.to_value());
    m.insert("null_rmi".into(), serde_json::Value::Object(rm));
    let report = serde_json::Value::Object(m);

    println!(
        "local: {per_sec:.0} null RMIs/s wall (best of {LOCAL_REPS}), \
         measured RTT p50 {:.1} µs / p99 {:.1} µs",
        to_us(p50),
        to_us(p99),
    );

    let baseline = Path::new(LOCAL_BASELINE);
    let Some(base) = wall_gate_baseline(baseline, &report, update, json_out) else {
        return;
    };
    let mut failed = false;
    let base_per_sec = base["null_rmi"]["rmi_per_sec"].as_f64().unwrap_or(0.0);
    if per_sec < base_per_sec * (1.0 - LOCAL_TOLERANCE) {
        eprintln!(
            "regression: wall-clock null-RMI throughput {per_sec:.0}/s is more \
             than {:.0}% below the baseline {base_per_sec:.0}/s",
            LOCAL_TOLERANCE * 100.0
        );
        failed = true;
    }
    for (name, measured) in [("p50", p50), ("p99", p99)] {
        let key = format!("rtt_{name}_ns");
        let Some(base_ns) = base["null_rmi"][key.as_str()].as_u64() else {
            continue;
        };
        if measured > base_ns.saturating_mul(2) + 1 {
            eprintln!(
                "regression: wall-clock null-RMI {name} RTT {measured} ns is more \
                 than one histogram bucket above the baseline {base_ns} ns"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "local: throughput within {:.0}% and latency within one bucket of the \
         baseline in {}",
        LOCAL_TOLERANCE * 100.0,
        baseline.display()
    );
}

fn main() {
    let (rest, json_out) = take_json_flag(std::env::args().skip(1));
    let (rest, jobs) = take_jobs_flag(rest.into_iter());
    let (rest, scale) = Scale::take(rest);
    let (rest, update) = take_switch(rest, "--update-baseline");
    let (rest, fastpath) = take_switch(rest, "--fastpath");
    let (rest, local) = take_switch(rest, "--local");
    reject_unknown_args(&rest, USAGE);
    let update = update || std::env::var_os("UPDATE_GOLDEN").is_some();
    if fastpath {
        run_fastpath(jobs, update, json_out);
        return;
    }
    if local {
        run_local(update, json_out);
        return;
    }

    eprintln!("regress: measuring the {scale:?}-scale observability suite...");
    let wall_all = Instant::now();
    let iters = if scale == Scale::Quick { 200 } else { 1_000 };
    let t = Instant::now();
    let rmi = null_rmi(iters);
    let rmi_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cells = run_profile_suite(scale, CostModel::default().with_metrics(), jobs);
    let suite_wall = t.elapsed().as_secs_f64();
    let report = build_report(
        scale,
        iters,
        &rmi,
        rmi_wall,
        &cells,
        suite_wall,
        wall_all.elapsed().as_secs_f64(),
    );
    print_summary(iters, &rmi, &cells);
    if rmi.p50() == 0 || cells.is_empty() {
        eprintln!("error: empty null-RMI histogram or no experiment cells");
        std::process::exit(1);
    }
    for c in &cells {
        if c.breakdown
            .metrics
            .as_ref()
            .unwrap()
            .global()
            .hists
            .is_empty()
        {
            eprintln!(
                "error: {} {} recorded no histograms",
                c.lang.label(),
                c.label
            );
            std::process::exit(1);
        }
    }

    let out = json_out.unwrap_or_else(|| PathBuf::from("results/BENCH_observability.json"));
    write_json(&out, &report);

    let baseline = baseline_path(scale);
    if update {
        write_json(&baseline, &report);
        eprintln!("baseline updated: {}", baseline.display());
        return;
    }
    let text = match std::fs::read_to_string(&baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: no committed baseline at {} ({e}); run with --update-baseline to create it",
                baseline.display()
            );
            std::process::exit(2);
        }
    };
    let base: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("error: unreadable baseline {}: {e:?}", baseline.display());
        std::process::exit(2);
    });
    match compare(&report, &base) {
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Ok(regs) if !regs.is_empty() => {
            eprintln!("regressions against {}:", baseline.display());
            for r in &regs {
                eprintln!("  {}", r.describe());
            }
            eprintln!("{} metric(s) out of tolerance", regs.len());
            std::process::exit(1);
        }
        Ok(_) => {
            println!(
                "regress: all gated metrics within tolerance of {}",
                baseline.display()
            );
        }
    }
}
