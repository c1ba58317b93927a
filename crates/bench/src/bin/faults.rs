//! Fault-injection sweep: run each application under each runtime with the
//! wire fault model off and at increasing drop rates (duplicates and
//! reordering ride along), and verify that the reliable-delivery layer
//! reproduces the fault-free application results bit for bit.
//!
//! Usage: `cargo run --release -p mpmd-bench --bin faults [--quick] [-j N] [--seed=N] [--json <path>]`

use mpmd_bench::experiments::{run_faults, FaultCell, Scale};
use mpmd_bench::fmt::{
    cnt, reject_unknown_args, render_table, secs, take_json_flag, usage_error, write_json,
    JsonReport,
};
use mpmd_bench::runner::take_jobs_flag;

const USAGE: &str = "faults [--quick] [-j N] [--seed=N] [--json <path>]";

/// Drop rates swept (the fault model also duplicates at half the drop rate
/// and reorders at the drop rate; see `sweep_faults`). 0% exercises the
/// reliability protocol itself — sequencing, acks, timers — with no faults.
const DROPS: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

fn take_seed_flag(args: Vec<String>) -> (Vec<String>, u64) {
    let mut seed = 1997;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let v = if a == "--seed" {
            args.next()
                .unwrap_or_else(|| usage_error("--seed requires a value", USAGE))
        } else if let Some(v) = a.strip_prefix("--seed=") {
            v.to_string()
        } else {
            rest.push(a);
            continue;
        };
        seed = v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("invalid seed '{v}'"), USAGE));
    }
    (rest, seed)
}

fn main() {
    let (rest, json_path) = take_json_flag(std::env::args().skip(1));
    let (rest, jobs) = take_jobs_flag(rest.into_iter());
    let (rest, scale) = Scale::take(rest);
    let (rest, seed) = take_seed_flag(rest);
    reject_unknown_args(&rest, USAGE);

    eprintln!("running fault-injection sweeps ({scale:?} scale, seed {seed})...");
    let cells = run_faults(scale, &DROPS, seed, jobs);

    let headers = [
        "run", "drop", "secs", "cpu%", "net%", "mgmt%", "sync%", "rt%", "retx", "timeo", "dups",
        "match",
    ];
    let rows: Vec<Vec<String>> = cells.iter().map(row).collect();
    println!("Fault-injection sweep — wire faults vs reliable delivery");
    println!("(drop = packet drop rate; duplicates at half that, reordering at the same rate)");
    println!("{}", render_table(&headers, &rows));

    let mismatches: Vec<&FaultCell> = cells.iter().filter(|c| !c.matches_baseline).collect();
    if let Some(path) = &json_path {
        use serde::Serialize as _;
        let mut m = serde_json::Map::new();
        m.insert("table".to_string(), "faults".to_value());
        m.insert("seed".to_string(), seed.to_value());
        m.insert(
            "cells".to_string(),
            serde_json::Value::Array(cells.iter().map(|c| c.to_json()).collect()),
        );
        m.insert("all_match".to_string(), mismatches.is_empty().to_value());
        write_json(path, &serde_json::Value::Object(m));
    }

    let faulty: Vec<&FaultCell> = cells.iter().filter(|c| c.drop.is_some()).collect();
    let retx: u64 = faulty.iter().map(|c| c.breakdown.counts.retransmits).sum();
    let dups: u64 = faulty.iter().map(|c| c.breakdown.counts.dup_drops).sum();
    println!("{retx} retransmissions and {dups} duplicate suppressions across faulty runs");
    if mismatches.is_empty() {
        println!("all faulty runs reproduced the fault-free application results bit for bit");
    } else {
        for c in &mismatches {
            eprintln!(
                "MISMATCH: {} {} at drop rate {:.2} diverged from its fault-free baseline",
                c.lang.label(),
                c.app,
                c.drop.unwrap_or(0.0),
            );
        }
        std::process::exit(1);
    }
    if retx == 0 {
        eprintln!("no retransmissions under nonzero drop rates: the fault model never fired");
        std::process::exit(1);
    }
}

fn row(c: &FaultCell) -> Vec<String> {
    let b = &c.breakdown;
    let parts = b.components();
    let busy = b.busy_total().max(1) as f64;
    let pct = |v: u64| format!("{:.0}%", v as f64 / busy * 100.0);
    vec![
        format!("{} {}", c.lang.label(), c.app),
        match c.drop {
            None => "off".to_string(),
            Some(d) => format!("{:.0}%", d * 100.0),
        },
        secs(mpmd_sim::to_secs(b.elapsed)),
        pct(parts[0]),
        pct(parts[1]),
        pct(parts[2]),
        pct(parts[3]),
        pct(parts[4]),
        cnt(b.counts.retransmits as f64),
        cnt(b.counts.timeouts as f64),
        cnt(b.counts.dup_drops as f64),
        if c.matches_baseline { "yes" } else { "NO" }.to_string(),
    ]
}
