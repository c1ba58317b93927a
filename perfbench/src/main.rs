//! `perfbench --workload <rmi_pingpong|splitc_stream|sim_suite> --seed N
//! --seconds S --trace <0|1>`
//!
//! Prints a host fingerprint, one line per metric (value, unit, samples),
//! and as the last line a JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, which is also appended with the fingerprint to
//! `perfbench/out/results.jsonl`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` the per-layer ones. Exits 1 when an output check
//! fails, 2 on bad usage.
//!
//! The measurement runs in a child process. The parent forwards its
//! output, stops it if it outlives twice `--seconds` plus a minute, and if
//! it dies without a result prints one that counts every operation it had
//! started as failed. A traced run measures its untraced part in a second
//! child of its own.

use mpmd_perfbench::report::{self, Plain, Workload, WORKLOADS};
use mpmd_perfbench::{announce, host, Cfg, Metric, Scale, PROGRESS};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <rmi_pingpong|splitc_stream|sim_suite> --seed N --seconds S --trace <0|1>";
const CHILD_ENV: &str = "PERFBENCH_CHILD";

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut w, mut seed, mut secs, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => w = Some(WORKLOADS.iter().find(|(n, _)| n == v).ok_or_else(bad)?),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                secs = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(
                    matches!(v.as_str(), "0" | "1")
                        .then(|| v == "1")
                        .ok_or_else(bad)?,
                )
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let (name, workload) = *w.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: secs.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(CHILD_ENV).is_some() {
        measure(&args)
    } else {
        supervise(&argv, &args)
    }
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!("  {:<30} {:>16.4} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// The measuring process.
fn measure(a: &Args) -> ExitCode {
    println!("host: {}", host::fingerprint());
    let cfg = Cfg {
        seed: a.seed,
        time: Duration::from_secs_f64(a.seconds),
        scale: Scale::Paper,
        corrupt: false,
    };
    let out = if a.trace {
        report::traced(a.workload, &cfg, |part| plain_part(a, part))
    } else {
        report::run(a.workload, &cfg)
    };
    if !out.named.is_empty() {
        print_metrics(&format!("{} (seed {})", a.name, a.seed), &out.named);
    }
    if let Some(spans) = &out.spans {
        let path = out_dir().join(format!("trace-{}-seed{}.json", a.name, a.seed));
        match spans.write_chrome(&path) {
            Ok(()) => println!(
                "spans: {} kept, {} beyond the cap, written to {}",
                spans.kept.len(),
                spans.dropped,
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    print_metrics("reported", &out.metrics);
    println!(
        "  {:<30} {:>16.6} {:<6} n={}",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
        out.attempted
    );
    println!(
        "{}",
        result_json(out.failed == 0, out.attempted, out.failed, &out.metrics)
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The untraced part of a traced run, measured by a process of its own
/// (see [`report::traced`]). Its progress is announced as this process's,
/// so a crash of either counts its operations as failed.
fn plain_part(a: &Args, part: &Cfg) -> Plain {
    let argv: Vec<String> = [
        "--workload",
        a.name,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &part.time.as_secs_f64().to_string(),
        "--trace",
        "0",
    ]
    .map(String::from)
    .into();
    let mut seen = 0;
    let run = run_child(
        &argv,
        deadline(part.time.as_secs_f64()),
        |ops| {
            announce(ops - seen);
            seen = ops;
        },
        |_| (),
    );
    let parsed = run.result.as_deref().and_then(|l| {
        let v: serde_json::Value = serde_json::from_str(l).ok()?;
        let values = v.get("metrics")?.as_object()?.iter();
        Some(Plain {
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            values: values
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        })
    });
    parsed.unwrap_or_else(|| {
        eprintln!(
            "perfbench: the untraced part ended without a result ({:?})",
            run.status
        );
        Plain {
            attempted: seen.max(1),
            failed: seen.max(1),
            values: Vec::new(),
        }
    })
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// How long a measuring process of `seconds` may run before it is stopped.
fn deadline(seconds: f64) -> Duration {
    Duration::from_secs_f64(2.0 * seconds + 60.0)
}

/// What a measuring process left behind.
struct ChildRun {
    /// Its last line, if that is a result.
    result: Option<String>,
    /// Operations it announced before it ended.
    announced: u64,
    status: std::io::Result<ExitStatus>,
}

/// Run this binary as a measuring process with `argv`. Its progress lines
/// go to `progress`, every other line but the last to `line`; it is
/// stopped if it outlives `limit`, and waited for in every case.
fn run_child(
    argv: &[String],
    limit: Duration,
    mut progress: impl FnMut(u64),
    mut line: impl FnMut(String),
) -> ChildRun {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(argv)
            .env(CHILD_ENV, "1")
            .stdout(Stdio::piped())
            .spawn()
    });
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            return ChildRun {
                result: None,
                announced: 0,
                status: Err(e),
            }
        }
    };
    let out = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(out).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + limit;
    let (mut last, mut announced) = (None::<String>, 0u64);
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(l) => {
                if let Some(n) = l.strip_prefix(PROGRESS) {
                    announced = n.parse().unwrap_or(announced);
                    progress(announced);
                } else if let Some(prev) = last.replace(l) {
                    line(prev);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!(
                    "perfbench: no result within {}s, stopping the run",
                    limit.as_secs()
                );
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait();
    let _ = reader.join();
    let result = match last {
        Some(l) if l.starts_with("{\"correct\"") => Some(l),
        Some(l) => {
            line(l);
            None
        }
        None => None,
    };
    ChildRun {
        result,
        announced,
        status,
    }
}

/// Run the measurement in a child process and forward its output. A child
/// that dies or overruns without printing a result counts every operation
/// it announced as attempted and failed. Every result is also appended,
/// with the host fingerprint, to `perfbench/out/results.jsonl`.
fn supervise(argv: &[String], a: &Args) -> ExitCode {
    let run = run_child(argv, deadline(a.seconds), |_| (), |l| println!("{l}"));
    let (result, code) = match (&run.status, run.result) {
        (Ok(s), Some(r)) if s.code().is_some() => {
            (r, s.code().map_or(1, |c| c.clamp(0, 255) as u8))
        }
        (status, _) => {
            eprintln!(
                "perfbench: the run ended without a result ({status:?}); counting its {} operations as failed",
                run.announced
            );
            let n = run.announced.max(1);
            (result_json(false, n, n, &[]), 1)
        }
    };
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"result\": {result}}}\n",
        a.name,
        a.seed,
        a.seconds,
        a.trace as u8,
        host::fingerprint()
    );
    let logged = std::fs::create_dir_all(out_dir()).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir().join("results.jsonl"))?
            .write_all(record.as_bytes())
    });
    if let Err(e) = logged {
        eprintln!("perfbench: could not record the result: {e}");
    }
    println!("{result}");
    ExitCode::from(code)
}
