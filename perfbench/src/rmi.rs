//! `rmi_pingpong`: node 0 of a 2-node LocalFabric is the only caller and
//! keeps one CC++ RMI outstanding (closed loop). The seeded call mix is
//! 70% `Simple` null, 10% `Simple` `M_ADD_F64`, 10% `Blocking` null and
//! 10% `Threaded` null. Every reply is checked, and the accumulated sum is
//! read back on node 1 at the end of each fabric run.

use crate::hist::Hist;
use crate::spans::Spans;
use crate::{Cfg, E2e, Metric, Rng, Scale};
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabricBuilder};
use mpmd_sim::Stats;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Calls per fabric run. Each `Threaded` call leaves an OS thread behind
/// until the run returns (see NOTES.md), so this also fixes the threads
/// one run accumulates: about a tenth of it.
pub fn calls_per_run(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 5_000,
        Scale::Quick => 1_000,
    }
}

/// Fabric runs after which `peak_rss_mb` is read. Threads are reaped when
/// a fabric run returns, so memory does not grow with the runs.
const RSS_AFTER: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    Null,
    Add,
    Blocking,
    Threaded,
}

impl Call {
    fn draw(rng: &mut Rng) -> Call {
        match rng.below(10) {
            0..=6 => Call::Null,
            7 => Call::Add,
            8 => Call::Blocking,
            _ => Call::Threaded,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Call::Null => "ccxx.rmi.simple",
            Call::Add => "ccxx.rmi.simple_add",
            Call::Blocking => "ccxx.rmi.blocking",
            Call::Threaded => "ccxx.rmi.threaded",
        }
    }
}

pub struct RmiRun {
    pub e2e: E2e,
    /// Counters summed over both nodes and every fabric run.
    pub stats: Stats,
    /// Most `Threaded` calls made in one fabric run.
    pub threaded_per_run: u64,
    pub spans: Option<Spans>,
}

#[derive(Default)]
struct RunOut {
    setup: f64,
    lat: Hist,
    busy: Duration,
    bad_replies: u64,
    want_sum: f64,
    got_sum: Option<f64>,
    threaded: u64,
    spans: Option<Spans>,
}

pub fn run(cfg: &Cfg, spans: Option<Spans>) -> RmiRun {
    let calls = calls_per_run(cfg.scale);
    let mut res = RmiRun {
        e2e: E2e::default(),
        stats: Stats::default(),
        threaded_per_run: 0,
        spans,
    };
    let start = Instant::now();
    for epoch in 0.. {
        crate::announce(calls);
        let out = Arc::new(Mutex::new(RunOut {
            spans: res.spans.take(),
            ..RunOut::default()
        }));
        let o2 = Arc::clone(&out);
        let (seed, corrupt) = (cfg.seed, cfg.corrupt && epoch == 0);
        let built = Instant::now();
        let report = LocalFabricBuilder::new(2).run(move |ctx| {
            cx::init(&ctx, CcxxConfig::tham());
            let region = cx::alloc_region(&ctx, 1, 0.0);
            cx::barrier(&ctx);
            if ctx.node() == 0 {
                let setup = built.elapsed().as_secs_f64();
                let mut sp = o2.lock().expect("no panics hold this lock").spans.take();
                let mut rng = Rng::derive(seed, 1, epoch);
                let (mut lat, mut bad, mut want, mut threaded) = (Hist::default(), 0, 0.0, 0);
                let t_loop = Instant::now();
                for i in 0..calls {
                    let call = Call::draw(&mut rng);
                    let (method, mode) = match call {
                        Call::Null => (cx::M_NULL, CallMode::Simple),
                        Call::Add => (cx::M_ADD_F64, CallMode::Simple),
                        Call::Blocking => (cx::M_NULL, CallMode::Blocking),
                        Call::Threaded => (cx::M_NULL, CallMode::Threaded),
                    };
                    let mut words = [0u64; 3];
                    let nwords = if call == Call::Add {
                        let delta = (rng.below(1000) + 1) as f64;
                        want += delta;
                        // The injected fault: the first add sends a delta the
                        // expected sum does not contain.
                        let sent = if corrupt && want == delta {
                            delta + 1.0
                        } else {
                            delta
                        };
                        words = [region as u64, 0, sent.to_bits()];
                        3
                    } else {
                        0
                    };
                    threaded += (call == Call::Threaded) as u64;
                    let t0 = Instant::now();
                    let ret = match sp.as_mut() {
                        None => cx::rmi(&ctx, 1, method, &words[..nwords], None, mode),
                        Some(sp) => {
                            let op = sp.begin("op.rmi", 0, i);
                            let r = sp.time(call.span(), op.id(), i, || {
                                cx::rmi(&ctx, 1, method, &words[..nwords], None, mode)
                            });
                            sp.end(op);
                            r
                        }
                    };
                    lat.record(t0.elapsed().as_nanos() as u64);
                    bad += (ret.words != [0; 4] || ret.data.is_some()) as u64;
                }
                let busy = t_loop.elapsed();
                let mut o = o2.lock().expect("no panics hold this lock");
                o.setup = setup;
                o.lat = lat;
                o.busy = busy;
                o.bad_replies = bad;
                o.want_sum = want;
                o.threaded = threaded;
                o.spans = sp;
            }
            cx::finalize(&ctx);
            if ctx.node() == 1 {
                // finalize committed every staged add on this node.
                let sum = cx::with_local(&ctx, region, |v| v[0]);
                o2.lock().expect("no panics hold this lock").got_sum = Some(sum);
            }
        });
        let o = std::mem::take(&mut *out.lock().expect("the run has ended"));
        let e = &mut res.e2e;
        e.rates.push(calls as f64 / o.busy.as_secs_f64());
        e.setups.push(o.setup);
        e.epochs.push(o.lat);
        e.busy += o.busy;
        e.attempted += calls;
        // A wrong sum cannot be pinned on one call: the whole run failed.
        e.failed += if o.got_sum == Some(o.want_sum) {
            o.bad_replies
        } else {
            calls
        };
        for s in &report.stats {
            add_stats(&mut res.stats, s);
        }
        res.threaded_per_run = res.threaded_per_run.max(o.threaded);
        res.spans = o.spans;
        res.e2e.note_rss(epoch + 1, RSS_AFTER);
        if start.elapsed() >= cfg.time {
            break;
        }
    }
    res
}

pub(crate) fn add_stats(acc: &mut Stats, s: &Stats) {
    acc.thread_creates += s.thread_creates;
    acc.context_switches += s.context_switches;
    acc.msgs_sent += s.msgs_sent;
    acc.polls += s.polls;
    acc.handlers_run += s.handlers_run;
}

/// Per-layer metrics of a traced run. `am_rtt_us` is the ladder's AM rung,
/// the base of the CC++ layer's self time.
pub fn layer_metrics(r: &RmiRun, am_rtt_us: f64) -> Vec<Metric> {
    let sp = r.spans.as_ref().expect("a traced run records spans");
    let p50 = |name: &str| {
        let h = sp.hist(name);
        (h.quantile(0.5) / 1e3, h.count())
    };
    let (simple, ns) = p50("ccxx.rmi.simple");
    let (blocking, nb) = p50("ccxx.rmi.blocking");
    let (threaded, nt) = p50("ccxx.rmi.threaded");
    let calls = r.e2e.attempted;
    let per = |v: u64| v as f64 / calls.max(1) as f64;
    vec![
        Metric::new("ccxx.simple_p50_us", simple, "us", ns),
        Metric::new("ccxx.blocking_p50_us", blocking, "us", nb),
        Metric::new("ccxx.threaded_p50_us", threaded, "us", nt),
        Metric::new("ccxx.self_us", simple - am_rtt_us, "us", ns),
        Metric::new("threads.spawn_cost_us", threaded - blocking, "us", nt),
        Metric::new(
            "threads.creates_per_rmi",
            per(r.stats.thread_creates),
            "count",
            calls,
        ),
        Metric::new(
            "threads.switches_per_rmi",
            per(r.stats.context_switches),
            "count",
            calls,
        ),
        Metric::new("am.msgs_per_op.rmi", per(r.stats.msgs_sent), "count", calls),
        Metric::new(
            "am.handlers_per_poll.rmi",
            r.stats.handlers_run as f64 / r.stats.polls.max(1) as f64,
            "ratio",
            r.stats.polls,
        ),
    ]
}
