//! The layer ladder: ping-pongs on a 2-node LocalFabric through one more
//! layer per rung — raw fabric frame, AM request/reply, Split-C global
//! pointer read, then CC++ null RMI as `Simple`, `Blocking` and `Threaded`.
//! The step from one rung to the next is the added layer's self time (the
//! paper's Table 4 method). Node 0 pings and times; node 1 serves.

use crate::hist::Hist;
use crate::Metric;
use mpmd_am as am;
use mpmd_ccxx::{self as cx, CallMode, CcxxConfig};
use mpmd_fabric::{Fabric, LocalFabric, LocalFabricBuilder};
use mpmd_sim::{Msg, Payload};
use mpmd_splitc::{self as sc, GlobalPtr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frames per timed `send_msg` burst; fits one ring, so no send blocks.
const BURST: u64 = 64;
const RUNGS: u32 = 7;
/// Most calls one fabric run makes in a CC++ rung. Every `Threaded` call
/// leaves an OS thread behind until its run returns (NOTES.md, defect 1),
/// so a rung restarts the fabric after this many calls instead of
/// spending its whole time in one run, however fast the calls become.
pub const CALLS_PER_RUN: u64 = 2_000;

#[derive(Default)]
struct Out {
    hists: Vec<Hist>,
    /// Pings whose reply carried the wrong value.
    wrong: u64,
}

type Shared = Arc<Mutex<Out>>;

/// Node 0's timed loop: `ping` until `dur` has passed or `max` pings are
/// done (at least once).
fn timed(dur: Duration, max: u64, mut ping: impl FnMut()) -> Hist {
    let mut h = Hist::default();
    let start = Instant::now();
    while h.count() == 0 || (start.elapsed() < dur && h.count() < max) {
        let t0 = Instant::now();
        ping();
        h.record(t0.elapsed().as_nanos() as u64);
    }
    h
}

fn finish(out: &Shared, hists: Vec<Hist>, wrong: u64) {
    let mut o = out.lock().expect("no panics hold this lock");
    o.hists.extend(hists);
    o.wrong += wrong;
}

fn recv(ctx: &LocalFabric) -> Msg {
    loop {
        if let Some(m) = ctx.try_recv() {
            return m;
        }
        ctx.park_for_inbox();
    }
}

fn frame(tag: u64, i: u64) -> Payload {
    Payload::Short {
        handler: 0,
        args: [tag, i, 0, 0],
        token: None,
    }
}

fn args(m: Msg) -> [u64; 4] {
    match m.payload {
        Payload::Short { args, .. } => args,
        _ => [u64::MAX; 4],
    }
}

const PING: u64 = 0;
const BURST_TAG: u64 = 1;
const STOP: u64 = 2;

/// Rung 1 plus the send-burst probe: raw `send_msg` / `park_for_inbox` /
/// `try_recv`, no AM layer.
fn fabric_rungs(ctx: LocalFabric, dur: Duration, out: &Shared) {
    if ctx.node() == 1 {
        loop {
            let a = args(recv(&ctx));
            match a[0] {
                PING => ctx.send_msg(0, am::SHORT_WIRE_BYTES, 0, frame(PING, a[1])),
                BURST_TAG if a[1] == BURST - 1 => {
                    ctx.send_msg(0, am::SHORT_WIRE_BYTES, 0, frame(BURST_TAG, 0))
                }
                BURST_TAG => {}
                _ => return,
            }
        }
    }
    let mut wrong = 0;
    let mut i = 0u64;
    let rtt = timed(dur, u64::MAX, || {
        i += 1;
        ctx.send_msg(1, am::SHORT_WIRE_BYTES, 0, frame(PING, i));
        wrong += (args(recv(&ctx)) != [PING, i, 0, 0]) as u64;
    });
    let mut per_call = Hist::default();
    let start = Instant::now();
    while per_call.count() == 0 || start.elapsed() < dur {
        let t0 = Instant::now();
        for k in 0..BURST {
            ctx.send_msg(1, am::SHORT_WIRE_BYTES, 0, frame(BURST_TAG, k));
        }
        per_call.record(t0.elapsed().as_nanos() as u64 / BURST);
        wrong += (args(recv(&ctx))[0] != BURST_TAG) as u64;
    }
    ctx.send_msg(1, am::SHORT_WIRE_BYTES, 0, frame(STOP, 0));
    finish(out, vec![rtt, per_call], wrong);
}

const H_PING: am::HandlerId = 200;
const H_PONG: am::HandlerId = 201;
const H_STOP: am::HandlerId = 202;

/// Rung 2: AM request, reply handler, poll.
fn am_rung(ctx: LocalFabric, dur: Duration, out: &Shared, flags: &Arc<(AtomicU64, AtomicBool)>) {
    am::init(&ctx, am::NetProfile::sp_am_splitc());
    am::register_barrier_handlers(&ctx);
    am::register(&ctx, H_PING, |ctx: &LocalFabric, m: am::AmMsg| {
        am::endpoint(ctx)
            .to(m.src)
            .handler(H_PONG)
            .args(m.args)
            .send()
    });
    let f = Arc::clone(flags);
    am::register(&ctx, H_PONG, move |_: &LocalFabric, m: am::AmMsg| {
        f.0.store(m.args[0], Ordering::SeqCst)
    });
    let f = Arc::clone(flags);
    am::register(&ctx, H_STOP, move |_: &LocalFabric, _| {
        f.1.store(true, Ordering::SeqCst)
    });
    am::barrier(&ctx);
    if ctx.node() == 1 {
        am::wait_until(&ctx, || flags.1.load(Ordering::SeqCst));
        return;
    }
    let ep = am::endpoint(&ctx);
    let mut i = 0u64;
    let rtt = timed(dur, u64::MAX, || {
        i += 1;
        ep.to(1).handler(H_PING).args([i, 0, 0, 0]).send();
        am::wait_until(&ctx, || flags.0.load(Ordering::SeqCst) == i);
    });
    ep.to(1).handler(H_STOP).send();
    finish(out, vec![rtt], 0);
}

/// Rung 3: Split-C blocking global-pointer read (the SPMD reference).
fn splitc_rung(ctx: LocalFabric, dur: Duration, out: &Shared) {
    sc::init(&ctx);
    let arr = sc::all_spread_alloc(&ctx, 1, 1.5);
    sc::barrier(&ctx);
    if ctx.node() == 0 {
        let gp = GlobalPtr {
            node: 1,
            region: arr.region,
            offset: 0,
        };
        let mut wrong = 0;
        let rtt = timed(dur, u64::MAX, || {
            wrong += (sc::read(&ctx, gp) != 1.5) as u64
        });
        finish(out, vec![rtt], wrong);
    }
    sc::barrier(&ctx);
}

/// Rungs 4-6: CC++ null RMI in call mode `mode`, at most
/// [`CALLS_PER_RUN`] calls in this fabric run.
fn ccxx_rung(ctx: LocalFabric, mode: CallMode, dur: Duration, out: &Shared) {
    cx::init(&ctx, CcxxConfig::tham());
    if ctx.node() == 0 {
        let h = timed(dur, CALLS_PER_RUN, || {
            drop(cx::rmi(&ctx, 1, cx::M_NULL, &[], None, mode))
        });
        finish(out, vec![h], 0);
    }
    cx::finalize(&ctx);
}

/// Run `body` on a fresh 2-node LocalFabric and return what it recorded.
fn on_fabric(body: impl Fn(LocalFabric, &Shared) + Send + Sync + 'static) -> Out {
    let out: Shared = Arc::default();
    let o = Arc::clone(&out);
    LocalFabricBuilder::new(2).run(move |ctx| body(ctx, &o));
    let o = std::mem::take(&mut *out.lock().expect("the run has ended"));
    o
}

pub struct Ladder {
    /// fabric frame, send call, AM, GP read, Simple, Blocking, Threaded.
    pub hists: Vec<Hist>,
    pub wrong: u64,
}

/// Run every rung for about `total` in all.
pub fn run(total: Duration) -> Ladder {
    let dur = total / RUNGS;
    let mut lad = Ladder {
        hists: Vec::new(),
        wrong: 0,
    };
    let mut add = |o: Out| {
        lad.wrong += o.wrong;
        o.hists
    };
    let mut hists = add(on_fabric(move |ctx, o| fabric_rungs(ctx, dur, o)));
    let flags = Arc::new((AtomicU64::new(0), AtomicBool::new(false)));
    hists.extend(add(on_fabric(move |ctx, o| am_rung(ctx, dur, o, &flags))));
    hists.extend(add(on_fabric(move |ctx, o| splitc_rung(ctx, dur, o))));
    for mode in [CallMode::Simple, CallMode::Blocking, CallMode::Threaded] {
        let (mut h, start) = (Hist::default(), Instant::now());
        while h.count() == 0 || start.elapsed() < dur {
            let left = dur.saturating_sub(start.elapsed());
            for r in add(on_fabric(move |ctx, o| ccxx_rung(ctx, mode, left, o))) {
                h.merge(&r);
            }
        }
        hists.push(h);
    }
    lad.hists = hists;
    lad
}

impl Ladder {
    pub fn ops(&self) -> u64 {
        self.hists.iter().map(Hist::count).sum()
    }

    fn p50_us(&self, i: usize) -> f64 {
        self.hists[i].quantile(0.5) / 1e3
    }

    /// The AM rung's p50, the base of the CC++ layer's self time.
    pub fn am_rtt_us(&self) -> f64 {
        self.p50_us(2)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let n = |i: usize| self.hists[i].count();
        let (frame, am_, read) = (self.p50_us(0), self.p50_us(2), self.p50_us(3));
        let (simple, blocking, threaded) = (self.p50_us(4), self.p50_us(5), self.p50_us(6));
        vec![
            Metric::new("fabric.frame_rtt_p50_us", frame, "us", n(0)),
            Metric::new(
                "fabric.send_call_ns",
                self.hists[1].quantile(0.5),
                "ns",
                n(1),
            ),
            Metric::new("am.rtt_p50_us", am_, "us", n(2)),
            Metric::new("splitc.read_rtt_p50_us", read, "us", n(3)),
            Metric::new("ladder.ccxx_simple_p50_us", simple, "us", n(4)),
            Metric::new("ladder.ccxx_blocking_p50_us", blocking, "us", n(5)),
            Metric::new("ladder.ccxx_threaded_p50_us", threaded, "us", n(6)),
            Metric::new("ladder.self.am_us", am_ - frame, "us", n(2)),
            Metric::new("ladder.self.splitc_read_us", read - am_, "us", n(3)),
            Metric::new("ladder.self.ccxx_us", simple - am_, "us", n(4)),
            Metric::new("ladder.self.blocking_us", blocking - simple, "us", n(5)),
            Metric::new("ladder.self.threads_us", threaded - blocking, "us", n(6)),
        ]
    }
}
