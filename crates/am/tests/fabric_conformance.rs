//! Fabric conformance suite: one battery of AM-layer contracts, run against
//! both [`Fabric`] implementations — the deterministic simulator
//! (`SimFabric`, via [`mpmd_sim::Sim`]) and the wall-clock OS-thread
//! backend ([`LocalFabric`]).
//!
//! Every battery is a single generic function over `F: Fabric`; the
//! per-fabric `#[test]`s only differ in the driver that brings the machine
//! up. A contract that holds on the simulator but not on real threads (or
//! vice versa) fails here by construction.

use mpmd_am as am;
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::Sim;
use mpmd_sim::TaskId;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const H_SEQ: am::HandlerId = 100;

fn setup<F: Fabric>(ctx: &F) {
    am::init(ctx, am::NetProfile::sp_am_splitc());
    am::register_barrier_handlers(ctx);
}

/// A sequence-recording sink: the handler appends `args[0]` to a node-local
/// log and bumps a counter the receiver can `wait_until` on.
fn seq_sink<F: Fabric>(ctx: &F) -> (Arc<Mutex<Vec<u64>>>, Arc<AtomicU64>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let count = Arc::new(AtomicU64::new(0));
    let (l2, c2) = (Arc::clone(&log), Arc::clone(&count));
    am::register(ctx, H_SEQ, move |_ctx, m| {
        l2.lock().push(m.args[0]);
        c2.fetch_add(1, Ordering::AcqRel);
    });
    (log, count)
}

// ---------------------------------------------------------------- batteries

/// Per-(src,dst) delivery order equals program order.
fn battery_ordering<F: Fabric>(ctx: &F) {
    const K: u64 = 64;
    setup(ctx);
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..K {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == K);
        let got = log.lock().clone();
        let want: Vec<u64> = (0..K).collect();
        assert_eq!(got, want, "messages reordered on the (0,1) link");
    }
    am::barrier(ctx);
}

/// `flush` publishes buffered coalesced sends: with an effectively infinite
/// linger, a synchronous reader sees the data only because of the flush.
fn battery_flush_before_sync_read<F: Fabric>(ctx: &F) {
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: 1 << 20,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(1e12),
        },
    );
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..3u64 {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        // The buffers can never fill or expire; only this makes them move.
        am::flush(ctx);
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == 3);
        assert_eq!(log.lock().clone(), vec![0, 1, 2]);
    }
    am::barrier(ctx);
}

/// A timed inbox park terminates at its deadline even when no message ever
/// arrives (the reliable layer's pump depends on this wake).
fn battery_timeout_wake<F: Fabric>(ctx: &F) {
    setup(ctx);
    am::barrier(ctx);
    let deadline = ctx.now() + mpmd_sim::us(200.0);
    while ctx.now() < deadline {
        ctx.park_for_inbox_until(deadline);
    }
    assert!(ctx.now() >= deadline);
    am::barrier(ctx);
}

/// No node exits barrier `r` before every node entered it.
fn battery_barrier<F: Fabric>(ctx: &F, entered: &[AtomicU64]) {
    const ROUNDS: u64 = 16;
    setup(ctx);
    for r in 0..ROUNDS {
        entered[ctx.node()].fetch_add(1, Ordering::AcqRel);
        am::barrier(ctx);
        for (n, e) in entered.iter().enumerate() {
            let seen = e.load(Ordering::Acquire);
            assert!(
                seen > r,
                "node {} left barrier {r} before node {n} entered (saw {seen})",
                ctx.node()
            );
        }
        am::barrier(ctx);
    }
}

/// The `max_msgs` buffer bound is a flush boundary: exactly `max_msgs`
/// appends go to the wire with no explicit flush, in program order.
fn battery_coalesce_boundary<F: Fabric>(ctx: &F) {
    const BOUND: u64 = 4;
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: BOUND as usize,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(1e12),
        },
    );
    let (log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        // Fills the buffer exactly: the append itself must flush.
        for i in 0..BOUND {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == 0);
        // A partial buffer stays put until the explicit flush.
        for i in BOUND..BOUND + 2 {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
        am::flush(ctx);
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == BOUND + 2);
        let want: Vec<u64> = (0..BOUND + 2).collect();
        assert_eq!(log.lock().clone(), want);
    }
    am::barrier(ctx);
}

/// Timed inbox parks keep their deadline fidelity **under load**: a stream
/// of arrivals (each a productive wake that resets the adaptive-wait
/// escalation) must not starve the deadline check — every timed round
/// terminates with the clock at or past its deadline while traffic flows.
fn battery_timeout_fidelity_under_load<F: Fabric>(ctx: &F) {
    const K: u64 = 2_000;
    const ROUNDS: u32 = 8;
    setup(ctx);
    let (_log, count) = seq_sink(ctx);
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for i in 0..K {
            ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
        }
    }
    if ctx.node() == 1 {
        // Deadline-driven rounds racing the arrival stream: exactly the
        // reliable-layer pump's wait pattern. A wait implementation that
        // let productive wakes postpone the timed wake would hang here.
        for _ in 0..ROUNDS {
            let deadline = ctx.now() + mpmd_sim::us(100.0);
            while ctx.now() < deadline {
                ctx.park_for_inbox_until(deadline);
                am::poll(ctx);
            }
            assert!(ctx.now() >= deadline);
        }
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == K);
    }
    am::barrier(ctx);
}

const H_SYNC: am::HandlerId = 101;

/// With coalescing on (finite linger, so on wall-clock fabrics the linger
/// daemon is live and racing), a synchronous read issued after a burst of
/// coalesced sends must observe **all** of them: the sync request travels
/// behind the burst on the same link, whoever flushed what first.
fn battery_coalesced_flush_before_sync_read<F: Fabric>(ctx: &F) {
    const K: u64 = 8;
    const ROUNDS: u64 = 12;
    setup(ctx);
    am::enable_coalescing(
        ctx,
        am::CoalesceConfig {
            max_msgs: 1 << 20,
            max_bytes: 1 << 30,
            max_linger: mpmd_sim::us(5.0),
        },
    );
    let (log, count) = seq_sink(ctx);
    // The sync read: node 1 replies with how many H_SEQ messages it had
    // handled when the request's handler ran.
    let seen_at_sync = Arc::new(AtomicU64::new(u64::MAX));
    let sync_replies = Arc::new(AtomicU64::new(0));
    let (seen2, replies2) = (Arc::clone(&seen_at_sync), Arc::clone(&sync_replies));
    let count_for_sync = Arc::clone(&count);
    am::register(ctx, H_SYNC, move |rctx: &F, m| {
        if m.args[0] == 0 {
            // Request on node 1: reply with the current handled count.
            let seen = count_for_sync.load(Ordering::Acquire);
            am::endpoint(rctx)
                .to(m.src)
                .handler(H_SYNC)
                .args([1, seen, 0, 0])
                .send();
        } else {
            // Reply on node 0.
            seen2.store(m.args[1], Ordering::Release);
            replies2.fetch_add(1, Ordering::AcqRel);
        }
    });
    am::barrier(ctx);
    if ctx.node() == 0 {
        let ep = am::endpoint(ctx);
        for round in 0..ROUNDS {
            for i in 0..K {
                ep.to(1)
                    .handler(H_SEQ)
                    .args([round * K + i, 0, 0, 0])
                    .send();
            }
            ep.to(1).handler(H_SYNC).args([0, 0, 0, 0]).send();
            let r = Arc::clone(&sync_replies);
            am::wait_until(ctx, move || r.load(Ordering::Acquire) == round + 1);
            let seen = seen_at_sync.load(Ordering::Acquire);
            assert!(
                seen >= (round + 1) * K,
                "sync read overtook coalesced sends: saw {seen} of {} \
                 after round {round}",
                (round + 1) * K
            );
        }
    }
    if ctx.node() == 1 {
        let c = Arc::clone(&count);
        am::wait_until(ctx, move || c.load(Ordering::Acquire) == ROUNDS * K);
        let want: Vec<u64> = (0..ROUNDS * K).collect();
        assert_eq!(log.lock().clone(), want, "coalesced stream reordered");
    }
    am::barrier(ctx);
}

/// A per-node singleton type for the `node_data` battery.
struct Marker(AtomicU64);

fn marker<F: Fabric>(ctx: &F) -> Arc<Marker> {
    ctx.node_data(|| Marker(AtomicU64::new(0)))
}

/// `node_data` is one singleton per (node, type, run): every task of a node
/// — the root, a `spawn`ed task and a `spawn_on` task placed there by
/// another node — gets the same `Arc`, different nodes get different ones,
/// and a run never sees an earlier run's state. `ptrs[n]` collects node
/// `n`'s singleton address.
fn battery_node_data<F: Fabric>(ctx: &F, ptrs: &Arc<Vec<AtomicUsize>>) {
    setup(ctx);
    let me = ctx.node();
    let n = ctx.nodes();
    let mine = marker(ctx);
    assert_eq!(
        mine.0.fetch_add(1, Ordering::SeqCst),
        0,
        "node {me} saw an earlier run's node_data"
    );
    ptrs[me].store(Arc::as_ptr(&mine) as usize, Ordering::SeqCst);
    am::barrier(ctx);
    let all: Vec<usize> = ptrs.iter().map(|p| p.load(Ordering::SeqCst)).collect();
    for (a, pa) in all.iter().enumerate() {
        for (b, pb) in all.iter().enumerate().skip(a + 1) {
            assert_ne!(pa, pb, "nodes {a} and {b} share a node_data singleton");
        }
    }
    let peer = (me + 1) % n;
    assert_eq!(
        Arc::as_ptr(&ctx.node_data_on(peer, || Marker(AtomicU64::new(0)))) as usize,
        all[peer],
        "node_data_on({peer}) disagrees with node {peer}'s own node_data"
    );
    // Spawned tasks report through flags; the root asserts after joining.
    let local_ok = Arc::new(AtomicU64::new(0));
    let remote_ok = Arc::new(AtomicU64::new(0));
    let (l2, want_local) = (Arc::clone(&local_ok), all[me]);
    let t_local = ctx.spawn("nd-local", move |c| {
        let same = Arc::as_ptr(&marker(&c)) as usize == want_local;
        l2.store(1 + same as u64, Ordering::SeqCst);
    });
    let (r2, want_remote) = (Arc::clone(&remote_ok), all[peer]);
    let t_remote = ctx.spawn_on(peer, "nd-remote", move |c| {
        let same = c.node() == peer && Arc::as_ptr(&marker(&c)) as usize == want_remote;
        r2.store(1 + same as u64, Ordering::SeqCst);
    });
    ctx.join(t_local);
    ctx.join(t_remote);
    assert_eq!(
        local_ok.load(Ordering::SeqCst),
        2,
        "spawned task got another Arc"
    );
    assert_eq!(
        remote_ok.load(Ordering::SeqCst),
        2,
        "spawn_on task got another Arc"
    );
    am::barrier(ctx);
}

const H_PING: am::HandlerId = 102;
const H_PONG: am::HandlerId = 103;

/// What node 1's ping handler observed. Violations are counted rather than
/// asserted inside the handler, so a broken guard fails the test after the
/// final barrier instead of stranding the peer node in it.
struct PingLog {
    served: AtomicU64,
    /// Handler entries on a task that was already running the handler.
    recursed: AtomicU64,
    /// Dispatches of ping `i`.
    seen: Vec<AtomicU64>,
}

impl PingLog {
    fn new(n: u64) -> Arc<Self> {
        Arc::new(PingLog {
            served: AtomicU64::new(0),
            recursed: AtomicU64::new(0),
            seen: (0..n).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn served(&self) -> u64 {
        self.served.load(Ordering::Acquire)
    }

    fn assert_exactly_once_without_recursion(&self) {
        assert_eq!(self.recursed.load(Ordering::Acquire), 0, "poll recursed");
        for (i, c) in self.seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Acquire), 1, "ping {i} dispatch count");
        }
    }
}

/// Register a ping handler that replies to its sender from inside the poll
/// that dispatched it. A reply's poll-on-send that re-entered `poll` would
/// dispatch the next queued ping on the same task, inside this handler.
fn ping_replier<F: Fabric>(ctx: &F, log: Arc<PingLog>) {
    let inside: Mutex<HashSet<TaskId>> = Mutex::new(HashSet::new());
    am::register(ctx, H_PING, move |ctx, m| {
        let me = ctx.task_id();
        let outermost = inside.lock().insert(me);
        if !outermost {
            log.recursed.fetch_add(1, Ordering::AcqRel);
        }
        log.seen[m.args[0] as usize].fetch_add(1, Ordering::AcqRel);
        if ctx.wall_clock() {
            // Widen the window in which other pollers overlap this one.
            std::thread::yield_now();
        }
        am::endpoint(ctx).to(m.src).handler(H_PONG).send();
        if outermost {
            inside.lock().remove(&me);
        }
        log.served.fetch_add(1, Ordering::AcqRel);
    });
}

/// Node 0 sends `n` pings to node 1 and waits for every pong.
fn ping_sender<F: Fabric>(ctx: &F, n: u64) {
    let pongs = Arc::new(AtomicU64::new(0));
    let p = Arc::clone(&pongs);
    am::register(ctx, H_PONG, move |_, _| {
        p.fetch_add(1, Ordering::AcqRel);
    });
    am::barrier(ctx);
    let ep = am::endpoint(ctx);
    for i in 0..n {
        ep.to(1).handler(H_PING).args([i, 0, 0, 0]).send();
    }
    am::wait_until(ctx, move || pongs.load(Ordering::Acquire) >= n);
}

/// A handler that sends from inside a poll does not make the poll recurse:
/// node 0 floods node 1, so more pings are queued whenever a ping
/// handler's reply runs poll-on-send.
fn battery_no_recursive_poll<F: Fabric>(ctx: &F) {
    const N: u64 = 300;
    setup(ctx);
    if ctx.node() == 0 {
        ping_sender(ctx, N);
        am::barrier(ctx);
    } else {
        let log = PingLog::new(N);
        ping_replier(ctx, Arc::clone(&log));
        am::barrier(ctx);
        am::wait_until(ctx, || log.served() >= N);
        am::barrier(ctx);
        log.assert_exactly_once_without_recursion();
    }
}

// ------------------------------------------------------------------ drivers

macro_rules! conformance {
    ($battery:ident, $sim_name:ident, $local_name:ident, $nodes:expr) => {
        #[test]
        fn $sim_name() {
            Sim::new($nodes).run(|ctx| $battery(&ctx));
        }

        #[test]
        fn $local_name() {
            LocalFabric::run($nodes, |ctx| $battery(&ctx));
        }
    };
}

conformance!(battery_ordering, ordering_sim, ordering_local, 2);
conformance!(
    battery_flush_before_sync_read,
    flush_before_sync_read_sim,
    flush_before_sync_read_local,
    2
);
conformance!(
    battery_timeout_wake,
    timeout_wake_sim,
    timeout_wake_local,
    2
);
conformance!(
    battery_coalesce_boundary,
    coalesce_boundary_sim,
    coalesce_boundary_local,
    2
);

conformance!(
    battery_timeout_fidelity_under_load,
    timeout_fidelity_under_load_sim,
    timeout_fidelity_under_load_local,
    2
);
conformance!(
    battery_coalesced_flush_before_sync_read,
    coalesced_flush_before_sync_read_sim,
    coalesced_flush_before_sync_read_local,
    2
);

conformance!(
    battery_no_recursive_poll,
    no_recursive_poll_sim,
    no_recursive_poll_local,
    2
);

/// Wall-clock only: more tasks poll one node than the poll guard has
/// lock-free seats, so some polls take the locked fallback. Recursion must
/// still be suppressed for every task, and every frame dispatched exactly
/// once.
#[test]
fn more_pollers_than_seats_local() {
    const N: u64 = 3_000;
    const POLLERS: usize = 12;
    LocalFabric::run(2, |ctx| {
        setup(&ctx);
        if ctx.node() == 0 {
            ping_sender(&ctx, N);
            am::barrier(&ctx);
        } else {
            let log = PingLog::new(N);
            ping_replier(&ctx, Arc::clone(&log));
            let pollers: Vec<_> = (0..POLLERS)
                .map(|_| {
                    let log = Arc::clone(&log);
                    ctx.spawn("poller", move |c| {
                        while log.served() < N {
                            if am::poll(&c) == 0 {
                                c.park_for_inbox();
                            }
                        }
                    })
                })
                .collect();
            am::barrier(&ctx);
            for t in pollers {
                ctx.join(t);
            }
            am::barrier(&ctx);
            log.assert_exactly_once_without_recursion();
        }
    });
}

/// Wall-clock only: a sender that goes completely silent after buffering —
/// no flush, no poll, no further sends — still gets its messages delivered,
/// because the linger daemon notices the expired deadline. (No simulator
/// variant: a silent sender's *virtual* clock never reaches the deadline;
/// on the simulator linger expiry is checked at the sender's own
/// append/poll points by construction.)
#[test]
fn linger_daemon_flushes_silent_sender_local() {
    use std::sync::atomic::AtomicBool;
    let delivered = Arc::new(AtomicBool::new(false));
    let d = Arc::clone(&delivered);
    let r = LocalFabric::run(2, move |ctx| {
        setup(&ctx);
        am::enable_coalescing(
            &ctx,
            am::CoalesceConfig {
                max_msgs: 1 << 20,
                max_bytes: 1 << 30,
                max_linger: mpmd_sim::us(200.0),
            },
        );
        let (log, count) = seq_sink(&ctx);
        am::barrier(&ctx);
        if ctx.node() == 0 {
            let ep = am::endpoint(&ctx);
            for i in 0..3u64 {
                ep.to(1).handler(H_SEQ).args([i, 0, 0, 0]).send();
            }
            // Go silent: no flush, no poll — only real time passes. The
            // shared flag (not an AM reply) signals delivery so this task
            // truly never re-enters the AM layer while waiting.
            while !d.load(Ordering::Acquire) {
                ctx.park_for_inbox();
            }
        } else {
            let c = Arc::clone(&count);
            am::wait_until(&ctx, move || c.load(Ordering::Acquire) == 3);
            assert_eq!(log.lock().clone(), vec![0, 1, 2]);
            d.store(true, Ordering::Release);
        }
        // No closing barrier: node 0 must not be forced through a flush
        // point before the assertion above has already been satisfied.
    });
    let m = r.metrics.expect("LocalFabric metrics default on");
    let lingers: u64 = m
        .nodes
        .iter()
        .filter_map(|n| n.counters.get("am.linger_flushes"))
        .sum();
    assert!(lingers >= 1, "delivery did not come from the linger daemon");
}

#[test]
fn barrier_sim() {
    let entered: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    Sim::new(4).run(move |ctx| battery_barrier(&ctx, &entered));
}

#[test]
fn barrier_local() {
    let entered: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    LocalFabric::run(4, move |ctx| battery_barrier(&ctx, &entered));
}

/// Two sequential runs on one test thread: the second must start from fresh
/// per-node state on both fabrics.
fn node_data_runs(run: impl Fn(Arc<Vec<AtomicUsize>>)) {
    for _ in 0..2 {
        run(Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect()));
    }
}

#[test]
fn node_data_sim() {
    node_data_runs(|ptrs| {
        Sim::new(3).run(move |ctx| battery_node_data(&ctx, &ptrs));
    });
}

#[test]
fn node_data_local() {
    node_data_runs(|ptrs| {
        LocalFabric::run(3, move |ctx| battery_node_data(&ctx, &ptrs));
    });
}
