//! Zero-allocation proof for the **wall-clock** short-send path.
//!
//! PR 7 proved the simulated kernel's short-message round trip allocates
//! nothing in steady state; this test extends the guarantee to
//! `LocalFabric`, with the same **per-thread** counting allocator
//! ([`mpmd_sim::alloc_count`]). Here per-thread counting is not just
//! convenient but required — `LocalFabric` runs every task as its own OS
//! thread, so node 0's count is exactly the path being proven: ring push (lock-free slot claim, message
//! moved by value into the slot), parker bump (two atomics), adaptive wait
//! (TLS `Waiter`, futex park), ring pop — plus the per-thread `node_data`
//! cache every AM send and poll reads its endpoint state through, and the
//! per-message instrumentation the AM layer adds with metrics on: the
//! typed `count` of each send, poll and handler, the inbox-depth and
//! latency histograms, and a named counter. The metric blocks are
//! thread-owned and allocated only on a thread's first use of a name.
//!
//! After warm-up (TLS waiter init, metric blocks, thread start-up debris),
//! a steady-state run of `Payload::Short` ping-pongs on node 0's thread
//! must perform **zero** heap allocations.

use mpmd_fabric::{Fabric, LocalFabric, StatCounter};
use mpmd_sim::alloc_count::{thread_allocs, Counting};
use mpmd_sim::Payload;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

#[global_allocator]
static COUNTER: Counting = Counting;

const WARMUP: usize = 200;
const MEASURED: usize = 1_000;

fn short() -> Payload {
    Payload::Short {
        handler: 7,
        args: [1, 2, 3, 4],
        token: None,
    }
}

/// Stand-in for the AM layer's per-node endpoint state.
struct NodeState(AtomicU64);

/// A `node_data` read, as each AM send and poll does, and the metrics
/// each records.
fn touch_node_data(fab: &LocalFabric) {
    fab.node_data(|| NodeState(AtomicU64::new(0)))
        .0
        .fetch_add(1, Relaxed);
    let t0 = fab.metric_now().expect("metrics are on by default");
    fab.count(StatCounter::ShortMsgs, 1);
    fab.count(StatCounter::Polls, 1);
    fab.count(StatCounter::HandlersRun, 1);
    fab.metric_inbox_depth("test.inbox_depth");
    fab.metric_counter_add("test.sends", 1);
    fab.metric_observe_since("test.op_ns", t0);
}

/// One short-message round trip: node 0 sends, node 1 receives and replies.
fn round_trips(fab: &LocalFabric, n: usize) {
    if fab.node() == 0 {
        for _ in 0..n {
            touch_node_data(fab);
            fab.send_msg(1, 8, 0, short());
            loop {
                if let Some(m) = fab.try_recv() {
                    assert!(matches!(m.payload, Payload::Short { handler: 7, .. }));
                    break;
                }
                fab.park_for_inbox();
            }
        }
    } else {
        for _ in 0..n {
            loop {
                if fab.try_recv().is_some() {
                    break;
                }
                fab.park_for_inbox();
            }
            touch_node_data(fab);
            fab.send_msg(0, 8, 0, short());
        }
    }
}

#[test]
fn wall_clock_short_round_trip_allocates_nothing() {
    static MEASURED_DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    let r = LocalFabric::run(2, |fab| {
        // Warm-up: the TLS waiter and node_data cache, stats/metrics map
        // nodes, and whatever the OS thread's first futex waits touch.
        round_trips(&fab, WARMUP);
        if fab.node() == 0 {
            let before = thread_allocs();
            round_trips(&fab, MEASURED);
            let after = thread_allocs();
            MEASURED_DELTA.store(after - before, Relaxed);
        } else {
            round_trips(&fab, MEASURED);
        }
    });
    assert_eq!(r.stats[0].msgs_sent as usize, WARMUP + MEASURED);
    assert_eq!(
        MEASURED_DELTA.load(Relaxed),
        0,
        "wall-clock short round trips must not allocate ({} allocations \
         across {MEASURED} round trips)",
        MEASURED_DELTA.load(Relaxed)
    );
}
