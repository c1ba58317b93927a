//! Allocation accounting for the message fast path, measured end to end
//! through the AM layer (the sim-level proof lives in
//! `crates/sim/tests/alloc_count.rs` with a hard zero assertion).
//!
//! A counting `#[global_allocator]` brackets steady-state loops and prints
//! one parseable line per scenario:
//!
//! ```text
//! alloc_count/<scenario>: <allocs> allocs / <ops> ops
//! ```
//!
//! Counts are kept **per thread** (const-initialized native TLS, so the
//! counter bump never itself allocates): helper threads — criterion's own,
//! or a test harness's main thread lazily initializing its blocking-recv
//! channel `Context` — must not be able to race spurious allocations into
//! the measured window (see `crates/sim/tests/alloc_count.rs` for the
//! full story). Under the fiber backend the whole simulation runs on the
//! measuring thread, so coverage of the simulator is total.
//!
//! Asserted bounds (the process aborts on regression, failing `cargo bench`):
//! * raw short-message round trip — **0** allocations;
//! * AM short round trip on the wall-clock `LocalFabric`, metrics on —
//!   **0** allocations;
//! * AM bulk send — bounded (the payload buffer and its transfer frames),
//!   currently ≤ 16 allocations per send.

use criterion::{criterion_group, criterion_main, Criterion};
use mpmd_am as am;
use mpmd_fabric::{Fabric, LocalFabric};
use mpmd_sim::{Payload, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(p, l, n) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const WARMUP: usize = 50;
const OPS: usize = 1_000;

fn short() -> Payload {
    Payload::Short {
        handler: 7,
        args: [1, 2, 3, 4],
        token: None,
    }
}

/// Raw substrate short round trips, identical to the sim-level proof.
fn count_short_round_trips() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    Sim::new(2).run(|ctx| {
        let trips = |n: usize| {
            if ctx.node() == 0 {
                for _ in 0..n {
                    ctx.send_msg(1, 8, 1_000, short());
                    ctx.park_for_inbox();
                    ctx.try_recv().unwrap();
                }
            } else {
                for _ in 0..n {
                    ctx.park_for_inbox();
                    ctx.try_recv().unwrap();
                    ctx.send_msg(0, 8, 1_000, short());
                }
            }
        };
        trips(WARMUP);
        if ctx.node() == 0 {
            let before = thread_allocs();
            trips(OPS);
            DELTA.store(thread_allocs() - before, Relaxed);
        } else {
            trips(OPS);
        }
    });
    DELTA.load(Relaxed)
}

/// AM-layer short round trips on `LocalFabric` with its default metrics on:
/// endpoint send with poll-on-send, the handler table, the poll guard, the
/// per-message counters and the thread-owned metric blocks. Counted on node
/// 0's task thread (a `LocalFabric` task is an OS thread).
fn count_local_am_round_trips() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    static PONGS: AtomicU64 = AtomicU64::new(0);
    static PINGS: AtomicU64 = AtomicU64::new(0);
    const H_PING: am::HandlerId = 41;
    const H_PONG: am::HandlerId = 42;
    PONGS.store(0, Relaxed);
    PINGS.store(0, Relaxed);
    let total = (WARMUP + OPS) as u64;
    let r = LocalFabric::run(2, move |fab| {
        am::init(&fab, am::NetProfile::sp_am_splitc());
        if fab.node() == 0 {
            am::register(&fab, H_PONG, |_, _| {
                PONGS.fetch_add(1, Relaxed);
            });
            let trip = |k: u64| {
                am::endpoint(&fab).to(1).handler(H_PING).send();
                am::wait_until(&fab, || PONGS.load(Relaxed) > k);
            };
            (0..WARMUP as u64).for_each(trip);
            let before = thread_allocs();
            (WARMUP as u64..total).for_each(trip);
            DELTA.store(thread_allocs() - before, Relaxed);
        } else {
            am::register(&fab, H_PING, |ctx, _| {
                PINGS.fetch_add(1, Relaxed);
                am::endpoint(ctx).to(0).handler(H_PONG).send();
            });
            am::wait_until(&fab, || PINGS.load(Relaxed) == total);
        }
    });
    assert!(r.metrics.is_some(), "LocalFabric metrics must be on");
    DELTA.load(Relaxed)
}

/// AM-layer bulk writes: each send builds a 1 KiB payload (caller buffer),
/// ships it through the endpoint, and the receiver's handler drops it.
fn count_bulk_sends() -> u64 {
    static DELTA: AtomicU64 = AtomicU64::new(u64::MAX);
    const H_SINK: am::HandlerId = 40;
    Sim::new(2).run(|ctx| {
        am::init(&ctx, am::NetProfile::sp_am_splitc());
        am::register_barrier_handlers(&ctx);
        am::register(&ctx, H_SINK, |_ctx, _m| {});
        am::barrier(&ctx);
        let send_one = || {
            am::endpoint(&ctx)
                .to(1)
                .handler(H_SINK)
                .bulk(bytes::Bytes::from(vec![0u8; 1024]))
                .send();
            am::flush(&ctx);
        };
        if ctx.node() == 0 {
            for _ in 0..WARMUP {
                send_one();
            }
            let before = thread_allocs();
            for _ in 0..OPS {
                send_one();
            }
            DELTA.store(thread_allocs() - before, Relaxed);
        }
        am::barrier(&ctx);
    });
    DELTA.load(Relaxed)
}

fn bench_alloc_counts(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_count");
    // One-shot counts, reported through the bench output so CI and humans
    // see the same numbers the assertions gate on.
    let short_allocs = count_short_round_trips();
    println!("alloc_count/short_round_trip: {short_allocs} allocs / {OPS} ops");
    assert_eq!(
        short_allocs, 0,
        "short-message round trips must stay allocation-free"
    );
    let local_allocs = count_local_am_round_trips();
    println!("alloc_count/local_am_round_trip: {local_allocs} allocs / {OPS} ops");
    assert_eq!(
        local_allocs, 0,
        "LocalFabric AM short round trips must stay allocation-free with metrics on"
    );
    let bulk_allocs = count_bulk_sends();
    let per_send = bulk_allocs.div_ceil(OPS as u64);
    println!("alloc_count/bulk_send_1k: {bulk_allocs} allocs / {OPS} ops ({per_send}/op)");
    assert!(
        per_send <= 16,
        "bulk sends must stay bounded: {per_send} allocs per send"
    );
    // Wall-clock of the counted loops, for the record.
    g.sample_size(10);
    g.bench_function("short_round_trips_counted", |b| {
        b.iter(count_short_round_trips)
    });
    g.finish();
}

criterion_group!(benches, bench_alloc_counts);
criterion_main!(benches);
