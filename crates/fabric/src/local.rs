//! The wall-clock fabric: real OS threads, lock-free rings, real nanoseconds.
//!
//! [`LocalFabric`] runs every task as its own OS thread and carries frames
//! over per-(src, dst) ring buffers with parked-thread wakeup, so the
//! benchmarks built on the AM substrate (null-RMI, fig5-style exchanges,
//! EM3D ghost traffic) execute on real hardware and the latency histograms
//! hold *measured* nanoseconds instead of modeled ones.
//!
//! The data path is built for throughput and tail latency (DESIGN.md §4a):
//!
//! * **Lock-free ring fast path.** Each (src, dst) link is a bounded
//!   MPMC ring in the Vyukov style — producers claim a slot by CAS on a
//!   cache-line-padded tail cursor and publish it with a per-slot sequence
//!   stamp; the producer mutex survives only as the *overflow* slow path
//!   taken when the ring is full (or an earlier overflow is still
//!   draining). Depth reads are pure atomic arithmetic and never block a
//!   concurrent sender.
//! * **Adaptive blocking waits.** Inbox parks escalate spin → yield →
//!   timed park with exponentially growing slices capped at the reliable
//!   layer's initial retransmit deadline ([`WaitPolicy`]); a productive
//!   wake resets the ladder. The fixed 200 µs slice of the first version
//!   is available as [`WaitPolicy::park_only`] for comparison.
//! * **Wakeup hub without a sender-side mutex.** Frame delivery bumps an
//!   atomic per-node generation; the hub mutex + condvar are touched only
//!   when a waiter is actually parked. `park` sleeps on the task thread's
//!   own parker, so deliveries never wake tasks waiting for an `unpark`.
//! * **One cache-padded shard per node** ([`NodeShard`]): no two nodes
//!   share a cache line, the fabric's own counters are relaxed atomics,
//!   and `node_data` hits come from a per-thread cache without a lock.
//! * **Cache-line-owned ring slots**: every [`Slot`] is 128-byte aligned,
//!   so publishing slot k+1 never invalidates the line the consumer is
//!   reading for slot k, and an empty link is detected without a lock.
//! * **Thread-owned metrics** ([`OwnedMetric`]): each task thread records
//!   histograms and counters into blocks only it writes; snapshots merge
//!   the blocks by name, and a finished task's blocks fold into its shard.
//!
//! Semantics relative to the simulated fabric:
//!
//! * **Clocks are wall-clock**: `now()` is nanoseconds since the run's
//!   epoch; `charge()` only feeds the per-bucket ledger (it cannot advance
//!   real time). The modeled `delay` of `send_msg` is ignored — the real
//!   machine supplies the real latency.
//! * **Per-link FIFO holds**: each (src, dst) pair has its own ring; the
//!   ring → overflow → ring transition preserves send order by protocol
//!   (see [`Ring`]). No cross-link order is promised (none is promised by
//!   the simulator either — only observed, deterministically).
//! * **Tasks on one node run concurrently** (the simulator runs them
//!   cooperatively, one at a time). The layers above were audited for this:
//!   all shared runtime state lives behind locks, and the contract already
//!   allows spurious wakeups from `park_for_inbox`.
//! * **No fault injection**: `faults_enabled()` is false and the builder
//!   rejects cost models with a fault model installed, so the reliable
//!   layer stays in its plain-send mode.

use crate::{Fabric, StatCounter};
use mpmd_sim::metrics::bucket_index;
use mpmd_sim::{
    size_bucket, Bucket, CostModel, Histogram, MetricsRegistry, Msg, NodeMetrics, Payload, Report,
    Snapshot, SpanId, Stats, TaskId, Time, WaitPhase, WaitPolicy, Waiter, HIST_BUCKETS,
    NUM_BUCKETS,
};
use std::any::{Any, TypeId};
use std::cell::{RefCell, UnsafeCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Pad to a cache line so the producer cursor, consumer cursor and overflow
/// length (and a node's parker) never false-share (128 covers adjacent-line
/// prefetching on x86).
#[repr(align(128))]
struct Pad<T>(T);

/// One ring slot: the sequence stamp both publishes the payload and encodes
/// slot state. For a slot at index `i` with capacity `cap`:
///
/// * `seq == pos`      — free for the producer claiming position `pos`
///   (`pos ≡ i (mod cap)`); initial state is `seq = i`.
/// * `seq == pos + 1`  — published by that producer, ready for the consumer.
/// * `seq == pos + cap` — consumed; free for the *next lap's* producer.
///
/// A stamp plus a message is 112 bytes; the 128-byte alignment gives every
/// slot a line pair of its own, so a producer publishing slot k+1 never
/// invalidates the line the consumer is reading for slot k.
#[repr(align(128))]
struct Slot {
    seq: AtomicUsize,
    msg: UnsafeCell<Option<Msg>>,
}

const _: () = assert!(std::mem::align_of::<Slot>() == 128);

/// One direction of one link: a bounded lock-free ring plus an unbounded
/// mutex-guarded overflow queue, so sends never block and never drop.
///
/// **Fast path** (`try_push_ring` / `try_pop_ring`): Vyukov-style bounded
/// MPMC. Producers CAS-claim the tail cursor, write the slot, then publish
/// with a Release store of the slot's sequence stamp; the consumer's
/// Acquire load of that stamp is the only synchronization the payload
/// handoff needs (the tail CAS itself can be Relaxed). The consumer side is
/// additionally serialized by `cons` because concurrent receivers on one
/// node must also agree on the ring→overflow fallthrough order.
///
/// **FIFO across the overflow transition** is preserved by protocol:
///
/// * A producer uses the lock-free path only while the overflow is
///   observably empty; otherwise it takes `prod` and appends *behind* the
///   overflow. Once a task has a frame in the overflow, its later frames
///   keep queueing there until the overflow drains (its own earlier
///   increment of `overflow_len` stays visible to it), so for any single
///   sender: everything in the ring is older than anything it has in the
///   overflow.
/// * The consumer drains the ring before touching the overflow, and —
///   crucial subtlety — re-checks the ring *after* acquiring `prod`: the
///   lock acquisition synchronizes with the producer that appended the
///   overflow frame, making every ring publish sequenced before that
///   append visible. Without the re-check, a consumer whose pre-lock ring
///   probe raced a publish could pop a newer overflow frame first.
struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    /// Producer claim cursor (CAS).
    tail: Pad<AtomicUsize>,
    /// Consumer cursor; written only under `cons`.
    head: Pad<AtomicUsize>,
    /// Frames in the overflow queue. Updated only under `prod`, read
    /// lock-free by producers (fast-path eligibility) and by `depth`.
    overflow_len: Pad<AtomicUsize>,
    /// Overflow slow path; doubles as the producer-serialization point for
    /// full-ring traffic. Never touched by the lock-free fast path.
    prod: Pad<Mutex<VecDeque<Msg>>>,
    /// Serializes consumers. Padded: every pop writes it, and unpadded it
    /// would share a line with `slots` and `mask`, which every push reads.
    cons: Pad<Mutex<()>>,
}

/// Slot arrays of finished runs, reset to their initial state and reused
/// by later runs of the same capacity. Allocating 128-byte-aligned arrays
/// afresh for every run fragments the C heap (the aligned allocator splits
/// off small leftovers that keep a freed array from coalescing): without
/// the pool, 20 back-to-back 2-node runs ended 0.3 MB higher in peak RSS.
/// Bounded, so a large run does not pin its rings for the rest of the
/// process.
static SLOT_POOL: Mutex<Vec<Box<[Slot]>>> = Mutex::new(Vec::new());
const SLOT_POOL_MAX: usize = 16;

impl Drop for Ring {
    fn drop(&mut self) {
        let Ok(mut pool) = SLOT_POOL.lock() else {
            return;
        };
        if pool.len() < SLOT_POOL_MAX {
            let mut slots = std::mem::take(&mut self.slots);
            // Frames never received are dropped with the run.
            for (i, s) in slots.iter_mut().enumerate() {
                *s.seq.get_mut() = i;
                *s.msg.get_mut() = None;
            }
            pool.push(slots);
        }
    }
}

// Slot payloads are written only by the producer that CAS-claimed the
// position and read only by the consumer that observed the Release-stored
// sequence stamp with an Acquire load.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity");
        // The sequence encoding needs `published(pos) = pos + 1` distinct
        // from `free-for-next-lap(pos) = pos + cap`: a 1-slot ring is
        // carried as a 2-slot ring (behavior — constant overflow churn —
        // is identical).
        let capacity = capacity.max(2);
        let pooled = {
            let mut pool = SLOT_POOL.lock().unwrap();
            let i = pool.iter().position(|s| s.len() == capacity);
            i.map(|i| pool.swap_remove(i))
        };
        Ring {
            slots: pooled.unwrap_or_else(|| {
                (0..capacity)
                    .map(|i| Slot {
                        seq: AtomicUsize::new(i),
                        msg: UnsafeCell::new(None),
                    })
                    .collect()
            }),
            mask: capacity - 1,
            tail: Pad(AtomicUsize::new(0)),
            head: Pad(AtomicUsize::new(0)),
            overflow_len: Pad(AtomicUsize::new(0)),
            prod: Pad(Mutex::new(VecDeque::new())),
            cons: Pad(Mutex::new(())),
        }
    }

    /// Lock-free slot claim; `false` means the ring is full. On success the
    /// message has been moved out of `msg` and published.
    fn try_push_ring(&self, msg: &mut Option<Msg>) -> bool {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq.cmp(&pos) {
                std::cmp::Ordering::Equal => {
                    match self.tail.0.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            unsafe { *slot.msg.get() = msg.take() };
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return true;
                        }
                        Err(cur) => pos = cur,
                    }
                }
                // The slot still holds the previous lap: ring is full.
                std::cmp::Ordering::Less => return false,
                // Another producer advanced past us; chase the tail.
                std::cmp::Ordering::Greater => pos = self.tail.0.load(Ordering::Relaxed),
            }
        }
    }

    /// Pop the slot at `head` if its producer has published it. Caller
    /// holds `cons` (or has exclusive access).
    fn try_pop_ring(&self) -> Option<Msg> {
        let pos = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        if slot.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
            return None;
        }
        let msg = unsafe { (*slot.msg.get()).take() };
        debug_assert!(msg.is_some(), "published slot was empty");
        // Free the slot for the next lap's producer, then advance.
        slot.seq
            .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
        self.head.0.store(pos.wrapping_add(1), Ordering::Release);
        msg
    }

    /// Lock-free emptiness probe: the head slot is unpublished and nothing
    /// is queued in the overflow. A consumer racing another may read a
    /// stale `head` and report a non-empty link as empty; every caller
    /// re-checks through `inbox_wait`, whose depth test sees the frame.
    fn looks_empty(&self) -> bool {
        let pos = self.head.0.load(Ordering::Acquire);
        self.slots[pos & self.mask].seq.load(Ordering::Acquire) != pos.wrapping_add(1)
            && self.overflow_len.0.load(Ordering::Acquire) == 0
    }

    fn push(&self, msg: Msg) {
        let mut msg = Some(msg);
        // Fast path: legal only while the overflow is observably empty —
        // otherwise FIFO requires queueing behind the overflowed frames.
        if self.overflow_len.0.load(Ordering::Acquire) == 0 && self.try_push_ring(&mut msg) {
            return;
        }
        let mut overflow = self.prod.0.lock().unwrap();
        // Re-check under the lock: the consumer may have drained the
        // overflow (and freed ring slots) since the fast-path probe.
        if overflow.is_empty() && self.try_push_ring(&mut msg) {
            return;
        }
        overflow.push_back(msg.take().expect("message consumed twice"));
        self.overflow_len.0.store(overflow.len(), Ordering::Release);
    }

    fn pop(&self) -> Option<Msg> {
        // Most probes find the link empty (the self link always, and the
        // last scan of every poll): answer those without taking `cons`.
        if self.looks_empty() {
            return None;
        }
        let _c = self.cons.0.lock().unwrap();
        if let Some(m) = self.try_pop_ring() {
            return Some(m);
        }
        if self.overflow_len.0.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut overflow = self.prod.0.lock().unwrap();
        // See the type docs: ring publishes sequenced before the oldest
        // overflow append became visible when we acquired `prod` — drain
        // them first or per-link FIFO breaks.
        if let Some(m) = self.try_pop_ring() {
            return Some(m);
        }
        let m = overflow.pop_front();
        self.overflow_len.0.store(overflow.len(), Ordering::Release);
        m
    }

    /// Frames queued on this link. Pure atomic reads — never takes a lock,
    /// so metric sampling (`inbox_depth`) cannot block a concurrent sender.
    /// Transient over-/under-counts during racing claims are acceptable in
    /// a depth gauge; the value is exact whenever the link is quiescent.
    fn depth(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        let ring = tail.wrapping_sub(head).min(self.slots.len());
        ring + self.overflow_len.0.load(Ordering::Acquire)
    }
}

/// Wakeup hub for one node. Every frame delivery (and every unpark
/// targeting the node) bumps `gen`; blocked tasks wait for "something
/// happened here" without a thundering-herd spin. The mutex + condvar are
/// touched only when `waiters` says somebody is actually parked, so the
/// sender-side cost of a bump against a spinning (or absent) receiver is
/// two uncontended atomics.
struct NodeParker {
    gen: AtomicU64,
    /// Tasks currently inside `park_timeout`.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl NodeParker {
    fn new() -> Self {
        NodeParker {
            gen: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// SeqCst throughout: the bump's `gen` increment must be globally
    /// ordered against a registering waiter's `waiters` increment, or a
    /// bump could both miss the waiter count and have its `gen` change
    /// missed by the waiter's re-check (the classic flag/flag race).
    fn bump(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) != 0 {
            // Taking the lock (even empty) fences against a waiter that
            // has registered but not yet entered `wait_timeout`.
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Park until the generation moves past `seen` or `dur` elapses.
    /// Spurious returns are fine; callers re-check their predicate.
    fn park_timeout(&self, seen: u64, dur: Duration) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let g = self.lock.lock().unwrap();
            if self.gen.load(Ordering::SeqCst) == seen {
                let _ = self.cv.wait_timeout(g, dur).unwrap();
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Bookkeeping for one task (= one OS thread).
struct TaskRec {
    node: usize,
    /// Consumable wakeup token: set by `unpark`, consumed by `park`.
    unparked: AtomicBool,
    finished: AtomicBool,
    /// The task's OS thread, set when it starts. `park` sleeps on the
    /// thread's own parker, so only an `unpark` aimed at this task (or
    /// shutdown) wakes it — not every frame delivered to its node.
    thread: OnceLock<std::thread::Thread>,
}

/// Configuration for a wall-clock run beyond the machine shape: how blocked
/// tasks wait and whether node threads are pinned.
#[derive(Clone, Debug)]
pub struct LocalConfig {
    /// Blocking-wait escalation policy (see [`WaitPolicy`]).
    pub wait: WaitPolicy,
    /// Per-link ring capacity (power of two; 1 is carried as 2). The
    /// default, 512 slots of 128 bytes, is 64 KiB per link.
    pub ring_capacity: usize,
    /// Best-effort pinning of each node's threads to core
    /// `node % available_parallelism` (Linux; silently unsupported
    /// elsewhere). Off by default: pinning helps latency benchmarks on an
    /// idle machine and hurts oversubscribed ones.
    pub pin_cores: bool,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            // Host-adaptive: on a single-CPU machine spinning starves the
            // very peer being waited for (see `WaitPolicy::auto_for`).
            wait: WaitPolicy::auto_for(std::thread::available_parallelism().map_or(1, |p| p.get())),
            ring_capacity: 512,
            pin_cores: false,
        }
    }
}

/// Counters the fabric keeps itself, as relaxed atomics: only this node's
/// tasks write them, so an increment is one uncontended atomic add instead
/// of a mutex round trip. Folded into [`Stats`] by `snapshot` and the
/// report.
#[derive(Default)]
struct FabricCounters {
    bucket_ns: [AtomicU64; NUM_BUCKETS],
    msgs_sent: AtomicU64,
    msgs_received: AtomicU64,
    bytes_sent: AtomicU64,
    msg_size_hist: [AtomicU64; 8],
    /// The AM layer's per-message counters ([`Fabric::count`]), indexed by
    /// `StatCounter as usize`.
    am: [AtomicU64; StatCounter::ALL.len()],
}

impl FabricCounters {
    fn fold_into(&self, s: &mut Stats) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        for (acc, c) in s.bucket_ns.iter_mut().zip(&self.bucket_ns) {
            *acc += get(c);
        }
        s.msgs_sent += get(&self.msgs_sent);
        s.msgs_received += get(&self.msgs_received);
        s.bytes_sent += get(&self.bytes_sent);
        for (acc, c) in s.msg_size_hist.iter_mut().zip(&self.msg_size_hist) {
            *acc += get(c);
        }
        for (which, c) in StatCounter::ALL.into_iter().zip(&self.am) {
            *which.field(s) += get(c);
        }
    }
}

/// One thread's share of one metric name on one node. Only the thread that
/// created it writes it (a `LocalFabric` task is an OS thread), so a record
/// is relaxed loads and stores, with no lock and no read-modify-write.
/// Readers merge blocks by name in [`ShardMetrics::snapshot`].
struct OwnedMetric {
    name: &'static str,
    value: OwnedValue,
}

enum OwnedValue {
    Counter(AtomicU64),
    Hist(Box<OwnedHist>),
}

/// A [`Histogram`] with one writer and any number of readers, behind a
/// sequence lock: `seq` is odd while a record is in progress, and a reader
/// retries until it copies all fields between two equal even reads.
struct OwnedHist {
    seq: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl OwnedHist {
    fn new() -> Self {
        OwnedHist {
            seq: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// [`Histogram::record`] for the owning thread.
    fn record(&self, v: u64) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let put = |a: &AtomicU64, x: u64| a.store(x, Ordering::Relaxed);
        let seq = get(&self.seq);
        put(&self.seq, seq + 1);
        // Pairs with the reader's Acquire fence: a reader that copies any
        // field stored below sees the odd stamp (or later) on its re-read.
        fence(Ordering::Release);
        let n = get(&self.count);
        let (lo, hi) = if n == 0 {
            (v, v)
        } else {
            (get(&self.min).min(v), get(&self.max).max(v))
        };
        put(&self.min, lo);
        put(&self.max, hi);
        put(&self.count, n + 1);
        put(&self.sum, get(&self.sum) + v);
        let b = &self.buckets[bucket_index(v)];
        put(b, get(b) + 1);
        // Pairs with the reader's first Acquire load of `seq`.
        self.seq.store(seq + 2, Ordering::Release);
    }

    /// A consistent copy, taken from any thread.
    fn read(&self) -> Histogram {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        loop {
            let seq = self.seq.load(Ordering::Acquire);
            if seq.is_multiple_of(2) {
                let h = Histogram {
                    count: get(&self.count),
                    sum: get(&self.sum),
                    min: get(&self.min),
                    max: get(&self.max),
                    buckets: std::array::from_fn(|i| get(&self.buckets[i])),
                };
                fence(Ordering::Acquire);
                if get(&self.seq) == seq {
                    return h;
                }
            }
            // The owner is mid-record (or was preempted there).
            std::thread::yield_now();
        }
    }
}

impl OwnedMetric {
    fn new(name: &'static str, hist: bool) -> Self {
        let value = if hist {
            OwnedValue::Hist(Box::new(OwnedHist::new()))
        } else {
            OwnedValue::Counter(AtomicU64::new(0))
        };
        OwnedMetric { name, value }
    }

    /// Record `v`: a sample into a histogram, a delta into a counter. Only
    /// the owning thread calls this.
    fn record(&self, v: u64) {
        match &self.value {
            OwnedValue::Counter(c) => c.store(c.load(Ordering::Relaxed) + v, Ordering::Relaxed),
            OwnedValue::Hist(h) => h.record(v),
        }
    }

    fn is(&self, name: &'static str, hist: bool) -> bool {
        std::ptr::eq(self.name, name) && matches!(self.value, OwnedValue::Hist(_)) == hist
    }

    /// Add this block's current contents to `m` under its name. An empty
    /// histogram adds nothing, as `NodeMetrics` never holds one.
    fn add_to(&self, m: &mut NodeMetrics) {
        match &self.value {
            OwnedValue::Counter(c) => {
                *m.counters.entry(self.name).or_insert(0) += c.load(Ordering::Relaxed);
            }
            OwnedValue::Hist(h) => {
                let h = h.read();
                if h.count > 0 {
                    m.hists.entry(self.name).or_default().merge(&h);
                }
            }
        }
    }
}

/// A node's metrics when the registry is on.
#[derive(Default)]
struct ShardMetrics {
    /// Gauges, keyed counters, and the folded blocks of finished tasks.
    folded: NodeMetrics,
    /// Blocks of threads that may still record. A task's blocks leave this
    /// list when it finishes, so it holds at most the live tasks' blocks.
    live: Vec<Arc<OwnedMetric>>,
}

impl ShardMetrics {
    fn snapshot(&self) -> NodeMetrics {
        let mut m = self.folded.clone();
        for b in &self.live {
            b.add_to(&mut m);
        }
        m
    }

    /// Fold a finished thread's block into `folded`. Both happen under the
    /// shard mutex, so a snapshot counts the block exactly once.
    fn retire(&mut self, block: &Arc<OwnedMetric>) {
        self.live.retain(|b| !Arc::ptr_eq(b, block));
        block.add_to(&mut self.folded);
    }
}

/// Everything one node owns (DESIGN.md §4a, "Per-node shard"). The
/// 128-byte alignment keeps two nodes' shards off each other's cache lines
/// (and off the adjacent-line prefetch pair); inside the shard the parker
/// gets lines of its own because its generation is the one field other
/// nodes write.
#[repr(align(128))]
struct NodeShard {
    parker: Pad<NodeParker>,
    counters: FabricCounters,
    /// The upper layers' counters (`with_stats`); the fabric's own live in
    /// `counters`.
    stats: Mutex<Stats>,
    /// Typed singletons behind `node_data`; hits are served from the
    /// per-thread [`NODE_DATA`] cache, so this lock is taken once per
    /// (task, type).
    data: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
    /// Metrics shard; `None` when the registry is off. Histograms and
    /// counters are recorded in thread-owned blocks; the mutex is taken to
    /// register a block, to fold one, to snapshot, and for gauges and keyed
    /// counters.
    metrics: Option<Mutex<ShardMetrics>>,
    /// Round-robin start index for the link scan, so one chatty neighbor
    /// cannot starve the others.
    rotate: AtomicUsize,
}

const _: () = assert!(std::mem::align_of::<NodeShard>() == 128);

impl NodeShard {
    fn new(metrics: bool) -> Self {
        NodeShard {
            parker: Pad(NodeParker::new()),
            counters: FabricCounters::default(),
            stats: Mutex::new(Stats::default()),
            data: Mutex::new(HashMap::new()),
            metrics: metrics.then(|| Mutex::new(ShardMetrics::default())),
            rotate: AtomicUsize::new(0),
        }
    }

    fn stats(&self) -> Stats {
        let mut s = self.stats.lock().unwrap().clone();
        self.counters.fold_into(&mut s);
        s
    }
}

/// Source of [`LfInner::run`] ids.
static NEXT_RUN: AtomicU64 = AtomicU64::new(0);

struct LfInner {
    /// Process-unique id of this run; keys the [`NODE_DATA`] cache.
    run: u64,
    nodes: usize,
    cost: CostModel,
    config: LocalConfig,
    /// Host parallelism, for the core-pinning layout.
    cpus: usize,
    epoch: Instant,
    rings: Vec<Ring>, // src * nodes + dst
    shards: Vec<NodeShard>,
    metrics: bool,
    tasks: Mutex<HashMap<u32, Arc<TaskRec>>>,
    next_task: AtomicU32,
    /// Live non-daemon tasks; shutdown begins when this reaches zero.
    live: AtomicUsize,
    shutting_down: AtomicBool,
    /// Join/exit signaling (global: task exits are rare events).
    fin: Mutex<()>,
    fin_cv: Condvar,
    /// Threads spawned mid-run and not yet joined. Finished ones are reaped
    /// on the next spawn (their stacks stay mapped until joined); `run`
    /// joins the rest after shutdown.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The first panic payload of a reaped task, re-raised by `run`.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl LfInner {
    fn ring(&self, src: usize, dst: usize) -> &Ring {
        &self.rings[src * self.nodes + dst]
    }

    fn parker(&self, node: usize) -> &NodeParker {
        &self.shards[node].parker.0
    }

    fn inbox_len(&self, node: usize) -> usize {
        (0..self.nodes).map(|s| self.ring(s, node).depth()).sum()
    }

    fn task(&self, t: TaskId) -> Arc<TaskRec> {
        Arc::clone(
            self.tasks
                .lock()
                .unwrap()
                .get(&t.0)
                .unwrap_or_else(|| panic!("unknown task {t:?}")),
        )
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for s in &self.shards {
            s.parker.0.bump();
        }
        for rec in self.tasks.lock().unwrap().values() {
            if let Some(t) = rec.thread.get() {
                t.unpark();
            }
        }
        self.fin_cv.notify_all();
    }

    fn stats(&self) -> Vec<Stats> {
        self.shards.iter().map(NodeShard::stats).collect()
    }

    fn registry(&self) -> Option<MetricsRegistry> {
        self.metrics.then(|| MetricsRegistry {
            nodes: self
                .shards
                .iter()
                .map(|s| s.metrics.as_ref().unwrap().lock().unwrap().snapshot())
                .collect(),
        })
    }

    /// Fold this thread's metric blocks of this run into their shards. Run
    /// by every task thread when its body returns.
    fn retire_metrics(&self) {
        METRICS.with(|c| {
            c.borrow_mut().retain(|e| {
                if e.run != self.run {
                    return true;
                }
                if let Some(m) = &self.shards[e.node].metrics {
                    m.lock().unwrap().retire(&e.block);
                }
                false
            })
        });
    }

    /// Join a spawned task's thread, keeping the first panic for `run`.
    fn join_handle(&self, h: std::thread::JoinHandle<()>) {
        if let Err(e) = h.join() {
            self.panicked.lock().unwrap().get_or_insert(e);
        }
    }
}

/// Best-effort thread→core pinning. Implemented with a raw
/// `sched_setaffinity` syscall so the offline build needs no libc crate; a
/// failed call (or a non-Linux/x86-64 host) silently leaves the thread
/// unpinned — pinning is a latency optimization, never a correctness need.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_core(core: usize) {
    let mut mask = [0u64; 16]; // cpu_set_t sized for 1024 CPUs
    let word = (core / 64) % mask.len();
    mask[word] |= 1u64 << (core % 64);
    unsafe {
        let mut _ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => _ret, // SYS_sched_setaffinity
            in("rdi") 0,                     // 0 = calling thread
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_core(_core: usize) {}

thread_local! {
    /// This thread's wait-escalation state. A `LocalFabric` task *is* an OS
    /// thread, so thread-local storage is exactly per-task storage; const
    /// init keeps the first park allocation-free.
    static WAITER: RefCell<Option<Waiter>> = const { RefCell::new(None) };

    /// This thread's `node_data` hits. Keyed by run as well as node and type:
    /// a `LocalFabric` handle can outlive its run on a foreign thread, and a
    /// later run on that thread must never see the earlier run's state.
    /// Entries of other runs are dropped on the next miss.
    static NODE_DATA: RefCell<Vec<CachedData>> = const { RefCell::new(Vec::new()) };

    /// This thread's metric blocks, keyed like [`NODE_DATA`] by run and
    /// node, and by the name's address. Entries of other runs are dropped
    /// on the next miss.
    static METRICS: RefCell<Vec<CachedMetric>> = const { RefCell::new(Vec::new()) };
}

/// One [`METRICS`] entry.
struct CachedMetric {
    run: u64,
    node: usize,
    block: Arc<OwnedMetric>,
}

/// One [`NODE_DATA`] entry.
struct CachedData {
    run: u64,
    node: usize,
    ty: TypeId,
    data: Arc<dyn Any + Send + Sync>,
}

/// Configuration for a wall-clock run.
pub struct LocalFabricBuilder {
    nodes: usize,
    cost: CostModel,
    metrics: bool,
    config: LocalConfig,
}

impl LocalFabricBuilder {
    /// A machine of `nodes` OS-thread nodes with the default cost model.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "at least one node");
        LocalFabricBuilder {
            nodes,
            cost: CostModel::default(),
            metrics: true,
            config: LocalConfig::default(),
        }
    }

    /// Use `cost` for the charge ledger (unit costs only; the fault model
    /// must be absent — fault injection needs the deterministic kernel).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        assert!(
            cost.faults.is_none(),
            "LocalFabric does not support fault injection"
        );
        self.cost = cost;
        self
    }

    /// Enable or disable the metrics registry (on by default — wall-clock
    /// histograms are the point of this backend). Histograms and counters
    /// are recorded lock-free into blocks owned by the recording thread: a
    /// thread's first use of a name allocates its block and registers it
    /// with the node under a lock, later records take no lock. Snapshots
    /// and the report merge the blocks by name, and a task's blocks fold
    /// into its node when it finishes. Gauges and keyed counters are kept
    /// under the node's metrics lock.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Per-link ring capacity (power of two; 1 is carried as 2).
    pub fn ring_capacity(mut self, cap: usize) -> Self {
        assert!(cap.is_power_of_two(), "ring capacity");
        self.config.ring_capacity = cap;
        self
    }

    /// Blocking-wait escalation policy for every task in the run.
    pub fn wait_policy(mut self, wait: WaitPolicy) -> Self {
        wait.validate();
        self.config.wait = wait;
        self
    }

    /// Pin each node's threads to core `node % available_parallelism`.
    pub fn pin_cores(mut self, pin: bool) -> Self {
        self.config.pin_cores = pin;
        self
    }

    /// Replace the whole run configuration.
    pub fn config(mut self, config: LocalConfig) -> Self {
        config.wait.validate();
        assert!(config.ring_capacity.is_power_of_two(), "ring capacity");
        self.config = config;
        self
    }

    /// Run `body` once per node (as node 0..N-1) on real OS threads and
    /// collect the report: per-node wall-clock elapsed time, the charge
    /// ledger, and the measured-nanosecond metrics registry.
    pub fn run<G>(self, body: G) -> Report
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        let n = self.nodes;
        let cap = self.config.ring_capacity;
        let inner = Arc::new(LfInner {
            run: NEXT_RUN.fetch_add(1, Ordering::Relaxed),
            nodes: n,
            cost: self.cost,
            cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            epoch: Instant::now(),
            rings: (0..n * n).map(|_| Ring::new(cap)).collect(),
            shards: (0..n).map(|_| NodeShard::new(self.metrics)).collect(),
            metrics: self.metrics,
            tasks: Mutex::new(HashMap::new()),
            next_task: AtomicU32::new(0),
            live: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            fin: Mutex::new(()),
            fin_cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            panicked: Mutex::new(None),
            config: self.config,
        });
        let body = Arc::new(body);
        let mut roots = Vec::with_capacity(n);
        for node in 0..n {
            let b = Arc::clone(&body);
            let (_, h) = spawn_task(&inner, node, "root", false, move |fab| b(fab));
            roots.push(h);
        }
        for h in roots {
            h.join().expect("node root thread panicked");
        }
        // Roots are done; any non-daemon stragglers they spawned keep the
        // run alive until they exit, then daemons are told to wind down.
        {
            let mut g = inner.fin.lock().unwrap();
            while inner.live.load(Ordering::SeqCst) != 0 {
                g = inner.fin_cv.wait(g).unwrap();
            }
        }
        inner.begin_shutdown();
        let spawned = std::mem::take(&mut *inner.handles.lock().unwrap());
        for h in spawned {
            inner.join_handle(h);
        }
        if let Some(e) = inner.panicked.lock().unwrap().take() {
            panic!("spawned task panicked: {e:?}");
        }
        let elapsed = inner.epoch.elapsed().as_nanos() as u64;
        Report {
            clocks: vec![elapsed; n],
            stats: inner.stats(),
            trace: None,
            metrics: inner.registry(),
        }
    }
}

fn spawn_task<G>(
    inner: &Arc<LfInner>,
    node: usize,
    name: &str,
    daemon: bool,
    f: G,
) -> (TaskId, std::thread::JoinHandle<()>)
where
    G: FnOnce(LocalFabric) + Send + 'static,
{
    let id = TaskId(inner.next_task.fetch_add(1, Ordering::SeqCst));
    let rec = Arc::new(TaskRec {
        node,
        unparked: AtomicBool::new(false),
        finished: AtomicBool::new(false),
        thread: OnceLock::new(),
    });
    inner.tasks.lock().unwrap().insert(id.0, Arc::clone(&rec));
    if !daemon {
        inner.live.fetch_add(1, Ordering::SeqCst);
    }
    let fab = LocalFabric {
        inner: Arc::clone(inner),
        node,
        task: id,
        rec: Arc::clone(&rec),
    };
    let pin = inner.config.pin_cores.then(|| node % inner.cpus);
    let handle = std::thread::Builder::new()
        .name(format!("lf-{node}-{name}"))
        .spawn(move || {
            if let Some(core) = pin {
                pin_to_core(core);
            }
            let _ = rec.thread.set(std::thread::current());
            let inner = Arc::clone(&fab.inner);
            f(fab);
            inner.retire_metrics();
            rec.finished.store(true, Ordering::SeqCst);
            let _g = inner.fin.lock().unwrap();
            if !daemon && inner.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                drop(_g);
                inner.begin_shutdown();
            } else {
                drop(_g);
            }
            inner.fin_cv.notify_all();
            // A finished task might be sitting in someone's unpark path;
            // bump its node so any waiter re-checks.
            inner.parker(node).bump();
        })
        .expect("OS thread spawn failed");
    (id, handle)
}

/// A handle to the wall-clock machine held by one task (= OS thread).
/// Cheap to clone; clones refer to the same task.
pub struct LocalFabric {
    inner: Arc<LfInner>,
    node: usize,
    task: TaskId,
    /// This task's record, cached so the hot park/unpark-token paths never
    /// touch the global task table.
    rec: Arc<TaskRec>,
}

impl Clone for LocalFabric {
    fn clone(&self) -> Self {
        LocalFabric {
            inner: Arc::clone(&self.inner),
            node: self.node,
            task: self.task,
            rec: Arc::clone(&self.rec),
        }
    }
}

impl LocalFabric {
    /// Run `body` on `nodes` OS threads with the default configuration.
    pub fn run<G>(nodes: usize, body: G) -> Report
    where
        G: Fn(LocalFabric) + Send + Sync + 'static,
    {
        LocalFabricBuilder::new(nodes).run(body)
    }

    fn spawn_inner<G>(&self, node: usize, name: &str, daemon: bool, f: G) -> TaskId
    where
        G: FnOnce(LocalFabric) + Send + 'static,
    {
        let (id, h) = spawn_task(&self.inner, node, name, daemon, f);
        let mut handles = self.inner.handles.lock().unwrap();
        // Reap threads whose task has returned, so a run that spawns a
        // thread per call (threaded RMIs) keeps a bounded number of stacks.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                self.inner.join_handle(handles.swap_remove(i));
            } else {
                i += 1;
            }
        }
        handles.push(h);
        id
    }

    fn shard(&self) -> &NodeShard {
        &self.inner.shards[self.node]
    }

    /// Record `v` into this thread's block for metric `name` on this node,
    /// creating the block and registering it with the shard on first use.
    fn record_owned(&self, m: &Mutex<ShardMetrics>, name: &'static str, hist: bool, v: u64) {
        let (run, node) = (self.inner.run, self.node);
        METRICS.with(|c| {
            let mut c = c.borrow_mut();
            if let Some(e) = c
                .iter()
                .find(|e| e.run == run && e.node == node && e.block.is(name, hist))
            {
                return e.block.record(v);
            }
            let block = Arc::new(OwnedMetric::new(name, hist));
            m.lock().unwrap().live.push(Arc::clone(&block));
            block.record(v);
            c.retain(|e| e.run == run);
            c.push(CachedMetric { run, node, block });
        })
    }

    /// Run `f` with this thread's wait-escalation state.
    fn with_waiter<R>(&self, f: impl FnOnce(&mut Waiter) -> R) -> R {
        WAITER.with(|w| {
            let mut w = w.borrow_mut();
            f(w.get_or_insert_with(|| Waiter::new(self.inner.config.wait)))
        })
    }

    /// The shared three-phase inbox wait behind `park_for_inbox` and
    /// `park_for_inbox_until`.
    ///
    /// Spin and yield phases poll the parker generation — bumped on every
    /// delivery and unpark targeting this node — rather than re-summing all
    /// link depths, so one spin iteration is one atomic load. The park
    /// phase does one bounded timed wait and then returns (a permitted
    /// spurious wakeup): callers loop on their own predicate, and the
    /// escalation state persists across calls so consecutive unproductive
    /// waits keep backing off while any productive wake resets the ladder.
    fn inbox_wait(&self, deadline: Option<Time>) {
        let inner = &*self.inner;
        let parker = inner.parker(self.node);
        let seen = parker.gen.load(Ordering::SeqCst);
        let productive = |seen: u64| {
            inner.inbox_len(self.node) > 0
                || parker.gen.load(Ordering::SeqCst) != seen
                || (self.rec.unparked.load(Ordering::Relaxed)
                    && self.rec.unparked.swap(false, Ordering::SeqCst))
                || inner.shutting_down.load(Ordering::SeqCst)
        };
        self.with_waiter(|w| {
            if productive(seen) {
                w.reset();
                return;
            }
            loop {
                if let Some(d) = deadline {
                    if self.now() >= d {
                        w.reset();
                        return;
                    }
                }
                match w.next_phase() {
                    WaitPhase::Spin => {
                        std::hint::spin_loop();
                        if parker.gen.load(Ordering::SeqCst) != seen
                            || inner.shutting_down.load(Ordering::SeqCst)
                        {
                            w.reset();
                            return;
                        }
                    }
                    WaitPhase::Yield => {
                        std::thread::yield_now();
                        if productive(seen) {
                            w.reset();
                            return;
                        }
                    }
                    WaitPhase::Park(ns) => {
                        let mut dur = ns;
                        if let Some(d) = deadline {
                            let now = self.now();
                            if now >= d {
                                w.reset();
                                return;
                            }
                            dur = dur.min(d - now);
                        }
                        // Final pre-sleep check against the generation we
                        // captured on entry; a delivery between it and the
                        // wait is caught by park_timeout's locked re-check.
                        if productive(seen) {
                            w.reset();
                            return;
                        }
                        parker.park_timeout(seen, Duration::from_nanos(dur));
                        if productive(seen) {
                            w.reset();
                        }
                        // One bounded wait per call: return (possibly
                        // spuriously) and let the caller re-check.
                        return;
                    }
                }
            }
        })
    }
}

impl Fabric for LocalFabric {
    fn node(&self) -> usize {
        self.node
    }

    fn nodes(&self) -> usize {
        self.inner.nodes
    }

    fn task_id(&self) -> TaskId {
        self.task
    }

    fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    fn now(&self) -> Time {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn charge(&self, bucket: Bucket, ns: Time) {
        if ns == 0 {
            return;
        }
        self.shard().counters.bucket_ns[bucket.index()].fetch_add(ns, Ordering::Relaxed);
    }

    /// The fabric's own counters (`bucket_ns`, `msgs_sent`,
    /// `msgs_received`, `bytes_sent`, `msg_size_hist`) and the
    /// [`Fabric::count`] counters are kept outside this `Stats` and read as
    /// zero here; `snapshot` and the report carry them.
    fn with_stats<R>(&self, f: impl FnOnce(&mut Stats) -> R) -> R {
        f(&mut self.shard().stats.lock().unwrap())
    }

    fn count(&self, c: StatCounter, n: u64) {
        self.shard().counters.am[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Snapshot {
        let now = self.now();
        Snapshot {
            clocks: vec![now; self.inner.nodes],
            stats: self.inner.stats(),
            metrics: self.inner.registry(),
        }
    }

    fn spawn<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        self.spawn_inner(self.node, name, false, f)
    }

    fn spawn_on<G>(&self, node: usize, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        self.spawn_inner(node, name, false, f)
    }

    fn spawn_daemon<G>(&self, name: &str, f: G) -> TaskId
    where
        G: FnOnce(Self) + Send + 'static,
    {
        self.spawn_inner(self.node, name, true, f)
    }

    fn yield_now(&self) {
        std::thread::yield_now();
    }

    fn park(&self) {
        let inner = &*self.inner;
        self.with_waiter(|w| loop {
            if self.rec.unparked.swap(false, Ordering::SeqCst) {
                w.reset();
                return;
            }
            if inner.shutting_down.load(Ordering::SeqCst) {
                // Strict parks are only legal while their waker is alive;
                // during teardown, waking spuriously beats deadlocking.
                return;
            }
            match w.next_phase() {
                WaitPhase::Spin => std::hint::spin_loop(),
                WaitPhase::Yield => std::thread::yield_now(),
                // An `unpark` after the token check above still ends this
                // sleep at once: it also unparks the thread.
                WaitPhase::Park(ns) => std::thread::park_timeout(Duration::from_nanos(ns)),
            }
        })
    }

    fn unpark(&self, t: TaskId) {
        let rec = if t == self.task {
            Arc::clone(&self.rec)
        } else {
            self.inner.task(t)
        };
        rec.unparked.store(true, Ordering::SeqCst);
        if let Some(thread) = rec.thread.get() {
            thread.unpark();
        }
        // An inbox wait also ends on the token: wake it through the node.
        self.inner.parker(rec.node).bump();
    }

    fn park_for_inbox(&self) {
        self.inbox_wait(None);
    }

    fn park_for_inbox_until(&self, deadline: Time) {
        self.inbox_wait(Some(deadline));
    }

    fn sleep(&self, ns: Time) {
        std::thread::sleep(Duration::from_nanos(ns));
    }

    fn join(&self, t: TaskId) {
        let rec = self.inner.task(t);
        let mut g = self.inner.fin.lock().unwrap();
        while !rec.finished.load(Ordering::SeqCst) {
            g = self.inner.fin_cv.wait(g).unwrap();
        }
    }

    fn is_finished(&self, t: TaskId) -> bool {
        self.inner.task(t).finished.load(Ordering::SeqCst)
    }

    fn shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    fn poll_point(&self) {
        // Delivery is immediate on this fabric; nothing to pull forward.
    }

    fn wall_clock(&self) -> bool {
        true
    }

    fn send_msg(&self, dst: usize, wire_bytes: usize, _delay: Time, payload: Payload) {
        assert!(dst < self.inner.nodes, "send to nonexistent node {dst}");
        // Only the sender's own shard: the receive count is recorded at
        // try_recv on the receiver's shard, so the send fast path never
        // writes another node's counters.
        let c = &self.shard().counters;
        c.msgs_sent.fetch_add(1, Ordering::Relaxed);
        c.bytes_sent.fetch_add(wire_bytes as u64, Ordering::Relaxed);
        c.msg_size_hist[size_bucket(wire_bytes)].fetch_add(1, Ordering::Relaxed);
        self.inner.ring(self.node, dst).push(Msg {
            src: self.node,
            wire_bytes,
            payload,
        });
        self.inner.parker(dst).bump();
    }

    fn try_recv(&self) -> Option<Msg> {
        let n = self.inner.nodes;
        let shard = self.shard();
        let start = shard.rotate.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let src = (start + i) % n;
            if let Some(m) = self.inner.ring(src, self.node).pop() {
                shard.counters.msgs_received.fetch_add(1, Ordering::Relaxed);
                return Some(m);
            }
        }
        None
    }

    fn inbox_len(&self) -> usize {
        self.inner.inbox_len(self.node)
    }

    fn node_data<T, G>(&self, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T,
    {
        self.node_data_on(self.node, init)
    }

    fn node_data_on<T, G>(&self, node: usize, init: G) -> Arc<T>
    where
        T: Send + Sync + 'static,
        G: FnOnce() -> T,
    {
        let (run, ty) = (self.inner.run, TypeId::of::<T>());
        let hit = NODE_DATA.with(|c| {
            c.borrow()
                .iter()
                .find(|e| e.ty == ty && e.node == node && e.run == run)
                .map(|e| Arc::clone(&e.data))
        });
        let data = hit.unwrap_or_else(|| {
            let data = Arc::clone(
                self.inner.shards[node]
                    .data
                    .lock()
                    .unwrap()
                    .entry(ty)
                    .or_insert_with(|| Arc::new(init()) as Arc<dyn Any + Send + Sync>),
            );
            NODE_DATA.with(|c| {
                let mut c = c.borrow_mut();
                c.retain(|e| e.run == run);
                c.push(CachedData {
                    run,
                    node,
                    ty,
                    data: Arc::clone(&data),
                });
            });
            data
        });
        Arc::downcast::<T>(data).expect("node_data type confusion")
    }

    fn metrics_enabled(&self) -> bool {
        self.inner.metrics
    }

    fn metric_observe(&self, name: &'static str, v: u64) {
        if let Some(m) = &self.shard().metrics {
            self.record_owned(m, name, true, v);
        }
    }

    fn metric_observe_since(&self, name: &'static str, t0: Time) {
        if self.inner.metrics {
            let now = self.now();
            self.metric_observe(name, now.saturating_sub(t0));
        }
    }

    fn metric_inbox_depth(&self, name: &'static str) {
        if self.inner.metrics {
            let depth = self.inner.inbox_len(self.node) as u64;
            self.metric_observe(name, depth);
        }
    }

    fn metric_counter_add(&self, name: &'static str, delta: u64) {
        if let Some(m) = &self.shard().metrics {
            self.record_owned(m, name, false, delta);
        }
    }

    fn metric_keyed_add(&self, name: &'static str, key: u64, delta: u64) {
        if let Some(m) = &self.shard().metrics {
            *m.lock()
                .unwrap()
                .folded
                .keyed
                .entry(name)
                .or_default()
                .entry(key)
                .or_insert(0) += delta;
        }
    }

    fn metric_gauge_set(&self, name: &'static str, v: u64) {
        if let Some(m) = &self.shard().metrics {
            m.lock().unwrap().folded.gauges.insert(name, v);
        }
    }

    fn span_start(&self, _name: &str) -> SpanId {
        SpanId(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_round_trip() {
        let r = LocalFabric::run(2, |fab| {
            if fab.node() == 0 {
                fab.send_msg(1, 8, 1, Payload::any(41u64));
                loop {
                    if let Some(m) = fab.try_recv() {
                        assert_eq!(*m.payload.downcast::<u64>().unwrap(), 42);
                        break;
                    }
                    fab.park_for_inbox();
                }
            } else {
                loop {
                    if let Some(m) = fab.try_recv() {
                        assert_eq!(*m.payload.downcast::<u64>().unwrap(), 41);
                        break;
                    }
                    fab.park_for_inbox();
                }
                fab.send_msg(0, 8, 1, Payload::any(42u64));
            }
        });
        assert_eq!(r.stats[0].msgs_sent, 1);
        assert_eq!(r.stats[1].msgs_sent, 1);
        assert_eq!(r.stats[0].msgs_received, 1);
    }

    #[test]
    fn per_link_fifo_holds_under_load() {
        let r = LocalFabric::run(2, |fab| {
            const N: u64 = 5_000; // > ring capacity: exercises the overflow
            if fab.node() == 0 {
                for i in 0..N {
                    fab.send_msg(1, 8, 1, Payload::any(i));
                }
            } else {
                let mut expect = 0u64;
                while expect < N {
                    match fab.try_recv() {
                        Some(m) => {
                            assert_eq!(*m.payload.downcast::<u64>().unwrap(), expect);
                            expect += 1;
                        }
                        None => fab.park_for_inbox(),
                    }
                }
            }
        });
        assert_eq!(r.stats[0].msgs_sent, 5_000);
        assert_eq!(r.stats[1].msgs_received, 5_000);
    }

    #[test]
    fn unpark_before_park_is_not_lost() {
        LocalFabric::run(1, |fab| {
            let me = fab.task_id();
            let f2 = fab.clone();
            let t = fab.spawn("waker", move |c| {
                c.unpark(me);
                let _ = f2; // keep a clone alive across the spawn
            });
            fab.join(t);
            fab.park(); // token already consumed-able: must not hang
        });
    }

    #[test]
    fn spawn_join_and_charge_ledger() {
        let r = LocalFabric::run(1, |fab| {
            let t = fab.spawn("w", |c| {
                c.charge(Bucket::Cpu, 1_000);
                c.with_stats(|s| s.polls += 1);
            });
            fab.join(t);
            assert!(fab.is_finished(t));
        });
        assert_eq!(r.stats[0].bucket_ns[Bucket::Cpu.index()], 1_000);
        assert_eq!(r.stats[0].polls, 1);
    }

    #[test]
    fn timeout_wake_fires_without_traffic() {
        LocalFabric::run(1, |fab| {
            let deadline = fab.now() + 200_000; // 200 µs
            while fab.now() < deadline {
                fab.park_for_inbox_until(deadline);
            }
        });
    }

    #[test]
    fn wall_clock_metrics_record_real_time() {
        let r = LocalFabricBuilder::new(1).run(|fab| {
            let t0 = fab.metric_now().unwrap();
            std::thread::sleep(Duration::from_micros(50));
            fab.metric_observe_since("test.sleep_ns", t0);
        });
        let m = r.metrics.expect("metrics on by default");
        let h = m.hist("test.sleep_ns").expect("histogram recorded");
        assert_eq!(h.count, 1);
        assert!(h.mean() >= 40_000, "mean {} ns too small", h.mean());
    }

    #[test]
    fn daemons_wind_down_at_shutdown() {
        LocalFabric::run(1, |fab| {
            fab.spawn_daemon("pumpish", |c| {
                while !c.shutting_down() {
                    c.park_for_inbox();
                }
            });
        });
    }

    #[test]
    fn park_only_policy_still_completes() {
        // The pre-adaptive behavior (fixed 200 µs slices, no spin) remains
        // available and correct — it is the regress baseline's "before".
        let r = LocalFabricBuilder::new(2)
            .wait_policy(WaitPolicy::park_only(200_000))
            .run(|fab| {
                if fab.node() == 0 {
                    fab.send_msg(1, 8, 1, Payload::any(9u64));
                } else {
                    loop {
                        if fab.try_recv().is_some() {
                            break;
                        }
                        fab.park_for_inbox();
                    }
                }
            });
        assert_eq!(r.stats[1].msgs_received, 1);
    }

    #[test]
    fn report_stats_equal_the_per_node_sums() {
        const K: u64 = 300;
        let snap = Arc::new(Mutex::new(None));
        let s2 = Arc::clone(&snap);
        let r = LocalFabric::run(2, move |fab| {
            let peer = 1 - fab.node();
            for i in 0..K {
                // Sizes across three wire-size buckets.
                fab.send_msg(peer, [8, 200, 3000][i as usize % 3], 1, Payload::any(i));
                fab.charge(Bucket::Net, 10);
            }
            fab.charge(Bucket::Cpu, 7);
            fab.with_stats(|s| s.polls += 1);
            // The AM layer's per-message counters live in shard atomics and
            // are folded on top of the locked `Stats`.
            fab.count(StatCounter::Polls, 2);
            fab.count(StatCounter::ShortMsgs, K);
            fab.count(StatCounter::BulkMsgs, 3);
            for _ in 0..K {
                fab.count(StatCounter::HandlersRun, 1);
            }
            let mut got = 0;
            while got < K {
                match fab.try_recv() {
                    Some(_) => got += 1,
                    None => fab.park_for_inbox(),
                }
            }
            if fab.node() == 0 {
                // Node 1 may still be receiving: only node 0's own
                // counters are settled here.
                *s2.lock().unwrap() = Some(fab.snapshot().stats[0].clone());
            }
        });
        for (me, s) in r.stats.iter().enumerate() {
            let peer = &r.stats[1 - me];
            assert_eq!(s.msgs_sent, K);
            assert_eq!(s.msgs_sent, peer.msgs_received);
            assert_eq!(s.bytes_sent, K / 3 * (8 + 200 + 3000));
            assert_eq!(s.msg_size_hist.iter().sum::<u64>(), s.msgs_sent);
            for bytes in [8, 200, 3000] {
                assert_eq!(s.msg_size_hist[size_bucket(bytes)], K / 3);
            }
            assert_eq!(s.bucket_ns[Bucket::Net.index()], 10 * K);
            assert_eq!(s.bucket_ns[Bucket::Cpu.index()], 7);
            assert_eq!(s.polls, 1 + 2);
            assert_eq!(s.short_msgs, K);
            assert_eq!(s.bulk_msgs, 3);
            assert_eq!(s.handlers_run, K);
        }
        assert_eq!(snap.lock().unwrap().take(), Some(r.stats[0].clone()));
    }

    #[test]
    fn thread_owned_histograms_merge_exactly() {
        // Four tasks on one node record into blocks only they write; the
        // registry must merge them into the exact distribution.
        const SAMPLES: u64 = 10_000;
        let r = LocalFabric::run(1, |fab| {
            let tasks: Vec<_> = (0..4u64)
                .map(|t| {
                    fab.spawn("rec", move |c| {
                        for i in 0..SAMPLES {
                            c.metric_observe("test.owned", t * SAMPLES + i + 1);
                            c.metric_counter_add("test.owned_count", 2);
                        }
                    })
                })
                .collect();
            for t in tasks {
                fab.join(t);
            }
        });
        let m = r.metrics.expect("metrics on by default");
        let h = m.nodes[0]
            .hists
            .get("test.owned")
            .expect("merged histogram");
        let n = 4 * SAMPLES;
        assert_eq!(h.count, n);
        assert_eq!(h.sum, n * (n + 1) / 2);
        assert_eq!((h.min, h.max), (1, n));
        assert_eq!(h.buckets.iter().sum::<u64>(), n);
        assert_eq!(m.nodes[0].counters.get("test.owned_count"), Some(&(2 * n)));
    }

    #[test]
    fn finished_tasks_fold_their_metric_blocks() {
        // Every spawned task registers a block and exits: the shard's live
        // list must not grow with the number of tasks ever run.
        const CYCLES: u64 = 20_000;
        let peak = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&peak);
        let r = LocalFabric::run(1, move |fab| {
            for i in 0..CYCLES {
                let t = fab.spawn("obs", move |c| c.metric_observe("test.cycle", i));
                fab.join(t);
                let live = fab
                    .shard()
                    .metrics
                    .as_ref()
                    .unwrap()
                    .lock()
                    .unwrap()
                    .live
                    .len();
                p2.fetch_max(live, Ordering::Relaxed);
            }
        });
        // The root records nothing, and a joined task has already folded.
        assert_eq!(peak.load(Ordering::Relaxed), 0);
        let h = r.metrics.unwrap().nodes[0].hists["test.cycle"].clone();
        assert_eq!(h.count, CYCLES);
        assert_eq!(h.sum, CYCLES * (CYCLES - 1) / 2);
    }

    #[test]
    fn mid_run_snapshots_difference_cleanly() {
        // Snapshots taken while other tasks record, spawn and exit must be
        // monotone: `since` panics on any counter that went backwards and on
        // a histogram whose count grew without its buckets.
        let r = LocalFabric::run(1, |fab| {
            let stop = Arc::new(AtomicBool::new(false));
            let recorders: Vec<_> = (0..2)
                .map(|_| {
                    let stop = Arc::clone(&stop);
                    fab.spawn("rec", move |c| {
                        let mut v = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            c.metric_observe("test.live", v % 4096);
                            c.metric_counter_add("test.live_count", 1);
                            v += 1;
                            if v.is_multiple_of(512) {
                                let t = c.spawn("short", |s| s.metric_observe("test.live", 7));
                                c.join(t);
                            }
                        }
                    })
                })
                .collect();
            let mut prev = fab.snapshot().metrics.unwrap();
            // At least 2000 snapshots, and on until the recorders (whose
            // threads may start late) have left 20k samples.
            let recorded =
                |m: &MetricsRegistry| m.nodes[0].hists.get("test.live").map_or(0, |h| h.count);
            let mut taken = 0;
            while taken < 2_000 || recorded(&prev) < 20_000 {
                taken += 1;
                let next = fab.snapshot().metrics.unwrap();
                let d = next.since(&prev);
                let h = d.nodes[0].hists.get("test.live");
                assert_eq!(
                    h.map_or(0, |h| h.count),
                    h.map_or(0, |h| h.buckets.iter().sum::<u64>())
                );
                prev = next;
            }
            stop.store(true, Ordering::Relaxed);
            for t in recorders {
                fab.join(t);
            }
        });
        let m = r.metrics.unwrap();
        let h = &m.nodes[0].hists["test.live"];
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        assert!(m.nodes[0].counters["test.live_count"] > 0);
    }

    #[test]
    fn finished_task_threads_are_reaped() {
        let peak = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&peak);
        LocalFabric::run(1, move |fab| {
            for _ in 0..20_000 {
                let t = fab.spawn("short", |_| {});
                fab.join(t);
                let held = fab.inner.handles.lock().unwrap().len();
                p2.fetch_max(held, Ordering::Relaxed);
            }
        });
        // `join` returns once the task body is done, a moment before its
        // thread exits, so a few handles may still be pending at any time.
        let peak = peak.load(Ordering::Relaxed);
        assert!(peak <= 64, "{peak} task threads held unjoined");
    }

    #[test]
    fn node_data_cache_is_keyed_by_run() {
        // Handles that outlive their runs, used from this one thread: each
        // run's singleton must come from that run.
        let export = || {
            let out = Arc::new(Mutex::new(None));
            let o2 = Arc::clone(&out);
            LocalFabric::run(1, move |fab| *o2.lock().unwrap() = Some(fab));
            let fab = out.lock().unwrap().take().unwrap();
            fab
        };
        let (a, b) = (export(), export());
        let da = a.node_data(|| AtomicU64::new(1));
        let db = b.node_data(|| AtomicU64::new(2));
        assert!(!Arc::ptr_eq(&da, &db));
        assert_eq!(db.load(Ordering::Relaxed), 2);
        assert!(Arc::ptr_eq(&da, &a.node_data(|| AtomicU64::new(3))));
        assert!(Arc::ptr_eq(&db, &b.node_data(|| AtomicU64::new(4))));
    }

    #[test]
    fn pinned_run_completes() {
        // Pinning is best-effort; the assertion is only that it does not
        // break the machine.
        let r = LocalFabricBuilder::new(2).pin_cores(true).run(|fab| {
            if fab.node() == 0 {
                fab.send_msg(1, 8, 1, Payload::any(1u64));
            } else {
                loop {
                    if fab.try_recv().is_some() {
                        break;
                    }
                    fab.park_for_inbox();
                }
            }
        });
        assert_eq!(r.stats[0].msgs_sent, 1);
    }
}
