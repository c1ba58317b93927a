//! `splitc_stream`: both nodes of a 2-node LocalFabric run a closed loop of
//! batches. A batch is [`OPS_PER_BATCH`] one-way stores to the peer, then
//! `all_store_sync`. The stores follow the mix the repository's Split-C
//! applications put on the wire, as `msgprofile` measures their
//! paper-scale runs (`results/msgprofile.txt`): 120 302 short frames to
//! 1 378 bulk frames, so of every [`MIX`] stores 87 are 1-word `store`s and
//! one, at a seeded place, is a `bulk_store` sized from the same profile.
//! After each fabric run every node replays its peer's seeded stores and
//! checks its receive region slot by slot.

use crate::hist::Hist;
use crate::rmi::add_stats;
use crate::spans::Spans;
use crate::{Cfg, E2e, Metric, Rng, Scale};
use mpmd_fabric::{Fabric, LocalFabricBuilder};
use mpmd_sim::Stats;
use mpmd_splitc::{self as sc, GlobalPtr};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stores per `all_store_sync`. Short batches keep the batch latency's p99
/// a property of the program: with 88-store batches 1-2% of batches
/// met a preemption of the 2-vCPU host, and p99 spread 40% across runs.
pub const OPS_PER_BATCH: usize = 16;
/// Short to bulk frames of the Split-C runs in `msgprofile`, 87 to 1.
pub const MIX: usize = 88;
/// Receive region, doubles per node. Stores walk it cyclically.
const REGION: usize = 8192;
/// Bulk payloads in doubles, `(min, max, weight)`: the `msgprofile` wire-size
/// buckets 64-256 B, 256 B-1 KiB and 1-4 KiB, weighted by the Split-C bulk
/// frames in each (water-prefetch 252, em3d-bulk 72, LU 1054).
const BULK: [(u64, u64, u64); 3] = [(8, 32, 252), (33, 128, 72), (129, 512, 1054)];
const MAX_BULK: u64 = BULK[2].1;
/// Fabric runs after which `peak_rss_mb` is read.
const RSS_AFTER: u64 = 20;

pub fn batches_per_run(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 2_500,
        Scale::Quick => 20,
    }
}

/// One store: `len` doubles `base, base+1, ...` at `offset` of the peer's
/// region.
struct Store {
    offset: usize,
    len: usize,
    base: u64,
}

/// The seeded store sequence one node issues in one fabric run. The
/// receiver rebuilds it to know what its region must hold.
struct Gen {
    rng: Rng,
    cursor: usize,
    /// Place of the next store in its block of [`MIX`], and of the
    /// block's bulk store.
    op: usize,
    bulk_at: usize,
}

impl Gen {
    fn new(seed: u64, node: usize, epoch: u64) -> Self {
        Gen {
            rng: Rng::derive(seed, 2 + node as u64, epoch),
            cursor: 0,
            op: 0,
            bulk_at: 0,
        }
    }

    fn bulk_len(&mut self) -> usize {
        let total: u64 = BULK.iter().map(|b| b.2).sum();
        let mut r = self.rng.below(total);
        for (lo, hi, w) in BULK {
            if r < w {
                return (lo + self.rng.below(hi - lo + 1)) as usize;
            }
            r -= w;
        }
        unreachable!("r is below the summed weights")
    }

    fn next(&mut self) -> Store {
        if self.op == 0 {
            self.bulk_at = self.rng.below(MIX as u64) as usize;
        }
        let len = if self.op == self.bulk_at {
            self.bulk_len()
        } else {
            1
        };
        self.op = (self.op + 1) % MIX;
        if self.cursor + len > REGION {
            self.cursor = 0;
        }
        let offset = self.cursor;
        self.cursor += len;
        // 40-bit bases keep every value an exact integer in an f64.
        let base = self.rng.next_u64() >> 24;
        Store { offset, len, base }
    }
}

/// What node `peer`'s stores leave in the receiving region.
fn expected(seed: u64, peer: usize, epoch: u64, batches: u64) -> Vec<f64> {
    let mut want = vec![0.0; REGION];
    let mut g = Gen::new(seed, peer, epoch);
    for _ in 0..batches as usize * OPS_PER_BATCH {
        let s = g.next();
        for k in 0..s.len {
            want[s.offset + k] = (s.base + k as u64) as f64;
        }
    }
    want
}

pub struct StreamRun {
    pub e2e: E2e,
    pub stats: Stats,
    /// Payload bytes delivered, both directions.
    pub bytes: u64,
    /// p99 of the program's own `am.inbox_depth` histogram, per fabric run.
    pub inbox_p99: Vec<f64>,
    pub spans: Option<Spans>,
}

#[derive(Default)]
struct NodeOut {
    setup: f64,
    lat: Hist,
    busy: Duration,
    bytes: u64,
    /// Receive-region slots that differ from the replayed stores.
    wrong_slots: usize,
    spans: Option<Spans>,
}

pub fn run(cfg: &Cfg, spans: Option<Spans>) -> StreamRun {
    let batches = batches_per_run(cfg.scale);
    let mut res = StreamRun {
        e2e: E2e::default(),
        stats: Stats::default(),
        bytes: 0,
        inbox_p99: Vec::new(),
        spans,
    };
    let start = Instant::now();
    for epoch in 0.. {
        crate::announce(2 * batches);
        let outs: Arc<[Mutex<NodeOut>; 2]> = Arc::default();
        if let Some(sp) = res.spans.take() {
            let peer = Spans::new(sp.epoch(), sp.tid() + 1);
            outs[0].lock().expect("fresh").spans = Some(sp);
            outs[1].lock().expect("fresh").spans = Some(peer);
        }
        let o2 = Arc::clone(&outs);
        let (seed, corrupt) = (cfg.seed, cfg.corrupt && epoch == 0);
        let built = Instant::now();
        let report = LocalFabricBuilder::new(2).run(move |ctx| {
            let me = ctx.node();
            let peer = 1 - me;
            sc::init(&ctx);
            let arr = sc::all_spread_alloc(&ctx, REGION, 0.0);
            sc::barrier(&ctx);
            let setup = built.elapsed().as_secs_f64();
            let mut sp = o2[me]
                .lock()
                .expect("no panics hold this lock")
                .spans
                .take();
            let mut g = Gen::new(seed, me, epoch);
            let (mut lat, mut bytes) = (Hist::default(), 0u64);
            let mut buf: Vec<f64> = Vec::with_capacity(MAX_BULK as usize);
            let t_loop = Instant::now();
            for b in 0..batches {
                let t0 = Instant::now();
                let op = sp.as_mut().map(|sp| sp.begin("op.batch", 0, b));
                let parent = op.as_ref().map_or(0, |o| o.id());
                for j in 0..OPS_PER_BATCH {
                    let s = g.next();
                    let gp = GlobalPtr {
                        node: peer,
                        region: arr.region,
                        offset: s.offset,
                    };
                    // The injected fault: a value the receiver's replay
                    // does not expect, in the last store of the run.
                    let off =
                        (corrupt && me == 0 && b + 1 == batches && j + 1 == OPS_PER_BATCH) as u64;
                    if s.len == 1 {
                        let v = (s.base + off) as f64;
                        match sp.as_mut() {
                            None => sc::store(&ctx, gp, v),
                            Some(sp) => {
                                sp.time("splitc.store", parent, b, || sc::store(&ctx, gp, v))
                            }
                        }
                    } else {
                        buf.clear();
                        buf.extend((0..s.len as u64).map(|k| (s.base + k + off) as f64));
                        match sp.as_mut() {
                            None => sc::bulk_store(&ctx, gp, &buf),
                            Some(sp) => sp.time("splitc.bulk_store", parent, b, || {
                                sc::bulk_store(&ctx, gp, &buf)
                            }),
                        }
                    }
                    bytes += 8 * s.len as u64;
                }
                match sp.as_mut() {
                    None => sc::all_store_sync(&ctx),
                    Some(sp) => sp.time("splitc.all_store_sync", parent, b, || {
                        sc::all_store_sync(&ctx)
                    }),
                }
                if let (Some(sp), Some(op)) = (sp.as_mut(), op) {
                    sp.end(op);
                }
                lat.record(t0.elapsed().as_nanos() as u64);
            }
            let busy = t_loop.elapsed();
            // The last all_store_sync performed every store sent to us.
            let want = expected(seed, peer, epoch, batches);
            let wrong_slots = sc::with_local(&ctx, arr.region, |got| {
                got.iter()
                    .zip(&want)
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count()
            });
            *o2[me].lock().expect("no panics hold this lock") = NodeOut {
                setup,
                lat,
                busy,
                bytes,
                wrong_slots,
                spans: sp,
            };
        });
        let e = &mut res.e2e;
        let mut node_spans = Vec::new();
        let mut busy = Duration::ZERO;
        let mut lat = Hist::default();
        for (me, o) in outs.iter().enumerate() {
            let o = std::mem::take(&mut *o.lock().expect("the run has ended"));
            if me == 0 {
                e.setups.push(o.setup);
            }
            lat.merge(&o.lat);
            busy = busy.max(o.busy);
            res.bytes += o.bytes;
            e.attempted += batches;
            // A wrong slot cannot be pinned on one batch: every batch the
            // peer sent in this run failed.
            e.failed += if o.wrong_slots == 0 { 0 } else { batches };
            node_spans.extend(o.spans);
        }
        // Both nodes' batches run concurrently: throughput is over the
        // slower node's loop.
        e.epochs.push(lat);
        e.busy += busy;
        e.rates.push(2.0 * batches as f64 / busy.as_secs_f64());
        for s in &report.stats {
            add_stats(&mut res.stats, s);
        }
        if let Some(h) = report
            .metrics
            .as_ref()
            .and_then(|m| m.hist("am.inbox_depth"))
        {
            res.inbox_p99.push(h.p99() as f64);
        }
        let mut it = node_spans.into_iter();
        res.spans = it.next().map(|mut s| {
            it.for_each(|o| s.absorb(o));
            s
        });
        res.e2e.note_rss(epoch + 1, RSS_AFTER);
        if start.elapsed() >= cfg.time {
            break;
        }
    }
    res
}

impl StreamRun {
    pub fn mb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.e2e.busy.as_secs_f64().max(1e-9)
    }
}

/// Per-layer metrics of a traced run.
pub fn layer_metrics(r: &StreamRun) -> Vec<Metric> {
    let sp = r.spans.as_ref().expect("a traced run records spans");
    let (st, bst, sync) = (
        sp.hist("splitc.store"),
        sp.hist("splitc.bulk_store"),
        sp.hist("splitc.all_store_sync"),
    );
    let issues = st.count() + bst.count();
    let batches = r.e2e.pooled().count();
    vec![
        Metric::new(
            "splitc.issue_ns_per_store",
            (st.sum() + bst.sum()) as f64 / issues.max(1) as f64,
            "ns",
            issues,
        ),
        Metric::new(
            "splitc.sync_p50_us",
            sync.quantile(0.5) / 1e3,
            "us",
            sync.count(),
        ),
        Metric::new(
            "am.inbox_depth_p99",
            crate::median(&r.inbox_p99),
            "frames",
            r.inbox_p99.len() as u64,
        ),
        Metric::new(
            "am.msgs_per_op.stream",
            r.stats.msgs_sent as f64 / batches.max(1) as f64,
            "count",
            batches,
        ),
        Metric::new(
            "am.handlers_per_poll.stream",
            r.stats.handlers_run as f64 / r.stats.polls.max(1) as f64,
            "ratio",
            r.stats.polls,
        ),
    ]
}
