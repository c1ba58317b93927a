//! The AM layer's trace events agree with its counters.
//!
//! A 3-node all-to-all stream runs on the simulator with tracing on, a
//! drop/duplicate/reorder fault model, coalescing and a few barriers. Every
//! handler, retransmission, aggregate flush, duplicate drop and barrier the
//! layer counts in `Stats` (or performs) must show up as its trace event:
//! an exporter or a flamegraph built from the trace then tells the same
//! story as the counters.

use mpmd_am::{self as am, CoalesceConfig, NetProfile};
use mpmd_sim::{us, CostModel, FaultModel, Sim, TraceConfig, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const H_SINK: am::HandlerId = 130;
const NODES: usize = 3;
const ROUNDS: u64 = 3;
const PER_PEER: u64 = 12;

#[test]
fn am_trace_events_match_the_counters() {
    let cfg = CoalesceConfig {
        max_msgs: 4,
        max_bytes: usize::MAX,
        max_linger: us(1e9),
    };
    let r = Sim::new(NODES)
        .cost_model(CostModel::default().with_faults(FaultModel::uniform(5, 0.2, 0.15, 0.25)))
        .tracing(TraceConfig::new().capacity(1 << 20))
        .run(move |ctx| {
            am::init(&ctx, NetProfile::sp_am_splitc());
            am::register_barrier_handlers(&ctx);
            am::enable_coalescing(&ctx, cfg.clone());
            let seen = Arc::new(AtomicU64::new(0));
            let s2 = Arc::clone(&seen);
            am::register(&ctx, H_SINK, move |_ctx, _m| {
                s2.fetch_add(1, Ordering::SeqCst);
            });
            am::barrier(&ctx);
            let ep = am::endpoint(&ctx);
            for round in 1..=ROUNDS {
                for i in 0..PER_PEER {
                    for dst in (0..NODES).filter(|&d| d != ctx.node()) {
                        ep.to(dst).handler(H_SINK).args([i, 0, 0, 0]).send();
                    }
                }
                let want = round * PER_PEER * (NODES as u64 - 1);
                let s3 = Arc::clone(&seen);
                am::wait_until(&ctx, move || s3.load(Ordering::SeqCst) >= want);
                am::barrier(&ctx);
            }
        });
    let barriers = 1 + ROUNDS;
    let log = r.trace.as_ref().expect("tracing was on");
    assert_eq!(log.total_dropped(), 0, "ring too small for the run");

    let (mut hs, mut he, mut rt, mut cf, mut dd, mut be, mut bx) = (0, 0, 0, 0, 0, 0, 0);
    for rec in log.events() {
        match rec.event {
            TraceEvent::HandlerStart { .. } => hs += 1,
            TraceEvent::HandlerEnd { .. } => he += 1,
            TraceEvent::Retransmit { .. } => rt += 1,
            TraceEvent::CoalesceFlush { .. } => cf += 1,
            TraceEvent::DupDrop { .. } => dd += 1,
            TraceEvent::BarrierEnter { .. } => be += 1,
            TraceEvent::BarrierExit { .. } => bx += 1,
            _ => {}
        }
    }
    let t = r.total_stats();
    assert!(
        t.retransmits > 0,
        "the fault model never forced a retransmit"
    );
    assert!(t.agg_flushes > 0, "traffic never coalesced");
    assert_eq!(rt, t.retransmits, "one Retransmit event per retransmit");
    assert_eq!(cf, t.agg_flushes, "one CoalesceFlush event per flush");
    assert_eq!(hs, t.handlers_run, "one HandlerStart per handler run");
    assert_eq!(he, t.handlers_run, "one HandlerEnd per handler run");
    // One DupDrop event may cover several stale takes of one delivery.
    assert!(
        (1..=t.dup_drops).contains(&dd),
        "{dd} DupDrop events for {} dup_drops",
        t.dup_drops
    );
    let want = NODES as u64 * barriers;
    assert_eq!(be, want, "one BarrierEnter per node per barrier");
    assert_eq!(bx, want, "one BarrierExit per node per barrier");
}
