//! A global barrier built from short active messages.
//!
//! Centralized algorithm: every node sends an *arrive* message (with its
//! barrier generation) to node 0; when node 0 has seen all arrivals of a
//! generation it sends a *release* to every node. Waiting spin-polls, so the
//! barrier itself costs no thread operations — matching Split-C's
//! `barrier()` on a single-threaded node. The experiment harnesses also use
//! it to quiesce the machine around measured regions.

use crate::endpoint::endpoint;
use crate::ops::wait_until;
use crate::state::{register, AmState, HandlerId};
use crate::AmMsg;
use mpmd_fabric::Fabric;
use mpmd_sim::TraceEvent;
use std::sync::atomic::Ordering;

/// Handler ids reserved by the AM layer itself.
pub const H_BARRIER_ARRIVE: HandlerId = 1;
pub const H_BARRIER_RELEASE: HandlerId = 2;

/// Register the barrier handlers on this node. Called from runtime
/// initialization (`splitc::init` / `ccxx` startup) on every node.
pub fn register_barrier_handlers<F: Fabric>(ctx: &F) {
    register(ctx, H_BARRIER_ARRIVE, |ctx: &F, m: AmMsg| {
        note_arrival(ctx, m.args[0]);
    });
    register(ctx, H_BARRIER_RELEASE, |ctx: &F, m: AmMsg| {
        let st = AmState::get(ctx);
        st.barrier_release_gen
            .fetch_max(m.args[0], Ordering::AcqRel);
    });
}

/// Record one arrival of `gen` on node 0; release everyone when complete.
fn note_arrival<F: Fabric>(ctx: &F, gen: u64) {
    debug_assert_eq!(ctx.node(), 0, "barrier arrivals are collected on node 0");
    let st = AmState::get(ctx);
    let complete = {
        let mut arr = st.barrier_arrivals.lock();
        let count = arr.entry(gen).or_insert(0);
        *count += 1;
        if *count == ctx.nodes() {
            arr.remove(&gen);
            true
        } else {
            false
        }
    };
    if complete {
        st.barrier_release_gen.fetch_max(gen, Ordering::AcqRel);
        let ep = endpoint(ctx);
        for n in 1..ctx.nodes() {
            ep.to(n)
                .handler(H_BARRIER_RELEASE)
                .args([gen, 0, 0, 0])
                .send();
        }
    }
}

/// Enter the barrier and wait until all nodes have entered it.
pub fn barrier<F: Fabric>(ctx: &F) {
    let st = AmState::get(ctx);
    let gen = st.barrier_my_gen.fetch_add(1, Ordering::AcqRel) + 1;
    ctx.trace_event(TraceEvent::BarrierEnter { epoch: gen });
    let _span = ctx.span("am.barrier");
    if ctx.node() == 0 {
        note_arrival(ctx, gen);
    } else {
        endpoint(ctx)
            .to(0)
            .handler(H_BARRIER_ARRIVE)
            .args([gen, 0, 0, 0])
            .send();
    }
    let st2 = AmState::get(ctx);
    wait_until(ctx, move || {
        st2.barrier_release_gen.load(Ordering::Acquire) >= gen
    });
    drop(_span);
    ctx.trace_event(TraceEvent::BarrierExit { epoch: gen });
}
