//! Sending, polling and waiting.
//!
//! The sole public send API is the builder: see
//! [`endpoint`](crate::endpoint::endpoint) and
//! [`SendBuilder`](crate::endpoint::SendBuilder).

use crate::state::{lookup, AmState, HandlerId, PollGuard};
use crate::AmMsg;
use bytes::Bytes;
use mpmd_fabric::{Fabric, StatCounter};
use mpmd_sim::{Bucket, TraceEvent};
use std::any::Any;

/// Opaque continuation carried by a message (e.g. an `Arc<ReplyCell>`),
/// modeling the reply-buffer address an AM request carries on real hardware.
pub type Token = Box<dyn Any + Send>;

/// Modeled header size of every active message (routing + handler id + args).
pub const SHORT_WIRE_BYTES: usize = 48;

pub(crate) fn send_inner<F: Fabric>(
    ctx: &F,
    dst: usize,
    handler: HandlerId,
    args: [u64; 4],
    data: Option<Bytes>,
    token: Option<Token>,
) {
    let st = AmState::get(ctx);
    let p = st.profile();
    let bulk = data.is_some();
    let bytes = data.as_ref().map_or(0, |d| d.len());
    ctx.count(
        if bulk {
            StatCounter::BulkMsgs
        } else {
            StatCounter::ShortMsgs
        },
        1,
    );
    let msg = AmMsg {
        src: ctx.node(),
        handler,
        args,
        data,
        token,
    };
    if crate::coalesce::enabled(&st) {
        if !bulk {
            // Short sends append to the aggregation buffer: no charge, no
            // wire traffic, and no poll-on-send until a flush happens.
            crate::coalesce::append(ctx, &st, dst, msg, p);
            return;
        }
        // A bulk message overtaking buffered shorts would break program
        // order on this link: flush them first, then send on the same
        // floor-clamped wire leg so the (small) bulk message cannot land
        // before the (large) aggregate frame that flush just emitted.
        crate::coalesce::flush_dst(ctx, &st, dst, p);
        ctx.charge(Bucket::Net, p.send_charge(bulk));
        crate::coalesce::raw_send(ctx, &st, dst, msg, bytes, p);
        if p.poll_on_send {
            poll_with(ctx, &st);
        }
        return;
    }
    ctx.charge(Bucket::Net, p.send_charge(bulk));
    if ctx.faults_enabled() {
        crate::reliable::send(ctx, &st, dst, msg, bytes, p);
    } else {
        // Allocation-free for short messages: the payload travels inline
        // and the delivery event's body comes from the kernel's slab pool.
        ctx.send_msg(
            dst,
            SHORT_WIRE_BYTES + bytes,
            p.wire_delay(bytes),
            msg.into_payload(),
        );
    }
    if p.poll_on_send {
        poll_with(ctx, &st);
    }
}

/// Execute one delivered message with the standard reception accounting;
/// aggregate frames are unpacked and dispatched sub-message by sub-message.
/// Returns the number of handlers run. Shared by the fault-free and
/// reliable delivery paths.
pub(crate) fn dispatch<F: Fabric>(
    ctx: &F,
    st: &AmState<F>,
    p: &crate::NetProfile,
    am: AmMsg,
) -> usize {
    if am.handler == crate::coalesce::H_COALESCED {
        return crate::coalesce::dispatch_batch(ctx, st, p, am);
    }
    let hid = am.handler;
    // Open the handler frame before charging reception so the frame's
    // duration covers the full per-message cost (receive overhead plus
    // handler body) — the trace reconciles against Bucket::Net this way.
    ctx.trace_event(TraceEvent::HandlerStart { handler: hid });
    ctx.charge(Bucket::Net, p.recv_charge());
    ctx.count(StatCounter::HandlersRun, 1);
    lookup(st, hid)(ctx, am);
    ctx.trace_event(TraceEvent::HandlerEnd { handler: hid });
    1
}

/// Drain the inbox, dispatching every delivered message's handler on this
/// task. Returns the number of handlers run. Recursive polls (a handler's
/// reply re-entering `poll` via poll-on-send) are suppressed. A mandatory
/// flush point: aggregation buffers are flushed on entry (so nothing this
/// task sent can be held back while it waits) and again on exit (handlers
/// run during the drain may have issued coalescible replies).
pub fn poll<F: Fabric>(ctx: &F) -> usize {
    poll_with(ctx, &AmState::get(ctx))
}

/// [`poll`] with this node's endpoint state already in hand (the
/// poll-on-send paths hold it).
pub(crate) fn poll_with<F: Fabric>(ctx: &F, st: &AmState<F>) -> usize {
    let Some(_guard) = PollGuard::enter(&st.in_poll, ctx.task_id()) else {
        return 0;
    };
    // `enabled` is one atomic load: a non-coalescing node (the common case)
    // skips both mandatory flush points without touching their locks.
    let coalescing = crate::coalesce::enabled(st);
    if coalescing {
        crate::coalesce::flush_all(ctx, st, st.profile());
    }
    // Yield so every network event due at or before our clock is visible.
    ctx.poll_point();
    ctx.count(StatCounter::Polls, 1);
    // Queue-depth distribution at poll entry: how far reception lags.
    ctx.metric_inbox_depth("am.inbox_depth");
    let ran = if ctx.faults_enabled() {
        crate::reliable::poll_reliable(ctx, st, st.profile())
    } else {
        let mut ran = 0;
        while let Some(m) = ctx.try_recv() {
            let am = AmMsg::from_payload(m.src, m.payload);
            ran += dispatch(ctx, st, st.profile(), am);
        }
        ran
    };
    if coalescing {
        crate::coalesce::flush_all(ctx, st, st.profile());
    }
    ran
}

/// Flush every aggregation buffer on this node. A no-op when coalescing is
/// disabled. Runtimes call this before blocking a task on anything other
/// than [`wait_until`] (which flushes via its polls) — e.g. before parking
/// on a synchronization variable — so buffered messages can't be stranded
/// by a sleeping sender.
pub fn flush<F: Fabric>(ctx: &F) {
    let st = AmState::get(ctx);
    if !crate::coalesce::enabled(&st) {
        return;
    }
    crate::coalesce::flush_all(ctx, &st, st.profile());
}

/// Spin-poll until `pred` becomes true: poll, check, and if nothing is
/// pending park until the next delivery. This is how a single-threaded
/// Split-C node waits for completions, and how the CC++ "0-Word Simple"
/// (no-thread-switch) path waits: it costs no thread operations.
pub fn wait_until<F: Fabric>(ctx: &F, mut pred: impl FnMut() -> bool) {
    loop {
        poll(ctx);
        if pred() {
            return;
        }
        ctx.park_for_inbox();
    }
}
