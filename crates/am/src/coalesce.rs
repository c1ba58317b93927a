//! Adaptive per-destination message coalescing.
//!
//! The paper's cost breakdowns are dominated by *per-message* overheads:
//! every short AM pays a fixed send/receive cost regardless of its four-word
//! payload. Aggregating small messages bound for the same destination into
//! one wire frame amortizes that fixed cost — the standard lever in AM
//! systems (von Eicken et al. discuss packet aggregation; Split-C's bulk
//! operations are the manual form). This module is the automatic form:
//!
//! * Short `request`s append into a bounded per-destination buffer
//!   ([`CoalesceConfig`]: max messages, max wire bytes, max linger in
//!   virtual time) instead of going to the wire individually.
//! * A full buffer, an expired linger deadline, or any *mandatory flush
//!   point* ([`poll`](crate::poll) entry and exit, which covers
//!   [`barrier`](crate::barrier) and [`wait_until`](crate::wait_until), plus
//!   explicit [`flush`](crate::flush) calls before synchronous reads) turns
//!   the buffer into one aggregated frame.
//! * An aggregate is charged as one send overhead plus
//!   `marshal_per_msg` for each sub-message
//!   ([`CoalesceCosts`](mpmd_sim::CoalesceCosts)); the receiver pays one
//!   receive overhead plus `unmarshal_per_msg` per sub-message.
//! * A buffer holding a single message is flushed as an ordinary short
//!   send with ordinary charges (*adaptive* coalescing: strictly
//!   request-reply traffic never pays aggregation costs and never touches
//!   the `agg_*` counters).
//!
//! **Ordering.** Appends keep program order inside a buffer, a flush sends
//! the buffer before any later message to the same destination (bulk sends
//! flush their destination first), and on a fault-free wire every send on
//! the coalesced path — aggregate frames, flushed singletons, *and* bulk
//! messages — has its arrival clamped to land strictly after the previous
//! send's on that link, so per-(src,dst) delivery order always equals
//! program order even when a small message follows a large frame. Under a fault model the aggregate travels as one
//! sequenced frame of the PR-3 reliable protocol (a retransmit re-sends the
//! whole frame), and the per-link sequence space provides the ordering.

//! **Wall-clock fabrics.** On the simulator the linger deadline needs no
//! timer: virtual time only advances through the buffering task's own
//! charges, so the append/poll-time checks see every expiry. On a fabric
//! where [`Fabric::wall_clock`] is true, time moves on its own while the
//! sender computes — so [`enable_coalescing`] additionally spawns a
//! **linger daemon** per node that parks until the earliest buffered
//! deadline and flushes what has expired. The daemon and application
//! flushes serialize on a flush gate (see [`AmState`]) so a linger flush
//! can never lose the wire to a younger frame. The simulated path spawns
//! nothing and is byte-identical to the pre-daemon behavior.

use crate::ops::SHORT_WIRE_BYTES;
use crate::profile::NetProfile;
use crate::state::{lookup, AmState};
use crate::{AmMsg, HandlerId};
use mpmd_fabric::{Fabric, StatCounter};
use mpmd_sim::{us, Bucket, Time, TraceEvent};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// Handler id of the aggregate frame (reserved AM-internal range; the frame
/// is unpacked by the dispatch path itself, never via the handler table).
pub const H_COALESCED: HandlerId = 3;

/// Modeled wire size of one sub-message inside an aggregate (handler id +
/// four argument words + framing), vs. [`SHORT_WIRE_BYTES`] for the header
/// a standalone short message would repeat.
pub const SUB_WIRE_BYTES: usize = 40;

/// Aggregation-buffer bounds. All three limits are checked at append time;
/// any mandatory flush point empties the buffers regardless.
#[derive(Clone, Debug, PartialEq)]
pub struct CoalesceConfig {
    /// Flush when a destination's buffer holds this many messages.
    pub max_msgs: usize,
    /// Flush when a destination's buffered sub-message wire bytes reach
    /// this bound.
    pub max_bytes: usize,
    /// Flush when the oldest buffered message has waited this long
    /// (virtual time).
    pub max_linger: Time,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_msgs: 8,
            max_bytes: 512,
            max_linger: us(10.0),
        }
    }
}

/// One destination's aggregation buffer.
struct DstBuf {
    msgs: Vec<AmMsg>,
    bytes: usize,
    /// Linger deadline set when the first message was appended.
    deadline: Time,
}

/// Per-node coalescing state (inside [`AmState`]); present iff the runtime
/// enabled coalescing.
pub(crate) struct CoalesceState {
    cfg: CoalesceConfig,
    /// Buffers keyed by destination — a BTreeMap so `flush_all` sends in
    /// deterministic destination order.
    bufs: BTreeMap<usize, DstBuf>,
    /// Latest scheduled arrival per destination on a fault-free wire.
    /// Frames vary in size (hence wire delay), so without this floor a
    /// small frame could overtake a big one sent just before it.
    arrival_floor: BTreeMap<usize, Time>,
}

impl CoalesceState {
    /// Earliest linger deadline over the non-empty buffers (what the
    /// wall-clock linger daemon parks against).
    fn earliest_deadline(&self) -> Option<Time> {
        self.bufs
            .values()
            .filter(|b| !b.msgs.is_empty())
            .map(|b| b.deadline)
            .min()
    }
}

/// The sub-messages of an aggregate frame, carried as its token.
struct Batch(Vec<AmMsg>);

/// Switch this node's endpoint into coalescing mode. Called from runtime
/// initialization (the `CcxxConfig::coalescing` field or
/// `splitc::init_coalesced`); calling again with a different config panics,
/// mirroring [`init`](crate::init).
pub fn enable_coalescing<F: Fabric>(ctx: &F, cfg: CoalesceConfig) {
    assert!(cfg.max_msgs >= 1, "max_msgs must be at least 1");
    assert!(
        cfg.max_bytes >= SUB_WIRE_BYTES,
        "max_bytes below one sub-message"
    );
    let st = AmState::get(ctx);
    let mut co = st.coalesce.lock();
    match &*co {
        None => {
            *co = Some(CoalesceState {
                cfg,
                bufs: BTreeMap::new(),
                arrival_floor: BTreeMap::new(),
            })
        }
        Some(s) => assert_eq!(
            s.cfg, cfg,
            "coalescing enabled twice with different configs"
        ),
    }
    st.coalesce_on.store(true, Ordering::SeqCst);
    drop(co);
    // Real time advances while the sender computes: somebody has to notice
    // an expired linger deadline. One daemon per node does.
    if ctx.wall_clock() && !st.linger_started.swap(true, Ordering::SeqCst) {
        let t = ctx.spawn_daemon("am-linger", linger_main::<F>);
        *st.linger.lock() = Some(t);
    }
}

/// Body of the per-node linger daemon (wall-clock fabrics only): park until
/// the earliest buffered deadline, flush what has expired, repeat. First
/// appends into an empty buffer unpark it so it re-parks against the new
/// deadline.
fn linger_main<F: Fabric>(ctx: F) {
    let st = AmState::get(&ctx);
    while !ctx.shutting_down() {
        let next = st
            .coalesce
            .lock()
            .as_ref()
            .and_then(|cs| cs.earliest_deadline());
        match next {
            Some(d) if ctx.now() >= d => {
                // The profile is set by `am::init`, which every runtime
                // calls before sending; guard anyway for odd init orders.
                let Some(p) = st.profile.get() else {
                    ctx.park_for_inbox();
                    continue;
                };
                flush_expired(&ctx, &st, p);
            }
            Some(d) => ctx.park_for_inbox_until(d),
            None => ctx.park_for_inbox(),
        }
    }
}

/// Flush every buffer whose linger deadline has passed (the daemon's half of
/// the mandatory-flush contract; application flush points still empty
/// everything unconditionally).
fn flush_expired<F: Fabric>(ctx: &F, st: &AmState<F>, p: &NetProfile) {
    let _gate = st.flush_gate.lock();
    let now = ctx.now();
    let pending: Vec<(usize, Vec<AmMsg>)> = {
        let mut co = st.coalesce.lock();
        let Some(cs) = co.as_mut() else { return };
        cs.bufs
            .iter_mut()
            .filter(|(_, b)| !b.msgs.is_empty() && now >= b.deadline)
            .map(|(dst, b)| {
                b.bytes = 0;
                (*dst, std::mem::take(&mut b.msgs))
            })
            .collect()
    };
    for (dst, msgs) in pending {
        ctx.metric_counter_add("am.linger_flushes", 1);
        send_frame(ctx, st, dst, msgs, p);
    }
}

/// Whether this node's endpoint coalesces short sends.
pub fn coalescing_enabled<F: Fabric>(ctx: &F) -> bool {
    enabled(&AmState::get(ctx))
}

pub(crate) fn enabled<F: Fabric>(st: &AmState<F>) -> bool {
    st.coalesce_on.load(Ordering::SeqCst)
}

/// Append one short message to its destination's buffer (the coalescing
/// branch of `send_inner`; nothing is charged here). Flushes — and then
/// polls, standing in for the skipped poll-on-send — when the append
/// tripped a buffer bound.
pub(crate) fn append<F: Fabric>(ctx: &F, st: &AmState<F>, dst: usize, msg: AmMsg, p: &NetProfile) {
    let (flush_now, first) = {
        let mut co = st.coalesce.lock();
        let cs = co.as_mut().expect("append without coalescing enabled");
        let now = ctx.now();
        let linger = cs.cfg.max_linger;
        let buf = cs.bufs.entry(dst).or_insert_with(|| DstBuf {
            msgs: Vec::new(),
            bytes: 0,
            deadline: 0,
        });
        let first = buf.msgs.is_empty();
        if first {
            buf.deadline = now + linger;
        }
        buf.msgs.push(msg);
        buf.bytes += SUB_WIRE_BYTES;
        (
            buf.msgs.len() >= cs.cfg.max_msgs
                || buf.bytes >= cs.cfg.max_bytes
                || now >= buf.deadline,
            first,
        )
    };
    if flush_now {
        flush_dst(ctx, st, dst, p);
        if p.poll_on_send {
            crate::ops::poll_with(ctx, st);
        }
    } else if first && ctx.wall_clock() {
        // A new deadline may now be the earliest: re-park the linger daemon
        // against it. (Nothing to do on the simulator — no daemon exists,
        // and virtual time cannot pass the deadline behind our back.)
        if let Some(t) = *st.linger.lock() {
            ctx.unpark(t);
        }
    }
}

/// Flush one destination's buffer, if non-empty.
pub(crate) fn flush_dst<F: Fabric>(ctx: &F, st: &AmState<F>, dst: usize, p: &NetProfile) {
    let _gate = st.flush_gate.lock();
    let msgs = {
        let mut co = st.coalesce.lock();
        let Some(cs) = co.as_mut() else { return };
        match cs.bufs.get_mut(&dst) {
            Some(buf) if !buf.msgs.is_empty() => {
                buf.bytes = 0;
                std::mem::take(&mut buf.msgs)
            }
            _ => return,
        }
    };
    send_frame(ctx, st, dst, msgs, p);
}

/// Flush every destination's buffer (the mandatory flush points: poll entry
/// and exit, explicit [`flush`](crate::flush)). A no-op — lock, check, drop
/// — when coalescing is disabled or all buffers are empty.
pub(crate) fn flush_all<F: Fabric>(ctx: &F, st: &AmState<F>, p: &NetProfile) {
    let _gate = st.flush_gate.lock();
    let pending: Vec<(usize, Vec<AmMsg>)> = {
        let mut co = st.coalesce.lock();
        let Some(cs) = co.as_mut() else { return };
        cs.bufs
            .iter_mut()
            .filter(|(_, b)| !b.msgs.is_empty())
            .map(|(dst, b)| {
                b.bytes = 0;
                (*dst, std::mem::take(&mut b.msgs))
            })
            .collect()
    };
    for (dst, msgs) in pending {
        send_frame(ctx, st, dst, msgs, p);
    }
}

/// Put one flushed buffer on the wire. A singleton goes out exactly like an
/// uncoalesced short send; two or more messages become one aggregate frame
/// charged as one header plus per-sub-message marshalling.
fn send_frame<F: Fabric>(
    ctx: &F,
    st: &AmState<F>,
    dst: usize,
    mut msgs: Vec<AmMsg>,
    p: &NetProfile,
) {
    let n = msgs.len();
    // Occupancy distribution at flush time (singletons included: a median of
    // 1 says the buffers never get the chance to amortize anything).
    ctx.metric_observe("am.coalesce_occupancy", n as u64);
    if n == 1 {
        ctx.charge(Bucket::Net, p.send_charge(false));
        raw_send(ctx, st, dst, msgs.pop().expect("singleton vanished"), 0, p);
        return;
    }
    let data_len = n * SUB_WIRE_BYTES;
    let wire_bytes = SHORT_WIRE_BYTES + data_len;
    let marshal = ctx.cost().coalescing.marshal_per_msg;
    ctx.charge(Bucket::Net, p.send_charge(false) + n as u64 * marshal);
    ctx.with_stats(|s| {
        s.agg_flushes += 1;
        s.agg_msgs += n as u64;
        s.agg_bytes += wire_bytes as u64;
    });
    ctx.trace_event(TraceEvent::CoalesceFlush {
        dst,
        msgs: n as u64,
        wire_bytes,
    });
    let frame = AmMsg {
        src: ctx.node(),
        handler: H_COALESCED,
        args: [n as u64, 0, 0, 0],
        data: None,
        token: Some(Box::new(Batch(msgs))),
    };
    raw_send(ctx, st, dst, frame, data_len, p);
}

/// The wire leg of every coalesced-path send (flushed frames and, via
/// `send_inner`, bulk messages). Reliable mode sequences the frame (per-link
/// ordering comes from the protocol); on a fault-free wire the arrival is
/// clamped past the previous send's so variable sizes cannot reorder the
/// link — without the clamp a small bulk message could overtake the large
/// aggregate frame its own flush just emitted.
pub(crate) fn raw_send<F: Fabric>(
    ctx: &F,
    st: &AmState<F>,
    dst: usize,
    msg: AmMsg,
    data_len: usize,
    p: &NetProfile,
) {
    if ctx.faults_enabled() {
        crate::reliable::send(ctx, st, dst, msg, data_len, p);
        return;
    }
    let now = ctx.now();
    let mut delay = p.wire_delay(data_len);
    {
        let mut co = st.coalesce.lock();
        let cs = co
            .as_mut()
            .expect("coalesced send without coalescing enabled");
        let floor = cs.arrival_floor.entry(dst).or_insert(0);
        if now + delay <= *floor {
            delay = *floor - now + 1;
        }
        *floor = now + delay;
    }
    ctx.send_msg(dst, SHORT_WIRE_BYTES + data_len, delay, msg.into_payload());
}

/// Unpack and dispatch a received aggregate frame: one receive overhead for
/// the frame, then per sub-message the unmarshal cost and the normal
/// handler accounting. Returns the number of handlers run.
pub(crate) fn dispatch_batch<F: Fabric>(
    ctx: &F,
    st: &AmState<F>,
    p: &NetProfile,
    frame: AmMsg,
) -> usize {
    let batch = frame
        .token
        .expect("aggregate frame without a batch token")
        .downcast::<Batch>()
        .expect("aggregate frame token was not a batch");
    ctx.charge(Bucket::Net, p.recv_charge());
    let unmarshal = ctx.cost().coalescing.unmarshal_per_msg;
    let mut ran = 0;
    for sub in batch.0 {
        let hid = sub.handler;
        ctx.trace_event(TraceEvent::HandlerStart { handler: hid });
        ctx.charge(Bucket::Net, unmarshal);
        ctx.count(StatCounter::HandlersRun, 1);
        lookup(st, hid)(ctx, sub);
        ctx.trace_event(TraceEvent::HandlerEnd { handler: hid });
        ran += 1;
    }
    ran
}
