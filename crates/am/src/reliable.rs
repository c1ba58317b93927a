//! Reliable delivery over a faulty wire.
//!
//! When the simulation installs a [`FaultModel`](mpmd_sim::FaultModel), the
//! AM layer stops trusting the switch (the paper's SP-AM assumes perfectly
//! reliable hardware) and runs every message through a sequence-numbered,
//! acknowledged, retransmitting protocol:
//!
//! * **Sequencing** — each directed link carries its own sequence space; the
//!   receiver delivers strictly in order per link, buffering out-of-order
//!   arrivals and discarding duplicates (`Stats::dup_drops`).
//! * **Acks** — after draining a poll batch, the receiver sends one
//!   *cumulative* ack per source it heard from. Acks are unsequenced and
//!   never retransmitted (losing one only delays the sender's cleanup).
//! * **Retransmission** — unacknowledged packets are re-sent after a timeout
//!   with exponential backoff (`rto_initial` doubling up to `rto_max`),
//!   driven from every [`poll`](crate::poll) and, between the application's
//!   own polls, by a per-node *pump* daemon that parks until the earliest
//!   deadline.
//!
//! Every protocol action is charged to [`Bucket::Net`] using the
//! [`ReliabilityCosts`](mpmd_sim::ReliabilityCosts) constants (ack handling
//! on both ends, timeout scans that found due work, each retransmission), so
//! reliability overhead lands in the five-bucket breakdown next to the
//! send/receive overheads it extends. Fault decisions are drawn from the
//! kernel's seeded stream in simulation order, so a seed fixes the entire
//! run.
//!
//! Payload sharing: a packet's `AmMsg` (which may carry a non-cloneable
//! continuation token) lives behind a `Mutex<Option<..>>` inside an
//! `Arc`-shared packet. Wire copies and the sender's retransmit buffer share
//! the packet; exactly one in-order delivery takes the message out, and
//! every other copy is identified as a duplicate by its sequence number
//! alone, so the message is never needed twice.

use crate::profile::NetProfile;
use crate::state::AmState;
use crate::AmMsg;
use mpmd_fabric::Fabric;
use mpmd_sim::{Bucket, Payload, Time, TraceEvent};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Modeled wire size of a protocol frame header (same as a short AM).
use crate::ops::SHORT_WIRE_BYTES;

/// What travels on the wire in reliable mode.
pub(crate) enum RelFrame {
    /// An application message with its link sequence number.
    Data(Arc<RelPacket>),
    /// Cumulative acknowledgement: every seq `< cum` on the link from the
    /// ack's receiver to its sender has been delivered.
    Ack { cum: u64 },
}

/// One sequenced packet, shared between the sender's retransmit buffer and
/// all wire copies.
pub(crate) struct RelPacket {
    pub(crate) seq: u64,
    pub(crate) wire_bytes: usize,
    pub(crate) data_len: usize,
    /// Taken by the one in-order delivery; duplicates are rejected by
    /// sequence number before ever looking here.
    pub(crate) msg: Mutex<Option<AmMsg>>,
}

/// Sender-side bookkeeping for one unacknowledged packet.
struct Unacked {
    pkt: Arc<RelPacket>,
    next_due: Time,
    backoff: Time,
}

/// Receiver-side state of one incoming link.
#[derive(Default)]
struct RecvChannel {
    next_expected: u64,
    /// Out-of-order arrivals awaiting the gap fill, keyed by seq.
    buffer: BTreeMap<u64, Arc<RelPacket>>,
}

/// Per-node protocol state (inside [`AmState`]).
#[derive(Default)]
pub(crate) struct RelState {
    /// Next sequence number per destination.
    next_seq: HashMap<usize, u64>,
    /// Sent-but-unacknowledged packets, keyed `(dst, seq)`. A BTreeMap so
    /// the retransmit scan iterates in deterministic order.
    unacked: BTreeMap<(usize, u64), Unacked>,
    /// Incoming link state per source.
    recv: HashMap<usize, RecvChannel>,
    /// Highest cumulative ack sent per source. `next_expected` only grows,
    /// so the acks we emit must be monotone per link; the protocol asserts
    /// it on every ack (a regression here would silently wedge the sender's
    /// retransmit buffer).
    sent_cum: HashMap<usize, u64>,
}

/// Sequence, buffer and transmit one application message (the reliable
/// branch of `send_inner`; the caller has already charged the send
/// overhead).
pub(crate) fn send<F: Fabric>(
    ctx: &F,
    st: &AmState<F>,
    dst: usize,
    msg: AmMsg,
    data_len: usize,
    p: &NetProfile,
) {
    let Some(faults) = ctx.cost().faults.as_ref() else {
        // No fault model means a reliable wire: sequencing and retransmit
        // machinery would add nothing, so degrade to a plain send instead of
        // aborting the experiment over the misconfiguration.
        ctx.send_msg(
            dst,
            SHORT_WIRE_BYTES + data_len,
            p.wire_delay(data_len),
            msg.into_payload(),
        );
        return;
    };
    let rto = faults.rto_initial;
    let pkt = {
        let mut rel = st.rel.lock();
        let seq = rel.next_seq.entry(dst).or_insert(0);
        let s = *seq;
        *seq += 1;
        let pkt = Arc::new(RelPacket {
            seq: s,
            wire_bytes: SHORT_WIRE_BYTES + data_len,
            data_len,
            msg: Mutex::new(Some(msg)),
        });
        let now = ctx.now();
        rel.unacked.insert(
            (dst, s),
            Unacked {
                pkt: Arc::clone(&pkt),
                next_due: now + rto,
                backoff: rto,
            },
        );
        pkt
    };
    transmit(ctx, dst, &pkt, p);
    // Nudge the pump so it re-parks against this packet's retransmit
    // deadline. Without this, a pump that parked with an empty retransmit
    // buffer (no deadline) would never wake if this packet is dropped and
    // nothing else arrives at this node — the drop would deadlock the run
    // instead of costing a retransmission. A no-op when the pump is already
    // runnable or is the task doing the sending.
    if let Some(t) = *st.pump.lock() {
        ctx.unpark(t);
    }
}

/// Put one wire copy (or two, or zero) of `pkt` on the link to `dst`,
/// according to the fault decision drawn for this attempt.
fn transmit<F: Fabric>(ctx: &F, dst: usize, pkt: &Arc<RelPacket>, p: &NetProfile) {
    let d = ctx.fault_decision(dst);
    let delay = p.wire_delay(pkt.data_len) + d.extra_delay;
    if d.drop {
        ctx.with_stats(|s| s.wire_drops += 1);
    } else {
        ctx.send_msg(
            dst,
            pkt.wire_bytes,
            delay,
            Payload::any(RelFrame::Data(Arc::clone(pkt))),
        );
    }
    if d.duplicate {
        ctx.with_stats(|s| s.wire_dups += 1);
        ctx.send_msg(
            dst,
            pkt.wire_bytes,
            delay,
            Payload::any(RelFrame::Data(Arc::clone(pkt))),
        );
    }
}

/// Send a cumulative ack to `dst`. Acks are unsequenced, never
/// retransmitted, and themselves subject to wire faults; each end charges
/// `ack_handling`.
fn send_ack<F: Fabric>(ctx: &F, dst: usize, cum: u64, p: &NetProfile) {
    ctx.charge(Bucket::Net, ctx.cost().reliability.ack_handling);
    let d = ctx.fault_decision(dst);
    let delay = p.wire_delay(0) + d.extra_delay;
    if d.drop {
        ctx.with_stats(|s| s.wire_drops += 1);
    } else {
        ctx.send_msg(
            dst,
            SHORT_WIRE_BYTES,
            delay,
            Payload::any(RelFrame::Ack { cum }),
        );
    }
    if d.duplicate {
        ctx.with_stats(|s| s.wire_dups += 1);
        ctx.send_msg(
            dst,
            SHORT_WIRE_BYTES,
            delay,
            Payload::any(RelFrame::Ack { cum }),
        );
    }
}

/// What to do with one received data frame (decided under the state lock,
/// acted on outside it — handlers may re-enter the send path).
enum Action {
    /// Deliver these messages, in order (the frame filled the expected slot,
    /// possibly releasing buffered successors).
    Deliver(Vec<AmMsg>),
    /// Already delivered or already buffered: suppress.
    Duplicate,
    /// Ahead of the expected seq: parked in the reorder buffer.
    Buffered,
}

/// The reliable branch of [`poll`](crate::poll): drain the inbox, deliver
/// in per-link order, ack every source heard from, then run the retransmit
/// scan. Returns the number of handlers run.
pub(crate) fn poll_reliable<F: Fabric>(ctx: &F, st: &AmState<F>, p: &NetProfile) -> usize {
    let mut ran = 0;
    let mut touched: BTreeSet<usize> = BTreeSet::new();
    while let Some(m) = ctx.try_recv() {
        let frame = m
            .payload
            .downcast::<RelFrame>()
            .expect("non-reliable message in inbox with a fault model installed");
        match *frame {
            RelFrame::Data(pkt) => {
                let src = m.src;
                let seq = pkt.seq;
                touched.insert(src);
                // A consumed body behind a fresh sequence number should be
                // impossible (the seq check identifies duplicates before the
                // body is looked at); if it ever happens, the window still
                // advances and the hole is counted as a duplicate drop
                // instead of poisoning the whole run with a panic.
                let mut stale_takes = 0u64;
                let action = {
                    let mut rel = st.rel.lock();
                    let ch = rel.recv.entry(src).or_default();
                    if pkt.seq < ch.next_expected {
                        Action::Duplicate
                    } else if pkt.seq > ch.next_expected {
                        match ch.buffer.entry(pkt.seq) {
                            std::collections::btree_map::Entry::Occupied(_) => Action::Duplicate,
                            std::collections::btree_map::Entry::Vacant(e) => {
                                e.insert(pkt);
                                Action::Buffered
                            }
                        }
                    } else {
                        let mut out = Vec::new();
                        match pkt.msg.lock().take() {
                            Some(am) => out.push(am),
                            None => stale_takes += 1,
                        }
                        ch.next_expected += 1;
                        while let Some(b) = ch.buffer.remove(&ch.next_expected) {
                            match b.msg.lock().take() {
                                Some(am) => out.push(am),
                                None => stale_takes += 1,
                            }
                            ch.next_expected += 1;
                        }
                        Action::Deliver(out)
                    }
                };
                if stale_takes > 0 {
                    ctx.with_stats(|s| s.dup_drops += stale_takes);
                    ctx.trace_event(TraceEvent::DupDrop { src, seq });
                }
                match action {
                    Action::Deliver(msgs) => {
                        for am in msgs {
                            ran += crate::ops::dispatch(ctx, st, p, am);
                        }
                    }
                    Action::Duplicate => {
                        ctx.with_stats(|s| s.dup_drops += 1);
                        ctx.trace_event(TraceEvent::DupDrop { src, seq });
                    }
                    Action::Buffered => {}
                }
            }
            RelFrame::Ack { cum } => {
                ctx.charge(Bucket::Net, ctx.cost().reliability.ack_handling);
                let mut rel = st.rel.lock();
                let acked: Vec<(usize, u64)> = rel
                    .unacked
                    .range((m.src, 0)..(m.src, cum))
                    .map(|(k, _)| *k)
                    .collect();
                for k in acked {
                    rel.unacked.remove(&k);
                }
            }
        }
    }
    // One cumulative ack per source heard from this batch. Re-acking on
    // duplicates and out-of-order arrivals is what lets the sender clear
    // its buffer after a lost ack.
    for src in touched {
        let cum = {
            let mut rel = st.rel.lock();
            let cum = rel.recv.get(&src).map_or(0, |c| c.next_expected);
            let prev = rel.sent_cum.insert(src, cum);
            assert!(
                prev.is_none_or(|p| cum >= p),
                "cumulative ack to node {src} went backwards: {prev:?} -> {cum}"
            );
            cum
        };
        send_ack(ctx, src, cum, p);
    }
    retransmit_scan(ctx, st, p);
    ran
}

/// Re-send every unacknowledged packet whose deadline has passed, with
/// exponential backoff. `timeouts` counts scans that found due work;
/// `retransmits` counts packets re-sent.
fn retransmit_scan<F: Fabric>(ctx: &F, st: &AmState<F>, p: &NetProfile) {
    let now = ctx.now();
    let due: Vec<((usize, u64), Arc<RelPacket>)> = {
        let rel = st.rel.lock();
        rel.unacked
            .iter()
            .filter(|(_, u)| u.next_due <= now)
            .map(|(k, u)| (*k, Arc::clone(&u.pkt)))
            .collect()
    };
    if due.is_empty() {
        return;
    }
    let rc = ctx.cost().reliability.clone();
    // Unacked packets can only exist if sends went through the reliable
    // path, which requires a fault model — but if the CostModel was swapped
    // out from under us, skip the scan rather than abort.
    let Some(faults) = ctx.cost().faults.as_ref() else {
        return;
    };
    let rto_max = faults.rto_max;
    ctx.with_stats(|s| s.timeouts += 1);
    ctx.charge(Bucket::Net, rc.timeout_check);
    for ((dst, seq), pkt) in due {
        ctx.with_stats(|s| s.retransmits += 1);
        ctx.charge(Bucket::Net, rc.retransmit);
        ctx.trace_event(TraceEvent::Retransmit { dst, seq });
        transmit(ctx, dst, &pkt, p);
        let mut rel = st.rel.lock();
        if let Some(u) = rel.unacked.get_mut(&(dst, seq)) {
            // Distribution of the backoff that governed this retransmission
            // (recorded before doubling): how deep the protocol is into its
            // exponential schedule when the wire misbehaves.
            ctx.metric_observe("am.retransmit_backoff_ns", u.backoff);
            u.backoff = (u.backoff * 2).min(rto_max);
            u.next_due = ctx.now() + u.backoff;
        }
    }
}

/// Earliest retransmit deadline on this node, if any packet is in flight.
pub(crate) fn next_deadline<F: Fabric>(st: &AmState<F>) -> Option<Time> {
    st.rel.lock().unacked.values().map(|u| u.next_due).min()
}

/// Body of the per-node pump daemon (spawned by [`init`](crate::init) when
/// a fault model is installed). Keeps the protocol live while application
/// tasks compute or block: processes incoming frames and acks promptly, and
/// drives retransmit tails after the application quiesces. Exits when the
/// engine flips `shutting_down` (only daemons left).
pub(crate) fn pump_main<F: Fabric>(ctx: F) {
    let st = AmState::get(&ctx);
    loop {
        if ctx.shutting_down() {
            return;
        }
        crate::ops::poll(&ctx);
        if ctx.shutting_down() {
            return;
        }
        match next_deadline(&st) {
            Some(d) => ctx.park_for_inbox_until(d),
            None => ctx.park_for_inbox(),
        }
    }
}
