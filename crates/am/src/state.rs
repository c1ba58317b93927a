//! Per-node Active-Message endpoint state: the handler table and profile.

use crate::profile::NetProfile;
use crate::AmMsg;
use mpmd_fabric::Fabric;
use mpmd_sim::TaskId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Identifier of a registered handler. Each runtime owns a disjoint id range
/// (by convention: AM internals 0–15, Split-C 16–63, CC++ 64+). Ids must be
/// below [`MAX_HANDLERS`].
pub type HandlerId = u32;

/// Size of the per-node handler table: valid ids are `0..MAX_HANDLERS`.
pub const MAX_HANDLERS: usize = 256;

/// A registered active-message handler. Handlers execute on the receiving
/// node, inside whichever task performed the poll; they may send messages
/// (e.g. replies) and spawn threads, but must not block.
pub type Handler<F> = Box<dyn Fn(&F, AmMsg) + Send + Sync>;

/// Endpoint state, one per node, stored in the fabric's node-data registry.
pub(crate) struct AmState<F: Fabric> {
    /// Set once by [`init`]; read lock-free on every send and dispatch.
    pub(crate) profile: OnceLock<NetProfile>,
    /// Dense handler table indexed by id: each entry is set once by
    /// [`register`] and read on every dispatch without a lock or a hash.
    pub(crate) handlers: Box<[OnceLock<Handler<F>>]>,
    /// Tasks currently inside `poll` (see [`PollSet`]).
    pub(crate) in_poll: PollSet,
    /// Barrier bookkeeping (see `barrier.rs`).
    pub(crate) barrier_arrivals: Mutex<HashMap<u64, usize>>,
    pub(crate) barrier_release_gen: AtomicU64,
    pub(crate) barrier_my_gen: AtomicU64,
    /// Reliable-delivery protocol state (used only with a fault model).
    pub(crate) rel: Mutex<crate::reliable::RelState>,
    /// Per-destination aggregation buffers; `Some` iff the runtime enabled
    /// message coalescing on this node.
    pub(crate) coalesce: Mutex<Option<crate::coalesce::CoalesceState>>,
    /// Lock-free mirror of `coalesce.is_some()`, set once when coalescing is
    /// enabled. The send and poll fast paths consult it so a node that never
    /// coalesces (the common case) pays one relaxed load instead of a mutex
    /// acquisition per send and two per poll.
    pub(crate) coalesce_on: AtomicBool,
    /// Whether this node's pump daemon has been spawned.
    pub(crate) pump_started: AtomicBool,
    /// The pump daemon's task, once spawned. Sends nudge it awake so it
    /// re-parks against the new packet's retransmit deadline — otherwise a
    /// pump that parked with an empty retransmit buffer would sleep through
    /// the drop of a packet sent afterwards.
    pub(crate) pump: Mutex<Option<TaskId>>,
    /// Whether this node's coalescing linger daemon has been spawned
    /// (wall-clock fabrics only; see `coalesce::linger_main`).
    pub(crate) linger_started: AtomicBool,
    /// The linger daemon's task, once spawned. First appends nudge it so it
    /// re-parks against the new buffer's linger deadline.
    pub(crate) linger: Mutex<Option<TaskId>>,
    /// Serializes "take buffers + put them on the wire" across flushers.
    /// On the simulator flushes never overlap (one task runs at a time), but
    /// on a wall-clock fabric the linger daemon races application flushes:
    /// without the gate, the daemon could take an older buffer and then lose
    /// the wire to a younger frame flushed by the application, reordering
    /// the link.
    pub(crate) flush_gate: Mutex<()>,
}

impl<F: Fabric> AmState<F> {
    fn new() -> Self {
        AmState {
            profile: OnceLock::new(),
            handlers: (0..MAX_HANDLERS).map(|_| OnceLock::new()).collect(),
            in_poll: PollSet::default(),
            barrier_arrivals: Mutex::new(HashMap::new()),
            barrier_release_gen: AtomicU64::new(0),
            barrier_my_gen: AtomicU64::new(0),
            rel: Mutex::new(crate::reliable::RelState::default()),
            coalesce: Mutex::new(None),
            coalesce_on: AtomicBool::new(false),
            pump_started: AtomicBool::new(false),
            pump: Mutex::new(None),
            linger_started: AtomicBool::new(false),
            linger: Mutex::new(None),
            flush_gate: Mutex::new(()),
        }
    }

    pub(crate) fn get(ctx: &F) -> Arc<AmState<F>> {
        ctx.node_data(AmState::new)
    }

    pub(crate) fn profile(&self) -> &NetProfile {
        self.profile
            .get()
            .expect("am::init was not called on this node")
    }
}

/// Initialize this node's endpoint with a cost profile. Must be called once
/// per node before any communication; calling again with a different profile
/// panics (mixed profiles on one node would make measurements meaningless).
pub fn init<F: Fabric>(ctx: &F, profile: NetProfile) {
    let st = AmState::get(ctx);
    if let Err(profile) = st.profile.set(profile) {
        assert_eq!(
            st.profile(),
            &profile,
            "am::init called twice with different profiles"
        );
    }
    // A fault model switches the layer into reliable-delivery mode; each
    // node gets one pump daemon driving retransmits/acks while application
    // tasks compute or block.
    if ctx.faults_enabled() && !st.pump_started.swap(true, Ordering::SeqCst) {
        let t = ctx.spawn_daemon("am-pump", crate::reliable::pump_main::<F>);
        *st.pump.lock() = Some(t);
    }
}

/// The profile this node was initialized with.
pub fn profile<F: Fabric>(ctx: &F) -> NetProfile {
    AmState::get(ctx).profile().clone()
}

/// Register `handler` under `id` on this node. Panics if the id is taken or
/// not below [`MAX_HANDLERS`].
pub fn register<F: Fabric>(
    ctx: &F,
    id: HandlerId,
    handler: impl Fn(&F, AmMsg) + Send + Sync + 'static,
) {
    let st = AmState::get(ctx);
    let slot = st.handlers.get(id as usize).unwrap_or_else(|| {
        panic!("AM handler id {id} is out of range: ids must be below {MAX_HANDLERS}")
    });
    if slot.set(Box::new(handler)).is_err() {
        panic!("duplicate AM handler id {id}");
    }
}

/// Whether a handler id is registered (used by tests and diagnostics).
pub fn is_registered<F: Fabric>(ctx: &F, id: HandlerId) -> bool {
    AmState::get(ctx)
        .handlers
        .get(id as usize)
        .is_some_and(|h| h.get().is_some())
}

pub(crate) fn lookup<F: Fabric>(st: &AmState<F>, id: HandlerId) -> &Handler<F> {
    st.handlers
        .get(id as usize)
        .and_then(OnceLock::get)
        .unwrap_or_else(|| panic!("no AM handler registered for id {id}"))
}

/// Lock-free seats for polling tasks.
const POLL_SLOTS: usize = 8;

/// The tasks currently inside `poll`, guarding against *recursive* polling
/// (a handler's reply triggering poll-on-send while already inside a poll).
/// Per task, not per node: a different task polling while this one is
/// suspended at its poll point is legal and necessary — blocking it would
/// let a spin-waiting task busy-loop forever while the polling thread holds
/// a node-wide flag.
///
/// A poll claims one of [`POLL_SLOTS`] atomic seats holding `task id + 1`
/// (0 = free) and frees it with a store. Only when every seat is taken does
/// it fall back to the locked set, which the recursion check reads only
/// while `overflow_len` is nonzero. Each task reads only its own membership,
/// which it wrote itself, so relaxed ordering suffices.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct PollSet {
    slots: [AtomicU64; POLL_SLOTS],
    overflow_len: AtomicUsize,
    overflow: Mutex<HashSet<TaskId>>,
}

/// Where a [`PollGuard`] holds its task.
enum Seat {
    Slot(usize),
    Overflow,
}

/// Poll-guard RAII: marks the *task* as inside a poll for its lifetime.
pub(crate) struct PollGuard<'a> {
    set: &'a PollSet,
    task: TaskId,
    seat: Seat,
}

impl<'a> PollGuard<'a> {
    /// Returns `None` if this task is already polling (recursive poll via
    /// poll-on-send suppressed). Other tasks may poll concurrently — inbox
    /// draining is atomic per message.
    pub(crate) fn enter(set: &'a PollSet, task: TaskId) -> Option<Self> {
        let tag = u64::from(task.0) + 1;
        if set.slots.iter().any(|s| s.load(Ordering::Relaxed) == tag) {
            return None;
        }
        if set.overflow_len.load(Ordering::Relaxed) != 0 && set.overflow.lock().contains(&task) {
            return None;
        }
        let free = set.slots.iter().position(|s| {
            s.load(Ordering::Relaxed) == 0
                && s.compare_exchange(0, tag, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
        });
        let seat = match free {
            Some(i) => Seat::Slot(i),
            None => {
                set.overflow.lock().insert(task);
                set.overflow_len.fetch_add(1, Ordering::Relaxed);
                Seat::Overflow
            }
        };
        Some(PollGuard { set, task, seat })
    }
}

impl Drop for PollGuard<'_> {
    fn drop(&mut self) {
        match self.seat {
            Seat::Slot(i) => self.set.slots[i].store(0, Ordering::Relaxed),
            Seat::Overflow => {
                self.set.overflow.lock().remove(&self.task);
                self.set.overflow_len.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_set_overflows_past_its_slots_and_still_blocks_recursion() {
        let set = PollSet::default();
        let tasks: Vec<TaskId> = (0..12).map(TaskId).collect();
        let guards: Vec<PollGuard> = tasks
            .iter()
            .map(|&t| PollGuard::enter(&set, t).expect("first entry"))
            .collect();
        assert!(guards[..POLL_SLOTS]
            .iter()
            .all(|g| matches!(g.seat, Seat::Slot(_))));
        assert!(guards[POLL_SLOTS..]
            .iter()
            .all(|g| matches!(g.seat, Seat::Overflow)));
        assert_eq!(set.overflow_len.load(Ordering::Relaxed), 12 - POLL_SLOTS);
        // Every task, seated or overflowed, is refused a second entry.
        for &t in &tasks {
            assert!(PollGuard::enter(&set, t).is_none(), "{t:?} recursed");
        }
        drop(guards);
        assert!(set.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0));
        assert_eq!(set.overflow_len.load(Ordering::Relaxed), 0);
        assert!(set.overflow.lock().is_empty());
        // Task 0 holds id tag 1: a freed set admits it again.
        assert!(PollGuard::enter(&set, TaskId(0)).is_some());
    }
}
