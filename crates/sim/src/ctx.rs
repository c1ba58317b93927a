//! Task-side API: everything a simulated task can do.
//!
//! Hot-path discipline: operations that only touch this node's data plane
//! (clock reads, charges, inbox polls, typed singletons, stats) go straight
//! to the node's shard — an atomic load or one per-node lock — and never
//! take the kernel lock. Scheduling operations (yield, park, send, spawn)
//! take the kernel lock as before. Disabled instruments (tracing, metrics)
//! are gated on plain bools captured at `Sim::run`, so the off path costs a
//! branch, not a lock.

use crate::cost::CostModel;
use crate::engine::{spawn_task, spawn_task_inner, switch_from_task, SimInner};
use crate::event::{Msg, Payload};
use crate::kernel::{FaultDecision, TaskState};
use crate::report::Snapshot;
use crate::stats::{Bucket, Stats};
use crate::task::{TaskCell, TaskId};
use crate::time::Time;
use crate::trace::{SpanId, TraceEvent};
use std::any::Any;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Handle to the simulation held by a running task. Cheap to clone; a clone
/// refers to the same task (pass clones into closures, not across tasks —
/// each spawned task receives its own `Ctx`).
pub struct Ctx {
    inner: Arc<SimInner>,
    node: usize,
    task: TaskId,
    /// This task's own handoff cell, cached here so blocking points don't
    /// re-fetch (and re-clone) it from the task table on every switch.
    cell: Arc<TaskCell>,
}

impl Clone for Ctx {
    fn clone(&self) -> Self {
        Ctx {
            inner: Arc::clone(&self.inner),
            node: self.node,
            task: self.task,
            cell: Arc::clone(&self.cell),
        }
    }
}

impl Ctx {
    pub(crate) fn new(
        inner: Arc<SimInner>,
        node: usize,
        task: TaskId,
        cell: Arc<TaskCell>,
    ) -> Self {
        Ctx {
            inner,
            node,
            task,
            cell,
        }
    }

    /// This task's node index.
    #[inline]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Total number of nodes in the machine.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.inner.num_nodes
    }

    /// This task's id.
    #[inline]
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// The active cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Current virtual time on this node. Lock-free: the clock is a per-node
    /// atomic, written only by the logical thread holding the baton.
    #[inline]
    pub fn now(&self) -> Time {
        self.inner.shards[self.node].clock.load(Relaxed)
    }

    /// Advance this node's clock by `ns`, attributing the time to `bucket`.
    ///
    /// Fast path: touches only this node's shard. The kernel lock is taken
    /// only when other tasks sit in this node's ready queue (their heap
    /// entry is keyed by the old clock and must be re-indexed) — rare on the
    /// message fast path, where each node runs one task.
    pub fn charge(&self, bucket: Bucket, ns: Time) {
        if ns == 0 {
            return;
        }
        let sh = &self.inner.shards[self.node];
        let new = sh.clock.load(Relaxed) + ns;
        sh.clock.store(new, Relaxed);
        sh.lock_data().stats.bucket_ns[bucket.index()] += ns;
        if sh.has_ready.load(Relaxed) {
            self.inner.lock_kernel().touch_node(self.node);
        }
        if self.inner.tracing_on {
            let mut k = self.inner.lock_kernel();
            k.emit(self.node, self.task, TraceEvent::Charge { bucket, ns });
        }
    }

    /// Mutate this node's instrumentation counters.
    pub fn with_stats<R>(&self, f: impl FnOnce(&mut Stats) -> R) -> R {
        f(&mut self.inner.shards[self.node].lock_data().stats)
    }

    /// Spawn a new task on this node. Pure scheduling: the *cost* of thread
    /// creation is charged by the threads package, not here.
    pub fn spawn<F>(&self, name: &str, f: F) -> TaskId
    where
        F: FnOnce(Ctx) + Send + 'static,
    {
        spawn_task(&self.inner, self.node, name.to_string(), f)
    }

    /// Spawn a task on an arbitrary node (used by runtime bootstrap, e.g.
    /// starting remote polling threads; ordinary code spawns locally).
    pub fn spawn_on<F>(&self, node: usize, name: &str, f: F) -> TaskId
    where
        F: FnOnce(Ctx) + Send + 'static,
    {
        spawn_task(&self.inner, node, name.to_string(), f)
    }

    /// Reschedule this task behind any other runnable work, giving the
    /// scheduler a chance to apply due network events and run other tasks.
    /// Free of modeled cost (the threads package charges context switches).
    ///
    /// Includes a fast path: if no event and no other task could possibly run
    /// before this node's clock, the reschedule is skipped entirely.
    pub fn yield_now(&self) {
        let mut k = self.inner.lock_kernel();
        let my_clock = k.clock(self.node);
        let event_due = k.events.peek().is_some_and(|e| e.time <= my_clock);
        let local_ready = !k.nodes[self.node].ready.is_empty();
        // Our own node can't have a live heap entry (ready is empty when
        // local_ready is false), so any earlier entry is another node with
        // runnable work strictly behind our clock.
        let earlier_node = !local_ready && k.peek_min_runnable().is_some_and(|(_, c)| c < my_clock);
        if !event_due && !local_ready && !earlier_node {
            // Exploration hook: the oracle may force the skipped slow path
            // anyway (requeue + reschedule at unchanged virtual time), which
            // must be invisible in the results.
            if !k.oracle_forces_slow_path() {
                return;
            }
        }
        k.tasks[self.task.idx()].state = TaskState::Runnable;
        k.enqueue_ready_back(self.node, self.task);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Park this task until [`Ctx::unpark`] (or a timer) wakes it.
    pub fn park(&self) {
        let mut k = self.inner.lock_kernel();
        k.tasks[self.task.idx()].state = TaskState::Parked;
        k.emit(self.node, self.task, TraceEvent::Park);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Make a parked task runnable again. Must target a task on the *same
    /// node* (threads and their synchronization live within one address
    /// space; cross-node wake-ups travel as messages).
    pub fn unpark(&self, t: TaskId) {
        let mut k = self.inner.lock_kernel();
        let rec = &k.tasks[t.idx()];
        assert_eq!(
            rec.node, self.node,
            "unpark across nodes (task on node {}, caller on node {})",
            rec.node, self.node
        );
        match rec.state {
            TaskState::Parked | TaskState::InboxWait => k.make_runnable(t),
            // Spurious unpark of an already-runnable/running/finished task is
            // a no-op (condvar semantics allow it).
            _ => {}
        }
    }

    /// Park until a message is delivered to this node's inbox. Returns
    /// immediately if the inbox is already non-empty. This is the primitive
    /// beneath both Split-C's spin-polling (which costs nothing in thread
    /// operations) and the CC++ polling thread.
    pub fn park_for_inbox(&self) {
        let mut k = self.inner.lock_kernel();
        if !self.inner.shards[self.node].lock_data().inbox.is_empty() {
            return;
        }
        k.tasks[self.task.idx()].state = TaskState::InboxWait;
        // The waiter list is kept duplicate-free here at park time: a task
        // that parks, is woken by a timeout, and parks again must not be
        // listed (and so woken) twice.
        let w = &mut k.nodes[self.node].inbox_waiters;
        if !w.contains(&self.task) {
            w.push(self.task);
        }
        k.emit(self.node, self.task, TraceEvent::Park);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// [`Ctx::park_for_inbox`] with a wake-up deadline: returns when a
    /// message is delivered *or* this node's clock reaches `deadline`,
    /// whichever comes first. Returns immediately if the inbox is already
    /// non-empty or the deadline has passed. This is the blocking primitive
    /// beneath the reliable-delivery layer's retransmit timers.
    pub fn park_for_inbox_until(&self, deadline: Time) {
        let mut k = self.inner.lock_kernel();
        if !self.inner.shards[self.node].lock_data().inbox.is_empty()
            || k.clock(self.node) >= deadline
        {
            return;
        }
        let gen = k.tasks[self.task.idx()].timeout_gen;
        k.post_timeout_wake(self.task, deadline, gen);
        k.tasks[self.task.idx()].state = TaskState::InboxWait;
        let w = &mut k.nodes[self.node].inbox_waiters;
        if !w.contains(&self.task) {
            w.push(self.task);
        }
        k.emit(self.node, self.task, TraceEvent::Park);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Whether a fault model is installed on this simulation (gates the
    /// AM layer's reliable-delivery machinery).
    #[inline]
    pub fn faults_enabled(&self) -> bool {
        self.inner.cost.faults.is_some()
    }

    /// Draw the fate of one transmission attempt from this node to `dst`
    /// from the seeded fault stream. Panics when no fault model is installed
    /// (callers gate on [`Ctx::faults_enabled`]).
    pub fn fault_decision(&self, dst: usize) -> FaultDecision {
        self.inner.lock_kernel().fault_decision(self.node, dst)
    }

    /// Whether the engine has begun shutdown because only daemon tasks
    /// remain. Daemons must exit promptly once this turns true.
    pub fn shutting_down(&self) -> bool {
        self.inner.lock_kernel().shutting_down
    }

    /// Spawn a background *daemon* task on this node. Daemons are excluded
    /// from the liveness condition: when only daemons remain, the engine
    /// flips [`Ctx::shutting_down`], wakes them, and expects them to return.
    pub fn spawn_daemon<F>(&self, name: &str, f: F) -> TaskId
    where
        F: FnOnce(Ctx) + Send + 'static,
    {
        spawn_task_inner(&self.inner, self.node, name.to_string(), true, f)
    }

    /// A *poll point*: make all network events due at or before this node's
    /// clock visible, without otherwise rescheduling. Call before draining
    /// the inbox.
    ///
    /// Unlike [`Ctx::yield_now`], a poll point does **not** queue behind
    /// other ready tasks on this node — polling the network is not a thread
    /// switch in a non-preemptive system. The task hands control to the
    /// engine only when a due event exists or another node lags behind this
    /// node's clock (and could therefore still produce an event before it),
    /// and resumes at the front of its node's run queue.
    pub fn poll_point(&self) {
        let mut k = self.inner.lock_kernel();
        let my_clock = k.clock(self.node);
        let event_due = k.events.peek().is_some_and(|e| e.time <= my_clock);
        // Any live heap entry for our own node carries our clock, never an
        // earlier one, so an entry strictly below our clock is always
        // another node.
        let earlier_node = k.peek_min_runnable().is_some_and(|(_, c)| c < my_clock);
        if !event_due && !earlier_node {
            // Exploration hook: see `yield_now`. Resuming at the front of
            // the run queue keeps the forced detour schedule-neutral.
            if !k.oracle_forces_slow_path() {
                return;
            }
        }
        k.tasks[self.task.idx()].state = TaskState::Runnable;
        k.enqueue_ready_front(self.node, self.task);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Take the oldest delivered message, if any. Touches only this node's
    /// shard (no kernel lock).
    pub fn try_recv(&self) -> Option<Msg> {
        self.inner.shards[self.node].lock_data().inbox.pop_front()
    }

    /// Number of delivered, unconsumed messages.
    pub fn inbox_len(&self) -> usize {
        self.inner.shards[self.node].lock_data().inbox.len()
    }

    /// Send `payload` to node `dst`; it is delivered `delay` ns after this
    /// node's current clock. The messaging layer charges its own send
    /// overhead separately; `delay` models wire/switch time and must be > 0.
    ///
    /// A [`Payload::Short`] send allocates nothing: the four argument words
    /// travel inline and the event body comes from the kernel's slab pool.
    pub fn send_msg(&self, dst: usize, wire_bytes: usize, delay: Time, payload: Payload) {
        let mut k = self.inner.lock_kernel();
        k.post_deliver(
            dst,
            Msg {
                src: self.node,
                wire_bytes,
                payload,
            },
            delay,
        );
    }

    /// Park for `ns` of virtual time (a timer; models e.g. interrupt
    /// delivery delay in the ablation experiments).
    pub fn sleep(&self, ns: Time) {
        let mut k = self.inner.lock_kernel();
        let at = k.clock(self.node) + ns;
        k.post_wake(self.task, at);
        k.tasks[self.task.idx()].state = TaskState::Parked;
        k.emit(self.node, self.task, TraceEvent::Park);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Block until task `t` finishes. No modeled cost (the threads package
    /// wraps this with its accounting).
    pub fn join(&self, t: TaskId) {
        let mut k = self.inner.lock_kernel();
        if k.tasks[t.idx()].state == TaskState::Finished {
            return;
        }
        k.tasks[t.idx()].joiners.push(self.task);
        k.tasks[self.task.idx()].state = TaskState::Parked;
        k.emit(self.node, self.task, TraceEvent::Park);
        switch_from_task(&self.inner, k, self.task, &self.cell);
    }

    /// Whether task `t` has finished.
    pub fn is_finished(&self, t: TaskId) -> bool {
        self.inner.lock_kernel().tasks[t.idx()].state == TaskState::Finished
    }

    /// Fetch (or lazily create) this node's singleton of type `T`. The
    /// runtime crates keep their per-node state (handler tables, memories,
    /// stub caches) here. `init` runs under the node's shard lock and must
    /// not call back into the simulator.
    pub fn node_data<T, F>(&self, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.node_data_on(self.node, init)
    }

    /// [`Ctx::node_data`] for an arbitrary node (bootstrap helper).
    pub fn node_data_on<T, F>(&self, node: usize, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let mut d = self.inner.shards[node].lock_data();
        let slot = d
            .data
            .entry(std::any::TypeId::of::<T>())
            .or_insert_with(|| {
                (
                    Arc::new(init()) as Arc<dyn Any + Send + Sync>,
                    std::any::type_name::<T>(),
                )
            });
        Arc::downcast::<T>(Arc::clone(&slot.0)).expect("node_data type confusion")
    }

    /// Capture all node clocks/stats (quiesce with a barrier first).
    pub fn snapshot(&self) -> Snapshot {
        crate::engine::snapshot(&self.inner)
    }

    /// This node's current clock, but only when a metrics registry is
    /// installed — the lock-free way to grab a latency-measurement start
    /// timestamp that costs a branch when metrics are off. Pair with
    /// [`Ctx::metric_observe_since`].
    #[inline]
    pub fn metric_now(&self) -> Option<Time> {
        self.inner.metrics_on.then(|| self.now())
    }

    /// Record `v` into this node's histogram `name`. No-op (one branch, no
    /// lock) when no registry is installed.
    pub fn metric_observe(&self, name: &'static str, v: u64) {
        if !self.inner.metrics_on {
            return;
        }
        let mut k = self.inner.lock_kernel();
        if let Some(m) = k.metrics.as_mut() {
            m.observe(self.node, name, v);
        }
    }

    /// Record the elapsed virtual time since `t0` (a timestamp from
    /// [`Ctx::metric_now`]) into histogram `name`. No-op when no registry is
    /// installed.
    pub fn metric_observe_since(&self, name: &'static str, t0: Time) {
        if !self.inner.metrics_on {
            return;
        }
        let now = self.now();
        let mut k = self.inner.lock_kernel();
        if let Some(m) = k.metrics.as_mut() {
            m.observe(self.node, name, now.saturating_sub(t0));
        }
    }

    /// Record this node's current inbox depth into histogram `name`. No-op
    /// when no registry is installed.
    pub fn metric_inbox_depth(&self, name: &'static str) {
        if !self.inner.metrics_on {
            return;
        }
        let depth = self.inner.shards[self.node].lock_data().inbox.len() as u64;
        let mut k = self.inner.lock_kernel();
        if let Some(m) = k.metrics.as_mut() {
            m.observe(self.node, name, depth);
        }
    }

    /// Add `delta` to this node's counter `name`. No-op when no registry is
    /// installed.
    pub fn metric_counter_add(&self, name: &'static str, delta: u64) {
        if !self.inner.metrics_on {
            return;
        }
        let mut k = self.inner.lock_kernel();
        if let Some(m) = k.metrics.as_mut() {
            m.counter_add(self.node, name, delta);
        }
    }

    /// Open a named span frame on this task. Returns the sentinel
    /// `SpanId(0)` when tracing is off (then [`Ctx::span_end`] is a no-op).
    ///
    /// Frames must strictly nest per task: ending any frame other than the
    /// innermost open one panics.
    pub fn span_start(&self, name: &str) -> SpanId {
        if !self.inner.tracing_on {
            return SpanId(0);
        }
        let mut k = self.inner.lock_kernel();
        let Some(tr) = k.tracer.as_mut() else {
            return SpanId(0);
        };
        let id = tr.alloc_span();
        k.emit(
            self.node,
            self.task,
            TraceEvent::SpanStart {
                id,
                name: name.to_string(),
            },
        );
        id
    }

    /// Close a span frame opened by [`Ctx::span_start`].
    pub fn span_end(&self, id: SpanId) {
        if !id.is_active() || !self.inner.tracing_on {
            return;
        }
        let mut k = self.inner.lock_kernel();
        k.emit(self.node, self.task, TraceEvent::SpanEnd { id });
    }

    /// RAII form of [`Ctx::span_start`] / [`Ctx::span_end`]: the frame closes
    /// when the guard drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SpanGuard {
            ctx: self,
            id: self.span_start(name),
        }
    }

    /// Record `ev` on this task: a point event (retransmit, coalesce flush,
    /// duplicate drop, barrier enter/exit) or a handler frame's start/end.
    /// No-op (one branch, no lock) when tracing is off.
    pub fn trace_event(&self, ev: TraceEvent) {
        if !self.inner.tracing_on {
            return;
        }
        let mut k = self.inner.lock_kernel();
        k.emit(self.node, self.task, ev);
    }
}

/// RAII guard returned by [`Ctx::span`]; ends the frame on drop.
pub struct SpanGuard<'a> {
    ctx: &'a Ctx,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// The underlying span id (sentinel when tracing is off).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.ctx.span_end(self.id);
    }
}
