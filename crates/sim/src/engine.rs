//! The simulator front door ([`Sim`]) and the scheduling loop.
//!
//! Scheduling invariant: always advance the runnable node with the smallest
//! virtual clock, applying every pending network event with a timestamp
//! `<=` that clock first. Together with the rule that tasks yield to the
//! scheduler before observing their inbox (see `Ctx::poll_point`), this
//! makes message visibility at poll points exact and the whole simulation a
//! deterministic function of its inputs.
//!
//! The *decision* function ([`decide`]) is pure kernel-state manipulation and
//! runs on whichever OS thread holds the baton. A task reaching a blocking
//! point decides the successor itself and resumes it directly
//! ([`switch_from_task`]) — the engine thread merely bootstraps the run and
//! then sleeps on the [`EngineGate`] until termination, deadlock, or a panic
//! needs handling. This halves the OS wakeups per simulated context switch
//! relative to routing every switch through the engine thread.

use crate::cost::CostModel;
use crate::ctx::Ctx;
use crate::explore::ScheduleOracle;
use crate::kernel::{Kernel, Shard, TaskState};
use crate::report::{Report, Snapshot};
use crate::task::{EngineGate, Handoff, HandoffCell, TaskCell, TaskId, TaskPool};
use crate::trace::{TraceConfig, TraceEvent};
use parking_lot::Mutex;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Which execution backend hosts the task stacks. The choice affects only
/// host-side cost; simulation results are byte-identical across backends.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Consult `MPMD_SIM_BACKEND` (`threads` / `fibers`); unset picks the
    /// platform default (fibers where supported, threads otherwise).
    /// Unrecognized values are rejected with an error naming the valid ones.
    #[default]
    Auto,
    /// One OS thread per task.
    Threads,
    /// Userspace fibers (x86_64 unix only; selecting it elsewhere panics).
    Fibers,
}

/// Parse an `MPMD_SIM_BACKEND` value. `None` (unset) means the platform
/// default. Kept separate from the env read so it is unit-testable.
pub(crate) fn parse_backend_env(v: Option<&str>) -> Result<BackendKind, String> {
    match v {
        None => Ok(BackendKind::Auto),
        Some("threads") => Ok(BackendKind::Threads),
        Some("fibers") => Ok(BackendKind::Fibers),
        Some(other) => Err(format!(
            "MPMD_SIM_BACKEND={other:?} is not a recognized backend; \
             valid values are \"threads\" and \"fibers\" (unset it for the platform default)"
        )),
    }
}

/// Resolve the backend requested via `MPMD_SIM_BACKEND`, rejecting
/// unrecognized values. Binaries call this at startup to turn a bad
/// environment into a usage error instead of a mid-run panic; `Sim::run`
/// enforces the same check either way.
pub fn backend_from_env() -> Result<BackendKind, String> {
    let v = std::env::var_os("MPMD_SIM_BACKEND");
    let s = v.as_ref().map(|v| v.to_string_lossy().into_owned());
    parse_backend_env(s.as_deref())
}

/// Execution backend hosting the task stacks. Both implement the same baton
/// protocol and make identical scheduling decisions, so a simulation's
/// virtual-time results are byte-identical across backends; they differ only
/// in what a baton handoff costs on the host.
pub(crate) enum Backend {
    /// One OS thread per live task, condvar handoffs (one futex wakeup per
    /// simulated switch). The portable fallback.
    Threads {
        pool: Arc<TaskPool>,
        gate: Arc<EngineGate>,
    },
    /// All tasks as userspace fibers on the `Sim::run` thread; a handoff is
    /// a stack switch, no syscalls. Default where supported.
    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    Fiber(crate::fiber::FiberRt),
}

impl Backend {
    fn new(kind: BackendKind) -> Backend {
        let kind = match kind {
            // The env var only steers the default; an explicit builder
            // choice wins (and a malformed env var still errors, so a bad
            // configuration never silently changes the backend).
            BackendKind::Auto => match backend_from_env() {
                Ok(k) => k,
                Err(e) => panic!("{e}"),
            },
            k => k,
        };
        let threads = || Backend::Threads {
            pool: TaskPool::new(),
            gate: EngineGate::new(),
        };
        match kind {
            BackendKind::Threads => threads(),
            BackendKind::Fibers => {
                #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
                {
                    Backend::Fiber(crate::fiber::FiberRt::new())
                }
                #[cfg(not(all(target_arch = "x86_64", unix, not(mpmd_no_fibers))))]
                {
                    panic!(
                        "the fiber backend is not supported on this target; \
                         use MPMD_SIM_BACKEND=threads or Sim::backend(BackendKind::Threads)"
                    )
                }
            }
            BackendKind::Auto => {
                #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
                {
                    Backend::Fiber(crate::fiber::FiberRt::new())
                }
                #[cfg(not(all(target_arch = "x86_64", unix, not(mpmd_no_fibers))))]
                {
                    threads()
                }
            }
        }
    }

    fn new_cell(&self) -> TaskCell {
        match self {
            Backend::Threads { .. } => TaskCell::Threads(HandoffCell::new()),
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            Backend::Fiber(_) => TaskCell::Fiber(crate::fiber::FiberCell::empty()),
        }
    }
}

pub(crate) struct SimInner {
    pub(crate) kernel: Mutex<Kernel>,
    /// Per-node data-plane shards, shared with the kernel. Task-side fast
    /// paths (clock reads, charges, inbox polls, node data) go straight to
    /// their node's shard without the kernel lock.
    pub(crate) shards: Arc<Vec<Shard>>,
    pub(crate) backend: Backend,
    pub(crate) cost: CostModel,
    pub(crate) num_nodes: usize,
    /// Immutable for the run: lets trace/metric hooks bail out without
    /// taking any lock when the instrument is not installed.
    pub(crate) tracing_on: bool,
    pub(crate) metrics_on: bool,
}

impl SimInner {
    /// Lock the kernel, registering with the lock-order witness (debug
    /// builds assert that no shard lock is held and the kernel lock is not
    /// re-entered). All kernel locking must go through here.
    #[inline]
    pub(crate) fn lock_kernel(&self) -> KernelGuard<'_> {
        crate::witness::kernel_acquire();
        KernelGuard(self.kernel.lock())
    }

    /// The fiber runtime of this simulation; panics under the threads
    /// backend (only reachable from fiber-entry code).
    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    pub(crate) fn fiber_rt(&self) -> &crate::fiber::FiberRt {
        match &self.backend {
            Backend::Fiber(rt) => rt,
            Backend::Threads { .. } => panic!("fiber entry under the threads backend"),
        }
    }
}

/// Witness-tracked guard over the [`Kernel`].
pub(crate) struct KernelGuard<'a>(parking_lot::MutexGuard<'a, Kernel>);

impl std::ops::Deref for KernelGuard<'_> {
    type Target = Kernel;
    #[inline]
    fn deref(&self) -> &Kernel {
        &self.0
    }
}

impl std::ops::DerefMut for KernelGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Kernel {
        &mut self.0
    }
}

impl Drop for KernelGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        crate::witness::kernel_release();
    }
}

/// Everything a [`Sim`] run is configured by, as one plain value.
///
/// The builder methods grew one at a time ([`Sim::cost_model`],
/// [`Sim::tracing`], [`Sim::metrics`], [`Sim::backend`]); this consolidates
/// them into a typed, (de)serializable configuration accepted by
/// [`Sim::from_config`], so harnesses can load a whole machine description
/// from a file or a flag instead of threading builder calls. The builder
/// methods remain as thin forwarders over the same fields. The
/// [`ScheduleOracle`] — a live trait object — stays builder-only.
///
/// ```
/// use mpmd_sim::{Sim, SimConfig};
///
/// let report = Sim::from_config(SimConfig {
///     nodes: 2,
///     metrics: true,
///     ..SimConfig::default()
/// })
/// .run(|ctx| ctx.metric_observe("demo.v", 1));
/// assert!(report.metrics.is_some());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Processing nodes in the machine.
    pub nodes: usize,
    /// Unit-cost model, including the optional fault model.
    pub cost: CostModel,
    /// Structured event tracing; `None` disables collection.
    pub trace: Option<TraceConfig>,
    /// Install a metrics registry for the run.
    pub metrics: bool,
    /// Execution backend hosting the task stacks.
    pub backend: BackendKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1,
            cost: CostModel::default(),
            trace: None,
            metrics: false,
            backend: BackendKind::Auto,
        }
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for BackendKind {
    fn to_value(&self) -> serde::Value {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Threads => "threads",
            BackendKind::Fibers => "fibers",
        }
        .to_value()
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for BackendKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("auto") => Ok(BackendKind::Auto),
            Some("threads") => Ok(BackendKind::Threads),
            Some("fibers") => Ok(BackendKind::Fibers),
            _ => Err(serde::Error(
                "expected \"auto\", \"threads\", or \"fibers\"".into(),
            )),
        }
    }
}

#[cfg(feature = "serde")]
serde::impl_serialize!(SimConfig {
    nodes,
    cost,
    trace,
    metrics,
    backend,
});
#[cfg(feature = "serde")]
serde::impl_deserialize!(SimConfig {
    nodes,
    cost,
    trace,
    metrics,
    backend,
});

/// Builder for a simulated multicomputer run.
///
/// ```
/// use mpmd_sim::{Sim, Bucket};
///
/// let report = Sim::new(4).run(|ctx| {
///     // one "main" task per node
///     ctx.charge(Bucket::Cpu, 1_000 * (ctx.node() as u64 + 1));
/// });
/// assert_eq!(report.elapsed(), 4_000);
/// ```
pub struct Sim {
    nodes: usize,
    cost: CostModel,
    trace: Option<TraceConfig>,
    metrics: bool,
    backend: BackendKind,
    oracle: Option<Box<dyn ScheduleOracle>>,
}

impl Sim {
    /// A simulation with `nodes` processing nodes and the default (paper
    /// calibration) cost model.
    pub fn new(nodes: usize) -> Self {
        Sim::from_config(SimConfig {
            nodes,
            ..SimConfig::default()
        })
    }

    /// A simulation configured wholesale from a [`SimConfig`] (the typed,
    /// serializable form of the builder state).
    pub fn from_config(config: SimConfig) -> Self {
        assert!(config.nodes > 0, "need at least one node");
        Sim {
            nodes: config.nodes,
            cost: config.cost,
            trace: config.trace,
            metrics: config.metrics,
            backend: config.backend,
            oracle: None,
        }
    }

    /// Select the execution backend explicitly, overriding
    /// `MPMD_SIM_BACKEND`. The default ([`BackendKind::Auto`]) consults the
    /// environment and rejects unrecognized values.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Install a [`ScheduleOracle`] to perturb the engine's don't-care
    /// scheduling decisions (exploration harness; see the
    /// [`explore`](crate::explore) module). Without one, every decision
    /// takes the baseline path.
    pub fn schedule_oracle(mut self, oracle: Box<dyn ScheduleOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Override the cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enable structured event tracing. The collected
    /// [`TraceLog`](crate::TraceLog) is returned on
    /// [`Report::trace`](crate::Report::trace) after the run.
    ///
    /// ```
    /// use mpmd_sim::{Sim, TraceConfig};
    ///
    /// let report = Sim::new(2).tracing(TraceConfig::new()).run(|ctx| {
    ///     let _s = ctx.span("work");
    /// });
    /// assert!(report.trace.is_some());
    /// ```
    pub fn tracing(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Enable the metrics registry. The filled
    /// [`MetricsRegistry`](crate::MetricsRegistry) is returned on
    /// [`Report::metrics`](crate::Report::metrics) after the run.
    ///
    /// ```
    /// use mpmd_sim::{Sim, Bucket};
    ///
    /// let report = Sim::new(2).metrics(true).run(|ctx| {
    ///     ctx.metric_observe("demo.latency_ns", 1_000);
    /// });
    /// let m = report.metrics.expect("registry was installed");
    /// assert_eq!(m.hist("demo.latency_ns").unwrap().count, 2);
    /// ```
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Run `main` once per node (as each node's initial task) to completion
    /// of *all* tasks, and return the measurements.
    ///
    /// SPMD programs use the same body everywhere; MPMD programs dispatch on
    /// `ctx.node()` to run different programs on different nodes — exactly
    /// the processor-object model of CC++.
    ///
    /// # Panics
    ///
    /// Propagates any panic raised inside a task, and panics with a state
    /// dump if the system deadlocks (live tasks but no runnable work and no
    /// pending events).
    pub fn run<F>(self, main: F) -> Report
    where
        F: Fn(Ctx) + Send + Sync + 'static,
    {
        let faults = self.cost.faults.clone();
        let metrics = self.metrics || self.cost.metrics;
        let tracing_on = self.trace.is_some();
        let shards: Arc<Vec<Shard>> = Arc::new((0..self.nodes).map(|_| Shard::new()).collect());
        let inner = Arc::new(SimInner {
            kernel: Mutex::new(Kernel::new(
                self.nodes,
                Arc::clone(&shards),
                self.trace,
                metrics,
                faults,
                self.oracle,
            )),
            shards,
            backend: Backend::new(self.backend),
            cost: self.cost,
            num_nodes: self.nodes,
            tracing_on,
            metrics_on: metrics,
        });
        let main = Arc::new(main);
        for node in 0..self.nodes {
            let f = Arc::clone(&main);
            spawn_task(&inner, node, "main".to_string(), move |ctx| f(ctx));
        }
        run_engine(&inner);
        // Teardown: every task has finished, so the shards are quiescent;
        // move each Stats block out instead of cloning it.
        let mut k = inner.lock_kernel();
        // Structural pool invariant: pending heap keys and live pool bodies
        // are in bijection. Events may legally remain pending at a clean
        // termination (e.g. a delivery to a node whose tasks all finished),
        // but every live body must be reachable from exactly one key — a
        // mismatch means a leaked or double-freed event slot.
        assert_eq!(
            k.events.len(),
            k.event_pool.in_use(),
            "event pool/heap bijection broken at teardown"
        );
        k.publish_pool_metrics();
        let trace = k.tracer.take().map(|t| t.finish());
        let metrics = k.metrics.take();
        drop(k);
        Report {
            clocks: inner.shards.iter().map(|s| s.clock.load(Relaxed)).collect(),
            stats: inner
                .shards
                .iter()
                .map(|s| std::mem::take(&mut s.lock_data().stats))
                .collect(),
            trace,
            metrics,
        }
    }
}

/// Register a task with the kernel and hand its body to the worker pool.
/// Shared by the bootstrap path above and `Ctx::spawn`.
pub(crate) fn spawn_task<F>(inner: &Arc<SimInner>, node: usize, name: String, f: F) -> TaskId
where
    F: FnOnce(Ctx) + Send + 'static,
{
    spawn_task_inner(inner, node, name, false, f)
}

/// [`spawn_task`] with the daemon flag exposed (see `Ctx::spawn_daemon`).
pub(crate) fn spawn_task_inner<F>(
    inner: &Arc<SimInner>,
    node: usize,
    name: String,
    daemon: bool,
    f: F,
) -> TaskId
where
    F: FnOnce(Ctx) + Send + 'static,
{
    let cell = Arc::new(inner.backend.new_cell());
    let id = inner
        .lock_kernel()
        .register_task(node, name, Arc::clone(&cell), daemon);
    let ctx = Ctx::new(Arc::clone(inner), node, id, Arc::clone(&cell));
    let inner2 = Arc::clone(inner);
    let body = Box::new(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
        let mut k = inner2.lock_kernel();
        k.finish_task(id);
        if let Err(p) = result {
            if k.panic.is_none() {
                k.panic = Some(p);
            }
        }
        // This task held the baton; pick who gets it next. A captured panic
        // goes to the engine for prompt propagation, otherwise it goes
        // directly to the next runnable task (one OS wakeup, no engine round
        // trip). The worker loop performs the actual wakeup after marking
        // this OS thread idle, so the successor can reuse it for spawns.
        if k.panic.is_some() {
            return Handoff::WakeGate;
        }
        match decide(&mut k) {
            Decision::Run(_, next) => Handoff::Resume(next),
            Decision::Idle => Handoff::WakeGate,
        }
    });
    match &inner.backend {
        Backend::Threads { pool, gate } => pool.dispatch(crate::task::Job {
            cell,
            body,
            gate: Arc::clone(gate),
        }),
        #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
        Backend::Fiber(rt) => rt.prepare(
            cell.fiber(),
            Box::new(crate::fiber::FiberBody {
                body,
                inner: Arc::clone(inner),
                cell: Arc::clone(&cell),
            }),
        ),
    }
    id
}

enum Decision {
    Run(TaskId, Arc<TaskCell>),
    /// No runnable task: the run is complete if `live == 0`, deadlocked
    /// otherwise. The engine materializes the diagnosis.
    Idle,
}

pub(crate) fn run_engine(inner: &Arc<SimInner>) {
    loop {
        let decision = {
            let mut k = inner.lock_kernel();
            if let Some(p) = k.panic.take() {
                drop(k);
                std::panic::resume_unwind(p);
            }
            decide(&mut k)
        };
        match decision {
            Decision::Run(_, cell) => {
                // Hand the baton to the task; it (and its successors) will
                // hand off among themselves and wake us only for
                // termination, deadlock, or panic propagation.
                match &inner.backend {
                    Backend::Threads { gate, .. } => {
                        cell.thread().resume_task();
                        gate.sleep();
                    }
                    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
                    Backend::Fiber(rt) => rt.enter(cell.fiber()),
                }
            }
            Decision::Idle => {
                let mut k = inner.lock_kernel();
                if k.live == 0 {
                    return;
                }
                // Only background daemons (reliable-delivery pumps) remain:
                // flip the shutdown flag and wake them so they can observe it
                // and exit. A second idle in this state means a daemon failed
                // to exit, which falls through to the deadlock dump.
                if k.live == k.live_daemons && !k.shutting_down {
                    k.begin_shutdown();
                    continue;
                }
                let dump = k.dump_live();
                drop(k);
                panic!("simulated system deadlocked:\n{dump}");
            }
        }
    }
}

/// Give up the baton at a task blocking point whose kernel bookkeeping is
/// already done: decide the successor on *this* OS thread and resume it
/// directly. Fast path: if the caller itself is the best choice, no OS-level
/// handoff happens at all. Returns once the calling task is resumed.
pub(crate) fn switch_from_task(
    inner: &Arc<SimInner>,
    mut k: KernelGuard<'_>,
    me: TaskId,
    my_cell: &TaskCell,
) {
    if k.panic.is_none() {
        match decide(&mut k) {
            Decision::Run(next, _) if next == me => {
                // decide() already marked us Running; keep going without
                // touching the handoff cell.
                return;
            }
            Decision::Run(_, next) => {
                match &inner.backend {
                    Backend::Threads { .. } => {
                        my_cell.thread().begin_yield();
                        drop(k);
                        next.thread().resume_task();
                        my_cell.thread().wait_for_turn();
                    }
                    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
                    Backend::Fiber(rt) => {
                        drop(k);
                        rt.yield_to(my_cell.fiber(), next.fiber());
                    }
                }
                return;
            }
            Decision::Idle => {}
        }
    }
    // Nothing runnable (deadlock diagnosis) or a panic is pending: the
    // engine sorts it out. On the deadlock path we are never resumed; the
    // worker thread (or fiber stack) is reclaimed at teardown.
    match &inner.backend {
        Backend::Threads { gate, .. } => {
            my_cell.thread().begin_yield();
            drop(k);
            gate.wake();
            my_cell.thread().wait_for_turn();
        }
        #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
        Backend::Fiber(rt) => {
            drop(k);
            rt.yield_to_engine(my_cell.fiber());
        }
    }
}

/// Core scheduling choice: apply due events, then pick a runnable task.
///
/// The pick is always the min-clock runnable node's front task (strict
/// conservative order — exactly PR 2's policy, so schedules are
/// bit-identical across substrate changes).
///
/// Event application and the pick both happen under the one kernel lock
/// acquisition of the caller. Events are always applied in (time, seq) heap
/// order; the policy only decides *how far* to drain before running a task.
///
/// With a [`ScheduleOracle`] installed, the two don't-care choices inside
/// the loop — which tied head-time event to apply, which clock-tied node to
/// run — are delegated to it (see the [`explore`](crate::explore) module).
/// The oracle is temporarily moved out of the kernel so it can be consulted
/// while kernel methods take `&mut self`.
fn decide(k: &mut Kernel) -> Decision {
    if k.oracle.is_some() {
        let mut oracle = k.oracle.take().expect("oracle vanished");
        let d = decide_inner(k, Some(&mut *oracle));
        k.oracle = Some(oracle);
        return d;
    }
    decide_inner(k, None)
}

fn decide_inner(k: &mut Kernel, mut oracle: Option<&mut dyn ScheduleOracle>) -> Decision {
    loop {
        let chosen = k.peek_min_runnable();
        let due = match (chosen, k.events.peek()) {
            (Some((_, c)), Some(e)) => e.time <= c,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if due {
            match oracle.as_deref_mut() {
                Some(o) => k.apply_next_event_choice(o),
                None => k.apply_next_event(),
            }
            continue;
        }
        match chosen {
            Some((node, clock)) => {
                let node = match oracle.as_deref_mut() {
                    Some(o) => k.choose_tied_node(node, clock, o),
                    None => node,
                };
                let tid = k.pop_ready_front(node).expect("ready queue emptied");
                debug_assert_eq!(k.tasks[tid.idx()].state, TaskState::Runnable);
                k.tasks[tid.idx()].state = TaskState::Running;
                k.emit(node, tid, TraceEvent::TaskSwitch);
                let cell = Arc::clone(&k.tasks[tid.idx()].cell);
                return Decision::Run(tid, cell);
            }
            None => return Decision::Idle,
        }
    }
}

/// Capture a [`Snapshot`] of all node clocks/stats. Exposed through
/// [`Ctx::snapshot`]; callers should quiesce (e.g. barrier) first so the
/// snapshot is meaningful.
pub(crate) fn snapshot(inner: &SimInner) -> Snapshot {
    let k = inner.lock_kernel();
    let metrics = k.metrics.clone();
    drop(k);
    Snapshot {
        clocks: inner.shards.iter().map(|s| s.clock.load(Relaxed)).collect(),
        stats: inner
            .shards
            .iter()
            .map(|s| s.lock_data().stats.clone())
            .collect(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "serde")]
    #[test]
    fn sim_config_serde_round_trips() {
        use serde::{Deserialize, Serialize};
        let cfg = SimConfig {
            nodes: 7,
            cost: CostModel::default().with_metrics(),
            trace: Some(crate::TraceConfig { capacity: 512 }),
            metrics: true,
            backend: BackendKind::Threads,
        };
        let v = cfg.to_value();
        let back = SimConfig::from_value(&v).expect("SimConfig round-trips");
        assert_eq!(back.nodes, cfg.nodes);
        assert_eq!(back.cost, cfg.cost);
        assert_eq!(back.trace, cfg.trace);
        assert_eq!(back.metrics, cfg.metrics);
        assert_eq!(back.backend, cfg.backend);

        // Defaults survive too (trace: None, backend: Auto).
        let d = SimConfig::default();
        let back = SimConfig::from_value(&d.to_value()).expect("default round-trips");
        assert_eq!(back.nodes, 1);
        assert_eq!(back.trace, None);
        assert_eq!(back.backend, BackendKind::Auto);
    }

    #[test]
    fn backend_env_parsing_is_strict() {
        assert_eq!(parse_backend_env(None), Ok(BackendKind::Auto));
        assert_eq!(parse_backend_env(Some("threads")), Ok(BackendKind::Threads));
        assert_eq!(parse_backend_env(Some("fibers")), Ok(BackendKind::Fibers));
        for bad in ["", "fiber", "thread", "Threads", "FIBERS", "bogus"] {
            let err = parse_backend_env(Some(bad)).expect_err(bad);
            assert!(err.contains("not a recognized backend"), "{err}");
            assert!(err.contains("threads") && err.contains("fibers"), "{err}");
        }
    }
}
