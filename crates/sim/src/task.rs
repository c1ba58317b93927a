//! Green-thread execution machinery.
//!
//! Simulated tasks must be *stackful*: application code written against the
//! runtimes blocks in the middle of ordinary Rust call stacks (a remote read
//! deep inside an inner loop parks the task until the reply arrives). We get
//! real stacks by running every task body on an OS thread, but we keep the
//! simulation deterministic with a strict handoff protocol: at any instant
//! exactly one of {engine, one task} is executing. OS threads are pooled and
//! reused across tasks, so spawning a simulated thread does not pay OS-thread
//! creation after warm-up.
//!
//! Scheduling decisions run on whichever OS thread holds the baton. A task
//! reaching a blocking point picks the next task itself (under the kernel
//! lock) and resumes it directly via its [`HandoffCell`] — one OS wakeup per
//! simulated context switch instead of a round trip through the engine
//! thread. The engine thread only bootstraps the run and parks on the
//! [`EngineGate`] until a task wakes it for termination, deadlock diagnosis,
//! or panic propagation.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Identifier of a simulated task. Dense indices into the kernel task table;
/// never reused within one simulation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Per-task baton context, one variant per execution backend. A simulation
/// uses exactly one backend for all its tasks (chosen at `Sim::run`), so a
/// cell handed to the wrong backend is a logic error and panics.
pub(crate) enum TaskCell {
    /// OS-thread backend: condvar handoff cell.
    Threads(HandoffCell),
    /// Userspace-fiber backend: saved stack pointer + owned stack.
    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    Fiber(crate::fiber::FiberCell),
}

impl TaskCell {
    pub(crate) fn thread(&self) -> &HandoffCell {
        match self {
            TaskCell::Threads(c) => c,
            #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
            TaskCell::Fiber(_) => panic!("fiber cell used by the threads backend"),
        }
    }

    #[cfg(all(target_arch = "x86_64", unix, not(mpmd_no_fibers)))]
    pub(crate) fn fiber(&self) -> &crate::fiber::FiberCell {
        match self {
            TaskCell::Fiber(c) => c,
            TaskCell::Threads(_) => panic!("threads cell used by the fiber backend"),
        }
    }
}

/// Whose turn it is to run on a given task's handoff cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Turn {
    Engine,
    Task,
}

/// One-at-a-time baton between the engine thread and a task's OS thread.
pub(crate) struct HandoffCell {
    turn: Mutex<Turn>,
    cv: Condvar,
}

impl HandoffCell {
    pub(crate) fn new() -> Self {
        HandoffCell {
            turn: Mutex::new(Turn::Engine),
            cv: Condvar::new(),
        }
    }

    /// Hand the baton to the task parked on this cell. Does not block; called
    /// by the engine (bootstrap) or by another task handing off directly.
    pub(crate) fn resume_task(&self) {
        let mut t = self.turn.lock();
        debug_assert_eq!(*t, Turn::Engine, "resumed a running task");
        *t = Turn::Task;
        self.cv.notify_all();
    }

    /// Task side: mark the baton as having left this task. Must happen
    /// *before* resuming the successor, so a handoff chain that circles back
    /// can legally resume us before we reach [`HandoffCell::wait_for_turn`]
    /// (the wakeup is latched in `turn`, not lost).
    pub(crate) fn begin_yield(&self) {
        let mut t = self.turn.lock();
        debug_assert_eq!(*t, Turn::Task);
        *t = Turn::Engine;
    }

    /// Task side: block until someone hands us the baton.
    pub(crate) fn wait_for_turn(&self) {
        let mut t = self.turn.lock();
        while *t == Turn::Engine {
            self.cv.wait(&mut t);
        }
    }
}

/// Where the engine thread parks while tasks hand the baton among
/// themselves. A task wakes the engine only when the simulation cannot
/// continue on task threads: everything finished, nothing runnable
/// (deadlock), or a captured panic to propagate.
pub(crate) struct EngineGate {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl EngineGate {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(EngineGate {
            woken: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    /// Wake the engine (latched: a wake that races ahead of
    /// [`EngineGate::sleep`] is not lost).
    pub(crate) fn wake(&self) {
        *self.woken.lock() = true;
        self.cv.notify_all();
    }

    /// Engine side: block until the next wake, then clear it.
    pub(crate) fn sleep(&self) {
        let mut w = self.woken.lock();
        while !*w {
            self.cv.wait(&mut w);
        }
        *w = false;
    }
}

/// Final baton movement of a finished task, returned by the job body and
/// performed by the worker. The body does all kernel bookkeeping and *picks*
/// the successor, but the worker performs the actual wakeup after marking
/// itself idle — so the resumed task can immediately reuse this OS thread
/// for a fresh spawn instead of creating a new one.
pub(crate) enum Handoff {
    /// Hand the baton to this task.
    Resume(Arc<TaskCell>),
    /// Nothing runnable (or a panic to propagate): wake the engine.
    WakeGate,
}

/// A unit of work shipped to a pool worker: the task's handoff cell plus its
/// body. The body performs all kernel bookkeeping itself (including marking
/// the task finished and choosing the hand-off target); the worker only
/// drives the handoff protocol. `gate` is also the backstop wake target
/// should the body itself panic through (then nobody else will ever wake the
/// engine).
pub(crate) struct Job {
    pub(crate) cell: Arc<TaskCell>,
    pub(crate) body: Box<dyn FnOnce() -> Handoff + Send>,
    pub(crate) gate: Arc<EngineGate>,
}

enum WorkerCmd {
    Run(Job),
    Shutdown,
}

struct WorkerSlot {
    cmd: Mutex<Option<WorkerCmd>>,
    cv: Condvar,
    /// True from dispatch until the hosted task body has fully completed.
    busy: AtomicBool,
}

struct Worker {
    slot: Arc<WorkerSlot>,
    handle: Option<thread::JoinHandle<()>>,
}

/// Pool of reusable OS threads that host task bodies.
pub(crate) struct TaskPool {
    workers: Mutex<Vec<Worker>>,
}

impl TaskPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TaskPool {
            workers: Mutex::new(Vec::new()),
        })
    }

    /// Hand a job to an idle worker, or spawn a new worker. Returns
    /// immediately; the task does not run until the engine hands it the baton
    /// via `job.cell`.
    pub(crate) fn dispatch(&self, job: Job) {
        let workers = self.workers.lock();
        for w in workers.iter() {
            if !w.slot.busy.load(Ordering::Acquire) {
                // A non-busy worker is parked waiting for a command (or about
                // to be); its cmd slot is empty.
                w.slot.busy.store(true, Ordering::Release);
                let mut cmd = w.slot.cmd.lock();
                debug_assert!(cmd.is_none(), "idle worker had a pending command");
                *cmd = Some(WorkerCmd::Run(job));
                w.slot.cv.notify_all();
                return;
            }
        }
        drop(workers);
        let slot = Arc::new(WorkerSlot {
            cmd: Mutex::new(Some(WorkerCmd::Run(job))),
            cv: Condvar::new(),
            busy: AtomicBool::new(true),
        });
        let slot2 = Arc::clone(&slot);
        let handle = thread::Builder::new()
            .name("mpmd-sim-worker".into())
            .spawn(move || worker_loop(slot2))
            .expect("failed to spawn simulator worker thread");
        self.workers.lock().push(Worker {
            slot,
            handle: Some(handle),
        });
    }

    #[cfg(test)]
    fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *self.workers.lock());
        // Queue a shutdown for every worker whose command slot is free. A
        // worker whose slot still holds an untaken Run job gets none: it may
        // yet take the job, finish it and wait for a command nobody sends.
        let stopping: Vec<Worker> = workers
            .into_iter()
            .filter(|w| {
                let mut cmd = w.slot.cmd.lock();
                let free = cmd.is_none();
                if free {
                    *cmd = Some(WorkerCmd::Shutdown);
                    w.slot.cv.notify_all();
                }
                free
            })
            .collect();
        // Join exactly the workers that were sent Shutdown and are idle:
        // they take it and exit. The rest are detached — a worker still
        // hosting a live parked task (possible only if the simulation
        // aborted by panic) never returns, and a just-finishing one exits
        // on the queued Shutdown by itself.
        for mut w in stopping {
            if !w.slot.busy.load(Ordering::Acquire) {
                if let Some(h) = w.handle.take() {
                    let _ = h.join();
                }
            }
        }
    }
}

fn worker_loop(slot: Arc<WorkerSlot>) {
    loop {
        let cmd = {
            let mut guard = slot.cmd.lock();
            loop {
                if let Some(c) = guard.take() {
                    break c;
                }
                slot.cv.wait(&mut guard);
            }
        };
        match cmd {
            WorkerCmd::Shutdown => return,
            WorkerCmd::Run(job) => {
                job.cell.thread().wait_for_turn();
                // The body is responsible for all kernel bookkeeping,
                // including panic capture and picking the hand-off target.
                // `catch_unwind` is a backstop so a worker never dies holding
                // the baton; if the body's own bookkeeping panicked through,
                // wake the engine so the run surfaces as a diagnosable
                // deadlock instead of a hang. Mark the worker idle *before*
                // waking anyone: the resumed task runs immediately on a
                // single-CPU box, and any task it spawns should find this
                // thread reusable rather than growing the pool.
                let handoff = catch_unwind(AssertUnwindSafe(job.body));
                slot.busy.store(false, Ordering::Release);
                match handoff {
                    Ok(Handoff::Resume(cell)) => cell.thread().resume_task(),
                    Ok(Handoff::WakeGate) | Err(_) => job.gate.wake(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn handoff_round_trip() {
        let cell = Arc::new(HandoffCell::new());
        let gate = EngineGate::new();
        let (c2, g2) = (Arc::clone(&cell), Arc::clone(&gate));
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let t = thread::spawn(move || {
            c2.wait_for_turn();
            h2.fetch_add(1, Ordering::SeqCst);
            c2.begin_yield();
            g2.wake();
            c2.wait_for_turn();
            h2.fetch_add(1, Ordering::SeqCst);
            g2.wake();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        cell.resume_task();
        gate.sleep();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        cell.resume_task();
        gate.sleep();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        t.join().unwrap();
    }

    #[test]
    fn handoff_wakeup_is_latched() {
        // A resume that lands before the task reaches wait_for_turn must not
        // be lost — this is what lets a handoff chain circle back to a task
        // that has begun yielding but not yet parked.
        let cell = HandoffCell::new();
        cell.resume_task();
        cell.wait_for_turn(); // returns immediately
        cell.begin_yield();
        cell.resume_task();
        cell.wait_for_turn(); // returns immediately again
    }

    fn idle_job(cell: &Arc<TaskCell>, gate: &Arc<EngineGate>) -> Job {
        Job {
            cell: Arc::clone(cell),
            body: Box::new(|| Handoff::WakeGate),
            gate: Arc::clone(gate),
        }
    }

    #[test]
    fn pool_reuses_workers_for_sequential_jobs() {
        let pool = TaskPool::new();
        let gate = EngineGate::new();
        for _ in 0..16 {
            let cell = Arc::new(TaskCell::Threads(HandoffCell::new()));
            pool.dispatch(idle_job(&cell, &gate));
            cell.thread().resume_task();
            // Give the worker a moment to mark itself idle so the next
            // dispatch can reuse it.
            for _ in 0..1000 {
                if pool
                    .workers
                    .lock()
                    .iter()
                    .any(|w| !w.slot.busy.load(Ordering::Acquire))
                {
                    break;
                }
                thread::sleep(Duration::from_micros(50));
            }
        }
        assert!(
            pool.worker_count() <= 2,
            "expected worker reuse, got {} workers",
            pool.worker_count()
        );
    }

    #[test]
    fn pool_handles_concurrent_jobs() {
        let pool = TaskPool::new();
        let gate = EngineGate::new();
        let mut cells = Vec::new();
        for _ in 0..8 {
            let cell = Arc::new(TaskCell::Threads(HandoffCell::new()));
            pool.dispatch(idle_job(&cell, &gate));
            cells.push(cell);
        }
        for c in cells {
            c.thread().resume_task();
        }
        assert_eq!(pool.worker_count(), 8);
    }

    #[test]
    fn drop_after_concurrent_jobs_never_hangs() {
        // Regression: Drop used to skip a worker whose slot still held its
        // untaken Run job, and then join it once the job had run, although
        // that worker was never sent Shutdown. A watchdog turns such a hang
        // into a failure.
        let done = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&done);
        let rounds = thread::spawn(move || {
            for _ in 0..200 {
                let pool = TaskPool::new();
                let gate = EngineGate::new();
                let mut cells = Vec::new();
                for _ in 0..8 {
                    let cell = Arc::new(TaskCell::Threads(HandoffCell::new()));
                    pool.dispatch(idle_job(&cell, &gate));
                    cells.push(cell);
                }
                for c in cells {
                    c.thread().resume_task();
                }
                drop(pool);
            }
            d2.store(true, Ordering::Release);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done.load(Ordering::Acquire) {
            assert!(
                std::time::Instant::now() < deadline,
                "TaskPool::drop hung: 200 dispatch/resume/drop rounds took over 10 s"
            );
            thread::sleep(Duration::from_millis(5));
        }
        rounds.join().unwrap();
    }

    #[test]
    fn worker_panic_wakes_the_gate() {
        let pool = TaskPool::new();
        let gate = EngineGate::new();
        let cell = Arc::new(TaskCell::Threads(HandoffCell::new()));
        pool.dispatch(Job {
            cell: Arc::clone(&cell),
            body: Box::new(|| panic!("task body panicked")),
            gate: Arc::clone(&gate),
        });
        cell.thread().resume_task();
        // The backstop must wake the gate even though the body panicked.
        gate.sleep();
    }
}
