//! Background flush/merge scheduling and ingest backpressure.
//!
//! The dataset's mutable tree state is published as an immutable,
//! atomically-swapped [`TreeState`](crate::snapshot) snapshot; the
//! [`Scheduler`] is the small piece of per-dataset shared control state that
//! coordinates *who* advances that tree:
//!
//! * the **writer** seals the active memtable when it exceeds its budget,
//!   publishes the tree's sealed count ([`Scheduler::set_sealed`], which a
//!   flush calls too) and queues a flush round on the worker pool (see
//!   [`pool`](crate::pool));
//! * the **pool workers** execute the dataset's queued flush/merge rounds;
//!   the scheduler counts how many rounds are queued and running
//!   ([`Scheduler::task_enqueued`] / [`Scheduler::begin_work`] /
//!   [`Scheduler::work_done`]) so draining and shutdown know when the
//!   dataset is quiescent;
//! * **backpressure**: when `max_sealed_memtables` sealed memtables are
//!   already waiting, [`Scheduler::admit`] blocks the writer until a flush
//!   retires one, bounding memory instead of letting ingest outrun the disk;
//! * **draining**: an explicit `flush()` queues a round and waits until no
//!   sealed memtable remains and no round is queued or running.
//!
//! A failure on a pool worker (I/O error, injected crash point) is parked
//! in the scheduler: the next `admit`/`drain` surfaces it to the caller,
//! exactly where a synchronous flush would have returned it. `drain`
//! *consumes* the failure so the caller can retry (recovery tests re-run a
//! flush after an injected crash).

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::LsmError;

/// Shared writer/worker control state.
#[derive(Default)]
struct Ctrl {
    /// Sealed memtables awaiting flush.
    sealed_count: usize,
    /// Background rounds submitted to the pool and not yet started.
    queued: usize,
    /// Background rounds currently running on pool workers.
    busy: usize,
    /// The dataset is shutting down; queued rounds become no-ops.
    shutdown: bool,
    /// A background flush/merge failed; surfaced on the next admit/drain.
    failed: Option<LsmError>,
}

/// A point-in-time, non-consuming view of the scheduler's control state
/// (see [`Scheduler::status`]).
pub(crate) struct SchedulerStatus {
    /// At least one background round is running on a pool worker.
    pub(crate) busy: bool,
    /// At least one background round is queued and not yet picked up.
    pub(crate) pending: bool,
    /// Sealed memtables awaiting flush.
    pub(crate) sealed_count: usize,
    /// A parked background failure (not consumed by reading it here).
    pub(crate) failed: Option<LsmError>,
}

/// Coordination between the ingest path and the background worker pool.
pub(crate) struct Scheduler {
    ctrl: Mutex<Ctrl>,
    /// Writers (backpressure), drainers and shutdown wait here for progress.
    done_cv: Condvar,
}

impl Scheduler {
    pub(crate) fn new() -> Scheduler {
        Scheduler {
            ctrl: Mutex::new(Ctrl::default()),
            done_cv: Condvar::new(),
        }
    }

    /// Backpressure gate, called by writers *before* taking the write lock:
    /// blocks while `max_sealed` sealed memtables are already queued.
    /// Surfaces (without consuming) a parked background failure. Returns how
    /// long the writer stalled, if it had to wait at all — the caller
    /// records it as backpressure stall time.
    pub(crate) fn admit(&self, max_sealed: usize) -> Result<Option<Duration>, LsmError> {
        let mut ctrl = self.ctrl.lock().unwrap();
        let mut stalled_since: Option<Instant> = None;
        loop {
            if let Some(err) = &ctrl.failed {
                return Err(err.clone());
            }
            if ctrl.sealed_count < max_sealed.max(1) {
                return Ok(stalled_since.map(|s| s.elapsed()));
            }
            stalled_since.get_or_insert_with(Instant::now);
            ctrl = self.done_cv.wait(ctrl).unwrap();
        }
    }

    /// Publish how many sealed memtables the tree holds, and wake
    /// backpressure waiters and drainers. Called under the tree's write
    /// lock by whoever changes that number (seal and flush), so the count
    /// is the tree's and no seal can be counted after its flush. Lock order
    /// is tree, then scheduler; the scheduler never takes the tree lock.
    pub(crate) fn set_sealed(&self, sealed: usize) {
        self.ctrl.lock().unwrap().sealed_count = sealed;
        self.done_cv.notify_all();
    }

    /// Sealed memtables currently queued.
    pub(crate) fn sealed_count(&self) -> usize {
        self.ctrl.lock().unwrap().sealed_count
    }

    /// Non-consuming view of the control state for health reporting: the
    /// parked failure (if any) stays parked, so reading health never races a
    /// writer out of observing the error.
    pub(crate) fn status(&self) -> SchedulerStatus {
        let ctrl = self.ctrl.lock().unwrap();
        SchedulerStatus {
            busy: ctrl.busy > 0,
            pending: ctrl.queued > 0,
            sealed_count: ctrl.sealed_count,
            failed: ctrl.failed.clone(),
        }
    }

    /// A background round was submitted to the pool. Call *before* the
    /// submission so a fast worker can never decrement the count first.
    pub(crate) fn task_enqueued(&self) {
        self.ctrl.lock().unwrap().queued += 1;
    }

    /// The pool refused the submission (it has shut down): undo the
    /// accounting of the matching [`Scheduler::task_enqueued`].
    pub(crate) fn task_rejected(&self) {
        let mut ctrl = self.ctrl.lock().unwrap();
        ctrl.queued = ctrl.queued.saturating_sub(1);
        self.done_cv.notify_all();
    }

    /// Worker side: a queued round is starting. Returns `false` (and drops
    /// the round) when the dataset is shutting down.
    pub(crate) fn begin_work(&self) -> bool {
        let mut ctrl = self.ctrl.lock().unwrap();
        ctrl.queued = ctrl.queued.saturating_sub(1);
        if ctrl.shutdown {
            self.done_cv.notify_all();
            return false;
        }
        ctrl.busy += 1;
        true
    }

    /// Worker side: report the outcome of one background round.
    pub(crate) fn work_done(&self, result: Result<(), LsmError>) {
        let mut ctrl = self.ctrl.lock().unwrap();
        ctrl.busy = ctrl.busy.saturating_sub(1);
        if let Err(err) = result {
            ctrl.failed = Some(err);
        }
        self.done_cv.notify_all();
    }

    /// Wait until every sealed memtable is flushed and no background round
    /// is queued or running. The caller queues a round first, so parked
    /// failures are retried. Consumes and returns a parked failure, so a
    /// subsequent drain retries the work.
    pub(crate) fn drain(&self) -> Result<(), LsmError> {
        let mut ctrl = self.ctrl.lock().unwrap();
        loop {
            if let Some(err) = ctrl.failed.take() {
                return Err(err);
            }
            if ctrl.sealed_count == 0 && ctrl.queued == 0 && ctrl.busy == 0 {
                return Ok(());
            }
            ctrl = self.done_cv.wait(ctrl).unwrap();
        }
    }

    /// Mark the dataset as shutting down: queued rounds become no-ops
    /// (their `begin_work` returns `false`). Idempotent.
    pub(crate) fn shutdown(&self) {
        self.ctrl.lock().unwrap().shutdown = true;
        self.done_cv.notify_all();
    }

    /// Wait until no background round is queued or running — the dataset
    /// quiescence gate `Drop` needs before releasing shared resources.
    /// Ignores sealed memtables (under shutdown they will never flush) and
    /// parked failures (nobody is left to retry them).
    pub(crate) fn wait_idle(&self) {
        let mut ctrl = self.ctrl.lock().unwrap();
        while ctrl.queued > 0 || ctrl.busy > 0 {
            ctrl = self.done_cv.wait(ctrl).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admit_blocks_until_flush_and_surfaces_failures() {
        let sched = Arc::new(Scheduler::new());
        sched.set_sealed(2);
        let t = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.admit(2))
        };
        // Unblock the writer by "flushing" one sealed memtable.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.set_sealed(1);
        let stalled = t.join().unwrap().unwrap();
        assert!(stalled.is_some(), "the blocked admit must report its stall");

        // A background round fails: the error parks.
        sched.task_enqueued();
        assert!(sched.begin_work());
        sched.work_done(Err(LsmError::new("boom")));
        // status() surfaces the parked failure without consuming it.
        assert!(sched.status().failed.is_some());
        assert!(sched.admit(2).is_err(), "parked failure must surface");
        assert!(sched.status().failed.is_some(), "admit must not consume it");
        assert!(sched.drain().is_err(), "drain consumes the failure");
        assert!(sched.status().failed.is_none());
        // After drain consumed it, admit passes again (one slot free).
        sched.set_sealed(1);
        let stalled = sched.admit(2).unwrap();
        assert!(stalled.is_none(), "an unblocked admit reports no stall");
    }

    #[test]
    fn drain_waits_for_queued_and_running_rounds() {
        let sched = Arc::new(Scheduler::new());
        sched.set_sealed(1);
        sched.task_enqueued();
        assert!(sched.status().pending);
        // A simulated pool worker: picks up the round, "flushes", reports.
        let worker = {
            let sched = sched.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                assert!(sched.begin_work());
                std::thread::sleep(std::time::Duration::from_millis(5));
                sched.set_sealed(0);
                sched.work_done(Ok(()));
            })
        };
        sched.drain().unwrap();
        assert_eq!(sched.sealed_count(), 0);
        assert!(!sched.status().busy);
        worker.join().unwrap();
    }

    #[test]
    fn shutdown_makes_queued_rounds_noops_and_wait_idle_settles() {
        let sched = Scheduler::new();
        sched.task_enqueued();
        sched.task_enqueued();
        sched.shutdown();
        // Both queued rounds are dropped by their begin_work.
        assert!(!sched.begin_work());
        assert!(!sched.begin_work());
        sched.wait_idle();
        assert!(!sched.status().busy);
        assert!(!sched.status().pending);
    }
}
