//! The crate's one executor and only thread spawner: a FIFO of boxed tasks
//! drained by N `feam-svc-<i>` threads. A `PredictService` owns one; a
//! `Fleet` shares one across every node's evaluations (its replication
//! installs run on the answering caller, not here). Tasks pushed before
//! [`Pool::start`] wait.
//!
//! Every task is queued with [`push_deferred`](Pool::push_deferred) and
//! gets an id. The thread that waits for it may [`take`](Pool::take) it
//! back and run it there, so a lone closed-loop read costs no thread wake.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Queue {
    /// Tasks in push order, so their ids ascend front to back.
    tasks: VecDeque<(u64, Task)>,
    next_id: u64,
    closing: bool,
}

/// The queue lock is a leaf: no other lock is taken while it is held, and
/// no task runs under it.
#[derive(Default)]
pub(crate) struct Pool {
    queue: Mutex<Queue>,
    available: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawn `n` threads (at least one); a started pool keeps its threads.
    pub(crate) fn start(self: &Arc<Self>, n: usize) {
        let mut threads = self.threads.lock().expect("pool threads");
        if !threads.is_empty() {
            return;
        }
        for i in 0..n.max(1) {
            let pool = self.clone();
            let thread = std::thread::Builder::new()
                .name(format!("feam-svc-{i}"))
                .spawn(move || pool.run());
            threads.push(thread.expect("spawn pool thread"));
        }
    }

    /// Queue `task` without waking a thread for it unless the FIFO already
    /// held a task: a fan-out still gets pool threads, while a lone task
    /// waits for its owner to [`take`](Pool::take) it or
    /// [`wake`](Pool::wake) the pool. Busy threads find it when they loop.
    pub(crate) fn push_deferred(&self, task: impl FnOnce() + Send + 'static) -> u64 {
        let mut queue = self.queue.lock().expect("pool queue");
        let backlog = !queue.tasks.is_empty();
        let id = queue.next_id;
        queue.next_id += 1;
        queue.tasks.push_back((id, Box::new(task)));
        drop(queue);
        if backlog {
            self.available.notify_one();
        }
        id
    }

    /// Remove task `id` if no thread has dequeued it yet.
    pub(crate) fn take(&self, id: u64) -> Option<Task> {
        let mut queue = self.queue.lock().expect("pool queue");
        let at = queue.tasks.binary_search_by_key(&id, |(id, _)| *id).ok()?;
        queue.tasks.remove(at).map(|(_, task)| task)
    }

    /// Wake one idle thread, if any, to drain the FIFO.
    pub(crate) fn wake(&self) {
        self.available.notify_one();
    }

    /// Let the threads drain the FIFO, then join them. Idempotent. Must
    /// not run on one of this pool's threads, which would join itself.
    pub(crate) fn shutdown(&self) {
        // No task runs under either lock, so both stay valid after a panic.
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closing = true;
        self.available.notify_all();
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        for thread in threads {
            // A panicking task takes down only its own thread.
            let _ = thread.join();
        }
    }

    /// One pool thread: run tasks in order until closing finds none left.
    fn run(&self) {
        loop {
            let mut queue = self.queue.lock().expect("pool queue");
            while queue.tasks.is_empty() && !queue.closing {
                queue = self.available.wait(queue).expect("pool queue wait");
            }
            let Some((_, task)) = queue.tasks.pop_front() else {
                return;
            };
            drop(queue);
            task();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A task that reports the name of the thread it ran on.
    fn reporter(tx: &mpsc::Sender<String>) -> impl FnOnce() + Send + 'static {
        let tx = tx.clone();
        move || {
            let name = std::thread::current().name().unwrap_or("").to_string();
            let _ = tx.send(name);
        }
    }

    /// Wait until the pool's one thread is parked on an empty FIFO.
    fn settle(pool: &Arc<Pool>) {
        let (tx, rx) = mpsc::channel();
        pool.push_deferred(reporter(&tx));
        pool.wake();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("a started pool runs a pushed task");
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn ids_ascend_along_the_fifo() {
        let pool = Pool::default();
        let ids: Vec<u64> = (0..3).map(|_| pool.push_deferred(|| {})).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        let queue = pool.queue.lock().unwrap();
        let queued: Vec<u64> = queue.tasks.iter().map(|(id, _)| *id).collect();
        assert_eq!(queued, ids);
    }

    #[test]
    fn take_removes_a_queued_task_once() {
        let pool = Pool::default();
        let (tx, rx) = mpsc::channel();
        let first = pool.push_deferred(reporter(&tx));
        let second = pool.push_deferred(reporter(&tx));
        let task = pool
            .take(second)
            .expect("an unstarted pool dequeues nothing");
        assert!(pool.take(second).is_none(), "a taken task is gone");
        task();
        let me = std::thread::current().name().unwrap_or("").to_string();
        assert_eq!(rx.try_recv(), Ok(me), "ran on the taker");
        let queue = pool.queue.lock().unwrap();
        let left: Vec<u64> = queue.tasks.iter().map(|(id, _)| *id).collect();
        assert_eq!(left, [first], "only the taken task left the FIFO");
    }

    #[test]
    fn take_misses_a_task_a_thread_dequeued() {
        let pool = Arc::new(Pool::default());
        let (tx, rx) = mpsc::channel();
        let id = pool.push_deferred(reporter(&tx));
        pool.start(1);
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).expect("drained");
        assert_eq!(ran_on, "feam-svc-0");
        assert!(pool.take(id).is_none());
        pool.shutdown();
    }

    #[test]
    fn a_lone_deferred_task_waits_for_wake() {
        let pool = Arc::new(Pool::default());
        pool.start(1);
        let (tx, rx) = mpsc::channel();
        let mut attempt = 0;
        let id = loop {
            settle(&pool);
            let id = pool.push_deferred(reporter(&tx));
            match rx.recv_timeout(Duration::from_millis(100)) {
                Err(_) => break id,
                // The thread had not parked yet and found the task itself.
                Ok(_) if attempt < 20 => attempt += 1,
                Ok(_) => panic!("a deferred push onto an empty FIFO wakes nobody"),
            }
        };
        pool.wake();
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).expect("woken");
        assert_eq!(ran_on, "feam-svc-0");
        assert!(pool.take(id).is_none());
        pool.shutdown();
    }

    #[test]
    fn a_deferred_push_onto_a_backlog_wakes_a_thread() {
        let pool = Arc::new(Pool::default());
        pool.start(1);
        settle(&pool);
        let (tx, rx) = mpsc::channel();
        pool.push_deferred(reporter(&tx));
        pool.push_deferred(reporter(&tx));
        for _ in 0..2 {
            let ran_on = rx.recv_timeout(Duration::from_secs(10)).expect("drained");
            assert_eq!(ran_on, "feam-svc-0");
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_deferred_tasks() {
        let pool = Arc::new(Pool::default());
        pool.start(1);
        settle(&pool);
        let (tx, rx) = mpsc::channel();
        pool.push_deferred(reporter(&tx));
        pool.shutdown();
        assert_eq!(rx.try_recv().as_deref(), Ok("feam-svc-0"));
    }
}
