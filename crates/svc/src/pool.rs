//! The crate's one executor and only thread spawner: a FIFO of boxed tasks
//! drained by N `feam-svc-<i>` threads. A `PredictService` owns one; a
//! `Fleet` shares one across every node's evaluations and every
//! replication install. Tasks pushed before [`Pool::start`] wait.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

#[derive(Default)]
struct Queue {
    tasks: VecDeque<Box<dyn FnOnce() + Send>>,
    closing: bool,
}

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

    pub(crate) fn push(&self, task: impl FnOnce() + Send + 'static) {
        let mut queue = self.queue.lock().expect("pool queue");
        queue.tasks.push_back(Box::new(task));
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
            let Some(task) = queue.tasks.pop_front() else {
                return;
            };
            drop(queue);
            task();
        }
    }
}
