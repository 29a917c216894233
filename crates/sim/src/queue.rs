//! Batch-queue model.
//!
//! §VI.C: "Since running on compute nodes does use allocation hours … We
//! found that both FEAM's source and target phases always took less than
//! five minutes to complete. This makes FEAM ideal for submission via a
//! debug queue at sites." This module gives that claim a mechanical
//! backing: sites expose batch queues with walltime limits and queue-depth
//! dependent wait times; jobs that exceed a queue's walltime are killed.

use crate::rng;
use serde::Serialize;

/// One batch queue at a site (PBS/SGE/SLURM-style).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueueSpec {
    /// Queue name, e.g. `debug` or `normal`.
    pub name: String,
    /// Maximum walltime per job, in seconds.
    pub max_walltime: f64,
    /// Typical queue wait in seconds when the system is idle.
    pub base_wait: f64,
    /// Additional wait per unit of load (seeded per submission).
    pub max_extra_wait: f64,
    /// Maximum processes a job may request.
    pub max_procs: u32,
}

impl QueueSpec {
    /// The standard debug queue of the paper's era: 30-minute walltime,
    /// short waits, few nodes.
    pub fn debug() -> Self {
        QueueSpec {
            name: "debug".into(),
            max_walltime: 30.0 * 60.0,
            base_wait: 30.0,
            max_extra_wait: 240.0,
            max_procs: 64,
        }
    }

    /// The production queue: long walltime, long waits.
    pub fn normal() -> Self {
        QueueSpec {
            name: "normal".into(),
            max_walltime: 24.0 * 3600.0,
            base_wait: 1800.0,
            max_extra_wait: 6.0 * 3600.0,
            max_procs: 4096,
        }
    }
}

/// The outcome of pushing a job through a queue.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum QueueOutcome {
    /// Ran to completion.
    Completed {
        /// Seconds spent waiting in the queue.
        wait_seconds: f64,
        /// Seconds the job ran.
        run_seconds: f64,
    },
    /// Killed at the walltime limit.
    WalltimeExceeded { limit: f64 },
    /// Rejected at submission (too many processes requested).
    Rejected { reason: String },
}

impl QueueOutcome {
    /// Did the job finish?
    pub fn completed(&self) -> bool {
        matches!(self, QueueOutcome::Completed { .. })
    }

    /// Total turnaround (wait + run) for completed jobs.
    pub fn turnaround(&self) -> Option<f64> {
        match self {
            QueueOutcome::Completed {
                wait_seconds,
                run_seconds,
            } => Some(wait_seconds + run_seconds),
            _ => None,
        }
    }
}

/// Submit a job needing `cpu_seconds` of work on `nprocs` processes.
/// `seed`/`job_id` make the queue wait deterministic per submission.
pub fn submit(
    queue: &QueueSpec,
    job_id: &str,
    nprocs: u32,
    cpu_seconds: f64,
    seed: u64,
) -> QueueOutcome {
    if nprocs > queue.max_procs {
        return QueueOutcome::Rejected {
            reason: format!(
                "{} procs requested, queue {} allows {}",
                nprocs, queue.name, queue.max_procs
            ),
        };
    }
    // Wall time of the job itself: CPU work spread over the ranks, plus a
    // fixed launch overhead.
    let run_seconds = cpu_seconds / nprocs.max(1) as f64 + 5.0;
    if run_seconds > queue.max_walltime {
        return QueueOutcome::WalltimeExceeded {
            limit: queue.max_walltime,
        };
    }
    let u = rng::unit_f64(rng::hash_parts(seed, &[job_id, &queue.name, "wait"]));
    let wait_seconds = queue.base_wait + u * queue.max_extra_wait;
    QueueOutcome::Completed {
        wait_seconds,
        run_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feam_phases_fit_the_debug_queue() {
        // §VI.C's punchline: a FEAM phase (< 5 simulated minutes of CPU)
        // completes comfortably within the 30-minute debug walltime.
        let debug = QueueSpec::debug();
        let out = submit(&debug, "feam-target-phase", 4, 51.0, 1);
        assert!(out.completed(), "{out:?}");
        let turnaround = out.turnaround().unwrap();
        assert!(turnaround < debug.max_walltime, "turnaround {turnaround}");
    }

    #[test]
    fn long_benchmark_run_needs_the_normal_queue() {
        // A production-size benchmark run blows the debug walltime.
        let debug = QueueSpec::debug();
        let heavy_cpu = 16.0 * 3600.0 * 4.0; // 16 node-hours on 4 ranks
        assert!(matches!(
            submit(&debug, "milc-production", 4, heavy_cpu, 1),
            QueueOutcome::WalltimeExceeded { .. }
        ));
        let normal = QueueSpec::normal();
        assert!(submit(&normal, "milc-production", 4, heavy_cpu, 1).completed());
    }

    #[test]
    fn debug_queue_turnaround_beats_normal_queue() {
        // The whole point of the debug queue: shorter waits.
        let debug = QueueSpec::debug();
        let normal = QueueSpec::normal();
        let mut debug_total = 0.0;
        let mut normal_total = 0.0;
        for i in 0..50 {
            let id = format!("job{i}");
            debug_total += submit(&debug, &id, 4, 60.0, 7).turnaround().unwrap();
            normal_total += submit(&normal, &id, 4, 60.0, 7).turnaround().unwrap();
        }
        assert!(debug_total < normal_total / 4.0);
    }

    #[test]
    fn oversized_job_rejected() {
        let debug = QueueSpec::debug();
        assert!(matches!(
            submit(&debug, "wide", 1024, 10.0, 1),
            QueueOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn wait_times_deterministic_per_submission() {
        let q = QueueSpec::debug();
        let a = submit(&q, "same-job", 4, 10.0, 9);
        let b = submit(&q, "same-job", 4, 10.0, 9);
        assert_eq!(a, b);
        let c = submit(&q, "other-job", 4, 10.0, 9);
        assert_ne!(a, c, "different jobs draw different waits");
    }
}
