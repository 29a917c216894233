//! Bounded retry with exponential backoff on the simulated clock.
//!
//! The paper worked around unpredictable site errors with "five execution
//! attempts spaced in time" (§VI.C). [`RetryPolicy`] generalizes that lone
//! counter into a uniform policy — bounded attempts plus exponential
//! backoff — applied to probe compiles, launches and queue submissions.
//! Backoff delays are charged to the session's simulated CPU clock, so the
//! "< 5 minutes per phase" statistic keeps honest under retries, and every
//! consumed retry emits a `retry_attempt` event on the session recorder.

use feam_sim::compile::{CompileError, CompiledBinary, ProgramSpec};
use feam_sim::exec::{run_mpi, ExecOutcome};
use feam_sim::site::{InstalledStack, Session};

/// Bounded attempts with exponential backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts (≥ 1); the paper's five.
    pub max_attempts: u32,
    /// Delay before the second attempt, in simulated seconds.
    pub base_delay_seconds: f64,
    /// Multiplier applied to the delay for each further attempt.
    pub multiplier: f64,
    /// Upper bound on a single delay.
    pub max_delay_seconds: f64,
    /// Jitter fraction in `[0, 1]`: each backoff delay is scaled by a
    /// deterministic per-key draw in `[1 - jitter, 1]`, so a fleet of
    /// clients backing off from the same incident spreads out instead of
    /// retrying in lockstep. `0.0` (the default) is the pure exponential
    /// schedule.
    pub jitter: f64,
    /// Seed for the jitter draws; the schedule is a pure function of
    /// `(jitter_seed, key, attempt)`, so a run replays exactly.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: feam_sim::exec::DEFAULT_ATTEMPTS,
            base_delay_seconds: 1.0,
            multiplier: 2.0,
            max_delay_seconds: 8.0,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` and the default backoff curve.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// This policy with seeded jitter enabled (fraction clamped to
    /// `[0, 1]`).
    pub fn with_jitter(self, jitter: f64, jitter_seed: u64) -> Self {
        RetryPolicy {
            jitter: jitter.clamp(0.0, 1.0),
            jitter_seed,
            ..self
        }
    }

    /// Backoff delay charged before `attempt` (1-based; the first attempt
    /// is free). This is the deterministic exponential envelope — the
    /// upper bound a jittered delay is drawn under.
    pub fn delay_before(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            return 0.0;
        }
        let exp = (attempt - 2).min(30);
        (self.base_delay_seconds * self.multiplier.powi(exp as i32)).min(self.max_delay_seconds)
    }

    /// [`delay_before`](RetryPolicy::delay_before) with the policy's
    /// seeded jitter applied: a deterministic draw for
    /// `(jitter_seed, key, attempt)` scales the envelope into
    /// `[envelope · (1 − jitter), envelope]`. Two clients retrying the
    /// same incident under different seeds (or keys) desynchronize; the
    /// same `(seed, key, attempt)` always yields the same delay.
    pub fn jittered_delay_before(&self, attempt: u32, key: &str) -> f64 {
        let envelope = self.delay_before(attempt);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if envelope <= 0.0 || jitter <= 0.0 {
            return envelope;
        }
        let u = feam_sim::rng::unit_f64(feam_sim::rng::hash_parts(
            self.jitter_seed,
            &["retry-jitter", key, &attempt.to_string()],
        ));
        envelope * (1.0 - jitter * u)
    }

    /// Total backoff spent when `attempts` attempts were consumed
    /// (jitter-free envelope; an upper bound on any jittered schedule).
    pub fn total_backoff(&self, attempts: u32) -> f64 {
        (2..=attempts).map(|a| self.delay_before(a)).sum()
    }
}

/// Record one consumed retry: charge its backoff to the simulated clock
/// and emit a `retry_attempt` event.
pub(crate) fn note_retry(sess: &mut Session<'_>, what: &str, attempt: u32, delay: f64) {
    sess.charge(delay);
    sess.recorder.event(
        "retry_attempt",
        &[
            ("what", what.into()),
            ("attempt", attempt.into()),
            ("delay_s", delay.into()),
        ],
    );
    sess.recorder.count("retry.attempts", 1);
}

/// [`run_mpi`] under a retry policy: the launch loop itself retries (as
/// the paper did), and the backoff between those attempts is charged to
/// the session clock and surfaced as `retry_attempt` events.
pub fn launch_with_retry(
    sess: &mut Session<'_>,
    path: &str,
    launcher: &InstalledStack,
    nprocs: u32,
    policy: &RetryPolicy,
) -> ExecOutcome {
    let outcome = run_mpi(sess, path, launcher, nprocs, policy.max_attempts);
    for attempt in 2..=outcome.attempts {
        note_retry(
            sess,
            "launch",
            attempt,
            policy.jittered_delay_before(attempt, path),
        );
    }
    outcome
}

/// Probe compile under a retry policy: transient toolchain failures
/// (injected or otherwise) are retried with backoff; hard errors return
/// immediately.
pub fn compile_with_retry(
    sess: &mut Session<'_>,
    stack: Option<&InstalledStack>,
    prog: &ProgramSpec,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<CompiledBinary, CompileError> {
    let max = policy.max_attempts.max(1);
    let mut last = None;
    for attempt in 1..=max {
        match feam_sim::compile::compile_in_session(sess, stack, prog, seed, attempt) {
            Err(e) if e.is_transient() && attempt < max => {
                note_retry(
                    sess,
                    "compile",
                    attempt + 1,
                    policy.jittered_delay_before(attempt + 1, &prog.name),
                );
                last = Some(Err(e));
            }
            other => return other,
        }
    }
    last.expect("loop ran at least once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use feam_elf::HostArch;
    use feam_sim::faults::{FaultPlan, FaultRate};
    use feam_sim::mpi::{MpiImpl, MpiStack, Network};
    use feam_sim::site::{OsInfo, Site, SiteConfig};
    use feam_sim::toolchain::{Compiler, CompilerFamily, Language};
    use std::sync::Arc;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_before(1), 0.0);
        assert_eq!(p.delay_before(2), 1.0);
        assert_eq!(p.delay_before(3), 2.0);
        assert_eq!(p.delay_before(4), 4.0);
        assert_eq!(p.delay_before(5), 8.0);
        assert_eq!(p.delay_before(6), 8.0, "capped at max_delay_seconds");
        assert_eq!(p.total_backoff(1), 0.0);
        assert_eq!(p.total_backoff(5), 15.0);
    }

    #[test]
    fn jitter_draws_are_seeded_bounded_and_decorrelated() {
        let p = RetryPolicy::default().with_jitter(0.5, 7);
        for attempt in 2..=6 {
            let envelope = p.delay_before(attempt);
            let d = p.jittered_delay_before(attempt, "compile@site-a");
            assert!(
                d > 0.0 && d <= envelope && d >= envelope * 0.5,
                "attempt {attempt}: jittered {d} outside [{}, {envelope}]",
                envelope * 0.5
            );
            // Pure function of (seed, key, attempt): replays exactly.
            assert_eq!(d, p.jittered_delay_before(attempt, "compile@site-a"));
        }
        // Different seeds (fleet clients) desynchronize the schedule.
        let q = RetryPolicy::default().with_jitter(0.5, 8);
        let schedule = |pol: &RetryPolicy| -> Vec<f64> {
            (2..=6)
                .map(|a| pol.jittered_delay_before(a, "compile@site-a"))
                .collect()
        };
        assert_ne!(schedule(&p), schedule(&q));
        // Different keys desynchronize too.
        assert_ne!(
            schedule(&p),
            (2..=6)
                .map(|a| p.jittered_delay_before(a, "compile@site-b"))
                .collect::<Vec<f64>>()
        );
        // The first attempt stays free, and zero jitter is the envelope.
        assert_eq!(p.jittered_delay_before(1, "x"), 0.0);
        let plain = RetryPolicy::default();
        for a in 2..=6 {
            assert_eq!(plain.jittered_delay_before(a, "x"), plain.delay_before(a));
        }
    }

    fn probe_site(f: impl FnOnce(&mut SiteConfig)) -> Site {
        let mut cfg = SiteConfig::new(
            "retry-test",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            11,
        );
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
        cfg.stacks = vec![(
            MpiStack::new(
                MpiImpl::OpenMpi,
                "1.4",
                Compiler::new(CompilerFamily::Gnu, "4.1.2"),
                Network::Ethernet,
            ),
            true,
        )];
        cfg.system_error_rate = 0.0;
        f(&mut cfg);
        Site::build(cfg)
    }

    #[test]
    fn transient_compile_faults_recover_under_retry() {
        let site = probe_site(|_| {});
        let ist = site.stacks[0].clone();
        let prog = ProgramSpec::mpi_hello_world(Language::C);
        // A high transient rate: the first attempt frequently faults, but
        // five attempts essentially always find a clean roll.
        let plan = FaultPlan {
            seed: 5,
            probe_compile: FaultRate {
                transient: 0.5,
                persistent: 0.0,
            },
            ..FaultPlan::default()
        };
        let mut sess = Session::with_faults(&site, Arc::new(plan));
        let result = compile_with_retry(&mut sess, Some(&ist), &prog, 7, &RetryPolicy::default());
        assert!(result.is_ok(), "retries should recover: {result:?}");
    }

    #[test]
    fn exhausted_transient_compile_reports_transient_error() {
        let site = probe_site(|_| {});
        let ist = site.stacks[0].clone();
        let prog = ProgramSpec::mpi_hello_world(Language::C);
        let plan = FaultPlan {
            seed: 5,
            probe_compile: FaultRate {
                transient: 1.0,
                persistent: 0.0,
            },
            ..FaultPlan::default()
        };
        let mut sess = Session::with_faults(&site, Arc::new(plan));
        let before = sess.cpu_seconds;
        let result = compile_with_retry(&mut sess, Some(&ist), &prog, 7, &RetryPolicy::default());
        assert!(
            matches!(result, Err(ref e) if e.is_transient()),
            "{result:?}"
        );
        // Four retries of backoff were charged to the simulated clock.
        assert!(
            sess.cpu_seconds - before >= 15.0,
            "backoff charged: {}",
            sess.cpu_seconds - before
        );
    }
}
