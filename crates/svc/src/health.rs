//! Per-node health tracking for the serving fleet: a circuit breaker
//! driven by consecutive errors.
//!
//! Every fleet node carries a [`HealthTracker`]. The router consults it
//! before dispatch and feeds it every outcome:
//!
//! - **Closed** — healthy; requests route normally.
//! - **Open** — tripped by [`ERROR_THRESHOLD`] consecutive errors; no
//!   traffic until [`OPEN_COOLDOWN_MS`] passes.
//! - **HalfOpen** — the cooldown elapsed; one probe at a time is allowed
//!   through. A clean answer closes the breaker; an error reopens it and
//!   restarts the cooldown.
//!
//! Time is an explicit `now_ms` argument on every transition (the same
//! convention as `feam_obs`' windowed metrics), so breaker behaviour is
//! fully deterministic under test and in the simulated fleet bench.

/// Consecutive errors that trip Closed → Open.
pub const ERROR_THRESHOLD: u32 = 3;

/// How long an Open breaker blocks traffic before probing, in ms.
pub const OPEN_COOLDOWN_MS: u64 = 500;

/// Breaker state, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Healthy; full traffic.
    Closed,
    /// Tripped; no traffic until the cooldown elapses.
    Open,
    /// Probing; one probe decides whether to close or reopen.
    HalfOpen,
}

impl NodeState {
    /// Stable numeric encoding for the `fleet.node.state` gauge
    /// (0 = Closed, 1 = HalfOpen, 2 = Open — higher is sicker).
    pub fn as_gauge(self) -> f64 {
        match self {
            NodeState::Closed => 0.0,
            NodeState::HalfOpen => 1.0,
            NodeState::Open => 2.0,
        }
    }
}

/// One node's health state machine. Not internally synchronized — the
/// fleet wraps each tracker in a mutex.
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    consecutive_errors: u32,
    /// `Some(when)` while Open: the instant the breaker tripped.
    opened_at_ms: Option<u64>,
    /// A HalfOpen probe is in flight.
    probing: bool,
}

impl HealthTracker {
    pub fn new() -> Self {
        HealthTracker::default()
    }

    /// Current state at `now_ms`. Open lazily decays to HalfOpen once the
    /// cooldown has elapsed — there is no background timer.
    pub fn state(&self, now_ms: u64) -> NodeState {
        match self.opened_at_ms {
            None => NodeState::Closed,
            Some(at) if now_ms.saturating_sub(at) >= OPEN_COOLDOWN_MS => NodeState::HalfOpen,
            Some(_) => NodeState::Open,
        }
    }

    /// May a request be dispatched to this node right now? Closed always
    /// admits; HalfOpen admits one probe at a time; Open refuses. An
    /// admitted HalfOpen probe holds the probe slot — the caller must
    /// report its outcome via [`record_success`](Self::record_success) /
    /// [`record_error`](Self::record_error) or hand the slot back with
    /// [`release_probe`](Self::release_probe).
    pub fn admit(&mut self, now_ms: u64) -> bool {
        match self.state(now_ms) {
            NodeState::Closed => true,
            NodeState::Open => false,
            NodeState::HalfOpen => !std::mem::replace(&mut self.probing, true),
        }
    }

    /// Record a clean answer observed at `now_ms`; a HalfOpen probe's
    /// clean answer closes the breaker.
    pub fn record_success(&mut self, now_ms: u64) {
        self.consecutive_errors = 0;
        if self.state(now_ms) == NodeState::HalfOpen {
            self.close();
        }
    }

    /// Return an admitted probe slot without recording an outcome — for
    /// dispatches that resolved in a way that says nothing about the
    /// node's health (an expired deadline, a request-level rejection, a
    /// dead answer channel). Without this, a probe
    /// whose outcome is never attributed would hold the single HalfOpen
    /// slot forever and wedge the breaker: no further probe could ever be
    /// admitted, so no outcome could ever close *or* reopen it.
    pub fn release_probe(&mut self) {
        self.probing = false;
    }

    /// Record a dispatch failure observed at `now_ms`.
    pub fn record_error(&mut self, now_ms: u64) {
        self.consecutive_errors += 1;
        match self.state(now_ms) {
            // Any HalfOpen error reopens immediately and restarts the
            // cooldown — the node gets no further traffic for a while.
            NodeState::HalfOpen => self.trip(now_ms),
            NodeState::Closed => {
                if self.consecutive_errors >= ERROR_THRESHOLD {
                    self.trip(now_ms);
                }
            }
            NodeState::Open => {}
        }
    }

    /// Force the breaker open (e.g. the fleet killed the node): no point
    /// burning the error threshold on a node known to be down. A breaker
    /// already open restarts its cooldown; the node just went down again.
    pub fn force_open(&mut self, now_ms: u64) {
        self.trip(now_ms);
    }

    /// Reset to Closed (e.g. the fleet revived the node).
    pub fn reset(&mut self) {
        self.close();
    }

    fn trip(&mut self, now_ms: u64) {
        self.opened_at_ms = Some(now_ms);
        self.probing = false;
    }

    fn close(&mut self) {
        self.opened_at_ms = None;
        self.consecutive_errors = 0;
        self.probing = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker tripped at t=0 by consecutive errors.
    fn tripped() -> HealthTracker {
        let mut h = HealthTracker::new();
        for _ in 0..ERROR_THRESHOLD {
            h.record_error(0);
        }
        h
    }

    #[test]
    fn consecutive_errors_trip_and_cooldown_halfopens() {
        let mut h = HealthTracker::new();
        assert_eq!(h.state(0), NodeState::Closed);
        h.record_error(0);
        h.record_error(1);
        assert_eq!(h.state(1), NodeState::Closed, "two errors: not yet");
        h.record_error(2);
        assert_eq!(h.state(2), NodeState::Open, "third consecutive trips");
        assert!(!h.admit(50), "open refuses traffic");
        let cooled = 2 + OPEN_COOLDOWN_MS;
        assert_eq!(h.state(cooled - 1), NodeState::Open, "cooldown from trip");
        assert_eq!(h.state(cooled), NodeState::HalfOpen);
    }

    #[test]
    fn success_between_errors_resets_the_streak() {
        let mut h = HealthTracker::new();
        h.record_error(0);
        h.record_error(1);
        h.record_success(2);
        h.record_error(3);
        h.record_error(4);
        assert_eq!(h.state(4), NodeState::Closed, "streak was reset");
    }

    #[test]
    fn halfopen_probe_budget_then_close_or_reopen() {
        let mut h = tripped();
        let t = OPEN_COOLDOWN_MS;
        // After cooldown: exactly one probe slot; its clean answer closes.
        assert!(h.admit(t));
        assert!(!h.admit(t), "probe budget exhausted");
        h.record_success(t + 1);
        assert_eq!(h.state(t + 1), NodeState::Closed, "a clean probe closes");

        // Reopen path: an error while HalfOpen trips immediately.
        let t = 1_000;
        for i in 0..ERROR_THRESHOLD as u64 {
            h.record_error(t + i);
        }
        let reopened = t + 2 + OPEN_COOLDOWN_MS;
        assert!(h.admit(reopened), "half-open again after cooldown");
        h.record_error(reopened + 1);
        assert_eq!(
            h.state(reopened + 1),
            NodeState::Open,
            "probe failure reopens"
        );
        let restart = reopened + 1 + OPEN_COOLDOWN_MS;
        assert_eq!(h.state(restart - 1), NodeState::Open, "cooldown restarted");
        assert_eq!(h.state(restart), NodeState::HalfOpen);
    }

    #[test]
    fn released_probe_slots_return_without_an_outcome() {
        let mut h = tripped();
        let t = OPEN_COOLDOWN_MS;
        // After cooldown: the single probe slot is admitted, then the
        // dispatch resolves with a request-scoped failure — no outcome.
        assert!(h.admit(t));
        assert!(!h.admit(t), "slot consumed");
        h.release_probe();
        assert_eq!(h.state(t + 1), NodeState::HalfOpen, "nothing was counted");
        // The returned slot admits a fresh probe, which can still close
        // the breaker — the node is not wedged.
        assert!(h.admit(t + 1), "released slot admits again");
        h.record_success(t + 2);
        assert_eq!(h.state(t + 2), NodeState::Closed);
    }

    #[test]
    fn force_open_and_reset() {
        let mut h = HealthTracker::new();
        h.force_open(10);
        assert_eq!(h.state(10), NodeState::Open);
        assert_eq!(h.state(9 + OPEN_COOLDOWN_MS), NodeState::Open);
        h.force_open(109); // went down again: cooldown restarts
        assert_eq!(h.state(108 + OPEN_COOLDOWN_MS), NodeState::Open);
        h.reset();
        assert_eq!(h.state(108 + OPEN_COOLDOWN_MS), NodeState::Closed);
    }

    #[test]
    fn gauge_encoding_orders_by_sickness() {
        assert!(NodeState::Closed.as_gauge() < NodeState::HalfOpen.as_gauge());
        assert!(NodeState::HalfOpen.as_gauge() < NodeState::Open.as_gauge());
    }
}
