//! The sharded serving fleet: N [`PredictService`] nodes behind a
//! consistent-hash router with health-gated failover and
//! epoch-propagated invalidation.
//!
//! ## Failure domains
//!
//! A fleet is one world: the factory builds node 0, and every other node
//! is its sibling over the same site list and worker pool. A node owns
//! only logical state — phase caches, registry, result cache, EDC epochs,
//! breaker, op-log cursor — so a node loss costs cache warmth, never
//! correctness. The router consistent-hashes `(binary content hash,
//! target site)` onto the ring; the key's first `replication` successors
//! are its **replica set**, and the router walks them in ring order:
//!
//! 1. **Primary** — the first replica whose breaker admits traffic and
//!    whose process is up and reachable. The caller waits for its answer:
//!    a flight still queued runs on the calling thread, and a read that
//!    coalesced onto a running flight waits for that flight.
//! 2. **Failover** — a down / partitioned / open / overloaded replica is
//!    skipped (`fleet.failover`); the next replica takes the request.
//! 3. **Degraded fallback** — when *every* replica refuses, the rest of
//!    the ring, in order, serves (`fleet.fallback.degraded`): worse cache
//!    locality, same answer, which beats refusing outright.
//!
//! An answer is cached only on the node that computed it. A read that
//! fails over computes its own answer on the node that takes it: every
//! node holds the same bindings and site list, so it recomputes the same
//! bytes.
//!
//! ## Invalidation ordering
//!
//! All configuration mutations (register / update / reconfigure) append
//! to a fleet-wide ordered op log; the log length is the **fleet
//! epoch**. Reachable nodes apply the op immediately; a node that was
//! down or partitioned replays the missed suffix (catch-up) before it is
//! ever dispatched to again — a rejoined node can never serve from stale
//! configuration.

use crate::health::{HealthTracker, NodeState};
use crate::registry::RegisteredBinary;
use crate::router::HashRing;
use crate::service::{
    Delivery, Pending, PredictRequest, PredictResponse, PredictService, SvcError,
};
use feam_core::cache::{content_key_of, BdcKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ring points per node; more = smoother balance.
const VNODES: usize = 64;

/// Seed for ring placement and routing hashes.
const RING_SEED: u64 = 0xF1EE7;

/// Fleet tuning knobs.
#[derive(Clone)]
pub struct FleetConfig {
    /// How many ring successors a key fails over across before the
    /// route counts as degraded.
    pub replication: usize,
    /// Fleet-level telemetry (node gauges, failover and fallback
    /// counters). Per-node service telemetry rides each node's own
    /// recorder.
    pub recorder: feam_obs::Recorder,
    /// Not a setting: keeps `..FleetConfig::default()` meaningful in a
    /// literal that names every setting.
    #[doc(hidden)]
    pub _non_exhaustive: (),
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replication: 2,
            recorder: feam_obs::Recorder::disabled(),
            _non_exhaustive: (),
        }
    }
}

/// Why the fleet rejected a request.
#[derive(Debug)]
pub enum FleetError {
    /// A service-level rejection that failover cannot cure (unknown
    /// name/site, expired deadline).
    Svc(SvcError),
    /// Every candidate node refused or failed.
    Unavailable { attempts: u32 },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Svc(e) => write!(f, "{e}"),
            FleetError::Unavailable { attempts } => {
                write!(f, "no node could serve the request ({attempts} tried)")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// A fleet answer: the service response plus its routing provenance.
#[derive(Debug)]
pub struct FleetResponse {
    /// Name of the node that answered, shared with the fleet.
    pub node: Arc<str>,
    /// Replicas skipped (down / open / overloaded) before dispatch.
    pub failovers: u32,
    /// Always `false`: the fleet no longer hedges. Kept for readers that
    /// still report it.
    pub hedged: bool,
    /// Served outside the replica set (all replicas refused).
    pub degraded_route: bool,
    /// The underlying service response.
    pub response: PredictResponse,
}

/// One logged configuration mutation. The log index order *is* the
/// invalidation order fleet-wide.
///
/// `Register` and `Update` carry one binding, built when the op is logged:
/// the image's content key (from the allocation memo [`content_key_of`],
/// so a buffer logged before, a rollback's, is not hashed again) and its
/// home site resolved against the site list every node shares. Every
/// node binds that same `Arc`, so its source-bundle memo is shared: the
/// source phase runs once per binding and home-site epoch, not once per
/// node. The log keeps each node's EDC epochs in lockstep, since a node
/// replays every op before it is dispatched to, and the memo serves a
/// bundle only for the exact epoch it was gathered under. A lagging node's
/// late computation under an older epoch can thus cost a recompute, but
/// never serve a bundle from another environment.
enum ConfigOp {
    Register {
        name: String,
        binding: Arc<RegisteredBinary>,
    },
    Update {
        name: String,
        binding: Arc<RegisteredBinary>,
    },
    Reconfigure {
        site: String,
    },
}

struct FleetNode {
    name: Arc<str>,
    svc: PredictService,
    /// Process up? A killed node fast-fails dispatch (connection
    /// refused); its already-queued work still completes.
    up: AtomicBool,
    /// Network-partitioned from the router? Dispatch and config ops
    /// cannot reach it; the process itself stays healthy.
    partitioned: AtomicBool,
    health: Mutex<HealthTracker>,
    /// Ops applied so far (index into the op log).
    applied_epoch: AtomicU64,
}

impl FleetNode {
    fn reachable(&self) -> bool {
        self.up.load(Ordering::SeqCst) && !self.partitioned.load(Ordering::SeqCst)
    }
}

struct FleetInner {
    cfg: FleetConfig,
    nodes: Vec<FleetNode>,
    ring: HashRing,
    /// Ordered configuration log; `len()` is the fleet epoch.
    ops: Mutex<Vec<ConfigOp>>,
    /// Fleet epoch mirror for lock-free reads on the dispatch path.
    epoch: AtomicU64,
    /// name → content hash, for ring placement without touching a node.
    routes: Mutex<HashMap<String, u64>>,
    /// Breaker clock origin: `now_ms` is milliseconds since fleet build.
    t0: Instant,
}

/// The fleet. Build with [`Fleet::with_factory`], register binaries
/// through the fleet (never directly on a node), `start`, then `predict`
/// from any thread. Dropping the fleet drops its nodes; the first node's
/// drop drains and joins the pool they share.
pub struct Fleet {
    /// Boxed, so that a `Fleet` is as small to move as a `PredictService`.
    inner: Box<FleetInner>,
}

impl Fleet {
    /// Build `n` nodes. The factory runs once, for node 0; nodes 1..n are
    /// its siblings, over the same site list and pool, so every node
    /// answers a request exactly as node 0 would.
    pub fn with_factory(
        cfg: FleetConfig,
        n: usize,
        factory: impl FnOnce(usize) -> PredictService,
    ) -> Self {
        let first = factory(0);
        let siblings: Vec<_> = (1..n).map(|_| first.sibling()).collect();
        let mut ring = HashRing::new(RING_SEED, VNODES);
        let mut nodes = Vec::with_capacity(n);
        for (i, svc) in std::iter::once(first).chain(siblings).enumerate() {
            let name: Arc<str> = format!("node-{i}").into();
            ring.add(&name);
            nodes.push(FleetNode {
                name,
                svc,
                up: AtomicBool::new(true),
                partitioned: AtomicBool::new(false),
                health: Mutex::new(HealthTracker::new()),
                applied_epoch: AtomicU64::new(0),
            });
        }
        Fleet {
            inner: Box::new(FleetInner {
                cfg,
                nodes,
                ring,
                ops: Mutex::new(Vec::new()),
                epoch: AtomicU64::new(0),
                routes: Mutex::new(HashMap::new()),
                t0: Instant::now(),
            }),
        }
    }

    /// Spawn the shared pool's threads: `workers` of the one config every
    /// node shares. Idempotent.
    pub fn start(&mut self) {
        self.inner.nodes[0].svc.start();
    }

    /// Node count (fixed at build; kill/revive toggles availability, not
    /// membership).
    pub fn len(&self) -> usize {
        self.inner.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.nodes.is_empty()
    }

    /// Current fleet epoch (= configuration ops applied).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// A node's applied epoch, for tests and the bench report.
    pub fn node_applied_epoch(&self, i: usize) -> u64 {
        self.inner.nodes[i].applied_epoch.load(Ordering::SeqCst)
    }

    /// Direct access to a node's service (tests: cache introspection).
    pub fn node_service(&self, i: usize) -> &PredictService {
        &self.inner.nodes[i].svc
    }

    /// A node's breaker state right now.
    pub fn node_state(&self, i: usize) -> NodeState {
        let now = self.inner.now_ms();
        self.inner.nodes[i]
            .health
            .lock()
            .expect("health")
            .state(now)
    }

    /// Milliseconds since fleet build — the breaker clock.
    pub fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    /// The replica set (node indices) a request routes onto.
    pub fn replica_set(&self, binary_ref: &str, site: &str) -> Option<Vec<usize>> {
        let point = self.inner.key_point(binary_ref, site)?;
        Some(self.inner.ring.replicas(point, self.inner.cfg.replication))
    }

    // ---- configuration plane ------------------------------------------

    /// Register a binary fleet-wide. Appends to the op log (bumping the
    /// fleet epoch) and applies to every reachable node; unreachable
    /// nodes replay it during catch-up before they serve again.
    /// Same-content re-registration is an idempotent no-op that does not
    /// bump the epoch.
    pub fn register_binary(
        &self,
        name: &str,
        image: Arc<Vec<u8>>,
        home_site: &str,
    ) -> Result<(), SvcError> {
        let content_key = content_key_of(&image);
        let mut ops = self.inner.ops.lock().expect("ops");
        {
            let mut routes = self.inner.routes.lock().expect("routes");
            match routes.get(name) {
                Some(&existing) if existing == content_key.hash => return Ok(()),
                Some(_) => {
                    return Err(SvcError::ContentChanged {
                        name: name.to_string(),
                    })
                }
                None => {
                    routes.insert(name.to_string(), content_key.hash);
                }
            }
        }
        ops.push(ConfigOp::Register {
            name: name.to_string(),
            binding: self.inner.bind(image, content_key, home_site),
        });
        self.inner.apply_tail(&ops);
        Ok(())
    }

    /// Replace a name's bytes fleet-wide (epoch bump; every node keeps or
    /// purges cached results exactly as a single node does). Returns the
    /// new fleet epoch.
    pub fn update_binary(&self, name: &str, image: Arc<Vec<u8>>, home_site: &str) -> u64 {
        let content_key = content_key_of(&image);
        let mut ops = self.inner.ops.lock().expect("ops");
        self.inner
            .routes
            .lock()
            .expect("routes")
            .insert(name.to_string(), content_key.hash);
        ops.push(ConfigOp::Update {
            name: name.to_string(),
            binding: self.inner.bind(image, content_key, home_site),
        });
        self.inner.apply_tail(&ops);
        self.inner.cfg.recorder.count("fleet.config.update", 1);
        ops.len() as u64
    }

    /// Propagate a site reconfiguration fleet-wide: every node bumps its
    /// EDC epoch for `site`, orphaning descriptions and results derived
    /// from the stale environment. Returns the new fleet epoch.
    pub fn reconfigure_site(&self, site: &str) -> Result<u64, SvcError> {
        // Validate against the site list every node shares.
        if self.inner.nodes[0].svc.site_transient_rate(site).is_none() {
            return Err(SvcError::UnknownSite(site.to_string()));
        }
        let mut ops = self.inner.ops.lock().expect("ops");
        ops.push(ConfigOp::Reconfigure {
            site: site.to_string(),
        });
        self.inner.apply_tail(&ops);
        self.inner.cfg.recorder.count("fleet.config.reconfigure", 1);
        Ok(ops.len() as u64)
    }

    // ---- chaos plane --------------------------------------------------

    /// Kill node `i`: dispatch fast-fails, config ops stop reaching it,
    /// its breaker is forced open. Queued work already inside the node
    /// still completes (a process death would lose it; the simulated kill
    /// models a crash *after* the in-flight answers drain, which is the
    /// graceful-brownout bound the bench gates on).
    pub fn kill_node(&self, i: usize) {
        let node = &self.inner.nodes[i];
        node.up.store(false, Ordering::SeqCst);
        let now = self.inner.now_ms();
        node.health.lock().expect("health").force_open(now);
        self.inner.cfg.recorder.count("fleet.node.killed", 1);
        self.inner.publish_state_gauges();
    }

    /// Revive node `i`: replay every missed configuration op, reset the
    /// breaker, then readmit traffic. Catch-up runs *before* the up flag
    /// flips, so the node can never serve from stale configuration.
    pub fn revive_node(&self, i: usize) {
        {
            let ops = self.inner.ops.lock().expect("ops");
            self.inner.catch_up(i, &ops);
        }
        let node = &self.inner.nodes[i];
        node.health.lock().expect("health").reset();
        node.up.store(true, Ordering::SeqCst);
        self.inner.cfg.recorder.count("fleet.node.revived", 1);
        self.inner.publish_state_gauges();
    }

    /// Trip node `i`'s breaker without marking the process down — models
    /// a browned-out node that must re-earn traffic through HalfOpen
    /// probes once the cooldown elapses.
    pub fn trip_breaker(&self, i: usize) {
        let now = self.inner.now_ms();
        self.inner.nodes[i]
            .health
            .lock()
            .expect("health")
            .force_open(now);
        self.inner.cfg.recorder.count("fleet.node.tripped", 1);
        self.inner.publish_state_gauges();
    }

    /// Partition node `i` from the router: dispatch errors, config ops
    /// miss it, but the node itself keeps running.
    pub fn partition_node(&self, i: usize) {
        self.inner.nodes[i]
            .partitioned
            .store(true, Ordering::SeqCst);
        self.inner.cfg.recorder.count("fleet.node.partitioned", 1);
    }

    /// Heal the partition: catch up missed ops, then readmit.
    pub fn heal_node(&self, i: usize) {
        {
            let ops = self.inner.ops.lock().expect("ops");
            self.inner.catch_up(i, &ops);
        }
        self.inner.nodes[i]
            .partitioned
            .store(false, Ordering::SeqCst);
        self.inner.cfg.recorder.count("fleet.node.healed", 1);
    }

    // ---- data plane ---------------------------------------------------

    /// Route, dispatch (with failover) and answer one request. The
    /// answer is cached only on the node that computed it.
    pub fn predict(&self, req: &PredictRequest) -> Result<FleetResponse, FleetError> {
        let inner = &self.inner;
        let rec = &inner.cfg.recorder;
        rec.count("fleet.requests", 1);

        let Some(point) = inner.key_point(&req.binary_ref, &req.target_site) else {
            return Err(FleetError::Svc(SvcError::UnknownBinary(
                req.binary_ref.clone(),
            )));
        };

        // Candidate order: every node in ring order from the key's point.
        // The first `degraded_from` are the replica set; the rest are the
        // degraded fallback.
        let mut candidates = Vec::with_capacity(inner.nodes.len());
        inner
            .ring
            .replicas_into(point, inner.nodes.len(), &mut candidates);
        let degraded_from = inner.cfg.replication.min(inner.nodes.len());

        let mut failovers = 0u32;
        let mut attempts = 0u32;
        let mut degraded_counted = false;
        for (pos, &i) in candidates.iter().enumerate() {
            let degraded_route = pos >= degraded_from;
            let now = inner.now_ms();
            if !inner.nodes[i].reachable()
                || !inner.nodes[i].health.lock().expect("health").admit(now)
            {
                if pos < degraded_from {
                    rec.count("fleet.failover", 1);
                    failovers += 1;
                }
                continue;
            }
            if degraded_route && !degraded_counted {
                degraded_counted = true;
                rec.count("fleet.fallback.degraded", 1);
            }
            attempts += 1;
            return match inner.dispatch(i, req) {
                Ok(Delivery::Ready(resp)) => inner.settle(i, Ok(resp), failovers, degraded_route),
                Ok(Delivery::Pending(rx)) => inner.settle_recv(i, &rx, failovers, degraded_route),
                Err(e) if e.retryable() || matches!(e, SvcError::ShuttingDown) => {
                    // Overloaded (node sheds) or a kill raced the admit
                    // check: the next replica takes the request and the
                    // breaker hears about it.
                    inner.observe_error(i);
                    if pos < degraded_from {
                        rec.count("fleet.failover", 1);
                        failovers += 1;
                    }
                    continue;
                }
                Err(e) => {
                    // A request-level rejection (unknown site, expired
                    // deadline) says nothing about the node: return the
                    // admitted probe slot without an outcome so a
                    // HalfOpen breaker is not wedged by it.
                    inner.release_probe(i);
                    Err(FleetError::Svc(e))
                }
            };
        }
        rec.count("fleet.unavailable", 1);
        Err(FleetError::Unavailable { attempts })
    }

    /// [`predict`](Fleet::predict) under its former name, kept only while
    /// the benchmark of record still calls it.
    pub fn predict_replicated(&self, req: &PredictRequest) -> Result<FleetResponse, FleetError> {
        self.predict(req)
    }
}

impl FleetInner {
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// The one binding a logged op hands every node: `image` under
    /// `content_key`, its home site resolved against the shared site list.
    fn bind(
        &self,
        image: Arc<Vec<u8>>,
        content_key: BdcKey,
        home_site: &str,
    ) -> Arc<RegisteredBinary> {
        self.nodes[0]
            .svc
            .bind(RegisteredBinary::with_key(image, content_key, home_site))
    }

    /// The ring point of the content `binary_ref` is bound to, at `site`.
    fn key_point(&self, binary_ref: &str, site: &str) -> Option<u64> {
        let &content = self.routes.lock().expect("routes").get(binary_ref)?;
        Some(self.ring.key_point(content, site))
    }

    /// Apply the newest op (tail of the log) to every reachable node and
    /// advance the fleet epoch. Callers hold the ops lock.
    fn apply_tail(&self, ops: &[ConfigOp]) {
        let epoch = ops.len() as u64;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.reachable() {
                self.catch_up(i, ops);
            }
        }
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Replay every op the node has not yet applied, in log order.
    /// Callers hold the ops lock (so no op lands mid-replay).
    fn catch_up(&self, i: usize, ops: &[ConfigOp]) {
        let node = &self.nodes[i];
        let from = node.applied_epoch.load(Ordering::SeqCst) as usize;
        for op in &ops[from..] {
            match op {
                ConfigOp::Register { name, binding } => {
                    // ContentChanged cannot happen: the routes map
                    // rejected conflicting registrations before logging.
                    let _ = node.svc.register_bound(name, binding.clone());
                }
                ConfigOp::Update { name, binding } => {
                    node.svc.update_bound(name, binding.clone());
                }
                ConfigOp::Reconfigure { site } => {
                    let _ = node.svc.reconfigure_site(site);
                }
            }
        }
        node.applied_epoch.store(ops.len() as u64, Ordering::SeqCst);
    }

    /// Dispatch one request to node `i`, enforcing reachability and epoch
    /// freshness. A reachable node behind the fleet epoch (possible when
    /// it healed between the admit check and here) catches up first —
    /// stale epochs are never served.
    fn dispatch(&self, i: usize, req: &PredictRequest) -> Result<Delivery, SvcError> {
        let node = &self.nodes[i];
        if !node.reachable() {
            return Err(SvcError::ShuttingDown);
        }
        if node.applied_epoch.load(Ordering::SeqCst) != self.epoch.load(Ordering::SeqCst) {
            let ops = self.ops.lock().expect("ops");
            self.catch_up(i, &ops);
        }
        node.svc.submit(req)
    }

    /// The terminal accounting for an answered dispatch.
    fn settle(
        &self,
        node_idx: usize,
        out: Result<PredictResponse, SvcError>,
        failovers: u32,
        degraded_route: bool,
    ) -> Result<FleetResponse, FleetError> {
        match out {
            Ok(resp) => {
                self.observe_success(node_idx);
                Ok(FleetResponse {
                    node: Arc::clone(&self.nodes[node_idx].name),
                    failovers,
                    hedged: false,
                    degraded_route,
                    response: resp,
                })
            }
            // A deadline shed is the *request's* failure, not the
            // node's: the worker was healthy enough to shed on time.
            // Hand back the admitted probe slot without an outcome so a
            // HalfOpen breaker cannot be wedged by expired requests.
            Err(SvcError::DeadlineExceeded) => {
                self.release_probe(node_idx);
                Err(FleetError::Svc(SvcError::DeadlineExceeded))
            }
            Err(e) => {
                self.observe_error(node_idx);
                Err(FleetError::Svc(e))
            }
        }
    }

    /// Block for node `node_idx`'s answer (running its flight here if it
    /// is still queued) and settle it. A dead answer channel has no
    /// outcome to attribute, so it frees the admitted probe slot.
    fn settle_recv(
        &self,
        node_idx: usize,
        rx: &Pending,
        failovers: u32,
        degraded_route: bool,
    ) -> Result<FleetResponse, FleetError> {
        match rx.recv() {
            Ok(out) => self.settle(node_idx, out, failovers, degraded_route),
            Err(_) => {
                self.release_probe(node_idx);
                Err(FleetError::Svc(SvcError::ShuttingDown))
            }
        }
    }

    fn observe_success(&self, i: usize) {
        let now = self.now_ms();
        self.nodes[i]
            .health
            .lock()
            .expect("health")
            .record_success(now);
        self.publish_state_gauges();
    }

    /// Return node `i`'s admitted probe slot without recording an
    /// outcome — the dispatch resolved in a way that says nothing about
    /// the node's health (request-scoped rejection, dead answer
    /// channel). Every `admit` must be balanced by
    /// exactly one of `observe_success` / `observe_error` /
    /// `release_probe`, or a HalfOpen breaker leaks its probe budget and
    /// wedges.
    fn release_probe(&self, i: usize) {
        self.nodes[i].health.lock().expect("health").release_probe();
    }

    fn observe_error(&self, i: usize) {
        let now = self.now_ms();
        self.nodes[i]
            .health
            .lock()
            .expect("health")
            .record_error(now);
        self.publish_state_gauges();
    }

    /// One gauge per node: `fleet.node.state.<name>` (0 Closed,
    /// 1 HalfOpen, 2 Open). Skipped under a disabled recorder, which
    /// would discard the values after every health lock was taken.
    fn publish_state_gauges(&self) {
        if !self.cfg.recorder.is_enabled() {
            return;
        }
        let now = self.now_ms();
        for node in &self.nodes {
            let state = node.health.lock().expect("health").state(now);
            self.cfg
                .recorder
                .gauge(&format!("fleet.node.state.{}", node.name), state.as_gauge());
        }
    }
}
