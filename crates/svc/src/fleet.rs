//! The sharded serving fleet: N [`PredictService`] nodes behind a
//! consistent-hash router with health-gated failover, hedged requests,
//! asynchronous result replication, and epoch-propagated invalidation.
//!
//! ## Failure domains
//!
//! Each node is a full single-node service — worker pool, BDC/EDC shard,
//! result cache — so a node loss costs capacity and cache warmth, never
//! correctness. The router consistent-hashes `(binary content hash,
//! target site)` onto a replica set of `replication` nodes and walks it:
//!
//! 1. **Primary** — the first replica whose breaker admits traffic and
//!    whose process is up and reachable.
//! 2. **Failover** — a down / partitioned / open / overloaded replica is
//!    skipped (`fleet.failover`); the next replica takes the request.
//! 3. **Hedge** — a primary that is up but slow past `hedge_after` gets a
//!    duplicate dispatched to the next viable node
//!    (`fleet.hedge.fired`/`fleet.hedge.won`); first answer wins, the
//!    loser's answer is discarded when it lands.
//! 4. **Degraded fallback** — when *every* replica refuses, any up node
//!    serves (`fleet.fallback.degraded`): worse cache locality, same
//!    answer, which beats refusing outright.
//!
//! ## Replication and invalidation ordering
//!
//! All configuration mutations (register / update / reconfigure) append
//! to a fleet-wide ordered op log; the log length is the **fleet
//! epoch**. Reachable nodes apply the op immediately; a node that was
//! down or partitioned replays the missed suffix (catch-up) before it is
//! ever dispatched to again — a rejoined node can never serve from stale
//! configuration. Result replication is asynchronous and epoch-gated:
//! each cacheable answer is forwarded to the rest of its replica set
//! tagged with the fleet epoch captured *before* the answer was
//! computed — so any config op landing while the answer was in flight
//! makes the stamp stale — and the installer drops any payload whose
//! epoch no longer matches both the target node and the current fleet
//! epoch (`fleet.replication.{applied,dropped}`, lag on
//! `fleet.replication.lag_us`). As a last line of defence the install
//! itself re-verifies the payload's origin coordinates (content key,
//! EDC epoch) against the target's current state and keys the entry by
//! those coordinates, so an op racing the install can only orphan the
//! entry, never relabel it. Dropping is always safe — a replica that
//! misses a replicated result merely re-evaluates on its first hit.

use crate::health::{HealthConfig, HealthTracker, NodeState};
use crate::registry::RegisteredBinary;
use crate::router::HashRing;
use crate::service::{Delivery, PredictRequest, PredictResponse, PredictService, SvcError};
use feam_core::predict::{Prediction, PredictionMode};
use feam_core::tec::TargetEvaluation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet tuning knobs.
#[derive(Clone)]
pub struct FleetConfig {
    /// Replica-set size R: how many nodes a key maps onto.
    pub replication: usize,
    /// Ring points per node; more = smoother balance.
    pub vnodes: usize,
    /// Seed for ring placement and routing hashes.
    pub ring_seed: u64,
    /// Hedge a pending request to the next viable node after this long;
    /// `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Per-node breaker tuning.
    pub health: HealthConfig,
    /// Fleet-level telemetry (node gauges, failover/hedge/replication
    /// counters). Per-node service telemetry rides each node's own
    /// recorder.
    pub recorder: feam_obs::Recorder,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replication: 2,
            vnodes: 64,
            ring_seed: 0xF1EE7,
            hedge_after: Some(Duration::from_millis(250)),
            health: HealthConfig::default(),
            recorder: feam_obs::Recorder::disabled(),
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
    /// Name of the node that answered.
    pub node: String,
    /// Replicas skipped (down / open / overloaded) before dispatch.
    pub failovers: u32,
    /// The winning answer came from a hedge, not the primary dispatch.
    pub hedged: bool,
    /// Served outside the replica set (all replicas refused).
    pub degraded_route: bool,
    /// The underlying service response.
    pub response: PredictResponse,
}

/// One logged configuration mutation. The log index order *is* the
/// invalidation order fleet-wide.
enum ConfigOp {
    Register {
        name: String,
        image: Arc<Vec<u8>>,
        home_site: String,
    },
    Update {
        name: String,
        image: Arc<Vec<u8>>,
        home_site: String,
    },
    Reconfigure {
        site: String,
    },
}

struct FleetNode {
    name: String,
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

/// An asynchronous replication payload: one cacheable answer headed for
/// the rest of its replica set, tagged with the fleet epoch captured
/// before it was computed and the origin coordinates (content key, EDC
/// epoch) it was computed under.
struct ReplicationJob {
    binary_ref: String,
    site: String,
    mode: PredictionMode,
    prediction: Prediction,
    evaluation: TargetEvaluation,
    /// Fleet epoch captured before the winner evaluated.
    epoch: u64,
    /// The coordinates (content key, EDC epoch) the answer was computed
    /// under.
    origin: crate::service::ResultOrigin,
    targets: Vec<usize>,
    enqueued: Instant,
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
/// from any thread.
pub struct Fleet {
    inner: Arc<FleetInner>,
    repl_tx: Option<mpsc::Sender<ReplicationJob>>,
    repl_handle: Option<std::thread::JoinHandle<()>>,
}

impl Fleet {
    /// Build `n` nodes from a factory. The factory must produce
    /// *identically configured* services (same sites seed, phase seed and
    /// fault plan) — the fleet's correctness contract is that any node
    /// answers any request exactly as a single-node service would.
    pub fn with_factory(
        cfg: FleetConfig,
        n: usize,
        factory: impl Fn(usize) -> PredictService,
    ) -> Self {
        let mut ring = HashRing::new(cfg.ring_seed, cfg.vnodes);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n.max(1) {
            let name = format!("node-{i}");
            ring.add(&name);
            nodes.push(FleetNode {
                name,
                svc: factory(i),
                up: AtomicBool::new(true),
                partitioned: AtomicBool::new(false),
                health: Mutex::new(HealthTracker::new(cfg.health.clone())),
                applied_epoch: AtomicU64::new(0),
            });
        }
        Fleet {
            inner: Arc::new(FleetInner {
                cfg,
                nodes,
                ring,
                ops: Mutex::new(Vec::new()),
                epoch: AtomicU64::new(0),
                routes: Mutex::new(HashMap::new()),
                t0: Instant::now(),
            }),
            repl_tx: None,
            repl_handle: None,
        }
    }

    /// Spawn every node's worker pool plus the replication thread.
    pub fn start(&mut self) {
        for node in &mut Arc::get_mut(&mut self.inner)
            .expect("start before sharing the fleet")
            .nodes
        {
            node.svc.start();
        }
        let (tx, rx) = mpsc::channel::<ReplicationJob>();
        let inner = self.inner.clone();
        self.repl_tx = Some(tx);
        self.repl_handle = Some(
            std::thread::Builder::new()
                .name("feam-fleet-repl".into())
                .spawn(move || replication_loop(&inner, rx))
                .expect("spawn replication thread"),
        );
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
        let routes = self.inner.routes.lock().expect("routes");
        let &content = routes.get(binary_ref)?;
        let point = self.inner.ring.key_point(content, site);
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
        let content = feam_core::cache::BdcKey::of(&image).hash;
        let mut ops = self.inner.ops.lock().expect("ops");
        {
            let mut routes = self.inner.routes.lock().expect("routes");
            match routes.get(name) {
                Some(&existing) if existing == content => return Ok(()),
                Some(_) => {
                    return Err(SvcError::ContentChanged {
                        name: name.to_string(),
                    })
                }
                None => {
                    routes.insert(name.to_string(), content);
                }
            }
        }
        ops.push(ConfigOp::Register {
            name: name.to_string(),
            image,
            home_site: home_site.to_string(),
        });
        self.inner.apply_tail(&ops);
        Ok(())
    }

    /// Replace a name's bytes fleet-wide (epoch bump; stale cached
    /// results become unreachable on every node, exactly as on a single
    /// node). Returns the new fleet epoch.
    pub fn update_binary(&self, name: &str, image: Arc<Vec<u8>>, home_site: &str) -> u64 {
        let content = feam_core::cache::BdcKey::of(&image).hash;
        let mut ops = self.inner.ops.lock().expect("ops");
        self.inner
            .routes
            .lock()
            .expect("routes")
            .insert(name.to_string(), content);
        ops.push(ConfigOp::Update {
            name: name.to_string(),
            image,
            home_site: home_site.to_string(),
        });
        self.inner.apply_tail(&ops);
        self.inner.cfg.recorder.count("fleet.config.update", 1);
        ops.len() as u64
    }

    /// Propagate a site reconfiguration fleet-wide: every node bumps its
    /// EDC epoch for `site`, orphaning descriptions and results derived
    /// from the stale environment. Returns the new fleet epoch.
    pub fn reconfigure_site(&self, site: &str) -> Result<u64, SvcError> {
        // Validate against any node's site table (all nodes share one).
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

    /// Route, dispatch (with failover and hedging) and answer one
    /// request.
    pub fn predict(&self, req: &PredictRequest) -> Result<FleetResponse, FleetError> {
        let inner = &self.inner;
        let rec = &inner.cfg.recorder;
        rec.count("fleet.requests", 1);

        let Some(replicas) = self.replica_set(&req.binary_ref, &req.target_site) else {
            return Err(FleetError::Svc(SvcError::UnknownBinary(
                req.binary_ref.clone(),
            )));
        };

        // Candidate order: the replica set, then (degraded fallback)
        // every other node. `degraded_from` marks where fallback starts.
        let degraded_from = replicas.len();
        let mut candidates = replicas;
        for i in 0..inner.nodes.len() {
            if !candidates.contains(&i) {
                candidates.push(i);
            }
        }

        let mut failovers = 0u32;
        let mut attempts = 0u32;
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
            if degraded_route && pos == degraded_from {
                rec.count("fleet.fallback.degraded", 1);
            }
            attempts += 1;
            match inner.dispatch(i, req) {
                Ok(Delivery::Ready(resp)) => {
                    inner.observe_success(i, &resp);
                    return Ok(FleetResponse {
                        node: inner.nodes[i].name.clone(),
                        failovers,
                        hedged: false,
                        degraded_route,
                        response: resp,
                    });
                }
                Ok(Delivery::Pending(rx)) => {
                    return self.await_answer(
                        i,
                        rx,
                        &candidates[pos + 1..],
                        req,
                        failovers,
                        degraded_route,
                    );
                }
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
                    return Err(FleetError::Svc(e));
                }
            }
        }
        rec.count("fleet.unavailable", 1);
        Err(FleetError::Unavailable { attempts })
    }

    /// Wait for a pending answer, hedging to the next viable candidate if
    /// the primary is slow. First answer wins; the loser's (eventual)
    /// answer is discarded with its receiver.
    fn await_answer(
        &self,
        primary: usize,
        rx: mpsc::Receiver<Result<PredictResponse, SvcError>>,
        backups: &[usize],
        req: &PredictRequest,
        failovers: u32,
        degraded_route: bool,
    ) -> Result<FleetResponse, FleetError> {
        let inner = &self.inner;
        let rec = &inner.cfg.recorder;

        let hedge_after = match inner.cfg.hedge_after {
            Some(d) => d,
            None => {
                return match rx.recv() {
                    Ok(out) => inner.settle(primary, out, failovers, false, degraded_route),
                    Err(_) => {
                        // The answer channel died without an outcome to
                        // attribute: free the admitted probe slot.
                        inner.release_probe(primary);
                        Err(FleetError::Svc(SvcError::ShuttingDown))
                    }
                };
            }
        };

        // Phase 1: give the primary `hedge_after` to answer.
        match rx.recv_timeout(hedge_after) {
            Ok(out) => return inner.settle(primary, out, failovers, false, degraded_route),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                inner.release_probe(primary);
                return Err(FleetError::Svc(SvcError::ShuttingDown));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }

        // Phase 2: fire one hedge at the first viable backup.
        let mut hedge: Option<(usize, mpsc::Receiver<Result<PredictResponse, SvcError>>)> = None;
        for &b in backups {
            let now = inner.now_ms();
            if !inner.nodes[b].reachable()
                || !inner.nodes[b].health.lock().expect("health").admit(now)
            {
                continue;
            }
            match inner.dispatch(b, req) {
                Ok(Delivery::Ready(resp)) => {
                    rec.count("fleet.hedge.fired", 1);
                    rec.count("fleet.hedge.won", 1);
                    inner.observe_success(b, &resp);
                    // The primary's eventual answer is discarded — its
                    // probe slot comes back without an outcome.
                    inner.release_probe(primary);
                    return Ok(FleetResponse {
                        node: inner.nodes[b].name.clone(),
                        failovers,
                        hedged: true,
                        degraded_route,
                        response: resp,
                    });
                }
                Ok(Delivery::Pending(hrx)) => {
                    rec.count("fleet.hedge.fired", 1);
                    hedge = Some((b, hrx));
                    break;
                }
                Err(_) => {
                    inner.observe_error(b);
                    continue;
                }
            }
        }

        let Some((hb, hrx)) = hedge else {
            // No viable hedge target: wait the primary out.
            return match rx.recv() {
                Ok(out) => inner.settle(primary, out, failovers, false, degraded_route),
                Err(_) => {
                    inner.release_probe(primary);
                    Err(FleetError::Svc(SvcError::ShuttingDown))
                }
            };
        };

        // Phase 3: race primary and hedge; first answer wins. The loser's
        // discarded dispatch returns its probe slot without an outcome —
        // exactly once, guarded by the alive flags.
        let tick = Duration::from_millis(1);
        let mut primary_alive = true;
        let mut hedge_alive = true;
        loop {
            if primary_alive {
                match rx.recv_timeout(tick) {
                    Ok(out) => {
                        if hedge_alive {
                            inner.release_probe(hb);
                        }
                        return inner.settle(primary, out, failovers, false, degraded_route);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        primary_alive = false;
                        inner.release_probe(primary);
                    }
                }
            }
            if hedge_alive {
                match hrx.recv_timeout(tick) {
                    Ok(out) => {
                        rec.count("fleet.hedge.won", 1);
                        if primary_alive {
                            inner.release_probe(primary);
                        }
                        return inner.settle(hb, out, failovers, true, degraded_route);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        hedge_alive = false;
                        inner.release_probe(hb);
                    }
                }
            }
            if !primary_alive && !hedge_alive {
                return Err(FleetError::Svc(SvcError::ShuttingDown));
            }
        }
    }

    /// Fleet shutdown: stop replication, then drop the nodes (each joins
    /// its workers).
    pub fn shutdown(&mut self) {
        self.repl_tx = None; // closes the channel; the thread drains and exits
        if let Some(h) = self.repl_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Fleet {
    /// Hand a cacheable answer to the replication thread (non-blocking).
    /// `epoch` is the fleet epoch captured *before* the answer was
    /// computed; the origin coordinates (content key, EDC epoch) are
    /// read from the winner. Any config op landing anywhere in the
    /// window is caught by the epoch gate in `replication_loop` (epochs
    /// only grow, so a stale stamp can never match again) or, for ops
    /// racing the install itself, by the coordinate verification inside
    /// `install_result`.
    fn replicate(&self, req: &PredictRequest, winner: usize, resp: &PredictResponse, epoch: u64) {
        let Some(tx) = &self.repl_tx else { return };
        let Some(replicas) = self.replica_set(&req.binary_ref, &req.target_site) else {
            return;
        };
        let targets: Vec<usize> = replicas.into_iter().filter(|&i| i != winner).collect();
        if targets.is_empty() {
            return;
        }
        let svc = &self.inner.nodes[winner].svc;
        let Some(origin) = svc.result_origin(&req.binary_ref, &req.target_site) else {
            return;
        };
        let _ = tx.send(ReplicationJob {
            binary_ref: req.binary_ref.clone(),
            site: req.target_site.clone(),
            mode: req.mode,
            prediction: resp.prediction.clone(),
            evaluation: resp.evaluation.clone(),
            epoch,
            origin,
            targets,
            enqueued: Instant::now(),
        });
    }

    /// `predict`, then replicate the answer if it is clean and fresh.
    /// The public entry point used by the bench and conform crossing.
    pub fn predict_replicated(&self, req: &PredictRequest) -> Result<FleetResponse, FleetError> {
        // Capture the epoch BEFORE evaluating, so a config op landing
        // while the answer is in flight leaves the job stamped with the
        // pre-op epoch and the freshness gate drops it. Stamping after
        // the fact would let an answer computed against old bytes or a
        // stale environment slip through under the new epoch.
        let epoch = self.epoch();
        let out = self.predict(req)?;
        if out.response.cacheable && !out.response.from_result_cache {
            if let Some(winner) = self.inner.nodes.iter().position(|n| n.name == out.node) {
                self.replicate(req, winner, &out.response, epoch);
            }
        }
        Ok(out)
    }
}

impl FleetInner {
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
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
                ConfigOp::Register {
                    name,
                    image,
                    home_site,
                } => {
                    // ContentChanged cannot happen: the routes map
                    // rejected conflicting registrations before logging.
                    let _ = node
                        .svc
                        .register_binary(name, RegisteredBinary::new(image.clone(), home_site));
                }
                ConfigOp::Update {
                    name,
                    image,
                    home_site,
                } => {
                    node.svc
                        .update_binary(name, RegisteredBinary::new(image.clone(), home_site));
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
        hedged: bool,
        degraded_route: bool,
    ) -> Result<FleetResponse, FleetError> {
        match out {
            Ok(resp) => {
                self.observe_success(node_idx, &resp);
                Ok(FleetResponse {
                    node: self.nodes[node_idx].name.clone(),
                    failovers,
                    hedged,
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

    fn observe_success(&self, i: usize, resp: &PredictResponse) {
        let now = self.now_ms();
        self.nodes[i]
            .health
            .lock()
            .expect("health")
            .record_success(now, resp.latency_us as f64);
        self.publish_state_gauges();
    }

    /// Return node `i`'s admitted probe slot without recording an
    /// outcome — the dispatch resolved in a way that says nothing about
    /// the node's health (request-scoped rejection, discarded hedge
    /// loser, dead answer channel). Every `admit` must be balanced by
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

/// The replication thread: installs cacheable answers on replica peers,
/// dropping anything whose epoch went stale in flight.
fn replication_loop(inner: &FleetInner, rx: mpsc::Receiver<ReplicationJob>) {
    let rec = &inner.cfg.recorder;
    while let Ok(job) = rx.recv() {
        let lag_us = job.enqueued.elapsed().as_micros() as f64;
        for &t in &job.targets {
            let node = &inner.nodes[t];
            let fresh = node.reachable()
                && node.applied_epoch.load(Ordering::SeqCst) == job.epoch
                && inner.epoch.load(Ordering::SeqCst) == job.epoch;
            let installed = fresh
                && node.svc.install_result(
                    &job.binary_ref,
                    &job.site,
                    job.mode,
                    job.origin,
                    &job.prediction,
                    &job.evaluation,
                );
            if installed {
                rec.count("fleet.replication.applied", 1);
            } else {
                rec.count("fleet.replication.dropped", 1);
            }
        }
        rec.observe("fleet.replication.lag_us", lag_us);
    }
}
