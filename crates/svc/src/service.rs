//! The prediction service: bounded admission, single-flight coalescing,
//! result memoization, and a worker pool running the FEAM phases.
//!
//! Request lifecycle:
//!
//! 1. **Resolve** — `binary_ref` and `target_site` must be registered;
//!    unknown names fail fast without touching the queue.
//! 2. **Result cache** — a completed evaluation for the same
//!    `(content, site, epoch, mode)` key answers immediately; an extended
//!    key also names the home site and its epoch.
//! 3. **Coalesce** — an in-flight evaluation for the same key adopts this
//!    request as an extra waiter; one phase run fans out to all of them.
//! 4. **Admit or shed** — a fixed-capacity queue feeds the workers; a
//!    full queue sheds with the retryable [`SvcError::Overloaded`] rather
//!    than queueing unboundedly.
//! 5. **Run** — the flight's task waits in the pool's FIFO. Whichever
//!    comes first runs it: a pool thread, or the first waiter to call
//!    [`Pending::recv`] while it is still queued, which runs it on the
//!    calling thread instead of sleeping through a thread hop. A lone
//!    flight is queued without waking a pool thread; one is woken by the
//!    next push, an unreceived [`Pending`]'s drop, or a shed.
//!
//! Evaluations run the ordinary [`feam_core::phases`] entry points with
//! the shared [`PhaseCaches`] installed, so the BDC/EDC description caches
//! are populated and consulted exactly as the phases themselves decide —
//! including the poisoning guard that keeps faulted computations out.

use feam_core::cache::{BdcKey, PhaseCaches};
use feam_core::phases::{run_source_phase, run_target_phase, PhaseConfig};
use feam_core::predict::PredictionMode;
use feam_core::tec::TargetEvaluation;
use feam_obs::TraceCtx;
use feam_sim::faults::FaultPlan;
use feam_sim::site::Site;
use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, Weak};
use std::time::Instant;

use crate::pool::Pool;
use crate::registry::{BinaryRegistry, RegisteredBinary, RegistryError};

/// One prediction query.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Registered name of the binary ([`crate::BinaryRegistry`]).
    pub binary_ref: String,
    /// Name of the target site.
    pub target_site: String,
    /// Basic (target-only) or extended (source + target) prediction.
    pub mode: PredictionMode,
    /// Optional deadline. Checked when a worker dequeues the request: an
    /// expired waiter is answered with [`SvcError::DeadlineExceeded`]
    /// instead of being evaluated, and a flight whose every waiter has
    /// expired is dropped without running the phases at all. Result-cache
    /// hits always answer (the work is already done). `None` never
    /// expires.
    pub deadline: Option<Instant>,
}

/// One evaluation's answer. It is built once per evaluation and shared
/// by the result cache and every waiter's [`PredictResponse`]. It reads through to its evaluation: `answer.prediction`
/// is the per-determinant prediction (its mode may downgrade to `Basic`
/// when an extended request's source phase is impossible, e.g. no GEE).
#[derive(Debug)]
pub struct PredictAnswer {
    /// The full TEC output: the prediction and what backs it.
    pub evaluation: TargetEvaluation,
}

impl std::ops::Deref for PredictAnswer {
    type Target = TargetEvaluation;

    fn deref(&self) -> &TargetEvaluation {
        &self.evaluation
    }
}

/// A completed prediction. Its answer's `prediction` and `evaluation`
/// read through the response (`resp.prediction`).
#[derive(Debug, Clone)]
pub struct PredictResponse {
    /// The binary's registered name, shared with the registry.
    pub binary_ref: Arc<str>,
    /// The target site's name, shared with the service's site list.
    pub target_site: Arc<str>,
    /// The answer, shared with the result cache.
    pub answer: Arc<PredictAnswer>,
    /// Whether this answer came straight from the result cache.
    pub from_result_cache: bool,
    /// This waiter's end-to-end latency, submit to delivery.
    pub latency_us: u64,
    /// The same latency at nanosecond resolution: result-cache hits
    /// routinely answer in under a microsecond, where `latency_us`
    /// truncates to 0.
    pub latency_ns: u64,
}

/// Why a request was rejected without being evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcError {
    /// `binary_ref` is not registered.
    UnknownBinary(String),
    /// `target_site` names no known site.
    UnknownSite(String),
    /// The admission queue is full; retry after backoff.
    Overloaded { queue_depth: usize },
    /// A registration presented different bytes for an already-bound
    /// name. Changed content goes through
    /// [`PredictService::update_binary`] (which bumps the name's
    /// generation) or takes a new name; silently rebinding would let
    /// coalesced waiters and cached results answer for the wrong binary.
    ContentChanged { name: String },
    /// The request's deadline passed before a worker dequeued it; it was
    /// shed without being evaluated. Not retryable as-is — the caller
    /// must extend or drop the deadline.
    DeadlineExceeded,
    /// The service is shutting down; in-flight work is abandoned.
    ShuttingDown,
}

impl SvcError {
    /// Should the caller retry (with backoff)? Shedding is a transient
    /// condition; unknown names and shutdown are not.
    pub fn retryable(&self) -> bool {
        matches!(self, SvcError::Overloaded { .. })
    }
}

impl std::ops::Deref for PredictResponse {
    type Target = PredictAnswer;

    fn deref(&self) -> &PredictAnswer {
        &self.answer
    }
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::UnknownBinary(b) => write!(f, "unknown binary {b:?}"),
            SvcError::UnknownSite(s) => write!(f, "unknown site {s:?}"),
            SvcError::Overloaded { queue_depth } => {
                write!(f, "admission queue full ({queue_depth} deep); retry later")
            }
            SvcError::ContentChanged { name } => write!(
                f,
                "binary name {name:?} is already bound to different content; \
                 use update_binary or register under a new name"
            ),
            SvcError::DeadlineExceeded => {
                write!(f, "deadline expired before evaluation; request shed")
            }
            SvcError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for SvcError {}

/// Outcome of a non-blocking [`PredictService::submit`].
pub enum Delivery {
    /// Answered from the result cache without queueing.
    Ready(PredictResponse),
    /// Queued (or coalesced onto an in-flight evaluation); the response —
    /// or a post-admission rejection such as
    /// [`SvcError::DeadlineExceeded`] — arrives through the handle, whose
    /// [`recv`](Pending::recv) runs the flight itself if no pool thread
    /// has started it.
    Pending(Pending),
}

/// A queued or coalesced request's answer to come. Every waiter on one
/// flight holds a handle to the same pool task.
///
/// * [`recv`](Pending::recv) takes the task out of the pool's FIFO if it is
///   still there and runs it on the calling thread, then reads the answer.
/// * Dropping a handle that `recv` has not seen wakes a pool thread, so
///   the flight still runs and lands in the result cache.
///
/// The handle holds its pool weakly: once the service is dropped, `recv`
/// runs nothing, reads the closed channel and fails.
pub struct Pending {
    rx: mpsc::Receiver<Result<PredictResponse, SvcError>>,
    pool: Weak<Pool>,
    task: u64,
    /// No `recv` has run yet, so a drop must wake.
    unseen: Cell<bool>,
}

impl Pending {
    /// Run the flight here if no thread has dequeued it, then block for
    /// the answer. `Err` when the service went away without answering.
    /// Another thread running the flight (a pool thread, or the caller a
    /// read coalesced onto) answers this handle when it lands.
    pub fn recv(&self) -> Result<Result<PredictResponse, SvcError>, mpsc::RecvError> {
        self.unseen.set(false);
        if let Some(task) = self.pool.upgrade().and_then(|pool| pool.take(self.task)) {
            task();
        }
        self.rx.recv()
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.unseen.get() {
            if let Some(pool) = self.pool.upgrade() {
                pool.wake();
            }
        }
    }
}

impl std::fmt::Debug for Delivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Delivery::Ready(r) => f.debug_tuple("Ready").field(r).finish(),
            Delivery::Pending(_) => f.write_str("Pending(..)"),
        }
    }
}

/// Service tuning knobs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads evaluating queued requests.
    pub workers: usize,
    /// Admission queue capacity; submissions beyond it shed.
    pub queue_capacity: usize,
    /// EDC entry time-to-live in logical ticks (one tick per submitted
    /// request); 0 = entries live until their site's epoch is bumped.
    pub edc_ttl: u64,
    /// Memoize full evaluations by `(content, site, epoch, mode)`.
    pub result_cache: bool,
    /// Master cache switch; `false` turns every layer off (the
    /// `FEAM_CACHE=0` twin used to pin result equivalence).
    pub caching: bool,
    /// Seed for the simulated standard sites.
    pub sites_seed: u64,
    /// Seed for FEAM's own probe compilations.
    pub phase_seed: u64,
    /// Telemetry recorder threaded through the service and the phases.
    pub recorder: feam_obs::Recorder,
    /// Explicit fault plan for the phases. `None` uses the ambient plan
    /// from `FEAM_CHAOS_*`; tests that require strict determinism pin
    /// [`FaultPlan::none`] here regardless of the environment.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            edc_ttl: 0,
            result_cache: true,
            caching: feam_core::cache::caching_enabled_from_env(),
            sites_seed: 7,
            phase_seed: 0xFEA4,
            recorder: feam_obs::Recorder::disabled(),
            fault_plan: None,
        }
    }
}

/// The memoization key: everything an answer derives from. The full
/// content key of the binary (primary hash + length + second-hash
/// discriminators, so FNV collisions cannot alias), the target site (its
/// index in the service's site list) at a specific configuration epoch,
/// and the prediction mode; an extended answer also derives from the
/// source phase at the binary's home site, so its key names that site and
/// its epoch too (`None` and 0 for a basic answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RequestKey {
    binary_key: BdcKey,
    site: usize,
    epoch: u64,
    extended: bool,
    home: Option<usize>,
    home_epoch: u64,
}

struct Waiter {
    since: Instant,
    /// This waiter's deadline; checked when its flight is dequeued.
    deadline: Option<Instant>,
    /// This waiter's own request context: every waiter gets its own
    /// `svc.request` span (begun at submit, ended at delivery) and trace
    /// id, even when coalesced onto another request's evaluation.
    ctx: TraceCtx,
    tx: mpsc::Sender<Result<PredictResponse, SvcError>>,
}

/// One in-flight evaluation: the leader request whose context the worker
/// evaluates under, every waiter (leader included) to fan out to, and the
/// pool task that runs it, which every waiter's [`Pending`] may take back.
struct Flight {
    leader: TraceCtx,
    waiters: Vec<Waiter>,
    task: u64,
}

struct Job {
    key: RequestKey,
    /// The leader's trace context; the worker parents `svc.eval` (and
    /// thereby the phases) on it across the thread hop.
    ctx: TraceCtx,
    /// Queue entry time, for `svc.queue.wait_us` (wall-clock time spent
    /// waiting for a worker, separate from evaluation time).
    enqueued: Instant,
    binary_ref: Arc<str>,
    /// The binding as resolved at submit time: the evaluation always runs
    /// over the bytes the waiters asked about, even if the name is
    /// updated mid-flight.
    binary: Arc<RegisteredBinary>,
    /// Registry generation of the binding at submit time; compared
    /// against the current generation before memoizing, so an evaluation
    /// that raced an update never publishes a stale result.
    generation: u64,
    mode: PredictionMode,
}

struct Inner {
    cfg: ServiceConfig,
    /// Shared with every sibling: a fleet builds its site list once.
    sites: Arc<[Site]>,
    /// Site names in site order, shared with every response.
    site_names: Vec<Arc<str>>,
    site_idx: HashMap<String, usize>,
    /// Each site's EDC epoch, by site index: the value the EDC layer
    /// returned at the site's last reconfiguration, read on every submit
    /// without hashing a name.
    epochs: Vec<AtomicU64>,
    registry: RwLock<BinaryRegistry>,
    phase_cfg: PhaseConfig,
    caches: Option<Arc<PhaseCaches>>,
    results: Mutex<HashMap<RequestKey, Arc<PredictAnswer>>>,
    inflight: Mutex<HashMap<RequestKey, Flight>>,
    /// Admission-queue depth: raised under the inflight lock, where the
    /// capacity check runs; lowered when the job is dequeued, by a pool
    /// thread or by a waiter that claimed it.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Evaluations actually run (i.e. not answered by the result cache or
    /// coalesced onto another request's flight).
    evaluated: AtomicU64,
}

/// The long-running prediction service. Construct, register binaries,
/// [`start`](PredictService::start) the workers, then
/// [`predict`](PredictService::predict) / [`submit`](PredictService::submit)
/// from any thread. Dropping the service drains and joins its pool, which
/// sits beside `inner` so that a queued task never owns its own pool.
pub struct PredictService {
    inner: Arc<Inner>,
    pool: Arc<Pool>,
}

impl PredictService {
    /// A service over the paper's standard simulated sites.
    pub fn new(cfg: ServiceConfig) -> Self {
        let sites = feam_workloads::sites::standard_sites(cfg.sites_seed);
        Self::with_sites(cfg, sites)
    }

    /// A service over an explicit site list.
    pub fn with_sites(cfg: ServiceConfig, sites: Vec<Site>) -> Self {
        Self::over(cfg, sites.into(), Arc::default())
    }

    /// A service like this one, with its own caches, registry and epochs,
    /// over the same site list and pool: a fleet's nodes 1..n.
    pub(crate) fn sibling(&self) -> Self {
        let sites = Arc::clone(&self.inner.sites);
        Self::over(self.inner.cfg.clone(), sites, Arc::clone(&self.pool))
    }

    fn over(cfg: ServiceConfig, sites: Arc<[Site]>, pool: Arc<Pool>) -> Self {
        let caches = cfg.caching.then(|| Arc::new(PhaseCaches::new(cfg.edc_ttl)));
        let mut phase_cfg = PhaseConfig {
            seed: cfg.phase_seed,
            recorder: cfg.recorder.clone(),
            caches: caches.clone(),
            ..PhaseConfig::default()
        };
        if let Some(plan) = &cfg.fault_plan {
            phase_cfg.faults = plan.clone();
        }
        let site_names: Vec<Arc<str>> = sites.iter().map(|s| s.name().into()).collect();
        let site_idx = sites
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name().to_string(), i))
            .collect();
        PredictService {
            inner: Arc::new(Inner {
                cfg,
                sites,
                epochs: site_names.iter().map(|_| AtomicU64::new(0)).collect(),
                registry: RwLock::new(BinaryRegistry::over_sites(site_names.clone())),
                site_names,
                site_idx,
                phase_cfg,
                caches,
                results: Mutex::new(HashMap::new()),
                inflight: Mutex::new(HashMap::new()),
                queued: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                evaluated: AtomicU64::new(0),
            }),
            pool,
        }
    }

    /// Register a binary under `name`; valid before or after
    /// [`start`](PredictService::start). Re-registering the same content
    /// is an idempotent no-op; different content under an existing name
    /// is rejected with [`SvcError::ContentChanged`] — a changed binary
    /// goes through [`update_binary`](PredictService::update_binary) (or
    /// takes a new name) so cached answers and coalesced waiters never
    /// alias.
    pub fn register_binary(&self, name: &str, binary: RegisteredBinary) -> Result<(), SvcError> {
        self.register_bound(name, self.bind(binary))
    }

    /// `binary` with its home site resolved against this service's site
    /// list: a binding that any service over the same site list may hold.
    pub(crate) fn bind(&self, binary: RegisteredBinary) -> Arc<RegisteredBinary> {
        self.inner.registry.read().expect("registry").bind(binary)
    }

    /// [`register_binary`](PredictService::register_binary) for a binding
    /// from [`bind`](PredictService::bind): a fleet registers one binding
    /// on every node.
    pub(crate) fn register_bound(
        &self,
        name: &str,
        binding: Arc<RegisteredBinary>,
    ) -> Result<(), SvcError> {
        self.inner
            .registry
            .write()
            .expect("registry")
            .insert_bound(name, binding)
            .map_err(|RegistryError::ContentConflict { name }| SvcError::ContentChanged { name })
    }

    /// Replace `name`'s bytes (or create the binding), bumping its
    /// generation. The name keeps the results of its current and its
    /// previous content, so an update back to the bytes it held one update
    /// ago answers from the result cache; results of the content that falls
    /// out of that pair are purged unless another name still binds it. Any
    /// evaluation already in flight for the old bytes will deliver to its
    /// waiters but is barred from the result cache by the generation check
    /// in `process`. Returns the new generation.
    pub fn update_binary(&self, name: &str, binary: RegisteredBinary) -> u64 {
        self.update_bound(name, self.bind(binary))
    }

    /// [`update_binary`](PredictService::update_binary) for a binding from
    /// [`bind`](PredictService::bind): a fleet updates every node to one
    /// binding.
    pub(crate) fn update_bound(&self, name: &str, binding: Arc<RegisteredBinary>) -> u64 {
        let (generation, fallen) = self
            .inner
            .registry
            .write()
            .expect("registry")
            .update_bound(name, binding);
        if let Some(content) = fallen {
            // Nothing binds these bytes any more, and the key embeds the
            // content key: drop their results eagerly.
            self.inner
                .results
                .lock()
                .expect("results")
                .retain(|k, _| k.binary_key != content);
        }
        self.inner.cfg.recorder.count("svc.binary_update", 1);
        generation
    }

    /// Spawn `workers` pool threads. Idempotent; tests submit against an
    /// unstarted service to observe queueing, coalescing and shedding
    /// deterministically.
    pub fn start(&mut self) {
        self.pool.start(self.inner.cfg.workers);
    }

    /// Number of registered binaries.
    pub fn registered(&self) -> usize {
        self.inner.registry.read().expect("registry").len()
    }

    /// The current generation of `name`'s binding (bumped by every
    /// [`update_binary`](PredictService::update_binary)).
    pub fn binary_generation(&self, name: &str) -> Option<u64> {
        self.inner
            .registry
            .read()
            .expect("registry")
            .generation(name)
    }

    /// The primary hash of `name`'s content key: a fleet's ring key.
    pub(crate) fn content_hash(&self, name: &str) -> Option<u64> {
        self.inner
            .registry
            .read()
            .expect("registry")
            .get(name)
            .map(|binding| binding.content_key.hash)
    }

    /// The binding `name` resolves to now: its image, content key, home
    /// site and source-bundle memo.
    pub fn binding(&self, name: &str) -> Option<Arc<RegisteredBinary>> {
        self.inner
            .registry
            .read()
            .expect("registry")
            .get(name)
            .cloned()
    }

    /// Site names served, in site order.
    pub fn site_names(&self) -> Vec<String> {
        self.inner
            .sites
            .iter()
            .map(|s| s.name().to_string())
            .collect()
    }

    /// Registered binary names, sorted (the load generator's universe).
    pub fn binary_names(&self) -> Vec<String> {
        self.inner.registry.read().expect("registry").names()
    }

    /// Evaluations the worker pool has actually run.
    pub fn evaluations(&self) -> u64 {
        self.inner.evaluated.load(Ordering::Relaxed)
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::SeqCst)
    }

    /// The shared description caches (None when caching is off).
    pub fn caches(&self) -> Option<&Arc<PhaseCaches>> {
        self.inner.caches.as_ref()
    }

    /// The telemetry recorder threaded through the service.
    pub fn recorder(&self) -> &feam_obs::Recorder {
        &self.inner.cfg.recorder
    }

    /// Transient-error rate of `site`'s queueing system — the planner's
    /// expected-launch-attempts input. `None` for unknown sites.
    pub fn site_transient_rate(&self, site: &str) -> Option<f64> {
        self.inner
            .site_idx
            .get(site)
            .map(|&i| self.inner.sites[i].config.transient_error_rate)
    }

    /// The served [`Site`] named `name`, if any. Checker ensembles scan
    /// site library inventories through this.
    pub fn site(&self, name: &str) -> Option<&Site> {
        self.inner.site_idx.get(name).map(|&i| &self.inner.sites[i])
    }

    /// The fault plan every service-side session runs under. Ensemble
    /// checkers collect inventories under the same plan so chaos
    /// perturbs them exactly like the pipeline's own reads.
    pub fn fault_plan(&self) -> Arc<feam_sim::faults::FaultPlan> {
        self.inner.phase_cfg.faults.clone()
    }

    /// Entries currently memoized in the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.inner.results.lock().expect("results").len()
    }

    /// Signal that `site` was reconfigured: bumps its EDC epoch so every
    /// cached description and result derived from the stale environment is
    /// orphaned, extended results whose source phase ran there included.
    /// Returns the new epoch (0 when caching is off — there is nothing to
    /// invalidate).
    pub fn reconfigure_site(&self, site: &str) -> Result<u64, SvcError> {
        let Some(&idx) = self.inner.site_idx.get(site) else {
            return Err(SvcError::UnknownSite(site.to_string()));
        };
        let Some(caches) = &self.inner.caches else {
            return Ok(0);
        };
        // The EDC layer moves first: a submit that reads the new epoch
        // evaluates against the new environment.
        let epoch = caches.edc.invalidate(site);
        self.inner.epochs[idx].store(epoch, Ordering::SeqCst);
        // Old-epoch results are unreachable (the key embeds the target's
        // and the home site's epoch); drop them eagerly so the map doesn't
        // accumulate garbage.
        self.inner
            .results
            .lock()
            .expect("results")
            .retain(|k, _| k.site != idx && k.home != Some(idx));
        self.inner.cfg.recorder.count("svc.epoch_bump", 1);
        Ok(epoch)
    }

    /// Submit without blocking: either an immediate cached answer or a
    /// [`Pending`] handle to receive (and maybe run) the evaluation on.
    pub fn submit(&self, req: &PredictRequest) -> Result<Delivery, SvcError> {
        self.submit_traced(req, TraceCtx::NONE)
    }

    /// [`submit`](PredictService::submit) with an explicit parent trace
    /// context: the request's `svc.request` span parents on
    /// `parent.span_id` and joins `parent.trace_id` (the planner hands
    /// its per-site span context here so a whole plan correlates under
    /// one trace id). Pass [`TraceCtx::NONE`] for a standalone request —
    /// it mints its own trace.
    pub fn submit_traced(
        &self,
        req: &PredictRequest,
        parent: TraceCtx,
    ) -> Result<Delivery, SvcError> {
        let inner = &self.inner;
        let rec = &inner.cfg.recorder;
        let t0 = Instant::now();
        rec.count("svc.requests", 1);

        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(SvcError::ShuttingDown);
        }
        let Some(&site_idx) = inner.site_idx.get(&req.target_site) else {
            return Err(SvcError::UnknownSite(req.target_site.clone()));
        };
        let (name, binary, generation) = {
            let registry = inner.registry.read().expect("registry");
            let Some(slot) = registry.slot(&req.binary_ref) else {
                return Err(SvcError::UnknownBinary(req.binary_ref.clone()));
            };
            (slot.name.clone(), slot.binary.clone(), slot.generation)
        };

        // One logical tick per submitted request: the EDC TTL is measured
        // in "requests of staleness".
        if let Some(c) = &inner.caches {
            c.edc.advance_clock();
        }
        let extended = req.mode == PredictionMode::Extended;
        let home = binary.home.filter(|_| extended);
        let key = RequestKey {
            binary_key: binary.content_key,
            site: site_idx,
            epoch: inner.epoch(Some(site_idx)),
            extended,
            home,
            home_epoch: inner.epoch(home),
        };

        // Every request gets a trace context. A cache hit never opens a
        // span (keeping the hot path to a handful of atomics), so its
        // trace id appears only in the latency observation; queued and
        // coalesced requests get a full `svc.request` span.
        let ctx = {
            let minted = rec.mint_ctx();
            if parent.is_none() || minted.is_none() {
                minted
            } else {
                TraceCtx {
                    trace_id: parent.trace_id,
                    span_id: minted.span_id,
                }
            }
        };
        let parent_opt = (!parent.is_none()).then_some(parent);

        // Fast path: a finished evaluation for this exact key.
        if inner.cfg.result_cache && inner.caches.is_some() {
            if let Some(resp) = result_hit(inner, &key, &name, t0, ctx, false) {
                return Ok(Delivery::Ready(resp));
            }
            rec.count("svc.result.miss", 1);
        }

        // This request will wait on a worker (its own flight or another
        // request's): open its span now; it ends at delivery.
        rec.span_begin_at("svc.request", ctx, parent_opt);
        let (tx, rx) = mpsc::channel();
        let waiter = Waiter {
            since: t0,
            deadline: req.deadline,
            ctx,
            tx,
        };

        let pending = |task| {
            Delivery::Pending(Pending {
                rx,
                pool: Arc::downgrade(&self.pool),
                task,
                unseen: Cell::new(true),
            })
        };

        // Single flight: adopt an in-flight evaluation when one exists.
        // The waiter keeps its own span and trace; the explicit
        // `svc.coalesced_onto` link records whose evaluation will answer
        // it, so the leader's trace is reachable from the waiter's.
        let mut inflight = inner.inflight.lock().expect("inflight");
        let vacant = match inflight.entry(key) {
            Entry::Occupied(mut flight) => {
                let flight = flight.get_mut();
                rec.event_at(
                    "svc.coalesced_onto",
                    ctx,
                    &[("leader_trace", flight.leader.trace_id.into())],
                );
                flight.waiters.push(waiter);
                rec.count("svc.coalesced", 1);
                return Ok(pending(flight.task));
            }
            Entry::Vacant(vacant) => vacant,
        };

        // The flight may have landed between the fast-path probe and
        // taking the inflight lock: `process` publishes its result and
        // clears the inflight entry atomically under this lock, so a
        // re-check here (lock order inflight → results, same as process)
        // closes the window where a key is in neither map and would be
        // evaluated twice.
        if inner.cfg.result_cache && inner.caches.is_some() {
            if let Some(resp) = result_hit(inner, &key, &name, t0, ctx, true) {
                return Ok(Delivery::Ready(resp));
            }
        }

        // Admission control: shed when the queue is full. The shed also
        // wakes a pool thread: a retry loop holding every queued flight's
        // handle unreceived would otherwise wait on a FIFO nobody drains.
        let depth = inner.queued.load(Ordering::SeqCst);
        if depth >= inner.cfg.queue_capacity {
            rec.count("queue.shed", 1);
            drop(inflight);
            self.pool.wake();
            rec.event_at("svc.shed", ctx, &[("queue_depth", depth.into())]);
            rec.span_end_at("svc.request", ctx, t0.elapsed().as_micros() as u64);
            rec.finish_trace(ctx);
            return Err(SvcError::Overloaded { queue_depth: depth });
        }
        let depth = inner.queued.fetch_add(1, Ordering::SeqCst) + 1;
        let job = Job {
            key,
            ctx,
            enqueued: Instant::now(),
            binary_ref: name,
            binary,
            generation,
            mode: req.mode,
        };
        let task_inner = inner.clone();
        // Queued under the inflight lock, before the flight is recorded:
        // a pool thread that dequeues the task at once blocks in `process`
        // until the flight it looks up is there.
        let task = self.pool.push_deferred(move || process(&task_inner, job));
        vacant.insert(Flight {
            leader: ctx,
            waiters: vec![waiter],
            task,
        });
        drop(inflight);
        rec.observe("queue.depth", depth as f64);
        rec.gauge("svc.queue.depth", depth as f64);
        Ok(pending(task))
    }

    /// Submit and block until the answer arrives.
    pub fn predict(&self, req: &PredictRequest) -> Result<PredictResponse, SvcError> {
        match self.submit(req)? {
            Delivery::Ready(resp) => Ok(resp),
            Delivery::Pending(rx) => rx.recv().map_err(|_| SvcError::ShuttingDown)?,
        }
    }
}

impl Drop for PredictService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.pool.shutdown();
    }
}

impl Inner {
    /// The EDC epoch of the site at `idx`; 0 for no site.
    fn epoch(&self, idx: Option<usize>) -> u64 {
        idx.map_or(0, |i| self.epochs[i].load(Ordering::SeqCst))
    }
}

/// Answer the request for `name` from the result cache when a finished
/// evaluation for `key` is there; `None` on a miss. The results lock is
/// held while the answer is built. `span_open`: the request's
/// `svc.request` span is already begun, and the hit ends it.
fn result_hit(
    inner: &Inner,
    key: &RequestKey,
    name: &Arc<str>,
    t0: Instant,
    ctx: TraceCtx,
    span_open: bool,
) -> Option<PredictResponse> {
    let rec = &inner.cfg.recorder;
    if let Some(hit) = inner.results.lock().expect("results").get(key).cloned() {
        rec.count("svc.result.hit", 1);
        rec.count("svc.responses", 1);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        let latency_us = latency_ns / 1_000;
        if span_open {
            rec.span_end_at("svc.request", ctx, latency_us);
        }
        rec.observe_tail("svc.latency_us", latency_us as f64, ctx);
        rec.finish_trace(ctx);
        return Some(PredictResponse {
            binary_ref: name.clone(),
            target_site: inner.site_names[key.site].clone(),
            answer: hit,
            from_result_cache: true,
            latency_us,
            latency_ns,
        });
    }
    None
}

/// Evaluate one queued request and fan the answer out to every waiter.
fn process(inner: &Inner, job: Job) {
    let rec = &inner.cfg.recorder;
    // Sample the depth at dequeue as well as at enqueue, so a draining
    // queue is visible even with no new submissions.
    let depth = inner.queued.fetch_sub(1, Ordering::SeqCst) - 1;
    rec.gauge("svc.queue.depth", depth as f64);
    // Queue wait is everything between enqueue and this dequeue —
    // separated from evaluation time so breakdowns can tell "slow
    // because busy" from "slow because expensive".
    rec.observe(
        "svc.queue.wait_us",
        job.enqueued.elapsed().as_micros() as f64,
    );

    // Deadline check at dequeue: waiters whose deadline passed while the
    // job sat in the queue are answered with `DeadlineExceeded` now, and
    // a flight left with no live waiter is dropped without running the
    // phases — the whole point of a deadline is not to spend worker time
    // on an answer nobody is waiting for. (A deadline that expires *mid*
    // evaluation still gets its answer: the work was already sunk.)
    let now = Instant::now();
    let evaluate = {
        let mut inflight = inner.inflight.lock().expect("inflight");
        let Some(flight) = inflight.get_mut(&job.key) else {
            return;
        };
        let (expired, live): (Vec<Waiter>, Vec<Waiter>) = flight
            .waiters
            .drain(..)
            .partition(|w| w.deadline.is_some_and(|d| d <= now));
        flight.waiters = live;
        let evaluate = !flight.waiters.is_empty();
        if !evaluate {
            inflight.remove(&job.key);
        }
        drop(inflight);
        for w in expired {
            let waited_us = w.since.elapsed().as_micros() as u64;
            rec.count("svc.deadline.shed", 1);
            rec.event_at(
                "svc.deadline_shed",
                w.ctx,
                &[("waited_us", waited_us.into())],
            );
            rec.span_end_at("svc.request", w.ctx, waited_us);
            rec.finish_trace(w.ctx);
            let _ = w.tx.send(Err(SvcError::DeadlineExceeded));
        }
        evaluate
    };
    if !evaluate {
        rec.count("svc.deadline.flight_dropped", 1);
        return;
    }

    // The evaluation span parents on the leader's request span across
    // the thread hop; the phases underneath inherit trace and parent
    // through the thread-local context this guard installs.
    let span = rec.span_in("svc.eval", Some(job.ctx));
    inner.evaluated.fetch_add(1, Ordering::Relaxed);
    let site = &inner.sites[job.key.site];
    let binary = &job.binary;

    // Extended predictions need the source-phase bundle from the binary's
    // home site; computed once per home-site configuration epoch (the one
    // the key names), then memoized unless a fault touched it. A
    // reconfigured home site (epoch bump) orphans the memo.
    let bundle = if job.mode == PredictionMode::Extended {
        binary.bundle_under(job.key.home_epoch, &inner.phase_cfg.faults, || {
            let _span = rec.span("svc.source_phase");
            let home = &inner.sites[job.key.home?];
            run_source_phase(home, &binary.image, &inner.phase_cfg)
                .ok()
                .map(Arc::new)
        })
    } else {
        None
    };

    let outcome = run_target_phase(
        site,
        Some(&binary.image),
        bundle.as_deref(),
        &inner.phase_cfg,
    );

    // Publish and land the flight atomically: the result-cache insert and
    // the inflight removal happen under the inflight lock (order inflight
    // → results, matching submit's re-check), so at every instant a key
    // is in at least one of the two maps and a racing submit either
    // coalesces or hits the cache — never evaluates a second time.
    //
    // Memoize only clean evaluations: a degraded outcome (faults,
    // unreadable binary, unobservable environment) is delivered to its
    // waiters but never becomes the canonical cached answer. Likewise an
    // evaluation whose binding was updated mid-flight: the waiters asked
    // about the old bytes and get their answer, but the stale result must
    // not linger in the cache. (The generation is read before the
    // inflight lock — the registry lock never nests inside the
    // inflight/results pair.)
    let generation_current = inner
        .registry
        .read()
        .expect("registry")
        .generation(&job.binary_ref)
        == Some(job.generation);
    if !generation_current {
        rec.count("svc.stale_result_dropped", 1);
    }
    // Clean enough to memoize: current generation, not degraded, fully
    // observed environment.
    let memoize = generation_current
        && !outcome.evaluation.degraded
        && outcome.environment.unobserved.is_empty();
    let answer = Arc::new(PredictAnswer {
        evaluation: outcome.evaluation,
    });
    let waiters = {
        let mut inflight = inner.inflight.lock().expect("inflight");
        if inner.cfg.result_cache && inner.caches.is_some() && memoize {
            (inner.results.lock().expect("results")).insert(job.key, Arc::clone(&answer));
        }
        inflight
            .remove(&job.key)
            .map(|f| f.waiters)
            .unwrap_or_default()
    };
    drop(span);
    let degraded = answer.evaluation.degraded;
    for w in waiters {
        let latency_ns = w.since.elapsed().as_nanos() as u64;
        let latency_us = latency_ns / 1_000;
        rec.count("svc.responses", 1);
        if degraded {
            rec.count("svc.response.degraded", 1);
        }
        // Close this waiter's request span (begun on its submit thread),
        // then let the latency observation decide whether its buffered
        // span tree becomes a tail exemplar.
        rec.span_end_at("svc.request", w.ctx, latency_us);
        rec.observe_tail("svc.latency_us", latency_us as f64, w.ctx);
        rec.finish_trace(w.ctx);
        // A waiter that gave up (dropped its handle) is fine to miss.
        let _ = w.tx.send(Ok(PredictResponse {
            binary_ref: job.binary_ref.clone(),
            target_site: inner.site_names[job.key.site].clone(),
            answer: Arc::clone(&answer),
            from_result_cache: false,
            latency_us,
            latency_ns,
        }));
    }
}
