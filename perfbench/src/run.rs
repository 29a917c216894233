//! The system under test, the closed loop that drives it, and the
//! layer replay of the traced run.
//!
//! One client thread issues one operation at a time and waits for its
//! answer before the next; the only concurrency is the program's own
//! (service worker pools, the fleet's replication thread and hedging).
//! Each operation is timed from just before the call into FEAM to the
//! moment its answer is in hand. Checking the answer against the
//! reference happens after that and is not timed.

use crate::corpus::{self, Corpus, CORPUS_SEED};
use crate::gauge::Gauge;
use crate::stream::{self, Op, Shape};
use crate::sys;
use crate::trace::Tracer;
use feam_core::bdc::{self, BinaryDescription};
use feam_core::bundle::SourceBundle;
use feam_core::cache::{CacheLayerStats, PhaseCaches};
use feam_core::phases::{run_source_phase, run_target_phase, PhaseConfig, TargetOutcome};
use feam_core::{edc, tec};
use feam_sim::faults::FaultPlan;
use feam_sim::site::Site;
use feam_svc::{
    Delivery, Fleet, FleetConfig, PredictRequest, PredictResponse, PredictService,
    RegisteredBinary, ServiceConfig, SvcError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes in the `fleet-churn` fleet.
pub const FLEET_NODES: usize = 4;
/// Replica-set size of the `fleet-churn` fleet.
pub const FLEET_REPLICATION: usize = 2;
/// `fleet-churn` reads run during set-up, before the timed window: a
/// whole number of reconfiguration periods, so the window starts on one.
pub const FLEET_WARMUP_READS: usize = 5 * stream::RECONFIGURE_EVERY;
/// `cold-sweep` passes per slice: with two, a slice's p99 rests on 27
/// reads beyond it.
pub const COLD_SLICE_PASSES: usize = 2;
/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Gauge probes spread over each slice of a timed window.
pub const GAUGE_PER_SLICE: usize = 25;
/// The traced run traces at most this many timed operations.
pub const TRACE_OP_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    HotZipf,
    FleetChurn,
}

impl Workload {
    /// Stream operations per slice of the timed window. A slice is a
    /// stretch of the stream with the same make-up in every run:
    /// [`COLD_SLICE_PASSES`] `cold-sweep` passes (their reconfigurations
    /// included), 100 000
    /// `hot-zipf` reads, one `fleet-churn` reconfiguration period.
    pub fn slice_ops(self, shape: Shape) -> usize {
        match self {
            Workload::ColdSweep => COLD_SLICE_PASSES * (shape.binaries * shape.sites + shape.sites),
            Workload::HotZipf => 100_000,
            Workload::FleetChurn => {
                let period = stream::RECONFIGURE_EVERY;
                period + period / stream::UPDATE_EVERY + 1
            }
        }
    }

    pub const ALL: [Workload; 3] = [Workload::ColdSweep, Workload::HotZipf, Workload::FleetChurn];

    /// The workloads `BENCHMARK.json` lists. `hot-zipf` runs by hand only:
    /// its p99 is the tail of ~1 us hits, set by memory latency rather
    /// than the host speed the gauge follows (five-run spread 19% scaled,
    /// 12% unscaled, where throughput and p50 came to 6–9% scaled, with
    /// the gauge before its map lookups were added), and
    /// the hit path it isolates is most of `fleet-churn`'s reads.
    pub const BENCHMARKED: [Workload; 2] = [Workload::ColdSweep, Workload::FleetChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold-sweep",
            Workload::HotZipf => "hot-zipf",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on the workload's closed-loop shape.
    pub fn shape(self) -> &'static str {
        match self {
            Workload::ColdSweep => {
                "closed loop, 1 client; PredictService; every \
                 (binary, site) once per pass in seeded order, a seeded third extended; \
                 every pass after the first reconfigures all sites first, so no read hits \
                 the result cache"
            }
            Workload::HotZipf => {
                "closed loop, 1 client; PredictService warmed with every (binary, site, mode) \
                 key during set-up; timed Zipf(1.2) reads that are all result-cache hits"
            }
            Workload::FleetChurn => {
                "closed loop, 1 client; 4-node Fleet (R=2); Zipf(1.2) reads, an \
                 update_binary flip (A->B->A) of a head name every 300 reads and a \
                 reconfigure_site every 3000 reads"
            }
        }
    }
}

/// Everything generated before the timed window.
pub struct Inputs {
    pub workload: Workload,
    pub corpus: Corpus,
    pub shape: Shape,
    /// One pre-built request per `(name, site, mode)` ([`Shape::key`]).
    pub requests: Vec<PredictRequest>,
    /// Serialized reference answer per `(content, site, mode)`.
    pub reference: Vec<String>,
    /// One segment per set-up of a timed run ([`SETUP_REPS`]); the traced
    /// run uses the first.
    pub segments: Vec<Segment>,
}

/// What one set-up runs: its warm-up and its share of the timed stream,
/// drawn from a seed of its own. Independent sample paths let the set-ups
/// of one run cover different stretches of the workload; with one shared
/// path, a `fleet-churn` slice's rate followed its position on that path
/// in all three (the same pattern repeated), and a run's median depended
/// on how far a fast or slow host got along it.
pub struct Segment {
    /// Operations run during set-up (timed into `setup_s`).
    pub warmup: Vec<Op>,
    pub stream: Stream,
}

/// The timed stream.
pub enum Stream {
    /// Explicit operations; the window ends early if they run out.
    Ops(Vec<Op>),
    /// Read keys ([`Shape::key`]), replayed cyclically.
    Keys(Vec<u32>),
}

impl Stream {
    fn len(&self) -> usize {
        match self {
            Stream::Ops(ops) => ops.len(),
            Stream::Keys(_) => usize::MAX,
        }
    }

    pub fn get(&self, shape: Shape, i: usize) -> Op {
        match self {
            Stream::Ops(ops) => ops[i],
            Stream::Keys(keys) => {
                let (name, site, extended) = shape.unkey(keys[i % keys.len()] as usize);
                Op::Read {
                    name,
                    site,
                    extended,
                }
            }
        }
    }
}

impl Inputs {
    /// Generate the corpus, the reference answers and the segments. The
    /// corpus sites are dropped here: the program builds its own.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let (corpus, sites) = corpus::generate();
        let reference = corpus::reference(&corpus, &sites, sys::parallelism());
        drop(sites);
        let shape = corpus.shape();
        let segments = (0..SETUP_REPS as u64)
            .map(|k| {
                let seed = seed * SETUP_REPS as u64 + k;
                Segment::generate(workload, seed, shape, seconds / SETUP_REPS as f64)
            })
            .collect();
        Inputs {
            workload,
            requests: corpus.requests(),
            corpus,
            shape,
            reference,
            segments,
        }
    }
}

impl Segment {
    /// A warm-up and enough stream for `seconds` of timed operations.
    fn generate(workload: Workload, seed: u64, shape: Shape, seconds: f64) -> Segment {
        let scale = seconds.max(1.0);
        // Each warm-up is the head of its own stream: the timed window
        // starts where the caches reached their steady state.
        let split = |mut ops: Vec<Op>, at: usize| {
            let rest = ops.split_off(at);
            Segment {
                warmup: ops,
                stream: Stream::Ops(rest),
            }
        };
        match workload {
            Workload::ColdSweep => split(
                stream::cold_sweep(seed, shape, 1 + (40.0 * scale) as usize),
                shape.binaries * shape.sites,
            ),
            Workload::HotZipf => Segment {
                warmup: stream::hot_warmup(shape),
                stream: Stream::Keys(stream::hot_zipf(seed, shape, (400_000.0 * scale) as usize)),
            },
            Workload::FleetChurn => {
                let ops = stream::fleet_churn(
                    seed,
                    shape,
                    FLEET_WARMUP_READS + (120_000.0 * scale) as usize,
                );
                let at = stream::after_reads(&ops, FLEET_WARMUP_READS);
                split(ops, at)
            }
        }
    }
}

/// The program under test.
pub enum Target {
    Single(PredictService),
    Fleet(Fleet),
}

/// Service settings for every node: caching on, recorder off, faults
/// pinned off and one worker per CPU the process may use, whatever the
/// environment says.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: sys::parallelism(),
        edc_ttl: 0,
        result_cache: true,
        caching: true,
        sites_seed: CORPUS_SEED,
        recorder: feam_obs::Recorder::disabled(),
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    }
}

impl Target {
    /// Build the service or fleet (sites included), register every corpus
    /// binary and start the workers.
    pub fn build(workload: Workload, corpus: &Corpus) -> Target {
        match workload {
            Workload::ColdSweep | Workload::HotZipf => {
                let mut svc = PredictService::new(service_config());
                for b in &corpus.binaries {
                    svc.register_binary(&b.name, RegisteredBinary::new(b.image.clone(), &b.home))
                        .expect("corpus names are unique");
                }
                svc.start();
                Target::Single(svc)
            }
            Workload::FleetChurn => {
                let cfg = FleetConfig {
                    replication: FLEET_REPLICATION,
                    recorder: feam_obs::Recorder::disabled(),
                    ..FleetConfig::default()
                };
                let mut fleet =
                    Fleet::with_factory(
                        cfg,
                        FLEET_NODES,
                        |_| PredictService::new(service_config()),
                    );
                for b in &corpus.binaries {
                    fleet
                        .register_binary(&b.name, b.image.clone(), &b.home)
                        .expect("corpus names are unique");
                }
                fleet.start();
                Target::Fleet(fleet)
            }
        }
    }

    pub fn nodes(&self) -> usize {
        match self {
            Target::Single(_) => 1,
            Target::Fleet(f) => f.len(),
        }
    }

    fn node(&self, i: usize) -> &PredictService {
        match self {
            Target::Single(svc) => svc,
            Target::Fleet(f) => f.node_service(i),
        }
    }

    /// Evaluations run so far, over all nodes.
    pub fn evaluations(&self) -> u64 {
        (0..self.nodes()).map(|i| self.node(i).evaluations()).sum()
    }

    /// `(bdc, edc, stack_tests)` cache-layer statistics over all nodes.
    pub fn cache_stats(&self) -> [CacheLayerStats; 3] {
        let mut out = [CacheLayerStats::default(); 3];
        for i in 0..self.nodes() {
            if let Some(c) = self.node(i).caches() {
                for (acc, s) in
                    out.iter_mut()
                        .zip([c.bdc.stats(), c.edc.stats(), c.stack_tests.stats()])
                {
                    acc.hits += s.hits;
                    acc.misses += s.misses;
                    acc.rejected += s.rejected;
                }
            }
        }
        out
    }
}

/// What one stretch of the closed loop measured.
#[derive(Default)]
pub struct Window {
    /// Client-side nanoseconds of every computed read (a read that ran
    /// an evaluation). Each costs a full phase run, so the count stays
    /// small for any window length.
    pub computed_ns: Vec<u64>,
    /// Hit and computed read times of the open slice, when slicing.
    open_hits: Vec<u64>,
    open_computed: Vec<u64>,
    /// Gauge times taken during the open slice.
    open_gauge: Vec<u64>,
    /// Ops and program time at the start of the open slice.
    open_at: (u64, u64),
    sliced: bool,
    /// Sum of every operation's time: the program's busy time as the
    /// client sees it.
    pub service_ns: u64,
    pub reads: u64,
    /// Reads answered from the result cache.
    pub hits: u64,
    pub config_ops: u64,
    pub failed_reads: u64,
    pub failed_config: u64,
    /// Simulated site CPU seconds over computed reads.
    pub sim_cpu_s: f64,
    /// Reads answered per node.
    pub node_reads: Vec<u64>,
    pub failovers: u64,
    pub hedged: u64,
    pub degraded_routes: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Per-slice summaries, when the window was sliced.
    pub slices: Vec<Slice>,
}

/// Median and p99 of some reads, each present only when enough samples
/// lie beyond it.
#[derive(Clone, Copy)]
pub struct Tail {
    pub p50_ns: Option<u64>,
    pub p99_ns: Option<u64>,
}

impl Tail {
    fn of(mut v: Vec<u64>) -> Tail {
        v.sort_unstable();
        Tail {
            p50_ns: crate::stats::percentile(&v, 0.50),
            p99_ns: crate::stats::percentile(&v, 0.99),
        }
    }
}

/// One slice of a timed window.
pub struct Slice {
    pub ops: u64,
    pub service_ns: u64,
    /// All reads of the slice, and its hits alone.
    pub reads: Tail,
    pub hits: Tail,
    /// Median time of the gauge probes run during the slice.
    pub gauge_ns: f64,
}

impl Window {
    pub fn new(nodes: usize) -> Window {
        Window {
            node_reads: vec![0; nodes],
            ..Window::default()
        }
    }

    /// Keep the read times of each slice of `slice_ops` operations from
    /// here on; the buffers hold one slice and are reused. A partial
    /// slice left open by an earlier stretch is dropped.
    fn start_slicing(&mut self, slice_ops: usize) {
        self.sliced = true;
        self.open_hits.clear();
        self.open_computed.clear();
        self.open_gauge.clear();
        self.open_hits.reserve(slice_ops);
        self.open_computed.reserve(slice_ops);
        self.open_at = (self.ops(), self.service_ns);
    }

    /// Summarize the open slice and start the next one.
    fn close_slice(&mut self) {
        let reads = self.open_hits.iter().chain(&self.open_computed).copied();
        let (ops, service_ns) = self.open_at;
        self.slices.push(Slice {
            ops: self.ops() - ops,
            service_ns: self.service_ns - service_ns,
            reads: Tail::of(reads.collect()),
            hits: Tail::of(self.open_hits.clone()),
            gauge_ns: crate::stats::median(
                &self
                    .open_gauge
                    .iter()
                    .map(|&g| g as f64)
                    .collect::<Vec<_>>(),
            ),
        });
        self.open_hits.clear();
        self.open_computed.clear();
        self.open_gauge.clear();
        self.open_at = (self.ops(), self.service_ns);
    }

    /// File the time of a read that was answered.
    fn record_answer(&mut self, ns: u64, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.computed_ns.push(ns);
        }
        if self.sliced {
            if hit {
                self.open_hits.push(ns);
            } else {
                self.open_computed.push(ns);
            }
        }
    }

    pub fn ops(&self) -> u64 {
        self.reads + self.config_ops
    }

    pub fn failed(&self) -> u64 {
        self.failed_reads + self.failed_config
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Per-layer observations only the traced run makes.
#[derive(Default)]
pub struct TraceAgg {
    /// `svc.submit` durations of single-service reads answered `Ready`.
    pub hit_submit_ns: Vec<u64>,
    /// `svc.submit` durations of single-service reads answered `Pending`.
    pub pending_submit_ns: Vec<u64>,
    /// `Fleet::predict` durations of fleet reads answered from cache.
    pub fleet_hit_ns: Vec<u64>,
    /// Node-side latency of those fleet hits.
    pub fleet_node_hit_ns: Vec<u64>,
    /// Computed latency minus the replayed phase time, per computed read.
    pub handoff_ns: Vec<u64>,
    /// Sum of computed latencies, and of the part no layer span covers.
    pub computed_total_ns: u64,
    pub computed_uncovered_ns: u64,
    /// Replayed answers that differed from the service's.
    pub replay_mismatches: u64,
    /// Replayed computed reads.
    pub replayed: u64,
}

/// The traced run's re-execution of each computed read through the core
/// entry points, with one `PhaseCaches` per node fed in stream order so
/// its cache behaviour follows the node that answered.
struct Replay<'t> {
    cfgs: Vec<PhaseConfig>,
    /// Per node, per name: the binding the node holds. Its source-bundle
    /// memo is the registry's own (`RegisteredBinary::bundle_for_epoch`);
    /// an update replaces it, as the registry does.
    bindings: Vec<Vec<Arc<RegisteredBinary>>>,
    sites: Vec<&'t Site>,
}

impl<'t> Replay<'t> {
    fn new(target: &'t Target, corpus: &Corpus) -> Self {
        let nodes = target.nodes();
        let cfgs = (0..nodes)
            .map(|_| PhaseConfig {
                caches: Some(Arc::new(PhaseCaches::new(0))),
                ..corpus::phase_config()
            })
            .collect();
        let sites = corpus
            .site_names
            .iter()
            .map(|n| target.node(0).site(n).expect("served site"))
            .collect();
        let bindings = (0..nodes)
            .map(|_| corpus.binaries.iter().map(binding).collect())
            .collect();
        Replay {
            cfgs,
            bindings,
            sites,
        }
    }

    fn caches(&self, node: usize) -> &PhaseCaches {
        self.cfgs[node].caches.as_deref().expect("replay caches")
    }

    fn site(&self, name: &str) -> &'t Site {
        self.sites
            .iter()
            .find(|s| s.name() == name)
            .expect("corpus site")
    }

    /// Replay one computed read of `name` answered by `node`, as the
    /// service's evaluation runs it: the memoized source phase for an
    /// extended read, then `run_target_phase`. The layers inside the
    /// target phase are timed by probes beside it (see
    /// [`ProbeInput::run`]). Returns the phase time (source + target) and
    /// the serialized prediction.
    fn replay(
        &self,
        tr: &mut Tracer,
        op: u64,
        node: usize,
        name: u32,
        site: usize,
        extended: bool,
    ) -> (u64, String) {
        let root = tr.begin("replay", op, None);
        let mut phase_ns = 0;
        let cfg = &self.cfgs[node];
        let binding = &self.bindings[node][name as usize];
        let bundle = if extended {
            let home = self.site(&binding.home_site);
            let epoch = self.caches(node).edc.epoch(&binding.home_site);
            binding.bundle_for_epoch(epoch, || {
                let s = tr.begin("phases.source", op, Some(root));
                let b = run_source_phase(home, &binding.image, cfg)
                    .ok()
                    .map(Arc::new);
                phase_ns += tr.end(s);
                if let Some(b) = &b {
                    probe_collect_libraries(tr, op, root, cfg, home, &binding.image, b);
                }
                b
            })
        } else {
            None
        };

        let site = self.sites[site];
        let caches = self.caches(node);
        let misses = |c: &PhaseCaches| (c.edc.stats().misses, c.bdc.stats().misses);
        let before = misses(caches);
        let s = tr.begin("phases.target", op, Some(root));
        let out = run_target_phase(site, Some(&binding.image), bundle.as_deref(), cfg);
        phase_ns += tr.end(s);
        let (edc_missed, bdc_missed) = {
            let after = misses(caches);
            (after.0 > before.0, after.1 > before.1)
        };
        let probe = ProbeInput {
            cfg,
            site,
            image: &binding.image,
            bundle: bundle.as_deref(),
            outcome: &out,
        };
        probe.run(tr, op, root, edc_missed, bdc_missed);
        tr.end(root);
        (phase_ns, corpus::serialize(&out.prediction))
    }

    /// A fresh binding of `bin` under `name` on every node.
    fn updated(&mut self, name: u32, bin: &corpus::Binary) {
        for node in &mut self.bindings {
            node[name as usize] = binding(bin);
        }
    }

    fn reconfigured(&self, site: &str) {
        for node in 0..self.cfgs.len() {
            self.caches(node).edc.invalidate(site);
        }
    }
}

/// A registry binding of `bin`, with an empty source-bundle memo.
fn binding(bin: &corpus::Binary) -> Arc<RegisteredBinary> {
    Arc::new(RegisteredBinary::new(bin.image.clone(), &bin.home))
}

/// What the layer probes of one replayed target phase work from.
struct ProbeInput<'a> {
    cfg: &'a PhaseConfig,
    site: &'a Site,
    image: &'a Arc<Vec<u8>>,
    bundle: Option<&'a SourceBundle>,
    outcome: &'a TargetOutcome,
}

impl ProbeInput<'_> {
    /// Time the public entry points of the layers the target phase just
    /// ran, beside it and on the same inputs: `edc::discover` and the
    /// ELF parse and `BinaryDescription::from_bytes` when the phase
    /// missed those caches, and `tec::evaluate` always. The evaluate
    /// probe finds the stack tests the phase ran already memoized, as the
    /// service does for most reads; its answer must match the phase's.
    fn run(&self, tr: &mut Tracer, op: u64, root: usize, edc_missed: bool, bdc_missed: bool) {
        if edc_missed {
            let mut sess = self.cfg.session(self.site);
            let s = tr.begin("edc.discover", op, Some(root));
            let env = edc::discover(&mut sess);
            tr.end(s);
            debug_assert!(env.unobserved.is_empty());
        }
        if bdc_missed {
            let s = tr.begin("elf.parse", op, Some(root));
            let parsed = feam_elf::LazyElf::parse(self.image).is_ok();
            tr.end(s);
            let s = tr.begin("bdc.describe", op, Some(root));
            let d = BinaryDescription::from_bytes(tec::APP_PATH, self.image);
            tr.end(s);
            assert!(parsed && d.is_ok(), "corpus binaries parse and describe");
        }
        let s = tr.begin("tec.evaluate", op, Some(root));
        let ev = tec::evaluate(
            self.site,
            &self.outcome.binary,
            Some(self.image),
            &self.outcome.environment,
            self.bundle,
            self.cfg,
        );
        tr.end(s);
        assert_eq!(
            corpus::serialize(&ev.prediction),
            corpus::serialize(&self.outcome.prediction),
            "tec::evaluate probe agrees with the target phase"
        );
    }
}

/// Time `bdc::collect_libraries` at the home site under the stack the
/// source phase chose. A probe beside the source phase, not part of the
/// replayed answer.
fn probe_collect_libraries(
    tr: &mut Tracer,
    op: u64,
    root: usize,
    cfg: &PhaseConfig,
    home: &Site,
    image: &Arc<Vec<u8>>,
    bundle: &SourceBundle,
) {
    const PATH: &str = "/home/user/feam/source_app.bin";
    let mut sess = cfg.session(home);
    sess.stage_file(PATH, image.clone());
    if let Some(ist) = home
        .stacks
        .iter()
        .find(|s| Some(s.stack.ident()) == bundle.app_stack_ident)
    {
        sess.load_stack(ist);
    }
    let s = tr.begin("bdc.collect_libraries", op, Some(root));
    let libs = bdc::collect_libraries(&mut sess, PATH);
    tr.end(s);
    debug_assert!(libs.is_ok_and(|l| l.len() == bundle.libraries.len()));
}

/// Drives one target with the closed loop.
pub struct Runner<'a> {
    inputs: &'a Inputs,
    segment: &'a Segment,
    target: &'a Target,
    /// Current content of every name (`update_binary` rebinds).
    content_of: Vec<u32>,
    next_op: u64,
    pub w: Window,
    pub tracer: Option<Tracer>,
    pub agg: TraceAgg,
    replay: Option<Replay<'a>>,
}

enum Answer {
    Svc(Result<PredictResponse, SvcError>),
    Fleet(Result<feam_svc::FleetResponse, feam_svc::FleetError>),
}

impl<'a> Runner<'a> {
    /// A closed loop over `segment` of `inputs`.
    pub fn new(inputs: &'a Inputs, segment: &'a Segment, target: &'a Target, traced: bool) -> Self {
        Runner {
            inputs,
            segment,
            target,
            content_of: (0..inputs.shape.binaries as u32).collect(),
            next_op: 0,
            w: Window::new(target.nodes()),
            tracer: traced.then(Tracer::new),
            agg: TraceAgg::default(),
            replay: traced.then(|| Replay::new(target, &inputs.corpus)),
        }
    }

    /// Count operations into `next` from now on; returns the window
    /// counted into so far.
    pub fn swap_window(&mut self, mut next: Window) -> Window {
        next.node_reads.resize(self.target.nodes(), 0);
        std::mem::replace(&mut self.w, next)
    }

    /// Run the segment's warm-up.
    pub fn warm_up(&mut self) {
        for &op in &self.segment.warmup {
            self.step(op);
        }
    }

    /// Run the timed stream until `duration` has passed or `max_ops`
    /// operations are done; returns the operations run. With `slicing`,
    /// every run of that many consecutive stream operations is summarized
    /// on its own (see [`Slice`]), with [`GAUGE_PER_SLICE`] gauge probes
    /// spread over it between operations; a trailing partial slice is not.
    pub fn run_window(
        &mut self,
        duration: Duration,
        max_ops: usize,
        mut slicing: Option<(usize, &mut Gauge)>,
    ) -> usize {
        let stream = &self.segment.stream;
        let end = Instant::now() + duration;
        if let Some((n, _)) = &slicing {
            self.w.start_slicing(*n);
        }
        let limit = max_ops.min(stream.len());
        let mut i = 0;
        while i < limit && Instant::now() < end {
            self.step(stream.get(self.inputs.shape, i));
            i += 1;
            if let Some((n, gauge)) = slicing.as_mut() {
                if i % (*n / GAUGE_PER_SLICE) == 0 {
                    self.w.open_gauge.push(gauge.probe());
                }
                if i % *n == 0 {
                    self.w.close_slice();
                }
            }
        }
        i
    }

    fn step(&mut self, op: Op) {
        let id = self.next_op;
        self.next_op += 1;
        match op {
            Op::Read {
                name,
                site,
                extended,
            } => self.read(id, name, site, extended),
            Op::Update { name, content } => self.update(id, name, content),
            Op::Reconfigure { site } => self.reconfigure(id, site),
        }
    }

    fn read(&mut self, id: u64, name: u32, site: u8, extended: bool) {
        let inputs = self.inputs;
        let req = &inputs.requests[inputs.shape.key(name, site, extended)];
        let (ns, answer) = match (self.target, self.tracer.as_mut()) {
            (Target::Single(svc), None) => {
                let t0 = Instant::now();
                let res = match svc.submit(req) {
                    Ok(Delivery::Ready(r)) => Ok(r),
                    Ok(Delivery::Pending(rx)) => rx.recv().unwrap_or(Err(SvcError::ShuttingDown)),
                    Err(e) => Err(e),
                };
                (t0.elapsed().as_nanos() as u64, Answer::Svc(res))
            }
            (Target::Single(svc), Some(tr)) => {
                let root = tr.begin("op", id, None);
                let s = tr.begin("svc.submit", id, Some(root));
                let d = svc.submit(req);
                let submit_ns = tr.end(s);
                let res = match d {
                    Ok(Delivery::Ready(r)) => {
                        self.agg.hit_submit_ns.push(submit_ns);
                        Ok(r)
                    }
                    Ok(Delivery::Pending(rx)) => {
                        self.agg.pending_submit_ns.push(submit_ns);
                        let s = tr.begin("svc.recv", id, Some(root));
                        let r = rx.recv().unwrap_or(Err(SvcError::ShuttingDown));
                        tr.end(s);
                        r
                    }
                    Err(e) => Err(e),
                };
                (tr.end(root), Answer::Svc(res))
            }
            (Target::Fleet(f), None) => {
                let t0 = Instant::now();
                let res = f.predict_replicated(req);
                (t0.elapsed().as_nanos() as u64, Answer::Fleet(res))
            }
            (Target::Fleet(f), Some(tr)) => {
                let root = tr.begin("op", id, None);
                let s = tr.begin("fleet.predict", id, Some(root));
                let res = f.predict_replicated(req);
                let predict_ns = tr.end(s);
                if let Ok(r) = &res {
                    if r.response.from_result_cache {
                        self.agg.fleet_hit_ns.push(predict_ns);
                        self.agg.fleet_node_hit_ns.push(r.response.latency_ns);
                    }
                }
                (tr.end(root), Answer::Fleet(res))
            }
        };

        self.w.reads += 1;
        self.w.service_ns += ns;
        let (node, resp) = match answer {
            Answer::Svc(Ok(r)) => (0, r),
            Answer::Fleet(Ok(r)) => {
                self.w.failovers += r.failovers as u64;
                self.w.hedged += r.hedged as u64;
                self.w.degraded_routes += r.degraded_route as u64;
                let node = r
                    .node
                    .strip_prefix("node-")
                    .and_then(|i| i.parse().ok())
                    .expect("fleet nodes are named node-<i>");
                (node, r.response)
            }
            Answer::Svc(Err(e)) => return self.failed_read(name, site, extended, e.to_string()),
            Answer::Fleet(Err(e)) => return self.failed_read(name, site, extended, e.to_string()),
        };
        self.w.node_reads[node] += 1;
        let content = self.content_of[name as usize];
        let key = self.inputs.shape.key(content, site, extended);
        let answer = corpus::serialize(&resp.prediction);
        self.w.record_answer(ns, resp.from_result_cache);
        if !resp.from_result_cache {
            self.w.sim_cpu_s += resp.evaluation.cpu_seconds;
            self.replay_computed(id, ns, node, name, content, site, extended, &answer);
        }
        if resp.evaluation.degraded {
            self.failed_read(name, site, extended, "degraded answer".into());
        } else if answer != self.inputs.reference[key] {
            self.failed_read(name, site, extended, "answer differs from reference".into());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_computed(
        &mut self,
        id: u64,
        ns: u64,
        node: usize,
        name: u32,
        content: u32,
        site: u8,
        extended: bool,
        answer: &str,
    ) {
        let (Some(tr), Some(replay)) = (self.tracer.as_mut(), self.replay.as_ref()) else {
            return;
        };
        let bin = &self.inputs.corpus.binaries[content as usize];
        let (phase_ns, replayed) = replay.replay(tr, id, node, name, site as usize, extended);
        let enqueue_ns = match self.target {
            Target::Single(_) => self.agg.pending_submit_ns.last().copied().unwrap_or(0),
            Target::Fleet(_) => 0,
        };
        self.agg.replayed += 1;
        self.agg.handoff_ns.push(ns.saturating_sub(phase_ns));
        self.agg.computed_total_ns += ns;
        self.agg.computed_uncovered_ns += ns.saturating_sub(phase_ns + enqueue_ns);
        if replayed != answer {
            self.agg.replay_mismatches += 1;
            self.w.fail(format!(
                "replayed answer differs from the service's: {} at site {site}",
                bin.name
            ));
        }
    }

    fn failed_read(&mut self, name: u32, site: u8, extended: bool, why: String) {
        self.w.failed_reads += 1;
        let bin = &self.inputs.corpus.binaries[name as usize].name;
        let site = &self.inputs.corpus.site_names[site as usize];
        self.w
            .fail(format!("read {bin} @ {site} (extended={extended}): {why}"));
    }

    fn config_done(&mut self, ns: u64, ok: bool, what: String) {
        self.w.config_ops += 1;
        self.w.service_ns += ns;
        if !ok {
            self.w.failed_config += 1;
            self.w.fail(what);
        }
    }

    fn timed<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (u64, T) {
        match self.tracer.as_mut() {
            None => {
                let t0 = Instant::now();
                let out = f();
                (t0.elapsed().as_nanos() as u64, out)
            }
            Some(tr) => {
                let root = tr.begin("op", id, None);
                let s = tr.begin(name, id, Some(root));
                let out = f();
                tr.end(s);
                (tr.end(root), out)
            }
        }
    }

    fn update(&mut self, id: u64, name: u32, content: u32) {
        let Target::Fleet(fleet) = self.target else {
            panic!("update_binary operations run against the fleet");
        };
        let inputs = self.inputs;
        let bound = &inputs.corpus.binaries[name as usize].name;
        let bin = &inputs.corpus.binaries[content as usize];
        let image = bin.image.clone();
        let (ns, _) = self.timed("fleet.update_binary", id, || {
            fleet.update_binary(bound, image, &bin.home)
        });
        self.content_of[name as usize] = content;
        if let Some(r) = self.replay.as_mut() {
            r.updated(name, bin);
        }
        self.config_done(ns, true, String::new());
    }

    fn reconfigure(&mut self, id: u64, site: u8) {
        let inputs = self.inputs;
        let site = &inputs.corpus.site_names[site as usize];
        let (ns, res) = match self.target {
            Target::Single(svc) => {
                self.timed("svc.reconfigure_site", id, || svc.reconfigure_site(site))
            }
            Target::Fleet(f) => {
                self.timed("fleet.reconfigure_site", id, || f.reconfigure_site(site))
            }
        };
        if let Some(r) = self.replay.as_ref() {
            r.reconfigured(site);
        }
        let what = format!("reconfigure_site {site}: {res:?}");
        self.config_done(ns, res.is_ok(), what);
    }
}
