//! # feam-svc — the FEAM prediction service
//!
//! The paper evaluates FEAM as a one-shot tool: run the phases, read the
//! prediction. In production the same question arrives as a *stream* —
//! "will binary B run at site S?" — from schedulers and users, with heavy
//! repetition (popular binaries, few sites). This crate wraps the
//! existing phase machinery ([`feam_core::phases`]) in a long-running
//! service shaped for that stream:
//!
//! * **Content-addressed memoization.** Binary descriptions are keyed by
//!   the ELF image's [`BdcKey`](feam_core::cache::BdcKey) (a
//!   word-at-a-time FNV-style hash, the length and an independent second
//!   hash), environment descriptions by site
//!   name + configuration epoch ([`feam_core::cache`]); full evaluations
//!   by the `(content, site, epoch, mode)` tuple, plus the home site and
//!   its epoch for an extended answer. A site reconfiguration
//!   ([`PredictService::reconfigure_site`]) bumps the epoch and orphans
//!   everything derived from the stale environment, as target or as home.
//!   A name keeps the answers of its current and previous content, so
//!   rolling an update back is a result-cache hit.
//! * **Single-flight coalescing.** Concurrent requests for the same key
//!   share one evaluation — N callers, one phase run, N answers.
//! * **Bounded admission.** A fixed-capacity queue feeds one worker pool
//!   (shared by a whole [`Fleet`]); a full queue sheds with a *retryable*
//!   [`SvcError::Overloaded`] instead of building unbounded backlog. An
//!   admitted flight runs on whichever thread dequeues it first: a pool
//!   thread, or the waiter whose [`Pending::recv`] finds it still queued.
//! * **Placement planning.** [`plan`] fans one binary out to per-site
//!   evaluations running concurrently on the same pool and returns a
//!   deterministic readiness ranking — degraded or errored sites rank
//!   last but never abort the plan.
//!
//! All of it is observable through [`feam_obs`]: per-request spans,
//! `cache.{bdc,edc}.{hit,miss}` / `svc.result.{hit,miss}` counters, queue
//! depth and shed counters, and latency histograms.
//!
//! [`bench`](mod@bench) provides the deterministic, Zipf-skewed load generator
//! behind `feam-eval --serve-bench`, which pins the speedup caching buys
//! and — run against a cache-disabled twin — that caching never changes a
//! prediction.
//!
//! ```
//! use feam_svc::{PredictService, PredictRequest, ServiceConfig};
//! use feam_core::predict::PredictionMode;
//!
//! let mut svc = PredictService::new(ServiceConfig::default());
//! svc.register_binary("cg.B.4", feam_svc::registry::demo_binary(7)).unwrap();
//! svc.start();
//! let resp = svc.predict(&PredictRequest {
//!     binary_ref: "cg.B.4".into(),
//!     target_site: "india".into(),
//!     mode: PredictionMode::Basic,
//!     deadline: None,
//! }).unwrap();
//! assert!(!resp.prediction.verdicts.is_empty());
//! ```

pub mod bench;
pub mod ensemble;
pub mod fleet;
pub mod health;
pub mod obsctl;
pub mod plan;
mod pool;
pub mod registry;
mod router;
pub mod service;

pub use bench::{
    run_serve_bench, BenchParams, ServeBenchComparison, ServeBenchReport, StreamParams,
};
pub use ensemble::annotate_with_ensemble;
pub use fleet::{Fleet, FleetConfig, FleetError, FleetResponse};
pub use health::{HealthTracker, NodeState};
pub use obsctl::{default_slos, run_observed, ObsRunOutcome, ObsRunParams};
pub use plan::{Placement, PlanRequest, SitePlacement, SiteSelection};
pub use registry::{BinaryRegistry, RegisteredBinary, RegistryError};
pub use service::{
    Delivery, Pending, PredictAnswer, PredictRequest, PredictResponse, PredictService,
    ServiceConfig, SvcError,
};
