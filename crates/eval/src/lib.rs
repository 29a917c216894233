//! # feam-eval — the §VI evaluation harness
//!
//! Reruns the paper's evaluation on the simulated five-site testbed and
//! regenerates every quantitative artifact:
//!
//! * **Table I** — MPI identification signatures + accuracy over the corpus,
//! * **Table II** — the site characteristics matrix (from the live models),
//! * **Table III** — basic/extended prediction accuracy per suite,
//! * **Table IV** — execution successes before/after resolution,
//! * **§VI.C statistics** — phase CPU budgets, bundle sizes, failure
//!   histogram,
//! * an **ablation** of the four prediction determinants.
//!
//! The `feam-eval` binary prints any of these; `--json` dumps the raw
//! records for EXPERIMENTS.md.

pub mod agreement;
pub mod chaos;
pub mod effort;
pub mod experiment;
pub mod fleet_bench;
pub mod mode_ablation;
pub mod obs_bench;
pub mod plan;
pub mod provenance_bench;
pub mod recompile;
pub mod serve;
pub mod tables;
pub mod telemetry;

pub use agreement::{
    agreement_study, render_agreement, AgreementReport, CheckerReport, PairwiseReport,
};
pub use chaos::{chaos_sweep, render_chaos, ChaosPoint, ChaosSweep, DEFAULT_CHAOS_RATE};
pub use effort::{effort, render_effort, EffortReport};
pub use experiment::{EvalResults, ExcludedPair, Experiment, MigrationRecord};
pub use fleet_bench::{fleet_bench, render_fleet, FleetBenchParams, FleetBenchReport};
pub use mode_ablation::{mode_ablation, render_mode_ablation, ModeRow};
pub use obs_bench::{obs_bench, render_obs_bench, ObsBenchReport, ObsConfigReport};
pub use plan::{plan_bench, render_plan, PlanBenchParams, PlanBenchReport};
pub use provenance_bench::{
    provenance_bench, render_provenance, ProvenanceBenchReport, MIN_FAMILY_ACCURACY,
};
pub use recompile::{recompile_comparison, render_recompile, RecompileComparison};
pub use serve::{bench_corpus, bench_service, render_serve, serve_bench};
pub use tables::{
    ablation, confusion, per_site, render_ablation, render_confusion, render_figure,
    render_per_site, render_stats, render_table1, render_table2, render_table3, render_table4,
    stats, table1, table3, table4, Confusion, PerSiteRow,
};
pub use telemetry::{render_telemetry, telemetry_summary, TelemetrySummary};
