//! The benchmark's inputs: the evaluation corpus, the pre-built requests
//! and the reference answers, all made before any timed window.

use crate::stream::Shape;
use feam_core::phases::{run_source_phase, run_target_phase, PhaseConfig};
use feam_core::predict::{Prediction, PredictionMode};
use feam_sim::faults::FaultPlan;
use feam_sim::site::Site;
use feam_svc::PredictRequest;
use std::sync::Arc;

/// Seed of the §VI evaluation corpus (`Experiment::new(42)`: 274
/// binaries compiled across the five standard sites). The corpus is fixed
/// so that every `--seed` measures the same binaries; the seed drives the
/// request streams.
pub const CORPUS_SEED: u64 = 42;

/// One corpus binary, registered under `name`.
pub struct Binary {
    pub name: String,
    pub image: Arc<Vec<u8>>,
    /// Site the binary was compiled at: its source phase runs there.
    pub home: String,
}

pub struct Corpus {
    pub binaries: Vec<Binary>,
    pub site_names: Vec<String>,
}

impl Corpus {
    pub fn shape(&self) -> Shape {
        Shape {
            binaries: self.binaries.len(),
            sites: self.site_names.len(),
        }
    }

    /// One request per `(name, site, mode)`, indexed by [`Shape::key`]
    /// with the name's corpus index in the content position.
    pub fn requests(&self) -> Vec<PredictRequest> {
        let shape = self.shape();
        (0..shape.keys())
            .map(|k| {
                let (name, site, extended) = shape.unkey(k);
                PredictRequest {
                    binary_ref: self.binaries[name as usize].name.clone(),
                    target_site: self.site_names[site as usize].clone(),
                    mode: if extended {
                        PredictionMode::Extended
                    } else {
                        PredictionMode::Basic
                    },
                    deadline: None,
                }
            })
            .collect()
    }
}

/// Build the corpus exactly as `feam_eval::Experiment::new` does, and
/// return the sites it was compiled against (the reference needs them).
pub fn generate() -> (Corpus, Vec<Site>) {
    let sites = feam_workloads::sites::standard_sites(CORPUS_SEED);
    let set = feam_workloads::testset::TestSetBuilder::new(CORPUS_SEED).build(&sites);
    let site_names: Vec<String> = sites.iter().map(|s| s.name().to_string()).collect();
    let binaries = set
        .binaries()
        .iter()
        .enumerate()
        .map(|(i, item)| Binary {
            name: format!("{i:03}-{}", item.label()),
            image: item.image.clone(),
            home: site_names[item.compiled_at].clone(),
        })
        .collect();
    (
        Corpus {
            binaries,
            site_names,
        },
        sites,
    )
}

/// The phase configuration every answer is computed under: the service's
/// defaults with faults pinned off, whatever `FEAM_CHAOS_*` says.
pub fn phase_config() -> PhaseConfig {
    PhaseConfig {
        faults: Arc::new(FaultPlan::none()),
        caches: None,
        ..PhaseConfig::default()
    }
}

/// The byte form answers are compared in.
pub fn serialize(p: &Prediction) -> String {
    serde_json::to_string(p).expect("predictions serialize")
}

/// Every `(content, site, mode)` answer computed with caches off, the
/// way the service computes it: the source phase at the binary's home
/// site, then the target phase. Indexed by [`Shape::key`].
pub fn reference(corpus: &Corpus, sites: &[Site], threads: usize) -> Vec<String> {
    let shape = corpus.shape();
    let cfg = phase_config();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let per_binary: Vec<std::sync::Mutex<Vec<String>>> = (0..shape.binaries)
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let b = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(bin) = corpus.binaries.get(b) else {
                    return;
                };
                let home = sites
                    .iter()
                    .find(|s| s.name() == bin.home)
                    .expect("home site is a corpus site");
                let bundle = run_source_phase(home, &bin.image, &cfg).ok();
                let mut answers = Vec::with_capacity(shape.sites * 2);
                for site in sites {
                    for bundle in [None, bundle.as_ref()] {
                        let out = run_target_phase(site, Some(&bin.image), bundle, &cfg);
                        answers.push(serialize(&out.prediction));
                    }
                }
                *per_binary[b].lock().expect("reference slot") = answers;
            });
        }
    });
    per_binary
        .into_iter()
        .flat_map(|m| m.into_inner().expect("reference slot"))
        .collect()
}
