//! The serving plane's one executor: a started fleet runs one shared pool,
//! not a pool per node, and dropping a fleet straight after a burst of
//! reads returns with every answer right.
//!
//! This file is its own test process, so no other test's threads are
//! counted; its tests take `SERIAL` so they do not count each other's.

use feam_core::predict::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_svc::{Fleet, FleetConfig, PredictRequest, PredictService, ServiceConfig};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn node_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        caching: true,
        result_cache: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    }
}

/// An unstarted fleet of `n` nodes with the demo binary registered as
/// "app".
fn fleet(n: usize) -> Fleet {
    let cfg = FleetConfig {
        replication: 2,
        ..FleetConfig::default()
    };
    let fleet = Fleet::with_factory(cfg, n, |_| PredictService::new(node_config()));
    let demo = feam_svc::registry::demo_binary(7);
    fleet
        .register_binary("app", demo.image.clone(), &demo.home_site)
        .expect("fresh name registers fleet-wide");
    fleet
}

/// Threads of this process the serving plane spawned: those named
/// `feam-*`, plus any too new to have set its name yet (a new thread
/// carries its spawner's name until then, and only this test thread
/// spawns here).
#[cfg(target_os = "linux")]
fn serving_threads() -> usize {
    let comm = |path: std::path::PathBuf| {
        let name = std::fs::read_to_string(path).unwrap_or_default();
        name.trim_end().to_string()
    };
    let me = comm("/proc/thread-self/comm".into());
    let named_or_unnamed = std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| Some(comm(task.ok()?.path().join("comm"))))
        .filter(|name| name.starts_with("feam-") || *name == me)
        .count();
    named_or_unnamed - 1 // this thread
}

/// Four nodes with `workers: 2` run two pool threads in all — not two per
/// node.
#[cfg(target_os = "linux")]
#[test]
fn a_started_fleet_runs_one_pool_of_workers_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut fleet = fleet(4);
    assert_eq!(serving_threads(), 0, "an unstarted fleet spawns nothing");
    fleet.start();
    assert_eq!(serving_threads(), 2, "one pool of `workers` threads");
    let resp = fleet
        .predict(&PredictRequest {
            binary_ref: "app".into(),
            target_site: "india".into(),
            mode: PredictionMode::Basic,
            deadline: None,
        })
        .expect("the shared pool answers");
    assert!(!resp.response.prediction.verdicts.is_empty());
    drop(fleet);
    assert_eq!(serving_threads(), 0, "dropping the fleet joins its pool");
}

/// Drop a fleet straight after a burst of computed reads: the drop
/// returns, and every delivered answer matches a single node's.
#[test]
fn dropping_a_fleet_after_a_burst_returns_with_every_answer_right() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut fleet = fleet(4);
    fleet.start();
    let sites = fleet.node_service(0).site_names();
    let requests: Vec<PredictRequest> = sites
        .iter()
        .flat_map(|site| {
            [PredictionMode::Basic, PredictionMode::Extended].map(|mode| PredictRequest {
                binary_ref: "app".into(),
                target_site: site.clone(),
                mode,
                deadline: None,
            })
        })
        .collect();

    let mut answers = Vec::new();
    for req in &requests {
        let out = fleet.predict(req).expect("fleet answers");
        assert!(!out.response.from_result_cache, "each key is read once");
        answers.push(serde_json::to_string(&out.response.prediction).unwrap());
    }

    let (done_tx, done_rx) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(fleet);
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("dropping the fleet returns");
    dropper.join().expect("dropping the fleet does not panic");

    let mut solo = PredictService::new(node_config());
    solo.register_binary("app", feam_svc::registry::demo_binary(7))
        .expect("registers");
    solo.start();
    for (req, answer) in requests.iter().zip(&answers) {
        let oracle = solo.predict(req).expect("solo answers");
        assert_eq!(
            answer,
            &serde_json::to_string(&oracle.prediction).unwrap(),
            "fleet answer for {} ({:?}) differs from a single node",
            req.target_site,
            req.mode
        );
    }
}
