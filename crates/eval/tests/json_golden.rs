//! Golden tests for `feam-eval --json` outputs.
//!
//! Same convention as the workspace-root `json_schema_golden` suite: each
//! JSON report is reduced to a sorted `path: type` signature and compared
//! against a checked-in golden file. The table report is deterministic per
//! seed, so its values are pinned too. Re-bless intentional changes with
//! `FEAM_BLESS=1`.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

fn walk(path: &str, v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Null => {
            out.insert(format!("{path}: null"));
        }
        Value::Bool(_) => {
            out.insert(format!("{path}: bool"));
        }
        Value::Number(_) => {
            out.insert(format!("{path}: number"));
        }
        Value::String(_) => {
            out.insert(format!("{path}: string"));
        }
        Value::Array(items) => {
            out.insert(format!("{path}: array"));
            for item in items {
                walk(&format!("{path}[]"), item, out);
            }
        }
        Value::Object(map) => {
            out.insert(format!("{path}: object"));
            for (k, item) in map.iter() {
                walk(&format!("{path}.{k}"), item, out);
            }
        }
    }
}

fn signature(v: &Value) -> String {
    let mut out = BTreeSet::new();
    walk("$", v, &mut out);
    let mut s: String = out.into_iter().collect::<Vec<_>>().join("\n");
    s.push('\n');
    s
}

/// Compare `actual` with the golden file `tests/golden/<file>`, or write
/// it there under `FEAM_BLESS=1`.
fn assert_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("FEAM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with FEAM_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden,
        "{file} drifted from {}; if the change is intentional, \
         re-bless with FEAM_BLESS=1",
        path.display()
    );
}

/// The table report's values in a form a reviewer can read (confusion
/// counts, failed determinants and simulated CPU seconds per mode), closed
/// by an FNV-1a digest of the whole report so that any moved byte fails.
fn table_values(text: &str, v: &Value) -> String {
    let records = v["records"].as_array().expect("records");
    let mut s = format!("records: {}\n", records.len());
    for mode in ["basic", "extended"] {
        let confusion = v["confusion"][mode].as_object().expect("confusion");
        let confusion: Vec<String> = confusion.iter().map(|(k, n)| format!("{k}={n}")).collect();
        let (mut failed, mut cpu) = (BTreeMap::new(), 0.0f64);
        for r in records {
            let determinants = &r[format!("{mode}_failed_determinants").as_str()];
            for d in determinants.as_array().expect("determinants") {
                *failed.entry(d.as_str().expect("name")).or_insert(0) += 1;
            }
            cpu += r[format!("{mode}_cpu_seconds").as_str()]
                .as_f64()
                .expect("cpu");
        }
        let failed: Vec<String> = failed.iter().map(|(d, n)| format!("{d}={n}")).collect();
        s += &format!(
            "confusion.{mode}: {}\nfailed.{mode}: {}\ncpu_seconds.{mode}: {cpu:.2}\n",
            confusion.join(" "),
            failed.join(" ")
        );
    }
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    s + &format!("digest: fnv1a64={digest:016x} bytes={}\n", text.len())
}

/// Run `feam-eval` with `args` plus `--json <tmpfile>` and return the
/// file's text.
fn eval_json_text(name: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "feam-eval-golden-{}-{name}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_feam-eval"))
        .args(args)
        .arg("--json")
        .arg(&path)
        .output()
        .expect("feam-eval runs");
    assert!(
        out.status.success(),
        "feam-eval {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("JSON report written");
    let _ = std::fs::remove_file(&path);
    text
}

/// [`eval_json_text`], parsed.
fn eval_json(name: &str, args: &[&str]) -> Value {
    serde_json::from_str(&eval_json_text(name, args)).expect("report parses")
}

#[test]
fn conform_report_json_schema_is_stable() {
    let v = eval_json(
        "conform",
        &["--conform", "--universes", "1", "--quick", "--seed", "42"],
    );
    assert_golden("feam_eval_conform.schema", &signature(&v));
}

#[test]
#[ignore = "runs the full table evaluation (~1 min debug); exercised by CI with --ignored"]
fn table_eval_json_schema_is_stable() {
    // The report carries Tables I, III and IV whichever tables are asked
    // for, so this one run pins both the shape and every value.
    let text = eval_json_text("tables", &["--table", "1", "--table", "3", "--seeds", "1"]);
    let v: Value = serde_json::from_str(&text).expect("report parses");
    assert_golden("feam_eval_tables.schema", &signature(&v));
    assert_golden("feam_eval_tables.values", &table_values(&text, &v));
}

/// Fast guard on the `--fleet-bench` report shape: a fully populated
/// in-process report serializes to the same signature the binary writes,
/// because `fleet_bench_main` serializes this exact struct.
#[test]
fn fleet_bench_struct_schema_matches_golden() {
    use feam_eval::fleet_bench::{KillDrillReport, PhaseStats, ScalePoint};
    let phase = PhaseStats {
        issued: 100,
        answered: 99,
        shed: 1,
        p50_us: 10,
        p99_us: 90,
        failovers: 2,
        degraded_routes: 1,
    };
    let report = feam_eval::FleetBenchReport {
        seed: 42,
        quick: true,
        cores: 2,
        profile: "release",
        scale_out: vec![ScalePoint {
            nodes: 1,
            requests: 100,
            answered: 100,
            shed: 0,
            wall_seconds: 1.0,
            throughput_rps: 100.0,
            p50_us: 10,
            p99_us: 90,
        }],
        kill_drill: KillDrillReport {
            nodes: 4,
            replication: 2,
            killed_node: 1,
            before: phase.clone(),
            during: phase.clone(),
            after: phase,
            availability: 1.0,
            availability_during: 1.0,
            wrong_answers: 0,
            equivalent: true,
            p99_inflation_during: 1.1,
        },
    };
    let v = serde_json::to_value(&report).expect("serialize");
    assert_golden("feam_eval_fleet.schema", &signature(&v));
}

#[test]
#[ignore = "runs the quick fleet bench (~1 min debug); exercised by CI with --ignored"]
fn fleet_bench_json_schema_is_stable() {
    let v = eval_json("fleet", &["--fleet-bench", "--quick", "--seed", "42"]);
    assert_golden("feam_eval_fleet.schema", &signature(&v));
}
