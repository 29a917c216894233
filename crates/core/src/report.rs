//! User-facing output (§V.C: "If at any point we determine that execution
//! cannot occur, the reasons are detailed to the user via an output
//! file" … "We provide a description of the matching configuration details
//! to the user along with a script that will set them up automatically").

use crate::phases::TargetOutcome;
use std::fmt::Write as _;

/// Serialize the target-phase outcome as JSON (the machine-readable twin
/// of [`render_report`], for toolchains driving FEAM programmatically).
pub fn report_json(outcome: &TargetOutcome) -> serde_json::Value {
    serde_json::json!({
        "mode": format!("{:?}", outcome.prediction.mode),
        "ready": outcome.prediction.ready(),
        "degraded": outcome.prediction.degraded(),
        "confidence": outcome.prediction.confidence(),
        "binary": {
            "summary": outcome.binary.summary(),
            "required_glibc": outcome.binary.required_glibc.as_ref().map(|v| v.render()),
            "needed": outcome.binary.needed,
            "abi_tag": outcome.binary.abi_tag.as_ref().map(|t| t.render()),
            "evidence": evidence_json(&outcome.binary.evidence),
            "provenance": outcome.binary.provenance.as_ref().map(provenance_json),
        },
        "target": {
            "isa": outcome.environment.isa,
            "os": outcome.environment.os,
            "c_library": outcome.environment.c_library.as_ref().map(|v| v.render()),
            "stacks": outcome.environment.available_stacks.iter().map(|d| d.ident()).collect::<Vec<_>>(),
        },
        "determinants": outcome.prediction.verdicts.iter().map(|v| serde_json::json!({
            "determinant": format!("{:?}", v.determinant),
            "verdict": v.verdict.label(),
            "compatible": v.compatible(),
            "detail": v.detail,
        })).collect::<Vec<_>>(),
        "plan": {
            "stack": outcome.evaluation.plan.stack_ident,
            "extra_ld_dirs": outcome.evaluation.plan.extra_ld_dirs,
            "staged": outcome.evaluation.plan.staged.iter().map(|(p, b)| serde_json::json!({
                "path": p, "bytes": b.len(),
            })).collect::<Vec<_>>(),
            "setup_script": outcome.evaluation.plan.setup_script(),
        },
        "cpu_seconds": outcome.cpu_seconds,
        "telemetry": outcome.telemetry.to_json(),
    })
}

/// The evidence survey as JSON (which tables the image actually carries).
pub fn evidence_json(e: &feam_elf::EvidenceSurvey) -> serde_json::Value {
    serde_json::json!({
        "has_section_headers": e.has_section_headers,
        "has_symtab": e.has_symtab,
        "has_comment": e.has_comment,
        "has_dynamic": e.has_dynamic,
        "has_verneed": e.has_verneed,
        "needs_fallback": e.needs_fallback(),
    })
}

/// A provenance report as JSON (claims with tiers and calibrated
/// confidences — the fallback evidence surface of `feam identify`).
pub fn provenance_json(p: &feam_provenance::ProvenanceReport) -> serde_json::Value {
    serde_json::json!({
        "db_version": p.db_version,
        "confidence": p.confidence,
        "compiler": p.compiler.as_ref().map(|c| serde_json::json!({
            "family": c.family.tag(),
            "version": c.version,
            "tier": c.tier.label(),
            "confidence": c.confidence,
        })),
        "mpi_stack": p.mpi_stack.as_ref().map(|m| serde_json::json!({
            "implementation": m.implementation.name(),
            "tier": m.tier.label(),
            "confidence": m.confidence,
        })),
        "runtime": p.runtime.iter().map(|r| serde_json::json!({
            "runtime": r.runtime,
            "evidence": r.evidence,
            "confidence": r.confidence,
        })).collect::<Vec<_>>(),
    })
}

/// Render the target-phase outcome as the report file FEAM writes.
pub fn render_report(outcome: &TargetOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "==== FEAM target evaluation report ====");
    let _ = writeln!(s, "mode: {:?}", outcome.prediction.mode);
    let _ = writeln!(s, "binary: {}", outcome.binary.summary());
    if let Some(p) = &outcome.binary.provenance {
        let _ = writeln!(s, "---- provenance (fallback evidence) ----");
        if let Some(c) = &p.compiler {
            let _ = writeln!(s, "compiler: {}", c.render());
        }
        if let Some(m) = &p.mpi_stack {
            let _ = writeln!(s, "MPI stack: {}", m.render());
        }
        for r in &p.runtime {
            let _ = writeln!(s, "runtime: {} (via {})", r.runtime, r.evidence);
        }
    }
    let _ = writeln!(s, "target ISA: {}", outcome.environment.isa);
    let _ = writeln!(s, "target OS: {}", outcome.environment.os);
    let _ = writeln!(
        s,
        "target C library: {}",
        outcome
            .environment
            .c_library
            .as_ref()
            .map(|v| v.render())
            .unwrap_or_else(|| "unknown".into())
    );
    let _ = writeln!(s, "---- determinants ----");
    for v in &outcome.prediction.verdicts {
        let _ = writeln!(
            s,
            "[{}] {:?}: {}",
            match v.verdict {
                crate::predict::Determination::Compatible => "ok",
                crate::predict::Determination::Incompatible => "FAIL",
                crate::predict::Determination::Unknown => "??",
            },
            v.determinant,
            v.detail
        );
    }
    let _ = writeln!(s, "---- stack tests ----");
    for t in &outcome.evaluation.stack_tests {
        let _ = writeln!(
            s,
            "{}: native hello world {}{}",
            t.stack_ident,
            if t.native_ok { "passed" } else { "failed" },
            match t.transported_ok {
                Some(true) => ", transported hello world passed",
                Some(false) => ", transported hello world FAILED",
                None => "",
            }
        );
    }
    if let Some(res) = &outcome.evaluation.resolution {
        let _ = writeln!(s, "---- resolution ----");
        for o in &res.outcomes {
            match o {
                crate::resolve::LibraryResolution::Staged {
                    soname,
                    staged_path,
                } => {
                    let _ = writeln!(s, "resolved {soname} -> {staged_path}");
                }
                crate::resolve::LibraryResolution::Failed { soname, reason } => {
                    let _ = writeln!(s, "unresolved {soname}: {reason}");
                }
            }
        }
    }
    let _ = writeln!(s, "---- verdict ----");
    let _ = writeln!(
        s,
        "prediction: {}",
        if outcome.prediction.ready() {
            "READY for execution"
        } else {
            "NOT ready"
        }
    );
    let _ = writeln!(
        s,
        "confidence: {:.2}{}",
        outcome.prediction.confidence(),
        if outcome.prediction.degraded() {
            " (DEGRADED: some determinants could not be observed)"
        } else {
            ""
        }
    );
    if outcome.prediction.ready() {
        let _ = writeln!(s, "---- setup script ----");
        s.push_str(&outcome.evaluation.plan.setup_script());
    }
    let _ = writeln!(s, "phase CPU seconds: {:.1}", outcome.cpu_seconds);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{run_source_phase, run_target_phase, PhaseConfig};
    use feam_sim::compile::{compile, ProgramSpec};
    use feam_sim::toolchain::Language;
    use feam_workloads::sites::{standard_sites, INDIA, RANGER};

    #[test]
    fn json_report_mirrors_text_report() {
        let sites = standard_sites(31);
        let ranger = &sites[RANGER];
        let ist = ranger.stacks[0].clone();
        let image = compile(ranger, Some(&ist), &ProgramSpec::new("is", Language::C), 4)
            .unwrap()
            .image;
        let cfg = PhaseConfig {
            recorder: feam_obs::Recorder::with_sink(Box::new(feam_obs::NullSink)),
            ..PhaseConfig::default()
        };
        let outcome = run_target_phase(&sites[INDIA], Some(&image), None, &cfg);
        let j = report_json(&outcome);
        assert_eq!(j["ready"], outcome.prediction.ready());
        assert_eq!(j["mode"], "Basic");
        assert!(j["determinants"].as_array().unwrap().len() >= 2);
        assert!(j["target"]["stacks"].as_array().unwrap().len() >= 3);
        // The enabled recorder's metrics ride along under "telemetry".
        assert!(j["telemetry"]["spans"]["target_phase"]["count"].as_u64() == Some(1));
        assert!(j["telemetry"]["spans"]["tec"]["count"].as_u64() == Some(1));
        // Round-trips through serde_json text.
        let text = serde_json::to_string(&j).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, j);
        // And the telemetry subtree is the snapshot's own serialization.
        let snap_text = serde_json::to_string(&outcome.telemetry).unwrap();
        assert_eq!(serde_json::from_str(&snap_text).unwrap(), j["telemetry"]);
    }

    #[test]
    fn report_contains_determinants_and_verdict() {
        let sites = standard_sites(29);
        let ranger = &sites[RANGER];
        let ist = ranger.stacks[1].clone();
        let image = compile(
            ranger,
            Some(&ist),
            &ProgramSpec::new("ep", Language::Fortran),
            3,
        )
        .unwrap()
        .image;
        let bundle = run_source_phase(ranger, &image, &PhaseConfig::default()).unwrap();
        let outcome = run_target_phase(
            &sites[INDIA],
            Some(&image),
            Some(&bundle),
            &PhaseConfig::default(),
        );
        let report = render_report(&outcome);
        assert!(report.contains("FEAM target evaluation report"));
        assert!(report.contains("determinants"));
        assert!(report.contains("Isa"));
        assert!(report.contains("CLibrary"));
        assert!(report.contains("prediction:"));
        if outcome.prediction.ready() {
            assert!(report.contains("module load"));
        }
    }
}
