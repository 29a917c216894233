//! The source-phase bundle (§V: "The output from a source phase is bundled
//! for the user and must be copied to each target site").
//!
//! Contains the application's description, copies + descriptions of every
//! shared library gathered at the guaranteed execution environment, the
//! GEE's environment description, and MPI hello-world probes compiled with
//! the application's stack. §VI.C: "a bundle of shared library copies
//! composed by FEAM's source phase averaged 45M in size".

use crate::bdc::{BinaryDescription, LibraryCopy};
use crate::edc::EnvironmentDescription;
use feam_sim::toolchain::Language;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A transported MPI hello-world probe.
#[derive(Debug, Clone)]
pub struct HelloWorldProbe {
    pub language: Language,
    /// Stack identifier it was compiled with at the GEE.
    pub stack_ident: String,
    pub image: Arc<Vec<u8>>,
}

/// The source-phase output.
#[derive(Debug, Clone)]
pub struct SourceBundle {
    /// Name of the guaranteed execution environment.
    pub gee_site: String,
    /// The application's description as gathered at the GEE (shared with
    /// the BDC memo).
    pub app: Arc<BinaryDescription>,
    /// The GEE's environment description (shared with the EDC memo).
    pub gee_env: Arc<EnvironmentDescription>,
    /// Stack the application was matched to at the GEE.
    pub app_stack_ident: Option<String>,
    /// Library copies keyed by soname.
    pub libraries: BTreeMap<String, LibraryCopy>,
    /// Transported hello worlds.
    pub hello_worlds: Vec<HelloWorldProbe>,
    /// Injected faults the source phase met while gathering this bundle
    /// (retried or degraded around); a bundle with any is not memoized.
    pub faults_seen: u64,
}

/// Manifest entry for one library copy (serializable summary).
#[derive(Debug, Clone, Serialize)]
pub struct ManifestEntry {
    pub soname: String,
    pub origin: String,
    pub size: usize,
    pub required_glibc: Option<String>,
    pub needed: Vec<String>,
}

impl SourceBundle {
    /// Total size in bytes of all library copies (the §VI.C statistic).
    pub fn library_bytes(&self) -> usize {
        self.libraries.values().map(|l| l.bytes.len()).sum()
    }

    /// Total bundle size (libraries + hello worlds).
    pub fn total_bytes(&self) -> usize {
        self.library_bytes()
            + self
                .hello_worlds
                .iter()
                .map(|h| h.image.len())
                .sum::<usize>()
    }

    /// Serializable manifest (what a real FEAM writes next to the copies).
    pub fn manifest(&self) -> serde_json::Value {
        let libs: Vec<ManifestEntry> = self
            .libraries
            .values()
            .map(|l| ManifestEntry {
                soname: l.soname.clone(),
                origin: l.origin.clone(),
                size: l.bytes.len(),
                required_glibc: l.description.required_glibc.as_ref().map(|v| v.render()),
                needed: l.description.needed.iter().map(|n| n.to_string()).collect(),
            })
            .collect();
        serde_json::json!({
            "gee_site": self.gee_site,
            "application": {
                "path": crate::phases::SOURCE_APP_PATH,
                "summary": self.app.summary(),
                "required_glibc": self.app.required_glibc.as_ref().map(|v| v.render()),
            },
            "app_stack": self.app_stack_ident,
            "libraries": libs,
            "hello_worlds": self.hello_worlds.iter().map(|h| serde_json::json!({
                "language": format!("{:?}", h.language),
                "stack": h.stack_ident,
                "size": h.image.len(),
            })).collect::<Vec<_>>(),
            "total_bytes": self.total_bytes(),
        })
    }

    /// The hello world probe for a language, if present.
    pub fn hello_world(&self, language: Language) -> Option<&HelloWorldProbe> {
        self.hello_worlds.iter().find(|h| h.language == language)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdc::BinaryDescription;

    fn dummy_description() -> BinaryDescription {
        let mut spec =
            feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        let bytes = spec.build().unwrap();
        BinaryDescription::from_bytes("/tmp/app", &bytes).unwrap()
    }

    fn dummy_env() -> EnvironmentDescription {
        EnvironmentDescription {
            isa: "x86_64".into(),
            arch: Some(feam_elf::HostArch::X86_64),
            os: "CentOS release 5.6".into(),
            c_library: feam_elf::VersionName::parse("GLIBC_2.5"),
            env_mgmt: None,
            available_stacks: vec![],
            loaded_stack: None,
            unobserved: vec![],
        }
    }

    #[test]
    fn bundle_size_accounting() {
        let mut libraries = BTreeMap::new();
        let lib_bytes = Arc::new(vec![0u8; 10_000]);
        libraries.insert(
            "libx.so.1".to_string(),
            LibraryCopy {
                soname: "libx.so.1".into(),
                origin: "/usr/lib64/libx.so.1".into(),
                bytes: lib_bytes,
                description: Arc::new(dummy_description()),
            },
        );
        let bundle = SourceBundle {
            gee_site: "ranger".into(),
            app: Arc::new(dummy_description()),
            gee_env: Arc::new(dummy_env()),
            app_stack_ident: Some("openmpi-1.3-intel-10.1".into()),
            libraries,
            hello_worlds: vec![HelloWorldProbe {
                language: Language::C,
                stack_ident: "openmpi-1.3-intel-10.1".into(),
                image: Arc::new(vec![0u8; 500]),
            }],
            faults_seen: 0,
        };
        assert_eq!(bundle.library_bytes(), 10_000);
        assert_eq!(bundle.total_bytes(), 10_500);
        let m = bundle.manifest();
        assert_eq!(m["gee_site"], "ranger");
        assert_eq!(m["application"]["path"], crate::phases::SOURCE_APP_PATH);
        assert_eq!(m["libraries"].as_array().unwrap().len(), 1);
        assert_eq!(m["total_bytes"], 10_500);
        assert!(bundle.hello_world(Language::C).is_some());
        assert!(bundle.hello_world(Language::Fortran).is_none());
    }
}
