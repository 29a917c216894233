//! The five Table II computing sites, materialized as simulator
//! configurations.
//!
//! | Site | OS | glibc | Compilers | MPI stacks |
//! |---|---|---|---|---|
//! | Ranger (TACC, MPP 62,976) | CentOS 4.9 | 2.3.4 | GNU 3.4.6, Intel 10.1, PGI 7.2 | Open MPI 1.3 (i/g/p), MVAPICH2 1.2 (i/g/p) |
//! | Forge (NCSA, hybrid 576) | RHEL 6.1 | 2.12 | GNU 4.4.5, Intel 12.0 | Open MPI 1.4 (g/i), MVAPICH2 1.7rc1 (i) |
//! | Blacklight (PSC, SMP 4,096) | SLES 11 | 2.11.1 | GNU 4.4.3, Intel 11.1 | Open MPI 1.4 (i/g) |
//! | India (FutureGrid IU, 920) | RHEL 5.6 | 2.5 | GNU 4.1.2, Intel 11.1 | Open MPI 1.4.3 (i/g), MVAPICH2 1.7a2 (i/g), MPICH2 1.4 (i/g) |
//! | Fir (UVA ITS, 1,496) | CentOS 5.6 | 2.5 | GNU 4.1.2, Intel 12.0, PGI 10.9 | Open MPI 1.4 (i/g/p), MVAPICH2 1.7a (i/g/p), MPICH2 1.3 (i/g/p) |
//!
//! Calibration knobs (system-error rates, FPE triggers, misconfigured
//! stacks, hot-glibc biases) are set so that the evaluation's aggregate
//! numbers land in the neighbourhood of the paper's Tables III/IV; every
//! knob is an explicit constant here, not hidden in the harness.

use feam_elf::HostArch;
use feam_sim::mpi::{MpiImpl, MpiStack, Network};
use feam_sim::site::{EnvMgmt, OsInfo, Site, SiteConfig};
use feam_sim::toolchain::{Compiler, CompilerFamily};

/// Index of Ranger in [`standard_sites`]' output.
pub const RANGER: usize = 0;
/// Index of Forge.
pub const FORGE: usize = 1;
/// Index of Blacklight.
pub const BLACKLIGHT: usize = 2;
/// Index of India.
pub const INDIA: usize = 3;
/// Index of Fir.
pub const FIR: usize = 4;

/// Table II literals must come from the shared era vocabulary
/// ([`feam_sim::vocab`]) — the provenance signature database enumerates
/// that table, so a version only written here would be invisible to
/// signature matching.
fn vocab_compiler(family: CompilerFamily, v: &str) -> Compiler {
    debug_assert!(
        feam_sim::vocab::is_known(family, v),
        "{family:?} {v} missing from feam_sim::vocab::KNOWN_COMPILERS"
    );
    Compiler::new(family, v)
}
fn gnu(v: &str) -> Compiler {
    vocab_compiler(CompilerFamily::Gnu, v)
}
fn intel(v: &str) -> Compiler {
    vocab_compiler(CompilerFamily::Intel, v)
}
fn pgi(v: &str) -> Compiler {
    vocab_compiler(CompilerFamily::Pgi, v)
}

fn stack(mpi: MpiImpl, v: &str, c: Compiler, net: Network) -> (MpiStack, bool) {
    (MpiStack::new(mpi, v, c, net), true)
}

fn broken(mpi: MpiImpl, v: &str, c: Compiler, net: Network) -> (MpiStack, bool) {
    (MpiStack::new(mpi, v, c, net), false)
}

/// Ranger: XSEDE MPP system at TACC.
pub fn ranger(seed: u64) -> SiteConfig {
    let mut cfg = SiteConfig::new(
        "ranger",
        HostArch::X86_64,
        OsInfo::new("CentOS", "4.9", "2.6.9-103.ELsmp"),
        "2.3.4",
        seed ^ 0x5261_6e67,
    );
    cfg.description = "XSEDE Ranger, Texas Advanced Computing Center (MPP - 62,976)".into();
    cfg.compilers = vec![gnu("3.4.6"), intel("10.1"), pgi("7.2")];
    use MpiImpl::*;
    use Network::*;
    cfg.stacks = vec![
        stack(OpenMpi, "1.3", intel("10.1"), Infiniband),
        stack(OpenMpi, "1.3", gnu("3.4.6"), Infiniband),
        stack(OpenMpi, "1.3", pgi("7.2"), Infiniband),
        stack(Mvapich2, "1.2", intel("10.1"), Infiniband),
        stack(Mvapich2, "1.2", gnu("3.4.6"), Infiniband),
        stack(Mvapich2, "1.2", pgi("7.2"), Infiniband),
    ];
    cfg.env_mgmt = EnvMgmt::Modules;
    cfg.system_error_rate = 0.015;
    // Old glibc: everything built here is maximally portable.
    cfg.hot_glibc_bias = 0.25;
    cfg.ldd_flaky_rate = 0.10;
    cfg
}

/// Forge: XSEDE hybrid CPU/GPU system at NCSA.
pub fn forge(seed: u64) -> SiteConfig {
    let mut cfg = SiteConfig::new(
        "forge",
        HostArch::X86_64,
        OsInfo::new(
            "Red Hat Enterprise Linux Server",
            "6.1",
            "2.6.32-131.0.15.el6",
        ),
        "2.12",
        seed ^ 0x466f_7267,
    );
    cfg.description =
        "XSEDE Forge, National Center for Supercomputing Applications (Hybrid - 576)".into();
    cfg.compilers = vec![gnu("4.4.5"), intel("12.0")];
    use MpiImpl::*;
    use Network::*;
    cfg.stacks = vec![
        stack(OpenMpi, "1.4", gnu("4.4.5"), Infiniband),
        stack(OpenMpi, "1.4", intel("12.0"), Infiniband),
        stack(Mvapich2, "1.7rc1", intel("12.0"), Infiniband),
    ];
    cfg.env_mgmt = EnvMgmt::Modules;
    cfg.system_error_rate = 0.02;
    // Newest glibc on the testbed: runtimes here are built hot, making
    // library copies from Forge poorly portable (a resolution-failure
    // source).
    cfg.hot_glibc_bias = 0.85;
    // RHEL 6 compat packages + lingering older toolchain installs.
    cfg.compat_runtimes = vec![gnu("3.4.6"), gnu("4.1.2"), intel("10.1")];
    cfg
}

/// Blacklight: XSEDE SMP system at PSC.
pub fn blacklight(seed: u64) -> SiteConfig {
    let mut cfg = SiteConfig::new(
        "blacklight",
        HostArch::X86_64,
        OsInfo::new("SUSE Linux Enterprise Server", "11", "2.6.32.12-0.7"),
        "2.11.1",
        seed ^ 0x426c_6163,
    );
    cfg.description = "XSEDE Blacklight, Pittsburgh Supercomputing Center (SMP - 4,096)".into();
    cfg.compilers = vec![gnu("4.4.3"), intel("11.1")];
    use MpiImpl::*;
    use Network::*;
    cfg.stacks = vec![
        stack(OpenMpi, "1.4", intel("11.1"), Ethernet),
        stack(OpenMpi, "1.4", gnu("4.4.3"), Ethernet),
    ];
    cfg.env_mgmt = EnvMgmt::Modules;
    cfg.system_error_rate = 0.02;
    cfg.hot_glibc_bias = 0.7;
    // The SMP's FP environment trips binaries built with Forge's gcc
    // 4.4.5 runtime (vendor-patched FP defaults differ).
    cfg.fpe_triggers = vec![(CompilerFamily::Gnu, "4.4.5".to_string())];
    cfg.compat_runtimes = vec![gnu("3.4.6"), gnu("4.1.2"), intel("10.1"), intel("12.0")];
    // locate has no database on the big SMP.
    cfg.locate_present = false;
    cfg
}

/// India: FutureGrid cluster at Indiana University.
pub fn india(seed: u64) -> SiteConfig {
    let mut cfg = SiteConfig::new(
        "india",
        HostArch::X86_64,
        OsInfo::new("Red Hat Enterprise Linux Server", "5.6", "2.6.18-238.el5"),
        "2.5",
        seed ^ 0x496e_6469,
    );
    cfg.description = "FutureGrid India, Indiana University (Cluster - 920)".into();
    cfg.compilers = vec![gnu("4.1.2"), intel("11.1")];
    use MpiImpl::*;
    use Network::*;
    cfg.stacks = vec![
        stack(OpenMpi, "1.4.3", intel("11.1"), Infiniband),
        stack(OpenMpi, "1.4.3", gnu("4.1.2"), Infiniband),
        stack(Mvapich2, "1.7a2", intel("11.1"), Infiniband),
        // Misconfigured: advertised by softenv, but the libraries were
        // moved aside during an upgrade (§III.B's unusable stack).
        broken(Mvapich2, "1.7a2", gnu("4.1.2"), Infiniband),
        stack(Mpich2, "1.4", intel("11.1"), Ethernet),
        stack(Mpich2, "1.4", gnu("4.1.2"), Ethernet),
    ];
    cfg.env_mgmt = EnvMgmt::SoftEnv;
    cfg.system_error_rate = 0.02;
    cfg.hot_glibc_bias = 0.28;
    cfg.ldd_flaky_rate = 0.15;
    // RHEL 5 compat-gcc packages, the gcc44 preview package, and older /
    // newer Intel redistributables left by admins.
    cfg.compat_runtimes = vec![gnu("3.4.6"), gnu("4.4.3"), intel("10.1"), intel("12.0")];
    cfg
}

/// Fir: University of Virginia ITS cluster.
pub fn fir(seed: u64) -> SiteConfig {
    let mut cfg = SiteConfig::new(
        "fir",
        HostArch::X86_64,
        OsInfo::new("CentOS", "5.6", "2.6.18-238.9.1.el5"),
        "2.5",
        seed ^ 0x4669_7221,
    );
    cfg.description = "ITS Fir, University of Virginia (Cluster - 1,496)".into();
    cfg.compilers = vec![gnu("4.1.2"), intel("12.0"), pgi("10.9")];
    use MpiImpl::*;
    use Network::*;
    cfg.stacks = vec![
        stack(OpenMpi, "1.4", intel("12.0"), Infiniband),
        stack(OpenMpi, "1.4", gnu("4.1.2"), Infiniband),
        stack(OpenMpi, "1.4", pgi("10.9"), Infiniband),
        stack(Mvapich2, "1.7a", intel("12.0"), Infiniband),
        stack(Mvapich2, "1.7a", gnu("4.1.2"), Infiniband),
        stack(Mvapich2, "1.7a", pgi("10.9"), Infiniband),
        stack(Mpich2, "1.3", intel("12.0"), Ethernet),
        stack(Mpich2, "1.3", gnu("4.1.2"), Ethernet),
        stack(Mpich2, "1.3", pgi("10.9"), Ethernet),
    ];
    cfg.env_mgmt = EnvMgmt::Modules;
    cfg.system_error_rate = 0.02;
    cfg.hot_glibc_bias = 0.28;
    // Binaries built with Blacklight's gcc 4.4.3 runtime trip an
    // FP-environment quirk on Fir.
    cfg.fpe_triggers = vec![(CompilerFamily::Gnu, "4.4.3".to_string())];
    cfg.compat_runtimes = vec![gnu("3.4.6"), gnu("4.4.3"), intel("10.1")];
    cfg
}

/// All five Table II site configurations, in paper order.
pub fn standard_site_configs(seed: u64) -> Vec<SiteConfig> {
    vec![
        ranger(seed),
        forge(seed),
        blacklight(seed),
        india(seed),
        fir(seed),
    ]
}

/// Materialize the five sites. This builds every library image at every
/// site; construction is deterministic in `seed`.
pub fn standard_sites(seed: u64) -> Vec<Site> {
    standard_site_configs(seed)
        .into_iter()
        .map(Site::build)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_sites_with_paper_stack_counts() {
        let configs = standard_site_configs(1);
        assert_eq!(configs.len(), 5);
        let counts: Vec<usize> = configs.iter().map(|c| c.stacks.len()).collect();
        assert_eq!(counts, vec![6, 3, 2, 6, 9], "Table II stack matrix");
    }

    #[test]
    fn openmpi_available_at_all_five_sites() {
        for cfg in standard_site_configs(1) {
            assert!(
                cfg.stacks.iter().any(|(s, _)| s.mpi == MpiImpl::OpenMpi),
                "{} lacks Open MPI",
                cfg.name
            );
        }
    }

    #[test]
    fn mvapich2_at_four_mpich2_at_two() {
        let configs = standard_site_configs(1);
        let mv = configs
            .iter()
            .filter(|c| c.stacks.iter().any(|(s, _)| s.mpi == MpiImpl::Mvapich2))
            .count();
        let mp = configs
            .iter()
            .filter(|c| c.stacks.iter().any(|(s, _)| s.mpi == MpiImpl::Mpich2))
            .count();
        assert_eq!(mv, 4, "paper: MVAPICH2 is available at four sites");
        assert_eq!(mp, 2, "paper: MPICH2 is available at two sites");
    }

    #[test]
    fn glibc_versions_match_table_two() {
        let configs = standard_site_configs(1);
        let glibcs: Vec<&str> = configs.iter().map(|c| c.glibc.as_str()).collect();
        assert_eq!(glibcs, vec!["2.3.4", "2.12", "2.11.1", "2.5", "2.5"]);
    }

    #[test]
    fn sites_build_deterministically() {
        let a = standard_sites(42);
        let b = standard_sites(42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
            let px: Vec<&str> = x.vfs().all_paths().collect();
            let py: Vec<&str> = y.vfs().all_paths().collect();
            assert_eq!(px, py);
        }
    }

    #[test]
    fn india_has_one_misconfigured_stack() {
        let cfg = india(1);
        assert_eq!(cfg.stacks.iter().filter(|(_, ok)| !ok).count(), 1);
    }

    #[test]
    fn ranger_runs_old_everything() {
        let s = Site::build(ranger(1));
        assert_eq!(s.config.glibc, "2.3.4");
        // gcc 3.4 era: libg2c, not libgfortran.
        assert!(s.vfs().exists("/usr/lib64/libg2c.so.0"));
        assert!(!s.vfs().exists("/usr/lib64/libgfortran.so.3"));
        // libstdc++.so.5 era.
        assert!(s.vfs().exists("/usr/lib64/libstdc++.so.5"));
    }

    #[test]
    fn forge_runs_new_everything() {
        let s = Site::build(forge(1));
        assert!(s.vfs().exists("/usr/lib64/libgfortran.so.3"));
        assert!(s.vfs().exists("/usr/lib64/libstdc++.so.6"));
        // Compat packages also provide the old Fortran runtime system-wide.
        assert!(s.vfs().exists("/usr/lib64/libg2c.so.0"));
        assert!(s.vfs().exists("/usr/lib64/libgfortran.so.1"));
    }
}
