//! # feam-sim — simulated Unix computing sites
//!
//! The substrate that replaces the paper's five physical HPC systems
//! (Ranger, Forge, Blacklight, FutureGrid India, ITS Fir): an in-memory
//! model of everything FEAM can observe or do at a site.
//!
//! * [`vfs`] — a virtual filesystem holding `/proc`, `/etc`, module
//!   databases, wrappers and genuine ELF library images.
//! * [`site`] — immutable [`site::Site`]s materialized from a
//!   [`site::SiteConfig`]; cheap per-migration [`site::Session`] overlays
//!   carry environment variables and staged library copies.
//! * [`toolchain`] / [`mpi`] / [`libc`] — the compiler-runtime, MPI-stack
//!   and glibc domain models (Table I signatures, GLIBC/GLIBCXX version
//!   ladders, ABI markers).
//! * [`mod@compile`] — the simulated toolchain that emits real ELF binaries
//!   whose link footprint reflects the build environment.
//! * [`loader`] — an `ld.so` model (search order, soname matching, GNU
//!   version references, symbol binding) producing ground truth.
//! * [`exec`] — job launches with the paper's failure taxonomy and
//!   five-attempt retry discipline.
//! * [`faults`] — deterministic seeded fault injection ([`faults::FaultPlan`])
//!   at the pipeline's chokepoints, tagged transient vs persistent.
//! * [`tools`] — emulated `uname`, `ldd`, `locate`, `find`, Environment
//!   Modules, SoftEnv, wrapper probing.
//!
//! Determinism: all sampling flows from site seeds via [`rng`]; identical
//! seeds give byte-identical sites, binaries and outcomes.
//!
//! ```
//! use feam_sim::compile::{compile, ProgramSpec};
//! use feam_sim::exec::{run_mpi, DEFAULT_ATTEMPTS};
//! use feam_sim::mpi::{MpiImpl, MpiStack, Network};
//! use feam_sim::site::{OsInfo, Session, Site, SiteConfig};
//! use feam_sim::toolchain::{Compiler, CompilerFamily, Language};
//!
//! // Materialize a small site, compile a program there, and run it.
//! let mut cfg = SiteConfig::new("demo", feam_elf::HostArch::X86_64,
//!     OsInfo::new("CentOS", "5.6", "2.6.18-238.el5"), "2.5", 7);
//! cfg.system_error_rate = 0.0;
//! cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
//! cfg.stacks = vec![(MpiStack::new(MpiImpl::OpenMpi, "1.4",
//!     Compiler::new(CompilerFamily::Gnu, "4.1.2"), Network::Ethernet), true)];
//! let site = Site::build(cfg);
//!
//! let stack = site.stacks[0].clone();
//! let bin = compile(&site, Some(&stack), &ProgramSpec::new("demo", Language::C), 7).unwrap();
//! let mut sess = Session::new(&site);
//! sess.load_stack(&stack);
//! sess.stage_file("/home/user/demo", bin.image.clone());
//! assert!(run_mpi(&mut sess, "/home/user/demo", &stack, 4, DEFAULT_ATTEMPTS).success);
//! ```

pub mod compile;
pub mod exec;
pub mod faults;
pub mod libc;
pub mod libgen;
pub mod loader;
pub mod memo;
pub mod mpi;
pub mod queue;
pub mod rng;
pub mod site;
pub mod stamp;
pub mod toolchain;
pub mod tools;
pub mod vfs;
pub mod vocab;

pub use compile::{
    compile, compile_variant, BinaryVariant, CompileError, CompiledBinary, ProgramSpec,
};
pub use exec::{run_mpi, run_serial, ExecOutcome, FailureCause, SystemErrorKind, DEFAULT_ATTEMPTS};
pub use faults::{Chokepoint, FaultKind, FaultPlan, FaultRate};
pub use loader::{ldd_map, resolve_closure, Closure, LddListing, LoadError, ObjectMeta};
pub use mpi::{MpiImpl, MpiStack, Network};
pub use queue::{submit, QueueOutcome, QueueSpec};
pub use site::{EnvMap, EnvMgmt, InstalledStack, OsInfo, Session, Site, SiteConfig};
pub use toolchain::{Compiler, CompilerFamily, Language};
pub use vfs::{Content, Vfs};
