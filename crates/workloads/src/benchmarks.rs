//! Benchmark models: NAS Parallel Benchmarks 2.4 and SPEC MPI2007.
//!
//! §VI.A: "From the NPB suite, our test set consisted of four kernels
//! (integer sort, embarrassingly parallel, conjugate gradient, and
//! multi-grid …) as well as three pseudo applications (block tridiagonal
//! solver, scalar penta-diagonal solver, and lower-upper Gauss-Seidel
//! solver). From the SPEC MPI2007 benchmark suite, our test set consisted
//! of a quantum chromodynamics code (104.milc), two computational fluid
//! dynamics codes (107.leslie3d and 115.fds4), a parallel ray tracing code
//! (122.tachyon), a molecular dynamics simulation code (126.lammps), a
//! weather prediction code (127.GAPgeofem), and a 3D Eulerian
//! hydrodynamics code (129.tera_tf)."

use feam_sim::compile::ProgramSpec;
use feam_sim::mpi::MpiStack;
use feam_sim::rng;
use feam_sim::toolchain::{CompilerFamily, Language};
use serde::Serialize;

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Suite {
    /// NAS Parallel Benchmarks v2.4 (MPI reference implementation).
    Npb,
    /// SPEC MPI2007.
    SpecMpi2007,
}

impl Suite {
    /// Column label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Npb => "NAS",
            Suite::SpecMpi2007 => "SPEC",
        }
    }
}

/// One benchmark's model.
#[derive(Debug, Clone, Serialize)]
pub struct Benchmark {
    /// Name as the paper writes it (`bt`, `104.milc`, …).
    pub name: String,
    /// Descriptive title.
    pub title: String,
    pub suite: Suite,
    pub language: Language,
    /// Nominal code size in bytes (drives binary sizes).
    pub text_size: usize,
    /// How eagerly the code uses newer glibc interfaces.
    pub glibc_appetite: f64,
    /// Base probability the source compiles with an arbitrary MPI stack
    /// (before the deterministic per-combination rules below).
    pub compile_base: f64,
}

impl Benchmark {
    /// The [`ProgramSpec`] handed to the simulated toolchain.
    pub fn program_spec(&self) -> ProgramSpec {
        let mut p = ProgramSpec::new(&self.name, self.language);
        p.glibc_appetite = self.glibc_appetite;
        p.text_size = self.text_size;
        p
    }

    /// Would this benchmark compile with `stack`? Deterministic in `seed`.
    /// Combines hard rules (e.g. C++ codes need a GLIBCXX-era toolchain;
    /// 2.4-era NPB Fortran chokes on strict PGI) with a seeded draw at the
    /// benchmark's base rate — the paper's "some benchmarks would not
    /// compile with certain MPI stack combinations".
    pub fn compiles_with(&self, stack: &MpiStack, seed: u64) -> bool {
        // Hard rules first.
        if self.language == Language::Cxx
            && stack.compiler.family == CompilerFamily::Gnu
            && stack.compiler.major() < 4
        {
            return false; // pre-GLIBCXX libstdc++ cannot build these C++ codes
        }
        if self.suite == Suite::Npb
            && self.language.needs_fortran_rt()
            && stack.compiler.family == CompilerFamily::Pgi
            && stack.compiler.major() < 10
        {
            return false; // NPB 2.4 Fortran vs old strict PGI f90
        }
        rng::chance(
            seed,
            &[&self.name, &stack.ident(), "compiles"],
            self.compile_base,
        )
    }
}

/// The seven NPB codes in the paper's test set.
pub fn npb_benchmarks() -> Vec<Benchmark> {
    let b = |name: &str, title: &str, language, text_size, compile_base| Benchmark {
        name: name.into(),
        title: title.into(),
        suite: Suite::Npb,
        language,
        text_size,
        glibc_appetite: 0.035,
        compile_base,
    };
    vec![
        b("is", "integer sort kernel", Language::C, 96 * 1024, 0.80),
        b(
            "ep",
            "embarrassingly parallel kernel",
            Language::Fortran,
            110 * 1024,
            0.72,
        ),
        b(
            "cg",
            "conjugate gradient kernel",
            Language::Fortran,
            150 * 1024,
            0.72,
        ),
        b(
            "mg",
            "multi-grid kernel",
            Language::Fortran,
            210 * 1024,
            0.70,
        ),
        b(
            "bt",
            "block tridiagonal solver",
            Language::Fortran,
            380 * 1024,
            0.66,
        ),
        b(
            "sp",
            "scalar penta-diagonal solver",
            Language::Fortran,
            340 * 1024,
            0.66,
        ),
        b(
            "lu",
            "lower-upper Gauss-Seidel solver",
            Language::Fortran,
            360 * 1024,
            0.68,
        ),
    ]
}

/// The seven SPEC MPI2007 codes in the paper's test set.
pub fn spec_benchmarks() -> Vec<Benchmark> {
    let b = |name: &str, title: &str, language, text_size, appetite, compile_base| Benchmark {
        name: name.into(),
        title: title.into(),
        suite: Suite::SpecMpi2007,
        language,
        text_size,
        glibc_appetite: appetite,
        compile_base,
    };
    vec![
        b(
            "104.milc",
            "quantum chromodynamics",
            Language::C,
            420 * 1024,
            0.12,
            0.92,
        ),
        b(
            "107.leslie3d",
            "computational fluid dynamics",
            Language::Fortran,
            530 * 1024,
            0.10,
            0.88,
        ),
        b(
            "115.fds4",
            "computational fluid dynamics (fire)",
            Language::MixedCFortran,
            1_400 * 1024,
            0.15,
            0.84,
        ),
        b(
            "122.tachyon",
            "parallel ray tracing",
            Language::C,
            310 * 1024,
            0.14,
            0.94,
        ),
        b(
            "126.lammps",
            "molecular dynamics",
            Language::Cxx,
            1_900 * 1024,
            0.06,
            0.86,
        ),
        b(
            "127.GAPgeofem",
            "geofem weather/ground simulation",
            Language::MixedCFortran,
            860 * 1024,
            0.13,
            0.86,
        ),
        b(
            "129.tera_tf",
            "3D Eulerian hydrodynamics",
            Language::Fortran,
            640 * 1024,
            0.11,
            0.90,
        ),
    ]
}

/// All fourteen benchmarks (NPB first).
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = npb_benchmarks();
    v.extend(spec_benchmarks());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use feam_sim::mpi::{MpiImpl, Network};
    use feam_sim::toolchain::Compiler;

    #[test]
    fn seven_plus_seven_benchmarks() {
        assert_eq!(npb_benchmarks().len(), 7);
        assert_eq!(spec_benchmarks().len(), 7);
        assert_eq!(all_benchmarks().len(), 14);
    }

    #[test]
    fn paper_names_present() {
        let names: Vec<String> = all_benchmarks().iter().map(|b| b.name.clone()).collect();
        for n in [
            "is",
            "ep",
            "cg",
            "mg",
            "bt",
            "sp",
            "lu",
            "104.milc",
            "107.leslie3d",
            "115.fds4",
            "122.tachyon",
            "126.lammps",
            "127.GAPgeofem",
            "129.tera_tf",
        ] {
            assert!(names.iter().any(|x| x == n), "missing {n}");
        }
    }

    #[test]
    fn lammps_needs_modern_gcc() {
        let lammps = spec_benchmarks()
            .into_iter()
            .find(|b| b.name == "126.lammps")
            .unwrap();
        let old = MpiStack::new(
            MpiImpl::OpenMpi,
            "1.3",
            Compiler::new(CompilerFamily::Gnu, "3.4.6"),
            Network::Infiniband,
        );
        // Hard rule: never compiles, regardless of seed.
        for seed in 0..20 {
            assert!(!lammps.compiles_with(&old, seed));
        }
        let new = MpiStack::new(
            MpiImpl::OpenMpi,
            "1.4",
            Compiler::new(CompilerFamily::Gnu, "4.4.5"),
            Network::Infiniband,
        );
        assert!((0..20).any(|seed| lammps.compiles_with(&new, seed)));
    }

    #[test]
    fn npb_fortran_rejects_old_pgi() {
        let bt = npb_benchmarks()
            .into_iter()
            .find(|b| b.name == "bt")
            .unwrap();
        let old_pgi = MpiStack::new(
            MpiImpl::Mvapich2,
            "1.2",
            Compiler::new(CompilerFamily::Pgi, "7.2"),
            Network::Infiniband,
        );
        for seed in 0..20 {
            assert!(!bt.compiles_with(&old_pgi, seed));
        }
        // But `is` (C) is allowed to compile with old PGI.
        let is = npb_benchmarks()
            .into_iter()
            .find(|b| b.name == "is")
            .unwrap();
        assert!((0..20).any(|seed| is.compiles_with(&old_pgi, seed)));
    }

    #[test]
    fn compile_viability_deterministic_per_seed() {
        let cg = npb_benchmarks()
            .into_iter()
            .find(|b| b.name == "cg")
            .unwrap();
        let s = MpiStack::new(
            MpiImpl::Mpich2,
            "1.4",
            Compiler::new(CompilerFamily::Intel, "11.1"),
            Network::Ethernet,
        );
        assert_eq!(cg.compiles_with(&s, 5), cg.compiles_with(&s, 5));
    }

    #[test]
    fn program_spec_carries_model_fields() {
        let lu = npb_benchmarks()
            .into_iter()
            .find(|b| b.name == "lu")
            .unwrap();
        let p = lu.program_spec();
        assert_eq!(p.name, "lu");
        assert_eq!(p.language, Language::Fortran);
        assert!((p.glibc_appetite - 0.035).abs() < 1e-9);
    }
}
