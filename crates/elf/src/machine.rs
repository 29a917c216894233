//! Machine (ISA) identification — `e_machine` — and the hardware
//! compatibility rules used by the paper's first prediction determinant.

use crate::ident::Class;

/// Instruction-set architecture a binary was compiled for (`e_machine`).
///
/// The named variants cover the architectures discussed in the paper (x86
/// vs. ppc as the motivating incompatibility; the testbed itself is
/// x86-64/ia64-era hardware). Unknown values are preserved as `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Machine {
    /// `EM_386` — 32-bit x86.
    X86,
    /// `EM_X86_64` — AMD64 / Intel 64.
    X86_64,
    /// `EM_PPC` — 32-bit PowerPC.
    Ppc,
    /// `EM_PPC64` — 64-bit PowerPC.
    Ppc64,
    /// `EM_IA_64` — Intel Itanium.
    Ia64,
    /// `EM_SPARCV9`.
    SparcV9,
    /// `EM_ARM` — 32-bit ARM.
    Arm,
    /// `EM_AARCH64`.
    Aarch64,
    /// `EM_MIPS`.
    Mips,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl Machine {
    /// Encode as the `e_machine` half-word.
    pub fn e_machine(self) -> u16 {
        match self {
            Machine::X86 => 3,
            Machine::X86_64 => 62,
            Machine::Ppc => 20,
            Machine::Ppc64 => 21,
            Machine::Ia64 => 50,
            Machine::SparcV9 => 43,
            Machine::Arm => 40,
            Machine::Aarch64 => 183,
            Machine::Mips => 8,
            Machine::Other(v) => v,
        }
    }

    /// Decode an `e_machine` half-word.
    pub fn from_e_machine(v: u16) -> Self {
        match v {
            3 => Machine::X86,
            62 => Machine::X86_64,
            20 => Machine::Ppc,
            21 => Machine::Ppc64,
            50 => Machine::Ia64,
            43 => Machine::SparcV9,
            40 => Machine::Arm,
            183 => Machine::Aarch64,
            8 => Machine::Mips,
            other => Machine::Other(other),
        }
    }

    /// Human-readable name matching what `objdump -p` prints in its
    /// architecture line (approximately).
    pub fn name(self) -> String {
        match self {
            Machine::X86 => "i386".into(),
            Machine::X86_64 => "x86-64".into(),
            Machine::Ppc => "powerpc".into(),
            Machine::Ppc64 => "powerpc64".into(),
            Machine::Ia64 => "ia64".into(),
            Machine::SparcV9 => "sparcv9".into(),
            Machine::Arm => "arm".into(),
            Machine::Aarch64 => "aarch64".into(),
            Machine::Mips => "mips".into(),
            Machine::Other(v) => format!("unknown({v})"),
        }
    }
}

/// A hardware platform as seen at a computing site (`uname -p` level).
///
/// Site hardware is richer than a single `e_machine` value: a 64-bit x86
/// processor executes both `EM_X86_64`/64-bit and `EM_386`/32-bit binaries.
/// This type captures the native ISA and answers the paper's ISA
/// compatibility question for any (machine, class) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum HostArch {
    /// 64-bit x86 (all five paper sites).
    X86_64,
    /// 32-bit-only x86.
    X86,
    /// 64-bit PowerPC (runs 32-bit ppc binaries too).
    Ppc64,
    /// 32-bit PowerPC.
    Ppc,
    /// Itanium.
    Ia64,
    /// 64-bit ARM (runs 32-bit ARM binaries on most server cores).
    Aarch64,
}

impl HostArch {
    /// Can a binary compiled for (`machine`, `class`) execute on this
    /// hardware? This is determinant 1 of the prediction model.
    pub fn executes(self, machine: Machine, class: Class) -> bool {
        match self {
            HostArch::X86_64 => matches!(
                (machine, class),
                (Machine::X86_64, Class::Elf64) | (Machine::X86, Class::Elf32)
            ),
            HostArch::X86 => matches!((machine, class), (Machine::X86, Class::Elf32)),
            HostArch::Ppc64 => matches!(
                (machine, class),
                (Machine::Ppc64, Class::Elf64) | (Machine::Ppc, Class::Elf32)
            ),
            HostArch::Ppc => matches!((machine, class), (Machine::Ppc, Class::Elf32)),
            HostArch::Ia64 => matches!((machine, class), (Machine::Ia64, Class::Elf64)),
            HostArch::Aarch64 => matches!(
                (machine, class),
                (Machine::Aarch64, Class::Elf64) | (Machine::Arm, Class::Elf32)
            ),
        }
    }

    /// What `uname -p` reports for this hardware.
    pub fn uname_p(self) -> &'static str {
        match self {
            HostArch::X86_64 => "x86_64",
            HostArch::X86 => "i686",
            HostArch::Ppc64 => "ppc64",
            HostArch::Ppc => "ppc",
            HostArch::Ia64 => "ia64",
            HostArch::Aarch64 => "aarch64",
        }
    }

    /// The native (machine, class) pair a compiler at this site targets.
    pub fn native_target(self) -> (Machine, Class) {
        match self {
            HostArch::X86_64 => (Machine::X86_64, Class::Elf64),
            HostArch::X86 => (Machine::X86, Class::Elf32),
            HostArch::Ppc64 => (Machine::Ppc64, Class::Elf64),
            HostArch::Ppc => (Machine::Ppc, Class::Elf32),
            HostArch::Ia64 => (Machine::Ia64, Class::Elf64),
            HostArch::Aarch64 => (Machine::Aarch64, Class::Elf64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e_machine_round_trip() {
        for m in [
            Machine::X86,
            Machine::X86_64,
            Machine::Ppc,
            Machine::Ppc64,
            Machine::Ia64,
            Machine::SparcV9,
            Machine::Arm,
            Machine::Aarch64,
            Machine::Mips,
            Machine::Other(9999),
        ] {
            assert_eq!(Machine::from_e_machine(m.e_machine()), m);
        }
    }

    #[test]
    fn x86_64_hosts_run_both_bitnesses() {
        assert!(HostArch::X86_64.executes(Machine::X86_64, Class::Elf64));
        assert!(HostArch::X86_64.executes(Machine::X86, Class::Elf32));
        assert!(!HostArch::X86_64.executes(Machine::Ppc, Class::Elf32));
        assert!(!HostArch::X86_64.executes(Machine::Ppc64, Class::Elf64));
    }

    #[test]
    fn thirty_two_bit_host_rejects_64_bit_binary() {
        assert!(!HostArch::X86.executes(Machine::X86_64, Class::Elf64));
        assert!(HostArch::X86.executes(Machine::X86, Class::Elf32));
    }

    #[test]
    fn mismatched_class_machine_pairs_rejected() {
        // A 32-bit class with a 64-bit machine value is never executable.
        assert!(!HostArch::X86_64.executes(Machine::X86_64, Class::Elf32));
        assert!(!HostArch::Ppc64.executes(Machine::Ppc64, Class::Elf32));
    }

    #[test]
    fn ppc_and_x86_are_mutually_incompatible() {
        // The paper's motivating example: ppc vs x86.
        assert!(!HostArch::Ppc64.executes(Machine::X86_64, Class::Elf64));
        assert!(!HostArch::X86_64.executes(Machine::Ppc64, Class::Elf64));
    }

    #[test]
    fn native_target_executes_on_self() {
        for h in [
            HostArch::X86_64,
            HostArch::X86,
            HostArch::Ppc64,
            HostArch::Ppc,
            HostArch::Ia64,
            HostArch::Aarch64,
        ] {
            let (m, c) = h.native_target();
            assert!(h.executes(m, c), "{h:?} must execute its own native target");
        }
    }
}
