//! Validate the from-scratch ELF writer against the host's real GNU
//! binutils, when available — the strongest possible check that the
//! synthetic binaries FEAM analyses are what a field deployment would see.
//!
//! Every test skips silently when the required tool is absent.

use feam::elf::{Class, ElfSpec, ImportSpec, Machine};
use std::process::Command;

fn tool_available(name: &str) -> bool {
    Command::new(name)
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// Write the sample binary to a file of `test`'s own: the tests run in
/// parallel, and a shared file could be truncated under another test's
/// `readelf`.
fn write_sample(test: &str) -> Option<std::path::PathBuf> {
    let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    spec.needed = vec![
        "libmpi.so.0".into(),
        "libnsl.so.1".into(),
        "libutil.so.1".into(),
        "libgfortran.so.1".into(),
        "libc.so.6".into(),
    ];
    spec.imports = vec![
        ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5"),
        ImportSpec::versioned("fopen64", "libc.so.6", "GLIBC_2.3.4"),
        ImportSpec::plain("MPI_Init", "libmpi.so.0"),
    ];
    spec.comments = vec!["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".into()];
    let bytes = spec.build().ok()?;
    let dir = std::env::temp_dir().join("feam-binutils-check");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("sample_mpi_app-{test}"));
    std::fs::write(&path, bytes).ok()?;
    Some(path)
}

#[test]
fn readelf_parses_dynamic_section() {
    if !tool_available("readelf") {
        eprintln!("readelf not available; skipping");
        return;
    }
    let path = write_sample("readelf_parses_dynamic_section").expect("sample written");
    let out = Command::new("readelf")
        .arg("-d")
        .arg(&path)
        .output()
        .expect("readelf runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for lib in [
        "libmpi.so.0",
        "libnsl.so.1",
        "libutil.so.1",
        "libgfortran.so.1",
        "libc.so.6",
    ] {
        assert!(text.contains(lib), "readelf -d must list {lib}:\n{text}");
    }
}

#[test]
fn readelf_parses_version_references() {
    if !tool_available("readelf") {
        eprintln!("readelf not available; skipping");
        return;
    }
    let path = write_sample("readelf_parses_version_references").expect("sample written");
    let out = Command::new("readelf")
        .arg("-V")
        .arg(&path)
        .output()
        .expect("readelf runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GLIBC_2.2.5"), "{text}");
    assert!(text.contains("GLIBC_2.3.4"), "{text}");
    assert!(text.contains("libc.so.6"), "{text}");
}

#[test]
fn readelf_reads_comment_section() {
    if !tool_available("readelf") {
        eprintln!("readelf not available; skipping");
        return;
    }
    let path = write_sample("readelf_reads_comment_section").expect("sample written");
    let out = Command::new("readelf")
        .args(["-p", ".comment"])
        .arg(&path)
        .output()
        .expect("readelf runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GCC: (GNU) 4.1.2"), "{text}");
}

#[test]
fn objdump_identifies_format_and_arch() {
    if !tool_available("objdump") {
        eprintln!("objdump not available; skipping");
        return;
    }
    let path = write_sample("objdump_identifies_format_and_arch").expect("sample written");
    let out = Command::new("objdump")
        .arg("-p")
        .arg(&path)
        .output()
        .expect("objdump runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("elf64-x86-64"), "{text}");
    // The NEEDED list objdump prints is exactly what FEAM's BDC parses.
    assert!(
        text.contains("NEEDED") && text.contains("libmpi.so.0"),
        "{text}"
    );
}

#[test]
fn our_reader_parses_a_real_host_binary() {
    // The inverse check: feam-elf's reader digests a genuine ELF produced
    // by a real toolchain.
    for candidate in ["/bin/ls", "/usr/bin/env", "/bin/cat"] {
        let Ok(bytes) = std::fs::read(candidate) else {
            continue;
        };
        if bytes.len() < 4 || &bytes[..4] != b"\x7fELF" {
            continue;
        }
        let f = match feam::elf::ElfFile::parse(&bytes) {
            Ok(f) => f,
            Err(e) => panic!("feam-elf must parse {candidate}: {e}"),
        };
        assert!(f.is_dynamic(), "{candidate} should be dynamically linked");
        assert!(
            f.needed().iter().any(|n| n.starts_with("libc.so")),
            "{candidate} links libc: {:?}",
            f.needed()
        );
        // A real glibc-linked binary carries GLIBC version references.
        assert!(f.required_glibc().is_some(), "{candidate} has GLIBC refs");
        return; // one successful parse is enough
    }
    eprintln!("no suitable host binary found; skipping");
}
