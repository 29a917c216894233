//! The optional `.comment` section: NUL-separated compiler/linker
//! provenance strings.
//!
//! FEAM reads this with `readelf -p .comment` to "indicate under what OS and
//! with what C library version an application binary was created" (§V.A).
//! Typical contents on the paper's testbed:
//!
//! ```text
//! GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)
//! GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-48)
//! ```

/// Split a `.comment` section into its distinct non-empty strings,
/// preserving first-seen order (matches `readelf -p` output minus offsets).
pub fn parse_comment(data: &[u8]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for chunk in data.split(|&b| b == 0) {
        if chunk.is_empty() {
            continue;
        }
        let s = String::from_utf8_lossy(chunk).into_owned();
        if seen.insert(s.clone()) {
            out.push(s);
        }
    }
    out
}

/// Encode strings into `.comment` bytes (leading NUL plus NUL terminators,
/// as GNU tools emit).
pub fn encode_comment(strings: &[String]) -> Vec<u8> {
    let mut out = vec![0u8];
    for s in strings {
        out.extend_from_slice(s.as_bytes());
        out.push(0);
    }
    out
}

/// Provenance extracted from `.comment` strings.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct Provenance {
    /// Compiler identification, e.g. `GCC: (GNU) 4.1.2`.
    pub compiler: Option<String>,
    /// Distribution hint embedded in the vendor parenthetical, e.g.
    /// `Red Hat 4.1.2-50` or `SUSE Linux`.
    pub distro_hint: Option<String>,
}

/// Pull compiler/distro hints out of comment strings, mimicking what the
/// BDC infers from `readelf -p .comment` output.
pub fn extract_provenance(strings: &[String]) -> Provenance {
    let mut p = Provenance::default();
    for s in strings {
        if let Some(rest) = s.strip_prefix("GCC: ") {
            if p.compiler.is_none() {
                p.compiler = Some(format!("GCC: {rest}"));
            }
            // "(Red Hat 4.1.2-50)" style vendor parenthetical after version.
            if let Some(start) = rest.rfind('(') {
                if let Some(end) = rest[start..].find(')') {
                    let inner = &rest[start + 1..start + end];
                    // Skip the "(GNU)" tag itself.
                    if inner != "GNU" && p.distro_hint.is_none() {
                        p.distro_hint = Some(inner.to_string());
                    }
                }
            }
        } else if (s.starts_with("Intel(R)") || s.starts_with("pgf") || s.starts_with("PGI"))
            && p.compiler.is_none()
        {
            p.compiler = Some(s.clone());
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_dedup() {
        let strings = vec![
            "GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".to_string(),
            "GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".to_string(),
            "GCC: (GNU) 4.4.5".to_string(),
        ];
        let bytes = encode_comment(&strings);
        let parsed = parse_comment(&bytes);
        assert_eq!(parsed.len(), 2, "duplicates collapse");
        assert_eq!(parsed[0], strings[0]);
        assert_eq!(parsed[1], strings[2]);
    }

    #[test]
    fn empty_section_parses_to_nothing() {
        assert!(parse_comment(&[]).is_empty());
        assert!(parse_comment(&[0, 0, 0]).is_empty());
    }

    #[test]
    fn provenance_extracts_gcc_and_distro() {
        let strings = vec!["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".to_string()];
        let p = extract_provenance(&strings);
        assert_eq!(
            p.compiler.as_deref(),
            Some("GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)")
        );
        assert_eq!(p.distro_hint.as_deref(), Some("Red Hat 4.1.2-50"));
    }

    #[test]
    fn provenance_handles_intel_comments() {
        let strings =
            vec!["Intel(R) C Intel(R) 64 Compiler Professional, Version 11.1".to_string()];
        let p = extract_provenance(&strings);
        assert!(p.compiler.unwrap().starts_with("Intel(R)"));
        assert!(p.distro_hint.is_none());
    }

    #[test]
    fn gnu_parenthetical_is_not_a_distro() {
        let strings = vec!["GCC: (GNU) 4.4.5".to_string()];
        let p = extract_provenance(&strings);
        assert!(p.distro_hint.is_none());
    }
}
