//! Atomic-ordering audit: every `Ordering::` site in production code
//! must carry an adjacent `// ordering:` justification comment.
//!
//! The model checker (`crates/modelcheck`, driven by the scheduler's
//! `tests/model_protocols.rs`) proves the runtime protocols' orderings
//! minimal; this lint keeps the *prose* honest — any new atomic site
//! must state its contract next to the code, where the next reader (and
//! the next weakening attempt) will find it. A site is justified when
//! the line itself, or the comment block reachable through at most
//! [`CONTINUATION_BUDGET`] lines of the same statement above it,
//! contains `ordering:`.
//!
//! Files that mention orderings as *data* rather than as
//! synchronization sites (the checker's own memory model, the
//! minimality matrix tables) are exempted in [`EXEMPT`], each with its
//! reason.

use std::fs;
use std::path::{Path, PathBuf};

/// Files (path suffixes, `/`-separated) whose `Ordering::` mentions are
/// not synchronization sites.
const EXEMPT: &[(&str, &str)] = &[
    (
        "crates/modelcheck/src/",
        "the checker implements the memory model; orderings are its input data",
    ),
    (
        "crates/scheduler/src/modelcheck_suite.rs",
        "matrix rows and weakening tables name orderings as data",
    ),
];

/// Non-comment lines of one statement the scanner may cross while
/// walking up from a site to its justification comment (multi-line
/// method chains: `let n = self\n.count\n.fetch_add(...)`).
const CONTINUATION_BUDGET: usize = 3;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_exempt(rel: &str) -> bool {
    EXEMPT.iter().any(|(suffix, _)| rel.contains(suffix))
}

/// Line ranges (0-based, inclusive start, exclusive end sentinel via
/// brace depth) covered by `#[cfg(test)] mod ... { ... }` regions.
fn in_test_region(lines: &[&str]) -> Vec<bool> {
    let mut masked = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the gated item (skipping any
            // further attributes), then mask until its depth closes.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                masked[j] = true;
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    masked
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Walks upward from the site line: through the current statement's
/// continuation lines to the nearest contiguous comment block, which
/// must contain `ordering:`.
fn justified(lines: &[&str], site: usize) -> bool {
    if lines[site].contains("// ordering:") {
        return true;
    }
    let mut budget = CONTINUATION_BUDGET;
    let mut j = site;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim();
        if is_comment(t) {
            // Scan the whole contiguous comment block above.
            let mut k = j;
            loop {
                let t2 = lines[k].trim();
                if !is_comment(t2) {
                    return false;
                }
                if t2.contains("ordering:") {
                    return true;
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
        }
        if t.is_empty() || budget == 0 {
            return false;
        }
        budget -= 1;
    }
    false
}

#[test]
fn every_atomic_ordering_site_is_justified() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = entry.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(
        files.len() > 10,
        "scanner found too few files — broken walk?"
    );

    let mut audited = 0usize;
    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("under repo root")
            .to_string_lossy()
            .replace('\\', "/");
        if is_exempt(&rel) {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable source file");
        let lines: Vec<&str> = text.lines().collect();
        let masked = in_test_region(&lines);
        for (i, line) in lines.iter().enumerate() {
            let t = line.trim_start();
            if masked[i] || is_comment(t) || t.starts_with("use ") {
                continue;
            }
            if !line.contains("Ordering::") {
                continue;
            }
            audited += 1;
            if !justified(&lines, i) {
                violations.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }

    assert!(
        violations.is_empty(),
        "atomic sites without an adjacent `// ordering:` justification \
         (state the contract, or exempt the file with a reason):\n  {}",
        violations.join("\n  ")
    );
    // The audit found the known production sites; a silent scanning
    // regression (e.g. everything suddenly masked as tests) fails here.
    assert!(
        audited >= 35,
        "only {audited} sites audited — scanner regression?"
    );
}

#[test]
fn exemptions_still_exist_and_are_minimal() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (suffix, reason) in EXEMPT {
        assert!(!reason.is_empty());
        let probe = root.join(suffix.trim_end_matches('/'));
        assert!(
            probe.exists(),
            "exempt entry {suffix} no longer matches anything — drop it"
        );
    }
}
