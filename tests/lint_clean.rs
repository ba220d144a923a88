//! The workspace-clean lint gate: `cargo test` fails if any source file
//! violates an invariant from `lint.toml` (see `crates/lint` and the
//! README's "Static analysis" section).

use std::path::Path;

/// The workspace root — this integration test lives in the root package.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let config = dgo_lint::load_config(&root().join("lint.toml")).expect("lint.toml parses");
    let report = dgo_lint::lint_workspace(root(), &config).expect("workspace walk succeeds");
    assert!(
        report
            .files
            .iter()
            .any(|f| f == "crates/core/src/orient.rs"),
        "the walk must actually cover the workspace (saw {} files)",
        report.files.len()
    );
    assert!(
        report.is_clean(),
        "dgo-lint found {} violation(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeding a single violation must trip the gate: the checked-in config is
/// run against a synthetic dgo_core source containing a `HashMap`, which
/// rule R4 must flag. This pins the config's scopes — if someone narrows
/// `lint.toml` until nothing is covered, this test fails first.
#[test]
fn seeded_violation_trips_the_gate() {
    let config = dgo_lint::load_config(&root().join("lint.toml")).expect("lint.toml parses");
    let seeded = "use std::collections::HashMap;\nfn f(m: &HashMap<u64, u64>) {}\n";
    let diags = dgo_lint::rules::lint_source("crates/core/src/seeded.rs", seeded, &config)
        .expect("rules known");
    assert!(
        diags.iter().any(|d| d.rule == "R4"),
        "a HashMap in dgo_core must fail the gate, got: {diags:?}"
    );
    // And every rule of the checked-in config is implemented and enabled.
    for id in dgo_lint::rules::KNOWN_RULES {
        let rule = config
            .rule(id)
            .unwrap_or_else(|| panic!("{id} missing from lint.toml"));
        assert!(rule.enabled, "{id} must stay enabled");
    }
}

/// Every library crate root carries `#![forbid(unsafe_code)]`, so the
/// compiler rejects any `unsafe` block, `unsafe fn` or `unsafe impl` in
/// library code. Test code (the counting allocator of
/// `tests/alloc_profile.rs`) stays under lint R5's `// SAFETY:` audit instead.
#[test]
fn every_library_crate_forbids_unsafe_code() {
    let mut roots = vec![root().join("src/lib.rs")];
    for dir in ["crates", "crates/compat"] {
        for entry in std::fs::read_dir(root().join(dir)).expect("crate directory lists") {
            let lib = entry.expect("directory entry").path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    for expected in ["crates/graph/src/lib.rs", "crates/compat/rayon/src/lib.rs"] {
        assert!(
            roots.contains(&root().join(expected)),
            "the walk must cover {expected} (saw {} crate roots)",
            roots.len()
        );
    }
    let missing: Vec<String> = roots
        .iter()
        .filter(|lib| {
            let source = std::fs::read_to_string(lib).expect("crate root reads");
            !source
                .lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|lib| lib.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "library crate roots without #![forbid(unsafe_code)]: {missing:?}"
    );
}

/// Every `dgo_core::<name>` and `dgo_mpc::<name>` that PAPER.md's claims→code
/// map cites is exported by that crate's root (`pub use` or `pub mod`), so
/// the map cannot keep naming an item that was deleted or made private.
/// rustdoc's `-D warnings` catches dangling intra-doc links in Rust sources,
/// but not in Markdown.
#[test]
fn paper_map_cites_only_exported_names() {
    let paper = std::fs::read_to_string(root().join("PAPER.md")).expect("PAPER.md reads");
    let map = paper
        .split("## Claims → code map")
        .nth(1)
        .expect("PAPER.md has a claims→code map")
        .split("\n## ")
        .next()
        .expect("split yields a first part");
    let mut cited = 0;
    let mut missing = Vec::new();
    for (krate, lib) in [
        ("dgo_core", "crates/core/src/lib.rs"),
        ("dgo_mpc", "crates/mpc/src/lib.rs"),
    ] {
        let source = std::fs::read_to_string(root().join(lib)).expect("crate root reads");
        let exports = root_exports(&source);
        let prefix = format!("{krate}::");
        for (at, _) in map.match_indices(&prefix) {
            let name: String = map[at + prefix.len()..]
                .chars()
                .take_while(|&c| c.is_alphanumeric() || c == '_')
                .collect();
            cited += 1;
            if !exports.contains(&name) {
                missing.push(format!("{krate}::{name}"));
            }
        }
    }
    assert!(
        cited >= 10,
        "the scan must find the map's citations (found {cited})"
    );
    assert!(
        missing.is_empty(),
        "PAPER.md's claims→code map cites names its crate root does not export: {missing:?}"
    );
}

/// The names a crate root exports: each `pub mod` and each item of a
/// `pub use` (its last path segment, or its `as` alias).
fn root_exports(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in source.match_indices("pub ") {
        if at > 0 && !source[..at].ends_with('\n') {
            continue;
        }
        let rest = &source[at..];
        let statement = &rest[..rest.find(';').unwrap_or(rest.len())];
        if let Some(module) = statement.strip_prefix("pub mod ") {
            names.push(module.trim().to_string());
        } else if let Some(items) = statement.strip_prefix("pub use ") {
            for item in items.split([',', '{', '}']) {
                let item = item.trim();
                let name = match item.split_once(" as ") {
                    Some((_, alias)) => alias,
                    None => item.rsplit("::").next().unwrap_or(item),
                };
                if !name.is_empty() {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}
