//! One positive (fires) and one negative (stays quiet) fixture per rule.
//!
//! Fixtures are raw-string literals, not files on disk: string contents are
//! invisible to the lexer-driven detectors, so this test file itself stays
//! clean under the workspace lint gate while still proving every rule fires.

use dgo_lint::config::parse;
use dgo_lint::rules::{lint_source, Diagnostic};

/// Lints `source` as if it lived at `path`, under a config enabling exactly
/// `rule` with the given extra config lines.
fn run(rule: &str, extra: &str, path: &str, source: &str) -> Vec<Diagnostic> {
    let config = parse(&format!("[[rule]]\nid = \"{rule}\"\n{extra}")).expect("fixture config");
    lint_source(path, source, &config).expect("known rule")
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

// --- R1: raw thread primitives ---

#[test]
fn r1_fires_on_thread_spawn() {
    let src = r#"
pub fn run() {
    let h = std::thread::spawn(|| 1 + 1);
    h.join().ok();
}
"#;
    let diags = run("R1", "", "crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["R1"]);
    assert_eq!((diags[0].line, diags[0].col), (3, 18));
}

#[test]
fn r1_quiet_on_pool_spawn_and_excluded_path() {
    // The compat fork-join's own API is not `thread::` and never matches...
    let quiet = run(
        "R1",
        "",
        "crates/core/src/x.rs",
        "pub fn run() { rayon::fork_join(0..2, |i| i); }",
    );
    assert!(quiet.is_empty());
    // ...and the sanctioned site is excluded by scope.
    let excluded = run(
        "R1",
        "exclude = [\"crates/compat/rayon\"]\n",
        "crates/compat/rayon/src/lib.rs",
        "pub fn run() { std::thread::spawn(|| ()); }",
    );
    assert!(excluded.is_empty());
}

// --- R2: environment reads ---

#[test]
fn r2_fires_on_env_var_variants() {
    let src = r#"
fn knobs() {
    let a = std::env::var("DGO_JOBS");
    let b = std::env::var_os("DGO_JOBS");
}
"#;
    let diags = run("R2", "", "crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["R2", "R2"]);
}

#[test]
fn r2_quiet_on_compile_time_env_and_args() {
    let src = r#"
fn fine() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let args = std::env::args();
}
"#;
    assert!(run("R2", "", "crates/core/src/x.rs", src).is_empty());
}

// --- R3: wall clock in deterministic crates ---

#[test]
fn r3_fires_on_instant_and_system_time() {
    let src = r#"
fn timing() {
    let t0 = std::time::Instant::now();
    let wall = std::time::SystemTime::now();
}
"#;
    let diags = run(
        "R3",
        "include = [\"crates/core/src\"]\n",
        "crates/core/src/x.rs",
        src,
    );
    assert_eq!(rules_of(&diags), ["R3", "R3"]);
}

#[test]
fn r3_quiet_outside_included_scope() {
    let diags = run(
        "R3",
        "include = [\"crates/core/src\"]\n",
        "crates/bench/src/x.rs",
        "fn timing() { let t0 = std::time::Instant::now(); }",
    );
    assert!(diags.is_empty());
}

// --- R4: hash-ordered collections ---

#[test]
fn r4_fires_on_hash_map_mention() {
    let src = r#"
use std::collections::HashMap;
fn meter(m: &HashMap<u64, usize>) -> usize { m.len() }
"#;
    let diags = run("R4", "", "crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["R4", "R4"]);
}

#[test]
fn r4_quiet_on_btree_map_and_allowed_line() {
    let quiet = run(
        "R4",
        "",
        "crates/core/src/x.rs",
        "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u64, u64>) {}\n",
    );
    assert!(quiet.is_empty());
    let allowed = run(
        "R4",
        "",
        "crates/core/src/x.rs",
        "use std::collections::HashMap; // dgo-lint: allow(R4) — lookup-only\n",
    );
    assert!(allowed.is_empty());
}

// --- R5: SAFETY-audited unsafe ---

#[test]
fn r5_fires_on_undocumented_unsafe() {
    let src = r#"
fn read(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let diags = run(
        "R5",
        "skip_test_code = false\n",
        "crates/graph/src/x.rs",
        src,
    );
    assert_eq!(rules_of(&diags), ["R5"]);
}

#[test]
fn r5_quiet_with_safety_comment_even_across_statement_lines() {
    let src = r#"
fn read(p: *const u32) -> u32 {
    // SAFETY: caller guarantees p is valid and aligned.
    let v =
        unsafe { *p };
    v
}
"#;
    assert!(run(
        "R5",
        "skip_test_code = false\n",
        "crates/graph/src/x.rs",
        src
    )
    .is_empty());
}

// --- R7: named atomic orderings ---

#[test]
fn r7_fires_on_orderingless_load_store() {
    let src = r#"
use std::sync::atomic::AtomicUsize;
fn f(a: &AtomicUsize, ord: std::sync::atomic::Ordering) {
    let v = a.load(ord_from_somewhere());
    a.store(v + 1, hidden_default());
}
"#;
    let diags = run("R7", "skip_test_code = false\n", "crates/mpc/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["R7", "R7"]);
}

#[test]
fn r7_quiet_when_ordering_is_named() {
    let src = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
fn f(a: &AtomicUsize) {
    let v = a.load(Ordering::Acquire);
    a.store(v + 1, Ordering::Release);
    a.store(v, std::sync::atomic::Ordering::SeqCst);
}
"#;
    assert!(run("R7", "skip_test_code = false\n", "crates/mpc/src/x.rs", src).is_empty());
}

// --- Cross-cutting mechanics ---

#[test]
fn test_regions_are_skipped_when_configured() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn probe() {
        let v = std::env::var("ANYTHING");
    }
}
"#;
    assert!(run("R2", "", "crates/core/src/x.rs", src).is_empty());
    // But with skip_test_code = false, the same source fires.
    assert_eq!(
        rules_of(&run(
            "R2",
            "skip_test_code = false\n",
            "crates/core/src/x.rs",
            src
        )),
        ["R2"]
    );
}

#[test]
fn tests_directory_files_are_exempt() {
    let src = "fn f() { let v = std::env::var(\"ANYTHING\"); }";
    assert!(run("R2", "", "tests/probe.rs", src).is_empty());
    assert_eq!(rules_of(&run("R2", "", "src/probe.rs", src)), ["R2"]);
}

#[test]
fn violations_inside_strings_and_comments_never_fire() {
    let src = r##"
// std::thread::spawn in a comment is fine.
fn f() -> &'static str {
    /* std::env::var("X") in a block comment too */
    "std::thread::spawn(|| ()) and HashMap in a string"
}
"##;
    for rule in ["R1", "R2", "R4"] {
        assert!(run(rule, "", "crates/core/src/x.rs", src).is_empty());
    }
}

#[test]
fn allow_comment_is_rule_specific() {
    let src = "use std::collections::HashMap; // dgo-lint: allow(R1)\n";
    // Allowing R1 does not suppress R4.
    assert_eq!(
        rules_of(&run("R4", "", "crates/core/src/x.rs", src)),
        ["R4"]
    );
}

#[test]
fn unknown_rule_in_config_is_an_error() {
    let config = parse("[[rule]]\nid = \"R99\"\n").expect("parses");
    assert!(lint_source("src/x.rs", "fn main() {}", &config).is_err());
}
