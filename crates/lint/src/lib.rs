//! `dgo-lint` — an offline, zero-dependency invariant linter for the dgo
//! workspace.
//!
//! The workspace's conformance bar (results, errors, and metrics
//! bit-identical at every job count in both parallelism tiers) rests on
//! contracts no compiler checks: parallelism only through the compat-rayon
//! pool, knob reads only in `dgo_mpc::tuning`, no hash-ordered iteration on
//! metered paths, audited `unsafe`, and explicit atomic orderings. This
//! crate enforces them statically: a hand-rolled lexer ([`lexer`]) feeds a
//! token-sequence rule engine ([`rules`]) scoped by a checked-in config
//! ([`config`], `lint.toml`).
//!
//! Run it as `cargo run -p dgo-lint`, or through the workspace-clean gate
//! in `tests/lint_clean.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::Diagnostic;

/// The outcome of linting a whole workspace.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the walk started from.
    pub root: String,
    /// Workspace-relative paths of every `.rs` file scanned, sorted.
    pub files: Vec<String>,
    /// All diagnostics, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the machine-readable JSON report (hand-rolled writer — the
    /// crate takes no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"root\": {},\n", json_string(&self.root)));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files.len()));
        out.push_str(&format!(
            "  \"diagnostic_count\": {},\n",
            self.diagnostics.len()
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                json_string(&d.rule),
                json_string(&d.path),
                d.line,
                d.col,
                json_string(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Loads and parses `lint.toml` from `path`.
pub fn load_config(path: &Path) -> Result<Config, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read config {}: {e}", path.display()))?;
    config::parse(&text).map_err(|e| e.to_string())
}

/// Lints every workspace `.rs` file under `root` with `config`.
///
/// The walk is deterministic (sorted), and skips `target/`, hidden
/// directories, and anything named `fixtures` (lint-rule fixtures are
/// deliberate violations).
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut diagnostics = Vec::new();
    for rel in &files {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        diagnostics.extend(rules::lint_source(rel, &source, config)?);
    }
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(Report {
        root: root.display().to_string(),
        files,
        diagnostics,
    })
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue, // non-UTF-8 name: not one of ours
        };
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path {} escapes root: {e}", path.display()))?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            root: "/ws".to_string(),
            files: vec!["src/lib.rs".to_string()],
            diagnostics: vec![Diagnostic {
                rule: "R1".to_string(),
                path: "src/lib.rs".to_string(),
                line: 3,
                col: 9,
                message: "raw `thread::spawn`".to_string(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"diagnostic_count\": 1"));
        assert!(json.contains("\"rule\": \"R1\""));
        assert!(json.contains("\"line\": 3"));
    }
}
