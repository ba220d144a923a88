//! The rule engine: six invariant detectors over the token stream.
//!
//! Each rule guards a documented workspace contract (see `lint.toml` and the
//! README's "Static analysis" section):
//!
//! | id | invariant |
//! |----|-----------|
//! | R1 | no `std::thread::spawn`/`scope`/`Builder` outside compat-rayon's fork-join |
//! | R2 | `std::env::var*` only in `dgo_mpc::tuning` and `dgo_bench::report` (knobs read once per process) |
//! | R3 | no `Instant::now`/`SystemTime` in the deterministic crates (`dgo_core`, `dgo_graph`) |
//! | R4 | no `HashMap`/`HashSet` in non-test `dgo_core`/`dgo_mpc`/`dgo_graph`/`dgo_local` code, `dgo_graph`'s generators excepted (iteration-order nondeterminism on metered or output paths) |
//! | R5 | every `unsafe` is preceded by a `// SAFETY:` comment |
//! | R7 | every atomic `.load(..)`/`.store(..)` names its `Ordering` in the call |
//!
//! Detection is token-sequence matching, not type-aware analysis, so some
//! rules over-approximate (R4 flags any `HashMap` mention; R7 flags any
//! `.load(`/`.store(` without an ordering). The escape hatch is explicit and
//! auditable: `// dgo-lint: allow(<rule>)` on the offending line (or alone on
//! the line above) suppresses exactly that rule there.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{Config, RuleConfig};
use crate::lexer::{lex, Token, TokenKind};

/// The rule ids the engine implements, in report order.
pub const KNOWN_RULES: [&str; 6] = ["R1", "R2", "R3", "R4", "R5", "R7"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`R1`..`R7`).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// `path:line:col: rule: message` — the text-format output line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} [{}]",
            self.path, self.line, self.col, self.message, self.rule
        )
    }
}

/// Per-file token stream plus the derived line maps every rule shares.
pub struct FileAnalysis {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens.
    pub code: Vec<usize>,
    /// `true` for tokens inside a `#[test]` / `#[cfg(test)]` item.
    pub in_test_region: Vec<bool>,
    /// Lines carrying at least one code token (multi-line literals mark
    /// every line they span).
    code_lines: BTreeSet<u32>,
    /// Lines fully or partly covered by an attribute (`#[...]`), which the
    /// SAFETY-comment walk may step over.
    attr_lines: BTreeSet<u32>,
    /// Lines on which a comment containing `SAFETY:` appears.
    safety_lines: BTreeSet<u32>,
    /// Line → rule ids suppressed there by `// dgo-lint: allow(...)`.
    allows: BTreeMap<u32, BTreeSet<String>>,
    /// Whether the path has a `tests/` component (integration-test code).
    pub is_test_file: bool,
}

impl FileAnalysis {
    /// Lexes `source` and computes all the shared line maps.
    pub fn new(path: &str, source: &str) -> Self {
        let tokens = lex(source);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        let in_test_region = mark_test_regions(&tokens, &code);
        let attr_lines = mark_attr_lines(&tokens, &code);

        let mut code_lines = BTreeSet::new();
        for &i in &code {
            for line in tokens[i].line..=tokens[i].end_line {
                code_lines.insert(line);
            }
        }

        let mut safety_lines = BTreeSet::new();
        let mut allows: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
        for (i, t) in tokens.iter().enumerate() {
            if !t.is_comment() {
                continue;
            }
            if t.text.contains("SAFETY:") {
                for line in t.line..=t.end_line {
                    safety_lines.insert(line);
                }
            }
            for rule in parse_allow_ids(&t.text) {
                // The allow covers the comment's own line; a comment that
                // *starts* its line (no code before it) also covers the
                // next line, supporting the line-above style.
                allows.entry(t.line).or_default().insert(rule.clone());
                let code_before = tokens[..i]
                    .iter()
                    .rev()
                    .take_while(|p| p.end_line >= t.line)
                    .any(|p| !p.is_comment() && p.end_line == t.line);
                if !code_before {
                    allows.entry(t.end_line + 1).or_default().insert(rule);
                }
            }
        }

        let is_test_file = path.split('/').any(|c| c == "tests");
        FileAnalysis {
            path: path.to_string(),
            tokens,
            code,
            in_test_region,
            code_lines,
            attr_lines,
            safety_lines,
            allows,
            is_test_file,
        }
    }

    fn token(&self, code_idx: usize) -> &Token {
        &self.tokens[self.code[code_idx]]
    }

    fn ident_at(&self, code_idx: usize, name: &str) -> bool {
        self.code
            .get(code_idx)
            .is_some_and(|&i| self.tokens[i].is_ident(name))
    }

    fn punct_at(&self, code_idx: usize, c: char) -> bool {
        self.code
            .get(code_idx)
            .is_some_and(|&i| self.tokens[i].is_punct(c))
    }

    fn path_sep_at(&self, code_idx: usize) -> bool {
        self.punct_at(code_idx, ':') && self.punct_at(code_idx + 1, ':')
    }

    fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|s| s.contains(rule))
    }
}

/// A raw detector finding: the index (into `analysis.code`) of the
/// offending token, plus the message.
struct Hit {
    code_idx: usize,
    message: String,
}

/// Runs every enabled, in-scope rule from `config` over one file.
///
/// Returns `Err` if the config names a rule the engine does not implement —
/// a config typo must not silently disable enforcement.
pub fn lint_source(path: &str, source: &str, config: &Config) -> Result<Vec<Diagnostic>, String> {
    for rule in &config.rules {
        if !KNOWN_RULES.contains(&rule.id.as_str()) {
            return Err(format!(
                "lint.toml declares unknown rule `{}` (known: {})",
                rule.id,
                KNOWN_RULES.join(", ")
            ));
        }
    }
    let analysis = FileAnalysis::new(path, source);
    let mut out = Vec::new();
    for rule in &config.rules {
        if !rule.enabled || !rule.applies_to(path) {
            continue;
        }
        if rule.skip_test_code && analysis.is_test_file {
            continue;
        }
        let hits = match rule.id.as_str() {
            "R1" => detect_raw_threads(&analysis),
            "R2" => detect_env_reads(&analysis),
            "R3" => detect_wall_clock(&analysis),
            "R4" => detect_hash_collections(&analysis),
            "R5" => detect_undocumented_unsafe(&analysis),
            "R7" => detect_unordered_atomics(&analysis),
            _ => unreachable!("validated above"),
        };
        for hit in hits {
            let token_idx = analysis.code[hit.code_idx];
            if rule.skip_test_code && analysis.in_test_region[token_idx] {
                continue;
            }
            let t = &analysis.tokens[token_idx];
            if analysis.allowed(&rule.id, t.line) {
                continue;
            }
            out.push(Diagnostic {
                rule: rule.id.clone(),
                path: path.to_string(),
                line: t.line,
                col: t.col,
                message: compose_message(rule, &hit.message),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    Ok(out)
}

fn compose_message(rule: &RuleConfig, detail: &str) -> String {
    if rule.summary.is_empty() {
        detail.to_string()
    } else {
        format!("{detail} ({})", rule.summary)
    }
}

/// R1: `thread::spawn`, `thread::scope`, `thread::Builder`.
fn detect_raw_threads(a: &FileAnalysis) -> Vec<Hit> {
    let mut hits = Vec::new();
    for k in 0..a.code.len() {
        if a.ident_at(k, "thread") && a.path_sep_at(k + 1) {
            for target in ["spawn", "scope", "Builder"] {
                if a.ident_at(k + 3, target) {
                    hits.push(Hit {
                        code_idx: k,
                        message: format!("raw `thread::{target}`"),
                    });
                }
            }
        }
    }
    hits
}

/// R2: `env::var`, `env::var_os`, `env::vars`, `env::vars_os`.
fn detect_env_reads(a: &FileAnalysis) -> Vec<Hit> {
    let mut hits = Vec::new();
    for k in 0..a.code.len() {
        if a.ident_at(k, "env") && a.path_sep_at(k + 1) {
            let target = &a.code.get(k + 3).map(|&i| &a.tokens[i]);
            if let Some(t) = target {
                if t.kind == TokenKind::Ident && t.text.starts_with("var") {
                    hits.push(Hit {
                        code_idx: k,
                        message: format!("environment read `env::{}`", t.text),
                    });
                }
            }
        }
    }
    hits
}

/// R3: `Instant::now` and any `SystemTime` mention.
fn detect_wall_clock(a: &FileAnalysis) -> Vec<Hit> {
    let mut hits = Vec::new();
    for k in 0..a.code.len() {
        if a.ident_at(k, "Instant") && a.path_sep_at(k + 1) && a.ident_at(k + 3, "now") {
            hits.push(Hit {
                code_idx: k,
                message: "wall-clock read `Instant::now`".to_string(),
            });
        }
        if a.ident_at(k, "SystemTime") {
            hits.push(Hit {
                code_idx: k,
                message: "wall-clock type `SystemTime`".to_string(),
            });
        }
    }
    hits
}

/// R4: any `HashMap`/`HashSet` mention. Deliberately over-approximate —
/// proving "never iterated" needs type-aware analysis; a lookup-only map
/// carries a `// dgo-lint: allow(R4)` with its justification instead.
fn detect_hash_collections(a: &FileAnalysis) -> Vec<Hit> {
    let mut hits = Vec::new();
    for k in 0..a.code.len() {
        for name in ["HashMap", "HashSet"] {
            if a.ident_at(k, name) {
                hits.push(Hit {
                    code_idx: k,
                    message: format!("hash-ordered collection `{name}`"),
                });
            }
        }
    }
    hits
}

/// R5: every `unsafe` token must have a `SAFETY:` comment within its own
/// statement's lines or on a contiguous comment/attribute line run directly
/// above the statement. The statement start is found by scanning code
/// tokens back to the previous `;`, `{`, or `}`, so
/// `let x =\n    unsafe { .. };` accepts a comment above the `let`.
fn detect_undocumented_unsafe(a: &FileAnalysis) -> Vec<Hit> {
    let mut hits = Vec::new();
    for k in 0..a.code.len() {
        if !a.ident_at(k, "unsafe") {
            continue;
        }
        let mut s = k;
        while s > 0 {
            let t = a.token(s - 1);
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(']') {
                break;
            }
            s -= 1;
        }
        let start = a.token(s).line;
        let mut documented = (start..=a.token(k).line).any(|line| a.safety_lines.contains(&line));
        let mut line = start;
        while !documented && line > 1 {
            line -= 1;
            if a.safety_lines.contains(&line) {
                documented = true;
            } else if a.code_lines.contains(&line) && !a.attr_lines.contains(&line) {
                break; // hit real code: the comment run above has ended
            }
        }
        if !documented {
            hits.push(Hit {
                code_idx: k,
                message: "`unsafe` without a `// SAFETY:` comment".to_string(),
            });
        }
    }
    hits
}

/// R7: `.load(...)` / `.store(...)` whose argument list never names a
/// memory ordering (`Ordering::X` or a bare variant).
fn detect_unordered_atomics(a: &FileAnalysis) -> Vec<Hit> {
    const ORDERINGS: [&str; 6] = [
        "Ordering", "Relaxed", "Acquire", "Release", "AcqRel", "SeqCst",
    ];
    let mut hits = Vec::new();
    for k in 0..a.code.len() {
        if !a.punct_at(k, '.') {
            continue;
        }
        for target in ["load", "store"] {
            if !(a.ident_at(k + 1, target) && a.punct_at(k + 2, '(')) {
                continue;
            }
            // Scan the argument list for an ordering mention.
            let mut depth = 0usize;
            let mut named = false;
            let mut j = k + 2;
            while j < a.code.len() {
                let t = a.token(j);
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident && ORDERINGS.contains(&t.text.as_str()) {
                    named = true;
                }
                j += 1;
            }
            if !named {
                hits.push(Hit {
                    code_idx: k + 1,
                    message: format!("atomic `.{target}(..)` without a named `Ordering`"),
                });
            }
        }
    }
    hits
}

/// Returns the rule ids listed in a `dgo-lint: allow(R1, R4)` marker inside
/// a comment, or empty if the comment has no marker.
fn parse_allow_ids(comment: &str) -> Vec<String> {
    let Some(after) = comment.split("dgo-lint:").nth(1) else {
        return Vec::new();
    };
    let Some(open) = after.find("allow(") else {
        return Vec::new();
    };
    let inner = &after[open + "allow(".len()..];
    let Some(close) = inner.find(')') else {
        return Vec::new();
    };
    inner[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Marks every token inside an item annotated `#[test]`, `#[cfg(test)]`, or
/// any `cfg(...)` whose normalized text mentions `test` (but not
/// `not(test`). The item extent runs through the matching close brace, or
/// the terminating semicolon for brace-less items.
fn mark_test_regions(tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut k = 0;
    while k < code.len() {
        let is_attr_start = tokens[code[k]].is_punct('#')
            && code.get(k + 1).is_some_and(|&i| tokens[i].is_punct('['));
        if !is_attr_start {
            k += 1;
            continue;
        }
        let (text, after) = read_attr(tokens, code, k);
        if !is_test_attr(&text) {
            k = after;
            continue;
        }
        // Step over any further attributes on the same item.
        let mut j = after;
        while j < code.len()
            && tokens[code[j]].is_punct('#')
            && code.get(j + 1).is_some_and(|&i| tokens[i].is_punct('['))
        {
            j = read_attr(tokens, code, j).1;
        }
        let end = item_end(tokens, code, j);
        for &ti in &code[k..=end] {
            mask[ti] = true;
        }
        k = end + 1;
    }
    mask
}

/// Reads the attribute starting at code index `k` (on `#`). Returns the
/// normalized inner text (token texts joined without spaces) and the code
/// index just past the closing `]`.
fn read_attr(tokens: &[Token], code: &[usize], k: usize) -> (String, usize) {
    let mut text = String::new();
    let mut depth = 0usize;
    let mut j = k + 1; // on `[`
    while j < code.len() {
        let t = &tokens[code[j]];
        if t.is_punct('[') {
            depth += 1;
            if depth > 1 {
                text.push('[');
            }
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (text, j + 1);
            }
            text.push(']');
        } else {
            text.push_str(&t.text);
        }
        j += 1;
    }
    (text, code.len())
}

fn is_test_attr(normalized: &str) -> bool {
    normalized == "test"
        || normalized.ends_with("::test")
        || (normalized.starts_with("cfg(")
            && normalized.contains("test")
            && !normalized.contains("not(test"))
}

/// The code index of the token ending the item that starts at code index
/// `j`: the close brace matching the first open brace, or the first
/// top-level semicolon if no brace is seen first.
fn item_end(tokens: &[Token], code: &[usize], j: usize) -> usize {
    let mut depth = 0usize;
    let mut seen_brace = false;
    let mut i = j;
    while i < code.len() {
        let t = &tokens[code[i]];
        if t.is_punct('{') {
            depth += 1;
            seen_brace = true;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 && seen_brace {
                return i;
            }
        } else if t.is_punct(';') && !seen_brace {
            return i;
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Marks the lines spanned by every attribute, so the R5 upward walk can
/// step over `#[allow(unsafe_code)]` between the SAFETY comment and the
/// `unsafe` token.
fn mark_attr_lines(tokens: &[Token], code: &[usize]) -> BTreeSet<u32> {
    let mut lines = BTreeSet::new();
    let mut k = 0;
    while k < code.len() {
        let is_attr_start = tokens[code[k]].is_punct('#')
            && code.get(k + 1).is_some_and(|&i| tokens[i].is_punct('['));
        if !is_attr_start {
            k += 1;
            continue;
        }
        let (_, after) = read_attr(tokens, code, k);
        for &ti in &code[k..after.min(code.len())] {
            for line in tokens[ti].line..=tokens[ti].end_line {
                lines.insert(line);
            }
        }
        k = after;
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_marker_parsing() {
        assert_eq!(parse_allow_ids("// dgo-lint: allow(R2)"), vec!["R2"]);
        assert_eq!(
            parse_allow_ids("// dgo-lint: allow(R1, R4)"),
            vec!["R1", "R4"]
        );
        assert!(parse_allow_ids("// plain comment").is_empty());
        assert!(parse_allow_ids("// dgo-lint: allow(").is_empty());
    }

    #[test]
    fn test_attr_recognition() {
        assert!(is_test_attr("test"));
        assert!(is_test_attr("cfg(test)"));
        assert!(is_test_attr("cfg(all(test,feature=\"x\"))"));
        assert!(!is_test_attr("cfg(not(test))"));
        assert!(!is_test_attr("cfg(feature=\"fast\")"));
        assert!(!is_test_attr("derive(Debug)"));
    }

    #[test]
    fn test_region_covers_mod_and_fn() {
        let src = r#"
fn production() { let x = 1; }

#[cfg(test)]
mod tests {
    #[test]
    fn check() { inner(); }
}

fn also_production() {}
"#;
        let a = FileAnalysis::new("crates/x/src/lib.rs", src);
        let ident_state: Vec<(String, bool)> = a
            .tokens
            .iter()
            .zip(&a.in_test_region)
            .filter(|(t, _)| t.kind == TokenKind::Ident)
            .map(|(t, &m)| (t.text.clone(), m))
            .collect();
        let lookup = |name: &str| {
            ident_state
                .iter()
                .find(|(t, _)| t == name)
                .map(|(_, m)| *m)
                .expect("ident present")
        };
        assert!(!lookup("production"));
        assert!(lookup("tests"));
        assert!(lookup("inner"));
        assert!(!lookup("also_production"));
    }
}
