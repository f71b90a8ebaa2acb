//! The scan driver: file discovery, suppression handling, and report
//! assembly.
//!
//! ## Suppression
//!
//! A violation is silenced by an explicit annotation on the preceding
//! line (or trailing on the same line):
//!
//! ```text
//! // lint: allow(D1) — the sort happens two statements later, inside
//! //                    this helper's contract
//! for (k, v) in map.iter() { … }
//! ```
//!
//! The reason is **mandatory** — an allow without one is itself a
//! violation ([`RuleId::A0`]), and an allow that suppresses nothing is
//! too ([`RuleId::A1`]) — so the suppression budget stays visible:
//! every live allow is itemized in the report with its file, rule, and
//! reason.

use std::collections::BTreeMap;
use std::path::Path;

use crate::census::{self, PubItem, Reach};
use crate::lexer::Lexed;
use crate::rules::{self, FileCtx, Finding, RuleId};

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired.
    pub rule: RuleId,
    /// The offending source line, trimmed.
    excerpt: String,
}

/// One live `// lint: allow(..)` suppression.
#[derive(Clone, Debug)]
pub struct AllowSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the allow comment.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: RuleId,
    /// The stated reason (never empty; enforced by `A0`).
    pub reason: String,
}

/// The outcome of a scan: violations plus the allow inventory.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Violations, ordered by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Every live suppression, ordered by (file, line).
    pub allows: Vec<AllowSite>,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// The U1 census of every `pub` item (filled by [`scan_workspace`]
    /// only: it needs every file).
    pub census: Vec<PubItem>,
}

impl Report {
    /// `true` when the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Per-rule `(violations, allows)` counts, for the bench table and
    /// the JSON summary.
    pub fn rule_counts(&self) -> BTreeMap<RuleId, (usize, usize)> {
        let mut counts: BTreeMap<RuleId, (usize, usize)> = BTreeMap::new();
        for r in RuleId::ALL {
            counts.insert(r, (0, 0));
        }
        for d in &self.diagnostics {
            counts.entry(d.rule).or_default().0 += 1;
        }
        for a in &self.allows {
            counts.entry(a.rule).or_default().1 += 1;
        }
        counts
    }

    /// Render the human-readable report: diagnostics with fix hints,
    /// then the allow-site inventory, then a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}:{} — {}\n    | {}\n    hint: {}\n",
                d.file,
                d.line,
                d.rule.id(),
                d.rule.summary(),
                d.excerpt,
                d.rule.hint()
            ));
        }
        if self.allows.is_empty() {
            out.push_str("allow sites: none\n");
        } else {
            out.push_str(&format!("allow sites ({}):\n", self.allows.len()));
            for a in &self.allows {
                out.push_str(&format!(
                    "  {}:{} allow({}) — {}\n",
                    a.file,
                    a.line,
                    a.rule.id(),
                    a.reason
                ));
            }
        }
        if !self.census.is_empty() {
            out.push_str(&census::render_text(&self.census));
        }
        out.push_str(&format!(
            "tamp-lint: {} violation{}, {} allow site{}, {} file{} scanned\n",
            self.diagnostics.len(),
            plural(self.diagnostics.len()),
            self.allows.len(),
            plural(self.allows.len()),
            self.files,
            plural(self.files),
        ));
        out
    }

    /// Render a machine-readable JSON summary (dependency-free, like
    /// the bench baseline's emitter).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"violations\": {},\n  \"allow_sites\": {},\n  \"files\": {},\n",
            self.diagnostics.len(),
            self.allows.len(),
            self.files
        ));
        out.push_str("  \"rules\": {");
        let counts = self.rule_counts();
        let entries: Vec<String> = counts
            .iter()
            .map(|(r, (v, a))| format!("\"{}\": {{\"violations\": {v}, \"allows\": {a}}}", r.id()))
            .collect();
        out.push_str(&entries.join(", "));
        out.push_str("},\n  \"census\": {");
        let classes: Vec<String> = [
            Reach::Used,
            Reach::TestsOnly,
            Reach::OwnCrate,
            Reach::Nowhere,
        ]
        .iter()
        .map(|&r| {
            let n = self.census.iter().filter(|i| i.reach == r).count();
            format!("\"{}\": {n}", r.label())
        })
        .collect();
        out.push_str(&classes.join(", "));
        out.push_str("},\n  \"diagnostics\": [\n");
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"excerpt\": \"{}\"}}",
                    json_escape(&d.file),
                    d.line,
                    d.rule.id(),
                    json_escape(&d.excerpt)
                )
            })
            .collect();
        out.push_str(&diags.join(",\n"));
        out.push_str("\n  ],\n  \"allows\": [\n");
        let allows: Vec<String> = self
            .allows
            .iter()
            .map(|a| {
                format!(
                    "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
                    json_escape(&a.file),
                    a.line,
                    a.rule.id(),
                    json_escape(&a.reason)
                )
            })
            .collect();
        out.push_str(&allows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed `// lint: allow(..)` comment, before matching.
struct ParsedAllow {
    line: u32,
    /// The line the allow applies to: its own line if it trails code,
    /// otherwise the next line bearing a significant token.
    target_line: u32,
    rule: Option<RuleId>,
    reason: String,
}

/// Scan one source file (already read) under its workspace-relative
/// path. Used directly by the fixture self-tests with virtual paths.
pub fn scan_source(rel_path: &str, src: &str) -> Report {
    let lexed = Lexed::lex(src);
    let ctx = FileCtx::new(rel_path, &lexed);
    let mut findings: Vec<Finding> = rules::check_file(&ctx)
        .into_iter()
        .filter(|v| !rules::finding_in_test_module(&ctx, v))
        .collect();

    let mut allows = parse_allows(&ctx);
    let mut used = vec![false; allows.len()];
    findings.retain(|v| {
        for (i, a) in allows.iter().enumerate() {
            if a.rule == Some(v.rule) && a.target_line == v.line {
                used[i] = true;
                return false;
            }
        }
        true
    });

    let mut report = Report {
        files: 1,
        ..Report::default()
    };
    for v in findings {
        report.diagnostics.push(Diagnostic {
            file: rel_path.to_string(),
            line: v.line,
            rule: v.rule,
            excerpt: lexed.line_text(v.line).trim().to_string(),
        });
    }
    for (i, a) in allows.drain(..).enumerate() {
        match a.rule {
            // Malformed: unknown rule id or missing reason.
            None => report.diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: a.line,
                rule: RuleId::A0,
                excerpt: lexed.line_text(a.line).trim().to_string(),
            }),
            Some(_) if a.reason.is_empty() => report.diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: a.line,
                rule: RuleId::A0,
                excerpt: lexed.line_text(a.line).trim().to_string(),
            }),
            Some(_) if !used[i] => report.diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: a.line,
                rule: RuleId::A1,
                excerpt: lexed.line_text(a.line).trim().to_string(),
            }),
            Some(rule) => report.allows.push(AllowSite {
                file: rel_path.to_string(),
                line: a.line,
                rule,
                reason: a.reason,
            }),
        }
    }
    report.diagnostics.sort_by_key(|d| (d.line, d.rule));
    report
}

/// Extract every `// lint: allow(<rule>) — <reason>` comment.
fn parse_allows(ctx: &FileCtx<'_>) -> Vec<ParsedAllow> {
    const MARKER: &str = "lint: allow(";
    let mut out = Vec::new();
    let toks = ctx.lexed.toks();
    for (i, t) in toks.iter().enumerate() {
        // Suppressions are plain `//` comments whose body *starts* with
        // the marker; doc comments (`///`, `//!`) can therefore talk
        // about the syntax without activating it.
        if t.kind != crate::lexer::TokKind::LineComment {
            continue;
        }
        let text = ctx.lexed.text(t);
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let body = text.trim_start_matches('/').trim_start();
        if !body.starts_with(MARKER) {
            continue;
        }
        let rest = &body[MARKER.len()..];
        let (rule_txt, after) = match rest.split_once(')') {
            Some((r, a)) => (r.trim(), a),
            None => (rest.trim(), ""),
        };
        let rule = RuleId::parse(rule_txt);
        let mut reason = after
            .trim_start()
            .trim_start_matches(['—', '-', '–', ':'])
            .trim()
            .to_string();
        // A reason may wrap onto continuation `//` comment lines.
        for next in &toks[i + 1..] {
            match next.kind {
                crate::lexer::TokKind::Whitespace => continue,
                crate::lexer::TokKind::LineComment => {
                    let nt = ctx.lexed.text(next);
                    let nb = nt.trim_start_matches('/').trim();
                    if nt.starts_with("///") || nt.starts_with("//!") || nb.starts_with(MARKER) {
                        break;
                    }
                    if !reason.is_empty() {
                        reason.push(' ');
                    }
                    reason.push_str(nb);
                }
                _ => break,
            }
        }
        out.push(ParsedAllow {
            line: t.line,
            target_line: allow_target_line(ctx, t.line),
            rule,
            reason,
        });
    }
    out
}

/// The line an allow on `line` applies to: `line` itself when it trails
/// code, else the next line bearing a significant token (other allow
/// comments and blank lines in between are skipped naturally).
fn allow_target_line(ctx: &FileCtx<'_>, line: u32) -> u32 {
    let mut next = u32::MAX;
    for k in 0..ctx.sig_len() {
        if let Some(t) = ctx.sig_tok(k) {
            if t.line == line {
                return line;
            }
            if t.line > line && t.line < next {
                next = t.line;
            }
        }
    }
    next
}

/// Scan every workspace `.rs` file under `root` (skipping `target/`,
/// hidden directories, and the lint's own `fixtures/` corpus), then
/// census the `pub` surface across all of them: each [`Reach::Nowhere`]
/// item is a [`RuleId::U1`] violation.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    for path in crate::walk::rust_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, src));
    }
    let mut merged = Report::default();
    for (rel, src) in &sources {
        let r = scan_source(rel, src);
        merged.diagnostics.extend(r.diagnostics);
        merged.allows.extend(r.allows);
        merged.files += 1;
    }
    merged.census = census::census(&sources);
    for item in merged.census.iter().filter(|i| i.reach == Reach::Nowhere) {
        let (_, src) = sources
            .iter()
            .find(|(rel, _)| *rel == item.file)
            .expect("censused file");
        merged.diagnostics.push(Diagnostic {
            file: item.file.clone(),
            line: item.line,
            rule: RuleId::U1,
            excerpt: src
                .lines()
                .nth(item.line as usize - 1)
                .unwrap_or("")
                .trim()
                .to_string(),
        });
    }
    merged
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    merged
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(merged)
}
