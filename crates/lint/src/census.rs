//! U1 — the `pub` reference census.
//!
//! Every unrestricted `pub` item outside test code is a promise that
//! some other file calls it. The census checks the promise over the same
//! token stream the rules use: it collects each `pub` item's name, then
//! counts the identifier tokens spelling that name in *other* files, so
//! a name in a comment or a string is never a use. Each item lands in
//! one [`Reach`] class:
//!
//! - [`Reach::Nowhere`] — no other file names it. Only this class fails
//!   the lint: such an item is private in all but spelling.
//! - [`Reach::OwnCrate`] — only files of its own crate name it; it can
//!   be `pub(crate)`.
//! - [`Reach::TestsOnly`] — outside its crate only test code names it:
//!   integration tests, examples, other crates' `#[cfg(test)]` modules,
//!   and doc-test fences (a doctest compiles as an external crate, so a
//!   fence counts even in the item's own file).
//! - [`Reach::Used`] — non-test code of another crate names it: a
//!   library, a binary (`src/main.rs`, `src/bin/`) or `benchmark/src`,
//!   whose calls are the API's real traffic.
//!
//! Use sites are every workspace crate, `tests/`, `examples/` and
//! `benchmark/src`; `benchmark/`'s own declarations are not censused.
//! Matching is by name, so a collision (two items called `new`)
//! over-counts uses: the census can call an item used that is not, never
//! the other way round, which is why only `Nowhere` is a violation.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, TokKind};
use crate::rules::{is_test_path, FileCtx};

/// How far a `pub` item's name reaches outside its defining file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reach {
    /// Named in no other file and in no doc-test fence.
    Nowhere,
    /// Named only by other files of its own crate.
    OwnCrate,
    /// Named outside its crate only by test code.
    TestsOnly,
    /// Named by non-test code of another crate.
    Used,
}

impl Reach {
    /// The class as printed in the report and the fixture golden.
    pub fn label(self) -> &'static str {
        match self {
            Reach::Nowhere => "nowhere",
            Reach::OwnCrate => "own-crate",
            Reach::TestsOnly => "tests-only",
            Reach::Used => "used",
        }
    }
}

/// One censused `pub` item.
#[derive(Clone, Debug)]
pub struct PubItem {
    /// Workspace-relative path of the declaring file.
    pub file: String,
    /// 1-based line of the item's name.
    pub line: u32,
    /// The declared (or re-exported) name.
    pub name: String,
    /// Its class.
    pub reach: Reach,
}

/// Where an identifier was seen.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Site {
    Code,
    Test,
    /// A doc-test fence.
    Fence,
    /// The body of a `#[macro_export]` macro, which expands in the
    /// crates that invoke it.
    Expanded,
}

/// The compilation unit a file belongs to: its crate directory, with a
/// crate's binaries (`src/main.rs`, `src/bin/`) apart from its library.
/// `None` for files outside the census's use sites.
fn unit_of(rel: &str) -> Option<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let depth = match parts[..] {
        ["crates", "compat", ..] => 3,
        ["crates", ..] => 2,
        ["benchmark", "src", ..] => 2,
        ["src" | "tests" | "examples", ..] => 1,
        _ => return None,
    };
    let unit = parts.get(..depth)?.join("/");
    let bin = matches!(
        parts.get(depth..),
        Some(["src", "main.rs"] | ["src", "bin", ..])
    );
    Some(if bin { unit + "/bin" } else { unit })
}

/// Census `files` — `(workspace-relative path, source)` pairs — and
/// return every item in file order.
pub(crate) fn census(files: &[(String, String)]) -> Vec<PubItem> {
    let mut decls: Vec<(usize, Decl)> = Vec::new();
    let mut uses: BTreeMap<String, Vec<(usize, Site)>> = BTreeMap::new();
    let mut impls: Vec<(String, String, Vec<String>)> = Vec::new();
    let units: Vec<Option<String>> = files.iter().map(|(rel, _)| unit_of(rel)).collect();
    for (i, (rel, src)) in files.iter().enumerate() {
        let Some(unit) = &units[i] else { continue };
        let lexed = Lexed::lex(src);
        let f = FileCtx::new(rel, &lexed);
        let test_file = is_test_path(rel) || unit == "examples";
        if !test_file && !unit.starts_with("benchmark") {
            decls.extend(pub_items(&f).into_iter().map(|d| (i, d)));
        }
        for (ty, names) in trait_impl_signatures(&f) {
            impls.push((unit.clone(), ty, names));
        }
        let exported = exported_macro_bodies(&f);
        for k in 0..f.sig_len() {
            let Some(tok) = f.sig_tok(k) else { continue };
            if tok.kind != TokKind::Ident || declares(&f, k) {
                continue;
            }
            let site = if exported.iter().any(|r| r.contains(&k)) {
                Site::Expanded
            } else if test_file || f.in_test_lines(tok.line) {
                Site::Test
            } else {
                Site::Code
            };
            record(&mut uses, bare(f.sig_text(k)), i, site);
        }
        for name in fence_idents(&lexed) {
            record(&mut uses, &name, i, Site::Fence);
        }
    }

    let mut reach: Vec<Reach> = decls
        .iter()
        .map(|(i, d)| {
            let mut reach = Reach::Nowhere;
            for &(j, site) in uses.get(&d.name).map(Vec::as_slice).unwrap_or(&[]) {
                let seen = match site {
                    Site::Expanded => Reach::Used,
                    Site::Fence => Reach::TestsOnly,
                    _ if j == *i => continue,
                    _ if units[j] == units[*i] && !is_test_path(&files[j].0) => Reach::OwnCrate,
                    Site::Test => Reach::TestsOnly,
                    Site::Code => Reach::Used,
                };
                reach = reach.max(seen);
            }
            reach
        })
        .collect();
    // A caller reaches what a `pub` signature names through it: a type
    // named in the signature of another `pub` item of its crate reaches
    // at least as far as that item does.
    let mut by_name: BTreeMap<(Option<String>, String), Vec<usize>> = BTreeMap::new();
    for (x, (i, d)) in decls.iter().enumerate() {
        by_name
            .entry((units[*i].clone(), d.name.clone()))
            .or_default()
            .push(x);
    }
    // A trait impl's signatures (associated types, method types) are
    // part of its self type's.
    for (unit, ty, names) in impls {
        for &x in by_name
            .get(&(Some(unit), ty))
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            decls[x].1.signature.extend(names.iter().cloned());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (p, (i, d)) in decls.iter().enumerate() {
            for name in &d.signature {
                let named = by_name.get(&(units[*i].clone(), name.clone()));
                for &x in named.map(Vec::as_slice).unwrap_or(&[]) {
                    if x != p && reach[x] < reach[p] {
                        reach[x] = reach[p];
                        changed = true;
                    }
                }
            }
        }
    }
    decls
        .into_iter()
        .zip(reach)
        .map(|((i, d), reach)| PubItem {
            file: files[i].0.clone(),
            line: d.line,
            name: d.name,
            reach,
        })
        .collect()
}

/// Significant-token ranges of the bodies of `#[macro_export]`
/// `macro_rules!` definitions.
fn exported_macro_bodies(f: &FileCtx<'_>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        if f.sig_text(k) != "macro_rules" || f.sig_text(k + 1) != "!" {
            continue;
        }
        let mut a = k;
        let mut exported = false;
        while a > 0 && f.in_attr[a - 1] {
            a -= 1;
            exported |= f.sig_text(a) == "macro_export";
        }
        if !exported {
            continue;
        }
        let mut depth = 0i32;
        for j in k + 3..f.sig_len() {
            match f.sig_text(j) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                out.push(k + 3..j);
                break;
            }
        }
    }
    out
}

fn record(uses: &mut BTreeMap<String, Vec<(usize, Site)>>, name: &str, file: usize, site: Site) {
    let list = uses.entry(name.to_string()).or_default();
    if list.last() != Some(&(file, site)) {
        list.push((file, site));
    }
}

/// A raw identifier's name (`r#match` is `match`).
fn bare(ident: &str) -> &str {
    ident.strip_prefix("r#").unwrap_or(ident)
}

/// Is significant token `k` the name in a declaration — an item, a
/// `const` / `static`, or a `pub` / `pub(..)` field — rather than a use?
fn declares(f: &FileCtx<'_>, k: usize) -> bool {
    let prev = |d: usize| if k >= d { f.sig_text(k - d) } else { "" };
    let field = f.sig_text(k + 1) == ":" && f.sig_text(k + 2) != ":";
    match prev(1) {
        "fn" | "struct" | "enum" | "trait" | "type" | "mod" | "union" | "static" => true,
        "mut" => prev(2) == "static",
        "const" => field,
        "pub" => field,
        ")" => field && prev(4) == "pub" && prev(3) == "(",
        _ => false,
    }
}

/// One `pub` declaration: its name's line, the name, and the type-like
/// (capitalised) identifiers its signature names: what a caller reaches
/// through it.
struct Decl {
    line: u32,
    name: String,
    signature: Vec<String>,
}

/// Every unrestricted `pub` item outside test modules: items, fields,
/// and each leaf of a `pub use` (its alias, if renamed). Tuple fields
/// and macro-generated items have no name to census and are skipped.
fn pub_items(f: &FileCtx<'_>) -> Vec<Decl> {
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        let Some(tok) = f.sig_tok(k) else { continue };
        if f.sig_text(k) != "pub"
            || f.sig_text(k + 1) == "("
            || f.in_attr[k]
            || f.in_test_lines(tok.line)
        {
            continue;
        }
        let mut j = k + 1;
        loop {
            match f.sig_text(j) {
                "const" if matches!(f.sig_text(j + 1), "fn" | "unsafe" | "async" | "extern") => {}
                "unsafe" | "async" => {}
                "extern" if f.sig_tok(j + 1).map(|t| t.kind) == Some(TokKind::StrLit) => j += 1,
                "extern" => {}
                _ => break,
            }
            j += 1;
        }
        let kind = f.sig_text(j);
        let name_at = match kind {
            "fn" | "struct" | "enum" | "trait" | "type" | "mod" | "union" | "const" => j + 1,
            "static" if f.sig_text(j + 1) == "mut" => j + 2,
            "static" => j + 1,
            "use" => {
                let leaves = use_leaves(f, j + 1).into_iter();
                out.extend(leaves.map(|(line, name)| Decl {
                    line,
                    name,
                    signature: Vec::new(),
                }));
                continue;
            }
            _ if f.sig_text(j + 1) == ":" && f.sig_text(j + 2) != ":" => j,
            _ => continue,
        };
        let Some(t) = f.sig_tok(name_at).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let signature = match kind {
            "mod" => Vec::new(),
            _ => signature_idents(f, name_at + 1, kind),
        };
        out.push(Decl {
            line: t.line,
            name: bare(f.sig_text(name_at)).to_string(),
            signature,
        });
    }
    out
}

/// The capitalised identifiers of a declaration's signature, from significant token
/// `k` (just past its name): up to the body `{` or the closing `;` of a
/// function, struct, alias, `const` or `static`; through the closing
/// `}` of an enum or a trait, whose variants and methods are public; up
/// to the `,` or `}` that ends a field.
fn signature_idents(f: &FileCtx<'_>, mut k: usize, kind: &str) -> Vec<String> {
    let field = !matches!(
        kind,
        "fn" | "struct" | "enum" | "trait" | "type" | "union" | "const" | "static"
    );
    let whole_body = matches!(kind, "enum" | "trait");
    let (mut depth, mut angle) = (0i32, 0i32);
    let mut out = Vec::new();
    let end = f.sig_len().min(k + 4096);
    while k < end {
        match f.sig_text(k) {
            "{" if depth == 0 && !whole_body && !field => break,
            ";" if depth == 0 => break,
            "," if field && depth == 0 && angle <= 0 => break,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 || (depth == 0 && whole_body && f.sig_text(k) == "}") {
                    break;
                }
            }
            "<" => angle += 1,
            ">" if !matches!(f.sig_text(k - 1), "-" | "=") => angle -= 1,
            t if t.starts_with(|c: char| c.is_ascii_uppercase()) => out.push(t.to_string()),
            _ => {}
        }
        k += 1;
    }
    out
}

/// For each `impl Trait for Type { … }`: `Type` and the capitalised
/// identifiers at the top level of the impl body — associated types and
/// method signatures, not method bodies.
fn trait_impl_signatures(f: &FileCtx<'_>) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        if f.sig_text(k) != "impl" || f.in_attr[k] {
            continue;
        }
        let Some(open) = (k..f.sig_len()).find(|&j| matches!(f.sig_text(j), "{" | ";")) else {
            continue;
        };
        let Some(for_at) = (k..open).find(|&j| f.sig_text(j) == "for") else {
            continue;
        };
        // The self type's last path segment: `for a::b::Type<..>`.
        let mut ty = for_at + 1;
        while f.sig_text(ty + 1) == ":" && f.sig_text(ty + 2) == ":" {
            ty += 3;
        }
        let mut names = Vec::new();
        let mut depth = 0i32;
        for j in open..f.sig_len() {
            match f.sig_text(j) {
                "{" => depth += 1,
                "}" => depth -= 1,
                t if depth == 1 && t.starts_with(|c: char| c.is_ascii_uppercase()) => {
                    names.push(t.to_string());
                }
                _ => {}
            }
            if depth == 0 {
                break;
            }
        }
        out.push((bare(f.sig_text(ty)).to_string(), names));
    }
    out
}

/// The names a `use` tree starting at significant token `k` brings in:
/// each leaf identifier (or its `as` alias), up to the closing `;`.
fn use_leaves(f: &FileCtx<'_>, mut k: usize) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    while k < f.sig_len() && f.sig_text(k) != ";" {
        let leaf = f.sig_tok(k).is_some_and(|t| t.kind == TokKind::Ident)
            && matches!(f.sig_text(k + 1), "," | "}" | ";")
            && !matches!(f.sig_text(k), "self" | "super" | "crate")
            && f.sig_text(k.wrapping_sub(1)) != "as";
        let alias = f.sig_text(k) == "as";
        if leaf || alias {
            let at = if alias { k + 1 } else { k };
            if let Some(t) = f.sig_tok(at) {
                out.push((t.line, bare(f.sig_text(at)).to_string()));
            }
        }
        k += if alias { 2 } else { 1 };
    }
    out
}

/// Identifiers inside the Rust code fences of doc comments (`///`,
/// `//!`): doc tests, which compile as external crates. A fence is Rust
/// unless its info string names something else (`text`, `json`, …);
/// `# ` hidden lines compile too.
fn fence_idents(lexed: &Lexed<'_>) -> Vec<String> {
    let mut out = Vec::new();
    // Inside a fence: whether it is Rust, and its code so far.
    let mut fence: Option<bool> = None;
    let mut code = String::new();
    for t in lexed.toks() {
        let text = lexed.text(t);
        let doc = t.kind == TokKind::LineComment
            && (text.starts_with("//!") || (text.starts_with("///") && !text.starts_with("////")));
        if !doc {
            // Whitespace between doc lines keeps a block open; anything
            // else ends it (an unclosed fence included).
            if t.kind != TokKind::Whitespace {
                fence = None;
            }
            continue;
        }
        let line = text[3..].strip_prefix(' ').unwrap_or(&text[3..]);
        match (fence, line.trim_start().strip_prefix("```")) {
            (None, Some(info)) => {
                fence = Some(info.split(',').map(str::trim).all(|w| {
                    matches!(
                        w,
                        "" | "rust" | "no_run" | "should_panic" | "ignore" | "compile_fail"
                    ) || w.starts_with("edition")
                }));
                code.clear();
            }
            (Some(rust), Some(_)) => {
                if rust {
                    let lexed = Lexed::lex(&code);
                    for t in lexed.toks().iter().filter(|t| t.kind == TokKind::Ident) {
                        out.push(bare(lexed.text(t)).to_string());
                    }
                }
                fence = None;
            }
            (Some(true), None) => {
                let trimmed = line.trim_start();
                let hidden = trimmed
                    .strip_prefix("# ")
                    .or((trimmed == "#").then_some(""));
                code.push_str(hidden.unwrap_or(line));
                code.push('\n');
            }
            _ => {}
        }
    }
    out
}

/// Render the census for the text report: a one-line tally, then every
/// item short of [`Reach::Used`] (the `Nowhere` ones are also the U1
/// diagnostics above it).
pub(crate) fn render_text(items: &[PubItem]) -> String {
    let count = |r: Reach| items.iter().filter(|i| i.reach == r).count();
    let mut out = format!(
        "U1 census: {} pub items — {} used, {} tests/examples only, {} own crate only, {} nowhere\n",
        items.len(),
        count(Reach::Used),
        count(Reach::TestsOnly),
        count(Reach::OwnCrate),
        count(Reach::Nowhere),
    );
    for reach in [Reach::OwnCrate, Reach::TestsOnly] {
        for i in items.iter().filter(|i| i.reach == reach) {
            out.push_str(&format!(
                "  {} {}:{} {}\n",
                reach.label(),
                i.file,
                i.line,
                i.name
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_separate_binaries_and_benchmark_sources() {
        for (rel, want) in [
            ("crates/query/src/exec/mod.rs", Some("crates/query")),
            ("crates/lint/src/main.rs", Some("crates/lint/bin")),
            (
                "crates/bench/src/bin/experiments.rs",
                Some("crates/bench/bin"),
            ),
            ("crates/compat/rand/src/lib.rs", Some("crates/compat/rand")),
            ("crates/core/tests/invariants.rs", Some("crates/core")),
            (
                "benchmark/src/workloads/serve_hot.rs",
                Some("benchmark/src"),
            ),
            ("src/lib.rs", Some("src")),
            ("examples/quickstart.rs", Some("examples")),
            ("benchmark/build.rs", None),
            ("crates/lint/fixtures/x.rs", Some("crates/lint")),
        ] {
            assert_eq!(unit_of(rel).as_deref(), want, "{rel}");
        }
    }

    #[test]
    fn items_fields_and_reexport_leaves_are_named() {
        let src = "pub const fn f() {}\npub struct S { pub a: u8, pub(crate) b: u8 }\n\
                   pub struct T(pub Inner, u8);\npub use x::{y, z as w};\npub static mut G: u8 = 0;\n";
        let lexed = Lexed::lex(src);
        let f = FileCtx::new("crates/x/src/lib.rs", &lexed);
        let decls = pub_items(&f);
        let names: Vec<&str> = decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["f", "S", "a", "T", "y", "w", "G"]);
        // Capitalised names only: the types a caller reaches.
        assert_eq!(decls[3].signature, ["Inner"]);
    }

    #[test]
    fn only_rust_fences_count() {
        let src =
            "/// ```\n/// # let hidden = shown();\n/// ```\n/// ```text\n/// prose()\n/// ```\n\
                   fn x() {}\n//! ```no_run\n//! inner()\n";
        let lexed = Lexed::lex(src);
        assert_eq!(fence_idents(&lexed), ["let", "hidden", "shown"]);
    }
}
