//! The rule set: each rule encodes one repo invariant and cites the
//! incident (or near-incident) that motivates it.
//!
//! | Rule | Invariant | Motivating bug |
//! |------|-----------|----------------|
//! | `D1` | No unordered `HashMap`/`HashSet` iteration in schedule-emission / trace-building modules | PR 8's drain-order fix: strategies emitted sends by iterating grouping `HashMap`s, so two executions of the same pinned plan hashed to different schedule tokens and a faulted run could never match its parked checkpoint |
//! | `D2` | No wall-clock, thread-identity, or environment reads in result-affecting modules | the straggler watchdog reads `Instant::now` legitimately — but the same call inside a strategy or the meter would make replays diverge; the allow-listed timing paths (`service.rs`, `admission.rs`, `orchestrator/`) are excluded by scope, everything else must stay ledger-driven |
//! | `D3` | No unseeded RNG construction outside `compat`/test code | every generator in the workspace is `seed_from_u64`-seeded; one `thread_rng()` in a workload generator would break `(spec, seed) → identical arcs+owners` determinism |
//! | `S1` | Every `unsafe` block / `unsafe impl` carries a `// SAFETY:` comment | `pool.rs`'s lifetime-laundered job dispatch is sound only because `run_with` joins the crew before returning — an argument that lives in its `SAFETY` comments and must never silently disappear |
//! | `F1` | No `.partial_cmp(..).unwrap()` / `.expect(..)` on floats outside tests | float cost comparators must use the `f64::total_cmp` total order: a NaN cost (e.g. an empty estimate) panics the comparator mid-plan instead of losing the tie-break deterministically |
//!
//! Two bookkeeping rules police the suppression mechanism itself:
//! `A0` fires on a `// lint: allow(..)` without a reason, and `A1`
//! fires on an allow that suppresses nothing (stale annotations are
//! debt, not documentation).
//!
//! ## Scoping model
//!
//! Rules apply by *module scope*, not globally — the point is to gate
//! the code whose output feeds checkpoint tokens and parity tests,
//! while leaving timing-stats and harness code free to read clocks:
//!
//! - `D1` scans the schedule-emission and trace-building modules
//!   ([`d1_in_scope`]); `drain_sorted` or a same-statement sorted
//!   collect (`sort*` / `BTreeMap` / `BTreeSet`) is the sanctioned
//!   route.
//! - `D2` scans the result-affecting crates (`tamp-core`,
//!   `tamp-simulator`, `tamp-topology`, `tamp-workloads`,
//!   `tamp-runtime`, and `tamp-query` minus the allow-listed
//!   timing-stats modules) — see [`d2_in_scope`].
//! - `D3` scans everything except `crates/compat/` and test code.
//! - `S1` scans everything.
//! - `F1` scans everything except `crates/compat/` and test code.
//!
//! Test code means `tests/` directories, `#[cfg(test)]` modules
//! (detected in the token stream), and the lint's own fixture corpus.
//!
//! ## Adding a rule
//!
//! 1. Add a variant to [`RuleId`] with its id, summary, and fix hint.
//! 2. Write a checker `fn check_xx(f: &FileCtx) -> Vec<Finding>` over
//!    the significant-token stream (use [`FileCtx::sig_text`]; trivia,
//!    strings, and attribute interiors are already filtered or
//!    flagged).
//! 3. Call it from [`check_file`] behind its scope predicate.
//! 4. Add a known-bad fixture + golden `.expected` under `fixtures/`
//!    so the rule itself is regression-tested.

use crate::lexer::{Lexed, Tok, TokKind};

/// Identifier of one lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Unordered hash-collection iteration in schedule-emitting code.
    D1,
    /// Wall-clock / thread-identity / env read in result-affecting code.
    D2,
    /// Unseeded RNG construction.
    D3,
    /// `unsafe` without a `// SAFETY:` rationale.
    S1,
    /// `.partial_cmp(..).unwrap()`-style float comparison.
    F1,
    /// Malformed suppression: `// lint: allow(..)` without a reason.
    A0,
    /// Stale suppression: an allow that suppresses nothing.
    A1,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 7] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::S1,
        RuleId::F1,
        RuleId::A0,
        RuleId::A1,
    ];

    /// The rule's short id, as printed in diagnostics and written in
    /// `// lint: allow(..)` suppressions.
    pub fn id(&self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::S1 => "S1",
            RuleId::F1 => "F1",
            RuleId::A0 => "A0",
            RuleId::A1 => "A1",
        }
    }

    /// Parse a rule id as written in an allow suppression.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.id() == s)
    }

    /// One-line summary of the invariant.
    pub fn summary(&self) -> &'static str {
        match self {
            RuleId::D1 => "unordered HashMap/HashSet iteration in schedule-emitting code",
            RuleId::D2 => "wall-clock/thread-identity/env read in result-affecting code",
            RuleId::D3 => "unseeded RNG construction",
            RuleId::S1 => "unsafe without a SAFETY rationale",
            RuleId::F1 => "partial_cmp().unwrap() on floats",
            RuleId::A0 => "lint allow without a reason",
            RuleId::A1 => "lint allow that suppresses nothing",
        }
    }

    /// One-line fix hint, printed under each diagnostic.
    pub fn hint(&self) -> &'static str {
        match self {
            RuleId::D1 => {
                "route through a sorted collect (BTreeMap / sort before use): \
                 RandomState order differs per map, so emitted schedules would not replay"
            }
            RuleId::D2 => {
                "derive the value from metered ledgers or plumb it in as data; clocks, thread ids \
                 and env vars differ across replays (timing stats belong in service/admission/\
                 orchestrator, which are allow-listed by scope)"
            }
            RuleId::D3 => "seed it: StdRng::seed_from_u64(seed); unseeded RNGs break replay",
            RuleId::S1 => "add `// SAFETY: <why the invariant holds>` on the line(s) above",
            RuleId::F1 => {
                "use the total order: f64::total_cmp (optionally .then_with(..) tie-breaks) \
                 instead of partial_cmp().unwrap()/expect() — a NaN panics mid-plan"
            }
            RuleId::A0 => "write `// lint: allow(<rule>) — <reason>`; the reason is mandatory",
            RuleId::A1 => "remove the stale allow (or fix its rule id): it suppresses nothing",
        }
    }
}

/// One rule violation inside a single file (pre-suppression).
#[derive(Clone, Debug)]
pub struct Finding {
    /// 1-based line of the offending token.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
}

/// A lexed file plus the derived context every checker needs.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-normalized.
    pub rel_path: &'a str,
    /// The token cover.
    pub lexed: &'a Lexed<'a>,
    /// Indices (into `lexed.toks()`) of significant tokens — everything
    /// except whitespace and comments.
    pub sig: Vec<usize>,
    /// `in_attr[k]` is `true` when significant token `k` sits inside a
    /// `#[…]` / `#![…]` attribute (so `#[doc = "HashMap"]` never fires).
    pub in_attr: Vec<bool>,
    /// Inclusive line ranges covered by `#[cfg(test)] mod … { … }`,
    /// attribute line included.
    pub test_ranges: Vec<(u32, u32)>,
}

impl<'a> FileCtx<'a> {
    /// Build the context for one lexed file.
    pub fn new(rel_path: &'a str, lexed: &'a Lexed<'a>) -> FileCtx<'a> {
        let toks = lexed.toks();
        let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_trivia()).collect();
        let mut ctx = FileCtx {
            rel_path,
            lexed,
            sig,
            in_attr: Vec::new(),
            test_ranges: Vec::new(),
        };
        ctx.in_attr = ctx.mark_attributes();
        ctx.test_ranges = ctx.find_test_ranges();
        ctx
    }

    /// The significant token at index `k`, if any.
    pub fn sig_tok(&self, k: usize) -> Option<&Tok> {
        self.sig.get(k).map(|&i| &self.lexed.toks()[i])
    }

    /// The text of significant token `k` (empty past the end).
    pub fn sig_text(&self, k: usize) -> &'a str {
        match self.sig.get(k) {
            Some(&i) => self.lexed.text(&self.lexed.toks()[i]),
            None => "",
        }
    }

    /// Number of significant tokens.
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// `true` when line `l` is inside a `#[cfg(test)]` module.
    pub fn in_test_lines(&self, l: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| l >= a && l <= b)
    }

    fn mark_attributes(&self) -> Vec<bool> {
        let mut flags = vec![false; self.sig.len()];
        let mut k = 0;
        while k < self.sig.len() {
            let opens_attr = self.sig_text(k) == "#"
                && (self.sig_text(k + 1) == "["
                    || (self.sig_text(k + 1) == "!" && self.sig_text(k + 2) == "["));
            if opens_attr {
                let open = if self.sig_text(k + 1) == "[" {
                    k + 1
                } else {
                    k + 2
                };
                let mut depth = 0usize;
                let mut j = open;
                while j < self.sig.len() {
                    match self.sig_text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                for f in flags.iter_mut().take(j.min(self.sig.len() - 1) + 1).skip(k) {
                    *f = true;
                }
                k = j + 1;
            } else {
                k += 1;
            }
        }
        flags
    }

    /// Line ranges of `#[cfg(test)] mod name { … }` bodies.
    fn find_test_ranges(&self) -> Vec<(u32, u32)> {
        let mut ranges = Vec::new();
        let n = self.sig.len();
        for k in 0..n {
            // `# [ cfg ( test`
            if !(self.sig_text(k) == "#"
                && self.sig_text(k + 1) == "["
                && self.sig_text(k + 2) == "cfg"
                && self.sig_text(k + 3) == "("
                && self.sig_text(k + 4) == "test")
            {
                continue;
            }
            // Find the attribute's closing `]`.
            let mut depth = 0usize;
            let mut j = k + 1;
            while j < n {
                match self.sig_text(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip further attributes / visibility up to `mod` (bounded
            // so a stray cfg(test) on an fn does not scan the file).
            let mut m = j + 1;
            let mut hops = 0;
            while m < n && hops < 24 {
                match self.sig_text(m) {
                    "mod" => break,
                    "#" | "[" | "]" | "pub" | "(" | ")" | "crate" => {
                        m += 1;
                        hops += 1;
                    }
                    _ => break,
                }
            }
            if self.sig_text(m) != "mod" {
                continue;
            }
            // `mod name {` … match braces to the end of the module.
            let Some(open) = (m..n.min(m + 4)).find(|&q| self.sig_text(q) == "{") else {
                continue;
            };
            let mut bdepth = 0usize;
            let mut q = open;
            while q < n {
                match self.sig_text(q) {
                    "{" => bdepth += 1,
                    "}" => {
                        bdepth -= 1;
                        if bdepth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                q += 1;
            }
            // From the attribute's own line, so "test lines" are exactly
            // what a reader would delete to drop the tests.
            let start = self.sig_tok(k).map(|t| t.line).unwrap_or(1);
            let end = self
                .sig_tok(q.min(n.saturating_sub(1)))
                .map(|t| t.line)
                .unwrap_or(u32::MAX);
            ranges.push((start, end));
        }
        ranges
    }
}

// ---------------------------------------------------------------------
// Scoping predicates (paths are workspace-relative, `/`-normalized).
// ---------------------------------------------------------------------

/// Test code by *path*: integration test dirs and the fixture corpus.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/fixtures/")
}

/// The offline crates-io stand-ins.
pub fn is_compat_path(path: &str) -> bool {
    path.starts_with("crates/compat/")
}

/// Schedule-emission and trace-building modules: the code whose output
/// order feeds checkpoint tokens and cross-backend parity.
pub fn d1_in_scope(path: &str) -> bool {
    const SCOPE: [&str; 11] = [
        // The hash-routing protocols: their send order is every
        // receiver's arrival order, hence the ordered final state.
        "crates/core/src/intersection/",
        "crates/core/src/aggregate/",
        "crates/core/src/sorting/",
        "crates/query/src/physical/",
        "crates/query/src/exec/",
        "crates/query/src/iterative.rs",
        "crates/query/src/batch.rs",
        "crates/runtime/src/jobs.rs",
        // The one hand-written per-node derivation: its send order is
        // compared as per-node final state across pool widths.
        "crates/runtime/src/programs/",
        "crates/runtime/src/checkpoint.rs",
        "crates/simulator/src/trace.rs",
    ];
    SCOPE.iter().any(|s| path.starts_with(s))
}

/// Result-affecting crates/modules; the timing-stats paths
/// (`service.rs`, `admission.rs`, `orchestrator/`) are allow-listed by
/// exclusion, per the scoping model in the module docs.
pub fn d2_in_scope(path: &str) -> bool {
    const ALLOW_LISTED: [&str; 3] = [
        "crates/query/src/service.rs",
        "crates/query/src/admission.rs",
        "crates/query/src/orchestrator/",
    ];
    const SCOPE: [&str; 6] = [
        "crates/core/src/",
        "crates/simulator/src/",
        "crates/topology/src/",
        "crates/workloads/src/",
        "crates/runtime/src/",
        "crates/query/src/",
    ];
    SCOPE.iter().any(|s| path.starts_with(s)) && !ALLOW_LISTED.iter().any(|s| path.starts_with(s))
}

/// Everywhere except the compat stand-ins (which wrap "real" RNG API)
/// and test code.
pub fn d3_in_scope(path: &str) -> bool {
    !is_compat_path(path) && !is_test_path(path)
}

/// Everywhere except compat and test code.
pub fn f1_in_scope(path: &str) -> bool {
    !is_compat_path(path) && !is_test_path(path)
}

// ---------------------------------------------------------------------
// Checkers.
// ---------------------------------------------------------------------

/// Run every applicable rule over one file. Suppressions are handled by
/// the engine, not here.
pub fn check_file(f: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if d1_in_scope(f.rel_path) && !is_test_path(f.rel_path) {
        out.extend(check_d1(f));
    }
    if d2_in_scope(f.rel_path) && !is_test_path(f.rel_path) {
        out.extend(check_d2(f));
    }
    if d3_in_scope(f.rel_path) {
        out.extend(check_d3(f));
    }
    out.extend(check_s1(f));
    if f1_in_scope(f.rel_path) {
        out.extend(check_f1(f));
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Should this finding be skipped as test-module code? (`S1` is exempt:
/// unsafe in tests still needs a rationale.)
pub fn finding_in_test_module(f: &FileCtx<'_>, finding: &Finding) -> bool {
    finding.rule != RuleId::S1 && f.in_test_lines(finding.line)
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];
const SORTED_ROUTES: [&str; 9] = [
    "drain_sorted",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];

/// D1 — unordered hash iteration in schedule-emitting modules.
///
/// Two detectors over identifiers whose declaration mentions a hash
/// collection (`let m: HashMap<..> = ..`, `m = HashMap::new()`, params
/// and fields `m: &mut HashMap<..>`):
///
/// - `m.iter() / keys / values / drain / into_iter / …`, unless the
///   *same statement* routes through a sorted collect,
/// - `for x in m { .. }` (including `&m` / `&mut m`).
pub fn check_d1(f: &FileCtx<'_>) -> Vec<Finding> {
    let marked = hash_typed_idents(f);
    if marked.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n = f.sig_len();
    for k in 0..n {
        if f.in_attr.get(k).copied().unwrap_or(false) {
            continue;
        }
        let t = f.sig_text(k);
        // Method-call form.
        if marked.iter().any(|m| m == t)
            && f.sig_text(k + 1) == "."
            && ITER_METHODS.contains(&f.sig_text(k + 2))
            && f.sig_text(k + 3) == "("
            && !statement_routes_sorted(f, k)
        {
            out.push(Finding {
                line: f.sig_tok(k).map(|t| t.line).unwrap_or(1),
                rule: RuleId::D1,
            });
        }
        // `for pat in [&[mut]] m {` form (the method form above already
        // catches `for x in m.keys()`).
        if t == "for" {
            if let Some((expr_start, expr_end)) = for_loop_expr(f, k) {
                let mut e = expr_start;
                while e < expr_end && (f.sig_text(e) == "&" || f.sig_text(e) == "mut") {
                    e += 1;
                }
                if e + 1 == expr_end && marked.iter().any(|m| m == f.sig_text(e)) {
                    out.push(Finding {
                        line: f.sig_tok(e).map(|t| t.line).unwrap_or(1),
                        rule: RuleId::D1,
                    });
                }
            }
        }
    }
    out
}

/// Identifiers whose declaration (let binding, param, or field) mentions
/// `HashMap`/`HashSet`. A per-file over-approximation: shadowing and
/// cross-file types are out of reach for a lexer-level pass, which is
/// exactly why `// lint: allow(D1)` exists for the false positives.
fn hash_typed_idents(f: &FileCtx<'_>) -> Vec<String> {
    let mut marked: Vec<String> = Vec::new();
    let n = f.sig_len();
    for k in 0..n {
        if f.in_attr.get(k).copied().unwrap_or(false) {
            continue;
        }
        // `let [mut] name … HashMap … ;`
        if f.sig_text(k) == "let" {
            let mut m = k + 1;
            if f.sig_text(m) == "mut" {
                m += 1;
            }
            let name = f.sig_text(m);
            if !is_plain_ident(f, m) || name == "self" {
                continue;
            }
            let mut depth = 0i32;
            for j in m + 1..n.min(m + 200) {
                match f.sig_text(j) {
                    "(" | "{" | "[" => depth += 1,
                    ")" | "}" | "]" => depth -= 1,
                    ";" if depth <= 0 => break,
                    t if HASH_TYPES.contains(&t) => {
                        push_unique(&mut marked, name);
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `name : [&] [mut] … HashMap` (params, fields).
        if f.sig_text(k + 1) == ":" && is_plain_ident(f, k) && f.sig_text(k) != "self" {
            let mut angle = 0i32;
            for j in k + 2..n.min(k + 64) {
                match f.sig_text(j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," | ")" | ";" | "{" | "=" | "|" if angle <= 0 => break,
                    t if HASH_TYPES.contains(&t) => {
                        push_unique(&mut marked, f.sig_text(k));
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    marked
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Is significant token `k` an identifier (not a keyword-ish structural
/// token we never want to mark)?
fn is_plain_ident(f: &FileCtx<'_>, k: usize) -> bool {
    f.sig_tok(k).is_some_and(|t| t.kind == TokKind::Ident)
        && !matches!(
            f.sig_text(k),
            "let" | "mut" | "pub" | "fn" | "if" | "else" | "match" | "return" | "ref"
        )
}

/// Does the statement containing significant token `k` route through a
/// sanctioned sorted collect (`drain_sorted`, `sort*`, `BTreeMap`,
/// `BTreeSet`)? Scans the whole statement — backward to the previous
/// `;`/`{`/`}` and forward to the terminating `;` (both bounded) — so
/// both `collect::<BTreeMap<_, _>>()` and an annotated
/// `let m: BTreeMap<_, _> = x.into_iter().collect();` qualify.
fn statement_routes_sorted(f: &FileCtx<'_>, k: usize) -> bool {
    let n = f.sig_len();
    let mut depth = 0i32;
    for j in k..n.min(k + 200) {
        match f.sig_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth <= 0 => break,
            t if SORTED_ROUTES.contains(&t) => return true,
            _ => {}
        }
    }
    let mut depth = 0i32;
    let mut j = k;
    for _ in 0..200 {
        if j == 0 {
            break;
        }
        j -= 1;
        match f.sig_text(j) {
            ")" | "]" => depth += 1,
            "(" | "[" => depth -= 1,
            ";" | "{" | "}" if depth <= 0 => break,
            t if SORTED_ROUTES.contains(&t) => return true,
            _ => {}
        }
    }
    false
}

/// For a `for` at significant index `k`, the significant-token range
/// `[start, end)` of the iterated expression (between `in` and the loop
/// body `{`).
fn for_loop_expr(f: &FileCtx<'_>, k: usize) -> Option<(usize, usize)> {
    let n = f.sig_len();
    let mut depth = 0i32;
    let mut in_at = None;
    for j in k + 1..n.min(k + 64) {
        match f.sig_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth <= 0 => {
                in_at = Some(j);
                break;
            }
            "{" => return None,
            _ => {}
        }
    }
    let start = in_at? + 1;
    let mut depth = 0i32;
    for j in start..n.min(start + 96) {
        match f.sig_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return Some((start, j)),
            _ => {}
        }
    }
    None
}

/// D2 — wall-clock / thread-identity / environment reads.
pub fn check_d2(f: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        if f.in_attr.get(k).copied().unwrap_or(false) {
            continue;
        }
        if f.sig_tok(k).map(|t| t.kind) != Some(TokKind::Ident) {
            continue;
        }
        let t = f.sig_text(k);
        let fires = match t {
            "Instant" => f.sig_text(k + 1) == ":" && f.sig_text(k + 3) == "now",
            "SystemTime" | "ThreadId" => true,
            "thread" => f.sig_text(k + 1) == ":" && f.sig_text(k + 3) == "current",
            "env" => {
                f.sig_text(k + 1) == ":"
                    && matches!(
                        f.sig_text(k + 3),
                        "var" | "vars" | "var_os" | "vars_os" | "args" | "args_os"
                    )
            }
            _ => false,
        };
        if fires {
            out.push(Finding {
                line: f.sig_tok(k).map(|t| t.line).unwrap_or(1),
                rule: RuleId::D2,
            });
        }
    }
    out
}

/// D3 — unseeded RNG construction.
pub fn check_d3(f: &FileCtx<'_>) -> Vec<Finding> {
    const UNSEEDED: [&str; 5] = [
        "thread_rng",
        "from_entropy",
        "from_os_rng",
        "from_rng",
        "OsRng",
    ];
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        if f.in_attr.get(k).copied().unwrap_or(false) {
            continue;
        }
        if f.sig_tok(k).map(|t| t.kind) == Some(TokKind::Ident) && UNSEEDED.contains(&f.sig_text(k))
        {
            out.push(Finding {
                line: f.sig_tok(k).map(|t| t.line).unwrap_or(1),
                rule: RuleId::D3,
            });
        }
    }
    out
}

/// S1 — `unsafe` blocks and `unsafe impl`s need a `// SAFETY:` comment
/// on the line(s) directly above (or trailing on the same line).
pub fn check_s1(f: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for k in 0..f.sig_len() {
        if f.sig_text(k) != "unsafe" || f.in_attr.get(k).copied().unwrap_or(false) {
            continue;
        }
        // `unsafe {` (block) or `unsafe impl` — `unsafe fn` declarations
        // are governed by `unsafe_op_in_unsafe_fn`, whose interior
        // blocks land back here.
        let next = f.sig_text(k + 1);
        if next != "{" && next != "impl" {
            continue;
        }
        let line = f.sig_tok(k).map(|t| t.line).unwrap_or(1);
        if !has_safety_comment_above(f, line) {
            out.push(Finding {
                line,
                rule: RuleId::S1,
            });
        }
    }
    out
}

/// Is there a `SAFETY` comment attached to `line` — trailing on the
/// line itself, or in the contiguous comment block directly above it?
fn has_safety_comment_above(f: &FileCtx<'_>, line: u32) -> bool {
    if f.lexed.line_text(line).contains("SAFETY") {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let text = f.lexed.line_text(l);
        let trimmed = text.trim_start();
        let is_comment = trimmed.starts_with("//") || trimmed.starts_with('*');
        if !is_comment {
            // Also accept the tail of a block comment (`… */`).
            if !trimmed.ends_with("*/") && !trimmed.starts_with("/*") {
                return false;
            }
        }
        if text.contains("SAFETY") {
            return true;
        }
        if l == 1 {
            return false;
        }
        l -= 1;
    }
    false
}

/// F1 — `.partial_cmp(..)` chained straight into `.unwrap()` /
/// `.expect(..)`.
pub fn check_f1(f: &FileCtx<'_>) -> Vec<Finding> {
    let n = f.sig_len();
    let mut out = Vec::new();
    for k in 0..n {
        if f.sig_text(k) != "partial_cmp"
            || f.sig_text(k.wrapping_sub(1)) != "."
            || f.sig_text(k + 1) != "("
            || f.in_attr.get(k).copied().unwrap_or(false)
        {
            continue;
        }
        // Skip the balanced argument list.
        let mut depth = 0i32;
        let mut j = k + 1;
        while j < n {
            match f.sig_text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if f.sig_text(j + 1) == "." && matches!(f.sig_text(j + 2), "unwrap" | "expect") {
            out.push(Finding {
                line: f.sig_tok(k).map(|t| t.line).unwrap_or(1),
                rule: RuleId::F1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_scope_covers_the_runtime_emitters_and_not_the_engine() {
        assert!(d1_in_scope("crates/runtime/src/programs/intersect.rs"));
        assert!(d1_in_scope("crates/runtime/src/jobs.rs"));
        assert!(!d1_in_scope("crates/runtime/src/cluster.rs"));
    }

    #[test]
    fn d1_scope_covers_the_hash_routing_protocols() {
        assert!(d1_in_scope("crates/core/src/intersection/tree.rs"));
        assert!(d1_in_scope("crates/core/src/aggregate/groupby.rs"));
        assert!(d1_in_scope("crates/core/src/sorting/terasort.rs"));
        // Interval routing: no hash collection decides a send.
        assert!(!d1_in_scope("crates/core/src/cartesian/whc.rs"));
        assert!(!d1_in_scope("crates/core/src/hashing.rs"));
    }
}
