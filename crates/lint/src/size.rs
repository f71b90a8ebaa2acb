//! Source-size counters over the same token stream and `#[cfg(test)]`
//! scoping the rules use — so "lines of code per crate" is measured by
//! the tool that already knows what a comment, a string and a test
//! module are, not by a second tokenizer.
//!
//! The `x-size` experiment suite (`crates/bench`) sums these per crate
//! into `BENCH_baseline.json`, where every count but `lines` is a ceiling.

use std::ops::AddAssign;

use crate::lexer::Lexed;
use crate::rules::{is_test_path, FileCtx};

/// Size counters of one source file (or, summed, of a crate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceSize {
    /// All lines.
    pub lines: usize,
    /// Lines outside test code: none for a file under a `tests/`
    /// directory, otherwise every line not covered by a `#[cfg(test)]`
    /// module (attribute line included) — for the usual tests-at-the-tail
    /// layout, the lines before the file's first `#[cfg(test)]`.
    pub non_test_lines: usize,
    /// `pub` items outside test code — functions, types, fields,
    /// re-exports; restricted visibilities (`pub(crate)`, …) excluded.
    pub pub_items: usize,
    /// `unsafe` blocks and `unsafe impl`s (the sites lint rule S1
    /// polices), test code included.
    pub unsafe_sites: usize,
}

impl AddAssign for SourceSize {
    fn add_assign(&mut self, other: SourceSize) {
        self.lines += other.lines;
        self.non_test_lines += other.non_test_lines;
        self.pub_items += other.pub_items;
        self.unsafe_sites += other.unsafe_sites;
    }
}

/// Measure one source file under its workspace-relative path.
pub fn measure_source(rel_path: &str, src: &str) -> SourceSize {
    let lexed = Lexed::lex(src);
    let f = FileCtx::new(rel_path, &lexed);
    let mut size = SourceSize {
        lines: src.lines().count(),
        ..SourceSize::default()
    };
    let test_file = is_test_path(rel_path);
    if !test_file {
        let in_test = (1..=size.lines as u32).filter(|&l| f.in_test_lines(l));
        size.non_test_lines = size.lines - in_test.count();
    }
    for k in 0..f.sig_len() {
        let Some(tok) = f.sig_tok(k) else { continue };
        if f.in_attr[k] {
            continue;
        }
        match (f.sig_text(k), f.sig_text(k + 1)) {
            ("unsafe", "{" | "impl") => size.unsafe_sites += 1,
            ("pub", next) if next != "(" && !test_file && !f.in_test_lines(tok.line) => {
                size.pub_items += 1;
            }
            _ => {}
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"//! pub unsafe { in a doc comment counts for nothing }
pub struct S {
    pub a: u32,
    pub(crate) b: u32,
}

pub fn f(p: *const u8) -> u8 {
    let _s = "pub unsafe {";
    // SAFETY: test input.
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    pub fn helper() {}

    #[test]
    fn t() {
        unsafe { std::hint::unreachable_unchecked() }
    }
}
"#;

    #[test]
    fn counts_follow_tokens_and_test_scoping() {
        let size = measure_source("crates/x/src/lib.rs", SRC);
        assert_eq!(size.lines, 21);
        // Everything before the first `#[cfg(test)]`.
        assert_eq!(size.non_test_lines, 12);
        // `S`, `a`, `f` — not `pub(crate) b`, not the test helper, not
        // the words in the comment and the string.
        assert_eq!(size.pub_items, 3);
        assert_eq!(size.unsafe_sites, 2);
    }

    #[test]
    fn files_under_tests_dirs_are_all_test_code() {
        let size = measure_source("crates/x/tests/it.rs", SRC);
        assert_eq!(
            (size.lines, size.non_test_lines, size.pub_items),
            (21, 0, 0)
        );
        assert_eq!(size.unsafe_sites, 2);
    }

    #[test]
    fn sizes_add_up() {
        let mut total = measure_source("crates/x/src/lib.rs", SRC);
        total += measure_source("crates/x/tests/it.rs", SRC);
        assert_eq!((total.lines, total.non_test_lines), (42, 12));
        assert_eq!((total.pub_items, total.unsafe_sites), (3, 4));
    }
}
