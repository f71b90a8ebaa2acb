//! A hand-rolled, dependency-free Rust lexer.
//!
//! The lint engine needs exactly one guarantee from its front end: a
//! `HashMap` mentioned inside a string literal, a comment, or a
//! `#[doc = "…"]` attribute must never look like code. So the lexer
//! splits a source file into a *total* sequence of spans — every byte of
//! the input lands in exactly one token, and concatenating the token
//! texts reproduces the file verbatim (pinned by a proptest in
//! `tests/lexer_roundtrip.rs`). Classification is deliberately coarse
//! (keywords are just [`TokKind::Ident`]s; all punctuation is
//! single-char [`TokKind::Punct`]s); what matters is that the
//! *boundaries* of comments, strings (escaped, raw, byte), char
//! literals, and lifetimes are exact, because those are the places a
//! naive `grep` would produce false positives.
//!
//! Handled edge cases:
//!
//! - nested block comments (`/* a /* b */ c */` is one token),
//! - raw strings with any hash depth (`r#"…"#`, `br##"…"##`) and raw
//!   identifiers (`r#match`),
//! - escaped quotes and backslashes in string/char literals,
//! - lifetimes vs char literals (`'a` vs `'a'`, including `'static`),
//! - multi-line strings (line numbers stay correct across them).

/// Coarse token classification; see the module docs for the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// A run of whitespace (including newlines).
    Whitespace,
    /// A `// …` comment, excluding the trailing newline. Doc comments
    /// (`///`, `//!`) are line comments too.
    LineComment,
    /// A `/* … */` comment, with nesting.
    BlockComment,
    /// An identifier or keyword (including raw identifiers, `r#match`).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// A char or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// A (possibly byte) string literal with escapes (`"…"`, `b"…"`).
    StrLit,
    /// A raw (possibly byte) string literal (`r"…"`, `br##"…"##`).
    RawStrLit,
    /// A numeric literal, including suffixes and exponents.
    NumLit,
    /// A single punctuation character.
    Punct,
}

/// One token: a classified byte span of the source plus its 1-based
/// starting line.
#[derive(Clone, Copy, Debug)]
pub struct Tok {
    /// What the span is.
    pub kind: TokKind,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Tok {
    /// `true` for tokens rules should skip (whitespace and comments).
    pub(crate) fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
        )
    }
}

/// A lexed source file: the source plus its total token cover.
pub struct Lexed<'a> {
    src: &'a str,
    toks: Vec<Tok>,
    /// Byte offset where each 1-based line starts (`line_starts[0]` is
    /// line 1).
    line_starts: Vec<usize>,
}

impl<'a> Lexed<'a> {
    /// Tokenize `src` (never fails: unterminated constructs extend to
    /// end of file).
    pub fn lex(src: &'a str) -> Lexed<'a> {
        let mut lx = Lexer {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            toks: Vec::new(),
        };
        lx.run();
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        Lexed {
            src,
            toks: lx.toks,
            line_starts,
        }
    }

    /// The token cover, in source order.
    pub fn toks(&self) -> &[Tok] {
        &self.toks
    }

    /// The source slice of a token.
    pub fn text(&self, t: &Tok) -> &'a str {
        &self.src[t.start..t.end]
    }

    /// Concatenation of every token text — equals the source by
    /// construction (the roundtrip property).
    pub fn rejoin(&self) -> String {
        self.toks.iter().map(|t| self.text(t)).collect()
    }

    /// The full text of a 1-based line (without its newline), for
    /// diagnostics. Empty for out-of-range lines.
    pub fn line_text(&self, line: u32) -> &'a str {
        let idx = line.saturating_sub(1) as usize;
        let Some(&start) = self.line_starts.get(idx) else {
            return "";
        };
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&next| next.saturating_sub(1))
            .unwrap_or(self.src.len());
        &self.src[start..end.max(start)]
    }
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    pos: usize,
    line: u32,
    toks: Vec<Tok>,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or(self.src.len())
    }

    /// Consume one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let &(_, c) = self.chars.get(self.pos)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        self.toks.push(Tok {
            kind,
            start,
            end: self.offset(),
            line,
        });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let start = self.offset();
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    while self.peek(0).is_some_and(char::is_whitespace) {
                        self.bump();
                    }
                    self.push(TokKind::Whitespace, start, line);
                }
                '/' if self.peek(1) == Some('/') => {
                    while self.peek(0).is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                    self.push(TokKind::LineComment, start, line);
                }
                '/' if self.peek(1) == Some('*') => {
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    while depth > 0 {
                        match (self.peek(0), self.peek(1)) {
                            (Some('/'), Some('*')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => break,
                        }
                    }
                    self.push(TokKind::BlockComment, start, line);
                }
                'r' | 'b' if self.raw_or_byte_start() => {}
                '\'' => self.lifetime_or_char(start, line),
                '"' => {
                    self.bump();
                    self.escaped_string_body();
                    self.push(TokKind::StrLit, start, line);
                }
                c if is_ident_start(c) => {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump();
                    }
                    self.push(TokKind::Ident, start, line);
                }
                c if c.is_ascii_digit() => {
                    self.number();
                    self.push(TokKind::NumLit, start, line);
                }
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, start, line);
                }
            }
        }
    }

    /// At `r`/`b`: lex a raw string, byte string, byte char, or raw
    /// identifier if one starts here; otherwise return `false` and let
    /// the ident path handle it.
    fn raw_or_byte_start(&mut self) -> bool {
        let start = self.offset();
        let line = self.line;
        let c0 = self.peek(0);
        // Prefix shapes: r"…", r#…#"…"#…#, r#ident, b"…", b'…', br…
        let (raw_at, byte) = match (c0, self.peek(1)) {
            (Some('r'), _) => (1usize, false),
            (Some('b'), Some('r')) => (2usize, true),
            (Some('b'), Some('"')) => {
                self.bump();
                self.bump();
                self.escaped_string_body();
                self.push(TokKind::StrLit, start, line);
                return true;
            }
            (Some('b'), Some('\'')) => {
                self.bump();
                self.bump();
                self.escaped_char_body();
                self.push(TokKind::CharLit, start, line);
                return true;
            }
            _ => return false,
        };
        // Count hashes after the (b)r prefix.
        let mut hashes = 0usize;
        while self.peek(raw_at + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(raw_at + hashes) {
            Some('"') => {
                for _ in 0..raw_at + hashes + 1 {
                    self.bump();
                }
                // Scan to `"` followed by `hashes` hashes.
                'scan: while let Some(c) = self.peek(0) {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if self.peek(1 + k) != Some('#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for _ in 0..hashes + 1 {
                                self.bump();
                            }
                            break 'scan;
                        }
                    }
                    self.bump();
                }
                self.push(TokKind::RawStrLit, start, line);
                true
            }
            Some(c) if !byte && hashes == 1 && is_ident_start(c) => {
                // Raw identifier `r#match`.
                self.bump();
                self.bump();
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                self.push(TokKind::Ident, start, line);
                true
            }
            _ => false,
        }
    }

    /// Past the opening quote of a `"`/`b"` string: consume through the
    /// closing quote, honoring backslash escapes.
    fn escaped_string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// Past the opening quote of a `'`/`b'` char literal: consume
    /// through the closing quote, honoring backslash escapes.
    fn escaped_char_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    }

    /// At `'`: a lifetime iff an identifier follows and is *not* closed
    /// by another quote (`'a,` is a lifetime; `'a'` is a char).
    fn lifetime_or_char(&mut self, start: usize, line: u32) {
        if self.peek(1).is_some_and(is_ident_start) {
            // Find the end of the identifier run.
            let mut k = 2;
            while self.peek(k).is_some_and(is_ident_continue) {
                k += 1;
            }
            if self.peek(k) != Some('\'') {
                self.bump(); // '
                for _ in 1..k {
                    self.bump();
                }
                self.push(TokKind::Lifetime, start, line);
                return;
            }
        }
        self.bump();
        self.escaped_char_body();
        self.push(TokKind::CharLit, start, line);
    }

    /// At a digit: consume one numeric literal (hex/suffixes/exponents
    /// included; `1..2` keeps the range dots out of the number).
    fn number(&mut self) {
        self.bump();
        loop {
            match self.peek(0) {
                Some(c) if is_ident_continue(c) => {
                    let exp = c == 'e' || c == 'E';
                    self.bump();
                    // `1e-3` / `2E+8`: the sign belongs to the literal.
                    if exp
                        && matches!(self.peek(0), Some('+') | Some('-'))
                        && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                    {
                        self.bump();
                    }
                }
                // A dot joins the literal only when a digit follows
                // (`1.5`), never for ranges (`1..5`) or methods
                // (`1.max(2)`).
                Some('.') if self.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                    self.bump();
                }
                _ => break,
            }
        }
    }
}
