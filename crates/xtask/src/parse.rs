//! A lightweight item/impl parser over the token stream.
//!
//! This is not a full Rust parser: it recovers exactly the structure the
//! analysis passes need and skips everything else token-by-token:
//!
//! * a per-file **symbol table** of `fn` items — name, line, signature and
//!   body token ranges, whether the fn sits in `#[cfg(test)]`/`#[test]`
//!   code, and the `impl` context it belongs to;
//! * **impl blocks** with the trait's last path segment (`impl MapTask for
//!   X` → `MapTask`) so passes can scope themselves to UDF bodies;
//! * **call sites** inside each fn body (`callee(…)`, `Qual::callee(…)`,
//!   `.method(…)`, `macro!(…)`) for the intra-crate call graph;
//! * **loop regions** inside each fn body (`for`/`while`/`loop` bodies as
//!   significant-token ranges with their nesting depth), so the perf pass
//!   can rank a call site by how deeply it sits inside loops;
//! * **test regions** as byte ranges, tracked by token-level brace depth —
//!   the successor to PR 1's line-based `#[cfg(test)]` heuristics.
//!
//! Known approximations, chosen deliberately: `#[cfg(not(test))]` is never
//! treated as test code (any `cfg` attribute containing `not` is ignored);
//! nested fns inside bodies are folded into the outer fn's call list;
//! macro-generated items are invisible (macros are recorded as calls, not
//! expanded); and iterator adapters (`.map`, `.any`, …) are not loop
//! regions — only the three loop keywords open one.

use crate::lexer::{Token, TokenKind};

/// The parsed shape of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnInfo>,
    /// Every `impl` block found, in source order.
    pub impls: Vec<ImplInfo>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Every `use` declaration, flattened (groups expanded).
    pub uses: Vec<UseDecl>,
    /// Every `struct` definition with its named fields.
    pub structs: Vec<StructInfo>,
    /// Names of inline `mod name { … }` and `mod name;` declarations at
    /// any nesting level, paired with the enclosing inline-module path.
    pub mods: Vec<(Vec<String>, String)>,
}

/// One flattened `use` declaration (`use a::{b, c as d};` yields two).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Path segments as written, including leading `crate`/`self`/`super`.
    pub path: Vec<String>,
    /// The name the import binds locally: the `as` alias when present,
    /// otherwise the last path segment.
    pub alias: String,
    /// `true` for `use path::*;`.
    pub is_glob: bool,
    /// Inline-module path of the enclosing `mod` blocks within the file.
    pub module: Vec<String>,
}

/// One `struct` definition.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// The struct's name.
    pub name: String,
    /// Inline-module path of the enclosing `mod` blocks within the file.
    pub module: Vec<String>,
    /// Named fields as `(name, type-last-segment)`; tuple/unit structs
    /// have none, and fields of non-path types record an empty segment.
    pub fields: Vec<(String, String)>,
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplInfo {
    /// Last path segment of the implemented trait, if a trait impl.
    pub trait_name: Option<String>,
    /// Last path segment of the self type. Part of the model surface for
    /// passes that need it; currently exercised by tests only.
    #[allow(dead_code)]
    pub self_ty: String,
    /// 1-based line of the `impl` keyword.
    #[allow(dead_code)]
    pub line: usize,
    /// Inline-module path of the enclosing `mod` blocks within the file.
    /// Model surface; exercised by tests only (fn-level modules carry the
    /// scope the resolver needs).
    #[allow(dead_code)]
    pub module: Vec<String>,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword. Model surface; exercised by
    /// tests only so far.
    #[allow(dead_code)]
    pub line: usize,
    /// Index into [`FileModel::impls`] when defined inside an impl block.
    pub impl_idx: Option<usize>,
    /// Raw token-index range of the body `{ … }` (inclusive of braces),
    /// `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Byte span of the whole item (fn keyword through body end).
    #[allow(dead_code)]
    pub span: (usize, usize),
    /// `true` when inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Parameters as `(name, type-last-segment)`. `self` receivers are
    /// omitted (the impl context carries the type); parameters with
    /// non-path types (slices, tuples, `impl Trait`, …) record an empty
    /// type segment.
    pub params: Vec<(String, String)>,
    /// Inline-module path of the enclosing `mod` blocks within the file.
    pub module: Vec<String>,
    /// Call sites found in the body.
    pub calls: Vec<Call>,
    /// Loop bodies found in the body, in source order.
    pub loops: Vec<LoopRegion>,
}

impl FnInfo {
    /// How many loop bodies enclose significant-token index `sig_idx`
    /// (0 = straight-line code, 1 = inside one loop, …). Enclosing
    /// regions form a nesting chain, so the innermost one's recorded
    /// depth is exactly that count.
    pub fn loop_depth_at(&self, sig_idx: usize) -> u32 {
        self.loops
            .iter()
            .filter(|r| r.sig_start < sig_idx && sig_idx < r.sig_end)
            .map(|r| r.depth)
            .max()
            .unwrap_or(0)
    }
}

/// One `for`/`while`/`loop` body inside a fn.
#[derive(Debug, Clone)]
pub struct LoopRegion {
    /// Significant-token index of the body's opening `{`.
    pub sig_start: usize,
    /// Significant-token index one past the body's closing `}`.
    pub sig_end: usize,
    /// Nesting depth of this loop (outermost loop in the fn = 1).
    pub depth: u32,
    /// 1-based line of the loop keyword.
    #[allow(dead_code)]
    pub line: usize,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment, or macro name for `name!(…)`).
    pub name: String,
    /// The path segment immediately before the callee, if any
    /// (`StdRng::seed_from_u64` → `Some("StdRng")`).
    pub qualifier: Option<String>,
    /// Index of the callee token into the file's significant-token list
    /// (as built by [`crate::analyze::AnalyzedFile`]); the argument list
    /// opens at `sig_idx + 1` (`(`) or `sig_idx + 2` (macros).
    pub sig_idx: usize,
    /// `true` for `.name(…)` method calls.
    pub is_method: bool,
    /// `true` for `name!(…)` macro invocations.
    pub is_macro: bool,
}

/// Parses `tokens` (as produced by [`crate::lexer::lex`] on `src`).
pub fn parse(src: &str, tokens: &[Token]) -> FileModel {
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_trivia())
        .collect();
    let mut p = Parser {
        src,
        tokens,
        sig,
        pos: 0,
        mod_stack: Vec::new(),
        model: FileModel::default(),
    };
    p.items(None, false);
    p.model
}

struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    /// Indices of significant (non-trivia) tokens.
    sig: Vec<usize>,
    /// Cursor into `sig`.
    pos: usize,
    /// Names of the inline `mod` blocks enclosing the cursor.
    mod_stack: Vec<String>,
    model: FileModel,
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "ref", "mut", "move", "box", "dyn", "impl", "where", "use", "pub", "crate", "self",
    "Self", "super", "fn", "struct", "enum", "union", "trait", "type", "const", "static", "extern",
    "mod", "unsafe", "async", "await", "yield", "true", "false",
];

impl<'a> Parser<'a> {
    fn peek_tok(&self, ahead: usize) -> Option<&Token> {
        self.sig.get(self.pos + ahead).map(|&i| &self.tokens[i])
    }

    fn text(&self, ahead: usize) -> &str {
        self.peek_tok(ahead).map_or("", |t| t.text(self.src))
    }

    fn kind(&self, ahead: usize) -> Option<TokenKind> {
        self.peek_tok(ahead).map(|t| t.kind)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn at_end(&self) -> bool {
        self.pos >= self.sig.len()
    }

    /// Parses items until a closing `}` (consumed) or EOF.
    fn items(&mut self, impl_idx: Option<usize>, in_test: bool) {
        let mut pending_test = false;
        while !self.at_end() {
            match (self.kind(0), self.text(0)) {
                (Some(TokenKind::Punct), "}") => {
                    self.bump();
                    return;
                }
                (Some(TokenKind::Punct), "#") => {
                    pending_test |= self.attribute();
                }
                (Some(TokenKind::Ident), "fn") => {
                    self.fn_item(impl_idx, in_test || pending_test);
                    pending_test = false;
                }
                (Some(TokenKind::Ident), "impl") => {
                    self.impl_item(in_test || pending_test);
                    pending_test = false;
                }
                (Some(TokenKind::Ident), "mod" | "trait") => {
                    self.mod_or_trait(impl_idx, in_test || pending_test);
                    pending_test = false;
                }
                (Some(TokenKind::Ident), "use") => {
                    self.use_item();
                    pending_test = false;
                }
                (Some(TokenKind::Ident), "struct") => {
                    self.struct_item();
                    pending_test = false;
                }
                // Modifiers: attributes seen so far still apply to the item.
                (Some(TokenKind::Ident), "pub" | "unsafe" | "async" | "const" | "extern")
                    if self.is_item_modifier() =>
                {
                    self.bump();
                }
                (Some(TokenKind::Punct), "{") => {
                    // An unexpected block (macro output, unsafe block at
                    // item level): skip it wholesale.
                    self.skip_balanced("{", "}");
                    pending_test = false;
                }
                _ => {
                    // Anything else (struct/use/static bodies, macro
                    // invocations, stray tokens): advance, descending into
                    // braces so nested `}` doesn't end our scope early.
                    if self.text(0) == "{" {
                        self.skip_balanced("{", "}");
                    } else {
                        let ended_item = self.text(0) == ";";
                        self.bump();
                        if ended_item {
                            pending_test = false;
                        }
                    }
                }
            }
        }
    }

    /// `const` may start `const fn` (modifier) or a `const ITEM: … = …;`.
    /// Similarly `extern "C" fn` vs `extern crate`. Treat as a modifier
    /// only when a `fn` follows within the next couple of tokens.
    fn is_item_modifier(&self) -> bool {
        match self.text(0) {
            "const" => self.text(1) == "fn",
            "extern" => self.text(1) == "fn" || self.text(2) == "fn",
            _ => true,
        }
    }

    /// Consumes `#[…]` / `#![…]`; returns `true` if it marks test code.
    fn attribute(&mut self) -> bool {
        self.bump(); // `#`
        if self.text(0) == "!" {
            self.bump();
        }
        if self.text(0) != "[" {
            return false;
        }
        let start = self.pos;
        self.skip_balanced("[", "]");
        let mut saw_cfg = false;
        let mut saw_test = false;
        let mut saw_not = false;
        let mut count = 0usize;
        for i in start..self.pos {
            let t = &self.tokens[self.sig[i]];
            if t.kind == TokenKind::Ident {
                count += 1;
                match t.text(self.src) {
                    "cfg" => saw_cfg = true,
                    "test" => saw_test = true,
                    "not" => saw_not = true,
                    _ => {}
                }
            }
        }
        // `#[test]` (sole ident) or `#[cfg(test)]` without negation.
        (saw_test && count == 1) || (saw_cfg && saw_test && !saw_not)
    }

    /// Skips a balanced `open … close` region, including nested pairs.
    /// The cursor must be on `open`; ends past the matching `close`.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        debug_assert_eq!(self.text(0), open);
        let mut depth = 0i64;
        while !self.at_end() {
            let t = self.text(0);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    fn mod_or_trait(&mut self, impl_idx: Option<usize>, in_test: bool) {
        let is_mod = self.text(0) == "mod";
        self.bump(); // `mod` / `trait`
        let region_start = self.peek_tok(0).map(|t| t.start);
        let name = if self.kind(0) == Some(TokenKind::Ident) {
            self.text(0).to_owned()
        } else {
            String::new()
        };
        // Scan to `{` (body) or `;` (declaration); traits may carry
        // supertrait bounds and generics before the brace.
        while !self.at_end() && self.text(0) != "{" && self.text(0) != ";" {
            self.bump();
        }
        if is_mod && !name.is_empty() {
            self.model.mods.push((self.mod_stack.clone(), name.clone()));
        }
        if self.text(0) == ";" {
            self.bump();
            return;
        }
        if self.at_end() {
            return;
        }
        self.bump(); // `{`
        let body_start = self.peek_tok(0).map_or(self.src.len(), |t| t.start);
        if is_mod {
            self.mod_stack.push(name);
        }
        self.items(impl_idx, in_test);
        if is_mod {
            self.mod_stack.pop();
        }
        let body_end = self.peek_tok(0).map_or(self.src.len(), |t| t.start);
        if in_test {
            let s = region_start.unwrap_or(body_start);
            self.model.test_regions.push((s, body_end));
        }
    }

    /// Parses `use …;`, flattening groups into one [`UseDecl`] per leaf.
    fn use_item(&mut self) {
        self.bump(); // `use`
        let mut prefix = Vec::new();
        self.use_tree(&mut prefix);
        if self.text(0) == ";" {
            self.bump();
        }
    }

    /// Parses one use-tree with `prefix` already collected; the cursor
    /// ends on the terminator (`;`, `,`, or past the tree's `}`).
    fn use_tree(&mut self, prefix: &mut Vec<String>) {
        let entry_len = prefix.len();
        loop {
            match (self.kind(0), self.text(0)) {
                (Some(TokenKind::Ident | TokenKind::RawIdent), "as") => {
                    self.bump();
                    let alias = if self.kind(0) == Some(TokenKind::Ident) {
                        self.text(0).to_owned()
                    } else {
                        String::new()
                    };
                    if !alias.is_empty() {
                        self.bump();
                    }
                    self.record_use(prefix, alias);
                    return;
                }
                (Some(TokenKind::Ident | TokenKind::RawIdent), txt) => {
                    prefix.push(txt.trim_start_matches("r#").to_owned());
                    self.bump();
                }
                (Some(TokenKind::Punct), ":") => self.bump(),
                (Some(TokenKind::Punct), "*") => {
                    self.bump();
                    self.model.uses.push(UseDecl {
                        path: prefix.clone(),
                        alias: String::new(),
                        is_glob: true,
                        module: self.mod_stack.clone(),
                    });
                    return;
                }
                (Some(TokenKind::Punct), "{") => {
                    self.bump();
                    while !self.at_end() && self.text(0) != "}" {
                        if self.text(0) == "," {
                            self.bump();
                            continue;
                        }
                        let saved = prefix.len();
                        self.use_tree(prefix);
                        prefix.truncate(saved);
                    }
                    if self.text(0) == "}" {
                        self.bump();
                    }
                    return;
                }
                _ => {
                    // `;`, `,`, `}` or EOF: a simple leaf ends here.
                    if prefix.len() > entry_len {
                        self.record_use(prefix, String::new());
                    }
                    return;
                }
            }
        }
    }

    /// Records a non-glob use leaf. An empty `alias` means "bind the last
    /// segment"; a trailing `self` segment (`use foo::bar::{self}`) binds
    /// the parent module's name instead.
    fn record_use(&mut self, prefix: &[String], alias: String) {
        let mut path = prefix.to_vec();
        if path.last().is_some_and(|s| s == "self") && path.len() > 1 {
            path.pop();
        }
        let alias = if alias.is_empty() {
            match path.last() {
                Some(last) => last.clone(),
                None => return,
            }
        } else {
            alias
        };
        self.model.uses.push(UseDecl {
            path,
            alias,
            is_glob: false,
            module: self.mod_stack.clone(),
        });
    }

    /// Parses `struct Name … ;` / `struct Name(…);` / `struct Name { … }`,
    /// recording named fields as `(name, type-last-segment)`.
    fn struct_item(&mut self) {
        self.bump(); // `struct`
        let name = if self.kind(0) == Some(TokenKind::Ident) {
            self.text(0).to_owned()
        } else {
            String::new()
        };
        if name.is_empty() {
            return;
        }
        self.bump();
        if self.text(0) == "<" {
            self.skip_generics();
        }
        // Tuple struct or where clause: scan to `{`, `(`, or `;`.
        while !self.at_end() && !matches!(self.text(0), "{" | "(" | ";") {
            self.bump();
        }
        let mut fields = Vec::new();
        match self.text(0) {
            ";" => self.bump(),
            "(" => {
                self.skip_balanced("(", ")");
                if self.text(0) == ";" {
                    self.bump();
                }
            }
            "{" => {
                let start = self.pos;
                self.skip_balanced("{", "}");
                fields = self.split_typed_bindings(start + 1, self.pos - 1);
            }
            _ => {}
        }
        self.model.structs.push(StructInfo {
            name,
            module: self.mod_stack.clone(),
            fields,
        });
    }

    fn impl_item(&mut self, in_test: bool) {
        let impl_line = self.peek_tok(0).map_or(1, |t| t.line);
        let impl_start = self.peek_tok(0).map_or(0, |t| t.start);
        self.bump(); // `impl`
        if self.text(0) == "<" {
            self.skip_generics();
        }
        // Collect path segments until `for` (trait impl) or `{`.
        let mut first_path = Vec::new();
        let mut second_path = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i64;
        while !self.at_end() {
            let txt = self.text(0);
            if angle == 0 {
                if txt == "{" {
                    break;
                }
                if txt == "for" && self.kind(0) == Some(TokenKind::Ident) {
                    saw_for = true;
                    self.bump();
                    continue;
                }
                // `impl Trait for Type where …` — stop collecting at where.
                if txt == "where" {
                    while !self.at_end() && self.text(0) != "{" {
                        self.bump();
                    }
                    break;
                }
            }
            match txt {
                "<" => angle += 1,
                ">" if !self.is_arrow_close() => angle = (angle - 1).max(0),
                _ => {
                    if angle == 0 && self.kind(0) == Some(TokenKind::Ident) {
                        let dst = if saw_for {
                            &mut second_path
                        } else {
                            &mut first_path
                        };
                        dst.push(txt.to_owned());
                    }
                }
            }
            self.bump();
        }
        let (trait_name, self_ty) = if saw_for {
            (first_path.last().cloned(), second_path.last().cloned())
        } else {
            (None, first_path.last().cloned())
        };
        self.model.impls.push(ImplInfo {
            trait_name,
            self_ty: self_ty.unwrap_or_default(),
            line: impl_line,
            module: self.mod_stack.clone(),
        });
        let idx = self.model.impls.len() - 1;
        if self.text(0) == "{" {
            self.bump();
            self.items(Some(idx), in_test);
        }
        if in_test {
            let end = self.peek_tok(0).map_or(self.src.len(), |t| t.start);
            self.model.test_regions.push((impl_start, end));
        }
    }

    /// Skips `<…>` generics, honoring nesting and `->` inside bounds.
    fn skip_generics(&mut self) {
        let mut depth = 0i64;
        while !self.at_end() {
            match self.text(0) {
                "<" => depth += 1,
                ">" if !self.is_arrow_close() => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// `true` when the `>` under the cursor is the tip of a `->` arrow
    /// (so it must not close a generics bracket).
    fn is_arrow_close(&self) -> bool {
        self.is_arrow_close_at(self.pos)
    }

    /// [`Self::is_arrow_close`] for an arbitrary significant index.
    fn is_arrow_close_at(&self, at: usize) -> bool {
        let Some(&i) = self.sig.get(at) else {
            return false;
        };
        if at == 0 {
            return false;
        }
        let cur = &self.tokens[i];
        let prev = &self.tokens[self.sig[at - 1]];
        prev.text(self.src) == "-" && prev.end == cur.start
    }

    /// Splits `sig[start..end]` on top-level commas and parses each piece
    /// as a `name: Type` binding (fn parameter or struct field), skipping
    /// attributes, visibility, `mut`/`ref`, and `self` receivers. The
    /// type is reduced to its last path segment (empty for non-path
    /// types: slices, tuples, `dyn`/`impl` bounds, fn pointers).
    fn split_typed_bindings(&self, start: usize, end: usize) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut group = 0i64;
        let mut angle = 0i64;
        let mut piece: Vec<usize> = Vec::new();
        for j in start..end {
            let txt = self.tokens[self.sig[j]].text(self.src);
            match txt {
                "(" | "[" | "{" => group += 1,
                ")" | "]" | "}" => group -= 1,
                "<" => angle += 1,
                ">" if !self.is_arrow_close_at(j) => angle = (angle - 1).max(0),
                "," if group == 0 && angle == 0 => {
                    self.push_typed_binding(&piece, &mut out);
                    piece.clear();
                    continue;
                }
                _ => {}
            }
            piece.push(j);
        }
        self.push_typed_binding(&piece, &mut out);
        out
    }

    /// Parses one `name: Type` piece (significant indices) into `out`.
    fn push_typed_binding(&self, piece: &[usize], out: &mut Vec<(String, String)>) {
        let mut k = 0usize;
        let txt = |k: usize| {
            piece
                .get(k)
                .map_or("", |&j| self.tokens[self.sig[j]].text(self.src))
        };
        let kind = |k: usize| piece.get(k).map(|&j| self.tokens[self.sig[j]].kind);
        // Skip field attributes `#[…]`.
        while txt(k) == "#" {
            k += 1;
            if txt(k) == "[" {
                let mut depth = 0i64;
                while k < piece.len() {
                    match txt(k) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        // Skip visibility `pub` / `pub(crate)` / `pub(in path)`.
        if txt(k) == "pub" {
            k += 1;
            if txt(k) == "(" {
                while k < piece.len() && txt(k) != ")" {
                    k += 1;
                }
                k += 1; // `)`
            }
        }
        while matches!(txt(k), "mut" | "ref") {
            k += 1;
        }
        // `self` receivers (`self`, `&self`, `&'a mut self`): no binding.
        {
            let mut r = k;
            while matches!(txt(r), "&" | "mut") || kind(r) == Some(TokenKind::Lifetime) {
                r += 1;
            }
            if txt(r) == "self" {
                return;
            }
        }
        if !matches!(kind(k), Some(TokenKind::Ident | TokenKind::RawIdent)) {
            return;
        }
        let name = txt(k).trim_start_matches("r#").to_owned();
        // The separator must be a single `:` (not `::`).
        if txt(k + 1) != ":" || txt(k + 2) == ":" {
            return;
        }
        let ty = self.type_last_segment(&piece[k + 2..]);
        out.push((name, ty));
    }

    /// Reduces a type's significant indices to the last path segment of
    /// its outermost path (`&mut Vec<Tuple>` → `Vec`); empty when the
    /// type is not a plain path.
    fn type_last_segment(&self, piece: &[usize]) -> String {
        let txt = |k: usize| {
            piece
                .get(k)
                .map_or("", |&j| self.tokens[self.sig[j]].text(self.src))
        };
        let kind = |k: usize| piece.get(k).map(|&j| self.tokens[self.sig[j]].kind);
        let mut k = 0usize;
        while matches!(txt(k), "&" | "mut") || kind(k) == Some(TokenKind::Lifetime) {
            k += 1;
        }
        if matches!(txt(k), "dyn" | "impl") {
            return String::new();
        }
        let mut last = String::new();
        while k < piece.len() {
            if !matches!(kind(k), Some(TokenKind::Ident | TokenKind::RawIdent)) {
                break;
            }
            last = txt(k).trim_start_matches("r#").to_owned();
            if txt(k + 1) == ":" && txt(k + 2) == ":" {
                k += 3;
            } else {
                break;
            }
        }
        last
    }

    fn fn_item(&mut self, impl_idx: Option<usize>, is_test: bool) {
        let fn_tok_start = self.peek_tok(0).map_or(0, |t| t.start);
        self.bump(); // `fn`
        let (name, line) = match self.peek_tok(0) {
            Some(t) if matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) => {
                (t.text(self.src).to_owned(), t.line)
            }
            _ => (String::new(), 0),
        };
        if !name.is_empty() {
            self.bump();
        }
        if self.text(0) == "<" {
            self.skip_generics();
        }
        // Parameter list.
        let mut params = Vec::new();
        if self.text(0) == "(" {
            let start = self.pos;
            self.skip_balanced("(", ")");
            params = self.split_typed_bindings(start + 1, self.pos - 1);
        }
        // Return type / where clause: scan to the body `{` or a `;`.
        while !self.at_end() && self.text(0) != "{" && self.text(0) != ";" {
            self.bump();
        }
        let mut body = None;
        let mut calls = Vec::new();
        let mut loops = Vec::new();
        let mut span_end = self.peek_tok(0).map_or(self.src.len(), |t| t.end);
        if self.text(0) == "{" {
            let body_start_sig = self.pos;
            self.skip_balanced("{", "}");
            let body_end_sig = self.pos; // one past the closing brace
            body = Some((self.sig[body_start_sig], self.sig[body_end_sig - 1]));
            span_end = self.tokens[self.sig[body_end_sig - 1]].end;
            calls = self.collect_calls(body_start_sig, body_end_sig);
            loops = self.collect_loops(body_start_sig, body_end_sig);
        } else if self.text(0) == ";" {
            span_end = self.peek_tok(0).map_or(self.src.len(), |t| t.end);
            self.bump();
        }
        if is_test {
            self.model.test_regions.push((fn_tok_start, span_end));
        }
        self.model.fns.push(FnInfo {
            name,
            line,
            impl_idx,
            body,
            span: (fn_tok_start, span_end),
            is_test,
            params,
            module: self.mod_stack.clone(),
            calls,
            loops,
        });
    }

    /// Scans significant tokens `sig[start..end]` for `for`/`while`/`loop`
    /// bodies, recording each as a region with its nesting depth.
    ///
    /// A loop body is the first `{` after the keyword at paren/bracket
    /// depth 0 — the same approximation rustc's grammar encourages, since
    /// conditions cannot contain bare block expressions. `for<'a>`
    /// higher-ranked bounds are excluded (the keyword is followed by `<`).
    fn collect_loops(&self, start: usize, end: usize) -> Vec<LoopRegion> {
        let mut out: Vec<LoopRegion> = Vec::new();
        // Ends of the loop regions currently enclosing the cursor.
        let mut active: Vec<usize> = Vec::new();
        for i in start..end {
            while active.last().is_some_and(|&e| i >= e) {
                active.pop();
            }
            let t = &self.tokens[self.sig[i]];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let kw = t.text(self.src);
            if !matches!(kw, "for" | "while" | "loop") {
                continue;
            }
            // `.await`-style field position or HRTB `for<'a>`: not loops.
            let prev_is_dot = i > start && self.tokens[self.sig[i - 1]].text(self.src) == ".";
            let next_is_lt = self
                .sig
                .get(i + 1)
                .is_some_and(|&j| self.tokens[j].text(self.src) == "<");
            if prev_is_dot || (kw == "for" && next_is_lt) {
                continue;
            }
            let Some(open) = self.loop_body_open(i + 1, end) else {
                continue;
            };
            let close = self.balanced_close(open, end);
            out.push(LoopRegion {
                sig_start: open,
                sig_end: close,
                depth: u32::try_from(active.len()).unwrap_or(u32::MAX - 1) + 1,
                line: t.line,
            });
            active.push(close);
        }
        out
    }

    /// The significant index of the first `{` at paren/bracket depth 0 in
    /// `sig[from..end]`, i.e. a loop's body brace; `None` if a `;` ends the
    /// statement first.
    fn loop_body_open(&self, from: usize, end: usize) -> Option<usize> {
        let mut grouping = 0i64;
        for j in from..end {
            match self.tokens[self.sig[j]].text(self.src) {
                "(" | "[" => grouping += 1,
                ")" | "]" => grouping -= 1,
                "{" if grouping == 0 => return Some(j),
                ";" if grouping <= 0 => return None,
                _ => {}
            }
        }
        None
    }

    /// Significant index one past the `}` matching the `{` at `open`.
    fn balanced_close(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i64;
        for j in open..end {
            match self.tokens[self.sig[j]].text(self.src) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
        }
        end
    }

    /// Scans significant tokens `sig[start..end]` for call sites.
    fn collect_calls(&self, start: usize, end: usize) -> Vec<Call> {
        let mut calls = Vec::new();
        for i in start..end {
            let t = &self.tokens[self.sig[i]];
            if !matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) {
                continue;
            }
            let name = t.text(self.src).trim_start_matches("r#");
            let next = self.sig.get(i + 1).map(|&j| self.tokens[j].text(self.src));
            let next2 = self.sig.get(i + 2).map(|&j| self.tokens[j].text(self.src));
            let (is_call, is_macro) = match (next, next2) {
                (Some("("), _) => (true, false),
                (Some("!"), Some("(" | "[" | "{")) => (true, true),
                _ => (false, false),
            };
            if !is_call {
                continue;
            }
            // Look backwards for `.method(` and `Qual::name(`.
            let prev = (i > start).then(|| self.tokens[self.sig[i - 1]].text(self.src));
            let is_method = prev == Some(".");
            // Keywords are never free calls, but contextual keywords are
            // fine as method names (`.union(…)` on sets).
            if !is_method && KEYWORDS_NOT_CALLS.contains(&name) {
                continue;
            }
            let qualifier = if prev == Some(":")
                && i >= start + 3
                && self.tokens[self.sig[i - 2]].text(self.src) == ":"
            {
                let q = &self.tokens[self.sig[i - 3]];
                matches!(q.kind, TokenKind::Ident | TokenKind::RawIdent)
                    .then(|| q.text(self.src).to_owned())
            } else {
                None
            };
            calls.push(Call {
                name: name.to_owned(),
                qualifier,
                sig_idx: i,
                is_method,
                is_macro,
            });
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        parse(src, &lex(src))
    }

    #[test]
    fn finds_fns_and_lines() {
        let src = "fn a() {}\n\npub fn b(x: u32) -> u32 { x }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "a");
        assert_eq!(m.fns[0].line, 1);
        assert_eq!(m.fns[1].name, "b");
        assert_eq!(m.fns[1].line, 3);
        assert!(m.fns.iter().all(|f| !f.is_test));
    }

    #[test]
    fn impl_blocks_carry_trait_and_self_ty() {
        let src = "\
impl MapTask for WcTask {
    fn map(&mut self) {}
}
impl<K: Ord, V> Helper<K, V> {
    fn go(&self) {}
}
impl std::fmt::Display for Wc {
    fn fmt(&self) {}
}
";
        let m = model(src);
        assert_eq!(m.impls.len(), 3);
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("MapTask"));
        assert_eq!(m.impls[0].self_ty, "WcTask");
        assert_eq!(m.impls[1].trait_name, None);
        assert_eq!(m.impls[1].self_ty, "Helper");
        assert_eq!(m.impls[2].trait_name.as_deref(), Some("Display"));
        let map_fn = m.fns.iter().find(|f| f.name == "map").expect("map fn");
        assert_eq!(map_fn.impl_idx, Some(0));
        let go_fn = m.fns.iter().find(|f| f.name == "go").expect("go fn");
        assert_eq!(go_fn.impl_idx, Some(1));
    }

    #[test]
    fn impl_with_fn_bound_generics() {
        let src = "impl<F: Fn(u32) -> u32> Apply for Wrapper<F> { fn apply(&self) {} }";
        let m = model(src);
        assert_eq!(m.impls.len(), 1);
        assert_eq!(m.impls[0].trait_name.as_deref(), Some("Apply"));
        assert_eq!(m.impls[0].self_ty, "Wrapper");
    }

    #[test]
    fn cfg_test_regions_by_brace_depth() {
        let src = "\
fn prod() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() { prod(); }
}

fn also_prod() {}
";
        let m = model(src);
        let prod = m.fns.iter().find(|f| f.name == "prod").expect("prod");
        assert!(!prod.is_test);
        let t = m.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.is_test);
        let also = m.fns.iter().find(|f| f.name == "also_prod").expect("also");
        assert!(!also.is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn shipped() {}\n#[test]\nfn t() {}\n";
        let m = model(src);
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test);
    }

    #[test]
    fn calls_with_qualifiers_methods_and_macros() {
        let src = "\
fn driver(seed: u64) {
    let rng = StdRng::seed_from_u64(seed);
    helper(1);
    emitter.emit(k, v);
    assert!(ok);
    if cond(x) { loop {} }
}
";
        let m = model(src);
        let f = &m.fns[0];
        let by_name = |n: &str| f.calls.iter().find(|c| c.name == n);
        let ctor = by_name("seed_from_u64").expect("ctor call");
        assert_eq!(ctor.qualifier.as_deref(), Some("StdRng"));
        assert!(by_name("helper").is_some());
        let emit = by_name("emit").expect("method call");
        assert!(emit.is_method);
        let am = by_name("assert").expect("macro");
        assert!(am.is_macro);
        assert!(by_name("cond").is_some());
        // Keywords never register as calls.
        assert!(by_name("if").is_none() && by_name("loop").is_none());
    }

    #[test]
    fn trait_default_methods_and_decls() {
        let src = "\
pub trait MapTask {
    fn map(&mut self);
    fn finish(&mut self) { self.map(); }
}
";
        let m = model(src);
        let map_decl = m.fns.iter().find(|f| f.name == "map").expect("decl");
        assert!(map_decl.body.is_none());
        let finish = m.fns.iter().find(|f| f.name == "finish").expect("default");
        assert!(finish.body.is_some());
        assert!(finish.calls.iter().any(|c| c.name == "map" && c.is_method));
    }

    #[test]
    fn nested_mods_inherit_test_state() {
        let src = "\
#[cfg(test)]
mod outer {
    mod inner {
        fn deep() {}
    }
}
";
        let m = model(src);
        let deep = m.fns.iter().find(|f| f.name == "deep").expect("deep");
        assert!(deep.is_test);
    }

    #[test]
    fn const_fn_and_extern_fn_are_found() {
        let src = "const fn cf() -> u32 { 1 }\nconst MAX: u32 = 9;\nfn after() {}\n";
        let m = model(src);
        assert!(m.fns.iter().any(|f| f.name == "cf"));
        assert!(m.fns.iter().any(|f| f.name == "after"));
    }

    #[test]
    fn loop_regions_and_nesting_depth() {
        let src = "\
fn kernel(xs: &[u32]) {
    setup();
    'outer: for x in xs {
        one(x);
        while cond(x) {
            two(x);
            loop { three(); break 'outer; }
        }
    }
    teardown();
}
";
        let m = model(src);
        let f = &m.fns[0];
        assert_eq!(f.loops.len(), 3);
        assert_eq!(
            f.loops.iter().map(|r| r.depth).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        let at = |name: &str| {
            f.calls
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("call {name}"))
                .sig_idx
        };
        assert_eq!(f.loop_depth_at(at("setup")), 0);
        assert_eq!(f.loop_depth_at(at("one")), 1);
        assert_eq!(f.loop_depth_at(at("two")), 2);
        assert_eq!(f.loop_depth_at(at("three")), 3);
        assert_eq!(f.loop_depth_at(at("teardown")), 0);
    }

    #[test]
    fn loop_conditions_with_closure_braces_and_hrtb_do_not_open_regions() {
        let src = "\
fn f(v: &[u32]) {
    while v.iter().any(|x| { pred(x) }) {
        body(v);
    }
    let g: Box<dyn for<'a> Fn(&'a u32)> = mk();
    for (i, x) in v.iter().enumerate() {
        use_it(i, x);
    }
}
";
        let m = model(src);
        let f = &m.fns[0];
        // Exactly two loop regions: the `while` body and the `for` body —
        // neither the closure braces in the condition nor the HRTB `for`.
        assert_eq!(f.loops.len(), 2);
        assert!(f.loops.iter().all(|r| r.depth == 1));
        let at = |name: &str| {
            f.calls
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("call {name}"))
                .sig_idx
        };
        assert_eq!(f.loop_depth_at(at("body")), 1);
        assert_eq!(f.loop_depth_at(at("use_it")), 1);
        assert_eq!(f.loop_depth_at(at("mk")), 0);
    }

    #[test]
    fn use_decls_flatten_groups_aliases_and_globs() {
        let src = "\
use std::collections::HashMap;
use crate::dominance::{dominates, compare as cmp};
use skymr_common::tuple::*;
use super::job::{self, JobSpec};
pub use crate::grid::Grid;
";
        let m = model(src);
        let find = |alias: &str| {
            m.uses
                .iter()
                .find(|u| u.alias == alias)
                .unwrap_or_else(|| panic!("use {alias}"))
        };
        assert_eq!(
            find("HashMap").path,
            ["std", "collections", "HashMap"],
            "plain path"
        );
        assert_eq!(find("dominates").path, ["crate", "dominance", "dominates"]);
        assert_eq!(find("cmp").path, ["crate", "dominance", "compare"]);
        let glob = m.uses.iter().find(|u| u.is_glob).expect("glob");
        assert_eq!(glob.path, ["skymr_common", "tuple"]);
        // `{self, …}` binds the parent module's name.
        assert_eq!(find("job").path, ["super", "job"]);
        assert_eq!(find("JobSpec").path, ["super", "job", "JobSpec"]);
        assert_eq!(find("Grid").path, ["crate", "grid", "Grid"]);
    }

    #[test]
    fn struct_fields_record_type_last_segments() {
        let src = "\
pub struct Job {
    pub name: String,
    grid: crate::grid::Grid,
    #[allow(dead_code)]
    slots: Vec<Slot>,
    raw: [u8; 4],
}
struct Marker;
struct Pair(u32, u32);
";
        let m = model(src);
        assert_eq!(m.structs.len(), 3);
        let job = &m.structs[0];
        assert_eq!(job.name, "Job");
        assert_eq!(
            job.fields,
            [
                ("name".to_owned(), "String".to_owned()),
                ("grid".to_owned(), "Grid".to_owned()),
                ("slots".to_owned(), "Vec".to_owned()),
                ("raw".to_owned(), String::new()),
            ]
        );
        assert!(m.structs[1].fields.is_empty());
        assert!(m.structs[2].fields.is_empty());
    }

    #[test]
    fn fn_params_record_names_and_types() {
        let src = "\
impl Grid {
    fn assign(&self, t: &Tuple, out: &mut Vec<usize>, n: usize) -> usize { 0 }
}
fn free(spec: crate::job::JobSpec, xs: &[Tuple], f: impl Fn(u32) -> u32) {}
";
        let m = model(src);
        let assign = m.fns.iter().find(|f| f.name == "assign").expect("assign");
        assert_eq!(
            assign.params,
            [
                ("t".to_owned(), "Tuple".to_owned()),
                ("out".to_owned(), "Vec".to_owned()),
                ("n".to_owned(), "usize".to_owned()),
            ]
        );
        let free = m.fns.iter().find(|f| f.name == "free").expect("free");
        assert_eq!(free.params.len(), 3);
        assert_eq!(free.params[0], ("spec".to_owned(), "JobSpec".to_owned()));
        assert_eq!(free.params[1], ("xs".to_owned(), String::new()));
        assert_eq!(free.params[2], ("f".to_owned(), String::new()));
    }

    #[test]
    fn inline_mod_paths_are_recorded() {
        let src = "\
mod outer {
    pub mod inner {
        pub fn deep() {}
        impl Thing { fn m(&self) {} }
    }
    use crate::top::Item;
    fn shallow() {}
}
mod sibling;
fn top() {}
";
        let m = model(src);
        let deep = m.fns.iter().find(|f| f.name == "deep").expect("deep");
        assert_eq!(deep.module, ["outer", "inner"]);
        let shallow = m.fns.iter().find(|f| f.name == "shallow").expect("shallow");
        assert_eq!(shallow.module, ["outer"]);
        let top = m.fns.iter().find(|f| f.name == "top").expect("top");
        assert!(top.module.is_empty());
        assert_eq!(m.impls[0].module, ["outer", "inner"]);
        assert_eq!(m.uses[0].module, ["outer"]);
        assert!(m.mods.contains(&(Vec::new(), "outer".to_owned())));
        assert!(m
            .mods
            .contains(&(vec!["outer".to_owned()], "inner".to_owned())));
        assert!(m.mods.contains(&(Vec::new(), "sibling".to_owned())));
    }

    #[test]
    fn plain_blocks_do_not_count_as_loop_depth() {
        let src = "fn f() { { inner(); } for x in v { { deep(x); } } }";
        let m = model(src);
        let f = &m.fns[0];
        assert_eq!(f.loops.len(), 1);
        let at = |name: &str| {
            f.calls
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("call {name}"))
                .sig_idx
        };
        assert_eq!(f.loop_depth_at(at("inner")), 0);
        assert_eq!(f.loop_depth_at(at("deep")), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// Round-trip: emit a fn body from nesting opcodes, recording the
        /// loop depth at which each probe call is written; the parsed
        /// model must report the same depth for every probe.
        #[test]
        fn loop_depth_round_trips_on_generated_nesting(
            ops in proptest::collection::vec(0u8..6, 0..64),
        ) {
            let mut src = String::from("fn soup(xs: &[u32]) {\n");
            let mut depth = 0u32;
            let mut open = Vec::new(); // true = loop region, false = block
            let mut expected = Vec::new();
            for (n, op) in ops.iter().enumerate() {
                match op {
                    0 => {
                        src.push_str("for i in xs {\n");
                        open.push(true);
                        depth += 1;
                    }
                    1 => {
                        src.push_str("while go() {\n");
                        open.push(true);
                        depth += 1;
                    }
                    2 => {
                        src.push_str("loop {\n");
                        open.push(true);
                        depth += 1;
                    }
                    3 => {
                        src.push_str("{\n");
                        open.push(false);
                    }
                    4 => {
                        if let Some(was_loop) = open.pop() {
                            src.push_str("}\n");
                            if was_loop {
                                depth -= 1;
                            }
                        }
                    }
                    _ => {
                        src.push_str(&format!("probe_{n}(x);\n"));
                        expected.push((format!("probe_{n}"), depth));
                    }
                }
            }
            while open.pop().is_some() {
                src.push_str("}\n");
            }
            src.push_str("}\n");
            let m = model(&src);
            let f = &m.fns[0];
            for (name, want) in &expected {
                let call = f
                    .calls
                    .iter()
                    .find(|c| &c.name == name)
                    .expect("probe call parsed");
                assert_eq!(
                    f.loop_depth_at(call.sig_idx),
                    *want,
                    "probe {name} in:\n{src}"
                );
            }
        }
    }
}
