//! `hot-path-alloc` — no silent heap traffic in the dominance kernels.
//!
//! Mullesgaard et al.'s §6 cost model makes dominance comparisons the
//! dominant term of every MapReduce phase, so the kernels that run them
//! must not silently grow heap traffic. This pass starts from a **hot
//! entry registry** (`crates/xtask/hot_entries.conf`, plus in-place
//! `// xtask: hot` markers for impl methods), walks the intra-workspace
//! call graph from those entries, and inside every reachable fn flags:
//!
//! * direct allocation: `Vec::new()`, `vec![…]`, `Box::new(…)`,
//!   `.to_vec()`, no-argument `.collect()` (turbofish included),
//!   `format!(…)`, `String::from(…)`;
//! * `.clone()` calls (the receiver may be non-`Copy`; `Copy` values
//!   should be dereferenced instead);
//! * `Vec::push` with no visible `with_capacity`/`reserve` for the same
//!   receiver anywhere in the fn;
//! * `HashMap`/`HashSet` use (per-probe hashing plus unordered
//!   iteration — the workspace standard is `BTreeMap`).
//!
//! Each diagnostic carries an **effective loop depth**: the loop nesting
//! at the flagged token plus the deepest loop nesting accumulated along
//! the call chain from a hot entry (a fn called inside a double loop
//! starts at depth 2). Allocation/clone/push findings fire only at depth
//! ≥ 1 — a one-off allocation in straight-line kernel code is fine — and
//! diagnostics are ranked deepest-first. The registry itself is checked:
//! an entry naming a fn that no longer exists, or a marker binding to no
//! fn, is an error, so the hot set cannot rot.
//!
//! Calls resolve through the workspace symbol graph
//! ([`super::resolve`]): `use`-aware free-fn resolution gives the pass
//! cross-crate reach (an allocation inside a `skymr_common` helper called
//! from a hot `core` kernel is flagged), and receiver typing means a
//! method edge exists only when the receiver's type is statically
//! evident — so `window.into_iter().map(…)` resolves to nothing and can
//! never alias a MapReduce `map` UDF, which is what used to require a
//! std-prelude method-name denylist here. Closures still fold into the
//! enclosing fn, iterator adapters are not loop regions, and effective
//! depth is capped so recursive cycles through loops terminate.

use super::resolve::Workspace;
use super::{AnalyzedFile, Diagnostic};
use crate::lexer::TokenKind;

/// The checked hot-entry registry, embedded at compile time.
const HOT_ENTRIES_CONF: &str = include_str!("../../hot_entries.conf");
/// Workspace-relative path diagnostics about the registry point at.
const HOT_ENTRIES_PATH: &str = "crates/xtask/hot_entries.conf";
/// Effective-depth cap: keeps propagation finite on recursive cycles.
const DEPTH_CAP: u32 = 8;

pub const RULE: &str = "hot-path-alloc";

/// One `file::fn` line of the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfEntry {
    /// Workspace-relative file the hot fn lives in.
    pub file: String,
    /// The fn's name.
    pub name: String,
    /// 1-based line in the conf file (for registry-error diagnostics).
    pub line: usize,
}

/// Parses the embedded registry. Lines are `path::fn`; `#` comments and
/// blanks are skipped.
pub fn parse_registry() -> Vec<ConfEntry> {
    let mut out = Vec::new();
    for (idx, raw) in HOT_ENTRIES_CONF.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((file, name)) = line.rsplit_once("::") {
            out.push(ConfEntry {
                file: file.to_owned(),
                name: name.to_owned(),
                line: idx + 1,
            });
        }
    }
    out
}

/// The whole-workspace pass with the embedded registry.
pub fn check(ws: &Workspace<'_>) -> Vec<Diagnostic> {
    check_with_registry(ws, &parse_registry())
}

/// Hot state of a node: effective loop depth at its entry, and the hot
/// entry fn it was reached from (for the diagnostic message).
#[derive(Clone)]
struct Hot {
    depth: u32,
    via: String,
}

pub fn check_with_registry(ws: &Workspace<'_>, registry: &[ConfEntry]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let files = ws.files();

    // Test fns and bodiless decls never join the hot set.
    let eligible = |id: usize| !ws.fn_info(id).is_test && ws.fn_info(id).body.is_some();

    // Seed the hot set: registry entries (checked against the file set)…
    let mut hot: Vec<Option<Hot>> = (0..ws.nodes.len()).map(|_| None).collect();
    let mut work: Vec<usize> = Vec::new();
    for entry in registry {
        let Some(_) = files.iter().position(|f| f.path == entry.file) else {
            // Entry file not in this file set (fixture runs analyze a
            // handful of files); the whole-workspace gate test asserts
            // every registry file actually exists in the tree.
            continue;
        };
        let mut matched = false;
        for (id, slot) in hot.iter_mut().enumerate() {
            if eligible(id)
                && ws.file_of(id).path == entry.file
                && ws.fn_info(id).name == entry.name
            {
                matched = true;
                if slot.is_none() {
                    *slot = Some(Hot {
                        depth: 0,
                        via: entry.name.clone(),
                    });
                    work.push(id);
                }
            }
        }
        if !matched {
            out.push(Diagnostic {
                file: HOT_ENTRIES_PATH.to_owned(),
                line: entry.line,
                rule: RULE,
                rank: 0,
                message: format!(
                    "hot-entry registry names `{}::{}` but that file has no such \
                     non-test fn — update the registry",
                    entry.file, entry.name
                ),
            });
        }
    }
    // …and `// xtask: hot` markers (bind to the next fn within 3 lines).
    for (fi, f) in files.iter().enumerate() {
        for t in &f.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t
                .text(&f.src)
                .trim_start_matches('/')
                .trim_start_matches('*')
                .trim_end_matches('/')
                .trim_end_matches('*')
                .trim();
            if text != "xtask: hot" {
                continue;
            }
            let bound = (0..ws.nodes.len()).find(|&id| {
                eligible(id) && ws.nodes[id].file == fi && {
                    let g = ws.fn_info(id);
                    g.line >= t.line && g.line <= t.line + 3
                }
            });
            match bound {
                Some(id) => {
                    if hot[id].is_none() {
                        hot[id] = Some(Hot {
                            depth: 0,
                            via: ws.fn_info(id).name.clone(),
                        });
                        work.push(id);
                    }
                }
                None => out.push(Diagnostic {
                    file: f.path.clone(),
                    line: t.line,
                    rule: RULE,
                    rank: 0,
                    message: "dangling `// xtask: hot` marker: no non-test fn with a body \
                              starts within the next 3 lines"
                        .to_owned(),
                }),
            }
        }
    }

    // Propagate effective loop depth along the call graph: a callee's
    // depth is the caller's depth plus the loop nesting at the call site,
    // maximized over call chains and capped for termination.
    while let Some(id) = work.pop() {
        let Some(cur) = hot[id].clone() else { continue };
        let caller = ws.fn_info(id);
        for &(ci, target) in ws.callees(id) {
            if !eligible(target) {
                continue;
            }
            let call = &caller.calls[ci];
            let nd = (cur.depth + caller.loop_depth_at(call.sig_idx)).min(DEPTH_CAP);
            let better = match &hot[target] {
                None => true,
                Some(h) => nd > h.depth,
            };
            if better {
                hot[target] = Some(Hot {
                    depth: nd,
                    via: cur.via.clone(),
                });
                work.push(target);
            }
        }
    }

    // Scan every hot fn body.
    for (id, slot) in hot.iter().enumerate() {
        let Some(h) = slot else { continue };
        let f = ws.file_of(id);
        let g = ws.fn_info(id);
        let Some(body) = g.body else { continue };
        let (start, end) = f.sig_range(body);
        scan_hot_body(f, g, h, start, end, &mut out);
    }
    out
}

/// Scans one hot fn body (significant range `[start, end)`).
fn scan_hot_body(
    f: &AnalyzedFile,
    g: &crate::parse::FnInfo,
    h: &Hot,
    start: usize,
    end: usize,
    out: &mut Vec<Diagnostic>,
) {
    let presized = capacity_receivers(f, start, end);
    let mut hash_lines: Vec<usize> = Vec::new();
    for i in start..end {
        let Some(t) = f.sig_tok(i) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(&f.src);
        let rank = h.depth + g.loop_depth_at(i);
        let diag = |rank: u32, message: String| Diagnostic {
            file: f.path.clone(),
            line: t.line,
            rule: RULE,
            rank,
            message,
        };
        let alloc = |what: &str| {
            format!(
                "`{what}` allocates on a hot path (effective loop depth {rank}, \
                 via `{}`) — hoist it out of the loop or pre-size the buffer",
                h.via
            )
        };
        let is_method = i > start && f.sig_text(i - 1) == ".";
        match name {
            // Constructors spelled `Type::name(…)`.
            "new" if path_qualifier(f, i).as_deref() == Some("Vec") && rank >= 1 => {
                out.push(diag(rank, alloc("Vec::new()")));
            }
            "new" if path_qualifier(f, i).as_deref() == Some("Box") && rank >= 1 => {
                out.push(diag(rank, alloc("Box::new(…)")));
            }
            "from" if path_qualifier(f, i).as_deref() == Some("String") && rank >= 1 => {
                out.push(diag(rank, alloc("String::from(…)")));
            }
            // Allocating macros.
            "vec" | "format" if f.sig_text(i + 1) == "!" && rank >= 1 => {
                out.push(diag(rank, alloc(&format!("{name}![…]"))));
            }
            // Allocating methods.
            "to_vec" if is_method && f.sig_text(i + 1) == "(" && rank >= 1 => {
                out.push(diag(rank, alloc(".to_vec()")));
            }
            "collect" if is_method && no_arg_call_after(f, i) && rank >= 1 => {
                out.push(diag(rank, alloc(".collect()")));
            }
            "clone" if is_method && no_arg_call_after(f, i) && rank >= 1 => {
                out.push(diag(
                    rank,
                    format!(
                        "`.clone()` on a hot path (effective loop depth {rank}, via \
                         `{}`) — borrow or move instead; if the copy is the \
                         algorithm's contract, waive with that invariant",
                        h.via
                    ),
                ));
            }
            // Unsized growth: `recv.push(…)` with no visible pre-sizing.
            "push" if is_method && f.sig_text(i + 1) == "(" && rank >= 1 => {
                let recv = (i >= start + 2 && f.sig_kind(i - 2) == Some(TokenKind::Ident))
                    .then(|| f.sig_text(i - 2).to_owned());
                let known = recv.as_ref().is_some_and(|r| presized.contains(r));
                if !known {
                    let recv = recv.unwrap_or_else(|| "<expr>".into());
                    out.push(diag(
                        rank,
                        format!(
                            "`{recv}.push(…)` with no visible `with_capacity`/`reserve` \
                             for `{recv}` in this fn (effective loop depth {rank}, via \
                             `{}`) — pre-size the vector",
                            h.via
                        ),
                    ));
                }
            }
            // Hash containers anywhere in a hot fn, once per line.
            "HashMap" | "HashSet" if !hash_lines.contains(&t.line) => {
                hash_lines.push(t.line);
                out.push(diag(
                    rank,
                    format!(
                        "`{name}` in hot fn `{}` (via `{}`) — per-probe hashing and \
                         unordered iteration; the workspace standard is `BTreeMap` \
                         or a dense `Vec`",
                        g.name, h.via
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// Receivers that the fn visibly pre-sizes: every ident appearing in a
/// statement that also mentions `with_capacity` or `reserve`.
fn capacity_receivers(f: &AnalyzedFile, start: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    for i in start..end {
        if f.sig_kind(i) != Some(TokenKind::Ident)
            || !matches!(f.sig_text(i), "with_capacity" | "reserve")
        {
            continue;
        }
        let boundary = |t: &str| matches!(t, ";" | "{" | "}");
        let lo = (start..i)
            .rev()
            .find(|&j| boundary(f.sig_text(j)))
            .map_or(start, |j| j + 1);
        let hi = (i..end).find(|&j| boundary(f.sig_text(j))).unwrap_or(end);
        for j in lo..hi {
            if f.sig_kind(j) == Some(TokenKind::Ident) {
                let t = f.sig_text(j).to_owned();
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// `true` for `name()` / `name::<T>()` — a call with an empty argument
/// list, turbofish tolerated.
fn no_arg_call_after(f: &AnalyzedFile, i: usize) -> bool {
    let mut j = i + 1;
    if f.sig_text(j) == ":" && f.sig_text(j + 1) == ":" && f.sig_text(j + 2) == "<" {
        let mut depth = 0i64;
        let mut k = j + 2;
        while k < f.sig.len() {
            match f.sig_text(k) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j = k + 1;
    }
    f.sig_text(j) == "(" && f.sig_text(j + 1) == ")"
}

/// The path segment before ident `i`, if `i` is preceded by `Qual::`.
fn path_qualifier(f: &AnalyzedFile, i: usize) -> Option<String> {
    if i >= 3 && f.sig_text(i - 1) == ":" && f.sig_text(i - 2) == ":" {
        let q = f.sig_tok(i - 3)?;
        if matches!(q.kind, TokenKind::Ident | TokenKind::RawIdent) {
            return Some(q.text(&f.src).to_owned());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::{active_diagnostics, raw_diagnostics, AnalyzedFile};
    use super::{parse_registry, ConfEntry};

    // A path no hot_entries.conf line names, so fixture runs see marker
    // entries only (registry entries check against their own files).
    const KERNEL: &str = "crates/core/src/kernel_fixture.rs";

    /// Full pipeline (marker-based entries; no registry).
    fn perf(path: &str, src: &str) -> Vec<super::super::Diagnostic> {
        active_diagnostics(&[AnalyzedFile::build(path, src)])
    }

    #[test]
    fn registry_parses_and_files_exist_in_tree() {
        let reg = parse_registry();
        assert!(reg.len() >= 8, "registry lost entries: {reg:?}");
        let root = super::super::workspace_root().expect("workspace root");
        for e in &reg {
            assert!(
                root.join(&e.file).is_file(),
                "hot_entries.conf names a missing file: {}",
                e.file
            );
        }
    }

    #[test]
    fn allocation_in_hot_loop_flags_with_file_line_and_rank() {
        let src = "\
// xtask: hot
fn kernel(xs: &[u64]) {
    for x in xs {
        let v = Vec::new();
        use_it(v, x);
    }
}
";
        let diags = perf(KERNEL, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "hot-path-alloc");
        assert_eq!(diags[0].file, KERNEL);
        assert_eq!(diags[0].line, 4);
        assert_eq!(diags[0].rank, 1);
    }

    #[test]
    fn depth_propagates_through_the_call_graph_and_ranks_deepest_first() {
        // helper() is called from inside a double loop, so its single-loop
        // allocation ranks at effective depth 3; the caller's own depth-1
        // allocation ranks 1 and sorts after it.
        let src = "\
// xtask: hot
fn kernel(xs: &[u64]) {
    for x in xs {
        let v = vec![0; 4];
        for y in xs {
            helper(x, y);
        }
    }
}
fn helper(a: &u64, b: &u64) {
    for _ in 0..4 {
        let s = format!(\"{a}{b}\");
        drop(s);
    }
}
";
        let diags = perf(KERNEL, src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].rank, 3, "deepest finding first: {diags:?}");
        assert!(diags[0].message.contains("format!"));
        assert!(diags[0].message.contains("via `kernel`"));
        assert_eq!(diags[1].rank, 1);
    }

    #[test]
    fn straight_line_allocation_in_a_hot_fn_is_fine() {
        let src = "\
// xtask: hot
fn kernel(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len());
    out.extend(xs.iter().copied());
    out
}
";
        assert!(perf(KERNEL, src).is_empty());
    }

    #[test]
    fn push_without_capacity_flags_but_presized_receiver_is_exempt() {
        let src = "\
// xtask: hot
fn kernel(xs: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut sized = Vec::with_capacity(xs.len());
    let mut unsized_v = Vec::with_capacity(0);
    for &x in xs {
        sized.push(x);
        grown.push(x);
    }
    (sized, unsized_v)
}
";
        let diags = perf(KERNEL, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`grown.push"));
    }

    #[test]
    fn clone_collect_and_hashmap_rules_fire() {
        let src = "\
// xtask: hot
fn kernel(xs: &[Thing]) {
    let m = HashMap::new();
    for x in xs {
        let a = x.clone();
        let b: Vec<u8> = x.bytes().collect();
        sink(a, b, &m);
    }
}
";
        let rules: Vec<_> = perf(KERNEL, src)
            .iter()
            .map(|d| d.message.split('`').nth(1).unwrap_or_default().to_owned())
            .collect();
        assert!(rules.iter().any(|m| m.contains("clone")), "{rules:?}");
        assert!(rules.iter().any(|m| m.contains("collect")), "{rules:?}");
        assert!(rules.iter().any(|m| m.contains("HashMap")), "{rules:?}");
    }

    #[test]
    fn waived_hit_is_suppressed_and_unmarked_code_is_never_scanned() {
        let src = "\
// xtask: hot
fn kernel(xs: &[u64]) {
    for x in xs {
        let v = x.to_vec(); // xtask: allow(hot-path-alloc) — copy is the contract
        drop(v);
    }
}
fn cold(xs: &[u64]) -> Vec<u64> {
    xs.iter().map(|x| x + 1).collect()
}
";
        assert!(perf(KERNEL, src).is_empty());
    }

    #[test]
    fn iterator_map_adapter_never_marks_udf_map_hot() {
        // The receiver of `.map(…)` is an iterator chain, which receiver
        // typing refuses to resolve — so the allocating UDF named `map`
        // below never joins the hot set. This is the fixture that lets
        // the old std-prelude method denylist stay deleted.
        let src = "\
// xtask: hot
fn kernel(xs: &[u64]) -> u64 {
    let mut acc = 0;
    for chunk in xs.chunks(8) {
        acc += chunk.iter().map(|x| x + 1).sum::<u64>();
    }
    acc
}
struct M;
impl MapTask for M {
    fn map(&mut self, xs: &[u64]) {
        for _ in xs {
            let v = Vec::new();
            drop(v);
        }
    }
}
";
        assert!(perf(KERNEL, src).is_empty());
    }

    #[test]
    fn typed_receiver_method_calls_do_propagate_heat() {
        // The inverse of the fixture above: when the receiver IS typed,
        // the method edge exists and heat flows through it.
        let src = "\
struct M;
impl MapTask for M {
    fn map(&mut self, xs: &[u64]) {
        for _ in xs {
            let v = Vec::new();
            drop(v);
        }
    }
}
// xtask: hot
fn kernel(m: &mut M, xs: &[u64]) {
    m.map(xs);
}
";
        let diags = perf(KERNEL, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Vec::new()"));
    }

    #[test]
    fn cross_crate_callee_of_hot_kernel_is_scanned() {
        // A hot `core` kernel calling an allocating `skymr_common` helper
        // through a `use` import: the old intra-crate-name graph missed
        // this; the resolved graph must not.
        let kernel = "\
use skymr_common::cmp_fixture::compare_all;
// xtask: hot
fn kernel(xs: &[u64]) {
    for w in xs.chunks(2) {
        compare_all(w);
    }
}
";
        let helper = "\
pub fn compare_all(w: &[u64]) {
    for _ in w {
        let scratch = Vec::new();
        drop(scratch);
    }
}
";
        let files = [
            AnalyzedFile::build(KERNEL, kernel),
            AnalyzedFile::build("crates/common/src/cmp_fixture.rs", helper),
        ];
        let raw = raw_diagnostics(&files);
        assert_eq!(raw.len(), 1, "{raw:?}");
        assert_eq!(raw[0].file, "crates/common/src/cmp_fixture.rs");
        assert_eq!(raw[0].rank, 2, "kernel loop + helper loop");
        assert!(raw[0].message.contains("via `kernel`"));
    }

    #[test]
    fn registry_entry_for_missing_fn_is_an_error() {
        let f = AnalyzedFile::build(KERNEL, "fn present() {}\n");
        let files = [f];
        let ws = super::super::resolve::Workspace::build(&files);
        let registry = [ConfEntry {
            file: KERNEL.to_owned(),
            name: "vanished".to_owned(),
            line: 7,
        }];
        let diags = super::check_with_registry(&ws, &registry);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/xtask/hot_entries.conf");
        assert_eq!(diags[0].line, 7);
        assert!(diags[0].message.contains("vanished"));
    }

    #[test]
    fn dangling_hot_marker_is_an_error() {
        let src = "// xtask: hot\nconst N: usize = 4;\n\n\n\nfn far_away() {}\n";
        let diags = perf(KERNEL, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("dangling"));
    }
}
