//! Workspace-wide name resolution: the resolved symbol graph behind every
//! graph pass.
//!
//! The PR-1..6 passes resolved calls by bare name inside one crate, which
//! forced a std-prelude method denylist (a workspace full of MapReduce
//! UDFs literally named `map` would otherwise alias every
//! `window.into_iter().map(…)`) and stopped reachability at crate edges.
//! This module replaces that with real — if lightweight — resolution:
//!
//! 1. **Module tree**: each file's position (`crates/<dir>/src/…`, with
//!    `lib.rs`/`main.rs` as the crate root, `foo.rs`/`foo/mod.rs` as
//!    module `foo`) plus the inline `mod` path recorded by the parser
//!    gives every item a `(crate, module-path)` address. Harness files
//!    (`tests/`, `benches/`, `examples/`, `src/bin/`) are their own leaf
//!    crates, exactly as cargo compiles them.
//! 2. **`use` resolution**: per-file use-maps (alias → absolute path,
//!    groups flattened, `as` aliases honored, `crate`/`self`/`super`
//!    prefixes folded against the file's own address) resolve imported
//!    free fns and de-alias imported type names.
//! 3. **Receiver typing**: method calls resolve only when the receiver's
//!    type is statically evident — `self` (the impl's self type),
//!    `self.field` (struct field types), a typed parameter, or a local
//!    `let x: T = …` / `let x = T::new(…)` / `let x = T { … }` binding.
//!    An unknown receiver produces **no edge**: `.map(…)` on an iterator
//!    chain can never alias a MapReduce `map` UDF, soundly replacing the
//!    old denylist.
//!
//! The product is [`Workspace`]: one node per `fn` and resolved call edges
//! `(call-index, callee)` per node — shared by `hot-path-alloc` and
//! `clock-discipline`. Free calls fall back conservatively: enclosing-module
//! scope, then the use-map, then a same-crate match, then a
//! workspace-unique match; anything still ambiguous resolves to nothing
//! rather than to everything.

use std::collections::BTreeMap;

use super::AnalyzedFile;
use crate::lexer::TokenKind;
use crate::parse::FnInfo;

/// Index into [`Workspace::nodes`].
pub type NodeId = usize;

/// One `fn` in the workspace graph.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Index into the file list the workspace was built from.
    pub file: usize,
    /// Index into that file's [`crate::parse::FileModel::fns`].
    pub func: usize,
}

/// The resolved symbol graph over one file set.
pub struct Workspace<'a> {
    files: &'a [AnalyzedFile],
    /// Every fn (test fns and bodiless decls included; passes filter).
    pub nodes: Vec<Node>,
    /// Resolved call edges per node: `(index into FnInfo::calls, callee)`.
    edges: Vec<Vec<(usize, NodeId)>>,
    /// `(crate key, module path)` per file.
    file_addr: Vec<(String, Vec<String>)>,
}

/// The import ident each `crates/<dir>` crate is linked under. The core
/// crate's package is plain `skymr`; everything else is `skymr-<dir>`.
fn crate_key(dir: &str) -> String {
    match dir {
        "core" => "skymr".to_owned(),
        other => format!("skymr_{}", other.replace('-', "_")),
    }
}

/// `(crate key, module path)` of a workspace-relative file path.
///
/// Harness files — integration tests, benches, examples, `src/bin` —
/// compile as their own root crates, keyed by path so they never collide.
pub fn file_address(path: &str) -> (String, Vec<String>) {
    let segs: Vec<&str> = path.split('/').collect();
    let module_of = |rest: &[&str]| -> Vec<String> {
        let mut module: Vec<String> = rest
            .iter()
            .map(|s| s.trim_end_matches(".rs").to_owned())
            .collect();
        if module.last().is_some_and(|m| m == "mod") {
            module.pop();
        }
        module
    };
    if segs.len() >= 4 && segs[0] == "crates" && segs[2] == "src" {
        let rest = &segs[3..];
        if rest == ["lib.rs"] || rest == ["main.rs"] {
            return (crate_key(segs[1]), Vec::new());
        }
        if rest[0] == "bin" {
            return (format!("bin:{path}"), Vec::new());
        }
        return (crate_key(segs[1]), module_of(rest));
    }
    if segs.len() >= 4 && segs[0] == "crates" && matches!(segs[2], "tests" | "benches" | "examples")
    {
        return (format!("harness:{path}"), Vec::new());
    }
    if segs.len() == 2 && matches!(segs[0], "tests" | "examples") {
        return (format!("harness:{path}"), Vec::new());
    }
    (format!("file:{path}"), Vec::new())
}

/// `true` for files cargo compiles as test/bench/example harnesses (their
/// UDF impls are fixtures, not engine entry points).
pub fn is_harness_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.contains("/src/bin/")
}

impl<'a> Workspace<'a> {
    /// Builds the resolved graph over `files`.
    pub fn build(files: &'a [AnalyzedFile]) -> Self {
        let file_addr: Vec<(String, Vec<String>)> =
            files.iter().map(|f| file_address(&f.path)).collect();

        // Flatten fns to nodes.
        let mut nodes = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for gi in 0..f.model.fns.len() {
                nodes.push(Node { file: fi, func: gi });
            }
        }

        let mut ws = Self {
            files,
            nodes,
            edges: Vec::new(),
            file_addr,
        };
        let index = SymbolIndex::build(&ws);
        ws.edges = ws
            .nodes
            .iter()
            .enumerate()
            .map(|(id, _)| ws.resolve_node(id, &index))
            .collect();
        ws
    }

    /// The file set the graph was built from.
    pub fn files(&self) -> &'a [AnalyzedFile] {
        self.files
    }

    /// The file a node lives in.
    pub fn file_of(&self, id: NodeId) -> &'a AnalyzedFile {
        &self.files[self.nodes[id].file]
    }

    /// The node's parsed fn.
    pub fn fn_info(&self, id: NodeId) -> &'a FnInfo {
        let n = self.nodes[id];
        &self.files[n.file].model.fns[n.func]
    }

    /// Resolved `(call index, callee)` edges of a node.
    pub fn callees(&self, id: NodeId) -> &[(usize, NodeId)] {
        &self.edges[id]
    }

    /// Crate key of a node's file.
    pub fn crate_of(&self, id: NodeId) -> &str {
        &self.file_addr[self.nodes[id].file].0
    }

    /// The impl self type a node's fn is defined on, if any.
    pub fn self_ty(&self, id: NodeId) -> Option<&'a str> {
        let n = self.nodes[id];
        let f = &self.files[n.file];
        f.model.fns[n.func]
            .impl_idx
            .map(|ii| f.model.impls[ii].self_ty.as_str())
    }

    /// Full module path of a node: file address + inline `mod` path.
    fn module_of(&self, id: NodeId) -> Vec<String> {
        let n = self.nodes[id];
        let mut m = self.file_addr[n.file].1.clone();
        m.extend(self.fn_info(id).module.iter().cloned());
        m
    }

    /// Resolves a path written in `file`'s module `module` (as it appears
    /// in a `use` or qualifier) to an absolute `(crate, module path)`,
    /// with the final segment still attached. `None` for external crates.
    fn resolve_path_abs(
        &self,
        file: usize,
        module: &[String],
        path: &[String],
    ) -> Option<(String, Vec<String>)> {
        let (krate, _) = &self.file_addr[file];
        let mut segs = path.to_vec();
        if segs.is_empty() {
            return None;
        }
        match segs[0].as_str() {
            "crate" => Some((krate.clone(), segs.split_off(1))),
            "self" => {
                let mut m = module.to_vec();
                m.extend(segs.split_off(1));
                Some((krate.clone(), m))
            }
            "super" => {
                let mut m = module.to_vec();
                let mut k = 0;
                while segs.get(k).is_some_and(|s| s == "super") {
                    m.pop()?;
                    k += 1;
                }
                m.extend(segs.split_off(k));
                Some((krate.clone(), m))
            }
            first if self.file_addr.iter().any(|(c, _)| c == first) => {
                Some((first.to_owned(), segs.split_off(1)))
            }
            _ => None, // std / external: not ours to resolve
        }
    }

    /// The use declarations visible from `module` in `file`: file-root
    /// uses plus those of every enclosing inline mod.
    fn uses_in_scope(
        &self,
        file: usize,
        module: &[String],
    ) -> impl Iterator<Item = &crate::parse::UseDecl> {
        let file_mod_len = self.file_addr[file].1.len();
        let inline: Vec<String> = module.iter().skip(file_mod_len).cloned().collect();
        self.files[file]
            .model
            .uses
            .iter()
            .filter(move |u| inline.starts_with(&u.module))
    }

    /// De-aliases a type name through the file's use map (`use x::Foo as
    /// Bar` makes `Bar` mean `Foo`); identity when not aliased.
    fn dealias_type(&self, file: usize, module: &[String], name: &str) -> String {
        for u in self.uses_in_scope(file, module) {
            if !u.is_glob && u.alias == name {
                if let Some(last) = u.path.last() {
                    if last != name {
                        return last.clone();
                    }
                }
            }
        }
        name.to_owned()
    }

    /// Resolves every call of node `id` against the symbol index.
    fn resolve_node(&self, id: NodeId, index: &SymbolIndex) -> Vec<(usize, NodeId)> {
        let n = self.nodes[id];
        let f = &self.files[n.file];
        let g = &f.model.fns[n.func];
        if g.body.is_none() {
            return Vec::new();
        }
        let module = self.module_of(id);
        let krate = self.file_addr[n.file].0.clone();
        let mut out = Vec::new();
        for (ci, call) in g.calls.iter().enumerate() {
            if call.is_macro {
                continue;
            }
            let targets = if call.is_method {
                match self.receiver_type(id, call) {
                    Some(ty) => {
                        let ty = self.dealias_type(n.file, &module, &ty);
                        index.methods(&ty, &call.name)
                    }
                    None => Vec::new(), // unknown receiver: no edge, by design
                }
            } else if let Some(q) = &call.qualifier {
                self.resolve_qualified(id, &krate, &module, q, &call.name, index)
            } else {
                self.resolve_free(n.file, &krate, &module, &call.name, index)
            };
            for t in targets {
                if t != id {
                    out.push((ci, t));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Resolves a `Qual::name(…)` call.
    fn resolve_qualified(
        &self,
        id: NodeId,
        krate: &str,
        module: &[String],
        qual: &str,
        name: &str,
        index: &SymbolIndex,
    ) -> Vec<NodeId> {
        let file = self.nodes[id].file;
        // `Self::name` and `Type::name`: associated fns via the impl index.
        if qual == "Self" {
            return match self.self_ty(id) {
                Some(ty) => index.methods(ty, name),
                None => Vec::new(),
            };
        }
        if qual.chars().next().is_some_and(char::is_uppercase) {
            let ty = self.dealias_type(file, module, qual);
            return index.methods(&ty, name);
        }
        // Module qualifiers.
        let by_path = |krate: &str, module: &[String]| index.free(krate, module, name);
        match qual {
            "crate" => return by_path(krate, &[]),
            "self" => return by_path(krate, module),
            "super" => {
                let mut m = module.to_vec();
                m.pop();
                return by_path(krate, &m);
            }
            _ => {}
        }
        // An imported module alias: `use skymr_common::dominance;` then
        // `dominance::dominates(…)`.
        for u in self.uses_in_scope(file, module) {
            if !u.is_glob && u.alias == qual {
                if let Some((k, m)) = self.resolve_path_abs(file, module, &u.path) {
                    let hits = by_path(&k, &m);
                    if !hits.is_empty() {
                        return hits;
                    }
                }
            }
        }
        // A child module of the current module, or a crate-root module.
        let mut child = module.to_vec();
        child.push(qual.to_owned());
        let hits = by_path(krate, &child);
        if !hits.is_empty() {
            return hits;
        }
        let hits = by_path(krate, &[qual.to_owned()]);
        if !hits.is_empty() {
            return hits;
        }
        // The qualifier is itself a crate key (`skymr_common::init(…)`).
        if self.file_addr.iter().any(|(c, _)| c == qual) {
            let hits = by_path(qual, &[]);
            if !hits.is_empty() {
                return hits;
            }
        }
        // Last resort: a unique workspace module whose last segment is the
        // qualifier and which defines `name`.
        index.free_via_module_tail(qual, name)
    }

    /// Resolves a plain `name(…)` call.
    fn resolve_free(
        &self,
        file: usize,
        krate: &str,
        module: &[String],
        name: &str,
        index: &SymbolIndex,
    ) -> Vec<NodeId> {
        // Enclosing module chain, innermost first.
        for k in (0..=module.len()).rev() {
            let hits = index.free(krate, &module[..k], name);
            if !hits.is_empty() {
                return hits;
            }
        }
        // Explicit import, alias included.
        for u in self.uses_in_scope(file, module) {
            if u.is_glob || u.alias != name {
                continue;
            }
            let Some(target) = u.path.last() else {
                continue;
            };
            let mut base = u.path.clone();
            base.pop();
            if let Some((k, m)) = self.resolve_path_abs(file, module, &base) {
                let hits = index.free(&k, &m, target);
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        // Glob imports.
        for u in self.uses_in_scope(file, module) {
            if !u.is_glob {
                continue;
            }
            if let Some((k, m)) = self.resolve_path_abs(file, module, &u.path) {
                let hits = index.free(&k, &m, name);
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        // Same-crate, then workspace-unique fallbacks.
        let hits = index.free_in_crate(krate, name);
        if !hits.is_empty() {
            return hits;
        }
        index.free_unique(name)
    }

    /// Determines the receiver type of a `.name(…)` call, or `None` when
    /// it is not statically evident.
    fn receiver_type(&self, id: NodeId, call: &crate::parse::Call) -> Option<String> {
        let n = self.nodes[id];
        let f = &self.files[n.file];
        let g = &f.model.fns[n.func];
        let i = call.sig_idx;
        if i < 2 || f.sig_text(i - 1) != "." {
            return None;
        }
        let recv = i - 2;
        if !matches!(
            f.sig_kind(recv),
            Some(TokenKind::Ident | TokenKind::RawIdent)
        ) {
            return None; // `)` / `]` / literal: a chain or complex expr
        }
        let recv_name = f.sig_text(recv);
        let before = (recv > 0).then(|| f.sig_text(recv - 1));
        if before == Some(".") {
            // Only `self.field.method(…)` is typed; longer chains are not.
            if recv >= 2 && f.sig_text(recv - 2) == "self" {
                let is_chain_head = recv < 3 || f.sig_text(recv - 3) != ".";
                if is_chain_head {
                    let self_ty = self.self_ty(id)?;
                    return self.field_type(id, self_ty, recv_name);
                }
            }
            return None;
        }
        if recv_name == "self" {
            return self.self_ty(id).map(str::to_owned);
        }
        // A typed parameter.
        if let Some((_, ty)) = g.params.iter().rfind(|(p, _)| p == recv_name) {
            if !ty.is_empty() {
                return Some(ty.clone());
            }
        }
        // The latest `let [mut] x …` binding before the call site.
        let (start, _) = f.sig_range(g.body?);
        self.let_binding_type(f, start, i, recv_name)
    }

    /// Type of `field` on the struct named `self_ty`. A struct declared in
    /// the calling node's own crate and module wins outright (same-name
    /// structs in other crates cannot shadow the local one); otherwise the
    /// workspace must define exactly one consistent answer.
    fn field_type(&self, id: NodeId, self_ty: &str, field: &str) -> Option<String> {
        let caller_crate = self.crate_of(id);
        let caller_module = &self.fn_info(id).module;
        let mut local: Option<String> = None;
        let mut global: Option<String> = None;
        for (fi, f) in self.files.iter().enumerate() {
            for s in &f.model.structs {
                if s.name != self_ty {
                    continue;
                }
                let in_scope = self.file_addr[fi].0 == caller_crate && &s.module == caller_module;
                for (fname, fty) in &s.fields {
                    if fname == field && !fty.is_empty() {
                        if in_scope {
                            match &local {
                                Some(prev) if prev != fty => return None, // ambiguous
                                _ => local = Some(fty.clone()),
                            }
                        }
                        match &global {
                            Some(prev) if prev != fty => global = Some(String::new()),
                            Some(_) => {}
                            None => global = Some(fty.clone()),
                        }
                    }
                }
            }
        }
        local.or_else(|| global.filter(|g| !g.is_empty()))
    }

    /// Scans `[start, before)` for the last `let [mut] name …` binding of
    /// `name` whose type is evident: an explicit `: T` annotation, a
    /// `= T::ctor(…)` associated-fn call, or a `= T { … }` struct literal.
    fn let_binding_type(
        &self,
        f: &AnalyzedFile,
        start: usize,
        before: usize,
        name: &str,
    ) -> Option<String> {
        let mut found = None;
        let mut i = start;
        while i + 2 < before {
            if f.sig_text(i) != "let" {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if f.sig_text(j) == "mut" {
                j += 1;
            }
            if f.sig_text(j) != name {
                i += 1;
                continue;
            }
            let after = j + 1;
            if f.sig_text(after) == ":" && f.sig_text(after + 1) != ":" {
                // `let x: path::to::T<…> = …` — last path segment before
                // `<`, `=`, or `;`.
                let mut last = None;
                let mut k = after + 1;
                while k < before {
                    match f.sig_kind(k) {
                        Some(TokenKind::Ident | TokenKind::RawIdent)
                            if !matches!(f.sig_text(k), "dyn" | "impl" | "mut") =>
                        {
                            last = Some(f.sig_text(k).to_owned());
                            if f.sig_text(k + 1) == ":" && f.sig_text(k + 2) == ":" {
                                k += 3;
                                continue;
                            }
                            break;
                        }
                        Some(TokenKind::Punct) if matches!(f.sig_text(k), "&") => k += 1,
                        Some(TokenKind::Lifetime) => k += 1,
                        _ => break,
                    }
                }
                if last.is_some() {
                    found = last;
                }
            } else if f.sig_text(after) == "=" {
                let head = after + 1;
                let is_ty = f
                    .sig_text(head)
                    .chars()
                    .next()
                    .is_some_and(char::is_uppercase)
                    && matches!(
                        f.sig_kind(head),
                        Some(TokenKind::Ident | TokenKind::RawIdent)
                    );
                if is_ty {
                    let next = f.sig_text(head + 1);
                    let assoc = next == ":" && f.sig_text(head + 2) == ":";
                    let literal = next == "{";
                    if assoc || literal {
                        // Walk `A::B::ctor(…)` to the segment before the
                        // final ctor name.
                        if assoc {
                            let mut ty = f.sig_text(head).to_owned();
                            let mut k = head;
                            while f.sig_text(k + 1) == ":"
                                && f.sig_text(k + 2) == ":"
                                && matches!(
                                    f.sig_kind(k + 3),
                                    Some(TokenKind::Ident | TokenKind::RawIdent)
                                )
                            {
                                if f.sig_text(k + 3)
                                    .chars()
                                    .next()
                                    .is_some_and(char::is_uppercase)
                                {
                                    ty = f.sig_text(k + 3).to_owned();
                                }
                                k += 3;
                            }
                            found = Some(ty);
                        } else {
                            found = Some(f.sig_text(head).to_owned());
                        }
                    }
                }
            }
            i = j + 1;
        }
        found
    }
}

/// Free-fn and method lookup tables over one [`Workspace`].
struct SymbolIndex {
    /// `(crate, module path, name)` → free fns.
    by_path: BTreeMap<(String, Vec<String>, String), Vec<NodeId>>,
    /// `(crate, name)` → free fns anywhere in the crate.
    by_crate: BTreeMap<(String, String), Vec<NodeId>>,
    /// `name` → free fns anywhere.
    by_name: BTreeMap<String, Vec<NodeId>>,
    /// `(impl self type, method name)` → impl fns.
    by_method: BTreeMap<(String, String), Vec<NodeId>>,
}

impl SymbolIndex {
    fn build(ws: &Workspace<'_>) -> Self {
        let mut by_path: BTreeMap<(String, Vec<String>, String), Vec<NodeId>> = BTreeMap::new();
        let mut by_crate: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        let mut by_method: BTreeMap<(String, String), Vec<NodeId>> = BTreeMap::new();
        for (id, n) in ws.nodes.iter().enumerate() {
            let f = &ws.files[n.file];
            let g = &f.model.fns[n.func];
            if g.name.is_empty() {
                continue;
            }
            if let Some(ii) = g.impl_idx {
                let ty = f.model.impls[ii].self_ty.clone();
                by_method.entry((ty, g.name.clone())).or_default().push(id);
            } else {
                let (krate, _) = &ws.file_addr[n.file];
                let module = ws.module_of(id);
                by_path
                    .entry((krate.clone(), module, g.name.clone()))
                    .or_default()
                    .push(id);
                by_crate
                    .entry((krate.clone(), g.name.clone()))
                    .or_default()
                    .push(id);
                by_name.entry(g.name.clone()).or_default().push(id);
            }
        }
        Self {
            by_path,
            by_crate,
            by_name,
            by_method,
        }
    }

    fn free(&self, krate: &str, module: &[String], name: &str) -> Vec<NodeId> {
        self.by_path
            .get(&(krate.to_owned(), module.to_vec(), name.to_owned()))
            .cloned()
            .unwrap_or_default()
    }

    fn free_in_crate(&self, krate: &str, name: &str) -> Vec<NodeId> {
        self.by_crate
            .get(&(krate.to_owned(), name.to_owned()))
            .cloned()
            .unwrap_or_default()
    }

    /// A workspace-unique free fn: exactly one definition anywhere.
    fn free_unique(&self, name: &str) -> Vec<NodeId> {
        match self.by_name.get(name) {
            Some(ids) if ids.len() == 1 => ids.clone(),
            _ => Vec::new(),
        }
    }

    /// Free fns named `name` in modules whose last segment is `tail`,
    /// provided that narrows to a single module.
    fn free_via_module_tail(&self, tail: &str, name: &str) -> Vec<NodeId> {
        let mut hits: Vec<_> = self
            .by_path
            .iter()
            .filter(|((_, m, n), _)| n == name && m.last().is_some_and(|s| s == tail))
            .collect();
        if hits.len() == 1 {
            hits.remove(0).1.clone()
        } else {
            Vec::new()
        }
    }

    fn methods(&self, ty: &str, name: &str) -> Vec<NodeId> {
        self.by_method
            .get(&(ty.to_owned(), name.to_owned()))
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::super::AnalyzedFile;
    use super::*;

    fn ws_files(sources: &[(&str, &str)]) -> Vec<AnalyzedFile> {
        sources
            .iter()
            .map(|(p, s)| AnalyzedFile::build(*p, *s))
            .collect()
    }

    /// Edge (caller fn name, callee fn name) pairs, for assertions.
    fn edge_names(ws: &Workspace<'_>) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for id in 0..ws.nodes.len() {
            for &(_, callee) in ws.callees(id) {
                out.push((ws.fn_info(id).name.clone(), ws.fn_info(callee).name.clone()));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn file_addresses_follow_cargo_layout() {
        let cases = [
            ("crates/core/src/lib.rs", "skymr", vec![]),
            ("crates/core/src/grid.rs", "skymr", vec!["grid"]),
            (
                "crates/common/src/fault/mod.rs",
                "skymr_common",
                vec!["fault"],
            ),
            (
                "crates/mapreduce/src/fault/exec.rs",
                "skymr_mapreduce",
                vec!["fault", "exec"],
            ),
        ];
        for (path, krate, module) in cases {
            let (k, m) = file_address(path);
            assert_eq!(k, krate, "{path}");
            assert_eq!(m, module, "{path}");
        }
        // Harness files are their own crates.
        let (k, m) = file_address("tests/oracle.rs");
        assert!(k.starts_with("harness:"), "{k}");
        assert!(m.is_empty());
        let (k, _) = file_address("crates/bench/benches/dominance.rs");
        assert!(k.starts_with("harness:"));
        assert!(is_harness_path("crates/bench/benches/dominance.rs"));
        assert!(is_harness_path("examples/quickstart.rs"));
        assert!(!is_harness_path("crates/core/src/local.rs"));
    }

    #[test]
    fn cross_crate_use_import_resolves_free_calls() {
        let files = ws_files(&[
            (
                "crates/common/src/dominance.rs",
                "pub fn dominates(a: &[f64], b: &[f64]) -> bool { true }\n",
            ),
            (
                "crates/core/src/local.rs",
                "use skymr_common::dominance::dominates;\n\
                 pub fn insert(a: &[f64], b: &[f64]) -> bool { dominates(a, b) }\n",
            ),
        ]);
        let ws = Workspace::build(&files);
        assert_eq!(
            edge_names(&ws),
            [("insert".to_owned(), "dominates".to_owned())]
        );
    }

    #[test]
    fn module_qualifier_via_import_alias_resolves() {
        let files = ws_files(&[
            (
                "crates/common/src/dominance.rs",
                "pub fn compare(a: u32) -> u32 { a }\n",
            ),
            (
                "crates/core/src/local.rs",
                "use skymr_common::dominance;\n\
                 pub fn go(x: u32) -> u32 { dominance::compare(x) }\n",
            ),
        ]);
        let ws = Workspace::build(&files);
        assert_eq!(edge_names(&ws), [("go".to_owned(), "compare".to_owned())]);
    }

    #[test]
    fn method_calls_resolve_only_through_receiver_types() {
        let files = ws_files(&[(
            "crates/core/src/gpsrs.rs",
            "\
struct M;
impl MapTask for M {
    fn map(&mut self, xs: &[u32]) { self.helper(xs); }
}
impl M {
    fn helper(&self, xs: &[u32]) {}
}
fn driver(m: M, xs: Vec<u32>) {
    m.map(&xs);
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
    drop(doubled);
}
",
        )]);
        let ws = Workspace::build(&files);
        let edges = edge_names(&ws);
        // `m.map(…)` on a typed param resolves to the UDF; the iterator
        // adapter `.map(…)` on a chain resolves to NOTHING.
        assert!(edges.contains(&("driver".to_owned(), "map".to_owned())));
        assert!(edges.contains(&("map".to_owned(), "helper".to_owned())));
        let map_edges = edges.iter().filter(|(_, c)| c == "map").count();
        assert_eq!(map_edges, 1, "iterator .map(…) must not alias the UDF");
    }

    #[test]
    fn let_binding_receiver_typing() {
        let files = ws_files(&[(
            "crates/core/src/grid.rs",
            "\
pub struct Grid { ppd: usize }
impl Grid {
    pub fn new(ppd: usize) -> Self { Grid { ppd } }
    pub fn partition_of(&self, x: u64) -> usize { 0 }
}
fn a() { let g = Grid::new(4); g.partition_of(9); }
fn b() { let g: Grid = make(); g.partition_of(9); }
fn c() { let g = Grid { ppd: 4 }; g.partition_of(9); }
fn d() { let g = opaque(); g.partition_of(9); }
fn make() -> Grid { Grid::new(1) }
fn opaque() -> Grid { Grid::new(1) }
",
        )]);
        let ws = Workspace::build(&files);
        let edges = edge_names(&ws);
        for caller in ["a", "b", "c"] {
            assert!(
                edges.contains(&(caller.to_owned(), "partition_of".to_owned())),
                "{caller}: {edges:?}"
            );
        }
        // `d`'s receiver comes from an untyped call: no method edge.
        assert!(!edges.contains(&("d".to_owned(), "partition_of".to_owned())));
    }

    #[test]
    fn self_field_types_resolve_through_struct_defs() {
        let files = ws_files(&[(
            "crates/mapreduce/src/job.rs",
            "\
pub struct Pool { n: usize }
impl Pool {
    pub fn run_indexed(&self, n: usize) -> usize { n }
}
pub struct Job { pool: Pool }
impl Job {
    pub fn run(&self) -> usize { self.pool.run_indexed(4) }
}
",
        )]);
        let ws = Workspace::build(&files);
        assert!(edge_names(&ws).contains(&("run".to_owned(), "run_indexed".to_owned())));
    }

    #[test]
    fn super_and_crate_qualifiers_resolve() {
        let files = ws_files(&[(
            "crates/core/src/lib.rs",
            "\
pub fn root_helper(x: u32) -> u32 { x }
mod stats {
    pub fn tally(x: u32) -> u32 { super::root_helper(x) + crate::root_helper(x) }
}
",
        )]);
        let ws = Workspace::build(&files);
        let edges = edge_names(&ws);
        assert_eq!(
            edges
                .iter()
                .filter(|(a, b)| a == "tally" && b == "root_helper")
                .count(),
            2,
            "one edge per call site: {edges:?}"
        );
    }

    #[test]
    fn aliased_imports_and_globs_resolve() {
        let files = ws_files(&[
            (
                "crates/common/src/tuple.rs",
                "pub fn parse_tuple(s: &str) -> u32 { 0 }\npub fn write_tuple(x: u32) {}\n",
            ),
            (
                "crates/core/src/io.rs",
                "use skymr_common::tuple::parse_tuple as parse;\n\
                 use skymr_common::tuple::*;\n\
                 fn load(s: &str) -> u32 { parse(s) }\n\
                 fn save(x: u32) { write_tuple(x) }\n",
            ),
        ]);
        let ws = Workspace::build(&files);
        let edges = edge_names(&ws);
        assert!(edges.contains(&("load".to_owned(), "parse_tuple".to_owned())));
        assert!(edges.contains(&("save".to_owned(), "write_tuple".to_owned())));
    }

    #[test]
    fn same_name_free_fns_in_different_crates_do_not_cross_link() {
        let files = ws_files(&[
            (
                "crates/core/src/a.rs",
                "pub fn helper() {}\npub fn go() { helper(); }\n",
            ),
            ("crates/baselines/src/b.rs", "pub fn helper() {}\n"),
        ]);
        let ws = Workspace::build(&files);
        let ids: Vec<_> = (0..ws.nodes.len())
            .filter(|&id| ws.fn_info(id).name == "go")
            .collect();
        let callees = ws.callees(ids[0]);
        assert_eq!(callees.len(), 1);
        let callee = callees[0].1;
        assert_eq!(ws.crate_of(callee), "skymr", "same-crate helper wins");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Round-trip: generate a nested `mod` tree with one target fn at
        /// a random module path and a caller importing it through a
        /// generated `use` chain; resolution must produce exactly the
        /// intended edge.
        #[test]
        fn module_tree_resolution_round_trips(
            depth in 1usize..4,
            which in 0usize..3,
            seed in 0u32..10_000,
        ) {
            let seed_name = format!("s{seed}");
            // Build `mod m0 { mod m1 { … pub fn target() {} … } }` in one
            // crate file, and a caller in another crate.
            let mods: Vec<String> = (0..depth).map(|i| format!("m{i}_{seed_name}")).collect();
            let mut def = String::new();
            for m in &mods {
                def.push_str(&format!("pub mod {m} {{\n"));
            }
            def.push_str("pub fn target() {}\n");
            for _ in &mods {
                def.push_str("}\n");
            }
            let full_path = {
                let mut p = vec!["skymr_common".to_owned(), "defs".to_owned()];
                p.extend(mods.iter().cloned());
                p.join("::")
            };
            // Three import styles: direct fn import, aliased import, and
            // a module import with a qualified call.
            let caller = match which {
                0 => format!("use {full_path}::target;\npub fn caller() {{ target(); }}\n"),
                1 => format!("use {full_path}::target as t;\npub fn caller() {{ t(); }}\n"),
                _ => {
                    let last_mod = mods.last().expect("at least one mod");
                    let parent = full_path;
                    format!("use {parent};\npub fn caller() {{ {last_mod}::target(); }}\n")
                }
            };
            let files = ws_files(&[
                ("crates/common/src/defs.rs", &def),
                ("crates/core/src/user.rs", &caller),
            ]);
            let ws = Workspace::build(&files);
            let edges = edge_names(&ws);
            assert_eq!(
                edges,
                [("caller".to_owned(), "target".to_owned())],
                "def:\n{def}\ncaller:\n{caller}"
            );
        }
    }
}
