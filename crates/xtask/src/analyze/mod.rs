//! The token-aware static analysis behind `cargo xtask analyze`.
//!
//! Every workspace `.rs` file is lexed once ([`crate::lexer`]) and parsed
//! once ([`crate::parse`]) into an [`AnalyzedFile`]; one resolved symbol
//! graph ([`resolve`]) is built over them; three rules run on that:
//!
//! * [`udf`] — `udf-determinism`: purity checks inside mapper/reducer/
//!   combiner/factory bodies and closures passed to combiner builders.
//! * [`perf`] — `hot-path-alloc`: allocation, clone, unsized-push, and
//!   hash-map findings in fns reachable from the hot entry registry,
//!   ranked by effective loop depth.
//! * [`flow`] — `clock-discipline`: wall-clock readings must stay
//!   advisory (never reach emitted pairs, the simulated clock, traces, or
//!   scheduling decisions).
//!
//! What stock tooling can state lives there instead: `clippy.toml` bans
//! `std::sync::{Mutex, RwLock}` and thread spawning outside the pool, the
//! engine crates deny `clippy::unwrap_used` / `expect_used`, and the
//! vendored `rand` has no unseeded constructor to call.
//!
//! A diagnostic can be waived for one audited line with a trailing
//! `// xtask: allow(<rule>)` comment (several rules comma-separated). A
//! waiver whose line no longer triggers the waived rule — or that names a
//! rule that does not exist — is itself reported, as `stale-waiver`, so
//! audited exceptions cannot rot silently.

pub mod flow;
pub mod perf;
pub mod resolve;
pub mod udf;

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{parse, FileModel};

// ---------------------------------------------------------------------
// Diagnostics.
// ---------------------------------------------------------------------

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `udf-determinism`.
    pub rule: &'static str,
    /// Severity rank; perf findings carry their effective loop depth so
    /// the deepest-nested problem sorts first. 0 for every other rule.
    pub rank: u32,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Output rendering for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// `file:line: [rule] message` lines plus a summary (the default).
    #[default]
    Text,
    /// A machine-readable JSON array of diagnostic objects.
    Json,
    /// GitHub Actions workflow commands (`::error file=…,line=…::…`)
    /// so diagnostics land as inline PR annotations.
    Github,
}

impl Format {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "text" => Some(Self::Text),
            "json" => Some(Self::Json),
            "github" => Some(Self::Github),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Analyzed files.
// ---------------------------------------------------------------------

/// One source file with its lexed and parsed artifacts, shared by all
/// passes.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The raw source text.
    pub src: String,
    /// Lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Items, impls, test regions, call sites.
    pub model: FileModel,
}

impl AnalyzedFile {
    /// Lexes and parses `src`.
    pub fn build(path: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let tokens = lex(&src);
        let sig = (0..tokens.len())
            .filter(|&i| !tokens[i].is_trivia())
            .collect();
        let model = parse(&src, &tokens);
        Self {
            path: path.into(),
            src,
            tokens,
            sig,
            model,
        }
    }

    /// Text of the `i`-th significant token, or `""` past the end.
    pub fn sig_text(&self, i: usize) -> &str {
        self.sig
            .get(i)
            .map_or("", |&j| self.tokens[j].text(&self.src))
    }

    /// Kind of the `i`-th significant token.
    pub fn sig_kind(&self, i: usize) -> Option<TokenKind> {
        self.sig.get(i).map(|&j| self.tokens[j].kind)
    }

    /// The `i`-th significant token itself.
    pub fn sig_tok(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&j| &self.tokens[j])
    }

    /// Significant-token index range `[start, end)` covering the raw token
    /// range `body` (as stored in [`crate::parse::FnInfo::body`]).
    pub fn sig_range(&self, body: (usize, usize)) -> (usize, usize) {
        let start = self.sig.partition_point(|&j| j < body.0);
        let end = self.sig.partition_point(|&j| j <= body.1);
        (start, end)
    }

    /// Given the significant index of an opening delimiter, returns the
    /// significant index one past its matching closer.
    pub fn sig_balanced_end(&self, open_at: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i64;
        let mut i = open_at;
        while i < self.sig.len() {
            let t = self.sig_text(i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }
}

// ---------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------

/// One `// xtask: allow(rule)` waiver for one rule on one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the waiver comment sits on (and waives).
    pub line: usize,
    /// The waived rule name.
    pub rule: String,
}

/// Extracts waivers from a file's comment tokens. Only real comments
/// count — a waiver spelled inside a string literal is inert, which the
/// old line-based checker could not guarantee.
pub fn collect_waivers(file: &AnalyzedFile) -> Vec<Waiver> {
    const NEEDLE: &str = "xtask: allow(";
    let mut out = Vec::new();
    for t in &file.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(&file.src);
        let Some(at) = text.find(NEEDLE) else {
            continue;
        };
        let rest = &text[at + NEEDLE.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push(Waiver {
                    file: file.path.clone(),
                    line: t.line,
                    rule: rule.to_owned(),
                });
            }
        }
    }
    out
}

/// Splits raw diagnostics into (active, waived) under `waivers`.
pub fn apply_waivers(
    raw: Vec<Diagnostic>,
    waivers: &[Waiver],
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    raw.into_iter().partition(|d| {
        !waivers
            .iter()
            .any(|w| w.file == d.file && w.line == d.line && w.rule == d.rule)
    })
}

/// Waivers that no raw diagnostic matches — audited exceptions whose
/// justification has expired.
pub fn stale_waivers(waivers: &[Waiver], raw: &[Diagnostic]) -> Vec<Waiver> {
    waivers
        .iter()
        .filter(|w| {
            !raw.iter()
                .any(|d| d.file == w.file && d.line == w.line && d.rule == w.rule)
        })
        .cloned()
        .collect()
}

// ---------------------------------------------------------------------
// Rule scoping helpers shared by the passes.
// ---------------------------------------------------------------------

/// Trait names whose impl blocks are user-defined functions under the
/// MapReduce contract: their bodies must be pure, deterministic functions
/// of their input.
pub const UDF_TRAITS: &[&str] = &[
    "MapTask",
    "ReduceTask",
    "Combiner",
    "MapFactory",
    "ReduceFactory",
];

/// `true` for non-test sources of the two engine crates.
pub fn in_engine_crates(path: &str) -> bool {
    path.starts_with("crates/mapreduce/src/") || path.starts_with("crates/core/src/")
}

// ---------------------------------------------------------------------
// Pass orchestration.
// ---------------------------------------------------------------------

/// Rule name of the diagnostic a waiver that matches nothing becomes.
pub const STALE_RULE: &str = "stale-waiver";

/// Runs the three rules over `files`, returning raw (pre-waiver)
/// diagnostics sorted by rank (deepest first), then file, line, rule.
/// Only `hot-path-alloc` ranks above 0.
pub fn raw_diagnostics(files: &[AnalyzedFile]) -> Vec<Diagnostic> {
    // One resolved symbol graph, shared by both graph passes.
    let ws = resolve::Workspace::build(files);
    let mut out: Vec<Diagnostic> = files.iter().flat_map(udf::check_file).collect();
    out.extend(perf::check(&ws));
    out.extend(flow::check(&ws));
    out.sort_by(|a, b| {
        b.rank.cmp(&a.rank).then_with(|| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        })
    });
    out.dedup();
    out
}

/// What `cargo xtask analyze` reports for `files`: every unwaived
/// diagnostic, then one `stale-waiver` per waiver that suppressed nothing.
pub fn active_diagnostics(files: &[AnalyzedFile]) -> Vec<Diagnostic> {
    let waivers: Vec<Waiver> = files.iter().flat_map(collect_waivers).collect();
    let raw = raw_diagnostics(files);
    let stale = stale_waivers(&waivers, &raw);
    let (mut active, _waived) = apply_waivers(raw, &waivers);
    active.extend(stale.into_iter().map(|w| Diagnostic {
        file: w.file,
        line: w.line,
        rule: STALE_RULE,
        rank: 0,
        message: format!(
            "waiver for `{}`, which this line does not trigger — remove the comment",
            w.rule
        ),
    }));
    active
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Directories never scanned (vendored stand-ins, build output, VCS), plus
/// this crate itself: its rule tables necessarily spell out every banned
/// pattern, and its behavior is covered by unit tests instead.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".claude"];
const SKIP_PREFIXES: &[&str] = &["crates/xtask"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if SKIP_DIRS.contains(&name.as_ref())
                || SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p))
            {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if rel_str.ends_with(".rs") && !SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p))
        {
            out.push(path);
        }
    }
}

pub(crate) fn workspace_root() -> Option<PathBuf> {
    // crates/xtask -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .parent()
        .map(Path::to_path_buf)
}

/// Loads and analyzes every workspace source file.
fn load_workspace() -> Option<Vec<AnalyzedFile>> {
    let root = workspace_root()?;
    let mut paths = Vec::new();
    collect_rs_files(&root, &root, &mut paths);
    paths.sort();
    let mut files = Vec::new();
    for p in &paths {
        let Ok(src) = std::fs::read_to_string(p) else {
            continue;
        };
        let rel = p
            .strip_prefix(&root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(AnalyzedFile::build(rel, src));
    }
    Some(files)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn render(diags: &[Diagnostic], format: Format, files_scanned: usize) {
    match format {
        Format::Text => {
            for d in diags {
                println!("{d}");
            }
            if diags.is_empty() {
                println!("xtask analyze: OK ({files_scanned} files scanned)");
            } else {
                println!(
                    "xtask analyze: {} violation(s) across {files_scanned} file(s) scanned",
                    diags.len()
                );
            }
        }
        Format::Json => {
            let mut out = String::from("[");
            for (i, d) in diags.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"rank\":{},\"message\":\"{}\"}}",
                    json_escape(&d.file),
                    d.line,
                    json_escape(d.rule),
                    d.rank,
                    json_escape(&d.message)
                ));
            }
            out.push(']');
            println!("{out}");
        }
        Format::Github => {
            for d in diags {
                // Workflow commands take properties before `::` and the
                // message after; messages here are single-line by
                // construction so no %0A escaping is needed.
                println!(
                    "::error file={},line={}::[{}] {}",
                    d.file, d.line, d.rule, d.message
                );
            }
            if diags.is_empty() {
                println!("::notice::xtask analyze: OK ({files_scanned} files scanned)");
            }
        }
    }
}

/// Parses `analyze`'s trailing CLI arguments — `--format <f>` or
/// `--format=<f>` is the only option; returns `Err` with a message for
/// anything else.
pub fn parse_format(args: &[String]) -> Result<Format, String> {
    let mut format = Format::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = match a.as_str() {
            "--format" => it.next().ok_or("--format needs a value")?,
            other => other
                .strip_prefix("--format=")
                .ok_or_else(|| format!("unknown option `{other}`"))?,
        };
        format =
            Format::parse(v).ok_or_else(|| format!("unknown format `{v}` (text|json|github)"))?;
    }
    Ok(format)
}

/// Entry point for `cargo xtask analyze`.
pub fn run(format: Format) -> ExitCode {
    let Some(files) = load_workspace() else {
        eprintln!("xtask: cannot locate the workspace root");
        return ExitCode::from(2);
    };
    let active = active_diagnostics(&files);
    render(&active, format, files.len());
    if active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> AnalyzedFile {
        AnalyzedFile::build(path, src)
    }

    #[test]
    fn waivers_only_in_real_comments() {
        let f = file(
            "crates/core/src/x.rs",
            "let a = 1; // xtask: allow(no-unwrap)\nlet s = \"xtask: allow(seeded-rng)\";\n",
        );
        let ws = collect_waivers(&f);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].rule, "no-unwrap");
        assert_eq!(ws[0].line, 1);
    }

    #[test]
    fn comma_separated_waivers() {
        let f = file(
            "a.rs",
            "x; // xtask: allow(panic-reachability, udf-determinism)\n",
        );
        let ws = collect_waivers(&f);
        assert_eq!(
            ws.iter().map(|w| w.rule.as_str()).collect::<Vec<_>>(),
            ["panic-reachability", "udf-determinism"]
        );
    }

    #[test]
    fn apply_and_stale_waivers() {
        let d = |line| Diagnostic {
            file: "a.rs".into(),
            line,
            rule: "no-unwrap",
            rank: 0,
            message: "m".into(),
        };
        let w = |line, rule: &str| Waiver {
            file: "a.rs".into(),
            line,
            rule: rule.into(),
        };
        let raw = vec![d(1), d(2)];
        let waivers = vec![w(1, "no-unwrap"), w(2, "seeded-rng"), w(9, "no-unwrap")];
        let (active, waived) = apply_waivers(raw.clone(), &waivers);
        assert_eq!(active.len(), 1, "only the matching waiver suppresses");
        assert_eq!(active[0].line, 2);
        assert_eq!(waived.len(), 1);
        let stale = stale_waivers(&waivers, &raw);
        assert_eq!(
            stale
                .iter()
                .map(|w| (w.line, w.rule.as_str()))
                .collect::<Vec<_>>(),
            [(2, "seeded-rng"), (9, "no-unwrap")]
        );
    }

    #[test]
    fn options_parse_formats_and_flags() {
        assert_eq!(parse_format(&[]), Ok(Format::Text));
        assert_eq!(
            parse_format(&["--format".into(), "json".into()]),
            Ok(Format::Json)
        );
        assert_eq!(
            parse_format(&["--format=github".into()]),
            Ok(Format::Github)
        );
        assert!(parse_format(&["--format".into(), "yaml".into()]).is_err());
        assert!(parse_format(&["--format".into()]).is_err());
        assert!(parse_format(&["--list-stale-waivers".into()]).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn waiver_for_a_deleted_rule_is_reported_as_stale() {
        // A waiver naming a rule that no longer exists can never match a
        // diagnostic, so it cannot linger; a live waiver on the same fn is
        // consumed silently.
        let f = file(
            "crates/mapreduce/src/x.rs",
            "fn f(v: &[u64], i: usize) -> u64 {\n    \
             let t = Instant::now(); // xtask: allow(clock-discipline) — advisory\n    \
             drop(t);\n    \
             v[i + 1] // xtask: allow(panic-reachability) — i + 1 < v.len()\n}\n",
        );
        let diags = active_diagnostics(&[f]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, STALE_RULE);
        assert_eq!(diags[0].line, 4);
        assert!(diags[0].message.contains("panic-reachability"));
    }

    #[test]
    fn whole_workspace_is_clean() {
        // The acceptance gate: `cargo xtask analyze` exits 0 on this tree —
        // no active diagnostic and no stale waiver — and the audited
        // exceptions are exactly the four the tree is known to carry.
        let files = load_workspace().expect("workspace root");
        assert!(!files.is_empty());
        let active = active_diagnostics(&files);
        assert!(
            active.is_empty(),
            "workspace has active violations:\n{}",
            active
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        let mut inventory = std::collections::BTreeMap::new();
        for w in files.iter().flat_map(collect_waivers) {
            *inventory.entry(w.rule).or_insert(0usize) += 1;
        }
        let inventory: Vec<(&str, usize)> =
            inventory.iter().map(|(r, &n)| (r.as_str(), n)).collect();
        assert_eq!(
            inventory,
            [("clock-discipline", 1), ("hot-path-alloc", 3)],
            "a new waiver is a reviewed event: update this inventory with it"
        );
    }
}
