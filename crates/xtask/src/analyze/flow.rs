//! `clock-discipline` — a taint-style interprocedural pass on the
//! resolved symbol graph.
//!
//! The engine's determinism story (ROADMAP north star: byte-identical
//! shuffles and traces across hosts) survives only if wall-clock readings
//! (`Instant::now()` / `SystemTime::now()`) stay out of the deterministic
//! dataflow. Two rules. (a) Any wall-clock *acquisition* in the engine
//! crates (`mapreduce`, `core`) must carry an invariant-citing waiver: the
//! engine runs on simulated ticks, so a wall read there is advisory
//! host-side metrics at best and nondeterminism at worst. (b) Everywhere
//! outside harness code, a wall-tainted value — a binding whose
//! right-hand side reads the clock, transitively through local `let`s and
//! through calls to fns that *return* wall time (resolved via the symbol
//! graph) — must not reach a sink: an emitted pair
//! (`.collect(…)`/`.emit(…)` args), simulated-clock arithmetic (a
//! statement also touching tick-named values), trace content
//! (`.record(…)`/`.event(…)`/`.annotate(…)`), or a scheduling decision (an
//! `if`/`while`/`match` head).
//!
//! Findings are waivable with a trailing
//! `// xtask: allow(clock-discipline)` comment.

use std::collections::BTreeSet;

use super::resolve::{is_harness_path, Workspace};
use super::{in_engine_crates, AnalyzedFile, Diagnostic};
use crate::lexer::TokenKind;

pub const CLOCK_RULE: &str = "clock-discipline";

/// `true` when the significant token at `i` starts `Instant::now(` or
/// `SystemTime::now(`.
fn is_wall_source(f: &AnalyzedFile, i: usize) -> bool {
    matches!(f.sig_text(i), "Instant" | "SystemTime")
        && f.sig_text(i + 1) == ":"
        && f.sig_text(i + 2) == ":"
        && f.sig_text(i + 3) == "now"
        && f.sig_text(i + 4) == "("
}

/// Idents that name the simulated clock: mixing wall time into these is
/// the exact bug the simulation exists to prevent.
fn is_ticksish(name: &str) -> bool {
    name == "Ticks"
        || name == "ticks"
        || name.ends_with("_ticks")
        || name.starts_with("ticks_")
        || name.starts_with("sim_")
}

/// Whether a fn's return type hands wall time to its caller: `Instant` /
/// `SystemTime` always; `Duration` when the body also reads the clock
/// (a simulated duration is fine). The return-type region is the
/// significant tokens between `->` and the body's `{`.
fn returns_wall_time(f: &AnalyzedFile, g: &crate::parse::FnInfo) -> bool {
    let Some(body) = g.body else { return false };
    let (brace, end) = f.sig_range(body);
    // Find `->` in a short window before the body.
    let lo = brace.saturating_sub(24);
    let mut arrow = None;
    for i in (lo..brace).rev() {
        if f.sig_text(i) == ">" && i > 0 && f.sig_text(i - 1) == "-" {
            arrow = Some(i + 1);
            break;
        }
        if f.sig_text(i) == "fn" {
            break;
        }
    }
    let Some(arrow) = arrow else { return false };
    let mut duration = false;
    for i in arrow..brace {
        match f.sig_text(i) {
            "Instant" | "SystemTime" => return true,
            "Duration" => duration = true,
            _ => {}
        }
    }
    duration && (brace..end).any(|i| is_wall_source(f, i))
}

/// Wall-tainted local idents of one fn body: `let x = <RHS reading the
/// clock>` plus transitive `let y = <RHS mentioning a tainted ident>`,
/// plus bindings of calls to wall-returning fns (via resolved edges).
fn tainted_idents(ws: &Workspace<'_>, id: usize, wall_ret: &[bool]) -> BTreeSet<String> {
    let f = ws.file_of(id);
    let g = ws.fn_info(id);
    let Some(body) = g.body else {
        return BTreeSet::new();
    };
    let (start, end) = f.sig_range(body);
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    // Two passes pick up a use-before-def chain if one ever appears.
    for _ in 0..2 {
        let mut i = start;
        while i < end {
            if f.sig_text(i) != "let" {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if f.sig_text(j) == "mut" {
                j += 1;
            }
            if f.sig_kind(j) != Some(TokenKind::Ident) || f.sig_text(j + 1) != "=" {
                i = j;
                continue;
            }
            let name = f.sig_text(j).to_owned();
            let rhs_start = j + 2;
            let rhs_end = statement_end(f, rhs_start, end);
            // A struct-literal RHS does not taint the binding: storing
            // wall time into one *field* must not poison every other
            // field access (`metrics.sim_runtime = …` after
            // `let metrics = JobMetrics { host_wall: started.elapsed(), … }`
            // is pure sim arithmetic). The field value itself is still
            // sink-checked at its own position.
            if !is_struct_literal_rhs(f, rhs_start)
                && region_reads_wall(ws, id, rhs_start, rhs_end, &tainted, wall_ret)
            {
                tainted.insert(name);
            }
            i = rhs_end;
        }
    }
    tainted
}

/// `true` when the RHS starting at `rhs` is a struct literal:
/// `(Ident ::)* UpperIdent { …`.
fn is_struct_literal_rhs(f: &AnalyzedFile, rhs: usize) -> bool {
    let mut i = rhs;
    while f.sig_kind(i) == Some(TokenKind::Ident)
        && f.sig_text(i + 1) == ":"
        && f.sig_text(i + 2) == ":"
    {
        i += 3;
    }
    f.sig_kind(i) == Some(TokenKind::Ident)
        && f.sig_text(i).starts_with(|c: char| c.is_ascii_uppercase())
        && f.sig_text(i + 1) == "{"
}

/// Does the significant region `[a, b)` of node `id`'s file carry wall
/// time? True for a direct `Instant::now()`/`SystemTime::now()`, a
/// tainted ident, or a resolved call to a wall-returning fn.
fn region_reads_wall(
    ws: &Workspace<'_>,
    id: usize,
    a: usize,
    b: usize,
    tainted: &BTreeSet<String>,
    wall_ret: &[bool],
) -> bool {
    let f = ws.file_of(id);
    for i in a..b {
        if is_wall_source(f, i) {
            return true;
        }
        if f.sig_kind(i) == Some(TokenKind::Ident) && tainted.contains(f.sig_text(i)) {
            return true;
        }
    }
    ws.callees(id).iter().any(|&(ci, t)| {
        let call = &ws.fn_info(id).calls[ci];
        (a..b).contains(&call.sig_idx) && wall_ret[t]
    })
}

/// Significant index one past the statement containing `from` (its `;`,
/// or the enclosing block edge).
fn statement_end(f: &AnalyzedFile, from: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for j in from..end {
        match f.sig_text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth <= 0 => return j,
            _ => {}
        }
    }
    end
}

/// Forward expression boundary for the arithmetic sink: like
/// [`statement_end`], but a `,` at depth 0 also ends the expression, so
/// sibling struct-literal fields and sibling call arguments are separate
/// expressions rather than one giant statement.
fn expr_end(f: &AnalyzedFile, from: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for j in from..end {
        match f.sig_text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" | "," if depth <= 0 => return j,
            _ => {}
        }
    }
    end
}

/// Backward expression boundary for the token at `i` (counterpart of
/// [`expr_end`]).
fn expr_start(f: &AnalyzedFile, i: usize, start: usize) -> usize {
    let mut depth = 0i64;
    for j in (start..i).rev() {
        match f.sig_text(j) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                if depth == 0 {
                    return j + 1;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => return j + 1,
            _ => {}
        }
    }
    start
}

/// Runs the rule over the workspace graph.
pub fn check(ws: &Workspace<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Per-fn wall-return summaries, then per-fn taint + sinks.
    let wall_ret: Vec<bool> = (0..ws.nodes.len())
        .map(|id| returns_wall_time(ws.file_of(id), ws.fn_info(id)))
        .collect();

    for id in 0..ws.nodes.len() {
        let f = ws.file_of(id);
        let g = ws.fn_info(id);
        if g.is_test || is_harness_path(&f.path) {
            continue;
        }
        let Some(body) = g.body else { continue };
        let (start, end) = f.sig_range(body);

        // (a) Engine crates: every wall-clock acquisition needs an
        // audited waiver stating why it stays advisory.
        if in_engine_crates(&f.path) {
            for i in start..end {
                if is_wall_source(f, i) {
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: f.sig_tok(i).map_or(0, |t| t.line),
                        rule: CLOCK_RULE,
                        rank: 0,
                        message: format!(
                            "`{}::now()` in the simulated-time engine — wall time may \
                             feed advisory host metrics only; waive with the invariant \
                             that it never reaches emitted pairs, the simulated clock, \
                             traces, or scheduling",
                            f.sig_text(i)
                        ),
                    });
                }
            }
        }

        // (b) Taint → sink.
        let tainted = tainted_idents(ws, id, &wall_ret);
        let reads_wall = |a: usize, b: usize| region_reads_wall(ws, id, a, b, &tainted, &wall_ret);
        let line_of = |i: usize| f.sig_tok(i).map_or(0, |t| t.line);
        let mut flagged_lines: Vec<usize> = Vec::new();
        let mut flag = |i: usize, what: &str, out: &mut Vec<Diagnostic>| {
            let line = line_of(i);
            if flagged_lines.contains(&line) {
                return;
            }
            flagged_lines.push(line);
            out.push(Diagnostic {
                file: f.path.clone(),
                line,
                rule: CLOCK_RULE,
                rank: 0,
                message: format!(
                    "wall-clock value flows into {what} — derive this from the \
                     simulated clock (or drop it); wall time is advisory-only"
                ),
            });
        };
        let mut i = start;
        while i < end {
            let txt = f.sig_text(i);
            // Sink: emitted pairs / trace content — method call args.
            if f.sig_kind(i) == Some(TokenKind::Ident)
                && i > start
                && f.sig_text(i - 1) == "."
                && f.sig_text(i + 1) == "("
                && f.sig_text(i + 2) != ")"
            {
                let close = f.sig_balanced_end(i + 1, "(", ")");
                let sink = match txt {
                    "collect" | "emit" => Some("an emitted pair"),
                    "record" | "event" | "annotate" => Some("trace content"),
                    _ => None,
                };
                if let Some(what) = sink {
                    if reads_wall(i + 2, close.saturating_sub(1)) {
                        flag(i, what, &mut out);
                    }
                }
            }
            // Sink: scheduling decisions — `if`/`while`/`match` heads.
            if matches!(txt, "if" | "while" | "match") {
                let head_end = cond_end(f, i + 1, end);
                if reads_wall(i + 1, head_end) {
                    flag(i, "a scheduling decision (branch condition)", &mut out);
                }
            }
            // Sink: simulated-clock arithmetic — one expression mixing a
            // tainted ident with tick-named values.
            if f.sig_kind(i) == Some(TokenKind::Ident) && tainted.contains(txt) {
                let lo = expr_start(f, i, start);
                let hi = expr_end(f, i, end);
                if (lo..hi)
                    .any(|j| f.sig_kind(j) == Some(TokenKind::Ident) && is_ticksish(f.sig_text(j)))
                {
                    flag(i, "simulated-clock arithmetic", &mut out);
                }
            }
            i += 1;
        }
    }
    out
}

/// End of a branch head starting at `from`: the `{` at bracket depth 0.
fn cond_end(f: &AnalyzedFile, from: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for j in from..end {
        match f.sig_text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return j,
            _ => {}
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::super::{active_diagnostics, AnalyzedFile};

    const ENGINE: &str = "crates/mapreduce/src/flow_fixture.rs";
    const BASE: &str = "crates/baselines/src/flow_fixture.rs";

    fn flow(path: &str, src: &str) -> Vec<super::super::Diagnostic> {
        active_diagnostics(&[AnalyzedFile::build(path, src)])
    }

    #[test]
    fn engine_wall_clock_acquisition_requires_a_waiver() {
        let src = "\
fn attempt() {
    let started = Instant::now();
    observe(started.elapsed());
}
";
        let diags = flow(ENGINE, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "clock-discipline");
        assert_eq!(diags[0].line, 2);
        // A cited waiver clears it.
        let src = "\
fn attempt() {
    let started = Instant::now(); // xtask: allow(clock-discipline) — advisory host metric only
    observe(started.elapsed());
}
";
        assert!(flow(ENGINE, src).is_empty());
    }

    #[test]
    fn wall_value_into_emitted_pair_flags() {
        let src = "\
fn map_like(out: &mut OutputCollector<(u32, u64)>) {
    let t0 = Instant::now();
    out.collect((7, t0.elapsed().as_nanos() as u64));
}
";
        let diags = flow(BASE, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "clock-discipline");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("emitted pair"));
    }

    #[test]
    fn wall_value_into_tick_arithmetic_and_branches_flags() {
        let src = "\
fn drive(sim_ticks: &mut u64) {
    let t = Instant::now();
    *sim_ticks += t.elapsed().as_nanos() as u64;
}
";
        let diags = flow(BASE, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("simulated-clock arithmetic"));

        let src = "\
fn reschedule(task: &Task) {
    let waited = Instant::now();
    if waited.elapsed().as_millis() > 10 {
        requeue(task);
    }
}
";
        let diags = flow(BASE, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("scheduling decision"));
    }

    #[test]
    fn wall_time_returned_by_a_helper_still_taints_the_caller() {
        // The taint crosses the call through the wall-returning summary.
        let src = "\
fn wall_probe() -> Duration {
    let s = Instant::now();
    s.elapsed()
}
fn emitter(out: &mut OutputCollector<u64>) {
    let d = wall_probe();
    out.collect(d.as_nanos() as u64);
}
";
        let diags = flow(BASE, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 7);
        assert!(diags[0].message.contains("emitted pair"));
    }

    #[test]
    fn advisory_metrics_and_simulated_durations_stay_clean() {
        // Wall time into a plain metrics field: advisory, fine (outside
        // the engine crates). A Duration-returning fn with no clock read
        // does not taint its callers.
        let src = "\
fn advisory(metrics: &mut Metrics) {
    let t0 = Instant::now();
    metrics.host_wall = t0.elapsed();
}
fn sim_span(ticks: u64) -> Duration {
    Duration::from_nanos(ticks)
}
fn emitter(out: &mut OutputCollector<u64>) {
    let d = sim_span(4);
    out.collect(d.as_nanos() as u64);
}
";
        assert!(flow(BASE, src).is_empty(), "{:?}", flow(BASE, src));
    }

    #[test]
    fn struct_field_storage_does_not_taint_sibling_field_arithmetic() {
        // Storing wall time into one field of a metrics struct must not
        // poison the binding: `metrics.sim_ticks = …` below is pure
        // simulated-clock arithmetic.
        let src = "\
fn summarize(map_ticks: u64) -> Metrics {
    let started = Instant::now();
    let mut metrics = Metrics {
        sim_ticks: map_ticks * 2,
        host_wall: started.elapsed(),
    };
    metrics.sim_ticks += map_ticks;
    metrics
}
";
        assert!(flow(BASE, src).is_empty(), "{:?}", flow(BASE, src));
    }

    #[test]
    fn hang_detection_must_use_the_simulated_clock() {
        // A progress-timeout that polls the wall clock is a scheduling
        // decision fed by wall time — exactly how an injected-hang killer
        // would smuggle host nondeterminism into the engine.
        let src = "\
fn kill_if_hung(task: &Task) {
    let watch = Instant::now();
    if watch.elapsed() > task.progress_timeout {
        kill(task);
    }
}
";
        let diags = flow(ENGINE, src);
        // Engine crate: the acquisition needs a waiver AND the branch is a
        // wall-fed scheduling decision.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.message.contains("scheduling decision")));

        // The engine's actual shape: the hang's cost is a tick quantity
        // carried on the fault, charged straight into simulated lost time.
        let src = "\
fn charge_hang(fault: &TaskFault, lost_ticks: &mut u64, timeout_ticks: u64) {
    if fault.hangs() {
        *lost_ticks += timeout_ticks;
    }
}
";
        assert!(flow(ENGINE, src).is_empty(), "{:?}", flow(ENGINE, src));
    }

    #[test]
    fn corrupt_refetch_accounting_must_not_mix_wall_time() {
        // Timing a re-fetch of a corrupted shuffle frame with the host
        // clock and folding it into the simulated stall is tick
        // arithmetic on wall time — both the acquisition and the mix
        // must flag.
        let src = "\
fn charge_refetch(sim_ticks: &mut u64) {
    let fetch_started = Instant::now();
    *sim_ticks += fetch_started.elapsed().as_nanos() as u64;
}
";
        let diags = flow(ENGINE, src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.message.contains("simulated-clock arithmetic")));

        // Charging the stall from byte counts over simulated bandwidth —
        // the engine's real recovery accounting — is clean.
        let src = "\
fn refetch_stall_ticks(refetch_bytes: u64, bytes_per_tick: u64) -> u64 {
    refetch_bytes / bytes_per_tick.max(1)
}
";
        assert!(flow(ENGINE, src).is_empty(), "{:?}", flow(ENGINE, src));
    }
}
