//! The trace schema: the shape `skymr-cli trace` requires of a file
//! written by `run --trace` before it summarizes it.
//!
//! CI runs the CLI with `--trace` and feeds the output through
//! `skymr-cli trace`, so a drive-by change to the exporters that breaks
//! Perfetto compatibility (or the bench harness's JSONL consumer) fails the
//! build instead of silently producing unloadable files. Both formats are
//! accepted, keyed on the `.jsonl` extension, and every violation is
//! reported (not just the first).

use skymr_mapreduce::telemetry::json::{self, Value};

/// A trace that passed the schema: its event objects and its per-job
/// registry objects, in file order, whichever format it came in.
pub struct Trace {
    pub events: Vec<Value>,
    pub registries: Vec<Value>,
}

/// Parses and checks the trace file `path` whose contents are `text`: JSONL
/// if the name ends in `.jsonl`, Chrome `trace_event` JSON otherwise.
pub fn read(path: &str, text: &str) -> Result<Trace, Vec<String>> {
    if path.ends_with(".jsonl") {
        parse_jsonl(text)
    } else {
        parse_chrome(text)
    }
}

/// Moves member `key` out of an object (the first one of that name),
/// leaving `null` in its place.
fn take(value: &mut Value, key: &str) -> Option<Value> {
    let Value::Object(members) = value else {
        return None;
    };
    let (_, member) = members.iter_mut().find(|(k, _)| k == key)?;
    Some(std::mem::replace(member, Value::Null))
}

/// Checks a Chrome `trace_event` JSON document.
fn parse_chrome(text: &str) -> Result<Trace, Vec<String>> {
    let mut doc = json::parse(text).map_err(|e| vec![e.to_string()])?;
    let mut errors = Vec::new();
    if doc.get("displayTimeUnit").and_then(Value::as_str) != Some("ms") {
        errors.push("displayTimeUnit must be the string \"ms\"".to_owned());
    }
    let events = match take(&mut doc, "traceEvents") {
        Some(Value::Array(events)) => {
            if events.is_empty() {
                errors.push("traceEvents is empty — a run always emits spans".to_owned());
            }
            for (i, event) in events.iter().enumerate() {
                check_event(event, &format!("traceEvents[{i}]"), &mut errors);
            }
            events
        }
        _ => {
            errors.push("missing traceEvents array".to_owned());
            Vec::new()
        }
    };
    let registries = match take(&mut doc, "registries") {
        Some(Value::Array(regs)) => {
            for (i, reg) in regs.iter().enumerate() {
                check_registry(reg, &format!("registries[{i}]"), &mut errors);
            }
            regs
        }
        _ => {
            errors.push("missing registries array".to_owned());
            Vec::new()
        }
    };
    if errors.is_empty() {
        Ok(Trace { events, registries })
    } else {
        Err(errors)
    }
}

/// Checks a JSONL export: one tagged object per line.
fn parse_jsonl(text: &str) -> Result<Trace, Vec<String>> {
    let mut errors = Vec::new();
    let (mut events, mut registries) = (Vec::new(), Vec::new());
    for (lineno, line) in text.lines().enumerate() {
        let at = format!("line {}", lineno + 1);
        let mut value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("{at}: {e}"));
                continue;
            }
        };
        match value.get("type").and_then(Value::as_str) {
            Some("event") => match take(&mut value, "event") {
                Some(event) => {
                    check_event(&event, &at, &mut errors);
                    events.push(event);
                }
                None => errors.push(format!("{at}: event record without an event object")),
            },
            Some("registry") => {
                check_registry(&value, &at, &mut errors);
                registries.push(value);
            }
            Some(other) => errors.push(format!("{at}: unknown record type {other:?}")),
            None => errors.push(format!("{at}: record without a type tag")),
        }
    }
    if events.is_empty() {
        errors.push("no event records — a run always emits spans".to_owned());
    }
    if errors.is_empty() {
        Ok(Trace { events, registries })
    } else {
        Err(errors)
    }
}

fn require_u64(v: &Value, key: &str, at: &str, errors: &mut Vec<String>) {
    if v.get(key).and_then(Value::as_u64).is_none() {
        errors.push(format!("{at}: missing or non-integer {key:?}"));
    }
}

/// Checks one trace event against the exporter's fixed key set.
fn check_event(event: &Value, at: &str, errors: &mut Vec<String>) {
    if event.as_object().is_none() {
        errors.push(format!("{at}: event is not an object"));
        return;
    }
    for key in ["name", "cat"] {
        if event.get(key).and_then(Value::as_str).is_none() {
            errors.push(format!("{at}: missing or non-string {key:?}"));
        }
    }
    for key in ["ts", "pid", "tid"] {
        require_u64(event, key, at, errors);
    }
    if event.get("args").and_then(Value::as_object).is_none() {
        errors.push(format!("{at}: missing or non-object \"args\""));
    }
    match event.get("ph").and_then(Value::as_str) {
        Some("X") => require_u64(event, "dur", at, errors),
        Some("i") => {
            if event.get("s").and_then(Value::as_str) != Some("t") {
                errors.push(format!("{at}: instant event without thread scope s=\"t\""));
            }
        }
        Some("M" | "C") => {}
        Some(other) => errors.push(format!("{at}: unexpected phase {other:?}")),
        None => errors.push(format!("{at}: missing or non-string \"ph\"")),
    }
    check_fault_domain_event(event, at, errors);
    check_storage_event(event, at, errors);
    check_sched_event(event, at, errors);
}

/// Pins the multi-tenant scheduler's event shapes: every admitted job's
/// queue wait surfaces as a complete `queued` span naming its job and
/// tenant, and every preemption as a `preempt` instant naming the killed
/// attempt — both under cat "sched", so a fairness dashboard summing
/// per-tenant queue waits (or the CI grep for preemptions) never loses
/// them to a rename.
fn check_sched_event(event: &Value, at: &str, errors: &mut Vec<String>) {
    let name = event.get("name").and_then(Value::as_str).unwrap_or("");
    match name {
        "queued" => {
            if event.get("cat").and_then(Value::as_str) != Some("sched") {
                errors.push(format!("{at}: queued must use cat \"sched\""));
            }
            if event.get("ph").and_then(Value::as_str) != Some("X") {
                errors.push(format!("{at}: queued must be a complete span (ph \"X\")"));
            }
            let args = event.get("args");
            for key in ["job", "tenant"] {
                if args
                    .and_then(|a| a.get(key))
                    .and_then(Value::as_str)
                    .is_none()
                {
                    errors.push(format!("{at}: queued span without string args.{key}"));
                }
            }
        }
        "preempt" => {
            if event.get("cat").and_then(Value::as_str) != Some("sched") {
                errors.push(format!("{at}: preempt must use cat \"sched\""));
            }
            if event.get("ph").and_then(Value::as_str) != Some("i") {
                errors.push(format!("{at}: preempt must be an instant event (ph \"i\")"));
            }
            let args = event.get("args");
            if args
                .and_then(|a| a.get("job"))
                .and_then(Value::as_str)
                .is_none()
            {
                errors.push(format!("{at}: preempt instant without string args.job"));
            }
            for key in ["task", "attempt"] {
                if args
                    .and_then(|a| a.get(key))
                    .and_then(Value::as_u64)
                    .is_none()
                {
                    errors.push(format!("{at}: preempt instant without integer args.{key}"));
                }
            }
        }
        _ => {}
    }
}

/// Pins the out-of-core storage-plane span shapes: spill files and the
/// external-merge cascade must always surface as complete spans under cat
/// "storage" with their byte accounting intact, so tooling that sums
/// `args.bytes` across a budget sweep never silently reads zeros.
fn check_storage_event(event: &Value, at: &str, errors: &mut Vec<String>) {
    let name = event.get("name").and_then(Value::as_str).unwrap_or("");
    let keys: &[&str] = if name.starts_with("spill[") && name.ends_with(']') {
        &["bytes"]
    } else if name == "merge" {
        &["runs", "passes", "bytes_read", "bytes_written"]
    } else {
        return;
    };
    if event.get("cat").and_then(Value::as_str) != Some("storage") {
        errors.push(format!("{at}: {name} must use cat \"storage\""));
    }
    if event.get("ph").and_then(Value::as_str) != Some("X") {
        errors.push(format!("{at}: {name} must be a complete span (ph \"X\")"));
    }
    let args = event.get("args");
    for key in keys {
        if args
            .and_then(|a| a.get(key))
            .and_then(Value::as_u64)
            .is_none()
        {
            errors.push(format!("{at}: {name} span without integer args.{key}"));
        }
    }
}

/// Pins the shape of the node failure-domain events the engine emits so a
/// consumer filtering on them (the chaos CI step greps the trace, the
/// summarizer groups by category) never silently loses them to a rename.
fn check_fault_domain_event(event: &Value, at: &str, errors: &mut Vec<String>) {
    let name = event.get("name").and_then(Value::as_str).unwrap_or("");
    if name == "node-loss" {
        if event.get("ph").and_then(Value::as_str) != Some("i") {
            errors.push(format!(
                "{at}: node-loss must be an instant event (ph \"i\")"
            ));
        }
        if event.get("cat").and_then(Value::as_str) != Some("fault") {
            errors.push(format!("{at}: node-loss must use cat \"fault\""));
        }
        let args = event.get("args");
        for key in ["node", "at_tick"] {
            if args
                .and_then(|a| a.get(key))
                .and_then(Value::as_u64)
                .is_none()
            {
                errors.push(format!(
                    "{at}: node-loss instant without integer args.{key}"
                ));
            }
        }
    }
    // Data-plane integrity instants: corruption detections, skip-bad-record
    // outcomes, and progress-timeout kills all carry fixed integer args.
    let instant_args: Option<&[&str]> = match name {
        "fault:corrupt" => Some(&["map", "reducer", "fetches"]),
        "skip-record" => Some(&["task", "record"]),
        "hang-kill" => Some(&["task", "attempt", "timeout_ticks"]),
        _ => None,
    };
    if let Some(keys) = instant_args {
        if event.get("ph").and_then(Value::as_str) != Some("i") {
            errors.push(format!("{at}: {name} must be an instant event (ph \"i\")"));
        }
        if event.get("cat").and_then(Value::as_str) != Some("fault") {
            errors.push(format!("{at}: {name} must use cat \"fault\""));
        }
        let args = event.get("args");
        for key in keys {
            if args
                .and_then(|a| a.get(key))
                .and_then(Value::as_u64)
                .is_none()
            {
                errors.push(format!("{at}: {name} instant without integer args.{key}"));
            }
        }
    }
    if name.contains("(re-exec)") {
        if event.get("cat").and_then(Value::as_str) != Some("reexec") {
            errors.push(format!(
                "{at}: re-execution span {name:?} must use cat \"reexec\""
            ));
        }
        if event.get("ph").and_then(Value::as_str) != Some("X") {
            errors.push(format!(
                "{at}: re-execution span {name:?} must be a complete span (ph \"X\")"
            ));
        }
    }
}

/// Checks one per-job registry object: counters/gauges are integer maps,
/// histograms are cumulative bucket lists whose counts sum to `count`.
fn check_registry(reg: &Value, at: &str, errors: &mut Vec<String>) {
    if reg.get("job").and_then(Value::as_str).is_none() {
        errors.push(format!("{at}: missing or non-string \"job\""));
    }
    for section in ["counters", "gauges"] {
        match reg.get(section).and_then(Value::as_object) {
            Some(members) => {
                for (name, value) in members {
                    if value.as_u64().is_none() {
                        errors.push(format!("{at}: {section}.{name} is not a u64"));
                    }
                }
            }
            None => errors.push(format!("{at}: missing or non-object {section:?}")),
        }
    }
    let Some(histograms) = reg.get("histograms").and_then(Value::as_object) else {
        errors.push(format!("{at}: missing or non-object \"histograms\""));
        return;
    };
    for (name, hist) in histograms {
        let here = format!("{at}: histograms.{name}");
        let count = hist.get("count").and_then(Value::as_u64);
        if count.is_none() {
            errors.push(format!("{here}: missing or non-integer count"));
        }
        if hist.get("sum").and_then(Value::as_u64).is_none() {
            errors.push(format!("{here}: missing or non-integer sum"));
        }
        let Some(buckets) = hist.get("buckets").and_then(Value::as_array) else {
            errors.push(format!("{here}: missing or non-array buckets"));
            continue;
        };
        let mut total = 0u64;
        let mut saw_overflow = false;
        for (i, bucket) in buckets.iter().enumerate() {
            let le = bucket.get("le");
            match le {
                Some(Value::Null) => saw_overflow = true,
                Some(v) if v.as_u64().is_some() => {}
                _ => errors.push(format!("{here}: buckets[{i}].le is neither u64 nor null")),
            }
            match bucket.get("count").and_then(Value::as_u64) {
                Some(c) => total += c,
                None => errors.push(format!("{here}: buckets[{i}].count is not a u64")),
            }
        }
        if !saw_overflow {
            errors.push(format!("{here}: no overflow bucket (le:null)"));
        }
        if let Some(count) = count {
            if total != count {
                errors.push(format!(
                    "{here}: bucket counts sum to {total} but count is {count}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_mapreduce::telemetry::export::{chrome_trace, jsonl};
    use skymr_mapreduce::telemetry::span::Span;
    use skymr_mapreduce::telemetry::{Collector, JobTrace, TraceDocument};

    /// The event and registry counts of a Chrome trace that passes.
    fn check_chrome(text: &str) -> Result<(usize, usize), Vec<String>> {
        parse_chrome(text).map(|t| (t.events.len(), t.registries.len()))
    }

    /// The event and registry counts of a JSONL trace that passes.
    fn check_jsonl(text: &str) -> Result<(usize, usize), Vec<String>> {
        parse_jsonl(text).map(|t| (t.events.len(), t.registries.len()))
    }

    fn sample_doc() -> TraceDocument {
        let c = Collector::new();
        let mut job = JobTrace::new("wc");
        job.name_lane(1, "map slot 0");
        job.span(Span::new(&["wc", "map", "0"], "map[0]", "map", 1, 0, 40));
        job.counter("map running", 0, "tasks", 1);
        job.registry_mut().add("map.records_out", 12);
        job.registry_mut().record("map.task_ticks", &[100], 40);
        job.set_total(50);
        c.commit(job);
        c.finish()
    }

    #[test]
    fn accepts_both_export_formats() {
        let doc = sample_doc();
        let (events, regs) = check_chrome(&chrome_trace(&doc)).expect("chrome export validates");
        assert!(events > 0);
        assert_eq!(regs, 1);
        let (events, regs) = check_jsonl(&jsonl(&doc)).expect("jsonl export validates");
        assert!(events > 0);
        assert_eq!(regs, 1);
    }

    #[test]
    fn rejects_malformed_and_incomplete_documents() {
        assert!(check_chrome("not json").is_err());
        assert!(check_chrome("{}").is_err());
        // A complete span without a duration is a violation.
        let doc = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"name\":\"x\",\"cat\":\"map\",\"ph\":\"X\",\"ts\":0,\
                   \"pid\":1,\"tid\":1,\"args\":{}}],\"registries\":[]}";
        let errors = check_chrome(doc).expect_err("missing dur rejected");
        assert!(errors.iter().any(|e| e.contains("dur")), "{errors:?}");
    }

    #[test]
    fn rejects_histograms_whose_buckets_disagree_with_count() {
        let doc = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"name\":\"x\",\"cat\":\"map\",\"ph\":\"M\",\"ts\":0,\
                   \"pid\":1,\"tid\":1,\"args\":{}}],\"registries\":[\
                   {\"job\":\"wc\",\"counters\":{},\"gauges\":{},\
                   \"histograms\":{\"h\":{\"count\":3,\"sum\":9,\"buckets\":[\
                   {\"le\":10,\"count\":1},{\"le\":null,\"count\":1}]}}}]}";
        let errors = check_chrome(doc).expect_err("count mismatch rejected");
        assert!(
            errors.iter().any(|e| e.contains("sum to 2 but count is 3")),
            "{errors:?}"
        );
    }

    #[test]
    fn pins_the_node_failure_domain_event_shapes() {
        // A well-formed loss instant and re-execution span pass.
        let good = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                    {\"name\":\"node-loss\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":5,\"pid\":1,\"tid\":0,\"args\":{\"node\":2,\"at_tick\":5}},\
                    {\"name\":\"map[3] (re-exec)\",\"cat\":\"reexec\",\"ph\":\"X\",\
                    \"ts\":9,\"dur\":4,\"pid\":1,\"tid\":1,\"args\":{}}],\
                    \"registries\":[]}";
        check_chrome(good).expect("failure-domain events validate");

        // A loss demoted to a span, or stripped of its node, is a violation.
        let bad = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"name\":\"node-loss\",\"cat\":\"fault\",\"ph\":\"X\",\
                   \"ts\":5,\"dur\":1,\"pid\":1,\"tid\":0,\"args\":{\"at_tick\":5}},\
                   {\"name\":\"map[3] (re-exec)\",\"cat\":\"map\",\"ph\":\"X\",\
                   \"ts\":9,\"dur\":4,\"pid\":1,\"tid\":1,\"args\":{}}],\
                   \"registries\":[]}";
        let errors = check_chrome(bad).expect_err("malformed fault events rejected");
        assert!(
            errors
                .iter()
                .any(|e| e.contains("instant event (ph \"i\")")),
            "{errors:?}"
        );
        assert!(errors.iter().any(|e| e.contains("args.node")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("cat \"reexec\"")),
            "{errors:?}"
        );
    }

    #[test]
    fn pins_the_data_integrity_instant_shapes() {
        let good = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                    {\"name\":\"fault:corrupt\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":5,\"pid\":1,\"tid\":0,\"args\":{\"map\":1,\"reducer\":0,\"fetches\":2}},\
                    {\"name\":\"skip-record\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":5,\"pid\":1,\"tid\":0,\"args\":{\"task\":1,\"record\":3}},\
                    {\"name\":\"hang-kill\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":5,\"pid\":1,\"tid\":2,\
                    \"args\":{\"task\":0,\"attempt\":0,\"timeout_ticks\":5000}}],\
                    \"registries\":[]}";
        check_chrome(good).expect("data-integrity instants validate");

        // Stripping the fetch count or demoting the kill to a span fails.
        let bad = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"name\":\"fault:corrupt\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                   \"ts\":5,\"pid\":1,\"tid\":0,\"args\":{\"map\":1,\"reducer\":0}},\
                   {\"name\":\"hang-kill\",\"cat\":\"fault\",\"ph\":\"X\",\"dur\":1,\
                   \"ts\":5,\"pid\":1,\"tid\":2,\
                   \"args\":{\"task\":0,\"attempt\":0,\"timeout_ticks\":5000}}],\
                   \"registries\":[]}";
        let errors = check_chrome(bad).expect_err("malformed integrity events rejected");
        assert!(
            errors.iter().any(|e| e.contains("args.fetches")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("hang-kill must be an instant event")),
            "{errors:?}"
        );
    }

    #[test]
    fn pins_the_storage_plane_span_shapes() {
        let good = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                    {\"name\":\"spill[0]\",\"cat\":\"storage\",\"ph\":\"X\",\
                    \"ts\":5,\"dur\":16,\"pid\":1,\"tid\":1,\"args\":{\"bytes\":4096}},\
                    {\"name\":\"merge\",\"cat\":\"storage\",\"ph\":\"X\",\
                    \"ts\":30,\"dur\":24,\"pid\":1,\"tid\":2,\"args\":\
                    {\"runs\":3,\"passes\":1,\"bytes_read\":6144,\"bytes_written\":0}}],\
                    \"registries\":[]}";
        check_chrome(good).expect("storage spans validate");

        // A spill demoted out of its category, or a merge missing its byte
        // accounting, is a violation.
        let bad = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"name\":\"spill[0]\",\"cat\":\"map\",\"ph\":\"X\",\
                   \"ts\":5,\"dur\":16,\"pid\":1,\"tid\":1,\"args\":{}},\
                   {\"name\":\"merge\",\"cat\":\"storage\",\"ph\":\"X\",\
                   \"ts\":30,\"dur\":24,\"pid\":1,\"tid\":2,\"args\":\
                   {\"runs\":3,\"passes\":1}}],\
                   \"registries\":[]}";
        let errors = check_chrome(bad).expect_err("malformed storage spans rejected");
        assert!(
            errors.iter().any(|e| e.contains("cat \"storage\"")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("args.bytes")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("args.bytes_read")),
            "{errors:?}"
        );
    }

    #[test]
    fn pins_the_scheduler_event_shapes() {
        let good = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                    {\"name\":\"queued\",\"cat\":\"sched\",\"ph\":\"X\",\
                    \"ts\":0,\"dur\":12,\"pid\":1,\"tid\":0,\
                    \"args\":{\"job\":\"gpsrs\",\"tenant\":\"team-a\"}},\
                    {\"name\":\"preempt\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":7,\"pid\":1,\"tid\":0,\
                    \"args\":{\"job\":\"bnl\",\"task\":2,\"attempt\":0}}],\
                    \"registries\":[]}";
        check_chrome(good).expect("scheduler events validate");

        // A queued span stripped of its tenant, demoted out of its
        // category, or a preempt missing its attempt, is a violation.
        let bad = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"name\":\"queued\",\"cat\":\"map\",\"ph\":\"X\",\
                   \"ts\":0,\"dur\":12,\"pid\":1,\"tid\":0,\"args\":{\"job\":\"gpsrs\"}},\
                   {\"name\":\"preempt\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\
                   \"ts\":7,\"pid\":1,\"tid\":0,\"args\":{\"job\":\"bnl\",\"task\":2}}],\
                   \"registries\":[]}";
        let errors = check_chrome(bad).expect_err("malformed sched events rejected");
        assert!(
            errors.iter().any(|e| e.contains("cat \"sched\"")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("args.tenant")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("args.attempt")),
            "{errors:?}"
        );
    }

    #[test]
    fn jsonl_reports_per_line_violations() {
        let errors = check_jsonl("{\"type\":\"mystery\"}\nnot json\n").expect_err("rejected");
        assert!(errors.iter().any(|e| e.contains("line 1")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("line 2")), "{errors:?}");
    }
}
