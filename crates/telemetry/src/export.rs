//! Renderers for a [`TelemetrySnapshot`]: human-readable table, plain JSON, and Chrome
//! trace-event JSON (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! All output is hand-rolled — the crate stays dependency-free like the rest of the
//! workspace shims.

use crate::TelemetrySnapshot;

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond quantity with a human-friendly unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.3}s", ns as f64 / 1e9),
    }
}

/// Renders histograms and counters as an aligned plain-text table.
///
/// Histogram values are assumed to be nanoseconds when the name ends in `_ns` (the
/// convention used by the engine's instrumentation) and are printed with time units;
/// everything else is printed raw.
pub fn render_table(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    if !snapshot.histograms.is_empty() {
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "p50", "p90", "p99", "max", "mean"
        ));
        for (name, h) in &snapshot.histograms {
            let time = name.ends_with("_ns");
            let show = |v: u64| {
                if time {
                    fmt_ns(v)
                } else {
                    v.to_string()
                }
            };
            let mean = if time {
                fmt_ns(h.mean() as u64)
            } else {
                format!("{:.1}", h.mean())
            };
            out.push_str(&format!(
                "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                name,
                h.count,
                show(h.p50()),
                show(h.p90()),
                show(h.p99()),
                show(if h.is_empty() { 0 } else { h.max }),
                mean,
            ));
        }
    }
    if !snapshot.counters.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!("{:<28} {:>12}\n", "counter", "value"));
        for (name, v) in &snapshot.counters {
            out.push_str(&format!("{name:<28} {v:>12}\n"));
        }
    }
    let dropped = snapshot.trace.total_dropped();
    if dropped > 0 {
        out.push_str(&format!(
            "\n(warning: {dropped} trace events dropped to ring overflow)\n"
        ));
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

/// Serializes the snapshot's aggregates (histogram quantiles + counters + trace totals) as
/// a self-contained JSON object.
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::from("{\"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let min = if h.is_empty() { 0 } else { h.min };
        let max = if h.is_empty() { 0 } else { h.max };
        out.push_str(&format!(
            "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            escape_json(name),
            h.count,
            h.sum,
            min,
            max,
            h.mean(),
            h.p50(),
            h.p90(),
            h.p99(),
        ));
    }
    out.push_str("}, \"counters\": {");
    for (i, (name, v)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {}", escape_json(name), v));
    }
    out.push_str(&format!(
        "}}, \"trace\": {{\"threads\": {}, \"events\": {}, \"dropped\": {}}}}}",
        snapshot.trace.threads.len(),
        snapshot.trace.total_events(),
        snapshot.trace.total_dropped(),
    ));
    out
}

/// Serializes the full span trace in Chrome trace-event format: a JSON object with a
/// `traceEvents` array of `B`/`E`/`i` phase records (`pid` 1, `tid` per producer thread,
/// timestamps in microseconds). Load the file in `chrome://tracing` or Perfetto.
pub fn chrome_json(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    for t in &snapshot.trace.threads {
        for e in &t.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ph = match e.kind {
                crate::SpanEventKind::Begin => "B",
                crate::SpanEventKind::End => "E",
                crate::SpanEventKind::Instant => "i",
            };
            let scope = if ph == "i" { ", \"s\": \"t\"" } else { "" };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"{}\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}{}}}",
                escape_json(e.name),
                ph,
                t.tid,
                e.ts_ns as f64 / 1e3,
                scope,
            ));
        }
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample() -> TelemetrySnapshot {
        let t = Telemetry::enabled();
        t.record("flush_ns", 1_500);
        t.record("flush_ns", 40_000);
        t.record("drain_size", 7);
        t.add("events", 42);
        {
            let _s = t.span("outer");
            t.instant("mark");
        }
        t.snapshot()
    }

    #[test]
    fn table_lists_every_series() {
        let table = render_table(&sample());
        assert!(table.contains("flush_ns"));
        assert!(table.contains("drain_size"));
        assert!(table.contains("events"));
        assert!(table.contains("42"));
        // Time-suffixed series render with units.
        assert!(table.contains("us") || table.contains("ns"));
        assert!(!table.contains("dropped"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let table = render_table(&TelemetrySnapshot::default());
        assert!(table.contains("no telemetry recorded"));
    }

    #[test]
    fn json_contains_quantiles_and_counters() {
        let json = to_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"flush_ns\""));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"events\": 42"));
        assert!(json.contains("\"trace\""));
        // Balanced braces as a cheap structural check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn chrome_trace_has_paired_events() {
        let json = chrome_json(&sample());
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"i\"").count(), 1);
        assert!(json.contains("\"pid\": 1"));
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn ns_formatting_picks_sane_units() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(12_500), "12.5us");
        assert_eq!(fmt_ns(42_000_000), "42.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
