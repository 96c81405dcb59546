//! Renderers for a [`TelemetrySnapshot`]: human-readable table, plain JSON, and Chrome
//! trace-event JSON (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! Both JSON forms are built as [`Value`]s and written by [`crate::json`], so every name is
//! escaped by the same writer that the parser reads back.

use crate::json::Value;
use crate::TelemetrySnapshot;

/// A count as a JSON integer (saturating: no count the pipeline keeps comes near `i64::MAX`).
fn int(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// An object from its `(key, value)` pairs, in order.
fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
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
/// a self-contained JSON object: `histograms` maps each name to its `count`, `sum`, `min`,
/// `max`, `mean`, `p50`, `p90` and `p99`; `counters` maps each name to its value; `trace`
/// holds the `threads`, `events` and `dropped` totals.
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    let histograms = snapshot.histograms.iter().map(|(name, h)| {
        let (min, max) = if h.is_empty() { (0, 0) } else { (h.min, h.max) };
        let summary = obj([
            ("count", int(h.count)),
            ("sum", int(h.sum)),
            ("min", int(min)),
            ("max", int(max)),
            ("mean", Value::Float(h.mean())),
            ("p50", int(h.p50())),
            ("p90", int(h.p90())),
            ("p99", int(h.p99())),
        ]);
        (name.clone(), summary)
    });
    let counters = snapshot
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), int(*v)));
    let trace = &snapshot.trace;
    obj([
        ("histograms", Value::Obj(histograms.collect())),
        ("counters", Value::Obj(counters.collect())),
        (
            "trace",
            obj([
                ("threads", int(trace.threads.len() as u64)),
                ("events", int(trace.total_events() as u64)),
                ("dropped", int(trace.total_dropped())),
            ]),
        ),
    ])
    .to_json()
}

/// Serializes the full span trace in Chrome trace-event format: a JSON object with a
/// `traceEvents` array of `B`/`E`/`i` phase records (`pid` 1, `tid` per producer thread,
/// timestamps in microseconds). Load the file in `chrome://tracing` or Perfetto.
pub fn chrome_json(snapshot: &TelemetrySnapshot) -> String {
    let events = snapshot.trace.threads.iter().flat_map(|t| {
        t.events.iter().map(|e| {
            let ph = match e.kind {
                crate::SpanEventKind::Begin => "B",
                crate::SpanEventKind::End => "E",
                crate::SpanEventKind::Instant => "i",
            };
            let mut event = vec![
                ("name", Value::Str(e.name.to_owned())),
                ("ph", Value::Str(ph.to_owned())),
                ("pid", Value::Int(1)),
                ("tid", int(u64::from(t.tid))),
                ("ts", Value::Float(e.ts_ns as f64 / 1e3)),
            ];
            if ph == "i" {
                event.push(("s", Value::Str("t".to_owned())));
            }
            obj(event)
        })
    });
    obj([
        ("traceEvents", Value::Arr(events.collect())),
        ("displayTimeUnit", Value::Str("ms".to_owned())),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Telemetry};

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
        let doc = json::parse(&to_json(&sample())).expect("valid JSON");
        let flush = doc
            .get("histograms")
            .and_then(|h| h.get("flush_ns"))
            .unwrap();
        for key in ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"] {
            assert!(flush.get(key).is_some(), "{key}");
        }
        assert_eq!(flush.get("count").and_then(Value::as_int), Some(2));
        assert_eq!(flush.get("sum").and_then(Value::as_int), Some(41_500));
        assert_eq!(flush.get("mean").and_then(Value::as_f64), Some(20_750.0));
        let events = doc.get("counters").and_then(|c| c.get("events"));
        assert_eq!(events.and_then(Value::as_int), Some(42));
        let trace = doc.get("trace").unwrap();
        assert_eq!(trace.get("events").and_then(Value::as_int), Some(3));
        assert_eq!(trace.get("dropped").and_then(Value::as_int), Some(0));
    }

    #[test]
    fn chrome_trace_has_paired_events() {
        let doc = json::parse(&chrome_json(&sample())).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        let phase = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap().to_owned();
        let phases: Vec<String> = events.iter().map(phase).collect();
        assert_eq!(phases, ["B", "i", "E"]);
        for e in events {
            assert_eq!(e.get("pid").and_then(Value::as_int), Some(1));
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
        }
        assert_eq!(events[1].get("s").and_then(Value::as_str), Some("t"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let name = "a\"b\\c\nd\u{1}e";
        let t = Telemetry::enabled();
        t.add(name, 7);
        drop(t.span(name));
        let snapshot = t.snapshot();
        let doc = json::parse(&chrome_json(&snapshot)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("name").and_then(Value::as_str), Some(name));
        }
        let summary = json::parse(&to_json(&snapshot)).expect("valid JSON");
        let counter = summary.get("counters").and_then(|c| c.get(name));
        assert_eq!(counter.and_then(Value::as_int), Some(7));
    }

    #[test]
    fn ns_formatting_picks_sane_units() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(12_500), "12.5us");
        assert_eq!(fmt_ns(42_000_000), "42.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
