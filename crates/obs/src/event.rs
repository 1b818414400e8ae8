//! Structured events, spans and the collector interface.

use std::fmt::Write as _;
use std::time::Instant;

/// Severity of an [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// High-volume pipeline detail (per-step spans).
    Debug,
    /// Normal operational milestones (rule registered, device dispatched).
    Info,
    /// Degradations worth surfacing (type mismatch, dispatch failure).
    Warn,
    /// Hard failures.
    Error,
}

impl Level {
    /// The logfmt label.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A field value attached to an event. Small closed set so sinks can render
/// without reflection.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Text.
    Str(String),
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Duration in nanoseconds (rendered with a unit suffix).
    DurationNs(u64),
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> FieldValue {
        FieldValue::Str(s.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> FieldValue {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

/// One structured event. Span ends are events whose `elapsed_ns` is set.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Dotted event name, e.g. `engine.step` or `engine.type_mismatch`.
    pub name: &'static str,
    /// Severity.
    pub level: Level,
    /// Wall-clock duration for span-end events, `None` for point events.
    pub elapsed_ns: Option<u64>,
    /// Key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Creates a point event with no fields.
    pub fn new(name: &'static str, level: Level) -> Event {
        Event {
            name,
            level,
            elapsed_ns: None,
            fields: Vec::new(),
        }
    }

    /// Adds a field (builder style).
    pub fn with_field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Whether this event is the end of a span.
    pub fn is_span(&self) -> bool {
        self.elapsed_ns.is_some()
    }
}

/// Receives events from instrumented code. Implementations must be cheap
/// and non-blocking: collectors run inline on the hot paths.
pub trait Collector: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);
}

/// An RAII span: created at the top of a pipeline stage, emits a
/// duration-stamped [`Event`] on drop. When observability is disabled the
/// constructor reads no clock and the drop does nothing.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    level: Level,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// Starts a span at [`Level::Debug`] (the level of per-step detail).
    pub fn new(name: &'static str) -> Span {
        Span::with_level(name, Level::Debug)
    }

    /// Starts a span at an explicit level.
    pub fn with_level(name: &'static str, level: Level) -> Span {
        Span {
            name,
            level,
            start: crate::enabled().then(Instant::now),
            fields: Vec::new(),
        }
    }

    /// Whether the span is live (observability was enabled at creation).
    /// Use to skip building expensive field values.
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches a field to the span-end event. No-op on inactive spans.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::emit(Event {
                name: self.name,
                level: self.level,
                elapsed_ns: Some(elapsed_ns),
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

fn push_duration(out: &mut String, ns: u64) {
    if ns >= 1_000_000_000 {
        let _ = write!(out, "{:.3}s", ns as f64 / 1e9);
    } else if ns >= 1_000_000 {
        let _ = write!(out, "{:.3}ms", ns as f64 / 1e6);
    } else if ns >= 1_000 {
        let _ = write!(out, "{:.3}us", ns as f64 / 1e3);
    } else {
        let _ = write!(out, "{ns}ns");
    }
}

fn logfmt_escape(out: &mut String, s: &str) {
    if s.contains([' ', '"', '=']) || s.is_empty() {
        let _ = write!(out, "{s:?}");
    } else {
        out.push_str(s);
    }
}

/// Renders one event as a logfmt line (`level=info event=... k=v ...`),
/// without a trailing newline.
pub fn format_logfmt(event: &Event) -> String {
    let mut out = String::with_capacity(64);
    let _ = write!(out, "level={} event=", event.level.as_str());
    logfmt_escape(&mut out, event.name);
    if let Some(ns) = event.elapsed_ns {
        out.push_str(" elapsed=");
        push_duration(&mut out, ns);
    }
    for (key, value) in &event.fields {
        let _ = write!(out, " {key}=");
        match value {
            FieldValue::Str(s) => logfmt_escape(&mut out, s),
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::DurationNs(ns) => push_duration(&mut out, *ns),
        }
    }
    out
}

fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one event as a single JSON object (one JSON-lines record),
/// without a trailing newline.
pub fn format_json(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"level\":\"{}\",\"event\":", event.level.as_str());
    json_escape(&mut out, event.name);
    if let Some(ns) = event.elapsed_ns {
        let _ = write!(out, ",\"elapsed_ns\":{ns}");
    }
    for (key, value) in &event.fields {
        out.push(',');
        json_escape(&mut out, key);
        out.push(':');
        match value {
            FieldValue::Str(s) => json_escape(&mut out, s),
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::DurationNs(ns) => {
                let _ = write!(out, "{ns}");
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logfmt_renders_fields_and_escapes() {
        let event = Event::new("upnp.invoke_failed", Level::Warn)
            .with_field("device", "tv lr")
            .with_field("attempts", 3u64)
            .with_field("fatal", false)
            .with_field("took", FieldValue::DurationNs(1_500));
        let line = format_logfmt(&event);
        assert_eq!(
            line,
            "level=warn event=upnp.invoke_failed device=\"tv lr\" attempts=3 fatal=false took=1.500us"
        );
    }

    #[test]
    fn json_renders_valid_records() {
        let event = Event::new("engine.type_mismatch", Level::Warn)
            .with_field("rule", 7u64)
            .with_field("label", "say \"hi\"");
        let line = format_json(&event);
        assert_eq!(
            line,
            "{\"level\":\"warn\",\"event\":\"engine.type_mismatch\",\"rule\":7,\"label\":\"say \\\"hi\\\"\"}"
        );
    }

    // Inactive-span behaviour (no clock read, no emission while disabled)
    // is asserted in `tests/disabled_noop.rs` alongside the other
    // disabled-path guarantees.

    #[test]
    fn duration_formatting_picks_units() {
        let mut s = String::new();
        push_duration(&mut s, 999);
        assert_eq!(s, "999ns");
        s.clear();
        push_duration(&mut s, 2_500_000);
        assert_eq!(s, "2.500ms");
        s.clear();
        push_duration(&mut s, 3_200_000_000);
        assert_eq!(s, "3.200s");
    }
}
