//! Exporters: JSONL event dumps (one object per line, with a matching
//! parser so tests can round-trip a trace file), the Chrome
//! `trace_event` format for `about://tracing` / Perfetto, and a JSON
//! rendering of a registry snapshot.
//!
//! JSON is written and read by hand — the workspace is hermetic (no
//! serde); the grammar here is the tiny subset our own exporters emit:
//! one-level objects with string/number values plus a flat `fields`
//! object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::events::{Fields, Stage, TraceEvent};
use crate::metrics::{MetricValue, RegistrySnapshot};

/// Escape a string for a JSON string literal.
fn esc(s: &str, out: &mut String) {
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
}

/// Format an f64 the way our parser reads it back (finite shortest
/// round-trip; non-finite values become 0).
fn num(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// One event as a single-line JSON object.
fn event_json(e: &TraceEvent, out: &mut String) {
    let _ = write!(
        out,
        "{{\"at_us\":{},\"corr\":{},\"stage\":\"",
        e.at_us, e.corr
    );
    out.push_str(e.stage.name());
    out.push_str("\",\"component\":\"");
    esc(&e.component, out);
    out.push_str("\",\"name\":\"");
    esc(&e.name, out);
    out.push_str("\",\"fields\":{");
    for (i, (k, v)) in e.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        esc(k, out);
        out.push_str("\":");
        num(*v, out);
    }
    out.push_str("}}");
}

/// Serialize events as JSONL: one JSON object per line.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        event_json(e, &mut out);
        out.push('\n');
    }
    out
}

// ------------------------------------------------------------------
// Minimal JSON value parser (objects, numbers, strings) — enough to
// round-trip our own JSONL output.
// ------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        while self.i < self.b.len() {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                c => {
                    // Re-decode multi-byte UTF-8 from the original str.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.i - 1;
                        let mut end = self.i;
                        while end < self.b.len() && (self.b[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.b[start..end]).map_err(|e| e.to_string())?,
                        );
                        self.i = end;
                    }
                }
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'"' => Ok(Json::Str(self.string()?)),
            _ => Ok(Json::Num(self.number()?)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

/// Parse one JSONL line back into a [`TraceEvent`].
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let Json::Obj(obj) = Parser::new(line).object()? else {
        return Err("not an object".into());
    };
    let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let num_of = |k: &str| -> Result<f64, String> {
        match get(k) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing numeric field '{k}'")),
        }
    };
    let str_of = |k: &str| -> Result<String, String> {
        match get(k) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("missing string field '{k}'")),
        }
    };
    let stage_name = str_of("stage")?;
    let stage =
        Stage::from_name(&stage_name).ok_or_else(|| format!("unknown stage '{stage_name}'"))?;
    let mut fields = Fields::new();
    if let Some(Json::Obj(fs)) = get("fields") {
        for (k, v) in fs {
            if let Json::Num(n) = v {
                fields.push(k, *n);
            }
        }
    }
    Ok(TraceEvent {
        at_us: num_of("at_us")? as u64,
        corr: num_of("corr")? as u64,
        stage,
        component: str_of("component")?.into(),
        name: str_of("name")?.into(),
        fields,
    })
}

/// Parse a whole JSONL dump (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_event)
        .collect()
}

/// Serialize events in the Chrome `trace_event` format (load the file
/// in `about://tracing` or Perfetto). Each event becomes a complete
/// ("X") slice on its component's thread row; each correlation id that
/// both begins (detect) and ends (back-in-spec) becomes an async span
/// stretching over the whole lifecycle.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    // Stable component → tid mapping, in order of first appearance.
    let mut tids: Vec<&str> = Vec::new();
    let mut tid_of = BTreeMap::new();
    for e in events {
        if !tid_of.contains_key(e.component.as_str()) {
            tid_of.insert(e.component.as_str(), tids.len() as u64);
            tids.push(&e.component);
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool, line: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };
    // Thread-name metadata so rows are labeled by component.
    for (i, c) in tids.iter().enumerate() {
        let mut name = String::new();
        esc(c, &mut name);
        emit(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }
    // Per-stage slices.
    for e in events {
        let tid = tid_of[e.component.as_str()];
        let mut line = String::new();
        line.push_str("{\"name\":\"");
        esc(e.stage.name(), &mut line);
        line.push_str(": ");
        esc(&e.name, &mut line);
        let _ = write!(
            line,
            "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"corr\":{}",
            e.stage.name(),
            e.at_us,
            e.corr
        );
        for (k, v) in &e.fields {
            line.push_str(",\"");
            esc(k, &mut line);
            line.push_str("\":");
            num(*v, &mut line);
        }
        line.push_str("}}");
        emit(&mut out, &mut first, &line);
    }
    // Async lifecycle spans per correlation id.
    let mut spans: BTreeMap<u64, (Option<u64>, Option<u64>, String)> = BTreeMap::new();
    for e in events.iter().filter(|e| e.corr != 0) {
        let entry = spans
            .entry(e.corr)
            .or_insert_with(|| (None, None, e.name.to_string()));
        match e.stage {
            Stage::Detect => entry.0 = Some(entry.0.unwrap_or(e.at_us).min(e.at_us)),
            Stage::BackInSpec => entry.1 = Some(entry.1.unwrap_or(e.at_us).max(e.at_us)),
            _ => {}
        }
    }
    for (corr, (begin, end, name)) in &spans {
        if let (Some(b), Some(e)) = (begin, end) {
            let mut n = String::new();
            esc(name, &mut n);
            emit(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"violation {n}\",\"cat\":\"lifecycle\",\"ph\":\"b\",\
                     \"id\":{corr},\"ts\":{b},\"pid\":1,\"tid\":0,\"args\":{{}}}}"
                ),
            );
            emit(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"violation {n}\",\"cat\":\"lifecycle\",\"ph\":\"e\",\
                     \"id\":{corr},\"ts\":{e},\"pid\":1,\"tid\":0,\"args\":{{}}}}"
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render a registry snapshot as a JSON object keyed
/// `family{label}` → value (histograms become `{count, p50, p95, max,
/// mean}` summaries).
pub fn metrics_to_json(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::from("{\n");
    for (i, m) in snapshot.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  \"");
        esc(&m.family, &mut out);
        if !m.label.is_empty() {
            out.push('{');
            esc(&m.label, &mut out);
            out.push('}');
        }
        out.push_str("\": ");
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge(v) => num(*v, &mut out),
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"count\":{},\"p50\":{},\"p95\":{},\"max\":{},\"mean\":",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.max
                );
                num(h.mean(), &mut out);
                out.push('}');
            }
        }
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at_us: 100,
                corr: 7,
                stage: Stage::Detect,
                component: "client-0".into(),
                name: "example1".into(),
                fields: vec![("fps", 19.5), ("cond", 2.0)].into(),
            },
            TraceEvent {
                at_us: 250,
                corr: 7,
                stage: Stage::BackInSpec,
                component: "client-0".into(),
                name: "example1".into(),
                fields: Fields::new(),
            },
            TraceEvent {
                at_us: 300,
                corr: 0,
                stage: Stage::Mark,
                component: "sim".into(),
                name: "tick \"q\"\\n".into(),
                fields: vec![("depth", 4.0)].into(),
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip() {
        let evs = sample_events();
        let text = to_jsonl(&evs);
        assert_eq!(text.lines().count(), 3);
        let back = parse_jsonl(&text).expect("parse own output");
        assert_eq!(back, evs, "round-trip must be lossless");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_event("not json").is_err());
        assert!(parse_event("{\"at_us\":1}").is_err(), "missing fields");
        assert!(
            parse_event(
                "{\"at_us\":1,\"corr\":0,\"stage\":\"nope\",\
                 \"component\":\"c\",\"name\":\"n\",\"fields\":{}}"
            )
            .is_err(),
            "unknown stage"
        );
    }

    #[test]
    fn chrome_trace_has_spans_and_slices() {
        let text = to_chrome_trace(&sample_events());
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\":\"X\""), "stage slices");
        assert!(
            text.contains("\"ph\":\"b\"") && text.contains("\"ph\":\"e\""),
            "async lifecycle span"
        );
        assert!(text.contains("thread_name"));
        // Balanced braces as a cheap well-formedness check.
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn metrics_json_renders_all_kinds() {
        use crate::metrics::Registry;
        let r = Registry::new();
        r.counter("c", "x").add(3);
        r.gauge("g", "").set(1.5);
        r.histogram("h", "lat").record(100);
        let json = metrics_to_json(&r.snapshot());
        #[cfg(not(feature = "telemetry-off"))]
        {
            assert!(json.contains("\"c{x}\": 3"), "{json}");
            assert!(json.contains("\"g\": 1.5"), "{json}");
            assert!(json.contains("\"count\":1"), "{json}");
        }
        #[cfg(feature = "telemetry-off")]
        assert_eq!(json, "{\n\n}\n");
    }
}
