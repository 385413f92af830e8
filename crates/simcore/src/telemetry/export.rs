//! Export back-ends for the flight recorder and run reports.
//!
//! The workspace deliberately carries no `serde_json`, so the three
//! run-report formats are emitted by hand here with stable key order —
//! identical runs must yield byte-identical exports:
//!
//! - JSON primitives ([`json_escape`], [`jstr`], [`jnum`]) used by the
//!   JSONL run report downstream,
//! - [`chrome_trace`]: Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`) with sim-time B/E spans and instant events,
//! - [`PromText`]: Prometheus text exposition (counters, gauges,
//!   histograms),
//! - [`json`]: a dependency-free validator the exporter tests and the
//!   CI telemetry leg run over every emitted document.

use super::profiler::PhaseProfiler;
use super::recorder::{FlightRecorder, Value};

/// Escape a string for embedding inside JSON quotes.
pub fn json_escape(s: &str) -> String {
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

/// A quoted, escaped JSON string literal.
pub fn jstr(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// A JSON number: shortest round-trip form; non-finite becomes `null`.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render a field value as a JSON fragment (strings resolved against
/// the recorder's interner).
pub fn value_json(rec: &FlightRecorder, v: Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => jnum(x),
        Value::Bool(x) => x.to_string(),
        Value::Str(id) => jstr(rec.tag_name(id)),
    }
}

fn fields_json(rec: &FlightRecorder, fields: &super::recorder::FieldSet) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&jstr(rec.tag_name(k)));
        s.push(':');
        s.push_str(&value_json(rec, v));
    }
    s.push('}');
    s
}

/// Render the recorder as Chrome trace-event JSON. Spans become
/// balanced `B`/`E` pairs and instants become `i` events, all on
/// sim-time microsecond timestamps sorted ascending; `group_name` maps
/// a track group to the process name shown in the timeline UI. With
/// `phases`, each profiled phase's wall-clock call count and total go
/// into the trace's `otherData` (the trace viewer's metadata panel);
/// without them the document is sim-time only.
pub fn chrome_trace<F: Fn(u32) -> String>(
    rec: &FlightRecorder,
    phases: Option<&PhaseProfiler>,
    group_name: F,
) -> String {
    // (ts, seq) keyed rows: a stable sort on ts keeps each span's B
    // before its E (inserted in that order) and zero-length spans sane.
    let mut rows: Vec<(i64, String)> = Vec::with_capacity(rec.len() * 2 + 8);
    let mut groups: Vec<u32> = Vec::new();
    for ev in rec.iter() {
        if !groups.contains(&ev.track.group) {
            groups.push(ev.track.group);
        }
        let name = jstr(rec.tag_name(ev.tag));
        let args = fields_json(rec, &ev.fields);
        let (pid, tid) = (ev.track.group, ev.track.lane);
        match ev.end {
            Some(end) => {
                rows.push((
                    ev.t.as_micros(),
                    format!(
                        "{{\"name\":{name},\"ph\":\"B\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                        ev.t.as_micros()
                    ),
                ));
                rows.push((
                    end.as_micros(),
                    format!(
                        "{{\"name\":{name},\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}}}",
                        end.as_micros()
                    ),
                ));
            }
            None => rows.push((
                ev.t.as_micros(),
                format!(
                    "{{\"name\":{name},\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",\"args\":{args}}}",
                    ev.t.as_micros()
                ),
            )),
        }
    }
    rows.sort_by_key(|&(ts, _)| ts);
    groups.sort_unstable();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for g in groups {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{g},\"tid\":0,\"args\":{{\"name\":{}}}}}",
            jstr(&group_name(g))
        ));
    }
    for (_, row) in rows {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&row);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    if let Some(prof) = phases.filter(|p| p.rows().next().is_some()) {
        let fields: Vec<String> = prof
            .rows()
            .flat_map(|(phase, acc)| {
                [
                    format!("\"phase.{}.count\":{}", phase.name(), acc.count),
                    format!("\"phase.{}.total_ns\":{}", phase.name(), acc.total_ns),
                ]
            })
            .collect();
        out.push_str(&format!(",\"otherData\":{{{}}}", fields.join(",")));
    }
    out.push('}');
    out
}

/// Prometheus text-exposition writer.
#[derive(Debug, Clone, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Emit a histogram from cumulative `(le, count)` buckets. The
    /// implicit `+Inf` bucket is written from `count`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        buckets: &[(f64, u64)],
        sum: f64,
        count: u64,
    ) {
        self.header(name, help, "histogram");
        for &(le, c) in buckets {
            self.out
                .push_str(&format!("{name}_bucket{{le=\"{le}\"}} {c}\n"));
        }
        self.out
            .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        self.out.push_str(&format!("{name}_sum {sum}\n"));
        self.out.push_str(&format!("{name}_count {count}\n"));
    }

    pub fn finish(self) -> String {
        self.out
    }
}

/// A minimal recursive-descent JSON validator. Exists so exporter
/// tests and the CI telemetry leg can verify emitted documents without
/// pulling a JSON dependency into the workspace.
pub mod json {
    /// Validate that `s` is exactly one well-formed JSON value.
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at offset {i}"));
        }
        Ok(())
    }

    /// Validate every non-empty line of a JSONL document.
    pub fn validate_lines(s: &str) -> Result<usize, String> {
        let mut n = 0;
        for (ln, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            validate(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            n += 1;
        }
        Ok(n)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        if *i >= b.len() {
            return Err("unexpected end of input".into());
        }
        match b[*i] {
            b'{' => object(b, i),
            b'[' => array(b, i),
            b'"' => string(b, i),
            b't' => literal(b, i, "true"),
            b'f' => literal(b, i, "false"),
            b'n' => literal(b, i, "null"),
            b'-' | b'0'..=b'9' => number(b, i),
            c => Err(format!("unexpected byte {:?} at {}", c as char, *i)),
        }
    }

    fn literal(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
        if b[*i..].starts_with(lit.as_bytes()) {
            *i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at {}", *i))
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // {
        skip_ws(b, i);
        if *i < b.len() && b[*i] == b'}' {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            string(b, i)?;
            skip_ws(b, i);
            if *i >= b.len() || b[*i] != b':' {
                return Err(format!("expected ':' at {}", *i));
            }
            *i += 1;
            skip_ws(b, i);
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at {}", *i)),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
        *i += 1; // [
        skip_ws(b, i);
        if *i < b.len() && b[*i] == b']' {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at {}", *i)),
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        if *i >= b.len() || b[*i] != b'"' {
            return Err(format!("expected string at {}", *i));
        }
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        Some(b'u') => {
                            if b.len() < *i + 5
                                || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return Err(format!("bad \\u escape at {}", *i));
                            }
                            *i += 5;
                        }
                        _ => return Err(format!("bad escape at {}", *i)),
                    }
                }
                0x00..=0x1f => return Err(format!("raw control byte in string at {}", *i)),
                _ => *i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
        let start = *i;
        if b[*i] == b'-' {
            *i += 1;
        }
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        if *i < b.len() && b[*i] == b'.' {
            *i += 1;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
        }
        if *i < b.len() && matches!(b[*i], b'e' | b'E') {
            *i += 1;
            if *i < b.len() && matches!(b[*i], b'+' | b'-') {
                *i += 1;
            }
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
        }
        let tok = &b[start..*i];
        if tok.is_empty() || tok == b"-" || !tok.iter().any(u8::is_ascii_digit) {
            return Err(format!("bad number at {start}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::recorder::{FlightRecorder, Track, Value};
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn escaping_and_numbers() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(jstr("x\t"), "\"x\\t\"");
        assert_eq!(jnum(1.5), "1.5");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(f64::INFINITY), "null");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e4,true,false,null,\"s\\n\"]}",
            "  {\"nested\":{\"x\":[{}]}} ",
        ] {
            json::validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "nul",
        ] {
            assert!(json::validate(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(json::validate_lines("{}\n\n[1]\n").unwrap(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_balanced_and_monotonic() {
        let mut r = FlightRecorder::enabled(16);
        let span_tag = r.tag("job.edge");
        let inst_tag = r.tag("watchdog.temp_band");
        let k = r.tag("temp_c");
        r.span(
            SimTime::from_secs(1),
            SimTime::from_secs(3),
            span_tag,
            Track::new(1, 0),
            [],
        );
        r.instant(
            SimTime::from_secs(2),
            inst_tag,
            Track::PLATFORM,
            [(k, Value::F64(14.2))],
        );
        r.span(
            SimTime::from_secs(2),
            SimTime::from_secs(2),
            span_tag,
            Track::new(1, 1),
            [],
        );
        let trace = chrome_trace(&r, None, |g| format!("group {g}"));
        json::validate(&trace).unwrap();
        assert_eq!(trace.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"i\"").count(), 1);
        assert_eq!(trace.matches("\"ph\":\"M\"").count(), 2);
        assert!(trace.contains("\"group 1\""));
        // Timestamps appear in non-decreasing order.
        let ts: Vec<i64> = trace
            .split("\"ts\":")
            .skip(1)
            .map(|s| {
                s.split(&[',', '}'][..])
                    .next()
                    .unwrap()
                    .parse::<i64>()
                    .unwrap()
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
    }

    #[test]
    fn chrome_trace_carries_phase_totals_only_when_profiled() {
        use crate::telemetry::profiler::Phase;
        let r = FlightRecorder::enabled(8);
        let bare = chrome_trace(&r, None, |g| format!("group {g}"));
        // A disabled profiler adds nothing: untraced documents are unchanged.
        let off = PhaseProfiler::disabled();
        assert_eq!(chrome_trace(&r, Some(&off), |g| format!("group {g}")), bare);
        let mut prof = PhaseProfiler::enabled();
        prof.record_ns(Phase::Regulate, 1_500);
        prof.record_ns(Phase::Drain, 70);
        let trace = chrome_trace(&r, Some(&prof), |g| format!("group {g}"));
        json::validate(&trace).unwrap();
        assert!(trace.contains("\"phase.regulate.total_ns\":1500"));
        assert!(trace.contains("\"phase.drain.count\":1"));
        assert!(
            !trace.contains("control_tick"),
            "unrecorded phases are omitted"
        );
    }

    #[test]
    fn prometheus_text_shape() {
        let mut p = PromText::new();
        p.counter("df3_edge_completed_total", "edge completions", 42);
        p.gauge("df3_pue", "platform PUE", 1.25);
        p.histogram(
            "df3_edge_response_ms",
            "edge response",
            &[(50.0, 10), (200.0, 40)],
            1234.5,
            41,
        );
        let s = p.finish();
        assert!(s.contains("# TYPE df3_edge_completed_total counter"));
        assert!(s.contains("df3_edge_completed_total 42\n"));
        assert!(s.contains("df3_edge_response_ms_bucket{le=\"+Inf\"} 41\n"));
        assert!(s.contains("df3_edge_response_ms_sum 1234.5\n"));
        assert!(s.contains("df3_edge_response_ms_count 41\n"));
        // Every sample line parses as `name{labels?} float`.
        for line in s.lines().filter(|l| !l.starts_with('#')) {
            let (_, val) = line.rsplit_once(' ').expect("name value");
            val.parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line}"));
        }
    }
}
