//! In-memory spans recorded around calls into each layer, written at exit
//! as Chrome trace-event JSON (opens in Perfetto and `chrome://tracing`).
//!
//! Spans are recorded only by the benchmark's own code, around public calls
//! into the library; nothing inside the library is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `layer.fwd.hidden`.
    pub name: String,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or step id shared by the spans of one unit of work.
    pub id: u64,
    /// Trace row the viewer draws the span on.
    pub track: u32,
}

impl Span {
    /// Duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span store with one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// µs of `t` since the origin.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3
    }

    /// Records a finished span and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
        track: u32,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            id,
            track,
        };
        self.push(span)
    }

    /// Records a span given in µs since the origin.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}{sep}",
                json_string(&s.name),
                s.start_us,
                s.dur_us().max(0.0),
                s.track,
                s.id
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest or overlap each other; the
/// covered part is the union of their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_us);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_us: start, end_us: end, parent, id: 7, track: 0 }
    }

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        let spans = vec![
            span("step", 0.0, 100.0, None),
            // Two overlapping children of the step: union is [10, 50).
            span("fwd", 10.0, 40.0, Some(0)),
            span("loss", 30.0, 50.0, Some(0)),
            // A grandchild nested in fwd: covers fwd, not the step directly.
            span("kernel", 15.0, 25.0, Some(1)),
            // A child running past its parent's end is clipped.
            span("sgd", 90.0, 120.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100.0 - 40.0 - 10.0);
        assert_eq!(own[1], 30.0 - 10.0);
        assert_eq!(own[2], 20.0);
        assert_eq!(own[3], 10.0);
        assert_eq!(own[4], 30.0);
        // Self times of the whole tree add up to the root's duration when no
        // child overlaps another or runs past its parent.
        let disjoint = vec![
            span("step", 0.0, 100.0, None),
            span("a", 0.0, 30.0, Some(0)),
            span("b", 30.0, 90.0, Some(0)),
            span("b1", 40.0, 60.0, Some(2)),
        ];
        let total: f64 = self_times(&disjoint).iter().sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut t = Tracer::new(Instant::now());
        t.push(span("a\"b", 1.0, 3.5, None));
        t.push(span("c", 2.0, 3.0, Some(0)));
        let json = t.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
