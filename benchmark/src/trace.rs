//! In-memory spans for the traced run, their per-layer self times, and
//! their export as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; nothing inside the program is instrumented. A span
//! is kept in memory until the run ends and is written out then, so
//! recording costs two clock reads and a vector push.

use serde::Value;
use std::time::Instant;

/// One recorded call: which layer it entered, when, and under which
/// enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// The day, cell or event the span worked on.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// A call repeated beside the real path only to time it alone; kept
    /// in the trace, left out of self times.
    pub side: bool,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, id: u64) {
        self.open_span(name, layer, id, false);
    }

    /// Open a side span: a call repeated only to be timed alone.
    pub fn begin_side(&mut self, name: &'static str, layer: &'static str, id: u64) {
        self.open_span(name, layer, id, true);
    }

    fn open_span(&mut self, name: &'static str, layer: &'static str, id: u64, side: bool) {
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            layer,
            id,
            start_ns,
            end_ns: start_ns,
            parent,
            side,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let now = self.ns(Instant::now());
        let index = self.open.pop().expect("end() without a matching begin()");
        let span = &mut self.spans[index];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Self time per layer in ns: each span's duration minus the part
    /// its direct children cover, summed by layer, in first-seen order.
    /// Side spans are left out.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(child_ns).filter(|(s, _)| !s.side) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            match layers.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += own,
                None => layers.push((span.layer, own)),
            }
        }
        layers
    }

    /// The spans as Chrome trace "complete" events on track `tid`
    /// (microsecond timestamps, as the format expects).
    pub fn chrome_events(&self, tid: u64) -> Vec<Value> {
        self.spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let mut args = vec![
                    ("id".to_string(), Value::UInt(span.id)),
                    ("span".to_string(), Value::UInt(index as u64)),
                ];
                if let Some(p) = span.parent {
                    args.push(("parent".to_string(), Value::UInt(p as u64)));
                }
                if span.side {
                    args.push(("side".to_string(), Value::Bool(true)));
                }
                Value::Object(vec![
                    ("name".to_string(), Value::Str(span.name.to_string())),
                    ("cat".to_string(), Value::Str(span.layer.to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(span.start_ns as f64 / 1e3)),
                    (
                        "dur".to_string(),
                        Value::Float((span.end_ns - span.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(tid)),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect()
    }
}

/// The Chrome metadata event naming track `tid`.
pub fn track_name(tid: u64, name: &str) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str("thread_name".to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(1)),
        ("tid".to_string(), Value::UInt(tid)),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(name.to_string()))]),
        ),
    ])
}

/// A Chrome trace document holding `events`.
pub fn chrome_document(events: Vec<Value>) -> Value {
    Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.begin("day", "core", 0);
        t.begin("assess", "defense", 0);
        std::thread::sleep(Duration::from_millis(2));
        t.end();
        t.end();
        let layers = t.self_times();
        assert_eq!(
            layers.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec!["core", "defense"]
        );
        let total: u64 = layers.iter().map(|(_, ns)| ns).sum();
        let root = &t.spans[0];
        assert_eq!(
            total,
            root.end_ns - root.start_ns,
            "self times partition the root span"
        );
        assert!(layers[1].1 >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn chrome_events_round_trip_through_json() {
        let mut t = Tracer::new();
        t.begin("cell", "core", 7);
        t.end();
        let mut events = vec![track_name(3, "posture-sweep")];
        events.extend(t.chrome_events(3));
        let text = crate::json::render(&chrome_document(events));
        let back = serde_json::parse(&text).unwrap();
        let events = back.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("id"))
                .and_then(Value::as_u64),
            Some(7)
        );
    }
}
