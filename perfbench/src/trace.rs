//! In-memory spans for the traced per-layer run.
//!
//! The benchmark opens a span around each call it makes into a layer;
//! spans of one request share a request id and point at the span that
//! caused them. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `wire.parse`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration, ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans on one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A tracer that records nothing: the same call sites run untraced,
    /// which is what the tracing overhead is measured against.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Tags every span opened from now on with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        // read the clock last, so the bookkeeping above is not charged
        self.spans[id].start = self.now();
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = end;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total time and self time. A span's self time is
    /// its duration minus the part of its interval that its children
    /// cover (overlapping children are counted once).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration();
            t.self_ns += s.duration() - covered.min(s.duration());
        }
        out
    }

    /// Writes the first `limit` spans as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write, limit: usize) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 7,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new();
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        // request [0,100] with children [10,30] and [40,70]; the second
        // child has its own child [45,55]
        let t = tracer_with(vec![
            span("request", 0, 100, None),
            span("wire.parse", 10, 30, Some(0)),
            span("pipeline", 40, 70, Some(0)),
            span("line.match", 45, 55, Some(2)),
        ]);
        let totals = t.totals();
        assert_eq!(totals["request"].total_ns, 100);
        assert_eq!(totals["request"].self_ns, 50);
        assert_eq!(totals["wire.parse"].self_ns, 20);
        assert_eq!(totals["pipeline"].self_ns, 20);
        assert_eq!(totals["line.match"].self_ns, 10);
        // self times of one request partition its total
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let t = tracer_with(vec![
            span("batch", 0, 100, None),
            span("worker", 10, 60, Some(0)),
            span("worker", 40, 90, Some(0)),
            span("late", 95, 120, Some(0)), // clipped to the parent's end
        ]);
        let totals = t.totals();
        assert_eq!(totals["batch"].self_ns, 100 - 80 - 5);
        assert_eq!(totals["worker"].count, 2);
        assert_eq!(totals["worker"].total_ns, 100);
    }

    #[test]
    fn nested_spans_record_parents_and_request_ids() {
        let mut t = Tracer::new();
        t.set_request(3);
        let root = t.open("request");
        let parse = t.open("wire.parse");
        t.close(parse);
        t.close(root);
        t.set_request(4);
        let next = t.open("request");
        t.close(next);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].request), (Some(0), 3));
        assert_eq!((s[2].parent, s[2].request), (None, 4));
        assert!(s.iter().all(|s| s.end >= s.start));
        let mut out = Vec::new();
        t.write_jsonl(&mut out, usize::MAX).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        let mut first = Vec::new();
        t.write_jsonl(&mut first, 2).unwrap();
        assert_eq!(String::from_utf8(first).unwrap().lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let a = t.open("a");
        let b = t.open("b");
        t.close(a); // no bookkeeping, so no ordering to violate either
        t.close(b);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a);
    }
}
