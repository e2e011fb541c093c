//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the index of the span that was open when it began, and
//! the cell it worked for (`<kernel>/<config>`). Spans are kept in
//! memory for the whole run and written out only when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

use axmemo_telemetry::escape_json;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `compiler.search`.
    pub name: &'static str,
    /// Cell the call worked for, `<kernel>/<config>`.
    pub cell: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans around closures.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `cell`. Spans opened by `f`
    /// (through the tracer it is handed) become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals` (`[start, end)` pairs).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children may overlap; the union is taken).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(union_ns(c)))
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// Append `s` to `out` as a JSON string literal.
pub fn json_string(s: &str, out: &mut String) {
    out.push('"');
    escape_json(s, out);
    out.push('"');
}

/// The spans as a JSON array of objects.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":");
        json_string(s.name, &mut out);
        out.push_str(",\"cell\":");
        json_string(&s.cell, &mut out);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.start_ns, s.end_ns
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            cell: "k/c".to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_ns(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["root"] - 30e-9).abs() < 1e-15);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("pool", 0, 100, None),
            span("w0", 0, 60, Some(0)),
            span("w1", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 60, 40]);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::default();
        let v = t.span("outer", "k/x", |t| {
            t.span("inner", "k/x", |_| 1) + t.span("inner", "k/y", |_| 2)
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(spans_json(s).starts_with("[{\"name\":\"outer\",\"cell\":\"k/x\""));
    }
}
