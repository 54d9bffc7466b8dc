//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans live in memory while a run measures and are written out as JSON
//! lines when it ends. A layer's figure is its spans' self time: a span's
//! duration minus the part of its interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use retia_json::Value;

/// One recorded span. Times are nanoseconds from the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.evolve`.
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or step) the span belongs to.
    pub request: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = self.open.last().copied();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span whose bounds were measured elsewhere; returns its
    /// index for use as a parent.
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Self time in milliseconds of every span, grouped by name.
    pub fn self_times_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(
                s.start_ns,
                s.end_ns,
                children[i].iter().map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns)),
            );
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            out.entry(s.name.clone()).or_default().push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let mut v = Value::object();
            v.insert("id", Value::from(i));
            v.insert("name", Value::from(s.name.as_str()));
            v.insert("start_ns", Value::from(s.start_ns));
            v.insert("end_ns", Value::from(s.end_ns));
            v.insert("parent", s.parent.map_or(Value::Null, Value::from));
            v.insert("request", Value::from(s.request));
            writeln!(out, "{}", v.to_string_compact())?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.map(|(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::default();
        let root = t.record("step", 0, 100, None, 1);
        t.record("a", 10, 30, Some(root), 1);
        t.record("b", 20, 50, Some(root), 1); // overlaps a: union is 10..50
        t.record("c", 90, 120, Some(root), 1); // clipped to 90..100
        let times = t.self_times_ms();
        assert_eq!(times["step"], vec![50.0 / 1e6]);
        assert_eq!(times["a"], vec![20.0 / 1e6]);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::default();
        t.span("outer", 3, |t| t.span("inner", 3, |_| ()));
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
