//! Turning spans into a per-module time breakdown.
//!
//! Spans reach a [`Sink`] in *end order* per thread (guards drop children
//! before parents), which permits a one-pass exclusive-time computation:
//! per thread, keep an accumulator of completed child time per depth; a
//! span at depth `d` subtracts the accumulator at `d + 1` and adds its own
//! duration to the accumulator at `d`. That rule is coded once, in a
//! streaming accumulator with two inputs: `retia report` folds it over a
//! parsed `--trace-out` file ([`module_breakdown`]), and a
//! [`BreakdownSink`] feeds it live, so `retia train` and `retia evaluate`
//! print the rows `retia report` prints for the same run's trace.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::{Event, EventKind, Sink};
use retia_json::Value;

/// Aggregated time for one module (first dotted segment of span names).
#[derive(Clone, Debug, PartialEq)]
pub struct ModuleShare {
    /// Module name (`eam`, `ram`, `tim`, `decode`, `backward`, …).
    pub module: String,
    /// Spans aggregated into this module.
    pub count: u64,
    /// Inclusive nanoseconds.
    pub total_ns: u64,
    /// Exclusive nanoseconds (children subtracted).
    pub exclusive_ns: u64,
    /// Fraction of the summed exclusive time of the rows it was computed
    /// with, in percent. Shares over those rows sum to ~100 by construction.
    pub share_pct: f64,
}

/// Parses a JSON-lines trace, keeping line order. Fails on the first
/// malformed line with its 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = retia_json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(Event::from_json(&doc).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// First dotted segment of a span name.
fn module_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Fills in each row's share of the rows' summed exclusive time and sorts
/// them by exclusive time, descending.
pub(crate) fn with_shares(mut rows: Vec<ModuleShare>) -> Vec<ModuleShare> {
    let grand: u64 = rows.iter().map(|r| r.exclusive_ns).sum();
    for r in &mut rows {
        r.share_pct = if grand == 0 { 0.0 } else { 100.0 * r.exclusive_ns as f64 / grand as f64 };
    }
    rows.sort_by(|a, b| b.exclusive_ns.cmp(&a.exclusive_ns).then(a.module.cmp(&b.module)));
    rows
}

#[derive(Default)]
struct Acc {
    count: u64,
    total_ns: u64,
    exclusive_ns: u64,
}

/// The exclusive-time rule as a streaming accumulator. It keeps one row
/// per module and, per thread, the child time still awaiting an open
/// parent, so its size is bounded by the modules and the open nesting,
/// never by the length of the run.
#[derive(Default)]
struct Breakdown {
    modules: HashMap<String, Acc>,
    /// thread -> (depth -> completed child nanoseconds awaiting their parent)
    pending_child: HashMap<u64, HashMap<u32, u64>>,
}

impl Breakdown {
    /// Folds in one event; point events are ignored.
    fn add(&mut self, ev: &Event) {
        if ev.kind != EventKind::Span {
            return;
        }
        let dur = ev.dur_ns.unwrap_or(0);
        let depths = self.pending_child.entry(ev.thread).or_default();
        let child_ns = depths.remove(&(ev.depth + 1)).unwrap_or(0);
        if ev.depth > 0 {
            *depths.entry(ev.depth).or_insert(0) += dur;
        } else if depths.is_empty() {
            // A root span has no parent to hand its time to; once it
            // closes, the thread holds nothing.
            self.pending_child.remove(&ev.thread);
        }
        let module = module_of(&ev.name);
        let acc = match self.modules.get_mut(module) {
            Some(acc) => acc,
            None => self.modules.entry(module.to_string()).or_default(),
        };
        acc.count += 1;
        acc.total_ns += dur;
        acc.exclusive_ns += dur.saturating_sub(child_ns);
    }

    /// The module rows, with exclusive-time shares, largest first.
    fn rows(&self) -> Vec<ModuleShare> {
        with_shares(
            self.modules
                .iter()
                .map(|(module, a)| ModuleShare {
                    module: module.clone(),
                    count: a.count,
                    total_ns: a.total_ns,
                    exclusive_ns: a.exclusive_ns,
                    share_pct: 0.0,
                })
                .collect(),
        )
    }
}

/// Groups the trace's spans by module and computes inclusive/exclusive time
/// and exclusive-time shares. Events must be in file order (see module
/// docs); point events are ignored.
pub fn module_breakdown(events: &[Event]) -> Vec<ModuleShare> {
    let mut breakdown = Breakdown::default();
    for ev in events {
        breakdown.add(ev);
    }
    breakdown.rows()
}

/// A [`Sink`] that folds every span it receives into one shared
/// breakdown: the live input of [`module_breakdown`]'s rule. Install a
/// clone with [`crate::add_sink`] and read [`BreakdownSink::rows`] once it
/// is removed. It keeps no events.
#[derive(Clone, Default)]
pub struct BreakdownSink(Arc<Mutex<Breakdown>>);

impl BreakdownSink {
    /// The module rows of every span recorded so far.
    pub fn rows(&self) -> Vec<ModuleShare> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).rows()
    }
}

impl Sink for BreakdownSink {
    fn record(&mut self, ev: &Event) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).add(ev);
    }
}

/// Renders the breakdown as the table the CLI `report` subcommand prints
/// (and `train` and `evaluate` print at the end of a run).
pub fn render_breakdown(rows: &[ModuleShare]) -> String {
    use std::fmt::Write as _;
    // Module names fit the 12-column default; kernel timer names widen it.
    let w = rows.iter().map(|r| r.module.len()).max().unwrap_or(0).max(12);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<w$} {:>8} {:>12} {:>12} {:>7}",
        "module", "spans", "total", "exclusive", "share"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<w$} {:>8} {:>10.3}ms {:>10.3}ms {:>6.2}%",
            r.module,
            r.count,
            r.total_ns as f64 / 1e6,
            r.exclusive_ns as f64 / 1e6,
            r.share_pct
        );
    }
    let total_share: f64 = rows.iter().map(|r| r.share_pct).sum();
    let _ = writeln!(out, "{:<w$} {:>8} {:>12} {:>12} {:>6.2}%", "(sum)", "", "", "", total_share);
    out
}

/// One stage row extracted from a `/v1/traces` document.
struct RequestStage {
    name: String,
    span_id: u64,
    parent: u64,
    thread: u64,
    offset_ms: f64,
    dur_ms: f64,
    exclusive_ms: f64,
}

/// Renders a `/v1/traces` document (the serve layer's tail-sampled request
/// trace store) as one tree per request: every stage indented under its
/// parent span, with its offset from the first received byte, inclusive
/// duration, and exclusive time (children subtracted). Traces arrive newest
/// first and are printed in that order.
pub fn render_requests(doc: &Value) -> Result<String, String> {
    use std::fmt::Write as _;
    let traces = doc
        .get("traces")
        .and_then(Value::as_array)
        .ok_or("not a /v1/traces document: missing `traces` array")?;
    let mut out = String::new();
    if traces.is_empty() {
        out.push_str("no traces stored (is the server idle, or the store freshly reset?)\n");
        return Ok(out);
    }
    for t in traces {
        let trace_id = t.get("trace_id").and_then(Value::as_u64).unwrap_or(0);
        let endpoint = t.get("endpoint").and_then(Value::as_str).unwrap_or("?");
        let status = t.get("status").and_then(Value::as_u64).unwrap_or(0);
        let total_ms = t.get("total_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let kept = t.get("kept").and_then(Value::as_str).unwrap_or("?");
        let _ = writeln!(
            out,
            "trace {trace_id}  {endpoint}  status={status}  total={total_ms:.3}ms  kept={kept}"
        );
        let stages: Vec<RequestStage> = t
            .get("stages")
            .and_then(Value::as_array)
            .map(|arr| {
                arr.iter()
                    .map(|s| RequestStage {
                        name: s.get("name").and_then(Value::as_str).unwrap_or("?").to_string(),
                        span_id: s.get("span_id").and_then(Value::as_u64).unwrap_or(0),
                        parent: s.get("parent").and_then(Value::as_u64).unwrap_or(0),
                        thread: s.get("thread").and_then(Value::as_u64).unwrap_or(0),
                        offset_ms: s.get("offset_ms").and_then(Value::as_f64).unwrap_or(0.0),
                        dur_ms: s.get("dur_ms").and_then(Value::as_f64).unwrap_or(0.0),
                        exclusive_ms: s.get("exclusive_ms").and_then(Value::as_f64).unwrap_or(0.0),
                    })
                    .collect()
            })
            .unwrap_or_default();
        // Children grouped by parent span id, each group in start order.
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in stages.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        for v in children.values_mut() {
            v.sort_by(|&a, &b| {
                stages[a]
                    .offset_ms
                    .total_cmp(&stages[b].offset_ms)
                    .then(stages[a].span_id.cmp(&stages[b].span_id))
            });
        }
        // Depth-first walk from the request root (parent 0); a stage whose
        // parent never appears (stray frame) is surfaced at the root rather
        // than dropped. A visited mask guards against malformed cycles.
        let span_ids: std::collections::HashSet<u64> = stages.iter().map(|s| s.span_id).collect();
        let mut roots: Vec<usize> = (0..stages.len())
            .filter(|&i| stages[i].parent == 0 || !span_ids.contains(&stages[i].parent))
            .collect();
        roots.sort_by(|&a, &b| {
            stages[a]
                .offset_ms
                .total_cmp(&stages[b].offset_ms)
                .then(stages[a].span_id.cmp(&stages[b].span_id))
        });
        let mut visited = vec![false; stages.len()];
        let mut stack: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
        while let Some((i, depth)) = stack.pop() {
            if std::mem::replace(&mut visited[i], true) {
                continue;
            }
            let s = &stages[i];
            let _ = writeln!(
                out,
                "  {:indent$}{:<w$} +{:>9.3}ms  dur {:>9.3}ms  excl {:>9.3}ms  [t{}]",
                "",
                s.name,
                s.offset_ms,
                s.dur_ms,
                s.exclusive_ms,
                s.thread,
                indent = depth * 2,
                w = 24usize.saturating_sub(depth * 2),
            );
            if let Some(kids) = children.get(&s.span_id) {
                // Self-parented stages would loop; the visited mask above
                // and this skip keep malformed input from recursing.
                for &k in kids.iter().rev().filter(|&&k| k != i) {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    fn span(name: &str, thread: u64, depth: u32, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            kind: EventKind::Span,
            level: Level::Debug,
            name: name.to_string(),
            thread,
            depth,
            start_ns,
            dur_ns: Some(dur_ns),
            fields: Vec::new(),
            message: None,
            trace: None,
        }
    }

    #[test]
    fn breakdown_subtracts_children_and_shares_sum_to_100() {
        // End-order trace: eam child (depth 1) ends before its train parent
        // (depth 0); a second thread contributes an independent ram span.
        let events = vec![
            span("eam.rgcn", 0, 1, 10, 300),
            span("decode.entity", 0, 1, 320, 200),
            span("train.step", 0, 0, 0, 1000),
            span("ram.rgcn", 1, 0, 0, 500),
        ];
        let rows = module_breakdown(&events);
        let get = |m: &str| rows.iter().find(|r| r.module == m).unwrap();
        assert_eq!(get("eam").exclusive_ns, 300);
        assert_eq!(get("decode").exclusive_ns, 200);
        assert_eq!(get("train").total_ns, 1000);
        assert_eq!(get("train").exclusive_ns, 500, "children subtracted");
        assert_eq!(get("ram").exclusive_ns, 500);
        let total: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn point_events_are_ignored() {
        let mut ev = span("train.step", 0, 0, 0, 100);
        ev.kind = EventKind::Point;
        ev.dur_ns = None;
        assert!(module_breakdown(&[ev]).is_empty());
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let good = span("a.b", 0, 0, 0, 5).to_json().to_string_compact();
        let text = format!("{good}\n\nnot json\n");
        let err = parse_trace(&text).unwrap_err();
        assert!(err.starts_with("line 3"), "{err}");
        assert_eq!(parse_trace(&good).unwrap().len(), 1);
    }

    #[test]
    fn render_requests_builds_an_indented_tree() {
        let doc = retia_json::parse(
            r#"{"traces":[{"trace_id":7,"endpoint":"/v1/query","status":200,
                "start_ms":0.0,"total_ms":12.5,"kept":"slow","stages":[
                {"name":"serve.recv","span_id":1,"parent":0,"thread":0,
                 "offset_ms":0.0,"dur_ms":0.1,"exclusive_ms":0.1},
                {"name":"serve.decode","span_id":2,"parent":0,"thread":1,
                 "offset_ms":1.0,"dur_ms":10.0,"exclusive_ms":4.0},
                {"name":"serve.cache","span_id":3,"parent":2,"thread":1,
                 "offset_ms":1.5,"dur_ms":6.0,"exclusive_ms":6.0}]}]}"#,
        )
        .expect("hand-written traces doc parses");
        let text = render_requests(&doc).expect("renders");
        assert!(text.contains("trace 7  /v1/query  status=200"), "{text}");
        let recv = text.find("serve.recv").expect("recv row");
        let decode = text.find("serve.decode").expect("decode row");
        let cache = text.find("  serve.cache").expect("cache row indented under decode");
        assert!(recv < decode && decode < cache, "{text}");
        // Not a traces document → typed error, not a panic.
        let bad = retia_json::parse(r#"{"other":1}"#).expect("parses");
        assert!(render_requests(&bad).is_err());
        // Empty store renders a hint instead of nothing.
        let empty = retia_json::parse(r#"{"traces":[]}"#).expect("parses");
        assert!(render_requests(&empty).expect("renders").contains("no traces"));
    }

    #[test]
    fn render_includes_sum_row() {
        let events = vec![span("eam.rgcn", 0, 0, 0, 100)];
        let table = render_breakdown(&module_breakdown(&events));
        assert!(table.contains("eam"));
        assert!(table.contains("(sum)"));
        assert!(table.contains("100.00%"));
    }
}
