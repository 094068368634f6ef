//! In-memory spans around the harness's calls into each layer, exported
//! as Chrome trace-event JSON (loadable in Perfetto or `chrome://tracing`)
//! and summarized as a self-time table.
//!
//! Spans are recorded only in the traced run; timed runs never touch a
//! [`Tracer`]. Each thread records into its own tracer, and the run merges
//! them at the end.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use fetchvp_metrics::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call or layer (`run_batch`, `probe.fetch.conventional`, …);
    /// the self-time table aggregates by name.
    pub name: String,
    /// What the call worked on (benchmark, config chunk, job id).
    pub detail: String,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// Which run (workload invocation) recorded it.
    pub run: u32,
    /// Recording thread (1-based).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u32,
    tid: u32,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, run: u32, tid: u32) -> Tracer {
        Tracer { epoch, run, tid, spans: RefCell::default(), stack: RefCell::default() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, detail: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                detail: detail.into(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run: self.run,
                tid: self.tid,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let result = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Concatenates several threads' spans, re-basing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed duration minus the part covered by direct children,
    /// milliseconds.
    pub self_ms: f64,
}

/// The self-time table, largest self time first.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(*children);
    }
    let mut rows: Vec<SelfTime> = by_name
        .into_iter()
        .map(|(name, (count, total, own))| SelfTime {
            name: name.to_string(),
            count,
            total_ms: total as f64 / 1e6,
            self_ms: own as f64 / 1e6,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    rows
}

/// Renders spans as a Chrome trace-event document: one complete (`X`)
/// event per span on its thread's track, timestamps in microseconds.
pub fn chrome_trace(spans: &[Span], process_name: &str) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let mut events = vec![Json::object([
        ("name".to_string(), s("process_name")),
        ("ph".to_string(), s("M")),
        ("pid".to_string(), Json::UInt(1)),
        ("tid".to_string(), Json::UInt(0)),
        ("args".to_string(), Json::object([("name".to_string(), s(process_name))])),
    ])];
    for (i, span) in spans.iter().enumerate() {
        let mut args = vec![
            ("detail".to_string(), s(&span.detail)),
            ("id".to_string(), Json::UInt(i as u64)),
            ("run".to_string(), Json::UInt(span.run as u64)),
        ];
        if let Some(p) = span.parent {
            args.push(("parent".to_string(), Json::UInt(p as u64)));
        }
        events.push(Json::object([
            ("name".to_string(), s(&span.name)),
            ("cat".to_string(), s("bench")),
            ("ph".to_string(), s("X")),
            ("pid".to_string(), Json::UInt(1)),
            ("tid".to_string(), Json::UInt(span.tid as u64)),
            ("ts".to_string(), Json::Float(span.start_ns as f64 / 1e3)),
            ("dur".to_string(), Json::Float(span.dur_ns() as f64 / 1e3)),
            ("args".to_string(), Json::object(args)),
        ]));
    }
    Json::object([("traceEvents".to_string(), Json::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tracer = Tracer::new(Instant::now(), 7, 1);
        tracer.span("outer", "a", || {
            spin(200_000);
            tracer.span("inner", "b", || spin(300_000));
            tracer.span("inner", "c", || spin(300_000));
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));

        let table = self_times(&spans);
        let outer = table.iter().find(|r| r.name == "outer").unwrap();
        let inner = table.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
        assert!((outer.total_ms - outer.self_ms - inner.total_ms).abs() < 1e-9);
        assert!(outer.self_ms >= 0.2 && inner.self_ms >= 0.6);
    }

    #[test]
    fn merge_rebases_parents_and_export_parses() {
        let epoch = Instant::now();
        let a = Tracer::new(epoch, 0, 1);
        a.span("x", "", || a.span("y", "", || ()));
        let b = Tracer::new(epoch, 0, 2);
        b.span("p", "", || b.span("q", "", || ()));
        let spans = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(spans[3].parent, Some(2));
        let text = chrome_trace(&spans, "test").to_json();
        let doc = Json::parse(&text).expect("valid JSON");
        let Some(Json::Array(events)) = doc.get("traceEvents") else { panic!("no events") };
        assert_eq!(events.len(), 1 + spans.len());
        assert_eq!(events[4].get_path("args.parent"), Some(&Json::UInt(2)));
    }
}
