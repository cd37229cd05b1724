//! The span recorder of the traced runs.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; nothing inside the program is
//! touched. A span carries its name, start, end, the span that caused
//! it and the id of the request it belongs to. Spans stay in memory
//! during the run and are written out, Chrome-trace compatible, when
//! it ends. A layer's self time is its spans' duration minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// At most this many spans are written to the trace file; the per-name
/// totals always cover every recorded span.
const WRITTEN_SPANS: usize = 100_000;

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id shared by all spans of one event (`0` for spans that
    /// belong to no single event, such as `settle`).
    pub id: u64,
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    open: Vec<u32>,
}

/// Records nested spans from the single generator thread. The sinks the
/// program calls back into take `&self`, hence the lock; it is never
/// contended.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a tracing call panicked")
    }

    /// Opens a span under the innermost open one and returns the
    /// nesting depth to hand back to [`Tracer::exit_to`].
    pub fn enter(&self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        let mut inner = self.lock();
        let depth = inner.open.len();
        let index = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        inner.open.push(index);
        depth
    }

    /// Closes every span opened at `depth` or deeper, all at one
    /// instant.
    pub fn exit_to(&self, depth: usize) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        while inner.open.len() > depth {
            let index = inner.open.pop().expect("length checked") as usize;
            inner.spans[index].end_ns = end_ns;
        }
    }

    /// Closes the innermost open span and opens `name` in its place
    /// with the same request id: a boundary inside an enclosing span.
    pub fn split(&self, name: &'static str) {
        let (depth, id) = {
            let inner = self.lock();
            let id = inner.open.last().map_or(0, |&i| inner.spans[i as usize].id);
            (inner.open.len(), id)
        };
        if depth > 0 {
            self.exit_to(depth - 1);
        }
        self.enter(name, id);
    }

    /// Times `f` as one span.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let depth = self.enter(name, id);
        let out = f();
        self.exit_to(depth);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Runs `f`, as a span when a tracer is given.
pub fn traced<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => t.span(name, id, f),
    }
}

/// Per-name count, total and self time. A span's self time is its
/// duration minus the part of it that its direct children cover.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// `trace.coverage`: the share of the traced wall time that some
/// layer's self time accounts for.
pub fn coverage(spans: &[Span], traced_wall_ns: u64) -> f64 {
    let attributed: u64 = layer_times(spans).values().map(|t| t.self_ns).sum();
    attributed as f64 / traced_wall_ns.max(1) as f64
}

/// Renders the spans in the Chrome trace-event format (complete `X`
/// events, microsecond timestamps) with the per-layer totals and the
/// run's counts beside them.
pub fn chrome_trace(workload: &str, spans: &[Span], counts: &[(String, f64)]) -> String {
    let mut out = String::with_capacity(128 * spans.len().min(WRITTEN_SPANS) + 4096);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{},\n\"layers\":{{",
        spans.len(),
        spans.len().min(WRITTEN_SPANS)
    );
    for (i, (name, t)) in layer_times(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i > 0 { "," } else { "" },
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    out.push_str("},\n\"counts\":{");
    for (i, (name, value)) in counts.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{value}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\n\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(WRITTEN_SPANS).enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"span\":{i},\"parent\":{}}}}}",
            if i > 0 { ",\n" } else { "" },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent.map_or(-1, i64::from),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 7,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // on_event 0..100 ⊃ deliver 20..90 ⊃ {convert 20..50, ingest 50..90}
        let spans = [
            span("on_event", 0, 100, None),
            span("deliver", 20, 90, Some(0)),
            span("convert", 20, 50, Some(1)),
            span("ingest", 50, 90, Some(1)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["on_event"].self_ns, 30);
        assert_eq!(t["deliver"].self_ns, 0);
        assert_eq!(t["deliver"].total_ns, 70);
        assert_eq!(t["convert"].self_ns, 30);
        assert_eq!(t["ingest"].self_ns, 40);
        // Self times telescope to the root's duration.
        assert!((coverage(&spans, 100) - 1.0).abs() < 1e-12);
        assert!((coverage(&spans, 125) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span("outer", 10, 20, None), span("inner", 5, 15, Some(0))];
        assert_eq!(layer_times(&spans)["outer"].self_ns, 5);
    }

    #[test]
    fn the_tracer_nests_splits_and_closes_in_order() {
        let t = Tracer::new();
        let d = t.enter("on_event", 1);
        let inner = t.enter("deliver", 1);
        t.enter("convert", 1);
        t.split("ingest");
        t.exit_to(inner);
        t.exit_to(d);
        t.span("settle", 0, || ());
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["on_event", "deliver", "convert", "ingest", "settle"]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(
            spans[3].parent,
            Some(1),
            "a split stays under the same parent"
        );
        assert_eq!(spans[3].id, 1, "and keeps the request id");
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[2].end_ns, spans[3].start_ns.min(spans[2].end_ns));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn the_chrome_trace_parses_and_carries_counts() {
        let spans = [
            span("on_event", 0, 1500, None),
            span("deliver", 500, 1000, Some(0)),
        ];
        let text = chrome_trace("stream-ingest", &spans, &[("store.rejected".into(), 0.0)]);
        let doc = iosim_util::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(0.5));
        let layers = doc.get("layers").unwrap();
        assert_eq!(
            layers
                .get("on_event")
                .unwrap()
                .get("self_ns")
                .unwrap()
                .as_u64(),
            Some(1000)
        );
        assert!(doc.get("counts").unwrap().get("store.rejected").is_some());
    }
}
