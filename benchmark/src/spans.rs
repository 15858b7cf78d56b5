//! The benchmark's own spans: recorded around each call into a layer's
//! public functions, kept in memory, written out as a Chrome-trace file
//! when the traced run ends.
//!
//! A span's name is `<layer>.<what>`; the layer is a crate name. Spans
//! form a tree through `parent`, and the spans of one workload repetition
//! share its `rep` id. A span's self time is its duration minus the part of
//! its interval that its child spans cover, so the self times of a tree sum
//! to its root's duration and a layer's cost is the sum of its spans' self
//! times.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Workload-repetition id the span belongs to.
    pub rep: u32,
    /// Thread lane in the trace file: 0 is the benchmark's own thread,
    /// imported program spans keep their thread id shifted by one.
    pub lane: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate the span is charged to: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans from the one thread that drives the workload. Disabled
/// (the timed run: tracing off) it only times the calls it wraps.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's origin to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts the next workload repetition; spans recorded from here on
    /// carry its id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Runs `f` inside a span called `name` and returns its result with the
    /// elapsed seconds. `f` receives the recorder so it can open children.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let start = Instant::now();
        let opened = self.enabled.then(|| {
            let id = self.spans.len();
            let start_ns = self.offset_ns(start);
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                rep: self.rep,
                lane: 0,
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(id);
            id
        });
        let result = f(self);
        let elapsed = start.elapsed();
        if let Some(id) = opened {
            self.spans[id].end_ns = self.spans[id].start_ns + elapsed.as_nanos() as u64;
            self.stack.pop();
        }
        (result, elapsed.as_secs_f64())
    }

    /// [`time`](Self::time) for calls that open no child spans.
    pub fn leaf<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.time(name, |_| f())
    }

    /// Adds an interval measured elsewhere (a span the program itself
    /// published) as a child of the innermost open span.
    pub fn import(&mut self, name: &str, lane: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            rep: self.rep,
            lane,
            start_ns,
            end_ns,
        });
    }

    /// Id the next recorded span will get — the root of a subtree about
    /// to be recorded.
    pub fn next_id(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Closes the books: every span recorded so far.
    pub fn finish(self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "a span is still open");
        self.spans
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of the
/// children's intervals clipped to the span. Children may nest further, sit
/// back to back, or overlap each other (program spans from parallel
/// workers do); covered time is never counted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(id);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let mut intervals: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.clamp(span.start_ns, span.end_ns),
                        spans[c].end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer over the subtree rooted at `root` (the root's own
/// self time is charged to its layer like any other span's), in seconds.
pub fn layer_self_seconds(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let selfs = self_times_ns(spans);
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    // Parents are recorded before their children, except imported spans,
    // which are appended while their parent is still open — both orders
    // keep `parent < id`.
    for id in root + 1..spans.len() {
        if let Some(parent) = spans[id].parent {
            in_tree[id] = in_tree[parent];
        }
    }
    let mut layers = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if in_tree[id] {
            *layers.entry(span.layer().to_string()).or_insert(0.0) += selfs[id] as f64 / 1e9;
        }
    }
    layers
}

/// Renders the spans as a Chrome-trace document (`ph: "X"` complete events,
/// µs timestamps) for `chrome://tracing` or <https://ui.perfetto.dev>; the
/// parent id, repetition id and self time ride in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    use serde::Value;
    let selfs = self_times_ns(spans);
    let field = |k: &str, v: Value| (k.to_string(), v);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            Value::Map(vec![
                field("name", Value::Str(span.name.clone())),
                field("cat", Value::Str(span.layer().to_string())),
                field("ph", Value::Str("X".to_string())),
                field("pid", Value::U64(1)),
                field("tid", Value::U64(span.lane)),
                field("ts", Value::F64(span.start_ns as f64 / 1e3)),
                field("dur", Value::F64(span.duration_ns() as f64 / 1e3)),
                field(
                    "args",
                    Value::Map(vec![
                        field("id", Value::U64(id as u64)),
                        field(
                            "parent",
                            span.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        field("rep", Value::U64(u64::from(span.rep))),
                        field("self_us", Value::F64(selfs[id] as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        field("traceEvents", Value::Seq(events)),
        field("displayTimeUnit", Value::Str("ms".to_string())),
    ]);
    let mut json = serde_json::to_string(&doc).expect("trace serializes");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            rep: 1,
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30
        let spans = vec![
            span("core.root", None, 0, 100),
            span("net.a", Some(0), 10, 60),
            span("sim.b", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns(), "self times sum to the root");
    }

    #[test]
    fn adjacent_children_cover_their_sum() {
        // Back-to-back children sharing an endpoint.
        let spans = vec![
            span("core.root", None, 0, 100),
            span("net.a", Some(0), 0, 40),
            span("net.b", Some(0), 40, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 40, 50]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        // Two parallel workers: 10..60 and 30..80 cover 10..80 = 70.
        let spans = vec![
            span("core.root", None, 0, 100),
            span("core.run", Some(0), 10, 60),
            span("core.run", Some(0), 30, 80),
            span("core.run", Some(0), 35, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // An imported span whose clock offset pokes past the parent's end.
        let spans = vec![
            span("core.root", None, 10, 50),
            span("core.run", Some(0), 0, 20),
            span("core.run", Some(0), 45, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 25);
    }

    #[test]
    fn layers_sum_self_times_over_one_subtree() {
        let spans = vec![
            span("bench.rep", None, 0, 1_000_000_000),
            span("net.build", Some(0), 0, 400_000_000),
            span("cluster.warmup", Some(0), 400_000_000, 900_000_000),
            span("sim.inner", Some(2), 500_000_000, 600_000_000),
            span("bench.other_rep", None, 2_000_000_000, 3_000_000_000),
            span("net.build", Some(4), 2_000_000_000, 2_500_000_000),
        ];
        let layers = layer_self_seconds(&spans, 0);
        assert_eq!(layers["net"], 0.4);
        assert_eq!(layers["cluster"], 0.4);
        assert_eq!(layers["sim"], 0.1);
        assert!((layers["bench"] - 0.1).abs() < 1e-12);
        let sum: f64 = layers.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_builds_the_tree_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.next_rep();
        let ((), outer) = rec.time("core.outer", |rec| {
            let (v, _) = rec.leaf("net.inner", || 7);
            assert_eq!(v, 7);
            let at = rec.offset_ns(Instant::now());
            rec.import("core.run", 3, at, at + 5);
        });
        assert!(outer >= 0.0);
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].lane, 3);
        assert!(spans.iter().all(|s| s.rep == 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].layer(), "net");

        let mut off = Recorder::new(false);
        let (v, secs) = off.time("core.outer", |rec| rec.leaf("net.inner", || 1).0);
        assert_eq!(v, 1);
        assert!(secs >= 0.0);
        assert!(off.finish().is_empty());
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        use serde::Value;
        let spans = vec![
            span("core.\"quoted\"", None, 0, 2_000),
            span("net.a", Some(0), 500, 1_500),
        ];
        let json = chrome_trace_json(&spans);
        let parsed: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = serde::map_get(parsed.as_map().unwrap(), "traceEvents")
            .as_seq()
            .unwrap();
        assert_eq!(events.len(), 2);
        let first = events[0].as_map().unwrap();
        assert_eq!(
            serde::map_get(first, "name"),
            &Value::Str("core.\"quoted\"".to_string())
        );
        assert_eq!(serde::map_get(first, "ph"), &Value::Str("X".to_string()));
        let second = events[1].as_map().unwrap();
        let args = serde::map_get(second, "args").as_map().unwrap();
        assert_eq!(serde::map_get(args, "parent"), &Value::U64(0));
        assert_eq!(serde::map_get(args, "self_us"), &Value::F64(1.0));
        let root_args = serde::map_get(first, "args").as_map().unwrap();
        assert_eq!(serde::map_get(root_args, "parent"), &Value::Null);
        assert_eq!(serde::map_get(root_args, "self_us"), &Value::F64(1.0));
    }
}
