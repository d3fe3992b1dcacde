//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans are kept in memory and written out as `pixel.bench.span` JSONL
//! when the run ends. A disabled tracer costs one branch per call and
//! never reads the clock, so untraced runs measure the layers alone.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, `crate.module[.part]`.
    pub name: String,
    /// Span id, unique within the run (0 is never used).
    pub id: u64,
    /// Enclosing span, or 0 at the root.
    pub parent: u64,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Request id, for spans that belong to one served request.
    pub request: Option<u64>,
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent (0 when the
    /// tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// An in-memory span recorder, shareable across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        ns_between(self.epoch, Instant::now())
    }

    /// Nanoseconds from the tracer's start to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        ns_between(self.epoch, at)
    }

    /// Starts a span.
    pub fn open(&self) -> Open {
        if !self.enabled {
            return Open { id: 0, start_ns: 0 };
        }
        Open {
            // Ids only need to be unique; no other data is published.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span started with [`Self::open`].
    pub fn close(&self, open: Open, name: &str, parent: u64, request: Option<u64>) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.push(name, open.id, parent, open.start_ns, end_ns, request);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &str, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let result = f();
        self.close(open, name, parent, None);
        result
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &self,
        name: &str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(name, id, parent, start_ns, end_ns, request);
        }
    }

    fn push(
        &self,
        name: &str,
        id: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
    ) {
        let span = Span {
            name: name.to_owned(),
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            request,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Time spent in one layer, over every span with its name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the parts covered by child spans, ns.
    pub self_ns: u64,
}

/// Per-layer totals and self times, keyed by span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for span in spans {
        let total = span.end_ns - span.start_ns;
        let children = child_ns.get(&span.id).copied().unwrap_or(0);
        let entry = out.entry(span.name.clone()).or_default();
        entry.calls += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(children);
    }
    out
}

/// The spans as `pixel.bench.span` JSONL, one flat object per line.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let mut s = String::new();
    for span in spans {
        s.push_str(&format!(
            "{{\"schema\":\"pixel.bench.span\",\"workload\":\"{}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
            pixel_obs::escape_json(workload),
            pixel_obs::escape_json(&span.name),
            span.id,
            span.parent,
            span.start_ns,
            span.end_ns
        ));
        if let Some(request) = span.request {
            s.push_str(&format!(",\"request\":{request}"));
        }
        s.push_str("}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "pass".into(),
                id: 1,
                parent: 0,
                start_ns: 0,
                end_ns: 100,
                request: None,
            },
            Span {
                name: "conv".into(),
                id: 2,
                parent: 1,
                start_ns: 10,
                end_ns: 40,
                request: None,
            },
            Span {
                name: "conv".into(),
                id: 3,
                parent: 1,
                start_ns: 50,
                end_ns: 70,
                request: None,
            },
        ];
        let times = layer_times(&spans);
        assert_eq!(
            times["pass"],
            LayerTime {
                calls: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            times["conv"],
            LayerTime {
                calls: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let open = tracer.open();
        assert_eq!(open.id(), 0);
        tracer.close(open, "x", 0, None);
        assert_eq!(tracer.time("y", 0, || 7), 7);
        tracer.record("z", 0, 1, 2, Some(3));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn span_lines_parse_as_flat_objects() {
        let tracer = Tracer::new(true);
        let pass = tracer.open();
        tracer.time("dnn.inference.conv", pass.id(), || ());
        tracer.close(pass, "reference.pass", 0, None);
        tracer.record("serve.request", 0, 5, 9, Some(42));
        let text = to_jsonl(&tracer.spans(), "serve_low");
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let fields = pixel_obs::parse_flat_object(line).expect("flat JSON object");
            let get = |k: &str| {
                fields
                    .iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(get("schema").as_deref(), Some("pixel.bench.span"));
            for key in ["workload", "name", "id", "parent", "start_ns", "end_ns"] {
                assert!(get(key).is_some(), "{key} missing from {line}");
            }
        }
        assert!(text.contains("\"request\":42"));
    }
}
