//! The metric registry: counters, gauges, histograms, and span statistics
//! behind one thread-safe store.
//!
//! All maps are `BTreeMap`s so snapshots iterate in lexicographic name
//! order — reports and traces are deterministic run to run. The hot path
//! (`add` while disabled) is a single relaxed atomic load.

use crate::sink::{escape_json, TraceSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Aggregated statistics of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramStats {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.count as f64
            }
        }
    }
}

impl Default for HistogramStats {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total time spent inside the span.
    pub total: Duration,
    /// Shortest single span.
    pub min: Duration,
    /// Longest single span.
    pub max: Duration,
}

impl SpanStats {
    fn record(&mut self, duration: Duration) {
        if self.count == 0 {
            self.min = duration;
            self.max = duration;
        } else {
            self.min = self.min.min(duration);
            self.max = self.max.max(duration);
        }
        self.count += 1;
        self.total += duration;
    }

    /// Mean span duration (zero when no spans completed).
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.count).unwrap_or(u32::MAX)
        }
    }
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramStats>,
    spans: BTreeMap<String, SpanStats>,
}

/// A point-in-time copy of every metric, in deterministic (lexicographic)
/// name order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name/stats pairs.
    pub histograms: Vec<(String, HistogramStats)>,
    /// Span path/stats pairs.
    pub spans: Vec<(String, SpanStats)>,
}

impl Snapshot {
    /// Looks up a counter by exact name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a span's stats by exact path.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|(p, _)| p == path).map(|(_, s)| s)
    }
}

/// A thread-safe metric registry.
///
/// Registries start **disabled**: every recording call short-circuits on
/// one atomic load, so instrumented code costs nearly nothing until a
/// profile or trace is requested. [`Registry::enable`] turns recording
/// on.
pub struct Registry {
    enabled: AtomicBool,
    origin: Instant,
    state: Mutex<State>,
    trace: Mutex<Option<TraceSink>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Locks a registry mutex, recovering the data if a panicking thread
/// poisoned it: the registry holds plain metric state that stays
/// coherent, and observability must never amplify a failure elsewhere.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Creates a disabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            state: Mutex::new(State::default()),
            trace: Mutex::new(None),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off (already-recorded data is kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the registry was created (trace timestamps).
    pub(crate) fn elapsed_us(&self) -> u128 {
        self.origin.elapsed().as_micros()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = lock_unpoisoned(&self.state);
        match state.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                state.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = lock_unpoisoned(&self.state);
        state.gauges.insert(name.to_owned(), value);
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = lock_unpoisoned(&self.state);
        state
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// Folds one completed span of `duration` into the stats at `path`.
    ///
    /// Normally called by the RAII [`SpanGuard`](crate::span::SpanGuard)
    /// on drop; public so tests and offline importers can inject exact
    /// durations.
    pub fn record_span(&self, path: &str, duration: Duration) {
        if !self.is_enabled() {
            return;
        }
        let mut state = lock_unpoisoned(&self.state);
        state
            .spans
            .entry(path.to_owned())
            .or_default()
            .record(duration);
    }

    /// Copies every metric out, in deterministic name order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let state = lock_unpoisoned(&self.state);
        Snapshot {
            counters: state
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: state.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            spans: state.spans.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
    }

    /// Clears every metric (enabled flag and trace sink are untouched).
    pub fn reset(&self) {
        let mut state = lock_unpoisoned(&self.state);
        *state = State::default();
    }

    /// Installs a JSONL trace sink; span begin/end events stream to it
    /// live. Any previously installed sink is flushed before being
    /// replaced, so its writer sees every event streamed up to the
    /// handover (it does *not* get the final snapshot lines that
    /// [`Registry::finish_trace`] emits).
    pub fn install_trace(&self, writer: Box<dyn Write + Send>) {
        let mut trace = lock_unpoisoned(&self.trace);
        if let Some(mut old) = trace.take() {
            old.flush();
        }
        *trace = Some(TraceSink::new(writer));
    }

    /// True when a JSONL trace sink is currently installed.
    #[must_use]
    pub fn has_trace(&self) -> bool {
        lock_unpoisoned(&self.trace).is_some()
    }

    /// Streams one caller-formatted event line to the installed trace
    /// sink. The line must be a complete flat JSON object (the sink
    /// appends the newline); instrumented domains use this to spill
    /// their own typed events — e.g. the serving simulator's
    /// virtual-time request lifecycle — into the same JSONL stream as
    /// the span events. No-op while disabled or without a sink.
    pub fn trace_event(&self, line: &str) {
        if !self.is_enabled() {
            return;
        }
        let mut trace = lock_unpoisoned(&self.trace);
        if let Some(sink) = trace.as_mut() {
            sink.write_line(line);
        }
    }

    /// Emits a final counter/gauge snapshot into the trace and removes
    /// the sink, flushing it. No-op without an installed sink.
    pub fn finish_trace(&self) {
        let mut trace = lock_unpoisoned(&self.trace);
        if let Some(mut sink) = trace.take() {
            let snapshot = self.snapshot();
            for (name, value) in &snapshot.counters {
                sink.write_line(&format!(
                    "{{\"event\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                    escape_json(name)
                ));
            }
            for (name, value) in &snapshot.gauges {
                sink.write_line(&format!(
                    "{{\"event\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
                    escape_json(name)
                ));
            }
            sink.flush();
        }
    }

    pub(crate) fn trace_span_begin(&self, path: &str) {
        let mut trace = lock_unpoisoned(&self.trace);
        if let Some(sink) = trace.as_mut() {
            sink.write_line(&format!(
                "{{\"event\":\"span_begin\",\"path\":\"{}\",\"t_us\":{}}}",
                escape_json(path),
                self.elapsed_us()
            ));
        }
    }

    pub(crate) fn trace_span_end(&self, path: &str, duration: Duration) {
        let mut trace = lock_unpoisoned(&self.trace);
        if let Some(sink) = trace.as_mut() {
            sink.write_line(&format!(
                "{{\"event\":\"span_end\",\"path\":\"{}\",\"t_us\":{},\"dur_us\":{}}}",
                escape_json(path),
                self.elapsed_us(),
                duration.as_micros()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.add("a", 3);
        r.gauge("g", 1.5);
        r.observe("h", 2.0);
        r.record_span("s", Duration::from_millis(1));
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.enable();
        r.add("mac_ops", 5);
        r.add("mac_ops", 7);
        assert_eq!(r.snapshot().counter("mac_ops"), Some(12));
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Registry::new();
        r.enable();
        r.gauge("utilization", 0.5);
        r.gauge("utilization", 0.75);
        assert_eq!(r.snapshot().gauges, vec![("utilization".to_owned(), 0.75)]);
    }

    #[test]
    fn histogram_statistics() {
        let r = Registry::new();
        r.enable();
        for v in [1.0, 2.0, 6.0] {
            r.observe("lat", v);
        }
        let snap = r.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 3);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 6.0);
    }

    #[test]
    fn span_stats_fold_min_max() {
        let r = Registry::new();
        r.enable();
        r.record_span("p", Duration::from_micros(10));
        r.record_span("p", Duration::from_micros(30));
        let snap = r.snapshot();
        let s = snap.span("p").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total, Duration::from_micros(40));
        assert_eq!(s.min, Duration::from_micros(10));
        assert_eq!(s.max, Duration::from_micros(30));
        assert_eq!(s.mean(), Duration::from_micros(20));
    }

    #[test]
    fn snapshot_order_is_lexicographic_regardless_of_insertion() {
        let r = Registry::new();
        r.enable();
        for name in ["zeta", "alpha", "mid", "beta"] {
            r.add(name, 1);
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "mid", "zeta"]);
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let r = Registry::new();
        r.enable();
        r.add("a", 1);
        r.reset();
        assert!(r.is_enabled());
        assert!(r.snapshot().counters.is_empty());
    }
}
