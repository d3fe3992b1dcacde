//! Observability for the PIXEL reproduction: span timers, counters,
//! gauges, histograms, a JSONL trace sink, and plain-text profile tables.
//!
//! Everything is std-only with zero external dependencies. The crate has
//! two layers:
//!
//! * An instantiable [`Registry`] — thread-safe, snapshot-able, with
//!   deterministic (lexicographic) metric ordering. Tests and embedded
//!   uses create their own.
//! * A process-global registry behind free functions ([`enable`],
//!   [`add`], [`span()`], [`snapshot`], …) that the instrumented crates
//!   (`pixel-core`, `pixel-dnn`, `pixel-bench`) call. It starts
//!   **disabled**: every hook is one relaxed atomic load until a profile
//!   or trace is requested, so instrumentation stays effectively free in
//!   normal runs.
//!
//! Span timers are RAII guards ([`span::SpanGuard`]); nesting them builds
//! slash-separated hierarchical paths (`"dse/fig4"`). Installing a trace
//! sink ([`install_trace`]) streams `span_begin`/`span_end` events as
//! JSONL and, on [`finish_trace`], appends one line per counter/gauge.

pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;
pub mod tree;

pub use registry::{HistogramStats, Registry, Snapshot, SpanStats};
pub use sink::{escape_json, parse_flat_object};
pub use span::SpanGuard;
pub use tree::SpanNode;

use std::io::Write;
use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Enables recording on the global registry.
pub fn enable() {
    global().enable();
}

/// Disables recording on the global registry (data is kept).
pub fn disable() {
    global().disable();
}

/// Whether the global registry is recording.
#[must_use]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Adds `delta` to the global counter `name`.
pub fn add(name: &str, delta: u64) {
    global().add(name, delta);
}

/// Sets the global gauge `name`.
pub fn gauge(name: &str, value: f64) {
    global().gauge(name, value);
}

/// Records one observation into the global histogram `name`.
pub fn observe(name: &str, value: f64) {
    global().observe(name, value);
}

/// Opens an RAII span on the global registry.
pub fn span(name: &str) -> SpanGuard<'static> {
    SpanGuard::enter(global(), name)
}

/// Snapshots the global registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry's metrics.
pub fn reset() {
    global().reset();
}

/// Renders the global registry's current profile table.
#[must_use]
pub fn profile_table() -> String {
    profile::profile_table(&global().snapshot())
}

/// Installs a JSONL trace sink on the global registry.
pub fn install_trace(writer: Box<dyn Write + Send>) {
    global().install_trace(writer);
}

/// Whether the global registry has a trace sink installed.
#[must_use]
pub fn has_trace() -> bool {
    global().has_trace()
}

/// Streams one caller-formatted flat-JSON event line to the global
/// trace sink (no-op while disabled or without a sink).
pub fn trace_event(line: &str) {
    global().trace_event(line);
}

/// Finishes (snapshot + flush + remove) the global trace sink.
pub fn finish_trace() {
    global().finish_trace();
}
