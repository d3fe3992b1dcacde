//! Serving metrics: what one simulation run reports.

use crate::percentile::LatencyHistogram;
use crate::window::WindowSeries;
use pixel_core::config::AcceleratorConfig;
use pixel_units::{Energy, Time};

/// Latency percentiles of completed requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Median sojourn time.
    pub p50: Time,
    /// 95th percentile.
    pub p95: Time,
    /// 99th percentile.
    pub p99: Time,
    /// 99.9th percentile.
    pub p999: Time,
    /// Worst completed request.
    pub max: Time,
}

impl LatencyPercentiles {
    /// Summarizes a nanosecond latency histogram into the percentile
    /// set, read in one scan.
    #[must_use]
    pub fn of(histogram: &LatencyHistogram) -> Self {
        let [p50, p95, p99, p999] = histogram
            .percentiles([0.50, 0.95, 0.99, 0.999])
            .map(from_nanos);
        Self {
            p50,
            p95,
            p99,
            p999,
            max: from_nanos(histogram.max()),
        }
    }
}

/// A histogram value (integer nanoseconds) as a time.
fn from_nanos(value: u64) -> Time {
    #[allow(clippy::cast_precision_loss)]
    Time::from_nanos(value as f64)
}

/// Per-tenant completion accounting and latency decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Requests from this tenant that completed.
    pub completed: u64,
    /// 95th-percentile sojourn time of this tenant's requests.
    pub p95: Time,
    /// Queue-wait percentiles (arrival → batch service start).
    pub wait: LatencyPercentiles,
    /// Service-time percentiles (service start → completion).
    pub service: LatencyPercentiles,
}

/// Per-network completion accounting and latency decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Network name.
    pub name: String,
    /// Completed requests that ran this network.
    pub completed: u64,
    /// Queue-wait percentiles (arrival → batch service start).
    pub wait: LatencyPercentiles,
    /// Service-time percentiles (service start → completion).
    pub service: LatencyPercentiles,
}

/// Everything one serving simulation measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The accelerator configuration that served the run.
    pub config: AcceleratorConfig,
    /// Batching policy label.
    pub policy: String,
    /// Offered (generated) arrival rate \[requests/s\].
    pub offered_hz: f64,
    /// Achieved completion rate \[inferences/s\] over the makespan.
    pub achieved_hz: f64,
    /// Requests generated.
    pub arrivals: u64,
    /// Requests that completed inference.
    pub completed: u64,
    /// Requests shed at admission (rejected or evicted).
    pub dropped: u64,
    /// Sojourn-time percentiles of completed requests.
    pub latency: LatencyPercentiles,
    /// Queue-wait percentiles: time from arrival to batch service
    /// start. Per-request, wait + service equals the sojourn exactly.
    pub queue_wait: LatencyPercentiles,
    /// Service-time percentiles: time from batch service start to
    /// completion.
    pub service: LatencyPercentiles,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Time-weighted mean queue depth.
    pub mean_queue_depth: f64,
    /// Deepest the queue got.
    pub max_queue_depth: usize,
    /// Fraction of the makespan the accelerator was busy.
    pub utilization: f64,
    /// Wall-clock of the whole run (first arrival to last completion).
    pub makespan: Time,
    /// Total energy charged: dynamic inference energy plus static
    /// (laser + thermal tuning) power integrated over the makespan.
    pub total_energy: Energy,
    /// Total energy divided by completed inferences.
    pub energy_per_inference: Energy,
    /// Per-tenant completions, in workload tenant order.
    pub tenants: Vec<TenantStats>,
    /// Per-network completions, in workload network order.
    pub networks: Vec<NetworkStats>,
    /// Windowed time-series metrics on the virtual-time grid.
    pub windows: WindowSeries,
}

impl ServeReport {
    /// Fraction of arrivals shed.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.dropped as f64 / self.arrivals as f64
        }
    }

    /// Goodput ratio: achieved throughput over offered load.
    #[must_use]
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered_hz > 0.0 {
            self.achieved_hz / self.offered_hz
        } else {
            0.0
        }
    }
}
