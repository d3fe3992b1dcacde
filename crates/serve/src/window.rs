//! Windowed time-series metrics on a fixed virtual-time grid.
//!
//! The serving simulator folds its event stream into a [`WindowSeries`]:
//! per-bin arrival/completion/shed counts, dispatch and batch-size
//! accounting, prorated busy time and dynamic energy, and a
//! time-weighted queue-depth integral. Saturation then reads as a
//! *trajectory* — queues filling, shed rate ramping, power climbing off
//! the laser/heater static floor — instead of a single end-of-run knee
//! number.
//!
//! The grid lives entirely on the simulation's virtual clock and the
//! series is built by one thread in event order, so it is bitwise
//! deterministic across runs and `--jobs` levels like every other serve
//! artifact. When a run outlives its expected makespan (overload), the
//! grid coarsens by merging adjacent bin pairs (doubling the width), so
//! memory stays bounded no matter how long the drain takes.

use pixel_units::{Time, VirtInstant};

/// One fixed-width virtual-time bin of a [`WindowSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowBin {
    /// Requests that arrived in this bin.
    pub arrivals: u64,
    /// Requests whose inference completed in this bin.
    pub completions: u64,
    /// Requests shed at admission in this bin.
    pub shed: u64,
    /// Batches dispatched in this bin.
    pub dispatches: u64,
    /// Requests inside those dispatched batches.
    pub batched: u64,
    /// Seconds of this bin the accelerator spent busy.
    pub busy: f64,
    /// Dynamic inference energy \[J\] prorated into this bin.
    pub dynamic_joules: f64,
    /// Queue-depth integral over this bin \[request·s\].
    pub depth_integral: f64,
}

impl WindowBin {
    /// Folds `other` into `self` (used by grid coarsening).
    fn absorb(&mut self, other: &Self) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.shed += other.shed;
        self.dispatches += other.dispatches;
        self.batched += other.batched;
        self.busy += other.busy;
        self.dynamic_joules += other.dynamic_joules;
        self.depth_integral += other.depth_integral;
    }
}

/// A bounded, self-coarsening time series over the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSeries {
    width: f64,
    max_bins: usize,
    bins: Vec<WindowBin>,
    depth_t: f64,
    depth: usize,
}

impl WindowSeries {
    /// A series with bins of `base_width`, coarsening (pairwise bin
    /// merges, width doubling) whenever it would exceed `max_bins`.
    ///
    /// # Panics
    ///
    /// Panics if `base_width` is not finite and positive, or `max_bins`
    /// is less than 2.
    #[must_use]
    pub fn new(base_width: Time, max_bins: usize) -> Self {
        let base_width = base_width.value();
        assert!(
            base_width.is_finite() && base_width > 0.0,
            "window width must be positive, got {base_width}"
        );
        assert!(max_bins >= 2, "need at least two window bins");
        Self {
            width: base_width,
            max_bins,
            bins: Vec::new(),
            depth_t: 0.0,
            depth: 0,
        }
    }

    /// Current bin width: the base width, doubled once per coarsening.
    #[must_use]
    pub fn width(&self) -> Time {
        Time::new(self.width)
    }

    /// The bins, in virtual-time order (bin `i` covers
    /// `[i·width, (i+1)·width)`).
    #[must_use]
    pub fn bins(&self) -> &[WindowBin] {
        &self.bins
    }

    /// Bin index of time `t` at the *current* width (no allocation).
    fn raw_index(&self, t: f64) -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (t.max(0.0) / self.width).floor() as usize
        }
    }

    /// Merges adjacent bin pairs and doubles the width.
    fn coarsen(&mut self) {
        let mut merged = Vec::with_capacity(self.bins.len().div_ceil(2));
        for pair in self.bins.chunks(2) {
            let mut bin = pair[0];
            if let Some(second) = pair.get(1) {
                bin.absorb(second);
            }
            merged.push(bin);
        }
        self.bins = merged;
        self.width *= 2.0;
    }

    /// Index of the bin containing `t`, coarsening and allocating as
    /// needed so the index is always in range.
    fn index(&mut self, t: f64) -> usize {
        let mut idx = self.raw_index(t);
        while idx >= self.max_bins {
            self.coarsen();
            idx = self.raw_index(t);
        }
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, WindowBin::default());
        }
        idx
    }

    /// Counts one arrival at instant `t`.
    pub fn count_arrival(&mut self, t: VirtInstant) {
        let idx = self.index(t.as_secs());
        self.bins[idx].arrivals += 1;
    }

    /// Counts one shed request at instant `t`.
    pub fn count_shed(&mut self, t: VirtInstant) {
        let idx = self.index(t.as_secs());
        self.bins[idx].shed += 1;
    }

    /// Counts `n` completions at instant `t`.
    pub fn count_completions(&mut self, t: VirtInstant, n: u64) {
        let idx = self.index(t.as_secs());
        self.bins[idx].completions += n;
    }

    /// Counts one `size`-request batch dispatch at instant `t`.
    pub fn count_dispatch(&mut self, t: VirtInstant, size: u64) {
        let idx = self.index(t.as_secs());
        self.bins[idx].dispatches += 1;
        self.bins[idx].batched += size;
    }

    /// Spreads a quantity over `[start, end)`: `f(bin, overlap)` is
    /// called with each bin's overlap \[s\] with the interval.
    fn prorate(&mut self, start: f64, end: f64, f: impl Fn(&mut WindowBin, f64)) {
        if end <= start {
            return;
        }
        // Force coarsening/allocation up front so the width is stable
        // across the loop below.
        let last = self.index(end);
        let first = self.index(start);
        for idx in first..=last {
            #[allow(clippy::cast_precision_loss)]
            let lo = idx as f64 * self.width;
            let hi = lo + self.width;
            let overlap = (end.min(hi) - start.max(lo)).max(0.0);
            f(&mut self.bins[idx], overlap);
        }
    }

    /// Marks the accelerator busy over `[start, end)`.
    pub fn add_busy(&mut self, start: VirtInstant, end: VirtInstant) {
        self.prorate(start.as_secs(), end.as_secs(), |bin, dt| bin.busy += dt);
    }

    /// Spreads `joules` of dynamic energy uniformly over `[start, end)`.
    pub fn add_energy(&mut self, start: VirtInstant, end: VirtInstant, joules: f64) {
        let (start, end) = (start.as_secs(), end.as_secs());
        let span = end - start;
        if span > 0.0 {
            self.prorate(start, end, |bin, dt| {
                bin.dynamic_joules += joules * dt / span;
            });
        }
    }

    /// Records a queue-depth transition: the previous depth is
    /// integrated up to `t`, then the depth becomes `depth`.
    pub fn set_depth(&mut self, t: VirtInstant, depth: usize) {
        self.integrate_depth(t.as_secs());
        self.depth = depth;
    }

    fn integrate_depth(&mut self, t: f64) {
        if t > self.depth_t && self.depth > 0 {
            #[allow(clippy::cast_precision_loss)]
            let d = self.depth as f64;
            let from = self.depth_t;
            self.prorate(from, t, |bin, dt| bin.depth_integral += d * dt);
        }
        self.depth_t = self.depth_t.max(t);
    }

    /// Closes the series at `makespan`: integrates the final queue
    /// depth and allocates (empty) bins through the end of the run.
    pub fn finish(&mut self, makespan: VirtInstant) {
        let makespan = makespan.as_secs();
        self.integrate_depth(makespan);
        if makespan > 0.0 {
            // Cover the full run even if the tail produced no events.
            let _ = self.index(makespan * (1.0 - 1e-12));
        }
    }

    /// Folds `other` into `self` bin-by-bin on a common grid.
    ///
    /// The two series must share a base grid: widths may differ only by
    /// the power-of-two factor coarsening introduces, and the finer
    /// series is coarsened until the widths agree. Bins are then
    /// absorbed index-wise, *keeping the longer horizon* — when the
    /// series cover different virtual-time spans (fleet shards drain at
    /// different instants), the tail bins of the longer series survive,
    /// including its final partial bin. The result re-coarsens if the
    /// union would exceed this series' bin bound.
    ///
    /// # Panics
    ///
    /// Panics if the widths are incommensurate (not related by a power
    /// of two), which means the series were built on different base
    /// grids.
    pub fn merge(&mut self, other: &Self) {
        let mut other = other.clone();
        while self.width < other.width && !approx_eq(self.width, other.width) {
            self.coarsen();
        }
        while other.width < self.width && !approx_eq(self.width, other.width) {
            other.coarsen();
        }
        assert!(
            approx_eq(self.width, other.width),
            "incommensurate window grids: {} vs {}",
            self.width,
            other.width
        );
        // Keep the longer horizon: a plain zip would silently drop the
        // longer series' tail (and with it the final partial bin).
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), WindowBin::default());
        }
        for (bin, o) in self.bins.iter_mut().zip(other.bins.iter()) {
            bin.absorb(o);
        }
        while self.bins.len() > self.max_bins {
            self.coarsen();
        }
        self.depth_t = self.depth_t.max(other.depth_t);
        self.depth += other.depth;
    }

    /// Renders the series as a fixed-width trajectory table.
    /// `static_power_w` is the always-on (laser + heater) floor added to
    /// each bin's dynamic power.
    #[must_use]
    pub fn render(&self, static_power_w: f64) -> String {
        let mut s =
            String::from("bin |    t[s] |   arr  done  shed | qdepth busy%  batch | power[W]\n");
        for (idx, bin) in self.bins.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let t = idx as f64 * self.width;
            #[allow(clippy::cast_precision_loss)]
            let batch = if bin.dispatches > 0 {
                bin.batched as f64 / bin.dispatches as f64
            } else {
                0.0
            };
            s.push_str(&format!(
                "{idx:>3} | {t:>7.2} | {:>5} {:>5} {:>5} | {:>6.1} {:>5.1} {:>6.2} | {:>8.3}\n",
                bin.arrivals,
                bin.completions,
                bin.shed,
                bin.depth_integral / self.width,
                bin.busy / self.width * 100.0,
                batch,
                static_power_w + bin.dynamic_joules / self.width,
            ));
        }
        s
    }

    /// Renders the series as JSONL, one `pixel.serve.window` object per
    /// bin. `tags` is spliced verbatim after the schema field (pass
    /// `""`, or e.g. `"design":"OO","load":0.85,` — trailing comma
    /// included).
    #[must_use]
    pub fn to_jsonl(&self, tags: &str) -> String {
        let mut s = String::new();
        for (idx, bin) in self.bins.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let t = idx as f64 * self.width;
            s.push_str(&format!(
                "{{\"schema\":\"pixel.serve.window\",{tags}\"bin\":{idx},\"t_s\":{t},\"width_s\":{},\"arrivals\":{},\"completions\":{},\"shed\":{},\"dispatches\":{},\"batched\":{},\"busy_s\":{},\"dynamic_j\":{},\"depth_integral\":{}}}\n",
                self.width,
                bin.arrivals,
                bin.completions,
                bin.shed,
                bin.dispatches,
                bin.batched,
                bin.busy,
                bin.dynamic_joules,
                bin.depth_integral,
            ));
        }
        s
    }
}

/// Width comparison tolerant of the float noise a long chain of `×2.0`
/// doublings cannot introduce but a differently-ordered base-width
/// computation could.
fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.max(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: f64) -> VirtInstant {
        VirtInstant::from_secs(t)
    }

    fn series(width: f64, max_bins: usize) -> WindowSeries {
        WindowSeries::new(Time::new(width), max_bins)
    }

    #[test]
    fn events_land_in_their_bins() {
        let mut w = series(1.0, 16);
        w.count_arrival(at(0.5));
        w.count_arrival(at(1.5));
        w.count_shed(at(1.5));
        w.count_completions(at(2.5), 3);
        w.count_dispatch(at(0.1), 4);
        assert_eq!(w.bins()[0].arrivals, 1);
        assert_eq!(w.bins()[1].arrivals, 1);
        assert_eq!(w.bins()[1].shed, 1);
        assert_eq!(w.bins()[2].completions, 3);
        assert_eq!(w.bins()[0].dispatches, 1);
        assert_eq!(w.bins()[0].batched, 4);
    }

    #[test]
    fn proration_conserves_totals() {
        let mut w = series(1.0, 64);
        w.add_busy(at(0.25), at(3.75));
        w.add_energy(at(0.25), at(3.75), 7.0);
        let busy: f64 = w.bins().iter().map(|b| b.busy).sum();
        let joules: f64 = w.bins().iter().map(|b| b.dynamic_joules).sum();
        assert!((busy - 3.5).abs() < 1e-12, "busy {busy}");
        assert!((joules - 7.0).abs() < 1e-12, "joules {joules}");
        // The interior bins are fully covered.
        assert!((w.bins()[1].busy - 1.0).abs() < 1e-12);
        assert!((w.bins()[0].busy - 0.75).abs() < 1e-12);
        assert!((w.bins()[3].busy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn depth_integration_matches_hand_computation() {
        let mut w = series(1.0, 16);
        w.set_depth(at(0.0), 1); // depth 1 over [0, 1)
        w.set_depth(at(1.0), 2); // depth 2 over [1, 2)
        w.set_depth(at(2.0), 0); // empty afterwards
        w.finish(at(4.0));
        let integral: f64 = w.bins().iter().map(|b| b.depth_integral).sum();
        assert!((integral - 3.0).abs() < 1e-12, "integral {integral}");
        assert!((w.bins()[0].depth_integral - 1.0).abs() < 1e-12);
        assert!((w.bins()[1].depth_integral - 2.0).abs() < 1e-12);
        assert_eq!(w.bins().len(), 4);
    }

    #[test]
    fn coarsening_bounds_bins_and_conserves_counts() {
        let mut w = series(1.0, 8);
        for i in 0..100 {
            w.count_arrival(at(f64::from(i) + 0.5));
        }
        assert!(w.bins().len() <= 8, "{} bins", w.bins().len());
        let total: u64 = w.bins().iter().map(|b| b.arrivals).sum();
        assert_eq!(total, 100);
        // Width doubled per coarsening, at least four times.
        let width = w.width().value();
        assert!(
            width >= 16.0 && (width as u64).is_power_of_two(),
            "width {width}"
        );
    }

    #[test]
    fn render_and_jsonl_cover_every_bin() {
        let mut w = series(0.5, 8);
        w.count_arrival(at(0.1));
        w.count_completions(at(1.4), 1);
        w.finish(at(1.5));
        let table = w.render(2.0);
        assert_eq!(table.lines().count(), 1 + w.bins().len());
        let jsonl = w.to_jsonl("\"design\":\"OO\",");
        assert_eq!(jsonl.lines().count(), w.bins().len());
        for line in jsonl.lines() {
            assert!(line.contains("\"schema\":\"pixel.serve.window\""));
            assert!(line.contains("\"design\":\"OO\""));
        }
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn rejects_nonpositive_width() {
        let _ = series(0.0, 8);
    }

    /// The regression the fleet aggregation depends on: merging
    /// per-shard series is bitwise identical to folding every event
    /// into one series — including the *final partial bin* of the
    /// shard with the longer virtual-time horizon, which a naive
    /// zip-and-drop merge would lose.
    #[test]
    fn merge_equals_concatenated_event_stream() {
        // Quantities are power-of-two fractions so float sums are
        // order-independent-exact and bitwise comparison is fair.
        let events: &[(f64, u64)] = &[(0.25, 1), (1.5, 2), (2.75, 1), (5.25, 3), (9.75, 2)];
        let split = 2; // first two events belong to "shard A"
        let mut all = series(1.0, 32);
        let mut a = series(1.0, 32);
        let mut b = series(1.0, 32);
        for (i, &(t, n)) in events.iter().enumerate() {
            let shard = if i < split { &mut a } else { &mut b };
            for target in [&mut all, shard] {
                target.count_arrival(at(t));
                target.count_completions(at(t), n);
                target.add_busy(at(t), at(t + 0.5));
                target.add_energy(at(t), at(t + 0.5), 0.25);
            }
        }
        // Different horizons: shard A drains early, shard B runs to a
        // *partial* final bin at 10.4 s.
        a.finish(at(2.9));
        b.finish(at(10.4));
        all.finish(at(10.4));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.width(), all.width());
        assert_eq!(merged.bins(), all.bins());
        // The final partial bin survived the merge.
        assert_eq!(merged.bins().len(), b.bins().len());
        assert_eq!(merged.bins().len(), 11);
        assert_eq!(merged.bins()[9].arrivals, 1);
    }

    #[test]
    fn merge_reconciles_coarsening_mismatch_and_conserves_totals() {
        // Shard A coarsened (width 2), shard B did not (width 1): the
        // merge must land both on the common coarser grid.
        let mut a = series(1.0, 4);
        for i in 0..8 {
            a.count_arrival(at(f64::from(i) + 0.5));
        }
        assert!(a.width().value() >= 2.0, "shard A coarsened");
        let mut b = series(1.0, 4);
        b.count_arrival(at(0.5));
        b.count_completions(at(1.5), 4);
        let width_a = a.width();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.width(), width_a);
        let arrivals: u64 = merged.bins().iter().map(|bin| bin.arrivals).sum();
        let completions: u64 = merged.bins().iter().map(|bin| bin.completions).sum();
        assert_eq!(arrivals, 9);
        assert_eq!(completions, 4);
        // Merging in the other order lands on the same grid and totals.
        let mut swapped = b;
        swapped.merge(&a);
        assert_eq!(swapped.width(), merged.width());
        assert_eq!(swapped.bins(), merged.bins());
    }

    #[test]
    fn merge_respects_the_bin_bound() {
        let mut a = series(1.0, 4);
        a.count_arrival(at(0.5));
        let mut b = series(1.0, 4);
        b.count_arrival(at(30.5)); // far horizon: union would need 31 bins
        a.merge(&b);
        assert!(a.bins().len() <= 4, "{} bins", a.bins().len());
        let arrivals: u64 = a.bins().iter().map(|bin| bin.arrivals).sum();
        assert_eq!(arrivals, 2);
    }

    #[test]
    #[should_panic(expected = "incommensurate")]
    fn merge_rejects_incommensurate_grids() {
        let mut a = series(1.0, 8);
        let b = series(0.3, 8);
        a.merge(&b);
    }
}
