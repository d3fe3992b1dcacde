//! The reactive, energy-aware autoscaler.
//!
//! PIXEL's energy story is dominated by the always-on laser/heater
//! floor: an idle optical shard burns watts doing nothing. At fleet
//! scale the lever is *how many shards are powered*: the autoscaler
//! ticks on a fixed virtual-time interval, compares the mean backlog
//! per powered shard against two watermarks, and wakes or drains one
//! shard per tick (single-step hysteresis — no flapping between
//! watermarks, no multi-shard thundering herds).
//!
//! Transitions are charged honestly (see [`pixel_serve::shard`]): a woken
//! shard burns its floor through the whole `wake_latency` stabilization
//! before serving anything, and a drained shard keeps burning until its
//! queue empties plus a `drain_latency` shutdown tail. Joules/request
//! therefore reflects the real cost of chasing load, not free
//! teleportation between power states.

use crate::route::ShardView;
use pixel_units::Time;

/// Autoscaler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Master switch; disabled fleets keep every shard powered.
    pub enabled: bool,
    /// Virtual-time between scaling decisions.
    pub interval: Time,
    /// Mean backlog per powered shard above which one shard wakes.
    pub high_watermark: f64,
    /// Mean backlog per powered shard below which one shard drains.
    pub low_watermark: f64,
    /// Powered shards never drop below this count.
    pub min_active: usize,
    /// Laser/heater stabilization time charged on wake.
    pub wake_latency: Time,
    /// Shutdown tail charged after a drained shard empties.
    pub drain_latency: Time,
}

impl AutoscaleConfig {
    /// Autoscaling off: the whole fleet stays powered for the whole
    /// run (the fixed-provisioning baseline).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            interval: Time::new(1.0),
            high_watermark: f64::INFINITY,
            low_watermark: 0.0,
            min_active: 1,
            wake_latency: Time::ZERO,
            drain_latency: Time::ZERO,
        }
    }

    /// The artifact's reactive setup: tick every `interval` seconds,
    /// wake above 6 queued-or-serving requests per powered shard, drain
    /// below 2, keep one shard always powered, and pay 5 s transitions
    /// both ways. The wide hysteresis band tolerates the backlog skew
    /// that affinity routing concentrates on single shards — a snapshot
    /// burst on one shard must not re-wake a fleet the mean says is
    /// idle.
    #[must_use]
    pub fn reactive(interval: Time) -> Self {
        Self {
            enabled: true,
            interval,
            high_watermark: 6.0,
            low_watermark: 2.0,
            min_active: 1,
            wake_latency: Time::new(5.0),
            drain_latency: Time::new(5.0),
        }
    }
}

/// What one autoscaler tick decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Power shard `id` up.
    Wake(usize),
    /// Start draining shard `id`.
    Drain(usize),
    /// Leave the fleet as is.
    Hold,
}

/// One scaling decision over the fleet's current shard views.
///
/// Powered = routable (`Active` or `Waking`); draining shards are
/// already on their way out and count for neither watermark. Wakes pick
/// the lowest-id `Off` shard, drains the highest-id `Active` one
/// (deterministic tie-breaking keeps `reproduce fleet` bitwise stable).
/// One transition at a time, in either direction: while a wake is still
/// stabilizing no drain is issued, and while a drain is still emptying
/// no wake is issued — the fleet finishes one transition before
/// starting the opposite one, which stops watermark flapping from
/// paying wake latency every other tick.
#[must_use]
pub fn decide(config: &AutoscaleConfig, views: &[ShardView]) -> ScaleAction {
    if !config.enabled {
        return ScaleAction::Hold;
    }
    let powered: Vec<&ShardView> = views.iter().filter(|v| v.routable).collect();
    if powered.is_empty() {
        // All shards draining/off (cannot happen with min_active ≥ 1,
        // but a defensive wake beats a stalled fleet).
        return match views.iter().find(|v| v.off) {
            Some(v) => ScaleAction::Wake(v.id),
            None => ScaleAction::Hold,
        };
    }
    let draining = views.iter().any(|v| !v.routable && !v.off);
    let backlog: usize = powered.iter().map(|v| v.backlog()).sum();
    #[allow(clippy::cast_precision_loss)]
    let mean = backlog as f64 / powered.len() as f64;
    if mean > config.high_watermark && !draining {
        if let Some(v) = views.iter().find(|v| v.off) {
            return ScaleAction::Wake(v.id);
        }
    } else if mean < config.low_watermark
        && powered.len() > config.min_active
        && !powered.iter().any(|v| v.waking)
    {
        if let Some(v) = views.iter().rev().find(|v| v.routable && !v.waking) {
            return ScaleAction::Drain(v.id);
        }
    }
    ScaleAction::Hold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: usize, routable: bool, off: bool, waking: bool, depth: usize) -> ShardView {
        ShardView {
            id,
            routable,
            waking,
            off,
            queue_depth: depth,
            busy: false,
        }
    }

    fn reactive() -> AutoscaleConfig {
        AutoscaleConfig::reactive(Time::new(10.0))
    }

    #[test]
    fn wakes_the_lowest_off_shard_above_the_high_watermark() {
        let views = vec![
            view(0, true, false, false, 9),
            view(1, false, true, false, 0),
            view(2, false, true, false, 0),
        ];
        assert_eq!(decide(&reactive(), &views), ScaleAction::Wake(1));
    }

    #[test]
    fn drains_the_highest_active_shard_below_the_low_watermark() {
        let views = vec![
            view(0, true, false, false, 0),
            view(1, true, false, false, 1),
            view(2, true, false, false, 0),
        ];
        assert_eq!(decide(&reactive(), &views), ScaleAction::Drain(2));
    }

    #[test]
    fn holds_between_watermarks_and_respects_min_active() {
        let config = reactive();
        let between = vec![
            view(0, true, false, false, 2),
            view(1, true, false, false, 3),
        ];
        assert_eq!(decide(&config, &between), ScaleAction::Hold);
        let last = vec![view(0, true, false, false, 0)];
        assert_eq!(decide(&config, &last), ScaleAction::Hold, "min_active");
    }

    #[test]
    fn no_drain_while_a_wake_is_stabilizing() {
        let views = vec![
            view(0, true, false, false, 0),
            view(1, true, false, true, 0),
        ];
        assert_eq!(decide(&reactive(), &views), ScaleAction::Hold);
    }

    #[test]
    fn disabled_always_holds() {
        let views = vec![
            view(0, true, false, false, 1000),
            view(1, false, true, false, 0),
        ];
        assert_eq!(
            decide(&AutoscaleConfig::disabled(), &views),
            ScaleAction::Hold
        );
    }
}
