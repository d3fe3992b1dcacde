//! Mini-DSENT: gate-level component estimation.
//!
//! DSENT (Sun et al., NOCS 2012) turns device structure into
//! energy/area/power/delay given a technology model. The paper uses only
//! its gate-count pathway: `estimate` reproduces that pathway from a
//! [`GateCount`], a [`LogicDepth`] and a [`Technology`].

use crate::gates::{GateCount, LogicDepth};
use crate::technology::Technology;
use pixel_units::{Area, Energy, Power, Time};

/// Activity factor applied when none is given: the classic 0.5 toggle
/// assumption for random data.
pub const DEFAULT_ACTIVITY: f64 = 0.5;

/// Estimated physical characteristics of a gate-level component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceEstimate {
    /// Dynamic energy consumed per clocked operation.
    pub dynamic_energy_per_op: Energy,
    /// Layout area.
    pub area: Area,
    /// Static (leakage) power.
    pub static_power: Power,
    /// Critical-path propagation delay.
    pub delay: Time,
}

impl DeviceEstimate {
    /// Combines two estimates placed side by side on the die (areas and
    /// powers add; delay is the max — they operate in parallel).
    #[must_use]
    pub fn alongside(self, other: Self) -> Self {
        Self {
            dynamic_energy_per_op: self.dynamic_energy_per_op + other.dynamic_energy_per_op,
            area: self.area + other.area,
            static_power: self.static_power + other.static_power,
            delay: self.delay.max(other.delay),
        }
    }

    /// Combines two estimates in series (pipeline): everything adds.
    #[must_use]
    pub fn then(self, other: Self) -> Self {
        Self {
            dynamic_energy_per_op: self.dynamic_energy_per_op + other.dynamic_energy_per_op,
            area: self.area + other.area,
            static_power: self.static_power + other.static_power,
            delay: self.delay + other.delay,
        }
    }
}

/// Estimates a component with the default 0.5 activity factor.
#[must_use]
pub fn estimate(gates: GateCount, depth: LogicDepth, tech: &Technology) -> DeviceEstimate {
    estimate_with_activity(gates, depth, tech, DEFAULT_ACTIVITY)
}

/// Estimates a component with an explicit switching-activity factor
/// (fraction of gates toggling per operation).
#[must_use]
pub fn estimate_with_activity(
    gates: GateCount,
    depth: LogicDepth,
    tech: &Technology,
    activity: f64,
) -> DeviceEstimate {
    let g = gates.as_f64();
    DeviceEstimate {
        dynamic_energy_per_op: tech.energy_per_gate_switch * (g * activity.clamp(0.0, 1.0)),
        area: tech.area_per_gate * g,
        static_power: tech.leakage_per_gate * g,
        delay: tech.delay_per_level * depth.as_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::bulk22lvt()
    }

    #[test]
    fn paper_cla_example_delay_and_power() {
        let est = estimate(GateCount::new(212), LogicDepth::new(10), &tech());
        assert!((est.delay.as_nanos() - 2.95).abs() < 1e-9);
        assert!((est.static_power.as_microwatts() - 0.17).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_activity() {
        let low = estimate_with_activity(GateCount::new(100), LogicDepth::new(1), &tech(), 0.1);
        let high = estimate_with_activity(GateCount::new(100), LogicDepth::new(1), &tech(), 0.2);
        assert!((high.dynamic_energy_per_op / low.dynamic_energy_per_op - 2.0).abs() < 1e-12);
    }

    #[test]
    fn activity_is_clamped() {
        let over = estimate_with_activity(GateCount::new(10), LogicDepth::new(1), &tech(), 2.0);
        let one = estimate_with_activity(GateCount::new(10), LogicDepth::new(1), &tech(), 1.0);
        assert_eq!(over.dynamic_energy_per_op, one.dynamic_energy_per_op);
    }

    #[test]
    fn composition_rules() {
        let a = estimate(GateCount::new(100), LogicDepth::new(4), &tech());
        let b = estimate(GateCount::new(50), LogicDepth::new(6), &tech());

        let parallel = a.alongside(b);
        assert_eq!(parallel.delay, b.delay);
        assert!((parallel.area / (a.area + b.area) - 1.0).abs() < 1e-12);

        let serial = a.then(b);
        assert!((serial.delay.as_nanos() - (a.delay + b.delay).as_nanos()).abs() < 1e-12);
    }
}
