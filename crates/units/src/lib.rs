//! Strongly-typed physical quantities shared by the PIXEL reproduction crates.
//!
//! The paper mixes femtojoules, picoseconds, micrometres and millimetres
//! freely; newtypes keep every interface in SI base units while providing
//! convenient constructors and accessors for the units the paper quotes.
//!
//! The crate also hosts [`rng`], the workspace's zero-dependency
//! deterministic PRNG (the build environment has no registry access, so
//! `rand` is unavailable).

pub mod rng;
pub mod virt;

pub use virt::{VirtInstant, VirtualNs};

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a value in SI base units.
            #[must_use]
            pub const fn new(si_value: f64) -> Self {
                Self(si_value)
            }

            /// Returns the value in SI base units.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN/inf).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the maximum of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the minimum of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// An energy in joules.
    Energy,
    "J"
);
quantity!(
    /// A time interval in seconds.
    Time,
    "s"
);
quantity!(
    /// A length in metres.
    Length,
    "m"
);
quantity!(
    /// A power in watts.
    Power,
    "W"
);
quantity!(
    /// An area in square metres.
    Area,
    "m^2"
);

impl Energy {
    /// Creates an energy from femtojoules (the unit used for device
    /// energy-per-bit figures in the paper).
    #[must_use]
    pub fn from_femtojoules(fj: f64) -> Self {
        Self::new(fj * 1e-15)
    }

    /// Creates an energy from picojoules.
    #[must_use]
    pub fn from_picojoules(pj: f64) -> Self {
        Self::new(pj * 1e-12)
    }

    /// Creates an energy from millijoules (the unit of Table II).
    #[must_use]
    pub fn from_millijoules(mj: f64) -> Self {
        Self::new(mj * 1e-3)
    }

    /// Returns the energy in femtojoules.
    #[must_use]
    pub fn as_femtojoules(self) -> f64 {
        self.value() * 1e15
    }

    /// Returns the energy in picojoules.
    #[must_use]
    pub fn as_picojoules(self) -> f64 {
        self.value() * 1e12
    }

    /// Returns the energy in nanojoules.
    #[must_use]
    pub fn as_nanojoules(self) -> f64 {
        self.value() * 1e9
    }

    /// Returns the energy in millijoules.
    #[must_use]
    pub fn as_millijoules(self) -> f64 {
        self.value() * 1e3
    }
}

impl Time {
    /// Creates a time from picoseconds.
    #[must_use]
    pub fn from_picos(ps: f64) -> Self {
        Self::new(ps * 1e-12)
    }

    /// Creates a time from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Returns the time in picoseconds.
    #[must_use]
    pub fn as_picos(self) -> f64 {
        self.value() * 1e12
    }

    /// Returns the time in nanoseconds.
    #[must_use]
    pub fn as_nanos(self) -> f64 {
        self.value() * 1e9
    }

    /// Returns the time in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.value() * 1e6
    }

    /// Returns the time in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.value() * 1e3
    }
}

impl Length {
    /// Creates a length from micrometres.
    #[must_use]
    pub fn from_micrometres(um: f64) -> Self {
        Self::new(um * 1e-6)
    }

    /// Creates a length from millimetres.
    #[must_use]
    pub fn from_millimetres(mm: f64) -> Self {
        Self::new(mm * 1e-3)
    }

    /// Creates a length from centimetres.
    #[must_use]
    pub fn from_centimetres(cm: f64) -> Self {
        Self::new(cm * 1e-2)
    }

    /// Returns the length in micrometres.
    #[must_use]
    pub fn as_micrometres(self) -> f64 {
        self.value() * 1e6
    }

    /// Returns the length in millimetres.
    #[must_use]
    pub fn as_millimetres(self) -> f64 {
        self.value() * 1e3
    }

    /// Returns the length in centimetres.
    #[must_use]
    pub fn as_centimetres(self) -> f64 {
        self.value() * 1e2
    }
}

impl Power {
    /// Creates a power from microwatts.
    #[must_use]
    pub fn from_microwatts(uw: f64) -> Self {
        Self::new(uw * 1e-6)
    }

    /// Creates a power from milliwatts.
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// Returns the power in microwatts.
    #[must_use]
    pub fn as_microwatts(self) -> f64 {
        self.value() * 1e6
    }

    /// Returns the power in milliwatts.
    #[must_use]
    pub fn as_milliwatts(self) -> f64 {
        self.value() * 1e3
    }
}

impl Area {
    /// Creates an area from square micrometres.
    #[must_use]
    pub fn from_square_micrometres(um2: f64) -> Self {
        Self::new(um2 * 1e-12)
    }

    /// Returns the area in square micrometres.
    #[must_use]
    pub fn as_square_micrometres(self) -> f64 {
        self.value() * 1e12
    }

    /// Returns the area in square millimetres.
    #[must_use]
    pub fn as_square_millimetres(self) -> f64 {
        self.value() * 1e6
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, rhs: Time) -> Energy {
        Energy::new(self.value() * rhs.value())
    }
}

impl Mul<Power> for Time {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        Energy::new(self.value() * rhs.value())
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    fn div(self, rhs: Time) -> Power {
        Power::new(self.value() / rhs.value())
    }
}

impl Div<Power> for Energy {
    type Output = Time;
    fn div(self, rhs: Power) -> Time {
        Time::new(self.value() / rhs.value())
    }
}

impl Mul<Length> for Length {
    type Output = Area;
    fn mul(self, rhs: Length) -> Area {
        Area::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_round_trips() {
        let e = Energy::from_femtojoules(500.0);
        assert!((e.as_femtojoules() - 500.0).abs() < 1e-9);
        assert!((e.as_picojoules() - 0.5).abs() < 1e-12);
        assert!((Energy::from_millijoules(3.0).as_millijoules() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_unit_round_trips() {
        let t = Time::from_picos(0.547);
        assert!((t.as_picos() - 0.547).abs() < 1e-12);
        assert!((Time::from_nanos(2.95).as_nanos() - 2.95).abs() < 1e-12);
    }

    #[test]
    fn length_round_trips() {
        let l = Length::from_micrometres(7.5);
        assert!((l.as_micrometres() - 7.5).abs() < 1e-12);
        assert!((Length::from_millimetres(6.77).as_millimetres() - 6.77).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_on_quantities() {
        let a = Energy::from_picojoules(1.0);
        let b = Energy::from_picojoules(2.0);
        assert!(((a + b).as_picojoules() - 3.0).abs() < 1e-12);
        assert!(((b - a).as_picojoules() - 1.0).abs() < 1e-12);
        assert!(((a * 4.0).as_picojoules() - 4.0).abs() < 1e-12);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_time_energy_dimensional_relations() {
        let p = Power::from_milliwatts(1.0);
        let t = Time::from_nanos(1.0);
        let e = p * t;
        assert!((e.as_picojoules() - 1.0).abs() < 1e-12);
        let back = e / t;
        assert!((back.as_milliwatts() - 1.0).abs() < 1e-12);
        let t_back = e / p;
        assert!((t_back.as_nanos() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn area_from_lengths() {
        let side = Length::from_micrometres(15.0);
        let a = side * side;
        assert!((a.as_square_micrometres() - 225.0).abs() < 1e-9);
    }

    #[test]
    fn sum_and_ordering() {
        let total: Energy = (1..=4).map(|i| Energy::from_picojoules(f64::from(i))).sum();
        assert!((total.as_picojoules() - 10.0).abs() < 1e-12);
        assert!(Energy::from_picojoules(2.0) > Energy::from_picojoules(1.0));
        assert_eq!(
            Energy::from_picojoules(2.0).max(Energy::from_picojoules(1.0)),
            Energy::from_picojoules(2.0)
        );
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Energy::new(1.5)), "1.5 J");
        assert_eq!(format!("{}", Time::new(0.25)), "0.25 s");
    }
}
