//! Link bandwidth newtype.

use std::fmt;
use std::ops::{Div, Mul};

use crate::error::TopologyError;

/// Bandwidth of a directed link, in data units (tuples or bits) per unit cost.
///
/// Bandwidths are strictly positive and may be `+∞` — the model of
/// Section 2.2 uses infinite bandwidth to make a direction free, which is
/// how the classic MPC model embeds into the topology-aware model. Dividing
/// a finite amount of traffic by an infinite bandwidth costs exactly `0`.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Infinite bandwidth: traffic over this link is free.
    pub const INF: Bandwidth = Bandwidth(f64::INFINITY);

    /// Create a bandwidth, validating that it is positive and not NaN.
    pub fn new(w: f64) -> Result<Self, TopologyError> {
        if w.is_nan() || w <= 0.0 {
            Err(TopologyError::InvalidBandwidth(w))
        } else {
            Ok(Bandwidth(w))
        }
    }

    /// The raw value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// `true` if this link is free (infinite bandwidth).
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// The cost of shipping `amount` data units across this link:
    /// `amount / w`, which is `0` for infinite bandwidth.
    #[inline]
    pub fn cost_of(self, amount: f64) -> f64 {
        if self.0.is_infinite() {
            0.0
        } else {
            amount / self.0
        }
    }

    /// Total order (bandwidths are never NaN).
    #[inline]
    pub fn total_cmp(self, other: Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// Minimum of two bandwidths (used when contracting degree-2 routers).
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl Mul<f64> for Bandwidth {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Div<Bandwidth> for f64 {
    type Output = f64;
    fn div(self, rhs: Bandwidth) -> f64 {
        rhs.cost_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid() {
        assert!(Bandwidth::new(0.0).is_err());
        assert!(Bandwidth::new(-1.0).is_err());
        assert!(Bandwidth::new(f64::NAN).is_err());
        assert!(Bandwidth::new(1e-9).is_ok());
        assert!(Bandwidth::new(f64::INFINITY).is_ok());
    }

    #[test]
    fn infinite_is_free() {
        assert_eq!(Bandwidth::INF.cost_of(1e18), 0.0);
        assert!(Bandwidth::INF.is_infinite());
    }

    #[test]
    fn cost_divides() {
        let w = Bandwidth::new(4.0).unwrap();
        assert_eq!(w.cost_of(8.0), 2.0);
        assert_eq!(8.0 / w, 2.0);
    }

    #[test]
    fn min_picks_smaller() {
        let a = Bandwidth::new(2.0).unwrap();
        let b = Bandwidth::new(3.0).unwrap();
        assert_eq!(a.min(b).get(), 2.0);
        assert_eq!(b.min(a).get(), 2.0);
        assert_eq!(a.min(Bandwidth::INF).get(), 2.0);
    }
}
