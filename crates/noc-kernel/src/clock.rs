//! Divisor-based clock domains.
//!
//! A mixed-clock NoC (GALS-style, as the paper's physical layer allows) is
//! modelled against a single *base clock*: the fastest clock in the system.
//! Every other clock is an integer division of it. A component in domain `d`
//! performs work only on base cycles where `d` is *active*; this keeps the
//! whole simulation on one deterministic timeline.

use std::fmt;

/// A clock domain defined by an integer divisor of the base clock.
///
/// # Examples
///
/// ```
/// use noc_kernel::ClockDomain;
/// let half = ClockDomain::new(2);
/// assert!(half.is_active(0));
/// assert!(!half.is_active(1));
/// assert!(half.is_active(2));
/// assert_eq!(half.next_active(1), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    divisor: u64,
}

impl ClockDomain {
    /// The base clock itself (divisor 1).
    pub const BASE: ClockDomain = ClockDomain { divisor: 1 };

    /// Creates a clock domain ticking once every `divisor` base cycles.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "clock divisor must be non-zero");
        ClockDomain { divisor }
    }

    /// The divisor relative to the base clock.
    pub fn divisor(&self) -> u64 {
        self.divisor
    }

    /// Returns `true` if this domain ticks on base cycle `base_cycle`.
    pub fn is_active(&self, base_cycle: u64) -> bool {
        base_cycle.is_multiple_of(self.divisor)
    }

    /// The first active base cycle at or after `base_cycle`, saturating
    /// at [`u64::MAX`]: callers feed this absolute stamps that may be
    /// the `u64::MAX` "never" sentinel (or sit just below it), and a
    /// wrapped sum would turn "never" into a bogus early wakeup.
    pub fn next_active(&self, base_cycle: u64) -> u64 {
        match base_cycle % self.divisor {
            0 => base_cycle,
            rem => base_cycle.saturating_add(self.divisor - rem),
        }
    }

    /// Number of ticks of this domain in `base_cycles` base cycles starting
    /// from cycle 0.
    pub fn ticks_in(&self, base_cycles: u64) -> u64 {
        base_cycles.div_ceil(self.divisor)
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::BASE
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clk/{}", self.divisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_clock_always_active() {
        for c in 0..10 {
            assert!(ClockDomain::BASE.is_active(c));
        }
    }

    #[test]
    fn divided_clock_activation_pattern() {
        let d = ClockDomain::new(3);
        let active: Vec<u64> = (0..10).filter(|&c| d.is_active(c)).collect();
        assert_eq!(active, vec![0, 3, 6, 9]);
    }

    #[test]
    fn next_active_rounds_up() {
        let d = ClockDomain::new(4);
        assert_eq!(d.next_active(0), 0);
        assert_eq!(d.next_active(1), 4);
        assert_eq!(d.next_active(4), 4);
        assert_eq!(d.next_active(5), 8);
    }

    #[test]
    fn next_active_saturates_at_never_sentinel() {
        // `u64::MAX` is the workspace-wide "never" stamp; rounding it
        // (or a stamp just below it) onto a divided clock's grid must
        // stay "never", not wrap into an early bogus wakeup.
        let d = ClockDomain::new(4);
        assert_eq!(d.next_active(u64::MAX), u64::MAX);
        assert_eq!(d.next_active(u64::MAX - 1), u64::MAX);
    }

    #[test]
    fn ticks_in_counts_activations() {
        let d = ClockDomain::new(4);
        assert_eq!(d.ticks_in(0), 0);
        assert_eq!(d.ticks_in(1), 1); // cycle 0 active
        assert_eq!(d.ticks_in(4), 1);
        assert_eq!(d.ticks_in(5), 2);
        assert_eq!(d.ticks_in(9), 3);
    }

    #[test]
    #[should_panic(expected = "divisor must be non-zero")]
    fn zero_divisor_panics() {
        ClockDomain::new(0);
    }

    #[test]
    fn display_format() {
        assert_eq!(ClockDomain::new(2).to_string(), "clk/2");
    }
}
