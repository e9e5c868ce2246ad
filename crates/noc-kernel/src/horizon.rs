//! Min-combining event horizons.
//!
//! Quiescence-aware simulators answer one question per component: *at
//! which base cycle can your state next change?* The answer is an
//! `Option<u64>` — `Some(cycle)` for a concrete event, `None` for
//! "never, absent new input". Combining the answers of many components
//! is always the same fold: the earliest `Some` wins, and only an
//! all-`None` set stays `None`. [`Horizon`] keeps that Option-min logic
//! in one place so every layer (links, switches, fabrics, whole SoCs,
//! baseline interconnects) folds its sub-horizons identically.

use std::fmt;

/// An accumulator for the earliest of many optional events.
///
/// # Examples
///
/// ```
/// use noc_kernel::Horizon;
/// let mut h = Horizon::new();
/// assert_eq!(h.earliest(), None); // no component reported an event
/// h.merge(Some(90));
/// h.merge(None); // a quiescent component constrains nothing
/// h.merge_at(42);
/// assert_eq!(h.earliest(), Some(42));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Horizon(Option<u64>);

impl Horizon {
    /// The empty horizon: no event ever (`None` until merged with one).
    pub const NEVER: Horizon = Horizon(None);

    /// Starts an accumulation with no events.
    #[inline]
    pub fn new() -> Self {
        Horizon::NEVER
    }

    /// A horizon holding exactly one event.
    pub fn at(cycle: u64) -> Self {
        Horizon(Some(cycle))
    }

    /// Folds in another component's horizon: the earlier event wins;
    /// `None` (quiescent) constrains nothing.
    #[inline]
    pub fn merge(&mut self, event: Option<u64>) {
        self.0 = match (self.0, event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
    }

    /// Folds in a concrete event cycle.
    #[inline]
    pub fn merge_at(&mut self, cycle: u64) {
        self.merge(Some(cycle));
    }

    /// Folds in a component's idle-tick countdown as used across the
    /// workspace: `idle` upcoming ticks are provably no-ops, so its next
    /// possible action is at `now + idle` — except the `u64::MAX`
    /// sentinel, which means "no tick-based claim; quiescent until some
    /// other event" and constrains nothing. Keeping the sentinel
    /// convention here stops the backends hand-rolling (and diverging
    /// on) it.
    pub fn merge_idle_ticks(&mut self, now: u64, idle: u64) {
        if idle != u64::MAX {
            self.merge_at(now.saturating_add(idle));
        }
    }

    /// The earliest merged event, if any component reported one.
    #[inline]
    pub fn earliest(&self) -> Option<u64> {
        self.0
    }

    /// The earliest merged event, clamped to be no earlier than `now` —
    /// for callers whose contract is "the next event at or after the
    /// current cycle" while sub-components report stale (past) stamps.
    #[inline]
    pub fn earliest_from(&self, now: u64) -> Option<u64> {
        self.0.map(|t| t.max(now))
    }
}

impl From<Option<u64>> for Horizon {
    #[inline]
    fn from(event: Option<u64>) -> Self {
        Horizon(event)
    }
}

impl fmt::Display for Horizon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(t) => write!(f, "next event at {t}"),
            None => f.write_str("quiescent"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_horizon_is_never() {
        assert_eq!(Horizon::new().earliest(), None);
        assert_eq!(Horizon::NEVER.earliest(), None);
        assert_eq!(Horizon::default(), Horizon::NEVER);
    }

    #[test]
    fn merge_takes_minimum() {
        let mut h = Horizon::new();
        h.merge(Some(10));
        h.merge(Some(3));
        h.merge(Some(7));
        assert_eq!(h.earliest(), Some(3));
    }

    #[test]
    fn none_constrains_nothing() {
        let mut h = Horizon::at(5);
        h.merge(None);
        assert_eq!(h.earliest(), Some(5));
        let mut h = Horizon::new();
        h.merge(None);
        assert_eq!(h.earliest(), None);
    }

    #[test]
    fn idle_ticks_sentinel_constrains_nothing() {
        let mut h = Horizon::new();
        h.merge_idle_ticks(100, u64::MAX);
        assert_eq!(h.earliest(), None);
        h.merge_idle_ticks(100, 7);
        assert_eq!(h.earliest(), Some(107));
        h.merge_idle_ticks(u64::MAX, 7); // saturates instead of wrapping
        assert_eq!(h.earliest(), Some(107));
    }

    #[test]
    fn clamping_never_travels_backwards() {
        let mut h = Horizon::new();
        h.merge_at(4);
        assert_eq!(h.earliest_from(10), Some(10));
        assert_eq!(h.earliest_from(2), Some(4));
        assert_eq!(Horizon::new().earliest_from(10), None);
    }

    #[test]
    fn conversion_and_display() {
        assert_eq!(Horizon::from(Some(9)).earliest(), Some(9));
        assert_eq!(Horizon::from(None).earliest(), None);
        assert!(Horizon::at(9).to_string().contains('9'));
        assert!(Horizon::NEVER.to_string().contains("quiescent"));
    }
}
