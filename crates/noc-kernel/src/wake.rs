//! When a component can next act, in its own words.
//!
//! Quiescence-aware stepping asks every component one question: *at
//! which base cycle can your state next change, absent new input?* A
//! component answers on its own terms — a count of its own clock edges
//! (a socket's countdown, which pauses while the socket is blocked) or
//! an absolute cycle (a memory whose access completes at a stamped
//! time). [`Wake::base_cycle`] is the one mapping from either answer
//! onto the base timeline, and the only code that reads the
//! "not until input" sentinel.

use crate::ClockDomain;

/// When a component can next change state, absent new input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// After `n` of the component's own clock edges: `Ticks(0)` is its
    /// next edge, so every edge before the `n`-th is a provable no-op.
    /// `u64::MAX` means not until input arrives.
    Ticks(u64),
    /// At the component's first clock edge at or after this base cycle.
    At(u64),
}

impl Wake {
    /// The base cycle this wake falls on for a component clocked by
    /// `clock` whose edges are accounted through `settled` (exclusive),
    /// or `None` for not until input. Never earlier than the first edge
    /// at or after `settled`; saturates at [`u64::MAX`] instead of
    /// wrapping.
    #[inline]
    pub fn base_cycle(self, clock: ClockDomain, settled: u64) -> Option<u64> {
        match self {
            Wake::Ticks(u64::MAX) => None,
            Wake::Ticks(n) => Some(
                clock
                    .next_active(settled)
                    .saturating_add(n.saturating_mul(clock.divisor())),
            ),
            Wake::At(cycle) => Some(clock.next_active(cycle.max(settled))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCKS: [u64; 2] = [1, 3];

    #[test]
    fn wake_ticks_count_edges_from_the_next_one() {
        for div in CLOCKS {
            let clock = ClockDomain::new(div);
            for settled in [0, 1, 2, 3, 100] {
                let edge = clock.next_active(settled);
                assert_eq!(Wake::Ticks(0).base_cycle(clock, settled), Some(edge));
                assert_eq!(
                    Wake::Ticks(5).base_cycle(clock, settled),
                    Some(edge + 5 * div),
                    "clk/{div} settled {settled}"
                );
            }
        }
    }

    #[test]
    fn wake_sentinel_constrains_nothing() {
        for div in CLOCKS {
            let clock = ClockDomain::new(div);
            assert_eq!(Wake::Ticks(u64::MAX).base_cycle(clock, 0), None);
            assert_eq!(Wake::Ticks(u64::MAX).base_cycle(clock, 7), None);
        }
    }

    #[test]
    fn wake_near_the_end_of_time_saturates() {
        for div in CLOCKS {
            let clock = ClockDomain::new(div);
            let near = u64::MAX - 1;
            assert_eq!(Wake::Ticks(7).base_cycle(clock, near), Some(u64::MAX));
            assert_eq!(
                Wake::Ticks(u64::MAX - 1).base_cycle(clock, 5),
                Some(u64::MAX)
            );
            assert_eq!(
                Wake::At(near).base_cycle(clock, 0),
                Some(clock.next_active(near))
            );
            assert_eq!(Wake::At(u64::MAX).base_cycle(clock, 0), Some(u64::MAX));
        }
    }

    #[test]
    fn wake_at_rounds_up_to_an_edge() {
        let clock = ClockDomain::new(3);
        assert_eq!(Wake::At(7).base_cycle(clock, 0), Some(9));
        assert_eq!(Wake::At(9).base_cycle(clock, 0), Some(9));
        assert_eq!(Wake::At(7).base_cycle(ClockDomain::BASE, 0), Some(7));
    }

    #[test]
    fn wake_at_before_the_settled_cycle_maps_to_the_next_edge() {
        for div in CLOCKS {
            let clock = ClockDomain::new(div);
            for settled in [4, 5, 6] {
                let edge = clock.next_active(settled);
                assert_eq!(Wake::At(2).base_cycle(clock, settled), Some(edge));
                assert_eq!(Wake::At(settled).base_cycle(clock, settled), Some(edge));
            }
        }
    }
}
