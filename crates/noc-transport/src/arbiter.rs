//! Output-port arbitration: pressure-aware round-robin.
//!
//! Quality of service in the Arteris transport layer rides on the packet
//! `pressure` field: higher pressure always wins an output port; equals
//! share it round-robin. This is the entire QoS mechanism the switches
//! implement — NIUs decide pressure, switches just honour it.

use std::fmt;

/// Pressure-aware round-robin: the highest pressure class wins; within the
/// class, grants rotate starting after the previous winner (classic
/// round-robin pointer), so equal-pressure requesters share bandwidth
/// fairly and no requester starves within its class.
///
/// Lower classes *can* starve under sustained higher-pressure load — that
/// is the intended QoS semantics, shown end to end by the two points of
/// `tests/scenarios/qos_classes.scn` (`scn` prints them; the corpus suite
/// asserts the latency shift).
///
/// # Examples
///
/// ```
/// use noc_transport::RoundRobinArbiter;
/// let mut arb = RoundRobinArbiter::new();
/// // equal pressure: alternates fairly
/// assert_eq!(arb.pick(&[Some(0), Some(0)]), Some(0));
/// assert_eq!(arb.pick(&[Some(0), Some(0)]), Some(1));
/// // higher pressure wins outright
/// assert_eq!(arb.pick(&[Some(0), Some(3)]), Some(1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinArbiter {
    /// The last winner: a port index, so a `u32` (a switch output holds
    /// one arbiter, and a fabric thousands).
    last: Option<u32>,
}

impl RoundRobinArbiter {
    /// Creates an arbiter with the rotation pointer at zero.
    pub fn new() -> Self {
        RoundRobinArbiter::default()
    }

    fn index(winner: usize) -> u32 {
        u32::try_from(winner).expect("requester index fits in u32")
    }

    /// Chooses among `requests`, where `requests[i] = Some(pressure)` when
    /// requester `i` wants the output. Returns the granted index: work
    /// conserving (someone is granted whenever someone requests) and
    /// deterministic.
    pub fn pick(&mut self, requests: &[Option<u8>]) -> Option<usize> {
        let top = requests.iter().flatten().max()?;
        let n = requests.len();
        // Rotate starting just after the last winner (from 0 when fresh).
        let start = self.last.map_or(0, |l| l as usize + 1);
        let winner = (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| requests[i] == Some(*top))?;
        self.last = Some(Self::index(winner));
        Some(winner)
    }

    /// Grants `winner`, the only requester: exactly what
    /// [`RoundRobinArbiter::pick`] does when `winner` holds the one `Some`
    /// of its input, without building the input.
    pub(crate) fn grant_sole(&mut self, winner: usize) {
        self.last = Some(Self::index(winner));
    }
}

impl fmt::Display for RoundRobinArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rr(last={:?})", self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_requests_no_grant() {
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.pick(&[None, None, None]), None);
        assert_eq!(arb.pick(&[]), None);
        // Nothing was granted: the rotation still starts at requester 0.
        assert_eq!(arb.pick(&[Some(0), Some(0)]), Some(0));
    }

    #[test]
    fn single_requester_always_granted() {
        let mut arb = RoundRobinArbiter::new();
        for _ in 0..5 {
            assert_eq!(arb.pick(&[None, Some(0), None]), Some(1));
        }
    }

    #[test]
    fn equal_pressure_round_robins_fairly() {
        let mut arb = RoundRobinArbiter::new();
        let mut counts = [0u32; 3];
        for _ in 0..300 {
            let w = arb.pick(&[Some(1), Some(1), Some(1)]).unwrap();
            counts[w] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn higher_pressure_preempts() {
        let mut arb = RoundRobinArbiter::new();
        for _ in 0..10 {
            assert_eq!(arb.pick(&[Some(0), Some(2), Some(1)]), Some(1));
        }
    }

    #[test]
    fn rotation_within_top_class_only() {
        let mut arb = RoundRobinArbiter::new();
        let reqs = [Some(3), Some(0), Some(3)];
        let mut wins = [0u32; 3];
        for _ in 0..100 {
            wins[arb.pick(&reqs).unwrap()] += 1;
        }
        assert_eq!(wins[1], 0, "low-pressure requester must not win");
        assert_eq!(wins[0], 50);
        assert_eq!(wins[2], 50);
    }

    #[test]
    fn pointer_resumes_after_idle() {
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.pick(&[Some(0), Some(0)]), Some(0));
        assert_eq!(arb.pick(&[None, None]), None);
        // pointer unchanged by idle cycle
        assert_eq!(arb.pick(&[Some(0), Some(0)]), Some(1));
    }

    #[test]
    fn a_sole_grant_is_the_pick_of_a_sole_request() {
        let (mut picked, mut granted) = (RoundRobinArbiter::new(), RoundRobinArbiter::new());
        for (winner, pressure) in [(2, 0), (0, 3), (2, 1), (1, 0)] {
            let mut requests = [None; 4];
            requests[winner] = Some(pressure);
            assert_eq!(picked.pick(&requests), Some(winner));
            granted.grant_sole(winner);
            assert_eq!(granted.to_string(), picked.to_string());
            // The pointer moved alike: the next contest resolves alike.
            let all = [Some(0); 4];
            assert_eq!(granted.clone().pick(&all), picked.clone().pick(&all));
        }
    }

    #[test]
    fn display() {
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.to_string(), "rr(last=None)");
        arb.pick(&[None, Some(0)]);
        assert_eq!(arb.to_string(), "rr(last=Some(1))");
    }
}
