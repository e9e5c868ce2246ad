//! The stepping contract every interconnect model implements.
//!
//! A cycle-stepped model says *how* one base cycle changes its state;
//! this trait says, once for the whole workspace, how time is advanced
//! over such a model. A backend supplies six facts and gets
//! [`Engine::advance_to`] — the only advance loop in the workspace —
//! for free, so a backend cannot diverge on when to step, when to skip
//! and when to stop.

/// A system that advances in base cycles and can prove stretches of its
/// own future dead.
///
/// The contract between the required methods:
///
/// - [`Engine::step`] executes exactly the cycle [`Engine::now`] and
///   leaves `now` one higher.
/// - [`Engine::next_activity`] returns `Some(t)` with `t >= now` when no
///   cycle in `[now, t)` can change any state a step would observe, and
///   `None` when no cycle ever will again (absent new input).
/// - [`Engine::skip_to`]`(t)` may only be called with `now <= t` and
///   every cycle in `[now, t)` proven dead by `next_activity`. It must
///   leave the engine bit-identical to having stepped those cycles —
///   countdowns shortened, idle statistics accounted — except that
///   [`Engine::executed_steps`] does not move.
///
/// Under that contract [`Engine::advance_to`] is indistinguishable from
/// calling `step` on every cycle, which is what the dense ≡ horizon
/// differential suites pin record for record.
pub trait Engine {
    /// The current base cycle: the next one `step` would execute.
    fn now(&self) -> u64;

    /// Whether all work has drained: nothing is in flight and nothing is
    /// left to issue.
    fn is_done(&self) -> bool;

    /// Executes one base cycle.
    fn step(&mut self);

    /// The earliest base cycle at or after `now` at which state can
    /// change, or `None` when nothing will ever happen again. An early
    /// answer is always safe (it costs a step a dense run executes
    /// anyway); a late one is a bug.
    fn next_activity(&self) -> Option<u64>;

    /// Jumps to `target` across a gap `next_activity` proved dead,
    /// accounting the skipped cycles so state stays bit-identical to
    /// stepping them.
    fn skip_to(&mut self, target: u64);

    /// Base cycles actually executed by `step`, skipped cycles excluded.
    /// A dense run executes exactly `now` steps, so the dense/horizon
    /// ratio of this counter is the skip win.
    fn executed_steps(&self) -> u64;

    /// Advances until done or `horizon`, jumping over dead gaps and
    /// stepping through live cycles; never passes `horizon`. Returns how
    /// many times it polled `next_activity` — one poll per iteration,
    /// the scan-side counter that calendar pops are weighed against.
    fn advance_to(&mut self, horizon: u64) -> u64 {
        let mut polls = 0;
        while self.now() < horizon && !self.is_done() {
            polls += 1;
            match self.next_activity() {
                Some(t) if t > self.now() => self.skip_to(t.min(horizon)),
                Some(_) => self.step(),
                // Nothing can ever happen again (a deadlock with every
                // component quiescent): dense stepping would burn no-op
                // cycles to the horizon; jump there in one hop.
                None => self.skip_to(horizon),
            }
        }
        polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake engine whose activity is a script: the cycles at which a
    /// step does work. It records every step and skip the loop makes;
    /// each iteration makes exactly one of them after exactly one poll.
    /// A `stuck` engine never drains, so once its script runs out it is
    /// undrained with nothing scheduled — a deadlock.
    #[derive(Default)]
    struct Scripted {
        now: u64,
        live: Vec<u64>,
        stuck: bool,
        steps: Vec<u64>,
        skips: Vec<(u64, u64)>,
    }

    impl Scripted {
        fn new(live: &[u64]) -> Self {
            Scripted {
                live: live.to_vec(),
                ..Scripted::default()
            }
        }
    }

    impl Engine for Scripted {
        fn now(&self) -> u64 {
            self.now
        }
        fn is_done(&self) -> bool {
            !self.stuck && self.live.iter().all(|&t| t < self.now)
        }
        fn step(&mut self) {
            self.steps.push(self.now);
            self.now += 1;
        }
        fn next_activity(&self) -> Option<u64> {
            self.live.iter().copied().find(|&t| t >= self.now)
        }
        fn skip_to(&mut self, target: u64) {
            assert!(target >= self.now, "the loop never skips backwards");
            self.skips.push((self.now, target));
            self.now = target;
        }
        fn executed_steps(&self) -> u64 {
            self.steps.len() as u64
        }
    }

    #[test]
    fn future_wakes_are_skipped_to_and_live_cycles_stepped() {
        let mut e = Scripted::new(&[0, 1, 7, 20]);
        let polls = e.advance_to(100);
        // Some(now) steps; Some(t > now) skips exactly to t.
        assert_eq!(e.steps, [0, 1, 7, 20]);
        assert_eq!(e.skips, [(2, 7), (8, 20)]);
        // Stops when done, short of the horizon.
        assert_eq!((e.now, e.executed_steps()), (21, 4));
        // One poll per iteration: four steps plus two skips.
        assert_eq!(polls, 6);
    }

    #[test]
    fn a_wake_beyond_the_horizon_skips_only_to_the_horizon() {
        // Through a trait object: the contract is object-safe.
        let mut e: Box<dyn Engine> = Box::new(Scripted::new(&[50]));
        assert_eq!(e.advance_to(10), 1);
        assert_eq!((e.now(), e.executed_steps()), (10, 0));
        // Already at the horizon: no iteration, no poll.
        assert_eq!(e.advance_to(10), 0);
        // Resuming reaches the wake and steps it.
        assert_eq!(e.advance_to(60), 2);
        assert_eq!((e.now(), e.executed_steps()), (51, 1));
    }

    #[test]
    fn nothing_scheduled_jumps_to_the_horizon_in_one_hop() {
        let mut e = Scripted {
            stuck: true,
            ..Scripted::new(&[3])
        };
        assert_eq!(e.advance_to(1_000_000), 3);
        assert_eq!(e.steps, [3]);
        assert_eq!(e.skips, [(0, 3), (4, 1_000_000)]);
    }
}
