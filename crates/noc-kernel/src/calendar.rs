//! Calendar queue: scheduled wakeups instead of horizon scans.
//!
//! Horizon stepping answers "when can your state next change?" by
//! *polling* every component each advance iteration — O(components)
//! per iteration even when one flit is moving. A [`Calendar`] inverts
//! that control: each component registers once for a stable [`WakeId`]
//! and *schedules* a wakeup whenever its horizon changes; the advance
//! loop takes the earliest pending cycle instead of rescanning.
//!
//! What files into one is a component whose wakeup *moves*: the SoC's
//! endpoints (NIUs with their socket agents), re-scheduled whenever a
//! tick, a delivered flit or a program load changes their horizon.
//! Events fixed when they are posted — a flit's arrival on a link, a
//! credit's return to its sender — go straight to an [`Arrivals`] wheel.
//!
//! # Lazy cancellation and the "never late" contract
//!
//! A calendar is a `pending` array holding each component's current
//! wakeup cycle over one [`Arrivals`] wheel of `(cycle, id)` entries.
//! [`Calendar::set`] files a fresh entry whenever the pending cycle
//! changes and leaves the old one in the wheel; an entry whose component
//! has since rescheduled or cancelled is *stale*. [`Calendar::pop_due`]
//! drains every entry due by `now` and wakes once each component whose
//! pending cycle is due, in no particular order, dropping the rest.
//!
//! The correctness frame mirrors the horizon contract, which is
//! conservative by construction: a wakeup may fire **early** — the
//! advance loop merely executes a step on a cycle that turns out to be
//! dead, which dense stepping executes anyway, so logs stay
//! bit-identical — but must **never** fire late. [`Calendar::peek`]
//! therefore returns the earliest entry in the wheel, stale ones
//! included, without draining anything (keeping it `&self`, so
//! `next_activity(&self)` signatures survive): a stale minimum is always
//! ≤ the true minimum, i.e. early, i.e. safe. Every stale entry costs at
//! most one spurious executed step before `pop_due` retires it, so there
//! is no livelock.

use crate::Arrivals;

/// No wakeup scheduled (sentinel in the `pending` array).
pub(crate) const NONE: u64 = u64::MAX;

/// Stable handle for a registered component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WakeId(u32);

impl WakeId {
    /// The component's slot index, for callers that mirror calendar
    /// registrations with their own per-component state.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A wakeup calendar keyed by absolute base-clock cycle: one pending
/// cycle per component over an [`Arrivals`] wheel (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use noc_kernel::Calendar;
/// let mut cal = Calendar::new();
/// let a = cal.register();
/// let b = cal.register();
/// cal.set(a, Some(30));
/// cal.set(b, Some(10));
/// cal.set(b, Some(20)); // reschedule later: old entry goes stale
/// assert_eq!(cal.peek(), Some(10)); // stale-early minimum — safe
/// let mut woken = Vec::new();
/// cal.pop_due(25, |id| woken.push(id));
/// assert_eq!(woken, vec![b]); // the stale 10 was dropped, 20 fired
/// assert_eq!(cal.peek(), Some(30));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Calendar {
    /// Current wakeup cycle per id; `NONE` means no wakeup scheduled.
    pending: Vec<u64>,
    /// Every entry `set` filed that `pop_due` has not retired, stale
    /// ones included.
    wheel: Arrivals,
    /// What one `pop_due` drains from the wheel; empty between calls.
    due: Vec<u32>,
}

impl Calendar {
    /// An empty calendar with no registered components.
    pub fn new() -> Self {
        Calendar::default()
    }

    /// Registers a component and returns its stable wakeup handle.
    pub fn register(&mut self) -> WakeId {
        let id = u32::try_from(self.pending.len()).expect("calendar component count fits in u32");
        self.pending.push(NONE);
        WakeId(id)
    }

    /// Schedules, reschedules or cancels (`at == None`) the wakeup for
    /// `id`. Setting the cycle the component already has pending is a
    /// no-op, so callers may re-assert an unchanged horizon every step
    /// without filing anything.
    pub fn set(&mut self, id: WakeId, at: Option<u64>) {
        let slot = &mut self.pending[id.index()];
        // `Some(u64::MAX)` aliases the no-wakeup sentinel; a wakeup at
        // the last representable cycle is indistinguishable from never.
        let at = at.unwrap_or(NONE);
        if *slot == at {
            return;
        }
        *slot = at;
        // Any old entry is now stale; a cancel files nothing new.
        if at != NONE {
            self.wheel.file(at, id.0);
        }
    }

    /// The component's currently scheduled wakeup, if any.
    pub fn scheduled(&self, id: WakeId) -> Option<u64> {
        let at = self.pending[id.index()];
        (at != NONE).then_some(at)
    }

    /// The earliest cycle any entry claims — possibly stale, i.e. no
    /// later than the true earliest pending wakeup. `None` means no
    /// wakeups are scheduled at all.
    pub fn peek(&self) -> Option<u64> {
        let next = self.wheel.peek();
        debug_assert!(next.is_some() || self.pending.iter().all(|&p| p == NONE));
        next
    }

    /// Retires every entry with cycle ≤ `now`, invoking `wake` once, in
    /// no particular order, for each component whose pending wakeup is
    /// due, and dropping stale garbage. Woken components are cleared to
    /// "no wakeup"; they re-register via [`Calendar::set`] when their
    /// next horizon is known.
    pub fn pop_due(&mut self, now: u64, mut wake: impl FnMut(WakeId)) {
        self.wheel.drain_due(now, &mut self.due);
        for id in self.due.drain(..) {
            let slot = &mut self.pending[id as usize];
            // `NONE` is `u64::MAX`, due at `pop_due(u64::MAX)`: a cleared
            // or cancelled slot must not fire.
            if *slot != NONE && *slot <= now {
                *slot = NONE;
                wake(WakeId(id));
            }
            // else: stale entry — the component's pending cycle is later
            // (that entry is still filed), or it cancelled or already
            // fired in this drain. Drop it.
        }
    }

    /// Total entries retired by [`Calendar::pop_due`], stale ones
    /// included — the "calendar work done" counter that `horizon_polls`
    /// is measured against.
    pub fn pops(&self) -> u64 {
        self.wheel.pops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_calendar_has_no_events() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek(), None);
        cal.pop_due(u64::MAX, |_| panic!("nothing registered"));
        assert_eq!(cal.pops(), 0);
    }

    #[test]
    fn registration_yields_dense_stable_indices() {
        let mut cal = Calendar::new();
        let a = cal.register();
        let b = cal.register();
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!((cal.scheduled(a), cal.scheduled(b)), (None, None));
    }

    #[test]
    fn set_and_pop_single_wakeup() {
        let mut cal = Calendar::new();
        let a = cal.register();
        cal.set(a, Some(7));
        assert_eq!(cal.peek(), Some(7));
        assert_eq!(cal.scheduled(a), Some(7));
        let mut woken = Vec::new();
        cal.pop_due(6, |id| woken.push(id));
        assert!(woken.is_empty(), "not due yet");
        cal.pop_due(7, |id| woken.push(id));
        assert_eq!(woken, vec![a]);
        assert_eq!(cal.scheduled(a), None);
        assert_eq!(cal.peek(), None);
    }

    #[test]
    fn reschedule_earlier_fires_at_the_earlier_cycle() {
        let mut cal = Calendar::new();
        let a = cal.register();
        cal.set(a, Some(100));
        cal.set(a, Some(40)); // response arrived: horizon moved earlier
        assert_eq!(cal.peek(), Some(40));
        let mut woken = Vec::new();
        cal.pop_due(40, |id| woken.push(id));
        assert_eq!(woken, vec![a], "fires exactly once, at the earlier cycle");
        // The stale 100 entry is retired silently when it surfaces.
        cal.pop_due(100, |_| panic!("stale entry must not re-fire"));
    }

    #[test]
    fn reschedule_later_never_fires_early_wakeup_for_component() {
        let mut cal = Calendar::new();
        let a = cal.register();
        cal.set(a, Some(10));
        cal.set(a, Some(20));
        // peek may report the stale 10 — early is allowed...
        assert_eq!(cal.peek(), Some(10));
        // ...but the component only wakes at its live cycle.
        let mut woken = Vec::new();
        cal.pop_due(15, |id| woken.push(id));
        assert!(woken.is_empty());
        assert_eq!(
            cal.scheduled(a),
            Some(20),
            "live wakeup survives the stale drain"
        );
        cal.pop_due(20, |id| woken.push(id));
        assert_eq!(woken, vec![a]);
    }

    #[test]
    fn cancel_suppresses_the_pending_wakeup() {
        let mut cal = Calendar::new();
        let a = cal.register();
        let b = cal.register();
        cal.set(a, Some(5));
        cal.set(b, Some(6));
        cal.set(a, None);
        assert_eq!(cal.scheduled(a), None);
        let mut woken = Vec::new();
        cal.pop_due(10, |id| woken.push(id));
        assert_eq!(woken, vec![b], "cancelled wakeup must not fire");
    }

    #[test]
    fn every_same_cycle_wakeup_fires_once() {
        let mut cal = Calendar::new();
        let ids: Vec<WakeId> = (0..8).map(|_| cal.register()).collect();
        // Scrambled order, and a stale entry among the same-cycle ones.
        for &i in &[5usize, 2, 7, 0, 3, 6, 1, 4] {
            cal.set(ids[i], Some(42));
        }
        cal.set(ids[3], Some(41));
        cal.set(ids[3], Some(42));
        let mut woken = Vec::new();
        cal.pop_due(42, |id| woken.push(id));
        woken.sort_unstable();
        assert_eq!(woken, ids, "each due component fires exactly once");
        assert_eq!(cal.pops(), 10, "the stale 41 and 42 are retired too");
    }

    #[test]
    fn pop_due_at_the_last_cycle_skips_cleared_and_cancelled_slots() {
        // `NONE == u64::MAX`, so a drain to `u64::MAX` finds every
        // cleared or cancelled slot "due": only live slots may fire.
        let mut cal = Calendar::new();
        let a = cal.register();
        let b = cal.register();
        cal.set(a, Some(5));
        cal.set(a, None); // cancelled: its entry at 5 is stale
        cal.set(b, Some(7));
        cal.set(b, Some(9)); // the entry at 7 is stale
        let mut woken = Vec::new();
        cal.pop_due(u64::MAX, |id| woken.push(id));
        assert_eq!(woken, vec![b], "b fires once, the cancelled a never");
        assert_eq!((cal.pops(), cal.peek()), (3, None));
    }

    #[test]
    fn set_same_cycle_is_a_noop_without_heap_traffic() {
        let mut cal = Calendar::new();
        let a = cal.register();
        cal.set(a, Some(9));
        for _ in 0..100 {
            cal.set(a, Some(9)); // re-asserting an unchanged horizon
        }
        let mut fired = 0;
        cal.pop_due(9, |_| fired += 1);
        assert_eq!(fired, 1);
        assert_eq!(cal.pops(), 1, "dedup kept the calendar to one entry");
    }

    #[test]
    fn pops_counts_stale_and_live_entries() {
        let mut cal = Calendar::new();
        let a = cal.register();
        cal.set(a, Some(10));
        cal.set(a, Some(4)); // 10 goes stale
        cal.pop_due(10, |_| {});
        assert_eq!(cal.pops(), 2, "live 4 plus stale 10");
    }

    #[test]
    fn woken_component_can_reschedule_from_the_callback_aftermath() {
        let mut cal = Calendar::new();
        let a = cal.register();
        cal.set(a, Some(3));
        cal.pop_due(3, |_| {});
        cal.set(a, Some(8)); // the usual re-register after a wake
        assert_eq!(cal.peek(), Some(8));
    }
}
