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
//! tick, a delivered flit or a program append changes their horizon.
//! Events fixed when they are posted — a flit's arrival on a link, a
//! credit's return to its sender — go to
//! [`Arrivals`](crate::Arrivals) instead, which files each once and has
//! nothing to cancel.
//!
//! # A timing wheel with an overflow heap
//!
//! A wakeup is an entry `(cycle, id)`. Nearly every entry a simulation
//! files lands a few cycles ahead — a flit some pipeline stages down a
//! link, an endpoint's next clock edge — which is the case a timing
//! wheel serves in constant time (Varghese & Lauck, *Hashed and
//! Hierarchical Timing Wheels*, 1987). The calendar is a ring of 64
//! one-cycle buckets covering the window `[base, base + 64)`, where
//! `base` is the first cycle [`Calendar::pop_due`] has not drained yet:
//!
//! - a bucket is a list of ids threaded through one node arena that all
//!   buckets share, and drained nodes are reused, so a calendar that has
//!   reached its working size allocates nothing;
//! - a 64-bit occupancy mask has one bit per bucket, so the earliest
//!   filed cycle is the mask rotated to `base` and its trailing zeros;
//! - the earliest cycle any entry claims is kept in one word, lowered
//!   by `set` and recomputed after a `pop_due` that retired something,
//!   so [`Calendar::peek`] is a load and a `pop_due` with nothing due
//!   only moves the window.
//!
//! Two kinds of entry lie outside the window and wait in a small
//! min-heap instead: entries 64 or more cycles past `base`, which
//! migrate into their bucket as `base` advances, and entries set for a
//! cycle `pop_due` has already drained, which sort before every bucket.
//!
//! "O(1)" means: filing an entry inside the window, [`Calendar::peek`],
//! and retiring an entry from its bucket each cost a constant number of
//! word operations, whatever the number of entries pending. A bucket
//! filed in ascending id order — an endpoint refresh files that way —
//! drains straight off its list. One filed out of order is put in order
//! as it drains, by marking its ids in a bitset over all registered ids
//! and reading the marks back: O(its entries + the span of its ids / 64),
//! with no comparison sort. Only out-of-window entries pay the heap's
//! O(log n), and a `pop_due` that jumps over empty cycles costs nothing
//! per cycle jumped.
//!
//! # Lazy cancellation and the "never late" contract
//!
//! Beside the entries, a `pending` array holds each component's current
//! wakeup cycle. [`Calendar::set`] files a fresh entry whenever the
//! pending cycle changes and leaves the old entry in place as garbage;
//! entries whose cycle no longer matches `pending` are *stale* and are
//! dropped when [`Calendar::pop_due`] reaches them.
//!
//! The correctness frame mirrors the horizon contract, which is
//! conservative by construction: a wakeup may fire **early** — the
//! advance loop merely executes a step on a cycle that turns out to be
//! dead, which dense stepping executes anyway, so logs stay
//! bit-identical — but must **never** fire late. [`Calendar::peek`]
//! therefore returns the minimum over every entry, stale ones included,
//! without draining anything (keeping it `&self`, so
//! `next_activity(&self)` signatures survive): a stale minimum is always
//! ≤ the true minimum, i.e. early, i.e. safe. Every stale entry costs at
//! most one spurious executed step before `pop_due` retires it, so there
//! is no livelock.
//!
//! Entries retire in ascending `(cycle, id)` order, stale ones included,
//! so same-cycle wakeups fire in ascending `WakeId` order and wakeup
//! processing is deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// No wakeup scheduled (sentinel in the `pending` array).
pub(crate) const NONE: u64 = u64::MAX;

/// Cycles the wheel covers: one bucket, and one bit of the occupancy
/// mask, per cycle.
pub(crate) const WHEEL: u64 = u64::BITS as u64;

/// End of a node list.
pub(crate) const NIL: u32 = u32::MAX;

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

/// One filed entry: its component and the next node of its bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) id: u32,
    pub(crate) next: u32,
}

/// A bucket's node list, in filing order. The calendar sets `head` to
/// `NIL` when it empties a bucket; the arrival wheel reads its occupancy
/// bit instead and leaves an empty bucket's fields stale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bucket {
    pub(crate) head: u32,
    pub(crate) tail: u32,
}

/// A wakeup calendar keyed by absolute base-clock cycle: a timing wheel
/// of 64 one-cycle buckets plus an overflow min-heap (see the
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
#[derive(Debug, Clone)]
pub struct Calendar {
    /// Current wakeup cycle per id; `NONE` means no wakeup scheduled.
    pending: Vec<u64>,
    /// First cycle `pop_due` has not drained; the wheel holds exactly
    /// the entries in `[base, base + WHEEL)`.
    base: u64,
    /// The earliest cycle any entry claims, stale ones included (`NONE`
    /// when there are no entries): what `peek` reports, and the cycle
    /// before which `pop_due` has nothing to retire.
    next: u64,
    /// Bit `cycle % WHEEL` is set while that cycle's bucket is non-empty.
    occupied: u64,
    /// Bit `cycle % WHEEL` is set while that cycle's bucket holds ids
    /// filed out of ascending order.
    unsorted: u64,
    /// Bucket `cycle % WHEEL`'s entries, as a list in `nodes`. Boxed to
    /// keep the calendar small inside the structs that hold it: inline,
    /// the 512 bytes pushed their hot fields apart, and a sparse 32x32
    /// platform stepped ≈ 2 % slower.
    buckets: Box<[Bucket; WHEEL as usize]>,
    /// Node arena shared by every bucket; drained nodes are chained from
    /// `free` and reused.
    nodes: Vec<Node>,
    free: u32,
    /// Entries outside the window: before `base` (set for a drained
    /// cycle) or at `base + WHEEL` and later. Either kind may be stale.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// One bit per id, all clear between drains: the sort space for a
    /// bucket filed out of ascending id order.
    marks: Vec<u64>,
    /// Entries retired by `pop_due` (valid wakeups and stale garbage
    /// alike — it counts calendar work done).
    pops: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            pending: Vec::new(),
            base: 0,
            next: NONE,
            occupied: 0,
            unsorted: 0,
            buckets: Box::new(
                [Bucket {
                    head: NIL,
                    tail: NIL,
                }; WHEEL as usize],
            ),
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            marks: Vec::new(),
            pops: 0,
        }
    }
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
        self.marks.resize(self.pending.len().div_ceil(64), 0);
        WakeId(id)
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no components have registered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
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
        if at == NONE {
            return; // cancelled: the old entry, if any, is now stale
        }
        self.next = self.next.min(at);
        if at >= self.base && at - self.base < WHEEL {
            self.file(at, id.0);
        } else {
            self.overflow.push(Reverse((at, id.0)));
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
        if self.next == NONE {
            debug_assert!(self.pending.iter().all(|&p| p == NONE));
            return None;
        }
        Some(self.next)
    }

    /// Retires every entry with cycle ≤ `now`, invoking `wake` (in
    /// deterministic `(cycle, id)` order) for each component whose
    /// *current* wakeup that entry is, and dropping stale garbage.
    /// Woken components are cleared to "no wakeup"; they re-register
    /// via [`Calendar::set`] when their next horizon is known.
    pub fn pop_due(&mut self, now: u64, mut wake: impl FnMut(WakeId)) {
        if now < self.next {
            // Nothing is due: only the window moves.
            if now >= self.base {
                self.base = now + 1;
                self.refill();
            }
            return;
        }
        // Entries set for an already-drained cycle precede every bucket.
        while let Some(&Reverse((at, id))) = self.overflow.peek() {
            if at >= self.base || at > now {
                break;
            }
            self.overflow.pop();
            self.retire(at, id, &mut wake);
        }
        loop {
            let at = match self.first_filed() {
                Some(at) => at,
                // An empty window jumps straight to the overflow's
                // earliest entry, which then lies in it.
                None => match self.overflow.peek() {
                    Some(&Reverse((at, _))) if at <= now => {
                        self.base = at;
                        self.refill();
                        at
                    }
                    _ => break,
                },
            };
            if at > now {
                break;
            }
            self.drain_bucket(at, &mut wake);
        }
        if now >= self.base {
            self.base = now.saturating_add(1);
            self.refill();
        }
        let overflow = self.overflow.peek().map_or(NONE, |&Reverse((at, _))| at);
        self.next = self.first_filed().map_or(overflow, |at| at.min(overflow));
    }

    /// Total entries retired by [`Calendar::pop_due`], stale ones
    /// included — the "calendar work done" counter that `horizon_polls`
    /// is measured against.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// The earliest cycle with a non-empty bucket.
    fn first_filed(&self) -> Option<u64> {
        let offset = self
            .occupied
            .rotate_right((self.base % WHEEL) as u32)
            .trailing_zeros();
        (self.occupied != 0).then(|| self.base + u64::from(offset))
    }

    /// Appends `id` to the bucket of `at`, which lies in the window.
    fn file(&mut self, at: u64, id: u32) {
        let node = Node { id, next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("calendar entry count fits in u32")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let slot = (at % WHEEL) as usize;
        let bucket = &mut self.buckets[slot];
        if bucket.head == NIL {
            bucket.head = n;
            self.occupied |= 1 << slot;
        } else {
            let last = &mut self.nodes[bucket.tail as usize];
            if last.id > id {
                self.unsorted |= 1 << slot;
            }
            last.next = n;
        }
        bucket.tail = n;
    }

    /// Moves the overflow entries the window now reaches into their
    /// buckets. Called whenever `base` advances; by then every entry
    /// before `base` has been retired, so the overflow's minimum is at
    /// or after `base`.
    fn refill(&mut self) {
        while let Some(&Reverse((at, id))) = self.overflow.peek() {
            if at - self.base >= WHEEL {
                break;
            }
            self.overflow.pop();
            self.file(at, id);
        }
    }

    /// Retires the bucket of `at` — the earliest filed cycle — in
    /// ascending id order, then advances `base` past it.
    fn drain_bucket(&mut self, at: u64, wake: &mut impl FnMut(WakeId)) {
        let slot = (at % WHEEL) as usize;
        let Bucket { head, tail } = self.buckets[slot];
        self.buckets[slot].head = NIL;
        self.occupied &= !(1 << slot);
        if self.unsorted & (1 << slot) == 0 {
            let mut n = head;
            while n != NIL {
                let Node { id, next } = self.nodes[n as usize];
                self.retire(at, id, wake);
                n = next;
            }
        } else {
            self.unsorted &= !(1 << slot);
            // An id already marked is a second entry for the same cycle
            // and component: retired right behind the first, it can only
            // be stale, so it is counted and dropped.
            let (mut lo, mut hi) = (u32::MAX, 0);
            let mut n = head;
            while n != NIL {
                let Node { id, next } = self.nodes[n as usize];
                let (word, bit) = ((id / 64) as usize, 1 << (id % 64));
                if self.marks[word] & bit == 0 {
                    self.marks[word] |= bit;
                } else {
                    self.pops += 1;
                }
                lo = lo.min(id);
                hi = hi.max(id);
                n = next;
            }
            for word in lo / 64..=hi / 64 {
                let mut bits = std::mem::take(&mut self.marks[word as usize]);
                while bits != 0 {
                    self.retire(at, word * 64 + bits.trailing_zeros(), wake);
                    bits &= bits - 1;
                }
            }
        }
        self.nodes[tail as usize].next = self.free;
        self.free = head;
        self.base = at + 1;
        self.refill();
    }

    /// Retires one entry, waking its component when the entry is still
    /// the component's current wakeup.
    fn retire(&mut self, at: u64, id: u32, wake: &mut impl FnMut(WakeId)) {
        self.pops += 1;
        let slot = &mut self.pending[id as usize];
        if *slot == at {
            *slot = NONE;
            wake(WakeId(id));
        }
        // else: stale entry — the component rescheduled (its live
        // entry is still filed) or cancelled. Drop it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_calendar_has_no_events() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
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
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.scheduled(a), None);
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
    fn same_cycle_wakeups_pop_in_ascending_id_order() {
        let mut cal = Calendar::new();
        let ids: Vec<WakeId> = (0..8).map(|_| cal.register()).collect();
        // Schedule in scrambled order; ties must still pop by id.
        for &i in &[5usize, 2, 7, 0, 3, 6, 1, 4] {
            cal.set(ids[i], Some(42));
        }
        let mut woken = Vec::new();
        cal.pop_due(42, |id| woken.push(id));
        assert_eq!(woken, ids, "same-cycle ties are stable by WakeId");
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
