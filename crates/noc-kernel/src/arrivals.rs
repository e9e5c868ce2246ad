//! One-shot arrival wheel: ids filed once, for the cycle they land.
//!
//! Some events never move once posted — a flit whose arrival cycle its
//! link fixed at send time, a credit on a return wire of fixed latency.
//! [`Arrivals`] files each once, with the cycle it falls due, and hands
//! it back exactly once when a drain reaches that cycle: the
//! payload-event-queue idiom of annotated-delay transaction-level models
//! (post a payload with its delay; it fires when it falls due). A
//! [`Calendar`](crate::Calendar), whose wakeups move, is a pending cycle
//! per component over one of these wheels.
//!
//! Nearly every entry lands a few cycles ahead, the case a timing wheel
//! serves in constant time (Varghese & Lauck, *Hashed and Hierarchical
//! Timing Wheels*, 1987): a ring of 64 one-cycle buckets covering
//! `[base, base + 64)`, where `base` is the first cycle not drained yet,
//! whose lists are threaded through one node arena (drained nodes are
//! reused, so a wheel at its working size allocates nothing), a 64-bit
//! occupancy mask, a cached earliest cycle (so [`Arrivals::peek`] is a
//! load), and a min-heap for the entries outside the window:
//!
//! - an entry 64 or more cycles past `base` waits in the heap and moves
//!   into its bucket when `base` comes within 64 cycles of it — also when
//!   a drain jumps over many empty cycles at once;
//! - an entry filed for a cycle already drained sorts before every bucket
//!   and comes out at the next drain, late rather than one turn of the
//!   wheel (64 cycles) later.
//!
//! There is no per-component state, no cancellation and no deduplication:
//! two entries for one id and cycle come out twice. Within one cycle,
//! entries come out in the order they were filed, except that those that
//! waited in the heap join their bucket, in id order, ahead of the ones
//! filed after the window reached their cycle. Filing inside the window,
//! [`Arrivals::peek`] and retiring an entry from its bucket cost a
//! constant number of word operations; only entries outside the window
//! pay the heap's O(log n).

use crate::calendar::NONE;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the wheel covers: one bucket, and one bit of the occupancy
/// mask, per cycle.
const WHEEL: u64 = u64::BITS as u64;

/// End of a node list.
const NIL: u32 = u32::MAX;

/// One filed entry: its id and the next node of its bucket.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: u32,
    next: u32,
}

/// A bucket's node list, in filing order. An empty bucket's fields are
/// stale: its occupancy bit says whether it holds anything.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A one-shot timing wheel of `u32` ids keyed by absolute base-clock
/// cycle: 64 one-cycle buckets plus an overflow min-heap (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use noc_kernel::Arrivals;
/// let mut wheel = Arrivals::new();
/// wheel.file(12, 4);
/// wheel.file(10, 9);
/// wheel.file(1_000_000_000, 7); // far out: one heap entry
/// assert_eq!(wheel.peek(), Some(10));
/// let mut due = Vec::new();
/// wheel.drain_due(12, &mut due);
/// assert_eq!(due, [9, 4]); // cycle order
/// wheel.drain_due(12, &mut due); // each entry comes out once
/// assert_eq!(wheel.peek(), Some(1_000_000_000));
/// wheel.drain_due(5_000_000_000, &mut due); // a long jump
/// assert_eq!(due, [9, 4, 7]);
/// assert_eq!((wheel.peek(), wheel.pops()), (None, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Arrivals {
    /// First cycle no drain has reached; the wheel holds exactly the
    /// entries in `[base, base + WHEEL)`.
    base: u64,
    /// The earliest cycle any entry is filed for (`NONE` when empty).
    next: u64,
    /// Entries filed and not yet retired.
    len: usize,
    /// Bit `cycle % WHEEL` is set while that cycle's bucket is non-empty.
    occupied: u64,
    /// Bucket `cycle % WHEEL`'s entries, as a list in `nodes`. Boxed to
    /// keep the wheel small inside the structs that hold it: inline, the
    /// 512 bytes pushed their hot fields apart, and a sparse 32x32
    /// platform stepped ≈ 2 % slower.
    buckets: Box<[Bucket; WHEEL as usize]>,
    /// Node arena shared by every bucket; retired nodes are chained from
    /// `free` and reused.
    nodes: Vec<Node>,
    free: u32,
    /// Entries outside the window: before `base` (filed for a drained
    /// cycle) or at `base + WHEEL` and later.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Entries retired by [`Arrivals::drain_due`].
    pops: u64,
}

impl Default for Arrivals {
    fn default() -> Self {
        Arrivals {
            base: 0,
            next: NONE,
            len: 0,
            occupied: 0,
            buckets: Box::new([Bucket::default(); WHEEL as usize]),
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            pops: 0,
        }
    }
}

impl Arrivals {
    /// An empty wheel.
    pub fn new() -> Self {
        Arrivals::default()
    }

    /// Number of entries filed and not yet retired.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `id` to come out of the first drain that reaches cycle `at`.
    /// A cycle a drain has already passed is not an error: the entry
    /// comes out of the next drain, ahead of everything filed in the
    /// window.
    #[inline]
    pub fn file(&mut self, at: u64, id: u32) {
        self.len += 1;
        self.next = self.next.min(at);
        if at >= self.base && at - self.base < WHEEL {
            self.push_bucket(at, id);
        } else {
            self.overflow.push(Reverse((at, id)));
        }
    }

    /// The earliest cycle an entry is filed for, or `None` when the
    /// wheel is empty. A load: the cycle is kept up to date by `file`
    /// and `drain_due`.
    #[inline]
    pub fn peek(&self) -> Option<u64> {
        (self.len != 0).then_some(self.next)
    }

    /// Appends to `due` the id of every entry filed for `now` or earlier,
    /// in cycle order, and retires those entries: after it, the drains
    /// have reached `now`. A drain costs the entries it hands out plus a
    /// few word operations per non-empty cycle, however many cycles it
    /// covers.
    #[inline]
    pub fn drain_due(&mut self, now: u64, due: &mut Vec<u32>) {
        if self.len != 0 && self.next <= now {
            self.drain_through(now, due);
        } else if now >= self.base {
            // Nothing is due: only the window moves.
            self.base = now.saturating_add(1);
            if !self.overflow.is_empty() {
                self.refill();
            }
        }
    }

    /// Total entries retired by [`Arrivals::drain_due`].
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// [`Arrivals::drain_due`] once something is due: one cycle at a
    /// time from the earliest, which is either a late entry (before
    /// `base`, so the overflow's minimum) or a bucket.
    fn drain_through(&mut self, now: u64, due: &mut Vec<u32>) {
        let before = due.len();
        loop {
            let at = self.next;
            if at < self.base {
                let Reverse((_, id)) = self
                    .overflow
                    .pop()
                    .expect("a late entry waits in the overflow");
                due.push(id);
            } else {
                if at - self.base >= WHEEL {
                    // An empty window jumps straight to the overflow's
                    // earliest entry, which then lies in it.
                    self.base = at;
                    self.refill();
                }
                self.drain_bucket(at, due);
            }
            self.next = self.earliest();
            if self.next > now || due.len() - before == self.len {
                break;
            }
        }
        if now >= self.base {
            self.base = now.saturating_add(1);
            self.refill();
        }
        let drained = due.len() - before;
        self.len -= drained;
        self.pops += drained as u64;
    }

    /// The earliest cycle any entry is filed for (`NONE` when empty).
    fn earliest(&self) -> u64 {
        let overflow = self.overflow.peek().map_or(NONE, |&Reverse((at, _))| at);
        if self.occupied == 0 {
            overflow
        } else {
            overflow.min(self.first_filed())
        }
    }

    /// The earliest cycle with a non-empty bucket; the window must hold
    /// one.
    fn first_filed(&self) -> u64 {
        let offset = self
            .occupied
            .rotate_right((self.base % WHEEL) as u32)
            .trailing_zeros();
        self.base + u64::from(offset)
    }

    /// Appends `id` to the bucket of `at`, which lies in the window.
    fn push_bucket(&mut self, at: u64, id: u32) {
        let node = Node { id, next: NIL };
        let n = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("arrival count fits in u32")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let slot = (at % WHEEL) as usize;
        let bucket = &mut self.buckets[slot];
        if self.occupied & (1 << slot) == 0 {
            bucket.head = n;
            self.occupied |= 1 << slot;
        } else {
            self.nodes[bucket.tail as usize].next = n;
        }
        bucket.tail = n;
    }

    /// Hands out the bucket of `at` — the earliest filed cycle — in
    /// filing order, returns its nodes to the free list in one splice and
    /// advances `base` past it.
    fn drain_bucket(&mut self, at: u64, due: &mut Vec<u32>) {
        let slot = (at % WHEEL) as usize;
        let Bucket { head, tail } = self.buckets[slot];
        let mut n = head;
        while n != NIL {
            let Node { id, next } = self.nodes[n as usize];
            due.push(id);
            n = next;
        }
        self.nodes[tail as usize].next = self.free;
        self.free = head;
        self.occupied &= !(1 << slot);
        self.base = at.saturating_add(1);
        self.refill();
    }

    /// Moves the overflow entries the window now reaches into their
    /// buckets. Called whenever `base` advances; by then every entry
    /// before `base` has been retired, so the overflow's minimum is at or
    /// after `base`.
    fn refill(&mut self) {
        while let Some(&Reverse((at, id))) = self.overflow.peek() {
            if at - self.base >= WHEEL {
                break;
            }
            self.overflow.pop();
            self.push_bucket(at, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything `drain_due(now)` hands out.
    fn drain(wheel: &mut Arrivals, now: u64) -> Vec<u32> {
        let mut due = Vec::new();
        wheel.drain_due(now, &mut due);
        due
    }

    #[test]
    fn an_empty_wheel_hands_out_nothing() {
        let mut wheel = Arrivals::new();
        assert!(wheel.is_empty());
        assert_eq!(wheel.peek(), None);
        assert_eq!(drain(&mut wheel, u64::MAX), []);
        assert_eq!(wheel.pops(), 0);
    }

    #[test]
    fn entries_come_out_once_at_their_cycle_in_filing_order() {
        let mut wheel = Arrivals::new();
        for id in [5, 2, 7, 2] {
            wheel.file(3, id);
        }
        wheel.file(4, 1);
        assert_eq!((wheel.len(), wheel.peek()), (5, Some(3)));
        assert_eq!(drain(&mut wheel, 2), []);
        assert_eq!(drain(&mut wheel, 3), [5, 2, 7, 2]);
        assert_eq!(wheel.peek(), Some(4));
        assert_eq!(drain(&mut wheel, 3), [], "nothing comes out twice");
        assert_eq!(drain(&mut wheel, 4), [1]);
        assert_eq!((wheel.peek(), wheel.pops()), (None, 5));
    }

    #[test]
    fn far_entries_cross_the_window_edge_and_long_jumps() {
        let mut wheel = Arrivals::new();
        for at in [1_000_000_000, 127, 65, 64, 63] {
            wheel.file(at, at as u32);
        }
        assert_eq!(drain(&mut wheel, 64), [63, 64]);
        // A jump far past the window still hands out every cycle in order.
        assert_eq!(drain(&mut wheel, 2_000_000_000), [65, 127, 1_000_000_000]);
    }

    #[test]
    fn an_entry_for_a_drained_cycle_comes_out_next_not_a_turn_late() {
        let mut wheel = Arrivals::new();
        wheel.file(12, 1);
        assert_eq!(drain(&mut wheel, 10), []);
        wheel.file(9, 2); // cycle 9 is drained already
        assert_eq!(wheel.peek(), Some(9));
        assert_eq!(drain(&mut wheel, 11), [2]);
        assert_eq!(drain(&mut wheel, 12), [1]);
    }
}
