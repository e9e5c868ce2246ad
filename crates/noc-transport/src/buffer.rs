//! Bounded flit FIFOs — the input buffers of switches, and the unit of
//! credit-based flow control.
//!
//! A FIFO does not own its flits. It is a small record — a [`Queue`]
//! handle, its bound and its count of whole packets — over a
//! [`FlitSlab`] that its owner keeps: a fabric keeps one slab for every
//! flit it holds (input FIFOs, output stashes, links), so its thousands
//! of buffers cost bytes in its port arrays, not a heap object each, and
//! their storage grows with the flits held, not with their depth.
//!
//! Each flit is stamped with the base cycle it *arrives* at. A flit that
//! crosses a one-cycle link is pushed on the cycle it is sent, stamped
//! for the next one, so a FIFO's back flit may still be on its way: the
//! reads a switch makes — the front, the whole packets — take the cycle
//! and see only what has arrived by then.

use crate::flit::Flit;
use noc_kernel::{Queue, Slab};
use std::fmt;

/// The store the flits of [`FlitFifo`]s (and of links and stashes) live in.
pub type FlitSlab = Slab<Flit>;

/// A bounded FIFO of flits, held in a [`FlitSlab`].
///
/// Besides capacity it tracks the number of buffered *complete packets*
/// (tails seen minus tails consumed), which store-and-forward switches use
/// to forward only whole packets.
///
/// Every operation that reads or moves flits takes the slab; a FIFO is
/// only meaningful with the slab its flits were pushed into. Flits arrive
/// in order, at most one a cycle, and are pushed no earlier than the
/// cycle before their arrival, so only the back flit can be stamped after
/// the cycle a switch reads at.
///
/// # Examples
///
/// ```
/// use noc_transport::{Flit, FlitFifo, FlitSlab, Header};
/// let mut slab = FlitSlab::new();
/// let mut fifo = FlitFifo::new(4);
/// // Sent on a one-cycle link at cycle 6: it arrives at cycle 7.
/// assert!(fifo.push(&mut slab, Flit::head_tail(0, Header::request(1, 0, 0)), 7));
/// assert_eq!(fifo.complete_packets(), 1);
/// assert!(fifo.front(&slab, 6).is_none() && fifo.whole_packets(&slab, 6) == 0);
/// assert!(fifo.front(&slab, 7).is_some() && fifo.whole_packets(&slab, 7) == 1);
/// assert!(fifo.pop(&mut slab).is_some());
/// assert!(fifo.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlitFifo {
    flits: Queue,
    capacity: u32,
    complete_packets: u32,
}

impl FlitFifo {
    /// Creates a FIFO holding at most `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit in a `u32`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        FlitFifo {
            flits: Queue::default(),
            capacity: u32::try_from(capacity).expect("fifo capacity fits in u32"),
            complete_packets: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Flits currently buffered.
    pub fn len(&self) -> usize {
        self.flits.len()
    }

    /// Returns `true` when no flits are buffered.
    pub fn is_empty(&self) -> bool {
        self.flits.is_empty()
    }

    /// Returns `true` when the FIFO cannot accept another flit.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Free slots (the credits this buffer grants upstream).
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Number of whole packets buffered (tail flits present).
    pub fn complete_packets(&self) -> usize {
        self.complete_packets as usize
    }

    /// Whole packets whose tail has arrived by base cycle `now`: what a
    /// store-and-forward switch may forward from.
    #[inline]
    pub fn whole_packets(&self, slab: &FlitSlab, now: u64) -> usize {
        let arriving_tail = self.complete_packets > 0
            && slab
                .back(&self.flits)
                .is_some_and(|(at, flit)| at > now && flit.is_tail());
        (self.complete_packets - u32::from(arriving_tail)) as usize
    }

    /// Pushes a flit that arrives at base cycle `at` into `slab`; returns
    /// `false` (and drops nothing) when full — callers must only push
    /// when credits say there is space, so a `false` return indicates a
    /// flow-control bug upstream.
    #[inline]
    pub fn push(&mut self, slab: &mut FlitSlab, flit: Flit, at: u64) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert!(
            slab.back_stamp(&self.flits).is_none_or(|back| back <= at),
            "a flit arriving at cycle {at} overtakes the back of its FIFO"
        );
        if flit.is_tail() {
            self.complete_packets += 1;
        }
        slab.push(&mut self.flits, at, flit);
        true
    }

    /// Returns `true` when the flit at the head has arrived by base cycle
    /// `now` — [`FlitFifo::front`]'s test, without reading the flit.
    #[inline]
    pub fn has_arrived(&self, slab: &FlitSlab, now: u64) -> bool {
        slab.front_stamp(&self.flits).is_some_and(|at| at <= now)
    }

    /// The flit at the head, if it has arrived by base cycle `now`.
    #[inline]
    pub fn front<'s>(&self, slab: &'s FlitSlab, now: u64) -> Option<&'s Flit> {
        slab.front(&self.flits)
            .and_then(|(at, flit)| (at <= now).then_some(flit))
    }

    /// Pops the head flit.
    #[inline]
    pub fn pop(&mut self, slab: &mut FlitSlab) -> Option<Flit> {
        let (_, flit) = slab.pop(&mut self.flits)?;
        if flit.is_tail() {
            self.complete_packets -= 1;
        }
        Some(flit)
    }
}

impl fmt::Display for FlitFifo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fifo {}/{} ({} pkts)",
            self.len(),
            self.capacity,
            self.complete_packets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Header;

    fn ht(id: u64) -> Flit {
        Flit::head_tail(id, Header::request(0, 0, 0))
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut s = FlitSlab::new();
        let mut f = FlitFifo::new(3);
        f.push(&mut s, ht(1), 0);
        f.push(&mut s, ht(2), 0);
        assert_eq!(f.pop(&mut s).unwrap().packet_id(), 1);
        assert_eq!(f.pop(&mut s).unwrap().packet_id(), 2);
        assert!(f.pop(&mut s).is_none());
    }

    #[test]
    fn full_rejects_push() {
        let mut s = FlitSlab::new();
        let mut f = FlitFifo::new(1);
        assert!(f.push(&mut s, ht(1), 0));
        assert!(!f.push(&mut s, ht(2), 0));
        assert_eq!(f.len(), 1);
        assert!(f.is_full());
        assert_eq!(f.free(), 0);
    }

    #[test]
    fn complete_packet_tracking() {
        let mut s = FlitSlab::new();
        let mut f = FlitFifo::new(8);
        let h = Header::request(0, 0, 0);
        f.push(&mut s, Flit::head(1, h, vec![0, 0]), 0);
        f.push(&mut s, Flit::body(1, 1), 0);
        assert_eq!(f.complete_packets(), 0);
        f.push(&mut s, Flit::tail(1, 1), 0);
        assert_eq!(f.complete_packets(), 1);
        f.push(&mut s, ht(2), 0);
        assert_eq!(f.complete_packets(), 2);
        // draining first packet decrements only at its tail
        f.pop(&mut s);
        f.pop(&mut s);
        assert_eq!(f.complete_packets(), 2);
        f.pop(&mut s);
        assert_eq!(f.complete_packets(), 1);
    }

    #[test]
    fn bounds_hold_while_the_store_is_allocated_on_first_push() {
        // Declaring a deep FIFO reserves nothing: storage is the slab's,
        // and it grows with the flits held, not with the bound.
        let mut s = FlitSlab::new();
        let mut deep = FlitFifo::new(1 << 20);
        assert_eq!((s.slots(), deep.free()), (0, 1 << 20));
        assert!(deep.push(&mut s, ht(1), 0) && deep.push(&mut s, ht(2), 0));
        assert_eq!(s.slots(), 2, "two flits, two nodes");
        let mut f = FlitFifo::new(3);
        assert_eq!((f.capacity(), f.free()), (3, 3));
        assert!(!f.is_full() && f.is_empty());
        assert!(f.push(&mut s, ht(1), 0) && f.push(&mut s, ht(2), 0) && f.push(&mut s, ht(3), 0));
        assert!(f.is_full());
        assert!(
            !f.push(&mut s, ht(4), 0),
            "the declared capacity still bounds pushes"
        );
        assert_eq!((f.len(), f.free()), (3, 0));
        // Popped nodes are reused: refilling allocates no new ones.
        while deep.pop(&mut s).is_some() {}
        while f.pop(&mut s).is_some() {}
        assert!(f.push(&mut s, ht(5), 0) && deep.push(&mut s, ht(6), 0));
        assert_eq!(s.slots(), 5);
        // A copy of a drained FIFO (a snapshot) keeps the bound.
        assert_eq!(f.pop(&mut s).map(|flit| flit.packet_id()), Some(5));
        let mut g = f;
        assert_eq!(g.capacity(), 3);
        assert!(g.push(&mut s, ht(5), 0) && g.push(&mut s, ht(6), 0) && g.push(&mut s, ht(7), 0));
        assert!(!g.push(&mut s, ht(8), 0));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut s = FlitSlab::new();
        let mut f = FlitFifo::new(2);
        f.push(&mut s, ht(9), 0);
        assert_eq!(f.front(&s, 0).unwrap().packet_id(), 9);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn a_flit_stamped_after_now_is_not_there_yet() {
        let mut s = FlitSlab::new();
        let mut f = FlitFifo::new(4);
        let h = Header::request(0, 0, 0);
        f.push(&mut s, Flit::head(1, h, vec![0, 0]), 3);
        f.push(&mut s, Flit::tail(1, 1), 5);
        assert!(f.front(&s, 2).is_none(), "the head arrives at 3");
        assert!(!f.has_arrived(&s, 2) && f.has_arrived(&s, 3));
        assert_eq!(f.front(&s, 3).unwrap().packet_id(), 1);
        assert_eq!(f.complete_packets(), 1, "the tail is buffered…");
        assert_eq!(f.whole_packets(&s, 4), 0, "…but on its way until 5");
        assert_eq!(f.whole_packets(&s, 5), 1);
        // A later packet's arriving tail leaves the earlier whole one.
        f.push(&mut s, ht(2), 6);
        assert_eq!((f.whole_packets(&s, 5), f.whole_packets(&s, 6)), (1, 2));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        FlitFifo::new(0);
    }

    #[test]
    fn display() {
        let mut s = FlitSlab::new();
        let mut f = FlitFifo::new(2);
        f.push(&mut s, ht(0), 0);
        assert_eq!(f.to_string(), "fifo 1/2 (1 pkts)");
    }
}
