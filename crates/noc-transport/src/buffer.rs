//! Bounded flit FIFOs — the input buffers of switches and NIUs, and the
//! unit of credit-based flow control.

use crate::flit::Flit;
use std::collections::VecDeque;
use std::fmt;

/// A bounded FIFO of flits.
///
/// Besides capacity it tracks the number of buffered *complete packets*
/// (tails seen minus tails consumed), which store-and-forward switches use
/// to forward only whole packets.
///
/// The backing store is allocated by the first push, not by `new`: a
/// large fabric builds thousands of input buffers and a sparse run
/// touches few of them.
///
/// # Examples
///
/// ```
/// use noc_transport::{Flit, FlitFifo, Header};
/// let mut fifo = FlitFifo::new(4);
/// assert!(fifo.push(Flit::head_tail(0, Header::request(1, 0, 0))));
/// assert_eq!(fifo.complete_packets(), 1);
/// assert!(fifo.pop().is_some());
/// assert!(fifo.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FlitFifo {
    flits: VecDeque<Flit>,
    capacity: usize,
    complete_packets: usize,
}

impl FlitFifo {
    /// Creates a FIFO holding at most `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        FlitFifo {
            flits: VecDeque::new(),
            capacity,
            complete_packets: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        self.flits.len() >= self.capacity
    }

    /// Free slots (the credits this buffer grants upstream).
    pub fn free(&self) -> usize {
        self.capacity - self.flits.len()
    }

    /// Number of whole packets buffered (tail flits present).
    pub fn complete_packets(&self) -> usize {
        self.complete_packets
    }

    /// Pushes a flit; returns `false` (and drops nothing) when full —
    /// callers must only push when credits say there is space, so a
    /// `false` return indicates a flow-control bug upstream.
    pub fn push(&mut self, flit: Flit) -> bool {
        if self.is_full() {
            return false;
        }
        if flit.is_tail() {
            self.complete_packets += 1;
        }
        // One allocation covers the bound — also for a clone taken
        // mid-run, whose store is only as large as what it held.
        if self.flits.capacity() < self.capacity {
            self.flits.reserve_exact(self.capacity - self.flits.len());
        }
        self.flits.push_back(flit);
        true
    }

    /// The flit at the head, if any.
    pub fn peek(&self) -> Option<&Flit> {
        self.flits.front()
    }

    /// Pops the head flit.
    pub fn pop(&mut self) -> Option<Flit> {
        let flit = self.flits.pop_front()?;
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
            self.flits.len(),
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
        let mut f = FlitFifo::new(3);
        f.push(ht(1));
        f.push(ht(2));
        assert_eq!(f.pop().unwrap().packet_id(), 1);
        assert_eq!(f.pop().unwrap().packet_id(), 2);
        assert!(f.pop().is_none());
    }

    #[test]
    fn full_rejects_push() {
        let mut f = FlitFifo::new(1);
        assert!(f.push(ht(1)));
        assert!(!f.push(ht(2)));
        assert_eq!(f.len(), 1);
        assert!(f.is_full());
        assert_eq!(f.free(), 0);
    }

    #[test]
    fn complete_packet_tracking() {
        let mut f = FlitFifo::new(8);
        let h = Header::request(0, 0, 0);
        f.push(Flit::head(1, h, vec![0, 0]));
        f.push(Flit::body(1, 1));
        assert_eq!(f.complete_packets(), 0);
        f.push(Flit::tail(1, 1));
        assert_eq!(f.complete_packets(), 1);
        f.push(ht(2));
        assert_eq!(f.complete_packets(), 2);
        // draining first packet decrements only at its tail
        f.pop();
        f.pop();
        assert_eq!(f.complete_packets(), 2);
        f.pop();
        assert_eq!(f.complete_packets(), 1);
    }

    #[test]
    fn bounds_hold_while_the_store_is_allocated_on_first_push() {
        let mut f = FlitFifo::new(3);
        assert_eq!(f.flits.capacity(), 0, "nothing reserved before use");
        assert_eq!((f.capacity(), f.free()), (3, 3));
        assert!(!f.is_full() && f.is_empty());
        assert!(f.push(ht(1)));
        assert!(f.flits.capacity() >= 3, "one allocation covers the bound");
        assert!(f.push(ht(2)) && f.push(ht(3)));
        assert!(f.is_full());
        assert!(!f.push(ht(4)), "the declared capacity still bounds pushes");
        assert_eq!((f.len(), f.free()), (3, 0));
        // A snapshot taken mid-run regrows once, not by doubling.
        let mut h = FlitFifo::new(8);
        assert!(h.push(ht(1)) && h.push(ht(2)));
        let mut h = h.clone();
        assert!(h.push(ht(3)));
        let store = h.flits.capacity();
        assert!(store >= 8, "the first push after a clone covers the bound");
        while h.push(ht(4)) {}
        assert_eq!((h.len(), h.flits.capacity()), (8, store));
        // A snapshot of a drained FIFO keeps the bound.
        while f.pop().is_some() {}
        let mut g = f.clone();
        assert_eq!(g.capacity(), 3);
        assert!(g.push(ht(5)) && g.push(ht(6)) && g.push(ht(7)) && !g.push(ht(8)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = FlitFifo::new(2);
        f.push(ht(9));
        assert_eq!(f.peek().unwrap().packet_id(), 9);
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        FlitFifo::new(0);
    }

    #[test]
    fn display() {
        let mut f = FlitFifo::new(2);
        f.push(ht(0));
        assert_eq!(f.to_string(), "fifo 1/2 (1 pkts)");
    }
}
