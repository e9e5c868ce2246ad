//! A slab of list nodes: any number of FIFO queues in one allocation.
//!
//! A large model holds thousands of small queues that are nearly always
//! empty — a fabric's input buffers, output stashes and links. Giving
//! each its own container makes building, cloning and dropping the model
//! cost one heap object per queue, however little it holds. A [`Slab`]
//! instead keeps every item of every queue in one `Vec` of nodes, and a
//! queue is a [`Queue`]: a plain 12-byte handle (head, tail, length) into
//! it. Storage grows with the items held at once, not with the number of
//! queues or their declared bounds; freed nodes are chained into a free
//! list and reused, so a slab that has reached its working size allocates
//! nothing; cloning a model clones one `Vec` and copies the handles.
//!
//! Each node also carries a `u64` *stamp* its owner may use — a link
//! keeps an item's arrival cycle there; a buffer that needs none passes 0.

/// End of a node list.
const NIL: u32 = u32::MAX;

/// One queue's items in a [`Slab`]: its first and last node and how many
/// it holds. The default handle is an empty queue.
///
/// A handle is only meaningful with the slab its items were pushed into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Queue {
    head: u32,
    tail: u32,
    len: u32,
}

impl Queue {
    /// Items held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug, Clone)]
struct Node<T> {
    /// `None` exactly while the node is on the free list.
    item: Option<T>,
    stamp: u64,
    /// The next node of this node's queue, or of the free list.
    next: u32,
}

/// Storage for the items of many [`Queue`]s (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use noc_kernel::{Queue, Slab};
/// let mut slab = Slab::new();
/// let (mut a, mut b) = (Queue::default(), Queue::default());
/// slab.push(&mut a, 10, 'x');
/// slab.push(&mut b, 0, 'y');
/// slab.push(&mut a, 12, 'z');
/// assert_eq!(slab.front(&a), Some((10, &'x')));
/// assert_eq!(slab.back_stamp(&a), Some(12));
/// assert_eq!(slab.back(&b), Some((0, &'y')));
/// assert_eq!(slab.pop(&mut a), Some((10, 'x')));
/// slab.push(&mut b, 0, 'w'); // reuses the node 'x' left
/// assert_eq!(slab.slots(), 3);
/// assert_eq!((a.len(), b.len()), (1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list.
    free: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            nodes: Vec::new(),
            free: NIL,
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab; it allocates on the first push.
    pub fn new() -> Self {
        Slab::default()
    }

    /// Nodes made so far, held or free: the most items the slab has held
    /// at once.
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Appends `item`, stamped `stamp`, to the back of `queue`.
    ///
    /// # Panics
    ///
    /// Panics when the slab would need more than `u32::MAX - 1` nodes.
    #[inline]
    pub fn push(&mut self, queue: &mut Queue, stamp: u64, item: T) {
        let at = if self.free == NIL {
            let at = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("slab node count fits in u32");
            self.nodes.push(Node {
                item: Some(item),
                stamp,
                next: NIL,
            });
            at
        } else {
            let at = self.free;
            let slot = &mut self.nodes[at as usize];
            self.free = slot.next;
            // A free node holds no item, so there is nothing to drop: the
            // hot path skips the drop check a whole-node store would make.
            let old = slot.item.replace(item);
            debug_assert!(old.is_none(), "free node {at} holds an item");
            std::mem::forget(old);
            slot.stamp = stamp;
            slot.next = NIL;
            at
        };
        if queue.len == 0 {
            queue.head = at;
        } else {
            self.nodes[queue.tail as usize].next = at;
        }
        queue.tail = at;
        queue.len += 1;
    }

    /// Removes the front of `queue`: its stamp and item.
    #[inline]
    pub fn pop(&mut self, queue: &mut Queue) -> Option<(u64, T)> {
        if queue.len == 0 {
            return None;
        }
        let at = queue.head;
        let node = &mut self.nodes[at as usize];
        let item = node.item.take().expect("a queued node holds an item");
        queue.head = node.next;
        queue.len -= 1;
        node.next = self.free;
        self.free = at;
        Some((node.stamp, item))
    }

    /// The front of `queue`: its stamp and item.
    #[inline]
    pub fn front(&self, queue: &Queue) -> Option<(u64, &T)> {
        if queue.len == 0 {
            return None;
        }
        let node = &self.nodes[queue.head as usize];
        Some((node.stamp, node.item.as_ref()?))
    }

    /// The back of `queue`: its stamp and item.
    #[inline]
    pub fn back(&self, queue: &Queue) -> Option<(u64, &T)> {
        if queue.len == 0 {
            return None;
        }
        let node = &self.nodes[queue.tail as usize];
        Some((node.stamp, node.item.as_ref()?))
    }

    /// The stamp of the front of `queue`, without reading its item.
    #[inline]
    pub fn front_stamp(&self, queue: &Queue) -> Option<u64> {
        (queue.len > 0).then(|| self.nodes[queue.head as usize].stamp)
    }

    /// The stamp of the back of `queue`, without reading its item.
    #[inline]
    pub fn back_stamp(&self, queue: &Queue) -> Option<u64> {
        (queue.len > 0).then(|| self.nodes[queue.tail as usize].stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
    use std::collections::VecDeque;

    /// Random pushes and pops over a few queues ≡ one `VecDeque` each,
    /// with the free list reused and clones taken mid-run diverging.
    #[test]
    fn queues_equal_a_deque_each_and_clones_are_independent() {
        let mut rng = SplitMix64::new(0x51AB);
        let mut slab = Slab::new();
        let mut queues = [Queue::default(); 5];
        let mut model: Vec<VecDeque<(u64, u32)>> = vec![VecDeque::new(); 5];
        let mut next = 0u32;
        let mut most = 0;
        for op in 0..4_000 {
            let q = rng.next_below(5) as usize;
            if rng.chance(0.55) {
                slab.push(&mut queues[q], u64::from(next) * 3, next);
                model[q].push_back((u64::from(next) * 3, next));
                next += 1;
            } else {
                assert_eq!(slab.pop(&mut queues[q]), model[q].pop_front(), "op {op}");
            }
            let front = model[q].front().map(|(s, i)| (*s, i));
            assert_eq!(slab.front(&queues[q]), front, "op {op}");
            let stamps = (front.map(|f| f.0), model[q].back().map(|b| b.0));
            let got = (slab.front_stamp(&queues[q]), slab.back_stamp(&queues[q]));
            assert_eq!(got, stamps, "op {op}");
            assert_eq!(queues[q].len(), model[q].len(), "op {op}");
            let held: usize = model.iter().map(VecDeque::len).sum();
            most = most.max(held);
            assert_eq!(slab.slots(), most, "op {op}: nodes are reused");
            if op % 500 == 0 {
                // A fork: both sides go on alone.
                let (mut fork, mut fork_queues) = (slab.clone(), queues);
                for q in &mut fork_queues {
                    while fork.pop(q).is_some() {}
                    fork.push(q, 0, u32::MAX);
                }
                for (q, m) in queues.iter().zip(&model) {
                    assert_eq!(slab.front(q).map(|(_, &i)| i), m.front().map(|e| e.1));
                }
            }
        }
    }

    #[test]
    fn an_empty_slab_allocates_nothing() {
        let slab: Slab<u64> = Slab::new();
        assert_eq!(slab.nodes.capacity(), 0);
        assert_eq!(slab.front(&Queue::default()), None);
    }
}
