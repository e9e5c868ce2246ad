//! Per-switch routing tables.
//!
//! Routing is distributed and table-driven: each switch maps a packet's
//! destination node number to one of its output ports. Tables are computed
//! offline by `noc-topology` (XY for meshes, BFS shortest-path or up*/down*
//! for arbitrary graphs) and loaded here; the switch itself has no notion
//! of geometry — keeping the transport layer independent of topology.

use std::fmt;
use std::sync::Arc;

/// An output-port index on a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

impl PortId {
    /// The index value.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port {}", self.0)
    }
}

impl From<u8> for PortId {
    fn from(raw: u8) -> Self {
        PortId(raw)
    }
}

/// Routing failure: destination unknown to this switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteError {
    /// The destination that missed.
    pub dst: u16,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no route for destination node {}", self.dst)
    }
}

impl std::error::Error for RouteError {}

/// A dense destination → output-port table for one switch.
///
/// The row sits behind shared immutable storage: clones (the second
/// fabric, every SoC snapshot) share one copy, and [`RoutingTable::set`]
/// on a shared table copies the row first, so no clone ever sees
/// another's edit.
///
/// # Examples
///
/// ```
/// use noc_transport::{PortId, RoutingTable};
/// let mut t = RoutingTable::new(4);
/// t.set(0, PortId(1));
/// t.set(3, PortId(2));
/// assert_eq!(t.lookup(0)?, PortId(1));
/// assert!(t.lookup(2).is_err());
/// # Ok::<(), noc_transport::RouteError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    next_hop: Arc<[Option<PortId>]>,
}

impl RoutingTable {
    /// Creates an empty table covering destinations `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        RoutingTable {
            next_hop: vec![None; num_nodes].into(),
        }
    }

    /// Number of destinations the table covers.
    pub fn len(&self) -> usize {
        self.next_hop.len()
    }

    /// Returns `true` if the table covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.next_hop.is_empty()
    }

    /// Sets the output port for destination `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is outside the table.
    pub fn set(&mut self, dst: u16, port: PortId) {
        Arc::make_mut(&mut self.next_hop)[dst as usize] = Some(port);
    }

    /// Looks up the output port for `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when the destination is not mapped.
    pub fn lookup(&self, dst: u16) -> Result<PortId, RouteError> {
        self.next_hop
            .get(dst as usize)
            .copied()
            .flatten()
            .ok_or(RouteError { dst })
    }

    /// Destinations that have routes, in ascending order.
    pub fn mapped_destinations(&self) -> Vec<u16> {
        self.next_hop
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|_| i as u16))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_lookup() {
        let mut t = RoutingTable::new(8);
        t.set(5, PortId(3));
        assert_eq!(t.lookup(5), Ok(PortId(3)));
        assert_eq!(t.lookup(4), Err(RouteError { dst: 4 }));
        assert_eq!(t.lookup(100), Err(RouteError { dst: 100 }));
    }

    #[test]
    fn overwrite_route() {
        let mut t = RoutingTable::new(2);
        t.set(1, PortId(0));
        t.set(1, PortId(1));
        assert_eq!(t.lookup(1), Ok(PortId(1)));
    }

    #[test]
    fn set_on_a_clone_leaves_the_other_copy_unchanged() {
        let mut a = RoutingTable::new(4);
        a.set(1, PortId(0));
        let mut b = a.clone();
        assert!(
            Arc::ptr_eq(&a.next_hop, &b.next_hop),
            "clones share the row"
        );
        b.set(1, PortId(3));
        b.set(2, PortId(1));
        assert_eq!(a.lookup(1), Ok(PortId(0)));
        assert_eq!(a.lookup(2), Err(RouteError { dst: 2 }));
        assert_eq!(b.lookup(1), Ok(PortId(3)));
        assert_eq!(b.lookup(2), Ok(PortId(1)));
        // Editing the original does not reach the clone either.
        a.set(3, PortId(2));
        assert_eq!(b.lookup(3), Err(RouteError { dst: 3 }));
    }

    #[test]
    fn mapped_destinations_sorted() {
        let mut t = RoutingTable::new(10);
        t.set(7, PortId(0));
        t.set(2, PortId(0));
        assert_eq!(t.mapped_destinations(), vec![2, 7]);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(RoutingTable::new(4).len(), 4);
        assert!(RoutingTable::new(0).is_empty());
    }

    #[test]
    #[should_panic]
    fn set_out_of_range_panics() {
        RoutingTable::new(2).set(5, PortId(0));
    }

    #[test]
    fn displays() {
        assert_eq!(PortId(2).to_string(), "port 2");
        assert!(RouteError { dst: 9 }.to_string().contains('9'));
    }
}
