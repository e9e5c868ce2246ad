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
/// fabric, every SoC snapshot) share one copy — as do all the tables cut
/// from one matrix by [`RoutingTable::rows`] — and [`RoutingTable::set`]
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
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Shared storage; this table is `hops[start..start + len]`.
    hops: Arc<[Option<PortId>]>,
    start: usize,
    len: usize,
}

impl RoutingTable {
    /// Creates an empty table covering destinations `0..num_nodes`.
    pub fn new(num_nodes: usize) -> Self {
        RoutingTable {
            hops: vec![None; num_nodes].into(),
            start: 0,
            len: num_nodes,
        }
    }

    /// Cuts a row-major `matrix` of `num_nodes` destinations per row into
    /// one table per row, all sharing a single copy of it: a fabric of
    /// thousands of switches holds its routing state in one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not a whole number of rows.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_transport::{PortId, RoutingTable};
    /// let matrix = vec![Some(PortId(0)), None, None, Some(PortId(2))];
    /// let rows: Vec<RoutingTable> = RoutingTable::rows(matrix, 2).collect();
    /// assert_eq!(rows.len(), 2);
    /// assert_eq!(rows[1].lookup(1)?, PortId(2));
    /// assert!(rows[1].lookup(0).is_err());
    /// # Ok::<(), noc_transport::RouteError>(())
    /// ```
    pub fn rows(
        matrix: Vec<Option<PortId>>,
        num_nodes: usize,
    ) -> impl Iterator<Item = RoutingTable> {
        let rows = matrix.len().checked_div(num_nodes).unwrap_or(0);
        assert_eq!(
            rows * num_nodes,
            matrix.len(),
            "routing matrix is not a whole number of rows"
        );
        let hops: Arc<[Option<PortId>]> = matrix.into();
        (0..rows).map(move |r| RoutingTable {
            hops: Arc::clone(&hops),
            start: r * num_nodes,
            len: num_nodes,
        })
    }

    fn row(&self) -> &[Option<PortId>] {
        &self.hops[self.start..self.start + self.len]
    }

    /// Number of destinations the table covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the output port for destination `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is outside the table.
    pub fn set(&mut self, dst: u16, port: PortId) {
        if self.len != self.hops.len() {
            // A row of a shared matrix: edit a private copy of the row.
            self.hops = self.row().into();
            self.start = 0;
        }
        Arc::make_mut(&mut self.hops)[dst as usize] = Some(port);
    }

    /// Looks up the output port for `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] when the destination is not mapped.
    pub fn lookup(&self, dst: u16) -> Result<PortId, RouteError> {
        self.row()
            .get(dst as usize)
            .copied()
            .flatten()
            .ok_or(RouteError { dst })
    }
}

/// Tables are equal when they route alike, wherever their rows are stored.
impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.row() == other.row()
    }
}

impl Eq for RoutingTable {}

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
        assert!(Arc::ptr_eq(&a.hops, &b.hops), "clones share the row");
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
    fn rows_share_one_matrix_until_one_is_edited() {
        let matrix = vec![Some(PortId(0)), None, None, Some(PortId(1)), None, None];
        let mut rows: Vec<RoutingTable> = RoutingTable::rows(matrix, 2).collect();
        assert_eq!(rows.len(), 3);
        assert!(Arc::ptr_eq(&rows[0].hops, &rows[2].hops));
        assert_eq!(rows[0].lookup(0), Ok(PortId(0)));
        assert_eq!(rows[1].lookup(1), Ok(PortId(1)));
        assert_eq!(rows[1].lookup(2), Err(RouteError { dst: 2 }), "a row ends");
        assert_eq!(rows[2].len(), 2);
        assert!(rows[2].lookup(0).is_err() && rows[2].lookup(1).is_err());
        // Editing one row leaves its neighbours' storage alone.
        rows[1].set(0, PortId(4));
        assert_eq!(rows[1].lookup(0), Ok(PortId(4)));
        assert_eq!(rows[1].lookup(1), Ok(PortId(1)));
        assert_eq!(rows[0].lookup(0), Ok(PortId(0)));
        assert_eq!(rows[2].lookup(0), Err(RouteError { dst: 0 }));
        let mut same = RoutingTable::new(2);
        same.set(0, PortId(4));
        same.set(1, PortId(1));
        assert_eq!(rows[1], same, "equality is by routes, not by storage");
        assert_eq!(RoutingTable::rows(Vec::new(), 0).count(), 0);
    }

    #[test]
    fn mapped_destinations_sorted() {
        let mut t = RoutingTable::new(10);
        t.set(7, PortId(0));
        t.set(2, PortId(0));
        let mapped: Vec<u16> = (0..10).filter(|&d| t.lookup(d).is_ok()).collect();
        assert_eq!(mapped, vec![2, 7]);
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
