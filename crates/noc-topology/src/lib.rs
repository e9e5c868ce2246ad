//! NoC topologies: switch graphs, endpoint placement, routing-table
//! computation and deadlock analysis.
//!
//! The paper's transport layer owns "quality of service and scalability";
//! topology is the scalability half. This crate describes a fabric as a
//! directed graph of switches with numbered ports, attaches endpoint nodes
//! (NIUs), computes per-switch destination → output-port tables, and
//! checks the resulting routes for channel-dependency cycles (the
//! wormhole deadlock criterion).
//!
//! It deliberately depends on nothing: it emits plain data
//! ([`SwitchTables`]) that `noc-system` converts into live
//! `noc-transport` routing tables — topology is a transport concern and
//! must stay invisible to the transaction layer.
//!
//! # Examples
//!
//! ```
//! use noc_topology::{Topology, RouteAlgorithm};
//! // A 2x2 mesh with one endpoint per switch.
//! let topo = Topology::mesh(2, 2);
//! assert_eq!(topo.num_switches(), 4);
//! assert_eq!(topo.num_endpoints(), 4);
//! let tables = topo.compute_routes(RouteAlgorithm::XyMesh { width: 2, height: 2 })?;
//! let report = topo.deadlock_report(&tables);
//! assert!(report.is_deadlock_free(), "XY routing on a mesh is deadlock-free");
//! # Ok::<(), noc_topology::TopologyError>(())
//! ```

pub mod builder;
pub mod deadlock;
pub mod routing;

pub use builder::TopologyBuilder;
pub use deadlock::DeadlockReport;
pub use routing::{RouteAlgorithm, SwitchTables};

use std::fmt;

/// A directed inter-switch edge with its port numbers on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source switch index.
    pub from: usize,
    /// Output port on the source switch.
    pub from_port: u8,
    /// Destination switch index.
    pub to: usize,
    /// Input port on the destination switch.
    pub to_port: u8,
}

/// An endpoint (NIU) attachment to a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attachment {
    /// The endpoint's node number (used as packet `dst`/`src`).
    pub node: u16,
    /// The switch it hangs off.
    pub switch: usize,
    /// Input port on the switch receiving the endpoint's flits.
    pub in_port: u8,
    /// Output port on the switch ejecting flits to the endpoint.
    pub out_port: u8,
}

/// Per-switch port counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCount {
    /// Number of input ports.
    pub inputs: u8,
    /// Number of output ports.
    pub outputs: u8,
}

impl PortCount {
    /// The most ports a switch has on either side: port numbers are
    /// `u8`s.
    pub const MAX: usize = u8::MAX as usize;
}

/// Errors from topology construction or routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A switch index was out of range.
    BadSwitch {
        /// The offending index.
        switch: usize,
    },
    /// The graph is not connected: no path between two switches.
    Disconnected {
        /// Source switch.
        from: usize,
        /// Unreachable switch.
        to: usize,
    },
    /// Duplicate endpoint node number.
    DuplicateNode {
        /// The duplicated node number.
        node: u16,
    },
    /// The algorithm does not fit this topology (e.g. XY on a non-mesh).
    AlgorithmMismatch {
        /// Explanation.
        reason: String,
    },
    /// A switch would need more ports on one side than
    /// [`PortCount::MAX`].
    TooManyPorts {
        /// The switch.
        switch: usize,
        /// The ports it would need on that side.
        ports: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::BadSwitch { switch } => write!(f, "switch {switch} out of range"),
            TopologyError::Disconnected { from, to } => {
                write!(f, "no path from switch {from} to switch {to}")
            }
            TopologyError::DuplicateNode { node } => {
                write!(f, "endpoint node {node} attached twice")
            }
            TopologyError::AlgorithmMismatch { reason } => {
                write!(f, "routing algorithm mismatch: {reason}")
            }
            TopologyError::TooManyPorts { switch, ports } => write!(
                f,
                "switch {switch} needs {ports} ports, more than the {} a switch can have",
                PortCount::MAX
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A complete fabric description: switches, inter-switch edges and
/// endpoint attachments, with all port numbers assigned.
///
/// Build via the convenience constructors ([`Topology::mesh`],
/// [`Topology::ring`], …) or the general [`TopologyBuilder`].
#[derive(Debug, Clone)]
pub struct Topology {
    pub(crate) num_switches: usize,
    pub(crate) edges: Vec<Edge>,
    pub(crate) attachments: Vec<Attachment>,
    /// Node number → index into `attachments`; its length is the
    /// number of destination nodes every routing table covers.
    pub(crate) node_attachment: Vec<Option<usize>>,
    pub(crate) ports: Vec<PortCount>,
}

impl Topology {
    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Number of attached endpoints.
    pub fn num_endpoints(&self) -> usize {
        self.attachments.len()
    }

    /// The inter-switch edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The endpoint attachments.
    pub fn attachments(&self) -> &[Attachment] {
        &self.attachments
    }

    /// Port counts per switch.
    pub fn ports(&self) -> &[PortCount] {
        &self.ports
    }

    /// Finds an endpoint's attachment by node number.
    pub fn attachment_of(&self, node: u16) -> Option<&Attachment> {
        let index = self.node_attachment.get(node as usize).copied().flatten()?;
        Some(&self.attachments[index])
    }

    /// Destination nodes a routing table covers: the highest attached
    /// node number plus one.
    pub fn num_nodes(&self) -> usize {
        self.node_attachment.len()
    }

    /// A `width` × `height` mesh with one endpoint per switch, node `i`
    /// on switch `i` (row-major). Uses bidirectional links.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(width: usize, height: usize) -> Topology {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let mut b = TopologyBuilder::new(width * height);
        for y in 0..height {
            for x in 0..width {
                let s = y * width + x;
                if x + 1 < width {
                    b.connect_bidir(s, s + 1);
                }
                if y + 1 < height {
                    b.connect_bidir(s, s + width);
                }
            }
        }
        for s in 0..width * height {
            b.attach(s as u16, s).expect("switch index in range");
        }
        b.build()
    }

    /// A unidirectional ring of `n` switches, one endpoint each.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 2, "ring needs at least two switches");
        let mut b = TopologyBuilder::new(n);
        for s in 0..n {
            b.connect(s, (s + 1) % n);
        }
        for s in 0..n {
            b.attach(s as u16, s).expect("switch index in range");
        }
        b.build()
    }

    /// A bidirectional double ring of `n` switches, one endpoint each.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn double_ring(n: usize) -> Topology {
        assert!(n >= 2, "ring needs at least two switches");
        let mut b = TopologyBuilder::new(n);
        for s in 0..n {
            b.connect_bidir(s, (s + 1) % n);
        }
        for s in 0..n {
            b.attach(s as u16, s).expect("switch index in range");
        }
        b.build()
    }

    /// A single-switch crossbar with `n` endpoints — the degenerate NoC
    /// (and the reference fabric of the bridged baseline).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or over [`PortCount::MAX`].
    pub fn crossbar(n: usize) -> Topology {
        assert!(n > 0, "crossbar needs at least one endpoint");
        let mut b = TopologyBuilder::new(1);
        for node in 0..n {
            b.attach(node as u16, 0).unwrap_or_else(|e| panic!("{e}"));
        }
        b.build()
    }

    /// A balanced tree: `levels` levels of switches with `arity` children
    /// each; endpoints attach to the leaves (arity per leaf).
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or `levels` is zero, or if a switch
    /// would need more than [`PortCount::MAX`] ports a side.
    pub fn tree(arity: usize, levels: usize) -> Topology {
        assert!(arity > 0 && levels > 0, "degenerate tree");
        // Switch count: arity^0 + ... + arity^(levels-1)
        let mut counts = Vec::new();
        let mut total = 0usize;
        let mut level_size = 1usize;
        for _ in 0..levels {
            counts.push(level_size);
            total += level_size;
            level_size *= arity;
        }
        let mut b = TopologyBuilder::new(total);
        // Connect parents to children.
        let mut level_start = 0usize;
        for &count in counts.iter().take(levels - 1) {
            let next_start = level_start + count;
            for p in 0..count {
                let parent = level_start + p;
                for c in 0..arity {
                    let child = next_start + p * arity + c;
                    b.connect_bidir(parent, child);
                }
            }
            level_start = next_start;
        }
        // Endpoints on leaves.
        let leaf_start = total - counts[levels - 1];
        let mut node = 0u16;
        for leaf in leaf_start..total {
            for _ in 0..arity {
                b.attach(node, leaf).unwrap_or_else(|e| panic!("{e}"));
                node += 1;
            }
        }
        b.build()
    }

    /// Adjacency: outgoing `(edge_index, to_switch)` per switch.
    pub(crate) fn adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        let mut adj = vec![Vec::new(); self.num_switches];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.from].push((i, e.to));
        }
        adj
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology: {} switches, {} links, {} endpoints",
            self.num_switches,
            self.edges.len(),
            self.attachments.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_geometry() {
        let t = Topology::mesh(3, 2);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_endpoints(), 6);
        // 3x2 mesh: horizontal links 2 per row x 2 rows = 4, vertical 3;
        // each bidirectional = 2 directed edges
        assert_eq!(t.edges().len(), (4 + 3) * 2);
    }

    #[test]
    fn ring_is_unidirectional() {
        let t = Topology::ring(4);
        assert_eq!(t.edges().len(), 4);
        assert_eq!(t.num_endpoints(), 4);
    }

    #[test]
    fn double_ring_doubles_edges() {
        let t = Topology::double_ring(4);
        assert_eq!(t.edges().len(), 8);
    }

    #[test]
    fn crossbar_single_switch() {
        let t = Topology::crossbar(5);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.num_endpoints(), 5);
        assert!(t.edges().is_empty());
        assert_eq!(t.ports()[0].inputs, 5);
        assert_eq!(t.ports()[0].outputs, 5);
    }

    #[test]
    fn tree_counts() {
        let t = Topology::tree(2, 3); // 1 + 2 + 4 switches, 8 endpoints
        assert_eq!(t.num_switches(), 7);
        assert_eq!(t.num_endpoints(), 8);
        assert_eq!(t.edges().len(), 6 * 2);
    }

    #[test]
    fn attachment_lookup() {
        let t = Topology::mesh(2, 2);
        let a = t.attachment_of(3).unwrap();
        assert_eq!(a.switch, 3);
        assert!(t.attachment_of(99).is_none());
    }

    #[test]
    fn ports_are_consistent_with_edges() {
        let t = Topology::mesh(2, 2);
        // corner switch: 2 mesh links (bidir) + endpoint = 3 in, 3 out
        assert_eq!(t.ports()[0].inputs, 3);
        assert_eq!(t.ports()[0].outputs, 3);
    }

    #[test]
    #[should_panic(expected = "switch 0 needs 256 ports, more than the 255 a switch can have")]
    fn a_crossbar_wider_than_its_port_numbers_panics_by_name() {
        Topology::crossbar(PortCount::MAX + 1);
    }

    #[test]
    fn display() {
        let t = Topology::ring(3);
        assert!(t.to_string().contains("3 switches"));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_ring_panics() {
        Topology::ring(1);
    }
}
