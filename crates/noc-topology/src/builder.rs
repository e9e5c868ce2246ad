//! General topology construction with automatic port numbering.

use crate::{Attachment, Edge, PortCount, Topology, TopologyError};

/// Incrementally builds a [`Topology`], allocating switch ports in call
/// order: ports added by earlier `connect`/`attach` calls get lower
/// numbers.
///
/// # Examples
///
/// An irregular three-switch fabric:
///
/// ```
/// use noc_topology::TopologyBuilder;
/// let mut b = TopologyBuilder::new(3);
/// b.connect_bidir(0, 1);
/// b.connect_bidir(1, 2);
/// b.attach(0, 0)?;   // node 0 on switch 0
/// b.attach(1, 2)?;   // node 1 on switch 2
/// let topo = b.build();
/// assert_eq!(topo.num_switches(), 3);
/// assert_eq!(topo.num_endpoints(), 2);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    num_switches: usize,
    edges: Vec<Edge>,
    attachments: Vec<Attachment>,
    node_attachment: Vec<Option<usize>>,
    ports: Vec<PortCount>,
}

impl TopologyBuilder {
    /// Starts a topology with `num_switches` unconnected switches.
    ///
    /// # Panics
    ///
    /// Panics if `num_switches` is zero.
    pub fn new(num_switches: usize) -> Self {
        assert!(num_switches > 0, "topology needs at least one switch");
        TopologyBuilder {
            num_switches,
            edges: Vec::new(),
            attachments: Vec::new(),
            node_attachment: Vec::new(),
            ports: vec![PortCount::default(); num_switches],
        }
    }

    /// The number of the next port on a side of `switch` that has
    /// `count` ports.
    fn next_port(count: u8, switch: usize) -> Result<u8, TopologyError> {
        if usize::from(count) == PortCount::MAX {
            return Err(TopologyError::TooManyPorts {
                switch,
                ports: PortCount::MAX + 1,
            });
        }
        Ok(count)
    }

    /// Adds a unidirectional link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if either switch index is out of range, or if the link
    /// would give `from` or `to` more than [`PortCount::MAX`] ports a
    /// side ([`TopologyError::TooManyPorts`]).
    pub fn connect(&mut self, from: usize, to: usize) -> &mut Self {
        assert!(from < self.num_switches && to < self.num_switches);
        let port = |r: Result<u8, TopologyError>| r.unwrap_or_else(|e| panic!("{e}"));
        let from_port = port(Self::next_port(self.ports[from].outputs, from));
        let to_port = port(Self::next_port(self.ports[to].inputs, to));
        self.ports[from].outputs += 1;
        self.ports[to].inputs += 1;
        self.edges.push(Edge {
            from,
            from_port,
            to,
            to_port,
        });
        self
    }

    /// Adds links in both directions between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either switch index is out of range.
    pub fn connect_bidir(&mut self, a: usize, b: usize) -> &mut Self {
        self.connect(a, b);
        self.connect(b, a);
        self
    }

    /// Attaches endpoint `node` to `switch`, allocating an injection
    /// input port and an ejection output port.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadSwitch`],
    /// [`TopologyError::DuplicateNode`], or
    /// [`TopologyError::TooManyPorts`] when `switch` already has
    /// [`PortCount::MAX`] ports a side.
    pub fn attach(&mut self, node: u16, switch: usize) -> Result<&mut Self, TopologyError> {
        if switch >= self.num_switches {
            return Err(TopologyError::BadSwitch { switch });
        }
        let ports = self.ports[switch];
        let in_port = Self::next_port(ports.inputs, switch)?;
        let out_port = Self::next_port(ports.outputs, switch)?;
        let slot = node as usize;
        if self.node_attachment.len() <= slot {
            self.node_attachment.resize(slot + 1, None);
        }
        if self.node_attachment[slot].is_some() {
            return Err(TopologyError::DuplicateNode { node });
        }
        self.node_attachment[slot] = Some(self.attachments.len());
        self.ports[switch].inputs += 1;
        self.ports[switch].outputs += 1;
        self.attachments.push(Attachment {
            node,
            switch,
            in_port,
            out_port,
        });
        Ok(self)
    }

    /// Finalises the topology.
    pub fn build(self) -> Topology {
        Topology {
            num_switches: self.num_switches,
            edges: self.edges,
            attachments: self.attachments,
            node_attachment: self.node_attachment,
            ports: self.ports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_numbering_is_sequential() {
        let mut b = TopologyBuilder::new(2);
        b.connect(0, 1); // out 0 on sw0, in 0 on sw1
        b.connect(0, 1); // out 1 on sw0, in 1 on sw1
        b.attach(7, 0).unwrap(); // in 0 / out 2 on sw0
        let t = b.build();
        assert_eq!(t.edges()[0].from_port, 0);
        assert_eq!(t.edges()[1].from_port, 1);
        assert_eq!(t.edges()[1].to_port, 1);
        let a = t.attachment_of(7).unwrap();
        assert_eq!(a.in_port, 0);
        assert_eq!(a.out_port, 2);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut b = TopologyBuilder::new(1);
        b.attach(0, 0).unwrap();
        assert_eq!(
            b.attach(0, 0).unwrap_err(),
            TopologyError::DuplicateNode { node: 0 }
        );
    }

    #[test]
    fn bad_switch_rejected() {
        let mut b = TopologyBuilder::new(1);
        assert_eq!(
            b.attach(0, 5).unwrap_err(),
            TopologyError::BadSwitch { switch: 5 }
        );
    }

    #[test]
    fn a_full_switch_refuses_another_port_by_name() {
        let mut b = TopologyBuilder::new(2);
        b.connect(0, 1);
        for node in 0..PortCount::MAX as u16 - 1 {
            b.attach(node, 0).unwrap();
        }
        let full = TopologyError::TooManyPorts {
            switch: 0,
            ports: 256,
        };
        assert_eq!(b.attach(999, 0).unwrap_err(), full);
        assert_eq!(
            b.clone().build().ports()[0].outputs,
            255,
            "nothing half-added"
        );
        b.attach(999, 1).expect("the other switch has room");
        assert_eq!(
            full.to_string(),
            "switch 0 needs 256 ports, more than the 255 a switch can have"
        );
    }

    #[test]
    #[should_panic(expected = "switch 0 needs 256 ports")]
    fn a_link_into_a_full_switch_panics_by_name() {
        let mut b = TopologyBuilder::new(2);
        for _ in 0..=PortCount::MAX {
            b.connect(0, 1);
        }
    }

    #[test]
    #[should_panic]
    fn connect_out_of_range_panics() {
        TopologyBuilder::new(1).connect(0, 3);
    }
}
