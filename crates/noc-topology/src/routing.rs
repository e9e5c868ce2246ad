//! Routing-table computation.

use crate::{Topology, TopologyError};
use std::collections::VecDeque;

/// Routing algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAlgorithm {
    /// Breadth-first shortest path with deterministic tie-breaking
    /// (lowest next-switch index wins). Minimal, but may form channel
    /// cycles on cyclic topologies — check with
    /// [`Topology::deadlock_report`].
    ShortestPath,
    /// Dimension-order (X then Y) routing for a row-major mesh built by
    /// [`Topology::mesh`]. Deadlock-free by construction.
    XyMesh {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// Up*/down* routing on a BFS spanning tree rooted at switch 0:
    /// routes climb toward the root ("up", to lower BFS level) zero or
    /// more hops, then descend ("down") — never down-then-up, which makes
    /// the channel dependency graph acyclic on any connected topology.
    UpDown,
}

/// Computed per-switch routing tables: one row-major matrix whose row
/// `switch` holds, per destination node, the output port towards it, if
/// reachable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchTables {
    /// `num_nodes` entries per switch, switch after switch.
    ports: Vec<Option<u8>>,
    num_switches: usize,
    num_nodes: usize,
}

impl SwitchTables {
    /// Tables for `num_switches` switches with no route yet.
    fn unrouted(num_switches: usize, num_nodes: usize) -> SwitchTables {
        SwitchTables {
            ports: vec![None; num_switches * num_nodes],
            num_switches,
            num_nodes,
        }
    }

    /// The entry of `switch` for destination `node`.
    fn entry(&mut self, switch: usize, node: usize) -> &mut Option<u8> {
        &mut self.ports[switch * self.num_nodes + node]
    }

    /// Output port on `switch` towards destination `node`.
    pub fn port(&self, switch: usize, node: u16) -> Option<u8> {
        let node = node as usize;
        if switch < self.num_switches && node < self.num_nodes {
            self.ports[switch * self.num_nodes + node]
        } else {
            None
        }
    }

    /// The raw table of one switch (indexed by destination node).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is beyond the switches covered.
    pub fn switch_table(&self, switch: usize) -> &[Option<u8>] {
        assert!(switch < self.num_switches, "no switch {switch}");
        &self.ports[switch * self.num_nodes..][..self.num_nodes]
    }

    /// Every switch's table, one after the other: the row-major matrix.
    pub fn matrix(&self) -> &[Option<u8>] {
        &self.ports
    }

    /// Number of switches covered.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }
}

impl Topology {
    /// Computes per-switch routing tables with the chosen algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] when some destination is
    /// unreachable from some switch, or
    /// [`TopologyError::AlgorithmMismatch`] when the algorithm does not
    /// apply (e.g. XY on a non-mesh).
    pub fn compute_routes(&self, algo: RouteAlgorithm) -> Result<SwitchTables, TopologyError> {
        match algo {
            RouteAlgorithm::ShortestPath => self.routes_bfs(None),
            RouteAlgorithm::UpDown => {
                let levels = self.bfs_levels(0)?;
                self.routes_bfs(Some(&levels))
            }
            RouteAlgorithm::XyMesh { width, height } => self.routes_xy(width, height),
        }
    }

    /// BFS levels from `root` (hop distance), erroring on disconnection.
    fn bfs_levels(&self, root: usize) -> Result<Vec<usize>, TopologyError> {
        let adj = self.adjacency();
        let mut level = vec![usize::MAX; self.num_switches];
        level[root] = 0;
        let mut q = VecDeque::from([root]);
        while let Some(s) = q.pop_front() {
            let mut nbrs: Vec<usize> = adj[s].iter().map(|&(_, t)| t).collect();
            nbrs.sort_unstable();
            for t in nbrs {
                if level[t] == usize::MAX {
                    level[t] = level[s] + 1;
                    q.push_back(t);
                }
            }
        }
        if let Some(to) = level.iter().position(|&l| l == usize::MAX) {
            return Err(TopologyError::Disconnected { from: root, to });
        }
        Ok(level)
    }

    /// Reverse-BFS routing towards each destination. With `levels`
    /// provided, hops are restricted to the up*/down* rule relative to the
    /// spanning-tree levels. O(attachments · edges).
    fn routes_bfs(&self, levels: Option<&[usize]>) -> Result<SwitchTables, TopologyError> {
        // Reverse adjacency: per switch, its incoming edges as
        // `(from, from_port, up)` ordered by source switch (declaration
        // order among parallel edges) — the deterministic tie-break.
        // `up` marks an edge that climbs toward the spanning-tree root
        // (lower level) when walked forward; without `levels` no edge is.
        let mut radj: Vec<Vec<(usize, u8, bool)>> = vec![Vec::new(); self.num_switches];
        for e in &self.edges {
            let up = levels.is_some_and(|lv| lv[e.to] < lv[e.from]);
            radj[e.to].push((e.from, e.from_port, up));
        }
        for preds in &mut radj {
            preds.sort_by_key(|&(from, _, _)| from);
        }
        let mut tables = SwitchTables::unrouted(self.num_switches, self.num_nodes());
        // dist[switch][phase]; a forward up*/down* route is up…up then
        // down…down, so the backward walk from the destination crosses
        // down edges first (phase 0) and, once it has crossed an up
        // edge (phase 1), up edges only.
        let mut dist = vec![[usize::MAX; 2]; self.num_switches];
        let mut q: VecDeque<(usize, usize)> = VecDeque::new();
        for a in &self.attachments {
            let node = a.node as usize;
            dist.fill([usize::MAX; 2]);
            dist[a.switch][0] = 0;
            q.push_back((a.switch, 0));
            *tables.entry(a.switch, node) = Some(a.out_port);
            while let Some((s, phase)) = q.pop_front() {
                for &(from, from_port, up) in &radj[s] {
                    if phase == 1 && !up {
                        continue; // forward down-then-up is illegal
                    }
                    let next_phase = if up { 1 } else { phase };
                    if dist[from][next_phase] != usize::MAX {
                        continue;
                    }
                    dist[from][next_phase] = dist[s][phase] + 1;
                    // First writer wins → BFS shortest, deterministic.
                    tables.entry(from, node).get_or_insert(from_port);
                    q.push_back((from, next_phase));
                }
            }
            // Connectivity check for this destination.
            if let Some(s) = dist.iter().position(|d| *d == [usize::MAX; 2]) {
                return Err(TopologyError::Disconnected {
                    from: s,
                    to: a.switch,
                });
            }
        }
        Ok(tables)
    }

    /// Dimension-order routing for a row-major mesh (as built by
    /// [`Topology::mesh`]). O(attachments · switches): each hop is looked
    /// up in the switch's own (at most four-entry) neighbour list.
    fn routes_xy(&self, width: usize, height: usize) -> Result<SwitchTables, TopologyError> {
        let switches = width.checked_mul(height);
        if switches != Some(self.num_switches) {
            let claimed = match switches {
                Some(n) => format!("has {n} switches"),
                None => "overflows the switch count".to_owned(),
            };
            return Err(TopologyError::AlgorithmMismatch {
                reason: format!(
                    "mesh {width}x{height} {claimed}, topology has {}",
                    self.num_switches
                ),
            });
        }
        // Output port towards a neighbouring switch; adjacency keeps
        // declaration order, so the first declared edge wins.
        let adj = self.adjacency();
        let port_towards = |from: usize, to: usize| -> Option<u8> {
            adj[from]
                .iter()
                .find(|&&(_, t)| t == to)
                .map(|&(edge, _)| self.edges[edge].from_port)
        };
        let mut tables = SwitchTables::unrouted(self.num_switches, self.num_nodes());
        for a in &self.attachments {
            let (dx, dy) = (a.switch % width, a.switch / width);
            #[allow(clippy::needless_range_loop)] // s is also arithmetic, not just an index
            for s in 0..self.num_switches {
                let (sx, sy) = (s % width, s / width);
                let entry = if s == a.switch {
                    Some(a.out_port)
                } else if sx != dx {
                    // X first
                    let nxt = if dx > sx { s + 1 } else { s - 1 };
                    port_towards(s, nxt)
                } else {
                    let nxt = if dy > sy { s + width } else { s - width };
                    port_towards(s, nxt)
                };
                let port = entry.ok_or_else(|| TopologyError::AlgorithmMismatch {
                    reason: format!("missing mesh link at switch {s}"),
                })?;
                *tables.entry(s, a.node as usize) = Some(port);
            }
        }
        Ok(tables)
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteAlgorithm as RA;

    /// Walks a route from `start` switch to destination node, returning
    /// the switch sequence (panics after too many hops → routing loop).
    fn walk(topo: &Topology, tables: &SwitchTables, start: usize, node: u16) -> Vec<usize> {
        let dst_attach = topo.attachment_of(node).unwrap();
        let mut path = vec![start];
        let mut s = start;
        for _ in 0..100 {
            let port = tables.port(s, node).expect("route exists");
            if s == dst_attach.switch && port == dst_attach.out_port {
                return path;
            }
            let edge = topo
                .edges()
                .iter()
                .find(|e| e.from == s && e.from_port == port)
                .expect("port maps to an edge");
            s = edge.to;
            path.push(s);
        }
        panic!("routing loop from {start} to node {node}: {path:?}");
    }

    #[test]
    fn shortest_path_on_mesh_is_minimal() {
        let t = Topology::mesh(3, 3);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        // corner (sw 0) to opposite corner (node 8 on sw 8): 4 hops
        let path = walk(&t, &tables, 0, 8);
        assert_eq!(path.len(), 5);
    }

    #[test]
    fn xy_routes_x_first() {
        let t = Topology::mesh(3, 3);
        let tables = t
            .compute_routes(RA::XyMesh {
                width: 3,
                height: 3,
            })
            .unwrap();
        let path = walk(&t, &tables, 0, 8);
        assert_eq!(path, vec![0, 1, 2, 5, 8], "X first, then Y");
    }

    #[test]
    fn all_pairs_reach_destination_on_mesh() {
        let t = Topology::mesh(3, 2);
        for algo in [
            RA::ShortestPath,
            RA::XyMesh {
                width: 3,
                height: 2,
            },
            RA::UpDown,
        ] {
            let tables = t.compute_routes(algo).unwrap();
            for start in 0..t.num_switches() {
                for node in 0..6u16 {
                    let path = walk(&t, &tables, start, node);
                    assert!(!path.is_empty());
                }
            }
        }
    }

    #[test]
    fn ring_routes_follow_direction() {
        let t = Topology::ring(4);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        // Unidirectional ring: 3 → 0 wraps via the single direction
        let path = walk(&t, &tables, 3, 0);
        assert_eq!(path, vec![3, 0]);
        let path = walk(&t, &tables, 0, 3);
        assert_eq!(path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn updown_reaches_everything_on_tree() {
        let t = Topology::tree(2, 3);
        let tables = t.compute_routes(RA::UpDown).unwrap();
        for start in 0..t.num_switches() {
            for node in 0..8u16 {
                walk(&t, &tables, start, node);
            }
        }
    }

    #[test]
    fn updown_reaches_everything_on_double_ring() {
        let t = Topology::double_ring(6);
        let tables = t.compute_routes(RA::UpDown).unwrap();
        for start in 0..6 {
            for node in 0..6u16 {
                walk(&t, &tables, start, node);
            }
        }
    }

    #[test]
    fn xy_on_non_mesh_rejected() {
        let t = Topology::ring(4);
        assert!(matches!(
            t.compute_routes(RA::XyMesh {
                width: 2,
                height: 3
            }),
            Err(TopologyError::AlgorithmMismatch { .. })
        ));
    }

    #[test]
    fn xy_size_overflow_is_a_mismatch_not_a_panic() {
        let t = Topology::mesh(2, 2);
        let err = t
            .compute_routes(RA::XyMesh {
                width: usize::MAX,
                height: 2,
            })
            .unwrap_err();
        assert_eq!(
            err,
            TopologyError::AlgorithmMismatch {
                reason: format!(
                    "mesh {}x2 overflows the switch count, topology has 4",
                    usize::MAX
                )
            }
        );
    }

    #[test]
    fn crossbar_routes_directly() {
        let t = Topology::crossbar(3);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        for node in 0..3u16 {
            let a = t.attachment_of(node).unwrap();
            assert_eq!(tables.port(0, node), Some(a.out_port));
        }
    }

    #[test]
    fn table_accessors() {
        let t = Topology::crossbar(2);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        assert_eq!(tables.num_switches(), 1);
        assert_eq!(tables.switch_table(0).len(), 2);
        assert_eq!(tables.port(0, 99), None);
    }
}
