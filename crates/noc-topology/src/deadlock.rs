//! Wormhole deadlock analysis via channel dependency graphs.
//!
//! A set of routes is deadlock-free for wormhole switching (without
//! virtual channels) iff the *channel dependency graph* — whose vertices
//! are inter-switch links and whose edges connect link `a` to link `b`
//! when some route traverses `a` immediately followed by `b` — is acyclic
//! (Dally & Seitz criterion).

use crate::routing::SwitchTables;
use crate::Topology;
use std::fmt;

/// Result of a deadlock analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Channel dependency edges found: `(edge_index_a, edge_index_b)`.
    pub dependencies: Vec<(usize, usize)>,
    /// A cycle of edge indices, if one exists.
    pub cycle: Option<Vec<usize>>,
}

impl DeadlockReport {
    /// Returns `true` when the channel dependency graph is acyclic.
    pub fn is_deadlock_free(&self) -> bool {
        self.cycle.is_none()
    }
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cycle {
            None => write!(
                f,
                "deadlock-free ({} channel dependencies, acyclic)",
                self.dependencies.len()
            ),
            Some(c) => write!(f, "POTENTIAL DEADLOCK: channel cycle {c:?}"),
        }
    }
}

impl Topology {
    /// Builds the channel dependency graph induced by `tables` and
    /// searches it for cycles.
    pub fn deadlock_report(&self, tables: &SwitchTables) -> DeadlockReport {
        let num_edges = self.edges.len();
        // Map (switch, out_port) → edge index for quick lookup.
        let mut port_edge = vec![Vec::new(); self.num_switches];
        for (i, e) in self.edges.iter().enumerate() {
            port_edge[e.from].push((e.from_port, i));
        }
        let lookup = |sw: usize, port: u8| -> Option<usize> {
            port_edge[sw]
                .iter()
                .find(|&&(p, _)| p == port)
                .map(|&(_, i)| i)
        };
        let num_nodes = self.num_nodes();
        let mut deps = std::collections::BTreeSet::new();
        // For each (edge a, destination node): the packet arrives at
        // a.to and continues via tables[a.to][node]; if that is another
        // inter-switch edge b, record dependency a→b.
        for (ia, a) in self.edges.iter().enumerate() {
            for node in 0..num_nodes as u16 {
                let Some(port) = tables.port(a.to, node) else {
                    continue;
                };
                // Only count this dependency if edge `a` is actually on
                // some route to `node`: a is used toward node iff some
                // switch routes to node via a. Conservatively include all
                // incoming edges — standard CDG construction uses routes;
                // we refine by checking a.from routes to node via a.
                let uses_a = tables.port(a.from, node) == Some(a.from_port);
                if !uses_a {
                    continue;
                }
                if let Some(ib) = lookup(a.to, port) {
                    deps.insert((ia, ib));
                }
            }
        }
        let dependencies: Vec<(usize, usize)> = deps.into_iter().collect();
        // Cycle detection (iterative DFS, colouring).
        let mut adj = vec![Vec::new(); num_edges];
        for &(a, b) in &dependencies {
            adj[a].push(b);
        }
        let mut colour = vec![0u8; num_edges]; // 0 white, 1 grey, 2 black
        let mut parent = vec![usize::MAX; num_edges];
        for start in 0..num_edges {
            if colour[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            colour[start] = 1;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < adj[v].len() {
                    let w = adj[v][*next];
                    *next += 1;
                    match colour[w] {
                        0 => {
                            colour[w] = 1;
                            parent[w] = v;
                            stack.push((w, 0));
                        }
                        1 => {
                            // Found a cycle: reconstruct w ← … ← v.
                            let mut cycle = vec![w];
                            let mut cur = v;
                            while cur != w && cur != usize::MAX {
                                cycle.push(cur);
                                cur = parent[cur];
                            }
                            cycle.reverse();
                            return DeadlockReport {
                                dependencies,
                                cycle: Some(cycle),
                            };
                        }
                        _ => {}
                    }
                } else {
                    colour[v] = 2;
                    stack.pop();
                }
            }
        }
        DeadlockReport {
            dependencies,
            cycle: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteAlgorithm as RA;

    #[test]
    fn xy_mesh_is_deadlock_free() {
        let t = Topology::mesh(4, 4);
        let tables = t
            .compute_routes(RA::XyMesh {
                width: 4,
                height: 4,
            })
            .unwrap();
        let report = t.deadlock_report(&tables);
        assert!(report.is_deadlock_free(), "{report}");
        assert!(!report.dependencies.is_empty());
    }

    #[test]
    fn unidirectional_ring_shortest_path_has_cycle() {
        let t = Topology::ring(4);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        let report = t.deadlock_report(&tables);
        assert!(!report.is_deadlock_free(), "ring without VCs must cycle");
        assert!(report.to_string().contains("DEADLOCK"));
    }

    #[test]
    fn updown_double_ring_is_deadlock_free() {
        let t = Topology::double_ring(6);
        let tables = t.compute_routes(RA::UpDown).unwrap();
        let report = t.deadlock_report(&tables);
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn updown_tree_is_deadlock_free() {
        let t = Topology::tree(2, 3);
        let tables = t.compute_routes(RA::UpDown).unwrap();
        let report = t.deadlock_report(&tables);
        assert!(report.is_deadlock_free(), "{report}");
    }

    #[test]
    fn crossbar_trivially_deadlock_free() {
        let t = Topology::crossbar(4);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        let report = t.deadlock_report(&tables);
        assert!(report.is_deadlock_free());
        assert!(report.dependencies.is_empty());
        assert!(report.to_string().contains("deadlock-free"));
    }

    #[test]
    fn shortest_path_mesh_small_is_checked() {
        // BFS tie-breaking on a 2x2 mesh: verify the report runs; the
        // result may legitimately contain a cycle, we assert consistency
        // between report and accessor instead of a fixed verdict.
        let t = Topology::mesh(2, 2);
        let tables = t.compute_routes(RA::ShortestPath).unwrap();
        let report = t.deadlock_report(&tables);
        assert_eq!(report.is_deadlock_free(), report.cycle.is_none());
    }
}
