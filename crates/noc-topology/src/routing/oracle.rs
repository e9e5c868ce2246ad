//! Differential oracle for routing-table computation: the original
//! edge-scan implementations, kept as the reference the indexed ones
//! must match table for table and error for error.

use super::{RouteAlgorithm as RA, SwitchTables};
use crate::{Topology, TopologyBuilder, TopologyError};
use std::collections::VecDeque;

impl Topology {
    fn compute_routes_reference(&self, algo: RA) -> Result<SwitchTables, TopologyError> {
        match algo {
            RA::ShortestPath => self.routes_bfs_reference(None),
            RA::UpDown => {
                let levels = self.bfs_levels(0)?;
                self.routes_bfs_reference(Some(&levels))
            }
            RA::XyMesh { width, height } => self.routes_xy_reference(width, height),
        }
    }

    /// The reverse BFS as first written: predecessors cloned and
    /// re-sorted on every queue pop, a fresh `dist` per attachment.
    fn routes_bfs_reference(
        &self,
        levels: Option<&Vec<usize>>,
    ) -> Result<SwitchTables, TopologyError> {
        // Reverse adjacency: incoming edges per switch.
        let mut radj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.num_switches];
        for (i, e) in self.edges.iter().enumerate() {
            radj[e.to].push((i, e.from));
        }
        let num_nodes = self
            .attachments
            .iter()
            .map(|a| a.node as usize + 1)
            .max()
            .unwrap_or(0);
        let mut tables = SwitchTables::unrouted(self.num_switches, num_nodes);
        for a in &self.attachments {
            // BFS outward from the destination switch along reverse edges.
            // phase: 0 = still descending when walked forward (down-phase
            // near destination), 1 = up-phase allowed. For up*/down*:
            // a forward route must be up...up, down...down. Walking
            // backwards from the destination we first traverse "down"
            // edges (from higher level to lower... i.e. forward edge goes
            // parent→child direction), then "up" edges.
            let mut dist = vec![[usize::MAX; 2]; self.num_switches];
            let mut q: VecDeque<(usize, usize)> = VecDeque::new();
            dist[a.switch][0] = 0;
            q.push_back((a.switch, 0));
            *tables.entry(a.switch, a.node as usize) = Some(a.out_port);
            while let Some((s, phase)) = q.pop_front() {
                let mut preds: Vec<(usize, usize)> = radj[s].clone();
                preds.sort_by_key(|&(_, from)| from);
                for (edge_idx, from) in preds {
                    let e = &self.edges[edge_idx];
                    // Determine the forward direction class of this edge
                    // under up*/down*: "up" = toward lower level.
                    let allowed_phases: &[usize] = match levels {
                        None => &[0],
                        Some(lv) => {
                            let up = lv[e.to] < lv[e.from];
                            if up {
                                // Forward "up" edge: only usable before any
                                // down edge, i.e. backward walk must be in
                                // phase 1 (or entering it).
                                &[1]
                            } else {
                                // Forward "down" edge: backward phase 0
                                // stays 0; from phase 1 it is illegal
                                // (down-then-up forward).
                                &[0]
                            }
                        }
                    };
                    for &p_edge in allowed_phases {
                        // Backward walk: current phase must be <= edge
                        // phase (once we've walked an up edge backwards,
                        // we may continue with up edges only).
                        let next_phase = p_edge.max(phase);
                        if next_phase < phase {
                            continue;
                        }
                        if levels.is_some() && phase == 1 && p_edge == 0 {
                            continue; // down edge after up edge (backward) is illegal
                        }
                        if dist[from][next_phase] != usize::MAX {
                            continue;
                        }
                        dist[from][next_phase] = dist[s][phase] + 1;
                        // First writer wins → BFS shortest, deterministic.
                        let entry = tables.entry(from, a.node as usize);
                        if entry.is_none() {
                            *entry = Some(e.from_port);
                        }
                        q.push_back((from, next_phase));
                    }
                }
            }
            // Connectivity check for this destination.
            if let Some(s) = (0..self.num_switches)
                .find(|&s| dist[s][0] == usize::MAX && dist[s][1] == usize::MAX)
            {
                return Err(TopologyError::Disconnected {
                    from: s,
                    to: a.switch,
                });
            }
        }
        Ok(tables)
    }

    /// XY routing as first written: every hop scans all edges.
    fn routes_xy_reference(
        &self,
        width: usize,
        height: usize,
    ) -> Result<SwitchTables, TopologyError> {
        if width * height != self.num_switches {
            return Err(TopologyError::AlgorithmMismatch {
                reason: format!(
                    "mesh {}x{} has {} switches, topology has {}",
                    width,
                    height,
                    width * height,
                    self.num_switches
                ),
            });
        }
        let num_nodes = self
            .attachments
            .iter()
            .map(|a| a.node as usize + 1)
            .max()
            .unwrap_or(0);
        // Map (from, to) switch pairs to output ports.
        let port_towards = |from: usize, to: usize| -> Option<u8> {
            self.edges
                .iter()
                .find(|e| e.from == from && e.to == to)
                .map(|e| e.from_port)
        };
        let mut tables = SwitchTables::unrouted(self.num_switches, num_nodes);
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

/// A row-major mesh with `endpoints` nodes placed round-robin over the
/// switches (node `i` on switch `i % switches`), as scenarios build it.
fn mesh_with(width: usize, height: usize, endpoints: usize) -> Topology {
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
    for node in 0..endpoints {
        b.attach(node as u16, node % (width * height)).unwrap();
    }
    b.build()
}

/// Computes routes both ways, requires equal tables or equal errors, and
/// hands back the result for shape-specific checks.
fn assert_matches_reference(t: &Topology, algo: RA) -> Result<SwitchTables, TopologyError> {
    let routes = t.compute_routes(algo);
    assert_eq!(routes, t.compute_routes_reference(algo), "{algo:?} on {t}");
    routes
}

#[test]
fn indexed_routes_equal_the_edge_scan_reference_on_meshes() {
    // 1×N, N×1, non-square, several endpoints per switch, and the
    // benchmark's 32×32 fabric with 16 endpoints in one corner.
    for (width, height, endpoints) in [
        (1, 7, 7),
        (7, 1, 7),
        (1, 1, 3),
        (5, 3, 15),
        (3, 5, 4),
        (4, 4, 40),
        (32, 32, 16),
    ] {
        let t = mesh_with(width, height, endpoints);
        for algo in [RA::XyMesh { width, height }, RA::ShortestPath, RA::UpDown] {
            assert_matches_reference(&t, algo).unwrap();
        }
    }
}

#[test]
fn indexed_routes_equal_the_reference_on_irregular_graphs() {
    for t in [
        Topology::ring(5),
        Topology::double_ring(6),
        Topology::tree(3, 3),
        Topology::crossbar(4),
    ] {
        for algo in [RA::ShortestPath, RA::UpDown] {
            // up*/down* cannot route the unidirectional ring; an equal
            // error is agreement too.
            let routed = assert_matches_reference(&t, algo).is_ok();
            assert!(routed || (algo == RA::UpDown && t.edges().len() == 5));
        }
    }
}

#[test]
fn first_declared_parallel_edge_wins() {
    // 2×1 mesh whose one switch pair is joined three times, plus a
    // sparse node numbering (table rows wider than the endpoint count).
    let mut b = TopologyBuilder::new(2);
    b.connect_bidir(0, 1);
    b.connect_bidir(0, 1);
    b.connect(0, 1);
    b.attach(0, 0).unwrap();
    b.attach(5, 1).unwrap();
    let t = b.build();
    for algo in [
        RA::XyMesh {
            width: 2,
            height: 1,
        },
        RA::ShortestPath,
        RA::UpDown,
    ] {
        let tables = assert_matches_reference(&t, algo).unwrap();
        assert_eq!(tables.port(0, 5), Some(t.edges()[0].from_port));
        assert_eq!(tables.port(1, 0), Some(t.edges()[1].from_port));
    }
}

#[test]
fn missing_mesh_link_reports_the_same_switch() {
    // A 3×3 "mesh" without the 4 ↔ 5 link: routing toward node 0, switch 5
    // is the first to need it.
    let mut b = TopologyBuilder::new(9);
    for y in 0..3 {
        for x in 0..3 {
            let s = y * 3 + x;
            if x + 1 < 3 && s != 4 {
                b.connect_bidir(s, s + 1);
            }
            if y + 1 < 3 {
                b.connect_bidir(s, s + 3);
            }
        }
    }
    for s in 0..9 {
        b.attach(s as u16, s).unwrap();
    }
    let t = b.build();
    let algo = RA::XyMesh {
        width: 3,
        height: 3,
    };
    assert_eq!(
        assert_matches_reference(&t, algo),
        Err(TopologyError::AlgorithmMismatch {
            reason: "missing mesh link at switch 5".into()
        })
    );
}

#[test]
fn mesh_size_mismatch_reports_the_same_reason() {
    let t = mesh_with(3, 2, 6);
    let algo = RA::XyMesh {
        width: 3,
        height: 3,
    };
    assert!(assert_matches_reference(&t, algo).is_err());
}

#[test]
fn disconnected_graph_reports_the_same_pair() {
    // Switch 2 can send to the others but nothing reaches it; switch 3
    // is an island. ShortestPath names the first unreachable pair,
    // UpDown fails already in the spanning tree.
    let mut b = TopologyBuilder::new(4);
    b.connect_bidir(0, 1);
    b.connect(2, 0);
    b.attach(0, 1).unwrap();
    b.attach(1, 2).unwrap();
    b.attach(2, 3).unwrap();
    let t = b.build();
    assert_eq!(
        assert_matches_reference(&t, RA::ShortestPath),
        Err(TopologyError::Disconnected { from: 3, to: 1 })
    );
    assert!(assert_matches_reference(&t, RA::UpDown).is_err());
}
