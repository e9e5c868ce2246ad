//! One direction of the NoC: switches plus physical links, wired from a
//! topology, with end-to-end credit flow control.
//!
//! # What moves, and what it costs
//!
//! A flit is a small record moved by value — through an NIU's egress
//! queue, a link, a switch input FIFO, an output stash, the ejection
//! buffer — and only a packet's *head* flit owns heap memory: the payload
//! buffer the sending NIU allocated, which the receiving NIU's assembler
//! hands back untouched (see [`noc_transport::Flit`]). Who allocates that
//! buffer and who frees it — the half of this note above transport — is
//! in [`noc_niu`]'s crate documentation.
//!
//! Inside the fabric every flit lives in one slab
//! ([`noc_transport::FlitSlab`]): an input FIFO, an output stash and a
//! link's in-flight queue are each a 12-byte list handle into it, and
//! freed slab nodes are reused. Each flit in a FIFO is stamped with the
//! cycle it arrives at, and the switch treats one stamped after the
//! cycle it ticks at as absent. A stash holds what a switch output sent
//! while its link could not take it: the serialiser of a multi-phit link
//! still busy, or a link at its in-flight capacity (a deep pipeline, or
//! an ejection link whose endpoint runs on a divided clock). The rest of
//! the fabric is a fixed number of flat arrays of plain records — one
//! [`SwitchState`] per switch, one [`InputPort`] / [`OutputPort`] record
//! and one stash handle per port (indexed by the port offsets in the
//! shared wiring), one [`LinkState`] per link — plus one [`SwitchStats`]
//! all switches add to and one pair of link latency totals, while what
//! never changes after building (link ends, one [`LinkConfig`] per link
//! class, routing rows) sits behind one `Arc` every copy shares. So:
//!
//! - **building** a fabric makes a fixed number of allocations, however
//!   many switches, ports and links it has;
//! - **cloning** one (the response network, every snapshot) is a
//!   `memcpy` of each array plus a clone of each flit it holds — bytes
//!   per port, not a container per port — and **dropping** one releases
//!   the same handful of arrays;
//! - the arrays that scale with the platform (`Records`) are kept for
//!   reuse when a fabric is dropped, a few sets per thread, and the next
//!   build or clone on that thread fills them in place: arrays of
//!   hundreds of kilobytes that went back to the allocator came back as
//!   freshly faulted pages, which cost more than copying them;
//! - storage grows with the flits held at once, not with the buffer
//!   depth or the port count;
//! - **stepping** allocates nothing per flit-hop: the slab recycles its
//!   nodes, flits in flight on the longer links and their credit returns
//!   are each filed once, by link index, into an arrival wheel
//!   ([`Arrivals`]) whose nodes are reused too, the sets of components
//!   that can act are two-level bitsets ([`ActiveSet`]), and every
//!   per-tick buffer and list is reused;
//! - **a hop on a one-cycle link** ([`LinkConfig::is_one_cycle`]: one
//!   phit, no pipeline stage, the base clock at both ends — the default
//!   link) costs no link queue and no wheel entry: the send applies the
//!   link's serialiser rule and pushes the flit straight into the
//!   destination input FIFO, stamped for the next cycle, or onto the list
//!   the next tick ejects; its credit comes back on a plain list applied
//!   when the releasing tick ends. Pipelined, multi-phit and clock-crossing
//!   links queue their flits and file them on the wheels. Both paths end
//!   in the same stamped FIFO push, so a switch sees one kind of input.
//!
//! A switch is ticked through [`SwitchMut`], a borrow of its record, its
//! slices of the port arrays, the slab and its routing row — the same
//! code a standalone [`noc_transport::Switch`] runs over arrays of its
//! own; links likewise run [`LinkState`]'s one copy of the link timing.
//!
//! # O(active) ticking
//!
//! The fabric tracks exactly which components can act on a given cycle,
//! so `tick` costs O(active) plus one summary-word step per 4 096
//! switches or ports (see [`ActiveSet`]), and the horizon queries O(1):
//!
//! - [`LinkState::send`] fixes a flit's arrival cycle when it accepts
//!   the flit — on a destination-clock edge, at least one destination
//!   period after the flit in flight before it — and the stamp never
//!   moves, so each send on a link that is not one-cycle files its link
//!   once into the `arrivals` wheel for that cycle, and a tick delivers
//!   exactly the flits filed for it, each with one [`LinkState::deliver`]
//!   that cannot come back empty: no link is re-filed, scanned or sorted,
//!   and the wheel's earliest cycle is the fabric's horizon. Credit
//!   returns on those links' return wires ride a second wheel the same
//!   way, filed for the cycle they reach the sender. A flit on a
//!   one-cycle link is already in its FIFO (or on the ejection list) and
//!   arrives next cycle, so it pins the horizon to that cycle like any
//!   buffered flit;
//! - switches holding flits (or streaming allocations) live in a `busy`
//!   set, entered on a wheel delivery, or when the tick that passed a
//!   flit to them on a one-cycle link ends, and left when a tick ends
//!   idle; only busy
//!   switches are ticked — ticking an idle switch is a no-op except for
//!   [`noc_transport::SwitchStats::lock_idle_cycles`], which idle
//!   switches pinned by locked sequences accrue in bulk via the
//!   `locked` set (one [`SwitchMut::skip_cycles`] per executed cycle,
//!   bit-identical to the dense tick's per-output increment);
//! - output ports whose stash holds flits live in a `stashing` set, so
//!   draining stashes visits only those, in port order.
//!
//! An [`ActiveSet`] iterates in ascending switch or port index order —
//! the dense loop's order restricted to the members that can act — so
//! the resulting logs and counters are bit-identical to dense ticking,
//! with no per-tick sort. Walking and clearing one visits only its
//! non-empty words, found through a summary bitmap. None of this reads
//! the port arrays of a switch that has no work.
//!
//! Two things about the arrival wheel are deliberate:
//!
//! - Flits due on one cycle are delivered in the order they were filed,
//!   not in link order as the dense scan visited them, and flits passed
//!   on one-cycle links land before them, in the order they were sent.
//!   Nothing can observe the difference: every link ends at its own
//!   switch input port or endpoint, so no two same-cycle deliveries touch
//!   the same record, and the counters they raise are sums.
//! - A flit found in the wheel *before* the cycle being ticked means a
//!   tick was skipped that its arrival should have forced — a horizon
//!   bug. Debug builds panic there, naming both cycles. The wheel hands
//!   out entries for drained cycles first, so a release build still
//!   delivers such a flit at the late tick, not 64 cycles later on the
//!   wheel's next turn (or stops at the delivery's `expect` if its link
//!   cannot deliver on that cycle).

use noc_kernel::{Arrivals, Queue};
use noc_physical::{LinkConfig, LinkState};
use noc_topology::{SwitchTables, Topology};
use noc_transport::{
    Flit, FlitSlab, InputPort, OutputPort, PortId, RoutingTable, SwitchConfig, SwitchMode,
    SwitchMut, SwitchState, SwitchStats, SwitchTick,
};
use std::cell::RefCell;
use std::sync::Arc;

/// Where a link terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkEnd {
    /// Port `port` of switch `switch`.
    Switch { switch: u32, port: u8 },
    /// The endpoint (NIU) of node `node`.
    Endpoint { node: u16 },
}

/// One link's wiring: its two ends.
#[derive(Debug, Clone, Copy)]
struct Wire {
    from: LinkEnd,
    to: LinkEnd,
}

/// Everything [`Fabric::new`] wires and nothing changes afterwards: link
/// ends and classes, port-to-link maps, routing rows. It sits behind one
/// `Arc`, so the second fabric of a SoC and every snapshot share it.
///
/// Per-port tables are flat: the ports of switch `s` occupy
/// `base[s]..base[s + 1]` of their array — and of the fabric's port
/// record arrays.
struct Wiring {
    /// Per link.
    wires: Vec<Wire>,
    /// Per link class, indexed by [`LinkState::class`]. Links of one
    /// class share it (every switch-to-switch link is one class, and the
    /// injection or ejection links of endpoints on one clock divisor
    /// another).
    classes: Vec<LinkClass>,
    /// Per switch: where its output ports start in `out_wire`, plus one
    /// entry past the last switch.
    out_base: Vec<usize>,
    /// Per switch output port: link index.
    out_wire: Vec<Option<u32>>,
    /// Per switch: where its input ports start in `in_wire`.
    in_base: Vec<usize>,
    /// Per switch input port: feeding link index.
    in_wire: Vec<Option<u32>>,
    /// Per node: its injection link, for attached nodes.
    inj_link: Vec<Option<u32>>,
    /// Per switch: its routing row, all cut from one shared matrix.
    routes: Vec<RoutingTable>,
    /// Every switch's switching discipline.
    mode: SwitchMode,
}

/// One link class: its configuration, and whether it is one-cycle
/// ([`LinkConfig::is_one_cycle`]), decided once at build — a flit sent on
/// such a link skips the arrival wheel (see [`Fabric::send_on_link`]).
struct LinkClass {
    config: LinkConfig,
    one_cycle: bool,
}

/// Credit-return latency in base cycles of a link of configuration
/// `cfg`: the wire plus one register per forward pipeline stage, in
/// source-clock cycles. A credit released by a downstream input at cycle
/// `t` becomes visible to the upstream sender at `t + latency` — never
/// within the releasing cycle — so credit visibility cannot depend on
/// switch iteration order. (The dense loop used to apply releases
/// immediately, letting a same-cycle consumer see them iff its index was
/// higher than the releaser's: an ordering bug.)
fn credit_latency(cfg: &LinkConfig) -> u64 {
    1 + cfg.pipeline as u64 * cfg.src_divisor
}

/// A set of small indices (switches, links, endpoints) as a two-level
/// bitset: one bit per index in the *member* words, and one *summary* bit
/// per member word, set exactly while that word is non-zero. Iteration is
/// in *ascending* index order — the order a dense scan over all
/// components visits them. What each operation costs, for a set of
/// capacity `n` holding `m` members:
///
/// - `insert`, `remove`, `contains`, `len` and `is_empty`: O(1);
/// - `next_from`: O(1) to finish the current word, plus one step per
///   summary word (4 096 indices) passed on the way to the next member;
/// - a whole walk (`iter`, or `next_from` stepped from member to member)
///   and `clear`: O(m + n / 4 096) — the words holding members, not every
///   word of the set.
///
/// Both levels are one `Vec`, so a clone is one allocation.
///
/// # Examples
///
/// ```
/// use noc_system::ActiveSet;
/// let mut set = ActiveSet::with_capacity(200);
/// set.insert(130);
/// set.insert(7);
/// set.insert(130); // already a member
/// assert_eq!(set.iter().collect::<Vec<_>>(), [7, 130]);
/// set.remove(7);
/// assert_eq!((set.len(), set.next_from(0)), (1, Some(130)));
/// assert!(set.contains(130) && !set.contains(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// The summary words, then the member words: bit `w % 64` of
    /// `bits[w / 64]` is set exactly when member word `w`,
    /// `bits[summary + w]`, is non-zero.
    bits: Vec<u64>,
    /// How many summary words lead `bits`.
    summary: usize,
    len: usize,
}

impl ActiveSet {
    /// An empty set over the indices `0..n`.
    pub fn with_capacity(n: usize) -> ActiveSet {
        let words = n.div_ceil(64);
        let summary = words.div_ceil(64);
        ActiveSet {
            bits: vec![0; summary + words],
            summary,
            len: 0,
        }
    }

    /// Adds `i` (a no-op for a member).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    pub fn insert(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let word = &mut self.bits[self.summary + w];
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
        self.bits[w / 64] |= 1 << (w % 64);
    }

    /// Removes `i` (a no-op for a non-member).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    pub fn remove(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let word = &mut self.bits[self.summary + w];
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
        let emptied = u64::from(*word == 0);
        self.bits[w / 64] &= !(emptied << (w % 64));
    }

    /// Returns `true` when `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    pub fn contains(&self, i: usize) -> bool {
        self.bits[self.summary + i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Removes every member, zeroing only the words the summary marks.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        let (summary, words) = self.bits.split_at_mut(self.summary);
        for (s, marks) in summary.iter_mut().enumerate() {
            let mut marked = std::mem::take(marks);
            while marked != 0 {
                words[s * 64 + marked.trailing_zeros() as usize] = 0;
                marked &= marked - 1;
            }
        }
        self.len = 0;
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The smallest member at or above `from`, if any. Stepping with
    /// `next_from(member + 1)` visits the set in ascending order and
    /// tolerates removing the member just visited — how the tick loops
    /// retire components as they go idle. O(1) on an empty set.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let (summary, words) = self.bits.split_at(self.summary);
        // The rest of `from`'s own word…
        let w = from / 64;
        let bits = *words.get(w)? & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        // …then the first non-empty word after it, found in the summary.
        let next = w + 1;
        let mut s = next / 64;
        let mut marked = *summary.get(s)? & (!0u64 << (next % 64));
        while marked == 0 {
            s += 1;
            marked = *summary.get(s)?;
        }
        let w = s * 64 + marked.trailing_zeros() as usize;
        Some(w * 64 + words[w].trailing_zeros() as usize)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&i| self.next_from(i + 1))
    }
}

/// Where each switch's ports start in a flat per-port array — the running
/// totals of the per-switch `counts`, from 0 — plus the grand total.
fn offsets(counts: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut next = 0;
    let running = counts.map(|count| {
        next += count;
        next
    });
    std::iter::once(0).chain(running).collect()
}

/// One packet network (request or response): switches, links and credit
/// bookkeeping, as a handful of flat arrays.
///
/// Endpoints are *not* owned by the fabric; the [`crate::Soc`] moves flits
/// between endpoints and the fabric's injection/ejection links each cycle.
#[derive(Clone)]
pub struct Fabric {
    wiring: Arc<Wiring>,
    /// Every flit the fabric holds: in an input FIFO, an output stash or
    /// in flight on a link.
    slab: FlitSlab,
    /// The switch, port, stash and link records.
    records: Records,
    /// What every switch's cycles add up to.
    stats: SwitchStats,
    /// The output ports whose stash holds flits.
    stashing: ActiveSet,
    /// Latencies of every flit sent on a link, and the link deliveries
    /// so far: what [`Fabric::mean_link_latency`] reports.
    link_latency: u64,
    link_deliveries: u64,
    /// Per node: current injection credits into its first switch.
    inj_credits: Vec<u32>,
    /// Every flit in flight on a link that is not one-cycle, filed by
    /// link index for the cycle it arrives: its stamp, which
    /// [`LinkState::send`] fixed.
    arrivals: Arrivals,
    /// Flits passed on one-cycle ejection links this cycle, with their
    /// nodes: the next tick ejects them, where the wheel's deliveries go.
    ejecting: Vec<(u16, Flit)>,
    /// Switches that are not busy and took a flit on a one-cycle link
    /// this cycle: they join the busy set when the tick ends. Empty
    /// between ticks.
    joining: Vec<u32>,
    /// The latest flits passed on one-cycle links, and the cycle they
    /// arrive at: link deliveries from that cycle on (see
    /// [`Fabric::mean_link_latency`]).
    landing: u64,
    landing_at: u64,
    /// Switches currently holding flits or allocations.
    busy: ActiveSet,
    /// Idle switches with ≥ 1 output pinned by a locked sequence (they
    /// accrue lock-idle statistics every cycle, executed or skipped).
    locked: ActiveSet,
    /// Flits queued on links that are not one-cycle (send minus
    /// deliver).
    in_flight: usize,
    delivered_flits: u64,
    /// In-flight credit returns on wires longer than one cycle, filed by
    /// the index of the link whose sender they credit for the cycle they
    /// reach it, and applied by [`Fabric::apply_due_credits`] at the top
    /// of each SoC step.
    /// Deliberately excluded from [`Fabric::is_idle`] and
    /// [`Fabric::next_event_at`]: a pending credit only raises a counter
    /// that nothing reads between steps, so applying it lazily at the
    /// next executed step is observation-equivalent to applying it at
    /// its due cycle (and any component that could consume it is itself
    /// keeping the system non-idle).
    credits: Arrivals,
    /// Credit returns on one-cycle return wires (links without pipeline
    /// stages), by link index: applied when the tick that released them
    /// ends, which nothing can tell from applying them at the top of the
    /// next step — no credit counter is read in between. Empty between
    /// ticks.
    returning: Vec<u32>,
    /// Tick-loop scratch (the links a wheel drained, the per-switch tick
    /// result), reused so the hot path allocates nothing.
    due: Vec<u32>,
    tick_scratch: SwitchTick,
}

impl Fabric {
    /// Builds the fabric over `topology` with the given switch mode,
    /// buffer depth, per-class link configurations and the routing
    /// `tables` computed for that topology. `link_cfg` shapes the
    /// switch-to-switch links, `endpoint_link_cfg` the
    /// injection/ejection links — the two physical link classes of the
    /// fabric.
    ///
    /// Endpoint clock divisors (`node → divisor`) shape the injection and
    /// ejection links' CDC behaviour; switches run on the base clock.
    ///
    /// What never changes after construction — the routing rows of all
    /// switches ([`RoutingTable::rows`]), the wiring, one [`LinkConfig`]
    /// per distinct link class — sits behind shared storage, so cloning
    /// the fabric (the second network of a SoC, every snapshot) copies
    /// none of it; what does change is a fixed number of flat arrays of
    /// plain records, plus one slab holding the flits.
    ///
    /// # Panics
    ///
    /// Panics if `tables` does not cover every switch of `topology`, and
    /// on a switch [`SwitchConfig::append_ports`] refuses.
    pub fn new(
        topology: &Topology,
        mode: SwitchMode,
        buffer_depth: usize,
        link_cfg: LinkConfig,
        endpoint_link_cfg: LinkConfig,
        tables: &SwitchTables,
        clock_of: &dyn Fn(u16) -> u64,
    ) -> Fabric {
        let num_switches = topology.num_switches();
        assert_eq!(
            tables.num_switches(),
            num_switches,
            "routing tables computed for another topology"
        );
        let num_nodes = topology.num_nodes();
        let ports = topology.ports();
        let matrix = tables
            .matrix()
            .iter()
            .map(|port| port.map(PortId))
            .collect();
        let out_base = offsets(ports.iter().map(|p| p.outputs as usize));
        let in_base = offsets(ports.iter().map(|p| p.inputs as usize));
        let mut records = Records::spare();
        let Records {
            switches,
            inputs,
            outputs,
            stashes,
            links,
        } = &mut records;
        inputs.clear();
        outputs.clear();
        for p in ports {
            let cfg = SwitchConfig {
                inputs: p.inputs as usize,
                outputs: p.outputs as usize,
                mode,
                buffer_depth,
            };
            cfg.append_ports(inputs, outputs);
        }
        let num_links = topology.edges().len() + 2 * topology.attachments().len();
        links.clear();
        links.reserve(num_links);
        let mut wiring = Wiring {
            wires: Vec::with_capacity(num_links),
            classes: Vec::new(),
            out_wire: vec![None; out_base[num_switches]],
            in_wire: vec![None; in_base[num_switches]],
            out_base,
            in_base,
            inj_link: vec![None; num_nodes],
            routes: RoutingTable::rows(matrix, num_nodes).collect(),
            mode,
        };
        // Adds a link of configuration `cfg`.
        let mut add_link = |wiring: &mut Wiring, cfg: LinkConfig, from: LinkEnd, to: LinkEnd| {
            let idx = u32::try_from(wiring.wires.len()).expect("link count fits in u32");
            let class = wiring
                .classes
                .iter()
                .position(|c| c.config == cfg)
                .unwrap_or_else(|| {
                    wiring.classes.push(LinkClass {
                        config: cfg,
                        one_cycle: cfg.is_one_cycle(),
                    });
                    wiring.classes.len() - 1
                });
            wiring.wires.push(Wire { from, to });
            links.push(LinkState::new(
                u32::try_from(class).expect("link classes fit in u32"),
            ));
            idx
        };
        // Inter-switch links (base clock on both ends).
        for e in topology.edges() {
            let (from_port, to_port) = (e.from_port as usize, e.to_port as usize);
            let idx = add_link(
                &mut wiring,
                link_cfg,
                LinkEnd::Switch {
                    switch: e.from as u32,
                    port: e.from_port,
                },
                LinkEnd::Switch {
                    switch: e.to as u32,
                    port: e.to_port,
                },
            );
            let out = wiring.out_base[e.from] + from_port;
            wiring.out_wire[out] = Some(idx);
            wiring.in_wire[wiring.in_base[e.to] + to_port] = Some(idx);
            outputs[out].set_credits(buffer_depth as u32);
        }
        // Endpoint attachments: injection (endpoint → switch) and
        // ejection (switch → endpoint) links, with CDC per endpoint clock.
        let mut inj_credits = vec![0; num_nodes];
        for a in topology.attachments() {
            let div = clock_of(a.node);
            let (in_port, out_port) = (a.in_port as usize, a.out_port as usize);
            let inj_idx = add_link(
                &mut wiring,
                LinkConfig {
                    src_divisor: div,
                    dst_divisor: 1,
                    ..endpoint_link_cfg
                },
                LinkEnd::Endpoint { node: a.node },
                LinkEnd::Switch {
                    switch: a.switch as u32,
                    port: a.in_port,
                },
            );
            wiring.in_wire[wiring.in_base[a.switch] + in_port] = Some(inj_idx);
            wiring.inj_link[a.node as usize] = Some(inj_idx);
            inj_credits[a.node as usize] = buffer_depth as u32;
            let ej_idx = add_link(
                &mut wiring,
                LinkConfig {
                    src_divisor: 1,
                    dst_divisor: div,
                    ..endpoint_link_cfg
                },
                LinkEnd::Switch {
                    switch: a.switch as u32,
                    port: a.out_port,
                },
                LinkEnd::Endpoint { node: a.node },
            );
            let out = wiring.out_base[a.switch] + out_port;
            wiring.out_wire[out] = Some(ej_idx);
            // Endpoint ingress is unbounded (NIUs bound it by outstanding
            // transactions); give ejection ports ample credit.
            outputs[out].set_credits(u32::MAX / 2);
        }
        switches.clear();
        switches.resize(num_switches, SwitchState::default());
        stashes.clear();
        stashes.resize(outputs.len(), Queue::default());
        let stashing = ActiveSet::with_capacity(outputs.len());
        Fabric {
            slab: FlitSlab::new(),
            records,
            stats: SwitchStats::default(),
            stashing,
            link_latency: 0,
            link_deliveries: 0,
            wiring: Arc::new(wiring),
            inj_credits,
            arrivals: Arrivals::new(),
            ejecting: Vec::new(),
            joining: Vec::new(),
            landing: 0,
            landing_at: 0,
            busy: ActiveSet::with_capacity(num_switches),
            locked: ActiveSet::with_capacity(num_switches),
            in_flight: 0,
            delivered_flits: 0,
            credits: Arrivals::new(),
            returning: Vec::new(),
            due: Vec::new(),
            tick_scratch: SwitchTick::default(),
        }
    }

    /// Switch `s`, borrowed out of the fabric's arrays.
    #[inline(always)]
    fn switch_mut(&mut self, s: usize) -> SwitchMut<'_> {
        let wiring = &*self.wiring;
        SwitchMut {
            state: &mut self.records.switches[s],
            stats: &mut self.stats,
            inputs: &mut self.records.inputs[wiring.in_base[s]..wiring.in_base[s + 1]],
            outputs: &mut self.records.outputs[wiring.out_base[s]..wiring.out_base[s + 1]],
            slab: &mut self.slab,
            table: &wiring.routes[s],
            mode: wiring.mode,
        }
    }

    /// Link `li`'s record, its class's configuration and the slab its
    /// flits are in.
    #[inline]
    fn link_mut(&mut self, li: usize) -> (&mut LinkState, &LinkConfig, &mut FlitSlab) {
        let link = &mut self.records.links[li];
        let cfg = &self.wiring.classes[link.class() as usize].config;
        (link, cfg, &mut self.slab)
    }

    /// Link `li`'s class configuration.
    #[inline]
    fn link_config(&self, li: usize) -> &LinkConfig {
        &self.wiring.classes[self.records.links[li].class() as usize].config
    }

    /// Returns `true` if link `li` can take a flit at cycle `now`.
    #[inline]
    fn can_send(&self, li: usize, now: u64) -> bool {
        self.records.links[li].can_send(self.link_config(li), now)
    }

    /// Sends `flit` on link `li`. Every send in the fabric funnels
    /// through here. On a one-cycle link the flit skips the link's queue
    /// and the wheel: it goes straight into the destination switch's
    /// input FIFO, stamped with its arrival, or onto the list of flits
    /// the next tick ejects; every other flit is queued on its link and
    /// its arrival filed.
    #[inline]
    fn send_on_link(&mut self, li: usize, flit: Flit, now: u64) {
        let link = &mut self.records.links[li];
        let class = &self.wiring.classes[link.class() as usize];
        if !class.one_cycle {
            let latency = link
                .send(&class.config, &mut self.slab, flit, now)
                .expect("can_send checked");
            self.in_flight += 1;
            self.link_latency += latency;
            self.arrivals.file(now + latency, li as u32);
            return;
        }
        let at = link.pass(&class.config, now);
        self.link_latency += 1;
        if self.landing_at != at {
            // Every flit passed before arrived by `now`.
            self.link_deliveries += std::mem::take(&mut self.landing);
            self.landing_at = at;
        }
        self.landing += 1;
        match self.wiring.wires[li].to {
            LinkEnd::Switch { switch, port } => {
                let switch = switch as usize;
                let ok = self.switch_mut(switch).accept(port.into(), flit, at);
                assert!(ok, "credit flow control must prevent overflow");
                if !self.busy.contains(switch) {
                    self.joining.push(switch as u32);
                }
            }
            LinkEnd::Endpoint { node } => self.ejecting.push((node, flit)),
        }
    }

    /// Marks a switch as holding work; it leaves the busy set when a
    /// tick ends with it idle.
    #[inline]
    fn mark_busy(&mut self, s: usize) {
        self.busy.insert(s);
        self.locked.remove(s);
    }

    /// Returns `true` when `node` can inject a flit this base cycle.
    pub fn can_inject(&self, node: u16, now: u64) -> bool {
        match self.wiring.inj_link.get(node as usize) {
            Some(&Some(link)) => {
                self.inj_credits[node as usize] > 0 && self.can_send(link as usize, now)
            }
            _ => false,
        }
    }

    /// Injects a flit from `node`.
    ///
    /// # Panics
    ///
    /// Panics if [`Fabric::can_inject`] is false (caller must check).
    pub fn inject(&mut self, node: u16, flit: Flit, now: u64) {
        let link = self.wiring.inj_link[node as usize].expect("node attached to fabric") as usize;
        let credits = &mut self.inj_credits[node as usize];
        assert!(*credits > 0, "injection without credit");
        *credits -= 1;
        self.send_on_link(link, flit, now);
    }

    /// Advances the fabric one base cycle. Ejected flits are appended to
    /// `ejected` as `(node, flit)` pairs for the SoC to deliver to
    /// endpoints (the caller owns — and reuses — the buffer).
    pub fn tick(&mut self, now: u64, ejected: &mut Vec<(u16, Flit)>) {
        // 1. Arrivals. Flits passed on one-cycle links last cycle land:
        // those bound for a switch already sit in its FIFO, and those
        // bound for an endpoint are ejected now. Then link deliveries
        // into switches / endpoints: exactly the flits filed for this
        // cycle, each its link's front flit, in filing order (see the
        // module docs for why that order is unobservable).
        if !self.ejecting.is_empty() {
            self.delivered_flits += self.ejecting.len() as u64;
            ejected.append(&mut self.ejecting);
        }
        debug_assert!(
            self.arrivals.peek().is_none_or(|at| at >= now),
            "a flit arrived at cycle {:?}, but the fabric was not ticked until {now}",
            self.arrivals.peek()
        );
        let mut due = std::mem::take(&mut self.due);
        self.arrivals.drain_due(now, &mut due);
        for li in due.drain(..) {
            let li = li as usize;
            let (link, cfg, slab) = self.link_mut(li);
            let flit = link
                .deliver(cfg, slab, now)
                .expect("a filed arrival is its link's front flit, due now");
            self.in_flight -= 1;
            self.link_deliveries += 1;
            match self.wiring.wires[li].to {
                LinkEnd::Switch { switch, port } => {
                    let switch = switch as usize;
                    let ok = self.switch_mut(switch).accept(port.into(), flit, now);
                    assert!(ok, "credit flow control must prevent overflow");
                    self.mark_busy(switch);
                }
                LinkEnd::Endpoint { node } => {
                    self.delivered_flits += 1;
                    ejected.push((node, flit));
                }
            }
        }
        self.due = due;
        // 1b. Idle switches pinned by locked sequences accrue their
        // lock-idle statistic for this executed cycle in bulk — exactly
        // what a dense tick's empty allocation pass would have counted.
        // (Switches that just turned busy in step 1 left the set and
        // will count it themselves in step 3. One that an endpoint
        // injected into this cycle still counts here: its flit arrives
        // next cycle.)
        let mut next = self.locked.next_from(0);
        while let Some(s) = next {
            next = self.locked.next_from(s + 1);
            self.switch_mut(s).skip_cycles(now, 1);
        }
        // 2. Drain output stashes into links, in ascending port order —
        // the order of a scan over every switch's every output.
        let mut next = self.stashing.next_from(0);
        while let Some(slot) = next {
            next = self.stashing.next_from(slot + 1);
            let li = self.wiring.out_wire[slot].expect("a stash feeds a link") as usize;
            if self.can_send(li, now) {
                let stash = &mut self.records.stashes[slot];
                let (_, flit) = self.slab.pop(stash).expect("a stashing port holds flits");
                if stash.is_empty() {
                    self.stashing.remove(slot);
                }
                self.send_on_link(li, flit, now);
            }
        }
        // 3. Switch cycles (busy switches only; an idle switch's tick
        // moves nothing and releases nothing). A switch a flit reaches
        // here joins the busy set only when the tick ends, so the set
        // gains no member while it is walked.
        let mut tick = std::mem::take(&mut self.tick_scratch);
        let mut next = self.busy.next_from(0);
        while let Some(s) = next {
            next = self.busy.next_from(s + 1);
            self.switch_mut(s).tick_into(now, &mut tick);
            for (port, flit) in tick.sent.drain(..) {
                let slot = self.wiring.out_base[s] + port.index();
                let Some(li) = self.wiring.out_wire[slot] else {
                    continue; // unreachable: every routed port is wired
                };
                let li = li as usize;
                if self.records.stashes[slot].is_empty() && self.can_send(li, now) {
                    self.send_on_link(li, flit, now);
                } else {
                    self.slab.push(&mut self.records.stashes[slot], 0, flit);
                    self.stashing.insert(slot);
                }
            }
            // 4. Credit returns to upstream, registered onto the return
            // wire: visible to the sender `credit_latency` cycles from
            // now, never within this cycle.
            for input in tick.credits_released.drain(..) {
                let li = self.wiring.in_wire[self.wiring.in_base[s] + input]
                    .expect("every switch input is wired");
                let latency = credit_latency(self.link_config(li as usize));
                if latency == 1 {
                    self.returning.push(li);
                } else {
                    self.credits.file(now + latency, li);
                }
            }
            let switch = &self.records.switches[s];
            if switch.is_idle() {
                self.busy.remove(s);
                if switch.has_locked_output() {
                    self.locked.insert(s);
                }
            }
        }
        self.tick_scratch = tick;
        // 5. The tick ends: one-cycle credit returns reach their senders,
        // and switches that took a flit on a one-cycle link join the busy
        // set — which nothing reads before the next tick, whose step 1
        // would have added them.
        for i in 0..self.returning.len() {
            self.return_credit(self.returning[i]);
        }
        self.returning.clear();
        for i in 0..self.joining.len() {
            self.mark_busy(self.joining[i] as usize);
        }
        self.joining.clear();
    }

    /// Returns one credit to the sender of link `li`.
    #[inline]
    fn return_credit(&mut self, li: u32) {
        let wiring = &*self.wiring;
        match wiring.wires[li as usize].from {
            LinkEnd::Switch { switch, port } => {
                self.records.outputs[wiring.out_base[switch as usize] + usize::from(port)]
                    .add_credit();
            }
            LinkEnd::Endpoint { node } => self.inj_credits[node as usize] += 1,
        }
    }

    /// Applies every credit return whose due cycle has been reached.
    /// Called at the top of each SoC step, before endpoints consult
    /// injection credits and before the fabric tick, so a credit due at
    /// cycle `d` is visible to everything that executes at `d` — and to
    /// nothing earlier.
    pub(crate) fn apply_due_credits(&mut self, now: u64) {
        self.credits.drain_due(now, &mut self.due);
        for i in 0..self.due.len() {
            self.return_credit(self.due[i]);
        }
        self.due.clear();
    }

    /// Returns `true` when no flit is buffered or in flight. In-flight
    /// credit returns deliberately don't count (see the
    /// `credits` field).
    pub fn is_idle(&self) -> bool {
        self.busy.is_empty()
            && self.stashing.is_empty()
            && self.in_flight == 0
            && self.ejecting.is_empty()
    }

    /// The fabric's event horizon: the earliest base cycle at or after
    /// `now` at which ticking it can change state, or `None` when every
    /// switch, stash and link is empty.
    ///
    /// Buffered flits demand dense ticking (switches arbitrate, stall
    /// and count every cycle) and pin the answer to `now`, and so do
    /// flits passed on one-cycle links, which arrive at `now`; a fabric
    /// whose only traffic is *in flight on longer links* — deep in a
    /// pipelined crossing, or waiting out a CDC synchroniser — reports
    /// the earliest filed arrival instead, in O(1). Idle switches with
    /// pinned locks constrain nothing here; their per-cycle lock-idle
    /// statistics are bulk-accounted by [`Fabric::skip_cycles`] and
    /// [`Fabric::tick`].
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if !self.busy.is_empty() || !self.stashing.is_empty() || !self.ejecting.is_empty() {
            return Some(now);
        }
        self.arrivals.peek().map(|at| at.max(now))
    }

    /// Accounts the `cycles` skipped fabric ticks from base cycle `now`:
    /// forwards the bulk lock-idle accounting to every idle switch still
    /// pinned by a locked sequence (see [`SwitchMut::skip_cycles`]).
    /// Links and stashes need nothing — their state is timestamped, not
    /// counted per cycle — and unpinned idle switches have nothing to
    /// count.
    ///
    /// Callers must only skip cycles [`Fabric::next_event_at`] proved
    /// dead.
    pub fn skip_cycles(&mut self, now: u64, cycles: u64) {
        debug_assert!(self.busy.is_empty(), "skipping a fabric holding flits");
        let mut next = self.locked.next_from(0);
        while let Some(s) = next {
            next = self.locked.next_from(s + 1);
            self.switch_mut(s).skip_cycles(now, cycles);
        }
    }

    /// Flit-wheel entries retired — the fabric's share of the
    /// `calendar_pops` observability counter: one per delivery of a flit
    /// queued on a link that is not one-cycle. A flit passed on a
    /// one-cycle link files no wheel entry, so it retires none.
    pub fn calendar_pops(&self) -> u64 {
        self.arrivals.pops()
    }

    /// Aggregate switch statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Total flits delivered to endpoints.
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.records.switches.len()
    }

    /// Mean link latency in base cycles: the latencies of the flits sent
    /// on the fabric's links over their deliveries before base cycle
    /// `now` (0 before the first delivery). On a drained fabric every
    /// flit sent was delivered. Flits passed on one-cycle links count on
    /// the cycle they arrive, as a queued flit's delivery does — the tick
    /// of that cycle always runs, since they pin
    /// [`Fabric::next_event_at`] to it — so a run cut short with flits in
    /// flight reads the same either way.
    pub fn mean_link_latency(&self, now: u64) -> f64 {
        let landed = if self.landing_at < now {
            self.landing
        } else {
            0
        };
        let deliveries = self.link_deliveries + landed;
        if deliveries == 0 {
            0.0
        } else {
            self.link_latency as f64 / deliveries as f64
        }
    }
}

/// A fabric's switch, port, stash and link records: the arrays whose
/// size scales with the platform. Cloning a set fills a spare one, and
/// dropping one keeps it as a spare, on the same thread, for the next
/// build or clone there.
///
/// On a large platform each array is tens to hundreds of kilobytes, and
/// glibc hands memory that large back to the kernel when it is freed (a
/// mapping of its own, or a trim of the heap top). Building a platform
/// again then faults every page back in: ≈ 250 minor faults per build of
/// the 32x32 corpus mesh and ≈ 210 per snapshot, measured on a 2-core
/// VM — more time than the copies. Filling a spare set with `clone_from`
/// or `resize` reuses pages that are already mapped. A thread keeps at
/// most [`Records::SPARES`] sets and [`Records::SPARE_BYTES`] in all, so
/// what a run of small platforms after a large one holds on to is
/// bounded.
#[derive(Default)]
struct Records {
    /// Per switch: its own record (active port sets, lock counts).
    switches: Vec<SwitchState>,
    /// Per switch input port, flat like `Wiring::in_wire`.
    inputs: Vec<InputPort>,
    /// Per switch output port, flat like `Wiring::out_wire`.
    outputs: Vec<OutputPort>,
    /// Per switch output port, flat like `outputs`: its output-register
    /// stash, which holds the flits the switch sent while the port's link
    /// could not take them (its serialiser busy, or its in-flight
    /// capacity reached).
    stashes: Vec<Queue>,
    /// Per link: its state record.
    links: Vec<LinkState>,
}

thread_local! {
    static SPARES: RefCell<Vec<Records>> = const { RefCell::new(Vec::new()) };
}

impl Records {
    /// Sets kept per thread: a simulation, a checkpoint and a fork of it
    /// hold two fabrics each.
    const SPARES: usize = 8;
    /// Bytes kept per thread across all sets.
    const SPARE_BYTES: usize = 16 << 20;

    /// A kept set (contents stale), or empty arrays.
    fn spare() -> Records {
        SPARES
            .try_with(|spares| spares.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    fn bytes(&self) -> usize {
        fn of<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        of(&self.switches)
            + of(&self.inputs)
            + of(&self.outputs)
            + of(&self.stashes)
            + of(&self.links)
    }
}

impl Clone for Records {
    fn clone(&self) -> Self {
        let mut copy = Records::spare();
        copy.switches.clone_from(&self.switches);
        copy.inputs.clone_from(&self.inputs);
        copy.outputs.clone_from(&self.outputs);
        copy.stashes.clone_from(&self.stashes);
        copy.links.clone_from(&self.links);
        copy
    }
}

impl Drop for Records {
    /// Keeps the arrays as a spare set if the thread has room; frees them
    /// otherwise (and during thread teardown, when the spares are gone).
    fn drop(&mut self) {
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let kept: usize = spares.iter().map(Records::bytes).sum();
            if spares.len() < Records::SPARES && kept + self.bytes() <= Records::SPARE_BYTES {
                spares.push(Records {
                    switches: std::mem::take(&mut self.switches),
                    inputs: std::mem::take(&mut self.inputs),
                    outputs: std::mem::take(&mut self.outputs),
                    stashes: std::mem::take(&mut self.stashes),
                    links: std::mem::take(&mut self.links),
                });
            }
        });
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.records.switches.len())
            .field("links", &self.records.links.len())
            .field("idle", &self.is_idle())
            .finish()
    }
}
