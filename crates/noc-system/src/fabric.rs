//! One direction of the NoC: switches plus physical links, wired from a
//! topology, with end-to-end credit flow control.
//!
//! # What moves, and what it costs
//!
//! A flit is a small record moved by value — through an NIU's egress
//! queue, a [`Link`], a switch input FIFO, an output stash, the ejection
//! buffer — and only a packet's *head* flit owns heap memory: the payload
//! buffer the sending NIU allocated, which the receiving NIU's assembler
//! hands back untouched (see [`noc_transport::Flit`]). The fabric itself
//! allocates nothing per flit-hop: credit returns wait in a fixed ring of
//! reusable slots ([`CreditRing`]), the sets of components that can act
//! are bitsets ([`ActiveSet`]), and every per-tick buffer is reused.
//! Who allocates that buffer and who frees it — the half of this note
//! above transport — is in [`noc_niu`]'s crate documentation.
//!
//! # O(active) ticking
//!
//! The fabric tracks exactly which components can act on a given cycle,
//! so both `tick` and the horizon queries cost O(active), not
//! O(components):
//!
//! - every link schedules its next arrival cycle into a
//!   [`Calendar`] (re-registered after every `send`/`deliver`, the only
//!   operations that move a link's horizon), so delivery scans touch
//!   only the links that are due *this* cycle;
//! - switches holding flits (or streaming allocations) live in a `busy`
//!   set, entered on `accept` and left when a tick ends idle; only busy
//!   switches are ticked — ticking an idle switch is a no-op except for
//!   [`noc_transport::SwitchStats::lock_idle_cycles`], which idle
//!   switches pinned by locked sequences accrue in bulk via the
//!   `locked` set (one [`Switch::skip_cycles`] per executed cycle,
//!   bit-identical to the dense tick's per-output increment);
//! - stashes with flits live in a `stashed` set.
//!
//! An [`ActiveSet`] iterates in ascending switch/link index order — the
//! dense loop's order restricted to the members that can act — so the
//! resulting logs and counters are bit-identical to dense ticking, with
//! no per-tick sort.

use noc_kernel::{Calendar, Horizon, WakeId};
use noc_physical::{Link, LinkConfig};
use noc_topology::{SwitchTables, Topology};
use noc_transport::{Flit, PortId, RoutingTable, Switch, SwitchConfig, SwitchMode};
use std::collections::VecDeque;
use std::sync::Arc;

/// Where a link terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// A switch input/output port.
    Switch {
        /// Switch index.
        switch: usize,
        /// Port index on that switch.
        port: usize,
    },
    /// An endpoint (NIU), identified by its node number.
    Endpoint {
        /// Node number.
        node: u16,
    },
}

/// Everything [`Fabric::new`] wires and nothing changes afterwards: link
/// ends, port-to-link maps, credit-return latencies. It sits behind one
/// `Arc`, so the second fabric of a SoC and every snapshot share it.
///
/// Per-port tables are flat: the ports of switch `s` occupy
/// `base[s]..base[s + 1]` of their array.
struct Wiring {
    /// Per link: where it starts and where it ends.
    ends: Vec<(LinkEnd, LinkEnd)>,
    /// Per link: its handle in the wakeup calendar.
    link_wake: Vec<WakeId>,
    /// Per link: credit-return latency in base cycles (the wire plus one
    /// register per forward pipeline stage). A credit released by a
    /// downstream input at cycle `t` becomes visible to the upstream
    /// sender at `t + credit_lat` — never within the releasing cycle —
    /// so credit visibility cannot depend on switch iteration order.
    /// (The dense loop used to apply releases immediately, letting a
    /// same-cycle consumer see them iff its index was higher than the
    /// releaser's: an ordering bug.)
    credit_lat: Vec<u64>,
    /// Per switch: where its output ports start in `out_wire` (and in the
    /// fabric's stash array), plus one entry past the last switch.
    out_base: Vec<usize>,
    /// Per switch output port: link index.
    out_wire: Vec<Option<usize>>,
    /// Per switch: where its input ports start in `in_wire`.
    in_base: Vec<usize>,
    /// Per switch input port: feeding link index.
    in_wire: Vec<Option<usize>>,
    /// Per node: its injection link, for attached nodes.
    inj_link: Vec<Option<usize>>,
}

/// A set of small indices (switches, links, endpoints) as a bitset: O(1)
/// insert, remove and emptiness, and iteration in *ascending* index
/// order — the order a dense scan over all components visits them — at
/// one `trailing_zeros` per member.
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
    words: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// An empty set over the indices `0..n`.
    pub fn with_capacity(n: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `i` (a no-op for a member).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    pub fn insert(&mut self, i: usize) {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Removes `i` (a no-op for a non-member).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    pub fn remove(&mut self, i: usize) {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// Returns `true` when `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the capacity.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
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
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&i| self.next_from(i + 1))
    }
}

/// In-flight credit returns: a ring of reusable slots, one per due cycle.
///
/// A credit released at cycle `t` over a return wire of latency `lat`
/// (`1..=max_latency`) is pushed for cycle `t + lat`, and
/// [`CreditRing::drain_due`] hands out every credit whose cycle has been
/// reached. All pending due cycles lie in a window of `max_latency`
/// cycles past the last drain, so `max_latency + 1` slots indexed by
/// `due % len` never alias, and a slot's `Vec` keeps its capacity from
/// one lap to the next: no map, no allocation per cycle.
///
/// # Examples
///
/// ```
/// use noc_system::CreditRing;
/// let mut ring = CreditRing::new(3);
/// ring.drain_due(10, |_| unreachable!("nothing pending"));
/// ring.push(11, 4); // released at 10, one-cycle wire
/// ring.push(13, 9); // released at 10, three-cycle wire
/// let mut due = Vec::new();
/// ring.drain_due(12, |link| due.push(link));
/// assert_eq!(due, [4]);
/// ring.drain_due(5_000, |link| due.push(link)); // a long horizon skip
/// assert_eq!(due, [4, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct CreditRing {
    slots: Vec<Vec<u32>>,
    /// The first cycle not drained yet.
    next: u64,
}

impl CreditRing {
    /// A ring for return wires of at most `max_latency` cycles.
    pub fn new(max_latency: u64) -> CreditRing {
        let slots = usize::try_from(max_latency + 1).expect("credit latency fits in memory");
        CreditRing {
            slots: vec![Vec::new(); slots],
            next: 0,
        }
    }

    /// Registers `id`'s credit to become visible at cycle `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is not within `max_latency` cycles after the last
    /// drained cycle — an earlier cycle would never be handed out, a
    /// later one would alias a slot and be handed out early.
    pub fn push(&mut self, due: u64, id: u32) {
        let len = self.slots.len() as u64;
        assert!(
            due >= self.next && due - self.next < len,
            "credit due at {due} outside the ring's window {}..{}",
            self.next,
            self.next + len
        );
        self.slots[(due % len) as usize].push(id);
    }

    /// Hands every credit due at or before `now` to `apply` and empties
    /// their slots. Draining walks the cycles since the last drain, at
    /// most one lap: after a skip longer than the ring every slot is due.
    pub fn drain_due(&mut self, now: u64, mut apply: impl FnMut(u32)) {
        if now < self.next {
            return;
        }
        let len = self.slots.len() as u64;
        for cycle in self.next..self.next + (now - self.next + 1).min(len) {
            self.slots[(cycle % len) as usize]
                .drain(..)
                .for_each(&mut apply);
        }
        self.next = now + 1;
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
/// bookkeeping.
///
/// Endpoints are *not* owned by the fabric; the [`crate::Soc`] moves flits
/// between endpoints and the fabric's injection/ejection links each cycle.
#[derive(Clone)]
pub struct Fabric {
    wiring: Arc<Wiring>,
    switches: Vec<Switch>,
    links: Vec<Link<Flit>>,
    /// Per node: current injection credits into its first switch.
    inj_credits: Vec<u32>,
    /// Output-register stash per (switch, out port), flat like
    /// `Wiring::out_wire`: absorbs flits while a serialising link is busy.
    stash: Vec<VecDeque<Flit>>,
    /// Wakeup calendar over links.
    link_cal: Calendar,
    /// Switches currently holding flits or allocations.
    busy: ActiveSet,
    /// Idle switches with ≥ 1 output pinned by a locked sequence (they
    /// accrue lock-idle statistics every cycle, executed or skipped).
    locked: ActiveSet,
    /// Switches with ≥ 1 stashed flit, plus per-switch flit counts.
    stashed: ActiveSet,
    stash_flits: Vec<usize>,
    total_stashed: usize,
    /// Flits in flight on links (send minus deliver).
    in_flight: usize,
    delivered_flits: u64,
    /// In-flight credit returns: due cycle → link indices, applied
    /// by [`Fabric::apply_due_credits`] at the top of each SoC step.
    /// Deliberately excluded from [`Fabric::is_idle`] and
    /// [`Fabric::next_event_at`]: a pending credit only raises a counter
    /// that nothing reads between steps, so applying it lazily at the
    /// next executed step is observation-equivalent to applying it at
    /// its due cycle (and any component that could consume it is itself
    /// keeping the system non-idle).
    pending_credits: CreditRing,
    /// Tick-loop scratch (the links due this cycle, the per-switch tick
    /// result), reused so the hot path allocates nothing.
    due_links: ActiveSet,
    tick_scratch: noc_transport::SwitchTick,
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
    /// switches ([`RoutingTable::rows`]), the wiring, the credit-return
    /// latencies — sits behind shared storage, so cloning the fabric (the
    /// second network of a SoC, every snapshot) copies none of it; what
    /// does change is two arrays per switch and a handful per fabric.
    ///
    /// # Panics
    ///
    /// Panics if `tables` does not cover every switch of `topology`.
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
        let matrix = (0..num_switches)
            .flat_map(|s| tables.switch_table(s).iter().map(|port| port.map(PortId)))
            .collect();
        let mut switches: Vec<Switch> = RoutingTable::rows(matrix, num_nodes)
            .zip(ports)
            .map(|(table, ports)| {
                let cfg = SwitchConfig {
                    inputs: ports.inputs as usize,
                    outputs: ports.outputs as usize,
                    mode,
                    buffer_depth,
                };
                Switch::new(cfg, table)
            })
            .collect();
        let out_base = offsets(ports.iter().map(|p| p.outputs as usize));
        let in_base = offsets(ports.iter().map(|p| p.inputs as usize));
        let num_links = topology.edges().len() + 2 * topology.attachments().len();
        let mut wiring = Wiring {
            ends: Vec::with_capacity(num_links),
            link_wake: Vec::with_capacity(num_links),
            credit_lat: Vec::with_capacity(num_links),
            out_wire: vec![None; out_base[num_switches]],
            in_wire: vec![None; in_base[num_switches]],
            out_base,
            in_base,
            inj_link: vec![None; num_nodes],
        };
        let mut links = Vec::with_capacity(num_links);
        let mut link_cal = Calendar::new();
        // Adds a link and registers it with the wakeup calendar.
        let mut add_link = |wiring: &mut Wiring, cfg: LinkConfig, src: LinkEnd, dst: LinkEnd| {
            let idx = links.len();
            // The credit-return wire is registered like the forward path:
            // one base cycle of wire plus one source-clock cycle per
            // forward pipeline stage.
            wiring
                .credit_lat
                .push(1 + cfg.pipeline as u64 * cfg.src_divisor);
            wiring.ends.push((src, dst));
            links.push(Link::new(cfg));
            let wake = link_cal.register();
            debug_assert_eq!(wake.index(), idx);
            wiring.link_wake.push(wake);
            idx
        };
        // Inter-switch links (base clock on both ends).
        for e in topology.edges() {
            let (from_port, to_port) = (e.from_port as usize, e.to_port as usize);
            let idx = add_link(
                &mut wiring,
                link_cfg,
                LinkEnd::Switch {
                    switch: e.from,
                    port: from_port,
                },
                LinkEnd::Switch {
                    switch: e.to,
                    port: to_port,
                },
            );
            wiring.out_wire[wiring.out_base[e.from] + from_port] = Some(idx);
            wiring.in_wire[wiring.in_base[e.to] + to_port] = Some(idx);
            switches[e.from].set_output_credits(from_port, buffer_depth as u32);
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
                    switch: a.switch,
                    port: in_port,
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
                    switch: a.switch,
                    port: out_port,
                },
                LinkEnd::Endpoint { node: a.node },
            );
            wiring.out_wire[wiring.out_base[a.switch] + out_port] = Some(ej_idx);
            // Endpoint ingress is unbounded (NIUs bound it by outstanding
            // transactions); give ejection ports ample credit.
            switches[a.switch].set_output_credits(out_port, u32::MAX / 2);
        }
        let max_credit_lat = wiring.credit_lat.iter().copied().max().unwrap_or(0);
        Fabric {
            stash: vec![VecDeque::new(); wiring.out_wire.len()],
            wiring: Arc::new(wiring),
            switches,
            inj_credits,
            link_cal,
            busy: ActiveSet::with_capacity(num_switches),
            locked: ActiveSet::with_capacity(num_switches),
            stashed: ActiveSet::with_capacity(num_switches),
            stash_flits: vec![0; num_switches],
            total_stashed: 0,
            in_flight: 0,
            delivered_flits: 0,
            pending_credits: CreditRing::new(max_credit_lat),
            due_links: ActiveSet::with_capacity(links.len()),
            links,
            tick_scratch: noc_transport::SwitchTick::default(),
        }
    }

    /// Sends `flit` on link `li` and reschedules the link's arrival
    /// wakeup. Every send in the fabric funnels through here so no
    /// horizon change can escape the calendar.
    fn send_on_link(&mut self, li: usize, flit: Flit, now: u64) {
        let link = &mut self.links[li];
        link.send(flit, now).expect("can_send checked");
        self.in_flight += 1;
        let next = link.next_event_at(now);
        self.link_cal.set(self.wiring.link_wake[li], next);
    }

    /// Stashes `flit` at flat output slot `slot` of switch `s`.
    fn stash_push(&mut self, s: usize, slot: usize, flit: Flit) {
        self.stash[slot].push_back(flit);
        self.stash_flits[s] += 1;
        self.total_stashed += 1;
        self.stashed.insert(s);
    }

    /// Marks a switch as holding work; it leaves the busy set when a
    /// tick ends with it idle.
    fn mark_busy(&mut self, s: usize) {
        self.busy.insert(s);
        self.locked.remove(s);
    }

    /// Returns `true` when `node` can inject a flit this base cycle.
    pub fn can_inject(&self, node: u16, now: u64) -> bool {
        match self.wiring.inj_link.get(node as usize) {
            Some(&Some(link)) => {
                self.inj_credits[node as usize] > 0 && self.links[link].can_send(now)
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
        let link = self.wiring.inj_link[node as usize].expect("node attached to fabric");
        let credits = &mut self.inj_credits[node as usize];
        assert!(*credits > 0, "injection without credit");
        *credits -= 1;
        self.send_on_link(link, flit, now);
    }

    /// Advances the fabric one base cycle. Ejected flits are appended to
    /// `ejected` as `(node, flit)` pairs for the SoC to deliver to
    /// endpoints (the caller owns — and reuses — the buffer).
    pub fn tick(&mut self, now: u64, ejected: &mut Vec<(u16, Flit)>) {
        // 1. Link deliveries into switches / endpoints. Only links whose
        // scheduled arrival is due can deliver; everything else provably
        // returns `None` this cycle (the calendar entry *is*
        // `Link::next_event_at`, re-registered on every send/deliver).
        // Ascending link order = the dense scan restricted to movers.
        let due = &mut self.due_links;
        self.link_cal.pop_due(now, |id| due.insert(id.index()));
        let mut next = self.due_links.next_from(0);
        while let Some(li) = next {
            next = self.due_links.next_from(li + 1);
            if let Some(flit) = self.links[li].deliver(now) {
                self.in_flight -= 1;
                match self.wiring.ends[li].1 {
                    LinkEnd::Switch { switch, port } => {
                        let ok = self.switches[switch].accept(port, flit);
                        assert!(ok, "credit flow control must prevent overflow");
                        self.mark_busy(switch);
                    }
                    LinkEnd::Endpoint { node } => {
                        self.delivered_flits += 1;
                        ejected.push((node, flit));
                    }
                }
            }
            let at = self.links[li].next_event_at(now);
            self.link_cal.set(self.wiring.link_wake[li], at);
        }
        self.due_links.clear();
        // 1b. Idle switches pinned by locked sequences accrue their
        // lock-idle statistic for this executed cycle in bulk — exactly
        // what a dense tick's empty allocation pass would have counted.
        // (Switches that just turned busy in step 1 left the set and
        // will count it themselves in step 3.)
        for s in self.locked.iter() {
            self.switches[s].skip_cycles(1);
        }
        // 2. Drain output stashes into links (stash-holding switches
        // only).
        let mut next = self.stashed.next_from(0);
        while let Some(s) = next {
            next = self.stashed.next_from(s + 1);
            for slot in self.wiring.out_base[s]..self.wiring.out_base[s + 1] {
                if self.stash[slot].is_empty() {
                    continue;
                }
                let Some(li) = self.wiring.out_wire[slot] else {
                    continue;
                };
                if self.links[li].can_send(now) {
                    let flit = self.stash[slot].pop_front().expect("checked non-empty");
                    self.stash_flits[s] -= 1;
                    self.total_stashed -= 1;
                    if self.stash_flits[s] == 0 {
                        self.stashed.remove(s);
                    }
                    self.send_on_link(li, flit, now);
                }
            }
        }
        // 3. Switch cycles (busy switches only; an idle switch's tick
        // moves nothing and releases nothing). Flits reach a switch only
        // in step 1, so the busy set gains no member while it is walked.
        let mut tick = std::mem::take(&mut self.tick_scratch);
        let mut next = self.busy.next_from(0);
        while let Some(s) = next {
            next = self.busy.next_from(s + 1);
            self.switches[s].tick_into(&mut tick);
            for (port, flit) in tick.sent.drain(..) {
                let slot = self.wiring.out_base[s] + port.index();
                let Some(li) = self.wiring.out_wire[slot] else {
                    continue; // unreachable: every routed port is wired
                };
                if self.stash[slot].is_empty() && self.links[li].can_send(now) {
                    self.send_on_link(li, flit, now);
                } else {
                    self.stash_push(s, slot, flit);
                }
            }
            // 4. Credit returns to upstream, registered onto the return
            // wire: visible to the sender `credit_lat` cycles from now
            // (applied by [`Fabric::apply_due_credits`]), never within
            // this cycle.
            for input in tick.credits_released.drain(..) {
                let li = self.wiring.in_wire[self.wiring.in_base[s] + input]
                    .expect("every switch input is wired");
                self.pending_credits
                    .push(now + self.wiring.credit_lat[li], li as u32);
            }
            if self.switches[s].is_idle() {
                self.busy.remove(s);
                if self.switches[s].has_locked_output() {
                    self.locked.insert(s);
                }
            }
        }
        self.tick_scratch = tick;
    }

    /// Applies every credit return whose due cycle has been reached.
    /// Called at the top of each SoC step, before endpoints consult
    /// injection credits and before the fabric tick, so a credit due at
    /// cycle `d` is visible to everything that executes at `d` — and to
    /// nothing earlier.
    pub(crate) fn apply_due_credits(&mut self, now: u64) {
        self.pending_credits
            .drain_due(now, |li| match self.wiring.ends[li as usize].0 {
                LinkEnd::Switch { switch, port } => {
                    self.switches[switch].add_output_credit(port);
                }
                LinkEnd::Endpoint { node } => self.inj_credits[node as usize] += 1,
            });
    }

    /// Returns `true` when no flit is buffered or in flight. In-flight
    /// credit returns deliberately don't count (see the
    /// `pending_credits` field).
    pub fn is_idle(&self) -> bool {
        self.busy.is_empty() && self.total_stashed == 0 && self.in_flight == 0
    }

    /// The fabric's event horizon: the earliest base cycle at or after
    /// `now` at which ticking it can change state, or `None` when every
    /// switch, stash and link is empty.
    ///
    /// Buffered flits demand dense ticking (switches arbitrate, stall
    /// and count every cycle) and pin the answer to `now`; a fabric
    /// whose only traffic is *in flight on links* — deep in a pipelined
    /// crossing, or waiting out a CDC synchroniser — reports the
    /// earliest scheduled arrival from the link calendar instead, in
    /// O(1). Idle switches with pinned locks constrain nothing here;
    /// their per-cycle lock-idle statistics are bulk-accounted by
    /// [`Fabric::skip_cycles`] and [`Fabric::tick`].
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if !self.busy.is_empty() || self.total_stashed > 0 {
            return Some(now);
        }
        // A stale calendar minimum is never later than the true earliest
        // arrival, so the caller may at worst execute a spurious,
        // dense-identical step.
        Horizon::from(self.link_cal.peek()).earliest_from(now)
    }

    /// Accounts `cycles` skipped fabric ticks: forwards the bulk
    /// lock-idle accounting to every idle switch still pinned by a
    /// locked sequence (see [`Switch::skip_cycles`]). Links and stashes
    /// need nothing — their state is timestamped, not counted per cycle
    /// — and unpinned idle switches have nothing to count.
    ///
    /// Callers must only skip cycles [`Fabric::next_event_at`] proved
    /// dead.
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(self.busy.is_empty(), "skipping a fabric holding flits");
        for s in self.locked.iter() {
            self.switches[s].skip_cycles(cycles);
        }
    }

    /// Total wakeups the link calendar has retired — the fabric's share
    /// of the `calendar_pops` observability counter.
    pub fn calendar_pops(&self) -> u64 {
        self.link_cal.pops()
    }

    /// Aggregate switch statistics.
    pub fn stats(&self) -> noc_transport::SwitchStats {
        let mut total = noc_transport::SwitchStats::default();
        for s in &self.switches {
            let st = s.stats();
            total.flits_forwarded += st.flits_forwarded;
            total.packets_forwarded += st.packets_forwarded;
            total.credit_stalls += st.credit_stalls;
            total.arbitration_conflicts += st.arbitration_conflicts;
            total.lock_idle_cycles += st.lock_idle_cycles;
        }
        total
    }

    /// Total flits delivered to endpoints.
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Mean link latency across all links that delivered flits.
    pub fn mean_link_latency(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for link in &self.links {
            if link.delivered() > 0 {
                sum += link.mean_latency() * link.delivered() as f64;
                n += link.delivered();
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.switches.len())
            .field("links", &self.links.len())
            .field("idle", &self.is_idle())
            .finish()
    }
}
