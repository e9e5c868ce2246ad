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

#[derive(Clone)]
struct FabricLink {
    link: Link<Flit>,
    src: LinkEnd,
    dst: LinkEnd,
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

/// One packet network (request or response): switches, links and credit
/// bookkeeping.
///
/// Endpoints are *not* owned by the fabric; the [`crate::Soc`] moves flits
/// between endpoints and the fabric's injection/ejection links each cycle.
#[derive(Clone)]
pub struct Fabric {
    switches: Vec<Switch>,
    links: Vec<FabricLink>,
    /// Per endpoint node: injection link index and current credits into
    /// the first switch.
    injection: Vec<(u16, usize, u32)>,
    /// Node number → index into `injection`.
    node_inj: Vec<Option<usize>>,
    /// Per switch output port: link index.
    out_wire: Vec<Vec<Option<usize>>>,
    /// Per switch input port: feeding link index.
    in_wire: Vec<Vec<Option<usize>>>,
    /// Output-register stash per (switch, out port): absorbs flits while
    /// a serialising link is busy.
    stash: Vec<Vec<VecDeque<Flit>>>,
    /// Wakeup calendar over links; `link_wake[i]` is link `i`'s handle.
    link_cal: Calendar,
    link_wake: Vec<WakeId>,
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
    /// Per link: credit-return latency in base cycles (the wire plus one
    /// register per forward pipeline stage). A credit released by a
    /// downstream input at cycle `t` becomes visible to the upstream
    /// sender at `t + credit_lat` — never within the releasing cycle —
    /// so credit visibility cannot depend on switch iteration order.
    /// (The dense loop used to apply releases immediately, letting a
    /// same-cycle consumer see them iff its index was higher than the
    /// releaser's: an ordering bug.)
    credit_lat: Vec<u64>,
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
    /// Each switch's routing row sits behind shared storage
    /// ([`RoutingTable`]), so cloning the fabric — the second network of
    /// a SoC, every snapshot — copies no routing state.
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
        assert_eq!(
            tables.num_switches(),
            topology.num_switches(),
            "routing tables computed for another topology"
        );
        let num_nodes = topology.num_nodes();
        // Instantiate switches.
        let mut switches = Vec::new();
        for s in 0..topology.num_switches() {
            let ports = topology.ports()[s];
            let mut table = RoutingTable::new(num_nodes);
            for (node, port) in tables.switch_table(s).iter().enumerate() {
                if let Some(p) = port {
                    table.set(node as u16, PortId(*p));
                }
            }
            let cfg = SwitchConfig {
                inputs: ports.inputs as usize,
                outputs: ports.outputs as usize,
                mode,
                buffer_depth,
            };
            switches.push(Switch::new(cfg, table));
        }
        let num_switches = switches.len();
        let mut fabric = Fabric {
            out_wire: switches
                .iter()
                .map(|sw| vec![None; sw.config().outputs])
                .collect(),
            in_wire: switches
                .iter()
                .map(|sw| vec![None; sw.config().inputs])
                .collect(),
            stash: switches
                .iter()
                .map(|sw| (0..sw.config().outputs).map(|_| VecDeque::new()).collect())
                .collect(),
            switches,
            links: Vec::new(),
            injection: Vec::new(),
            node_inj: vec![None; num_nodes],
            link_cal: Calendar::new(),
            link_wake: Vec::new(),
            busy: ActiveSet::with_capacity(num_switches),
            locked: ActiveSet::with_capacity(num_switches),
            stashed: ActiveSet::with_capacity(num_switches),
            stash_flits: vec![0; num_switches],
            total_stashed: 0,
            in_flight: 0,
            delivered_flits: 0,
            credit_lat: Vec::new(),
            // Sized below, once every link (and its latency) is known.
            pending_credits: CreditRing::new(0),
            due_links: ActiveSet::default(),
            tick_scratch: noc_transport::SwitchTick::default(),
        };
        // Inter-switch links (base clock on both ends).
        for e in topology.edges() {
            let idx = fabric.add_link(
                Link::new(link_cfg),
                LinkEnd::Switch {
                    switch: e.from,
                    port: e.from_port as usize,
                },
                LinkEnd::Switch {
                    switch: e.to,
                    port: e.to_port as usize,
                },
            );
            fabric.out_wire[e.from][e.from_port as usize] = Some(idx);
            fabric.in_wire[e.to][e.to_port as usize] = Some(idx);
            fabric.switches[e.from].set_output_credits(e.from_port as usize, buffer_depth as u32);
        }
        // Endpoint attachments: injection (endpoint → switch) and
        // ejection (switch → endpoint) links, with CDC per endpoint clock.
        for a in topology.attachments() {
            let div = clock_of(a.node);
            let inj_cfg = LinkConfig {
                src_divisor: div,
                dst_divisor: 1,
                ..endpoint_link_cfg
            };
            let ej_cfg = LinkConfig {
                src_divisor: 1,
                dst_divisor: div,
                ..endpoint_link_cfg
            };
            let inj_idx = fabric.add_link(
                Link::new(inj_cfg),
                LinkEnd::Endpoint { node: a.node },
                LinkEnd::Switch {
                    switch: a.switch,
                    port: a.in_port as usize,
                },
            );
            fabric.in_wire[a.switch][a.in_port as usize] = Some(inj_idx);
            fabric.node_inj[a.node as usize] = Some(fabric.injection.len());
            fabric
                .injection
                .push((a.node, inj_idx, buffer_depth as u32));
            let ej_idx = fabric.add_link(
                Link::new(ej_cfg),
                LinkEnd::Switch {
                    switch: a.switch,
                    port: a.out_port as usize,
                },
                LinkEnd::Endpoint { node: a.node },
            );
            fabric.out_wire[a.switch][a.out_port as usize] = Some(ej_idx);
            // Endpoint ingress is unbounded (NIUs bound it by outstanding
            // transactions); give ejection ports ample credit.
            fabric.switches[a.switch].set_output_credits(a.out_port as usize, u32::MAX / 2);
        }
        let max_credit_lat = fabric.credit_lat.iter().copied().max().unwrap_or(0);
        fabric.pending_credits = CreditRing::new(max_credit_lat);
        fabric.due_links = ActiveSet::with_capacity(fabric.links.len());
        fabric
    }

    /// Adds a link and registers it with the wakeup calendar.
    fn add_link(&mut self, link: Link<Flit>, src: LinkEnd, dst: LinkEnd) -> usize {
        let idx = self.links.len();
        // The credit-return wire is registered like the forward path:
        // one base cycle of wire plus one source-clock cycle per forward
        // pipeline stage.
        let cfg = link.config();
        self.credit_lat
            .push(1 + cfg.pipeline as u64 * cfg.src_divisor);
        self.links.push(FabricLink { link, src, dst });
        let wake = self.link_cal.register();
        debug_assert_eq!(wake.index(), idx);
        self.link_wake.push(wake);
        idx
    }

    /// Sends `flit` on link `li` and reschedules the link's arrival
    /// wakeup. Every send in the fabric funnels through here so no
    /// horizon change can escape the calendar.
    fn send_on_link(&mut self, li: usize, flit: Flit, now: u64) {
        self.links[li]
            .link
            .send(flit, now)
            .expect("can_send checked");
        self.in_flight += 1;
        let next = self.links[li].link.next_event_at(now);
        self.link_cal.set(self.link_wake[li], next);
    }

    fn stash_push(&mut self, s: usize, p: usize, flit: Flit) {
        self.stash[s][p].push_back(flit);
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
        self.node_inj
            .get(node as usize)
            .copied()
            .flatten()
            .map(|i| {
                let (_, link, credits) = self.injection[i];
                credits > 0 && self.links[link].link.can_send(now)
            })
            .unwrap_or(false)
    }

    /// Injects a flit from `node`.
    ///
    /// # Panics
    ///
    /// Panics if [`Fabric::can_inject`] is false (caller must check).
    pub fn inject(&mut self, node: u16, flit: Flit, now: u64) {
        let i = self.node_inj[node as usize].expect("node attached to fabric");
        assert!(self.injection[i].2 > 0, "injection without credit");
        self.injection[i].2 -= 1;
        let link = self.injection[i].1;
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
            if let Some(flit) = self.links[li].link.deliver(now) {
                self.in_flight -= 1;
                match self.links[li].dst {
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
            let at = self.links[li].link.next_event_at(now);
            self.link_cal.set(self.link_wake[li], at);
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
            for p in 0..self.stash[s].len() {
                if self.stash[s][p].is_empty() {
                    continue;
                }
                let Some(li) = self.out_wire[s][p] else {
                    continue;
                };
                if self.links[li].link.can_send(now) {
                    let flit = self.stash[s][p].pop_front().expect("checked non-empty");
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
                let p = port.index();
                let Some(li) = self.out_wire[s][p] else {
                    continue; // unreachable: every routed port is wired
                };
                if self.stash[s][p].is_empty() && self.links[li].link.can_send(now) {
                    self.send_on_link(li, flit, now);
                } else {
                    self.stash_push(s, p, flit);
                }
            }
            // 4. Credit returns to upstream, registered onto the return
            // wire: visible to the sender `credit_lat` cycles from now
            // (applied by [`Fabric::apply_due_credits`]), never within
            // this cycle.
            for input in tick.credits_released.drain(..) {
                let li = self.in_wire[s][input].expect("every switch input is wired");
                self.pending_credits
                    .push(now + self.credit_lat[li], li as u32);
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
            .drain_due(now, |li| match self.links[li as usize].src {
                LinkEnd::Switch { switch, port } => {
                    self.switches[switch].add_output_credit(port);
                }
                LinkEnd::Endpoint { node } => {
                    let i = self.node_inj[node as usize].expect("injection entry exists");
                    self.injection[i].2 += 1;
                }
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
        for l in &self.links {
            if l.link.delivered() > 0 {
                sum += l.link.mean_latency() * l.link.delivered() as f64;
                n += l.link.delivered();
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
