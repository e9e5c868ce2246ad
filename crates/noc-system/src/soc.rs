//! The assembled SoC and its builder.

use crate::fabric::{ActiveSet, Fabric};
use crate::report::{FabricReport, RunReport};
use noc_kernel::{Calendar, ClockDomain, Engine, WakeId};
use noc_niu::NocEndpoint;
use noc_physical::LinkConfig;
use noc_topology::{RouteAlgorithm, Topology, TopologyError};
use noc_transport::SwitchMode;
use std::fmt;
use std::sync::Arc;

/// Transport + physical configuration of a NoC instance — everything the
/// paper says can change without the transaction layer noticing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Switching discipline.
    pub mode: SwitchMode,
    /// Switch input buffer depth in flits.
    pub buffer_depth: usize,
    /// Physical link configuration of the switch-to-switch link class
    /// (and, unless overridden, of the endpoint links too).
    pub link: LinkConfig,
    /// Physical link configuration of the endpoint (injection/ejection)
    /// link class; `None` uses [`NocConfig::link`]. Divisors are still
    /// derived per endpoint from its clock declaration.
    pub endpoint_link: Option<LinkConfig>,
    /// Routing algorithm.
    pub routing: RouteAlgorithm,
}

impl NocConfig {
    /// Wormhole switching, 8-flit buffers, full-width synchronous links,
    /// shortest-path routing.
    pub fn new() -> Self {
        NocConfig {
            mode: SwitchMode::Wormhole,
            buffer_depth: 8,
            link: LinkConfig::new(),
            endpoint_link: None,
            routing: RouteAlgorithm::ShortestPath,
        }
    }

    /// Sets the switching mode.
    #[must_use]
    pub fn with_mode(mut self, mode: SwitchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the buffer depth.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Sets the link configuration (both classes, unless an endpoint
    /// class override is also set).
    #[must_use]
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the routing algorithm.
    #[must_use]
    pub fn with_routing(mut self, routing: RouteAlgorithm) -> Self {
        self.routing = routing;
        self
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::new()
    }
}

/// Errors assembling a SoC.
#[derive(Debug)]
pub enum BuildError {
    /// Topology/routing failure.
    Topology(TopologyError),
    /// An endpoint references a node the topology does not attach.
    UnknownNode {
        /// The missing node number.
        node: u16,
    },
    /// Two endpoints claim the same node.
    DuplicateNode {
        /// The contested node number.
        node: u16,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Topology(e) => write!(f, "topology error: {e}"),
            BuildError::UnknownNode { node } => {
                write!(f, "endpoint node {node} is not attached in the topology")
            }
            BuildError::DuplicateNode { node } => {
                write!(f, "node {node} claimed by two endpoints")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for BuildError {
    fn from(e: TopologyError) -> Self {
        BuildError::Topology(e)
    }
}

#[derive(Clone)]
struct Endpoint {
    /// Never changes after build, so forks share it.
    name: Arc<str>,
    node: u16,
    is_initiator: bool,
    clock: ClockDomain,
    inner: Box<dyn NocEndpoint>,
}

/// Builds a [`Soc`] from a topology, a NoC configuration and endpoints.
///
/// See the crate-level example.
pub struct SocBuilder {
    topology: Topology,
    config: NocConfig,
    endpoints: Vec<Endpoint>,
}

impl SocBuilder {
    /// Starts building over `topology` with `config`.
    pub fn new(topology: Topology, config: NocConfig) -> Self {
        SocBuilder {
            topology,
            config,
            endpoints: Vec::new(),
        }
    }

    /// Attaches an initiator NIU at `node` (base clock).
    #[must_use]
    pub fn initiator(self, name: &str, node: u16, endpoint: Box<dyn NocEndpoint>) -> Self {
        self.initiator_clocked(name, node, endpoint, 1)
    }

    /// Attaches an initiator NIU at `node` on a divided clock.
    ///
    /// # Panics
    ///
    /// Panics if `clock_divisor` is zero.
    #[must_use]
    pub fn initiator_clocked(
        mut self,
        name: &str,
        node: u16,
        endpoint: Box<dyn NocEndpoint>,
        clock_divisor: u64,
    ) -> Self {
        self.endpoints.push(Endpoint {
            name: name.into(),
            node,
            is_initiator: true,
            clock: ClockDomain::new(clock_divisor),
            inner: endpoint,
        });
        self
    }

    /// Attaches a target NIU at `node` (base clock).
    #[must_use]
    pub fn target(self, name: &str, node: u16, endpoint: Box<dyn NocEndpoint>) -> Self {
        self.target_clocked(name, node, endpoint, 1)
    }

    /// Attaches a target NIU at `node` on a divided clock.
    ///
    /// # Panics
    ///
    /// Panics if `clock_divisor` is zero.
    #[must_use]
    pub fn target_clocked(
        mut self,
        name: &str,
        node: u16,
        endpoint: Box<dyn NocEndpoint>,
        clock_divisor: u64,
    ) -> Self {
        self.endpoints.push(Endpoint {
            name: name.into(),
            node,
            is_initiator: false,
            clock: ClockDomain::new(clock_divisor),
            inner: endpoint,
        });
        self
    }

    /// Assembles the SoC: two fabrics (request + response) over the
    /// topology, endpoints verified against attachments.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for unknown/duplicate nodes or routing
    /// failures.
    pub fn build(self) -> Result<Soc, BuildError> {
        // Node number → index into `endpoints`: the duplicate check
        // here, the divisor lookup below, ejection delivery in `step`.
        let mut node_ep: Vec<Option<usize>> = vec![None; self.topology.num_nodes()];
        for (i, ep) in self.endpoints.iter().enumerate() {
            if self.topology.attachment_of(ep.node).is_none() {
                return Err(BuildError::UnknownNode { node: ep.node });
            }
            if node_ep[ep.node as usize].replace(i).is_some() {
                return Err(BuildError::DuplicateNode { node: ep.node });
            }
        }
        let clock_of = |node: u16| -> u64 {
            node_ep[node as usize].map_or(1, |i| self.endpoints[i].clock.divisor())
        };
        // One route computation and one fabric per SoC: the request and
        // response networks start out identical, so the second is a
        // clone of the first and shares its routing tables.
        let tables = self.topology.compute_routes(self.config.routing)?;
        let request = Fabric::new(
            &self.topology,
            self.config.mode,
            self.config.buffer_depth,
            self.config.link,
            self.config.endpoint_link.unwrap_or(self.config.link),
            &tables,
            &clock_of,
        );
        let response = request.clone();
        let mut ep_cal = Calendar::new();
        let ep_wake: Vec<WakeId> = self.endpoints.iter().map(|_| ep_cal.register()).collect();
        let num_endpoints = self.endpoints.len();
        let initiators = (0..num_endpoints)
            .filter(|&i| self.endpoints[i].is_initiator)
            .collect();
        let mut soc = Soc {
            endpoints: self.endpoints,
            initiators,
            settled: vec![0; num_endpoints],
            request,
            response,
            node_ep,
            ep_cal,
            ep_wake,
            done: vec![false; num_endpoints],
            not_done: num_endpoints,
            now: 0,
            steps: 0,
            endpoint_ticks: 0,
            touched: ActiveSet::with_capacity(num_endpoints),
            eject_scratch: Vec::new(),
        };
        // Prime the calendar and done cache: every endpoint registers
        // its initial horizon (most are quiescent until programs are
        // loaded).
        for i in 0..soc.endpoints.len() {
            soc.refresh_endpoint(i);
        }
        Ok(soc)
    }
}

/// A running SoC: endpoints plus request/response fabrics.
///
/// `Clone` is the snapshot/restore primitive: a clone is a full, bit-
/// identical checkpoint of the system — continuing either copy replays
/// exactly the cycles the original would have executed.
#[derive(Clone)]
pub struct Soc {
    endpoints: Vec<Endpoint>,
    /// Indices into `endpoints` of the initiators, in build order — the
    /// order programs are loaded in.
    initiators: Vec<usize>,
    /// Per endpoint: the base cycle up to which (exclusive) every edge of
    /// its clock has been accounted — ticked for real, or charged through
    /// [`NocEndpoint::skip_ticks`]. `step` ticks only the endpoints whose
    /// wakeup is due, in dense and horizon runs alike; the edges it passes
    /// over are proven no-ops by the endpoint's own pending wakeup, and
    /// they are charged in one `skip_ticks` call the next time anything
    /// looks at the endpoint ([`Soc::settle`]): before its next real
    /// tick, before a flit is pushed into it, before its wakeup is
    /// recomputed. Between those moments its countdown is stale by
    /// exactly the edges in `settled[i]..now`.
    settled: Vec<u64>,
    request: Fabric,
    response: Fabric,
    /// Node number → index into `endpoints` (nodes are unique).
    node_ep: Vec<Option<usize>>,
    /// Wakeup calendar over endpoints; `ep_wake[i]` is endpoint `i`'s
    /// handle. The wakeups due at a cycle are the endpoints `step` clocks
    /// on it. Each endpoint re-registers whenever its horizon can have
    /// changed: after any cycle it was clocked on, whenever a flit is
    /// pushed into it (the response/request arrival that can move its
    /// horizon *earlier*), and when its program is loaded or extended.
    ep_cal: Calendar,
    ep_wake: Vec<WakeId>,
    /// Cached [`NocEndpoint::is_done`] per endpoint plus the count of
    /// endpoints still working, refreshed by the same invalidation
    /// discipline as the calendar: done-ness can only flip when an
    /// endpoint's state actually changes (its wakeup fired, a flit was
    /// pushed into it, a program was loaded or extended).
    done: Vec<bool>,
    not_done: usize,
    now: u64,
    /// Base cycles actually executed (skipped cycles excluded).
    steps: u64,
    /// Endpoint ticks executed (edges charged by `settle` excluded).
    endpoint_ticks: u64,
    /// Step-loop scratch (touched endpoints, ejected flits), empty
    /// between steps and reused so the hot path allocates nothing.
    touched: ActiveSet,
    eject_scratch: Vec<(u16, noc_transport::Flit)>,
}

impl Engine for Soc {
    fn now(&self) -> u64 {
        self.now
    }

    fn executed_steps(&self) -> u64 {
        self.steps
    }

    fn step(&mut self) {
        let now = self.now;
        self.steps += 1;
        // 0. Credit returns whose registered delay has elapsed become
        //    visible before anything reads a credit counter this cycle
        //    (endpoint injection checks below, switch sends inside the
        //    fabric ticks).
        self.request.apply_due_credits(now);
        self.response.apply_due_credits(now);
        // Retire due endpoint wakeups: the calendar *is* the set of
        // endpoints to clock this cycle. An endpoint's wakeup is the
        // first of its clock edges that is not provably a no-op — the
        // very next edge while it may issue a pending request or its
        // egress holds flits; while the ordering policy refuses its head,
        // only its socket's own countdowns bound it, since a response is
        // pushed in, not ticked for — so every edge before it is left
        // unexecuted, in dense and horizon runs alike, and charged later
        // in bulk (see the `settled` field). Everything that can move an
        // endpoint's horizon (or done-ness) this cycle lands in
        // `touched`: its wakeup firing here, a flit pushed into it below.
        let touched = &mut self.touched;
        self.ep_cal.pop_due(now, |id| touched.insert(id.index()));
        #[cfg(debug_assertions)]
        self.assert_no_late_wake(now);
        // 1. Endpoint compute, then injection: initiators feed the
        //    request network, targets the response network (one flit per
        //    endpoint per local cycle), in ascending endpoint order.
        //    Endpoints only interact through the fabrics — an endpoint's
        //    tick reads no fabric state and each node injects on its own
        //    link — so folding injection into the tick pass reorders
        //    nothing observable versus two full passes.
        let mut next = self.touched.next_from(0);
        while let Some(i) = next {
            next = self.touched.next_from(i + 1);
            debug_assert!(
                self.endpoints[i].clock.is_active(now),
                "wakeups are scheduled on the endpoint's own clock edges"
            );
            self.settle(i, now);
            self.settled[i] = now + 1;
            let ep = &mut self.endpoints[i];
            ep.inner.tick(now);
            self.endpoint_ticks += 1;
            let fabric = if ep.is_initiator {
                &mut self.request
            } else {
                &mut self.response
            };
            if fabric.can_inject(ep.node, now) {
                if let Some(flit) = ep.inner.pull_flit() {
                    fabric.inject(ep.node, flit, now);
                }
            }
        }
        // 2. Fabric cycles; ejections are delivered immediately.
        let mut eject = std::mem::take(&mut self.eject_scratch);
        eject.clear();
        self.request.tick(now, &mut eject);
        self.deliver(&mut eject, now);
        self.response.tick(now, &mut eject);
        self.deliver(&mut eject, now);
        self.eject_scratch = eject;
        self.now += 1;
        // 3. Invalidation discipline: every touched endpoint
        //    re-registers its wakeup and refreshes its done cache, once.
        let mut next = self.touched.next_from(0);
        while let Some(i) = next {
            next = self.touched.next_from(i + 1);
            self.refresh_endpoint(i);
        }
        self.touched.clear();
    }

    /// Every endpoint is done and both fabrics idle. O(1): endpoint
    /// done-ness is cached (see the `done` field) and the fabrics count
    /// their active components.
    fn is_done(&self) -> bool {
        self.not_done == 0 && self.request.is_idle() && self.response.is_idle()
    }

    /// Does not scan components: each fabric answers in O(1)
    /// (busy/stash sets pin it to `now`; otherwise the earliest flit
    /// arrival it has filed), and the endpoints' contribution is
    /// the earliest wakeup they scheduled into the endpoint calendar
    /// (`step` re-registers every endpoint whose horizon can have
    /// moved). A calendar minimum may be stale — a component
    /// rescheduled *later* and the old entry has not been retired — but
    /// stale means early, and an early wakeup merely executes a step a
    /// dense run executes anyway, so logs stay bit-identical.
    fn next_activity(&self) -> Option<u64> {
        let now = self.now;
        let request = self.request.next_event_at(now).into_iter();
        let response = self.response.next_event_at(now);
        let earliest = request.chain(response).chain(self.ep_cal.peek()).min();
        earliest.map(|at| at.max(now))
    }

    /// Both fabrics bulk-account their lock-idle statistics through
    /// [`Fabric::skip_cycles`], leaving bit-identical state. Endpoints
    /// need nothing here: the clock edges inside `[now, target)` are
    /// charged when each endpoint is next settled, exactly like the
    /// edges `step` passes over.
    fn skip_to(&mut self, target: u64) {
        let cycles = target - self.now;
        self.request.skip_cycles(self.now, cycles);
        self.response.skip_cycles(self.now, cycles);
        self.now = target;
    }
}

impl Soc {
    /// Charges endpoint `i` the clock edges in `settled[i]..upto` that
    /// were never executed, as one [`NocEndpoint::skip_ticks`] call (the
    /// endpoint's wakeup proved each of them a no-op).
    fn settle(&mut self, i: usize, upto: u64) {
        let domain = self.endpoints[i].clock;
        let ticks = domain.ticks_in(upto) - domain.ticks_in(self.settled[i]);
        if ticks > 0 {
            self.endpoints[i].inner.skip_ticks(ticks);
        }
        self.settled[i] = upto;
    }

    /// Hands the flits a fabric ejected this cycle to their endpoints. A
    /// pushed flit can move the receiving endpoint's horizon *earlier*,
    /// so it joins `touched` even though it was not clocked. The endpoint
    /// is settled through `now + 1` first: a dense run would have put its
    /// (no-op) tick of this cycle before the delivery.
    fn deliver(&mut self, ejected: &mut Vec<(u16, noc_transport::Flit)>, now: u64) {
        for (node, flit) in ejected.drain(..) {
            let i = self.node_ep[node as usize].expect("a fabric ejects at attached endpoints");
            self.settle(i, now + 1);
            self.endpoints[i].inner.push_flit(flit);
            self.touched.insert(i);
        }
    }

    /// The invalidation discipline, checked where it would break: an
    /// endpoint `step` is about to pass over must not have a wakeup at or
    /// before `now`. The wakeup is recomputed from the endpoint's
    /// `settled` cycle, not from `now` — an unsettled countdown is stale
    /// by exactly the unsettled edges.
    #[cfg(debug_assertions)]
    fn assert_no_late_wake(&self, now: u64) {
        for (i, ep) in self.endpoints.iter().enumerate() {
            if self.touched.contains(i) {
                continue;
            }
            let wake = self.endpoint_wake_at(i);
            assert!(
                wake.is_none_or(|at| at > now),
                "endpoint {} is not clocked at cycle {now}, but its wakeup (settled through \
                 {}) was due at {wake:?}: a state change escaped `refresh_endpoint`",
                ep.name,
                self.settled[i]
            );
        }
    }

    /// The endpoint's current horizon contribution: its [`NocEndpoint::wake`]
    /// mapped onto the base timeline through its clock domain, counted
    /// from its `settled` cycle. Either form names an absolute cycle
    /// that settling does not move (a countdown shrinks by exactly the
    /// edges charged), so a scheduled wakeup stays valid until the
    /// endpoint's state changes.
    fn endpoint_wake_at(&self, i: usize) -> Option<u64> {
        let domain = self.endpoints[i].clock;
        self.endpoints[i]
            .inner
            .wake()
            .base_cycle(domain, self.settled[i])
    }

    /// Settles endpoint `i` through `now`, re-registers its wakeup and
    /// refreshes its cached done-ness — the invalidation hook called for
    /// every endpoint whose state changed this cycle.
    fn refresh_endpoint(&mut self, i: usize) {
        self.settle(i, self.now);
        let at = self.endpoint_wake_at(i);
        self.ep_cal.set(self.ep_wake[i], at);
        let done = self.endpoints[i].inner.is_done();
        if done != self.done[i] {
            self.done[i] = done;
            if done {
                self.not_done -= 1;
            } else {
                self.not_done += 1;
            }
        }
    }

    /// Total wheel entries retired: the endpoint calendar's wakeups,
    /// plus both fabrics' flit-wheel entries (one per delivery of a flit
    /// queued on a link that is not one-cycle; a flit passed on a
    /// one-cycle link files none — see [`Fabric::calendar_pops`]).
    pub fn calendar_pops(&self) -> u64 {
        self.ep_cal.pops() + self.request.calendar_pops() + self.response.calendar_pops()
    }

    /// Runs until done or `max_cycles` (horizon stepping), then reports,
    /// with the advance's polls.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        let horizon_polls = self.advance_to(max_cycles);
        RunReport {
            horizon_polls,
            ..self.report()
        }
    }

    /// Loads one socket program per initiator endpoint (build order)
    /// into a system that has not started executing — the warm-state
    /// forking hook: clone a checkpointed programless SoC, then inject
    /// the point's real workload.
    ///
    /// # Panics
    ///
    /// Panics if the system already stepped, or if the program count
    /// does not match the initiator count.
    pub fn load_programs(&mut self, programs: &[noc_protocols::Program]) {
        assert!(
            self.now == 0 && self.steps == 0,
            "programs can only be loaded before execution starts"
        );
        assert_eq!(
            programs.len(),
            self.initiators.len(),
            "one program per initiator endpoint"
        );
        // Loading a program moves an initiator's horizon from
        // "quiescent" to its first command's cycle: re-register it.
        for (k, program) in programs.iter().enumerate() {
            let i = self.initiators[k];
            self.endpoints[i].inner.load_program(program.clone());
            self.refresh_endpoint(i);
        }
    }

    /// Named completion logs of all initiator endpoints (build order).
    pub fn completion_logs(&self) -> Vec<(&str, &noc_protocols::CompletionLog)> {
        self.endpoints
            .iter()
            .filter(|e| e.is_initiator)
            .filter_map(|e| e.inner.completion_log().map(|l| (&*e.name, l)))
            .collect()
    }

    /// Builds a report from the current state, fabric aggregates summed
    /// over the request and response networks. A `Soc` keeps no poll
    /// count, so `horizon_polls` is 0: [`Soc::run`] and the scenario
    /// layer fill in the polls of the advance they made.
    pub fn report(&self) -> RunReport {
        let (req, resp) = (self.request.stats(), self.response.stats());
        let fabric = FabricReport {
            endpoint_ticks: self.endpoint_ticks,
            request_flits: self.request.delivered_flits(),
            response_flits: self.response.delivered_flits(),
            flits_forwarded: req.flits_forwarded + resp.flits_forwarded,
            packets_forwarded: req.packets_forwarded + resp.packets_forwarded,
            credit_stalls: req.credit_stalls + resp.credit_stalls,
            arbitration_conflicts: req.arbitration_conflicts + resp.arbitration_conflicts,
            lock_idle_cycles: req.lock_idle_cycles + resp.lock_idle_cycles,
            mean_link_latency: (self.request.mean_link_latency(self.now)
                + self.response.mean_link_latency(self.now))
                / 2.0,
        };
        RunReport {
            fabric: Some(fabric),
            calendar_pops: self.calendar_pops(),
            ..RunReport::new("noc", self, self.completion_logs())
        }
    }
}

impl fmt::Debug for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Soc")
            .field("now", &self.now)
            .field("endpoints", &self.endpoints.len())
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_niu::fe::AhbInitiator;
    use noc_niu::{InitiatorNiu, InitiatorNiuConfig, MemoryTarget, TargetNiu, TargetNiuConfig};
    use noc_protocols::ahb::AhbMaster;
    use noc_protocols::{MemoryModel, SocketCommand};
    use noc_transaction::{AddressMap, MstAddr, SlvAddr};

    /// Memories on nodes 2 and 3 of a 2x2 mesh, 4 KiB each.
    fn address_map() -> AddressMap {
        let mut map = AddressMap::new();
        map.add(0x0, 0x1000, SlvAddr::new(2)).unwrap();
        map.add(0x1000, 0x2000, SlvAddr::new(3)).unwrap();
        map
    }

    fn master(node: u16, base: u64) -> Box<dyn NocEndpoint> {
        let program = (0..6)
            .map(|i| {
                let addr = (base + i * 0x840) % 0x2000;
                if i % 2 == 0 {
                    SocketCommand::write(addr, 4, i).with_delay(7 * i as u32)
                } else {
                    SocketCommand::read(addr, 4)
                }
            })
            .collect();
        let fe = AhbInitiator::new(AhbMaster::new(program));
        let cfg = InitiatorNiuConfig::new(MstAddr::new(node));
        Box::new(InitiatorNiu::new(fe, cfg, address_map()))
    }

    fn memory(node: u16) -> Box<dyn NocEndpoint> {
        Box::new(TargetNiu::new(
            MemoryTarget::new(MemoryModel::new(2), 4),
            TargetNiuConfig::new(SlvAddr::new(node)),
        ))
    }

    fn two_by_two() -> SocBuilder {
        let config = NocConfig::new().with_routing(RouteAlgorithm::XyMesh {
            width: 2,
            height: 2,
        });
        SocBuilder::new(Topology::mesh(2, 2), config)
            .initiator("cpu", 0, master(0, 0x0))
            .initiator_clocked("dma", 1, master(1, 0x1000), 3)
            .target("mem0", 2, memory(2))
            .target_clocked("mem1", 3, memory(3), 2)
    }

    /// Everything a run leaves behind that two equal runs must agree on,
    /// record for record and timestamp for timestamp.
    fn outcome(soc: &Soc) -> impl PartialEq + std::fmt::Debug + '_ {
        let report = soc.report();
        let logs: Vec<_> = soc
            .completion_logs()
            .into_iter()
            .map(|(name, log)| (name, log.records()))
            .collect();
        let counters = (soc.executed_steps(), soc.calendar_pops());
        (
            report.cycles,
            report.all_done,
            report.fabric,
            logs,
            counters,
        )
    }

    #[test]
    fn a_clone_shares_the_tables_but_not_the_behaviour() {
        let mut original = two_by_two().build().unwrap();
        let mut fork = original.clone();
        original.advance_to(100_000);
        assert!(original.is_done());
        // Running the original moved nothing in the fork.
        assert_eq!((fork.now(), fork.executed_steps()), (0, 0));
        assert!(fork.completion_logs().iter().all(|(_, log)| log.is_empty()));
        fork.advance_to(100_000);
        assert!(fork.is_done());
        assert_eq!(outcome(&original), outcome(&fork));
        assert_eq!(original.completion_logs().len(), 2);
        assert!(original.report().fabric.unwrap().request_flits > 0);
    }

    #[test]
    fn a_run_with_no_completions_reports_no_mean_latency() {
        let idle = AhbInitiator::new(AhbMaster::new(Vec::new()));
        let idle = InitiatorNiu::new(
            idle,
            InitiatorNiuConfig::new(MstAddr::new(0)),
            address_map(),
        );
        let config = NocConfig::new().with_routing(RouteAlgorithm::XyMesh {
            width: 2,
            height: 2,
        });
        let mut soc = SocBuilder::new(Topology::mesh(2, 2), config)
            .initiator("cpu", 0, Box::new(idle))
            .target("mem0", 2, memory(2))
            .build()
            .unwrap();
        let report = soc.run(1_000);
        assert!(report.all_done);
        assert_eq!(report.total_completions(), 0);
        assert!(report.mean_latency().is_nan(), "no sample, no mean");
        assert!(report.masters[0].mean_latency().is_nan());
        let text = report.to_string();
        assert!(text.contains(" mean_latency=- "), "{text}");
        assert!(
            text.contains("cpu: completions=0 errors=0 mean_latency=- "),
            "{text}"
        );
    }

    #[test]
    fn unknown_and_duplicate_nodes_are_typed_errors() {
        let err = two_by_two().target("stray", 9, memory(9)).build();
        assert!(matches!(err, Err(BuildError::UnknownNode { node: 9 })));
        let err = two_by_two().target("twin", 2, memory(2)).build();
        assert!(matches!(err, Err(BuildError::DuplicateNode { node: 2 })));
        // A routing failure still surfaces after the endpoint checks.
        let config = NocConfig::new().with_routing(RouteAlgorithm::XyMesh {
            width: 3,
            height: 3,
        });
        let err = SocBuilder::new(Topology::mesh(2, 2), config).build();
        assert!(matches!(
            err,
            Err(BuildError::Topology(
                TopologyError::AlgorithmMismatch { .. }
            ))
        ));
    }
}
