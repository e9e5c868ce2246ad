//! The Fig-2 bridged interconnect baseline: a central reference-socket
//! crossbar with per-master protocol bridges.

use crate::{AttachedMaster, SlaveTiming};
use noc_kernel::{ClockDomain, Engine};
use noc_protocols::memory::access;
use noc_protocols::{CompletionLog, MemoryModel};
use noc_transaction::{
    AddressMap, ExclusiveMonitor, MstAddr, Opcode, RespStatus, SlvAddr, TransactionRequest,
    TransactionResponse,
};
use std::collections::VecDeque;

/// Bridge and reference-socket parameters — the penalties the paper
/// attributes to Fig 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgeConfig {
    /// Pipeline cycles a request spends inside a bridge.
    pub request_latency: u32,
    /// Pipeline cycles a response spends inside a bridge.
    pub response_latency: u32,
    /// The reference socket's maximum burst beats; longer socket bursts
    /// are chopped into several interconnect transactions.
    pub max_burst_beats: u32,
    /// Outstanding transactions a bridge sustains (feature clamping:
    /// multi-threaded / ID traffic is serialised to this many).
    pub bridge_outstanding: u32,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            request_latency: 2,
            response_latency: 2,
            max_burst_beats: 4,
            bridge_outstanding: 1,
        }
    }
}

#[derive(Clone)]
struct SubRequest {
    parent_slot: usize,
    /// The slave serving `addr`, decoded once when the parent is chopped:
    /// `None` on a decode miss, `slaves.len()` for a mapped node with
    /// no slave attached (never served).
    slave: Option<usize>,
    addr: u64,
    burst: noc_transaction::Burst,
    /// Where the chunk's bytes start in the parent's data: the bytes of
    /// the chunks before it.
    data_offset: usize,
    eligible_at: u64,
}

#[derive(Clone)]
struct InflightParent {
    req: TransactionRequest,
    collected: Vec<u8>,
    worst: RespStatus,
    remaining: usize,
    respond_at: u64,
    /// Exclusive-write verdict, decided once on the parent's first sub
    /// so a chopped exclusive write cannot half-land.
    exclusive_ok: Option<bool>,
}

#[derive(Clone, Default)]
struct BridgeState {
    /// In-flight socket transactions (bounded by `bridge_outstanding`).
    inflight: Vec<Option<InflightParent>>,
    /// Acceptance order of inflight slots: the reference socket is fully
    /// ordered, so responses return oldest-first.
    order: VecDeque<usize>,
    /// Chopped sub-requests awaiting crossbar service.
    subs: VecDeque<SubRequest>,
}

impl BridgeState {
    fn occupancy(&self) -> usize {
        self.inflight.iter().filter(|s| s.is_some()).count()
    }
}

#[derive(Clone)]
struct CentralSlave {
    node: SlvAddr,
    mem: MemoryModel,
    timing: SlaveTiming,
    busy_until: u64,
    locked_by: Option<usize>,
}

/// The bridged interconnect: per-master bridges feeding a central
/// crossbar whose reference socket is fully ordered.
///
/// Targets may serve different masters concurrently (it is a crossbar,
/// not a bus), but each bridge clamps its master to
/// [`BridgeConfig::bridge_outstanding`] transactions and chops bursts —
/// the protocol-feature loss of Fig 2.
#[derive(Clone)]
pub struct BridgedInterconnect {
    config: BridgeConfig,
    masters: Vec<AttachedMaster>,
    bridges: Vec<BridgeState>,
    map: AddressMap,
    slaves: Vec<CentralSlave>,
    monitor: ExclusiveMonitor,
    now: u64,
    steps: u64,
    chopped: u64,
}

impl BridgedInterconnect {
    /// Creates the interconnect over an address map.
    pub fn new(config: BridgeConfig, map: AddressMap) -> Self {
        BridgedInterconnect {
            config,
            masters: Vec::new(),
            bridges: Vec::new(),
            map,
            slaves: Vec::new(),
            monitor: ExclusiveMonitor::new(64, 16),
            now: 0,
            steps: 0,
            chopped: 0,
        }
    }

    /// Attaches a master behind a bridge.
    pub fn add_master(&mut self, master: AttachedMaster) -> &mut Self {
        self.masters.push(master);
        let mut state = BridgeState::default();
        state
            .inflight
            .resize_with(self.config.bridge_outstanding as usize, || None);
        self.bridges.push(state);
        self
    }

    /// Loads one socket program per attached master (attachment order)
    /// into an interconnect that has not started executing — the
    /// warm-state forking hook (see `Soc::load_programs` in
    /// `noc-system`).
    ///
    /// # Panics
    ///
    /// Panics if the interconnect already stepped, or if the program
    /// count does not match the master count.
    pub fn load_programs(&mut self, programs: &[noc_protocols::Program]) {
        assert!(
            self.now == 0 && self.steps == 0,
            "programs can only be loaded before execution starts"
        );
        assert_eq!(
            programs.len(),
            self.masters.len(),
            "one program per attached master"
        );
        for (master, program) in self.masters.iter_mut().zip(programs) {
            master.fe.load_program(program.clone());
        }
    }

    /// Attaches a memory slave at crossbar port `node`, the destination
    /// the address map decodes its range to.
    pub fn add_slave(&mut self, node: SlvAddr, mem: MemoryModel) -> &mut Self {
        self.add_slave_timed(node, mem, SlaveTiming::default())
    }

    /// Attaches a slave with explicit IP-side service timing (register
    /// blocks with a slower write path, banked AXI slave IPs).
    pub fn add_slave_timed(
        &mut self,
        node: SlvAddr,
        mem: MemoryModel,
        timing: SlaveTiming,
    ) -> &mut Self {
        self.slaves.push(CentralSlave {
            node,
            mem,
            timing,
            busy_until: 0,
            locked_by: None,
        });
        self
    }

    /// Number of burst chops performed (bridge overhead indicator).
    pub fn chopped_bursts(&self) -> u64 {
        self.chopped
    }

    /// Named completion logs per master, in attachment order.
    pub fn completion_logs(&self) -> Vec<(&str, &CompletionLog)> {
        self.masters
            .iter()
            .map(|m| (m.name.as_str(), m.fe.log()))
            .collect()
    }

    /// Runs until done or `max_cycles` (horizon stepping); returns
    /// whether every master drained.
    pub fn run(&mut self, max_cycles: u64) -> bool {
        self.advance_to(max_cycles);
        self.is_done()
    }

    fn worst(a: RespStatus, b: RespStatus) -> RespStatus {
        use RespStatus::*;
        let rank = |s: RespStatus| match s {
            Okay => 0,
            ExOkay => 1,
            ExFail => 2,
            SlvErr => 3,
            DecErr => 4,
        };
        if rank(b) > rank(a) {
            b
        } else {
            a
        }
    }
}

impl Engine for BridgedInterconnect {
    fn step(&mut self) {
        let now = self.now;
        self.steps += 1;
        for m in &mut self.masters {
            m.fe.tick(now);
        }
        // 1. Bridges accept a new socket transaction when a slot is free,
        //    and decode each of its chunks once.
        let (map, slaves) = (&self.map, &self.slaves);
        let route = |addr| {
            let dst = map.decode(addr).ok()?;
            let slave = slaves.iter().position(|s| s.node == dst);
            Some(slave.unwrap_or(slaves.len()))
        };
        for (midx, bridge) in self.bridges.iter_mut().enumerate() {
            if bridge.occupancy() >= self.config.bridge_outstanding as usize {
                continue;
            }
            if let Some(req) = self.masters[midx].fe.pull_request() {
                let chunks = req.burst().chop(req.address(), self.config.max_burst_beats);
                if chunks.len() > 1 {
                    self.chopped += 1;
                }
                let slot = bridge
                    .inflight
                    .iter()
                    .position(|s| s.is_none())
                    .expect("occupancy checked");
                bridge.inflight[slot] = Some(InflightParent {
                    req,
                    collected: Vec::new(),
                    worst: RespStatus::Okay,
                    remaining: chunks.len(),
                    respond_at: u64::MAX,
                    exclusive_ok: None,
                });
                bridge.order.push_back(slot);
                let mut data_offset = 0;
                for (addr, burst) in chunks {
                    bridge.subs.push_back(SubRequest {
                        parent_slot: slot,
                        slave: route(addr),
                        addr,
                        burst,
                        data_offset,
                        eligible_at: now + self.config.request_latency as u64,
                    });
                    data_offset += burst.total_bytes() as usize;
                }
            }
        }
        // 2. Crossbar: per slave, serve one eligible sub-request at a
        //    time (reference socket is fully ordered per connection).
        for sidx in 0..self.slaves.len() {
            if self.slaves[sidx].busy_until > now {
                continue;
            }
            // find an eligible sub targeting this slave, rotating over
            // masters for fairness
            let mut chosen: Option<(usize, SubRequest)> = None;
            for (midx, bridge) in self.bridges.iter_mut().enumerate() {
                let Some(front) = bridge.subs.front() else {
                    continue;
                };
                if front.eligible_at > now {
                    continue;
                }
                let Some(slave) = front.slave else {
                    // decode error: answered without slave service
                    let sub = bridge.subs.pop_front().expect("front exists");
                    let parent = bridge.inflight[sub.parent_slot]
                        .as_mut()
                        .expect("sub references live parent");
                    parent.worst = Self::worst(parent.worst, RespStatus::DecErr);
                    parent.remaining -= 1;
                    if parent.remaining == 0 {
                        parent.respond_at = now + self.config.response_latency as u64;
                    }
                    continue;
                };
                if slave != sidx {
                    continue;
                }
                // lock gate: exclusives emulated by target locking
                if let Some(owner) = self.slaves[sidx].locked_by {
                    if owner != midx {
                        continue;
                    }
                }
                let sub = bridge.subs.pop_front().expect("front exists");
                chosen = Some((midx, sub));
                break;
            }
            if let Some((midx, sub)) = chosen {
                let parent_req = &self.bridges[midx].inflight[sub.parent_slot]
                    .as_ref()
                    .expect("sub references live parent")
                    .req;
                let master = MstAddr::new(midx as u16);
                let (opcode, parent_addr) = (parent_req.opcode(), parent_req.address());
                // Legacy lock emulation: the READEX/LOCK sequence pins
                // the target until the unlocking write completes.
                match opcode {
                    Opcode::ReadLocked => self.slaves[sidx].locked_by = Some(midx),
                    Opcode::WriteUnlock => self.slaves[sidx].locked_by = None,
                    _ => {}
                }
                // Exclusive service: the crossbar's one monitor applies
                // the rule every target applies
                // (`ExclusiveMonitor::admit`). A chopped exclusive
                // access anchors at the *parent* request's address, like
                // the unchopped request the other backends see: each
                // chunk of an exclusive read re-arms the parent's granule
                // (arming per chunk would move the master's one
                // reservation to the last chunk's granule), and an
                // exclusive write is tried once, on its first chunk, so it
                // cannot half-land. Every admitted chunk of a write clears
                // the reservations on the granules it writes.
                let parent = self.bridges[midx].inflight[sub.parent_slot]
                    .as_mut()
                    .expect("sub references live parent");
                let admitted = match parent.exclusive_ok {
                    Some(won) => {
                        won && self
                            .monitor
                            .admit(master, opcode.plain(), sub.addr, sub.burst)
                    }
                    None if opcode.is_exclusive() => {
                        self.monitor.admit(master, opcode, parent_addr, sub.burst)
                    }
                    None => self.monitor.admit(master, opcode, sub.addr, sub.burst),
                };
                if opcode.is_exclusive() && opcode.is_write() {
                    parent.exclusive_ok = Some(admitted);
                }
                if !admitted {
                    // Reservation gone: answered by the interconnect
                    // without touching the slave — nothing lands, no
                    // occupancy.
                    parent.worst = Self::worst(parent.worst, RespStatus::ExFail);
                    parent.remaining -= 1;
                    if parent.remaining == 0 {
                        parent.respond_at = now + self.config.response_latency as u64;
                    }
                    continue;
                }
                let slave = &mut self.slaves[sidx];
                let wdata: &[u8] = if opcode.is_write() {
                    // The chunk's share of the parent's data, which holds
                    // the beats in burst order — clipped like the
                    // unchopped request's data is where it runs short.
                    let data = parent.req.data();
                    let end = sub.data_offset + sub.burst.total_bytes() as usize;
                    &data[sub.data_offset.min(data.len())..end.min(data.len())]
                } else {
                    &[]
                };
                let data = access(&mut slave.mem, opcode, sub.addr, sub.burst, wdata);
                let status = opcode.served(RespStatus::Okay);
                slave.busy_until = now
                    + slave
                        .timing
                        .latency_for(slave.mem.latency(), opcode, sub.addr)
                    + sub.burst.beats() as u64;
                let busy_until = slave.busy_until;
                if parent.collected.is_empty() {
                    // The first chunk's buffer is the response's buffer.
                    parent.collected = data;
                } else {
                    parent.collected.extend_from_slice(&data);
                }
                parent.worst = Self::worst(parent.worst, status);
                parent.remaining -= 1;
                if parent.remaining == 0 {
                    parent.respond_at = busy_until + self.config.response_latency as u64;
                }
            }
        }
        // 3. Bridges deliver completed socket responses, oldest first
        //    (the reference socket is fully ordered).
        for (midx, bridge) in self.bridges.iter_mut().enumerate() {
            let Some(&slot) = bridge.order.front() else {
                continue;
            };
            let ready = bridge.inflight[slot]
                .as_ref()
                .map(|p| p.remaining == 0 && now >= p.respond_at)
                .unwrap_or(false);
            if !ready {
                continue;
            }
            bridge.order.pop_front();
            let parent = bridge.inflight[slot].take().expect("checked some");
            if parent.req.opcode().expects_response() {
                let resp = TransactionResponse::new(
                    parent.worst,
                    MstAddr::new(midx as u16),
                    parent.req.dst(),
                    parent.req.tag(),
                    parent.collected,
                );
                self.masters[midx]
                    .fe
                    .push_response(parent.req.stream(), parent.req.opcode(), resp);
            }
        }
        self.now += 1;
    }

    fn is_done(&self) -> bool {
        self.masters.iter().all(|m| m.fe.done())
            && self
                .bridges
                .iter()
                .all(|b| b.subs.is_empty() && b.occupancy() == 0)
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn executed_steps(&self) -> u64 {
        self.steps
    }

    /// The true event horizon of the bridged pipeline — in-flight
    /// traffic does not force dense stepping. Three kinds of source are
    /// folded directly: master idle countdowns expiring, each bridge's
    /// front sub-request becoming serviceable, and each bridge's oldest
    /// in-flight parent delivering its response. The fold is a handful
    /// of comparisons per master, so there is no scan for a calendar to
    /// invert. Every bound is early, never late; an early answer costs
    /// one dense-identical step.
    ///
    /// A master is told its bridge accepts the held request only while
    /// the bridge has a free slot, the one gate on its pull. A slot
    /// frees only when a response is delivered, at a `respond_at` this
    /// fold already wakes for, so a master behind a full bridge sleeps
    /// until then.
    fn next_activity(&self) -> Option<u64> {
        let now = self.now;
        let outstanding = self.config.bridge_outstanding as usize;
        let attached = self.masters.iter().zip(&self.bridges);
        let masters = attached.filter_map(|(m, bridge)| {
            let accepting = bridge.occupancy() < outstanding;
            m.fe.wake(accepting).base_cycle(ClockDomain::BASE, now)
        });
        let bridges = self.bridges.iter().flat_map(|bridge| {
            let serviceable = bridge.subs.front().map(|front| {
                // Decode misses are consumed (as DECERR) the first time
                // any free slave's crossbar pass reaches them — `now`
                // under-approximates that safely, as it does for a node
                // no slave serves. Lock gating is also ignored: both can
                // only make the bound early.
                let slave_free_at = front
                    .slave
                    .and_then(|s| self.slaves.get(s))
                    .map_or(now, |s| s.busy_until);
                front.eligible_at.max(slave_free_at)
            });
            let respond = bridge.order.front().and_then(|&slot| {
                bridge.inflight[slot]
                    .as_ref()
                    .filter(|p| p.remaining == 0)
                    .map(|p| p.respond_at)
            });
            serviceable.into_iter().chain(respond)
        });
        masters.chain(bridges).min().map(|at| at.max(now))
    }

    fn skip_to(&mut self, target: u64) {
        let ticks = target - self.now;
        for m in &mut self.masters {
            m.fe.skip_ticks(ticks);
        }
        self.now = target;
    }
}

impl std::fmt::Debug for BridgedInterconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BridgedInterconnect")
            .field("masters", &self.masters.len())
            .field("slaves", &self.slaves.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_niu::fe::{AhbInitiator, OcpInitiator};
    use noc_protocols::ahb::AhbMaster;
    use noc_protocols::ocp::OcpMaster;
    use noc_protocols::SocketCommand;
    use noc_transaction::{BurstKind, StreamId};

    fn map_two() -> AddressMap {
        let mut m = AddressMap::new();
        m.add(0x0, 0x10000, SlvAddr::new(0)).unwrap();
        m.add(0x10000, 0x20000, SlvAddr::new(1)).unwrap();
        m
    }

    fn bridged() -> BridgedInterconnect {
        let mut b = BridgedInterconnect::new(BridgeConfig::default(), map_two());
        b.add_slave(SlvAddr::new(0), MemoryModel::new(2));
        b.add_slave(SlvAddr::new(1), MemoryModel::new(2));
        b
    }

    #[test]
    fn write_then_read_round_trip() {
        let program = vec![
            SocketCommand::write(0x100, 4, 5).with_burst(BurstKind::Incr, 2),
            SocketCommand::read(0x100, 4).with_burst(BurstKind::Incr, 2),
        ];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(AhbInitiator::new(AhbMaster::new(program))),
        ));
        assert!(ic.run(20_000));
        let recs = ic.completion_logs()[0].1.records();
        assert_eq!(recs[0].data, recs[1].data);
    }

    #[test]
    fn long_bursts_are_chopped() {
        let program = vec![SocketCommand::write(0x0, 4, 1).with_burst(BurstKind::Incr, 16)];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "dma",
            Box::new(AhbInitiator::new(AhbMaster::new(program))),
        ));
        assert!(ic.run(20_000));
        assert_eq!(ic.chopped_bursts(), 1);
        assert_eq!(ic.completion_logs()[0].1.len(), 1);
    }

    #[test]
    fn bridge_latency_slower_than_direct() {
        // One single-beat read: bridged latency must include 2+2 bridge
        // cycles on top of slave latency.
        let program = vec![SocketCommand::read(0x40, 4)];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(AhbInitiator::new(AhbMaster::new(program))),
        ));
        assert!(ic.run(20_000));
        let lat = ic.completion_logs()[0].1.records()[0].latency();
        assert!(lat >= 7, "bridged read latency {lat} must include bridges");
    }

    #[test]
    fn different_targets_served_in_parallel() {
        let m0 = vec![SocketCommand::read(0x100, 4)];
        let m1 = vec![SocketCommand::read(0x10100, 4)];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "a",
            Box::new(AhbInitiator::new(AhbMaster::new(m0))),
        ));
        ic.add_master(AttachedMaster::new(
            "b",
            Box::new(AhbInitiator::new(AhbMaster::new(m1))),
        ));
        assert!(ic.run(20_000));
        let l0 = ic.completion_logs()[0].1.records()[0].latency();
        let l1 = ic.completion_logs()[1].1.records()[0].latency();
        // crossbar parallelism: neither waits for the other
        assert!(l0.abs_diff(l1) <= 2, "latencies {l0} vs {l1}");
    }

    #[test]
    fn multithreaded_master_is_serialised_by_bridge() {
        // Two threads, each reading from a different target. With the
        // clamped bridge (1 outstanding) the threads serialise; widening
        // the bridge restores the concurrency the socket offers.
        let program = vec![
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x10000, 4).with_stream(StreamId::new(1)),
        ];
        let finish = |outstanding: u32| {
            let cfg = BridgeConfig {
                bridge_outstanding: outstanding,
                ..BridgeConfig::default()
            };
            let mut ic = BridgedInterconnect::new(cfg, map_two());
            ic.add_slave(SlvAddr::new(0), MemoryModel::new(2));
            ic.add_slave(SlvAddr::new(1), MemoryModel::new(2));
            ic.add_master(AttachedMaster::new(
                "video",
                Box::new(OcpInitiator::new(OcpMaster::new(program.clone(), 2, 2))),
            ));
            assert!(ic.run(20_000));
            ic.completion_logs()[0]
                .1
                .records()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap()
        };
        let serial = finish(1);
        let parallel = finish(2);
        assert!(
            serial > parallel,
            "clamped bridge ({serial}) must be slower than wide bridge ({parallel})"
        );
    }

    #[test]
    fn uncontended_exclusive_pair_succeeds_via_monitor() {
        let program = vec![
            SocketCommand::read(0x40, 4)
                .with_opcode(Opcode::ReadExclusive)
                .with_stream(StreamId::new(0)),
            SocketCommand::write(0x40, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_stream(StreamId::new(0)),
        ];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(OcpInitiator::new(OcpMaster::new(program, 1, 1))),
        ));
        assert!(ic.run(20_000));
        let recs = ic.completion_logs()[0].1.records();
        assert!(recs.iter().all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn chopped_exclusive_read_keeps_the_parent_reservation() {
        // A 16-beat exclusive read is chopped at max_burst_beats = 4;
        // the reservation must stay on the parent's granule, not drift
        // to the last chunk's, so the exclusive write still wins.
        let program = vec![
            SocketCommand::read(0x20, 4)
                .with_opcode(Opcode::ReadExclusive)
                .with_burst(BurstKind::Incr, 16)
                .with_stream(StreamId::new(0)),
            SocketCommand::write(0x20, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_stream(StreamId::new(0)),
        ];
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "cpu",
            Box::new(OcpInitiator::new(OcpMaster::new(program, 1, 1))),
        ));
        assert!(ic.run(20_000));
        assert_eq!(ic.chopped_bursts(), 1);
        let recs = ic.completion_logs()[0].1.records();
        assert!(
            recs.iter().all(|r| r.status == RespStatus::ExOkay),
            "{:?}",
            recs.iter().map(|r| r.status).collect::<Vec<_>>()
        );
    }

    #[test]
    fn contended_exclusive_pair_has_exactly_one_winner() {
        // Both masters arm before either writes (delays pin the order);
        // the first exclusive write clears the loser's reservation. OCP
        // sockets preserve the EXOKAY/EXFAIL vocabulary (AHB's HRESP
        // would collapse it).
        let pair = |offset: u32| {
            vec![
                SocketCommand::read(0x40, 4)
                    .with_opcode(Opcode::ReadExclusive)
                    .with_delay(offset),
                SocketCommand::write(0x40, 4, 9)
                    .with_opcode(Opcode::WriteExclusive)
                    .with_delay(200),
            ]
        };
        let mut ic = bridged();
        ic.add_master(AttachedMaster::new(
            "a",
            Box::new(OcpInitiator::new(OcpMaster::new(pair(0), 1, 1))),
        ));
        ic.add_master(AttachedMaster::new(
            "b",
            Box::new(OcpInitiator::new(OcpMaster::new(pair(50), 1, 1))),
        ));
        assert!(ic.run(20_000));
        let verdicts: Vec<RespStatus> = ic
            .completion_logs()
            .iter()
            .map(|(_, l)| l.records().iter().find(|r| r.index == 1).unwrap().status)
            .collect();
        assert_eq!(
            verdicts
                .iter()
                .filter(|s| **s == RespStatus::ExOkay)
                .count(),
            1,
            "exactly one contended exclusive write may win: {verdicts:?}"
        );
        assert!(verdicts.contains(&RespStatus::ExFail));
    }
}
