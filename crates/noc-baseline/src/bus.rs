//! The shared pipelined bus baseline.

use crate::{AttachedMaster, SlaveTiming};
use noc_kernel::{ClockDomain, Engine};
use noc_protocols::memory::access;
use noc_protocols::{CompletionLog, MemoryModel};
use noc_transaction::{
    AddressMap, ExclusiveMonitor, MstAddr, Opcode, RespStatus, TransactionRequest,
    TransactionResponse,
};

/// Bus timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Cycles from grant to address-phase completion.
    pub arbitration_cycles: u32,
    /// Extra cycles per data beat on the shared data wires.
    pub cycles_per_beat: u32,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            arbitration_cycles: 1,
            cycles_per_beat: 1,
        }
    }
}

#[derive(Clone)]
struct BusSlave {
    base: u64,
    mem: MemoryModel,
    timing: SlaveTiming,
}

/// An AHB-style shared bus: one transaction occupies the bus at a time;
/// masters arbitrate round-robin; locked sequences hold the grant.
///
/// Multi-threaded and ID-based masters lose their concurrency here —
/// everything is serialised, which is exactly what the Fig 1 / Fig 2
/// comparison measures.
#[derive(Clone)]
pub struct SharedBus {
    config: BusConfig,
    masters: Vec<AttachedMaster>,
    map: AddressMap,
    slaves: Vec<BusSlave>,
    monitor: ExclusiveMonitor,
    rr: usize,
    lock_owner: Option<usize>,
    /// In-service transaction: (master, request, completion cycle, its
    /// slave as resolved at grant — see [`SharedBus::route`]).
    busy: Option<(usize, TransactionRequest, u64, Option<Option<usize>>)>,
    now: u64,
    steps: u64,
    granted: u64,
}

impl SharedBus {
    /// Creates a bus over the given address map.
    pub fn new(config: BusConfig, map: AddressMap) -> Self {
        SharedBus {
            config,
            masters: Vec::new(),
            map,
            slaves: Vec::new(),
            monitor: ExclusiveMonitor::new(64, 16),
            rr: 0,
            lock_owner: None,
            busy: None,
            now: 0,
            steps: 0,
            granted: 0,
        }
    }

    /// Attaches a master front end.
    pub fn add_master(&mut self, master: AttachedMaster) -> &mut Self {
        self.masters.push(master);
        self
    }

    /// Loads one socket program per attached master (attachment order)
    /// into a bus that has not started executing — the warm-state
    /// forking hook (see `Soc::load_programs` in `noc-system`).
    ///
    /// # Panics
    ///
    /// Panics if the bus already stepped, or if the program count does
    /// not match the master count.
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

    /// Attaches a memory slave serving the address range that the map
    /// assigns it (identified by base address).
    pub fn add_slave(&mut self, base: u64, mem: MemoryModel) -> &mut Self {
        self.add_slave_timed(base, mem, SlaveTiming::default())
    }

    /// Attaches a slave with explicit IP-side service timing (register
    /// blocks with a slower write path, banked AXI slave IPs).
    pub fn add_slave_timed(
        &mut self,
        base: u64,
        mem: MemoryModel,
        timing: SlaveTiming,
    ) -> &mut Self {
        self.slaves.push(BusSlave { base, mem, timing });
        self
    }

    /// Total grants issued (bus transactions).
    pub fn grants(&self) -> u64 {
        self.granted
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

    /// Resolves `addr` once, at grant: `None` when the map misses it,
    /// else the slave whose base falls inside its range (`Some(None)`
    /// when no slave is attached there).
    fn route(&self, addr: u64) -> Option<Option<usize>> {
        let range = self.map.iter().find(|(r, _)| r.contains(addr))?;
        Some(self.slaves.iter().position(|s| range.0.contains(s.base)))
    }
}

impl Engine for SharedBus {
    fn step(&mut self) {
        let now = self.now;
        self.steps += 1;
        for m in &mut self.masters {
            m.fe.tick(now);
        }
        // Complete the in-service transaction.
        if let Some(&(_, _, done_at, _)) = self.busy.as_ref() {
            if now >= done_at {
                let (midx, req, _, route) = self.busy.take().expect("matched in service");
                let master = MstAddr::new(midx as u16);
                let (opcode, addr, burst) = (req.opcode(), req.address(), req.burst());
                let (status, data) = match route {
                    None => (RespStatus::DecErr, Vec::new()),
                    // The one synchronisation rule first (the bus is the
                    // single serialisation point), even for a mapped node
                    // with no slave: a refused exclusive write is answered
                    // EXFAIL, touches nothing and grants no one this step.
                    Some(_) if !self.monitor.admit(master, opcode, addr, burst) => {
                        let resp = TransactionResponse::new(
                            RespStatus::ExFail,
                            master,
                            req.dst(),
                            req.tag(),
                            Vec::new(),
                        );
                        self.masters[midx]
                            .fe
                            .push_response(req.stream(), opcode, resp);
                        self.now += 1;
                        return;
                    }
                    Some(Some(slave)) => {
                        let mem = &mut self.slaves[slave].mem;
                        let data = access(mem, opcode, addr, burst, req.data());
                        (opcode.served(RespStatus::Okay), data)
                    }
                    Some(None) => (RespStatus::DecErr, Vec::new()),
                };
                // Lock bookkeeping.
                match opcode {
                    Opcode::ReadLocked => self.lock_owner = Some(midx),
                    Opcode::WriteUnlock => self.lock_owner = None,
                    _ => {}
                }
                if opcode.expects_response() {
                    let resp = TransactionResponse::new(status, master, req.dst(), req.tag(), data);
                    self.masters[midx]
                        .fe
                        .push_response(req.stream(), opcode, resp);
                }
            }
        }
        // Grant the bus (round-robin, lock owner has absolute priority).
        if self.busy.is_none() {
            let n = self.masters.len();
            let (first, candidates) = match self.lock_owner {
                Some(owner) => (owner, 1),
                None => (self.rr, n),
            };
            for midx in (0..candidates).map(|k| (first + k) % n) {
                if let Some(req) = self.masters[midx].fe.pull_request() {
                    let beats = req.burst().beats();
                    let (opcode, addr) = (req.opcode(), req.address());
                    let route = self.route(addr);
                    let slave_latency = route.flatten().map_or(0, |s| {
                        let s = &self.slaves[s];
                        s.timing.latency_for(s.mem.latency(), opcode, addr)
                    });
                    let done_at = now
                        + self.config.arbitration_cycles as u64
                        + (beats * self.config.cycles_per_beat) as u64
                        + slave_latency;
                    self.busy = Some((midx, req, done_at, route));
                    self.granted += 1;
                    self.rr = (midx + 1) % n;
                    break;
                }
            }
        }
        self.now += 1;
    }

    fn is_done(&self) -> bool {
        self.busy.is_none() && self.masters.iter().all(|m| m.fe.done())
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn executed_steps(&self) -> u64 {
        self.steps
    }

    /// The nearest master self-activity (idle countdowns expiring) or
    /// the in-service transaction completing (`done_at`), whichever
    /// comes first. A direct fold: with one source per master plus one
    /// for the bus there is no scan for a calendar to invert.
    ///
    /// A master is told the bus accepts its held request only when the
    /// grant loop would pull it at the next step: the bus is free by
    /// then and the lock, if any, is this master's. Any other master's
    /// request can be pulled no sooner than the completion that frees
    /// the bus or lifts the lock, at a `done_at` this fold wakes for, so
    /// it sleeps until then.
    fn next_activity(&self) -> Option<u64> {
        let now = self.now;
        let done = self.busy.as_ref().map(|&(_, _, done_at, _)| done_at);
        let free = done.is_none_or(|at| at <= now);
        let masters = self.masters.iter().enumerate().filter_map(|(i, m)| {
            let accepting = free && self.lock_owner.is_none_or(|owner| owner == i);
            m.fe.wake(accepting).base_cycle(ClockDomain::BASE, now)
        });
        masters.chain(done).min().map(|at| at.max(now))
    }

    fn skip_to(&mut self, target: u64) {
        let ticks = target - self.now;
        for m in &mut self.masters {
            m.fe.skip_ticks(ticks);
        }
        self.now = target;
    }
}

impl std::fmt::Debug for SharedBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBus")
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
    use noc_protocols::{Program, SocketCommand};
    use noc_transaction::SlvAddr;

    fn map_one() -> AddressMap {
        let mut m = AddressMap::new();
        m.add(0x0, 0x10000, SlvAddr::new(0)).unwrap();
        m
    }

    fn bus_with(programs: Vec<Program>) -> SharedBus {
        let mut bus = SharedBus::new(BusConfig::default(), map_one());
        for (i, p) in programs.into_iter().enumerate() {
            bus.add_master(AttachedMaster::new(
                &format!("m{i}"),
                Box::new(AhbInitiator::new(AhbMaster::new(p))),
            ));
        }
        bus.add_slave(0x0, MemoryModel::new(2));
        bus
    }

    #[test]
    fn single_master_read_write() {
        let program = vec![
            SocketCommand::write(0x100, 4, 5),
            SocketCommand::read(0x100, 4),
        ];
        let mut bus = bus_with(vec![program]);
        assert!(bus.run(10_000));
        let logs = bus.completion_logs();
        assert_eq!(logs[0].1.len(), 2);
        let recs = logs[0].1.records();
        assert_eq!(recs[0].data, recs[1].data);
    }

    #[test]
    fn bus_serialises_masters() {
        let mk = |seed| vec![SocketCommand::write(0x100 + seed * 0x10, 4, seed)];
        let mut bus = bus_with(vec![mk(1), mk(2), mk(3)]);
        assert!(bus.run(10_000));
        assert_eq!(bus.grants(), 3);
        // completions cannot overlap: end cycles strictly ordered
        let mut ends: Vec<u64> = bus
            .completion_logs()
            .iter()
            .map(|(_, l)| l.records()[0].completed_at)
            .collect();
        ends.sort_unstable();
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ocp_threads_lose_concurrency_on_bus() {
        // Two threads issuing two reads each: on the bus they serialise.
        let program = vec![
            SocketCommand::read(0x000, 4).with_stream(noc_transaction::StreamId::new(0)),
            SocketCommand::read(0x100, 4).with_stream(noc_transaction::StreamId::new(1)),
            SocketCommand::read(0x004, 4).with_stream(noc_transaction::StreamId::new(0)),
            SocketCommand::read(0x104, 4).with_stream(noc_transaction::StreamId::new(1)),
        ];
        let mut bus = SharedBus::new(BusConfig::default(), map_one());
        bus.add_master(AttachedMaster::new(
            "ocp",
            Box::new(OcpInitiator::new(OcpMaster::new(program, 2, 2))),
        ));
        bus.add_slave(0x0, MemoryModel::new(2));
        assert!(bus.run(10_000));
        assert_eq!(bus.completion_logs()[0].1.len(), 4);
    }

    #[test]
    fn locked_sequence_holds_grant() {
        let locker = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLocked),
            SocketCommand::write(0x40, 4, 7).with_opcode(Opcode::WriteUnlock),
        ];
        let other = vec![SocketCommand::read(0x80, 4)];
        let mut bus = bus_with(vec![locker, other]);
        assert!(bus.run(10_000));
        // Both finish; the locked pair is back-to-back.
        let logs = bus.completion_logs();
        assert_eq!(logs[0].1.len(), 2);
        assert_eq!(logs[1].1.len(), 1);
    }

    /// A master whose read waits out another master's locked sequence
    /// sleeps until the unlocking write completes: the bus is free for
    /// most of the lock, but the grant loop admits only the lock owner,
    /// so the waiter is told nobody takes its request. Horizon stepping
    /// equals dense stepping record for record, on a handful of steps.
    #[test]
    fn a_master_locked_out_sleeps_until_the_unlock() {
        let locker = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLocked),
            SocketCommand::write(0x40, 4, 7)
                .with_opcode(Opcode::WriteUnlock)
                .with_delay(100),
        ];
        let waiter = vec![SocketCommand::read(0x80, 4).with_delay(5)];
        let mut dense = bus_with(vec![locker, waiter]);
        let mut horizon = dense.clone();
        while !dense.is_done() {
            dense.step();
        }
        assert!(horizon.run(10_000));
        let records = |bus: &SharedBus| -> Vec<_> {
            bus.completion_logs()
                .iter()
                .map(|(_, l)| l.records().to_vec())
                .collect()
        };
        assert_eq!(records(&horizon), records(&dense));
        assert_eq!(horizon.now(), dense.now());
        let waited = records(&dense)[1][0].latency();
        assert!(waited > 90, "the read waits out the lock ({waited} cycles)");
        assert!(
            horizon.executed_steps() < 20,
            "{} steps over {} cycles",
            horizon.executed_steps(),
            horizon.now()
        );
    }

    #[test]
    fn exclusive_pair_on_bus() {
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x40, 4, 9).with_opcode(Opcode::WriteExclusive),
        ];
        let mut bus = SharedBus::new(BusConfig::default(), map_one());
        bus.add_master(AttachedMaster::new(
            "ocp",
            Box::new(OcpInitiator::new(OcpMaster::new(
                program
                    .into_iter()
                    .map(|c| c.with_stream(noc_transaction::StreamId::new(0)))
                    .collect(),
                1,
                1,
            ))),
        ));
        bus.add_slave(0x0, MemoryModel::new(1));
        assert!(bus.run(10_000));
        let recs = bus.completion_logs()[0].1.records();
        assert!(recs.iter().all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn unmapped_address_decerr() {
        let program = vec![SocketCommand::read(0xDEAD_0000, 4)];
        let mut bus = bus_with(vec![program]);
        assert!(bus.run(10_000));
        assert_eq!(
            bus.completion_logs()[0].1.records()[0].status,
            RespStatus::DecErr
        );
    }
}
