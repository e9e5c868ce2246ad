//! AMBA AHB 2.0 socket model.
//!
//! AHB is the canonical *fully ordered* socket of paper §3: a single
//! outstanding transaction (pipelined address/data collapse into one
//! request/response exchange here), responses strictly in request order,
//! and locked sequences via `HMASTLOCK` — the master raises the lock with
//! a [`Opcode::ReadLocked`] and drops it with the matching
//! [`Opcode::WriteUnlock`].

use crate::command::{
    CompletionLog, CompletionRecord, Program, ProgramTail, ProtocolKind, SocketCommand,
};
use crate::handshake::Chan;
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, MstAddr, Opcode, RespStatus, StreamId};
use std::fmt;

/// An AHB request: address phase plus (for writes) the data phase bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhbReq {
    /// Canonical opcode (AHB knows reads, writes and locked variants).
    pub opcode: Opcode,
    /// `HADDR`.
    pub addr: u64,
    /// `HBURST`/`HSIZE` as a canonical burst.
    pub burst: Burst,
    /// Write data (`HWDATA` beats), empty for reads.
    pub data: Vec<u8>,
    /// `HMASTLOCK` state during this transfer.
    pub locked: bool,
}

/// An AHB response: `HRESP` plus read data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AhbResp {
    /// Response status (AHB only distinguishes OKAY/ERROR; richer NoC
    /// statuses are mapped by the NIU before reaching the socket).
    pub status: RespStatus,
    /// Read data (`HRDATA` beats), empty for writes.
    pub data: Vec<u8>,
}

/// The AHB master↔slave port: one request and one response channel.
#[derive(Debug, Clone)]
pub struct AhbPort {
    /// Master → slave requests.
    pub req: Chan<AhbReq>,
    /// Slave → master responses.
    pub resp: Chan<AhbResp>,
}

impl AhbPort {
    /// Creates an unregistered (capacity-1) port.
    pub fn new() -> Self {
        AhbPort {
            req: Chan::new(1),
            resp: Chan::new(1),
        }
    }
}

impl Default for AhbPort {
    fn default() -> Self {
        AhbPort::new()
    }
}

/// An AHB master agent executing a [`Program`] with single-outstanding,
/// fully-ordered semantics.
///
/// # Examples
///
/// ```
/// use noc_protocols::ahb::{AhbMaster, AhbPort, AhbSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
///
/// let program = vec![
///     SocketCommand::write(0x100, 4, 1),
///     SocketCommand::read(0x100, 4),
/// ];
/// let mut master = AhbMaster::new(program);
/// let mut slave = AhbSlave::new(MemoryModel::new(2));
/// let mut port = AhbPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// assert_eq!(master.log().len(), 2);
/// // The read observed the written data:
/// assert_eq!(master.log().records()[1].data, master.log().records()[0].data);
/// ```
#[derive(Debug, Clone)]
pub struct AhbMaster {
    program: ProgramTail,
    pc: usize,
    wait: Option<u32>,
    outstanding: Option<(usize, u64)>,
    locked: bool,
    log: CompletionLog,
}

impl AhbMaster {
    /// Creates a master that will execute `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program contains an opcode that is never answered:
    /// a response is what retires an AHB command (see
    /// [`ProtocolKind::expresses`]).
    pub fn new(program: Program) -> Self {
        for (i, cmd) in program.iter().enumerate() {
            ProtocolKind::Ahb.assert_expresses(i, cmd);
        }
        AhbMaster {
            program: ProgramTail::new(program),
            pc: 0,
            wait: None,
            outstanding: None,
            locked: false,
            log: CompletionLog::new(),
        }
    }

    /// Appends commands to the end of the program, mid-run. As long as
    /// the master has not yet drained (there are unissued commands, or
    /// there is nothing more to append), the append instant is
    /// unobservable: the run is bit-identical to constructing the master
    /// with the full program up front. Feeding layers rely on that to
    /// stream unbounded workloads through a bounded window; the
    /// fully-retired prefix is reclaimed on each call.
    ///
    /// # Panics
    ///
    /// Panics if a command carries an opcode that is never answered.
    pub fn append_commands(&mut self, tail: &[SocketCommand]) {
        for cmd in tail {
            ProtocolKind::Ahb.assert_expresses(self.program.len(), cmd);
            self.program.push(cmd.clone());
        }
        let live = self
            .outstanding
            .map_or(self.pc, |(idx, _)| idx.min(self.pc));
        self.program.compact_to(live);
    }

    /// Replaces the program of a master that has not started executing.
    /// Equivalent to constructing the master with `program` in the first
    /// place — warm-state forking relies on that equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command.
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.pc == 0 && self.outstanding.is_none() && self.log.is_empty(),
            "programs can only be loaded before execution starts"
        );
        *self = AhbMaster::new(program);
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.pc >= self.program.len() && self.outstanding.is_none()
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Returns `true` while the master is inside a locked sequence.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Number of immediately upcoming socket ticks that are provably
    /// no-ops, assuming no response reaches the port meanwhile.
    /// `u64::MAX` means the master is quiescent until new input; `0`
    /// means the very next tick may change state.
    pub fn idle_ticks(&self) -> u64 {
        if self.outstanding.is_some() || self.pc >= self.program.len() {
            // Waiting on a response, or drained: nothing happens until
            // input arrives (or ever).
            return u64::MAX;
        }
        self.wait
            .map(u64::from)
            .unwrap_or(self.program.get(self.pc).delay_before as u64)
    }

    /// Accounts `ticks` socket cycles skipped under the [`idle_ticks`]
    /// contract: afterwards the master is in exactly the state `ticks`
    /// dense no-op ticks would have left it in.
    ///
    /// [`idle_ticks`]: AhbMaster::idle_ticks
    pub fn skip_ticks(&mut self, ticks: u64) {
        if self.outstanding.is_some() || self.pc >= self.program.len() {
            return; // dense ticks would not have touched the countdown
        }
        let wait = self
            .wait
            .get_or_insert(self.program.get(self.pc).delay_before);
        *wait = wait.saturating_sub(ticks.min(u32::MAX as u64) as u32);
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut AhbPort) {
        // Retire the outstanding transfer if its response arrived.
        if let Some((idx, issued_at)) = self.outstanding {
            if let Some(resp) = port.resp.take() {
                let cmd = self.program.get(idx);
                let data = if cmd.opcode.is_read() {
                    resp.data
                } else {
                    cmd.payload()
                };
                self.log.push(CompletionRecord {
                    index: idx,
                    opcode: cmd.opcode,
                    addr: cmd.addr,
                    status: resp.status,
                    data,
                    stream: StreamId::ZERO,
                    issued_at,
                    completed_at: cycle,
                });
                if cmd.opcode == Opcode::WriteUnlock {
                    self.locked = false;
                }
                self.outstanding = None;
            } else {
                return; // fully ordered: nothing else may happen
            }
        }
        // Issue the next command.
        if self.pc >= self.program.len() {
            return;
        }
        let delay = self.program.get(self.pc).delay_before;
        let wait = self.wait.get_or_insert(delay);
        if *wait > 0 {
            *wait -= 1;
            return;
        }
        if !port.req.ready() {
            return; // the offer would be refused: build no payload for it
        }
        let cmd = self.program.get(self.pc);
        let locked_now = self.locked || cmd.opcode == Opcode::ReadLocked;
        let req = AhbReq {
            opcode: cmd.opcode,
            addr: cmd.addr,
            burst: cmd.burst(),
            data: if cmd.opcode.is_write() {
                cmd.payload()
            } else {
                Vec::new()
            },
            locked: locked_now,
        };
        if port.req.offer(req) {
            if cmd.opcode == Opcode::ReadLocked {
                self.locked = true;
            }
            self.outstanding = Some((self.pc, cycle));
            self.pc += 1;
            self.wait = None;
        }
    }
}

/// An AHB slave agent backed by a [`MemoryModel`].
///
/// Response timing: `latency + beats` cycles after request acceptance
/// (the beats term charges the data phases a real AHB transfer occupies).
#[derive(Debug, Clone)]
pub struct AhbSlave {
    mem: MemoryModel,
    pending: Option<(AhbReq, u64)>,
}

impl AhbSlave {
    /// Creates a slave over `mem`.
    pub fn new(mem: MemoryModel) -> Self {
        AhbSlave { mem, pending: None }
    }

    /// The backing memory (for test inspection).
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut AhbPort) {
        if self.pending.is_none() {
            if let Some(req) = port.req.take() {
                let ready = cycle + self.mem.latency() as u64 + req.burst.beats() as u64;
                self.pending = Some((req, ready));
            }
        }
        if let Some((req, ready)) = &self.pending {
            if cycle >= *ready && port.resp.ready() {
                let (status, data) = access(
                    &mut self.mem,
                    req.opcode,
                    req.addr,
                    req.burst,
                    &req.data,
                    None,
                    MstAddr::new(0),
                );
                // AHB cannot express EXOKAY: collapse to OKAY.
                let status = match status {
                    RespStatus::ExOkay => RespStatus::Okay,
                    s => s,
                };
                port.resp.offer(AhbResp { status, data });
                self.pending = None;
            }
        }
    }
}

impl fmt::Display for AhbMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ahb-master pc={}/{} ({} done)",
            self.pc,
            self.program.len(),
            self.log.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ahb_order;
    use crate::command::SocketCommand;
    use noc_transaction::BurstKind;

    fn run(program: Program, latency: u32, cycles: u64) -> (AhbMaster, AhbSlave) {
        let mut master = AhbMaster::new(program);
        let mut slave = AhbSlave::new(MemoryModel::new(latency));
        let mut port = AhbPort::new();
        for cycle in 0..cycles {
            master.tick(cycle, &mut port);
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        (master, slave)
    }

    #[test]
    #[should_panic(expected = "AHB cannot express WritePosted (command 0)")]
    fn posted_writes_are_refused_instead_of_parking_forever() {
        AhbMaster::new(vec![
            SocketCommand::write(0, 4, 1).with_opcode(Opcode::WritePosted)
        ]);
    }

    #[test]
    fn single_read_completes() {
        let (m, _) = run(vec![SocketCommand::read(0x10, 4)], 1, 50);
        assert!(m.done());
        assert_eq!(m.log().len(), 1);
        assert_eq!(m.log().records()[0].status, RespStatus::Okay);
        assert_eq!(m.log().records()[0].data.len(), 4);
    }

    #[test]
    fn write_read_data_integrity() {
        let program = vec![
            SocketCommand::write(0x200, 4, 99).with_burst(BurstKind::Incr, 4),
            SocketCommand::read(0x200, 4).with_burst(BurstKind::Incr, 4),
        ];
        let (m, _) = run(program, 2, 100);
        assert!(m.done());
        let recs = m.log().records();
        assert_eq!(recs[0].data, recs[1].data, "read returns written data");
        assert_eq!(recs[1].data.len(), 16);
    }

    #[test]
    fn completions_in_program_order() {
        let program: Program = (0..10)
            .map(|i| SocketCommand::read(0x100 + i * 4, 4))
            .collect();
        let (m, _) = run(program, 1, 500);
        assert!(m.done());
        assert!(check_ahb_order(m.log()).is_ok());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn single_outstanding_enforced_by_latency() {
        // With latency 10 per op, 3 ops take >= 30 cycles (no pipelining).
        let program: Program = (0..3).map(|i| SocketCommand::read(i * 4, 4)).collect();
        let (m, _) = run(program, 10, 500);
        let last = m.log().records().last().unwrap();
        assert!(
            last.completed_at >= 33,
            "completed at {}",
            last.completed_at
        );
    }

    #[test]
    fn delay_before_respected() {
        let program = vec![
            SocketCommand::read(0, 4),
            SocketCommand::read(4, 4).with_delay(20),
        ];
        let (m, _) = run(program, 1, 200);
        let recs = m.log().records();
        assert!(
            recs[1].issued_at >= recs[0].completed_at + 20,
            "second issue {} vs first completion {}",
            recs[1].issued_at,
            recs[0].completed_at
        );
    }

    #[test]
    fn locked_sequence_tracks_hmastlock() {
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLocked),
            SocketCommand::write(0x40, 4, 7).with_opcode(Opcode::WriteUnlock),
            SocketCommand::read(0x80, 4),
        ];
        let mut master = AhbMaster::new(program);
        let mut slave = AhbSlave::new(MemoryModel::new(1));
        let mut port = AhbPort::new();
        let mut saw_locked = false;
        for cycle in 0..200 {
            master.tick(cycle, &mut port);
            if let Some(req) = port.req.peek() {
                if req.locked {
                    saw_locked = true;
                }
                if req.opcode == Opcode::Read {
                    assert!(!req.locked, "lock must drop after WriteUnlock");
                }
            }
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        assert!(master.done());
        assert!(saw_locked);
        assert!(!master.is_locked());
    }

    #[test]
    fn slave_charges_burst_occupancy() {
        let one = vec![SocketCommand::read(0, 4)];
        let (m1, _) = run(one, 1, 100);
        let burst = vec![SocketCommand::read(0, 4).with_burst(BurstKind::Incr, 16)];
        let (m16, _) = run(burst, 1, 100);
        assert!(
            m16.log().records()[0].latency() > m1.log().records()[0].latency(),
            "longer bursts take longer on the socket"
        );
    }

    #[test]
    fn display() {
        let m = AhbMaster::new(vec![]);
        assert!(m.to_string().contains("ahb-master"));
    }

    #[test]
    fn skip_ticks_matches_dense_countdown() {
        let program = vec![SocketCommand::read(0, 4).with_delay(10)];
        let mut dense = AhbMaster::new(program.clone());
        let mut skipped = AhbMaster::new(program);
        let mut port_d = AhbPort::new();
        let mut port_s = AhbPort::new();
        for c in 0..10 {
            dense.tick(c, &mut port_d);
            assert!(port_d.req.is_empty(), "cycle {c} is a pure countdown");
        }
        assert_eq!(skipped.idle_ticks(), 10);
        skipped.skip_ticks(10);
        assert_eq!(skipped.idle_ticks(), 0);
        dense.tick(10, &mut port_d);
        skipped.tick(10, &mut port_s);
        assert_eq!(
            port_d.req.take(),
            port_s.req.take(),
            "same issue, same cycle"
        );
        // waiting on a response / drained = quiescent until input
        assert_eq!(dense.idle_ticks(), u64::MAX);
        assert_eq!(AhbMaster::new(vec![]).idle_ticks(), u64::MAX);
    }
}
