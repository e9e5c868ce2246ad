//! A proprietary streaming socket (`STRM`).
//!
//! The paper's Fig 1 includes "proprietary" and "other" VC sockets; this
//! module is ours, demonstrating that the NoC transaction layer absorbs a
//! non-standard socket through nothing but an NIU. `STRM` is typical of
//! display/capture pipelines:
//!
//! - posted write bursts (`tx`) that complete on acceptance, and
//! - address-sequential read requests (`rreq`/`rdata`) with an *urgency*
//!   sideband that the NIU maps to NoC pressure (QoS) — a socket-specific
//!   feature supported per paper §2 by adding packet bits, not by
//!   touching the fabric.

use crate::command::{
    CompletionLog, CompletionRecord, Program, ProgramTail, ProtocolKind, SocketCommand,
};
use crate::handshake::Chan;
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, MstAddr, Opcode, RespStatus, StreamId};
use std::collections::VecDeque;
use std::fmt;

/// A posted streaming write burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrmWrite {
    /// Destination address of the burst.
    pub addr: u64,
    /// Canonical burst shape.
    pub burst: Burst,
    /// Payload.
    pub data: Vec<u8>,
    /// Urgency sideband (0–3), mapped to NoC pressure by the NIU.
    pub urgency: u8,
}

/// A streaming read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrmReadReq {
    /// Source address.
    pub addr: u64,
    /// Canonical burst shape.
    pub burst: Burst,
    /// Urgency sideband.
    pub urgency: u8,
}

/// Streaming read data (whole burst).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrmReadData {
    /// The data.
    pub data: Vec<u8>,
    /// Status (streams can still hit decode errors).
    pub status: RespStatus,
}

/// The STRM port.
#[derive(Debug, Clone)]
pub struct StrmPort {
    /// Posted write stream.
    pub tx: Chan<StrmWrite>,
    /// Read request stream.
    pub rreq: Chan<StrmReadReq>,
    /// Read data stream (in request order — STRM is fully ordered).
    pub rdata: Chan<StrmReadData>,
}

impl StrmPort {
    /// Creates a port with capacity-1 channels.
    pub fn new() -> Self {
        StrmPort {
            tx: Chan::new(1),
            rreq: Chan::new(1),
            rdata: Chan::new(1),
        }
    }
}

impl Default for StrmPort {
    fn default() -> Self {
        StrmPort::new()
    }
}

/// A STRM master agent: writes are posted, reads are pipelined and fully
/// ordered.
///
/// # Examples
///
/// ```
/// use noc_protocols::strm::{StrmMaster, StrmPort, StrmSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
/// use noc_transaction::Opcode;
///
/// let program = vec![
///     SocketCommand::write(0x0, 4, 1).with_opcode(Opcode::WritePosted),
///     SocketCommand::read(0x0, 4),
/// ];
/// let mut master = StrmMaster::new(program, 4);
/// let mut slave = StrmSlave::new(MemoryModel::new(1));
/// let mut port = StrmPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// ```
#[derive(Debug, Clone)]
pub struct StrmMaster {
    program: ProgramTail,
    pc: usize,
    wait: Option<u32>,
    outstanding_reads: VecDeque<(usize, u64)>,
    read_limit: u32,
    log: CompletionLog,
}

impl StrmMaster {
    /// Creates a master allowing `read_limit` outstanding reads.
    ///
    /// # Panics
    ///
    /// Panics if `read_limit` is zero or the program contains opcodes the
    /// socket cannot express (anything but reads and posted writes).
    pub fn new(program: Program, read_limit: u32) -> Self {
        assert!(read_limit > 0, "read limit must be non-zero");
        for (i, cmd) in program.iter().enumerate() {
            ProtocolKind::Strm.assert_expresses(i, cmd);
        }
        StrmMaster {
            program: ProgramTail::new(program),
            pc: 0,
            wait: None,
            outstanding_reads: VecDeque::new(),
            read_limit,
            log: CompletionLog::new(),
        }
    }

    /// Appends commands to the end of the program, mid-run — see
    /// [`AhbMaster::append_commands`](crate::ahb::AhbMaster::append_commands)
    /// for the contract. The fully-retired prefix is reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if a command carries an opcode the socket cannot express.
    pub fn append_commands(&mut self, tail: &[SocketCommand]) {
        for cmd in tail {
            let i = self.program.len();
            ProtocolKind::Strm.assert_expresses(i, cmd);
            self.program.push(cmd.clone());
        }
        let live = self
            .outstanding_reads
            .front()
            .map_or(self.pc, |&(idx, _)| idx.min(self.pc));
        self.program.compact_to(live);
    }

    /// Replaces the program of a master that has not started executing,
    /// keeping the read limit. Equivalent to constructing the master with
    /// `program` in the first place — warm-state forking relies on that
    /// equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command, or if
    /// the new program contains opcodes the socket cannot express.
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.pc == 0 && self.outstanding_reads.is_empty() && self.log.is_empty(),
            "programs can only be loaded before execution starts"
        );
        *self = StrmMaster::new(program, self.read_limit);
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.pc >= self.program.len() && self.outstanding_reads.is_empty()
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Number of immediately upcoming socket ticks that are provably
    /// no-ops, assuming no read data reaches the port meanwhile
    /// (`u64::MAX` = quiescent until new input).
    pub fn idle_ticks(&self) -> u64 {
        if self.pc >= self.program.len() {
            return u64::MAX;
        }
        let w = self
            .wait
            .map(u64::from)
            .unwrap_or(self.program.get(self.pc).delay_before as u64);
        if w > 0 {
            return w;
        }
        if self.program.get(self.pc).opcode.is_read()
            && self.outstanding_reads.len() as u32 >= self.read_limit
        {
            u64::MAX // unblocks only when read data retires
        } else {
            0
        }
    }

    /// Accounts `ticks` socket cycles skipped under the
    /// [`idle_ticks`](StrmMaster::idle_ticks) contract.
    pub fn skip_ticks(&mut self, ticks: u64) {
        if self.pc >= self.program.len() {
            return;
        }
        let wait = self
            .wait
            .get_or_insert(self.program.get(self.pc).delay_before);
        *wait = wait.saturating_sub(ticks.min(u32::MAX as u64) as u32);
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut StrmPort) {
        if let Some(rd) = port.rdata.take() {
            let (idx, issued_at) = self
                .outstanding_reads
                .pop_front()
                .expect("read data with nothing outstanding");
            let cmd = self.program.get(idx);
            self.log.push(CompletionRecord {
                index: idx,
                opcode: cmd.opcode,
                addr: cmd.addr,
                status: rd.status,
                data: rd.data,
                stream: StreamId::ZERO,
                issued_at,
                completed_at: cycle,
            });
        }
        if self.pc >= self.program.len() {
            return;
        }
        let delay = self.program.get(self.pc).delay_before;
        let wait = self.wait.get_or_insert(delay);
        if *wait > 0 {
            *wait -= 1;
            return;
        }
        let cmd = self.program.get(self.pc);
        if cmd.opcode.is_read() {
            if self.outstanding_reads.len() as u32 >= self.read_limit {
                return;
            }
            let req = StrmReadReq {
                addr: cmd.addr,
                burst: cmd.burst(),
                urgency: cmd.pressure,
            };
            if port.rreq.offer(req) {
                self.outstanding_reads.push_back((self.pc, cycle));
                self.pc += 1;
                self.wait = None;
            }
        } else {
            if !port.tx.ready() {
                return; // the offer would be refused: build no payload for it
            }
            let w = StrmWrite {
                addr: cmd.addr,
                burst: cmd.burst(),
                data: cmd.payload(),
                urgency: cmd.pressure,
            };
            if port.tx.offer(w) {
                // Posted: completes at accept.
                self.log.push(CompletionRecord {
                    index: self.pc,
                    opcode: cmd.opcode,
                    addr: cmd.addr,
                    status: RespStatus::Okay,
                    data: cmd.payload(),
                    stream: StreamId::ZERO,
                    issued_at: cycle,
                    completed_at: cycle,
                });
                self.pc += 1;
                self.wait = None;
            }
        }
    }
}

impl fmt::Display for StrmMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strm-master pc={}/{}", self.pc, self.program.len())
    }
}

/// A STRM slave agent (FIFO semantics over a memory).
#[derive(Debug, Clone)]
pub struct StrmSlave {
    mem: MemoryModel,
    pending: VecDeque<(u64, StrmReadData)>,
}

impl StrmSlave {
    /// Creates a slave over `mem`.
    pub fn new(mem: MemoryModel) -> Self {
        StrmSlave {
            mem,
            pending: VecDeque::new(),
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut StrmPort) {
        if let Some(w) = port.tx.take() {
            let _ = access(
                &mut self.mem,
                Opcode::WritePosted,
                w.addr,
                w.burst,
                &w.data,
                None,
                MstAddr::new(0),
            );
        }
        if let Some(r) = port.rreq.take() {
            let ready = cycle + self.mem.latency() as u64 + r.burst.beats() as u64;
            let (status, data) = access(
                &mut self.mem,
                Opcode::Read,
                r.addr,
                r.burst,
                &[],
                None,
                MstAddr::new(0),
            );
            self.pending
                .push_back((ready, StrmReadData { data, status }));
        }
        if port.rdata.ready() {
            if let Some(&(ready, _)) = self.pending.front() {
                if ready <= cycle {
                    let (_, rd) = self.pending.pop_front().expect("front exists");
                    port.rdata.offer(rd);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ahb_order;
    use crate::command::SocketCommand;
    use noc_transaction::BurstKind;

    fn run(program: Program, cycles: u64) -> (StrmMaster, StrmSlave) {
        let mut master = StrmMaster::new(program, 4);
        let mut slave = StrmSlave::new(MemoryModel::new(1));
        let mut port = StrmPort::new();
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
    fn posted_stream_writes_complete_immediately() {
        let program: Program = (0..4)
            .map(|i| {
                SocketCommand::write(i * 16, 4, i)
                    .with_opcode(Opcode::WritePosted)
                    .with_burst(BurstKind::Incr, 4)
            })
            .collect();
        let (m, s) = run(program, 100);
        assert!(m.done());
        assert!(m
            .log()
            .records()
            .iter()
            .all(|r| r.issued_at == r.completed_at));
        // 4 bursts x 4 beats = 16 beat writes land in memory
        assert_eq!(s.memory().write_count(), 16);
    }

    #[test]
    fn stream_read_returns_written_data() {
        let program = vec![
            SocketCommand::write(0x40, 4, 7)
                .with_opcode(Opcode::WritePosted)
                .with_burst(BurstKind::Incr, 2),
            SocketCommand::read(0x40, 4)
                .with_burst(BurstKind::Incr, 2)
                .with_delay(5),
        ];
        let (m, _) = run(program.clone(), 200);
        assert!(m.done());
        let read = m.log().records().iter().find(|r| r.index == 1).unwrap();
        assert_eq!(read.data, program[0].payload());
    }

    #[test]
    fn reads_fully_ordered() {
        let program: Program = (0..6).map(|i| SocketCommand::read(i * 4, 4)).collect();
        let (m, _) = run(program, 500);
        assert!(m.done());
        assert!(check_ahb_order(m.log()).is_ok());
    }

    #[test]
    fn urgency_is_carried() {
        let mut master = StrmMaster::new(vec![SocketCommand::read(0, 4).with_pressure(3)], 4);
        let mut port = StrmPort::new();
        master.tick(0, &mut port);
        assert_eq!(port.rreq.peek().unwrap().urgency, 3);
    }

    #[test]
    #[should_panic(expected = "cannot express")]
    fn rejects_exclusive_opcodes() {
        StrmMaster::new(
            vec![SocketCommand::read(0, 4).with_opcode(Opcode::ReadExclusive)],
            1,
        );
    }

    #[test]
    fn display() {
        let m = StrmMaster::new(vec![], 1);
        assert!(m.to_string().contains("strm-master"));
    }
}
