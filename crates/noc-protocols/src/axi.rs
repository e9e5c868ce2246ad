//! AMBA AXI socket model.
//!
//! AXI is the paper's *ID-based* socket: every transaction carries an ID;
//! same-ID transactions (per direction) complete in order, different IDs
//! freely reorder. Reads and writes travel on **independent channels**
//! (AR/R vs AW/W/B), "further obscuring ordering constraints" as the
//! paper puts it. AXI also contributes the non-blocking **exclusive
//! access** pair ([`Opcode::ReadExclusive`] / [`Opcode::WriteExclusive`])
//! answered by `EXOKAY`.

use crate::command::{CompletionLog, CompletionRecord, Program, ProgramTail, SocketCommand};
use crate::handshake::Chan;
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, ExclusiveMonitor, MstAddr, Opcode, RespStatus};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Read-address channel beat (`AR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiAr {
    /// `ARID`.
    pub id: u16,
    /// `ARADDR`.
    pub addr: u64,
    /// Canonical burst (`ARLEN`/`ARSIZE`/`ARBURST`).
    pub burst: Burst,
    /// `ARLOCK = exclusive`.
    pub exclusive: bool,
}

/// Read-data channel bundle (`R`, full burst).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiR {
    /// `RID`.
    pub id: u16,
    /// `RRESP`.
    pub status: RespStatus,
    /// Read data.
    pub data: Vec<u8>,
}

/// Write-address channel beat with its data bundle (`AW` + `W`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiAw {
    /// `AWID`.
    pub id: u16,
    /// `AWADDR`.
    pub addr: u64,
    /// Canonical burst.
    pub burst: Burst,
    /// Write data (the `W` beats).
    pub data: Vec<u8>,
    /// `AWLOCK = exclusive`.
    pub exclusive: bool,
}

/// Write-response channel beat (`B`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiB {
    /// `BID`.
    pub id: u16,
    /// `BRESP`.
    pub status: RespStatus,
}

/// The five-channel AXI port (W folded into AW as a data bundle).
#[derive(Debug, Clone)]
pub struct AxiPort {
    /// Read address channel.
    pub ar: Chan<AxiAr>,
    /// Read data channel.
    pub r: Chan<AxiR>,
    /// Write address+data channel.
    pub aw: Chan<AxiAw>,
    /// Write response channel.
    pub b: Chan<AxiB>,
}

impl AxiPort {
    /// Creates a port with capacity-1 channels.
    pub fn new() -> Self {
        AxiPort {
            ar: Chan::new(1),
            r: Chan::new(1),
            aw: Chan::new(1),
            b: Chan::new(1),
        }
    }
}

impl Default for AxiPort {
    fn default() -> Self {
        AxiPort::new()
    }
}

/// An AXI master agent.
///
/// Commands issue in program order (one per channel per cycle), subject
/// to a per-ID outstanding limit and a total limit; responses retire out
/// of order across IDs and directions.
///
/// # Examples
///
/// ```
/// use noc_protocols::axi::{AxiMaster, AxiPort, AxiSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
/// use noc_transaction::StreamId;
///
/// let program = vec![
///     SocketCommand::write(0x0, 4, 1).with_stream(StreamId::new(0)),
///     SocketCommand::read(0x100, 4).with_stream(StreamId::new(1)),
/// ];
/// let mut master = AxiMaster::new(program, 4, 8);
/// let mut slave = AxiSlave::new(MemoryModel::new(2), 0);
/// let mut port = AxiPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// ```
#[derive(Debug, Clone)]
pub struct AxiMaster {
    program: ProgramTail,
    pc: usize,
    wait: Option<u32>,
    per_id_limit: u32,
    total_limit: u32,
    /// Outstanding reads per ID: FIFO of (index, issued_at).
    reads: HashMap<u16, VecDeque<(usize, u64)>>,
    /// Outstanding writes per ID.
    writes: HashMap<u16, VecDeque<(usize, u64)>>,
    outstanding: u32,
    log: CompletionLog,
}

impl AxiMaster {
    /// Creates a master with the given per-ID and total outstanding
    /// limits.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(program: Program, per_id_limit: u32, total_limit: u32) -> Self {
        assert!(
            per_id_limit > 0 && total_limit > 0,
            "limits must be non-zero"
        );
        AxiMaster {
            program: ProgramTail::new(program),
            pc: 0,
            wait: None,
            per_id_limit,
            total_limit,
            reads: HashMap::new(),
            writes: HashMap::new(),
            outstanding: 0,
            log: CompletionLog::new(),
        }
    }

    /// Appends commands to the end of the program, mid-run — see
    /// [`AhbMaster::append_commands`](crate::ahb::AhbMaster::append_commands)
    /// for the contract. The fully-retired prefix is reclaimed.
    pub fn append_commands(&mut self, tail: &[SocketCommand]) {
        for cmd in tail {
            self.program.push(cmd.clone());
        }
        let live = self
            .reads
            .values()
            .chain(self.writes.values())
            .filter_map(|q| q.front().map(|&(idx, _)| idx))
            .min()
            .map_or(self.pc, |idx| idx.min(self.pc));
        self.program.compact_to(live);
    }

    /// Replaces the program of a master that has not started executing,
    /// keeping the outstanding limits. Equivalent to constructing the
    /// master with `program` in the first place — warm-state forking
    /// relies on that equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command.
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.pc == 0 && self.outstanding == 0 && self.log.is_empty(),
            "programs can only be loaded before execution starts"
        );
        *self = AxiMaster::new(program, self.per_id_limit, self.total_limit);
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.pc >= self.program.len() && self.outstanding == 0
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Number of immediately upcoming socket ticks that are provably
    /// no-ops, assuming no response reaches the port meanwhile
    /// (`u64::MAX` = quiescent until new input).
    pub fn idle_ticks(&self) -> u64 {
        if self.pc >= self.program.len() || self.outstanding >= self.total_limit {
            return u64::MAX; // issue path gated entirely on responses
        }
        let w = self
            .wait
            .map(u64::from)
            .unwrap_or(self.program.get(self.pc).delay_before as u64);
        if w > 0 {
            return w;
        }
        // Countdown exhausted: only the per-ID limit can still block, and
        // it clears only when a response retires.
        let cmd = self.program.get(self.pc);
        let q = if cmd.opcode.is_read() {
            &self.reads
        } else {
            &self.writes
        };
        if q.get(&cmd.stream.raw()).map_or(0, |v| v.len()) as u32 >= self.per_id_limit {
            u64::MAX
        } else {
            0
        }
    }

    /// Accounts `ticks` socket cycles skipped under the
    /// [`idle_ticks`](AxiMaster::idle_ticks) contract.
    pub fn skip_ticks(&mut self, ticks: u64) {
        if self.pc >= self.program.len() || self.outstanding >= self.total_limit {
            return; // dense ticks would not have touched the countdown
        }
        let wait = self
            .wait
            .get_or_insert(self.program.get(self.pc).delay_before);
        *wait = wait.saturating_sub(ticks.min(u32::MAX as u64) as u32);
    }

    fn retire(
        &mut self,
        idx: usize,
        issued_at: u64,
        status: RespStatus,
        data: Vec<u8>,
        cycle: u64,
    ) {
        let cmd = self.program.get(idx);
        let data = if cmd.opcode.is_read() {
            data
        } else {
            cmd.payload()
        };
        self.log.push(CompletionRecord {
            index: idx,
            opcode: cmd.opcode,
            addr: cmd.addr,
            status,
            data,
            stream: cmd.stream,
            issued_at,
            completed_at: cycle,
        });
        self.outstanding -= 1;
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut AxiPort) {
        // Retire read and write responses (independent channels).
        if let Some(r) = port.r.take() {
            let q = self.reads.get_mut(&r.id).expect("R for unknown ID");
            let (idx, at) = q.pop_front().expect("R with nothing outstanding");
            self.retire(idx, at, r.status, r.data, cycle);
        }
        if let Some(b) = port.b.take() {
            let q = self.writes.get_mut(&b.id).expect("B for unknown ID");
            let (idx, at) = q.pop_front().expect("B with nothing outstanding");
            self.retire(idx, at, b.status, Vec::new(), cycle);
        }
        // Issue the next command in program order.
        if self.pc >= self.program.len() || self.outstanding >= self.total_limit {
            return;
        }
        let delay = self.program.get(self.pc).delay_before;
        let wait = self.wait.get_or_insert(delay);
        if *wait > 0 {
            *wait -= 1;
            return;
        }
        let cmd = self.program.get(self.pc);
        let id = cmd.stream.raw();
        let is_read = cmd.opcode.is_read();
        let q = if is_read { &self.reads } else { &self.writes };
        if q.get(&id).map_or(0, |v| v.len()) as u32 >= self.per_id_limit {
            return;
        }
        let ready = if is_read {
            port.ar.ready()
        } else {
            port.aw.ready()
        };
        if !ready {
            return; // the offer would be refused: build no payload for it
        }
        let accepted = if is_read {
            port.ar.offer(AxiAr {
                id,
                addr: cmd.addr,
                burst: cmd.burst(),
                exclusive: cmd.opcode.is_exclusive(),
            })
        } else {
            port.aw.offer(AxiAw {
                id,
                addr: cmd.addr,
                burst: cmd.burst(),
                data: cmd.payload(),
                exclusive: cmd.opcode.is_exclusive(),
            })
        };
        if accepted {
            let q = if is_read {
                self.reads.entry(id).or_default()
            } else {
                self.writes.entry(id).or_default()
            };
            q.push_back((self.pc, cycle));
            self.outstanding += 1;
            self.pc += 1;
            self.wait = None;
        }
    }
}

impl fmt::Display for AxiMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "axi-master pc={}/{} out={}",
            self.pc,
            self.program.len(),
            self.outstanding
        )
    }
}

/// An AXI slave agent: per-ID in-order, cross-ID reordering via banked
/// latency, exclusive monitor for the exclusive pair.
#[derive(Debug, Clone)]
pub struct AxiSlave {
    mem: MemoryModel,
    monitor: ExclusiveMonitor,
    bank_stagger: u32,
    /// Pending reads: (ready_at, accept order, response).
    pending_r: Vec<(u64, u64, AxiR)>,
    /// Pending writes: (ready_at, accept order, response).
    pending_b: Vec<(u64, u64, AxiB)>,
    accepts: u64,
}

impl AxiSlave {
    /// Creates a slave; `bank_stagger` models banked storage latency
    /// spread (see [`crate::ocp::OcpSlave::new`]).
    pub fn new(mem: MemoryModel, bank_stagger: u32) -> Self {
        AxiSlave {
            mem,
            monitor: ExclusiveMonitor::new(64, 8),
            bank_stagger,
            pending_r: Vec::new(),
            pending_b: Vec::new(),
            accepts: 0,
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    fn ready_at(&self, cycle: u64, addr: u64, beats: u32) -> u64 {
        let extra = ((addr >> 8) % 4) as u32 * self.bank_stagger;
        cycle + self.mem.latency() as u64 + beats as u64 + extra as u64
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut AxiPort) {
        if let Some(ar) = port.ar.take() {
            self.accepts += 1;
            let op = if ar.exclusive {
                Opcode::ReadExclusive
            } else {
                Opcode::Read
            };
            let (status, data) = access(
                &mut self.mem,
                op,
                ar.addr,
                ar.burst,
                &[],
                Some(&mut self.monitor),
                MstAddr::new(ar.id),
            );
            let ready = self.ready_at(cycle, ar.addr, ar.burst.beats());
            self.pending_r.push((
                ready,
                self.accepts,
                AxiR {
                    id: ar.id,
                    status,
                    data,
                },
            ));
        }
        if let Some(aw) = port.aw.take() {
            self.accepts += 1;
            let op = if aw.exclusive {
                Opcode::WriteExclusive
            } else {
                Opcode::Write
            };
            let (status, _) = access(
                &mut self.mem,
                op,
                aw.addr,
                aw.burst,
                &aw.data,
                Some(&mut self.monitor),
                MstAddr::new(aw.id),
            );
            // AXI signals failed exclusives as plain OKAY (without the
            // EXOKAY marker); we keep ExFail in the canonical status so
            // the master can observe the failure (the NIU maps it back).
            let ready = self.ready_at(cycle, aw.addr, aw.burst.beats());
            self.pending_b
                .push((ready, self.accepts, AxiB { id: aw.id, status }));
        }
        // Emit one R and one B per cycle, each per-ID in order.
        if port.r.ready() {
            if let Some(i) = Self::pick(&self.pending_r, cycle, |r| r.id) {
                let (_, _, resp) = self.pending_r.remove(i);
                port.r.offer(resp);
            }
        }
        if port.b.ready() {
            if let Some(i) = Self::pick(&self.pending_b, cycle, |b| b.id) {
                let (_, _, resp) = self.pending_b.remove(i);
                port.b.offer(resp);
            }
        }
    }

    /// Picks the index of the response to send: ready ones whose ID has
    /// no older pending entry; among them, earliest (ready, order).
    fn pick<T>(pending: &[(u64, u64, T)], cycle: u64, id_of: impl Fn(&T) -> u16) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, (ready, order, item)) in pending.iter().enumerate() {
            if *ready > cycle {
                continue;
            }
            let blocked = pending
                .iter()
                .any(|(_, o2, it2)| id_of(it2) == id_of(item) && o2 < order);
            if blocked {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(j) => {
                    let (rj, oj, _) = &pending[j];
                    if (*ready, *order) < (*rj, *oj) {
                        Some(i)
                    } else {
                        Some(j)
                    }
                }
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_axi_order};
    use crate::command::SocketCommand;
    use noc_transaction::StreamId;

    fn run(program: Program, per_id: u32, total: u32, stagger: u32, cycles: u64) -> AxiMaster {
        let mut master = AxiMaster::new(program, per_id, total);
        let mut slave = AxiSlave::new(MemoryModel::new(2), stagger);
        let mut port = AxiPort::new();
        for cycle in 0..cycles {
            master.tick(cycle, &mut port);
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        master
    }

    #[test]
    fn read_write_round_trip() {
        let program = vec![
            SocketCommand::write(0x40, 4, 3),
            SocketCommand::read(0x40, 4).with_delay(20),
        ];
        let m = run(program, 2, 4, 0, 200);
        assert!(m.done());
        let recs = m.log().records();
        let w = recs.iter().find(|r| r.index == 0).unwrap();
        let r = recs.iter().find(|r| r.index == 1).unwrap();
        assert_eq!(w.data, r.data);
    }

    #[test]
    fn different_ids_reorder() {
        // ID 0 hits slow bank, ID 1 fast bank → ID 1 completes first.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(1)),
        ];
        let m = run(program, 2, 8, 30, 1000);
        assert!(m.done());
        assert!(check_axi_order(m.log()).is_ok());
        assert!(
            check_ahb_order(m.log()).is_err(),
            "cross-ID reorder expected"
        );
    }

    #[test]
    fn same_id_stays_ordered_despite_banks() {
        // Same ID, slow bank then fast bank: must still complete in order.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(7)),
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(7)),
        ];
        let m = run(program, 4, 8, 30, 1000);
        assert!(m.done());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn reads_and_writes_use_independent_channels() {
        // A long read and a write issued back-to-back: the write (fast
        // bank) may finish before the read (slow bank) even with one ID.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(2)),
            SocketCommand::write(0x000, 4, 1).with_stream(StreamId::new(2)),
        ];
        let m = run(program, 2, 8, 30, 1000);
        assert!(m.done());
        assert!(check_axi_order(m.log()).is_ok());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, vec![1, 0], "write overtakes read on its own channel");
    }

    #[test]
    fn exclusive_pair_exokay() {
        let program = vec![
            SocketCommand::read(0x80, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x80, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_delay(30),
        ];
        let m = run(program, 2, 4, 0, 500);
        assert!(m.done());
        let recs = m.log().records();
        assert!(recs.iter().all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn exclusive_write_fails_when_broken() {
        let program = vec![
            SocketCommand::read(0x80, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x80, 4, 1).with_delay(20), // plain write breaks it
            SocketCommand::write(0x80, 4, 9)
                .with_opcode(Opcode::WriteExclusive)
                .with_delay(40),
        ];
        let m = run(program, 4, 8, 0, 1000);
        assert!(m.done());
        let wx = m.log().records().iter().find(|r| r.index == 2).unwrap();
        assert_eq!(wx.status, RespStatus::ExFail);
    }

    #[test]
    fn per_id_limit_throttles_issue() {
        let program: Program = (0..8)
            .map(|i| SocketCommand::read(i * 4, 4).with_stream(StreamId::new(0)))
            .collect();
        let slow = run(program.clone(), 1, 8, 0, 2000);
        let fast = run(program, 8, 8, 0, 2000);
        let finish = |m: &AxiMaster| {
            m.log()
                .records()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap()
        };
        assert!(finish(&fast) < finish(&slow));
    }

    #[test]
    fn total_limit_bounds_outstanding() {
        let program: Program = (0..8)
            .map(|i| SocketCommand::read(i * 4, 4).with_stream(StreamId::new(i as u16)))
            .collect();
        let m = run(program, 8, 2, 0, 2000);
        assert!(m.done());
        assert_eq!(m.log().len(), 8);
    }

    #[test]
    fn display() {
        let m = AxiMaster::new(vec![], 1, 1);
        assert!(m.to_string().contains("axi-master"));
    }
}
