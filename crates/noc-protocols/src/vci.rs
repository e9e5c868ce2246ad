//! VCI (Virtual Component Interface) socket models: the three OCB 2.0
//! flavours the paper lists.
//!
//! - **PVCI** (peripheral): the minimal handshake — single outstanding,
//!   single-beat transfers, fully ordered.
//! - **BVCI** (basic): packet/cell transfers (bursts), pipelined but fully
//!   ordered between requests and responses.
//! - **AVCI** (advanced): adds thread identifiers, allowing out-of-order
//!   responses across threads — the paper groups its ordering model with
//!   AXI's ID-based one.

use crate::command::{
    CompletionLog, CompletionRecord, Program, ProgramTail, ProtocolKind, SocketCommand,
};
use crate::handshake::Chan;
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, ExclusiveMonitor, MstAddr, RespStatus};
use std::collections::VecDeque;
use std::fmt;

/// Which VCI flavour a socket speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VciFlavor {
    /// Peripheral VCI: single outstanding, single beat.
    Peripheral,
    /// Basic VCI: pipelined, fully ordered, bursts allowed.
    Basic,
    /// Advanced VCI: threaded (out-of-order across threads).
    Advanced {
        /// Number of threads.
        threads: u8,
    },
}

impl VciFlavor {
    /// Number of independent streams this flavour supports.
    pub fn threads(self) -> u8 {
        match self {
            VciFlavor::Peripheral | VciFlavor::Basic => 1,
            VciFlavor::Advanced { threads } => threads,
        }
    }

    /// The socket protocol this flavour is.
    pub fn kind(self) -> ProtocolKind {
        match self {
            VciFlavor::Peripheral => ProtocolKind::Pvci,
            VciFlavor::Basic => ProtocolKind::Bvci,
            VciFlavor::Advanced { .. } => ProtocolKind::Avci,
        }
    }
}

impl fmt::Display for VciFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VciFlavor::Peripheral => write!(f, "PVCI"),
            VciFlavor::Basic => write!(f, "BVCI"),
            VciFlavor::Advanced { threads } => write!(f, "AVCI({threads})"),
        }
    }
}

/// A VCI request cell (command + address + thread + data bundle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VciReq {
    /// Canonical opcode.
    pub opcode: noc_transaction::Opcode,
    /// `TRDID`-style thread (0 for PVCI/BVCI).
    pub thread: u8,
    /// Cell address.
    pub addr: u64,
    /// Canonical burst.
    pub burst: Burst,
    /// Write data, empty for reads.
    pub data: Vec<u8>,
}

/// A VCI response cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VciResp {
    /// Echoed thread.
    pub thread: u8,
    /// `RERROR`-derived status.
    pub status: RespStatus,
    /// Read data.
    pub data: Vec<u8>,
}

/// The VCI port.
#[derive(Debug, Clone)]
pub struct VciPort {
    /// Master → slave request cells.
    pub req: Chan<VciReq>,
    /// Slave → master response cells.
    pub resp: Chan<VciResp>,
}

impl VciPort {
    /// Creates a port with capacity-1 channels.
    pub fn new() -> Self {
        VciPort {
            req: Chan::new(1),
            resp: Chan::new(1),
        }
    }
}

impl Default for VciPort {
    fn default() -> Self {
        VciPort::new()
    }
}

/// A VCI master agent covering all three flavours.
///
/// # Examples
///
/// ```
/// use noc_protocols::vci::{VciFlavor, VciMaster, VciPort, VciSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
///
/// let program = vec![SocketCommand::read(0x20, 4)];
/// let mut master = VciMaster::new(program, VciFlavor::Basic, 2);
/// let mut slave = VciSlave::new(MemoryModel::new(1), VciFlavor::Basic, 0);
/// let mut port = VciPort::new();
/// for cycle in 0..50 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// ```
#[derive(Debug, Clone)]
pub struct VciMaster {
    program: ProgramTail,
    flavor: VciFlavor,
    /// Per-thread command queues (single queue for PVCI/BVCI).
    queues: Vec<VecDeque<usize>>,
    /// Per-thread outstanding FIFOs.
    outstanding: Vec<VecDeque<(usize, u64)>>,
    per_thread_limit: u32,
    waits: Vec<Option<u32>>,
    issue_rr: usize,
    log: CompletionLog,
}

impl VciMaster {
    /// Creates a master. `pipeline_depth` is the outstanding limit per
    /// thread (forced to 1 for PVCI).
    ///
    /// # Panics
    ///
    /// Panics if a command's opcode is never answered (a response is what
    /// retires a VCI command — see [`ProtocolKind::expresses`]), if a PVCI
    /// program contains multi-beat bursts, if a command's stream exceeds
    /// the flavour's thread count, or if `pipeline_depth` is zero.
    pub fn new(program: Program, flavor: VciFlavor, pipeline_depth: u32) -> Self {
        assert!(pipeline_depth > 0, "pipeline depth must be non-zero");
        let threads = flavor.threads() as usize;
        let mut queues = vec![VecDeque::new(); threads];
        for (i, cmd) in program.iter().enumerate() {
            flavor.kind().assert_expresses(i, cmd);
            if flavor == VciFlavor::Peripheral {
                assert_eq!(
                    cmd.beats, 1,
                    "PVCI supports single-beat transfers only (command {i})"
                );
            }
            let t = if threads == 1 {
                0
            } else {
                cmd.stream.raw() as usize
            };
            assert!(t < threads, "stream {t} exceeds {threads} threads");
            queues[t].push_back(i);
        }
        let per_thread_limit = if flavor == VciFlavor::Peripheral {
            1
        } else {
            pipeline_depth
        };
        VciMaster {
            program: ProgramTail::new(program),
            flavor,
            outstanding: vec![VecDeque::new(); threads],
            waits: vec![None; threads],
            queues,
            per_thread_limit,
            issue_rr: 0,
            log: CompletionLog::new(),
        }
    }

    /// The flavour.
    pub fn flavor(&self) -> VciFlavor {
        self.flavor
    }

    /// Appends commands to the end of the program, mid-run — see
    /// [`AhbMaster::append_commands`](crate::ahb::AhbMaster::append_commands)
    /// for the contract. New commands join their thread's queue exactly
    /// as construction would have queued them; the fully-retired prefix
    /// is reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if a command violates the flavour's constraints (an
    /// unanswered opcode, multi-beat bursts on PVCI, stream beyond the
    /// thread count).
    pub fn append_commands(&mut self, tail: &[SocketCommand]) {
        let threads = self.queues.len();
        for cmd in tail {
            let i = self.program.len();
            self.flavor.kind().assert_expresses(i, cmd);
            if self.flavor == VciFlavor::Peripheral {
                assert_eq!(
                    cmd.beats, 1,
                    "PVCI supports single-beat transfers only (command {i})"
                );
            }
            let t = if threads == 1 {
                0
            } else {
                cmd.stream.raw() as usize
            };
            assert!(t < threads, "stream {t} exceeds {threads} threads");
            self.queues[t].push_back(i);
            self.program.push(cmd.clone());
        }
        let live = self
            .queues
            .iter()
            .zip(&self.outstanding)
            .flat_map(|(q, o)| {
                q.front()
                    .copied()
                    .into_iter()
                    .chain(o.front().map(|&(idx, _)| idx))
            })
            .min()
            .unwrap_or(self.program.len());
        self.program.compact_to(live);
    }

    /// Replaces the program of a master that has not started executing,
    /// keeping the flavour and pipeline depth. Equivalent to constructing
    /// the master with `program` in the first place — warm-state forking
    /// relies on that equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command, or if
    /// the new program violates the flavour's constraints.
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.log.is_empty() && self.outstanding.iter().all(|o| o.is_empty()),
            "programs can only be loaded before execution starts"
        );
        *self = VciMaster::new(program, self.flavor, self.per_thread_limit);
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty()) && self.outstanding.iter().all(|o| o.is_empty())
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Number of immediately upcoming socket ticks that are provably
    /// no-ops, assuming no response reaches the port meanwhile
    /// (`u64::MAX` = quiescent until new input).
    pub fn idle_ticks(&self) -> u64 {
        let mut idle = u64::MAX;
        for (t, q) in self.queues.iter().enumerate() {
            let Some(&idx) = q.front() else {
                continue;
            };
            if self.outstanding[t].len() as u32 >= self.per_thread_limit {
                continue;
            }
            let w = self.waits[t]
                .map(u64::from)
                .unwrap_or(self.program.get(idx).delay_before as u64);
            idle = idle.min(w);
        }
        idle
    }

    /// Accounts `ticks` socket cycles skipped under the
    /// [`idle_ticks`](VciMaster::idle_ticks) contract.
    pub fn skip_ticks(&mut self, ticks: u64) {
        let ticks = ticks.min(u32::MAX as u64) as u32;
        for (t, q) in self.queues.iter().enumerate() {
            let Some(&idx) = q.front() else {
                continue;
            };
            if self.outstanding[t].len() as u32 >= self.per_thread_limit {
                continue;
            }
            let wait = self.waits[t].get_or_insert(self.program.get(idx).delay_before);
            *wait = wait.saturating_sub(ticks);
        }
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut VciPort) {
        if let Some(resp) = port.resp.take() {
            let t = resp.thread as usize;
            let (idx, issued_at) = self.outstanding[t]
                .pop_front()
                .expect("response with nothing outstanding");
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
                stream: cmd.stream,
                issued_at,
                completed_at: cycle,
            });
        }
        let n = self.queues.len();
        for k in 0..n {
            let t = (self.issue_rr + k) % n;
            if !port.req.ready() {
                break;
            }
            let Some(&idx) = self.queues[t].front() else {
                continue;
            };
            if self.outstanding[t].len() as u32 >= self.per_thread_limit {
                continue;
            }
            let delay = self.program.get(idx).delay_before;
            let wait = self.waits[t].get_or_insert(delay);
            if *wait > 0 {
                *wait -= 1;
                continue;
            }
            if !port.req.ready() {
                continue; // the offer would be refused: build no payload for it
            }
            let cmd = self.program.get(idx);
            let req = VciReq {
                opcode: cmd.opcode,
                thread: t as u8,
                addr: cmd.addr,
                burst: cmd.burst(),
                data: if cmd.opcode.is_write() {
                    cmd.payload()
                } else {
                    Vec::new()
                },
            };
            if port.req.offer(req) {
                self.queues[t].pop_front();
                self.waits[t] = None;
                self.outstanding[t].push_back((idx, cycle));
                self.issue_rr = (t + 1) % n;
                break;
            }
        }
    }
}

impl fmt::Display for VciMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-master ({} done)", self.flavor, self.log.len())
    }
}

/// A VCI slave agent. Service is strictly in acceptance order for
/// PVCI/BVCI; per-thread in-order with banked stagger for AVCI.
#[derive(Debug, Clone)]
pub struct VciSlave {
    mem: MemoryModel,
    flavor: VciFlavor,
    monitor: ExclusiveMonitor,
    bank_stagger: u32,
    pending: VecDeque<(u64, VciResp)>,
    /// AVCI out-of-order pool: (ready, order, resp).
    pool: Vec<(u64, u64, VciResp)>,
    accepts: u64,
}

impl VciSlave {
    /// Creates a slave for the given flavour.
    pub fn new(mem: MemoryModel, flavor: VciFlavor, bank_stagger: u32) -> Self {
        VciSlave {
            mem,
            flavor,
            monitor: ExclusiveMonitor::new(64, 8),
            bank_stagger,
            pending: VecDeque::new(),
            pool: Vec::new(),
            accepts: 0,
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut VciPort) {
        if let Some(req) = port.req.take() {
            self.accepts += 1;
            let extra = if matches!(self.flavor, VciFlavor::Advanced { .. }) {
                ((req.addr >> 8) % 4) as u32 * self.bank_stagger
            } else {
                0
            };
            let ready = cycle + self.mem.latency() as u64 + req.burst.beats() as u64 + extra as u64;
            let (status, data) = access(
                &mut self.mem,
                req.opcode,
                req.addr,
                req.burst,
                &req.data,
                Some(&mut self.monitor),
                MstAddr::new(req.thread as u16),
            );
            let resp = VciResp {
                thread: req.thread,
                status,
                data,
            };
            if matches!(self.flavor, VciFlavor::Advanced { .. }) {
                self.pool.push((ready, self.accepts, resp));
            } else {
                self.pending.push_back((ready, resp));
            }
        }
        if port.resp.ready() {
            if matches!(self.flavor, VciFlavor::Advanced { .. }) {
                // per-thread in-order, cross-thread free
                let mut best: Option<usize> = None;
                for (i, (ready, order, resp)) in self.pool.iter().enumerate() {
                    if *ready > cycle {
                        continue;
                    }
                    let blocked = self
                        .pool
                        .iter()
                        .any(|(_, o2, r2)| r2.thread == resp.thread && o2 < order);
                    if blocked {
                        continue;
                    }
                    best = match best {
                        None => Some(i),
                        Some(j) => {
                            let (rj, oj, _) = &self.pool[j];
                            if (*ready, *order) < (*rj, *oj) {
                                Some(i)
                            } else {
                                Some(j)
                            }
                        }
                    };
                }
                if let Some(i) = best {
                    let (_, _, resp) = self.pool.remove(i);
                    port.resp.offer(resp);
                }
            } else if let Some(&(ready, _)) = self.pending.front() {
                if ready <= cycle {
                    let (_, resp) = self.pending.pop_front().expect("front exists");
                    port.resp.offer(resp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_ocp_order};
    use crate::command::SocketCommand;
    use noc_transaction::{BurstKind, Opcode, StreamId};

    fn run(
        program: Program,
        flavor: VciFlavor,
        depth: u32,
        stagger: u32,
        cycles: u64,
    ) -> VciMaster {
        let mut master = VciMaster::new(program, flavor, depth);
        let mut slave = VciSlave::new(MemoryModel::new(2), flavor, stagger);
        let mut port = VciPort::new();
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
    fn pvci_single_beat_round_trip() {
        let program = vec![
            SocketCommand::write(0x10, 4, 1),
            SocketCommand::read(0x10, 4),
        ];
        let m = run(program, VciFlavor::Peripheral, 1, 0, 200);
        assert!(m.done());
        let recs = m.log().records();
        assert_eq!(recs[0].data, recs[1].data);
        assert!(check_ahb_order(m.log()).is_ok());
    }

    #[test]
    #[should_panic(expected = "single-beat")]
    fn pvci_rejects_bursts() {
        VciMaster::new(
            vec![SocketCommand::read(0, 4).with_burst(BurstKind::Incr, 4)],
            VciFlavor::Peripheral,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "BVCI cannot express Broadcast (command 1)")]
    fn appended_opcodes_no_response_answers_are_refused() {
        let mut m = VciMaster::new(vec![SocketCommand::read(0, 4)], VciFlavor::Basic, 1);
        m.append_commands(&[SocketCommand::write(0, 4, 1).with_opcode(Opcode::Broadcast)]);
    }

    #[test]
    fn bvci_bursts_fully_ordered() {
        let program: Program = (0..5)
            .map(|i| SocketCommand::read(i * 0x100, 4).with_burst(BurstKind::Incr, 4))
            .collect();
        let m = run(program, VciFlavor::Basic, 2, 0, 1000);
        assert!(m.done());
        assert!(check_ahb_order(m.log()).is_ok());
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bvci_pipelining_overlaps() {
        let program: Program = (0..4).map(|i| SocketCommand::read(i * 4, 4)).collect();
        let serial = run(program.clone(), VciFlavor::Basic, 1, 0, 1000);
        let piped = run(program, VciFlavor::Basic, 4, 0, 1000);
        let fin = |m: &VciMaster| {
            m.log()
                .records()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap()
        };
        assert!(fin(&piped) <= fin(&serial));
    }

    #[test]
    fn avci_threads_reorder() {
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(1)),
        ];
        let m = run(program, VciFlavor::Advanced { threads: 2 }, 2, 30, 1000);
        assert!(m.done());
        assert!(check_ocp_order(m.log()).is_ok());
        assert!(
            check_ahb_order(m.log()).is_err(),
            "cross-thread reorder expected"
        );
    }

    #[test]
    fn avci_exclusive_readex_support() {
        // AVCI carries the READEX legacy: model via exclusive pair.
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadExclusive),
            SocketCommand::write(0x40, 4, 3)
                .with_opcode(Opcode::WriteExclusive)
                .with_delay(20),
        ];
        let m = run(program, VciFlavor::Advanced { threads: 1 }, 2, 0, 500);
        assert!(m.done());
        assert!(m
            .log()
            .records()
            .iter()
            .all(|r| r.status == RespStatus::ExOkay));
    }

    #[test]
    fn flavor_threads() {
        assert_eq!(VciFlavor::Peripheral.threads(), 1);
        assert_eq!(VciFlavor::Basic.threads(), 1);
        assert_eq!(VciFlavor::Advanced { threads: 4 }.threads(), 4);
    }

    #[test]
    fn displays() {
        assert_eq!(VciFlavor::Peripheral.to_string(), "PVCI");
        assert_eq!(VciFlavor::Advanced { threads: 2 }.to_string(), "AVCI(2)");
        let m = VciMaster::new(vec![], VciFlavor::Basic, 1);
        assert!(m.to_string().contains("BVCI"));
    }
}
