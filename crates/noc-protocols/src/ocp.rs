//! OCP 2.x socket model.
//!
//! OCP is the paper's *multi-threaded* socket: requests and responses
//! carry a `ThreadID`; order is guaranteed within a thread and
//! unconstrained across threads. OCP also contributes posted writes
//! (`WR` without a response — [`Opcode::WritePosted`]) and the *lazy
//! synchronisation* pair `RDL`/`WRC` ([`Opcode::ReadLinked`] /
//! [`Opcode::WriteConditional`]), the non-blocking alternative to legacy
//! locks that the NoC supports with a single service bit.

use crate::command::{CompletionLog, CompletionRecord, Program, ProgramTail, SocketCommand};
use crate::handshake::Chan;
use crate::memory::{access, MemoryModel};
use noc_transaction::{Burst, ExclusiveMonitor, MstAddr, Opcode, RespStatus};
use std::collections::VecDeque;
use std::fmt;

/// An OCP request group (MCmd + address + thread + write data bundle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcpReq {
    /// Canonical opcode (`MCmd`).
    pub opcode: Opcode,
    /// `MThreadID`.
    pub thread: u8,
    /// `MAddr`.
    pub addr: u64,
    /// Canonical burst (`MBurstLength`/`MBurstSeq`).
    pub burst: Burst,
    /// Write data bundle, empty for reads.
    pub data: Vec<u8>,
}

/// An OCP response group (SResp + thread + read data bundle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcpResp {
    /// `SThreadID`.
    pub thread: u8,
    /// Canonical status (`SResp`: DVA/FAIL/ERR).
    pub status: RespStatus,
    /// Read data bundle, empty for writes.
    pub data: Vec<u8>,
}

/// The OCP master↔slave port.
#[derive(Debug, Clone)]
pub struct OcpPort {
    /// Master → slave request group.
    pub req: Chan<OcpReq>,
    /// Slave → master response group.
    pub resp: Chan<OcpResp>,
}

impl OcpPort {
    /// Creates a port with capacity-1 channels.
    pub fn new() -> Self {
        OcpPort {
            req: Chan::new(1),
            resp: Chan::new(1),
        }
    }
}

impl Default for OcpPort {
    fn default() -> Self {
        OcpPort::new()
    }
}

/// Per-thread issue state.
#[derive(Debug, Clone, Default)]
struct ThreadState {
    /// Program indices owned by this thread, in program order.
    queue: VecDeque<usize>,
    /// Outstanding (index, issued_at), oldest first.
    outstanding: VecDeque<(usize, u64)>,
    /// Remaining idle cycles before the next issue.
    wait: Option<u32>,
}

/// An OCP master agent: each socket thread issues its share of the
/// program independently, in order within the thread.
///
/// # Examples
///
/// ```
/// use noc_protocols::ocp::{OcpMaster, OcpPort, OcpSlave};
/// use noc_protocols::{MemoryModel, SocketCommand};
/// use noc_transaction::StreamId;
///
/// let program = vec![
///     SocketCommand::read(0x0, 4).with_stream(StreamId::new(0)),
///     SocketCommand::read(0x100, 4).with_stream(StreamId::new(1)),
/// ];
/// let mut master = OcpMaster::new(program, 2, 1);
/// let mut slave = OcpSlave::new(MemoryModel::new(2), 0);
/// let mut port = OcpPort::new();
/// for cycle in 0..100 {
///     master.tick(cycle, &mut port);
///     slave.tick(cycle, &mut port);
///     if master.done() { break; }
/// }
/// assert!(master.done());
/// ```
#[derive(Debug, Clone)]
pub struct OcpMaster {
    program: ProgramTail,
    threads: Vec<ThreadState>,
    per_thread_limit: u32,
    issue_rr: usize,
    log: CompletionLog,
}

impl OcpMaster {
    /// Creates a master with `num_threads` threads, each allowed
    /// `per_thread_limit` outstanding requests.
    ///
    /// # Panics
    ///
    /// Panics if a command's stream exceeds `num_threads`, if
    /// `num_threads` is zero, or if `per_thread_limit` is zero.
    pub fn new(program: Program, num_threads: u8, per_thread_limit: u32) -> Self {
        assert!(num_threads > 0, "OCP needs at least one thread");
        assert!(per_thread_limit > 0, "per-thread limit must be non-zero");
        let mut threads = vec![ThreadState::default(); num_threads as usize];
        for (i, cmd) in program.iter().enumerate() {
            let t = cmd.stream.raw() as usize;
            assert!(
                t < threads.len(),
                "command stream {} exceeds {} threads",
                t,
                num_threads
            );
            threads[t].queue.push_back(i);
        }
        OcpMaster {
            program: ProgramTail::new(program),
            threads,
            per_thread_limit,
            issue_rr: 0,
            log: CompletionLog::new(),
        }
    }

    /// Appends commands to the end of the program, mid-run — see
    /// [`AhbMaster::append_commands`](crate::ahb::AhbMaster::append_commands)
    /// for the contract. New commands join their thread's queue exactly
    /// as construction would have queued them; the fully-retired prefix
    /// is reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if a command's stream exceeds the thread count.
    pub fn append_commands(&mut self, tail: &[SocketCommand]) {
        for cmd in tail {
            let i = self.program.len();
            let t = cmd.stream.raw() as usize;
            assert!(
                t < self.threads.len(),
                "command stream {} exceeds {} threads",
                t,
                self.threads.len()
            );
            self.threads[t].queue.push_back(i);
            self.program.push(cmd.clone());
        }
        let live = self
            .threads
            .iter()
            .flat_map(|t| {
                t.queue
                    .front()
                    .copied()
                    .into_iter()
                    .chain(t.outstanding.front().map(|&(idx, _)| idx))
            })
            .min()
            .unwrap_or(self.program.len());
        self.program.compact_to(live);
    }

    /// Replaces the program of a master that has not started executing,
    /// keeping the thread count and per-thread limit. Equivalent to
    /// constructing the master with `program` in the first place —
    /// warm-state forking relies on that equivalence.
    ///
    /// # Panics
    ///
    /// Panics if the master already issued or completed a command, or if
    /// a new command's stream exceeds the thread count.
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.log.is_empty() && self.threads.iter().all(|t| t.outstanding.is_empty()),
            "programs can only be loaded before execution starts"
        );
        *self = OcpMaster::new(program, self.threads.len() as u8, self.per_thread_limit);
    }

    /// Returns `true` when every command has completed.
    pub fn done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.queue.is_empty() && t.outstanding.is_empty())
    }

    /// The completion log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// Number of immediately upcoming socket ticks that are provably
    /// no-ops, assuming no response reaches the port meanwhile
    /// (`u64::MAX` = quiescent until new input). Threads blocked on their
    /// outstanding limit do not advance their idle countdown, exactly as
    /// in a dense tick.
    pub fn idle_ticks(&self) -> u64 {
        let mut idle = u64::MAX;
        for t in &self.threads {
            let Some(&idx) = t.queue.front() else {
                continue;
            };
            if t.outstanding.len() as u32 >= self.per_thread_limit {
                continue;
            }
            let w = t
                .wait
                .map(u64::from)
                .unwrap_or(self.program.get(idx).delay_before as u64);
            idle = idle.min(w);
        }
        idle
    }

    /// Accounts `ticks` socket cycles skipped under the
    /// [`idle_ticks`](OcpMaster::idle_ticks) contract: every thread that
    /// would have counted down in a dense tick counts down here.
    pub fn skip_ticks(&mut self, ticks: u64) {
        let ticks = ticks.min(u32::MAX as u64) as u32;
        let program = &self.program;
        for t in &mut self.threads {
            let Some(&idx) = t.queue.front() else {
                continue;
            };
            if t.outstanding.len() as u32 >= self.per_thread_limit {
                continue;
            }
            let wait = t.wait.get_or_insert(program.get(idx).delay_before);
            *wait = wait.saturating_sub(ticks);
        }
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut OcpPort) {
        // Retire a response: matches the oldest outstanding of its thread.
        if let Some(resp) = port.resp.take() {
            let t = &mut self.threads[resp.thread as usize];
            let (idx, issued_at) = t
                .outstanding
                .pop_front()
                .expect("response for thread with nothing outstanding");
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
        // Issue: round-robin across threads, one request group per cycle.
        let n = self.threads.len();
        for k in 0..n {
            let ti = (self.issue_rr + k) % n;
            if !port.req.ready() {
                break;
            }
            let thread = &mut self.threads[ti];
            let Some(&idx) = thread.queue.front() else {
                continue;
            };
            if thread.outstanding.len() as u32 >= self.per_thread_limit {
                continue;
            }
            let delay = self.program.get(idx).delay_before;
            let wait = thread.wait.get_or_insert(delay);
            if *wait > 0 {
                *wait -= 1;
                continue;
            }
            if !port.req.ready() {
                continue; // the offer would be refused: build no payload for it
            }
            let cmd = self.program.get(idx);
            let req = OcpReq {
                opcode: cmd.opcode,
                thread: ti as u8,
                addr: cmd.addr,
                burst: cmd.burst(),
                data: if cmd.opcode.is_write() {
                    cmd.payload()
                } else {
                    Vec::new()
                },
            };
            if port.req.offer(req) {
                thread.queue.pop_front();
                thread.wait = None;
                if cmd.opcode.is_posted() {
                    // Posted write: completes at request accept.
                    self.log.push(CompletionRecord {
                        index: idx,
                        opcode: cmd.opcode,
                        addr: cmd.addr,
                        status: RespStatus::Okay,
                        data: cmd.payload(),
                        stream: cmd.stream,
                        issued_at: cycle,
                        completed_at: cycle,
                    });
                } else {
                    thread.outstanding.push_back((idx, cycle));
                }
                self.issue_rr = (ti + 1) % n;
                break;
            }
        }
    }
}

impl fmt::Display for OcpMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ocp-master {} threads ({} done)",
            self.threads.len(),
            self.log.len()
        )
    }
}

/// An OCP slave agent: per-thread in-order service, with an optional
/// per-bank latency stagger so different threads genuinely complete out
/// of order (exercising the multi-threaded reordering path).
#[derive(Debug, Clone)]
pub struct OcpSlave {
    mem: MemoryModel,
    monitor: ExclusiveMonitor,
    bank_stagger: u32,
    /// Pending responses: (ready_at, accept_order, response precomputed).
    pending: Vec<(u64, u64, OcpResp)>,
    accepts: u64,
}

impl OcpSlave {
    /// Creates a slave; `bank_stagger` adds `(addr >> 8) % 4 *
    /// bank_stagger` cycles of latency, emulating banked storage.
    pub fn new(mem: MemoryModel, bank_stagger: u32) -> Self {
        OcpSlave {
            mem,
            monitor: ExclusiveMonitor::new(64, 8),
            bank_stagger,
            pending: Vec::new(),
            accepts: 0,
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle.
    pub fn tick(&mut self, cycle: u64, port: &mut OcpPort) {
        if let Some(req) = port.req.take() {
            self.accepts += 1;
            let extra = ((req.addr >> 8) % 4) as u32 * self.bank_stagger;
            let ready = cycle + self.mem.latency() as u64 + req.burst.beats() as u64 + extra as u64;
            // Perform the access at accept time (memory state is
            // sequentially consistent at the socket).
            let (status, data) = access(
                &mut self.mem,
                req.opcode,
                req.addr,
                req.burst,
                &req.data,
                Some(&mut self.monitor),
                MstAddr::new(req.thread as u16),
            );
            if !req.opcode.is_posted() {
                self.pending.push((
                    ready,
                    self.accepts,
                    OcpResp {
                        thread: req.thread,
                        status,
                        data,
                    },
                ));
            }
        }
        // Send one response per cycle: the ready one with the oldest
        // accept order *within its thread* (per-thread in-order), across
        // threads pick smallest ready time then accept order.
        if port.resp.ready() {
            let mut best: Option<usize> = None;
            for (i, (ready, order, resp)) in self.pending.iter().enumerate() {
                if *ready > cycle {
                    continue;
                }
                // per-thread order: skip if an older same-thread pending exists
                let older_same_thread = self
                    .pending
                    .iter()
                    .any(|(_, o2, r2)| r2.thread == resp.thread && o2 < order);
                if older_same_thread {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(j) => {
                        let (rj, oj, _) = &self.pending[j];
                        if (*ready, *order) < (*rj, *oj) {
                            Some(i)
                        } else {
                            Some(j)
                        }
                    }
                };
            }
            if let Some(i) = best {
                let (_, _, resp) = self.pending.remove(i);
                port.resp.offer(resp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_ocp_order};
    use crate::command::SocketCommand;
    use noc_transaction::StreamId;

    fn run(program: Program, threads: u8, limit: u32, stagger: u32, cycles: u64) -> OcpMaster {
        let mut master = OcpMaster::new(program, threads, limit);
        let mut slave = OcpSlave::new(MemoryModel::new(2), stagger);
        let mut port = OcpPort::new();
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
    fn single_thread_behaves_fully_ordered() {
        let program: Program = (0..6).map(|i| SocketCommand::read(i * 4, 4)).collect();
        let m = run(program, 1, 1, 0, 500);
        assert!(m.done());
        assert!(check_ahb_order(m.log()).is_ok());
    }

    #[test]
    fn threads_complete_out_of_order_but_in_thread_order() {
        // Thread 0 hits the slow bank (addr>>8 == 3), thread 1 the fast.
        let program = vec![
            SocketCommand::read(0x300, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x000, 4).with_stream(StreamId::new(1)),
            SocketCommand::read(0x304, 4).with_stream(StreamId::new(0)),
            SocketCommand::read(0x004, 4).with_stream(StreamId::new(1)),
        ];
        let m = run(program, 2, 2, 20, 1000);
        assert!(m.done());
        assert!(check_ocp_order(m.log()).is_ok());
        // cross-thread reordering actually happened
        let order: Vec<usize> = m.log().records().iter().map(|r| r.index).collect();
        assert!(
            check_ahb_order(m.log()).is_err(),
            "expected cross-thread reorder, got {order:?}"
        );
    }

    #[test]
    fn posted_write_completes_at_accept() {
        let program = vec![SocketCommand::write(0x10, 4, 1).with_opcode(Opcode::WritePosted)];
        let m = run(program, 1, 1, 0, 50);
        assert!(m.done());
        let rec = &m.log().records()[0];
        assert_eq!(
            rec.issued_at, rec.completed_at,
            "posted = zero socket latency"
        );
    }

    #[test]
    fn posted_write_data_lands_in_memory() {
        let program = vec![
            SocketCommand::write(0x10, 4, 1).with_opcode(Opcode::WritePosted),
            SocketCommand::read(0x10, 4),
        ];
        let mut master = OcpMaster::new(program.clone(), 1, 1);
        let mut slave = OcpSlave::new(MemoryModel::new(1), 0);
        let mut port = OcpPort::new();
        for cycle in 0..200 {
            master.tick(cycle, &mut port);
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        assert!(master.done());
        let read_rec = master
            .log()
            .records()
            .iter()
            .find(|r| r.index == 1)
            .unwrap();
        assert_eq!(read_rec.data, program[0].payload());
    }

    #[test]
    fn lazy_synchronisation_rdl_wrc() {
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLinked),
            SocketCommand::write(0x40, 4, 5).with_opcode(Opcode::WriteConditional),
        ];
        let m = run(program, 1, 1, 0, 100);
        assert!(m.done());
        let recs = m.log().records();
        assert_eq!(recs[0].status, RespStatus::ExOkay);
        assert_eq!(
            recs[1].status,
            RespStatus::ExOkay,
            "uncontended WRC succeeds"
        );
    }

    #[test]
    fn wrc_fails_after_intervening_write() {
        let program = vec![
            SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLinked),
            // another thread writes the same granule
            SocketCommand::write(0x44, 4, 9).with_stream(StreamId::new(1)),
            SocketCommand::write(0x40, 4, 5)
                .with_opcode(Opcode::WriteConditional)
                .with_delay(30),
        ];
        let m = run(program, 2, 1, 0, 300);
        assert!(m.done());
        let wrc = m.log().records().iter().find(|r| r.index == 2).unwrap();
        assert_eq!(wrc.status, RespStatus::ExFail, "reservation was broken");
    }

    #[test]
    fn per_thread_limit_throttles() {
        let program: Program = (0..4)
            .map(|i| SocketCommand::read(i * 4, 4).with_stream(StreamId::new(0)))
            .collect();
        let limited = run(program.clone(), 1, 1, 0, 1000);
        let pipelined = run(program, 1, 4, 0, 1000);
        let last = |m: &OcpMaster| {
            m.log()
                .records()
                .iter()
                .map(|r| r.completed_at)
                .max()
                .unwrap()
        };
        assert!(
            last(&pipelined) < last(&limited),
            "pipelined {} should beat limited {}",
            last(&pipelined),
            last(&limited)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_thread_panics() {
        OcpMaster::new(
            vec![SocketCommand::read(0, 4).with_stream(StreamId::new(5))],
            2,
            1,
        );
    }

    #[test]
    fn display() {
        let m = OcpMaster::new(vec![], 2, 1);
        assert!(m.to_string().contains("2 threads"));
    }

    #[test]
    fn idle_ticks_is_min_across_waiting_threads_and_skip_matches_dense() {
        let program = vec![
            SocketCommand::read(0x00, 4)
                .with_stream(StreamId::new(0))
                .with_delay(8),
            SocketCommand::read(0x40, 4)
                .with_stream(StreamId::new(1))
                .with_delay(3),
        ];
        let mut dense = OcpMaster::new(program.clone(), 2, 1);
        let mut skipped = OcpMaster::new(program, 2, 1);
        let mut port_d = OcpPort::new();
        let mut port_s = OcpPort::new();
        assert_eq!(skipped.idle_ticks(), 3, "nearest thread wakes first");
        for c in 0..3 {
            dense.tick(c, &mut port_d);
            assert!(port_d.req.is_empty(), "cycle {c} is a pure countdown");
        }
        skipped.skip_ticks(3);
        assert_eq!(skipped.idle_ticks(), 0);
        dense.tick(3, &mut port_d);
        skipped.tick(3, &mut port_s);
        let (d, s) = (port_d.req.take(), port_s.req.take());
        assert_eq!(d, s, "same issue, same cycle");
        assert_eq!(d.unwrap().thread, 1);
        // both masters now hold one outstanding on thread 1; thread 0's
        // remaining wait must agree after the jump
        assert_eq!(dense.idle_ticks(), skipped.idle_ticks());
    }
}
