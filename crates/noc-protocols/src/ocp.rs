//! OCP 2.x socket model.
//!
//! OCP is the paper's *multi-threaded* socket: requests and responses
//! carry a `ThreadID`; order is guaranteed within a thread and
//! unconstrained across threads. OCP also contributes posted writes
//! (`WR` without a response — [`Opcode::WritePosted`]) and the *lazy
//! synchronisation* pair `RDL`/`WRC` ([`Opcode::ReadLinked`] /
//! [`Opcode::WriteConditional`]), the non-blocking alternative to legacy
//! locks that the NoC supports with a single service bit.

use crate::agent::{neutral, read_data, write_data, Agent, Socket};
use crate::command::{Program, ProtocolKind, SocketCommand};
use crate::handshake::Chan;
use noc_transaction::{
    Burst, Opcode, RespStatus, StreamId, TransactionRequest, TransactionResponse,
};

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
#[derive(Debug, Clone, Default)]
pub struct OcpPort {
    /// Master → slave request group.
    pub req: Chan<OcpReq>,
    /// Slave → master response group.
    pub resp: Chan<OcpResp>,
}

/// The OCP socket: one lane per thread, responses keyed by `SThreadID`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ocp;

impl Socket for Ocp {
    type Port = OcpPort;

    // Threads share the one request group.
    const BUSY_PAUSES: bool = true;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Ocp
    }

    #[inline]
    fn lane(&self, cmd: &SocketCommand) -> usize {
        cmd.stream.raw() as usize
    }

    #[inline]
    fn posted(&self, opcode: Opcode) -> bool {
        opcode.is_posted()
    }

    #[inline]
    fn ready(&self, port: &OcpPort, _cmd: &SocketCommand) -> bool {
        port.req.ready()
    }

    #[inline]
    fn drive(&mut self, port: &mut OcpPort, cmd: &SocketCommand) {
        let req = OcpReq {
            opcode: cmd.opcode,
            thread: cmd.stream.raw() as u8,
            addr: cmd.addr,
            burst: cmd.burst(),
            data: write_data(cmd),
        };
        port.req.offer(req).expect("ready was checked");
    }

    fn sample(port: &mut OcpPort, mut retire: impl FnMut(u32, RespStatus, Vec<u8>)) {
        if let Some(resp) = port.resp.take() {
            retire(resp.thread as u32, resp.status, resp.data);
        }
    }

    fn accept(port: &mut OcpPort) -> Option<TransactionRequest> {
        let req = port.req.take()?;
        let stream = StreamId::new(req.thread as u16);
        Some(neutral(req.opcode, req.addr, req.burst, stream, req.data))
    }

    fn respond(port: &mut OcpPort, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        let resp = OcpResp {
            thread: stream.raw() as u8,
            status: resp.status(),
            data: read_data(opcode, resp),
        };
        let offer = port.resp.offer(resp);
        offer.expect("the master samples every cycle");
    }

    #[inline]
    fn quiet(port: &OcpPort) -> bool {
        port.req.is_empty() && port.resp.is_empty()
    }
}

/// An OCP master agent: each socket thread issues its share of the
/// program independently, in order within the thread.
///
/// # Examples
///
/// ```
/// use noc_protocols::ocp::{Ocp, OcpMaster};
/// use noc_protocols::{Loopback, MemoryModel, SocketCommand};
/// use noc_transaction::StreamId;
///
/// let program = vec![
///     SocketCommand::read(0x0, 4).with_stream(StreamId::new(0)),
///     SocketCommand::read(0x100, 4).with_stream(StreamId::new(1)),
/// ];
/// let mut master = OcpMaster::new(program, 2, 1);
/// Loopback::<Ocp>::new(MemoryModel::new(2), 0).run(&mut master, 100);
/// assert!(master.done());
/// ```
pub type OcpMaster = Agent<Ocp>;

impl Agent<Ocp> {
    /// Creates a master with `num_threads` threads, each allowed
    /// `per_thread_limit` outstanding requests.
    ///
    /// # Panics
    ///
    /// Panics if a command's stream exceeds `num_threads`, if
    /// `num_threads` is zero, or if `per_thread_limit` is zero.
    pub fn new(program: Program, num_threads: u8, per_thread_limit: u32) -> Self {
        Agent::with_shape(
            Ocp,
            program,
            num_threads as usize,
            per_thread_limit,
            u32::MAX,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_ocp_order};
    use crate::loopback::Loopback;
    use crate::memory::MemoryModel;

    fn run(program: Program, threads: u8, limit: u32, stagger: u32, cycles: u64) -> OcpMaster {
        let mut master = OcpMaster::new(program, threads, limit);
        Loopback::new(MemoryModel::new(2), stagger).run(&mut master, cycles);
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
        let master = run(program.clone(), 1, 1, 0, 200);
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
        assert!(m.to_string().starts_with("OCP master: 2 lane(s)"));
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
        let mut m = OcpMaster::new(program, 2, 1);
        let mut port = OcpPort::default();
        assert_eq!(m.idle_ticks(&port), 3, "nearest thread wakes first");
        m.skip_ticks(3, &port);
        assert_eq!(m.idle_ticks(&port), 0);
        m.tick(3, &mut port);
        assert_eq!(port.req.take().unwrap().thread, 1);
        // thread 1 waits on its response; thread 0 kept counting
        assert_eq!(m.idle_ticks(&port), 4);
    }
}
