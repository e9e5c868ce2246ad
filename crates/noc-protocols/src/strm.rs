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

use crate::agent::{neutral, Agent, Socket};
use crate::command::{Program, ProtocolKind, SocketCommand};
use crate::handshake::Chan;
use noc_transaction::{
    Burst, Opcode, RespStatus, StreamId, TransactionRequest, TransactionResponse,
};

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
#[derive(Debug, Clone, Default)]
pub struct StrmPort {
    /// Posted write stream.
    pub tx: Chan<StrmWrite>,
    /// Read request stream.
    pub rreq: Chan<StrmReadReq>,
    /// Read data stream (in request order — STRM is fully ordered).
    pub rdata: Chan<StrmReadData>,
}

/// The STRM socket: one lane; writes complete at accept on `tx`, reads
/// wait on the one `rdata` key once their countdown has run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Strm;

impl Socket for Strm {
    type Port = StrmPort;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Strm
    }

    #[inline]
    fn stream(&self, _cmd: &SocketCommand) -> StreamId {
        StreamId::ZERO // STRM has no stream signal
    }

    #[inline]
    fn posted(&self, opcode: Opcode) -> bool {
        opcode.is_write()
    }

    #[inline]
    fn ready(&self, port: &StrmPort, cmd: &SocketCommand) -> bool {
        if cmd.opcode.is_read() {
            port.rreq.ready()
        } else {
            port.tx.ready()
        }
    }

    #[inline]
    fn drive(&mut self, port: &mut StrmPort, cmd: &SocketCommand) {
        let (addr, burst, urgency) = (cmd.addr, cmd.burst(), cmd.pressure);
        if cmd.opcode.is_read() {
            let req = StrmReadReq {
                addr,
                burst,
                urgency,
            };
            port.rreq.offer(req).expect("ready was checked");
        } else {
            let data = cmd.payload();
            let write = StrmWrite {
                addr,
                burst,
                data,
                urgency,
            };
            port.tx.offer(write).expect("ready was checked");
        }
    }

    fn sample(port: &mut StrmPort, mut retire: impl FnMut(u32, RespStatus, Vec<u8>)) {
        if let Some(rd) = port.rdata.take() {
            retire(0, rd.status, rd.data);
        }
    }

    fn accept(port: &mut StrmPort) -> Option<TransactionRequest> {
        let (opcode, addr, burst, data, urgency) = if let Some(w) = port.tx.take() {
            (Opcode::WritePosted, w.addr, w.burst, w.data, w.urgency)
        } else {
            let r = port.rreq.take()?;
            (Opcode::Read, r.addr, r.burst, Vec::new(), r.urgency)
        };
        Some(neutral(opcode, addr, burst, StreamId::ZERO, data).with_pressure(urgency))
    }

    fn respond(port: &mut StrmPort, _stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        debug_assert!(opcode.is_read(), "STRM only expects read responses");
        let rd = StrmReadData {
            status: resp.status(),
            data: resp.into_data(),
        };
        let offer = port.rdata.offer(rd);
        offer.expect("the master samples every cycle");
    }

    #[inline]
    fn quiet(port: &StrmPort) -> bool {
        port.tx.is_empty() && port.rreq.is_empty() && port.rdata.is_empty()
    }
}

/// A STRM master agent: writes are posted, reads are pipelined and fully
/// ordered.
///
/// # Examples
///
/// ```
/// use noc_protocols::strm::{Strm, StrmMaster};
/// use noc_protocols::{Loopback, MemoryModel, SocketCommand};
/// use noc_transaction::Opcode;
///
/// let program = vec![
///     SocketCommand::write(0x0, 4, 1).with_opcode(Opcode::WritePosted),
///     SocketCommand::read(0x0, 4),
/// ];
/// let mut master = StrmMaster::new(program, 4);
/// Loopback::<Strm>::new(MemoryModel::new(1), 0).run(&mut master, 100);
/// assert!(master.done());
/// ```
pub type StrmMaster = Agent<Strm>;

impl Agent<Strm> {
    /// Creates a master allowing `read_limit` outstanding reads.
    ///
    /// # Panics
    ///
    /// Panics if `read_limit` is zero or the program contains opcodes the
    /// socket cannot express (anything but reads and posted writes).
    pub fn new(program: Program, read_limit: u32) -> Self {
        Agent::with_shape(Strm, program, 1, u32::MAX, read_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ahb_order;
    use crate::loopback::Loopback;
    use crate::memory::MemoryModel;
    use noc_transaction::BurstKind;

    fn run(program: Program, cycles: u64) -> (StrmMaster, Loopback<Strm>) {
        let mut master = StrmMaster::new(program, 4);
        let mut slave = Loopback::new(MemoryModel::new(1), 0);
        slave.run(&mut master, cycles);
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
        let mut port = StrmPort::default();
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
        assert!(m.to_string().starts_with("STRM master"));
    }
}
