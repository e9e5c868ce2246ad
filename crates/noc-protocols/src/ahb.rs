//! AMBA AHB 2.0 socket model.
//!
//! AHB is the canonical *fully ordered* socket of paper §3: a single
//! outstanding transaction (pipelined address/data collapse into one
//! request/response exchange here), responses strictly in request order,
//! and locked sequences via `HMASTLOCK` — the master raises the lock with
//! a [`Opcode::ReadLocked`] and drops it with the matching
//! [`Opcode::WriteUnlock`].

use crate::agent::{neutral, read_data, write_data, Agent, Socket};
use crate::command::{Program, ProtocolKind, SocketCommand};
use crate::handshake::Chan;
use noc_transaction::{
    Burst, Opcode, RespStatus, ServiceBits, StreamId, TransactionRequest, TransactionResponse,
};

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
#[derive(Debug, Clone, Default)]
pub struct AhbPort {
    /// Master → slave requests.
    pub req: Chan<AhbReq>,
    /// Slave → master responses.
    pub resp: Chan<AhbResp>,
}

/// The AHB socket: one lane of depth one, plus the `HMASTLOCK` level.
#[derive(Debug, Clone, Default)]
pub struct Ahb {
    /// Raised by a [`Opcode::ReadLocked`], held through the matching
    /// [`Opcode::WriteUnlock`], low for the transfer after it.
    locked: bool,
}

impl Socket for Ahb {
    type Port = AhbPort;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Ahb
    }

    #[inline]
    fn stream(&self, _cmd: &SocketCommand) -> StreamId {
        StreamId::ZERO // AHB has no stream signal
    }

    #[inline]
    fn ready(&self, port: &AhbPort, _cmd: &SocketCommand) -> bool {
        port.req.ready()
    }

    #[inline]
    fn drive(&mut self, port: &mut AhbPort, cmd: &SocketCommand) {
        let locked = self.locked || cmd.opcode == Opcode::ReadLocked;
        // Single outstanding: the unlocking write has been answered by
        // the time the next transfer is driven.
        self.locked = locked && cmd.opcode != Opcode::WriteUnlock;
        let req = AhbReq {
            opcode: cmd.opcode,
            addr: cmd.addr,
            burst: cmd.burst(),
            data: write_data(cmd),
            locked,
        };
        port.req.offer(req).expect("ready was checked");
    }

    fn sample(port: &mut AhbPort, mut retire: impl FnMut(u32, RespStatus, Vec<u8>)) {
        if let Some(resp) = port.resp.take() {
            retire(0, resp.status, resp.data);
        }
    }

    fn accept(port: &mut AhbPort) -> Option<TransactionRequest> {
        let req = port.req.take()?;
        let neutral = neutral(req.opcode, req.addr, req.burst, StreamId::ZERO, req.data);
        Some(if req.locked {
            neutral.with_services(ServiceBits::LOCKED)
        } else {
            neutral
        })
    }

    fn respond(port: &mut AhbPort, _stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        // AHB's HRESP cannot express exclusive statuses; collapse them.
        let status = match resp.status() {
            RespStatus::ExOkay => RespStatus::Okay,
            RespStatus::ExFail => RespStatus::SlvErr,
            s => s,
        };
        let data = read_data(opcode, resp);
        let offer = port.resp.offer(AhbResp { status, data });
        offer.expect("the master samples every cycle");
    }

    #[inline]
    fn quiet(port: &AhbPort) -> bool {
        port.req.is_empty() && port.resp.is_empty()
    }
}

/// An AHB master agent executing a [`Program`] with single-outstanding,
/// fully-ordered semantics.
///
/// # Examples
///
/// ```
/// use noc_protocols::ahb::{Ahb, AhbMaster};
/// use noc_protocols::{Loopback, MemoryModel, SocketCommand};
///
/// let program = vec![
///     SocketCommand::write(0x100, 4, 1),
///     SocketCommand::read(0x100, 4),
/// ];
/// let mut master = AhbMaster::new(program);
/// Loopback::<Ahb>::new(MemoryModel::new(2), 0).run(&mut master, 100);
/// assert!(master.done());
/// assert_eq!(master.log().len(), 2);
/// // The read observed the written data:
/// assert_eq!(master.log().records()[1].data, master.log().records()[0].data);
/// ```
pub type AhbMaster = Agent<Ahb>;

impl Agent<Ahb> {
    /// Creates a master that will execute `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program contains an opcode that is never answered:
    /// a response is what retires an AHB command (see
    /// [`ProtocolKind::expresses`]).
    pub fn new(program: Program) -> Self {
        Agent::with_shape(Ahb::default(), program, 1, 1, u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_ahb_order;
    use crate::loopback::Loopback;
    use crate::memory::MemoryModel;
    use noc_transaction::BurstKind;

    fn run(program: Program, latency: u32, cycles: u64) -> (AhbMaster, Loopback<Ahb>) {
        let mut master = AhbMaster::new(program);
        let mut slave = Loopback::new(MemoryModel::new(latency), 0);
        slave.run(&mut master, cycles);
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
        let mut waiting = AhbMaster::new(vec![SocketCommand::read(0, 4); 2]);
        let mut port = AhbPort::default();
        waiting.tick(0, &mut port);
        assert_eq!(
            waiting.idle_ticks(&port),
            u64::MAX,
            "nothing moves before HRESP"
        );
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
        let mut slave = Loopback::<Ahb>::new(MemoryModel::new(1), 0);
        let mut port = AhbPort::default();
        let mut saw_locked = false;
        for cycle in 0..200 {
            master.tick(cycle, &mut port);
            if let Some(req) = port.req.peek() {
                if req.locked {
                    saw_locked = true;
                }
                assert_eq!(
                    req.locked,
                    req.opcode != Opcode::Read,
                    "held through the unlock"
                );
            }
            slave.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
        assert!(master.done());
        assert!(saw_locked);
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
        assert!(m.to_string().starts_with("AHB master"));
    }
}
