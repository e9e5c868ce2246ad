//! AMBA AXI socket model.
//!
//! AXI is the paper's *ID-based* socket: every transaction carries an ID;
//! same-ID transactions (per direction) complete in order, different IDs
//! freely reorder. Reads and writes travel on **independent channels**
//! (AR/R vs AW/W/B), "further obscuring ordering constraints" as the
//! paper puts it. AXI also contributes the non-blocking **exclusive
//! access** pair ([`Opcode::ReadExclusive`] / [`Opcode::WriteExclusive`])
//! answered by `EXOKAY`.

use crate::agent::{neutral, Agent, Socket};
use crate::command::{Program, ProtocolKind, SocketCommand};
use crate::handshake::Chan;
use crate::loopback::Loopback;
use noc_transaction::{
    Burst, Opcode, RespStatus, StreamId, TransactionRequest, TransactionResponse,
};

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
#[derive(Debug, Clone, Default)]
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

/// The AXI socket: one issue lane in program order; responses keyed by
/// ID *and* direction, on the independent R and B channels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Axi;

/// The response key of transaction ID `id` in one direction.
#[inline]
fn key(id: u16, is_read: bool) -> u32 {
    (id as u32) << 1 | is_read as u32
}

impl Socket for Axi {
    type Port = AxiPort;

    const RESP_CHANNELS: usize = 2;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Axi
    }

    #[inline]
    fn key(&self, cmd: &SocketCommand) -> u32 {
        key(cmd.stream.raw(), cmd.opcode.is_read())
    }

    #[inline]
    fn ready(&self, port: &AxiPort, cmd: &SocketCommand) -> bool {
        if cmd.opcode.is_read() {
            port.ar.ready()
        } else {
            port.aw.ready()
        }
    }

    #[inline]
    fn drive(&mut self, port: &mut AxiPort, cmd: &SocketCommand) {
        let (id, addr, burst) = (cmd.stream.raw(), cmd.addr, cmd.burst());
        let exclusive = cmd.opcode.is_exclusive();
        if cmd.opcode.is_read() {
            let ar = AxiAr {
                id,
                addr,
                burst,
                exclusive,
            };
            port.ar.offer(ar).expect("ready was checked");
        } else {
            let data = cmd.payload();
            let aw = AxiAw {
                id,
                addr,
                burst,
                data,
                exclusive,
            };
            port.aw.offer(aw).expect("ready was checked");
        }
    }

    fn sample(port: &mut AxiPort, mut retire: impl FnMut(u32, RespStatus, Vec<u8>)) {
        if let Some(r) = port.r.take() {
            retire(key(r.id, true), r.status, r.data);
        }
        if let Some(b) = port.b.take() {
            retire(key(b.id, false), b.status, Vec::new());
        }
    }

    /// AR before AW, one per call.
    fn accept(port: &mut AxiPort) -> Option<TransactionRequest> {
        if let Some(ar) = port.ar.take() {
            let opcode = if ar.exclusive {
                Opcode::ReadExclusive
            } else {
                Opcode::Read
            };
            return Some(neutral(
                opcode,
                ar.addr,
                ar.burst,
                StreamId::new(ar.id),
                Vec::new(),
            ));
        }
        let aw = port.aw.take()?;
        let opcode = if aw.exclusive {
            Opcode::WriteExclusive
        } else {
            Opcode::Write
        };
        Some(neutral(
            opcode,
            aw.addr,
            aw.burst,
            StreamId::new(aw.id),
            aw.data,
        ))
    }

    #[inline]
    fn resp_channel(opcode: Opcode) -> usize {
        opcode.is_write() as usize
    }

    fn respond(port: &mut AxiPort, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        let (id, status) = (stream.raw(), resp.status());
        if opcode.is_read() {
            let data = resp.into_data();
            let offer = port.r.offer(AxiR { id, status, data });
            offer.expect("the master samples every cycle");
        } else {
            let offer = port.b.offer(AxiB { id, status });
            offer.expect("the master samples every cycle");
        }
    }

    #[inline]
    fn quiet(port: &AxiPort) -> bool {
        port.ar.is_empty() && port.aw.is_empty() && port.r.is_empty() && port.b.is_empty()
    }
}

/// An AXI master agent.
///
/// Commands issue in program order (one per cycle), subject to a per-ID
/// outstanding limit and a total limit; responses retire out of order
/// across IDs and directions.
///
/// # Examples
///
/// ```
/// use noc_protocols::axi::{Axi, AxiMaster};
/// use noc_protocols::{Loopback, MemoryModel, SocketCommand};
/// use noc_transaction::StreamId;
///
/// let program = vec![
///     SocketCommand::write(0x0, 4, 1).with_stream(StreamId::new(0)),
///     SocketCommand::read(0x100, 4).with_stream(StreamId::new(1)),
/// ];
/// let mut master = AxiMaster::new(program, 4, 8);
/// Loopback::<Axi>::new(MemoryModel::new(2), 0).run(&mut master, 100);
/// assert!(master.done());
/// ```
pub type AxiMaster = Agent<Axi>;

impl Agent<Axi> {
    /// Creates a master with the given per-ID and total outstanding
    /// limits: the total pauses the issue countdown, a full ID makes the
    /// command wait after it.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(program: Program, per_id_limit: u32, total_limit: u32) -> Self {
        Agent::with_shape(Axi, program, 1, total_limit, per_id_limit)
    }
}

/// An AXI slave IP over a memory — what the NIU's `AxiTargetFe` drives:
/// per-ID in-order on each of R and B, cross-ID reordering via banked
/// latency, an exclusive monitor for the exclusive pair. It is the
/// generic loopback at this socket, not a second implementation.
pub type AxiSlave = Loopback<Axi>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_axi_order};
    use crate::memory::MemoryModel;

    fn run(program: Program, per_id: u32, total: u32, stagger: u32, cycles: u64) -> AxiMaster {
        let mut master = AxiMaster::new(program, per_id, total);
        AxiSlave::new(MemoryModel::new(2), stagger).run(&mut master, cycles);
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
        assert!(m.to_string().starts_with("AXI master"));
    }
}
