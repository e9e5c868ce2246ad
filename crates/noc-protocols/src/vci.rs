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

use crate::agent::{neutral, read_data, write_data, Agent, Socket};
use crate::command::{Program, ProtocolKind, SocketCommand};
use crate::handshake::Chan;
use noc_transaction::{
    Burst, Opcode, RespStatus, StreamId, TransactionRequest, TransactionResponse,
};
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
    pub opcode: Opcode,
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
#[derive(Debug, Clone, Default)]
pub struct VciPort {
    /// Master → slave request cells.
    pub req: Chan<VciReq>,
    /// Slave → master response cells.
    pub resp: Chan<VciResp>,
}

/// The VCI socket is its flavour: PVCI and BVCI issue on one lane, AVCI
/// on one per thread; PVCI alone is single-outstanding and single-beat.
impl Socket for VciFlavor {
    type Port = VciPort;

    // Threads share the one request cell channel.
    const BUSY_PAUSES: bool = true;

    fn kind(&self) -> ProtocolKind {
        match self {
            VciFlavor::Peripheral => ProtocolKind::Pvci,
            VciFlavor::Basic => ProtocolKind::Bvci,
            VciFlavor::Advanced { .. } => ProtocolKind::Avci,
        }
    }

    fn max_beats(&self) -> u32 {
        match self {
            VciFlavor::Peripheral => 1,
            _ => u32::MAX,
        }
    }

    fn max_depth(&self) -> u32 {
        self.max_beats() // the peripheral handshake has no pipelining either
    }

    #[inline]
    fn lane(&self, cmd: &SocketCommand) -> usize {
        if self.threads() == 1 {
            0
        } else {
            cmd.stream.raw() as usize
        }
    }

    #[inline]
    fn ready(&self, port: &VciPort, _cmd: &SocketCommand) -> bool {
        port.req.ready()
    }

    #[inline]
    fn drive(&mut self, port: &mut VciPort, cmd: &SocketCommand) {
        let req = VciReq {
            opcode: cmd.opcode,
            thread: self.lane(cmd) as u8,
            addr: cmd.addr,
            burst: cmd.burst(),
            data: write_data(cmd),
        };
        port.req.offer(req).expect("ready was checked");
    }

    fn sample(port: &mut VciPort, mut retire: impl FnMut(u32, RespStatus, Vec<u8>)) {
        if let Some(resp) = port.resp.take() {
            retire(resp.thread as u32, resp.status, resp.data);
        }
    }

    fn accept(port: &mut VciPort) -> Option<TransactionRequest> {
        let req = port.req.take()?;
        let stream = StreamId::new(req.thread as u16);
        Some(neutral(req.opcode, req.addr, req.burst, stream, req.data))
    }

    fn respond(port: &mut VciPort, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        let resp = VciResp {
            thread: stream.raw() as u8,
            status: resp.status(),
            data: read_data(opcode, resp),
        };
        let offer = port.resp.offer(resp);
        offer.expect("the master samples every cycle");
    }

    #[inline]
    fn quiet(port: &VciPort) -> bool {
        port.req.is_empty() && port.resp.is_empty()
    }
}

/// A VCI master agent covering all three flavours.
///
/// # Examples
///
/// ```
/// use noc_protocols::vci::{VciFlavor, VciMaster};
/// use noc_protocols::{Loopback, MemoryModel, SocketCommand};
///
/// let program = vec![SocketCommand::read(0x20, 4)];
/// let mut master = VciMaster::new(program, VciFlavor::Basic, 2);
/// Loopback::<VciFlavor>::new(MemoryModel::new(1), 0).run(&mut master, 50);
/// assert!(master.done());
/// ```
pub type VciMaster = Agent<VciFlavor>;

impl Agent<VciFlavor> {
    /// Creates a master. `pipeline_depth` is the outstanding limit per
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if a command's opcode is never answered (a response is what
    /// retires a VCI command — see [`ProtocolKind::expresses`]), if a PVCI
    /// program contains multi-beat bursts or is given a depth above 1, if
    /// a command's stream exceeds the flavour's thread count, or if
    /// `pipeline_depth` is zero.
    pub fn new(program: Program, flavor: VciFlavor, pipeline_depth: u32) -> Self {
        let threads = flavor.threads() as usize;
        Agent::with_shape(flavor, program, threads, pipeline_depth, u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_ahb_order, check_ocp_order};
    use crate::loopback::Loopback;
    use crate::memory::MemoryModel;
    use noc_transaction::BurstKind;

    fn run(
        program: Program,
        flavor: VciFlavor,
        depth: u32,
        stagger: u32,
        cycles: u64,
    ) -> VciMaster {
        let mut master = VciMaster::new(program, flavor, depth);
        Loopback::new(MemoryModel::new(2), stagger).run(&mut master, cycles);
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
    #[should_panic(expected = "PVCI carries at most 1 beat(s) per command (command 0 has 4)")]
    fn pvci_rejects_bursts() {
        VciMaster::new(
            vec![SocketCommand::read(0, 4).with_burst(BurstKind::Incr, 4)],
            VciFlavor::Peripheral,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "BVCI cannot express Broadcast (command 1)")]
    fn bvci_refuses_a_broadcast_at_construction() {
        let program = vec![
            SocketCommand::read(0, 4),
            SocketCommand::write(0, 4, 1).with_opcode(Opcode::Broadcast),
        ];
        VciMaster::new(program, VciFlavor::Basic, 1);
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
