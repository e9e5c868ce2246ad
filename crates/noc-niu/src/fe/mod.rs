//! The NIU front ends: the protocol-specific half of adaptation.
//!
//! There is one initiator front end, [`Initiator<S>`]: it hosts the
//! socket's master [`Agent<S>`] and is the slave side of its port,
//! through [`Socket::accept`] (port → neutral request) and
//! [`Socket::respond`] (neutral response → port). Everything that
//! differs between AHB, AXI, OCP, VCI and STRM is therefore in the
//! [`Socket`] impl `noc-protocols` gives each of them, and
//! [`AhbInitiator`] … [`VciInitiator`] are aliases. The target side has
//! one socketed front end, [`AxiTargetFe`], driving an AXI slave IP.
//!
//! These are deliberately thin: all ordering, tagging, packetisation and
//! synchronisation machinery lives in the protocol-neutral back ends —
//! the paper's argument that socket support costs "the corresponding NIU"
//! and nothing else. The crate's tests add a sixth, WISHBONE-like socket
//! as one `impl Socket` to show it.

pub mod axi_target;

pub use axi_target::AxiTargetFe;

use crate::initiator::SocketInitiator;
use noc_kernel::Wake;
use noc_protocols::ahb::Ahb;
use noc_protocols::axi::Axi;
use noc_protocols::ocp::Ocp;
use noc_protocols::strm::Strm;
use noc_protocols::vci::VciFlavor;
use noc_protocols::{Agent, CompletionLog, Program, Socket};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// AHB front end; fully ordered, so pair it with
/// [`noc_transaction::OrderingModel::FullyOrdered`].
pub type AhbInitiator = Initiator<Ahb>;
/// AXI front end; socket IDs are renamed onto NoC tags by the back end,
/// so pair it with [`noc_transaction::OrderingModel::IdBased`].
pub type AxiInitiator = Initiator<Axi>;
/// OCP front end; threads map one-to-one onto NoC tags, so pair it with
/// [`noc_transaction::OrderingModel::Threaded`].
pub type OcpInitiator = Initiator<Ocp>;
/// STRM front end; fully ordered reads. Its *urgency* sideband needs
/// information exchanged between NIUs, so it rides the packet `pressure`
/// field — no transport or switch change (the paper's §2 recipe).
pub type StrmInitiator = Initiator<Strm>;
/// VCI front end: pair PVCI/BVCI with
/// [`noc_transaction::OrderingModel::FullyOrdered`] and AVCI with
/// [`noc_transaction::OrderingModel::Threaded`].
pub type VciInitiator = Initiator<VciFlavor>;

/// A response waiting for its socket channel.
type Queued = (StreamId, Opcode, TransactionResponse);

/// Hosts socket `S`'s master agent and converts its port traffic to
/// neutral transactions.
#[derive(Debug, Clone)]
pub struct Initiator<S: Socket> {
    master: Agent<S>,
    port: S::Port,
    /// One queue per response channel ([`Socket::RESP_CHANNELS`] ≤ 2).
    queues: [VecDeque<Queued>; 2],
}

impl<S: Socket> Initiator<S> {
    /// Creates the front end around a program-driven master.
    pub fn new(master: Agent<S>) -> Self {
        Initiator {
            master,
            port: S::Port::default(),
            queues: Default::default(),
        }
    }

    fn buffered(&self) -> bool {
        !S::quiet(&self.port) || self.queues.iter().any(|q| !q.is_empty())
    }
}

impl<S: Socket> SocketInitiator for Initiator<S> {
    fn tick(&mut self, cycle: u64) {
        // Drain buffered responses into the socket first so the master
        // can retire and issue in the same cycle sequence a real slave
        // would allow: one per response channel.
        for queue in &mut self.queues[..S::RESP_CHANNELS] {
            if let Some((stream, opcode, resp)) = queue.pop_front() {
                S::respond(&mut self.port, stream, opcode, resp);
            }
        }
        self.master.tick(cycle, &mut self.port);
    }

    fn pull_request(&mut self) -> Option<TransactionRequest> {
        S::accept(&mut self.port)
    }

    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        self.queues[S::resp_channel(opcode)].push_back((stream, opcode, resp));
    }

    fn done(&self) -> bool {
        self.master.done() && !self.buffered()
    }

    fn log(&self) -> &CompletionLog {
        self.master.log()
    }

    fn wake(&self, accepting: bool) -> Wake {
        // Queued responses keep the front end hot, and so does a port the
        // back end empties at its next tick. The master samples every
        // response channel each tick, so what a back end that does not
        // accept leaves on the port is held requests: the master's own
        // claim covers them.
        if self.queues.iter().any(|q| !q.is_empty()) || (accepting && !S::quiet(&self.port)) {
            return Wake::Ticks(0);
        }
        Wake::Ticks(self.master.idle_ticks(&self.port))
    }

    fn skip_ticks(&mut self, ticks: u64) {
        self.master.skip_ticks(ticks, &self.port);
    }

    fn load_program(&mut self, program: Program) {
        self.master.load_program(program);
    }

    fn clone_box(&self) -> Box<dyn SocketInitiator> {
        Box::new(self.clone())
    }
}
