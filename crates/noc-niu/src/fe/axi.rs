//! AXI initiator front end.

use crate::initiator::SocketInitiator;
use noc_protocols::axi::{AxiB, AxiMaster, AxiPort, AxiR};
use noc_protocols::{CompletionLog, Program};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts an [`AxiMaster`]; socket IDs are renamed onto NoC tags by the
/// back end, so pair this with
/// [`noc_transaction::OrderingModel::IdBased`].
#[derive(Debug, Clone)]
pub struct AxiInitiator {
    master: AxiMaster,
    port: AxiPort,
    r_queue: VecDeque<AxiR>,
    b_queue: VecDeque<AxiB>,
}

impl AxiInitiator {
    /// Creates the front end around a program-driven AXI master.
    pub fn new(master: AxiMaster) -> Self {
        AxiInitiator {
            master,
            port: AxiPort::new(),
            r_queue: VecDeque::new(),
            b_queue: VecDeque::new(),
        }
    }
}

impl SocketInitiator for AxiInitiator {
    fn tick(&mut self, cycle: u64) {
        if !self.r_queue.is_empty() && self.port.r.ready() {
            let r = self.r_queue.pop_front().expect("checked non-empty");
            self.port.r.offer(r);
        }
        if !self.b_queue.is_empty() && self.port.b.ready() {
            let b = self.b_queue.pop_front().expect("checked non-empty");
            self.port.b.offer(b);
        }
        self.master.tick(cycle, &mut self.port);
    }

    fn pull_request(&mut self) -> Option<TransactionRequest> {
        // Reads and writes arrive on independent channels; alternate
        // fairly by draining AR first, then AW (one per pull).
        if let Some(ar) = self.port.ar.take() {
            let opcode = if ar.exclusive {
                Opcode::ReadExclusive
            } else {
                Opcode::Read
            };
            return Some(
                TransactionRequest::builder(opcode)
                    .address(ar.addr)
                    .burst(ar.burst)
                    .stream(StreamId::new(ar.id))
                    .build()
                    .expect("agent produces valid requests"),
            );
        }
        if let Some(aw) = self.port.aw.take() {
            let opcode = if aw.exclusive {
                Opcode::WriteExclusive
            } else {
                Opcode::Write
            };
            return Some(
                TransactionRequest::builder(opcode)
                    .address(aw.addr)
                    .burst(aw.burst)
                    .stream(StreamId::new(aw.id))
                    .data(aw.data)
                    .build()
                    .expect("agent produces valid requests"),
            );
        }
        None
    }

    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        if opcode.is_read() {
            self.r_queue.push_back(AxiR {
                id: stream.raw(),
                status: resp.status(),
                data: resp.into_data(),
            });
        } else {
            self.b_queue.push_back(AxiB {
                id: stream.raw(),
                status: resp.status(),
            });
        }
    }

    fn done(&self) -> bool {
        self.master.done()
            && self.r_queue.is_empty()
            && self.b_queue.is_empty()
            && self.port.ar.is_empty()
            && self.port.aw.is_empty()
    }

    fn log(&self) -> &CompletionLog {
        self.master.log()
    }

    fn idle_ticks(&self) -> u64 {
        if !self.r_queue.is_empty()
            || !self.b_queue.is_empty()
            || self.port.ar.valid()
            || self.port.aw.valid()
            || self.port.r.valid()
            || self.port.b.valid()
        {
            return 0; // buffered traffic keeps the front end hot
        }
        self.master.idle_ticks()
    }

    fn skip_ticks(&mut self, ticks: u64) {
        self.master.skip_ticks(ticks);
    }

    fn load_program(&mut self, program: Program) {
        self.master.load_program(program);
    }

    fn append_commands(&mut self, tail: &[noc_protocols::SocketCommand]) {
        self.master.append_commands(tail);
    }

    fn clone_box(&self) -> Box<dyn SocketInitiator> {
        Box::new(self.clone())
    }
}
