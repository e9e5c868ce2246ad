//! Proprietary streaming (STRM) initiator front end.
//!
//! Demonstrates the paper's §2 recipe on a socket-specific feature: the
//! STRM *urgency* sideband needs information exchanged between NIUs →
//! it rides the packet `pressure` field; no transport or switch change.

use crate::initiator::SocketInitiator;
use noc_protocols::strm::{StrmMaster, StrmPort, StrmReadData};
use noc_protocols::{CompletionLog, Program};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts a [`StrmMaster`]; fully ordered reads → pair with
/// [`noc_transaction::OrderingModel::FullyOrdered`].
#[derive(Debug, Clone)]
pub struct StrmInitiator {
    master: StrmMaster,
    port: StrmPort,
    rdata_queue: VecDeque<StrmReadData>,
}

impl StrmInitiator {
    /// Creates the front end around a program-driven STRM master.
    pub fn new(master: StrmMaster) -> Self {
        StrmInitiator {
            master,
            port: StrmPort::new(),
            rdata_queue: VecDeque::new(),
        }
    }
}

impl SocketInitiator for StrmInitiator {
    fn tick(&mut self, cycle: u64) {
        if !self.rdata_queue.is_empty() && self.port.rdata.ready() {
            let rd = self.rdata_queue.pop_front().expect("checked non-empty");
            self.port.rdata.offer(rd);
        }
        self.master.tick(cycle, &mut self.port);
    }

    fn pull_request(&mut self) -> Option<TransactionRequest> {
        if let Some(w) = self.port.tx.take() {
            return Some(
                TransactionRequest::builder(Opcode::WritePosted)
                    .address(w.addr)
                    .burst(w.burst)
                    .stream(StreamId::ZERO)
                    .pressure(w.urgency)
                    .data(w.data)
                    .build()
                    .expect("agent produces valid requests"),
            );
        }
        if let Some(r) = self.port.rreq.take() {
            return Some(
                TransactionRequest::builder(Opcode::Read)
                    .address(r.addr)
                    .burst(r.burst)
                    .stream(StreamId::ZERO)
                    .pressure(r.urgency)
                    .build()
                    .expect("agent produces valid requests"),
            );
        }
        None
    }

    fn push_response(&mut self, _stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        debug_assert!(opcode.is_read(), "STRM only expects read responses");
        self.rdata_queue.push_back(StrmReadData {
            status: resp.status(),
            data: resp.into_data(),
        });
    }

    fn done(&self) -> bool {
        self.master.done()
            && self.rdata_queue.is_empty()
            && self.port.tx.is_empty()
            && self.port.rreq.is_empty()
    }

    fn log(&self) -> &CompletionLog {
        self.master.log()
    }

    fn idle_ticks(&self) -> u64 {
        if !self.rdata_queue.is_empty()
            || self.port.tx.valid()
            || self.port.rreq.valid()
            || self.port.rdata.valid()
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
