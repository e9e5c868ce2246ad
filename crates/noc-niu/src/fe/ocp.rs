//! OCP initiator front end.

use crate::initiator::SocketInitiator;
use noc_protocols::ocp::{OcpMaster, OcpPort, OcpResp};
use noc_protocols::{CompletionLog, Program};
use noc_transaction::{Opcode, StreamId, TransactionRequest, TransactionResponse};
use std::collections::VecDeque;

/// Hosts an [`OcpMaster`]; threads map one-to-one onto NoC tags, so pair
/// this with [`noc_transaction::OrderingModel::Threaded`].
#[derive(Debug, Clone)]
pub struct OcpInitiator {
    master: OcpMaster,
    port: OcpPort,
    resp_queue: VecDeque<OcpResp>,
}

impl OcpInitiator {
    /// Creates the front end around a program-driven OCP master.
    pub fn new(master: OcpMaster) -> Self {
        OcpInitiator {
            master,
            port: OcpPort::new(),
            resp_queue: VecDeque::new(),
        }
    }
}

impl SocketInitiator for OcpInitiator {
    fn tick(&mut self, cycle: u64) {
        if !self.resp_queue.is_empty() && self.port.resp.ready() {
            let resp = self.resp_queue.pop_front().expect("checked non-empty");
            self.port.resp.offer(resp);
        }
        self.master.tick(cycle, &mut self.port);
    }

    fn pull_request(&mut self) -> Option<TransactionRequest> {
        let req = self.port.req.take()?;
        let mut builder = TransactionRequest::builder(req.opcode)
            .address(req.addr)
            .burst(req.burst)
            .stream(StreamId::new(req.thread as u16));
        if req.opcode.is_write() {
            builder = builder.data(req.data);
        }
        Some(builder.build().expect("agent produces valid requests"))
    }

    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        let status = resp.status();
        let data = if opcode.is_read() {
            resp.into_data()
        } else {
            Vec::new()
        };
        self.resp_queue.push_back(OcpResp {
            thread: stream.raw() as u8,
            status,
            data,
        });
    }

    fn done(&self) -> bool {
        self.master.done() && self.resp_queue.is_empty() && self.port.req.is_empty()
    }

    fn log(&self) -> &CompletionLog {
        self.master.log()
    }

    fn idle_ticks(&self) -> u64 {
        if !self.resp_queue.is_empty() || self.port.req.valid() || self.port.resp.valid() {
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
