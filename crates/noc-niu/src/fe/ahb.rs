//! AHB initiator front end.

use crate::initiator::SocketInitiator;
use noc_protocols::ahb::{AhbMaster, AhbPort, AhbResp};
use noc_protocols::{CompletionLog, Program};
use noc_transaction::{
    Opcode, RespStatus, ServiceBits, StreamId, TransactionRequest, TransactionResponse,
};
use std::collections::VecDeque;

/// Hosts an [`AhbMaster`] and converts its port traffic to neutral
/// transactions. AHB is fully ordered: the back end should be configured
/// with [`noc_transaction::OrderingModel::FullyOrdered`].
#[derive(Debug, Clone)]
pub struct AhbInitiator {
    master: AhbMaster,
    port: AhbPort,
    resp_queue: VecDeque<AhbResp>,
}

impl AhbInitiator {
    /// Creates the front end around a program-driven AHB master.
    pub fn new(master: AhbMaster) -> Self {
        AhbInitiator {
            master,
            port: AhbPort::new(),
            resp_queue: VecDeque::new(),
        }
    }
}

impl SocketInitiator for AhbInitiator {
    fn tick(&mut self, cycle: u64) {
        // Drain buffered responses into the socket first so the master
        // can retire and issue in the same cycle sequence a real slave
        // would allow.
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
            .stream(StreamId::ZERO);
        if req.locked {
            builder = builder.services(ServiceBits::LOCKED);
        }
        if req.opcode.is_write() {
            builder = builder.data(req.data);
        }
        Some(builder.build().expect("agent produces valid requests"))
    }

    fn push_response(&mut self, _stream: StreamId, opcode: Opcode, resp: TransactionResponse) {
        // AHB's HRESP cannot express exclusive statuses; collapse them.
        let status = match resp.status() {
            RespStatus::ExOkay => RespStatus::Okay,
            RespStatus::ExFail => RespStatus::SlvErr,
            s => s,
        };
        let data = if opcode.is_read() {
            resp.into_data()
        } else {
            Vec::new()
        };
        self.resp_queue.push_back(AhbResp { status, data });
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
