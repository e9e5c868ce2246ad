//! AXI target front end: a target NIU driving an AXI slave IP (the
//! typical DRAM-controller attachment).

use crate::target::SocketTarget;
use noc_kernel::Wake;
use noc_protocols::axi::{AxiAr, AxiAw, AxiPort, AxiSlave};
use noc_transaction::{MstAddr, RespStatus, SlvAddr, Tag, TransactionRequest, TransactionResponse};
use std::collections::{HashMap, VecDeque};

/// Return-path bookkeeping for one request issued to the slave.
#[derive(Debug, Clone)]
struct Pending {
    src: MstAddr,
    origin: SlvAddr,
    tag: Tag,
    /// AXI always returns a B beat, so posted writes are tracked too —
    /// with `expects = false`, so the B is consumed silently instead of
    /// surfacing a response the NIU never asked for.
    expects: bool,
    is_read: bool,
    /// The slave's answer, once its R or B beat has arrived.
    answer: Option<(RespStatus, Vec<u8>)>,
}

/// Drives an [`AxiSlave`] from neutral transactions.
///
/// Each NoC request is mapped to a local AXI ID derived from its
/// `(MstAddr, Tag)` pair, so same-tag NoC order becomes same-ID AXI
/// order. The slave keeps that order on R and on B, but answers the two
/// independently, so a one-beat write can finish before an older
/// eight-beat read of its ID: the front end holds such an answer until
/// every older request of the ID is answered, which keeps the
/// [`SocketTarget`] order contract.
#[derive(Debug, Clone)]
pub struct AxiTargetFe {
    slave: AxiSlave,
    port: AxiPort,
    /// Local AXI ID → its requests in issue order, both directions.
    pending: HashMap<u16, VecDeque<Pending>>,
    out: VecDeque<TransactionResponse>,
}

impl AxiTargetFe {
    /// Creates the front end around an AXI slave IP.
    pub fn new(slave: AxiSlave) -> Self {
        AxiTargetFe {
            slave,
            port: AxiPort::default(),
            pending: HashMap::new(),
            out: VecDeque::new(),
        }
    }

    /// The wrapped slave (test inspection).
    pub fn slave(&self) -> &AxiSlave {
        &self.slave
    }

    /// Stable local-ID mapping: same (src, tag) → same AXI ID, so
    /// same-tag transactions stay ordered at the slave.
    fn local_id(src: MstAddr, tag: Tag) -> u16 {
        ((src.raw() & 0xFF) << 8) | tag.raw() as u16
    }

    /// Records the slave's answer to the oldest unanswered request of
    /// `id` in its direction (R and B each keep per-ID order), then
    /// releases the ID's answered prefix.
    fn answer(&mut self, id: u16, is_read: bool, status: RespStatus, data: Vec<u8>) {
        let queue = self.pending.get_mut(&id).expect("a beat for an issued ID");
        let entry = queue
            .iter_mut()
            .find(|p| p.is_read == is_read && p.answer.is_none())
            .expect("a beat for an issued request");
        entry.answer = Some((status, data));
        while queue.front().is_some_and(|p| p.answer.is_some()) {
            let p = queue.pop_front().expect("front checked");
            let (status, data) = p.answer.expect("answered");
            if p.expects {
                let resp = TransactionResponse::new(status, p.src, p.origin, p.tag, data);
                self.out.push_back(resp);
            }
        }
    }
}

impl SocketTarget for AxiTargetFe {
    fn tick(&mut self, cycle: u64) {
        self.slave.tick(cycle, &mut self.port);
        if let Some(r) = self.port.r.take() {
            self.answer(r.id, true, r.status, r.data);
        }
        if let Some(b) = self.port.b.take() {
            self.answer(b.id, false, b.status, Vec::new());
        }
    }

    fn push_request(&mut self, req: TransactionRequest) -> Result<(), TransactionRequest> {
        let is_read = req.opcode().is_read();
        let ready = if is_read {
            self.port.ar.ready()
        } else {
            self.port.aw.ready()
        };
        if !ready {
            return Err(req);
        }
        let id = Self::local_id(req.src(), req.tag());
        self.pending.entry(id).or_default().push_back(Pending {
            src: req.src(),
            origin: req.dst(),
            tag: req.tag(),
            expects: req.opcode().expects_response(),
            is_read,
            answer: None,
        });
        let (addr, burst) = (req.address(), req.burst());
        if is_read {
            let ar = AxiAr {
                id,
                addr,
                burst,
                exclusive: false,
            };
            self.port.ar.offer(ar).expect("ready was checked");
        } else {
            let aw = AxiAw {
                id,
                addr,
                burst,
                data: req.into_data(),
                exclusive: false,
            };
            self.port.aw.offer(aw).expect("ready was checked");
        }
        Ok(())
    }

    fn pull_response(&mut self) -> Option<TransactionResponse> {
        self.out.pop_front()
    }

    fn wake(&self) -> Wake {
        // The pending FIFOs mirror the slave's in-service set, so with
        // them and every buffer drained the slave tick has nothing to
        // accept or emit: a pure no-op until a new request arrives.
        let empty = self.out.is_empty()
            && self.pending.values().all(|q| q.is_empty())
            && self.port.ar.is_empty()
            && self.port.aw.is_empty()
            && self.port.r.is_empty()
            && self.port.b.is_empty();
        Wake::Ticks(if empty { u64::MAX } else { 0 })
    }
}
