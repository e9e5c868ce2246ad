//! AXI target front end: a target NIU driving an AXI slave IP (the
//! typical DRAM-controller attachment).

use crate::target::SocketTarget;
use noc_protocols::axi::{AxiAr, AxiAw, AxiPort, AxiSlave};
use noc_transaction::{MstAddr, SlvAddr, Tag, TransactionRequest, TransactionResponse};
use std::collections::{HashMap, VecDeque};

/// Drives an [`AxiSlave`] from neutral transactions.
///
/// Each NoC request is mapped to a local AXI ID derived from its
/// `(MstAddr, Tag)` pair, so same-tag NoC order becomes same-ID AXI
/// order — preserving the transaction layer's ordering contract through
/// the socket.
/// Return-path bookkeeping for one AXI ID: (src, origin, tag, expects a
/// NoC response) per beat. AXI always returns a B beat, so posted writes
/// still enqueue here — with `expects = false`, so the B is consumed
/// silently instead of surfacing a response the NIU never asked for.
type PendingFifo = VecDeque<(MstAddr, SlvAddr, Tag, bool)>;

#[derive(Debug, Clone)]
pub struct AxiTargetFe {
    slave: AxiSlave,
    port: AxiPort,
    /// (Local AXI ID, is-read) → pending (src, origin, tag) FIFOs.
    pending: HashMap<(u16, bool), PendingFifo>,
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
}

impl SocketTarget for AxiTargetFe {
    fn tick(&mut self, cycle: u64) {
        self.slave.tick(cycle, &mut self.port);
        if let Some(r) = self.port.r.take() {
            let (src, origin, tag, expects) = self
                .pending
                .get_mut(&(r.id, true))
                .and_then(|q| q.pop_front())
                .expect("R beat for an issued request");
            if expects {
                self.out
                    .push_back(TransactionResponse::new(r.status, src, origin, tag, r.data));
            }
        }
        if let Some(b) = self.port.b.take() {
            let (src, origin, tag, expects) = self
                .pending
                .get_mut(&(b.id, false))
                .and_then(|q| q.pop_front())
                .expect("B beat for an issued request");
            if expects {
                self.out.push_back(TransactionResponse::new(
                    b.status,
                    src,
                    origin,
                    tag,
                    Vec::new(),
                ));
            }
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
        self.pending.entry((id, is_read)).or_default().push_back((
            req.src(),
            req.dst(),
            req.tag(),
            req.opcode().expects_response(),
        ));
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

    fn idle_ticks(&self) -> u64 {
        // The pending FIFOs mirror the slave's in-service set, so with
        // them and every buffer drained the slave tick has nothing to
        // accept or emit: a pure no-op until a new request arrives.
        let empty = self.out.is_empty()
            && self.pending.values().all(|q| q.is_empty())
            && self.port.ar.is_empty()
            && self.port.aw.is_empty()
            && self.port.r.is_empty()
            && self.port.b.is_empty();
        if empty {
            u64::MAX
        } else {
            0
        }
    }
}
