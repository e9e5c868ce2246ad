//! The generic loopback slave: a [`MemoryModel`] behind any socket.

use crate::agent::{Agent, Socket};
use crate::memory::{access, MemoryModel};
use noc_transaction::{
    ExclusiveMonitor, MstAddr, Opcode, RespStatus, SlvAddr, StreamId, Tag, TransactionResponse,
};
use std::marker::PhantomData;

/// A response computed at accept, waiting for its cycle.
#[derive(Debug, Clone)]
struct Pending {
    ready_at: u64,
    stream: StreamId,
    opcode: Opcode,
    resp: TransactionResponse,
}

/// The slave side of socket `S` over a memory — the reference every
/// master's tests and doc examples run against. It speaks through the
/// same [`Socket::accept`] / [`Socket::respond`] hooks the NIU front end
/// uses, so it needs no per-protocol code.
///
/// A request is served `latency + beats` cycles after acceptance, plus
/// `(addr >> 8) % 4 * bank_stagger` to emulate banked storage. Responses
/// of one stream on one response channel return in acceptance order;
/// across streams the earliest-ready goes first, so a stagger makes
/// threads and IDs genuinely complete out of order.
#[derive(Debug, Clone)]
pub struct Loopback<S: Socket> {
    mem: MemoryModel,
    monitor: ExclusiveMonitor,
    bank_stagger: u32,
    /// In acceptance order.
    pending: Vec<Pending>,
    socket: PhantomData<S>,
}

impl<S: Socket> Loopback<S> {
    /// Creates a slave over `mem`.
    pub fn new(mem: MemoryModel, bank_stagger: u32) -> Self {
        Loopback {
            mem,
            monitor: ExclusiveMonitor::new(64, 8),
            bank_stagger,
            pending: Vec::new(),
            socket: PhantomData,
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Advances one socket cycle: accepts every request on the port
    /// (memory state is sequentially consistent at the socket), then
    /// sends at most one response per response channel.
    pub fn tick(&mut self, cycle: u64, port: &mut S::Port) {
        self.accept(cycle, port);
        self.respond(cycle, port);
    }

    /// Accepts every request on the port and serves it.
    fn accept(&mut self, cycle: u64, port: &mut S::Port) {
        while let Some(req) = S::accept(port) {
            let (stream, opcode) = (req.stream(), req.opcode());
            let (addr, burst) = (req.address(), req.burst());
            let bank = (addr >> 8) % 4;
            let service = self.mem.latency() as u64 + burst.beats() as u64;
            let master = MstAddr::new(stream.raw());
            let (status, data) = if self.monitor.admit(master, opcode, addr, burst) {
                let data = access(&mut self.mem, opcode, addr, burst, req.data());
                (opcode.served(RespStatus::Okay), data)
            } else {
                (RespStatus::ExFail, Vec::new())
            };
            if opcode.expects_response() {
                self.pending.push(Pending {
                    ready_at: cycle + service + bank * self.bank_stagger as u64,
                    stream,
                    opcode,
                    resp: TransactionResponse::new(
                        status,
                        MstAddr::default(),
                        SlvAddr::default(),
                        Tag::ZERO,
                        data,
                    ),
                });
            }
        }
    }

    /// Sends at most one due response per response channel; the half of
    /// a [`Loopback::tick`] a slave withholding `accept` still does.
    pub(crate) fn respond(&mut self, cycle: u64, port: &mut S::Port) {
        for channel in 0..S::RESP_CHANNELS {
            let same = |p: &Pending, q: &Pending| {
                S::resp_channel(q.opcode) == S::resp_channel(p.opcode) && q.stream == p.stream
            };
            let next = (0..self.pending.len())
                .filter(|&i| {
                    let p = &self.pending[i];
                    S::resp_channel(p.opcode) == channel
                        && p.ready_at <= cycle
                        && !self.pending[..i].iter().any(|q| same(p, q))
                })
                .min_by_key(|&i| self.pending[i].ready_at);
            if let Some(i) = next {
                let p = self.pending.remove(i);
                S::respond(port, p.stream, p.opcode, p.resp);
            }
        }
    }

    /// Ticks `master` against this slave over a fresh port until the
    /// master is done or `cycles` have passed.
    pub fn run(&mut self, master: &mut Agent<S>, cycles: u64) {
        let mut port = S::Port::default();
        for cycle in 0..cycles {
            master.tick(cycle, &mut port);
            self.tick(cycle, &mut port);
            if master.done() {
                break;
            }
        }
    }
}
