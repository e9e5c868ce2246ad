//! The protocol-neutral initiator NIU back end.

use crate::codec::{packet_into_response, request_into_packet};
use crate::NocEndpoint;
use noc_kernel::Wake;
use noc_protocols::{CompletionLog, Program};
use noc_transaction::{
    AddressMap, MstAddr, Opcode, OrderingModel, OrderingPolicy, RespStatus, ServiceBits, StreamId,
    Tag, TransactionRequest, TransactionResponse,
};
use noc_transport::{Flit, PacketAssembler};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// The protocol-specific front half of an initiator NIU: a socket master
/// agent plus the logic converting its beats to neutral transactions.
///
/// The one implementation is [`crate::fe::Initiator`], generic over the
/// socket; a [`Socket`](noc_protocols::Socket) impl is *all* it takes to
/// plug a new socket protocol into the NoC (paper §2). The trait is what
/// the baselines hold a heterogeneous set of front ends behind.
///
/// Front ends are plain owned state (`Send`), so built simulations can
/// be checkpointed and moved across threads — the enabler for snapshot/
/// restore and warm-state forking in the serve layer.
pub trait SocketInitiator: Send {
    /// Advances the socket agent and conversion logic one cycle.
    fn tick(&mut self, cycle: u64);
    /// Takes the next neutral request, if the socket produced one.
    /// Routing fields (`src`, `dst`, `tag`) are left default — the back
    /// end assigns them.
    fn pull_request(&mut self) -> Option<TransactionRequest>;
    /// Delivers a response for the socket stream `stream`; `opcode` is
    /// the original request opcode (front ends need it to pick the right
    /// socket response channel).
    fn push_response(&mut self, stream: StreamId, opcode: Opcode, resp: TransactionResponse);
    /// Returns `true` when the socket has no further work.
    fn done(&self) -> bool;
    /// The socket's completion log (for statistics and fingerprints).
    fn log(&self) -> &CompletionLog;
    /// Quiescence hook: when the front end can next act absent new
    /// responses, as [`Wake::Ticks`] of its own edges (`0`, the
    /// conservative default: tick densely; `u64::MAX`: quiescent until
    /// input). `accepting` says whether the back end takes a request
    /// held on the port at its next tick; when it does not, the claim
    /// holds for a port whose request channels nobody drains. See
    /// [`crate::NocEndpoint::wake`] for the contract.
    ///
    /// Who passes what: [`InitiatorNiu`]'s own
    /// [`wake`](crate::NocEndpoint::wake) passes `false` while the
    /// ordering policy has refused its pending request (until a response
    /// completes); the shared bus passes `true` only when it is free at
    /// its next step and its lock, if held, is this master's; the bridged
    /// interconnect passes `true` only while the master's bridge has a
    /// free slot. The baselines map the answer with [`Wake::base_cycle`];
    /// each back end wakes itself at the event that flips `accepting`
    /// back — a completion, `done_at`, a bridge's `respond_at`.
    fn wake(&self, _accepting: bool) -> Wake {
        Wake::Ticks(0)
    }
    /// Accounts `ticks` skipped no-op ticks (see
    /// [`crate::NocEndpoint::skip_ticks`]).
    fn skip_ticks(&mut self, _ticks: u64) {}
    /// Replaces the socket's program before execution starts (see
    /// [`Agent::load_program`](noc_protocols::Agent::load_program) for
    /// the contract). Warm-state
    /// forking loads real workloads into checkpointed programless front
    /// ends through this hook.
    ///
    /// # Panics
    ///
    /// Panics if the socket already issued or completed a command.
    fn load_program(&mut self, program: Program);
    /// Clones the front end behind the object-safe interface, enabling
    /// `Clone` for `Box<dyn SocketInitiator>` and therefore snapshots of
    /// whole simulations.
    fn clone_box(&self) -> Box<dyn SocketInitiator>;
}

impl Clone for Box<dyn SocketInitiator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Configuration of an initiator NIU back end.
#[derive(Debug, Clone)]
pub struct InitiatorNiuConfig {
    /// This NIU's node number (the packet `MstAddr`).
    pub node: MstAddr,
    /// Ordering model matching the socket (paper §3).
    pub ordering: OrderingModel,
    /// Most transactions awaiting a response at once: the ordering
    /// policy's budget and the length of the NIU's outstanding queue —
    /// the gate-count/performance knob.
    pub max_outstanding: u32,
    /// Flit payload width in bytes (physical-layer parameter used for
    /// packetisation).
    pub flit_bytes: usize,
    /// Pressure for packets whose command carries no explicit hint.
    pub default_pressure: u8,
}

impl InitiatorNiuConfig {
    /// A sensible default configuration for `node`: fully ordered, 4
    /// outstanding, 8-byte flits.
    pub fn new(node: MstAddr) -> Self {
        InitiatorNiuConfig {
            node,
            ordering: OrderingModel::FullyOrdered,
            max_outstanding: 4,
            flit_bytes: 8,
            default_pressure: 0,
        }
    }

    /// Sets the ordering model.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderingModel) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the outstanding budget.
    #[must_use]
    pub fn with_outstanding(mut self, n: u32) -> Self {
        self.max_outstanding = n;
        self
    }

    /// Sets the default pressure.
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.default_pressure = pressure;
        self
    }

    /// Sets the flit payload width.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: usize) -> Self {
        self.flit_bytes = bytes;
        self
    }
}

/// Counters exposed by NIU back ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NiuStats {
    /// Request packets injected into the fabric.
    pub requests_sent: u64,
    /// Response packets received from the fabric.
    pub responses_received: u64,
    /// Cycles the head request was stalled by the ordering policy.
    pub policy_stalls: u64,
    /// Requests answered locally with `DECERR` (address decode miss).
    pub decode_errors: u64,
    /// Posted writes (fire-and-forget, never outstanding).
    pub posted_writes: u64,
}

/// The initiator NIU: socket front end + neutral back end.
///
/// # Examples
///
/// Loopback through a [`crate::TargetNiu`] is exercised in the crate
/// tests; system-level wiring lives in `noc-system`.
#[derive(Clone)]
pub struct InitiatorNiu<FE: SocketInitiator> {
    fe: FE,
    config: InitiatorNiuConfig,
    policy: OrderingPolicy,
    /// The NIU's state lookup table (paper §2): every transaction
    /// awaiting a response, in issue order. A tag's responses return in
    /// issue order — one target per tag at a time (the policy stalls a
    /// target switch), FIFO paths, targets that answer one (source, tag)
    /// in request order — so a response belongs to the first entry with
    /// its tag. The policy's budget bounds the length.
    outstanding: VecDeque<(Tag, StreamId, Opcode)>,
    /// Never changes after build, so forks share it.
    map: Arc<AddressMap>,
    pending: Option<TransactionRequest>,
    /// The ordering policy refused `pending`. A refusal changes nothing
    /// and holds until a response completes (`push_flit`), so a blocked
    /// NIU does not ask again.
    blocked: bool,
    egress: VecDeque<Flit>,
    assembler: PacketAssembler,
    pkt_seq: u64,
    stats: NiuStats,
}

impl<FE: SocketInitiator> InitiatorNiu<FE> {
    /// Creates an initiator NIU around front end `fe`, decoding through
    /// `map` (an [`AddressMap`], or one shared with other NIUs).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration (zero outstanding budget or
    /// zero-tag ordering model).
    pub fn new(fe: FE, config: InitiatorNiuConfig, map: impl Into<Arc<AddressMap>>) -> Self {
        let policy = OrderingPolicy::new(config.ordering, config.max_outstanding)
            .expect("valid ordering configuration");
        InitiatorNiu {
            fe,
            policy,
            outstanding: VecDeque::with_capacity(config.max_outstanding as usize),
            map: map.into(),
            pending: None,
            blocked: false,
            egress: VecDeque::new(),
            assembler: PacketAssembler::new(),
            pkt_seq: 0,
            config,
            stats: NiuStats::default(),
        }
    }

    /// The front end (for log access).
    pub fn fe(&self) -> &FE {
        &self.fe
    }

    /// Back-end counters.
    pub fn stats(&self) -> &NiuStats {
        &self.stats
    }

    /// Stamps service bits and packetises onto the egress queue.
    fn emit(&mut self, req: TransactionRequest) {
        let mut services = ServiceBits::NONE;
        if req.opcode().is_exclusive() {
            services |= ServiceBits::EXCLUSIVE;
        }
        if req.opcode().is_locking() {
            services |= ServiceBits::LOCKED;
        }
        if !req.opcode().expects_response() {
            services |= ServiceBits::POSTED;
        }
        let mut req = req.with_services(services);
        if req.pressure() == 0 {
            // apply NIU default pressure when the command carried none
            req = req.with_pressure(self.config.default_pressure);
        }
        let packet = request_into_packet(req);
        let id = (self.config.node.raw() as u64) << 48 | self.pkt_seq;
        self.pkt_seq += 1;
        self.egress
            .extend(packet.into_flits_with_id(self.config.flit_bytes, id));
        self.stats.requests_sent += 1;
    }
}

impl<FE: SocketInitiator + Clone + 'static> NocEndpoint for InitiatorNiu<FE> {
    /// Advances socket, front end and back end one cycle.
    fn tick(&mut self, cycle: u64) {
        self.fe.tick(cycle);
        if self.blocked {
            self.stats.policy_stalls += 1;
            return;
        }
        if self.pending.is_none() {
            self.pending = self.fe.pull_request();
        }
        let Some(req) = self.pending.take() else {
            return;
        };
        // 1. Address decode → SlvAddr (DECERR locally on miss).
        let dst = match self.map.decode_span(req.address(), req.last_address()) {
            Ok(dst) => dst,
            Err(_) => {
                self.stats.decode_errors += 1;
                if req.opcode().expects_response() {
                    let resp = TransactionResponse::new(
                        RespStatus::DecErr,
                        self.config.node,
                        noc_transaction::SlvAddr::new(u16::MAX),
                        noc_transaction::Tag::ZERO,
                        Vec::new(),
                    );
                    self.fe.push_response(req.stream(), req.opcode(), resp);
                }
                return;
            }
        };
        // 2. Posted writes: never outstanding, no tag state — fire and forget.
        if !req.opcode().expects_response() {
            let routed = req.with_route(self.config.node, dst, noc_transaction::Tag::ZERO);
            self.emit(routed);
            self.stats.posted_writes += 1;
            return;
        }
        // 3. Tag assignment via the ordering policy.
        match self.policy.try_issue(req.stream(), dst) {
            Ok(tag) => {
                let routed = req.with_route(self.config.node, dst, tag);
                self.outstanding
                    .push_back((tag, routed.stream(), routed.opcode()));
                self.emit(routed);
            }
            Err(_) => {
                self.stats.policy_stalls += 1;
                self.pending = Some(req); // retry once a response completes
                self.blocked = true;
            }
        }
    }

    /// Takes the next flit bound for the request network.
    fn pull_flit(&mut self) -> Option<Flit> {
        self.egress.pop_front()
    }

    /// Delivers a response-network flit.
    ///
    /// # Panics
    ///
    /// Panics on malformed packets or responses that match no outstanding
    /// transaction — both indicate fabric corruption, which must never
    /// happen silently in a simulator.
    fn push_flit(&mut self, flit: Flit) {
        let Some(packet) = self
            .assembler
            .push(flit)
            .expect("well-formed flit stream from fabric")
        else {
            return;
        };
        let resp = packet_into_response(packet).expect("well-formed response packet");
        let tag = resp.tag();
        let oldest = self
            .outstanding
            .iter()
            .position(|&(t, ..)| t == tag)
            .expect("response matches an outstanding transaction");
        let (_, stream, opcode) = self.outstanding.remove(oldest).expect("index just found");
        self.policy.complete(tag).expect("policy tracks this tag");
        self.blocked = false;
        self.stats.responses_received += 1;
        self.fe.push_response(stream, opcode, resp);
    }

    /// Returns `true` when socket, outstanding queue and egress are all
    /// drained.
    fn is_done(&self) -> bool {
        self.fe.done()
            && self.pending.is_none()
            && self.outstanding.is_empty()
            && self.egress.is_empty()
    }

    fn completion_log(&self) -> Option<&CompletionLog> {
        Some(self.fe.log())
    }

    /// Quiescence: upcoming local ticks that are provably no-ops absent
    /// incoming flits. Queued egress flits inject every cycle, and a
    /// pending request the policy has not refused issues on the next
    /// tick, so either keeps the NIU dense. A request the policy refused
    /// stays refused until a response completes, so a blocked NIU sleeps:
    /// the horizon is the socket front end's, over a port whose held
    /// requests nobody takes meanwhile. Outstanding transactions alone do
    /// *not* force dense ticking — a front end waiting on responses
    /// reports its own quiescence, and the wait is the fabric's and
    /// target's business, tracked by their horizons.
    fn wake(&self) -> Wake {
        if !self.egress.is_empty() || (self.pending.is_some() && !self.blocked) {
            return Wake::Ticks(0);
        }
        self.fe.wake(!self.blocked)
    }

    /// Accounts skipped no-op ticks: forwarded to the front end, and
    /// counted as policy stalls while blocked, as the ticks would have.
    fn skip_ticks(&mut self, ticks: u64) {
        if self.blocked {
            self.stats.policy_stalls += ticks;
        }
        self.fe.skip_ticks(ticks);
    }

    fn load_program(&mut self, program: Program) {
        self.fe.load_program(program);
    }

    fn clone_box(&self) -> Box<dyn NocEndpoint> {
        Box::new(self.clone())
    }
}

impl<FE: SocketInitiator> fmt::Debug for InitiatorNiu<FE> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InitiatorNiu")
            .field("node", &self.config.node)
            .field("ordering", &self.config.ordering)
            .field("outstanding", &self.outstanding.len())
            .field("egress", &self.egress.len())
            .finish()
    }
}
