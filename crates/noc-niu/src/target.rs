//! The protocol-neutral target NIU back end, including the exclusive
//! monitor and legacy lock state — the "state information in the NIU"
//! of paper §3.

use crate::codec::{packet_into_request, response_into_packet};
use crate::NocEndpoint;
use noc_kernel::Wake;
use noc_transaction::{
    ExclusiveMonitor, LockArbiter, MstAddr, Opcode, RespStatus, SlvAddr, Tag, TransactionRequest,
    TransactionResponse,
};
use noc_transport::{Flit, PacketAssembler};
use std::collections::VecDeque;
use std::fmt;

/// The protocol-specific front half of a target NIU: drives an IP slave
/// through its socket, consuming neutral requests and producing neutral
/// responses.
///
/// The built-in [`MemoryTarget`] is the "native" NoC target; protocol
/// front ends (e.g. an AXI DRAM controller) live in [`crate::fe`].
///
/// Targets are plain owned state (`Send`), so built simulations can be
/// checkpointed and moved across threads.
///
/// **Order contract:** the responses to one `(src, tag)` pair leave
/// [`SocketTarget::pull_response`] in the order their requests were
/// accepted, whatever their direction; responses of different pairs may
/// overtake each other. The target NIU and the initiator NIU's
/// outstanding queue pair each response with the oldest request of its
/// `(src, tag)`, so a target that reorders one pair's responses hands
/// them to the wrong requests.
pub trait SocketTarget: Send {
    /// Advances the IP/slave model one cycle.
    fn tick(&mut self, cycle: u64);
    /// Offers a request. A target that cannot accept this cycle
    /// (back-pressure) hands the request back, unchanged and with no
    /// side effect, as the `Err` — the caller keeps it and offers it
    /// again, so a refusal costs no copy and a request can never be
    /// issued twice.
    fn push_request(&mut self, req: TransactionRequest) -> Result<(), TransactionRequest>;
    /// Takes the next completed response (with `dst`, `origin`, `tag`
    /// echoed from the request).
    fn pull_response(&mut self) -> Option<TransactionResponse>;
    /// Quiescence hook: when the IP can next act absent new requests —
    /// [`Wake::At`] the base cycle its earliest in-service access
    /// completes (its response becomes pullable), or [`Wake::Ticks`]
    /// (`0`, the conservative default: tick densely; `u64::MAX`:
    /// quiescent until input). See [`crate::NocEndpoint::wake`] for the
    /// contract. The edges passed over are never replayed to the target,
    /// so they must be true no-ops: a target that counts its ticks
    /// claims `Ticks(0)`.
    fn wake(&self) -> Wake {
        Wake::Ticks(0)
    }
}

/// Configuration of a target NIU back end.
#[derive(Debug, Clone)]
pub struct TargetNiuConfig {
    /// This NIU's node number (the packet `SlvAddr`).
    pub node: SlvAddr,
    /// Flit payload width in bytes.
    pub flit_bytes: usize,
    /// Exclusive monitor reservation granule (bytes, power of two).
    pub monitor_granule: u64,
    /// Exclusive monitor capacity (reservations).
    pub monitor_slots: usize,
    /// Pressure stamped on response packets (responses inherit request
    /// priority in real systems; a fixed value keeps the model simple and
    /// conservative).
    pub response_pressure: u8,
}

impl TargetNiuConfig {
    /// Default configuration for `node`: 8-byte flits, 64-byte granule,
    /// 8 reservations.
    pub fn new(node: SlvAddr) -> Self {
        TargetNiuConfig {
            node,
            flit_bytes: 8,
            monitor_granule: 64,
            monitor_slots: 8,
            response_pressure: 1,
        }
    }

    /// Sets the flit payload width.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: usize) -> Self {
        self.flit_bytes = bytes;
        self
    }
}

/// The target NIU: neutral back end + IP-facing front end.
///
/// Responsibilities (paper §3):
///
/// - **exclusive service**: every request passes the NIU's
///   [`ExclusiveMonitor`] under the one rule of
///   [`ExclusiveMonitor::admit`] — the same rule the baselines and the
///   loopback slave apply. A `WriteExclusive`/`WriteConditional` whose
///   reservation is gone is answered `EXFAIL` *locally, without touching
///   the IP*; the IP's answer to an admitted request is named by
///   [`Opcode::served`] (`EXOKAY` for the exclusive family). One packet
///   bit, NIU state only.
/// - **legacy locks**: `ReadLocked` acquires the [`LockArbiter`];
///   requests from other masters stall while held (in addition to the
///   transport-level path pinning the LOCKED service bit causes).
#[derive(Clone)]
pub struct TargetNiu<T: SocketTarget> {
    target: T,
    config: TargetNiuConfig,
    monitor: ExclusiveMonitor,
    lock: LockArbiter,
    ingress: VecDeque<TransactionRequest>,
    /// Whether the ingress head already passed the monitor: a head the IP
    /// hands back waits with its verdict and is not admitted again (a
    /// second try of a won exclusive write would find its own
    /// reservation consumed).
    head_admitted: bool,
    /// Outstanding toward the IP, in acceptance order: the source, tag
    /// and NoC opcode of each request. The IP may answer different
    /// `(source, tag)` pairs out of order, so a response takes the
    /// oldest entry of its pair.
    inflight: VecDeque<(MstAddr, Tag, Opcode)>,
    egress: VecDeque<Flit>,
    assembler: PacketAssembler,
    pkt_seq: u64,
    requests_served: u64,
    lock_stall_cycles: u64,
}

impl<T: SocketTarget> TargetNiu<T> {
    /// Creates a target NIU around IP front end `target`.
    pub fn new(target: T, config: TargetNiuConfig) -> Self {
        TargetNiu {
            target,
            monitor: ExclusiveMonitor::new(config.monitor_granule, config.monitor_slots),
            lock: LockArbiter::new(),
            ingress: VecDeque::new(),
            head_admitted: false,
            inflight: VecDeque::new(),
            egress: VecDeque::new(),
            assembler: PacketAssembler::new(),
            pkt_seq: 0,
            requests_served: 0,
            lock_stall_cycles: 0,
            config,
        }
    }

    /// The IP front end.
    pub fn target(&self) -> &T {
        &self.target
    }

    /// The exclusive monitor (test inspection; its
    /// [`ExclusiveMonitor::failures`] counts the locally failed writes).
    pub fn monitor(&self) -> &ExclusiveMonitor {
        &self.monitor
    }

    /// Requests served (accepted towards the IP or answered locally).
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Cycles the head request stalled on the legacy lock.
    pub fn lock_stall_cycles(&self) -> u64 {
        self.lock_stall_cycles
    }

    fn respond(&mut self, resp: TransactionResponse) {
        let packet = response_into_packet(resp, self.config.response_pressure);
        let id = (self.config.node.raw() as u64) << 48 | 0x8000_0000_0000 | self.pkt_seq;
        self.pkt_seq += 1;
        self.egress
            .extend(packet.into_flits_with_id(self.config.flit_bytes, id));
    }
}

impl<T: SocketTarget + Clone + 'static> NocEndpoint for TargetNiu<T> {
    /// Advances IP and back end one cycle.
    fn tick(&mut self, cycle: u64) {
        self.target.tick(cycle);
        // Process the head ingress request.
        if let Some(req) = self.ingress.front() {
            let (master, tag, opcode) = (req.src(), req.tag(), req.opcode());
            // Legacy lock gate.
            if opcode == Opcode::ReadLocked {
                if !self.lock.try_lock(master) {
                    self.lock_stall_cycles += 1;
                    return;
                }
            } else if self.lock.is_locked() && self.lock.owner() != Some(master) {
                self.lock_stall_cycles += 1;
                return;
            }
            // Exclusive service, entirely in NIU state: a write whose
            // reservation is gone fails locally, with no IP interaction
            // and no side effect. A head is admitted once, however often
            // the IP hands it back.
            if !self.head_admitted
                && !self
                    .monitor
                    .admit(master, opcode, req.address(), req.burst())
            {
                self.ingress.pop_front();
                self.requests_served += 1;
                self.respond(TransactionResponse::new(
                    RespStatus::ExFail,
                    master,
                    self.config.node,
                    tag,
                    Vec::new(),
                ));
                return;
            }
            // Hand the head itself to the IP, labelled with the plain
            // opcode (the IP never sees NoC service semantics); a
            // back-pressuring IP hands it back and it waits at the head
            // again under its own label.
            let req = self.ingress.pop_front().expect("head exists");
            match self.target.push_request(req.with_opcode(opcode.plain())) {
                Ok(()) => {
                    self.head_admitted = false;
                    self.requests_served += 1;
                    if opcode.expects_response() {
                        self.inflight.push_back((master, tag, opcode));
                    }
                    if opcode == Opcode::WriteUnlock {
                        self.lock
                            .unlock(master)
                            .expect("unlock from the lock owner");
                    }
                }
                Err(refused) => {
                    self.head_admitted = true;
                    self.ingress.push_front(refused.with_opcode(opcode));
                }
            }
        }
        // Collect IP responses, restore exclusive/lock status semantics.
        while let Some(resp) = self.target.pull_response() {
            let (dst, tag) = (resp.dst(), resp.tag());
            let oldest = self
                .inflight
                .iter()
                .position(|&(m, t, _)| (m, t) == (dst, tag))
                .expect("response matches a request in flight");
            let (.., opcode) = self.inflight.remove(oldest).expect("index just found");
            self.respond(TransactionResponse::new(
                opcode.served(resp.status()),
                dst,
                self.config.node,
                tag,
                resp.into_data(),
            ));
        }
    }

    /// Takes the next flit bound for the response network.
    fn pull_flit(&mut self) -> Option<Flit> {
        self.egress.pop_front()
    }

    /// Delivers a request-network flit.
    ///
    /// # Panics
    ///
    /// Panics on malformed packets (fabric corruption).
    fn push_flit(&mut self, flit: Flit) {
        let Some(packet) = self
            .assembler
            .push(flit)
            .expect("well-formed flit stream from fabric")
        else {
            return;
        };
        let req = packet_into_request(packet).expect("well-formed request packet");
        self.ingress.push_back(req);
    }

    /// Returns `true` when nothing is queued or in flight.
    fn is_done(&self) -> bool {
        self.ingress.is_empty() && self.inflight.is_empty() && self.egress.is_empty()
    }

    /// Quiescence: with queued requests or undrained egress the NIU must
    /// tick densely (ingress heads arbitrate locks and count stall
    /// cycles; egress flits inject). Otherwise it waits on its IP alone,
    /// whose own wake governs: a memory's service latency is skippable
    /// to the cycle its response is ready instead of forcing dense
    /// ticking for the whole transaction. A held legacy lock is pure
    /// state — it only matters once a request arrives, which resumes
    /// dense ticking.
    fn wake(&self) -> Wake {
        if !self.ingress.is_empty() || !self.egress.is_empty() {
            return Wake::Ticks(0);
        }
        self.target.wake()
    }

    fn clone_box(&self) -> Box<dyn NocEndpoint> {
        Box::new(self.clone())
    }
}

impl<T: SocketTarget> fmt::Debug for TargetNiu<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TargetNiu")
            .field("node", &self.config.node)
            .field("ingress", &self.ingress.len())
            .field("inflight", &self.inflight.len())
            .field("egress", &self.egress.len())
            .finish()
    }
}

/// Latency-stamped response queue shared by the native target models:
/// a response becomes pullable once its ready cycle passes. Keeping the
/// release rule in one place stops [`MemoryTarget`] and
/// [`ServiceTarget`] drifting apart.
#[derive(Debug, Clone, Default)]
struct ReadyQueue {
    pending: VecDeque<(u64, TransactionResponse)>,
}

impl ReadyQueue {
    fn push(&mut self, ready: u64, resp: TransactionResponse) {
        self.pending.push_back((ready, resp));
    }

    fn pull(&mut self, now: u64) -> Option<TransactionResponse> {
        match self.pending.front() {
            Some(&(ready, _)) if ready <= now => self.pending.pop_front().map(|(_, r)| r),
            _ => None,
        }
    }

    /// The base cycle the earliest queued response matures, or not
    /// until input when nothing is queued.
    fn wake(&self) -> Wake {
        self.pending
            .front()
            .map_or(Wake::Ticks(u64::MAX), |&(ready, _)| Wake::At(ready))
    }

    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// The native NoC memory target: a [`noc_protocols::MemoryModel`] served
/// in order with its configured latency plus burst occupancy.
#[derive(Debug, Clone)]
pub struct MemoryTarget {
    mem: noc_protocols::MemoryModel,
    pending: ReadyQueue,
    now: u64,
    capacity: usize,
}

impl MemoryTarget {
    /// Creates a memory target; `capacity` bounds requests in service.
    pub fn new(mem: noc_protocols::MemoryModel, capacity: usize) -> Self {
        MemoryTarget {
            mem,
            pending: ReadyQueue::default(),
            now: 0,
            capacity: capacity.max(1),
        }
    }

    /// The backing memory.
    pub fn memory(&self) -> &noc_protocols::MemoryModel {
        &self.mem
    }
}

impl SocketTarget for MemoryTarget {
    fn tick(&mut self, cycle: u64) {
        self.now = cycle;
    }

    fn push_request(&mut self, req: TransactionRequest) -> Result<(), TransactionRequest> {
        if self.pending.len() >= self.capacity {
            return Err(req);
        }
        let data = noc_protocols::memory::access(
            &mut self.mem,
            req.opcode(),
            req.address(),
            req.burst(),
            req.data(),
        );
        let ready = self.now + self.mem.latency() as u64 + req.burst().beats() as u64;
        if req.opcode().expects_response() {
            self.pending.push(
                ready,
                TransactionResponse::new(RespStatus::Okay, req.src(), req.dst(), req.tag(), data),
            );
        }
        Ok(())
    }

    fn pull_response(&mut self) -> Option<TransactionResponse> {
        self.pending.pull(self.now)
    }

    fn wake(&self) -> Wake {
        // Every in-service access carries an absolute ready stamp, so the
        // latency window is dead time; the tick only latches the current
        // cycle, so an empty memory is quiescent until the next request.
        self.pending.wake()
    }
}

/// A register/service block target: a serially-served register file with
/// a separate (typically slower) write path — the shape of semaphore
/// blocks, doorbell registers and other synchronisation services the
/// paper's target NIUs front.
///
/// Unlike [`MemoryTarget`], which pipelines up to its queue capacity, a
/// service block completes one access before accepting the next; reads
/// take the base latency, writes take `write_latency`. Storage semantics
/// are byte-identical to a memory (shared
/// [`access`](noc_protocols::memory::access) kernel), so the same
/// scenario produces the same data on every backend.
#[derive(Debug, Clone)]
pub struct ServiceTarget {
    regs: noc_protocols::MemoryModel,
    write_latency: u32,
    pending: ReadyQueue,
    capacity: usize,
    busy_until: u64,
    now: u64,
}

impl ServiceTarget {
    /// Creates a service block with read latency taken from `regs` and
    /// the given write latency; `capacity` bounds completed-but-unread
    /// responses.
    pub fn new(regs: noc_protocols::MemoryModel, write_latency: u32, capacity: usize) -> Self {
        ServiceTarget {
            regs,
            write_latency,
            pending: ReadyQueue::default(),
            capacity: capacity.max(1),
            busy_until: 0,
            now: 0,
        }
    }

    /// The backing register file.
    pub fn registers(&self) -> &noc_protocols::MemoryModel {
        &self.regs
    }
}

impl SocketTarget for ServiceTarget {
    fn tick(&mut self, cycle: u64) {
        self.now = cycle;
    }

    fn push_request(&mut self, req: TransactionRequest) -> Result<(), TransactionRequest> {
        // Serial service: one access in flight at a time.
        if self.now < self.busy_until || self.pending.len() >= self.capacity {
            return Err(req);
        }
        let data = noc_protocols::memory::access(
            &mut self.regs,
            req.opcode(),
            req.address(),
            req.burst(),
            req.data(),
        );
        let latency = if req.opcode().is_write() {
            self.write_latency
        } else {
            self.regs.latency()
        };
        let ready = self.now + latency as u64 + req.burst().beats() as u64;
        self.busy_until = ready;
        if req.opcode().expects_response() {
            self.pending.push(
                ready,
                TransactionResponse::new(RespStatus::Okay, req.src(), req.dst(), req.tag(), data),
            );
        }
        Ok(())
    }

    fn pull_response(&mut self) -> Option<TransactionResponse> {
        self.pending.pull(self.now)
    }

    fn wake(&self) -> Wake {
        // `busy_until` compares against the absolute cycle latched by the
        // next tick, so an empty block is quiescent until new input; the
        // NIU resumes dense ticking the moment a request arrives.
        self.pending.wake()
    }
}
