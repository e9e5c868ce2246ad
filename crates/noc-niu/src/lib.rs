//! Network Interface Units (NIUs): the paper's conversion points between
//! VC socket protocols and the VC-neutral NoC transaction layer.
//!
//! *"A Network Interface Unit (NIU) is responsible for converting the
//! foreign IP protocol to the NoC transaction layer."* (§1)
//!
//! Every NIU splits into:
//!
//! - a protocol-specific **front end** ([`fe::Initiator`], generic over
//!   the socket, behind [`SocketInitiator`]; [`SocketTarget`]
//!   implementations) that speaks the socket's beat-level language and
//!   produces/consumes neutral
//!   [`TransactionRequest`](noc_transaction::TransactionRequest)s and
//!   [`TransactionResponse`](noc_transaction::TransactionResponse)s; and
//! - a protocol-neutral **back end** ([`InitiatorNiu`] / [`TargetNiu`])
//!   that owns the paper's machinery: the address decoder (`SlvAddr`
//!   assignment), the [ordering policy](noc_transaction::OrderingPolicy)
//!   (`Tag` assignment), the transaction state lookup table (one
//!   issue-ordered queue of outstanding transactions in
//!   [`InitiatorNiu`]; a response takes the first entry with its tag),
//!   packetisation, and — on the target side — the [exclusive
//!   monitor](noc_transaction::ExclusiveMonitor) plus legacy lock state.
//!
//! Supporting a new socket means one [`noc_protocols::Socket`] impl —
//! the front end is generic over it; the back ends, the packet format
//! and the entire fabric stay untouched — that is the paper's §2 claim,
//! and this crate is its proof by construction (its tests add a sixth
//! socket that way).
//!
//! # What moves, and what it costs
//!
//! The transaction layer is a hand-off, and the payload is handed, not
//! copied (`noc_system::fabric` has the transport half of this note).
//!
//! - **A write's bytes are allocated once, by the socket master**, when
//!   its request channel is ready to take them. The front end moves that
//!   buffer into a
//!   [`TransactionRequest`](noc_transaction::TransactionRequest);
//!   [`InitiatorNiu`] re-stamps the request in place and
//!   [`request_into_packet`] moves the buffer into the
//!   packet, whose head flit carries it across the fabric;
//!   [`packet_into_request`] moves it into the request the [`TargetNiu`]
//!   queues; [`SocketTarget::push_request`] takes the request by value —
//!   re-labelled with [`Opcode::plain`](noc_transaction::Opcode::plain),
//!   not rebuilt — and the memory stores from the buffer, which is freed
//!   there. A target that refuses hands the same request back, so
//!   back-pressure costs no copy however long it lasts.
//! - **A read's bytes are allocated once, by the memory**
//!   ([`noc_protocols::memory::access`] fills one buffer per burst). It
//!   travels in the
//!   [`TransactionResponse`](noc_transaction::TransactionResponse),
//!   through [`response_into_packet`], the fabric and
//!   [`packet_into_response`], into [`SocketInitiator::push_response`],
//!   which moves it
//!   ([`into_data`](noc_transaction::TransactionResponse::into_data))
//!   onto the socket's response channel; the master moves it into its
//!   [`CompletionRecord`](noc_protocols::CompletionRecord), where it
//!   stays.
//!
//! Only requests keep a borrowing codec form (`encode_request` /
//! `decode_request`: clone, then move), for the benchmark's codec probe;
//! the NIUs never call it. `tests/alloc_budget.rs` gates the result as
//! heap allocations per completed transaction.

pub mod codec;
pub mod fe;
pub mod initiator;
pub mod target;

pub use codec::{
    decode_request, encode_request, packet_into_request, packet_into_response, request_into_packet,
    response_into_packet, CodecError,
};
pub use initiator::{InitiatorNiu, InitiatorNiuConfig, NiuStats, SocketInitiator};
pub use target::{MemoryTarget, ServiceTarget, SocketTarget, TargetNiu, TargetNiuConfig};

use noc_kernel::Wake;

/// Object-safe endpoint view used by the system assembler: everything a
/// fabric port needs from an NIU, regardless of socket protocol.
/// [`InitiatorNiu`] and [`TargetNiu`] state these operations here and
/// nowhere else, so callers bring the trait into scope.
///
/// Endpoints are plain owned state (`Send`) and cloneable behind the
/// trait object ([`NocEndpoint::clone_box`]), so a whole built system
/// can be checkpointed mid-run and the checkpoint moved across threads.
pub trait NocEndpoint: Send {
    /// Advances the endpoint (socket agent + front end + back end) one
    /// cycle of its local clock.
    fn tick(&mut self, cycle: u64);
    /// Takes the next flit destined for the fabric, if any.
    fn pull_flit(&mut self) -> Option<noc_transport::Flit>;
    /// Delivers a flit arriving from the fabric.
    fn push_flit(&mut self, flit: noc_transport::Flit);
    /// Returns `true` once the endpoint has no further work.
    fn is_done(&self) -> bool;
    /// The socket completion log, for initiator endpoints.
    fn completion_log(&self) -> Option<&noc_protocols::CompletionLog> {
        None
    }
    /// Quiescence hook: when the endpoint can next act, provided no flit
    /// is pushed to it meanwhile. [`Wake::Ticks`] counts its own
    /// local-clock edges (`0`: the next edge must execute; `u64::MAX`:
    /// quiescent until new input); [`Wake::At`] names the base cycle its
    /// IP finishes a service, every edge before which is a no-op. Callers
    /// that pass edges over must account them through
    /// [`NocEndpoint::skip_ticks`] and resume ticking as soon as any input
    /// reaches the endpoint. The system assembler executes *only* the
    /// ticks this hook does not cover, in every step mode, so a claim
    /// that is too long is a late wakeup, not a slow path:
    /// `tests/horizon.rs`'s replay adapter is the oracle.
    fn wake(&self) -> Wake;
    /// Accounts `ticks` local-clock ticks skipped under the
    /// [`NocEndpoint::wake`] contract: afterwards the endpoint is in
    /// exactly the state that many dense no-op ticks would have left it
    /// in.
    ///
    /// Callers may settle lazily: the skipped ticks need not be accounted
    /// when they pass, only before the endpoint is next touched — always
    /// before its next [`NocEndpoint::tick`] or [`NocEndpoint::push_flit`],
    /// and before [`NocEndpoint::wake`] is read to schedule it again.
    /// Between those moments a [`Wake::Ticks`] countdown is stale by the
    /// unaccounted ticks and nothing else about the endpoint is.
    fn skip_ticks(&mut self, _ticks: u64) {}
    /// Replaces the program of an initiator endpoint's socket before
    /// execution starts (warm-state forking). Target endpoints never
    /// receive this call.
    ///
    /// # Panics
    ///
    /// Panics by default: only initiator endpoints execute programs.
    fn load_program(&mut self, program: noc_protocols::Program) {
        let _ = program;
        panic!("this endpoint does not execute a socket program");
    }
    /// Clones the endpoint behind the object-safe interface, enabling
    /// `Clone` for `Box<dyn NocEndpoint>` and therefore whole-system
    /// snapshots.
    fn clone_box(&self) -> Box<dyn NocEndpoint>;
}

impl Clone for Box<dyn NocEndpoint> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests;
