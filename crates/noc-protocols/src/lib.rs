//! Cycle-level models of the VC socket protocols the paper's transaction
//! layer must absorb: **AHB 2.0**, **AXI**, **OCP 2.x**, the **VCI**
//! flavours (PVCI / BVCI / AVCI) and a **proprietary streaming** socket
//! (`STRM`).
//!
//! The crate is one machine and five signal shims:
//!
//! - [`Agent<S>`] is the one *master agent*: it executes a [`Program`]
//!   of [`SocketCommand`]s — issue lanes, delay countdowns, outstanding
//!   limits, completion log, the `idle_ticks` / `skip_ticks` quiescence
//!   contract — and is monomorphised per socket;
//! - each protocol module ([`ahb`], [`axi`], [`ocp`], [`vci`], [`strm`])
//!   provides beat-level request/response types, a port struct built
//!   from [`Chan`] handshake registers, and one [`Socket`] impl: the
//!   lane shape (AHB: one lane of depth one, fully ordered; OCP:
//!   per-thread order; AXI: per-ID order with independent read/write
//!   channels; VCI per flavour) plus the mapping between the port's
//!   signals and the neutral transaction, master side and slave side.
//!   `AhbMaster` … `VciMaster` are aliases of `Agent<_>` carrying the
//!   per-protocol constructors;
//! - [`Loopback<S>`] is the one *slave agent*, a [`MemoryModel`] behind
//!   any socket: the reference the master's unit tests and doc examples
//!   run against. Products serve targets through [`MemoryModel`] and
//!   [`memory::access`] directly; [`axi::AxiSlave`], an AXI slave *driven
//!   by* neutral transactions, backs the NIU's `AxiTargetFe`. Storage is
//!   plain: the loopback, like every target, decides exclusive outcomes
//!   by the one rule of `noc_transaction::ExclusiveMonitor::admit` before
//!   [`memory::access`] runs, and names the status with
//!   `Opcode::served`;
//! - log-level *checkers* ([`checker`]) assert each protocol's ordering
//!   contract over completion logs.
//!
//! ## Modelling granularity
//!
//! Socket *data* phases are bundled with their command (a burst's write
//! data rides with the request; read data returns in one response
//! message). Beat-by-beat timing is modelled where it matters for
//! contention — inside the NoC, where payloads travel as flit streams —
//! and charged as occupancy cycles at sockets and on the baseline bus.
//! Ordering, threading, ID, exclusive and locking semantics are modelled
//! exactly; those are what the paper's transaction layer is about.

pub mod agent;
pub mod ahb;
pub mod axi;
pub mod checker;
pub mod command;
#[cfg(test)]
mod conformance;
pub mod handshake;
pub mod loopback;
pub mod memory;
pub mod ocp;
pub mod strm;
pub mod vci;

pub use agent::{Agent, Socket};
pub use checker::{check_ahb_order, check_axi_order, check_ocp_order, OrderingViolation};
pub use command::{
    gen_data, CompletionLog, CompletionRecord, Program, ProtocolKind, SocketCommand,
};
pub use handshake::Chan;
pub use loopback::Loopback;
pub use memory::MemoryModel;
