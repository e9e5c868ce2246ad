//! Cycle-level models of the VC socket protocols the paper's transaction
//! layer must absorb: **AHB 2.0**, **AXI**, **OCP 2.x**, the **VCI**
//! flavours (PVCI / BVCI / AVCI) and a **proprietary streaming** socket
//! (`STRM`).
//!
//! Each protocol module provides:
//!
//! - beat-level request/response types and a port struct built from
//!   bounded [`Chan`] handshake channels;
//! - a *master agent* that executes a [`Program`] of [`SocketCommand`]s
//!   while obeying the protocol's ordering and outstanding rules
//!   (AHB: single outstanding, fully ordered; OCP: per-thread order;
//!   AXI: per-ID order with independent read/write channels; VCI per
//!   flavour);
//! - a *slave agent* backed by a [`MemoryModel`]: the loopback
//!   reference the master's unit tests and doc examples run against.
//!   Only `AxiSlave` has a product user (the NIU's `AxiTargetFe`); the
//!   bridged/bus baselines serve targets through [`MemoryModel`] and
//!   [`memory::access`] directly;
//! - log-level *checkers* ([`checker`]) asserting each protocol's
//!   ordering contract over completion logs.
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

pub mod ahb;
pub mod axi;
pub mod checker;
pub mod command;
pub mod handshake;
pub mod memory;
pub mod ocp;
pub mod strm;
pub mod vci;

pub use checker::{check_ahb_order, check_axi_order, check_ocp_order, OrderingViolation};
pub use command::{
    gen_data, CompletionLog, CompletionRecord, Program, ProgramTail, ProtocolKind, SocketCommand,
};
pub use handshake::Chan;
pub use memory::MemoryModel;
