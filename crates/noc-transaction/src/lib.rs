//! The VC-neutral NoC **transaction layer** — the primary contribution of
//! P. Martin, *"Design of a Virtual Component Neutral Network-on-Chip
//! Transaction Layer"* (DATE 2005).
//!
//! The transaction layer defines the communication primitives available to
//! IP blocks plugged into the NoC, independently of both the socket protocol
//! each block speaks (AHB 2.0, AXI, OCP, VCI flavours, proprietary) and of
//! how the transport layer moves packets (wormhole vs store-and-forward,
//! topology, QoS) — which it never sees.
//!
//! Key concepts, mirroring the paper:
//!
//! - [`TransactionRequest`] / [`TransactionResponse`]: the neutral
//!   primitives, carrying a canonical [`Opcode`], [`Burst`] description and
//!   byte-lane data.
//! - [`MstAddr`], [`SlvAddr`] and [`Tag`]: the three packet fields the
//!   Arteris protocol uses to encode *every* socket ordering model. A
//!   per-NIU [`OrderingPolicy`] assigns them from socket-specific
//!   information (AHB's implicit order, OCP's `ThreadID`, AXI's transaction
//!   ID).
//! - The NIU "state lookup table" of outstanding transactions is not a
//!   type here: [`OrderingPolicy`] counts them per tag and in total, and
//!   its budget is the knob that "scales gate count to expected
//!   performance"; the initiator NIU (`noc_niu::InitiatorNiu`) keeps them
//!   in one issue-ordered queue that a response searches by tag.
//! - [`ExclusiveMonitor`]: the NIU-side state that implements AXI exclusive
//!   access / OCP lazy synchronisation with nothing but one user-defined
//!   packet bit ([`services::ServiceBits::EXCLUSIVE`]). Its
//!   [`ExclusiveMonitor::admit`] and [`Opcode::served`] are the one
//!   synchronisation rule: every target — the NoC's target NIU, both
//!   baselines, the loopback slave — decides and answers through them.
//! - [`ServiceBits`]: the optional "NoC services" field — user-defined
//!   packet bits that extend the transaction layer without touching the
//!   transport or physical layers.
//!
//! # Examples
//!
//! ```
//! use noc_transaction::{Burst, MstAddr, Opcode, SlvAddr, Tag, TransactionRequest};
//!
//! let req = TransactionRequest::builder(Opcode::Read)
//!     .address(0x4000_0000)
//!     .burst(Burst::incr(4, 4)?)
//!     .source(MstAddr::new(2))
//!     .destination(SlvAddr::new(7))
//!     .tag(Tag::new(1))
//!     .build()?;
//! assert_eq!(req.total_bytes(), 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod addr;
pub mod burst;
pub mod exclusive;
pub mod node;
pub mod opcode;
pub mod ordering;
pub mod request;
pub mod services;
pub mod tag;

pub use addr::{Addr, AddressMap, AddressRange, DecodeError};
pub use burst::{Burst, BurstError, BurstKind};
pub use exclusive::{ExclusiveMonitor, LockArbiter};
pub use node::{MstAddr, SlvAddr};
pub use opcode::{Opcode, RespStatus};
pub use ordering::{OrderingModel, OrderingPolicy, PolicyError, StreamId, TargetRule};
pub use request::{
    Fingerprint, RequestBuilder, TransactionError, TransactionRequest, TransactionResponse,
};
pub use services::{ServiceBits, ServiceConfig};
pub use tag::Tag;
