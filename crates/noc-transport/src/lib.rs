//! The NoC **transport layer**: packet format, switches, routing, flow
//! control and quality of service.
//!
//! Paper §1: *"The transport layer defines information format and transport
//! rules between NIUs […] The transport layer is completely transaction
//! unaware, and conversely, transaction level is transport unaware (for
//! example, wormhole or store-and-forward packet handling makes no
//! difference at the transaction level)."*
//!
//! Accordingly, this crate knows **nothing** about transactions. A
//! [`Header`] carries the three routing/ordering fields (`dst`, `src`,
//! `tag`) plus opaque control words (opcode bits, address bits, burst bits,
//! service bits) that only NIUs interpret. Switches route packets by `dst`,
//! arbitrate by `pressure`, and react to exactly one service bit — the
//! legacy `LOCKED` indication, whose path-pinning semantics are the
//! transport-level impact of READEX/LOCK the paper describes in §3.
//!
//! The switching mode — [`SwitchMode::Wormhole`] or
//! [`SwitchMode::StoreAndForward`] — is a pure transport choice that must
//! be invisible at the transaction layer; the integration tests assert
//! exactly that.
//!
//! # Examples
//!
//! ```
//! use noc_transport::{Flit, Header, Packet};
//!
//! let header = Header::request(7, 2, 1) // dst node 7, src node 2, tag 1
//!     .with_pressure(2);
//! let packet = Packet::new(header, vec![0xAA; 16]);
//! let flits = packet.to_flits(8); // 8-byte flit payload
//! assert_eq!(flits.len(), 3);     // head + 2 payload flits
//! assert!(flits[0].is_head());
//! assert!(flits[2].is_tail());
//! let rebuilt = Packet::from_flits(&flits).unwrap();
//! assert_eq!(rebuilt, packet);
//! ```

pub mod arbiter;
pub mod buffer;
pub mod flit;
pub mod packet;
pub mod routing;
pub mod switch;

pub use arbiter::RoundRobinArbiter;
pub use buffer::{FlitFifo, FlitSlab};
pub use flit::{Direction, Flit, FlitType, Header, LOCKED_BIT, MAX_PRESSURE};
pub use packet::{IntoFlits, Packet, PacketAssembler, ReassemblyError};
pub use routing::{PortId, RouteError, RoutingTable};
pub use switch::{
    InputPort, OutputPort, Switch, SwitchConfig, SwitchMode, SwitchMut, SwitchState, SwitchStats,
    SwitchTick,
};
