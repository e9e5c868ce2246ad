//! SoC assembly: wires protocol agents, NIUs, switches and physical links
//! into one cycle-accurate NoC simulation.
//!
//! This crate realises the paper's Fig 1: IP blocks with mixed VC sockets
//! plugged, via their NIUs, into a common switching fabric. Two disjoint
//! fabrics carry requests and responses (standard NoC practice — and the
//! reason the transaction layer never deadlocks on request/response
//! cycles); both are built from the same [`noc_topology::Topology`].
//!
//! The [`SocBuilder`] enforces the layer separation the paper prescribes:
//! endpoints know transactions, the fabric knows flits, and the *only*
//! shared vocabulary is the packet header — so switching mode, flit
//! width, link pipelining and clock ratios can all change without any
//! endpoint noticing (asserted by the `layering_invariance` integration
//! suite via functional fingerprints).
//!
//! A built [`Soc`] is a [`noc_kernel::Engine`]: it supplies `step`,
//! `next_activity` and `skip_to`, and time is advanced over it by the
//! trait's one `advance_to` loop ([`Soc::run`] is that loop plus a
//! report).
//!
//! # Examples
//!
//! ```
//! use noc_niu::fe::AhbInitiator;
//! use noc_niu::{InitiatorNiu, InitiatorNiuConfig, MemoryTarget, TargetNiu, TargetNiuConfig};
//! use noc_protocols::ahb::AhbMaster;
//! use noc_protocols::{MemoryModel, SocketCommand};
//! use noc_system::{NocConfig, SocBuilder};
//! use noc_topology::Topology;
//! use noc_transaction::{AddressMap, MstAddr, SlvAddr};
//!
//! // One AHB master (node 0) and one memory (node 1) on a 2-endpoint NoC.
//! let mut map = AddressMap::new();
//! map.add(0x0, 0x1000, SlvAddr::new(1))?;
//! let program = vec![SocketCommand::read(0x40, 4)];
//! let fe = AhbInitiator::new(AhbMaster::new(program));
//! let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map);
//! let tgt = TargetNiu::new(
//!     MemoryTarget::new(MemoryModel::new(2), 4),
//!     TargetNiuConfig::new(SlvAddr::new(1)),
//! );
//! let mut soc = SocBuilder::new(Topology::crossbar(2), NocConfig::new())
//!     .initiator("cpu", 0, Box::new(ini))
//!     .target("mem", 1, Box::new(tgt))
//!     .build()?;
//! let report = soc.run(10_000);
//! assert!(report.all_done);
//! assert_eq!(report.masters[0].completions, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod fabric;
pub mod report;
pub mod soc;

pub use fabric::{ActiveSet, Fabric};
pub use report::{FabricReport, MasterReport, Metric, RunReport, Value};
pub use soc::{BuildError, NocConfig, Soc, SocBuilder};
