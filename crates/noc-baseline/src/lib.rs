//! Baseline interconnects for the Fig 1 / Fig 2 comparison.
//!
//! The paper contrasts the layered NoC (Fig 1: sockets plug straight in
//! through NIUs) with what classical interconnects force (Fig 2: the
//! interconnect has a *reference socket standard* and every foreign
//! socket goes through a bridge, paying area and latency and losing
//! protocol features). This crate implements both competitors:
//!
//! - [`SharedBus`]: an AHB-style single-transaction pipelined bus —
//!   global full ordering, one transfer at a time, native locking.
//! - [`BridgedInterconnect`]: a central crossbar speaking a fully-ordered
//!   reference socket (think BVCI), with per-master bridges that
//!   *serialise* multi-threaded/ID traffic to one outstanding
//!   transaction, *chop* long bursts to the reference maximum, add
//!   request/response pipeline latency, and *emulate* the legacy lock by
//!   locking the target — precisely the feature clamping the paper
//!   blames on bridges.
//!
//! Each decides exclusive outcomes in one central monitor by the one rule
//! every target applies, `noc_transaction::ExclusiveMonitor::admit`, and
//! names the status with `Opcode::served`, so contended exclusive pairs
//! resolve record for record as they do on the NoC.
//!
//! Both baselines host the same [`SocketInitiator`] front ends and run
//! the same programs as the NoC, so latency/throughput/fingerprint
//! comparisons are apples-to-apples. Both implement
//! [`noc_kernel::Engine`], the workspace's one stepping contract, so the
//! same advance loop that drives the NoC drives them.

pub mod bridged;
pub mod bus;

pub use bridged::{BridgeConfig, BridgedInterconnect};
pub use bus::{BusConfig, SharedBus};

use noc_niu::SocketInitiator;

/// IP-side service timing of a baseline slave, beyond the backing
/// memory's base latency.
///
/// The scenario layer compiles non-memory target declarations (register
/// blocks, AXI slave IPs) onto the baselines with the *same IP timing*
/// the NoC target front ends model, so latency differences between
/// backends stay attributable to the interconnect, never to the IP.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaveTiming {
    /// Separate write-path latency (service/register blocks); `None`
    /// uses the memory latency for writes too.
    pub write_latency: Option<u32>,
    /// Banked-storage latency stagger (AXI slave IP model): accesses pay
    /// `((addr >> 8) % 4) * bank_stagger` extra cycles, mirroring
    /// [`noc_protocols::axi::AxiSlave`].
    pub bank_stagger: u32,
}

impl SlaveTiming {
    /// The IP service latency for one access, excluding per-beat cost.
    pub fn latency_for(&self, mem_latency: u32, opcode: noc_transaction::Opcode, addr: u64) -> u64 {
        let base = match self.write_latency {
            Some(w) if opcode.is_write() => w,
            _ => mem_latency,
        };
        base as u64 + ((addr >> 8) % 4) * self.bank_stagger as u64
    }
}

/// A master attached to a baseline: its front end plus a name.
#[derive(Clone)]
pub struct AttachedMaster {
    /// Display name.
    pub name: String,
    /// The socket front end (same type the NoC uses).
    pub fe: Box<dyn SocketInitiator>,
}

impl AttachedMaster {
    /// Creates an attachment.
    pub fn new(name: &str, fe: Box<dyn SocketInitiator>) -> Self {
        AttachedMaster {
            name: name.to_owned(),
            fe,
        }
    }
}

impl std::fmt::Debug for AttachedMaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttachedMaster({})", self.name)
    }
}
