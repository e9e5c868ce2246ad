//! Analytic gate-count models for NIUs, switches, bridges and buses.
//!
//! The paper's §3 argues the NIU field-assignment policy lets each NIU
//! "scale its gate count to its expected performance within the system",
//! and §2 that adding socket features costs only NIU state and packet
//! bits. These claims are *relative*, so any monotone area model
//! preserves them; the constants below are ballpark 90 nm-era figures
//! from public NoC literature (a flip-flop ≈ 6 NAND2-equivalent gates, a
//! buffered storage bit ≈ 8, control overhead amortised per structure)
//! — documented here so every number in the experiments is auditable.
//!
//! # Examples
//!
//! ```
//! use noc_examples::area::{niu_gates, NiuAreaConfig};
//! use noc_protocols::ProtocolKind;
//!
//! let small = niu_gates(&NiuAreaConfig::new(ProtocolKind::Ahb, 1));
//! let big = niu_gates(&NiuAreaConfig::new(ProtocolKind::Axi, 16));
//! assert!(big.total() > small.total(), "outstanding capacity costs gates");
//! ```

use noc_protocols::ProtocolKind;
use noc_transaction::{OrderingModel, TargetRule};
use std::fmt;

/// Gates per flip-flop (NAND2-equivalent).
pub const GATES_PER_FF: u32 = 6;
/// Gates per buffered storage bit (FIFO bit incl. mux/control share).
pub const GATES_PER_BUF_BIT: u32 = 8;
/// Control/FSM overhead per independent structure.
pub const STRUCT_OVERHEAD: u32 = 150;

/// A gate count in NAND2 equivalents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct GateCount(pub u64);

impl GateCount {
    /// The raw count.
    pub fn total(self) -> u64 {
        self.0
    }
}

impl fmt::Display for GateCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000 {
            write!(f, "{:.1}k gates", self.0 as f64 / 1000.0)
        } else {
            write!(f, "{} gates", self.0)
        }
    }
}

impl std::ops::Add for GateCount {
    type Output = GateCount;
    fn add(self, rhs: GateCount) -> GateCount {
        GateCount(self.0 + rhs.0)
    }
}

impl std::iter::Sum for GateCount {
    fn sum<I: Iterator<Item = GateCount>>(iter: I) -> GateCount {
        GateCount(iter.map(|g| g.0).sum())
    }
}

/// Parameters of an NIU area estimate.
#[derive(Debug, Clone, Copy)]
pub struct NiuAreaConfig {
    /// The socket protocol the front end speaks.
    pub protocol: ProtocolKind,
    /// Max outstanding transactions: entries of the NIU's state lookup
    /// table.
    pub outstanding: u32,
    /// Ordering model (tag pool sizes the rename CAM for ID-based
    /// sockets).
    pub ordering: OrderingModel,
    /// Target rule: [`TargetRule::Interleave`] adds a reorder buffer.
    pub target_rule: TargetRule,
    /// Data-path width in bytes.
    pub data_bytes: u32,
    /// Optional NoC service header bits enabled (each costs packet-buffer
    /// bits plus comparator logic).
    pub service_bits: u32,
    /// Exclusive-monitor reservation slots (target NIUs).
    pub monitor_slots: u32,
}

impl NiuAreaConfig {
    /// A config for `protocol` with `outstanding` transactions, default
    /// ordering (matching the protocol), 8-byte datapath, one service
    /// bit, no monitor.
    pub fn new(protocol: ProtocolKind, outstanding: u32) -> Self {
        let ordering = match protocol {
            ProtocolKind::Ahb | ProtocolKind::Pvci | ProtocolKind::Bvci | ProtocolKind::Strm => {
                OrderingModel::FullyOrdered
            }
            ProtocolKind::Ocp => OrderingModel::Threaded {
                threads: outstanding.clamp(1, 255) as u8,
            },
            ProtocolKind::Axi | ProtocolKind::Avci => OrderingModel::IdBased {
                tags: outstanding.clamp(1, 255) as u8,
            },
        };
        NiuAreaConfig {
            protocol,
            outstanding,
            ordering,
            target_rule: TargetRule::StallOnSwitch,
            data_bytes: 8,
            service_bits: 1,
            monitor_slots: 0,
        }
    }

    /// Sets the target rule.
    #[must_use]
    pub fn with_target_rule(mut self, rule: TargetRule) -> Self {
        self.target_rule = rule;
        self
    }

    /// Sets the number of enabled service bits.
    #[must_use]
    pub fn with_service_bits(mut self, bits: u32) -> Self {
        self.service_bits = bits;
        self
    }
}

/// Per-protocol front-end base cost (handshake FSMs, field muxing),
/// reflecting relative socket complexity.
fn protocol_base_gates(p: ProtocolKind) -> u64 {
    match p {
        ProtocolKind::Pvci => 900,
        ProtocolKind::Strm => 1_000,
        ProtocolKind::Ahb => 1_400,
        ProtocolKind::Bvci => 1_500,
        ProtocolKind::Ocp => 2_200,
        ProtocolKind::Avci => 2_400,
        ProtocolKind::Axi => 2_800,
    }
}

/// Estimates the gate count of an NIU.
///
/// Components: protocol front end (fixed per socket), the transaction
/// state lookup table, the tag/rename state, the optional
/// reorder buffer ([`TargetRule::Interleave`]), packetisation datapath,
/// service-bit logic and the exclusive monitor.
pub fn niu_gates(cfg: &NiuAreaConfig) -> GateCount {
    let mut gates = protocol_base_gates(cfg.protocol);
    // Transaction state lookup table: ~64 bits per entry + CAM compare.
    // A hardware entry holds tag, stream, destination, opcode, beat count
    // and timestamp; the simulated NIU keeps only tag, stream and opcode
    // (its timing lives elsewhere), but the area is priced per real entry.
    let entry_bits = 64u64;
    gates += cfg.outstanding as u64 * (entry_bits * GATES_PER_FF as u64 + 40);
    // Tag state: per tag a counter + target register (~24 bits).
    let tags = cfg.ordering.tag_count() as u64;
    gates += tags * 24 * GATES_PER_FF as u64;
    // ID rename CAM for ID-based sockets: 16-bit key per tag.
    if matches!(cfg.ordering, OrderingModel::IdBased { .. }) {
        gates += tags * (16 * GATES_PER_FF as u64 + 60);
    }
    // Reorder buffer: one max-size packet per outstanding transaction.
    if cfg.target_rule == TargetRule::Interleave {
        gates += cfg.outstanding as u64 * cfg.data_bytes as u64 * 8 * GATES_PER_BUF_BIT as u64;
    }
    // Packetisation datapath: width-proportional mux/shift network.
    gates += cfg.data_bytes as u64 * 8 * 14;
    // Service bits: per bit, header flop + compare in both directions.
    gates += cfg.service_bits as u64 * (2 * GATES_PER_FF as u64 + 10);
    // Exclusive monitor: per slot an address granule tag (~34 bits) +
    // comparator.
    gates += cfg.monitor_slots as u64 * (34 * GATES_PER_FF as u64 + 50);
    gates += STRUCT_OVERHEAD as u64;
    GateCount(gates)
}

/// Estimates the gate count of a switch: per input a `depth`-flit buffer
/// of `flit_bits`, per output an arbiter + credit counter, plus the
/// routing table and crossbar muxing.
pub fn switch_gates(inputs: u32, outputs: u32, flit_bits: u32, depth: u32) -> GateCount {
    let buffers = inputs as u64 * depth as u64 * flit_bits as u64 * GATES_PER_BUF_BIT as u64;
    let arbiters = outputs as u64 * (inputs as u64 * 12 + 80);
    let crossbar = inputs as u64 * outputs as u64 * flit_bits as u64 / 2;
    let routing = outputs as u64 * 64;
    GateCount(buffers + arbiters + crossbar + routing + STRUCT_OVERHEAD as u64)
}

/// Estimates a Fig-2 protocol bridge: two full protocol front ends plus
/// store-and-forward buffering for one max burst each way.
pub fn bridge_gates(
    from: ProtocolKind,
    to: ProtocolKind,
    data_bytes: u32,
    max_beats: u32,
) -> GateCount {
    let fes = protocol_base_gates(from) + protocol_base_gates(to);
    let buffering = 2 * (max_beats as u64 * data_bytes as u64 * 8) * GATES_PER_BUF_BIT as u64;
    GateCount(fes + buffering + STRUCT_OVERHEAD as u64)
}

/// Estimates a shared bus: address/data muxes across all masters plus a
/// central arbiter and decoder.
pub fn bus_gates(masters: u32, slaves: u32, data_bytes: u32) -> GateCount {
    let mux = masters as u64 * data_bytes as u64 * 8 * 4;
    let arbiter = masters as u64 * 30 + 200;
    let decoder = slaves as u64 * 80;
    GateCount(mux + arbiter + decoder + STRUCT_OVERHEAD as u64)
}
