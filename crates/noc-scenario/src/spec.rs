//! The declarative scenario description and its compilers.

use crate::names::{name_of, named, Names};
use crate::program::{ProgramSpec, StochasticShape, TraceSpec, ZipfSpec};
use crate::sim::{BridgedSim, BusSim, NocSim, Simulation};
use noc_baseline::{
    AttachedMaster, BridgeConfig, BridgedInterconnect, BusConfig, SharedBus, SlaveTiming,
};
use noc_niu::fe::{
    AhbInitiator, AxiInitiator, AxiTargetFe, OcpInitiator, StrmInitiator, VciInitiator,
};
use noc_niu::{
    InitiatorNiu, InitiatorNiuConfig, MemoryTarget, NocEndpoint, ServiceTarget, SocketInitiator,
    TargetNiu, TargetNiuConfig,
};
use noc_physical::LinkConfig;
use noc_protocols::ahb::AhbMaster;
use noc_protocols::axi::{AxiMaster, AxiSlave};
use noc_protocols::ocp::OcpMaster;
use noc_protocols::strm::StrmMaster;
use noc_protocols::vci::{VciFlavor, VciMaster};
use noc_protocols::{MemoryModel, Program, ProtocolKind, Socket, SocketCommand};
use noc_system::{NocConfig, SocBuilder};
use noc_topology::{PortCount, RouteAlgorithm, Topology, TopologyBuilder, TopologyError};
use noc_transaction::{
    AddressMap, Burst, BurstKind, MstAddr, Opcode, OrderingModel, SlvAddr, StreamId,
};
use std::collections::HashMap;
use std::fmt;
use std::mem::discriminant;
use std::sync::Arc;

/// Which interconnect a [`ScenarioSpec`] compiles to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// The layered NoC of paper Fig 1 (sockets behind NIUs).
    Noc(NocConfig),
    /// The Fig-2 reference-socket interconnect with per-master bridges.
    Bridged(BridgeConfig),
    /// An AHB-style shared bus.
    Bus(BusConfig),
}

impl Backend {
    /// The NoC backend with default transport/physical configuration.
    pub fn noc() -> Self {
        Backend::Noc(NocConfig::new())
    }

    /// The bridged backend with default bridge parameters.
    pub fn bridged() -> Self {
        Backend::Bridged(BridgeConfig::default())
    }

    /// The bus backend with default timing.
    pub fn bus() -> Self {
        Backend::Bus(BusConfig::default())
    }

    /// The grammar spellings (`backend = "…"`, `--backend …`), each
    /// with the constructor of its default configuration.
    pub const NAMES: Names<fn() -> Backend> = &[
        ("noc", Backend::noc),
        ("bridged", Backend::bridged),
        ("bus", Backend::bus),
    ];

    /// A short label for tables and sweep rows.
    pub fn label(&self) -> &'static str {
        name_of(Self::NAMES, |make| {
            discriminant(&make()) == discriminant(self)
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    /// The named backend with its default configuration.
    fn from_str(s: &str) -> Result<Self, String> {
        named("backend", Self::NAMES, s).map(|make| make())
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The socket protocol (and protocol-specific agent parameters) of a
/// declared initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketSpec {
    /// AHB master: fully ordered, single outstanding stream.
    Ahb,
    /// OCP master with `threads` threads, each allowing `per_thread`
    /// outstanding requests.
    Ocp {
        /// Socket thread count.
        threads: u8,
        /// Per-thread outstanding budget of the master agent.
        per_thread: u32,
    },
    /// AXI master using `tags` transaction IDs, `per_id` outstanding per
    /// ID and `total` outstanding overall.
    Axi {
        /// NoC tag pool size for ID renaming.
        tags: u8,
        /// Per-ID outstanding budget of the master agent.
        per_id: u32,
        /// Total outstanding budget of the master agent.
        total: u32,
    },
    /// Proprietary streaming socket with `read_limit` outstanding reads.
    Strm {
        /// Outstanding read budget of the master agent.
        read_limit: u32,
    },
    /// A VCI master of the given flavor with `pipeline` request depth.
    Vci {
        /// PVCI, BVCI or AVCI.
        flavor: VciFlavor,
        /// Request pipeline depth of the master agent.
        pipeline: u32,
    },
}

/// Builds the front end of socket `$spec` over `$program` as its concrete
/// `Initiator<S>` and evaluates `$body` with it bound to `$fe`, once per
/// socket arm — so what `$body` wraps it in is monomorphised, not boxed
/// twice.
macro_rules! with_front_end {
    ($spec:expr, $program:expr, $fe:ident => $body:expr) => {
        match *$spec {
            SocketSpec::Ahb => {
                let $fe = AhbInitiator::new(AhbMaster::new($program));
                $body
            }
            SocketSpec::Ocp {
                threads,
                per_thread,
            } => {
                let $fe = OcpInitiator::new(OcpMaster::new($program, threads, per_thread));
                $body
            }
            SocketSpec::Axi { per_id, total, .. } => {
                let $fe = AxiInitiator::new(AxiMaster::new($program, per_id, total));
                $body
            }
            SocketSpec::Strm { read_limit } => {
                let $fe = StrmInitiator::new(StrmMaster::new($program, read_limit));
                $body
            }
            SocketSpec::Vci { flavor, pipeline } => {
                let $fe = VciInitiator::new(VciMaster::new($program, flavor, pipeline));
                $body
            }
        }
    };
}

impl SocketSpec {
    /// OCP with 2 threads, 4 outstanding per thread.
    pub const fn ocp() -> Self {
        SocketSpec::Ocp {
            threads: 2,
            per_thread: 4,
        }
    }

    /// AXI with 4 IDs, 4 outstanding per ID, 16 total.
    pub const fn axi() -> Self {
        SocketSpec::Axi {
            tags: 4,
            per_id: 4,
            total: 16,
        }
    }

    /// STRM with 4 outstanding reads.
    pub const fn strm() -> Self {
        SocketSpec::Strm { read_limit: 4 }
    }

    /// Peripheral VCI (single outstanding, single beat).
    pub const fn pvci() -> Self {
        SocketSpec::Vci {
            flavor: VciFlavor::Peripheral,
            pipeline: 1,
        }
    }

    /// Basic VCI with a 2-deep request pipeline.
    pub const fn bvci() -> Self {
        SocketSpec::Vci {
            flavor: VciFlavor::Basic,
            pipeline: 2,
        }
    }

    /// Advanced VCI with 2 threads and a 2-deep request pipeline.
    pub const fn avci() -> Self {
        SocketSpec::Vci {
            flavor: VciFlavor::Advanced { threads: 2 },
            pipeline: 2,
        }
    }

    /// The protocol this socket speaks (drives area models and defaults).
    pub fn kind(&self) -> ProtocolKind {
        match self {
            SocketSpec::Ahb => ProtocolKind::Ahb,
            SocketSpec::Ocp { .. } => ProtocolKind::Ocp,
            SocketSpec::Axi { .. } => ProtocolKind::Axi,
            SocketSpec::Strm { .. } => ProtocolKind::Strm,
            SocketSpec::Vci { flavor, .. } => flavor.kind(),
        }
    }

    /// The NIU ordering model matching this socket (paper §3).
    pub fn default_ordering(&self) -> OrderingModel {
        match self {
            SocketSpec::Ahb | SocketSpec::Strm { .. } => OrderingModel::FullyOrdered,
            SocketSpec::Ocp { threads, .. } => OrderingModel::Threaded { threads: *threads },
            SocketSpec::Axi { tags, .. } => OrderingModel::IdBased { tags: *tags },
            SocketSpec::Vci { flavor, .. } => match flavor {
                VciFlavor::Advanced { threads } => OrderingModel::Threaded { threads: *threads },
                _ => OrderingModel::FullyOrdered,
            },
        }
    }

    /// The default NIU outstanding budget — scaled to the socket's
    /// expected performance, as the paper prescribes.
    pub fn default_outstanding(&self) -> u32 {
        match self.kind() {
            ProtocolKind::Ocp | ProtocolKind::Axi => 8,
            ProtocolKind::Avci => 4,
            _ => 2,
        }
    }

    /// The stream (thread) capacity of the socket's master agent, when
    /// the protocol hard-limits it: commands routed to a stream beyond
    /// this count have no queue to land in. `None` means the agent
    /// accepts any `u16` stream id (AXI IDs are renamed by the NIU;
    /// STRM streams are ordering tags only).
    pub fn max_streams(&self) -> Option<u16> {
        match self {
            SocketSpec::Ahb => Some(1),
            SocketSpec::Ocp { threads, .. } => Some(*threads as u16),
            SocketSpec::Vci { flavor, .. } => match flavor {
                VciFlavor::Advanced { threads } => Some(*threads as u16),
                _ => Some(1),
            },
            SocketSpec::Axi { .. } | SocketSpec::Strm { .. } => None,
        }
    }

    /// Whether this socket — under the NIU `ordering` override, if any —
    /// can carry `cmd`: the one capability rule explicit commands,
    /// generated shapes and trace records are all held to. The master
    /// agents and the NIU assert the same conditions, so a command this
    /// admits cannot trip them.
    ///
    /// # Errors
    ///
    /// Returns why not: an illegal burst, a stream the socket (or a
    /// `threaded:N` override) has no queue for, a multi-beat PVCI
    /// transfer, or an opcode the socket cannot express
    /// ([`ProtocolKind::expresses`]).
    pub fn admits(
        &self,
        ordering: Option<OrderingModel>,
        cmd: &SocketCommand,
    ) -> Result<(), String> {
        Burst::new(cmd.burst_kind, cmd.beat_bytes, cmd.beats).map_err(|e| e.to_string())?;
        let overridden = match ordering {
            Some(OrderingModel::Threaded { threads }) => Some(threads as u16),
            _ => None,
        };
        let streams = self.max_streams().into_iter().chain(overridden).min();
        let stream = cmd.stream.raw();
        if let Some(max) = streams.filter(|max| stream >= *max) {
            let whose = "the socket (or its ordering override)";
            return Err(format!(
                "stream {stream} exceeds the {max} stream(s) of {whose}"
            ));
        }
        let kind = self.kind();
        match self {
            SocketSpec::Vci { flavor, .. } if cmd.beats > flavor.max_beats() => {
                Err(format!("{kind} sockets issue single-beat commands only"))
            }
            _ if !kind.expresses(cmd.opcode) => {
                Err(format!("{kind} sockets cannot express {}", cmd.opcode))
            }
            _ => Ok(()),
        }
    }

    /// Whether the socket's own knobs are ones its protocol allows.
    ///
    /// # Errors
    ///
    /// Returns why not: a `pipeline` deeper than the VCI flavour's
    /// [`Socket::max_depth`] (PVCI has no pipelining).
    fn check(&self) -> Result<(), String> {
        match self {
            SocketSpec::Vci { flavor, pipeline } if *pipeline > flavor.max_depth() => Err(format!(
                "{} is single-outstanding: pipeline must be {}",
                self.kind(),
                flavor.max_depth()
            )),
            _ => Ok(()),
        }
    }

    /// Instantiates the socket master agent plus its NIU front end over
    /// `program`, behind the object-safe interface the baselines attach.
    pub fn build_fe(&self, program: Program) -> Box<dyn SocketInitiator> {
        with_front_end!(self, program, fe => Box::new(fe))
    }

    /// Instantiates the whole initiator NIU — master agent, front end
    /// and back end — as one statically dispatched endpoint.
    fn build_niu(
        &self,
        program: Program,
        config: InitiatorNiuConfig,
        map: Arc<AddressMap>,
    ) -> Box<dyn NocEndpoint> {
        with_front_end!(self, program, fe => Box::new(InitiatorNiu::new(fe, config, map)))
    }
}

/// Physical-link knob overrides for one link class of the NoC fabric
/// (`[config]` section keys). A knob left `None` keeps the value the
/// backend configuration already carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkClassSpec {
    /// Pipeline register stages (pure latency) along the wire.
    pub pipeline: Option<u32>,
    /// Phits per flit (serialisation ratio; 1 = full width).
    pub phits: Option<u32>,
    /// Synchroniser depth of asynchronous (CDC) crossings, in
    /// destination cycles.
    pub cdc_latency: Option<u32>,
    /// Maximum flits in flight per link.
    pub capacity: Option<usize>,
}

impl LinkClassSpec {
    /// Returns `true` when no knob is set.
    pub fn is_empty(&self) -> bool {
        *self == LinkClassSpec::default()
    }

    fn apply(&self, mut link: LinkConfig) -> LinkConfig {
        if let Some(p) = self.pipeline {
            link.pipeline = p;
        }
        if let Some(p) = self.phits {
            link.phits_per_flit = p;
        }
        if let Some(c) = self.cdc_latency {
            link.cdc_latency = c;
        }
        if let Some(c) = self.capacity {
            link.capacity = c;
        }
        link
    }
}

/// Spec-level NoC configuration — the serializable first slice of
/// [`NocConfig`], carried by the `[config]` text section so that
/// deep-pipeline and CDC-heavy scenarios are files, not recompiles.
///
/// The knobs cover what the event-horizon machinery makes matter:
/// switch buffering plus the physical shape of the two link classes
/// (switch-to-switch wires and the endpoint injection/ejection links,
/// whose CDC *divisors* still come from each endpoint's declared
/// `clock_divisor`). Values are applied on top of the [`NocConfig`]
/// passed to [`ScenarioSpec::build_noc`]; the baselines have no fabric,
/// so — like the `routing` knob — the section is NoC-only and ignored
/// elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocConfigSpec {
    /// Switch input buffer depth in flits.
    pub buffer_depth: Option<usize>,
    /// Knobs for the switch-to-switch link class (and the default for
    /// the endpoint class).
    pub link: LinkClassSpec,
    /// Endpoint (injection/ejection) link class overrides; a knob left
    /// `None` falls back to the (possibly overridden) switch class.
    pub endpoint: LinkClassSpec,
}

impl NocConfigSpec {
    /// No overrides.
    pub fn new() -> Self {
        NocConfigSpec::default()
    }

    /// Sets the pipeline depth of both link classes.
    #[must_use]
    pub fn with_link_pipeline(mut self, stages: u32) -> Self {
        self.link.pipeline = Some(stages);
        self
    }

    /// Sets the CDC synchroniser depth of both link classes.
    #[must_use]
    pub fn with_cdc_latency(mut self, stages: u32) -> Self {
        self.link.cdc_latency = Some(stages);
        self
    }

    /// Sets the in-flight capacity of both link classes.
    #[must_use]
    pub fn with_link_capacity(mut self, capacity: usize) -> Self {
        self.link.capacity = Some(capacity);
        self
    }

    /// Sets the switch buffer depth.
    #[must_use]
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = Some(depth);
        self
    }

    /// Applies the overrides to a backend configuration. The `link`
    /// knobs cover both classes; `endpoint` knobs then override the
    /// endpoint class on top.
    pub fn apply(&self, mut config: NocConfig) -> NocConfig {
        if let Some(depth) = self.buffer_depth {
            config.buffer_depth = depth;
        }
        config.link = self.link.apply(config.link);
        if !self.endpoint.is_empty() || config.endpoint_link.is_some() {
            let base = self.link.apply(config.endpoint_link.unwrap_or(config.link));
            config.endpoint_link = Some(self.endpoint.apply(base));
        }
        config
    }
}

/// A declared initiator: a socket, its traffic program and NIU knobs.
///
/// The node number is *not* part of the declaration — the spec assigns
/// nodes automatically (initiators first, then memories, in declaration
/// order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitiatorSpec {
    /// Display name (must be unique in the scenario).
    pub name: String,
    /// Socket protocol and agent parameters.
    pub socket: SocketSpec,
    /// The deterministic traffic program this initiator issues: an
    /// explicit command list or a generated or traced workload.
    pub program: ProgramSpec,
    /// NIU ordering override; defaults to the socket's natural model.
    pub ordering: Option<OrderingModel>,
    /// NIU outstanding budget override.
    pub outstanding: Option<u32>,
    /// Default packet pressure (QoS class) override.
    pub pressure: Option<u8>,
    /// Flit payload bytes override (packetisation width).
    pub flit_bytes: Option<usize>,
    /// Local clock divisor relative to the base clock.
    pub clock_divisor: u64,
}

impl InitiatorSpec {
    /// Equality in everything but the program.
    fn same_shape(&self, other: &InitiatorSpec) -> bool {
        // Destructured so that a new field cannot be forgotten here.
        let InitiatorSpec {
            name,
            socket,
            program: _,
            ordering,
            outstanding,
            pressure,
            flit_bytes,
            clock_divisor,
        } = self;
        *name == other.name
            && *socket == other.socket
            && *ordering == other.ordering
            && *outstanding == other.outstanding
            && *pressure == other.pressure
            && *flit_bytes == other.flit_bytes
            && *clock_divisor == other.clock_divisor
    }

    /// The largest NIU outstanding budget a scenario may declare. The
    /// NIU sizes its outstanding queue up front, so an unbounded
    /// budget from a scenario file is an allocation failure — an abort
    /// no `catch_unwind` can turn into an error record.
    pub const MAX_OUTSTANDING: u32 = 1 << 16;

    /// Declares an initiator. `program` accepts a plain
    /// [`Program`] (explicit commands) or any [`ProgramSpec`] kind.
    pub fn new(name: &str, socket: SocketSpec, program: impl Into<ProgramSpec>) -> Self {
        InitiatorSpec {
            name: name.to_owned(),
            socket,
            program: program.into(),
            ordering: None,
            outstanding: None,
            pressure: None,
            flit_bytes: None,
            clock_divisor: 1,
        }
    }

    /// Overrides the NIU ordering model.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderingModel) -> Self {
        self.ordering = Some(ordering);
        self
    }

    /// Overrides the NIU outstanding budget.
    #[must_use]
    pub fn with_outstanding(mut self, outstanding: u32) -> Self {
        self.outstanding = Some(outstanding);
        self
    }

    /// Sets the default packet pressure (QoS class).
    #[must_use]
    pub fn with_pressure(mut self, pressure: u8) -> Self {
        self.pressure = Some(pressure);
        self
    }

    /// Sets the flit payload width used for packetisation.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: usize) -> Self {
        self.flit_bytes = Some(bytes);
        self
    }

    /// Runs this initiator on a divided clock.
    #[must_use]
    pub fn with_clock_divisor(mut self, divisor: u64) -> Self {
        self.clock_divisor = divisor.max(1);
        self
    }

    fn niu_config(&self, node: u16) -> InitiatorNiuConfig {
        let mut cfg = InitiatorNiuConfig::new(MstAddr::new(node))
            .with_ordering(
                self.ordering
                    .unwrap_or_else(|| self.socket.default_ordering()),
            )
            .with_outstanding(
                self.outstanding
                    .unwrap_or_else(|| self.socket.default_outstanding()),
            );
        if let Some(bytes) = self.flit_bytes {
            cfg = cfg.with_flit_bytes(bytes);
        }
        if let Some(p) = self.pressure {
            cfg = cfg.with_pressure(p);
        }
        cfg
    }
}

/// The target-side protocol (and IP model) of a declared target — the
/// counterpart of [`SocketSpec`] for the slave side of the paper's
/// VC-neutrality claim: any target socket plugs into the same NoC
/// through its NIU front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetSpec {
    /// The native NoC memory target ([`MemoryTarget`]): pipelined up to
    /// the declared queue depth, one latency for reads and writes.
    #[default]
    Memory,
    /// An AXI slave IP behind an [`AxiTargetFe`] — the typical
    /// DRAM-controller attachment. `bank_stagger` spreads access latency
    /// across four address banks (`((addr >> 8) % 4) * bank_stagger`
    /// extra cycles), modelling banked storage.
    AxiSlave {
        /// Banked-latency stagger in cycles (0 = uniform latency).
        bank_stagger: u32,
    },
    /// A register/service block ([`ServiceTarget`]): serially served,
    /// with a separate write-path latency. `exclusive` declares that the
    /// block accepts synchronisation traffic (exclusive/locked opcodes);
    /// plain register files reject it at validation time.
    Service {
        /// Write-path latency in cycles (reads use the base latency).
        write_latency: u32,
        /// Whether exclusive/locked opcodes may address this block.
        exclusive: bool,
    },
}

impl TargetSpec {
    /// Short grammar label ("memory", "axi", "service").
    pub fn label(&self) -> &'static str {
        name_of(crate::text::TARGETS, |(_, t)| {
            discriminant(t) == discriminant(self)
        })
    }

    /// Whether exclusive/locked (synchronisation) opcodes may address
    /// this target. Memories and AXI slaves always accept them (the
    /// monitor state lives in backend machinery); a service block only
    /// when declared `exclusive`.
    pub fn accepts_sync(&self) -> bool {
        match self {
            TargetSpec::Memory | TargetSpec::AxiSlave { .. } => true,
            TargetSpec::Service { exclusive, .. } => *exclusive,
        }
    }

    /// The baseline IP timing equivalent of this target kind.
    fn slave_timing(&self) -> SlaveTiming {
        match *self {
            TargetSpec::Memory => SlaveTiming::default(),
            TargetSpec::AxiSlave { bank_stagger } => SlaveTiming {
                write_latency: None,
                bank_stagger,
            },
            TargetSpec::Service { write_latency, .. } => SlaveTiming {
                write_latency: Some(write_latency),
                bank_stagger: 0,
            },
        }
    }
}

impl fmt::Display for TargetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A declared target: a named address region with an IP model behind a
/// target socket ([`TargetSpec`]).
///
/// The owning `SlvAddr` and the scenario [`AddressMap`] entry are derived
/// from the declaration — this is the paper's address decoder table, now
/// computed instead of hand-maintained. The default target kind is the
/// native memory; [`MemorySpec::with_target`] declares protocol targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySpec {
    /// Display name (must be unique in the scenario).
    pub name: String,
    /// First byte of the region.
    pub base: u64,
    /// One past the last byte of the region.
    pub end: u64,
    /// Access latency of the IP model in cycles (read latency for
    /// service blocks).
    pub latency: u32,
    /// Target NIU request queue capacity (memory targets; protocol
    /// targets flow-control through their own socket machinery).
    pub queue: usize,
    /// Local clock divisor relative to the base clock.
    pub clock_divisor: u64,
    /// The target-side socket/IP kind.
    pub target: TargetSpec,
}

impl MemorySpec {
    /// Declares a memory serving `[base, end)` with the given latency.
    pub fn new(name: &str, base: u64, end: u64, latency: u32) -> Self {
        MemorySpec {
            name: name.to_owned(),
            base,
            end,
            latency,
            queue: 8,
            clock_divisor: 1,
            target: TargetSpec::Memory,
        }
    }

    /// Declares a memory over a `(base, end)` range tuple.
    pub fn over(name: &str, range: (u64, u64), latency: u32) -> Self {
        Self::new(name, range.0, range.1, latency)
    }

    /// Declares an AXI-slave-backed target (shorthand for
    /// [`MemorySpec::with_target`]).
    pub fn axi_slave(name: &str, base: u64, end: u64, latency: u32, bank_stagger: u32) -> Self {
        Self::new(name, base, end, latency).with_target(TargetSpec::AxiSlave { bank_stagger })
    }

    /// Declares a register/service block target (shorthand for
    /// [`MemorySpec::with_target`]).
    pub fn service(name: &str, base: u64, end: u64, latency: u32, write_latency: u32) -> Self {
        Self::new(name, base, end, latency).with_target(TargetSpec::Service {
            write_latency,
            exclusive: false,
        })
    }

    /// Sets the target NIU queue capacity.
    #[must_use]
    pub fn with_queue(mut self, queue: usize) -> Self {
        self.queue = queue;
        self
    }

    /// Runs this target on a divided clock.
    #[must_use]
    pub fn with_clock_divisor(mut self, divisor: u64) -> Self {
        self.clock_divisor = divisor.max(1);
        self
    }

    /// Sets the target-side socket/IP kind.
    #[must_use]
    pub fn with_target(mut self, target: TargetSpec) -> Self {
        self.target = target;
        self
    }

    /// Marks a service block as accepting synchronisation traffic.
    ///
    /// # Panics
    ///
    /// Panics when the declared target is not a service block — the flag
    /// has no meaning elsewhere (memories and AXI slaves always accept
    /// synchronisation opcodes).
    #[must_use]
    pub fn with_exclusive(mut self) -> Self {
        match &mut self.target {
            TargetSpec::Service { exclusive, .. } => *exclusive = true,
            other => panic!("with_exclusive applies to service targets, not {other}"),
        }
        self
    }

    /// Instantiates the NoC target NIU for this declaration.
    fn build_niu(&self, node: u16) -> Box<dyn noc_niu::NocEndpoint> {
        let config = TargetNiuConfig::new(SlvAddr::new(node));
        match self.target {
            TargetSpec::Memory => Box::new(TargetNiu::new(
                MemoryTarget::new(MemoryModel::new(self.latency), self.queue),
                config,
            )),
            TargetSpec::AxiSlave { bank_stagger } => Box::new(TargetNiu::new(
                AxiTargetFe::new(AxiSlave::new(MemoryModel::new(self.latency), bank_stagger)),
                config,
            )),
            TargetSpec::Service { write_latency, .. } => Box::new(TargetNiu::new(
                ServiceTarget::new(MemoryModel::new(self.latency), write_latency, self.queue),
                config,
            )),
        }
    }
}

/// How scenario endpoints map onto a switching fabric (NoC backend only —
/// the baselines have their structure fixed by definition).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// One switch, every endpoint attached to it (the degenerate NoC).
    #[default]
    Crossbar,
    /// A bidirectional ring of `switches`; endpoints are spread
    /// round-robin.
    Ring {
        /// Switch count (≥ 2).
        switches: usize,
    },
    /// A `width` × `height` mesh; endpoints are spread round-robin in
    /// row-major switch order.
    Mesh {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// An explicit fabric: `links` are bidirectional switch pairs and
    /// `placement[i]` is the switch of the `i`-th endpoint (initiators
    /// first, then memories, in declaration order).
    Custom {
        /// Switch count.
        switches: usize,
        /// Bidirectional links between switches.
        links: Vec<(usize, usize)>,
        /// Per-endpoint switch assignment.
        placement: Vec<usize>,
    },
}

impl TopologySpec {
    /// The most switches a scenario may declare, whatever the shape:
    /// fabrics are allocated up front, so a larger request from a
    /// scenario file must be an error, not an allocation failure.
    pub const MAX_SWITCHES: usize = 1 << 20;

    /// Number of switches this shape builds (saturating, so an absurd
    /// mesh reads as over [`TopologySpec::MAX_SWITCHES`] instead of
    /// wrapping).
    pub fn switch_count(&self) -> usize {
        match self {
            TopologySpec::Crossbar => 1,
            TopologySpec::Ring { switches } => *switches,
            TopologySpec::Mesh { width, height } => width.saturating_mul(*height),
            TopologySpec::Custom { switches, .. } => *switches,
        }
    }

    /// The deadlock-safe routing algorithm for this fabric shape, used
    /// when the [`NocConfig`] still carries the default
    /// (`ShortestPath`) choice.
    pub fn recommended_routing(&self) -> RouteAlgorithm {
        match self {
            TopologySpec::Crossbar => RouteAlgorithm::ShortestPath,
            TopologySpec::Ring { .. } | TopologySpec::Custom { .. } => RouteAlgorithm::UpDown,
            TopologySpec::Mesh { width, height } => RouteAlgorithm::XyMesh {
                width: *width,
                height: *height,
            },
        }
    }

    fn build(&self, endpoints: usize) -> Result<Topology, ScenarioError> {
        let switches = self.switch_count();
        if switches == 0 {
            return Err(ScenarioError::BadTopology {
                reason: "topology needs at least one switch".into(),
            });
        }
        let mut b = TopologyBuilder::new(switches);
        match self {
            TopologySpec::Crossbar => {}
            TopologySpec::Ring { switches } => {
                if *switches < 2 {
                    return Err(ScenarioError::BadTopology {
                        reason: "ring needs at least two switches".into(),
                    });
                }
                for s in 0..*switches {
                    b.connect_bidir(s, (s + 1) % switches);
                }
            }
            TopologySpec::Mesh { width, height } => {
                for y in 0..*height {
                    for x in 0..*width {
                        let s = y * width + x;
                        if x + 1 < *width {
                            b.connect_bidir(s, s + 1);
                        }
                        if y + 1 < *height {
                            b.connect_bidir(s, s + width);
                        }
                    }
                }
            }
            TopologySpec::Custom { links, .. } => {
                for (a, z) in links {
                    if *a >= switches || *z >= switches {
                        return Err(ScenarioError::BadTopology {
                            reason: format!("link ({a},{z}) references a missing switch"),
                        });
                    }
                    b.connect_bidir(*a, *z);
                }
            }
        }
        for (endpoint, switch) in self.placement(endpoints)?.into_iter().enumerate() {
            b.attach(endpoint as u16, switch)
                .map_err(|e| ScenarioError::BadTopology {
                    reason: format!("attaching node {endpoint}: {e}"),
                })?;
        }
        Ok(b.build())
    }

    /// Refuses a custom link list that gives a switch more ports than a
    /// switch can have: a [`TopologyBuilder`] link cannot fail, so the
    /// list is counted before anything is built. (Endpoints that overflow
    /// a switch are refused by the builder itself.)
    fn check_links(&self) -> Result<(), ScenarioError> {
        let TopologySpec::Custom {
            switches, links, ..
        } = self
        else {
            return Ok(());
        };
        // Every link end is one input and one output port of its switch
        // (a missing switch is the builder's error to report).
        let mut ports = vec![0usize; *switches];
        for &(a, z) in links {
            for s in [a, z] {
                if let Some(count) = ports.get_mut(s) {
                    *count += 1;
                }
            }
        }
        match ports.iter().position(|&n| n > PortCount::MAX) {
            Some(switch) => Err(ScenarioError::BadTopology {
                reason: TopologyError::TooManyPorts {
                    switch,
                    ports: ports[switch],
                }
                .to_string(),
            }),
            None => Ok(()),
        }
    }

    fn placement(&self, endpoints: usize) -> Result<Vec<usize>, ScenarioError> {
        match self {
            TopologySpec::Custom {
                switches,
                placement,
                ..
            } => {
                if placement.len() != endpoints {
                    return Err(ScenarioError::BadTopology {
                        reason: format!(
                            "placement lists {} endpoints, scenario declares {endpoints}",
                            placement.len()
                        ),
                    });
                }
                if let Some(bad) = placement.iter().find(|s| **s >= *switches) {
                    return Err(ScenarioError::BadTopology {
                        reason: format!("placement references missing switch {bad}"),
                    });
                }
                Ok(placement.clone())
            }
            _ => {
                let switches = self.switch_count();
                Ok((0..endpoints).map(|i| i % switches).collect())
            }
        }
    }
}

/// Errors in a scenario declaration, caught before anything is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The scenario declares no initiators or no memories.
    Empty,
    /// Two endpoints share a display name.
    DuplicateName {
        /// The contested name.
        name: String,
    },
    /// Two memory regions overlap.
    OverlappingRegions {
        /// First region's name.
        a: String,
        /// Second region's name.
        b: String,
    },
    /// A memory region is empty or inverted.
    EmptyRegion {
        /// The offending region's name.
        name: String,
    },
    /// A command addresses bytes outside every declared memory region.
    UnmappedAddress {
        /// The issuing initiator.
        initiator: String,
        /// The unmapped address.
        addr: u64,
    },
    /// The topology cannot host the declared endpoints.
    BadTopology {
        /// Why.
        reason: String,
    },
    /// The chosen backend cannot model a non-unit clock divisor: the bus
    /// and bridged baselines run every endpoint on the base clock, so
    /// compiling a clocked spec to them would silently change timing.
    UnsupportedClock {
        /// The backend that rejected the spec ("bus" or "bridged").
        backend: &'static str,
        /// The endpoint declared with a divided clock.
        endpoint: String,
        /// Its declared divisor.
        divisor: u64,
    },
    /// The chosen backend cannot model a declared target kind: the
    /// shared bus centralises exclusive arbitration in its own monitor,
    /// so a service block that owns its exclusive port cannot attach —
    /// compiling it would silently drop the declared semantics.
    UnsupportedTarget {
        /// The backend that rejected the spec.
        backend: &'static str,
        /// The offending target declaration's name.
        target: String,
        /// The rejected target kind ("service+exclusive", …).
        kind: String,
    },
    /// A program sends synchronisation traffic (exclusive or locked
    /// opcodes) to a target whose declaration does not accept it (a
    /// service block without the `exclusive` flag).
    SyncUnsupported {
        /// The issuing initiator.
        initiator: String,
        /// The addressed target.
        target: String,
        /// The rejected opcode.
        opcode: Opcode,
    },
    /// An initiator's NIU outstanding budget exceeds
    /// [`InitiatorSpec::MAX_OUTSTANDING`].
    OutstandingTooLarge {
        /// The declaring initiator.
        initiator: String,
        /// The declared budget.
        outstanding: u32,
    },
    /// An initiator's socket is given a knob value its protocol does not
    /// allow: a PVCI `pipeline` above 1.
    BadSocket {
        /// The declaring initiator.
        initiator: String,
        /// Why.
        reason: String,
    },
    /// A generated (stochastic or trace) program declaration is
    /// inconsistent: shape out of range, streams beyond the socket's
    /// capacity, a burst that cannot fit a declared region, …
    BadProgram {
        /// The declaring initiator.
        initiator: String,
        /// Why.
        reason: String,
    },
    /// A trace file failed validation: unreadable or never loaded, a
    /// malformed record, decreasing timestamps, or a record violating
    /// the scenario's socket or containment rules. `line` is `0` for
    /// file-level failures.
    Trace {
        /// The trace file path.
        path: String,
        /// The offending line (1-based; `0` = whole file).
        line: usize,
        /// Why.
        reason: String,
    },
    /// A scenario text file failed to parse (see [`crate::text`]); the
    /// inner error pinpoints the offending line and column.
    Parse(crate::text::ParseError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Empty => {
                write!(f, "scenario needs at least one initiator and one memory")
            }
            ScenarioError::DuplicateName { name } => {
                write!(f, "endpoint name {name:?} declared twice")
            }
            ScenarioError::OverlappingRegions { a, b } => {
                write!(f, "memory regions {a:?} and {b:?} overlap")
            }
            ScenarioError::EmptyRegion { name } => {
                write!(f, "memory region {name:?} is empty")
            }
            ScenarioError::UnmappedAddress { initiator, addr } => {
                write!(
                    f,
                    "{initiator:?} addresses {addr:#x} outside every memory region"
                )
            }
            ScenarioError::BadTopology { reason } => write!(f, "bad topology: {reason}"),
            ScenarioError::UnsupportedClock {
                backend,
                endpoint,
                divisor,
            } => write!(
                f,
                "{backend} backend cannot model {endpoint:?}'s clk/{divisor} \
                 (baselines run everything on the base clock)"
            ),
            ScenarioError::UnsupportedTarget {
                backend,
                target,
                kind,
            } => write!(
                f,
                "{backend} backend cannot model {target:?}'s {kind} target"
            ),
            ScenarioError::SyncUnsupported {
                initiator,
                target,
                opcode,
            } => write!(
                f,
                "{initiator:?} sends {opcode} to {target:?}, which does not \
                 accept synchronisation traffic (declare the target exclusive)"
            ),
            ScenarioError::OutstandingTooLarge {
                initiator,
                outstanding,
            } => write!(
                f,
                "{initiator:?} declares outstanding = {outstanding}, above the limit of {}",
                InitiatorSpec::MAX_OUTSTANDING
            ),
            ScenarioError::BadSocket { initiator, reason } => {
                write!(f, "{initiator:?}'s socket: {reason}")
            }
            ScenarioError::BadProgram { initiator, reason } => {
                write!(f, "{initiator:?}'s program: {reason}")
            }
            ScenarioError::Trace { path, line, reason } => {
                if *line == 0 {
                    write!(f, "trace {path}: {reason}")
                } else {
                    write!(f, "trace {path}:{line}: {reason}")
                }
            }
            ScenarioError::Parse(e) => write!(f, "scenario text: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::text::ParseError> for ScenarioError {
    fn from(e: crate::text::ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

/// A complete, interconnect-neutral scenario description.
///
/// See the crate-level example. Construction is fluent and infallible;
/// every consistency rule is checked by [`ScenarioSpec::validate`], which
/// all compilers call first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioSpec {
    /// Declared initiators, in node order.
    pub initiators: Vec<InitiatorSpec>,
    /// Declared memories, in node order after the initiators.
    pub memories: Vec<MemorySpec>,
    /// Fabric shape for the NoC backend.
    pub topology: TopologySpec,
    /// Explicit routing choice; `None` derives it from the topology.
    pub routing: Option<RouteAlgorithm>,
    /// Spec-level NoC configuration overrides (the `[config]` section);
    /// `None` keeps whatever the backend configuration carries.
    pub config: Option<NocConfigSpec>,
}

impl ScenarioSpec {
    /// An empty scenario on a crossbar fabric.
    pub fn new() -> Self {
        ScenarioSpec {
            initiators: Vec::new(),
            memories: Vec::new(),
            topology: TopologySpec::Crossbar,
            routing: None,
            config: None,
        }
    }

    /// Adds an initiator (assigned the next initiator node).
    #[must_use]
    pub fn initiator(mut self, spec: InitiatorSpec) -> Self {
        self.initiators.push(spec);
        self
    }

    /// Adds a memory (assigned the next node after all initiators).
    #[must_use]
    pub fn memory(mut self, spec: MemorySpec) -> Self {
        self.memories.push(spec);
        self
    }

    /// Sets the NoC fabric shape.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Forces a routing algorithm, overriding both the [`NocConfig`]
    /// passed to [`ScenarioSpec::build_noc`] and the topology-derived
    /// default — the escape hatch for running e.g. `ShortestPath` on a
    /// fabric the spec would otherwise route conservatively.
    #[must_use]
    pub fn with_routing(mut self, routing: RouteAlgorithm) -> Self {
        self.routing = Some(routing);
        self
    }

    /// Declares spec-level NoC configuration overrides (serialized as
    /// the `[config]` section), applied on top of the [`NocConfig`]
    /// passed to [`ScenarioSpec::build_noc`].
    #[must_use]
    pub fn with_config(mut self, config: NocConfigSpec) -> Self {
        self.config = Some(config);
        self
    }

    /// The node number the spec assigns to the `i`-th initiator.
    pub fn initiator_node(&self, i: usize) -> u16 {
        i as u16
    }

    /// The node number the spec assigns to the `i`-th memory.
    pub fn memory_node(&self, i: usize) -> u16 {
        (self.initiators.len() + i) as u16
    }

    /// Total endpoint count.
    pub fn num_endpoints(&self) -> usize {
        self.initiators.len() + self.memories.len()
    }

    /// Checks every consistency rule of the declaration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found: an empty scenario,
    /// duplicate endpoint names, empty or overlapping memory regions,
    /// commands addressing unmapped bytes, an outstanding budget or
    /// switch count over its limit, a socket knob its protocol does not
    /// allow, or an unusable topology.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.initiators.is_empty() || self.memories.is_empty() {
            return Err(ScenarioError::Empty);
        }
        let mut names: Vec<&str> = Vec::new();
        for name in self
            .initiators
            .iter()
            .map(|i| i.name.as_str())
            .chain(self.memories.iter().map(|m| m.name.as_str()))
        {
            if names.contains(&name) {
                return Err(ScenarioError::DuplicateName {
                    name: name.to_owned(),
                });
            }
            names.push(name);
        }
        for m in &self.memories {
            if m.base >= m.end {
                return Err(ScenarioError::EmptyRegion {
                    name: m.name.clone(),
                });
            }
        }
        for (i, a) in self.memories.iter().enumerate() {
            for b in &self.memories[i + 1..] {
                if a.base < b.end && b.base < a.end {
                    return Err(ScenarioError::OverlappingRegions {
                        a: a.name.clone(),
                        b: b.name.clone(),
                    });
                }
            }
        }
        for ini in &self.initiators {
            let over = |n: &u32| *n > InitiatorSpec::MAX_OUTSTANDING;
            if let Some(outstanding) = ini.outstanding.filter(over) {
                return Err(ScenarioError::OutstandingTooLarge {
                    initiator: ini.name.clone(),
                    outstanding,
                });
            }
            ini.socket
                .check()
                .map_err(|reason| ScenarioError::BadSocket {
                    initiator: ini.name.clone(),
                    reason,
                })?;
            match &ini.program {
                ProgramSpec::Explicit(program) => {
                    // The target and stream of the lock this initiator holds.
                    let mut locked = None;
                    for (i, cmd) in program.iter().enumerate() {
                        let bad = |reason| {
                            self.bad_program(ini, format!("command {i} ({cmd}): {reason}"))
                        };
                        ini.socket.admits(ini.ordering, cmd).map_err(bad)?;
                        // Every beat of the burst must land in one declared
                        // region (bursts never cross region boundaries).
                        let region = self
                            .memories
                            .iter()
                            .find(|m| cmd.addr >= m.base && cmd.addr < m.end);
                        let burst = cmd.burst();
                        let contained = region.is_some_and(|m| {
                            cmd.addr.checked_add(burst.total_bytes()).is_some()
                                && burst
                                    .beat_addresses(cmd.addr)
                                    .all(|a| a >= m.base && a + cmd.beat_bytes as u64 <= m.end)
                        });
                        if !contained {
                            return Err(ScenarioError::UnmappedAddress {
                                initiator: ini.name.clone(),
                                addr: cmd.addr,
                            });
                        }
                        // Synchronisation traffic needs a target that accepts it.
                        if cmd.opcode.is_exclusive() || cmd.opcode.is_locking() {
                            let region = region.expect("containment checked above");
                            if !region.target.accepts_sync() {
                                return Err(ScenarioError::SyncUnsupported {
                                    initiator: ini.name.clone(),
                                    target: region.name.clone(),
                                    opcode: cmd.opcode,
                                });
                            }
                        }
                        // An unlock releases the lock its initiator took:
                        // the target NIU knows no other kind.
                        let held = (region.map(|m| &m.name), cmd.stream);
                        match cmd.opcode {
                            Opcode::ReadLocked => locked = Some(held),
                            Opcode::WriteUnlock if locked.take() != Some(held) => {
                                let reason = "no read_locked of this target and stream to release";
                                return Err(bad(reason.into()));
                            }
                            _ => {}
                        }
                    }
                }
                ProgramSpec::Bursty(b) => {
                    self.check_shape(ini, b.commands, &b.shape)?;
                    if b.burst_len == 0 {
                        return Err(self.bad_program(ini, "burst_len must be at least 1"));
                    }
                }
                ProgramSpec::Zipf(z) => {
                    self.check_shape(ini, z.commands, &z.shape)?;
                    if z.exponent_milli > ZipfSpec::MAX_EXPONENT_MILLI {
                        return Err(self.bad_program(
                            ini,
                            format!(
                                "exponent_milli {} out of range (0..={})",
                                z.exponent_milli,
                                ZipfSpec::MAX_EXPONENT_MILLI
                            ),
                        ));
                    }
                }
                ProgramSpec::Trace(t) => {
                    if t.path().is_empty() {
                        return Err(self.bad_program(ini, "trace_file must not be empty"));
                    }
                }
            }
        }
        let switches = self.topology.switch_count();
        if switches > TopologySpec::MAX_SWITCHES {
            return Err(ScenarioError::BadTopology {
                reason: format!(
                    "{switches} switches exceed the limit of {}",
                    TopologySpec::MAX_SWITCHES
                ),
            });
        }
        self.topology.placement(self.num_endpoints())?;
        self.topology.check_links()?;
        self.check_traces()
    }

    fn bad_program(&self, ini: &InitiatorSpec, reason: impl Into<String>) -> ScenarioError {
        ScenarioError::BadProgram {
            initiator: ini.name.clone(),
            reason: reason.into(),
        }
    }

    /// Consistency rules for a stochastic program of `commands` commands
    /// of `shape`: at most [`ProgramSpec::MAX_GENERATED`] of them, each
    /// passing the same containment and capacity checks an explicit
    /// program would, but proved once over the parameters instead of
    /// per command.
    fn check_shape(
        &self,
        ini: &InitiatorSpec,
        commands: usize,
        shape: &StochasticShape,
    ) -> Result<(), ScenarioError> {
        if commands > ProgramSpec::MAX_GENERATED {
            return Err(self.bad_program(
                ini,
                format!(
                    "{commands} commands exceed the limit of {}",
                    ProgramSpec::MAX_GENERATED
                ),
            ));
        }
        if shape.read_pct > 100 {
            return Err(self.bad_program(
                ini,
                format!("read_pct {} out of range (0..=100)", shape.read_pct),
            ));
        }
        if shape.streams == 0 {
            return Err(self.bad_program(ini, "streams must be at least 1"));
        }
        // Generators vary only address, direction and stream, so the
        // socket admits every generated command iff it admits the one
        // on the highest stream.
        let widest = SocketCommand::read(0, shape.beat_bytes)
            .with_burst(BurstKind::Incr, shape.beats)
            .with_stream(StreamId::new(shape.streams - 1));
        if let Err(reason) = ini.socket.admits(ini.ordering, &widest) {
            return Err(self.bad_program(ini, reason));
        }
        // Generators may target any declared region, so every region
        // must be able to contain one whole burst.
        let burst_bytes = (shape.beats as u64) * shape.beat_bytes as u64;
        for m in &self.memories {
            if m.end - m.base < burst_bytes {
                return Err(self.bad_program(
                    ini,
                    format!(
                        "a {}x{} burst ({burst_bytes} bytes) cannot fit region {:?}",
                        shape.beats, shape.beat_bytes, m.name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Rebases every relative `trace_file` path against `base`, then
    /// reads each trace file into memory ([`TraceSpec::load`]) — called
    /// by file-loading front ends (`scn`, the serve layer, tests) after
    /// parsing, so paths in a `.scn` file resolve relative to the file
    /// rather than the process working directory, and the run never
    /// touches the file again. Emission round-trips are done on the
    /// unresolved spec.
    pub fn resolve_trace_paths(&mut self, base: &std::path::Path) {
        self.load_traces(base, &mut HashMap::new());
    }

    /// [`ScenarioSpec::resolve_trace_paths`], reading each path that is
    /// not in `loaded` yet and adding it there.
    pub(crate) fn load_traces(
        &mut self,
        base: &std::path::Path,
        loaded: &mut HashMap<String, TraceSpec>,
    ) {
        for ini in &mut self.initiators {
            if let ProgramSpec::Trace(t) = &mut ini.program {
                let path = base.join(t.path()).to_string_lossy().into_owned();
                *t = loaded
                    .entry(path)
                    .or_insert_with_key(|path| TraceSpec::load(path.as_str()))
                    .clone();
            }
        }
    }

    /// The trace rules that depend on the scenario, checked over the
    /// records the load read: the socket can carry each record, and each
    /// lands inside one declared region — the rules explicit commands
    /// are held to. A trace that failed to load is reported after the
    /// records before its bad line.
    fn check_traces(&self) -> Result<(), ScenarioError> {
        for ini in &self.initiators {
            let ProgramSpec::Trace(t) = &ini.program else {
                continue;
            };
            t.check(|rec| {
                ini.socket.admits(ini.ordering, &rec.command(rec.cycle))?;
                let burst_bytes = rec.beats as u64 * rec.beat_bytes as u64;
                let end = rec.addr.checked_add(burst_bytes);
                let contained = self
                    .memories
                    .iter()
                    .any(|m| rec.addr >= m.base && end.is_some_and(|end| end <= m.end));
                if !contained {
                    return Err(format!(
                        "{:#x}+{burst_bytes} lands outside every memory region",
                        rec.addr
                    ));
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// The address map derived from the declared memory regions.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (overlaps, empty regions, …).
    pub fn address_map(&self) -> Result<AddressMap, ScenarioError> {
        self.validate()?;
        let mut map = AddressMap::new();
        for (i, m) in self.memories.iter().enumerate() {
            map.add(m.base, m.end, SlvAddr::new(self.memory_node(i)))
                .expect("regions validated disjoint");
        }
        Ok(map)
    }

    /// The per-initiator programs, in declaration order: each
    /// [`ProgramSpec::compile`]d, generators targeting the declared
    /// memory regions. Every `build_*` moves them into its masters; a
    /// warm fork loads them via [`Simulation::load_programs`].
    ///
    /// # Panics
    ///
    /// Panics, or fails to allocate, on a spec
    /// [`ScenarioSpec::validate`] refuses: a generated program with no
    /// memory to target or over [`ProgramSpec::MAX_GENERATED`] commands.
    pub fn programs(&self) -> Vec<Program> {
        let regions: Vec<(u64, u64)> = self.memories.iter().map(|m| (m.base, m.end)).collect();
        self.initiators
            .iter()
            .map(|i| i.program.compile(&regions))
            .collect()
    }

    /// The spec with every initiator program removed — explicit,
    /// stochastic and trace kinds alike map to the empty explicit
    /// program: the shareable "prefix" (topology, `[config]`, routing,
    /// endpoint shapes and NIU knobs). Two grid points that differ only
    /// in their workloads have equal stripped specs, so one compiled
    /// checkpoint serves both.
    #[must_use]
    pub fn without_programs(&self) -> ScenarioSpec {
        let mut stripped = self.clone();
        for ini in &mut stripped.initiators {
            ini.program = ProgramSpec::default();
        }
        stripped
    }

    /// Whether `other` declares the same platform: equal in everything
    /// but the initiators' programs. Two such specs have equal
    /// [`ScenarioSpec::without_programs`], which compile to identical
    /// simulations on one backend, so a checkpoint cache may serve either
    /// from one warmed entry — and can tell without stripping, cloning or
    /// printing the spec it is handed.
    pub fn same_platform(&self, other: &ScenarioSpec) -> bool {
        // Destructured so that a new field cannot be forgotten here.
        let ScenarioSpec {
            initiators,
            memories,
            topology,
            routing,
            config,
        } = self;
        initiators.len() == other.initiators.len()
            && initiators
                .iter()
                .zip(&other.initiators)
                .all(|(a, b)| a.same_shape(b))
            && *memories == other.memories
            && *topology == other.topology
            && *routing == other.routing
            && *config == other.config
    }

    /// Compiles the spec for the given backend.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent.
    pub fn build(&self, backend: &Backend) -> Result<Box<dyn Simulation>, ScenarioError> {
        Ok(match backend {
            Backend::Noc(cfg) => Box::new(self.build_noc(*cfg)?),
            Backend::Bridged(cfg) => Box::new(self.build_bridged(*cfg)?),
            Backend::Bus(cfg) => Box::new(self.build_bus(*cfg)?),
        })
    }

    /// Compiles the spec onto the NoC (paper Fig 1): every socket behind
    /// its NIU on the declared fabric.
    ///
    /// Routing resolution, most explicit wins:
    /// [`ScenarioSpec::with_routing`] if set; otherwise a non-default
    /// algorithm carried by `config`; otherwise — since the config
    /// default (`ShortestPath`) is indistinguishable from "unspecified"
    /// and can deadlock on non-crossbar fabrics — the topology's
    /// [recommended](TopologySpec::recommended_routing) deadlock-safe
    /// algorithm. To force `ShortestPath` on a non-crossbar fabric, use
    /// `with_routing`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent.
    pub fn build_noc(&self, mut config: NocConfig) -> Result<NocSim, ScenarioError> {
        // One map, shared by every initiator NIU and every fork of them.
        let map = Arc::new(self.address_map()?);
        if let Some(overrides) = &self.config {
            config = overrides.apply(config);
        }
        if let Some(routing) = self.routing {
            config.routing = routing;
        } else if matches!(config.routing, RouteAlgorithm::ShortestPath)
            && !matches!(self.topology, TopologySpec::Crossbar)
        {
            config.routing = self.topology.recommended_routing();
        }
        let topology = self.topology.build(self.num_endpoints())?;
        let mut builder = SocBuilder::new(topology, config);
        let programs = self.initiators.iter().zip(self.programs());
        for (i, (ini, program)) in programs.enumerate() {
            let node = self.initiator_node(i);
            let niu = ini
                .socket
                .build_niu(program, ini.niu_config(node), map.clone());
            builder = builder.initiator_clocked(&ini.name, node, niu, ini.clock_divisor);
        }
        for (i, mem) in self.memories.iter().enumerate() {
            let node = self.memory_node(i);
            builder =
                builder.target_clocked(&mem.name, node, mem.build_niu(node), mem.clock_divisor);
        }
        let soc = builder.build().map_err(|e| ScenarioError::BadTopology {
            reason: e.to_string(),
        })?;
        Ok(NocSim::new(soc))
    }

    /// Rejects specs that declare divided endpoint clocks, which the
    /// baseline backends cannot model (they tick everything on the base
    /// clock — compiling such a spec would silently change its timing).
    fn reject_clocked(&self, backend: &'static str) -> Result<(), ScenarioError> {
        let clocked = self
            .initiators
            .iter()
            .map(|i| (&i.name, i.clock_divisor))
            .chain(self.memories.iter().map(|m| (&m.name, m.clock_divisor)))
            .find(|&(_, d)| d != 1);
        match clocked {
            Some((name, divisor)) => Err(ScenarioError::UnsupportedClock {
                backend,
                endpoint: name.clone(),
                divisor,
            }),
            None => Ok(()),
        }
    }

    /// Rejects target declarations the bus cannot model: its exclusive
    /// arbitration is centralised in the bus monitor, so a service block
    /// that owns its exclusive port has no honest bus attachment.
    fn reject_bus_targets(&self) -> Result<(), ScenarioError> {
        for mem in &self.memories {
            if let TargetSpec::Service {
                exclusive: true, ..
            } = mem.target
            {
                return Err(ScenarioError::UnsupportedTarget {
                    backend: "bus",
                    target: mem.name.clone(),
                    kind: "service+exclusive".into(),
                });
            }
        }
        Ok(())
    }

    /// Compiles the spec onto the Fig-2 bridged reference-socket
    /// interconnect.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent or
    /// declares divided clocks ([`ScenarioError::UnsupportedClock`]).
    pub fn build_bridged(&self, config: BridgeConfig) -> Result<BridgedSim, ScenarioError> {
        self.reject_clocked("bridged")?;
        let map = self.address_map()?;
        let mut ic = BridgedInterconnect::new(config, map);
        for (ini, program) in self.initiators.iter().zip(self.programs()) {
            ic.add_master(AttachedMaster::new(&ini.name, ini.socket.build_fe(program)));
        }
        for (i, mem) in self.memories.iter().enumerate() {
            ic.add_slave_timed(
                SlvAddr::new(self.memory_node(i)),
                MemoryModel::new(mem.latency),
                mem.target.slave_timing(),
            );
        }
        Ok(BridgedSim::new(ic))
    }

    /// Compiles the spec onto the shared-bus baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if the declaration is inconsistent,
    /// declares divided clocks ([`ScenarioError::UnsupportedClock`]) or
    /// declares a target kind the bus cannot model
    /// ([`ScenarioError::UnsupportedTarget`]).
    pub fn build_bus(&self, config: BusConfig) -> Result<BusSim, ScenarioError> {
        self.reject_clocked("bus")?;
        self.reject_bus_targets()?;
        let map = self.address_map()?;
        let mut bus = SharedBus::new(config, map);
        for (ini, program) in self.initiators.iter().zip(self.programs()) {
            bus.add_master(AttachedMaster::new(&ini.name, ini.socket.build_fe(program)));
        }
        for mem in &self.memories {
            bus.add_slave_timed(
                mem.base,
                MemoryModel::new(mem.latency),
                mem.target.slave_timing(),
            );
        }
        Ok(BusSim::new(bus))
    }
}
