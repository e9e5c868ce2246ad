//! Zero-dependency text serialization of scenarios and sweeps.
//!
//! The experiment grid becomes data: a `ScenarioSpec` — every knob of it,
//! sockets, programs, ordering models, outstanding limits, clock
//! divisors, topology — round-trips through a TOML-like text format, so
//! new experiments are files, not recompiles. A file is either one
//! scenario or a sweep (a `[sweep]` header plus one full scenario per
//! `[[sweep.point]]`).
//!
//! # Grammar
//!
//! Line-oriented. `#` starts a comment (outside strings); blank lines are
//! ignored. Integers may be decimal or `0x…` hex, with `_` separators.
//!
//! ```text
//! [topology]                    # optional; defaults to a crossbar
//! kind = "mesh"                 # crossbar | ring | mesh | custom
//! width = 2                     # mesh only
//! height = 2                    # mesh only
//! # ring:   switches = N
//! # custom: switches = N, links = [[0, 1], …], placement = [0, 0, 1, …]
//! routing = "xy:2x2"            # optional: shortest | updown | xy:WxH
//!
//! [config]                      # optional NoC transport/physical knobs
//! buffer_depth = 8              # switch input buffers, in flits
//! link_pipeline = 9             # both link classes unless overridden:
//! link_phits = 1                #   pipeline stages, phits per flit,
//! link_cdc_latency = 2          #   CDC synchroniser depth, in-flight
//! link_capacity = 16            #   capacity
//! endpoint_pipeline = 2         # endpoint (injection/ejection) link
//! # endpoint_phits / endpoint_cdc_latency / endpoint_capacity likewise
//! # override the endpoint class; CDC *divisors* of that class come from
//! # each endpoint's clock_divisor. NoC backend only (baselines have no
//! # fabric), like `routing`.
//!
//! [[initiator]]
//! name = "dma"
//! socket = "axi"                # ahb | ocp | axi | strm | pvci | bvci | avci
//! tags = 4                      # socket parameters; each socket has its own
//! per_id = 4                    # (threads/per_thread, tags/per_id/total,
//! total = 16                    #  read_limit, pipeline) — others are rejected
//! ordering = "id:4"             # optional: ordered | threaded:N | id:N
//! outstanding = 8               # optional NIU budget override
//! pressure = 1                  # optional QoS class
//! flit_bytes = 8                # optional packetisation width
//! clock_divisor = 2             # optional, default 1
//! cmd = "read 0x100 4x4"        # program, one command per line (see below)
//! cmd = "write 0x200 1x8 seed=0xbeef stream=2 delay=3 pressure=1 kind=wrap"
//!
//! [[initiator]]                 # generated (streamed) programs carry a
//! name = "cam"                  # kind instead of cmd lines — kind and
//! socket = "axi"                # cmd together are rejected
//! kind = "bursty"               # bursty | zipf | trace
//! seed = 42                     # bursty/zipf: generator seed
//! commands = 4000               # bursty/zipf: total commands
//! burst_len = 8                 # bursty: mean burst length (commands)
//! idle_gap = 400                # bursty: mean idle between bursts (cycles)
//! # zipf instead takes: exponent_milli = 1500 (Zipf exponent ×1000,
//! #   0..=8000; first declared memory = hottest rank)
//! # trace instead takes: trace_file = "path.trace" (relative to the
//! #   .scn file; records `cycle op addr beats beat_bytes [stream]`)
//! read_pct = 70                 # shape, optional (defaults shown):
//! beats = 4                     #   reads %, beats per burst, bytes per
//! beat_bytes = 4                #   beat, socket streams to round-robin
//! streams = 1                   #   over, mean in-burst gap, and the
//! gap = 2                       #   open|closed injection discipline
//! discipline = "open"           #   (closed floors every gap at 1 cycle)
//!
//! [[memory]]
//! name = "dram"
//! base = 0x0
//! end = 0x1000
//! latency = 8
//! queue = 8                     # optional, default 8
//! clock_divisor = 1             # optional, default 1
//!
//! [[target]]                    # non-memory target socket; [[memory]]
//! name = "regs"                 # and [[target]] are interchangeable
//! kind = "service"              # memory | axi | service
//! base = 0x1000
//! end = 0x2000
//! latency = 1                   # read latency for service blocks
//! write_latency = 3             # service only; defaults to latency
//! exclusive = true              # service only; accepts sync traffic
//! # axi instead takes: bank_stagger = N (banked-latency spread)
//!
//! [sweep]                       # sweep files only
//! max_cycles = 2000000          # optional per-point budget
//! threads = 4                   # optional worker cap
//! step = "horizon"              # optional default step mode
//!
//! [[sweep.point]]               # each point carries its own scenario
//! label = "row 1"
//! backend = "noc"               # noc | bridged | bus (default configs)
//! step = "dense"                # optional per-point override
//! # …followed by this point's [topology] / [[initiator]] / [[memory]]
//! ```
//!
//! A command is `OP ADDR BEATSxBYTES` plus optional `kind=`
//! (`incr|wrap|fixed|stream`), `stream=`, `seed=`, `delay=` and
//! `pressure=` fields. Ops: `read`, `write`, `write_posted`, `read_ex`,
//! `write_ex`, `read_linked`, `write_cond`, `read_locked`,
//! `write_unlock`, `broadcast`.
//!
//! Backend *configurations* (transport, physical, bus timing) stay in
//! code; the spec-level `routing` override covers the one knob the
//! corpus needs. Parsing reports precise line/column [`ParseError`]s;
//! [`ScenarioSpec::from_text`] wraps them in
//! [`ScenarioError::Parse`].
//!
//! # Examples
//!
//! ```
//! use noc_scenario::{Backend, ScenarioSpec};
//!
//! let text = r#"
//! [[initiator]]
//! name = "cpu"
//! socket = "ahb"
//! cmd = "write 0x100 1x4 seed=0xbeef"
//! cmd = "read 0x100 1x4"
//!
//! [[memory]]
//! name = "mem"
//! base = 0x0
//! end = 0x1000
//! latency = 2
//! "#;
//! let spec = ScenarioSpec::from_text(text)?;
//! assert_eq!(ScenarioSpec::from_text(&spec.to_text())?, spec);
//! let mut sim = spec.build(&Backend::noc())?;
//! assert!(sim.run_until(100_000));
//! # Ok::<(), noc_scenario::ScenarioError>(())
//! ```

use crate::program::{BurstySpec, Discipline, ProgramSpec, StochasticShape, TraceSpec, ZipfSpec};
use crate::sim::StepMode;
use crate::spec::{
    Backend, InitiatorSpec, LinkClassSpec, MemorySpec, NocConfigSpec, ScenarioError, ScenarioSpec,
    SocketSpec, TargetSpec, TopologySpec,
};
use crate::sweep::{Sweep, SweepPoint};
use noc_protocols::vci::VciFlavor;
use noc_protocols::SocketCommand;
use noc_topology::RouteAlgorithm;
use noc_transaction::{BurstKind, Opcode, OrderingModel, StreamId};
use std::fmt;

/// What a scenario text error is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed syntax (bad section header, missing `=`, bad literal…).
    Syntax(String),
    /// A section name the grammar doesn't know.
    UnknownSection(String),
    /// A key the enclosing section doesn't accept (unknown, or not
    /// applicable to the declared socket/topology kind).
    UnknownKey(String),
    /// The same key given twice in one section.
    DuplicateKey(String),
    /// A required key is missing from a section.
    MissingKey {
        /// The section lacking the key.
        section: String,
        /// The missing key.
        key: String,
    },
    /// A key's value is out of range or of the wrong shape.
    BadValue {
        /// The offending key.
        key: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// Two endpoints declare the same name.
    DuplicateName(String),
    /// Two memory regions overlap.
    OverlappingRegions {
        /// First region's name.
        a: String,
        /// Second region's name.
        b: String,
    },
    /// Sweep sections in a file parsed as a single scenario.
    UnexpectedSweep,
    /// No sweep sections in a file parsed as a sweep.
    NotASweep,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::Syntax(s) => write!(f, "{s}"),
            ParseErrorKind::UnknownSection(s) => write!(f, "unknown section {s:?}"),
            ParseErrorKind::UnknownKey(k) => write!(f, "unknown or inapplicable key {k:?}"),
            ParseErrorKind::DuplicateKey(k) => write!(f, "key {k:?} given twice"),
            ParseErrorKind::MissingKey { section, key } => {
                write!(f, "section [{section}] is missing required key {key:?}")
            }
            ParseErrorKind::BadValue { key, reason } => {
                write!(f, "bad value for {key:?}: {reason}")
            }
            ParseErrorKind::DuplicateName(n) => write!(f, "endpoint name {n:?} declared twice"),
            ParseErrorKind::OverlappingRegions { a, b } => {
                write!(f, "memory regions {a:?} and {b:?} overlap")
            }
            ParseErrorKind::UnexpectedSweep => {
                write!(f, "sweep sections are not allowed in a plain scenario file")
            }
            ParseErrorKind::NotASweep => {
                write!(f, "file declares no [[sweep.point]] — not a sweep")
            }
        }
    }
}

/// A scenario text parse failure, pinned to a 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl ParseError {
    fn new(line: usize, column: usize, kind: ParseErrorKind) -> Self {
        ParseError { line, column, kind }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.kind
        )
    }
}

impl std::error::Error for ParseError {}

/// A parsed scenario text file: one scenario, or a whole sweep.
#[derive(Debug, Clone)]
pub enum Document {
    /// A single-scenario file.
    Scenario(ScenarioSpec),
    /// A sweep file (`[sweep]` / `[[sweep.point]]` sections present).
    Sweep(Sweep),
}

impl Document {
    /// Rebases every relative `trace_file` path in the document against
    /// `base` — the file-loading counterpart of
    /// [`ScenarioSpec::resolve_trace_paths`], covering sweep documents
    /// too.
    pub fn resolve_trace_paths(&mut self, base: &std::path::Path) {
        match self {
            Document::Scenario(spec) => spec.resolve_trace_paths(base),
            Document::Sweep(sweep) => {
                for point in sweep.points_mut() {
                    point.spec.resolve_trace_paths(base);
                }
            }
        }
    }

    /// Resolves trace paths against the directory of the `.scn` file
    /// the document was loaded from — the one resolution rule every
    /// front end (`scn` run and sweep files, serve stdin requests,
    /// spool files) shares. The base is absolutized first, so the
    /// resolved document stays valid wherever the process working
    /// directory wanders afterwards; a bare file name (empty parent)
    /// resolves against the current directory, absolutized the same
    /// way.
    pub fn resolve_trace_paths_from(&mut self, file: &std::path::Path) {
        let base = match file.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let base = std::fs::canonicalize(&base).unwrap_or(base);
        self.resolve_trace_paths(&base);
    }
}

impl ScenarioSpec {
    /// Parses a single-scenario text file.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] with line/column on any grammar
    /// violation, and [`ParseErrorKind::UnexpectedSweep`] if the file is
    /// a sweep. Semantic rules without a textual anchor (unmapped
    /// addresses, topology capacity) are still checked by
    /// [`ScenarioSpec::validate`] at build time.
    pub fn from_text(text: &str) -> Result<Self, ScenarioError> {
        match parse_document(text)? {
            Document::Scenario(spec) => Ok(spec),
            Document::Sweep(_) => {
                let line = first_sweep_line(text);
                Err(ParseError::new(line, 1, ParseErrorKind::UnexpectedSweep).into())
            }
        }
    }

    /// Emits the spec in the scenario text format; the output parses
    /// back to an identical spec.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint name contains a quote or newline — the
    /// grammar has no string escapes, so such a spec cannot round-trip.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        emit_scenario(&mut out, self);
        out
    }
}

impl std::str::FromStr for ScenarioSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioSpec::from_text(s)
    }
}

impl Sweep {
    /// Parses a sweep text file (a `[sweep]` header plus one scenario
    /// per `[[sweep.point]]`).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] with line/column on grammar
    /// violations, and [`ParseErrorKind::NotASweep`] for a file with no
    /// points.
    pub fn from_text(text: &str) -> Result<Self, ScenarioError> {
        match parse_document(text)? {
            Document::Sweep(sweep) => Ok(sweep),
            Document::Scenario(_) => Err(ParseError::new(1, 1, ParseErrorKind::NotASweep).into()),
        }
    }

    /// Emits the sweep in the scenario text format. Backend
    /// configurations are not part of the format: every point is emitted
    /// with its backend's *default* configuration (spec-level knobs such
    /// as `routing` are preserved).
    ///
    /// # Panics
    ///
    /// Panics if a point label or endpoint name contains a quote or
    /// newline — the grammar has no string escapes, so such a sweep
    /// cannot round-trip.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("[sweep]\n");
        out.push_str(&format!("max_cycles = {}\n", self.max_cycles()));
        if let Some(t) = self.threads() {
            out.push_str(&format!("threads = {t}\n"));
        }
        if self.step_mode() != StepMode::Horizon {
            out.push_str(&format!("step = \"{}\"\n", step_name(self.step_mode())));
        }
        for p in self.points() {
            out.push('\n');
            out.push_str("[[sweep.point]]\n");
            out.push_str(&format!(
                "label = {}\n",
                quoted("sweep point label", &p.label)
            ));
            out.push_str(&format!("backend = \"{}\"\n", p.backend.label()));
            if let Some(step) = p.step {
                out.push_str(&format!("step = \"{}\"\n", step_name(step)));
            }
            out.push('\n');
            emit_scenario(&mut out, &p.spec);
        }
        out
    }
}

fn first_sweep_line(text: &str) -> usize {
    for (i, line) in text.lines().enumerate() {
        let t = line.trim_start();
        if t.starts_with("[sweep]") || t.starts_with("[[sweep.point]]") {
            return i + 1;
        }
    }
    1
}

// ---------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------

/// Quotes a name or label for emission. The grammar has no string
/// escapes, so a value the parser could never read back is a programmer
/// error, reported eagerly instead of emitted as garbage.
fn quoted(kind: &str, s: &str) -> String {
    assert!(
        !s.contains('"') && !s.contains('\n') && !s.contains('\r'),
        "{kind} {s:?} cannot be serialized: the scenario text format has no string escapes \
         (remove quotes and newlines)"
    );
    format!("\"{s}\"")
}

fn step_name(step: StepMode) -> &'static str {
    match step {
        StepMode::Dense => "dense",
        StepMode::Horizon => "horizon",
    }
}

fn routing_name(r: RouteAlgorithm) -> String {
    match r {
        RouteAlgorithm::ShortestPath => "shortest".into(),
        RouteAlgorithm::UpDown => "updown".into(),
        RouteAlgorithm::XyMesh { width, height } => format!("xy:{width}x{height}"),
    }
}

fn ordering_name(o: OrderingModel) -> String {
    match o {
        OrderingModel::FullyOrdered => "ordered".into(),
        OrderingModel::Threaded { threads } => format!("threaded:{threads}"),
        OrderingModel::IdBased { tags } => format!("id:{tags}"),
    }
}

fn opcode_name(op: Opcode) -> &'static str {
    match op {
        Opcode::Read => "read",
        Opcode::Write => "write",
        Opcode::WritePosted => "write_posted",
        Opcode::ReadExclusive => "read_ex",
        Opcode::WriteExclusive => "write_ex",
        Opcode::ReadLinked => "read_linked",
        Opcode::WriteConditional => "write_cond",
        Opcode::ReadLocked => "read_locked",
        Opcode::WriteUnlock => "write_unlock",
        Opcode::Broadcast => "broadcast",
    }
}

fn emit_command(cmd: &SocketCommand) -> String {
    let mut s = format!(
        "{} {:#x} {}x{}",
        opcode_name(cmd.opcode),
        cmd.addr,
        cmd.beats,
        cmd.beat_bytes
    );
    match cmd.burst_kind {
        BurstKind::Incr => {}
        BurstKind::Wrap => s.push_str(" kind=wrap"),
        BurstKind::Fixed => s.push_str(" kind=fixed"),
        BurstKind::Stream => s.push_str(" kind=stream"),
    }
    if cmd.stream != StreamId::ZERO {
        s.push_str(&format!(" stream={}", cmd.stream.raw()));
    }
    if cmd.data_seed != 0 {
        s.push_str(&format!(" seed={:#x}", cmd.data_seed));
    }
    if cmd.delay_before != 0 {
        s.push_str(&format!(" delay={}", cmd.delay_before));
    }
    if cmd.pressure != 0 {
        s.push_str(&format!(" pressure={}", cmd.pressure));
    }
    s
}

/// Emits a program in canonical form: `cmd =` lines for explicit
/// programs; a `kind` plus every parameter (defaults included) for
/// generated kinds, so emitted files are self-describing and the
/// emit ∘ parse round-trip is the identity.
fn emit_program(out: &mut String, program: &ProgramSpec) {
    let shape = |out: &mut String, shape: &StochasticShape| {
        out.push_str(&format!("read_pct = {}\n", shape.read_pct));
        out.push_str(&format!("beats = {}\n", shape.beats));
        out.push_str(&format!("beat_bytes = {}\n", shape.beat_bytes));
        out.push_str(&format!("streams = {}\n", shape.streams));
        out.push_str(&format!("gap = {}\n", shape.gap));
        out.push_str(&format!("discipline = \"{}\"\n", shape.discipline));
    };
    match program {
        ProgramSpec::Explicit(cmds) => {
            for cmd in cmds {
                out.push_str(&format!("cmd = \"{}\"\n", emit_command(cmd)));
            }
        }
        ProgramSpec::Bursty(b) => {
            out.push_str("kind = \"bursty\"\n");
            out.push_str(&format!("seed = {:#x}\n", b.seed));
            out.push_str(&format!("commands = {}\n", b.commands));
            out.push_str(&format!("burst_len = {}\n", b.burst_len));
            out.push_str(&format!("idle_gap = {}\n", b.idle_gap));
            shape(out, &b.shape);
        }
        ProgramSpec::Zipf(z) => {
            out.push_str("kind = \"zipf\"\n");
            out.push_str(&format!("seed = {:#x}\n", z.seed));
            out.push_str(&format!("commands = {}\n", z.commands));
            out.push_str(&format!("exponent_milli = {}\n", z.exponent_milli));
            shape(out, &z.shape);
        }
        ProgramSpec::Trace(t) => {
            out.push_str("kind = \"trace\"\n");
            out.push_str(&format!("trace_file = {}\n", quoted("trace path", &t.path)));
        }
    }
}

fn emit_link_class(out: &mut String, prefix: &str, class: &LinkClassSpec) {
    if let Some(p) = class.pipeline {
        out.push_str(&format!("{prefix}_pipeline = {p}\n"));
    }
    if let Some(p) = class.phits {
        out.push_str(&format!("{prefix}_phits = {p}\n"));
    }
    if let Some(c) = class.cdc_latency {
        out.push_str(&format!("{prefix}_cdc_latency = {c}\n"));
    }
    if let Some(c) = class.capacity {
        out.push_str(&format!("{prefix}_capacity = {c}\n"));
    }
}

fn emit_scenario(out: &mut String, spec: &ScenarioSpec) {
    out.push_str("[topology]\n");
    match &spec.topology {
        TopologySpec::Crossbar => out.push_str("kind = \"crossbar\"\n"),
        TopologySpec::Ring { switches } => {
            out.push_str("kind = \"ring\"\n");
            out.push_str(&format!("switches = {switches}\n"));
        }
        TopologySpec::Mesh { width, height } => {
            out.push_str("kind = \"mesh\"\n");
            out.push_str(&format!("width = {width}\n"));
            out.push_str(&format!("height = {height}\n"));
        }
        TopologySpec::Custom {
            switches,
            links,
            placement,
        } => {
            out.push_str("kind = \"custom\"\n");
            out.push_str(&format!("switches = {switches}\n"));
            let links: Vec<String> = links.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
            out.push_str(&format!("links = [{}]\n", links.join(", ")));
            let places: Vec<String> = placement.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!("placement = [{}]\n", places.join(", ")));
        }
    }
    if let Some(r) = spec.routing {
        out.push_str(&format!("routing = \"{}\"\n", routing_name(r)));
    }
    if let Some(cfg) = &spec.config {
        out.push('\n');
        out.push_str("[config]\n");
        if let Some(depth) = cfg.buffer_depth {
            out.push_str(&format!("buffer_depth = {depth}\n"));
        }
        emit_link_class(out, "link", &cfg.link);
        emit_link_class(out, "endpoint", &cfg.endpoint);
    }
    for ini in &spec.initiators {
        out.push('\n');
        out.push_str("[[initiator]]\n");
        out.push_str(&format!("name = {}\n", quoted("initiator name", &ini.name)));
        match ini.socket {
            SocketSpec::Ahb => out.push_str("socket = \"ahb\"\n"),
            SocketSpec::Ocp {
                threads,
                per_thread,
            } => {
                out.push_str("socket = \"ocp\"\n");
                out.push_str(&format!("threads = {threads}\n"));
                out.push_str(&format!("per_thread = {per_thread}\n"));
            }
            SocketSpec::Axi {
                tags,
                per_id,
                total,
            } => {
                out.push_str("socket = \"axi\"\n");
                out.push_str(&format!("tags = {tags}\n"));
                out.push_str(&format!("per_id = {per_id}\n"));
                out.push_str(&format!("total = {total}\n"));
            }
            SocketSpec::Strm { read_limit } => {
                out.push_str("socket = \"strm\"\n");
                out.push_str(&format!("read_limit = {read_limit}\n"));
            }
            SocketSpec::Vci { flavor, pipeline } => {
                match flavor {
                    VciFlavor::Peripheral => out.push_str("socket = \"pvci\"\n"),
                    VciFlavor::Basic => out.push_str("socket = \"bvci\"\n"),
                    VciFlavor::Advanced { threads } => {
                        out.push_str("socket = \"avci\"\n");
                        out.push_str(&format!("threads = {threads}\n"));
                    }
                }
                out.push_str(&format!("pipeline = {pipeline}\n"));
            }
        }
        if let Some(o) = ini.ordering {
            out.push_str(&format!("ordering = \"{}\"\n", ordering_name(o)));
        }
        if let Some(n) = ini.outstanding {
            out.push_str(&format!("outstanding = {n}\n"));
        }
        if let Some(p) = ini.pressure {
            out.push_str(&format!("pressure = {p}\n"));
        }
        if let Some(b) = ini.flit_bytes {
            out.push_str(&format!("flit_bytes = {b}\n"));
        }
        if ini.clock_divisor != 1 {
            out.push_str(&format!("clock_divisor = {}\n", ini.clock_divisor));
        }
        emit_program(out, &ini.program);
    }
    for mem in &spec.memories {
        out.push('\n');
        // Plain memories keep the classic [[memory]] section; protocol
        // targets are emitted as [[target]] blocks with a kind. The
        // parser accepts both section names interchangeably.
        match mem.target {
            TargetSpec::Memory => out.push_str("[[memory]]\n"),
            _ => out.push_str("[[target]]\n"),
        }
        out.push_str(&format!("name = {}\n", quoted("target name", &mem.name)));
        match mem.target {
            TargetSpec::Memory => {}
            TargetSpec::AxiSlave { .. } => out.push_str("kind = \"axi\"\n"),
            TargetSpec::Service { .. } => out.push_str("kind = \"service\"\n"),
        }
        out.push_str(&format!("base = {:#x}\n", mem.base));
        out.push_str(&format!("end = {:#x}\n", mem.end));
        out.push_str(&format!("latency = {}\n", mem.latency));
        match mem.target {
            TargetSpec::Memory => {}
            TargetSpec::AxiSlave { bank_stagger } => {
                out.push_str(&format!("bank_stagger = {bank_stagger}\n"));
            }
            TargetSpec::Service {
                write_latency,
                exclusive,
            } => {
                out.push_str(&format!("write_latency = {write_latency}\n"));
                if exclusive {
                    out.push_str("exclusive = true\n");
                }
            }
        }
        out.push_str(&format!("queue = {}\n", mem.queue));
        if mem.clock_divisor != 1 {
            out.push_str(&format!("clock_divisor = {}\n", mem.clock_divisor));
        }
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(u64),
    Bool(bool),
    Str(String),
    Ints(Vec<u64>),
    Pairs(Vec<(u64, u64)>),
}

#[derive(Debug, Clone)]
struct Entry {
    key: String,
    value: Value,
    line: usize,
    key_col: usize,
    val_col: usize,
}

impl Entry {
    fn bad(&self, reason: impl Into<String>) -> ParseError {
        ParseError::new(
            self.line,
            self.val_col,
            ParseErrorKind::BadValue {
                key: self.key.clone(),
                reason: reason.into(),
            },
        )
    }

    fn str(&self) -> Result<&str, ParseError> {
        match &self.value {
            Value::Str(s) => Ok(s),
            _ => Err(self.bad("expected a quoted string")),
        }
    }

    fn u64(&self) -> Result<u64, ParseError> {
        match self.value {
            Value::Int(n) => Ok(n),
            _ => Err(self.bad("expected an integer")),
        }
    }

    fn bool(&self) -> Result<bool, ParseError> {
        match self.value {
            Value::Bool(b) => Ok(b),
            _ => Err(self.bad("expected true or false")),
        }
    }

    fn int_max(&self, max: u64) -> Result<u64, ParseError> {
        let n = self.u64()?;
        if n > max {
            return Err(self.bad(format!("must be at most {max}")));
        }
        Ok(n)
    }

    fn nonzero(&self, max: u64) -> Result<u64, ParseError> {
        let n = self.int_max(max)?;
        if n == 0 {
            return Err(self.bad("must be at least 1"));
        }
        Ok(n)
    }

    fn ints(&self) -> Result<&[u64], ParseError> {
        match &self.value {
            Value::Ints(v) => Ok(v),
            _ => Err(self.bad("expected an integer array like [0, 1, 2]")),
        }
    }

    fn pairs(&self) -> Result<&[(u64, u64)], ParseError> {
        match &self.value {
            Value::Pairs(v) => Ok(v),
            Value::Ints(v) if v.is_empty() => Ok(&[]),
            _ => Err(self.bad("expected a pair array like [[0, 1], [1, 2]]")),
        }
    }
}

/// One parsed section with consumed-key tracking, so finalizers can
/// report leftovers as unknown keys at their own line.
#[derive(Debug)]
struct Section {
    name: &'static str,
    header_line: usize,
    entries: Vec<Entry>,
    used: Vec<bool>,
}

impl Section {
    fn new(name: &'static str, header_line: usize) -> Self {
        Section {
            name,
            header_line,
            entries: Vec::new(),
            used: Vec::new(),
        }
    }

    fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
        self.used.push(false);
    }

    /// Takes a single-valued key; errors if it appears twice.
    fn take(&mut self, key: &str) -> Result<Option<Entry>, ParseError> {
        let mut found: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.key == key {
                if let Some(first) = found {
                    let _ = first;
                    return Err(ParseError::new(
                        e.line,
                        e.key_col,
                        ParseErrorKind::DuplicateKey(key.to_owned()),
                    ));
                }
                found = Some(i);
            }
        }
        Ok(found.map(|i| {
            self.used[i] = true;
            self.entries[i].clone()
        }))
    }

    fn take_req(&mut self, key: &str) -> Result<Entry, ParseError> {
        self.take(key)?.ok_or_else(|| {
            ParseError::new(
                self.header_line,
                1,
                ParseErrorKind::MissingKey {
                    section: self.name.to_owned(),
                    key: key.to_owned(),
                },
            )
        })
    }

    /// Takes every occurrence of a repeatable key, in order.
    fn take_all(&mut self, key: &str) -> Vec<Entry> {
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if e.key == key {
                self.used[i] = true;
                out.push(e.clone());
            }
        }
        out
    }

    /// Rejects any key no finalizer consumed.
    fn finish(&self) -> Result<(), ParseError> {
        for (i, e) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(ParseError::new(
                    e.line,
                    e.key_col,
                    ParseErrorKind::UnknownKey(e.key.clone()),
                ));
            }
        }
        Ok(())
    }
}

/// The scenario sections of one document (a file, or one sweep point).
#[derive(Debug, Default)]
struct DocBuf {
    topology: Option<Section>,
    config: Option<Section>,
    initiators: Vec<Section>,
    memories: Vec<Section>,
}

impl DocBuf {
    fn is_empty(&self) -> bool {
        self.topology.is_none()
            && self.config.is_none()
            && self.initiators.is_empty()
            && self.memories.is_empty()
    }
}

#[derive(Debug)]
struct PointBuf {
    header: Section,
    doc: DocBuf,
}

/// Where key/value lines currently land.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cursor {
    None,
    Topology,
    Config,
    Initiator,
    Memory,
    Sweep,
    Point,
}

fn syntax(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
    ParseError::new(line, col, ParseErrorKind::Syntax(msg.into()))
}

/// Parses a whole scenario text file into a [`Document`].
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first grammar violation.
pub fn parse_document(text: &str) -> Result<Document, ParseError> {
    let mut base = DocBuf::default();
    let mut sweep_header: Option<Section> = None;
    let mut points: Vec<PointBuf> = Vec::new();
    let mut cursor = Cursor::None;

    for (i, raw) in text.lines().enumerate() {
        let no = i + 1;
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let col = line.len() - line.trim_start().len() + 1;
        if trimmed.starts_with('[') {
            let (name, double) = parse_header(trimmed, no, col)?;
            let doc = points.last_mut().map(|p| &mut p.doc).unwrap_or(&mut base);
            cursor = match (name.as_str(), double) {
                ("topology", false) => {
                    if doc.topology.is_some() {
                        return Err(syntax(no, col, "second [topology] section in one scenario"));
                    }
                    doc.topology = Some(Section::new("topology", no));
                    Cursor::Topology
                }
                ("config", false) => {
                    if doc.config.is_some() {
                        return Err(syntax(no, col, "second [config] section in one scenario"));
                    }
                    doc.config = Some(Section::new("config", no));
                    Cursor::Config
                }
                ("initiator", true) => {
                    doc.initiators.push(Section::new("initiator", no));
                    Cursor::Initiator
                }
                ("memory", true) => {
                    doc.memories.push(Section::new("memory", no));
                    Cursor::Memory
                }
                ("target", true) => {
                    // [[target]] is [[memory]] with a protocol kind; both
                    // names land in the same declaration list.
                    doc.memories.push(Section::new("target", no));
                    Cursor::Memory
                }
                ("sweep", false) => {
                    if sweep_header.is_some() {
                        return Err(syntax(no, col, "second [sweep] section"));
                    }
                    if !points.is_empty() {
                        return Err(syntax(
                            no,
                            col,
                            "[sweep] must precede every [[sweep.point]]",
                        ));
                    }
                    sweep_header = Some(Section::new("sweep", no));
                    Cursor::Sweep
                }
                ("sweep.point", true) => {
                    if points.is_empty() && !base.is_empty() {
                        return Err(syntax(
                            no,
                            col,
                            "scenario sections must follow a [[sweep.point]] in a sweep file",
                        ));
                    }
                    points.push(PointBuf {
                        header: Section::new("sweep.point", no),
                        doc: DocBuf::default(),
                    });
                    Cursor::Point
                }
                ("topology" | "config" | "sweep", true) => {
                    return Err(syntax(no, col, format!("[{name}] takes single brackets")));
                }
                ("initiator" | "memory" | "target" | "sweep.point", false) => {
                    return Err(syntax(
                        no,
                        col,
                        format!("[[{name}]] takes double brackets (it repeats)"),
                    ));
                }
                _ => {
                    return Err(ParseError::new(
                        no,
                        col,
                        ParseErrorKind::UnknownSection(name),
                    ));
                }
            };
            continue;
        }
        let entry = parse_kv(line, no)?;
        let doc = points.last_mut().map(|p| &mut p.doc).unwrap_or(&mut base);
        match cursor {
            Cursor::None => {
                return Err(syntax(no, entry.key_col, "key outside any section"));
            }
            Cursor::Topology => doc
                .topology
                .as_mut()
                .expect("cursor points at a live section")
                .push(entry),
            Cursor::Config => doc
                .config
                .as_mut()
                .expect("cursor points at a live section")
                .push(entry),
            Cursor::Initiator => doc
                .initiators
                .last_mut()
                .expect("cursor points at a live section")
                .push(entry),
            Cursor::Memory => doc
                .memories
                .last_mut()
                .expect("cursor points at a live section")
                .push(entry),
            Cursor::Sweep => sweep_header
                .as_mut()
                .expect("cursor points at a live section")
                .push(entry),
            Cursor::Point => points
                .last_mut()
                .expect("cursor points at a live section")
                .header
                .push(entry),
        }
    }

    if sweep_header.is_none() && points.is_empty() {
        return Ok(Document::Scenario(finalize_doc(base)?));
    }
    if points.is_empty() {
        let header = sweep_header.expect("checked above");
        return Err(syntax(
            header.header_line,
            1,
            "a sweep file needs at least one [[sweep.point]]",
        ));
    }
    let mut sweep = Sweep::new();
    if let Some(mut header) = sweep_header {
        if let Some(e) = header.take("max_cycles")? {
            sweep = sweep.with_max_cycles(e.u64()?);
        }
        if let Some(e) = header.take("threads")? {
            sweep = sweep.with_threads(e.nonzero(1 << 16)? as usize);
        }
        if let Some(e) = header.take("step")? {
            sweep = sweep.with_step_mode(parse_step(&e)?);
        }
        header.finish()?;
    }
    for mut point in points {
        let label = point.header.take_req("label")?.str()?.to_owned();
        let backend_entry = point.header.take_req("backend")?;
        let backend = parse_backend(&backend_entry)?;
        let step = match point.header.take("step")? {
            Some(e) => Some(parse_step(&e)?),
            None => None,
        };
        point.header.finish()?;
        let spec = finalize_doc(point.doc)?;
        let mut sp = SweepPoint::new(&label, spec, backend);
        sp.step = step;
        sweep = sweep.with_point(sp);
    }
    Ok(Document::Sweep(sweep))
}

fn parse_header(trimmed: &str, line: usize, col: usize) -> Result<(String, bool), ParseError> {
    let (inner, double) = if let Some(rest) = trimmed.strip_prefix("[[") {
        let Some(inner) = rest.strip_suffix("]]") else {
            return Err(syntax(line, col, "section header must end with ]]"));
        };
        (inner, true)
    } else {
        let rest = trimmed.strip_prefix('[').expect("caller checked '['");
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(syntax(line, col, "section header must end with ]"));
        };
        if inner.ends_with(']') {
            return Err(syntax(line, col, "unbalanced section brackets"));
        }
        (inner, false)
    };
    let name = inner.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_')
    {
        return Err(syntax(
            line,
            col,
            format!("malformed section name {name:?}"),
        ));
    }
    Ok((name.to_owned(), double))
}

fn parse_kv(line: &str, no: usize) -> Result<Entry, ParseError> {
    let Some(eq) = line.find('=') else {
        let col = line.len() - line.trim_start().len() + 1;
        return Err(syntax(no, col, "expected `key = value`"));
    };
    let key_part = &line[..eq];
    let key = key_part.trim();
    let key_col = key_part.len() - key_part.trim_start().len() + 1;
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
        return Err(syntax(no, key_col, format!("malformed key {key:?}")));
    }
    let val_part = &line[eq + 1..];
    let val_trim = val_part.trim();
    let val_col = eq + 1 + (val_part.len() - val_part.trim_start().len()) + 1;
    if val_trim.is_empty() {
        return Err(syntax(no, val_col, "missing value"));
    }
    let value = parse_value(val_trim, no, val_col)?;
    Ok(Entry {
        key: key.to_owned(),
        value,
        line: no,
        key_col,
        val_col,
    })
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str, line: usize, col: usize) -> Result<Value, ParseError> {
    if let Some(rest) = s.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(syntax(line, col, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(syntax(line, col, "strings cannot contain quotes"));
        }
        return Ok(Value::Str(inner.to_owned()));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return Err(syntax(line, col, "unterminated array"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::Ints(Vec::new()));
        }
        if inner.starts_with('[') {
            let mut pairs = Vec::new();
            for chunk in split_top_level(inner) {
                let chunk = chunk.trim();
                let ok = chunk.strip_prefix('[').and_then(|c| c.strip_suffix(']'));
                let Some(body) = ok else {
                    return Err(syntax(line, col, format!("malformed pair {chunk:?}")));
                };
                let parts: Vec<&str> = body.split(',').map(str::trim).collect();
                if parts.len() != 2 {
                    return Err(syntax(line, col, format!("pair {chunk:?} needs two items")));
                }
                let a = parse_int(parts[0], line, col)?;
                let b = parse_int(parts[1], line, col)?;
                pairs.push((a, b));
            }
            return Ok(Value::Pairs(pairs));
        }
        let mut ints = Vec::new();
        for item in inner.split(',') {
            ints.push(parse_int(item.trim(), line, col)?);
        }
        return Ok(Value::Ints(ints));
    }
    match s {
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        _ => Ok(Value::Int(parse_int(s, line, col)?)),
    }
}

/// Splits `[a, b], [c, d]` on commas outside brackets.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_int(s: &str, line: usize, col: usize) -> Result<u64, ParseError> {
    let clean: String = s.chars().filter(|c| *c != '_').collect();
    let parsed = match clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => clean.parse::<u64>(),
    };
    parsed.map_err(|_| syntax(line, col, format!("malformed integer {s:?}")))
}

fn parse_step(e: &Entry) -> Result<StepMode, ParseError> {
    match e.str()? {
        "dense" => Ok(StepMode::Dense),
        "horizon" => Ok(StepMode::Horizon),
        other => Err(e.bad(format!("unknown step mode {other:?} (dense|horizon)"))),
    }
}

fn parse_backend(e: &Entry) -> Result<Backend, ParseError> {
    match e.str()? {
        "noc" => Ok(Backend::noc()),
        "bridged" => Ok(Backend::bridged()),
        "bus" => Ok(Backend::bus()),
        other => Err(e.bad(format!("unknown backend {other:?} (noc|bridged|bus)"))),
    }
}

fn parse_routing(e: &Entry) -> Result<RouteAlgorithm, ParseError> {
    let s = e.str()?;
    if s == "shortest" {
        return Ok(RouteAlgorithm::ShortestPath);
    }
    if s == "updown" {
        return Ok(RouteAlgorithm::UpDown);
    }
    if let Some(dims) = s.strip_prefix("xy:") {
        if let Some((w, h)) = dims.split_once('x') {
            let parse = |t: &str| t.trim().parse::<usize>().ok().filter(|n| *n > 0);
            if let (Some(width), Some(height)) = (parse(w), parse(h)) {
                return Ok(RouteAlgorithm::XyMesh { width, height });
            }
        }
        return Err(e.bad(format!("malformed xy routing {s:?} (use \"xy:WxH\")")));
    }
    Err(e.bad(format!("unknown routing {s:?} (shortest|updown|xy:WxH)")))
}

fn parse_ordering(e: &Entry) -> Result<OrderingModel, ParseError> {
    let s = e.str()?;
    if s == "ordered" {
        return Ok(OrderingModel::FullyOrdered);
    }
    let arg = |rest: &str| -> Option<u8> { rest.parse::<u8>().ok().filter(|n| *n > 0) };
    if let Some(rest) = s.strip_prefix("threaded:") {
        if let Some(threads) = arg(rest) {
            return Ok(OrderingModel::Threaded { threads });
        }
    } else if let Some(rest) = s.strip_prefix("id:") {
        if let Some(tags) = arg(rest) {
            return Ok(OrderingModel::IdBased { tags });
        }
    }
    Err(e.bad(format!("unknown ordering {s:?} (ordered|threaded:N|id:N)")))
}

fn parse_socket(sec: &mut Section, e: &Entry) -> Result<SocketSpec, ParseError> {
    let opt_u8 = |sec: &mut Section, key: &str, default: u8| -> Result<u8, ParseError> {
        match sec.take(key)? {
            Some(e) => Ok(e.nonzero(u8::MAX as u64)? as u8),
            None => Ok(default),
        }
    };
    let opt_u32 = |sec: &mut Section, key: &str, default: u32| -> Result<u32, ParseError> {
        match sec.take(key)? {
            Some(e) => Ok(e.nonzero(u32::MAX as u64)? as u32),
            None => Ok(default),
        }
    };
    match e.str()? {
        "ahb" => Ok(SocketSpec::Ahb),
        "ocp" => Ok(SocketSpec::Ocp {
            threads: opt_u8(sec, "threads", 2)?,
            per_thread: opt_u32(sec, "per_thread", 4)?,
        }),
        "axi" => Ok(SocketSpec::Axi {
            tags: opt_u8(sec, "tags", 4)?,
            per_id: opt_u32(sec, "per_id", 4)?,
            total: opt_u32(sec, "total", 16)?,
        }),
        "strm" => Ok(SocketSpec::Strm {
            read_limit: opt_u32(sec, "read_limit", 4)?,
        }),
        "pvci" => Ok(SocketSpec::Vci {
            flavor: VciFlavor::Peripheral,
            pipeline: opt_u32(sec, "pipeline", 1)?,
        }),
        "bvci" => Ok(SocketSpec::Vci {
            flavor: VciFlavor::Basic,
            pipeline: opt_u32(sec, "pipeline", 2)?,
        }),
        "avci" => Ok(SocketSpec::Vci {
            flavor: VciFlavor::Advanced {
                threads: opt_u8(sec, "threads", 2)?,
            },
            pipeline: opt_u32(sec, "pipeline", 2)?,
        }),
        other => Err(e.bad(format!(
            "unknown socket {other:?} (ahb|ocp|axi|strm|pvci|bvci|avci)"
        ))),
    }
}

fn token_spans(s: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        out.push((start, &s[start..i]));
    }
    out
}

fn parse_command(e: &Entry) -> Result<SocketCommand, ParseError> {
    let text = e.str()?.to_owned();
    // Columns point inside the quoted command string: value column + the
    // opening quote + the token's offset.
    let at = |off: usize| e.val_col + 1 + off;
    let err = |off: usize, reason: String| {
        ParseError::new(
            e.line,
            at(off),
            ParseErrorKind::BadValue {
                key: "cmd".into(),
                reason,
            },
        )
    };
    let toks = token_spans(&text);
    if toks.len() < 3 {
        return Err(err(
            0,
            "a command is \"OP ADDR BEATSxBYTES [field=…]\"".into(),
        ));
    }
    let opcode = match toks[0].1 {
        "read" => Opcode::Read,
        "write" => Opcode::Write,
        "write_posted" => Opcode::WritePosted,
        "read_ex" => Opcode::ReadExclusive,
        "write_ex" => Opcode::WriteExclusive,
        "read_linked" => Opcode::ReadLinked,
        "write_cond" => Opcode::WriteConditional,
        "read_locked" => Opcode::ReadLocked,
        "write_unlock" => Opcode::WriteUnlock,
        "broadcast" => Opcode::Broadcast,
        other => return Err(err(toks[0].0, format!("unknown command op {other:?}"))),
    };
    let addr = parse_int(toks[1].1, e.line, at(toks[1].0))?;
    let Some((beats_s, bytes_s)) = toks[2].1.split_once('x') else {
        return Err(err(
            toks[2].0,
            format!("burst {:?} must be BEATSxBYTES", toks[2].1),
        ));
    };
    let beats = parse_int(beats_s, e.line, at(toks[2].0))?;
    let beat_bytes = parse_int(bytes_s, e.line, at(toks[2].0))?;
    if beats == 0 || beat_bytes == 0 {
        return Err(err(
            toks[2].0,
            "burst beats and bytes must be at least 1".into(),
        ));
    }
    if beats > u32::MAX as u64 || beat_bytes > u32::MAX as u64 {
        return Err(err(
            toks[2].0,
            "burst beats and bytes must fit in 32 bits".into(),
        ));
    }
    let (beats, beat_bytes) = (beats as u32, beat_bytes as u32);
    let mut cmd = SocketCommand {
        opcode,
        addr,
        beats,
        beat_bytes,
        burst_kind: BurstKind::Incr,
        stream: StreamId::ZERO,
        data_seed: 0,
        delay_before: 0,
        pressure: 0,
    };
    for (off, tok) in &toks[3..] {
        let Some((key, val)) = tok.split_once('=') else {
            return Err(err(*off, format!("expected field=value, got {tok:?}")));
        };
        match key {
            "kind" => {
                cmd.burst_kind = match val {
                    "incr" => BurstKind::Incr,
                    "wrap" => BurstKind::Wrap,
                    "fixed" => BurstKind::Fixed,
                    "stream" => BurstKind::Stream,
                    other => {
                        return Err(err(
                            *off,
                            format!("unknown burst kind {other:?} (incr|wrap|fixed|stream)"),
                        ))
                    }
                }
            }
            "stream" => {
                let n = parse_int(val, e.line, at(*off))?;
                if n > u16::MAX as u64 {
                    return Err(err(*off, "stream id must fit in 16 bits".into()));
                }
                cmd.stream = StreamId::new(n as u16);
            }
            "seed" => cmd.data_seed = parse_int(val, e.line, at(*off))?,
            "delay" => {
                let n = parse_int(val, e.line, at(*off))?;
                if n > u32::MAX as u64 {
                    return Err(err(*off, "delay must fit in 32 bits".into()));
                }
                cmd.delay_before = n as u32;
            }
            "pressure" => {
                let n = parse_int(val, e.line, at(*off))?;
                if n > u8::MAX as u64 {
                    return Err(err(*off, "pressure must fit in 8 bits".into()));
                }
                cmd.pressure = n as u8;
            }
            other => return Err(err(*off, format!("unknown command field {other:?}"))),
        }
    }
    Ok(cmd)
}

const MAX_SWITCHES: u64 = TopologySpec::MAX_SWITCHES as u64;

fn finalize_topology(
    section: Option<Section>,
) -> Result<(TopologySpec, Option<RouteAlgorithm>), ParseError> {
    let Some(mut sec) = section else {
        return Ok((TopologySpec::Crossbar, None));
    };
    let kind_entry = sec.take_req("kind")?;
    let topology = match kind_entry.str()? {
        "crossbar" => TopologySpec::Crossbar,
        "ring" => TopologySpec::Ring {
            switches: sec.take_req("switches")?.nonzero(MAX_SWITCHES)? as usize,
        },
        "mesh" => {
            let width = sec.take_req("width")?.nonzero(1 << 16)?;
            let height_entry = sec.take_req("height")?;
            let height = height_entry.nonzero(1 << 16)?;
            if width * height > MAX_SWITCHES {
                return Err(height_entry.bad(format!(
                    "a {width}x{height} mesh exceeds the limit of {MAX_SWITCHES} switches"
                )));
            }
            TopologySpec::Mesh {
                width: width as usize,
                height: height as usize,
            }
        }
        "custom" => {
            let switches = sec.take_req("switches")?.nonzero(MAX_SWITCHES)? as usize;
            let links_entry = sec.take_req("links")?;
            let links = links_entry
                .pairs()?
                .iter()
                .map(|&(a, b)| (a as usize, b as usize))
                .collect();
            let placement_entry = sec.take_req("placement")?;
            let placement = placement_entry
                .ints()?
                .iter()
                .map(|&p| p as usize)
                .collect();
            TopologySpec::Custom {
                switches,
                links,
                placement,
            }
        }
        other => {
            return Err(kind_entry.bad(format!(
                "unknown topology kind {other:?} (crossbar|ring|mesh|custom)"
            )))
        }
    };
    let routing = match sec.take("routing")? {
        Some(e) => Some(parse_routing(&e)?),
        None => None,
    };
    sec.finish()?;
    Ok((topology, routing))
}

fn finalize_link_class(sec: &mut Section, prefix: &str) -> Result<LinkClassSpec, ParseError> {
    let key = |suffix: &str| format!("{prefix}_{suffix}");
    let mut class = LinkClassSpec::default();
    if let Some(e) = sec.take(&key("pipeline"))? {
        class.pipeline = Some(e.int_max(u32::MAX as u64)? as u32);
    }
    if let Some(e) = sec.take(&key("phits"))? {
        class.phits = Some(e.nonzero(u32::MAX as u64)? as u32);
    }
    if let Some(e) = sec.take(&key("cdc_latency"))? {
        class.cdc_latency = Some(e.int_max(u32::MAX as u64)? as u32);
    }
    if let Some(e) = sec.take(&key("capacity"))? {
        class.capacity = Some(e.nonzero(1 << 20)? as usize);
    }
    Ok(class)
}

fn finalize_config(section: Option<Section>) -> Result<Option<NocConfigSpec>, ParseError> {
    let Some(mut sec) = section else {
        return Ok(None);
    };
    let mut cfg = NocConfigSpec::default();
    if let Some(e) = sec.take("buffer_depth")? {
        cfg.buffer_depth = Some(e.nonzero(1 << 20)? as usize);
    }
    cfg.link = finalize_link_class(&mut sec, "link")?;
    cfg.endpoint = finalize_link_class(&mut sec, "endpoint")?;
    sec.finish()?;
    Ok(Some(cfg))
}

/// Finalized endpoint plus the line its name was declared on, for
/// document-level duplicate/overlap diagnostics.
struct Named<T> {
    value: T,
    name_line: usize,
}

fn parse_shape(sec: &mut Section) -> Result<StochasticShape, ParseError> {
    let mut shape = StochasticShape::default();
    if let Some(e) = sec.take("read_pct")? {
        shape.read_pct = e.int_max(100)? as u8;
    }
    if let Some(e) = sec.take("beats")? {
        shape.beats = e.nonzero(u32::MAX as u64)? as u32;
    }
    if let Some(e) = sec.take("beat_bytes")? {
        shape.beat_bytes = e.nonzero(u32::MAX as u64)? as u32;
    }
    if let Some(e) = sec.take("streams")? {
        shape.streams = e.nonzero(u16::MAX as u64)? as u16;
    }
    if let Some(e) = sec.take("gap")? {
        shape.gap = e.int_max(u32::MAX as u64)? as u32;
    }
    if let Some(e) = sec.take("discipline")? {
        shape.discipline = match e.str()? {
            "open" => Discipline::Open,
            "closed" => Discipline::Closed,
            other => {
                return Err(e.bad(format!("unknown discipline {other:?} (open|closed)")));
            }
        };
    }
    Ok(shape)
}

/// Parses an initiator's program: `cmd =` lines (explicit) or a
/// `kind =` declaration (generated). The two are mutually exclusive.
fn parse_program(sec: &mut Section) -> Result<ProgramSpec, ParseError> {
    let kind = sec.take("kind")?;
    let cmds = sec.take_all("cmd");
    let Some(kind_entry) = kind else {
        let mut program = Vec::new();
        for cmd_entry in cmds {
            program.push(parse_command(&cmd_entry)?);
        }
        return Ok(ProgramSpec::Explicit(program));
    };
    if let Some(first) = cmds.first() {
        return Err(syntax(
            first.line,
            first.key_col,
            "cmd lines conflict with a generated program kind",
        ));
    }
    match kind_entry.str()? {
        "bursty" => {
            let seed = sec.take_req("seed")?.u64()?;
            let commands = sec.take_req("commands")?.u64()? as usize;
            let burst_len = sec.take_req("burst_len")?.nonzero(u32::MAX as u64)? as u32;
            let idle_gap = sec.take_req("idle_gap")?.int_max(u32::MAX as u64)? as u32;
            let shape = parse_shape(sec)?;
            Ok(ProgramSpec::Bursty(BurstySpec {
                seed,
                commands,
                burst_len,
                idle_gap,
                shape,
            }))
        }
        "zipf" => {
            let seed = sec.take_req("seed")?.u64()?;
            let commands = sec.take_req("commands")?.u64()? as usize;
            let exponent_entry = sec.take_req("exponent_milli")?;
            let exponent_milli =
                exponent_entry.int_max(ZipfSpec::MAX_EXPONENT_MILLI as u64)? as u32;
            let shape = parse_shape(sec)?;
            Ok(ProgramSpec::Zipf(ZipfSpec {
                seed,
                commands,
                exponent_milli,
                shape,
            }))
        }
        "trace" => {
            let path = sec.take_req("trace_file")?.str()?.to_owned();
            Ok(ProgramSpec::Trace(TraceSpec { path }))
        }
        other => Err(kind_entry.bad(format!(
            "unknown program kind {other:?} (bursty|zipf|trace)"
        ))),
    }
}

fn finalize_initiator(mut sec: Section) -> Result<Named<InitiatorSpec>, ParseError> {
    let name_entry = sec.take_req("name")?;
    let name = name_entry.str()?.to_owned();
    let socket_entry = sec.take_req("socket")?;
    let socket = parse_socket(&mut sec, &socket_entry)?;
    let program = parse_program(&mut sec)?;
    let mut ini = InitiatorSpec::new(&name, socket, program);
    if let Some(e) = sec.take("ordering")? {
        ini.ordering = Some(parse_ordering(&e)?);
    }
    if let Some(e) = sec.take("outstanding")? {
        ini.outstanding = Some(e.nonzero(InitiatorSpec::MAX_OUTSTANDING as u64)? as u32);
    }
    if let Some(e) = sec.take("pressure")? {
        ini.pressure = Some(e.int_max(u8::MAX as u64)? as u8);
    }
    if let Some(e) = sec.take("flit_bytes")? {
        ini.flit_bytes = Some(e.nonzero(1 << 16)? as usize);
    }
    if let Some(e) = sec.take("clock_divisor")? {
        ini.clock_divisor = e.nonzero(u64::MAX)?;
    }
    sec.finish()?;
    Ok(Named {
        value: ini,
        name_line: name_entry.line,
    })
}

fn finalize_memory(mut sec: Section) -> Result<Named<MemorySpec>, ParseError> {
    let name_entry = sec.take_req("name")?;
    let name = name_entry.str()?.to_owned();
    let base = sec.take_req("base")?.u64()?;
    let end_entry = sec.take_req("end")?;
    let end = end_entry.u64()?;
    if base >= end {
        return Err(end_entry.bad(format!("empty region: end {end:#x} <= base {base:#x}")));
    }
    let latency = sec.take_req("latency")?.int_max(u32::MAX as u64)? as u32;
    let target = match sec.take("kind")? {
        None => TargetSpec::Memory,
        Some(kind_entry) => match kind_entry.str()? {
            "memory" => TargetSpec::Memory,
            "axi" => TargetSpec::AxiSlave {
                bank_stagger: match sec.take("bank_stagger")? {
                    Some(e) => e.int_max(u32::MAX as u64)? as u32,
                    None => 0,
                },
            },
            "service" => TargetSpec::Service {
                write_latency: match sec.take("write_latency")? {
                    Some(e) => e.int_max(u32::MAX as u64)? as u32,
                    None => latency,
                },
                exclusive: match sec.take("exclusive")? {
                    Some(e) => e.bool()?,
                    None => false,
                },
            },
            other => {
                return Err(kind_entry.bad(format!(
                    "unknown target kind {other:?} (memory|axi|service)"
                )))
            }
        },
    };
    let mut mem = MemorySpec::new(&name, base, end, latency).with_target(target);
    if let Some(e) = sec.take("queue")? {
        mem.queue = e.nonzero(1 << 20)? as usize;
    }
    if let Some(e) = sec.take("clock_divisor")? {
        mem.clock_divisor = e.nonzero(u64::MAX)?;
    }
    sec.finish()?;
    Ok(Named {
        value: mem,
        name_line: name_entry.line,
    })
}

fn finalize_doc(doc: DocBuf) -> Result<ScenarioSpec, ParseError> {
    let (topology, routing) = finalize_topology(doc.topology)?;
    let mut spec = ScenarioSpec::new().with_topology(topology);
    spec.routing = routing;
    spec.config = finalize_config(doc.config)?;
    let mut names: Vec<(String, usize)> = Vec::new();
    let check_name = |name: &str, line: usize, names: &mut Vec<(String, usize)>| {
        if names.iter().any(|(n, _)| n == name) {
            return Err(ParseError::new(
                line,
                1,
                ParseErrorKind::DuplicateName(name.to_owned()),
            ));
        }
        names.push((name.to_owned(), line));
        Ok(())
    };
    for sec in doc.initiators {
        let named = finalize_initiator(sec)?;
        check_name(&named.value.name, named.name_line, &mut names)?;
        spec = spec.initiator(named.value);
    }
    let mut memories: Vec<Named<MemorySpec>> = Vec::new();
    for sec in doc.memories {
        let named = finalize_memory(sec)?;
        check_name(&named.value.name, named.name_line, &mut names)?;
        memories.push(named);
    }
    for (i, b) in memories.iter().enumerate() {
        for a in &memories[..i] {
            if a.value.base < b.value.end && b.value.base < a.value.end {
                return Err(ParseError::new(
                    b.name_line,
                    1,
                    ParseErrorKind::OverlappingRegions {
                        a: a.value.name.clone(),
                        b: b.value.name.clone(),
                    },
                ));
            }
        }
    }
    for named in memories {
        spec = spec.memory(named.value);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_master_spec() -> ScenarioSpec {
        ScenarioSpec::new()
            .initiator(
                InitiatorSpec::new(
                    "cpu",
                    SocketSpec::Ahb,
                    vec![
                        SocketCommand::write(0x100, 4, 0xBEEF),
                        SocketCommand::read(0x100, 4).with_delay(3),
                    ],
                )
                .with_flit_bytes(8),
            )
            .initiator(
                InitiatorSpec::new(
                    "dma",
                    SocketSpec::axi(),
                    vec![SocketCommand::read(0x1000, 8)
                        .with_burst(BurstKind::Wrap, 4)
                        .with_stream(StreamId::new(2))
                        .with_pressure(1)],
                )
                .with_outstanding(8)
                .with_ordering(OrderingModel::IdBased { tags: 4 })
                .with_clock_divisor(2),
            )
            .memory(MemorySpec::new("lo", 0x0, 0x1000, 2))
            .memory(MemorySpec::new("hi", 0x1000, 0x2000, 5).with_queue(4))
            .with_topology(TopologySpec::Ring { switches: 3 })
    }

    #[test]
    fn config_section_round_trips() {
        let mut cfg = NocConfigSpec::new()
            .with_link_pipeline(9)
            .with_link_capacity(32)
            .with_buffer_depth(4);
        cfg.link.phits = Some(2);
        cfg.endpoint.pipeline = Some(1);
        cfg.endpoint.cdc_latency = Some(4);
        let spec = ScenarioSpec::new()
            .initiator(InitiatorSpec::new("m", SocketSpec::Ahb, Vec::new()))
            .memory(MemorySpec::new("mem", 0, 0x100, 1))
            .with_config(cfg);
        let text = spec.to_text();
        assert!(text.contains("[config]"), "{text}");
        assert!(text.contains("link_pipeline = 9"), "{text}");
        assert!(text.contains("endpoint_cdc_latency = 4"), "{text}");
        let back = ScenarioSpec::from_text(&text).expect("emitted text parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_text(), text);
        // An empty [config] section is a valid (if pointless) fixpoint.
        let bare = spec.clone().with_config(NocConfigSpec::default());
        let back = ScenarioSpec::from_text(&bare.to_text()).expect("parses");
        assert_eq!(back.config, Some(NocConfigSpec::default()));
    }

    #[test]
    fn config_rejects_unknown_and_zero_width_knobs() {
        let prefix = "[config]\n";
        let err = ScenarioSpec::from_text(&format!("{prefix}link_width = 2\n")).unwrap_err();
        let ScenarioError::Parse(e) = err else {
            panic!("expected parse error");
        };
        assert_eq!(e.kind, ParseErrorKind::UnknownKey("link_width".into()));
        assert_eq!(e.line, 2);
        let err = ScenarioSpec::from_text(&format!("{prefix}link_phits = 0\n")).unwrap_err();
        let ScenarioError::Parse(e) = err else {
            panic!("expected parse error");
        };
        assert!(matches!(e.kind, ParseErrorKind::BadValue { ref key, .. } if key == "link_phits"));
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = two_master_spec();
        let text = spec.to_text();
        let back = ScenarioSpec::from_text(&text).expect("emitted text parses");
        assert_eq!(back, spec);
        // and the emit is a fixpoint
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn oversized_burst_fields_are_rejected_not_truncated() {
        // 2^32 + 1 would silently wrap to 1 under a bare `as u32`.
        let text =
            "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ncmd = \"read 0x0 4294967297x4\"\n";
        let err = ScenarioSpec::from_text(text).unwrap_err();
        let ScenarioError::Parse(e) = err else {
            panic!("expected parse error");
        };
        assert_eq!(e.line, 4);
        assert!(
            matches!(e.kind, ParseErrorKind::BadValue { ref reason, .. }
                if reason.contains("32 bits")),
            "{:?}",
            e.kind
        );
    }

    #[test]
    #[should_panic(expected = "no string escapes")]
    fn emitting_a_quoted_name_panics_instead_of_corrupting_output() {
        let spec = ScenarioSpec::new()
            .initiator(InitiatorSpec::new("a\"b", SocketSpec::Ahb, Vec::new()))
            .memory(MemorySpec::new("mem", 0, 0x100, 1));
        let _ = spec.to_text();
    }

    #[test]
    fn every_topology_round_trips() {
        let topologies = [
            TopologySpec::Crossbar,
            TopologySpec::Ring { switches: 5 },
            TopologySpec::Mesh {
                width: 3,
                height: 2,
            },
            TopologySpec::Custom {
                switches: 2,
                links: vec![(0, 1)],
                placement: vec![0, 1],
            },
        ];
        for topo in topologies {
            let mut spec = ScenarioSpec::new()
                .initiator(InitiatorSpec::new("m", SocketSpec::Ahb, Vec::new()))
                .memory(MemorySpec::new("mem", 0, 0x100, 1))
                .with_topology(topo.clone());
            spec.routing = Some(RouteAlgorithm::XyMesh {
                width: 3,
                height: 2,
            });
            let back = ScenarioSpec::from_text(&spec.to_text()).expect("parses");
            assert_eq!(back, spec, "{topo:?}");
        }
    }

    #[test]
    fn every_socket_and_opcode_round_trips() {
        let sockets = [
            SocketSpec::Ahb,
            SocketSpec::ocp(),
            SocketSpec::axi(),
            SocketSpec::strm(),
            SocketSpec::pvci(),
            SocketSpec::bvci(),
            SocketSpec::avci(),
        ];
        let ops = [
            Opcode::Read,
            Opcode::Write,
            Opcode::WritePosted,
            Opcode::ReadExclusive,
            Opcode::WriteExclusive,
            Opcode::ReadLinked,
            Opcode::WriteConditional,
            Opcode::ReadLocked,
            Opcode::WriteUnlock,
            Opcode::Broadcast,
        ];
        let mut spec = ScenarioSpec::new();
        for (i, socket) in sockets.into_iter().enumerate() {
            let program: Vec<_> = ops
                .iter()
                .map(|op| SocketCommand::read(0x40 * (i as u64 + 1), 4).with_opcode(*op))
                .collect();
            spec = spec.initiator(InitiatorSpec::new(&format!("m{i}"), socket, program));
        }
        spec = spec.memory(MemorySpec::new("mem", 0, 0x10000, 1));
        let back = ScenarioSpec::from_text(&spec.to_text()).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn comments_blanks_and_hex_are_tolerated() {
        let text = "\n# heading\n[[initiator]]\nname = \"m\"   # trailing\nsocket = \"ahb\"\ncmd = \"read 0x1_00 1x4\"\n\n[[memory]]\nname = \"mem\"\nbase = 0\nend = 0x1_000\nlatency = 1\n";
        let spec = ScenarioSpec::from_text(text).expect("parses");
        assert_eq!(
            spec.initiators[0].program.explicit().unwrap()[0].addr,
            0x100
        );
        assert_eq!(spec.memories[0].end, 0x1000);
    }

    #[test]
    fn unknown_key_is_located() {
        let text = "[topology]\nkind = \"crossbar\"\nwidth = 2\n";
        let err = ScenarioSpec::from_text(text).unwrap_err();
        let ScenarioError::Parse(e) = err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(e.line, 3);
        assert_eq!(e.column, 1);
        assert_eq!(e.kind, ParseErrorKind::UnknownKey("width".into()));
    }

    #[test]
    fn sweep_round_trips_with_step_overrides() {
        let base = two_master_spec();
        let sweep = Sweep::new()
            .with_max_cycles(123_456)
            .with_threads(2)
            .with_step_mode(StepMode::Dense)
            .point("a", base.clone(), Backend::noc())
            .with_point(SweepPoint::new("b", base, Backend::bus()).with_step(StepMode::Horizon));
        let text = sweep.to_text();
        let back = Sweep::from_text(&text).expect("parses");
        assert_eq!(back.max_cycles(), 123_456);
        assert_eq!(back.threads(), Some(2));
        assert_eq!(back.step_mode(), StepMode::Dense);
        assert_eq!(back.points().len(), 2);
        assert_eq!(back.points()[0].step, None);
        assert_eq!(back.points()[0].backend.label(), "noc");
        assert_eq!(back.points()[1].step, Some(StepMode::Horizon));
        assert_eq!(back.points()[1].backend.label(), "bus");
        assert_eq!(back.points()[1].spec, sweep_spec(&back));
        assert_eq!(back.to_text(), text);
    }

    fn sweep_spec(sweep: &Sweep) -> ScenarioSpec {
        sweep.points()[0].spec.clone()
    }

    #[test]
    fn scenario_parser_rejects_sweep_files() {
        let text = "[[sweep.point]]\nlabel = \"a\"\nbackend = \"noc\"\n\n[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\n\n[[memory]]\nname = \"mem\"\nbase = 0\nend = 16\nlatency = 1\n";
        let err = ScenarioSpec::from_text(text).unwrap_err();
        let ScenarioError::Parse(e) = err else {
            panic!("expected parse error");
        };
        assert_eq!(e.kind, ParseErrorKind::UnexpectedSweep);
        assert_eq!(e.line, 1);
    }

    #[test]
    fn sweep_header_without_points_is_an_error() {
        let err = ScenarioSpec::from_text("[sweep]\nmax_cycles = 10\n").unwrap_err();
        let ScenarioError::Parse(e) = err else {
            panic!("expected parse error");
        };
        assert_eq!(e.line, 1);
        assert!(matches!(e.kind, ParseErrorKind::Syntax(_)));
    }

    #[test]
    fn sweep_parser_rejects_plain_scenarios() {
        let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\n";
        let err = Sweep::from_text(text).unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Parse(ParseError {
                kind: ParseErrorKind::NotASweep,
                ..
            })
        ));
    }
}
