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
//! Line-oriented: `[section]` and `[[repeating section]]` headers, each
//! followed by `key = value` lines. `#` starts a comment (outside
//! strings); blank lines are ignored. Integers are decimal or `0x…` hex,
//! with `_` separators, never signed.
//!
//! Every key is one row of this module's field tables: value type and
//! range, required or not, the sockets or kinds it applies to, getter,
//! setter, doc line. Parser, emitter, error texts and the key-by-key
//! reference [`grammar_reference`] prints (the README reproduces it) are
//! derived from those rows, so they cannot drift apart, `emit(parse(f))
//! == f` holds by construction, and adding a knob is adding a row.
//!
//! Link and buffer knobs are `[config]` keys and routing is the
//! topology's `routing` key; only the switching mode and the bus and
//! bridge timing stay in code (a point's `backend` is that backend's
//! default configuration). Parsing reports precise line/column [`ParseError`]s;
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

use crate::names::{alternatives, name_of, named, Names};
use crate::program::ProgramSpec::{Bursty, Trace, Zipf};
use crate::program::{parse_int, BurstySpec, Discipline, ProgramSpec, TraceSpec, ZipfSpec};
use crate::sim::StepMode;
use crate::spec::SocketSpec::{Ahb, Axi, Ocp, Strm, Vci};
use crate::spec::TargetSpec::{AxiSlave, Memory, Service};
use crate::spec::TopologySpec::{Crossbar, Custom, Mesh, Ring};
use crate::spec::{
    Backend, InitiatorSpec, MemorySpec, NocConfigSpec, ScenarioError, ScenarioSpec, SocketSpec,
    TargetSpec, TopologySpec,
};
use crate::sweep::{Sweep, SweepPoint};
use noc_protocols::vci::VciFlavor::Advanced;
use noc_protocols::SocketCommand;
use noc_topology::RouteAlgorithm;
use noc_transaction::{Burst, BurstKind, Opcode, OrderingModel, StreamId};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::mem::discriminant;
use Field::{Cmds, Flag, Hex, Int, Ints, Name, Pairs, Text};

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
    /// `base` and loads the traces — the document counterpart of
    /// [`ScenarioSpec::resolve_trace_paths`], covering sweep documents
    /// too. Each distinct file is read once, however many sweep points
    /// name it; the points share its records.
    pub fn resolve_trace_paths(&mut self, base: &std::path::Path) {
        let mut loaded = std::collections::HashMap::new();
        match self {
            Document::Scenario(spec) => spec.load_traces(base, &mut loaded),
            Document::Sweep(sweep) => {
                for point in sweep.points_mut() {
                    point.spec.load_traces(base, &mut loaded);
                }
            }
        }
    }

    /// Resolves and loads trace paths against the directory of the
    /// `.scn` file the document was loaded from — the one rule every
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
                let sweeps = |l: &str| {
                    let starts = |h: String| l.trim_start().starts_with(&h);
                    starts(SWEEP.header()) || starts(POINT.header())
                };
                let line = text.lines().position(sweeps).map_or(1, |i| i + 1);
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
    /// as `routing` and the `[config]` section are preserved).
    ///
    /// # Panics
    ///
    /// Panics if a point label or endpoint name contains a quote or
    /// newline — the grammar has no string escapes, so such a sweep
    /// cannot round-trip.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        emit_section(&mut out, &SWEEP, self);
        for p in self.points() {
            out.push('\n');
            emit_section(&mut out, &POINT, p);
            out.push('\n');
            emit_scenario(&mut out, &p.spec);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Field tables: one row per key, one name table per enumeration
// ---------------------------------------------------------------------

/// Reads an integer field (`None`: not carried by the value's variant,
/// or left out of emission) and writes it back.
type IntAccess<T> = (fn(&T) -> Option<u64>, fn(&mut T, u64));
/// Borrows a string or array field, likewise.
type Borrow<T, V> = for<'a> fn(&'a T) -> Option<&'a V>;

/// The value type of a key, with a getter (`None` leaves the key out of
/// emission) and a setter for a parsed, type- and range-checked value.
enum Field<T: 'static> {
    /// An integer in `min..=max`, emitted in decimal.
    Int(u64, u64, IntAccess<T>),
    /// Any 64-bit integer, emitted in hex.
    Hex(IntAccess<T>),
    Flag(fn(&T) -> Option<bool>, fn(&mut T, bool)),
    /// A free-form quoted string.
    Text(Borrow<T, str>, fn(&mut T, &str)),
    /// A quoted spelling from a name table: its `a|b|c` forms, the
    /// value's spelling, and a setter that answers a spelling it does
    /// not know with the error text.
    Name(
        fn() -> String,
        fn(&T) -> Option<Cow<'static, str>>,
        fn(&mut T, &str) -> Result<(), String>,
    ),
    Ints(Borrow<T, [usize]>, fn(&mut T, Vec<usize>)),
    Pairs(Borrow<T, [(usize, usize)]>, fn(&mut T, Vec<(usize, usize)>)),
    /// The repeatable `cmd` line, and the explicit program it appends
    /// to (`None`: a value that cannot take explicit commands).
    Cmds(
        for<'a> fn(&'a T) -> &'a [SocketCommand],
        for<'a> fn(&'a mut T) -> Option<&'a mut Vec<SocketCommand>>,
    ),
}

/// One key of a section. Row order is canonical emission order, and the
/// order setters run in: a row that depends on a variant follows the
/// discriminator row that selects it.
struct Row<T: 'static> {
    key: &'static str,
    /// The variant bits this key applies to ([`ANY`]: all of them).
    when: u32,
    required: bool,
    field: Field<T>,
    doc: &'static str,
    /// A cross-field rule on the stored value; the text it returns
    /// rejects the value in place.
    rule: Option<fn(&T) -> Option<String>>,
}

#[rustfmt::skip]
const fn opt<T>(key: &'static str, when: u32, field: Field<T>, doc: &'static str) -> Row<T> {
    Row { key, when, required: false, field, doc, rule: None }
}

#[rustfmt::skip]
const fn req<T>(key: &'static str, when: u32, field: Field<T>, doc: &'static str) -> Row<T> {
    Row { required: true, ..opt(key, when, field, doc) }
}

#[rustfmt::skip]
const fn ruled<T>(row: Row<T>, rule: fn(&T) -> Option<String>) -> Row<T> {
    Row { rule: Some(rule), ..row }
}

/// An [`IntAccess`] pair: `at!(i.pressure: Option<u8>)`, `at!(m.queue:
/// usize)`, a field only some variants of an enum bind, `at!(i.socket =>
/// Axi { tags, .. }, tags: u8)`, or one behind an accessor pair,
/// `at!(i.program.shape => gap: u32)` (`shape()` and `shape_mut()`).
macro_rules! at {
    ($t:ident.$($f:ident).+: Option<$ty:ty>) => {
        (|$t| $t.$($f).+.map(|n| n as u64), |$t, n| $t.$($f).+ = Some(n as $ty))
    };
    ($t:ident.$($f:ident).+: $ty:ty) => {
        (|$t| Some($t.$($f).+ as u64), |$t, n| $t.$($f).+ = n as $ty)
    };
    ($t:ident.$place:ident => $variant:pat, $f:ident: $ty:ty) => {(
        |$t| match $t.$place { $variant => Some($f as u64), _ => None },
        |$t, n| if let $variant = &mut $t.$place { *$f = n as $ty },
    )};
    ($t:ident.$place:ident.shape => $f:ident: $ty:ty) => {(
        |$t| $t.$place.shape().map(|s| s.$f as u64),
        |$t, n| if let Some(s) = $t.$place.shape_mut() { s.$f = n as $ty },
    )};
}

/// One section of the grammar.
struct Section<T: 'static> {
    name: &'static str,
    /// Whether the header takes double brackets (the section repeats).
    repeats: bool,
    about: &'static str,
    rows: &'static [Row<T>],
    /// The variant bits of a value — which gated rows apply to it —
    /// valid once its discriminator rows are stored.
    mask: fn(&T) -> u32,
    /// The spellings of the variants whose bit is in `when`.
    variants: fn(when: u32) -> Vec<&'static str>,
}

impl<T> Section<T> {
    fn header(&self) -> String {
        match self.repeats {
            true => format!("[[{}]]", self.name),
            false => format!("[{}]", self.name),
        }
    }
}

/// The spellings of a discriminator key: each names the variant's bit
/// (0 when no row is specific to it) and its default value.
type Variants<V> = Names<(u32, V)>;

fn bit<V>(variants: Variants<V>, is: impl Fn(&V) -> bool) -> u32 {
    let entry = variants.iter().find(|(_, (_, v))| is(v));
    entry.map_or(0, |(_, (bit, _))| *bit)
}

fn spelled<V>(variants: Variants<V>, when: u32) -> Vec<&'static str> {
    let gated = variants.iter().filter(|(_, (bit, _))| bit & when != 0);
    gated.map(|(name, _)| *name).collect()
}

fn same<V>(a: &V, b: &V) -> bool {
    discriminant(a) == discriminant(b)
}

const ANY: u32 = !0;
const U8: u64 = u8::MAX as u64;
const U16: u64 = u16::MAX as u64;
const U32: u64 = u32::MAX as u64;
const MAX_SWITCHES: u64 = TopologySpec::MAX_SWITCHES as u64;

const RING: u32 = 1;
const MESH: u32 = 2;
const CUSTOM: u32 = 4;

#[rustfmt::skip]
const TOPOLOGIES: Variants<TopologySpec> = &[
    ("crossbar", (0, Crossbar)),
    ("ring", (RING, Ring { switches: 0 })),
    ("mesh", (MESH, Mesh { width: 0, height: 0 })),
    ("custom", (CUSTOM, Custom { switches: 0, links: Vec::new(), placement: Vec::new() })),
];

/// `routing` spellings; `W` and `H` stand for the mesh dimensions.
#[rustfmt::skip]
const ROUTINGS: Names<fn(usize, usize) -> RouteAlgorithm> = &[
    ("shortest", |_, _| RouteAlgorithm::ShortestPath),
    ("updown", |_, _| RouteAlgorithm::UpDown),
    ("xy:WxH", |width, height| RouteAlgorithm::XyMesh { width, height }),
];

fn routing_name(r: RouteAlgorithm) -> String {
    let (w, h) = match r {
        RouteAlgorithm::XyMesh { width, height } => (width, height),
        _ => (0, 0),
    };
    name_of(ROUTINGS, |make| make(w, h) == r).replace("WxH", &format!("{w}x{h}"))
}

fn parse_routing(s: &str) -> Result<RouteAlgorithm, String> {
    let dim = |s: &str| parse_int(s.trim()).and_then(|n| usize::try_from(n).ok());
    let dims = |prefix: &str| {
        let (w, h) = s.strip_prefix(prefix)?.split_once('x')?;
        Some((dim(w).filter(|n| *n > 0)?, dim(h).filter(|n| *n > 0)?))
    };
    let found = ROUTINGS
        .iter()
        .find_map(|(form, make)| match form.strip_suffix("WxH") {
            None => (*form == s).then(|| make(0, 0)),
            Some(prefix) => dims(prefix).map(|(w, h)| make(w, h)),
        });
    found.ok_or_else(|| format!("unknown routing {s:?} ({})", alternatives(ROUTINGS)))
}

#[rustfmt::skip] // one row per key: its field on the first line, its doc line on the second
const TOPOLOGY: Section<ScenarioSpec> = Section {
    name: "topology", repeats: false,
    about: "optional: the NoC fabric (a crossbar when absent)",
    mask: |s| bit(TOPOLOGIES, |t| same(t, &s.topology)),
    variants: |when| spelled(TOPOLOGIES, when),
    rows: &[
        req("kind", ANY, Name(
            || alternatives(TOPOLOGIES),
            |s| Some(name_of(TOPOLOGIES, |(_, t)| same(t, &s.topology)).into()),
            |s, v| named("topology kind", TOPOLOGIES, v).map(|(_, t)| s.topology = t)),
            "fabric shape"),
        req("switches", RING | CUSTOM, Int(1, MAX_SWITCHES,
            at!(s.topology => Ring { switches } | Custom { switches, .. }, switches: usize)),
            "switch count"),
        req("width", MESH, Int(1, 1 << 16, at!(s.topology => Mesh { width, .. }, width: usize)),
            "mesh columns"),
        ruled(req("height", MESH,
            Int(1, 1 << 16, at!(s.topology => Mesh { height, .. }, height: usize)),
            "mesh rows"),
            |s| match s.topology {
                Mesh { width, height } if (width * height) as u64 > MAX_SWITCHES => Some(format!(
                    "a {width}x{height} mesh exceeds the limit of {MAX_SWITCHES} switches")),
                _ => None,
            }),
        req("links", CUSTOM, Pairs(
            |s| match &s.topology { Custom { links, .. } => Some(&links[..]), _ => None },
            |s, v| if let Custom { links, .. } = &mut s.topology { *links = v }),
            "bidirectional switch pairs"),
        req("placement", CUSTOM, Ints(
            |s| match &s.topology { Custom { placement, .. } => Some(&placement[..]), _ => None },
            |s, v| if let Custom { placement, .. } = &mut s.topology { *placement = v }),
            "switch of each endpoint: initiators first, then memories"),
        opt("routing", ANY, Name(
            || alternatives(ROUTINGS),
            |s| s.routing.map(|r| routing_name(r).into()),
            |s, v| parse_routing(v).map(|r| s.routing = Some(r))),
            "routing override (default: by fabric shape)"),
    ],
};

#[rustfmt::skip]
const CONFIG: Section<NocConfigSpec> = Section {
    name: "config", repeats: false,
    about: "optional: NoC link and buffer knobs (CDC divisors: each endpoint's clock_divisor)",
    mask: |_| 0,
    variants: |_| Vec::new(),
    rows: &[
        opt("buffer_depth", ANY, Int(1, 1 << 20, at!(c.buffer_depth: Option<usize>)),
            "switch input buffers, in flits"),
        opt("link_pipeline", ANY, Int(0, U32, at!(c.link.pipeline: Option<u32>)),
            "pipeline stages, both link classes"),
        opt("link_phits", ANY, Int(1, U32, at!(c.link.phits: Option<u32>)),
            "phits per flit, both link classes"),
        opt("link_cdc_latency", ANY, Int(0, U32, at!(c.link.cdc_latency: Option<u32>)),
            "CDC synchroniser depth, both link classes"),
        opt("link_capacity", ANY, Int(1, 1 << 20, at!(c.link.capacity: Option<usize>)),
            "flits in flight per link, both link classes"),
        opt("endpoint_pipeline", ANY, Int(0, U32, at!(c.endpoint.pipeline: Option<u32>)),
            "pipeline stages, endpoint (injection/ejection) links only"),
        opt("endpoint_phits", ANY, Int(1, U32, at!(c.endpoint.phits: Option<u32>)),
            "phits per flit, endpoint links only"),
        opt("endpoint_cdc_latency", ANY, Int(0, U32, at!(c.endpoint.cdc_latency: Option<u32>)),
            "CDC synchroniser depth, endpoint links only"),
        opt("endpoint_capacity", ANY, Int(1, 1 << 20, at!(c.endpoint.capacity: Option<usize>)),
            "flits in flight per link, endpoint links only"),
    ],
};

const OCP: u32 = 1;
const AXI: u32 = 1 << 1;
const STRM: u32 = 1 << 2;
const PVCI: u32 = 1 << 3;
const BVCI: u32 = 1 << 4;
const AVCI: u32 = 1 << 5;
const BURSTY: u32 = 1 << 8;
const ZIPF: u32 = 1 << 9;
const TRACE: u32 = 1 << 10;

const SOCKETS: Variants<SocketSpec> = &[
    ("ahb", (0, Ahb)),
    ("ocp", (OCP, SocketSpec::ocp())),
    ("axi", (AXI, SocketSpec::axi())),
    ("strm", (STRM, SocketSpec::strm())),
    ("pvci", (PVCI, SocketSpec::pvci())),
    ("bvci", (BVCI, SocketSpec::bvci())),
    ("avci", (AVCI, SocketSpec::avci())),
];

/// Generated program kinds; an initiator without `kind` runs the
/// explicit program its `cmd` lines spell out.
#[rustfmt::skip]
const PROGRAMS: Variants<ProgramSpec> = &[
    ("bursty", (BURSTY, Bursty(BurstySpec::new(0, 0, 1, 0)))),
    ("zipf", (ZIPF, Zipf(ZipfSpec::new(0, 0, 0)))),
    ("trace", (TRACE, Trace(TraceSpec::unloaded(String::new())))),
];

/// `ordering` spellings; `N` stands for a thread or tag count.
const ORDERINGS: Names<fn(u8) -> OrderingModel> = &[
    ("ordered", |_| OrderingModel::FullyOrdered),
    ("threaded:N", |threads| OrderingModel::Threaded { threads }),
    ("id:N", |tags| OrderingModel::IdBased { tags }),
];

fn ordering_name(o: OrderingModel) -> String {
    let n = match o {
        OrderingModel::FullyOrdered => 0,
        OrderingModel::Threaded { threads: n } | OrderingModel::IdBased { tags: n } => n,
    };
    name_of(ORDERINGS, |make| make(n) == o).replace('N', &n.to_string())
}

fn parse_ordering(s: &str) -> Result<OrderingModel, String> {
    let count = |prefix: &str| parse_int(s.strip_prefix(prefix)?).filter(|n| (1..=U8).contains(n));
    let found = ORDERINGS
        .iter()
        .find_map(|(form, make)| match form.strip_suffix('N') {
            None => (*form == s).then(|| make(0)),
            Some(prefix) => count(prefix).map(|n| make(n as u8)),
        });
    found.ok_or_else(|| format!("unknown ordering {s:?} ({})", alternatives(ORDERINGS)))
}

const CLOCK_DIVISOR_DOC: &str = "endpoint clock = base clock / N (default 1; NoC backend only)";

#[rustfmt::skip]
const INITIATOR: Section<InitiatorSpec> = Section {
    name: "initiator", repeats: true,
    about: "one per master, in node order",
    mask: |i| bit(SOCKETS, |s| s.kind() == i.socket.kind())
        | bit(PROGRAMS, |p| same(p, &i.program)),
    variants: |when| [spelled(SOCKETS, when), spelled(PROGRAMS, when)].concat(),
    rows: &[
        req("name", ANY, Text(|i| Some(i.name.as_str()), |i, v| i.name = v.to_owned()),
            "unique endpoint name"),
        req("socket", ANY, Name(
            || alternatives(SOCKETS),
            |i| Some(name_of(SOCKETS, |(_, s)| s.kind() == i.socket.kind()).into()),
            |i, v| named("socket", SOCKETS, v).map(|(_, s)| i.socket = s)),
            "socket protocol"),
        opt("threads", OCP | AVCI, Int(1, U8, at!(
            i.socket => Ocp { threads, .. } | Vci { flavor: Advanced { threads }, .. }, threads: u8)),
            "socket threads (default 2)"),
        opt("per_thread", OCP, Int(1, U32, at!(i.socket => Ocp { per_thread, .. }, per_thread: u32)),
            "outstanding requests per thread (default 4)"),
        opt("tags", AXI, Int(1, U8, at!(i.socket => Axi { tags, .. }, tags: u8)),
            "NoC tag pool for ID renaming (default 4)"),
        opt("per_id", AXI, Int(1, U32, at!(i.socket => Axi { per_id, .. }, per_id: u32)),
            "outstanding requests per ID (default 4)"),
        opt("total", AXI, Int(1, U32, at!(i.socket => Axi { total, .. }, total: u32)),
            "outstanding requests overall (default 16)"),
        opt("read_limit", STRM, Int(1, U32, at!(i.socket => Strm { read_limit }, read_limit: u32)),
            "outstanding reads (default 4)"),
        opt("pipeline", PVCI | BVCI | AVCI,
            Int(1, U32, at!(i.socket => Vci { pipeline, .. }, pipeline: u32)),
            "request pipeline depth (default 1 on pvci, which admits only 1; else 2)"),
        opt("ordering", ANY, Name(
            || alternatives(ORDERINGS),
            |i| i.ordering.map(|o| ordering_name(o).into()),
            |i, v| parse_ordering(v).map(|o| i.ordering = Some(o))),
            "NIU ordering override (default: the socket's own model)"),
        opt("outstanding", ANY,
            Int(1, InitiatorSpec::MAX_OUTSTANDING as u64, at!(i.outstanding: Option<u32>)),
            "NIU outstanding budget (default: by socket)"),
        opt("pressure", ANY, Int(0, U8, at!(i.pressure: Option<u8>)),
            "QoS class of this initiator's packets"),
        opt("flit_bytes", ANY, Int(1, 1 << 16, at!(i.flit_bytes: Option<usize>)),
            "packetisation width"),
        opt("clock_divisor", ANY, Int(1, u64::MAX, (
            |i| (i.clock_divisor != 1).then_some(i.clock_divisor),
            |i, n| i.clock_divisor = n)),
            CLOCK_DIVISOR_DOC),
        opt("kind", ANY, Name(
            || alternatives(PROGRAMS),
            |i| PROGRAMS.iter().find(|(_, (_, p))| same(p, &i.program)).map(|v| v.0.into()),
            |i, v| named("program kind", PROGRAMS, v).map(|(_, p)| i.program = p)),
            "a generated program, instead of cmd lines"),
        opt("cmd", ANY, Cmds(
            |i| i.program.explicit().map_or(&[], Vec::as_slice),
            |i| i.program.explicit_mut()),
            "one command of the explicit program; repeats (see below)"),
        req("seed", BURSTY | ZIPF, Hex(at!(
            i.program => Bursty(BurstySpec { seed, .. }) | Zipf(ZipfSpec { seed, .. }), seed: u64)),
            "generator seed"),
        req("commands", BURSTY | ZIPF, Int(0, ProgramSpec::MAX_GENERATED as u64, at!(
            i.program => Bursty(BurstySpec { commands, .. }) | Zipf(ZipfSpec { commands, .. }),
            commands: usize)),
            "commands generated in total"),
        req("burst_len", BURSTY, Int(1, U32,
            at!(i.program => Bursty(BurstySpec { burst_len, .. }), burst_len: u32)),
            "mean commands per burst"),
        req("idle_gap", BURSTY, Int(0, U32,
            at!(i.program => Bursty(BurstySpec { idle_gap, .. }), idle_gap: u32)),
            "mean idle cycles between bursts"),
        req("exponent_milli", ZIPF, Int(0, ZipfSpec::MAX_EXPONENT_MILLI as u64,
            at!(i.program => Zipf(ZipfSpec { exponent_milli, .. }), exponent_milli: u32)),
            "Zipf exponent x1000; the first declared memory is hottest"),
        req("trace_file", TRACE, Text(
            |i| match &i.program { Trace(t) => Some(t.path()), _ => None },
            |i, v| if let Trace(t) = &mut i.program { *t = TraceSpec::unloaded(v.to_owned()) }),
            "trace to replay, its path relative to the .scn file"),
        opt("read_pct", BURSTY | ZIPF, Int(0, 100, at!(i.program.shape => read_pct: u8)),
            "percentage of reads (default 70)"),
        opt("beats", BURSTY | ZIPF,
            Int(1, Burst::MAX_BEATS as u64, at!(i.program.shape => beats: u32)),
            "beats per burst (default 4)"),
        opt("beat_bytes", BURSTY | ZIPF,
            Int(1, Burst::MAX_BEAT_BYTES as u64, at!(i.program.shape => beat_bytes: u32)),
            "bytes per beat, a power of two (default 4)"),
        opt("streams", BURSTY | ZIPF, Int(1, U16, at!(i.program.shape => streams: u16)),
            "socket streams to round-robin over (default 1)"),
        opt("gap", BURSTY | ZIPF, Int(0, U32, at!(i.program.shape => gap: u32)),
            "mean idle cycles between commands (default 2)"),
        opt("discipline", BURSTY | ZIPF, Name(
            || alternatives(Discipline::NAMES),
            |i| i.program.shape().map(|s| s.discipline.label().into()),
            |i, v| named("discipline", Discipline::NAMES, v).map(|d| {
                if let Some(s) = i.program.shape_mut() { s.discipline = d }
            })),
            "gap law (default open); closed floors every gap at 1 cycle"),
    ],
};

const AXI_SLAVE: u32 = 1;
const SERVICE: u32 = 2;

/// Target kinds, shared with [`TargetSpec::label`].
#[rustfmt::skip]
pub(crate) const TARGETS: Variants<TargetSpec> = &[
    ("memory", (0, Memory)),
    ("axi", (AXI_SLAVE, AxiSlave { bank_stagger: 0 })),
    ("service", (SERVICE, Service { write_latency: 0, exclusive: false })),
];

#[rustfmt::skip]
const TARGET: Section<MemorySpec> = Section {
    name: "target", repeats: true,
    about: "one per target, nodes follow the initiators; [[memory]] is a synonym",
    mask: |m| bit(TARGETS, |t| same(t, &m.target)),
    variants: |when| spelled(TARGETS, when),
    rows: &[
        req("name", ANY, Text(|m| Some(m.name.as_str()), |m, v| m.name = v.to_owned()),
            "unique endpoint name"),
        opt("kind", ANY, Name(
            || alternatives(TARGETS),
            |m| (m.target != Memory).then(|| m.target.label().into()),
            |m, v| named("target kind", TARGETS, v).map(|(_, t)| m.target = t)),
            "target socket and IP model (default memory)"),
        req("base", ANY, Hex(at!(m.base: u64)),
            "first byte of the region"),
        ruled(req("end", ANY, Hex(at!(m.end: u64)),
            "one past the last byte; regions never overlap"),
            |m| (m.base >= m.end)
                .then(|| format!("empty region: end {:#x} <= base {:#x}", m.end, m.base))),
        // Also the default of the service write path, which its own row
        // (below, so applied later) overrides.
        req("latency", ANY, Int(0, U32, (
            |m| Some(m.latency as u64),
            |m, n| {
                m.latency = n as u32;
                if let Service { write_latency, .. } = &mut m.target { *write_latency = n as u32 }
            })),
            "access latency in cycles (read latency of a service block)"),
        opt("bank_stagger", AXI_SLAVE,
            Int(0, U32, at!(m.target => AxiSlave { bank_stagger }, bank_stagger: u32)),
            "extra latency per address bank, of four (default 0)"),
        opt("write_latency", SERVICE,
            Int(0, U32, at!(m.target => Service { write_latency, .. }, write_latency: u32)),
            "write-path latency (default: latency)"),
        opt("exclusive", SERVICE, Flag(
            |m| matches!(m.target, Service { exclusive: true, .. }).then_some(true),
            |m, v| if let Service { exclusive, .. } = &mut m.target { *exclusive = v }),
            "accepts exclusive and locked opcodes (default false)"),
        opt("queue", ANY, Int(1, 1 << 20, at!(m.queue: usize)),
            "request queue depth (default 8)"),
        opt("clock_divisor", ANY, Int(1, u64::MAX, (
            |m| (m.clock_divisor != 1).then_some(m.clock_divisor),
            |m, n| m.clock_divisor = n)),
            CLOCK_DIVISOR_DOC),
    ],
};

/// `[[memory]]`: the classic name of a `[[target]]` section, emitted
/// for plain memories.
const MEMORY: Section<MemorySpec> = Section {
    name: "memory",
    ..TARGET
};

#[rustfmt::skip]
const SWEEP: Section<Sweep> = Section {
    name: "sweep", repeats: false,
    about: "sweep files only, before the first point; optional",
    mask: |_| 0,
    variants: |_| Vec::new(),
    rows: &[
        opt("max_cycles", ANY, Int(0, u64::MAX, at!(s.max_cycles: u64)),
            "per-point cycle budget (default 10000000)"),
        opt("threads", ANY, Int(1, 1 << 16, at!(s.threads: Option<usize>)),
            "worker thread cap (default: one per core)"),
        opt("step", ANY, Name(
            || alternatives(StepMode::NAMES),
            |s| (s.step_mode != StepMode::Horizon).then(|| s.step_mode.to_string().into()),
            |s, v| v.parse().map(|mode| s.step_mode = mode)),
            "step mode of every point (default horizon)"),
    ],
};

#[rustfmt::skip]
const POINT: Section<SweepPoint> = Section {
    name: "sweep.point", repeats: true,
    about: "one per point, followed by that point's own scenario sections",
    mask: |_| 0,
    variants: |_| Vec::new(),
    rows: &[
        req("label", ANY, Text(|p| Some(p.label.as_str()), |p, v| p.label = v.to_owned()),
            "row label"),
        req("backend", ANY, Name(
            || alternatives(Backend::NAMES),
            |p| Some(p.backend.label().into()),
            |p, v| v.parse().map(|backend| p.backend = backend)),
            "interconnect, in its default configuration"),
        opt("step", ANY, Name(
            || alternatives(StepMode::NAMES),
            |p| p.step.map(|mode| mode.to_string().into()),
            |p, v| v.parse().map(|mode| p.step = Some(mode))),
            "step mode of this point only"),
    ],
};

const OPCODES: Names<Opcode> = &[
    ("read", Opcode::Read),
    ("write", Opcode::Write),
    ("write_posted", Opcode::WritePosted),
    ("read_ex", Opcode::ReadExclusive),
    ("write_ex", Opcode::WriteExclusive),
    ("read_linked", Opcode::ReadLinked),
    ("write_cond", Opcode::WriteConditional),
    ("read_locked", Opcode::ReadLocked),
    ("write_unlock", Opcode::WriteUnlock),
    ("broadcast", Opcode::Broadcast),
];

/// The burst-kind suffix of a command (`incr` when absent).
const BURST_KIND: &str = "kind";
const BURST_KINDS: Names<BurstKind> = &[
    ("incr", BurstKind::Incr),
    ("wrap", BurstKind::Wrap),
    ("fixed", BurstKind::Fixed),
    ("stream", BurstKind::Stream),
];

/// The integer `FIELD=N` suffixes of a command, in emission order: name,
/// largest value (an unbounded field is a bit pattern, emitted in hex),
/// getter, setter. All default to 0, which is not emitted.
#[rustfmt::skip]
const CMD_FIELDS: &[(&str, u64, IntAccess<SocketCommand>)] = &[
    ("stream", U16, (|c| Some(c.stream.raw() as u64), |c, n| c.stream = StreamId::new(n as u16))),
    ("seed", u64::MAX, at!(c.data_seed: u64)),
    ("delay", U32, at!(c.delay_before: u32)),
    ("pressure", U8, at!(c.pressure: u8)),
];

// ---------------------------------------------------------------------
// Emitter and grammar reference
// ---------------------------------------------------------------------

/// Quotes a string value for emission. The grammar has no string
/// escapes, so a value the parser could never read back is a programmer
/// error, reported eagerly instead of emitted as garbage.
fn quoted(key: &str, s: &str) -> String {
    assert!(
        !s.contains('"') && !s.contains('\n') && !s.contains('\r'),
        "{key} {s:?} cannot be serialized: the scenario text format has no string escapes \
         (remove quotes and newlines)"
    );
    format!("\"{s}\"")
}

fn emit_command(out: &mut String, cmd: &SocketCommand) -> fmt::Result {
    let op = name_of(OPCODES, |op| *op == cmd.opcode);
    write!(out, "{op} {:#x} {}x{}", cmd.addr, cmd.beats, cmd.beat_bytes)?;
    if cmd.burst_kind != BurstKind::Incr {
        let kind = name_of(BURST_KINDS, |kind| *kind == cmd.burst_kind);
        write!(out, " {BURST_KIND}={kind}")?;
    }
    for (name, max, (get, _)) in CMD_FIELDS {
        match get(cmd) {
            None | Some(0) => {}
            Some(n) if *max == u64::MAX => write!(out, " {name}={n:#x}")?,
            Some(n) => write!(out, " {name}={n}")?,
        }
    }
    Ok(())
}

/// Emits the section's header and, in row order, every key that
/// applies to `t` and whose getter yields a value.
fn emit_section<T>(out: &mut String, section: &Section<T>, t: &T) {
    out.push_str(&section.header());
    out.push('\n');
    let mask = (section.mask)(t);
    for row in section.rows {
        if row.when != ANY && row.when & mask == 0 {
            continue;
        }
        let key = row.key;
        let _ = match &row.field {
            Int(_, _, (get, _)) => get(t).map_or(Ok(()), |n| writeln!(out, "{key} = {n}")),
            Hex((get, _)) => get(t).map_or(Ok(()), |n| writeln!(out, "{key} = {n:#x}")),
            Flag(get, _) => get(t).map_or(Ok(()), |v| writeln!(out, "{key} = {v}")),
            Text(get, _) => get(t).map_or(Ok(()), |s| writeln!(out, "{key} = {}", quoted(key, s))),
            Name(_, get, _) => get(t).map_or(Ok(()), |s| writeln!(out, "{key} = \"{s}\"")),
            Ints(get, _) => get(t).map_or(Ok(()), |v| writeln!(out, "{key} = {v:?}")),
            Pairs(get, _) => get(t).map_or(Ok(()), |v| {
                let pairs: Vec<[usize; 2]> = v.iter().map(|&(a, b)| [a, b]).collect();
                writeln!(out, "{key} = {pairs:?}")
            }),
            Cmds(get, _) => get(t).iter().try_for_each(|cmd| {
                write!(out, "{key} = \"")?;
                emit_command(out, cmd)?;
                out.write_str("\"\n")
            }),
        };
    }
}

fn emit_scenario(out: &mut String, spec: &ScenarioSpec) {
    emit_section(out, &TOPOLOGY, spec);
    if let Some(cfg) = &spec.config {
        out.push('\n');
        emit_section(out, &CONFIG, cfg);
    }
    for ini in &spec.initiators {
        out.push('\n');
        emit_section(out, &INITIATOR, ini);
    }
    for mem in &spec.memories {
        out.push('\n');
        // Plain memories keep the classic [[memory]] section; protocol
        // targets are [[target]] blocks with a kind.
        let section = match mem.target {
            Memory => &MEMORY,
            _ => &TARGET,
        };
        emit_section(out, section, mem);
    }
}

/// The key-by-key reference of the text format, rendered from the same
/// field tables the parser and the emitter run on: per section, every
/// key with its value type and range, the sockets or kinds it applies
/// to, whether it is required, and its doc line.
pub fn grammar_reference() -> String {
    let mut out = String::from(
        "# A file is one scenario, or a sweep: an optional [sweep] header, then one\n\
         # full scenario per [[sweep.point]]. `#` starts a comment; integers are\n\
         # decimal or 0x hex, `_` separators allowed, never signed.\n",
    );
    describe(&mut out, &TOPOLOGY);
    describe(&mut out, &CONFIG);
    describe(&mut out, &INITIATOR);
    describe(&mut out, &TARGET);
    describe(&mut out, &SWEEP);
    describe(&mut out, &POINT);
    let fields = CMD_FIELDS
        .iter()
        .map(|(name, max, ..)| format!("{name}={}", range(0, *max)));
    let fields: Vec<String> = fields.collect();
    // What `ProtocolKind::expresses` denies, socket by socket.
    let mut lacking = String::new();
    for (socket, (_, spec)) in SOCKETS {
        let denied = OPCODES.iter().filter(|(_, op)| !spec.kind().expresses(*op));
        let ops: Vec<&str> = denied.map(|(name, _)| *name).collect();
        if !ops.is_empty() {
            let _ = writeln!(
                lacking,
                "#          {socket} sockets cannot express {}",
                ops.join("|")
            );
        }
    }
    let _ = write!(
        out,
        "\n# cmd = \"OP ADDR BEATSxBYTES [FIELD ...]\", every field defaulting to 0:\n\
         #   OP     {}\n\
         {lacking}\
         #   BEATS  1..={}; BYTES 1..={}, a power of two\n\
         #   FIELD  {BURST_KIND}={} (wrap needs power-of-two BEATS)\n\
         #          {}\n",
        alternatives(OPCODES),
        Burst::MAX_BEATS,
        Burst::MAX_BEAT_BYTES,
        alternatives(BURST_KINDS),
        fields.join(" "),
    );
    out
}

/// `min..=max` as the reference prints it: `N` for any integer, large
/// powers of two as such.
fn range(min: u64, max: u64) -> String {
    match max {
        u64::MAX if min == 0 => "N".to_owned(),
        u64::MAX => format!("{min}.."),
        _ if max > 9999 && max.is_power_of_two() => format!("{min}..=2^{}", max.ilog2()),
        _ if max > 9999 && (max + 1).is_power_of_two() => {
            format!("{min}..=2^{}-1", max.ilog2() + 1)
        }
        _ => format!("{min}..={max}"),
    }
}

fn describe<T>(out: &mut String, section: &Section<T>) {
    let _ = writeln!(out, "\n{:<34} # {}", section.header(), section.about);
    for row in section.rows {
        let values = match &row.field {
            Int(min, max, _) => range(*min, *max),
            Hex(_) => range(0, u64::MAX),
            Flag(..) => "true|false".to_owned(),
            Text(..) | Cmds(..) => "\"...\"".to_owned(),
            Name(forms, ..) => format!("\"{}\"", forms()),
            Ints(..) => "[0, 1, ...]".to_owned(),
            Pairs(..) => "[[0, 1], ...]".to_owned(),
        };
        let gate = match row.when {
            ANY => String::new(),
            when => format!("{} only; ", (section.variants)(when).join("/")),
        };
        let need = if row.required { "required; " } else { "" };
        let entry = format!("{} = {values}", row.key);
        let _ = writeln!(out, "{entry:<34} # {gate}{need}{}", row.doc);
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[cfg_attr(test, derive(Debug, PartialEq))]
enum Value<'a> {
    Int(u64),
    Bool(bool),
    Str(&'a str),
    Ints(Vec<usize>),
    Pairs(Vec<(usize, usize)>),
}

/// One `key = value` line, borrowing its key and string from the input.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Entry<'a> {
    key: &'a str,
    value: Value<'a>,
    line: usize,
    key_col: usize,
    val_col: usize,
}

impl Entry<'_> {
    fn at_key(&self, kind: ParseErrorKind) -> ParseError {
        ParseError::new(self.line, self.key_col, kind)
    }

    fn bad(&self, reason: impl Into<String>) -> ParseError {
        let (key, reason) = (self.key.to_owned(), reason.into());
        ParseError::new(
            self.line,
            self.val_col,
            ParseErrorKind::BadValue { key, reason },
        )
    }
}

const NO_ROW: usize = usize::MAX;
/// More rows than any section has: where their entries stand fits on the stack.
const MAX_ROWS: usize = 32;

/// Parses the entries of one section into `t` by the section's table.
///
/// A key given twice is an error where it stands. The rows are then
/// applied in table order — discriminators before the rows they gate —
/// each entry type- and range-checked before its setter runs; a missing
/// required row is reported at the header. An entry no applicable row
/// claimed (unknown key, or a key of another variant) is reported last.
/// Returns the line and string of the first row's entry, the key that
/// names the section in document-level diagnostics.
fn parse_section<'a, T>(
    section: &Section<T>,
    name: &str,
    header_line: usize,
    entries: &mut [Entry<'a>],
    t: &mut T,
) -> Result<(usize, &'a str), ParseError> {
    let rows = section.rows;
    let mut first = [NO_ROW; MAX_ROWS];
    let mut unclaimed = NO_ROW;
    let mut r = 0;
    for (i, e) in entries.iter().enumerate() {
        // Emitted files list their keys in row order (and `cmd` lines in
        // runs), so the scan resumes where the last one ended.
        let is = |row: &Row<T>| row.key == e.key;
        let ahead = rows[r..].iter().position(is).map(|ahead| r + ahead);
        let Some(found) = ahead.or_else(|| rows[..r].iter().position(is)) else {
            unclaimed = unclaimed.min(i);
            continue;
        };
        r = found;
        if first[r] == NO_ROW {
            first[r] = i;
        } else if !matches!(rows[r].field, Cmds(..)) {
            return Err(e.at_key(ParseErrorKind::DuplicateKey(e.key.to_owned())));
        }
    }
    let mut mask = (section.mask)(t);
    for (r, row) in rows.iter().enumerate() {
        let applies = row.when == ANY || row.when & mask != 0;
        let Some(e) = entries.get_mut(first[r]) else {
            if row.required && applies {
                let (section, key) = (name.to_owned(), row.key.to_owned());
                let missing = ParseErrorKind::MissingKey { section, key };
                return Err(ParseError::new(header_line, 1, missing));
            }
            continue;
        };
        if !applies {
            unclaimed = unclaimed.min(first[r]);
            continue;
        }
        match (&row.field, &mut e.value) {
            (Int(_, max, _), Value::Int(n)) if *n > *max => {
                return Err(e.bad(format!("must be at most {max}")));
            }
            (Int(min, ..), Value::Int(n)) if *n < *min => {
                return Err(e.bad(format!("must be at least {min}")));
            }
            (Int(_, _, (_, set)) | Hex((_, set)), Value::Int(n)) => set(t, *n),
            (Flag(_, set), Value::Bool(v)) => set(t, *v),
            (Text(_, set), Value::Str(v)) => set(t, v),
            (Name(_, _, set), Value::Str(v)) => {
                set(t, v).map_err(|reason| e.bad(reason))?;
                // Only a name can select another variant.
                mask = (section.mask)(t);
            }
            (Ints(_, set), Value::Ints(v)) => set(t, std::mem::take(v)),
            (Pairs(_, set), Value::Pairs(v)) => set(t, std::mem::take(v)),
            (Pairs(_, set), Value::Ints(v)) if v.is_empty() => set(t, Vec::new()),
            (Cmds(_, program), _) => {
                let Some(program) = program(t) else {
                    let conflict = "cmd lines conflict with a generated program kind";
                    return Err(syntax(e.line, e.key_col, conflict));
                };
                let mut cmds = entries[first[r]..].iter().filter(|e| e.key == row.key);
                program.reserve_exact(cmds.clone().count());
                cmds.try_for_each(|e| parse_command(e).map(|cmd| program.push(cmd)))?;
            }
            (Int(..) | Hex(_), _) => return Err(e.bad("expected an integer")),
            (Flag(..), _) => return Err(e.bad("expected true or false")),
            (Text(..) | Name(..), _) => return Err(e.bad("expected a quoted string")),
            (Ints(..), _) => return Err(e.bad("expected an integer array like [0, 1, 2]")),
            (Pairs(..), _) => return Err(e.bad("expected a pair array like [[0, 1], [1, 2]]")),
        }
        if let Some(reason) = row.rule.and_then(|rule| rule(t)) {
            return Err(entries[first[r]].bad(reason));
        }
    }
    let named = |e: &Entry<'a>| (e.line, if let Value::Str(s) = e.value { s } else { "" });
    match entries.get(unclaimed) {
        Some(e) => Err(e.at_key(ParseErrorKind::UnknownKey(e.key.to_owned()))),
        None => Ok(entries.get(first[0]).map_or((header_line, ""), named)),
    }
}

fn parse_command(e: &Entry<'_>) -> Result<SocketCommand, ParseError> {
    let Value::Str(text) = e.value else {
        return Err(e.bad("expected a quoted string"));
    };
    // Columns point inside the quoted command string: value column + the
    // opening quote + the token's offset.
    let at = |tok: &str| e.val_col + 1 + (tok.as_ptr() as usize - text.as_ptr() as usize);
    let err = |tok: &str, reason: String| {
        let key = e.key.to_owned();
        ParseError::new(e.line, at(tok), ParseErrorKind::BadValue { key, reason })
    };
    // `s` is `tok` or a piece of it; a malformed integer is reported at
    // the token.
    let int = |tok: &str, s: &str| {
        parse_int(s).ok_or_else(|| syntax(e.line, at(tok), format!("malformed integer {s:?}")))
    };
    let mut toks = text.split_ascii_whitespace();
    let (Some(op), Some(addr), Some(burst)) = (toks.next(), toks.next(), toks.next()) else {
        let shape = "a command is \"OP ADDR BEATSxBYTES [field=…]\"";
        return Err(err(text, shape.into()));
    };
    let opcode = named("command op", OPCODES, op).map_err(|reason| err(op, reason))?;
    let addr = int(addr, addr)?;
    let Some((beats, bytes)) = burst.split_once('x') else {
        return Err(err(burst, format!("burst {burst:?} must be BEATSxBYTES")));
    };
    let dim = |s: &str, what: &str, max: u32| match int(burst, s)? {
        0 => Err(err(burst, format!("{what} must be at least 1"))),
        n if n > U32 => Err(err(burst, format!("{what} must fit in 32 bits"))),
        n if n > max as u64 => Err(err(burst, format!("{what} must be at most {max}"))),
        n => Ok(n as u32),
    };
    let beats = dim(beats, "beats", Burst::MAX_BEATS)?;
    let beat_bytes = dim(bytes, "beat bytes", Burst::MAX_BEAT_BYTES)?;
    let mut cmd = SocketCommand::read(addr, beat_bytes)
        .with_opcode(opcode)
        .with_burst(BurstKind::Incr, beats);
    for tok in toks {
        let Some((field, val)) = tok.split_once('=') else {
            return Err(err(tok, format!("expected field=value, got {tok:?}")));
        };
        if field == BURST_KIND {
            let kind = named("burst kind", BURST_KINDS, val);
            cmd.burst_kind = kind.map_err(|reason| err(tok, reason))?;
        } else if let Some((name, max, (_, set))) = CMD_FIELDS.iter().find(|f| f.0 == field) {
            match int(tok, val)? {
                n if n > *max => return Err(err(tok, format!("{name} must be at most {max}"))),
                n => set(&mut cmd, n),
            }
        } else {
            return Err(err(tok, format!("unknown command field {field:?}")));
        }
    }
    Ok(cmd)
}

fn syntax(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
    ParseError::new(line, col, ParseErrorKind::Syntax(msg.into()))
}

/// `str::trim_start` / `trim_end`, answered without decoding when the
/// edge byte is ASCII and not whitespace: the common case, nothing to trim.
fn trim_start(s: &str) -> &str {
    match s.as_bytes().first() {
        Some(&b) if b.is_ascii() && !matches!(b, b'\t'..=b'\r' | b' ') => s,
        _ => s.trim_start(),
    }
}

fn trim_end(s: &str) -> &str {
    match s.as_bytes().last() {
        Some(&b) if b.is_ascii() && !matches!(b, b'\t'..=b'\r' | b' ') => s,
        _ => s.trim_end(),
    }
}

fn trim(s: &str) -> &str {
    trim_end(trim_start(s))
}

/// Reads line `no` from byte `at` of `text` in one pass over its bytes,
/// and moves `at` to the next line. Returns a header, trimmed, with its
/// column; an entry goes to `entries`.
fn scan_line<'a>(
    text: &'a str,
    at: &mut usize,
    no: usize,
    entries: &mut Vec<Entry<'a>>,
) -> Result<Option<(&'a str, usize)>, ParseError> {
    let (bytes, start) = (text.as_bytes(), *at);
    let (mut end, mut eq, mut quoted) = (start, None, false);
    *at = loop {
        match bytes.get(end) {
            None => break end,
            Some(b'\n') => break end + 1,
            Some(b'#') if !quoted => {
                let rest = text[end..].find('\n');
                break rest.map_or(text.len(), |lf| end + lf + 1);
            }
            Some(b'"') => quoted = !quoted,
            Some(b'=') if eq.is_none() => eq = Some(end - start),
            Some(_) => {}
        }
        end += 1;
    };
    // Less a CR before the LF, as `str::lines` reads it.
    let cr = bytes.get(end) == Some(&b'\n') && end > start && bytes[end - 1] == b'\r';
    let line = &text[start..end - cr as usize];
    let rest = trim_start(line);
    let key_col = line.len() - rest.len() + 1;
    match rest.as_bytes().first() {
        None => return Ok(None),
        Some(b'[') => return Ok(Some((trim_end(rest), key_col))),
        Some(_) => {}
    }
    let Some(eq) = eq else {
        return Err(syntax(no, key_col, "expected `key = value`"));
    };
    let key = trim(&line[..eq]);
    if key.is_empty() || !key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
        return Err(syntax(no, key_col, format!("malformed key {key:?}")));
    }
    let val = trim_start(&line[eq + 1..]);
    let val_col = line.len() - val.len() + 1;
    let val = trim_end(val);
    if val.is_empty() {
        return Err(syntax(no, val_col, "missing value"));
    }
    entries.push(Entry {
        key,
        value: parse_value(val, no, val_col)?,
        line: no,
        key_col,
        val_col,
    });
    Ok(None)
}

fn parse_value(s: &str, line: usize, col: usize) -> Result<Value<'_>, ParseError> {
    let int =
        |s: &str| parse_int(s).ok_or_else(|| syntax(line, col, format!("malformed integer {s:?}")));
    if let Some(rest) = s.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            None => Err(syntax(line, col, "unterminated string")),
            Some(inner) if inner.contains('"') => {
                Err(syntax(line, col, "strings cannot contain quotes"))
            }
            Some(inner) => Ok(Value::Str(inner)),
        };
    }
    let Some(rest) = s.strip_prefix('[') else {
        return match s {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Ok(Value::Int(int(s)?)),
        };
    };
    let Some(inner) = rest.strip_suffix(']').map(str::trim) else {
        return Err(syntax(line, col, "unterminated array"));
    };
    // Sized once: one item per comma, one pair per bracket.
    let count = |of: u8| inner.bytes().filter(|&b| b == of).count();
    if !inner.starts_with('[') {
        let mut ints = Vec::with_capacity(count(b',') + !inner.is_empty() as usize);
        let mut items = inner.split(',').filter(|_| !inner.is_empty());
        items.try_for_each(|i| int(trim(i)).map(|n| ints.push(n as usize)))?;
        return Ok(Value::Ints(ints));
    }
    // `[a, b], [c, d]`: one bracketed pair, then an optional comma.
    let malformed = || syntax(line, col, format!("malformed pair array [{inner}]"));
    let mut pairs = Vec::with_capacity(count(b'['));
    let mut rest = inner;
    while !rest.is_empty() {
        // Byte searches: the separators are too close for `memchr`'s set-up.
        let close = rest.bytes().position(|b| b == b']');
        let close = close
            .filter(|_| rest.starts_with('['))
            .ok_or_else(malformed)?;
        let (pair, tail) = (&rest[1..close], &rest[close + 1..]);
        let comma = pair.bytes().position(|b| b == b',').ok_or_else(malformed)?;
        let (a, b) = (&pair[..comma], &pair[comma + 1..]);
        pairs.push((int(trim(a))? as usize, int(trim(b))? as usize));
        rest = match tail.trim_start().strip_prefix(',') {
            Some(next) => next.trim_start(),
            None if tail.trim().is_empty() => "",
            None => return Err(malformed()),
        };
    }
    Ok(Value::Pairs(pairs))
}

/// What a section header opens.
#[derive(Clone, Copy)]
enum Opens {
    Topology,
    Config,
    Initiator,
    Target,
    Sweep,
    Point,
}

const HEADERS: &[(&str, bool, Opens)] = &[
    (TOPOLOGY.name, TOPOLOGY.repeats, Opens::Topology),
    (CONFIG.name, CONFIG.repeats, Opens::Config),
    (INITIATOR.name, INITIATOR.repeats, Opens::Initiator),
    (MEMORY.name, MEMORY.repeats, Opens::Target),
    (TARGET.name, TARGET.repeats, Opens::Target),
    (SWEEP.name, SWEEP.repeats, Opens::Sweep),
    (POINT.name, POINT.repeats, Opens::Point),
];

/// Reads a `[name]` / `[[name]]` header: what it opens, and its name as
/// written.
fn parse_header(header: &str, line: usize, col: usize) -> Result<(Opens, &str), ParseError> {
    let (inner, double) = match header.strip_prefix("[[") {
        Some(rest) => (rest.strip_suffix("]]"), true),
        None => (header[1..].strip_suffix(']'), false),
    };
    let legal = |b: u8| b.is_ascii_alphanumeric() || b == b'.' || b == b'_';
    let Some(name) = inner
        .map(str::trim)
        .filter(|n| !n.is_empty() && n.bytes().all(legal))
    else {
        return Err(syntax(
            line,
            col,
            format!("malformed section header {header:?}"),
        ));
    };
    match HEADERS.iter().find(|h| h.0 == name) {
        None => Err(ParseError::new(
            line,
            col,
            ParseErrorKind::UnknownSection(name.to_owned()),
        )),
        Some(&(_, repeats, opens)) if repeats == double => Ok((opens, name)),
        Some((_, true, _)) => Err(syntax(
            line,
            col,
            format!("[[{name}]] takes double brackets (it repeats)"),
        )),
        Some(_) => Err(syntax(line, col, format!("[{name}] takes single brackets"))),
    }
}

/// The scenario being assembled: a plain file's, or one sweep point's.
#[derive(Default)]
struct Draft {
    spec: ScenarioSpec,
    /// Scenario sections read so far.
    sections: usize,
    has_topology: bool,
}

/// Registers the endpoint name a section's first row gave, and its line.
fn declare<'a>(names: &mut HashSet<&'a str>, named: (usize, &'a str)) -> Result<usize, ParseError> {
    let (line, name) = named;
    if names.insert(name) {
        return Ok(line);
    }
    let twice = ParseErrorKind::DuplicateName(name.to_owned());
    Err(ParseError::new(line, 1, twice))
}

/// Parses a whole scenario text file into a [`Document`].
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first grammar violation in
/// document order.
pub fn parse_document(text: &str) -> Result<Document, ParseError> {
    let mut draft = Draft::default();
    let mut names = HashSet::new(); // the draft's, borrowed from the text
    let mut sweep = Sweep::new();
    let mut sweep_line = None;
    // The open section and its entries, in one buffer every section reuses:
    // the next header, or the end of the text, closes and files it.
    let mut open = None;
    let mut entries = Vec::new();
    let (mut at, mut no) = (0, 0);
    loop {
        let header = if at < text.len() {
            no += 1;
            match scan_line(text, &mut at, no, &mut entries)? {
                None if open.is_none() && !entries.is_empty() => {
                    return Err(syntax(no, entries[0].key_col, "key outside any section"));
                }
                None => continue,
                header => header,
            }
        } else {
            None
        };
        if let Some((opens, name, line)) = open.take() {
            match opens {
                Opens::Topology => {
                    draft.has_topology = true;
                    parse_section(&TOPOLOGY, name, line, &mut entries, &mut draft.spec)?;
                }
                Opens::Config => {
                    let cfg = draft.spec.config.insert(NocConfigSpec::default());
                    parse_section(&CONFIG, name, line, &mut entries, cfg)?;
                }
                Opens::Initiator => {
                    let mut ini = InitiatorSpec::new("", Ahb, Vec::new());
                    let named = parse_section(&INITIATOR, name, line, &mut entries, &mut ini)?;
                    declare(&mut names, named)?;
                    draft.spec.initiators.push(ini);
                }
                Opens::Target => {
                    let mut mem = MemorySpec::new("", 0, 0, 0);
                    let named = parse_section(&TARGET, name, line, &mut entries, &mut mem)?;
                    let named_at = declare(&mut names, named)?;
                    let overlaps = |a: &&MemorySpec| a.base < mem.end && mem.base < a.end;
                    if let Some(a) = draft.spec.memories.iter().find(overlaps) {
                        let (a, b) = (a.name.clone(), mem.name.clone());
                        let kind = ParseErrorKind::OverlappingRegions { a, b };
                        return Err(ParseError::new(named_at, 1, kind));
                    }
                    draft.spec.memories.push(mem);
                }
                Opens::Sweep => {
                    sweep_line = Some(line);
                    parse_section(&SWEEP, name, line, &mut entries, &mut sweep)?;
                }
                Opens::Point => {
                    // The scenario assembled so far is the previous point's.
                    if let Some(previous) = sweep.points.last_mut() {
                        previous.spec = std::mem::take(&mut draft).spec;
                        // Points of a sweep mostly share their platform.
                        let (spec, last) = (&mut draft.spec, &previous.spec);
                        spec.initiators.reserve_exact(last.initiators.len());
                        spec.memories.reserve_exact(last.memories.len());
                        names.clear();
                    }
                    let mut point = SweepPoint::new("", ScenarioSpec::new(), Backend::noc());
                    parse_section(&POINT, name, line, &mut entries, &mut point)?;
                    sweep.points.push(point);
                }
            }
            draft.sections += !matches!(opens, Opens::Sweep | Opens::Point) as usize;
            entries.clear();
        }
        let Some((header, col)) = header else { break };
        let (opens, name) = parse_header(header, no, col)?;
        let refusal = match opens {
            Opens::Topology if draft.has_topology => "second [topology] section in one scenario",
            Opens::Config if draft.spec.config.is_some() => {
                "second [config] section in one scenario"
            }
            Opens::Sweep if sweep_line.is_some() => "second [sweep] section",
            Opens::Sweep if !sweep.points.is_empty() => {
                "[sweep] must precede every [[sweep.point]]"
            }
            Opens::Point if sweep.points.is_empty() && draft.sections > 0 => {
                "scenario sections must follow a [[sweep.point]] in a sweep file"
            }
            _ => "",
        };
        if !refusal.is_empty() {
            return Err(syntax(no, col, refusal));
        }
        open = Some((opens, name, no));
    }
    match (sweep.points.last_mut(), sweep_line) {
        (None, None) => Ok(Document::Scenario(draft.spec)),
        (None, Some(line)) => Err(syntax(
            line,
            1,
            "a sweep file needs at least one [[sweep.point]]",
        )),
        (Some(last), _) => {
            last.spec = draft.spec;
            Ok(Document::Sweep(sweep))
        }
    }
}

#[cfg(test)]
#[path = "../../../tests/mutants.rs"]
mod mutants;

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

    /// The tables' own well-formedness: what the drivers assume of
    /// them, and that the rendered reference leaves no row out.
    #[test]
    fn field_tables_are_well_formed_and_fully_rendered() {
        fn check<T>(section: &Section<T>, grammar: &str) {
            let rendered = grammar
                .split("\n\n")
                .find(|block| block.starts_with(&section.header()))
                .unwrap_or_else(|| panic!("[{}] is not rendered", section.name));
            let rows = section.rows.len();
            assert!(rows <= MAX_ROWS, "[{}] has {rows} rows", section.name);
            for (r, row) in section.rows.iter().enumerate() {
                let (name, key) = (section.name, row.key);
                let twice = section.rows[..r].iter().any(|earlier| earlier.key == key);
                assert!(!twice, "[{name}] lists {key:?} twice");
                assert!(
                    !row.doc.trim().is_empty(),
                    "[{name}] {key:?} has no doc line"
                );
                assert!(row.when != 0, "[{name}] {key:?} applies to nothing");
                let line = rendered
                    .lines()
                    .find(|l| l.starts_with(&format!("{key} = ")));
                let line = line.unwrap_or_else(|| panic!("[{name}] {key:?} is not rendered"));
                assert!(line.ends_with(row.doc), "[{name}] {key:?}: {line}");
                // A gated row names the variants it is gated on.
                let gated = row.when != ANY;
                assert_eq!(gated, line.contains(" only; "), "[{name}] {key:?}: {line}");
                assert!(
                    !gated || !(section.variants)(row.when).is_empty(),
                    "[{name}] {key:?}"
                );
            }
        }
        let grammar = grammar_reference();
        check(&TOPOLOGY, &grammar);
        check(&CONFIG, &grammar);
        check(&INITIATOR, &grammar);
        check(&TARGET, &grammar);
        check(&SWEEP, &grammar);
        check(&POINT, &grammar);
        assert_eq!(MEMORY.rows.len(), TARGET.rows.len());
        // The reference is itself scenario-text comments and keys: every
        // header it shows is one the parser knows.
        for header in grammar.lines().filter(|l| l.starts_with('[')) {
            let header = header.split('#').next().expect("first piece").trim();
            parse_header(header, 1, 1).unwrap_or_else(|e| panic!("{header}: {e}"));
        }
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

    /// The line reader `scan_line` replaced — comment stripped, then
    /// trimmed, split at the first `=` and the value parsed, one pass
    /// each — kept as the scanner's oracle.
    mod oracle {
        use super::super::{parse_int, syntax, Entry, ParseError, Value};

        pub fn strip_comment(line: &str) -> &str {
            let mut in_str = false;
            let comment = |b: u8| {
                in_str ^= b == b'"';
                b == b'#' && !in_str
            };
            line.bytes().position(comment).map_or(line, |i| &line[..i])
        }

        pub fn parse_kv(line: &str, no: usize) -> Result<Entry<'_>, ParseError> {
            let indent = |s: &str| s.len() - s.trim_start().len();
            let Some(eq) = line.find('=') else {
                return Err(syntax(no, indent(line) + 1, "expected `key = value`"));
            };
            let (key, key_col) = (line[..eq].trim(), indent(line) + 1);
            if key.is_empty() || !key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
                return Err(syntax(no, key_col, format!("malformed key {key:?}")));
            }
            let val = line[eq + 1..].trim();
            let val_col = eq + 1 + indent(&line[eq + 1..]) + 1;
            if val.is_empty() {
                return Err(syntax(no, val_col, "missing value"));
            }
            let value = parse_value(val, no, val_col)?;
            Ok(Entry {
                key,
                value,
                line: no,
                key_col,
                val_col,
            })
        }

        fn parse_value(s: &str, line: usize, col: usize) -> Result<Value<'_>, ParseError> {
            let int = |s: &str| {
                parse_int(s).ok_or_else(|| syntax(line, col, format!("malformed integer {s:?}")))
            };
            if let Some(rest) = s.strip_prefix('"') {
                return match rest.strip_suffix('"') {
                    None => Err(syntax(line, col, "unterminated string")),
                    Some(inner) if inner.contains('"') => {
                        Err(syntax(line, col, "strings cannot contain quotes"))
                    }
                    Some(inner) => Ok(Value::Str(inner)),
                };
            }
            let Some(rest) = s.strip_prefix('[') else {
                return match s {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    _ => Ok(Value::Int(int(s)?)),
                };
            };
            let Some(inner) = rest.strip_suffix(']').map(str::trim) else {
                return Err(syntax(line, col, "unterminated array"));
            };
            if !inner.starts_with('[') {
                let items = inner.split(',').filter(|_| !inner.is_empty());
                let ints: Result<_, _> = items.map(|i| int(i.trim()).map(|n| n as usize)).collect();
                return ints.map(Value::Ints);
            }
            let malformed = || syntax(line, col, format!("malformed pair array [{inner}]"));
            let mut pairs = Vec::new();
            let mut rest = inner;
            while !rest.is_empty() {
                let pair = rest.strip_prefix('[').and_then(|r| r.split_once(']'));
                let (pair, tail) = pair.ok_or_else(malformed)?;
                let (a, b) = pair.split_once(',').ok_or_else(malformed)?;
                pairs.push((int(a.trim())? as usize, int(b.trim())? as usize));
                rest = match tail.trim_start().strip_prefix(',') {
                    Some(next) => next.trim_start(),
                    None if tail.trim().is_empty() => "",
                    None => return Err(malformed()),
                };
            }
            Ok(Value::Pairs(pairs))
        }
    }

    /// What a line read as: blank, a header and its column, or an entry.
    #[derive(Debug, PartialEq)]
    enum Read<'a> {
        Blank,
        Header(&'a str, usize),
        Entry(Entry<'a>),
    }

    /// Every line of `text` as the scanner reads it, in one run over the
    /// text.
    fn scanned(text: &str) -> Vec<Result<Read<'_>, ParseError>> {
        let (mut at, mut no, mut entries, mut lines) = (0, 0, Vec::new(), Vec::new());
        while at < text.len() {
            no += 1;
            let line = scan_line(text, &mut at, no, &mut entries);
            lines.push(line.map(|header| match (header, entries.pop()) {
                (Some((header, col)), _) => Read::Header(header, col),
                (None, Some(entry)) => Read::Entry(entry),
                (None, None) => Read::Blank,
            }));
        }
        lines
    }

    /// Every line of `text` as the oracle reads it, split by `str::lines`.
    fn oracle_read(text: &str) -> Vec<Result<Read<'_>, ParseError>> {
        let lines = text.lines().enumerate().map(|(i, raw)| {
            let line = oracle::strip_comment(raw);
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                let col = line.len() - line.trim_start().len() + 1;
                Ok(Read::Header(trimmed, col))
            } else if trimmed.is_empty() {
                Ok(Read::Blank)
            } else {
                oracle::parse_kv(line, i + 1).map(Read::Entry)
            }
        });
        lines.collect()
    }

    #[track_caller]
    fn reads_as_oracle(text: &str, what: &str) {
        let (new, old) = (scanned(text), oracle_read(text));
        assert_eq!(new.len(), old.len(), "{what}: line count of {text:?}");
        for (no, ((new, old), line)) in new.iter().zip(&old).zip(text.lines()).enumerate() {
            assert_eq!(new, old, "{what}, line {}: {line:?}", no + 1);
        }
    }

    /// The one-pass scanner reads every line as the line reader it
    /// replaced did — the same entry (key, value, line, key and value
    /// columns), header, blank or error — on the corpus, on the seeded
    /// mutants `mutated_corpus_files_never_panic` draws from it, and on
    /// the whitespace and quoting corners a byte-level scanner could get
    /// wrong.
    #[test]
    fn scanner_reads_every_line_as_the_oracle_does() {
        #[rustfmt::skip]
        let fixed = [
            "name = \"cpu\"\r\nbase = 0x10\r\n", "key =\r\n", "key = \r\r\n", "tail\r",
            "\tbase\t=\t0x10\t\n", "\x0bkey\x0b=\x0b7\x0b\n", "\x0c[config]\x0c\n",
            "base\u{a0}=\u{a0}4\u{a0}", "\u{3000}latency\u{3000}=\u{3000}2\u{3000}\n",
            "\u{85}queue =\u{85}1", "name = \"a # b\" # c\n", "name = \"a\"b\"#c\n",
            "a\"#\" = 1\n", "naïve = 1\n", "ключ = 1\n", "[[initiator]]\u{3000}# x\n",
            "links = [[0, 1],\u{a0}[1, 2]]\n", "placement = [0,\u{3000}1, 0x_2]\n", "= 1\n",
            " # only a comment\n", "\n\n\r\n", "x = [\n", "x = []\n", "x = [[]]\n", "x = true",
            "x = [[0, 1] [1, 2]]\n", "x = 99999999999999999999\n", "#=\n", "k=v=w\n",
        ];
        for text in fixed {
            reads_as_oracle(text, "fixed case");
        }
        reads_as_oracle(&fixed.concat(), "fixed cases, one text");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/scenarios");
        let mut rng = super::mutants::rng();
        for path in super::mutants::corpus_files(&dir) {
            let original = std::fs::read(&path).expect("readable corpus file");
            let name = path.file_name().expect("a file").to_string_lossy();
            reads_as_oracle(&String::from_utf8_lossy(&original), &name);
            for case in 0..super::mutants::CASES_PER_FILE {
                let mutant = super::mutants::mutant(&mut rng, &original);
                reads_as_oracle(
                    &String::from_utf8_lossy(&mutant),
                    &format!("{name} case {case}"),
                );
            }
        }
    }
}
