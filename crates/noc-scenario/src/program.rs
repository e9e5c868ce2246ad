//! Stochastic and trace-driven traffic programs.
//!
//! An [`InitiatorSpec`](crate::InitiatorSpec) carries a [`ProgramSpec`]:
//! either an explicit command list (the classic `cmd =` lines) or a
//! *generated* workload — seeded on/off bursty arrivals
//! ([`BurstySpec`]), Zipf-popularity target selection ([`ZipfSpec`]) or
//! a timestamped trace, read from a file once and replayed from memory
//! ([`TraceSpec`]). Every kind compiles, once, to a plain [`Program`]
//! ([`ProgramSpec::compile`]) that the master is built with: a generator
//! runs to its `commands` count and a trace's records become its
//! commands. The master never learns where its program came from, and
//! the program is a pure function of the seed (or the trace's records) —
//! the same spec produces record-for-record identical completion logs on
//! every backend and in both step modes.
//!
//! All randomness comes from the kernel's [`SplitMix64`]; no generator
//! reads simulation time.

use crate::names::{name_of, Names};
use noc_kernel::SplitMix64;
use noc_protocols::{Program, SocketCommand};
use noc_transaction::{BurstKind, Opcode, StreamId};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::sync::Arc;

/// How a generator spaces consecutive commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// Open-loop injection: gaps model an *arrival* process, so a drawn
    /// gap of zero is legal (back-to-back arrivals) and the offered load
    /// does not react to congestion. This is the MMPP-style law.
    #[default]
    Open,
    /// Closed-loop injection: gaps model *think time* after the
    /// previous command, floored at one cycle — the master always rests
    /// at least a cycle between issues, approximating a request-reply
    /// loop. (True closed-loop reactivity — waiting for the reply —
    /// already emerges from the socket's outstanding limits; the floor
    /// is the generator-side half of the discipline.)
    Closed,
}

impl Discipline {
    /// The grammar spellings (`discipline = "…"`).
    pub const NAMES: Names<Discipline> =
        &[("open", Discipline::Open), ("closed", Discipline::Closed)];

    /// Grammar label ("open" / "closed").
    pub fn label(&self) -> &'static str {
        name_of(Self::NAMES, |d| d == self)
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Command-shape parameters shared by the stochastic program kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StochasticShape {
    /// Percentage of reads (0–100); the rest are writes.
    pub read_pct: u8,
    /// Beats per burst.
    pub beats: u32,
    /// Bytes per beat.
    pub beat_bytes: u32,
    /// Socket streams (threads/IDs) commands round-robin over.
    pub streams: u16,
    /// Mean idle cycles between commands (uniform over `0..=2*gap`).
    pub gap: u32,
    /// Open- or closed-loop gap law.
    pub discipline: Discipline,
}

impl StochasticShape {
    /// The shape a program declares when it names no shape key.
    pub const DEFAULT: StochasticShape = StochasticShape {
        read_pct: 70,
        beats: 4,
        beat_bytes: 4,
        streams: 1,
        gap: 2,
        discipline: Discipline::Open,
    };
}

impl Default for StochasticShape {
    fn default() -> Self {
        StochasticShape::DEFAULT
    }
}

/// A seeded on/off bursty (MMPP-style) arrival program: bursts of
/// closely spaced commands separated by long idle gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstySpec {
    /// Generator seed.
    pub seed: u64,
    /// Total commands the program emits.
    pub commands: usize,
    /// Mean burst length in commands (uniform over `1..=2*burst_len`).
    pub burst_len: u32,
    /// Mean idle cycles between bursts (uniform over `0..=2*idle_gap`),
    /// added to the first command of each burst.
    pub idle_gap: u32,
    /// Command shape.
    pub shape: StochasticShape,
}

impl BurstySpec {
    /// A bursty program with the default shape.
    pub const fn new(seed: u64, commands: usize, burst_len: u32, idle_gap: u32) -> Self {
        BurstySpec {
            seed,
            commands,
            burst_len,
            idle_gap,
            shape: StochasticShape::DEFAULT,
        }
    }
}

/// A seeded Zipf-popularity target-selection program: command `i` picks
/// its target region with probability proportional to
/// `1 / rank^(exponent_milli/1000)`, rank being the region's declaration
/// order (first declared = hottest). High exponents concentrate traffic
/// on the first region — the hotspot-storm workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZipfSpec {
    /// Generator seed.
    pub seed: u64,
    /// Total commands the program emits.
    pub commands: usize,
    /// Zipf exponent in milli-units (`1500` = 1.5); at most
    /// [`ZipfSpec::MAX_EXPONENT_MILLI`]. Integer so the text format
    /// stays float-free and `Eq` holds.
    pub exponent_milli: u32,
    /// Command shape.
    pub shape: StochasticShape,
}

impl ZipfSpec {
    /// The largest accepted `exponent_milli` (an exponent of 8.0 —
    /// beyond it the distribution is numerically a delta on rank 1).
    pub const MAX_EXPONENT_MILLI: u32 = 8000;

    /// A Zipf program with the default shape.
    pub const fn new(seed: u64, commands: usize, exponent_milli: u32) -> Self {
        ZipfSpec {
            seed,
            commands,
            exponent_milli,
            shape: StochasticShape::DEFAULT,
        }
    }
}

/// A trace-replay program: the timestamped command records of a text
/// file (see [`parse_trace_line`] for the line format), read once by
/// [`TraceSpec::load`] and replayed from memory, so the run never sees
/// the file again. Clones share the records. Equality and text emission
/// go by the path alone.
///
/// A spec parsed from text holds the path as declared and no records;
/// [`ScenarioSpec::resolve_trace_paths`](crate::ScenarioSpec::resolve_trace_paths)
/// rebases it against the `.scn` file's directory and loads it.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    path: String,
    /// The records before the first bad line (all of them, for a good
    /// file); `None` until the path is loaded.
    records: Option<Arc<[TraceRecord]>>,
    /// The `(line, reason)` reading stopped at; line 0 when the file
    /// could not be opened.
    failure: Option<(usize, String)>,
}

impl PartialEq for TraceSpec {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
    }
}

impl Eq for TraceSpec {}

impl TraceSpec {
    /// A spec naming `path` with nothing read yet — what the text format
    /// parses into.
    pub(crate) const fn unloaded(path: String) -> Self {
        TraceSpec {
            path,
            records: None,
            failure: None,
        }
    }

    /// Reads the trace file at `path` — the only place a trace file is
    /// opened. Every record parses and timestamps are non-decreasing
    /// with deltas fitting `delay_before`. A file that breaks a rule
    /// keeps the records before the bad line and the line's
    /// `(number, reason)`;
    /// [`ScenarioSpec::validate`](crate::ScenarioSpec::validate) reports
    /// it, after the records before it have passed the scenario's
    /// socket and containment rules.
    pub fn load(path: impl Into<String>) -> Self {
        let path = path.into();
        let mut records = Vec::new();
        let failure = read_trace(&path, &mut records).err();
        TraceSpec {
            path,
            records: Some(records.into()),
            failure,
        }
    }

    /// The trace file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Checks every record with `rule`, then reports how reading ended:
    /// the first failure, as a [`crate::ScenarioError::Trace`].
    pub(crate) fn check(
        &self,
        mut rule: impl FnMut(&TraceRecord) -> Result<(), String>,
    ) -> Result<(), crate::ScenarioError> {
        let error = |line, reason| crate::ScenarioError::Trace {
            path: self.path.clone(),
            line,
            reason,
        };
        let Some(records) = &self.records else {
            let reason = "not loaded; resolve the scenario's trace paths first";
            return Err(error(0, reason.into()));
        };
        for rec in records.iter() {
            rule(rec).map_err(|reason| error(rec.line as usize, reason))?;
        }
        let failure = self.failure.clone();
        failure.map_or(Ok(()), |(line, reason)| Err(error(line, reason)))
    }
}

/// Parses the trace file at `path` into `records`, stopping at the first
/// line that breaks a rule of [`TraceSpec::load`].
fn read_trace(path: &str, records: &mut Vec<TraceRecord>) -> Result<(), (usize, String)> {
    let file = File::open(path).map_err(|e| (0, e.to_string()))?;
    let mut prev_ts = 0u64;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let no = i + 1;
        let line = line.map_err(|e| (no, e.to_string()))?;
        let Ok(line_no) = u32::try_from(no) else {
            return Err((no, format!("a trace holds at most {} lines", u32::MAX)));
        };
        let Some(rec) = parse_trace_line(&line, line_no).map_err(|e| (no, e))? else {
            continue;
        };
        if rec.cycle < prev_ts {
            return Err((no, "timestamps must be non-decreasing".into()));
        }
        if rec.cycle - prev_ts > u32::MAX as u64 {
            return Err((no, format!("gap {} exceeds u32::MAX", rec.cycle - prev_ts)));
        }
        prev_ts = rec.cycle;
        records.push(rec);
    }
    Ok(())
}

/// The traffic program of one initiator: explicit commands, or a
/// generated or traced workload that compiles to commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSpec {
    /// An explicit command list (`cmd =` lines).
    Explicit(Program),
    /// Seeded on/off bursty arrivals (`kind = "bursty"`).
    Bursty(BurstySpec),
    /// Seeded Zipf target selection (`kind = "zipf"`).
    Zipf(ZipfSpec),
    /// Trace replay from a file (`kind = "trace"`).
    Trace(TraceSpec),
}

impl Default for ProgramSpec {
    fn default() -> Self {
        ProgramSpec::Explicit(Vec::new())
    }
}

impl From<Program> for ProgramSpec {
    fn from(program: Program) -> Self {
        ProgramSpec::Explicit(program)
    }
}

impl From<BurstySpec> for ProgramSpec {
    fn from(spec: BurstySpec) -> Self {
        ProgramSpec::Bursty(spec)
    }
}

impl From<ZipfSpec> for ProgramSpec {
    fn from(spec: ZipfSpec) -> Self {
        ProgramSpec::Zipf(spec)
    }
}

impl From<TraceSpec> for ProgramSpec {
    fn from(spec: TraceSpec) -> Self {
        ProgramSpec::Trace(spec)
    }
}

impl ProgramSpec {
    /// The most commands a bursty or Zipf program may declare: it
    /// compiles whole, at 40 bytes a command, before the run starts, so
    /// a larger request from a scenario file must be an error, not an
    /// allocation failure.
    pub const MAX_GENERATED: usize = 1 << 22;

    /// The explicit command list, when this is an [`ProgramSpec::Explicit`]
    /// program.
    pub fn explicit(&self) -> Option<&Program> {
        match self {
            ProgramSpec::Explicit(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable access to the explicit command list, when this is an
    /// [`ProgramSpec::Explicit`] program.
    pub fn explicit_mut(&mut self) -> Option<&mut Program> {
        match self {
            ProgramSpec::Explicit(p) => Some(p),
            _ => None,
        }
    }

    /// The command-shape parameters, for the stochastic kinds.
    pub fn shape(&self) -> Option<&StochasticShape> {
        match self {
            ProgramSpec::Bursty(b) => Some(&b.shape),
            ProgramSpec::Zipf(z) => Some(&z.shape),
            _ => None,
        }
    }

    /// Mutable access to the command-shape parameters, for the
    /// stochastic kinds.
    pub fn shape_mut(&mut self) -> Option<&mut StochasticShape> {
        match self {
            ProgramSpec::Bursty(b) => Some(&mut b.shape),
            ProgramSpec::Zipf(z) => Some(&mut z.shape),
            _ => None,
        }
    }

    /// The commands a master built from this spec issues, in order:
    /// the explicit list, a generator run to its `commands` count, or a
    /// trace's records (none while the trace is unloaded). Generators
    /// target `regions`, the scenario's memory declarations.
    ///
    /// # Panics
    ///
    /// Panics if a generated kind is given no region.
    pub fn compile(&self, regions: &[(u64, u64)]) -> Program {
        match self {
            ProgramSpec::Explicit(p) => p.clone(),
            ProgramSpec::Bursty(b) => b.compile(regions),
            ProgramSpec::Zipf(z) => z.compile(regions),
            ProgramSpec::Trace(t) => {
                let records = t.records.as_deref().unwrap_or_default();
                // Each record's delay is the gap to the one before it.
                let prev = std::iter::once(0).chain(records.iter().map(|r| r.cycle));
                records
                    .iter()
                    .zip(prev)
                    .map(|(rec, prev_ts)| rec.command(prev_ts))
                    .collect()
            }
        }
    }
}

/// Draws a gap from the uniform `0..=2*mean` law, then applies the
/// discipline (closed-loop floors it at one cycle).
fn draw_gap(rng: &mut SplitMix64, mean: u32, discipline: Discipline) -> u32 {
    let gap = if mean == 0 {
        0
    } else {
        rng.next_below(2 * mean as u64 + 1) as u32
    };
    match discipline {
        Discipline::Open => gap,
        Discipline::Closed => gap.max(1),
    }
}

/// Builds one shaped command targeting `(start, end)`. Replicates the
/// `noc-workloads` pattern idiom: beat-aligned address with the whole
/// burst contained in the region, round-robin stream, per-command data
/// seed derived from the program seed and index.
fn shaped_command(
    rng: &mut SplitMix64,
    shape: &StochasticShape,
    (start, end): (u64, u64),
    index: usize,
    seed: u64,
    delay: u32,
) -> SocketCommand {
    let burst_bytes = (shape.beats * shape.beat_bytes) as u64;
    let span = (end - start).saturating_sub(burst_bytes).max(1);
    let addr = start + (rng.next_below(span) & !(shape.beat_bytes as u64 - 1));
    let is_read = rng.next_below(100) < shape.read_pct as u64;
    SocketCommand {
        opcode: if is_read { Opcode::Read } else { Opcode::Write },
        addr,
        beats: shape.beats,
        beat_bytes: shape.beat_bytes,
        burst_kind: BurstKind::Incr,
        stream: StreamId::new(index as u16 % shape.streams.max(1)),
        data_seed: seed ^ (index as u64) << 8,
        delay_before: delay,
        pressure: 0,
    }
}

impl BurstySpec {
    /// The program's commands, targeting `regions`.
    fn compile(&self, regions: &[(u64, u64)]) -> Program {
        assert!(!regions.is_empty(), "need at least one target region");
        let shape = self.shape;
        let mut rng = SplitMix64::new(self.seed);
        let mut left_in_burst = 0u32;
        (0..self.commands)
            .map(|index| {
                // Burst bookkeeping first, so the draw order is fixed:
                // burst length (when a burst starts), inter-burst idle,
                // region, then the shaped command's own draws.
                let mut extra = 0u32;
                if left_in_burst == 0 {
                    left_in_burst = rng.next_range(1, 2 * self.burst_len.max(1) as u64) as u32;
                    if index > 0 && self.idle_gap > 0 {
                        extra = rng.next_below(2 * self.idle_gap as u64 + 1) as u32;
                    }
                }
                left_in_burst -= 1;
                let region = regions[rng.next_below(regions.len() as u64) as usize];
                let delay = draw_gap(&mut rng, shape.gap, shape.discipline).saturating_add(extra);
                shaped_command(&mut rng, &shape, region, index, self.seed, delay)
            })
            .collect()
    }
}

impl ZipfSpec {
    /// The program's commands, targeting `regions` in popularity rank.
    fn compile(&self, regions: &[(u64, u64)]) -> Program {
        assert!(!regions.is_empty(), "need at least one target region");
        // Integer CDF table: weights 1/rank^s scaled into u64 and
        // clamped to ≥ 1 so every region stays reachable. The f64 powf
        // is evaluated once here; selection below is pure integer.
        let s = self.exponent_milli as f64 / 1000.0;
        let mut cumulative = Vec::with_capacity(regions.len());
        let mut total = 0u64;
        for rank in 1..=regions.len() {
            let w = ((rank as f64).powf(-s) * (1u64 << 32) as f64) as u64;
            total += w.max(1);
            cumulative.push(total);
        }
        let shape = self.shape;
        let mut rng = SplitMix64::new(self.seed);
        (0..self.commands)
            .map(|index| {
                let x = rng.next_below(total);
                let region = regions[cumulative.partition_point(|&c| c <= x)];
                let delay = draw_gap(&mut rng, shape.gap, shape.discipline);
                shaped_command(&mut rng, &shape, region, index, self.seed, delay)
            })
            .collect()
    }
}

/// One parsed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Absolute issue-intent cycle (non-decreasing across the file).
    pub cycle: u64,
    /// `read` or `write`.
    pub opcode: Opcode,
    /// Byte address.
    pub addr: u64,
    /// Beats in the burst.
    pub beats: u32,
    /// Bytes per beat.
    pub beat_bytes: u32,
    /// Socket stream (0 when omitted).
    pub stream: u16,
    /// The 1-based line of the file the record was read from.
    pub line: u32,
}

/// Parses an unsigned integer literal: decimal or `0x`/`0X` hex, with
/// `_` separators among the digits and no sign. Every integer the trace
/// and scenario text formats read goes through here.
pub(crate) fn parse_int(s: &str) -> Option<u64> {
    let (digits, radix) = match s.as_bytes() {
        [b'0', b'x' | b'X', hex @ ..] => (hex, 16),
        digits => (digits, 10),
    };
    // `None` until the first digit.
    let mut n = None;
    for &b in digits.iter().filter(|b| **b != b'_') {
        let digit = (b as char).to_digit(radix)? as u64;
        n = Some(
            n.unwrap_or(0u64)
                .checked_mul(radix as u64)?
                .checked_add(digit)?,
        );
    }
    n
}

/// Parses line `line_no` of a trace: `cycle op addr beats beat_bytes
/// [stream]`, where `op` is `read`/`r` or `write`/`w`, integers accept
/// `0x` hex and `_` separators. Returns `Ok(None)` for blank and
/// `#`-comment lines.
pub fn parse_trace_line(line: &str, line_no: u32) -> Result<Option<TraceRecord>, String> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 5 || fields.len() > 6 {
        return Err(format!(
            "expected `cycle op addr beats beat_bytes [stream]`, got {} fields",
            fields.len()
        ));
    }
    let int = |s: &str, what: &str| -> Result<u64, String> {
        parse_int(s).ok_or_else(|| format!("malformed {what} {s:?}"))
    };
    let cycle = int(fields[0], "cycle")?;
    let opcode = match fields[1] {
        "read" | "r" | "R" => Opcode::Read,
        "write" | "w" | "W" => Opcode::Write,
        other => return Err(format!("unknown op {other:?} (read|write)")),
    };
    let addr = int(fields[2], "address")?;
    let beats = int(fields[3], "beat count")?;
    if beats == 0 || beats > u32::MAX as u64 {
        return Err(format!("beat count {beats} out of range"));
    }
    let beat_bytes = int(fields[4], "beat bytes")?;
    if beat_bytes == 0 || beat_bytes > u32::MAX as u64 {
        return Err(format!("beat bytes {beat_bytes} out of range"));
    }
    let stream = match fields.get(5) {
        Some(s) => {
            let v = int(s, "stream")?;
            if v > u16::MAX as u64 {
                return Err(format!("stream {v} out of range"));
            }
            v as u16
        }
        None => 0,
    };
    Ok(Some(TraceRecord {
        cycle,
        opcode,
        addr,
        beats: beats as u32,
        beat_bytes: beat_bytes as u32,
        stream,
        line: line_no,
    }))
}

impl TraceRecord {
    /// The command this record replays as, after a record stamped
    /// `prev_ts`.
    pub fn command(&self, prev_ts: u64) -> SocketCommand {
        SocketCommand {
            opcode: self.opcode,
            addr: self.addr,
            beats: self.beats,
            beat_bytes: self.beat_bytes,
            burst_kind: BurstKind::Incr,
            stream: StreamId::new(self.stream),
            // Deterministic per-record write data: the record's position
            // and address (traces carry no payloads).
            data_seed: (self.line as u64) << 32 ^ self.addr,
            delay_before: (self.cycle - prev_ts) as u32,
            pressure: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions() -> Vec<(u64, u64)> {
        vec![(0x0, 0x1000), (0x1000, 0x2000), (0x2000, 0x3000)]
    }

    #[test]
    fn integer_literals_parse_as_the_grammar_says() {
        let max = u64::MAX;
        #[rustfmt::skip]
        let cases: &[(&str, Option<u64>)] = &[
            ("0", Some(0)), ("42", Some(42)), ("1_000", Some(1000)), ("_7_", Some(7)),
            ("0x1f", Some(31)), ("0X1F", Some(31)), ("0x_1", Some(1)), ("0xffffffffffffffff", Some(max)),
            ("18446744073709551615", Some(max)), ("18446744073709551616", None),
            ("0x10000000000000000", None), ("", None), ("_", None), ("0x", None), ("0x_", None),
            ("-1", None), ("+1", None), ("1a", None), ("0b1", None), ("0o7", None), (" 1", None),
            ("\u{ff11}", None), ("x1", None),
        ];
        for &(text, value) in cases {
            assert_eq!(parse_int(text), value, "{text:?}");
        }
    }

    #[test]
    fn bursty_stream_is_seed_deterministic() {
        let spec = BurstySpec::new(7, 100, 4, 50);
        let whole = spec.compile(&regions());
        assert_eq!(whole.len(), 100);
        assert_eq!(
            whole,
            spec.compile(&regions()),
            "the seed fixes the program"
        );
        for cmd in &whole {
            assert!(regions().iter().any(|&(s, e)| {
                cmd.addr >= s && cmd.addr + (cmd.beats * cmd.beat_bytes) as u64 <= e
            }));
        }
    }

    #[test]
    fn bursty_has_on_off_structure() {
        let spec = BurstySpec::new(11, 200, 4, 200);
        let cmds = spec.compile(&regions());
        let long_gaps = cmds.iter().filter(|c| c.delay_before > 50).count();
        assert!(long_gaps > 5, "expected inter-burst idle gaps");
        let short_gaps = cmds.iter().filter(|c| c.delay_before <= 4).count();
        assert!(short_gaps > 100, "expected dense in-burst arrivals");
    }

    #[test]
    fn zipf_concentrates_on_first_region() {
        let spec = ZipfSpec::new(3, 1000, 2000);
        let cmds = spec.compile(&regions());
        let hot = cmds.iter().filter(|c| c.addr < 0x1000).count();
        assert!(
            hot > 700,
            "exponent 2.0 should send most traffic to rank 1, got {hot}/1000"
        );
        let cold = cmds.iter().filter(|c| c.addr >= 0x2000).count();
        assert!(cold > 0, "every region stays reachable");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let spec = ZipfSpec::new(3, 3000, 0);
        let cmds = spec.compile(&regions());
        let hot = cmds.iter().filter(|c| c.addr < 0x1000).count();
        assert!(
            (800..1200).contains(&hot),
            "exponent 0 is uniform, got {hot}/3000"
        );
    }

    #[test]
    fn closed_discipline_floors_gaps() {
        let mut spec = BurstySpec::new(9, 50, 4, 0);
        spec.shape.gap = 1;
        spec.shape.discipline = Discipline::Closed;
        let cmds = spec.compile(&regions());
        assert!(cmds.iter().all(|c| c.delay_before >= 1));
    }

    #[test]
    fn trace_lines_parse() {
        assert_eq!(parse_trace_line("# comment", 1).unwrap(), None);
        assert_eq!(parse_trace_line("   ", 2).unwrap(), None);
        let rec = parse_trace_line("120 read 0x1_00 4 8 2", 3)
            .unwrap()
            .unwrap();
        assert_eq!(
            rec,
            TraceRecord {
                cycle: 120,
                opcode: Opcode::Read,
                addr: 0x100,
                beats: 4,
                beat_bytes: 8,
                stream: 2,
                line: 3,
            }
        );
        assert!(parse_trace_line("120 read 0x100 4", 1).is_err());
        assert!(parse_trace_line("120 flush 0x100 4 8", 1).is_err());
        assert!(parse_trace_line("x read 0x100 4 8", 1).is_err());
        // What a loaded trace costs per record.
        assert_eq!(std::mem::size_of::<TraceRecord>(), 32);
    }

    #[test]
    fn a_sweep_reads_each_trace_file_once() {
        let dir = std::env::temp_dir().join(format!("noc-shared-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("shared.trace"), "0 read 0x100 1 4\n").expect("trace written");
        let point = |backend| {
            format!(
                "[[sweep.point]]\nlabel = \"{backend}\"\nbackend = \"{backend}\"\n\n\
                 [[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"trace\"\n\
                 trace_file = \"shared.trace\"\n\n\
                 [[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x1000\nlatency = 1\n\n"
            )
        };
        let text = ["noc", "bridged", "bus"].map(point).concat();
        let mut doc = crate::parse_document(&text).expect("sweep parses");
        if let crate::Document::Sweep(sweep) = &doc {
            let unloaded = sweep.points()[0].spec.validate();
            let error = matches!(unloaded, Err(crate::ScenarioError::Trace { line: 0, .. }));
            assert!(
                error,
                "a trace not loaded yet fails validation: {unloaded:?}"
            );
        }
        doc.resolve_trace_paths(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let crate::Document::Sweep(sweep) = doc else {
            panic!("expected a sweep");
        };
        let records: Vec<_> = sweep
            .points()
            .iter()
            .map(|p| match &p.spec.initiators[0].program {
                ProgramSpec::Trace(t) => t.records.clone().expect("loaded"),
                _ => unreachable!("every point replays the trace"),
            })
            .collect();
        assert_eq!(records[0].len(), 1);
        assert!(records.iter().all(|r| Arc::ptr_eq(r, &records[0])));
        for p in sweep.points() {
            p.spec
                .validate()
                .expect("the deleted file's records validate");
        }
    }
}
