//! The common simulation surface every backend realisation exposes.

use crate::names::{name_of, named, Names};
use crate::program::{FeedSource, Workload};
use noc_baseline::{BridgedInterconnect, SharedBus};
use noc_kernel::Engine;
use noc_protocols::{CompletionLog, Program, SocketCommand};
use noc_system::{RunReport, Soc};
use std::fmt;

use crate::program::FEED_WINDOW;

/// One streamed workload being fed to master `ordinal`.
///
/// `releases[stream]` is the running sum `Σ (1 + delay_before)` over
/// every command appended so far *on that stream* — a lower bound, in
/// base cycles from 0, on when the master can drain that stream's
/// queue: each command occupies the queue front for at least
/// `delay_before` countdown ticks plus one issue tick, front occupancy
/// is sequential per stream, and a local tick spans at least one base
/// cycle (clock divisors only stretch it). Accounting is per stream
/// because multi-threaded sockets (OCP threads, AXI IDs, advanced-VCI
/// threads) count down each thread's front delay *concurrently*, so a
/// master consumes global release budget up to `streams` times faster
/// than the global sum predicts; single-queue sockets are the
/// one-stream special case. As long as every refill happens before the
/// simulation executes cycle `min(releases)`, no master observes any
/// stream of its program running dry, so *when* commands were appended
/// is unobservable and dense ≡ horizon bit-identity extends to
/// streamed workloads.
#[derive(Debug, Clone)]
struct Feeder {
    ordinal: usize,
    source: FeedSource,
    releases: std::collections::HashMap<u16, u64>,
    primed: bool,
    exhausted: bool,
}

impl Feeder {
    /// The earliest cycle any stream of this workload could drain — the
    /// feeder's advance bound.
    fn min_release(&self) -> u64 {
        self.releases.values().copied().min().unwrap_or(0)
    }

    fn account(&mut self, chunk: &[SocketCommand]) {
        for c in chunk {
            *self.releases.entry(c.stream.raw()).or_insert(0) += 1 + c.delay_before as u64;
        }
    }
}

/// The streamed-workload feeders of one simulation. Plain cloneable
/// state: a snapshot captures every generator's RNG state and every
/// trace cursor's index into its shared records, so restored runs
/// resume the feed bit-identically.
#[derive(Debug, Clone, Default)]
pub(crate) struct FeederSet {
    feeders: Vec<Feeder>,
}

impl FeederSet {
    /// Builds feeders for the streamed workloads (fixed programs need
    /// none).
    pub(crate) fn new(workloads: &[Workload]) -> Self {
        let feeders = workloads
            .iter()
            .enumerate()
            .filter_map(|(ordinal, w)| match w {
                Workload::Fixed(_) => None,
                Workload::Streamed(source) => Some(Feeder {
                    ordinal,
                    source: source.clone(),
                    releases: std::collections::HashMap::new(),
                    primed: false,
                    exhausted: false,
                }),
            })
            .collect();
        FeederSet { feeders }
    }

    /// Tops every active feeder up to `now + FEED_WINDOW` of release on
    /// its *slowest-filling* stream, appending pulled commands through
    /// `append(ordinal, chunk)`. The first pull primes with
    /// [`FeedSource::prime_release`] so every stream's first command
    /// lands at cycle 0 (identical in both step modes). Chunk
    /// boundaries never affect the command stream's content, so refill
    /// cadence (every dense step vs. every horizon bound) is
    /// unobservable.
    pub(crate) fn refill(&mut self, now: u64, mut append: impl FnMut(usize, &[SocketCommand])) {
        for f in &mut self.feeders {
            if f.exhausted {
                continue;
            }
            if !f.primed {
                f.primed = true;
                let chunk = f.source.pull(f.source.prime_release(now + FEED_WINDOW));
                if chunk.is_empty() {
                    f.exhausted = true;
                    continue;
                }
                f.account(&chunk);
                append(f.ordinal, &chunk);
            }
            while f.min_release() < now + FEED_WINDOW {
                let chunk = f.source.pull(now + FEED_WINDOW - f.min_release());
                if chunk.is_empty() {
                    f.exhausted = true;
                    break;
                }
                f.account(&chunk);
                append(f.ordinal, &chunk);
            }
        }
    }

    /// The furthest cycle the backend may advance to before the next
    /// refill: `horizon`, capped by every active feeder's
    /// `min(releases)` bound. Stopping at the bound (exclusive of
    /// executing that cycle) guarantees the refill lands before the
    /// master could first observe any stream of its program drained.
    pub(crate) fn bound(&self, horizon: u64) -> u64 {
        self.feeders
            .iter()
            .filter(|f| !f.exhausted)
            .fold(horizon, |b, f| b.min(f.min_release()))
    }

    /// Whether every feeder has drained its source.
    pub(crate) fn exhausted(&self) -> bool {
        self.feeders.iter().all(|f| f.exhausted)
    }
}

/// How [`Simulation::run_until`] advances base time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Execute every base cycle: nothing is skipped, so a report's
    /// `steps == cycles`. The reference semantics, and the escape
    /// hatch when debugging a backend's horizon bookkeeping. It does not
    /// promise that every component is polled on every cycle — the NoC
    /// clocks, in an executed cycle of either mode, only the endpoints,
    /// switches and links whose wakeup or work is due, and charges an
    /// endpoint the clock edges it was passed over on through
    /// `skip_ticks` before it is next looked at.
    Dense,
    /// Jump simulation time across provably-dead gaps (idle countdowns,
    /// drained fabrics) via [`Simulation::advance_to`]. Bit-identical to
    /// dense stepping — pinned by the cross-backend equivalence suite —
    /// and several-fold faster on sparse workloads.
    #[default]
    Horizon,
}

impl StepMode {
    /// The grammar spellings (`step = "…"`, `--step …`).
    pub const NAMES: Names<StepMode> =
        &[("dense", StepMode::Dense), ("horizon", StepMode::Horizon)];
}

impl fmt::Display for StepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(name_of(Self::NAMES, |m| m == self))
    }
}

impl std::str::FromStr for StepMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        named("step mode", Self::NAMES, s)
    }
}

/// A runnable realisation of a scenario, independent of the backend.
///
/// This is the type-erased surface [`crate::ScenarioSpec::build`]
/// returns: experiment code written against it runs unchanged on the
/// NoC, the bridged interconnect and the bus — the paper's
/// VC-neutrality claim, restated as an API. It has one implementor,
/// [`Sim`], generic over the backend's [`Engine`].
///
/// Simulations are plain owned state: `Send` (a built simulation can
/// move across threads) and checkpointable via
/// [`Simulation::snapshot`], which the serve layer uses for warm-state
/// reuse across prefix-sharing sweep points.
pub trait Simulation: Send {
    /// Advances the whole system one base cycle.
    fn step(&mut self);
    /// The current base cycle.
    fn now(&self) -> u64;
    /// Returns `true` when every master drained and the interconnect is
    /// idle.
    fn is_done(&self) -> bool;
    /// Named per-master completion logs, in declaration order.
    fn logs(&self) -> Vec<(&str, &CompletionLog)>;
    /// A backend-neutral report of the current state, polls and
    /// calendar pops included.
    fn report(&self) -> RunReport;

    /// Advances until done or `horizon`, skipping provably-dead gaps.
    /// Leaves state bit-identical to stepping every cycle.
    fn advance_to(&mut self, horizon: u64);

    /// Runs until done or `max_cycles` with the given step mode;
    /// returns whether the system drained.
    fn run_until_with(&mut self, max_cycles: u64, mode: StepMode) -> bool {
        match mode {
            StepMode::Dense => {
                while self.now() < max_cycles && !self.is_done() {
                    self.step();
                }
            }
            StepMode::Horizon => self.advance_to(max_cycles),
        }
        self.is_done()
    }

    /// Runs until done or `max_cycles` (horizon stepping); returns
    /// whether it drained.
    fn run_until(&mut self, max_cycles: u64) -> bool {
        self.run_until_with(max_cycles, StepMode::Horizon)
    }

    /// A full checkpoint of the simulation at its current cycle.
    /// Restore is implicit: continue the returned copy. Both copies
    /// replay exactly the cycles an uninterrupted run would execute —
    /// bit-identical logs and counters, pinned by the snapshot suite.
    fn snapshot(&self) -> Box<dyn Simulation>;

    /// Loads one workload per master (declaration order) into a
    /// simulation that has not started executing. Warm-state forking
    /// snapshots a programless checkpoint and injects each point's real
    /// workload through this hook. Fixed workloads load whole; streamed
    /// workloads install a feeder and prime its first window.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already stepped or the workload count
    /// does not match the master count.
    fn load_programs(&mut self, workloads: &[Workload]);
}

/// What a backend supplies beyond the [`Engine`] stepping contract so
/// the scenario layer can load it, feed it and report on it. Everything
/// else about running a scenario is [`Sim`], written once.
pub trait ScenarioEngine: Engine + Clone + Send + 'static {
    /// The backend label reports carry ("noc", "bridged", "bus").
    const LABEL: &'static str;
    /// Loads one socket program per master (declaration order) before
    /// execution starts.
    fn load_programs(&mut self, programs: &[Program]);
    /// Appends commands to the `ordinal`-th master's program, mid-run.
    fn append_commands(&mut self, ordinal: usize, tail: &[SocketCommand]);
    /// Named per-master completion logs, in declaration order.
    fn completion_logs(&self) -> Vec<(&str, &CompletionLog)>;
    /// A report of the current state: fabric aggregates and calendar
    /// pops for a backend that keeps them, no polls (the advance loop
    /// counts those).
    fn report(&self) -> RunReport;
}

impl ScenarioEngine for Soc {
    const LABEL: &'static str = "noc";
    fn load_programs(&mut self, programs: &[Program]) {
        Soc::load_programs(self, programs)
    }
    fn append_commands(&mut self, ordinal: usize, tail: &[SocketCommand]) {
        Soc::append_commands(self, ordinal, tail)
    }
    fn completion_logs(&self) -> Vec<(&str, &CompletionLog)> {
        Soc::completion_logs(self)
    }
    fn report(&self) -> RunReport {
        Soc::report(self)
    }
}

impl ScenarioEngine for BridgedInterconnect {
    const LABEL: &'static str = "bridged";
    fn load_programs(&mut self, programs: &[Program]) {
        BridgedInterconnect::load_programs(self, programs)
    }
    fn append_commands(&mut self, ordinal: usize, tail: &[SocketCommand]) {
        BridgedInterconnect::append_commands(self, ordinal, tail)
    }
    fn completion_logs(&self) -> Vec<(&str, &CompletionLog)> {
        BridgedInterconnect::completion_logs(self)
    }
    fn report(&self) -> RunReport {
        RunReport::new(Self::LABEL, self, self.completion_logs())
    }
}

impl ScenarioEngine for SharedBus {
    const LABEL: &'static str = "bus";
    fn load_programs(&mut self, programs: &[Program]) {
        SharedBus::load_programs(self, programs)
    }
    fn append_commands(&mut self, ordinal: usize, tail: &[SocketCommand]) {
        SharedBus::append_commands(self, ordinal, tail)
    }
    fn completion_logs(&self) -> Vec<(&str, &CompletionLog)> {
        SharedBus::completion_logs(self)
    }
    fn report(&self) -> RunReport {
        RunReport::new(Self::LABEL, self, self.completion_logs())
    }
}

/// A scenario running on engine `E`: the engine, the feeders streaming
/// its generated and trace workloads, and the advance loop's poll count.
/// The only [`Simulation`].
#[derive(Debug, Clone)]
pub struct Sim<E> {
    engine: E,
    feeders: FeederSet,
    polls: u64,
}

/// The NoC realisation of a scenario (paper Fig 1).
pub type NocSim = Sim<Soc>;
/// The Fig-2 bridged reference-socket realisation of a scenario.
pub type BridgedSim = Sim<BridgedInterconnect>;
/// The shared-bus realisation of a scenario.
pub type BusSim = Sim<SharedBus>;

impl<E: ScenarioEngine> Sim<E> {
    /// Wraps an engine whose masters already hold their fixed programs
    /// (or the head of their streamed ones), installing the feeders for
    /// the streamed workloads and priming their first window.
    pub(crate) fn new(engine: E, workloads: &[Workload]) -> Self {
        let mut sim = Sim {
            engine,
            feeders: FeederSet::new(workloads),
            polls: 0,
        };
        sim.refill();
        sim
    }

    fn refill(&mut self) {
        let engine = &mut self.engine;
        self.feeders.refill(engine.now(), |ordinal, tail| {
            engine.append_commands(ordinal, tail)
        });
    }

    /// The underlying engine, for backend-specific inspection (fabric
    /// counters, [`BridgedInterconnect::chopped_bursts`],
    /// [`SharedBus::grants`]).
    pub fn inner(&self) -> &E {
        &self.engine
    }

    /// Unwraps into the lower-layer engine, dropping the feeders: only
    /// meaningful when every workload is a fixed program.
    pub fn into_inner(self) -> E {
        self.engine
    }
}

impl<E: ScenarioEngine> Simulation for Sim<E> {
    fn step(&mut self) {
        self.refill();
        self.engine.step();
    }
    fn now(&self) -> u64 {
        self.engine.now()
    }
    fn is_done(&self) -> bool {
        self.feeders.exhausted() && self.engine.is_done()
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        self.engine.completion_logs()
    }
    /// The feeder wrapper around [`Engine::advance_to`]: top the
    /// streamed programs up, let the engine run to the feeders' bound,
    /// repeat.
    fn advance_to(&mut self, horizon: u64) {
        while self.engine.now() < horizon {
            self.refill();
            self.polls += self.engine.advance_to(self.feeders.bound(horizon));
            if self.is_done() {
                break;
            }
        }
    }
    fn report(&self) -> RunReport {
        RunReport {
            horizon_polls: self.polls,
            ..self.engine.report()
        }
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, workloads: &[Workload]) {
        let heads: Vec<Program> = workloads.iter().map(Workload::head_program).collect();
        self.engine.load_programs(&heads);
        self.feeders = FeederSet::new(workloads);
        self.refill();
    }
}
