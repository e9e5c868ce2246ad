//! The common simulation surface every backend realisation exposes:
//! [`Simulation`], implemented once by [`Sim`] — a backend's engine,
//! whose masters were built with their whole programs, plus the count of
//! horizon polls its advance loop made.

use crate::names::{name_of, named, Names};
use noc_baseline::{BridgedInterconnect, SharedBus};
use noc_kernel::Engine;
use noc_protocols::{CompletionLog, Program};
use noc_system::{RunReport, Soc};
use std::fmt;

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

    /// Loads one program per master (declaration order,
    /// [`crate::ScenarioSpec::programs`]) into a simulation that has not
    /// started executing: the run is the one a spec built with those
    /// programs makes. Warm-state forking snapshots a programless
    /// checkpoint and loads each point's programs through this hook.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already stepped or the program count
    /// does not match the master count.
    fn load_programs(&mut self, programs: &[Program]);
}

/// What a backend supplies beyond the [`Engine`] stepping contract so
/// the scenario layer can load it and report on it. Everything
/// else about running a scenario is [`Sim`], written once.
pub trait ScenarioEngine: Engine + Clone + Send + 'static {
    /// The backend label reports carry ("noc", "bridged", "bus").
    const LABEL: &'static str;
    /// Loads one socket program per master (declaration order) before
    /// execution starts.
    fn load_programs(&mut self, programs: &[Program]);
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
    fn completion_logs(&self) -> Vec<(&str, &CompletionLog)> {
        SharedBus::completion_logs(self)
    }
    fn report(&self) -> RunReport {
        RunReport::new(Self::LABEL, self, self.completion_logs())
    }
}

/// A scenario running on engine `E`: the engine, whose masters hold
/// their whole programs, and the advance loop's poll count. The only
/// [`Simulation`].
#[derive(Debug, Clone)]
pub struct Sim<E> {
    engine: E,
    polls: u64,
}

/// The NoC realisation of a scenario (paper Fig 1).
pub type NocSim = Sim<Soc>;
/// The Fig-2 bridged reference-socket realisation of a scenario.
pub type BridgedSim = Sim<BridgedInterconnect>;
/// The shared-bus realisation of a scenario.
pub type BusSim = Sim<SharedBus>;

impl<E: ScenarioEngine> Sim<E> {
    /// Wraps an engine whose masters already hold their programs.
    pub(crate) fn new(engine: E) -> Self {
        Sim { engine, polls: 0 }
    }

    /// The underlying engine, for backend-specific inspection (fabric
    /// counters, [`BridgedInterconnect::chopped_bursts`],
    /// [`SharedBus::grants`]).
    pub fn inner(&self) -> &E {
        &self.engine
    }

    /// Unwraps into the lower-layer engine, dropping the poll count.
    pub fn into_inner(self) -> E {
        self.engine
    }
}

impl<E: ScenarioEngine> Simulation for Sim<E> {
    fn step(&mut self) {
        self.engine.step();
    }
    fn now(&self) -> u64 {
        self.engine.now()
    }
    fn is_done(&self) -> bool {
        self.engine.is_done()
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        self.engine.completion_logs()
    }
    fn advance_to(&mut self, horizon: u64) {
        self.polls += self.engine.advance_to(horizon);
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
    fn load_programs(&mut self, programs: &[Program]) {
        self.engine.load_programs(programs);
    }
}
