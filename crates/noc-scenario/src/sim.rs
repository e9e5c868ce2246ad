//! The common simulation surface every backend realisation exposes.

use crate::program::{FeedSource, Workload};
use noc_baseline::{BridgedInterconnect, Interconnect, SharedBus};
use noc_protocols::{CompletionLog, Program, SocketCommand};
use noc_stats::Histogram;
use noc_system::{FabricReport, MasterReport, Soc, SocReport};
use noc_transaction::Fingerprint;
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
/// trace cursor's file offset, so restored runs resume the feed
/// bit-identically.
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
    /// Poll every component on every base cycle. The reference
    /// semantics, and the escape hatch when debugging a backend's
    /// quiescence bookkeeping.
    Dense,
    /// Jump simulation time across provably-dead gaps (idle countdowns,
    /// drained fabrics) via [`Simulation::advance_to`]. Bit-identical to
    /// dense stepping — pinned by the cross-backend equivalence suite —
    /// and several-fold faster on sparse workloads.
    #[default]
    Horizon,
}

impl fmt::Display for StepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepMode::Dense => f.write_str("dense"),
            StepMode::Horizon => f.write_str("horizon"),
        }
    }
}

/// A runnable realisation of a scenario, independent of the backend.
///
/// All three interconnects — NoC, bridged, bus — implement this, so
/// experiment code written against the trait runs unchanged on any of
/// them: the paper's VC-neutrality claim, restated as an API.
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
    /// A backend-neutral report of the current state.
    fn report(&self) -> ScenarioReport;

    /// Base cycles actually stepped, excluding the cycles horizon
    /// stepping jumped over. A dense run executes exactly
    /// [`Simulation::now`] steps (the default), so
    /// `dense.executed_steps() / horizon.executed_steps()` is the
    /// executed-step collapse the horizon machinery buys on a workload.
    fn executed_steps(&self) -> u64 {
        self.now()
    }

    /// The earliest base cycle at which the system's state can possibly
    /// change, or `None` when no component will ever act again.
    ///
    /// The default claims activity on every cycle — always correct, and
    /// exactly what dense stepping assumes. Backends override it with
    /// real per-component event horizons (traffic-generator countdowns,
    /// in-flight link arrivals, slave `busy_until` / bridge `respond_at`
    /// stamps) min-combined so `advance_to` can skip dead time even
    /// while traffic is in flight.
    fn next_activity(&self) -> Option<u64> {
        Some(self.now())
    }

    /// Times the advance machinery queried [`Simulation::next_activity`]
    /// — the scan-side wakeup-discipline counter. With calendar-driven
    /// stepping each poll is O(1); a backend stuck rescanning shows up
    /// as polls vastly exceeding [`Simulation::calendar_pops`]. The
    /// default (no instrumentation) reports 0.
    fn horizon_polls(&self) -> u64 {
        0
    }

    /// Calendar wakeups the backend retired while answering those polls
    /// (scheduled component wakeups popped, stale entries included).
    /// The default (no calendar) reports 0.
    fn calendar_pops(&self) -> u64 {
        0
    }

    /// Advances until done or `horizon`, skipping provably-dead gaps
    /// where the backend supports it. Must leave state bit-identical to
    /// stepping every cycle. The default cannot prove any gap dead, so
    /// it steps densely.
    fn advance_to(&mut self, horizon: u64) {
        while self.now() < horizon && !self.is_done() {
            self.step();
        }
    }

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

/// A backend-neutral simulation report: per-master results plus fabric
/// aggregates when the backend has a fabric.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Backend label ("noc", "bridged", "bus").
    pub backend: &'static str,
    /// Base cycles simulated.
    pub cycles: u64,
    /// Base cycles actually stepped (skipped cycles excluded); equals
    /// `cycles` for dense runs, so `cycles / steps` is the horizon win.
    pub steps: u64,
    /// Whether every master drained.
    pub all_done: bool,
    /// Per-master reports, in declaration order.
    pub masters: Vec<MasterReport>,
    /// Fabric aggregates (NoC backend only).
    pub fabric: Option<FabricReport>,
    /// Times the advance machinery polled `next_activity` (0 for dense
    /// runs, which never ask).
    pub horizon_polls: u64,
    /// Calendar wakeups retired while stepping (both modes execute the
    /// same events, so this is mode-independent up to run length).
    pub calendar_pops: u64,
}

impl ScenarioReport {
    /// Finds a master report whose name contains `fragment`.
    pub fn master(&self, fragment: &str) -> Option<&MasterReport> {
        self.masters.iter().find(|m| m.name.contains(fragment))
    }

    /// Total completions across masters.
    pub fn total_completions(&self) -> usize {
        self.masters.iter().map(|m| m.completions).sum()
    }

    /// Completions per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_completions() as f64 / self.cycles as f64
        }
    }

    /// Mean latency across all masters, weighted by completions. With
    /// zero completions there is no latency sample at all, so this is
    /// `NaN` — not a fabricated `0.0`. The serve layer's JSON emitter
    /// turns it into `null` and the `scn` tables print `-`.
    pub fn mean_latency(&self) -> f64 {
        let total = self.total_completions();
        if total == 0 {
            return f64::NAN;
        }
        self.masters
            .iter()
            .map(|m| m.mean_latency * m.completions as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Merged functional fingerprint over all masters.
    pub fn system_fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for m in &self.masters {
            fp.merge(&m.fingerprint);
        }
        fp
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mean = if self.total_completions() == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}cy", self.mean_latency())
        };
        writeln!(
            f,
            "{} report: {} cycles, done={}, {} completions ({:.4}/cy), mean latency {}",
            self.backend,
            self.cycles,
            self.all_done,
            self.total_completions(),
            self.throughput(),
            mean
        )?;
        for m in &self.masters {
            writeln!(f, "  {m}")?;
        }
        if let Some(fab) = &self.fabric {
            write!(
                f,
                "  fabric: {} flits, {} pkts, {} credit stalls, {} conflicts, {} lock-idle",
                fab.flits_forwarded,
                fab.packets_forwarded,
                fab.credit_stalls,
                fab.arbitration_conflicts,
                fab.lock_idle_cycles
            )?;
        }
        Ok(())
    }
}

fn master_report_from_log(name: &str, node: u16, log: &CompletionLog) -> MasterReport {
    let mut latency = Histogram::new();
    for r in log.records() {
        latency.record(r.latency());
    }
    MasterReport {
        name: name.to_owned(),
        node,
        completions: log.len(),
        errors: log.errors(),
        mean_latency: log.mean_latency(),
        latency,
        fingerprint: log.fingerprint(),
    }
}

/// The NoC realisation of a scenario (paper Fig 1).
#[derive(Clone)]
pub struct NocSim {
    soc: Soc,
    feeders: FeederSet,
}

impl NocSim {
    pub(crate) fn new(soc: Soc) -> Self {
        NocSim {
            soc,
            feeders: FeederSet::default(),
        }
    }

    /// Installs the streamed-workload feeders and primes their first
    /// window (fixed programs are already loaded into the masters).
    pub(crate) fn attach_workloads(&mut self, workloads: &[Workload]) {
        self.feeders = FeederSet::new(workloads);
        let soc = &mut self.soc;
        self.feeders.refill(soc.now(), |ordinal, tail| {
            soc.append_commands(ordinal, tail)
        });
    }

    /// The underlying SoC, for fabric-level inspection.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Unwraps into the lower-layer [`Soc`].
    pub fn into_inner(self) -> Soc {
        self.soc
    }

    /// The full NoC-native report (fabric counters included).
    pub fn soc_report(&self) -> SocReport {
        self.soc.report()
    }
}

impl Simulation for NocSim {
    fn step(&mut self) {
        let soc = &mut self.soc;
        self.feeders.refill(soc.now(), |ordinal, tail| {
            soc.append_commands(ordinal, tail)
        });
        self.soc.step();
    }
    fn now(&self) -> u64 {
        self.soc.now()
    }
    fn is_done(&self) -> bool {
        self.feeders.exhausted() && self.soc.is_done()
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        self.soc.completion_logs()
    }
    fn executed_steps(&self) -> u64 {
        self.soc.executed_steps()
    }
    fn next_activity(&self) -> Option<u64> {
        self.soc.next_activity()
    }
    fn advance_to(&mut self, horizon: u64) {
        while self.soc.now() < horizon {
            let soc = &mut self.soc;
            self.feeders.refill(soc.now(), |ordinal, tail| {
                soc.append_commands(ordinal, tail)
            });
            self.soc.advance_to(self.feeders.bound(horizon));
            if Simulation::is_done(self) || self.soc.now() >= horizon {
                break;
            }
        }
    }
    fn horizon_polls(&self) -> u64 {
        self.soc.horizon_polls()
    }
    fn calendar_pops(&self) -> u64 {
        self.soc.calendar_pops()
    }
    fn report(&self) -> ScenarioReport {
        let r = self.soc.report();
        ScenarioReport {
            backend: "noc",
            cycles: r.cycles,
            steps: self.soc.executed_steps(),
            all_done: r.all_done,
            masters: r.masters,
            fabric: Some(r.fabric),
            horizon_polls: self.soc.horizon_polls(),
            calendar_pops: self.soc.calendar_pops(),
        }
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, workloads: &[Workload]) {
        let heads: Vec<Program> = workloads.iter().map(Workload::head_program).collect();
        self.soc.load_programs(&heads);
        self.attach_workloads(workloads);
    }
}

impl fmt::Debug for NocSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NocSim").field("soc", &self.soc).finish()
    }
}

fn baseline_report<I: Interconnect>(
    backend: &'static str,
    ic: &I,
    names: &[String],
) -> ScenarioReport {
    let masters = names
        .iter()
        .zip(ic.logs())
        .enumerate()
        .map(|(i, (name, log))| master_report_from_log(name, i as u16, log))
        .collect();
    ScenarioReport {
        backend,
        cycles: ic.now(),
        steps: ic.executed_steps(),
        all_done: ic.is_done(),
        masters,
        fabric: None,
        horizon_polls: ic.horizon_polls(),
        calendar_pops: ic.calendar_pops(),
    }
}

fn baseline_logs<'a, I: Interconnect>(
    ic: &'a I,
    names: &'a [String],
) -> Vec<(&'a str, &'a CompletionLog)> {
    names.iter().map(String::as_str).zip(ic.logs()).collect()
}

/// The Fig-2 bridged reference-socket realisation of a scenario.
#[derive(Debug, Clone)]
pub struct BridgedSim {
    ic: BridgedInterconnect,
    names: Vec<String>,
    feeders: FeederSet,
}

impl BridgedSim {
    pub(crate) fn new(ic: BridgedInterconnect, names: Vec<String>) -> Self {
        BridgedSim {
            ic,
            names,
            feeders: FeederSet::default(),
        }
    }

    /// Installs the streamed-workload feeders and primes their first
    /// window (fixed programs are already loaded into the masters).
    pub(crate) fn attach_workloads(&mut self, workloads: &[Workload]) {
        self.feeders = FeederSet::new(workloads);
        let ic = &mut self.ic;
        self.feeders.refill(Interconnect::now(ic), |ordinal, tail| {
            ic.append_commands(ordinal, tail)
        });
    }

    /// The underlying interconnect, for bridge-specific counters such as
    /// [`BridgedInterconnect::chopped_bursts`].
    pub fn inner(&self) -> &BridgedInterconnect {
        &self.ic
    }

    /// Unwraps into the lower-layer interconnect.
    pub fn into_inner(self) -> BridgedInterconnect {
        self.ic
    }
}

impl Simulation for BridgedSim {
    fn step(&mut self) {
        let ic = &mut self.ic;
        self.feeders.refill(Interconnect::now(ic), |ordinal, tail| {
            ic.append_commands(ordinal, tail)
        });
        Interconnect::step(&mut self.ic);
    }
    fn now(&self) -> u64 {
        Interconnect::now(&self.ic)
    }
    fn is_done(&self) -> bool {
        self.feeders.exhausted() && Interconnect::is_done(&self.ic)
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        baseline_logs(&self.ic, &self.names)
    }
    fn executed_steps(&self) -> u64 {
        self.ic.executed_steps()
    }
    fn next_activity(&self) -> Option<u64> {
        self.ic.next_activity()
    }
    fn horizon_polls(&self) -> u64 {
        self.ic.horizon_polls()
    }
    fn calendar_pops(&self) -> u64 {
        self.ic.calendar_pops()
    }
    fn advance_to(&mut self, horizon: u64) {
        while Interconnect::now(&self.ic) < horizon {
            let ic = &mut self.ic;
            self.feeders.refill(Interconnect::now(ic), |ordinal, tail| {
                ic.append_commands(ordinal, tail)
            });
            self.ic.advance_to(self.feeders.bound(horizon));
            if Simulation::is_done(self) || Interconnect::now(&self.ic) >= horizon {
                break;
            }
        }
    }
    fn report(&self) -> ScenarioReport {
        baseline_report("bridged", &self.ic, &self.names)
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, workloads: &[Workload]) {
        let heads: Vec<Program> = workloads.iter().map(Workload::head_program).collect();
        self.ic.load_programs(&heads);
        self.attach_workloads(workloads);
    }
}

/// The shared-bus realisation of a scenario.
#[derive(Debug, Clone)]
pub struct BusSim {
    bus: SharedBus,
    names: Vec<String>,
    feeders: FeederSet,
}

impl BusSim {
    pub(crate) fn new(bus: SharedBus, names: Vec<String>) -> Self {
        BusSim {
            bus,
            names,
            feeders: FeederSet::default(),
        }
    }

    /// Installs the streamed-workload feeders and primes their first
    /// window (fixed programs are already loaded into the masters).
    pub(crate) fn attach_workloads(&mut self, workloads: &[Workload]) {
        self.feeders = FeederSet::new(workloads);
        let bus = &mut self.bus;
        self.feeders
            .refill(Interconnect::now(bus), |ordinal, tail| {
                bus.append_commands(ordinal, tail)
            });
    }

    /// The underlying bus, for bus-specific counters such as
    /// [`SharedBus::grants`].
    pub fn inner(&self) -> &SharedBus {
        &self.bus
    }

    /// Unwraps into the lower-layer bus.
    pub fn into_inner(self) -> SharedBus {
        self.bus
    }
}

impl Simulation for BusSim {
    fn step(&mut self) {
        let bus = &mut self.bus;
        self.feeders
            .refill(Interconnect::now(bus), |ordinal, tail| {
                bus.append_commands(ordinal, tail)
            });
        Interconnect::step(&mut self.bus);
    }
    fn now(&self) -> u64 {
        Interconnect::now(&self.bus)
    }
    fn is_done(&self) -> bool {
        self.feeders.exhausted() && Interconnect::is_done(&self.bus)
    }
    fn logs(&self) -> Vec<(&str, &CompletionLog)> {
        baseline_logs(&self.bus, &self.names)
    }
    fn executed_steps(&self) -> u64 {
        self.bus.executed_steps()
    }
    fn next_activity(&self) -> Option<u64> {
        self.bus.next_activity()
    }
    fn horizon_polls(&self) -> u64 {
        self.bus.horizon_polls()
    }
    fn calendar_pops(&self) -> u64 {
        self.bus.calendar_pops()
    }
    fn advance_to(&mut self, horizon: u64) {
        while Interconnect::now(&self.bus) < horizon {
            let bus = &mut self.bus;
            self.feeders
                .refill(Interconnect::now(bus), |ordinal, tail| {
                    bus.append_commands(ordinal, tail)
                });
            self.bus.advance_to(self.feeders.bound(horizon));
            if Simulation::is_done(self) || Interconnect::now(&self.bus) >= horizon {
                break;
            }
        }
    }
    fn report(&self) -> ScenarioReport {
        baseline_report("bus", &self.bus, &self.names)
    }
    fn snapshot(&self) -> Box<dyn Simulation> {
        Box::new(self.clone())
    }
    fn load_programs(&mut self, workloads: &[Workload]) {
        let heads: Vec<Program> = workloads.iter().map(Workload::head_program).collect();
        self.bus.load_programs(&heads);
        self.attach_workloads(workloads);
    }
}
