//! Batched simulation sweeps over parameter grids.
//!
//! The paper's experiments all share one shape: build N scenario
//! variants (different command counts, seeds, link and buffer
//! configurations, topologies or backends), run each to completion, and
//! tabulate the reports. [`Sweep`] captures that shape once, and a sweep
//! file in the `tests/scenarios/` corpus states one experiment. Points are independent, so the
//! runner fans them out across OS threads and reassembles the results
//! in declaration order.

use crate::sim::StepMode;
use crate::spec::{Backend, ScenarioError, ScenarioSpec};
use noc_system::RunReport;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One cell of a sweep: a labelled spec/backend pair.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Row label for tables.
    pub label: String,
    /// The scenario variant.
    pub spec: ScenarioSpec,
    /// The interconnect to compile it to.
    pub backend: Backend,
    /// Per-point step-mode override; `None` uses the sweep's mode. Lets
    /// one grid mix reference (dense) and fast (horizon) rows.
    pub step: Option<StepMode>,
}

impl SweepPoint {
    /// A point running under the sweep's default step mode.
    pub fn new(label: &str, spec: ScenarioSpec, backend: Backend) -> Self {
        SweepPoint {
            label: label.to_owned(),
            spec,
            backend,
            step: None,
        }
    }

    /// Overrides how this point advances simulation time.
    #[must_use]
    pub fn with_step(mut self, step: StepMode) -> Self {
        self.step = Some(step);
        self
    }
}

/// The result of one sweep point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The point's label.
    pub label: String,
    /// Its report after running.
    pub report: RunReport,
}

/// A batch of scenario simulations expanded from a parameter grid.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub(crate) points: Vec<SweepPoint>,
    pub(crate) max_cycles: u64,
    pub(crate) step_mode: StepMode,
    pub(crate) threads: Option<usize>,
}

impl Sweep {
    /// An empty sweep with a 10M-cycle per-point budget, horizon
    /// stepping, and one worker per available core.
    pub fn new() -> Self {
        Sweep {
            points: Vec::new(),
            max_cycles: 10_000_000,
            step_mode: StepMode::Horizon,
            threads: None,
        }
    }

    /// Expands one parameter axis: one point per item.
    pub fn over<T>(
        items: impl IntoIterator<Item = T>,
        mut point: impl FnMut(T) -> (String, ScenarioSpec, Backend),
    ) -> Self {
        let mut sweep = Sweep::new();
        for item in items {
            let (label, spec, backend) = point(item);
            sweep = sweep.point(&label, spec, backend);
        }
        sweep
    }

    /// Expands the cartesian product of two parameter axes.
    pub fn grid<A: Clone, B: Clone>(
        xs: impl IntoIterator<Item = A>,
        ys: impl IntoIterator<Item = B> + Clone,
        mut point: impl FnMut(A, B) -> (String, ScenarioSpec, Backend),
    ) -> Self {
        let mut sweep = Sweep::new();
        for x in xs {
            for y in ys.clone() {
                let (label, spec, backend) = point(x.clone(), y);
                sweep = sweep.point(&label, spec, backend);
            }
        }
        sweep
    }

    /// Adds one labelled point.
    #[must_use]
    pub fn point(mut self, label: &str, spec: ScenarioSpec, backend: Backend) -> Self {
        self.points.push(SweepPoint::new(label, spec, backend));
        self
    }

    /// Adds a fully-specified point (e.g. one carrying a step override).
    #[must_use]
    pub fn with_point(mut self, point: SweepPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Sets the per-point cycle budget.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Sets how each point advances simulation time (default:
    /// [`StepMode::Horizon`]).
    #[must_use]
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = mode;
        self
    }

    /// Caps the worker thread count (default: one per available core).
    /// `1` forces the sequential path.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Mutable access to the expanded points (for in-place fixups such
    /// as [`ScenarioSpec::resolve_trace_paths`](crate::ScenarioSpec::resolve_trace_paths)).
    pub fn points_mut(&mut self) -> &mut [SweepPoint] {
        &mut self.points
    }

    /// The expanded points.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The per-point cycle budget.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// The default step mode (points may override it).
    pub fn step_mode(&self) -> StepMode {
        self.step_mode
    }

    /// The worker-thread cap, if one was set.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    fn run_point(&self, p: &SweepPoint) -> Result<SweepResult, ScenarioError> {
        let mut sim = p.spec.build(&p.backend)?;
        assert!(
            sim.run_until_with(self.max_cycles, p.step.unwrap_or(self.step_mode)),
            "sweep point {:?} failed to drain in {} cycles",
            p.label,
            self.max_cycles
        );
        Ok(SweepResult {
            label: p.label.clone(),
            report: sim.report(),
        })
    }

    fn worker_count(threads: Option<usize>, n: usize) -> usize {
        threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .min(n.max(1))
    }

    /// The generic fan-out under every sweep runner: executes `exec`
    /// once per point across at most `threads` workers (`None`: one per
    /// core; the sweep's own cap is [`Sweep::threads`]) and hands each
    /// outcome to `emit` in declaration order, as soon as the point and
    /// all its predecessors have finished — no whole-grid buffering.
    ///
    /// `exec` decides what running a point *means*, which is how the
    /// serve layer reuses this machinery with checkpoint forking and
    /// per-point error capture instead of [`Sweep::run`]'s
    /// build-and-drain semantics.
    ///
    /// # Panics
    ///
    /// Propagates panics from `exec` after the surviving workers finish
    /// their in-flight points.
    pub fn run_streaming_with<T, E, F>(&self, threads: Option<usize>, exec: E, mut emit: F)
    where
        T: Send,
        E: Fn(usize, &SweepPoint) -> T + Sync,
        F: FnMut(usize, T),
    {
        let n = self.points.len();
        let workers = Self::worker_count(threads, n);
        if workers <= 1 {
            for (i, p) in self.points.iter().enumerate() {
                emit(i, exec(i, p));
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let exec = &exec;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let outcome = exec(i, &self.points[i]);
                    if tx.send((i, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Reorder completions into declaration order; emit each
            // point the moment its predecessors are out. A worker panic
            // drops its sender without sending, so the channel
            // disconnects once the others drain and the scope join
            // propagates the panic.
            let mut pending: BTreeMap<usize, T> = BTreeMap::new();
            let mut emitted = 0;
            while emitted < n {
                let Ok((i, outcome)) = rx.recv() else {
                    break;
                };
                pending.insert(i, outcome);
                while let Some(ready) = pending.remove(&emitted) {
                    emit(emitted, ready);
                    emitted += 1;
                }
            }
        });
    }

    /// Streaming variant of [`Sweep::run`]: identical semantics (upfront
    /// compile check, drain-or-panic), but each result is handed to
    /// `emit` in declaration order as soon as it — and everything before
    /// it — has finished, instead of buffering the whole grid.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] in declaration order before
    /// anything is simulated or emitted.
    ///
    /// # Panics
    ///
    /// Panics if a point fails to drain within the cycle budget.
    pub fn run_streaming(&self, emit: impl FnMut(usize, SweepResult)) -> Result<(), ScenarioError> {
        // Fail fast before burning simulated cycles: compiling a point
        // is microseconds next to running it, so check them all (in
        // declaration order) before the fan-out. This also keeps a
        // later point's failure-to-drain panic from masking an earlier
        // point's typed error.
        for p in &self.points {
            drop(p.spec.build(&p.backend)?);
        }
        self.run_streaming_with(
            self.threads,
            |_, p| {
                self.run_point(p)
                    .expect("points compile-checked before the fan-out")
            },
            emit,
        );
        Ok(())
    }

    /// Builds and runs every point, fanned out across threads; results
    /// come back in declaration order.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] in declaration order. Every
    /// point is compile-checked up front, so nothing is simulated when
    /// any point is inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if a point fails to drain within the cycle budget — a
    /// sweep result with missing completions would silently skew every
    /// downstream table.
    pub fn run(&self) -> Result<Vec<SweepResult>, ScenarioError> {
        let mut results = Vec::with_capacity(self.points.len());
        self.run_streaming(|_, result| results.push(result))?;
        Ok(results)
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}
