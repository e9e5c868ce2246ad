//! The operation: what a user pays for with `scn FILE` (or one warm
//! serve request), and the checks on its output.

use crate::json::Json;
use crate::trace::Tracer;
use crate::workloads::{declared_commands, Input};
use noc_scenario::{Backend, ScenarioReport, ScenarioSpec, StepMode};
use noc_serve::{CheckpointCache, Request, ServeConfig, ServeStats};
use std::path::Path;
use std::sync::Mutex;

/// What one simulation run (one backend of a scenario, or one sweep
/// point) produced, as far as the checks need it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFacts {
    pub drained: bool,
    pub all_done: bool,
    pub errors: u64,
    pub cycles: u64,
    pub completions: u64,
    pub fingerprint: String,
}

impl RunFacts {
    fn of(drained: bool, report: &ScenarioReport) -> RunFacts {
        RunFacts {
            drained,
            all_done: report.all_done,
            errors: report.masters.iter().map(|m| m.errors as u64).sum(),
            cycles: report.cycles,
            completions: report.total_completions() as u64,
            fingerprint: report.system_fingerprint().to_string(),
        }
    }
}

/// What one operation returned. Serve records are decoded by
/// [`OpOutput::facts`], after the operation's clock has stopped.
pub enum OpOutput {
    Runs(Vec<RunFacts>),
    Records(Vec<u8>),
}

impl OpOutput {
    pub fn facts(self) -> Result<Vec<RunFacts>, String> {
        match self {
            OpOutput::Runs(facts) => Ok(facts),
            OpOutput::Records(records) => point_facts(&records),
        }
    }
}

/// How a workload executes its input file.
pub enum Executor {
    /// `scn FILE`: parse, validate, then build, run and report on every
    /// backend in turn.
    Scenario { backends: Vec<Backend>, budget: u64 },
    /// One request against a resident single-threaded server.
    Serve {
        config: ServeConfig,
        cache: Mutex<CheckpointCache>,
    },
}

impl Executor {
    /// A resident server with one fan-out thread: a second one on a
    /// 2-core host measures the scheduler (see README).
    pub fn serve() -> Executor {
        let config = ServeConfig {
            threads: Some(1),
            ..ServeConfig::default()
        };
        Executor::Serve {
            cache: Mutex::new(CheckpointCache::new(config.cache_capacity)),
            config,
        }
    }

    /// Runs one operation on the input file at `path`. `Err` is an input
    /// the program refused; a run that fails to drain is reported through
    /// its [`RunFacts`].
    pub fn op(&self, path: &Path, t: &mut Tracer) -> Result<OpOutput, String> {
        match self {
            Executor::Scenario { backends, budget } => {
                let spec = t.span("parse", |_| {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    ScenarioSpec::from_text(&text).map_err(|e| e.to_string())
                })?;
                t.span("validate", |_| spec.validate())
                    .map_err(|e| e.to_string())?;
                let mut facts = Vec::with_capacity(backends.len());
                for backend in backends {
                    let mut sim = t
                        .span("build", |_| spec.build(backend))
                        .map_err(|e| e.to_string())?;
                    let drained =
                        t.span("step", |_| sim.run_until_with(*budget, StepMode::Horizon));
                    // Tearing the simulation down is part of what the
                    // user waits for, so it is timed with the report.
                    facts.push(t.span("report", move |_| RunFacts::of(drained, &sim.report())));
                }
                Ok(OpOutput::Runs(facts))
            }
            Executor::Serve { config, cache } => {
                let request = t.span("parse", |_| {
                    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                    Request::from_text("bench", &path.display().to_string(), &text)
                        .map_err(|e| e.to_string())
                })?;
                // The request is moved in, so freeing the parsed document
                // is timed as part of the operation's last phase.
                let (records, _) = t.span("execute", move |_| execute(&request, config, cache))?;
                Ok(OpOutput::Records(records))
            }
        }
    }
}

/// Executes `request`, returning the streamed records and the tallies.
pub fn execute(
    request: &Request,
    config: &ServeConfig,
    cache: &Mutex<CheckpointCache>,
) -> Result<(Vec<u8>, ServeStats), String> {
    let mut records = Vec::new();
    let mut stats = ServeStats::default();
    noc_serve::server::execute_request(request, config, cache, &mut records, &mut stats)
        .map_err(|e| e.to_string())?;
    Ok((records, stats))
}

/// Reads the per-point records of one serve response.
fn point_facts(records: &[u8]) -> Result<Vec<RunFacts>, String> {
    let text = std::str::from_utf8(records).map_err(|e| e.to_string())?;
    let mut facts = Vec::new();
    for line in text.lines() {
        let record = Json::parse(line)?;
        let status = record.get("status").and_then(Json::as_str);
        if status == Some("done") {
            continue;
        }
        let number = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let ok = status == Some("ok");
        facts.push(RunFacts {
            drained: ok,
            all_done: ok,
            // The record carries no error count; the set-up reference
            // run checked it on the same input.
            errors: 0,
            cycles: number("cycles"),
            completions: number("completions"),
            fingerprint: record
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        });
    }
    Ok(facts)
}

/// Runs every scenario of `input` on every backend directly through the
/// library, under `mode`: the reference the operations are checked
/// against, and the source of the simulated-time metrics.
pub fn reference_runs(
    input: &Input,
    backends: &[Backend],
    budget: u64,
    mode: StepMode,
) -> Result<Vec<(RunFacts, ScenarioReport)>, String> {
    let mut runs = Vec::new();
    for spec in input.scenarios() {
        for backend in backends {
            let mut sim = spec.build(backend).map_err(|e| e.to_string())?;
            let drained = sim.run_until_with(budget, mode);
            let report = sim.report();
            runs.push((RunFacts::of(drained, &report), report));
        }
    }
    Ok(runs)
}

/// Checks one operation's output against the reference runs of its
/// variant and the generators' declared command counts.
pub fn verify(facts: &[RunFacts], reference: &[RunFacts], input: &Input) -> Result<(), String> {
    if facts.len() != reference.len() {
        return Err(format!(
            "{} runs reported, {} expected",
            facts.len(),
            reference.len()
        ));
    }
    let scenarios = input.scenarios();
    let runs_per_scenario = reference.len() / scenarios.len();
    for (i, (got, want)) in facts.iter().zip(reference).enumerate() {
        let declared = declared_commands(scenarios[i / runs_per_scenario]);
        if !got.drained || !got.all_done {
            return Err(format!("run {i} did not drain within its cycle budget"));
        }
        if got.errors != 0 {
            return Err(format!("run {i} reported {} master errors", got.errors));
        }
        if got.completions != declared {
            return Err(format!(
                "run {i} completed {} of {declared} declared commands",
                got.completions
            ));
        }
        if got != want {
            return Err(format!(
                "run {i} diverged from its reference: {got:?} vs {want:?}"
            ));
        }
    }
    Ok(())
}
