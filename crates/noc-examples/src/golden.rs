//! The corpus golden, `tests/scenarios/GOLDEN.txt`: one line per corpus
//! file × sweep point × backend holding every host-independent number
//! of the drained horizon run — so a timing, step-count, wake-up or
//! record change anywhere in the stack is a diff in a committed file.
//! `gen_scenarios` writes it; the corpus differential in
//! `tests/scenario_text.rs` renders the same text from the runs it makes
//! anyway and compares exactly ([`render`] serves both). [`run`] is also
//! the one way `scn` runs a spec, so its tables and the golden read the
//! same runs.

use noc_protocols::CompletionRecord;
use noc_scenario::{Backend, Document, RunReport, ScenarioError, ScenarioSpec, StepMode};
use std::fmt;

/// The golden's file name, next to the corpus files it pins.
pub const FILE_NAME: &str = "GOLDEN.txt";

const HEADER: &str = "\
# Generated by `cargo run -p noc-examples --bin gen_scenarios`; compared exactly by
# tests/scenario_text.rs. One line per corpus file, sweep point (`-` for a plain
# scenario) and backend: the drained horizon run's cycles, executed steps,
# next_activity polls, calendar pops (wheel entries retired; a flit on a
# one-cycle link files none), completions, functional fingerprint and an
# order-sensitive digest of every completion record's (master, index, status,
# issued_at, completed_at). A diff here is a behaviour change to justify.
";

/// The drain budget of a golden row, and `scn`'s default for plain
/// scenario files.
pub const MAX_CYCLES: u64 = 10_000_000;

/// One run: the report its golden row and `scn`'s tables are read from,
/// and the per-master records the dense ≡ horizon differential compares
/// in full.
#[derive(Debug, Clone)]
pub struct Run {
    /// Whether the simulation drained within its budget.
    pub drained: bool,
    /// The backend-neutral report of the finished simulation.
    pub report: RunReport,
    /// Every master's completion records, in declaration and log order.
    pub logs: Vec<Vec<CompletionRecord>>,
}

impl Run {
    /// Order-sensitive FNV-1a digest of every record's master ordinal,
    /// `index`, `status`, `issued_at` and `completed_at`, in log order.
    pub fn digest(&self) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for (master, records) in self.logs.iter().enumerate() {
            for r in records {
                let status = u64::from(r.status.encode());
                for word in [
                    master as u64,
                    r.index as u64,
                    status,
                    r.issued_at,
                    r.completed_at,
                ] {
                    for byte in word.to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        digest
    }
}

/// The golden row: the report's golden rows, then the digest of the
/// logs.
impl fmt::Display for Run {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.report.metrics().iter().filter(|row| row.golden) {
            write!(f, "{row} ")?;
        }
        write!(f, "digest={:016x}", self.digest())
    }
}

/// Builds `spec` on `backend` and runs it under `mode` until it drains
/// or reaches `max_cycles`.
///
/// # Errors
///
/// Returns the backend's build error.
pub fn run(
    spec: &ScenarioSpec,
    backend: &Backend,
    mode: StepMode,
    max_cycles: u64,
) -> Result<Run, ScenarioError> {
    let mut sim = spec.build(backend)?;
    let drained = sim.run_until_with(max_cycles, mode);
    let logs = sim
        .logs()
        .iter()
        .map(|(_, log)| log.records().to_vec())
        .collect();
    Ok(Run {
        drained,
        report: sim.report(),
        logs,
    })
}

/// Renders the golden over `docs` — corpus documents sorted by file
/// name, trace paths resolved — taking the run of each point × backend
/// cell from `cell(file, point, spec, backend)`: `gen_scenarios` passes a
/// plain horizon [`run`], the corpus test a closure that also checks the
/// cell. A baseline's typed refusal of divided clocks or of a target
/// kind becomes a `skipped:` line.
///
/// # Panics
///
/// Panics, naming the cell, on any other error and on a run that did
/// not drain.
pub fn render(
    docs: &[(String, Document)],
    mut cell: impl FnMut(&str, &str, &ScenarioSpec, &Backend) -> Result<Run, ScenarioError>,
) -> String {
    let mut text = String::from(HEADER);
    for (file, doc) in docs {
        // A plain scenario is its own single point `-`.
        let points: Vec<(&str, &ScenarioSpec)> = match doc {
            Document::Scenario(spec) => vec![("-", spec)],
            Document::Sweep(sweep) => {
                let points = sweep.points().iter();
                points.map(|p| (p.label.as_str(), &p.spec)).collect()
            }
        };
        for (point, spec) in points {
            for (_, make) in Backend::NAMES {
                let backend = make();
                let row = match cell(file, point, spec, &backend) {
                    Ok(run) if run.drained => run.to_string(),
                    Ok(_) => {
                        panic!("{file} {point} {backend}: failed to drain in {MAX_CYCLES} cycles")
                    }
                    Err(
                        e @ (ScenarioError::UnsupportedClock { .. }
                        | ScenarioError::UnsupportedTarget { .. }),
                    ) => format!("skipped: {e}"),
                    Err(e) => panic!("{file} {point} {backend}: {e}"),
                };
                text.push_str(&format!("{file} {point} {backend} {row}\n"));
            }
        }
    }
    text
}
