//! Simulation reports: typed storage plus one list of rows per level.
//!
//! A report keeps its numbers in typed fields, and [`RunReport::metrics`]
//! and [`MasterReport::metrics`] read them out as [`Metric`] rows. Every
//! sink prints from those rows — `Display`, the `scn` tables, the serve
//! JSON record and the corpus golden — so a new counter is one field,
//! its count site and one row.

use noc_kernel::Engine;
use noc_protocols::CompletionLog;
use noc_stats::Histogram;
use noc_transaction::Fingerprint;
use std::fmt;
use Value::{Count, Mean, Rate};

/// The value of one report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count.
    Count(u64),
    /// An average in cycles, printed to one decimal.
    Mean(f64),
    /// A per-cycle rate, printed to four decimals.
    Rate(f64),
    /// A functional fingerprint (`fp:…/N`).
    Fingerprint(Fingerprint),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Count(n) => write!(f, "{n}"),
            Mean(x) => write!(f, "{x:.1}"),
            Rate(x) => write!(f, "{x:.4}"),
            Value::Fingerprint(fp) => write!(f, "{fp}"),
        }
    }
}

/// One report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The row's name: a serve JSON key and a golden column label.
    pub name: &'static str,
    /// What one unit of the value is; empty for a plain count of what
    /// the name says.
    pub unit: &'static str,
    /// `None` when there is nothing to report: no latency sample, or no
    /// fabric on a baseline.
    pub value: Option<Value>,
    /// Whether the row is a column of `tests/scenarios/GOLDEN.txt`.
    /// Golden rows are host-independent and carry no unit.
    pub golden: bool,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: Option<Value>) -> Self {
        Metric {
            name,
            unit,
            value,
            golden: false,
        }
    }

    fn golden(name: &'static str, value: Value) -> Self {
        Metric {
            name,
            unit: "",
            value: Some(value),
            golden: true,
        }
    }
}

/// `name=value` with its unit, or `name=-` without a value; a
/// fingerprint labels itself.
impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(Value::Fingerprint(fp)) => write!(f, "{fp}"),
            Some(v) => write!(f, "{}={v}{}", self.name, self.unit),
            None => write!(f, "{}=-", self.name),
        }
    }
}

/// Per-master results.
#[derive(Debug, Clone)]
pub struct MasterReport {
    /// Endpoint name given at build time.
    pub name: String,
    /// Completed socket commands.
    pub completions: usize,
    /// Error completions (including clean exclusive failures).
    pub errors: usize,
    /// Full latency distribution.
    pub latency: Histogram,
    /// Order-insensitive functional fingerprint of all completions.
    pub fingerprint: Fingerprint,
}

impl MasterReport {
    /// Summarises one master's completion log.
    pub fn from_log((name, log): (&str, &CompletionLog)) -> Self {
        let mut latency = Histogram::new();
        for r in log.records() {
            latency.record(r.latency());
        }
        MasterReport {
            name: name.to_owned(),
            completions: log.len(),
            errors: log.errors(),
            latency,
            fingerprint: log.fingerprint(),
        }
    }

    /// Mean socket-observed latency in cycles; `NaN` when nothing
    /// completed, since there is no sample.
    pub fn mean_latency(&self) -> f64 {
        if self.latency.is_empty() {
            f64::NAN
        } else {
            self.latency.mean()
        }
    }

    /// The master's rows.
    pub fn metrics(&self) -> Vec<Metric> {
        let mean = (!self.latency.is_empty()).then(|| Mean(self.mean_latency()));
        let p95 = self.latency.percentile(0.95).map(Count);
        let fingerprint = Some(Value::Fingerprint(self.fingerprint));
        vec![
            Metric::new("completions", "", Some(Count(self.completions as u64))),
            Metric::new("errors", "", Some(Count(self.errors as u64))),
            Metric::new("mean_latency", "cy", mean),
            Metric::new("p95_latency", "cy", p95),
            Metric::new("fingerprint", "", fingerprint),
        ]
    }
}

/// Aggregate NoC results: the two fabrics, and the endpoint work that
/// steps them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricReport {
    /// Endpoint ticks the step loop executed; the clock edges charged
    /// through `skip_ticks` instead are not counted.
    pub endpoint_ticks: u64,
    /// Flits delivered to targets (request network).
    pub request_flits: u64,
    /// Flits delivered to initiators (response network).
    pub response_flits: u64,
    /// Flits forwarded by all switches (both networks).
    pub flits_forwarded: u64,
    /// Packets forwarded by all switches.
    pub packets_forwarded: u64,
    /// Output-cycles lost to missing credits.
    pub credit_stalls: u64,
    /// Allocation conflicts (contention indicator).
    pub arbitration_conflicts: u64,
    /// Output-cycles pinned idle by legacy locks.
    pub lock_idle_cycles: u64,
    /// Mean per-link latency in base cycles.
    pub mean_link_latency: f64,
}

/// What one run produced, on any backend: per-master results, fabric
/// aggregates when the backend has a fabric, and the stepping counters.
#[derive(Debug, Clone)]
pub struct RunReport {
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
    /// Times the advance loop polled `next_activity`, one per iteration
    /// (0 for dense runs, which never ask).
    pub horizon_polls: u64,
    /// Calendar wakeups retired while stepping, stale entries included,
    /// plus the fabrics' flit-wheel entries (one per delivery of a flit
    /// queued on a link that is not one-cycle); both
    /// modes execute the same events, so this is mode-independent up to
    /// run length. Only the NoC keeps calendars; the baselines fold a
    /// few sources per master directly and report 0.
    pub calendar_pops: u64,
}

impl RunReport {
    /// Reports `engine`'s current state, with its masters' completion
    /// `logs` in declaration order. The fabric and the poll and pop
    /// counters start empty, for a backend that keeps them to fill in.
    pub fn new<'a>(
        backend: &'static str,
        engine: &impl Engine,
        logs: Vec<(&'a str, &'a CompletionLog)>,
    ) -> Self {
        RunReport {
            backend,
            cycles: engine.now(),
            steps: engine.executed_steps(),
            all_done: engine.is_done(),
            masters: logs.into_iter().map(MasterReport::from_log).collect(),
            fabric: None,
            horizon_polls: 0,
            calendar_pops: 0,
        }
    }

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

    /// Mean latency across all masters, weighted by completions; `NaN`
    /// when nothing completed, since there is no sample.
    pub fn mean_latency(&self) -> f64 {
        let total = self.total_completions();
        if total == 0 {
            return f64::NAN;
        }
        self.masters
            .iter()
            .filter(|m| m.completions > 0)
            .map(|m| m.mean_latency() * m.completions as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Merged functional fingerprint over all masters (the system-level
    /// functional digest — the layering-invariance witness).
    pub fn system_fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for m in &self.masters {
            fp.merge(&m.fingerprint);
        }
        fp
    }

    /// The run's rows. The golden ones, in this order, are the columns of
    /// `tests/scenarios/GOLDEN.txt`; the names are the serve record's
    /// keys.
    pub fn metrics(&self) -> Vec<Metric> {
        let total = self.total_completions();
        let mean = (total > 0).then(|| Mean(self.mean_latency()));
        let fabric = |name, unit, read: fn(&FabricReport) -> Value| {
            Metric::new(name, unit, self.fabric.as_ref().map(read))
        };
        vec![
            Metric::golden("cycles", Count(self.cycles)),
            Metric::golden("steps", Count(self.steps)),
            Metric::golden("polls", Count(self.horizon_polls)),
            Metric::golden("pops", Count(self.calendar_pops)),
            Metric::golden("completions", Count(total as u64)),
            Metric::new("throughput", "/cy", Some(Rate(self.throughput()))),
            Metric::new("mean_latency", "cy", mean),
            Metric::golden("fingerprint", Value::Fingerprint(self.system_fingerprint())),
            fabric("endpoint_ticks", "", |f| Count(f.endpoint_ticks)),
            fabric("request_flits", "", |f| Count(f.request_flits)),
            fabric("response_flits", "", |f| Count(f.response_flits)),
            fabric("flits_forwarded", "", |f| Count(f.flits_forwarded)),
            fabric("packets_forwarded", "", |f| Count(f.packets_forwarded)),
            fabric("credit_stalls", "", |f| Count(f.credit_stalls)),
            fabric("arbitration_conflicts", "", |f| {
                Count(f.arbitration_conflicts)
            }),
            fabric("lock_idle_cycles", "", |f| Count(f.lock_idle_cycles)),
            fabric("mean_link_latency", "cy", |f| Mean(f.mean_link_latency)),
        ]
    }
}

/// The backend and drain flag, every run row, then one line per master.
impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} report: done={}", self.backend, self.all_done)?;
        for m in self.metrics() {
            write!(f, " {m}")?;
        }
        for master in &self.masters {
            write!(f, "\n  {}:", master.name)?;
            for m in master.metrics() {
                write!(f, " {m}")?;
            }
        }
        Ok(())
    }
}
