//! Simulation reports.

use noc_protocols::CompletionLog;
use noc_stats::Histogram;
use noc_transaction::Fingerprint;
use std::fmt;

/// Per-master results.
#[derive(Debug, Clone)]
pub struct MasterReport {
    /// Endpoint name given at build time.
    pub name: String,
    /// Node number.
    pub node: u16,
    /// Completed socket commands.
    pub completions: usize,
    /// Error completions (including clean exclusive failures).
    pub errors: usize,
    /// Mean socket-observed latency in cycles.
    pub mean_latency: f64,
    /// Full latency distribution.
    pub latency: Histogram,
    /// Order-insensitive functional fingerprint of all completions.
    pub fingerprint: Fingerprint,
}

impl MasterReport {
    /// Summarises one master's completion log.
    pub fn from_log(name: &str, node: u16, log: &CompletionLog) -> Self {
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

    /// The `q`-quantile of the latency distribution.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        self.latency.percentile(q).unwrap_or(0)
    }
}

impl fmt::Display for MasterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} done, mean {:.1}cy p95 {}cy, {} errors, {}",
            self.name,
            self.completions,
            self.mean_latency,
            self.latency_percentile(0.95),
            self.errors,
            self.fingerprint
        )
    }
}

/// Aggregate fabric results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FabricReport {
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

/// A full simulation report.
#[derive(Debug, Clone)]
pub struct SocReport {
    /// Base cycles simulated.
    pub cycles: u64,
    /// Whether every endpoint drained.
    pub all_done: bool,
    /// Per-master reports (build order).
    pub masters: Vec<MasterReport>,
    /// Fabric aggregates.
    pub fabric: FabricReport,
}

impl SocReport {
    /// Total completions across masters.
    pub fn total_completions(&self) -> usize {
        self.masters.iter().map(|m| m.completions).sum()
    }

    /// Completions per cycle (system throughput).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_completions() as f64 / self.cycles as f64
        }
    }

    /// Mean latency across all masters, weighted by completions.
    pub fn mean_latency(&self) -> f64 {
        let total: usize = self.total_completions();
        if total == 0 {
            return 0.0;
        }
        self.masters
            .iter()
            .map(|m| m.mean_latency * m.completions as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Merged fingerprint over all masters (system-level functional
    /// digest — the layering-invariance witness).
    pub fn system_fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for m in &self.masters {
            fp.merge(&m.fingerprint);
        }
        fp
    }
}

impl fmt::Display for SocReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SoC report: {} cycles, done={}, {} completions ({:.4}/cy), mean latency {:.1}cy",
            self.cycles,
            self.all_done,
            self.total_completions(),
            self.throughput(),
            self.mean_latency()
        )?;
        for m in &self.masters {
            writeln!(f, "  {m}")?;
        }
        write!(
            f,
            "  fabric: {} flits, {} pkts, {} credit stalls, {} conflicts, {} lock-idle",
            self.fabric.flits_forwarded,
            self.fabric.packets_forwarded,
            self.fabric.credit_stalls,
            self.fabric.arbitration_conflicts,
            self.fabric.lock_idle_cycles
        )
    }
}
