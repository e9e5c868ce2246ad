//! One workload run: set-up, the measured closed loop, and the metrics.

use crate::metrics::{median, percentile, ratio};
use crate::op::{reference_runs, verify, Executor, OpOutput, RunFacts};
use crate::probes::{self, Samples};
use crate::trace::Tracer;
use crate::workloads::{generate, Input, Workload, MAX_CYCLES, VARIANTS};
use noc_scenario::{ScenarioReport, StepMode};
use noc_stats::Histogram;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How long one run measures unless told otherwise; also the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the closed loop measures; it always finishes the round
    /// (one operation per variant) it is in.
    pub seconds: f64,
    pub trace: bool,
    /// Directory for generated inputs, span files and result files.
    pub out: PathBuf,
    /// Set-ups per run; `setup_s` takes each variant's fastest.
    pub setups: usize,
    /// Simulated-cycle budget of one scenario run.
    pub budget: u64,
}

impl RunConfig {
    /// The command line's defaults for `workload`.
    pub fn new(workload: Workload, out: &Path) -> RunConfig {
        RunConfig {
            workload,
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            trace: false,
            out: out.to_owned(),
            setups: 5,
            budget: MAX_CYCLES,
        }
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line per distinct reason.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

struct Variant {
    /// Host seconds this variant's share of the set-up took.
    setup_s: f64,
    input: Input,
    text: String,
    path: PathBuf,
    reference: Vec<RunFacts>,
    /// Set when a set-up check failed; every operation on the variant
    /// then counts as failed.
    broken: Option<String>,
}

/// The modelled design's numbers over the variant set, NoC backend.
struct SimMetrics {
    mean_latency_cy: f64,
    p95_latency_cy: f64,
    cycles_per_op: f64,
}

struct Prepared {
    variants: Vec<Variant>,
    executor: Executor,
    sim: SimMetrics,
}

fn executor_for(cfg: &RunConfig) -> Executor {
    match cfg.workload {
        Workload::ServeSweep => Executor::serve(),
        workload => Executor::Scenario {
            backends: workload.backends(),
            budget: cfg.budget,
        },
    }
}

/// Generates the inputs, writes them, runs the reference checks and one
/// warm-up operation per variant.
fn set_up(cfg: &RunConfig) -> Result<Prepared, String> {
    let dir = cfg
        .out
        .join("inputs")
        .join(format!("{}-s{}", cfg.workload.name(), cfg.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let executor = executor_for(cfg);
    let backends = cfg.workload.backends();
    let mut noc_reports: Vec<ScenarioReport> = Vec::new();
    let mut variants = Vec::new();
    for k in 0..VARIANTS {
        let start = Instant::now();
        let input = generate(cfg.workload, cfg.seed, k);
        let text = input.to_text();
        let path = dir.join(format!("v{k}.scn"));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;

        let horizon = reference_runs(&input, &backends, cfg.budget, StepMode::Horizon)?;
        let dense = reference_runs(&input, &backends, cfg.budget, StepMode::Dense)?;
        let reference: Vec<RunFacts> = horizon.iter().map(|(f, _)| f.clone()).collect();
        let modes_agree = horizon.iter().zip(&dense).all(|((hf, hr), (df, dr))| {
            hf == df && hr.mean_latency().to_bits() == dr.mean_latency().to_bits()
        });
        let mut tracer = Tracer::new(false);
        let broken = if !modes_agree {
            Some("dense and horizon stepping disagree".to_owned())
        } else {
            verify(&reference, &reference, &input)
                .and_then(|()| executor.op(&path, &mut tracer))
                .and_then(OpOutput::facts)
                .and_then(|facts| verify(&facts, &reference, &input))
                .err()
        };
        noc_reports.extend(
            horizon
                .into_iter()
                .map(|(_, report)| report)
                .filter(|r| r.backend == "noc"),
        );
        variants.push(Variant {
            setup_s: start.elapsed().as_secs_f64(),
            input,
            text,
            path,
            reference,
            broken,
        });
    }

    let completions: f64 = noc_reports
        .iter()
        .map(|r| r.total_completions() as f64)
        .sum();
    let latency_sum: f64 = noc_reports
        .iter()
        .map(|r| r.mean_latency() * r.total_completions() as f64)
        .sum();
    let mut latencies = Histogram::new();
    for master in noc_reports.iter().flat_map(|r| &r.masters) {
        latencies.merge(&master.latency);
    }
    let cycles: f64 = noc_reports.iter().map(|r| r.cycles as f64).sum();
    Ok(Prepared {
        variants,
        executor,
        sim: SimMetrics {
            mean_latency_cy: ratio(latency_sum, completions),
            p95_latency_cy: latencies.percentile(0.95).unwrap_or(0) as f64,
            cycles_per_op: cycles / VARIANTS as f64,
        },
    })
}

/// One timed operation.
struct OpSample {
    variant: usize,
    ms: f64,
    traced: bool,
}

/// The undisturbed operation time: the fastest operation per input
/// variant, averaged over the variants. On the shared host interference
/// comes in bursts and only ever adds time, so the minimum is the one
/// statistic that repeats from run to run (see README, "Why minima").
fn best_op_ms(samples: &[OpSample], traced: bool) -> f64 {
    let per_variant: Vec<f64> = (0..VARIANTS as usize)
        .map(|v| {
            samples
                .iter()
                .filter(|s| s.variant == v && s.traced == traced)
                .map(|s| s.ms)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    per_variant.iter().sum::<f64>() / per_variant.len() as f64
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run_workload(cfg: &RunConfig) -> Result<RunResult, String> {
    // Set-up time, like operation time, is taken per variant at its
    // fastest over the repetitions and summed over the variants.
    let mut setup_s = vec![f64::INFINITY; VARIANTS as usize];
    let mut prepared = None;
    for _ in 0..cfg.setups {
        let ready = set_up(cfg)?;
        for (fastest, variant) in setup_s.iter_mut().zip(&ready.variants) {
            *fastest = fastest.min(variant.setup_s);
        }
        prepared = Some(ready);
    }
    let Prepared {
        variants,
        executor,
        sim,
    } = prepared.expect("RunConfig.setups is at least 1");

    // The closed loop: one client, one operation in flight. A traced run
    // alternates untraced and traced rounds, so both see the same host
    // conditions.
    let min_rounds = if cfg.trace { 2 } else { 1 };
    let mut tracer = Tracer::new(false);
    let mut samples: Vec<OpSample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let loop_start = Instant::now();
    let mut round = 0u64;
    while round < min_rounds || loop_start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        for (index, variant) in variants.iter().enumerate() {
            let op_id = samples.len() as u64;
            let start = Instant::now();
            let outcome = tracer.operation(op_id, |t| executor.op(&variant.path, t));
            samples.push(OpSample {
                variant: index,
                ms: start.elapsed().as_secs_f64() * 1e3,
                traced,
            });
            let checked = match (&variant.broken, outcome) {
                (Some(reason), _) => Err(reason.clone()),
                (None, Ok(output)) => output
                    .facts()
                    .and_then(|facts| verify(&facts, &variant.reference, &variant.input)),
                (None, Err(reason)) => Err(reason),
            };
            if let Err(reason) = checked {
                failed += 1;
                if !failures.contains(&reason) {
                    failures.push(reason);
                }
            }
        }
        round += 1;
    }

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    if !cfg.trace {
        // Socket transactions one round (one operation per variant)
        // completes, over the undisturbed time of a round.
        let round_txns: u64 = variants
            .iter()
            .flat_map(|v| &v.reference)
            .map(|f| f.completions)
            .sum();
        let op_ms = best_op_ms(&samples, false);
        metrics.push(("setup_s", setup_s.iter().sum()));
        metrics.push(("op_min_ms", op_ms));
        metrics.push((
            "txn_per_s",
            round_txns as f64 / (op_ms * VARIANTS as f64 / 1e3),
        ));
        metrics.push(("peak_rss_mib", peak_rss_mib()));
        metrics.push(("sim_mean_latency_cy", sim.mean_latency_cy));
        metrics.push(("sim_p95_latency_cy", sim.p95_latency_cy));
        metrics.push(("sim_cycles_per_op", sim.cycles_per_op));
    } else {
        tracer.set_enabled(true);
        let mut probe_samples = Samples::default();
        let inputs: Vec<(Input, String)> =
            variants.into_iter().map(|v| (v.input, v.text)).collect();
        probes::run(&inputs, &mut tracer, &mut probe_samples);
        bench_samples(&tracer, &samples, &mut probe_samples);
        metrics.extend(
            crate::metrics::PER_LAYER
                .iter()
                .map(|m| (m.name, median(probe_samples.get(m.name)))),
        );
        let path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(RunResult {
        attempted: samples.len() as u64,
        failed,
        failures,
        metrics,
    })
}

/// Adds the samples that come from the operations themselves rather
/// than from a probe: the `bench.*` sanity metrics, the step share of the
/// traced operations, and the build time no topology probe accounts for.
fn bench_samples(tracer: &Tracer, ops: &[OpSample], s: &mut Samples) {
    let mut worst_unattributed = 0.0f64;
    for op in tracer.spans().iter().filter(|span| span.name == "op") {
        let (mut covered, mut stepping) = (0.0, 0.0);
        for child in tracer.children(op.id) {
            covered += child.ms();
            if child.name == "step" {
                stepping += child.ms();
            }
        }
        // The acceptance criterion is per operation, so the worst
        // operation is reported.
        worst_unattributed = worst_unattributed.max((op.ms() - covered) / op.ms());
        s.push("system.step_share", stepping / op.ms());
    }
    s.push("bench.unattributed_share", worst_unattributed);

    let untraced: Vec<f64> = ops.iter().filter(|o| !o.traced).map(|o| o.ms).collect();
    s.push("bench.op_p50_ms", median(&untraced));
    s.push("bench.op_p90_ms", percentile(&untraced, 0.90));
    s.push("bench.op_samples", untraced.len() as f64);
    s.push(
        "bench.trace_overhead_share",
        best_op_ms(ops, true) / best_op_ms(ops, false) - 1.0,
    );
    let residual = median(s.get("scenario.build_ms"))
        - median(s.get("topology.construct_ms"))
        - median(s.get("topology.routes_ms"))
        - median(s.get("transaction.address_map_ms"));
    s.push("system.build_residual_ms", residual);
}
