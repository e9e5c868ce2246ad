//! `scn` — run scenario text files on any backend.
//!
//! ```text
//! scn [OPTIONS] FILE...
//! scn serve [SERVE-OPTIONS]
//!
//!   --backend noc|bridged|bus|all   backend for plain scenario files
//!                                   (default all; sweep files carry
//!                                   their own backends per point)
//!   --step dense|horizon|both       step mode; "both" runs each
//!                                   simulation twice, fails unless
//!                                   the logs, timestamps included, are
//!                                   identical, and reports per-backend
//!                                   executed-step counts, the
//!                                   dense/horizon ratio and the horizon
//!                                   run's polls/pops. Default:
//!                                   horizon for scenario files, the
//!                                   file's own step settings for
//!                                   sweeps (an explicit --step
//!                                   overrides them, per-point
//!                                   overrides included)
//!   --max-cycles N                  drain budget (default 10_000_000
//!                                   for scenario files, the file's
//!                                   budget for sweeps)
//! ```
//!
//! With `--backend all`, scenarios that declare divided clocks or
//! target kinds a baseline cannot model are skipped (with a note) on
//! the backends that reject them; naming such a backend explicitly is
//! an error. Exit status is non-zero on parse errors, failed drains and
//! dense/horizon divergence. A per-target latency table follows for any
//! multi-target scenario. The tables are observability, not gates: the
//! corpus's numbers are pinned by `tests/scenarios/GOLDEN.txt` and
//! guarded by `tests/scenario_text.rs`.
//!
//! `scn serve` starts the long-running service instead: requests come
//! in as `run <id> <path>` lines on stdin and/or `*.scn` files dropped
//! into `--spool DIR`, and one JSON result record per point streams to
//! stdout. Platforms are compiled once and reused across points via the
//! checkpoint cache (see the `noc-serve` crate and README).
//!
//! ```text
//!   --spool DIR        watch DIR for *.scn request files (consumed
//!                      files are renamed *.scn.done; a file named
//!                      "shutdown" stops the server)
//!   --threads N        worker threads per request (default: all cores)
//!   --queue N          request queue depth before intake blocks (16)
//!   --cache-cap N      platform checkpoints kept, LRU beyond (8)
//!   --max-cycles N     budget for plain scenario requests (10_000_000)
//!   --step dense|horizon   step mode for plain scenario requests
//!   --poll-ms N        spool scan interval in milliseconds (50)
//! ```

use noc_protocols::CompletionRecord;
use noc_scenario::{
    parse_document, Backend, Document, ScenarioError, ScenarioSpec, StepMode, Sweep,
};
use noc_stats::Table;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq)]
enum StepSel {
    One(StepMode),
    Both,
}

struct Options {
    files: Vec<String>,
    /// `None` runs plain scenario files on every backend.
    backend: Option<Backend>,
    /// `None` until `--step` is given: scenario files default to
    /// horizon, sweep files to their own settings.
    step: Option<StepSel>,
    /// `None` until `--max-cycles` is given: scenario files default to
    /// 10M cycles, sweep files to their own budget.
    max_cycles: Option<u64>,
}

fn usage() -> &'static str {
    "usage: scn [--backend noc|bridged|bus|all] [--step dense|horizon|both] \
     [--max-cycles N] FILE..."
}

fn parse_args() -> Result<Options, Box<dyn std::error::Error>> {
    let mut opts = Options {
        files: Vec::new(),
        backend: None,
        step: None,
        max_cycles: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let v = args.next().unwrap_or_default();
                opts.backend = match v.as_str() {
                    "all" => None,
                    name => Some(name.parse().map_err(|e| format!("{e}\n{}", usage()))?),
                }
            }
            "--step" => {
                let v = args.next().unwrap_or_default();
                opts.step = Some(match v.as_str() {
                    "both" => StepSel::Both,
                    name => StepSel::One(name.parse().map_err(|e| format!("{e}\n{}", usage()))?),
                })
            }
            "--max-cycles" => {
                let v = args.next().ok_or("--max-cycles needs a number")?;
                opts.max_cycles = Some(v.parse().map_err(|_| format!("bad --max-cycles {v:?}"))?);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n{}", usage()).into());
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.files.is_empty() {
        return Err(format!("no scenario files given\n{}", usage()).into());
    }
    Ok(opts)
}

/// The comparable part of a run (logs with timestamps) plus the
/// per-mode accounting — executed steps and the horizon machinery's
/// poll/pop counters — which legitimately differs between step modes.
struct RunOutcome {
    compared: (bool, u64, Vec<Vec<CompletionRecord>>),
    steps: u64,
    polls: u64,
    pops: u64,
}

fn run_once(
    spec: &ScenarioSpec,
    backend: &Backend,
    mode: StepMode,
    max_cycles: u64,
) -> Result<RunOutcome, ScenarioError> {
    let mut sim = spec.build(backend)?;
    let drained = sim.run_until_with(max_cycles, mode);
    let logs = sim
        .logs()
        .iter()
        .map(|(_, log)| log.records().to_vec())
        .collect();
    Ok(RunOutcome {
        compared: (drained, sim.now(), logs),
        steps: sim.executed_steps(),
        polls: sim.horizon_polls(),
        pops: sim.calendar_pops(),
    })
}

/// Per-target completion stats from one run's logs: for each memory
/// region (by declaration order), the completions it absorbed and their
/// mean latency.
fn target_stats(spec: &ScenarioSpec, logs: &[Vec<CompletionRecord>]) -> Vec<(String, usize, f64)> {
    let mut acc = vec![(0usize, 0u64); spec.memories.len()];
    for rec in logs.iter().flatten() {
        if let Some(i) = spec
            .memories
            .iter()
            .position(|m| rec.addr >= m.base && rec.addr < m.end)
        {
            acc[i].0 += 1;
            acc[i].1 += rec.latency();
        }
    }
    spec.memories
        .iter()
        .zip(acc)
        .map(|(m, (n, sum))| {
            let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
            (m.name.clone(), n, mean)
        })
        .collect()
}

/// Runs a spec on one backend under the step selection; returns the
/// table cells plus per-target stats, or `None` when the backend
/// rejects divided clocks and skipping is allowed.
#[allow(clippy::type_complexity)]
fn run_spec(
    spec: &ScenarioSpec,
    backend: &Backend,
    step: StepSel,
    max_cycles: u64,
    skip_unsupported: bool,
) -> Result<Option<(Vec<String>, Vec<(String, usize, f64)>)>, Box<dyn std::error::Error>> {
    let modes: Vec<StepMode> = match step {
        StepSel::One(mode) => vec![mode],
        StepSel::Both => vec![StepMode::Dense, StepMode::Horizon],
    };
    let mut outcomes = Vec::new();
    for mode in &modes {
        match run_once(spec, backend, *mode, max_cycles) {
            Ok(outcome) => outcomes.push(outcome),
            Err(
                e @ (ScenarioError::UnsupportedClock { .. }
                | ScenarioError::UnsupportedTarget { .. }),
            ) if skip_unsupported => {
                println!("  {backend}: skipped ({e})");
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        }
    }
    if outcomes.len() == 2 && outcomes[0].compared != outcomes[1].compared {
        return Err(format!("{backend}: {} and {} stepping diverge", modes[0], modes[1]).into());
    }
    let (drained, cycles, logs) = &outcomes[0].compared;
    if !drained {
        return Err(format!("{backend}: failed to drain in {max_cycles} cycles").into());
    }
    let completions: usize = logs.iter().map(Vec::len).sum();
    // No completions means no latency sample at all; the cell shows "-"
    // rather than a fabricated 0.0 (mirrors the serve layer's `null`).
    let mean_cell = if completions == 0 {
        "-".to_owned()
    } else {
        let mean = logs
            .iter()
            .flatten()
            .map(|r| r.latency() as f64)
            .sum::<f64>()
            / completions as f64;
        format!("{mean:.1}")
    };
    let mut step_cell = String::new();
    for (i, mode) in modes.iter().enumerate() {
        if i > 0 {
            step_cell.push('=');
        }
        let _ = write!(step_cell, "{mode}");
    }
    // Executed-step accounting: one count per mode, plus the
    // dense/horizon collapse ratio when both ran.
    let steps_cell = outcomes
        .iter()
        .map(|o| o.steps.to_string())
        .collect::<Vec<_>>()
        .join("/");
    let ratio_cell = if outcomes.len() == 2 {
        let (dense, horizon) = (outcomes[0].steps, outcomes[1].steps);
        format!("{:.1}x", dense as f64 / horizon.max(1) as f64)
    } else {
        "-".to_owned()
    };
    // Wakeup accounting comes from the horizon run (the last outcome:
    // `modes` lists dense first under Both); dense stepping never
    // polls, so its counters carry no signal.
    let horizon_ran = !matches!(step, StepSel::One(StepMode::Dense));
    let wake_cell = if horizon_ran {
        let o = outcomes.last().expect("at least one mode ran");
        format!("{}/{}", o.polls, o.pops)
    } else {
        "-".to_owned()
    };
    Ok(Some((
        vec![
            backend.label().to_owned(),
            step_cell,
            cycles.to_string(),
            completions.to_string(),
            mean_cell,
            steps_cell,
            ratio_cell,
            wake_cell,
        ],
        target_stats(spec, logs),
    )))
}

fn run_scenario_file(
    spec: &ScenarioSpec,
    opts: &Options,
) -> Result<(), Box<dyn std::error::Error>> {
    let backends: Vec<Backend> = match opts.backend {
        Some(backend) => vec![backend],
        None => Backend::NAMES.iter().map(|(_, make)| make()).collect(),
    };
    let step = opts.step.unwrap_or(StepSel::One(StepMode::Horizon));
    let max_cycles = opts.max_cycles.unwrap_or(10_000_000);
    let mut t = Table::new(&[
        "backend",
        "step",
        "cycles",
        "completions",
        "mean lat (cy)",
        "steps",
        "dense/horizon",
        "polls/pops",
    ]);
    t.numeric();
    let mut target_rows = Vec::new();
    for backend in &backends {
        let skip = opts.backend.is_none();
        if let Some((row, stats)) = run_spec(spec, backend, step, max_cycles, skip)? {
            t.row(&row);
            for (target, n, mean) in stats {
                // A target nothing reached has no latency, not a zero
                // one — print "-" rather than a fabricated 0.0.
                let mean_cell = if n == 0 {
                    "-".to_owned()
                } else {
                    format!("{mean:.1}")
                };
                target_rows.push(vec![backend.to_string(), target, n.to_string(), mean_cell]);
            }
        }
    }
    println!("{t}");
    // The per-target breakdown only says something when traffic can
    // actually spread over more than one target.
    if spec.memories.len() > 1 {
        let mut pt = Table::new(&["backend", "target", "completions", "mean lat (cy)"]);
        pt.numeric();
        for row in &target_rows {
            pt.row(row);
        }
        println!("per-target latency:");
        println!("{pt}");
    }
    Ok(())
}

fn run_sweep_file(sweep: &Sweep, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let max_cycles = opts.max_cycles.unwrap_or_else(|| sweep.max_cycles());
    if opts.step == Some(StepSel::Both) {
        // Differential mode: drive each point by hand so dense and
        // horizon logs can be compared record-for-record.
        let mut t = Table::new(&[
            "point",
            "backend",
            "step",
            "cycles",
            "completions",
            "mean lat (cy)",
            "steps",
            "dense/horizon",
            "polls/pops",
        ]);
        t.numeric();
        for p in sweep.points() {
            let (row, _) = run_spec(&p.spec, &p.backend, StepSel::Both, max_cycles, false)?
                .expect("skipping is disabled");
            let mut cells = vec![p.label.clone()];
            cells.extend(row);
            t.row(&cells);
        }
        println!("{t}");
        return Ok(());
    }
    // An explicit --step or --max-cycles overrides the file's settings
    // (per-point step overrides included); otherwise the file rules.
    let mut sweep = sweep.clone();
    if opts.max_cycles.is_some() {
        sweep = sweep.with_max_cycles(max_cycles);
    }
    if let Some(StepSel::One(mode)) = opts.step {
        let points: Vec<_> = sweep.points().to_vec();
        let mut forced = Sweep::new()
            .with_max_cycles(sweep.max_cycles())
            .with_step_mode(mode);
        if let Some(threads) = sweep.threads() {
            forced = forced.with_threads(threads);
        }
        for mut p in points {
            p.step = None;
            forced = forced.with_point(p);
        }
        sweep = forced;
    }
    let mut t = Table::new(&[
        "point",
        "backend",
        "cycles",
        "completions",
        "mean lat (cy)",
        "steps",
    ]);
    t.numeric();
    // Stream results into the table as points finish (in declaration
    // order) instead of buffering the whole grid first.
    sweep.run_streaming(|i, r| {
        t.row(&[
            r.label.clone(),
            sweep.points()[i].backend.label().to_owned(),
            r.report.cycles.to_string(),
            r.report.total_completions().to_string(),
            if r.report.total_completions() == 0 {
                "-".to_owned()
            } else {
                format!("{:.1}", r.report.mean_latency())
            },
            r.report.steps.to_string(),
        ]);
    })?;
    println!("{t}");
    Ok(())
}

/// Parses and runs `scn serve ...` (everything after the subcommand
/// word).
fn run_serve(args: impl Iterator<Item = String>) -> Result<(), Box<dyn std::error::Error>> {
    let usage = "usage: scn serve [--spool DIR] [--threads N] [--queue N] [--cache-cap N] \
         [--max-cycles N] [--step dense|horizon] [--poll-ms N]";
    let mut config = noc_serve::ServeConfig::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spool" => {
                let dir = args.next().ok_or("--spool needs a directory")?;
                config.spool = Some(std::path::PathBuf::from(dir));
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a number")?;
                config.threads = Some(v.parse().map_err(|_| format!("bad --threads {v:?}"))?);
            }
            "--queue" => {
                let v = args.next().ok_or("--queue needs a number")?;
                config.queue_depth = v.parse().map_err(|_| format!("bad --queue {v:?}"))?;
            }
            "--cache-cap" => {
                let v = args.next().ok_or("--cache-cap needs a number")?;
                config.cache_capacity = v.parse().map_err(|_| format!("bad --cache-cap {v:?}"))?;
            }
            "--max-cycles" => {
                let v = args.next().ok_or("--max-cycles needs a number")?;
                config.max_cycles = v.parse().map_err(|_| format!("bad --max-cycles {v:?}"))?;
            }
            "--step" => {
                let v = args.next().unwrap_or_default();
                config.step_mode = v.parse().map_err(|e| format!("{e}\n{usage}"))?;
            }
            "--poll-ms" => {
                let v = args.next().ok_or("--poll-ms needs a number")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --poll-ms {v:?}"))?;
                config.poll = std::time::Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{usage}");
                return Ok(());
            }
            other => return Err(format!("unknown serve option {other:?}\n{usage}").into()),
        }
    }
    if let Some(dir) = &config.spool {
        std::fs::create_dir_all(dir).map_err(|e| format!("--spool {}: {e}", dir.display()))?;
    }
    let stdin = std::io::BufReader::new(std::io::stdin());
    let mut stdout = std::io::stdout().lock();
    let stats = noc_serve::serve(config, stdin, &mut stdout)?;
    eprintln!(
        "served {} requests ({} rejected): {} points ok, {} failed; \
         cache {} warm / {} cold",
        stats.requests,
        stats.rejected,
        stats.points_ok,
        stats.points_failed,
        stats.cache_hits,
        stats.cache_misses
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return run_serve(args);
    }
    let opts = parse_args()?;
    for file in &opts.files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut doc = parse_document(&text).map_err(|e| format!("{file}: {e}"))?;
        // Relative trace paths resolve against the scenario file, not
        // the process working directory — the same rule the serve layer
        // applies to stdin and spool requests.
        doc.resolve_trace_paths_from(std::path::Path::new(file));
        match doc {
            Document::Scenario(spec) => {
                println!(
                    "{file}: scenario ({} initiators, {} memories)",
                    spec.initiators.len(),
                    spec.memories.len()
                );
                run_scenario_file(&spec, &opts).map_err(|e| format!("{file}: {e}"))?;
            }
            Document::Sweep(sweep) => {
                println!("{file}: sweep ({} points)", sweep.points().len());
                run_sweep_file(&sweep, &opts).map_err(|e| format!("{file}: {e}"))?;
            }
        }
    }
    Ok(())
}
