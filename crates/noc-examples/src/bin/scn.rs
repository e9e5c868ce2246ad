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
//! A scenario file runs as one point per backend, a sweep file as its
//! declared points; both print the same tables from each run's
//! `RunReport` rows (`metrics()`, the rows serve and the golden print
//! too): one row per run (the `cycles`, `completions`, `mean_latency`,
//! `endpoint_ticks`, `flits_forwarded` and `lock_idle_cycles` rows,
//! plus the cells that combine the two runs of `--step both`: executed
//! steps, dense/horizon ratio and polls/pops), one row per master (its
//! numeric rows: completions, errors, mean and p95 latency) and, for
//! multi-target specs, one row per target. A row without a value — no
//! latency sample, no fabric on a baseline — prints `-`. The paper's
//! experiments are corpus files read through these tables (README,
//! "The paper's experiments").
//!
//! With `--backend all`, scenarios that declare divided clocks or
//! target kinds a baseline cannot model are skipped (with a note) on
//! the backends that reject them; naming such a backend explicitly is
//! an error. Exit status is non-zero on parse errors, failed drains and
//! dense/horizon divergence. The tables are observability, not gates:
//! the corpus's numbers are pinned by `tests/scenarios/GOLDEN.txt` and
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

use noc_examples::golden::{self, Run};
use noc_protocols::CompletionRecord;
use noc_scenario::{
    parse_document, Backend, Document, ScenarioError, ScenarioSpec, StepMode, Sweep, SweepPoint,
    Value,
};
use noc_stats::Table;
use std::fmt::Display;

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

/// A table cell for a statistic that may have no sample behind it: a
/// master or target nothing completed on has no latency, not a zero one,
/// so it prints `-` (mirrors the serve layer's `null`).
fn cell(value: Option<impl Display>) -> String {
    value.map_or_else(|| "-".to_owned(), |v| v.to_string())
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
        .map(|(m, (n, sum))| (m.name.clone(), n, sum as f64 / n as f64))
        .collect()
}

/// A table whose rows start with the point label on sweep files.
fn table(sweep_file: bool, headers: &[&str]) -> Table {
    let point = sweep_file.then_some("point");
    let headers: Vec<&str> = point.into_iter().chain(headers.iter().copied()).collect();
    let mut t = Table::new(&headers);
    t.numeric();
    t
}

/// Runs every point of `sweep` — a plain scenario file is the sweep of
/// one point per backend — under the step selection and prints the
/// per-run, per-master and (where traffic can spread) per-target
/// tables. Each point runs through [`golden::run`], the runs the corpus
/// golden pins.
fn run_sweep(
    sweep: &Sweep,
    sweep_file: bool,
    opts: &Options,
) -> Result<(), Box<dyn std::error::Error>> {
    let max_cycles = opts.max_cycles.unwrap_or(sweep.max_cycles());
    // Only a scenario file run on every backend may skip a backend that
    // cannot model it; a named backend or a sweep point must run.
    let skip_unsupported = !sweep_file && opts.backend.is_none();
    let modes = |p: &SweepPoint| match opts.step {
        Some(StepSel::Both) => vec![StepMode::Dense, StepMode::Horizon],
        Some(StepSel::One(mode)) => vec![mode],
        None => vec![p.step.unwrap_or(sweep.step_mode())],
    };
    let mut outcomes = Vec::new();
    sweep.run_streaming_with(
        sweep.threads(),
        |_, p| {
            let run = |mode| golden::run(&p.spec, &p.backend, mode, max_cycles);
            modes(p)
                .into_iter()
                .map(run)
                .collect::<Result<Vec<Run>, _>>()
        },
        |_, outcome| outcomes.push(outcome),
    );
    let mut runs = table(
        sweep_file,
        &[
            "backend",
            "step",
            "cycles",
            "completions",
            "mean lat (cy)",
            "steps",
            "dense/horizon",
            "polls/pops",
            "ep ticks",
            "flits",
            "lock-idle",
        ],
    );
    let mut masters = table(
        sweep_file,
        &[
            "backend",
            "master",
            "completions",
            "errors",
            "mean lat (cy)",
            "p95 (cy)",
        ],
    );
    let mut targets = table(
        sweep_file,
        &["backend", "target", "completions", "mean lat (cy)"],
    );
    for (p, outcome) in sweep.points().iter().zip(outcomes) {
        let backend = p.backend.label();
        let at = if sweep_file {
            format!("{} on {backend}", p.label)
        } else {
            backend.to_owned()
        };
        let outcome = match outcome {
            Err(
                e @ (ScenarioError::UnsupportedClock { .. }
                | ScenarioError::UnsupportedTarget { .. }),
            ) if skip_unsupported => {
                println!("  {backend}: skipped ({e})");
                continue;
            }
            outcome => outcome.map_err(|e| format!("{at}: {e}"))?,
        };
        let modes = modes(p);
        if let [a, b] = &outcome[..] {
            if (a.drained, a.report.cycles, &a.logs) != (b.drained, b.report.cycles, &b.logs) {
                return Err(format!("{at}: {} and {} stepping diverge", modes[0], modes[1]).into());
            }
        }
        // Everything printed comes from the last run: the horizon one
        // under `both` (its polls/pops are the ones that carry signal).
        let last = outcome.last().expect("at least one mode ran");
        if !last.drained {
            return Err(format!("{at}: failed to drain in {max_cycles} cycles").into());
        }
        let r = &last.report;
        let point = sweep_file.then(|| p.label.clone());
        let row = |cells: Vec<String>| point.iter().cloned().chain(cells).collect::<Vec<_>>();
        let steps: Vec<String> = outcome.iter().map(|o| o.report.steps.to_string()).collect();
        let ratio = (outcome.len() == 2).then(|| {
            let (dense, horizon) = (outcome[0].report.steps, r.steps);
            format!("{:.1}x", dense as f64 / horizon.max(1) as f64)
        });
        // Dense stepping never polls, so its counters carry no signal.
        let horizon_ran = modes.last() == Some(&StepMode::Horizon);
        let wake = horizon_ran.then(|| format!("{}/{}", r.horizon_polls, r.calendar_pops));
        let modes: Vec<String> = modes.iter().map(StepMode::to_string).collect();
        let rows = r.metrics();
        let plain = |name| {
            cell(
                rows.iter()
                    .find(|row| row.name == name)
                    .and_then(|row| row.value),
            )
        };
        runs.row(&row(vec![
            backend.to_owned(),
            modes.join("="),
            plain("cycles"),
            plain("completions"),
            plain("mean_latency"),
            steps.join("/"),
            cell(ratio),
            cell(wake),
            plain("endpoint_ticks"),
            plain("flits_forwarded"),
            plain("lock_idle_cycles"),
        ]));
        for m in &r.masters {
            // A fingerprint identifies results; the golden pins it, and
            // a table has no column for it.
            let cells = m
                .metrics()
                .into_iter()
                .filter(|row| !matches!(row.value, Some(Value::Fingerprint(_))))
                .map(|row| cell(row.value));
            let head = [backend.to_owned(), m.name.clone()];
            masters.row(&row(head.into_iter().chain(cells).collect()));
        }
        // The per-target breakdown only says something when traffic can
        // actually spread over more than one target.
        if p.spec.memories.len() > 1 {
            for (target, n, mean) in target_stats(&p.spec, &last.logs) {
                let mean = (n > 0).then(|| format!("{mean:.1}"));
                targets.row(&row(vec![
                    backend.to_owned(),
                    target,
                    n.to_string(),
                    cell(mean),
                ]));
            }
        }
    }
    println!("{runs}");
    println!("per-master latency:");
    println!("{masters}");
    if !targets.is_empty() {
        println!("per-target latency:");
        println!("{targets}");
    }
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
        // applies to stdin and spool requests — and each trace is read
        // here, once.
        doc.resolve_trace_paths_from(std::path::Path::new(file));
        let (sweep, sweep_file) = match doc {
            Document::Scenario(spec) => {
                println!(
                    "{file}: scenario ({} initiators, {} memories)",
                    spec.initiators.len(),
                    spec.memories.len()
                );
                let backends: Vec<Backend> = match opts.backend {
                    Some(backend) => vec![backend],
                    None => Backend::NAMES.iter().map(|(_, make)| make()).collect(),
                };
                let point = |b: Backend| (b.label().to_owned(), spec.clone(), b);
                let sweep = Sweep::over(backends, point).with_max_cycles(golden::MAX_CYCLES);
                (sweep, false)
            }
            Document::Sweep(sweep) => {
                println!("{file}: sweep ({} points)", sweep.points().len());
                (sweep, true)
            }
        };
        run_sweep(&sweep, sweep_file, &opts).map_err(|e| format!("{file}: {e}"))?;
    }
    Ok(())
}
