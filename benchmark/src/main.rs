//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! noc-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
//! noc-benchmark compare A B
//! noc-benchmark manifest        # prints BENCHMARK.json from the tables
//! ```

mod compare;
mod json;
mod metrics;
mod op;
mod probes;
mod run;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use run::{RunConfig, RunResult, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage: noc-benchmark run [--workload W] [--seed S] [--seconds N] \
                     [--trace [0|1]] [--out DIR]\n       noc-benchmark compare A B\n       \
                     noc-benchmark manifest";

/// The command the benchmark driver runs from the repository root.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
pub fn manifest() -> String {
    let better = |lower| if lower { "lower" } else { "higher" };
    let quoted: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted.join(", "),
        rows(Workload::ALL
            .iter()
            .map(|w| format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            ))
            .collect()),
        rows(metrics::END_TO_END
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.lower_is_better),
                m.bound
            ))
            .collect()),
        rows(metrics::PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.lower_is_better)
            ))
            .collect()),
    )
}

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value")).cloned();
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark driver passes.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// First line of a command's standard output, or "unknown".
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host and build facts recorded in every result file.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = first_line(Command::new("rustc").arg("--version"));
    // Look for a repository in the working directory only, never above.
    let cwd = std::env::current_dir().unwrap_or_default();
    let commit = first_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd)),
    );
    format!(
        "{{\"nproc\":{nproc},\"profile\":\"{profile}\",\"rustc\":\"{rustc}\",\"commit\":\"{commit}\"}}"
    )
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json::number(*value),
                metrics::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

/// Writes the result file, numbered so repeated runs never overwrite.
fn write_result_file(cfg: &RunConfig, result: &RunResult) -> Result<PathBuf, String> {
    let dir = cfg.out.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}.s{}.{}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    let path = (0..)
        .map(|k| dir.join(format!("{stem}.{k}.json")))
        .find(|p| !p.exists())
        .expect("an unused run number exists");
    let body = result_json(result);
    let text = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},{}\n",
        cfg.workload.name(),
        cfg.seed,
        json::number(cfg.seconds),
        cfg.trace,
        host_json(),
        &body[1..]
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run_one(cfg: &RunConfig) -> Result<bool, String> {
    let result = run::run_workload(cfg)?;
    println!(
        "workload {} seed {} {}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for (name, value) in &result.metrics {
        println!("  {name:<36} {value:>16.4} {}", metrics::unit_of(name));
    }
    println!(
        "  {:<36} {:>16.4} ratio ({} of {} operations failed)",
        "ops_failed_share",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    for reason in &result.failures {
        println!("  failure: {reason}");
    }
    let file = write_result_file(cfg, &result)?;
    println!("  result file: {}", file.display());
    println!("{}", result_json(&result));
    Ok(result.failed == 0)
}

/// Runs every workload in a child process of its own, so peak memory is
/// per workload.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut clean = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", workload.name()])
            .args(args)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        clean &= status.success();
    }
    Ok(clean)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let parsed = parse_run_args(args)?;
    let Some(workload) = parsed.workload else {
        return run_all(args);
    };
    let cfg = RunConfig {
        seed: parsed.seed,
        seconds: parsed.seconds,
        trace: parsed.trace,
        // The traced run reports no set-up time, so it sets up once.
        setups: if parsed.trace { 1 } else { 5 },
        ..RunConfig::new(workload, &parsed.out)
    };
    run_one(&cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => run_command(rest),
        Some((command, [a, b])) if command == "compare" => {
            compare::compare(Path::new(a), Path::new(b))
        }
        Some((command, [])) if command == "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
