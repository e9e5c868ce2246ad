//! The serve loop: intake threads, a bounded work queue, and a
//! streaming executor.
//!
//! Requests arrive from two sources — protocol lines on the input
//! stream and `*.scn` files dropped into a watched spool directory —
//! and meet in one bounded queue. The queue's bound is the
//! backpressure: intake blocks once `queue_depth` requests are waiting,
//! so a flood of spool files cannot balloon memory.
//!
//! The executor drains the queue in arrival order. Each request
//! expands to a sweep and runs on [`Sweep::run_streaming_with`] — the
//! same parallel fan-out the batch runner uses — with two twists: every
//! point forks from the shared [`CheckpointCache`] instead of building
//! from scratch, and every point runs under `catch_unwind`, so one
//! divergent point becomes one error record instead of a dead server.
//! One JSON record per point streams out in declaration order as soon
//! as the point (and its predecessors) finish, followed by a `done`
//! record per request.

use crate::cache::CheckpointCache;
use crate::json::JsonObject;
use crate::request::{Command, Request, RequestError};
use noc_scenario::{Metric, RunReport, StepMode, Sweep, Value};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a serve session is wired up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory to watch for `*.scn` request files (consumed files are
    /// renamed to `<name>.done`). `None` serves the input stream only.
    pub spool: Option<PathBuf>,
    /// Cycle budget for points of plain scenario requests (sweep files
    /// carry their own).
    pub max_cycles: u64,
    /// Step mode for points of plain scenario requests.
    pub step_mode: StepMode,
    /// Worker-thread cap for the per-request fan-out; `None` uses one
    /// per available core.
    pub threads: Option<usize>,
    /// Requests the queue holds before intake blocks (the backpressure
    /// bound).
    pub queue_depth: usize,
    /// Checkpoints the platform cache retains (LRU beyond this).
    pub cache_capacity: usize,
    /// Spool scan interval.
    pub poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spool: None,
            max_cycles: 10_000_000,
            step_mode: StepMode::Horizon,
            threads: None,
            queue_depth: 16,
            cache_capacity: 8,
            poll: Duration::from_millis(50),
        }
    }
}

/// Tallies for one serve session, returned when it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted (well-formed enough to execute).
    pub requests: u64,
    /// Requests rejected with an error record before execution.
    pub rejected: u64,
    /// Points that ran to completion.
    pub points_ok: u64,
    /// Points that produced an error record.
    pub points_failed: u64,
    /// Points served by forking a warm checkpoint.
    pub cache_hits: u64,
    /// Points that had to build their platform.
    pub cache_misses: u64,
}

/// What the intake threads feed the executor.
enum Job {
    Execute(Request),
    Reject {
        id: Option<String>,
        error: RequestError,
    },
    Shutdown,
}

/// Runs the serve loop until a shutdown command arrives: `shutdown` on
/// the input stream, a file named `shutdown` in the spool directory,
/// or — when no spool directory is configured — end of input. Queued
/// requests are drained before exit.
///
/// One JSON record per line goes to `out`: a record per executed point
/// (in declaration order within each request), a `done` record per
/// request, and an `error` record per rejected request. Records from
/// different requests never interleave.
///
/// # Errors
///
/// Returns an error only if writing to `out` fails; request-level
/// problems become error records on the stream instead.
pub fn serve(
    config: ServeConfig,
    input: impl BufRead + Send + 'static,
    out: &mut dyn Write,
) -> io::Result<ServeStats> {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_depth.max(1));
    let stop = Arc::new(AtomicBool::new(false));

    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        let stdin_is_sole_source = config.spool.is_none();
        // Detached on purpose: a thread blocked reading input can't be
        // joined, and the executor ending (stop flag set) is what makes
        // its next send fail and the thread exit.
        std::thread::spawn(move || intake_lines(input, &tx, &stop, stdin_is_sole_source));
    }
    if let Some(dir) = config.spool.clone() {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        let poll = config.poll;
        std::thread::spawn(move || intake_spool(&dir, poll, &tx, &stop));
    }
    drop(tx);

    let cache = Mutex::new(CheckpointCache::new(config.cache_capacity));
    let mut stats = ServeStats::default();
    for job in rx {
        match job {
            Job::Execute(request) => {
                stats.requests += 1;
                execute_request(&request, &config, &cache, out, &mut stats)?;
            }
            Job::Reject { id, error } => {
                stats.rejected += 1;
                let mut record = JsonObject::new();
                if let Some(id) = id {
                    record = record.string("request", &id);
                }
                let line = record
                    .string("file", &error.file)
                    .string("status", "error")
                    .string("error", &error.to_string())
                    .finish();
                writeln!(out, "{line}")?;
                out.flush()?;
            }
            Job::Shutdown => break,
        }
    }
    stop.store(true, Ordering::SeqCst);
    let cache = cache.lock().expect("checkpoint cache lock");
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    out.flush()?;
    Ok(stats)
}

/// Reads protocol lines until `shutdown`, end of input, or the server
/// stopping.
fn intake_lines(input: impl BufRead, tx: &SyncSender<Job>, stop: &AtomicBool, sole_source: bool) {
    for line in input.lines() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(line) = line else {
            break;
        };
        let job = match Command::parse(&line) {
            Ok(None) => continue,
            Ok(Some(Command::Shutdown)) => {
                let _ = tx.send(Job::Shutdown);
                return;
            }
            Ok(Some(Command::Run { id, path })) => match Request::load(&id, &path) {
                Ok(request) => Job::Execute(request),
                Err(error) => Job::Reject {
                    id: Some(id),
                    error,
                },
            },
            Err(error) => Job::Reject { id: None, error },
        };
        if tx.send(job).is_err() {
            return;
        }
    }
    // Input closed. With a spool directory the server keeps serving it;
    // otherwise the stream was the only source, so drain and exit.
    if sole_source {
        let _ = tx.send(Job::Shutdown);
    }
}

/// Polls the spool directory, feeding each `*.scn` file to the queue
/// (renaming it `<name>.done`) until a file named `shutdown` appears.
fn intake_spool(dir: &std::path::Path, poll: Duration, tx: &SyncSender<Job>, stop: &AtomicBool) {
    let mut seen: std::collections::HashSet<PathBuf> = std::collections::HashSet::new();
    while !stop.load(Ordering::SeqCst) {
        let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "scn") && !seen.contains(p))
                .collect(),
            // A vanished spool directory is not worth crashing over;
            // keep polling in case it comes back.
            Err(_) => Vec::new(),
        };
        paths.sort();
        for path in paths {
            let id = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            let job = match Request::load(&id, &path) {
                Ok(request) => Job::Execute(request),
                Err(error) => Job::Reject {
                    id: Some(id),
                    error,
                },
            };
            // Consume before executing so a crash can't replay a file;
            // if the rename fails the `seen` set still prevents reruns.
            let mut done = path.clone().into_os_string();
            done.push(".done");
            let _ = std::fs::rename(&path, &done);
            seen.insert(path);
            if tx.send(job).is_err() {
                return;
            }
        }
        if dir.join("shutdown").exists() {
            let _ = std::fs::remove_file(dir.join("shutdown"));
            let _ = tx.send(Job::Shutdown);
            return;
        }
        std::thread::sleep(poll);
    }
}

/// What one point's execution produced, carried from the fan-out
/// workers back to the emitting thread.
struct PointOutcome {
    label: String,
    backend: &'static str,
    result: Result<(RunReport, bool), String>,
}

/// Expands `request` and runs its points over the shared cache,
/// streaming one record per point plus a trailing `done` record.
///
/// Exposed (beyond `serve`'s use) so benchmarks and tests can drive the
/// executor directly without threads reading stdin.
///
/// # Errors
///
/// Returns an error only if writing to `out` fails.
pub fn execute_request(
    request: &Request,
    config: &ServeConfig,
    cache: &Mutex<CheckpointCache>,
    out: &mut dyn Write,
    stats: &mut ServeStats,
) -> io::Result<()> {
    let sweep = request.expand(config.max_cycles, config.step_mode);
    let n = sweep.points().len();
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut write_error: Option<io::Error> = None;
    sweep.run_streaming_with(
        config.threads.or(sweep.threads()),
        |_, point| PointOutcome {
            label: point.label.clone(),
            backend: point.backend.label(),
            result: run_forked(&sweep, point, cache),
        },
        |i, outcome| {
            if write_error.is_some() {
                return;
            }
            let record = JsonObject::new()
                .string("request", &request.id)
                .number("point", i as u64)
                .string("label", &outcome.label)
                .string("backend", outcome.backend);
            let line = match outcome.result {
                Ok((report, warm)) => {
                    ok += 1;
                    let record = record
                        .string("status", "ok")
                        .string("cache", if warm { "warm" } else { "cold" });
                    report.metrics().iter().fold(record, field).finish()
                }
                Err(message) => {
                    failed += 1;
                    record
                        .string("status", "error")
                        .string("error", &message)
                        .finish()
                }
            };
            if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
                write_error = Some(e);
            }
        },
    );
    stats.points_ok += ok;
    stats.points_failed += failed;
    if let Some(e) = write_error {
        return Err(e);
    }
    let line = JsonObject::new()
        .string("request", &request.id)
        .string("file", &request.file)
        .string("status", "done")
        .number("points", n as u64)
        .number("ok", ok)
        .number("failed", failed)
        .finish();
    writeln!(out, "{line}")?;
    out.flush()
}

/// Adds one report row to a record: `null` without a value.
fn field(record: JsonObject, row: &Metric) -> JsonObject {
    match row.value {
        None => record.null(row.name),
        Some(Value::Count(n)) => record.number(row.name, n),
        Some(Value::Mean(x) | Value::Rate(x)) => record.float(row.name, x),
        Some(Value::Fingerprint(fp)) => record.string(row.name, &fp.to_string()),
    }
}

/// Runs one point from a cache fork, catching panics (drain timeouts,
/// construction asserts) into error strings.
fn run_forked(
    sweep: &Sweep,
    point: &noc_scenario::SweepPoint,
    cache: &Mutex<CheckpointCache>,
) -> Result<(RunReport, bool), String> {
    let max_cycles = sweep.max_cycles();
    let step = point.step.unwrap_or(sweep.step_mode());
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        // The lock covers the checkout (clone on a hit, build on a
        // miss) so concurrent points of a fresh platform wait for one
        // build instead of racing N of them; the run itself is outside.
        let forked = cache
            .lock()
            .expect("checkpoint cache lock")
            .checkout(point)
            .map_err(|e| e.to_string());
        let (mut sim, warm) = forked?;
        if !sim.run_until_with(max_cycles, step) {
            return Err(format!("failed to drain within {max_cycles} cycles"));
        }
        Ok((sim.report(), warm))
    }));
    match attempt {
        Ok(result) => result,
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "point execution panicked".to_owned());
            Err(format!("panic: {message}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn scenario_text(delay: u64) -> String {
        format!(
            "\
[[initiator]]
name = \"cpu\"
socket = \"axi\"
cmd = \"read 0x1000 2x4 delay={delay}\"

[[memory]]
name = \"ram\"
base = 0x0
end = 0x10000
latency = 2
queue = 4
"
        )
    }

    fn records(output: &[u8]) -> Vec<String> {
        String::from_utf8_lossy(output)
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn serves_stdin_requests_and_shuts_down_on_eof() {
        let dir = std::env::temp_dir().join(format!("noc-serve-eof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("one.scn");
        std::fs::write(&file, scenario_text(0)).unwrap();
        let input = format!("# warm-up comment\nrun q1 {}\n", file.display());
        let mut out = Vec::new();
        let stats = serve(
            ServeConfig {
                threads: Some(2),
                max_cycles: 100_000,
                ..ServeConfig::default()
            },
            Cursor::new(input),
            &mut out,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.points_ok, 3, "one point per backend");
        assert_eq!(stats.points_failed, 0);
        let lines = records(&out);
        assert_eq!(lines.len(), 4, "three points plus done: {lines:#?}");
        for (i, backend) in ["noc", "bridged", "bus"].iter().enumerate() {
            assert!(
                lines[i].contains(&format!("\"backend\":\"{backend}\"")),
                "{}",
                lines[i]
            );
            assert!(lines[i].contains("\"status\":\"ok\""), "{}", lines[i]);
            assert!(lines[i].contains("\"request\":\"q1\""), "{}", lines[i]);
        }
        assert!(lines[3].contains("\"status\":\"done\""), "{}", lines[3]);
        assert!(lines[3].contains("\"ok\":3"), "{}", lines[3]);
    }

    #[test]
    fn malformed_requests_become_error_records_not_crashes() {
        let dir = std::env::temp_dir().join(format!("noc-serve-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.scn");
        std::fs::write(&bad, "[topology]\nkind = ???\n").unwrap();
        let input = format!(
            "frobnicate everything\nrun q1 {}\nrun q2 {}\nshutdown\n",
            dir.join("missing.scn").display(),
            bad.display()
        );
        let mut out = Vec::new();
        let stats = serve(ServeConfig::default(), Cursor::new(input), &mut out).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.rejected, 3);
        let lines = records(&out);
        assert_eq!(lines.len(), 3, "{lines:#?}");
        for line in &lines {
            assert!(line.contains("\"status\":\"error\""), "{line}");
        }
        assert!(lines[0].contains("unknown command"), "{}", lines[0]);
        assert!(lines[1].contains("missing.scn"), "{}", lines[1]);
        assert!(lines[2].contains("bad.scn"), "{}", lines[2]);
        assert!(lines[2].contains("line 2"), "{}", lines[2]);
    }

    #[test]
    fn sizes_that_would_abort_the_allocator_are_error_records_and_serving_goes_on() {
        // An allocation failure is an abort, not a panic: `catch_unwind`
        // cannot save the server from it, so these must never reach
        // `build`. Each is a parse error at its line; the request after
        // them is served as usual.
        let dir = std::env::temp_dir().join(format!("noc-serve-huge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = scenario_text(0);
        let huge_budget = good.replacen("socket = ", "outstanding = 4294967295\nsocket = ", 1);
        assert_ne!(huge_budget, good);
        let huge_mesh =
            format!("[topology]\nkind = \"mesh\"\nwidth = 65536\nheight = 65536\n\n{good}");
        for (name, text) in [
            ("budget", &huge_budget),
            ("mesh", &huge_mesh),
            ("good", &good),
        ] {
            std::fs::write(dir.join(format!("{name}.scn")), text).unwrap();
        }
        let run = |id: &str| format!("run {id} {}\n", dir.join(format!("{id}.scn")).display());
        let input = run("budget") + &run("mesh") + &run("good") + "shutdown\n";
        let mut out = Vec::new();
        let stats = serve(
            ServeConfig {
                max_cycles: 100_000,
                ..ServeConfig::default()
            },
            Cursor::new(input),
            &mut out,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!((stats.rejected, stats.requests, stats.points_ok), (2, 1, 3));
        let lines = records(&out);
        assert_eq!(lines.len(), 6, "{lines:#?}");
        for (line, key) in lines[..2].iter().zip(["outstanding", "height"]) {
            assert!(line.contains("\"status\":\"error\""), "{line}");
            assert!(line.contains(key) && line.contains("line "), "{line}");
        }
        assert!(lines[5].contains("\"request\":\"good\""), "{}", lines[5]);
        assert!(lines[5].contains("\"ok\":3"), "{}", lines[5]);
    }

    #[test]
    fn undrainable_points_become_error_records() {
        let dir = std::env::temp_dir().join(format!("noc-serve-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("slow.scn");
        std::fs::write(&file, scenario_text(0)).unwrap();
        let input = format!("run q1 {}\nshutdown\n", file.display());
        let mut out = Vec::new();
        let stats = serve(
            ServeConfig {
                max_cycles: 1, // nothing completes in one cycle
                ..ServeConfig::default()
            },
            Cursor::new(input),
            &mut out,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.points_failed, 3);
        let lines = records(&out);
        for line in &lines[..3] {
            assert!(line.contains("failed to drain"), "{line}");
        }
        assert!(lines[3].contains("\"failed\":3"), "{}", lines[3]);
    }

    /// The keys of one flat record, in order, with each raw value.
    fn fields(line: &str) -> Vec<(&str, &str)> {
        let parts: Vec<&str> = line.split('"').collect();
        let mut fields = Vec::new();
        for i in (1..parts.len().saturating_sub(1)).step_by(2) {
            if let Some(rest) = parts[i + 1].strip_prefix(':') {
                // A string value is the next part; anything else runs
                // to the next comma or the closing brace.
                let value = if rest.is_empty() {
                    parts[i + 2]
                } else {
                    rest.trim_end_matches([',', '}'])
                };
                fields.push((parts[i], value));
            }
        }
        fields
    }

    #[test]
    fn ok_records_carry_the_run_report_rows_in_order() {
        let dir = std::env::temp_dir().join(format!("noc-serve-rows-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("rows.scn");
        std::fs::write(&file, scenario_text(0)).unwrap();
        let input = format!("run q1 {}\nshutdown\n", file.display());
        let mut out = Vec::new();
        let stats = serve(ServeConfig::default(), Cursor::new(input), &mut out).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.points_ok, 3);
        let spec = noc_scenario::ScenarioSpec::from_text(&scenario_text(0)).unwrap();
        let sim = spec.build(&noc_scenario::Backend::bus()).unwrap();
        let rows: Vec<&str> = sim.report().metrics().iter().map(|m| m.name).collect();
        let fabric = [
            "endpoint_ticks",
            "request_flits",
            "response_flits",
            "flits_forwarded",
            "packets_forwarded",
            "credit_stalls",
            "arbitration_conflicts",
            "lock_idle_cycles",
            "mean_link_latency",
        ];
        let lines = records(&out);
        for (line, backend) in [(&lines[0], "noc"), (&lines[2], "bus")] {
            let fields = fields(line);
            assert!(fields.contains(&("backend", backend)), "{line}");
            let cache = fields.iter().position(|(k, _)| *k == "cache").unwrap();
            let keys: Vec<&str> = fields[cache + 1..].iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, rows, "{line}");
            for (key, value) in &fields {
                if fabric.contains(key) {
                    let number = value.parse::<f64>().is_ok();
                    match backend {
                        "noc" => assert!(number, "{key}={value} in {line}"),
                        _ => assert_eq!(*value, "null", "{key} in {line}"),
                    }
                }
            }
        }
    }

    #[test]
    fn zero_completion_points_report_null_mean_latency() {
        // An initiator with no program drains instantly with zero
        // completions: there is no latency sample, and the record must
        // say `null`, not a fabricated number.
        let dir = std::env::temp_dir().join(format!("noc-serve-zero-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("idle.scn");
        std::fs::write(
            &file,
            "\
[[initiator]]
name = \"cpu\"
socket = \"axi\"

[[memory]]
name = \"ram\"
base = 0x0
end = 0x10000
latency = 2
queue = 4
",
        )
        .unwrap();
        let input = format!("run q1 {}\nshutdown\n", file.display());
        let mut out = Vec::new();
        let stats = serve(
            ServeConfig {
                max_cycles: 10_000,
                ..ServeConfig::default()
            },
            Cursor::new(input),
            &mut out,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.points_ok, 3, "an empty program still drains");
        let lines = records(&out);
        for line in &lines[..3] {
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            assert!(line.contains("\"completions\":0"), "{line}");
            assert!(line.contains("\"mean_latency\":null"), "{line}");
        }
    }

    #[test]
    fn relative_trace_paths_resolve_against_the_request_file() {
        // The scenario and its trace live in a temp directory; the
        // test's working directory has no such trace file, so the run
        // only drains if resolution used the request file's directory —
        // the same CWD-independent rule `scn` applies.
        let dir = std::env::temp_dir().join(format!("noc-serve-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("cpu.trace"),
            "0 read 0x100 1 4\n4 read 0x200 1 4\n",
        )
        .unwrap();
        let file = dir.join("traced.scn");
        std::fs::write(
            &file,
            "\
[[initiator]]
name = \"cpu\"
socket = \"axi\"
kind = \"trace\"
trace_file = \"cpu.trace\"

[[memory]]
name = \"ram\"
base = 0x0
end = 0x10000
latency = 2
queue = 4
",
        )
        .unwrap();
        let input = format!("run q1 {}\nshutdown\n", file.display());
        let mut out = Vec::new();
        let stats = serve(
            ServeConfig {
                max_cycles: 100_000,
                ..ServeConfig::default()
            },
            Cursor::new(input),
            &mut out,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats.points_ok, 3, "trace resolved against the file");
        let lines = records(&out);
        for line in &lines[..3] {
            assert!(line.contains("\"completions\":2"), "{line}");
        }
    }

    #[test]
    fn spool_directory_is_served_and_consumed() {
        let dir = std::env::temp_dir().join(format!("noc-serve-spool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.scn"), scenario_text(0)).unwrap();
        std::fs::write(dir.join("b.scn"), scenario_text(2)).unwrap();
        std::fs::write(dir.join("shutdown"), "").unwrap();
        let mut out = Vec::new();
        let stats = serve(
            ServeConfig {
                spool: Some(dir.clone()),
                max_cycles: 100_000,
                poll: Duration::from_millis(5),
                ..ServeConfig::default()
            },
            Cursor::new(String::new()), // EOF must NOT shut a spool server down
            &mut out,
        )
        .unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.points_ok, 6);
        assert!(stats.cache_hits >= 3, "b shares a's platforms: {stats:?}");
        assert!(dir.join("a.scn.done").exists(), "consumed file renamed");
        assert!(!dir.join("a.scn").exists());
        assert!(!dir.join("shutdown").exists(), "sentinel removed");
        let lines = records(&out);
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains("\"request\":\"a\""), "{}", lines[0]);
        assert!(lines[4].contains("\"request\":\"b\""), "{}", lines[4]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
