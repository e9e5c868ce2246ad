//! The scenario text format: golden-corpus fixtures and the
//! negative-parse suite.
//!
//! Every file in `tests/scenarios/` is exact emitter output
//! (`gen_scenarios` regenerates it), so `emit(parse(file)) == file`
//! pins both the grammar and the corpus; and every file must run green
//! through parse → compile → run on every backend that supports it,
//! under dense *and* horizon stepping with record-identical logs — the
//! corpus doubles as a regression battery for the whole stack. The
//! numbers of those runs are pinned too: `tests/scenarios/GOLDEN.txt`
//! (`noc_examples::golden`) must match them exactly, and the horizon
//! machinery's guards are stated over the same rows.

use noc_examples::golden;
use noc_protocols::{CompletionRecord, SocketCommand};
use noc_scenario::{
    parse_document, Backend, Document, InitiatorSpec, MemorySpec, ParseError, ParseErrorKind,
    ScenarioError, ScenarioSpec, SocketSpec, StepMode, Sweep, TopologySpec,
};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/scenarios")
}

fn corpus_files() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("tests/scenarios exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&p).expect("readable corpus file");
            (name, text)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 6,
        "corpus must hold at least 6 scenario files, found {}",
        files.len()
    );
    files
}

/// Mean latency of the hottest target over that of the coldest, among
/// the memory regions that absorbed any completion.
fn target_spread(spec: &ScenarioSpec, logs: &[Vec<CompletionRecord>]) -> f64 {
    let means: Vec<f64> = spec
        .memories
        .iter()
        .filter_map(|m| {
            let hits = logs
                .iter()
                .flatten()
                .filter(|r| r.addr >= m.base && r.addr < m.end);
            let (n, sum) = hits.fold((0u64, 0u64), |(n, sum), r| (n + 1, sum + r.latency()));
            (n > 0).then(|| sum as f64 / n as f64)
        })
        .collect();
    assert!(means.len() >= 2, "a spread needs two trafficked targets");
    means.iter().copied().fold(f64::MIN, f64::max) / means.iter().copied().fold(f64::MAX, f64::min)
}

#[test]
fn corpus_files_are_exact_emitter_output() {
    for (name, text) in corpus_files() {
        let doc =
            parse_document(&text).unwrap_or_else(|e| panic!("{name}: corpus file must parse: {e}"));
        let emitted = match &doc {
            Document::Scenario(spec) => spec.to_text(),
            Document::Sweep(sweep) => sweep.to_text(),
        };
        assert_eq!(
            emitted, text,
            "{name}: stale corpus file — rerun `cargo run -p noc-examples --bin gen_scenarios`"
        );
    }
}

#[test]
fn corpus_covers_the_required_shapes() {
    let files = corpus_files();
    let any = |pred: &dyn Fn(&str) -> bool| files.iter().any(|(_, text)| pred(text));
    assert!(
        any(&|t| t.contains("kind = \"mesh\"")),
        "corpus needs a mesh topology"
    );
    assert!(
        any(&|t| t.contains("kind = \"ring\"")),
        "corpus needs a ring topology"
    );
    assert!(
        any(&|t| t.contains("kind = \"custom\"")),
        "corpus needs a custom topology"
    );
    assert!(
        any(&|t| t.contains("clock_divisor = ")),
        "corpus needs divided clocks"
    );
    assert!(
        any(&|t| t.contains("[[sweep.point]]")),
        "corpus needs a sweep file"
    );
    // mixed protocols: all seven sockets appear somewhere
    for socket in ["ahb", "ocp", "axi", "strm", "pvci", "bvci", "avci"] {
        assert!(
            any(&|t| t.contains(&format!("socket = \"{socket}\""))),
            "corpus never uses the {socket} socket"
        );
    }
    // target-side protocols: both non-memory target kinds appear, and
    // the exclusive service flag is exercised
    for kind in ["axi", "service"] {
        assert!(
            any(&|t| t.contains(&format!("kind = \"{kind}\""))),
            "corpus never declares a {kind} target"
        );
    }
    assert!(
        any(&|t| t.contains("exclusive = true")),
        "corpus needs an exclusive service target"
    );
}

/// The corpus files with real dead time: horizon stepping must execute
/// strictly fewer steps than cycles on every backend row. Saturated
/// workloads legitimately run near-dense and stay off the list:
/// qos_classes, scale_mesh, serve_sweep, ordering_sweep (whose
/// high-outstanding points pass by only a few steps — too fragile to
/// gate on) and the zipf storms, which saturate the bus.
const SPARSE_FILES: [&str; 11] = [
    "set_top.scn",
    "layering_settop.scn",
    "clocked_mixed.scn",
    "ring_mixed.scn",
    "services.scn",
    "deep_pipeline.scn",
    "exclusive_locks.scn",
    "mesh_8x8_sparse.scn",
    "mesh_16x16_sparse.scn",
    "bursty_storm.scn",
    "trace_replay.scn",
];

/// Dense and horizon stepping must agree record-for-record on every
/// backend a corpus spec supports (the baselines reject divided clocks
/// and some target kinds with typed errors; the NoC runs everything),
/// every number of the horizon runs must be exactly what `GOLDEN.txt`
/// commits, and the horizon machinery's guards hold over the same rows.
#[test]
fn corpus_runs_identically_dense_and_horizon_on_all_backends() {
    let parse = |(name, text): (String, String)| {
        let mut doc = parse_document(&text).expect("corpus parses");
        // Trace files live next to their .scn files.
        doc.resolve_trace_paths(&corpus_dir());
        (name, doc)
    };
    let docs: Vec<(String, Document)> = corpus_files().into_iter().map(parse).collect();
    let actual = golden::render(&docs, |file, point, spec, backend| {
        let at = format!("{file}/{point} on {backend}");
        let dense =
            golden::run(spec, backend, StepMode::Dense, golden::MAX_CYCLES).inspect_err(|e| {
                let noc = matches!(backend, Backend::Noc(_));
                assert!(!noc, "{at}: the NoC must accept every declarable spec: {e}");
            })?;
        let horizon = golden::run(spec, backend, StepMode::Horizon, golden::MAX_CYCLES)?;
        let (d, h) = (&dense.report, &horizon.report);
        assert_eq!(
            (d.cycles, &dense.logs),
            (h.cycles, &horizon.logs),
            "{at}: dense vs horizon divergence"
        );
        assert_eq!(
            (d.steps, d.horizon_polls),
            (d.cycles, 0),
            "{at}: a dense run steps every cycle and never polls"
        );
        if SPARSE_FILES.contains(&file) {
            assert!(
                h.steps < h.cycles,
                "{at}: {} steps over {} cycles — the horizon machinery regressed to \
                 dense stepping",
                h.steps,
                h.cycles
            );
        }
        // Every next_activity poll must be paid for by calendar traffic:
        // one advance-loop iteration costs one poll and retires at least
        // one event on the NoC, so a regression to dense-style rescanning
        // sends polls to O(cycles) while pops stay put. The baselines
        // keep no calendar (pops 0).
        let (polls, pops) = (h.horizon_polls, h.calendar_pops);
        if matches!(backend, Backend::Noc(_)) {
            assert!(
                polls <= 4 * pops + 64,
                "{at}: {polls} polls against {pops} calendar pops — the advance loop \
                 is rescanning instead of riding the calendar"
            );
        }
        // The Zipf concentration must turn into real queueing where
        // target service dominates (the bus backend's arbitration
        // flattens the spread).
        if file == "zipf_hotspot.scn" && !matches!(backend, Backend::Bus(_)) {
            let spread = target_spread(spec, &horizon.logs);
            assert!(spread >= 2.0, "{at}: hot/cold spread is only {spread:.2}x");
        }
        Ok(horizon)
    });
    let committed = std::fs::read_to_string(corpus_dir().join(golden::FILE_NAME))
        .expect("tests/scenarios/GOLDEN.txt is committed");
    let moved = committed
        .lines()
        .zip(actual.lines())
        .filter(|(c, a)| c != a);
    let moved: Vec<String> = moved.map(|(c, a)| format!("-{c}\n+{a}")).collect();
    assert!(
        actual == committed,
        "GOLDEN.txt (-) differs from this build's runs (+). A golden diff is a \
         behaviour change: justify it, then rerun `cargo run -p noc-examples --bin \
         gen_scenarios` and commit.\n{}",
        moved.join("\n")
    );
    // The sweep runner itself (which honors per-point step overrides)
    // must agree with per-point reference runs.
    for (name, doc) in &docs {
        let Document::Sweep(sweep) = doc else {
            continue;
        };
        let results = sweep.run().expect("corpus sweep runs");
        assert_eq!(results.len(), sweep.points().len());
        for (p, r) in sweep.points().iter().zip(&results) {
            let reference = golden::run(&p.spec, &p.backend, StepMode::Dense, golden::MAX_CYCLES)
                .expect("point compiles");
            assert_eq!(
                (r.report.cycles, r.report.total_completions()),
                (
                    reference.report.cycles,
                    reference.report.total_completions()
                ),
                "{name}/{}",
                p.label
            );
        }
    }
}

/// Construction must stay linear in fabric size: build cost per switch
/// on the 32×32 mesh within 2× that of the 16×16 mesh (before routes
/// were indexed: 9.3 vs 28.0 µs/switch = 3.0×). Fastest of 20 builds
/// each — on a shared host interference only ever adds time, so the
/// minimum is the statistic that repeats. Wall-clock, hence ignored by
/// default; CI runs it in release.
#[test]
#[ignore = "wall-clock gate; run in release: cargo test --release -- --ignored"]
fn build_cost_per_switch_on_32x32_is_within_2x_of_16x16() {
    let per_switch_ns = |spec: &ScenarioSpec, switches: f64| {
        let fastest = (0..20)
            .map(|_| {
                let start = std::time::Instant::now();
                std::hint::black_box(spec.build(&Backend::noc()).expect("consistent"));
                start.elapsed()
            })
            .min()
            .expect("20 samples");
        fastest.as_nanos() as f64 / switches
    };
    let on_16 = per_switch_ns(&noc_examples::scenarios::sparse_mesh_spec(16), 256.0);
    let on_32 = per_switch_ns(&noc_examples::scenarios::sparse_mesh_32_spec(), 1024.0);
    assert!(
        on_32 <= 2.0 * on_16,
        "build is superlinear again: {on_32:.0} ns/switch on 32x32 vs {on_16:.0} on 16x16"
    );
}

/// A crossbar wider than one word of the switch's port sets: 40 AXI
/// initiators with one 4-byte read each of their own memory, 40
/// two-cycle memories, one 80-port switch — built here rather than in the
/// corpus, so the golden gains no row. All 40 heads wait at once, on inputs in both set
/// words, and every response leaves on an output in the other word from
/// its memory's. Dense and horizon runs must agree record for record, and
/// the NoC must give the numbers the switch gave when it scanned every
/// port.
#[test]
fn a_wide_crossbar_runs_identically_dense_and_horizon() {
    const PAIRS: u64 = 40;
    let spec = (0..PAIRS).fold(ScenarioSpec::new(), |spec, i| {
        let read = vec![SocketCommand::read(i * 0x100, 4)];
        spec.initiator(InitiatorSpec::new(
            &format!("m{i}"),
            SocketSpec::axi(),
            read,
        ))
    });
    let spec = (0..PAIRS).fold(spec, |spec, i| {
        spec.memory(MemorySpec::new(
            &format!("mem{i}"),
            i * 0x100,
            (i + 1) * 0x100,
            2,
        ))
    });
    let run = |mode| golden::run(&spec, &Backend::noc(), mode, 1_000).expect("builds");
    let (dense, horizon) = (run(StepMode::Dense), run(StepMode::Horizon));
    assert!(dense.drained && horizon.drained);
    assert_eq!(dense.logs, horizon.logs);
    assert_eq!(dense.report.cycles, horizon.report.cycles);
    let r = &horizon.report;
    let fabric = r.fabric.as_ref().expect("the NoC reports its fabric");
    // Every link here is one-cycle, so no flit files a wheel entry: the
    // pops are the endpoint calendar's.
    assert_eq!(
        (r.cycles, r.steps, r.horizon_polls, r.calendar_pops),
        (11, 9, 10, 200)
    );
    assert_eq!((fabric.flits_forwarded, r.total_completions()), (120, 40));
    assert_eq!(format!("{:.1}", r.mean_latency()), "10.0");
}

/// Runs `initiators` against an AXI slave target over `0x0..0x1000`
/// (latency 2, `bank_stagger`) on all three backends, and on the NoC
/// against a plain memory in its place: each must complete the same
/// transactions with the same data and statuses.
fn assert_axi_target_pairs_every_response(initiators: &str, bank_stagger: u32) {
    let fingerprint = |target: &str, backend: Backend| {
        let text = format!("{initiators}\n{target}base = 0x0\nend = 0x1000\nlatency = 2\n");
        let spec = ScenarioSpec::from_text(&text).expect("parses");
        let run = golden::run(&spec, &backend, StepMode::Horizon, 100_000).expect("builds");
        assert!(run.drained, "{backend} drains");
        run.report.system_fingerprint().to_string()
    };
    let axi =
        format!("[[target]]\nname = \"dram\"\nkind = \"axi\"\nbank_stagger = {bank_stagger}\n");
    let bus = fingerprint(&axi, Backend::bus());
    let runs = [
        ("noc", fingerprint(&axi, Backend::noc())),
        ("bridged", fingerprint(&axi, Backend::bridged())),
        (
            "noc over a plain memory",
            fingerprint("[[memory]]\nname = \"dram\"\n", Backend::noc()),
        ),
    ];
    for (what, fp) in runs {
        assert_eq!(
            fp, bus,
            "{what} against the bus: a response was paired with the wrong request"
        );
    }
}

/// The AXI slave answers R and B independently, so a same-ID one-beat
/// write finishes before an older eight-beat read: the target front end
/// must still return one (source, tag)'s responses in request order, or
/// the initiator hands the write's empty response to the read.
#[test]
fn axi_target_returns_one_tags_responses_in_request_order() {
    assert_axi_target_pairs_every_response(
        "[[initiator]]\nname = \"m\"\nsocket = \"axi\"\n\
         cmd = \"write 0x100 8x4 seed=0x11\"\ncmd = \"read 0x100 8x4 delay=40\"\n\
         cmd = \"write 0x200 1x4 seed=0x22\"\ncmd = \"read 0x200 1x4 delay=40\"\n",
        0,
    );
}

/// A banked AXI slave answers `b`'s later read before `a`'s exclusive
/// read: the target NIU must upgrade the exclusive read's status, not
/// that of whichever response comes back first.
#[test]
fn axi_target_exclusive_status_follows_its_own_request() {
    assert_axi_target_pairs_every_response(
        "[[initiator]]\nname = \"a\"\nsocket = \"axi\"\ncmd = \"read_ex 0x300 1x4\"\n\n\
         [[initiator]]\nname = \"b\"\nsocket = \"ahb\"\ncmd = \"read 0x000 1x4 delay=1\"\n",
        30,
    );
}

/// Transport-layer QoS holds end to end: on `qos_classes.scn`, raising
/// `class0`'s pressure (`3/1/0` against `0/0/0`) lowers its mean latency
/// and `class2`, left at 0 behind two higher classes, pays for it. Class
/// order alone cannot pass this — `class0` already beats `class2` at
/// equal pressure — so an arbiter that ignores pressure fails it.
#[test]
fn qos_pressure_moves_latency_between_classes_end_to_end() {
    let text = std::fs::read_to_string(corpus_dir().join("qos_classes.scn")).expect("corpus file");
    let sweep = Sweep::from_text(&text).expect("qos_classes.scn is a sweep");
    let means: Vec<(String, f64, f64)> = sweep
        .run()
        .expect("the QoS points compile")
        .into_iter()
        .map(|r| {
            let mean = |class| r.report.master(class).expect("declared").mean_latency();
            (r.label, mean("class0"), mean("class2"))
        })
        .collect();
    let [(equal, class0_equal, class2_equal), (pressured, class0, class2)] = &means[..] else {
        panic!("qos_classes.scn has two points, got {means:?}");
    };
    assert_eq!((equal.as_str(), pressured.as_str()), ("0/0/0", "3/1/0"));
    assert!(
        class0 < class0_equal,
        "class0 at pressure 3 ({class0:.1}) must beat pressure 0 ({class0_equal:.1})"
    );
    assert!(
        class2 > class2_equal,
        "class2 behind two pressured classes ({class2:.1}) must lose to equal pressure \
         ({class2_equal:.1})"
    );
}

#[test]
fn per_point_step_override_is_parsed_and_honored() {
    let (_, text) = corpus_files()
        .into_iter()
        .find(|(name, _)| name == "ordering_sweep.scn")
        .expect("ordering sweep is part of the corpus");
    let sweep = Sweep::from_text(&text).expect("parses as a sweep");
    assert_eq!(
        sweep.points()[0].step,
        Some(StepMode::Dense),
        "the reference point pins dense stepping"
    );
    assert!(sweep.points()[1..].iter().all(|p| p.step.is_none()));
    // Round-trips through the emitter too.
    let back = Sweep::from_text(&sweep.to_text()).expect("emitted sweep parses");
    let steps: Vec<Option<StepMode>> = back.points().iter().map(|p| p.step).collect();
    assert_eq!(
        steps,
        sweep.points().iter().map(|p| p.step).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// Negative-parse suite: every malformed file yields the expected typed
// error at the expected line.
// ---------------------------------------------------------------------

fn parse_err(text: &str) -> ParseError {
    match ScenarioSpec::from_text(text) {
        Err(ScenarioError::Parse(e)) => e,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn unknown_key_reports_its_line_and_column() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nbananas = 3\n");
    assert_eq!((e.line, e.column), (4, 1));
    assert_eq!(e.kind, ParseErrorKind::UnknownKey("bananas".into()));
}

#[test]
fn socket_param_on_wrong_socket_is_rejected() {
    // `tags` belongs to AXI, not AHB.
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ntags = 4\n");
    assert_eq!(e.line, 4);
    assert_eq!(e.kind, ParseErrorKind::UnknownKey("tags".into()));
}

#[test]
fn duplicate_initiator_name_reports_the_second_line() {
    let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\n\n[[initiator]]\nname = \"m\"\nsocket = \"ocp\"\n";
    let e = parse_err(text);
    assert_eq!(e.line, 6);
    assert_eq!(e.kind, ParseErrorKind::DuplicateName("m".into()));
}

#[test]
fn overlapping_memory_regions_report_the_second_region() {
    let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\n\n[[memory]]\nname = \"a\"\nbase = 0\nend = 0x1000\nlatency = 1\n\n[[memory]]\nname = \"b\"\nbase = 0x800\nend = 0x1800\nlatency = 1\n";
    let e = parse_err(text);
    assert_eq!(e.line, 12);
    assert_eq!(
        e.kind,
        ParseErrorKind::OverlappingRegions {
            a: "a".into(),
            b: "b".into()
        }
    );
}

#[test]
fn empty_region_reports_the_end_line() {
    let text = "[[memory]]\nname = \"a\"\nbase = 0x1000\nend = 0x1000\nlatency = 1\n";
    let e = parse_err(text);
    assert_eq!(e.line, 4);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, .. } if key == "end"),
        "{:?}",
        e.kind
    );
}

#[test]
fn missing_required_key_points_at_the_section() {
    let e = parse_err("[[initiator]]\nsocket = \"ahb\"\n");
    assert_eq!(e.line, 1);
    assert_eq!(
        e.kind,
        ParseErrorKind::MissingKey {
            section: "initiator".into(),
            key: "name".into()
        }
    );
}

#[test]
fn duplicate_key_reports_the_second_occurrence() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nname = \"n\"\nsocket = \"ahb\"\n");
    assert_eq!(e.line, 3);
    assert_eq!(e.kind, ParseErrorKind::DuplicateKey("name".into()));
}

#[test]
fn unknown_section_is_typed() {
    let e = parse_err("[nonsense]\nkey = 1\n");
    assert_eq!(e.line, 1);
    assert_eq!(e.kind, ParseErrorKind::UnknownSection("nonsense".into()));
}

#[test]
fn malformed_command_points_inside_the_string() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ncmd = \"peek 0x0 1x4\"\n");
    assert_eq!(e.line, 4);
    // column points at "peek", just past `cmd = "`.
    assert_eq!(e.column, 8);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "cmd" && reason.contains("peek")),
        "{:?}",
        e.kind
    );
}

#[test]
fn zero_clock_divisor_is_rejected() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nclock_divisor = 0\n");
    assert_eq!(e.line, 4);
    assert!(matches!(e.kind, ParseErrorKind::BadValue { ref key, .. } if key == "clock_divisor"));
}

/// Sizes a file can name but a process cannot allocate are hostile
/// input: an allocation failure aborts, which no `catch_unwind` in the
/// serve layer can turn into an error record. The known cases — an
/// NIU outstanding budget of `u32::MAX`, a mesh whose sides each pass
/// their own cap but whose product is 2^32 switches, and a generated
/// program of 2^64 − 1 commands, which compiles whole before the run —
/// must be typed errors, at line:col from text and from `validate` for
/// specs built through the API.
#[test]
fn sizes_that_would_abort_the_allocator_are_rejected_in_place() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\noutstanding = 4294967295\n");
    assert_eq!((e.line, e.column), (4, 15));
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "outstanding" && reason.contains("65536")),
        "{:?}",
        e.kind
    );
    let e = parse_err("[topology]\nkind = \"mesh\"\nwidth = 65536\nheight = 65536\n");
    assert_eq!((e.line, e.column), (4, 10));
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "height" && reason.contains("1048576")),
        "{:?}",
        e.kind
    );
    let e = parse_err(
        "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"zipf\"\nseed = 1\n\
         commands = 0xFFFF_FFFF_FFFF_FFFF\nexponent_milli = 800\n",
    );
    assert_eq!((e.line, e.column), (6, 12));
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "commands" && reason.contains("4194304")),
        "{:?}",
        e.kind
    );
    // The largest legal values still parse (and are never built here).
    let ok = "[topology]\nkind = \"mesh\"\nwidth = 1024\nheight = 1024\n\n\
              [[initiator]]\nname = \"m\"\nsocket = \"ahb\"\noutstanding = 65536\n\n\
              [[memory]]\nname = \"a\"\nbase = 0\nend = 0x1000\nlatency = 1\n";
    let spec = ScenarioSpec::from_text(ok).expect("values at the limits parse");
    assert_eq!(spec.validate(), Ok(()));

    let mut hostile = spec.clone();
    hostile.initiators[0].outstanding = Some(u32::MAX);
    assert_eq!(
        hostile.validate(),
        Err(ScenarioError::OutstandingTooLarge {
            initiator: "m".into(),
            outstanding: u32::MAX
        })
    );
    let hostile = spec.clone().with_topology(TopologySpec::Mesh {
        width: 1 << 16,
        height: 1 << 16,
    });
    assert!(
        matches!(hostile.validate(), Err(ScenarioError::BadTopology { ref reason })
            if reason.contains("1048576")),
        "{:?}",
        hostile.validate()
    );
    // `build` validates first, so the fabric is never allocated.
    assert!(matches!(
        hostile.build(&Backend::noc()),
        Err(ScenarioError::BadTopology { .. })
    ));

    // Nor is a program: the largest legal count validates, one more is
    // refused before anything compiles.
    let limit = noc_scenario::ProgramSpec::MAX_GENERATED;
    let mut hostile = spec.clone();
    let zipf = |commands| noc_scenario::ZipfSpec::new(1, commands, 800).into();
    hostile.initiators[0].program = zipf(limit);
    assert_eq!(hostile.validate(), Ok(()));
    hostile.initiators[0].program = zipf(usize::MAX);
    let refused = hostile.build(&Backend::noc()).map(drop);
    assert_eq!(
        refused,
        Err(ScenarioError::BadProgram {
            initiator: "m".into(),
            reason: format!("{} commands exceed the limit of {limit}", usize::MAX),
        })
    );
}

/// The sharded-stepping grammar was removed with the engine; its keys
/// and step strings are hostile input like any other and must fall
/// through to the typed unknown-key / unknown-step-mode errors at the
/// offending entry, never a panic or a silent accept.
#[test]
fn removed_sharded_grammar_is_rejected_in_place() {
    let tail = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\n\n\
                [[memory]]\nname = \"a\"\nbase = 0\nend = 0x1000\nlatency = 1\n";
    // (document head, expected line, expected column, key, bad value).
    let cases = [
        ("[config]\nshards = 4\n\n", 2, 1, "shards", None),
        ("[config]\nbuffer_depth = 4\nassignment = [0, 0, 1, 1]\n\n", 3, 1, "assignment", None),
        ("[sweep]\nstep = \"sharded\"\n\n[[sweep.point]]\nlabel = \"p\"\nbackend = \"noc\"\n\n", 2, 8, "step", Some("sharded")),
        ("[sweep]\nstep = \"sharded(4)\"\n\n[[sweep.point]]\nlabel = \"p\"\nbackend = \"noc\"\n\n", 2, 8, "step", Some("sharded(4)")),
        ("[[sweep.point]]\nlabel = \"p\"\nbackend = \"noc\"\nstep = \"sharded\"\n\n", 4, 8, "step", Some("sharded")),
        ("[[sweep.point]]\nlabel = \"p\"\nbackend = \"noc\"\nstep = \"sharded(4)\"\n\n", 4, 8, "step", Some("sharded(4)")),
    ];
    for (head, line, column, key, bad_value) in cases {
        let text = format!("{head}{tail}");
        let result = if head.contains("sweep") {
            Sweep::from_text(&text).map(drop)
        } else {
            ScenarioSpec::from_text(&text).map(drop)
        };
        let Err(ScenarioError::Parse(e)) = result else {
            panic!("{head:?}: expected a parse error, got {result:?}");
        };
        assert_eq!((e.line, e.column), (line, column), "{head:?}: {e}");
        match bad_value {
            None => assert_eq!(e.kind, ParseErrorKind::UnknownKey(key.into()), "{head:?}"),
            Some(value) => assert!(
                matches!(e.kind, ParseErrorKind::BadValue { key: ref k, ref reason }
                    if k == key && reason.contains("unknown step mode") && reason.contains(value)),
                "{head:?}: {:?}",
                e.kind
            ),
        }
    }
}

/// The removed flags on the `scn` command line — sharded stepping, and
/// the three `--assert-*` gates the corpus golden replaced: the process
/// exits non-zero with the usage text, before it touches any file.
#[test]
fn removed_sharded_flags_exit_with_the_usage_error() {
    let cases: [(&[&str], &str); 7] = [
        (&["--shards", "2", "f.scn"], "usage: scn ["),
        (&["--step", "sharded", "f.scn"], "usage: scn ["),
        (&["serve", "--step", "sharded"], "usage: scn serve ["),
        (&["serve", "--shards", "2"], "usage: scn serve ["),
        (
            &["--step", "both", "--assert-fewer-steps", "f.scn"],
            "usage: scn [",
        ),
        (
            &["--step", "both", "--assert-wakeup-discipline", "f.scn"],
            "usage: scn [",
        ),
        (&["--assert-target-spread", "2", "f.scn"], "usage: scn ["),
    ];
    for (args, usage) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scn"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("scn spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown"), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
    }
}

/// A billion-stage link pipeline is a legal `[config]` value. Credits in
/// flight cost storage per credit, not per cycle of return wire, so the
/// run drains — in a handful of executed steps, horizon stepping skipping
/// the wire — where it used to abort the process allocating a credit
/// ring as long as the wire (24 GB, exit 134); under `scn`'s default
/// cycle budget it is the ordinary "failed to drain" error.
#[test]
fn a_billion_stage_link_pipeline_drains_or_fails_without_aborting() {
    let text = format!(
        "[config]\nlink_pipeline = 1000000000\n\n{}",
        one_initiator("socket = \"axi\"\ncmd = \"read 0x1000 2x4\"", "2")
    );
    let spec = ScenarioSpec::from_text(&text).expect("a legal scenario");
    let mut sim = spec.build(&Backend::noc()).expect("the NoC builds it");
    assert!(sim.run_until_with(100_000_000_000, StepMode::Horizon));
    let report = sim.report();
    assert_eq!((report.cycles, report.steps), (4_000_000_012, 11));
    assert_eq!(report.masters[0].mean_latency(), 4_000_000_011.0);

    let dir = std::env::temp_dir().join(format!("noc-scn-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("deep_pipeline.scn");
    std::fs::write(&file, &text).expect("scenario written");
    let scn = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_scn"))
            .args(args)
            .arg(&file)
            .output()
            .expect("scn spawns")
    };
    let out = scn(&["--backend", "noc", "--max-cycles", "100000000000"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("| 4000000012 |"), "{stdout}");
    let out = scn(&["--backend", "noc"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("failed to drain in 10000000 cycles") && !stderr.contains("panicked"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_integer_and_unterminated_string_are_syntax_errors() {
    let e = parse_err("[[memory]]\nname = \"a\"\nbase = 0xZZ\nend = 16\nlatency = 1\n");
    assert_eq!(e.line, 3);
    assert!(matches!(e.kind, ParseErrorKind::Syntax(_)));
    let e = parse_err("[[initiator]]\nname = \"m\nsocket = \"ahb\"\n");
    assert_eq!(e.line, 2);
    assert!(matches!(e.kind, ParseErrorKind::Syntax(_)));
}

#[test]
fn unknown_target_kind_reports_its_line() {
    let text = "[[target]]\nname = \"t\"\nkind = \"dimm\"\nbase = 0\nend = 0x100\nlatency = 1\n";
    let e = parse_err(text);
    assert_eq!(e.line, 3);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "kind" && reason.contains("dimm")),
        "{:?}",
        e.kind
    );
}

#[test]
fn target_block_missing_latency_points_at_the_section() {
    let e = parse_err("[[target]]\nname = \"t\"\nkind = \"service\"\nbase = 0\nend = 0x100\n");
    assert_eq!(e.line, 1);
    assert_eq!(
        e.kind,
        ParseErrorKind::MissingKey {
            section: "target".into(),
            key: "latency".into()
        }
    );
}

#[test]
fn target_param_on_wrong_kind_is_rejected() {
    // `bank_stagger` belongs to AXI slaves, not service blocks.
    let text = "[[target]]\nname = \"t\"\nkind = \"service\"\nbase = 0\nend = 0x100\nlatency = 1\nbank_stagger = 2\n";
    let e = parse_err(text);
    assert_eq!(e.line, 7);
    assert_eq!(e.kind, ParseErrorKind::UnknownKey("bank_stagger".into()));
    // …and on a plain memory, `kind`-specific params are equally unknown.
    let text = "[[memory]]\nname = \"t\"\nbase = 0\nend = 0x100\nlatency = 1\nwrite_latency = 3\n";
    let e = parse_err(text);
    assert_eq!(e.line, 6);
    assert_eq!(e.kind, ParseErrorKind::UnknownKey("write_latency".into()));
}

#[test]
fn non_boolean_exclusive_flag_is_rejected() {
    let text = "[[target]]\nname = \"t\"\nkind = \"service\"\nbase = 0\nend = 0x100\nlatency = 1\nexclusive = 1\n";
    let e = parse_err(text);
    assert_eq!(e.line, 7);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "exclusive" && reason.contains("true or false")),
        "{:?}",
        e.kind
    );
}

#[test]
fn exclusive_service_target_on_bus_backend_is_the_typed_build_error() {
    // Parsing succeeds — whether a backend can model a target kind is
    // the backend's decision, made at compile time with a typed error.
    let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ncmd = \"read_ex 0x40 1x4\"\ncmd = \"write_ex 0x40 1x4 seed=1\"\n\n[[target]]\nname = \"sem\"\nkind = \"service\"\nbase = 0\nend = 0x1000\nlatency = 1\nwrite_latency = 2\nexclusive = true\n";
    let spec = ScenarioSpec::from_text(text).expect("exclusive service targets parse");
    match spec.build(&Backend::bus()) {
        Err(ScenarioError::UnsupportedTarget {
            backend,
            target,
            kind,
        }) => {
            assert_eq!(backend, "bus");
            assert_eq!(target, "sem");
            assert_eq!(kind, "service+exclusive");
        }
        other => panic!("expected UnsupportedTarget, got {:?}", other.map(|_| ())),
    }
    // The NoC and the bridged crossbar both model it.
    assert!(spec.build(&Backend::noc()).is_ok());
    assert!(spec.build(&Backend::bridged()).is_ok());
}

#[test]
fn sync_traffic_to_a_plain_service_block_is_a_validation_error() {
    // Without the exclusive flag a register file rejects exclusive and
    // locked opcodes at validation time, before anything is built.
    let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ncmd = \"read_ex 0x40 1x4\"\n\n[[target]]\nname = \"regs\"\nkind = \"service\"\nbase = 0\nend = 0x1000\nlatency = 1\n";
    let spec = ScenarioSpec::from_text(text).expect("parses");
    match spec.validate() {
        Err(ScenarioError::SyncUnsupported {
            initiator, target, ..
        }) => {
            assert_eq!(initiator, "m");
            assert_eq!(target, "regs");
        }
        other => panic!("expected SyncUnsupported, got {other:?}"),
    }
}

#[test]
fn clocked_spec_on_bus_backend_is_the_typed_build_error() {
    // Parsing succeeds — rejecting divided clocks is the *backend's*
    // decision, made at compile time with the typed error.
    let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nclock_divisor = 2\ncmd = \"read 0x0 1x4\"\n\n[[memory]]\nname = \"mem\"\nbase = 0\nend = 0x1000\nlatency = 1\n";
    let spec = ScenarioSpec::from_text(text).expect("clocked specs parse");
    for backend in [Backend::bus(), Backend::bridged()] {
        match spec.build(&backend) {
            Err(ScenarioError::UnsupportedClock {
                endpoint, divisor, ..
            }) => {
                assert_eq!(endpoint, "m");
                assert_eq!(divisor, 2);
            }
            other => panic!("expected UnsupportedClock, got {:?}", other.map(|_| ())),
        }
    }
    assert!(spec.build(&Backend::noc()).is_ok());
    // The same spec inside a sweep point surfaces the same typed error
    // from the sweep runner's up-front compile check.
    let sweep_text = format!("[[sweep.point]]\nlabel = \"p\"\nbackend = \"bus\"\n\n{text}");
    let sweep = Sweep::from_text(&sweep_text).expect("sweep parses");
    assert!(matches!(
        sweep.run(),
        Err(ScenarioError::UnsupportedClock { .. })
    ));
}

#[test]
fn overflowing_xy_routing_is_the_typed_build_error() {
    // The dimensions parse (each fits a usize) but their product does
    // not; whether they fit the fabric is the topology layer's check,
    // and it must answer with its mismatch error, not an overflow panic
    // (debug) or a wrapped product that happens to match (release).
    let head = "[topology]\nkind = \"mesh\"\nwidth = 2\nheight = 1\n";
    let tail = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ncmd = \"read 0x0 1x4\"\n\n\
                [[memory]]\nname = \"mem\"\nbase = 0\nend = 0x1000\nlatency = 1\n";
    for dims in ["4294967296x4294967296", "18446744073709551615x2"] {
        let text = format!("{head}routing = \"xy:{dims}\"\n\n{tail}");
        let spec = ScenarioSpec::from_text(&text).expect("each dimension is a valid integer");
        match spec.build(&Backend::noc()) {
            Err(ScenarioError::BadTopology { reason }) => assert!(
                reason.contains(&format!("mesh {dims} overflows the switch count")),
                "{reason}"
            ),
            other => panic!("expected BadTopology, got {:?}", other.map(|_| ())),
        }
    }
    // One digit more no longer fits a dimension: a parse error in place.
    let e = parse_err(&format!(
        "{head}routing = \"xy:18446744073709551616x2\"\n\n{tail}"
    ));
    assert_eq!((e.line, e.column), (5, 11));
    assert!(matches!(e.kind, ParseErrorKind::BadValue { ref key, .. } if key == "routing"));
}

#[test]
fn errors_display_and_propagate_like_std_errors() {
    // `?`-friendly: both error types implement std::error::Error with
    // useful Display text, and ScenarioError::Parse exposes its source.
    fn through_question_mark(text: &str) -> Result<ScenarioSpec, Box<dyn std::error::Error>> {
        Ok(ScenarioSpec::from_text(text)?)
    }
    let err = through_question_mark("[topology]\nkind = \"floor\"\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("floor"), "{msg}");
    let scenario_err = err
        .downcast::<ScenarioError>()
        .expect("typed error survives");
    let source = std::error::Error::source(scenario_err.as_ref()).expect("Parse has a source");
    assert!(source.downcast_ref::<ParseError>().is_some());
}

// ---------------------------------------------------------------------
// Negative parses for the generated program kinds.
// ---------------------------------------------------------------------

#[test]
fn bad_program_seed_is_rejected_in_place() {
    let e = parse_err(
        "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"bursty\"\nseed = \"lucky\"\ncommands = 10\nburst_len = 4\nidle_gap = 10\n",
    );
    assert_eq!(e.line, 5);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, .. } if key == "seed"),
        "{:?}",
        e.kind
    );
}

#[test]
fn missing_trace_path_points_at_the_section() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"trace\"\n");
    assert_eq!(e.line, 1);
    assert_eq!(
        e.kind,
        ParseErrorKind::MissingKey {
            section: "initiator".into(),
            key: "trace_file".into()
        }
    );
}

#[test]
fn zipf_exponent_out_of_range_is_rejected_in_place() {
    let e = parse_err(
        "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"zipf\"\nseed = 7\ncommands = 10\nexponent_milli = 9000\n",
    );
    assert_eq!(e.line, 7);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, .. } if key == "exponent_milli"),
        "{:?}",
        e.kind
    );
}

#[test]
fn cmd_lines_conflict_with_a_generated_kind() {
    let e = parse_err(
        "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"bursty\"\nseed = 7\ncommands = 10\nburst_len = 4\nidle_gap = 10\ncmd = \"read 0x0 1x4\"\n",
    );
    assert_eq!((e.line, e.column), (9, 1));
    assert!(
        matches!(e.kind, ParseErrorKind::Syntax(ref s) if s.contains("conflict")),
        "{:?}",
        e.kind
    );
}

#[test]
fn unknown_program_kind_is_rejected_in_place() {
    let e = parse_err("[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"markov\"\n");
    assert_eq!(e.line, 4);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "kind" && reason.contains("markov")),
        "{:?}",
        e.kind
    );
}

#[test]
fn unknown_discipline_is_rejected_in_place() {
    let e = parse_err(
        "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"zipf\"\nseed = 7\ncommands = 10\nexponent_milli = 800\ndiscipline = \"ajar\"\n",
    );
    assert_eq!(e.line, 8);
    assert!(
        matches!(e.kind, ParseErrorKind::BadValue { ref key, ref reason }
            if key == "discipline" && reason.contains("ajar")),
        "{:?}",
        e.kind
    );
}

#[test]
fn shape_keys_on_an_explicit_program_are_unknown() {
    // `read_pct` only means something for the generated kinds.
    let e = parse_err(
        "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\ncmd = \"read 0x0 1x4\"\nread_pct = 50\n",
    );
    assert_eq!(e.line, 5);
    assert_eq!(e.kind, ParseErrorKind::UnknownKey("read_pct".into()));
}

#[test]
fn streams_beyond_the_socket_limit_fail_validation() {
    // Parses fine, but AHB has a single stream: build-time validation
    // rejects it with the typed BadProgram error, not a panic downstream.
    let text = "[[initiator]]\nname = \"m\"\nsocket = \"ahb\"\nkind = \"zipf\"\nseed = 7\ncommands = 10\nexponent_milli = 800\nstreams = 2\n\n[[memory]]\nname = \"mem\"\nbase = 0\nend = 0x1000\nlatency = 1\n";
    let spec = ScenarioSpec::from_text(text).unwrap();
    match spec.build(&noc_scenario::Backend::noc()) {
        Err(ScenarioError::BadProgram { initiator, .. }) => assert_eq!(initiator, "m"),
        other => panic!("expected BadProgram, got {:?}", other.map(|_| ())),
    }
}

// ---------------------------------------------------------------------
// Commands a socket cannot carry, and signed integer literals: typed
// errors from the library, `scn` and a serve request — never a panic.
// ---------------------------------------------------------------------

/// What a rejected document must answer with.
enum Rejected {
    /// A parse error at this line and column.
    At(usize, usize),
    /// A validation error naming initiator `m`, its reason containing
    /// this text.
    Program(String),
    /// A validation error naming initiator `m`'s socket, with exactly
    /// this reason.
    Socket(&'static str),
    /// A trace-file error at this trace line.
    TraceLine(usize),
    /// A validation error on every backend: a topology whose reason
    /// contains this text.
    Topology(&'static str),
    /// The NoC's topology error, whose reason contains this text; the
    /// baselines, which build no switch, run the scenario.
    NocTopology(&'static str),
}

/// An initiator `m` (the given lines) over one 64 KiB memory whose
/// latency is written as `latency`.
fn one_initiator(initiator: &str, latency: &str) -> String {
    format!(
        "[[initiator]]\nname = \"m\"\n{initiator}\n\n\
         [[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x10000\nlatency = {latency}\n"
    )
}

#[test]
fn commands_a_socket_cannot_carry_and_signed_integers_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("noc-scn-admits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("long.trace"), "0 read 0x0 300 4\n").expect("trace written");
    let bursty = "kind = \"bursty\"\nseed = 1\ncommands = 10\nburst_len = 2\nidle_gap = 2";
    let cases: Vec<(&str, String, Rejected)> = vec![
        (
            "pvci_multi_beat",
            one_initiator("socket = \"pvci\"\ncmd = \"read 0x10 4x4\"", "1"),
            Rejected::Program("single-beat".into()),
        ),
        (
            // Accepted, re-emitted and run as `pipeline = 1` before.
            "pvci_pipelined",
            one_initiator(
                "socket = \"pvci\"\npipeline = 5\ncmd = \"read 0x10 1x4\"",
                "1",
            ),
            Rejected::Socket("PVCI is single-outstanding: pipeline must be 1"),
        ),
        (
            "ocp_stream_beyond_threads",
            one_initiator(
                "socket = \"ocp\"\nthreads = 2\ncmd = \"read 0x10 1x4 stream=5\"",
                "1",
            ),
            Rejected::Program("stream 5".into()),
        ),
        (
            "strm_exclusive",
            one_initiator("socket = \"strm\"\ncmd = \"read_ex 0x10 1x4\"", "1"),
            Rejected::Program("STRM".into()),
        ),
        (
            "beat_size_not_a_power_of_two",
            one_initiator("socket = \"ahb\"\ncmd = \"read 0x10 1x3\"", "1"),
            Rejected::Program("beat size 3".into()),
        ),
        (
            "beat_count_u32_max",
            one_initiator("socket = \"ahb\"\ncmd = \"read 0x0 4294967295x4\"", "1"),
            Rejected::At(4, 17),
        ),
        (
            "stream_beyond_ordering_override",
            one_initiator(
                "socket = \"ocp\"\nthreads = 4\nordering = \"threaded:1\"\n\
                 cmd = \"read 0x10 1x4 stream=3\"",
                "1",
            ),
            Rejected::Program("ordering override".into()),
        ),
        (
            "bursty_300_beats",
            one_initiator(&format!("socket = \"ahb\"\n{bursty}\nbeats = 300"), "1"),
            Rejected::At(9, 9),
        ),
        (
            "bursty_256_byte_beats",
            one_initiator(
                &format!("socket = \"ahb\"\n{bursty}\nbeat_bytes = 256"),
                "1",
            ),
            Rejected::At(9, 14),
        ),
        (
            "trace_300_beats",
            one_initiator(
                "socket = \"ahb\"\nkind = \"trace\"\ntrace_file = \"long.trace\"",
                "1",
            ),
            Rejected::TraceLine(1),
        ),
        (
            "signed_hex_address",
            one_initiator("socket = \"ahb\"\ncmd = \"read 0x+20 1x4\"", "1"),
            Rejected::At(4, 13),
        ),
        (
            "signed_command_integers",
            one_initiator("socket = \"ahb\"\ncmd = \"read +64 +1x+4\"", "1"),
            Rejected::At(4, 13),
        ),
        (
            "signed_key_value",
            one_initiator("socket = \"ahb\"\ncmd = \"read 0x0 1x4\"", "+2"),
            Rejected::At(10, 11),
        ),
    ];
    // Opcodes no response ever answers, on the sockets whose masters
    // retire a command on its response: each used to park forever and
    // end in a budget-exhausted run on every backend.
    let mut cases: Vec<(String, String, Rejected)> = cases
        .into_iter()
        .map(|(name, text, rejected)| (name.to_owned(), text, rejected))
        .collect();
    for socket in ["ahb", "pvci", "bvci", "avci"] {
        let posted = ("posted", "write_posted 0x0 1x4 seed=0x1", "WRP");
        for (tag, cmd, op) in [posted, ("broadcast", "broadcast 0x0 1x4", "BCST")] {
            let kind = socket.to_uppercase();
            let why = format!("command 0 ({op} @0x0 1x4B s0): {kind} sockets cannot express {op}");
            let initiator = format!("socket = \"{socket}\"\ncmd = \"{cmd}\"");
            let text = one_initiator(&initiator, "1");
            cases.push((format!("{socket}_{tag}"), text, Rejected::Program(why)));
        }
    }
    // Switches with more ports than a port number can name: a custom
    // link list the validation counts, and a crossbar of 260 endpoints
    // the NoC's topology builder refuses (both used to panic, the
    // crossbar with an index out of bounds while wiring the fabric).
    let links = vec!["[0, 1]"; 256].join(", ");
    let custom = format!(
        "[topology]\nkind = \"custom\"\nswitches = 2\nlinks = [{links}]\nplacement = [0, 1]\n\n{}",
        one_initiator("socket = \"ahb\"\ncmd = \"read 0x0 1x4\"", "1")
    );
    cases.push((
        "custom_links_over_a_switch_s_ports".into(),
        custom,
        Rejected::Topology("switch 0 needs 256 ports, more than the 255 a switch can have"),
    ));
    let mut crossbar = String::new();
    for i in 0..130 {
        let cmd = format!("read {:#x} 1x4", i * 0x100);
        crossbar +=
            &format!("[[initiator]]\nname = \"m{i}\"\nsocket = \"ahb\"\ncmd = \"{cmd}\"\n\n");
    }
    for i in 0..130 {
        let (base, end) = (i * 0x100, (i + 1) * 0x100);
        crossbar += &format!(
            "[[memory]]\nname = \"mem{i}\"\nbase = {base:#x}\nend = {end:#x}\nlatency = 1\n\n"
        );
    }
    cases.push((
        "crossbar_of_260_endpoints".into(),
        crossbar,
        Rejected::NocTopology("node 255: switch 0 needs 256 ports, more than the 255"),
    ));
    let cache = std::sync::Mutex::new(noc_serve::CheckpointCache::new(4));
    for (name, text, rejected) in &cases {
        // The library: a typed error at parse time, or from validation
        // on every backend.
        match (parse_document(text), rejected) {
            (Err(e), Rejected::At(line, column)) => {
                assert_eq!((e.line, e.column), (*line, *column), "{name}: {e}");
            }
            (Ok(mut doc), _) => {
                doc.resolve_trace_paths(&dir);
                let Document::Scenario(spec) = doc else {
                    panic!("{name}: expected a scenario document");
                };
                for (label, make) in Backend::NAMES {
                    match (spec.build(&make()).map(drop), rejected) {
                        (
                            Err(ScenarioError::BadProgram { initiator, reason }),
                            Rejected::Program(why),
                        ) => {
                            assert_eq!(initiator, "m", "{name}/{label}");
                            assert!(reason.contains(why.as_str()), "{name}/{label}: {reason}");
                        }
                        (
                            Err(ScenarioError::BadSocket { initiator, reason }),
                            Rejected::Socket(why),
                        ) => assert_eq!((initiator.as_str(), reason.as_str()), ("m", *why)),
                        (Err(ScenarioError::Trace { line, .. }), Rejected::TraceLine(at)) => {
                            assert_eq!(line, *at, "{name}/{label}");
                        }
                        (Err(ScenarioError::BadTopology { reason }), Rejected::Topology(why)) => {
                            assert!(reason.contains(why), "{name}/{label}: {reason}");
                        }
                        (outcome, Rejected::NocTopology(why)) if *label != "noc" => {
                            assert!(outcome.is_ok(), "{name}/{label}: {outcome:?}");
                            let Err(ScenarioError::BadTopology { reason }) =
                                spec.build(&Backend::noc()).map(drop)
                            else {
                                panic!("{name}: the NoC builds");
                            };
                            assert!(reason.contains(why), "{name}: {reason}");
                        }
                        (
                            Err(ScenarioError::BadTopology { reason }),
                            Rejected::NocTopology(why),
                        ) => {
                            assert!(reason.contains(why), "{name}/{label}: {reason}");
                        }
                        (other, _) => panic!("{name}/{label}: got {other:?}"),
                    }
                }
            }
            (other, _) => panic!("{name}: got {:?}", other.map(drop)),
        }
        // `scn FILE`: exit status 1 and a one-line error, not a panic's
        // 101 and backtrace.
        let file = dir.join(format!("{name}.scn"));
        std::fs::write(&file, text).expect("scenario written");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scn"))
            .arg(&file)
            .output()
            .expect("scn spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        // A serve request: rejected on load, or one error record per
        // point that owes nothing to `catch_unwind`.
        let Ok(request) = noc_serve::Request::load(name, &file) else {
            assert!(matches!(rejected, Rejected::At(..)), "{name}");
            continue;
        };
        let (config, mut records) = (noc_serve::ServeConfig::default(), Vec::new());
        let mut stats = noc_serve::ServeStats::default();
        noc_serve::server::execute_request(&request, &config, &cache, &mut records, &mut stats)
            .expect("records written");
        let records = String::from_utf8_lossy(&records);
        let failed = if matches!(rejected, Rejected::NocTopology(_)) {
            1
        } else {
            3
        };
        assert_eq!(
            (stats.points_ok, stats.points_failed),
            (3 - failed, failed),
            "{name}: {records}"
        );
        assert!(!records.contains("panic"), "{name}: {records}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
