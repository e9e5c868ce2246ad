//! Snapshot/restore determinism: checkpointing a simulation mid-run and
//! continuing — the original, the snapshot, either — must reproduce an
//! uninterrupted run record for record, timestamps and counters
//! included, on every backend and in both step modes. This is the
//! contract the serve layer's warm-state forking rests on.

use noc_protocols::CompletionRecord;
use noc_scenario::{Backend, ScenarioSpec, Simulation, StepMode};

/// A mixed-protocol scenario every backend can compile: no divided
/// clocks, no service or exclusive targets.
fn spec() -> ScenarioSpec {
    let text = "\
[topology]
kind = \"mesh\"
width = 2
height = 2

[[initiator]]
name = \"cpu\"
socket = \"axi\"
cmd = \"read 0x1000 4x8\"
cmd = \"write 0x2000 4x8 delay=3\"
cmd = \"read 0x1100 2x4 stream=1\"

[[initiator]]
name = \"dsp\"
socket = \"ocp\"
cmd = \"write 0x2100 6x4 delay=1\"
cmd = \"read 0x1200 3x8\"

[[memory]]
name = \"dram\"
base = 0x0
end = 0x2000
latency = 6
queue = 2

[[memory]]
name = \"sram\"
base = 0x2000
end = 0x4000
latency = 2
queue = 4
";
    ScenarioSpec::from_text(text).expect("fixture parses")
}

const BUDGET: u64 = 100_000;

/// Everything two runs must agree on to count as identical.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    now: u64,
    steps: u64,
    logs: Vec<(String, Vec<CompletionRecord>)>,
    /// Every report row but `polls`, which is kept apart: an interrupted
    /// horizon run may poll once more than an uninterrupted one.
    report: String,
    polls: u64,
}

fn trace(sim: &dyn Simulation) -> Trace {
    let mut report = sim.report();
    let polls = std::mem::take(&mut report.horizon_polls);
    Trace {
        now: sim.now(),
        steps: report.steps,
        logs: sim
            .logs()
            .iter()
            .map(|(name, log)| ((*name).to_owned(), log.records().to_vec()))
            .collect(),
        report: format!("{report:?}"),
        polls,
    }
}

fn backends() -> [Backend; 3] {
    [Backend::noc(), Backend::bridged(), Backend::bus()]
}

/// Interrupting a run at any cycle — the run loop stops there and is
/// called again — changes nothing but, at most, one extra poll: a stop
/// inside a span the horizon would have skipped in one hop splits that
/// hop in two. A snapshot taken at the stop adds nothing more: the
/// original and the restored copy replay the interrupted run exactly,
/// polls included.
#[test]
fn interrupted_runs_match_uninterrupted_runs() {
    for backend in backends() {
        for mode in [StepMode::Dense, StepMode::Horizon] {
            let run = format!("{} / {mode:?}", backend.label());

            // Reference: one uninterrupted run.
            let mut reference = spec().build(&backend).expect("fixture compiles");
            assert!(reference.run_until_with(BUDGET, mode), "{run}: drains");
            let expected = trace(reference.as_ref());
            assert!(expected.now > 4, "{run}: long enough to interrupt");

            for cut in 1..expected.now {
                let label = format!("{run} / cut at {cut}");
                let interrupted = || {
                    let mut sim = spec().build(&backend).expect("fixture compiles");
                    assert!(!sim.run_until_with(cut, mode), "{label}: not yet drained");
                    sim
                };

                // Interrupted without a snapshot: the same run but polls.
                let mut plain = interrupted();
                assert!(plain.run_until_with(BUDGET, mode), "{label}: drains");
                let plain = trace(plain.as_ref());
                assert!(
                    matches!(plain.polls.checked_sub(expected.polls), Some(0 | 1)),
                    "{label}: {} polls against {} uninterrupted",
                    plain.polls,
                    expected.polls
                );
                assert_eq!(
                    Trace {
                        polls: expected.polls,
                        ..plain.clone()
                    },
                    expected,
                    "{label}: an interruption must not disturb the run"
                );

                // Interrupted with a snapshot: continue BOTH the original
                // and the restored copy to completion.
                let mut original = interrupted();
                let mut restored = original.snapshot();
                assert_eq!(
                    trace(original.as_ref()),
                    trace(restored.as_ref()),
                    "{label}: a snapshot is the state it was taken from"
                );
                assert!(original.run_until_with(BUDGET, mode), "{label}: drains");
                assert!(restored.run_until_with(BUDGET, mode), "{label}: drains");
                assert_eq!(
                    trace(original.as_ref()),
                    plain,
                    "{label}: continuing past a checkpoint must not disturb the run"
                );
                assert_eq!(
                    trace(restored.as_ref()),
                    plain,
                    "{label}: a restored checkpoint must replay the identical future"
                );
            }
        }
    }
}

#[test]
fn snapshots_are_independent_copies() {
    for backend in backends() {
        let label = backend.label();
        let mut sim = spec().build(&backend).expect("fixture compiles");
        assert!(!sim.run_until_with(5, StepMode::Dense), "{label}");
        let frozen = sim.snapshot();
        let at_freeze = trace(frozen.as_ref());
        // Running the parent on must not leak into the snapshot.
        assert!(sim.run_until_with(BUDGET, StepMode::Dense), "{label}");
        assert_eq!(
            trace(frozen.as_ref()),
            at_freeze,
            "{label}: snapshot mutated by its parent's progress"
        );
        assert_ne!(
            trace(sim.as_ref()),
            at_freeze,
            "{label}: parent visibly advanced past the checkpoint"
        );
    }
}

/// A NoC scenario that keeps flits in every kind of fabric storage as it
/// runs: input FIFOs (two-flit buffers behind contended outputs), output
/// stashes (half-width links take two cycles a flit), pipelined links,
/// clock-domain crossings (endpoints on divided clocks) and a path pinned
/// by a locked sequence.
fn fabric_storage_spec() -> ScenarioSpec {
    let text = "\
[topology]
kind = \"mesh\"
width = 2
height = 2

[config]
buffer_depth = 2
link_pipeline = 1
link_phits = 2

[[initiator]]
name = \"sync\"
socket = \"ahb\"
clock_divisor = 2
cmd = \"read_locked 0x40 1x4\"
cmd = \"write_unlock 0x40 1x4 seed=0x1 delay=4\"
cmd = \"read_locked 0x40 1x4\"
cmd = \"write_unlock 0x40 1x4 seed=0x2 delay=4\"

[[initiator]]
name = \"cpu\"
socket = \"axi\"
cmd = \"write 0x1100 8x4 seed=3\"
cmd = \"read 0x1000 8x4\"
cmd = \"read 0x1200 4x8 stream=1\"
cmd = \"write 0x1300 4x4 seed=4 stream=1\"

[[initiator]]
name = \"dsp\"
socket = \"ocp\"
clock_divisor = 3
cmd = \"write 0x1400 6x4 seed=5\"
cmd = \"read 0x1500 3x8 delay=2\"

[[target]]
name = \"sem\"
kind = \"service\"
base = 0x0
end = 0x1000
latency = 2
exclusive = true

[[memory]]
name = \"mem\"
base = 0x1000
end = 0x2000
latency = 3
clock_divisor = 2
";
    ScenarioSpec::from_text(text).expect("fixture parses")
}

/// Forking a running NoC after every step and running each fork to the
/// end replays the uninterrupted run exactly — completion records,
/// report (fabric counters included), executed steps and calendar pops —
/// whatever the fabric holds at the fork: a fork copies every flit in
/// every FIFO, stash and link, and the slab they share, or some fork
/// diverges. Horizon forks are taken at every cycle, so the interrupted
/// run polls more often than the reference; polls are the one counter
/// left out.
#[test]
fn a_fork_after_every_step_replays_the_uninterrupted_run() {
    let backend = Backend::noc();
    let without_polls = |sim: &dyn Simulation| Trace {
        polls: 0,
        ..trace(sim)
    };
    for mode in [StepMode::Dense, StepMode::Horizon] {
        let mut reference = fabric_storage_spec()
            .build(&backend)
            .expect("fixture compiles");
        assert!(reference.run_until_with(BUDGET, mode), "{mode:?}: drains");
        let expected = without_polls(reference.as_ref());
        let lock_idle = reference.report().fabric.map(|f| f.lock_idle_cycles);
        assert!(lock_idle > Some(0), "{mode:?}: a locked path idles");

        let mut sim = fabric_storage_spec()
            .build(&backend)
            .expect("fixture compiles");
        let mut forks = 0;
        while !sim.is_done() {
            match mode {
                StepMode::Dense => sim.step(),
                StepMode::Horizon => sim.advance_to(sim.now() + 1),
            }
            let mut fork = sim.snapshot();
            assert!(fork.run_until_with(BUDGET, mode), "{mode:?}: fork drains");
            assert_eq!(
                without_polls(fork.as_ref()),
                expected,
                "{mode:?}: the fork taken at cycle {} diverged",
                sim.now()
            );
            forks += 1;
        }
        assert_eq!(without_polls(sim.as_ref()), expected, "{mode:?}: original");
        assert_eq!(forks, expected.now, "{mode:?}: one fork per cycle");
    }
}

#[test]
fn program_loading_equals_building_with_programs() {
    // The serve-layer fork in miniature: a programless platform,
    // snapshotted and fed the real programs, must be indistinguishable
    // from building the full spec directly.
    let full = spec();
    for backend in backends() {
        let label = backend.label();
        let platform = full
            .without_programs()
            .build(&backend)
            .expect("fixture compiles");
        let mut forked = platform.snapshot();
        forked.load_programs(&full.programs());
        let mut direct = full.build(&backend).expect("fixture compiles");
        assert!(forked.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert!(direct.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert_eq!(
            trace(forked.as_ref()),
            trace(direct.as_ref()),
            "{label}: forked platform diverged from a direct build"
        );
    }
}

/// A scenario mixing all three generated program kinds — bursty, zipf
/// and trace replay — so checkpoints taken mid-program must resume each
/// master's position in its compiled program.
fn stochastic_spec() -> ScenarioSpec {
    use noc_scenario::{BurstySpec, InitiatorSpec, MemorySpec, SocketSpec, TraceSpec, ZipfSpec};
    use std::io::Write;

    // One file per call: the callers run concurrently, and one of them
    // truncates, overwrites and deletes its file after loading it.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join("noc-scenario-snapshot-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("snapshot-{}-{call}.trace", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("trace file");
    let mut rng = noc_kernel::SplitMix64::new(0x5A17);
    let mut ts = 0u64;
    for _ in 0..150 {
        ts += rng.next_below(25);
        let addr = (rng.next_below(2) * 0x1000 + rng.next_below(0xF00)) & !0x7;
        let op = if rng.chance(0.5) { "read" } else { "write" };
        writeln!(f, "{ts} {op} {addr:#x} 2 4").unwrap();
    }
    drop(f);

    let mut bursty = BurstySpec::new(0xB07, 120, 4, 40);
    bursty.shape.streams = 2;
    bursty.shape.gap = 3;
    let zipf = ZipfSpec::new(0x21F, 150, 1200);
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new(
            "burst",
            SocketSpec::Ocp {
                threads: 2,
                per_thread: 4,
            },
            bursty,
        ))
        .initiator(InitiatorSpec::new(
            "hot",
            SocketSpec::Axi {
                tags: 4,
                per_id: 2,
                total: 8,
            },
            zipf,
        ))
        .initiator(InitiatorSpec::new(
            "replay",
            SocketSpec::Ahb,
            TraceSpec::load(path.to_str().expect("utf-8 temp path")),
        ))
        .memory(MemorySpec::new("dram", 0x0, 0x1000, 5).with_queue(2))
        .memory(MemorySpec::new("sram", 0x1000, 0x2000, 2).with_queue(4))
}

/// Snapshotting mid-burst — generators part-way through their RNG
/// streams, the trace cursor part-way through its records — and
/// continuing must replay exactly the uninterrupted run's records on
/// every backend and in both step modes.
#[test]
fn stochastic_interrupted_runs_match_uninterrupted_runs() {
    let spec = stochastic_spec();
    for backend in backends() {
        for mode in [StepMode::Dense, StepMode::Horizon] {
            let label = format!("{} / {mode:?} (stochastic)", backend.label());

            let mut reference = spec.build(&backend).expect("fixture compiles");
            assert!(reference.run_until_with(BUDGET, mode), "{label}: drains");
            let expected = trace(reference.as_ref());

            let mid = expected.now / 2;
            let mut original = spec.build(&backend).expect("fixture compiles");
            assert!(
                !original.run_until_with(mid, mode),
                "{label}: not yet drained at cycle {mid}"
            );
            let mut restored = original.snapshot();
            assert_eq!(
                trace(original.as_ref()),
                trace(restored.as_ref()),
                "{label}: a snapshot is the state it was taken from"
            );
            assert!(original.run_until_with(BUDGET, mode), "{label}: drains");
            assert!(restored.run_until_with(BUDGET, mode), "{label}: drains");
            assert_eq!(
                trace(original.as_ref()),
                expected,
                "{label}: continuing past a mid-burst checkpoint must not disturb the run"
            );
            assert_eq!(
                trace(restored.as_ref()),
                expected,
                "{label}: a restored mid-burst checkpoint must replay the identical future"
            );
        }
    }
}

/// A trace file is read once, when the spec loads it, so changing it
/// afterwards changes nothing: truncated after a build, overwritten
/// after a snapshot, deleted between two serve checkouts, the run, the
/// restore and both forks still replay the untouched run.
#[test]
fn a_trace_file_changed_mid_run_does_not_change_the_run() {
    for backend in backends() {
        let label = format!("{} (trace file changed)", backend.label());
        let spec = stochastic_spec();
        let path = match &spec.initiators[2].program {
            noc_scenario::ProgramSpec::Trace(t) => std::path::PathBuf::from(t.path()),
            _ => unreachable!("the third initiator replays the trace"),
        };
        let mut reference = spec.build(&backend).expect("fixture compiles");
        assert!(
            reference.run_until_with(BUDGET, StepMode::Horizon),
            "{label}"
        );
        let expected = trace(reference.as_ref());
        let mut original = spec.build(&backend).expect("fixture compiles");
        let file = std::fs::OpenOptions::new().write(true).open(&path);
        file.and_then(|f| f.set_len(40)).expect("trace truncated");
        let mid = expected.now / 2;
        assert!(!original.run_until_with(mid, StepMode::Horizon), "{label}");
        let mut restored = original.snapshot();
        std::fs::write(&path, "not a trace\n").expect("trace overwritten");
        assert!(
            original.run_until_with(BUDGET, StepMode::Horizon),
            "{label}"
        );
        assert!(
            restored.run_until_with(BUDGET, StepMode::Horizon),
            "{label}"
        );
        assert_eq!(
            trace(original.as_ref()),
            expected,
            "{label}: the run changed"
        );
        assert_eq!(
            trace(restored.as_ref()),
            expected,
            "{label}: the restore changed"
        );

        let mut cache = noc_serve::CheckpointCache::new(2);
        let point = noc_scenario::SweepPoint::new("replay", spec, backend);
        let (mut cold, _) = cache.checkout(&point).expect("first checkout");
        std::fs::remove_file(&path).expect("trace deleted");
        let (mut warm, hit) = cache.checkout(&point).expect("second checkout");
        assert!(
            hit,
            "{label}: the second checkout forks the first's platform"
        );
        assert!(cold.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert!(warm.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert_eq!(
            trace(cold.as_ref()),
            expected,
            "{label}: the first fork changed"
        );
        assert_eq!(
            trace(warm.as_ref()),
            expected,
            "{label}: the second fork changed"
        );
    }
}

/// The serve-layer warm start for generated programs: a programless
/// platform checkpoint fed stochastic workloads through
/// `load_programs` must be bit-identical to a cold build of the full
/// spec — the warm-vs-cold contract behind the checkpoint cache.
#[test]
fn stochastic_program_loading_equals_building_with_programs() {
    let full = stochastic_spec();
    for backend in backends() {
        let label = format!("{} (stochastic)", backend.label());
        let platform = full
            .without_programs()
            .build(&backend)
            .expect("fixture compiles");
        let mut forked = platform.snapshot();
        forked.load_programs(&full.programs());
        let mut direct = full.build(&backend).expect("fixture compiles");
        assert!(forked.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert!(direct.run_until_with(BUDGET, StepMode::Horizon), "{label}");
        assert_eq!(
            trace(forked.as_ref()),
            trace(direct.as_ref()),
            "{label}: warm-forked stochastic workloads diverged from a cold build"
        );
    }
}
