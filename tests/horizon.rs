//! Event-horizon stepping: the in-flight equivalence and step-collapse
//! suite.
//!
//! PR 2 made quiescent *gaps* skippable but fell back to dense per-cycle
//! polling the moment any flit was in flight. These tests pin the next
//! level: per-layer `next_event_at` horizons skip time *through*
//! in-flight traffic — deep pipelined link crossings, CDC synchronisers,
//! memory service windows, bridge pipeline stamps — while every log
//! record (timestamps included) and every statistics counter stays
//! bit-identical to dense stepping.

use noc_baseline::{BridgeConfig, BusConfig};
use noc_protocols::{CompletionRecord, SocketCommand};
use noc_scenario::{
    parse_document, Backend, Document, InitiatorSpec, MemorySpec, NocConfigSpec, ScenarioEngine,
    ScenarioSpec, SocketSpec, StepMode, TopologySpec,
};
use noc_system::NocConfig;
use noc_transaction::BurstKind;
use std::path::PathBuf;

fn corpus(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/scenarios")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Everything a run can observe: drain flag, final cycle, per-master
/// records (timestamps included), and the backend-neutral report's
/// counters (fabric statistics included on the NoC). Executed steps are
/// returned separately — they are the one thing *allowed* to differ.
struct Observed {
    compared: (bool, u64, Vec<Vec<CompletionRecord>>, Vec<u64>),
    fabric: Option<noc_system::FabricReport>,
    steps: u64,
}

fn observe(spec: &ScenarioSpec, backend: &Backend, mode: StepMode) -> Observed {
    let mut sim = spec.build(backend).expect("spec compiles");
    let drained = sim.run_until_with(5_000_000, mode);
    let logs: Vec<Vec<CompletionRecord>> = sim
        .logs()
        .iter()
        .map(|(_, log)| log.records().to_vec())
        .collect();
    let report = sim.report();
    let master_counters: Vec<u64> = report
        .masters
        .iter()
        .flat_map(|m| [m.completions as u64, m.errors as u64])
        .collect();
    Observed {
        compared: (drained, sim.now(), logs, master_counters),
        fabric: report.fabric,
        steps: sim.executed_steps(),
    }
}

/// Runs dense and horizon, asserts bit-identical observables, and
/// returns the (dense, horizon) executed-step counts.
fn assert_equivalent(spec: &ScenarioSpec, backend: &Backend, label: &str) -> (u64, u64) {
    let dense = observe(spec, backend, StepMode::Dense);
    let horizon = observe(spec, backend, StepMode::Horizon);
    assert!(dense.compared.0, "{label}: dense must drain");
    assert_eq!(
        dense.compared, horizon.compared,
        "{label}: logs/counters diverge between dense and horizon"
    );
    assert_eq!(
        dense.fabric, horizon.fabric,
        "{label}: fabric statistics diverge between dense and horizon"
    );
    (dense.steps, horizon.steps)
}

/// The acceptance bar of the event-horizon refactor: on the deep-pipeline
/// corpus scenario, horizon mode executes at least 3x fewer steps than
/// dense on the NoC *and* the bridged backend — neither
/// `Soc::next_activity` nor the bridged `next_activity` may answer
/// `Some(now)` merely because traffic is in flight — while records,
/// timestamps and statistics counters stay bit-identical.
#[test]
fn deep_pipeline_collapses_steps_at_least_3x_on_noc_and_bridged() {
    let text = corpus("deep_pipeline.scn");
    let spec = ScenarioSpec::from_text(&text).expect("corpus parses");
    for backend in [Backend::noc(), Backend::bridged()] {
        let (dense, horizon) = assert_equivalent(&spec, &backend, "deep_pipeline");
        assert!(
            horizon.saturating_mul(3) <= dense,
            "{backend}: horizon executed {horizon} steps vs dense {dense} — \
             in-flight traffic is still forcing (near-)dense stepping"
        );
    }
}

/// The bridged backend's horizon is derived from its sub-request
/// `eligible_at`, slave `busy_until` and parent `respond_at` stamps; it
/// must agree record-for-record with dense stepping on the target-socket
/// corpus (AXI slave + register/service blocks) and the exclusive/locked
/// sweeps, and it must actually skip (strictly fewer steps).
#[test]
fn bridged_horizon_matches_dense_on_services_and_exclusive_corpus() {
    let mut specs: Vec<(String, ScenarioSpec)> = Vec::new();
    match parse_document(&corpus("services.scn")).expect("services.scn parses") {
        Document::Scenario(spec) => specs.push(("services".into(), spec)),
        Document::Sweep(_) => panic!("services.scn is a scenario file"),
    }
    match parse_document(&corpus("exclusive_locks.scn")).expect("exclusive_locks.scn parses") {
        Document::Sweep(sweep) => {
            for p in sweep.points() {
                specs.push((format!("exclusive_locks/{}", p.label), p.spec.clone()));
            }
        }
        Document::Scenario(_) => panic!("exclusive_locks.scn is a sweep file"),
    }
    for (label, spec) in &specs {
        let (dense, horizon) = assert_equivalent(spec, &Backend::bridged(), label);
        assert!(
            horizon < dense,
            "{label}: bridged horizon executed {horizon} steps vs dense {dense} — \
             no skip happened at all"
        );
    }
}

/// Back-to-back traffic over deep pipelined links and slow memories:
/// there is no quiescent gap anywhere — every skipped cycle is *inside*
/// an in-flight transaction — and the equivalence must hold on every
/// backend across pipeline depths, including the switch/endpoint
/// link-class split.
#[test]
fn horizon_equals_dense_while_traffic_is_in_flight() {
    for (pipeline, endpoint_pipeline, latency) in
        [(0u32, None, 1u32), (5, Some(1), 7), (16, Some(3), 12)]
    {
        let cpu: Vec<SocketCommand> = (0..10)
            .flat_map(|i| {
                vec![
                    SocketCommand::write(0x40 * i, 4, 0xF00 + i),
                    SocketCommand::read(0x40 * i, 4).with_burst(BurstKind::Incr, 2),
                ]
            })
            .collect();
        let dma: Vec<SocketCommand> = (0..8)
            .map(|i| SocketCommand::read(0x1000 + 0x20 * i, 4))
            .collect();
        let mut config = NocConfigSpec::new()
            .with_link_pipeline(pipeline)
            .with_link_capacity(64);
        config.endpoint.pipeline = endpoint_pipeline;
        let spec = ScenarioSpec::new()
            .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, cpu))
            .initiator(InitiatorSpec::new("dma", SocketSpec::bvci(), dma))
            .memory(MemorySpec::new("m0", 0x0, 0x1000, latency))
            .memory(MemorySpec::new("m1", 0x1000, 0x2000, latency))
            .with_topology(TopologySpec::Mesh {
                width: 2,
                height: 2,
            })
            .with_config(config);
        for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
            assert_equivalent(&spec, &backend, &format!("pipeline={pipeline}"));
        }
    }
}

/// CDC crossings under horizon stepping: divided endpoint clocks with a
/// deep synchroniser and pipelined links (NoC only — baselines reject
/// divided clocks). The horizon must land exactly on destination-clock
/// edges or the skip would reorder deliveries.
#[test]
fn horizon_equals_dense_through_cdc_crossings() {
    let cpu: Vec<SocketCommand> = (0..12)
        .map(|i| {
            if i % 3 == 0 {
                SocketCommand::write(0x40 * i, 4, 0xCDC + i)
            } else {
                SocketCommand::read(0x40 * i, 4)
            }
        })
        .collect();
    let mut config = NocConfigSpec::new()
        .with_link_pipeline(7)
        .with_cdc_latency(4);
    config.endpoint.pipeline = Some(2);
    let spec = ScenarioSpec::new()
        .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, cpu).with_clock_divisor(2))
        .memory(MemorySpec::new("mem", 0x0, 0x1000, 6).with_clock_divisor(3))
        .with_config(config);
    let (dense, horizon) = assert_equivalent(&spec, &Backend::noc(), "cdc");
    assert!(
        horizon < dense,
        "CDC crossings must still skip ({horizon} vs {dense})"
    );
}

/// An idle switch pinned by a locked sequence accrues `lock_idle_cycles`
/// every cycle; horizon stepping bulk-accounts them on skips. The locked
/// corpus sweep point runs a READEX/LOCK neighbour against a bystander,
/// so the counter is hot — it must come out bit-identical (covered by
/// the fabric-report comparison) on the NoC backend.
#[test]
fn lock_idle_statistics_survive_bulk_skip_accounting() {
    let Document::Sweep(sweep) =
        parse_document(&corpus("exclusive_locks.scn")).expect("exclusive_locks.scn parses")
    else {
        panic!("exclusive_locks.scn is a sweep file");
    };
    let locked = sweep
        .points()
        .iter()
        .find(|p| p.label == "locked")
        .expect("locked sweep point exists");
    let dense = observe(&locked.spec, &Backend::noc(), StepMode::Dense);
    let horizon = observe(&locked.spec, &Backend::noc(), StepMode::Horizon);
    assert_eq!(dense.compared, horizon.compared, "locked scheme diverges");
    let (df, hf) = (
        dense.fabric.expect("noc fabric report"),
        horizon.fabric.expect("noc fabric report"),
    );
    assert_eq!(df, hf, "fabric counters diverge under lock pinning");
    assert!(
        df.lock_idle_cycles > 0,
        "the locked scheme must actually exercise lock-idle accounting"
    );
}

/// The `skip_to` clause of the `Engine` contract, checked gap by gap
/// rather than end to end: each time `next_activity` proves a gap dead,
/// a clone that *steps* through the gap and the original that *skips*
/// it must finish with identical logs and reports.
fn skipping_a_proven_dead_gap_equals_stepping_it<E: ScenarioEngine>(mut engine: E) {
    fn finish<E: ScenarioEngine>(mut engine: E) -> impl PartialEq + std::fmt::Debug {
        engine.advance_to(5_000_000);
        let logs: Vec<(String, Vec<CompletionRecord>)> = engine
            .completion_logs()
            .into_iter()
            .map(|(name, log)| (name.to_owned(), log.records().to_vec()))
            .collect();
        (engine.now(), engine.is_done(), logs, engine.fabric_report())
    }
    let mut gaps = 0;
    while gaps < 32 && !engine.is_done() {
        match engine.next_activity() {
            Some(t) if t > engine.now() => {
                let mut stepped = engine.clone();
                while stepped.now() < t {
                    stepped.step();
                }
                engine.skip_to(t);
                assert_eq!(
                    finish(stepped),
                    finish(engine.clone()),
                    "{}: skipping to {t} diverges from stepping there",
                    E::LABEL
                );
                gaps += 1;
            }
            Some(_) => engine.step(),
            None => break,
        }
    }
    assert_eq!(gaps, 32, "{}: deep_pipeline has dead gaps", E::LABEL);
}

#[test]
fn every_engine_honours_the_skip_contract_on_its_first_32_gaps() {
    let spec = ScenarioSpec::from_text(&corpus("deep_pipeline.scn")).expect("corpus parses");
    let noc = spec.build_noc(NocConfig::new()).expect("builds");
    skipping_a_proven_dead_gap_equals_stepping_it(noc.into_inner());
    let bridged = spec.build_bridged(BridgeConfig::default()).expect("builds");
    skipping_a_proven_dead_gap_equals_stepping_it(bridged.into_inner());
    let bus = spec.build_bus(BusConfig::default()).expect("builds");
    skipping_a_proven_dead_gap_equals_stepping_it(bus.into_inner());
}
