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
        steps: report.steps,
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
/// dense on every backend — no `next_activity` may answer `Some(now)`
/// merely because traffic is in flight or a master's request waits on
/// a busy bus — while records, timestamps and statistics counters stay
/// bit-identical.
#[test]
fn deep_pipeline_collapses_steps_at_least_3x_on_every_backend() {
    let text = corpus("deep_pipeline.scn");
    let spec = ScenarioSpec::from_text(&text).expect("corpus parses");
    for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
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
/// One AXI master whose NIU allows one transaction outstanding: while a
/// read is in flight the ordering policy refuses the next one on every
/// cycle. The NIU sleeps through that refusal until the response
/// arrives, so the endpoints tick on well under half of the cycles (a
/// NIU that retried each cycle ticked on nearly all of them), and the
/// ticks it sleeps through change no record.
#[test]
fn a_policy_blocked_initiator_sleeps_until_its_response() {
    let reads: String = (0..30)
        .map(|i| format!("cmd = \"read {:#x} 1x4\"\n", 0x40 * i))
        .collect();
    let text = format!(
        "[topology]\nkind = \"mesh\"\nwidth = 2\nheight = 2\n\n\
         [[initiator]]\nname = \"cpu\"\nsocket = \"axi\"\noutstanding = 1\n{reads}\n\
         [[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x1000\nlatency = 40\n"
    );
    let spec = ScenarioSpec::from_text(&text).expect("the scenario parses");
    assert_equivalent(&spec, &Backend::noc(), "policy-blocked initiator");
    let mut sim = spec.build(&Backend::noc()).expect("spec compiles");
    assert!(sim.run_until_with(1_000_000, StepMode::Horizon));
    let report = sim.report();
    assert_eq!(report.total_completions(), 30);
    let ticks = report
        .fabric
        .expect("the NoC reports its fabric")
        .endpoint_ticks;
    assert!(
        ticks * 2 < report.cycles,
        "{ticks} endpoint ticks over {} cycles",
        report.cycles
    );
}

/// Four masters of mixed sockets stream back-to-back reads at one slow
/// memory, so at almost every cycle some master holds a request its
/// back end cannot take: the bus is busy with another master's read, or
/// the master's one-slot bridge is full. Each baseline tells such a
/// master that nobody accepts its request, so it sleeps until the bus
/// frees or its bridge delivers a response — the baselines step on
/// under half of the cycles (a master that claimed "tick me now" on
/// every waiting cycle stepped them on nearly all) — and the sleep
/// changes no record.
#[test]
fn a_master_waiting_on_a_busy_bus_or_a_full_bridge_sleeps() {
    let reads: String = (0..30)
        .map(|i| format!("cmd = \"read {:#x} 1x4\"\n", 0x40 * i))
        .collect();
    let masters: String = ["ahb", "axi", "ocp", "bvci"]
        .iter()
        .map(|socket| {
            format!("[[initiator]]\nname = \"{socket}\"\nsocket = \"{socket}\"\n{reads}\n")
        })
        .collect();
    let text =
        format!("{masters}[[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x1000\nlatency = 40\n");
    let spec = ScenarioSpec::from_text(&text).expect("the scenario parses");
    for backend in [Backend::bus(), Backend::bridged()] {
        assert_equivalent(&spec, &backend, &format!("{backend}: waiting masters"));
        let mut sim = spec.build(&backend).expect("spec compiles");
        assert!(sim.run_until_with(1_000_000, StepMode::Horizon));
        let report = sim.report();
        assert_eq!(report.total_completions(), 120);
        assert!(
            report.steps * 2 < report.cycles,
            "{backend}: {} steps over {} cycles",
            report.steps,
            report.cycles
        );
    }
}

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
        (engine.now(), engine.is_done(), logs, engine.report().fabric)
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
    assert_eq!(gaps, 32, "{}: the run has 32 dead gaps", E::LABEL);
}

#[test]
fn every_engine_honours_the_skip_contract_on_its_first_32_gaps() {
    let spec = ScenarioSpec::from_text(&corpus("deep_pipeline.scn")).expect("corpus parses");
    let noc = spec.build_noc(NocConfig::new()).expect("builds");
    skipping_a_proven_dead_gap_equals_stepping_it(noc.into_inner());
    // `deep_pipeline.scn` leaves a baseline's masters idle between
    // their reads; `set_top.scn` keeps several waiting on the bus or on a
    // full bridge, which is where a baseline's masters sleep.
    for file in ["deep_pipeline.scn", "set_top.scn"] {
        let spec = ScenarioSpec::from_text(&corpus(file)).expect("corpus parses");
        let bridged = spec.build_bridged(BridgeConfig::default()).expect("builds");
        skipping_a_proven_dead_gap_equals_stepping_it(bridged.into_inner());
        let bus = spec.build_bus(BusConfig::default()).expect("builds");
        skipping_a_proven_dead_gap_equals_stepping_it(bus.into_inner());
    }
}

/// The `wake` / `skip_ticks` oracle for NoC endpoints.
///
/// `Soc::step` never executes an endpoint tick its wake proved a no-op:
/// it accounts the edge through `skip_ticks`, lazily, in dense and
/// horizon runs alike — so dense ≡ horizon no longer checks any
/// endpoint's quiescence claim. This adapter does: it knows its clock
/// divisor, replays `skip_ticks(n)` as `n` real `inner.tick(edge)`
/// calls, and asserts that every real `tick` arrives on the next clock
/// edge nobody accounted yet. A `wake` that promises too much
/// makes a replayed tick *do* something (a command issues early, a
/// response moves), a `skip_ticks` that disagrees with ticking leaves a
/// different countdown, an edge settled twice or not at all trips the
/// assertion — each shows up as diverging records or counters.
mod replay {
    use noc_kernel::{Engine, Wake};
    use noc_niu::fe::{
        AhbInitiator, AxiInitiator, AxiTargetFe, OcpInitiator, StrmInitiator, VciInitiator,
    };
    use noc_niu::{
        InitiatorNiu, InitiatorNiuConfig, MemoryTarget, NocEndpoint, ServiceTarget,
        SocketInitiator, SocketTarget, TargetNiu, TargetNiuConfig,
    };
    use noc_protocols::ahb::AhbMaster;
    use noc_protocols::axi::{AxiMaster, AxiSlave};
    use noc_protocols::ocp::OcpMaster;
    use noc_protocols::strm::StrmMaster;
    use noc_protocols::vci::{VciFlavor, VciMaster};
    use noc_protocols::{CompletionLog, CompletionRecord, MemoryModel, Program, SocketCommand};
    use noc_system::{FabricReport, NocConfig, Soc, SocBuilder};
    use noc_topology::{RouteAlgorithm, Topology};
    use noc_transaction::{AddressMap, MstAddr, OrderingModel, SlvAddr, StreamId};
    use noc_transport::Flit;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Replay {
        inner: Box<dyn NocEndpoint>,
        divisor: u64,
        /// The first clock edge neither ticked nor replayed yet.
        next_edge: u64,
        replayed: Arc<AtomicU64>,
    }

    impl NocEndpoint for Replay {
        fn tick(&mut self, cycle: u64) {
            assert_eq!(
                cycle, self.next_edge,
                "a real tick must land on the first unsettled clock edge"
            );
            self.inner.tick(cycle);
            self.next_edge += self.divisor;
        }
        fn skip_ticks(&mut self, ticks: u64) {
            for _ in 0..ticks {
                self.inner.tick(self.next_edge);
                self.next_edge += self.divisor;
            }
            self.replayed.fetch_add(ticks, Ordering::Relaxed);
        }
        fn pull_flit(&mut self) -> Option<Flit> {
            self.inner.pull_flit()
        }
        fn push_flit(&mut self, flit: Flit) {
            self.inner.push_flit(flit);
        }
        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
        fn completion_log(&self) -> Option<&CompletionLog> {
            self.inner.completion_log()
        }
        fn wake(&self) -> Wake {
            self.inner.wake()
        }
        fn load_program(&mut self, program: Program) {
            self.inner.load_program(program);
        }
        fn clone_box(&self) -> Box<dyn NocEndpoint> {
            Box::new(Replay {
                inner: self.inner.clone_box(),
                divisor: self.divisor,
                next_edge: self.next_edge,
                replayed: Arc::clone(&self.replayed),
            })
        }
    }

    /// Memory (node 5), service block (6) and AXI slave (7), 4 KiB each.
    fn address_map() -> AddressMap {
        let mut map = AddressMap::new();
        for (k, node) in [5u16, 6, 7].into_iter().enumerate() {
            let base = 0x1000 * k as u64;
            map.add(base, base + 0x1000, SlvAddr::new(node)).unwrap();
        }
        map
    }

    /// Reads and writes that walk all three targets from a window private
    /// to master `m`, with idle gaps long enough to be skipped.
    fn program(m: u64, streams: u16) -> Program {
        (0..24u64)
            .map(|i| {
                let addr = 0x1000 * ((i + m) % 3) + 0x100 * m + 8 * (i / 3);
                let cmd = if i % 2 == 0 {
                    SocketCommand::write(addr, 4, m << 16 | i)
                } else {
                    SocketCommand::read(addr, 4)
                };
                cmd.with_stream(StreamId::new(i as u16 % streams))
                    .with_delay((5 + 11 * ((i + m) % 6)) as u32)
            })
            .collect()
    }

    /// All five socket front ends against all three target kinds on a
    /// 3x3 mesh, with divided clocks on both sides; `wrap` decides what
    /// the builder is handed for each endpoint.
    fn build(wrap: &dyn Fn(Box<dyn NocEndpoint>, u64) -> Box<dyn NocEndpoint>) -> Soc {
        fn initiator<FE: SocketInitiator + Clone + 'static>(
            fe: FE,
            config: InitiatorNiuConfig,
        ) -> Box<dyn NocEndpoint> {
            Box::new(InitiatorNiu::new(fe, config, address_map()))
        }
        fn target<T: SocketTarget + Clone + 'static>(ip: T, node: u16) -> Box<dyn NocEndpoint> {
            Box::new(TargetNiu::new(ip, TargetNiuConfig::new(SlvAddr::new(node))))
        }
        let node = |n: u16| InitiatorNiuConfig::new(MstAddr::new(n));
        let config = NocConfig::new().with_routing(RouteAlgorithm::XyMesh {
            width: 3,
            height: 3,
        });
        let initiators = [
            (
                "ahb",
                1,
                initiator(AhbInitiator::new(AhbMaster::new(program(0, 1))), node(0)),
            ),
            (
                "ocp",
                2,
                initiator(
                    OcpInitiator::new(OcpMaster::new(program(1, 2), 2, 2)),
                    node(1)
                        .with_ordering(OrderingModel::Threaded { threads: 2 })
                        .with_outstanding(4),
                ),
            ),
            (
                "axi",
                1,
                initiator(
                    AxiInitiator::new(AxiMaster::new(program(2, 4), 2, 8)),
                    node(2)
                        .with_ordering(OrderingModel::IdBased { tags: 4 })
                        .with_outstanding(8),
                ),
            ),
            (
                "vci",
                3,
                initiator(
                    VciInitiator::new(VciMaster::new(program(3, 1), VciFlavor::Basic, 2)),
                    node(3),
                ),
            ),
            (
                "strm",
                1,
                initiator(
                    StrmInitiator::new(StrmMaster::new(program(4, 1), 2)),
                    node(4),
                ),
            ),
        ];
        let targets = [
            (
                "mem",
                2,
                target(MemoryTarget::new(MemoryModel::new(6), 4), 5),
            ),
            (
                "svc",
                1,
                target(ServiceTarget::new(MemoryModel::new(3), 9, 4), 6),
            ),
            (
                "axis",
                3,
                target(AxiTargetFe::new(AxiSlave::new(MemoryModel::new(4), 2)), 7),
            ),
        ];
        let mut builder = SocBuilder::new(Topology::mesh(3, 3), config);
        for (n, (name, divisor, ep)) in initiators.into_iter().enumerate() {
            builder = builder.initiator_clocked(name, n as u16, wrap(ep, divisor), divisor);
        }
        for (n, (name, divisor, ep)) in targets.into_iter().enumerate() {
            builder = builder.target_clocked(name, 5 + n as u16, wrap(ep, divisor), divisor);
        }
        builder.build().expect("valid wiring")
    }

    type Outcome = (
        u64,
        Vec<(String, Vec<CompletionRecord>)>,
        Option<FabricReport>,
        u64,
        u64,
    );

    fn run(mut soc: Soc, every_cycle: bool) -> Outcome {
        if every_cycle {
            while !soc.is_done() {
                assert!(soc.now() < 1_000_000, "the system drains");
                soc.step();
            }
        } else {
            soc.advance_to(1_000_000);
        }
        assert!(soc.is_done(), "the system drains");
        let logs = soc
            .completion_logs()
            .into_iter()
            .map(|(name, log)| (name.to_owned(), log.records().to_vec()))
            .collect();
        (
            soc.now(),
            logs,
            soc.report().fabric,
            soc.executed_steps(),
            soc.calendar_pops(),
        )
    }

    #[test]
    fn replaying_every_skipped_endpoint_tick_for_real_changes_nothing() {
        for every_cycle in [false, true] {
            let replayed = Arc::new(AtomicU64::new(0));
            let wrapped = build(&|inner, divisor| {
                Box::new(Replay {
                    inner,
                    divisor,
                    next_edge: 0,
                    replayed: Arc::clone(&replayed),
                })
            });
            let plain = run(build(&|ep, _| ep), every_cycle);
            assert_eq!(
                plain,
                run(wrapped, every_cycle),
                "every_cycle={every_cycle}: replaying skipped ticks diverges from skipping them"
            );
            let completions: usize = plain.1.iter().map(|(_, records)| records.len()).sum();
            assert_eq!(completions, 5 * 24, "every command completes");
            assert!(
                replayed.load(Ordering::Relaxed) > 0,
                "every_cycle={every_cycle}: no endpoint tick was ever skipped"
            );
            eprintln!(
                "every_cycle={every_cycle}: {} ticks replayed, {} steps over {} cycles",
                replayed.load(Ordering::Relaxed),
                plain.3,
                plain.0
            );
        }
    }
}
