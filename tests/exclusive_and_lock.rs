//! Paper §3 synchronisation primitives across the fabric: legacy
//! READEX/LOCK pins transport paths and throttles bystanders; the modern
//! exclusive service costs one packet bit and leaves the fabric alone.

use noc_niu::fe::{AhbInitiator, AxiInitiator};
use noc_niu::{InitiatorNiu, InitiatorNiuConfig, MemoryTarget, TargetNiu, TargetNiuConfig};
use noc_protocols::ahb::AhbMaster;
use noc_protocols::axi::AxiMaster;
use noc_protocols::{MemoryModel, Program, SocketCommand};
use noc_system::{NocConfig, Soc, SocBuilder};
use noc_topology::Topology;
use noc_transaction::{AddressMap, MstAddr, Opcode, OrderingModel, RespStatus, SlvAddr, StreamId};

const SEM: u64 = 0x40; // semaphore address
const DATA: (u64, u64) = (0x1000, 0x2000);

fn map() -> AddressMap {
    let mut m = AddressMap::new();
    m.add(0x0, 0x2000, SlvAddr::new(2)).unwrap();
    m
}

/// Background traffic master: plain reads hammering the shared target.
fn background(n: usize) -> Program {
    (0..n)
        .map(|i| SocketCommand::read(DATA.0 + (i as u64 * 16) % 0xE00, 4))
        .collect()
}

fn build(sync_program: Program, bg: Program, sync_is_axi: bool) -> Soc {
    let topo = Topology::crossbar(3);
    let sync_ep: Box<dyn noc_niu::NocEndpoint> = if sync_is_axi {
        Box::new(InitiatorNiu::new(
            AxiInitiator::new(AxiMaster::new(sync_program, 2, 4)),
            InitiatorNiuConfig::new(MstAddr::new(0))
                .with_ordering(OrderingModel::IdBased { tags: 2 })
                .with_outstanding(4),
            map(),
        ))
    } else {
        Box::new(InitiatorNiu::new(
            AhbInitiator::new(AhbMaster::new(sync_program)),
            InitiatorNiuConfig::new(MstAddr::new(0)).with_outstanding(2),
            map(),
        ))
    };
    let bg_ep = InitiatorNiu::new(
        AhbInitiator::new(AhbMaster::new(bg)),
        InitiatorNiuConfig::new(MstAddr::new(1)).with_outstanding(2),
        map(),
    );
    let mem = TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(2), 8),
        TargetNiuConfig::new(SlvAddr::new(2)),
    );
    SocBuilder::new(topo, NocConfig::new())
        .initiator("sync", 0, sync_ep)
        .initiator("bg", 1, Box::new(bg_ep))
        .target("mem", 2, Box::new(mem))
        .build()
        .expect("valid wiring")
}

#[test]
fn exclusive_pair_succeeds_across_fabric() {
    let sync = vec![
        SocketCommand::read(SEM, 4)
            .with_opcode(Opcode::ReadExclusive)
            .with_stream(StreamId::new(0)),
        SocketCommand::write(SEM, 4, 1)
            .with_opcode(Opcode::WriteExclusive)
            .with_stream(StreamId::new(0))
            .with_delay(10),
    ];
    let mut soc = build(sync, background(5), true);
    let report = soc.run(500_000);
    assert!(report.all_done);
    let (_, log) = soc
        .completion_logs()
        .into_iter()
        .find(|(n, _)| *n == "sync")
        .unwrap();
    assert!(
        log.records().iter().all(|r| r.status == RespStatus::ExOkay),
        "{:?}",
        log.records().iter().map(|r| r.status).collect::<Vec<_>>()
    );
}

#[test]
fn competitor_write_breaks_reservation_across_fabric() {
    // The background master writes the semaphore granule between the
    // exclusive read and the exclusive write.
    let sync = vec![
        SocketCommand::read(SEM, 4)
            .with_opcode(Opcode::ReadExclusive)
            .with_stream(StreamId::new(0)),
        SocketCommand::write(SEM, 4, 1)
            .with_opcode(Opcode::WriteExclusive)
            .with_stream(StreamId::new(0))
            .with_delay(300),
    ];
    let bg = vec![SocketCommand::write(SEM + 4, 4, 9).with_delay(50)]; // same 64B granule
    let mut soc = build(sync, bg, true);
    let report = soc.run(500_000);
    assert!(report.all_done);
    let (_, log) = soc
        .completion_logs()
        .into_iter()
        .find(|(n, _)| *n == "sync")
        .unwrap();
    let wx = log.records().iter().find(|r| r.index == 1).unwrap();
    assert_eq!(wx.status, RespStatus::ExFail, "reservation must break");
}

#[test]
fn exclusive_does_not_slow_bystanders() {
    // Background latency with an exclusive-using neighbour ≈ background
    // latency with an idle neighbour (no transport impact).
    let run_bg_latency = |sync: Program| {
        let mut soc = build(sync, background(30), true);
        let report = soc.run(1_000_000);
        assert!(report.all_done);
        report
            .masters
            .iter()
            .find(|m| m.name == "bg")
            .unwrap()
            .mean_latency()
    };
    let idle = run_bg_latency(vec![]);
    let excl: Program = (0..10)
        .flat_map(|i| {
            vec![
                SocketCommand::read(SEM, 4)
                    .with_opcode(Opcode::ReadExclusive)
                    .with_stream(StreamId::new(0))
                    .with_delay(i),
                SocketCommand::write(SEM, 4, 1)
                    .with_opcode(Opcode::WriteExclusive)
                    .with_stream(StreamId::new(0)),
            ]
        })
        .collect();
    let with_excl = run_bg_latency(excl);
    assert!(
        with_excl < idle * 2.0,
        "exclusive neighbour must not throttle bystanders: {with_excl:.1} vs idle {idle:.1}"
    );
}

#[test]
fn legacy_lock_throttles_bystanders() {
    // Same comparison but the neighbour uses READEX/LOCK sequences with
    // long hold times: the pinned path visibly inflates background
    // latency and the switches record lock-idle cycles.
    let run = |sync: Program| {
        let mut soc = build(sync, background(30), false);
        let report = soc.run(1_000_000);
        assert!(report.all_done, "{report}");
        let bg = report
            .masters
            .iter()
            .find(|m| m.name == "bg")
            .unwrap()
            .mean_latency();
        (bg, report.fabric.unwrap().lock_idle_cycles)
    };
    let (idle_lat, _) = run(vec![]);
    let locks: Program = (0..10)
        .flat_map(|_| {
            vec![
                SocketCommand::read(SEM, 4).with_opcode(Opcode::ReadLocked),
                // long critical section: unlock delayed
                SocketCommand::write(SEM, 4, 1)
                    .with_opcode(Opcode::WriteUnlock)
                    .with_delay(40),
            ]
        })
        .collect();
    let (locked_lat, lock_idle) = run(locks);
    assert!(
        locked_lat > idle_lat * 1.5,
        "locking neighbour must throttle bystanders: {locked_lat:.1} vs idle {idle_lat:.1}"
    );
    assert!(
        lock_idle > 0,
        "switches must report lock-pinned idle cycles"
    );
}

/// Satellite matrix for declarative targets: interleaved exclusive
/// read/write pairs from two initiators, through both target kinds that
/// accept synchronisation traffic (a plain memory and an exclusive
/// service block), on every backend that models them, in both step
/// modes — asserting exactly one success per contended pair. The NoC
/// decides in target-NIU state, the bus in its central monitor, the
/// bridged crossbar in its crossbar monitor; the verdicts must agree.
#[test]
fn contended_exclusive_pairs_have_exactly_one_winner_everywhere() {
    use noc_scenario::{
        Backend, InitiatorSpec, MemorySpec, ScenarioError, ScenarioSpec, SocketSpec, StepMode,
    };

    const ROUNDS: usize = 3;
    // Delays pin the per-round interleave on every backend: both
    // masters arm (a then b), then a's exclusive write wins and clears
    // b's reservation, so b's write must fail. The 150-cycle stagger
    // dwarfs any backend's transaction latency.
    let pair_program = |first_delay: u32| -> Program {
        (0..ROUNDS as u32)
            .flat_map(|k| {
                vec![
                    SocketCommand::read(SEM, 4)
                        .with_opcode(Opcode::ReadExclusive)
                        .with_delay(if k == 0 { first_delay } else { 300 }),
                    SocketCommand::write(SEM, 4, 1)
                        .with_opcode(Opcode::WriteExclusive)
                        .with_delay(300),
                ]
            })
            .collect()
    };
    let ocp = SocketSpec::Ocp {
        threads: 1,
        per_thread: 1,
    };
    let targets = [
        ("memory", MemorySpec::new("sem", 0x0, 0x1000, 2)),
        (
            "service",
            MemorySpec::service("sem", 0x0, 0x1000, 2, 2).with_exclusive(),
        ),
    ];
    for (kind, sem) in targets {
        let spec = ScenarioSpec::new()
            .initiator(InitiatorSpec::new("a", ocp, pair_program(0)))
            .initiator(InitiatorSpec::new("b", ocp, pair_program(150)))
            .memory(sem);
        for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
            for mode in [StepMode::Dense, StepMode::Horizon] {
                let mut sim = match spec.build(&backend) {
                    Ok(sim) => sim,
                    Err(ScenarioError::UnsupportedTarget { .. }) => {
                        // The bus cannot host a target-owned exclusive
                        // port; everything else must compile.
                        assert!(
                            kind == "service" && matches!(backend, Backend::Bus(_)),
                            "only the bus may reject the exclusive service block"
                        );
                        continue;
                    }
                    Err(e) => panic!("{kind}/{backend}: {e}"),
                };
                assert!(
                    sim.run_until_with(1_000_000, mode),
                    "{kind}/{backend}/{mode} must drain"
                );
                // Exclusive-write verdicts per master, in round order
                // (odd program indices are the writes).
                let verdicts: Vec<Vec<RespStatus>> = sim
                    .logs()
                    .iter()
                    .map(|(_, log)| {
                        let mut writes: Vec<(usize, RespStatus)> = log
                            .records()
                            .iter()
                            .filter(|r| r.index % 2 == 1)
                            .map(|r| (r.index, r.status))
                            .collect();
                        writes.sort_unstable_by_key(|w| w.0);
                        writes.into_iter().map(|(_, s)| s).collect()
                    })
                    .collect();
                assert!(verdicts.iter().all(|v| v.len() == ROUNDS));
                for (round, pair) in verdicts[0]
                    .iter()
                    .zip(&verdicts[1])
                    .map(|(a, b)| [*a, *b])
                    .enumerate()
                {
                    assert_eq!(
                        pair.iter().filter(|s| **s == RespStatus::ExOkay).count(),
                        1,
                        "{kind}/{backend}/{mode} round {round}: exactly one \
                         contended exclusive write may win, got {pair:?}"
                    );
                    assert_eq!(
                        pair.iter().filter(|s| **s == RespStatus::ExFail).count(),
                        1,
                        "{kind}/{backend}/{mode} round {round}: the loser must \
                         fail cleanly, got {pair:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn failed_exclusive_write_leaves_memory_untouched_across_fabric() {
    let sync = vec![
        // no reservation armed: must fail cleanly
        SocketCommand::write(SEM, 4, 0xAB)
            .with_opcode(Opcode::WriteExclusive)
            .with_stream(StreamId::new(0)),
        // plain read back: sees background pattern, not 0xAB data
        SocketCommand::read(SEM, 4)
            .with_stream(StreamId::new(1))
            .with_delay(50),
    ];
    let mut soc = build(sync, vec![], true);
    let report = soc.run(500_000);
    assert!(report.all_done);
    let (_, log) = soc
        .completion_logs()
        .into_iter()
        .find(|(n, _)| *n == "sync")
        .unwrap();
    let wx = log.records().iter().find(|r| r.index == 0).unwrap();
    assert_eq!(wx.status, RespStatus::ExFail);
    let rd = log.records().iter().find(|r| r.index == 1).unwrap();
    let attempted = SocketCommand::write(SEM, 4, 0xAB).payload();
    assert_ne!(rd.data, attempted, "failed exclusive write must not land");
}

/// A won exclusive write clears the reservations on every granule it
/// writes, on every backend. `a` and `b` each arm one 64-byte granule
/// (0x0 and 0x40); `a`'s exclusive write then covers both, so `b`'s
/// later exclusive write at 0x40 must fail — whether the write is one
/// 4x32 burst or an 8x16 burst that the bridge chops into two 4-beat
/// chunks, one per granule.
#[test]
fn a_won_exclusive_write_clears_every_granule_it_writes_on_every_backend() {
    use noc_examples::golden;
    use noc_scenario::{Backend, ScenarioSpec, StepMode};

    for socket in ["axi", "avci"] {
        for burst in ["4x32", "8x16"] {
            let text = format!(
                "[topology]\nkind = \"crossbar\"\n\n\
                 [[initiator]]\nname = \"a\"\nsocket = \"{socket}\"\n\
                 cmd = \"read_ex 0x0 1x4 delay=20\"\n\
                 cmd = \"write_ex 0x0 {burst} seed=0x7 delay=20\"\n\n\
                 [[initiator]]\nname = \"b\"\nsocket = \"{socket}\"\n\
                 cmd = \"read_ex 0x40 1x4\"\n\
                 cmd = \"write_ex 0x40 1x4 seed=0x9 delay=400\"\n\n\
                 [[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x1000\nlatency = 2\n"
            );
            let spec = ScenarioSpec::from_text(&text).expect("parses");
            let mut fingerprints = Vec::new();
            for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
                let case = format!("{socket} {burst} on {backend}");
                let run = golden::run(&spec, &backend, StepMode::Horizon, 100_000)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                assert!(run.drained, "{case} drains");
                let b_write = run.logs[1].iter().find(|r| r.index == 1).expect("b wrote");
                assert_eq!(
                    b_write.status,
                    RespStatus::ExFail,
                    "{case}: a's won write must clear b's reservation at 0x40"
                );
                let per_master: Vec<String> = run
                    .report
                    .masters
                    .iter()
                    .map(|m| format!("{}={}", m.name, m.fingerprint))
                    .collect();
                fingerprints.push((case, per_master));
            }
            let (noc_case, noc) = &fingerprints[0];
            for (case, fp) in &fingerprints[1..] {
                assert_eq!(fp, noc, "{case} against {noc_case}");
            }
        }
    }
}

/// A plain write with one beat wider than the 64-byte reservation granule
/// clears every granule the beat writes: `b`'s 128-byte beat at 0x0 also
/// writes the granule at 0x40 that `a` armed, so `a`'s exclusive write
/// there fails on every backend.
#[test]
fn a_wide_beat_clears_every_granule_it_writes_on_every_backend() {
    use noc_examples::golden;
    use noc_scenario::{Backend, ScenarioSpec, StepMode};

    let text = "[topology]\nkind = \"crossbar\"\n\n\
                [[initiator]]\nname = \"a\"\nsocket = \"axi\"\n\
                cmd = \"read_ex 0x40 1x4\"\n\
                cmd = \"write_ex 0x40 1x4 seed=0x9 delay=200\"\n\n\
                [[initiator]]\nname = \"b\"\nsocket = \"axi\"\n\
                cmd = \"write 0x0 1x128 seed=0x3 delay=50\"\n\n\
                [[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x1000\nlatency = 2\n";
    let spec = ScenarioSpec::from_text(text).expect("parses");
    let mut fingerprints = Vec::new();
    for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
        let run = golden::run(&spec, &backend, StepMode::Horizon, 100_000)
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert!(run.drained, "{backend} drains");
        let a_write = run.logs[0].iter().find(|r| r.index == 1).expect("a wrote");
        assert_eq!(
            a_write.status,
            RespStatus::ExFail,
            "{backend}: b's wide beat must clear a's reservation at 0x40"
        );
        let per_master: Vec<String> = run
            .report
            .masters
            .iter()
            .map(|m| format!("{}={}", m.name, m.fingerprint))
            .collect();
        fingerprints.push(per_master);
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "{fingerprints:?}"
    );
}

/// The target NIU admits each request once. `a`'s won exclusive write
/// reaches a service block that is still busy with `b`'s slow write, so
/// the IP hands it back; it waits at the head with its verdict and is
/// served later, not tried again against the reservation it already
/// consumed. Both backends that model an exclusive service block answer
/// EXOKAY, with no errors.
#[test]
fn a_won_exclusive_write_the_ip_hands_back_is_not_tried_again() {
    use noc_examples::golden;
    use noc_scenario::{Backend, ScenarioSpec, StepMode};

    let text = "[topology]\nkind = \"crossbar\"\n\n\
                [[initiator]]\nname = \"a\"\nsocket = \"axi\"\n\
                cmd = \"read_ex 0x0 1x4\"\n\
                cmd = \"write_ex 0x0 1x4 seed=0x7 delay=100\"\n\n\
                [[initiator]]\nname = \"b\"\nsocket = \"axi\"\n\
                cmd = \"write 0x100 1x4 seed=0x9 delay=90\"\n\n\
                [[target]]\nname = \"sem\"\nkind = \"service\"\nbase = 0x0\nend = 0x1000\n\
                latency = 1\nwrite_latency = 60\nexclusive = true\n";
    let spec = ScenarioSpec::from_text(text).expect("parses");
    for backend in [Backend::noc(), Backend::bridged()] {
        let run = golden::run(&spec, &backend, StepMode::Horizon, 100_000)
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert!(run.drained, "{backend} drains");
        let a_write = run.logs[0].iter().find(|r| r.index == 1).expect("a wrote");
        assert_eq!(a_write.status, RespStatus::ExOkay, "{backend}");
        let errors: Vec<usize> = run.report.masters.iter().map(|m| m.errors).collect();
        assert_eq!(errors, [0, 0], "{backend}");
    }
}
