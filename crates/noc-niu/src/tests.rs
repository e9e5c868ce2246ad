//! NIU loopback tests: initiator NIU wired flit-to-flit to a target NIU
//! (a zero-switch NoC), proving the conversion machinery end to end for
//! every socket protocol.

use crate::fe::{
    AhbInitiator, AxiInitiator, AxiTargetFe, Initiator, OcpInitiator, StrmInitiator, VciInitiator,
};
use crate::initiator::{InitiatorNiu, InitiatorNiuConfig, SocketInitiator};
use crate::target::{MemoryTarget, ServiceTarget, SocketTarget, TargetNiu, TargetNiuConfig};
use crate::NocEndpoint;
use noc_kernel::{ClockDomain, Wake};
use noc_protocols::ahb::AhbMaster;
use noc_protocols::axi::{AxiMaster, AxiSlave};
use noc_protocols::checker::{check_ahb_order, check_axi_order, check_ocp_order};
use noc_protocols::ocp::OcpMaster;
use noc_protocols::strm::StrmMaster;
use noc_protocols::vci::{VciFlavor, VciMaster};
use noc_protocols::{Agent, Chan, MemoryModel, Program, ProtocolKind, Socket, SocketCommand};
use noc_transaction::{
    AddressMap, Burst, BurstKind, MstAddr, Opcode, OrderingModel, RespStatus, SlvAddr, StreamId,
    Tag, TransactionRequest, TransactionResponse,
};

fn map_one() -> AddressMap {
    let mut map = AddressMap::new();
    map.add(0x0, 0x1_0000, SlvAddr::new(0)).unwrap();
    map
}

/// Runs an initiator NIU against a memory target NIU, directly exchanging
/// flits (ideal zero-latency links), until done or `max_cycles`.
fn loopback<FE: SocketInitiator + Clone + 'static>(
    ini: InitiatorNiu<FE>,
    tgt: TargetNiu<MemoryTarget>,
    max_cycles: u64,
) -> (InitiatorNiu<FE>, TargetNiu<MemoryTarget>) {
    let (ini, tgt, _) = loopback_peak(ini, tgt, max_cycles);
    (ini, tgt)
}

/// Transactions the NIU sent and has not yet seen answered.
fn outstanding<FE: SocketInitiator>(ini: &InitiatorNiu<FE>) -> u64 {
    let s = ini.stats();
    s.requests_sent - s.posted_writes - s.responses_received
}

/// [`loopback`], also returning the most transactions outstanding at the
/// end of any cycle.
fn loopback_peak<FE: SocketInitiator + Clone + 'static>(
    mut ini: InitiatorNiu<FE>,
    mut tgt: TargetNiu<MemoryTarget>,
    max_cycles: u64,
) -> (InitiatorNiu<FE>, TargetNiu<MemoryTarget>, u64) {
    let mut peak = 0;
    for cycle in 0..max_cycles {
        ini.tick(cycle);
        tgt.tick(cycle);
        // request network: one flit per cycle
        if let Some(flit) = ini.pull_flit() {
            tgt.push_flit(flit);
        }
        // response network: one flit per cycle
        if let Some(flit) = tgt.pull_flit() {
            ini.push_flit(flit);
        }
        peak = peak.max(outstanding(&ini));
        if ini.is_done() && tgt.is_done() {
            break;
        }
    }
    (ini, tgt, peak)
}

fn mem_target() -> TargetNiu<MemoryTarget> {
    TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(2), 8),
        TargetNiuConfig::new(SlvAddr::new(0)),
    )
}

#[test]
fn ahb_through_noc_round_trips() {
    let program = vec![
        SocketCommand::write(0x100, 4, 11).with_burst(BurstKind::Incr, 4),
        SocketCommand::read(0x100, 4).with_burst(BurstKind::Incr, 4),
    ];
    let fe = AhbInitiator::new(AhbMaster::new(program));
    let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
    let (ini, _) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done(), "AHB loopback must drain");
    let log = ini.fe().log();
    assert_eq!(log.len(), 2);
    assert!(check_ahb_order(log).is_ok());
    let recs = log.records();
    assert_eq!(recs[0].data, recs[1].data, "read returns written data");
    assert!(recs.iter().all(|r| r.status == RespStatus::Okay));
}

#[test]
fn ocp_threads_through_noc() {
    let program = vec![
        SocketCommand::read(0x300, 4).with_stream(StreamId::new(0)),
        SocketCommand::read(0x000, 4).with_stream(StreamId::new(1)),
        SocketCommand::read(0x304, 4).with_stream(StreamId::new(0)),
        SocketCommand::read(0x004, 4).with_stream(StreamId::new(1)),
    ];
    let fe = OcpInitiator::new(OcpMaster::new(program, 2, 2));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::Threaded { threads: 2 })
        .with_outstanding(4);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, _) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done());
    assert_eq!(ini.fe().log().len(), 4);
    assert!(check_ocp_order(ini.fe().log()).is_ok());
}

#[test]
fn axi_ids_through_noc() {
    let program: Program = (0..8)
        .map(|i| SocketCommand::read(0x100 * i, 4).with_stream(StreamId::new((i % 4) as u16)))
        .collect();
    let fe = AxiInitiator::new(AxiMaster::new(program, 2, 8));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::IdBased { tags: 4 })
        .with_outstanding(8);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, _) = loopback(ini, mem_target(), 3000);
    assert!(ini.is_done());
    assert_eq!(ini.fe().log().len(), 8);
    assert!(check_axi_order(ini.fe().log()).is_ok());
}

#[test]
fn axi_exclusive_handled_by_target_niu_monitor() {
    let program = vec![
        SocketCommand::read(0x80, 4).with_opcode(Opcode::ReadExclusive),
        SocketCommand::write(0x80, 4, 9)
            .with_opcode(Opcode::WriteExclusive)
            .with_delay(40),
    ];
    let fe = AxiInitiator::new(AxiMaster::new(program, 2, 4));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::IdBased { tags: 2 })
        .with_outstanding(4);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, tgt) = loopback(ini, mem_target(), 3000);
    assert!(ini.is_done());
    let recs = ini.fe().log().records();
    assert!(
        recs.iter().all(|r| r.status == RespStatus::ExOkay),
        "statuses: {:?}",
        recs.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert_eq!(tgt.monitor().failures(), 0);
    assert_eq!(tgt.monitor().successes(), 1);
}

#[test]
fn exclusive_write_without_reservation_fails_locally() {
    let program = vec![SocketCommand::write(0x80, 4, 9).with_opcode(Opcode::WriteExclusive)];
    let fe = AxiInitiator::new(AxiMaster::new(program, 2, 4));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::IdBased { tags: 2 })
        .with_outstanding(4);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, tgt) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done());
    assert_eq!(ini.fe().log().records()[0].status, RespStatus::ExFail);
    assert_eq!(tgt.monitor().failures(), 1);
    // the failed write never reached the memory
    assert_eq!(tgt.target().memory().write_count(), 0);
}

#[test]
fn bvci_and_pvci_through_noc() {
    for (flavor, depth) in [(VciFlavor::Peripheral, 1), (VciFlavor::Basic, 2)] {
        let program = vec![
            SocketCommand::write(0x40, 4, 3),
            SocketCommand::read(0x40, 4),
        ];
        let fe = VciInitiator::new(VciMaster::new(program, flavor, depth));
        let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
        let (ini, _) = loopback(ini, mem_target(), 2000);
        assert!(ini.is_done(), "{flavor} loopback must drain");
        let recs = ini.fe().log().records();
        assert_eq!(recs[0].data, recs[1].data, "{flavor} data integrity");
    }
}

#[test]
fn avci_threads_through_noc() {
    let program = vec![
        SocketCommand::read(0x0, 4).with_stream(StreamId::new(0)),
        SocketCommand::read(0x100, 4).with_stream(StreamId::new(1)),
    ];
    let fe = VciInitiator::new(VciMaster::new(
        program,
        VciFlavor::Advanced { threads: 2 },
        2,
    ));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::Threaded { threads: 2 })
        .with_outstanding(4);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, _) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done());
    assert!(check_ocp_order(ini.fe().log()).is_ok());
}

#[test]
fn strm_posted_stream_and_urgent_reads() {
    let program = vec![
        SocketCommand::write(0x200, 4, 5)
            .with_opcode(Opcode::WritePosted)
            .with_burst(BurstKind::Incr, 8),
        SocketCommand::read(0x200, 4)
            .with_burst(BurstKind::Incr, 8)
            .with_pressure(3)
            .with_delay(50),
    ];
    let fe = StrmInitiator::new(StrmMaster::new(program.clone(), 4));
    let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
    let (ini, _) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done());
    let recs = ini.fe().log().records();
    assert_eq!(recs.len(), 2);
    let read = recs.iter().find(|r| r.index == 1).unwrap();
    assert_eq!(
        read.data,
        program[0].payload(),
        "stream data written then read"
    );
    assert_eq!(ini.stats().posted_writes, 1);
}

#[test]
fn decode_error_answered_locally() {
    let program = vec![SocketCommand::read(0xFFFF_0000, 4)];
    let fe = AhbInitiator::new(AhbMaster::new(program));
    let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
    let (ini, tgt) = loopback(ini, mem_target(), 500);
    assert!(ini.is_done());
    assert_eq!(ini.stats().decode_errors, 1);
    assert_eq!(ini.stats().requests_sent, 0, "nothing entered the fabric");
    assert_eq!(ini.fe().log().records()[0].status, RespStatus::DecErr);
    assert_eq!(tgt.requests_served(), 0);
}

/// An AXI master that would keep eight reads in flight against an NIU
/// allowed two: at the end of every cycle at most two are outstanding,
/// the budget is reached, and the policy stalls the rest until a
/// response frees an entry.
#[test]
fn table_occupancy_bounded_by_config() {
    let program: Program = (0..20)
        .map(|i| SocketCommand::read(i * 4, 4).with_stream(StreamId::new((i % 8) as u16)))
        .collect();
    let fe = AxiInitiator::new(AxiMaster::new(program, 8, 8));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::IdBased { tags: 8 })
        .with_outstanding(2);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, _, peak) = loopback_peak(ini, mem_target(), 5000);
    assert!(ini.is_done());
    assert_eq!(peak, 2, "the budget is reached and never exceeded");
    assert!(ini.stats().policy_stalls > 0);
    assert_eq!(ini.fe().log().len(), 20);
}

/// Two targets, `[0, 0x800)` at node 0 and `[0x800, 0x1000)` at node 1,
/// both served by the one memory a loop drives (a target NIU does not
/// check the address it is sent to).
fn map_two() -> AddressMap {
    let mut map = AddressMap::new();
    map.add(0x0, 0x800, SlvAddr::new(0)).unwrap();
    map.add(0x800, 0x1000, SlvAddr::new(1)).unwrap();
    map
}

/// 24 commands over `streams` streams, every third a write, with delays
/// the front end counts down while the NIU waits. With `alternate`, each
/// stream's commands alternate between the two targets of [`map_two`];
/// otherwise they all go to the first.
fn blocking_program(streams: u16, alternate: bool) -> Program {
    (0..24u64)
        .map(|i| {
            let target = if alternate {
                (i / u64::from(streams)) % 2
            } else {
                0
            };
            let addr = 0x800 * target + 0x40 * i;
            let cmd = if i % 3 == 2 {
                SocketCommand::write(addr, 4, i)
            } else {
                SocketCommand::read(addr, 4)
            };
            cmd.with_stream(StreamId::new((i % u64::from(streams)) as u16))
                .with_delay([0, 0, 5, 0, 13][i as usize % 5])
        })
        .collect()
}

/// Runs `ini` against a memory target NIU over ideal links, returning it
/// drained and the ticks it executed. With `skip`, it is ticked only at
/// its wake (its `Wake` counted from the last edge accounted), and the
/// edges passed over are charged through one `skip_ticks` before it is
/// next ticked or handed a flit — the way `Soc` drives an endpoint.
fn drive<FE: SocketInitiator + Clone + 'static>(
    mut ini: InitiatorNiu<FE>,
    skip: bool,
) -> (InitiatorNiu<FE>, u64) {
    let mut tgt = mem_target();
    let (mut settled, mut wake, mut ticks) = (0u64, 0u64, 0u64);
    for cycle in 0..20_000 {
        if !skip || cycle >= wake {
            ini.skip_ticks(cycle - settled);
            ini.tick(cycle);
            settled = cycle + 1;
            ticks += 1;
            if let Some(flit) = ini.pull_flit() {
                tgt.push_flit(flit);
            }
        }
        tgt.tick(cycle);
        if let Some(flit) = tgt.pull_flit() {
            // A dense run ticked the NIU on this cycle before the delivery.
            ini.skip_ticks(cycle + 1 - settled);
            settled = cycle + 1;
            ini.push_flit(flit);
        }
        wake = ini
            .wake()
            .base_cycle(ClockDomain::BASE, settled)
            .unwrap_or(u64::MAX);
        if ini.is_done() && tgt.is_done() {
            ini.skip_ticks(cycle + 1 - settled);
            return (ini, ticks);
        }
    }
    panic!("the loop did not drain");
}

/// A NIU the ordering policy refused sleeps until a response completes.
/// Ticking it only at its wake and charging the gaps through
/// `skip_ticks` must equal ticking it every cycle, down to the counters:
/// each policy, each reason the policy refuses, with socket countdowns
/// running while the NIU sleeps.
#[test]
fn a_policy_blocked_niu_skipped_to_its_wake_equals_dense_ticking() {
    fn case<FE: SocketInitiator + Clone + 'static>(label: &str, fe: FE, cfg: InitiatorNiuConfig) {
        let ini = InitiatorNiu::new(fe, cfg, map_two());
        let (dense, dense_ticks) = drive(ini.clone(), false);
        let (skipped, skipped_ticks) = drive(ini, true);
        assert_eq!(
            dense.fe().log().len(),
            24,
            "{label}: every command completes"
        );
        assert_eq!(
            skipped.fe().log().records(),
            dense.fe().log().records(),
            "{label}: records"
        );
        assert_eq!(skipped.stats(), dense.stats(), "{label}: counters");
        assert!(
            dense.stats().policy_stalls > 0,
            "{label}: the policy refuses"
        );
        assert!(
            skipped_ticks + dense.stats().policy_stalls / 2 < dense_ticks,
            "{label}: a blocked NIU sleeps ({skipped_ticks} of {dense_ticks} ticks)"
        );
    }
    let node = || InitiatorNiuConfig::new(MstAddr::new(0));
    let bvci = |alternate| {
        VciInitiator::new(VciMaster::new(
            blocking_program(1, alternate),
            VciFlavor::Basic,
            4,
        ))
    };
    let ocp = |alternate| OcpInitiator::new(OcpMaster::new(blocking_program(2, alternate), 2, 4));
    let axi = |streams, alternate| {
        AxiInitiator::new(AxiMaster::new(blocking_program(streams, alternate), 4, 8))
    };
    let threaded = OrderingModel::Threaded { threads: 2 };
    let tags = |tags| OrderingModel::IdBased { tags };
    // One target and room for every tag: only the budget refuses.
    case(
        "fully ordered, table full",
        bvci(false),
        node().with_outstanding(2),
    );
    case(
        "threaded, table full",
        ocp(false),
        node().with_ordering(threaded).with_outstanding(2),
    );
    case(
        "id-based, table full",
        axi(8, false),
        node().with_ordering(tags(8)).with_outstanding(2),
    );
    // One target and a budget above the master's: only the pool refuses.
    case(
        "id-based, no free tag",
        axi(4, false),
        node().with_ordering(tags(2)).with_outstanding(16),
    );
    // Each stream alternates targets under a budget above the master's:
    // only the target switch refuses.
    case(
        "fully ordered, target hazard",
        bvci(true),
        node().with_outstanding(16),
    );
    case(
        "threaded, target hazard",
        ocp(true),
        node().with_ordering(threaded).with_outstanding(16),
    );
    case(
        "id-based, target hazard",
        axi(2, true),
        node().with_ordering(tags(4)).with_outstanding(16),
    );
}

/// BVCI, pipeline 2: a write and a read in flight together on tag 0.
/// Each response belongs to the oldest outstanding entry with its tag —
/// the write's comes back first. Matching the newest would hand the
/// read's data to the write entry, whose socket response carries none.
#[test]
fn oldest_same_tag_entry_takes_a_bvci_response() {
    let program = vec![
        SocketCommand::write(0x40, 4, 3).with_burst(BurstKind::Incr, 4),
        SocketCommand::read(0x40, 4).with_burst(BurstKind::Incr, 4),
    ];
    let fe = VciInitiator::new(VciMaster::new(program.clone(), VciFlavor::Basic, 2));
    let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
    let (ini, _, peak) = loopback_peak(ini, mem_target(), 2000);
    assert!(ini.is_done());
    assert_eq!(peak, 2, "write and read outstanding on tag 0 at once");
    let recs = ini.fe().log().records();
    assert_eq!(recs.len(), 2);
    assert_eq!(recs[1].data, program[0].payload(), "the read gets its data");
}

/// OCP, one thread (one tag) with two reads of different lengths in
/// flight, beside a second thread: every read returns the bytes at its
/// own address.
#[test]
fn oldest_same_tag_entry_takes_an_ocp_thread_response() {
    let writes = [(0x300, 4, 1), (0x320, 1, 2), (0x000, 2, 3), (0x020, 1, 4)];
    let write = |&(addr, beats, seed): &(u64, u32, u64), thread: u16| {
        SocketCommand::write(addr, 4, seed)
            .with_burst(BurstKind::Incr, beats)
            .with_stream(StreamId::new(thread))
    };
    let read = |&(addr, beats, _): &(u64, u32, u64), thread: u16| {
        SocketCommand::read(addr, 4)
            .with_burst(BurstKind::Incr, beats)
            .with_stream(StreamId::new(thread))
    };
    let program = vec![
        write(&writes[0], 0),
        write(&writes[1], 0),
        write(&writes[2], 1),
        write(&writes[3], 1),
        read(&writes[0], 0).with_delay(40),
        read(&writes[1], 0),
        read(&writes[2], 1),
        read(&writes[3], 1),
    ];
    let fe = OcpInitiator::new(OcpMaster::new(program.clone(), 2, 2));
    let cfg = InitiatorNiuConfig::new(MstAddr::new(0))
        .with_ordering(OrderingModel::Threaded { threads: 2 })
        .with_outstanding(4);
    let ini = InitiatorNiu::new(fe, cfg, map_one());
    let (ini, _, peak) = loopback_peak(ini, mem_target(), 3000);
    assert!(ini.is_done());
    assert!(peak >= 2, "two reads of one thread in flight at once");
    assert!(check_ocp_order(ini.fe().log()).is_ok());
    let recs = ini.fe().log().records();
    assert_eq!(recs.len(), 8);
    for (i, w) in (4..8).zip(0..4) {
        let rec = recs.iter().find(|r| r.index == i).expect("read completed");
        assert_eq!(rec.data, program[w].payload(), "read {i}");
    }
}

#[test]
fn locked_sequence_via_lock_arbiter() {
    let program = vec![
        SocketCommand::read(0x40, 4).with_opcode(Opcode::ReadLocked),
        SocketCommand::write(0x40, 4, 7).with_opcode(Opcode::WriteUnlock),
    ];
    let fe = AhbInitiator::new(AhbMaster::new(program));
    let ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
    let (ini, tgt) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done(), "locked sequence must complete and unlock");
    assert_eq!(ini.fe().log().len(), 2);
    assert!(tgt.is_done());
}

#[test]
fn axi_target_fe_serves_noc_requests() {
    // Initiator: AHB master. Target: AXI DRAM controller behind the NoC.
    let program = vec![
        SocketCommand::write(0x100, 4, 13).with_burst(BurstKind::Incr, 2),
        SocketCommand::read(0x100, 4).with_burst(BurstKind::Incr, 2),
    ];
    let fe = AhbInitiator::new(AhbMaster::new(program));
    let mut ini = InitiatorNiu::new(fe, InitiatorNiuConfig::new(MstAddr::new(0)), map_one());
    let mut tgt = TargetNiu::new(
        AxiTargetFe::new(AxiSlave::new(MemoryModel::new(3), 0)),
        TargetNiuConfig::new(SlvAddr::new(0)),
    );
    for cycle in 0..3000 {
        ini.tick(cycle);
        tgt.tick(cycle);
        if let Some(flit) = ini.pull_flit() {
            tgt.push_flit(flit);
        }
        if let Some(flit) = tgt.pull_flit() {
            ini.push_flit(flit);
        }
        if ini.is_done() && tgt.is_done() {
            break;
        }
    }
    assert!(ini.is_done(), "AHB→NoC→AXI bridge path must drain");
    let recs = ini.fe().log().records();
    assert_eq!(recs.len(), 2);
    assert_eq!(
        recs[0].data, recs[1].data,
        "data integrity across protocols"
    );
}

#[test]
fn cross_protocol_same_memory_coherent_values() {
    // Two sequential sessions against the same target: OCP writes, then
    // an AXI master reads the same addresses through a fresh NIU.
    let write_prog = vec![SocketCommand::write(0x500, 4, 77).with_burst(BurstKind::Incr, 4)];
    let fe = OcpInitiator::new(OcpMaster::new(write_prog.clone(), 1, 1));
    let ini = InitiatorNiu::new(
        fe,
        InitiatorNiuConfig::new(MstAddr::new(0))
            .with_ordering(OrderingModel::Threaded { threads: 1 }),
        map_one(),
    );
    let (_, tgt) = loopback(ini, mem_target(), 2000);
    let read_prog = vec![SocketCommand::read(0x500, 4).with_burst(BurstKind::Incr, 4)];
    let fe = AxiInitiator::new(AxiMaster::new(read_prog, 1, 1));
    let ini = InitiatorNiu::new(
        fe,
        InitiatorNiuConfig::new(MstAddr::new(1)).with_ordering(OrderingModel::IdBased { tags: 1 }),
        map_one(),
    );
    let (ini, _) = loopback(ini, tgt, 2000);
    assert!(ini.is_done());
    assert_eq!(
        ini.fe().log().records()[0].data,
        write_prog[0].payload(),
        "AXI read observes OCP-written bytes"
    );
}

/// An IP that back-pressures: refuses the first `refusals` offers, then
/// accepts, answering at once. Records every offer and what it accepted.
#[derive(Clone, Default)]
struct RefusingTarget {
    refusals: usize,
    /// (opcode, payload buffer address) of every offer, refused or not.
    offers: Vec<(Opcode, usize)>,
    accepted: Vec<TransactionRequest>,
    responses: std::collections::VecDeque<TransactionResponse>,
}

impl SocketTarget for RefusingTarget {
    fn tick(&mut self, _cycle: u64) {}

    fn push_request(&mut self, req: TransactionRequest) -> Result<(), TransactionRequest> {
        self.offers
            .push((req.opcode(), req.data().as_ptr() as usize));
        if self.offers.len() <= self.refusals {
            return Err(req);
        }
        self.responses.push_back(TransactionResponse::new(
            RespStatus::Okay,
            req.src(),
            req.dst(),
            req.tag(),
            Vec::new(),
        ));
        self.accepted.push(req);
        Ok(())
    }

    fn pull_response(&mut self) -> Option<TransactionResponse> {
        self.responses.pop_front()
    }
}

/// A refused request is handed back and offered again: however often the
/// IP refuses, it is issued exactly once and as the one buffer that
/// arrived (the double-issue a parked `retry` copy allowed cannot
/// happen), and the NIU's accounting while it waits is what it always
/// was — the head keeps the NIU dense, counts no lock stall, is served
/// once, and the legacy lock follows the label the request came with,
/// not the plain one the IP is shown.
#[test]
fn refused_request_is_handed_back_and_issued_exactly_once() {
    for refusals in [0usize, 1, 5] {
        for opcode in [Opcode::Write, Opcode::ReadLocked] {
            let target = RefusingTarget {
                refusals,
                ..RefusingTarget::default()
            };
            let mut tgt = TargetNiu::new(target, TargetNiuConfig::new(SlvAddr::new(0)));
            let request = |opcode: Opcode, master: u16| {
                TransactionRequest::builder(opcode)
                    .address(0x40)
                    .burst(Burst::incr(4, 4).unwrap())
                    .source(MstAddr::new(master))
                    .tag(Tag::new(1))
                    .build()
                    .unwrap()
            };
            let sent = request(opcode, 3);
            for flit in crate::request_into_packet(sent.clone()).into_flits_with_id(8, 1) {
                tgt.push_flit(flit);
            }

            for cycle in 0..refusals {
                tgt.tick(cycle as u64);
                assert_eq!(tgt.target().offers.len(), cycle + 1, "one offer a cycle");
                assert_eq!(tgt.requests_served(), 0, "{opcode} refusal {cycle}");
                assert_eq!(
                    tgt.wake(),
                    Wake::Ticks(0),
                    "a waiting head keeps the NIU dense"
                );
                assert!(!tgt.is_done());
            }
            tgt.tick(refusals as u64);

            let ip = tgt.target();
            assert_eq!(ip.offers.len(), refusals + 1);
            assert!(
                ip.offers.iter().all(|&offer| offer == ip.offers[0]),
                "{opcode}: every offer is the same plain-labelled buffer: {:?}",
                ip.offers
            );
            assert_eq!(ip.accepted, [sent.with_opcode(opcode.plain())]);
            assert_eq!(tgt.requests_served(), 1);
            assert_eq!(tgt.lock_stall_cycles(), 0);
            let response_flits = std::iter::from_fn(|| tgt.pull_flit()).count();
            assert_eq!(response_flits, 1, "{opcode}: one header-only response");
            assert!(tgt.is_done());

            // Another master's read stalls exactly when a lock was taken.
            for flit in
                crate::request_into_packet(request(Opcode::Read, 4)).into_flits_with_id(8, 2)
            {
                tgt.push_flit(flit);
            }
            tgt.tick(refusals as u64 + 1);
            let locked = opcode == Opcode::ReadLocked;
            assert_eq!(tgt.lock_stall_cycles(), u64::from(locked), "{opcode}");
            assert_eq!(
                tgt.requests_served(),
                if locked { 1 } else { 2 },
                "{opcode}"
            );
        }
    }
}

/// The AXI front end on a full AW channel hands the request back and
/// keeps nothing: offered again it is issued once (parking a copy while
/// also refusing would write three times here, not two).
#[test]
fn axi_target_fe_refuses_on_a_full_channel_without_keeping_the_request() {
    let mut fe = AxiTargetFe::new(AxiSlave::new(MemoryModel::new(1), 0));
    let write = |tag: u8| {
        TransactionRequest::builder(Opcode::Write)
            .address(0x10 * u64::from(tag))
            .source(MstAddr::new(2))
            .tag(Tag::new(tag))
            .data(vec![tag; 4])
            .build()
            .unwrap()
    };
    assert_eq!(fe.push_request(write(0)), Ok(()));
    // AW is a one-beat channel the slave has not drained yet.
    let refused = fe.push_request(write(1)).unwrap_err();
    assert_eq!(refused, write(1));
    assert_eq!(fe.wake(), Wake::Ticks(0));
    fe.tick(0);
    assert_eq!(fe.push_request(refused), Ok(()));
    let mut responses = Vec::new();
    for cycle in 1..20 {
        fe.tick(cycle);
        responses.extend(fe.pull_response());
    }
    let tags: Vec<Tag> = responses.iter().map(|r| r.tag()).collect();
    assert_eq!(tags, [Tag::new(0), Tag::new(1)]);
    assert_eq!(fe.slave().memory().write_count(), 2);
    assert_eq!(fe.wake(), Wake::Ticks(u64::MAX));
}

/// Delivers a read from `master` to `tgt`, as the request network does.
fn push_read<T: SocketTarget + Clone + 'static>(
    tgt: &mut TargetNiu<T>,
    opcode: Opcode,
    master: u16,
) {
    let req = TransactionRequest::builder(opcode)
        .address(0x40)
        .source(MstAddr::new(master))
        .build()
        .unwrap();
    for flit in crate::request_into_packet(req).into_flits_with_id(8, master.into()) {
        tgt.push_flit(flit);
    }
}

/// `TargetNiu::wake` in the five states a target NIU passes through:
/// idle, a head waiting in ingress, a head held back, the access in
/// service at the IP, and a response held in egress. The NIU's own
/// queues override the IP: only in service does the IP's wake show, as
/// the cycle the response is ready for the memory and the service block,
/// and as dense ticking for the AXI slave, which stamps no ready cycle.
#[test]
fn target_niu_wake_in_each_state() {
    const IDLE: Wake = Wake::Ticks(u64::MAX);
    const DENSE: Wake = Wake::Ticks(0);
    let config = || TargetNiuConfig::new(SlvAddr::new(0));
    let regs = || MemoryModel::new(3);
    let memory = TargetNiu::new(MemoryTarget::new(regs(), 1), config());
    let service = TargetNiu::new(ServiceTarget::new(regs(), 5, 1), config());
    let axi = TargetNiu::new(AxiTargetFe::new(AxiSlave::new(regs(), 0)), config());
    // States in the order above; a read accepted at cycle 0 is ready 3
    // cycles of latency plus its one beat later.
    assert_eq!(
        [
            wake_in_each_state(memory, Opcode::Read),
            wake_in_each_state(service, Opcode::Read),
            wake_in_each_state(axi, Opcode::ReadLocked),
        ],
        [
            [IDLE, DENSE, DENSE, Wake::At(4), DENSE],
            [IDLE, DENSE, DENSE, Wake::At(4), DENSE],
            [IDLE, DENSE, DENSE, DENSE, DENSE],
        ]
    );
}

/// Drives a fresh target NIU through the states of
/// [`target_niu_wake_in_each_state`]: a `first` request from master 1
/// and a read from master 2 behind it. A plain `first` is still in
/// service when the IP refuses the read; the AXI slave takes every beat
/// on its port at the start of each tick, so it never refuses an offer
/// through the NIU, and a `ReadLocked` first holds the read back on the
/// legacy lock instead, once its own response has left.
fn wake_in_each_state<T: SocketTarget + Clone + 'static>(
    mut tgt: TargetNiu<T>,
    first: Opcode,
) -> [Wake; 5] {
    let mut cycle = 0;
    let mut tick = |tgt: &mut TargetNiu<T>| {
        assert!(cycle < 100, "{first}: the next state is reached");
        tgt.tick(cycle);
        cycle += 1;
    };
    let egress_held = |tgt: &TargetNiu<T>| tgt.clone().pull_flit().is_some();
    let idle = tgt.wake();
    push_read(&mut tgt, first, 1);
    let waiting = tgt.wake();
    tick(&mut tgt);
    assert_eq!(tgt.requests_served(), 1, "{first} is accepted at once");
    let in_service = tgt.wake();
    if first == Opcode::ReadLocked {
        while !egress_held(&tgt) {
            tick(&mut tgt);
        }
        let egress = tgt.wake();
        while tgt.pull_flit().is_some() {}
        push_read(&mut tgt, Opcode::Read, 2);
        tick(&mut tgt);
        assert_eq!(tgt.lock_stall_cycles(), 1, "the lock holds the read back");
        return [idle, waiting, tgt.wake(), in_service, egress];
    }
    push_read(&mut tgt, Opcode::Read, 2);
    tick(&mut tgt);
    assert_eq!(tgt.requests_served(), 1, "{first}: the IP refuses the read");
    assert_eq!(tgt.lock_stall_cycles(), 0);
    let refused = tgt.wake();
    // The read is accepted once the first response left the IP.
    while tgt.requests_served() < 2 || !egress_held(&tgt) {
        tick(&mut tgt);
    }
    [idle, waiting, refused, in_service, tgt.wake()]
}

/// A sixth socket, written here and nowhere else: a WISHBONE-classic-like
/// bus cycle (`CYC`/`STB` with `WE`, `ADR`, `DAT_O`; answered by `ACK` or
/// `ERR` with `DAT_I`), one cycle outstanding. This impl and its port are
/// all the socket costs: the agent, the NIU front end and back end, the
/// packet format and the fabric are the ones every other socket uses.
#[derive(Debug, Clone, Copy)]
struct Wishbone;

#[derive(Debug, Clone)]
struct WbCycle {
    we: bool,
    adr: u64,
    burst: Burst,
    dat_o: Vec<u8>,
}

#[derive(Debug, Clone)]
struct WbAck {
    err: bool,
    dat_i: Vec<u8>,
}

#[derive(Debug, Clone, Default)]
struct WbPort {
    cycle: Chan<WbCycle>,
    ack: Chan<WbAck>,
}

impl Socket for Wishbone {
    type Port = WbPort;

    /// An `ACK` is what retires a cycle: AHB's opcode vocabulary.
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Ahb
    }

    fn max_depth(&self) -> u32 {
        1
    }

    fn ready(&self, port: &WbPort, _cmd: &SocketCommand) -> bool {
        port.cycle.ready()
    }

    fn drive(&mut self, port: &mut WbPort, cmd: &SocketCommand) {
        let we = cmd.opcode.is_write();
        let cycle = WbCycle {
            we,
            adr: cmd.addr,
            burst: cmd.burst(),
            dat_o: if we { cmd.payload() } else { Vec::new() },
        };
        port.cycle.offer(cycle).expect("ready was checked");
    }

    fn sample(port: &mut WbPort, mut retire: impl FnMut(u32, RespStatus, Vec<u8>)) {
        if let Some(ack) = port.ack.take() {
            let status = if ack.err {
                RespStatus::SlvErr
            } else {
                RespStatus::Okay
            };
            retire(0, status, ack.dat_i);
        }
    }

    fn accept(port: &mut WbPort) -> Option<TransactionRequest> {
        let c = port.cycle.take()?;
        let opcode = if c.we { Opcode::Write } else { Opcode::Read };
        let builder = TransactionRequest::builder(opcode)
            .address(c.adr)
            .burst(c.burst)
            .data(c.dat_o);
        Some(builder.build().expect("agent produces valid requests"))
    }

    fn respond(port: &mut WbPort, _stream: StreamId, _opcode: Opcode, resp: TransactionResponse) {
        let ack = WbAck {
            err: resp.status().is_err(),
            dat_i: resp.into_data(),
        };
        port.ack.offer(ack).expect("the master samples every cycle");
    }

    fn quiet(port: &WbPort) -> bool {
        port.cycle.is_empty() && port.ack.is_empty()
    }
}

#[test]
fn a_sixth_socket_costs_one_socket_impl() {
    let program = vec![
        SocketCommand::write(0x100, 4, 21).with_burst(BurstKind::Incr, 4),
        SocketCommand::read(0x100, 4).with_burst(BurstKind::Incr, 4),
        SocketCommand::write(0x40, 4, 22).with_delay(9),
        SocketCommand::read(0x40, 4),
        SocketCommand::read(0x2_0000, 4), // decodes nowhere: ERR
    ];
    let master = Agent::with_shape(Wishbone, program.clone(), 1, 1, u32::MAX);
    let config = InitiatorNiuConfig::new(MstAddr::new(0));
    let ini = InitiatorNiu::new(Initiator::new(master), config, map_one());
    let (ini, tgt) = loopback(ini, mem_target(), 2000);
    assert!(ini.is_done() && tgt.is_done(), "the sixth socket drains");
    let log = ini.fe().log();
    assert!(check_ahb_order(log).is_ok());
    let recs = log.records();
    assert_eq!(recs.len(), 5);
    assert_eq!(recs[1].data, program[0].payload(), "burst read-back");
    assert_eq!(recs[3].data, program[2].payload(), "single read-back");
    assert!(recs[..4].iter().all(|r| r.status == RespStatus::Okay));
    assert_eq!(recs[4].status, RespStatus::SlvErr, "DECERR arrives as ERR");
}
