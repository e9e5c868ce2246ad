//! Paper §3 ordering-model integration: one fabric simultaneously carries
//! fully-ordered, threaded and ID-based masters; each keeps exactly its
//! own contract, and the outstanding-capacity knob trades throughput for
//! gate count.

use noc_examples::area::{niu_gates, NiuAreaConfig};
use noc_niu::fe::{AhbInitiator, AxiInitiator, OcpInitiator};
use noc_niu::{InitiatorNiu, InitiatorNiuConfig, MemoryTarget, TargetNiu, TargetNiuConfig};
use noc_protocols::ahb::AhbMaster;
use noc_protocols::axi::AxiMaster;
use noc_protocols::checker::{check_ahb_order, check_axi_order, check_ocp_order};
use noc_protocols::ocp::OcpMaster;
use noc_protocols::{MemoryModel, Program, ProtocolKind, SocketCommand};
use noc_system::{NocConfig, Soc, SocBuilder};
use noc_topology::Topology;
use noc_transaction::{AddressMap, MstAddr, OrderingModel, SlvAddr, StreamId};

/// Two targets with very different latencies: the classic source of
/// response reordering.
const FAST: (u64, u64) = (0x0000, 0x1000);
const SLOW: (u64, u64) = (0x1000, 0x2000);

fn map() -> AddressMap {
    let mut m = AddressMap::new();
    m.add(FAST.0, FAST.1, SlvAddr::new(1)).unwrap();
    m.add(SLOW.0, SLOW.1, SlvAddr::new(2)).unwrap();
    m
}

/// Alternating slow/fast reads, spread over `streams`.
fn alternating(n: usize, streams: u16) -> Program {
    (0..n)
        .map(|i| {
            let addr = if i % 2 == 0 { SLOW.0 } else { FAST.0 } + (i as u64 * 4) % 0x800;
            SocketCommand::read(addr, 4).with_stream(StreamId::new(i as u16 % streams))
        })
        .collect()
}

fn build_soc(endpoint: Box<dyn noc_niu::NocEndpoint>) -> Soc {
    let topo = Topology::crossbar(3);
    let fast = TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(1), 8),
        TargetNiuConfig::new(SlvAddr::new(1)),
    );
    let slow = TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(30), 8),
        TargetNiuConfig::new(SlvAddr::new(2)),
    );
    SocBuilder::new(topo, NocConfig::new())
        .initiator("m", 0, endpoint)
        .target("fast", 1, Box::new(fast))
        .target("slow", 2, Box::new(slow))
        .build()
        .expect("valid wiring")
}

#[test]
fn fully_ordered_master_stays_ordered_across_targets() {
    let niu = InitiatorNiu::new(
        AhbInitiator::new(AhbMaster::new(alternating(12, 1))),
        InitiatorNiuConfig::new(MstAddr::new(0)).with_outstanding(4),
        map(),
    );
    let mut soc = build_soc(Box::new(niu));
    let report = soc.run(1_000_000);
    assert!(report.all_done);
    let (_, log) = soc.completion_logs()[0];
    assert!(check_ahb_order(log).is_ok(), "AHB never reorders");
    let order: Vec<usize> = log.records().iter().map(|r| r.index).collect();
    assert_eq!(order, (0..12).collect::<Vec<_>>());
}

#[test]
fn threaded_master_reorders_across_threads_only() {
    let niu = InitiatorNiu::new(
        OcpInitiator::new(OcpMaster::new(alternating(12, 2), 2, 2)),
        InitiatorNiuConfig::new(MstAddr::new(0))
            .with_ordering(OrderingModel::Threaded { threads: 2 })
            .with_outstanding(4),
        map(),
    );
    let mut soc = build_soc(Box::new(niu));
    let report = soc.run(1_000_000);
    assert!(report.all_done);
    let (_, log) = soc.completion_logs()[0];
    assert!(check_ocp_order(log).is_ok(), "per-thread order holds");
    assert!(
        check_ahb_order(log).is_err(),
        "threads to fast/slow targets must visibly reorder"
    );
}

#[test]
fn id_based_master_reorders_across_ids_only() {
    let niu = InitiatorNiu::new(
        AxiInitiator::new(AxiMaster::new(alternating(12, 4), 2, 8)),
        InitiatorNiuConfig::new(MstAddr::new(0))
            .with_ordering(OrderingModel::IdBased { tags: 4 })
            .with_outstanding(8),
        map(),
    );
    let mut soc = build_soc(Box::new(niu));
    let report = soc.run(1_000_000);
    assert!(report.all_done);
    let (_, log) = soc.completion_logs()[0];
    assert!(check_axi_order(log).is_ok(), "per-ID order holds");
    assert!(
        check_ahb_order(log).is_err(),
        "IDs to fast/slow targets must visibly reorder"
    );
}

#[test]
fn outstanding_budget_trades_cycles_for_gates() {
    // Sweep the AXI NIU's outstanding budget; completion time must fall
    // (until saturation) while the area model rises — the paper's "scale
    // gate count to expected performance".
    let mut cycles = Vec::new();
    let mut gates = Vec::new();
    for outstanding in [1u32, 2, 4, 8] {
        let niu = InitiatorNiu::new(
            AxiInitiator::new(AxiMaster::new(alternating(16, 4), outstanding, outstanding)),
            InitiatorNiuConfig::new(MstAddr::new(0))
                .with_ordering(OrderingModel::IdBased { tags: 4 })
                .with_outstanding(outstanding),
            map(),
        );
        let mut soc = build_soc(Box::new(niu));
        let report = soc.run(1_000_000);
        assert!(report.all_done);
        cycles.push(report.cycles);
        gates.push(niu_gates(&NiuAreaConfig::new(ProtocolKind::Axi, outstanding)).total());
    }
    assert!(
        cycles[0] > cycles[2],
        "more outstanding => faster: {cycles:?}"
    );
    assert!(
        gates.windows(2).all(|w| w[0] < w[1]),
        "more outstanding => more gates: {gates:?}"
    );
}

#[test]
fn mixed_masters_share_one_fabric() {
    // All three ordering models on one crossbar at once.
    let topo = Topology::crossbar(5);
    let mut m = AddressMap::new();
    m.add(FAST.0, FAST.1, SlvAddr::new(3)).unwrap();
    m.add(SLOW.0, SLOW.1, SlvAddr::new(4)).unwrap();
    let ahb = InitiatorNiu::new(
        AhbInitiator::new(AhbMaster::new(alternating(10, 1))),
        InitiatorNiuConfig::new(MstAddr::new(0)).with_outstanding(2),
        m.clone(),
    );
    let ocp = InitiatorNiu::new(
        OcpInitiator::new(OcpMaster::new(alternating(10, 2), 2, 2)),
        InitiatorNiuConfig::new(MstAddr::new(1))
            .with_ordering(OrderingModel::Threaded { threads: 2 })
            .with_outstanding(4),
        m.clone(),
    );
    let axi = InitiatorNiu::new(
        AxiInitiator::new(AxiMaster::new(alternating(10, 4), 2, 8)),
        InitiatorNiuConfig::new(MstAddr::new(2))
            .with_ordering(OrderingModel::IdBased { tags: 4 })
            .with_outstanding(8),
        m,
    );
    let fast = TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(1), 8),
        TargetNiuConfig::new(SlvAddr::new(3)),
    );
    let slow = TargetNiu::new(
        MemoryTarget::new(MemoryModel::new(30), 8),
        TargetNiuConfig::new(SlvAddr::new(4)),
    );
    let mut soc = SocBuilder::new(topo, NocConfig::new())
        .initiator("ahb", 0, Box::new(ahb))
        .initiator("ocp", 1, Box::new(ocp))
        .initiator("axi", 2, Box::new(axi))
        .target("fast", 3, Box::new(fast))
        .target("slow", 4, Box::new(slow))
        .build()
        .expect("valid wiring");
    let report = soc.run(1_000_000);
    assert!(report.all_done, "{report}");
    for (name, log) in soc.completion_logs() {
        match name {
            "ahb" => assert!(check_ahb_order(log).is_ok()),
            "ocp" => assert!(check_ocp_order(log).is_ok()),
            "axi" => assert!(check_axi_order(log).is_ok()),
            _ => unreachable!(),
        }
        assert_eq!(log.len(), 10, "{name}");
    }
}
