//! Unit tests of the [`crate::area`] gate-count models.

use crate::area::*;
use noc_protocols::ProtocolKind;
use noc_transaction::TargetRule;

#[test]
fn niu_gates_scale_with_outstanding() {
    let g: Vec<u64> = [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&n| niu_gates(&NiuAreaConfig::new(ProtocolKind::Axi, n)).total())
        .collect();
    assert!(
        g.windows(2).all(|w| w[0] < w[1]),
        "monotone in outstanding: {g:?}"
    );
    // roughly linear: 16x outstanding must stay under 16x total area
    assert!(g[4] < g[0] * 16);
    // The figures `ordering_sweep.scn`'s outstanding axis trades
    // cycles against (paper §3).
    assert_eq!(g, [4592, 5316, 6764, 9660, 15452]);
}

#[test]
fn service_bit_cost_is_small() {
    let base = niu_gates(&NiuAreaConfig::new(ProtocolKind::Axi, 4).with_service_bits(0));
    let plus1 = niu_gates(&NiuAreaConfig::new(ProtocolKind::Axi, 4).with_service_bits(1));
    let delta = plus1.total() - base.total();
    assert!(delta > 0);
    assert!(
        (delta as f64) < base.total() as f64 * 0.01,
        "one service bit costs {delta} of {} — must be <1%",
        base.total()
    );
}

#[test]
fn reorder_buffer_costs_real_area() {
    let stall = niu_gates(&NiuAreaConfig::new(ProtocolKind::Ocp, 8));
    let interleave = niu_gates(
        &NiuAreaConfig::new(ProtocolKind::Ocp, 8).with_target_rule(TargetRule::Interleave),
    );
    assert!(interleave.total() > stall.total() + 1000);
}

#[test]
fn protocol_complexity_ordering() {
    let gate = |p| niu_gates(&NiuAreaConfig::new(p, 4)).total();
    assert!(gate(ProtocolKind::Axi) > gate(ProtocolKind::Ahb));
    assert!(gate(ProtocolKind::Ahb) > gate(ProtocolKind::Pvci));
}

#[test]
fn switch_gates_scale_with_ports_and_depth() {
    assert!(switch_gates(4, 4, 72, 4).total() < switch_gates(8, 8, 72, 4).total());
    assert!(switch_gates(4, 4, 72, 4).total() < switch_gates(4, 4, 72, 8).total());
    assert!(switch_gates(4, 4, 36, 4).total() < switch_gates(4, 4, 72, 4).total());
}

#[test]
fn bridge_is_more_expensive_than_one_fe() {
    let bridge = bridge_gates(ProtocolKind::Axi, ProtocolKind::Bvci, 8, 4);
    assert!(bridge.total() > 2_800);
}

#[test]
fn monitor_slots_cost() {
    let without = niu_gates(&NiuAreaConfig::new(ProtocolKind::Bvci, 2));
    let with = niu_gates(&NiuAreaConfig {
        monitor_slots: 8,
        ..NiuAreaConfig::new(ProtocolKind::Bvci, 2)
    });
    assert!(with.total() > without.total());
}

#[test]
fn gate_count_display_and_sum() {
    assert_eq!(GateCount(500).to_string(), "500 gates");
    assert_eq!(GateCount(1500).to_string(), "1.5k gates");
    let total: GateCount = [GateCount(100), GateCount(200)].into_iter().sum();
    assert_eq!(total.total(), 300);
}

#[test]
fn bus_gates_reasonable() {
    let bus = bus_gates(7, 3, 4);
    assert!(bus.total() > 1000);
    assert!(bus.total() < niu_gates(&NiuAreaConfig::new(ProtocolKind::Axi, 4)).total() * 7);
}
