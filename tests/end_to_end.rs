//! End-to-end integration: the full mixed-protocol set-top SoC (paper
//! Fig 1) runs to completion on the NoC with every socket's ordering
//! contract intact.

use noc_protocols::checker::{check_ahb_order, check_axi_order, check_ocp_order};
use noc_system::Soc;
use noc_workloads::{SetTop, SetTopConfig};

/// Compiles the set-top spec to its NoC realisation (unwrapped to the
/// concrete [`Soc`] for NoC-native reporting).
fn build_noc(cfg: SetTopConfig) -> Soc {
    SetTop::new(cfg)
        .spec()
        .build_noc(cfg.noc)
        .expect("set-top spec is consistent")
        .into_inner()
}

#[test]
fn set_top_soc_drains_and_honours_every_ordering_contract() {
    let mut soc = build_noc(SetTopConfig::new(24, 0xC0FFEE));
    let report = soc.run(1_000_000);
    assert!(report.all_done, "SoC must drain: {report}");
    for m in &report.masters {
        assert_eq!(m.completions, 24, "{}", m.name);
        assert_eq!(m.errors, 0, "{}", m.name);
        assert!(m.mean_latency() > 0.0, "{}", m.name);
    }
    for (name, log) in soc.completion_logs() {
        // every socket obeys at least its own ordering contract
        let result = if name.contains("AHB")
            || name.contains("PVCI")
            || name.contains("BVCI")
            || name.contains("STRM")
        {
            check_ahb_order(log)
        } else if name.contains("OCP") || name.contains("AVCI") {
            check_ocp_order(log)
        } else {
            check_axi_order(log)
        };
        assert!(result.is_ok(), "{name}: {result:?}");
    }
}

#[test]
fn fabric_carries_traffic_for_every_master() {
    let mut soc = build_noc(SetTopConfig::new(10, 7));
    let report = soc.run(500_000);
    assert!(report.all_done);
    let fabric = report.fabric.expect("the NoC reports its fabric");
    assert!(fabric.flits_forwarded > 0);
    assert!(
        fabric.packets_forwarded >= 70,
        "7 masters x >=10 packets, got {}",
        fabric.packets_forwarded
    );
    assert!(fabric.request_flits > 0);
    assert!(fabric.response_flits > 0);
}

#[test]
fn deterministic_replay_same_seed_same_everything() {
    let run = || {
        let mut soc = build_noc(SetTopConfig::new(12, 1234));
        let report = soc.run(1_000_000);
        (
            report.cycles,
            report.system_fingerprint(),
            report.fabric.map(|f| f.flits_forwarded),
        )
    };
    assert_eq!(run(), run(), "bit-for-bit reproducibility from the seed");
}

#[test]
fn different_seeds_differ() {
    let fp = |seed| {
        let mut soc = build_noc(SetTopConfig::new(12, seed));
        soc.run(1_000_000).system_fingerprint()
    };
    assert_ne!(fp(1), fp(2));
}

#[test]
fn all_masters_complete_under_heavy_load() {
    let mut soc = build_noc(SetTopConfig::new(40, 5));
    let report = soc.run(2_000_000);
    assert!(report.all_done);
    for m in &report.masters {
        assert_eq!(m.completions, 40, "{}", m.name);
        assert_eq!(m.errors, 0, "{}", m.name);
    }
}
