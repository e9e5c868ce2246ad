//! Fig 1 vs Fig 2 vs shared bus: the same mixed-protocol SoC on three
//! interconnects. The NoC must beat the bus on throughput and beat the
//! bridged interconnect for concurrency-capable masters, reproducing the
//! paper's qualitative claims quantitatively.

use noc_baseline::{BridgedInterconnect, SharedBus};
use noc_examples::area::{bridge_gates, bus_gates, niu_gates, switch_gates, NiuAreaConfig};
use noc_kernel::Engine;
use noc_protocols::ProtocolKind;
use noc_system::Soc;
use noc_transaction::{ServiceBits, ServiceConfig};
use noc_transport::Header;
use noc_workloads::{SetTop, SetTopConfig};

fn build_noc(cfg: SetTopConfig) -> Soc {
    SetTop::new(cfg)
        .spec()
        .build_noc(cfg.noc)
        .expect("set-top spec is consistent")
        .into_inner()
}

fn build_bus(cfg: SetTopConfig) -> SharedBus {
    SetTop::new(cfg)
        .spec()
        .build_bus(cfg.bus)
        .expect("set-top spec is consistent")
        .into_inner()
}

fn build_bridged(cfg: SetTopConfig) -> BridgedInterconnect {
    SetTop::new(cfg)
        .spec()
        .build_bridged(cfg.bridge)
        .expect("set-top spec is consistent")
        .into_inner()
}

fn mean_latency(logs: &[(&str, &noc_protocols::CompletionLog)]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (_, log) in logs {
        sum += log.mean_latency() * log.len() as f64;
        n += log.len();
    }
    sum / n as f64
}

#[test]
fn noc_finishes_before_the_bus() {
    let cfg = SetTopConfig::new(20, 42);
    let noc_report = build_noc(cfg).run(2_000_000);
    assert!(noc_report.all_done);
    let mut bus = build_bus(cfg);
    assert!(bus.run(5_000_000));
    assert!(
        (noc_report.cycles as f64) < bus.now() as f64 * 0.8,
        "NoC ({}) must clearly beat the bus ({})",
        noc_report.cycles,
        bus.now()
    );
}

#[test]
fn noc_latency_beats_bridged_for_concurrent_masters() {
    let cfg = SetTopConfig::new(20, 43);
    let noc_report = build_noc(cfg).run(2_000_000);
    assert!(noc_report.all_done);
    let mut bridged = build_bridged(cfg);
    assert!(bridged.run(5_000_000));
    // DMA (AXI, 16 outstanding on the NoC, clamped to 1 behind a bridge)
    let noc_dma = noc_report
        .masters
        .iter()
        .find(|m| m.name.contains("dma"))
        .unwrap();
    let bridged_logs = bridged.completion_logs();
    let (_, bridged_dma) = bridged_logs[2]; // attach order: cpu, video, dma, ...
    assert!(
        noc_dma.mean_latency() < bridged_dma.mean_latency(),
        "NoC DMA latency {:.1} must beat bridged {:.1}",
        noc_dma.mean_latency(),
        bridged_dma.mean_latency()
    );
}

#[test]
fn bridged_is_still_functionally_complete() {
    let cfg = SetTopConfig::new(15, 44);
    let mut bridged = build_bridged(cfg);
    assert!(bridged.run(5_000_000));
    for (_, log) in bridged.completion_logs() {
        assert_eq!(log.len(), 15);
        assert_eq!(log.errors(), 0);
    }
}

#[test]
fn whole_system_end_times_order_noc_bridged_bus() {
    let cfg = SetTopConfig::new(20, 45);
    let noc_cycles = {
        let r = build_noc(cfg).run(2_000_000);
        assert!(r.all_done);
        r.cycles
    };
    let bridged_cycles = {
        let mut ic = build_bridged(cfg);
        assert!(ic.run(5_000_000));
        ic.now()
    };
    let bus_cycles = {
        let mut bus = build_bus(cfg);
        assert!(bus.run(5_000_000));
        bus.now()
    };
    assert!(
        noc_cycles < bridged_cycles && bridged_cycles < bus_cycles,
        "expected NoC < bridged < bus, got {noc_cycles} / {bridged_cycles} / {bus_cycles}"
    );
}

#[test]
fn bridged_makespan_exceeds_noc_for_concurrent_masters() {
    // The bridge's latency penalty shows where it clamps concurrency:
    // the DMA (AXI, 16 outstanding) and video (OCP, 2 threads) masters
    // finish much later behind serialising bridges than on the NoC, even
    // though the single-hop crossbar wins on an idle one-shot read.
    let cfg = SetTopConfig::new(20, 46);
    let mut noc = build_noc(cfg);
    let noc_report = noc.run(2_000_000);
    assert!(noc_report.all_done);
    let mut bridged = build_bridged(cfg);
    assert!(bridged.run(5_000_000));
    let makespan = |log: &noc_protocols::CompletionLog| {
        log.records().iter().map(|r| r.completed_at).max().unwrap()
    };
    let noc_logs = noc.completion_logs();
    let bridged_logs = bridged.completion_logs();
    for idx in [1usize, 2] {
        // attach order: cpu=0, video=1, dma=2
        let (name, noc_log) = noc_logs[idx];
        assert!(
            makespan(bridged_logs[idx].1) > makespan(noc_log),
            "{name}: bridged {} must exceed NoC {}",
            makespan(bridged_logs[idx].1),
            makespan(noc_log)
        );
    }
    let _ = mean_latency(&bridged_logs); // keep helper exercised
}

#[test]
fn adaptation_area_noc_vs_bridges() {
    // Per-socket adaptation logic: NIU (NoC) vs bridge (Fig 2). The
    // bridge needs two protocol front ends plus packet buffering, so per
    // socket it costs more than the matching NIU of modest capacity.
    // Each row: socket, NIU outstanding budget, and the gate counts of
    // the NIU and of the bridge to the BVCI reference socket.
    let sockets = [
        (ProtocolKind::Ahb, 2u32, 3460u64, 7146u64),
        (ProtocolKind::Ocp, 8, 7812, 7946),
        (ProtocolKind::Axi, 8, 9660, 8546),
        (ProtocolKind::Strm, 2, 3060, 6746),
        (ProtocolKind::Pvci, 1, 2536, 6646),
        (ProtocolKind::Bvci, 2, 3560, 7246),
        (ProtocolKind::Avci, 4, 6364, 8146),
    ];
    let mut niu_total = 0u64;
    let mut bridge_total = 0u64;
    for (proto, outstanding, niu, bridge) in sockets {
        let gates = (
            niu_gates(&NiuAreaConfig::new(proto, outstanding)).total(),
            bridge_gates(proto, ProtocolKind::Bvci, 8, 4).total(),
        );
        assert_eq!(gates, (niu, bridge), "{proto} NIU / bridge gates");
        niu_total += niu;
        bridge_total += bridge;
    }
    // Fabric side: 4 switches (NoC) vs central crossbar + bus glue.
    let noc_fabric: u64 = (0..4).map(|_| switch_gates(5, 5, 72, 8).total()).sum();
    let bridged_fabric = switch_gates(7, 3, 72, 8).total() + bus_gates(7, 3, 8).total();
    let noc_total = niu_total + noc_fabric;
    let fig2_total = bridge_total + bridged_fabric;
    // The paper's area claim is about per-socket adaptation: a bridge
    // (two protocol front ends + store-and-forward buffers) out-costs
    // the matching NIU for every socket in the mix.
    assert!(
        bridge_total > niu_total,
        "bridges {bridge_total} must out-cost NIUs {niu_total}"
    );
    // Whole-system totals depend on fabric sizing (a multi-switch NoC
    // buys its scalability with switch buffers); both must at least be
    // plausible, positive and of the same order of magnitude.
    assert!(noc_total > 0 && fig2_total > 0);
    assert!(noc_total < fig2_total * 4 && fig2_total < noc_total * 4);
    // Paper §2: each optional NoC service costs packet header bits and
    // AXI,8 NIU gates; the 5x5 switch is the same at every step.
    let (excl, secure) = (ServiceBits::EXCLUSIVE, ServiceBits::SECURE);
    let steps: [(&[ServiceBits], u32, u64); 4] = [
        (&[], 112, 9638),
        (&[excl], 113, 9660),
        (&[excl, secure], 114, 9682),
        (
            &[excl, secure, ServiceBits::USER0, ServiceBits::USER1],
            116,
            9726,
        ),
    ];
    for (services, header, niu) in steps {
        let bits = services
            .iter()
            .fold(ServiceConfig::new(), |cfg, &s| cfg.enable(s))
            .header_bits();
        let niu_cfg = NiuAreaConfig::new(ProtocolKind::Axi, 8).with_service_bits(bits);
        assert_eq!(
            (
                Header::wire_bits(bits),
                niu_gates(&niu_cfg).total(),
                switch_gates(5, 5, 72, 8).total()
            ),
            (header, niu, 25110),
            "services {services:?}"
        );
    }
}

/// A write the bridge chops lands the bytes of each chunk's own beats. A
/// WRAP write is chopped at its wrap point into two INCR chunks whose
/// second starts below the first, and a FIXED write longer than the
/// reference socket's 4 beats into chunks at one address: each chunk takes
/// the parent's bytes from where its beats start in the burst, so reading
/// back sees what the NoC and the bus wrote.
#[test]
fn a_chopped_write_lands_each_chunks_own_bytes_on_every_backend() {
    use noc_examples::golden;
    use noc_protocols::SocketCommand;
    use noc_scenario::{Backend, ScenarioSpec, StepMode};
    use noc_transaction::{BurstKind, Opcode};

    let text = "[topology]\nkind = \"crossbar\"\n\n\
                [[initiator]]\nname = \"a\"\nsocket = \"axi\"\n\
                cmd = \"write 0x28 4x4 kind=wrap seed=0x5\"\n\
                cmd = \"read 0x20 4x4 delay=40\"\n\
                cmd = \"write 0x100 8x4 kind=fixed seed=0x6 delay=40\"\n\
                cmd = \"read 0x100 1x4 delay=40\"\n\n\
                [[memory]]\nname = \"mem\"\nbase = 0x0\nend = 0x1000\nlatency = 2\n";
    let spec = ScenarioSpec::from_text(text).expect("parses");
    // The wrap write's beats land at 0x28, 0x2c, 0x20, 0x24; the fixed
    // write leaves its last beat at 0x100.
    let wrap = SocketCommand::write(0x28, 4, 0x5).with_burst(BurstKind::Wrap, 4);
    let wrap = wrap.payload();
    let wrapped: Vec<u8> = [&wrap[8..16], &wrap[0..8]].concat();
    let fixed = SocketCommand::write(0x100, 4, 0x6).with_burst(BurstKind::Fixed, 8);
    let last_beat = fixed.payload()[28..32].to_vec();
    let mut fingerprints = Vec::new();
    for backend in [Backend::noc(), Backend::bridged(), Backend::bus()] {
        let run = golden::run(&spec, &backend, StepMode::Horizon, 100_000)
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert!(run.drained, "{backend} drains");
        let reads: Vec<&[u8]> = run.logs[0]
            .iter()
            .filter(|r| r.opcode == Opcode::Read)
            .map(|r| &r.data[..])
            .collect();
        assert_eq!(reads, [&wrapped[..], &last_beat[..]], "{backend}");
        fingerprints.push(run.report.masters[0].fingerprint);
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "{fingerprints:?}"
    );
}
