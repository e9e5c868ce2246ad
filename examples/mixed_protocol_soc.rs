//! The paper's Fig 1 system: seven IP blocks speaking AHB, OCP, AXI,
//! STRM, PVCI, BVCI and AVCI all plugged into one NoC — then the same
//! declarative spec compiled to the Fig-2 bridged interconnect and a
//! shared bus, and driven through the one `Simulation` trait.
//!
//! Run with: `cargo run -p noc-examples --example mixed_protocol_soc`

use noc_scenario::Backend;
use noc_workloads::{SetTop, SetTopConfig};

fn main() {
    let cfg = SetTopConfig::new(24, 2005);
    let spec = SetTop::new(cfg).spec();

    let mut makespans = Vec::new();
    for (title, backend) in [
        (
            "Fig 1: mixed-protocol SoC on the NoC",
            Backend::Noc(cfg.noc),
        ),
        (
            "Fig 2: same spec on the bridged reference-socket interconnect",
            Backend::Bridged(cfg.bridge),
        ),
        ("Shared bus", Backend::Bus(cfg.bus)),
    ] {
        println!("== {title} ==");
        let mut sim = spec.build(&backend).expect("set-top spec is consistent");
        assert!(sim.run_until(10_000_000), "{backend} must drain");
        let report = sim.report();
        println!("{report}\n");
        makespans.push(report.cycles);
    }

    let [noc, bridged, bus] = makespans[..] else {
        unreachable!("three backends ran");
    };
    assert!(
        noc < bridged && bridged < bus,
        "expected NoC < bridged < bus, got {noc} / {bridged} / {bus}"
    );
    println!("makespans: NoC {noc} < bridged {bridged} < bus {bus}");
}
