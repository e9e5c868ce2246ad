//! Pressure-based QoS: a latency-critical display stream keeps its
//! latency under heavy DMA interference thanks to the packet `pressure`
//! field — transport-layer QoS invisible to the transaction layer.
//!
//! Run with: `cargo run -p noc-examples --example qos_streaming`

use noc_protocols::{Program, SocketCommand};
use noc_scenario::{Backend, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec};
use noc_transaction::BurstKind;

const MEM: (u64, u64) = (0x0, 0x10_0000);

fn spec(display_pressure: u8) -> ScenarioSpec {
    let display: Program = (0..40)
        .map(|i| {
            SocketCommand::read(0x1000 + i * 64, 8)
                .with_burst(BurstKind::Incr, 8)
                .with_pressure(display_pressure)
                .with_delay(2)
        })
        .collect();
    let noise: Program = (0..40)
        .map(|i| SocketCommand::write(0x8000 + i * 128, 8, i).with_burst(BurstKind::Incr, 16))
        .collect();
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("display", SocketSpec::strm(), display).with_outstanding(4))
        .initiator(
            InitiatorSpec::new("dma1", SocketSpec::strm(), noise.clone()).with_outstanding(4),
        )
        .initiator(InitiatorSpec::new("dma2", SocketSpec::strm(), noise).with_outstanding(4))
        .memory(MemorySpec::over("mem", MEM, 4))
}

fn run(display_pressure: u8) -> (f64, u64) {
    let mut sim = spec(display_pressure)
        .build(&Backend::noc())
        .expect("valid scenario");
    assert!(sim.run_until(1_000_000));
    let report = sim.report();
    let disp = report.master("display").expect("declared above");
    (
        disp.mean_latency(),
        disp.latency.percentile(0.95).unwrap_or(0),
    )
}

fn main() {
    println!("display stream under 2x DMA interference:\n");
    println!(
        "{:>12} | {:>10} | {:>8}",
        "pressure", "mean (cy)", "p95 (cy)"
    );
    println!("{:->12}-+-{:->10}-+-{:->8}", "", "", "");
    for p in 0..=3u8 {
        let (mean, p95) = run(p);
        println!("{p:>12} | {mean:>10.1} | {p95:>8}");
    }
    println!("\nhigher pressure wins switch arbitration -> lower, tighter latency");
}
