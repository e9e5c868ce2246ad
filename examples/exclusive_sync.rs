//! Paper §3: non-blocking synchronisation (exclusive access / lazy sync)
//! vs the legacy READEX/LOCK — two masters contending on a semaphore with
//! a third master's traffic as collateral.
//!
//! Run with: `cargo run -p noc-examples --example exclusive_sync`

use noc_protocols::{Program, SocketCommand};
use noc_scenario::{Backend, InitiatorSpec, MemorySpec, ScenarioSpec, SocketSpec};
use noc_transaction::Opcode;

const SEM: u64 = 0x40;

fn run(sync_program: Program, label: &str) {
    let bystander: Program = (0..30)
        .map(|i| SocketCommand::read(0x1000 + i * 16, 4))
        .collect();
    let spec = ScenarioSpec::new()
        .initiator(InitiatorSpec::new("sync", SocketSpec::Ahb, sync_program))
        .initiator(InitiatorSpec::new("bystander", SocketSpec::Ahb, bystander))
        .memory(MemorySpec::new("mem", 0x0, 0x2000, 2));
    let mut sim = spec.build(&Backend::noc()).expect("valid scenario");
    assert!(sim.run_until(1_000_000));
    let report = sim.report();
    let bg_lat = report
        .master("bystander")
        .expect("declared above")
        .mean_latency();
    let lock_idle = report.fabric.expect("NoC backend").lock_idle_cycles;
    println!(
        "{label:>28}: bystander mean latency {bg_lat:6.1} cycles, lock-idle {lock_idle} cycles"
    );
}

fn main() {
    println!("semaphore contention, collateral damage to a bystander master:\n");
    run(Vec::new(), "idle neighbour");
    // Modern: exclusive pairs (one packet bit + NIU state; non-blocking).
    // Note: AHB itself cannot express exclusives, so this program drives
    // the canonical opcodes through the neutral layer directly.
    let exclusive: Program = (0..10)
        .flat_map(|_| {
            vec![
                SocketCommand::read(SEM, 4).with_opcode(Opcode::ReadExclusive),
                SocketCommand::write(SEM, 4, 1).with_opcode(Opcode::WriteExclusive),
            ]
        })
        .collect();
    run(exclusive, "exclusive access (AXI/OCP)");
    // Legacy: READEX/LOCK with a long critical section pins fabric paths.
    let locking: Program = (0..10)
        .flat_map(|_| {
            vec![
                SocketCommand::read(SEM, 4).with_opcode(Opcode::ReadLocked),
                SocketCommand::write(SEM, 4, 1)
                    .with_opcode(Opcode::WriteUnlock)
                    .with_delay(40),
            ]
        })
        .collect();
    run(locking, "legacy READEX/LOCK");
    println!("\nlegacy locking inflates bystander latency; exclusives do not (paper \u{a7}3)");
}
