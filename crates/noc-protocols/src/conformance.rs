//! The contract every socket's [`Agent`] instantiation shares, checked
//! once over all seven flavours against the generic [`Loopback`].

use crate::agent::{Agent, Socket};
use crate::ahb::AhbMaster;
use crate::axi::AxiMaster;
use crate::checker::{check_ahb_order, check_axi_order, check_ocp_order, OrderingViolation};
use crate::command::{CompletionLog, CompletionRecord, Program, SocketCommand};
use crate::loopback::Loopback;
use crate::memory::MemoryModel;
use crate::ocp::OcpMaster;
use crate::strm::StrmMaster;
use crate::vci::{VciFlavor, VciMaster};
use noc_transaction::StreamId;
use std::ops::Range;

/// Reads and writes over `streams` streams, spread across the loopback's
/// banks, with issue delays from none to longer than a round trip.
fn program(streams: u16) -> Program {
    (0..24u64)
        .map(|i| {
            let addr = 0x100 * (i % 5) + 4 * i;
            let cmd = if i % 3 == 0 {
                SocketCommand::write(addr, 4, i)
            } else {
                SocketCommand::read(addr, 4)
            };
            cmd.with_stream(StreamId::new(i as u16 % streams))
                .with_delay([0, 0, 7, 1, 19, 0, 3][i as usize % 7])
        })
        .collect()
}

/// Windows in which the loopback withholds `accept`, each longer than
/// the program's longest delay, so countdowns run out while a request
/// sits on the port.
const HOLDS: [Range<u64>; 3] = [10..35, 80..120, 200..260];

/// Whether the port carries a response for the master.
fn answered<S: Socket>(port: &S::Port) -> bool {
    let mut any = false;
    S::sample(&mut port.clone(), |_, _, _| any = true);
    any
}

/// Runs `master` to completion against a slow, bank-staggered loopback
/// that accepts nothing during `holds`; returns the records and the
/// ticks executed.
/// With `skip`, the master is ticked only when its `idle_ticks` claim
/// over the port has run out or a response waits on the port, and the
/// cycles passed over are charged through one `skip_ticks` before it is
/// next touched or the slave takes a request it held — the way
/// `Soc::step` drives an endpoint.
fn run<S: Socket>(
    mut master: Agent<S>,
    skip: bool,
    holds: &[Range<u64>],
) -> (Vec<CompletionRecord>, u64) {
    let mut slave = Loopback::<S>::new(MemoryModel::new(6), 3);
    let mut port = S::Port::default();
    let (mut settled, mut wake, mut ticks) = (0u64, 0u64, 0u64);
    for cycle in 0..10_000 {
        if !skip || cycle >= wake {
            master.skip_ticks(cycle - settled, &port);
            master.tick(cycle, &mut port);
            settled = cycle + 1;
            ticks += 1;
        }
        if holds.iter().any(|h| h.contains(&cycle)) {
            slave.respond(cycle, &mut port);
        } else {
            if !S::quiet(&port) {
                // The slave takes a held request: the edges not yet
                // charged saw it held.
                master.skip_ticks(cycle + 1 - settled, &port);
                settled = cycle + 1;
            }
            slave.tick(cycle, &mut port);
        }
        // Re-asked after the slave's half, which may free a channel.
        wake = if answered::<S>(&port) {
            cycle + 1
        } else {
            settled.saturating_add(master.idle_ticks(&port))
        };
        if master.done() {
            assert_eq!(master.idle_ticks(&port), u64::MAX, "drained is quiescent");
            return (master.log().records().to_vec(), ticks);
        }
    }
    panic!("{master} did not drain");
}

fn conforms<S: Socket>(
    make: impl Fn(Program) -> Agent<S>,
    streams: u16,
    order: fn(&CompletionLog) -> Result<(), OrderingViolation>,
) {
    let program = program(streams);
    let (dense, dense_ticks) = run(make(program.clone()), false, &[]);
    let name = make(vec![]).to_string();
    assert_eq!(
        dense.len(),
        program.len(),
        "{name}: every command completes"
    );

    let mut log = CompletionLog::new();
    dense.iter().for_each(|r| log.push(r.clone()));
    assert_eq!(order(&log), Ok(()), "{name}: ordering contract");

    // `skip_ticks(n)` is `n` dense no-op ticks, and `idle_ticks` never
    // promises a tick that would have done something.
    let (skipped, skipped_ticks) = run(make(program.clone()), true, &[]);
    assert_eq!(skipped, dense, "{name}: skipping idle ticks");
    assert!(skipped_ticks < dense_ticks, "{name}: skipping skips");

    // The same over a port the slave leaves held: the claim and the
    // charge both read the held channels.
    let (held, held_ticks) = run(make(program.clone()), false, &HOLDS);
    assert_ne!(held, dense, "{name}: the holds delay the program");
    let (held_skipped, held_skipped_ticks) = run(make(program.clone()), true, &HOLDS);
    assert_eq!(held_skipped, held, "{name}: skipping over a held port");
    assert!(
        held_ticks - held_skipped_ticks > dense_ticks - skipped_ticks,
        "{name}: a held port is slept through"
    );

    // `load_program` is `new`.
    let mut loaded = make(vec![]);
    loaded.load_program(program.clone());
    assert_eq!(run(loaded, false, &[]).0, dense, "{name}: load_program");
}

#[test]
fn every_socket_honours_the_shared_agent_contract() {
    conforms(AhbMaster::new, 1, check_ahb_order);
    conforms(|p| AxiMaster::new(p, 1, 3), 4, check_axi_order);
    conforms(|p| OcpMaster::new(p, 3, 2), 3, check_ocp_order);
    conforms(
        |p| VciMaster::new(p, VciFlavor::Peripheral, 1),
        1,
        check_ahb_order,
    );
    conforms(
        |p| VciMaster::new(p, VciFlavor::Basic, 2),
        1,
        check_ahb_order,
    );
    let avci = VciFlavor::Advanced { threads: 2 };
    conforms(|p| VciMaster::new(p, avci, 2), 2, check_ocp_order);
    // STRM orders its reads among themselves; a posted write completes at
    // accept, ahead of reads still in flight: AXI's per-direction rule.
    conforms(|p| StrmMaster::new(p, 2), 1, check_axi_order);
}
