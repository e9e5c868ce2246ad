//! Layer probes of the traced run: each layer is timed from outside,
//! through its public functions, on the workload's own inputs.
//!
//! Probes run under one `probe` root span, never inside an operation, so
//! they cannot inflate operation time. A probe that takes an input runs
//! on every variant; the metric is the median of its samples.
//!
//! `scenario.parse`/`emit` cover the whole input document. Every other
//! probe runs on the representative scenario: the input itself, or the
//! first point of a sweep document.

use crate::metrics::ratio;
use crate::op::execute;
use crate::trace::Tracer;
use crate::workloads::{declared_commands, write_share, Input, MAX_CYCLES};
use noc_kernel::Calendar;
use noc_niu::{decode_request, encode_request};
use noc_physical::Link;
use noc_scenario::{
    parse_document, Backend, Document, ProgramSpec, ScenarioSpec, StepMode, TopologySpec,
};
use noc_serve::{CheckpointCache, Request, ServeConfig};
use noc_topology::{Topology, TopologyBuilder};
use noc_transaction::{
    Burst, MstAddr, Opcode, OrderingPolicy, SlvAddr, StreamId, Tag, TransactionRequest,
};
use noc_transport::{Header, Packet, PortId, RoutingTable, Switch, SwitchConfig, SwitchTick};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;

/// Samples per metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Runs every probe; `variants` pairs each input with its emitted text.
pub fn run(variants: &[(Input, String)], t: &mut Tracer, s: &mut Samples) {
    t.span("probe", |t| {
        for (input, text) in variants {
            pipeline(input, text, t, s);
            topology(input.representative(), t, s);
            baselines(input.representative(), t, s);
            serve(text, t, s);
        }
        kernels(variants[0].0.representative(), t, s);
    });
}

/// The `scn FILE` pipeline on the NoC backend, one call per span.
fn pipeline(input: &Input, text: &str, t: &mut Tracer, s: &mut Samples) {
    let spec = input.representative();

    let (doc, ms) = t.timed("scenario.parse", |_| parse_document(text));
    let doc = doc.expect("the emitter's own output parses");
    s.push("scenario.parse_ms", ms);
    let mib = text.len() as f64 / (1024.0 * 1024.0);
    s.push("scenario.parse_mib_per_s", mib / (ms / 1e3));
    let (emitted, ms) = t.timed("scenario.emit", |_| match &doc {
        Document::Scenario(spec) => spec.to_text(),
        Document::Sweep(sweep) => sweep.to_text(),
    });
    assert_eq!(emitted, text, "emit(parse(text)) must reproduce the text");
    s.push("scenario.emit_ms", ms);

    let (valid, ms) = t.timed("scenario.validate", |_| spec.validate());
    valid.expect("generated scenarios validate");
    s.push("scenario.validate_ms", ms);
    let (programs, ms) = t.timed("scenario.programs", |_| spec.programs());
    s.push("scenario.programs_ms", ms);
    let (map, address_map_ms) = t.timed("transaction.address_map", |_| spec.address_map());
    black_box(map.expect("generated scenarios validate"));
    s.push("transaction.address_map_ms", address_map_ms);

    let switches = spec.topology.switch_count() as f64;
    let (sim, build_ms) = t.timed("scenario.build", |_| spec.build(&Backend::noc()));
    let mut sim = sim.expect("generated scenarios build");
    s.push("scenario.build_ms", build_ms);
    s.push("scenario.build_us_per_switch", build_ms * 1e3 / switches);

    // What a warm serve fork does per point: copy a program-less
    // checkpoint and load the point's programs into it.
    let mut stripped = spec.clone();
    for ini in &mut stripped.initiators {
        ini.program = ProgramSpec::default();
    }
    let platform = stripped
        .build(&Backend::noc())
        .expect("the stripped scenario builds");
    let (mut fork, ms) = t.timed("scenario.snapshot", |_| platform.snapshot());
    s.push("scenario.snapshot_ms", ms);
    let ((), ms) = t.timed("scenario.load_programs", |_| fork.load_programs(&programs));
    s.push("scenario.load_programs_ms", ms);

    let (drained, step_ms) = t.timed("scenario.step", |_| {
        sim.run_until_with(MAX_CYCLES, StepMode::Horizon)
    });
    assert!(drained, "the set-up check already drained this scenario");
    let (report, ms) = t.timed("scenario.report", |_| sim.report());
    s.push("scenario.report_ms", ms);

    let (steps, cycles) = (report.steps as f64, report.cycles as f64);
    let (polls, pops) = (report.horizon_polls as f64, report.calendar_pops as f64);
    s.push("scenario.step_ms", step_ms);
    s.push("scenario.step_ns_per_step", ratio(step_ms * 1e6, steps));
    s.push("scenario.steps", steps);
    s.push("scenario.cycles", cycles);
    s.push("scenario.skip_ratio", 1.0 - ratio(steps, cycles));
    s.push("scenario.horizon_polls", polls);
    s.push("scenario.calendar_pops", pops);
    s.push("kernel.pops_per_step", ratio(pops, steps));
    s.push("kernel.polls_per_pop", ratio(polls, pops));

    let fabric = report.fabric.expect("the NoC backend reports its fabric");
    let forwarded = fabric.flits_forwarded as f64;
    s.push("transport.flits_forwarded", forwarded);
    s.push(
        "transport.packets_forwarded",
        fabric.packets_forwarded as f64,
    );
    s.push("transport.credit_stalls", fabric.credit_stalls as f64);
    s.push(
        "transport.arbitration_conflicts",
        fabric.arbitration_conflicts as f64,
    );
    s.push("transport.lock_idle_cycles", fabric.lock_idle_cycles as f64);
    s.push(
        "transport.conflict_share",
        ratio(fabric.arbitration_conflicts as f64, forwarded),
    );
    s.push(
        "transport.credit_stall_share",
        ratio(fabric.credit_stalls as f64, forwarded),
    );
    s.push("physical.mean_link_latency_cy", fabric.mean_link_latency);
    s.push("system.request_flits", fabric.request_flits as f64);
    s.push("system.response_flits", fabric.response_flits as f64);
    s.push(
        "system.step_ns_per_flit_hop",
        ratio(step_ms * 1e6, forwarded),
    );
    s.push("protocols.commands_per_op", declared_commands(spec) as f64);
    s.push("protocols.write_share", write_share(spec));
}

/// The fabric `spec` declares, assembled the way its build does.
fn rebuild_topology(spec: &ScenarioSpec) -> Topology {
    let switches = spec.topology.switch_count();
    let mut builder = TopologyBuilder::new(switches);
    let placement: Vec<usize> = match &spec.topology {
        TopologySpec::Mesh { width, height } => {
            for y in 0..*height {
                for x in 0..*width {
                    let s = y * width + x;
                    if x + 1 < *width {
                        builder.connect_bidir(s, s + 1);
                    }
                    if y + 1 < *height {
                        builder.connect_bidir(s, s + width);
                    }
                }
            }
            (0..spec.num_endpoints()).map(|i| i % switches).collect()
        }
        TopologySpec::Custom {
            links, placement, ..
        } => {
            for &(a, z) in links {
                builder.connect_bidir(a, z);
            }
            placement.clone()
        }
        other => unreachable!("no workload declares {other:?}"),
    };
    for (node, switch) in placement.into_iter().enumerate() {
        builder
            .attach(node as u16, switch)
            .expect("generated placements are valid");
    }
    builder.build()
}

/// Topology construction, routing tables and the deadlock check, the
/// parts of `build` the topology crate owns.
fn topology(spec: &ScenarioSpec, t: &mut Tracer, s: &mut Samples) {
    let (topology, construct_ms) = t.timed("topology.construct", |_| rebuild_topology(spec));
    s.push("topology.construct_ms", construct_ms);
    let algorithm = spec
        .routing
        .unwrap_or_else(|| spec.topology.recommended_routing());
    let (tables, routes_ms) = t.timed("topology.routes", |_| topology.compute_routes(algorithm));
    let tables = tables.expect("generated fabrics are routable");
    s.push("topology.routes_ms", routes_ms);
    s.push(
        "topology.routes_us_per_switch",
        routes_ms * 1e3 / topology.num_switches() as f64,
    );
    let (report, ms) = t.timed("topology.deadlock_check", |_| {
        topology.deadlock_report(&tables)
    });
    assert!(report.is_deadlock_free(), "generated fabrics are safe");
    s.push("topology.deadlock_check_ms", ms);
}

/// The same scenario on the two baseline interconnects.
fn baselines(spec: &ScenarioSpec, t: &mut Tracer, s: &mut Samples) {
    for (backend, span, step, cycles, latency) in [
        (
            Backend::bridged(),
            "baseline.bridged",
            "baseline.bridged_step_ms",
            "baseline.bridged_cycles",
            "baseline.bridged_mean_latency_cy",
        ),
        (
            Backend::bus(),
            "baseline.bus",
            "baseline.bus_step_ms",
            "baseline.bus_cycles",
            "baseline.bus_mean_latency_cy",
        ),
    ] {
        let (report, ms) = t.timed(span, |_| {
            let mut sim = spec.build(&backend).expect("generated scenarios build");
            assert!(sim.run_until_with(MAX_CYCLES, StepMode::Horizon));
            sim.report()
        });
        s.push(step, ms);
        s.push(cycles, report.cycles as f64);
        s.push(latency, report.mean_latency());
    }
}

/// The input file served as one request: cold, warm, and warm with a
/// two-thread fan-out. A plain scenario file expands to one point per
/// backend; a sweep file runs as declared.
fn serve(text: &str, t: &mut Tracer, s: &mut Samples) {
    let (request, ms) = t.timed("serve.request_parse", |_| {
        Request::from_text("probe", "probe.scn", text)
    });
    let request = request.expect("the emitter's own output parses");
    s.push("serve.request_parse_ms", ms);

    let config = |threads| ServeConfig {
        threads: Some(threads),
        max_cycles: MAX_CYCLES,
        ..ServeConfig::default()
    };
    let cache = Mutex::new(CheckpointCache::new(8));
    let (cold, ms) = t.timed("serve.cold_execute", |_| {
        execute(&request, &config(1), &cache)
    });
    let (_, stats) = cold.expect("writing to memory cannot fail");
    assert_eq!(stats.points_failed, 0, "every served point drains");
    s.push("serve.cold_execute_ms", ms);

    let hits_before = cache.lock().expect("no probe panicked").hits();
    let (warm, ms) = t.timed("serve.execute", |_| execute(&request, &config(1), &cache));
    let (records, stats) = warm.expect("writing to memory cannot fail");
    let hits = cache.lock().expect("no probe panicked").hits() - hits_before;
    let points = (stats.points_ok + stats.points_failed) as f64;
    s.push("serve.execute_ms", ms);
    s.push("serve.point_us", ms * 1e3 / points);
    s.push("serve.cache_hit_share", ratio(hits as f64, points));
    s.push("serve.output_bytes", records.len() as f64);

    let (fanout, ms) = t.timed("serve.fanout2", |_| execute(&request, &config(2), &cache));
    fanout.expect("writing to memory cannot fail");
    s.push("serve.fanout2_ms", ms);
}

/// The burst shape of the scenario's first command: (beats, beat bytes).
fn burst_shape(spec: &ScenarioSpec) -> (u32, u32) {
    let program = &spec.initiators[0].program;
    match (program.shape(), program.explicit().and_then(|p| p.first())) {
        (Some(shape), _) => (shape.beats, shape.beat_bytes),
        (None, Some(cmd)) => (cmd.beats, cmd.beat_bytes),
        (None, None) => unreachable!("every generated master has commands"),
    }
}

/// Micro-kernels, sized from the scenario: calendar slot count, address
/// map and addresses, ordering model, burst and flit sizes, link class.
fn kernels(spec: &ScenarioSpec, t: &mut Tracer, s: &mut Samples) {
    const CALLS: usize = 100_000;
    let per_call = |ms: f64, calls: usize| ms * 1e6 / calls as f64;

    // Calendar: every slot reschedules, then the due ones pop.
    let slots = spec.topology.switch_count() + spec.num_endpoints();
    let mut calendar = Calendar::new();
    let ids: Vec<_> = (0..slots).map(|_| calendar.register()).collect();
    let rounds = (CALLS / slots).max(1);
    let ((), ms) = t.timed("kernel.calendar", |_| {
        for now in 0..rounds as u64 {
            for (k, id) in ids.iter().enumerate() {
                calendar.set(*id, Some(now + 1 + k as u64 % 7));
            }
            calendar.pop_due(now, |id| {
                black_box(id);
            });
        }
    });
    let operations = rounds * slots + calendar.pops() as usize;
    s.push("kernel.calendar_ns_per_op", per_call(ms, operations));

    // Address decode over the addresses the scenario issues (explicit
    // programs) or can issue (one per 64 bytes of every region).
    let map = spec.address_map().expect("generated scenarios validate");
    let mut addresses: Vec<u64> = spec
        .initiators
        .iter()
        .filter_map(|i| i.program.explicit())
        .flatten()
        .map(|c| c.addr)
        .collect();
    if addresses.is_empty() {
        for m in &spec.memories {
            addresses.extend((m.base..m.end).step_by(64));
        }
    }
    let ((), ms) = t.timed("transaction.decode", |_| {
        for addr in addresses.iter().cycle().take(CALLS) {
            black_box(map.decode(*addr).expect("mapped address"));
        }
    });
    s.push("transaction.decode_ns", per_call(ms, CALLS));

    // Ordering policy of the first master: issue and complete.
    let first = &spec.initiators[0];
    let model = first
        .ordering
        .unwrap_or_else(|| first.socket.default_ordering());
    let outstanding = first
        .outstanding
        .unwrap_or_else(|| first.socket.default_outstanding());
    let mut policy = OrderingPolicy::new(model, outstanding).expect("a valid NIU configuration");
    let streams = u16::from(model.tag_count());
    let (issued, ms) = t.timed("transaction.ordering", |_| {
        let mut issued = 0usize;
        for i in 0..CALLS {
            let stream = StreamId::new(i as u16 % streams);
            if let Ok(tag) = policy.try_issue(stream, SlvAddr::new(i as u16 % 4)) {
                policy.complete(tag).expect("the tag was just issued");
                issued += 1;
            }
        }
        issued
    });
    s.push("transaction.ordering_ns_per_txn", per_call(ms, issued));

    // NIU codec and packetisation at the scenario's burst and flit size.
    let (beats, beat_bytes) = burst_shape(spec);
    let payload = (beats * beat_bytes) as usize;
    let flit_bytes = first.flit_bytes.unwrap_or(8);
    let request = TransactionRequest::builder(Opcode::Write)
        .address(0x1200)
        .burst(Burst::incr(beats, beat_bytes).expect("a valid burst"))
        .source(MstAddr::new(1))
        .destination(SlvAddr::new(2))
        .tag(Tag::new(0))
        .data(vec![0xAB; payload])
        .build()
        .expect("a valid request");
    let reps = CALLS / 10;
    let ((), ms) = t.timed("niu.codec", |_| {
        for _ in 0..reps {
            let packet = encode_request(black_box(&request));
            black_box(decode_request(&packet).expect("round trip"));
        }
    });
    s.push("niu.codec_ns_per_req", per_call(ms, reps));

    let packet = Packet::new(Header::request(1, 2, 3), vec![0xCD; payload]);
    let ((), ms) = t.timed("transport.to_flits", |_| {
        for _ in 0..reps {
            black_box(packet.to_flits(black_box(flit_bytes)));
        }
    });
    s.push("transport.to_flits_ns_per_pkt", per_call(ms, reps));
    let flits = packet.to_flits(flit_bytes);
    let ((), ms) = t.timed("transport.reassemble", |_| {
        for _ in 0..reps {
            black_box(Packet::from_flits(black_box(&flits)).expect("complete packet"));
        }
    });
    s.push("transport.reassemble_ns_per_pkt", per_call(ms, reps));

    // A 5x5 wormhole switch with every input loaded.
    let mut table = RoutingTable::new(8);
    for d in 0..8 {
        table.set(d, PortId((d % 5) as u8));
    }
    let mut tick = SwitchTick::default();
    const TICKS: usize = 40;
    let loads = reps / TICKS;
    let ((), ms) = t.timed("transport.switch_tick", |_| {
        for _ in 0..loads {
            let mut switch = Switch::new(SwitchConfig::wormhole(5, 5), table.clone());
            for o in 0..5 {
                switch.set_output_credits(o, 1000);
            }
            for i in 0..5u16 {
                let packet = Packet::new(Header::request(i % 8, i, 0), vec![0; payload]);
                for flit in packet.to_flits_with_id(flit_bytes, u64::from(i)) {
                    switch.accept(i as usize, flit);
                }
            }
            for _ in 0..TICKS {
                switch.tick_into(&mut tick);
                black_box(tick.sent.len());
            }
        }
    });
    s.push("transport.switch_tick_ns", per_call(ms, loads * TICKS));

    // One link of the scenario's switch-to-switch class.
    let Backend::Noc(defaults) = Backend::noc() else {
        unreachable!("Backend::noc() is the NoC backend");
    };
    let link_config = spec
        .config
        .as_ref()
        .map_or(defaults, |c| c.apply(defaults))
        .link;
    let mut link = Link::<u64>::new(link_config);
    let (delivered, ms) = t.timed("physical.link", |_| {
        let mut delivered = 0usize;
        for now in 0..CALLS as u64 {
            let _ = link.send(now, now);
            delivered += usize::from(link.deliver(now).is_some());
        }
        delivered
    });
    s.push("physical.link_ns_per_flit", per_call(ms, delivered));
}
