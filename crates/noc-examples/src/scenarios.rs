//! The builders of the `tests/scenarios/` corpus: `gen_scenarios`
//! serializes each into its file, and the paper's experiments are those
//! files — `scn FILE` prints their tables.

use noc_protocols::{Program, SocketCommand};
use noc_scenario::{
    Backend, BurstySpec, InitiatorSpec, MemorySpec, NocConfigSpec, ScenarioSpec, SocketSpec,
    StepMode, Sweep, SweepPoint, TopologySpec, TraceSpec, ZipfSpec,
};
use noc_topology::RouteAlgorithm;
use noc_transaction::{BurstKind, Opcode, StreamId};
use noc_workloads::{SetTop, SetTopConfig};

/// Three streaming classes with the given pressures hammering one
/// hotspot target.
pub fn qos_spec(pressures: [u8; 3]) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new();
    for (node, pressure) in pressures.into_iter().enumerate() {
        let program: Program = (0..40)
            .map(|i| {
                SocketCommand::read(0x1000 * (node as u64 + 1) + i * 64, 8)
                    .with_burst(BurstKind::Incr, 8)
                    .with_pressure(pressure)
            })
            .collect();
        spec = spec.initiator(
            InitiatorSpec::new(&format!("class{node}"), SocketSpec::strm(), program)
                .with_outstanding(4),
        );
    }
    spec.memory(MemorySpec::new("mem", 0x0, 0x10_0000, 4))
}

/// `qos_classes.scn`: transport-layer QoS under hotspot congestion, the
/// three classes at equal pressure (`0/0/0`) and differentiated
/// (`3/1/0`).
pub fn qos_sweep() -> Sweep {
    Sweep::over([[0, 0, 0], [3, 1, 0]], |p: [u8; 3]| {
        let label = format!("{}/{}/{}", p[0], p[1], p[2]);
        (label, qos_spec(p), Backend::noc())
    })
    .with_max_cycles(2_000_000)
}

/// `layering_settop.scn`: paper §1, transport and physical choices are
/// invisible at the transaction layer — the Fig-1 set-top SoC at full
/// link width, on half-width links, on 3-stage pipelined links and with
/// 32-flit switch buffers, each point one `[config]` section.
pub fn layering_sweep() -> Sweep {
    let spec = SetTop::new(SetTopConfig::new(24, 777)).spec();
    let mut half_width = NocConfigSpec::new();
    half_width.link.phits = Some(2);
    let configs = [
        ("full_width", None),
        ("half_width", Some(half_width)),
        (
            "pipelined_3",
            Some(NocConfigSpec::new().with_link_pipeline(3)),
        ),
        (
            "buffers_32",
            Some(NocConfigSpec::new().with_buffer_depth(32)),
        ),
    ];
    Sweep::over(configs, |(label, config)| {
        let spec = ScenarioSpec {
            config,
            ..spec.clone()
        };
        (label.to_owned(), spec, Backend::noc())
    })
}

fn ordering_workload(n: usize) -> Program {
    (0..n)
        .map(|i| {
            let addr = if i % 2 == 0 { 0x1000 } else { 0x0 } + (i as u64 * 4) % 0x800;
            SocketCommand::read(addr, 4).with_stream(StreamId::new(i as u16 % 4))
        })
        .collect()
}

/// One `ordering_sweep.scn` point: an AXI master with the given
/// outstanding budget against a fast and a slow target.
pub fn ordering_spec(outstanding: u32) -> ScenarioSpec {
    ScenarioSpec::new()
        .initiator(
            InitiatorSpec::new(
                "axi",
                SocketSpec::Axi {
                    tags: 4,
                    per_id: outstanding,
                    total: outstanding,
                },
                ordering_workload(48),
            )
            .with_outstanding(outstanding),
        )
        .memory(MemorySpec::new("fast", 0x0, 0x1000, 1))
        .memory(MemorySpec::new("slow", 0x1000, 0x2000, 30))
}

/// `ordering_sweep.scn`: paper §3, outstanding capacity trades NIU
/// gates for cycles. The first (reference) point carries a dense step
/// override, exercising the per-point [`StepMode`] mix in one grid.
pub fn ordering_sweep() -> Sweep {
    let mut sweep = Sweep::new().with_max_cycles(2_000_000);
    for outstanding in [1u32, 2, 4, 8, 16] {
        let mut point = SweepPoint::new(
            &outstanding.to_string(),
            ordering_spec(outstanding),
            Backend::noc(),
        );
        if outstanding == 1 {
            point = point.with_step(StepMode::Dense);
        }
        sweep = sweep.with_point(point);
    }
    sweep
}

const SLICE: u64 = 0x1_0000;

/// One `scale_mesh.scn` point: a `w` x `w` mesh with AXI masters on even
/// switches, memory slices on odd switches, and uniform random reads.
pub fn scale_mesh_spec(w: usize, commands: usize) -> ScenarioSpec {
    let n = w * w;
    let masters: Vec<usize> = (0..n).filter(|s| s % 2 == 0).collect();
    let memories: Vec<usize> = (0..n).filter(|s| s % 2 == 1).collect();
    let mut spec = ScenarioSpec::new();
    for &switch in &masters {
        // uniform random reads over all slices, seeded per master switch
        let program: Program = (0..commands)
            .map(|i| {
                let mut x = (switch as u64) << 32 | i as u64;
                x ^= x >> 12;
                x = x.wrapping_mul(0x2545F4914F6CDD1D);
                x ^= x >> 27;
                let slice_idx = x % memories.len() as u64;
                let addr = slice_idx * SLICE + (x >> 8) % (SLICE - 64);
                SocketCommand::read(addr & !7, 8).with_stream(StreamId::new(i as u16 % 4))
            })
            .collect();
        spec = spec.initiator(
            InitiatorSpec::new(
                &format!("m{switch}"),
                SocketSpec::Axi {
                    tags: 4,
                    per_id: 4,
                    total: 8,
                },
                program,
            )
            .with_outstanding(8),
        );
    }
    for (k, &switch) in memories.iter().enumerate() {
        spec = spec.memory(
            MemorySpec::new(
                &format!("mem{switch}"),
                k as u64 * SLICE,
                (k as u64 + 1) * SLICE,
                2,
            )
            .with_queue(8),
        );
    }
    // Row-major mesh links; masters first then memories, each on its own
    // switch, so XY routing stays deadlock-free.
    let placement: Vec<usize> = masters.iter().chain(memories.iter()).copied().collect();
    let links = mesh_links(w, w);
    spec.with_topology(TopologySpec::Custom {
        switches: n,
        links,
        placement,
    })
    .with_routing(RouteAlgorithm::XyMesh {
        width: w,
        height: w,
    })
}

fn mesh_links(width: usize, height: usize) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for y in 0..height {
        for x in 0..width {
            let s = y * width + x;
            if x + 1 < width {
                links.push((s, s + 1));
            }
            if y + 1 < height {
                links.push((s, s + width));
            }
        }
    }
    links
}

/// A sparse `w` x `w` mesh (`w` a multiple of 4): a *fixed* population
/// of 8 AXI readers issuing 16 commands each at a low injection rate
/// (long inter-command gaps) and 8 single-slice memories, spread evenly
/// over the mesh — the 16 endpoints sit at the positions of a 4x4
/// sub-grid scaled up by `w/4`, so growing `w` stretches the routes and
/// multiplies the idle switches without adding traffic. That is exactly
/// what the `step_mode` bench group's `mesh_*_sparse` rows measure:
/// wakeup stepping must make per-cycle cost track the (constant)
/// traffic, not the (growing) fabric. The 8x8/16x16 instances are
/// serialized into the corpus as `mesh_8x8_sparse.scn` /
/// `mesh_16x16_sparse.scn`; `sparse_mesh_spec(4)` is exactly the
/// historical `mesh_4x4_sparse` bench workload.
pub fn sparse_mesh_spec(w: usize) -> ScenarioSpec {
    assert!(
        w >= 4 && w.is_multiple_of(4),
        "sparse mesh widths are multiples of 4"
    );
    let mut spec = ScenarioSpec::new();
    for m in 0..8u64 {
        let program: Program = (0..16)
            .map(|i| {
                let addr = m * 0x1000 + i as u64 * 0x40;
                SocketCommand::read(addr, 8)
                    .with_stream(StreamId::new(i as u16 % 4))
                    .with_delay(400 + (i as u32 % 5) * 137)
            })
            .collect();
        spec = spec.initiator(InitiatorSpec::new(
            &format!("m{m}"),
            SocketSpec::axi(),
            program,
        ));
    }
    for k in 0..8u64 {
        spec = spec.memory(MemorySpec::new(
            &format!("mem{k}"),
            k * 0x1000,
            (k + 1) * 0x1000,
            2,
        ));
    }
    if w == 4 {
        // 16 endpoints on 16 switches: the default mesh placement
        // (endpoint i on switch i) already is the scaled sub-grid.
        return spec.with_topology(TopologySpec::Mesh {
            width: w,
            height: w,
        });
    }
    let scale = w / 4;
    let placement: Vec<usize> = (0..16)
        .map(|idx| (idx / 4) * scale * w + (idx % 4) * scale)
        .collect();
    spec.with_topology(TopologySpec::Custom {
        switches: w * w,
        links: mesh_links(w, w),
        placement,
    })
    .with_routing(RouteAlgorithm::XyMesh {
        width: w,
        height: w,
    })
}

/// The 32x32 instance of [`sparse_mesh_spec`], serialized into the
/// corpus as `mesh_32x32_sparse.scn` — the big-fabric build-cost
/// scenario: 1024 switches joined by 2-stage pipelined links, almost
/// all of them idle, so construction dominates the run and what
/// stepping remains is calendar skipping.
pub fn sparse_mesh_32_spec() -> ScenarioSpec {
    sparse_mesh_spec(32).with_config(NocConfigSpec::new().with_link_pipeline(2))
}

/// `scale_mesh.scn`: transport-layer scalability, the mesh-size sweep
/// over the given widths under uniform random traffic.
pub fn scale_sweep(widths: &[usize], commands: usize) -> Sweep {
    Sweep::over(widths.iter().copied(), |w| {
        (
            format!("{w}x{w}"),
            scale_mesh_spec(w, commands),
            Backend::noc(),
        )
    })
    .with_max_cycles(20_000_000)
}

/// A prefix-sharing sweep for the serve layer: every point reuses one
/// `w` x `w` mesh platform — identical topology, routing, socket shapes
/// and memory map — and varies only the traffic programs. A warm
/// `scn serve` process builds the platform once and forks every further
/// point from the checkpoint cache; a one-shot runner rebuilds it per
/// point.
pub fn serve_sweep(w: usize, points: usize) -> Sweep {
    let platform = scale_mesh_spec(w, 1);
    let slices = (w * w) / 2;
    Sweep::over(0..points, |k| {
        let mut spec = platform.clone();
        for (m, ini) in spec.initiators.iter_mut().enumerate() {
            ini.program = serve_point_program(k, m, slices).into();
        }
        (format!("p{k:02}"), spec, Backend::noc())
    })
    .with_max_cycles(1_000_000)
}

/// A tiny per-point program (one read), varied by point and master so
/// every sweep cell is distinct traffic on the shared platform while
/// platform construction stays the dominant per-point cost.
fn serve_point_program(point: usize, master: usize, slices: usize) -> Program {
    let mut x = ((point as u64) << 40) ^ ((master as u64) << 20) ^ 1;
    x ^= x >> 12;
    x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    x ^= x >> 27;
    let addr = x % (slices as u64 * SLICE - 64);
    vec![SocketCommand::read(addr & !7, 8)]
}

/// A mixed-clock scenario on a 2x2 mesh: three sockets and two memories
/// on divided clocks (NoC backend only — the baselines reject divided
/// clocks by design).
pub fn clocked_mixed_spec() -> ScenarioSpec {
    let cpu: Program = (0..10)
        .map(|i| {
            if i % 3 == 0 {
                SocketCommand::write(0x40 * i, 4, 0xC0FE + i).with_delay(2)
            } else {
                SocketCommand::read(0x40 * i, 4)
            }
        })
        .collect();
    let video: Program = (0..8)
        .map(|i| {
            SocketCommand::read(0x1000 + 0x80 * i, 4)
                .with_burst(BurstKind::Incr, 4)
                .with_stream(StreamId::new(i as u16 % 2))
        })
        .collect();
    let sensor: Program = (0..6)
        .map(|i| SocketCommand::write(0x400 + 0x20 * i, 4, 0x5E + i).with_delay(5))
        .collect();
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, cpu).with_flit_bytes(8))
        .initiator(
            InitiatorSpec::new("video", SocketSpec::ocp(), video)
                .with_ordering(noc_transaction::OrderingModel::IdBased { tags: 4 })
                .with_outstanding(4)
                .with_clock_divisor(2),
        )
        .initiator(
            InitiatorSpec::new("sensor", SocketSpec::strm(), sensor)
                .with_pressure(2)
                .with_clock_divisor(3),
        )
        .memory(MemorySpec::new("m0", 0x0, 0x1000, 2))
        .memory(MemorySpec::new("m1", 0x1000, 0x2000, 4).with_clock_divisor(2))
        .with_topology(TopologySpec::Mesh {
            width: 2,
            height: 2,
        })
}

/// `services.scn`: three socket protocols driving all
/// three declarative target kinds — a plain memory, an AXI-slave DRAM
/// controller with banked latency, and a register/service block with a
/// slow write path. Every initiator owns private sub-ranges of every
/// target, so the completion data is interconnect-independent and the
/// spec runs on all three backends.
pub fn services_spec() -> ScenarioSpec {
    let cpu: Program = (0..8)
        .flat_map(|i| {
            vec![
                SocketCommand::write(0x100 + 0x40 * i, 4, 0xCAFE + i),
                SocketCommand::read(0x100 + 0x40 * i, 4),
                SocketCommand::read(0x4100 + 0x40 * i, 4).with_burst(BurstKind::Incr, 2),
            ]
        })
        .collect();
    let dma: Program = (0..10)
        .map(|i| {
            SocketCommand::read(0x5000 + 0x100 * i, 8)
                .with_burst(BurstKind::Wrap, 4)
                .with_stream(StreamId::new(i as u16 % 4))
        })
        .chain((0..6).map(|i| {
            SocketCommand::write(0x1000 + 0x40 * i, 8, 0xD0A0 + i)
                .with_burst(BurstKind::Incr, 2)
                .with_stream(StreamId::new(i as u16 % 4))
        }))
        .collect();
    let ctl: Program = (0..10)
        .flat_map(|i| {
            vec![
                SocketCommand::write(0x8100 + 0x20 * i, 4, 0xC2 + i).with_delay(6),
                SocketCommand::read(0x8100 + 0x20 * i, 4),
            ]
        })
        .collect();
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, cpu))
        .initiator(
            InitiatorSpec::new(
                "dma",
                SocketSpec::Axi {
                    tags: 4,
                    per_id: 2,
                    total: 4,
                },
                dma,
            )
            .with_outstanding(4),
        )
        .initiator(InitiatorSpec::new("ctl", SocketSpec::bvci(), ctl))
        .memory(MemorySpec::new("ram", 0x0, 0x4000, 2))
        .memory(MemorySpec::axi_slave("dram", 0x4000, 0x8000, 6, 2))
        .memory(MemorySpec::service("regs", 0x8000, 0x9000, 1, 3))
}

/// Semaphore address of the `exclusive_locks.scn` schemes.
const SEM: u64 = 0x40;

/// One `exclusive_locks.scn` point: a synchronising master running the
/// given scheme against a declarative semaphore service block, with a
/// bystander hammering a separate memory through the same fabric.
///
/// The semaphore is a `service` target with the `exclusive` flag — the
/// declarative form of the paper's §3 target: the NoC backend handles
/// the exclusive pair in NIU state, the bridged crossbar in its central
/// monitor, and the bus backend rejects the spec with the typed
/// [`noc_scenario::ScenarioError::UnsupportedTarget`] (its exclusive
/// arbitration cannot be delegated to a target-owned port).
pub fn exclusive_scheme_spec(scheme: &str) -> ScenarioSpec {
    let sync: Program = match scheme {
        "idle" => Vec::new(),
        "exclusive" => (0..12)
            .flat_map(|_| {
                vec![
                    SocketCommand::read(SEM, 4).with_opcode(Opcode::ReadExclusive),
                    SocketCommand::write(SEM, 4, 1).with_opcode(Opcode::WriteExclusive),
                ]
            })
            .collect(),
        "locked" => (0..12)
            .flat_map(|_| {
                vec![
                    SocketCommand::read(SEM, 4).with_opcode(Opcode::ReadLocked),
                    SocketCommand::write(SEM, 4, 1)
                        .with_opcode(Opcode::WriteUnlock)
                        .with_delay(40),
                ]
            })
            .collect(),
        other => panic!("unknown exclusive scheme {other:?}"),
    };
    let bystander: Program = (0..40)
        .map(|i| SocketCommand::read(0x1000 + i * 16, 4))
        .collect();
    // One shared target: the synchronisation scheme and the bystander
    // traffic meet at the same node, so READEX/LOCK path pinning (and
    // the target-side lock arbiter) is visible in bystander latency —
    // the paper's §3 comparison, now declared instead of hand-built.
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("sync", SocketSpec::Ahb, sync))
        .initiator(InitiatorSpec::new("bystander", SocketSpec::Ahb, bystander))
        .memory(
            MemorySpec::service("sem", 0x0, 0x2000, 2, 2)
                .with_exclusive()
                .with_queue(8),
        )
}

/// `exclusive_locks.scn`, paper §3: bystander latency and fabric
/// lock-idle cycles under an idle, exclusive-access and READEX/LOCK
/// neighbour (NoC backend — the experiment reads fabric counters).
pub fn exclusive_sweep() -> Sweep {
    Sweep::over(["idle", "exclusive", "locked"], |scheme| {
        (
            scheme.to_string(),
            exclusive_scheme_spec(scheme),
            Backend::noc(),
        )
    })
    .with_max_cycles(2_000_000)
}

/// The deep-pipeline scenario: a 2x2 mesh whose links carry 16 pipeline
/// register stages (declared in the `[config]` section, so the physical
/// shape lives in the `.scn` file), slow memories, and masters that
/// issue back-to-back — traffic is in flight on almost every cycle.
///
/// This is the workload the event-horizon machinery exists for: dense
/// stepping pays every one of those cycles, while per-layer
/// `next_event_at` horizons jump through the link crossings and memory
/// service windows. The step-collapse acceptance test pins a ≥ 3x
/// executed-step ratio on the NoC *and* bridged backends (the bridged
/// pipeline skips through its `eligible_at`/`busy_until`/`respond_at`
/// stamps), so clocks stay undivided to keep the spec portable to the
/// baselines.
pub fn deep_pipeline_spec() -> ScenarioSpec {
    let cpu: Program = (0..12)
        .flat_map(|i| {
            vec![
                SocketCommand::write(0x100 + 0x40 * i, 4, 0xDEE9 + i),
                SocketCommand::read(0x100 + 0x40 * i, 4),
                SocketCommand::read(0x1100 + 0x40 * i, 4).with_burst(BurstKind::Incr, 2),
            ]
        })
        .collect();
    // Single outstanding on purpose: a second thread would park a
    // request at the (1-deep) bridge and pin the master's front end
    // hot, forcing dense stepping for the whole run.
    let dma: Program = (0..16)
        .map(|i| {
            SocketCommand::read(0x1800 + 0x20 * i, 4)
                .with_burst(BurstKind::Incr, 2)
                .with_delay(6)
        })
        .collect();
    let mut config = NocConfigSpec::new()
        .with_link_pipeline(16)
        .with_link_capacity(32);
    // Endpoint attachments are short wires next to the switch; the long
    // pipelined crossings are the inter-switch links.
    config.endpoint.pipeline = Some(2);
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, cpu))
        .initiator(
            InitiatorSpec::new(
                "dma",
                SocketSpec::Ocp {
                    threads: 1,
                    per_thread: 1,
                },
                dma,
            )
            .with_outstanding(2),
        )
        .memory(MemorySpec::new("m0", 0x0, 0x1000, 12))
        .memory(MemorySpec::new("m1", 0x1000, 0x2000, 12))
        .with_topology(TopologySpec::Mesh {
            width: 2,
            height: 2,
        })
        .with_config(config)
}

/// A ring-topology scenario with VCI/AXI masters and no divided clocks,
/// so it runs on all three backends.
pub fn ring_mixed_spec() -> ScenarioSpec {
    let dsp: Program = (0..12)
        .map(|i| {
            if i % 4 == 0 {
                SocketCommand::write(0x20 * i, 4, 0xD5 + i)
            } else {
                SocketCommand::read(0x20 * i, 4).with_burst(BurstKind::Incr, 2)
            }
        })
        .collect();
    let dma: Program = (0..10)
        .map(|i| {
            SocketCommand::read(0x800 + 0x40 * i, 8)
                .with_burst(BurstKind::Wrap, 4)
                .with_stream(StreamId::new(i as u16 % 4))
        })
        .collect();
    let ctl: Program = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                SocketCommand::write(0x700 + 8 * i, 4, 0xC7 + i)
            } else {
                SocketCommand::read(0x700 + 8 * i, 4).with_delay(4)
            }
        })
        .collect();
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("dsp", SocketSpec::bvci(), dsp))
        .initiator(
            InitiatorSpec::new(
                "dma",
                SocketSpec::Axi {
                    tags: 4,
                    per_id: 2,
                    total: 4,
                },
                dma,
            )
            .with_outstanding(4),
        )
        .initiator(InitiatorSpec::new("ctl", SocketSpec::pvci(), ctl))
        .memory(MemorySpec::new("lo", 0x0, 0x800, 1).with_queue(4))
        .memory(MemorySpec::new("hi", 0x800, 0x1000, 3))
        .with_topology(TopologySpec::Ring { switches: 3 })
}

/// The bursty-storm corpus scenario: three multi-stream sockets firing
/// seeded on/off bursts at a shared memory map. Long idle gaps between
/// bursts give the event horizons real dead time to skip, and the
/// generators make the file a standing regression test for seeded
/// stochastic determinism across backends and step modes.
pub fn bursty_storm_spec() -> ScenarioSpec {
    let mut dsp = BurstySpec::new(0xB00B57, 120, 6, 40);
    dsp.shape.streams = 2;
    dsp.shape.gap = 1;
    let mut dma = BurstySpec::new(0xD1157, 140, 8, 64);
    dma.shape.streams = 4;
    dma.shape.read_pct = 40;
    dma.shape.beats = 8;
    let mut cpu = BurstySpec::new(0xC0FFEE, 90, 3, 48);
    cpu.shape.beats = 2;
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new("dsp", SocketSpec::ocp(), dsp))
        .initiator(InitiatorSpec::new("dma", SocketSpec::axi(), dma).with_outstanding(8))
        .initiator(InitiatorSpec::new("cpu", SocketSpec::Ahb, cpu))
        .memory(MemorySpec::new("dram", 0x0, 0x4000, 6).with_queue(4))
        .memory(MemorySpec::new("sram", 0x4000, 0x6000, 2).with_queue(2))
        .memory(MemorySpec::new("mmio", 0x6000, 0x7000, 4).with_queue(2))
}

/// The hotspot-storm corpus scenario: six blocking AHB initiators whose
/// Zipf target pick concentrates ~three quarters of the traffic on a
/// slow first-declared memory. Blocking masters keep each request's
/// latency attributable to its own target (no per-thread response
/// chaining), so the hot target's service+queue wait shows up as a
/// clean per-target latency spread (the corpus test gates it at 2x).
pub fn zipf_hotspot_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new();
    for (i, seed) in [0x21F0u64, 0x21F1, 0x21F2, 0x21F3, 0x21F4, 0x21F5]
        .into_iter()
        .enumerate()
    {
        let mut z = ZipfSpec::new(seed, 150, 2200);
        z.shape.gap = 1;
        spec = spec.initiator(InitiatorSpec::new(&format!("gen{i}"), SocketSpec::Ahb, z));
    }
    spec.memory(MemorySpec::new("hot", 0x0, 0x1000, 28).with_queue(8))
        .memory(MemorySpec::new("warm", 0x1000, 0x2000, 2).with_queue(4))
        .memory(MemorySpec::new("cool", 0x2000, 0x3000, 2).with_queue(4))
        .memory(MemorySpec::new("cold", 0x3000, 0x4000, 2).with_queue(4))
}

/// The hotspot storm on a 16x16 mesh. Eight Zipf generators and four
/// memories keep the default round-robin placement, which parks all
/// twelve endpoints on switches 0..11 of a 256-switch fabric: a small
/// congested corner of a large, otherwise idle mesh.
pub fn zipf_hotspot_mesh16_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new();
    for (i, seed) in [
        0x16F0u64, 0x16F1, 0x16F2, 0x16F3, 0x16F4, 0x16F5, 0x16F6, 0x16F7,
    ]
    .into_iter()
    .enumerate()
    {
        let mut z = ZipfSpec::new(seed, 150, 2200);
        z.shape.gap = 1;
        spec = spec.initiator(InitiatorSpec::new(&format!("gen{i}"), SocketSpec::Ahb, z));
    }
    spec.memory(MemorySpec::new("hot", 0x0, 0x1000, 28).with_queue(8))
        .memory(MemorySpec::new("warm", 0x1000, 0x2000, 2).with_queue(4))
        .memory(MemorySpec::new("cool", 0x2000, 0x3000, 2).with_queue(4))
        .memory(MemorySpec::new("cold", 0x3000, 0x4000, 2).with_queue(4))
        .with_topology(TopologySpec::Mesh {
            width: 16,
            height: 16,
        })
}

/// The trace-replay corpus scenario: an OCP initiator replaying the
/// checked-in `trace_replay.trace` (written by `gen_scenarios` next to
/// the `.scn` file) alongside an explicit AHB control master. The trace
/// path is relative to the `.scn` file: the spec is meant for emission,
/// and the emitted file's records are read when it is resolved against
/// its directory.
pub fn trace_replay_spec() -> ScenarioSpec {
    let ctl: Program = (0..10)
        .map(|i| {
            if i % 2 == 0 {
                SocketCommand::write(0x2000 + 0x20 * i, 4, 0x7E + i)
            } else {
                SocketCommand::read(0x2000 + 0x20 * i, 4).with_delay(16)
            }
        })
        .collect();
    ScenarioSpec::new()
        .initiator(InitiatorSpec::new(
            "replay",
            SocketSpec::ocp(),
            TraceSpec::load("trace_replay.trace"),
        ))
        .initiator(InitiatorSpec::new("ctl", SocketSpec::Ahb, ctl))
        .memory(MemorySpec::new("dram", 0x0, 0x2000, 5).with_queue(4))
        .memory(MemorySpec::new("mmio", 0x2000, 0x3000, 2).with_queue(2))
}

/// The companion trace for [`trace_replay_spec`]: 200 seeded records on
/// 2 OCP threads, bursts of back-to-back commands separated by long
/// idle stretches (dead time for the horizon machinery).
pub fn trace_replay_trace() -> String {
    let mut rng = noc_kernel::SplitMix64::new(0x7124CE);
    let mut out = String::from(
        "# trace_replay.trace -- written by `cargo run -p noc-examples --bin gen_scenarios`\n\
         # format: cycle op addr beats beat_bytes [stream]\n",
    );
    let mut cycle = 0u64;
    for i in 0..200u64 {
        if i > 0 {
            // A new burst every 8 records; bursts are back-to-back.
            cycle += if i % 8 == 0 {
                60 + rng.next_below(80)
            } else {
                rng.next_below(3)
            };
        }
        let op = if rng.chance(0.7) { "read" } else { "write" };
        let addr = rng.next_below(0x1F0) * 0x10;
        let beats = [1u64, 2, 4][rng.next_below(3) as usize];
        let stream = i % 2;
        out.push_str(&format!("{cycle} {op} {addr:#x} {beats} 4 {stream}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    /// What `scn serve` exists for: one warm request for a 100-point
    /// prefix-sharing sweep compiles the platform once and forks the
    /// other 99 points from the checkpoint.
    #[test]
    fn a_warm_100_point_request_builds_the_platform_exactly_once() {
        let text = super::serve_sweep(6, 100).to_text();
        let request =
            noc_serve::Request::from_text("warm", "warm.scn", &text).expect("emitter output");
        let cache = std::sync::Mutex::new(noc_serve::CheckpointCache::new(8));
        let config = noc_serve::ServeConfig {
            threads: Some(1),
            ..noc_serve::ServeConfig::default()
        };
        let (mut records, mut stats) = (Vec::new(), noc_serve::ServeStats::default());
        noc_serve::server::execute_request(&request, &config, &cache, &mut records, &mut stats)
            .expect("writes to a Vec");
        assert_eq!((stats.points_ok, stats.points_failed), (100, 0));
        assert_eq!(cache.lock().expect("no panic above").misses(), 1);
    }
}
