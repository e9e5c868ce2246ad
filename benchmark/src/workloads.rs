//! The five workloads: seeded input generators.
//!
//! Each generator turns one SplitMix64 stream into a scenario (or sweep)
//! and serialises it with the repository's own emitter; the program under
//! test only ever sees the generated text, never the seed.

use noc_protocols::{Program, SocketCommand};
use noc_scenario::{
    Backend, BurstySpec, InitiatorSpec, MemorySpec, NocConfigSpec, ProgramSpec, ScenarioSpec,
    SocketSpec, StochasticShape, Sweep, TopologySpec, ZipfSpec,
};
use noc_topology::RouteAlgorithm;
use noc_transaction::{Opcode, StreamId};
use noc_workloads::{SetTop, SetTopConfig};

/// Input variants per workload, cycled round-robin by the measured loop.
pub const VARIANTS: u64 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MeshStorm,
    MeshSparseBuild,
    SettopBackends,
    HotspotWrites,
    ServeSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MeshStorm,
        Workload::MeshSparseBuild,
        Workload::SettopBackends,
        Workload::HotspotWrites,
        Workload::ServeSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshStorm => "mesh_storm",
            Workload::MeshSparseBuild => "mesh_sparse_build",
            Workload::SettopBackends => "settop_backends",
            Workload::HotspotWrites => "hotspot_writes",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MeshStorm => {
                "saturated 8x8 mesh of short reads: steps = cycles, so switch arbitration, \
                 links, NIUs and the step loop carry the op; build and horizon skipping do not"
            }
            Workload::MeshSparseBuild => {
                "idle 32x32 mesh: construction dominates and the stepping left is calendar \
                 skipping, so a build fix must show here and a switch speed-up must not"
            }
            Workload::SettopBackends => {
                "the paper's mixed-protocol set-top SoC on noc, bridged and bus: tiny fabric, \
                 so protocol front ends, NIU ordering and the baselines carry the time"
            }
            Workload::HotspotWrites => {
                "streamed 8-beat writes at a slow hot target on a 4x4 mesh: long request \
                 packets, blocked wormholes and feeder refill, the reverse of mesh_storm"
            }
            Workload::ServeSweep => {
                "one warm serve request for a 100-point sweep document on a 6x6 mesh: text \
                 parsing, checkpoint forks and JSON output with almost no stepping"
            }
        }
    }

    /// The backends one operation runs the scenario on.
    pub fn backends(self) -> Vec<Backend> {
        match self {
            Workload::SettopBackends => vec![Backend::noc(), Backend::bridged(), Backend::bus()],
            _ => vec![Backend::noc()],
        }
    }
}

/// Simulated-cycle budget of one run; far above what any workload needs.
pub const MAX_CYCLES: u64 = 5_000_000;

/// A generated input document.
pub enum Input {
    Scenario(ScenarioSpec),
    Sweep(Sweep),
}

impl Input {
    pub fn to_text(&self) -> String {
        match self {
            Input::Scenario(spec) => spec.to_text(),
            Input::Sweep(sweep) => sweep.to_text(),
        }
    }

    /// The scenarios one operation executes, in order (one per sweep point).
    pub fn scenarios(&self) -> Vec<&ScenarioSpec> {
        match self {
            Input::Scenario(spec) => vec![spec],
            Input::Sweep(sweep) => sweep.points().iter().map(|p| &p.spec).collect(),
        }
    }

    /// The scenario the layer probes run on: the input itself, or the
    /// first point of a sweep.
    pub fn representative(&self) -> &ScenarioSpec {
        self.scenarios()[0]
    }
}

/// SplitMix64, kept local so inputs cannot change under the benchmark
/// when the repository's own generator does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates variant `k` of `workload` for run seed `seed`. Every
/// (seed, variant) pair draws from its own stream.
pub fn generate(workload: Workload, seed: u64, variant: u64) -> Input {
    let mut rng = Rng::new(
        seed.wrapping_mul(VARIANTS)
            .wrapping_add(variant)
            .wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    match workload {
        Workload::MeshStorm => Input::Scenario(mesh_storm(&mut rng)),
        Workload::MeshSparseBuild => Input::Scenario(mesh_sparse_build(&mut rng)),
        Workload::SettopBackends => {
            Input::Scenario(SetTop::new(SetTopConfig::new(400, rng.next())).spec())
        }
        Workload::HotspotWrites => Input::Scenario(hotspot_writes(&mut rng)),
        Workload::ServeSweep => Input::Sweep(serve_sweep(&mut rng)),
    }
}

/// Commands the generators of `spec` declare; a drained run must
/// complete exactly this many.
pub fn declared_commands(spec: &ScenarioSpec) -> u64 {
    spec.initiators
        .iter()
        .map(|i| match &i.program {
            ProgramSpec::Explicit(p) => p.len(),
            ProgramSpec::Bursty(b) => b.commands,
            ProgramSpec::Zipf(z) => z.commands,
            ProgramSpec::Trace(_) => unreachable!("no workload replays a trace"),
        } as u64)
        .sum()
}

/// Share of declared commands that are writes.
pub fn write_share(spec: &ScenarioSpec) -> f64 {
    let writes: f64 = spec
        .initiators
        .iter()
        .map(|i| match &i.program {
            ProgramSpec::Explicit(p) => {
                p.iter().filter(|c| c.opcode != Opcode::Read).count() as f64
            }
            other => {
                let shape = other.shape().expect("stochastic kinds carry a shape");
                let commands = match other {
                    ProgramSpec::Bursty(b) => b.commands,
                    ProgramSpec::Zipf(z) => z.commands,
                    _ => unreachable!("explicit handled above, traces unused"),
                };
                commands as f64 * f64::from(100 - shape.read_pct) / 100.0
            }
        })
        .sum();
    writes / declared_commands(spec) as f64
}

const SLICE: u64 = 0x1_0000;

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

/// A `w` x `w` mesh with an AXI master on every even switch and a memory
/// slice on every odd one; `program(master_index)` supplies the traffic.
fn checkerboard_mesh(w: usize, mut program: impl FnMut(usize) -> Program) -> ScenarioSpec {
    let n = w * w;
    let masters: Vec<usize> = (0..n).filter(|s| s % 2 == 0).collect();
    let memories: Vec<usize> = (0..n).filter(|s| s % 2 == 1).collect();
    let mut spec = ScenarioSpec::new();
    for (m, &switch) in masters.iter().enumerate() {
        let socket = SocketSpec::Axi {
            tags: 4,
            per_id: 4,
            total: 8,
        };
        spec = spec.initiator(
            InitiatorSpec::new(&format!("m{switch}"), socket, program(m)).with_outstanding(8),
        );
    }
    for (k, &switch) in memories.iter().enumerate() {
        let base = k as u64 * SLICE;
        spec = spec
            .memory(MemorySpec::new(&format!("mem{switch}"), base, base + SLICE, 2).with_queue(8));
    }
    let placement = masters.iter().chain(memories.iter()).copied().collect();
    spec.with_topology(TopologySpec::Custom {
        switches: n,
        links: mesh_links(w, w),
        placement,
    })
    .with_routing(RouteAlgorithm::XyMesh {
        width: w,
        height: w,
    })
}

fn random_read(rng: &mut Rng, slices: u64, i: usize) -> SocketCommand {
    let addr = rng.below(slices) * SLICE + (rng.below(SLICE - 64) & !7);
    SocketCommand::read(addr, 8).with_stream(StreamId::new(i as u16 % 4))
}

/// 8x8 mesh, 32 masters x 400 back-to-back single-beat reads, uniform
/// over 32 memory slices.
fn mesh_storm(rng: &mut Rng) -> ScenarioSpec {
    checkerboard_mesh(8, |_| (0..400).map(|i| random_read(rng, 32, i)).collect())
}

/// 32x32 mesh with 2-stage pipelined links; 8 readers and 8 memories on
/// a 4x4 sub-grid stretched over it. Every reader issues 16 reads, two
/// to each memory, with the idle gaps 400, 436, .. 940 in a seeded
/// order: only 128 commands run, so targets and gaps are stratified to
/// keep simulated latency and drain time from swinging with the seed.
fn mesh_sparse_build(rng: &mut Rng) -> ScenarioSpec {
    const W: usize = 32;
    const REGION: u64 = 0x1000;
    let mut spec = ScenarioSpec::new();
    for m in 0..8 {
        let mut order: Vec<u64> = (0..16).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let first_target = rng.below(8);
        let program: Program = (0..16)
            .map(|i| {
                let target = (first_target + i) % 8;
                let addr = target * REGION + (rng.below(REGION - 64) & !7);
                SocketCommand::read(addr, 8)
                    .with_stream(StreamId::new(i as u16 % 4))
                    .with_delay(400 + order[i as usize] as u32 * 36)
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
            k * REGION,
            (k + 1) * REGION,
            2,
        ));
    }
    let scale = W / 4;
    let placement = (0..16)
        .map(|idx| (idx / 4) * scale * W + (idx % 4) * scale)
        .collect();
    spec.with_topology(TopologySpec::Custom {
        switches: W * W,
        links: mesh_links(W, W),
        placement,
    })
    .with_routing(RouteAlgorithm::XyMesh {
        width: W,
        height: W,
    })
    .with_config(NocConfigSpec::new().with_link_pipeline(2))
}

/// 4x4 mesh, 8 streamed generators of 1 500 commands each (4 Zipf-1.8
/// AXI with 8 outstanding, 4 bursty OCP), 90 % writes in 8-beat bursts,
/// 4 memories of which the first-declared (Zipf-hottest) is slow.
fn hotspot_writes(rng: &mut Rng) -> ScenarioSpec {
    let shape = |streams| StochasticShape {
        read_pct: 10,
        beats: 8,
        streams,
        gap: 1,
        ..StochasticShape::default()
    };
    let mut spec = ScenarioSpec::new();
    for i in 0..4 {
        let mut zipf = ZipfSpec::new(rng.next(), 1500, 1800);
        zipf.shape = shape(4);
        spec = spec.initiator(
            InitiatorSpec::new(&format!("zipf{i}"), SocketSpec::axi(), zipf).with_outstanding(8),
        );
    }
    for i in 0..4 {
        let mut bursty = BurstySpec::new(rng.next(), 1500, 8, 40);
        bursty.shape = shape(2);
        spec = spec.initiator(InitiatorSpec::new(
            &format!("bursty{i}"),
            SocketSpec::ocp(),
            bursty,
        ));
    }
    spec.memory(MemorySpec::new("hot", 0x0, 0x1000, 28).with_queue(8))
        .memory(MemorySpec::new("warm", 0x1000, 0x2000, 2).with_queue(4))
        .memory(MemorySpec::new("cool", 0x2000, 0x3000, 2).with_queue(4))
        .memory(MemorySpec::new("cold", 0x3000, 0x4000, 2).with_queue(4))
        .with_topology(TopologySpec::Mesh {
            width: 4,
            height: 4,
        })
}

/// A 100-point sweep on one 6x6 mesh platform: every point shares
/// topology, routing, sockets and memory map and differs only in its
/// one-read-per-master programs, so a warm server forks every point from
/// one cached checkpoint.
fn serve_sweep(rng: &mut Rng) -> Sweep {
    let platform = checkerboard_mesh(6, |_| Vec::new());
    Sweep::over(0..100, |k| {
        let mut spec = platform.clone();
        for ini in &mut spec.initiators {
            ini.program = vec![random_read(rng, 18, 0)].into();
        }
        (format!("p{k:02}"), spec, Backend::noc())
    })
    .with_max_cycles(1_000_000)
}
