//! Micro-benchmarks: simulator performance for each subsystem behind the
//! paper experiments (one group per experiment id).
//!
//! Self-hosted harness (no external bench framework is available in this
//! build environment): each case is warmed up, then timed over enough
//! iterations to fill a fixed wall-clock budget, reporting mean ns/iter.
//! Run with `cargo bench -p noc-bench`. When the `BENCH_JSON` environment
//! variable names a file, the results are additionally written there as a
//! JSON array (one object per case) so CI can archive the perf
//! trajectory run over run.

use noc_niu::{decode_request, encode_request};
use noc_scenario::{Simulation, StepMode};
use noc_transaction::{
    Burst, MstAddr, Opcode, OrderingModel, OrderingPolicy, SlvAddr, StreamId, Tag,
    TransactionRequest,
};
use noc_transport::{Flit, Header, Packet, PortId, RoutingTable, Switch, SwitchConfig};
use noc_workloads::{SetTop, SetTopConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` after warm-up, returning (mean ns/iter, iterations).
fn bench<T>(budget: Duration, mut f: impl FnMut() -> T) -> (f64, u64) {
    // Warm-up: run until 10% of the budget is spent (at least once).
    let warm_until = Instant::now() + budget / 10;
    let mut warm_iters = 0u64;
    let warm_start = Instant::now();
    loop {
        black_box(f());
        warm_iters += 1;
        if Instant::now() >= warm_until {
            break;
        }
    }
    let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    // Measure: as many iterations as fit the remaining budget.
    let iters = ((budget.as_nanos() as f64 / per_iter) as u64).max(1);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    (total.as_nanos() as f64 / iters as f64, iters)
}

/// Fastest of `samples` individually timed calls of `f`, in ns. On a
/// shared host interference only ever adds time, so the minimum is the
/// statistic that repeats — what a gate between two cases should read.
fn fastest_ns<T>(samples: u32, mut f: impl FnMut() -> T) -> f64 {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One measured case, for the text table and the JSON artifact.
struct CaseResult {
    group: String,
    name: String,
    ns_per_iter: f64,
    iters: u64,
}

#[derive(Default)]
struct Harness {
    results: Vec<CaseResult>,
}

impl Harness {
    fn case<T>(&mut self, group: &str, name: &str, budget_ms: u64, f: impl FnMut() -> T) {
        let (ns, iters) = bench(Duration::from_millis(budget_ms), f);
        println!("{group:<22} {name:<28} {ns:>14.0} ns/iter  ({iters} iters)");
        self.results.push(CaseResult {
            group: group.to_owned(),
            name: name.to_owned(),
            ns_per_iter: ns,
            iters,
        });
    }

    /// Writes the results as JSON to `$BENCH_JSON` if set (hand-rolled:
    /// group/name are workspace-controlled identifiers, no escaping
    /// needed). Cargo runs bench binaries with the *package* directory
    /// (`crates/noc-bench`) as working directory, so a relative path
    /// would land there, invisible to CI's repo-root `cat`/upload steps;
    /// the rebasing below deliberately forces relative paths onto the
    /// workspace root instead, next to the committed
    /// `BENCH_baseline.json` anchor. Do not remove it as "redundant".
    fn write_json(&self) {
        let Ok(path) = std::env::var("BENCH_JSON") else {
            return;
        };
        let path = std::path::PathBuf::from(&path);
        let path = if path.is_absolute() {
            path
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path)
        };
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 == self.results.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"group\": \"{}\", \"case\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}{sep}\n",
                r.group, r.name, r.ns_per_iter, r.iters
            ));
        }
        out.push_str("]\n");
        std::fs::write(&path, out).expect("BENCH_JSON path is writable");
        println!("\nwrote {} cases to {}", self.results.len(), path.display());
    }
}

fn set_top(commands: usize, seed: u64) -> (noc_scenario::ScenarioSpec, SetTopConfig) {
    let cfg = SetTopConfig::new(commands, seed);
    (SetTop::new(cfg).spec(), cfg)
}

/// The one-shot runner the serve benchmark spawns: parse one scenario
/// file, build the NoC backend, run to completion — the work a fresh
/// `scn` process does per request, startup cost included.
fn oneshot_point(path: &str) {
    let text = std::fs::read_to_string(path).expect("point file");
    let spec = noc_scenario::ScenarioSpec::from_text(&text).expect("point parses");
    let mut sim = spec
        .build(&noc_scenario::Backend::noc())
        .expect("consistent");
    assert!(sim.run_until(1_000_000));
    println!("{} cycles, {} steps", sim.now(), sim.executed_steps());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--oneshot") {
        oneshot_point(&args[i + 1]);
        return;
    }
    let mut h = Harness::default();
    println!("{:<22} {:<28} {:>22}", "group", "case", "mean");

    h.case("exp_fig1_soc", "set_top_8cmds_full_run", 500, || {
        let (spec, cfg) = set_top(8, 1);
        let mut sim = spec.build_noc(cfg.noc).expect("consistent");
        assert!(sim.run_until(1_000_000));
        sim.now()
    });

    h.case("exp_fig2_baselines", "bridged_8cmds_full_run", 500, || {
        let (spec, cfg) = set_top(8, 1);
        let mut sim = spec.build_bridged(cfg.bridge).expect("consistent");
        assert!(sim.run_until(2_000_000));
        sim.now()
    });
    h.case("exp_fig2_baselines", "bus_8cmds_full_run", 500, || {
        let (spec, cfg) = set_top(8, 1);
        let mut sim = spec.build_bus(cfg.bus).expect("consistent");
        assert!(sim.run_until(2_000_000));
        sim.now()
    });

    // Quiescence-aware stepping vs dense polling on the same workload:
    // the horizon path must win on idle-dominated (sparse) runs and the
    // two must report identical cycle counts (equivalence is pinned
    // functionally in tests/scenario_api.rs). Specs are constructed
    // outside the timed region; the `build_only` cases isolate the
    // constant compile cost both stepping cases still pay per
    // iteration (a run consumes its simulation).
    let sparse_set_top = {
        let (mut spec, cfg) = set_top(4, 9);
        for ini in &mut spec.initiators {
            for cmd in ini.program.explicit_mut().unwrap() {
                cmd.delay_before = cmd.delay_before.saturating_mul(100).max(200);
            }
        }
        (spec, cfg)
    };
    {
        let (spec, cfg) = &sparse_set_top;
        h.case("step_mode", "set_top_sparse_build_only", 200, || {
            spec.build_noc(cfg.noc).expect("consistent").now()
        });
    }
    for (name, mode) in [
        ("set_top_sparse_horizon", StepMode::Horizon),
        ("set_top_sparse_dense", StepMode::Dense),
    ] {
        let (spec, cfg) = &sparse_set_top;
        h.case("step_mode", name, 500, move || {
            let mut sim = spec.build_noc(cfg.noc).expect("consistent");
            assert!(sim.run_until_with(5_000_000, mode));
            sim.now()
        });
    }

    // The same comparison on a sparse exp_scale-style point: a 4x4 mesh
    // of AXI readers at a low injection rate (long command gaps), plus
    // the 8x8/16x16 instances of the same fixed traffic spread over
    // growing fabrics — the scaling rows that pin "per-cycle cost tracks
    // traffic, not fabric size" as a measurement rather than a claim.
    let sparse_mesh = noc_bench::scenarios::sparse_mesh_spec(4);
    h.case("step_mode", "mesh_4x4_sparse_build_only", 200, || {
        sparse_mesh
            .build(&noc_scenario::Backend::noc())
            .expect("consistent")
            .now()
    });
    for (name, mode) in [
        ("mesh_4x4_sparse_horizon", StepMode::Horizon),
        ("mesh_4x4_sparse_dense", StepMode::Dense),
    ] {
        let spec = &sparse_mesh;
        h.case("step_mode", name, 500, move || {
            let mut sim = spec
                .build(&noc_scenario::Backend::noc())
                .expect("consistent");
            assert!(sim.run_until_with(5_000_000, mode));
            sim.now()
        });
    }
    for w in [8usize, 16, 32] {
        let spec = if w == 32 {
            noc_bench::scenarios::sparse_mesh_32_spec()
        } else {
            noc_bench::scenarios::sparse_mesh_spec(w)
        };
        // Build cost scales with switch count (routing tables over w*w
        // nodes) and dominates the larger rows, so pin it separately —
        // the per-cycle scaling claim reads from horizon minus build.
        {
            let spec = spec.clone();
            h.case(
                "step_mode",
                &format!("mesh_{w}x{w}_sparse_build_only"),
                200,
                move || {
                    spec.build(&noc_scenario::Backend::noc())
                        .expect("consistent")
                        .now()
                },
            );
        }
        for (mode_name, mode) in [("horizon", StepMode::Horizon), ("dense", StepMode::Dense)] {
            let spec = spec.clone();
            h.case(
                "step_mode",
                &format!("mesh_{w}x{w}_sparse_{mode_name}"),
                300,
                move || {
                    let mut sim = spec
                        .build(&noc_scenario::Backend::noc())
                        .expect("consistent");
                    assert!(sim.run_until_with(5_000_000, mode));
                    sim.now()
                },
            );
        }
    }
    // Build must stay linear in fabric size: one more scaling row past
    // the stepped ones, and a gate on cost per switch between 16x16 and
    // 32x32 (before routes were indexed: 9.3 vs 28.0 us/switch = 3.0x).
    let build = |spec: &noc_scenario::ScenarioSpec| {
        spec.build(&noc_scenario::Backend::noc())
            .expect("consistent")
            .now()
    };
    let mesh64 = noc_bench::scenarios::sparse_mesh_spec(64);
    h.case("step_mode", "mesh_64x64_sparse_build_only", 200, || {
        build(&mesh64)
    });
    let mesh16 = noc_bench::scenarios::sparse_mesh_spec(16);
    let mesh32 = noc_bench::scenarios::sparse_mesh_32_spec();
    let per_switch_16 = fastest_ns(20, || build(&mesh16)) / (16.0 * 16.0);
    let per_switch_32 = fastest_ns(20, || build(&mesh32)) / (32.0 * 32.0);
    println!(
        "{:<22} {:<28} {per_switch_16:>11.0} vs {per_switch_32:.0} ns/switch",
        "step_mode", "build_per_switch_16_vs_32"
    );
    assert!(
        per_switch_32 <= 2.0 * per_switch_16,
        "build is superlinear again: {per_switch_32:.0} ns/switch on 32x32 \
         vs {per_switch_16:.0} ns/switch on 16x16"
    );
    // The hotspot mesh: a congested 12-endpoint corner of an otherwise
    // idle 16x16 fabric, with its build cost pinned beside it.
    let hotspot = noc_bench::scenarios::zipf_hotspot_mesh16_spec();
    {
        let spec = hotspot.clone();
        h.case(
            "step_mode",
            "zipf_hotspot_16x16_build_only",
            200,
            move || {
                spec.build(&noc_scenario::Backend::noc())
                    .expect("consistent")
                    .now()
            },
        );
    }
    h.case("step_mode", "zipf_hotspot_16x16_horizon", 300, move || {
        let mut sim = hotspot
            .build(&noc_scenario::Backend::noc())
            .expect("consistent");
        assert!(sim.run_until_with(5_000_000, StepMode::Horizon));
        sim.now()
    });

    // The deep-pipeline mesh (the corpus `deep_pipeline.scn` scenario):
    // traffic is in flight almost every cycle, so before the per-layer
    // event horizons this workload ran dense under both modes. The NoC
    // rows skip through 16-stage link crossings and memory service
    // windows; the bridged rows skip through the bridge pipeline's
    // eligible_at / busy_until / respond_at stamps.
    let deep = noc_bench::scenarios::deep_pipeline_spec();
    for (name, backend, mode) in [
        (
            "mesh_deep_pipeline_horizon",
            noc_scenario::Backend::noc(),
            StepMode::Horizon,
        ),
        (
            "mesh_deep_pipeline_dense",
            noc_scenario::Backend::noc(),
            StepMode::Dense,
        ),
        (
            "bridged_deep_pipeline_horizon",
            noc_scenario::Backend::bridged(),
            StepMode::Horizon,
        ),
        (
            "bridged_deep_pipeline_dense",
            noc_scenario::Backend::bridged(),
            StepMode::Dense,
        ),
    ] {
        let spec = &deep;
        h.case("step_mode", name, 500, move || {
            let mut sim = spec.build(&backend).expect("consistent");
            assert!(sim.run_until_with(5_000_000, mode));
            sim.now()
        });
    }

    // Warm-state reuse vs one-shot execution on a prefix-sharing
    // 100-point sweep (6x6 mesh platform, tiny per-point programs —
    // the parameter-study shape `scn serve` exists for). "oneshot"
    // answers each point the way a one-shot `scn` invocation does:
    // a fresh process that parses the point's file, builds the
    // platform and runs it (this binary re-executes itself in the
    // `--oneshot` runner mode below). "warm" hands the whole sweep to
    // the serve executor as one request against a resident checkpoint
    // cache: the file is parsed once and every point forks from the
    // already-built platform. Both sides are single-threaded. The bar —
    // warm turns the same 100 requests around at least twice as fast —
    // is asserted below, not just recorded.
    let serve_sweep = noc_bench::scenarios::serve_sweep(6, 100);
    let serve_dir = std::env::temp_dir().join(format!("noc-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&serve_dir).expect("temp dir");
    let point_files: Vec<std::path::PathBuf> = serve_sweep
        .points()
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let path = serve_dir.join(format!("p{k:02}.scn"));
            std::fs::write(&path, p.spec.to_text()).expect("temp point file");
            path
        })
        .collect();
    let exe = std::env::current_exe().expect("self path");
    h.case("serve", "oneshot_scn_100pt_mesh6", 2000, || {
        for file in &point_files {
            let status = std::process::Command::new(&exe)
                .arg("--oneshot")
                .arg(file)
                .stdout(std::process::Stdio::null())
                .status()
                .expect("spawn one-shot runner");
            assert!(status.success());
        }
    });
    let sweep_text = serve_sweep.to_text();
    let serve_cache = std::sync::Mutex::new(noc_serve::CheckpointCache::new(8));
    let serve_config = noc_serve::ServeConfig {
        threads: Some(1),
        ..noc_serve::ServeConfig::default()
    };
    h.case("serve", "warm_serve_100pt_mesh6", 2000, || {
        let request = noc_serve::Request::from_text("bench", "bench.scn", &sweep_text)
            .expect("emitter output");
        let mut records = Vec::new();
        let mut stats = noc_serve::ServeStats::default();
        noc_serve::server::execute_request(
            &request,
            &serve_config,
            &serve_cache,
            &mut records,
            &mut stats,
        )
        .expect("writes to a Vec");
        assert_eq!(stats.points_failed, 0);
        records.len()
    });
    std::fs::remove_dir_all(&serve_dir).ok();
    assert_eq!(
        serve_cache.lock().unwrap().misses(),
        1,
        "the platform must be built exactly once across every warm pass"
    );
    let serve_ns = |h: &Harness, name: &str| {
        h.results
            .iter()
            .find(|r| r.group == "serve" && r.name == name)
            .expect("case just ran")
            .ns_per_iter
    };
    let speedup = serve_ns(&h, "oneshot_scn_100pt_mesh6") / serve_ns(&h, "warm_serve_100pt_mesh6");
    println!("{:<22} {:<28} {speedup:>20.1}x", "serve", "warm_speedup");
    assert!(
        speedup >= 2.0,
        "a warm server must turn the 100-point sweep around at least 2x \
         faster than one-shot runs, got {speedup:.2}x"
    );

    h.case(
        "exp_ordering_policy",
        "id_rename_issue_complete",
        200,
        || {
            let mut p = OrderingPolicy::new(OrderingModel::IdBased { tags: 8 }, 16).unwrap();
            for i in 0..64u16 {
                if let Ok(tag) = p.try_issue(StreamId::new(i % 12), SlvAddr::new(i % 4)) {
                    p.complete(tag).unwrap();
                }
            }
            p.outstanding()
        },
    );

    let req = TransactionRequest::builder(Opcode::Write)
        .address(0x1234)
        .burst(Burst::incr(16, 8).unwrap())
        .source(MstAddr::new(1))
        .destination(SlvAddr::new(2))
        .tag(Tag::new(3))
        .data(vec![0xAB; 128])
        .build()
        .unwrap();
    h.case(
        "exp_services_codec",
        "encode_decode_128B_request",
        200,
        || {
            let pkt = encode_request(black_box(&req));
            decode_request(&pkt).unwrap()
        },
    );

    let mut table = RoutingTable::new(8);
    for d in 0..8 {
        table.set(d, PortId((d % 5) as u8));
    }
    h.case("exp_scale_switch", "switch_5x5_tick_loaded", 200, || {
        let mut sw = Switch::new(SwitchConfig::wormhole(5, 5), table.clone());
        for o in 0..5 {
            sw.set_output_credits(o, 1000);
        }
        for i in 0..5u16 {
            let pkt = Packet::new(Header::request(i % 8, i, 0), vec![0; 32]);
            for f in pkt.to_flits_with_id(8, i as u64) {
                sw.accept(i as usize, f);
            }
        }
        let mut sent = 0;
        for _ in 0..40 {
            sent += sw.tick().sent.len();
        }
        sent
    });

    let pkt = Packet::new(Header::request(1, 2, 3), vec![0xCD; 256]);
    for width in [4usize, 8, 16] {
        h.case(
            "exp_layering_flits",
            &format!("to_flits_256B_w{width}"),
            200,
            || pkt.to_flits(black_box(width)).len(),
        );
    }
    let flits: Vec<Flit> = pkt.to_flits(8);
    h.case("exp_layering_flits", "reassemble_256B_w8", 200, || {
        Packet::from_flits(&flits).unwrap()
    });

    h.write_json();
}
