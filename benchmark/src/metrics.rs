//! The declared metrics. `BENCHMARK.json` repeats these tables; a
//! self-test keeps the two identical.

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// A metric of one layer, from the traced run. It has no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const LOWER: bool = true;
const HIGHER: bool = false;

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", LOWER, 0.25),
    e2e("op_min_ms", "ms", LOWER, 0.25),
    e2e("txn_per_s", "txn/s", HIGHER, 0.25),
    e2e("peak_rss_mib", "MiB", LOWER, 0.15),
    e2e("sim_mean_latency_cy", "cycles", LOWER, 0.10),
    e2e("sim_p95_latency_cy", "cycles", LOWER, 0.10),
    e2e("sim_cycles_per_op", "cycles", LOWER, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: lower,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("scenario.parse_ms", "ms", LOWER),
    layer("scenario.parse_mib_per_s", "MiB/s", HIGHER),
    layer("scenario.emit_ms", "ms", LOWER),
    layer("scenario.validate_ms", "ms", LOWER),
    layer("scenario.programs_ms", "ms", LOWER),
    layer("scenario.build_ms", "ms", LOWER),
    layer("scenario.build_us_per_switch", "us", LOWER),
    layer("scenario.step_ms", "ms", LOWER),
    layer("scenario.step_ns_per_step", "ns", LOWER),
    layer("scenario.steps", "count", LOWER),
    layer("scenario.cycles", "cycles", LOWER),
    layer("scenario.skip_ratio", "ratio", HIGHER),
    layer("scenario.report_ms", "ms", LOWER),
    layer("scenario.snapshot_ms", "ms", LOWER),
    layer("scenario.load_programs_ms", "ms", LOWER),
    layer("scenario.horizon_polls", "count", LOWER),
    layer("scenario.calendar_pops", "count", LOWER),
    layer("kernel.pops_per_step", "ratio", LOWER),
    layer("kernel.polls_per_pop", "ratio", LOWER),
    layer("kernel.calendar_ns_per_op", "ns", LOWER),
    layer("topology.construct_ms", "ms", LOWER),
    layer("topology.routes_ms", "ms", LOWER),
    layer("topology.routes_us_per_switch", "us", LOWER),
    layer("topology.deadlock_check_ms", "ms", LOWER),
    layer("transaction.address_map_ms", "ms", LOWER),
    layer("transaction.decode_ns", "ns", LOWER),
    layer("transaction.ordering_ns_per_txn", "ns", LOWER),
    layer("niu.codec_ns_per_req", "ns", LOWER),
    layer("protocols.commands_per_op", "count", HIGHER),
    layer("protocols.write_share", "ratio", LOWER),
    layer("transport.to_flits_ns_per_pkt", "ns", LOWER),
    layer("transport.reassemble_ns_per_pkt", "ns", LOWER),
    layer("transport.switch_tick_ns", "ns", LOWER),
    layer("transport.flits_forwarded", "count", LOWER),
    layer("transport.packets_forwarded", "count", LOWER),
    layer("transport.credit_stalls", "count", LOWER),
    layer("transport.arbitration_conflicts", "count", LOWER),
    layer("transport.lock_idle_cycles", "cycles", LOWER),
    layer("transport.conflict_share", "ratio", LOWER),
    layer("transport.credit_stall_share", "ratio", LOWER),
    layer("physical.link_ns_per_flit", "ns", LOWER),
    layer("physical.mean_link_latency_cy", "cycles", LOWER),
    layer("system.step_ns_per_flit_hop", "ns", LOWER),
    layer("system.request_flits", "count", LOWER),
    layer("system.response_flits", "count", LOWER),
    layer("system.build_residual_ms", "ms", LOWER),
    layer("system.step_share", "ratio", LOWER),
    layer("baseline.bridged_step_ms", "ms", LOWER),
    layer("baseline.bus_step_ms", "ms", LOWER),
    layer("baseline.bridged_cycles", "cycles", LOWER),
    layer("baseline.bus_cycles", "cycles", LOWER),
    layer("baseline.bridged_mean_latency_cy", "cycles", LOWER),
    layer("baseline.bus_mean_latency_cy", "cycles", LOWER),
    layer("serve.request_parse_ms", "ms", LOWER),
    layer("serve.execute_ms", "ms", LOWER),
    layer("serve.cold_execute_ms", "ms", LOWER),
    layer("serve.point_us", "us", LOWER),
    layer("serve.cache_hit_share", "ratio", HIGHER),
    layer("serve.output_bytes", "count", LOWER),
    layer("serve.fanout2_ms", "ms", LOWER),
    layer("bench.op_p50_ms", "ms", LOWER),
    layer("bench.op_p90_ms", "ms", LOWER),
    layer("bench.op_samples", "count", HIGHER),
    layer("bench.trace_overhead_share", "ratio", LOWER),
    layer("bench.unattributed_share", "ratio", LOWER),
];

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
