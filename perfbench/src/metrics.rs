//! The metrics the harness prints, as declared in `BENCHMARK.json`.
//!
//! The harness only emits names from these tables, and a test checks
//! that the tables and `BENCHMARK.json` agree on every name, unit and
//! direction.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: host time and memory of whole workload runs.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_req_per_s", "req/s", "higher"),
    m("dse_evals_per_s", "evals/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("fleet.scenario.parse_ms", "ms", "lower"),
    m("fleet.scenario.compile_ms", "ms", "lower"),
    m("cnn.proxy_ladder_s", "s", "lower"),
    m("core.service_quote_us.p50", "us", "lower"),
    m("core.service_quote_us.p99", "us", "lower"),
    m("core.service_quote_us.n", "count", "higher"),
    m("fleet.quote_table_ms", "ms", "lower"),
    m("fleet.workload.arrivals_per_s", "req/s", "higher"),
    m("fleet.engine.wheel_ns.p50", "ns", "lower"),
    m("fleet.engine.wheel_ns.p99", "ns", "lower"),
    m("fleet.engine.wheel_ns.n", "count", "higher"),
    m("fleet.engine.wheel_ops_per_req", "ops/req", "lower"),
    m("fleet.engine.dispatch_scans_per_req", "scans/req", "lower"),
    m("fleet.engine.quote_lookups_per_req", "lookups/req", "lower"),
    m("fleet.engine.one_cell_s", "s", "lower"),
    m("fleet.engine.cells_1w_s", "s", "lower"),
    m("fleet.engine.cells_nw_s", "s", "lower"),
    m("fleet.engine.partition_speedup", "x", "higher"),
    m("fleet.engine.thread_speedup", "x", "higher"),
    m("fleet.engine.driver_overhead", "x", "lower"),
    m("fleet.control.hold_overhead", "x", "lower"),
    m("fleet.control.policy_ms", "ms", "lower"),
    m("fleet.control.actions", "count", "lower"),
    m("fleet.telemetry.trace_overhead", "x", "lower"),
    m("fleet.metrics.render_ms", "ms", "lower"),
    m("dse.assemble_us", "us", "lower"),
    m("dse.evaluate_us", "us", "lower"),
    m("dse.frontier_insert_us", "us", "lower"),
    m("dse.cache_insert_us", "us", "lower"),
    m("core.analytical.layer_us", "us", "lower"),
    m("core.feasibility.layer_us", "us", "lower"),
    m("core.power.layer_us", "us", "lower"),
    m("dse.grid_1w_s", "s", "lower"),
    m("dse.grid_nw_s", "s", "lower"),
    m("dse.thread_speedup", "x", "higher"),
    m("dse.cache_hit_ratio", "ratio", "higher"),
    m("dse.codesign_s", "s", "lower"),
    m("bench.trace_overhead", "x", "lower"),
];

/// The declaration of `name` in either table.
///
/// # Panics
///
/// Panics if `name` is not declared — the harness must never print a
/// metric `BENCHMARK.json` does not know.
#[must_use]
pub fn def(name: &str) -> MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .copied()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}
