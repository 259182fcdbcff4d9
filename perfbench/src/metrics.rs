//! Every metric the benchmark prints, with its unit, and — for the
//! per-layer metrics — the workload it is measured on and the
//! end-to-end metric a change to that layer should move there.

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

/// End-to-end metrics, printed by every untraced run. `failed_ratio`
/// is printed alongside them but is not a result metric: it is 0 on a
/// correct run, and `failed` / `attempted` carry it in the result line.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
    },
    EndToEnd {
        name: "makespan",
        unit: "steps",
    },
    EndToEnd {
        name: "bandwidth",
        unit: "transfers",
    },
];

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name as printed: `<layer>.<quantity>`, the layer named
    /// after its crate.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The workloads the metric is measured on (`all` for every one);
    /// on the others it reads 0 because the layer does no work there.
    pub workload: &'static str,
    /// The end-to-end metric a change to this layer should move on that
    /// workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    workload: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        workload,
        moves,
    }
}

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // ocd-graph: topology generation and the CSR footprint.
    layer("graph.generate_s", "s", false, "scale", "setup_s"),
    layer(
        "graph.bytes_per_vertex",
        "B",
        false,
        "scale",
        "peak_rss_mib",
    ),
    // ocd-heuristics lockstep engine, 2-shard Sharded<ShardedLocal> on Ideal.
    layer("engine.plan_s", "s", false, "scale", "run_s"),
    layer("engine.plan_speedup", "ratio", true, "scale", "run_s"),
    layer("engine.admit_s", "s", false, "scale", "run_s"),
    layer("engine.apply_s", "s", false, "scale", "run_s"),
    layer("engine.moves_per_s", "1/s", true, "scale", "run_s"),
    layer("engine.duplicate_ratio", "ratio", false, "scale", "run_s"),
    // ocd-core replay and the RunRecord round trip.
    layer("core.replay_s", "s", false, "scale swarm", "run_s"),
    layer("record.encode_s", "s", false, "scale", "run_s"),
    layer("record.decode_s", "s", false, "scale", "run_s"),
    layer("record.certify_s", "s", false, "scale", "run_s"),
    layer("record.mib", "MiB", false, "scale", "peak_rss_mib"),
    // ocd-net uncoded swarm runtime.
    layer("net.decide_s", "s", false, "swarm", "run_s"),
    layer("net.deliver_data_s", "s", false, "swarm", "run_s"),
    layer("net.refresh_haves_s", "s", false, "swarm", "run_s"),
    layer("net.tick_p50_ms", "ms", false, "swarm", "run_s"),
    layer("net.tick_tail_ms", "ms", false, "swarm", "run_s"),
    layer("net.ticks", "count", false, "swarm", "run_s"),
    layer("net.active_vertex_share", "ratio", false, "swarm", "run_s"),
    layer("net.useful_ratio", "ratio", true, "swarm", "bandwidth"),
    layer("net.retransmits", "count", false, "swarm", "bandwidth"),
    layer("net.request_timeouts", "count", false, "swarm", "makespan"),
    layer("net.ctrl_msgs", "count", false, "swarm", "bandwidth"),
    layer("net.max_queue_depth", "count", false, "swarm", "makespan"),
    // ocd-heuristics coded lockstep engine and ocd-net coded swarm.
    layer("coded.plan_s", "s", false, "coded", "run_s"),
    layer("coded.apply_s", "s", false, "coded", "run_s"),
    layer("coded.useful_ratio", "ratio", true, "coded", "bandwidth"),
    layer("net.coded.deliver_data_s", "s", false, "coded", "run_s"),
    layer("net.coded.sender_s", "s", false, "coded", "run_s"),
    layer(
        "net.coded.useful_ratio",
        "ratio",
        true,
        "coded",
        "bandwidth",
    ),
    // ocd-core RLNC kernel: random_packet -> absorb -> decode.
    layer("rlnc.k16_mb_per_s", "MB/s", true, "coded", "run_s"),
    layer("rlnc.k64_mb_per_s", "MB/s", true, "coded", "run_s"),
    layer("rlnc.k256_mb_per_s", "MB/s", true, "coded", "run_s"),
    // ocd-solver, ocd-lp branch-and-bound and simplex.
    layer("solver.g8_uplink1_s", "s", false, "exact", "run_s"),
    layer("solver.g32_free_s", "s", false, "exact", "run_s"),
    layer("solver.batch_s", "s", false, "exact", "run_s"),
    layer("solver.horizons", "count", false, "exact", "run_s"),
    layer("solver.focd_s", "s", false, "exact", "run_s"),
    layer("bnb.nodes", "count", false, "exact", "run_s"),
    layer("bnb.round_s", "s", false, "exact", "run_s"),
    layer("lp.iterations", "count", false, "exact", "run_s"),
    layer("lp.pivots_per_s", "1/s", true, "exact", "run_s"),
    layer("lp.root_s", "s", false, "exact", "run_s"),
    layer("lp.cold_solve_s", "s", false, "exact", "run_s"),
    // Every workload: coverage of the layer times, cost of tracing, and
    // the host's speed on a fixed kernel.
    layer("unattributed_s", "s", false, "all", "run_s"),
    layer("trace_overhead", "ratio", false, "all", "run_s"),
    layer("host.calibration_s", "s", false, "all", "none"),
];
