//! Engine scalability table: the paper's heuristics on overlays far
//! beyond the evaluation sizes of §5.2.
//!
//! Sweeps `G(n, p)` (geometric-skip sampled, `p = 2 ln n / n`) and
//! GT-ITM-style transit-stub topologies at `n ∈ {10^4, 10^5}` (plus
//! `10^6` under `--full`, just `10^4` under `--quick`), running the
//! sharded per-vertex restatements of the Random, Local, and TreeStripe
//! heuristics to completion and reporting planning throughput
//! (tokens/sec) alongside the CSR graph's memory footprint
//! (bytes/vertex).
//!
//! Sharded planning is deterministic in the shard count — `--shards N`
//! produces the byte-identical schedule of `--shards 1` — and
//! `--emit-schedules <dir>` writes each run's schedule as JSON so CI can
//! verify exactly that by comparing the artifacts of two runs.
//!
//! Usage: `table_scale [--quick | --full] [--seed <u64>] [--out <dir>]
//! [--shards <n>] [--tokens <m>] [--emit-schedules <dir>]`

use ocd_bench::args::{create_or_exit, ExpArgs};
use ocd_bench::table::Table;
use ocd_core::scenario::single_file;
use ocd_core::Instance;
use ocd_graph::generate::{gnp, transit_stub, GnpConfig, TransitStubConfig};
use ocd_graph::DiGraph;
use ocd_heuristics::{
    simulate, Sharded, ShardedLocal, ShardedRandom, ShardedTreeStripe, SimConfig, Strategy,
};
use rand::prelude::*;

fn strategies(shards: usize) -> Vec<Box<dyn Strategy>> {
    vec![
        Box::new(Sharded::new(ShardedRandom::new(), shards)),
        Box::new(Sharded::new(ShardedLocal::new(), shards)),
        Box::new(Sharded::new(ShardedTreeStripe::new(4), shards)),
    ]
}

fn build_topology(kind: &str, n: usize, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        "gnp" => gnp(&GnpConfig::fast(n), &mut rng),
        "transit-stub" => transit_stub(&TransitStubConfig::paper_sized(n), &mut rng),
        other => unreachable!("unknown topology kind {other}"),
    }
}

fn main() {
    let usage = " [--full] [--shards <n>] [--tokens <m>] [--emit-schedules <dir>]";
    let (args, (full, shards, m, emit_schedules)) = ExpArgs::from_env_with(usage, |f| {
        let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
        let shards: usize = f.opt("shards", cpus)?;
        if shards == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        let tokens: usize = f.opt("tokens", 64)?;
        if tokens == 0 {
            return Err("--tokens must be at least 1".to_string());
        }
        Ok((
            f.switch("full")?,
            shards,
            tokens,
            f.value("emit-schedules")?,
        ))
    });
    if let Some(dir) = &emit_schedules {
        create_or_exit(
            "--emit-schedules directory",
            dir,
            std::fs::create_dir_all(dir),
        );
    }
    let sizes: &[usize] = match (args.quick, full) {
        (true, _) => &[10_000],
        (false, false) => &[10_000, 100_000],
        (false, true) => &[10_000, 100_000, 1_000_000],
    };
    println!(
        "scale sweep: m = {m} tokens, shards = {}, sizes = {sizes:?}\n",
        shards
    );
    let mut table = Table::new([
        "topology",
        "strategy",
        "n",
        "arcs",
        "steps",
        "moves",
        "secs",
        "tokens_per_sec",
        "bytes_per_vertex",
    ]);

    for kind in ["gnp", "transit-stub"] {
        for &n in sizes {
            let build_start = std::time::Instant::now();
            let g = build_topology(kind, n, args.seed ^ n as u64);
            let actual_n = g.node_count();
            let arcs = g.edge_count();
            let bytes_per_vertex = g.memory_bytes() as f64 / actual_n as f64;
            println!(
                "{kind} n = {actual_n}: {arcs} arcs, built in {:.2}s",
                build_start.elapsed().as_secs_f64()
            );
            let instance: Instance = single_file(g, m, 0);
            for mut strategy in strategies(shards) {
                let mut rng = StdRng::seed_from_u64(args.seed);
                let report = simulate(
                    &instance,
                    strategy.as_mut(),
                    &SimConfig::default(),
                    &mut rng,
                );
                assert!(
                    report.success,
                    "{} failed on {kind} n = {actual_n}",
                    strategy.name()
                );
                let secs = report.wall_nanos as f64 / 1e9;
                println!(
                    "  {:<20} {} steps, {} moves, {secs:.2}s",
                    strategy.name(),
                    report.steps,
                    report.bandwidth
                );
                if let Some(dir) = &emit_schedules {
                    let path = format!("{dir}/{kind}_{}_n{actual_n}.json", strategy.name());
                    let json = serde_json::to_string(&report.schedule).expect("serialize schedule");
                    std::fs::write(&path, json).expect("write schedule artifact");
                }
                table.row([
                    kind.to_string(),
                    strategy.name().to_string(),
                    actual_n.to_string(),
                    arcs.to_string(),
                    report.steps.to_string(),
                    report.bandwidth.to_string(),
                    format!("{secs:.3}"),
                    format!("{:.0}", report.bandwidth as f64 / secs),
                    format!("{bytes_per_vertex:.1}"),
                ]);
            }
        }
    }
    println!("\n{}", table.render());
    table
        .write_csv(format!("{}/table_scale.csv", args.out_dir))
        .expect("write csv");
}
