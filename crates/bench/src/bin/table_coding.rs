//! Content encoding (paper §6): uncoded Random flooding against random
//! linear network coding at several redundancy ratios, both in
//! lockstep on the same random topologies.
//!
//! The `uncoded` row is the paper's Random heuristic on the main
//! engine: it moves named tokens, so a receiver's end-game chases its
//! *specific* missing blocks. Each `rlnc` row floods random GF(2^8)
//! combinations on the coded engine, where any innovative packet
//! helps; its redundancy is the proactive multiplier of packets sent
//! per innovative packet the receiver can still use. `transfers`
//! counts everything put on an arc, and `duplicates` the deliveries
//! that added nothing. `steps_lb` is the radius and one-step-lookahead
//! bound of the uncoded instance. From a single source it only counts
//! arrivals through a receiver's in-capacity after its hop distance,
//! so it bounds the coded runs too.

use ocd_bench::args::ExpArgs;
use ocd_bench::stats::Summary;
use ocd_bench::table::Table;
use ocd_core::bounds;
use ocd_core::rlnc::RlncInstance;
use ocd_core::scenario::single_file;
use ocd_graph::generate::paper_random;
use ocd_graph::DiGraph;
use ocd_heuristics::{
    simulate, simulate_coded, CodedRandom, CodedSimConfig, SimConfig, StrategyKind,
};
use rand::prelude::*;

/// Bytes per RLNC source packet. No column depends on it: packet
/// coefficients are the run's only random draw.
const PAYLOAD: usize = 16;

/// One run's `(steps, transfers, duplicates)`.
type Run = (usize, u64, u64);

fn main() {
    let args = ExpArgs::from_env();
    let (n, k, runs) = if args.quick { (24, 16, 3) } else { (80, 64, 8) };
    let ratios: &[f64] = if args.quick {
        &[1.0, 1.5]
    } else {
        &[1.0, 1.125, 1.25, 1.5, 2.0]
    };
    // One table row: `run` on every topology of the grid, each with a
    // fresh RNG that first draws the topology. Every run must finish no
    // earlier than its lower bound and make exactly `k` useful
    // deliveries to each receiver.
    let row = |scheme: &str, redundancy: String, run: &dyn Fn(DiGraph, &mut StdRng) -> Run| {
        let mut steps = Vec::new();
        let mut transfers = Vec::new();
        let mut duplicates = Vec::new();
        let mut lbs = Vec::new();
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(args.seed ^ (r as u64) << 9);
            let topology = paper_random(n, &mut rng);
            let lb = bounds::makespan_lower_bound(&single_file(topology.clone(), k, 0));
            let (s, t, d) = run(topology, &mut rng);
            assert!(
                s >= lb,
                "{scheme} {redundancy} run {r} beat its lower bound"
            );
            assert_eq!(
                t - d,
                (k * (n - 1)) as u64,
                "{scheme} {redundancy} run {r}: useful deliveries"
            );
            steps.push(s as u64);
            transfers.push(t);
            duplicates.push(d);
            lbs.push(lb as u64);
        }
        [
            scheme.to_string(),
            redundancy,
            Summary::of_ints(&steps).to_string(),
            Summary::of_ints(&transfers).to_string(),
            Summary::of_ints(&duplicates).to_string(),
            Summary::of_ints(&lbs).to_string(),
        ]
    };
    let mut table = Table::new([
        "scheme",
        "redundancy",
        "steps",
        "transfers",
        "duplicates",
        "steps_lb",
    ]);
    table.row(row("uncoded", "-".to_string(), &|topology, rng| {
        let instance = single_file(topology, k, 0);
        let mut strategy = StrategyKind::Random.build();
        let report = simulate(&instance, strategy.as_mut(), &SimConfig::default(), rng);
        assert!(report.success, "uncoded Random must complete");
        (report.steps, report.bandwidth, report.duplicate_deliveries)
    }));
    for &ratio in ratios {
        table.row(row("rlnc", format!("{ratio:.3}"), &|topology, rng| {
            let instance = RlncInstance::single_source(topology, k, PAYLOAD, 0);
            let mut strategy = CodedRandom::new(ratio);
            let config = CodedSimConfig::default();
            let report = simulate_coded(&instance, &mut strategy, &config, rng).report;
            assert!(report.success, "RLNC flooding must complete");
            assert!(
                report.decode_ok,
                "every receiver must decode the generation"
            );
            (
                report.steps,
                report.packets_sent,
                report.redundant_deliveries,
            )
        }));
    }
    println!("{}", table.render());
    println!(
        "(uncoded = Random moving named tokens; rlnc = CodedRandom flooding random\n\
         GF(2^8) combinations, redundancy = packets sent per innovative packet\n\
         the receiver can still use; steps_lb = the uncoded instance's radius and\n\
         lookahead bound, which holds for both.)"
    );
    table
        .write_csv(format!("{}/table_coding.csv", args.out_dir))
        .expect("write csv");
}
