//! The replication-vs-coding cost frontier (paper §6, made real).
//!
//! The two contenders are two swarm protocols on one link layer, so
//! they face the same degraded links (the same calendars and the same
//! loss, jitter and control-plane draws): the uncoded Random swarm
//! ([`ocd_net::run_swarm`]) moves named tokens and must chase each loss
//! with a targeted, timeout-driven retransmission; the coded swarm
//! ([`ocd_net::run_coded_swarm`]) moves random GF(2^8) combinations, so
//! any innovative packet repairs any loss. The sweep
//! maps generation size `k` × proactive redundancy × per-arc loss rate
//! and reports makespan (ticks), wire bytes (coded packets pay a
//! `k`-byte coefficient header on every 256-byte payload), and waste
//! (redundant/duplicate deliveries). The `coding_wins` column marks the
//! regimes where RLNC beats replication on makespan AND bytes at once:
//! lossless links favor replication (the header is pure overhead,
//! precise bitmap beliefs avoid duplicates), long lossy links favor
//! coding (no per-token end-game, loss costs one retransmit of any
//! combination).
//!
//! Links are long and jittery (latency 3, jitter 3) with a lightly
//! lossy control plane — the regime where belief staleness actually
//! bites — and both protocols face identical settings. The topology is a
//! grid mesh (every interior vertex has several in-arcs), which is
//! exactly where replication hurts: two senders pushing concurrently to
//! the same receiver can pick the *same* missing token (a birthday
//! collision the bitmap beliefs are too stale to prevent), while two
//! random GF(2^8) combinations are almost surely jointly innovative.

use ocd_bench::args::ExpArgs;
use ocd_bench::stats::Summary;
use ocd_bench::table::Table;
use ocd_core::rlnc::RlncInstance;
use ocd_core::scenario::single_file;
use ocd_graph::generate::classic;
use ocd_net::{run_coded_swarm, run_swarm, FaultPlan, NetConfig, NetPolicy};
use rand::prelude::*;

const PAYLOAD: usize = 256;

fn main() {
    let args = ExpArgs::from_env();
    let (rows, cols, runs) = if args.quick { (2, 3, 2) } else { (3, 3, 5) };
    let gens: &[usize] = if args.quick { &[8] } else { &[8, 16] };
    let redundancies: &[f64] = if args.quick { &[1.0] } else { &[1.0, 1.5] };
    let losses: &[f64] = if args.quick {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5]
    };

    let mut table = Table::new([
        "k",
        "redundancy",
        "loss",
        "ticks_coded",
        "ticks_uncoded",
        "bytes_coded",
        "bytes_uncoded",
        "redundant_coded",
        "duplicate_uncoded",
        "coding_wins",
    ]);
    let mut frontier_hit = false;
    for &k in gens {
        for &redundancy in redundancies {
            for &loss in losses {
                let config = NetConfig {
                    policy: NetPolicy::Random,
                    latency: 3,
                    jitter: 3,
                    loss,
                    control_loss: loss.min(0.3),
                    ..NetConfig::default()
                };
                let mut ct = Vec::new();
                let mut cb = Vec::new();
                let mut cr = Vec::new();
                let mut ut = Vec::new();
                let mut ub = Vec::new();
                let mut ud = Vec::new();
                for r in 0..runs {
                    let seed = args.seed ^ (r as u64) << 9;
                    let g = classic::grid(rows, cols, 2);

                    let coded_inst = RlncInstance::single_source(g.clone(), k, PAYLOAD, 0);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let coded = run_coded_swarm(&coded_inst, &config, redundancy, &mut rng);
                    assert!(
                        coded.success && coded.decode_ok,
                        "coded swarm must complete and decode (k={k} loss={loss} run={r})"
                    );
                    ct.push(coded.ticks);
                    cb.push(coded.bytes_sent);
                    cr.push(coded.redundant_deliveries);

                    let uncoded_inst = single_file(g, k, 0);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let uncoded = run_swarm(&uncoded_inst, &config, &FaultPlan::none(), &mut rng);
                    assert!(
                        uncoded.success,
                        "uncoded swarm must complete (k={k} loss={loss} run={r})"
                    );
                    ut.push(uncoded.ticks);
                    ub.push(uncoded.bandwidth() * PAYLOAD as u64);
                    ud.push(uncoded.duplicate_deliveries);
                }
                let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
                let wins = mean(&ct) < mean(&ut) && mean(&cb) < mean(&ub);
                frontier_hit |= wins;
                table.row([
                    k.to_string(),
                    format!("{redundancy:.2}"),
                    format!("{loss:.2}"),
                    Summary::of_ints(&ct).to_string(),
                    Summary::of_ints(&ut).to_string(),
                    Summary::of_ints(&cb).to_string(),
                    Summary::of_ints(&ub).to_string(),
                    Summary::of_ints(&cr).to_string(),
                    Summary::of_ints(&ud).to_string(),
                    if wins { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
    }
    println!("{}", table.render());
    println!(
        "(coding_wins = RLNC beats uncoded Random on BOTH mean makespan and mean\n\
         wire bytes; coded packets carry a k-byte GF(2^8) coefficient header on\n\
         every {PAYLOAD}-byte payload. Identical link model on both sides:\n\
         latency 3, jitter 3, control loss min(loss, 0.3).)"
    );
    if !args.quick {
        assert!(
            frontier_hit,
            "the frontier must contain at least one regime where coding wins \
             on both makespan and bytes"
        );
    }
    table
        .write_csv(format!("{}/table_coding_frontier.csv", args.out_dir))
        .expect("write csv");
}
