//! `coded`: RLNC over GF(2^8) through the coded lockstep engine on a
//! lossy medium and the coded swarm runtime, on a dense random overlay.
//!
//! GF(2^8) payload work is nearly all of the coded swarm's tick time,
//! so this is the one workload where a faster `gf256` kernel can show;
//! the `rlnc.*` throughputs time that kernel alone.
//!
//! The inputs are chosen so the makespan is steady across seeds:
//!
//! - `p = 4 ln n / n`: a coded broadcast finishes no sooner than its
//!   smallest receiver in-capacity allows (the min-cut bound), and at
//!   the sparser `p = 2 ln n / n` about one overlay in ten has a
//!   receiver of in-capacity 1 or 2 that stretches the makespan two- to
//!   threefold;
//! - two overlays of 500 vertices per pass, which halve the remaining
//!   seed-to-seed variance;
//! - a pushing swarm ([`NetPolicy::Random`]): on these overlays credit
//!   pull's request backoff under 10 % loss spreads the makespan over
//!   ±15 % across seeds, push over ±3 %. Pull-mode backoff is therefore
//!   not measured here.

use crate::timing::{span_total, CountingCodedMedium, TimedCodedStrategy};
use crate::{ensure, ratio, stream_rng, timed, Layers, Objective, Size, Tally, Workload};
use ocd_core::rlnc::{CodedBasis, RlncInstance};
use ocd_core::{FlightRecorder, NoopSpans, SpanRecorder};
use ocd_graph::generate::{gnp, GnpConfig};
use ocd_heuristics::{
    simulate_coded_with, CodedLocal, CodedMedium, CodedSimConfig, CodedSimReport, CodedStrategy,
    LossyCoded,
};
use ocd_net::{run_coded_swarm_with_spans, CodedNetReport, NetConfig, NetPolicy};
use rand::RngCore;

const LOSS: f64 = 0.1;
const REDUNDANCY: f64 = 1.0;

/// Generation sizes of the `rlnc.*` throughput kernels.
const RLNC_KS: [(usize, &str); 3] = [
    (16, "rlnc.k16_mb_per_s"),
    (64, "rlnc.k64_mb_per_s"),
    (256, "rlnc.k256_mb_per_s"),
];

/// Overlays per pass.
const OVERLAYS: u64 = 2;

/// The `coded` workload's inputs: one instance per overlay.
pub struct Coded {
    instances: Vec<RlncInstance>,
    seed: u64,
    /// Seconds each `rlnc.*` kernel repeats for.
    kernel_s: f64,
}

fn net_config() -> NetConfig {
    NetConfig {
        policy: NetPolicy::Random,
        latency: 2,
        jitter: 1,
        loss: LOSS,
        ..NetConfig::default()
    }
}

/// The lockstep run decoded everywhere and accounts for every packet.
fn check_lockstep(report: &CodedSimReport) -> Result<(), String> {
    ensure(report.success && report.decode_ok, || {
        "coded lockstep run did not decode everywhere".into()
    })?;
    ensure(
        report.packets_sent
            == report.innovative_deliveries + report.redundant_deliveries + report.packets_lost,
        || "sent != innovative + redundant + lost".into(),
    )
}

/// The swarm run decoded everywhere and accounts for every packet.
fn check_swarm(report: &CodedNetReport) -> Result<(), String> {
    ensure(report.success && report.decode_ok, || {
        "coded swarm did not decode everywhere".into()
    })?;
    ensure(report.accounts_for_every_packet(), || {
        "sent != innovative + redundant + lost + in flight".into()
    })
}

impl Coded {
    /// The coded lockstep run of overlay `i`.
    fn lockstep(
        &self,
        i: usize,
        strategy: &mut dyn CodedStrategy,
        medium: &mut impl CodedMedium,
    ) -> CodedSimReport {
        let mut rng = stream_rng(self.seed, 3 * i as u64 + 1);
        let config = CodedSimConfig::default();
        simulate_coded_with(&self.instances[i], strategy, medium, &config, &mut rng).report
    }

    /// The coded swarm run of overlay `i`, with spans recorded into
    /// `spans`.
    fn swarm<S: SpanRecorder>(&self, i: usize, spans: &mut S) -> CodedNetReport {
        let mut rng = stream_rng(self.seed, 3 * i as u64 + 2);
        run_coded_swarm_with_spans(
            &self.instances[i],
            &net_config(),
            REDUNDANCY,
            &mut rng,
            spans,
        )
    }
}

/// Payload throughput in MB/s of whole generations of `k` packets of
/// `payload_len` bytes through `random_packet` → `absorb` → `decode`,
/// repeated for at least `min_s` seconds; each decode is checked.
fn rlnc_throughput(
    k: usize,
    payload_len: usize,
    min_s: f64,
    seed: u64,
) -> (f64, Result<(), String>) {
    let mut rng = stream_rng(seed, 0x7000 + k as u64);
    let payloads: Vec<Vec<u8>> = (0..k)
        .map(|_| (0..payload_len).map(|_| rng.next_u32() as u8).collect())
        .collect();
    let source = CodedBasis::source(&payloads);
    let (mut total_s, mut generations) = (0.0, 0u64);
    let mut verdict = Ok(());
    while generations == 0 || total_s < min_s {
        let (decoded, secs) = timed(|| {
            let mut receiver = CodedBasis::new(k, payload_len);
            while !receiver.is_complete() {
                receiver.absorb(source.random_packet(&mut rng));
            }
            receiver.decode()
        });
        total_s += secs;
        generations += 1;
        if verdict.is_ok() && decoded.as_ref() != Some(&payloads) {
            verdict = Err(format!("k = {k}: decoded generation differs"));
        }
    }
    let bytes = (generations * (k * payload_len) as u64) as f64;
    (ratio(bytes, total_s) / 1e6, verdict)
}

impl Workload for Coded {
    const ATTRIBUTED: &'static [&'static str] = &[
        "coded.plan_s",
        "coded.apply_s",
        "net.coded.deliver_data_s",
        "net.coded.sender_s",
    ];

    fn setup(seed: u64, size: Size) -> Self {
        let (n, k, payload_len, kernel_s) = match size {
            Size::Full => (500, 32, 1024, 0.2),
            Size::Toy => (30, 8, 64, 0.0),
        };
        let config = GnpConfig {
            edge_probability: 4.0 * (n as f64).ln() / n as f64,
            capacity: 1..=2,
            ..GnpConfig::fast(n)
        };
        let instances = (0..OVERLAYS)
            .map(|i| {
                let graph = gnp(&config, &mut stream_rng(seed, 3 * i));
                let _ = graph.out_edges(graph.node(0));
                RlncInstance::single_source(graph, k, payload_len, 0)
            })
            .collect();
        Coded {
            instances,
            seed,
            kernel_s,
        }
    }

    fn run(&self, tally: &mut Tally) -> Objective {
        let mut objective = Objective::default();
        for i in 0..self.instances.len() {
            let mut strategy = CodedLocal::new(REDUNDANCY);
            let lockstep = self.lockstep(i, &mut strategy, &mut LossyCoded::new(LOSS));
            tally.op("coded-lockstep", check_lockstep(&lockstep));
            objective.add(lockstep.steps as u64, lockstep.packets_sent);
            let swarm = self.swarm(i, &mut NoopSpans);
            tally.op("coded-swarm", check_swarm(&swarm));
            objective.add(swarm.ticks, swarm.packets_sent);
        }
        objective
    }

    fn run_traced(&self, tally: &mut Tally, layers: &mut Layers) -> Objective {
        let mut objective = Objective::default();
        let mut spans = FlightRecorder::wall();
        let (mut plan_s, mut apply_s) = (0.0, 0.0);
        let (mut innovative, mut sent, mut swarm_innovative, mut swarm_sent) = (0, 0, 0, 0);
        for i in 0..self.instances.len() {
            let mut local = CodedLocal::new(REDUNDANCY);
            let mut strategy = TimedCodedStrategy::new(&mut local);
            let mut medium = CountingCodedMedium::new(LossyCoded::new(LOSS));
            let (lockstep, secs) = timed(|| self.lockstep(i, &mut strategy, &mut medium));
            plan_s += strategy.plan_s;
            apply_s += secs - strategy.plan_s;
            innovative += lockstep.innovative_deliveries;
            sent += lockstep.packets_sent;
            tally.op(
                "coded-lockstep",
                check_lockstep(&lockstep).and_then(|()| {
                    ensure(
                        medium.delivered + medium.dropped == lockstep.packets_sent
                            && medium.dropped == lockstep.packets_lost,
                        || "medium verdicts disagree with the packet counts".into(),
                    )
                }),
            );
            objective.add(lockstep.steps as u64, lockstep.packets_sent);

            let swarm = self.swarm(i, &mut spans);
            swarm_innovative += swarm.innovative_deliveries;
            swarm_sent += swarm.packets_sent;
            tally.op("coded-swarm", check_swarm(&swarm));
            objective.add(swarm.ticks, swarm.packets_sent);
        }
        layers.insert("coded.plan_s", plan_s);
        layers.insert("coded.apply_s", apply_s);
        layers.insert("coded.useful_ratio", ratio(innovative as f64, sent as f64));
        layers.insert(
            "net.coded.deliver_data_s",
            span_total(&spans, "coded.deliver_data"),
        );
        layers.insert(
            "net.coded.sender_s",
            span_total(&spans, "coded.sender_decisions"),
        );
        layers.insert(
            "net.coded.useful_ratio",
            ratio(swarm_innovative as f64, swarm_sent as f64),
        );
        objective
    }

    fn extras(&self, tally: &mut Tally, layers: &mut Layers) {
        for (k, metric) in RLNC_KS {
            let payload_len = self.instances[0].payload_len();
            let (mb_per_s, verdict) = rlnc_throughput(k, payload_len, self.kernel_s, self.seed);
            layers.insert(metric, mb_per_s);
            tally.op("rlnc-decode", verdict);
        }
    }
}
