//! Differential and round-trip tests of the JSON codec on the values
//! the core serializes. For random instances, schedules, run records,
//! metrics snapshots, provenance digests and plain collections, the
//! streaming writer must print exactly what the tree-walking reference
//! writer (`serde_json::reference`) prints, compact and pretty, and the
//! parser must give back the value that was written.

use ocd_core::metrics::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SeriesSnapshot,
};
use ocd_core::provenance::{ProvEntry, ProvenanceRecord};
use ocd_core::record::{StepTrace, RUN_RECORD_VERSION};
use ocd_core::{Instance, NodeBudgets, RunRecord, Schedule, Token, TokenSet};
use ocd_graph::generate::paper_random;
use ocd_graph::EdgeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::Debug;

/// Both writers agree byte for byte in both layouts, and each layout
/// decodes back to `value`.
fn check_codec<T>(value: &T) -> Result<(), TestCaseError>
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    let layouts = [
        (
            serde_json::to_string(value),
            serde_json::reference::to_string(value),
        ),
        (
            serde_json::to_string_pretty(value),
            serde_json::reference::to_string_pretty(value),
        ),
    ];
    for (text, reference) in layouts {
        let text = text.map_err(|e| TestCaseError::fail(format!("write: {e}")))?;
        prop_assert_eq!(Ok(&text), reference.as_ref());
        let back: T = serde_json::from_str(&text)
            .map_err(|e| TestCaseError::fail(format!("read back: {e}\n{text}")))?;
        prop_assert_eq!(&back, value);
    }
    Ok(())
}

/// A string mixing plain ASCII with every character the writer escapes
/// and multi-byte UTF-8.
fn text(rng: &mut StdRng) -> String {
    let chars: Vec<char> = "aZ0 ./\"\\\n\r\t\u{8}\u{c}\u{1}\u{1f}\u{7f}é☃\u{1F600}"
        .chars()
        .collect();
    let len = rng.random_range(0..12);
    (0..len)
        .map(|_| chars[rng.random_range(0..chars.len())])
        .collect()
}

fn token_set(rng: &mut StdRng, universe: usize) -> TokenSet {
    let density = rng.random_range(0.0..1.0);
    TokenSet::from_tokens(
        universe,
        (0..universe)
            .filter(|_| rng.random_bool(density))
            .map(Token::new),
    )
}

/// A random instance on up to 12 vertices, with node budgets when
/// `budgeted`. Every token is somewhere, so any want set is valid.
fn instance(rng: &mut StdRng, budgeted: bool) -> Instance {
    let n = rng.random_range(1..12);
    let m = rng.random_range(0..150);
    let mut builder = Instance::builder(paper_random(n, rng), m)
        .have_set(0, TokenSet::full(m))
        .want_all_everywhere();
    for v in 1..n {
        builder = builder.have_set(v, token_set(rng, m));
    }
    if budgeted {
        let mut budgets = || (0..n).map(|_| rng.random_range(0..5)).collect();
        let budgets = NodeBudgets::new(budgets(), budgets()).expect("one budget per vertex");
        builder = builder.node_budgets(budgets);
    }
    builder.build().expect("every token has a holder")
}

fn schedule(rng: &mut StdRng, arcs: usize, universe: usize) -> Schedule {
    let mut schedule = Schedule::new();
    for _ in 0..rng.random_range(0..6) {
        let mut sends = Vec::new();
        for e in 0..arcs {
            if rng.random_bool(0.4) {
                sends.push((EdgeId::new(e), token_set(rng, universe)));
            }
        }
        schedule.push_step(sends);
    }
    schedule
}

fn metrics(rng: &mut StdRng) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: (0..rng.random_range(0..4))
            .map(|_| CounterSnapshot {
                name: text(rng),
                value: rng.random(),
            })
            .collect(),
        gauges: (0..rng.random_range(0..4))
            .map(|_| GaugeSnapshot {
                name: text(rng),
                value: rng.random_range(i64::MIN..=i64::MAX),
            })
            .collect(),
        histograms: (0..rng.random_range(0..4))
            .map(|_| HistogramSnapshot {
                name: text(rng),
                count: rng.random(),
                sum: rng.random(),
                buckets: (0..rng.random_range(0..8)).map(|_| rng.random()).collect(),
            })
            .collect(),
        series: (0..rng.random_range(0..4))
            .map(|_| SeriesSnapshot {
                name: text(rng),
                values: (0..rng.random_range(0..8)).map(|_| rng.random()).collect(),
            })
            .collect(),
    }
}

/// One digit, any width, or the widest `u64`.
fn wide(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..3) {
        0 => rng.random_range(0..10),
        1 => rng.random(),
        _ => u64::MAX,
    }
}

fn provenance(rng: &mut StdRng) -> ProvenanceRecord {
    ProvenanceRecord {
        vertices: rng.random_range(0..1000),
        tokens: rng.random_range(0..1000),
        entries: (0..rng.random_range(0..10))
            .map(|_| ProvEntry {
                vertex: wide(rng),
                token: wide(rng),
                src: wide(rng),
                edge: wide(rng),
                step: wide(rng),
            })
            .collect(),
    }
}

fn maybe<T>(rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.random_bool(0.5).then(|| make(rng))
}

/// A run record with every optional section present or absent at
/// random; the codec does not care whether it certifies.
fn run_record(rng: &mut StdRng) -> RunRecord {
    let budgeted = rng.random_bool(0.5);
    let instance = instance(rng, budgeted);
    let arcs = instance.graph().edge_count();
    let schedule = schedule(rng, arcs, instance.num_tokens());
    let steps = schedule.makespan();
    let n = instance.num_vertices();
    RunRecord {
        version: rng.random_range(1..=RUN_RECORD_VERSION),
        strategy: text(rng),
        medium: text(rng),
        seed: rng.random(),
        success: rng.random(),
        steps,
        bandwidth: schedule.bandwidth(),
        duplicate_deliveries: rng.random(),
        wall_nanos: rng.random(),
        completion_steps: (0..n)
            .map(|_| maybe(rng, |rng| rng.random_range(0..steps + 1)))
            .collect(),
        trace: (0..steps)
            .map(|step| StepTrace {
                step,
                moves: rng.random(),
                remaining_need: rng.random(),
                nanos: rng.random(),
            })
            .collect(),
        capacity_trace: maybe(rng, |rng| {
            (0..steps)
                .map(|_| (0..arcs).map(|_| rng.random_range(0..9)).collect())
                .collect()
        })
        .unwrap_or_default(),
        rejected_per_step: maybe(rng, |rng| (0..steps).map(|_| rng.random()).collect())
            .unwrap_or_default(),
        metrics: maybe(rng, metrics),
        provenance: maybe(rng, provenance),
        instance,
        schedule,
    }
}

proptest! {
    #[test]
    fn instances_match_the_reference_writer_and_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let budgeted = rng.random_bool(0.5);
        check_codec(&instance(&mut rng, budgeted))?;
    }

    #[test]
    fn run_records_match_the_reference_writer_and_round_trip(seed in 0u64..u64::MAX) {
        check_codec(&run_record(&mut StdRng::seed_from_u64(seed)))?;
    }

    #[test]
    fn schedules_match_the_reference_writer_and_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (arcs, universe) = (rng.random_range(0..20), rng.random_range(0..200));
        check_codec(&schedule(&mut rng, arcs, universe))?;
    }

    #[test]
    fn snapshots_and_digests_match_the_reference_writer_and_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_codec(&metrics(&mut rng))?;
        check_codec(&provenance(&mut rng))?;
    }

    #[test]
    fn collections_and_tuples_match_the_reference_writer_and_round_trip(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let completion: Vec<Option<usize>> = (0..rng.random_range(0..10))
            .map(|_| maybe(&mut rng, |rng| rng.random()))
            .collect();
        check_codec(&completion)?;
        let finite = |rng: &mut StdRng| loop {
            let f = f64::from_bits(rng.random());
            if f.is_finite() {
                break f;
            }
        };
        let tuple = (
            rng.random::<i64>(),
            text(&mut rng),
            (finite(&mut rng), rng.random_range(-1e16..1e16_f64).trunc()),
            (rng.random::<bool>(), maybe(&mut rng, |rng| rng.random::<u8>())),
        );
        check_codec(&tuple)?;
        let universe = rng.random_range(0..300);
        check_codec(&(EdgeId::new(rng.random_range(0..1000)), token_set(&mut rng, universe)))?;
    }
}
