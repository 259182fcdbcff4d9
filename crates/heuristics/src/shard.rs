//! The lockstep heuristics' local rules and the two drivers that run
//! them.
//!
//! The paper states its §5.1 heuristics as local rules: what one sender
//! puts on one arc, and what one receiver asks each in-peer for. A
//! [`VertexStrategy`] holds those rules:
//!
//! - an optional receiver rule ([`plan_requests`]): the tokens a vertex
//!   requests on each of its in-arcs;
//! - a sender rule ([`plan_arc`]): what one arc carries this step, given
//!   the request its receiver made on it.
//!
//! Each rule is written once, next to its heuristic ([`ShardedRandom`],
//! [`ShardedLocal`], [`ShardedTreeStripe`]), and two drivers run it:
//!
//! - `plan_serially` runs the receiver rule of every vertex in id order,
//!   then the sender rule of every arc in id order, all on the engine's
//!   one RNG. [`RandomUseful`], [`LocalRarest`] and [`TreeStripe`] are
//!   this driver over those rules.
//! - [`Sharded`] runs the same rules across vertex ranges, each range on
//!   its own thread (`std::thread::scope`), for the `table_scale`
//!   experiment's `n = 10^6` overlays, where one planning pass touches
//!   tens of millions of arcs. Each vertex runs the sender rule on its
//!   out-arcs, so every arc is planned by exactly one vertex. With
//!   `shards = 1` it runs inline with no thread machinery at all.
//!
//! # Why `shards = N` is byte-identical to `shards = 1`
//!
//! Randomness is the only thing that could couple vertices: the serial
//! driver threads one RNG through the whole loop, so the draws a vertex
//! sees depend on every vertex planned before it. [`Sharded`] instead
//! draws **one** word from the engine RNG per step and derives an
//! independent RNG per `(step, phase, vertex)` with a SplitMix64-style
//! mixer. A vertex's draws therefore depend only on its own identity —
//! never on which shard planned it or in which order — and the merged
//! proposal set is the same for every shard count. The merge itself
//! needs no tie-breaking: each arc has one planner, and the proposals
//! are sorted by arc, so the resulting [`Schedule`] — and every artifact
//! derived from it — is byte-identical across `shards`.
//!
//! The per-vertex RNGs are a *different* (equally valid) random coupling
//! than the serial driver's shared stream, so `Sharded<ShardedRandom>`
//! does not reproduce [`RandomUseful`]'s schedules. Tree striping draws
//! no randomness, so `Sharded<ShardedTreeStripe>` matches [`TreeStripe`]
//! move for move under any medium that draws none either (tested).
//!
//! [`plan_requests`]: VertexStrategy::plan_requests
//! [`plan_arc`]: VertexStrategy::plan_arc
//! [`Schedule`]: ocd_core::Schedule
//! [`RandomUseful`]: crate::RandomUseful
//! [`LocalRarest`]: crate::LocalRarest
//! [`TreeStripe`]: crate::TreeStripe
//! [`ShardedRandom`]: crate::ShardedRandom
//! [`ShardedLocal`]: crate::ShardedLocal
//! [`ShardedTreeStripe`]: crate::ShardedTreeStripe

use crate::{KnowledgeTier, Strategy, WorldView};
use ocd_core::{Instance, TokenSet};
use ocd_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

/// Phase tag mixed into the per-vertex seed so the receiver and sender
/// rules of the same vertex in the same step draw from distinct streams.
const PHASE_REQUESTS: u64 = 0x52455155; // "REQU"
const PHASE_SENDS: u64 = 0x53454e44; // "SEND"

/// SplitMix64 finalizer: a bijective avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed for the RNG of `vertex` in `phase` of the step whose engine draw
/// was `step_seed`. Depends only on these three values — not on shard
/// count, shard boundaries, or planning order.
fn vertex_seed(step_seed: u64, phase: u64, vertex: u64) -> u64 {
    splitmix64(splitmix64(step_seed ^ phase) ^ vertex)
}

/// A heuristic stated as local rules: an optional receiver rule per
/// vertex and a sender rule per arc.
///
/// The receiver rule of a vertex should request only on that vertex's
/// in-arcs, so no arc is requested on twice in one step. The sender rule
/// needs no such contract: both drivers call it exactly once per arc.
///
/// Implementations must be [`Sync`]: shards borrow the rules immutably
/// from worker threads. All per-step scratch state therefore lives on
/// the workers' stacks, not in `self`.
pub trait VertexStrategy: Sync {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// The knowledge tier the rules operate at.
    fn tier(&self) -> KnowledgeTier;

    /// Called once before a simulation starts.
    fn reset(&mut self, instance: &Instance) {
        let _ = instance;
    }

    /// Whether the receiver phase runs at all. When `false` the drivers
    /// skip it entirely (no request table, no threads) and the sender
    /// rule sees no request.
    fn uses_requests(&self) -> bool {
        false
    }

    /// Receiver rule: the tokens vertex `v` requests on its in-arcs this
    /// step, leaving out arcs it requests nothing on. Only consulted
    /// when [`uses_requests`](Self::uses_requests) is `true`.
    fn plan_requests(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let _ = (view, v, rng);
        Vec::new()
    }

    /// Sender rule: the tokens arc `e` carries this step, or `None` to
    /// leave it idle. `request` is what `e`'s receiver requested on it
    /// (empty when it requested nothing), or `None` when
    /// [`uses_requests`](Self::uses_requests) is `false`. Return `None`
    /// rather than an empty set.
    fn plan_arc(
        &self,
        view: &WorldView<'_>,
        e: EdgeId,
        request: Option<&TokenSet>,
        rng: &mut dyn RngCore,
    ) -> Option<TokenSet>;
}

/// The edge-indexed request table: `table[e]` is what arc `e`'s receiver
/// requested on it, empty where it requested nothing.
fn request_table(
    view: &WorldView<'_>,
    requests: impl IntoIterator<Item = (EdgeId, TokenSet)>,
) -> Vec<TokenSet> {
    let mut table = vec![TokenSet::new(view.instance.num_tokens()); view.graph().edge_count()];
    for (e, tokens) in requests {
        debug_assert!(table[e.index()].is_empty(), "arc {e} requested twice");
        table[e.index()] = tokens;
    }
    table
}

/// The serial driver: `rules`' receiver rule for every vertex in id
/// order, then its sender rule for every arc in id order, all drawing
/// from the one engine `rng`.
pub(crate) fn plan_serially<V: VertexStrategy>(
    rules: &V,
    view: &WorldView<'_>,
    rng: &mut dyn RngCore,
) -> Vec<(EdgeId, TokenSet)> {
    let g = view.graph();
    let requests = if rules.uses_requests() {
        request_table(
            view,
            g.nodes().flat_map(|v| rules.plan_requests(view, v, rng)),
        )
    } else {
        Vec::new()
    };
    g.edge_ids()
        .filter_map(|e| {
            let tokens = rules.plan_arc(view, e, requests.get(e.index()), rng)?;
            Some((e, tokens))
        })
        .collect()
}

/// Adapter running a [`VertexStrategy`] as an ordinary [`Strategy`],
/// planning each step across `shards` worker threads.
///
/// The schedule is byte-identical for every `shards` value (see the
/// module docs above); `shards = 1` runs inline on the caller's
/// thread.
#[derive(Debug)]
pub struct Sharded<V> {
    inner: V,
    shards: usize,
}

impl<V: VertexStrategy> Sharded<V> {
    /// Wraps `inner`, planning with `shards` parallel vertex ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(inner: V, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Sharded { inner, shards }
    }

    /// Number of configured shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Contiguous vertex ranges, sizes differing by at most one.
    fn ranges(&self, n: usize) -> Vec<Range<usize>> {
        let shards = self.shards.min(n).max(1);
        let base = n / shards;
        let rem = n % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0;
        for i in 0..shards {
            let len = base + usize::from(i < rem);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    /// Runs `per_vertex` over every vertex, fanned out across shards,
    /// and concatenates the proposals in ascending shard (= vertex)
    /// order. The closure sees only the vertex index, so the output is
    /// independent of the fan-out.
    fn fan_out<F>(&self, n: usize, per_vertex: F) -> Vec<(EdgeId, TokenSet)>
    where
        F: Fn(usize, &mut Vec<(EdgeId, TokenSet)>) + Sync,
    {
        let ranges = self.ranges(n);
        if ranges.len() == 1 {
            let mut buf = Vec::new();
            for v in 0..n {
                per_vertex(v, &mut buf);
            }
            return buf;
        }
        let mut shard_buffers: Vec<Vec<(EdgeId, TokenSet)>> = Vec::with_capacity(ranges.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let per_vertex = &per_vertex;
                    s.spawn(move || {
                        let mut buf = Vec::new();
                        for v in range {
                            per_vertex(v, &mut buf);
                        }
                        buf
                    })
                })
                .collect();
            for handle in handles {
                shard_buffers.push(handle.join().expect("shard worker panicked"));
            }
        });
        shard_buffers.into_iter().flatten().collect()
    }
}

impl<V: VertexStrategy> Strategy for Sharded<V> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tier(&self) -> KnowledgeTier {
        self.inner.tier()
    }

    fn reset(&mut self, instance: &Instance) {
        // Force the CSR index once, before any worker threads exist, so
        // shards never race to build it (OnceLock would serialize them,
        // but warming it here keeps the parallel section pure compute).
        let g = instance.graph();
        if g.node_count() > 0 {
            let _ = g.out_edges(g.node(0));
            let _ = g.in_edges(g.node(0));
        }
        self.inner.reset(instance);
    }

    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let n = g.node_count();
        // One engine draw per step regardless of shard count; everything
        // downstream derives from it.
        let step_seed = rng.next_u64();
        let vertex_rng =
            |phase, v: usize| StdRng::seed_from_u64(vertex_seed(step_seed, phase, v as u64));
        let inner = &self.inner;

        // Phase 1 (receivers): merge per-vertex requests into the
        // edge-indexed table. Each vertex requests only on its in-arcs,
        // so the merge order is irrelevant.
        let requests = if inner.uses_requests() {
            request_table(
                view,
                self.fan_out(n, |v, buf| {
                    let mut rng = vertex_rng(PHASE_REQUESTS, v);
                    buf.extend(inner.plan_requests(view, g.node(v), &mut rng));
                }),
            )
        } else {
            Vec::new()
        };

        // Phase 2 (senders): each vertex plans its out-arcs on its own
        // RNG, so every arc appears at most once; sorting by arc makes
        // the order independent of the shard boundaries.
        let mut sends = self.fan_out(n, |v, buf| {
            let mut rng = vertex_rng(PHASE_SENDS, v);
            for e in g.out_edges(g.node(v)) {
                if let Some(tokens) = inner.plan_arc(view, e, requests.get(e.index()), &mut rng) {
                    buf.push((e, tokens));
                }
            }
        });
        sends.sort_unstable_by_key(|(e, _)| *e);
        sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, ShardedLocal, ShardedRandom, ShardedTreeStripe, SimConfig, TreeStripe};
    use ocd_core::scenario::{multi_file, single_file};
    use ocd_core::validate;
    use ocd_graph::generate::{classic, paper_random};

    fn run(strategy: &mut dyn Strategy, instance: &Instance, seed: u64) -> crate::SimReport {
        let mut rng = StdRng::seed_from_u64(seed);
        simulate(instance, strategy, &SimConfig::default(), &mut rng)
    }

    fn random_instance(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        single_file(paper_random(40, &mut rng), 24, 0)
    }

    #[test]
    fn vertex_seed_is_phase_and_vertex_sensitive() {
        let s = vertex_seed(42, PHASE_SENDS, 7);
        assert_ne!(s, vertex_seed(42, PHASE_REQUESTS, 7));
        assert_ne!(s, vertex_seed(42, PHASE_SENDS, 8));
        assert_ne!(s, vertex_seed(43, PHASE_SENDS, 7));
        assert_eq!(s, vertex_seed(42, PHASE_SENDS, 7), "pure function");
    }

    #[test]
    fn sharded_random_succeeds_and_validates() {
        let instance = random_instance(1);
        let report = run(&mut Sharded::new(ShardedRandom::new(), 4), &instance, 11);
        assert!(report.success);
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn sharded_local_succeeds_and_validates() {
        let instance = multi_file(classic::cycle(12, 4, true), 24, 4, 0);
        let report = run(&mut Sharded::new(ShardedLocal::new(), 4), &instance, 12);
        assert!(report.success);
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn schedules_are_identical_across_shard_counts() {
        // The tentpole guarantee: shards = N reproduces shards = 1 byte
        // for byte, for every strategy and both phases.
        let instance = random_instance(2);
        for shards in [2usize, 3, 4, 7] {
            let baseline = run(&mut Sharded::new(ShardedRandom::new(), 1), &instance, 21);
            let sharded = run(
                &mut Sharded::new(ShardedRandom::new(), shards),
                &instance,
                21,
            );
            assert_eq!(
                baseline.schedule, sharded.schedule,
                "random, {shards} shards"
            );
            let baseline = run(&mut Sharded::new(ShardedLocal::new(), 1), &instance, 21);
            let sharded = run(
                &mut Sharded::new(ShardedLocal::new(), shards),
                &instance,
                21,
            );
            assert_eq!(
                baseline.schedule, sharded.schedule,
                "local, {shards} shards"
            );
            let baseline = run(
                &mut Sharded::new(ShardedTreeStripe::new(2), 1),
                &instance,
                21,
            );
            let sharded = run(
                &mut Sharded::new(ShardedTreeStripe::new(2), shards),
                &instance,
                21,
            );
            assert_eq!(
                baseline.schedule, sharded.schedule,
                "tree-stripe, {shards} shards"
            );
        }
    }

    #[test]
    fn serial_and_sharded_drivers_agree_on_tree_stripe() {
        // Tree striping consumes no randomness, so the serial driver
        // (TreeStripe) and the sharded one must plan the same moves from
        // the same rule — on every shard count.
        for seed in [3u64, 4, 5] {
            let instance = random_instance(seed);
            for k in [1usize, 2, 4] {
                let serial = run(&mut TreeStripe::new(k), &instance, 31);
                for shards in [1usize, 4] {
                    let sharded = run(
                        &mut Sharded::new(ShardedTreeStripe::new(k), shards),
                        &instance,
                        31,
                    );
                    assert_eq!(
                        serial.schedule, sharded.schedule,
                        "k = {k}, shards = {shards}, seed = {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_runs_reproduce_and_seeds_matter() {
        let instance = random_instance(6);
        let schedule =
            |seed| run(&mut Sharded::new(ShardedRandom::new(), 4), &instance, seed).schedule;
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }

    #[test]
    fn more_shards_than_vertices_is_fine() {
        let instance = single_file(classic::path(3, 2, true), 4, 0);
        let report = run(&mut Sharded::new(ShardedRandom::new(), 64), &instance, 41);
        assert!(report.success);
    }

    #[test]
    fn names_and_tiers_forward() {
        let s = Sharded::new(ShardedLocal::new(), 2);
        assert_eq!(s.name(), "sharded-local");
        assert_eq!(s.tier(), KnowledgeTier::Aggregates);
        assert_eq!(s.shards(), 2);
        assert_eq!(
            Sharded::new(ShardedRandom::new(), 1).tier(),
            KnowledgeTier::PeerState
        );
        assert_eq!(
            Sharded::new(ShardedTreeStripe::new(2), 1).name(),
            "sharded-tree-stripe"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Sharded::new(ShardedRandom::new(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let _ = ShardedTreeStripe::new(0);
    }
}
