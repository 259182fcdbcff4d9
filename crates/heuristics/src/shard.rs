//! Deterministic sharded planning: the per-step loop partitioned across
//! vertex ranges.
//!
//! The lockstep strategies in this crate walk every arc of the overlay
//! once per step from a single thread. At the paper's evaluation sizes
//! that is fine, but the `table_scale` experiment pushes the engine to
//! `n = 10^6`-vertex `G(n, p)` overlays where one planning pass touches
//! tens of millions of arcs. This module makes that pass parallel
//! **without changing a single scheduled move**:
//!
//! - A [`VertexStrategy`] re-states a heuristic as two *per-vertex*
//!   rules — an optional receiver rule ([`plan_requests`]) and a sender
//!   rule ([`plan_sends`]) — each touching only arcs *owned* by that
//!   vertex, so distinct vertices never propose sends for the same arc.
//! - The [`Sharded`] adapter implements the ordinary [`Strategy`]
//!   interface on top: it splits the vertex set into contiguous ranges,
//!   plans each range on its own thread (`std::thread::scope`), and
//!   merges the per-shard proposals. With `shards = 1` it runs the loop
//!   inline with no thread machinery at all.
//!
//! # Why `shards = N` is byte-identical to `shards = 1`
//!
//! Randomness is the only thing that could couple vertices: the legacy
//! strategies thread one RNG through the whole arc loop, so the draw a
//! vertex sees depends on every vertex planned before it. Here the
//! adapter instead draws **one** word from the engine RNG per step and
//! derives an independent RNG per `(step, phase, vertex)` with a
//! SplitMix64-style mixer. A vertex's draws therefore depend only on its
//! own identity — never on which shard planned it or in which order —
//! and the merged proposal set is the same for every shard count. The
//! merge itself needs no tie-breaking: arc ownership makes proposal keys
//! unique, and [`Timestep::from_sends`](ocd_core::Timestep::from_sends)
//! canonicalizes entry order, so the resulting [`Schedule`] — and every
//! artifact derived from it — is byte-identical across `shards`.
//!
//! The per-vertex RNG discipline is a *different* (equally valid) random
//! coupling than the legacy strategies' shared stream, so
//! `Sharded<ShardedRandom>` does not reproduce [`RandomUseful`]'s exact
//! schedules — except [`ShardedTreeStripe`], which consumes no
//! randomness and matches [`TreeStripe`] move for move (tested).
//!
//! [`plan_requests`]: VertexStrategy::plan_requests
//! [`plan_sends`]: VertexStrategy::plan_sends
//! [`Schedule`]: ocd_core::Schedule
//! [`RandomUseful`]: crate::RandomUseful

use crate::policy::{random_fill, rarest_flood_fill, subdivide_requests};
use crate::tree_stripe::{best_root, TreeStripe};
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

/// A heuristic restated as independent per-vertex rules, so planning can
/// be sharded across vertex ranges.
///
/// Arc ownership contract: across one step, the union of all vertices'
/// [`plan_requests`](Self::plan_requests) output must mention each arc
/// at most once, and likewise for [`plan_sends`](Self::plan_sends) —
/// typically each vertex speaks only for its in-arcs (requests) and its
/// out-arcs (sends). The adapter merges proposals assuming this holds.
///
/// Implementations must be [`Sync`]: shards borrow the strategy
/// immutably from worker threads. All per-step scratch state therefore
/// lives on the workers' stacks, not in `self`.
pub trait VertexStrategy: Sync {
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// The knowledge tier the per-vertex rules operate at.
    fn tier(&self) -> KnowledgeTier;

    /// Called once before a simulation starts.
    fn reset(&mut self, instance: &Instance) {
        let _ = instance;
    }

    /// Whether the receiver phase runs at all. When `false` the adapter
    /// skips phase 1 entirely (no allocation, no threads).
    fn uses_requests(&self) -> bool {
        false
    }

    /// Receiver rule: the tokens vertex `v` requests on each of its
    /// in-arcs this step. Only consulted when
    /// [`uses_requests`](Self::uses_requests) is `true`.
    fn plan_requests(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let _ = (view, v, rng);
        Vec::new()
    }

    /// Sender rule: the sends on the arcs vertex `v` owns this step.
    /// `requests` is the edge-indexed merge of every vertex's phase-1
    /// output (empty slice when [`uses_requests`](Self::uses_requests)
    /// is `false`). Empty token sets should be omitted.
    fn plan_sends(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        requests: &[TokenSet],
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)>;
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
        let inner = &self.inner;

        // Phase 1 (receivers): merge per-vertex requests into an
        // edge-indexed table. Arc ownership makes the keys unique, so
        // the merge order is irrelevant.
        let requests: Vec<TokenSet> = if inner.uses_requests() {
            let pairs = self.fan_out(n, |v, buf| {
                let mut vrng =
                    StdRng::seed_from_u64(vertex_seed(step_seed, PHASE_REQUESTS, v as u64));
                buf.extend(inner.plan_requests(view, g.node(v), &mut vrng));
            });
            let m = view.instance.num_tokens();
            let mut table = vec![TokenSet::new(m); g.edge_count()];
            for (e, tokens) in pairs {
                debug_assert!(table[e.index()].is_empty(), "arc {e} requested twice");
                table[e.index()] = tokens;
            }
            table
        } else {
            Vec::new()
        };

        // Phase 2 (senders): concatenated shard buffers, already unique
        // per arc; Timestep::from_sends canonicalizes the order.
        let mut sends = self.fan_out(n, |v, buf| {
            let mut vrng = StdRng::seed_from_u64(vertex_seed(step_seed, PHASE_SENDS, v as u64));
            buf.extend(inner.plan_sends(view, g.node(v), &requests, &mut vrng));
        });
        sends.sort_unstable_by_key(|(e, _)| *e);
        sends
    }
}

/// Per-vertex restatement of [`RandomUseful`](crate::RandomUseful): each
/// vertex fills its out-arcs with uniform random subsets of the tokens
/// the peer lacks.
#[derive(Debug, Default)]
pub struct ShardedRandom;

impl ShardedRandom {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        ShardedRandom
    }
}

impl VertexStrategy for ShardedRandom {
    fn name(&self) -> &'static str {
        "sharded-random"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::PeerState
    }

    fn plan_sends(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        _requests: &[TokenSet],
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let mut out = Vec::new();
        for e in g.out_edges(v) {
            let arc = g.edge(e);
            let cap = view.capacity(e) as usize;
            if cap == 0 {
                continue;
            }
            let candidates =
                view.possession[arc.src.index()].difference(&view.possession[arc.dst.index()]);
            if candidates.is_empty() {
                continue;
            }
            out.push((e, random_fill(candidates, cap, rng)));
        }
        out
    }
}

/// Per-vertex restatement of [`LocalRarest`](crate::LocalRarest):
/// receivers subdivide their needs into per-in-arc requests (phase 1),
/// senders serve the requests on their out-arcs and flood the remaining
/// capacity rarest-first (phase 2).
#[derive(Debug, Default)]
pub struct ShardedLocal;

impl ShardedLocal {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        ShardedLocal
    }
}

impl VertexStrategy for ShardedLocal {
    fn name(&self) -> &'static str {
        "sharded-local"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::Aggregates
    }

    fn uses_requests(&self) -> bool {
        true
    }

    fn plan_requests(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let need = view.need_of(v);
        if need.is_empty() {
            return Vec::new();
        }
        let in_edges: Vec<EdgeId> = g.in_edges(v).collect();
        if in_edges.is_empty() {
            return Vec::new();
        }
        let assigned = subdivide_requests(
            &need,
            &in_edges,
            &|e| &view.possession[g.edge(e).src.index()],
            &|e| view.capacity(e),
            view.aggregates,
            rng,
        );
        in_edges
            .into_iter()
            .zip(assigned)
            .filter(|(_, req)| !req.is_empty())
            .collect()
    }

    fn plan_sends(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        requests: &[TokenSet],
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        let mut out = Vec::new();
        for e in g.out_edges(v) {
            let arc = g.edge(e);
            let cap = view.capacity(e) as usize;
            if cap == 0 {
                continue;
            }
            let mut send = requests[e.index()].clone();
            debug_assert!(send.len() <= cap);
            debug_assert!(send.is_subset(&view.possession[arc.src.index()]));
            if send.len() < cap {
                let mut candidates =
                    view.possession[arc.src.index()].difference(&view.possession[arc.dst.index()]);
                candidates.subtract(&send);
                let room = cap - send.len();
                rarest_flood_fill(&mut send, &candidates, room, view.aggregates, rng);
            }
            if !send.is_empty() {
                out.push((e, send));
            }
        }
        out
    }
}

/// Per-vertex restatement of [`TreeStripe`]: each vertex assembles the
/// sends on its parent arcs (the arcs delivering stripes *to* it).
///
/// Tree striping touches an arc's budget and send set only through the
/// arc's unique destination, so regrouping the legacy tree-major loop by
/// destination preserves the exact per-arc operation sequence — this
/// strategy's schedules equal [`TreeStripe`]'s move for move (tested),
/// making it the anchor that pins the sharded engine to the legacy one.
#[derive(Debug)]
pub struct ShardedTreeStripe {
    k: usize,
    /// `trees[j][v]` = the arc delivering stripe `j` to vertex `v`;
    /// built by the same BFS as [`TreeStripe`].
    trees: Vec<Vec<Option<EdgeId>>>,
}

impl ShardedTreeStripe {
    /// Creates a `k`-tree striping strategy.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one tree");
        ShardedTreeStripe {
            k,
            trees: Vec::new(),
        }
    }
}

impl VertexStrategy for ShardedTreeStripe {
    fn name(&self) -> &'static str {
        "sharded-tree-stripe"
    }

    fn tier(&self) -> KnowledgeTier {
        KnowledgeTier::Aggregates
    }

    fn reset(&mut self, instance: &Instance) {
        let g = instance.graph();
        let root = best_root(instance);
        self.trees = (0..self.k)
            .map(|j| TreeStripe::build_tree(g, root, j))
            .collect();
    }

    fn plan_sends(
        &self,
        view: &WorldView<'_>,
        v: NodeId,
        _requests: &[TokenSet],
        _rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let g = view.graph();
        // Per-arc accumulators for this vertex's parent arcs, visited in
        // stripe order — the same order the legacy tree-major loop
        // touches them. `k` is small, so a linear scan beats a map.
        let mut entries: Vec<(EdgeId, usize, TokenSet)> = Vec::new();
        for (j, tree) in self.trees.iter().enumerate() {
            let Some(e) = tree[v.index()] else {
                continue;
            };
            let slot = match entries.iter().position(|(edge, _, _)| *edge == e) {
                Some(slot) => slot,
                None => {
                    let cap = view.capacity(e) as usize;
                    entries.push((e, cap, TokenSet::new(view.instance.num_tokens())));
                    entries.len() - 1
                }
            };
            let (_, budget, send) = &mut entries[slot];
            if *budget == 0 {
                continue;
            }
            let arc = g.edge(e);
            // Stripe-j tokens the parent has and this vertex lacks.
            let mut eligible =
                view.possession[arc.src.index()].difference(&view.possession[v.index()]);
            for t in eligible.clone().iter() {
                if t.index() % self.k != j {
                    eligible.remove(t);
                }
            }
            eligible.subtract(send);
            eligible.truncate(*budget);
            *budget -= eligible.len();
            send.union_with(&eligible);
        }
        entries
            .into_iter()
            .filter(|(_, _, send)| !send.is_empty())
            .map(|(e, _, send)| (e, send))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig};
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
    fn sharded_tree_stripe_matches_legacy_exactly() {
        // Tree striping consumes no randomness, so the per-vertex
        // regrouping must reproduce the legacy strategy move for move —
        // on every shard count.
        for seed in [3u64, 4, 5] {
            let instance = random_instance(seed);
            for k in [1usize, 2, 4] {
                let legacy = run(&mut TreeStripe::new(k), &instance, 31);
                for shards in [1usize, 4] {
                    let sharded = run(
                        &mut Sharded::new(ShardedTreeStripe::new(k), shards),
                        &instance,
                        31,
                    );
                    assert_eq!(
                        legacy.schedule, sharded.schedule,
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
