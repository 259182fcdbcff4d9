//! Per-neighbor decision primitives shared by the lockstep strategies
//! and the asynchronous [`ocd-net`] runtime.
//!
//! The §5.1 heuristics are defined as *local* rules — what one sender
//! puts on one arc, what one receiver requests from its in-peers — and
//! the lockstep engine merely iterates those rules in a fixed order.
//! The asynchronous runtime makes the same decisions from each actor's
//! *believed* peer state instead of the true possession. Factoring the
//! rules here means both executions run literally the same code, so the
//! differential test (`ocd-net` at latency 1 / loss 0 vs. the lockstep
//! engine) can demand bit-identical RNG consumption, not just similar
//! outcomes.
//!
//! Every function draws from the RNG in a documented, input-determined
//! order; callers that interleave these calls identically see identical
//! decisions.
//!
//! [`ocd-net`]: https://docs.rs/ocd-net

use ocd_core::knowledge::AggregateKnowledge;
use ocd_core::{Token, TokenSet};
use ocd_graph::EdgeId;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Sorts `tokens` ascending by aggregate rarity (fewest holders first),
/// breaking ties uniformly at random. Draws exactly one `u32` per token,
/// in ascending token order.
pub fn rarest_first(
    tokens: &TokenSet,
    aggregates: &AggregateKnowledge,
    rng: &mut dyn RngCore,
) -> Vec<Token> {
    let mut keyed: Vec<(u32, u32, Token)> = tokens
        .iter()
        .map(|t| (aggregates.rarity(t), rng.next_u32(), t))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, _, t)| t).collect()
}

/// The Random heuristic's per-arc rule: a uniform random subset of size
/// `cap` of the candidate tokens, or all of them if they fit. Draws from
/// the RNG only when `candidates.len() > cap` (a `partial_shuffle` of
/// `cap` slots).
pub fn random_fill(candidates: TokenSet, cap: usize, rng: &mut dyn RngCore) -> TokenSet {
    let mut pool: Vec<Token> = candidates.iter().collect();
    if pool.len() <= cap {
        candidates
    } else {
        let (chosen, _) = pool.partial_shuffle(rng, cap);
        TokenSet::from_tokens(candidates.universe(), chosen.iter().copied())
    }
}

/// The Local heuristic's flood rule: extend `send` with up to `room`
/// tokens from `candidates`, rarest first, preferring tokens some vertex
/// still needs, ties broken uniformly at random. `candidates` must be
/// disjoint from `send`. Draws one `u32` per candidate (in ascending
/// token order) even when everything fits — ranking happens before
/// truncation.
pub fn rarest_flood_fill(
    send: &mut TokenSet,
    candidates: &TokenSet,
    room: usize,
    aggregates: &AggregateKnowledge,
    rng: &mut dyn RngCore,
) {
    let mut ranked: Vec<(bool, u32, u32, Token)> = candidates
        .iter()
        .map(|t| {
            (
                !aggregates.is_needed(t), // needed first
                aggregates.rarity(t),
                rng.random::<u32>(),
                t,
            )
        })
        .collect();
    ranked.sort_unstable();
    for (_, _, _, t) in ranked.into_iter().take(room) {
        send.insert(t);
    }
}

/// The per-neighbor-queue flood rule: extend `send` with up to `room`
/// tokens from `candidates`, preferring tokens some vertex still needs,
/// then rarest first, ties broken by ascending token id. Fully
/// deterministic — no RNG — which is what makes the per-neighbor-queue
/// policy reproducible across seeds in both the lockstep engine and the
/// asynchronous runtime.
pub fn deterministic_rarest_fill(
    send: &mut TokenSet,
    candidates: &TokenSet,
    room: usize,
    aggregates: &AggregateKnowledge,
) {
    let mut ranked: Vec<(bool, u32, Token)> = candidates
        .iter()
        .map(|t| (!aggregates.is_needed(t), aggregates.rarity(t), t))
        .collect();
    ranked.sort_unstable();
    for (_, _, t) in ranked.into_iter().take(room) {
        send.insert(t);
    }
}

/// The Local heuristic's receiver rule: subdivide `need` into per-in-arc
/// requests so no two in-peers are asked for the same token. Rarest
/// tokens are assigned first (they claim scarce slots); each token goes
/// to the eligible arc — peer holds it (`peer_set(e)` is what the
/// receiver knows arc `e`'s source to hold), request list below
/// `capacity` — with the lightest load so far, ties broken uniformly at
/// random. Returns one request set per entry of `in_edges`, aligned by
/// index.
///
/// RNG consumption: one `u32` per token of `need`, in ascending token
/// order (the [`rarest_first`] tie-breaks), then one per *eligible* arc
/// per token, in rank order and then `in_edges` order. Only tokens some
/// in-peer with a nonzero capacity holds can have an eligible arc, so
/// only those are ranked and assigned; the rest still draw their
/// tie-break, which keeps the stream independent of what the peers
/// hold. When no needed token is reachable the call only draws.
pub fn subdivide_requests<'s>(
    need: &TokenSet,
    in_edges: &[EdgeId],
    peer_set: &dyn Fn(EdgeId) -> &'s TokenSet,
    capacity: &dyn Fn(EdgeId) -> u32,
    aggregates: &AggregateKnowledge,
    rng: &mut dyn RngCore,
) -> Vec<TokenSet> {
    let m = need.universe();
    let mut requests: Vec<TokenSet> = vec![TokenSet::new(m); in_edges.len()];
    let mut reach = TokenSet::new(m);
    for &e in in_edges {
        if capacity(e) > 0 {
            reach.union_with(peer_set(e));
        }
    }
    reach.intersect_with(need);
    if reach.is_empty() {
        for _ in 0..need.len() {
            rng.next_u32();
        }
        return requests;
    }
    let caps: Vec<usize> = in_edges.iter().map(|&e| capacity(e) as usize).collect();
    let peers: Vec<&TokenSet> = in_edges.iter().map(|&e| peer_set(e)).collect();
    let mut ranked: Vec<(u32, u32, Token)> = Vec::with_capacity(reach.len());
    for t in need.iter() {
        let draw = rng.next_u32();
        if reach.contains(t) {
            ranked.push((aggregates.rarity(t), draw, t));
        }
    }
    ranked.sort_unstable();
    let mut load: Vec<usize> = vec![0; in_edges.len()];
    for (_, _, t) in ranked {
        let mut best: Option<(usize, u32, EdgeId, usize)> = None; // (load, jitter, edge, slot)
        for (slot, &e) in in_edges.iter().enumerate() {
            if load[slot] >= caps[slot] || !peers[slot].contains(t) {
                continue;
            }
            let key = (load[slot], rng.next_u32(), e, slot);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        if let Some((_, _, _, slot)) = best {
            requests[slot].insert(t);
            load[slot] += 1;
        }
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn uniform_aggregates(m: usize) -> AggregateKnowledge {
        AggregateKnowledge {
            have_counts: vec![1; m],
            need_counts: vec![1; m],
        }
    }

    #[test]
    fn random_fill_returns_everything_when_it_fits() {
        let candidates = TokenSet::from_tokens(8, [Token::new(1), Token::new(5)]);
        let mut rng = StdRng::seed_from_u64(0);
        let before = rng.clone();
        let send = random_fill(candidates.clone(), 3, &mut rng);
        assert_eq!(send, candidates);
        // No draw happened: the RNG state is untouched.
        assert_eq!(rng.random::<u64>(), before.clone().random::<u64>());
    }

    #[test]
    fn random_fill_respects_cap() {
        let candidates = TokenSet::full(16);
        let mut rng = StdRng::seed_from_u64(1);
        let send = random_fill(candidates.clone(), 5, &mut rng);
        assert_eq!(send.len(), 5);
        assert!(send.is_subset(&candidates));
    }

    #[test]
    fn rarest_flood_fill_prefers_needed_then_rare() {
        let aggregates = AggregateKnowledge {
            have_counts: vec![5, 1, 3],
            need_counts: vec![0, 1, 1], // token 0 no longer needed anywhere
        };
        let mut send = TokenSet::new(3);
        let mut rng = StdRng::seed_from_u64(2);
        rarest_flood_fill(&mut send, &TokenSet::full(3), 2, &aggregates, &mut rng);
        assert!(send.contains(Token::new(1)), "rarest needed token first");
        assert!(send.contains(Token::new(2)));
        assert!(!send.contains(Token::new(0)), "unneeded token loses");
    }

    #[test]
    fn deterministic_fill_prefers_needed_then_rare_then_id() {
        let aggregates = AggregateKnowledge {
            have_counts: vec![5, 1, 1, 3],
            need_counts: vec![0, 1, 1, 1], // token 0 no longer needed
        };
        let mut send = TokenSet::new(4);
        deterministic_rarest_fill(&mut send, &TokenSet::full(4), 2, &aggregates);
        assert!(send.contains(Token::new(1)), "rarest needed, lowest id");
        assert!(send.contains(Token::new(2)), "rarity tie broken by id");
        assert!(!send.contains(Token::new(0)));
        assert!(!send.contains(Token::new(3)));
    }

    #[test]
    fn subdivide_never_duplicates_a_token() {
        let need = TokenSet::full(4);
        let all = TokenSet::full(4);
        let in_edges = [EdgeId::new(0), EdgeId::new(1)];
        let mut rng = StdRng::seed_from_u64(3);
        let requests = subdivide_requests(
            &need,
            &in_edges,
            &|_| &all,
            &|_| 2,
            &uniform_aggregates(4),
            &mut rng,
        );
        assert_eq!(requests.len(), 2);
        assert!(!requests[0].intersects(&requests[1]));
        assert_eq!(requests[0].len() + requests[1].len(), 4);
        assert!(requests.iter().all(|r| r.len() <= 2));
    }

    #[test]
    fn subdivide_skips_peers_without_the_token() {
        let need = TokenSet::full(2);
        let (none, all) = (TokenSet::new(2), TokenSet::full(2));
        let in_edges = [EdgeId::new(0), EdgeId::new(1)];
        let mut rng = StdRng::seed_from_u64(4);
        // Only arc 1's peer holds anything.
        let requests = subdivide_requests(
            &need,
            &in_edges,
            &|e| if e.index() == 1 { &all } else { &none },
            &|_| 4,
            &uniform_aggregates(2),
            &mut rng,
        );
        assert!(requests[0].is_empty());
        assert_eq!(requests[1].len(), 2);
    }

    #[test]
    fn subdivide_respects_per_arc_capacity() {
        let need = TokenSet::full(6);
        let all = TokenSet::full(6);
        let in_edges = [EdgeId::new(0)];
        let mut rng = StdRng::seed_from_u64(5);
        let requests = subdivide_requests(
            &need,
            &in_edges,
            &|_| &all,
            &|_| 2,
            &uniform_aggregates(6),
            &mut rng,
        );
        assert_eq!(requests[0].len(), 2, "capacity bounds the request list");
    }

    #[test]
    fn subdivide_with_nothing_reachable_only_draws_the_tie_breaks() {
        let need = TokenSet::from_range(70, 3..68);
        let held = TokenSet::from_range(70, 0..3);
        let in_edges = [EdgeId::new(0), EdgeId::new(1)];
        let mut rng = StdRng::seed_from_u64(6);
        let mut expected = rng.clone();
        let requests = subdivide_requests(
            &need,
            &in_edges,
            &|_| &held,
            &|_| 3,
            &uniform_aggregates(70),
            &mut rng,
        );
        assert!(requests.iter().all(TokenSet::is_empty));
        for _ in 0..need.len() {
            expected.next_u32();
        }
        assert_eq!(rng.next_u64(), expected.next_u64());
    }

    /// The per-token body [`subdivide_requests`] replaced: it ranks every
    /// needed token and asks a predicate about each (arc, token) pair.
    /// Kept as the reference the word-level version must match draw for
    /// draw.
    fn subdivide_requests_per_token(
        need: &TokenSet,
        in_edges: &[EdgeId],
        peer_has: &dyn Fn(EdgeId, Token) -> bool,
        capacity: &dyn Fn(EdgeId) -> u32,
        aggregates: &AggregateKnowledge,
        rng: &mut dyn RngCore,
    ) -> Vec<TokenSet> {
        let m = need.universe();
        let mut load: Vec<usize> = vec![0; in_edges.len()];
        let mut requests: Vec<TokenSet> = vec![TokenSet::new(m); in_edges.len()];
        for t in rarest_first(need, aggregates, rng) {
            let mut best: Option<(usize, u32, EdgeId, usize)> = None;
            for (slot, &e) in in_edges.iter().enumerate() {
                if load[slot] >= capacity(e) as usize {
                    continue;
                }
                if !peer_has(e, t) {
                    continue;
                }
                let key = (load[slot], rng.next_u32(), e, slot);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            if let Some((_, _, _, slot)) = best {
                requests[slot].insert(t);
                load[slot] += 1;
            }
        }
        requests
    }

    /// A random subset of `0..m` holding each token with probability
    /// `percent / 100`.
    fn random_set(m: usize, percent: u32, rng: &mut StdRng) -> TokenSet {
        TokenSet::from_tokens(
            m,
            (0..m)
                .filter(|_| rng.random_range(0..100u32) < percent)
                .map(Token::new),
        )
    }

    proptest::proptest! {
        /// The word-level `subdivide_requests` returns the same request
        /// sets as the per-token reference and leaves the RNG in the same
        /// state, over random needs, peer sets (empty, sparse, dense and
        /// disjoint from the need included), capacities (zero included)
        /// and rarity ties.
        #[test]
        fn subdivide_matches_the_per_token_reference(
            m in 1usize..=150,
            arcs in 0usize..=6,
            need_percent in 0u32..=100,
            peer_percent in 0u32..=100,
            disjoint in proptest::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let need = random_set(m, need_percent, &mut rng);
            let in_edges: Vec<EdgeId> = (0..arcs).map(|i| EdgeId::new(3 * i + 1)).collect();
            let peers: Vec<TokenSet> = (0..arcs)
                .map(|_| {
                    let mut peer = random_set(m, peer_percent, &mut rng);
                    if disjoint {
                        peer.subtract(&need);
                    }
                    peer
                })
                .collect();
            let caps: Vec<u32> = (0..arcs).map(|_| rng.random_range(0..=4)).collect();
            let aggregates = AggregateKnowledge {
                have_counts: (0..m).map(|_| rng.random_range(0..4)).collect(),
                need_counts: (0..m).map(|_| rng.random_range(0..3)).collect(),
            };
            let slot = |e: EdgeId| (e.index() - 1) / 3;
            let mut fast_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut reference_rng = fast_rng.clone();
            let fast = subdivide_requests(
                &need,
                &in_edges,
                &|e| &peers[slot(e)],
                &|e| caps[slot(e)],
                &aggregates,
                &mut fast_rng,
            );
            let reference = subdivide_requests_per_token(
                &need,
                &in_edges,
                &|e, t| peers[slot(e)].contains(t),
                &|e| caps[slot(e)],
                &aggregates,
                &mut reference_rng,
            );
            proptest::prop_assert_eq!(fast, reference);
            proptest::prop_assert_eq!(fast_rng.next_u64(), reference_rng.next_u64());
        }
    }
}
