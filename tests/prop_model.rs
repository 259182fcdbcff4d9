//! Property-based tests of the core data structures: TokenSet against a
//! BTreeSet model, schedule replay laws, and pruning invariants.

use ocd::core::{prune, validate, Schedule, Token, TokenSet};
use ocd::prelude::{DiGraph, Instance};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Universes on and around the word boundaries of both storages: a set
/// keeps up to two words (128 tokens) inline and boxes larger ones.
const UNIVERSES: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 180];

/// Draws a universe: three times in four one of [`UNIVERSES`], otherwise
/// any size up to 200.
fn universe() -> impl Strategy<Value = usize> {
    (0..UNIVERSES.len() * 4 / 3, 0usize..=200)
        .prop_map(|(pick, any)| UNIVERSES.get(pick).copied().unwrap_or(any))
}

/// Up to 60 raw draws, reduced into a universe by [`members`].
fn raw_vec() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 0..60)
}

/// `raw` reduced into `0..universe` (empty for the empty universe).
fn members(universe: usize, raw: &[usize]) -> Vec<usize> {
    raw.iter()
        .filter(|_| universe > 0)
        .map(|t| t % universe)
        .collect()
}

fn to_set(universe: usize, tokens: &[usize]) -> TokenSet {
    TokenSet::from_tokens(universe, tokens.iter().map(|&i| Token::new(i)))
}

fn to_model(tokens: &[usize]) -> BTreeSet<usize> {
    tokens.iter().copied().collect()
}

fn hash_of(set: &TokenSet) -> u64 {
    let mut hasher = DefaultHasher::new();
    set.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #[test]
    fn tokenset_matches_btreeset_model(u in universe(), a in raw_vec(), b in raw_vec()) {
        let (a, b) = (members(u, &a), members(u, &b));
        let (sa, sb) = (to_set(u, &a), to_set(u, &b));
        let (ma, mb) = (to_model(&a), to_model(&b));
        prop_assert_eq!(sa.len(), ma.len());
        prop_assert_eq!(sa.is_empty(), ma.is_empty());
        let union: BTreeSet<usize> = ma.union(&mb).copied().collect();
        let inter: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
        let diff: BTreeSet<usize> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(
            sa.union(&sb).iter().map(Token::index).collect::<BTreeSet<_>>(),
            union
        );
        prop_assert_eq!(
            sa.intersection(&sb).iter().map(Token::index).collect::<BTreeSet<_>>(),
            inter
        );
        prop_assert_eq!(
            sa.difference(&sb).iter().map(Token::index).collect::<BTreeSet<_>>(),
            diff.clone()
        );
        prop_assert_eq!(sa.difference_len(&sb), diff.len());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.intersects(&sb), !ma.is_disjoint(&mb));
    }

    #[test]
    fn tokenset_iteration_sorted_dedup(u in universe(), a in raw_vec()) {
        let s = to_set(u, &members(u, &a));
        let items: Vec<usize> = s.iter().map(Token::index).collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(items, sorted);
    }

    #[test]
    fn tokenset_truncate_is_prefix(u in universe(), a in raw_vec(), n in 0usize..70) {
        let s = to_set(u, &members(u, &a));
        let mut t = s.clone();
        t.truncate(n);
        prop_assert_eq!(t.len(), s.len().min(n));
        let expected: Vec<Token> = s.iter().take(n).collect();
        prop_assert_eq!(t.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn tokenset_next_cyclic_always_member(u in universe(), a in raw_vec(), from in 0usize..1000) {
        let s = to_set(u, &members(u, &a));
        let from = from % (u + 1);
        match s.next_cyclic(Token::new(from)) {
            None => prop_assert!(s.is_empty()),
            Some(t) => {
                prop_assert!(s.contains(t));
                // It is the smallest member ≥ from, or the overall
                // smallest if none.
                let expected = s.iter().find(|t| t.index() >= from).or_else(|| s.first());
                prop_assert_eq!(Some(t), expected);
            }
        }
    }

    #[test]
    fn tokenset_serde_round_trip(u in universe(), a in raw_vec()) {
        let s = to_set(u, &members(u, &a));
        let json = serde_json::to_string(&s).unwrap();
        let back: TokenSet = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn tokenset_insert_remove_contains_match_model(
        u in universe(),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..1000), 0..80),
    ) {
        let mut set = TokenSet::new(u);
        let mut model = BTreeSet::new();
        for (insert, raw) in ops.into_iter().filter(|_| u > 0) {
            let t = raw % u;
            if insert {
                prop_assert_eq!(set.insert(Token::new(t)), model.insert(t));
            } else {
                prop_assert_eq!(set.remove(Token::new(t)), model.remove(&t));
            }
        }
        for t in 0..u {
            prop_assert_eq!(set.contains(Token::new(t)), model.contains(&t));
        }
        prop_assert_eq!(set.first().map(Token::index), model.first().copied());
        prop_assert_eq!(set.len(), model.len());
    }

    #[test]
    fn tokenset_clear_copy_from_and_full(u in universe(), a in raw_vec(), b in raw_vec()) {
        let (a, b) = (to_set(u, &members(u, &a)), to_set(u, &members(u, &b)));
        let mut copy = b.clone();
        copy.copy_from(&a);
        prop_assert_eq!(&copy, &a);
        copy.clear();
        prop_assert!(copy.is_empty());
        prop_assert_eq!(copy, TokenSet::new(u));
        let full = TokenSet::full(u);
        prop_assert!(full.is_full());
        prop_assert_eq!(full.len(), u);
        prop_assert_eq!(&full, &TokenSet::from_range(u, 0..u));
        prop_assert_eq!(full.first().map(Token::index), (u > 0).then_some(0));
        prop_assert_eq!(a.is_full(), a.len() == u);
        prop_assert!(a.is_subset(&full));
    }

    #[test]
    fn tokenset_equal_sets_compare_and_hash_equal(u in universe(), a in raw_vec(), b in raw_vec()) {
        let (a, b) = (members(u, &a), members(u, &b));
        let reference = to_set(u, &a);
        // The same members, built five other ways.
        let mut reversed = TokenSet::new(u);
        for &t in a.iter().rev() {
            reversed.insert(Token::new(t));
        }
        let mut grown_and_shrunk = to_set(u, &b);
        grown_and_shrunk.union_with(&reference);
        for t in to_model(&b).difference(&to_model(&a)) {
            grown_and_shrunk.remove(Token::new(*t));
        }
        let complement = TokenSet::full(u).difference(&TokenSet::full(u).difference(&reference));
        let mut copied = TokenSet::full(u);
        copied.copy_from(&reference);
        let decoded: TokenSet =
            serde_json::from_str(&serde_json::to_string(&reference).unwrap()).unwrap();
        for other in [reversed, grown_and_shrunk, complement, copied, decoded] {
            prop_assert_eq!(&other, &reference);
            prop_assert_eq!(hash_of(&other), hash_of(&reference));
        }
    }
}

/// Builds a random — always valid — schedule on a random symmetric
/// graph by greedily flooding random subsets, then returns everything
/// needed to assert replay/prune laws.
fn arbitrary_valid_run() -> impl Strategy<Value = (Instance, Schedule)> {
    (2usize..7, 1usize..5, 0u64..1000).prop_map(|(n, m, seed)| {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DiGraph::with_nodes(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.random_bool(0.7) {
                    g.add_edge_symmetric(g.node(u), g.node(v), rng.random_range(1..4))
                        .unwrap();
                }
            }
        }
        // Stitch to guarantee satisfiability of all-want-all.
        let mut builder = Instance::builder(g, m).have_set(0, TokenSet::full(m));
        for v in 1..n {
            if rng.random_bool(0.6) {
                builder = builder.want_set(v, TokenSet::full(m));
            }
        }
        let instance = builder.build().unwrap();

        // Random valid schedule: a few steps of random legal sends.
        let mut possession: Vec<TokenSet> = instance.have_all().to_vec();
        let mut schedule = Schedule::new();
        let steps = rng.random_range(0..6);
        for _ in 0..steps {
            let mut sends = Vec::new();
            let mut arriving: Vec<TokenSet> = possession.clone();
            for e in instance.graph().edge_ids() {
                let arc = instance.graph().edge(e);
                let mut candidates = possession[arc.src.index()].clone();
                if candidates.is_empty() || rng.random_bool(0.3) {
                    continue;
                }
                // Random subset up to capacity (may include re-sends —
                // legal, wasteful, exactly what pruning must handle).
                let mut chosen = TokenSet::new(m);
                let pool: Vec<Token> = candidates.iter().collect();
                for t in pool {
                    if chosen.len() < arc.capacity as usize && rng.random_bool(0.5) {
                        chosen.insert(t);
                    }
                }
                candidates.clear();
                if !chosen.is_empty() {
                    arriving[arc.dst.index()].union_with(&chosen);
                    sends.push((e, chosen));
                }
            }
            possession = arriving;
            schedule.push_step(sends);
        }
        (instance, schedule)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_accepts_constructed_valid_schedules((instance, schedule) in arbitrary_valid_run()) {
        let replay = validate::replay(&instance, &schedule);
        prop_assert!(replay.is_ok(), "constructed-valid schedule rejected: {:?}", replay.err());
    }

    #[test]
    fn prune_preserves_validity_success_and_metrics(
        (instance, schedule) in arbitrary_valid_run()
    ) {
        let before = validate::replay(&instance, &schedule).unwrap();
        let (pruned, stats) = prune::prune(&instance, &schedule);
        prop_assert_eq!(pruned.makespan(), schedule.makespan());
        prop_assert_eq!(pruned.bandwidth() + stats.total_removed(), schedule.bandwidth());
        let after = validate::replay(&instance, &pruned).unwrap();
        prop_assert_eq!(before.is_successful(), after.is_successful());
        // Wanted tokens that arrived still arrive.
        for v in instance.graph().nodes() {
            let want = instance.want(v);
            let got_before = want.intersection(before.possession(schedule.makespan(), v));
            let got_after = want.intersection(after.possession(pruned.makespan(), v));
            prop_assert_eq!(got_before, got_after, "pruning lost a wanted delivery at {}", v);
        }
        // Pruning is idempotent.
        let (pruned2, stats2) = prune::prune(&instance, &pruned);
        prop_assert_eq!(stats2.total_removed(), 0, "pruning not idempotent");
        prop_assert_eq!(pruned2, pruned);
    }

    #[test]
    fn schedule_serde_round_trip((instance, schedule) in arbitrary_valid_run()) {
        let json = serde_json::to_string(&schedule).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &schedule);
        let json = serde_json::to_string(&instance).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &instance);
    }
}
