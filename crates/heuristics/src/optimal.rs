//! Analytic-optimal baselines for the uplink-constrained regime.
//!
//! Mundinger, Weber and Weiss ("Optimal Scheduling of Peer-to-Peer File
//! Dissemination") solve the broadcast problem this module scores
//! against: a server holding a file of `M` parts, `N` peers on a
//! complete overlay who all want every part, and bandwidth constrained
//! per *node* uplink rather than per arc. For unit uplinks the discrete
//! optimal makespan has a closed form ([`mww_makespan`]); for unequal
//! server/peer uplinks this module exposes a certified *lower bound*
//! ([`uplink_makespan_lower_bound`]). [`broadcast_instance`] builds the
//! broadcast itself, whose exact optimum on small sizes comes from
//! `ocd-solver`'s branch-and-bound state search, which honors the node
//! budgets; the workspace's `tests/exact_cross_checks.rs` pins the
//! closed form and the bound against it.
//!
//! `table_competitive_gap` uses these as denominators for
//! competitive-ratio scoring of the paper's heuristics at sizes far
//! beyond exhaustive search.

use ocd_core::{Instance, NodeBudgets, Token};
use ocd_graph::generate::classic;

/// `⌈log₂ x⌉` for `x ≥ 1`.
fn ceil_log2(x: usize) -> usize {
    x.next_power_of_two().trailing_zeros() as usize
}

/// The Mundinger–Weber–Weiss optimal makespan for unit uplinks: a
/// server holding `parts` tokens, `peers` peers on a complete overlay,
/// every vertex (server and peers) may upload **one token per step**,
/// downloads unconstrained. The discrete optimum is
///
/// ```text
/// T*(M, N) = M − 1 + ⌈log₂(N + 1)⌉
/// ```
///
/// *Why it is a lower bound*: the server uploads one token per step, so
/// the `M`-th distinct part first leaves the server at step ≥ `M`; at
/// that point it has 2 holders (server + 1 peer), and the holder count
/// at best doubles per step, so reaching all `N + 1` vertices takes
/// ≥ `⌈log₂(N+1)⌉ − 1` further steps. *Why it is achieved*: greedy
/// rarest-first per-neighbor-queue scheduling meets it (see
/// [`PerNeighborQueue`](crate::PerNeighborQueue)); the workspace's
/// cross-check tests certify exactness against the exact state search
/// on [`broadcast_instance`] for every `M ≤ 3, N ≤ 4`.
///
/// Degenerate cases: 0 parts or 0 peers need 0 steps.
#[must_use]
pub fn mww_makespan(parts: usize, peers: usize) -> usize {
    if parts == 0 || peers == 0 {
        return 0;
    }
    parts - 1 + ceil_log2(peers + 1)
}

/// Certified lower bound on the broadcast makespan with a server uplink
/// of `server_up` and per-peer uplinks of `peer_up` tokens per step
/// (complete overlay, downloads unconstrained). The bound is the max of
/// two arguments, each valid for *any* schedule:
///
/// - **counting**: `N·M` transfers must happen; step `t` can carry at
///   most `server_up + p·peer_up` transfers where `p` is the number of
///   peers holding at least one token, itself bounded by the transfers
///   completed so far.
/// - **last part**: fewer than `M` distinct parts have left the server
///   before step `⌈M/server_up⌉`, so some part has at most `server_up`
///   peer copies then; holders of that part then grow by at most
///   `server_up + holders·peer_up` per step and must reach `N`.
///
/// At `server_up == peer_up == 1` the bound equals [`mww_makespan`],
/// i.e. it is tight; in general it is a lower bound only (the
/// workspace's cross-check tests pin `bound ≤` the exact search's
/// optimum on [`broadcast_instance`] for every `M ≤ 3, N ≤ 4`, server
/// uplink 1–3 and peer uplink 0–2).
///
/// # Panics
///
/// Panics if `server_up == 0` while work remains (no schedule exists).
#[must_use]
pub fn uplink_makespan_lower_bound(
    parts: usize,
    peers: usize,
    server_up: u32,
    peer_up: u32,
) -> usize {
    if parts == 0 || peers == 0 {
        return 0;
    }
    assert!(server_up > 0, "a silent server can never broadcast");
    let (s, p) = (server_up as u64, peer_up as u64);
    let (n, m) = (peers as u64, parts as u64);

    // Counting bound: cumulative transfer capacity vs N·M.
    let counting = {
        let mut transfers = 0u64;
        let mut t = 0usize;
        while transfers < n * m {
            let active = transfers.min(n);
            transfers = transfers.saturating_add(s + active * p);
            t += 1;
        }
        t
    };

    // Last-part bound: departure time plus spreading time.
    let last_part = {
        let depart = parts.div_ceil(server_up as usize);
        let mut holders = s.min(n);
        let mut t = depart;
        while holders < n {
            holders = (holders + s + holders * p).min(n);
            t += 1;
        }
        t
    };

    counting.max(last_part)
}

/// Builds the Mundinger–Weber–Weiss broadcast instance: vertex 0 (the
/// server) holds all `parts` tokens on a complete symmetric overlay of
/// `1 + peers` vertices, everyone wants everything, and the attached
/// [`NodeBudgets`] give the server an uplink of `server_up` and every
/// peer `peer_up` (downlinks unconstrained). Per-arc capacities are set
/// to `max(server_up, peer_up)` so only the node budgets ever bind.
///
/// # Panics
///
/// Panics if `peers == 0`, `parts == 0`, or `server_up == 0`.
#[must_use]
pub fn broadcast_instance(parts: usize, peers: usize, server_up: u32, peer_up: u32) -> Instance {
    assert!(peers > 0 && parts > 0, "degenerate broadcast instance");
    assert!(server_up > 0, "a silent server can never broadcast");
    let n = peers + 1;
    let g = classic::complete(n, server_up.max(peer_up));
    Instance::builder(g, parts)
        .have(0, (0..parts).map(Token::new))
        .want_all_everywhere()
        .node_budgets(NodeBudgets::server_peers(n, server_up, peer_up))
        .build()
        .expect("broadcast instance is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, PerNeighborQueue, SimConfig};
    use rand::prelude::*;

    #[test]
    fn closed_form_spot_values() {
        assert_eq!(mww_makespan(1, 1), 1);
        assert_eq!(mww_makespan(1, 3), 2);
        assert_eq!(mww_makespan(1, 4), 3);
        assert_eq!(mww_makespan(2, 2), 3);
        assert_eq!(mww_makespan(3, 2), 4);
        assert_eq!(mww_makespan(0, 5), 0);
        assert_eq!(mww_makespan(5, 0), 0);
    }

    #[test]
    fn lower_bound_is_tight_at_unit_uplinks() {
        for parts in 1..=4 {
            for peers in 1..=6 {
                assert_eq!(
                    uplink_makespan_lower_bound(parts, peers, 1, 1),
                    mww_makespan(parts, peers)
                );
            }
        }
    }

    #[test]
    fn broadcast_instance_shape() {
        let inst = broadcast_instance(3, 4, 2, 1);
        assert_eq!(inst.num_vertices(), 5);
        assert_eq!(inst.num_tokens(), 3);
        assert_eq!(inst.have(inst.graph().node(0)).len(), 3);
        assert!(inst.have(inst.graph().node(1)).is_empty());
        let budgets = inst.node_budgets().expect("budgeted");
        assert_eq!(budgets.uplink(0), 2);
        assert_eq!(budgets.uplink(3), 1);
        assert!(inst.is_satisfiable());
    }

    #[test]
    fn per_neighbor_queue_meets_the_oracle_on_small_broadcasts() {
        // The policy the oracle module vouches for: on every tiny
        // unit-uplink broadcast, per-neighbor-queue scheduling achieves
        // the closed-form optimum exactly (competitive ratio 1.0).
        for parts in 1..=3 {
            for peers in 2..=4 {
                let inst = broadcast_instance(parts, peers, 1, 1);
                let mut rng = StdRng::seed_from_u64(7);
                let report = simulate(
                    &inst,
                    &mut PerNeighborQueue::new(),
                    &SimConfig::default(),
                    &mut rng,
                );
                assert!(report.success);
                assert_eq!(
                    report.steps,
                    mww_makespan(parts, peers),
                    "suboptimal at M = {parts}, N = {peers}"
                );
            }
        }
    }
}
