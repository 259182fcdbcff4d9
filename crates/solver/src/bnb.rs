//! Exact FOCD (minimum makespan) by branch and bound.
//!
//! Iterative deepening on the makespan: for each candidate `τ` starting
//! at the admissible lower bound, a depth-first search asks whether a
//! successful schedule of exactly `τ` steps exists. Within a timestep
//! the search enumerates, arc by arc, which *useful* tokens (tokens the
//! destination lacks and the source holds) each arc carries, and keeps
//! only *maximal* steps: possession only grows, so for makespan leaving
//! undone a transfer that fits never helps. Without [`NodeBudgets`]
//! each arc carries as many useful tokens as its capacity allows, so
//! only the *choice* of tokens branches. Under node budgets an arc may
//! carry fewer, leaving a shared uplink or downlink to a sibling arc;
//! no token goes to a vertex already receiving it that step, and every
//! enumerated step counts against the node limit. Pruning:
//!
//! - the `ocd-core::bounds::remaining_makespan` admissible bound against
//!   the remaining budget;
//! - a transposition table keyed by the full possession state,
//!   remembering the largest budget that already failed from that state.
//!
//! Practical while the possession state is small: the paper's "small
//! graphs with few files" regime (roughly `n·m ≲ 25` with moderate
//! capacities), and under unit uplinks about 16 possession bits (a
//! `G(8, p)` overlay with 2 parts).

use crate::SolveError;
use ocd_core::bounds::{counting_makespan_lower_bound, remaining_makespan};
use ocd_core::span::{NoopSpans, SpanRecorder};
use ocd_core::{Instance, NodeBudgets, Schedule, Timestep, Token, TokenSet};
use ocd_graph::EdgeId;
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Tuning for [`solve_focd`].
#[derive(Debug, Clone)]
pub struct BnbOptions {
    /// Largest makespan to try before giving up.
    pub max_makespan: usize,
    /// Search node budget: expanded states, plus enumerated timesteps
    /// when the instance carries node budgets.
    pub node_limit: u64,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions {
            max_makespan: 64,
            node_limit: 50_000_000,
        }
    }
}

/// Result of the exact search.
#[derive(Debug, Clone)]
pub struct BnbResult {
    /// An optimal (minimum-makespan) successful schedule.
    pub schedule: Schedule,
    /// Its makespan (`schedule.makespan()`).
    pub makespan: usize,
    /// Branches explored across all deepening iterations.
    pub nodes: u64,
}

/// Decision procedure for DFOCD (§3.2): is there a successful schedule
/// of at most `tau` steps? Returns it if so.
///
/// # Errors
///
/// [`SolveError::NodeLimit`] if the budget is exhausted; unsatisfiable
/// and over-horizon cases return `Ok(None)`.
pub fn decide_focd(
    instance: &Instance,
    tau: usize,
    options: &BnbOptions,
) -> Result<Option<Schedule>, SolveError> {
    let mut search = Search::new(instance, instance.node_budgets(), options.node_limit);
    Ok(search.dfs(instance.have_all(), tau)?.map(schedule_of))
}

/// Solves FOCD exactly: the minimum makespan and a witnessing schedule,
/// under the instance's arc capacities and node budgets alike.
///
/// # Errors
///
/// [`SolveError::Unsatisfiable`] if no schedule can ever succeed,
/// [`SolveError::HorizonExceeded`] past `options.max_makespan`,
/// [`SolveError::NodeLimit`] if the budget runs out.
pub fn solve_focd(instance: &Instance, options: &BnbOptions) -> Result<BnbResult, SolveError> {
    solve_focd_with_spans(instance, options, &mut NoopSpans)
}

/// [`solve_focd`] with a [`SpanRecorder`] attached: every
/// iterative-deepening horizon attempt lands as a
/// `solver.focd.horizon` span carrying `tau` and `nodes` (branches
/// explored at that horizon) counters — the search timeline of the
/// combinatorial solver. (The inner DFS visits millions of nodes and
/// is deliberately *not* per-node instrumented.)
///
/// # Errors
///
/// Same contract as [`solve_focd`].
pub fn solve_focd_with_spans<S: SpanRecorder>(
    instance: &Instance,
    options: &BnbOptions,
    spans: &mut S,
) -> Result<BnbResult, SolveError> {
    if !instance.is_satisfiable() {
        return Err(SolveError::Unsatisfiable);
    }
    let mut lower = remaining_makespan(instance.graph(), instance.have_all(), instance.want_all());
    if instance.node_budgets().is_some() {
        // The radius bound is blind to shared uplinks; the counting
        // bound's doubling argument is not.
        lower = lower.max(counting_makespan_lower_bound(instance));
    }
    if lower == usize::MAX {
        return Err(SolveError::Unsatisfiable);
    }
    let horizons = lower..=options.max_makespan;
    match deepen(
        instance,
        instance.node_budgets(),
        horizons,
        options.node_limit,
        spans,
    ) {
        Deepening::Found(result) => Ok(result),
        Deepening::Stalled(_) => Err(SolveError::NodeLimit),
        Deepening::Exhausted => Err(SolveError::HorizonExceeded {
            horizon: options.max_makespan,
        }),
    }
}

/// How [`deepen`] ended.
pub(crate) enum Deepening {
    /// A successful schedule at the first horizon not refuted.
    Found(BnbResult),
    /// The node limit ran out at this horizon; every earlier horizon of
    /// the range was refuted.
    Stalled(usize),
    /// Every horizon of the range was refuted.
    Exhausted,
}

/// The deepening loop: decides the horizons of `horizons` in order
/// under `budgets` (normally the instance's own), sharing one node
/// limit, and stops at the first feasible one. Each horizon lands as a
/// `solver.focd.horizon` span.
pub(crate) fn deepen<S: SpanRecorder>(
    instance: &Instance,
    budgets: Option<&NodeBudgets>,
    horizons: RangeInclusive<usize>,
    node_limit: u64,
    spans: &mut S,
) -> Deepening {
    let mut total_nodes = 0u64;
    for tau in horizons {
        let span = spans.open("solver.focd.horizon");
        spans.attach(span, "tau", tau as u64);
        let mut search = Search::new(instance, budgets, node_limit.saturating_sub(total_nodes));
        let found = search.dfs(instance.have_all(), tau);
        total_nodes += search.nodes;
        spans.attach(span, "nodes", search.nodes);
        spans.close(span);
        match found {
            Ok(Some(steps)) => {
                let schedule = schedule_of(steps);
                debug_assert_eq!(schedule.makespan(), tau);
                return Deepening::Found(BnbResult {
                    makespan: tau,
                    schedule,
                    nodes: total_nodes,
                });
            }
            Ok(None) => {}
            Err(_) => return Deepening::Stalled(tau),
        }
    }
    Deepening::Exhausted
}

fn schedule_of(steps: Vec<Timestep>) -> Schedule {
    let mut schedule = Schedule::new();
    for step in steps {
        schedule.push_timestep(step);
    }
    schedule
}

/// Steps `pick`, strictly increasing indices below `n`, to the next such
/// choice in lexicographic order; `false` after the last.
fn next_combination(pick: &mut [usize], n: usize) -> bool {
    let k = pick.len();
    let Some(i) = (0..k).rev().find(|&i| pick[i] < n - k + i) else {
        return false;
    };
    pick[i] += 1;
    for j in i + 1..k {
        pick[j] = pick[j - 1] + 1;
    }
    true
}

/// What the arcs chosen so far leave of each vertex's budgets this
/// step; empty without node budgets.
#[derive(Default)]
struct Ledger {
    /// Uplink and downlink left per vertex.
    uplink: Vec<u32>,
    downlink: Vec<u32>,
    /// Tokens each vertex receives this step.
    incoming: Vec<TokenSet>,
}

/// One arc's place in the step enumeration: its useful tokens and the
/// subset of them it carries.
struct ArcChoice {
    tokens: Vec<Token>,
    /// Fewest tokens the arc may carry.
    least: usize,
    /// Indices into `tokens` of the subset, strictly increasing.
    pick: Vec<usize>,
}

impl ArcChoice {
    /// The subset as a token set over `universe` tokens.
    fn carried(&self, universe: usize) -> TokenSet {
        TokenSet::from_tokens(universe, self.pick.iter().map(|&i| self.tokens[i]))
    }

    /// Steps to the next subset of the same size in lexicographic order,
    /// else to the first one a size smaller; `false` past `least`.
    fn advance(&mut self) -> bool {
        if next_combination(&mut self.pick, self.tokens.len()) {
            return true;
        }
        if self.pick.len() == self.least {
            return false;
        }
        self.pick.pop();
        for (i, p) in self.pick.iter_mut().enumerate() {
            *p = i;
        }
        true
    }
}

struct Search<'a> {
    instance: &'a Instance,
    /// Arcs in id order, the order each step is enumerated in.
    edges: Vec<EdgeId>,
    budgets: Option<&'a NodeBudgets>,
    /// For each state (possession vector), the largest remaining budget
    /// that already failed; states are keyed by their token-set blocks.
    failed: HashMap<Vec<TokenSet>, usize>,
    nodes: u64,
    node_limit: u64,
}

impl<'a> Search<'a> {
    fn new(instance: &'a Instance, budgets: Option<&'a NodeBudgets>, node_limit: u64) -> Self {
        Search {
            instance,
            edges: instance.graph().edge_ids().collect(),
            budgets,
            failed: HashMap::new(),
            nodes: 0,
            node_limit,
        }
    }

    /// Counts one node against the limit.
    fn charge(&mut self) -> Result<(), SolveError> {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            return Err(SolveError::NodeLimit);
        }
        Ok(())
    }

    fn satisfied(&self, possession: &[TokenSet]) -> bool {
        self.instance
            .want_all()
            .iter()
            .zip(possession)
            .all(|(w, p)| w.is_subset(p))
    }

    /// Is a success reachable in at most `budget` further steps?
    fn dfs(
        &mut self,
        possession: &[TokenSet],
        budget: usize,
    ) -> Result<Option<Vec<Timestep>>, SolveError> {
        if self.satisfied(possession) {
            return Ok(Some(Vec::new()));
        }
        if budget == 0 {
            return Ok(None);
        }
        let bound = remaining_makespan(self.instance.graph(), possession, self.instance.want_all());
        if bound > budget {
            return Ok(None);
        }
        if let Some(&failed_budget) = self.failed.get(possession) {
            if budget <= failed_budget {
                return Ok(None);
            }
        }
        self.charge()?;

        let result = self.enumerate_step(possession, budget)?;
        if result.is_none() {
            let entry = self.failed.entry(possession.to_vec()).or_insert(0);
            *entry = (*entry).max(budget);
        }
        Ok(result)
    }

    /// Enumerates the maximal steps from `possession` and searches one
    /// timestep deeper from each. The enumeration is an odometer over
    /// the arcs in id order, so it takes no stack per arc. Without node
    /// budgets an arc carries exactly `min(capacity, useful)` tokens.
    /// Under them it carries any number up to what its capacity and both
    /// budgets leave, largest first; every step enumerated counts
    /// against the node limit, and only the maximal ones are searched.
    fn enumerate_step(
        &mut self,
        possession: &[TokenSet],
        budget: usize,
    ) -> Result<Option<Vec<Timestep>>, SolveError> {
        let mut ledger = Ledger::default();
        if let Some(b) = self.budgets {
            let n = possession.len();
            ledger.uplink = (0..n).map(|v| b.uplink(v)).collect();
            ledger.downlink = (0..n).map(|v| b.downlink(v)).collect();
            ledger.incoming = vec![TokenSet::new(self.instance.num_tokens()); n];
        }
        let mut arcs: Vec<ArcChoice> = Vec::with_capacity(self.edges.len());
        loop {
            if arcs.len() < self.edges.len() {
                // Open the next arc at its largest subset.
                let choice = self.open(arcs.len(), possession, &ledger);
                self.book(arcs.len(), &choice, &mut ledger, false);
                arcs.push(choice);
                continue;
            }
            if self.budgets.is_some() {
                self.charge()?;
            }
            if self.maximal(&arcs, possession, &ledger) {
                if let Some(rest) = self.descend(&arcs, possession, budget)? {
                    return Ok(Some(rest));
                }
            }
            // Advance the last arc that has another subset left.
            loop {
                let Some(idx) = arcs.len().checked_sub(1) else {
                    return Ok(None);
                };
                self.book(idx, &arcs[idx], &mut ledger, true);
                if arcs[idx].advance() {
                    self.book(idx, &arcs[idx], &mut ledger, false);
                    break;
                }
                arcs.pop();
            }
        }
    }

    /// Arc `idx`'s choices given the arcs before it in `ledger`.
    fn open(&self, idx: usize, possession: &[TokenSet], ledger: &Ledger) -> ArcChoice {
        let arc = self.instance.graph().edge(self.edges[idx]);
        let (src, dst) = (arc.src.index(), arc.dst.index());
        let mut useful = possession[src].difference(&possession[dst]);
        let mut room = arc.capacity;
        if self.budgets.is_some() {
            useful.subtract(&ledger.incoming[dst]);
            room = room.min(ledger.uplink[src]).min(ledger.downlink[dst]);
        }
        let tokens: Vec<Token> = useful.iter().collect();
        let most = tokens.len().min(room as usize);
        ArcChoice {
            tokens,
            least: if self.budgets.is_some() { 0 } else { most },
            pick: (0..most).collect(),
        }
    }

    /// Books arc `idx`'s current subset against the ledger's budgets,
    /// or with `undo` takes it back out; a no-op without node budgets.
    fn book(&self, idx: usize, choice: &ArcChoice, ledger: &mut Ledger, undo: bool) {
        if self.budgets.is_none() {
            return;
        }
        let arc = self.instance.graph().edge(self.edges[idx]);
        let (src, dst) = (arc.src.index(), arc.dst.index());
        let tokens = choice.carried(self.instance.num_tokens());
        let size = tokens.len() as u32;
        if undo {
            ledger.uplink[src] += size;
            ledger.downlink[dst] += size;
            ledger.incoming[dst].subtract(&tokens);
        } else {
            ledger.uplink[src] -= size;
            ledger.downlink[dst] -= size;
            ledger.incoming[dst].union_with(&tokens);
        }
    }

    /// Whether the finished step is maximal: no arc has capacity, sender
    /// uplink and receiver downlink left together with a token its
    /// sender holds that its receiver neither holds nor receives. Always
    /// so without node budgets, where every arc carries all it can.
    fn maximal(&self, arcs: &[ArcChoice], possession: &[TokenSet], ledger: &Ledger) -> bool {
        let g = self.instance.graph();
        self.budgets.is_none()
            || self.edges.iter().zip(arcs).all(|(&e, choice)| {
                let arc = g.edge(e);
                let (src, dst) = (arc.src.index(), arc.dst.index());
                choice.pick.len() == arc.capacity as usize
                    || ledger.uplink[src] == 0
                    || ledger.downlink[dst] == 0
                    || possession[src].is_subset(&possession[dst].union(&ledger.incoming[dst]))
            })
    }

    /// Applies the finished step and searches one timestep deeper.
    fn descend(
        &mut self,
        arcs: &[ArcChoice],
        possession: &[TokenSet],
        budget: usize,
    ) -> Result<Option<Vec<Timestep>>, SolveError> {
        let m = self.instance.num_tokens();
        let sends = self.edges.iter().zip(arcs);
        let step = Timestep::from_sends(sends.map(|(&e, choice)| (e, choice.carried(m))));
        if step.is_empty() {
            // A maximal step with no moves means nothing useful can
            // move; if unsatisfied this branch is dead (possession can
            // never change again).
            return Ok(None);
        }
        let g = self.instance.graph();
        let mut next = possession.to_vec();
        for (e, tokens) in step.sends() {
            next[g.edge(e).dst.index()].union_with(tokens);
        }
        if next == possession {
            return Ok(None);
        }
        match self.dfs(&next, budget - 1)? {
            Some(mut rest) => {
                rest.insert(0, step);
                Ok(Some(rest))
            }
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::bounds::makespan_lower_bound;
    use ocd_core::scenario::single_file;
    use ocd_core::validate;
    use ocd_graph::generate::classic;
    use ocd_graph::DiGraph;

    fn tok(i: usize) -> Token {
        Token::new(i)
    }

    #[test]
    fn single_hop_single_token() {
        let instance = single_file(classic::path(2, 1, false), 1, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 1);
        assert!(validate::replay(&instance, &r.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn path_relay_takes_distance_steps() {
        let instance = single_file(classic::path(4, 2, false), 1, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 3);
    }

    #[test]
    fn capacity_bottleneck() {
        // 4 tokens over a capacity-2 arc: exactly 2 steps.
        let instance = single_file(classic::path(2, 2, false), 4, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 2);
    }

    #[test]
    fn duplication_beats_flow_intuition() {
        // Star: source duplicates one token to 3 leaves in one step.
        let instance = single_file(classic::star(4, 1, false), 1, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 1);
        assert_eq!(r.schedule.bandwidth(), 3);
    }

    #[test]
    fn figure_one_minimum_time_is_two_steps() {
        // Figure 1: the minimum-time schedule takes 2 timesteps (and,
        // per the paper, spends 6 bandwidth; see the IP tests for the
        // bandwidth side of the trade-off).
        let instance = ocd_core::scenario::figure_one();
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 2);
        assert!(validate::replay(&instance, &r.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn optimum_never_below_admissible_bound() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..15 {
            let n = rng.random_range(2..5usize);
            let m = rng.random_range(1..4usize);
            let mut g = DiGraph::with_nodes(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.random_bool(0.7) {
                        g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                            .unwrap();
                    }
                }
            }
            let mut builder = Instance::builder(g, m).have_set(0, TokenSet::full(m));
            for v in 1..n {
                if rng.random_bool(0.7) {
                    builder = builder.want_set(v, TokenSet::full(m));
                }
            }
            let instance = builder.build().unwrap();
            if !instance.is_satisfiable() {
                continue;
            }
            let r = match solve_focd(&instance, &BnbOptions::default()) {
                Ok(r) => r,
                Err(SolveError::Unsatisfiable) => continue,
                Err(e) => panic!("trial {trial}: {e}"),
            };
            assert!(
                r.makespan >= makespan_lower_bound(&instance),
                "trial {trial}: optimum below admissible bound"
            );
            let replay = validate::replay(&instance, &r.schedule).unwrap();
            assert!(replay.is_successful(), "trial {trial}");
            // Optimality sanity: τ - 1 must be infeasible.
            if r.makespan > 0 {
                let shorter =
                    decide_focd(&instance, r.makespan - 1, &BnbOptions::default()).unwrap();
                assert!(shorter.is_none(), "trial {trial}: not actually optimal");
            }
        }
    }

    #[test]
    fn unsatisfiable_reported() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(g.node(1), g.node(0), 1).unwrap();
        let instance = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(1, [tok(0)])
            .build()
            .unwrap();
        assert_eq!(
            solve_focd(&instance, &BnbOptions::default()).unwrap_err(),
            SolveError::Unsatisfiable
        );
    }

    #[test]
    fn horizon_exceeded_reported() {
        let instance = single_file(classic::path(5, 1, false), 1, 0);
        let options = BnbOptions {
            max_makespan: 2,
            ..Default::default()
        };
        assert_eq!(
            solve_focd(&instance, &options).unwrap_err(),
            SolveError::HorizonExceeded { horizon: 2 }
        );
    }

    #[test]
    fn decide_focd_boundary() {
        let instance = single_file(classic::path(3, 1, false), 1, 0);
        assert!(decide_focd(&instance, 1, &BnbOptions::default())
            .unwrap()
            .is_none());
        assert!(decide_focd(&instance, 2, &BnbOptions::default())
            .unwrap()
            .is_some());
        assert!(decide_focd(&instance, 5, &BnbOptions::default())
            .unwrap()
            .is_some());
    }

    #[test]
    fn trivial_instance_zero_steps() {
        let g = classic::path(2, 1, true);
        let instance = Instance::builder(g, 1).have(0, [tok(0)]).build().unwrap();
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.schedule.bandwidth(), 0);
    }
}
