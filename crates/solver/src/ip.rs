//! The §3.4 time-indexed integer program.
//!
//! The paper extends the graph with a self-arc at every vertex (`E' = E ∪
//! {(v,v)}`) and creates a binary variable `x^i_{(u,v),t}` for each arc,
//! token and timestep. Self-arc variables model storage: `x^i_{(v,v),t} =
//! 1` means `v` holds `t` at time `i`. Constraints:
//!
//! - **initial**: `x^0_{(v,v),t}` fixed to `h(v)`;
//! - **possession**: a token may ride arc `(u,v)` (or persist on a
//!   self-arc) at step `i` only if `u` held or received it by step
//!   `i - 1`: `x^i_{(u,v),t} ≤ Σ_{(w,u) ∈ E'} x^{i-1}_{(w,u),t}`;
//! - **capacity**: `Σ_t x^i_{(u,v),t} ≤ c(u,v)` for real arcs (self-arcs
//!   have infinite capacity — "storage is not hard to model … simply add
//!   self-edges of infinite capacity", §2 fn. 1);
//! - **uplink/downlink** (when the instance carries
//!   [`NodeBudgets`]): per step and vertex,
//!   `Σ_{(v,·)} Σ_t x^i ≤ uplink(v)` and `Σ_{(·,v)} Σ_t x^i ≤
//!   downlink(v)`; unlimited budgets emit no row;
//! - **want**: `x^τ_{(v,v),t} ≥ 1` for `t ∈ w(v)`.
//!
//! The objective counts real-arc moves only, so the optimum is exactly
//! EOCD restricted to schedules of at most `τ` steps. Sweeping `τ`
//! traces the Figure 1 makespan/bandwidth trade-off, and
//! [`makespan_via_ip`] turns the same sweep into a certified optimal
//! makespan. Both it and the combinatorial [`bnb`](crate::bnb) search
//! honor node budgets; where the MILP runs out of nodes, the sweep
//! hands the undecided horizons to that search.
//!
//! The model is emitted **column-wise**: every constraint row is
//! declared up front ([`Problem::new_constraint`]) and each binary
//! variable then lands with its full coefficient column in one
//! [`Problem::add_column`] call, going straight into the CSC storage
//! the sparse revised simplex consumes — no dense row staging.

// Time-indexed variable tables read naturally with explicit indices.
#![allow(clippy::needless_range_loop)]

use crate::bnb::{deepen, Deepening};
use crate::SolveError;
use ocd_core::span::{NoopSpans, SpanRecorder};
use ocd_core::{Instance, NodeBudgets, Schedule, Token, TokenSet};
use ocd_lp::{ConId, LpError, MipOptions, Problem, Relation, Sense, VarId, VarKind};

/// Result of an IP solve.
#[derive(Debug, Clone)]
pub struct IpResult {
    /// The decoded schedule (valid and successful for the instance).
    pub schedule: Schedule,
    /// Optimal bandwidth within the horizon (= `schedule.bandwidth()`).
    pub bandwidth: u64,
    /// Branch-and-bound nodes the MILP solver explored.
    pub mip_nodes: usize,
    /// Total simplex pivots across every node's LP solve.
    pub lp_iterations: u64,
}

/// The assembled §3.4 model: the MILP plus the move-variable table
/// needed to decode a solution back into a schedule.
struct IpModel {
    problem: Problem,
    /// `moves[i][edge][token]` for steps `i ∈ 1..=horizon`.
    moves: Vec<Vec<Vec<VarId>>>,
}

/// Builds the time-indexed program for `instance` at `horizon`.
/// Returns `None` when the horizon is 0 and some want is unmet (no
/// model can help; the caller reports infeasibility).
///
/// Rows are declared first, then every variable is emitted as one
/// sparse column. Row families, per step `i ∈ 1..=horizon`:
///
/// - `poss_move[i][e][t]` (≤ 0): `move_{i,e,t} − hold_{i−1,src,t} ≤ 0`.
///   At `i = 1` the hold side is the constant `h(src)`: the row becomes
///   `move ≤ 0` when the source starts without the token, and is
///   omitted entirely when it starts with it (`move ≤ 1` is implied).
/// - `poss_hold[i][v][t]`: `hold_{i,v,t} − hold_{i−1,v,t} −
///   Σ_{(u,v)} move_{i,(u,v),t} ≤ 0` (rhs 1 at `i = 1` when `h(v)`
///   holds the token).
/// - `cap[i][e]` (≤ c(e)): total tokens riding the arc this step.
/// - `up[i][v]` / `dn[i][v]`: node-budget rows, only for finite budgets
///   on vertices with incident arcs.
/// - `want[v][t]` (≥ 1) on `hold_{τ,v,t}`.
fn build_ip(instance: &Instance, horizon: usize) -> Option<IpModel> {
    let g = instance.graph();
    let n = g.node_count();
    let m = instance.num_tokens();
    let edges: Vec<_> = g.edge_ids().collect();
    let mut problem = Problem::new(Sense::Minimize);

    // Time 0 is fixed by h(v): a constant, not a variable.
    let hold0: Vec<Vec<bool>> = (0..n)
        .map(|v| {
            (0..m)
                .map(|t| instance.have(g.node(v)).contains(Token::new(t)))
                .collect()
        })
        .collect();

    // --- Declare every constraint row. ---
    // poss_hold[i][v][t], i ∈ 1..=horizon (index 0 unused).
    let mut poss_hold: Vec<Vec<Vec<ConId>>> = vec![Vec::new()];
    for i in 1..=horizon {
        let level: Vec<Vec<ConId>> = (0..n)
            .map(|v| {
                (0..m)
                    .map(|t| {
                        let rhs = if i == 1 && hold0[v][t] { 1.0 } else { 0.0 };
                        problem.new_constraint(Relation::Le, rhs)
                    })
                    .collect()
            })
            .collect();
        poss_hold.push(level);
    }
    // poss_move[i][e][t]; None when the i = 1 constant side makes the
    // row vacuous.
    let mut poss_move: Vec<Vec<Vec<Option<ConId>>>> = vec![Vec::new()];
    for i in 1..=horizon {
        let level: Vec<Vec<Option<ConId>>> = edges
            .iter()
            .map(|&e| {
                let src = g.edge(e).src.index();
                (0..m)
                    .map(|t| {
                        if i == 1 && hold0[src][t] {
                            None
                        } else {
                            Some(problem.new_constraint(Relation::Le, 0.0))
                        }
                    })
                    .collect()
            })
            .collect();
        poss_move.push(level);
    }
    // cap[i][e] on real arcs.
    let mut cap: Vec<Vec<ConId>> = vec![Vec::new()];
    for _i in 1..=horizon {
        cap.push(
            edges
                .iter()
                .map(|&e| problem.new_constraint(Relation::Le, f64::from(g.capacity(e))))
                .collect(),
        );
    }
    // Node-budget rows: only finite budgets on vertices that can
    // actually send (receive) anything.
    let budgets = instance.node_budgets();
    let budget_row = |problem: &mut Problem, limit: u32, degree: usize| -> Option<ConId> {
        (limit != NodeBudgets::UNLIMITED && degree > 0)
            .then(|| problem.new_constraint(Relation::Le, f64::from(limit)))
    };
    let mut up: Vec<Vec<Option<ConId>>> = vec![Vec::new()];
    let mut dn: Vec<Vec<Option<ConId>>> = vec![Vec::new()];
    for _i in 1..=horizon {
        let (mut ups, mut dns) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for v in 0..n {
            let node = g.node(v);
            let (u_row, d_row) = match budgets {
                Some(b) => (
                    budget_row(&mut problem, b.uplink(v), g.out_edges(node).len()),
                    budget_row(&mut problem, b.downlink(v), g.in_edges(node).len()),
                ),
                None => (None, None),
            };
            ups.push(u_row);
            dns.push(d_row);
        }
        up.push(ups);
        dn.push(dns);
    }
    // want[v][t] at time τ.
    let mut want: Vec<Vec<Option<ConId>>> = vec![vec![None; m]; n];
    for v in 0..n {
        for t in 0..m {
            if instance.want(g.node(v)).contains(Token::new(t)) {
                if horizon == 0 {
                    if !hold0[v][t] {
                        return None;
                    }
                } else {
                    want[v][t] = Some(problem.new_constraint(Relation::Ge, 1.0));
                }
            }
        }
    }

    // --- Emit variables, one full column each. ---
    // hold_{i,v,t}: +1 in its own possession row; −1 in the level-(i+1)
    // possession rows it feeds (its vertex's hold row, and the move row
    // of every out-arc); +1 in the want row at the final level.
    for i in 1..=horizon {
        for v in 0..n {
            for t in 0..m {
                let mut entries = vec![(poss_hold[i][v][t], 1.0)];
                if i < horizon {
                    entries.push((poss_hold[i + 1][v][t], -1.0));
                    for e in g.out_edges(g.node(v)) {
                        if let Some(row) = poss_move[i + 1][e.index()][t] {
                            entries.push((row, -1.0));
                        }
                    }
                } else if let Some(row) = want[v][t] {
                    entries.push((row, 1.0));
                }
                problem.add_column(VarKind::Integer, 0.0, 1.0, 0.0, entries);
            }
        }
    }
    // move_{i,e,t}: +1 in its own possession row (when present), −1 in
    // the destination's hold row, +1 in the arc-capacity row and any
    // node-budget rows. Objective 1 — the bandwidth count.
    let mut moves: Vec<Vec<Vec<VarId>>> = vec![Vec::new()];
    for i in 1..=horizon {
        let mut per_edge = Vec::with_capacity(edges.len());
        for (ei, &e) in edges.iter().enumerate() {
            let arc = g.edge(e);
            let (src, dst) = (arc.src.index(), arc.dst.index());
            let mut row = Vec::with_capacity(m);
            for t in 0..m {
                let mut entries = Vec::with_capacity(5);
                if let Some(r) = poss_move[i][ei][t] {
                    entries.push((r, 1.0));
                }
                entries.push((poss_hold[i][dst][t], -1.0));
                entries.push((cap[i][ei], 1.0));
                if let Some(r) = up[i][src] {
                    entries.push((r, 1.0));
                }
                if let Some(r) = dn[i][dst] {
                    entries.push((r, 1.0));
                }
                row.push(problem.add_column(VarKind::Integer, 0.0, 1.0, 1.0, entries));
            }
            per_edge.push(row);
        }
        moves.push(per_edge);
    }
    Some(IpModel { problem, moves })
}

/// The raw §3.4 MILP at `horizon` without solving it — for relaxation
/// experiments and benchmarks that want to time
/// [`Problem::solve_lp`] (sparse revised simplex) against
/// [`Problem::solve_lp_dense`] (the retained dense reference) on the
/// same model. `None` when the horizon is 0 and some want is unmet.
#[must_use]
pub fn ip_problem(instance: &Instance, horizon: usize) -> Option<Problem> {
    build_ip(instance, horizon).map(|m| m.problem)
}

/// Minimum-bandwidth successful schedule using at most `horizon`
/// timesteps, or `Ok(None)` if no successful schedule of that length
/// exists.
///
/// # Errors
///
/// [`SolveError::Mip`] if the MILP solver hits a resource limit.
pub fn min_bandwidth_for_horizon(
    instance: &Instance,
    horizon: usize,
    options: &MipOptions,
) -> Result<Option<IpResult>, SolveError> {
    min_bandwidth_for_horizon_with_spans(instance, horizon, options, &mut NoopSpans)
}

/// [`min_bandwidth_for_horizon`] with a [`SpanRecorder`] attached: the
/// solve lands as a `solver.ip.horizon` span (counter: `tau`) wrapping
/// the MILP's `bnb.*` search-telemetry spans.
///
/// # Errors
///
/// Same contract as [`min_bandwidth_for_horizon`].
pub fn min_bandwidth_for_horizon_with_spans<S: SpanRecorder>(
    instance: &Instance,
    horizon: usize,
    options: &MipOptions,
    spans: &mut S,
) -> Result<Option<IpResult>, SolveError> {
    let Some(IpModel { problem, moves }) = build_ip(instance, horizon) else {
        return Ok(None);
    };

    let span = spans.open("solver.ip.horizon");
    spans.attach(span, "tau", horizon as u64);
    let solved = problem.solve_mip_with_spans(options, spans);
    spans.close(span);
    match solved {
        Ok(sol) => {
            let schedule = decode_schedule(instance, horizon, &moves, &sol);
            Ok(Some(IpResult {
                bandwidth: schedule.bandwidth(),
                schedule,
                mip_nodes: sol.nodes_explored,
                lp_iterations: sol.lp_iterations,
            }))
        }
        Err(LpError::Infeasible) => Ok(None),
        Err(e) => Err(SolveError::Mip(e.to_string())),
    }
}

/// Reads the move variables of a MILP solution back into a trimmed
/// [`Schedule`].
fn decode_schedule(
    instance: &Instance,
    horizon: usize,
    moves: &[Vec<Vec<VarId>>],
    sol: &ocd_lp::MipSolution,
) -> Schedule {
    let g = instance.graph();
    let m = instance.num_tokens();
    let mut schedule = Schedule::new();
    for i in 1..=horizon {
        let mut sends = Vec::new();
        for (ei, e) in g.edge_ids().enumerate() {
            let tokens: TokenSet = TokenSet::from_tokens(
                m,
                (0..m)
                    .filter(|&t| sol.value_int(moves[i][ei][t]) == 1)
                    .map(Token::new),
            );
            if !tokens.is_empty() {
                sends.push((e, tokens));
            }
        }
        schedule.push_step(sends);
    }
    schedule.trimmed()
}

/// The paper's §3.4 *hybrid* goal ("search for a bandwidth-optimal
/// solution subject to the constraint that the time be no more than
/// some constant factor of the optimal time" — listed as ongoing work):
/// solves FOCD exactly for the optimal makespan `τ*`, then minimizes
/// bandwidth within the horizon `⌊α·τ*⌋`.
///
/// Returns `(τ*, result)` where the result's schedule has makespan
/// ≤ `⌊α·τ*⌋` and minimum bandwidth among such schedules.
///
/// # Errors
///
/// Propagates the FOCD solver's errors and [`SolveError::Mip`]; the
/// hybrid horizon is feasible by construction (it contains `τ*`).
///
/// # Panics
///
/// Panics if `alpha < 1.0` (the constraint would exclude the optimum).
pub fn min_bandwidth_within_factor(
    instance: &Instance,
    alpha: f64,
    bnb_options: &crate::bnb::BnbOptions,
    mip_options: &MipOptions,
) -> Result<(usize, IpResult), SolveError> {
    assert!(alpha >= 1.0, "time factor α = {alpha} must be at least 1");
    let exact = crate::bnb::solve_focd(instance, bnb_options)?;
    let horizon = ((exact.makespan as f64) * alpha).floor() as usize;
    let result = min_bandwidth_for_horizon(instance, horizon, mip_options)?
        .expect("a horizon ≥ the exact optimum is feasible");
    Ok((exact.makespan, result))
}

/// A certified exact-makespan result from [`makespan_via_ip`].
#[derive(Debug, Clone)]
pub struct MakespanCertificate {
    /// The provably optimal makespan: the IP is feasible at this horizon
    /// and was proven infeasible at every shorter one.
    pub makespan: usize,
    /// Witness solve at the optimal horizon. With default [`MipOptions`]
    /// its schedule also has minimum bandwidth among makespan-optimal
    /// schedules; with a large `absolute_gap`, or when `searched_from`
    /// is set, it is merely feasible. A witness from the state search
    /// reports 0 MILP nodes and LP iterations.
    pub result: IpResult,
    /// Horizons below `makespan` that were certified infeasible (the
    /// combinatorial radius and counting lower bounds dispose of the
    /// rest for free).
    pub infeasible_horizons: usize,
    /// The horizon at which the MILP ran out of nodes, if it did: the
    /// [`bnb`](crate::bnb) state search decided every horizon from it
    /// up to `makespan`, and the MILP every one below it.
    pub searched_from: Option<usize>,
}

/// Outcome of the exact-makespan sweep.
#[derive(Debug, Clone)]
pub enum MakespanOutcome {
    /// Optimal makespan found and certified.
    Certified(MakespanCertificate),
    /// Neither the MILP nor the state search it falls back on decided
    /// `stalled_at` within their node limits. Every
    /// horizon `< stalled_at` is proven infeasible, so `stalled_at`
    /// is still a valid makespan **lower bound**; pairing it with any
    /// heuristic schedule's makespan gives a reported gap.
    ResourceLimit {
        /// The first undecided horizon; all below it are infeasible.
        stalled_at: usize,
    },
    /// Every horizon `≤ max_horizon` is proven infeasible.
    InfeasibleUpTo(usize),
    /// No schedule of any length can succeed (wanted tokens unreachable).
    Unsatisfiable,
}

/// Exact optimal makespan via the §3.4 IP: sweeps horizons upward from
/// the combinatorial lower bounds — the radius-based
/// [`makespan_lower_bound`](ocd_core::bounds) joined with the
/// budget-aware
/// [`counting_makespan_lower_bound`](ocd_core::bounds), whose doubling
/// argument is what keeps uplink-limited sweeps from grinding through
/// horizons only an exhaustive branch-and-bound could refute — using
/// the LP relaxation as an infeasibility prefilter (an infeasible
/// relaxation certifies the horizon infeasible without any branching)
/// and the MILP to decide the rest. The first feasible horizon is the
/// optimum, certified by the chain of infeasibility proofs below it.
///
/// The sweep honors [`NodeBudgets`]. If the MILP exhausts its node
/// limit at some horizon, the [`bnb`](crate::bnb) state search decides
/// that horizon and the later ones instead, allowed about 250
/// enumerated steps per MILP node of `options.node_limit`; the
/// certificate's `searched_from` says where it took over.
/// Pass a large `absolute_gap` in `options` to stop each feasible MILP
/// at its first incumbent (pure feasibility mode — the makespan
/// certificate is unaffected, only the witness schedule's bandwidth
/// optimality).
///
/// # Errors
///
/// [`SolveError::Mip`] only on unexpected simplex failures; node-limit
/// exhaustion of both the MILP and the state search is reported as
/// [`MakespanOutcome::ResourceLimit`], not an error.
pub fn makespan_via_ip(
    instance: &Instance,
    max_horizon: usize,
    options: &MipOptions,
) -> Result<MakespanOutcome, SolveError> {
    makespan_via_ip_with_spans(instance, max_horizon, options, &mut NoopSpans)
}

/// [`makespan_via_ip`] with a [`SpanRecorder`] attached: every horizon
/// attempt lands as a `solver.ip.horizon` span (counter: `tau`)
/// wrapping the MILP's `bnb.*` search-telemetry spans; horizons the LP
/// relaxation refutes close without children.
///
/// # Errors
///
/// Same contract as [`makespan_via_ip`].
pub fn makespan_via_ip_with_spans<S: SpanRecorder>(
    instance: &Instance,
    max_horizon: usize,
    options: &MipOptions,
    spans: &mut S,
) -> Result<MakespanOutcome, SolveError> {
    let lb = ocd_core::bounds::makespan_lower_bound(instance)
        .max(ocd_core::bounds::counting_makespan_lower_bound(instance));
    if lb == usize::MAX {
        return Ok(MakespanOutcome::Unsatisfiable);
    }
    let mut infeasible_horizons = 0;
    for tau in lb..=max_horizon {
        let Some(model) = build_ip(instance, tau) else {
            // Horizon 0 with unmet wants: infeasible by construction.
            infeasible_horizons += 1;
            continue;
        };
        let span = spans.open("solver.ip.horizon");
        spans.attach(span, "tau", tau as u64);
        // LP-relaxation prefilter: most short horizons die here, without
        // branching.
        match model.problem.solve_lp() {
            Ok(_) => {}
            Err(LpError::Infeasible) => {
                infeasible_horizons += 1;
                spans.close(span);
                continue;
            }
            Err(e) => {
                spans.close(span);
                return Err(SolveError::Mip(e.to_string()));
            }
        }
        let solved = model.problem.solve_mip_with_spans(options, spans);
        spans.close(span);
        match solved {
            Ok(sol) => {
                let schedule = decode_schedule(instance, tau, &model.moves, &sol);
                return Ok(MakespanOutcome::Certified(MakespanCertificate {
                    makespan: tau,
                    result: IpResult {
                        bandwidth: schedule.bandwidth(),
                        schedule,
                        mip_nodes: sol.nodes_explored,
                        lp_iterations: sol.lp_iterations,
                    },
                    infeasible_horizons,
                    searched_from: None,
                }));
            }
            Err(LpError::Infeasible) => {
                infeasible_horizons += 1;
            }
            Err(LpError::NodeLimit) => {
                let outcome = search_from(
                    instance,
                    tau,
                    max_horizon,
                    options,
                    infeasible_horizons,
                    spans,
                );
                return Ok(outcome);
            }
            Err(e) => return Err(SolveError::Mip(e.to_string())),
        }
    }
    Ok(MakespanOutcome::InfeasibleUpTo(max_horizon))
}

/// Enumerated steps the state search may take per MILP node allowed
/// when it decides the horizons a stalled MILP left open: at about
/// 0.4 ms per warm MILP node and 2 µs per enumerated step on the
/// stalled `G(6, p)` unit-uplink instances, the search then costs no
/// more than the MILP it replaces.
const SEARCH_STEPS_PER_MIP_NODE: u64 = 250;

/// Decides the horizons `stalled_at..=max_horizon` that a stalled MILP
/// left open by the [`bnb`](crate::bnb) state search. An instance
/// without node budgets is searched as if they were unlimited, so that
/// every enumerated step counts against the work budget.
fn search_from<S: SpanRecorder>(
    instance: &Instance,
    stalled_at: usize,
    max_horizon: usize,
    options: &MipOptions,
    infeasible_horizons: usize,
    spans: &mut S,
) -> MakespanOutcome {
    let n = instance.num_vertices();
    let unlimited = NodeBudgets::uniform(n, NodeBudgets::UNLIMITED, NodeBudgets::UNLIMITED);
    let budgets = instance.node_budgets().unwrap_or(&unlimited);
    let work = (options.node_limit as u64).saturating_mul(SEARCH_STEPS_PER_MIP_NODE);
    match deepen(
        instance,
        Some(budgets),
        stalled_at..=max_horizon,
        work,
        spans,
    ) {
        Deepening::Found(found) => MakespanOutcome::Certified(MakespanCertificate {
            makespan: found.makespan,
            result: IpResult {
                bandwidth: found.schedule.bandwidth(),
                schedule: found.schedule,
                mip_nodes: 0,
                lp_iterations: 0,
            },
            infeasible_horizons: infeasible_horizons + found.makespan - stalled_at,
            searched_from: Some(stalled_at),
        }),
        Deepening::Stalled(tau) => MakespanOutcome::ResourceLimit { stalled_at: tau },
        Deepening::Exhausted => MakespanOutcome::InfeasibleUpTo(max_horizon),
    }
}

/// Bandwidth lower bound from the **LP relaxation** of the §3.4 IP at
/// the given horizon: drop integrality and take the ceiling of the
/// optimum. Strictly stronger than the deficiency count whenever relays
/// are unavoidable, and much cheaper than the full MILP — the bound the
/// paper wished for when it asked for "calculated upper/lower bounds …
/// exact or approximated".
///
/// Returns `Ok(None)` if even the relaxation is infeasible at this
/// horizon (which implies the IP is too).
///
/// # Errors
///
/// [`SolveError::Mip`] on simplex resource failures.
pub fn bandwidth_lp_lower_bound(
    instance: &Instance,
    horizon: usize,
) -> Result<Option<u64>, SolveError> {
    let Some(model) = build_ip(instance, horizon) else {
        return Ok(None); // horizon 0 with unmet wants
    };
    match model.problem.solve_lp() {
        Ok(sol) => Ok(Some(sol.objective.ceil().max(0.0) as u64)),
        Err(LpError::Infeasible) => Ok(None),
        Err(e) => Err(SolveError::Mip(e.to_string())),
    }
}

/// Sweeps horizons `τ = lo..=hi`, reporting for each satisfiable horizon
/// the minimum bandwidth — the makespan/bandwidth Pareto curve of
/// Figure 1. Infeasible horizons yield no entry.
///
/// # Errors
///
/// Propagates MILP resource failures.
pub fn pareto_frontier(
    instance: &Instance,
    horizons: std::ops::RangeInclusive<usize>,
    options: &MipOptions,
) -> Result<Vec<(usize, u64)>, SolveError> {
    let mut out = Vec::new();
    for tau in horizons {
        if let Some(r) = min_bandwidth_for_horizon(instance, tau, options)? {
            out.push((tau, r.bandwidth));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::bounds::bandwidth_lower_bound;
    use ocd_core::scenario::single_file;
    use ocd_core::validate;
    use ocd_graph::generate::classic;
    use ocd_graph::DiGraph;

    fn tok(i: usize) -> Token {
        Token::new(i)
    }

    #[test]
    fn single_hop_ip() {
        let instance = single_file(classic::path(2, 1, false), 1, 0);
        let r = min_bandwidth_for_horizon(&instance, 1, &MipOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(r.bandwidth, 1);
        assert!(validate::replay(&instance, &r.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn horizon_too_short_is_none() {
        let instance = single_file(classic::path(3, 1, false), 1, 0);
        assert!(
            min_bandwidth_for_horizon(&instance, 1, &MipOptions::default())
                .unwrap()
                .is_none()
        );
        assert!(
            min_bandwidth_for_horizon(&instance, 2, &MipOptions::default())
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn zero_horizon_trivial_instance() {
        let g = classic::path(2, 1, true);
        let instance = Instance::builder(g, 1).have(0, [tok(0)]).build().unwrap();
        let r = min_bandwidth_for_horizon(&instance, 0, &MipOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(r.bandwidth, 0);
    }

    #[test]
    fn zero_horizon_nontrivial_is_none() {
        let instance = single_file(classic::path(2, 1, false), 1, 0);
        assert!(
            min_bandwidth_for_horizon(&instance, 0, &MipOptions::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn ip_matches_bandwidth_lower_bound_when_tight() {
        // Star with ample capacity: every deficiency costs exactly one
        // move, so IP bandwidth = lower bound.
        let instance = single_file(classic::star(4, 5, false), 3, 0);
        let r = min_bandwidth_for_horizon(&instance, 2, &MipOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(r.bandwidth, bandwidth_lower_bound(&instance));
        let replay = validate::replay(&instance, &r.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn relay_costs_extra_bandwidth() {
        // 0 -> 1 -> 2, only vertex 2 wants the token: the relay through 1
        // makes bandwidth 2 despite a single deficiency.
        let g = classic::path(3, 1, false);
        let instance = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(2, [tok(0)])
            .build()
            .unwrap();
        let r = min_bandwidth_for_horizon(&instance, 3, &MipOptions::default())
            .unwrap()
            .unwrap();
        assert_eq!(r.bandwidth, 2);
        assert_eq!(
            bandwidth_lower_bound(&instance),
            1,
            "bound is not tight here"
        );
    }

    #[test]
    fn figure_one_tradeoff_reproduced() {
        // The Figure 1 phenomenon: minimum time (2 steps) needs 6 moves;
        // minimum bandwidth (4 moves) needs 3 steps.
        let instance = ocd_core::scenario::figure_one();
        let frontier = pareto_frontier(&instance, 1..=4, &MipOptions::default()).unwrap();
        assert_eq!(frontier.first(), Some(&(2, 6)), "min-time point");
        let best_bw = frontier.iter().map(|&(_, b)| b).min().unwrap();
        assert_eq!(best_bw, 4, "min-bandwidth point");
        let at3 = frontier.iter().find(|&&(t, _)| t == 3).unwrap();
        assert_eq!(at3.1, 4, "bandwidth optimum reached at 3 steps");
    }

    #[test]
    fn lp_relaxation_bound_sandwiches() {
        // deficiency ≤ LP relaxation ≤ IP optimum, with the LP strictly
        // stronger than deficiency when relays are forced.
        let g = classic::path(3, 1, false);
        let instance = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(2, [tok(0)])
            .build()
            .unwrap();
        let lp = bandwidth_lp_lower_bound(&instance, 3).unwrap().unwrap();
        let ip = min_bandwidth_for_horizon(&instance, 3, &MipOptions::default())
            .unwrap()
            .unwrap()
            .bandwidth;
        let deficiency = ocd_core::bounds::bandwidth_lower_bound(&instance);
        assert_eq!(deficiency, 1);
        assert_eq!(lp, 2, "LP sees the forced relay");
        assert_eq!(ip, 2);
        assert!(deficiency <= lp && lp <= ip);
    }

    #[test]
    fn lp_relaxation_bound_infeasible_horizon() {
        let instance = single_file(classic::path(3, 1, false), 1, 0);
        assert!(bandwidth_lp_lower_bound(&instance, 1).unwrap().is_none());
        assert!(bandwidth_lp_lower_bound(&instance, 0).unwrap().is_none());
        assert!(bandwidth_lp_lower_bound(&instance, 2).unwrap().is_some());
    }

    #[test]
    fn lp_bound_never_exceeds_ip_on_random_instances() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(55);
        let mut checked = 0;
        while checked < 8 {
            let n = rng.random_range(2..4usize);
            let m = rng.random_range(1..3usize);
            let mut g = DiGraph::with_nodes(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.random_bool(0.7) {
                        g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                            .unwrap();
                    }
                }
            }
            let instance = Instance::builder(g, m)
                .have_set(0, TokenSet::full(m))
                .want_all_everywhere()
                .build()
                .unwrap();
            if !instance.is_satisfiable() {
                continue;
            }
            for horizon in 1..4usize {
                let lp = bandwidth_lp_lower_bound(&instance, horizon).unwrap();
                let ip =
                    min_bandwidth_for_horizon(&instance, horizon, &MipOptions::default()).unwrap();
                match (lp, ip) {
                    (Some(l), Some(r)) => assert!(l <= r.bandwidth, "LP {l} > IP {}", r.bandwidth),
                    (None, Some(r)) => {
                        panic!("LP infeasible but IP found bandwidth {}", r.bandwidth)
                    }
                    _ => {}
                }
            }
            checked += 1;
        }
    }

    #[test]
    fn hybrid_objective_interpolates_the_tradeoff() {
        use crate::bnb::BnbOptions;
        let instance = ocd_core::scenario::figure_one();
        // α = 1: stay at the time optimum, pay the bandwidth premium.
        let (tau, tight) = min_bandwidth_within_factor(
            &instance,
            1.0,
            &BnbOptions::default(),
            &MipOptions::default(),
        )
        .unwrap();
        assert_eq!((tau, tight.bandwidth), (2, 6));
        assert!(tight.schedule.makespan() <= 2);
        // α = 1.5: one extra step buys the bandwidth optimum.
        let (_, relaxed) = min_bandwidth_within_factor(
            &instance,
            1.5,
            &BnbOptions::default(),
            &MipOptions::default(),
        )
        .unwrap();
        assert_eq!(relaxed.bandwidth, 4);
        assert!(relaxed.schedule.makespan() <= 3);
        assert!(validate::replay(&instance, &relaxed.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    #[should_panic(expected = "must be at least 1")]
    fn hybrid_rejects_alpha_below_one() {
        let instance = ocd_core::scenario::figure_one();
        let _ = min_bandwidth_within_factor(
            &instance,
            0.5,
            &crate::bnb::BnbOptions::default(),
            &MipOptions::default(),
        );
    }

    #[test]
    fn makespan_via_ip_matches_bnb_on_random_instances() {
        use crate::bnb::{solve_focd, BnbOptions};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(9);
        let mut checked = 0;
        while checked < 6 {
            let n = rng.random_range(2..5usize);
            let m = rng.random_range(1..3usize);
            let mut g = DiGraph::with_nodes(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.random_bool(0.6) {
                        g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                            .unwrap();
                    }
                }
            }
            let instance = Instance::builder(g, m)
                .have_set(0, TokenSet::full(m))
                .want_all_everywhere()
                .build()
                .unwrap();
            if !instance.is_satisfiable() {
                continue;
            }
            let exact = solve_focd(&instance, &BnbOptions::default()).unwrap();
            let outcome =
                makespan_via_ip(&instance, exact.makespan + 2, &MipOptions::default()).unwrap();
            let MakespanOutcome::Certified(cert) = outcome else {
                panic!("expected certificate, got {outcome:?}");
            };
            assert_eq!(cert.makespan, exact.makespan, "IP vs B&B makespan");
            assert_eq!(cert.result.schedule.makespan(), cert.makespan);
            assert!(validate::replay(&instance, &cert.result.schedule)
                .unwrap()
                .is_successful());
            checked += 1;
        }
    }

    #[test]
    fn makespan_via_ip_honors_uplink_budgets() {
        // Star, center holds the token, ample arc capacity. Unbudgeted:
        // everything ships in one step. Uplink budget 1 at the center:
        // one leaf per step, makespan = number of leaves.
        let g = classic::star(4, 5, false);
        let free = single_file(g.clone(), 1, 0);
        let MakespanOutcome::Certified(cert) =
            makespan_via_ip(&free, 8, &MipOptions::default()).unwrap()
        else {
            panic!("unbudgeted star must certify");
        };
        assert_eq!(cert.makespan, 1);

        let budgeted = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want_all_everywhere()
            .node_budgets(NodeBudgets::uplink_only(4, 1))
            .build()
            .unwrap();
        let MakespanOutcome::Certified(cert) =
            makespan_via_ip(&budgeted, 8, &MipOptions::default()).unwrap()
        else {
            panic!("budgeted star must certify");
        };
        assert_eq!(cert.makespan, 3, "uplink 1 serializes the three leaves");
        assert_eq!(
            cert.infeasible_horizons, 0,
            "counting bound starts the sweep at the optimum — no IP infeasibility proofs"
        );
        let replay = validate::replay(&budgeted, &cert.result.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn makespan_via_ip_edge_outcomes() {
        // Unsatisfiable: wanted token unreachable (no arcs at all).
        let g = DiGraph::with_nodes(2);
        let unsat = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(1, [tok(0)])
            .build()
            .unwrap();
        assert!(matches!(
            makespan_via_ip(&unsat, 5, &MipOptions::default()).unwrap(),
            MakespanOutcome::Unsatisfiable
        ));

        // Horizon cap below the optimum: infeasible up to the cap.
        let inst = single_file(classic::path(3, 1, false), 1, 0);
        assert!(matches!(
            makespan_via_ip(&inst, 1, &MipOptions::default()).unwrap(),
            MakespanOutcome::InfeasibleUpTo(1)
        ));

        // Node limit 0: the very first MILP round trips the limit.
        let opts = MipOptions {
            node_limit: 0,
            ..MipOptions::default()
        };
        assert!(matches!(
            makespan_via_ip(&inst, 4, &opts).unwrap(),
            MakespanOutcome::ResourceLimit { stalled_at: 2 }
        ));
    }

    #[test]
    fn stalled_milp_falls_back_to_the_state_search() {
        // A seed-drawn G(6, p) unit-uplink broadcast whose optimum is 8:
        // the MILP refutes τ = 4..6, then exhausts 1,250 nodes at τ = 7.
        // The state search refutes 7 and certifies 8.
        use ocd_graph::generate::{gnp, GnpConfig};
        use rand::prelude::*;
        let config = GnpConfig {
            capacity: 1..=1,
            ..GnpConfig::paper(6)
        };
        let g = gnp(
            &config,
            &mut StdRng::seed_from_u64(17_061_486_795_440_192_168),
        );
        let instance = Instance::builder(g, 2)
            .have_set(0, TokenSet::full(2))
            .want_all_everywhere()
            .node_budgets(NodeBudgets::uplink_only(6, 1))
            .build()
            .unwrap();
        let options = MipOptions {
            node_limit: 1_250,
            absolute_gap: 1e12,
            ..MipOptions::default()
        };
        let MakespanOutcome::Certified(cert) = makespan_via_ip(&instance, 12, &options).unwrap()
        else {
            panic!("the state search must decide the stalled horizons");
        };
        assert_eq!(cert.makespan, 8);
        assert_eq!(cert.searched_from, Some(7));
        assert_eq!(
            cert.infeasible_horizons, 4,
            "τ = 4..6 by the MILP, 7 by the search"
        );
        assert_eq!(cert.result.schedule.makespan(), 8);
        assert!(validate::replay(&instance, &cert.result.schedule)
            .unwrap()
            .is_successful());

        // Without budgets the search reads them as unlimited: one MILP
        // node cannot settle the 3-token relay down a path, 250
        // enumerated steps can.
        let free = single_file(classic::path(4, 1, false), 3, 0);
        let options = MipOptions {
            node_limit: 1,
            ..MipOptions::default()
        };
        let MakespanOutcome::Certified(cert) = makespan_via_ip(&free, 8, &options).unwrap() else {
            panic!("the state search must decide the stalled horizon");
        };
        assert_eq!((cert.makespan, cert.searched_from), (5, Some(5)));
        assert!(validate::replay(&free, &cert.result.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn ip_and_bnb_agree_on_feasibility() {
        use crate::bnb::{decide_focd, BnbOptions};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let n = rng.random_range(2..4usize);
            let m = rng.random_range(1..3usize);
            let mut g = DiGraph::with_nodes(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.random_bool(0.8) {
                        g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                            .unwrap();
                    }
                }
            }
            let instance = Instance::builder(g, m)
                .have_set(0, TokenSet::full(m))
                .want_all_everywhere()
                .build()
                .unwrap();
            if !instance.is_satisfiable() {
                continue;
            }
            for tau in 0..4usize {
                let ip_feasible = min_bandwidth_for_horizon(&instance, tau, &MipOptions::default())
                    .unwrap()
                    .is_some();
                let bnb_feasible = decide_focd(&instance, tau, &BnbOptions::default())
                    .unwrap()
                    .is_some();
                assert_eq!(
                    ip_feasible, bnb_feasible,
                    "trial {trial}, horizon {tau}: IP and B&B disagree"
                );
            }
        }
    }
}
