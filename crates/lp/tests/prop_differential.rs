//! Differential property tests for the sparse revised simplex and the
//! warm-started parallel branch and bound.
//!
//! Two oracles, one per engine:
//!
//! - **LP**: the sparse engine ([`Problem::solve_lp`]) must agree with
//!   the retained dense two-phase reference
//!   ([`Problem::solve_lp_dense`]) on every random bounded LP — same
//!   objective within 1e-9 (relative), same infeasible/unbounded
//!   verdict — and the sparse point must itself satisfy every
//!   constraint and bound it was given.
//! - **MIP**: the batch-parallel branch and bound at 4 threads must
//!   return bit-identical results to the sequential solve (objective,
//!   values, node count, incumbent trace), and both must match
//!   exhaustive enumeration on random small 0/1 programs.
//!
//! Coefficients are drawn from a 0.25 grid so optima sit at exactly
//! representable vertices instead of knife-edge tolerances.

use ocd_lp::{LpError, LpSolution, MipOptions, Problem, Relation, Sense, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LHS_TOL: f64 = 1e-6;

/// A quarter-integer in `[lo/4, hi/4]`.
fn grid(rng: &mut StdRng, lo: i32, hi: i32) -> f64 {
    f64::from(rng.random_range(lo..=hi)) * 0.25
}

type Row = (Vec<(VarId, f64)>, Relation, f64);

struct RandomLp {
    problem: Problem,
    bounds: Vec<(VarId, f64, f64)>,
    rows: Vec<Row>,
}

/// A small LP with grid coefficients: finite lower bounds (the sparse
/// engine requires them), a mix of finite and infinite uppers, and
/// Le/Ge/Eq rows at ~60% density. Feasibility is not forced — both
/// engines must agree on the verdict either way.
fn random_lp(seed: u64) -> RandomLp {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(1..=8usize);
    let m = rng.random_range(1..=6usize);
    let sense = if rng.random_bool(0.5) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut problem = Problem::new(sense);
    let mut bounds = Vec::new();
    for _ in 0..n {
        let lower = grid(&mut rng, -8, 0);
        let upper = if rng.random_bool(0.25) {
            f64::INFINITY
        } else {
            lower + grid(&mut rng, 0, 16)
        };
        let objective = grid(&mut rng, -12, 12);
        let v = problem.add_continuous(lower, upper, objective);
        bounds.push((v, lower, upper));
    }
    let mut rows = Vec::new();
    for _ in 0..m {
        let mut terms = Vec::new();
        for &(v, _, _) in &bounds {
            if rng.random_bool(0.6) {
                let c = grid(&mut rng, -8, 8);
                if c != 0.0 {
                    terms.push((v, c));
                }
            }
        }
        if terms.is_empty() {
            continue;
        }
        let relation = match rng.random_range(0..3u8) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let rhs = grid(&mut rng, -10, 20);
        problem.add_constraint(terms.iter().copied(), relation, rhs);
        rows.push((terms, relation, rhs));
    }
    RandomLp {
        problem,
        bounds,
        rows,
    }
}

/// Asserts `sol` satisfies every row and bound of `lp` within `LHS_TOL`.
fn assert_point_feasible(lp: &RandomLp, sol: &LpSolution) -> Result<(), TestCaseError> {
    for &(v, lower, upper) in &lp.bounds {
        let x = sol.value(v);
        prop_assert!(
            x >= lower - LHS_TOL && x <= upper + LHS_TOL,
            "var {} = {x} outside [{lower}, {upper}]",
            v.index()
        );
    }
    for (i, (terms, relation, rhs)) in lp.rows.iter().enumerate() {
        let lhs: f64 = terms.iter().map(|&(v, c)| c * sol.value(v)).sum();
        let ok = match relation {
            Relation::Le => lhs <= rhs + LHS_TOL,
            Relation::Ge => lhs >= rhs - LHS_TOL,
            Relation::Eq => (lhs - rhs).abs() <= LHS_TOL,
        };
        prop_assert!(ok, "row {i}: lhs {lhs} violates {relation:?} {rhs}");
    }
    Ok(())
}

struct RandomIp {
    problem: Problem,
    vars: Vec<VarId>,
    rows: Vec<(Vec<f64>, f64)>,
    profits: Vec<f64>,
}

/// A small 0/1 maximization with non-negative knapsack-style rows, so
/// the all-zeros point is always feasible and enumeration is the exact
/// oracle.
fn random_ip(seed: u64) -> RandomIp {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n = rng.random_range(2..=6usize);
    let m = rng.random_range(1..=4usize);
    let mut problem = Problem::new(Sense::Maximize);
    let profits: Vec<f64> = (0..n).map(|_| grid(&mut rng, 0, 16)).collect();
    let vars: Vec<VarId> = profits.iter().map(|&c| problem.add_binary(c)).collect();
    let mut rows = Vec::new();
    for _ in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| grid(&mut rng, 0, 8)).collect();
        let rhs = grid(&mut rng, 2, 14);
        problem.add_constraint(
            vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)),
            Relation::Le,
            rhs,
        );
        rows.push((coeffs, rhs));
    }
    RandomIp {
        problem,
        vars,
        rows,
        profits,
    }
}

/// Exhaustive 0/1 optimum of `ip`.
fn brute_force(ip: &RandomIp) -> f64 {
    let n = ip.vars.len();
    let mut best = f64::NEG_INFINITY;
    for mask in 0u32..(1 << n) {
        let picks = |j: usize| f64::from((mask >> j) & 1);
        let feasible = ip.rows.iter().all(|(coeffs, rhs)| {
            let lhs: f64 = coeffs.iter().enumerate().map(|(j, c)| c * picks(j)).sum();
            lhs <= rhs + LHS_TOL
        });
        if feasible {
            let value: f64 = ip
                .profits
                .iter()
                .enumerate()
                .map(|(j, c)| c * picks(j))
                .sum();
            best = best.max(value);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse and dense simplex agree on every random bounded LP, and
    /// the sparse point is feasible for the model it was handed.
    #[test]
    fn sparse_simplex_matches_dense_reference(seed in 0u64..100_000) {
        let lp = random_lp(seed);
        let sparse = lp.problem.solve_lp();
        let dense = lp.problem.solve_lp_dense();
        match (&sparse, &dense) {
            (Ok(s), Ok(d)) => {
                let tol = 1e-9 * s.objective.abs().max(1.0);
                prop_assert!(
                    (s.objective - d.objective).abs() <= tol,
                    "objective mismatch: sparse {} vs dense {}",
                    s.objective,
                    d.objective
                );
                assert_point_feasible(&lp, s)?;
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible))
            | (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            _ => prop_assert!(
                false,
                "verdict mismatch: sparse {sparse:?} vs dense {dense:?}"
            ),
        }
    }

    /// Parallel branch and bound is bit-identical to sequential and
    /// both match exhaustive enumeration on random 0/1 programs.
    #[test]
    fn parallel_bnb_matches_sequential_and_bruteforce(seed in 0u64..100_000) {
        let ip = random_ip(seed);
        let sequential = ip.problem.solve_mip(&MipOptions::default()).unwrap();
        let parallel = ip
            .problem
            .solve_mip(&MipOptions { threads: 4, ..Default::default() })
            .unwrap();
        prop_assert_eq!(
            sequential.objective.to_bits(),
            parallel.objective.to_bits(),
            "objective differs across thread counts"
        );
        prop_assert_eq!(&sequential.values, &parallel.values);
        prop_assert_eq!(sequential.nodes_explored, parallel.nodes_explored);
        prop_assert_eq!(sequential.lp_iterations, parallel.lp_iterations);
        prop_assert_eq!(&sequential.incumbent_trace, &parallel.incumbent_trace);
        let best = brute_force(&ip);
        prop_assert!(
            (sequential.objective - best).abs() < 1e-6,
            "B&B {} vs brute force {best}",
            sequential.objective
        );
    }
}
