//! Heavier cross-checks of the LP/MILP solver against combinatorial
//! oracles: assignment problems vs permutation enumeration, set cover
//! vs subset enumeration, and LP duality spot checks.
#![allow(clippy::needless_range_loop)]

use ocd_lp::{MipOptions, Problem, Relation, Sense};
use rand::prelude::*;

#[test]
fn random_assignment_problems_match_permutation_bruteforce() {
    let mut rng = StdRng::seed_from_u64(404);
    for trial in 0..20 {
        let n = rng.random_range(2..5usize);
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| f64::from(rng.random_range(0..20u32)))
                    .collect()
            })
            .collect();
        let mut p = Problem::new(Sense::Minimize);
        let mut x = Vec::new();
        for row in &costs {
            x.push(row.iter().map(|&c| p.add_binary(c)).collect::<Vec<_>>());
        }
        for i in 0..n {
            p.add_constraint((0..n).map(|j| (x[i][j], 1.0)), Relation::Eq, 1.0);
            p.add_constraint((0..n).map(|j| (x[j][i], 1.0)), Relation::Eq, 1.0);
        }
        let sol = p.solve_mip(&MipOptions::default()).unwrap();
        let best = permutations(n)
            .into_iter()
            .map(|perm| (0..n).map(|i| costs[i][perm[i]]).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!(
            (sol.objective - best).abs() < 1e-6,
            "trial {trial}: MILP {} vs brute force {best}",
            sol.objective
        );
        // Solution must itself be a permutation.
        for i in 0..n {
            let row: i64 = (0..n).map(|j| sol.value_int(x[i][j])).sum();
            let col: i64 = (0..n).map(|j| sol.value_int(x[j][i])).sum();
            assert_eq!((row, col), (1, 1), "trial {trial}: not a permutation");
        }
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for pos in 0..=rest.len() {
            let mut perm = rest.clone();
            perm.insert(pos, n - 1);
            out.push(perm);
        }
    }
    out
}

#[test]
fn random_weighted_set_cover_matches_subset_bruteforce() {
    let mut rng = StdRng::seed_from_u64(777);
    for trial in 0..15 {
        let universe = rng.random_range(2..6usize);
        let num_sets = rng.random_range(2..7usize);
        let sets: Vec<(u32, Vec<usize>)> = (0..num_sets)
            .map(|_| {
                let cost = rng.random_range(1..9u32);
                let members: Vec<usize> = (0..universe).filter(|_| rng.random_bool(0.5)).collect();
                (cost, members)
            })
            .collect();
        // Ensure coverability.
        let coverable = (0..universe).all(|e| sets.iter().any(|(_, members)| members.contains(&e)));
        if !coverable {
            continue;
        }
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = sets
            .iter()
            .map(|(cost, _)| p.add_binary(f64::from(*cost)))
            .collect();
        for e in 0..universe {
            let covering: Vec<_> = sets
                .iter()
                .enumerate()
                .filter(|(_, (_, m))| m.contains(&e))
                .map(|(i, _)| (vars[i], 1.0))
                .collect();
            p.add_constraint(covering, Relation::Ge, 1.0);
        }
        let sol = p.solve_mip(&MipOptions::default()).unwrap();
        let mut best = u32::MAX;
        for mask in 0u32..(1 << num_sets) {
            let covered = (0..universe).all(|e| {
                sets.iter()
                    .enumerate()
                    .any(|(i, (_, m))| mask & (1 << i) != 0 && m.contains(&e))
            });
            if covered {
                let cost: u32 = sets
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, (c, _))| c)
                    .sum();
                best = best.min(cost);
            }
        }
        assert_eq!(
            sol.objective.round() as u32,
            best,
            "trial {trial}: MILP disagrees with brute force"
        );
    }
}

#[test]
fn weak_duality_on_random_primal_dual_pairs() {
    // For max{c'x : Ax ≤ b, x ≥ 0} and min{b'y : A'y ≥ c, y ≥ 0}:
    // solve both with the simplex and check strong duality (equal
    // optima) on feasible bounded pairs.
    let mut rng = StdRng::seed_from_u64(31);
    let mut checked = 0;
    let mut attempts = 0;
    while checked < 10 && attempts < 200 {
        attempts += 1;
        let n = rng.random_range(2..4usize);
        let m = rng.random_range(2..4usize);
        let a: Vec<Vec<f64>> = (0..m)
            .map(|_| {
                (0..n)
                    .map(|_| f64::from(rng.random_range(1..5u32)))
                    .collect()
            })
            .collect();
        let b: Vec<f64> = (0..m)
            .map(|_| f64::from(rng.random_range(2..10u32)))
            .collect();
        let c: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.random_range(1..6u32)))
            .collect();

        let mut primal = Problem::new(Sense::Maximize);
        let xs: Vec<_> = c
            .iter()
            .map(|&cj| primal.add_continuous(0.0, f64::INFINITY, cj))
            .collect();
        for i in 0..m {
            primal.add_constraint(
                xs.iter().copied().zip(a[i].iter().copied()),
                Relation::Le,
                b[i],
            );
        }
        let mut dual = Problem::new(Sense::Minimize);
        let ys: Vec<_> = b
            .iter()
            .map(|&bi| dual.add_continuous(0.0, f64::INFINITY, bi))
            .collect();
        for j in 0..n {
            dual.add_constraint(
                ys.iter().copied().zip((0..m).map(|i| a[i][j])),
                Relation::Ge,
                c[j],
            );
        }
        let (Ok(p), Ok(d)) = (primal.solve_lp(), dual.solve_lp()) else {
            continue;
        };
        checked += 1;
        assert!(
            (p.objective - d.objective).abs() < 1e-5,
            "strong duality violated: primal {} vs dual {}",
            p.objective,
            d.objective
        );
    }
    assert!(
        checked >= 10,
        "too few feasible primal/dual pairs generated"
    );
}

#[test]
fn moderately_large_lp_terminates_accurately() {
    // A 40-var, 60-row random ≤-LP with box bounds: verify feasibility
    // of the returned point and optimality via a perturbation probe.
    let mut rng = StdRng::seed_from_u64(88);
    let n = 40;
    let m = 60;
    let mut p = Problem::new(Sense::Maximize);
    let obj: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..5.0)).collect();
    let vars: Vec<_> = obj.iter().map(|&c| p.add_continuous(0.0, 3.0, c)).collect();
    let mut rows = Vec::new();
    for _ in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..2.0)).collect();
        let rhs = rng.random_range(5.0..40.0);
        p.add_constraint(
            vars.iter().copied().zip(coeffs.iter().copied()),
            Relation::Le,
            rhs,
        );
        rows.push((coeffs, rhs));
    }
    let sol = p.solve_lp().unwrap();
    for (coeffs, rhs) in &rows {
        let lhs: f64 = coeffs.iter().zip(&sol.values).map(|(a, x)| a * x).sum();
        assert!(lhs <= rhs + 1e-6);
    }
    for x in &sol.values {
        assert!((-1e-9..=3.0 + 1e-9).contains(x));
    }
    // Optimality probe: no single-coordinate move within bounds and
    // slacks should improve the objective (first-order check).
    for j in 0..n {
        if obj[j] <= 0.0 {
            continue;
        }
        if sol.values[j] >= 3.0 - 1e-7 {
            continue; // at its bound, fine
        }
        // Some constraint must be tight in this coordinate's direction.
        let blocked = rows.iter().any(|(coeffs, rhs)| {
            let lhs: f64 = coeffs.iter().zip(&sol.values).map(|(a, x)| a * x).sum();
            coeffs[j] > 1e-9 && lhs >= rhs - 1e-6
        });
        assert!(
            blocked,
            "variable {j} with positive reduced gradient is not blocked — not optimal"
        );
    }
}
