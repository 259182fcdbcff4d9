//! Dense two-phase primal simplex.
//!
//! The solver works on the standard form `min c'y, Ay {≤,=,≥} b, y ≥ 0`
//! obtained by shifting every variable to a zero lower bound and adding
//! an explicit bound row for each finite upper bound. Phase 1 minimizes
//! the sum of artificial variables to find a basic feasible solution;
//! phase 2 optimizes the real objective. Entering variables are chosen by
//! Dantzig's rule, falling back to Bland's rule after a run of degenerate
//! pivots to guarantee termination.

// Dense tableau arithmetic is clearest with explicit indices; the
// iterator rewrites clippy suggests obscure the row/column structure.
#![allow(clippy::needless_range_loop)]

use crate::model::{LpError, LpSolution, Problem, Relation, Sense, VarId};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

const FEAS_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_LIMIT: u32 = 40;

/// Solves the LP relaxation of `problem` with the variable bounds
/// overridden by `lower` / `upper` (used by branch and bound to tighten
/// bounds per node).
pub(crate) fn solve_lp_with_bounds(
    problem: &Problem,
    lower: &[f64],
    upper: &[f64],
) -> Result<LpSolution, LpError> {
    let n = problem.vars.len();
    assert_eq!(lower.len(), n, "lower bound count mismatch");
    assert_eq!(upper.len(), n, "upper bound count mismatch");
    for (j, (&l, &u)) in lower.iter().zip(upper).enumerate() {
        if !l.is_finite() {
            return Err(LpError::UnsupportedBound { var: VarId(j) });
        }
        if l > u + FEAS_TOL {
            // An inverted bound renders the node infeasible (this is a
            // routine outcome while branching, not a modeling error).
            return Err(LpError::Infeasible);
        }
    }

    // --- Build rows over the shifted variables y_j = x_j - l_j ≥ 0. ---
    struct Row {
        coeffs: Vec<f64>, // dense over structural variables
        relation: Relation,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(problem.constraints.len() + n);
    let row_terms = problem.rows();
    for (c, terms) in problem.constraints.iter().zip(&row_terms) {
        let mut coeffs = vec![0.0; n];
        let mut shift = 0.0;
        for &(j, a) in terms {
            coeffs[j] += a;
            shift += a * lower[j];
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs: c.rhs - shift,
        });
    }
    for j in 0..n {
        let range = upper[j] - lower[j];
        if range.is_finite() {
            let mut coeffs = vec![0.0; n];
            coeffs[j] = 1.0;
            rows.push(Row {
                coeffs,
                relation: Relation::Le,
                rhs: range.max(0.0),
            });
        }
    }

    // Normalize to rhs ≥ 0.
    for row in &mut rows {
        if row.rhs < 0.0 {
            row.rhs = -row.rhs;
            for a in &mut row.coeffs {
                *a = -*a;
            }
            row.relation = match row.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    // --- Assemble the tableau. ---
    let m = rows.len();
    let num_slacks = rows.iter().filter(|r| r.relation != Relation::Eq).count();
    let num_artificials = rows.iter().filter(|r| r.relation != Relation::Le).count();
    let total = n + num_slacks + num_artificials;
    let mut a: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut b: Vec<f64> = Vec::with_capacity(m);
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    let art_start = n + num_slacks;
    {
        let mut slack_cursor = n;
        let mut art_cursor = art_start;
        for row in &rows {
            let mut dense = vec![0.0; total];
            dense[..n].copy_from_slice(&row.coeffs);
            match row.relation {
                Relation::Le => {
                    dense[slack_cursor] = 1.0;
                    basis.push(slack_cursor);
                    slack_cursor += 1;
                }
                Relation::Ge => {
                    dense[slack_cursor] = -1.0;
                    slack_cursor += 1;
                    dense[art_cursor] = 1.0;
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
                Relation::Eq => {
                    dense[art_cursor] = 1.0;
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
            }
            a.push(dense);
            b.push(row.rhs);
        }
    }

    let max_iters = 20_000 + 50 * (m + total);
    let mut tableau = Tableau {
        a,
        b,
        basis,
        total,
        max_iters,
    };

    // --- Phase 1 ---
    if num_artificials > 0 {
        let mut cost = vec![0.0; total];
        for j in art_start..total {
            cost[j] = 1.0;
        }
        // Price out the basic artificials.
        let mut obj = 0.0;
        let mut cost_row = cost.clone();
        for i in 0..m {
            if tableau.basis[i] >= art_start {
                for j in 0..total {
                    cost_row[j] -= tableau.a[i][j];
                }
                obj -= tableau.b[i];
            }
        }
        tableau.optimize(&mut cost_row, &mut obj, total)?;
        if -obj > FEAS_TOL {
            return Err(LpError::Infeasible);
        }
        tableau.evict_artificials(art_start);
    }

    // --- Phase 2 ---
    let flip = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; total];
    for (j, v) in problem.vars.iter().enumerate() {
        cost[j] = flip * v.objective;
    }
    let mut cost_row = cost.clone();
    let mut obj = 0.0;
    for i in 0..tableau.a.len() {
        let ci = cost[tableau.basis[i]];
        if ci != 0.0 {
            for j in 0..total {
                cost_row[j] -= ci * tableau.a[i][j];
            }
            obj -= ci * tableau.b[i];
        }
    }
    // Artificials may not re-enter in phase 2.
    tableau.optimize(&mut cost_row, &mut obj, art_start)?;

    // --- Extract the solution. ---
    let mut y = vec![0.0; n];
    for (i, &bv) in tableau.basis.iter().enumerate() {
        if bv < n {
            y[bv] = tableau.b[i];
        }
    }
    let values: Vec<f64> = (0..n).map(|j| lower[j] + y[j].max(0.0)).collect();
    let objective: f64 = problem
        .vars
        .iter()
        .enumerate()
        .map(|(j, v)| v.objective * values[j])
        .sum();
    Ok(LpSolution { objective, values })
}

struct Tableau {
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    basis: Vec<usize>,
    total: usize,
    max_iters: usize,
}

impl Tableau {
    /// Runs the simplex to optimality for the given (mutable) reduced
    /// cost row. Columns `>= entering_limit` are barred from entering.
    fn optimize(
        &mut self,
        cost_row: &mut [f64],
        obj: &mut f64,
        entering_limit: usize,
    ) -> Result<(), LpError> {
        let mut degenerate_run = 0u32;
        // Basis signatures seen during the current degenerate run. A
        // repeat means Dantzig's rule is genuinely cycling (not merely
        // stalling), so Bland's rule latches on permanently — it is
        // guaranteed to terminate from any basis.
        let mut seen: HashSet<u64> = HashSet::new();
        let mut cycling = false;
        for _ in 0..self.max_iters {
            let bland = cycling || degenerate_run > DEGENERATE_LIMIT;
            let entering = self.choose_entering(cost_row, entering_limit, bland);
            let Some(e) = entering else {
                return Ok(()); // optimal
            };
            let Some(leave) = self.choose_leaving(e, bland) else {
                return Err(LpError::Unbounded);
            };
            if self.b[leave] < FEAS_TOL {
                degenerate_run += 1;
                if !cycling && !seen.insert(self.basis_signature()) {
                    cycling = true;
                }
            } else {
                degenerate_run = 0;
                seen.clear();
            }
            self.pivot(leave, e, cost_row, obj);
        }
        Err(LpError::IterationLimit)
    }

    /// Hash of the current basis (the rows' basic columns): degenerate
    /// pivots that revisit a signature have revisited the vertex.
    fn basis_signature(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.basis.hash(&mut h);
        h.finish()
    }

    fn choose_entering(&self, cost_row: &[f64], limit: usize, bland: bool) -> Option<usize> {
        if bland {
            (0..limit).find(|&j| cost_row[j] < -FEAS_TOL)
        } else {
            let mut best = None;
            let mut best_cost = -FEAS_TOL;
            for (j, &c) in cost_row.iter().enumerate().take(limit) {
                if c < best_cost {
                    best_cost = c;
                    best = Some(j);
                }
            }
            best
        }
    }

    fn choose_leaving(&self, entering: usize, bland: bool) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None; // (ratio, row)
        for i in 0..self.a.len() {
            let a = self.a[i][entering];
            if a > PIVOT_TOL {
                let ratio = self.b[i] / a;
                let better = match best {
                    None => true,
                    Some((r, row)) => {
                        ratio < r - FEAS_TOL
                            || (ratio < r + FEAS_TOL
                                && if bland {
                                    self.basis[i] < self.basis[row]
                                } else {
                                    a > self.a[row][entering]
                                })
                    }
                };
                if better {
                    best = Some((ratio, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    fn pivot(&mut self, row: usize, col: usize, cost_row: &mut [f64], obj: &mut f64) {
        let pivot = self.a[row][col];
        debug_assert!(pivot.abs() > PIVOT_TOL, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        for j in 0..self.total {
            self.a[row][j] *= inv;
        }
        self.b[row] *= inv;
        self.a[row][col] = 1.0; // fight round-off drift
        for i in 0..self.a.len() {
            if i != row {
                let factor = self.a[i][col];
                if factor != 0.0 {
                    for j in 0..self.total {
                        self.a[i][j] -= factor * self.a[row][j];
                    }
                    self.a[i][col] = 0.0;
                    self.b[i] -= factor * self.b[row];
                }
            }
        }
        let factor = cost_row[col];
        if factor != 0.0 {
            for j in 0..self.total {
                cost_row[j] -= factor * self.a[row][j];
            }
            cost_row[col] = 0.0;
            *obj -= factor * self.b[row];
        }
        self.basis[row] = col;
    }

    /// After phase 1: pivot zero-level artificial variables out of the
    /// basis, deleting rows that prove redundant.
    fn evict_artificials(&mut self, art_start: usize) {
        let mut i = 0;
        while i < self.a.len() {
            if self.basis[i] >= art_start {
                // Find any structural or slack column to pivot in.
                let col = (0..art_start).find(|&j| self.a[i][j].abs() > PIVOT_TOL);
                match col {
                    Some(c) => {
                        // b[i] is ~0, so this degenerate pivot preserves
                        // feasibility regardless of sign.
                        let mut dummy_cost = vec![0.0; self.total];
                        let mut dummy_obj = 0.0;
                        self.pivot(i, c, &mut dummy_cost, &mut dummy_obj);
                        i += 1;
                    }
                    None => {
                        // Redundant row: remove it.
                        self.a.swap_remove(i);
                        self.b.swap_remove(i);
                        self.basis.swap_remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(0.0, f64::INFINITY, 3.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn chvatal_cycling_instance_terminates() {
        // Chvátal's classic cycling LP (Linear Programming, 1983): under
        // plain Dantzig pricing with index tie-breaking the simplex
        // revisits its starting basis after six degenerate pivots. The
        // basis-signature detector must latch Bland's rule and reach the
        // optimum, −1 at (1, 0, 1, 0).
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_continuous(0.0, f64::INFINITY, -10.0);
        let x2 = p.add_continuous(0.0, f64::INFINITY, 57.0);
        let x3 = p.add_continuous(0.0, f64::INFINITY, 9.0);
        let x4 = p.add_continuous(0.0, f64::INFINITY, 24.0);
        p.add_constraint(
            [(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            [(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint([(x1, 1.0)], Relation::Le, 1.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, -1.0);
        assert_close(s.value(x1), 1.0);
        assert_close(s.value(x3), 1.0);
    }

    #[test]
    fn minimization_with_ge_rows_uses_phase_one() {
        // min 2x + 3y s.t. x + y ≥ 4, x + 2y ≥ 6 → (2, 2), obj 10.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, f64::INFINITY, 2.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        p.add_constraint([(x, 1.0), (y, 2.0)], Relation::Ge, 6.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, 10.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 → (3, 2), obj 5.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, 10.0, 1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.solve_lp_dense().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(0.0, f64::INFINITY, 1.0);
        p.add_constraint([(x, -1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve_lp_dense().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bounded_by_variable_upper_bounds_only() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(0.0, 7.0, 2.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, 14.0);
        assert_close(s.value(x), 7.0);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y, x ≥ 2, y ∈ [3, 10], x + y ≥ 7 → x=2..? obj at
        // (2, 5) = 7? or (4, 3) = 7. Optimum value 7 either way.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(2.0, f64::INFINITY, 1.0);
        let y = p.add_continuous(3.0, 10.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 7.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, 7.0);
        assert!(s.value(x) >= 2.0 - 1e-9);
        assert!(s.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with x ∈ [-5, 5] → -5.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(-5.0, 5.0, 1.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.value(x), -5.0);
    }

    #[test]
    fn infinite_lower_bound_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(f64::NEG_INFINITY, 0.0, 1.0);
        assert_eq!(
            p.solve_lp_dense().unwrap_err(),
            LpError::UnsupportedBound { var: x }
        );
    }

    #[test]
    fn fixed_variable() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(4.0, 4.0, 3.0);
        let y = p.add_continuous(0.0, 2.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.value(x), 4.0);
        assert_close(s.value(y), 1.0);
        assert_close(s.objective, 13.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone instance (Beale): without anti-cycling,
        // Dantzig's rule can loop forever.
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_continuous(0.0, f64::INFINITY, -0.75);
        let x2 = p.add_continuous(0.0, f64::INFINITY, 150.0);
        let x3 = p.add_continuous(0.0, f64::INFINITY, -0.02);
        let x4 = p.add_continuous(0.0, f64::INFINITY, 6.0);
        p.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -1.0 / 25.0), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -1.0 / 50.0), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint([(x3, 1.0)], Relation::Le, 1.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_survive_phase_one() {
        // x + y = 4 stated twice; optimum unaffected.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, 4.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve_lp_dense().unwrap();
        assert_close(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn matches_bruteforce_on_random_box_lps() {
        // Random LPs over a box with ≤ constraints: the optimum lies at a
        // vertex of the feasible polytope; cross-check against sampling
        // every box corner that satisfies the constraints (the LP optimum
        // must be ≥ the best feasible corner for maximization).
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let nv = rng.random_range(2..5usize);
            let nc = rng.random_range(1..4usize);
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = (0..nv)
                .map(|_| p.add_continuous(0.0, 1.0, rng.random_range(-3.0..3.0)))
                .collect();
            let mut cons = Vec::new();
            for _ in 0..nc {
                let coeffs: Vec<f64> = (0..nv).map(|_| rng.random_range(-2.0..2.0)).collect();
                let rhs = rng.random_range(0.5..3.0);
                p.add_constraint(
                    vars.iter().copied().zip(coeffs.iter().copied()),
                    Relation::Le,
                    rhs,
                );
                cons.push((coeffs, rhs));
            }
            let sol = match p.solve_lp_dense() {
                Ok(s) => s,
                Err(e) => panic!("box LP cannot be infeasible/unbounded: {e}"),
            };
            // Check feasibility of the reported point.
            for (coeffs, rhs) in &cons {
                let lhs: f64 = coeffs.iter().zip(&sol.values).map(|(c, v)| c * v).sum();
                assert!(lhs <= rhs + 1e-6, "reported point violates a constraint");
            }
            // Check it beats every feasible corner.
            for corner in 0u32..(1 << nv) {
                let point: Vec<f64> = (0..nv)
                    .map(|j| if corner & (1 << j) != 0 { 1.0 } else { 0.0 })
                    .collect();
                let feasible = cons.iter().all(|(coeffs, rhs)| {
                    coeffs.iter().zip(&point).map(|(c, v)| c * v).sum::<f64>() <= rhs + 1e-9
                });
                if feasible {
                    let val: f64 = p
                        .vars
                        .iter()
                        .zip(&point)
                        .map(|(v, x)| v.objective * x)
                        .sum();
                    assert!(
                        sol.objective >= val - 1e-6,
                        "corner {point:?} with value {val} beats LP optimum {}",
                        sol.objective
                    );
                }
            }
        }
    }
}
