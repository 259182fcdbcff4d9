//! Sparse revised simplex with bounded variables.
//!
//! This is the production LP engine behind [`Problem::solve_lp`] and
//! branch and bound; the dense tableau in [`crate::simplex`] is retained
//! as a cross-checking reference. Design, following the standard revised
//! method:
//!
//! - **Standard form.** Every constraint row gets one slack with bounds
//!   `[0, ∞)` (`≥` rows are negated into `≤` first) or `[0, 0]` for
//!   equalities, so the working system is always `Ax + s = b` over
//!   *bounded* variables. Upper bounds stay implicit in the variable
//!   statuses — they never become rows, which is what keeps the basis at
//!   `m × m` instead of the dense solver's `(m + n) × (m + n)`.
//! - **CSC storage.** Structural columns live in one compressed-sparse
//!   column triplet (`col_ptr` / `row_ix` / `val`); slack columns are
//!   implicit unit vectors.
//! - **Product-form basis.** `B⁻¹` is an *eta file*: a product of rank-1
//!   elementary matrices appended per pivot (FTRAN applies them forward,
//!   BTRAN transposed in reverse). The file is rebuilt from the basic
//!   columns — smallest-nnz first, partial pivoting on the largest
//!   remaining magnitude — every [`REFACTOR_ETAS`] pivots, which bounds
//!   both fill-in and round-off drift.
//! - **Composite phase 1.** Feasibility is restored by minimizing the
//!   total bound violation of the *basic* variables (cost −1 below the
//!   lower bound, +1 above the upper). This works from **any** starting
//!   basis, which is exactly what a warm start needs: a child node flips
//!   one bound, re-adopts the parent [`Basis`], and phase 1 repairs the
//!   (usually tiny) infeasibility in a handful of pivots.
//! - **Pricing.** Dantzig's rule over cyclic partial-pricing blocks,
//!   falling back to Bland's rule after a run of degenerate pivots.
//!   Entering steps use the bounded-variable ratio test, so a variable
//!   may simply *flip* from one bound to the other without a basis
//!   change.
//!
//! Everything is deterministic: pricing scans, tie-breaks (largest
//! pivot, then lowest index), and the refactorization column order are
//! pure functions of the problem data and the starting basis.

use crate::model::{LpError, Problem, Relation, Sense, VarId};

/// Bound-violation tolerance (primal feasibility).
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost tolerance (dual feasibility / optimality).
const DUAL_TOL: f64 = 1e-7;
/// Minimum magnitude for a pivot element in the ratio test.
const PIVOT_TOL: f64 = 1e-8;
/// Minimum magnitude for a pivot during refactorization.
const REFACTOR_PIVOT_TOL: f64 = 1e-10;
/// Entries below this are dropped from eta columns.
const ZERO_TOL: f64 = 1e-13;
/// A variable whose bound range is below this is fixed (never enters).
const FIXED_TOL: f64 = 1e-12;
/// A ratio-test step below this counts as a degenerate pivot.
const DEGEN_TOL: f64 = 1e-9;
/// Ratio-test ties within this tolerance are broken by pivot magnitude.
const RATIO_TIE_TOL: f64 = 1e-9;
/// Rebuild the eta file after this many accumulated pivots.
const REFACTOR_ETAS: usize = 100;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_LIMIT: u32 = 60;

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// In the basis; its value lives in the row's `xb` slot.
    Basic,
    /// Nonbasic at its (always finite) lower bound.
    AtLower,
    /// Nonbasic at its finite upper bound.
    AtUpper,
}

/// Snapshot of a simplex basis: the status of every column plus the
/// basic column of every row.
///
/// A successful [`Problem::solve_lp_with_basis`] returns one; passing it
/// back as the warm start for a re-solve of the *same problem under
/// different bounds* (the branch-and-bound child pattern: one bound
/// flip) lets the simplex resume from the parent's vertex instead of
/// from scratch. A basis that does not fit the problem is silently
/// ignored in favor of a cold start, so stale snapshots are safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    status: Vec<ColStatus>,
    basic: Vec<u32>,
}

/// Work counters from one simplex solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Simplex pivots (bound flips included) across both phases.
    pub iterations: u64,
    /// Eta-file rebuilds (the initial factorization included).
    pub refactorizations: u64,
}

/// One elementary (eta) matrix of the product-form inverse: identity
/// except for column `row`, which holds `pivot` on the diagonal and
/// `entries` off it.
#[derive(Debug)]
struct Eta {
    row: u32,
    pivot: f64,
    entries: Vec<(u32, f64)>,
}

/// The immutable standard-form image of a [`Problem`]: built once and
/// shared (it is `Sync`) across every LP solve of a branch-and-bound
/// run.
#[derive(Debug)]
pub(crate) struct StandardForm {
    /// Constraint rows.
    pub(crate) m: usize,
    /// Structural variables (slacks are indexed `n..n + m`).
    pub(crate) n: usize,
    col_ptr: Vec<usize>,
    row_ix: Vec<u32>,
    val: Vec<f64>,
    b: Vec<f64>,
    /// Rows whose slack is fixed at zero (`=` constraints).
    eq_row: Vec<bool>,
    /// Structural objective, sign-normalized to minimization.
    cost: Vec<f64>,
    max_iters: u64,
}

impl StandardForm {
    pub(crate) fn new(problem: &Problem) -> Self {
        let m = problem.constraints.len();
        let n = problem.vars.len();
        let sign = match problem.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut row_sign = vec![1.0f64; m];
        let mut eq_row = vec![false; m];
        let mut b = vec![0.0; m];
        for (i, c) in problem.constraints.iter().enumerate() {
            match c.relation {
                Relation::Le => {}
                Relation::Ge => row_sign[i] = -1.0,
                Relation::Eq => eq_row[i] = true,
            }
            b[i] = row_sign[i] * c.rhs;
        }
        let nnz: usize = problem.vars.iter().map(|v| v.entries.len()).sum();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_ix = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        let mut cost = Vec::with_capacity(n);
        col_ptr.push(0);
        for v in &problem.vars {
            for &(i, a) in &v.entries {
                if a != 0.0 {
                    row_ix.push(i as u32);
                    val.push(row_sign[i] * a);
                }
            }
            col_ptr.push(row_ix.len());
            cost.push(sign * v.objective);
        }
        let max_iters = (20_000 + 50 * (m + n + m)) as u64;
        StandardForm {
            m,
            n,
            col_ptr,
            row_ix,
            val,
            b,
            eq_row,
            cost,
            max_iters,
        }
    }

    fn total(&self) -> usize {
        self.n + self.m
    }

    fn col_nnz(&self, j: usize) -> usize {
        if j < self.n {
            self.col_ptr[j + 1] - self.col_ptr[j]
        } else {
            1
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

/// Internal solve failure: `Singular` asks the caller to retry cold.
enum Abort {
    Lp(LpError),
    Singular,
}

/// Solves the standard form under the given structural bounds,
/// optionally warm-starting from `warm`. Returns the structural values,
/// the optimal basis, and work counters.
pub(crate) fn solve_standard(
    sf: &StandardForm,
    lower: &[f64],
    upper: &[f64],
    warm: Option<&Basis>,
) -> Result<(Vec<f64>, Basis, LpStats), LpError> {
    assert_eq!(lower.len(), sf.n, "lower bound count mismatch");
    assert_eq!(upper.len(), sf.n, "upper bound count mismatch");
    for (j, (&l, &u)) in lower.iter().zip(upper).enumerate() {
        if !l.is_finite() {
            return Err(LpError::UnsupportedBound { var: VarId(j) });
        }
        if l > u + FEAS_TOL {
            // Routine while branching: a flipped bound emptied the box.
            return Err(LpError::Infeasible);
        }
    }
    match Worker::run(sf, lower, upper, warm) {
        Ok(r) => Ok(r),
        Err(Abort::Lp(e)) => Err(e),
        Err(Abort::Singular) => {
            // A numerically singular warm basis: restart cold (the
            // all-slack basis always factorizes).
            match Worker::run(sf, lower, upper, None) {
                Ok(r) => Ok(r),
                Err(Abort::Lp(e)) => Err(e),
                Err(Abort::Singular) => Err(LpError::IterationLimit),
            }
        }
    }
}

struct Worker<'a> {
    sf: &'a StandardForm,
    /// Bounds over all `total` columns (structurals then slacks).
    lo: Vec<f64>,
    up: Vec<f64>,
    status: Vec<ColStatus>,
    /// Basic column of each row.
    basic: Vec<u32>,
    /// Row of each basic column (`u32::MAX` when nonbasic).
    row_of: Vec<u32>,
    etas: Vec<Eta>,
    /// Length of the eta file right after the last refactorization:
    /// only etas *beyond* this mark are update etas that count toward
    /// the next rebuild (a fresh factorization itself holds up to `m`).
    refactor_mark: usize,
    /// Value of the basic variable of each row.
    xb: Vec<f64>,
    pricing_cursor: usize,
    degenerate_run: u32,
    bland: bool,
    stats: LpStats,
}

impl<'a> Worker<'a> {
    fn run(
        sf: &'a StandardForm,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&Basis>,
    ) -> Result<(Vec<f64>, Basis, LpStats), Abort> {
        let (m, total) = (sf.m, sf.total());
        let mut lo = Vec::with_capacity(total);
        let mut up = Vec::with_capacity(total);
        lo.extend_from_slice(lower);
        up.extend_from_slice(upper);
        for i in 0..m {
            lo.push(0.0);
            up.push(if sf.eq_row[i] { 0.0 } else { f64::INFINITY });
        }
        let mut worker = Worker {
            sf,
            lo,
            up,
            status: Vec::new(),
            basic: Vec::new(),
            row_of: Vec::new(),
            etas: Vec::new(),
            refactor_mark: 0,
            xb: vec![0.0; m],
            pricing_cursor: 0,
            degenerate_run: 0,
            bland: false,
            stats: LpStats::default(),
        };
        let adopted = warm.is_some_and(|b| worker.adopt(b));
        if !adopted {
            worker.cold_basis();
        }
        if worker.refactorize().is_err() {
            // A singular warm basis: fall back to the all-slack basis,
            // whose factorization is the identity and cannot fail.
            if !adopted {
                return Err(Abort::Singular);
            }
            worker.cold_basis();
            if worker.refactorize().is_err() {
                return Err(Abort::Singular);
            }
        }
        worker.compute_xb();
        worker.run_phase(Phase::One)?;
        if worker.infeasibility() > FEAS_TOL {
            return Err(Abort::Lp(LpError::Infeasible));
        }
        worker.run_phase(Phase::Two)?;
        let values = worker.extract();
        let basis = Basis {
            status: worker.status,
            basic: worker.basic,
        };
        Ok((values, basis, worker.stats))
    }

    /// Resets to the all-slack basis with structurals at their lower
    /// bounds.
    fn cold_basis(&mut self) {
        let (m, n, total) = (self.sf.m, self.sf.n, self.sf.total());
        self.status = vec![ColStatus::AtLower; total];
        for j in n..total {
            self.status[j] = ColStatus::Basic;
        }
        self.basic = (0..m).map(|i| (n + i) as u32).collect();
        self.rebuild_row_of();
    }

    /// Adopts a warm-start basis if it is structurally consistent with
    /// this problem; returns whether it was taken.
    fn adopt(&mut self, b: &Basis) -> bool {
        let (m, total) = (self.sf.m, self.sf.total());
        if b.status.len() != total || b.basic.len() != m {
            return false;
        }
        if b.status.iter().filter(|s| **s == ColStatus::Basic).count() != m {
            return false;
        }
        let mut seen = vec![false; total];
        for &c in &b.basic {
            let c = c as usize;
            if c >= total || seen[c] || b.status[c] != ColStatus::Basic {
                return false;
            }
            seen[c] = true;
        }
        self.status = b.status.clone();
        self.basic = b.basic.clone();
        // Normalize nonbasic statuses against the *current* bounds: a
        // bound that was finite at the parent may be infinite here.
        for j in 0..total {
            if self.status[j] == ColStatus::AtUpper && !self.up[j].is_finite() {
                self.status[j] = ColStatus::AtLower;
            }
        }
        self.rebuild_row_of();
        true
    }

    fn rebuild_row_of(&mut self) {
        self.row_of = vec![u32::MAX; self.sf.total()];
        for (r, &c) in self.basic.iter().enumerate() {
            self.row_of[c as usize] = r as u32;
        }
    }

    /// Phase-2 cost of a column (slacks cost nothing).
    fn cost(&self, j: usize) -> f64 {
        if j < self.sf.n {
            self.sf.cost[j]
        } else {
            0.0
        }
    }

    /// Adds `scale · a_j` into the dense vector `v`.
    fn scatter_col(&self, j: usize, scale: f64, v: &mut [f64]) {
        if j < self.sf.n {
            for k in self.sf.col_ptr[j]..self.sf.col_ptr[j + 1] {
                v[self.sf.row_ix[k] as usize] += scale * self.sf.val[k];
            }
        } else {
            v[j - self.sf.n] += scale;
        }
    }

    /// `a_j · y`.
    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.sf.n {
            let mut acc = 0.0;
            for k in self.sf.col_ptr[j]..self.sf.col_ptr[j + 1] {
                acc += self.sf.val[k] * y[self.sf.row_ix[k] as usize];
            }
            acc
        } else {
            y[j - self.sf.n]
        }
    }

    /// `v ← B⁻¹ v`: applies the eta file forward.
    fn ftran(&self, v: &mut [f64]) {
        for e in &self.etas {
            let t = v[e.row as usize];
            if t.abs() <= ZERO_TOL {
                continue;
            }
            v[e.row as usize] = e.pivot * t;
            for &(i, c) in &e.entries {
                v[i as usize] += c * t;
            }
        }
    }

    /// `z ← (B⁻¹)ᵀ z`: applies the transposed eta file in reverse.
    fn btran(&self, z: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let mut acc = e.pivot * z[e.row as usize];
            for &(i, c) in &e.entries {
                acc += c * z[i as usize];
            }
            z[e.row as usize] = acc;
        }
    }

    /// Appends the eta matrix that pivots the (already FTRANed) column
    /// `w` on row `r`. Identity etas are skipped.
    fn push_eta(&mut self, w: &[f64], r: usize) {
        let pivot = 1.0 / w[r];
        let mut entries = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi.abs() > ZERO_TOL {
                entries.push((i as u32, -wi * pivot));
            }
        }
        if entries.is_empty() && (pivot - 1.0).abs() <= ZERO_TOL {
            return;
        }
        self.etas.push(Eta {
            row: r as u32,
            pivot,
            entries,
        });
    }

    /// Rebuilds the eta file from the current basic columns: columns are
    /// processed smallest-nnz first (lowest index on ties) and each
    /// pivots on its largest remaining row — deterministic partial
    /// pivoting. Fails if the basis is numerically singular.
    fn refactorize(&mut self) -> Result<(), ()> {
        let m = self.sf.m;
        self.etas.clear();
        let cols = self.basic.clone();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&i| (self.sf.col_nnz(cols[i] as usize), cols[i]));
        let mut pivoted = vec![false; m];
        let mut new_basic = vec![0u32; m];
        let mut w = vec![0.0; m];
        for &slot in &order {
            let col = cols[slot] as usize;
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.scatter_col(col, 1.0, &mut w);
            self.ftran(&mut w);
            let mut r = usize::MAX;
            let mut best = REFACTOR_PIVOT_TOL;
            for (i, &p) in pivoted.iter().enumerate() {
                if !p && w[i].abs() > best {
                    best = w[i].abs();
                    r = i;
                }
            }
            if r == usize::MAX {
                return Err(());
            }
            self.push_eta(&w, r);
            pivoted[r] = true;
            new_basic[r] = col as u32;
        }
        self.basic = new_basic;
        self.rebuild_row_of();
        self.refactor_mark = self.etas.len();
        self.stats.refactorizations += 1;
        Ok(())
    }

    /// Recomputes `xb = B⁻¹ (b − A_N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut v = self.sf.b.clone();
        for j in 0..self.sf.total() {
            let xj = match self.status[j] {
                ColStatus::Basic => continue,
                ColStatus::AtLower => self.lo[j],
                ColStatus::AtUpper => self.up[j],
            };
            if xj != 0.0 {
                self.scatter_col(j, -xj, &mut v);
            }
        }
        self.ftran(&mut v);
        self.xb = v;
    }

    /// Total bound violation of the basic variables.
    fn infeasibility(&self) -> f64 {
        let mut f = 0.0;
        for (r, &c) in self.basic.iter().enumerate() {
            let c = c as usize;
            f += (self.lo[c] - self.xb[r]).max(0.0) + (self.xb[r] - self.up[c]).max(0.0);
        }
        f
    }

    /// Runs one simplex phase to its termination condition.
    fn run_phase(&mut self, phase: Phase) -> Result<(), Abort> {
        let m = self.sf.m;
        let mut y = vec![0.0; m];
        let mut w = vec![0.0; m];
        self.degenerate_run = 0;
        self.bland = false;
        loop {
            if self.stats.iterations >= self.sf.max_iters {
                return Err(Abort::Lp(LpError::IterationLimit));
            }
            if self.etas.len() - self.refactor_mark >= REFACTOR_ETAS {
                self.refactorize().map_err(|()| Abort::Singular)?;
                self.compute_xb();
            }
            // Dual prices y = ĉ_B B⁻¹ for the phase's basic costs.
            let mut infeasible_rows = false;
            for (r, &c) in self.basic.iter().enumerate() {
                let c = c as usize;
                y[r] = match phase {
                    Phase::One => {
                        if self.xb[r] < self.lo[c] - FEAS_TOL {
                            infeasible_rows = true;
                            -1.0
                        } else if self.xb[r] > self.up[c] + FEAS_TOL {
                            infeasible_rows = true;
                            1.0
                        } else {
                            0.0
                        }
                    }
                    Phase::Two => self.cost(c),
                };
            }
            if phase == Phase::One && !infeasible_rows {
                return Ok(()); // feasible: phase 1 done
            }
            self.btran(&mut y);
            let Some(q) = self.price(phase, &y) else {
                return Ok(()); // no improving column: phase optimal
            };
            for x in w.iter_mut() {
                *x = 0.0;
            }
            self.scatter_col(q, 1.0, &mut w);
            self.ftran(&mut w);
            self.stats.iterations += 1;
            if !self.step(phase, q, &w)? {
                return Ok(());
            }
        }
    }

    /// Phase-1 reduced costs use zero column costs (nonbasic columns sit
    /// feasibly at a bound, so only basic violations carry cost).
    fn reduced_cost(&self, phase: Phase, y: &[f64], j: usize) -> f64 {
        let c = match phase {
            Phase::One => 0.0,
            Phase::Two => self.cost(j),
        };
        c - self.dot_col(j, y)
    }

    fn eligible(&self, phase: Phase, y: &[f64], j: usize) -> Option<f64> {
        match self.status[j] {
            ColStatus::Basic => None,
            _ if self.up[j] - self.lo[j] <= FIXED_TOL => None,
            ColStatus::AtLower => {
                let d = self.reduced_cost(phase, y, j);
                (d < -DUAL_TOL).then_some(d)
            }
            ColStatus::AtUpper => {
                let d = self.reduced_cost(phase, y, j);
                (d > DUAL_TOL).then_some(d)
            }
        }
    }

    /// Chooses the entering column: Dantzig's rule (largest |reduced
    /// cost|) over cyclic partial-pricing blocks, or Bland's rule (first
    /// eligible index) while anti-cycling is active.
    fn price(&mut self, phase: Phase, y: &[f64]) -> Option<usize> {
        let total = self.sf.total();
        if total == 0 {
            return None;
        }
        if self.bland {
            return (0..total).find(|&j| self.eligible(phase, y, j).is_some());
        }
        let block = (total / 8).max(64);
        let mut best: Option<(usize, f64)> = None;
        for s in 0..total {
            let j = (self.pricing_cursor + s) % total;
            if let Some(d) = self.eligible(phase, y, j) {
                if best.is_none_or(|(_, bd)| d.abs() > bd.abs()) {
                    best = Some((j, d));
                }
            }
            if (s + 1) % block == 0 {
                if let Some((bj, _)) = best {
                    self.pricing_cursor = (j + 1) % total;
                    return Some(bj);
                }
            }
        }
        best.map(|(bj, _)| {
            self.pricing_cursor = (bj + 1) % total;
            bj
        })
    }

    /// Bounded-variable ratio test + pivot (or bound flip) for entering
    /// column `q` with FTRANed direction `w`. Returns `false` when the
    /// phase must stop (phase-1 stall with no breakpoint).
    fn step(&mut self, phase: Phase, q: usize, w: &[f64]) -> Result<bool, Abort> {
        let from_lower = self.status[q] == ColStatus::AtLower;
        // Entering moves by `σ · t`, t ≥ 0.
        let sigma = if from_lower { 1.0 } else { -1.0 };
        let mut t_row = f64::INFINITY;
        let mut leave: Option<(usize, bool)> = None; // (row, leaves at upper)
        for (r, &wr) in w.iter().enumerate() {
            if wr.abs() <= PIVOT_TOL {
                continue;
            }
            // d xb[r] / d t
            let slope = -sigma * wr;
            let c = self.basic[r] as usize;
            let (lb, ub, x) = (self.lo[c], self.up[c], self.xb[r]);
            let (limit, at_upper) = if phase == Phase::One && x < lb - FEAS_TOL {
                // Infeasible below: the first breakpoint is reaching lb.
                if slope > 0.0 {
                    ((lb - x) / slope, false)
                } else {
                    continue;
                }
            } else if phase == Phase::One && x > ub + FEAS_TOL {
                if slope < 0.0 {
                    ((ub - x) / slope, true)
                } else {
                    continue;
                }
            } else if slope > 0.0 {
                if !ub.is_finite() {
                    continue;
                }
                ((ub - x) / slope, true)
            } else {
                ((lb - x) / slope, false)
            };
            let limit = limit.max(0.0);
            let better = match leave {
                None => limit < t_row,
                Some((pr, _)) => {
                    limit < t_row - RATIO_TIE_TOL
                        || (limit < t_row + RATIO_TIE_TOL
                            && if self.bland {
                                self.basic[r] < self.basic[pr]
                            } else {
                                wr.abs() > w[pr].abs()
                            })
                }
            };
            if better {
                t_row = limit;
                leave = Some((r, at_upper));
            }
        }
        let range = self.up[q] - self.lo[q];
        if range < t_row {
            // The entering variable reaches its opposite bound first:
            // flip it, no basis change.
            self.update_xb(sigma * range, w);
            self.status[q] = if from_lower {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
            self.note_progress(range);
            return Ok(true);
        }
        let Some((r, at_upper)) = leave else {
            return match phase {
                Phase::Two => Err(Abort::Lp(LpError::Unbounded)),
                // Phase 1 is bounded below by zero, so a missing
                // breakpoint is numerical; stop and let the feasibility
                // check decide.
                Phase::One => Ok(false),
            };
        };
        self.update_xb(sigma * t_row, w);
        let lcol = self.basic[r] as usize;
        self.status[lcol] = if at_upper {
            ColStatus::AtUpper
        } else {
            ColStatus::AtLower
        };
        self.row_of[lcol] = u32::MAX;
        self.push_eta(w, r);
        self.basic[r] = q as u32;
        self.status[q] = ColStatus::Basic;
        self.row_of[q] = r as u32;
        self.xb[r] = if from_lower {
            self.lo[q] + t_row
        } else {
            self.up[q] - t_row
        };
        self.note_progress(t_row);
        Ok(true)
    }

    /// `xb ← xb − Δ · w` for an entering move of `Δ = σt`.
    fn update_xb(&mut self, delta: f64, w: &[f64]) {
        if delta == 0.0 {
            return;
        }
        for (r, &wr) in w.iter().enumerate() {
            if wr != 0.0 {
                self.xb[r] -= delta * wr;
            }
        }
    }

    fn note_progress(&mut self, t: f64) {
        if t <= DEGEN_TOL {
            self.degenerate_run += 1;
            if self.degenerate_run > DEGENERATE_LIMIT {
                self.bland = true;
            }
        } else {
            self.degenerate_run = 0;
            self.bland = false;
        }
    }

    /// Structural values, clamped against tolerance-level drift.
    fn extract(&self) -> Vec<f64> {
        (0..self.sf.n)
            .map(|j| {
                let v = match self.status[j] {
                    ColStatus::Basic => self.xb[self.row_of[j] as usize],
                    ColStatus::AtLower => self.lo[j],
                    ColStatus::AtUpper => self.up[j],
                };
                let v = v.max(self.lo[j]);
                if self.up[j].is_finite() {
                    v.min(self.up[j])
                } else {
                    v
                }
            })
            .collect()
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
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn ge_rows_need_phase_one() {
        // min 2x + 3y s.t. x + y ≥ 4, x + 2y ≥ 6 → (2, 2), obj 10.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, f64::INFINITY, 2.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        p.add_constraint([(x, 1.0), (y, 2.0)], Relation::Ge, 6.0);
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, 10.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x − y = 1 → (3, 2).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve_lp().unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, 10.0, 1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 5.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.solve_lp().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(0.0, f64::INFINITY, 1.0);
        p.add_constraint([(x, -1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve_lp().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn implicit_upper_bounds_bind() {
        // No constraint rows at all: the box does the bounding.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(0.0, 7.0, 2.0);
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, 14.0);
        assert_close(s.value(x), 7.0);
    }

    #[test]
    fn nonzero_and_negative_lower_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(2.0, f64::INFINITY, 1.0);
        let y = p.add_continuous(3.0, 10.0, 1.0);
        let z = p.add_continuous(-5.0, 5.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 7.0);
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, 7.0 - 5.0);
        assert_close(s.value(z), -5.0);
        assert!(s.value(x) >= 2.0 - 1e-9);
        assert!(s.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn fixed_variable() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous(4.0, 4.0, 3.0);
        let y = p.add_continuous(0.0, 2.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let s = p.solve_lp().unwrap();
        assert_close(s.value(x), 4.0);
        assert_close(s.value(y), 1.0);
        assert_close(s.objective, 13.0);
    }

    #[test]
    fn infinite_lower_bound_rejected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(f64::NEG_INFINITY, 0.0, 1.0);
        assert_eq!(
            p.solve_lp().unwrap_err(),
            LpError::UnsupportedBound { var: x }
        );
    }

    #[test]
    fn beale_degenerate_instance_terminates() {
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
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn redundant_equalities_survive() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = p.add_continuous(0.0, f64::INFINITY, 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, 4.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve_lp().unwrap();
        assert_close(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn warm_start_resolves_after_bound_flip() {
        // Solve, tighten one variable's bound (the branch-and-bound
        // child move), re-solve warm: same optimum as a cold solve, in
        // fewer iterations.
        let mut p = Problem::new(Sense::Maximize);
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_continuous(0.0, 1.0, 1.0 + 0.25 * i as f64))
            .collect();
        for k in 0..4 {
            let terms: Vec<_> = (0..n)
                .filter(|j| (j + k) % 3 != 0)
                .map(|j| (vars[j], 1.0 + 0.5 * ((j + k) % 4) as f64))
                .collect();
            p.add_constraint(terms, Relation::Le, 3.0 + k as f64);
        }
        let lower: Vec<f64> = p.vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = p.vars.iter().map(|v| v.upper).collect();
        let (root, basis, _) = p.solve_lp_with_basis(&lower, &upper, None).unwrap();
        // Flip x0's upper bound to 0 (the "down" child).
        let mut child_upper = upper.clone();
        child_upper[0] = 0.0;
        let (warm_sol, _, warm_stats) = p
            .solve_lp_with_basis(&lower, &child_upper, Some(&basis))
            .unwrap();
        let (cold_sol, _, cold_stats) = p.solve_lp_with_basis(&lower, &child_upper, None).unwrap();
        assert!((warm_sol.objective - cold_sol.objective).abs() < 1e-8);
        assert!(warm_sol.objective <= root.objective + 1e-8);
        assert!(
            warm_stats.iterations <= cold_stats.iterations,
            "warm start ({}) should not pivot more than cold ({})",
            warm_stats.iterations,
            cold_stats.iterations
        );
    }

    #[test]
    fn stale_basis_is_ignored_not_fatal() {
        let mut small = Problem::new(Sense::Maximize);
        let x = small.add_continuous(0.0, 2.0, 1.0);
        let (_, tiny_basis, _) = small.solve_lp_with_basis(&[0.0], &[2.0], None).unwrap();
        let mut big = Problem::new(Sense::Maximize);
        let a = big.add_continuous(0.0, 1.0, 1.0);
        let b = big.add_continuous(0.0, 1.0, 2.0);
        big.add_constraint([(a, 1.0), (b, 1.0)], Relation::Le, 1.5);
        let (sol, _, _) = big
            .solve_lp_with_basis(&[0.0, 0.0], &[1.0, 1.0], Some(&tiny_basis))
            .unwrap();
        assert_close(sol.objective, 2.5);
        let _ = x;
    }

    #[test]
    fn refactorization_kicks_in_on_long_solves() {
        // A transportation-like LP big enough to exceed REFACTOR_ETAS
        // pivots would be slow to hand-build; instead force many pivots
        // with a staircase chain and just check the counters are sane.
        let mut p = Problem::new(Sense::Minimize);
        let n = 150;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_continuous(0.0, f64::INFINITY, 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            p.add_constraint([(vars[i], 1.0), (vars[i + 1], 1.0)], Relation::Ge, 2.0);
        }
        let s = p.solve_lp().unwrap();
        assert!(s.objective > 0.0);
        let lower = vec![0.0; n];
        let upper = vec![f64::INFINITY; n];
        let (_, _, stats) = p.solve_lp_with_basis(&lower, &upper, None).unwrap();
        assert!(stats.iterations > 0);
        assert!(stats.refactorizations >= 1);
        // Only *update* etas count toward the rebuild trigger. Counting
        // the (≈ m-long) fresh factorization too would refactorize on
        // every subsequent pivot — an O(m²)-per-iteration regression.
        assert!(
            stats.refactorizations <= 1 + stats.iterations / REFACTOR_ETAS as u64 + 1,
            "refactorized {} times in {} iterations",
            stats.refactorizations,
            stats.iterations
        );
    }

    #[test]
    fn matches_dense_reference_on_fixed_lps() {
        // A few structurally different LPs: sparse and dense must agree
        // to high precision.
        let mut problems: Vec<Problem> = Vec::new();
        {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_continuous(0.0, 4.0, 3.0);
            let y = p.add_continuous(1.0, 6.0, 5.0);
            p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
            p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
            problems.push(p);
        }
        {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_continuous(-2.0, 2.0, 1.0);
            let y = p.add_continuous(-2.0, 2.0, -1.0);
            let z = p.add_continuous(0.0, f64::INFINITY, 0.5);
            p.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 1.0);
            p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Ge, -1.5);
            problems.push(p);
        }
        for p in &problems {
            let sparse = p.solve_lp().unwrap();
            let dense = p.solve_lp_dense().unwrap();
            assert!(
                (sparse.objective - dense.objective).abs() < 1e-9,
                "sparse {} vs dense {}",
                sparse.objective,
                dense.objective
            );
        }
    }
}
