//! Model-building API: variables, constraints, objective.

use std::error::Error;
use std::fmt;

/// Handle to a decision variable within its [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index of the variable in the problem.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint row within its [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConId(pub(crate) usize);

impl ConId {
    /// Raw index of the constraint in the problem.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Continuity class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// May take any real value within its bounds.
    Continuous,
    /// Must take an integer value within its bounds (binary = integer
    /// with bounds `[0, 1]`).
    Integer,
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// Internal variable record. The constraint matrix is stored
/// **column-major**: every variable carries its own sparse column as
/// `(row, coefficient)` pairs sorted by row. The sparse revised simplex
/// consumes these columns directly (they concatenate into a CSC
/// structure); row-oriented consumers (the dense reference simplex,
/// [`Problem::to_lp_format`]) transpose on demand.
#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
    /// Sparse column: `(constraint row, coefficient)`, sorted by row,
    /// one entry per row (duplicates are merged on insert).
    pub entries: Vec<(usize, f64)>,
}

/// Internal constraint record: only the row's relation and right-hand
/// side live here — the coefficients live in the variable columns.
#[derive(Debug, Clone)]
pub(crate) struct ConstraintDef {
    pub relation: Relation,
    pub rhs: f64,
}

/// Solver failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LpError {
    /// No assignment satisfies all constraints and bounds.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The simplex hit its iteration limit (numerical trouble or a
    /// pathological instance).
    IterationLimit,
    /// Branch and bound hit its node limit before proving optimality.
    NodeLimit,
    /// A variable has an infinite lower bound, which this solver does
    /// not support (shift or split the variable).
    UnsupportedBound {
        /// The offending variable.
        var: VarId,
    },
    /// A variable's bounds are inverted (`lower > upper`).
    EmptyBounds {
        /// The offending variable.
        var: VarId,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => f.write_str("problem is infeasible"),
            LpError::Unbounded => f.write_str("problem is unbounded"),
            LpError::IterationLimit => f.write_str("simplex iteration limit reached"),
            LpError::NodeLimit => f.write_str("branch-and-bound node limit reached"),
            LpError::UnsupportedBound { var } => {
                write!(f, "variable #{} has an infinite lower bound", var.0)
            }
            LpError::EmptyBounds { var } => {
                write!(f, "variable #{} has lower bound above upper bound", var.0)
            }
        }
    }
}

impl Error for LpError {}

/// A solution to the LP relaxation.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Value per variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
}

impl LpSolution {
    /// Value of `var` in this solution.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

/// A linear / mixed-integer optimization problem.
///
/// Build with [`Problem::new`], [`add_var`](Problem::add_var) and
/// [`add_constraint`](Problem::add_constraint); solve the LP relaxation
/// with [`solve_lp`](Problem::solve_lp) or the full MIP with
/// [`solve_mip`](Problem::solve_mip).
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
}

impl Problem {
    /// Creates an empty problem with the given optimization sense.
    #[must_use]
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a variable with explicit kind, bounds `[lower, upper]`, and
    /// objective coefficient. Returns its handle.
    ///
    /// `upper` may be `f64::INFINITY`; `lower` must be finite (the
    /// simplex shifts variables to a zero lower bound).
    pub fn add_var(&mut self, kind: VarKind, lower: f64, upper: f64, objective: f64) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            kind,
            lower,
            upper,
            objective,
            entries: Vec::new(),
        });
        id
    }

    /// Adds a continuous variable on `[lower, upper]`.
    pub fn add_continuous(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        self.add_var(VarKind::Continuous, lower, upper, objective)
    }

    /// Adds a 0/1 integer variable.
    pub fn add_binary(&mut self, objective: f64) -> VarId {
        self.add_var(VarKind::Integer, 0.0, 1.0, objective)
    }

    /// Adds the constraint `Σ coef·var  relation  rhs`. Repeated
    /// variables in `terms` have their coefficients summed.
    ///
    /// This is the row-oriented convenience wrapper; model generators
    /// that know their columns up front should prefer
    /// [`new_constraint`](Problem::new_constraint) +
    /// [`add_column`](Problem::add_column), which build the sparse
    /// column storage directly.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) {
        let con = self.new_constraint(relation, rhs);
        for (v, c) in terms {
            self.add_term(con, v, c);
        }
    }

    /// Declares an empty constraint row `… relation rhs` and returns its
    /// handle. Coefficients are attached afterwards, either column-wise
    /// via [`add_column`](Problem::add_column) or one at a time via
    /// [`add_term`](Problem::add_term).
    pub fn new_constraint(&mut self, relation: Relation, rhs: f64) -> ConId {
        let id = ConId(self.constraints.len());
        self.constraints.push(ConstraintDef { relation, rhs });
        id
    }

    /// Adds `coeff · var` to the row `con` (coefficients for a repeated
    /// `(con, var)` pair are summed).
    pub fn add_term(&mut self, con: ConId, var: VarId, coeff: f64) {
        let entries = &mut self.vars[var.0].entries;
        match entries.binary_search_by_key(&con.0, |&(r, _)| r) {
            Ok(pos) => entries[pos].1 += coeff,
            Err(pos) => entries.insert(pos, (con.0, coeff)),
        }
    }

    /// Adds a variable together with its entire constraint column in one
    /// call: `entries` lists `(row, coefficient)` pairs against rows
    /// previously declared with [`new_constraint`](Problem::new_constraint).
    /// Duplicated rows in `entries` have their coefficients summed.
    ///
    /// This is the preferred path for sparse model generation — the
    /// column goes straight into the CSC storage the revised simplex
    /// consumes, with no row-major intermediate.
    pub fn add_column(
        &mut self,
        kind: VarKind,
        lower: f64,
        upper: f64,
        objective: f64,
        entries: impl IntoIterator<Item = (ConId, f64)>,
    ) -> VarId {
        let id = self.add_var(kind, lower, upper, objective);
        for (con, coeff) in entries {
            debug_assert!(
                con.0 < self.constraints.len(),
                "column references unknown row"
            );
            self.add_term(con, id, coeff);
        }
        id
    }

    /// The constraint matrix transposed back to rows:
    /// `rows[i] = [(var, coeff), …]` sorted by variable index. Used by
    /// row-oriented consumers (dense simplex, LP-format export).
    pub(crate) fn rows(&self) -> Vec<Vec<(usize, f64)>> {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.constraints.len()];
        for (j, v) in self.vars.iter().enumerate() {
            for &(i, a) in &v.entries {
                rows[i].push((j, a));
            }
        }
        rows
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Whether any variable is integer-kind.
    #[must_use]
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Solves the LP relaxation (integrality dropped) with the sparse
    /// revised simplex.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`],
    /// [`LpError::IterationLimit`], or bound errors.
    pub fn solve_lp(&self) -> Result<LpSolution, LpError> {
        let lower: Vec<f64> = self.vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = self.vars.iter().map(|v| v.upper).collect();
        self.solve_lp_with_basis(&lower, &upper, None)
            .map(|(s, _, _)| s)
    }

    /// Solves the LP relaxation under overridden bounds with the sparse
    /// revised simplex, optionally warm-starting from a
    /// [`Basis`](crate::Basis) returned by a previous solve of the same
    /// problem (typically under slightly different bounds — the
    /// branch-and-bound child pattern).
    /// Returns the solution, the optimal basis, and work counters.
    ///
    /// An incompatible `warm` basis is ignored (cold start), never an
    /// error.
    ///
    /// # Errors
    ///
    /// Same as [`solve_lp`](Problem::solve_lp).
    pub fn solve_lp_with_basis(
        &self,
        lower: &[f64],
        upper: &[f64],
        warm: Option<&crate::sparse::Basis>,
    ) -> Result<(LpSolution, crate::sparse::Basis, crate::sparse::LpStats), LpError> {
        let sf = crate::sparse::StandardForm::new(self);
        let (values, basis, stats) = crate::sparse::solve_standard(&sf, lower, upper, warm)?;
        let objective = self
            .vars
            .iter()
            .zip(&values)
            .map(|(v, x)| v.objective * x)
            .sum();
        Ok((LpSolution { objective, values }, basis, stats))
    }

    /// Solves the LP relaxation with the retained dense two-phase
    /// simplex — the slow reference implementation the sparse engine is
    /// differentially tested against.
    ///
    /// # Errors
    ///
    /// Same as [`solve_lp`](Problem::solve_lp).
    pub fn solve_lp_dense(&self) -> Result<LpSolution, LpError> {
        let lower: Vec<f64> = self.vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = self.vars.iter().map(|v| v.upper).collect();
        crate::simplex::solve_lp_with_bounds(self, &lower, &upper)
    }

    /// Solves the mixed-integer program by branch and bound.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] if no integer-feasible point exists,
    /// [`LpError::Unbounded`] if the relaxation is unbounded,
    /// [`LpError::NodeLimit`] if optimality was not proven within the
    /// node budget.
    pub fn solve_mip(&self, options: &crate::MipOptions) -> Result<crate::MipSolution, LpError> {
        crate::branch::solve_mip(self, options)
    }

    /// [`solve_mip`](Problem::solve_mip) with a
    /// [`SpanRecorder`](ocd_core::span::SpanRecorder) attached: every
    /// branch-and-bound round and node lands in the recorder as a span
    /// (`bnb.round`, `bnb.node.{branched,pruned,incumbent,infeasible}`
    /// with `id`/`depth`/`lp_iterations`/`bound_millis` counters), and
    /// incumbent improvements fire `bnb.incumbent` events — a search
    /// timeline you can export to Chrome/Perfetto.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve_mip`](Problem::solve_mip).
    pub fn solve_mip_with_spans<S: ocd_core::span::SpanRecorder>(
        &self,
        options: &crate::MipOptions,
        spans: &mut S,
    ) -> Result<crate::MipSolution, LpError> {
        crate::branch::solve_mip_with_spans(self, options, spans)
    }

    /// Renders the model in (a subset of) the CPLEX LP text format,
    /// which is handy for eyeballing a formulation or feeding it to an
    /// external solver for cross-checking.
    #[must_use]
    pub fn to_lp_format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(match self.sense {
            Sense::Minimize => "Minimize\n obj:",
            Sense::Maximize => "Maximize\n obj:",
        });
        for (i, v) in self.vars.iter().enumerate() {
            if v.objective != 0.0 {
                let _ = write!(out, " {:+} x{i}", v.objective);
            }
        }
        out.push_str("\nSubject To\n");
        let rows = self.rows();
        for (ci, c) in self.constraints.iter().enumerate() {
            let _ = write!(out, " c{ci}:");
            for &(v, coef) in &rows[ci] {
                let _ = write!(out, " {coef:+} x{v}");
            }
            let _ = writeln!(out, " {} {}", c.relation, c.rhs);
        }
        out.push_str("Bounds\n");
        for (i, v) in self.vars.iter().enumerate() {
            if v.upper.is_infinite() {
                let _ = writeln!(out, " {} <= x{i}", v.lower);
            } else {
                let _ = writeln!(out, " {} <= x{i} <= {}", v.lower, v.upper);
            }
        }
        let integers: Vec<String> = self
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VarKind::Integer)
            .map(|(i, _)| format!("x{i}"))
            .collect();
        if !integers.is_empty() {
            out.push_str("General\n ");
            out.push_str(&integers.join(" "));
            out.push('\n');
        }
        out.push_str("End\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_introspect() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, 10.0, 1.0);
        let y = p.add_binary(-2.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert!(p.has_integers());
        assert_eq!(x.index(), 0);
        assert_eq!(y.index(), 1);
    }

    #[test]
    fn duplicate_terms_merge() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0), (x, 2.0)], Relation::Eq, 3.0);
        assert_eq!(p.vars[0].entries, vec![(0, 3.0)]);
        assert_eq!(p.rows(), vec![vec![(0, 3.0)]]);
    }

    #[test]
    fn column_api_matches_row_api() {
        // Build the same model through both APIs; the internal column
        // storage must be identical.
        let build_rowwise = || {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_continuous(0.0, 4.0, 1.0);
            let y = p.add_continuous(0.0, 4.0, 2.0);
            p.add_constraint([(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
            p.add_constraint([(y, -1.0)], Relation::Ge, -2.0);
            p
        };
        let build_colwise = || {
            let mut p = Problem::new(Sense::Minimize);
            let c0 = p.new_constraint(Relation::Le, 6.0);
            let c1 = p.new_constraint(Relation::Ge, -2.0);
            p.add_column(VarKind::Continuous, 0.0, 4.0, 1.0, [(c0, 1.0)]);
            p.add_column(VarKind::Continuous, 0.0, 4.0, 2.0, [(c0, 3.0), (c1, -1.0)]);
            p
        };
        let a = build_rowwise();
        let b = build_colwise();
        assert_eq!(a.to_lp_format(), b.to_lp_format());
        for (va, vb) in a.vars.iter().zip(&b.vars) {
            assert_eq!(va.entries, vb.entries);
        }
    }

    #[test]
    fn lp_format_mentions_everything() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary(3.0);
        let y = p.add_continuous(1.0, f64::INFINITY, 0.5);
        p.add_constraint([(x, 2.0), (y, -1.0)], Relation::Ge, 0.0);
        let text = p.to_lp_format();
        assert!(text.contains("Maximize"));
        assert!(text.contains("+3 x0"));
        assert!(text.contains(">= 0"));
        assert!(text.contains("General\n x0"));
        assert!(text.contains("1 <= x1"));
        assert!(text.ends_with("End\n"));
    }

    #[test]
    fn error_display() {
        assert_eq!(LpError::Infeasible.to_string(), "problem is infeasible");
        assert!(LpError::UnsupportedBound { var: VarId(3) }
            .to_string()
            .contains("#3"));
    }
}
