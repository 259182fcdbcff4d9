//! Exact solvers and reductions for the OCD problem.
//!
//! The paper computes ground truth two ways: "Using both a time-indexed
//! Integer Program and a branch-and-bound search strategy, we calculate
//! optimal solutions for small graphs." This crate implements both:
//!
//! - [`bnb`]: exact **FOCD** (minimum makespan) via iterative-deepening
//!   branch and bound over timesteps, under arc capacities and node
//!   budgets, pruned by the admissible bounds of `ocd-core::bounds` and
//!   a possession-state transposition table.
//! - [`ip`]: the §3.4 **time-indexed integer program** for EOCD (minimum
//!   bandwidth within a horizon), built on the `ocd-lp` MILP solver,
//!   plus the horizon sweep that traces the makespan/bandwidth Pareto
//!   frontier of Figure 1.
//! - [`reduction`]: the appendix's Dominating-Set → FOCD reduction
//!   (Theorem 5 / Figure 7), in both directions.
//! - [`steiner`]: the §3.3 observation that EOCD decomposes into
//!   per-token Steiner trees — used for constructive bandwidth upper
//!   bounds (a real, validated schedule) to sandwich the heuristics
//!   between `bounds::bandwidth_lower_bound` and the Steiner schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bnb;
pub mod ip;
pub mod reduction;
pub mod steiner;

use std::error::Error;
use std::fmt;

/// Failures of the exact solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// No successful schedule exists at all (some wanted token cannot
    /// reach a wanter).
    Unsatisfiable,
    /// No successful schedule exists within the given horizon.
    HorizonExceeded {
        /// The horizon that was tried.
        horizon: usize,
    },
    /// The search exceeded its node budget before proving anything.
    NodeLimit,
    /// The underlying MILP solver failed (iteration/node limits).
    Mip(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Unsatisfiable => f.write_str("instance is unsatisfiable"),
            SolveError::HorizonExceeded { horizon } => {
                write!(f, "no successful schedule within {horizon} timesteps")
            }
            SolveError::NodeLimit => f.write_str("search node limit exceeded"),
            SolveError::Mip(msg) => write!(f, "MILP solver failure: {msg}"),
        }
    }
}

impl Error for SolveError {}
