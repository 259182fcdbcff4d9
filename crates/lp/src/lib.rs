//! A self-contained linear-programming and mixed-integer-programming
//! solver.
//!
//! The OCD paper's §3.4 formulates EOCD as a time-indexed 0/1 integer
//! program. No ILP solver bindings are available in this environment, so
//! this crate implements the required machinery from scratch:
//!
//! - [`Problem`]: a model-building API (variables with bounds and kinds,
//!   linear constraints, min/max objective). The constraint matrix is
//!   stored column-major, so sparse model generators can emit columns
//!   directly ([`Problem::new_constraint`] + [`Problem::add_column`]).
//! - A **sparse revised simplex** for the LP relaxation: CSC column
//!   storage, eta-file (product-form) basis factorization with periodic
//!   refactorization, bounded-variable pivoting (upper bounds implicit,
//!   not rows), Dantzig + partial pricing with a Bland's-rule
//!   anti-cycling fallback, and a [`Basis`] snapshot API for
//!   warm-started re-solves.
//! - A retained **dense two-phase simplex** reference
//!   ([`Problem::solve_lp_dense`]) that the sparse engine is
//!   differentially tested against.
//! - **Branch and bound** for integer variables: best-first on the LP
//!   bound, most-fractional branching, children warm-started from the
//!   parent basis, and deterministic batch-parallel node evaluation
//!   (the incumbent trace is byte-identical across thread counts).
//!
//! The solver is exact and deterministic, not industrial-strength; its
//! optimality is cross-checked against exhaustive enumeration and the
//! dense reference in the test suite.
//!
//! # Examples
//!
//! A 0/1 knapsack: maximize `3x + 4y + 5z` subject to
//! `2x + 3y + 4z ≤ 5`. The optimum picks `x` and `y` for value 7.
//!
//! ```
//! use ocd_lp::{Problem, Relation, Sense};
//!
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_binary(3.0);
//! let y = p.add_binary(4.0);
//! let z = p.add_binary(5.0);
//! p.add_constraint([(x, 2.0), (y, 3.0), (z, 4.0)], Relation::Le, 5.0);
//! let sol = p.solve_mip(&Default::default()).unwrap();
//! assert_eq!(sol.objective.round() as i64, 7);
//! assert_eq!(sol.value(x).round() as i64, 1);
//! assert_eq!(sol.value(z).round() as i64, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod branch;
mod model;
mod simplex;
mod sparse;

pub use branch::{MipOptions, MipSolution};
pub use model::{ConId, LpError, LpSolution, Problem, Relation, Sense, VarId, VarKind};
pub use sparse::{Basis, LpStats};
