//! Experiment harness reproducing every figure and table of the OCD
//! paper's evaluation (§5).
//!
//! Each figure has a binary under `src/bin/` that regenerates its data
//! series as an aligned table on stdout and a CSV under `results/`:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_tradeoff` | Figure 1 (time/bandwidth at odds) |
//! | `fig2_size_random` | Figure 2 (moves & bandwidth vs graph size, random) |
//! | `fig3_size_transit_stub` | Figure 3 (same, transit-stub) |
//! | `fig4_receiver_density` | Figure 4 (moves & bandwidth vs want density) |
//! | `fig5_multi_file` | Figure 5 (moves & bandwidth vs number of files) |
//! | `fig6_multi_sender` | Figure 6 (same, random per-file senders) |
//! | `fig7_reduction` | Figure 7 / Theorem 5 (Dominating Set ⟺ 2-step FOCD) |
//! | `table_optimal_small` | §3.4 exact optima vs heuristics on small graphs |
//! | `table_competitive_gap` | Theorem 4 (no c-competitive on-line algorithm) |
//!
//! All binaries accept `--quick` for a reduced sweep (CI-sized),
//! `--seed <u64>` to change the master seed, `--out <dir>` for the CSV
//! directory and `--help`; a flag a binary does not read is a usage
//! error ([`args`]). The library half of the crate hosts the shared
//! machinery: the flag reader shared with the `ocd` CLI ([`flags`]),
//! multi-seed parallel evaluation ([`runner`]), summary statistics
//! ([`stats`]), aligned-table/CSV output ([`table`]), and the
//! perf-trajectory snapshot gate ([`compare`], exposed as
//! `ocd bench compare`).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod args;
pub mod compare;
pub mod flags;
pub mod runner;
pub mod stats;
pub mod table;
