//! Whole-workload benchmark for the ocd workspace.
//!
//! Four closed-batch workloads, one per process, each driving the
//! library only through its public entry points:
//!
//! - [`scale`]: generate → simulate (2-shard `Sharded<ShardedLocal>`)
//!   → replay → `RunRecord` encode/decode/certify on two `G(10^4, p)`;
//! - [`swarm`]: the uncoded swarm runtime on two transit-stub overlays
//!   with lossy links and control plane;
//! - [`coded`]: RLNC over GF(2^8) through the coded lockstep engine and
//!   the coded swarm runtime;
//! - [`exact`]: the IP makespan path (sparse simplex + branch-and-bound)
//!   on `table_exact`'s instances, plus the combinatorial FOCD solver.
//!
//! Every op's output is checked; a failed check is counted against the
//! ops attempted instead of aborting the run ([`Tally`]). End-to-end
//! numbers come from untraced passes; per-layer numbers come from
//! separate traced passes that wrap the library's trait objects in
//! timing shims ([`timing`]) and pass a wall-clock
//! [`FlightRecorder`](ocd_core::FlightRecorder) through the existing
//! `*_with_spans` entry points.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale|swarm|coded|exact> --seed 2005 --seconds 25 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

pub mod coded;
pub mod exact;
pub mod host;
pub mod metrics;
pub mod run;
pub mod scale;
pub mod swarm;
pub mod timing;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// The workload seed `table_exact` uses, so `exact` rebuilds the
/// committed `results/table_exact.csv` instances.
pub const DEFAULT_SEED: u64 = 2005;

/// Threads every multi-threaded layer may use: `Sharded` shards and
/// `MipOptions::threads`.
pub const THREADS: usize = 2;

/// Input scale of a workload: the benchmark's sizes, or a toy size for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs that finish in milliseconds.
    Toy,
}

/// Ops attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// `op: reason` for every failure, in order.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one op and, if its check failed, one failure.
    pub fn op(&mut self, name: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            self.failures.push(format!("{name}: {reason}"));
        }
    }
}

/// `Ok(())` when `cond` holds, else the lazily built reason.
pub(crate) fn ensure(cond: bool, reason: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(reason())
    }
}

/// The two objectives of the paper, summed over a pass's schedules:
/// FOCD makespan (steps or ticks) and EOCD bandwidth (token-moves or
/// coded packets sent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Objective {
    /// Sum of steps or ticks.
    pub makespan: u64,
    /// Sum of transfers.
    pub bandwidth: u64,
}

impl Objective {
    /// Adds one schedule's makespan and bandwidth.
    pub fn add(&mut self, makespan: u64, bandwidth: u64) {
        self.makespan += makespan;
        self.bandwidth += bandwidth;
    }
}

/// Per-layer values of one traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One workload: seeded input construction plus untraced and traced
/// passes over the same ops.
pub trait Workload: Sized {
    /// Builds the inputs from `seed`. Everything here counts as set-up.
    fn setup(seed: u64, size: Size) -> Self;

    /// One untraced pass of every op, each output checked into `tally`.
    fn run(&self, tally: &mut Tally) -> Objective;

    /// The same ops as [`Workload::run`], traced: per-layer times and
    /// counts go into `layers`.
    fn run_traced(&self, tally: &mut Tally, layers: &mut Layers) -> Objective;

    /// Traced-only measurements outside the timed pass (reference runs,
    /// microkernels); they are not part of the traced total.
    fn extras(&self, tally: &mut Tally, layers: &mut Layers);

    /// The disjoint layer times that, with `unattributed_s`, add up to a
    /// traced pass's total.
    const ATTRIBUTED: &'static [&'static str];
}

/// The seed of one input or op stream of a workload.
#[must_use]
pub(crate) fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A deterministic RNG for one input or op stream of a workload.
#[must_use]
pub(crate) fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, stream))
}

/// Runs `f`, returning its result and the elapsed wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of `values` (lower middle for an even count); 0 when empty.
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
