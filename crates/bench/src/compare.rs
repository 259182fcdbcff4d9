//! Perf-trajectory snapshot comparison: the `bench compare` gate.
//!
//! Criterion runs under `OCD_BENCH_JSON=<FILE>` write a snapshot of
//! `{name, mean_ns, min_ns, max_ns}` rows; each PR commits one as
//! `BENCH_<n>.json` (hand-wrapped as `{"pr": n, "benches": [...]}` so
//! the provenance travels with the numbers). This module diffs two
//! snapshots by `mean_ns` per bench name and renders the delta table
//! CI prints; a delta above the tolerance on any shared name is a
//! **regression** and makes the gate exit nonzero.
//!
//! Both shapes parse — the bare array criterion emits and the
//! `{"pr", "benches"}` wrapper the committed files use — so
//! `ocd bench compare BENCH_8.json fresh.json` works without a
//! massaging step. Names present in only one snapshot are listed but
//! never gate: adding or retiring a bench is not a regression.

use serde::Deserialize;
use std::collections::BTreeMap;

/// One bench entry of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Criterion bench id, e.g. `simplex/solve_n16`.
    pub name: String,
    /// Mean wall time per iteration in nanoseconds.
    pub mean_ns: f64,
}

/// Per-name delta between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Bench name shared by both snapshots.
    pub name: String,
    /// Mean in the old snapshot, nanoseconds.
    pub old_mean_ns: f64,
    /// Mean in the new snapshot, nanoseconds.
    pub new_mean_ns: f64,
    /// Relative change: `new/old - 1` (+0.20 = 20% slower).
    pub change: f64,
}

/// Outcome of [`compare`]: the shared-name deltas plus the names each
/// side holds alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Deltas for every name in both snapshots, sorted by name.
    pub deltas: Vec<Delta>,
    /// Names only the old snapshot has (retired benches).
    pub only_old: Vec<String>,
    /// Names only the new snapshot has (new benches).
    pub only_new: Vec<String>,
    /// The regression threshold the comparison was run with.
    pub tolerance: f64,
}

/// A snapshot row as serialized (extra fields like `min_ns`/`max_ns`
/// are ignored, matching upstream serde's default).
#[derive(Debug, Clone, Deserialize)]
struct RawRow {
    name: String,
    mean_ns: f64,
}

/// The committed `{"pr": n, "benches": [...]}` wrapper shape.
#[derive(Debug, Clone, Deserialize)]
struct Wrapped {
    benches: Vec<RawRow>,
}

/// Parses a bench snapshot: either the bare JSON array criterion's
/// `OCD_BENCH_JSON` hook emits, or the committed
/// `{"pr": n, "benches": [...]}` wrapper.
///
/// # Errors
///
/// A message naming the malformed construct.
pub fn parse_snapshot(json: &str) -> Result<Vec<BenchRow>, String> {
    let rows = match serde_json::from_str::<Vec<RawRow>>(json) {
        Ok(rows) => rows,
        Err(array_err) => serde_json::from_str::<Wrapped>(json)
            .map(|w| w.benches)
            .map_err(|wrapped_err| {
                format!(
                    "snapshot is neither a bench array ({array_err}) nor a \
                     {{\"benches\": [...]}} object ({wrapped_err})"
                )
            })?,
    };
    rows.into_iter()
        .enumerate()
        .map(|(i, r)| {
            if !(r.mean_ns.is_finite() && r.mean_ns > 0.0) {
                return Err(format!(
                    "bench row {i} (`{}`) has non-positive mean_ns",
                    r.name
                ));
            }
            Ok(BenchRow {
                name: r.name,
                mean_ns: r.mean_ns,
            })
        })
        .collect()
}

/// Diffs two snapshots over the intersection of their bench names.
#[must_use]
pub fn compare(old: &[BenchRow], new: &[BenchRow], tolerance: f64) -> Comparison {
    let old_by_name: BTreeMap<&str, f64> =
        old.iter().map(|r| (r.name.as_str(), r.mean_ns)).collect();
    let new_by_name: BTreeMap<&str, f64> =
        new.iter().map(|r| (r.name.as_str(), r.mean_ns)).collect();
    let deltas = old_by_name
        .iter()
        .filter_map(|(&name, &old_mean_ns)| {
            let new_mean_ns = *new_by_name.get(name)?;
            Some(Delta {
                name: name.to_string(),
                old_mean_ns,
                new_mean_ns,
                change: new_mean_ns / old_mean_ns - 1.0,
            })
        })
        .collect();
    let only = |a: &BTreeMap<&str, f64>, b: &BTreeMap<&str, f64>| {
        a.keys()
            .filter(|k| !b.contains_key(*k))
            .map(|k| (*k).to_string())
            .collect()
    };
    Comparison {
        deltas,
        only_old: only(&old_by_name, &new_by_name),
        only_new: only(&new_by_name, &old_by_name),
        tolerance,
    }
}

impl Comparison {
    /// Deltas above the tolerance: the regressions that gate.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.change > self.tolerance)
            .collect()
    }

    /// True when any shared bench regressed beyond the tolerance.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.change > self.tolerance)
    }

    /// The human-readable delta table CI prints: one row per shared
    /// name with old/new means and the signed percentage change,
    /// regressions flagged, improvements marked, and a trailing
    /// summary line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let name_width = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .chain(["bench".len()])
            .max()
            .unwrap_or(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>14}  {:>14}  {:>8}",
            "bench", "old mean_ns", "new mean_ns", "change"
        );
        for d in &self.deltas {
            let flag = if d.change > self.tolerance {
                "  REGRESSION"
            } else if d.change < -self.tolerance {
                "  improved"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>14.1}  {:>14.1}  {:>+7.1}%{}",
                d.name,
                d.old_mean_ns,
                d.new_mean_ns,
                d.change * 100.0,
                flag
            );
        }
        for name in &self.only_old {
            let _ = writeln!(out, "{name:<name_width$}  (only in old snapshot)");
        }
        for name in &self.only_new {
            let _ = writeln!(out, "{name:<name_width$}  (only in new snapshot)");
        }
        let regressions = self.regressions().len();
        let _ = writeln!(
            out,
            "{} benches compared, {} regression{} above {:.0}% tolerance",
            self.deltas.len(),
            regressions,
            if regressions == 1 { "" } else { "s" },
            self.tolerance * 100.0
        );
        out
    }
}

/// Loads both snapshot files, compares them, and returns the rendered
/// table plus the gate verdict — the implementation behind
/// `ocd bench compare`.
///
/// # Errors
///
/// A message naming the unreadable or malformed file.
pub fn compare_files(
    old_path: &str,
    new_path: &str,
    tolerance: f64,
) -> Result<(String, bool), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let old = parse_snapshot(&read(old_path)?).map_err(|e| format!("{old_path}: {e}"))?;
    let new = parse_snapshot(&read(new_path)?).map_err(|e| format!("{new_path}: {e}"))?;
    if old.is_empty() {
        return Err(format!("{old_path}: snapshot has no bench rows"));
    }
    let cmp = compare(&old, &new, tolerance);
    Ok((cmp.render(), cmp.has_regressions()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, mean: f64) -> BenchRow {
        BenchRow {
            name: name.into(),
            mean_ns: mean,
        }
    }

    #[test]
    fn parses_both_snapshot_shapes() {
        let bare = r#"[{"name": "a/b", "mean_ns": 120.5, "min_ns": 100.0, "max_ns": 150.0}]"#;
        let wrapped = r#"{"pr": 10, "benches": [{"name": "a/b", "mean_ns": 120.5}]}"#;
        assert_eq!(
            parse_snapshot(bare).unwrap(),
            parse_snapshot(wrapped).unwrap()
        );
        assert_eq!(parse_snapshot(bare).unwrap()[0].name, "a/b");
    }

    #[test]
    fn malformed_snapshots_name_the_problem() {
        assert!(parse_snapshot("42").unwrap_err().contains("array"));
        assert!(parse_snapshot(r#"{"pr": 1}"#)
            .unwrap_err()
            .contains("benches"));
        assert!(parse_snapshot(r#"[{"mean_ns": 1.0}]"#)
            .unwrap_err()
            .contains("name"));
        assert!(parse_snapshot(r#"[{"name": "x", "mean_ns": 0.0}]"#)
            .unwrap_err()
            .contains("non-positive"));
    }

    #[test]
    fn equal_snapshots_pass_and_injected_regression_gates() {
        // The deliberate-regression proof of the nonzero exit path: a
        // >15% mean_ns inflation on one shared bench must gate at the
        // default tolerance, while identical inputs must not.
        let old = vec![row("engine/step", 1000.0), row("bnb/solve", 5000.0)];
        let same = compare(&old, &old, 0.15);
        assert!(!same.has_regressions());
        assert!(same.regressions().is_empty());

        let mut slower = old.clone();
        slower[1].mean_ns *= 1.16; // injected 16% regression
        let gated = compare(&old, &slower, 0.15);
        assert!(gated.has_regressions());
        let regs = gated.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "bnb/solve");
        assert!(gated.render().contains("REGRESSION"));

        // 15% exactly is within tolerance (strictly-above gates).
        let mut borderline = old.clone();
        borderline[1].mean_ns *= 1.15;
        assert!(!compare(&old, &borderline, 0.15).has_regressions());
    }

    #[test]
    fn improvements_and_disjoint_names_never_gate() {
        let old = vec![row("a", 1000.0), row("gone", 10.0)];
        let new = vec![row("a", 200.0), row("fresh", 10.0)];
        let cmp = compare(&old, &new, 0.15);
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.only_old, vec!["gone".to_string()]);
        assert_eq!(cmp.only_new, vec!["fresh".to_string()]);
        let table = cmp.render();
        assert!(table.contains("improved"));
        assert!(table.contains("only in old"));
        assert!(table.contains("only in new"));
    }
}
