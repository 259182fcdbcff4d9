//! The suite-wide **metrics layer**: named counters, gauges,
//! fixed-boundary log2 histograms and per-index counter series in one
//! serializable [`MetricsSnapshot`], shared by the lockstep engine
//! (`ocd-heuristics`), the asynchronous swarm runtimes (`ocd-net`) and
//! the CLI.
//!
//! # Design
//!
//! Metrics are derived, not recorded: no hot loop touches a snapshot.
//! Each run type builds its snapshot on demand from the finished run —
//! the engine from its outcome, schedule and instance, the coded loop
//! and both swarm runtimes from their report counters — with
//! [`MetricsSnapshot::new`]. Counters and gauges are name/value pairs,
//! a histogram is built from the values it observes
//! ([`HistogramSnapshot::of`]) and a series from its per-index vector
//! ([`SeriesSnapshot::new`]). Where the time went inside a loop is the
//! span layer's job ([`crate::span`]), the one in-loop probe.
//!
//! # Determinism
//!
//! A [`MetricsSnapshot`] is canonical: [`MetricsSnapshot::new`] sorts
//! each kind of metric by name, a histogram's bucket boundaries are
//! fixed powers of two, and no metric holds a wall-clock time — so two
//! equal-seed runs of a deterministic system serialize to
//! **byte-identical** snapshots.
//!
//! # Histogram bucket convention
//!
//! Histograms use [`HISTOGRAM_BUCKETS`] = 65 fixed log2 buckets over
//! the full `u64` domain, with half-open boundaries `[2^(i-1), 2^i)`:
//!
//! - **bucket 0** holds exactly the value `0`;
//! - **bucket `i` for `1 ≤ i ≤ 64`** holds `[2^(i-1), 2^i)` — value
//!   `v ≥ 1` lands in bucket `floor(log2 v) + 1` (see [`bucket_of`]);
//! - **bucket 64**, the top bucket, therefore holds `[2^63, u64::MAX]`
//!   — `u64::MAX` included, since `2^64` is not representable.
//!
//! Every `u64` has a well-defined bucket; nothing is clamped or
//! dropped. The `sum` saturates at `u64::MAX` instead of wrapping.
//!
//! # Examples
//!
//! ```
//! use ocd_core::metrics::{HistogramSnapshot, MetricsSnapshot, SeriesSnapshot};
//!
//! let snap = MetricsSnapshot::new(
//!     [("net.sends", 3)],
//!     [("net.unfinished_vertices", 0)],
//!     // 4 falls in the [4, 8) bucket.
//!     [HistogramSnapshot::of("net.payload_tokens", [4])],
//!     [SeriesSnapshot::new("net.arc_sends", vec![1, 2])],
//! );
//! assert_eq!(snap.counter("net.sends"), Some(3));
//! let json = snap.to_json();
//! assert_eq!(MetricsSnapshot::from_json(&json).unwrap(), snap);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Number of log2 histogram buckets: bucket 0 holds the value 0 and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, so bucket 64
/// catches everything from `2^63` up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a value under the fixed log2 boundaries.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at the end of the run.
    pub value: i64,
}

/// One log2 histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// [`HISTOGRAM_BUCKETS`] fixed log2 buckets (see [`bucket_of`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The histogram of `values`: their count, saturating sum and
    /// per-bucket tallies.
    #[must_use]
    pub fn of(name: impl Into<String>, values: impl IntoIterator<Item = u64>) -> Self {
        let mut h = HistogramSnapshot {
            name: name.into(),
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        for value in values {
            h.count += 1;
            h.sum = h.sum.saturating_add(value);
            h.buckets[bucket_of(value)] += 1;
        }
        h
    }

    /// Mean observation (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One counter series (per-arc / per-vertex values) in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Per-index accumulated values.
    pub values: Vec<u64>,
}

impl SeriesSnapshot {
    /// The series `name` with one value per index.
    #[must_use]
    pub fn new(name: impl Into<String>, values: Vec<u64>) -> Self {
        SeriesSnapshot {
            name: name.into(),
            values,
        }
    }
}

/// The metrics of one finished run: every metric sorted by name,
/// serializable to JSON and CSV, embeddable in a
/// [`RunRecord`](crate::RunRecord).
///
/// Snapshots of deterministic same-seed runs are byte-identical when
/// serialized: no metric holds a wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Counter series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Builds the canonical snapshot from finished values, sorting each
    /// kind of metric by name. Names must be unique within a kind.
    #[must_use]
    pub fn new<N: Into<String>>(
        counters: impl IntoIterator<Item = (N, u64)>,
        gauges: impl IntoIterator<Item = (N, i64)>,
        histograms: impl IntoIterator<Item = HistogramSnapshot>,
        series: impl IntoIterator<Item = SeriesSnapshot>,
    ) -> Self {
        let mut snap = MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterSnapshot {
                    name: name.into(),
                    value,
                })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(name, value)| GaugeSnapshot {
                    name: name.into(),
                    value,
                })
                .collect(),
            histograms: histograms.into_iter().collect(),
            series: series.into_iter().collect(),
        };
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap.series.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a counter series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&[u64]> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.values.as_slice())
    }

    /// Serializes to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("metrics snapshot: {e}"))
    }

    /// Serializes as CSV: one `kind,name,key,value` row per datum.
    /// Counters and gauges use an empty `key`; histograms emit `count`,
    /// `sum`, and one `bucket_<i>` row per non-empty bucket; series
    /// emit one row per non-zero slot (the slot index as `key`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,key,value\n");
        for c in &self.counters {
            let _ = writeln!(out, "counter,{},,{}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "gauge,{},,{}", g.name, g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "histogram,{},count,{}", h.name, h.count);
            let _ = writeln!(out, "histogram,{},sum,{}", h.name, h.sum);
            for (i, b) in h.buckets.iter().enumerate() {
                if *b > 0 {
                    let _ = writeln!(out, "histogram,{},bucket_{i},{b}", h.name);
                }
            }
        }
        for s in &self.series {
            for (i, v) in s.values.iter().enumerate() {
                if *v > 0 {
                    let _ = writeln!(out, "series,{},{i},{v}", s.name);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind of metric, each kind built in reverse name order.
    fn sample() -> MetricsSnapshot {
        MetricsSnapshot::new(
            [("b.counter", 7), ("a.counter", 1)],
            [("y.gauge", 2), ("x.gauge", -9)],
            [
                HistogramSnapshot::of("m.hist", [0, 6]),
                HistogramSnapshot::of("l.hist", []),
            ],
            [
                SeriesSnapshot::new("arcs", vec![0, 0, 11]),
                SeriesSnapshot::new("any", Vec::new()),
            ],
        )
    }

    #[test]
    fn bucket_boundaries_are_fixed_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn snapshot_holds_what_it_was_built_from() {
        let snap = sample();
        assert_eq!(snap.counter("b.counter"), Some(7));
        assert_eq!(snap.counter("a.counter"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("x.gauge"), Some(-9));
        let hist = snap.histogram("m.hist").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 6);
        assert_eq!(hist.buckets[0], 1, "value 0 lands in bucket 0");
        assert_eq!(hist.buckets[3], 1, "value 6 lands in [4, 8)");
        assert_eq!(hist.mean(), Some(3.0));
        let empty = snap.histogram("l.hist").unwrap();
        assert_eq!((empty.count, empty.sum, empty.mean()), (0, 0, None));
        assert_eq!(empty.buckets, vec![0; HISTOGRAM_BUCKETS]);
        assert_eq!(snap.series("arcs"), Some([0, 0, 11].as_slice()));
        assert_eq!(snap.series("any"), Some([].as_slice()));
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }

    #[test]
    fn output_is_name_sorted_whatever_the_build_order() {
        let snap = sample();
        let names = |names: Vec<&str>| names.into_iter().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            snap.counters
                .iter()
                .map(|c| c.name.clone())
                .collect::<Vec<_>>(),
            names(vec!["a.counter", "b.counter"])
        );
        assert_eq!(
            snap.gauges
                .iter()
                .map(|g| g.name.clone())
                .collect::<Vec<_>>(),
            names(vec!["x.gauge", "y.gauge"])
        );
        assert_eq!(
            snap.histograms
                .iter()
                .map(|h| h.name.clone())
                .collect::<Vec<_>>(),
            names(vec!["l.hist", "m.hist"])
        );
        assert_eq!(
            snap.series
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>(),
            names(vec!["any", "arcs"])
        );
        // The same metrics built in the other order serialize identically.
        let forward = MetricsSnapshot::new(
            [("a.counter", 1), ("b.counter", 7)],
            [("x.gauge", -9), ("y.gauge", 2)],
            [
                HistogramSnapshot::of("l.hist", []),
                HistogramSnapshot::of("m.hist", [6, 0]),
            ],
            [
                SeriesSnapshot::new("any", Vec::new()),
                SeriesSnapshot::new("arcs", vec![0, 0, 11]),
            ],
        );
        assert_eq!(forward.to_json(), snap.to_json());
        assert_eq!(forward.to_csv(), snap.to_csv());
    }

    #[test]
    fn extreme_observations_land_in_pinned_buckets() {
        // Regression pin for the domain edges: 0 and u64::MAX must
        // land in well-defined buckets (0 and 64 — the module-doc
        // convention), and the saturating sum must not wrap.
        let hist = HistogramSnapshot::of("edges", [0, u64::MAX]);
        assert_eq!(hist.count, 2);
        assert_eq!(hist.buckets[0], 1, "value 0 is pinned to bucket 0");
        assert_eq!(
            hist.buckets[64], 1,
            "u64::MAX is pinned to the top bucket [2^63, u64::MAX]"
        );
        assert_eq!(hist.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 2, "no bucket lost it");
        assert_eq!(hist.sum, u64::MAX, "0 + MAX needs no saturation yet");
        // A second MAX observation saturates instead of wrapping.
        let saturated = HistogramSnapshot::of("edges", [0, u64::MAX, u64::MAX]);
        assert_eq!(saturated.sum, u64::MAX);
        assert_eq!(saturated.buckets[64], 2);
        assert_eq!(
            HistogramSnapshot::of("edges", [u64::MAX - 1, 2]).sum,
            u64::MAX
        );
        // The boundary neighbours of the top bucket stay distinct.
        assert_eq!(bucket_of((1 << 63) - 1), 63);
        assert_eq!(bucket_of(1 << 63), 64);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), snap.to_json());
        assert!(MetricsSnapshot::from_json("[not json").is_err());
    }

    #[test]
    fn csv_rows_round_trip_to_the_snapshot() {
        let snap = MetricsSnapshot::new(
            [("c", 3)],
            [("g", -1)],
            [HistogramSnapshot::of("h", [5, 1 << 40])],
            [SeriesSnapshot::new("s", vec![0, 2, 0])],
        );
        let csv = snap.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("kind,name,key,value"));
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
        assert_eq!(
            rows,
            [
                ["counter", "c", "", "3"],
                ["gauge", "g", "", "-1"],
                ["histogram", "h", "count", "2"],
                ["histogram", "h", "sum", "1099511627781"],
                ["histogram", "h", "bucket_3", "1"],
                ["histogram", "h", "bucket_41", "1"],
                ["series", "s", "1", "2"],
            ]
        );
        // Reading the rows back rebuilds every non-zero datum.
        let mut series = vec![0; 3];
        let mut buckets = vec![0; HISTOGRAM_BUCKETS];
        for row in &rows {
            match (row[0], row[2]) {
                ("series", i) => series[i.parse::<usize>().unwrap()] = row[3].parse().unwrap(),
                ("histogram", key) if key.starts_with("bucket_") => {
                    buckets[key["bucket_".len()..].parse::<usize>().unwrap()] =
                        row[3].parse().unwrap();
                }
                _ => {}
            }
        }
        assert_eq!(snap.series("s"), Some(series.as_slice()));
        assert_eq!(snap.histogram("h").unwrap().buckets, buckets);
    }
}
