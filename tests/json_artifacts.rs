//! Every committed JSON artifact, read with its own type:
//!
//! - files the current encoder wrote (the v4 `RunRecord` fixture and the
//!   serde-written golden files) re-encode byte for byte;
//! - older records (the v1–v3 fixtures and the v2 underlay logs under
//!   `results/logs/`) certify, and decode → encode → decode gives the
//!   same value;
//! - every file, truncated at sampled prefix lengths and, separately,
//!   with one digit changed, loads to `Ok` or `Err` and never panics (a
//!   record that still loads is certified too, which must not panic
//!   either).

use ocd::core::{MetricsSnapshot, ProvenanceRecord, RunRecord, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// How an artifact is read and written.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A `RunRecord`; `current` when this build's encoder wrote it.
    Record { current: bool },
    /// A pretty `MetricsSnapshot`.
    Metrics,
    /// A pretty `ProvenanceRecord`.
    Provenance,
    /// A compact `Schedule`.
    Schedule,
    /// A compact per-vertex completion tick list.
    Completion,
}

/// Prefix lengths sampled per file.
const TRUNCATIONS: usize = 64;

/// Single-digit changes tried per file.
const DIGIT_CHANGES: usize = 64;

/// Every committed artifact with its kind, in a stable order.
fn artifacts() -> Vec<(PathBuf, Kind)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    let mut scan = |dir: &str, kind_of: &dyn Fn(&str) -> Option<Kind>| {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if let Some(kind) = kind_of(&name) {
                found.push((path, kind));
            }
        }
    };
    scan("crates/core/tests/fixtures", &|name| {
        name.ends_with(".json").then_some(Kind::Record {
            current: name == "run_record_v4.json",
        })
    });
    let golden = |name: &str| match name
        .rsplit_once('.')
        .and_then(|(stem, _)| stem.rsplit_once('.'))
    {
        Some((_, "metrics")) => Some(Kind::Metrics),
        Some((_, "provenance")) => Some(Kind::Provenance),
        Some((_, "schedule")) => Some(Kind::Schedule),
        Some((_, "completion")) => Some(Kind::Completion),
        _ => None,
    };
    scan("crates/heuristics/tests/golden", &golden);
    scan("crates/net/tests/golden", &golden);
    scan("results/logs", &|name| {
        (name.starts_with("underlay_") && name.ends_with(".json"))
            .then_some(Kind::Record { current: false })
    });
    found
}

/// Loads `text` as `kind`, certifying a record that loads; returns
/// what the encoder writes for the loaded value.
fn load(kind: Kind, text: &str) -> Result<String, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    match kind {
        Kind::Record { .. } => {
            let record = RunRecord::from_json(text).map_err(|e| err(&e))?;
            record.certify().map_err(|e| err(&e))?;
            record.to_json().map_err(|e| err(&e))
        }
        Kind::Metrics => MetricsSnapshot::from_json(text).map(|m| m.to_json()),
        Kind::Provenance => serde_json::from_str::<ProvenanceRecord>(text)
            .map_err(|e| err(&e))
            .and_then(|p| serde_json::to_string_pretty(&p).map_err(|e| err(&e))),
        Kind::Schedule => serde_json::from_str::<Schedule>(text)
            .map_err(|e| err(&e))
            .and_then(|s| serde_json::to_string(&s).map_err(|e| err(&e))),
        Kind::Completion => serde_json::from_str::<Vec<Option<u64>>>(text)
            .map_err(|e| err(&e))
            .and_then(|c| serde_json::to_string(&c).map_err(|e| err(&e))),
    }
}

#[test]
fn committed_artifacts_load_and_round_trip() {
    let artifacts = artifacts();
    assert!(artifacts.len() >= 40, "found only {artifacts:?}");
    for (path, kind) in &artifacts {
        let text = std::fs::read_to_string(path).unwrap();
        let name = path.display();
        let encoded = load(*kind, &text).unwrap_or_else(|e| panic!("{name}: {e}"));
        match kind {
            Kind::Record { current: false } => {
                // An old schema re-encodes differently (fields added
                // since), but nothing is lost on the way.
                let again = load(*kind, &encoded).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(
                    again, encoded,
                    "{name}: decode → encode → decode changed it"
                );
                assert_eq!(
                    RunRecord::from_json(&text).unwrap(),
                    RunRecord::from_json(&encoded).unwrap(),
                    "{name}"
                );
            }
            _ => assert!(encoded == text, "{name}: re-encoding changed the bytes"),
        }
    }
}

#[test]
fn truncated_or_altered_artifacts_never_panic() {
    let mut rng = StdRng::seed_from_u64(21);
    for (path, kind) in artifacts() {
        let text = std::fs::read_to_string(&path).unwrap();
        let name = path.display();
        let mut mutants: Vec<(String, String)> = Vec::new();
        for i in 0..TRUNCATIONS {
            let mut cut = i * text.len() / TRUNCATIONS + rng.random_range(0..16usize);
            cut = cut.min(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            mutants.push((format!("truncated to {cut} bytes"), text[..cut].to_string()));
        }
        let digits: Vec<usize> = text
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        for _ in 0..DIGIT_CHANGES.min(digits.len()) {
            let at = digits[rng.random_range(0..digits.len())];
            let mut bytes = text.clone().into_bytes();
            bytes[at] = b'0' + (bytes[at] - b'0' + rng.random_range(1..10u8)) % 10;
            let changed = String::from_utf8(bytes).expect("a digit for a digit");
            mutants.push((format!("digit at byte {at} changed"), changed));
        }
        for (how, mutant) in mutants {
            let outcome = std::panic::catch_unwind(|| load(kind, &mutant).map(drop));
            assert!(outcome.is_ok(), "{name}, {how}: the loader panicked");
        }
    }
}
