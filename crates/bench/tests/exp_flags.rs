//! Flag and output handling of the experiment binaries, driven through
//! the built executables: `--help` is usage on stdout with exit 0, a
//! flag the sweep never reads is a usage error (exit 2), and an `--out`
//! directory, `table_exact --emit` file or `table_scale
//! --emit-schedules` directory that cannot be created fails (exit 1)
//! before any work.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Every experiment binary, with whether its sweep reads `--full`.
const BINARIES: [(&str, bool); 18] = [
    (env!("CARGO_BIN_EXE_fig1_tradeoff"), false),
    (env!("CARGO_BIN_EXE_fig2_size_random"), false),
    (env!("CARGO_BIN_EXE_fig3_size_transit_stub"), false),
    (env!("CARGO_BIN_EXE_fig4_receiver_density"), false),
    (env!("CARGO_BIN_EXE_fig5_multi_file"), false),
    (env!("CARGO_BIN_EXE_fig6_multi_sender"), false),
    (env!("CARGO_BIN_EXE_fig7_reduction"), false),
    (env!("CARGO_BIN_EXE_table_ablation"), false),
    (env!("CARGO_BIN_EXE_table_async"), false),
    (env!("CARGO_BIN_EXE_table_baselines"), false),
    (env!("CARGO_BIN_EXE_table_coding"), false),
    (env!("CARGO_BIN_EXE_table_coding_frontier"), false),
    (env!("CARGO_BIN_EXE_table_competitive_gap"), true),
    (env!("CARGO_BIN_EXE_table_dynamics"), false),
    (env!("CARGO_BIN_EXE_table_exact"), true),
    (env!("CARGO_BIN_EXE_table_optimal_small"), false),
    (env!("CARGO_BIN_EXE_table_scale"), true),
    (env!("CARGO_BIN_EXE_table_underlay"), false),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

/// A scratch directory of this test's own, emptied first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocd_exp_flags_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for (bin, reads_full) in BINARIES {
        let out = run(bin, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        assert!(stdout.starts_with("usage: "), "{bin}: {stdout}");
        assert!(stdout.contains("--out <dir>"), "{bin}: {stdout}");
        assert_eq!(stdout.contains("--full"), reads_full, "{bin}: {stdout}");
        assert!(out.stderr.is_empty(), "{bin} --help wrote to stderr");
    }
}

#[test]
fn full_is_a_usage_error_where_the_sweep_never_reads_it() {
    let dir = scratch("full");
    let dir = dir.to_str().unwrap();
    for (bin, _) in BINARIES.into_iter().filter(|&(_, reads_full)| !reads_full) {
        let out = run(bin, &["--quick", "--full", "--out", dir]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} --full: {stderr}");
        assert!(stderr.contains("unknown flag --full"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} started its sweep");
    }
    assert_eq!(
        std::fs::read_dir(dir).unwrap().count(),
        0,
        "a rejected invocation wrote nothing"
    );
}

#[test]
fn unusable_out_fails_before_the_sweep() {
    let dir = scratch("out");
    let file = dir.join("regular-file");
    std::fs::write(&file, "").unwrap();
    let bad = file.join("sub");
    let bad = bad.to_str().unwrap();
    for bin in [
        env!("CARGO_BIN_EXE_fig1_tradeoff"),
        env!("CARGO_BIN_EXE_fig2_size_random"),
        env!("CARGO_BIN_EXE_table_exact"),
    ] {
        let out = run(bin, &["--quick", "--out", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} --out {bad}: {stderr}");
        assert!(
            stderr.contains(bad),
            "{bin} does not name the path: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} started its sweep");
    }
}

#[test]
fn unusable_artifact_paths_fail_before_the_sweep() {
    let dir = scratch("artifacts");
    let file = dir.join("regular-file");
    std::fs::write(&file, "").unwrap();
    let missing = dir.join("missing").join("exact.json");
    let under_file = file.join("schedules");
    let out = dir.to_str().unwrap();
    for (bin, flag, bad) in [
        (
            env!("CARGO_BIN_EXE_table_exact"),
            "--emit",
            missing.to_str().unwrap(),
        ),
        (
            env!("CARGO_BIN_EXE_table_scale"),
            "--emit-schedules",
            under_file.to_str().unwrap(),
        ),
    ] {
        let output = run(bin, &["--quick", "--out", out, flag, bad]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{bin} {flag} {bad}: {stderr}"
        );
        assert!(
            stderr.contains(bad),
            "{bin} does not name the path: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{bin} started its sweep");
    }
}

#[test]
fn malformed_values_and_repeated_flags_are_usage_errors() {
    let exact = env!("CARGO_BIN_EXE_table_exact");
    let scale = env!("CARGO_BIN_EXE_table_scale");
    for (bin, args, message) in [
        (exact, &["--seed", "x"][..], "invalid value `x` for --seed"),
        (
            exact,
            &["--threads", "0"][..],
            "--threads must be at least 1",
        ),
        (scale, &["--shards", "0"][..], "--shards must be at least 1"),
        (scale, &["--tokens", "0"][..], "--tokens must be at least 1"),
        (
            scale,
            &["--quick", "--quick"][..],
            "flag --quick given more than once",
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}
