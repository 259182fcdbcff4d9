//! Host fingerprint, calibration kernel and peak memory, recorded with
//! every result so a slow host shows up as a slow calibration rather
//! than as slow code.

use crate::{json_str, median, timed};
use std::hint::black_box;

/// What the host was and how fast it ran a fixed kernel.
#[derive(Debug, Clone)]
pub struct Host {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// The checked-out commit, read from `.git` in the working
    /// directory; `unknown` outside a git checkout.
    pub commit: String,
    /// Median seconds of [`calibration_kernel`] over three runs in this
    /// process.
    pub calibration_s: f64,
}

impl Host {
    /// Fingerprints the host and times the calibration kernel.
    #[must_use]
    pub fn probe() -> Self {
        let times: Vec<f64> = (0..3)
            .map(|_| timed(|| black_box(calibration_kernel())).1)
            .collect();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            rustc: rustc_version(),
            commit: git_commit(),
            calibration_s: median(&times),
        }
    }

    /// The fingerprint as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"calibration_s\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.calibration_s
        )
    }
}

/// A fixed pure-CPU kernel: fill 2^20 words from xorshift64, sort them,
/// and fold a checksum. Touches 8 MiB, so it measures both the core
/// clock and the memory system the workloads lean on.
#[must_use]
pub fn calibration_kernel() -> u64 {
    let mut x = 0x243F_6A88_85A3_08D3_u64;
    let mut words: Vec<u64> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    words.iter().enumerate().fold(0u64, |acc, (i, w)| {
        acc.rotate_left(5) ^ w.wrapping_add(i as u64)
    })
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `.git/HEAD` by hand (a ref file or `packed-refs`), so no
/// `git` process runs and nothing above the working directory is read.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed.lines().find_map(|line| {
                    line.strip_suffix(reference)
                        .map(|sha| sha.trim().to_string())
                })
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
