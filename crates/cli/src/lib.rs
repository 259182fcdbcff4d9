//! Implementation of the `ocd` command-line tool.
//!
//! The binary (`src/bin/ocd.rs`) is a thin wrapper over [`run_cli`].
//! Each subcommand is one function that reads and type-checks its own
//! flags and returns the work to run. A flag the subcommand never
//! reads, or a flag given twice, is a usage error: it exits 2 before
//! any work runs.
//!
//! ```text
//! ocd generate --topology random --nodes 50 --seed 1 --out topo.txt
//! ocd instance --graph topo.txt --scenario single-file --tokens 64 --out inst.json
//! ocd run --instance inst.json --strategy global --seed 7 --schedule sched.json
//! ocd net-run --instance inst.json --policy local --latency 3 --loss 0.1 --crash 4:10:60
//! ocd solve --instance small.json --objective time
//! ocd bounds --instance inst.json
//! ocd validate --instance inst.json --schedule sched.json
//! ocd reduce-ds --graph topo.txt --k 3
//! ocd compare --instance inst.json --runs 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod commands;

use std::io::Write;

/// Runs one invocation (`args` without the program name), printing its
/// output on `stdout` and its diagnostics on `stderr`. Returns the exit
/// code: 0 on success and for `help`, 1 when the work fails, and 2 for
/// a usage error, printed before any work runs.
pub fn run_cli(args: Vec<String>, stdout: &mut dyn Write, stderr: &mut dyn Write) -> i32 {
    match commands::parse(&args) {
        Err(usage) => {
            let _ = writeln!(stderr, "{usage}");
            2
        }
        Ok(job) => match job() {
            Ok(output) => {
                let _ = write!(stdout, "{output}");
                0
            }
            Err(msg) => {
                let _ = writeln!(stderr, "error: {msg}");
                1
            }
        },
    }
}
