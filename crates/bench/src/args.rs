//! The flags every experiment binary takes, read with [`Flags`].

use crate::flags::Flags;
use std::path::Path;
use std::process::exit;

/// Options common to all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// Reduced sweep for CI / smoke testing.
    pub quick: bool,
    /// Master seed; per-run seeds derive from it deterministically.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: String,
}

impl ExpArgs {
    /// Reads `--quick`, `--seed <u64>` and `--out <dir>` from the
    /// process arguments; see [`ExpArgs::from_env_with`].
    #[must_use]
    pub fn from_env() -> ExpArgs {
        ExpArgs::from_env_with("", |_| Ok(())).0
    }

    /// Reads the common flags and, through `read`, the binary's own
    /// flags, whose usage is `usage`; then creates the `--out`
    /// directory. All of this happens before any work:
    ///
    /// - `--help` (or `-h`) prints the usage on stdout and exits 0;
    /// - an unknown, repeated or malformed flag, or a flag the binary
    ///   never reads (such as `--full` where the sweep has no full
    ///   size), prints the message and the usage on stderr and exits 2;
    /// - an `--out` directory that cannot be created exits 1, naming it.
    #[must_use]
    pub fn from_env_with<T>(
        usage: &str,
        read: impl FnOnce(&mut Flags) -> Result<T, String>,
    ) -> (ExpArgs, T) {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let program = Path::new(&program)
            .file_name()
            .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
        let usage = format!("usage: {program} [--quick] [--seed <u64>] [--out <dir>]{usage}");
        match parse(&args.collect::<Vec<_>>(), &program, read) {
            Ok(None) => {
                println!("{usage}");
                exit(0);
            }
            Err(msg) => {
                eprintln!("{msg}\n{usage}");
                exit(2);
            }
            Ok(Some((exp, own))) => {
                let created = std::fs::create_dir_all(&exp.out_dir);
                create_or_exit("--out directory", &exp.out_dir, created);
                (exp, own)
            }
        }
    }
}

/// Unwraps `created`, the result of creating the `what` at `path` that
/// an output flag names; on failure prints an error naming both and
/// exits 1. Binaries call it before any work.
pub fn create_or_exit<T>(what: &str, path: &str, created: std::io::Result<T>) -> T {
    created.unwrap_or_else(|e| {
        eprintln!("error: cannot create {what} {path}: {e}");
        exit(1)
    })
}

/// Reads `args` for the experiment binary `program`: `None` when they
/// ask for help, else the common flags and the binary's own.
fn parse<T>(
    args: &[String],
    program: &str,
    read: impl FnOnce(&mut Flags) -> Result<T, String>,
) -> Result<Option<(ExpArgs, T)>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut flags = Flags::new(args, false)?;
    let exp = ExpArgs {
        quick: flags.switch("quick")?,
        seed: flags.opt("seed", 2005)?, // the paper's publication year, for flavor
        out_dir: flags.opt("out", "results".to_string())?,
    };
    let own = read(&mut flags)?;
    flags.finish(program)?;
    Ok(Some((exp, own)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line<T>(
        line: &str,
        read: impl FnOnce(&mut Flags) -> Result<T, String>,
    ) -> Result<Option<(ExpArgs, T)>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args, "fig", read)
    }

    #[test]
    fn defaults() {
        let (a, ()) = parse_line("", |_| Ok(())).unwrap().unwrap();
        assert!(!a.quick);
        assert_eq!(a.seed, 2005);
        assert_eq!(a.out_dir, "results");
    }

    #[test]
    fn all_flags() {
        let (a, full) = parse_line("--quick --full --seed 9 --out tmp", |f| f.switch("full"))
            .unwrap()
            .unwrap();
        assert!(a.quick);
        assert!(full);
        assert_eq!(a.seed, 9);
        assert_eq!(a.out_dir, "tmp");
    }

    #[test]
    fn errors() {
        let plain = |line: &str| parse_line(line, |_| Ok(()));
        assert_eq!(plain("--seed").unwrap_err(), "--seed requires a value");
        assert_eq!(
            plain("--seed x").unwrap_err(),
            "invalid value `x` for --seed"
        );
        assert!(plain("--bogus").unwrap_err().contains("--bogus"));
        assert_eq!(
            plain("--quick --full").unwrap_err(),
            "unknown flag --full for fig (its flags: --quick, --seed, --out)"
        );
        assert_eq!(
            plain("--seed 1 --seed 2").unwrap_err(),
            "flag --seed given more than once"
        );
        assert!(plain("--help").unwrap().is_none());
        assert!(plain("--seed x -h").unwrap().is_none(), "help wins");
    }
}
