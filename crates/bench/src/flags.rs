//! The flags of one command: an `ocd` subcommand or an experiment
//! binary (hand-rolled; no CLI-framework dependency is available
//! offline, and the surface is small).

use std::str::FromStr;

/// One command's `--name value` flags and bare `--switch`es, plus the
/// names the command has read so far.
///
/// Splitting needs no list of names: a flag followed by another flag,
/// or by nothing, is bare, and any other flag takes the next argument
/// as its value. Each read records its name, so [`Flags::finish`] can
/// reject a flag the command never reads.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
    positional: Vec<String>,
    read: Vec<&'static str>,
}

impl Flags {
    /// Splits `args`, rejecting a flag given twice, and a positional
    /// argument unless `positional` allows them.
    pub fn new(args: &[String], positional: bool) -> Result<Flags, String> {
        let mut flags = Flags {
            given: Vec::new(),
            positional: Vec::new(),
            read: Vec::new(),
        };
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if flags.given.iter().any(|(given, _)| given == name) => {
                    return Err(format!("flag --{name} given more than once"));
                }
                Some(name) => {
                    let value = args.next_if(|next| !next.starts_with("--")).cloned();
                    flags.given.push((name.to_string(), value));
                }
                None if positional => flags.positional.push(arg.clone()),
                None => return Err(format!("unexpected positional argument `{arg}`")),
            }
        }
        Ok(flags)
    }

    /// The value of `--name`, if given.
    pub fn value(&mut self, name: &'static str) -> Result<Option<String>, String> {
        self.read.push(name);
        match self.given.iter().find(|(given, _)| given == name) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{name} requires a value")),
            Some((_, value)) => Ok(value.clone()),
        }
    }

    /// The value of a flag that must be given.
    pub fn req(&mut self, name: &'static str) -> Result<String, String> {
        self.value(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// The parsed value of `--name`, or `default` when it is absent.
    pub fn opt<T: FromStr>(&mut self, name: &'static str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value `{raw}` for --{name}")),
        }
    }

    /// Whether the bare switch `--name` is given.
    pub fn switch(&mut self, name: &'static str) -> Result<bool, String> {
        self.read.push(name);
        match self.given.iter().find(|(given, _)| given == name) {
            None => Ok(false),
            Some((_, None)) => Ok(true),
            Some((_, Some(arg))) => Err(format!("unexpected positional argument `{arg}`")),
        }
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Rejects a flag that command `sub` never read.
    pub fn finish(&self, sub: &str) -> Result<(), String> {
        match self
            .given
            .iter()
            .find(|(given, _)| !self.read.contains(&given.as_str()))
        {
            None => Ok(()),
            Some((name, _)) => Err(format!(
                "unknown flag --{name} for {sub} (its flags: --{})",
                self.read.join(", --")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str, positional: bool) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::new(&args, positional)
    }

    #[test]
    fn values_switches_and_defaults() {
        let mut f = flags("--seed 9 --prune --out o.txt --bare", false).unwrap();
        assert_eq!(f.opt("seed", 0u64), Ok(9));
        assert_eq!(f.opt("delay", 4usize), Ok(4));
        assert_eq!(f.switch("prune"), Ok(true));
        assert_eq!(f.switch("spans"), Ok(false));
        assert_eq!(f.value("out"), Ok(Some("o.txt".to_string())));
        assert_eq!(f.value("record"), Ok(None));
        assert_eq!(f.switch("bare"), Ok(true));
        assert_eq!(f.finish("test"), Ok(()));
    }

    #[test]
    fn read_errors_name_the_flag() {
        let mut f = flags("--nodes x --instance --prune oops", false).unwrap();
        assert_eq!(
            f.opt("nodes", 0usize).unwrap_err(),
            "invalid value `x` for --nodes"
        );
        assert_eq!(
            f.req("instance").unwrap_err(),
            "--instance requires a value"
        );
        assert_eq!(
            f.req("topology").unwrap_err(),
            "missing required flag --topology"
        );
        assert_eq!(
            f.switch("prune").unwrap_err(),
            "unexpected positional argument `oops`"
        );
    }

    #[test]
    fn unread_and_repeated_flags_are_rejected() {
        let mut f = flags("--instance i.json --recrod r.json", false).unwrap();
        f.req("instance").unwrap();
        f.value("record").unwrap();
        assert_eq!(
            f.finish("run").unwrap_err(),
            "unknown flag --recrod for run (its flags: --instance, --record)"
        );
        assert_eq!(
            flags("--seed 1 --prune --seed 2", false).unwrap_err(),
            "flag --seed given more than once"
        );
        assert_eq!(
            flags("--prune --prune", false).unwrap_err(),
            "flag --prune given more than once"
        );
    }

    #[test]
    fn positional_arguments_only_where_allowed() {
        assert_eq!(
            flags("stray --seed 1", false).unwrap_err(),
            "unexpected positional argument `stray`"
        );
        let mut f = flags("a.json --tolerance 0.5 b.json c.json", true).unwrap();
        assert_eq!(f.opt("tolerance", 0.15), Ok(0.5));
        assert_eq!(f.positional(), ["a.json", "b.json", "c.json"]);
        assert_eq!(f.finish("bench compare"), Ok(()));
    }
}
