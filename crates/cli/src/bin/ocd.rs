//! The `ocd` command-line tool: generate topologies, build scenario
//! instances, run heuristics, solve exactly, compute bounds, validate
//! schedules, and demonstrate the Dominating-Set reduction. See `ocd
//! help`.

fn main() {
    let args = std::env::args().skip(1).collect();
    let code = ocd_cli::run_cli(args, &mut std::io::stdout(), &mut std::io::stderr());
    std::process::exit(code);
}
