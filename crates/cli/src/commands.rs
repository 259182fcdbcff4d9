//! One function per `ocd` subcommand. Each reads and type-checks its
//! own flags, then returns the work to run as a [`Job`]; [`parse`]
//! rejects any flag the subcommand never read before the job runs.

use crate::flags::Flags;
use ocd_core::span::{FlightRecorder, SpanRecorder};
use ocd_core::{bounds, prune, Instance, MetricsSnapshot, ProvenanceTrace, RlncInstance, Schedule};
use ocd_graph::generate::{classic, gnp, transit_stub, GnpConfig, TransitStubConfig};
use ocd_graph::{algo, io as gio, DiGraph};
use ocd_heuristics::{
    simulate, simulate_coded, simulate_coded_with, simulate_with, CodedLocal, CodedRandom,
    CodedSimConfig, CodedStrategy, Dynamic, Ideal, LossyCoded, NodeCapacity, SimConfig,
    StrategyKind,
};
use ocd_lp::MipOptions;
use ocd_net::{run_swarm, FaultPlan, NetConfig};
use ocd_solver::bnb::{decide_focd, solve_focd_with_spans, BnbOptions};
use ocd_solver::ip::min_bandwidth_for_horizon_with_spans;
use ocd_solver::reduction::{dominating_set_from_schedule, focd_from_dominating_set};
use ocd_solver::steiner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// The work of one invocation: the text to print on success, or a
/// message for the failure (exit 1).
pub(crate) type Job = Box<dyn FnOnce() -> Result<String, String>>;

/// Reads one subcommand's flags into its job. An error is a usage
/// error (exit 2).
type Reader = fn(&mut Flags) -> Result<Job, String>;

/// Every subcommand with the function that reads its flags. A
/// two-word name is a group (`trace`, `bench`) and one of its modes.
const COMMANDS: &[(&str, Reader)] = &[
    ("generate", generate),
    ("instance", instance),
    ("run", run),
    ("net-run", net_run),
    ("coded", coded),
    ("solve", solve),
    ("bounds", bounds),
    ("validate", validate),
    ("reduce-ds", reduce_ds),
    ("compare", compare),
    ("certify", certify),
    ("trace analyze", trace_analyze),
    ("trace export", trace_export),
    ("bench compare", bench_compare),
];

pub(crate) const USAGE: &str = "\
ocd — the Overlay Network Content Distribution toolbox

USAGE:
  ocd generate  --topology <random|transit-stub|path|cycle|star|complete|grid|tree>
                --nodes <N> [--seed <S>] [--cap <LO..HI>] [--out <FILE>]
  ocd instance  --graph <FILE> --scenario <single-file|receiver-density|multi-file|multi-sender|figure-one>
                [--tokens <M>] [--files <K>] [--source <V>] [--threshold <T>] [--seed <S>] [--out <FILE>]
  ocd run       --instance <FILE> --strategy <round-robin|random|local|bandwidth|global|gather-then-plan|per-neighbor-queue>
                [--seed <S>] [--delay <K>] [--max-steps <N>] [--schedule <FILE>] [--prune]
                [--dynamics <static|cross:F|outages:P:Q|churn:P:Q|adversary:B[:C]>] [--record <FILE>]
                [--metrics <FILE.json|FILE.csv>]
  ocd net-run   --instance <FILE> [--policy <random|local|per-neighbor-queue>] [--seed <S>]
                [--latency <T>] [--jitter <J>] [--loss <P>] [--control-latency <T>] [--control-loss <P>]
                [--max-ticks <N>] [--crash <V:DOWN:UP>] [--trace <FILE.json|FILE.csv>] [--schedule <FILE>]
  ocd coded     --graph <FILE> [--strategy <random|local>] [--tokens <K>] [--payload <BYTES>]
                [--source <V>] [--redundancy <R>] [--loss <P>] [--seed <S>] [--max-steps <N>] [--provenance]
                [--metrics <FILE.json|FILE.csv>]
  ocd solve     --instance <FILE> --objective <time|bandwidth> [--horizon <H>] [--threads <T>]
                [--profile <FILE>]
  ocd bounds    --instance <FILE>
  ocd validate  --instance <FILE> --schedule <FILE>
  ocd reduce-ds --graph <FILE> --k <K>
  ocd compare   --instance <FILE> [--runs <N>] [--seed <S>]
  ocd certify   --record <FILE>
  ocd trace     analyze --record <FILE>
  ocd trace     export  --record <FILE> [--format <chrome|json|csv>] [--spans] [--out <FILE>]
  ocd bench     compare <OLD.json> <NEW.json> [--tolerance <T=0.15>]
  ocd help
";

/// Parses a full argument vector (without the program name) into the
/// job it asks for.
///
/// # Errors
///
/// A usage message: an unknown subcommand, a missing, malformed,
/// repeated or unknown flag.
pub(crate) fn parse(args: &[String]) -> Result<Job, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    // `ocd <sub> --help` prints usage instead of tripping over a flag
    // that "requires a value".
    if ["help", "--help", "-h"].contains(&sub.as_str())
        || rest.iter().any(|a| a == "--help" || a == "-h")
    {
        return Ok(Box::new(|| Ok(USAGE.to_string())));
    }
    let find = |name: &str| COMMANDS.iter().find(|(known, _)| *known == name);
    // A group (`trace`, `bench`) takes a mode word before its flags.
    let modes: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|(name, _)| name.strip_prefix(sub.as_str())?.strip_prefix(' '))
        .collect();
    let modes = modes.join(" | ");
    let (&(name, read), rest) = match (find(sub), rest.split_first()) {
        (Some(command), _) => (command, rest),
        (None, Some((mode, rest))) if !modes.is_empty() => {
            let command = find(&format!("{sub} {mode}"))
                .ok_or_else(|| format!("unknown {sub} mode `{mode}` (use {modes})"))?;
            (command, rest)
        }
        (None, None) if !modes.is_empty() => {
            return Err(format!("{sub} requires a mode: {modes}\n\n{USAGE}"));
        }
        (None, _) => {
            let mut subs: Vec<&str> = COMMANDS
                .iter()
                .map(|(name, _)| name.split_once(' ').map_or(*name, |(group, _)| group))
                .collect();
            subs.dedup();
            return Err(format!(
                "unknown subcommand `{sub}`\navailable subcommands: {}, help\n\n{USAGE}",
                subs.join(", ")
            ));
        }
    };
    // `bench compare` alone takes positional arguments: two snapshot paths.
    let mut flags = Flags::new(rest, name == "bench compare")?;
    let job = read(&mut flags)?;
    flags.finish(name)?;
    Ok(job)
}

fn generate(f: &mut Flags) -> Result<Job, String> {
    let topology = f.req("topology")?;
    let nodes: usize = f.req("nodes")?.parse().map_err(|_| "invalid --nodes")?;
    let seed = f.opt("seed", 0)?;
    let (lo, hi) = parse_cap(&f.opt("cap", "3..15".to_string())?)?;
    let out = f.value("out")?;
    Ok(Box::new(move || {
        if nodes == 0 && matches!(topology.as_str(), "tree" | "star") {
            return Err(format!("topology `{topology}` needs --nodes >= 1"));
        }
        if nodes < 3 && topology == "cycle" {
            return Err("topology `cycle` needs --nodes >= 3".to_string());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = match topology.as_str() {
            "random" => gnp(
                &GnpConfig {
                    capacity: lo..=hi,
                    ..GnpConfig::paper(nodes)
                },
                &mut rng,
            ),
            "transit-stub" => {
                let config = TransitStubConfig {
                    transit_capacity: lo..=hi,
                    stub_capacity: lo..=hi,
                    ..TransitStubConfig::paper_sized(nodes)
                };
                transit_stub(&config, &mut rng)
            }
            "path" => classic::path(nodes, lo, true),
            "cycle" => classic::cycle(nodes, lo, true),
            "star" => classic::star(nodes, lo, true),
            "complete" => classic::complete(nodes, lo),
            "grid" => {
                let side = (nodes as f64).sqrt().ceil() as usize;
                classic::grid(side, side, lo)
            }
            "tree" => classic::balanced_tree(2, nodes.ilog2().max(1), lo),
            other => return Err(format!("unknown topology `{other}`")),
        };
        emit(out.as_deref(), gio::to_edge_list(&graph))
    }))
}

fn instance(f: &mut Flags) -> Result<Job, String> {
    let graph = f.req("graph")?;
    let scenario = f.req("scenario")?;
    let tokens: usize = f.opt("tokens", 64)?;
    let files: usize = f.opt("files", 1)?;
    let source: usize = f.opt("source", 0)?;
    let threshold: f64 = f.opt("threshold", 1.0)?;
    let seed = f.opt("seed", 0)?;
    let out = f.value("out")?;
    Ok(Box::new(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = match scenario.as_str() {
            "figure-one" => ocd_core::scenario::figure_one(),
            name => {
                let g = load_graph(&graph)?;
                let vertices = g.node_count();
                let uses_source = matches!(name, "single-file" | "receiver-density" | "multi-file");
                if uses_source && source >= vertices {
                    return Err(format!(
                        "--source {source} out of range (graph has {vertices} vertices)"
                    ));
                }
                if matches!(name, "multi-file" | "multi-sender") {
                    if files == 0 {
                        return Err("--files must be at least 1".to_string());
                    }
                    if !tokens.is_multiple_of(files) {
                        return Err(format!(
                            "--files {files} must evenly divide --tokens {tokens}"
                        ));
                    }
                    if files > vertices {
                        return Err(format!(
                            "--files {files} exceeds the graph's {vertices} vertices"
                        ));
                    }
                }
                if name == "multi-sender" && files == 1 {
                    return Err("multi-sender needs --files >= 2: one file is wanted \
                                by every vertex, leaving none to source it"
                        .to_string());
                }
                if name == "receiver-density" && !(0.0..=1.0).contains(&threshold) {
                    return Err(format!("--threshold must be in [0, 1], got {threshold}"));
                }
                match name {
                    "single-file" => ocd_core::scenario::single_file(g, tokens, source),
                    "receiver-density" => {
                        ocd_core::scenario::receiver_density(g, tokens, source, threshold, &mut rng)
                    }
                    "multi-file" => ocd_core::scenario::multi_file(g, tokens, files, source),
                    "multi-sender" => ocd_core::scenario::multi_sender(g, tokens, files, &mut rng),
                    other => return Err(format!("unknown scenario `{other}`")),
                }
            }
        };
        let json = serde_json::to_string_pretty(&instance)
            .map_err(|e| format!("serialize instance: {e}"))?;
        emit(out.as_deref(), json + "\n")
    }))
}

fn run(f: &mut Flags) -> Result<Job, String> {
    let path = f.req("instance")?;
    let strategy = f.req("strategy")?;
    let seed = f.opt("seed", 0)?;
    let delay = f.opt("delay", 0)?;
    let max_steps = f.opt("max-steps", 10_000)?;
    let schedule = f.value("schedule")?;
    let do_prune = f.switch("prune")?;
    let dynamics = f.value("dynamics")?;
    let record = f.value("record")?;
    let metrics = f.value("metrics")?;
    let config = SimConfig {
        max_steps,
        knowledge_delay: delay,
        // `--metrics` snapshots are derived from the run, so equal-seed
        // invocations write byte-identical files.
        metrics: metrics.is_some(),
        // `--record` artifacts embed the causal provenance digest
        // (RunRecord schema v3), which `certify` cross-checks against a
        // schedule replay.
        provenance: record.is_some(),
    };
    Ok(Box::new(move || {
        let instance = load_instance(&path)?;
        let kind: StrategyKind = strategy.parse().map_err(|e| format!("{e}"))?;
        let mut s = kind.build();
        let mut rng = StdRng::seed_from_u64(seed);
        // Instances carrying node budgets run under the node-capacity
        // medium automatically, so their `--record` artifacts certify
        // against the budget-enforcing replay.
        let budgets = instance.node_budgets().cloned();
        let (outcome, medium) = match (&dynamics, budgets) {
            (None, None) => {
                let outcome = simulate_with(&instance, s.as_mut(), &mut Ideal, &config, &mut rng);
                (outcome, "ideal".to_string())
            }
            (None, Some(b)) => {
                let mut medium = NodeCapacity::new(Ideal, b);
                let outcome = simulate_with(&instance, s.as_mut(), &mut medium, &config, &mut rng);
                (outcome, "node-capacity".to_string())
            }
            (Some(spec), None) => {
                let mut model = parse_dynamics(spec)?;
                let name = model.name().to_string();
                let mut medium = Dynamic::new(model.as_mut());
                let outcome = simulate_with(&instance, s.as_mut(), &mut medium, &config, &mut rng);
                (outcome, name)
            }
            (Some(spec), Some(b)) => {
                let mut model = parse_dynamics(spec)?;
                let name = format!("node-capacity({})", model.name());
                let mut medium = NodeCapacity::new(Dynamic::new(model.as_mut()), b);
                let outcome = simulate_with(&instance, s.as_mut(), &mut medium, &config, &mut rng);
                (outcome, name)
            }
        };
        let report = &outcome.report;
        if dynamics.is_some() {
            // Re-validate against the recorded capacity trace.
            ocd_core::validate::replay_with_capacities(
                &instance,
                &report.schedule,
                &outcome.capacity_trace,
            )
            .map_err(|e| format!("dynamic schedule failed validation: {e}"))?;
        }
        let mut out = String::new();
        let _ = writeln!(out, "strategy:   {} ({})", kind.name(), s.tier());
        if let Some(spec) = &dynamics {
            let _ = writeln!(out, "dynamics:   {spec}");
        }
        let _ = writeln!(out, "success:    {}", report.success);
        let _ = writeln!(out, "moves:      {} timesteps", report.steps);
        let _ = writeln!(out, "bandwidth:  {} token-transfers", report.bandwidth);
        if let Some(mean) = report.mean_completion() {
            let _ = writeln!(out, "mean completion step: {mean:.1}");
        }
        if do_prune {
            let (pruned, stats) = prune::prune(&instance, &report.schedule);
            let _ = writeln!(
                out,
                "pruned bandwidth: {} ({} duplicate + {} unused moves removed)",
                pruned.bandwidth(),
                stats.duplicates_removed,
                stats.unused_removed
            );
        }
        if let Some(path) = &schedule {
            write_schedule(&mut out, path, &report.schedule)?;
        }
        if let Some(path) = &record {
            let rec = outcome.to_record(&instance, kind.name(), &medium, seed);
            rec.write_json(path.as_ref())
                .map_err(|e| format!("write {path}: {e}"))?;
            let _ = writeln!(out, "run record written to {path}");
        }
        if let Some(path) = &metrics {
            write_metrics(&mut out, path, outcome.metrics.as_ref())?;
        }
        Ok(out)
    }))
}

fn net_run(f: &mut Flags) -> Result<Job, String> {
    let path = f.req("instance")?;
    let policy = f.opt("policy", "random".to_string())?;
    let seed = f.opt("seed", 0)?;
    let mut config = NetConfig {
        latency: f.opt("latency", 1)?,
        jitter: f.opt("jitter", 0)?,
        loss: f.opt("loss", 0.0)?,
        control_latency: f.opt("control-latency", 0)?,
        control_loss: f.opt("control-loss", 0.0)?,
        max_ticks: f.opt("max-ticks", 100_000)?,
        ..NetConfig::default()
    };
    let crash = f.value("crash")?.map(|raw| parse_crash(&raw)).transpose()?;
    let trace = f.value("trace")?;
    let schedule = f.value("schedule")?;
    Ok(Box::new(move || {
        let inst = load_instance(&path)?;
        config.policy = policy.parse()?;
        config.validate()?;
        let faults = match crash {
            None => FaultPlan::none(),
            Some((v, down, up)) => {
                if v >= inst.num_vertices() {
                    return Err(format!("--crash vertex {v} is out of range"));
                }
                FaultPlan::none().crash_between(inst.graph().node(v), down, up)
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let report = run_swarm(&inst, &config, &faults, &mut rng);

        let mut out = String::new();
        let _ = writeln!(out, "policy:     {}", config.policy);
        let _ = writeln!(out, "success:    {}", report.success);
        let _ = writeln!(out, "ticks:      {}", report.ticks);
        let _ = writeln!(out, "makespan:   {} timesteps", report.makespan());
        let _ = writeln!(out, "bandwidth:  {} token-transfers", report.bandwidth());
        let _ = writeln!(
            out,
            "delivered:  {} ({} duplicate)",
            report.tokens_delivered, report.duplicate_deliveries
        );
        let _ = writeln!(
            out,
            "lost:       {} (+{} dropped at crashed vertices)",
            report.tokens_lost, report.tokens_dropped_crashed
        );
        let _ = writeln!(out, "retransmits: {}", report.retransmits);
        let done: Vec<u64> = report.completion_ticks.iter().filter_map(|c| *c).collect();
        if !done.is_empty() {
            let mean = done.iter().sum::<u64>() as f64 / done.len() as f64;
            let _ = writeln!(out, "mean completion tick: {mean:.1}");
        }
        // The extracted schedule must replay as legal §3.1 moves.
        let replay = ocd_core::validate::replay(&inst, &report.schedule)
            .map_err(|e| format!("extracted schedule failed validation: {e}"))?;
        let _ = writeln!(
            out,
            "schedule:   certified ({})",
            wants_met(replay.is_successful())
        );
        let (events, truncated) = (&report.trace, report.trace.truncated());
        if truncated {
            let _ = writeln!(
                out,
                "warning: event trace ring buffer wrapped; {} oldest events dropped",
                events.events_dropped()
            );
        }
        if let Some(path) = &trace {
            write_csv_or_json(path, || events.to_csv(), || events.to_json())?;
            let evicted = if truncated { ", oldest evicted" } else { "" };
            let _ = writeln!(
                out,
                "trace written to {path} ({} events{evicted})",
                events.len()
            );
        }
        if let Some(path) = &schedule {
            write_schedule(&mut out, path, &report.schedule)?;
        }
        Ok(out)
    }))
}

fn coded(f: &mut Flags) -> Result<Job, String> {
    let graph = f.req("graph")?;
    let strategy = f.opt("strategy", "random".to_string())?;
    let tokens: usize = f.opt("tokens", 16)?;
    let payload: usize = f.opt("payload", 64)?;
    let source: usize = f.opt("source", 0)?;
    let redundancy: f64 = f.opt("redundancy", 1.0)?;
    let loss: f64 = f.opt("loss", 0.0)?;
    let seed = f.opt("seed", 0)?;
    let max_steps = f.opt("max-steps", 10_000)?;
    let provenance = f.switch("provenance")?;
    let metrics = f.value("metrics")?;
    // Like `ocd run --metrics`: the coded recorder only books
    // deterministic counters, so equal seeds produce byte-identical
    // snapshots.
    let config = CodedSimConfig {
        max_steps,
        metrics: metrics.is_some(),
        provenance,
    };
    Ok(Box::new(move || {
        let g = load_graph(&graph)?;
        if source >= g.node_count() {
            return Err(format!(
                "source vertex {source} out of range (graph has {} vertices)",
                g.node_count()
            ));
        }
        if tokens == 0 {
            return Err("--tokens must be at least 1".to_string());
        }
        if !(0.0..1.0).contains(&loss) {
            return Err(format!("loss must be in [0, 1), got {loss}"));
        }
        if redundancy.is_nan() || redundancy < 1.0 {
            return Err(format!("redundancy must be >= 1, got {redundancy}"));
        }
        let inst = RlncInstance::single_source(g, tokens, payload, source);
        let mut strat: Box<dyn CodedStrategy> = match strategy.as_str() {
            "random" | "rnd" => Box::new(CodedRandom::new(redundancy)),
            "local" | "rarest" => Box::new(CodedLocal::new(redundancy)),
            other => {
                return Err(format!(
                    "unknown coded strategy `{other}` (use random | local)"
                ))
            }
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = if loss > 0.0 {
            let mut medium = LossyCoded::new(loss);
            simulate_coded_with(&inst, strat.as_mut(), &mut medium, &config, &mut rng)
        } else {
            simulate_coded(&inst, strat.as_mut(), &config, &mut rng)
        };
        let r = &outcome.report;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "coded run: {} over GF(2^8), k = {}, payload = {} B, packet = {} B",
            strat.name(),
            inst.generation(),
            inst.payload_len(),
            inst.packet_bytes()
        );
        let _ = writeln!(
            out,
            "result: {} in {} steps",
            if r.success { "complete" } else { "INCOMPLETE" },
            r.steps
        );
        let _ = writeln!(
            out,
            "packets: {} sent ({} innovative, {} redundant, {} lost), {} bytes on the wire",
            r.packets_sent,
            r.innovative_deliveries,
            r.redundant_deliveries,
            r.packets_lost,
            r.bytes_sent
        );
        if r.success {
            let _ = writeln!(
                out,
                "decode: {}",
                if r.decode_ok {
                    "every receiver reproduced the generation byte-for-byte"
                } else {
                    "FAILED (field arithmetic is inconsistent)"
                }
            );
        }
        if let Some(trace) = &outcome.provenance {
            // Slot-indexed coded provenance: token r of the slot
            // instance is the r-th innovative packet a vertex absorbed,
            // so the standard critical-path/bottleneck analysis applies
            // unchanged.
            let slots = inst.slot_instance();
            let analysis = trace.analyze(&slots);
            let _ = writeln!(out);
            let _ = write!(out, "{}", analysis.render(&slots));
            let _ = writeln!(out, "decoded-generation lineage (contributing arcs):");
            for v in inst.graph().nodes().filter(|&v| inst.is_receiver(v)) {
                let arcs = trace.contributing_arcs(v);
                let rendered = arcs
                    .iter()
                    .map(|&e| {
                        let arc = inst.graph().edge(e);
                        format!("{}->{}", arc.src, arc.dst)
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "  vertex {v}: {} arcs {{{rendered}}}", arcs.len());
            }
        }
        if let Some(path) = &metrics {
            write_metrics(&mut out, path, outcome.metrics.as_ref())?;
        }
        Ok(out)
    }))
}

fn solve(f: &mut Flags) -> Result<Job, String> {
    let path = f.req("instance")?;
    let objective = f.req("objective")?;
    let horizon: usize = f.opt("horizon", 0)?;
    let mip = MipOptions {
        threads: f.opt("threads", 1usize)?.max(1),
        ..MipOptions::default()
    };
    let profile = f.value("profile")?;
    Ok(Box::new(move || {
        let inst = load_instance(&path)?;
        // The flight recorder stamps spans with the logical sequence
        // clock only, and the span stream is emitted by the
        // deterministic sequential part of the search, so equal inputs
        // give byte-identical profiles at any --threads. Recording
        // unconditionally keeps one code path; the cost is nanoseconds
        // per search node.
        let mut flight = FlightRecorder::logical();
        let mut out = String::new();
        match objective.as_str() {
            "time" => {
                let r = solve_focd_with_spans(&inst, &BnbOptions::default(), &mut flight)
                    .map_err(|e| format!("FOCD: {e}"))?;
                let _ = writeln!(out, "optimal makespan: {} timesteps", r.makespan);
                let _ = writeln!(out, "witness bandwidth: {}", r.schedule.bandwidth());
                let _ = writeln!(out, "search nodes: {}", r.nodes);
                let _ = write!(out, "{}", r.schedule);
            }
            "bandwidth" => {
                let h = if horizon == 0 {
                    // Auto horizon: fastest completion plus slack.
                    let fast = solve_focd_with_spans(&inst, &BnbOptions::default(), &mut flight)
                        .map_err(|e| format!("FOCD for auto-horizon: {e}"))?;
                    fast.makespan + 3
                } else {
                    horizon
                };
                let r = min_bandwidth_for_horizon_with_spans(&inst, h, &mip, &mut flight)
                    .map_err(|e| format!("EOCD IP: {e}"))?
                    .ok_or(format!("no successful schedule within {h} timesteps"))?;
                let _ = writeln!(out, "optimal bandwidth within {h} steps: {}", r.bandwidth);
                let _ = writeln!(out, "MILP nodes: {}", r.mip_nodes);
                let _ = write!(out, "{}", r.schedule);
            }
            other => return Err(format!("unknown objective `{other}` (use time|bandwidth)")),
        }
        if let Some(path) = &profile {
            write_file(path, &flight.to_chrome_json("ocd solve"))?;
            let _ = writeln!(
                out,
                "search profile written to {path} ({} spans, {} incumbent events)",
                flight.spans().len(),
                flight.events().len()
            );
        }
        Ok(out)
    }))
}

fn bounds(f: &mut Flags) -> Result<Job, String> {
    let path = f.req("instance")?;
    Ok(Box::new(move || {
        let inst = load_instance(&path)?;
        let mut out = String::new();
        let _ = writeln!(out, "{:?}", inst.stats());
        let _ = writeln!(out, "satisfiable:           {}", inst.is_satisfiable());
        let _ = writeln!(
            out,
            "bandwidth lower bound: {}",
            bounds::bandwidth_lower_bound(&inst)
        );
        let ms = bounds::makespan_lower_bound(&inst);
        if ms == usize::MAX {
            let _ = writeln!(out, "makespan lower bound:  unbounded (unsatisfiable)");
        } else {
            let _ = writeln!(out, "makespan lower bound:  {ms}");
        }
        let _ = match steiner::bandwidth_upper_bound(&inst) {
            Ok(ub) => writeln!(out, "Steiner upper bound:   {ub}"),
            Err(e) => writeln!(out, "Steiner upper bound:   n/a ({e})"),
        };
        Ok(out)
    }))
}

fn validate(f: &mut Flags) -> Result<Job, String> {
    let path = f.req("instance")?;
    let schedule = f.req("schedule")?;
    Ok(Box::new(move || {
        let inst = load_instance(&path)?;
        let text =
            std::fs::read_to_string(&schedule).map_err(|e| format!("read {schedule}: {e}"))?;
        let sched: Schedule =
            serde_json::from_str(&text).map_err(|e| format!("parse {schedule}: {e}"))?;
        let replay = ocd_core::validate::replay(&inst, &sched)
            .map_err(|e| format!("invalid schedule: {e}"))?;
        let mut out = String::new();
        let _ = writeln!(out, "valid:     yes");
        let _ = writeln!(out, "makespan:  {}", sched.makespan());
        let _ = writeln!(out, "bandwidth: {}", sched.bandwidth());
        if replay.is_successful() {
            let _ = writeln!(out, "successful: every want satisfied");
        } else {
            let _ = writeln!(out, "successful: NO");
            for (v, missing) in replay.unsatisfied() {
                let _ = writeln!(out, "  vertex {v} still missing {missing:?}");
            }
        }
        Ok(out)
    }))
}

fn reduce_ds(f: &mut Flags) -> Result<Job, String> {
    let graph = f.req("graph")?;
    let k: usize = f.req("k")?.parse().map_err(|_| "invalid --k")?;
    Ok(Box::new(move || {
        let g = load_graph(&graph)?;
        let (instance, layout) = focd_from_dominating_set(&g, k);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "reduced FOCD instance: {} vertices, {} tokens",
            instance.num_vertices(),
            instance.num_tokens()
        );
        let schedule = decide_focd(&instance, 2, &BnbOptions::default())
            .map_err(|e| format!("decision search: {e}"))?;
        match schedule {
            Some(s) => {
                let ds = dominating_set_from_schedule(&layout, &instance, &s);
                let _ = writeln!(out, "2-step schedule exists → dominating set of size ≤ {k}");
                let witness: Vec<String> = ds.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "witness: {{{}}}", witness.join(", "));
                debug_assert!(algo::is_dominating_set(&g, &ds));
            }
            None => {
                let _ = writeln!(out, "no 2-step schedule → no dominating set of size ≤ {k}");
            }
        }
        Ok(out)
    }))
}

fn compare(f: &mut Flags) -> Result<Job, String> {
    let path = f.req("instance")?;
    let runs: usize = f.opt("runs", 3)?;
    let seed: u64 = f.opt("seed", 0)?;
    Ok(Box::new(move || {
        if runs == 0 {
            return Err("--runs must be at least 1".to_string());
        }
        let inst = load_instance(&path)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>16}  {:>7}  {:>12}  {:>10}",
            "strategy", "moves", "bandwidth", "pruned_bw"
        );
        for kind in StrategyKind::paper_five() {
            let mut moves = Vec::new();
            let mut bw = Vec::new();
            let mut pruned_bw = Vec::new();
            for r in 0..runs {
                let mut s = kind.build();
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64));
                let report = simulate(&inst, s.as_mut(), &SimConfig::default(), &mut rng);
                if !report.success {
                    return Err(format!("{kind} failed within the step cap"));
                }
                moves.push(report.steps as f64);
                bw.push(report.bandwidth as f64);
                let (p, _) = prune::prune(&inst, &report.schedule);
                pruned_bw.push(p.bandwidth() as f64);
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let _ = writeln!(
                out,
                "{:>16}  {:>7.1}  {:>12.1}  {:>10.1}",
                kind.name(),
                mean(&moves),
                mean(&bw),
                mean(&pruned_bw)
            );
        }
        let _ = writeln!(
            out,
            "{:>16}  {:>7}  {:>12}  {:>10}",
            "lower bounds",
            bounds::makespan_lower_bound(&inst),
            bounds::bandwidth_lower_bound(&inst),
            "-"
        );
        Ok(out)
    }))
}

fn certify(f: &mut Flags) -> Result<Job, String> {
    let record = f.req("record")?;
    Ok(Box::new(move || {
        let rec = ocd_core::RunRecord::read_json(record.as_ref())
            .map_err(|e| format!("read {record}: {e}"))?;
        let replay = rec
            .certify()
            .map_err(|e| format!("{record}: certification FAILED: {e}"))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{record}: certified (version {}, strategy {}, medium {}, {} steps, {} token-transfers, {})",
            rec.version,
            rec.strategy,
            rec.medium,
            rec.steps,
            rec.bandwidth,
            wants_met(replay.is_successful())
        );
        let metrics = rec
            .metrics
            .as_ref()
            .map(|snap| format!("embedded ({})", shape(snap)));
        let _ = writeln!(out, "metrics:    {}", metrics.as_deref().unwrap_or("none"));
        let provenance = (rec.provenance.as_ref())
            .map(|digest| format!("embedded ({} first-acquisitions)", digest.entries.len()));
        let _ = writeln!(
            out,
            "provenance: {}",
            provenance.as_deref().unwrap_or("none")
        );
        Ok(out)
    }))
}

fn trace_analyze(f: &mut Flags) -> Result<Job, String> {
    let record = f.req("record")?;
    Ok(Box::new(move || {
        let (rec, trace) = load_certified_trace(&record)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "record:     {record} (strategy {}, medium {}, seed {})",
            rec.strategy, rec.medium, rec.seed
        );
        let _ = writeln!(
            out,
            "provenance: {}",
            if rec.provenance.is_some() {
                "embedded digest"
            } else {
                "derived from schedule replay"
            }
        );
        out.push_str(&trace.analyze(&rec.instance).render(&rec.instance));
        if let Some(budgets) = rec.instance.node_budgets() {
            out.push_str(&render_uplink_utilization(
                &rec.instance,
                budgets,
                &rec.schedule,
            ));
        }
        Ok(out)
    }))
}

fn trace_export(f: &mut Flags) -> Result<Job, String> {
    let record = f.req("record")?;
    let format = f.opt("format", "chrome".to_string())?;
    let spans = f.switch("spans")?;
    let out = f.value("out")?;
    Ok(Box::new(move || {
        let (rec, trace) = load_certified_trace(&record)?;
        if rec.provenance.is_none() && !spans {
            // One-line notice on stderr so piped exports stay clean.
            eprintln!(
                "note: {record} has no embedded provenance; \
                 derived it from the certified schedule replay"
            );
        }
        let rendered = if spans {
            // `--spans` switches the source from the provenance event
            // stream to the schedule-derived span timeline.
            let mut fr = FlightRecorder::logical();
            record_schedule_spans(&rec, &mut fr);
            match format.as_str() {
                "chrome" => fr.to_chrome_json("ocd trace export --spans"),
                "json" => fr.to_json(),
                "csv" => fr.to_csv(),
                other => {
                    return Err(format!(
                        "unknown trace format `{other}` — valid --format values are \
                         chrome | json | csv (with or without --spans)"
                    ))
                }
            }
        } else {
            match format.as_str() {
                "chrome" => trace.to_chrome_json(&rec.instance),
                "json" => trace.to_json(),
                "csv" => trace.to_csv(),
                other => {
                    return Err(format!(
                        "unknown trace format `{other}` — valid --format values are \
                         chrome | json | csv; add --spans for the schedule-derived \
                         span timeline"
                    ))
                }
            }
        };
        emit(out.as_deref(), rendered)
    }))
}

fn bench_compare(f: &mut Flags) -> Result<Job, String> {
    let tolerance: f64 = f.opt("tolerance", 0.15)?;
    let [old, new] = <[String; 2]>::try_from(f.positional().to_vec()).map_err(|paths| {
        format!(
            "bench compare takes exactly two snapshot paths \
             (<old.json> <new.json>), got {}",
            paths.len()
        )
    })?;
    Ok(Box::new(move || {
        let (table, regressed) = ocd_bench::compare::compare_files(&old, &new, tolerance)?;
        if regressed {
            // Nonzero exit: the table rides in the error message.
            return Err(format!("performance regression detected\n{table}"));
        }
        Ok(table)
    }))
}

fn parse_cap(raw: &str) -> Result<(u32, u32), String> {
    let (lo, hi) = raw
        .split_once("..")
        .ok_or_else(|| format!("capacity range `{raw}` must look like LO..HI"))?;
    let lo: u32 = lo.parse().map_err(|_| format!("invalid capacity `{lo}`"))?;
    let hi: u32 = hi.parse().map_err(|_| format!("invalid capacity `{hi}`"))?;
    if lo == 0 || hi < lo {
        return Err(format!("capacity range {lo}..{hi} is empty or zero"));
    }
    Ok((lo, hi))
}

fn parse_crash(raw: &str) -> Result<(usize, u64, u64), String> {
    let parts: Vec<&str> = raw.split(':').collect();
    let [v, down, up] = parts.as_slice() else {
        return Err(format!("crash spec `{raw}` must look like V:DOWN:UP"));
    };
    let v = v.parse().map_err(|_| format!("invalid vertex `{v}`"))?;
    let down = down.parse().map_err(|_| format!("invalid tick `{down}`"))?;
    let up = up.parse().map_err(|_| format!("invalid tick `{up}`"))?;
    if up <= down {
        return Err(format!("crash window {down}:{up} ends before it starts"));
    }
    Ok((v, down, up))
}

/// Parses a dynamics spec: `static`, `cross:F`, `outages:P:Q`,
/// `churn:P:Q` (source vertex 0 pinned), `adversary:B[:C]`.
fn parse_dynamics(spec: &str) -> Result<Box<dyn ocd_heuristics::NetworkDynamics>, String> {
    use ocd_heuristics::dynamics::{
        AdversarialCuts, Churn, CrossTraffic, LinkOutages, StaticNetwork,
    };
    let parts: Vec<&str> = spec.split(':').collect();
    // Every number in a dynamics spec is a probability or a fraction.
    let unit = |raw: &str| -> Result<f64, String> {
        let x: f64 = raw
            .parse()
            .map_err(|_| format!("invalid number `{raw}` in dynamics `{spec}`"))?;
        if (0.0..=1.0).contains(&x) {
            Ok(x)
        } else {
            Err(format!("`{raw}` in dynamics `{spec}` must be in [0, 1]"))
        }
    };
    match parts.as_slice() {
        ["static"] => Ok(Box::new(StaticNetwork)),
        ["cross", f] => Ok(Box::new(CrossTraffic::new(unit(f)?))),
        ["outages", p, q] => Ok(Box::new(LinkOutages::new(unit(p)?, unit(q)?))),
        ["churn", p, q] => Ok(Box::new(Churn::new(unit(p)?, unit(q)?, vec![0]))),
        ["adversary", b] => Ok(Box::new(AdversarialCuts::new(
            b.parse().map_err(|_| format!("invalid budget `{b}`"))?,
        ))),
        ["adversary", b, c] => Ok(Box::new(AdversarialCuts::with_cooldown(
            b.parse().map_err(|_| format!("invalid budget `{b}`"))?,
            c.parse().map_err(|_| format!("invalid cooldown `{c}`"))?,
        ))),
        _ => Err(format!(
            "unknown dynamics `{spec}` (use static | cross:F | outages:P:Q | churn:P:Q | adversary:B[:C])"
        )),
    }
}

/// Renders the per-vertex uplink-utilization section of
/// `trace analyze` for budgeted records: total tokens uplinked, the
/// busiest step against the budget, and how many steps ran saturated.
fn render_uplink_utilization(
    instance: &ocd_core::Instance,
    budgets: &ocd_core::NodeBudgets,
    schedule: &ocd_core::Schedule,
) -> String {
    let n = instance.num_vertices();
    let g = instance.graph();
    let steps = schedule.makespan();
    let mut total = vec![0u64; n];
    let mut peak = vec![0u64; n];
    let mut saturated = vec![0u64; n];
    let mut this_step = vec![0u64; n];
    for step in schedule.steps() {
        this_step.fill(0);
        for (e, tokens) in step.sends() {
            this_step[g.edge(e).src.index()] += tokens.len() as u64;
        }
        for v in 0..n {
            total[v] += this_step[v];
            peak[v] = peak[v].max(this_step[v]);
            let budget = budgets.uplink(v);
            if budget != ocd_core::NodeBudgets::UNLIMITED
                && this_step[v] == u64::from(budget)
                && this_step[v] > 0
            {
                saturated[v] += 1;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "uplink utilization ({steps} steps, budgeted):");
    const SHOWN: usize = 16;
    for v in 0..n.min(SHOWN) {
        let budget = budgets.uplink(v);
        let budget_str = if budget == ocd_core::NodeBudgets::UNLIMITED {
            "∞".to_string()
        } else {
            budget.to_string()
        };
        let _ = writeln!(
            out,
            "  v{v}: {} tokens uplinked, peak {}/{} per step, saturated {}/{} steps",
            total[v], peak[v], budget_str, saturated[v], steps
        );
    }
    if n > SHOWN {
        let rest_total: u64 = total[SHOWN..].iter().sum();
        let _ = writeln!(
            out,
            "  … {} more vertices ({} tokens uplinked)",
            n - SHOWN,
            rest_total
        );
    }
    out
}

/// Derives the span timeline `trace export --spans` renders: one
/// `sched.step` span per timestep (counters `step`, `transfers`,
/// `tokens`) holding a zero-width `sched.transfer` child per move
/// (counters `src`, `dst`, `tokens`). Everything rides the logical
/// sequence clock, so equal records export byte-identically.
fn record_schedule_spans(rec: &ocd_core::RunRecord, spans: &mut FlightRecorder) {
    let g = rec.instance.graph();
    for (t, step) in rec.schedule.steps().iter().enumerate() {
        let step_span = spans.open("sched.step");
        spans.attach(step_span, "step", t as u64);
        let mut transfers = 0u64;
        let mut tokens_moved = 0u64;
        for (e, tokens) in step.sends() {
            let arc = g.edge(e);
            let t_span = spans.open("sched.transfer");
            spans.attach(t_span, "src", arc.src.index() as u64);
            spans.attach(t_span, "dst", arc.dst.index() as u64);
            spans.attach(t_span, "tokens", tokens.len() as u64);
            spans.close(t_span);
            transfers += 1;
            tokens_moved += tokens.len() as u64;
        }
        spans.attach(step_span, "transfers", transfers);
        spans.attach(step_span, "tokens", tokens_moved);
        spans.close(step_span);
    }
}

/// Writes `content` to `path`, or returns it for stdout when no path
/// is given.
fn emit(path: Option<&str>, content: String) -> Result<String, String> {
    match path {
        Some(p) => {
            write_file(p, &content)?;
            Ok(format!("written to {p}\n"))
        }
        None => Ok(content),
    }
}

fn write_file(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("write {path}: {e}"))
}

/// Writes `path` as CSV when it ends in `.csv`, and as JSON otherwise.
fn write_csv_or_json(
    path: &str,
    csv: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) -> Result<(), String> {
    write_file(
        path,
        &if path.ends_with(".csv") {
            csv()
        } else {
            json()
        },
    )
}

/// Writes a `--schedule` file and says so on `out`.
fn write_schedule(out: &mut String, path: &str, schedule: &Schedule) -> Result<(), String> {
    let json = serde_json::to_string(schedule).map_err(|e| format!("serialize schedule: {e}"))?;
    write_file(path, &json)?;
    let _ = writeln!(out, "schedule written to {path}");
    Ok(())
}

/// Writes a `--metrics` snapshot and says so on `out`.
fn write_metrics(
    out: &mut String,
    path: &str,
    snap: Option<&MetricsSnapshot>,
) -> Result<(), String> {
    let snap = snap.expect("--metrics enables collection");
    write_csv_or_json(path, || snap.to_csv(), || snap.to_json())?;
    let _ = writeln!(out, "metrics snapshot written to {path} ({})", shape(snap));
    Ok(())
}

fn shape(snap: &MetricsSnapshot) -> String {
    let (c, h, s) = (
        snap.counters.len(),
        snap.histograms.len(),
        snap.series.len(),
    );
    format!("{c} counters, {h} histograms, {s} series")
}

fn wants_met(successful: bool) -> &'static str {
    if successful {
        "every want satisfied"
    } else {
        "incomplete"
    }
}

/// Loads a graph from either the edge-list text format or JSON
/// (auto-detected: JSON starts with `{`).
fn load_graph(path: &str) -> Result<DiGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if text.trim_start().starts_with('{') {
        serde_json::from_str(&text).map_err(|e| format!("parse {path} as JSON: {e}"))
    } else {
        gio::from_edge_list(&text).map_err(|e| format!("parse {path}: {e}"))
    }
}

/// Loads a `RunRecord`, certifies it, and produces its provenance
/// trace: the embedded digest when present, otherwise derived post hoc
/// by replaying the certified schedule (both agree by construction —
/// `certify` cross-checks any embedded digest against the replay).
fn load_certified_trace(path: &str) -> Result<(ocd_core::RunRecord, ProvenanceTrace), String> {
    let rec =
        ocd_core::RunRecord::read_json(path.as_ref()).map_err(|e| format!("read {path}: {e}"))?;
    rec.certify()
        .map_err(|e| format!("{path}: certification FAILED: {e}"))?;
    let trace = match &rec.provenance {
        Some(digest) => ProvenanceTrace::from_record(digest),
        None => ProvenanceTrace::from_schedule(&rec.instance, &rec.schedule),
    };
    Ok((rec, trace))
}

fn load_instance(path: &str) -> Result<Instance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let instance: Instance =
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    instance.check_shape().map_err(|e| format!("{path}: {e}"))?;
    Ok(instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One invocation through `run_cli`: exit code, stdout, stderr.
    fn cli<S: AsRef<str>>(args: &[S]) -> (i32, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let args = args.iter().map(|a| a.as_ref().to_string()).collect();
        let code = crate::run_cli(args, &mut out, &mut err);
        let text = |bytes| String::from_utf8(bytes).unwrap();
        (code, text(out), text(err))
    }

    /// stdout on exit 0, stderr otherwise.
    fn run(args: &[&str]) -> Result<String, String> {
        match cli(args) {
            (0, out, _) => Ok(out),
            (_, _, err) => Err(err),
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ocd_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// Runs the space-separated `line`, in which `G` stands for a
    /// 6-cycle graph, `I` for the figure-one instance, `R` and `S` for
    /// the record and schedule of one run on it, `B` for a bench
    /// snapshot, and `O` for `out`.
    fn run_fixture_line(line: &str, out: &str) -> (i32, String, String) {
        static FIXTURES: std::sync::Once = std::sync::Once::new();
        let words = |line: &str| -> Vec<String> {
            let fixture = |name| tmp(&format!("fixture_{name}"));
            let word = |word| match word {
                "G" => fixture("g6.txt"),
                "I" => fixture("inst.json"),
                "R" => fixture("record.json"),
                "S" => fixture("sched.json"),
                "B" => fixture("bench.json"),
                "O" => out.to_string(),
                word => word.to_string(),
            };
            line.split(' ').map(word).collect()
        };
        FIXTURES.call_once(|| {
            for line in [
                "generate --topology cycle --nodes 6 --out G",
                "instance --graph unused --scenario figure-one --out I",
                "run --instance I --strategy random --record R --schedule S",
            ] {
                assert_eq!(cli(&words(line)).0, 0, "{line}");
            }
            let bench = r#"[{"name": "engine/step", "mean_ns": 1000.0}]"#;
            std::fs::write(&words("B")[0], bench).unwrap();
        });
        cli(&words(line))
    }

    #[test]
    fn help_prints_usage_and_exits_0() {
        let lines = [
            "help",
            "--help",
            "-h",
            "net-run --help",
            "net-run -h",
            "run --instance i.json --help",
            "trace analyze --help",
        ];
        for line in lines {
            let args: Vec<&str> = line.split(' ').collect();
            assert_eq!(cli(&args), (0, USAGE.to_string(), String::new()), "{line}");
        }
    }

    #[test]
    fn usage_errors_exit_2_before_any_work() {
        assert_eq!(cli::<&str>(&[]), (2, String::new(), format!("{USAGE}\n")));
        let cases = [
            ("unknown subcommand `bogus`", "bogus"),
            ("missing required flag --topology", "generate --nodes 3"),
            ("invalid --nodes", "generate --topology path --nodes x"),
            ("--instance requires a value", "run --instance"),
            (
                "capacity range 5..2 is empty",
                "generate --topology path --nodes 3 --cap 5..2",
            ),
            (
                "unexpected positional argument `positional`",
                "generate positional",
            ),
            (
                "unexpected positional argument `x`",
                "run --instance I --strategy random --prune x",
            ),
            (
                "invalid value `abc` for --seed",
                "run --instance I --strategy random --seed abc",
            ),
            ("missing required flag --record", "certify"),
            ("trace requires a mode: analyze | export", "trace"),
            (
                "unknown trace mode `splice` (use analyze | export)",
                "trace splice",
            ),
            ("missing required flag --record", "trace analyze"),
            ("missing required flag --graph", "coded"),
            ("bench requires a mode: compare", "bench"),
            ("unknown bench mode `diff` (use compare)", "bench diff"),
            (
                "exactly two snapshot paths (<old.json> <new.json>), got 1",
                "bench compare B",
            ),
            (
                "exactly two snapshot paths (<old.json> <new.json>), got 3",
                "bench compare B B B",
            ),
            (
                "invalid value `x` for --tolerance",
                "bench compare B B --tolerance x",
            ),
            (
                "unknown flag --frob for bench compare",
                "bench compare B B --frob",
            ),
            (
                "crash spec `4:10` must look like V:DOWN:UP",
                "net-run --instance I --crash 4:10",
            ),
            (
                "crash window 60:10 ends before it starts",
                "net-run --instance I --crash 4:60:10",
            ),
        ];
        for (message, line) in cases {
            let (code, out, err) = run_fixture_line(line, "unused");
            assert!(err.contains(message), "{line}: {err}");
            assert!(!err.starts_with("error:"), "{line}: {err}");
            assert_eq!((code, out.as_str()), (2, ""), "{line}");
        }
    }

    #[test]
    fn unknown_subcommand_lists_subcommands() {
        let (code, _, err) = cli(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(
            err.starts_with("unknown subcommand `frobnicate`\n"),
            "{err}"
        );
        assert!(
            err.contains(
                "available subcommands: generate, instance, run, net-run, coded, solve, \
                 bounds, validate, reduce-ds, compare, certify, trace, bench, help\n"
            ),
            "{err}"
        );
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn every_subcommand_rejects_unknown_and_repeated_flags_before_any_work() {
        // Each line holds a subcommand's required flags; a line that can
        // write a file ends with the flag naming it, `O`.
        let lines = [
            "generate --topology path --nodes 4 --out O",
            "instance --graph G --scenario figure-one --out O",
            "run --instance I --strategy random --record O",
            "net-run --instance I --schedule O",
            "coded --graph G --metrics O",
            "solve --instance I --objective time --profile O",
            "bounds --instance I",
            "validate --instance I --schedule S",
            "reduce-ds --graph G --k 1",
            "compare --instance I",
            "certify --record R",
            "trace analyze --record R",
            "trace export --record R --out O",
            "bench compare B B --tolerance 0.5",
        ];
        let mut cases = vec![
            // A typo in a flag name is not a different experiment.
            (
                "run --instance I --strategy random --recrod O".to_string(),
                "--recrod",
            ),
            (
                "run --instance I --strategy random --sed 9 --record O".to_string(),
                "--sed",
            ),
        ];
        for line in lines {
            let (rest, last) = line.rsplit_once(" --").unwrap();
            let flag = last.split(' ').next().unwrap();
            cases.push((format!("{line} --no-such-flag 1"), "--no-such-flag"));
            cases.push((format!("{rest} --{last} --{last}"), flag));
            // Each line itself runs.
            let (code, _, err) = run_fixture_line(line, &tmp("contract_ok.out"));
            assert_eq!(code, 0, "{line}: {err}");
        }
        for (i, (line, flag)) in cases.iter().enumerate() {
            let out = tmp(&format!("contract_{i}.out"));
            let _ = std::fs::remove_file(&out);
            let (code, stdout, err) = run_fixture_line(line, &out);
            assert_eq!((code, stdout.as_str()), (2, ""), "{line}");
            assert!(err.contains(flag.trim_start_matches('-')), "{line}: {err}");
            assert!(!std::path::Path::new(&out).exists(), "{line} wrote {out}");
        }
    }

    #[test]
    fn defaults_equal_their_spelled_out_values() {
        let pairs = [
            (
                "generate --topology random --nodes 20",
                "generate --topology random --nodes 20 --seed 0 --cap 3..15",
            ),
            (
                "instance --graph G --scenario single-file",
                "instance --graph G --scenario single-file --tokens 64 --files 1 --source 0 \
                 --threshold 1 --seed 0",
            ),
            (
                "run --instance I --strategy random",
                "run --instance I --strategy random --seed 0 --delay 0 --max-steps 10000",
            ),
            (
                "net-run --instance I",
                "net-run --instance I --policy random --seed 0 --latency 1 --jitter 0 --loss 0 \
                 --control-latency 0 --control-loss 0 --max-ticks 100000",
            ),
            (
                "coded --graph G",
                "coded --graph G --strategy random --tokens 16 --payload 64 --source 0 \
                 --redundancy 1 --loss 0 --seed 0 --max-steps 10000",
            ),
            (
                "solve --instance I --objective bandwidth",
                "solve --instance I --objective bandwidth --horizon 0 --threads 1",
            ),
            (
                "compare --instance I",
                "compare --instance I --runs 3 --seed 0",
            ),
            (
                "trace export --record R",
                "trace export --record R --format chrome",
            ),
            ("bench compare B B", "bench compare B B --tolerance 0.15"),
        ];
        for (short, long) in pairs {
            let (code, out, err) = run_fixture_line(short, "unused");
            assert_eq!(code, 0, "{short}: {err}");
            assert_eq!(run_fixture_line(long, "unused"), (0, out, err), "{long}");
        }
        let (_, coded, _) = run_fixture_line("coded --graph G", "unused");
        assert!(coded.contains("k = 16, payload = 64 B"), "{coded}");
        assert!(!coded.contains("critical path"), "{coded}");
        // `--out` sends the same bytes to a file.
        let out = tmp("defaults_spans.csv");
        let (code, written, _) =
            run_fixture_line("trace export --record R --format csv --spans --out O", &out);
        assert_eq!((code, written), (0, format!("written to {out}\n")));
        let (_, stdout, _) = run_fixture_line("trace export --record R --spans --format csv", "");
        assert_eq!(std::fs::read_to_string(&out).unwrap(), stdout);
    }

    #[test]
    fn generate_flags_reach_the_generator() {
        let out = tmp("generate_flags.txt");
        let written = run(&[
            "generate",
            "--topology",
            "random",
            "--nodes",
            "50",
            "--seed",
            "9",
            "--cap",
            "1..4",
            "--out",
            &out,
        ])
        .unwrap();
        assert_eq!(written, format!("written to {out}\n"));
        let config = GnpConfig {
            capacity: 1..=4,
            ..GnpConfig::paper(50)
        };
        let expected = gio::to_edge_list(&gnp(&config, &mut StdRng::seed_from_u64(9)));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), expected);
    }

    #[test]
    fn net_run_defaults_are_ideal_mode() {
        // With every link flag at its default, the swarm makes the same
        // moves as the lockstep engine under the same seed.
        let inst = tmp("ideal_inst.json");
        let line = "instance --graph G --scenario single-file --tokens 8 --out O";
        assert_eq!(run_fixture_line(line, &inst).0, 0);
        let field = |out: &str, name: &str| -> String {
            let line = out.lines().find(|l| l.starts_with(name)).unwrap();
            line[name.len()..].trim().to_string()
        };
        for seed in ["1", "5"] {
            let swarm = run(&["net-run", "--instance", &inst, "--seed", seed]).unwrap();
            let lockstep = [
                "run",
                "--instance",
                &inst,
                "--strategy",
                "random",
                "--seed",
                seed,
            ];
            let lockstep = run(&lockstep).unwrap();
            assert_eq!(field(&swarm, "makespan:"), field(&lockstep, "moves:"));
            assert_eq!(field(&swarm, "bandwidth:"), field(&lockstep, "bandwidth:"));
        }
    }

    #[test]
    fn coded_run_reports_and_renders_lineage() {
        let topo = tmp("coded_topo.txt");
        run(&[
            "generate",
            "--topology",
            "cycle",
            "--nodes",
            "6",
            "--cap",
            "2..2",
            "--out",
            &topo,
        ])
        .unwrap();
        let out = run(&[
            "coded",
            "--graph",
            &topo,
            "--tokens",
            "8",
            "--payload",
            "16",
            "--seed",
            "7",
            "--provenance",
        ])
        .unwrap();
        assert!(out.contains("coded-random"), "{out}");
        assert!(out.contains("complete in"), "{out}");
        assert!(out.contains("byte-for-byte"), "{out}");
        assert!(out.contains("critical path"), "{out}");
        assert!(out.contains("contributing arcs"), "{out}");
        assert!(out.contains("vertex 1:"), "{out}");

        // The lossy local variant also completes and is deterministic.
        let lossy = run(&[
            "coded",
            "--graph",
            &topo,
            "--strategy",
            "local",
            "--tokens",
            "6",
            "--loss",
            "0.2",
            "--redundancy",
            "1.5",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(lossy.contains("coded-local"), "{lossy}");
        let again = run(&[
            "coded",
            "--graph",
            &topo,
            "--strategy",
            "local",
            "--tokens",
            "6",
            "--loss",
            "0.2",
            "--redundancy",
            "1.5",
            "--seed",
            "3",
        ])
        .unwrap();
        assert_eq!(lossy, again, "equal seeds render identically");

        assert!(run(&["coded", "--graph", &topo, "--strategy", "bogus"])
            .unwrap_err()
            .contains("unknown coded strategy"));
        assert!(run(&["coded", "--graph", &topo, "--loss", "1.5"])
            .unwrap_err()
            .contains("loss"));
        assert!(run(&["coded", "--graph", &topo, "--source", "99"])
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn generate_then_instance_then_run_pipeline() {
        let topo = tmp("pipeline_topo.txt");
        let inst = tmp("pipeline_inst.json");
        let sched = tmp("pipeline_sched.json");
        let record = tmp("pipeline_record.json");
        let out = run(&[
            "generate",
            "--topology",
            "random",
            "--nodes",
            "12",
            "--seed",
            "3",
            "--out",
            &topo,
        ])
        .unwrap();
        assert!(out.contains("written to"));
        run(&[
            "instance",
            "--graph",
            &topo,
            "--scenario",
            "single-file",
            "--tokens",
            "8",
            "--out",
            &inst,
        ])
        .unwrap();
        let report = run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "global",
            "--seed",
            "5",
            "--prune",
            "--schedule",
            &sched,
            "--record",
            &record,
        ])
        .unwrap();
        assert!(report.contains("success:    true"));
        assert!(report.contains("pruned bandwidth"));
        assert!(report.contains("run record written to"));
        // And the written schedule validates.
        let validation = run(&["validate", "--instance", &inst, "--schedule", &sched]).unwrap();
        assert!(validation.contains("valid:     yes"));
        assert!(validation.contains("successful: every want satisfied"));
        // The run record re-certifies from the artifact alone.
        let rec = ocd_core::RunRecord::read_json(record.as_ref()).unwrap();
        assert_eq!(rec.strategy, "global");
        assert_eq!(rec.medium, "ideal");
        assert_eq!(rec.seed, 5);
        let replay = rec.certify().unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn run_metrics_snapshot_and_certify_subcommand() {
        let inst = tmp("metrics_inst.json");
        run(&[
            "instance",
            "--graph",
            "unused",
            "--scenario",
            "figure-one",
            "--out",
            &inst,
        ])
        .unwrap();
        let record = tmp("metrics_record.json");
        let snap_a = tmp("metrics_a.json");
        let snap_b = tmp("metrics_b.json");
        let run_once = |snap: &str| {
            let out = run(&[
                "run",
                "--instance",
                &inst,
                "--strategy",
                "random",
                "--seed",
                "9",
                "--record",
                &record,
                "--metrics",
                snap,
            ])
            .unwrap();
            assert!(out.contains("metrics snapshot written to"));
        };
        run_once(&snap_a);
        run_once(&snap_b);
        // Same seed ⇒ byte-identical snapshot files.
        let a = std::fs::read_to_string(&snap_a).unwrap();
        assert_eq!(a, std::fs::read_to_string(&snap_b).unwrap());
        let snap = ocd_core::MetricsSnapshot::from_json(&a).unwrap();
        assert!(snap.counter("engine.steps").unwrap() > 0);
        // The CSV rendering is also supported, keyed off the extension.
        let csv = tmp("metrics.csv");
        run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "random",
            "--seed",
            "9",
            "--metrics",
            &csv,
        ])
        .unwrap();
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("kind,name,key,value"));
        assert!(csv_text.contains("counter,engine.steps"));
        // `certify` accepts the metrics- and provenance-embedding
        // current-version record...
        let certified = run(&["certify", "--record", &record]).unwrap();
        assert!(certified.contains("certified (version 4"), "{certified}");
        assert!(certified.contains("metrics:    embedded ("), "{certified}");
        assert!(certified.contains("provenance: embedded ("), "{certified}");
        // ...and a record without metrics reports `none`.
        let plain_record = tmp("metrics_plain_record.json");
        run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "random",
            "--seed",
            "9",
            "--record",
            &plain_record,
        ])
        .unwrap();
        let plain = run(&["certify", "--record", &plain_record]).unwrap();
        assert!(plain.contains("metrics:    none"), "{plain}");
        // A tampered record fails certification with a clear error.
        let mut rec = ocd_core::RunRecord::read_json(record.as_ref()).unwrap();
        rec.bandwidth += 1;
        rec.write_json(record.as_ref()).unwrap();
        let err = run(&["certify", "--record", &record]).unwrap_err();
        assert!(err.contains("certification FAILED"), "{err}");
    }

    #[test]
    fn trace_analyze_and_export_artifacts() {
        let inst = tmp("trace_inst.json");
        run(&[
            "instance",
            "--graph",
            "unused",
            "--scenario",
            "figure-one",
            "--out",
            &inst,
        ])
        .unwrap();
        let record = tmp("trace_record.json");
        let make_record = || {
            run(&[
                "run",
                "--instance",
                &inst,
                "--strategy",
                "random",
                "--seed",
                "11",
                "--record",
                &record,
            ])
            .unwrap();
        };
        make_record();
        // Analysis certifies the record, then prints the critical path
        // and the per-arc bottleneck table.
        let analysis = run(&["trace", "analyze", "--record", &record]).unwrap();
        assert!(
            analysis.contains("provenance: embedded digest"),
            "{analysis}"
        );
        assert!(analysis.contains("critical path:"), "{analysis}");
        assert!(
            analysis.contains("per-arc bottleneck attribution"),
            "{analysis}"
        );
        assert!(
            analysis.contains("token dissemination trees:"),
            "{analysis}"
        );
        // All three export formats write, and equal seeds give
        // byte-identical artifact *files*.
        let chrome_a = tmp("trace_a.chrome.json");
        let chrome_b = tmp("trace_b.chrome.json");
        run(&["trace", "export", "--record", &record, "--out", &chrome_a]).unwrap();
        make_record();
        run(&[
            "trace", "export", "--record", &record, "--format", "chrome", "--out", &chrome_b,
        ])
        .unwrap();
        let a = std::fs::read(&chrome_a).unwrap();
        assert_eq!(a, std::fs::read(&chrome_b).unwrap());
        assert!(std::str::from_utf8(&a)
            .unwrap()
            .starts_with("{\"traceEvents\":["));
        let csv = run(&["trace", "export", "--record", &record, "--format", "csv"]).unwrap();
        assert!(csv.starts_with("vertex,token,src,edge,step\n"), "{csv}");
        let json = run(&["trace", "export", "--record", &record, "--format", "json"]).unwrap();
        assert!(json.contains("\"entries\""), "{json}");
        assert!(
            run(&["trace", "export", "--record", &record, "--format", "dot"])
                .unwrap_err()
                .contains("unknown trace format")
        );
        // A record without an embedded digest still analyzes: the trace
        // is derived by replaying the certified schedule.
        let text = std::fs::read_to_string(&record).unwrap();
        let mut rec: ocd_core::RunRecord = serde_json::from_str(&text).unwrap();
        rec.provenance = None;
        rec.write_json(record.as_ref()).unwrap();
        let derived = run(&["trace", "analyze", "--record", &record]).unwrap();
        assert!(
            derived.contains("provenance: derived from schedule replay"),
            "{derived}"
        );
        assert!(derived.contains("critical path:"), "{derived}");
        // A tampered record is rejected before any analysis.
        rec.bandwidth += 1;
        rec.write_json(record.as_ref()).unwrap();
        let err = run(&["trace", "analyze", "--record", &record]).unwrap_err();
        assert!(err.contains("certification FAILED"), "{err}");
    }

    #[test]
    fn budgeted_instance_runs_under_node_capacity_and_analyzes_uplinks() {
        // A budgeted instance auto-wraps the medium: the record claims
        // "node-capacity", re-certifies under the budget-enforcing
        // replay, and `trace analyze` gains the uplink section.
        let inst = tmp("budgeted_inst.json");
        let instance = ocd_heuristics::optimal::broadcast_instance(2, 3, 1, 1);
        std::fs::write(&inst, serde_json::to_string(&instance).unwrap()).unwrap();
        let record = tmp("budgeted_record.json");
        let out = run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "per-neighbor-queue",
            "--seed",
            "1",
            "--record",
            &record,
        ])
        .unwrap();
        assert!(out.contains("success:    true"), "{out}");
        assert!(
            out.contains("moves:      3 timesteps"),
            "per-neighbor-queue must hit the MWW optimum: {out}"
        );
        let rec = ocd_core::RunRecord::read_json(record.as_ref()).unwrap();
        assert_eq!(rec.medium, "node-capacity");
        assert!(rec.instance.node_budgets().is_some());
        rec.certify().unwrap();
        let analysis = run(&["trace", "analyze", "--record", &record]).unwrap();
        assert!(analysis.contains("uplink utilization"), "{analysis}");
        assert!(
            analysis.contains("peak 1/1 per step"),
            "unit uplinks saturate: {analysis}"
        );
    }

    #[test]
    fn solve_profile_emits_deterministic_search_timeline() {
        let topo = tmp("profile_topo.txt");
        let inst = tmp("profile_inst.json");
        run(&[
            "generate",
            "--topology",
            "random",
            "--nodes",
            "16",
            "--seed",
            "2",
            "--out",
            &topo,
        ])
        .unwrap();
        run(&[
            "instance",
            "--graph",
            &topo,
            "--scenario",
            "single-file",
            "--tokens",
            "4",
            "--out",
            &inst,
        ])
        .unwrap();
        let profile_a = tmp("profile_a.json");
        let profile_b = tmp("profile_b.json");
        let solve = |profile: &str, threads: &str| {
            // Auto horizon (FOCD makespan + slack) is feasible by
            // construction; its deepening spans land in the profile
            // ahead of the MILP's.
            run(&[
                "solve",
                "--instance",
                &inst,
                "--objective",
                "bandwidth",
                "--threads",
                threads,
                "--profile",
                profile,
            ])
            .unwrap()
        };
        let out = solve(&profile_a, "1");
        assert!(out.contains("search profile written to"), "{out}");
        let a = std::fs::read_to_string(&profile_a).unwrap();
        assert!(a.starts_with("{\"traceEvents\":["), "{a}");
        // The MILP's search telemetry: one span per explored B&B node,
        // wrapped in the solver.ip.horizon span, plus incumbent events.
        assert!(a.contains("\"bnb.node."), "{a}");
        assert!(a.contains("\"bnb.incumbent\""), "{a}");
        assert!(a.contains("\"solver.ip.horizon\""), "{a}");
        assert!(a.contains("\"lp_iterations\""), "{a}");
        // Equal inputs ⇒ byte-identical profile artifacts, at any
        // thread count (the span stream rides the logical clock in the
        // deterministic sequential part of the search).
        let _ = solve(&profile_b, "4");
        assert_eq!(a, std::fs::read_to_string(&profile_b).unwrap());

        // The FOCD objective profiles as iterative-deepening horizons.
        let focd_profile = tmp("profile_focd.json");
        run(&[
            "solve",
            "--instance",
            &inst,
            "--objective",
            "time",
            "--profile",
            &focd_profile,
        ])
        .unwrap();
        let f = std::fs::read_to_string(&focd_profile).unwrap();
        assert!(f.contains("\"solver.focd.horizon\""), "{f}");
        assert!(f.contains("\"tau\""), "{f}");
    }

    #[test]
    fn coded_metrics_snapshot_written_and_deterministic() {
        let topo = tmp("coded_metrics_topo.txt");
        run(&[
            "generate",
            "--topology",
            "cycle",
            "--nodes",
            "6",
            "--cap",
            "2..2",
            "--out",
            &topo,
        ])
        .unwrap();
        let snap_a = tmp("coded_metrics_a.json");
        let snap_b = tmp("coded_metrics_b.json");
        let run_once = |snap: &str| {
            let out = run(&[
                "coded",
                "--graph",
                &topo,
                "--tokens",
                "8",
                "--payload",
                "16",
                "--seed",
                "7",
                "--metrics",
                snap,
            ])
            .unwrap();
            assert!(out.contains("metrics snapshot written to"), "{out}");
        };
        run_once(&snap_a);
        run_once(&snap_b);
        let a = std::fs::read_to_string(&snap_a).unwrap();
        assert_eq!(
            a,
            std::fs::read_to_string(&snap_b).unwrap(),
            "equal seeds must write byte-identical snapshots"
        );
        let snap = ocd_core::MetricsSnapshot::from_json(&a).unwrap();
        assert!(snap.counter("coded.packets_sent").unwrap() > 0);
        assert!(snap.counter("coded.innovative_deliveries").unwrap() > 0);
        // CSV rendering keys off the extension, like `ocd run`.
        let csv = tmp("coded_metrics.csv");
        run_once(&csv);
        let csv_text = std::fs::read_to_string(&csv).unwrap();
        assert!(csv_text.starts_with("kind,name,key,value"), "{csv_text}");
        assert!(
            csv_text.contains("counter,coded.packets_sent"),
            "{csv_text}"
        );
    }

    #[test]
    fn bench_compare_cli_gates_on_regressions() {
        let old = tmp("bench_old.json");
        let new = tmp("bench_new.json");
        std::fs::write(
            &old,
            r#"{"pr": 8, "benches": [{"name": "engine/step", "mean_ns": 1000.0}]}"#,
        )
        .unwrap();
        // Equal snapshots pass and render the delta table.
        std::fs::write(&new, r#"[{"name": "engine/step", "mean_ns": 1000.0}]"#).unwrap();
        let out = run(&["bench", "compare", &old, &new]).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
        // A 30% inflation gates at the default 0.15 tolerance (nonzero
        // exit via the Err path) and the table rides in the message...
        std::fs::write(&new, r#"[{"name": "engine/step", "mean_ns": 1300.0}]"#).unwrap();
        let err = run(&["bench", "compare", &old, &new]).unwrap_err();
        assert!(err.contains("performance regression detected"), "{err}");
        assert!(err.contains("REGRESSION"), "{err}");
        // ...but a loose --tolerance waves the same delta through.
        let ok = run(&["bench", "compare", &old, &new, "--tolerance", "0.5"]).unwrap();
        assert!(ok.contains("0 regressions"), "{ok}");
        // Malformed and missing snapshots name the problem.
        std::fs::write(&new, "not json").unwrap();
        let err = run(&["bench", "compare", &old, &new]).unwrap_err();
        assert!(err.contains("neither a bench array"), "{err}");
        let err = run(&["bench", "compare", &old, "/nonexistent.json"]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn trace_export_spans_source() {
        let inst = tmp("spans_inst.json");
        run(&[
            "instance",
            "--graph",
            "unused",
            "--scenario",
            "figure-one",
            "--out",
            &inst,
        ])
        .unwrap();
        let record = tmp("spans_record.json");
        run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "random",
            "--seed",
            "11",
            "--record",
            &record,
        ])
        .unwrap();
        let chrome = run(&["trace", "export", "--record", &record, "--spans"]).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"sched.step\""), "{chrome}");
        assert!(chrome.contains("\"sched.transfer\""), "{chrome}");
        // Equal records export byte-identically (logical clock only).
        let again = run(&["trace", "export", "--record", &record, "--spans"]).unwrap();
        assert_eq!(chrome, again);
        // The other formats render the same span timeline.
        let csv = run(&[
            "trace", "export", "--record", &record, "--spans", "--format", "csv",
        ])
        .unwrap();
        assert!(
            csv.starts_with("kind,name,depth,start,end,wall_ns,counters"),
            "{csv}"
        );
        assert!(csv.contains("span,sched.transfer"), "{csv}");
        let json = run(&[
            "trace", "export", "--record", &record, "--spans", "--format", "json",
        ])
        .unwrap();
        assert!(json.contains("\"spans\""), "{json}");
        // Unknown formats name the valid values for both sources.
        let err = run(&[
            "trace", "export", "--record", &record, "--spans", "--format", "dot",
        ])
        .unwrap_err();
        assert!(err.contains("chrome | json | csv"), "{err}");
        let err = run(&["trace", "export", "--record", &record, "--format", "dot"]).unwrap_err();
        assert!(err.contains("--spans"), "{err}");
    }

    #[test]
    fn solve_figure_one_both_objectives() {
        let inst = tmp("fig1.json");
        run(&[
            "instance",
            "--graph",
            "unused",
            "--scenario",
            "figure-one",
            "--out",
            &inst,
        ])
        .unwrap();
        let time = run(&["solve", "--instance", &inst, "--objective", "time"]).unwrap();
        assert!(time.contains("optimal makespan: 2"));
        let bw = run(&[
            "solve",
            "--instance",
            &inst,
            "--objective",
            "bandwidth",
            "--horizon",
            "3",
        ])
        .unwrap();
        assert!(bw.contains("optimal bandwidth within 3 steps: 4"));
    }

    #[test]
    fn bounds_output() {
        let inst = tmp("bounds.json");
        run(&[
            "instance",
            "--graph",
            "x",
            "--scenario",
            "figure-one",
            "--out",
            &inst,
        ])
        .unwrap();
        let out = run(&["bounds", "--instance", &inst]).unwrap();
        assert!(out.contains("satisfiable:           true"));
        assert!(out.contains("bandwidth lower bound: 4"));
    }

    #[test]
    fn reduce_ds_star() {
        let topo = tmp("star.txt");
        run(&[
            "generate",
            "--topology",
            "star",
            "--nodes",
            "5",
            "--cap",
            "1..1",
            "--out",
            &topo,
        ])
        .unwrap();
        let yes = run(&["reduce-ds", "--graph", &topo, "--k", "1"]).unwrap();
        assert!(yes.contains("dominating set of size ≤ 1"));
    }

    #[test]
    fn compare_table() {
        let topo = tmp("cmp_topo.txt");
        let inst = tmp("cmp_inst.json");
        run(&[
            "generate",
            "--topology",
            "cycle",
            "--nodes",
            "6",
            "--cap",
            "2..2",
            "--out",
            &topo,
        ])
        .unwrap();
        run(&[
            "instance",
            "--graph",
            &topo,
            "--scenario",
            "single-file",
            "--tokens",
            "6",
            "--out",
            &inst,
        ])
        .unwrap();
        let out = run(&["compare", "--instance", &inst, "--runs", "2"]).unwrap();
        assert!(out.contains("round-robin"));
        assert!(out.contains("lower bounds"));
    }

    #[test]
    fn run_with_dynamics_completes_and_reports() {
        let topo = tmp("dyn_topo.txt");
        let inst = tmp("dyn_inst.json");
        run(&[
            "generate",
            "--topology",
            "cycle",
            "--nodes",
            "8",
            "--cap",
            "3..3",
            "--out",
            &topo,
        ])
        .unwrap();
        run(&[
            "instance",
            "--graph",
            &topo,
            "--scenario",
            "single-file",
            "--tokens",
            "6",
            "--out",
            &inst,
        ])
        .unwrap();
        for spec in [
            "static",
            "cross:0.5",
            "outages:0.2:0.6",
            "churn:0.1:0.5",
            "adversary:1:2",
        ] {
            let out = run(&[
                "run",
                "--instance",
                &inst,
                "--strategy",
                "local",
                "--dynamics",
                spec,
                "--seed",
                "4",
            ])
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(out.contains(&format!("dynamics:   {spec}")), "{spec}");
            assert!(out.contains("success:    true"), "{spec}: {out}");
        }
        assert!(run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "local",
            "--dynamics",
            "volcano"
        ])
        .unwrap_err()
        .contains("unknown dynamics"));
        // A dynamic run's record embeds the capacity trace and still
        // certifies standalone.
        let record = tmp("dyn_record.json");
        run(&[
            "run",
            "--instance",
            &inst,
            "--strategy",
            "local",
            "--dynamics",
            "outages:0.2:0.6",
            "--seed",
            "4",
            "--record",
            &record,
        ])
        .unwrap();
        let rec = ocd_core::RunRecord::read_json(record.as_ref()).unwrap();
        assert_eq!(rec.medium, "link-outages");
        assert!(!rec.capacity_trace.is_empty());
        rec.certify().unwrap();
    }

    #[test]
    fn net_run_reports_and_writes_artifacts() {
        let topo = tmp("net_topo.txt");
        let inst = tmp("net_inst.json");
        let trace = tmp("net_trace.csv");
        let sched = tmp("net_sched.json");
        run(&[
            "generate",
            "--topology",
            "cycle",
            "--nodes",
            "6",
            "--cap",
            "2..2",
            "--out",
            &topo,
        ])
        .unwrap();
        run(&[
            "instance",
            "--graph",
            &topo,
            "--scenario",
            "single-file",
            "--tokens",
            "8",
            "--out",
            &inst,
        ])
        .unwrap();
        let out = run(&[
            "net-run",
            "--instance",
            &inst,
            "--policy",
            "local",
            "--latency",
            "2",
            "--loss",
            "0.1",
            "--crash",
            "3:2:12",
            "--seed",
            "9",
            "--trace",
            &trace,
            "--schedule",
            &sched,
        ])
        .unwrap();
        assert!(out.contains("success:    true"), "{out}");
        assert!(out.contains("schedule:   certified (every want satisfied)"));
        assert!(out.contains("trace written to"));
        let csv = std::fs::read_to_string(&trace).unwrap();
        assert!(csv.starts_with("tick,kind,vertex,peer,edge,tokens"));
        assert!(csv.contains("crash"));
        // The written schedule round-trips through `ocd validate`.
        let validation = run(&["validate", "--instance", &inst, "--schedule", &sched]).unwrap();
        assert!(validation.contains("valid:     yes"));
        assert!(validation.contains("successful: every want satisfied"));
        // Bad inputs produce typed errors.
        assert!(
            run(&["net-run", "--instance", &inst, "--policy", "psychic"])
                .unwrap_err()
                .contains("unknown net policy")
        );
        assert!(run(&["net-run", "--instance", &inst, "--crash", "99:1:2"])
            .unwrap_err()
            .contains("out of range"));
        assert!(run(&["net-run", "--instance", &inst, "--latency", "0"])
            .unwrap_err()
            .contains("latency must be >= 1"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&["bounds", "--instance", "/nonexistent.json"])
            .unwrap_err()
            .contains("read"));
        assert!(
            run(&["generate", "--topology", "klein-bottle", "--nodes", "4"])
                .unwrap_err()
                .contains("unknown topology")
        );
        let inst = tmp("err_inst.json");
        run(&[
            "instance",
            "--graph",
            "x",
            "--scenario",
            "figure-one",
            "--out",
            &inst,
        ])
        .unwrap();
        assert!(run(&["run", "--instance", &inst, "--strategy", "quantum"])
            .unwrap_err()
            .contains("unknown strategy"));
    }

    #[test]
    fn hostile_inputs_are_typed_errors() {
        use ocd_core::TokenSet;
        // Serde cannot check list lengths or universes, so crafted files
        // reach the loaders with a well-formed graph and malformed sets.
        let inst = ocd_core::scenario::single_file(classic::cycle(5, 2, true), 4, 0);
        let graph = serde_json::to_string(inst.graph()).unwrap();
        let write = |name: &str, have: &[TokenSet], want: &[TokenSet]| {
            let (have, want) = (serde_json::to_string(have), serde_json::to_string(want));
            let json = format!(
                "{{\"graph\":{graph},\"num_tokens\":4,\"have\":{},\"want\":{}}}",
                have.unwrap(),
                want.unwrap()
            );
            std::fs::write(tmp(name), json).unwrap();
            tmp(name)
        };
        let (have, want) = (inst.have_all(), inst.want_all());
        let mut wide = have.to_vec();
        wide[0] = TokenSet::new(5);
        // A record whose first capacity-trace row is empty.
        let mut model = ocd_heuristics::dynamics::StaticNetwork;
        let mut rng = StdRng::seed_from_u64(1);
        let mut medium = Dynamic::new(&mut model);
        let mut strategy = StrategyKind::Local.build();
        let out = simulate_with(
            &inst,
            strategy.as_mut(),
            &mut medium,
            &SimConfig::default(),
            &mut rng,
        );
        let mut rec = out.to_record(&inst, "local", "static", 1);
        rec.capacity_trace[0].clear();
        let record = tmp("hostile_record.json");
        rec.write_json(record.as_ref()).unwrap();
        let cases = [
            (
                write("hostile_have.json", &have[1..], want),
                "have list holds 4 sets",
            ),
            (
                write("hostile_want.json", have, &want[1..]),
                "want list holds 4 sets",
            ),
            (
                write("hostile_universe.json", &wide, want),
                "have set of vertex 0 is over 5",
            ),
            (record.clone(), "capacity trace row 0 has 0 entries"),
        ];
        for (path, message) in &cases {
            let commands: [&[&str]; 2] = if *path == record {
                [
                    &["certify", "--record", path],
                    &["trace", "analyze", "--record", path],
                ]
            } else {
                [
                    &["run", "--instance", path, "--strategy", "local"],
                    &["bounds", "--instance", path],
                ]
            };
            for args in commands {
                let err = run(args).unwrap_err();
                assert!(err.contains(message), "{args:?}: {err}");
                assert_eq!(cli(args).0, 1, "{args:?}: exit code");
            }
        }
    }

    #[test]
    fn hostile_flag_values_are_typed_errors() {
        // Out-of-range flag values are checked before they reach a
        // library constructor that asserts on them. Each case reads
        // `<expected message>: <command>`, in `run_fixture_line` words.
        let cases = [
            "redundancy: coded --graph G --redundancy 0.5",
            "redundancy: coded --graph G --redundancy NaN",
            "--tokens: coded --graph G --tokens 0",
            "loss: net-run --instance I --loss 1.5",
            "loss: net-run --instance I --loss NaN",
            "control_loss: net-run --instance I --control-loss -1",
            "--nodes: generate --topology tree --nodes 0",
            "--nodes: generate --topology star --nodes 0",
            "--source 99: instance --graph G --scenario single-file --source 99",
            "--files: instance --graph G --scenario multi-file --files 0",
            "--files: instance --graph G --scenario multi-sender --files 0",
            "--nodes >= 3: generate --topology cycle --nodes 0",
            "--nodes >= 3: generate --topology cycle --nodes 1",
            "--nodes >= 3: generate --topology cycle --nodes 2",
            "evenly divide: instance --graph G --scenario multi-file --tokens 10 --files 3",
            "evenly divide: instance --graph G --scenario multi-sender --tokens 10 --files 3",
            "exceeds: instance --graph G --scenario multi-file --tokens 8 --files 8",
            "--files >= 2: instance --graph G --scenario multi-sender --files 1",
            "--threshold: instance --graph G --scenario receiver-density --threshold 2",
            "[0, 1]: run --instance I --strategy random --dynamics churn:2:0.5",
            "[0, 1]: run --instance I --strategy random --dynamics cross:-1",
            "[0, 1]: run --instance I --strategy random --dynamics outages:2:0.5",
            "--runs must be at least 1: compare --instance I --runs 0",
        ];
        for case in cases {
            let (message, line) = case.split_once(": ").unwrap();
            let (code, out, err) = run_fixture_line(line, "unused");
            assert!(err.contains(message), "{line}: {err}");
            assert_eq!((code, out.as_str()), (1, ""), "{line}");
        }
    }

    #[test]
    fn deeply_nested_json_inputs_are_typed_errors() {
        // 200,000 open brackets once overflowed the parser's stack
        // (exit 134). A bare array fails on its first bracket; under an
        // unknown key, skipping stops at the nesting cap.
        let deep = "[".repeat(200_000);
        let arrays = tmp("nested_arrays.json");
        std::fs::write(&arrays, &deep).unwrap();
        let unknown = tmp("nested_unknown.json");
        std::fs::write(&unknown, format!("{{\"unknown\":{deep}")).unwrap();
        for (path, message) in [
            (&arrays, "expected map, got sequence"),
            (&unknown, "nesting deeper than 128 levels"),
        ] {
            for line in [
                format!("certify --record {path}"),
                format!("run --instance {path} --strategy random"),
                format!("bench compare {path} B"),
            ] {
                let (code, out, err) = run_fixture_line(&line, "unused");
                assert!(err.contains(message), "{line}: {err}");
                assert_eq!((code, out.as_str()), (1, ""), "{line}");
            }
        }
    }
}
