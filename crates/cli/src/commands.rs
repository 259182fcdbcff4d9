//! Command execution for the `ocd` tool.

use crate::opts::{Command, USAGE};
use ocd_core::span::{FlightRecorder, SpanRecorder};
use ocd_core::{bounds, prune, Instance, ProvenanceTrace, RlncInstance, Schedule};
use ocd_graph::generate::{classic, gnp, transit_stub, GnpConfig, TransitStubConfig};
use ocd_graph::{algo, io as gio, DiGraph};
use ocd_heuristics::{
    simulate, simulate_with, CodedLocal, CodedRandom, CodedSimConfig, CodedStrategy, Dynamic,
    Ideal, LossyCoded, Medium, NodeCapacity, SimConfig, StrategyKind,
};
use ocd_lp::MipOptions;
use ocd_net::{run_swarm, FaultPlan, NetConfig, NetPolicy};
use ocd_solver::bnb::{decide_focd, solve_focd_with_spans, BnbOptions};
use ocd_solver::ip::min_bandwidth_for_horizon_with_spans;
use ocd_solver::reduction::{dominating_set_from_schedule, focd_from_dominating_set};
use ocd_solver::steiner;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Executes a parsed command, returning the text to print on stdout.
///
/// # Errors
///
/// Returns a human-readable message on any failure (I/O, malformed
/// files, solver errors, unsatisfiable instances).
pub fn execute(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate {
            topology,
            nodes,
            seed,
            cap,
            out,
        } => {
            if *nodes == 0 && matches!(topology.as_str(), "tree" | "star") {
                return Err(format!("topology `{topology}` needs --nodes >= 1"));
            }
            let mut rng = StdRng::seed_from_u64(*seed);
            let (lo, hi) = *cap;
            let graph = match topology.as_str() {
                "random" => gnp(
                    &GnpConfig {
                        capacity: lo..=hi,
                        ..GnpConfig::paper(*nodes)
                    },
                    &mut rng,
                ),
                "transit-stub" => {
                    let config = TransitStubConfig {
                        transit_capacity: lo..=hi,
                        stub_capacity: lo..=hi,
                        ..TransitStubConfig::paper_sized(*nodes)
                    };
                    transit_stub(&config, &mut rng)
                }
                "path" => classic::path(*nodes, lo, true),
                "cycle" => classic::cycle(*nodes, lo, true),
                "star" => classic::star(*nodes, lo, true),
                "complete" => classic::complete(*nodes, lo),
                "grid" => {
                    let side = (*nodes as f64).sqrt().ceil() as usize;
                    classic::grid(side, side, lo)
                }
                "tree" => classic::balanced_tree(2, nodes.ilog2().max(1), lo),
                other => return Err(format!("unknown topology `{other}`")),
            };
            emit(out.as_deref(), gio::to_edge_list(&graph))
        }
        Command::Instance {
            graph,
            scenario,
            tokens,
            files,
            source,
            threshold,
            seed,
            out,
        } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let instance = match scenario.as_str() {
                "figure-one" => ocd_core::scenario::figure_one(),
                name => {
                    let g = load_graph(graph)?;
                    let vertices = g.node_count();
                    let uses_source =
                        matches!(name, "single-file" | "receiver-density" | "multi-file");
                    if uses_source && *source >= vertices {
                        return Err(format!(
                            "--source {source} out of range (graph has {vertices} vertices)"
                        ));
                    }
                    if *files == 0 && matches!(name, "multi-file" | "multi-sender") {
                        return Err("--files must be at least 1".to_string());
                    }
                    if name == "receiver-density" && !(0.0..=1.0).contains(threshold) {
                        return Err(format!("--threshold must be in [0, 1], got {threshold}"));
                    }
                    match name {
                        "single-file" => ocd_core::scenario::single_file(g, *tokens, *source),
                        "receiver-density" => ocd_core::scenario::receiver_density(
                            g, *tokens, *source, *threshold, &mut rng,
                        ),
                        "multi-file" => ocd_core::scenario::multi_file(g, *tokens, *files, *source),
                        "multi-sender" => {
                            ocd_core::scenario::multi_sender(g, *tokens, *files, &mut rng)
                        }
                        other => return Err(format!("unknown scenario `{other}`")),
                    }
                }
            };
            let json = serde_json::to_string_pretty(&instance)
                .map_err(|e| format!("serialize instance: {e}"))?;
            emit(out.as_deref(), json + "\n")
        }
        Command::Run {
            instance,
            strategy,
            seed,
            delay,
            max_steps,
            schedule,
            prune: do_prune,
            dynamics,
            record,
            metrics,
        } => {
            let instance = load_instance(instance)?;
            let kind: StrategyKind = strategy.parse().map_err(|e| format!("{e}"))?;
            let mut s = kind.build();
            let config = SimConfig {
                max_steps: *max_steps,
                knowledge_delay: *delay,
                // `--metrics` snapshots are derived from the run, so
                // equal-seed invocations write byte-identical files.
                metrics: metrics.is_some(),
                // `--record` artifacts embed the causal provenance
                // digest (RunRecord schema v3), which `certify`
                // cross-checks against a schedule replay.
                provenance: record.is_some(),
            };
            let mut rng = StdRng::seed_from_u64(*seed);
            // Instances carrying node budgets run under the
            // node-capacity medium automatically, so their `--record`
            // artifacts certify against the budget-enforcing replay.
            let budgets = instance.node_budgets().cloned();
            let (outcome, medium_name) = match (dynamics, budgets) {
                (None, None) => {
                    let outcome =
                        simulate_with(&instance, s.as_mut(), &mut Ideal, &config, &mut rng);
                    (outcome, "ideal".to_string())
                }
                (None, Some(b)) => {
                    let mut medium = NodeCapacity::new(Ideal, b);
                    let outcome =
                        simulate_with(&instance, s.as_mut(), &mut medium, &config, &mut rng);
                    (outcome, medium.name().to_string())
                }
                (Some(spec), None) => {
                    let mut model = parse_dynamics(spec)?;
                    let medium_name = model.name().to_string();
                    let mut medium = Dynamic::new(model.as_mut());
                    let outcome =
                        simulate_with(&instance, s.as_mut(), &mut medium, &config, &mut rng);
                    // Re-validate against the recorded capacity trace.
                    ocd_core::validate::replay_with_capacities(
                        &instance,
                        &outcome.report.schedule,
                        &outcome.capacity_trace,
                    )
                    .map_err(|e| format!("dynamic schedule failed validation: {e}"))?;
                    (outcome, medium_name)
                }
                (Some(spec), Some(b)) => {
                    let mut model = parse_dynamics(spec)?;
                    let medium_name = format!("node-capacity({})", model.name());
                    let mut medium = NodeCapacity::new(Dynamic::new(model.as_mut()), b);
                    let outcome =
                        simulate_with(&instance, s.as_mut(), &mut medium, &config, &mut rng);
                    ocd_core::validate::replay_with_capacities(
                        &instance,
                        &outcome.report.schedule,
                        &outcome.capacity_trace,
                    )
                    .map_err(|e| format!("dynamic schedule failed validation: {e}"))?;
                    (outcome, medium_name)
                }
            };
            let report = &outcome.report;
            let mut out = String::new();
            let _ = writeln!(out, "strategy:   {} ({})", kind.name(), s.tier());
            if let Some(spec) = dynamics {
                let _ = writeln!(out, "dynamics:   {spec}");
            }
            let _ = writeln!(out, "success:    {}", report.success);
            let _ = writeln!(out, "moves:      {} timesteps", report.steps);
            let _ = writeln!(out, "bandwidth:  {} token-transfers", report.bandwidth);
            if let Some(mean) = report.mean_completion() {
                let _ = writeln!(out, "mean completion step: {mean:.1}");
            }
            if *do_prune {
                let (pruned, stats) = prune::prune(&instance, &report.schedule);
                let _ = writeln!(
                    out,
                    "pruned bandwidth: {} ({} duplicate + {} unused moves removed)",
                    pruned.bandwidth(),
                    stats.duplicates_removed,
                    stats.unused_removed
                );
            }
            if let Some(path) = schedule {
                let json = serde_json::to_string(&report.schedule)
                    .map_err(|e| format!("serialize schedule: {e}"))?;
                std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(out, "schedule written to {path}");
            }
            if let Some(path) = record {
                let rec = outcome.to_record(&instance, kind.name(), &medium_name, *seed);
                rec.write_json(path.as_ref())
                    .map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(out, "run record written to {path}");
            }
            if let Some(path) = metrics {
                let snap = outcome
                    .metrics
                    .as_ref()
                    .expect("--metrics enables collection");
                let rendered = if path.ends_with(".csv") {
                    snap.to_csv()
                } else {
                    snap.to_json()
                };
                std::fs::write(path, rendered).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "metrics snapshot written to {path} ({} counters, {} histograms, {} series)",
                    snap.counters.len(),
                    snap.histograms.len(),
                    snap.series.len()
                );
            }
            Ok(out)
        }
        Command::Certify { record } => {
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
                if replay.is_successful() {
                    "every want satisfied"
                } else {
                    "incomplete"
                }
            );
            let _ = writeln!(
                out,
                "metrics:    {}",
                match &rec.metrics {
                    Some(snap) => format!(
                        "embedded ({} counters, {} histograms, {} series)",
                        snap.counters.len(),
                        snap.histograms.len(),
                        snap.series.len()
                    ),
                    None => "none".to_string(),
                }
            );
            let _ = writeln!(
                out,
                "provenance: {}",
                match &rec.provenance {
                    Some(digest) =>
                        format!("embedded ({} first-acquisitions)", digest.entries.len()),
                    None => "none".to_string(),
                }
            );
            Ok(out)
        }
        Command::TraceAnalyze { record } => {
            let (rec, trace) = load_certified_trace(record)?;
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
        }
        Command::TraceExport {
            record,
            format,
            spans,
            out,
        } => {
            let (rec, trace) = load_certified_trace(record)?;
            if rec.provenance.is_none() && !*spans {
                // One-line notice on stderr so piped exports stay clean.
                eprintln!(
                    "note: {record} has no embedded provenance; \
                     derived it from the certified schedule replay"
                );
            }
            let rendered = if *spans {
                // `--spans` switches the source from the provenance
                // event stream to the schedule-derived span timeline.
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
        }
        Command::NetRun {
            instance,
            policy,
            seed,
            latency,
            jitter,
            loss,
            control_latency,
            control_loss,
            max_ticks,
            crash,
            trace,
            schedule,
        } => {
            let inst = load_instance(instance)?;
            let policy: NetPolicy = policy.parse()?;
            let config = NetConfig {
                policy,
                latency: *latency,
                jitter: *jitter,
                loss: *loss,
                control_latency: *control_latency,
                control_loss: *control_loss,
                max_ticks: *max_ticks,
                ..NetConfig::default()
            };
            config.validate()?;
            let faults = match crash {
                None => FaultPlan::none(),
                Some((v, down, up)) => {
                    if *v >= inst.num_vertices() {
                        return Err(format!("--crash vertex {v} is out of range"));
                    }
                    FaultPlan::none().crash_between(inst.graph().node(*v), *down, *up)
                }
            };
            let mut rng = StdRng::seed_from_u64(*seed);
            let report = run_swarm(&inst, &config, &faults, &mut rng);

            let mut out = String::new();
            let _ = writeln!(out, "policy:     {policy}");
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
                if replay.is_successful() {
                    "every want satisfied"
                } else {
                    "incomplete"
                }
            );
            if report.trace.truncated() {
                let _ = writeln!(
                    out,
                    "warning: event trace ring buffer wrapped; {} oldest events dropped",
                    report.trace.events_dropped()
                );
            }
            if let Some(path) = trace {
                let rendered = if path.ends_with(".csv") {
                    report.trace.to_csv()
                } else {
                    report.trace.to_json()
                };
                std::fs::write(path, rendered).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "trace written to {path} ({} events{})",
                    report.trace.len(),
                    if report.trace.truncated() {
                        ", oldest evicted"
                    } else {
                        ""
                    }
                );
            }
            if let Some(path) = schedule {
                let json = serde_json::to_string(&report.schedule)
                    .map_err(|e| format!("serialize schedule: {e}"))?;
                std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(out, "schedule written to {path}");
            }
            Ok(out)
        }
        Command::Coded {
            graph,
            strategy,
            tokens,
            payload,
            source,
            redundancy,
            loss,
            seed,
            max_steps,
            provenance,
            metrics,
        } => {
            let g = load_graph(graph)?;
            if *source >= g.node_count() {
                return Err(format!(
                    "source vertex {source} out of range (graph has {} vertices)",
                    g.node_count()
                ));
            }
            if *tokens == 0 {
                return Err("--tokens must be at least 1".to_string());
            }
            if !(0.0..1.0).contains(loss) {
                return Err(format!("loss must be in [0, 1), got {loss}"));
            }
            if redundancy.is_nan() || *redundancy < 1.0 {
                return Err(format!("redundancy must be >= 1, got {redundancy}"));
            }
            let inst = RlncInstance::single_source(g, *tokens, *payload, *source);
            let mut strat: Box<dyn CodedStrategy> = match strategy.as_str() {
                "random" | "rnd" => Box::new(CodedRandom::new(*redundancy)),
                "local" | "rarest" => Box::new(CodedLocal::new(*redundancy)),
                other => {
                    return Err(format!(
                        "unknown coded strategy `{other}` (use random | local)"
                    ))
                }
            };
            let config = CodedSimConfig {
                max_steps: *max_steps,
                // Like `ocd run --metrics`: the coded recorder only
                // books deterministic counters, so equal seeds produce
                // byte-identical snapshots.
                metrics: metrics.is_some(),
                provenance: *provenance,
            };
            let mut rng = StdRng::seed_from_u64(*seed);
            let outcome = if *loss > 0.0 {
                ocd_heuristics::simulate_coded_with(
                    &inst,
                    strat.as_mut(),
                    &mut LossyCoded::new(*loss),
                    &config,
                    &mut rng,
                )
            } else {
                ocd_heuristics::simulate_coded(&inst, strat.as_mut(), &config, &mut rng)
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
                // instance is the r-th innovative packet a vertex
                // absorbed, so the standard critical-path/bottleneck
                // analysis applies unchanged.
                let slots = inst.slot_instance();
                let analysis = trace.analyze(&slots);
                let _ = writeln!(out);
                let _ = write!(out, "{}", analysis.render(&slots));
                let _ = writeln!(out, "decoded-generation lineage (contributing arcs):");
                for v in inst.graph().nodes() {
                    if !inst.is_receiver(v) {
                        continue;
                    }
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
            if let Some(path) = metrics {
                let snap = outcome
                    .metrics
                    .as_ref()
                    .expect("--metrics enables collection");
                let rendered = if path.ends_with(".csv") {
                    snap.to_csv()
                } else {
                    snap.to_json()
                };
                std::fs::write(path, rendered).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "metrics snapshot written to {path} ({} counters, {} histograms, {} series)",
                    snap.counters.len(),
                    snap.histograms.len(),
                    snap.series.len()
                );
            }
            Ok(out)
        }
        Command::Solve {
            instance,
            objective,
            horizon,
            threads,
            profile,
        } => {
            let inst = load_instance(instance)?;
            let mip = MipOptions {
                threads: (*threads).max(1),
                ..MipOptions::default()
            };
            // The flight recorder stamps spans with the logical
            // sequence clock only, and the span stream is emitted by
            // the deterministic sequential part of the search, so
            // equal inputs give byte-identical profiles at any
            // --threads. Recording unconditionally keeps one code
            // path; the cost is nanoseconds per search node.
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
                    let h = if *horizon == 0 {
                        // Auto horizon: fastest completion plus slack.
                        let fast =
                            solve_focd_with_spans(&inst, &BnbOptions::default(), &mut flight)
                                .map_err(|e| format!("FOCD for auto-horizon: {e}"))?;
                        fast.makespan + 3
                    } else {
                        *horizon
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
            if let Some(path) = profile {
                let json = flight.to_chrome_json("ocd solve");
                std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
                let _ = writeln!(
                    out,
                    "search profile written to {path} ({} spans, {} incumbent events)",
                    flight.spans().len(),
                    flight.events().len()
                );
            }
            Ok(out)
        }
        Command::BenchCompare {
            old,
            new,
            tolerance,
        } => {
            let (table, regressed) = ocd_bench::compare::compare_files(old, new, *tolerance)?;
            if regressed {
                // Nonzero exit: the table rides in the error message.
                return Err(format!("performance regression detected\n{table}"));
            }
            Ok(table)
        }
        Command::Bounds { instance } => {
            let inst = load_instance(instance)?;
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
            match steiner::bandwidth_upper_bound(&inst) {
                Ok(ub) => {
                    let _ = writeln!(out, "Steiner upper bound:   {ub}");
                }
                Err(e) => {
                    let _ = writeln!(out, "Steiner upper bound:   n/a ({e})");
                }
            }
            Ok(out)
        }
        Command::Validate { instance, schedule } => {
            let inst = load_instance(instance)?;
            let text =
                std::fs::read_to_string(schedule).map_err(|e| format!("read {schedule}: {e}"))?;
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
        }
        Command::ReduceDs { graph, k } => {
            let g = load_graph(graph)?;
            let (instance, layout) = focd_from_dominating_set(&g, *k);
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
                    let _ = writeln!(
                        out,
                        "witness: {{{}}}",
                        ds.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    debug_assert!(algo::is_dominating_set(&g, &ds));
                }
                None => {
                    let _ = writeln!(out, "no 2-step schedule → no dominating set of size ≤ {k}");
                }
            }
            Ok(out)
        }
        Command::Compare {
            instance,
            runs,
            seed,
        } => {
            let inst = load_instance(instance)?;
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
                for r in 0..*runs {
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
        }
    }
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

fn emit(path: Option<&str>, content: String) -> Result<String, String> {
    match path {
        Some(p) => {
            std::fs::write(p, &content).map_err(|e| format!("write {p}: {e}"))?;
            Ok(format!("written to {p}\n"))
        }
        None => Ok(content),
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
    use crate::parse;

    fn run(parts: &[&str]) -> Result<String, String> {
        execute(&parse(parts.iter().map(|s| s.to_string()).collect())?)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("ocd_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
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
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                assert_eq!(crate::run_cli(args), 1, "exit code");
            }
        }
    }

    #[test]
    fn hostile_flag_values_are_typed_errors() {
        // Out-of-range flag values are checked before they reach a
        // library constructor that asserts on them. Each case reads
        // `<expected message>: <command>`, where `G` stands for a
        // 6-vertex graph and `I` for an instance on it.
        let (g, inst) = (tmp("hostile_flags_g6.txt"), tmp("hostile_flags_inst.json"));
        let run_line = |line: &str| {
            let args: Vec<&str> = line
                .split(' ')
                .map(|arg| match arg {
                    "G" => g.as_str(),
                    "I" => inst.as_str(),
                    arg => arg,
                })
                .collect();
            run(&args)
        };
        run_line("generate --topology cycle --nodes 6 --out G").unwrap();
        run_line("instance --graph G --scenario single-file --out I").unwrap();
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
            "--threshold: instance --graph G --scenario receiver-density --threshold 2",
            "[0, 1]: run --instance I --strategy random --dynamics churn:2:0.5",
            "[0, 1]: run --instance I --strategy random --dynamics cross:-1",
            "[0, 1]: run --instance I --strategy random --dynamics outages:2:0.5",
        ];
        for case in cases {
            let (message, line) = case.split_once(": ").unwrap();
            let err = run_line(line).unwrap_err();
            assert!(err.contains(message), "{line}: {err}");
        }
    }
}
