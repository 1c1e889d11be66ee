//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--scale tiny|small|paper] [--json DIR]
//!       [--trace SPEC] [--metrics-out PATH] [--threads N]
//!
//! EXPERIMENT: table1 | table2 | table3 | fig1 | fig2 | fig3 | fig4 |
//!             fig5 | race | triggers | evasion | dns-mechanism | https |
//!             anonymity | world | threshold-audit | ablate-race | ablate-ooni | all
//! ```
//!
//! Text tables go to stdout; with `--json DIR` each experiment also
//! writes a machine-readable result file.
//!
//! `--trace SPEC` installs a `target=level` event filter (e.g.
//! `wiretap=debug,tcp=info` or just `trace` for everything) and turns on
//! span collection; after the run a JSON-lines event log
//! (`trace-events.jsonl`) and a Chrome trace-event file
//! (`chrome-trace.json`, loadable in `chrome://tracing` or Perfetto) are
//! written next to the JSON results (or the current directory).
//! `--metrics-out PATH` writes the deterministic metrics snapshot.
//!
//! `--threads N` shards the per-ISP experiments (table1, fig2, race,
//! triggers, evasion, anonymity) across N OS threads; every artifact is
//! byte-identical to `--threads 1` (default: available parallelism).
//!
//! `--profile PATH` turns on the profiler and writes its `deterministic`
//! section (virtual-time scheduler dwell histograms, per-event-kind pop
//! counts, middlebox path counters, per-shard totals) with a `schema`
//! tag; the file is byte-identical across runs and `--threads` values.
//! Wall-clock performance is measured by the `benchmark/` workspace.
//!
//! Every requested output that cannot be written exits 1.

use std::fs;
use std::path::PathBuf;

use lucent_bench::drive::Driver;
use lucent_bench::{shard, Caps, Scale};
use lucent_core::experiments::{
    categories, dns_mechanism, evasion, fig2, fig5, https_note, mechanism, race, table1, table2,
    table3, tracer_demo,
};
use lucent_core::lab::Lab;
use lucent_core::metrics::PrecisionRecall;
use lucent_core::probe::classify::render_rate;
use lucent_core::probe::manual::inspect;
use lucent_core::probe::ooni::web_connectivity_with;
use lucent_topology::{India, IspId};

const USAGE: &str = "repro [EXPERIMENT] [--scale tiny|small|paper] [--json DIR] \
                     [--trace SPEC] [--metrics-out PATH] [--profile PATH] [--threads N]";

struct Args {
    experiment: String,
    scale: Scale,
    json_dir: Option<PathBuf>,
    trace: Option<String>,
    metrics_out: Option<PathBuf>,
    profile: Option<PathBuf>,
    threads: usize,
}

fn parse_args() -> Args {
    let mut experiment = "all".to_string();
    let mut scale = Scale::Small;
    let mut json_dir = None;
    let mut trace = None;
    let mut metrics_out = None;
    let mut profile = None;
    let mut threads = shard::default_threads();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = flag_value(&mut args, "--scale").unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use tiny|small|paper");
                    std::process::exit(2);
                });
            }
            "--json" => {
                let dir = flag_value(&mut args, "--json").unwrap_or_else(|| ".".into());
                json_dir = Some(PathBuf::from(dir));
            }
            "--trace" => {
                trace = Some(flag_value(&mut args, "--trace").unwrap_or_else(|| {
                    eprintln!("--trace needs a spec, e.g. wiretap=debug,tcp=info");
                    std::process::exit(2);
                }));
            }
            "--metrics-out" => {
                let path = flag_value(&mut args, "--metrics-out").unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a file path");
                    std::process::exit(2);
                });
                metrics_out = Some(PathBuf::from(path));
            }
            "--profile" => {
                let path = flag_value(&mut args, "--profile").unwrap_or_else(|| {
                    eprintln!("--profile needs a file path");
                    std::process::exit(2);
                });
                profile = Some(PathBuf::from(path));
            }
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--threads needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            // An unknown --flag must not fall through to the EXPERIMENT
            // arm: it would be reported as an unknown experiment (or
            // silently shadow a valid one given earlier).
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}\nusage: {USAGE}");
                std::process::exit(2);
            }
            other => experiment = other.to_string(),
        }
    }
    Args { experiment, scale, json_dir, trace, metrics_out, profile, threads }
}

/// The value after `flag`, or `None` when the arguments end. A value
/// that is itself a flag exits 2 rather than being swallowed, so
/// `--json --scale tiny` cannot write JSON into a directory `--scale`.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Option<String> {
    let v = args.next()?;
    if v.starts_with("--") {
        eprintln!("{flag} needs a value, got flag {v:?}");
        std::process::exit(2);
    }
    Some(v)
}

fn emit_json<T: lucent_support::ToJson>(dir: &Option<PathBuf>, name: &str, value: &T) {
    if let Some(dir) = dir {
        let path = dir.join(format!("{name}.json"));
        write_or_die(&path, &lucent_support::json::to_string_pretty(value));
    }
}

fn run_table1(drv: &Driver, obs: &lucent_obs::Telemetry, caps: Caps, json: &Option<PathBuf>) {
    let t = drv.table1(obs, &table1::Table1Options { max_sites: caps.sites, ..Default::default() });
    println!("{t}\n");
    emit_json(json, "table1", &t);
}

/// Run Table 2, returning its options with it: `table2::run` builds one
/// scan per `opts.isps` entry, in order, so `opts.isps` names each scan's
/// ISP without a lookup by name.
fn run_table2(
    lab: &mut Lab,
    caps: Caps,
    json: &Option<PathBuf>,
) -> (table2::Table2Options, table2::Table2) {
    let opts = table2::Table2Options {
        inside_targets: caps.inside_targets,
        hosts_per_path: caps.hosts_per_path,
        max_sites: caps.sites,
        ..Default::default()
    };
    let t = table2::run(lab, &opts);
    println!("{t}\n");
    emit_json(json, "table2", &t);
    (opts, t)
}

fn run_categories(lab: &Lab, scans: &table2::Table2, json: &Option<PathBuf>) {
    let cats = categories::from_scans(lab, &scans.scans);
    println!("{cats}\n");
    emit_json(json, "categories", &cats);
}

/// Figure 5 from Table 2's scans; `isps` are the ISPs Table 2 scanned,
/// in scan order.
fn run_fig5(
    lab: &mut Lab,
    isps: &[IspId],
    t: &table2::Table2,
    caps: Caps,
    json: &Option<PathBuf>,
) {
    let mut rows = Vec::new();
    for (&isp, scan) in isps.iter().zip(&t.scans) {
        if isp == IspId::Jio {
            // The paper's Figure 5 plots Airtel, Vodafone, Idea.
            continue;
        }
        rows.push(fig5::from_scan(lab, isp, scan, caps.consistency_paths));
    }
    let f = fig5::Fig5 { rows };
    println!("{f}\n");
    emit_json(json, "fig5", &f);
}

fn run_table3(lab: &mut Lab, caps: Caps, json: &Option<PathBuf>) {
    let t = table3::run(lab, &table3::Table3Options { max_sites: caps.sites, ..Default::default() });
    println!("{t}\n");
    emit_json(json, "table3", &t);
}

fn run_fig1(lab: &mut Lab, json: &Option<PathBuf>) {
    match tracer_demo::run(lab, IspId::Idea) {
        Some(demo) => {
            println!("{demo}\n");
            emit_json(json, "fig1", &demo);
        }
        None => println!("fig1: no censored path found (unexpected)\n"),
    }
}

fn run_fig2(drv: &Driver, obs: &lucent_obs::Telemetry, caps: Caps, json: &Option<PathBuf>) {
    let f = drv.fig2(obs, &fig2::Fig2Options { max_sites: caps.sites, ..Default::default() });
    println!("{f}\n");
    emit_json(json, "fig2", &f);
}

fn run_fig3(lab: &mut Lab, json: &Option<PathBuf>) {
    match mechanism::figure3(lab) {
        Some(m) => {
            println!("Figure 3 (interceptive mechanism, Idea):\n{m}\n");
            emit_json(json, "fig3", &m);
        }
        None => println!("fig3: no covered remote path (unexpected for Idea)\n"),
    }
}

fn run_fig4(lab: &mut Lab, json: &Option<PathBuf>) {
    match mechanism::figure4(lab) {
        Some(m) => {
            println!("Figure 4 (wiretap mechanism, Airtel):\n{m}\n");
            emit_json(json, "fig4", &m);
        }
        None => println!("fig4: no covered remote path from the Airtel client\n"),
    }
}

fn run_race(drv: &Driver, obs: &lucent_obs::Telemetry, json: &Option<PathBuf>) {
    let r = drv.race(obs, &race::RaceOptions::default());
    println!("{r}\n");
    emit_json(json, "race", &r);
}

fn run_triggers(drv: &Driver, obs: &lucent_obs::Telemetry, json: &Option<PathBuf>) {
    let t = drv.triggers(obs, &[IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio]);
    println!("{t}\n");
    emit_json(json, "triggers", &t);
}

fn run_evasion(drv: &Driver, obs: &lucent_obs::Telemetry, json: &Option<PathBuf>) {
    let e = drv.evasion(obs, &evasion::EvasionOptions::default());
    println!("{e}\n");
    emit_json(json, "evasion", &e);
}

fn run_anonymity(drv: &Driver, obs: &lucent_obs::Telemetry, json: &Option<PathBuf>) {
    let a = drv.anonymity(obs, &[IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio], 30);
    println!("{a}\n");
    emit_json(json, "anonymity", &a);
}

fn run_https(lab: &mut Lab, json: &Option<PathBuf>) {
    let h = https_note::run(
        lab,
        &[IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio, IspId::Mtnl, IspId::Bsnl],
        20,
    );
    println!("{h}\n");
    emit_json(json, "https", &h);
}

fn run_dns_mechanism(lab: &mut Lab, json: &Option<PathBuf>) {
    let d = dns_mechanism::run(lab, 3);
    println!("{d}\n");
    emit_json(json, "dns_mechanism", &d);
}

fn run_threshold_audit(lab: &mut Lab, caps: Caps, json: &Option<PathBuf>) {
    println!("Threshold audit (§3.1): flagged-by-0.3-diff sites cleared by manual inspection");
    let mut results = Vec::new();
    for isp in [IspId::Airtel, IspId::Idea, IspId::Vodafone] {
        let audit = table1::threshold_audit(lab, isp, caps.sites);
        println!(
            "  {}: flagged {}, cleared {} ({:.0}%)",
            audit.isp,
            audit.flagged,
            audit.cleared,
            audit.cleared_fraction() * 100.0
        );
        results.push(audit);
    }
    println!();
    emit_json(json, "threshold_audit", &results);
}

/// Ablation: sweep the slow-path probability of Airtel's program and
/// measure the render rate (DESIGN.md §5 — the paper's ≈3/10 emerges
/// from this knob). The censored sites are found once, under the
/// committed program: probing under a device that always loses the race
/// would find none.
fn run_ablate_race(scale: Scale, json: &Option<PathBuf>) {
    println!("Ablation: wiretap slow-path probability → render rate (Airtel model)");
    let sites = race::censored_sites(&mut Lab::new(India::build(scale.config())), IspId::Airtel, 4);
    let mut rows = Vec::new();
    for slow_prob in [0.0, 0.15, 0.3, 0.5, 0.8] {
        let mut cfg = scale.config();
        if let Some(p) = cfg.http.get_mut(&IspId::Airtel) {
            p.policy.set_slow_path(slow_prob, (150_000, 400_000));
        }
        let mut lab = Lab::new(India::build(cfg));
        let (mut rendered, mut attempts) = (0, 0);
        for &site in &sites {
            let (r, a) = render_rate(&mut lab, IspId::Airtel, site, 10);
            rendered += r;
            attempts += a;
        }
        println!(
            "  slow_prob {:.2}: rendered {}/{} ({:.0}%)",
            slow_prob,
            rendered,
            attempts,
            100.0 * rendered as f64 / attempts.max(1) as f64
        );
        rows.push((slow_prob, rendered, attempts));
    }
    println!();
    emit_json(json, "ablate_race", &rows);
}

/// Ablation: sweep OONI's body-proportion threshold and report the
/// precision/recall trade-off in one ISP.
fn run_ablate_ooni(lab: &mut Lab, caps: Caps, json: &Option<PathBuf>) {
    println!("Ablation: OONI body-proportion threshold → precision/recall (Idea)");
    let sites: Vec<_> = match caps.sites {
        Some(n) => lab.india.corpus.pbw.iter().copied().take(n.min(60)).collect(),
        None => lab.india.corpus.pbw.iter().copied().take(200).collect(),
    };
    // Manual verdicts once.
    let manual: Vec<bool> = sites
        .iter()
        .map(|&s| inspect(lab, IspId::Idea, s).blocked)
        .collect();
    let mut rows = Vec::new();
    for threshold in [0.3, 0.5, 0.7, 0.9] {
        let mut pr = PrecisionRecall::default();
        for (&site, &actual) in sites.iter().zip(&manual) {
            let m = web_connectivity_with(lab, IspId::Idea, site, threshold);
            pr.record(m.verdict.is_some(), actual);
        }
        println!(
            "  threshold {:.1}: precision {:.2}, recall {:.2}",
            threshold,
            pr.precision(),
            pr.recall()
        );
        rows.push((threshold, pr));
    }
    println!();
    emit_json(json, "ablate_ooni", &rows);
}

fn main() {
    let args = parse_args();
    let caps = args.scale.caps();
    println!(
        "lucent repro — scale {:?} ({} PBWs{}), {} thread(s)\n",
        args.scale,
        caps.sites.map(|n| n.to_string()).unwrap_or_else(|| "all".into()),
        if args.json_dir.is_some() { ", writing JSON" } else { "" },
        args.threads,
    );
    let start = lucent_support::bench::Stopwatch::start();
    let mut lab = args.scale.lab();
    let obs = lab.india.net.telemetry();
    if let Some(spec) = &args.trace {
        if let Err(e) = obs.set_filter_spec(spec) {
            eprintln!("bad --trace spec {spec:?}: {e}");
            std::process::exit(2);
        }
        obs.enable_spans(true);
        obs.set_thread_name(0, "sim");
    }
    if args.profile.is_some() {
        // After the world is built, matching what each shard does: the
        // deterministic plane profiles the experiments, not the build.
        obs.enable_prof(true);
    }
    println!(
        "world built: {} sites, {} ISPs, {} events so far ({:.1}s)\n",
        lab.india.corpus.sites().len(),
        lab.india.isps.len(),
        lab.india.net.events_processed(),
        start.elapsed_secs()
    );
    let json = &args.json_dir;
    let drv = Driver::new(args.scale, args.threads, args.trace.clone())
        .with_prof(args.profile.is_some());
    match args.experiment.as_str() {
        "table1" => run_table1(&drv, &obs, caps, json),
        "table2" => {
            run_table2(&mut lab, caps, json);
        }
        "table3" => run_table3(&mut lab, caps, json),
        "fig1" => run_fig1(&mut lab, json),
        "fig2" => run_fig2(&drv, &obs, caps, json),
        "fig3" => run_fig3(&mut lab, json),
        "fig4" => run_fig4(&mut lab, json),
        "fig5" => {
            let (opts, t) = run_table2(&mut lab, caps, json);
            run_fig5(&mut lab, &opts.isps, &t, caps, json);
        }
        "race" => run_race(&drv, &obs, json),
        "triggers" => run_triggers(&drv, &obs, json),
        "evasion" => run_evasion(&drv, &obs, json),
        "dns-mechanism" => run_dns_mechanism(&mut lab, json),
        "https" => run_https(&mut lab, json),
        "anonymity" => run_anonymity(&drv, &obs, json),
        "world" => println!("{}", lab.india.summary()),
        "threshold-audit" => run_threshold_audit(&mut lab, caps, json),
        "ablate-race" => run_ablate_race(args.scale, json),
        "ablate-ooni" => run_ablate_ooni(&mut lab, caps, json),
        "all" => {
            run_fig1(&mut lab, json);
            run_table1(&drv, &obs, caps, json);
            run_threshold_audit(&mut lab, caps, json);
            let (opts, t) = run_table2(&mut lab, caps, json);
            run_fig5(&mut lab, &opts.isps, &t, caps, json);
            run_categories(&lab, &t, json);
            run_table3(&mut lab, caps, json);
            run_fig2(&drv, &obs, caps, json);
            run_fig3(&mut lab, json);
            run_fig4(&mut lab, json);
            run_race(&drv, &obs, json);
            run_triggers(&drv, &obs, json);
            run_evasion(&drv, &obs, json);
            run_dns_mechanism(&mut lab, json);
            run_https(&mut lab, json);
            run_anonymity(&drv, &obs, json);
        }
        other => {
            eprintln!("unknown experiment {other:?}; see --help");
            std::process::exit(2);
        }
    }
    if args.trace.is_some() {
        let dir = args.json_dir.clone().unwrap_or_else(|| PathBuf::from("."));
        write_or_die(&dir.join("trace-events.jsonl"), &obs.event_log());
        write_or_die(&dir.join("chrome-trace.json"), &obs.chrome_trace());
        println!(
            "trace: {} event(s) recorded ({} dropped at the ring cap) -> {}",
            obs.event_count(),
            obs.events_dropped(),
            dir.display()
        );
    }
    if let Some(path) = &args.metrics_out {
        write_or_die(path, &obs.metrics_snapshot_pretty());
        println!("metrics snapshot -> {}", path.display());
    }
    if obs.events_dropped() > 0 {
        eprintln!(
            "warn: {} telemetry event(s) dropped at the ring cap — event-derived \
             artifacts are incomplete; narrow --trace or run a smaller scale",
            obs.events_dropped()
        );
    }
    let wall = start.elapsed_secs();
    let events = lab.india.net.events_processed() + drv.shard_events();
    if let Some(path) = &args.profile {
        write_profile(path, &obs, &lab);
    }
    println!("done in {wall:.1}s wall, {events} simulator events, virtual time {}", lab.now());
}

/// Write the profile to `path`: the deterministic section and the
/// schema tag.
fn write_profile(path: &std::path::Path, obs: &lucent_obs::Telemetry, lab: &Lab) {
    use lucent_obs::prof;
    use lucent_support::Json;
    let profile = Json::Obj(vec![
        ("deterministic".to_string(), prof::deterministic_json(obs, lab.india.net.queue_depth_hwm())),
        ("schema".to_string(), Json::Str(prof::SCHEMA.to_string())),
    ]);
    write_or_die(path, &profile.to_string_pretty());
    println!("profile -> {}", path.display());
}

/// Write a requested output file, creating its directory first, and
/// fail loudly: a run that was asked for an artifact and could not
/// write it must not exit 0.
fn write_or_die(path: &std::path::Path, contents: &str) {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Err(e) = dir.map_or(Ok(()), fs::create_dir_all).and_then(|()| fs::write(path, contents)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}
