//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--scale tiny|small|paper] [--json DIR]
//!       [--trace SPEC] [--metrics-out PATH] [--profile PATH] [--threads N]
//! ```
//!
//! EXPERIMENT is an entry of [`lucent_bench::suite`] (`--help` lists
//! them; the default, `all`, runs the paper's whole battery). Text
//! tables go to stdout as each experiment finishes; with `--json DIR`
//! each experiment also writes a machine-readable result file.
//!
//! `--trace SPEC` installs a `target=level` event filter (e.g.
//! `wiretap=debug,tcp=info` or just `trace` for everything) and turns on
//! span collection; after the run a JSON-lines event log
//! (`trace-events.jsonl`) and a Chrome trace-event file
//! (`chrome-trace.json`, loadable in `chrome://tracing` or Perfetto) are
//! written next to the JSON results (or the current directory).
//! `--metrics-out PATH` writes the deterministic metrics snapshot.
//!
//! `--threads N` shards the per-ISP experiments across N OS threads;
//! every artifact is byte-identical to `--threads 1` (default:
//! available parallelism).
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
use lucent_bench::suite::{self, Entry};
use lucent_bench::{shard, Scale};

const SYNOPSIS: &str = "repro [EXPERIMENT] [--scale tiny|small|paper] [--json DIR] \
                        [--trace SPEC] [--metrics-out PATH] [--profile PATH] [--threads N]";

/// The synopsis, then every experiment name of the suite.
fn usage() -> String {
    let names: Vec<&str> = suite::SUITE.iter().map(|e| e.name).collect();
    format!("{SYNOPSIS}\nEXPERIMENT: {}", names.join(" | "))
}

struct Args {
    experiment: &'static Entry,
    scale: Scale,
    json_dir: Option<PathBuf>,
    trace: Option<String>,
    metrics_out: Option<PathBuf>,
    profile: Option<PathBuf>,
    threads: usize,
}

#[expect(clippy::print_stdout, clippy::print_stderr, reason = "the CLI's usage and argument errors")]
fn parse_args() -> Args {
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Small;
    let mut json_dir = None;
    let mut trace = None;
    let mut metrics_out = None;
    let mut profile = None;
    let mut threads = shard::default_threads();
    let mut flags_seen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        // A repeated flag must not silently override its first value.
        if a.starts_with("--") {
            if flags_seen.contains(&a) {
                eprintln!("{a} given twice\nusage: {}", usage());
                std::process::exit(2);
            }
            flags_seen.push(a.clone());
        }
        match a.as_str() {
            "--scale" => {
                let v = required(&mut args, "--scale", "tiny|small|paper");
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}; use tiny|small|paper");
                    std::process::exit(2);
                });
            }
            "--json" => json_dir = Some(required(&mut args, "--json", "a directory").into()),
            "--trace" => {
                trace = Some(required(&mut args, "--trace", "a spec, e.g. wiretap=debug,tcp=info"));
            }
            "--metrics-out" => {
                metrics_out = Some(required(&mut args, "--metrics-out", "a file path").into());
            }
            "--profile" => profile = Some(required(&mut args, "--profile", "a file path").into()),
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--threads needs a positive integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            // An unknown --flag must not fall through to the EXPERIMENT
            // arm: it would be reported as an unknown experiment (or
            // silently shadow a valid one given earlier).
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}\nusage: {}", usage());
                std::process::exit(2);
            }
            // A second EXPERIMENT must not silently replace the first.
            other => {
                if let Some(first) = &experiment {
                    eprintln!("one EXPERIMENT per run, got {first:?} and {other:?}\nusage: {}", usage());
                    std::process::exit(2);
                }
                experiment = Some(other.to_string());
            }
        }
    }
    let name = experiment.as_deref().unwrap_or("all");
    let Some(experiment) = suite::entry(name) else {
        eprintln!("unknown experiment {name:?}\nusage: {}", usage());
        std::process::exit(2);
    };
    Args { experiment, scale, json_dir, trace, metrics_out, profile, threads }
}

/// The value after `flag`, or `None` when the arguments end. A value
/// that is itself a flag exits 2 rather than being swallowed, so
/// `--json --scale tiny` cannot write JSON into a directory `--scale`.
#[expect(clippy::print_stderr, reason = "the CLI's argument errors")]
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Option<String> {
    let v = args.next()?;
    if v.starts_with("--") {
        eprintln!("{flag} needs a value, got flag {v:?}");
        std::process::exit(2);
    }
    Some(v)
}

/// The value after `flag`; when the arguments end, exits 2 saying the
/// flag needs `what`.
#[expect(clippy::print_stderr, reason = "the CLI's argument errors")]
fn required(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    flag_value(args, flag).unwrap_or_else(|| {
        eprintln!("{flag} needs {what}");
        std::process::exit(2);
    })
}

#[expect(clippy::print_stdout, clippy::print_stderr, reason = "the CLI prints its tables and warnings")]
fn main() {
    let args = parse_args();
    println!(
        "lucent repro — scale {:?} ({} PBWs{}), {} thread(s)\n",
        args.scale,
        args.scale.caps().sites.map(|n| n.to_string()).unwrap_or_else(|| "all".into()),
        if args.json_dir.is_some() { ", writing JSON" } else { "" },
        args.threads,
    );
    let start = lucent_support::bench::Stopwatch::start();
    let trace = args.trace.as_deref();
    let mut drv = Driver::new(args.scale, args.threads, trace, args.profile.is_some())
        .unwrap_or_else(|e| {
            eprintln!("bad --trace spec {:?}: {e}", trace.unwrap_or_default());
            std::process::exit(2);
        });
    println!(
        "world built: {} sites, {} ISPs, {} events so far ({:.1}s)\n",
        drv.world().corpus.sites().len(),
        drv.world().isps.len(),
        drv.world().net.events_processed(),
        start.elapsed_secs()
    );
    args.experiment.run(&mut drv, |done| {
        println!("{}", done.text);
        if let (Some(dir), Some(value)) = (&args.json_dir, &done.value) {
            let path = dir.join(format!("{}.json", done.file));
            write_or_die(&path, &lucent_support::json::to_string_pretty(&**value));
        }
    });
    let obs = drv.telemetry();
    if args.trace.is_some() {
        let dir = args.json_dir.clone().unwrap_or_else(|| PathBuf::from("."));
        write_or_die(&dir.join("trace-events.jsonl"), &obs.event_log());
        write_or_die(&dir.join("chrome-trace.json"), &obs.chrome_trace());
        println!(
            "trace: {} event(s) recorded ({} dropped at the ring cap), {} span(s) ({} dropped) -> {}",
            obs.event_count(),
            obs.events_dropped(),
            obs.span_count(),
            obs.spans_dropped(),
            dir.display()
        );
    }
    if let Some(path) = &args.metrics_out {
        write_or_die(path, &obs.metrics_snapshot_pretty());
        println!("metrics snapshot -> {}", path.display());
    }
    for (dropped, what) in [(obs.events_dropped(), "event"), (obs.spans_dropped(), "span")] {
        if dropped > 0 {
            eprintln!(
                "warn: {dropped} telemetry {what}(s) dropped at the ring cap — {what}-derived \
                 artifacts are incomplete; narrow --trace or run a smaller scale"
            );
        }
    }
    let wall = start.elapsed_secs();
    if let Some(path) = &args.profile {
        use lucent_obs::prof;
        let profile = lucent_support::Json::Obj(vec![
            ("deterministic".to_string(), prof::deterministic_json(&obs)),
            ("schema".to_string(), lucent_support::Json::Str(prof::SCHEMA.to_string())),
        ]);
        write_or_die(path, &profile.to_string_pretty());
        println!("profile -> {}", path.display());
    }
    let (events, time) = drv.totals();
    println!("done in {wall:.1}s wall, {events} simulator events, virtual time {time}");
}

/// Write a requested output file, creating its directory first, and
/// fail loudly: a run that was asked for an artifact and could not
/// write it must not exit 0.
#[expect(clippy::print_stderr, reason = "the CLI's write errors")]
fn write_or_die(path: &std::path::Path, contents: &str) {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Err(e) = dir.map_or(Ok(()), fs::create_dir_all).and_then(|()| fs::write(path, contents)) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}
