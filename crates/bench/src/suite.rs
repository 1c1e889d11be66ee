//! The experiment suite: the one ordered table of every experiment
//! `repro` runs, and the only place that names one.
//!
//! Each [`Entry`] of [`SUITE`] is a `repro` name and the fixed list of
//! steps it runs: `fig5` is Table 2 then Figure 5, and `all` is the
//! paper's whole battery (§3–§6) in the order it is reported. Every
//! step runs on worlds of its own, a clone of the [`Driver`]'s template
//! or its shards, so it publishes the same alone as inside `all`. A
//! step returns its text and its result; [`Entry::run`] hands each
//! finished step to an observer the caller supplies. The library never
//! prints, so the caller decides where text and JSON go, and a long run
//! still streams one step at a time.

use std::fmt::{self, Write as _};
use std::rc::Rc;

use lucent_core::experiments::{
    categories, dns_mechanism, evasion, fig2, fig5, https_note, mechanism, race, table1, table2,
    table3, tracer_demo,
};
use lucent_core::lab::Lab;
use lucent_core::metrics::PrecisionRecall;
use lucent_core::probe::classify::{censored_sites, render_rate};
use lucent_core::probe::manual::inspect;
use lucent_core::probe::ooni::web_connectivity_with;
use lucent_support::ToJson;
use lucent_topology::IspId;

use crate::drive::Driver;
use crate::Caps;
use Run::{Driven, Serial};

/// The ISPs whose HTTP censorship the triggers and anonymity runs
/// characterize.
const HTTP_CENSORS: [IspId; 4] = [IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio];

/// The ISPs the HTTPS check probes, and how many blocked sites each.
const HTTPS_ISPS: [IspId; 6] =
    [IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio, IspId::Mtnl, IspId::Bsnl];
const HTTPS_SITES_PER_ISP: usize = 20;

/// Popular-site paths probed per ISP in the anonymity run.
const ANONYMITY_PATHS: usize = 30;

/// Poisoned resolvers probed per ISP in the DNS mechanism run.
const DNS_MECHANISM_RESOLVERS: usize = 3;

/// One `repro` experiment name and the steps it runs, in order.
pub struct Entry {
    /// The name `repro` accepts.
    pub name: &'static str,
    steps: &'static [Step],
}

/// One experiment: the stem of the JSON file its result is written to,
/// and the code that runs it.
struct Step {
    file: &'static str,
    run: Run,
}

/// How a step runs.
enum Run {
    /// On one world of its own, a clone of the run's template, profiled
    /// under the step's file stem.
    Serial(fn(&mut Lab, Caps) -> Outcome),
    /// Through the run: on its shards, on worlds it builds, or on Table
    /// 2's scans.
    Driven(fn(&mut Bench<'_>) -> Outcome),
}

/// A step's text and its result (`None` when it has none to write).
type Outcome = (String, Option<Rc<dyn ToJson>>);

/// One finished step, as handed to the observer of [`Entry::run`].
pub struct Finished {
    /// Stem of the step's JSON file (`repro --json DIR` writes `DIR/{file}.json`).
    pub file: &'static str,
    /// The step's text, as `repro` prints it.
    pub text: String,
    /// The step's result; `None` for `world` and for a figure whose
    /// path was not found.
    pub value: Option<Rc<dyn ToJson>>,
}

const FIG1: Step = Step { file: "fig1", run: Serial(fig1) };
const TABLE1: Step = Step { file: "table1", run: Driven(table1) };
const THRESHOLD_AUDIT: Step = Step { file: "threshold_audit", run: Serial(threshold_audit) };
const TABLE2: Step = Step { file: "table2", run: Driven(table2) };
const FIG5: Step = Step { file: "fig5", run: Driven(fig5) };
const CATEGORIES: Step = Step { file: "categories", run: Driven(categories) };
const TABLE3: Step = Step { file: "table3", run: Serial(table3) };
const FIG2: Step = Step { file: "fig2", run: Driven(fig2) };
const FIG3: Step = Step { file: "fig3", run: Serial(fig3) };
const FIG4: Step = Step { file: "fig4", run: Serial(fig4) };
const RACE: Step = Step { file: "race", run: Driven(race) };
const TRIGGERS: Step = Step { file: "triggers", run: Driven(triggers) };
const EVASION: Step = Step { file: "evasion", run: Driven(evasion) };
const DNS_MECHANISM: Step = Step { file: "dns_mechanism", run: Serial(dns_mechanism) };
const HTTPS: Step = Step { file: "https", run: Serial(https) };
const ANONYMITY: Step = Step { file: "anonymity", run: Driven(anonymity) };
const WORLD: Step = Step { file: "world", run: Driven(world) };
const ABLATE_RACE: Step = Step { file: "ablate_race", run: Driven(ablate_race) };
const ABLATE_OONI: Step = Step { file: "ablate_ooni", run: Serial(ablate_ooni) };

/// Every experiment `repro` accepts, in `--help` order. `categories`
/// runs only within `all`.
pub const SUITE: &[Entry] = &[
    Entry { name: "table1", steps: &[TABLE1] },
    Entry { name: "table2", steps: &[TABLE2] },
    Entry { name: "table3", steps: &[TABLE3] },
    Entry { name: "fig1", steps: &[FIG1] },
    Entry { name: "fig2", steps: &[FIG2] },
    Entry { name: "fig3", steps: &[FIG3] },
    Entry { name: "fig4", steps: &[FIG4] },
    Entry { name: "fig5", steps: &[TABLE2, FIG5] },
    Entry { name: "race", steps: &[RACE] },
    Entry { name: "triggers", steps: &[TRIGGERS] },
    Entry { name: "evasion", steps: &[EVASION] },
    Entry { name: "dns-mechanism", steps: &[DNS_MECHANISM] },
    Entry { name: "https", steps: &[HTTPS] },
    Entry { name: "anonymity", steps: &[ANONYMITY] },
    Entry { name: "world", steps: &[WORLD] },
    Entry { name: "threshold-audit", steps: &[THRESHOLD_AUDIT] },
    Entry { name: "ablate-race", steps: &[ABLATE_RACE] },
    Entry { name: "ablate-ooni", steps: &[ABLATE_OONI] },
    Entry {
        name: "all",
        steps: &[
            FIG1, TABLE1, THRESHOLD_AUDIT, TABLE2, FIG5, CATEGORIES, TABLE3, FIG2, FIG3, FIG4,
            RACE, TRIGGERS, EVASION, DNS_MECHANISM, HTTPS, ANONYMITY,
        ],
    },
];

/// The entry called `name`, if the suite has one.
pub fn entry(name: &str) -> Option<&'static Entry> {
    SUITE.iter().find(|e| e.name == name)
}

impl Entry {
    /// Run this entry's steps in order on `drv`, handing each finished
    /// step to the observer `emit`.
    pub fn run(&self, drv: &mut Driver, mut emit: impl FnMut(Finished)) {
        let mut bench = Bench { caps: drv.scale().caps(), drv, table2: None };
        for step in self.steps {
            let (text, value) = match step.run {
                Serial(run) => bench.drv.serial(step.file, |lab| run(lab, bench.caps)),
                Driven(run) => run(&mut bench),
            };
            emit(Finished { file: step.file, text, value });
        }
    }
}

/// What a driven step may use: the run, its scale's caps, and Table 2
/// once it has run (Figure 5 and the categories reuse its scans).
struct Bench<'a> {
    drv: &'a mut Driver,
    caps: Caps,
    table2: Option<Rc<table2::Table2>>,
}

impl Bench<'_> {
    /// Table 2, run on a world of its own on first use.
    fn table2(&mut self) -> Rc<table2::Table2> {
        let (opts, drv) = (table2_options(self.caps), &mut *self.drv);
        let run = || Rc::new(drv.serial("table2", |lab| table2::run(lab, &opts)));
        Rc::clone(self.table2.get_or_insert_with(run))
    }
}

/// Table 2's options at `caps`. `table2::run` builds one scan per
/// `isps` entry, in order, so `isps` names each scan's ISP.
fn table2_options(caps: Caps) -> table2::Table2Options {
    table2::Table2Options {
        inside_targets: caps.inside_targets,
        hosts_per_path: caps.hosts_per_path,
        max_sites: caps.sites,
        ..Default::default()
    }
}

/// A result shown under `heading`, then a blank line.
fn titled<T: ToJson + fmt::Display + 'static>(heading: &str, value: T) -> Outcome {
    (format!("{heading}{value}\n"), Some(Rc::new(value)))
}

/// A result shown on its own, then a blank line.
fn shown<T: ToJson + fmt::Display + 'static>(value: T) -> Outcome {
    titled("", value)
}

/// A step that found nothing to report.
fn missing(text: &str) -> Outcome {
    (format!("{text}\n"), None)
}

fn fig1(lab: &mut Lab, _: Caps) -> Outcome {
    match tracer_demo::run(lab, IspId::Idea) {
        Some(demo) => shown(demo),
        None => missing("fig1: no censored path found (unexpected)"),
    }
}

fn table1(b: &mut Bench<'_>) -> Outcome {
    let opts = table1::Table1Options { max_sites: b.caps.sites, ..Default::default() };
    shown(b.drv.table1(&opts))
}

fn threshold_audit(lab: &mut Lab, caps: Caps) -> Outcome {
    let mut text = String::from(
        "Threshold audit (§3.1): flagged-by-0.3-diff sites cleared by manual inspection\n",
    );
    let mut audits = Vec::new();
    for isp in [IspId::Airtel, IspId::Idea, IspId::Vodafone] {
        let audit = table1::threshold_audit(lab, isp, caps.sites);
        let (flagged, cleared, pct) =
            (audit.flagged, audit.cleared, audit.cleared_fraction() * 100.0);
        let _ = writeln!(text, "  {}: flagged {flagged}, cleared {cleared} ({pct:.0}%)", audit.isp);
        audits.push(audit);
    }
    (text, Some(Rc::new(audits)))
}

fn table2(b: &mut Bench<'_>) -> Outcome {
    let t = b.table2();
    (format!("{t}\n"), Some(t as Rc<dyn ToJson>))
}

fn fig5(b: &mut Bench<'_>) -> Outcome {
    let (t, caps) = (b.table2(), b.caps);
    let rows = b.drv.serial("fig5", |lab| {
        table2_options(caps)
            .isps
            .into_iter()
            .zip(&t.scans)
            // The paper's Figure 5 plots Airtel, Vodafone, Idea.
            .filter(|&(isp, _)| isp != IspId::Jio)
            .map(|(isp, scan)| fig5::from_scan(lab, isp, scan, caps.consistency_paths))
            .collect()
    });
    shown(fig5::Fig5 { rows })
}

fn categories(b: &mut Bench<'_>) -> Outcome {
    let t = b.table2();
    shown(b.drv.serial("categories", |lab| categories::from_scans(lab, &t.scans)))
}

fn table3(lab: &mut Lab, caps: Caps) -> Outcome {
    let opts = table3::Table3Options { max_sites: caps.sites, ..Default::default() };
    shown(table3::run(lab, &opts))
}

fn fig2(b: &mut Bench<'_>) -> Outcome {
    let opts = fig2::Fig2Options { max_sites: b.caps.sites, ..Default::default() };
    shown(b.drv.fig2(&opts))
}

fn fig3(lab: &mut Lab, _: Caps) -> Outcome {
    match mechanism::figure3(lab) {
        Some(m) => titled("Figure 3 (interceptive mechanism, Idea):\n", m),
        None => missing("fig3: no covered remote path (unexpected for Idea)"),
    }
}

fn fig4(lab: &mut Lab, _: Caps) -> Outcome {
    match mechanism::figure4(lab) {
        Some(m) => titled("Figure 4 (wiretap mechanism, Airtel):\n", m),
        None => missing("fig4: no covered remote path from the Airtel client"),
    }
}

fn race(b: &mut Bench<'_>) -> Outcome {
    shown(b.drv.race(&race::RaceOptions::default()))
}

fn triggers(b: &mut Bench<'_>) -> Outcome {
    shown(b.drv.triggers(&HTTP_CENSORS))
}

fn evasion(b: &mut Bench<'_>) -> Outcome {
    shown(b.drv.evasion(&evasion::EvasionOptions::default()))
}

fn dns_mechanism(lab: &mut Lab, _: Caps) -> Outcome {
    shown(dns_mechanism::run(lab, DNS_MECHANISM_RESOLVERS))
}

fn https(lab: &mut Lab, _: Caps) -> Outcome {
    shown(https_note::run(lab, &HTTPS_ISPS, HTTPS_SITES_PER_ISP))
}

fn anonymity(b: &mut Bench<'_>) -> Outcome {
    shown(b.drv.anonymity(&HTTP_CENSORS, ANONYMITY_PATHS))
}

fn world(b: &mut Bench<'_>) -> Outcome {
    (b.drv.world().summary(), None)
}

/// Ablation: sweep the slow-path probability of Airtel's program and
/// measure the render rate (DESIGN.md §5 — the paper's ≈3/10 emerges
/// from this knob). Each probability gets a world of its own. The
/// censored sites are found once, under the committed program: probing
/// under a device that always loses the race would find none. Every
/// world's telemetry and events join the run's, in this order.
fn ablate_race(b: &mut Bench<'_>) -> Outcome {
    let mut text =
        String::from("Ablation: wiretap slow-path probability → render rate (Airtel model)\n");
    let scale = b.drv.scale();
    let sites = b.drv.on_world("ablate-race.sites", scale.config(), |lab| {
        censored_sites(lab, IspId::Airtel, 4, race::raceable)
    });
    let mut rows = Vec::new();
    for prob in [0.0, 0.15, 0.3, 0.5, 0.8] {
        let mut cfg = scale.config();
        if let Some(p) = cfg.http.get_mut(&IspId::Airtel) {
            p.policy.set_slow_path(prob, (150_000, 400_000));
        }
        let tag = format!("ablate-race.slow-{prob:.2}");
        let (rendered, attempts) = b.drv.on_world(&tag, cfg, |lab| {
            let (mut rendered, mut attempts) = (0, 0);
            for &site in &sites {
                let (r, a) = render_rate(lab, IspId::Airtel, site, 10);
                rendered += r;
                attempts += a;
            }
            (rendered, attempts)
        });
        let pct = 100.0 * rendered as f64 / attempts.max(1) as f64;
        let _ = writeln!(text, "  slow_prob {prob:.2}: rendered {rendered}/{attempts} ({pct:.0}%)");
        rows.push((prob, rendered, attempts));
    }
    (text, Some(Rc::new(rows)))
}

/// Ablation: sweep OONI's body-proportion threshold and report the
/// precision/recall trade-off in one ISP.
fn ablate_ooni(lab: &mut Lab, caps: Caps) -> Outcome {
    let mut text =
        String::from("Ablation: OONI body-proportion threshold → precision/recall (Idea)\n");
    let cap = caps.sites.map_or(200, |n| n.min(60));
    let sites = lab.india.corpus.pbw_sample(Some(cap));
    // Manual verdicts once.
    let manual: Vec<bool> =
        sites.iter().map(|&s| inspect(lab, IspId::Idea, s).blocked).collect();
    let mut rows = Vec::new();
    for threshold in [0.3, 0.5, 0.7, 0.9] {
        let mut pr = PrecisionRecall::default();
        for (&site, &actual) in sites.iter().zip(&manual) {
            let m = web_connectivity_with(lab, IspId::Idea, site, threshold);
            pr.record(m.verdict.is_some(), actual);
        }
        let (p, r) = (pr.precision(), pr.recall());
        let _ = writeln!(text, "  threshold {threshold:.1}: precision {p:.2}, recall {r:.2}");
        rows.push((threshold, pr));
    }
    (text, Some(Rc::new(rows)))
}
