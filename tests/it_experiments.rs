//! Experiment-level integration: run every table/figure generator on the
//! tiny world (a few on the small one) and check the paper's qualitative
//! shapes. The per-ISP experiments run through the sharded [`Driver`],
//! the path `repro` ships, so every ISP is measured on its own lab.
//! Every step's published result is pinned by the committed record
//! under `results/` (`it_record`, `it_shards`).

use lucent_bench::drive::Driver;
use lucent_bench::Scale;
use lucent_core::anticensor::Technique;
use lucent_core::experiments::{
    dns_mechanism, evasion, fig2, mechanism, race, table1, table2, table3, tracer_demo,
};
use lucent_core::lab::Lab;
use lucent_core::probe::classify::{censored_sites, render_rate};
use lucent_topology::{India, IndiaConfig, IspId};

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::tiny()))
}

/// A one-thread driver at `scale`; results are the same at any thread
/// count.
fn driver(scale: Scale) -> Driver {
    Driver::new(scale, 1, None, false).expect("no trace spec to reject")
}

#[test]
fn tracer_demo_always_locates_the_idea_device_before_the_server() {
    let mut lab = lab();
    let demo = tracer_demo::run(&mut lab, IspId::Idea).expect("blocked path");
    let at = demo.trace.censored_at_ttl.unwrap();
    let n = demo.trace.path_len.unwrap();
    assert!(at < n);
}

#[test]
fn table1_mtnl_is_the_only_isp_with_dns_positives() {
    let t = driver(Scale::Tiny).table1(&table1::Table1Options {
        isps: vec![IspId::Mtnl, IspId::Idea, IspId::Jio],
        max_sites: Some(20),
    });
    let by_name = |n: &str| t.rows.iter().find(|r| r.isp == n).unwrap().clone();
    assert!(by_name("MTNL").dns.tp + by_name("MTNL").dns.fp > 0 || by_name("MTNL").manual_blocked == 0);
    assert_eq!(by_name("Idea").dns.tp, 0);
    assert_eq!(by_name("Jio").dns.tp, 0);
    // Nobody ever truly censors at TCP/IP level.
    for row in &t.rows {
        assert_eq!(row.tcp.tp, 0, "{}", row.isp);
        assert_eq!(row.tcp.fn_, 0, "{}", row.isp);
    }
}

#[test]
fn table2_idea_dominates_every_other_isp_on_coverage() {
    let mut lab = lab();
    let opts = table2::Table2Options {
        isps: vec![IspId::Airtel, IspId::Idea, IspId::Vodafone, IspId::Jio],
        inside_targets: 16,
        hosts_per_path: 40,
        max_sites: Some(40),
        consistency_paths: 6,
    };
    let t = table2::run(&mut lab, &opts);
    let idea = t.scans.iter().find(|s| s.isp == "Idea").unwrap();
    for other in t.scans.iter().filter(|s| s.isp != "Idea") {
        assert!(
            idea.inside.coverage() >= other.inside.coverage(),
            "Idea ({}) vs {} ({})",
            idea.inside.coverage(),
            other.isp,
            other.inside.coverage()
        );
    }
    let jio = t.scans.iter().find(|s| s.isp == "Jio").unwrap();
    assert_eq!(jio.outside.coverage(), 0.0, "Jio invisible from outside");
    // Blocked counts track the master lists (partition guarantee + scan).
    let truth_counts: Vec<usize> = ["Airtel", "Idea", "Vodafone", "Jio"]
        .iter()
        .map(|n| {
            let isp = IspId::ALL.into_iter().find(|i| i.name() == *n).unwrap();
            lab.india.truth.http_master[&isp].len()
        })
        .collect();
    for (scan, &truth) in t.scans.iter().zip(&truth_counts) {
        assert!(
            scan.blocked_sites.len() <= truth,
            "{}: measured {} > truth {truth}",
            scan.isp,
            scan.blocked_sites.len()
        );
    }
}

#[test]
fn table3_victims_never_attribute_blocks_to_themselves() {
    let mut lab = lab();
    let t = table3::run(
        &mut lab,
        &table3::Table3Options {
            victims: vec![IspId::Nkn, IspId::Siti],
            max_sites: None,
        },
    );
    for row in &t.rows {
        assert!(!row.by_censor.contains_key(&row.victim), "{row:?}");
        // Every attributed censor is one of the victim's actual transits.
        let victim = IspId::ALL.into_iter().find(|i| i.name() == row.victim).unwrap();
        let (a, b) = victim.transits().unwrap();
        for censor in row.by_censor.keys() {
            if censor == "?" {
                continue;
            }
            assert!(
                censor == a.name() || censor == b.name(),
                "{}: unexpected censor {censor}",
                row.victim
            );
        }
    }
}

#[test]
fn fig2_counts_match_deployment() {
    let f = driver(Scale::Tiny).fig2(&fig2::Fig2Options::default());
    let lab = lab();
    for row in &f.rows {
        let isp = IspId::ALL.into_iter().find(|i| i.name() == row.isp).unwrap();
        assert_eq!(row.open, lab.india.isps[&isp].resolvers.len(), "{}", row.isp);
        let truth_poisoned = lab.india.truth.dns_resolvers[&isp].len();
        assert!(row.poisoned <= truth_poisoned, "{}", row.isp);
        assert!(row.poisoned + 1 >= truth_poisoned, "{}: found {} of {}", row.isp, row.poisoned, truth_poisoned);
    }
}

#[test]
fn figure3_and_race_agree_interceptive_never_loses() {
    let mut lab = lab();
    let fig3 = mechanism::figure3(&mut lab).expect("covered Idea path");
    assert!(!fig3.get_reached_remote);
    let r = driver(Scale::Tiny).race(&race::RaceOptions {
        isps: vec![IspId::Idea],
        attempts: 6,
        sites_per_isp: 2,
    });
    assert_eq!(r.rows[0].rendered, 0, "{r}");
}

#[test]
fn airtel_race_renders_exactly_as_often_as_its_slow_path_fires() {
    // The race ablation's knob is the slow path of Airtel's deployed
    // program: without it every injection wins, always taken the real
    // page gets through. Sites are found once, under the committed
    // program, as `repro ablate-race` does.
    let sites = censored_sites(&mut lab(), IspId::Airtel, 2, race::raceable);
    assert!(!sites.is_empty(), "no censored Airtel path");
    let rendered = |p: f64| {
        let mut cfg = IndiaConfig::tiny();
        cfg.http.get_mut(&IspId::Airtel).expect("Airtel deploys a program").policy.set_slow_path(p, (150_000, 400_000));
        let mut lab = Lab::new(India::build(cfg));
        sites.iter().map(|&site| render_rate(&mut lab, IspId::Airtel, site, 6).0).sum::<usize>()
    };
    assert_eq!(rendered(0.0), 0, "with no slow path every injection wins the race");
    assert_eq!(rendered(1.0), 6 * sites.len(), "an always-slow device loses every race");
}

#[test]
fn triggers_report_statefulness_everywhere_applicable() {
    let t = driver(Scale::Tiny).triggers(&[IspId::Idea]);
    let ladder = t.rows[0].ladder.as_ref().expect("ladder ran");
    assert!(ladder.is_stateful());
}

#[test]
fn evasion_and_dns_mechanism_reports_are_serializable() {
    let e = driver(Scale::Tiny).evasion(&evasion::EvasionOptions {
        isps: vec![IspId::Idea],
        sites_per_isp: 1,
        techniques: vec![Technique::ExtraSpaceBeforeValue, Technique::SegmentedRequest],
    });
    assert!(!lucent_support::json::to_string(&e).is_empty());
    let d = dns_mechanism::run(&mut lab(), 1);
    assert!(!lucent_support::json::to_string(&d).is_empty());
    assert!(d.synthetic_injection_detected);
}

#[test]
fn https_audit_and_anonymity_shapes() {
    let mut lab = lab();
    // HTTPS: the HTTP censor never touches 443; MTNL failures are DNS.
    let h = lucent_core::experiments::https_note::run(&mut lab, &[IspId::Idea, IspId::Mtnl], 6);
    let idea = h.rows.iter().find(|r| r.isp == "Idea").unwrap();
    assert_eq!(idea.https_blocked, 0, "{h}");
    let mtnl = h.rows.iter().find(|r| r.isp == "MTNL").unwrap();
    assert_eq!(mtnl.https_blocked, mtnl.dns_caused, "{h}");

    // Anonymity: censored paths always cross an asterisked hop.
    let a = driver(Scale::Tiny).anonymity(&[IspId::Idea], 8);
    let row = &a.rows[0];
    assert_eq!(row.censored, row.censored_and_asterisk, "{a}");
}

#[test]
fn category_breakdown_covers_all_seven() {
    let mut lab = lab();
    let opts = table2::Table2Options {
        isps: vec![IspId::Idea],
        inside_targets: 10,
        hosts_per_path: 40,
        max_sites: Some(40),
        consistency_paths: 6,
    };
    let scan = table2::scan_isp(&mut lab, IspId::Idea, &opts);
    let cats = lucent_core::experiments::categories::from_scans(&lab, &[scan]);
    let row = &cats.rows[0];
    let sum: usize = row.by_category.values().sum();
    assert_eq!(sum, row.total);
    // With a 16-site tiny master, most categories appear; at least 4 of 7.
    assert!(row.by_category.len() >= 4, "{cats}");
}

#[test]
fn wiretaps_lose_races_interceptive_never_do() {
    let race = driver(Scale::Small).race(&race::RaceOptions {
        isps: vec![IspId::Airtel, IspId::Idea],
        attempts: 10,
        sites_per_isp: 3,
    });
    let airtel = &race.rows[0];
    let idea = &race.rows[1];
    assert!(idea.attempts > 0, "{race}");
    assert_eq!(idea.rendered, 0, "interceptive devices never lose: {race}");
    // Metric-backed mechanism check: Idea is interceptive, so no
    // wiretap injection fires during its window; Airtel's losses are
    // explained by injections actually racing.
    assert_eq!(idea.injections, 0, "no wiretap fires for Idea: {race}");
    if airtel.attempts > 0 {
        assert!(airtel.injections > 0, "Airtel's wiretap must have fired: {race}");
        assert!(airtel.slow_injections <= airtel.injections, "{race}");
    }
    if airtel.attempts >= 20 {
        let rate = airtel.rate();
        assert!(
            rate > 0.05 && rate < 0.7,
            "wiretap render rate should be near the paper's ~0.3: {rate}"
        );
    }
}

#[test]
fn table1_shapes_hold_in_a_small_world() {
    let opts = table1::Table1Options { isps: vec![IspId::Mtnl, IspId::Idea], max_sites: Some(24) };
    let t = driver(Scale::Tiny).table1(&opts);
    assert_eq!(t.rows.len(), 2);
    let mtnl = &t.rows[0];
    let idea = &t.rows[1];
    // TCP censorship never exists, so TCP recall is 0 everywhere.
    assert_eq!(mtnl.tcp.recall(), 0.0);
    assert_eq!(idea.tcp.recall(), 0.0);
    // Idea (an HTTP censor) has zero true DNS positives.
    assert_eq!(idea.dns.tp, 0);
    // Some manual blocks exist in both.
    assert!(mtnl.manual_blocked > 0, "{t}");
    assert!(idea.manual_blocked > 0, "{t}");
    // Rendering works.
    let text = t.to_string();
    assert!(text.contains("MTNL") && text.contains("Idea"));
}

#[test]
fn mtnl_dominates_bsnl_on_coverage() {
    let fig = driver(Scale::Tiny).fig2(&fig2::Fig2Options::default());
    let mtnl = &fig.rows[0];
    let bsnl = &fig.rows[1];
    // Deployment: MTNL 8 resolvers (6 poisoned) + honest default,
    // BSNL 6 (1 poisoned) in the tiny config. (The consistency
    // ordering of the paper only emerges with realistic resolver
    // counts — a single poisoned BSNL resolver is trivially 100%
    // consistent with itself — so only coverage is asserted here;
    // the small/paper-scale repro run exercises consistency.)
    assert!(mtnl.coverage > bsnl.coverage, "{fig}");
    assert!(mtnl.poisoned >= 5, "{fig}");
    assert!(bsnl.poisoned >= 1, "{fig}");
    assert!(mtnl.consistency > 0.0 && mtnl.consistency <= 1.0);
    // Figures match ground truth deployment counts.
    let truth_poisoned = lab().india.truth.dns_resolvers[&IspId::Mtnl]
        .iter()
        .filter(|(_, bl)| !bl.is_empty())
        .count();
    assert!(mtnl.poisoned <= truth_poisoned + 1);
}

#[test]
fn every_censor_is_fully_evaded_by_some_technique() {
    let opts = evasion::EvasionOptions {
        isps: vec![IspId::Idea, IspId::Mtnl],
        sites_per_isp: 3,
        techniques: vec![
            Technique::ExtraSpaceBeforeValue,
            Technique::SegmentedRequest,
            Technique::HostKeywordCase,
            Technique::PublicResolver,
        ],
    };
    let e = driver(Scale::Small).evasion(&opts);
    assert_eq!(e.fully_evaded.get("Idea"), Some(&true), "{e}");
    assert_eq!(e.fully_evaded.get("MTNL"), Some(&true), "{e}");
    // Idea (overt IM, case-insensitive): case fudging must fail.
    let idea = &e.matrix["Idea"];
    assert_eq!(idea["host-case"].success, 0, "{e}");
    assert_eq!(idea["extra-space"].success, idea["extra-space"].attempts, "{e}");
}

#[test]
fn idea_characterization_matches_the_paper() {
    let t = driver(Scale::Tiny).triggers(&[IspId::Idea]);
    let row = &t.rows[0];
    let twin = row.twin.as_ref().expect("censored path exists in Idea");
    assert!(twin.censored_short && twin.censored_full);
    let ladder = row.ladder.as_ref().unwrap();
    assert!(ladder.is_stateful(), "{ladder:?}");
    let hf = row.host_field.as_ref().unwrap();
    assert!(hf.host_blocked && !hf.domain_elsewhere && !hf.control);
    let (idle, refreshed) = row.timeout.unwrap();
    assert!(!idle && refreshed);
    assert!(t.to_string().contains("Idea"));
}

#[test]
fn censored_paths_always_have_an_asterisked_hop() {
    let a = driver(Scale::Tiny).anonymity(&[IspId::Idea], 10);
    let row = &a.rows[0];
    assert!(row.paths > 0);
    assert!(row.censored > 0, "{a}");
    // Every censored path crosses an anonymized (device-hosting) hop.
    assert_eq!(row.censored, row.censored_and_asterisk, "{a}");
    // And the asterisk rate roughly tracks coverage (~7/8 in tiny).
    assert!(row.with_asterisk * 2 >= row.paths, "{a}");
}
