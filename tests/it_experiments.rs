//! Experiment-level integration: run every table/figure generator on the
//! tiny world and check the paper's qualitative shapes.

use lucent_core::experiments::{
    dns_mechanism, evasion, fig2, mechanism, race, table1, table2, table3, tracer_demo, triggers,
};
use lucent_core::lab::Lab;
use lucent_core::probe::classify::render_rate;
use lucent_topology::{India, IndiaConfig, IspId};

fn lab() -> Lab {
    Lab::new(India::build(IndiaConfig::tiny()))
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
    let mut lab = lab();
    let t = table1::run(
        &mut lab,
        &table1::Table1Options {
            isps: vec![IspId::Mtnl, IspId::Idea, IspId::Jio],
            max_sites: Some(20),
        },
    );
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
    let mut lab = lab();
    let f = fig2::run(&mut lab, &fig2::Fig2Options::default());
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
    let r = race::run(
        &mut lab,
        &race::RaceOptions { isps: vec![IspId::Idea], attempts: 6, sites_per_isp: 2 },
    );
    assert_eq!(r.rows[0].rendered, 0, "{r}");
}

#[test]
fn airtel_race_renders_exactly_as_often_as_its_slow_path_fires() {
    // The race ablation's knob is the slow path of Airtel's deployed
    // program: without it every injection wins, always taken the real
    // page gets through. Sites are found once, under the committed
    // program, as `repro ablate-race` does.
    let sites = race::censored_sites(&mut lab(), IspId::Airtel, 2);
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
    let mut lab = lab();
    let t = triggers::run(&mut lab, &[IspId::Idea]);
    let ladder = t.rows[0].ladder.as_ref().expect("ladder ran");
    assert!(ladder.is_stateful());
}

#[test]
fn evasion_and_dns_mechanism_reports_are_serializable() {
    let mut lab = lab();
    let e = evasion::run(
        &mut lab,
        &evasion::EvasionOptions {
            isps: vec![IspId::Idea],
            sites_per_isp: 1,
            techniques: vec![
                lucent_core::anticensor::Technique::ExtraSpaceBeforeValue,
                lucent_core::anticensor::Technique::SegmentedRequest,
            ],
        },
    );
    assert!(!lucent_support::json::to_string(&e).is_empty());
    let d = dns_mechanism::run(&mut lab, 1);
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
    let a = lucent_core::experiments::anonymity::run(&mut lab, &[IspId::Idea], 8);
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
