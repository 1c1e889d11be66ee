//! The example binaries as a user runs them: at their default arguments
//! each prints exactly its golden output, byte for byte, and a bad
//! argument exits 2 with a one-line message before any world is built.

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "quickstart" => env!("CARGO_BIN_EXE_quickstart"),
        "ooni_audit" => env!("CARGO_BIN_EXE_ooni_audit"),
        "trace_middlebox" => env!("CARGO_BIN_EXE_trace_middlebox"),
        "evade" => env!("CARGO_BIN_EXE_evade"),
        "collateral" => env!("CARGO_BIN_EXE_collateral"),
        _ => panic!("no example named {bin}"),
    };
    Command::new(exe).args(args).output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

#[test]
fn each_example_prints_its_golden_output() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for bin in ["quickstart", "ooni_audit", "trace_middlebox", "evade", "collateral"] {
        let out = run(bin, &[]);
        assert!(out.status.success(), "{bin}: {}", String::from_utf8_lossy(&out.stderr));
        let want = std::fs::read(golden.join(format!("{bin}.stdout"))).expect("read golden");
        assert!(
            out.stdout == want,
            "{bin}: stdout differs from tests/golden/{bin}.stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn bad_arguments_exit_2_before_the_world_is_built() {
    let isps = "Airtel, Vodafone, Idea, Jio, MTNL, BSNL, NKN, Sify, Siti, TATA";
    let audit = format!("usage: ooni_audit [ISP] [SITES], ISP one of {isps}, SITES a positive integer\n");
    let trace = format!("usage: trace_middlebox [ISP], ISP one of {isps}\n");
    let evade = "usage: evade [SITES_PER_ISP], a positive integer\n".to_string();
    let cases: [(&str, &[&str], &String); 8] = [
        ("ooni_audit", &["Nowhere"], &audit),
        ("ooni_audit", &["Idea", "many"], &audit),
        ("ooni_audit", &["Idea", "0"], &audit),
        ("ooni_audit", &["Idea", "5", "more"], &audit),
        ("trace_middlebox", &["Nowhere"], &trace),
        ("trace_middlebox", &["Idea", "more"], &trace),
        ("evade", &["three"], &evade),
        ("evade", &["-1"], &evade),
    ];
    for (bin, args, usage) in cases {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
        assert_eq!(String::from_utf8_lossy(&out.stderr), usage.as_str(), "{bin} {args:?}");
    }
}
