//! Locate a censorship middlebox with the Iterative Network Tracer
//! (Figure 1 of the paper), then characterize what triggers it.
//!
//! ```sh
//! cargo run -p lucent-examples --bin trace_middlebox -- [ISP]
//! ```

use lucent_core::experiments::{tracer_demo, triggers};
use lucent_core::lab::Lab;
use lucent_topology::{India, IndiaConfig, IspId};

fn main() {
    let mut args = std::env::args().skip(1);
    let isp = args.next().map_or(Some(IspId::Idea), |a| IspId::from_name(&a));
    let (Some(isp), None) = (isp, args.next()) else {
        let isps = IspId::ALL.map(IspId::name).join(", ");
        eprintln!("usage: trace_middlebox [ISP], ISP one of {isps}");
        std::process::exit(2);
    };

    println!("building the simulated India…");
    let mut lab = Lab::new(India::build(IndiaConfig::small()));

    match tracer_demo::run(&mut lab, isp) {
        Some(demo) => println!("{demo}"),
        None => {
            println!("no censored path found from the {} client — try Idea or Airtel", isp.name());
            return;
        }
    }

    println!("\ncharacterizing the trigger…\n");
    let t = triggers::Triggers { rows: vec![triggers::run_isp(&mut lab, isp)] };
    println!("{t}");
}
