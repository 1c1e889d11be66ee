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
    let isp_name = std::env::args().nth(1).unwrap_or_else(|| "Idea".into());
    let isp = IspId::ALL
        .into_iter()
        .find(|i| i.name().eq_ignore_ascii_case(&isp_name))
        .unwrap_or(IspId::Idea);

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
