//! Regenerates Figures 6 and 7: sensitivity of the energy-delay-product
//! improvement (Figure 6) and the power/performance ratio (Figure 7) to the
//! Decay, ReactionChange and DeviationThreshold parameters.
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use mcd_bench::{full_from_env, settings_from_env, write_artifact};
use mcd_core::experiments::sensitivity;

fn main() {
    let settings = settings_from_env();
    let full = full_from_env();

    let decay_points: Vec<f64> = if full {
        vec![0.0005, 0.00175, 0.005, 0.0075, 0.010, 0.015, 0.020]
    } else {
        vec![0.00175, 0.0075, 0.020]
    };
    let reaction_points: Vec<f64> = if full {
        vec![0.005, 0.02, 0.04, 0.06, 0.09, 0.12, 0.155]
    } else {
        vec![0.01, 0.06, 0.155]
    };
    let deviation_points: Vec<f64> = if full {
        vec![0.0, 0.0025, 0.0075, 0.0125, 0.0175, 0.025]
    } else {
        vec![0.0025, 0.0175, 0.025]
    };

    let mut out = String::new();
    for sweep in [
        sensitivity::sweep_decay(&settings, &decay_points),
        sensitivity::sweep_reaction_change(&settings, &reaction_points),
        sensitivity::sweep_deviation_threshold(&settings, &deviation_points),
    ] {
        out.push_str(&sweep.render());
        out.push('\n');
    }
    println!("Figures 6 and 7. Attack/Decay sensitivity analysis\n{out}");
    write_artifact("figure6_7.txt", &out);
}
