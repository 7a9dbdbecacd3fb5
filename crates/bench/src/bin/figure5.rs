//! Regenerates Figure 5: achieved performance degradation and EDP
//! improvement versus the performance-degradation target
//! (PerfDegThreshold sweep, legend 1.000_06.0_1.250_X.X).
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use mcd_bench::{full_from_env, settings_from_env, write_artifact};
use mcd_core::experiments::sensitivity;

fn main() {
    let settings = settings_from_env();
    let full = full_from_env();
    let points: Vec<f64> = if full {
        vec![0.0, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10, 0.12]
    } else {
        vec![0.0, 0.025, 0.06, 0.12]
    };
    let sweep = sensitivity::sweep_perf_deg_target(&settings, &points);
    let text = sweep.render();
    println!("Figure 5. Performance-degradation target analysis\n{text}");
    write_artifact("figure5.txt", &text);
}
