//! Regenerates Figure 4(a-c): per-application performance degradation,
//! energy savings and energy-delay-product improvement for the baseline
//! MCD, Dynamic-1%, Dynamic-5% and Attack/Decay configurations, all
//! referenced to the fully synchronous processor.
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use mcd_bench::{settings_from_env, write_artifact, write_bench_json};
use mcd_core::experiments::figure4;

fn main() {
    let settings = settings_from_env();
    eprintln!(
        "Running Figure 4 on {} benchmarks, {} instructions each, {} workers ...",
        settings.benchmarks.len(),
        settings.instructions,
        settings.workers()
    );
    let (fig, stats) = figure4::run_with_stats(&settings);
    let text = fig.render();
    println!("{text}");
    write_artifact("figure4.txt", &text);
    write_bench_json(
        "figure4",
        &stats,
        &[("benchmarks", (settings.benchmarks.len() as u64).into())],
    );
}
