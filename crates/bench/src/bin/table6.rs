//! Regenerates Table 6: Attack/Decay vs Dynamic-1% vs Dynamic-5% vs global
//! voltage scaling, relative to the baseline MCD processor.
//!
//! Run with `MCD_FULL=1` for the full 30-benchmark suite.
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use std::time::Instant;

use mcd_bench::{settings_from_env, write_artifact, write_bench_json};
use mcd_core::experiments::table6;

fn main() {
    let settings = settings_from_env();
    eprintln!(
        "Running Table 6 on {} benchmarks, {} instructions each, {} workers ...",
        settings.benchmarks.len(),
        settings.instructions,
        settings.workers()
    );
    let started = Instant::now();
    let (table, stats) = table6::run_with_stats(&settings);
    let table6_wall_s = started.elapsed().as_secs_f64();
    let text = table.render();
    println!("Table 6. Comparison of algorithms (relative to the baseline MCD processor;\nGlobal rows are relative to the fully synchronous processor)\n{text}");
    write_artifact("table6.txt", &text);
    write_bench_json(
        "table6",
        &stats,
        &[
            ("benchmarks", (settings.benchmarks.len() as u64).into()),
            // The suite plan is `wall_seconds`; the Global search runs on
            // its own engine after it, so it is the rest of the call.
            ("table6_wall_s", table6_wall_s.into()),
            (
                "global_s",
                (table6_wall_s - stats.wall_seconds).max(0.0).into(),
            ),
        ],
    );
}
