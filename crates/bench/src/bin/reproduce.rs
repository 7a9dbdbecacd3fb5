//! Regenerates Table 6 and Figures 4–7 from one plan on one engine (see
//! `experiments::reproduce`), writing `table6.txt`, `figure4.txt`,
//! `figure5.txt`, `figure6_7.txt` and `BENCH_reproduce.json` (per-phase
//! wall, simulations, shared jobs and utilization, and the process's peak
//! RSS).
//!
//! Run with `MCD_FULL=1` for the full 30-benchmark suite and sweeps.
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use std::time::Instant;

use mcd_bench::{full_from_env, peak_rss_mib, settings_from_env, write_artifact, write_bench_json};
use mcd_core::engine::EngineStats;
use mcd_core::experiments;
use serde_json::Value;

/// One phase's wall time, simulations, shared jobs and scheduler
/// utilization (busy worker time over wall time times workers) over its
/// plans.
fn phase(plans: &[EngineStats]) -> Value {
    let wall_s: f64 = plans.iter().map(|p| p.wall_seconds).sum();
    let busy_s: f64 = plans.iter().map(|p| p.cumulative_seconds).sum();
    let workers = plans.first().map_or(0, |p| p.workers) as f64;
    let mut doc = Value::object();
    doc.insert("wall_s", wall_s);
    doc.insert("runs", plans.iter().map(|p| p.runs).sum::<usize>());
    let shared_jobs: usize = plans.iter().map(|p| p.shared_jobs).sum();
    doc.insert("shared_jobs", shared_jobs);
    let capacity = wall_s * workers;
    doc.insert(
        "utilization",
        if capacity > 0.0 {
            busy_s / capacity
        } else {
            0.0
        },
    );
    doc
}

fn main() {
    let settings = settings_from_env();
    let full = full_from_env();
    eprintln!(
        "Reproducing Table 6 and Figures 4-7 on {} workers ...",
        settings.workers()
    );
    let started = Instant::now();
    let pass = experiments::reproduce(&settings, full);
    let written = Instant::now();
    for (name, text) in &pass.artefacts {
        println!("{name}\n{text}");
        write_artifact(&format!("{name}.txt"), text);
    }
    let mut extras = vec![
        ("benchmarks", (settings.benchmarks.len() as u64).into()),
        ("plan", phase(&[pass.plan_stats])),
        ("global", phase(&pass.global_stats)),
        ("render_write_s", written.elapsed().as_secs_f64().into()),
        ("reproduce_wall_s", started.elapsed().as_secs_f64().into()),
    ];
    if let Some(mib) = peak_rss_mib() {
        extras.push(("peak_rss_mib", mib.into()));
    }
    write_bench_json("reproduce", &pass.plan_stats, &extras);
}
