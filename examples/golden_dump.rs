//! Bit-identity harness: dumps every determinism-relevant `SimResult`
//! field (committed instructions, cycles, energy to full precision,
//! per-domain average frequencies and the interval frequency trace) for a
//! grid of benchmark × configuration runs with fixed seeds.
//!
//! Kernel optimizations in this repository are required to leave
//! simulation *behaviour* untouched; capture this output before a change
//! and `diff` it after:
//!
//! ```sh
//! cargo run --release --example golden_dump > before.txt
//! # ... hack on the kernel ...
//! cargo run --release --example golden_dump > after.txt && diff before.txt after.txt
//! ```
//!
//! **Shared-trace mode:** setting `MCD_GOLDEN_TRACE=1` feeds every run a
//! cursor over a materialized [`mcd::workloads::SharedTrace`] instead of
//! the live generator — the replay path the experiment engine's trace
//! cache uses.  The output must be byte-identical to the default mode:
//!
//! ```sh
//! cargo run --release --example golden_dump > live.txt
//! MCD_GOLDEN_TRACE=1 cargo run --release --example golden_dump > traced.txt
//! diff live.txt traced.txt      # any output = trace replay changed behaviour
//! ```
//!
//! **Checked-in baseline:** CI diffs the plain dump against
//! `examples/golden_dump.expected`.  A deliberate change of simulated
//! behaviour re-baselines that file (`cargo run --release --example
//! golden_dump > examples/golden_dump.expected`) in the same commit.

#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use mcd::clock::OperatingPointTable;
use mcd::control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
};
use mcd::sim::{McdProcessor, SimConfig, SimResult};
use mcd::workloads::{Benchmark, SharedTrace, WorkloadGenerator};
use std::sync::Arc;

/// Whether `MCD_GOLDEN_TRACE` selects shared-trace replay.  Anything but
/// `1` or `0` — a non-Unicode value included — aborts instead of counting
/// as unset, so a typo cannot make the trace-vs-live CI diff compare two
/// live dumps.
fn golden_trace() -> bool {
    let Some(value) = std::env::var_os("MCD_GOLDEN_TRACE") else {
        return false;
    };
    match value.to_str() {
        Some("0") => false,
        Some("1") => true,
        _ => panic!("MCD_GOLDEN_TRACE must be 0 or 1, got {value:?}"),
    }
}

/// Runs one golden configuration to completion and prints its result.
fn dump(
    name: &str,
    bench: Benchmark,
    insts: u64,
    cfg: SimConfig,
    controller: Box<dyn FrequencyController>,
) {
    let spec = bench.spec();
    let mut cpu = McdProcessor::new(cfg, controller);
    let r = if golden_trace() {
        let trace = Arc::new(SharedTrace::materialize(&spec, 42, insts));
        cpu.run(trace.cursor())
    } else {
        cpu.run(WorkloadGenerator::new(&spec, 42, insts))
    };
    print_result(name, &r);
}

fn print_result(name: &str, r: &SimResult) {
    println!(
        "{name}: committed={} fe_cycles={} elapsed_ps={} energy={:?} mem={} redirects={} freqs={:?}",
        r.committed_instructions,
        r.frontend_cycles,
        r.elapsed_ps,
        r.chip_energy(),
        r.memory_accesses,
        r.mispredict_redirects,
        r.avg_domain_freq_mhz,
    );
    for iv in &r.intervals {
        println!(
            "  interval {} committed={} ipc={:?} freqs={:?}",
            iv.interval,
            iv.committed,
            iv.ipc,
            iv.domains.iter().map(|d| d.freq_mhz).collect::<Vec<_>>()
        );
    }
}

fn main() {
    for (name, b) in [
        ("gzip", Benchmark::Gzip),
        ("swim", Benchmark::Swim),
        ("mcf", Benchmark::Mcf),
    ] {
        dump(
            name,
            b,
            20_000,
            SimConfig::baseline_mcd(20_000),
            Box::new(FixedController::at_max()),
        );
        dump(
            &format!("{name}_sync"),
            b,
            20_000,
            SimConfig::fully_synchronous(20_000),
            Box::new(FixedController::at_max()),
        );
        let mut cfg = SimConfig::baseline_mcd(60_000);
        cfg.record_traces = true;
        let table = OperatingPointTable::from_params(&cfg.clock);
        let controller = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table);
        dump(&format!("{name}_ad"), b, 60_000, cfg, Box::new(controller));
    }
}
