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
//! **Sliced mode:** setting `MCD_GOLDEN_SLICE=<kernel steps>` executes
//! every run through repeated `run_for` pauses of that length instead of
//! one unbounded `run`.  The output must be byte-identical to the default
//! mode — this is how the golden matrix also certifies pause/resume
//! bit-identity:
//!
//! ```sh
//! cargo run --release --example golden_dump > unsliced.txt
//! MCD_GOLDEN_SLICE=10000 cargo run --release --example golden_dump > sliced.txt
//! diff unsliced.txt sliced.txt      # any output = slicing changed behaviour
//! ```
//!
//! **Shared-trace mode:** setting `MCD_GOLDEN_TRACE=1` feeds every run a
//! cursor over a materialized [`mcd::workloads::SharedTrace`] instead of
//! the live generator — the replay path the experiment engine's trace
//! cache uses.  The output must again be byte-identical, alone and
//! combined with `MCD_GOLDEN_SLICE`:
//!
//! ```sh
//! MCD_GOLDEN_TRACE=1 cargo run --release --example golden_dump > traced.txt
//! diff unsliced.txt traced.txt      # any output = trace replay changed behaviour
//! ```

use mcd::clock::OperatingPointTable;
use mcd::control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
};
use mcd::isa::InstructionStream;
use mcd::sim::{McdProcessor, SimConfig, SimResult, StepOutcome};
use mcd::workloads::{Benchmark, SharedTrace, WorkloadGenerator};
use std::sync::Arc;

/// The slice length selected by `MCD_GOLDEN_SLICE`, if any.  An invalid
/// or zero value aborts instead of silently falling back to the unsliced
/// mode — otherwise a typo would make the sliced-vs-unsliced CI diff
/// compare two unsliced dumps and certify pause/resume vacuously.
fn golden_slice() -> Option<u64> {
    let value = std::env::var("MCD_GOLDEN_SLICE").ok()?;
    let steps: u64 = value
        .parse()
        .unwrap_or_else(|_| panic!("MCD_GOLDEN_SLICE must be a positive integer, got {value:?}"));
    assert!(steps > 0, "MCD_GOLDEN_SLICE must be positive, got 0");
    Some(steps)
}

/// Whether `MCD_GOLDEN_TRACE` selects shared-trace replay.  Like
/// [`golden_slice`], anything but `1` or `0` aborts so a typo cannot make
/// the trace-vs-live CI diff compare two live dumps.
fn golden_trace() -> bool {
    match std::env::var("MCD_GOLDEN_TRACE") {
        Err(_) => false,
        Ok(v) if v == "0" => false,
        Ok(v) if v == "1" => true,
        Ok(v) => panic!("MCD_GOLDEN_TRACE must be 0 or 1, got {v:?}"),
    }
}

fn run_to_completion<S: InstructionStream>(cpu: &mut McdProcessor, mut stream: S) -> SimResult {
    match golden_slice() {
        None => cpu.run(stream),
        Some(slice) => loop {
            if let StepOutcome::Finished(r) = cpu.run_for(&mut stream, slice) {
                break r;
            }
        },
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
        run_to_completion(&mut cpu, trace.cursor())
    } else {
        run_to_completion(&mut cpu, WorkloadGenerator::new(&spec, 42, insts))
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
