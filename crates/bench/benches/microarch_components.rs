//! Micro-benchmarks of the simulator substrates: clock edges, branch
//! prediction, cache lookups, issue-queue management, the Attack/Decay
//! control step and workload generation.  These quantify where the simulator spends its time
//! and act as performance-regression guards for the building blocks.
// The criterion_group! expansion is undocumented generated code.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcd_clock::{DomainClock, DomainId, OperatingPointTable, SyncWindow};
use mcd_control::{
    AttackDecayController, AttackDecayParams, DomainSample, FrequencyController, IntervalSample,
};
use mcd_isa::{InstructionStream, OpClass};
use mcd_microarch::{BranchPredictor, Cache, CacheConfig, IssueQueue};
use mcd_sim::{McdProcessor, SimConfig};
use mcd_workloads::{Benchmark, SharedTrace, WorkloadGenerator};

/// End-to-end simulation kernel throughput: one full `McdProcessor::run`
/// over a fixed instruction window.  This is the number the event-queue /
/// slab kernel refactor is measured against (ISSUE 1 acceptance
/// criterion), and the dominant cost of every experiment in `mcd-core`.
///
/// The `_traced` variants replay a pre-materialized [`SharedTrace`], so
/// the frontend dispatches from the precomputed annotation sidecar
/// instead of re-deriving producers from the rename map — the A/B pair
/// quantifies the annotation-fed dispatch win (trace build cost is paid
/// once outside the measurement loop, as it is in the engine).
fn bench_processor_kernel(c: &mut Criterion) {
    let run = |bench: Benchmark, insts: u64| {
        let stream = WorkloadGenerator::new(&bench.spec(), 42, insts);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(insts),
            Box::new(mcd_control::FixedController::at_max()),
        );
        cpu.run(stream)
    };
    c.bench_function("processor_run_gzip_20k", |b| {
        b.iter(|| black_box(run(Benchmark::Gzip, 20_000)))
    });
    c.bench_function("processor_run_swim_20k", |b| {
        b.iter(|| black_box(run(Benchmark::Swim, 20_000)))
    });
    c.bench_function("processor_run_mcf_20k", |b| {
        b.iter(|| black_box(run(Benchmark::Mcf, 20_000)))
    });
    for (bench, name) in [
        (Benchmark::Gzip, "processor_run_gzip_20k_traced"),
        (Benchmark::Swim, "processor_run_swim_20k_traced"),
    ] {
        let trace = std::sync::Arc::new(SharedTrace::materialize(&bench.spec(), 42, 20_000));
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut cpu = McdProcessor::new(
                    SimConfig::baseline_mcd(20_000),
                    Box::new(mcd_control::FixedController::at_max()),
                );
                black_box(cpu.run(trace.cursor()))
            })
        });
    }
}

/// Per-edge cost of a domain clock: 64k `advance` calls on a settled
/// 1 GHz clock, with the paper's 110 ps jitter and without.  The gap is
/// the jitter draw's cost per edge.
fn bench_clock_edges(c: &mut Criterion) {
    for (name, sigma_ps) in [
        ("clock_edges_jittered_64k", 110.0),
        ("clock_edges_unjittered_64k", 0.0),
    ] {
        let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, sigma_ps, 42);
        c.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..65_536 {
                    clk.advance();
                }
                black_box(clk.next_edge_ps())
            })
        });
    }
}

fn bench_branch_predictor(c: &mut Criterion) {
    c.bench_function("bpred_predict_update_1k", |b| {
        let mut bp = BranchPredictor::default();
        b.iter(|| {
            for i in 0..1_000u64 {
                let pc = 0x4000 + (i % 64) * 4;
                let pred = bp.predict(pc, OpClass::BranchCond);
                bp.update(pc, OpClass::BranchCond, pred, i % 3 != 0, pc + 64);
            }
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("l1d_access_1k", |b| {
        let mut cache = Cache::new(CacheConfig::l1_64k_2way());
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..1_000 {
                addr = (addr + 8) % (128 * 1024);
                black_box(cache.access(addr, false));
            }
        })
    });
}

fn bench_issue_queue(c: &mut Criterion) {
    c.bench_function("issue_queue_churn_1k", |b| {
        b.iter(|| {
            let mut q = IssueQueue::new(20);
            for i in 0..1_000u64 {
                let _ = q.insert(i);
                q.accumulate_occupancy();
                if i >= 19 {
                    q.remove(i - 19);
                }
            }
            q.take_average_occupancy()
        })
    });
}

fn bench_attack_decay_step(c: &mut Criterion) {
    c.bench_function("attack_decay_interval_update_1k", |b| {
        let table = OperatingPointTable::default();
        let mut ctrl = AttackDecayController::new(AttackDecayParams::paper_defaults(), &table);
        let mk = |domain, util| DomainSample {
            domain,
            queue_utilization: util,
            domain_cycles: 10_000,
            busy_cycles: 5_000,
            issued_instructions: 8_000,
            freq_mhz: 1_000.0,
        };
        b.iter(|| {
            for i in 0..1_000u64 {
                let util = 4.0 + (i % 7) as f64;
                let sample = IntervalSample {
                    interval: i,
                    instructions: 10_000,
                    frontend_cycles: 12_000,
                    ipc: 0.8,
                    domains: vec![
                        mk(DomainId::Integer, util),
                        mk(DomainId::FloatingPoint, util / 4.0),
                        mk(DomainId::LoadStore, util * 2.0),
                    ],
                };
                black_box(ctrl.interval_update(&sample));
            }
        })
    });
}

fn bench_sync_window(c: &mut Criterion) {
    c.bench_function("sync_window_capture_1k", |b| {
        let sync = SyncWindow::default();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1_000u64 {
                acc += sync.capture_time(i * 37, i * 41 % 5_000, 1_000 + (i % 3) * 333);
            }
            acc
        })
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("workload_generate_10k_insts", |b| {
        let spec = Benchmark::Epic.spec();
        b.iter(|| {
            let mut generator = WorkloadGenerator::new(&spec, 42, 10_000);
            let mut count = 0u64;
            while generator.next_inst().is_some() {
                count += 1;
            }
            count
        })
    });
}

/// Exports the measurements accumulated by the preceding benches as a
/// machine-readable artefact (`results/BENCH_kernel_micro.json`), so the
/// CI bench-smoke job can archive the kernel-throughput trajectory per
/// commit.  Must be registered last in the criterion group: it drains the
/// result accumulator.
///
/// Alongside the timings, one instrumented run per kernel-bench workload
/// records the event-timeline traffic counters (pushes, pops, drain
/// passes, monotone-lane absorptions — see `mcd_sim::EventTrafficStats`),
/// the derived events-per-commit ratio, the dispatch-path counters
/// (`ann_fed` from an annotation-fed trace replay, `ann_recomputed` from
/// the live run), and the kernel-step counters (steps per commit, the
/// idle-step share, and the steps and catch-ups of the quiet-time
/// catch-up), making the lane's structural event-traffic cut, the
/// annotation coverage, the idle-step floor and the catch-up's coverage
/// measurable per workload per commit.
fn export_results(c: &mut Criterion) {
    let results = c.take_results();
    if results.is_empty() {
        return;
    }
    let mut doc = serde_json::Value::object();
    doc.insert("experiment", "kernel_micro");
    doc.insert("nproc", mcd_bench::nproc());
    let rows: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            let mut row = serde_json::Value::object();
            row.insert("id", r.id.as_str());
            row.insert("ns_per_iter", r.ns_per_iter());
            row.insert("iterations", r.iterations);
            row
        })
        .collect();
    doc.insert("benches", rows);
    let traffic: Vec<serde_json::Value> = [
        (Benchmark::Gzip, "gzip"),
        (Benchmark::Swim, "swim"),
        (Benchmark::Mcf, "mcf"),
    ]
    .iter()
    .map(|&(bench, name)| {
        let spec = bench.spec();
        let stream = WorkloadGenerator::new(&spec, 42, 20_000);
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(20_000),
            Box::new(mcd_control::FixedController::at_max()),
        );
        let live = cpu.run(stream);
        let events = &live.host.events;
        // A second, annotation-fed run of the same workload: bit-identical
        // by contract, but its dispatch comes from the trace sidecar, so
        // its `ann_fed` counter reports annotation coverage.
        let trace = std::sync::Arc::new(SharedTrace::materialize(&spec, 42, 20_000));
        let mut cpu = McdProcessor::new(
            SimConfig::baseline_mcd(20_000),
            Box::new(mcd_control::FixedController::at_max()),
        );
        let traced = cpu.run(trace.cursor());
        assert!(traced == live, "trace replay diverged in the bench export");
        let mut row = serde_json::Value::object();
        row.insert("workload", name);
        row.insert("timeline_pushes", events.pushes);
        row.insert("timeline_pops", events.pops);
        row.insert("lane_pushes", events.lane_pushes);
        row.insert("drain_passes", events.drains);
        row.insert("events_per_commit", live.events_per_commit());
        row.insert("ann_fed", traced.host.ann_fed);
        row.insert("ann_recomputed", live.host.ann_recomputed);
        row.insert("steps_per_commit", live.steps_per_commit());
        row.insert("idle_step_fraction", live.host.idle_step_fraction());
        row.insert("skipped_steps", live.host.skipped_steps.iter().sum::<u64>());
        row.insert("skipped_step_fraction", live.host.skipped_step_fraction());
        row.insert("quiet_skips", live.host.quiet_skips);
        row
    })
    .collect();
    doc.insert("event_traffic", traffic);
    mcd_bench::write_artifact("BENCH_kernel_micro.json", &doc.to_string_pretty());
}

criterion_group!(
    benches,
    bench_processor_kernel,
    bench_clock_edges,
    bench_branch_predictor,
    bench_cache,
    bench_issue_queue,
    bench_attack_decay_step,
    bench_sync_window,
    bench_workload_generation,
    export_results
);
criterion_main!(benches);
