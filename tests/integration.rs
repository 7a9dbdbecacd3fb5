//! Cross-crate integration tests: full simulations spanning the workload
//! generator, the MCD processor, the power model, the control algorithms
//! and the experiment harness.
//!
//! These tests assert the qualitative claims of the paper that the
//! reproduction must preserve: the baseline MCD processor is only slightly
//! slower than a fully synchronous one; the Attack/Decay algorithm trades a
//! bounded slowdown for substantial energy savings; the off-line oracle is
//! at least competitive with the on-line algorithm; and conventional global
//! voltage scaling yields a power/performance ratio near 2.

use mcd::clock::DomainId;
use mcd::control::AttackDecayParams;
use mcd::core::experiments::{run_suite, table6, traces, ExperimentSettings};
use mcd::core::metrics::{suite_average, Comparison};
use mcd::core::runner::{BenchmarkRunner, ConfigKind};
use mcd::core::{ExperimentEngine, RunPlan};
use mcd::workloads::Benchmark;

fn quick_settings(benchmarks: Vec<Benchmark>) -> ExperimentSettings {
    ExperimentSettings {
        benchmarks,
        instructions: 60_000,
        interval_instructions: 1_000,
        seed: 42,
        global_search_iters: 3,
        jobs: None,
    }
}

#[test]
fn baseline_mcd_inherent_degradation_is_small() {
    // Paper Section 2: the inherent performance degradation of the MCD
    // processor (synchronization penalties only) is a few percent.
    let runner = BenchmarkRunner::new(60_000, 7).with_interval(1_000);
    let mut degradations = Vec::new();
    for bench in [Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Swim] {
        let sync = runner.run(bench, &ConfigKind::FullySynchronous).result;
        let mcd = runner.run(bench, &ConfigKind::BaselineMcd).result;
        let deg = mcd.elapsed_ps as f64 / sync.elapsed_ps as f64 - 1.0;
        assert!(
            deg > -0.02,
            "{}: MCD cannot be meaningfully faster ({deg})",
            bench.name()
        );
        assert!(
            deg < 0.12,
            "{}: inherent MCD degradation too large ({deg})",
            bench.name()
        );
        degradations.push(deg);
        // The MCD configuration also pays extra clock energy.
        assert!(mcd.chip_energy() > sync.chip_energy());
    }
    let avg = degradations.iter().sum::<f64>() / degradations.len() as f64;
    assert!(
        avg < 0.08,
        "average inherent degradation should be small, got {avg}"
    );
}

#[test]
fn attack_decay_saves_energy_with_bounded_slowdown_across_suites() {
    // The headline claim of the paper (Table 6): substantial energy savings
    // for a few percent of performance degradation, relative to the
    // baseline MCD processor.
    let settings = quick_settings(vec![
        Benchmark::Adpcm,
        Benchmark::Epic,
        Benchmark::Gzip,
        Benchmark::Treeadd,
        Benchmark::Swim,
    ]);
    let outcomes = run_suite(&settings);
    let comparisons: Vec<Comparison> = outcomes
        .iter()
        .map(|o| Comparison::vs(&o.attack_decay, &o.baseline_mcd))
        .collect();
    let avg = suite_average(&comparisons);
    // The paper's 19% savings accrue over thousands of 10k-instruction
    // control intervals; this smoke test only spans ~60, so the decay has
    // little room to act.  We require clearly positive savings here and
    // leave the full-scale numbers to the artefact binaries (`MCD_FULL=1`,
    // see the README's "Reproduced artefacts" section).
    assert!(
        avg.energy_savings > 0.01,
        "Attack/Decay should save energy, got {:.3}",
        avg.energy_savings
    );
    assert!(
        avg.perf_degradation < 0.12,
        "Attack/Decay slowdown must stay bounded, got {:.3}",
        avg.perf_degradation
    );
    assert!(
        avg.edp_improvement > 0.0,
        "the energy-delay product must improve on average, got {:.3}",
        avg.edp_improvement
    );
    // The power-savings / performance-degradation ratio must beat the
    // global-scaling figure of ~2 that the paper quotes for conventional
    // DVFS.
    if avg.perf_degradation > 0.01 {
        let ratio = avg.power_savings / avg.perf_degradation;
        assert!(
            ratio > 1.0,
            "per-domain scaling must convert slowdown into power savings, ratio {ratio:.2}"
        );
    }
}

#[test]
fn offline_oracle_is_competitive_with_online_algorithm() {
    // The paper: the off-line Dynamic-1% algorithm achieves somewhat better
    // energy-delay product than the reactive on-line algorithm; Dynamic-5%
    // saves more energy at a higher performance cost.
    let settings = quick_settings(vec![Benchmark::Epic, Benchmark::Gzip, Benchmark::Swim]);
    let outcomes = run_suite(&settings);
    let avg_for = |pick: fn(&mcd::core::experiments::BenchmarkOutcomes) -> &mcd::sim::SimResult| {
        suite_average(
            &outcomes
                .iter()
                .map(|o| Comparison::vs(pick(o), &o.baseline_mcd))
                .collect::<Vec<_>>(),
        )
    };
    let ad = avg_for(|o| &o.attack_decay);
    let d1 = avg_for(|o| &o.dynamic1);
    let d5 = avg_for(|o| &o.dynamic5);
    assert!(
        d1.energy_savings > 0.0,
        "Dynamic-1% must save energy, got {:.3}",
        d1.energy_savings
    );
    assert!(
        d5.energy_savings > 0.0,
        "Dynamic-5% must save energy, got {:.3}",
        d5.energy_savings
    );
    assert!(
        d5.perf_degradation >= d1.perf_degradation - 0.01,
        "the more aggressive oracle costs at least as much performance ({:.3} vs {:.3})",
        d5.perf_degradation,
        d1.perf_degradation
    );
    // The on-line algorithm's savings are reactive and therefore smaller on
    // these short windows, but it must not be drastically worse than the
    // oracle in energy-delay product.
    assert!(
        ad.edp_improvement > d1.edp_improvement - 0.25,
        "Attack/Decay ({:.3}) must stay within reach of Dynamic-1% ({:.3})",
        ad.edp_improvement,
        d1.edp_improvement
    );
}

#[test]
fn global_scaling_power_performance_ratio_is_near_two() {
    // Paper Table 6: conventional global voltage scaling achieves a power
    // savings to performance degradation ratio of about 2 with this
    // frequency/voltage table.
    let settings = ExperimentSettings {
        instructions: 50_000,
        seed: 11,
        ..quick_settings(vec![Benchmark::Adpcm, Benchmark::Gsm])
    };
    let engine = ExperimentEngine::from_settings(&settings);
    let syncs = engine.execute(
        &settings.benchmarks.iter().fold(RunPlan::new(), |plan, &b| {
            plan.job(b, ConfigKind::FullySynchronous)
        }),
    );
    let cells: Vec<_> = syncs
        .iter()
        .map(|s| (s.benchmark, 0.05, &s.result))
        .collect();
    for ((_, scaled), sync) in table6::global_matching(&engine, &cells, 4)
        .0
        .iter()
        .zip(&syncs)
    {
        let cmp = Comparison::vs(&scaled.result, &sync.result);
        // The search matches the slowdown it was asked for.
        assert!(
            (cmp.perf_degradation - 0.05).abs() <= 0.01,
            "{:?}: global scaling slowed down {:.2}%, not 5%",
            sync.benchmark,
            cmp.perf_degradation * 100.0
        );
        let r = cmp.power_savings / cmp.perf_degradation;
        assert!(
            r > 1.0 && r < 3.5,
            "global scaling ratio should sit near 2, got {r:.2}"
        );
    }
}

#[test]
fn epic_decode_fp_domain_tracks_the_phase_structure() {
    // Figures 2 and 3: during epic decode the FP domain frequency rises in
    // the FP bursts and decays in between; the load/store domain frequency
    // moves with LSQ pressure.
    let data = traces::run(150_000, 42);
    assert!(data.points.len() >= 50);
    let (fp_min, fp_max) = data.fp_freq_range();
    assert!(
        fp_max > fp_min + 0.02,
        "FP frequency must move ({fp_min}..{fp_max})"
    );
    assert!(fp_min < 0.99, "FP domain must decay while idle");
    // The FIQ utilisation must show both idle and busy intervals.
    let max_fiq = data
        .points
        .iter()
        .map(|p| p.fiq_utilization)
        .fold(0.0f64, f64::max);
    let min_fiq = data
        .points
        .iter()
        .map(|p| p.fiq_utilization)
        .fold(f64::MAX, f64::min);
    assert!(
        max_fiq > 1.0,
        "the FP bursts must load the FP issue queue, max {max_fiq}"
    );
    assert!(
        min_fiq < 0.5,
        "the FP-idle phases must leave the queue nearly empty, min {min_fiq}"
    );
}

#[test]
fn attack_decay_parks_unused_fp_domain_and_keeps_busy_domains_fast() {
    let runner = BenchmarkRunner::new(80_000, 13).with_interval(1_000);
    // gzip: no floating point at all.
    let gzip = runner.run(
        Benchmark::Gzip,
        &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
    );
    let fp_avg = gzip.result.avg_freq(DomainId::FloatingPoint).unwrap();
    let int_avg = gzip.result.avg_freq(DomainId::Integer).unwrap();
    assert!(
        fp_avg < int_avg,
        "the unused FP domain must end up slower than the integer domain"
    );
    // swim: heavy floating point; its FP domain must stay much faster than
    // gzip's.
    let swim = runner.run(
        Benchmark::Swim,
        &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
    );
    let swim_fp = swim.result.avg_freq(DomainId::FloatingPoint).unwrap();
    assert!(
        swim_fp > fp_avg,
        "swim's FP domain ({swim_fp:.0} MHz) must run faster than gzip's ({fp_avg:.0} MHz)"
    );
}

#[test]
fn runs_are_deterministic_across_identical_invocations() {
    let run = || {
        let runner = BenchmarkRunner::new(30_000, 99).with_interval(1_000);
        let out = runner.run(
            Benchmark::Mcf,
            &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
        );
        (
            out.result.elapsed_ps,
            out.result.frontend_cycles,
            out.result.chip_energy(),
            out.result.memory_accesses,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert!((a.2 - b.2).abs() < 1e-9);
    assert_eq!(a.3, b.3);
}

#[test]
fn table6_quick_reproduction_has_the_paper_ordering() {
    // Reduced-settings smoke reproduction of Table 6's qualitative shape:
    // all three MCD algorithms save energy relative to the baseline MCD
    // processor, and the oracle with the looser target saves the most.
    let settings = quick_settings(vec![Benchmark::Epic, Benchmark::Gzip, Benchmark::Mcf]);
    let rows = table6::mcd_rows(&run_suite(&settings));
    assert_eq!(rows.len(), 3);
    for row in &rows {
        assert!(
            row.energy_savings > 0.0,
            "{} should save energy, got {:.3}",
            row.algorithm,
            row.energy_savings
        );
    }
    let d1 = rows.iter().find(|r| r.algorithm == "Dynamic-1%").unwrap();
    let d5 = rows.iter().find(|r| r.algorithm == "Dynamic-5%").unwrap();
    assert!(
        d5.perf_degradation >= d1.perf_degradation - 0.02,
        "Dynamic-5% accepts more slowdown than Dynamic-1% ({:.3} vs {:.3})",
        d5.perf_degradation,
        d1.perf_degradation
    );
}
