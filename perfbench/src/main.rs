//! `mcd-perfbench`: the repository benchmark.
//!
//! ```text
//! mcd-perfbench --workload <kernel|table6|sweep> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Sets the workload up several times, then runs closed-loop rounds of it
//! for `--seconds`, checks every cell of every round, and prints a
//! human-readable report, a `provenance` line and, last, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! from alternating traced and untraced rounds (`--trace 1`).  See
//! `README.md` beside this package for the workloads and metrics.

mod control;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mcd_core::cache::StableHasher;

use crate::spans::Tracer;
use crate::stats::{valid_metric_name, Summary};
use crate::workloads::{Round, Workload, KERNEL_BENCHMARKS};

const USAGE: &str =
    "usage: mcd-perfbench --workload <kernel|table6|sweep> [--seed N] [--seconds N] [--trace 0|1]";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Each repetition sets the workload up until it has lasted this long and
/// reports the mean, so a set-up of microseconds spans many iterations.
const SETUP_MIN: Duration = Duration::from_millis(50);
/// Rounds per run even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;
/// Directory, relative to the working directory, for span logs.
const SPAN_DIR: &str = ".bench_out";

/// End-to-end metrics with their units, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_mips", "Minst/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Simulated Table 6 fidelity figures (`table6` only).
const FIDELITY: [(&str, &str); 3] = [
    ("dyn1_target_miss_pp", "pp"),
    ("dyn5_target_miss_pp", "pp"),
    ("mcd_over_global_energy_pp", "pp"),
];

/// Per-layer metrics with their units, printed with `--trace 1`.  A
/// workload that does not measure a layer reports its metrics as 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit| metrics.push((name.to_string(), unit));
    push("workloads.materialize_s", "s");
    push("workloads.trace_mib", "MiB");
    push("isa.ann_fed_frac", "frac");
    for (metric, unit) in [
        ("sim.run_s", "s"),
        ("sim.ns_per_inst", "ns"),
        ("sim.ns_per_cycle", "ns"),
        ("sim.cpi", "cycles/inst"),
        ("sim.events_per_commit", "events/inst"),
        ("sim.lane_push_frac", "frac"),
        ("sim.overflow_spill_frac", "frac"),
        ("sim.avg_bucket_scan", "buckets"),
    ] {
        for (_, bench) in KERNEL_BENCHMARKS {
            push(&format!("{metric}.{bench}"), unit);
        }
    }
    for (name, unit) in [
        ("sim.slice_ms.p50", "ms"),
        ("sim.slice_ms.p90", "ms"),
        ("control.updates", "count"),
        ("control.update_us.p50", "us"),
        ("control.update_us.p90", "us"),
        ("control.share", "frac"),
        ("experiments.suite_s", "s"),
        ("experiments.global_s", "s"),
        ("experiments.global_frac", "frac"),
        ("engine.plan_s", "s"),
        ("engine.busy_s", "s"),
        ("engine.utilization", "frac"),
        ("engine.runs", "count"),
        ("engine.cell_s.p50", "s"),
        ("engine.cell_s.p90", "s"),
        ("engine.gang_batches", "count"),
        ("engine.gang_members", "count"),
        ("engine.checkpoint_restores", "count"),
        ("engine.prefix_cycles_saved", "steps"),
        ("cache.result_hit_frac", "frac"),
        ("cache.trace_hit_frac", "frac"),
        ("cache.trace_materializations", "count"),
        ("cache.trace_peak_mib", "MiB"),
        FIDELITY[0],
        FIDELITY[1],
        FIDELITY[2],
        ("trace_overhead_frac", "frac"),
    ] {
        push(name, unit);
    }
    metrics
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = number(&value)?,
            "--seconds" => parsed.seconds = number(&value)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !Workload::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// The first `MCD_*` variable in the environment.  The engine reads its
/// worker count and layer switches from these whenever settings leave
/// them unset, so any of them would change what is measured.
fn mcd_variable() -> Option<String> {
    std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .find(|key| key.starts_with("MCD_"))
}

/// High-water resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON number; non-finite values (never expected) read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn median(values: &[f64]) -> f64 {
    stats::quantile(values, 0.5).unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mcd-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = mcd_variable() {
        eprintln!(
            "mcd-perfbench: {var} is set; unset every MCD_* variable so no worker count \
             or layer switch leaks into the measurement"
        );
        return ExitCode::from(2);
    }
    run(&args);
    ExitCode::SUCCESS
}

fn run(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::default()
    };
    let untraced = Tracer::default();

    // Set-up, repeated; the last one is kept.
    let mut setup_s = Vec::new();
    let mut setup_layer = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let (mut count, mut spent) = (0u32, Duration::ZERO);
        while count == 0 || spent < SETUP_MIN {
            drop(workload.take());
            let started = Instant::now();
            let (w, layer) = Workload::setup(&args.workload, args.seed, nproc, &tracer)
                .expect("workload name was validated");
            spent += started.elapsed();
            count += 1;
            setup_layer.push(layer);
            workload = Some(w);
        }
        setup_s.push(spent.as_secs_f64() / f64::from(count));
    }
    let mut workload = workload.expect("at least one set-up ran");

    // Timed phase: closed-loop rounds; with tracing, even rounds trace.
    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { 2 } else { MIN_ROUNDS };
    let timed = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss = 0.0;
    while rounds.len() < min_rounds || timed.elapsed() < budget {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        rounds.push(workload.round(if traced { &tracer } else { &untraced }));
        if rounds.len() == 1 {
            // The peak of set-up plus one submission of the workload; later
            // rounds only repeat it for timing.
            peak_rss = peak_rss_mib();
        }
    }

    // Correctness: every cell of every round must match the reference.
    let reference = workload.reference(&rounds[0]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for round in &rounds {
        for (cell, want) in round.cells.iter().zip(&reference) {
            attempted += 1;
            if cell.is_none() || cell != want {
                failed += 1;
            }
        }
    }
    let mut digest = StableHasher::new();
    for cell in &reference {
        let d = cell.unwrap_or(0);
        digest.write_u64((d >> 64) as u64);
        digest.write_u64(d as u64);
    }
    let fail_frac = failed as f64 / attempted.max(1) as f64;

    // Samples per metric.
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let walls = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect()
    };
    samples.insert("wall_s".into(), walls(false));
    samples.insert(
        "sim_mips".into(),
        rounds
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.instructions as f64 / r.wall_s / 1e6)
            .collect(),
    );
    samples.insert("setup_s".into(), setup_s);
    samples.insert("peak_rss_mib".into(), vec![peak_rss]);
    for layer in setup_layer.iter().chain(rounds.iter().map(|r| &r.layer)) {
        for (name, &value) in layer {
            samples.entry(name.clone()).or_default().push(value);
        }
    }
    if args.trace {
        let overhead = median(&walls(true)) / median(&walls(false)) - 1.0;
        samples.insert("trace_overhead_frac".into(), vec![overhead]);
    }
    let summaries: BTreeMap<&str, Summary> = samples
        .iter()
        .filter_map(|(name, values)| Some((name.as_str(), Summary::of(values)?)))
        .collect();

    let emitted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    };
    assert!(emitted.iter().all(|(name, _)| valid_metric_name(name)));
    let value = |name: &str| summaries.get(name).map_or(0.0, |s| s.median);

    // Human-readable report.
    println!(
        "workload {}  seed {}  trace {}  nproc {nproc}  workers {}  rounds {}  setups {SETUP_REPEATS}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        workload.workers(),
        rounds.len()
    );
    let shown = emitted.iter().map(|(n, u)| (n.as_str(), *u));
    let fidelity = FIDELITY
        .iter()
        .copied()
        .filter(|(n, _)| !args.trace && summaries.contains_key(n));
    for (name, unit) in shown.chain(fidelity) {
        match summaries.get(name) {
            Some(s) => println!(
                "  {name:<32} {:>14} {unit:<12} median of {}  [q1 {}, q3 {}{}]",
                num(s.median),
                s.n,
                num(s.q1),
                num(s.q3),
                s.tail.map_or(String::new(), |(p, v)| format!(
                    ", p{:.0} {}",
                    p * 100.0,
                    num(v)
                ))
            ),
            None => println!(
                "  {name:<32} {:>14} {unit:<12} (not measured on this workload)",
                0
            ),
        }
    }
    println!(
        "  {:<32} {:>14} {:<12} {failed} of {attempted} cells",
        "fail_frac",
        num(fail_frac),
        "frac"
    );
    println!("  {:<32} {:#034x}", "result_digest", digest.finish());

    // Provenance: how every number was measured.
    let metric_json: Vec<String> = summaries
        .iter()
        .map(|(name, s)| {
            let tail = s.tail.map_or(String::new(), |(p, v)| {
                format!(", \"tail_p\": {}, \"tail\": {}", num(p), num(v))
            });
            format!(
                "\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}{tail}}}",
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            )
        })
        .collect();
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \
         \"workers\": {}, \"rounds\": {}, \"setups\": {SETUP_REPEATS}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"fail_frac\": {}, \"result_digest\": \"{:#034x}\", \"metrics\": {{{}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        workload.workers(),
        rounds.len(),
        num(fail_frac),
        digest.finish(),
        metric_json.join(", ")
    );

    if tracer.is_on() {
        write_spans(&tracer, args);
    }

    let metrics: Vec<String> = emitted
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
}

/// Writes the span log, one JSON object per line.
fn write_spans(tracer: &Tracer, args: &Args) {
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(SPAN_DIR)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in tracer.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    };
    match write() {
        Ok(()) => eprintln!("mcd-perfbench: spans written to {path}"),
        Err(e) => eprintln!("mcd-perfbench: could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.iter().all(|n| valid_metric_name(n)), "{names:?}");
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric names");
    }

    #[test]
    fn the_manifest_lists_exactly_the_emitted_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        let listed = manifest.matches("\"name\":").count();
        let workloads = Workload::NAMES.len();
        let metrics: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        assert_eq!(listed, workloads + metrics.len());
        for (name, unit) in metrics {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in Workload::NAMES {
            assert!(manifest.contains(&format!("\"name\": \"{name}\", \"why\"")));
        }
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args = parse_args(strings(&["--workload", "sweep"])).unwrap();
        assert_eq!(
            args,
            Args {
                workload: "sweep".into(),
                seed: 42,
                seconds: 10,
                trace: false
            }
        );
        let args = parse_args(strings(&[
            "--workload",
            "kernel",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        assert!(parse_args(strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(strings(&["--workload", "kernel", "--trace", "2"])).is_err());
        assert!(parse_args(strings(&["--workload", "kernel", "--seed"])).is_err());
        assert!(parse_args(strings(&[])).is_err());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
