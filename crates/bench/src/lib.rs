//! # mcd-bench
//!
//! Benchmark harness and figure/table regeneration utilities for the MCD
//! DVFS reproduction.
//!
//! Two kinds of targets live in this crate:
//!
//! * **Binaries** (`src/bin/*`) — one per paper artefact.  Each regenerates
//!   the corresponding table or figure and writes both a human-readable
//!   rendering to stdout and a CSV file under `results/`:
//!   `paper_tables`, `table6`, `figure2_3`, `figure4`, `figure5`,
//!   `figure6_7`.
//! * **Criterion benches** (`benches/*`) — one per paper artefact plus a
//!   micro-benchmark suite of the simulator substrates.  Each bench prints
//!   the regenerated rows once (with reduced settings so `cargo bench`
//!   stays tractable) and then measures the cost of the underlying
//!   simulation kernel.
//!
//! Setting the environment variable `MCD_FULL=1` makes the binaries run the
//! full 30-benchmark suite with the longer windows of
//! `ExperimentSettings::paper` (the README's "Reproduced artefacts" section
//! lists the binaries); the default (unset or `0`) is a quick cross-suite
//! subset, and any other value exits with status 2.
#![allow(clippy::disallowed_types, reason = "host-side harness")]
#![allow(clippy::disallowed_methods, reason = "host-side harness")]

use std::path::PathBuf;

use mcd_core::engine::{parse_jobs, EngineStats};
use mcd_core::experiments::ExperimentSettings;

/// Returns the experiment settings selected by the `MCD_FULL` environment
/// variable (see [`full_from_env`]), with the worker count from
/// `--jobs N`, `--jobs=N` or `-j N` on the command line, falling back to
/// the `MCD_JOBS` environment variable and then to the host's
/// parallelism.
///
/// Any other argument, a flag given without a value, or a flag,
/// `MCD_FULL` or `MCD_JOBS` value that does not parse prints the error
/// and exits with status 2: a requested setting must not be silently
/// replaced by the default.
pub fn settings_from_env() -> ExperimentSettings {
    or_exit(settings_from_args(std::env::args(), env_var))
}

/// Whether `MCD_FULL` selects the paper's full suite: unset or `0` runs
/// the quick subset and `1` the full suite.  Any other value prints the
/// error and exits with status 2.
pub fn full_from_env() -> bool {
    or_exit(parse_full(env_var("MCD_FULL")))
}

/// The value of the environment variable `key`, if it is set.  A value
/// that is not valid Unicode comes back lossily converted, so the parser
/// rejects it instead of treating the variable as unset.
fn env_var(key: &str) -> Option<String> {
    std::env::var_os(key).map(|value| value.to_string_lossy().into_owned())
}

/// Parses an `MCD_FULL` value (`None` when unset).
fn parse_full(value: Option<String>) -> Result<bool, String> {
    match value.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("MCD_FULL must be 0 or 1, got {other:?}")),
    }
}

/// Checks the command line of a binary that takes no settings
/// (`figure2_3`, `paper_tables`): any argument prints the error and exits
/// with status 2 instead of being silently ignored.
pub fn reject_args_from_env() {
    or_exit(reject_args(std::env::args()))
}

/// [`reject_args_from_env`] over an explicit argument list (program name
/// first).
fn reject_args(args: impl IntoIterator<Item = String>) -> Result<(), String> {
    match args.into_iter().nth(1) {
        Some(arg) => Err(format!(
            "unknown argument {arg:?} (this binary takes no arguments)"
        )),
        None => Ok(()),
    }
}

/// Unwraps a command-line parse, or prints the error and exits with
/// status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2);
    })
}

/// [`settings_from_env`] over an explicit argument list (program name
/// first) and environment lookup.
fn settings_from_args(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
) -> Result<ExperimentSettings, String> {
    let mut settings = if parse_full(env("MCD_FULL"))? {
        ExperimentSettings::paper()
    } else {
        ExperimentSettings::quick()
    };
    let mut jobs = None;
    let mut args = args.into_iter().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" || arg == "-j" {
            let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
            jobs = Some(parse_jobs(&arg, &value)?);
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            jobs = Some(parse_jobs("--jobs", value)?);
        } else {
            return Err(format!(
                "unknown argument {arg:?} (expected --jobs N, --jobs=N or -j N)"
            ));
        }
    }
    if jobs.is_none() {
        jobs = env("MCD_JOBS")
            .map(|value| parse_jobs("MCD_JOBS", &value))
            .transpose()?;
    }
    if let Some(jobs) = jobs {
        settings = settings.with_jobs(jobs);
    }
    Ok(settings)
}

/// The host's available hardware parallelism, recorded into every
/// `BENCH_*.json` artefact so throughput numbers from different machines
/// (or differently-limited containers) are never compared blind.
pub fn nproc() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Writes the host-throughput artefact of one experiment run
/// (`BENCH_<name>.json` in the results directory): engine statistics plus
/// any experiment-specific extras.  This is what makes simulator-kernel
/// speedups measurable across commits.
pub fn write_bench_json(
    name: &str,
    stats: &EngineStats,
    extras: &[(&str, serde_json::Value)],
) -> PathBuf {
    let mut doc = serde_json::Value::object();
    doc.insert("experiment", name);
    doc.insert("nproc", nproc());
    doc.insert("workers", stats.workers);
    doc.insert("runs", stats.runs);
    doc.insert("shared_jobs", stats.shared_jobs);
    doc.insert("wall_seconds", stats.wall_seconds);
    doc.insert("cumulative_seconds", stats.cumulative_seconds);
    doc.insert(
        "parallel_speedup",
        if stats.wall_seconds > 0.0 {
            stats.cumulative_seconds / stats.wall_seconds
        } else {
            0.0
        },
    );
    doc.insert("simulated_instructions", stats.simulated_instructions);
    doc.insert("aggregate_simulated_mips", stats.aggregate_mips);
    doc.insert("trace_cache_hits", stats.trace_cache_hits);
    doc.insert("trace_materializations", stats.trace_materializations);
    doc.insert("trace_peak_bytes", stats.trace_peak_bytes);
    for (key, value) in extras {
        doc.insert(key, value.clone());
    }
    write_artifact(&format!("BENCH_{name}.json"), &doc.to_string_pretty())
}

/// A reduced settings preset used inside Criterion measurement loops so
/// that a single iteration stays in the tens-of-milliseconds range.
pub fn criterion_settings() -> ExperimentSettings {
    ExperimentSettings::quick()
        .with_benchmarks(vec![
            mcd_workloads::Benchmark::Adpcm,
            mcd_workloads::Benchmark::Gzip,
        ])
        .with_instructions(20_000)
}

/// The directory where the regeneration binaries drop their CSV output
/// (`<workspace>/results`), created on demand.
pub fn results_dir() -> PathBuf {
    let path = std::env::var_os("MCD_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from);
    std::fs::create_dir_all(&path).expect("results directory is writable");
    path
}

/// Writes a text artefact into the results directory and echoes the path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("artifact file is writable");
    println!("[wrote {}]", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// [`settings_from_args`] with an empty environment.
    fn parse(v: &[&str]) -> Result<ExperimentSettings, String> {
        settings_from_args(args(v), |_| None)
    }

    /// [`settings_from_args`] with one environment variable set.
    fn parse_with_env(v: &[&str], key: &str, value: &str) -> Result<ExperimentSettings, String> {
        settings_from_args(args(v), |k| (k == key).then(|| value.to_string()))
    }

    #[test]
    fn quick_settings_are_the_default() {
        let s = parse(&["bin"]).unwrap();
        assert!(s.benchmarks.len() < 30);
        assert!(s.instructions <= 100_000);
        assert_eq!(s.jobs, None);
        let full = parse_with_env(&["bin"], "MCD_FULL", "1").unwrap();
        assert_eq!(full.benchmarks.len(), 30);
        let quick = parse_with_env(&["bin"], "MCD_FULL", "0").unwrap();
        assert_eq!(quick.benchmarks, s.benchmarks);
        // Any other value is an error, never a silent quick run.
        for bad in ["yes", ""] {
            assert_eq!(
                parse_with_env(&["bin"], "MCD_FULL", bad).unwrap_err(),
                format!("MCD_FULL must be 0 or 1, got {bad:?}")
            );
        }
    }

    #[test]
    #[cfg(unix)]
    fn a_non_unicode_setting_is_rejected_not_ignored() {
        use std::os::unix::ffi::OsStrExt;
        let bytes = std::ffi::OsStr::from_bytes(b"\xff");
        std::env::set_var("MCD_BENCH_TEST_NON_UNICODE", bytes);
        assert!(parse_full(env_var("MCD_BENCH_TEST_NON_UNICODE")).is_err());
    }

    #[test]
    fn criterion_settings_are_small() {
        let s = criterion_settings();
        assert_eq!(s.benchmarks.len(), 2);
        assert_eq!(s.instructions, 20_000);
    }

    #[test]
    fn artifacts_are_written_to_disk() {
        std::env::set_var(
            "MCD_RESULTS_DIR",
            std::env::temp_dir().join("mcd-bench-test"),
        );
        let path = write_artifact("unit-test.txt", "hello");
        assert!(path.exists());
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
    }

    #[test]
    fn jobs_flag_parsing() {
        let jobs = |v: &[&str]| parse(v).map(|s| s.jobs);
        assert_eq!(jobs(&["bin", "--jobs", "4"]), Ok(Some(4)));
        assert_eq!(jobs(&["bin", "--jobs=8"]), Ok(Some(8)));
        assert_eq!(jobs(&["bin", "-j", "2"]), Ok(Some(2)));
        assert_eq!(jobs(&["bin"]), Ok(None));
        // A bad or missing value is an error, never a silent fallback.
        assert_eq!(
            jobs(&["bin", "--jobs", "no"]),
            Err("--jobs needs a non-negative integer, got \"no\"".to_string())
        );
        assert!(jobs(&["bin", "--jobs=four"]).is_err());
        assert!(jobs(&["bin", "-j", "-1"]).is_err());
        assert_eq!(
            jobs(&["bin", "--jobs"]),
            Err("--jobs needs a value".to_string())
        );
        // The flag wins over MCD_JOBS, which must parse when it is used.
        let env_jobs = |v: &[&str], value| parse_with_env(v, "MCD_JOBS", value).map(|s| s.jobs);
        assert_eq!(env_jobs(&["bin"], "3"), Ok(Some(3)));
        assert_eq!(env_jobs(&["bin", "-j", "5"], "3"), Ok(Some(5)));
        assert!(env_jobs(&["bin"], "four").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for (bad, named) in [
            (&["bin", "--job", "1"][..], "--job"),
            (&["bin", "--slice-cycles", "5"], "--slice-cycles"),
            (&["bin", "--jobs", "2", "extra"], "extra"),
            (&["bin", "--no-trace-share"], "--no-trace-share"),
        ] {
            let err = parse(bad).expect_err("an unknown argument must not run with defaults");
            assert!(err.contains(&format!("{named:?}")), "{err}");
        }
        assert_eq!(
            parse(&["bin", "--job", "1"]).unwrap_err(),
            "unknown argument \"--job\" (expected --jobs N, --jobs=N or -j N)"
        );
    }

    #[test]
    fn binaries_without_settings_reject_every_argument() {
        assert_eq!(reject_args(args(&["bin"])), Ok(()));
        for bad in [
            &["bin", "--bogus"][..],
            &["bin", "--jobs", "4"],
            &["bin", "-j", "banana"],
            &["bin", "extra"],
        ] {
            let err = reject_args(args(bad)).expect_err("an argument must not be ignored");
            assert!(err.contains(&format!("{:?}", bad[1])), "{err}");
        }
        assert_eq!(
            reject_args(args(&["bin", "--bogus"])).unwrap_err(),
            "unknown argument \"--bogus\" (this binary takes no arguments)"
        );
    }

    #[test]
    fn bench_json_artifact_contains_throughput_fields() {
        std::env::set_var(
            "MCD_RESULTS_DIR",
            std::env::temp_dir().join("mcd-bench-test"),
        );
        let stats = EngineStats {
            workers: 4,
            runs: 15,
            shared_jobs: 7,
            trace_cache_hits: 12,
            trace_materializations: 3,
            trace_peak_bytes: 640_000,
            wall_seconds: 2.0,
            cumulative_seconds: 6.0,
            simulated_instructions: 900_000,
            aggregate_mips: 0.45,
            ..EngineStats::default()
        };
        let path = write_bench_json("unit", &stats, &[("benchmarks", 3u64.into())]);
        let text = std::fs::read_to_string(path).unwrap();
        for needle in [
            "\"experiment\": \"unit\"",
            "\"nproc\":",
            "\"workers\": 4",
            "\"runs\": 15",
            "\"shared_jobs\": 7",
            "\"parallel_speedup\": 3",
            "\"aggregate_simulated_mips\": 0.45",
            "\"trace_cache_hits\": 12",
            "\"trace_materializations\": 3",
            "\"trace_peak_bytes\": 640000",
            "\"benchmarks\": 3",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        for gone in ["gang_", "checkpoint_", "prefix_cycles", "result_cache"] {
            assert!(!text.contains(gone), "stale {gone} key in {text}");
        }
    }
}
