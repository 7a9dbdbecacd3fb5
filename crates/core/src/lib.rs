//! # mcd-core
//!
//! Experiment harness for the reproduction of *"Dynamic Frequency and
//! Voltage Control for a Multiple Clock Domain Microarchitecture"*
//! (Semeraro et al., MICRO 2002).
//!
//! The crate ties the substrates of the workspace together into the
//! evaluation flow of the paper:
//!
//! * [`engine`] — the parallel experiment engine: deterministic
//!   `(benchmark, configuration)` run plans executed across scoped worker
//!   threads with a shared profile cache and explicit profiling
//!   prerequisite jobs.
//! * [`runner`] — runs one benchmark under one configuration
//!   (fully synchronous, baseline MCD, Attack/Decay, off-line Dynamic-N%,
//!   global voltage scaling), including the two-pass profiling required by
//!   the off-line oracle.
//! * [`cache`] — the per-benchmark shared-trace cache and the stable
//!   hash behind the result digests.
//! * [`bundle`] — [`bundle::result_digest`], a stable digest of a run's
//!   simulated outcome.
//! * [`metrics`] — the paper's metrics: performance degradation, energy
//!   savings, energy-delay-product improvement and the power-savings to
//!   performance-degradation ratio, plus suite averaging.
//! * [`experiments`] — one entry point per paper table/figure: Table 6
//!   (with the search for the global frequency that matches a target
//!   performance degradation), Figure 4(a–c), the Figure 2/3
//!   `epic decode` traces, the Figure 5/6/7 sensitivity sweeps, and
//!   [`experiments::reproduce`], Table 6 and Figures 4–7 from one plan.
//! * [`presets`] — the Table 1 and Table 4 parameter presets and their
//!   pretty-printed forms.
//! * [`report`] — plain-text table and CSV rendering used by the `mcd-bench`
//!   binaries and the examples.
//!
//! ```no_run
//! use mcd_core::experiments::{table6, ExperimentSettings};
//!
//! let settings = ExperimentSettings::quick();
//! let table = table6::run(&settings);
//! println!("{}", table.render());
//! ```

pub mod bundle;
pub mod cache;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod presets;
pub mod report;
pub mod runner;

pub use cache::{TraceCache, TraceCacheStats};
pub use engine::{
    admission_priority, jobs_from_env, parse_jobs, worker_count, EngineStats, ExperimentEngine,
    JobSpec, RunPlan,
};
pub use experiments::ExperimentSettings;
pub use metrics::{suite_average, Comparison, RunMetrics};
pub use runner::{BenchmarkRunner, ConfigKind, RunOutcome};
