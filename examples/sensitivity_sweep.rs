//! Sweeps the Attack/Decay `Decay` parameter (paper Figure 6(a)/7(a)) over
//! a small benchmark subset and prints the energy-delay-product improvement
//! and power/performance ratio at each point.
//!
//! ```bash
//! cargo run --release --example sensitivity_sweep
//! ```

use mcd::core::experiments::{sensitivity, ExperimentSettings};
use mcd::workloads::Benchmark;

fn main() {
    let settings = ExperimentSettings::quick()
        .with_benchmarks(vec![Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Swim])
        .with_instructions(40_000);
    let values = [0.0005, 0.00175, 0.0075, 0.02];
    let sweep = sensitivity::run(&settings, &sensitivity::DECAY, &values);
    println!("{}", sweep.render());
}
