//! Regenerates Figures 2 and 3: the `epic decode` load/store and
//! floating-point domain traces under the Attack/Decay controller.

use mcd_bench::{reject_args_from_env, write_artifact};
use mcd_core::experiments::traces;

fn main() {
    reject_args_from_env();
    let full = std::env::var("MCD_FULL").map(|v| v == "1").unwrap_or(false);
    let instructions = if full { 600_000 } else { 150_000 };
    let data = traces::run(instructions, 42);
    let csv = data.to_csv();
    let (fp_min, fp_max) = data.fp_freq_range();
    println!(
        "Figure 2/3: epic decode traces over {} intervals (FP domain frequency range {:.2}-{:.2} GHz)",
        data.points.len(),
        fp_min,
        fp_max
    );
    println!("{csv}");
    write_artifact("figure2_3.csv", &csv);
}
