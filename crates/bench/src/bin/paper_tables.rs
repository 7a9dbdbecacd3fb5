//! Regenerates the static tables of the paper (Tables 1-5): configuration
//! parameters, Attack/Decay parameter ranges, the hardware-cost estimate,
//! the architectural parameters and the benchmark inventory.

use mcd_bench::{reject_args_from_env, write_artifact};
use mcd_core::presets;

fn main() {
    reject_args_from_env();
    let mut out = String::new();
    out.push_str(&presets::render_table1());
    out.push('\n');
    out.push_str(&presets::render_table2());
    out.push('\n');
    out.push_str(&presets::render_table3());
    out.push('\n');
    out.push_str(&presets::render_table4());
    out.push('\n');
    out.push_str(&presets::render_table5());
    println!("{out}");
    write_artifact("paper_tables.txt", &out);
}
