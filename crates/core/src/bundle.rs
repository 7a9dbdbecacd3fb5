//! A stable digest of a run's simulated outcome.
//!
//! [`result_digest`] folds every field that `SimResult`'s `PartialEq`
//! compares into the workspace's [`StableHasher`] (seeded with
//! [`KEY_VERSION`]), so two runs digest equal exactly when their results
//! compare equal.  The benchmark package (`perfbench/`) prints it to show
//! that a change left simulated behaviour alone, and imports it from this
//! path.
//!
//! [`KEY_VERSION`]: crate::cache::KEY_VERSION

use mcd_sim::SimResult;

use crate::cache::StableHasher;

/// Digest of the simulated outcome: every field `SimResult`'s
/// `PartialEq` compares, folded in a fixed order.  Host telemetry is
/// excluded exactly like it is from equality, so a run on a
/// different (or slower) host digests identically.
pub fn result_digest(r: &SimResult) -> u128 {
    let mut h = StableHasher::new();
    h.write_u64(r.committed_instructions);
    h.write_u64(r.frontend_cycles);
    h.write_u64(r.elapsed_ps);
    h.write_f64(r.energy.total);
    h.write_usize(r.energy.by_structure.len());
    for &(_, e) in &r.energy.by_structure {
        h.write_f64(e);
    }
    h.write_usize(r.energy.by_domain.len());
    for &(d, e) in &r.energy.by_domain {
        h.write_usize(d.index());
        h.write_f64(e);
    }
    h.write_f64(r.energy.clock);
    h.write_f64(r.energy.idle);
    h.write_u64(r.branch_stats.direction_predictions);
    h.write_u64(r.branch_stats.direction_mispredictions);
    h.write_u64(r.branch_stats.target_misses);
    for c in [&r.l1i_stats, &r.l1d_stats, &r.l2_stats] {
        h.write_u64(c.reads);
        h.write_u64(c.writes);
        h.write_u64(c.misses);
        h.write_u64(c.writebacks);
    }
    h.write_u64(r.memory_accesses);
    h.write_u64(r.mispredict_redirects);
    h.write_usize(r.intervals.len());
    for sample in &r.intervals {
        h.write_u64(sample.interval);
        h.write_u64(sample.instructions);
        h.write_u64(sample.frontend_cycles);
        h.write_f64(sample.ipc);
        h.write_usize(sample.domains.len());
        for d in &sample.domains {
            h.write_usize(d.domain.index());
            h.write_f64(d.queue_utilization);
            h.write_u64(d.domain_cycles);
            h.write_u64(d.busy_cycles);
            h.write_u64(d.issued_instructions);
            h.write_f64(d.freq_mhz);
        }
    }
    h.write_usize(r.avg_domain_freq_mhz.len());
    for &(d, mhz) in &r.avg_domain_freq_mhz {
        h.write_usize(d.index());
        h.write_f64(mhz);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{BenchmarkRunner, ConfigKind};
    use mcd_workloads::Benchmark;

    #[test]
    fn the_digest_follows_result_equality_not_host_telemetry() {
        let runner = BenchmarkRunner::new(4_000, 3).with_interval(1_000);
        let a = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd).result;
        let mut b = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd).result;
        b.host.wall_seconds += 1.0;
        assert_eq!(a, b);
        assert_eq!(result_digest(&a), result_digest(&b));
        b.elapsed_ps += 1;
        assert_ne!(result_digest(&a), result_digest(&b));
    }
}
