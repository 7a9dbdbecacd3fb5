//! Versioned binary snapshots of a paused run.
//!
//! [`snapshot`] serializes a [`PausableRun`] — the complete simulated
//! machine (frontend, in-flight slab, LSQ, domain timelines, clocks and
//! ramps, controller state, telemetry, main-loop state) *and* the
//! instruction-stream cursor — into a self-describing byte container;
//! [`restore`] rebuilds a run that continues bit-identically, on any
//! thread, in any process.  The container's header records the run's
//! *identity* (benchmark, [`ConfigKind`], seed, budgets), so a restore
//! needs nothing but the bytes: the immutable halves of the machine
//! (architectural tables, operating points, the controller's parameters,
//! the workload phase table, a shared trace's contents) are rebuilt
//! deterministically from that identity rather than serialized.
//!
//! **Determinism.**  Snapshot bytes are a pure function of
//! `(identity, cycle)`: no host time, pointers or allocation sizes leak
//! into the encoding (the one host-side counter, `wall_seconds`, is
//! deliberately dropped and restarts from zero after a restore).  The
//! format pin test below freezes both the header encoding and a content
//! hash of one canonical snapshot; any byte-level change to the format
//! must bump [`SNAPSHOT_VERSION`].
//!
//! **Versioning.**  [`SNAPSHOT_VERSION`] covers the container layout
//! *and* every `save`/`load` pair it transitively invokes (the
//! per-component codecs in `mcd-sim`, `mcd-control`, `mcd-clock`,
//! `mcd-workloads`).  Old-version bytes are rejected on load rather than
//! misread.

use std::sync::Arc;

use mcd_clock::OperatingPointTable;
use mcd_control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
    GlobalScalingController, OfflineController, OfflineProfile,
};
use mcd_isa::DynInst;
use mcd_sim::{McdProcessor, SimConfig};
use mcd_workloads::{Benchmark, SharedTrace, WorkloadGenerator};
use serde::codec::{ByteReader, ByteWriter, CodecError, Result as CodecResult};

use crate::cache::TraceCache;
use crate::runner::{ConfigKind, PausableRun, RunStream};

/// The container's leading magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MCDSNAP\0";

/// Version of the snapshot encoding.  Bump on **any** change to the
/// container layout or to a component `save`/`load` pair it invokes;
/// the format pin test fails loudly when bytes drift without a bump.
///
/// History: v2 — retirement wakeups that do not improve a consumer's
/// readiness time are no longer pushed, so the serialized event-traffic
/// counters of `DomainTimeline` diverge from v1 mid-run (a v1 snapshot
/// resumed under v2 would report different telemetry than an unpaused
/// v2 run, breaking the checkpoint bit-identity contract).
/// v3 — each per-domain `Timeline` serializes its monotone lane (the
/// sorted fast-path queue for in-order event pushes) between the
/// overflow list and the ready list, and the event-traffic counters
/// gained `lane_pushes`; v2 bytes place those events in the ring or
/// overflow and lack the counter, so the layouts are incompatible.
/// v4 — each clock's jitter source saves sigma, one PRNG state and the
/// batch cursor instead of its 64 buffered samples; the batch is redrawn
/// on load (the state is the batch's start state while the cursor is
/// inside it).  v3 bytes carry the sample buffer, so the layouts are
/// incompatible.
/// v5 — a clock's jitter source saves sigma and its current PRNG state
/// only: each edge draws one PRNG word, so there is no batch or cursor.
/// v4 bytes carry the cursor, so the layouts are incompatible.
pub const SNAPSHOT_VERSION: u16 = 5;

/// The run identity recorded in a snapshot's header: everything needed
/// to rebuild the immutable halves of the machine before overlaying the
/// serialized mutable state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotHeader {
    /// The benchmark the run executes.
    pub benchmark: Benchmark,
    /// The configuration it runs under.
    pub config: ConfigKind,
    /// Workload/clock seed.
    pub seed: u64,
    /// Committed-instruction budget of the run.
    pub instructions: u64,
    /// Committed instructions per control interval.
    pub interval_instructions: u64,
    /// Whether per-interval traces are recorded.
    pub record_traces: bool,
}

fn save_config(w: &mut ByteWriter, kind: &ConfigKind) {
    match kind {
        ConfigKind::FullySynchronous => w.put_u8(0),
        ConfigKind::BaselineMcd => w.put_u8(1),
        ConfigKind::AttackDecay(p) => {
            w.put_u8(2);
            w.put_f64(p.deviation_threshold);
            w.put_f64(p.reaction_change);
            w.put_f64(p.decay);
            w.put_f64(p.perf_deg_threshold);
            w.put_u32(p.endstop_count);
        }
        ConfigKind::OfflineDynamic { target_degradation } => {
            w.put_u8(3);
            w.put_f64(*target_degradation);
        }
        ConfigKind::GlobalScaling { freq_mhz } => {
            w.put_u8(4);
            w.put_f64(*freq_mhz);
        }
    }
}

/// Decodes a configuration, rejecting parameters its controller's
/// constructor would refuse (corrupt bytes must surface as an error, not
/// as a constructor panic).
fn load_config(r: &mut ByteReader<'_>) -> CodecResult<ConfigKind> {
    let invalid = |what, v: f64| CodecError::BadTag {
        what,
        got: v.to_bits(),
    };
    Ok(match r.u8()? {
        0 => ConfigKind::FullySynchronous,
        1 => ConfigKind::BaselineMcd,
        2 => {
            let params = AttackDecayParams {
                deviation_threshold: r.f64()?,
                reaction_change: r.f64()?,
                decay: r.f64()?,
                perf_deg_threshold: r.f64()?,
                endstop_count: r.u32()?,
            };
            if params.validate().is_err() {
                return Err(invalid("snapshot attack/decay parameters", params.decay));
            }
            ConfigKind::AttackDecay(params)
        }
        3 => {
            let target_degradation = r.f64()?;
            if target_degradation.is_nan() || target_degradation < 0.0 {
                return Err(invalid("snapshot degradation target", target_degradation));
            }
            ConfigKind::OfflineDynamic { target_degradation }
        }
        4 => {
            let freq_mhz = r.f64()?;
            if freq_mhz.is_nan() || freq_mhz <= 0.0 {
                return Err(invalid("snapshot global frequency", freq_mhz));
            }
            ConfigKind::GlobalScaling { freq_mhz }
        }
        got => {
            return Err(CodecError::BadTag {
                what: "snapshot config kind",
                got: u64::from(got),
            })
        }
    })
}

impl SnapshotHeader {
    /// The header of a live run.
    fn of(run: &PausableRun) -> SnapshotHeader {
        let cfg = run.cpu.config();
        SnapshotHeader {
            benchmark: run.benchmark,
            config: run.config.clone(),
            seed: cfg.seed,
            instructions: cfg.max_instructions,
            interval_instructions: cfg.interval_instructions,
            record_traces: cfg.record_traces,
        }
    }

    pub(crate) fn save(&self, w: &mut ByteWriter) {
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u16(SNAPSHOT_VERSION);
        let bench_idx = Benchmark::ALL
            .iter()
            .position(|&b| b == self.benchmark)
            .expect("every benchmark is in Benchmark::ALL");
        w.put_u8(bench_idx as u8);
        save_config(w, &self.config);
        w.put_u64(self.seed);
        w.put_u64(self.instructions);
        w.put_u64(self.interval_instructions);
        w.put_bool(self.record_traces);
    }

    fn load(r: &mut ByteReader<'_>) -> CodecResult<SnapshotHeader> {
        let magic = r.bytes(SNAPSHOT_MAGIC.len())?;
        if magic != SNAPSHOT_MAGIC {
            let mut got = [0u8; 8];
            got.copy_from_slice(magic);
            return Err(CodecError::BadTag {
                what: "snapshot magic",
                got: u64::from_le_bytes(got),
            });
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::BadTag {
                what: "snapshot version",
                got: u64::from(version),
            });
        }
        let bench_idx = r.u8()?;
        if usize::from(bench_idx) >= Benchmark::ALL.len() {
            return Err(CodecError::BadTag {
                what: "snapshot benchmark",
                got: u64::from(bench_idx),
            });
        }
        let header = SnapshotHeader {
            benchmark: Benchmark::ALL[usize::from(bench_idx)],
            config: load_config(r)?,
            seed: r.u64()?,
            instructions: r.u64()?,
            interval_instructions: r.u64()?,
            record_traces: r.bool()?,
        };
        // The constructors `restore` rebuilds from this identity panic on
        // an invalid configuration; corrupt bytes must surface here.
        if header.sim_config().validate().is_err() {
            return Err(CodecError::BadTag {
                what: "snapshot run identity",
                got: header.instructions,
            });
        }
        Ok(header)
    }

    /// Parses just the header of a snapshot, without restoring the run
    /// (used by the bundle verifier to check artefact identity).
    ///
    /// # Errors
    ///
    /// Returns a decode error on truncation, bad magic or a version
    /// mismatch.
    pub fn peek(bytes: &[u8]) -> CodecResult<SnapshotHeader> {
        SnapshotHeader::load(&mut ByteReader::new(bytes))
    }

    /// The base simulator configuration this identity maps to (the same
    /// mapping `BenchmarkRunner::sim_config` applies).
    fn sim_config(&self) -> SimConfig {
        let mut cfg = match self.config {
            ConfigKind::FullySynchronous | ConfigKind::GlobalScaling { .. } => {
                SimConfig::fully_synchronous(self.instructions)
            }
            _ => SimConfig::baseline_mcd(self.instructions),
        };
        cfg.seed = self.seed;
        cfg.record_traces = self.record_traces;
        cfg.interval_instructions = self.interval_instructions;
        cfg
    }

    /// A freshly built controller of the run's kind, with *default*
    /// mutable state; [`McdProcessor::load`] overlays the serialized
    /// state via `FrequencyController::load_state`.  The off-line oracle
    /// starts from an empty profile because its schedule — the only
    /// state `interval_update` consults — rides along in the snapshot.
    fn controller_skeleton(&self) -> Box<dyn FrequencyController> {
        let table = OperatingPointTable::default();
        match &self.config {
            ConfigKind::FullySynchronous | ConfigKind::BaselineMcd => {
                Box::new(FixedController::at_max())
            }
            ConfigKind::AttackDecay(params) => {
                Box::new(AttackDecayController::new(*params, &table))
            }
            ConfigKind::OfflineDynamic { target_degradation } => Box::new(
                OfflineController::from_profile(OfflineProfile::new(), *target_degradation, &table),
            ),
            ConfigKind::GlobalScaling { freq_mhz } => {
                Box::new(GlobalScalingController::new(*freq_mhz))
            }
        }
    }
}

/// Serializes a paused run into a self-describing snapshot.
///
/// The bytes are a pure function of the run's identity and position —
/// snapshotting the same run at the same cycle always yields the same
/// bytes, which is what the bundle verifier's content hashes rely on.
///
/// # Panics
///
/// Panics if the run has already finished: a finished processor holds
/// a consumed result and must not be resumed.
pub fn snapshot(run: &PausableRun) -> Vec<u8> {
    assert!(!run.is_done(), "cannot snapshot a finished run");
    let mut w = ByteWriter::new();
    SnapshotHeader::of(run).save(&mut w);
    match &run.stream {
        RunStream::Live(generator) => {
            w.put_u8(0);
            generator.save(&mut w);
        }
        RunStream::Trace(cursor) => {
            w.put_u8(1);
            w.put_u64(cursor.position());
        }
    }
    w.put_u64(run.trace_bytes);
    run.cpu.save(&mut w);
    w.into_vec()
}

/// Rebuilds a paused run from [`snapshot`] output.  Trace-backed runs
/// re-materialize their stream from the header identity.
///
/// # Errors
///
/// Returns a decode error on truncation, bad magic, a version mismatch
/// or any malformed component.
pub fn restore(bytes: &[u8]) -> CodecResult<PausableRun> {
    restore_with(bytes, None)
}

/// [`restore`], leasing trace-backed streams from `traces` so that many
/// restores of same-workload snapshots share one materialization.
///
/// # Errors
///
/// Returns a decode error on truncation, bad magic, a version mismatch
/// or any malformed component.
pub fn restore_with(bytes: &[u8], traces: Option<&TraceCache>) -> CodecResult<PausableRun> {
    let mut r = ByteReader::new(bytes);
    let header = SnapshotHeader::load(&mut r)?;
    let spec = header.benchmark.spec();
    let (stream, trace_bytes) = match r.u8()? {
        0 => {
            let generator =
                WorkloadGenerator::load(&mut r, &spec, header.seed, header.instructions)?;
            (RunStream::Live(generator), r.u64()?)
        }
        1 => {
            let pos = r.u64()?;
            let trace_bytes = r.u64()?;
            // The recorded trace size bounds the budget it can hold, so a
            // corrupt budget cannot drive a huge materialization.
            if header.instructions > trace_bytes / std::mem::size_of::<DynInst>() as u64 {
                return Err(CodecError::BadTag {
                    what: "snapshot trace size",
                    got: trace_bytes,
                });
            }
            let trace = match traces {
                Some(cache) => cache.lease(&spec, header.seed, header.instructions),
                None => Arc::new(SharedTrace::materialize(
                    &spec,
                    header.seed,
                    header.instructions,
                )),
            };
            let mut cursor = trace.cursor();
            if !cursor.seek(pos) {
                return Err(CodecError::BadTag {
                    what: "snapshot trace position",
                    got: pos,
                });
            }
            (RunStream::Trace(cursor), trace_bytes)
        }
        got => {
            return Err(CodecError::BadTag {
                what: "snapshot stream kind",
                got: u64::from(got),
            })
        }
    };
    let cpu = McdProcessor::load(&mut r, header.sim_config(), header.controller_skeleton())?;
    r.finish()?;
    Ok(PausableRun {
        benchmark: header.benchmark,
        config: header.config,
        cpu,
        stream,
        trace_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::StableHasher;
    use crate::runner::BenchmarkRunner;

    fn canonical_run() -> PausableRun {
        // Trace sharing off: the canonical snapshot must carry the live
        // generator cursor, independent of any cache state.
        let runner = BenchmarkRunner::new(20_000, 42)
            .with_trace_sharing(false)
            .with_result_caching(false);
        runner.begin(
            Benchmark::Gzip,
            &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
        )
    }

    #[test]
    fn snapshot_restore_round_trips_to_the_same_result() {
        let runner = BenchmarkRunner::new(12_000, 42)
            .with_trace_sharing(false)
            .with_result_caching(false);
        let kind = ConfigKind::AttackDecay(AttackDecayParams::paper_defaults());
        let whole = runner.run(Benchmark::Gzip, &kind);

        let mut run = runner.begin(Benchmark::Gzip, &kind);
        assert!(run.step(7_000).is_none(), "run must pause mid-flight");
        let bytes = snapshot(&run);
        drop(run);
        let mut restored = restore(&bytes).expect("snapshot restores");
        let outcome = loop {
            if let Some(o) = restored.step(4_096) {
                break o;
            }
        };
        assert_eq!(outcome.result, whole.result);
    }

    #[test]
    fn trace_backed_snapshot_restores_through_a_shared_cache() {
        let runner = BenchmarkRunner::new(9_000, 7).with_result_caching(false);
        assert!(runner.trace_cache().is_some(), "sharing on by default");
        let whole = runner.run(Benchmark::Swim, &ConfigKind::BaselineMcd);

        let mut run = runner.begin(Benchmark::Swim, &ConfigKind::BaselineMcd);
        assert!(run.step(5_000).is_none());
        let bytes = snapshot(&run);
        drop(run);

        // Restoring against the same cache leases the existing trace.
        let cache = runner.trace_cache().unwrap();
        let before = cache.stats().materializations;
        let mut restored = restore_with(&bytes, Some(cache)).expect("snapshot restores");
        assert_eq!(cache.stats().materializations, before);
        let outcome = loop {
            if let Some(o) = restored.step(4_096) {
                break o;
            }
        };
        assert_eq!(outcome.result, whole.result);
    }

    #[test]
    fn header_peek_reports_the_run_identity() {
        let mut run = canonical_run();
        assert!(run.step(2_000).is_none());
        let bytes = snapshot(&run);
        let header = SnapshotHeader::peek(&bytes).expect("header parses");
        assert_eq!(header.benchmark, Benchmark::Gzip);
        assert_eq!(
            header.config,
            ConfigKind::AttackDecay(AttackDecayParams::paper_defaults())
        );
        assert_eq!(header.seed, 42);
        assert_eq!(header.instructions, 20_000);
        assert_eq!(header.interval_instructions, 10_000);
        assert!(!header.record_traces);
    }

    #[test]
    fn restore_rejects_bad_magic_version_and_truncation() {
        let mut run = canonical_run();
        assert!(run.step(2_000).is_none());
        let good = snapshot(&run);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            restore(&bad_magic),
            Err(CodecError::BadTag {
                what: "snapshot magic",
                ..
            })
        ));

        let mut bad_version = good.clone();
        bad_version[8] = bad_version[8].wrapping_add(1);
        assert!(matches!(
            restore(&bad_version),
            Err(CodecError::BadTag {
                what: "snapshot version",
                ..
            })
        ));

        assert!(restore(&good[..good.len() / 2]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            restore(&trailing),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    /// **Format pin.**  Freezes the canonical snapshot's header bytes and
    /// 128-bit content hash (gzip under Attack/Decay paper defaults,
    /// seed 42, 20 000-instruction budget, paused after 5 000 kernel
    /// steps, live stream).  If this test fails you changed the snapshot
    /// encoding — of the container or of any component codec it invokes.
    /// That is only correct when done deliberately: bump
    /// `SNAPSHOT_VERSION` and re-pin both values here.
    #[test]
    fn snapshot_format_is_pinned() {
        let mut run = canonical_run();
        assert!(run.step(5_000).is_none());
        let bytes = snapshot(&run);

        // Header: magic, version 5, gzip (index 23), Attack/Decay tag.
        let mut expected_header = Vec::new();
        expected_header.extend_from_slice(&SNAPSHOT_MAGIC);
        expected_header.extend_from_slice(&5u16.to_le_bytes());
        expected_header.push(23);
        expected_header.push(2);
        assert_eq!(
            &bytes[..expected_header.len()],
            expected_header.as_slice(),
            "snapshot header encoding changed — bump SNAPSHOT_VERSION and re-pin"
        );

        let mut h = StableHasher::new();
        h.write_raw(&bytes);
        assert_eq!(
            h.finish(),
            0x541a_3a48_d009_78d4_1674_7357_37b5_577c,
            "snapshot content hash changed — the encoding of some component \
             drifted; bump SNAPSHOT_VERSION and re-pin this hash"
        );

        // Same run, same cycle, fresh build: the bytes must be identical
        // (no host state may leak into the encoding).
        let mut again = canonical_run();
        assert!(again.step(5_000).is_none());
        assert_eq!(
            snapshot(&again),
            bytes,
            "snapshot bytes are nondeterministic"
        );
    }
}
