//! Verifiable run bundles: a directory artefact that makes a simulation
//! run independently re-checkable.
//!
//! A bundle captures one run end to end: the run's *identity* (the
//! snapshot-header encoding of benchmark, configuration, seed and
//! budgets), a chain of mid-run snapshots, and a digest of the final
//! [`SimResult`] — every artefact content-hashed into a manifest.
//! [`write_bundle`] produces the directory; [`replay_verify`] proves it:
//! the manifest versions must match this build, every artefact must hash
//! to its manifest entry, and every snapshot in the chain must restore
//! and re-run its tail to the *same* final result digest.  A bundle that
//! verifies is a portable witness that the recorded result is what this
//! simulator produces for that identity — from any of the recorded
//! resume points, not just from scratch.
//!
//! The manifest is deliberately plain text (one `artifact <name> <hash>`
//! line per file) so a human can diff two bundles; the hashes are the
//! workspace's stable 128-bit FNV ([`StableHasher`]), seeded with
//! [`KEY_VERSION`] like every other content hash in the harness.
//!
//! [`SimResult`]: mcd_sim::SimResult

use std::fmt;
use std::fs;
use std::path::Path;

use mcd_sim::SimResult;
use serde::codec::{ByteReader, ByteWriter, CodecError};

use crate::cache::{StableHasher, KEY_VERSION};
use crate::runner::{BenchmarkRunner, ConfigKind, RunOutcome};
use crate::snapshot::{restore, snapshot, SnapshotHeader, SNAPSHOT_VERSION};
use mcd_workloads::Benchmark;

/// First line of every bundle manifest.
const MANIFEST_MAGIC: &str = "mcd-bundle v1";
/// The manifest file's name inside the bundle directory.
const MANIFEST_NAME: &str = "MANIFEST.txt";
/// The identity artefact (snapshot-header encoding of the run inputs).
const IDENTITY_NAME: &str = "identity.bin";
/// The final-result digest artefact.
const RESULT_NAME: &str = "result.bin";

/// What to record in a bundle: one run identity plus the kernel-step
/// offsets at which mid-run snapshots are taken.
#[derive(Debug, Clone)]
pub struct BundleSpec {
    /// The benchmark to run.
    pub benchmark: Benchmark,
    /// The configuration to run it under.
    pub config: ConfigKind,
    /// Workload/clock seed.
    pub seed: u64,
    /// Committed-instruction budget.
    pub instructions: u64,
    /// Committed instructions per control interval.
    pub interval_instructions: u64,
    /// Whether per-interval traces are recorded.
    pub record_traces: bool,
    /// Strictly increasing kernel-step offsets (from run start) at which
    /// checkpoints are captured.  Offsets past the end of the run are
    /// skipped — the chain holds what the run actually reached.
    pub checkpoints: Vec<u64>,
}

/// What a bundle write or verification established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleReport {
    /// Snapshots in the chain (written, or restored-and-replayed).
    pub checkpoints: usize,
    /// Committed instructions of the recorded final result.
    pub committed_instructions: u64,
}

/// Why a bundle failed to write or verify.  The three tamper classes
/// the replay contract distinguishes: a *version* mismatch (the bundle
/// was written by a different encoding), a *content* mismatch (an
/// artefact's bytes drifted from the manifest), and a *replay* mismatch
/// (everything hashes, but re-running a recorded snapshot's tail does
/// not reproduce the recorded result).
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem failure, tagged with the path.
    Io(String),
    /// The manifest is missing a line or malformed.
    Manifest(String),
    /// The bundle was hashed under a different [`KEY_VERSION`].
    KeyVersionMismatch {
        /// The version the manifest records.
        found: u64,
    },
    /// The bundle's snapshots use a different [`SNAPSHOT_VERSION`].
    SnapshotVersionMismatch {
        /// The version the manifest records.
        found: u64,
    },
    /// A manifest-listed artefact is absent (e.g. a truncated chain).
    MissingArtifact {
        /// The artefact's file name.
        name: String,
    },
    /// An artefact's bytes do not hash to the manifest entry.
    HashMismatch {
        /// The artefact's file name.
        name: String,
    },
    /// A snapshot hashed correctly but failed to decode.
    SnapshotCorrupt {
        /// The artefact's file name.
        name: String,
        /// The decoder's error.
        error: CodecError,
    },
    /// Replaying a snapshot's tail produced a different final result.
    ReplayMismatch {
        /// The snapshot whose tail diverged.
        name: String,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Io(msg) => write!(f, "bundle I/O error: {msg}"),
            BundleError::Manifest(msg) => write!(f, "malformed bundle manifest: {msg}"),
            BundleError::KeyVersionMismatch { found } => write!(
                f,
                "bundle hashed under KEY_VERSION {found}, this build uses {KEY_VERSION}"
            ),
            BundleError::SnapshotVersionMismatch { found } => write!(
                f,
                "bundle snapshots use SNAPSHOT_VERSION {found}, this build uses {SNAPSHOT_VERSION}"
            ),
            BundleError::MissingArtifact { name } => {
                write!(f, "bundle artefact {name} is missing (truncated bundle?)")
            }
            BundleError::HashMismatch { name } => write!(
                f,
                "bundle artefact {name} does not match its manifest hash (corrupted bundle)"
            ),
            BundleError::SnapshotCorrupt { name, error } => {
                write!(f, "bundle snapshot {name} failed to decode: {error}")
            }
            BundleError::ReplayMismatch { name } => write!(
                f,
                "replaying {name} to completion produced a different result than the bundle records"
            ),
        }
    }
}

impl std::error::Error for BundleError {}

fn io_err<E: fmt::Display>(path: &Path) -> impl FnOnce(E) -> BundleError + '_ {
    move |e| BundleError::Io(format!("{}: {e}", path.display()))
}

/// Stable 128-bit content hash of an artefact's bytes.
fn content_hash(bytes: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write_raw(bytes);
    h.finish()
}

/// Digest of the simulated outcome: every field `SimResult`'s
/// `PartialEq` compares, folded in a fixed order.  Host telemetry is
/// excluded exactly like it is from equality, so a replay on a
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
    for rec in &r.intervals {
        h.write_u64(rec.interval);
        h.write_u64(rec.committed);
        h.write_f64(rec.ipc);
        h.write_usize(rec.domains.len());
        for d in &rec.domains {
            h.write_usize(d.domain.index());
            h.write_f64(d.queue_utilization);
            h.write_f64(d.freq_mhz);
        }
    }
    h.write_usize(r.profile.intervals.len());
    for interval in &r.profile.intervals {
        h.write_usize(interval.len());
        for s in interval {
            h.write_usize(s.domain.index());
            h.write_f64(s.queue_utilization);
            h.write_u64(s.domain_cycles);
            h.write_u64(s.busy_cycles);
            h.write_u64(s.issued_instructions);
            h.write_f64(s.freq_mhz);
        }
    }
    h.write_usize(r.avg_domain_freq_mhz.len());
    for &(d, mhz) in &r.avg_domain_freq_mhz {
        h.write_usize(d.index());
        h.write_f64(mhz);
    }
    h.finish()
}

fn result_artifact(result: &SimResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u128(result_digest(result));
    w.put_u64(result.committed_instructions);
    w.into_vec()
}

fn parse_result_artifact(bytes: &[u8]) -> Result<(u128, u64), BundleError> {
    let mut r = ByteReader::new(bytes);
    let parse = |r: &mut ByteReader<'_>| -> Result<(u128, u64), CodecError> {
        let digest = r.u128()?;
        let committed = r.u64()?;
        r.finish()?;
        Ok((digest, committed))
    };
    parse(&mut r).map_err(|e| BundleError::Manifest(format!("{RESULT_NAME}: {e}")))
}

/// Runs `spec` to completion, capturing the requested checkpoint chain,
/// and writes the bundle into `dir` (created if absent; existing
/// artefact files are overwritten).
///
/// The run streams live (no trace sharing), so the bundle's bytes
/// depend on nothing but `spec` — writing the same spec twice yields
/// byte-identical bundles.
///
/// # Errors
///
/// Returns [`BundleError::Io`] on filesystem failures and
/// [`BundleError::Manifest`] when `spec.checkpoints` is not strictly
/// increasing.
pub fn write_bundle(spec: &BundleSpec, dir: &Path) -> Result<BundleReport, BundleError> {
    if spec.checkpoints.windows(2).any(|w| w[0] >= w[1]) {
        return Err(BundleError::Manifest(
            "checkpoint offsets must be strictly increasing".into(),
        ));
    }
    let mut runner = BenchmarkRunner::new(spec.instructions, spec.seed)
        .with_interval(spec.interval_instructions)
        .with_trace_sharing(false);
    runner.record_traces = spec.record_traces;

    let mut run = runner.begin(spec.benchmark, &spec.config);
    let mut snapshots: Vec<(String, Vec<u8>)> = Vec::new();
    let mut at = 0u64;
    let mut outcome: Option<RunOutcome> = None;
    for (i, &target) in spec.checkpoints.iter().enumerate() {
        if let Some(o) = run.step(target - at) {
            outcome = Some(o);
            break;
        }
        at = target;
        snapshots.push((format!("snapshot_{i:02}.bin"), snapshot(&run)));
    }
    let outcome = match outcome {
        Some(o) => o,
        None => loop {
            if let Some(o) = run.step(u64::MAX) {
                break o;
            }
        },
    };

    let identity = {
        let mut w = ByteWriter::new();
        SnapshotHeader {
            benchmark: spec.benchmark,
            config: spec.config.clone(),
            seed: spec.seed,
            instructions: spec.instructions,
            interval_instructions: spec.interval_instructions,
            record_traces: spec.record_traces,
        }
        .save(&mut w);
        w.into_vec()
    };
    let result = result_artifact(&outcome.result);

    fs::create_dir_all(dir).map_err(io_err(dir))?;
    let mut manifest = String::new();
    manifest.push_str(MANIFEST_MAGIC);
    manifest.push('\n');
    manifest.push_str(&format!("key_version {KEY_VERSION}\n"));
    manifest.push_str(&format!("snapshot_version {SNAPSHOT_VERSION}\n"));
    let artifacts = std::iter::once((IDENTITY_NAME.to_string(), identity))
        .chain(snapshots.iter().cloned())
        .chain(std::iter::once((RESULT_NAME.to_string(), result)));
    for (name, bytes) in artifacts {
        let path = dir.join(&name);
        fs::write(&path, &bytes).map_err(io_err(&path))?;
        manifest.push_str(&format!("artifact {name} {:032x}\n", content_hash(&bytes)));
    }
    let manifest_path = dir.join(MANIFEST_NAME);
    fs::write(&manifest_path, manifest).map_err(io_err(&manifest_path))?;

    Ok(BundleReport {
        checkpoints: snapshots.len(),
        committed_instructions: outcome.result.committed_instructions,
    })
}

/// Verifies the bundle at `dir` end to end: manifest versions, artefact
/// content hashes, the identity header, and — the replay contract —
/// that every snapshot in the chain restores and runs its tail to the
/// recorded final-result digest.
///
/// # Errors
///
/// Returns the first failed check, see [`BundleError`].
pub fn replay_verify(dir: &Path) -> Result<BundleReport, BundleError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let manifest =
        fs::read_to_string(&manifest_path).map_err(|_| BundleError::MissingArtifact {
            name: MANIFEST_NAME.into(),
        })?;
    let mut lines = manifest.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(BundleError::Manifest(format!(
            "first line must be `{MANIFEST_MAGIC}`"
        )));
    }
    let version_line = |line: Option<&str>, key: &str| -> Result<u64, BundleError> {
        let line = line.ok_or_else(|| BundleError::Manifest(format!("missing `{key}` line")))?;
        line.strip_prefix(key)
            .and_then(|rest| rest.trim().parse().ok())
            .ok_or_else(|| BundleError::Manifest(format!("malformed `{key}` line: {line:?}")))
    };
    let key_version = version_line(lines.next(), "key_version")?;
    if key_version != u64::from(KEY_VERSION) {
        return Err(BundleError::KeyVersionMismatch { found: key_version });
    }
    let snap_version = version_line(lines.next(), "snapshot_version")?;
    if snap_version != u64::from(SNAPSHOT_VERSION) {
        return Err(BundleError::SnapshotVersionMismatch {
            found: snap_version,
        });
    }

    // Hash-check every artefact before interpreting any of them.
    let mut artifacts: Vec<(String, Vec<u8>)> = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (tag, name, hash) = (parts.next(), parts.next(), parts.next());
        let (Some("artifact"), Some(name), Some(hash), None) = (tag, name, hash, parts.next())
        else {
            return Err(BundleError::Manifest(format!(
                "expected `artifact <name> <hash>`, got {line:?}"
            )));
        };
        let expected = u128::from_str_radix(hash, 16)
            .map_err(|_| BundleError::Manifest(format!("bad hash on line {line:?}")))?;
        let bytes = fs::read(dir.join(name)).map_err(|_| BundleError::MissingArtifact {
            name: name.to_string(),
        })?;
        if content_hash(&bytes) != expected {
            return Err(BundleError::HashMismatch {
                name: name.to_string(),
            });
        }
        artifacts.push((name.to_string(), bytes));
    }

    let find = |name: &str| -> Result<&[u8], BundleError> {
        artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| BundleError::MissingArtifact { name: name.into() })
    };
    let identity = SnapshotHeader::peek(find(IDENTITY_NAME)?).map_err(|error| {
        BundleError::SnapshotCorrupt {
            name: IDENTITY_NAME.into(),
            error,
        }
    })?;
    let (expected_digest, committed) = parse_result_artifact(find(RESULT_NAME)?)?;

    let mut verified = 0;
    for (name, bytes) in artifacts.iter().filter(|(n, _)| n.starts_with("snapshot_")) {
        let mut run = restore(bytes).map_err(|error| BundleError::SnapshotCorrupt {
            name: name.clone(),
            error,
        })?;
        if run.benchmark() != identity.benchmark || run.config() != &identity.config {
            return Err(BundleError::Manifest(format!(
                "{name} does not belong to this bundle's identity"
            )));
        }
        let outcome = loop {
            if let Some(o) = run.step(u64::MAX) {
                break o;
            }
        };
        if result_digest(&outcome.result) != expected_digest {
            return Err(BundleError::ReplayMismatch { name: name.clone() });
        }
        verified += 1;
    }

    Ok(BundleReport {
        checkpoints: verified,
        committed_instructions: committed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_control::AttackDecayParams;

    fn temp_bundle_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcd-bundle-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec() -> BundleSpec {
        BundleSpec {
            benchmark: Benchmark::Gzip,
            config: ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
            seed: 42,
            instructions: 12_000,
            interval_instructions: 10_000,
            record_traces: false,
            checkpoints: vec![3_000, 9_000],
        }
    }

    #[test]
    fn clean_bundle_round_trips() {
        let dir = temp_bundle_dir("clean");
        let written = write_bundle(&small_spec(), &dir).expect("bundle writes");
        assert_eq!(written.checkpoints, 2);
        assert_eq!(written.committed_instructions, 12_000);
        let verified = replay_verify(&dir).expect("clean bundle verifies");
        assert_eq!(verified, written);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_one_byte_fails_the_hash_check() {
        let dir = temp_bundle_dir("corrupt");
        write_bundle(&small_spec(), &dir).expect("bundle writes");
        let victim = dir.join("snapshot_01.bin");
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&victim, bytes).unwrap();
        assert!(matches!(
            replay_verify(&dir),
            Err(BundleError::HashMismatch { name }) if name == "snapshot_01.bin"
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncating_the_chain_reports_the_missing_artifact() {
        let dir = temp_bundle_dir("truncate");
        write_bundle(&small_spec(), &dir).expect("bundle writes");
        fs::remove_file(dir.join("snapshot_00.bin")).unwrap();
        assert!(matches!(
            replay_verify(&dir),
            Err(BundleError::MissingArtifact { name }) if name == "snapshot_00.bin"
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_foreign_key_version_is_rejected_before_any_replay() {
        let dir = temp_bundle_dir("keyver");
        write_bundle(&small_spec(), &dir).expect("bundle writes");
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = fs::read_to_string(&manifest_path).unwrap();
        let bumped = manifest.replace(
            &format!("key_version {KEY_VERSION}"),
            &format!("key_version {}", u64::from(KEY_VERSION) + 1),
        );
        assert_ne!(manifest, bumped);
        fs::write(&manifest_path, bumped).unwrap();
        assert!(matches!(
            replay_verify(&dir),
            Err(BundleError::KeyVersionMismatch { found }) if found == u64::from(KEY_VERSION) + 1
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tampered_result_digest_is_a_replay_mismatch() {
        let dir = temp_bundle_dir("replay");
        write_bundle(&small_spec(), &dir).expect("bundle writes");
        // Rewrite result.bin with a wrong digest *and* re-hash it in the
        // manifest, so only the replay contract itself can catch it.
        let result_path = dir.join(RESULT_NAME);
        let mut w = ByteWriter::new();
        w.put_u128(0xdead_beef);
        w.put_u64(12_000);
        let forged = w.into_vec();
        fs::write(&result_path, &forged).unwrap();
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = fs::read_to_string(&manifest_path).unwrap();
        let fixed: String = manifest
            .lines()
            .map(|line| {
                if line.starts_with(&format!("artifact {RESULT_NAME}")) {
                    format!("artifact {RESULT_NAME} {:032x}\n", content_hash(&forged))
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        fs::write(&manifest_path, fixed).unwrap();
        assert!(matches!(
            replay_verify(&dir),
            Err(BundleError::ReplayMismatch { name }) if name == "snapshot_00.bin"
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
