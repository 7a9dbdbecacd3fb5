//! Content-addressed caching: shared instruction traces and memoized
//! run results.
//!
//! An experiment grid is highly redundant along two axes.  *Within* a
//! plan, every configuration of one benchmark consumes the same
//! instruction stream, so the stream should be generated once and
//! replayed (see [`mcd_workloads::SharedTrace`]); *across* cells, a grid
//! frequently contains byte-for-byte repeats — the same `(workload,
//! configuration, seed)` triple — whose simulation can be served from a
//! previous outcome.  This module provides both layers:
//!
//! * [`TraceCache`] — a plan-level cache of materialized traces keyed by
//!   [`TraceKey`] (spec-hash, seed, length).  Entries are weak by
//!   default: a trace lives only while some run holds its `Arc`, so the
//!   cache never extends peak memory on its own.  The engine *registers*
//!   the expected number of same-workload leases of a plan up front;
//!   registered entries stay pinned (strong) until their last lease, so
//!   same-workload runs share one materialization even when the
//!   admission cap keeps them from overlapping.  A tiny most-recent ring
//!   additionally keeps the last leased traces alive between
//!   registrations.
//! * [`ResultCache`] — the profile cache generalized: a memoization map
//!   from a *stable content hash* of `(workload spec, configuration,
//!   seed, instruction budget, interval length, trace recording)` to the
//!   finished [`RunOutcome`].  Identical grid cells simulate once;
//!   repeats are clones with `host.result_cache_hit` set.  Host-side
//!   telemetry is excluded from [`mcd_sim::SimResult`] equality, so a
//!   served repeat is bit-identical to a fresh simulation.
//!
//! **Invalidation.**  Keys hash the complete simulated-behaviour input
//! set and nothing else; any knob that changes simulated behaviour is
//! part of the key, and knobs that do not (worker count, slice length,
//! admission order) are excluded, which is exactly the engine's
//! determinism contract.  The encoding is versioned ([`KEY_VERSION`]):
//! widening the input set (new spec or config fields) must bump the
//! version so stale keys cannot alias new ones.  Caches live only as
//! long as their engine/runner, so cross-process staleness cannot arise.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, Weak};

use mcd_workloads::{SharedTrace, WorkloadSpec};
use serde::Serialize;

use crate::runner::{ConfigKind, RunOutcome};

/// Version tag mixed into every stable hash.  Bump when the encoding of
/// [`WorkloadSpec`] or [`ConfigKind`] content changes, so keys from an
/// older scheme can never alias.
pub const KEY_VERSION: u8 = 1;

/// Traces kept strongly referenced in the most-recent ring.  The engine
/// registers leases per scheduling wave, so the ring is what carries a
/// trace from a plan's profiling wave into its plan wave on small plans,
/// and what lets [`crate::snapshot::restore_with`] re-lease a recently
/// used trace instead of materializing it again.  Bounded and small (at
/// most two ~1 MiB traces): the ring is a bonus, registration is the
/// mechanism.
const RECENT_TRACES: usize = 2;

/// An incremental FNV-1a (128-bit) hasher over a canonical byte
/// encoding.  Deliberately hand-rolled: the workspace's `serde` is an
/// offline no-op stand-in, so content must be folded in field by field.
/// Multi-byte values are encoded little-endian; strings and sequences
/// are length-prefixed so adjacent fields cannot alias.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher, pre-seeded with [`KEY_VERSION`].
    pub fn new() -> Self {
        // FNV-1a 128-bit offset basis.
        let mut h = StableHasher {
            state: 0x6c62272e07bb014262b821756295c58d,
        };
        h.write_bytes(&[KEY_VERSION]);
        h
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        // FNV-1a 128-bit prime.
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Folds in a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds in a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds in a `usize` (as `u64`, platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds in a `bool`.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Folds in an `f64` by bit pattern (`-0.0` and `0.0` therefore hash
    /// differently, which is fine: keys only ever compare outputs of the
    /// same deterministic constructors).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds in a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Folds in a raw byte sequence, length-prefixed.  Used to
    /// content-hash opaque artefacts (snapshot bytes, bundle files).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.write_bytes(bytes);
    }

    /// The accumulated 128-bit hash.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// Canonical content hash of a workload specification.
pub fn hash_spec(spec: &WorkloadSpec) -> u128 {
    let mut h = StableHasher::new();
    hash_spec_into(&mut h, spec);
    h.finish()
}

fn hash_spec_into(h: &mut StableHasher, spec: &WorkloadSpec) {
    h.write_str(&spec.name);
    h.write_str(&spec.suite);
    h.write_f64(spec.paper_window_minstr);
    h.write_usize(spec.phases.len());
    for p in &spec.phases {
        h.write_f64(p.weight);
        h.write_f64(p.mean_dep_distance);
        let m = p.mix;
        for f in [
            m.int_alu, m.int_mul, m.fp_add, m.fp_mul, m.fp_div, m.load, m.store, m.branch,
        ] {
            h.write_f64(f);
        }
        let mem = p.memory;
        h.write_u64(mem.footprint_bytes);
        h.write_u64(mem.hot_set_bytes);
        h.write_f64(mem.hot_fraction);
        h.write_f64(mem.streaming_fraction);
        h.write_f64(mem.pointer_chase_fraction);
        let b = p.branches;
        h.write_f64(b.predictability);
        h.write_f64(b.taken_bias);
        h.write_usize(b.static_branches);
    }
}

fn hash_config_into(h: &mut StableHasher, kind: &ConfigKind) {
    match kind {
        ConfigKind::FullySynchronous => h.write_bytes(&[0]),
        ConfigKind::BaselineMcd => h.write_bytes(&[1]),
        ConfigKind::AttackDecay(p) => {
            h.write_bytes(&[2]);
            h.write_f64(p.deviation_threshold);
            h.write_f64(p.reaction_change);
            h.write_f64(p.decay);
            h.write_f64(p.perf_deg_threshold);
            h.write_u32(p.endstop_count);
        }
        ConfigKind::OfflineDynamic { target_degradation } => {
            h.write_bytes(&[3]);
            h.write_f64(*target_degradation);
        }
        ConfigKind::GlobalScaling { freq_mhz } => {
            h.write_bytes(&[4]);
            h.write_f64(*freq_mhz);
        }
    }
}

/// The stable content hash a [`ResultCache`] entry is addressed by: the
/// complete set of inputs that determine a run's simulated behaviour.
/// The off-line oracle's profile is itself a deterministic function of
/// these inputs (a baseline-MCD run under the same runner settings), so
/// [`ConfigKind::OfflineDynamic`] needs no extra key material.
pub fn result_key(
    spec: &WorkloadSpec,
    config: &ConfigKind,
    seed: u64,
    instructions: u64,
    interval_instructions: u64,
    record_traces: bool,
) -> u128 {
    let mut h = StableHasher::new();
    hash_spec_into(&mut h, spec);
    hash_config_into(&mut h, config);
    h.write_u64(seed);
    h.write_u64(instructions);
    h.write_u64(interval_instructions);
    h.write_bool(record_traces);
    h.finish()
}

/// Identity of one materialized trace: the content hash of its spec plus
/// the generation seed and instruction budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceKey {
    spec: u128,
    seed: u64,
    len: u64,
}

impl TraceKey {
    /// The key of the trace that `(spec, seed, len)` generates.
    pub fn of(spec: &WorkloadSpec, seed: u64, len: u64) -> Self {
        TraceKey {
            spec: hash_spec(spec),
            seed,
            len,
        }
    }
}

#[derive(Debug, Default)]
struct TraceEntry {
    trace: Weak<SharedTrace>,
    /// Strong reference held while registered leases remain outstanding.
    pinned: Option<Arc<SharedTrace>>,
    /// Registered leases not yet taken (plan-level pinning).
    expected_users: usize,
}

#[derive(Debug, Default)]
struct TraceInner {
    // Ordered map (the `mcd-audit` hash-iteration lint): `account()`
    // iterates the entries, and nothing unordered may be iterated on a
    // result-affecting path — even though this particular fold is
    // order-insensitive, the deterministic structure makes that local
    // argument unnecessary.
    entries: BTreeMap<TraceKey, TraceEntry>,
    recent: VecDeque<Arc<SharedTrace>>,
    hits: u64,
    materializations: u64,
    resident_bytes: u64,
    peak_resident_bytes: u64,
}

/// Counters of a [`TraceCache`], for telemetry and the `BENCH_*.json`
/// artefacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TraceCacheStats {
    /// Leases served from an existing trace.
    pub hits: u64,
    /// Leases that materialized a fresh trace (ran the generator).
    pub materializations: u64,
    /// Trace bytes the cache currently keeps strongly referenced
    /// (pinned registrations plus the most-recent ring, deduplicated).
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
}

/// A plan-level cache of shared instruction traces.  See the module
/// documentation for the lifetime rules.
#[derive(Debug, Default)]
pub struct TraceCache {
    inner: Mutex<TraceInner>,
}

impl TraceCache {
    /// Announces `uses` upcoming leases of `key`.  The trace stays
    /// pinned (strongly referenced) from its materialization until the
    /// last registered lease is taken, so registered users share one
    /// materialization even when they never overlap in time.
    pub fn register(&self, key: TraceKey, uses: usize) {
        if uses == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.entries.entry(key).or_default().expected_users += uses;
    }

    /// Returns the shared trace for `(spec, seed, len)`, materializing
    /// it on first use.  Materialization happens under the cache lock:
    /// concurrent leases of the *same* key must not generate twice, and
    /// the serialization of *different* keys is a one-time cost at plan
    /// start, overlapped with already-admitted runs.
    pub fn lease(&self, spec: &WorkloadSpec, seed: u64, len: u64) -> Arc<SharedTrace> {
        let key = TraceKey::of(spec, seed, len);
        let mut guard = self.inner.lock().expect("trace cache poisoned");
        let inner = &mut *guard;
        let (trace, hit) = {
            let entry = inner.entries.entry(key).or_default();
            let existing = entry.pinned.clone().or_else(|| entry.trace.upgrade());
            let (trace, hit) = match existing {
                Some(t) => (t, true),
                None => (Arc::new(SharedTrace::materialize(spec, seed, len)), false),
            };
            entry.trace = Arc::downgrade(&trace);
            if entry.expected_users > 0 {
                entry.expected_users -= 1;
            }
            entry.pinned = (entry.expected_users > 0).then(|| Arc::clone(&trace));
            (trace, hit)
        };
        if hit {
            inner.hits += 1;
        } else {
            inner.materializations += 1;
        }
        inner.recent.retain(|t| !Arc::ptr_eq(t, &trace));
        inner.recent.push_back(Arc::clone(&trace));
        while inner.recent.len() > RECENT_TRACES {
            inner.recent.pop_front();
        }
        Self::account(inner);
        trace
    }

    /// Recomputes the strongly-referenced byte total (pins and ring,
    /// deduplicated by identity) and advances the high-water mark.
    fn account(inner: &mut TraceInner) {
        let mut seen: Vec<*const SharedTrace> = Vec::new();
        let mut bytes = 0u64;
        let strong = inner
            .entries
            .values()
            .filter_map(|e| e.pinned.as_ref())
            .chain(inner.recent.iter());
        for t in strong {
            let p = Arc::as_ptr(t);
            if !seen.contains(&p) {
                seen.push(p);
                bytes += t.bytes();
            }
        }
        inner.resident_bytes = bytes;
        inner.peak_resident_bytes = inner.peak_resident_bytes.max(bytes);
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> TraceCacheStats {
        let inner = self.inner.lock().expect("trace cache poisoned");
        TraceCacheStats {
            hits: inner.hits,
            materializations: inner.materializations,
            resident_bytes: inner.resident_bytes,
            peak_resident_bytes: inner.peak_resident_bytes,
        }
    }
}

#[derive(Debug, Default)]
struct ResultInner {
    map: BTreeMap<u128, RunOutcome>,
    hits: u64,
    misses: u64,
}

/// Counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ResultCacheStats {
    /// Lookups served from a memoized outcome.
    pub hits: u64,
    /// Lookups that found nothing (each corresponds to one simulation).
    pub misses: u64,
    /// Memoized outcomes currently held.
    pub entries: usize,
}

/// Memoized run outcomes, content-addressed by [`result_key`].
#[derive(Debug, Default)]
pub struct ResultCache {
    inner: Mutex<ResultInner>,
}

impl ResultCache {
    /// Looks `key` up; a hit returns a clone of the memoized outcome
    /// with `host.result_cache_hit` set (host stats are excluded from
    /// result equality, so the clone is bit-identical to a fresh run).
    pub fn lookup(&self, key: u128) -> Option<RunOutcome> {
        let mut guard = self.inner.lock().expect("result cache poisoned");
        let inner = &mut *guard;
        match inner.map.get(&key) {
            Some(outcome) => {
                inner.hits += 1;
                let mut served = outcome.clone();
                served.result.host.result_cache_hit = true;
                Some(served)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Memoizes a freshly simulated outcome (first write wins; repeats
    /// of a deterministic run are identical by construction).
    pub fn insert(&self, key: u128, outcome: &RunOutcome) {
        let mut inner = self.inner.lock().expect("result cache poisoned");
        inner.map.entry(key).or_insert_with(|| {
            let mut stored = outcome.clone();
            stored.result.host.result_cache_hit = false;
            stored
        });
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.inner.lock().expect("result cache poisoned");
        ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workloads::Benchmark;

    #[test]
    fn stable_hash_discriminates_every_key_component() {
        let spec = Benchmark::Gzip.spec();
        let base = result_key(&spec, &ConfigKind::BaselineMcd, 1, 1_000, 100, false);
        assert_eq!(
            base,
            result_key(&spec, &ConfigKind::BaselineMcd, 1, 1_000, 100, false),
            "hashing must be deterministic"
        );
        let variants = [
            result_key(
                &Benchmark::Mcf.spec(),
                &ConfigKind::BaselineMcd,
                1,
                1_000,
                100,
                false,
            ),
            result_key(&spec, &ConfigKind::FullySynchronous, 1, 1_000, 100, false),
            result_key(
                &spec,
                &ConfigKind::GlobalScaling { freq_mhz: 875.0 },
                1,
                1_000,
                100,
                false,
            ),
            result_key(
                &spec,
                &ConfigKind::OfflineDynamic {
                    target_degradation: 0.01,
                },
                1,
                1_000,
                100,
                false,
            ),
            result_key(
                &spec,
                &ConfigKind::OfflineDynamic {
                    target_degradation: 0.05,
                },
                1,
                1_000,
                100,
                false,
            ),
            result_key(&spec, &ConfigKind::BaselineMcd, 2, 1_000, 100, false),
            result_key(&spec, &ConfigKind::BaselineMcd, 1, 2_000, 100, false),
            result_key(&spec, &ConfigKind::BaselineMcd, 1, 1_000, 200, false),
            result_key(&spec, &ConfigKind::BaselineMcd, 1, 1_000, 100, true),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} must change the key");
            for w in &variants[i + 1..] {
                assert_ne!(v, w, "distinct variants must not collide");
            }
        }
    }

    /// Pins the exact key bytes for one canonical (workload, config,
    /// seed) tuple.  This is the dynamic half of the `mcd-audit`
    /// cache-key rule: the audit proves every field reaches the hasher,
    /// this snapshot proves the *encoding* has not drifted.  If this
    /// fails, the key scheme changed — verify the change is intentional,
    /// bump [`KEY_VERSION`], and update the constant in the same commit
    /// so stale memoized results can never alias the new scheme.
    #[test]
    fn key_snapshot_for_canonical_tuple() {
        let key = result_key(
            &Benchmark::Gzip.spec(),
            &ConfigKind::AttackDecay(mcd_control::AttackDecayParams::paper_defaults()),
            42,
            1_000_000,
            10_000,
            false,
        );
        assert_eq!(
            key, 0xef6b_5ec7_308f_2aa7_a7dc_70ce_124e_789c_u128,
            "cache-key encoding drifted: bump KEY_VERSION and update this snapshot (new key {key:#034x})"
        );
    }

    #[test]
    fn trace_cache_shares_within_registration_and_frees_after() {
        let cache = TraceCache::default();
        let spec = Benchmark::Gzip.spec();
        let key = TraceKey::of(&spec, 3, 500);
        cache.register(key, 3);
        let a = cache.lease(&spec, 3, 500);
        let stats = cache.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hits, 0);
        assert!(stats.resident_bytes > 0);
        // Dropping the caller's Arc must not lose the trace: two
        // registered leases remain, so the pin holds it.
        let ptr = Arc::as_ptr(&a);
        drop(a);
        let b = cache.lease(&spec, 3, 500);
        assert_eq!(Arc::as_ptr(&b), ptr, "pinned trace must be reused");
        let c = cache.lease(&spec, 3, 500);
        assert_eq!(Arc::as_ptr(&c), ptr);
        let stats = cache.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.peak_resident_bytes, stats.resident_bytes);
    }

    #[test]
    fn unregistered_leases_share_through_the_recent_ring() {
        let cache = TraceCache::default();
        let spec = Benchmark::Swim.spec();
        let a = cache.lease(&spec, 9, 400);
        drop(a); // the ring keeps it alive
        let _b = cache.lease(&spec, 9, 400);
        let stats = cache.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn distinct_keys_materialize_separately() {
        let cache = TraceCache::default();
        let gzip = Benchmark::Gzip.spec();
        let mcf = Benchmark::Mcf.spec();
        let a = cache.lease(&gzip, 1, 300);
        let b = cache.lease(&mcf, 1, 300);
        let c = cache.lease(&gzip, 2, 300);
        assert_eq!(cache.stats().materializations, 3);
        assert_eq!(a.len(), 300);
        assert_eq!(b.len(), 300);
        assert_eq!(c.len(), 300);
    }
}
