//! Content-addressed shared instruction traces, and the stable hash
//! that keys them.
//!
//! Within a plan, every configuration of one benchmark consumes the same
//! instruction stream, so the stream is generated once and replayed (see
//! [`mcd_workloads::SharedTrace`]).  [`TraceCache`] is the plan-level
//! cache of materialized traces, keyed by [`TraceKey`] (spec hash, seed,
//! length).  Entries are weak by default: a trace lives only while some
//! run holds its `Arc`, so the cache never extends peak memory on its
//! own.  The engine *registers* the expected number of same-workload
//! leases of a plan up front; registered entries stay pinned (strong)
//! until their last lease, so same-workload runs share one
//! materialization even when they do not overlap in time.  A tiny
//! most-recent ring additionally keeps the last leased traces alive
//! between registrations.
//!
//! **Keys.**  [`StableHasher`] is a versioned canonical hash
//! ([`KEY_VERSION`]).  A [`TraceKey`] hashes every field of the
//! [`WorkloadSpec`] (the `mcd-audit` cache-key rule enforces that), so two
//! specs that generate different streams can never share a trace.  The
//! same hasher digests run results ([`crate::bundle::result_digest`]).
//! Nothing hashed here is written to disk: a trace cache lives only as
//! long as its engine/runner, so cross-process staleness cannot arise.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, Weak};

use mcd_workloads::{SharedTrace, WorkloadSpec};
use serde::Serialize;

/// Version tag that seeds every stable hash: the trace keys and
/// [`crate::bundle::result_digest`].  Bump when the encoding of
/// [`WorkloadSpec`] content changes, or when the same trace key starts
/// to mean different simulated behaviour, so digests from an older
/// scheme can never be mistaken for current ones.
///
/// History: v2 — each jittered clock edge draws its rounded jitter
/// offset from the exact offset distribution with one alias-table lookup
/// instead of rounding a Box–Muller sample, so every run with jitter
/// (MCD clocking) has a new jitter realization; fully synchronous runs
/// are unchanged.  v3 — the quiet-time catch-up charges each domain's
/// idle edges in a batch, so `EnergyBreakdown::idle` is summed per
/// structure instead of in global edge order and differs in its last
/// bits; every other result value is unchanged.
pub const KEY_VERSION: u8 = 3;

/// Traces kept strongly referenced in the most-recent ring.  The engine
/// registers leases per scheduling wave, so the ring is what carries a
/// trace from a plan's profiling wave into its plan wave on small plans.
/// Bounded and small (at most two ~1 MiB traces): the ring is a bonus,
/// registration is the mechanism.
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

    /// Folds in a `usize` (as `u64`, platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workloads::Benchmark;

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
