//! Shared instruction traces, one per benchmark, and the stable hash
//! behind the result digests.
//!
//! Within a plan, every configuration of one benchmark consumes the same
//! instruction stream, so the stream is generated once and replayed (see
//! [`mcd_workloads::SharedTrace`]).  [`TraceCache`] is the runner-level
//! cache of materialized traces.  A cache fixes its seed and instruction
//! budget at construction, so it is keyed by [`Benchmark`] alone: every
//! benchmark has its own spec, so two benchmarks never share a trace.
//! Entries are weak by default: a trace lives only while some run holds
//! its `Arc`, so the cache never extends peak memory on its own.  The
//! engine *registers* the expected number of same-workload leases of a
//! plan up front; registered entries stay pinned (strong) until their
//! last lease, so same-workload runs share one materialization even when
//! they do not overlap in time.  A tiny most-recent ring additionally
//! keeps the last leased traces alive between registrations.
//!
//! [`StableHasher`] is a versioned canonical hash ([`KEY_VERSION`]) that
//! digests run results ([`crate::bundle::result_digest`]).  Nothing here
//! is written to disk: a trace cache lives only as long as its runner, so
//! cross-process staleness cannot arise.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, Weak};

use mcd_workloads::{Benchmark, SharedTrace};
use serde::Serialize;

/// Version tag that seeds every stable hash:
/// [`crate::bundle::result_digest`] and the benchmark package's result
/// digests.  Bump when the same inputs start to mean different simulated
/// behaviour, so digests from an older scheme can never be mistaken for
/// current ones.
///
/// A deliberate behaviour change also re-baselines the golden dump
/// `examples/golden_dump.expected` in the same commit.
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
    // Ordered map (`clippy.toml` disallows `HashMap`): `account()`
    // iterates the entries, and nothing unordered may be iterated on a
    // result-affecting path — even though this particular fold is
    // order-insensitive, the deterministic structure makes that local
    // argument unnecessary.
    entries: BTreeMap<Benchmark, TraceEntry>,
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

/// A cache of shared instruction traces of one seed and instruction
/// budget, keyed by benchmark.  See the module documentation for the
/// lifetime rules.
#[derive(Debug)]
pub struct TraceCache {
    seed: u64,
    len: u64,
    inner: Mutex<TraceInner>,
}

impl TraceCache {
    /// An empty cache of `len`-instruction traces generated with `seed`.
    pub fn new(seed: u64, len: u64) -> Self {
        TraceCache {
            seed,
            len,
            inner: Mutex::default(),
        }
    }

    /// Announces `uses` upcoming leases of `bench`.  The trace stays
    /// pinned (strongly referenced) from its materialization until the
    /// last registered lease is taken, so registered users share one
    /// materialization even when they never overlap in time.
    pub fn register(&self, bench: Benchmark, uses: usize) {
        if uses == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.entries.entry(bench).or_default().expected_users += uses;
    }

    /// Returns the shared trace of `bench`, materializing it on first
    /// use.  Materialization happens under the cache lock: concurrent
    /// leases of the *same* benchmark must not generate twice, and the
    /// serialization of *different* benchmarks is a one-time cost at plan
    /// start, overlapped with already-admitted runs.
    pub fn lease(&self, bench: Benchmark) -> Arc<SharedTrace> {
        let mut guard = self.inner.lock().expect("trace cache poisoned");
        let inner = &mut *guard;
        let (trace, hit) = {
            let entry = inner.entries.entry(bench).or_default();
            let existing = entry.pinned.clone().or_else(|| entry.trace.upgrade());
            let (trace, hit) = match existing {
                Some(t) => (t, true),
                None => (
                    Arc::new(SharedTrace::materialize(&bench.spec(), self.seed, self.len)),
                    false,
                ),
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
    use mcd_isa::InstructionStream;

    #[test]
    fn trace_cache_shares_within_registration_and_frees_after() {
        let cache = TraceCache::new(3, 500);
        cache.register(Benchmark::Gzip, 3);
        let a = cache.lease(Benchmark::Gzip);
        let stats = cache.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hits, 0);
        assert!(stats.resident_bytes > 0);
        // Dropping the caller's Arc must not lose the trace: two
        // registered leases remain, so the pin holds it.
        let ptr = Arc::as_ptr(&a);
        drop(a);
        let b = cache.lease(Benchmark::Gzip);
        assert_eq!(Arc::as_ptr(&b), ptr, "pinned trace must be reused");
        let c = cache.lease(Benchmark::Gzip);
        assert_eq!(Arc::as_ptr(&c), ptr);
        let stats = cache.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.peak_resident_bytes, stats.resident_bytes);
    }

    #[test]
    fn unregistered_leases_share_through_the_recent_ring() {
        let cache = TraceCache::new(9, 400);
        let a = cache.lease(Benchmark::Swim);
        drop(a); // the ring keeps it alive
        let _b = cache.lease(Benchmark::Swim);
        let stats = cache.stats();
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn distinct_keys_materialize_separately() {
        let cache = TraceCache::new(1, 300);
        let a = cache.lease(Benchmark::Gzip);
        let b = cache.lease(Benchmark::Mcf);
        assert_eq!(cache.stats().materializations, 2);
        assert_eq!((a.len(), a.seed()), (300, 1));
        assert_eq!((b.len(), b.seed()), (300, 1));
        let (mut ca, mut cb) = (a.cursor(), b.cursor());
        let mut pairs = std::iter::from_fn(|| ca.next_inst().zip(cb.next_inst()));
        assert!(pairs.any(|(x, y)| x != y));
    }
}
