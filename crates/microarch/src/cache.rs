//! Set-associative cache model with true-LRU replacement.
//!
//! The paper's memory hierarchy (Table 4): 64 KB 2-way L1 instruction and
//! data caches with a 2-cycle latency, and a 1 MB direct-mapped unified L2
//! with a 12-cycle latency.  The cache model here is a timing/occupancy
//! model only — no data values are stored.

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles of the owning domain.
    pub latency_cycles: u32,
}

impl CacheConfig {
    /// 64 KB, 2-way, 64-byte lines, 2-cycle latency (the paper's L1).
    pub fn l1_64k_2way() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 64,
            latency_cycles: 2,
        }
    }

    /// 1 MB, direct-mapped, 64-byte lines, 12-cycle latency (the paper's L2).
    pub fn l2_1m_direct() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 1,
            line_bytes: 64,
            latency_cycles: 12,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Validates the geometry (power-of-two line size, consistent sizes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err("line size must be a power of two".to_string());
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".to_string());
        }
        if !self
            .size_bytes
            .is_multiple_of(self.line_bytes * self.ways as u64)
        {
            return Err("capacity must be a multiple of line size times associativity".to_string());
        }
        if self.num_sets() == 0 {
            return Err("cache must have at least one set".to_string());
        }
        Ok(())
    }
}

/// Access statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses (lookups).
    pub reads: u64,
    /// Write accesses (lookups for stores).
    pub writes: u64,
    /// Misses (reads + writes).
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Lower = more recently used.
    lru: u32,
}

/// A single cache level (timing model only).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache configuration: {e}"));
        let lines = vec![Line::default(); config.num_sets() * config.ways];
        Cache {
            config,
            lines,
            stats: CacheStats::default(),
        }
    }

    /// The configuration of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The access latency in owning-domain cycles.
    pub fn latency_cycles(&self) -> u32 {
        self.config.latency_cycles
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes;
        let set = (line as usize) % self.config.num_sets();
        let tag = line / self.config.num_sets() as u64;
        (set, tag)
    }

    /// Performs an access.  Returns `true` on a hit.  On a miss, the line is
    /// allocated (fetch-on-miss, write-allocate) and the victim, if dirty,
    /// is counted as a writeback.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];

        if let Some(hit_way) = ways.iter().position(|l| l.valid && l.tag == tag) {
            for (i, l) in ways.iter_mut().enumerate() {
                if i == hit_way {
                    l.lru = 0;
                    if is_write {
                        l.dirty = true;
                    }
                } else if l.valid {
                    l.lru = l.lru.saturating_add(1);
                }
            }
            return true;
        }

        // Miss: choose a victim (invalid first, else highest LRU counter).
        self.stats.misses += 1;
        let victim_way = ways
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| if l.valid { l.lru } else { u32::MAX })
            .map(|(i, _)| i)
            .expect("cache set has at least one way");
        if ways[victim_way].valid && ways[victim_way].dirty {
            self.stats.writebacks += 1;
        }
        for (i, l) in ways.iter_mut().enumerate() {
            if i == victim_way {
                *l = Line {
                    valid: true,
                    dirty: is_write,
                    tag,
                    lru: 0,
                };
            } else if l.valid {
                l.lru = l.lru.saturating_add(1);
            }
        }
        false
    }

    /// Probes the cache without modifying replacement state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Pre-loads the line containing `addr` without touching statistics,
    /// used to model a warm cache at the start of a mid-execution
    /// simulation window (the paper's windows start hundreds of millions of
    /// instructions into each benchmark).
    pub fn warm(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];
        if ways.iter().any(|l| l.valid && l.tag == tag) {
            return;
        }
        let victim_way = ways
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| if l.valid { l.lru } else { u32::MAX })
            .map(|(i, _)| i)
            .expect("cache set has at least one way");
        ways[victim_way] = Line {
            valid: true,
            dirty: false,
            tag,
            lru: 0,
        };
    }

    /// Invalidates every line (used between runs).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_geometries_are_valid() {
        let l1 = CacheConfig::l1_64k_2way();
        assert_eq!(l1.num_sets(), 512);
        assert_eq!(l1.latency_cycles, 2);
        l1.validate().unwrap();
        let l2 = CacheConfig::l2_1m_direct();
        assert_eq!(l2.num_sets(), 16384);
        assert_eq!(l2.latency_cycles, 12);
        l2.validate().unwrap();
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let bad = CacheConfig {
            size_bytes: 1000,
            ways: 3,
            line_bytes: 48,
            latency_cycles: 1,
        };
        assert!(bad.validate().is_err());
        let bad = CacheConfig {
            size_bytes: 64,
            ways: 0,
            line_bytes: 64,
            latency_cycles: 1,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid cache configuration")]
    fn constructor_panics_on_invalid_config() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 1,
            line_bytes: 3,
            latency_cycles: 1,
        });
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way());
        assert!(!c.access(0x1000, false));
        assert!(c.access(0x1000, false));
        assert!(c.access(0x1038, false), "same 64-byte line");
        assert!(!c.access(0x1040, false), "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().reads, 4);
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way());
        // 32 KB working set in a 64 KB cache: after the first pass, all hits.
        let lines = 32 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64, false);
        }
        let misses_after_warmup = c.stats().misses;
        for _ in 0..3 {
            for i in 0..lines {
                assert!(c.access(i * 64, false));
            }
        }
        assert_eq!(c.stats().misses, misses_after_warmup);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way());
        // 256 KB streaming working set in a 64 KB cache: every pass misses.
        let lines = 256 * 1024 / 64;
        for _ in 0..2 {
            for i in 0..lines {
                c.access(i * 64, false);
            }
        }
        assert!(c.stats().miss_rate() > 0.9);
    }

    #[test]
    fn lru_keeps_most_recently_used_line() {
        // Tiny 2-way cache with 1 set to test replacement directly.
        let cfg = CacheConfig {
            size_bytes: 128,
            ways: 2,
            line_bytes: 64,
            latency_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        c.access(0, false); // line A
        c.access(64, false); // line B (set is {A, B})
        c.access(0, false); // touch A so B becomes LRU
        c.access(128, false); // line C evicts B
        assert!(c.probe(0), "A must survive");
        assert!(!c.probe(64), "B must have been evicted");
        assert!(c.probe(128));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let cfg = CacheConfig {
            size_bytes: 64,
            ways: 1,
            line_bytes: 64,
            latency_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        c.access(0, true); // dirty line
        c.access(64, false); // evicts it
        assert_eq!(c.stats().writebacks, 1);
        c.access(128, false); // clean eviction
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_does_not_change_stats() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way());
        c.access(0x40, false);
        let before = c.stats();
        assert!(c.probe(0x40));
        assert!(!c.probe(0xdead_0000));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = Cache::new(CacheConfig::l1_64k_2way());
        c.access(0x40, false);
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn direct_mapped_conflict_behavior() {
        let mut c = Cache::new(CacheConfig::l2_1m_direct());
        let stride = 1024 * 1024; // same set, different tag
        c.access(0, false);
        c.access(stride, false);
        assert!(!c.probe(0), "direct-mapped conflict must evict");
        assert!(c.probe(stride));
    }

    #[test]
    fn miss_rate_of_empty_cache_is_zero() {
        let c = Cache::new(CacheConfig::l1_64k_2way());
        assert_eq!(c.stats().miss_rate(), 0.0);
        assert_eq!(c.stats().accesses(), 0);
    }
}
