//! A set-associative cache simulator with LRU replacement.
//!
//! The trace-driven engine of this crate charges memory traffic at the
//! granularity of work items, *assuming* the (3+1)D decomposition's
//! premise: that a block's intermediates stay cache-resident. This
//! module lets that premise be **checked** instead of assumed: feed the
//! exact address stream of a schedule through a modelled cache and count
//! the misses (see `perf-model`'s cache study and experiment E11).

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways/line, capacity
    /// not divisible into sets, or a non-power-of-two line size).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0 && self.line_bytes > 0, "degenerate cache");
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let per_set = self.ways * self.line_bytes;
        assert!(
            self.capacity_bytes >= per_set && self.capacity_bytes.is_multiple_of(per_set),
            "capacity must be a multiple of ways × line"
        );
        self.capacity_bytes / per_set
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (filled a line).
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 for an empty run).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Bytes fetched from the next level.
    pub fn miss_bytes(&self, line_bytes: usize) -> f64 {
        self.misses as f64 * line_bytes as f64
    }
}

/// A set-associative, LRU, single-level cache simulator.
///
/// # Examples
///
/// ```
/// use numa_sim::{CacheConfig, CacheSim};
/// let mut c = CacheSim::new(CacheConfig {
///     capacity_bytes: 4096,
///     ways: 4,
///     line_bytes: 64,
/// });
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(32));   // same line: hit
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: CacheConfig,
    /// Per set: tags in MRU-first order.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    line_shift: u32,
}

impl CacheSim {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        CacheSim {
            config,
            sets: vec![Vec::with_capacity(config.ways); sets],
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
        }
    }

    /// Touches the byte at `addr`; returns whether it hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // Hit: move to MRU.
            let t = set.remove(pos);
            set.insert(0, t);
            self.stats.hits += 1;
            true
        } else {
            // Miss: fill, evicting LRU if full.
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, line);
            self.stats.misses += 1;
            false
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: CacheConfig = CacheConfig {
        capacity_bytes: 1024,
        ways: 2,
        line_bytes: 64,
    };

    fn tiny() -> CacheSim {
        CacheSim::new(TINY) // 8 sets × 2 ways
    }

    #[test]
    fn geometry() {
        assert_eq!(TINY.sets(), 8);
    }

    #[test]
    fn spatial_locality_hits_within_a_line() {
        let mut c = tiny();
        assert!(!c.access(128));
        for b in 129..192 {
            assert!(c.access(b), "byte {b} must hit the fetched line");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 64);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: lines 0, 8, 16 (8 sets).
        let a = 0u64;
        let b = 8 * 64;
        let d = 16 * 64;
        c.access(a); // miss
        c.access(b); // miss (set full)
        c.access(a); // hit → a is MRU
        c.access(d); // miss → evicts b (LRU)
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b must have been evicted");
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny(); // 16 lines capacity
        let lines = 64u64;
        // Two sequential sweeps over 64 lines: zero reuse survives.
        for _ in 0..2 {
            for l in 0..lines {
                c.access(l * 64);
            }
        }
        assert_eq!(c.stats().misses, 2 * lines);
    }

    #[test]
    fn working_set_within_capacity_is_reused() {
        let mut c = tiny();
        let lines = 16u64; // exactly capacity, maps 2 per set
        for _ in 0..3 {
            for l in 0..lines {
                c.access(l * 64);
            }
        }
        // Cold misses only.
        assert_eq!(c.stats().misses, lines);
        assert_eq!(c.stats().hits, 2 * lines);
    }

    #[test]
    fn stats_helpers() {
        let mut c = tiny();
        c.access(0);
        c.access(1);
        let s = c.stats();
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.miss_bytes(64), 64.0);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic]
    fn degenerate_geometry_panics() {
        let _ = CacheSim::new(CacheConfig {
            capacity_bytes: 100,
            ways: 3,
            line_bytes: 48,
        });
    }
}
