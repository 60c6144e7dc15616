//! The one-pass all-sizes FIFO engine.
//!
//! FIFO shares almost all of the LRU engine's structure: the same
//! residency classes (configurations with equal block size, set count
//! and associativity make identical fill and eviction decisions under
//! FIFO too, since hits never disturb the queue), the same
//! front-packed set layout (fill order instead of recency order), and
//! the same permutation trick for keeping mask rows stationary. The
//! whole policy difference is one compile-time flag on the shared
//! reference step: hits update only the hit way's sub-block mask —
//! no block rotation, no permutation promotion — while misses are the
//! identical shift-and-fill at the back of the queue. Sentinel-filled
//! ways sink to the back and are consumed in fill order, which is
//! exactly the direct simulator's fill-the-first-empty-frame rule.

use occache_trace::{AccessKind, Address, MemRef};

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::metrics::Metrics;

use super::{run_classes, CounterBank, EngineCore, EngineKind, MultiSimError, SliceEngine};

/// The one-pass all-sizes FIFO engine: the FIFO sibling of
/// [`AllSizesLruEngine`](super::AllSizesLruEngine), bit-identical to
/// running [`simulate`](crate::simulate) per member configuration.
///
/// Construct with [`AllSizesFifoEngine::new`] over a slice of FIFO
/// configurations, or let [`simulate_many`](super::simulate_many)
/// dispatch here from the slice's policy.
#[derive(Debug, Clone)]
pub struct AllSizesFifoEngine {
    core: EngineCore,
}

impl AllSizesFifoEngine {
    /// Builds an engine for a compatible slice of FIFO configurations.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiSimError`] when the slice is empty or too wide,
    /// or a configuration needs an unsupported policy/geometry.
    pub fn new(configs: &[CacheConfig]) -> Result<Self, MultiSimError> {
        Ok(AllSizesFifoEngine {
            core: EngineCore::new(configs, ReplacementPolicy::Fifo)?,
        })
    }

    /// Presents one reference to every simulated configuration.
    pub fn access(&mut self, addr: Address, kind: AccessKind) {
        let lane = self.core.count_one(kind);
        let CounterBank {
            miss,
            evicted_blocks,
            evicted_referenced,
            ..
        } = &mut self.core.bank;
        let a = addr.value();
        for class in &mut self.core.classes {
            class.one::<true>(a, lane, miss, evicted_blocks, evicted_referenced);
        }
    }

    /// Feeds a run of references through the engine, class by class —
    /// the same chunked ingest fast path as the LRU engine, FIFO
    /// semantics selected at compile time.
    pub fn access_run(&mut self, refs: &[MemRef]) {
        self.core.decode_chunk(refs);
        let CounterBank {
            miss,
            evicted_blocks,
            evicted_referenced,
            ..
        } = &mut self.core.bank;
        run_classes::<true>(
            &mut self.core.classes,
            &self.core.scratch_addr,
            &self.core.scratch_lane,
            miss,
            evicted_blocks,
            evicted_referenced,
        );
    }

    /// Zeroes every configuration's metrics while keeping queue state —
    /// the warm-start discipline.
    pub fn reset_metrics(&mut self) {
        self.core.reset_metrics();
    }

    /// Metrics accumulated so far, in the order of the configurations
    /// given to [`AllSizesFifoEngine::new`].
    pub fn metrics(&self) -> Vec<Metrics> {
        self.core.metrics()
    }
}

impl SliceEngine for AllSizesFifoEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Fifo
    }

    fn access_run(&mut self, refs: &[MemRef]) {
        AllSizesFifoEngine::access_run(self, refs);
    }

    fn reset_metrics(&mut self) {
        AllSizesFifoEngine::reset_metrics(self);
    }

    fn metrics(&self) -> Vec<Metrics> {
        AllSizesFifoEngine::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg_policy, mixed_trace};
    use super::*;
    use crate::multisim::simulate_many;
    use crate::simulate;

    fn fifo(net: u64, block: u64, sub: u64) -> CacheConfig {
        cfg_policy(net, block, sub, ReplacementPolicy::Fifo)
    }

    #[test]
    fn matches_direct_simulation_across_sizes() {
        let configs = [
            fifo(64, 16, 8),
            fifo(256, 16, 8),
            fifo(1024, 16, 8),
            fifo(256, 16, 4),
            fifo(256, 32, 8),
        ];
        let trace = mixed_trace(20_000, 4096);
        let all = simulate_many(&configs, trace.iter().copied(), 0).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 0);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn matches_direct_simulation_with_warmup() {
        let configs = [fifo(64, 8, 2), fifo(256, 8, 2), fifo(1024, 8, 2)];
        let trace = mixed_trace(10_000, 2048);
        let all = simulate_many(&configs, trace.iter().copied(), 1_000).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 1_000);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn access_run_matches_per_reference_access() {
        let configs = [fifo(64, 16, 8), fifo(256, 16, 8)];
        let trace = mixed_trace(10_000, 2048);
        let mut chunked = AllSizesFifoEngine::new(&configs).unwrap();
        for chunk in trace.chunks(97) {
            chunked.access_run(chunk);
        }
        let mut one = AllSizesFifoEngine::new(&configs).unwrap();
        for r in &trace {
            one.access(r.address(), r.kind());
        }
        assert_eq!(chunked.metrics(), one.metrics());
    }

    #[test]
    fn tiny_caches_with_capped_associativity_match() {
        let configs = [fifo(32, 16, 8), fifo(64, 16, 8)];
        let trace = mixed_trace(5_000, 512);
        let all = simulate_many(&configs, trace.iter().copied(), 0).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            assert_eq!(
                *metrics,
                simulate(*config, trace.iter().copied(), 0),
                "{config}"
            );
        }
    }

    #[test]
    fn rejects_lru_members() {
        let lru = cfg_policy(64, 8, 4, ReplacementPolicy::Lru);
        assert!(matches!(
            AllSizesFifoEngine::new(&[lru]),
            Err(MultiSimError::Unsupported { .. })
        ));
    }
}
