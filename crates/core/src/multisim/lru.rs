//! The permutation-packed all-sizes LRU engine.

use occache_trace::{AccessKind, Address, MemRef};

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::metrics::Metrics;

use super::{run_classes, CounterBank, EngineCore, EngineKind, MultiSimError, SliceEngine};

/// The one-pass all-sizes LRU engine. See the module docs for the
/// algorithm; construct with [`AllSizesLruEngine::new`] and drive with
/// [`access`](AllSizesLruEngine::access), or use
/// [`simulate_many`](super::simulate_many).
///
/// ```
/// use occache_core::{simulate, simulate_many, CacheConfig};
/// use occache_trace::MemRef;
///
/// let configs: Vec<CacheConfig> = [64u64, 256]
///     .iter()
///     .map(|&net| {
///         CacheConfig::builder()
///             .net_size(net)
///             .block_size(16)
///             .sub_block_size(8)
///             .word_size(2)
///             .build()
///             .expect("valid geometry")
///     })
///     .collect();
/// let trace: Vec<MemRef> = (0..500u64).map(|i| MemRef::read((i * 13) % 640 * 2)).collect();
/// let all = simulate_many(&configs, trace.iter().copied(), 0)?;
/// for (config, metrics) in configs.iter().zip(&all) {
///     assert_eq!(*metrics, simulate(*config, trace.iter().copied(), 0));
/// }
/// # Ok::<(), occache_core::MultiSimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AllSizesLruEngine {
    core: EngineCore,
}

impl AllSizesLruEngine {
    /// Builds an engine for a compatible slice of LRU configurations.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiSimError`] when the slice is empty or too wide,
    /// or a configuration needs an unsupported policy/geometry.
    pub fn new(configs: &[CacheConfig]) -> Result<Self, MultiSimError> {
        Ok(AllSizesLruEngine {
            core: EngineCore::new(configs, ReplacementPolicy::Lru)?,
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
            class.one::<false>(a, lane, miss, evicted_blocks, evicted_referenced);
        }
    }

    /// Feeds a run of references through the engine, class by class: the
    /// chunked ingest fast path the streamed evaluation loop drives, one
    /// buffer refill at a time, without materialising a whole trace.
    ///
    /// Residency classes are independent simulations, so processing the
    /// whole chunk for one class before the next is exactly equivalent
    /// to presenting each reference to every class in turn — and much
    /// faster, because each class's tight inner loop keeps its set
    /// state cache-resident and its branch history coherent instead of
    /// cycling through every class's working set per reference.
    pub fn access_run(&mut self, refs: &[MemRef]) {
        self.core.decode_chunk(refs);
        let CounterBank {
            miss,
            evicted_blocks,
            evicted_referenced,
            ..
        } = &mut self.core.bank;
        run_classes::<false>(
            &mut self.core.classes,
            &self.core.scratch_addr,
            &self.core.scratch_lane,
            miss,
            evicted_blocks,
            evicted_referenced,
        );
    }

    /// Zeroes every configuration's metrics while keeping cache state —
    /// the warm-start discipline, mirroring
    /// [`SubBlockCache::reset_metrics`](crate::SubBlockCache::reset_metrics).
    pub fn reset_metrics(&mut self) {
        self.core.reset_metrics();
    }

    /// Metrics accumulated so far, in the order of the configurations
    /// given to [`AllSizesLruEngine::new`]. Derived counters (fetch
    /// traffic, write-through bytes, evicted sub-slots) are expanded
    /// from the compact per-size counts here, exactly.
    pub fn metrics(&self) -> Vec<Metrics> {
        self.core.metrics()
    }
}

impl SliceEngine for AllSizesLruEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Lru
    }

    fn access_run(&mut self, refs: &[MemRef]) {
        AllSizesLruEngine::access_run(self, refs);
    }

    fn reset_metrics(&mut self) {
        AllSizesLruEngine::reset_metrics(self);
    }

    fn metrics(&self) -> Vec<Metrics> {
        AllSizesLruEngine::metrics(self)
    }
}
