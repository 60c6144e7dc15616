//! The one-pass all-sizes Random engine: a seeded, deterministic
//! replication of the direct simulator's random replacement.
//!
//! Random replacement has no stack structure to exploit, but the
//! residency-class argument still holds — and extends to the random
//! draws themselves. The direct simulator gives every cache its own
//! generator, seeded identically, and draws from it only on a
//! block miss in a full set. Configurations in one residency class see
//! the identical sequence of (miss, set-full) events in trace order, so
//! their caches consume identical draw sequences from identically
//! seeded generators and pick the same victims forever. One generator
//! per class therefore reproduces every member cache's decisions
//! exactly, and the engine stays bit-identical to
//! [`simulate`](crate::simulate) — not merely statistically alike.
//!
//! Unlike the stack engines, blocks keep **fixed physical positions**:
//! fills take the first empty way in order (the direct simulator's
//! fill-the-first-empty-frame rule, tracked by a per-set fill count),
//! replacements overwrite the drawn way in place, and the permutation
//! word stays at identity — mask row `w` simply belongs to physical
//! way `w`. The drawn victim index *is* the physical frame index, which
//! is exactly what `gen_range` produces in the direct simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use occache_trace::MemRef;

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::metrics::Metrics;

use super::{
    ClassState, CounterBank, EngineCore, EngineKind, MultiSimError, SliceEngine, EMPTY_WAY,
    MAX_MULTISIM_CONFIGS,
};

/// The one-pass all-sizes Random engine: the random-replacement sibling
/// of [`AllSizesLruEngine`](super::AllSizesLruEngine), bit-identical to
/// running [`simulate`](crate::simulate) (equivalently,
/// `SubBlockCache::with_seed` at this engine's seed) per member
/// configuration.
///
/// Construct with [`AllSizesRandomEngine::with_seed`] over a slice of
/// Random-replacement configurations, or let
/// [`simulate_many_seeded`](super::simulate_many_seeded) dispatch here
/// from the slice's policy.
#[derive(Debug, Clone)]
pub struct AllSizesRandomEngine {
    core: EngineCore,
    /// Per class: occupied-way count per set (the direct simulator's
    /// `filled`), driving the first-empty-frame fill rule.
    filled: Vec<Vec<u16>>,
    /// Per class: the replacement generator every member cache of that
    /// class would have drawn from.
    rngs: Vec<StdRng>,
}

impl AllSizesRandomEngine {
    /// Builds an engine for a compatible slice of Random-replacement
    /// configurations, seeding each residency class's generator with
    /// `seed` — pass [`DEFAULT_RANDOM_SEED`](crate::DEFAULT_RANDOM_SEED)
    /// to match [`simulate`](crate::simulate).
    ///
    /// # Errors
    ///
    /// Returns a [`MultiSimError`] when the slice is empty or too wide,
    /// or a configuration needs an unsupported policy/geometry.
    pub fn with_seed(configs: &[CacheConfig], seed: u64) -> Result<Self, MultiSimError> {
        let core = EngineCore::new(configs, ReplacementPolicy::Random)?;
        let filled = core
            .classes
            .iter()
            .map(|c| vec![0u16; (c.mask + 1) as usize])
            .collect();
        let rngs = core
            .classes
            .iter()
            .map(|_| StdRng::seed_from_u64(seed))
            .collect();
        Ok(AllSizesRandomEngine { core, filled, rngs })
    }

    /// Builds an engine at the direct simulator's default seed.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiSimError`] exactly as
    /// [`with_seed`](AllSizesRandomEngine::with_seed) would.
    pub fn new(configs: &[CacheConfig]) -> Result<Self, MultiSimError> {
        AllSizesRandomEngine::with_seed(configs, crate::DEFAULT_RANDOM_SEED)
    }

    /// Feeds a run of references through the engine, class by class.
    pub fn access_run(&mut self, refs: &[MemRef]) {
        self.core.decode_chunk(refs);
        let CounterBank {
            miss,
            evicted_blocks,
            evicted_referenced,
            ..
        } = &mut self.core.bank;
        for ((class, filled), rng) in self
            .core
            .classes
            .iter_mut()
            .zip(&mut self.filled)
            .zip(&mut self.rngs)
        {
            run_class(
                class,
                filled,
                rng,
                &self.core.scratch_addr,
                &self.core.scratch_lane,
                miss,
                evicted_blocks,
                evicted_referenced,
            );
        }
    }

    /// Zeroes every configuration's metrics while keeping cache *and
    /// generator* state — the warm-start discipline; the direct
    /// simulator's `reset_metrics` likewise leaves its generator alone.
    pub fn reset_metrics(&mut self) {
        self.core.reset_metrics();
    }

    /// Metrics accumulated so far, in the order of the configurations
    /// given to [`AllSizesRandomEngine::with_seed`].
    pub fn metrics(&self) -> Vec<Metrics> {
        self.core.metrics()
    }
}

/// One chunk through one residency class: probe physically, fill the
/// first empty way, or replace the drawn way in place.
#[allow(clippy::too_many_arguments)] // mirrors the shared runner signatures
fn run_class(
    class: &mut ClassState,
    filled: &mut [u16],
    rng: &mut StdRng,
    addrs: &[u64],
    lanes: &[u8],
    miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
    evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
    evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
) {
    let ClassState {
        shift,
        mask,
        assoc,
        meta,
        data,
        ..
    } = class;
    let shift = *shift;
    let set_mask = *mask;
    let ways = *assoc;
    let m = meta.len();
    let row_words = ways * (1 + m);
    for (&a, &lane) in addrs.iter().zip(lanes) {
        let block = a >> shift;
        let set = (block & set_mask) as usize;
        let base = set * row_words;
        let row = &mut data[base..base + row_words];
        // Probe every way (sentinels never match; resident block
        // numbers are distinct, so no early exit is needed).
        let mut j = usize::MAX;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 0..ways {
            if row[t] == block {
                j = t;
            }
        }
        let hit = j != usize::MAX;
        // Hit way; else first empty frame in fill order; else the
        // generator's draw — consumed *only* on a full-set miss, which
        // is what keeps the draw sequence identical to every member
        // cache's own generator.
        let way = if hit {
            j
        } else if usize::from(filled[set]) < ways {
            filled[set] += 1;
            usize::from(filled[set]) - 1
        } else {
            rng.gen_range(0..ways)
        };
        let mrow = ways + way * m;
        if !hit && row[way] != EMPTY_WAY {
            // Evicting a real block: record its referenced sub-blocks
            // for every member configuration before the refill below
            // overwrites the victim's masks.
            for (w, sm) in meta.iter().enumerate() {
                let si = usize::from(sm.si);
                evicted_blocks[si] += 1;
                evicted_referenced[si] += u64::from(row[mrow + w].count_ones());
            }
        }
        row[way] = block;
        let keep = u64::from(hit).wrapping_neg();
        let miss_ctr = &mut miss[usize::from(lane)];
        for (w, sm) in meta.iter().enumerate() {
            let bit = 1u64 << ((a >> sm.sub_shift) & sm.slot_mask);
            let old = row[mrow + w] & keep;
            miss_ctr[usize::from(sm.si) & (MAX_MULTISIM_CONFIGS - 1)] += u64::from(old & bit == 0);
            row[mrow + w] = old | bit;
        }
    }
}

impl SliceEngine for AllSizesRandomEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Random
    }

    fn access_run(&mut self, refs: &[MemRef]) {
        AllSizesRandomEngine::access_run(self, refs);
    }

    fn reset_metrics(&mut self) {
        AllSizesRandomEngine::reset_metrics(self);
    }

    fn metrics(&self) -> Vec<Metrics> {
        AllSizesRandomEngine::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg_policy, mixed_trace};
    use super::*;
    use crate::multisim::{simulate_many, simulate_many_seeded};
    use crate::{simulate, simulate_seeded};

    fn rnd(net: u64, block: u64, sub: u64) -> CacheConfig {
        cfg_policy(net, block, sub, ReplacementPolicy::Random)
    }

    #[test]
    fn matches_direct_simulation_across_sizes() {
        let configs = [
            rnd(64, 16, 8),
            rnd(256, 16, 8),
            rnd(1024, 16, 8),
            rnd(256, 16, 4),
            rnd(256, 32, 8),
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
        let configs = [rnd(64, 8, 2), rnd(256, 8, 2), rnd(1024, 8, 2)];
        let trace = mixed_trace(10_000, 2048);
        let all = simulate_many(&configs, trace.iter().copied(), 1_000).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 1_000);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn explicit_seeds_match_seeded_direct_simulation() {
        let configs = [rnd(64, 16, 8), rnd(256, 16, 8)];
        let trace = mixed_trace(10_000, 2048);
        for seed in [0u64, 9, 0xdead_beef] {
            let all = simulate_many_seeded(&configs, trace.iter().copied(), 0, seed).unwrap();
            for (config, metrics) in configs.iter().zip(&all) {
                let direct = simulate_seeded(*config, trace.iter().copied(), 0, seed);
                assert_eq!(*metrics, direct, "{config} seed {seed}");
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let configs = [rnd(64, 16, 8), rnd(256, 16, 8), rnd(1024, 16, 8)];
        let trace = mixed_trace(15_000, 4096);
        let a = simulate_many(&configs, trace.iter().copied(), 500).unwrap();
        let b = simulate_many(&configs, trace.iter().copied(), 500).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_lru_members() {
        let lru = cfg_policy(64, 8, 4, ReplacementPolicy::Lru);
        assert!(matches!(
            AllSizesRandomEngine::new(&[lru]),
            Err(MultiSimError::Unsupported { .. })
        ));
    }
}
