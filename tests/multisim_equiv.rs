//! Property-based equivalence: the one-pass all-sizes LRU engine must
//! produce metrics **exactly equal** (every counter, hence every derived
//! ratio) to running the direct simulator once per configuration —
//! across random geometries (including sub-block < block), random
//! reference streams and random warm-up prefixes — and the sweep layer's
//! per-trace fold over it must equal the per-point average bit for bit.

use proptest::prelude::*;

use occache::core::{simulate, simulate_many, CacheConfig};
use occache::experiments::sweep::{evaluate_point, evaluate_slice, Trace};
use occache::trace::{AccessKind, Address, MemRef};

/// An arbitrary engine-eligible slice: one block size at up to four net
/// sizes with varying sub-block size, associativity and word size (the
/// slice contract: only the block size is shared). LRU, demand fetch and
/// write-through are the engine's domain; the direct simulator is the
/// reference for all of them.
fn arb_slice() -> impl Strategy<Value = Vec<CacheConfig>> {
    (
        0u32..=4, // block 2..32
        proptest::collection::vec((0u32..=4, 0u32..=3, 0u32..=1, 0u32..=4), 4),
        1usize..=4, // how many of the four size candidates to keep
    )
        .prop_filter_map(
            "slice must contain at least one valid power-of-two geometry",
            |(block_exp, sizes, take)| {
                let block = 2u64 << block_exp;
                let configs: Vec<CacheConfig> = sizes
                    .into_iter()
                    .take(take)
                    .filter_map(|(net_exp, ways_exp, word_exp, sub_exp)| {
                        CacheConfig::builder()
                            .net_size(32u64 << net_exp) // 32..512
                            .block_size(block)
                            .sub_block_size((2u64 << sub_exp).min(block)) // 2..block
                            .associativity(1u64 << ways_exp) // 1..8
                            .word_size(2u64 << word_exp) // 2 or 4
                            .build()
                            .ok()
                            .filter(occache::core::engine_supports)
                    })
                    .collect();
                (!configs.is_empty()).then_some(configs)
            },
        )
}

/// An arbitrary 2-byte-aligned reference stream over a 32 KB space.
fn arb_trace(len: usize) -> impl Strategy<Value = Vec<MemRef>> {
    proptest::collection::vec((0u64..16_384, 0usize..3), len).prop_map(|raw| {
        raw.into_iter()
            .map(|(word, kind)| {
                let kind = [
                    AccessKind::InstrFetch,
                    AccessKind::DataRead,
                    AccessKind::DataWrite,
                ][kind];
                MemRef::new(Address::new(word * 2), kind)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full `Metrics` equality (the type derives `Eq`, so this covers
    /// every counter: accesses, misses, fetch bytes, write-throughs,
    /// evictions and unreferenced-sub-block statistics) for every size
    /// in the slice, cold-start.
    #[test]
    fn engine_equals_direct_simulation(
        configs in arb_slice(),
        trace in arb_trace(600),
    ) {
        let all = simulate_many(&configs, trace.iter().copied(), 0)
            .expect("arb_slice only builds engine-eligible slices");
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 0);
            prop_assert_eq!(*metrics, direct, "{}", config);
        }
    }

    /// The same equality under the warm-start discipline: an arbitrary
    /// warm-up prefix is simulated but excluded from the counters. The
    /// sweep layer must keep it: a slice folded over two traces with a
    /// non-zero warm-up equals the per-point average bit for bit.
    #[test]
    fn engine_equals_direct_simulation_with_warmup(
        configs in arb_slice(),
        trace in arb_trace(600),
        other in arb_trace(600),
        warmup in 0usize..600,
    ) {
        let all = simulate_many(&configs, trace.iter().copied(), warmup)
            .expect("arb_slice only builds engine-eligible slices");
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), warmup);
            prop_assert_eq!(*metrics, direct, "{} warmup {}", config, warmup);
        }

        let warmup = warmup.max(1);
        let traces = [Trace::new("a", trace), Trace::new("b", other)];
        let sliced = evaluate_slice(&configs, &traces, warmup);
        for (config, s) in configs.iter().zip(&sliced) {
            let p = evaluate_point(*config, &traces, warmup);
            prop_assert_eq!(s.config, p.config);
            prop_assert_eq!(s.miss_ratio.to_bits(), p.miss_ratio.to_bits(), "{}", config);
            prop_assert_eq!(s.traffic_ratio.to_bits(), p.traffic_ratio.to_bits(), "{}", config);
            prop_assert_eq!(
                s.nibble_traffic_ratio.to_bits(),
                p.nibble_traffic_ratio.to_bits(),
                "{}",
                config
            );
            prop_assert_eq!(
                s.redundant_load_fraction.to_bits(),
                p.redundant_load_fraction.to_bits(),
                "{}",
                config
            );
        }
    }
}
