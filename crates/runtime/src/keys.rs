//! Content addressing shared by the checkpoint journals, the serving
//! layer's result cache, and the artifact manifest.
//!
//! Every surface that identifies a design point by value uses the same
//! derivation: FNV-1a over the config's full `Debug` rendering, the
//! trace-set fingerprint, and the warm-up length. A cache entry in the
//! server therefore means exactly what a journal line means in a batch
//! run, which is what lets a `results/.checkpoint/` directory warm-start
//! the service.

use occache_core::CacheConfig;

use crate::eval::Trace;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher (no std `Hasher` indirection so the stream
/// fed in is explicit and stable across Rust versions).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte string: the hash behind journal record
/// checksums and the artifact manifest's content hashes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// A stable fingerprint of a trace set: names, lengths and every
/// reference. Two sweeps resume from each other's journals only when they
/// saw byte-identical traces.
///
/// The byte stream is, per trace in order: the name, `0xff`, the length
/// as a little-endian `u64`, then each reference's din label byte and
/// little-endian `u64` address. The name and length are hashed on every
/// call (`name` is public and a clone may rename it); the walk over the
/// references is memoized on the trace's shared backing, keyed by the
/// incoming FNV state, so fingerprinting the same set again costs a few
/// bytes per trace instead of nine per reference.
pub fn trace_fingerprint(traces: &[Trace]) -> u64 {
    let mut h = Fnv::new();
    for trace in traces {
        h.write(trace.name.as_bytes());
        h.write(&[0xff]);
        h.write(&(trace.len() as u64).to_le_bytes());
        h = Fnv(trace.memoized_walk(h.0, |state| walk_refs(Fnv(state), trace).0));
    }
    h.finish()
}

/// Folds every reference of `trace` into `h`: the full pass that
/// [`trace_fingerprint`] memoizes.
fn walk_refs(mut h: Fnv, trace: &Trace) -> Fnv {
    #[cfg(test)]
    tests::WALKED.with(|w| w.set(w.get() + trace.len() as u64));
    for r in trace.iter() {
        h.write(&[occache_trace::din::din_label(r.kind())]);
        h.write(&r.address().value().to_le_bytes());
    }
    h
}

/// A stable fingerprint of a config grid (full `Debug` rendering of each
/// config, in order) — recorded in the manifest and run report so a
/// verifier can tell whether an artifact was produced from the grid it
/// expects.
pub fn config_fingerprint(configs: &[CacheConfig]) -> u64 {
    let mut h = Fnv::new();
    for config in configs {
        h.write(format!("{config:?}").as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}

/// The journal key of one design point: config (its full `Debug`
/// rendering, which covers every field) + trace fingerprint + warm-up.
///
/// Random-replacement points additionally fold in the replacement seed
/// ([`occache_core::DEFAULT_RANDOM_SEED`] everywhere today): their
/// metrics are a function of the seed, so a journal resumed — or a
/// cluster peer consulted — after a seed change must miss rather than
/// serve another seed's numbers. Deterministic policies do *not* fold
/// the seed, keeping every existing LRU/FIFO journal and golden hash
/// valid.
pub fn point_key(config: &CacheConfig, fingerprint: u64, warmup: usize) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{config:?}").as_bytes());
    h.write(&fingerprint.to_le_bytes());
    h.write(&(warmup as u64).to_le_bytes());
    if config.replacement() == occache_core::ReplacementPolicy::Random {
        h.write(&occache_core::DEFAULT_RANDOM_SEED.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use occache_trace::{AccessKind, MemRef};

    use super::*;

    thread_local! {
        /// References [`walk_refs`] has folded on this thread.
        pub(super) static WALKED: Cell<u64> = const { Cell::new(0) };
    }

    fn walked() -> u64 {
        WALKED.with(Cell::get)
    }

    /// The documented byte layout, hashed from scratch with no memo.
    fn reference_fingerprint(traces: &[Trace]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for trace in traces {
            feed(trace.name.as_bytes());
            feed(&[0xff]);
            feed(&(trace.len() as u64).to_le_bytes());
            for r in trace.iter() {
                let label = match r.kind() {
                    AccessKind::DataRead => 0u8,
                    AccessKind::DataWrite => 1,
                    AccessKind::InstrFetch => 2,
                };
                feed(&[label]);
                feed(&r.address().value().to_le_bytes());
            }
        }
        h
    }

    fn trace(name: &str, len: u64, stride: u64) -> Trace {
        let refs = (0..len).map(|i| match i % 3 {
            0 => MemRef::read(i * stride),
            1 => MemRef::write(i * stride + 1),
            _ => MemRef::ifetch(i * stride + 2),
        });
        Trace::new(name, refs)
    }

    #[test]
    fn fingerprint_matches_the_documented_layout_memo_or_not() {
        let a = trace("A", 500, 4);
        let b = trace("B", 300, 8);
        let empty = trace("E", 0, 1);
        let set = vec![a.clone(), b.clone(), empty.clone()];
        let want = reference_fingerprint(&set);
        assert_eq!(trace_fingerprint(&set), want, "cold");
        assert_eq!(trace_fingerprint(&set), want, "repeated");
        let cloned: Vec<Trace> = set.to_vec();
        assert_eq!(trace_fingerprint(&cloned), want, "clone");

        let mut renamed = a.clone();
        renamed.name = "A2".into();
        let renamed_set = vec![renamed, b.clone()];
        assert_eq!(
            trace_fingerprint(&renamed_set),
            reference_fingerprint(&renamed_set),
            "renamed clone"
        );
        assert_eq!(
            trace_fingerprint(std::slice::from_ref(&empty)),
            reference_fingerprint(&[empty])
        );

        // One trace at different positions in two sets: a different
        // incoming state each time, so the memo must not leak across.
        let ab = vec![a.clone(), b.clone()];
        let ba = vec![b, a];
        for _ in 0..2 {
            assert_eq!(trace_fingerprint(&ab), reference_fingerprint(&ab));
            assert_eq!(trace_fingerprint(&ba), reference_fingerprint(&ba));
        }
        assert_ne!(trace_fingerprint(&ab), trace_fingerprint(&ba));
    }

    #[test]
    fn second_fingerprint_of_a_set_walks_no_references() {
        let set = vec![trace("X", 400, 4), trace("Y", 600, 2)];
        let before = walked();
        let first = trace_fingerprint(&set);
        assert_eq!(walked() - before, 1_000, "a cold set walks every reference");
        let before = walked();
        assert_eq!(trace_fingerprint(&set), first);
        assert_eq!(trace_fingerprint(&set.clone()), first);
        assert_eq!(walked() - before, 0, "a memoized set walks nothing");
    }

    #[test]
    fn concurrent_fingerprints_agree_and_walk_each_trace_once() {
        let set = vec![trace("P", 20_000, 4), trace("Q", 10_000, 8)];
        let want = reference_fingerprint(&set);
        let walks: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        assert_eq!(trace_fingerprint(&set), want);
                        walked()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fingerprint thread"))
                .collect()
        });
        assert_eq!(walks.iter().sum::<u64>(), 30_000, "{walks:?}");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn point_key_separates_warmup_and_fingerprint() {
        let config = occache_core::CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(4)
            .word_size(2)
            .build()
            .expect("valid geometry");
        let base = point_key(&config, 1, 0);
        assert_ne!(base, point_key(&config, 2, 0));
        assert_ne!(base, point_key(&config, 1, 100));
        assert_eq!(base, point_key(&config, 1, 0));
    }

    #[test]
    fn random_points_fold_the_seed_and_stay_stable() {
        use occache_core::ReplacementPolicy;
        let build = |policy| {
            occache_core::CacheConfig::builder()
                .net_size(64)
                .block_size(8)
                .sub_block_size(4)
                .word_size(2)
                .replacement(policy)
                .build()
                .expect("valid geometry")
        };
        // Stable across calls (journal resume and cluster routing key
        // on this), and distinct per policy — the Debug rendering
        // already separates policies; the seed fold must not collapse
        // that.
        let random = build(ReplacementPolicy::Random);
        assert_eq!(point_key(&random, 1, 0), point_key(&random, 1, 0));
        let keys = [
            point_key(&build(ReplacementPolicy::Lru), 1, 0),
            point_key(&build(ReplacementPolicy::Fifo), 1, 0),
            point_key(&random, 1, 0),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }
}
