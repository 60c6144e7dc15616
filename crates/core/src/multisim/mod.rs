//! One-pass multi-configuration simulation, policy-generic.
//!
//! A *slice* is a set of configurations sharing demand fetch,
//! write-through accounting, power-of-two set counts and one replacement
//! policy — net size, block size, sub-block size, word size and
//! associativity may all differ per configuration. For such a slice a
//! single pass over a trace yields every configuration's metrics,
//! bit-identical to running [`simulate`](crate::simulate) once per
//! configuration. Three engines implement the pass, one per policy the
//! direct simulator knows:
//!
//! * [`AllSizesLruEngine`] (`lru` module) — the Mattson-style
//!   stack-simulation engine, permutation-packed recency per set.
//! * [`AllSizesFifoEngine`] (`fifo` module) — fill-order queues; FIFO
//!   has no inclusion property across associativities (CIPARSim's
//!   intersection property degenerates to exact class sharing), but the
//!   residency-class structure still collapses a whole grid into one
//!   pass.
//! * [`AllSizesRandomEngine`] (`random` module) — deterministic seeded
//!   replication of the direct simulator's per-cache RNG, one generator
//!   per residency class.
//!
//! All three sit behind the object-safe [`SliceEngine`] trait, and
//! [`ENGINE_REGISTRY`] maps a [`EngineKind`] to its builder — the seam
//! where future organisations (victim caches, way prediction) plug in
//! without touching the planner. [`simulate_many`] picks the engine
//! from the slice's policy, so callers never name a concrete engine
//! type.
//!
//! The machinery shared by the engines lives here: the deduplicated
//! **residency class** ([`ClassState`] — configurations with equal block
//! size, set count and associativity make identical residency and
//! victim decisions under LRU *and* FIFO, and share one RNG draw
//! sequence under Random, so they share block-level state), the
//! shape-specialised reference loops ([`SpecCtx`], const-generic over
//! way count and a `FIFO` flag so hit promotion compiles out), and the
//! flat per-configuration counter bank from which full [`Metrics`] are
//! reconstructed exactly (under demand fetch + write-through every
//! derived counter is a product of the counted/write misses and
//! eviction counts).
//!
//! Sub-block bitmasks are kept **per configuration** for each resident
//! way, because evictions (which clear them) happen at different times
//! for different cache sizes. Under demand fetch a sub-block is valid
//! exactly when it has been referenced, so one mask word per (way,
//! configuration) serves as both the valid and the referenced set.
//! Empty ways hold a sentinel block number (`u64::MAX`, which no real
//! block can equal once blocks span at least two bytes), so sets are
//! always structurally full and the insert path is one unified
//! shift-and-fill with eviction statistics gated on the victim being
//! real.
//!
//! What no engine expresses (callers fall back to [`simulate`]): the
//! prefetch and load-forward fetch policies (fill width depends on
//! per-size valid bits in ways that break the shared-pass structure),
//! copy-back write accounting (write-back bytes depend on per-size
//! dirty state at eviction), and geometries whose set count is not a
//! power of two (bit-selection needs one). The equivalence of every
//! engine to the direct simulator is enforced by property tests in
//! `tests/multisim_equiv.rs` and `tests/policy_equiv.rs`.
//!
//! [`simulate`]: crate::simulate

use std::error::Error;
use std::fmt;

use occache_trace::{AccessKind, MemRef};

use crate::config::{CacheConfig, FetchPolicy, ReplacementPolicy, WritePolicy};
use crate::metrics::{EngineCounters, Metrics};

mod fifo;
mod lru;
mod random;

pub use fifo::AllSizesFifoEngine;
pub use lru::AllSizesLruEngine;
pub use random::AllSizesRandomEngine;

/// Maximum configurations one engine instance simulates per pass.
///
/// Deduplicated residency classes make the residency cost per pass
/// depend on the distinct (block size, set count, associativity)
/// triples, not the slice width, so wide slices amortise the probes —
/// and the single pass over the trace — across more configurations
/// almost for free. The width is still bounded so the per-configuration
/// counter bank stays a few cache lines; planners chunk larger grids
/// into runs of at most this many.
pub const MAX_MULTISIM_CONFIGS: usize = 64;

/// Why a configuration (or a slice of them) cannot run on the one-pass
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiSimError {
    /// No configurations were given.
    NoConfigs,
    /// More than [`MAX_MULTISIM_CONFIGS`] configurations in one slice.
    TooManyConfigs {
        /// How many were given.
        given: usize,
    },
    /// A configuration uses a policy or geometry the engine cannot
    /// express; use the direct simulator for it.
    Unsupported {
        /// The offending configuration.
        config: CacheConfig,
        /// What exactly is unsupported.
        why: &'static str,
    },
}

impl fmt::Display for MultiSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiSimError::NoConfigs => f.write_str("no configurations to simulate"),
            MultiSimError::TooManyConfigs { given } => write!(
                f,
                "at most {MAX_MULTISIM_CONFIGS} configurations per one-pass slice, got {given}"
            ),
            MultiSimError::Unsupported { config, why } => {
                write!(f, "{config}: {why}")
            }
        }
    }
}

impl Error for MultiSimError {}

/// Which one-pass engine a slice runs on — one per replacement policy
/// the direct simulator implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineKind {
    /// The permutation-packed LRU stack engine.
    Lru,
    /// The fill-order-queue FIFO engine.
    Fifo,
    /// The seeded deterministic Random engine.
    Random,
}

impl EngineKind {
    /// Every engine kind, in planner dispatch order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Lru, EngineKind::Fifo, EngineKind::Random];

    /// Stable lowercase name (environment knobs, progress feeds,
    /// metrics labels).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Lru => "lru",
            EngineKind::Fifo => "fifo",
            EngineKind::Random => "random",
        }
    }

    /// Dense index into per-kind count arrays (`ALL[k.index()] == k`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a lowercase engine name as produced by
    /// [`as_str`](EngineKind::as_str) (case-insensitive).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| s.eq_ignore_ascii_case(k.as_str()))
    }

    /// The engine that can run `config` in one pass, or `None` when only
    /// the direct simulator can (prefetch/load-forward, copy-back,
    /// non-power-of-two sets, >16 ways).
    pub fn for_config(config: &CacheConfig) -> Option<EngineKind> {
        if supports_or_reason(config).is_some() {
            return None;
        }
        Some(match config.replacement() {
            ReplacementPolicy::Lru => EngineKind::Lru,
            ReplacementPolicy::Fifo => EngineKind::Fifo,
            ReplacementPolicy::Random => EngineKind::Random,
        })
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a single configuration is expressible on some one-pass
/// engine (demand fetch + write-through + power-of-two set count, any
/// replacement policy).
///
/// Configurations failing this must run on the direct simulator; see the
/// module docs for why each exclusion exists.
pub fn engine_supports(config: &CacheConfig) -> bool {
    supports_or_reason(config).is_none()
}

fn supports_or_reason(config: &CacheConfig) -> Option<&'static str> {
    if config.fetch() != FetchPolicy::Demand {
        return Some("one-pass simulation requires demand fetch");
    }
    if config.write_policy() != WritePolicy::WriteThrough {
        return Some("one-pass simulation requires write-through accounting");
    }
    let sets = config.num_sets();
    if !sets.is_power_of_two() || sets * config.effective_associativity() != config.num_blocks() {
        return Some("one-pass simulation requires a power-of-two set count");
    }
    if config.block_size() < 2 {
        return Some(
            "one-pass simulation requires block size >= 2 (block numbers reserve a sentinel)",
        );
    }
    if config.effective_associativity() > 16 {
        return Some(
            "one-pass simulation caps associativity at 16 ways (recency permutations pack into 4-bit fields)",
        );
    }
    None
}

/// One replacement policy's one-pass engine, behind an object-safe
/// interface so planners and evaluation loops never name a concrete
/// engine type.
///
/// All implementations promise the same contract the LRU engine always
/// had: [`metrics`](SliceEngine::metrics) is bit-identical to running
/// [`simulate`](crate::simulate) once per member configuration over the
/// same references, and [`reset_metrics`](SliceEngine::reset_metrics)
/// zeroes counters while keeping cache (and RNG) state for warm starts.
pub trait SliceEngine: Send {
    /// Which policy family this engine simulates.
    fn kind(&self) -> EngineKind;

    /// Feeds a run of references through every member configuration.
    fn access_run(&mut self, refs: &[MemRef]);

    /// Zeroes every configuration's metrics while keeping cache state —
    /// the warm-start discipline.
    fn reset_metrics(&mut self);

    /// Metrics accumulated so far, in member-configuration order.
    fn metrics(&self) -> Vec<Metrics>;
}

/// An [`EngineSpec`] builder: constructs an engine for a slice; `seed`
/// feeds policies with random state (deterministic engines ignore it).
pub type EngineBuilder = fn(&[CacheConfig], u64) -> Result<Box<dyn SliceEngine>, MultiSimError>;

/// One registered engine: the seam where a new organisation (victim
/// cache, way prediction, ...) plugs into the planner without touching
/// it — add a kind, a builder, and a registry row.
pub struct EngineSpec {
    /// The policy family the engine covers.
    pub kind: EngineKind,
    /// Builds an engine for a slice.
    pub build: EngineBuilder,
}

/// Every one-pass engine the planner can dispatch to, in
/// [`EngineKind::ALL`] order.
pub static ENGINE_REGISTRY: &[EngineSpec] = &[
    EngineSpec {
        kind: EngineKind::Lru,
        build: |configs, _seed| Ok(Box::new(AllSizesLruEngine::new(configs)?)),
    },
    EngineSpec {
        kind: EngineKind::Fifo,
        build: |configs, _seed| Ok(Box::new(AllSizesFifoEngine::new(configs)?)),
    },
    EngineSpec {
        kind: EngineKind::Random,
        build: |configs, seed| Ok(Box::new(AllSizesRandomEngine::with_seed(configs, seed)?)),
    },
];

/// Builds the one-pass engine matching a slice's replacement policy,
/// seeding random state with [`DEFAULT_RANDOM_SEED`](crate::DEFAULT_RANDOM_SEED)
/// — the direct simulator's default, so results stay bit-identical to
/// [`simulate`](crate::simulate).
///
/// # Errors
///
/// Returns a [`MultiSimError`] when the slice is empty, too wide, mixes
/// replacement policies, or contains an engine-inexpressible
/// configuration.
pub fn engine_for(configs: &[CacheConfig]) -> Result<Box<dyn SliceEngine>, MultiSimError> {
    engine_for_seeded(configs, crate::DEFAULT_RANDOM_SEED)
}

/// [`engine_for`] with an explicit seed for random-state policies.
///
/// # Errors
///
/// Returns a [`MultiSimError`] exactly as [`engine_for`] would.
pub fn engine_for_seeded(
    configs: &[CacheConfig],
    seed: u64,
) -> Result<Box<dyn SliceEngine>, MultiSimError> {
    let first = configs.first().ok_or(MultiSimError::NoConfigs)?;
    let kind = match EngineKind::for_config(first) {
        Some(kind) => kind,
        None => {
            return Err(MultiSimError::Unsupported {
                config: *first,
                why: supports_or_reason(first).unwrap_or("unsupported configuration"),
            });
        }
    };
    let spec = ENGINE_REGISTRY
        .iter()
        .find(|s| s.kind == kind)
        .expect("every engine kind has a registry row");
    (spec.build)(configs, seed)
}

/// Per-configuration eviction/miss accumulators plus the two slice-wide
/// access counters, kept as flat arrays so the per-size hot loops touch
/// a handful of cache lines instead of one `Metrics` struct per size.
#[derive(Debug, Clone, Copy)]
struct CounterBank {
    /// Counted accesses — identical for every configuration in a slice,
    /// so one scalar stands in for all of them.
    accesses: u64,
    /// Data writes — likewise slice-wide; write-through bytes are
    /// `write_accesses * word_size` per configuration at read-out.
    write_accesses: u64,
    /// Miss counters in two lanes — `miss[1]` counted (read/fetch)
    /// misses, `miss[0]` data-write misses — so the hot loops pick a
    /// lane by index instead of by branch.
    miss: [[u64; MAX_MULTISIM_CONFIGS]; 2],
    evicted_blocks: [u64; MAX_MULTISIM_CONFIGS],
    /// Referenced sub-blocks summed over evictions (the unreferenced
    /// count is `evicted_blocks * slots` minus this, per configuration).
    evicted_referenced: [u64; MAX_MULTISIM_CONFIGS],
}

impl Default for CounterBank {
    // Derived `Default` needs `[u64; N]: Default`, which the standard
    // library only provides up to 32 elements.
    fn default() -> Self {
        CounterBank {
            accesses: 0,
            write_accesses: 0,
            miss: [[0; MAX_MULTISIM_CONFIGS]; 2],
            evicted_blocks: [0; MAX_MULTISIM_CONFIGS],
            evicted_referenced: [0; MAX_MULTISIM_CONFIGS],
        }
    }
}

/// What the per-size update loop needs about one configuration of a
/// class, packed so the loop reads it sequentially.
#[derive(Debug, Clone, Copy)]
struct SizeMeta {
    /// Index of the configuration within the slice (counter bank slot).
    si: u8,
    /// log2 of the sub-block size.
    sub_shift: u32,
    /// `sub_blocks_per_block - 1`: selects the sub-slot bit index from
    /// the shifted address.
    slot_mask: u64,
}

/// Sentinel block number marking an unoccupied way.
///
/// With block size ≥ 2 (enforced by [`engine_supports`]) real block
/// numbers are at most `u64::MAX >> 1`, so the sentinel never collides
/// and sets can be treated as always full: the probe compares every way
/// and the fill path is the eviction path with its statistics masked
/// off.
const EMPTY_WAY: u64 = u64::MAX;

/// One deduplicated residency class: the set-mapped block-level state
/// shared by every configuration with this (block size, set count,
/// associativity) triple.
///
/// Configurations in one class make identical fill and eviction
/// decisions under LRU and FIFO alike — sub-block state never feeds
/// back into block-level residency — so the class is policy-agnostic
/// storage and the policy lives in how the runners update it.
///
/// `data` packs each set as `[block_0 .. block_{A-1},
/// masks_0 .. masks_{A-1}]` — the `A` resident block numbers
/// contiguous (so the probe reads one cache line) and in stack order
/// (LRU: recency, most recent first; FIFO: fill order, newest first),
/// followed by `A` rows of `m = meta.len()` member-configuration mask
/// words in **physical** order. Mask rows never move: moving a block
/// rotates only the block words, and the per-set entry of `perm` —
/// sixteen 4-bit fields mapping stack rank to physical mask row — is
/// updated instead. Rotating the mask rows too would make every
/// promotion copy `A * m` words through a store-to-load-forwarding
/// chain; one packed-permutation word update replaces all of that
/// traffic. Unoccupied ways hold [`EMPTY_WAY`] with zero masks, so
/// every set is structurally full and the hot path never consults an
/// occupancy count. (The Random engine reuses the same layout with
/// blocks at fixed physical positions and the permutation left at
/// identity; see [`random`].)
#[derive(Debug, Clone)]
struct ClassState {
    /// log2 of the block size: addresses shift down by this to become
    /// this class's block numbers.
    shift: u32,
    /// `num_sets - 1`: bit-selection set index mask over block numbers.
    mask: u64,
    /// Effective associativity (ways per set).
    assoc: usize,
    /// The slice configurations belonging to this class.
    meta: Vec<SizeMeta>,
    /// `num_sets * assoc * (1 + meta.len())` words of per-set state
    /// (see the struct docs for the layout).
    data: Vec<u64>,
    /// Per-set rank→physical-mask-row permutation, 4 bits per rank
    /// (which is why the engines cap associativity at 16 ways).
    perm: Vec<u64>,
}

/// The identity permutation: rank `r` maps to physical row `r`.
const IDENT_PERM: u64 = 0xFEDC_BA98_7654_3210;

/// Promotes rank `pos` of a packed permutation to rank 0, shifting
/// ranks `0..pos` up by one — the stack rotation, applied to the
/// 4-bit fields instead of the mask rows they name.
#[inline]
fn promote(perm: u64, pos: usize) -> u64 {
    let lo_mask = u64::MAX >> (60 - 4 * pos);
    let moved = (perm >> (4 * pos)) & 15;
    (perm & !lo_mask) | ((perm << 4) & lo_mask) | moved
}

/// Chunk-loop context for one class in a shape-specialised runner:
/// per-chunk tables, borrowed set state, and chunk-local counters.
///
/// Chunk-local miss counters, flushed once by [`SpecCtx::flush`]: the
/// shared bank's slots are the same few addresses every reference, and
/// a read-modify-write there each iteration serialises the loop on
/// store-to-load forwarding. Total and write-lane-only counts (plain
/// arrays, no per-reference lane indexing) let the register allocator
/// keep them live.
///
/// Factoring the per-reference step into [`SpecCtx::visit`] lets one
/// reference loop drive either a single class ([`ClassState::run_spec`])
/// or two classes interleaved ([`run_pair_spec`]); see the latter for
/// why interleaving pays. `visit` is const-generic over a `FIFO` flag:
/// with it set, hits update only the hit way's mask row — no block
/// rotation, no permutation update — which is exactly the direct
/// simulator's "hits do not disturb the queue" FIFO semantics, and the
/// miss path (shift-and-fill at the back) is shared with LRU.
struct SpecCtx<'a, const M: usize> {
    shift: u32,
    set_mask: u64,
    /// Finest member sub-block granularity; block offsets are taken at
    /// this grain when indexing `bit_table`.
    min_shift: u32,
    off_mask: u64,
    /// Per-offset sub-block bit per member; see [`SpecCtx::new`].
    bit_table: [[u64; M]; 32],
    data: &'a mut [u64],
    perms: &'a mut [u64],
    /// Member slice indices, pre-masked so the flush indexes unchecked.
    si: [usize; M],
    miss_total: [u64; M],
    miss_write: [u64; M],
    evb: u64,
    evr: [u64; M],
}

impl<'a, const M: usize> SpecCtx<'a, M> {
    #[inline(always)]
    fn new<const WAYS: usize>(class: &'a mut ClassState) -> Self {
        debug_assert_eq!(class.assoc, WAYS);
        debug_assert_eq!(class.meta.len(), M);
        let mut sub_shift = [0u32; M];
        let mut slot_mask = [0u64; M];
        let mut si = [0usize; M];
        for (w, sm) in class.meta.iter().enumerate() {
            sub_shift[w] = sm.sub_shift;
            slot_mask[w] = sm.slot_mask;
            // Slice indices are < MAX_MULTISIM_CONFIGS by construction;
            // the mask proves it to the optimiser so the counter
            // updates in `flush` index unchecked.
            si[w] = usize::from(sm.si) & (MAX_MULTISIM_CONFIGS - 1);
        }
        // Every member's sub-block bit depends only on the address's
        // offset within the block, and the offset has at most
        // block/min-sub ≤ 32 distinct values — so the two shifts and
        // the mask-and-shift per member per reference collapse to one
        // load from this table, rebuilt per chunk on the stack (≤ 1.5 KB,
        // L1-hot).
        let shift = class.shift;
        let min_shift = sub_shift.iter().copied().min().unwrap_or(0);
        let off_bits = shift - min_shift;
        debug_assert!(off_bits <= 5, "block/sub ratio capped at 32 by Table 1");
        let off_mask = (1u64 << off_bits) - 1;
        let mut bit_table = [[0u64; M]; 32];
        for (off, bits) in bit_table.iter_mut().enumerate().take(1 << off_bits) {
            for w in 0..M {
                let slot = ((off as u64) >> (sub_shift[w] - min_shift)) & slot_mask[w];
                bits[w] = 1u64 << slot;
            }
        }
        let set_mask = class.mask;
        let data = &mut class.data[..];
        let perms = &mut class.perm[..];
        // Two length proofs ahead of the reference loop: every set
        // index in `visit` is `block & set_mask`, so `base + row_words`
        // never exceeds `(set_mask + 1) * row_words` — with the
        // equalities pinned here the per-reference row slicing and
        // permutation access compile without bounds checks.
        assert_eq!(data.len(), (set_mask as usize + 1) * (WAYS * (1 + M)));
        assert_eq!(perms.len(), set_mask as usize + 1);
        SpecCtx {
            shift,
            set_mask,
            min_shift,
            off_mask,
            bit_table,
            data,
            perms,
            si,
            miss_total: [0u64; M],
            miss_write: [0u64; M],
            evb: 0,
            evr: [0u64; M],
        }
    }

    /// Presents one reference to this class: the entire per-reference
    /// step of the specialised runners. With `FIFO` set, hits touch
    /// only the hit way's mask row; the queue and permutation move on
    /// misses alone.
    #[inline(always)]
    fn visit<const WAYS: usize, const FIFO: bool>(&mut self, a: u64, wmask: u64) {
        let row_words = WAYS * (1 + M);
        let block = a >> self.shift;
        let set = (block & self.set_mask) as usize;
        let base = set * row_words;
        let data = &mut *self.data;
        let perms = &mut *self.perms;
        let row = &mut data[base..base + row_words];
        let bits = &self.bit_table[((a >> self.min_shift) & self.off_mask) as usize];
        // Top-two fast path: hits on the two newest ways cover both
        // straight-line reuse and the in-set ping-pong of two
        // interleaved streams (instruction fetches alternating with
        // data references), so this branch predicts far better than
        // a front-way-only check — and which of the two ways hit is
        // resolved with selects, not a second branch. Mask rows are
        // physical: only the hit way's row is touched, found through
        // the permutation word. Under LRU a way-1 hit swaps the two
        // front permutation fields instead of moving any masks; under
        // FIFO hits move nothing at all.
        let p = perms[set];
        if WAYS >= 2 {
            let h1 = row[1] == block;
            if row[0] == block || h1 {
                let phys0 = (p as usize) & (WAYS - 1);
                let phys1 = ((p >> 4) as usize) & (WAYS - 1);
                let mrow = WAYS + if h1 { phys1 } else { phys0 } * M;
                if !FIFO {
                    let b0 = row[0];
                    row[0] = block;
                    row[1] = if h1 { b0 } else { row[1] };
                    let swapped = (p & !0xFF) | (((p & 15) << 4) | ((p >> 4) & 15));
                    perms[set] = if h1 { swapped } else { p };
                }
                for w in 0..M {
                    let bit = bits[w];
                    let old = row[mrow + w];
                    let missed = u64::from(old & bit == 0);
                    self.miss_total[w] += missed;
                    self.miss_write[w] += missed & wmask;
                    row[mrow + w] = old | bit;
                }
                return;
            }
        } else if row[0] == block {
            for w in 0..M {
                let bit = bits[w];
                let old = row[WAYS + w];
                let missed = u64::from(old & bit == 0);
                self.miss_total[w] += missed;
                self.miss_write[w] += missed & wmask;
                row[WAYS + w] = old | bit;
            }
            return;
        }
        // Ways 0 and 1 were just probed (way 0 alone when WAYS is
        // 1), so the scan starts at 2 — empty for 1- and 2-way sets,
        // where falling through means a miss.
        let mut j = usize::MAX;
        #[allow(clippy::needless_range_loop)] // select scan: stay branch-free
        for t in 2..WAYS {
            if row[t] == block {
                j = t;
            }
        }
        let hit = j != usize::MAX;
        let pos = if hit { j } else { WAYS - 1 };
        let mrow = WAYS + (((p >> (4 * pos)) as usize) & (WAYS - 1)) * M;
        // Eviction of a real block is the rarest outcome; keeping
        // its statistics behind a branch spares the common paths
        // the victim-mask loads and counter read-modify-writes. The
        // victim's masks live in the row about to be refilled, read
        // here before the update loop overwrites them.
        if !hit && row[WAYS - 1] != EMPTY_WAY {
            self.evb += 1;
            for w in 0..M {
                self.evr[w] += u64::from(row[mrow + w].count_ones());
            }
        }
        // All-ones when hit: masks the old way's words so the miss
        // case sees zeros without a separate arm.
        let keep = u64::from(hit).wrapping_neg();
        for w in 0..M {
            let bit = bits[w];
            let old = row[mrow + w] & keep;
            let missed = u64::from(old & bit == 0);
            self.miss_total[w] += missed;
            self.miss_write[w] += missed & wmask;
            row[mrow + w] = old | bit;
        }
        // FIFO hits leave the queue untouched — only misses shift the
        // block words and rotate the permutation (and for FIFO a miss
        // always has pos == WAYS - 1: pure shift-and-fill at the back,
        // consuming sentinels in fill order while any remain).
        if FIFO && hit {
            return;
        }
        // Shift block words right where their slot index is ≤ pos,
        // leave the rest: with const bounds this unrolls to pure
        // load/select/store, no branch on `pos`. The mask rows stay
        // put — the permutation promotion below is the whole of the
        // stack bookkeeping for them.
        for t in (1..WAYS).rev() {
            let shifted = row[t - 1];
            let kept = row[t];
            row[t] = if t <= pos { shifted } else { kept };
        }
        row[0] = block;
        perms[set] = promote(p, pos);
    }

    /// Folds the chunk-local counters into the shared bank.
    fn flush(
        self,
        miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
        evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
        evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
    ) {
        for w in 0..M {
            miss[1][self.si[w]] += self.miss_total[w] - self.miss_write[w];
            miss[0][self.si[w]] += self.miss_write[w];
            evicted_blocks[self.si[w]] += self.evb;
            evicted_referenced[self.si[w]] += self.evr[w];
        }
    }
}

/// Runs one pre-decoded chunk through two same-shape classes with
/// their per-reference steps interleaved in a single loop.
///
/// A class's step for reference `i+1` frequently chains on its step
/// for reference `i` through store-to-load forwarding — sequential
/// code keeps hitting the same set, so the permutation word and the
/// front block words are stored and immediately reloaded. Interleaving
/// two classes puts a second, fully independent dependency chain in
/// the out-of-order window, overlapping those stalls (and sharing the
/// one address load per reference); measured on the Table 7 grid this
/// is worth roughly a third of the pass.
fn run_pair_spec<const WAYS: usize, const MA: usize, const MB: usize, const FIFO: bool>(
    first: &mut ClassState,
    second: &mut ClassState,
    addrs: &[u64],
    lanes: &[u8],
    miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
    evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
    evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
) {
    let mut ca = SpecCtx::<MA>::new::<WAYS>(first);
    let mut cb = SpecCtx::<MB>::new::<WAYS>(second);
    for (&a, &lane) in addrs.iter().zip(lanes) {
        // All-ones for data writes (lane 0), zero for counted refs.
        let wmask = u64::from(lane & 1).wrapping_sub(1);
        ca.visit::<WAYS, FIFO>(a, wmask);
        cb.visit::<WAYS, FIFO>(a, wmask);
    }
    ca.flush(miss, evicted_blocks, evicted_referenced);
    cb.flush(miss, evicted_blocks, evicted_referenced);
}

/// Runs a chunk through every class, pairing adjacent 4-way classes so
/// their loops interleave (see [`run_pair_spec`]); classes that cannot
/// pair — odd one out, non-4-way, or too many members for a
/// specialisation — run alone via [`ClassState::run`].
///
/// Pairing never changes results (classes are independent); it only
/// changes how their per-reference steps are scheduled. Policy comes in
/// through the const `FIFO` flag — the LRU and FIFO engines share this
/// scheduler.
fn run_classes<const FIFO: bool>(
    classes: &mut [ClassState],
    addrs: &[u64],
    lanes: &[u8],
    miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
    evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
    evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
) {
    let mut i = 0;
    while i < classes.len() {
        if i + 1 < classes.len() {
            let (head, tail) = classes.split_at_mut(i + 1);
            let a = &mut head[i];
            let b = &mut tail[0];
            if a.assoc == 4 && b.assoc == 4 {
                macro_rules! pair {
                    ($ma:literal, $mb:literal) => {{
                        run_pair_spec::<4, $ma, $mb, FIFO>(
                            a,
                            b,
                            addrs,
                            lanes,
                            miss,
                            evicted_blocks,
                            evicted_referenced,
                        );
                        true
                    }};
                }
                let paired = match (a.meta.len(), b.meta.len()) {
                    (1, 1) => pair!(1, 1),
                    (1, 2) => pair!(1, 2),
                    (1, 3) => pair!(1, 3),
                    (1, 4) => pair!(1, 4),
                    (1, 5) => pair!(1, 5),
                    (1, 6) => pair!(1, 6),
                    (2, 1) => pair!(2, 1),
                    (2, 2) => pair!(2, 2),
                    (2, 3) => pair!(2, 3),
                    (2, 4) => pair!(2, 4),
                    (2, 5) => pair!(2, 5),
                    (2, 6) => pair!(2, 6),
                    (3, 1) => pair!(3, 1),
                    (3, 2) => pair!(3, 2),
                    (3, 3) => pair!(3, 3),
                    (3, 4) => pair!(3, 4),
                    (3, 5) => pair!(3, 5),
                    (3, 6) => pair!(3, 6),
                    (4, 1) => pair!(4, 1),
                    (4, 2) => pair!(4, 2),
                    (4, 3) => pair!(4, 3),
                    (4, 4) => pair!(4, 4),
                    (4, 5) => pair!(4, 5),
                    (4, 6) => pair!(4, 6),
                    (5, 1) => pair!(5, 1),
                    (5, 2) => pair!(5, 2),
                    (5, 3) => pair!(5, 3),
                    (5, 4) => pair!(5, 4),
                    (5, 5) => pair!(5, 5),
                    (5, 6) => pair!(5, 6),
                    (6, 1) => pair!(6, 1),
                    (6, 2) => pair!(6, 2),
                    (6, 3) => pair!(6, 3),
                    (6, 4) => pair!(6, 4),
                    (6, 5) => pair!(6, 5),
                    (6, 6) => pair!(6, 6),
                    _ => false,
                };
                if paired {
                    i += 2;
                    continue;
                }
            }
        }
        classes[i].run::<FIFO>(addrs, lanes, miss, evicted_blocks, evicted_referenced);
        i += 1;
    }
}

impl ClassState {
    /// Presents one reference (`lane` 1 = counted, 0 = data write) to
    /// this class and its member configurations. Generic fallback for
    /// shapes [`ClassState::run`] has no specialisation for, and the
    /// single-reference `access` paths.
    fn one<const FIFO: bool>(
        &mut self,
        a: u64,
        lane: usize,
        miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
        evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
        evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
    ) {
        let block = a >> self.shift;
        let ways = self.assoc;
        let m = self.meta.len();
        let set = (block & self.mask) as usize;
        let base = set * ways * (1 + m);
        let row = &mut self.data[base..base + ways * (1 + m)];
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
        // The way being replaced at the front: the hit way, or the
        // oldest way (victim) on a miss.
        let pos = if hit { j } else { ways - 1 };
        let perm = &mut self.perm[set];
        // The mask row of the touched way never moves; the permutation
        // names it and is rotated in its stead below.
        let mrow = ways + (((*perm >> (4 * pos)) & 15) as usize) * m;
        let miss_ctr = &mut miss[lane];
        if FIFO && hit {
            // FIFO hits leave the queue and permutation untouched;
            // only the hit way's mask rows pick up the sub-block.
            for (w, sm) in self.meta.iter().enumerate() {
                let bit = 1u64 << ((a >> sm.sub_shift) & sm.slot_mask);
                let old = row[mrow + w];
                miss_ctr[usize::from(sm.si) & (MAX_MULTISIM_CONFIGS - 1)] +=
                    u64::from(old & bit == 0);
                row[mrow + w] = old | bit;
            }
            return;
        }
        if !hit && row[ways - 1] != EMPTY_WAY {
            // Evicting a real block: record its referenced sub-blocks
            // for every member configuration before the refill below
            // overwrites the victim's masks.
            for (w, sm) in self.meta.iter().enumerate() {
                let si = usize::from(sm.si);
                evicted_blocks[si] += 1;
                evicted_referenced[si] += u64::from(row[mrow + w].count_ones());
            }
        }
        // Rotate block words 0..=pos right by one — the pos way (hit or
        // victim) lands at slot 0 — and promote the permutation to
        // match; the mask rows stay put.
        row[..pos + 1].rotate_right(1);
        row[0] = block;
        *perm = promote(*perm, pos);
        let keep = u64::from(hit).wrapping_neg();
        for (w, sm) in self.meta.iter().enumerate() {
            let bit = 1u64 << ((a >> sm.sub_shift) & sm.slot_mask);
            let old = row[mrow + w] & keep;
            miss_ctr[usize::from(sm.si) & (MAX_MULTISIM_CONFIGS - 1)] += u64::from(old & bit == 0);
            row[mrow + w] = old | bit;
        }
    }

    /// Runs a whole pre-decoded chunk of references through this class,
    /// dispatching to a shape-specialised inner loop when one exists.
    ///
    /// The specialisations cover every (associativity, member-count)
    /// shape the paper grids produce; anything else falls back to the
    /// generic per-reference path, which is exact but branchier.
    fn run<const FIFO: bool>(
        &mut self,
        addrs: &[u64],
        lanes: &[u8],
        miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
        evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
        evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
    ) {
        macro_rules! spec {
            ($w:literal, $m:literal) => {
                self.run_spec::<$w, $m, FIFO>(
                    addrs,
                    lanes,
                    miss,
                    evicted_blocks,
                    evicted_referenced,
                )
            };
        }
        match (self.assoc, self.meta.len()) {
            (1, 1) => spec!(1, 1),
            (1, 2) => spec!(1, 2),
            (1, 3) => spec!(1, 3),
            (1, 4) => spec!(1, 4),
            (1, 5) => spec!(1, 5),
            (1, 6) => spec!(1, 6),
            (2, 1) => spec!(2, 1),
            (2, 2) => spec!(2, 2),
            (2, 3) => spec!(2, 3),
            (2, 4) => spec!(2, 4),
            (2, 5) => spec!(2, 5),
            (2, 6) => spec!(2, 6),
            (4, 1) => spec!(4, 1),
            (4, 2) => spec!(4, 2),
            (4, 3) => spec!(4, 3),
            (4, 4) => spec!(4, 4),
            (4, 5) => spec!(4, 5),
            (4, 6) => spec!(4, 6),
            (8, 1) => spec!(8, 1),
            (8, 2) => spec!(8, 2),
            _ => {
                for (&a, &lane) in addrs.iter().zip(lanes) {
                    self.one::<FIFO>(
                        a,
                        usize::from(lane),
                        miss,
                        evicted_blocks,
                        evicted_referenced,
                    );
                }
            }
        }
    }

    /// The shape-specialised inner loop: `WAYS`-way sets with `M`
    /// member configurations, both const so every way-loop and
    /// size-loop in [`SpecCtx::visit`] fully unrolls and the hit/miss
    /// arms collapse to straight-line selects.
    ///
    /// Must be exactly equivalent to calling [`ClassState::one`] per
    /// reference; `access_run_matches_per_reference_access` and the
    /// equivalence proptests enforce this.
    fn run_spec<const WAYS: usize, const M: usize, const FIFO: bool>(
        &mut self,
        addrs: &[u64],
        lanes: &[u8],
        miss: &mut [[u64; MAX_MULTISIM_CONFIGS]; 2],
        evicted_blocks: &mut [u64; MAX_MULTISIM_CONFIGS],
        evicted_referenced: &mut [u64; MAX_MULTISIM_CONFIGS],
    ) {
        let mut ctx = SpecCtx::<M>::new::<WAYS>(self);
        for (&a, &lane) in addrs.iter().zip(lanes) {
            // All-ones for data writes (lane 0), zero for counted refs.
            let wmask = u64::from(lane & 1).wrapping_sub(1);
            ctx.visit::<WAYS, FIFO>(a, wmask);
        }
        ctx.flush(miss, evicted_blocks, evicted_referenced);
    }
}

/// The construction, chunk-decode and read-out machinery every engine
/// shares: per-slice residency classes, the counter bank, the per-size
/// read-out tables, and the chunk scratch buffers. Engines wrap this
/// and differ only in how they run a decoded chunk through the classes.
#[derive(Debug, Clone)]
struct EngineCore {
    /// Number of configurations (prefix of the per-size arrays).
    n: usize,
    classes: Vec<ClassState>,
    sub_size: [u64; MAX_MULTISIM_CONFIGS],
    /// Sub-block slots per block, as recorded in eviction statistics.
    slots: [u64; MAX_MULTISIM_CONFIGS],
    /// Bus word size (write-through accounting).
    word_size: [u64; MAX_MULTISIM_CONFIGS],
    bank: CounterBank,
    /// Chunk scratch: addresses decoded once per `access_run` chunk so
    /// the per-class passes read plain words instead of re-decoding
    /// every reference per class.
    scratch_addr: Vec<u64>,
    /// Chunk scratch: counter lane per reference (1 counted, 0 write).
    scratch_lane: Vec<u8>,
}

impl EngineCore {
    /// Validates a slice for `policy` and builds its residency classes.
    fn new(configs: &[CacheConfig], policy: ReplacementPolicy) -> Result<Self, MultiSimError> {
        if configs.is_empty() {
            return Err(MultiSimError::NoConfigs);
        }
        if configs.len() > MAX_MULTISIM_CONFIGS {
            return Err(MultiSimError::TooManyConfigs {
                given: configs.len(),
            });
        }
        for &config in configs {
            if let Some(why) = supports_or_reason(&config) {
                return Err(MultiSimError::Unsupported { config, why });
            }
            if config.replacement() != policy {
                return Err(MultiSimError::Unsupported {
                    config,
                    why: "a one-pass slice must not mix replacement policies \
                          (the planner groups per policy)",
                });
            }
        }
        let mut classes: Vec<ClassState> = Vec::new();
        let mut sub_size = [0u64; MAX_MULTISIM_CONFIGS];
        let mut slots = [0u64; MAX_MULTISIM_CONFIGS];
        let mut word_size = [0u64; MAX_MULTISIM_CONFIGS];
        for (si, c) in configs.iter().enumerate() {
            let shift = c.block_size().trailing_zeros();
            let mask = c.num_sets() - 1;
            let assoc = c.effective_associativity() as usize;
            let class = match classes
                .iter_mut()
                .find(|x| x.shift == shift && x.mask == mask && x.assoc == assoc)
            {
                Some(class) => class,
                None => {
                    classes.push(ClassState {
                        shift,
                        mask,
                        assoc,
                        meta: Vec::new(),
                        data: Vec::new(),
                        perm: Vec::new(),
                    });
                    classes.last_mut().expect("just pushed")
                }
            };
            class.meta.push(SizeMeta {
                si: si as u8,
                sub_shift: c.sub_block_size().trailing_zeros(),
                slot_mask: c.sub_blocks_per_block() - 1,
            });
            sub_size[si] = c.sub_block_size();
            slots[si] = c.sub_blocks_per_block();
            word_size[si] = c.word_size();
        }
        // Set state is sized once membership is final: per way, one
        // block word plus one mask word per member configuration, the
        // block words leading each set and initialised to the sentinel.
        for class in &mut classes {
            let sets = (class.mask + 1) as usize;
            let set_words = class.assoc * (1 + class.meta.len());
            class.data = vec![0; sets * set_words];
            for set in class.data.chunks_exact_mut(set_words) {
                set[..class.assoc].fill(EMPTY_WAY);
            }
            class.perm = vec![IDENT_PERM; sets];
        }
        Ok(EngineCore {
            n: configs.len(),
            classes,
            sub_size,
            slots,
            word_size,
            bank: CounterBank::default(),
            scratch_addr: Vec::new(),
            scratch_lane: Vec::new(),
        })
    }

    /// Decodes one chunk into the address/lane scratch and folds the
    /// access totals into the bank.
    fn decode_chunk(&mut self, refs: &[MemRef]) {
        self.scratch_addr.clear();
        self.scratch_lane.clear();
        for r in refs {
            let counted = u8::from(r.kind().is_counted());
            self.bank.accesses += u64::from(counted);
            self.bank.write_accesses += u64::from(1 - counted);
            self.scratch_addr.push(r.address().value());
            self.scratch_lane.push(counted);
        }
    }

    /// Folds one reference's access totals into the bank (per-reference
    /// `access` paths) and returns its counter lane.
    fn count_one(&mut self, kind: AccessKind) -> usize {
        let counted = u64::from(kind.is_counted());
        self.bank.accesses += counted;
        self.bank.write_accesses += 1 - counted;
        counted as usize
    }

    /// Zeroes every configuration's metrics while keeping cache state.
    fn reset_metrics(&mut self) {
        self.bank = CounterBank::default();
    }

    /// Expands the compact per-size counters into full [`Metrics`],
    /// exactly.
    fn metrics(&self) -> Vec<Metrics> {
        (0..self.n)
            .map(|si| {
                Metrics::from_engine(
                    self.word_size[si],
                    self.sub_size[si],
                    self.slots[si],
                    EngineCounters {
                        accesses: self.bank.accesses,
                        write_accesses: self.bank.write_accesses,
                        misses: self.bank.miss[1][si],
                        write_misses: self.bank.miss[0][si],
                        evicted_blocks: self.bank.evicted_blocks[si],
                        evicted_referenced_subs: self.bank.evicted_referenced[si],
                    },
                )
            })
            .collect()
    }
}

/// Simulates a whole trace against a compatible slice of configurations
/// in one pass, returning per-configuration metrics in input order.
///
/// The one-pass counterpart of [`simulate`](crate::simulate): `warmup`
/// references prime the caches and are excluded from the metrics, and
/// every returned [`Metrics`] is bit-identical to what
/// `simulate(configs[i], refs, warmup)` would produce. The engine is
/// chosen by the slice's replacement policy; Random slices are seeded
/// with [`DEFAULT_RANDOM_SEED`](crate::DEFAULT_RANDOM_SEED), matching
/// the direct simulator's default.
///
/// # Errors
///
/// Returns a [`MultiSimError`] when the slice cannot run on any engine;
/// see [`engine_supports`] for the per-configuration conditions.
pub fn simulate_many<I>(
    configs: &[CacheConfig],
    refs: I,
    warmup: usize,
) -> Result<Vec<Metrics>, MultiSimError>
where
    I: IntoIterator<Item = MemRef>,
{
    simulate_many_seeded(configs, refs, warmup, crate::DEFAULT_RANDOM_SEED)
}

/// [`simulate_many`] with an explicit seed for random-state policies —
/// bit-identical to `simulate_seeded(configs[i], refs, warmup, seed)`
/// per member (deterministic engines ignore the seed).
///
/// # Errors
///
/// Returns a [`MultiSimError`] exactly as [`simulate_many`] would.
pub fn simulate_many_seeded<I>(
    configs: &[CacheConfig],
    refs: I,
    warmup: usize,
    seed: u64,
) -> Result<Vec<Metrics>, MultiSimError>
where
    I: IntoIterator<Item = MemRef>,
{
    let mut engine = engine_for_seeded(configs, seed)?;
    let mut iter = refs.into_iter();
    // Buffer the stream into chunks sized to stay cache-resident while
    // the per-class tiled loops of `access_run` sweep over them.
    let mut buf: Vec<MemRef> = Vec::with_capacity(ENGINE_CHUNK);
    let mut remaining = warmup;
    while remaining > 0 {
        buf.clear();
        buf.extend(iter.by_ref().take(remaining.min(ENGINE_CHUNK)));
        if buf.is_empty() {
            break;
        }
        remaining -= buf.len();
        engine.access_run(&buf);
    }
    engine.reset_metrics();
    loop {
        buf.clear();
        buf.extend(iter.by_ref().take(ENGINE_CHUNK));
        if buf.is_empty() {
            break;
        }
        engine.access_run(&buf);
    }
    Ok(engine.metrics())
}

/// [`simulate_many`] for two traces: the two passes run one after the
/// other and return exactly what two separate [`simulate_many`] calls
/// would.
///
/// # Errors
///
/// Returns a [`MultiSimError`] exactly as [`simulate_many`] would.
pub fn simulate_many_pair<I, J>(
    configs: &[CacheConfig],
    refs_a: I,
    refs_b: J,
    warmup: usize,
) -> Result<(Vec<Metrics>, Vec<Metrics>), MultiSimError>
where
    I: IntoIterator<Item = MemRef>,
    J: IntoIterator<Item = MemRef>,
{
    Ok((
        simulate_many(configs, refs_a, warmup)?,
        simulate_many(configs, refs_b, warmup)?,
    ))
}

/// Chunk size (in references) used when feeding an iterator through an
/// engine's tiled [`access_run`](SliceEngine::access_run) path: a chunk
/// this size stays L1/L2-resident while every residency class sweeps
/// over it.
pub const ENGINE_CHUNK: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;

    fn cfg(net: u64, block: u64, sub: u64) -> CacheConfig {
        CacheConfig::builder()
            .net_size(net)
            .block_size(block)
            .sub_block_size(sub)
            .word_size(2)
            .build()
            .unwrap()
    }

    pub(super) fn cfg_policy(
        net: u64,
        block: u64,
        sub: u64,
        policy: ReplacementPolicy,
    ) -> CacheConfig {
        CacheConfig::builder()
            .net_size(net)
            .block_size(block)
            .sub_block_size(sub)
            .word_size(2)
            .replacement(policy)
            .build()
            .unwrap()
    }

    /// A deterministic trace with loops, strides and writes — enough
    /// structure to exercise hits, conflict misses and evictions.
    pub(super) fn mixed_trace(len: u64, span: u64) -> Vec<MemRef> {
        (0..len)
            .map(|i| {
                let addr = (i * 7 + (i / 13) * 31) % span * 2;
                match i % 5 {
                    0 | 1 => MemRef::ifetch(addr),
                    2 | 3 => MemRef::read(addr),
                    _ => MemRef::write(addr),
                }
            })
            .collect()
    }

    #[test]
    fn matches_direct_simulation_across_sizes() {
        let configs = [cfg(64, 16, 8), cfg(256, 16, 8), cfg(1024, 16, 8)];
        let trace = mixed_trace(20_000, 4096);
        let all = simulate_many(&configs, trace.iter().copied(), 0).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 0);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn matches_direct_simulation_with_warmup() {
        let configs = [cfg(64, 8, 2), cfg(256, 8, 2), cfg(1024, 8, 2)];
        let trace = mixed_trace(10_000, 2048);
        let all = simulate_many(&configs, trace.iter().copied(), 1_000).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 1_000);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn single_config_slice_matches_direct() {
        let configs = [cfg(128, 8, 8)];
        let trace = mixed_trace(5_000, 1024);
        let all = simulate_many(&configs, trace.iter().copied(), 0).unwrap();
        assert_eq!(all[0], simulate(configs[0], trace.iter().copied(), 0));
    }

    #[test]
    fn tiny_caches_with_capped_associativity_match() {
        // net 32, block 16 -> 2 blocks, effective associativity 2, 1 set.
        let configs = [cfg(32, 16, 8), cfg(64, 16, 8)];
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
    fn every_replacement_policy_is_engine_eligible() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let config = cfg_policy(64, 8, 4, policy);
            assert!(engine_supports(&config), "{policy:?}");
        }
        assert_eq!(
            EngineKind::for_config(&cfg_policy(64, 8, 4, ReplacementPolicy::Fifo)),
            Some(EngineKind::Fifo)
        );
        assert_eq!(
            EngineKind::for_config(&cfg_policy(64, 8, 4, ReplacementPolicy::Random)),
            Some(EngineKind::Random)
        );
    }

    #[test]
    fn rejects_unsupported_features_and_mixed_policies() {
        let fifo = cfg_policy(64, 8, 4, ReplacementPolicy::Fifo);
        // A FIFO config no longer falls back — but it cannot ride an
        // LRU engine instance.
        assert!(matches!(
            AllSizesLruEngine::new(&[fifo]),
            Err(MultiSimError::Unsupported { .. })
        ));
        assert!(matches!(
            engine_for(&[cfg(64, 8, 4), fifo]),
            Err(MultiSimError::Unsupported { .. })
        ));
        let prefetch = CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(4)
            .word_size(2)
            .fetch(FetchPolicy::PrefetchNext { tagged: false })
            .build()
            .unwrap();
        assert!(!engine_supports(&prefetch));
        assert_eq!(EngineKind::for_config(&prefetch), None);
        let copy_back = CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(4)
            .word_size(2)
            .write_policy(WritePolicy::CopyBack)
            .build()
            .unwrap();
        assert!(!engine_supports(&copy_back));
    }

    #[test]
    fn engine_kind_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.as_str()), Some(kind));
            assert_eq!(EngineKind::ALL[kind.index()], kind);
        }
        assert_eq!(EngineKind::parse("LRU"), Some(EngineKind::Lru));
        assert_eq!(EngineKind::parse("direct"), None);
    }

    #[test]
    fn registry_dispatches_each_policy_to_its_engine() {
        for (policy, kind) in [
            (ReplacementPolicy::Lru, EngineKind::Lru),
            (ReplacementPolicy::Fifo, EngineKind::Fifo),
            (ReplacementPolicy::Random, EngineKind::Random),
        ] {
            let engine = engine_for(&[cfg_policy(64, 8, 4, policy)]).unwrap();
            assert_eq!(engine.kind(), kind);
        }
    }

    #[test]
    fn rejects_non_power_of_two_set_counts() {
        // 8 blocks at 3-way: 8/3 truncates, so bit selection cannot map it.
        let odd = CacheConfig::builder()
            .net_size(64)
            .block_size(8)
            .sub_block_size(8)
            .associativity(3)
            .word_size(2)
            .build()
            .unwrap();
        assert!(!engine_supports(&odd));
    }

    #[test]
    fn rejects_empty_and_oversized_slices() {
        assert!(matches!(
            AllSizesLruEngine::new(&[]),
            Err(MultiSimError::NoConfigs)
        ));
        assert!(matches!(engine_for(&[]), Err(MultiSimError::NoConfigs)));
        let oversized = [cfg(64, 8, 4); MAX_MULTISIM_CONFIGS + 1];
        assert!(matches!(
            AllSizesLruEngine::new(&oversized),
            Err(MultiSimError::TooManyConfigs { .. })
        ));
    }

    #[test]
    fn mixed_block_sizes_share_one_pass() {
        // A whole Table-7-shaped grid in one slice: three block sizes
        // with distinct sub-block choices across three net sizes. Every
        // (block, sets, assoc) triple becomes its own residency class,
        // so no two configurations here may share residency decisions
        // incorrectly.
        let configs = [
            cfg(64, 32, 8),
            cfg(64, 16, 16),
            cfg(64, 8, 2),
            cfg(256, 32, 8),
            cfg(256, 16, 16),
            cfg(256, 8, 2),
            cfg(1024, 32, 8),
            cfg(1024, 16, 16),
            cfg(1024, 8, 2),
        ];
        let trace = mixed_trace(20_000, 4096);
        let all = simulate_many(&configs, trace.iter().copied(), 500).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 500);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn mixed_sub_block_sizes_share_one_pass() {
        // Same block size, three sub-block variants at two nets: six
        // configurations, two residency classes. The slice exercises the
        // class-deduplication path and per-size sub-block accounting.
        let configs = [
            cfg(64, 16, 16),
            cfg(64, 16, 8),
            cfg(64, 16, 4),
            cfg(256, 16, 16),
            cfg(256, 16, 8),
            cfg(256, 16, 4),
        ];
        let trace = mixed_trace(20_000, 4096);
        let all = simulate_many(&configs, trace.iter().copied(), 0).unwrap();
        for (config, metrics) in configs.iter().zip(&all) {
            let direct = simulate(*config, trace.iter().copied(), 0);
            assert_eq!(*metrics, direct, "{config}");
        }
    }

    #[test]
    fn wide_span_traces_match_direct_with_bounded_state() {
        // Small caches with large blocks collapse to one set; a
        // wide-span trace forces thousands of distinct blocks through a
        // slice whose total resident capacity is a couple dozen ways.
        // The engine's state is capacity-bound by construction (only
        // resident blocks are stored), so this shape — quadratic for a
        // merged recency stack holding every block ever referenced —
        // must stay linear and exact.
        let configs = [cfg(64, 32, 8), cfg(256, 32, 8), cfg(1024, 32, 8)];
        let trace = mixed_trace(60_000, 1 << 17);
        let mut engine = AllSizesLruEngine::new(&configs).unwrap();
        for r in &trace {
            engine.access(r.address(), r.kind());
        }
        for (config, metrics) in configs.iter().zip(engine.metrics()) {
            assert_eq!(
                metrics,
                simulate(*config, trace.iter().copied(), 0),
                "{config}"
            );
        }
    }

    #[test]
    fn access_run_matches_per_reference_access() {
        let configs = [cfg(64, 16, 8), cfg(256, 16, 8)];
        let trace = mixed_trace(10_000, 2048);
        let mut chunked = AllSizesLruEngine::new(&configs).unwrap();
        for chunk in trace.chunks(97) {
            chunked.access_run(chunk);
        }
        let mut one = AllSizesLruEngine::new(&configs).unwrap();
        for r in &trace {
            one.access(r.address(), r.kind());
        }
        assert_eq!(chunked.metrics(), one.metrics());
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            MultiSimError::NoConfigs,
            MultiSimError::TooManyConfigs { given: 9 },
            MultiSimError::Unsupported {
                config: cfg(64, 8, 4),
                why: "test",
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
