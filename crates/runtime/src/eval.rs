//! Design-point evaluation: the direct simulator path, the one-pass
//! engine path, the slice planner, and structured point faults.
//!
//! Evaluation averages ratios across traces exactly as the paper does
//! ("Multiple-trace miss and traffic ratios are the unweighted average
//! of the miss and traffic ratios of individual runs", §3.3). Sweeps do
//! not simulate every point independently: [`plan_units`] groups a grid
//! into one-pass-compatible slices per replacement policy (demand
//! fetch, write-through, power-of-two sets — geometry may differ
//! freely per member) and [`evaluate_slice`] runs each through the
//! matching [`occache_core::multisim`] engine (LRU, FIFO or Random),
//! which yields every cache size's metrics from a single trace pass —
//! bit-identical to [`occache_core::simulate`]. Only points no engine
//! can express (prefetch/load-forward, copy-back, non-power-of-two
//! sets) fall back to the direct simulator, and
//! `OCCACHE_NO_MULTISIM=<list>` forces the direct path for the listed
//! engines — or all of them with `OCCACHE_NO_MULTISIM=all` — (used by
//! equivalence tests and timing comparisons; see
//! [`crate::config::multisim_disabled`]).

use std::sync::Arc;
use std::thread;

use occache_core::{
    simulate, simulate_many, BusModel, CacheConfig, EngineKind, Metrics, MAX_MULTISIM_CONFIGS,
};
use occache_trace::packed::PackedIter;
use occache_trace::{MemRef, PackedTrace};

/// A named reference stream, reusable across configurations.
///
/// The stream is packed once into a shared [`PackedTrace`] (9 bytes per
/// reference instead of 16), so cloning a `Trace` — as the memoizing
/// workbench, serve's trace sets and the sweep workers do — bumps a
/// reference count rather than copying a million-entry stream.
#[derive(Clone)]
pub struct Trace {
    /// Trace name (as in the paper's workload tables).
    pub name: String,
    refs: Arc<PackedTrace>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("name", &self.name)
            .field("len", &self.len())
            .finish()
    }
}

impl Trace {
    /// Packs a reference stream under a name.
    pub fn new(name: impl Into<String>, refs: impl IntoIterator<Item = MemRef>) -> Self {
        Trace {
            name: name.into(),
            refs: Arc::new(refs.into_iter().collect()),
        }
    }

    /// Number of references in the stream.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Iterates the reference stream, decoding the packed copy in place.
    pub fn iter(&self) -> PackedIter<'_> {
        self.refs.iter()
    }

    /// Whether two traces share the same packed buffer — i.e. cloning
    /// one of them produced the other.
    pub fn shares_backing(&self, other: &Trace) -> bool {
        Arc::ptr_eq(&self.refs, &other.refs)
    }
}

/// Averaged results for one cache design point over a trace set.
#[derive(Debug, Clone, Copy)]
pub struct DesignPoint {
    /// The configuration evaluated.
    pub config: CacheConfig,
    /// Unweighted mean miss ratio across traces.
    pub miss_ratio: f64,
    /// Unweighted mean traffic ratio across traces.
    pub traffic_ratio: f64,
    /// Unweighted mean nibble-mode scaled traffic ratio (§4.3).
    pub nibble_traffic_ratio: f64,
    /// Mean fraction of redundant sub-block loads (load-forward only).
    pub redundant_load_fraction: f64,
    /// Gross cache size in bytes.
    pub gross_size: u64,
}

/// Evaluates one configuration against every trace, averaging the ratios.
///
/// `warmup` references at the head of each trace prime the cache without
/// being counted (the paper's warm-start discipline; pass 0 for cold).
pub fn evaluate_point(config: CacheConfig, traces: &[Trace], warmup: usize) -> DesignPoint {
    let nibble = BusModel::paper_nibble();
    let mut miss = 0.0;
    let mut traffic = 0.0;
    let mut scaled = 0.0;
    let mut redundant = 0.0;
    for trace in traces {
        let metrics: Metrics = simulate(config, trace.iter(), warmup);
        miss += metrics.miss_ratio();
        traffic += metrics.traffic_ratio();
        scaled += metrics.scaled_traffic_ratio(nibble);
        if metrics.sub_loads() > 0 {
            redundant += metrics.redundant_sub_loads() as f64 / metrics.sub_loads() as f64;
        }
    }
    let n = traces.len().max(1) as f64;
    DesignPoint {
        config,
        miss_ratio: miss / n,
        traffic_ratio: traffic / n,
        nibble_traffic_ratio: scaled / n,
        redundant_load_fraction: redundant / n,
        gross_size: config.gross_size(),
    }
}

/// Evaluates a one-pass-compatible slice of configurations with a single
/// engine pass per trace, averaging exactly as [`evaluate_point`] does.
///
/// The accumulation order per configuration is identical to the per-point
/// path (outer loop over traces, then the division by the trace count), so
/// the resulting floats are bit-identical, not merely close. This is
/// [`slice_pass`] per trace followed by [`fold_slice`] — the same two
/// steps the supervised executor schedules as separate tasks.
pub fn evaluate_slice(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> Vec<DesignPoint> {
    let passes: Vec<Vec<Metrics>> = traces
        .iter()
        .map(|trace| slice_pass(configs, trace, warmup))
        .collect();
    fold_slice(configs, &passes)
}

/// One engine pass of a slice over one trace: every member's metrics,
/// in member order.
///
/// # Panics
///
/// Panics if no engine can run the slice — the planner only groups
/// engine-compatible configs, so this is a planner bug.
pub fn slice_pass(configs: &[CacheConfig], trace: &Trace, warmup: usize) -> Vec<Metrics> {
    simulate_many(configs, trace.iter(), warmup)
        .expect("sweep planner grouped an engine-incompatible slice")
}

/// Folds a slice's per-trace [`slice_pass`] results, given in trace
/// order, into one averaged [`DesignPoint`] per member. Summing trace
/// by trace and dividing once keeps every float bit-identical to
/// [`evaluate_point`].
pub fn fold_slice(configs: &[CacheConfig], passes: &[Vec<Metrics>]) -> Vec<DesignPoint> {
    let nibble = BusModel::paper_nibble();
    let mut miss = vec![0.0; configs.len()];
    let mut traffic = vec![0.0; configs.len()];
    let mut scaled = vec![0.0; configs.len()];
    let mut redundant = vec![0.0; configs.len()];
    for pass in passes {
        for (i, metrics) in pass.iter().enumerate() {
            miss[i] += metrics.miss_ratio();
            traffic[i] += metrics.traffic_ratio();
            scaled[i] += metrics.scaled_traffic_ratio(nibble);
            if metrics.sub_loads() > 0 {
                redundant[i] += metrics.redundant_sub_loads() as f64 / metrics.sub_loads() as f64;
            }
        }
    }
    let n = passes.len().max(1) as f64;
    configs
        .iter()
        .enumerate()
        .map(|(i, &config)| DesignPoint {
            config,
            miss_ratio: miss[i] / n,
            traffic_ratio: traffic[i] / n,
            nibble_traffic_ratio: scaled[i] / n,
            redundant_load_fraction: redundant[i] / n,
            gross_size: config.gross_size(),
        })
        .collect()
}

/// One schedulable unit of a sliced sweep: a group of config indices that
/// share an engine pass, or a single config that needs the direct
/// simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepUnit {
    /// A slice of config-grid indices, one-pass-compatible with each
    /// other, bound for one policy's engine.
    Engine {
        /// Which one-pass engine runs this slice.
        kind: EngineKind,
        /// Indices into the config grid.
        members: Vec<usize>,
    },
    /// Index of a config no engine can express.
    Direct(usize),
}

/// Groups a config grid into one-pass-compatible slices, one slice
/// family per replacement policy.
///
/// Every engine-eligible config (see [`EngineKind::for_config`]) joins
/// its policy's shared slice in grid order — net size, block size,
/// sub-block size, word size and associativity may all differ, the
/// engine tracks those per residency class and per size — chunked at
/// [`MAX_MULTISIM_CONFIGS`]; everything else becomes a direct unit. For
/// the paper's Table 1/Table 7 grids this means the whole grid rides a
/// single pass per trace regardless of the policy axis. Deterministic
/// for a given grid, and every input index appears in exactly one unit:
/// direct units in grid order first, then engine slices in
/// [`EngineKind::ALL`] order.
pub fn plan_units(configs: &[CacheConfig]) -> Vec<SweepUnit> {
    plan_units_disabling(configs, crate::config::DisabledEngines::NONE)
}

/// [`plan_units`] with some engines forced off: their configs route to
/// direct units instead. This is the hook behind the
/// `OCCACHE_NO_MULTISIM` escape hatch (see
/// [`crate::config::multisim_disabled`]).
pub fn plan_units_disabling(
    configs: &[CacheConfig],
    disabled: crate::config::DisabledEngines,
) -> Vec<SweepUnit> {
    let mut units = Vec::new();
    let mut members: [Vec<usize>; EngineKind::ALL.len()] = Default::default();
    for (i, config) in configs.iter().enumerate() {
        match EngineKind::for_config(config) {
            Some(kind) if !disabled.contains(kind) => members[kind.index()].push(i),
            _ => units.push(SweepUnit::Direct(i)),
        }
    }
    for kind in EngineKind::ALL {
        for chunk in members[kind.index()].chunks(MAX_MULTISIM_CONFIGS) {
            units.push(SweepUnit::Engine {
                kind,
                members: chunk.to_vec(),
            });
        }
    }
    units
}

/// Why a design point failed to produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointFault {
    /// The evaluation panicked (simulator bug or injected fault).
    Panic,
    /// The evaluation exceeded the supervisor's wall-clock deadline.
    Timeout,
    /// The evaluation produced a non-finite metric (NaN or infinity),
    /// which must never reach a journal or an artifact.
    NonFinite,
    /// The point failed in enough earlier runs that the journal
    /// quarantined it; it is skipped instead of being retried forever.
    Quarantined,
    /// A sweep worker thread died outside per-point isolation.
    WorkerLoss,
    /// The run was interrupted (SIGINT/SIGTERM) before this point was
    /// claimed by a worker; the point was never evaluated and is *not*
    /// tombstoned, so a resumed run picks it up cleanly.
    Interrupted,
}

impl std::fmt::Display for PointFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PointFault::Panic => "panic",
            PointFault::Timeout => "timeout",
            PointFault::NonFinite => "non-finite",
            PointFault::Quarantined => "quarantined",
            PointFault::WorkerLoss => "worker-loss",
            PointFault::Interrupted => "interrupted",
        })
    }
}

/// A design point whose evaluation failed (panic, deadline overrun,
/// poisoned metrics, or a journal quarantine). The sweep records the
/// failure and carries on with the remaining points.
#[derive(Debug, Clone)]
pub struct PointError {
    /// The configuration that failed.
    pub config: CacheConfig,
    /// The failure class (drives retry/quarantine policy and reporting).
    pub fault: PointFault,
    /// Human-readable detail (panic payload, deadline, field name, ...).
    pub message: String,
}

impl PointError {
    /// A panicking evaluation, with the rendered payload.
    pub fn panicked(config: CacheConfig, message: impl Into<String>) -> Self {
        PointError {
            config,
            fault: PointFault::Panic,
            message: message.into(),
        }
    }

    /// An evaluation abandoned at its wall-clock deadline.
    pub fn timed_out(config: CacheConfig, deadline: std::time::Duration) -> Self {
        PointError {
            config,
            fault: PointFault::Timeout,
            message: format!(
                "exceeded the {:.1}s point deadline (OCCACHE_POINT_TIMEOUT); evaluation abandoned",
                deadline.as_secs_f64()
            ),
        }
    }

    /// An evaluation that produced a non-finite metric.
    pub fn non_finite(config: CacheConfig, field: &str) -> Self {
        PointError {
            config,
            fault: PointFault::NonFinite,
            message: format!("{field} is not finite; the point was rejected, not journalled"),
        }
    }

    /// A point skipped because the journal quarantined it.
    pub fn quarantined(config: CacheConfig, failures: u32) -> Self {
        PointError {
            config,
            fault: PointFault::Quarantined,
            message: format!(
                "quarantined after {failures} failed run(s); pass --fresh to retry it"
            ),
        }
    }

    /// A worker thread dying outside per-point isolation.
    pub fn worker_loss(config: CacheConfig, message: impl Into<String>) -> Self {
        PointError {
            config,
            fault: PointFault::WorkerLoss,
            message: message.into(),
        }
    }

    /// A point left unevaluated because the run was interrupted.
    pub fn interrupted(config: CacheConfig) -> Self {
        PointError {
            config,
            fault: PointFault::Interrupted,
            message: "run interrupted (SIGINT/SIGTERM) before this point was evaluated; \
                      rerun to resume"
                .into(),
        }
    }
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: [{}] {}", self.config, self.fault, self.message)
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice; anything else is reported opaquely).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// The worker count for a sweep pool over `tasks` schedulable tasks:
/// `OCCACHE_JOBS` when set, otherwise the hardware parallelism; always
/// capped at `tasks` and never zero. The supervised executor counts one
/// task per engine pass of one (unit, trace) pair plus one per direct
/// point, so a single-unit grid over several traces still fills the
/// pool. Binaries validate `OCCACHE_JOBS` strictly at startup via
/// [`crate::config::try_jobs`]; by the time a pool is being sized, a
/// malformed value falls back to the default rather than aborting
/// mid-sweep.
pub fn slice_workers(tasks: usize) -> usize {
    let hardware = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    crate::config::try_jobs()
        .unwrap_or(None)
        .unwrap_or(hardware)
        .min(tasks.max(1))
}
