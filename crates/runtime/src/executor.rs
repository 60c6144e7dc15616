//! The supervised executor: per-point wall-clock deadlines, bounded
//! retries with capped backoff, deterministic fault injection, and the
//! interrupt-aware worker pool over planned sweep units. This is the
//! *static grid* job source — batch sweeps hand it a config list and
//! stream results out through a hook; the serving layer's live-queue
//! source ([`crate::queue`]) coalesces submissions into grids and runs
//! them through the same pool.
//!
//! Under a deadline, each design point (or each per-trace pass of an
//! engine slice) runs on a named watchdog thread and the supervisor
//! waits with a timeout; a point or pass that overruns is abandoned (the
//! thread is leaked — Rust cannot kill a thread — and counted in
//! [`SuperviseStats::abandoned_threads`]) and
//! surfaces as [`PointFault::Timeout`](crate::eval::PointFault::Timeout)
//! instead of wedging the whole run. Panicking points get `retries`
//! further attempts separated by an exponential backoff capped at
//! `backoff_cap`; timeouts are never retried, because a hung point will
//! hang again and every extra attempt leaks another thread.
//!
//! The policy is configured from the environment in production bins:
//!
//! * `OCCACHE_POINT_TIMEOUT` — per-point deadline in seconds (float).
//!   `0`, `off` or empty disables the deadline; unset means the
//!   [`DEFAULT_POINT_TIMEOUT`] of 300 s.
//! * `OCCACHE_POINT_RETRIES` — extra attempts after a panic (default 1).
//! * `OCCACHE_FAULT_POINT` — fault injection for tests and CI smoke
//!   runs: `hang:B,S[:secs]` or `panic-once:B,S` (see [`FaultPlan`]).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use occache_core::{CacheConfig, EngineKind, Metrics};

use crate::config::parse_timeout;
use crate::eval::{
    evaluate_point, fold_slice, panic_message, plan_units_disabling, slice_pass, DesignPoint,
    PointError, SweepUnit, Trace,
};
use crate::journal::JournalHealth;

/// The deadline applied when `OCCACHE_POINT_TIMEOUT` is unset: generous
/// enough for a 1M-reference point on slow hardware, small enough that
/// an unattended overnight sweep cannot wedge forever.
pub const DEFAULT_POINT_TIMEOUT: Duration = Duration::from_secs(300);

/// How a deliberately injected fault misbehaves (see [`FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long inside the evaluation, simulating a hung point.
    Hang(Duration),
    /// Panic exactly once per plan, simulating a transient failure that
    /// succeeds on retry.
    PanicOnce,
}

/// Deterministic fault injection for the supervisor, targeted at one
/// `(block, sub-block)` cell so every other point runs normally. This
/// is the supervisor-level sibling of the `FaultyReader` used for trace
/// I/O faults: tests and the CI smoke run use it to prove the
/// timeout → retry → quarantine transitions on real sweeps.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// `(block_size, sub_block_size)` of the targeted cell, or `None`
    /// for a plan that never fires on a cell.
    target: Option<(u64, u64)>,
    /// What the fault does when tripped.
    kind: Option<FaultKind>,
    /// Shared once-latch for [`FaultKind::PanicOnce`].
    fired: Arc<AtomicBool>,
    /// Count-based injection: panic every `period`-th evaluation,
    /// regardless of cell. Deterministic in the number of evaluations,
    /// so a retried attempt advances the counter and succeeds — the
    /// serving layer's `panic-worker:K` chaos mode.
    every: Option<u64>,
    /// Shared count of [`FaultPlan::trip`] calls, which
    /// [`FaultPlan::panic_every`] periods are measured in.
    evaluations: Arc<AtomicU64>,
}

impl FaultPlan {
    fn cell(target: Option<(u64, u64)>, kind: Option<FaultKind>) -> Self {
        FaultPlan {
            target,
            kind,
            fired: Arc::new(AtomicBool::new(false)),
            every: None,
            evaluations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A plan that never fires (the production default).
    pub fn none() -> Self {
        FaultPlan::cell(None, None)
    }

    /// A plan that hangs the `(block, sub)` cell for `delay` every time
    /// it is evaluated.
    pub fn hang(block: u64, sub: u64, delay: Duration) -> Self {
        FaultPlan::cell(Some((block, sub)), Some(FaultKind::Hang(delay)))
    }

    /// A plan that panics the first evaluation of the `(block, sub)`
    /// cell and lets every later attempt succeed.
    pub fn panic_once(block: u64, sub: u64) -> Self {
        FaultPlan::cell(Some((block, sub)), Some(FaultKind::PanicOnce))
    }

    /// A plan that panics every `period`-th evaluation (any cell),
    /// counting deterministically across clones. A retry is a fresh
    /// evaluation, so with a supervisor retry budget the point recovers
    /// — this is the scheduler-layer arm of `OCCACHE_SERVE_FAULT`.
    pub fn panic_every(period: u64) -> Self {
        let mut plan = FaultPlan::none();
        plan.every = Some(period.max(1));
        plan
    }

    /// How many times [`FaultPlan::trip`] has been called, across
    /// clones: one per member per evaluation attempt.
    pub fn trips(&self) -> u64 {
        self.evaluations.load(Ordering::SeqCst)
    }

    /// Parses the `OCCACHE_FAULT_POINT` syntax: `hang:B,S` (30 s
    /// default), `hang:B,S:SECS`, or `panic-once:B,S`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed part of the spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let (kind, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("fault spec `{spec}` is missing `:B,S` (e.g. hang:8,4)"))?;
        let (cell, extra) = match rest.split_once(':') {
            Some((cell, extra)) => (cell, Some(extra)),
            None => (rest, None),
        };
        let (b, s) = cell
            .split_once(',')
            .ok_or_else(|| format!("fault target `{cell}` is not of the form B,S"))?;
        let block: u64 = b
            .trim()
            .parse()
            .map_err(|_| format!("fault block size `{b}` is not a number"))?;
        let sub: u64 = s
            .trim()
            .parse()
            .map_err(|_| format!("fault sub-block size `{s}` is not a number"))?;
        match kind {
            "hang" => {
                let secs = match extra {
                    Some(raw) => raw
                        .trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| format!("hang duration `{raw}` is not a number"))?,
                    None => 30.0,
                };
                Ok(FaultPlan::hang(block, sub, Duration::from_secs_f64(secs)))
            }
            "panic-once" => {
                if extra.is_some() {
                    return Err(format!("panic-once takes no duration: `{spec}`"));
                }
                Ok(FaultPlan::panic_once(block, sub))
            }
            other => Err(format!(
                "unknown fault kind `{other}` (expected hang or panic-once)"
            )),
        }
    }

    /// Fires the fault if `config` is the targeted cell (or the
    /// evaluation counter hits a [`FaultPlan::panic_every`] period).
    /// Called inside the evaluation thread, so a hang is
    /// indistinguishable from a genuinely wedged simulation.
    pub fn trip(&self, config: &CacheConfig) {
        let n = self.evaluations.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(period) = self.every {
            if n.is_multiple_of(period) {
                panic!("injected worker panic (every {period} evaluations, at {n})");
            }
        }
        let Some((block, sub)) = self.target else {
            return;
        };
        if config.block_size() != block || config.sub_block_size() != sub {
            return;
        }
        match self.kind {
            Some(FaultKind::Hang(delay)) => thread::sleep(delay),
            Some(FaultKind::PanicOnce) if !self.fired.swap(true, Ordering::SeqCst) => {
                panic!("injected transient point fault at ({block},{sub})");
            }
            _ => {}
        }
    }
}

/// How the supervisor treats each design point: deadline, retry budget,
/// backoff shape, and any injected fault.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Wall-clock deadline per point (and per engine slice). `None`
    /// disables the watchdog entirely — evaluation runs inline.
    pub timeout: Option<Duration>,
    /// Extra attempts after a panicking evaluation. Timeouts are never
    /// retried.
    pub retries: u32,
    /// Sleep before the first retry; doubled per attempt.
    pub backoff: Duration,
    /// Upper bound on the doubled backoff.
    pub backoff_cap: Duration,
    /// Fault injection (production plans never fire).
    pub fault: FaultPlan,
}

impl SupervisorPolicy {
    /// No deadline, no retries, no faults: the policy behind the plain
    /// sliced sweep and the in-process test suites.
    pub fn disabled() -> Self {
        SupervisorPolicy {
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            fault: FaultPlan::none(),
        }
    }

    /// The production default when no environment overrides are set:
    /// [`DEFAULT_POINT_TIMEOUT`], one retry, 100 ms backoff capped at
    /// 5 s, no faults.
    pub fn production() -> Self {
        SupervisorPolicy {
            timeout: Some(DEFAULT_POINT_TIMEOUT),
            retries: 1,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            fault: FaultPlan::none(),
        }
    }

    /// Builds the policy from `OCCACHE_POINT_TIMEOUT`,
    /// `OCCACHE_POINT_RETRIES` and `OCCACHE_FAULT_POINT`, rejecting
    /// malformed values so bins can refuse to start instead of running
    /// a long sweep under a misread policy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed variable.
    pub fn try_from_env() -> Result<Self, String> {
        let mut policy = SupervisorPolicy::production();
        if let Ok(raw) = std::env::var("OCCACHE_POINT_TIMEOUT") {
            policy.timeout = parse_timeout(&raw)?;
        }
        if let Ok(raw) = std::env::var("OCCACHE_POINT_RETRIES") {
            policy.retries = raw
                .trim()
                .parse()
                .map_err(|_| format!("OCCACHE_POINT_RETRIES `{raw}` is not a whole number"))?;
        }
        if let Ok(raw) = std::env::var("OCCACHE_FAULT_POINT") {
            if !raw.trim().is_empty() {
                policy.fault = FaultPlan::parse(&raw)?;
            }
        }
        Ok(policy)
    }

    /// Like [`SupervisorPolicy::try_from_env`], but a malformed setting
    /// degrades to the production default with a warning instead of
    /// failing — used mid-run where aborting would waste completed
    /// points.
    pub fn from_env_lenient() -> Self {
        SupervisorPolicy::try_from_env().unwrap_or_else(|e| {
            eprintln!("warning: ignoring invalid supervisor settings: {e}");
            SupervisorPolicy::production()
        })
    }
}

/// What the supervisor did beyond plain evaluation: retry attempts,
/// watchdog threads abandoned at their deadline, and how many points
/// each execution path computed. Feeds RUN_REPORT.json (and through it
/// the progress feed and the `occache-top` SWEEP pane).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Evaluation attempts made after a first failure.
    pub retries: usize,
    /// Watchdog threads leaked because their point or engine pass
    /// overran the deadline.
    pub abandoned_threads: usize,
    /// Points computed per one-pass engine, indexed by
    /// [`EngineKind::index`](occache_core::EngineKind::index).
    pub engine_points: [usize; 3],
    /// Points computed on the direct simulator — planner fallbacks,
    /// engines disabled via `OCCACHE_NO_MULTISIM`, and per-member
    /// containment re-runs after a slice failure.
    pub direct_points: usize,
    /// Pool workers that ran at least one task.
    pub busy_workers: usize,
}

impl SuperviseStats {
    /// Accumulates another worker's stats into this one.
    pub fn merge(&mut self, other: SuperviseStats) {
        self.retries += other.retries;
        self.abandoned_threads += other.abandoned_threads;
        for (mine, theirs) in self.engine_points.iter_mut().zip(other.engine_points) {
            *mine += theirs;
        }
        self.direct_points += other.direct_points;
        self.busy_workers += other.busy_workers;
    }

    /// Points computed per one-pass engine, as `(kind, count)` pairs in
    /// [`EngineKind::ALL`](occache_core::EngineKind::ALL) order.
    pub fn engine_point_counts(&self) -> [(occache_core::EngineKind, usize); 3] {
        let mut out = [(occache_core::EngineKind::Lru, 0); 3];
        for (slot, kind) in out.iter_mut().zip(occache_core::EngineKind::ALL) {
            *slot = (kind, self.engine_points[kind.index()]);
        }
        out
    }
}

/// The outcome of one deadline-bounded evaluation.
enum Deadline<T> {
    /// The closure ran to completion (possibly panicking) in time.
    Finished(thread::Result<T>),
    /// The deadline elapsed; the watchdog thread was abandoned.
    Elapsed,
}

/// Runs `f` under an optional wall-clock deadline. With no deadline the
/// closure runs inline under `catch_unwind`. With one, it runs on a
/// named watchdog thread and the caller waits at most `timeout`; an
/// overrunning thread is leaked (Rust offers no way to kill it) and the
/// caller moves on.
fn run_with_deadline<T: Send + 'static>(
    timeout: Option<Duration>,
    f: impl FnOnce() -> T + Send + 'static,
) -> Deadline<T> {
    let Some(limit) = timeout else {
        return Deadline::Finished(panic::catch_unwind(AssertUnwindSafe(f)));
    };
    let (tx, rx) = mpsc::sync_channel::<thread::Result<T>>(1);
    let spawned = thread::Builder::new()
        .name("occache-point".to_string())
        .spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
    let handle = match spawned {
        Ok(handle) => handle,
        // Thread spawn fails only under resource exhaustion; surface it
        // as a point failure rather than crashing the sweep.
        Err(e) => {
            return Deadline::Finished(Err(Box::new(format!(
                "could not spawn the point watchdog thread: {e}"
            ))))
        }
    };
    match rx.recv_timeout(limit) {
        Ok(result) => {
            // The sender has already produced a value; reap the thread.
            let _ = handle.join();
            Deadline::Finished(result)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Deadline::Elapsed,
        // The sender dropped without sending: the thread died outside
        // catch_unwind. Join it to recover the payload.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => Deadline::Finished(Err(payload)),
            Ok(()) => Deadline::Finished(Err(Box::new(
                "point watchdog thread exited without a result".to_string(),
            ))),
        },
    }
}

/// Evaluates one design point under the policy: deadline per attempt,
/// bounded retries with doubling backoff after panics, no retry after a
/// timeout (a hung point would hang again and leak another thread).
fn supervise_point(
    policy: &SupervisorPolicy,
    config: CacheConfig,
    traces: &[Trace],
    warmup: usize,
    stats: &mut SuperviseStats,
) -> Result<DesignPoint, PointError> {
    let mut backoff = policy.backoff;
    let mut attempt: u32 = 0;
    loop {
        let fault = policy.fault.clone();
        let owned = traces.to_vec();
        let run = run_with_deadline(policy.timeout, move || {
            fault.trip(&config);
            evaluate_point(config, &owned, warmup)
        });
        match run {
            Deadline::Finished(Ok(point)) => return Ok(point),
            Deadline::Finished(Err(payload)) => {
                let message = panic_message(payload);
                if attempt < policy.retries {
                    attempt += 1;
                    stats.retries += 1;
                    thread::sleep(backoff);
                    backoff = backoff
                        .checked_mul(2)
                        .unwrap_or(policy.backoff_cap)
                        .min(policy.backoff_cap);
                    continue;
                }
                return Err(PointError::panicked(
                    config,
                    format!("{message} (after {} attempt(s))", attempt + 1),
                ));
            }
            Deadline::Elapsed => {
                stats.abandoned_threads += 1;
                let limit = policy.timeout.unwrap_or_default();
                return Err(PointError::timed_out(config, limit));
            }
        }
    }
}

/// Supervised fault-isolated parallel sweep: the engine-sliced worker
/// pool of the plain sweep, with every unit run under the policy's
/// deadline and retry budget. Returns one result per config in input
/// order, plus the supervision stats.
///
/// An engine slice that panics or overruns its deadline does not fail
/// its sibling configs: each member is re-run alone on the direct
/// simulator under its own deadline, so only the genuinely broken or
/// hung cell fails and fault attribution stays per-point.
pub fn evaluate_results_supervised(
    policy: &SupervisorPolicy,
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> (Vec<Result<DesignPoint, PointError>>, SuperviseStats) {
    evaluate_results_supervised_with(policy, configs, traces, warmup, None, |_, _| {})
}

/// One claimable task of the supervised pool.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// A direct unit: one config on the direct simulator.
    Direct(usize),
    /// The engine pass of unit `slice` over trace `trace`.
    Pass { slice: usize, trace: usize },
}

/// One engine unit whose per-trace passes run as separate tasks, and
/// what those passes have produced so far.
struct SliceRun<'a> {
    kind: EngineKind,
    members: &'a [usize],
    configs: Arc<[CacheConfig]>,
    /// When the unit's first pass was claimed: the unit's deadline clock.
    started: OnceLock<Instant>,
    /// Per-trace engine results, landing in any order.
    passes: Mutex<Vec<Option<Vec<Metrics>>>>,
    /// A pass panicked, overran or ran out of time: the unit goes to
    /// the direct fallback.
    failed: AtomicBool,
    /// Watchdog threads leaked by passes that overran the deadline.
    abandoned: AtomicUsize,
    /// Passes not yet finished; the worker that finishes the last one
    /// completes the unit.
    left: AtomicUsize,
}

impl<'a> SliceRun<'a> {
    fn new(kind: EngineKind, members: &'a [usize], configs: &[CacheConfig], traces: usize) -> Self {
        SliceRun {
            kind,
            members,
            configs: members.iter().map(|&i| configs[i]).collect(),
            started: OnceLock::new(),
            passes: Mutex::new(vec![None; traces]),
            failed: AtomicBool::new(false),
            abandoned: AtomicUsize::new(0),
            // A trace-less grid still gets one task, which folds the
            // unit's empty average.
            left: AtomicUsize::new(traces.max(1)),
        }
    }

    /// Runs the pass over `traces[trace]` under the time the unit has
    /// left. The unit's injected faults fire in pass 0, so each member
    /// trips once per unit attempt however the passes are spread.
    /// Returns whether this was the unit's last outstanding pass.
    fn run_pass(
        &self,
        policy: &SupervisorPolicy,
        trace: usize,
        traces: &[Trace],
        warmup: usize,
    ) -> bool {
        let started = *self.started.get_or_init(Instant::now);
        if !self.failed.load(Ordering::SeqCst) {
            let timeout = policy
                .timeout
                .map(|limit| limit.saturating_sub(started.elapsed()));
            if timeout.is_some_and(|left| left.is_zero()) {
                // Out of time before the pass began: nothing ran, so
                // nothing leaked.
                self.failed.store(true, Ordering::SeqCst);
            } else {
                let configs = Arc::clone(&self.configs);
                let owned = traces.get(trace).cloned();
                let fault = policy.fault.clone();
                let run = run_with_deadline(timeout, move || {
                    if trace == 0 {
                        for config in configs.iter() {
                            fault.trip(config);
                        }
                    }
                    owned.map(|owned| slice_pass(&configs, &owned, warmup))
                });
                self.settle(trace, run);
            }
        }
        self.left.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Records how the pass over trace `trace` ended.
    fn settle(&self, trace: usize, run: Deadline<Option<Vec<Metrics>>>) {
        match run {
            Deadline::Finished(Ok(Some(pass))) => {
                self.passes.lock().expect("slice passes lock")[trace] = Some(pass);
            }
            Deadline::Finished(Ok(None)) => {}
            Deadline::Finished(Err(_)) => self.failed.store(true, Ordering::SeqCst),
            Deadline::Elapsed => {
                self.failed.store(true, Ordering::SeqCst);
                self.abandoned.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// The unit's points, folded in trace order, or `None` when a pass
    /// failed. Called once, after the last pass.
    fn fold(&self) -> Option<Vec<DesignPoint>> {
        if self.failed.load(Ordering::SeqCst) {
            return None;
        }
        let passes = std::mem::take(&mut *self.passes.lock().expect("slice passes lock"));
        let passes: Vec<Vec<Metrics>> = passes
            .into_iter()
            .map(|pass| pass.expect("every pass of an unfailed unit landed"))
            .collect();
        Some(fold_slice(&self.configs, &passes))
    }
}

/// [`evaluate_results_supervised`] with the pool knobs exposed: an
/// explicit worker-count override (`None` honours `OCCACHE_JOBS`, else
/// the hardware parallelism, via [`crate::eval::slice_workers`]) and an
/// `on_point` hook called exactly once per config — from worker threads,
/// as each result lands — which the checkpoint layer uses to stream
/// journal appends to its single writer thread and the serving layer
/// uses to publish results as they complete.
///
/// The pool's claimable task is one engine pass of one (engine unit,
/// trace) pair; direct units stay one task each. The worker budget is
/// capped at that task count, so a single-slice grid over several
/// traces still runs on every worker. The worker that finishes a unit's
/// last pass folds the per-trace metrics in trace order — bit-identical to
/// [`evaluate_slice`](crate::eval::evaluate_slice) — and reports every
/// member. The deadline stays per unit: its clock starts when the
/// unit's first pass is claimed and each pass runs under the time left.
/// A panic or overrun in any pass sends every member to the per-point
/// direct fallback, counted once in `retries`; every pass that overran
/// leaked its watchdog thread and adds one to `abandoned_threads`.
///
/// The pool is interrupt-aware: once [`crate::interrupt::requested`]
/// turns true, workers finish their current task and stop claiming new
/// ones; configs of units left unfinished come back as
/// [`PointFault::Interrupted`](crate::eval::PointFault::Interrupted)
/// failures (for which `on_point` is *not* called — nothing was
/// evaluated).
pub fn evaluate_results_supervised_with<H>(
    policy: &SupervisorPolicy,
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    workers: Option<usize>,
    on_point: H,
) -> (Vec<Result<DesignPoint, PointError>>, SuperviseStats)
where
    H: Fn(usize, &Result<DesignPoint, PointError>) + Sync,
{
    // Per-policy escape hatch: disabled engines' configs become direct
    // units; the planner already routes engine-inexpressible configs
    // there unconditionally.
    let units = plan_units_disabling(configs, crate::config::multisim_disabled());
    let mut slices = Vec::new();
    let mut tasks = Vec::new();
    for unit in &units {
        match unit {
            SweepUnit::Direct(i) => tasks.push(Task::Direct(*i)),
            SweepUnit::Engine { kind, members } => {
                let slice = slices.len();
                slices.push(SliceRun::new(*kind, members, configs, traces.len()));
                let passes = traces.len().max(1);
                tasks.extend((0..passes).map(|trace| Task::Pass { slice, trace }));
            }
        }
    }
    let workers = workers
        .unwrap_or_else(|| crate::eval::slice_workers(tasks.len()))
        .min(tasks.len())
        .max(1);
    let mut slots: Vec<Option<Result<DesignPoint, PointError>>> = vec![None; configs.len()];
    let mut stats = SuperviseStats::default();
    let mut died: Vec<String> = Vec::new();
    let next = AtomicUsize::new(0);
    let (tasks, slices, next, on_point) = (&tasks, &slices, &next, &on_point);
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, Result<DesignPoint, PointError>)> = Vec::new();
                let emit = |done: &mut Vec<(usize, Result<DesignPoint, PointError>)>,
                            i: usize,
                            r: Result<DesignPoint, PointError>| {
                    on_point(i, &r);
                    done.push((i, r));
                };
                let mut local = SuperviseStats::default();
                loop {
                    if crate::interrupt::requested() {
                        break;
                    }
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(t) else { break };
                    local.busy_workers = 1;
                    match *task {
                        Task::Direct(i) => {
                            let r = supervise_point(policy, configs[i], traces, warmup, &mut local);
                            local.direct_points += 1;
                            emit(&mut done, i, r);
                        }
                        Task::Pass { slice, trace } => {
                            let run = &slices[slice];
                            if !run.run_pass(policy, trace, traces, warmup) {
                                continue;
                            }
                            match run.fold() {
                                Some(points) => {
                                    local.engine_points[run.kind.index()] += run.members.len();
                                    for (&i, p) in run.members.iter().zip(points) {
                                        emit(&mut done, i, Ok(p));
                                    }
                                }
                                // A slice panic or overrun must not take
                                // siblings down with it: re-run each
                                // member alone on the direct simulator
                                // under its own deadline, so only the
                                // broken or hung cell fails.
                                None => {
                                    local.abandoned_threads += run.abandoned.load(Ordering::SeqCst);
                                    local.retries += 1;
                                    for &i in run.members {
                                        let r = supervise_point(
                                            policy, configs[i], traces, warmup, &mut local,
                                        );
                                        local.direct_points += 1;
                                        emit(&mut done, i, r);
                                    }
                                }
                            }
                        }
                    }
                }
                (done, local)
            }));
        }
        for h in handles {
            match h.join() {
                Ok((done, local)) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                    stats.merge(local);
                }
                // With per-task containment a worker should never die,
                // but if one does, its claimed units surface below as
                // failures rather than poisoning the whole sweep.
                Err(payload) => died.push(panic_message(payload)),
            }
        }
    });
    let interrupted = crate::interrupt::requested();
    let death = died.first().map(String::as_str).unwrap_or("unknown cause");
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                if interrupted && died.is_empty() {
                    Err(PointError::interrupted(configs[i]))
                } else {
                    Err(PointError::worker_loss(
                        configs[i],
                        format!("sweep worker thread died outside point isolation: {death}"),
                    ))
                }
            })
        })
        .collect();
    (results, stats)
}

/// Fault-isolated parallel sweep that shares trace passes across
/// one-pass-compatible slices, returning one result per config in input
/// order.
///
/// The grid is planned into [`SweepUnit`]s and the units drained from a
/// shared queue by the supervised worker pool (see
/// [`evaluate_results_supervised`], of which this is the no-deadline,
/// no-retry special case). A panic inside an engine slice does not fail
/// its sibling configs: each member is retried alone on the direct
/// simulator, so fault isolation stays per-point.
pub fn evaluate_results_sliced(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> Vec<Result<DesignPoint, PointError>> {
    let policy = SupervisorPolicy::disabled();
    evaluate_results_supervised(&policy, configs, traces, warmup).0
}

/// Adapts a per-point evaluation function to the batch shape the
/// checkpointed sweeps consume, keeping per-point fault isolation.
/// Production sweeps pass [`evaluate_results_sliced`] instead; tests use
/// this to inject point-level faults into batch APIs.
pub fn batch_of<F>(
    eval: F,
) -> impl Fn(&[CacheConfig], &[Trace], usize) -> Vec<Result<DesignPoint, PointError>> + Sync
where
    F: Fn(CacheConfig, &[Trace], usize) -> DesignPoint + Sync,
{
    move |configs: &[CacheConfig], traces: &[Trace], warmup: usize| {
        evaluate_each(configs, traces, warmup, &eval)
    }
}

/// Evaluates `configs` one after another with `eval`, in input order; a
/// panic inside `eval` becomes [`PointError::panicked`] for that config
/// instead of unwinding the sweep. This is the serial loop under the
/// per-point test seams ([`batch_of`], [`evaluate_points_isolated_with`]);
/// every production sweep runs on the supervised pool.
fn evaluate_each<F>(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    eval: &F,
) -> Vec<Result<DesignPoint, PointError>>
where
    F: Fn(CacheConfig, &[Trace], usize) -> DesignPoint,
{
    configs
        .iter()
        .map(|&config| {
            panic::catch_unwind(AssertUnwindSafe(|| eval(config, traces, warmup)))
                .map_err(|payload| PointError::panicked(config, panic_message(payload)))
        })
        .collect()
}

/// The outcome of a fault-isolated (and possibly resumed) sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Successfully evaluated points, in the order of the input configs.
    pub points: Vec<DesignPoint>,
    /// Points whose evaluation failed, with the failing config named.
    pub failures: Vec<PointError>,
    /// How many points were restored from a checkpoint journal rather than
    /// re-simulated (always 0 for non-resumable sweeps).
    pub resumed: usize,
    /// Retried attempts the supervisor made after transient failures.
    pub retries: usize,
    /// Checkpoint-journal health observed while resuming.
    pub journal: JournalHealth,
}

impl SweepOutcome {
    /// True when every input config produced a point.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// How many failures were deadline overruns.
    pub fn timed_out(&self) -> usize {
        self.fault_count(crate::eval::PointFault::Timeout)
    }

    /// How many points the journal quarantined.
    pub fn quarantined(&self) -> usize {
        self.fault_count(crate::eval::PointFault::Quarantined)
    }

    /// How many points produced non-finite metrics.
    pub fn non_finite(&self) -> usize {
        self.fault_count(crate::eval::PointFault::NonFinite)
    }

    fn fault_count(&self, fault: crate::eval::PointFault) -> usize {
        self.failures.iter().filter(|f| f.fault == fault).count()
    }

    /// A short report block naming each failed cell, or `None` when the
    /// sweep is complete. Artifact reports append this so partial results
    /// are never mistaken for full grids.
    pub fn failure_note(&self) -> Option<String> {
        failure_note(&self.failures)
    }
}

/// Renders a failed-cells block for a report, or `None` when `failures`
/// is empty. See [`SweepOutcome::failure_note`].
pub fn failure_note(failures: &[PointError]) -> Option<String> {
    if failures.is_empty() {
        return None;
    }
    let mut note = format!(
        "WARNING: {} design point(s) FAILED and are missing above:\n",
        failures.len()
    );
    for f in failures {
        use std::fmt::Write as _;
        let _ = writeln!(note, "  FAILED {f}");
    }
    Some(note)
}

/// Fault-isolated serial sweep with a custom evaluation function.
///
/// Each point runs under `catch_unwind`: a panicking point is reported in
/// [`SweepOutcome::failures`] (named by its config) and the rest of the
/// grid still completes. `eval` is a parameter so tests can inject faults;
/// production callers use [`evaluate_points_isolated`].
pub fn evaluate_points_isolated_with<F>(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
    eval: F,
) -> SweepOutcome
where
    F: Fn(CacheConfig, &[Trace], usize) -> DesignPoint + Sync,
{
    let mut outcome = SweepOutcome::default();
    for result in evaluate_each(configs, traces, warmup, &eval) {
        match result {
            Ok(p) => outcome.points.push(p),
            Err(e) => outcome.failures.push(e),
        }
    }
    outcome
}

/// Fault-isolated parallel sweep using the one-pass engine where the grid
/// allows it and [`evaluate_point`] elsewhere (see
/// [`evaluate_results_sliced`]).
pub fn evaluate_points_isolated(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();
    for result in evaluate_results_sliced(configs, traces, warmup) {
        match result {
            Ok(p) => outcome.points.push(p),
            Err(e) => outcome.failures.push(e),
        }
    }
    outcome
}

/// Evaluates many configurations, spreading work across threads.
///
/// # Panics
///
/// Panics if any point's evaluation panics, naming the failing
/// configuration. Use [`evaluate_points_isolated`] to get partial results
/// instead.
pub fn evaluate_points(
    configs: &[CacheConfig],
    traces: &[Trace],
    warmup: usize,
) -> Vec<DesignPoint> {
    let outcome = evaluate_points_isolated(configs, traces, warmup);
    if let Some(first) = outcome.failures.first() {
        panic!(
            "sweep failed at {} of {} design point(s); first failure: {first}",
            outcome.failures.len(),
            configs.len()
        );
    }
    outcome.points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PointFault;
    use occache_workloads::WorkloadSpec;

    // Local stand-ins for the workload helpers that live above this
    // crate (`occache_experiments::sweep::{materialize, table1_pairs,
    // standard_config}`): a PDP-11 grid at net 256, word 2.
    fn small_grid() -> (Vec<CacheConfig>, Vec<Trace>) {
        let spec = WorkloadSpec::pdp11_ed();
        let traces = vec![Trace::new(spec.name(), spec.generator(0).take(1_000))];
        let mut configs = Vec::new();
        let mut block = 64u64;
        while block >= 2 {
            let mut sub = block.min(32);
            while sub >= 2 {
                configs.push(
                    CacheConfig::builder()
                        .net_size(256)
                        .block_size(block)
                        .sub_block_size(sub)
                        .word_size(2)
                        .build()
                        .expect("Table 1 geometry is valid"),
                );
                sub /= 2;
            }
            block /= 2;
        }
        (configs, traces)
    }

    #[test]
    fn fault_plan_parsing_round_trips_the_cli_syntax() {
        let hang = FaultPlan::parse("hang:8,4:0.25").unwrap();
        assert_eq!(hang.target, Some((8, 4)));
        assert_eq!(hang.kind, Some(FaultKind::Hang(Duration::from_millis(250))));
        let default_hang = FaultPlan::parse("hang:16,8").unwrap();
        assert_eq!(
            default_hang.kind,
            Some(FaultKind::Hang(Duration::from_secs(30)))
        );
        let panic_once = FaultPlan::parse("panic-once:8,4").unwrap();
        assert_eq!(panic_once.kind, Some(FaultKind::PanicOnce));
        assert!(FaultPlan::parse("hang").is_err());
        assert!(FaultPlan::parse("hang:8").is_err());
        assert!(FaultPlan::parse("hang:a,b").is_err());
        assert!(FaultPlan::parse("panic-once:8,4:1").is_err());
        assert!(FaultPlan::parse("explode:8,4").is_err());
    }

    #[test]
    fn disabled_policy_matches_the_plain_sweep() {
        let (configs, traces) = small_grid();
        let policy = SupervisorPolicy::disabled();
        let (supervised, stats) = evaluate_results_supervised(&policy, &configs, &traces, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.abandoned_threads, 0);
        // The whole LRU grid rides the LRU engine; nothing is direct.
        assert_eq!(
            stats.engine_points[occache_core::EngineKind::Lru.index()],
            configs.len()
        );
        assert_eq!(stats.direct_points, 0);
        for (s, &config) in supervised.iter().zip(&configs) {
            let (s, p) = (s.as_ref().unwrap(), evaluate_point(config, &traces, 0));
            assert_eq!(s.config, p.config);
            assert_eq!(s.miss_ratio.to_bits(), p.miss_ratio.to_bits());
            assert_eq!(s.traffic_ratio.to_bits(), p.traffic_ratio.to_bits());
        }
    }

    #[test]
    fn hung_point_times_out_and_siblings_complete() {
        let (configs, traces) = small_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.timeout = Some(Duration::from_millis(200));
        policy.fault = FaultPlan::hang(8, 4, Duration::from_secs(60));
        let (results, stats) = evaluate_results_supervised(&policy, &configs, &traces, 0);
        let mut timeouts = 0;
        for (config, result) in configs.iter().zip(&results) {
            let hung = config.block_size() == 8 && config.sub_block_size() == 4;
            match result {
                Ok(point) => assert!(!hung, "hung cell {:?} completed", point.config),
                Err(e) => {
                    assert!(hung, "unexpected failure: {e}");
                    assert_eq!(e.fault, PointFault::Timeout);
                    assert!(e.message.contains("deadline"), "{e}");
                    timeouts += 1;
                }
            }
        }
        assert_eq!(timeouts, 1);
        assert!(stats.abandoned_threads >= 1);
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        let (configs, traces) = small_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.retries = 1;
        policy.backoff = Duration::from_millis(1);
        policy.fault = FaultPlan::panic_once(8, 4);
        let (results, stats) = evaluate_results_supervised(&policy, &configs, &traces, 0);
        assert!(results.iter().all(Result::is_ok), "retry must recover");
        assert!(stats.retries >= 1);
    }

    /// A single-unit grid over three traces, so one unit splits into
    /// three pass tasks, and the grid position of the `(8,4)` cell.
    fn split_grid() -> (Vec<CacheConfig>, Vec<Trace>, usize) {
        let (configs, _) = small_grid();
        let traces = [
            WorkloadSpec::pdp11_ed(),
            WorkloadSpec::pdp11_opsys(),
            WorkloadSpec::pdp11_roff(),
        ]
        .iter()
        .map(|spec| Trace::new(spec.name(), spec.generator(0).take(1_000)))
        .collect();
        assert_eq!(
            plan_units_disabling(&configs, crate::config::DisabledEngines::NONE).len(),
            1
        );
        let cell = configs
            .iter()
            .position(|c| c.block_size() == 8 && c.sub_block_size() == 4)
            .expect("the grid has an (8,4) cell");
        (configs, traces, cell)
    }

    /// Every `Ok` result is bit-identical to the per-point path.
    fn assert_siblings_exact(
        configs: &[CacheConfig],
        traces: &[Trace],
        results: &[Result<DesignPoint, PointError>],
    ) {
        for (config, result) in configs.iter().zip(results) {
            if let Ok(point) = result {
                let direct = evaluate_point(*config, traces, 0);
                assert_eq!(point.miss_ratio.to_bits(), direct.miss_ratio.to_bits());
                assert_eq!(
                    point.traffic_ratio.to_bits(),
                    direct.traffic_ratio.to_bits()
                );
                assert_eq!(
                    point.nibble_traffic_ratio.to_bits(),
                    direct.nibble_traffic_ratio.to_bits()
                );
            }
        }
    }

    #[test]
    fn split_unit_panic_retries_one_cell_and_trips_once_per_attempt() {
        let (configs, traces, cell) = split_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.retries = 1;
        policy.backoff = Duration::from_millis(1);
        policy.fault = FaultPlan::panic_once(8, 4);
        let (results, stats) =
            evaluate_results_supervised_with(&policy, &configs, &traces, 0, Some(2), |_, _| {});
        assert!(results.iter().all(Result::is_ok), "the retry must recover");
        assert_eq!(stats.retries, 1, "one failed unit attempt, retried once");
        assert_eq!(stats.direct_points, configs.len());
        assert_siblings_exact(&configs, &traces, &results);
        // The unit attempt trips members up to the panicking cell, once
        // each, not once per trace; the fallback trips every member once.
        assert_eq!(policy.fault.trips(), (cell + 1 + configs.len()) as u64);
    }

    #[test]
    fn split_unit_hang_times_out_one_cell_and_trips_once_per_attempt() {
        let (configs, traces, cell) = split_grid();
        let mut policy = SupervisorPolicy::disabled();
        // The deadline is far longer than a thread takes to start, so
        // the second worker claims the other passes while pass 0 hangs.
        policy.timeout = Some(Duration::from_secs(2));
        policy.fault = FaultPlan::hang(8, 4, Duration::from_secs(60));
        let (results, stats) =
            evaluate_results_supervised_with(&policy, &configs, &traces, 0, Some(2), |_, _| {});
        let failed: Vec<usize> = (0..results.len())
            .filter(|&i| results[i].is_err())
            .collect();
        assert_eq!(failed, vec![cell], "only the hung cell fails");
        assert_eq!(
            results[cell].as_ref().map_err(|e| e.fault).err(),
            Some(PointFault::Timeout)
        );
        assert_eq!(stats.retries, 1, "the unit's overrun is counted once");
        // One watchdog leaked by the unit's pass 0, one by the cell's
        // direct re-run.
        assert_eq!(stats.abandoned_threads, 2);
        // Pass 0 hung its worker, so the other passes ran on the second.
        assert_eq!(stats.busy_workers, 2);
        assert_siblings_exact(&configs, &traces, &results);
        assert_eq!(policy.fault.trips(), (cell + 1 + configs.len()) as u64);
    }

    #[test]
    fn every_overrun_pass_counts_its_leaked_thread() {
        let (configs, traces, _) = split_grid();
        let members: Vec<usize> = (0..configs.len()).collect();
        let run = SliceRun::new(EngineKind::Lru, &members, &configs, traces.len());
        // A unit that is simply too slow overruns in every pass claimed
        // before the first overrun lands, and each leaks its watchdog.
        for trace in 0..traces.len() {
            run.settle(trace, Deadline::Elapsed);
        }
        assert!(run.fold().is_none(), "an overrun unit goes to the fallback");
        assert_eq!(run.abandoned.load(Ordering::SeqCst), traces.len());
    }

    #[test]
    fn a_pass_with_no_time_left_runs_nothing_and_leaks_nothing() {
        let (configs, traces, _) = split_grid();
        let members: Vec<usize> = (0..configs.len()).collect();
        let run = SliceRun::new(EngineKind::Lru, &members, &configs, traces.len());
        let mut policy = SupervisorPolicy::disabled();
        policy.timeout = Some(Duration::ZERO);
        policy.fault = FaultPlan::hang(8, 4, Duration::from_secs(60));
        for trace in 0..traces.len() {
            let last = run.run_pass(&policy, trace, &traces, 0);
            assert_eq!(last, trace + 1 == traces.len());
        }
        assert!(run.fold().is_none(), "the unit ran out of time");
        assert_eq!(run.abandoned.load(Ordering::SeqCst), 0);
        assert_eq!(policy.fault.trips(), 0, "no pass started");
    }

    #[test]
    fn exhausted_retries_surface_the_panic() {
        let (configs, traces) = small_grid();
        let mut policy = SupervisorPolicy::disabled();
        policy.fault = FaultPlan::hang(8, 4, Duration::ZERO);
        // A zero-length hang never fails: the sweep completes.
        let (results, _) = evaluate_results_supervised(&policy, &configs, &traces, 0);
        assert!(results.iter().all(Result::is_ok));
    }
}
