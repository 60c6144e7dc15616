//! The live-queue job source: a bounded queue of design-point jobs, a
//! fixed worker pool draining it, and batch coalescing. The serving
//! layer's scheduler — usable as a library independent of HTTP.
//!
//! Submitters enqueue [`Job`]s and receive results over each job's own
//! channel; when the queue is full, [`Scheduler::submit`] refuses with
//! [`SubmitError::Busy`] so the caller can apply backpressure (the HTTP
//! layer turns that into a 429 with `Retry-After`). A worker that claims
//! a job first *coalesces*: it sweeps the queue for other jobs over the
//! same trace set and warm-up and evaluates them as one grid, which lets
//! the multisim engine share trace passes across compatible points
//! exactly as the batch planner ([`crate::eval::plan_units`]) slices
//! static grids. Every point runs under the supervisor policy
//! ([`crate::executor`]), so a wedged simulation hits its deadline and
//! returns a structured failure instead of hanging the connection.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use occache_core::CacheConfig;

use crate::eval::{DesignPoint, PointError, Trace};
use crate::executor::{evaluate_results_supervised_with, SupervisorPolicy};

/// A materialised trace set plus its content fingerprint, shared by
/// reference between the request layer, the cache keys, and the workers.
#[derive(Debug)]
pub struct TraceSet {
    /// The traces, in set order.
    pub traces: Vec<Trace>,
    /// [`crate::keys::trace_fingerprint`] of `traces`.
    pub fingerprint: u64,
}

/// The admission lane a job belongs to. Under load the queue sheds
/// [`Priority::Bulk`] work (full grids) first and keeps accepting
/// [`Priority::Interactive`] work (single-point lookups) until it is
/// completely full, so cheap cache-adjacent traffic degrades last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// A single-point lookup: admitted until the queue is full.
    #[default]
    Interactive,
    /// A grid member: admitted only while the queue has bulk headroom
    /// (half the capacity), shed first under pressure.
    Bulk,
}

/// One design point awaiting evaluation.
#[derive(Debug)]
pub struct Job {
    /// The configuration to evaluate.
    pub config: CacheConfig,
    /// The trace set to run over.
    pub traces: Arc<TraceSet>,
    /// Warm-up prefix length.
    pub warmup: usize,
    /// The content-addressed point key (for the submitter's bookkeeping;
    /// echoed back in the result).
    pub key: u64,
    /// The admission lane (see [`Priority`]).
    pub priority: Priority,
    /// Where the result goes. A dropped receiver is fine — the send is
    /// best-effort, the computation still happened.
    pub reply: Sender<JobResult>,
}

/// A finished job.
#[derive(Debug)]
pub struct JobResult {
    /// The job's point key, echoed.
    pub key: u64,
    /// The evaluated point or its structured failure.
    pub result: Result<DesignPoint, PointError>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after a drain.
    Busy,
    /// The scheduler is shutting down.
    Closed,
}

#[derive(Debug)]
struct State {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    open: AtomicBool,
    capacity: usize,
    max_batch: usize,
    policy: SupervisorPolicy,
    busy: Vec<WorkerGauge>,
    /// Completed evaluations, for the service-rate estimate.
    points_done: AtomicU64,
    /// Cumulative evaluation time across all completed points, µs.
    eval_micros: AtomicU64,
}

impl State {
    /// A coherent `(points_done, eval_micros)` pair. The two counters
    /// are separate atomics, so one load of each can tear against a
    /// completing worker — under drain that yields an average computed
    /// from a fresh count over a stale time sum, which is exactly the
    /// 0 s / 60 s-clamped `Retry-After` outlier. Workers publish micros
    /// before count (Release); re-reading the count (Acquire) and
    /// retrying until it is unchanged therefore bounds the pair: the
    /// micros read lies between two identical counts, so it includes
    /// every completed point and no partial one. Bounded retries — under
    /// sustained churn the last pair is still ordered (micros ≥ the
    /// matching sum for `done`), which only over-estimates the average,
    /// never zeroes it.
    fn rate_snapshot(&self) -> (u64, u64) {
        let mut done = self.points_done.load(Ordering::Acquire);
        for _ in 0..8 {
            let micros = self.eval_micros.load(Ordering::Acquire);
            let done_after = self.points_done.load(Ordering::Acquire);
            if done == done_after {
                return (done, micros);
            }
            done = done_after;
        }
        (done, self.eval_micros.load(Ordering::Acquire))
    }
}

#[derive(Debug, Default)]
struct WorkerGauge {
    busy_now: AtomicBool,
    busy_micros: AtomicU64,
}

/// The worker pool. Dropping without [`Scheduler::shutdown`] detaches
/// the workers (they exit once the queue closes at process end); call
/// `shutdown` for a deterministic drain.
#[derive(Debug)]
pub struct Scheduler {
    state: Arc<State>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `workers` threads over a queue of at most `capacity`
    /// waiting jobs, coalescing up to `max_batch` compatible jobs per
    /// evaluation (all minimums 1).
    pub fn new(
        workers: usize,
        capacity: usize,
        max_batch: usize,
        policy: SupervisorPolicy,
    ) -> Scheduler {
        let workers = workers.max(1);
        let state = Arc::new(State {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            open: AtomicBool::new(true),
            capacity: capacity.max(1),
            max_batch: max_batch.max(1),
            policy,
            busy: (0..workers).map(|_| WorkerGauge::default()).collect(),
            points_done: AtomicU64::new(0),
            eval_micros: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("occache-sched-{i}"))
                    .spawn(move || worker_loop(&state, i))
                    .expect("could not spawn a scheduler worker")
            })
            .collect();
        Scheduler {
            state,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues a job, applying lane-aware admission control: a
    /// [`Priority::Bulk`] job is refused once the queue passes its bulk
    /// headroom (half of capacity, minimum 1), an interactive job only
    /// when the queue is completely full — grids are shed before point
    /// lookups.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the job's lane is at capacity,
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        if !self.state.open.load(Ordering::SeqCst) {
            return Err(SubmitError::Closed);
        }
        let limit = match job.priority {
            Priority::Interactive => self.state.capacity,
            Priority::Bulk => self.bulk_capacity(),
        };
        {
            let mut queue = self.state.queue.lock().expect("scheduler queue lock");
            if queue.len() >= limit {
                return Err(SubmitError::Busy);
            }
            queue.push_back(job);
        }
        self.state.available.notify_one();
        Ok(())
    }

    /// The bulk lane's admission bound: half the capacity, minimum 1.
    pub fn bulk_capacity(&self) -> usize {
        (self.state.capacity / 2).max(1)
    }

    /// Jobs waiting (not counting those being evaluated).
    pub fn queue_depth(&self) -> usize {
        self.state.queue.lock().expect("scheduler queue lock").len()
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.state.busy.len()
    }

    /// Workers currently evaluating.
    pub fn busy_workers(&self) -> usize {
        self.state
            .busy
            .iter()
            .filter(|g| g.busy_now.load(Ordering::Relaxed))
            .count()
    }

    /// Cumulative evaluation time per worker (utilization numerator).
    pub fn worker_busy(&self) -> Vec<Duration> {
        self.state
            .busy
            .iter()
            .map(|g| Duration::from_micros(g.busy_micros.load(Ordering::Relaxed)))
            .collect()
    }

    /// Design points evaluated since start.
    pub fn points_evaluated(&self) -> u64 {
        self.state.points_done.load(Ordering::Relaxed)
    }

    /// Observed mean evaluation time per point, or `None` before the
    /// first point completes.
    pub fn avg_point_micros(&self) -> Option<u64> {
        let (done, micros) = self.state.rate_snapshot();
        if done == 0 {
            return None;
        }
        Some(micros / done)
    }

    /// A queue-depth-aware `Retry-After` estimate in whole seconds: how
    /// long draining the current backlog should take at the observed
    /// service rate, clamped to `1..=60`. Before any point has completed
    /// the estimate assumes 50 ms per point rather than guessing zero.
    pub fn suggested_retry_after(&self) -> u64 {
        let per_point = self.avg_point_micros().unwrap_or(50_000).max(1);
        let backlog = self.queue_depth() as u64 + self.busy_workers() as u64;
        let workers = self.state.busy.len().max(1) as u64;
        let drain_micros = backlog.saturating_mul(per_point) / workers;
        drain_micros.div_ceil(1_000_000).clamp(1, 60)
    }

    /// Closes the queue and joins the workers. Jobs already queued are
    /// still evaluated (the drain); new submissions are refused.
    /// Idempotent — a second call finds no workers left to join.
    pub fn shutdown(&self) {
        self.state.open.store(false, Ordering::SeqCst);
        self.state.available.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("scheduler workers lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &State, index: usize) {
    loop {
        let batch = {
            let mut queue = state.queue.lock().expect("scheduler queue lock");
            loop {
                if let Some(first) = queue.pop_front() {
                    break claim_batch(&mut queue, first, state.max_batch);
                }
                if !state.open.load(Ordering::SeqCst) {
                    return;
                }
                queue = state
                    .available
                    .wait(queue)
                    .expect("scheduler queue lock poisoned");
            }
        };
        let gauge = &state.busy[index];
        gauge.busy_now.store(true, Ordering::Relaxed);
        let started = Instant::now();
        evaluate_batch(&state.policy, &batch);
        let elapsed = started.elapsed().as_micros() as u64;
        gauge.busy_micros.fetch_add(elapsed, Ordering::Relaxed);
        gauge.busy_now.store(false, Ordering::Relaxed);
        // Micros first (Release), count second: a reader that observes
        // the new `points_done` is guaranteed to also observe at least
        // the matching `eval_micros` — see `State::rate_snapshot`.
        state.eval_micros.fetch_add(elapsed, Ordering::Release);
        state
            .points_done
            .fetch_add(batch.len() as u64, Ordering::Release);
    }
}

/// Pulls every job compatible with `first` (same trace set by identity,
/// same warm-up) out of the queue, up to `max_batch` total, preserving
/// queue order for the rest.
fn claim_batch(queue: &mut VecDeque<Job>, first: Job, max_batch: usize) -> Vec<Job> {
    let mut batch = vec![first];
    let mut rest = VecDeque::with_capacity(queue.len());
    while let Some(job) = queue.pop_front() {
        let compatible = batch.len() < max_batch
            && Arc::ptr_eq(&job.traces, &batch[0].traces)
            && job.warmup == batch[0].warmup;
        if compatible {
            batch.push(job);
        } else {
            rest.push_back(job);
        }
    }
    *queue = rest;
    batch
}

/// Evaluates one coalesced batch as a grid under the supervisor,
/// streaming each point's result to its submitter as it completes.
fn evaluate_batch(policy: &SupervisorPolicy, batch: &[Job]) {
    let configs: Vec<CacheConfig> = batch.iter().map(|job| job.config).collect();
    let traces = &batch[0].traces.traces;
    let warmup = batch[0].warmup;
    // workers=1: parallelism is the scheduler's worker count, not a
    // nested pool per batch. The supervisor still plans multisim slices
    // over the whole batch, which is the coalescing payoff.
    let (_, _stats) =
        evaluate_results_supervised_with(policy, &configs, traces, warmup, Some(1), |i, result| {
            if let Some(job) = batch.get(i) {
                let _ = job.reply.send(JobResult {
                    key: job.key,
                    result: result.clone(),
                });
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{point_key, trace_fingerprint};
    use occache_workloads::WorkloadSpec;
    use std::sync::mpsc::channel;

    // Local stand-ins for the workload helpers that live above this
    // crate: PDP-11 traces and the net-64, word-2 Table 1 grid.
    fn config(net: u64, block: u64, sub: u64) -> CacheConfig {
        CacheConfig::builder()
            .net_size(net)
            .block_size(block)
            .sub_block_size(sub)
            .word_size(2)
            .build()
            .expect("Table 1 geometry is valid")
    }

    fn grid_64() -> Vec<CacheConfig> {
        let mut configs = Vec::new();
        let mut block = 16u64;
        while block >= 2 {
            let mut sub = block;
            while sub >= 2 {
                configs.push(config(64, block, sub));
                sub /= 2;
            }
            block /= 2;
        }
        configs
    }

    fn small_set() -> Arc<TraceSet> {
        let spec = WorkloadSpec::pdp11_ed();
        let traces = vec![Trace::new(spec.name(), spec.generator(0).take(2_000))];
        let fingerprint = trace_fingerprint(&traces);
        Arc::new(TraceSet {
            traces,
            fingerprint,
        })
    }

    #[test]
    fn evaluates_submitted_jobs_and_echoes_keys() {
        let set = small_set();
        let sched = Scheduler::new(2, 16, 8, SupervisorPolicy::disabled());
        let (tx, rx) = channel();
        let configs = grid_64();
        for config in &configs {
            sched
                .submit(Job {
                    config: *config,
                    traces: Arc::clone(&set),
                    warmup: 0,
                    priority: Priority::Interactive,
                    key: point_key(config, set.fingerprint, 0),
                    reply: tx.clone(),
                })
                .expect("queue accepts the job");
        }
        drop(tx);
        let mut results: Vec<JobResult> = rx.iter().take(configs.len()).collect();
        assert_eq!(results.len(), configs.len());
        results.sort_by_key(|r| r.key);
        let mut expected: Vec<u64> = configs
            .iter()
            .map(|c| point_key(c, set.fingerprint, 0))
            .collect();
        expected.sort_unstable();
        assert_eq!(results.iter().map(|r| r.key).collect::<Vec<_>>(), expected);
        assert!(results.iter().all(|r| r.result.is_ok()));
        sched.shutdown();
    }

    #[test]
    fn full_queue_refuses_with_busy() {
        // Zero workers is clamped to one, so use a held-up scheduler:
        // capacity 1 with no worker able to keep up is hard to arrange
        // deterministically; instead close the window by filling the
        // queue before workers can drain (capacity 1, many instant
        // submits — at least one Busy must appear or all succeeded
        // because the pool kept pace; assert only the invariant that
        // submit never blocks).
        let set = small_set();
        let sched = Scheduler::new(1, 1, 1, SupervisorPolicy::disabled());
        let (tx, rx) = channel();
        let config = config(64, 8, 4);
        let mut accepted = 0usize;
        for _ in 0..64 {
            match sched.submit(Job {
                config,
                traces: Arc::clone(&set),
                warmup: 0,
                priority: Priority::Bulk,
                key: 1,
                reply: tx.clone(),
            }) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Busy) => {}
                Err(SubmitError::Closed) => panic!("scheduler closed early"),
            }
        }
        drop(tx);
        assert!(accepted >= 1);
        let received = rx.iter().count();
        assert_eq!(received, accepted, "every accepted job must be answered");
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_refuses() {
        let set = small_set();
        let sched = Scheduler::new(1, 32, 32, SupervisorPolicy::disabled());
        let (tx, rx) = channel();
        let config = config(64, 16, 8);
        for _ in 0..8 {
            sched
                .submit(Job {
                    config,
                    traces: Arc::clone(&set),
                    warmup: 0,
                    priority: Priority::Interactive,
                    key: 7,
                    reply: tx.clone(),
                })
                .expect("queue accepts the job");
        }
        drop(tx);
        sched.shutdown();
        assert_eq!(rx.iter().count(), 8, "shutdown must drain the queue");
    }

    #[test]
    fn rate_snapshot_never_tears_under_concurrent_completion() {
        // A writer publishes (micros, done) in worker order — micros
        // first — with exactly 1 000 µs per point. Any coherent snapshot
        // therefore satisfies micros ≥ done × 1 000; a torn pair (fresh
        // count over a stale sum, the old two-Relaxed-loads bug) breaks
        // that and yields the 0 s Retry-After outlier.
        let state = Arc::new(State {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            open: AtomicBool::new(true),
            capacity: 1,
            max_batch: 1,
            policy: SupervisorPolicy::disabled(),
            busy: Vec::new(),
            points_done: AtomicU64::new(0),
            eval_micros: AtomicU64::new(0),
        });
        let writer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                for _ in 0..50_000u64 {
                    state.eval_micros.fetch_add(1_000, Ordering::Release);
                    state.points_done.fetch_add(1, Ordering::Release);
                }
            })
        };
        let mut observed = 0u64;
        while observed < 50_000 {
            let (done, micros) = state.rate_snapshot();
            assert!(
                micros >= done.saturating_mul(1_000),
                "torn snapshot: done={done} micros={micros}"
            );
            observed = done;
        }
        writer.join().expect("writer thread");
        assert_eq!(state.rate_snapshot(), (50_000, 50_000_000));
    }

    #[test]
    fn bulk_lane_and_retry_estimate_are_bounded() {
        let sched = Scheduler::new(2, 8, 4, SupervisorPolicy::disabled());
        assert_eq!(sched.bulk_capacity(), 4);
        // No observations yet: the estimate falls back to the default
        // service time and stays within the clamp.
        assert!((1..=60).contains(&sched.suggested_retry_after()));
        assert_eq!(sched.avg_point_micros(), None);

        // After real work the rate estimate is observed, not guessed.
        let set = small_set();
        let (tx, rx) = channel();
        let config = config(64, 8, 4);
        sched
            .submit(Job {
                config,
                traces: Arc::clone(&set),
                warmup: 0,
                priority: Priority::Bulk,
                key: point_key(&config, set.fingerprint, 0),
                reply: tx,
            })
            .expect("queue accepts the job");
        assert!(rx.recv().expect("job answered").result.is_ok());
        sched.shutdown();
        assert_eq!(sched.points_evaluated(), 1);
        assert!(sched.avg_point_micros().is_some());
        assert!((1..=60).contains(&sched.suggested_retry_after()));
    }

    #[test]
    fn coalesced_batch_matches_direct_evaluation() {
        use crate::eval::evaluate_point;
        let set = small_set();
        let sched = Scheduler::new(1, 64, 64, SupervisorPolicy::disabled());
        let (tx, rx) = channel();
        let configs = grid_64();
        for config in &configs {
            sched
                .submit(Job {
                    config: *config,
                    traces: Arc::clone(&set),
                    warmup: 0,
                    priority: Priority::Interactive,
                    key: point_key(config, set.fingerprint, 0),
                    reply: tx.clone(),
                })
                .expect("queue accepts the job");
        }
        drop(tx);
        let results: Vec<JobResult> = rx.iter().collect();
        sched.shutdown();
        for config in &configs {
            let key = point_key(config, set.fingerprint, 0);
            let got = results
                .iter()
                .find(|r| r.key == key)
                .and_then(|r| r.result.as_ref().ok())
                .unwrap_or_else(|| panic!("missing result for {config}"));
            let direct = evaluate_point(*config, &set.traces, 0);
            assert_eq!(got.miss_ratio.to_bits(), direct.miss_ratio.to_bits());
            assert_eq!(got.traffic_ratio.to_bits(), direct.traffic_ratio.to_bits());
        }
    }
}
