//! Run supervision for paper-scale sweeps — re-exported from
//! [`occache_runtime::executor`], where the watchdog, retry/backoff and
//! worker-pool machinery now lives (shared with `occache-serve`'s
//! scheduler). This module keeps the historical import path
//! (`occache_experiments::supervisor::*`) working for the batch bins and
//! downstream callers; it contains no logic of its own.
//!
//! The benchmark under `perfbench/` imports this path, so retiring it
//! means changing the benchmark first.

pub use occache_runtime::executor::{
    evaluate_results_supervised, evaluate_results_supervised_with, FaultKind, FaultPlan,
    SuperviseStats, SupervisorPolicy, DEFAULT_POINT_TIMEOUT,
};
