#![warn(missing_docs)]

//! # occache-bench — benchmark support
//!
//! This crate exists to host the Criterion benches (`benches/`):
//!
//! * `simulator` — per-access cost of the sub-block cache across
//!   configurations, replacement policies and fetch policies, plus the
//!   stack-distance analyzer,
//! * `generator` — synthetic trace generation throughput per architecture,
//! * `artifacts` — end-to-end regeneration cost of every paper artifact
//!   (Tables 6–8, Figures 1–9, the RISC II curve) at a reduced trace
//!   length,
//! * `multisim` — the one-pass all-sizes LRU engine against N
//!   independent direct simulations of the same slice (the speedup that
//!   motivates the sweep planner),
//! * `fingerprint` — the trace-set fingerprint behind every journal key
//!   over the Table 7 trace sets, cold against memoized.
//!
//! Besides the benches, the `perf_smoke` binary regenerates a
//! Table-7-style grid through both sweep paths, asserts the results are
//! bit-identical, and writes the wall-clock comparison to
//! `BENCH_sweep.json`; `ci.sh` runs it as its final gate.
//!
//! The library itself only provides small shared helpers.

use occache_trace::MemRef;
use occache_workloads::{Architecture, WorkloadSpec};

/// A canonical benchmark trace: the architecture's first workload,
/// truncated to `len` references.
pub fn bench_trace(arch: Architecture, len: usize) -> Vec<MemRef> {
    let specs = WorkloadSpec::set_for(arch);
    specs[0].generator(0).take(len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_trace_has_requested_length() {
        assert_eq!(bench_trace(Architecture::Pdp11, 1234).len(), 1234);
    }
}
