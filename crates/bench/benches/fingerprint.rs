//! Trace-set fingerprinting, cold against memoized.
//!
//! Every checkpointed sweep derives its journal keys from
//! [`trace_fingerprint`], which folds nine bytes per reference through
//! FNV-1a. The walk over a trace's references is memoized on the trace's
//! shared backing, so only the first fingerprint of a set in a process
//! pays for it; a resume over a complete journal pays only the per-trace
//! name and length. The cold case renames every trace each iteration,
//! which changes the FNV state each walk starts from and so misses the
//! memo; the memoized case fingerprints the same set again.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use occache_experiments::runs::{journalled_grid, Workbench};
use occache_runtime::eval::Trace;
use occache_runtime::keys::trace_fingerprint;

/// Reduced trace length (the binaries default to the paper's 1 million).
const TRACE_LEN: usize = 100_000;

fn bench_fingerprint(c: &mut Criterion) {
    let mut bench = Workbench::new(TRACE_LEN);
    let sets: Vec<Vec<Trace>> = journalled_grid(&mut bench, "table7")
        .expect("table7 keeps a journal")
        .into_iter()
        .map(|group| group.traces)
        .collect();
    let refs: usize = sets.iter().flatten().map(Trace::len).sum();

    let mut group = c.benchmark_group("fingerprint");
    group.sample_size(10);
    group.throughput(Throughput::Elements(refs as u64));
    group.bench_with_input(BenchmarkId::new("table7", "cold"), &sets, |b, sets| {
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            sets.iter()
                .map(|set| {
                    let renamed: Vec<Trace> = set
                        .iter()
                        .map(|trace| {
                            let mut trace = trace.clone();
                            trace.name = format!("{}#{round}", trace.name);
                            trace
                        })
                        .collect();
                    trace_fingerprint(&renamed)
                })
                .fold(0, u64::wrapping_add)
        })
    });
    group.bench_with_input(BenchmarkId::new("table7", "memoized"), &sets, |b, sets| {
        b.iter(|| {
            sets.iter()
                .map(|set| trace_fingerprint(set))
                .fold(0, u64::wrapping_add)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fingerprint);
criterion_main!(benches);
