//! CI perf smoke: regenerate a Table-7-style grid on the packed traces
//! every user path runs — direct simulation against the sliced one-pass
//! sweep — and record wall-clock and throughput in `BENCH_sweep.json`.
//! A second pair of passes re-runs the grid under FIFO replacement,
//! timing the one-pass FIFO engine against per-config direct
//! simulation, so the trajectory gate covers every shipped engine, not
//! just the LRU fast path.
//!
//! Every pass goes through the same supervised (unit, trace) pool with
//! the same `OCCACHE_JOBS` worker budget; the direct baselines differ
//! only in running with every engine off (`OCCACHE_NO_MULTISIM=all`),
//! so each design point becomes its own direct task. All paths simulate
//! identical work and are checked here to produce bit-identical ratios
//! before the timing is trusted; the speedup and throughput figures are
//! therefore like-for-like measurements, not a benchmark of different
//! computations. The headline `effective_refs_per_sec` comes from the
//! sliced LRU sweep; its wall clock is the best of [`REPS`] passes so
//! one scheduler hiccup on a shared box does not masquerade as a
//! regression (`ci.sh` gates on the committed value).

use std::process::ExitCode;
use std::time::Instant;

use occache_core::CacheConfig;
use occache_experiments::sweep::{
    evaluate_results_sliced, materialize, plan_units, slice_workers, standard_config, table1_pairs,
    DesignPoint, PointError, Trace,
};
use occache_workloads::{Architecture, WorkloadSpec};

/// Default references per trace; `OCCACHE_REFS` overrides (the paper's
/// 1 M is ~10× this smoke size).
const REFS_PER_TRACE: usize = 100_000;

/// Timed passes for each engine sweep; the minimum wall is reported.
const REPS: usize = 5;

fn points(results: Vec<Result<DesignPoint, PointError>>) -> Vec<DesignPoint> {
    results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("perf smoke grid must evaluate cleanly")
}

/// The sliced sweep with every one-pass engine off, so each point runs
/// the direct simulator as its own task on the same pool. Any
/// `OCCACHE_NO_MULTISIM` the caller set is restored afterwards.
fn direct_sweep(configs: &[CacheConfig], traces: &[Trace]) -> (Vec<DesignPoint>, f64) {
    let saved = std::env::var_os("OCCACHE_NO_MULTISIM");
    std::env::set_var("OCCACHE_NO_MULTISIM", "all");
    let t = Instant::now();
    let direct = points(evaluate_results_sliced(configs, traces, 0));
    let wall = t.elapsed().as_secs_f64();
    match saved {
        Some(v) => std::env::set_var("OCCACHE_NO_MULTISIM", v),
        None => std::env::remove_var("OCCACHE_NO_MULTISIM"),
    }
    (direct, wall)
}

/// [`REPS`] sliced sweeps: the points, then the first (single-shot)
/// and the minimum wall.
fn sliced_sweep(configs: &[CacheConfig], traces: &[Trace]) -> (Vec<DesignPoint>, f64, f64) {
    let mut walls = Vec::with_capacity(REPS);
    let mut sliced = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        sliced = points(evaluate_results_sliced(configs, traces, 0));
        walls.push(t.elapsed().as_secs_f64());
    }
    let best = walls.iter().copied().fold(f64::MAX, f64::min);
    (sliced, walls[0], best)
}

/// Asserts the sliced sweep reproduced the direct one bit for bit.
fn assert_identical(label: &str, direct: &[DesignPoint], sliced: &[DesignPoint]) {
    assert_eq!(direct.len(), sliced.len());
    for (d, s) in direct.iter().zip(sliced) {
        assert_eq!(d.config, s.config);
        assert!(
            d.miss_ratio == s.miss_ratio && d.traffic_ratio == s.traffic_ratio,
            "{label} sliced sweep diverged from direct at {}: timing would be meaningless",
            d.config
        );
    }
}

fn main() -> ExitCode {
    let refs_per_trace = match occache_runtime::config::env_usize("OCCACHE_REFS", REFS_PER_TRACE) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let arch = Architecture::Pdp11;
    let traces = materialize(&WorkloadSpec::set_for(arch), refs_per_trace);
    let configs: Vec<CacheConfig> = [64u64, 256, 1024]
        .into_iter()
        .flat_map(|net| {
            table1_pairs(net, arch.word_size())
                .into_iter()
                .map(move |(b, s)| standard_config(arch, net, b, s))
        })
        .collect();

    let (direct, direct_s) = direct_sweep(&configs, &traces);
    let (sliced, single_s, sliced_s) = sliced_sweep(&configs, &traces);
    assert_identical("LRU", &direct, &sliced);

    // The same grid down the FIFO axis: per-config direct simulation vs
    // the one-pass FIFO slice engine, bit-identity asserted before the
    // timing is trusted (exactly as above for LRU).
    let fifo_configs: Vec<CacheConfig> = configs
        .iter()
        .map(|c| {
            CacheConfig::builder()
                .net_size(c.net_size())
                .block_size(c.block_size())
                .sub_block_size(c.sub_block_size())
                .word_size(c.word_size())
                .replacement(occache_core::ReplacementPolicy::Fifo)
                .build()
                .expect("FIFO twin of a Table-1 geometry is valid")
        })
        .collect();
    let (fifo_direct, fifo_direct_s) = direct_sweep(&fifo_configs, &traces);
    let (fifo_sliced, _, fifo_sim_s) = sliced_sweep(&fifo_configs, &traces);
    assert_identical("FIFO", &fifo_direct, &fifo_sliced);

    let threads = slice_workers(plan_units(&configs).len() * traces.len());
    let total_refs = (configs.len() * traces.len() * refs_per_trace) as f64;
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"grid\": \"pdp11 Table 7 nets 64/256/1024\",\n  \
         \"points\": {},\n  \"traces\": {},\n  \"refs_per_trace\": {},\n  \
         \"threads\": {},\n  \
         \"direct_wall_s\": {:.3},\n  \"sliced_wall_s\": {:.3},\n  \
         \"sim_wall_s\": {:.3},\n  \"speedup\": {:.2},\n  \
         \"effective_refs_per_sec\": {:.0},\n  \
         \"fifo_direct_wall_s\": {:.3},\n  \"fifo_sim_wall_s\": {:.3},\n  \
         \"fifo_vs_direct\": {:.2},\n  \"fifo_refs_per_sec\": {:.0}\n}}\n",
        configs.len(),
        traces.len(),
        refs_per_trace,
        threads,
        direct_s,
        single_s,
        sliced_s,
        direct_s / sliced_s,
        total_refs / sliced_s,
        fifo_direct_s,
        fifo_sim_s,
        fifo_direct_s / fifo_sim_s,
        total_refs / fifo_sim_s,
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    print!("{json}");
    eprintln!(
        "perf smoke: direct {direct_s:.3}s vs sliced {sliced_s:.3}s best-of-{REPS} ({:.2}x); \
         fifo direct {fifo_direct_s:.3}s vs engine {fifo_sim_s:.3}s ({:.2}x)",
        direct_s / sliced_s,
        fifo_direct_s / fifo_sim_s,
    );
    ExitCode::SUCCESS
}
