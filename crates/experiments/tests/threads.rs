//! Slice-level parallelism must be real and invisible in the artifacts.
//!
//! Real: a Table 7 grid of one architecture is a single engine unit,
//! and the executor splits it into one task per trace, so a budget of
//! two workers must put both of them to work. Table 8 mixes shapes —
//! its demand rows are one engine unit, its load-forward rows direct
//! units — and `OCCACHE_JOBS=2` must run both workers on that grid too.
//! Invisible: Table 7 and Table 8 regenerated with `OCCACHE_JOBS=1`,
//! `=2` and `=4` must write byte-identical reports, CSVs and
//! `MANIFEST.json`. Worker threads race only on wall clock — per-trace
//! passes are folded in trace order and results stitched back in
//! planning order before anything is rendered, so a thread-count change
//! can never shift a committed byte.
//!
//! The tests depend on process-global environment (`OCCACHE_RESULTS`,
//! `OCCACHE_JOBS`, `OCCACHE_NO_MULTISIM`), so
//! each holds [`ENV`] for its whole run and they never overlap.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use occache_experiments::manifest::MANIFEST_FILE;
use occache_experiments::runs::{journalled_grid, run_table7, run_table8, Artifact, Workbench};
use occache_experiments::supervisor::{
    evaluate_results_supervised_with, FaultPlan, SupervisorPolicy,
};
use occache_experiments::sweep::{
    evaluate_point, materialize, plan_units, standard_config, table1_pairs, SweepUnit,
};
use occache_workloads::{Architecture, WorkloadSpec};

/// References per trace: small enough for a debug-profile test run,
/// large enough that every Table 1 pair sees real misses.
const REFS: usize = 2_000;

/// Serialises the tests of this file over the process environment.
static ENV: Mutex<()> = Mutex::new(());

/// Clears every sweep-shaping variable except the worker count.
fn clear_env() {
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    std::env::remove_var("OCCACHE_REPLACEMENT");
    std::env::remove_var("OCCACHE_REFS");
    std::env::remove_var("OCCACHE_WARMUP");
    std::env::remove_var("OCCACHE_POINT_TIMEOUT");
    std::env::remove_var("OCCACHE_POINT_RETRIES");
    std::env::remove_var("OCCACHE_FAULT_POINT");
    std::env::remove_var("OCCACHE_FRESH");
}

/// Runs an artifact into a fresh scratch results dir with the given
/// `OCCACHE_JOBS` worker count and returns its report plus
/// `file name -> bytes` for every emitted file (CSVs plus
/// `MANIFEST.json`).
fn emit_with_jobs(
    threads: &str,
    run: fn(&mut Workbench) -> Artifact,
) -> (String, BTreeMap<String, Vec<u8>>) {
    let scratch =
        std::env::temp_dir().join(format!("occache-threads-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch results dir");
    std::env::set_var("OCCACHE_RESULTS", &scratch);
    std::env::set_var("OCCACHE_JOBS", threads);
    clear_env();
    // Manifest fingerprints fold over the in-process phase registry;
    // start each run from a clean one so the manifests describe the
    // same phases.
    occache_experiments::run_report::reset();

    let mut bench = Workbench::new(REFS);
    let artifact = run(&mut bench);
    artifact.emit().expect("emit artifact");

    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(&scratch).expect("read scratch results dir") {
        let entry = entry.expect("read scratch dir entry");
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == MANIFEST_FILE || Path::new(&name).extension().is_some_and(|e| e == "csv") {
            files.insert(name, std::fs::read(&path).expect("read emitted file"));
        }
    }
    std::env::remove_var("OCCACHE_JOBS");
    let _ = std::fs::remove_dir_all(&scratch);
    (artifact.report, files)
}

/// An artifact regenerated at 1, 2 and 4 workers writes the same report
/// and the same bytes to every file.
fn assert_jobs_invisible(name: &str, run: fn(&mut Workbench) -> Artifact) {
    let (report, serial) = emit_with_jobs("1", run);
    assert!(
        serial.contains_key(MANIFEST_FILE),
        "{name} emit must write {MANIFEST_FILE}"
    );
    assert!(
        serial.keys().any(|n| n.ends_with(".csv")),
        "{name} emit must write at least one CSV"
    );
    for threads in ["2", "4"] {
        let (threaded_report, threaded) = emit_with_jobs(threads, run);
        assert_eq!(
            report, threaded_report,
            "{name} report differs between OCCACHE_JOBS=1 and ={threads}"
        );
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            threaded.keys().collect::<Vec<_>>(),
            "thread count changed the set of {name} files"
        );
        for (file, bytes) in &serial {
            assert_eq!(
                bytes, &threaded[file],
                "{file} differs between OCCACHE_JOBS=1 and ={threads}"
            );
        }
    }
}

#[test]
fn slice_thread_count_never_changes_artifact_bytes() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    assert_jobs_invisible("table7", run_table7);
}

#[test]
fn table8_mixed_grid_uses_both_workers_and_keeps_its_bytes() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    assert_jobs_invisible("table8", run_table8);

    clear_env();
    let mut bench = Workbench::new(REFS);
    let group = journalled_grid(&mut bench, "table8")
        .expect("table8 keeps a journal")
        .remove(0);
    let units = plan_units(&group.configs);
    let direct = units
        .iter()
        .filter(|u| matches!(u, SweepUnit::Direct(_)))
        .count();
    assert_eq!(direct, 3, "the load-forward rows are direct units");
    assert_eq!(units.len(), 4, "the demand rows share one engine unit");

    // The 256-byte (16,2) cell is a load-forward direct unit and a
    // member of the engine unit's first pass. Holding it (a hang with
    // no deadline never fails) keeps one worker busy far longer than a
    // thread takes to start, so the pool's second worker must claim
    // the remaining tasks.
    let mut policy = SupervisorPolicy::disabled();
    policy.fault = FaultPlan::hang(16, 2, Duration::from_millis(300));
    std::env::set_var("OCCACHE_JOBS", "2");
    let (results, stats) = evaluate_results_supervised_with(
        &policy,
        &group.configs,
        &group.traces,
        group.warmup,
        None,
        |_, _| {},
    );
    std::env::remove_var("OCCACHE_JOBS");
    assert_eq!(stats.busy_workers, 2, "OCCACHE_JOBS=2 must run two workers");
    assert_eq!(
        stats.direct_points, 3,
        "only the load-forward rows go direct"
    );
    for (config, result) in group.configs.iter().zip(&results) {
        let point = result.as_ref().expect("the grid evaluates cleanly");
        let want = evaluate_point(*config, &group.traces, group.warmup);
        assert_eq!(point.miss_ratio.to_bits(), want.miss_ratio.to_bits());
        assert_eq!(point.traffic_ratio.to_bits(), want.traffic_ratio.to_bits());
        assert_eq!(
            point.redundant_load_fraction.to_bits(),
            want.redundant_load_fraction.to_bits()
        );
    }
}

#[test]
fn single_unit_grid_runs_on_every_worker_in_the_budget() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    let traces = materialize(
        &[
            WorkloadSpec::pdp11_ed(),
            WorkloadSpec::pdp11_opsys(),
            WorkloadSpec::pdp11_roff(),
        ],
        REFS,
    );
    let configs: Vec<_> = [64, 256, 1024]
        .into_iter()
        .flat_map(|net| {
            table1_pairs(net, 2)
                .into_iter()
                .map(move |(b, s)| standard_config(Architecture::Pdp11, net, b, s))
        })
        .collect();
    assert_eq!(plan_units(&configs).len(), 1, "the grid is one engine unit");

    // Pass 0 of the unit holds its worker (a hang with no deadline
    // never fails) far longer than a thread takes to start, so under a
    // budget of two the second worker claims the other passes.
    let (block, sub) = (configs[0].block_size(), configs[0].sub_block_size());
    let mut policy = SupervisorPolicy::disabled();
    policy.fault = FaultPlan::hang(block, sub, Duration::from_secs(2));
    for (budget, busy) in [(2, 2), (1, 1)] {
        let (results, stats) = evaluate_results_supervised_with(
            &policy,
            &configs,
            &traces,
            0,
            Some(budget),
            |_, _| {},
        );
        assert_eq!(
            stats.busy_workers, busy,
            "a budget of {budget} must run {busy} worker(s)"
        );
        assert_eq!(stats.direct_points, 0, "every point rides the engine");
        for (config, result) in configs.iter().zip(&results) {
            let point = result.as_ref().expect("the grid evaluates cleanly");
            let direct = evaluate_point(*config, &traces, 0);
            assert_eq!(point.miss_ratio.to_bits(), direct.miss_ratio.to_bits());
            assert_eq!(
                point.traffic_ratio.to_bits(),
                direct.traffic_ratio.to_bits()
            );
        }
    }
}
