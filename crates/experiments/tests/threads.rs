//! Slice-level parallelism must be real and invisible in the artifacts.
//!
//! Real: a Table 7 grid of one architecture is a single engine unit,
//! and the executor splits it into one task per trace, so a budget of
//! two workers must put both of them to work. Invisible: Table 7
//! regenerated with `OCCACHE_JOBS=1`, `=2` and `=4` must write
//! byte-identical CSVs and a byte-identical `MANIFEST.json`. Worker
//! threads race only on wall clock — per-trace passes are folded in
//! trace order and results stitched back in planning order before
//! anything is rendered, so a thread-count change can never shift a
//! committed byte.
//!
//! Both tests depend on process-global environment (`OCCACHE_RESULTS`,
//! `OCCACHE_JOBS`, `OCCACHE_NO_MULTISIM`), so
//! each holds [`ENV`] for its whole run and they never overlap.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use occache_experiments::manifest::MANIFEST_FILE;
use occache_experiments::runs::{run_table7, Workbench};
use occache_experiments::supervisor::{
    evaluate_results_supervised_with, FaultPlan, SupervisorPolicy,
};
use occache_experiments::sweep::{
    evaluate_point, materialize, plan_units, standard_config, table1_pairs,
};
use occache_workloads::{Architecture, WorkloadSpec};

/// References per trace: small enough for a debug-profile test run,
/// large enough that every Table 1 pair sees real misses.
const REFS: usize = 2_000;

/// Serialises the tests of this file over the process environment.
static ENV: Mutex<()> = Mutex::new(());

/// Runs Table 7 into a fresh scratch results dir with the given
/// `OCCACHE_JOBS` worker count and returns `file name -> bytes` for every emitted
/// file (CSVs plus `MANIFEST.json`).
fn emit_table7(threads: &str) -> BTreeMap<String, Vec<u8>> {
    let scratch =
        std::env::temp_dir().join(format!("occache-threads-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch results dir");
    std::env::set_var("OCCACHE_RESULTS", &scratch);
    std::env::set_var("OCCACHE_JOBS", threads);
    std::env::remove_var("OCCACHE_NO_MULTISIM");
    std::env::remove_var("OCCACHE_REPLACEMENT");
    std::env::remove_var("OCCACHE_REFS");
    std::env::remove_var("OCCACHE_WARMUP");
    std::env::remove_var("OCCACHE_POINT_TIMEOUT");
    std::env::remove_var("OCCACHE_POINT_RETRIES");
    std::env::remove_var("OCCACHE_FAULT_POINT");
    std::env::remove_var("OCCACHE_FRESH");
    // Manifest fingerprints fold over the in-process phase registry;
    // start each run from a clean one so the manifests describe the
    // same phases.
    occache_experiments::run_report::reset();

    let mut bench = Workbench::new(REFS);
    let artifact = run_table7(&mut bench);
    artifact.emit().expect("emit table7 artifact");

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
    files
}

#[test]
fn slice_thread_count_never_changes_artifact_bytes() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let serial = emit_table7("1");
    assert!(
        serial.contains_key(MANIFEST_FILE),
        "table7 emit must write {MANIFEST_FILE}"
    );
    assert!(
        serial.keys().any(|n| n.ends_with(".csv")),
        "table7 emit must write at least one CSV"
    );
    for threads in ["2", "4"] {
        let threaded = emit_table7(threads);
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            threaded.keys().collect::<Vec<_>>(),
            "thread count changed the set of emitted files"
        );
        for (name, bytes) in &serial {
            assert_eq!(
                bytes, &threaded[name],
                "{name} differs between OCCACHE_JOBS=1 and ={threads}"
            );
        }
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
