//! A resume inside one process, over the very traces the first run
//! fingerprinted, must still find every journal key: the second
//! fingerprint of a set comes from the per-trace memo on the shared
//! backing, and it has to equal the first bit for bit. Table 7 run twice
//! on one [`Workbench`] computes nothing the second time and renders
//! byte-identical CSVs and report.
//!
//! One `#[test]` only: the run depends on process-global environment
//! (`OCCACHE_RESULTS`), so this file must not gain a second test that
//! could run concurrently in the same process.

use occache_experiments::runs::{journalled_grid, run_table7, sweep_groups, Workbench};

/// References per trace: small enough for a debug-profile test run.
const REFS: usize = 2_000;

#[test]
fn resume_over_the_same_in_memory_traces_computes_nothing() {
    for var in [
        "OCCACHE_NO_MULTISIM",
        "OCCACHE_REPLACEMENT",
        "OCCACHE_REFS",
        "OCCACHE_WARMUP",
        "OCCACHE_FAULT_POINT",
        "OCCACHE_FRESH",
    ] {
        std::env::remove_var(var);
    }
    let dir = std::env::temp_dir().join(format!("occache-resume-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    std::env::set_var("OCCACHE_RESULTS", &dir);

    let mut bench = Workbench::new(REFS);
    let first = run_table7(&mut bench);

    // The same workbench hands back the same in-memory traces, so every
    // fingerprint below is served from the memo the first run filled.
    let groups = journalled_grid(&mut bench, "table7").expect("table7 keeps a journal");
    let again = journalled_grid(&mut bench, "table7").expect("table7 keeps a journal");
    for (a, b) in groups.iter().zip(&again) {
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert!(x.shares_backing(y), "{} was regenerated", x.name);
        }
    }
    for (group, outcome) in groups.iter().zip(sweep_groups("table7", &groups)) {
        assert!(outcome.is_complete(), "{:?}", outcome.failure_note());
        assert_eq!(
            outcome.resumed,
            group.configs.len(),
            "a point was recomputed"
        );
        assert_eq!(outcome.points.len(), group.configs.len());
    }

    let second = run_table7(&mut bench);
    assert_eq!(first.csv, second.csv, "resumed CSVs differ");
    assert_eq!(first.report, second.report, "resumed report differs");

    std::env::remove_var("OCCACHE_RESULTS");
    let _ = std::fs::remove_dir_all(&dir);
}
