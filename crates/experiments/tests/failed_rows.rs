//! A failed Table 8 point renders, it does not panic: with
//! `OCCACHE_FAULT_POINT` failing one load-forward row, that row comes
//! back as a structured failure and a `FAILED` report row (left out of
//! the CSV) followed by the failure note, while the other ten rows are
//! bit-identical to [`evaluate_point`].
//!
//! One `#[test]` only: the run depends on process-global environment
//! (`OCCACHE_RESULTS`, `OCCACHE_JOBS`, `OCCACHE_FAULT_POINT`,
//! `OCCACHE_POINT_RETRIES`), so this file must not gain a second test
//! that could run concurrently in the same process.

use std::path::PathBuf;

use occache_core::FetchPolicy;
use occache_experiments::runs::{journalled_grid, run_table8, sweep_groups, Workbench};
use occache_experiments::sweep::evaluate_point;
use occache_experiments::PointFault;

/// References per trace: small enough for a debug-profile test run.
const REFS: usize = 2_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occache-failed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    dir
}

#[test]
fn failed_load_forward_row_renders_and_spares_the_other_rows() {
    for var in [
        "OCCACHE_NO_MULTISIM",
        "OCCACHE_REPLACEMENT",
        "OCCACHE_REFS",
        "OCCACHE_WARMUP",
        "OCCACHE_POINT_TIMEOUT",
        "OCCACHE_FRESH",
    ] {
        std::env::remove_var(var);
    }
    // One worker claims tasks in planning order: the load-forward rows'
    // direct units come first, so the 256-byte (16,2) load-forward row
    // trips the one-shot panic before the demand (16,2) row's engine
    // pass does, and with no retries that row alone fails.
    std::env::set_var("OCCACHE_JOBS", "1");
    std::env::set_var("OCCACHE_POINT_RETRIES", "0");
    std::env::set_var("OCCACHE_FAULT_POINT", "panic-once:16,2");

    let swept = scratch("sweep");
    std::env::set_var("OCCACHE_RESULTS", &swept);
    let mut bench = Workbench::new(REFS);
    let groups = journalled_grid(&mut bench, "table8").expect("table8 keeps a journal");
    let outcome = sweep_groups("table8", &groups).remove(0);
    let group = &groups[0];
    assert_eq!(group.configs.len(), 11);
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    let failed = &outcome.failures[0];
    assert_eq!(failed.fault, PointFault::Panic);
    assert_eq!(
        (
            failed.config.net_size(),
            failed.config.block_size(),
            failed.config.sub_block_size(),
            failed.config.fetch(),
        ),
        (256, 16, 2, FetchPolicy::LOAD_FORWARD)
    );
    assert_eq!(outcome.points.len(), 10);
    for point in &outcome.points {
        let want = evaluate_point(point.config, &group.traces, group.warmup);
        assert_eq!(point.gross_size, want.gross_size);
        for (got, want) in [
            (point.miss_ratio, want.miss_ratio),
            (point.traffic_ratio, want.traffic_ratio),
            (point.nibble_traffic_ratio, want.nibble_traffic_ratio),
            (point.redundant_load_fraction, want.redundant_load_fraction),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{}", point.config);
        }
    }

    // The rendered table, from a fresh journal so the row fails again.
    let rendered = scratch("render");
    std::env::set_var("OCCACHE_RESULTS", &rendered);
    let artifact = run_table8(&mut bench);
    let failed_rows: Vec<&str> = artifact
        .report
        .lines()
        .filter(|l| l.contains("FAILED"))
        .collect();
    assert!(
        failed_rows
            .iter()
            .any(|l| l.contains("256") && l.contains("16,2,LF") && l.contains('|')),
        "no FAILED table row for 256 (16,2,LF):\n{}",
        artifact.report
    );
    assert!(
        artifact
            .report
            .contains("1 design point(s) FAILED; the table above omits them or marks them FAILED"),
        "{}",
        artifact.report
    );
    let csv = &artifact.csv[0].1;
    assert_eq!(csv.lines().count(), 1 + 10, "{csv}");
    assert!(!csv.contains("256,16,2,true"), "{csv}");

    for var in [
        "OCCACHE_RESULTS",
        "OCCACHE_JOBS",
        "OCCACHE_POINT_RETRIES",
        "OCCACHE_FAULT_POINT",
    ] {
        std::env::remove_var(var);
    }
    let _ = std::fs::remove_dir_all(&swept);
    let _ = std::fs::remove_dir_all(&rendered);
}
