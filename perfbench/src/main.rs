//! `occache-perfbench`: the repository's benchmark. One run measures one
//! workload for a fixed time and prints, as its last line, one JSON
//! object with the verdict of its output checks, the operations it
//! attempted and failed, and every metric of the run's set: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table7 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. Scratch files go under
//! `perfbench/work/`. Exit status: 0 when every output check passed, 1
//! when one failed (the result line still prints), 2 on a usage or
//! set-up error (no result line). See `perfbench/README.md`.

mod batch;
mod host;
mod metrics;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use batch::Batch;
use metrics::{END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table7", "policies", "serve"];

/// One run's settings.
pub struct Run {
    /// The workload seed; 0 is the canonical trace set.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Scratch directory for results, journals and the run log.
    pub work: PathBuf,
}

struct Args {
    workload: String,
    run: Run,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v:?} is not a positive number"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            work: PathBuf::from("perfbench/work"),
        },
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    if let (Some(flag), Some(journal)) = (argv.next(), argv.next()) {
        if flag == serve::NODE_FLAG {
            return serve::node_main(&journal);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.run.work.display());
        return ExitCode::from(2);
    }
    let run = &args.run;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("table7", false) => batch::run(Batch::Table7, run),
        ("table7", true) => batch::trace(Batch::Table7, run),
        ("policies", false) => batch::run(Batch::Policies, run),
        ("policies", true) => batch::trace(Batch::Policies, run),
        (_, false) => serve::run(run),
        (_, true) => serve::trace(run),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(why) => {
            eprintln!("perfbench: {}: {why}", args.workload);
            return ExitCode::from(2);
        }
    };
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match metrics::render(&outcome, specs) {
        Ok(l) => l,
        Err(why) => {
            eprintln!("perfbench: {}: {why}", args.workload);
            return ExitCode::from(2);
        }
    };
    let stamp = host::fingerprint(std::path::Path::new("."));
    eprintln!(
        "perfbench: {} seed {} trace {}",
        args.workload,
        run.seed,
        u8::from(args.trace)
    );
    eprintln!("perfbench: host {stamp}");
    for s in specs {
        eprintln!(
            "  {:<28} {:>16.6} {}",
            s.name, outcome.values[s.name], s.unit
        );
    }
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    for failure in &outcome.failures {
        eprintln!("  CHECK FAILED: {failure}");
    }
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {stamp}, \"result\": {line}}}\n",
        args.workload, run.seed, run.seconds, args.trace
    );
    let log = run.work.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", log.display());
    }
    println!("{line}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_strict() {
        let a = parse(&[
            "--workload",
            "serve",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.run.seed, a.run.seconds, a.trace),
            ("serve", 3, 10.0, true)
        );
        assert!(parse(&["--workload", "all", "--seed", "0", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "table7", "--seed", "-1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "table7", "--seed", "0", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "table7",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "table7",
            "--seed",
            "0",
            "--seconds",
            "1",
            "--bogus"
        ])
        .is_err());
        assert!(parse(&["--workload", "table7", "--seconds", "1"]).is_err());
    }
}
