//! The batch workloads, `table7` and `policies`: fresh regenerations of
//! the Table 7 artifact through the calls `run_table7` makes, each
//! followed by resumes over the complete journal, and a traced variant
//! that splits one regeneration into per-layer rows.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use occache_core::{simulate_many, simulate_many_pair, CacheConfig, EngineKind};
use occache_experiments::checkpoint::{evaluate_checkpointed, fnv1a, journal_path, scan_journal};
use occache_experiments::report::{points_to_csv, table7_block};
use occache_experiments::runs::{run_table8, Artifact, Workbench};
use occache_experiments::supervisor::{evaluate_results_supervised_with, SupervisorPolicy};
use occache_experiments::sweep::{
    evaluate_point, evaluate_slice, failure_note, plan_units, standard_config, table1_pairs,
    DesignPoint, SweepUnit, Trace,
};
use occache_experiments::{paper, run_report};
use occache_trace::MemRef;
use occache_workloads::{Architecture, WorkloadSpec, PAPER_TRACE_LEN};

use crate::metrics::{Outcome, SERVE_LAYERS};
use crate::stats::{median, tail};
use crate::{host, Run};

/// Resumes timed after each fresh regeneration.
const RESUMES_PER_FRESH: usize = 3;

/// Design points per sweep phase re-simulated on the direct simulator.
const RESIM_PER_PHASE: usize = 2;

/// The net sizes of Table 7.
const NETS: [u64; 3] = [64, 256, 1024];

/// The seed-0 CSV hashes (see the file's header).
const PINS: &str = include_str!("../pins.txt");

/// Which batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Table 7 under 4-way LRU, all four architectures.
    Table7,
    /// Table 7 under the FIFO and Random overrides for PDP-11 and Z8000,
    /// then Table 8.
    Policies,
}

/// One `table7` artifact regeneration: a results directory, the
/// replacement override the grid is built under, the engine that should
/// then run every point, and the architectures swept.
struct Group {
    dir: &'static str,
    replacement: Option<&'static str>,
    engine: EngineKind,
    archs: &'static [Architecture],
}

const TABLE7: &[Group] = &[Group {
    dir: "table7",
    replacement: None,
    engine: EngineKind::Lru,
    archs: &Architecture::ALL,
}];

const POLICY_ARCHS: &[Architecture] = &[Architecture::Pdp11, Architecture::Z8000];

const POLICIES: &[Group] = &[
    Group {
        dir: "fifo",
        replacement: Some("fifo"),
        engine: EngineKind::Fifo,
        archs: POLICY_ARCHS,
    },
    Group {
        dir: "random",
        replacement: Some("random"),
        engine: EngineKind::Random,
        archs: POLICY_ARCHS,
    },
];

impl Batch {
    fn groups(self) -> &'static [Group] {
        match self {
            Batch::Table7 => TABLE7,
            Batch::Policies => POLICIES,
        }
    }

    fn table8(self) -> bool {
        self == Batch::Policies
    }

    /// Every architecture whose trace set the workload sweeps, once.
    fn archs(self) -> Vec<Architecture> {
        let mut archs: Vec<Architecture> = Vec::new();
        for g in self.groups() {
            for &a in g.archs {
                if !archs.contains(&a) {
                    archs.push(a);
                }
            }
        }
        archs
    }
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

const GENERATE: &str = "workloads.generate_s";
const PACK: &str = "trace.pack_s";
const RENDER: &str = "report.render_s";
const EMIT: &str = "report.emit_s";
const WRITE: &str = "run_report.write_s";

/// Span recorder around the calls a regeneration makes into each layer.
/// Off, it only runs the closures; on, it sums each span's wall time by
/// name and keeps the checkpointed sweeps' times in call order.
#[derive(Default)]
struct Spans {
    on: bool,
    total: BTreeMap<&'static str, f64>,
    /// Wall seconds of each `evaluate_checkpointed` call, in order.
    sweeps: Vec<f64>,
    /// Process CPU seconds during those calls.
    sweep_cpu: f64,
    /// Seconds building the Table 8 workbench's traces.
    table8_traces: f64,
    /// Seconds inside `run_table8`.
    table8_run: f64,
}

impl Spans {
    fn traced() -> Spans {
        Spans {
            on: true,
            ..Spans::default()
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.total.entry(name).or_default() += t.elapsed().as_secs_f64();
        out
    }

    fn sweep<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let cpu = host::cpu_seconds().unwrap_or(0.0);
        let t = Instant::now();
        let out = f();
        self.sweeps.push(t.elapsed().as_secs_f64());
        self.sweep_cpu += host::cpu_seconds().unwrap_or(0.0) - cpu;
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }
}

// ----------------------------------------------------------------------
// One regeneration
// ----------------------------------------------------------------------

/// The materialised inputs of a regeneration.
struct Inputs {
    sets: Vec<(Architecture, Vec<Trace>)>,
    /// The Table 8 workbench, its load-forward traces already built,
    /// and those traces.
    table8: Option<(Workbench, Vec<Trace>)>,
}

impl Inputs {
    fn traces(&self, arch: Architecture) -> &[Trace] {
        self.sets
            .iter()
            .find(|(a, _)| *a == arch)
            .map(|(_, t)| t.as_slice())
            .expect("every swept architecture was set up")
    }
}

/// What a sweep pass produced.
#[derive(Default)]
struct Swept {
    /// `(seconds since the regeneration started, points)` per sweep call.
    landed: Vec<(f64, usize)>,
    /// `(group dir, file, contents)` of every CSV written.
    csv: Vec<(String, String, String)>,
    /// `(group index, arch, points)` per sweep call.
    points: Vec<(usize, Architecture, Vec<DesignPoint>)>,
    attempted: u64,
    failed: u64,
    /// Phase-count mismatches against the expected evaluation paths.
    mismatches: Vec<String>,
    /// Design points the checkpointed sweeps computed (not restored).
    computed_points: usize,
    /// Effective references simulated (not restored): each counts once
    /// per config that simulates it.
    computed_refs: f64,
    /// Seconds inside the sweep calls (`evaluate_checkpointed`,
    /// `run_table8`).
    sweep_s: f64,
}

fn grid(arch: Architecture) -> Vec<CacheConfig> {
    NETS.iter()
        .flat_map(|&net| {
            table1_pairs(net, arch.word_size())
                .into_iter()
                .map(move |(b, s)| standard_config(arch, net, b, s))
        })
        .collect()
}

fn set_replacement(replacement: Option<&str>) {
    match replacement {
        Some(policy) => std::env::set_var("OCCACHE_REPLACEMENT", policy),
        None => std::env::remove_var("OCCACHE_REPLACEMENT"),
    }
}

fn set_up(batch: Batch, seed: u64, len: usize, spans: &mut Spans) -> Inputs {
    let sets = batch
        .archs()
        .into_iter()
        .map(|arch| {
            let traces = WorkloadSpec::set_for(arch)
                .iter()
                .map(|spec| {
                    if spans.on {
                        let refs: Vec<MemRef> =
                            spans.time(GENERATE, || spec.generator(seed).take(len).collect());
                        spans.time(PACK, || Trace::new(spec.name(), refs))
                    } else {
                        Trace::new(spec.name(), spec.generator(seed).take(len))
                    }
                })
                .collect();
            (arch, traces)
        })
        .collect();
    let table8 = batch.table8().then(|| {
        let mut bench = Workbench::new(len);
        let t = Instant::now();
        let traces = bench.load_forward_traces().to_vec();
        spans.table8_traces += t.elapsed().as_secs_f64();
        (bench, traces)
    });
    Inputs { sets, table8 }
}

/// Runs every artifact of the workload over `inputs`: the sweep, render,
/// emit and run-report write that `run_table7` and `emit_main` do, once
/// per group, then, when `fresh`, Table 8. Over a complete journal and
/// without Table 8, which keeps no journal, this is the resume.
fn sweep(
    batch: Batch,
    inputs: &mut Inputs,
    work: &Path,
    len: usize,
    t0: Instant,
    fresh: bool,
    spans: &mut Spans,
) -> Result<Swept, String> {
    let mut out = Swept::default();
    let warm = Workbench::new(len);
    for (gi, group) in batch.groups().iter().enumerate() {
        let dir = work.join(group.dir);
        std::env::set_var("OCCACHE_RESULTS", &dir);
        set_replacement(group.replacement);
        run_report::reset();
        let mut report =
            format!("Table 7: nets 64/256/1024, 4-way LRU demand, {len} refs/trace\n\n");
        let mut csv = Vec::new();
        for &arch in group.archs {
            let traces = inputs.traces(arch);
            let warmup = warm.warmup_for(arch);
            let configs = grid(arch);
            let t = Instant::now();
            let outcome = spans.sweep(|| evaluate_checkpointed("table7", &configs, traces, warmup));
            out.sweep_s += t.elapsed().as_secs_f64();
            out.landed
                .push((t0.elapsed().as_secs_f64(), outcome.points.len()));
            out.attempted += configs.len() as u64;
            out.failed += outcome.failures.len() as u64;
            let computed = outcome.points.len().saturating_sub(outcome.resumed);
            out.computed_points += computed;
            out.computed_refs += (computed * traces.iter().map(Trace::len).sum::<usize>()) as f64;
            spans.time(RENDER, || {
                report.push_str(&table7_block(
                    arch.name(),
                    &outcome.points,
                    paper::table7(arch),
                ));
                if let Some(note) = failure_note(&outcome.failures) {
                    report.push_str(&note);
                }
                report.push('\n');
                csv.push((
                    format!(
                        "table7_{}.csv",
                        arch.name().to_lowercase().replace([' ', '/'], "_")
                    ),
                    points_to_csv(arch.name(), &outcome.points),
                ));
            });
            out.points.push((gi, arch, outcome.points));
        }
        let artifact = Artifact {
            name: "table7",
            report,
            csv,
        };
        spans
            .time(EMIT, || artifact.emit())
            .map_err(|e| format!("{}: {e}", group.dir))?;
        spans
            .time(WRITE, || run_report::write(&dir))
            .map_err(|e| format!("{}: run report: {e}", group.dir))?;
        check_phases(group, &mut out.mismatches);
        for (file, contents) in artifact.csv {
            out.csv.push((group.dir.to_string(), file, contents));
        }
    }
    if let Some((bench, traces)) = inputs.table8.as_mut().filter(|_| fresh) {
        let dir = work.join("table8");
        std::env::set_var("OCCACHE_RESULTS", &dir);
        set_replacement(None);
        run_report::reset();
        let t = Instant::now();
        let artifact = run_table8(bench);
        let run_s = t.elapsed().as_secs_f64();
        spans.table8_run += run_s;
        out.sweep_s += run_s;
        out.landed
            .push((t0.elapsed().as_secs_f64(), paper::TABLE8.len()));
        out.attempted += paper::TABLE8.len() as u64;
        out.computed_refs +=
            (paper::TABLE8.len() * traces.iter().map(Trace::len).sum::<usize>()) as f64;
        spans
            .time(EMIT, || artifact.emit())
            .map_err(|e| format!("table8: {e}"))?;
        spans
            .time(WRITE, || run_report::write(&dir))
            .map_err(|e| format!("table8: run report: {e}"))?;
        for (file, contents) in artifact.csv {
            out.csv.push(("table8".to_string(), file, contents));
        }
    }
    Ok(out)
}

/// Checks the run report's evaluation-path counts: every point of the
/// group either restored from the journal or run on the group's engine,
/// none on the direct simulator.
fn check_phases(group: &Group, mismatches: &mut Vec<String>) {
    for (phase, &arch) in run_report::phases().iter().zip(group.archs) {
        let points = grid(arch).len();
        let mut want = [0; 3];
        want[group.engine.index()] = phase.computed;
        if phase.engine_points != want
            || phase.direct_points != 0
            || phase.computed + phase.restored != points
        {
            mismatches.push(format!(
                "{} {}: expected {points} points on the {} engine or restored, 0 direct; \
                 got computed {} restored {} engine {:?} direct {}",
                group.dir,
                arch.name(),
                group.engine.as_str(),
                phase.computed,
                phase.restored,
                phase.engine_points,
                phase.direct_points
            ));
        }
    }
}

fn clean(work: &Path) -> Result<(), String> {
    match fs::remove_dir_all(work) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", work.display())),
    }
}

// ----------------------------------------------------------------------
// Output checks
// ----------------------------------------------------------------------

/// The pinned hash of `group/file`, if any.
fn pin(group: &str, file: &str) -> Option<u64> {
    let want = format!("{group}/{file}");
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (name, hash) = l.split_once(' ')?;
        (name == want).then(|| u64::from_str_radix(hash.trim(), 16).ok())?
    })
}

fn check_pins(swept: &Swept, out: &mut Outcome) {
    for (group, file, contents) in &swept.csv {
        match pin(group, file) {
            Some(want) if fnv1a(contents.as_bytes()) == want => {}
            Some(want) => out.fail(format!(
                "{group}/{file}: fnv1a {:016x}, pinned {want:016x}",
                fnv1a(contents.as_bytes())
            )),
            None => out.fail(format!("{group}/{file}: no pinned hash")),
        }
    }
}

/// Re-simulates a seed-chosen sample of each sweep's points on the
/// direct simulator and requires bit-identical ratios.
fn check_resim(
    batch: Batch,
    inputs: &Inputs,
    swept: &Swept,
    len: usize,
    seed: u64,
    out: &mut Outcome,
) {
    let warm = Workbench::new(len);
    for (gi, arch, points) in &swept.points {
        set_replacement(batch.groups()[*gi].replacement);
        let configs = grid(*arch);
        if points.len() != configs.len() {
            out.fail(format!(
                "{} {}: {} of {} points",
                batch.groups()[*gi].dir,
                arch.name(),
                points.len(),
                configs.len()
            ));
            continue;
        }
        for k in 0..RESIM_PER_PHASE {
            let i = (mix(seed ^ ((*gi as u64) << 32) ^ (k as u64) << 8 ^ *arch as u64)
                % points.len() as u64) as usize;
            let got = &points[i];
            let want = evaluate_point(configs[i], inputs.traces(*arch), warm.warmup_for(*arch));
            if got.config != configs[i] || !same_bits(got, &want) {
                out.fail(format!(
                    "{} {} {}: sweep {:?} != direct {:?}",
                    batch.groups()[*gi].dir,
                    arch.name(),
                    configs[i],
                    ratios(got),
                    ratios(&want)
                ));
            }
        }
    }
    set_replacement(None);
}

fn ratios(p: &DesignPoint) -> [f64; 4] {
    [
        p.miss_ratio,
        p.traffic_ratio,
        p.nibble_traffic_ratio,
        p.redundant_load_fraction,
    ]
}

fn same_bits(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.gross_size == b.gross_size
        && ratios(a)
            .iter()
            .zip(ratios(b))
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64 finaliser: a well-mixed index from a seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ----------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ----------------------------------------------------------------------

/// Whether to measure another cycle of `cycle` seconds after `measured`
/// of a `seconds` budget: yes unless it would end more than half a
/// cycle past the budget, so a run measures close to `seconds` whatever
/// the cycle length.
fn another_cycle(measured: f64, cycle: f64, seconds: f64) -> bool {
    measured + cycle <= seconds + cycle / 2.0
}

/// Runs fresh regenerations, each followed by resumes, for about
/// `seconds` of measured time, and checks the outputs of the first.
pub fn run(batch: Batch, run: &Run) -> Result<Outcome, String> {
    let len = PAPER_TRACE_LEN;
    let work = run.work.join(format!("{batch:?}").to_lowercase());
    let mut out = Outcome::default();
    let (mut setup, mut wall, mut resume, mut rate, mut pps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut latency = Vec::new();
    let mut measured = 0.0;
    let mut cycle = 0.0;
    while wall.is_empty() || another_cycle(measured, cycle, run.seconds) {
        let cycle_start = measured;
        clean(&work)?;
        let mut spans = Spans::default();
        let t0 = Instant::now();
        let mut inputs = set_up(batch, run.seed, len, &mut spans);
        let set_up_s = t0.elapsed().as_secs_f64();
        let swept = sweep(batch, &mut inputs, &work, len, t0, true, &mut spans)?;
        let wall_s = t0.elapsed().as_secs_f64();
        measured += wall_s;
        setup.push(set_up_s);
        wall.push(wall_s);
        rate.push(swept.computed_refs / swept.sweep_s);
        let points: usize = swept.landed.iter().map(|l| l.1).sum();
        pps.push(points as f64 / wall_s);
        for &(t, n) in &swept.landed {
            latency.extend(std::iter::repeat_n(t * 1e3, n));
        }
        out.attempted += swept.attempted;
        out.failed += swept.failed;
        for m in &swept.mismatches {
            out.fail(format!("fresh: {m}"));
        }
        for _ in 0..RESUMES_PER_FRESH {
            let t = Instant::now();
            let again = sweep(
                batch,
                &mut inputs,
                &work,
                len,
                t,
                false,
                &mut Spans::default(),
            )?;
            let resume_s = t.elapsed().as_secs_f64();
            measured += resume_s;
            resume.push(resume_s);
            out.attempted += again.attempted;
            out.failed += again.failed;
            for m in &again.mismatches {
                out.fail(format!("resume: {m}"));
            }
            let journalled = swept.csv.iter().filter(|(group, ..)| group != "table8");
            if again.computed_points != 0 || !again.csv.iter().eq(journalled) {
                out.fail("resume: recomputed journalled points or changed CSV bytes");
            }
        }
        cycle = measured - cycle_start;
        if wall.len() == 1 {
            if run.seed == 0 {
                check_pins(&swept, &mut out);
            }
            check_resim(batch, &inputs, &swept, len, run.seed, &mut out);
        }
    }

    let med = |v: &[f64]| median(v).expect("samples were taken");
    out.set("setup_s", med(&setup));
    out.set("wall_s", med(&wall));
    out.set("refs_per_s", med(&rate));
    out.set("resume_s", med(&resume));
    let p99 = tail(&latency, 0.99).expect("points landed");
    out.set("p99_ms", p99.value);
    out.set("slo_rps", med(&pps));
    out.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    out.note(format!(
        "{} fresh regenerations, {} resumes; point time-to-result p{:.1} over {} samples",
        wall.len(),
        resume.len(),
        p99.percentile * 100.0,
        p99.n
    ));
    Ok(out)
}

// ----------------------------------------------------------------------
// Traced run: per-layer metrics
// ----------------------------------------------------------------------

/// Splits the checkpointed sweeps of one traced regeneration into the
/// planner, engine, fold, executor and journal rows, by timing those
/// layers' public calls again on the same inputs.
fn attribute(
    batch: Batch,
    inputs: &Inputs,
    len: usize,
    spans: &Spans,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let warm = Workbench::new(len);
    let mut sweeps = spans.sweeps.iter();
    let (mut plan, mut units, mut overhead, mut journal) = (0.0, 0.0, 0.0, 0.0);
    let mut slice = [0.0f64; 3];
    let mut engine = [0.0f64; 3];
    let mut refs = [0.0f64; 3];
    for group in batch.groups() {
        set_replacement(group.replacement);
        for &arch in group.archs {
            let traces = inputs.traces(arch);
            let warmup = warm.warmup_for(arch);
            let configs = grid(arch);
            let policy = SupervisorPolicy::from_env_lenient();
            let t = Instant::now();
            let _ = evaluate_results_supervised_with(
                &policy,
                &configs,
                traces,
                warmup,
                None,
                |_, _| {},
            );
            let supervised = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let planned = plan_units(&configs);
            let plan_s = t.elapsed().as_secs_f64();
            let mut in_units = plan_s;
            for unit in &planned {
                let SweepUnit::Engine { kind, members } = unit else {
                    continue;
                };
                let cfgs: Vec<CacheConfig> = members.iter().map(|&i| configs[i]).collect();
                let t = Instant::now();
                std::hint::black_box(evaluate_slice(&cfgs, traces, warmup));
                let s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                for pair in traces.chunks(2) {
                    match pair {
                        [a, b] => {
                            std::hint::black_box(
                                simulate_many_pair(&cfgs, a.iter(), b.iter(), warmup).ok(),
                            );
                        }
                        [a] => {
                            std::hint::black_box(simulate_many(&cfgs, a.iter(), warmup).ok());
                        }
                        _ => {}
                    }
                }
                let e = t.elapsed().as_secs_f64();
                let k = kind.index();
                slice[k] += s;
                engine[k] += e;
                refs[k] += (cfgs.len() * traces.iter().map(Trace::len).sum::<usize>()) as f64;
                in_units += s;
            }
            plan += plan_s;
            units += planned.len() as f64;
            overhead += supervised - in_units;
            journal += sweeps.next().copied().unwrap_or(0.0) - supervised;
        }
    }
    set_replacement(None);
    let rate = |r: f64, s: f64| if s > 0.0 { r / s } else { 0.0 };
    out.insert("eval.plan_s", plan);
    out.insert("eval.units", units);
    out.insert("executor.overhead_s", overhead);
    out.insert("checkpoint.journal_s", journal);
    out.insert(
        "eval.fold_s",
        slice.iter().sum::<f64>() - engine.iter().sum::<f64>(),
    );
    for kind in EngineKind::ALL {
        let k = kind.index();
        let (s_name, m_name, r_name) = match kind {
            EngineKind::Lru => (
                "eval.slice_s.lru",
                "multisim.lru_s",
                "multisim.lru_refs_per_s",
            ),
            EngineKind::Fifo => (
                "eval.slice_s.fifo",
                "multisim.fifo_s",
                "multisim.fifo_refs_per_s",
            ),
            EngineKind::Random => (
                "eval.slice_s.random",
                "multisim.random_s",
                "multisim.random_refs_per_s",
            ),
        };
        out.insert(s_name, slice[k]);
        out.insert(m_name, engine[k]);
        out.insert(r_name, rate(refs[k], engine[k]));
    }
    let sweep_wall: f64 = spans.sweeps.iter().sum();
    out.insert("executor.cpu_util", rate(spans.sweep_cpu, sweep_wall));
}

/// Traced runs make at least this many untraced and traced fresh
/// regenerations, alternating, so the tracing overhead compares medians.
const MIN_TRACE_PAIRS: usize = 2;

/// Alternates untraced and traced fresh regenerations, at least
/// [`MIN_TRACE_PAIRS`] of each and more while `seconds` allow, splits the
/// first traced one's sweeps into their layers, and reports the layer
/// rows' medians.
pub fn trace(batch: Batch, run: &Run) -> Result<Outcome, String> {
    let len = PAPER_TRACE_LEN;
    let work = run.work.join(format!("{batch:?}-trace").to_lowercase());
    let mut out = Outcome::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut covered, mut unaccounted) = (Vec::new(), Vec::new());
    let mut rows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut split = BTreeMap::new();
    let started = Instant::now();
    let mut cycle = 0.0;
    while traced.len() < MIN_TRACE_PAIRS
        || another_cycle(started.elapsed().as_secs_f64(), cycle, run.seconds)
    {
        let cycle_start = started.elapsed().as_secs_f64();
        // Every other pair runs its traced regeneration first, so neither
        // side always runs in the other's wake.
        let traced_first = traced.len() % 2 == 1;
        let mut untraced_s = 0.0;
        if !traced_first {
            untraced_s = untraced_regeneration(batch, run.seed, &work, len, &mut out)?;
        }
        clean(&work)?;
        let mut spans = Spans::traced();
        let t0 = Instant::now();
        let mut inputs = set_up(batch, run.seed, len, &mut spans);
        let swept = sweep(batch, &mut inputs, &work, len, t0, true, &mut spans)?;
        let wall = t0.elapsed().as_secs_f64();
        out.attempted += swept.attempted;
        out.failed += swept.failed;
        for m in &swept.mismatches {
            out.fail(format!("traced: {m}"));
        }

        let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for name in [GENERATE, PACK, RENDER, EMIT, WRITE] {
            layer.insert(name, spans.get(name));
        }
        if let Some((_, lf)) = &inputs.table8 {
            // The workbench builds its traces fused; split its time by
            // draining the same generators alone.
            let t = Instant::now();
            for spec in WorkloadSpec::z8000_load_forward_set() {
                std::hint::black_box(spec.generator(0).take(len).count());
            }
            let generate = t.elapsed().as_secs_f64().min(spans.table8_traces);
            *layer.entry(GENERATE).or_default() += generate;
            *layer.entry(PACK).or_default() += spans.table8_traces - generate;
            // Table 8 simulates every row on the direct simulator.
            let points = paper::TABLE8.len() as f64;
            let refs = points * lf.iter().map(Trace::len).sum::<usize>() as f64;
            layer.insert("core.direct_s", spans.table8_run);
            layer.insert("core.direct_points", points);
            layer.insert("core.direct_refs_per_s", refs / spans.table8_run);
        }
        let sum = layer
            .iter()
            .filter(|(name, _)| !matches!(**name, "core.direct_points" | "core.direct_refs_per_s"))
            .map(|(_, v)| v)
            .sum::<f64>()
            + spans.sweeps.iter().sum::<f64>();
        if split.is_empty() {
            attribute(batch, &inputs, len, &spans, &mut split);
            let (scan, bytes) = scan_journals(batch, &work)?;
            split.insert("checkpoint.scan_s", scan);
            split.insert("checkpoint.journal_bytes", bytes);
        }
        for (name, value) in layer {
            rows.entry(name).or_default().push(value);
        }
        drop(inputs);
        if traced_first {
            untraced_s = untraced_regeneration(batch, run.seed, &work, len, &mut out)?;
        }
        untraced.push(untraced_s);
        traced.push(wall);
        covered.push(sum / wall);
        unaccounted.push(wall - sum);
        cycle = started.elapsed().as_secs_f64() - cycle_start;
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    for (name, values) in &rows {
        out.set(name, med(values));
    }
    for (name, value) in split {
        out.set(name, value);
    }
    for name in [
        "core.direct_s",
        "core.direct_points",
        "core.direct_refs_per_s",
    ] {
        out.values.entry(name.to_string()).or_insert(0.0);
    }
    // Coverage is judged against the wall of the same traced
    // regeneration: two regenerations of the same code differ by more
    // than 5% on a busy host, so against an untraced one the check
    // would fail on noise. The tracing overhead is reported beside it.
    let ratio = med(&covered);
    out.set("trace_run.covered_ratio", ratio);
    out.set("trace_run.unaccounted_s", med(&unaccounted));
    out.set("trace_run.overhead_s", med(&traced) - med(&untraced));
    if ratio < 0.95 {
        out.fail(format!(
            "layer rows cover {:.1}% of the traced wall, under 95%",
            ratio * 100.0
        ));
    }
    for name in SERVE_LAYERS {
        out.set(name, 0.0);
    }
    out.note(format!(
        "{} traced and {} untraced regenerations, alternating; layer rows cover {:.1}% of the \
         traced wall; traced {:.3} s, untraced {:.3} s (medians)",
        traced.len(),
        untraced.len(),
        ratio * 100.0,
        med(&traced),
        med(&untraced)
    ));
    Ok(out)
}

/// One untraced fresh regeneration in a traced run; returns its wall.
fn untraced_regeneration(
    batch: Batch,
    seed: u64,
    work: &Path,
    len: usize,
    out: &mut Outcome,
) -> Result<f64, String> {
    clean(work)?;
    let t0 = Instant::now();
    let mut inputs = set_up(batch, seed, len, &mut Spans::default());
    let swept = sweep(
        batch,
        &mut inputs,
        work,
        len,
        t0,
        true,
        &mut Spans::default(),
    )?;
    let wall = t0.elapsed().as_secs_f64();
    out.attempted += swept.attempted;
    out.failed += swept.failed;
    Ok(wall)
}

/// Times a strict scan of each group's complete journal; returns the
/// total seconds and bytes.
fn scan_journals(batch: Batch, work: &Path) -> Result<(f64, f64), String> {
    let mut seconds = 0.0;
    let mut bytes = 0.0;
    for group in batch.groups() {
        let path: PathBuf = journal_path(&work.join(group.dir), "table7");
        let t = Instant::now();
        let scan = scan_journal(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        seconds += t.elapsed().as_secs_f64();
        std::hint::black_box(scan.points.len());
        bytes += fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len() as f64;
    }
    Ok((seconds, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_stop_near_the_budget() {
        // 8.5 s cycles in 25 s: a third cycle ends at 25.5 s, within half
        // a cycle of the budget; a fourth would end at 34 s.
        assert!(another_cycle(17.0, 8.5, 25.0));
        assert!(!another_cycle(25.5, 8.5, 25.0));
        // 11 s cycles: a third would end at 33 s, 8 s past.
        assert!(!another_cycle(22.0, 11.0, 25.0));
    }

    #[test]
    fn pins_cover_every_csv_of_both_workloads() {
        for batch in [Batch::Table7, Batch::Policies] {
            for group in batch.groups() {
                for arch in group.archs {
                    let file = format!(
                        "table7_{}.csv",
                        arch.name().to_lowercase().replace([' ', '/'], "_")
                    );
                    assert!(pin(group.dir, &file).is_some(), "{}/{file}", group.dir);
                }
            }
        }
        assert!(pin("table8", "table8.csv").is_some());
        assert!(pin("table7", "absent.csv").is_none());
    }

    #[test]
    fn mix_spreads_nearby_seeds() {
        let a: Vec<u64> = (0..4).map(|s| mix(s) % 50).collect();
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }
}
