//! The `serve` workload: one `occache-serve` node (2 workers, the
//! write-behind journal on) driven over HTTP from this process on at
//! most two load connections, with `/v1/simulate` requests for 100k-ref
//! `pdp11` and `z8000` points.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use occache_cli::client::{HttpClient, Response};
use occache_core::CacheConfig;
use occache_experiments::sweep::{evaluate_point, materialize, table1_pairs, Trace};
use occache_runtime::instrument::Exposition;
use occache_serve::http::parse_head;
use occache_serve::json::Json;
use occache_serve::service::{Server, ServiceConfig};
use occache_trace::MemRef;
use occache_workloads::WorkloadSpec;

use crate::batch::mix;
use crate::metrics::{Outcome, BATCH_LAYERS};
use crate::stats::{median, tail};
use crate::{host, Run};

/// References per trace of every served point.
const REFS: usize = 100_000;

/// The served models and the warm-up each request asks for (the paper's
/// warm start for Z8000, cold elsewhere).
const MODELS: [(&str, usize); 2] = [("pdp11", 0), ("z8000", REFS / 20)];

/// Scheduler workers of the node.
const WORKERS: usize = 2;

/// Load connections of the generator.
const CONNECTIONS: usize = 2;

/// Keys primed into the cache before measuring: the hot set.
const HOT_KEYS: usize = 32;

/// The request mix, laid out exactly in every block of [`MIX_BLOCK`]
/// requests at seed-chosen positions: [`FRESH_PER_BLOCK`] take a fresh
/// key (20%) and the rest a hot one (80%); the fresh ones and
/// [`HOT_NEW_CONN_PER_BLOCK`] hot ones open a new connection (25%), as
/// a new client asking a new question would. The other hot requests
/// reuse a kept-alive connection.
const MIX_BLOCK: usize = 20;
const FRESH_PER_BLOCK: usize = 4;
const HOT_NEW_CONN_PER_BLOCK: usize = 1;

/// The fixed rate `p99_ms` is measured at, and the fewest requests sent
/// at it (so p99 has ten samples beyond it).
const FIXED_RATE: f64 = 100.0;
const FIXED_MIN_REQUESTS: usize = 1000;

/// The latency limit on a rung's tail percentile.
const SLO_MS: f64 = 100.0;

/// The rate ladder: `LADDER_BASE * LADDER_STEP^k` for `k` in
/// `0..LADDER_RUNGS`, each rung driven for the same number of seconds.
/// It is searched coarse to fine: every [`LADDER_STRIDE`]-th rung up to
/// the first miss, then by halving the gap to the last pass.
const LADDER_BASE: f64 = 100.0;
const LADDER_STEP: f64 = 1.03;
const LADDER_RUNGS: usize = 81;
const LADDER_STRIDE: usize = 8;

/// Each rung runs for this share of `--seconds`.
const RUNG_SHARE: f64 = 0.04;

/// Node starts timed for `setup_s` and restarts for `resume_s`.
const SETUP_REPS: usize = 11;
const RESUME_REPS: usize = 11;

/// Cold fills timed for `wall_s`, and fresh keys per fill, sent one at
/// a time on one connection.
const FILL_REPS: usize = 5;
const FILL_KEYS: usize = 32;

/// Served points re-simulated with `evaluate_point`.
const SAMPLE_KEYS: usize = 12;

// ----------------------------------------------------------------------
// Keys and schedules
// ----------------------------------------------------------------------

/// One design point as requested.
#[derive(Debug, Clone, Copy)]
struct Key {
    model: usize,
    config: CacheConfig,
}

impl Key {
    fn body(&self) -> String {
        let (model, warmup) = MODELS[self.model];
        let c = &self.config;
        format!(
            "{{\"model\":\"{model}\",\"refs\":{REFS},\"warmup\":{warmup},\
             \"config\":{{\"net\":{},\"block\":{},\"sub\":{},\"assoc\":{},\"word\":{}}}}}",
            c.net_size(),
            c.block_size(),
            c.sub_block_size(),
            c.associativity(),
            c.word_size()
        )
    }
}

/// Every valid point of both models over nets 16 B–16 KiB, the Table 1
/// pairs, associativities 1–16 and word sizes 2 and 4 (a word no larger
/// than the sub-block): the first [`HOT_KEYS`] are the hot
/// set, the rest are handed out once each. The order deals the keys
/// round-robin from one seed-shuffled deck per (model, associativity)
/// class, so any run of consecutive keys costs about the same to compute
/// whatever the seed.
struct Keys {
    all: Vec<Key>,
    next_fresh: usize,
}

impl Keys {
    fn new(seed: u64) -> Keys {
        let mut decks: Vec<Vec<Key>> = Vec::new();
        for model in 0..MODELS.len() {
            for assoc in [1, 2, 4, 8, 16] {
                let mut deck = Vec::new();
                for shift in 4..=14 {
                    let net = 1u64 << shift;
                    for (block, sub) in table1_pairs(net, 2) {
                        for word in [2, 4] {
                            let config = CacheConfig::builder()
                                .net_size(net)
                                .block_size(block)
                                .sub_block_size(sub)
                                .associativity(assoc)
                                .word_size(word)
                                .build();
                            if let Ok(config) = config {
                                deck.push(Key { model, config });
                            }
                        }
                    }
                }
                let salt = (decks.len() as u64) << 48;
                for i in (1..deck.len()).rev() {
                    let j = (mix(seed ^ salt ^ (i as u64) << 20) % (i as u64 + 1)) as usize;
                    deck.swap(i, j);
                }
                decks.push(deck);
            }
        }
        let mut all = Vec::new();
        for i in 0..decks.iter().map(Vec::len).max().unwrap_or(0) {
            all.extend(decks.iter().filter_map(|d| d.get(i)).copied());
        }
        Keys {
            all,
            next_fresh: HOT_KEYS,
        }
    }

    fn fresh(&mut self) -> Result<usize, String> {
        let i = self.next_fresh;
        if i >= self.all.len() {
            return Err(format!(
                "the {} fresh keys ran out",
                self.all.len() - HOT_KEYS
            ));
        }
        self.next_fresh += 1;
        Ok(i)
    }

    /// The first hot key of `model`.
    fn hot_of(&self, model: usize) -> usize {
        (0..HOT_KEYS)
            .find(|&i| self.all[i].model == model)
            .expect("the hot set holds both models")
    }
}

/// One scheduled request: which key, and whether it opens a connection.
#[derive(Debug, Clone, Copy)]
struct Req {
    key: usize,
    new_conn: bool,
}

/// `n` requests of the workload mix, derived from `stream`.
fn mixed(keys: &mut Keys, n: usize, stream: u64) -> Result<Vec<Req>, String> {
    let mut reqs = Vec::with_capacity(n);
    let mut slots: Vec<usize> = (0..MIX_BLOCK).collect();
    for block in 0..n.div_ceil(MIX_BLOCK) {
        let b = mix(stream ^ (block as u64) << 24);
        for i in (1..MIX_BLOCK).rev() {
            slots.swap(i, (mix(b ^ i as u64) % (i as u64 + 1)) as usize);
        }
        for (pos, &slot) in slots.iter().enumerate().take(n - block * MIX_BLOCK) {
            let r = mix(b ^ (pos as u64) << 8);
            reqs.push(if slot < FRESH_PER_BLOCK {
                Req {
                    key: keys.fresh()?,
                    new_conn: true,
                }
            } else {
                Req {
                    key: (r % HOT_KEYS as u64) as usize,
                    new_conn: slot < FRESH_PER_BLOCK + HOT_NEW_CONN_PER_BLOCK,
                }
            });
        }
    }
    Ok(reqs)
}

// ----------------------------------------------------------------------
// HTTP client
// ----------------------------------------------------------------------

/// How long a load connection waits for a response before the request
/// counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

fn connect(addr: &str) -> Result<HttpClient, String> {
    HttpClient::connect_with_timeout(addr, RESPONSE_TIMEOUT).map_err(|e| format!("connect: {e}"))
}

/// The bytes [`HttpClient`] sends for a `POST` of `body` to `addr`: the
/// request heads `http.parse_s` times the server's parser on.
fn request_bytes(addr: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The four served ratios of a `/v1/simulate` answer: `None` for a
/// transport error, a status other than 200 or an unreadable body.
fn answer<E>(response: Result<Response, E>) -> Option<[f64; 4]> {
    let response = response.ok().filter(|r| r.status == 200)?;
    let doc = Json::parse(&response.body).ok()?;
    let get = |f: &str| doc.get(f).and_then(Json::as_f64);
    Some([
        get("miss_ratio")?,
        get("traffic_ratio")?,
        get("nibble_traffic_ratio")?,
        get("redundant_load_fraction")?,
    ])
}

// ----------------------------------------------------------------------
// The node
// ----------------------------------------------------------------------

/// The flag that turns this binary into a serving node (see
/// [`node_main`]).
pub const NODE_FLAG: &str = "--serve-node";

/// A serving node: this binary re-run with [`NODE_FLAG`], so the node
/// is a process of its own, as `occache-serve` is, and its memory is its
/// own.
struct Node {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Node {
    /// Starts a node writing its journal under `journal` and waits for
    /// its address.
    fn start(journal: &Path) -> Result<Node, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg(NODE_FLAG)
            .arg(journal)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("could not start a node: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut node = Node {
            child,
            stdin,
            stdout: stdout.ok_or("node stdout was not captured")?,
            addr: String::new(),
        };
        node.addr = node
            .line()?
            .strip_prefix("listening ")
            .ok_or("node did not report its address")?
            .to_string();
        Ok(node)
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("node output: {e}"))?;
        if line.is_empty() {
            return Err("node exited early".to_string());
        }
        Ok(line.trim_end().to_string())
    }

    /// Asks the node to drain and exit, waits for it, and returns its
    /// peak resident memory in MiB.
    fn stop(mut self) -> Result<f64, String> {
        drop(self.stdin.take());
        let peak = self
            .line()?
            .strip_prefix("peak_rss_mb ")
            .and_then(|v| v.parse().ok())
            .ok_or("node did not report its peak memory")?;
        let status = self.child.wait().map_err(|e| format!("node wait: {e}"))?;
        if !status.success() {
            return Err(format!("node exited with {status}"));
        }
        Ok(peak)
    }
}

impl Drop for Node {
    /// A node left running by an error path is killed and reaped, never
    /// orphaned.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The node process: starts `occache-serve`'s server configured through
/// the environment it reads, prints `listening <addr>`, serves until its
/// standard input closes, drains, and prints `peak_rss_mb <MiB>`.
pub fn node_main(journal: &str) -> ExitCode {
    std::env::set_var("OCCACHE_SERVE_ADDR", "127.0.0.1:0");
    std::env::set_var("OCCACHE_SERVE_WORKERS", WORKERS.to_string());
    std::env::set_var("OCCACHE_SERVE_JOURNAL", journal);
    let config = match ServiceConfig::try_from_env() {
        Ok(c) => c,
        Err(why) => {
            eprintln!("perfbench node: {why}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::start(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench node: could not start: {e}");
            return ExitCode::from(2);
        }
    };
    println!("listening {}", server.addr());
    let _ = io::stdout().flush();
    let _ = io::copy(&mut io::stdin(), &mut io::sink());
    if let Err(e) = server.stop() {
        eprintln!("perfbench node: shutdown: {e}");
        return ExitCode::from(1);
    }
    println!("peak_rss_mb {}", host::peak_rss_mb().unwrap_or(0.0));
    ExitCode::SUCCESS
}

/// Scrapes and strictly parses `/metrics`.
fn scrape(addr: &str) -> Result<Exposition, String> {
    let r = connect(addr)?
        .get("/metrics")
        .map_err(|e| format!("metrics scrape: {e}"))?;
    Exposition::parse(&r.body).map_err(|e| format!("metrics scrape: {e:?}"))
}

/// The serve counters a phase moves, read from one scrape.
#[derive(Debug, Clone, Copy)]
struct Counters {
    hits: f64,
    misses: f64,
    computed: f64,
    busy_s: f64,
    shed: f64,
    appends: f64,
}

impl Counters {
    fn of(m: &Exposition) -> Result<Counters, String> {
        let v = |name: &str| {
            m.value(name)
                .ok_or_else(|| format!("/metrics has no {name}"))
        };
        let busy_s = m
            .family("occache_worker_busy_seconds")
            .ok_or("/metrics has no occache_worker_busy_seconds")?
            .samples
            .iter()
            .map(|s| s.value)
            .sum();
        Ok(Counters {
            hits: v("occache_cache_hits_total")?,
            misses: v("occache_cache_misses_total")?,
            computed: v("occache_points_computed_total")?,
            busy_s,
            shed: v("occache_shed_interactive_total")?
                + v("occache_shed_bulk_total")?
                + v("occache_rejected_total")?,
            appends: v("occache_journal_appends_total")?,
        })
    }

    fn delta(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            computed: self.computed - before.computed,
            busy_s: self.busy_s - before.busy_s,
            shed: self.shed - before.shed,
            appends: self.appends - before.appends,
        }
    }
}

// ----------------------------------------------------------------------
// Load
// ----------------------------------------------------------------------

/// What one request saw, in seconds from the phase start.
#[derive(Debug, Clone, Copy)]
struct Sample {
    key: usize,
    due: f64,
    sent: f64,
    done: f64,
    ratios: Option<[f64; 4]>,
}

impl Sample {
    /// Latency from the due time, in milliseconds.
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent, in milliseconds.
    fn late_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// Sends `reqs` over `conns` connections, request `i` due at
/// `i / rate` seconds (`rate` of `None`: each as soon as a connection is
/// free — a closed loop). A connection takes the next request when it
/// is free; when both are busy the request waits, and its latency,
/// measured from its due time, includes the wait.
fn drive(addr: &str, keys: &Keys, reqs: &[Req], rate: Option<f64>, conns: usize) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn: Option<HttpClient> = None;
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let due = rate.map_or(0.0, |r| i as f64 / r);
                    let due_at = start + Duration::from_secs_f64(due);
                    if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let due = if rate.is_some() { due } else { sent };
                    if req.new_conn {
                        conn = None;
                    }
                    // A connection that fails is dropped; the next request
                    // on this thread opens a new one.
                    let ratios = match conn.take().map_or_else(|| connect(addr), Ok) {
                        Ok(mut c) => {
                            let r = c.post("/v1/simulate", &keys.all[req.key].body());
                            if r.is_ok() {
                                conn = Some(c);
                            }
                            answer(r)
                        }
                        Err(_) => None,
                    };
                    mine.push(Sample {
                        key: req.key,
                        due,
                        sent,
                        done: start.elapsed().as_secs_f64(),
                        ratios,
                    });
                }
                samples.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let mut all = samples.into_inner().expect("sample lock");
    all.sort_by(|a, b| a.due.total_cmp(&b.due));
    all
}

/// Whether the generator fell progressively behind: the last quarter's
/// median send lateness exceeds the first quarter's by more than a
/// quarter of the latency limit.
fn backlog_grew(samples: &[Sample]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |s: &[Sample]| median(&s.iter().map(Sample::late_ms).collect::<Vec<_>>());
    let first = late(&samples[..q]).unwrap_or(0.0);
    let last = late(&samples[samples.len() - q..]).unwrap_or(0.0);
    last - first > SLO_MS / 4.0
}

/// How long after the node starts the client connects. A client learns
/// the address from the started node, so its first connection meets an
/// accept loop that is already polling; a fixed delay makes that the
/// case on every start instead of a race with the accept thread.
const CONNECT_AFTER_START: Duration = Duration::from_millis(2);

/// Times from node start to the first answer for each model, over one
/// connection.
fn first_answers(journal: &Path, keys: &Keys, log: &mut Log) -> Result<(f64, Node), String> {
    let t = Instant::now();
    let node = Node::start(journal)?;
    std::thread::sleep(CONNECT_AFTER_START);
    let mut conn = connect(&node.addr)?;
    for model in 0..MODELS.len() {
        let key = keys.hot_of(model);
        log.record(
            key,
            answer(conn.post("/v1/simulate", &keys.all[key].body())),
        );
    }
    Ok((t.elapsed().as_secs_f64(), node))
}

/// Every answer the run received, for the output checks.
#[derive(Default)]
struct Log {
    attempted: u64,
    failed: u64,
    answers: Vec<(usize, [f64; 4])>,
}

impl Log {
    fn record(&mut self, key: usize, ratios: Option<[f64; 4]>) {
        self.attempted += 1;
        match ratios {
            Some(r) => self.answers.push((key, r)),
            None => self.failed += 1,
        }
    }

    fn samples(&mut self, samples: &[Sample]) {
        for s in samples {
            self.record(s.key, s.ratios);
        }
    }

    /// Every answer for a key must be the same bits, and a seed-chosen
    /// sample must equal `evaluate_point` on the node's traces.
    fn check(&self, keys: &Keys, seed: u64, out: &mut Outcome) {
        let mut first: std::collections::HashMap<usize, [f64; 4]> = Default::default();
        for &(key, r) in &self.answers {
            let seen = first.entry(key).or_insert(r);
            if seen.map(f64::to_bits) != r.map(f64::to_bits) {
                out.fail(format!(
                    "key {}: answers differ ({seen:?} vs {r:?})",
                    keys.all[key].body()
                ));
            }
        }
        let mut distinct: Vec<usize> = first.keys().copied().collect();
        distinct.sort_unstable();
        let sets: Vec<Vec<Trace>> = MODELS
            .iter()
            .map(|(model, _)| {
                materialize(
                    &WorkloadSpec::set_by_name(model).expect("served models exist"),
                    REFS,
                )
            })
            .collect();
        for k in 0..SAMPLE_KEYS.min(distinct.len()) {
            let key = distinct[(mix(seed ^ k as u64) % distinct.len() as u64) as usize];
            let Key { model, config } = keys.all[key];
            let p = evaluate_point(config, &sets[model], MODELS[model].1);
            let want = [
                p.miss_ratio,
                p.traffic_ratio,
                p.nibble_traffic_ratio,
                p.redundant_load_fraction,
            ];
            if want.map(f64::to_bits) != first[&key].map(f64::to_bits) {
                out.fail(format!(
                    "key {}: served {:?}, evaluate_point {want:?}",
                    keys.all[key].body(),
                    first[&key]
                ));
            }
        }
    }
}

fn clean(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

/// Primes the hot set into a running node.
fn prime(addr: &str, keys: &Keys, log: &mut Log) {
    let reqs: Vec<Req> = (0..HOT_KEYS)
        .map(|key| Req {
            key,
            new_conn: false,
        })
        .collect();
    log.samples(&drive(addr, keys, &reqs, None, CONNECTIONS));
}

// ----------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ----------------------------------------------------------------------

/// Set-up, cold fills, the fixed-rate phase, the rate ladder and
/// restarts over the journal, then the output checks.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let journal = run.work.join("serve-journal");
    let mut keys = Keys::new(run.seed);
    let mut log = Log::default();
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        clean(&journal)?;
        let (s, node) = first_answers(&journal, &keys, &mut log)?;
        setup.push(s);
        node.stop()?;
    }

    clean(&journal)?;
    let node = Node::start(&journal)?;
    let addr = node.addr.clone();
    prime(&addr, &keys, &mut log);

    let (mut fill, mut fill_rate) = (Vec::new(), Vec::new());
    for _ in 0..FILL_REPS {
        let reqs = (0..FILL_KEYS)
            .map(|_| {
                Ok(Req {
                    key: keys.fresh()?,
                    new_conn: false,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let t = Instant::now();
        let samples = drive(&addr, &keys, &reqs, None, 1);
        let wall = t.elapsed().as_secs_f64();
        log.samples(&samples);
        let refs: usize = reqs.iter().map(|r| model_refs(keys.all[r.key].model)).sum();
        fill.push(wall);
        fill_rate.push(refs as f64 / wall);
    }

    let n = FIXED_MIN_REQUESTS.max((FIXED_RATE * run.seconds * 0.5) as usize);
    let reqs = mixed(&mut keys, n, run.seed ^ 0xf1)?;
    let fixed = drive(&addr, &keys, &reqs, Some(FIXED_RATE), CONNECTIONS);
    log.samples(&fixed);
    let latencies: Vec<f64> = fixed.iter().map(Sample::latency_ms).collect();
    let p50 = tail(&latencies, 0.5).expect("requests were sent");
    let p99 = tail(&latencies, 0.99).expect("requests were sent");
    let rung_s = run.seconds * RUNG_SHARE;
    let mut drive_rung = |k: usize| -> Result<bool, String> {
        let rate = rung(k);
        let n = ((rate * rung_s) as usize).max(2 * crate::stats::TAIL_BEYOND);
        let reqs = mixed(&mut keys, n, run.seed ^ 0x1ad ^ (k as u64) << 40)?;
        let samples = drive(&addr, &keys, &reqs, Some(rate), CONNECTIONS);
        log.samples(&samples);
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let t = tail(&lat, 0.99).expect("requests were sent");
        let grew = backlog_grew(&samples);
        out.note(format!(
            "ladder {rate:.1} req/s: p{:.1} {:.2} ms over {}{}",
            t.percentile * 100.0,
            t.value,
            t.n,
            if grew { ", backlog grew" } else { "" }
        ));
        Ok(samples.iter().all(|s| s.ratios.is_some()) && t.value <= SLO_MS && !grew)
    };
    let slo = match ladder_search(&mut drive_rung)? {
        Some(k) => rung(k),
        None => 0.0,
    };
    let peak_rss = node.stop()?;

    let mut resume = Vec::new();
    for _ in 0..RESUME_REPS {
        let (s, node) = first_answers(&journal, &keys, &mut log)?;
        resume.push(s);
        node.stop()?;
    }
    log.check(&keys, run.seed, &mut out);
    out.attempted = log.attempted;
    out.failed = log.failed;
    let med = |v: &[f64]| median(v).expect("samples were taken");
    out.set("setup_s", med(&setup));
    out.set("wall_s", med(&fill));
    out.set("refs_per_s", med(&fill_rate));
    out.set("resume_s", med(&resume));
    out.set("p99_ms", p99.value);
    out.set("slo_rps", slo);
    out.set("peak_rss_mb", peak_rss);
    out.note(format!(
        "fixed {FIXED_RATE} req/s: p50 {:.3} ms, p{:.1} over {} requests; {} fresh keys used",
        p50.value,
        p99.percentile * 100.0,
        p99.n,
        keys.next_fresh - HOT_KEYS
    ));
    if slo == 0.0 {
        out.fail(format!(
            "even {LADDER_BASE} req/s missed the {SLO_MS} ms limit"
        ));
    }
    Ok(out)
}

/// The rate of ladder rung `k`.
fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// The highest passing rung, searched coarse to fine: every
/// [`LADDER_STRIDE`]-th rung from the bottom until one fails, then the
/// gap to the last pass halved until it closes. `None` when the bottom
/// rung fails.
fn ladder_search(
    pass: &mut impl FnMut(usize) -> Result<bool, String>,
) -> Result<Option<usize>, String> {
    let mut good = None;
    let mut bad = None;
    for k in (0..LADDER_RUNGS).step_by(LADDER_STRIDE) {
        if pass(k)? {
            good = Some(k);
        } else {
            bad = Some(k);
            break;
        }
    }
    let (Some(mut lo), Some(mut hi)) = (good, bad) else {
        return Ok(good);
    };
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if pass(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

/// Effective references one cold point of `model` simulates.
fn model_refs(model: usize) -> usize {
    WorkloadSpec::set_by_name(MODELS[model].0).map_or(0, |s| s.len()) * REFS
}

// ----------------------------------------------------------------------
// Traced run: per-layer metrics
// ----------------------------------------------------------------------

/// Alternates untraced and traced node starts, then drives the
/// fixed-rate phase once more with `/metrics` scraped around it, and
/// times the accept path and request parsing from the client side.
pub fn trace(run: &Run) -> Result<Outcome, String> {
    let journal = run.work.join("serve-trace-journal");
    let mut keys = Keys::new(run.seed);
    let mut log = Log::default();
    let mut out = Outcome::default();

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut generate, mut pack, mut compute, mut parse) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS.div_ceil(2) {
        clean(&journal)?;
        let (s, node) = first_answers(&journal, &keys, &mut log)?;
        untraced.push(s);
        node.stop()?;

        clean(&journal)?;
        let (s, node) = first_answers(&journal, &keys, &mut log)?;
        traced.push(s);
        let busy = Counters::of(&scrape(&node.addr)?)?.busy_s;
        let heads: Vec<Vec<u8>> = (0..MODELS.len())
            .map(|m| request_bytes(&node.addr, &keys.all[keys.hot_of(m)].body()))
            .collect();
        node.stop()?;
        let (g, p) = set_up_split();
        generate.push(g);
        pack.push(p);
        compute.push(busy);
        parse.push(time_parse(&heads));
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let covered = med(&generate) + med(&pack) + med(&compute) + med(&parse);
    out.set("workloads.generate_s", med(&generate));
    out.set("trace.pack_s", med(&pack));
    out.set("trace_run.unaccounted_s", med(&traced) - covered);
    out.set("trace_run.covered_ratio", covered / med(&traced));
    out.set("trace_run.overhead_s", med(&traced) - med(&untraced));

    clean(&journal)?;
    let node = Node::start(&journal)?;
    let addr = node.addr.clone();
    prime(&addr, &keys, &mut log);
    let n = FIXED_MIN_REQUESTS.max((FIXED_RATE * run.seconds * 0.5) as usize);
    let reqs = mixed(&mut keys, n, run.seed ^ 0xf1)?;
    let heads: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| request_bytes(&addr, &keys.all[r.key].body()))
        .collect();
    out.set("http.parse_s", time_parse(&heads));

    let before = Counters::of(&scrape(&addr)?)?;
    let depth = Mutex::new(0.0f64);
    let done = AtomicBool::new(false);
    let t = Instant::now();
    let fixed = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Ok(m) = scrape(&addr) {
                    let d = m.value("occache_queue_depth").unwrap_or(0.0);
                    let mut max = depth.lock().expect("depth lock");
                    *max = max.max(d);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let fixed = drive(&addr, &keys, &reqs, Some(FIXED_RATE), CONNECTIONS);
        done.store(true, Ordering::SeqCst);
        fixed
    });
    let phase_s = t.elapsed().as_secs_f64();
    let after_scrape = scrape(&addr)?;
    let d = Counters::of(&after_scrape)?.delta(before);
    log.samples(&fixed);
    let latencies: Vec<f64> = fixed.iter().map(Sample::latency_ms).collect();
    out.set(
        "loadgen.p50_ms",
        tail(&latencies, 0.5).expect("requests were sent").value,
    );
    let late: Vec<f64> = fixed.iter().map(Sample::late_ms).collect();
    out.set(
        "loadgen.late_p99_ms",
        tail(&late, 0.99).expect("requests were sent").value,
    );
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set("serve.cache_hit_ratio", ratio(d.hits, d.hits + d.misses));
    out.set("serve.points_computed", d.computed);
    out.set(
        "serve.compute_ms_per_point",
        ratio(d.busy_s * 1e3, d.computed),
    );
    out.set(
        "serve.worker_util",
        ratio(d.busy_s, WORKERS as f64 * phase_s),
    );
    out.set(
        "serve.queue_depth_max",
        depth.into_inner().expect("depth lock"),
    );
    out.set("serve.shed", d.shed);
    out.set("serve.journal_appends", d.appends);
    out.set(
        "serve.server_p99_s",
        after_scrape
            .labeled("occache_request_seconds", "quantile", "0.99")
            .ok_or("/metrics has no request p99")?,
    );

    let (keepalive, new_conn) = ttfb(&addr, &keys, &mut log)?;
    out.set("serve.ttfb_ms.keepalive", keepalive);
    out.set("serve.ttfb_ms.new_conn", new_conn);
    node.stop()?;

    for name in BATCH_LAYERS {
        out.set(name, 0.0);
    }
    log.check(&keys, run.seed, &mut out);
    out.attempted = log.attempted;
    out.failed = log.failed;
    out.note(format!(
        "{} traced and {} untraced node starts; fixed phase {} requests",
        traced.len(),
        untraced.len(),
        fixed.len()
    ));
    Ok(out)
}

/// Generation and packing of the served models' trace sets, timed
/// apart.
fn set_up_split() -> (f64, f64) {
    let (mut generate, mut pack) = (0.0, 0.0);
    for (model, _) in MODELS {
        for spec in WorkloadSpec::set_by_name(model).expect("served models exist") {
            let t = Instant::now();
            let refs: Vec<MemRef> = spec.generator(0).take(REFS).collect();
            generate += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(Trace::new(spec.name(), refs));
            pack += t.elapsed().as_secs_f64();
        }
    }
    (generate, pack)
}

/// Seconds `parse_head` takes over every head.
fn time_parse(heads: &[Vec<u8>]) -> f64 {
    let t = Instant::now();
    for h in heads {
        std::hint::black_box(parse_head(std::hint::black_box(h)).ok());
    }
    t.elapsed().as_secs_f64()
}

/// Median time to the response of cached requests, in milliseconds:
/// from the request write on a kept-alive connection, and from the
/// connect on a new connection each. A response is one small packet, so
/// this is the time to its first byte.
fn ttfb(addr: &str, keys: &Keys, log: &mut Log) -> Result<(f64, f64), String> {
    const N: usize = 40;
    let mut keep = Vec::new();
    let mut conn = connect(addr)?;
    for i in 0..N {
        let key = i % HOT_KEYS;
        let t = Instant::now();
        let r = conn.post("/v1/simulate", &keys.all[key].body());
        keep.push(t.elapsed().as_secs_f64() * 1e3);
        log.record(key, answer(r));
    }
    let mut fresh = Vec::new();
    for i in 0..N {
        let key = i % HOT_KEYS;
        let t = Instant::now();
        let r = connect(addr)?.post("/v1/simulate", &keys.all[key].body());
        fresh.push(t.elapsed().as_secs_f64() * 1e3);
        log.record(key, answer(r));
    }
    Ok((median(&keep).unwrap_or(0.0), median(&fresh).unwrap_or(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn at(due: f64, sent: f64, done: f64) -> Sample {
        Sample {
            key: 0,
            due,
            sent,
            done,
            ratios: None,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // A request due at 1.0 s that could only be sent at 1.2 s and
        // finished at 1.25 s waited 250 ms, not the 50 ms on the wire.
        let s = at(1.0, 1.2, 1.25);
        assert!((s.latency_ms() - 250.0).abs() < 1e-9);
        assert!((s.late_ms() - 200.0).abs() < 1e-9);
        assert_eq!(at(1.0, 1.0, 1.01).late_ms(), 0.0);
    }

    #[test]
    fn a_generator_that_falls_behind_shows_a_growing_backlog() {
        let steady: Vec<Sample> = (0..40)
            .map(|i| at(i as f64, i as f64, i as f64 + 0.01))
            .collect();
        assert!(!backlog_grew(&steady));
        let behind: Vec<Sample> = (0..40)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = i as f64 * 0.02;
                at(due, sent, sent + 0.001)
            })
            .collect();
        assert!(backlog_grew(&behind));
    }

    #[test]
    fn open_loop_latency_includes_the_wait_behind_a_stall() {
        // A server that stalls for 200 ms on the first request of each
        // connection: at 100 req/s over two connections, both are stuck
        // until about 200 ms, and the requests due meanwhile are charged
        // the wait from their due time, not from when they were sent.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = std::thread::spawn(move || {
            let mut handles = Vec::new();
            for _ in 0..CONNECTIONS {
                let (stream, _) = listener.accept().unwrap();
                handles.push(std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream);
                    let mut stall = true;
                    loop {
                        let mut head = Vec::new();
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            head.extend_from_slice(line.as_bytes());
                            if line == "\r\n" {
                                break;
                            }
                        }
                        let occache_serve::http::ParseOutcome::Ready { head, .. } =
                            parse_head(&head).unwrap()
                        else {
                            panic!("incomplete head")
                        };
                        let mut body = vec![0; head.content_length];
                        reader.read_exact(&mut body).unwrap();
                        if std::mem::replace(&mut stall, false) {
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        let reply = "{\"miss_ratio\":0.5,\"traffic_ratio\":1,\
                                     \"nibble_traffic_ratio\":1,\"redundant_load_fraction\":0}";
                        let wire = format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{reply}",
                            reply.len()
                        );
                        reader.get_mut().write_all(wire.as_bytes()).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        let keys = Keys::new(7);
        let reqs: Vec<Req> = (0..30)
            .map(|i| Req {
                key: i % HOT_KEYS,
                new_conn: false,
            })
            .collect();
        let samples = drive(&addr, &keys, &reqs, Some(100.0), CONNECTIONS);
        served.join().unwrap();
        assert_eq!(samples.len(), 30);
        assert!(samples
            .iter()
            .all(|s| s.ratios == Some([0.5, 1.0, 1.0, 0.0])));
        // Due times follow the schedule, whatever happened on the wire.
        for (i, s) in samples.iter().enumerate() {
            assert!((s.due - i as f64 / 100.0).abs() < 1e-9);
            assert!(s.sent >= s.due - 1e-3);
        }
        // The two stalled requests took the stall.
        assert!(samples[0].latency_ms() >= 199.0 && samples[1].latency_ms() >= 199.0);
        // Request 5, due at 50 ms, could only be sent once a connection
        // came free at about 200 ms: its latency counts from 50 ms.
        let s = samples[5];
        assert!(s.sent >= 0.19, "sent at {}", s.sent);
        assert!(s.late_ms() >= 140.0 && s.latency_ms() >= s.late_ms());
        // Once the backlog drained the generator is back on time.
        assert!(samples[29].late_ms() < 20.0, "{}", samples[29].late_ms());
    }

    #[test]
    fn keys_are_seeded_distinct_and_valid() {
        let a = Keys::new(1);
        let b = Keys::new(1);
        let c = Keys::new(2);
        let bodies = |k: &Keys| k.all.iter().map(Key::body).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&c));
        let mut sorted = bodies(&a);
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), a.all.len());
        assert!(a.all.len() > 2500, "{} keys", a.all.len());
        // Every window of ten consecutive keys holds one key of each
        // (model, associativity) class, for the first 1000 keys.
        for window in a.all[..1000].chunks(10) {
            let mut classes: Vec<(usize, u64)> = window
                .iter()
                .map(|k| (k.model, k.config.associativity()))
                .collect();
            classes.sort_unstable();
            classes.dedup();
            assert_eq!(classes.len(), 10);
        }
        let _ = a.hot_of(0);
        let _ = a.hot_of(1);
    }

    #[test]
    fn the_mix_is_80_percent_hot_and_a_quarter_new_connections() {
        let mut keys = Keys::new(3);
        let reqs = mixed(&mut keys, 4000, 11).unwrap();
        for block in reqs.chunks(MIX_BLOCK) {
            assert_eq!(block.iter().filter(|r| r.key < HOT_KEYS).count(), 16);
            assert_eq!(block.iter().filter(|r| r.new_conn).count(), 5);
        }
        assert_eq!(mixed(&mut keys, 7, 11).unwrap().len(), 7);
        assert_ne!(
            mixed(&mut keys, 40, 1)
                .unwrap()
                .iter()
                .map(|r| r.new_conn)
                .collect::<Vec<_>>(),
            mixed(&mut keys, 40, 2)
                .unwrap()
                .iter()
                .map(|r| r.new_conn)
                .collect::<Vec<_>>()
        );
        let fresh: Vec<usize> = reqs
            .iter()
            .map(|r| r.key)
            .filter(|&k| k >= HOT_KEYS)
            .collect();
        let mut once = fresh.clone();
        once.sort_unstable();
        once.dedup();
        assert_eq!(once.len(), fresh.len(), "a fresh key was reused");
    }

    #[test]
    fn the_ladder_search_finds_the_highest_passing_rung() {
        for capacity in [0, 1, 7, 8, 9, 30, 63, 64, LADDER_RUNGS - 1] {
            let mut probes = 0;
            let found = ladder_search(&mut |k| {
                probes += 1;
                Ok(k <= capacity)
            })
            .unwrap();
            assert_eq!(found, Some(capacity), "capacity {capacity}");
            // The coarse pass plus the halvings of one stride.
            let most =
                (LADDER_RUNGS - 1) / LADDER_STRIDE + 1 + LADDER_STRIDE.trailing_zeros() as usize;
            assert!(probes <= most, "{probes} probes");
        }
        assert_eq!(ladder_search(&mut |_| Ok(false)).unwrap(), None);
        assert!((rung(LADDER_RUNGS - 1) / LADDER_BASE - LADDER_STEP.powi(80)).abs() < 1e-9);
    }

    #[test]
    fn metrics_deltas_go_through_the_strict_parser() {
        let scrape = |hits: u64, busy: f64| {
            let mut reg = occache_runtime::instrument::Registry::new();
            reg.counter("occache_cache_hits_total", "h", hits)
                .counter("occache_cache_misses_total", "m", 4)
                .counter("occache_points_computed_total", "c", 4)
                .counter("occache_shed_interactive_total", "s", 1)
                .counter("occache_shed_bulk_total", "s", 0)
                .counter("occache_rejected_total", "r", 2)
                .counter("occache_journal_appends_total", "j", 4)
                .labeled_counter_seconds(
                    "occache_worker_busy_seconds",
                    "b",
                    "worker",
                    [("0".to_string(), busy), ("1".to_string(), 0.5)],
                );
            Exposition::parse(&reg.render_prometheus()).unwrap()
        };
        let before = Counters::of(&scrape(10, 1.0)).unwrap();
        let after = Counters::of(&scrape(25, 1.75)).unwrap();
        let d = after.delta(before);
        assert_eq!(d.hits, 15.0);
        assert_eq!(d.misses, 0.0);
        assert!((d.busy_s - 0.75).abs() < 1e-9);
        assert_eq!(before.shed, 3.0);
        // A torn scrape is an error, never a silently short reading.
        let text = scrape(1, 1.0).render();
        assert!(Exposition::parse(&text[..text.len() - 3]).is_err());
        let mut partial = occache_runtime::instrument::Registry::new();
        partial.counter("occache_cache_hits_total", "h", 1);
        let parsed = Exposition::parse(&partial.render_prometheus()).unwrap();
        assert!(Counters::of(&parsed)
            .unwrap_err()
            .starts_with("/metrics has no"));
    }
}
