//! One repetition of a workload instance, run in a child process so that
//! its peak resident memory is its own.
//!
//! An untraced repetition times set-up and run with nothing extra
//! switched on. A traced repetition enables the engine profile and the
//! conservation audit and drives the engine through
//! [`crate::trace::traced_loop`]. Both report a fingerprint of the
//! simulated outcome; the parent checks that the two agree and that each
//! repeats bit for bit.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

use mwn::jobs::JobSpec;
use mwn::{Network, RunResults, StepOutcome};
use mwn_obs::json::{fmt_f64, Obj};
use mwn_obs::NodeCounters;
use mwn_runner::query::Json;
use mwn_runner::{Manifest, SweepOptions};
use mwn_sim::fxhash::hash_str;

use crate::alloc::thread_counts;
use crate::trace::{self, StepStats};
use crate::workload::{self, Single, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Traced,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
        }
    }

    pub fn parse(name: &str) -> Result<Mode, String> {
        match name {
            "untraced" => Ok(Mode::Untraced),
            "traced" => Ok(Mode::Traced),
            _ => Err(format!("unknown repetition mode `{name}`")),
        }
    }
}

/// What one repetition reports back to the parent.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Runs (or sweep jobs) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, empty if none.
    pub error: String,
    /// The simulated outcome; an untraced and a traced repetition of one
    /// instance must agree on it.
    pub fingerprint: String,
    /// Every exact count of this mode; must repeat across repetitions.
    pub exact: String,
    /// Untraced timings; a traced repetition reports its own in `raw`.
    pub setup_s: f64,
    pub run_s: f64,
    pub wall_s: f64,
    pub delivered: u64,
    pub peak_rss_kib: u64,
    /// Per-layer components, summed over instances by the parent (keys
    /// starting with `max.` take the maximum instead).
    pub raw: Vec<(String, f64)>,
}

impl Rep {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.error.is_empty() {
            self.error = error;
        }
    }

    fn put(&mut self, key: impl Into<String>, value: f64) {
        self.raw.push((key.into(), value));
    }

    pub fn to_json(&self) -> String {
        let raw = self
            .raw
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.f64(k, *v))
            .finish();
        Obj::new()
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .str("error", &self.error)
            .str("fingerprint", &self.fingerprint)
            .str("exact", &self.exact)
            .f64("setup_s", self.setup_s)
            .f64("run_s", self.run_s)
            .f64("wall_s", self.wall_s)
            .u64("delivered", self.delivered)
            .u64("peak_rss_kib", self.peak_rss_kib)
            .raw("raw", &raw)
            .finish()
    }

    pub fn from_json(line: &str) -> Result<Rep, String> {
        let v = Json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition report lacks `{k}`"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("repetition report lacks `{k}`"))
        };
        let raw = v
            .get("raw")
            .ok_or("repetition report lacks `raw`")?
            .fields()
            .iter()
            .map(|(k, x)| {
                Ok((
                    k.clone(),
                    x.as_f64().ok_or(format!("raw `{k}` is not a number"))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Rep {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            error: text("error")?,
            fingerprint: text("fingerprint")?,
            exact: text("exact")?,
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            wall_s: num("wall_s")?,
            delivered: num("delivered")? as u64,
            peak_rss_kib: num("peak_rss_kib")? as u64,
            raw,
        })
    }
}

/// Runs one repetition of `workload` instance `seed` in `mode`, writing
/// trace spans under `out`.
pub fn run(mode: Mode, workload: Workload, seed: u64, out: &Path) -> Rep {
    let run = std::panic::catch_unwind(|| match (workload, mode) {
        (Workload::Figures, Mode::Untraced) => figures_untraced(out),
        (Workload::Figures, Mode::Traced) => figures_traced(out),
        (_, Mode::Untraced) => single_untraced(workload, seed),
        (_, Mode::Traced) => single_traced(workload, seed, out),
    });
    let mut rep = match run {
        Ok(Ok(rep)) => rep,
        Ok(Err(e)) => Rep {
            attempted: 1,
            failed: 1,
            error: e,
            ..Rep::default()
        },
        Err(payload) => Rep {
            attempted: 1,
            failed: 1,
            error: format!("panic: {}", mwn_runner::pool::panic_message(payload)),
            ..Rep::default()
        },
    };
    rep.peak_rss_kib = peak_rss_kib();
    rep
}

/// Peak resident set size of this process (`VmHWM`), 0 where Linux's
/// `/proc` is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The simulated outcome: delivered count, simulated time, MAC, AODV,
/// PHY and TCP counter totals, the lazy medium's counters and the traffic
/// journal digest.
fn fingerprint(net: &Network) -> String {
    let snap = net.collect_metrics();
    let nodes = snap.node_totals();
    let (mut sent, mut retx, mut rto, mut acks) = (0, 0, 0, 0);
    for f in &snap.flows {
        if let Some(s) = f.sender {
            sent += s.data_packets_sent;
            retx += s.retransmissions;
            rto += s.timeouts;
        }
        if let Some(s) = f.sink {
            acks += s.acks_sent;
        }
    }
    format!(
        "delivered={} now_ns={} mac={:?} aodv={:?} phy={:?} tcp=[{sent},{retx},{rto},{acks}] medium={:?} traffic={:?}",
        net.total_delivered(),
        net.now().as_nanos(),
        nodes.mac,
        nodes.aodv,
        nodes.phy,
        net.medium_counters(),
        net.traffic_digest(),
    )
}

fn single_untraced(workload: Workload, seed: u64) -> Result<Rep, String> {
    let Single { target, deadline } = Single::of(workload);
    let start = Instant::now();
    let scenario = workload::scenario(workload, seed);
    let mut net = scenario.build();
    let setup_s = start.elapsed().as_secs_f64();
    let (a0, b0) = thread_counts();
    let run_start = Instant::now();
    let outcome = net.run_until_delivered(target, deadline);
    let run_s = run_start.elapsed().as_secs_f64();
    let (a1, b1) = thread_counts();
    let wall_s = start.elapsed().as_secs_f64();

    let mut rep = Rep {
        attempted: 1,
        setup_s,
        run_s,
        wall_s,
        delivered: net.total_delivered(),
        fingerprint: fingerprint(&net),
        ..Rep::default()
    };
    if outcome != StepOutcome::TargetReached {
        rep.fail(format!("missed the delivery target: {outcome:?}"));
    }
    rep.exact = format!("{} allocs={} bytes={}", rep.fingerprint, a1 - a0, b1 - b0);
    rep.put("allocs", (a1 - a0) as f64);
    rep.put("alloc_bytes", (b1 - b0) as f64);
    rep.put("work_s", run_s);
    Ok(rep)
}

fn single_traced(workload: Workload, seed: u64, out: &Path) -> Result<Rep, String> {
    let Single { target, deadline } = Single::of(workload);
    let start = Instant::now();
    let scenario = workload::scenario(workload, seed);
    let topology_s = start.elapsed().as_secs_f64();
    let mut net = scenario.build();
    let setup_s = start.elapsed().as_secs_f64();
    net.enable_profiling();
    net.enable_audit();
    let overhead = trace::instant_overhead_ns();
    let (a0, b0) = thread_counts();
    let stats = trace::traced_loop(&mut net, target, deadline, overhead, seed)?;
    let (a1, b1) = thread_counts();

    let mut rep = Rep {
        attempted: 1,
        delivered: net.total_delivered(),
        fingerprint: fingerprint(&net),
        ..Rep::default()
    };
    if !stats.reached {
        rep.fail("missed the delivery target".into());
    }
    let mut layers = Layers::default();
    layers.add_run(&net, &stats, &mut rep)?;
    layers.topology_s = topology_s;
    layers.build_s = setup_s - topology_s;
    layers.traced_s = stats.loop_s;
    rep.exact = format!(
        "{} {} allocs={} bytes={}",
        rep.fingerprint,
        layers.exact,
        a1 - a0,
        b1 - b0
    );
    layers.finish(&mut rep);

    let mut spans = SpanFile::new(seed);
    spans.setup("topology", 0.0, topology_s);
    spans.setup("build", topology_s, setup_s);
    spans.steps(0, &stats);
    spans.append_to(&trace_path(out, workload))?;
    Ok(rep)
}

/// Per-layer components accumulated over one or more traced runs.
#[derive(Default)]
struct Layers {
    counts: Vec<(&'static str, u64)>,
    samples: Vec<(&'static str, u64, u64)>,
    events: u64,
    delivered: u64,
    peak_queue: usize,
    medium_queries: u64,
    medium_rebuilds: u64,
    medium_tick_s: f64,
    medium_lazy_s: f64,
    nodes_total: NodeCounters,
    retransmissions: u64,
    timeouts: u64,
    acks: u64,
    arrivals: u64,
    flows_completed: u64,
    nodes: u64,
    node_bytes: u64,
    topology_s: f64,
    build_s: f64,
    traced_s: f64,
    /// The exact counts of every run, in order.
    exact: String,
}

impl Layers {
    fn add_run(&mut self, net: &Network, stats: &StepStats, rep: &mut Rep) -> Result<(), String> {
        let profile = net.profile().expect("profiling enabled");
        match net.conservation_report() {
            Some(r) if r.is_balanced() => {}
            Some(r) => rep.fail(format!("conservation audit unbalanced: {r}")),
            None => rep.fail("conservation audit was not enabled".into()),
        }
        let by_kind = profile.by_kind();
        for &(kind, n) in &by_kind {
            if trace::layer_of(kind).is_none() {
                return Err(format!(
                    "event kind `{kind}` is missing from the kind→layer table"
                ));
            }
            match self.counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, c)) => *c += n,
                None => self.counts.push((kind, n)),
            }
        }
        for &(kind, n, ns) in &stats.kinds {
            match self.samples.iter_mut().find(|(k, ..)| *k == kind) {
                Some((_, c, sum)) => {
                    *c += n;
                    *sum += ns;
                }
                None => self.samples.push((kind, n, ns)),
            }
        }
        let snap = net.collect_metrics();
        let nodes = snap.node_totals();
        for f in &snap.flows {
            if let Some(s) = f.sender {
                self.retransmissions += s.retransmissions;
                self.timeouts += s.timeouts;
            }
            if let Some(s) = f.sink {
                self.acks += s.acks_sent;
            }
        }
        let medium = net.medium_counters();
        self.events += profile.events_processed();
        self.delivered += net.total_delivered();
        self.peak_queue = self.peak_queue.max(profile.peak_queue_depth());
        self.medium_queries += medium.queries;
        self.medium_rebuilds += medium.rebuilds;
        self.medium_tick_s += profile.timed_secs("medium_tick");
        self.medium_lazy_s += profile.timed_secs("medium_lazy");
        self.nodes_total = self.nodes_total.plus(&nodes);
        if let Some(fct) = net.traffic_summary() {
            self.arrivals += fct.arrivals();
            self.flows_completed += fct.completions();
        }
        self.nodes += net.node_count() as u64;
        self.node_bytes += net.bytes_per_node() * net.node_count() as u64;
        let _ = write!(
            self.exact,
            "kinds={by_kind:?} peak_queue={} bytes_per_node={};",
            profile.peak_queue_depth(),
            net.bytes_per_node()
        );
        Ok(())
    }

    fn finish(self, rep: &mut Rep) {
        for (kind, n) in self.counts {
            rep.put(format!("count.{kind}"), n as f64);
        }
        for (kind, n, ns) in self.samples {
            rep.put(format!("samples.{kind}"), n as f64);
            rep.put(format!("ns.{kind}"), ns as f64);
        }
        let NodeCounters {
            phy,
            mac: m,
            aodv: a,
            ..
        } = self.nodes_total;
        let fields: [(&str, f64); 25] = [
            ("events", self.events as f64),
            ("delivered", self.delivered as f64),
            ("max.queue_depth", self.peak_queue as f64),
            ("medium_queries", self.medium_queries as f64),
            ("medium_rebuilds", self.medium_rebuilds as f64),
            ("medium_tick_s", self.medium_tick_s),
            ("medium_lazy_s", self.medium_lazy_s),
            ("collisions", phy.collisions as f64),
            ("rts_sent", m.rts_sent as f64),
            ("data_sent", m.data_sent as f64),
            ("mac_timeouts", (m.cts_timeouts + m.ack_timeouts) as f64),
            ("queue_drops", m.queue_drops as f64),
            ("rreqs_forwarded", a.rreqs_forwarded as f64),
            ("rreqs_suppressed", a.rreq_rebroadcasts_suppressed as f64),
            ("false_route_failures", a.false_route_failures as f64),
            ("retransmissions", self.retransmissions as f64),
            ("timeouts", self.timeouts as f64),
            ("acks_sent", self.acks as f64),
            ("arrivals", self.arrivals as f64),
            ("flows_completed", self.flows_completed as f64),
            ("nodes", self.nodes as f64),
            ("node_bytes", self.node_bytes as f64),
            ("topology_s", self.topology_s),
            ("build_s", self.build_s),
            ("traced_s", self.traced_s),
        ];
        for (k, v) in fields {
            rep.put(k, v);
        }
    }
}

/// Where traced repetitions of `workload` append their spans.
pub fn trace_path(out: &Path, workload: Workload) -> PathBuf {
    out.join(format!("{}.trace.jsonl", workload.name()))
}

/// Spans kept in memory and appended to the workload's trace file when
/// the repetition ends, each tagged with the instance seed.
struct SpanFile {
    seed: u64,
    lines: Vec<String>,
}

impl SpanFile {
    fn new(seed: u64) -> Self {
        SpanFile {
            seed,
            lines: Vec::new(),
        }
    }

    fn span(&self, kind: &str) -> Obj {
        Obj::new().u64("seed", self.seed).str("span", kind)
    }

    fn setup(&mut self, name: &str, start_s: f64, end_s: f64) {
        let line = self
            .span("setup")
            .str("name", name)
            .f64("start_s", start_s)
            .f64("end_s", end_s)
            .finish();
        self.lines.push(line);
    }

    fn steps(&mut self, run: usize, stats: &StepStats) {
        for s in &stats.spans {
            let line = self
                .span("step")
                .usize("run", run)
                .str("kind", s.kind)
                .str("layer", trace::layer_of(s.kind).unwrap_or("?"))
                .u64("start_ns", s.start_ns)
                .u64("dur_ns", s.dur_ns)
                .finish();
            self.lines.push(line);
        }
    }

    fn jobs(&mut self, sweep: &str, jobs: &[JobSpan], t0: Instant) {
        for j in jobs {
            let line = self
                .span("job")
                .str("sweep", sweep)
                .usize("job", j.job)
                .usize("worker", j.worker)
                .f64("start_s", (j.start - t0).as_secs_f64())
                .f64("end_s", (j.end - t0).as_secs_f64())
                .finish();
            self.lines.push(line);
        }
    }

    fn append_to(&self, path: &Path) -> Result<(), String> {
        let write = || -> std::io::Result<()> {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            let mut w = std::io::BufWriter::new(file);
            for line in &self.lines {
                writeln!(w, "{line}")?;
            }
            w.flush()
        };
        write().map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// One sweep job as the timing executor saw it.
struct JobSpan {
    job: usize,
    worker: usize,
    start: Instant,
    end: Instant,
    allocs: u64,
    bytes: u64,
}

/// A sweep of the `figures` jobs through `mwn_runner::run_sweep` with a
/// timing executor closure around `simulate`.
struct Sweep {
    start: Instant,
    first_job: Instant,
    end: Instant,
    workers: usize,
    jobs: Vec<JobSpan>,
    /// Store rows by job index, `None` for a job with no row.
    rows: Vec<Option<Json>>,
}

/// Runs `jobs` with `simulate`; `start` is when the workload began.
fn sweep(
    start: Instant,
    jobs: &[JobSpec],
    store: PathBuf,
    simulate: fn(&JobSpec) -> RunResults,
) -> Result<Sweep, String> {
    let workers = mwn_runner::default_workers();
    for stale in [store.clone(), mwn_runner::store::journal_path(&store)] {
        let _ = std::fs::remove_file(stale);
    }
    let mut opts = SweepOptions::new(&store).workers(workers).quiet(true);
    opts.manifest = Some(Manifest::for_jobs(jobs, workers, "perfbench".into()));
    let spans = Mutex::new(Vec::new());
    let threads: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let first_job = OnceLock::new();
    let executor = |spec: &JobSpec| {
        let t0 = Instant::now();
        first_job.get_or_init(|| t0);
        let (a0, b0) = thread_counts();
        let results = simulate(spec);
        let (a1, b1) = thread_counts();
        let end = Instant::now();
        let worker = {
            let mut ids = threads.lock().expect("no executor panics holding the lock");
            let me = std::thread::current().id();
            ids.iter().position(|&t| t == me).unwrap_or_else(|| {
                ids.push(me);
                ids.len() - 1
            })
        };
        spans
            .lock()
            .expect("no executor panics holding the lock")
            .push(JobSpan {
                job: jobs
                    .iter()
                    .position(|j| j == spec)
                    .expect("job of this sweep"),
                worker,
                start: t0,
                end,
                allocs: a1 - a0,
                bytes: b1 - b0,
            });
        results
    };
    mwn_runner::run_sweep(jobs, &opts, &executor).map_err(|e| format!("sweep failed: {e}"))?;
    let end = Instant::now();
    let text =
        std::fs::read_to_string(&store).map_err(|e| format!("cannot read the store: {e}"))?;
    let _ = std::fs::remove_file(&store);
    let mut rows = vec![None; jobs.len()];
    for line in text.lines() {
        let row = Json::parse(line).map_err(|e| format!("bad store row: {e}"))?;
        let Some(key) = row.get("key").and_then(Json::as_str) else {
            continue; // the manifest
        };
        if let Some(i) = jobs.iter().position(|j| j.key() == key) {
            rows[i] = Some(row);
        }
    }
    let mut jobs_run = spans.into_inner().expect("sweep finished");
    jobs_run.sort_by_key(|j| j.job);
    Ok(Sweep {
        start,
        first_job: first_job.get().copied().unwrap_or(end),
        end,
        workers,
        jobs: jobs_run,
        rows,
    })
}

impl Sweep {
    /// Checks every row and returns the rows' digest without their
    /// `metrics` section (the fields an untraced and an instrumented run
    /// share) and each row's energy total, in job order.
    fn check_rows(&self, rep: &mut Rep) -> (u64, Vec<String>) {
        let mut shared_rows = String::new();
        let mut energy = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            rep.attempted += 1;
            let Some(row) = row else {
                rep.fail(format!("job {i} left no row in the store"));
                continue;
            };
            let status = row.get("status").and_then(Json::as_str);
            let outcome = row.get("outcome").and_then(Json::as_str);
            if status != Some("done") || outcome != Some("completed") {
                rep.fail(format!("job {i}: status {status:?}, outcome {outcome:?}"));
            }
            let shared: Vec<_> = row
                .fields()
                .iter()
                .filter(|(k, _)| k != "metrics")
                .collect();
            let _ = write!(shared_rows, "{shared:?}");
            let joules = row.get("total_energy_joules").and_then(Json::as_f64);
            energy.push(joules.map_or("none".into(), fmt_f64));
        }
        (hash_str(&shared_rows), energy)
    }

    fn jobs_s(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| (j.end - j.start).as_secs_f64())
            .sum()
    }
}

fn figures_untraced(out: &Path) -> Result<Rep, String> {
    let start = Instant::now();
    let jobs = workload::figure_jobs()?;
    let store = out.join(format!("figures-{}.jsonl", std::process::id()));
    let s = sweep(start, &jobs, store, mwn_runner::simulate)?;
    let mut rep = Rep::default();
    let (digest, energy) = s.check_rows(&mut rep);
    rep.fingerprint = format!("rows={digest:016x} energy={}", energy.join(","));
    // Summed over jobs: which job a worker thread runs first (and so pays
    // the thread's one-time allocations) is up to the scheduler.
    let allocs: u64 = s.jobs.iter().map(|j| j.allocs).sum();
    let bytes: u64 = s.jobs.iter().map(|j| j.bytes).sum();
    rep.exact = format!("{} allocs={allocs} bytes={bytes}", rep.fingerprint);
    rep.setup_s = (s.first_job - s.start).as_secs_f64();
    rep.wall_s = (s.end - s.start).as_secs_f64();
    rep.run_s = (s.end - s.first_job).as_secs_f64();
    rep.delivered = jobs
        .iter()
        .zip(&s.rows)
        .filter(|(_, r)| r.as_ref().and_then(|r| r.get("outcome")?.as_str()) == Some("completed"))
        .map(|(j, _)| workload::job_target(j))
        .sum();

    let mut durations: Vec<f64> = s
        .jobs
        .iter()
        .map(|j| (j.end - j.start).as_secs_f64())
        .collect();
    durations.sort_by(f64::total_cmp);
    let span = s.jobs.iter().map(|j| j.end).max().unwrap_or(s.end)
        - s.jobs.iter().map(|j| j.start).min().unwrap_or(s.start);
    // The tail: how long the sweep ran on after its first worker went idle.
    let last_end = |w: usize| s.jobs.iter().filter(|j| j.worker == w).map(|j| j.end).max();
    let worker_ends: Vec<Instant> = (0..s.workers).filter_map(last_end).collect();
    let tail = match (worker_ends.iter().min(), worker_ends.iter().max()) {
        (Some(&first), Some(&last)) if worker_ends.len() == s.workers => {
            (last - first).as_secs_f64()
        }
        // A worker that never ran a job idled for the whole sweep.
        _ => span.as_secs_f64(),
    };
    rep.put("allocs", allocs as f64);
    rep.put("alloc_bytes", bytes as f64);
    rep.put("work_s", s.jobs_s());
    rep.put(
        "runner.job_s_p50",
        durations.get(durations.len() / 2).copied().unwrap_or(0.0),
    );
    rep.put(
        "max.runner.job_s_max",
        durations.last().copied().unwrap_or(0.0),
    );
    rep.put(
        "runner.worker_busy_frac",
        s.jobs_s() / (s.workers as f64 * span.as_secs_f64()).max(f64::MIN_POSITIVE),
    );
    rep.put("runner.tail_s", tail);
    Ok(rep)
}

fn figures_traced(out: &Path) -> Result<Rep, String> {
    let start = Instant::now();
    let jobs = workload::figure_jobs()?;
    let store = out.join(format!("figures-{}.jsonl", std::process::id()));
    let s = sweep(start, &jobs, store, mwn_runner::simulate_instrumented)?;
    let mut rep = Rep::default();
    let (digest, _) = s.check_rows(&mut rep);

    let mut spans = SpanFile::new(0);
    spans.jobs("instrumented", &s.jobs, start);
    let overhead = trace::instant_overhead_ns();
    let mut layers = Layers::default();
    let mut energy = Vec::new();
    let (mut allocs, mut bytes) = (0, 0);
    for (i, job) in jobs.iter().enumerate() {
        let (a0, b0) = thread_counts();
        let t0 = Instant::now();
        let scenario = job.scenario();
        let topology_s = t0.elapsed().as_secs_f64();
        let mut net = scenario.build();
        let setup_s = t0.elapsed().as_secs_f64();
        net.enable_profiling();
        net.enable_audit();
        let deadline = mwn::SimTime::ZERO + job.scale.deadline;
        let stats = trace::traced_loop(
            &mut net,
            workload::job_target(job),
            deadline,
            overhead,
            job.seed,
        )?;
        let (a1, b1) = thread_counts();
        allocs += a1 - a0;
        bytes += b1 - b0;
        if !stats.reached {
            rep.fail(format!("traced job {i} missed its delivery target"));
        }
        layers.add_run(&net, &stats, &mut rep)?;
        layers.topology_s += topology_s;
        layers.build_s += setup_s - topology_s;
        layers.traced_s += setup_s + stats.loop_s;
        energy.push(fmt_f64(net.total_energy_joules()));
        let base = (t0 - start).as_secs_f64();
        spans.setup(&format!("job{i}.topology"), base, base + topology_s);
        spans.setup(&format!("job{i}.build"), base + topology_s, base + setup_s);
        spans.steps(i, &stats);
    }
    rep.delivered = layers.delivered;
    rep.fingerprint = format!("rows={digest:016x} energy={}", energy.join(","));
    rep.exact = format!(
        "{} {} allocs={allocs} bytes={bytes}",
        rep.fingerprint, layers.exact
    );
    layers.finish(&mut rep);
    rep.put("instrumented_s", s.jobs_s());
    spans.append_to(&trace_path(out, Workload::Figures))?;
    Ok(rep)
}
