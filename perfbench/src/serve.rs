//! `serve-sharded`: `serve_cli --shards 2` driven by a single-threaded
//! open-loop generator — fixed-rate arrivals timed from each job's due
//! time, and bursts that backlog both shards to measure capacity.
//! Every time is reported at the reference host's speed: yardstick
//! samples measure the host's drift — on every core at each phase
//! boundary while the server idles, and on the generator thread in its
//! idle gaps during fixed-rate arrivals — and each burst's times are
//! divided by its mean slowdown, each fixed-rate job's by the mean around
//! its own lifetime.

use crate::host::{self, HostSpeed};
use crate::report::{Metrics, Outcome};
use crate::stats::{dealt_cells, due_latency, lateness, median, percentile, poisson_schedule, Rng};
use crate::trace::{self, Tracer};
use crate::Args;
use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore, CellSpec};
use bea_core::job::{AttackJob, ImageSpec};
use bea_core::telemetry::{parse_json, JsonValue};
use bea_detect::{Architecture, KernelPolicy, ModelZoo};
use bea_scene::SyntheticKitti;
use bea_serve::client::{request_with, HttpConnection};
use bea_serve::router::{shard_for_cell, shard_for_id};
use bea_serve::{Client, ClientTimeouts};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// GA budget per job: 4 × (1 + 1) = 8 evaluations, small enough that
/// per-job serving costs show.
const POPULATION: usize = 4;
const GENERATIONS: usize = 1;
/// The server under test: 2 shards × 1 worker, one per core.
const SHARDS: usize = 2;
const QUEUE: usize = 256;
/// Cross-job batching stays off: with `--batch 2` a shard aborts on its
/// first gate group on any multi-core host (the served single-cell
/// campaign leaves NSGA-II `eval_threads` at "all cores", so two
/// evaluation threads post to the gate as one member). See README.md.
const BATCH: usize = 1;
/// Burst capacity (jobs/s) measured on the 2-vCPU reference host; sizes
/// the bursts. A constant, never measured per run.
const CAPACITY: f64 = 17.0;
/// Fixed arrival rate: under a third of [`CAPACITY`], so queueing stays
/// small when the host runs slow and latency tracks the server, not the
/// host's drift.
const RATE: f64 = 5.0;
/// p90 needs at least ten samples beyond it.
const MIN_FIXED_JOBS: usize = 100;
/// Fixed-rate arrivals span the run length; the bursts should take this
/// share of it more to drain.
const BURST_SHARE: f64 = 1.0 / 4.0;
const MIN_BURST_JOBS: usize = 16;
/// The timed phases alternate — fixed-rate arrivals, then a burst — in
/// this many rounds, so every metric samples the whole run rather than
/// one stretch of it: this host's speed changes by up to 2× within a run.
const ROUNDS: usize = 5;
/// One job in five is DETR, so p50 sits inside YOLO's latency mode and
/// p90 at the middle of DETR's (away from the jobs that queued); one
/// submission in five repeats an earlier job exactly.
const DETR_EVERY: usize = 5;
const REPEAT_EVERY: usize = 5;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Status poll sweep interval, small against a job's run time: 10 ms
/// while fixed-rate jobs are timed (a job is seen done 5 ms late on
/// average), 20 ms otherwise, so a backlogged sweep stays a small load.
const FIXED_POLL_INTERVAL: f64 = 0.01;
const POLL_INTERVAL: f64 = 0.02;
/// Status polls per (shard, tenant) lane in one sweep. A shard runs one
/// job at a time and takes its tenants' FIFO lanes in turn, so the next
/// job to change state is among the oldest outstanding of each lane;
/// polling only those keeps a backlogged sweep to
/// `SHARDS × TENANTS × POLLS_PER_LANE` requests, and the generator off
/// the cores it measures.
const POLLS_PER_LANE: usize = 2;
/// Every fixed-rate round starts with nothing outstanding and must be
/// back there this many seconds — a few job times — after its last
/// arrival; otherwise the offered rate outran the server, the backlog
/// grew, and the jobs still outstanding count as failed.
const DRAIN_GRACE: f64 = 1.5;
const WARMUP_JOBS: usize = 4;
/// Set-ups timed at each of the `ROUNDS + 1` gaps — before the warm-up
/// (the last of these serves the run) and after each round, while the
/// server under test idles. The median of all of them is reported.
const SETUPS_PER_GAP: usize = 3;
const CHECKED_JOBS: usize = 4;
/// Yardstick samples per core at each phase boundary and around each
/// gap's set-ups.
const BRACKET_SAMPLES: usize = 3;
/// During fixed-rate arrivals the generator takes a yardstick sample
/// (≈5 ms) when the next submission or sweep is at least `SAMPLE_ROOM`
/// away and its last sample `SAMPLE_EVERY` ago.
const SAMPLE_ROOM: f64 = 0.008;
const SAMPLE_EVERY: f64 = 0.05;
/// A fixed-rate job's latency is divided by the host's slowdown over the
/// samples from `JOB_WINDOW` before its due time to `JOB_WINDOW` after it
/// was seen done — or over its round's, with fewer than `JOB_SAMPLES`.
const JOB_WINDOW: f64 = 0.5;
const JOB_SAMPLES: usize = 4;
const KEEPALIVE_POLLS: usize = 9;

/// The run's submissions. Fresh submissions take distinct cells —
/// `(arch, model seed, image)` — dealt round-robin over all of an
/// architecture's model seeds in a seeded order, so a run's cost never
/// hinges on which few models a seed drew; a repeat copies an earlier job
/// of the same architecture (tenant redrawn). Every job shares the run's
/// GA seed and budget.
///
/// Cells stay distinct because the server keys a cell's CSV by
/// `(arch, model seed, image)` alone: two jobs on one cell that differ
/// only in GA seed would overwrite each other's result.
///
/// The jobs of each architecture alternate between the shards the router
/// will place them on, so every segment (each burst) loads both shards
/// alike, DETR share included, whatever the seed.
pub fn mix(seed: u64, stream: u64, segments: &[usize]) -> Vec<AttackJob> {
    let mut rng = Rng::new(seed, stream);
    let base_seed = rng.next_u64() >> 16;
    let images = SyntheticKitti::evaluation_set().len();
    let total: usize = segments.iter().sum();
    // Architecture slots: exactly one DETR in DETR_EVERY per segment.
    let mut arches = Vec::with_capacity(total);
    for &count in segments {
        let detr = (count + DETR_EVERY / 2) / DETR_EVERY;
        let mut slots = vec![Architecture::Yolo; count - detr];
        slots.extend(vec![Architecture::Detr; detr]);
        rng.shuffle(&mut slots);
        arches.extend(slots);
    }
    let mut repeat = vec![false; total];
    for k in rng.distinct(total, total / REPEAT_EVERY) {
        repeat[k] = true;
    }
    // A repeat needs an earlier job of its architecture to copy.
    for arch in [Architecture::Yolo, Architecture::Detr] {
        if let Some(first) = (0..total).find(|&k| arches[k] == arch) {
            repeat[first] = false;
        }
    }
    // Cell pools: every (model seed, image) cell, one image of each model
    // seed in turn, in a seeded order.
    let mut pools: [VecDeque<(u64, usize)>; 2] =
        [dealt_cells(&mut rng, images).into(), dealt_cells(&mut rng, images).into()];
    let shard_of = |arch: Architecture, model_seed: u64, index: usize| {
        shard_for_cell(&CellSpec::new(arch.name(), model_seed, index), SHARDS)
    };
    // Jobs placed so far per architecture: the next one goes to shard
    // `placed % SHARDS`. Every model seed's 16 cells split evenly over
    // two shards, so a pool never runs out of one shard's cells first.
    let mut placed = [0usize; 2];
    let mut jobs: Vec<AttackJob> = Vec::with_capacity(total);
    for k in 0..total {
        let arch = arches[k];
        let lane = usize::from(arch == Architecture::Detr);
        let want = placed[lane] % SHARDS;
        placed[lane] += 1;
        let tenant = TENANTS[rng.below(TENANTS.len())].to_string();
        if repeat[k] {
            let earlier: Vec<usize> = (0..k).filter(|&j| jobs[j].arch == arch).collect();
            let on_shard: Vec<usize> = earlier
                .iter()
                .copied()
                .filter(|&j| shard_for_cell(&jobs[j].cell_spec(), SHARDS) == want)
                .collect();
            let from = if on_shard.is_empty() { &earlier } else { &on_shard };
            let original = jobs[from[rng.below(from.len())]].clone();
            jobs.push(AttackJob { tenant, ..original });
            continue;
        }
        let pool = &mut pools[lane];
        let at = pool.iter().position(|&(seed, index)| shard_of(arch, seed, index) == want);
        let (model_seed, index) = pool.remove(at.unwrap_or(0)).expect("pool sized for fresh jobs");
        jobs.push(AttackJob {
            arch,
            model_seed,
            image: ImageSpec::Dataset { index },
            population: POPULATION,
            generations: GENERATIONS,
            base_seed,
            use_cache: false,
            kernel_policy: KernelPolicy::default(),
            tenant,
        });
    }
    jobs
}

/// The share of `jobs` that repeat an earlier job's cell and budget.
pub fn dup_share(jobs: &[AttackJob]) -> f64 {
    let mut seen = HashSet::new();
    let dups = jobs
        .iter()
        .filter(|j| !seen.insert(AttackJob { tenant: String::new(), ..(*j).clone() }.to_json()))
        .count();
    dups as f64 / jobs.len().max(1) as f64
}

/// One submission as the client saw it. Times are seconds since the
/// pass epoch.
#[derive(Debug, Clone)]
struct Job {
    spec: AttackJob,
    body: String,
    due: f64,
    sent: Option<f64>,
    accepted: Option<f64>,
    submit_s: f64,
    id: Option<String>,
    shard: usize,
    running_seen: Option<f64>,
    done_seen: Option<f64>,
    csv_done: Option<f64>,
    /// Why the job did not complete (refused, failed, backlog).
    failed: Option<String>,
    /// The host's mean slowdown while the job was out: around its own
    /// lifetime (fixed-rate jobs) or over its burst.
    slowdown: f64,
}

impl Job {
    fn new(spec: AttackJob, due: f64) -> Self {
        let body = spec.to_json();
        Job {
            spec,
            body,
            due,
            sent: None,
            accepted: None,
            submit_s: 0.0,
            id: None,
            shard: 0,
            running_seen: None,
            done_seen: None,
            csv_done: None,
            failed: None,
            slowdown: 1.0,
        }
    }

    fn outstanding(&self) -> bool {
        self.id.is_some() && self.done_seen.is_none() && self.failed.is_none()
    }

    fn latency(&self) -> f64 {
        due_latency(self.due, if self.failed.is_some() { None } else { self.done_seen })
    }

    /// [`Job::latency`] at the reference host's speed.
    fn host_latency(&self) -> f64 {
        self.latency() / self.slowdown
    }
}

/// The router's announcement on stdout, printed once every shard has
/// announced its own address.
const LISTENING: &str = "bea-serve listening on http://";

/// A running `serve_cli --shards 2`, stopped on drop.
struct Server {
    child: Child,
    addr: String,
    shard_pids: Vec<String>,
    /// Copies the router's stdout to `stdout.log`; ends with the router.
    relay: Option<JoinHandle<()>>,
    stopped: bool,
}

impl Server {
    /// Spawns the server and waits until `/healthz` reports every shard
    /// `ok`; returns it with the seconds that took. Readiness is read
    /// from a pipe, not polled, so the time has no sleep granularity.
    fn start(serve_cli: &Path, dir: &Path) -> Result<(Server, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log =
            |name: &str| std::fs::File::create(dir.join(name)).map_err(|e| format!("{name}: {e}"));
        let mut stdout_log = log("stdout.log")?;
        let stderr_log = log("stderr.log")?;
        let started = Instant::now();
        let mut child = Command::new(serve_cli)
            .args(["--addr", "127.0.0.1:0", "--reactor"])
            .args(["--shards", &SHARDS.to_string(), "--workers", "1"])
            .args(["--batch", &BATCH.to_string(), "--queue", &QUEUE.to_string()])
            .arg("--out")
            .arg(dir.join("store"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr_log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", serve_cli.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (announce, announced) = mpsc::channel();
        let relay = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix(LISTENING) {
                    let addr = rest.split_whitespace().next().unwrap_or_default();
                    let _ = announce.send(addr.to_string());
                }
                let _ = writeln!(stdout_log, "{line}");
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            shard_pids: Vec::new(),
            relay: Some(relay),
            stopped: false,
        };
        server.addr = announced
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| format!("serve_cli did not come up; see {}", dir.display()))?;
        let quick = ClientTimeouts {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(5),
            write: Duration::from_secs(5),
        };
        let deadline = started + Duration::from_secs(60);
        loop {
            let health = request_with(&server.addr, "GET", "/healthz", None, quick);
            if let Some(pids) = health.ok().and_then(|r| healthy_shard_pids(r.body_text().ok()?)) {
                if pids.len() == SHARDS {
                    server.shard_pids = pids;
                    return Ok((server, started.elapsed().as_secs_f64()));
                }
            }
            if Instant::now() > deadline {
                return Err("serve_cli shards never all reported ok".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pids(&self) -> Vec<String> {
        let mut pids = vec![self.child.id().to_string()];
        pids.extend(self.shard_pids.iter().cloned());
        pids
    }

    /// Router and shard CPU seconds, in that order.
    fn cpu(&self) -> Result<(f64, f64), String> {
        let router = host::cpu_seconds(&self.child.id().to_string())?;
        let mut shards = 0.0;
        for pid in &self.shard_pids {
            shards += host::cpu_seconds(pid)?;
        }
        Ok((router, shards))
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.pids().iter().map(|pid| host::peak_rss_mb(pid)).sum()
    }

    /// Graceful shutdown, then waits for every process to end; kills
    /// whatever is still running after the drain deadline.
    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // A server that never announced its address cannot be asked.
        let asked = !self.addr.is_empty()
            && request_with(&self.addr, "POST", "/v1/shutdown", None, ClientTimeouts::default())
                .is_ok();
        let deadline = Instant::now() + Duration::from_secs(if asked { 60 } else { 0 });
        let mut exited = false;
        while !exited && Instant::now() < deadline {
            exited = self.child.try_wait().ok().flatten().is_some();
            if !exited {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if !exited {
            for pid in &self.shard_pids {
                let _ = Command::new("kill").args(["-9", pid]).status();
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(relay) = self.relay.take() {
            let _ = relay.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Shard pids from a `/healthz` body, when it reports every shard `ok`.
fn healthy_shard_pids(body: &str) -> Option<Vec<String>> {
    let health = parse_json(body).ok()?;
    if health.get("status")?.as_str()? != "ok" {
        return None;
    }
    let JsonValue::Array(shards) = health.get("shard_status")? else {
        return None;
    };
    shards.iter().map(|shard| Some(shard.get("pid")?.as_u64()?.to_string())).collect()
}

/// The string field `key` of a JSON response body.
fn field(body: &str, key: &str) -> Option<String> {
    parse_json(body).ok()?.get(key)?.as_str().map(str::to_string)
}

/// `SETUPS_PER_GAP` timed set-ups under `dir`, bracketed by yardstick
/// samples on every core; their times at the reference host's speed are
/// appended to `setups`, the samples to `speed`. Every server but the
/// last is stopped, and the last is returned.
fn set_ups(
    serve_cli: &Path,
    dir: &Path,
    gap: usize,
    setups: &mut Vec<f64>,
    speed: &mut HostSpeed,
) -> Result<Server, String> {
    let mut here = HostSpeed::default();
    here.sample(SHARDS, BRACKET_SAMPLES);
    let mut last: Option<Server> = None;
    let mut times = Vec::with_capacity(SETUPS_PER_GAP);
    for k in 0..SETUPS_PER_GAP {
        if let Some(mut previous) = last.take() {
            previous.stop();
        }
        let (server, secs) = Server::start(serve_cli, &dir.join(format!("setup-{gap}-{k}")))?;
        times.push(secs);
        last = Some(server);
    }
    here.sample(SHARDS, BRACKET_SAMPLES);
    setups.extend(times.iter().map(|t| t / here.slowdown()));
    speed.merge(&here);
    Ok(last.expect("at least one set-up per gap"))
}

/// The single-threaded load generator. Each request takes its own
/// connection (`bea_serve::Client`): through the router a keep-alive
/// connection stalls ~40 ms per request (measured separately as
/// `router.keepalive_poll_ms`), which would leave the poller slower than
/// the jobs it times.
struct Generator {
    client: Client,
    epoch: Instant,
    poll_s: Vec<f64>,
    /// Fetch each job's CSV the moment it is seen done (traced passes).
    fetch_csv: bool,
    /// Yardstick samples as (time, ms).
    yard: Vec<(f64, f64)>,
    /// Fixed-rate arrivals: sample the host in idle gaps and sweep every
    /// [`FIXED_POLL_INTERVAL`].
    fixed_rate: bool,
    last_sample: f64,
}

impl Generator {
    fn new(addr: &str, epoch: Instant) -> Self {
        Generator {
            client: Client::new(addr),
            epoch,
            poll_s: Vec::new(),
            fetch_csv: false,
            yard: Vec::new(),
            fixed_rate: false,
            last_sample: f64::NEG_INFINITY,
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Yardstick samples on every core at once, while the server idles;
    /// returns the time they are filed under.
    fn bracket(&mut self) -> f64 {
        let mut here = HostSpeed::default();
        here.sample(SHARDS, BRACKET_SAMPLES);
        let at = self.now();
        self.yard.extend(here.samples().iter().map(|&ms| (at, ms)));
        at
    }

    /// The samples filed between `from` and `to`.
    fn speed_between(&self, from: f64, to: f64) -> HostSpeed {
        let mut speed = HostSpeed::default();
        for &(_, ms) in self.yard.iter().filter(|(at, _)| (from..=to).contains(at)) {
            speed.push(ms);
        }
        speed
    }

    fn send(&mut self, job: &mut Job) {
        let sent = self.now();
        job.sent = Some(sent);
        let response = match self.client.submit(&job.body) {
            Ok(response) => response,
            Err(e) => {
                job.failed = Some(format!("submit failed: {e}"));
                return;
            }
        };
        let acked = self.now();
        job.submit_s = acked - sent;
        let body = response.body_text().unwrap_or_default();
        match (response.status, field(body, "id")) {
            (202, Some(id)) => {
                job.shard = id
                    .strip_prefix("job-")
                    .and_then(|n| n.parse().ok())
                    .map_or(0, |n| shard_for_id(n, SHARDS));
                job.id = Some(id);
                job.accepted = Some(acked);
            }
            (status, _) => job.failed = Some(format!("refused: HTTP {status} {body}")),
        }
    }

    fn check(&mut self, job: &mut Job) {
        let id = job.id.clone().expect("only accepted jobs are polled");
        let start = self.now();
        let response = self.client.status(&id);
        let seen = self.now();
        self.poll_s.push(seen - start);
        let response = match response {
            Ok(response) => response,
            Err(e) => {
                job.failed = Some(format!("{id}: status poll failed: {e}"));
                return;
            }
        };
        match field(response.body_text().unwrap_or_default(), "status").as_deref() {
            Some("queued") => {}
            Some("running") => {
                job.running_seen.get_or_insert(seen);
            }
            Some("done") => {
                job.done_seen = Some(seen);
                if self.fetch_csv {
                    let _ = self.client.csv(&id);
                    job.csv_done = Some(self.now());
                }
            }
            other => job.failed = Some(format!("{id}: status {other:?}")),
        }
    }

    /// Sends every job at its due time and polls until each is done,
    /// failed, or `deadline` passes. Submissions take priority over
    /// polls, so a submission is late by at most one poll round trip.
    fn drive(&mut self, jobs: &mut [Job], deadline: f64) {
        let interval = if self.fixed_rate { FIXED_POLL_INTERVAL } else { POLL_INTERVAL };
        let mut next = 0;
        let mut sweep: VecDeque<usize> = VecDeque::new();
        let mut next_sweep = self.now();
        loop {
            let now = self.now();
            if next < jobs.len() && jobs[next].due <= now {
                self.send(&mut jobs[next]);
                next += 1;
                continue;
            }
            if let Some(k) = sweep.pop_front() {
                if jobs[k].outstanding() {
                    self.check(&mut jobs[k]);
                }
                continue;
            }
            let waiting = jobs.iter().any(Job::outstanding);
            if next == jobs.len() && !waiting {
                return;
            }
            if now > deadline {
                return;
            }
            if now >= next_sweep {
                sweep.extend(poll_sweep(&jobs[..next]));
                next_sweep = if next_sweep + interval > now {
                    next_sweep + interval
                } else {
                    now + interval
                };
                continue;
            }
            let wake = if next < jobs.len() { jobs[next].due.min(next_sweep) } else { next_sweep };
            if self.fixed_rate
                && wake - now >= SAMPLE_ROOM
                && now - self.last_sample >= SAMPLE_EVERY
            {
                // The host's speed while the server runs jobs, in a gap
                // the sample fits.
                self.yard.push((now, host::yardstick_ms()));
                self.last_sample = now;
                continue;
            }
            std::thread::sleep(Duration::from_secs_f64((wake - now).clamp(0.0, interval)));
        }
    }
}

/// The jobs one status sweep polls: the `POLLS_PER_LANE` oldest
/// outstanding jobs of each (shard, tenant) lane, in submission order.
fn poll_sweep(sent: &[Job]) -> Vec<usize> {
    let mut polled: HashMap<(usize, &str), usize> = HashMap::new();
    (0..sent.len())
        .filter(|&k| {
            let job = &sent[k];
            job.outstanding() && {
                let lane = polled.entry((job.shard, job.spec.tenant.as_str())).or_default();
                *lane += 1;
                *lane <= POLLS_PER_LANE
            }
        })
        .collect()
}

/// Marks every accepted job of a fixed-rate round that was not seen done
/// by `deadline` — [`DRAIN_GRACE`] after its last arrival — as failed:
/// outstanding work did not return to its starting level of none.
fn mark_backlog(jobs: &mut [Job], deadline: f64) {
    for job in jobs.iter_mut().filter(|j| j.id.is_some() && j.failed.is_none()) {
        if job.done_seen.is_none_or(|done| done > deadline) {
            job.failed =
                Some(format!("backlog: still outstanding {DRAIN_GRACE} s after the last arrival"));
        }
    }
}

/// What one pass measured.
struct Pass {
    /// Set-up time at the reference host's speed (median).
    setup_s: f64,
    fixed: Vec<Job>,
    /// Burst jobs; each burst's jobs are all due at its start.
    burst: Vec<Job>,
    cpu_router_s: f64,
    cpu_shards_s: f64,
    /// Router + shard CPU over the timed phases at the reference host's
    /// speed.
    host_cpu_s: f64,
    /// Every yardstick sample of the pass.
    speed: HostSpeed,
    peak_rss_mb: f64,
    poll_s: Vec<f64>,
    keepalive_poll_s: f64,
    spans: Vec<trace::Span>,
}

fn phase_counts(seconds: f64) -> (usize, usize) {
    let fixed = ((RATE * seconds).round() as usize).max(MIN_FIXED_JOBS);
    let burst = ((CAPACITY * seconds * BURST_SHARE).round() as usize).max(MIN_BURST_JOBS);
    (fixed, burst)
}

fn run_pass(args: &Args, dir: &Path, traced: bool, outcome: &mut Outcome) -> Result<Pass, String> {
    let mut setups = Vec::with_capacity(SETUPS_PER_GAP * (ROUNDS + 1));
    let mut speed = HostSpeed::default();
    let mut server = set_ups(&args.serve_cli, dir, 0, &mut setups, &mut speed)?;

    let epoch = Instant::now();
    let tracer = Tracer::new(epoch);
    let mut generator = Generator::new(&server.addr, epoch);

    // Warm-up: users meet a warm server.
    let mut warm: Vec<Job> =
        mix(args.seed, 10, &[WARMUP_JOBS]).into_iter().map(|spec| Job::new(spec, 0.0)).collect();
    generator.fetch_csv = false;
    let deadline = generator.now() + 60.0;
    generator.drive(&mut warm, deadline);
    if let Some(job) = warm.iter().find(|j| j.done_seen.is_none()) {
        return Err(format!("warm-up job did not complete: {:?}", job.failed));
    }
    generator.fetch_csv = traced;
    generator.poll_s.clear();

    let (fixed_n, burst_n) = phase_counts(args.seconds);
    // One segment per burst, so each burst holds its exact DETR share.
    let mut segments = vec![fixed_n];
    segments.extend((0..ROUNDS).map(|r| (r + 1) * burst_n / ROUNDS - r * burst_n / ROUNDS));
    let specs = mix(args.seed, 11, &segments);
    let offsets = poisson_schedule(&mut Rng::new(args.seed, 12), RATE, fixed_n);
    let mut fixed: Vec<Job> = Vec::with_capacity(fixed_n);
    let mut burst: Vec<Job> = Vec::with_capacity(burst_n);
    let (router0, shards0) = server.cpu()?;
    let mut host_cpu_s = 0.0;
    let mut slowdowns = Vec::with_capacity(2 * ROUNDS);
    for round in 0..ROUNDS {
        // This round's share of the arrival schedule, from a fresh start.
        let before = generator.bracket();
        let cpu0 = server.cpu()?;
        let (first, end) = (round * fixed_n / ROUNDS, (round + 1) * fixed_n / ROUNDS);
        let start = generator.now() + 0.05 - if first == 0 { 0.0 } else { offsets[first - 1] };
        let mut jobs: Vec<Job> =
            (first..end).map(|k| Job::new(specs[k].clone(), start + offsets[k])).collect();
        let last_due = jobs.last().map_or(start, |j| j.due);
        generator.fixed_rate = true;
        generator.drive(&mut jobs, last_due + DRAIN_GRACE);
        generator.fixed_rate = false;
        mark_backlog(&mut jobs, last_due + DRAIN_GRACE);
        let cpu1 = server.cpu()?;
        let between = generator.bracket();
        let slowdown = generator.speed_between(before, between).slowdown();
        host_cpu_s += (cpu1.0 + cpu1.1 - cpu0.0 - cpu0.1) / slowdown;
        slowdowns.push(slowdown);
        fixed.extend(jobs.into_iter().map(|job| {
            let done = job.done_seen.unwrap_or(between);
            let around = generator.speed_between(job.due - JOB_WINDOW, done + JOB_WINDOW);
            let slowdown =
                if around.samples().len() >= JOB_SAMPLES { around.slowdown() } else { slowdown };
            Job { slowdown, ..job }
        }));

        let at = generator.now();
        let range = fixed_n + round * burst_n / ROUNDS..fixed_n + (round + 1) * burst_n / ROUNDS;
        let mut jobs: Vec<Job> = range.map(|k| Job::new(specs[k].clone(), at)).collect();
        generator.drive(&mut jobs, at + 120.0);
        for job in jobs.iter_mut().filter(|j| j.outstanding()) {
            job.failed = Some("burst job still outstanding after 120 s".into());
        }
        let cpu2 = server.cpu()?;
        let after = generator.bracket();
        let slowdown = generator.speed_between(between, after).slowdown();
        host_cpu_s += (cpu2.0 + cpu2.1 - cpu1.0 - cpu1.1) / slowdown;
        slowdowns.push(slowdown);
        burst.extend(jobs.into_iter().map(|job| Job { slowdown, ..job }));
        // Set-up samples from every stretch of the run, while the server
        // under test idles.
        set_ups(&args.serve_cli, dir, round + 1, &mut setups, &mut speed)?.stop();
    }
    let (router1, shards1) = server.cpu()?;
    let peak_rss_mb = server.peak_rss_mb()?;
    let poll_s = std::mem::take(&mut generator.poll_s);
    for &(_, ms) in &generator.yard {
        speed.push(ms);
    }
    drop(generator);
    let keepalive_poll_s =
        keepalive_poll_s(&server.addr, fixed.iter().find_map(|j| j.id.as_deref()))?;

    check_outputs(args, &server.addr, fixed.iter().chain(&burst), outcome, dir)?;
    server.stop();

    let spans = if traced { job_spans(&tracer, fixed.iter().chain(&burst)) } else { Vec::new() };
    println!("setup_s samples (s, at the reference host's speed): {setups:?}");
    println!("phase slowdowns (fixed, burst per round): {slowdowns:.3?}");
    Ok(Pass {
        setup_s: median(&setups),
        fixed,
        burst,
        cpu_router_s: router1 - router0,
        cpu_shards_s: shards1 - shards0,
        host_cpu_s,
        speed,
        peak_rss_mb,
        poll_s,
        keepalive_poll_s,
        spans,
    })
}

/// Status polls of one job over a single keep-alive connection through
/// the router, after the timed phases: the median round trip, in seconds.
fn keepalive_poll_s(addr: &str, id: Option<&str>) -> Result<f64, String> {
    let id = id.ok_or("no accepted job to poll")?;
    let mut conn = HttpConnection::connect_to(addr, ClientTimeouts::default())
        .map_err(|e| format!("keep-alive connect: {e}"))?;
    let mut times = Vec::with_capacity(KEEPALIVE_POLLS);
    for _ in 0..KEEPALIVE_POLLS {
        let start = Instant::now();
        conn.request("GET", &format!("/v1/attacks/{id}"), None)
            .map_err(|e| format!("keep-alive poll: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Spans of each job as the client saw it (trace id = job number).
fn job_spans<'a>(tracer: &Tracer, jobs: impl Iterator<Item = &'a Job>) -> Vec<trace::Span> {
    for job in jobs {
        let (Some(id), Some(sent), Some(accepted)) = (&job.id, job.sent, job.accepted) else {
            continue;
        };
        let trace = id.trim_start_matches("job-").parse().unwrap_or(0);
        let done = job.done_seen.unwrap_or(accepted);
        let root = tracer.reserve();
        tracer.push(root, trace, "submit", sent, accepted, 1);
        tracer.push(root, trace, "queued", accepted, job.running_seen.unwrap_or(done), 0);
        if let Some(running) = job.running_seen {
            tracer.push(root, trace, "running", running, done, 0);
        }
        if let Some(csv) = job.csv_done {
            tracer.push(root, trace, "csv", done, csv, 0);
        }
        let end = job.csv_done.unwrap_or(done);
        tracer.record(trace::Span {
            id: root,
            parent: 0,
            trace,
            name: "job",
            start: job.due,
            end,
            items: 0,
        });
    }
    tracer.spans()
}

/// Output checks, outside the timed phases: every completed job streams
/// `GENERATIONS + 1` generation records (POPULATION evaluations each),
/// and a seeded sample of served CSVs equals the cell file a direct
/// uncached campaign of the same job writes.
fn check_outputs<'a>(
    args: &Args,
    addr: &str,
    jobs: impl Iterator<Item = &'a Job>,
    outcome: &mut Outcome,
    dir: &Path,
) -> Result<(), String> {
    let client = Client::new(addr);
    let mut done: Vec<&Job> = Vec::new();
    for job in jobs {
        outcome.attempted += 1;
        match (&job.failed, &job.id) {
            (Some(reason), _) => outcome.fail(reason.clone()),
            (None, Some(id)) => {
                let mut generations = 0;
                let status = client
                    .progress(id, |line| {
                        generations += usize::from(line.contains("\"type\":\"generation\""))
                    })
                    .map_err(|e| format!("progress {id}: {e}"))?;
                if status != 200 || generations != GENERATIONS + 1 {
                    outcome.fail(format!(
                        "{id} reported {generations} generations of {POPULATION} (HTTP {status}), \
                         expected {}",
                        GENERATIONS + 1
                    ));
                }
                done.push(job);
            }
            (None, None) => outcome.fail("job never submitted".into()),
        }
    }
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let mut rng = Rng::new(args.seed, 13);
    for (k, pick) in rng.distinct(done.len(), CHECKED_JOBS.min(done.len())).into_iter().enumerate()
    {
        let job = done[pick];
        let id = job.id.as_deref().expect("done jobs have ids");
        let served = client.csv(id).map_err(|e| format!("csv {id}: {e}"))?;
        let store =
            CampaignStore::open(dir.join(format!("check-{k}"))).map_err(|e| e.to_string())?;
        let spec = job.spec.cell_spec();
        let image = job.spec.materialize_image(&dataset)?;
        Campaign::new(CampaignConfig {
            attack: job.spec.attack_config(),
            base_seed: job.spec.base_seed,
            jobs: 1,
            telemetry: false,
        })
        .run_with_store(
            std::slice::from_ref(&spec),
            |s| zoo.model(job.spec.arch, s.model_seed),
            |_| image.clone(),
            &store,
        )
        .map_err(|e| format!("direct run of {id}: {e}"))?;
        let direct = std::fs::read(store.cell_path(&spec)).map_err(|e| e.to_string())?;
        if served.status != 200 || served.body != direct {
            outcome.fail(format!("{id}: served CSV differs from a direct uncached run"));
        }
    }
    Ok(())
}

/// Completions per second with both shards backlogged: for each shard,
/// its burst jobs over the summed time from each burst's start until its
/// last job of that burst was seen done (each burst's time at the
/// reference host's speed), summed over shards — capacity independent of
/// how evenly the hash spread the bursts (`router.max_shard_share`
/// reports that spread).
fn burst_capacity(burst: &[Job]) -> f64 {
    (0..SHARDS)
        .map(|shard| {
            // (burst start, last done, slowdown) per burst this shard served.
            let mut bursts: Vec<(f64, f64, f64)> = Vec::new();
            let mut done = 0usize;
            for job in burst.iter().filter(|j| j.shard == shard && j.failed.is_none()) {
                let Some(seen) = job.done_seen else { continue };
                done += 1;
                match bursts.iter_mut().find(|(start, _, _)| *start == job.due) {
                    Some((_, last, _)) => *last = last.max(seen),
                    None => bursts.push((job.due, seen, job.slowdown)),
                }
            }
            let busy: f64 =
                bursts.iter().map(|(start, last, slowdown)| (last - start) / slowdown).sum();
            if done == 0 {
                0.0
            } else {
                done as f64 / busy
            }
        })
        .sum()
}

/// The end-to-end metrics; every time at the reference host's speed.
fn end_to_end(pass: &Pass) -> Metrics {
    let latencies: Vec<f64> = pass.fixed.iter().map(Job::host_latency).collect();
    let completed =
        pass.fixed.iter().chain(&pass.burst).filter(|j| j.failed.is_none()).count() as f64;
    let evals_per_job = (POPULATION * (GENERATIONS + 1)) as f64;
    let jobs_per_s = burst_capacity(&pass.burst);
    let cpu_ms_per_job = pass.host_cpu_s * 1e3 / completed.max(1.0);
    Metrics::from([
        ("setup_s", pass.setup_s),
        ("evals_per_s", jobs_per_s * evals_per_job),
        ("cpu_ms_per_eval", cpu_ms_per_job / evals_per_job),
        ("done_p50_s", percentile(&latencies, 50.0)),
        ("done_p90_s", percentile(&latencies, 90.0)),
        ("jobs_per_s", jobs_per_s),
        ("cpu_ms_per_job", cpu_ms_per_job),
        ("peak_rss_mb", pass.peak_rss_mb),
    ])
}

fn per_layer(pass: &Pass) -> Metrics {
    let all: Vec<&Job> = pass.fixed.iter().chain(&pass.burst).collect();
    let specs: Vec<AttackJob> = all.iter().map(|j| j.spec.clone()).collect();
    let completed = all.iter().filter(|j| j.failed.is_none()).count().max(1) as f64;
    let submit_ms: Vec<f64> =
        pass.fixed.iter().filter(|j| j.accepted.is_some()).map(|j| j.submit_s * 1e3).collect();
    let refused = all
        .iter()
        .filter(|j| j.failed.as_deref().is_some_and(|f| f.starts_with("refused")))
        .count();
    let accepted: Vec<&&Job> = all.iter().filter(|j| j.id.is_some()).collect();
    let max_shard =
        (0..SHARDS).map(|s| accepted.iter().filter(|j| j.shard == s).count()).max().unwrap_or(0);
    // Queue wait ends at the first poll that sees the job running (or
    // already done); run time spans the polls that saw running → done.
    let fixed_done: Vec<&Job> =
        pass.fixed.iter().filter(|j| j.done_seen.is_some() && j.failed.is_none()).collect();
    let waits: Vec<f64> = fixed_done
        .iter()
        .map(|j| {
            j.running_seen.or(j.done_seen).unwrap_or_default() - j.accepted.unwrap_or_default()
        })
        .collect();
    let runs: Vec<f64> =
        fixed_done.iter().filter_map(|j| Some(j.done_seen? - j.running_seen?)).collect();
    let late_ms: Vec<f64> =
        pass.fixed.iter().filter_map(|j| Some(lateness(j.due, j.sent?) * 1e3)).collect();
    let detr = specs.iter().filter(|j| j.arch == Architecture::Detr).count();
    Metrics::from([
        ("zoo.build_ms", model_build_ms(&specs)),
        ("admit.submit_p50_ms", percentile(&submit_ms, 50.0)),
        ("admit.submit_p90_ms", percentile(&submit_ms, 90.0)),
        ("admit.refused", refused as f64),
        ("router.poll_p50_ms", median(&pass.poll_s) * 1e3),
        ("router.keepalive_poll_ms", pass.keepalive_poll_s * 1e3),
        ("router.cpu_ms_per_job", pass.cpu_router_s * 1e3 / completed),
        ("router.max_shard_share", max_shard as f64 / accepted.len().max(1) as f64),
        ("queue.wait_p50_s", percentile(&waits, 50.0)),
        ("queue.wait_p90_s", percentile(&waits, 90.0)),
        ("worker.run_p50_s", percentile(&runs, 50.0)),
        ("worker.run_p90_s", percentile(&runs, 90.0)),
        ("shard.cpu_ms_per_job", pass.cpu_shards_s * 1e3 / completed),
        ("traffic.jobs", all.len() as f64),
        ("traffic.dup_share", dup_share(&specs)),
        ("traffic.detr_share", detr as f64 / specs.len().max(1) as f64),
        (
            "traffic.cached_share",
            specs.iter().filter(|j| j.use_cache).count() as f64 / specs.len().max(1) as f64,
        ),
        ("gen.late_p90_ms", percentile(&late_ms, 90.0)),
        ("host.yard_ms", pass.speed.mean_ms()),
    ])
}

/// Median time to build one served job's model, as every shard does per
/// job: `ModelZoo::model` for each (arch, model seed) of the mix.
fn model_build_ms(specs: &[AttackJob]) -> f64 {
    let zoo = ModelZoo::with_defaults();
    let mut models: Vec<(Architecture, u64)> =
        specs.iter().map(|j| (j.arch, j.model_seed)).collect();
    models.sort_by_key(|(a, s)| (a.name(), *s));
    models.dedup();
    let times: Vec<f64> = models
        .iter()
        .map(|&(arch, seed)| {
            let start = Instant::now();
            std::hint::black_box(zoo.model(arch, seed));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.serve_cli.is_file() {
        return Err(format!("{} not found (build serve_cli first)", args.serve_cli.display()));
    }
    let mut outcome = Outcome::default();
    let plain = run_pass(args, &args.work.join("untraced"), false, &mut outcome)?;
    let untraced = end_to_end(&plain);
    let as_measured: Vec<Job> =
        plain.burst.iter().map(|j| Job { slowdown: 1.0, ..j.clone() }).collect();
    let latencies: Vec<f64> = plain.fixed.iter().map(Job::latency).collect();
    println!(
        "as measured: jobs_per_s {:.3}, done_p50_s {:.4}, done_p90_s {:.4}",
        burst_capacity(&as_measured),
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0)
    );
    if args.trace {
        let traced = run_pass(args, &args.work.join("traced"), true, &mut outcome)?;
        outcome.metrics = per_layer(&traced);
        // Traced over untraced cost: median due-to-done latency.
        let overhead = end_to_end(&traced)["done_p50_s"] / untraced["done_p50_s"];
        outcome.metrics.insert("trace.overhead", overhead);
        trace::save(&traced.spans, &args.traces, &format!("{}-seed{}", args.workload, args.seed))?;
    } else {
        outcome.metrics = untraced;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MODEL_SEEDS;

    #[test]
    fn same_seed_same_mix_and_schedule() {
        let a = mix(9, 11, &[100, 30]);
        assert_eq!(a, mix(9, 11, &[100, 30]));
        assert_ne!(a, mix(10, 11, &[100, 30]));
        let s = poisson_schedule(&mut Rng::new(9, 12), RATE, 100);
        assert_eq!(s, poisson_schedule(&mut Rng::new(9, 12), RATE, 100));
    }

    #[test]
    fn every_seed_finds_a_fresh_cell_for_every_fresh_job() {
        let (fixed, burst) = phase_counts(60.0);
        for seed in 0..300 {
            assert_eq!(mix(seed, 11, &[fixed, burst]).len(), fixed + burst);
        }
    }

    #[test]
    fn mix_has_the_stated_traffic_properties() {
        let jobs = mix(4, 11, &[100, 30]);
        assert_eq!(jobs.len(), 130);
        // Exactly one DETR job in DETR_EVERY within each segment.
        let detr =
            |jobs: &[AttackJob]| jobs.iter().filter(|j| j.arch == Architecture::Detr).count();
        assert_eq!(detr(&jobs[..100]), 100 / DETR_EVERY);
        assert_eq!(detr(&jobs[100..]), 30 / DETR_EVERY);
        // About one submission in five repeats an earlier job.
        let dup = dup_share(&jobs);
        assert!((0.15..=0.21).contains(&dup), "dup share {dup}");
        // Fresh jobs never share a cell with a different config.
        let mut configs = std::collections::HashMap::new();
        for job in &jobs {
            let body = AttackJob { tenant: String::new(), ..job.clone() }.to_json();
            assert_eq!(configs.entry(job.cell_spec()).or_insert_with(|| body.clone()), &body);
        }
        assert!(jobs.iter().all(|j| !j.use_cache
            && j.population * (j.generations + 1) == POPULATION * (GENERATIONS + 1)));
        assert!(TENANTS.iter().all(|t| jobs.iter().any(|j| &j.tenant == t)));
        // Each segment loads both shards alike, per architecture.
        for (segment, range) in [(0, 0..100), (1, 100..130)] {
            for arch in [Architecture::Yolo, Architecture::Detr] {
                let on = |shard: usize| {
                    jobs[range.clone()]
                        .iter()
                        .filter(|j| {
                            j.arch == arch && shard_for_cell(&j.cell_spec(), SHARDS) == shard
                        })
                        .count()
                };
                assert!(
                    on(0).abs_diff(on(1)) <= 1,
                    "segment {segment} {arch:?}: {} vs {}",
                    on(0),
                    on(1)
                );
            }
        }
        // Fresh jobs spread over the model seeds: 26 DETR jobs span at
        // least 20 DETR models, and models still repeat across jobs.
        let detr_models: HashSet<u64> =
            jobs.iter().filter(|j| j.arch == Architecture::Detr).map(|j| j.model_seed).collect();
        assert!((20..=25).contains(&detr_models.len()), "{} DETR models", detr_models.len());
        let yolo_models: HashSet<u64> =
            jobs.iter().filter(|j| j.arch == Architecture::Yolo).map(|j| j.model_seed).collect();
        assert_eq!(yolo_models.len(), MODEL_SEEDS as usize);
    }

    #[test]
    fn capacity_sums_per_shard_drain_rates() {
        let job = |shard: usize, done: f64| Job {
            shard,
            done_seen: Some(done),
            ..Job::new(AttackJob::default(), 0.0)
        };
        // Burst at t=0 — shard 0: 4 jobs by t=2 (2/s); shard 1: 2 jobs by
        // t=1 (2/s).
        let burst =
            vec![job(0, 0.5), job(0, 1.0), job(0, 1.5), job(0, 2.0), job(1, 0.5), job(1, 1.0)];
        assert!((burst_capacity(&burst) - 4.0).abs() < 1e-12);
        let mut failed = burst.clone();
        failed[3].failed = Some("refused".into());
        assert!((burst_capacity(&failed) - (3.0 / 1.5 + 2.0)).abs() < 1e-12);
        // A second burst at t=10: shard 0 takes 3 s for 2 more jobs; the
        // idle time between bursts does not count.
        let mut rounds = burst.clone();
        for done in [11.0, 13.0] {
            rounds.push(Job { due: 10.0, ..job(0, done) });
        }
        assert!((burst_capacity(&rounds) - (6.0 / 5.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn refused_jobs_miss_every_latency_limit() {
        let mut refused = Job::new(AttackJob::default(), 1.0);
        refused.failed = Some("refused: HTTP 429".into());
        refused.done_seen = Some(2.0);
        assert!(refused.latency().is_infinite());
        let mut done = Job::new(AttackJob::default(), 1.0);
        done.done_seen = Some(1.5);
        assert_eq!(done.latency(), 0.5);
    }

    #[test]
    fn response_fields_and_shard_pids_parse() {
        let body = "{\"id\":\"job-7\",\"status\":\"queued\",\"result\":\"/v1/attacks/job-7\"}";
        assert_eq!(field(body, "id").as_deref(), Some("job-7"));
        assert_eq!(field(body, "status").as_deref(), Some("queued"));
        assert_eq!(field(body, "csv"), None);
        let shard = |k: u64, status: &str, pid: u64| {
            format!("{{\"shard\":{k},\"status\":\"{status}\",\"pid\":{pid},\"addr\":\"x\"}}")
        };
        let health = |status: &str, second: &str| {
            format!(
                "{{\"status\":\"{status}\",\"shards\":2,\"shard_status\":[{},{second}]}}",
                shard(0, "ok", 41)
            )
        };
        assert_eq!(
            healthy_shard_pids(&health("ok", &shard(1, "ok", 42))),
            Some(vec!["41".to_string(), "42".to_string()])
        );
        assert_eq!(healthy_shard_pids(&health("degraded", &shard(1, "down", 42))), None);
        // A shard not yet respawned has no pid.
        assert_eq!(healthy_shard_pids(&health("ok", "{\"shard\":1,\"status\":\"ok\"}")), None);
    }

    /// Jobs served first-come first-served at `service` seconds each,
    /// as a one-worker shard would, seen done the moment they finish.
    fn served(schedule: &[f64], service: f64) -> Vec<Job> {
        let mut free = 0.0f64;
        schedule
            .iter()
            .enumerate()
            .map(|(k, &due)| {
                free = free.max(due) + service;
                Job {
                    id: Some(format!("job-{}", k + 1)),
                    done_seen: Some(free),
                    ..Job::new(AttackJob::default(), due)
                }
            })
            .collect()
    }

    #[test]
    fn a_schedule_faster_than_the_drain_rate_fails() {
        let schedule = poisson_schedule(&mut Rng::new(1, 12), RATE, 44);
        let deadline = schedule[43] + DRAIN_GRACE;
        // Draining at four times the offered rate: back to none in time.
        let mut keeping_up = served(&schedule, 0.25 / RATE);
        mark_backlog(&mut keeping_up, deadline);
        assert!(keeping_up.iter().all(|j| j.failed.is_none()));
        // Draining at 80 % of the offered rate: the queue grows all
        // through the round and the late jobs fail.
        let mut falling_behind = served(&schedule, 1.25 / RATE);
        mark_backlog(&mut falling_behind, deadline);
        let failed = falling_behind.iter().filter(|j| j.failed.is_some()).count();
        assert!(failed > 0, "backlog went unnoticed");
        assert!(falling_behind[..10].iter().all(|j| j.failed.is_none()));
        // A job never seen done is outstanding too; refused jobs keep
        // their own reason.
        let mut unseen = served(&schedule[..2], 0.01);
        unseen[0].done_seen = None;
        unseen[1].failed = Some("refused: HTTP 429".into());
        mark_backlog(&mut unseen, deadline);
        assert!(unseen[0].failed.as_deref().is_some_and(|f| f.starts_with("backlog")));
        assert_eq!(unseen[1].failed.as_deref(), Some("refused: HTTP 429"));
    }

    #[test]
    fn a_sweep_polls_only_the_oldest_jobs_of_each_lane() {
        // A burst of 40 accepted jobs over two shards and two tenants.
        let jobs: Vec<Job> = (0..40)
            .map(|k| Job {
                id: Some(format!("job-{}", k + 1)),
                shard: k % SHARDS,
                ..Job::new(
                    AttackJob { tenant: TENANTS[k / 2 % 2].to_string(), ..AttackJob::default() },
                    0.0,
                )
            })
            .collect();
        let sweep = poll_sweep(&jobs);
        assert_eq!(sweep.len(), SHARDS * TENANTS.len() * POLLS_PER_LANE);
        assert_eq!(sweep, (0..sweep.len()).collect::<Vec<_>>(), "oldest first");
        // Once the oldest are done, the next in each lane are polled.
        let mut later = jobs.clone();
        for job in &mut later[..4] {
            job.done_seen = Some(1.0);
        }
        assert_eq!(poll_sweep(&later), (4..12).collect::<Vec<_>>());
        // A light load polls every outstanding job.
        assert_eq!(poll_sweep(&jobs[..5]), (0..5).collect::<Vec<_>>());
    }
}
