//! `campaign-cached`: the grid's attack cells through
//! `Campaign::run_with_store` with the dirty-region cache, timed as
//! `campaign_cli --cache` users pay for them: closed batches, each on a
//! fresh store with no warm-up, every core a cell worker with one kernel
//! thread. Every time is reported at the reference host's speed: a
//! yardstick sample at each cell start measures the host's drift, and
//! each batch's times are divided by its time-weighted mean slowdown.

use crate::detector::{is_population_call, TracedDetector};
use crate::host::{self, HostSpeed};
use crate::report::{Metrics, Outcome};
use crate::stats::{dealt_cells, median, percentile, Rng};
use crate::trace::{self, Tracer};
use crate::Args;
use bea_core::attack::AttackConfig;
use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore, CellResult, CellSpec};
use bea_core::grid::resolve_jobs;
use bea_detect::{Architecture, CacheStats, Detector, ModelZoo};
use bea_image::Image;
use bea_scene::SyntheticKitti;
use std::io::BufRead;
use std::ops::Range;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// GA budget per cell: the paper's operators at a scaled-down
/// population and generation count (Table II runs 101 × 100).
const POPULATION: usize = 12;
const GENERATIONS: usize = 9;
/// Seconds one cached cell keeps a worker busy, averaged over YOLO and
/// DETR, measured with two workers on the 2-vCPU reference host. Sizes
/// the grid to the run length; a constant, never measured per run.
const CELL_SECONDS: f64 = 0.7;
/// The grid runs as this many closed batches in a row, each as a
/// `campaign_cli` invocation of its own (fresh set-up, fresh store), so
/// set-up samples and completion times come from the whole run rather
/// than its two ends: this host's speed changes by up to 2× within a run.
const ROUNDS: usize = 5;
/// Enough cells per worker in every batch that its tail stays small.
const MIN_CELLS_PER_WORKER: usize = 10;
/// Set-ups timed at each of the `ROUNDS + 1` gaps — before, between and
/// after the batches. The median of all of them is reported.
const SETUPS_PER_GAP: usize = 4;
/// Yardstick samples per core before and after each gap's set-ups.
const GAP_SAMPLES: usize = 2;
/// Cells per run re-run directly (uncached, one worker) and compared
/// byte for byte with the grid's cell files.
const CHECKED_CELLS: usize = 2;

/// The run's cells, YOLO and DETR alternating (so the completion
/// percentiles do not sit on the boundary between an all-YOLO and an
/// all-DETR stretch): distinct (model seed, image) pairs over the 25
/// model seeds and the 16-image evaluation set (Table I's grid), dealt
/// evenly over the model seeds ([`dealt_cells`]) in an order drawn by
/// the seed.
pub fn grid(seed: u64, seconds: f64, workers: usize) -> Vec<CellSpec> {
    let cells = ((seconds * workers as f64 / CELL_SECONDS).round() as usize)
        .max(MIN_CELLS_PER_WORKER * workers * ROUNDS);
    let images = SyntheticKitti::evaluation_set().len();
    let mut rng = Rng::new(seed, 1);
    let yolo = dealt_cells(&mut rng, images);
    let detr = dealt_cells(&mut rng, images);
    (0..cells)
        .map(|i| {
            let (arch, (model_seed, image)) = if i % 2 == 0 {
                (Architecture::Yolo, yolo[i / 2])
            } else {
                (Architecture::Detr, detr[i / 2])
            };
            CellSpec::new(arch.name(), model_seed, image)
        })
        .collect()
}

/// The cells of batch `round` of a grid of `cells`.
fn batch(round: usize, cells: usize) -> Range<usize> {
    round * cells / ROUNDS..(round + 1) * cells / ROUNDS
}

fn base_seed(seed: u64) -> u64 {
    Rng::new(seed, 2).next_u64() >> 16
}

fn arch_of(spec: &CellSpec) -> Architecture {
    if spec.group == Architecture::Detr.name() {
        Architecture::Detr
    } else {
        Architecture::Yolo
    }
}

fn campaign(base_seed: u64, use_cache: bool, jobs: usize) -> Campaign {
    Campaign::new(CampaignConfig {
        attack: AttackConfig {
            use_cache,
            threads: 1,
            ..AttackConfig::scaled(POPULATION, GENERATIONS)
        },
        base_seed,
        jobs,
        telemetry: false,
    })
}

/// One closed batch as timed.
struct Batch {
    /// Seconds since the pass epoch.
    start: f64,
    end: f64,
    /// Process CPU over the batch, the yardstick samples' own excluded.
    cpu_s: f64,
    /// The host's mean slowdown over the batch ([`batch_slowdown`]).
    slowdown: f64,
}

/// When a worker started a cell, and the yardstick sample it took then.
struct CellStart {
    thread: ThreadId,
    at: f64,
    yard_ms: f64,
}

/// The host's mean slowdown over a batch that ended at `end`, weighted by
/// time: along each worker's timeline, the stretch between two of its
/// samples counts at their mean, the stretch after its last sample at
/// that sample. `starts` is in time order.
fn batch_slowdown(starts: &[CellStart], end: f64) -> f64 {
    let mut threads: Vec<ThreadId> = Vec::new();
    for start in starts {
        if !threads.contains(&start.thread) {
            threads.push(start.thread);
        }
    }
    let (mut weighted, mut time) = (0.0, 0.0);
    for thread in threads {
        let mine: Vec<&CellStart> = starts.iter().filter(|s| s.thread == thread).collect();
        for (k, start) in mine.iter().enumerate() {
            let (until, ms) = match mine.get(k + 1) {
                Some(next) => (next.at, (start.yard_ms + next.yard_ms) / 2.0),
                None => (end, start.yard_ms),
            };
            weighted += (until - start.at) * ms;
            time += until - start.at;
        }
    }
    if time > 0.0 {
        weighted / time / host::YARD_MS
    } else {
        1.0
    }
}

/// What one pass over the grid measured.
struct Pass {
    /// Set-up time at the reference host's speed (median).
    setup_s: f64,
    batches: Vec<Batch>,
    peak_rss_mb: f64,
    /// Completion time of each cell after its batch started, at the
    /// reference host's speed.
    done_s: Vec<f64>,
    /// Every cell's result, in grid order.
    cells: Vec<CellResult>,
    /// Each batch's store.
    stores: Vec<CampaignStore>,
    arena_misses: u64,
    /// Every yardstick sample of the pass.
    speed: HostSpeed,
    /// Present on the traced pass.
    spans: Option<Vec<trace::Span>>,
}

impl Pass {
    /// Summed batch wall time as measured.
    fn wall_s(&self) -> f64 {
        self.batches.iter().map(|b| b.end - b.start).sum()
    }

    /// Summed batch wall time at the reference host's speed.
    fn host_wall_s(&self) -> f64 {
        self.batches.iter().map(|b| (b.end - b.start) / b.slowdown).sum()
    }

    /// Summed batch CPU time at the reference host's speed.
    fn host_cpu_s(&self) -> f64 {
        self.batches.iter().map(|b| b.cpu_s / b.slowdown).sum()
    }
}

/// One set-up: zoo, the evaluation set's images rendered, a fresh store
/// at `out` (a never-used `--out`). campaign_cli renders each cell's
/// image inside the grid instead; rendering the sixteen up front keeps a
/// deterministic CPU-bound unit in set-up rather than only a few
/// directory operations, and moves ~0.1 ms per cell out of the grid.
fn set_up(out: &Path) -> Result<SetUp, String> {
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let images: Vec<Image> = (0..dataset.len()).map(|i| dataset.image(i)).collect();
    let store = CampaignStore::open(out).map_err(|e| format!("open store: {e}"))?;
    Ok(SetUp { zoo, images, store })
}

/// What a batch needs from set-up.
struct SetUp {
    zoo: ModelZoo,
    /// Rendered images by dataset index.
    images: Vec<Image>,
    store: CampaignStore,
}

/// The line a set-up child prints once it is ready.
const READY: &str = "ready";

/// The `--set-up <out>` child: one [`set_up`], then [`READY`] on stdout.
pub fn set_up_child(out: &Path) -> ExitCode {
    match set_up(out) {
        Ok(_) => {
            println!("{READY}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench --set-up: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One set-up as a `campaign_cli` user pays it, from process launch: a
/// fresh copy of this binary runs [`set_up_child`] at `out`; the time
/// runs from its spawn to its ready line.
fn timed_set_up(out: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg("--set-up")
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a set-up: {e}"))?;
    let mut line = String::new();
    let read =
        std::io::BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let secs = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up child: {e}"))?;
    match read {
        Ok(_) if line.trim_end() == READY && status.success() => Ok(secs),
        _ => Err(format!("set-up at {} failed ({status})", out.display())),
    }
}

/// `SETUPS_PER_GAP` timed set-ups under `dir`, bracketed by yardstick
/// samples on every core; their times at the reference host's speed are
/// appended to `setups`, the samples to `speed`.
fn set_ups(
    dir: &Path,
    gap: usize,
    workers: usize,
    setups: &mut Vec<f64>,
    speed: &mut HostSpeed,
) -> Result<(), String> {
    let mut here = HostSpeed::default();
    here.sample(workers, GAP_SAMPLES);
    let times = (0..SETUPS_PER_GAP)
        .map(|k| timed_set_up(&dir.join(format!("setup-{gap}-{k}"))))
        .collect::<Result<Vec<f64>, String>>()?;
    here.sample(workers, GAP_SAMPLES);
    setups.extend(times.iter().map(|t| t / here.slowdown()));
    speed.merge(&here);
    Ok(())
}

fn run_pass(
    specs: &[CellSpec],
    base_seed: u64,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<Pass, String> {
    let workers = resolve_jobs(0);
    let campaign = campaign(base_seed, true, workers);
    let clock = tracer.clone().unwrap_or_else(|| Arc::new(Tracer::new(Instant::now())));
    let arena_before = bea_tensor::scratch::stats();
    let mut setups = Vec::with_capacity(SETUPS_PER_GAP * (ROUNDS + 1));
    let mut pass = Pass {
        setup_s: 0.0,
        batches: Vec::with_capacity(ROUNDS),
        peak_rss_mb: 0.0,
        done_s: Vec::with_capacity(specs.len()),
        cells: Vec::with_capacity(specs.len()),
        stores: Vec::with_capacity(ROUNDS),
        arena_misses: 0,
        speed: HostSpeed::default(),
        spans: None,
    };
    for round in 0..ROUNDS {
        set_ups(dir, round, workers, &mut setups, &mut pass.speed)?;
        let SetUp { zoo, images, store } = set_up(&dir.join(format!("grid-{round}")))?;
        let cells = &specs[batch(round, specs.len())];
        let starts: Mutex<Vec<CellStart>> = Mutex::new(Vec::new());
        let detector_for = |spec: &CellSpec| -> Box<dyn Detector> {
            let at = clock.now();
            // The host's speed, sampled on this core while the others
            // run cells.
            let yard_ms = host::yardstick_ms();
            let thread = std::thread::current().id();
            starts.lock().expect("start log").push(CellStart { thread, at, yard_ms });
            let start = clock.now();
            let model = zoo.cached_model(arch_of(spec), spec.model_seed);
            match &tracer {
                None => model,
                Some(tracer) => {
                    let cell = tracer.reserve();
                    let trace_id =
                        specs.iter().position(|s| s == spec).unwrap_or(usize::MAX) as u64;
                    tracer.push(cell, trace_id, "zoo.build", start, tracer.now(), 1);
                    Box::new(TracedDetector::new(model, Arc::clone(tracer), trace_id, cell, start))
                }
            }
        };
        let image_for = |spec: &CellSpec| images[spec.image_index].clone();

        let cpu_before = host::cpu_seconds("self")?;
        let start = clock.now();
        let result = campaign
            .run_with_store(cells, detector_for, image_for, &store)
            .map_err(|e| format!("campaign failed: {e}"))?;
        let end = clock.now();
        let mut starts = starts.into_inner().expect("start log");
        starts.sort_by(|a, b| a.at.total_cmp(&b.at));
        let mut speed = HostSpeed::default();
        for start in &starts {
            speed.push(start.yard_ms);
        }
        let cpu_s = host::cpu_seconds("self")? - cpu_before - speed.total_ms() / 1e3;
        let slowdown = batch_slowdown(&starts, end);
        pass.speed.merge(&speed);
        // A worker finishes a cell when it asks for the next cell's
        // detector; its last cell ends when the batch returns.
        pass.done_s.extend((0..starts.len()).map(|i| {
            let next = starts[i + 1..].iter().find(|s| s.thread == starts[i].thread);
            (next.map_or(end, |s| s.at) - start) / slowdown
        }));
        pass.batches.push(Batch { start, end, cpu_s, slowdown });
        pass.cells.extend(result.cells);
        pass.stores.push(store);
    }
    pass.peak_rss_mb = host::peak_rss_mb("self")?;
    pass.arena_misses = bea_tensor::scratch::stats().misses - arena_before.misses;
    set_ups(dir, ROUNDS, workers, &mut setups, &mut pass.speed)?;
    println!("setup_s samples (s, at the reference host's speed): {setups:?}");
    let slowdowns: Vec<f64> = pass.batches.iter().map(|b| b.slowdown).collect();
    println!("batch slowdowns: {slowdowns:.3?}");
    pass.setup_s = median(&setups);
    pass.spans = tracer.as_ref().map(|t| t.spans());
    Ok(pass)
}

/// Re-runs `spec` directly — uncached, one worker, fresh store — and
/// compares the cell file it writes with the grid's.
fn check_cell(
    spec: &CellSpec,
    base_seed: u64,
    grid: &CampaignStore,
    dir: &Path,
) -> Result<(), String> {
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let store = CampaignStore::open(dir).map_err(|e| format!("open check store: {e}"))?;
    campaign(base_seed, false, 1)
        .run_with_store(
            std::slice::from_ref(spec),
            |s| zoo.model(arch_of(s), s.model_seed),
            |s| dataset.image(s.image_index),
            &store,
        )
        .map_err(|e| format!("direct run failed: {e}"))?;
    let want = std::fs::read(store.cell_path(spec)).map_err(|e| format!("direct cell: {e}"))?;
    let got = std::fs::read(grid.cell_path(spec)).map_err(|e| format!("grid cell: {e}"))?;
    if want == got {
        Ok(())
    } else {
        Err(format!("cell {spec:?} differs from a direct uncached run"))
    }
}

/// The end-to-end metrics; every time at the reference host's speed.
fn end_to_end(pass: &Pass, evals: f64) -> Metrics {
    let cells = pass.cells.len() as f64;
    let wall_s = pass.host_wall_s();
    let cpu_s = pass.host_cpu_s();
    Metrics::from([
        ("setup_s", pass.setup_s),
        ("evals_per_s", evals / wall_s),
        ("cpu_ms_per_eval", cpu_s * 1e3 / evals),
        ("done_p50_s", percentile(&pass.done_s, 50.0)),
        ("done_p90_s", percentile(&pass.done_s, 90.0)),
        ("jobs_per_s", cells / wall_s),
        ("cpu_ms_per_job", cpu_s * 1e3 / cells),
        ("peak_rss_mb", pass.peak_rss_mb),
    ])
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn per_layer(pass: &Pass, spans: &[trace::Span], evals: f64, workers: usize) -> Metrics {
    let cells: Vec<_> = spans.iter().filter(|s| s.name == "cell").collect();
    let cell_time: f64 = cells.iter().map(|s| s.duration()).sum();
    let builds: Vec<f64> =
        spans.iter().filter(|s| s.name == "zoo.build").map(|s| s.duration()).collect();
    let calls: Vec<_> = spans.iter().filter(|s| s.name.starts_with("detect")).collect();
    let detect_time: f64 = calls.iter().map(|s| s.duration()).sum();
    let items: u64 = calls.iter().map(|s| s.items).sum();
    let population_time: f64 =
        calls.iter().filter(|s| is_population_call(s.name)).map(|s| s.duration()).sum();
    // Store write: each batch's return minus its last cell's end.
    let store_s: f64 = pass
        .batches
        .iter()
        .map(|b| {
            let last = cells
                .iter()
                .map(|s| s.end)
                .filter(|&e| (b.start..=b.end).contains(&e))
                .fold(b.start, f64::max);
            b.end - last
        })
        .sum();

    let mut cache = CacheStats::default();
    let (mut evaluate_ms, mut sort_ms, mut select_ms) = (0.0, 0.0, 0.0);
    for outcome in pass.cells.iter().filter_map(|c| c.outcome.as_ref()) {
        if let Some(stats) = outcome.cache_stats() {
            cache.merge(&stats);
        }
        for generation in outcome.history() {
            evaluate_ms += generation.evaluate_ms;
            sort_ms += generation.sort_ms;
            select_ms += generation.select_ms;
        }
    }
    let masked = (cache.incremental + cache.fallbacks) as f64;
    let detr = pass.cells.iter().filter(|c| arch_of(&c.spec) == Architecture::Detr).count();
    Metrics::from([
        ("grid.cells", cells.len() as f64),
        ("grid.worker_idle_share", 1.0 - share(cell_time, workers as f64 * pass.wall_s())),
        ("zoo.build_ms", share(builds.iter().sum::<f64>() * 1e3, builds.len() as f64)),
        ("detect.calls", calls.len() as f64),
        ("detect.items_per_call", share(items as f64, calls.len() as f64)),
        ("detect.us_per_item", share(detect_time * 1e6, items as f64)),
        ("detect.share", share(detect_time, cell_time)),
        ("cache.incremental_share", share(cache.incremental as f64, masked)),
        ("cache.clean_hit_share", share(cache.hits as f64, cache.lookups() as f64)),
        ("cache.cells_per_eval", share(cache.pixels_recomputed as f64, masked)),
        (
            "cache.global_full_share",
            share(cache.global_stage_full as f64, cache.incremental as f64),
        ),
        ("problem.us_per_eval", (evaluate_ms / 1e3 - population_time) * 1e6 / evals),
        ("nsga2.evaluate_share", share(evaluate_ms / 1e3, cell_time)),
        ("nsga2.sort_share", share(sort_ms / 1e3, cell_time)),
        ("nsga2.select_share", share(select_ms / 1e3, cell_time)),
        ("store.write_ms", store_s * 1e3 / ROUNDS as f64),
        ("tensor.arena_misses", pass.arena_misses as f64),
        (
            "tensor.arena_high_water_mb",
            bea_tensor::scratch::stats().high_water_bytes as f64 / (1024.0 * 1024.0),
        ),
        ("traffic.jobs", pass.cells.len() as f64),
        ("traffic.dup_share", 0.0),
        ("traffic.detr_share", share(detr as f64, pass.cells.len() as f64)),
        ("traffic.cached_share", 1.0),
        ("host.yard_ms", pass.speed.mean_ms()),
    ])
}

/// Runs the workload; with `args.trace`, an untraced pass and then a
/// traced pass over the same cells.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workers = resolve_jobs(0);
    let specs = grid(args.seed, args.seconds, workers);
    let base_seed = base_seed(args.seed);

    let mut outcome = Outcome { attempted: specs.len() as u64, ..Outcome::default() };
    let plain = run_pass(&specs, base_seed, &args.work.join("untraced"), None)?;
    let budget = POPULATION * (GENERATIONS + 1);
    let mut evals = 0usize;
    for cell in &plain.cells {
        let spent = cell.outcome.as_ref().map_or(0, |o| o.evaluations());
        evals += spent;
        if spent != budget {
            outcome
                .fail(format!("cell {:?} spent {spent} evaluations, expected {budget}", cell.spec));
        }
    }
    let mut rng = Rng::new(args.seed, 3);
    for (k, index) in rng.distinct(specs.len(), CHECKED_CELLS).into_iter().enumerate() {
        let round = (0..ROUNDS).find(|&r| batch(r, specs.len()).contains(&index)).expect("batched");
        let dir = args.work.join(format!("check-{k}"));
        if let Err(e) = check_cell(&specs[index], base_seed, &plain.stores[round], &dir) {
            outcome.fail(e);
        }
    }
    let untraced = end_to_end(&plain, evals as f64);
    println!("as measured: evals_per_s {:.3}", evals as f64 / plain.wall_s());

    if args.trace {
        let tracer = Arc::new(Tracer::new(Instant::now()));
        let traced = run_pass(&specs, base_seed, &args.work.join("traced"), Some(tracer))?;
        let spans = traced.spans.as_deref().expect("traced pass records spans");
        outcome.metrics = per_layer(&traced, spans, evals as f64, workers);
        let traced_e2e = end_to_end(&traced, evals as f64);
        // Traced over untraced cost: grid time per evaluation.
        outcome
            .metrics
            .insert("trace.overhead", untraced["evals_per_s"] / traced_e2e["evals_per_s"]);
        trace::save(spans, &args.traces, &format!("{}-seed{}", args.workload, args.seed))?;
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
    fn grid_is_seeded_balanced_and_distinct() {
        let a = grid(5, 40.0, 2);
        assert_eq!(a, grid(5, 40.0, 2));
        assert_ne!(a, grid(6, 40.0, 2));
        assert_eq!(a.len(), (40.0 * 2.0 / CELL_SECONDS).round() as usize);
        let detr = a.iter().filter(|s| arch_of(s) == Architecture::Detr).count();
        assert_eq!(detr, a.len() / 2);
        assert!(a.iter().step_by(2).all(|s| arch_of(s) == Architecture::Yolo));
        let mut keys: Vec<_> = a.iter().map(|s| (&s.group, s.model_seed, s.image_index)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), a.len(), "no duplicate cells");
        assert!(a.iter().all(|s| (1..=MODEL_SEEDS).contains(&s.model_seed) && s.image_index < 16));
        // Each architecture's cells spread evenly over the model seeds.
        for arch in [Architecture::Yolo, Architecture::Detr] {
            let mut uses = [0usize; MODEL_SEEDS as usize];
            for s in a.iter().filter(|s| arch_of(s) == arch) {
                uses[s.model_seed as usize - 1] += 1;
            }
            assert!(uses.iter().max().unwrap() - uses.iter().min().unwrap() <= 1, "{uses:?}");
        }
        // A short run still gives every worker its minimum share of
        // every batch.
        let short = grid(5, 1.0, 2);
        assert_eq!(short.len(), 2 * MIN_CELLS_PER_WORKER * ROUNDS);
        for round in 0..ROUNDS {
            assert!(batch(round, short.len()).len() >= 2 * MIN_CELLS_PER_WORKER);
        }
    }

    #[test]
    fn batch_slowdown_weighs_each_stretch_by_its_time() {
        let (a, b) = std::thread::scope(|scope| {
            let id = || scope.spawn(|| std::thread::current().id()).join().unwrap();
            (id(), id())
        });
        let ms = host::YARD_MS;
        let at = |thread, at, yard_ms| CellStart { thread, at, yard_ms };
        // Worker a: 1 s between samples at 1× and 3× (mean 2×), then 1 s
        // at 3×. Worker b: 2 s at 1×.
        let starts = [at(a, 0.0, ms), at(b, 0.0, ms), at(a, 1.0, 3.0 * ms)];
        assert!((batch_slowdown(&starts, 2.0) - (2.0 + 3.0 + 2.0) / 4.0).abs() < 1e-12);
        assert_eq!(batch_slowdown(&starts[..2], 4.0), 1.0);
        assert_eq!(batch_slowdown(&[], 1.0), 1.0);
    }

    #[test]
    fn batches_cover_the_grid_once_in_order() {
        for cells in [60, 114, 115, 116] {
            let covered: Vec<usize> = (0..ROUNDS).flat_map(|r| batch(r, cells)).collect();
            assert_eq!(covered, (0..cells).collect::<Vec<_>>());
        }
    }
}
