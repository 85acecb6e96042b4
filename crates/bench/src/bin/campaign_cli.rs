//! Command-line front end for parallel attack campaigns.
//!
//! ```text
//! cargo run --release -p bea-bench --bin campaign_cli -- \
//!     --arch both --models 2 --images 2 --pop 24 --gens 20 \
//!     --jobs 4 --telemetry --out target/experiments/campaign
//! ```
//!
//! Runs the (architecture × model seed × image) grid through
//! [`bea_core::campaign::Campaign`], sharding cells across `--jobs`
//! workers. Champion CSVs, the manifest and (with `--telemetry`) the
//! per-generation JSONL stream land under `--out`; `--resume` keeps
//! finished cells from a previous run instead of recomputing them. The
//! grid outcome is identical for every `--jobs` value.

use bea_bench::args::{self, ArgParser};
use bea_bench::{fmt, Scale};
use bea_core::attack::{AttackConfig, AttackStrategy};
use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore, CellSpec};
use bea_core::report::{print_table, rows_succeeded, SuccessCriteria};
use bea_detect::{Architecture, KernelPolicy, ModelZoo};
use bea_nsga2::Nsga2Config;
use bea_scene::SyntheticKitti;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    arches: Vec<Architecture>,
    models: usize,
    images: usize,
    population: usize,
    generations: usize,
    base_seed: u64,
    jobs: usize,
    cache: bool,
    resume: bool,
    telemetry: bool,
    kernels: KernelPolicy,
    strategy: AttackStrategy,
    out: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    // --quick/--medium/--full preset the grid and GA size; explicit flags
    // override the preset.
    let scale = Scale::from_args();
    let mut options = Options {
        arches: vec![Architecture::Yolo, Architecture::Detr],
        models: scale.model_count(),
        images: scale.image_count(),
        population: scale.nsga2().population_size,
        generations: scale.nsga2().generations,
        base_seed: 1,
        jobs: 0,
        cache: false,
        resume: false,
        telemetry: false,
        kernels: KernelPolicy::default(),
        strategy: AttackStrategy::default(),
        out: PathBuf::from("target/experiments/campaign"),
    };
    let mut args = ArgParser::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--arch" => options.arches = args::parse_arches(&args.value(&flag)?)?,
            "--models" => options.models = args.parse(&flag)?,
            "--images" => options.images = args.parse(&flag)?,
            "--pop" => options.population = args.parse(&flag)?,
            "--gens" => options.generations = args.parse(&flag)?,
            "--seed" => options.base_seed = args.parse(&flag)?,
            "--jobs" => options.jobs = args.parse(&flag)?,
            "--cache" => options.cache = true,
            "--resume" => options.resume = true,
            "--telemetry" => options.telemetry = true,
            "--kernels" => options.kernels = args.parse(&flag)?,
            "--strategy" => options.strategy = args.parse(&flag)?,
            "--out" => options.out = PathBuf::from(args.value(&flag)?),
            "--quick" | "--medium" | "--full" => {} // consumed by Scale
            "--help" | "-h" => {
                return Err("usage: campaign_cli [--arch yolo|detr|both] [--models N] \
                            [--images N] [--pop N] [--gens N] [--seed N] [--jobs N] \
                            [--cache] [--resume] [--telemetry] \
                            [--kernels reference|blocked] \
                            [--strategy nsga2|fgsm|pgd|adam] [--out DIR] \
                            [--quick|--medium|--full]\n\
                            --jobs 0 uses every core; any value yields identical results \
                            (with one job, each generation's masks spread over every core)\n\
                            --resume keeps finished cells from a previous run in --out\n\
                            --telemetry writes one JSONL record per generation per cell\n\
                            --kernels selects the compute kernels (blocked is the fast \
                            default; results are identical under both)\n\
                            --strategy runs every cell with a gradient-based white-box \
                            baseline instead of the black-box NSGA-II search"
                    .into())
            }
            other => return Err(args::unknown_flag(other)),
        }
    }
    if options.models == 0 || options.images == 0 {
        return Err("--models and --images must be positive".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let dataset = SyntheticKitti::evaluation_set();
    if options.images > dataset.len() {
        eprintln!("--images must be <= {}", dataset.len());
        return ExitCode::FAILURE;
    }
    let zoo = ModelZoo::with_defaults().with_kernel_policy(options.kernels);

    let model_seeds: Vec<u64> = (1..=options.models as u64).collect();
    let image_indices: Vec<usize> = (0..options.images).collect();
    let mut specs = Vec::new();
    for arch in &options.arches {
        specs.extend(CellSpec::grid(arch.name(), &model_seeds, &image_indices));
    }

    // A fresh (non-resume) campaign must not silently adopt stale cells.
    if !options.resume {
        let _ = std::fs::remove_dir_all(&options.out);
    }
    let store = match CampaignStore::open(&options.out) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open {}: {e}", options.out.display());
            return ExitCode::FAILURE;
        }
    };

    let campaign = Campaign::new(CampaignConfig {
        attack: AttackConfig {
            nsga2: Nsga2Config {
                population_size: options.population,
                generations: options.generations,
                ..Nsga2Config::default()
            },
            use_cache: options.cache,
            kernel_policy: options.kernels,
            strategy: options.strategy,
            ..AttackConfig::default()
        },
        base_seed: options.base_seed,
        jobs: options.jobs,
        telemetry: options.telemetry,
    });

    println!(
        "campaign: {} cells ({} arch x {} models x {} images), {}, pop {}, {} generations, \
         jobs {}{}{}",
        specs.len(),
        options.arches.len(),
        options.models,
        options.images,
        options.strategy,
        options.population,
        options.generations,
        if options.jobs == 0 { "auto".to_string() } else { options.jobs.to_string() },
        if options.cache { ", cached" } else { "" },
        if options.resume { ", resume" } else { "" },
    );

    let started = std::time::Instant::now();
    let result = match campaign.run_with_store(
        &specs,
        |spec: &CellSpec| {
            let arch = if spec.group == Architecture::Yolo.name() {
                Architecture::Yolo
            } else {
                Architecture::Detr
            };
            if options.cache {
                zoo.cached_model(arch, spec.model_seed)
            } else {
                zoo.model(arch, spec.model_seed)
            }
        },
        |spec: &CellSpec| dataset.image(spec.image_index),
        &store,
    ) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed().as_secs_f64();

    println!(
        "{} cells ({} computed, {} resumed) in {:.2}s with {} workers",
        result.cells.len(),
        result.computed_cells(),
        result.cells.len() - result.computed_cells(),
        elapsed,
        result.jobs,
    );

    // Per-group aggregate over the persisted rows (works for resumed
    // cells too, which carry no live outcome).
    let criteria = SuccessCriteria::default();
    let mut rows = Vec::new();
    for arch in &options.arches {
        let cells: Vec<_> = result.cells.iter().filter(|c| c.spec.group == arch.name()).collect();
        let champs: Vec<f64> = cells
            .iter()
            .flat_map(|c| c.rows.iter())
            .filter(|r| r.role == "best-degrad")
            .map(|r| r.point.degrad)
            .collect();
        let hits = cells.iter().filter(|c| rows_succeeded(&c.rows, criteria)).count();
        rows.push(vec![
            arch.name().to_string(),
            cells.len().to_string(),
            fmt(champs.iter().sum::<f64>() / champs.len().max(1) as f64, 3),
            format!("{:.0}%", 100.0 * hits as f64 / cells.len().max(1) as f64),
        ]);
    }
    print_table(&["arch", "cells", "mean best degrad", "success rate"], &rows);

    println!("wrote {}", store.champions_path().display());
    println!("wrote {}", store.manifest_path().display());
    if options.telemetry {
        println!("wrote {}", store.telemetry_path().display());
    }
    ExitCode::SUCCESS
}
