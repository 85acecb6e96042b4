//! Command-line front end for cross-architecture transfer matrices.
//!
//! ```text
//! cargo run --release -p bea-bench --bin transfer_cli -- \
//!     --campaign target/experiments/campaign \
//!     --jobs 4 --out target/experiments/transfer
//! ```
//!
//! Reads a finished [`campaign_cli`] output directory, loads each cell's
//! champion mask, and re-evaluates every champion against the model-zoo
//! target grid (per-architecture seeds × {plain, ensemble, two-stage}
//! decode paths) through [`bea_core::transfer::TransferGrid`]. The
//! matrix CSV, manifest and telemetry stream land under `--out`;
//! `--resume` keeps finished cells (refusing loudly when the source
//! campaign changed underneath the store). The matrix is identical for
//! every `--jobs` value.
//!
//! [`campaign_cli`]: ../campaign_cli/index.html

use bea_bench::args::{self, ArgParser};
use bea_bench::fmt;
use bea_core::attack::AttackConfig;
use bea_core::campaign::{CampaignConfig, CampaignStore, CellSpec};
use bea_core::report::print_table;
use bea_core::transfer::{
    ensemble_member_seeds, load_champions, read_source_manifest, TargetPath, TargetSpec,
    TransferCellSpec, TransferConfig, TransferGrid, TransferStore,
};
use bea_detect::zoo::{ENSEMBLE_SIZE, MODELS_PER_ARCHITECTURE};
use bea_detect::{Architecture, Detector, Ensemble, KernelPolicy, ModelZoo};
use bea_nsga2::Nsga2Config;
use bea_scene::SyntheticKitti;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    campaign: PathBuf,
    out: PathBuf,
    target_models: usize,
    jobs: usize,
    cache: bool,
    resume: bool,
    kernels: KernelPolicy,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        campaign: PathBuf::from("target/experiments/campaign"),
        out: PathBuf::from("target/experiments/transfer"),
        target_models: 0,
        jobs: 0,
        cache: false,
        resume: false,
        kernels: KernelPolicy::default(),
    };
    let mut args = ArgParser::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--campaign" => options.campaign = PathBuf::from(args.value(&flag)?),
            "--out" => options.out = PathBuf::from(args.value(&flag)?),
            "--target-models" => options.target_models = args.parse(&flag)?,
            "--jobs" => options.jobs = args.parse(&flag)?,
            "--cache" => options.cache = true,
            "--resume" => options.resume = true,
            "--kernels" => options.kernels = args.parse(&flag)?,
            "--help" | "-h" => {
                return Err("usage: transfer_cli [--campaign DIR] [--out DIR] \
                            [--target-models N] [--jobs N] \
                            [--cache] [--resume] [--kernels reference|blocked]\n\
                            --campaign names a finished campaign_cli output directory; it is \
                            read, never modified\n\
                            --target-models sets the per-architecture target seed count \
                            (default 0: match the source campaign's model seeds)\n\
                            --jobs 0 uses every core; any value yields identical results\n\
                            --resume keeps finished matrix cells from a previous run in --out, \
                            refusing when the source campaign fingerprint changed\n\
                            --cache evaluates through caching detectors (bit-identical output)\n\
                            --kernels selects the compute kernels (results are identical \
                            under both)"
                    .into())
            }
            other => return Err(args::unknown_flag(other)),
        }
    }
    if options.target_models > MODELS_PER_ARCHITECTURE {
        return Err(format!("--target-models must be <= {MODELS_PER_ARCHITECTURE}"));
    }
    Ok(options)
}

fn architecture_named(group: &str) -> Option<Architecture> {
    Architecture::EXTENDED.into_iter().find(|a| a.name() == group)
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
    let zoo = ModelZoo::with_defaults().with_kernel_policy(options.kernels);

    // The source campaign is read-only input: its manifest fixes the grid,
    // the attack configuration and (transitively) every champion mask.
    let source_store = match CampaignStore::open(&options.campaign) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open {}: {e}", options.campaign.display());
            return ExitCode::FAILURE;
        }
    };
    let manifest = match read_source_manifest(&source_store) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("cannot read source campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source_config = CampaignConfig {
        attack: AttackConfig {
            nsga2: Nsga2Config {
                population_size: manifest.population,
                generations: manifest.generations,
                ..Nsga2Config::default()
            },
            use_cache: options.cache,
            kernel_policy: options.kernels,
            ..AttackConfig::default()
        },
        base_seed: manifest.base_seed,
        jobs: options.jobs,
        telemetry: false,
    };
    let source_model = |spec: &CellSpec| -> Box<dyn Detector> {
        let arch = architecture_named(&spec.group).unwrap_or(Architecture::Detr);
        if options.cache {
            zoo.cached_model(arch, spec.model_seed)
        } else {
            zoo.model(arch, spec.model_seed)
        }
    };
    let source_image = |spec: &CellSpec| dataset.image(spec.image_index);
    let champions = match load_champions(
        &source_store,
        &source_config,
        &manifest.specs,
        source_model,
        source_image,
    ) {
        Ok(champions) => champions,
        Err(e) => {
            eprintln!("cannot load source champions: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Target grid: per-architecture seeds × decode paths. By default the
    // seed column matches the source campaign's widest seed, so the
    // matrix has an identity diagonal to check against.
    let max_source_seed = manifest.specs.iter().map(|s| s.model_seed).max().unwrap_or(1);
    let target_seed_count =
        if options.target_models == 0 { max_source_seed as usize } else { options.target_models };
    let target_seeds: Vec<u64> = (1..=target_seed_count as u64).collect();
    let targets = TargetSpec::paper_grid(&target_seeds);
    let specs = TransferCellSpec::grid(&manifest.specs, &targets);

    if !options.resume {
        let _ = std::fs::remove_dir_all(&options.out);
    }
    let store = match TransferStore::open(&options.out) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open {}: {e}", options.out.display());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "transfer: {} cells ({} sources x {} targets), jobs {}{}{}",
        specs.len(),
        manifest.specs.len(),
        targets.len(),
        if options.jobs == 0 { "auto".to_string() } else { options.jobs.to_string() },
        if options.cache { ", cached" } else { "" },
        if options.resume { ", resume" } else { "" },
    );

    let grid = TransferGrid::new(TransferConfig {
        jobs: options.jobs,
        telemetry: true,
        source_fingerprint: manifest.fingerprint,
    });
    let target_model = |target: &TargetSpec| -> Box<dyn Detector> {
        let arch = architecture_named(&target.group).unwrap_or(Architecture::Detr);
        let plain = |seed: u64| -> Box<dyn Detector> {
            if options.cache {
                zoo.cached_model(arch, seed)
            } else {
                zoo.model(arch, seed)
            }
        };
        match target.path {
            TargetPath::Plain | TargetPath::TwoStage => plain(target.seed),
            TargetPath::Ensemble => {
                let seeds = ensemble_member_seeds(
                    target.seed,
                    ENSEMBLE_SIZE,
                    MODELS_PER_ARCHITECTURE as u64,
                );
                Box::new(Ensemble::new(seeds.into_iter().map(plain).collect()))
            }
        }
    };

    let started = std::time::Instant::now();
    let matrix = match grid.run_with_store(&specs, &champions, target_model, source_image, &store) {
        Ok(matrix) => matrix,
        Err(e) => {
            eprintln!("transfer grid failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "{} cells ({} computed, {} resumed) in {:.2}s with {} workers",
        matrix.cells.len(),
        matrix.computed_cells(),
        matrix.cells.len() - matrix.computed_cells(),
        elapsed,
        matrix.jobs,
    );

    // Off-diagonal summary per target column group — the paper's
    // transferability finding is the asymmetry of these means.
    let rows = matrix.rows();
    let mut table = Vec::new();
    for (group, mean) in matrix.mean_degradation_by_target(true) {
        let cells: Vec<_> =
            rows.iter().filter(|r| r.spec.target_group == group && !r.spec.is_diagonal()).collect();
        let n = cells.len().max(1) as f64;
        let per_l2 = cells.iter().map(|r| r.metrics.normalized.per_l2).sum::<f64>() / n;
        let vanished = cells.iter().map(|r| r.metrics.vanished as f64).sum::<f64>() / n;
        let appeared = cells.iter().map(|r| r.metrics.appeared as f64).sum::<f64>() / n;
        table.push(vec![
            group,
            cells.len().to_string(),
            fmt(mean, 3),
            fmt(per_l2, 3),
            fmt(vanished, 2),
            fmt(appeared, 2),
        ]);
    }
    print_table(&["target", "cells", "mean degrad", "per unit L2", "vanished", "appeared"], &table);

    let group_mean = |group: &str| {
        matrix
            .mean_degradation_by_target(true)
            .into_iter()
            .find(|(g, _)| g == group)
            .map(|(_, m)| m)
    };
    if let (Some(detr), Some(yolo)) =
        (group_mean(Architecture::Detr.name()), group_mean(Architecture::Yolo.name()))
    {
        println!(
            "asymmetry: mean transferred degradation DETR {} vs YOLO {} ({})",
            fmt(detr, 3),
            fmt(yolo, 3),
            if detr > yolo {
                "DETR targets degrade more, as in the paper"
            } else {
                "no DETR excess at this scale"
            },
        );
    }

    println!("wrote {}", store.matrix_path().display());
    println!("wrote {}", store.manifest_path().display());
    println!("wrote {}", store.telemetry_path().display());
    ExitCode::SUCCESS
}
