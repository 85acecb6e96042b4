//! A small command-line front end for running single attacks.
//!
//! ```text
//! cargo run --release -p bea-bench --bin attack_cli -- \
//!     --arch detr --seed 1 --image 10 --pop 40 --gens 30 \
//!     --constraint right-half --out target/experiments/cli
//! ```
//!
//! Prints the Pareto front and writes the champion masks (applied to the
//! image) plus the raw mask visualisation as PPM files under `--out`.

use bea_bench::args::{self, ArgParser};
use bea_core::attack::{AttackConfig, AttackStrategy, ButterflyAttack};
use bea_core::report::{champion_rows, print_table};
use bea_detect::{Architecture, Detector, KernelPolicy, ModelZoo};
use bea_image::{io, FilterMask, Image, RegionConstraint};
use bea_nsga2::Nsga2Config;
use bea_scene::SyntheticKitti;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    arch: Architecture,
    seed: u64,
    image: usize,
    population: usize,
    generations: usize,
    constraint: RegionConstraint,
    out: PathBuf,
    cache: bool,
    kernels: KernelPolicy,
    strategy: AttackStrategy,
    epsilon: f32,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        arch: Architecture::Detr,
        seed: 1,
        image: 10,
        population: 40,
        generations: 30,
        constraint: RegionConstraint::RightHalf,
        out: PathBuf::from("target/experiments/cli"),
        cache: false,
        kernels: KernelPolicy::default(),
        strategy: AttackStrategy::default(),
        epsilon: AttackConfig::default().whitebox_epsilon,
    };
    let mut args = ArgParser::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--arch" => options.arch = args.arch(&flag)?,
            "--seed" => options.seed = args.parse(&flag)?,
            "--image" => options.image = args.parse(&flag)?,
            "--pop" => options.population = args.parse(&flag)?,
            "--gens" => options.generations = args.parse(&flag)?,
            "--constraint" => {
                options.constraint = match args.value(&flag)?.as_str() {
                    "full" => RegionConstraint::Full,
                    "left-half" => RegionConstraint::LeftHalf,
                    "right-half" => RegionConstraint::RightHalf,
                    other => return Err(format!("unknown constraint {other:?}")),
                };
            }
            "--out" => options.out = PathBuf::from(args.value(&flag)?),
            "--cache" => options.cache = true,
            "--kernels" => options.kernels = args.parse(&flag)?,
            "--strategy" => options.strategy = args.parse(&flag)?,
            "--epsilon" => options.epsilon = args.parse(&flag)?,
            "--help" | "-h" => {
                return Err("usage: attack_cli [--arch yolo|detr] [--seed N] [--image N] \
                            [--pop N] [--gens N] [--constraint full|left-half|right-half] \
                            [--out DIR] [--cache] [--kernels reference|blocked] \
                            [--strategy nsga2|fgsm|pgd|adam] [--epsilon F]\n\
                            --cache evaluates through the dirty-region incremental cache \
                            (identical results, prints hit/recompute counters)\n\
                            --kernels selects the compute kernels (blocked is the fast \
                            default; predictions are identical under both)\n\
                            --strategy replaces the black-box NSGA-II search with a \
                            gradient-based white-box baseline; --epsilon is its L∞ \
                            pixel budget"
                    .into())
            }
            other => return Err(args::unknown_flag(other)),
        }
    }
    Ok(options)
}

/// Renders a mask as a grey-anchored visualisation image (128 + δ/2).
fn visualize_mask(mask: &FilterMask) -> Image {
    let mut img = Image::filled(mask.width(), mask.height(), [128.0; 3]);
    for (c, y, x, v) in mask.iter_nonzero() {
        img.set(c, y, x, 128.0 + v as f32 / 2.0);
    }
    img
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
    if options.image >= dataset.len() {
        eprintln!("--image must be < {}", dataset.len());
        return ExitCode::FAILURE;
    }
    let img = dataset.image(options.image);
    let zoo = ModelZoo::with_defaults().with_kernel_policy(options.kernels);
    let model = if options.cache {
        zoo.cached_model(options.arch, options.seed)
    } else {
        zoo.model(options.arch, options.seed)
    };
    println!(
        "attacking {} on image {} ({}, pop {}, {} generations, {:?}{})",
        model.name(),
        options.image,
        options.strategy,
        options.population,
        options.generations,
        options.constraint,
        if options.cache { ", cached" } else { "" }
    );

    let config = AttackConfig {
        nsga2: Nsga2Config {
            population_size: options.population,
            generations: options.generations,
            ..Nsga2Config::default()
        },
        constraint: options.constraint,
        use_cache: options.cache,
        kernel_policy: options.kernels,
        strategy: options.strategy,
        whitebox_epsilon: options.epsilon,
        ..AttackConfig::default()
    };
    let started = std::time::Instant::now();
    let outcome = ButterflyAttack::new(config).attack(model.as_ref(), &img);
    let elapsed = started.elapsed();
    println!(
        "{} detector evaluations in {:.2}s ({:.1} evals/s)",
        outcome.evaluations(),
        elapsed.as_secs_f64(),
        outcome.evaluations() as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if let Some(stats) = outcome.cache_stats() {
        println!("cache stats: {stats}");
    }

    let rows: Vec<Vec<String>> =
        champion_rows(&outcome, options.arch.name(), options.seed, options.image)
            .iter()
            .map(|r| {
                vec![
                    r.role.clone(),
                    format!("{:.1}", r.point.intensity),
                    format!("{:.3}", r.point.degrad),
                    format!("{:.4}", r.point.dist),
                ]
            })
            .collect();
    print_table(&["champion", "intensity", "degrad", "dist"], &rows);

    if std::fs::create_dir_all(&options.out).is_err() {
        eprintln!("cannot create {}", options.out.display());
        return ExitCode::FAILURE;
    }
    let champion = outcome.best_degradation().expect("front never empty");
    let artefacts = [
        ("clean.ppm", img.clone()),
        ("perturbed.ppm", champion.genome().apply(&img)),
        ("mask.ppm", visualize_mask(champion.genome())),
    ];
    for (name, artefact) in &artefacts {
        let path = options.out.join(name);
        if let Err(e) = io::save_ppm(artefact, &path) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    // The raw genes, reloadable with bea_image::io::load_mask.
    let mask_path = options.out.join("champion.mask");
    if let Err(e) = io::save_mask(champion.genome(), &mask_path) {
        eprintln!("failed to write {}: {e}", mask_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", mask_path.display());
    ExitCode::SUCCESS
}
