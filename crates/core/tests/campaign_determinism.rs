//! End-to-end determinism suite for the parallel campaign runner: the
//! worker count must never change any persisted artefact. Champion CSVs
//! are compared byte for byte; telemetry is compared per line up to the
//! trailing wall-time fields.

use bea_core::attack::AttackConfig;
use bea_core::campaign::{Campaign, CampaignConfig, CampaignStore, CellSpec};
use bea_core::report::write_csv;
use bea_core::telemetry;
use bea_detect::{Architecture, Detector, KernelPolicy, ModelZoo};
use bea_scene::SyntheticKitti;

/// Generations per attack (kept tiny: every cell drives a real detector).
const GENS: usize = 2;

fn specs() -> Vec<CellSpec> {
    let mut specs = CellSpec::grid("YOLO", &[1], &[0, 1]);
    specs.extend(CellSpec::grid("DETR", &[1], &[0]));
    specs
}

fn campaign(jobs: usize, cache: bool) -> Campaign {
    let mut attack = AttackConfig::scaled(8, GENS);
    attack.use_cache = cache;
    Campaign::new(CampaignConfig { attack, base_seed: 11, jobs, telemetry: true })
}

fn run(jobs: usize, cache: bool) -> bea_core::campaign::CampaignResult {
    run_with_policy(jobs, cache, KernelPolicy::default())
}

fn run_with_policy(
    jobs: usize,
    cache: bool,
    policy: KernelPolicy,
) -> bea_core::campaign::CampaignResult {
    let zoo = ModelZoo::with_defaults().with_kernel_policy(policy);
    let dataset = SyntheticKitti::evaluation_set();
    campaign(jobs, cache).run(
        &specs(),
        move |spec: &CellSpec| {
            let arch = if spec.group == "YOLO" { Architecture::Yolo } else { Architecture::Detr };
            if cache {
                zoo.cached_model(arch, spec.model_seed)
            } else {
                zoo.model(arch, spec.model_seed)
            }
        },
        move |spec: &CellSpec| dataset.image(spec.image_index),
    )
}

fn champion_csv(result: &bea_core::campaign::CampaignResult) -> Vec<u8> {
    let mut buf = Vec::new();
    write_csv(&result.champion_rows(), &mut buf).expect("serialize champions");
    buf
}

#[test]
fn worker_count_never_changes_champion_csv() {
    let sequential = run(1, false);
    let parallel = run(4, false);
    let csv = champion_csv(&sequential);
    assert_eq!(csv, champion_csv(&parallel), "--jobs must not change the champion CSV");
    assert!(!csv.is_empty());
    // Derived seeds, not scheduling, define each cell.
    for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.seed, b.seed);
    }
}

#[test]
fn kernel_policy_never_changes_champion_csv_across_worker_counts() {
    // The {reference, blocked} × {sequential, parallel} matrix: every
    // combination must persist the same champion CSV byte for byte, so
    // the fast kernels can be flipped on and off without invalidating
    // any stored campaign.
    let csv = champion_csv(&run_with_policy(1, false, KernelPolicy::Reference));
    assert!(!csv.is_empty());
    assert_eq!(
        csv,
        champion_csv(&run_with_policy(4, false, KernelPolicy::Reference)),
        "--jobs must not change the reference-kernel champion CSV"
    );
    assert_eq!(
        csv,
        champion_csv(&run_with_policy(1, false, KernelPolicy::Blocked)),
        "kernel policy must not change the sequential champion CSV"
    );
    assert_eq!(
        csv,
        champion_csv(&run_with_policy(4, false, KernelPolicy::Blocked)),
        "kernel policy must not change the parallel champion CSV"
    );
}

fn run_with_threads(jobs: usize, threads: usize) -> bea_core::campaign::CampaignResult {
    let zoo = ModelZoo::with_defaults().with_kernel_policy(KernelPolicy::Blocked);
    let dataset = SyntheticKitti::evaluation_set();
    let mut attack = AttackConfig::scaled(8, GENS);
    attack.threads = threads;
    Campaign::new(CampaignConfig { attack, base_seed: 11, jobs, telemetry: true }).run(
        &specs(),
        move |spec: &CellSpec| {
            let arch = if spec.group == "YOLO" { Architecture::Yolo } else { Architecture::Detr };
            zoo.model(arch, spec.model_seed)
        },
        move |spec: &CellSpec| dataset.image(spec.image_index),
    )
}

#[test]
fn mask_threads_never_change_champion_csv_across_worker_counts() {
    // The threads {1,4} × jobs {1,4} grid: with one job, `threads`
    // spreads each generation's masks over that many workers; with four,
    // the campaign pins it to 1. Every combination must persist the same
    // champion CSV byte for byte as the plain sequential run.
    let expected = champion_csv(&run(1, false));
    assert!(!expected.is_empty());
    for threads in [1, 4] {
        for jobs in [1, 4] {
            assert_eq!(
                expected,
                champion_csv(&run_with_threads(jobs, threads)),
                "threads {threads} jobs {jobs} changed the champion CSV"
            );
        }
    }
}

#[test]
fn telemetry_matches_across_worker_counts_modulo_timing() {
    let a = run(1, false).telemetry_lines();
    let b = run(3, false).telemetry_lines();
    assert_eq!(a.len(), b.len());
    for line in a.iter().chain(&b) {
        telemetry::validate_json(line).expect("every telemetry line is valid JSON");
    }
    // Line 0 is the manifest (records the actual worker count); every
    // generation record after it must match up to the wall-time suffix.
    for (x, y) in a.iter().zip(&b).skip(1) {
        assert_eq!(telemetry::deterministic_prefix(x), telemetry::deterministic_prefix(y));
    }
}

#[test]
fn telemetry_generations_are_dense_per_cell() {
    let result = run(2, false);
    for cell in &result.cells {
        assert_eq!(cell.telemetry.len(), GENS + 1, "one record per generation plus gen 0");
        for (expected, line) in cell.telemetry.iter().enumerate() {
            assert!(line.contains(&format!("\"generation\":{expected},")));
            assert!(line.contains(&format!("\"seed\":{},", cell.seed)));
        }
    }
}

#[test]
fn cached_evaluation_matches_plain_evaluation() {
    // The incremental cache is an optimisation, not an approximation: the
    // persisted rows must be identical with and without it.
    let plain = run(2, false);
    let cached = run(2, true);
    assert_eq!(champion_csv(&plain), champion_csv(&cached));
    let hits: Vec<&String> = cached
        .cells
        .iter()
        .flat_map(|c| c.telemetry.iter())
        .filter(|l| !l.contains("\"cache_incremental\":0,"))
        .collect();
    assert!(!hits.is_empty(), "cached runs must report cache activity in telemetry");
}

#[test]
fn stored_campaigns_resume_to_identical_artifacts() {
    let root =
        std::env::temp_dir().join(format!("bea_campaign_determinism_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CampaignStore::open(&root).expect("open store");
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let detector = |spec: &CellSpec| -> Box<dyn Detector> {
        let arch = if spec.group == "YOLO" { Architecture::Yolo } else { Architecture::Detr };
        zoo.model(arch, spec.model_seed)
    };
    let image = |spec: &CellSpec| dataset.image(spec.image_index);

    let first =
        campaign(2, false).run_with_store(&specs(), detector, image, &store).expect("first run");
    let champions_before = std::fs::read(store.champions_path()).expect("champions written");
    assert_eq!(first.computed_cells(), specs().len());

    let second =
        campaign(4, false).run_with_store(&specs(), detector, image, &store).expect("resumed run");
    assert_eq!(second.computed_cells(), 0, "all cells must resume from disk");
    let champions_after = std::fs::read(store.champions_path()).expect("champions rewritten");
    assert_eq!(
        champions_before, champions_after,
        "resume must rewrite a byte-identical champion CSV"
    );

    let manifest = std::fs::read_to_string(store.manifest_path()).expect("manifest");
    telemetry::validate_json(manifest.trim()).expect("manifest is valid JSON");
    assert!(manifest.contains("\"resumed\":true"));
    let _ = std::fs::remove_dir_all(&root);
}
