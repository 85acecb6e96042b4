//! Determinism suite for the cross-architecture transfer matrix: worker
//! count and resume must never change a persisted byte, diagonal cells must reproduce the source campaign's champion
//! fitness exactly, and a store must refuse to resume against a
//! different source campaign.

use butterfly_effect_attack::attack::campaign::{
    Campaign, CampaignConfig, CampaignStore, CellSpec,
};
use butterfly_effect_attack::attack::transfer::{
    ensemble_member_seeds, load_champions, round6, SourceChampion, TargetPath, TargetSpec,
    TransferCellSpec, TransferConfig, TransferGrid, TransferStore,
};
use butterfly_effect_attack::{
    Architecture, AttackConfig, Detector, Ensemble, Image, ModelZoo, SyntheticKitti,
};
use std::path::PathBuf;

/// GA budget per source cell (kept tiny: every cell drives a real
/// detector, and this suite runs several campaigns).
const POP: usize = 8;
const GENS: usize = 2;

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bea_transfer_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Three source cells spanning both source families and two YOLO seeds.
fn sources() -> Vec<CellSpec> {
    vec![CellSpec::new("YOLO", 1, 0), CellSpec::new("YOLO", 2, 0), CellSpec::new("DETR", 1, 0)]
}

fn campaign_config(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        attack: AttackConfig::scaled(POP, GENS),
        base_seed: 11,
        jobs,
        telemetry: false,
    }
}

fn arch_named(group: &str) -> Architecture {
    Architecture::EXTENDED
        .into_iter()
        .find(|a| a.name() == group)
        .expect("groups are architecture names")
}

/// Real zoo detectors plus the smoke dataset, shared by source and
/// target closures.
struct Fixture {
    zoo: ModelZoo,
    dataset: SyntheticKitti,
}

impl Fixture {
    fn new() -> Self {
        Self { zoo: ModelZoo::with_defaults(), dataset: SyntheticKitti::smoke_set() }
    }

    fn source_detector(&self, spec: &CellSpec) -> Box<dyn Detector> {
        self.zoo.model(arch_named(&spec.group), spec.model_seed)
    }

    fn target_detector(&self, target: &TargetSpec) -> Box<dyn Detector> {
        match target.path {
            TargetPath::Ensemble => {
                // Three members keep the suite fast; member count cannot
                // affect any determinism property under test.
                let members = ensemble_member_seeds(target.seed, 3, 25)
                    .into_iter()
                    .map(|s| self.zoo.model(arch_named(&target.group), s))
                    .collect();
                Box::new(Ensemble::new(members))
            }
            _ => self.zoo.model(arch_named(&target.group), target.seed),
        }
    }

    fn image(&self, spec: &CellSpec) -> Image {
        self.dataset.image(spec.image_index)
    }

    /// Runs the source campaign into `dir` and loads its champions.
    fn campaign_champions(&self, dir: &PathBuf) -> (CampaignStore, Vec<SourceChampion>) {
        let store = CampaignStore::open(dir).expect("campaign store opens");
        Campaign::new(campaign_config(2))
            .run_with_store(
                &sources(),
                |spec: &CellSpec| self.source_detector(spec),
                |spec: &CellSpec| self.image(spec),
                &store,
            )
            .expect("source campaign runs");
        let champions = load_champions(
            &store,
            &campaign_config(2),
            &sources(),
            |spec| self.source_detector(spec),
            |spec| self.image(spec),
        )
        .expect("champions load");
        (store, champions)
    }
}

fn transfer_specs() -> Vec<TransferCellSpec> {
    TransferCellSpec::grid(&sources(), &TargetSpec::paper_grid(&[1, 2]))
}

fn config(jobs: usize, fingerprint: Option<u64>) -> TransferConfig {
    TransferConfig { jobs, telemetry: true, source_fingerprint: fingerprint }
}

/// Runs the matrix into a fresh store and returns the persisted
/// (matrix.csv, telemetry.jsonl) bytes.
fn run_to_bytes(
    fixture: &Fixture,
    champions: &[SourceChampion],
    fingerprint: Option<u64>,
    jobs: usize,
    tag: &str,
) -> (Vec<u8>, Vec<u8>) {
    let store = TransferStore::open(scratch(tag)).expect("transfer store opens");
    TransferGrid::new(config(jobs, fingerprint))
        .run_with_store(
            &transfer_specs(),
            champions,
            |target: &TargetSpec| fixture.target_detector(target),
            |spec: &CellSpec| fixture.image(spec),
            &store,
        )
        .expect("transfer grid runs");
    (
        std::fs::read(store.matrix_path()).expect("matrix.csv exists"),
        std::fs::read(store.telemetry_path()).expect("telemetry.jsonl exists"),
    )
}

#[test]
fn jobs_never_change_matrix_artifacts_and_diagonal_is_exact() {
    let fixture = Fixture::new();
    let (store, champions) = fixture.campaign_champions(&scratch("jt_campaign"));
    let fingerprint = store.manifest_fingerprint().expect("manifest reads");
    assert!(fingerprint.is_some(), "campaign manifests carry a fingerprint");

    let (matrix, telemetry) = run_to_bytes(&fixture, &champions, fingerprint, 1, "jt_j1");
    for jobs in [2, 4] {
        let (m, t) = run_to_bytes(&fixture, &champions, fingerprint, jobs, &format!("jt_j{jobs}"));
        assert_eq!(matrix, m, "matrix.csv differs at jobs {jobs}");
        assert_eq!(telemetry, t, "telemetry.jsonl differs at jobs {jobs}");
    }

    // Diagonal cells are self-transfers: re-evaluating the champion on
    // exactly the detector it was optimised against must reproduce the
    // campaign-recorded fitness bit for bit (delta exactly 0).
    let grid = TransferGrid::new(config(1, fingerprint));
    let result = grid.run(
        &transfer_specs(),
        &champions,
        |target: &TargetSpec| fixture.target_detector(target),
        |spec: &CellSpec| fixture.image(spec),
    );
    let diagonals: Vec<_> = result.rows().into_iter().filter(|r| r.spec.is_diagonal()).collect();
    assert_eq!(diagonals.len(), sources().len(), "one diagonal per source");
    for row in diagonals {
        let champion = champions
            .iter()
            .find(|c| c.spec == row.spec.source)
            .expect("diagonal rows come from known sources");
        assert_eq!(row.metrics.source_fitness, round6(champion.fitness));
        assert_eq!(
            row.metrics.target_fitness, row.metrics.source_fitness,
            "diagonal re-evaluation must reproduce the stored champion fitness exactly"
        );
        assert_eq!(row.metrics.delta, 0.0, "diagonal delta is exactly zero");
    }
}

#[test]
fn resume_reproduces_identical_artifacts() {
    let fixture = Fixture::new();
    let (campaign_store, champions) = fixture.campaign_champions(&scratch("resume_campaign"));
    let fingerprint = campaign_store.manifest_fingerprint().expect("manifest reads");

    let store = TransferStore::open(scratch("resume_store")).expect("transfer store opens");
    let run = |jobs: usize| {
        TransferGrid::new(config(jobs, fingerprint)).run_with_store(
            &transfer_specs(),
            &champions,
            |target: &TargetSpec| fixture.target_detector(target),
            |spec: &CellSpec| fixture.image(spec),
            &store,
        )
    };
    run(2).expect("fresh run");
    let matrix = std::fs::read(store.matrix_path()).expect("matrix.csv");
    let telemetry = std::fs::read(store.telemetry_path()).expect("telemetry.jsonl");

    // Full resume recomputes nothing and rewrites identical bytes.
    let resumed = run(1).expect("full resume");
    assert_eq!(resumed.computed_cells(), 0, "every cell resumes from the store");
    assert_eq!(matrix, std::fs::read(store.matrix_path()).expect("matrix.csv"));
    assert_eq!(telemetry, std::fs::read(store.telemetry_path()).expect("telemetry.jsonl"));

    // Deleting one persisted cell forces exactly one recomputation,
    // which lands on the same bytes.
    let cells_dir = store.root().join("cells");
    let mut cell_files: Vec<_> =
        std::fs::read_dir(&cells_dir).expect("cells dir").flatten().map(|e| e.path()).collect();
    cell_files.sort();
    std::fs::remove_file(&cell_files[0]).expect("delete one cell");
    let repaired = run(4).expect("partial resume");
    assert_eq!(repaired.computed_cells(), 1, "only the deleted cell recomputes");
    assert_eq!(matrix, std::fs::read(store.matrix_path()).expect("matrix.csv"));
    assert_eq!(telemetry, std::fs::read(store.telemetry_path()).expect("telemetry.jsonl"));
}

#[test]
fn resume_refuses_a_mismatched_source_campaign() {
    let fixture = Fixture::new();
    let (campaign_store, champions) = fixture.campaign_champions(&scratch("refuse_campaign"));
    let fingerprint = campaign_store.manifest_fingerprint().expect("manifest reads");

    let store = TransferStore::open(scratch("refuse_store")).expect("transfer store opens");
    TransferGrid::new(config(1, fingerprint))
        .run_with_store(
            &transfer_specs(),
            &champions,
            |target: &TargetSpec| fixture.target_detector(target),
            |spec: &CellSpec| fixture.image(spec),
            &store,
        )
        .expect("fresh run");

    // A different source campaign fingerprint (as read from a manifest
    // whose campaign was re-run with other settings) must be refused
    // loudly instead of silently mixing matrices.
    let other = fingerprint.map(|f| f ^ 0xdead_beef);
    let err = TransferGrid::new(config(1, other))
        .run_with_store(
            &transfer_specs(),
            &champions,
            |target: &TargetSpec| fixture.target_detector(target),
            |spec: &CellSpec| fixture.image(spec),
            &store,
        )
        .expect_err("mismatched source campaign must refuse to resume");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("fingerprint"), "refusal names the fingerprints: {err}");
}

#[test]
fn deleted_champion_masks_regenerate_identically() {
    let fixture = Fixture::new();
    let (store, champions) = fixture.campaign_champions(&scratch("masks_campaign"));

    // Wipe the persisted masks: load_champions falls back to inline
    // re-attacks, which determinism makes bit-identical.
    std::fs::remove_dir_all(store.root().join("masks")).expect("masks dir exists");
    let regenerated = load_champions(
        &store,
        &campaign_config(2),
        &sources(),
        |spec| fixture.source_detector(spec),
        |spec| fixture.image(spec),
    )
    .expect("champions regenerate");
    assert_eq!(champions.len(), regenerated.len());
    for (a, b) in champions.iter().zip(&regenerated) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.fitness, b.fitness);
        assert_eq!(a.mask, b.mask, "re-attacked mask must equal the persisted one");
    }
}
