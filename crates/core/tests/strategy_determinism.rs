//! Determinism and efficacy suite for the gradient-based white-box
//! strategies (FGSM / PGD / Adam). Mirrors `campaign_determinism.rs`: the
//! worker count must never change a persisted champion CSV, and PGD at the
//! GA's pixel budget must beat a random-noise control through the same
//! report path the campaigns persist.

use bea_core::attack::{AttackConfig, AttackStrategy, ButterflyAttack};
use bea_core::baseline::random_noise_baseline;
use bea_core::campaign::{Campaign, CampaignConfig, CellSpec};
use bea_core::report::{champion_rows, read_csv, write_csv};
use bea_detect::{Architecture, Detector, ModelZoo, Prediction};
use bea_image::Image;
use bea_scene::SyntheticKitti;

/// Gradient steps per attack (each one drives a full detector backward
/// pass, so the campaigns stay tiny).
const GENS: usize = 2;

fn specs() -> Vec<CellSpec> {
    let mut specs = CellSpec::grid("YOLO", &[1], &[0]);
    specs.extend(CellSpec::grid("DETR", &[1], &[0]));
    specs
}

fn attack_config(strategy: AttackStrategy, steps: usize) -> AttackConfig {
    AttackConfig { strategy, ..AttackConfig::scaled(8, steps) }
}

fn run(strategy: AttackStrategy, jobs: usize) -> bea_core::campaign::CampaignResult {
    let zoo = ModelZoo::with_defaults();
    let dataset = SyntheticKitti::evaluation_set();
    let campaign = Campaign::new(CampaignConfig {
        attack: attack_config(strategy, GENS),
        base_seed: 11,
        jobs,
        telemetry: true,
    });
    campaign.run(
        &specs(),
        move |spec: &CellSpec| {
            let arch = if spec.group == "YOLO" { Architecture::Yolo } else { Architecture::Detr };
            zoo.model(arch, spec.model_seed)
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
fn worker_count_never_changes_whitebox_champion_csv() {
    for strategy in [AttackStrategy::Fgsm, AttackStrategy::Pgd, AttackStrategy::Adam] {
        let sequential = run(strategy, 1);
        let parallel = run(strategy, 4);
        let csv = champion_csv(&sequential);
        assert!(!csv.is_empty(), "{strategy} must persist champions");
        assert_eq!(
            csv,
            champion_csv(&parallel),
            "--jobs must not change the {strategy} champion CSV"
        );
    }
}

#[test]
fn whitebox_outcomes_record_dense_generations() {
    // The synthesized GenerationStats must look exactly like the GA's to
    // the telemetry layer: one record per gradient step plus gen 0.
    let result = run(AttackStrategy::Pgd, 2);
    for cell in &result.cells {
        assert_eq!(cell.telemetry.len(), GENS + 1, "one record per step plus gen 0");
        for (expected, line) in cell.telemetry.iter().enumerate() {
            assert!(line.contains(&format!("\"generation\":{expected},")));
        }
    }
}

#[test]
fn pgd_beats_random_noise_control() {
    // Acceptance criterion: PGD at an ε matching the GA's pixel budget
    // (gaussian_std) must degrade detection confidence strictly more than
    // a random perturbation of the same L2 intensity, and the result must
    // round-trip through the persisted report path.
    let config = attack_config(AttackStrategy::Pgd, 8);
    assert_eq!(config.whitebox_epsilon, config.gaussian_std, "ε must match the GA pixel budget");
    let zoo = ModelZoo::with_defaults();
    let detector = zoo.model(Architecture::Detr, 1);
    let img = SyntheticKitti::evaluation_set().image(2);

    let constraint = config.constraint;
    let outcome = ButterflyAttack::new(config).attack(detector.as_ref(), &img);
    let champion = outcome.best_degradation().expect("PGD records at least the zero mask");
    let pgd_degrad = champion.objectives()[1];
    let pgd_intensity = champion.objectives()[0];
    assert!(pgd_intensity > 0.0, "PGD must actually perturb the image");

    let control = random_noise_baseline(detector.as_ref(), &img, pgd_intensity, 16, constraint, 97);
    assert!(
        pgd_degrad < control.best_degrad,
        "PGD (degrad {pgd_degrad:.6}) must beat random noise (degrad {:.6}) at L2 budget {:.1}",
        control.best_degrad,
        pgd_intensity
    );

    // Record via the existing telemetry/report path: champion rows must
    // survive a CSV round-trip with the win intact.
    let rows = champion_rows(&outcome, "DETR", 1, 2);
    let mut buf = Vec::new();
    write_csv(&rows, &mut buf).expect("serialize PGD champions");
    let recovered = read_csv(&buf[..]).expect("parse PGD champions");
    let row = recovered
        .iter()
        .find(|r| r.role == "best-degrad")
        .expect("best-degrad champion row persisted");
    assert!((row.point.degrad - pgd_degrad).abs() < 1e-6);
    assert!(row.point.degrad < control.best_degrad);
}

#[test]
fn fgsm_takes_exactly_one_step() {
    let zoo = ModelZoo::with_defaults();
    let detector = zoo.model(Architecture::Yolo, 1);
    let img = SyntheticKitti::evaluation_set().image(0);
    let outcome = ButterflyAttack::new(attack_config(AttackStrategy::Fgsm, 7))
        .attack(detector.as_ref(), &img);
    // Gen 0 (zero mask) + the single signed step, regardless of the
    // configured generation count.
    assert_eq!(outcome.history().len(), 2);
    assert_eq!(outcome.evaluations(), 2);
}

#[test]
fn blackbox_detector_degrades_to_zero_mask_outcome() {
    // A detector without input_gradient still yields a valid outcome: the
    // zero mask only, ranked, with a well-formed front.
    struct Blind;
    impl Detector for Blind {
        fn detect(&self, _img: &Image) -> Prediction {
            Prediction::new()
        }
        fn name(&self) -> &str {
            "blind"
        }
    }
    let img = SyntheticKitti::evaluation_set().image(0);
    let outcome = ButterflyAttack::new(attack_config(AttackStrategy::Pgd, 3)).attack(&Blind, &img);
    assert_eq!(outcome.evaluations(), 1, "only the gen-0 zero mask is evaluated");
    let front = outcome.pareto_points();
    assert_eq!(front.len(), 1);
    assert_eq!(front[0][0], 0.0, "the zero mask has zero intensity");
}
