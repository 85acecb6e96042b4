//! The attack driver: NSGA-II over filter masks.

use crate::init::MaskInitializer;
use crate::objectives::intensity::obj_intensity_normalized;
use crate::operators::{MaskCrossover, MaskMutation, MutationKind};
use crate::problem::ButterflyProblem;
use crate::whitebox;
use bea_detect::{CacheStats, Detector};
use bea_image::{FilterMask, Image, RegionConstraint};
use bea_nsga2::{Direction, GenerationStats, Individual, Nsga2, Nsga2Config, Nsga2Result};
use bea_tensor::norm::NormKind;
use std::fmt;
use std::str::FromStr;

/// Which optimiser drives the attack.
///
/// The paper's contribution is the black-box NSGA-II search ([`Self::Nsga2`],
/// the default); the gradient strategies are white-box baselines that read
/// [`bea_detect::Detector::input_gradient`] and exist to calibrate how much
/// the black-box attack gives up by not seeing gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackStrategy {
    /// The paper's multi-objective genetic search (black-box).
    #[default]
    Nsga2,
    /// One-shot fast gradient sign step at `whitebox_epsilon`.
    Fgsm,
    /// Iterated projected gradient descent under an L∞ ball of
    /// `whitebox_epsilon` (one step per configured generation).
    Pgd,
    /// Adam on a multi-term loss (confidence + box-area + L1/L2 mask
    /// norms), projected onto the same L∞ ball.
    Adam,
}

impl AttackStrategy {
    /// All strategies, in CLI listing order.
    pub const ALL: [AttackStrategy; 4] =
        [AttackStrategy::Nsga2, AttackStrategy::Fgsm, AttackStrategy::Pgd, AttackStrategy::Adam];

    /// The CLI token for this strategy.
    pub fn token(self) -> &'static str {
        match self {
            AttackStrategy::Nsga2 => "nsga2",
            AttackStrategy::Fgsm => "fgsm",
            AttackStrategy::Pgd => "pgd",
            AttackStrategy::Adam => "adam",
        }
    }
}

impl fmt::Display for AttackStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for AttackStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "nsga2" | "nsga-ii" | "ga" => Ok(AttackStrategy::Nsga2),
            "fgsm" => Ok(AttackStrategy::Fgsm),
            "pgd" => Ok(AttackStrategy::Pgd),
            "adam" => Ok(AttackStrategy::Adam),
            other => {
                Err(format!("unknown attack strategy '{other}' (expected nsga2|fgsm|pgd|adam)"))
            }
        }
    }
}

/// Full configuration of a butterfly effect attack.
///
/// Defaults reproduce the paper's Tables I/II evaluation setting: NSGA-II
/// with 100 iterations, population 101, `p_c = 0.5`, `p_m = 0.45`, mutation
/// window 1 %, and perturbation restricted to the right half of the image.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// The genetic-algorithm parameters (Table II).
    pub nsga2: Nsga2Config,
    /// Buffer `ε` around boxes in Algorithm 2.
    pub epsilon: f32,
    /// Norm of the intensity objective (the paper uses L2).
    pub norm: NormKind,
    /// Where the perturbation may live (the paper's evaluation forces the
    /// right half).
    pub constraint: RegionConstraint,
    /// Mutation window `w` as a fraction of the allowed pixels (Table II:
    /// 1 %).
    pub window_fraction: f32,
    /// Standard deviation of the Gaussian population initialisation.
    pub gaussian_std: f32,
    /// Enabled mutation operators (all four by default; subsets drive the
    /// mutation ablation).
    pub mutation_kinds: Vec<MutationKind>,
    /// Adds the grey-box feature objective as a fourth dimension.
    pub feature_objective: bool,
    /// Ablation A1: keep Algorithm 2's division by the perturbed-pixel
    /// count (`true` is the paper's design).
    pub distance_count_division: bool,
    /// Route evaluations through [`Detector::detect_masked`] so
    /// cache-aware detectors (e.g. [`bea_detect::CachedDetector`]) reuse
    /// the memoized clean forward pass and recompute only the mask's dirty
    /// region. Results are identical with or without the cache; `false`
    /// (the default) keeps the paper's plain full-forward evaluation.
    pub use_cache: bool,
    /// Kernel dispatch policy the front-ends should build detectors with
    /// (via [`bea_detect::ModelZoo::with_kernel_policy`]). Both policies
    /// produce `==`-identical predictions, so this only changes evaluation
    /// speed; the attack core itself never reads it because detectors
    /// arrive pre-built.
    pub kernel_policy: bea_tensor::KernelPolicy,
    /// Track the exact hypervolume of each generation's non-dominated
    /// front in [`GenerationStats::hypervolume`], against a fixed
    /// reference point at the worst plausible corner of the three-objective
    /// space (maximal mask intensity, no degradation, perturbation on the
    /// object). Enabled by default; automatically skipped when the
    /// feature objective raises the dimensionality past the exact
    /// indicator's 3-objective support.
    pub track_hypervolume: bool,
    /// Which optimiser drives [`ButterflyAttack::attack`] (NSGA-II by
    /// default; the gradient strategies are white-box baselines).
    pub strategy: AttackStrategy,
    /// L∞ budget of the white-box strategies, in pixel-value units —
    /// defaults to `gaussian_std` so FGSM/PGD spend the same per-pixel
    /// budget the GA's initialisation draws from.
    pub whitebox_epsilon: f32,
    /// Worker threads one NSGA-II generation's masks are spread over:
    /// `0` (the default) uses every available core, `1` evaluates on the
    /// calling thread. Each worker takes one contiguous chunk of the
    /// population through one batched detector call, and results are
    /// identical at any setting. Campaigns that shard cells across more
    /// than one worker, and gated serve jobs, pin it to 1.
    pub threads: usize,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            nsga2: Nsga2Config::default(),
            epsilon: 2.0,
            norm: NormKind::L2,
            constraint: RegionConstraint::RightHalf,
            window_fraction: 0.01,
            gaussian_std: 12.0,
            mutation_kinds: MutationKind::ALL.to_vec(),
            feature_objective: false,
            distance_count_division: true,
            use_cache: false,
            kernel_policy: bea_tensor::KernelPolicy::default(),
            track_hypervolume: true,
            strategy: AttackStrategy::Nsga2,
            whitebox_epsilon: 12.0,
            threads: 0,
        }
    }
}

impl AttackConfig {
    /// A scaled-down configuration for fast runs and tests: a small
    /// population and few generations while keeping the paper's
    /// probabilities.
    pub fn scaled(population: usize, generations: usize) -> Self {
        Self {
            nsga2: Nsga2Config {
                population_size: population,
                generations,
                ..Nsga2Config::default()
            },
            ..Self::default()
        }
    }
}

/// The butterfly effect attack (paper Sections III–IV).
///
/// # Examples
///
/// ```no_run
/// use bea_core::attack::{AttackConfig, ButterflyAttack};
/// use bea_detect::{Architecture, ModelZoo};
/// use bea_scene::SyntheticKitti;
///
/// let zoo = ModelZoo::with_defaults();
/// let detr = zoo.model(Architecture::Detr, 1);
/// let outcome = ButterflyAttack::new(AttackConfig::scaled(24, 10))
///     .attack(detr.as_ref(), &SyntheticKitti::evaluation_set().image(10));
/// println!("front size: {}", outcome.pareto_points().len());
/// ```
#[derive(Debug, Clone)]
pub struct ButterflyAttack {
    config: AttackConfig,
}

impl ButterflyAttack {
    /// Wraps an attack configuration.
    pub fn new(config: AttackConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Attacks one detector on one image (the standard setting). The
    /// configured [`AttackStrategy`] picks the optimiser; the white-box
    /// strategies require the detector to expose
    /// [`Detector::input_gradient`] and degrade to a zero-mask outcome
    /// when it does not.
    pub fn attack(&self, detector: &dyn Detector, img: &Image) -> AttackOutcome {
        self.attack_with_observer(detector, img, |_| {})
    }

    /// Like [`ButterflyAttack::attack`], but invokes `observer` with every
    /// generation's [`GenerationStats`] as the run progresses — the hook
    /// campaign telemetry streams from.
    pub fn attack_with_observer(
        &self,
        detector: &dyn Detector,
        img: &Image,
        observer: impl FnMut(&GenerationStats),
    ) -> AttackOutcome {
        if self.config.strategy != AttackStrategy::Nsga2 {
            return whitebox::run(self, detector, img, observer);
        }
        let problem = self.make_problem(vec![detector], vec![img.clone()]);
        self.run(problem, observer)
    }

    /// Attacks an ensemble of detectors with one shared mask
    /// (Section IV-B, Eqs. 1–3).
    pub fn attack_ensemble(&self, detectors: &[&dyn Detector], img: &Image) -> AttackOutcome {
        let problem = self.make_problem(detectors.to_vec(), vec![img.clone()]);
        self.run(problem, |_| {})
    }

    /// Attacks one detector across an image sequence with one mask
    /// (Section IV-B, temporal extension).
    pub fn attack_sequence(&self, detector: &dyn Detector, frames: &[Image]) -> AttackOutcome {
        let problem = self.make_problem(vec![detector], frames.to_vec());
        self.run(problem, |_| {})
    }

    /// Runs the attack on an explicit problem (fully general setting).
    pub fn attack_problem(&self, problem: ButterflyProblem<'_>) -> AttackOutcome {
        self.run(problem, |_| {})
    }

    /// [`ButterflyAttack::attack_problem`] with a generation observer.
    pub fn attack_problem_with_observer(
        &self,
        problem: ButterflyProblem<'_>,
        observer: impl FnMut(&GenerationStats),
    ) -> AttackOutcome {
        self.run(problem, observer)
    }

    pub(crate) fn make_problem<'a>(
        &self,
        detectors: Vec<&'a dyn Detector>,
        frames: Vec<Image>,
    ) -> ButterflyProblem<'a> {
        let mut problem =
            ButterflyProblem::build(detectors, frames, self.config.epsilon, self.config.constraint)
                .with_norm(self.config.norm);
        if self.config.feature_objective {
            problem = problem.with_feature_objective();
        }
        if !self.config.distance_count_division {
            problem = problem.without_distance_count_division();
        }
        if self.config.use_cache {
            problem = problem.with_cache();
        }
        problem
    }

    /// A hypervolume reference point dominated by every reachable
    /// objective vector: maximal mask intensity (every channel of every
    /// pixel saturated), overlap just above the clean-prediction score of
    /// 1, and a perturbation distance just below the on-object minimum of
    /// 0. Only defined for the paper's three-objective setting — the exact
    /// indicator stops at 3 dimensions.
    fn hypervolume_reference(&self, width: usize, height: usize) -> Vec<f64> {
        let max_intensity = 255.0 * ((3 * width * height) as f64).sqrt();
        vec![max_intensity, 1.05, -0.05]
    }

    fn run(
        &self,
        problem: ButterflyProblem<'_>,
        mut observer: impl FnMut(&GenerationStats),
    ) -> AttackOutcome {
        let problem = problem.with_threads(self.config.threads);
        // The NSGA-II driver consumes the problem, so snapshot the
        // detector handles (and their cache counters) first; the outcome
        // reports only this run's delta.
        let detectors: Vec<&dyn Detector> = problem.detectors().to_vec();
        let before = merged_cache_stats(&detectors);
        let (width, height) = (problem.width(), problem.height());
        // The feature objective is the only thing that raises the paper's
        // three objectives to four.
        let three_objectives = !self.config.feature_objective;
        let init = MaskInitializer::new(width, height, self.config.constraint)
            .with_gaussian_std(self.config.gaussian_std);
        let crossover = MaskCrossover;
        let mutation = MaskMutation::with_kinds(
            self.config.mutation_kinds.clone(),
            self.config.window_fraction,
            self.config.constraint,
        );
        let mut driver = Nsga2::new(problem, self.config.nsga2);
        if self.config.track_hypervolume && three_objectives {
            driver = driver.with_hypervolume_reference(self.hypervolume_reference(width, height));
        }
        let result =
            driver.run_with_observer(&init, &crossover, &mutation, |stats, _| observer(stats));
        let cache = match (before, merged_cache_stats(&detectors)) {
            (Some(before), Some(after)) => Some(after.since(&before)),
            (None, after) => after,
            (Some(_), None) => None,
        };
        AttackOutcome { result, cache }
    }
}

/// The sum of the detectors' cache counters, or `None` when none caches.
fn merged_cache_stats(detectors: &[&dyn Detector]) -> Option<CacheStats> {
    let mut merged = CacheStats::default();
    let mut any = false;
    for detector in detectors {
        if let Some(stats) = detector.cache_stats() {
            merged.merge(&stats);
            any = true;
        }
    }
    any.then_some(merged)
}

/// The result of one attack run.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    result: Nsga2Result<FilterMask>,
    cache: Option<CacheStats>,
}

impl AttackOutcome {
    /// Assembles an outcome from a pre-existing NSGA-II result and
    /// optional cache counters — the escape hatch for reloading persisted
    /// runs or building fixtures. Live attacks never need this.
    pub fn from_parts(result: Nsga2Result<FilterMask>, cache: Option<CacheStats>) -> Self {
        Self { result, cache }
    }

    /// The underlying NSGA-II result (population, history, directions).
    pub fn result(&self) -> &Nsga2Result<FilterMask> {
        &self.result
    }

    /// Cache counters accumulated during this run (hits, incremental
    /// evaluations, fallbacks, cells recomputed), or `None` when no
    /// detector under attack caches.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache
    }

    /// Objective vectors of the final Pareto front, each
    /// `[obj_intensity, obj_degrad, obj_dist, (feature)]`.
    pub fn pareto_points(&self) -> Vec<Vec<f64>> {
        self.result.pareto_front().iter().map(|i| i.objectives().to_vec()).collect()
    }

    /// Pareto points with the intensity axis normalised into `[0, 1]`
    /// (comparable across image sizes, the scale of Figure 2).
    pub fn pareto_points_normalized(&self) -> Vec<Vec<f64>> {
        self.result
            .pareto_front()
            .iter()
            .map(|i| {
                let mut objs = i.objectives().to_vec();
                objs[0] = obj_intensity_normalized(i.genome());
                objs
            })
            .collect()
    }

    /// The front member with minimum intensity (the paper's Figure 2 shows
    /// the per-objective champions of the front).
    pub fn best_intensity(&self) -> Option<&Individual<FilterMask>> {
        self.result.best_for_objective(0)
    }

    /// The front member with the strongest degradation (lowest
    /// `obj_degrad`).
    pub fn best_degradation(&self) -> Option<&Individual<FilterMask>> {
        self.result.best_for_objective(1)
    }

    /// The front member with the most "unrelated" perturbation (highest
    /// `obj_dist`).
    pub fn best_distance(&self) -> Option<&Individual<FilterMask>> {
        self.result.best_for_objective(2)
    }

    /// Per-generation statistics.
    pub fn history(&self) -> &[GenerationStats] {
        self.result.history()
    }

    /// Objective directions of the run.
    pub fn directions(&self) -> &[Direction] {
        self.result.directions()
    }

    /// Number of detector-forward evaluations spent.
    pub fn evaluations(&self) -> usize {
        self.result.evaluations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::Toy;

    fn fast_config() -> AttackConfig {
        AttackConfig::scaled(16, 8)
    }

    #[test]
    fn attack_finds_degrading_masks_on_toy_detector() {
        let img = Image::black(32, 16);
        let outcome = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        let best = outcome.best_degradation().expect("front is never empty");
        assert!(
            best.objectives()[1] < 1.0,
            "the GA should find a mask that shrinks the toy box, got {:?}",
            best.objectives()
        );
    }

    #[test]
    fn outcome_is_deterministic_per_seed() {
        let img = Image::black(24, 12);
        let a = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        let b = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        assert_eq!(a.pareto_points(), b.pareto_points());
    }

    #[test]
    fn masks_respect_the_region_constraint() {
        let img = Image::black(24, 12);
        let outcome = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        for individual in outcome.result().population() {
            assert!(RegionConstraint::RightHalf.is_satisfied(individual.genome()));
        }
    }

    #[test]
    fn zero_mask_sits_in_initial_population() {
        let img = Image::black(24, 12);
        let outcome = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        // Generation 0's best intensity is exactly 0 (the seeded zero mask).
        assert_eq!(outcome.history()[0].best[0], 0.0);
    }

    #[test]
    fn per_objective_champions_come_from_the_front() {
        let img = Image::black(24, 12);
        let outcome = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        for champion in
            [outcome.best_intensity(), outcome.best_degradation(), outcome.best_distance()]
        {
            assert_eq!(champion.expect("present").rank(), 0);
        }
    }

    #[test]
    fn normalized_points_bound_intensity() {
        let img = Image::black(24, 12);
        let outcome = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        for p in outcome.pareto_points_normalized() {
            assert!((0.0..=1.0).contains(&p[0]), "normalised intensity out of range: {p:?}");
        }
    }

    #[test]
    fn ensemble_and_sequence_settings_run() {
        let img = Image::black(24, 12);
        let detectors: Vec<&dyn Detector> = vec![&Toy, &Toy];
        let outcome = ButterflyAttack::new(fast_config()).attack_ensemble(&detectors, &img);
        assert!(!outcome.pareto_points().is_empty());
        let frames = vec![Image::black(24, 12), Image::filled(24, 12, [10.0; 3])];
        let outcome = ButterflyAttack::new(fast_config()).attack_sequence(&Toy, &frames);
        assert!(!outcome.pareto_points().is_empty());
    }

    #[test]
    fn observer_streams_every_generation_with_hypervolume() {
        let img = Image::black(24, 12);
        let mut seen = Vec::new();
        let outcome =
            ButterflyAttack::new(fast_config()).attack_with_observer(&Toy, &img, |stats| {
                seen.push((stats.generation, stats.hypervolume))
            });
        let generations = fast_config().nsga2.generations;
        assert_eq!(seen.len(), generations + 1);
        assert_eq!(seen.first().map(|(g, _)| *g), Some(0));
        assert!(
            seen.iter().all(|(_, hv)| hv.is_some_and(|v| v.is_finite() && v >= 0.0)),
            "three-objective attacks track hypervolume by default"
        );
        assert_eq!(outcome.history().len(), seen.len());

        // The feature objective makes four dimensions — past the exact
        // indicator's support, so tracking turns itself off.
        let mut config = fast_config();
        config.feature_objective = true;
        let outcome = ButterflyAttack::new(config).attack(&Toy, &img);
        assert!(outcome.history().iter().all(|s| s.hypervolume.is_none()));
    }

    #[test]
    fn table2_defaults() {
        let config = AttackConfig::default();
        assert_eq!(config.nsga2.population_size, 101);
        assert_eq!(config.nsga2.generations, 100);
        assert_eq!(config.nsga2.crossover_prob, 0.5);
        assert_eq!(config.nsga2.mutation_prob, 0.45);
        assert!((config.window_fraction - 0.01).abs() < 1e-9);
        assert_eq!(config.constraint, RegionConstraint::RightHalf);
        assert!(!config.use_cache, "the paper's plain evaluation is the default");
        assert_eq!(
            config.kernel_policy,
            bea_tensor::KernelPolicy::Blocked,
            "fast kernels are the default (predictions are policy-invariant)"
        );
    }

    #[test]
    fn outcome_reports_cache_stats_only_for_caching_detectors() {
        let img = Image::black(24, 12);
        let plain = ButterflyAttack::new(fast_config()).attack(&Toy, &img);
        assert!(plain.cache_stats().is_none(), "the toy detector never caches");

        let cached = bea_detect::CachedDetector::new(bea_detect::YoloDetector::new(
            bea_detect::YoloConfig::with_seed(1),
        ));
        let mut config = fast_config();
        config.use_cache = true;
        let img = bea_scene::SyntheticKitti::smoke_set().image(0);
        let outcome = ButterflyAttack::new(config).attack(&cached, &img);
        let stats = outcome.cache_stats().expect("cached detector reports stats");
        assert!(stats.incremental > 0, "GA evaluations take the incremental path");
        assert_eq!(stats.misses, 1, "one clean forward pass per image");
        // A second run on the same detector reports only its own delta.
        let mut config = fast_config();
        config.use_cache = true;
        let again = ButterflyAttack::new(config).attack(&cached, &img);
        let delta = again.cache_stats().expect("stats present");
        assert_eq!(delta.misses, 0, "clean pass already memoized");
        assert!(delta.hits > 0);
    }
}
