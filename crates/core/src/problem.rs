//! The butterfly attack as an NSGA-II [`Problem`].

use crate::grid::{resolve_jobs, run_sharded};
use crate::objectives::degradation::obj_degrad;
use crate::objectives::distance::DistanceField;
use crate::objectives::feature::FeatureObjective;
use crate::objectives::intensity::obj_intensity;
use bea_detect::{Detector, Prediction};
use bea_image::{FilterMask, Image, RegionConstraint};
use bea_nsga2::{Direction, Problem};
use bea_tensor::norm::NormKind;

/// The paper's multi-objective optimisation problem over filter masks.
///
/// One problem instance covers every setting of Sections III–IV with the
/// same machinery:
///
/// * **single detector, single image** — the standard attack,
/// * **K detectors, single image** — the ensemble attack; `obj_degrad` and
///   `obj_dist` are averaged over the members (Eqs. 2 and 3) while
///   `obj_intensity` is shared (Eq. 1),
/// * **single detector, T frames** — the temporal attack: one mask must be
///   effective across the whole sequence, so objectives average over
///   frames,
/// * optional **grey-box feature objective** — a fourth, maximised
///   objective measuring feature-heatmap displacement.
///
/// Clean predictions, distance fields and clean heatmaps are computed once
/// at construction; each [`Problem::evaluate`] call costs `K · T` detector
/// forward passes on the perturbed image(s).
///
/// # Examples
///
/// ```no_run
/// use bea_core::ButterflyProblem;
/// use bea_detect::{ModelZoo, Architecture};
/// use bea_image::RegionConstraint;
/// use bea_scene::SyntheticKitti;
///
/// let zoo = ModelZoo::with_defaults();
/// let yolo = zoo.model(Architecture::Yolo, 1);
/// let img = SyntheticKitti::evaluation_set().image(0);
/// let problem =
///     ButterflyProblem::single(yolo.as_ref(), &img, 2.0, RegionConstraint::RightHalf);
/// assert_eq!(bea_nsga2::Problem::directions(&problem).len(), 3);
/// ```
pub struct ButterflyProblem<'a> {
    detectors: Vec<&'a dyn Detector>,
    frames: Vec<Image>,
    /// Clean predictions indexed `[detector][frame]`.
    clean: Vec<Vec<Prediction>>,
    /// Distance fields indexed `[detector][frame]`.
    dist_fields: Vec<Vec<DistanceField>>,
    /// Clean heatmaps for the grey-box objective, when enabled.
    feature: Option<Vec<Vec<FeatureObjective>>>,
    norm: NormKind,
    constraint: RegionConstraint,
    /// Ablation A1: divide the distance objective by the perturbed-pixel
    /// count (Algorithm 2 line 24; `true` is the paper's design).
    distance_count_division: bool,
    /// Physical-robustness transforms (paper Section VI future work):
    /// `(dx, dy, brightness)` placements the mask is averaged over.
    /// Always contains the identity transform.
    placements: Vec<(i32, i32, f32)>,
    /// Route identity-brightness evaluations through
    /// [`Detector::detect_masked`], letting cache-aware detectors patch a
    /// memoized clean forward pass instead of recomputing it.
    use_cache: bool,
    /// Worker threads [`Problem::evaluate_population`] spreads a
    /// population over (`0` = every core); [`crate::ButterflyAttack`]
    /// sets it from `AttackConfig::threads`.
    threads: usize,
}

impl<'a> ButterflyProblem<'a> {
    /// The standard setting: one detector, one image.
    pub fn single(
        detector: &'a dyn Detector,
        img: &Image,
        epsilon: f32,
        constraint: RegionConstraint,
    ) -> Self {
        Self::build(vec![detector], vec![img.clone()], epsilon, constraint)
    }

    /// The ensemble setting of Section IV-B: one mask against K detectors.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty.
    pub fn ensemble(
        detectors: Vec<&'a dyn Detector>,
        img: &Image,
        epsilon: f32,
        constraint: RegionConstraint,
    ) -> Self {
        Self::build(detectors, vec![img.clone()], epsilon, constraint)
    }

    /// The temporal setting of Section IV-B: one mask effective across a
    /// frame sequence.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or the frames disagree in size.
    pub fn temporal(
        detector: &'a dyn Detector,
        frames: Vec<Image>,
        epsilon: f32,
        constraint: RegionConstraint,
    ) -> Self {
        Self::build(vec![detector], frames, epsilon, constraint)
    }

    /// The fully general setting: K detectors × T frames.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` or `frames` is empty, or frames disagree in
    /// size.
    pub fn build(
        detectors: Vec<&'a dyn Detector>,
        frames: Vec<Image>,
        epsilon: f32,
        constraint: RegionConstraint,
    ) -> Self {
        assert!(!detectors.is_empty(), "the attack needs at least one detector");
        assert!(!frames.is_empty(), "the attack needs at least one frame");
        let (w, h) = (frames[0].width(), frames[0].height());
        assert!(
            frames.iter().all(|f| f.width() == w && f.height() == h),
            "all frames must share one size"
        );
        let mut clean = Vec::with_capacity(detectors.len());
        let mut dist_fields = Vec::with_capacity(detectors.len());
        for detector in &detectors {
            let preds: Vec<Prediction> = frames.iter().map(|f| detector.detect(f)).collect();
            let fields = preds.iter().map(|p| DistanceField::new(w, h, p, epsilon)).collect();
            clean.push(preds);
            dist_fields.push(fields);
        }
        Self {
            detectors,
            frames,
            clean,
            dist_fields,
            feature: None,
            norm: NormKind::L2,
            constraint,
            distance_count_division: true,
            placements: vec![(0, 0, 1.0)],
            use_cache: false,
            threads: 1,
        }
    }

    /// Enables the grey-box feature objective (Section II), adding a
    /// fourth, maximised objective. Detectors that expose no heatmap
    /// contribute zero.
    pub fn with_feature_objective(mut self) -> Self {
        let feature = self
            .detectors
            .iter()
            .map(|d| self.frames.iter().map(|f| FeatureObjective::new(*d, f)).collect())
            .collect();
        self.feature = Some(feature);
        self
    }

    /// Selects the intensity norm (the paper uses L2).
    pub fn with_norm(mut self, norm: NormKind) -> Self {
        self.norm = norm;
        self
    }

    /// Physical-robustness evaluation (Expectation over Transformations,
    /// the paper's Section VI future work on physically available
    /// attacks): each candidate mask is additionally evaluated under the
    /// given placement shifts and illumination factors, and the
    /// degradation / distance objectives average over all placements. The
    /// identity placement is always included.
    pub fn with_placement_robustness(mut self, shifts: &[(i32, i32)], brightness: &[f32]) -> Self {
        let mut placements = vec![(0, 0, 1.0f32)];
        for &(dx, dy) in shifts {
            if (dx, dy) != (0, 0) {
                placements.push((dx, dy, 1.0));
            }
        }
        for &b in brightness {
            if (b - 1.0).abs() > 1e-6 {
                placements.push((0, 0, b));
            }
        }
        self.placements = placements;
        self
    }

    /// The placement transforms evaluated per candidate (length ≥ 1).
    pub fn placement_count(&self) -> usize {
        self.placements.len()
    }

    /// Routes identity-brightness evaluations through
    /// [`Detector::detect_masked`] — the dirty-region incremental hot path
    /// when the detectors are [`bea_detect::CachedDetector`]s. Plain
    /// detectors are unaffected (their default `detect_masked` applies the
    /// mask and detects in full), so results are identical either way.
    /// Brightness placements change every pixel and always take the full
    /// path.
    pub fn with_cache(mut self) -> Self {
        self.use_cache = true;
        self
    }

    /// Spreads [`Problem::evaluate_population`] over `threads` workers
    /// (`0` = every core). Results are identical at any count.
    pub(crate) fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Whether evaluation routes through the masked/incremental path.
    pub fn uses_cache(&self) -> bool {
        self.use_cache
    }

    /// The detectors under attack (in construction order).
    pub fn detectors(&self) -> &[&'a dyn Detector] {
        &self.detectors
    }

    /// The sum of the detectors' cache counters, or `None` when no
    /// detector caches (see [`Detector::cache_stats`]).
    pub fn cache_stats(&self) -> Option<bea_detect::CacheStats> {
        let mut merged = bea_detect::CacheStats::default();
        let mut any = false;
        for detector in &self.detectors {
            if let Some(stats) = detector.cache_stats() {
                merged.merge(&stats);
                any = true;
            }
        }
        any.then_some(merged)
    }

    /// Ablation A1: disables Algorithm 2's division by the perturbed-pixel
    /// count (the design choice the paper calls "crucial"). The raw
    /// weighted sum is rescaled by the gene count so its magnitude stays
    /// comparable.
    pub fn without_distance_count_division(mut self) -> Self {
        self.distance_count_division = false;
        self
    }

    /// Mask width expected by this problem.
    pub fn width(&self) -> usize {
        self.frames[0].width()
    }

    /// Mask height expected by this problem.
    pub fn height(&self) -> usize {
        self.frames[0].height()
    }

    /// Number of detectors (`K`).
    pub fn detector_count(&self) -> usize {
        self.detectors.len()
    }

    /// Number of frames (`T`).
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The cached clean prediction of detector `k` on frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn clean_prediction(&self, detector: usize, frame: usize) -> &Prediction {
        &self.clean[detector][frame]
    }

    /// The perturbation-region constraint.
    pub fn constraint(&self) -> RegionConstraint {
        self.constraint
    }
}

impl Problem for ButterflyProblem<'_> {
    type Genome = FilterMask;

    fn directions(&self) -> Vec<Direction> {
        let mut dirs = vec![
            Direction::Minimize, // obj_intensity
            Direction::Minimize, // obj_degrad (lower = more degradation)
            Direction::Maximize, // obj_dist (higher = more unrelated)
        ];
        if self.feature.is_some() {
            dirs.push(Direction::Maximize); // feature displacement
        }
        dirs
    }

    fn evaluate(&self, mask: &FilterMask) -> Vec<f64> {
        let intensity = obj_intensity(mask, self.norm);
        let mut degrad = 0.0;
        let mut dist = 0.0;
        let mut feat = 0.0;
        for &(dx, dy, brightness) in &self.placements {
            // The identity placement reuses the mask; shifted/darkened
            // variants model physical placement error (Section VI).
            let placed;
            let effective = if dx == 0 && dy == 0 {
                mask
            } else {
                placed = mask.shifted(dx, dy);
                &placed
            };
            for (ti, frame) in self.frames.iter().enumerate() {
                let identity_brightness = (brightness - 1.0).abs() <= 1e-6;
                // The cached path never materialises the perturbed image
                // for detection; it is still built lazily when the feature
                // objective (which reads perturbed pixels) is enabled.
                // Either way the pixel buffer comes from the per-thread
                // scratch arena (`Image::clone` is pool-backed) and
                // recycles when `perturbed_lazy` drops, so a generation of
                // evaluations reuses one buffer instead of cloning the
                // base image through the allocator per genome.
                let mut perturbed_lazy: Option<Image> = None;
                let make_perturbed = || {
                    if identity_brightness {
                        effective.apply(frame)
                    } else {
                        effective.apply(frame).brightness_scaled(brightness)
                    }
                };
                for (ki, detector) in self.detectors.iter().enumerate() {
                    // Brightness transforms touch every pixel, so only
                    // identity-brightness placements can take the
                    // dirty-region path.
                    let prediction = if self.use_cache && identity_brightness {
                        detector.detect_masked(frame, effective)
                    } else {
                        detector.detect(perturbed_lazy.get_or_insert_with(&make_perturbed))
                    };
                    degrad += obj_degrad(&self.clean[ki][ti], &prediction);
                    dist += if self.distance_count_division {
                        self.dist_fields[ki][ti].objective_normalized(effective)
                    } else {
                        // Same weighting, no per-pixel-count normalisation;
                        // rescaled to a comparable magnitude.
                        self.dist_fields[ki][ti].objective_without_count_division(effective)
                            / (self.dist_fields[ki][ti].values().len() as f64 * 255.0 * 2.0)
                    };
                    if let Some(feature) = &self.feature {
                        feat += feature[ki][ti].objective(
                            *detector,
                            perturbed_lazy.get_or_insert_with(&make_perturbed),
                        );
                    }
                }
            }
        }
        let scale = (self.detectors.len() * self.frames.len() * self.placements.len()) as f64;
        let mut objectives = vec![intensity, degrad / scale, dist / scale];
        if self.feature.is_some() {
            objectives.push(feat / scale);
        }
        objectives
    }

    /// The per-generation hot path. The population splits into
    /// ⌈n / threads⌉-mask contiguous chunks, one per [`run_sharded`]
    /// worker (on the calling thread when one chunk covers it), and each
    /// chunk makes one batched detector call per `(placement, frame,
    /// detector)` cell instead of one scalar call per genome, so
    /// detectors with a stackable global stage (DETR behind a
    /// [`bea_detect::CachedDetector`]) push the chunk through a single
    /// stacked transformer pass and stream their weights once per call.
    ///
    /// Each mask's objective accumulators receive exactly the same
    /// contributions in exactly the same order as [`Problem::evaluate`]
    /// (placements, then frames, then detectors), so the returned vectors
    /// are bit-identical to the scalar path at any thread count — the
    /// determinism suite holds campaigns to byte-identical CSVs across
    /// batching modes.
    fn evaluate_population(&self, masks: &[FilterMask]) -> Vec<Vec<f64>> {
        let threads = resolve_jobs(self.threads).min(masks.len()).max(1);
        if threads == 1 {
            return self.evaluate_chunk(masks);
        }
        let chunks: Vec<&[FilterMask]> = masks.chunks(masks.len().div_ceil(threads)).collect();
        run_sharded(chunks.len(), chunks.len(), |c| self.evaluate_chunk(chunks[c]))
            .into_iter()
            .flatten()
            .collect()
    }

    fn seeded_genomes(&self) -> Vec<FilterMask> {
        // "a zero mask is added to the initial population (to keep the
        // original image)".
        vec![FilterMask::zeros(self.width(), self.height())]
    }

    fn repair(&self, mask: &mut FilterMask) {
        self.constraint.apply(mask);
    }
}

impl ButterflyProblem<'_> {
    /// One chunk of [`Problem::evaluate_population`]: a single batched
    /// detector call per `(placement, frame, detector)` cell.
    fn evaluate_chunk(&self, masks: &[FilterMask]) -> Vec<Vec<f64>> {
        if masks.len() <= 1 {
            return masks.iter().map(|m| self.evaluate(m)).collect();
        }
        let n = masks.len();
        let intensity: Vec<f64> = masks.iter().map(|m| obj_intensity(m, self.norm)).collect();
        let mut degrad = vec![0.0f64; n];
        let mut dist = vec![0.0f64; n];
        let mut feat = vec![0.0f64; n];
        for &(dx, dy, brightness) in &self.placements {
            let identity_brightness = (brightness - 1.0).abs() <= 1e-6;
            let placed: Vec<FilterMask>;
            let effective: Vec<&FilterMask> = if dx == 0 && dy == 0 {
                masks.iter().collect()
            } else {
                placed = masks.iter().map(|m| m.shifted(dx, dy)).collect();
                placed.iter().collect()
            };
            let cached_path = self.use_cache && identity_brightness;
            for (ti, frame) in self.frames.iter().enumerate() {
                // The perturbed images are only materialised when some
                // consumer needs pixels: the full detect path, or the
                // feature objective. The buffers recycle into the scratch
                // arena when `perturbed` drops at the end of the frame.
                let perturbed: Vec<Image> = if !cached_path || self.feature.is_some() {
                    effective
                        .iter()
                        .map(|mask| {
                            if identity_brightness {
                                mask.apply(frame)
                            } else {
                                mask.apply(frame).brightness_scaled(brightness)
                            }
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                for (ki, detector) in self.detectors.iter().enumerate() {
                    let predictions = if cached_path {
                        detector.detect_masked_batch(frame, &effective)
                    } else {
                        let refs: Vec<&Image> = perturbed.iter().collect();
                        detector.detect_batch(&refs)
                    };
                    debug_assert_eq!(predictions.len(), n);
                    for (i, prediction) in predictions.iter().enumerate() {
                        degrad[i] += obj_degrad(&self.clean[ki][ti], prediction);
                        dist[i] += if self.distance_count_division {
                            self.dist_fields[ki][ti].objective_normalized(effective[i])
                        } else {
                            self.dist_fields[ki][ti].objective_without_count_division(effective[i])
                                / (self.dist_fields[ki][ti].values().len() as f64 * 255.0 * 2.0)
                        };
                        if let Some(feature) = &self.feature {
                            feat[i] += feature[ki][ti].objective(*detector, &perturbed[i]);
                        }
                    }
                }
            }
        }
        let scale = (self.detectors.len() * self.frames.len() * self.placements.len()) as f64;
        (0..n)
            .map(|i| {
                let mut objectives = vec![intensity[i], degrad[i] / scale, dist[i] / scale];
                if self.feature.is_some() {
                    objectives.push(feat[i] / scale);
                }
                objectives
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_detect::{Detection, YoloConfig, YoloDetector};
    use bea_scene::{BBox, ObjectClass, SyntheticKitti};

    /// A deterministic fake detector: reports one car unless the mean of
    /// the right half exceeds a threshold, in which case the car shrinks.
    struct Toy;

    impl Detector for Toy {
        fn detect(&self, img: &Image) -> Prediction {
            let mut acc = 0.0;
            let mut n = 0;
            for y in 0..img.height() {
                for x in (img.width() / 2)..img.width() {
                    acc += img.pixel(x, y)[0];
                    n += 1;
                }
            }
            let bright = acc / n.max(1) as f32 > 40.0;
            let size = if bright { 4.0 } else { 8.0 };
            Prediction::from_detections(vec![Detection::new(
                ObjectClass::Car,
                BBox::new(10.0, 10.0, size, size),
                0.9,
            )])
        }

        fn name(&self) -> &str {
            "toy"
        }
    }

    #[test]
    fn zero_mask_scores_no_degradation() {
        let img = Image::black(32, 16);
        let problem = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full);
        let objectives = problem.evaluate(&FilterMask::zeros(32, 16));
        assert_eq!(objectives.len(), 3);
        assert_eq!(objectives[0], 0.0, "zero intensity");
        assert_eq!(objectives[1], 1.0, "no degradation");
        assert_eq!(objectives[2], 0.0, "no perturbed pixels");
    }

    #[test]
    fn effective_mask_lowers_degradation() {
        let img = Image::black(32, 16);
        let problem = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::RightHalf);
        let mut mask = FilterMask::zeros(32, 16);
        for y in 0..16 {
            for x in 16..32 {
                mask.set(0, y, x, 120);
            }
        }
        let objectives = problem.evaluate(&mask);
        assert!(objectives[1] < 1.0, "the toy detector's box should shrink");
        assert!(objectives[0] > 0.0);
        assert!(objectives[2] > 0.0, "the perturbation is far from the box at (10,10)");
    }

    #[test]
    fn seeded_genome_is_the_zero_mask() {
        let img = Image::black(16, 8);
        let problem = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full);
        let seeds = problem.seeded_genomes();
        assert_eq!(seeds.len(), 1);
        assert!(seeds[0].is_zero());
        assert_eq!((seeds[0].width(), seeds[0].height()), (16, 8));
    }

    #[test]
    fn repair_projects_onto_region() {
        let img = Image::black(16, 8);
        let problem = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::RightHalf);
        let mut mask = FilterMask::zeros(16, 8);
        mask.set(0, 0, 0, 100);
        mask.set(0, 0, 12, 100);
        problem.repair(&mut mask);
        assert_eq!(mask.at(0, 0, 0), 0, "left-half gene zeroed");
        assert_eq!(mask.at(0, 0, 12), 100, "right-half gene kept");
    }

    #[test]
    fn ensemble_averages_and_shares_intensity() {
        // Two identical toy detectors: averaged objectives must equal the
        // single-detector ones (Eqs. 1-3 with identical members).
        let img = Image::black(32, 16);
        let single = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full);
        let pair = ButterflyProblem::ensemble(vec![&Toy, &Toy], &img, 1.0, RegionConstraint::Full);
        assert_eq!(pair.detector_count(), 2);
        let mut mask = FilterMask::zeros(32, 16);
        mask.set(1, 3, 28, 77);
        assert_eq!(single.evaluate(&mask), pair.evaluate(&mask));
    }

    #[test]
    fn temporal_averages_over_frames() {
        let img = Image::black(32, 16);
        let bright = Image::filled(32, 16, [90.0, 0.0, 0.0]);
        // Frame 1 is already bright: the toy detector reports the shrunken
        // box on it even unperturbed, so its clean prediction matches and
        // only frame ordering matters for the average.
        let problem = ButterflyProblem::temporal(
            &Toy,
            vec![img.clone(), bright.clone()],
            1.0,
            RegionConstraint::Full,
        );
        assert_eq!(problem.frame_count(), 2);
        let objectives = problem.evaluate(&FilterMask::zeros(32, 16));
        assert_eq!(objectives[1], 1.0, "zero mask degrades neither frame");
    }

    #[test]
    fn feature_objective_adds_a_direction() {
        let data = SyntheticKitti::smoke_set();
        let img = data.image(0);
        let yolo = YoloDetector::new(YoloConfig::with_seed(1));
        let problem = ButterflyProblem::single(&yolo, &img, 2.0, RegionConstraint::Full)
            .with_feature_objective();
        let dirs = problem.directions();
        assert_eq!(dirs.len(), 4);
        assert_eq!(dirs[3], Direction::Maximize);
        let mut mask = FilterMask::zeros(img.width(), img.height());
        mask.set(0, 10, 10, 100);
        let objectives = problem.evaluate(&mask);
        assert_eq!(objectives.len(), 4);
        assert!(objectives[3] > 0.0, "a visible perturbation moves the heatmap");
    }

    #[test]
    fn placement_robustness_averages_over_transforms() {
        // The Toy detector reacts to right-half brightness; a mask shifted
        // off the trigger area loses effect, so the EoT average sits
        // between "always effective" and "never effective".
        let img = Image::black(32, 16);
        let plain = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full);
        let robust = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full)
            .with_placement_robustness(&[(-40, 0)], &[]);
        assert_eq!(robust.placement_count(), 2);
        let mut mask = FilterMask::zeros(32, 16);
        for y in 0..16 {
            for x in 16..32 {
                mask.set(0, y, x, 120);
            }
        }
        let d_plain = plain.evaluate(&mask)[1];
        let d_robust = robust.evaluate(&mask)[1];
        assert!(d_plain < 1.0, "the nominal placement must degrade");
        // Shifting by -40 pushes the whole mask off-canvas: that placement
        // contributes obj_degrad = 1.0, so the average is higher (weaker).
        let expected = (d_plain + 1.0) / 2.0;
        assert!((d_robust - expected).abs() < 1e-9, "got {d_robust}, want {expected}");
    }

    #[test]
    fn brightness_transform_changes_the_input() {
        // A brightness-only placement must evaluate the detector on a
        // different image (the Toy detector sees the right half).
        let img = Image::filled(32, 16, [100.0; 3]);
        let plain = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full);
        let robust = ButterflyProblem::single(&Toy, &img, 1.0, RegionConstraint::Full)
            .with_placement_robustness(&[], &[0.2]);
        let zero = FilterMask::zeros(32, 16);
        // Plain: unperturbed image, no degradation. Robust: the darkened
        // variant flips the Toy detector's brightness branch on one of the
        // two placements.
        assert_eq!(plain.evaluate(&zero)[1], 1.0);
        assert!(robust.evaluate(&zero)[1] < 1.0);
    }

    #[test]
    fn cached_evaluation_matches_uncached() {
        let img = SyntheticKitti::smoke_set().image(0);
        let plain = YoloDetector::new(YoloConfig::with_seed(1));
        let cached = bea_detect::CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
        let p_plain = ButterflyProblem::single(&plain, &img, 2.0, RegionConstraint::Full);
        let p_cached =
            ButterflyProblem::single(&cached, &img, 2.0, RegionConstraint::Full).with_cache();
        assert!(p_cached.uses_cache() && !p_plain.uses_cache());
        let mut mask = FilterMask::zeros(img.width(), img.height());
        mask.set(0, 6, 9, 90);
        mask.set(2, 7, 10, -60);
        assert_eq!(p_plain.evaluate(&mask), p_cached.evaluate(&mask));
        let stats = p_cached.cache_stats().expect("cached detector reports stats");
        assert_eq!(stats.incremental, 1);
        assert!(p_plain.cache_stats().is_none());
        assert_eq!(p_cached.detectors().len(), 1);
    }

    #[test]
    fn brightness_placements_bypass_the_cache() {
        // Brightness transforms touch every pixel, so only the identity
        // placement may take the incremental path.
        let img = SyntheticKitti::smoke_set().image(0);
        let cached = bea_detect::CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
        let problem = ButterflyProblem::single(&cached, &img, 2.0, RegionConstraint::Full)
            .with_placement_robustness(&[], &[0.5])
            .with_cache();
        let mut mask = FilterMask::zeros(img.width(), img.height());
        mask.set(1, 4, 4, 70);
        let _ = problem.evaluate(&mask);
        let stats = problem.cache_stats().expect("stats present");
        assert_eq!(stats.incremental, 1, "only the identity placement is incremental");
    }

    #[test]
    fn second_evaluation_reuses_pooled_buffers() {
        // The per-thread scratch arena converges after one evaluation: a
        // second, identical evaluation must be served entirely from
        // recycled buffers (no pool growth).
        let img = SyntheticKitti::smoke_set().image(0);
        let yolo = YoloDetector::new(YoloConfig::with_seed(1));
        let problem = ButterflyProblem::single(&yolo, &img, 2.0, RegionConstraint::Full);
        let mut mask = FilterMask::zeros(img.width(), img.height());
        mask.set(0, 5, 9, 90);
        let first = problem.evaluate(&mask);
        let warm = bea_tensor::scratch::thread_stats();
        let second = problem.evaluate(&mask);
        let delta = bea_tensor::scratch::thread_stats().since(&warm);
        assert_eq!(first, second, "evaluation must be deterministic");
        assert_eq!(delta.misses, 0, "steady-state evaluation must not grow the pool");
        assert!(delta.hits > 0, "pooled buffers must actually be reused");
    }

    #[test]
    fn population_evaluation_matches_scalar_evaluation_bitwise() {
        let img = SyntheticKitti::smoke_set().image(0);
        let mut masks = Vec::new();
        masks.push(FilterMask::zeros(img.width(), img.height()));
        for (i, (x, y)) in [(9usize, 6usize), (40, 12), (70, 20)].iter().enumerate() {
            let mut mask = FilterMask::zeros(img.width(), img.height());
            mask.set(0, *y, *x, 90);
            mask.set(2, *y + 1, *x + 1, -50 - i as i16);
            masks.push(mask);
        }
        // Plain detector, plus brightness placements and the feature
        // objective to cover every accumulator.
        let yolo = YoloDetector::new(YoloConfig::with_seed(1));
        let problem = ButterflyProblem::single(&yolo, &img, 2.0, RegionConstraint::Full)
            .with_placement_robustness(&[(3, 0)], &[0.6])
            .with_feature_objective();
        let batched = problem.evaluate_population(&masks);
        for (i, mask) in masks.iter().enumerate() {
            assert_eq!(batched[i], problem.evaluate(mask), "mask {i}");
        }
        // Cached detector: the population path routes through
        // detect_masked_batch and must still match.
        let cached = bea_detect::CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)));
        let p_cached =
            ButterflyProblem::single(&cached, &img, 2.0, RegionConstraint::Full).with_cache();
        let batched = p_cached.evaluate_population(&masks);
        let plain = ButterflyProblem::single(&yolo, &img, 2.0, RegionConstraint::Full);
        for (i, mask) in masks.iter().enumerate() {
            assert_eq!(batched[i], plain.evaluate(mask), "cached mask {i}");
        }
        let stats = p_cached.cache_stats().expect("cached detector reports stats");
        assert_eq!(stats.incremental, 3, "three non-zero masks take the incremental path");
    }

    #[test]
    fn population_fan_out_matches_scalar_evaluation_at_any_thread_count() {
        // Populations of 1, 2, 5 and 12 masks (prefixes of one list that
        // starts with the zero mask), spread over 0 (every core), 1, 2
        // and 3 workers, against per-mask `evaluate` — plain and cached,
        // on YOLO and DETR.
        let img = SyntheticKitti::smoke_set().image(1);
        let (w, h) = (img.width(), img.height());
        let mut rng = bea_tensor::WeightInit::from_seed(29);
        let masks: Vec<FilterMask> = (0..12)
            .map(|i| {
                let mut mask = FilterMask::zeros(w, h);
                for _ in 0..i * 3 {
                    let x = w / 2 + (rng.uniform(0.0, 1.0) * (w / 2) as f32) as usize % (w / 2);
                    let y = (rng.uniform(0.0, 1.0) * h as f32) as usize % h;
                    let c = (rng.uniform(0.0, 1.0) * 3.0) as usize % 3;
                    mask.set(c, y, x, rng.uniform(-120.0, 120.0) as i16);
                }
                mask
            })
            .collect();
        let zoo = bea_detect::ModelZoo::with_defaults();
        for arch in [bea_detect::Architecture::Yolo, bea_detect::Architecture::Detr] {
            for cached in [false, true] {
                let detector = if cached { zoo.cached_model(arch, 2) } else { zoo.model(arch, 2) };
                let mut problem = ButterflyProblem::single(
                    detector.as_ref(),
                    &img,
                    2.0,
                    RegionConstraint::RightHalf,
                );
                if cached {
                    problem = problem.with_cache();
                }
                let scalar: Vec<Vec<f64>> = masks.iter().map(|m| problem.evaluate(m)).collect();
                for threads in [0, 1, 2, 3] {
                    problem = problem.with_threads(threads);
                    for n in [1, 2, 5, 12] {
                        assert_eq!(
                            problem.evaluate_population(&masks[..n]),
                            scalar[..n],
                            "{arch:?} cached={cached} threads={threads} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn empty_detector_list_panics() {
        let img = Image::black(8, 8);
        let _ = ButterflyProblem::build(Vec::new(), vec![img], 1.0, RegionConstraint::Full);
    }

    #[test]
    #[should_panic(expected = "share one size")]
    fn mismatched_frames_panic() {
        let _ = ButterflyProblem::temporal(
            &Toy,
            vec![Image::black(8, 8), Image::black(16, 8)],
            1.0,
            RegionConstraint::Full,
        );
    }
}
