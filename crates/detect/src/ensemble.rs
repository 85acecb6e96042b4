//! Detector ensembles.
//!
//! The paper builds 16-model ensembles (Table I) and attacks them with a
//! single shared mask (Section IV-B). An [`Ensemble`] exposes both the
//! member list (the attack aggregates per-member objectives, Eqs. 1–3) and
//! a fused consensus prediction, the standard ensemble defence of
//! Strauss et al. that the paper cites.

use crate::cache::CacheStats;
use crate::detector::Detector;
use crate::nms;
use crate::types::{Detection, Prediction};
use bea_image::{FilterMask, Image};
use bea_scene::BBox;
use bea_tensor::{insertion_sort_by, PoolVec, ScratchGuard};

/// An ensemble of detectors with consensus fusion.
///
/// # Examples
///
/// ```
/// use bea_detect::{Architecture, Detector, Ensemble, ModelZoo};
/// use bea_scene::SyntheticKitti;
///
/// let zoo = ModelZoo::with_defaults();
/// let ensemble = Ensemble::new(zoo.models(Architecture::Yolo, 1..=3));
/// let pred = ensemble.detect(&SyntheticKitti::evaluation_set().image(0));
/// assert!(!pred.is_empty());
/// ```
pub struct Ensemble {
    name: String,
    members: Vec<Box<dyn Detector>>,
    /// Fraction of members that must agree for a fused detection.
    quorum: f32,
    /// IoU at which two members' detections count as the same object.
    match_iou: f32,
}

impl Ensemble {
    /// Builds an ensemble with a majority quorum.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn Detector>>) -> Self {
        assert!(!members.is_empty(), "an ensemble needs at least one member");
        Self { name: format!("ensemble-{}", members.len()), members, quorum: 0.5, match_iou: 0.4 }
    }

    /// Returns a copy with a custom agreement quorum in `(0, 1]`.
    pub fn with_quorum(mut self, quorum: f32) -> Self {
        self.quorum = quorum.clamp(f32::MIN_POSITIVE, 1.0);
        self
    }

    /// Number of member detectors (`K` in the paper's Eqs. 1–3).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `false` always (construction rejects empty ensembles); present for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member detectors.
    pub fn members(&self) -> &[Box<dyn Detector>] {
        &self.members
    }

    /// Per-member predictions for one image (the attack objective needs
    /// each `f^k(img)` separately). The returned buffer is pooled — it
    /// derefs to a `Vec<Prediction>` and recycles on drop.
    pub fn member_predictions(&self, img: &Image) -> PoolVec<Prediction> {
        self.members.iter().map(|m| m.detect(img)).collect()
    }

    /// Per-member predictions on `clean` perturbed by `mask`, routed
    /// through each member's [`Detector::detect_masked`] so cache-aware
    /// members take their incremental path.
    pub fn member_predictions_masked(
        &self,
        clean: &Image,
        mask: &FilterMask,
    ) -> PoolVec<Prediction> {
        self.members.iter().map(|m| m.detect_masked(clean, mask)).collect()
    }

    /// Consensus fusion over per-member predictions: detections are
    /// clustered by class and IoU; a cluster supported by at least
    /// `quorum · K` members becomes one fused detection whose box is the
    /// support-weighted mean.
    fn fuse<P: std::borrow::Borrow<Prediction>>(&self, predictions: &[P]) -> Prediction {
        // Copy detections out of the members' predictions instead of
        // draining them via `into_vec`, which would release each member's
        // buffer from the scratch pool; all temporaries below are pooled.
        let total: usize = predictions.iter().map(|p| p.borrow().len()).sum();
        let mut all: ScratchGuard<Detection> = ScratchGuard::with_pooled_capacity(total);
        for pred in predictions {
            all.extend_from_slice(pred.borrow().as_slice());
        }
        let mut used: ScratchGuard<bool> = ScratchGuard::with_pooled_capacity(all.len());
        used.resize(all.len(), false);
        let mut fused = Prediction::new();
        let needed = (self.quorum * self.members.len() as f32).ceil().max(1.0) as usize;
        // Seed clusters from the highest-scoring unused detection.
        let mut order: ScratchGuard<usize> = ScratchGuard::with_pooled_capacity(all.len());
        order.extend(0..all.len());
        insertion_sort_by(&mut order, |&a, &b| {
            all[b].score.partial_cmp(&all[a].score).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut cluster: ScratchGuard<usize> = ScratchGuard::with_pooled_capacity(all.len().max(1));
        for &seed in order.iter() {
            if used[seed] {
                continue;
            }
            cluster.clear();
            cluster.push(seed);
            for (i, det) in all.iter().enumerate() {
                if i != seed
                    && !used[i]
                    && det.class == all[seed].class
                    && det.bbox.iou(&all[seed].bbox) >= self.match_iou
                {
                    cluster.push(i);
                }
            }
            for &i in &cluster {
                used[i] = true;
            }
            if cluster.len() < needed {
                continue;
            }
            let inv = 1.0 / cluster.len() as f32;
            let mut cx = 0.0;
            let mut cy = 0.0;
            let mut len = 0.0;
            let mut wid = 0.0;
            let mut score = 0.0;
            for &i in &cluster {
                cx += all[i].bbox.cx * inv;
                cy += all[i].bbox.cy * inv;
                len += all[i].bbox.len * inv;
                wid += all[i].bbox.wid * inv;
                score += all[i].score * inv;
            }
            let support = cluster.len() as f32 / self.members.len() as f32;
            fused.push(Detection::new(
                all[seed].class,
                BBox::new(cx, cy, len, wid),
                score * support.min(1.0),
            ));
        }
        nms::suppress(fused, 0.5)
    }
}

impl Detector for Ensemble {
    /// Consensus fusion of the members' predictions (see [`Ensemble::fuse`]).
    fn detect(&self, img: &Image) -> Prediction {
        self.fuse(&self.member_predictions(img))
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Fuses the members' masked predictions, so cache-aware members take
    /// their dirty-region incremental path.
    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        self.fuse(&self.member_predictions_masked(clean, mask))
    }

    /// One batched pass per member (members with a stackable global stage
    /// — DETR's transformer — stack the whole batch through it), then
    /// per-image fusion across members. `==`-identical to fusing scalar
    /// passes, because each member's batching is bit-transparent.
    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        out.clear();
        let per_member: Vec<Vec<Prediction>> =
            self.members.iter().map(|m| m.detect_batch(imgs)).collect();
        let mut stack: Vec<&Prediction> = Vec::with_capacity(self.members.len());
        for i in 0..imgs.len() {
            stack.clear();
            stack.extend(per_member.iter().map(|preds| &preds[i]));
            out.push(self.fuse(&stack));
        }
    }

    /// The masked-population counterpart of
    /// [`Ensemble::detect_batch_into`]: each member evaluates the whole
    /// mask population through its batched (and cache-aware) path once,
    /// then every mask's member predictions fuse.
    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let per_member: Vec<Vec<Prediction>> =
            self.members.iter().map(|m| m.detect_masked_batch(clean, masks)).collect();
        let mut stack: Vec<&Prediction> = Vec::with_capacity(self.members.len());
        for i in 0..masks.len() {
            stack.clear();
            stack.extend(per_member.iter().map(|preds| &preds[i]));
            out.push(self.fuse(&stack));
        }
    }

    /// The sum of the members' cache counters, or `None` when no member
    /// caches.
    fn cache_stats(&self) -> Option<CacheStats> {
        let mut merged = CacheStats::default();
        let mut any = false;
        for member in &self.members {
            if let Some(stats) = member.cache_stats() {
                merged.merge(&stats);
                any = true;
            }
        }
        any.then_some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_scene::ObjectClass;

    /// A detector that reports one fixed detection.
    struct Fixed(Option<Detection>);

    impl Detector for Fixed {
        fn detect(&self, _img: &Image) -> Prediction {
            Prediction::from_detections(self.0.into_iter().collect())
        }

        fn name(&self) -> &str {
            "fixed"
        }
    }

    fn car(cx: f32, score: f32) -> Detection {
        Detection::new(ObjectClass::Car, BBox::new(cx, 10.0, 10.0, 10.0), score)
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = Ensemble::new(Vec::new());
    }

    #[test]
    fn unanimous_members_fuse_to_one_detection() {
        let members: Vec<Box<dyn Detector>> = (0..4)
            .map(|i| Box::new(Fixed(Some(car(10.0 + i as f32 * 0.2, 0.9)))) as Box<dyn Detector>)
            .collect();
        let ensemble = Ensemble::new(members);
        let pred = ensemble.detect(&Image::black(32, 32));
        assert_eq!(pred.len(), 1);
        let det = pred.as_slice()[0];
        assert!((det.bbox.cx - 10.3).abs() < 0.01, "fused centre is the mean");
    }

    #[test]
    fn minority_detections_are_dropped() {
        let mut members: Vec<Box<dyn Detector>> = vec![Box::new(Fixed(Some(car(10.0, 0.9))))];
        for _ in 0..3 {
            members.push(Box::new(Fixed(None)));
        }
        let ensemble = Ensemble::new(members);
        assert!(ensemble.detect(&Image::black(32, 32)).is_empty());
    }

    #[test]
    fn quorum_is_configurable() {
        let mut members: Vec<Box<dyn Detector>> = vec![Box::new(Fixed(Some(car(10.0, 0.9))))];
        for _ in 0..3 {
            members.push(Box::new(Fixed(None)));
        }
        let ensemble = Ensemble::new(members).with_quorum(0.25);
        assert_eq!(ensemble.detect(&Image::black(32, 32)).len(), 1);
    }

    #[test]
    fn member_predictions_are_exposed() {
        let members: Vec<Box<dyn Detector>> =
            vec![Box::new(Fixed(Some(car(5.0, 0.8)))), Box::new(Fixed(None))];
        let ensemble = Ensemble::new(members);
        let preds = ensemble.member_predictions(&Image::black(16, 16));
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].len(), 1);
        assert!(preds[1].is_empty());
        assert_eq!(ensemble.len(), 2);
    }

    #[test]
    fn masked_detection_routes_through_members() {
        use crate::yolo::{YoloConfig, YoloDetector};
        use crate::CachedDetector;
        let members: Vec<Box<dyn Detector>> = vec![
            Box::new(CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)))),
            Box::new(YoloDetector::new(YoloConfig::with_seed(2))),
        ];
        let ensemble = Ensemble::new(members);
        let img = bea_scene::SyntheticKitti::smoke_set().image(0);
        let mut mask = FilterMask::zeros(img.width(), img.height());
        mask.set(1, 3, 5, 80);
        let fused = ensemble.detect_masked(&img, &mask);
        assert_eq!(fused, ensemble.detect(&mask.apply(&img)));
        // Only the first member caches; the merged stats reflect its pass.
        let stats = ensemble.cache_stats().expect("one member caches");
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn batched_paths_match_scalar_paths() {
        use crate::detr::{DetrConfig, DetrDetector};
        use crate::yolo::{YoloConfig, YoloDetector};
        use crate::CachedDetector;
        let members: Vec<Box<dyn Detector>> = vec![
            Box::new(CachedDetector::new(YoloDetector::new(YoloConfig::with_seed(1)))),
            Box::new(DetrDetector::new(DetrConfig::with_seed(2)).unwrap()),
        ];
        let ensemble = Ensemble::new(members);
        let img = bea_scene::SyntheticKitti::smoke_set().image(0);
        let other = bea_scene::SyntheticKitti::smoke_set().image(1);
        let imgs: Vec<&Image> = vec![&img, &other];
        let batch = ensemble.detect_batch(&imgs);
        assert_eq!(batch.len(), 2);
        for (i, pred) in batch.iter().enumerate() {
            assert_eq!(pred, &ensemble.detect(imgs[i]), "image {i} must match the scalar path");
        }
        let mut a = FilterMask::zeros(img.width(), img.height());
        a.set(0, 2, 3, 90);
        let b = FilterMask::zeros(img.width(), img.height());
        let masks: Vec<&FilterMask> = vec![&a, &b];
        let masked = ensemble.detect_masked_batch(&img, &masks);
        assert_eq!(masked.len(), 2);
        for (i, pred) in masked.iter().enumerate() {
            assert_eq!(pred, &ensemble.detect_masked(&img, masks[i]), "mask {i} must match");
        }
    }

    #[test]
    fn uncached_members_report_no_stats() {
        let ensemble = Ensemble::new(vec![Box::new(Fixed(None)) as Box<dyn Detector>]);
        assert!(ensemble.cache_stats().is_none());
    }

    #[test]
    fn distinct_objects_stay_separate() {
        let members: Vec<Box<dyn Detector>> = vec![
            Box::new(Fixed(Some(car(10.0, 0.9)))),
            Box::new(Fixed(Some(car(10.0, 0.9)))),
            Box::new(Fixed(Some(car(100.0, 0.9)))),
            Box::new(Fixed(Some(car(100.0, 0.9)))),
        ];
        let ensemble = Ensemble::new(members);
        assert_eq!(ensemble.detect(&Image::black(128, 32)).len(), 2);
    }
}
