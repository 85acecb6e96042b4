//! The object-detector abstraction.

use crate::cache::CacheStats;
use crate::grad::{GradientObjective, InputGradient};
use crate::types::Prediction;
use bea_image::{FilterMask, Image};
use bea_tensor::FeatureMap;

/// An object detector: the paper's function
/// `f : R^{L×W×3} → B^n`.
///
/// The trait is object-safe so ensembles and the attack driver can hold
/// heterogeneous detectors behind `Box<dyn Detector>` / `&dyn Detector`.
///
/// # Examples
///
/// ```
/// use bea_detect::{Detector, Prediction};
/// use bea_image::Image;
///
/// struct Blind;
/// impl Detector for Blind {
///     fn detect(&self, _img: &Image) -> Prediction { Prediction::new() }
///     fn name(&self) -> &str { "blind" }
/// }
///
/// let d = Blind;
/// assert!(d.detect(&Image::black(8, 8)).is_empty());
/// ```
pub trait Detector: Send + Sync {
    /// Runs the detector on an image, returning all valid detections.
    fn detect(&self, img: &Image) -> Prediction;

    /// A short human-readable identifier (e.g. `"yolo-s7"`).
    fn name(&self) -> &str;

    /// An optional per-class feature heatmap (one channel per class) used
    /// for grey-box introspection; the paper "interpret\[s\] the results
    /// obtained with NSGA-II with the feature heatmap of the detection".
    ///
    /// The default implementation returns an empty map, meaning the
    /// detector exposes no internals (pure black-box).
    fn heatmap(&self, img: &Image) -> FeatureMap {
        let _ = img;
        FeatureMap::default()
    }

    /// Detects on `clean` perturbed by `mask` — the attack's hot path.
    ///
    /// The default applies the mask and runs [`Detector::detect`];
    /// cache-aware wrappers ([`crate::cache::CachedDetector`]) override
    /// this with the dirty-region incremental path. Either way the result
    /// must equal `self.detect(&mask.apply(clean))`.
    ///
    /// # Panics
    ///
    /// Panics if the mask and image dimensions disagree (as
    /// [`bea_image::FilterMask::apply`] does).
    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        self.detect(&mask.apply(clean))
    }

    /// Detects on a whole batch of images, writing one prediction per
    /// image (in order) into `out`.
    ///
    /// The out-parameter style lets steady-state callers reuse the vector's
    /// capacity across generations. `out` is cleared first; each entry must
    /// equal `self.detect(imgs[i])` — batching is a pure speed knob, never
    /// an approximation. The default simply loops; detectors with a
    /// stackable global stage (DETR's transformer) override this to push
    /// the whole population through one stacked forward pass.
    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        out.clear();
        out.extend(imgs.iter().map(|img| self.detect(img)));
    }

    /// Convenience wrapper over [`Detector::detect_batch_into`] returning a
    /// fresh vector.
    fn detect_batch(&self, imgs: &[&Image]) -> Vec<Prediction> {
        let mut out = Vec::with_capacity(imgs.len());
        self.detect_batch_into(imgs, &mut out);
        out
    }

    /// Detects `clean` under each mask of a population, writing one
    /// prediction per mask (in order) into `out` — the batched counterpart
    /// of [`Detector::detect_masked`], and the attack's per-generation hot
    /// path.
    ///
    /// `out` is cleared first; each entry must equal
    /// `self.detect_masked(clean, masks[i])`. Cache-aware wrappers
    /// ([`crate::cache::CachedDetector`]) override this to group the
    /// incremental evaluations into one batched global stage.
    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        out.extend(masks.iter().map(|mask| self.detect_masked(clean, mask)));
    }

    /// Convenience wrapper over [`Detector::detect_masked_batch_into`]
    /// returning a fresh vector.
    fn detect_masked_batch(&self, clean: &Image, masks: &[&FilterMask]) -> Vec<Prediction> {
        let mut out = Vec::with_capacity(masks.len());
        self.detect_masked_batch_into(clean, masks, &mut out);
        out
    }

    /// Cache counters, when this detector memoizes forward passes.
    ///
    /// `None` (the default) means the detector runs every pass in full.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// White-box access: d(objective)/d(image) for this detector's
    /// confidence objective on `img` (see [`GradientObjective`]).
    ///
    /// `None` (the default) means the detector is black-box only —
    /// gradient-based attacks fall back to their degenerate outcome.
    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        let _ = (img, objective);
        None
    }
}

impl<T: Detector + ?Sized> Detector for &T {
    fn detect(&self, img: &Image) -> Prediction {
        (**self).detect(img)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn heatmap(&self, img: &Image) -> FeatureMap {
        (**self).heatmap(img)
    }

    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        (**self).detect_masked(clean, mask)
    }

    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        (**self).detect_batch_into(imgs, out);
    }

    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        (**self).detect_masked_batch_into(clean, masks, out);
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }

    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        (**self).input_gradient(img, objective)
    }
}

impl<T: Detector + ?Sized> Detector for Box<T> {
    fn detect(&self, img: &Image) -> Prediction {
        (**self).detect(img)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn heatmap(&self, img: &Image) -> FeatureMap {
        (**self).heatmap(img)
    }

    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        (**self).detect_masked(clean, mask)
    }

    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        (**self).detect_batch_into(imgs, out);
    }

    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        (**self).detect_masked_batch_into(clean, masks, out);
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }

    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        (**self).input_gradient(img, objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Detection;
    use bea_scene::{BBox, ObjectClass};

    struct Fixed;

    impl Detector for Fixed {
        fn detect(&self, _img: &Image) -> Prediction {
            Prediction::from_detections(vec![Detection::new(
                ObjectClass::Car,
                BBox::new(1.0, 1.0, 2.0, 2.0),
                1.0,
            )])
        }

        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Detector> = Box::new(Fixed);
        assert_eq!(boxed.detect(&Image::black(4, 4)).len(), 1);
        assert_eq!(boxed.name(), "fixed");
    }

    #[test]
    fn references_forward() {
        let d = Fixed;
        let r: &dyn Detector = &d;
        assert_eq!(Detector::detect(&r, &Image::black(4, 4)).len(), 1);
    }

    #[test]
    fn default_heatmap_is_empty() {
        let d = Fixed;
        assert_eq!(d.heatmap(&Image::black(4, 4)).shape(), (0, 0, 0));
    }

    #[test]
    fn default_batch_paths_loop_the_scalar_paths() {
        let d = Fixed;
        let imgs = [Image::black(4, 4), Image::black(8, 8)];
        let refs: Vec<&Image> = imgs.iter().collect();
        let batch = d.detect_batch(&refs);
        assert_eq!(batch.len(), 2);
        for (img, pred) in refs.iter().zip(&batch) {
            assert_eq!(pred, &d.detect(img));
        }
        let clean = Image::black(4, 4);
        let mut mask = bea_image::FilterMask::zeros(4, 4);
        mask.set(0, 1, 1, 50);
        let zero = bea_image::FilterMask::zeros(4, 4);
        let masks: Vec<&bea_image::FilterMask> = vec![&mask, &zero];
        let mut out = Vec::new();
        d.detect_masked_batch_into(&clean, &masks, &mut out);
        assert_eq!(out.len(), 2);
        for (m, pred) in masks.iter().zip(&out) {
            assert_eq!(pred, &d.detect_masked(&clean, m));
        }
        // Trait objects reach the same defaults through the forwarders.
        let boxed: Box<dyn Detector> = Box::new(Fixed);
        assert_eq!(boxed.detect_batch(&refs), batch);
        assert_eq!(boxed.detect_masked_batch(&clean, &masks), out);
    }

    #[test]
    fn default_masked_path_applies_then_detects() {
        let d = Fixed;
        let img = Image::black(4, 4);
        let mut mask = bea_image::FilterMask::zeros(4, 4);
        mask.set(0, 1, 1, 50);
        assert_eq!(d.detect_masked(&img, &mask), d.detect(&mask.apply(&img)));
        assert!(d.cache_stats().is_none());
        // Forwarding impls expose the same defaults.
        let boxed: Box<dyn Detector> = Box::new(Fixed);
        assert_eq!(boxed.detect_masked(&img, &mask).len(), 1);
        assert!(boxed.cache_stats().is_none());
    }
}
