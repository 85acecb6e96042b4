//! A `Detector` wrapper that times every call the attack makes.
//!
//! It forwards each trait method to the wrapped detector unchanged —
//! including `cache_stats` and the batch entry points a cached detector
//! overrides — so predictions and cache counters are the same with and
//! without it. Each timed call becomes a span under the cell's root span;
//! dropping the wrapper (the campaign drops a cell's detector when the
//! cell finishes) closes that root span.

use crate::trace::{Span, Tracer};
use bea_detect::{CacheStats, Detector, GradientObjective, InputGradient, Prediction};
use bea_image::{FilterMask, Image};
use bea_tensor::FeatureMap;
use std::sync::Arc;

pub struct TracedDetector {
    inner: Box<dyn Detector>,
    tracer: Arc<Tracer>,
    trace: u64,
    cell: u64,
    cell_start: f64,
}

impl TracedDetector {
    /// Wraps `inner` for cell `trace`, whose root span (reserved id
    /// `cell`) started at `cell_start`.
    pub fn new(
        inner: Box<dyn Detector>,
        tracer: Arc<Tracer>,
        trace: u64,
        cell: u64,
        cell_start: f64,
    ) -> Self {
        Self { inner, tracer, trace, cell, cell_start }
    }

    fn timed<T>(&self, name: &'static str, items: usize, call: impl FnOnce() -> T) -> T {
        let start = self.tracer.now();
        let out = call();
        let end = self.tracer.now();
        self.tracer.push(self.cell, self.trace, name, start, end, items as u64);
        out
    }
}

impl Drop for TracedDetector {
    fn drop(&mut self) {
        self.tracer.record(Span {
            id: self.cell,
            parent: 0,
            trace: self.trace,
            name: "cell",
            start: self.cell_start,
            end: self.tracer.now(),
            items: 0,
        });
    }
}

impl Detector for TracedDetector {
    fn detect(&self, img: &Image) -> Prediction {
        self.timed("detect", 1, || self.inner.detect(img))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn heatmap(&self, img: &Image) -> FeatureMap {
        self.timed("detect.heatmap", 1, || self.inner.heatmap(img))
    }

    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        self.timed("detect.masked", 1, || self.inner.detect_masked(clean, mask))
    }

    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        self.timed("detect.batch", imgs.len(), || self.inner.detect_batch_into(imgs, out))
    }

    fn detect_batch(&self, imgs: &[&Image]) -> Vec<Prediction> {
        self.timed("detect.batch", imgs.len(), || self.inner.detect_batch(imgs))
    }

    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        self.timed("detect.masked_batch", masks.len(), || {
            self.inner.detect_masked_batch_into(clean, masks, out)
        })
    }

    fn detect_masked_batch(&self, clean: &Image, masks: &[&FilterMask]) -> Vec<Prediction> {
        self.timed("detect.masked_batch", masks.len(), || {
            self.inner.detect_masked_batch(clean, masks)
        })
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        self.timed("detect.gradient", 1, || self.inner.input_gradient(img, objective))
    }
}

/// Whether a detector span is part of the population evaluation (the
/// clean reference pass and introspection calls are not).
pub fn is_population_call(name: &str) -> bool {
    matches!(name, "detect.masked" | "detect.batch" | "detect.masked_batch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::attack::AttackConfig;
    use bea_core::campaign::{Campaign, CampaignConfig, CellSpec};
    use bea_detect::{Architecture, ModelZoo};
    use bea_scene::SyntheticKitti;
    use std::time::Instant;

    fn wrap(inner: Box<dyn Detector>, tracer: &Arc<Tracer>) -> TracedDetector {
        let cell = tracer.reserve();
        TracedDetector::new(inner, Arc::clone(tracer), 1, cell, tracer.now())
    }

    /// Small sticker masks (channel-major genes), so a cached detector
    /// takes its incremental path.
    fn masks(width: usize, height: usize) -> Vec<FilterMask> {
        (0..3)
            .map(|k| {
                let mut values = vec![0i16; width * height * 3];
                for c in 0..3 {
                    for y in 4..10 {
                        for x in width / 2 + 8 * k..width / 2 + 8 * k + 6 {
                            values[c * width * height + y * width + x] =
                                (x + y + c) as i16 % 23 - 11;
                        }
                    }
                }
                FilterMask::from_values(width, height, values).expect("mask dimensions")
            })
            .collect()
    }

    /// Every trait method answers exactly as the wrapped cached detector
    /// does, and both see the same cache traffic.
    #[test]
    fn wrapper_forwards_every_method() {
        let zoo = ModelZoo::with_defaults();
        let image = SyntheticKitti::evaluation_set().image(3);
        let masks = masks(image.width(), image.height());
        let mask_refs: Vec<&FilterMask> = masks.iter().collect();
        let perturbed: Vec<Image> = masks.iter().map(|m| m.apply(&image)).collect();
        let image_refs: Vec<&Image> = perturbed.iter().collect();
        let tracer = Arc::new(Tracer::new(Instant::now()));
        for arch in [Architecture::Yolo, Architecture::Detr] {
            let plain = zoo.cached_model(arch, 4);
            let traced = wrap(zoo.cached_model(arch, 4), &tracer);
            let both: [&dyn Detector; 2] = [plain.as_ref(), &traced];
            let answers: Vec<_> = both
                .iter()
                .map(|d| {
                    let mut into = Vec::new();
                    d.detect_masked_batch_into(&image, &mask_refs, &mut into);
                    let mut batch_into = Vec::new();
                    d.detect_batch_into(&image_refs, &mut batch_into);
                    (
                        d.detect(&image),
                        d.detect_masked(&image, &masks[0]),
                        d.detect_masked_batch(&image, &mask_refs),
                        into,
                        d.detect_batch(&image_refs),
                        batch_into,
                        d.heatmap(&image),
                        d.input_gradient(&image, GradientObjective::default()),
                        d.name().to_string(),
                        d.cache_stats(),
                    )
                })
                .collect();
            assert_eq!(answers[0], answers[1], "{arch:?}");
            assert!(answers[0].9.is_some_and(|s| s.incremental > 0), "cache path exercised");
        }
    }

    /// A cached campaign cell writes the same rows and reports the same
    /// cache counters through the wrapper, and the wrapper records the
    /// cell's root span with its detector calls as children.
    #[test]
    fn traced_cell_is_the_same_program() {
        let zoo = ModelZoo::with_defaults();
        let data = SyntheticKitti::evaluation_set();
        let specs = vec![CellSpec::new(Architecture::Detr.name(), 2, 5)];
        let campaign = Campaign::new(CampaignConfig {
            attack: AttackConfig { use_cache: true, threads: 1, ..AttackConfig::scaled(6, 2) },
            base_seed: 11,
            jobs: 1,
            telemetry: false,
        });
        let tracer = Arc::new(Tracer::new(Instant::now()));
        let plain = campaign.run(
            &specs,
            |s| zoo.cached_model(Architecture::Detr, s.model_seed),
            |s| data.image(s.image_index),
        );
        let traced = campaign.run(
            &specs,
            |s| Box::new(wrap(zoo.cached_model(Architecture::Detr, s.model_seed), &tracer)),
            |s| data.image(s.image_index),
        );
        let (a, b) = (&plain.cells[0], &traced.cells[0]);
        assert_eq!(a.rows, b.rows);
        let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(oa.cache_stats(), ob.cache_stats());
        assert_eq!(oa.pareto_points(), ob.pareto_points());
        assert_eq!(oa.evaluations(), 6 * 3);

        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "cell").expect("cell span closed on drop");
        let children: Vec<_> = spans.iter().filter(|s| s.parent == root.id).collect();
        let items: u64 =
            children.iter().filter(|s| is_population_call(s.name)).map(|s| s.items).sum();
        assert_eq!(items, 6 * 3, "one detector item per evaluation");
        assert!(children.iter().all(|s| s.start >= root.start && s.end <= root.end));
    }
}
