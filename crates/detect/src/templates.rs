//! Class template synthesis for the matched-filter backbone.

use bea_scene::render::canonical_template;
use bea_scene::ObjectClass;
use bea_tensor::{FeatureMap, WeightInit};

/// Neutral canvas intensity the canonical templates are rendered on; the
/// template stores deviations from this value, so unpainted pixels carry
/// zero weight and sparse objects (cyclists) are matched on their own
/// pixels only.
const NEUTRAL: f32 = 96.0;

/// Backbone working resolution: images and templates are processed at
/// 1/`BACKBONE_SCALE` of the input resolution (real detectors likewise
/// operate on strided feature maps).
pub const BACKBONE_SCALE: usize = 2;

/// An object-support class template at backbone resolution.
///
/// Templates are synthesised by rendering one canonical instance of the
/// class (the detector's "training") on a neutral canvas and storing the
/// *deviation* from that canvas: unpainted pixels weigh zero, so the filter
/// matches the object's own pixels rather than whatever background it sits
/// on. Correlation against image patches compensates the patch mean in the
/// response computation (see `bea_detect::response`), using the stored
/// weight sum.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassTemplate {
    class: ObjectClass,
    /// Deviation-from-neutral template at backbone resolution, 3 channels.
    map: FeatureMap,
    /// L2 norm of the template weights.
    norm: f32,
    /// Sum of the template weights (for patch-mean compensation).
    weight_sum: f32,
    /// Half-peak autocorrelation span `(x, y)` in backbone cells: the span
    /// the detector should *expect* to measure on a clean instance. Box
    /// extents are decoded as `nominal × measured/expected`, which
    /// self-calibrates the per-class, per-axis response decay profile.
    expected_span: (f32, f32),
}

impl ClassTemplate {
    /// Builds the canonical template for a class, optionally jittered with
    /// zero-mean Gaussian weight noise of relative strength `jitter`
    /// (models with different seeds have slightly different filters, like
    /// networks trained from different initialisations).
    pub fn new(class: ObjectClass, jitter: f32, rng: &mut WeightInit) -> Self {
        let mut full = canonical_template(class).into_feature_map();
        full.map_inplace(|v| v - NEUTRAL);
        let mut map = full.downscale(BACKBONE_SCALE);
        if jitter > 0.0 {
            let scale = jitter * map.std_dev();
            for v in map.as_mut_slice() {
                *v += rng.normal(0.0, scale);
            }
        }
        let norm = map.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt().max(f32::MIN_POSITIVE);
        let weight_sum = map.as_slice().iter().sum();
        let mut template = Self { class, map, norm, weight_sum, expected_span: (1.0, 1.0) };
        template.expected_span = template.autocorrelation_span();
        template
    }

    /// Measures the half-peak span of this template's response on a clean
    /// canonical instance rendered onto a roomy neutral canvas.
    fn autocorrelation_span(&self) -> (f32, f32) {
        use bea_scene::render::{render_object, Style};
        use bea_scene::BBox;
        let (nw, nh) = self.class.nominal_size();
        let (cw, ch) = (3 * (nw + 2), 3 * (nh + 2));
        let mut canvas = bea_image::Image::filled(cw, ch, [NEUTRAL; 3]);
        render_object(
            &mut canvas,
            self.class,
            &BBox::new(cw as f32 / 2.0, ch as f32 / 2.0, nw as f32, nh as f32),
            &Style::canonical(self.class),
        );
        let scene = canvas.downscale(BACKBONE_SCALE).into_feature_map();
        let (sh, sw) = (scene.height(), scene.width());
        let (th, tw) = (self.height(), self.width());
        if th > sh || tw > sw {
            return (tw.max(1) as f32, th.max(1) as f32);
        }
        // Direct NCC over the small canvas.
        let n = (3 * th * tw) as f32;
        let mut plane = vec![0.0f32; sw * sh];
        for y0 in 0..=(sh - th) {
            for x0 in 0..=(sw - tw) {
                let mut dot = 0.0f32;
                let mut s = 0.0f32;
                let mut q = 0.0f32;
                for c in 0..3 {
                    for ty in 0..th {
                        for tx in 0..tw {
                            let p = scene.at(c, y0 + ty, x0 + tx);
                            dot += self.map.at(c, ty, tx) * p;
                            s += p;
                            q += p * p;
                        }
                    }
                }
                let var = (q - s * s / n).max(1e-6);
                let num = dot - (s / n) * self.weight_sum;
                plane[(y0 + th / 2) * sw + (x0 + tw / 2)] =
                    (num / (var.sqrt() * self.norm)).clamp(-1.0, 1.0);
            }
        }
        let peaks = crate::peaks::find_peaks(&plane, sw, sh, 0.3);
        match peaks.first() {
            Some(&peak) => {
                let span = crate::peaks::measure_span(&plane, sw, sh, peak, 0.5, tw.max(th) * 2);
                (span.width.max(1.0), span.height.max(1.0))
            }
            None => (tw.max(1) as f32, th.max(1) as f32),
        }
    }

    /// The class this template matches.
    pub fn class(&self) -> ObjectClass {
        self.class
    }

    /// The template weight map (3 × h × w, backbone resolution).
    pub fn map(&self) -> &FeatureMap {
        &self.map
    }

    /// L2 norm of the template.
    pub fn norm(&self) -> f32 {
        self.norm
    }

    /// Sum of the template weights (for patch-mean compensation).
    pub fn weight_sum(&self) -> f32 {
        self.weight_sum
    }

    /// Expected half-peak response span `(x, y)` in backbone cells on a
    /// clean instance (see the type documentation).
    pub fn expected_span(&self) -> (f32, f32) {
        self.expected_span
    }

    /// Template height at backbone resolution.
    pub fn height(&self) -> usize {
        self.map.height()
    }

    /// Template width at backbone resolution.
    pub fn width(&self) -> usize {
        self.map.width()
    }

    /// Nominal full-resolution box size `(len, wid)` this template detects.
    pub fn nominal_box(&self) -> (f32, f32) {
        let (w, h) = self.class.nominal_size();
        (w as f32, h as f32)
    }
}

/// The full bank of class templates shared by both detector architectures.
///
/// # Examples
///
/// ```
/// use bea_detect::templates::TemplateBank;
/// use bea_tensor::WeightInit;
///
/// let bank = TemplateBank::new(0.0, &mut WeightInit::from_seed(1));
/// assert_eq!(bank.templates().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateBank {
    templates: Vec<ClassTemplate>,
}

impl TemplateBank {
    /// Builds templates for every class with the given relative weight
    /// jitter.
    pub fn new(jitter: f32, rng: &mut WeightInit) -> Self {
        let templates =
            ObjectClass::ALL.iter().map(|&c| ClassTemplate::new(c, jitter, rng)).collect();
        Self { templates }
    }

    /// The canonical (unjittered) bank.
    pub fn canonical() -> Self {
        Self::new(0.0, &mut WeightInit::from_seed(0))
    }

    /// All templates in class-index order.
    pub fn templates(&self) -> &[ClassTemplate] {
        &self.templates
    }

    /// The template for one class.
    pub fn template(&self, class: ObjectClass) -> &ClassTemplate {
        &self.templates[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_have_object_support() {
        let bank = TemplateBank::canonical();
        for t in bank.templates() {
            assert!(t.norm() > 1.0, "{} template is degenerate", t.class());
            // The neutral margin around the object carries zero weight.
            assert_eq!(t.map().at(0, 0, 0), 0.0, "{} margin should be zero", t.class());
            // And a sizeable part of the map is unpainted.
            let zeros = t.map().as_slice().iter().filter(|&&v| v == 0.0).count() as f32;
            let frac = zeros / t.map().as_slice().len() as f32;
            assert!(frac > 0.05, "{} template has no zero support ({frac})", t.class());
        }
    }

    #[test]
    fn jitter_zero_is_deterministic() {
        let a = TemplateBank::new(0.0, &mut WeightInit::from_seed(1));
        let b = TemplateBank::new(0.0, &mut WeightInit::from_seed(2));
        assert_eq!(a, b, "without jitter the RNG must not matter");
    }

    #[test]
    fn jitter_perturbs_but_preserves_shape() {
        let base = TemplateBank::canonical();
        let jittered = TemplateBank::new(0.05, &mut WeightInit::from_seed(9));
        for (a, b) in base.templates().iter().zip(jittered.templates()) {
            assert_eq!(a.map().shape(), b.map().shape());
            assert_ne!(a.map(), b.map());
            // The jittered template still correlates strongly with the base.
            let dot: f32 =
                a.map().as_slice().iter().zip(b.map().as_slice()).map(|(x, y)| x * y).sum();
            let cos = dot / (a.norm() * b.norm());
            assert!(cos > 0.9, "{} jittered template drifted too far (cos {cos})", a.class());
        }
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let a = TemplateBank::new(0.05, &mut WeightInit::from_seed(1));
        let b = TemplateBank::new(0.05, &mut WeightInit::from_seed(2));
        assert_ne!(a, b);
    }

    #[test]
    fn template_lookup_by_class() {
        let bank = TemplateBank::canonical();
        for class in ObjectClass::ALL {
            assert_eq!(bank.template(class).class(), class);
        }
    }

    #[test]
    fn templates_are_mutually_discriminative() {
        // Cross-class cosine similarity must stay below self-similarity.
        let bank = TemplateBank::canonical();
        for a in bank.templates() {
            for b in bank.templates() {
                if a.class() == b.class() || a.map().shape() != b.map().shape() {
                    continue;
                }
                let dot: f32 =
                    a.map().as_slice().iter().zip(b.map().as_slice()).map(|(x, y)| x * y).sum();
                let cos = dot / (a.norm() * b.norm());
                assert!(
                    cos < 0.85,
                    "{} and {} templates too similar (cos {cos})",
                    a.class(),
                    b.class()
                );
            }
        }
    }
}
