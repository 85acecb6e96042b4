//! The shared backbone: per-class normalised cross-correlation response
//! fields.
//!
//! Both detector architectures start from the same evidence: for every
//! class, a map of normalised cross-correlation (NCC) scores between the
//! zero-mean class template and the image patch at each position. NCC is
//! invariant to local brightness offset and gain, which is what makes the
//! matched filters tolerate the scene generator's style jitter — and it is
//! *local*: an NCC value only depends on pixels under the template support.
//! Any cross-image coupling therefore has to come from the architecture on
//! top (global context gain for YOLO, self-attention for DETR), exactly the
//! comparison the paper sets up.

use crate::templates::{ClassTemplate, TemplateBank, BACKBONE_SCALE};
use bea_image::Image;
use bea_scene::ObjectClass;
use bea_tensor::{DirtyRect, FeatureMap, PoolVec};

/// Per-class response maps at backbone resolution.
///
/// # Examples
///
/// ```
/// use bea_detect::response::ResponseField;
/// use bea_detect::templates::TemplateBank;
/// use bea_image::Image;
///
/// let bank = TemplateBank::canonical();
/// let field = ResponseField::compute(&Image::filled(64, 32, [96.0; 3]), &bank);
/// // A constant image correlates with nothing.
/// assert!(field.map().max() < 0.3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseField {
    /// One channel per class, backbone resolution.
    map: FeatureMap,
}

impl ResponseField {
    /// Computes response maps for every class in the bank.
    pub fn compute(img: &Image, bank: &TemplateBank) -> Self {
        Self::compute_with(img, bank, ncc_into)
    }

    /// [`Self::compute`] through the scalar NCC kernel: one serial chain
    /// of `f64` adds per origin. Bit-identical to [`Self::compute`] and
    /// 2–3× slower; detectors never call it. It is kept as the oracle the
    /// lane-parallel kernel is tested and benchmarked against.
    pub fn compute_scalar(img: &Image, bank: &TemplateBank) -> Self {
        Self::compute_with(img, bank, ncc_into_scalar)
    }

    fn compute_with(img: &Image, bank: &TemplateBank, kernel: NccKernel) -> Self {
        let half = img.downscale(BACKBONE_SCALE);
        let (h, w) = (half.height(), half.width());
        let sat = Sat::build(half.as_feature_map());
        // Cells no template origin centres on keep their zero.
        let mut map = FeatureMap::zeros(ObjectClass::COUNT, h, w);
        for template in bank.templates() {
            let (th, tw) = (template.height(), template.width());
            if th > h || tw > w {
                continue;
            }
            let plane = map.channel_mut(template.class().index());
            kernel(half.as_feature_map(), &sat, template, plane, 0..(h - th + 1), 0..(w - tw + 1));
        }
        Self { map }
    }

    /// Recomputes only the response cells whose template support touches
    /// `dirty` (a full-resolution pixel rectangle), patching `self` in
    /// place. Cells outside the affected window keep their cached values,
    /// which NCC locality guarantees are bit-identical to a full
    /// recomputation on `img` (see the `response_is_local` test).
    ///
    /// Returns the backbone-resolution window of rewritten cells. When the
    /// cached map's shape disagrees with `img` the field is recomputed in
    /// full and the whole plane is returned.
    pub fn recompute_window(
        &mut self,
        img: &Image,
        bank: &TemplateBank,
        dirty: &DirtyRect,
    ) -> DirtyRect {
        let half = img.downscale(BACKBONE_SCALE);
        let (h, w) = (half.height(), half.width());
        if self.map.height() != h || self.map.width() != w {
            *self = Self::compute(img, bank);
            return DirtyRect::full(w, h);
        }
        let d = dirty.downscaled(BACKBONE_SCALE).clamp(w, h);
        if d.is_empty() {
            return DirtyRect::empty();
        }
        // The summed-area table is rebuilt in full: it is O(W·H) while the
        // NCC sweep it feeds is O(W·H·th·tw), so sharing it between the
        // full and incremental paths is cheap and keeps both bit-identical.
        let sat = Sat::build(half.as_feature_map());
        let mut affected = DirtyRect::empty();
        for template in bank.templates() {
            let (th, tw) = (template.height(), template.width());
            if th > h || tw > w {
                continue;
            }
            // Support origins whose `th × tw` footprint intersects the
            // dirty cells: o ∈ [d0 − (k − 1), d1), clamped to the valid
            // origin range [0, dim − k].
            let oy0 = d.y0.saturating_sub(th - 1);
            let oy1 = d.y1.min(h - th + 1);
            let ox0 = d.x0.saturating_sub(tw - 1);
            let ox1 = d.x1.min(w - tw + 1);
            if oy0 >= oy1 || ox0 >= ox1 {
                continue;
            }
            let plane = self.map.channel_mut(template.class().index());
            ncc_into(half.as_feature_map(), &sat, template, plane, oy0..oy1, ox0..ox1);
            // Each origin writes at its centre, so the rewritten window is
            // the origin window translated by the centre offset.
            affected = affected.union(&DirtyRect::new(
                ox0 + tw / 2,
                oy0 + th / 2,
                ox1 + tw / 2,
                oy1 + th / 2,
            ));
        }
        affected.clamp(w, h)
    }

    /// The stacked response maps (one channel per class index).
    pub fn map(&self) -> &FeatureMap {
        &self.map
    }

    /// The response plane of one class.
    pub fn class_plane(&self, class: ObjectClass) -> &[f32] {
        self.map.channel(class.index())
    }

    /// Backbone-resolution height.
    pub fn height(&self) -> usize {
        self.map.height()
    }

    /// Backbone-resolution width.
    pub fn width(&self) -> usize {
        self.map.width()
    }

    /// Converts a backbone-resolution coordinate to full-resolution pixels.
    pub fn to_full_res(coord: f32) -> f32 {
        coord * BACKBONE_SCALE as f32 + (BACKBONE_SCALE as f32 - 1.0) / 2.0
    }

    /// Converts a full-resolution pixel coordinate to backbone resolution.
    pub fn to_backbone(coord: f32) -> f32 {
        (coord - (BACKBONE_SCALE as f32 - 1.0) / 2.0) / BACKBONE_SCALE as f32
    }
}

/// Summed-area tables of the per-pixel channel sum and square sum, used to
/// normalise patches in O(1) per position.
struct Sat {
    width: usize,
    // Pooled: a fresh Sat is built per forward pass (and per incremental
    // window), so its tables recycle through the scratch arena.
    sum: PoolVec<f64>,
    sum_sq: PoolVec<f64>,
}

impl Sat {
    fn build(map: &FeatureMap) -> Self {
        let (h, w) = (map.height(), map.width());
        // One extra row/column of zeros simplifies rectangle queries.
        let stride = w + 1;
        let mut sum = PoolVec::filled((h + 1) * stride, 0.0f64);
        let mut sum_sq = PoolVec::filled((h + 1) * stride, 0.0f64);
        for y in 0..h {
            for x in 0..w {
                let mut s = 0.0f64;
                let mut q = 0.0f64;
                for c in 0..map.channels() {
                    let v = map.at(c, y, x) as f64;
                    s += v;
                    q += v * v;
                }
                let idx = (y + 1) * stride + (x + 1);
                sum[idx] = s + sum[idx - 1] + sum[idx - stride] - sum[idx - stride - 1];
                sum_sq[idx] = q + sum_sq[idx - 1] + sum_sq[idx - stride] - sum_sq[idx - stride - 1];
            }
        }
        Self { width: w, sum, sum_sq }
    }

    /// Rectangle sums over `[y0, y0+th) × [x0, x0+tw)`: `(sum, sum_sq)`.
    fn rect(&self, y0: usize, x0: usize, th: usize, tw: usize) -> (f64, f64) {
        let stride = self.width + 1;
        let a = y0 * stride + x0;
        let b = y0 * stride + (x0 + tw);
        let c = (y0 + th) * stride + x0;
        let d = (y0 + th) * stride + (x0 + tw);
        (
            self.sum[d] - self.sum[b] - self.sum[c] + self.sum[a],
            self.sum_sq[d] - self.sum_sq[b] - self.sum_sq[c] + self.sum_sq[a],
        )
    }
}

/// An NCC kernel: scores the support origins `oy × ox`, writing each
/// score at its template centre in `plane` (row stride `img.width()`).
type NccKernel = fn(
    &FeatureMap,
    &Sat,
    &ClassTemplate,
    &mut [f32],
    std::ops::Range<usize>,
    std::ops::Range<usize>,
);

/// Adjacent support origins the NCC kernel scores at once, one `f64`
/// accumulator lane per origin.
const LANES: usize = 8;

/// Patches whose per-entry standard deviation is below this floor are
/// treated as flat (sky, road): without a floor, NCC would amplify
/// numerical dust on constant patches to ±1.
const MIN_PATCH_STD: f64 = 4.0;

/// Turns one origin's template dot product into its NCC score and writes
/// it at the template centre; flat patches are written as `0.0`.
#[inline(always)]
fn write_score(
    sat: &Sat,
    template: &ClassTemplate,
    plane: &mut [f32],
    w: usize,
    (y0, x0): (usize, usize),
    dot: f64,
) {
    let (th, tw) = (template.height(), template.width());
    let n = (3 * th * tw) as f64;
    let centre = (y0 + th / 2) * w + (x0 + tw / 2);
    let (s, q) = sat.rect(y0, x0, th, tw);
    let patch_var = q - s * s / n;
    if patch_var < n * MIN_PATCH_STD * MIN_PATCH_STD {
        plane[centre] = 0.0;
        return;
    }
    // Cross-correlation with the template, compensating the patch mean:
    // num = Σ t·p − p̄·Σ t.
    let num = dot - (s / n) * template.weight_sum() as f64;
    let ncc = num / (patch_var.sqrt() * template.norm() as f64);
    plane[centre] = ncc.clamp(-1.0, 1.0) as f32;
}

/// Template dot products `Σ t·p` of the `N` adjacent origins
/// `(y0, x0..x0 + N)`: lane `l` sums the `(t·p) as f64` products of origin
/// `x0 + l` in (c, ty, tx) order from `0.0` — exactly the serial chain of
/// [`ncc_into_scalar`], run `N` chains side by side. The lanes share every
/// template weight and read one contiguous `tw + N − 1` span per image row.
#[inline(always)]
fn lane_dots<const N: usize>(
    img: &FeatureMap,
    template: &ClassTemplate,
    y0: usize,
    x0: usize,
) -> [f64; N] {
    let w = img.width();
    let (th, tw) = (template.height(), template.width());
    let mut dots = [0.0f64; N];
    for c in 0..3 {
        let weights = template.map().channel(c);
        let pixels = img.channel(c);
        for ty in 0..th {
            let start = (y0 + ty) * w + x0;
            let row = &pixels[start..start + tw + N - 1];
            for (tx, &t) in weights[ty * tw..(ty + 1) * tw].iter().enumerate() {
                let window: &[f32; N] = row[tx..tx + N].try_into().expect("N-wide window");
                for (dot, &p) in dots.iter_mut().zip(window) {
                    *dot += (t * p) as f64;
                }
            }
        }
    }
    dots
}

/// Computes NCC scores for the support origins `oy × ox`, writing each
/// score at its template centre in `plane` (row stride `img.width()`).
/// Flat patches are written as `0.0`, so re-running a window overwrites
/// any stale value.
///
/// Origins are scored [`LANES`] at a time by [`lane_dots`]. A block that
/// would run past the window's end slides left onto origins already
/// scored (or just outside the window) and stores only its new lanes;
/// each lane's arithmetic is independent of its block, so every score is
/// bit-identical to [`ncc_into_scalar`]'s. Rows with fewer than `LANES`
/// valid origins fall back to one-lane blocks.
///
/// This is the kernel shared by [`ResponseField::compute`] and
/// [`ResponseField::recompute_window`], which makes the incremental patch
/// bit-identical to the full sweep.
fn ncc_into(
    img: &FeatureMap,
    sat: &Sat,
    template: &ClassTemplate,
    plane: &mut [f32],
    oy: std::ops::Range<usize>,
    ox: std::ops::Range<usize>,
) {
    let w = img.width();
    // Valid origins per row are 0..origins (the caller checked tw <= w).
    let origins = w + 1 - template.width();
    for y0 in oy {
        let mut x0 = ox.start;
        while x0 < ox.end {
            let x1 = ox.end.min(x0 + LANES);
            if origins >= LANES {
                let base = x0.min(origins - LANES);
                let dots = lane_dots::<LANES>(img, template, y0, base);
                for x in x0..x1 {
                    write_score(sat, template, plane, w, (y0, x), dots[x - base]);
                }
            } else {
                for x in x0..x1 {
                    let [dot] = lane_dots::<1>(img, template, y0, x);
                    write_score(sat, template, plane, w, (y0, x), dot);
                }
            }
            x0 = x1;
        }
    }
}

/// The scalar NCC kernel [`ncc_into`] replaced: one serial chain of `f64`
/// adds per origin, in (c, ty, tx) order. Kept as the exactness oracle of
/// the lane kernel (tests and the kernel bench, via
/// [`ResponseField::compute_scalar`]).
fn ncc_into_scalar(
    img: &FeatureMap,
    sat: &Sat,
    template: &ClassTemplate,
    plane: &mut [f32],
    oy: std::ops::Range<usize>,
    ox: std::ops::Range<usize>,
) {
    let w = img.width();
    let (th, tw) = (template.height(), template.width());
    let t = template.map();
    for y0 in oy {
        for x0 in ox.clone() {
            let mut dot = 0.0f64;
            for c in 0..3 {
                for ty in 0..th {
                    for tx in 0..tw {
                        dot += (t.at(c, ty, tx) * img.at(c, y0 + ty, x0 + tx)) as f64;
                    }
                }
            }
            write_score(sat, template, plane, w, (y0, x0), dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_scene::render::{render_object, Style};
    use bea_scene::{BBox, SyntheticKitti};

    fn scene_with(class: ObjectClass, cx: f32, cy: f32) -> Image {
        let mut img = Image::filled(128, 64, [96.0; 3]);
        let (w, h) = class.nominal_size();
        render_object(
            &mut img,
            class,
            &BBox::new(cx, cy, w as f32, h as f32),
            &Style::canonical(class),
        );
        img
    }

    #[test]
    fn response_peaks_at_object_centre() {
        let img = scene_with(ObjectClass::Car, 60.0, 40.0);
        let field = ResponseField::compute(&img, &TemplateBank::canonical());
        let plane = field.class_plane(ObjectClass::Car);
        let (bw, bh) = (field.width(), field.height());
        let mut best = (0usize, 0usize, f32::NEG_INFINITY);
        for y in 0..bh {
            for x in 0..bw {
                let v = plane[y * bw + x];
                if v > best.2 {
                    best = (x, y, v);
                }
            }
        }
        assert!(best.2 > 0.8, "peak NCC {} too weak", best.2);
        let full_x = ResponseField::to_full_res(best.0 as f32);
        let full_y = ResponseField::to_full_res(best.1 as f32);
        assert!((full_x - 60.0).abs() <= 3.0, "peak x {full_x} far from 60");
        assert!((full_y - 40.0).abs() <= 3.0, "peak y {full_y} far from 40");
    }

    #[test]
    fn correct_class_scores_highest() {
        for class in [ObjectClass::Car, ObjectClass::Pedestrian, ObjectClass::Cyclist] {
            let img = scene_with(class, 64.0, 40.0);
            let field = ResponseField::compute(&img, &TemplateBank::canonical());
            let peak_of = |c: ObjectClass| {
                field.class_plane(c).iter().copied().fold(f32::NEG_INFINITY, f32::max)
            };
            let own = peak_of(class);
            for other in ObjectClass::ALL {
                if other != class {
                    assert!(
                        own > peak_of(other) - 0.05,
                        "{class}: own peak {own} not above {other} peak {}",
                        peak_of(other)
                    );
                }
            }
        }
    }

    #[test]
    fn response_is_local() {
        // Perturbing the right half must not change left-half responses at
        // all (NCC locality) — the foundation of the YOLO robustness result.
        let base = scene_with(ObjectClass::Car, 30.0, 40.0);
        let mut perturbed = base.clone();
        for y in 0..64 {
            for x in 90..128 {
                perturbed.put_pixel(x, y, [255.0, 0.0, 255.0]);
            }
        }
        let bank = TemplateBank::canonical();
        let fa = ResponseField::compute(&base, &bank);
        let fb = ResponseField::compute(&perturbed, &bank);
        let bw = fa.width();
        // Columns safely left of the perturbation minus max template width.
        for class in ObjectClass::ALL {
            let pa = fa.class_plane(class);
            let pb = fb.class_plane(class);
            for y in 0..fa.height() {
                for x in 0..(bw / 2 - 13) {
                    assert_eq!(
                        pa[y * bw + x],
                        pb[y * bw + x],
                        "{class} response at ({x},{y}) changed remotely"
                    );
                }
            }
        }
    }

    #[test]
    fn brightness_jitter_barely_moves_peak() {
        let mut bright = Style::canonical(ObjectClass::Car);
        bright.brightness = 1.15;
        let mut img = Image::filled(128, 64, [96.0; 3]);
        render_object(&mut img, ObjectClass::Car, &BBox::new(60.0, 40.0, 26.0, 12.0), &bright);
        let field = ResponseField::compute(&img, &TemplateBank::canonical());
        let peak =
            field.class_plane(ObjectClass::Car).iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(peak > 0.75, "NCC should tolerate brightness jitter, got {peak}");
    }

    #[test]
    fn constant_image_has_no_response() {
        let field =
            ResponseField::compute(&Image::filled(96, 48, [50.0; 3]), &TemplateBank::canonical());
        assert!(field.map().max() < 0.3);
    }

    #[test]
    fn recompute_window_matches_full_compute_bitwise() {
        let base = scene_with(ObjectClass::Car, 40.0, 30.0);
        let bank = TemplateBank::canonical();
        let clean_field = ResponseField::compute(&base, &bank);
        // Several dirty rectangles, from a single pixel to a half plane.
        let rects = [
            DirtyRect::new(70, 20, 71, 21),
            DirtyRect::new(90, 5, 120, 40),
            DirtyRect::new(64, 0, 128, 64),
            DirtyRect::new(0, 0, 20, 10),
        ];
        for (i, rect) in rects.iter().enumerate() {
            let mut perturbed = base.clone();
            for y in rect.y0..rect.y1 {
                for x in rect.x0..rect.x1 {
                    let p = perturbed.pixel(x, y);
                    perturbed.put_pixel(x, y, [255.0 - p[0], p[1] + 40.0, p[2]]);
                }
            }
            let mut patched = clean_field.clone();
            let window = patched.recompute_window(&perturbed, &bank, rect);
            assert!(!window.is_empty(), "rect {i} should rewrite something");
            let full = ResponseField::compute(&perturbed, &bank);
            assert_eq!(patched, full, "rect {i}: incremental patch must be bit-identical");
        }
    }

    #[test]
    fn recompute_with_empty_dirt_is_a_noop() {
        let img = scene_with(ObjectClass::Cyclist, 50.0, 30.0);
        let bank = TemplateBank::canonical();
        let clean = ResponseField::compute(&img, &bank);
        let mut patched = clean.clone();
        let window = patched.recompute_window(&img, &bank, &DirtyRect::empty());
        assert!(window.is_empty());
        assert_eq!(patched, clean);
    }

    #[test]
    fn recompute_with_mismatched_shape_falls_back_to_full() {
        let small = scene_with(ObjectClass::Car, 40.0, 30.0);
        let bank = TemplateBank::canonical();
        let mut field = ResponseField::compute(&Image::filled(64, 32, [96.0; 3]), &bank);
        let window = field.recompute_window(&small, &bank, &DirtyRect::new(0, 0, 4, 4));
        assert_eq!(window, DirtyRect::full(64, 32));
        assert_eq!(field, ResponseField::compute(&small, &bank));
    }

    fn bits(map: &FeatureMap) -> Vec<u32> {
        map.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The canonical bank and jittered banks of several model seeds.
    fn seeded_banks() -> Vec<TemplateBank> {
        let mut banks = vec![TemplateBank::canonical()];
        for seed in [1, 7, 25] {
            banks.push(TemplateBank::new(0.04, &mut bea_tensor::WeightInit::from_seed(seed)));
        }
        banks
    }

    #[test]
    fn lane_kernel_matches_scalar_oracle_on_every_dataset_image() {
        let images: Vec<Image> = [SyntheticKitti::evaluation_set(), SyntheticKitti::smoke_set()]
            .iter()
            .flat_map(|set| (0..set.len()).map(|i| set.image(i)).collect::<Vec<_>>())
            .collect();
        for (b, bank) in seeded_banks().iter().enumerate() {
            for (i, img) in images.iter().enumerate() {
                let lanes = ResponseField::compute(img, bank);
                let scalar = ResponseField::compute_scalar(img, bank);
                assert_eq!(bits(&lanes.map), bits(&scalar.map), "bank {b}, image {i}");
            }
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_oracle_on_every_window_width() {
        // Windows of 1..=LANES+3 origins at the left edge, mid-row and
        // flush with the last valid origin (where blocks slide left), on a
        // dataset image and on a canvas too narrow for one full block.
        let wide = SyntheticKitti::evaluation_set().image(3);
        let mut narrow = Image::filled(36, 40, [96.0; 3]);
        for y in 0..40 {
            for x in 0..36 {
                narrow.put_pixel(x, y, [(x * 7 + y * 13) as f32 % 97.0 + 60.0, 90.0, 120.0]);
            }
        }
        let class = ObjectClass::Pedestrian;
        let (pw, ph) = class.nominal_size();
        let support = BBox::new(12.0, 20.0, pw as f32, ph as f32);
        render_object(&mut narrow, class, &support, &Style::canonical(class));
        // [one-lane fallback seen, LANES-wide blocks seen]
        let mut paths = [false; 2];
        for bank in seeded_banks() {
            for img in [&wide, &narrow] {
                let half = img.downscale(BACKBONE_SCALE);
                let map = half.as_feature_map();
                let sat = Sat::build(map);
                let (h, w) = (map.height(), map.width());
                for template in bank.templates() {
                    let (th, tw) = (template.height(), template.width());
                    if th > h || tw > w {
                        continue;
                    }
                    let origins = w - tw + 1;
                    paths[usize::from(origins >= LANES)] = true;
                    let rows = 0..(h - th + 1).min(3);
                    for width in 1..=(LANES + 3).min(origins) {
                        for start in [0, (origins - width) / 2, origins - width] {
                            let cols = start..start + width;
                            let mut lanes = vec![f32::NAN; h * w];
                            let mut scalar = vec![f32::NAN; h * w];
                            ncc_into(map, &sat, template, &mut lanes, rows.clone(), cols.clone());
                            ncc_into_scalar(map, &sat, template, &mut scalar, rows.clone(), cols);
                            let lanes: Vec<u32> = lanes.iter().map(|v| v.to_bits()).collect();
                            let scalar: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                lanes,
                                scalar,
                                "{} template {tw}x{th} on {w}x{h}: origins {start}..{}",
                                template.class(),
                                start + width
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(paths, [true, true], "both kernel paths must be exercised");
    }

    #[test]
    fn coordinate_roundtrip() {
        for v in [0.0f32, 3.0, 17.5] {
            let full = ResponseField::to_full_res(v);
            let back = ResponseField::to_backbone(full);
            assert!((back - v).abs() < 1e-5);
        }
    }
}
