//! The filter mask: the attack's perturbation genome.

use crate::error::{ImageError, Result};
use crate::image::Image;
use bea_tensor::norm::NormKind;
use bea_tensor::PoolVec;

/// A signed per-pixel, per-channel perturbation δ.
///
/// Following the paper (Section IV-A), a filter mask is "a matrix of
/// modifications for the RGB values of each pixel" with "signed integer
/// values in the range [-255, 255]". Storage is channel-major
/// (`3 × height × width`) to match [`Image`].
///
/// A mask is the *individual* of the genetic algorithm: crossover and
/// mutation operate directly on its pixel array.
///
/// # Examples
///
/// ```
/// use bea_image::{FilterMask, Image};
///
/// let img = Image::filled(4, 4, [100.0, 100.0, 100.0]);
/// let mut mask = FilterMask::zeros(4, 4);
/// mask.set(2, 1, 3, -30);
/// let out = mask.apply(&img);
/// assert_eq!(out.at(2, 1, 3), 70.0);
/// assert_eq!(mask.perturbed_pixel_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterMask {
    width: usize,
    height: usize,
    /// Channel-major buffer of length `3 * width * height`.
    values: Vec<i16>,
}

/// Largest admissible perturbation magnitude per channel.
pub const MASK_LIMIT: i16 = 255;

impl FilterMask {
    /// Creates a zero (identity) mask.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self { width, height, values: vec![0; 3 * width * height] }
    }

    /// Builds a mask from a flat channel-major buffer, clamping values into
    /// `[-255, 255]`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::LengthMismatch`] if the buffer length is not
    /// `3 * width * height`, and [`ImageError::Format`] if that product
    /// overflows.
    pub fn from_values(width: usize, height: usize, values: Vec<i16>) -> Result<Self> {
        let expected = Self::checked_gene_count(width, height)?;
        if values.len() != expected {
            return Err(ImageError::LengthMismatch { expected, actual: values.len() });
        }
        let values = values.into_iter().map(|v| v.clamp(-MASK_LIMIT, MASK_LIMIT)).collect();
        Ok(Self { width, height, values })
    }

    /// `3 × width × height`, refused with [`ImageError::Format`] when it
    /// overflows — dimensions read from a corrupt file can.
    pub(crate) fn checked_gene_count(width: usize, height: usize) -> Result<usize> {
        width.checked_mul(height).and_then(|pixels| pixels.checked_mul(3)).ok_or_else(|| {
            ImageError::Format { what: format!("{width}x{height} mask size overflows") }
        })
    }

    /// Mask width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mask height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels (`width × height`).
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Number of genes (`3 × width × height`).
    pub fn gene_count(&self) -> usize {
        self.values.len()
    }

    /// Immutable view of the flat gene buffer.
    pub fn as_slice(&self) -> &[i16] {
        &self.values
    }

    /// Mutable view of the flat gene buffer.
    ///
    /// Callers must keep values inside `[-255, 255]`; use
    /// [`FilterMask::clamp_inplace`] afterwards when unsure.
    pub fn as_mut_slice(&mut self) -> &mut [i16] {
        &mut self.values
    }

    #[inline]
    fn offset(&self, channel: usize, y: usize, x: usize) -> usize {
        (channel * self.height + y) * self.width + x
    }

    /// Value at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn at(&self, channel: usize, y: usize, x: usize) -> i16 {
        debug_assert!(channel < 3 && y < self.height && x < self.width);
        self.values[self.offset(channel, y, x)]
    }

    /// Sets the value at `(channel, y, x)`, clamped into `[-255, 255]`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, channel: usize, y: usize, x: usize, value: i16) {
        debug_assert!(channel < 3 && y < self.height && x < self.width);
        let idx = self.offset(channel, y, x);
        self.values[idx] = value.clamp(-MASK_LIMIT, MASK_LIMIT);
    }

    /// Clamps every gene into `[-255, 255]` (call after bulk mutation).
    pub fn clamp_inplace(&mut self) {
        for v in &mut self.values {
            *v = (*v).clamp(-MASK_LIMIT, MASK_LIMIT);
        }
    }

    /// Applies the mask to an image: `img + δ`, clamped into `[0, 255]`.
    ///
    /// # Panics
    ///
    /// Panics if the image has different dimensions; use
    /// [`FilterMask::try_apply`] for a checked variant.
    pub fn apply(&self, img: &Image) -> Image {
        self.try_apply(img).expect("mask and image dimensions must agree")
    }

    /// Checked variant of [`FilterMask::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::SizeMismatch`] when dimensions differ.
    pub fn try_apply(&self, img: &Image) -> Result<Image> {
        if img.width() != self.width || img.height() != self.height {
            return Err(ImageError::SizeMismatch {
                lhs: (img.width(), img.height()),
                rhs: (self.width, self.height),
            });
        }
        let mut out = img.clone();
        for c in 0..3 {
            for y in 0..self.height {
                for x in 0..self.width {
                    let delta = self.at(c, y, x);
                    if delta != 0 {
                        out.set(c, y, x, img.at(c, y, x) + delta as f32);
                    }
                }
            }
        }
        Ok(out)
    }

    /// `true` when every gene is zero (the identity perturbation added to
    /// the initial population "to keep the original image").
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Evaluates a norm over the flat gene values; [`NormKind::L2`] is the
    /// paper's `obj_intensity(δ) = ‖δ‖₂`.
    pub fn norm(&self, kind: NormKind) -> f64 {
        // Pooled staging buffer: norms are evaluated once per genome per
        // generation on the attack hot path.
        let mut floats: PoolVec<f32> = PoolVec::with_pooled_capacity(self.values.len());
        floats.extend(self.values.iter().map(|&v| v as f32));
        kind.eval(&floats)
    }

    /// Per-pixel maximum absolute perturbation over the three channels
    /// (the paper's `δ_abs^max`, Algorithm 2 line 20), row-major
    /// `height × width`. The buffer is pooled and derefs to a `Vec<i16>`.
    pub fn max_abs_per_pixel(&self) -> PoolVec<i16> {
        let mut out = PoolVec::filled(self.width * self.height, 0i16);
        for y in 0..self.height {
            for x in 0..self.width {
                let m =
                    self.at(0, y, x).abs().max(self.at(1, y, x).abs()).max(self.at(2, y, x).abs());
                out[y * self.width + x] = m;
            }
        }
        out
    }

    /// Number of pixels with a non-zero perturbation on any channel
    /// (Algorithm 2 line 23).
    pub fn perturbed_pixel_count(&self) -> usize {
        self.max_abs_per_pixel().iter().filter(|&&v| v != 0).count()
    }

    /// Returns a copy translated by `(dx, dy)` pixels with zero fill — the
    /// model of physical placement error for a perturbation "sticker"
    /// (paper Section VI, future work on physical availability).
    pub fn shifted(&self, dx: i32, dy: i32) -> FilterMask {
        let mut out = FilterMask::zeros(self.width, self.height);
        for (c, y, x, v) in self.iter_nonzero() {
            let nx = x as i32 + dx;
            let ny = y as i32 + dy;
            if nx >= 0 && ny >= 0 && (nx as usize) < self.width && (ny as usize) < self.height {
                out.set(c, ny as usize, nx as usize, v);
            }
        }
        out
    }

    /// Iterator over `(channel, y, x, value)` of non-zero genes.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, usize, i16)> + '_ {
        let (w, h) = (self.width, self.height);
        self.values.iter().enumerate().filter(|(_, &v)| v != 0).map(move |(i, &v)| {
            let c = i / (w * h);
            let rem = i % (w * h);
            (c, rem / w, rem % w, v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_mask_is_identity() {
        let img = Image::filled(3, 2, [10.0, 20.0, 30.0]);
        let mask = FilterMask::zeros(3, 2);
        assert!(mask.is_zero());
        assert_eq!(mask.apply(&img), img);
        assert_eq!(mask.norm(NormKind::L2), 0.0);
    }

    #[test]
    fn apply_clamps_at_bounds() {
        let img = Image::filled(1, 1, [250.0, 5.0, 128.0]);
        let mut mask = FilterMask::zeros(1, 1);
        mask.set(0, 0, 0, 100);
        mask.set(1, 0, 0, -100);
        mask.set(2, 0, 0, 10);
        let out = mask.apply(&img);
        assert_eq!(out.pixel(0, 0), [255.0, 0.0, 138.0]);
    }

    #[test]
    fn set_clamps_values() {
        let mut mask = FilterMask::zeros(1, 1);
        mask.set(0, 0, 0, 300);
        assert_eq!(mask.at(0, 0, 0), 255);
        mask.set(0, 0, 0, -300);
        assert_eq!(mask.at(0, 0, 0), -255);
    }

    #[test]
    fn from_values_validates_length_and_clamps() {
        assert!(FilterMask::from_values(2, 2, vec![0; 11]).is_err());
        let mask = FilterMask::from_values(1, 1, vec![999, -999, 7]).unwrap();
        assert_eq!(mask.as_slice(), &[255, -255, 7]);
    }

    #[test]
    fn max_abs_per_pixel_takes_channel_max() {
        let mut mask = FilterMask::zeros(2, 1);
        mask.set(0, 0, 0, 10);
        mask.set(1, 0, 0, -40);
        mask.set(2, 0, 0, 25);
        mask.set(2, 0, 1, -3);
        assert_eq!(mask.max_abs_per_pixel(), vec![40, 3]);
        assert_eq!(mask.perturbed_pixel_count(), 2);
    }

    #[test]
    fn l2_norm_matches_manual() {
        let mut mask = FilterMask::zeros(2, 1);
        mask.set(0, 0, 0, 3);
        mask.set(1, 0, 1, 4);
        assert!((mask.norm(NormKind::L2) - 5.0).abs() < 1e-9);
        assert_eq!(mask.norm(NormKind::L1), 7.0);
        assert_eq!(mask.norm(NormKind::LInf), 4.0);
    }

    #[test]
    fn try_apply_checks_dimensions() {
        let img = Image::black(4, 4);
        let mask = FilterMask::zeros(2, 2);
        assert!(mask.try_apply(&img).is_err());
    }

    #[test]
    fn iter_nonzero_reports_coordinates() {
        let mut mask = FilterMask::zeros(4, 3);
        mask.set(1, 2, 3, -9);
        let items: Vec<_> = mask.iter_nonzero().collect();
        assert_eq!(items, vec![(1, 2, 3, -9)]);
    }

    #[test]
    fn shifted_translates_and_clips() {
        let mut mask = FilterMask::zeros(6, 4);
        mask.set(0, 1, 2, 50);
        mask.set(1, 3, 5, -30);
        let moved = mask.shifted(1, 0);
        assert_eq!(moved.at(0, 1, 3), 50);
        assert_eq!(moved.at(1, 3, 5), 0, "gene shifted off the edge is dropped");
        assert_eq!(mask.shifted(0, 0), mask);
        // Round trip within bounds.
        assert_eq!(mask.shifted(1, 1).shifted(-1, -1).at(0, 1, 2), 50);
    }

    #[test]
    fn gene_count_is_three_per_pixel() {
        let mask = FilterMask::zeros(5, 4);
        assert_eq!(mask.gene_count(), 60);
        assert_eq!(mask.pixel_count(), 20);
    }
}
