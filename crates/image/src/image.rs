//! RGB images.

use crate::error::{ImageError, Result};
use bea_tensor::FeatureMap;

/// An RGB image with `f32` channel values in `[0, 255]`.
///
/// Storage is channel-major (three planes of `height × width`), matching
/// [`FeatureMap`] so detectors can consume images without copying.
/// Coordinates follow the convention `(channel, y, x)` with `x` horizontal
/// (the paper's `L` axis — KITTI images are wide) and `y` vertical (the
/// paper's `W` axis).
///
/// # Examples
///
/// ```
/// use bea_image::Image;
///
/// let mut img = Image::black(64, 32);
/// img.put_pixel(10, 5, [255.0, 128.0, 0.0]);
/// assert_eq!(img.pixel(10, 5), [255.0, 128.0, 0.0]);
/// assert_eq!((img.width(), img.height()), (64, 32));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    map: FeatureMap,
}

impl Image {
    /// Creates an all-black image of the given size.
    pub fn black(width: usize, height: usize) -> Self {
        Self { map: FeatureMap::zeros(3, height, width) }
    }

    /// Creates an image filled with a constant RGB colour.
    pub fn filled(width: usize, height: usize, rgb: [f32; 3]) -> Self {
        let mut map = FeatureMap::zeros(3, height, width);
        for (c, &v) in rgb.iter().enumerate() {
            map.channel_mut(c).fill(v.clamp(0.0, 255.0));
        }
        Self { map }
    }

    /// Wraps an existing 3-channel feature map as an image, clamping values
    /// into `[0, 255]`.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::LengthMismatch`] if the map does not have
    /// exactly 3 channels.
    pub fn from_feature_map(map: FeatureMap) -> Result<Self> {
        if map.channels() != 3 {
            return Err(ImageError::LengthMismatch { expected: 3, actual: map.channels() });
        }
        let mut map = map;
        map.map_inplace(|v| v.clamp(0.0, 255.0));
        Ok(Self { map })
    }

    /// Image width in pixels (the paper's `L` axis).
    pub fn width(&self) -> usize {
        self.map.width()
    }

    /// Image height in pixels (the paper's `W` axis).
    pub fn height(&self) -> usize {
        self.map.height()
    }

    /// Number of pixels (`width × height`).
    pub fn pixel_count(&self) -> usize {
        self.width() * self.height()
    }

    /// Channel value at `(channel, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn at(&self, channel: usize, y: usize, x: usize) -> f32 {
        self.map.at(channel, y, x)
    }

    /// Sets one channel value, clamped into `[0, 255]`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, channel: usize, y: usize, x: usize, value: f32) {
        self.map.set(channel, y, x, value.clamp(0.0, 255.0));
    }

    /// RGB triple at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        [self.at(0, y, x), self.at(1, y, x), self.at(2, y, x)]
    }

    /// Writes an RGB triple at `(x, y)`, clamped into `[0, 255]`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn put_pixel(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        for (c, &v) in rgb.iter().enumerate() {
            self.set(c, y, x, v);
        }
    }

    /// Borrow the underlying feature map (channel-major planes).
    pub fn as_feature_map(&self) -> &FeatureMap {
        &self.map
    }

    /// Consumes the image and returns the underlying feature map.
    pub fn into_feature_map(self) -> FeatureMap {
        self.map
    }

    /// Per-image mean intensity over all channels.
    pub fn mean(&self) -> f32 {
        self.map.mean()
    }

    /// Converts to a single-channel luminance plane
    /// (Rec. 601 weights: 0.299 R + 0.587 G + 0.114 B).
    pub fn to_luma(&self) -> FeatureMap {
        let mut out = FeatureMap::zeros(1, self.height(), self.width());
        for y in 0..self.height() {
            for x in 0..self.width() {
                let [r, g, b] = self.pixel(x, y);
                out.set(0, y, x, 0.299 * r + 0.587 * g + 0.114 * b);
            }
        }
        out
    }

    /// Returns a copy with every channel value multiplied by `factor`
    /// (clamped back into `[0, 255]`) — a global illumination change used
    /// by the physical-robustness evaluation.
    pub fn brightness_scaled(&self, factor: f32) -> Image {
        let mut map = self.map.clone();
        map.map_inplace(|v| (v * factor).clamp(0.0, 255.0));
        Image { map }
    }

    /// Returns a downscaled copy using box-filter averaging with integer
    /// factor `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn downscale(&self, factor: usize) -> Image {
        // A box mean of in-range values is in range; the clamp only keeps
        // the type's invariant explicit.
        let mut map = self.map.downscale(factor);
        map.map_inplace(|v| v.clamp(0.0, 255.0));
        Image { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn black_image_is_zero() {
        let img = Image::black(4, 2);
        assert_eq!(img.pixel(0, 0), [0.0; 3]);
        assert_eq!(img.pixel_count(), 8);
    }

    #[test]
    fn filled_clamps_out_of_range() {
        let img = Image::filled(2, 2, [300.0, -5.0, 128.0]);
        assert_eq!(img.pixel(0, 0), [255.0, 0.0, 128.0]);
    }

    #[test]
    fn set_clamps() {
        let mut img = Image::black(2, 2);
        img.set(0, 0, 0, 999.0);
        img.set(1, 0, 0, -999.0);
        assert_eq!(img.at(0, 0, 0), 255.0);
        assert_eq!(img.at(1, 0, 0), 0.0);
    }

    #[test]
    fn from_feature_map_requires_three_channels() {
        assert!(Image::from_feature_map(FeatureMap::zeros(1, 2, 2)).is_err());
        assert!(Image::from_feature_map(FeatureMap::zeros(3, 2, 2)).is_ok());
    }

    #[test]
    fn from_feature_map_clamps() {
        let map = FeatureMap::filled(3, 1, 1, 400.0);
        let img = Image::from_feature_map(map).unwrap();
        assert_eq!(img.pixel(0, 0), [255.0; 3]);
    }

    #[test]
    fn luma_weights() {
        let img = Image::filled(1, 1, [255.0, 0.0, 0.0]);
        let luma = img.to_luma();
        assert!((luma.at(0, 0, 0) - 0.299 * 255.0).abs() < 1e-3);
    }

    #[test]
    fn downscale_halves_dimensions() {
        let mut img = Image::black(4, 4);
        img.put_pixel(0, 0, [100.0; 3]);
        img.put_pixel(1, 0, [100.0; 3]);
        img.put_pixel(0, 1, [100.0; 3]);
        img.put_pixel(1, 1, [100.0; 3]);
        let small = img.downscale(2);
        assert_eq!((small.width(), small.height()), (2, 2));
        assert_eq!(small.pixel(0, 0), [100.0; 3]);
        assert_eq!(small.pixel(1, 1), [0.0; 3]);
    }

    #[test]
    fn brightness_scaling_clamps() {
        let img = Image::filled(2, 2, [100.0, 200.0, 0.0]);
        let brighter = img.brightness_scaled(1.5);
        assert_eq!(brighter.pixel(0, 0), [150.0, 255.0, 0.0]);
        let darker = img.brightness_scaled(0.5);
        assert_eq!(darker.pixel(0, 0), [50.0, 100.0, 0.0]);
    }

    #[test]
    fn mean_of_uniform_image() {
        let img = Image::filled(3, 3, [30.0, 60.0, 90.0]);
        assert!((img.mean() - 60.0).abs() < 1e-4);
    }
}
