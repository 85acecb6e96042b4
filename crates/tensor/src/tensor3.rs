//! Dense C×H×W 3-D tensors (feature maps and images).

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;
use crate::scratch::PoolVec;

/// A dense 3-D tensor in channel-major (C×H×W) layout.
///
/// `FeatureMap` is used both for RGB images entering a detector (`C = 3`)
/// and for the intermediate activation maps of convolutional layers.
///
/// # Examples
///
/// ```
/// use bea_tensor::FeatureMap;
///
/// let mut map = FeatureMap::zeros(2, 3, 4);
/// map.set(1, 2, 3, 7.5);
/// assert_eq!(map.at(1, 2, 3), 7.5);
/// assert_eq!(map.shape(), (2, 3, 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap {
    channels: usize,
    height: usize,
    width: usize,
    // Pooled storage (see crate::scratch): images and activation maps are
    // the biggest per-forward buffers, so they recycle through the
    // thread-local arena instead of hitting the allocator each pass.
    data: PoolVec<f32>,
}

impl FeatureMap {
    /// Creates a zero-filled feature map.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Self {
        Self { channels, height, width, data: PoolVec::filled(channels * height * width, 0.0) }
    }

    /// Creates a feature map filled with `value`.
    pub fn filled(channels: usize, height: usize, width: usize, value: f32) -> Self {
        Self { channels, height, width, data: PoolVec::filled(channels * height * width, value) }
    }

    /// Builds a feature map from a flat channel-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the buffer length does not
    /// equal `channels * height * width`.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<f32>) -> Result<Self> {
        let volume = channels * height * width;
        if data.len() != volume {
            return Err(TensorError::LengthMismatch { expected: volume, actual: data.len() });
        }
        Ok(Self { channels, height, width, data: PoolVec::from_vec(data) })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(channels, height, width)` triple.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Immutable view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the map and returns its buffer, releasing the storage
    /// from the scratch-pool cycle.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    #[inline]
    fn offset(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.height + y) * self.width + x
    }

    /// Returns the element at `(channel, row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        self.data[self.offset(c, y, x)]
    }

    /// Sets the element at `(channel, row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, value: f32) {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        let idx = self.offset(c, y, x);
        self.data[idx] = value;
    }

    /// Checked element access.
    pub fn get(&self, c: usize, y: usize, x: usize) -> Option<f32> {
        if c < self.channels && y < self.height && x < self.width {
            Some(self.data[self.offset(c, y, x)])
        } else {
            None
        }
    }

    /// Immutable view of one channel plane as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels`.
    pub fn channel(&self, c: usize) -> &[f32] {
        assert!(c < self.channels, "channel {c} out of bounds for {}", self.channels);
        let plane = self.height * self.width;
        &self.data[c * plane..(c + 1) * plane]
    }

    /// Mutable view of one channel plane.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels`.
    pub fn channel_mut(&mut self, c: usize) -> &mut [f32] {
        assert!(c < self.channels, "channel {c} out of bounds for {}", self.channels);
        let plane = self.height * self.width;
        &mut self.data[c * plane..(c + 1) * plane]
    }

    /// Copies one channel into a [`Matrix`] of shape height × width.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels`.
    pub fn channel_matrix(&self, c: usize) -> Matrix {
        // Copy into a pooled matrix rather than via `to_vec`, which would
        // allocate a fresh buffer on every hot-path call.
        let mut out = Matrix::zeros(self.height, self.width);
        out.as_mut_slice().copy_from_slice(self.channel(c));
        out
    }

    /// Applies `f` to every element, returning a new map.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> FeatureMap {
        let mut data = PoolVec::with_pooled_capacity(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        FeatureMap { channels: self.channels, height: self.height, width: self.width, data }
    }

    /// Box-averages the map down by an integer `factor`: cell `(y, x)` of
    /// each output channel is the mean of the `factor × factor` input box
    /// at `(y·factor, x·factor)`, summed from `0.0` row by row, left to
    /// right. Trailing rows and columns that do not fill a box are
    /// dropped, except that a map smaller than `factor` still yields one
    /// cell per axis averaging what exists.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn downscale(&self, factor: usize) -> FeatureMap {
        assert!(factor > 0, "downscale factor must be positive");
        let (h, w) = (self.height, self.width);
        let nh = (h / factor).max(1);
        let nw = (w / factor).max(1);
        let mut out = FeatureMap::zeros(self.channels, nh, nw);
        let count = |len: usize| factor.min(len);
        let divisor = (count(h) * count(w)).max(1) as f32;
        for c in 0..self.channels {
            let src = self.channel(c);
            for (y, out_row) in out.channel_mut(c).chunks_exact_mut(nw).enumerate() {
                for sy in y * factor..((y + 1) * factor).min(h) {
                    let src_row = &src[sy * w..(sy + 1) * w];
                    for (acc, cell) in out_row.iter_mut().zip(src_row.chunks(factor)) {
                        for &v in cell {
                            *acc += v;
                        }
                    }
                }
                for acc in out_row.iter_mut() {
                    *acc /= divisor;
                }
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Patches this map over `window` with `f(src)` applied elementwise —
    /// the incremental variant of [`Self::map`] for activation layers:
    /// elementwise ops are local, so the dirty region passes through
    /// unchanged and the recomputed cells equal a full `src.map(f)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `src` differs in shape.
    pub fn patch_map_from<F: Fn(f32) -> f32>(
        &mut self,
        src: &FeatureMap,
        window: &crate::dirty::DirtyRect,
        f: F,
    ) -> Result<()> {
        if self.shape() != src.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "patch_map_from",
                lhs: vec![self.channels, self.height, self.width],
                rhs: vec![src.channels, src.height, src.width],
            });
        }
        let window = window.clamp(self.width, self.height);
        for c in 0..self.channels {
            for y in window.y0..window.y1 {
                for x in window.x0..window.x1 {
                    self.set(c, y, x, f(src.at(c, y, x)));
                }
            }
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &FeatureMap) -> Result<FeatureMap> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: vec![self.channels, self.height, self.width],
                rhs: vec![other.channels, other.height, other.width],
            });
        }
        let mut out = self.clone();
        for (d, s) in out.data.iter_mut().zip(&other.data) {
            *d += s;
        }
        Ok(out)
    }

    /// Mean of all elements. Returns `0.0` for an empty map.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Population standard deviation of all elements.
    pub fn std_dev(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let var =
            self.data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / self.data.len() as f32;
        var.sqrt()
    }

    /// Global maximum. Returns `f32::NEG_INFINITY` for an empty map.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Position `(channel, row, col)` of the global maximum, or `None` for an
    /// empty map.
    pub fn argmax(&self) -> Option<(usize, usize, usize)> {
        let (mut best, mut best_idx) = (f32::NEG_INFINITY, None);
        for (i, &v) in self.data.iter().enumerate() {
            if v > best {
                best = v;
                best_idx = Some(i);
            }
        }
        best_idx.map(|i| {
            let plane = self.height * self.width;
            (i / plane, (i % plane) / self.width, i % self.width)
        })
    }

    /// Flattens spatial positions into rows: the result has
    /// `height * width` rows and `channels` columns (token layout used by
    /// the attention encoder).
    pub fn to_token_matrix(&self) -> Matrix {
        let tokens = self.height * self.width;
        let mut out = Matrix::zeros(tokens, self.channels);
        for y in 0..self.height {
            for x in 0..self.width {
                let t = y * self.width + x;
                for c in 0..self.channels {
                    out.set(t, c, self.at(c, y, x));
                }
            }
        }
        out
    }

    /// Inverse of [`FeatureMap::to_token_matrix`]: reshapes a token matrix of
    /// shape `(height * width) × channels` back into a feature map.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the matrix does not have
    /// `height * width` rows.
    pub fn from_token_matrix(tokens: &Matrix, height: usize, width: usize) -> Result<FeatureMap> {
        if tokens.rows() != height * width {
            return Err(TensorError::ShapeMismatch {
                op: "from_token_matrix",
                lhs: vec![tokens.rows(), tokens.cols()],
                rhs: vec![height, width],
            });
        }
        let channels = tokens.cols();
        let mut out = FeatureMap::zeros(channels, height, width);
        for y in 0..height {
            for x in 0..width {
                let t = y * width + x;
                for c in 0..channels {
                    out.set(c, y, x, tokens.at(t, c));
                }
            }
        }
        Ok(out)
    }
}

impl Default for FeatureMap {
    fn default() -> Self {
        FeatureMap::zeros(0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut m = FeatureMap::zeros(2, 3, 4);
        m.set(1, 2, 3, 42.0);
        m.set(0, 0, 0, -1.0);
        assert_eq!(m.at(1, 2, 3), 42.0);
        assert_eq!(m.at(0, 0, 0), -1.0);
        assert_eq!(m.at(1, 0, 0), 0.0);
    }

    #[test]
    fn downscale_matches_per_cell_box_loop_bitwise() {
        // The per-cell loop the row-slice kernel replaced: each output
        // cell sums its box from 0.0 in (dy, dx) order over the cells
        // that exist, then divides by their count.
        fn per_cell(map: &FeatureMap, factor: usize) -> FeatureMap {
            let nh = (map.height() / factor).max(1);
            let nw = (map.width() / factor).max(1);
            let mut out = FeatureMap::zeros(map.channels(), nh, nw);
            for c in 0..map.channels() {
                for y in 0..nh {
                    for x in 0..nw {
                        let (mut acc, mut n) = (0.0f32, 0usize);
                        for dy in 0..factor {
                            for dx in 0..factor {
                                let (sy, sx) = (y * factor + dy, x * factor + dx);
                                if sy < map.height() && sx < map.width() {
                                    acc += map.at(c, sy, sx);
                                    n += 1;
                                }
                            }
                        }
                        out.set(c, y, x, acc / n.max(1) as f32);
                    }
                }
            }
            out
        }
        for (c, h, w) in [(3, 64, 192), (3, 7, 9), (1, 1, 5), (2, 3, 1), (3, 0, 4), (1, 4, 0)] {
            let mut map = FeatureMap::zeros(c, h, w);
            for (i, v) in map.as_mut_slice().iter_mut().enumerate() {
                // Signed values and negative zeros: the sum starts at +0.0.
                *v = if i % 11 == 0 { -0.0 } else { ((i as f32) * 0.71).sin() * 97.0 };
            }
            for factor in 1..=4 {
                let fast = map.downscale(factor);
                let slow = per_cell(&map, factor);
                assert_eq!(fast.shape(), slow.shape(), "({c},{h},{w}) / {factor}");
                let bits =
                    |m: &FeatureMap| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "({c},{h},{w}) / {factor}");
            }
        }
    }

    #[test]
    fn channel_planes_are_disjoint() {
        let mut m = FeatureMap::zeros(2, 2, 2);
        m.channel_mut(0).fill(1.0);
        assert!(m.channel(1).iter().all(|&v| v == 0.0));
        assert!(m.channel(0).iter().all(|&v| v == 1.0));
    }

    #[test]
    fn from_vec_validates_volume() {
        assert!(FeatureMap::from_vec(1, 2, 2, vec![0.0; 3]).is_err());
        assert!(FeatureMap::from_vec(1, 2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn mean_and_std() {
        let m = FeatureMap::from_vec(1, 1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((m.mean() - 2.5).abs() < 1e-6);
        assert!((m.std_dev() - (1.25f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_finds_position() {
        let mut m = FeatureMap::zeros(3, 4, 5);
        m.set(2, 1, 3, 9.0);
        assert_eq!(m.argmax(), Some((2, 1, 3)));
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn token_matrix_roundtrip() {
        let mut m = FeatureMap::zeros(3, 2, 2);
        for c in 0..3 {
            for y in 0..2 {
                for x in 0..2 {
                    m.set(c, y, x, (c * 100 + y * 10 + x) as f32);
                }
            }
        }
        let tokens = m.to_token_matrix();
        assert_eq!(tokens.shape(), (4, 3));
        let back = FeatureMap::from_token_matrix(&tokens, 2, 2).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn add_matching_shapes() {
        let a = FeatureMap::filled(1, 2, 2, 1.0);
        let b = FeatureMap::filled(1, 2, 2, 2.0);
        assert_eq!(a.add(&b).unwrap(), FeatureMap::filled(1, 2, 2, 3.0));
        let c = FeatureMap::zeros(2, 2, 2);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn empty_map_statistics() {
        let m = FeatureMap::default();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.std_dev(), 0.0);
        assert_eq!(m.argmax(), None);
    }
}
