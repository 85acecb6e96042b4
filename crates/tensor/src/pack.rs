//! Pre-packed weight panels for the transpose (NT) GEMM.
//!
//! The blocked `a · bᵀ` kernel ([`crate::gemm`]) wants each `NR`-column
//! panel of `b` transposed to k-major so the microkernel streams it
//! contiguously. When `b` is a layer's weight matrix that layout never
//! changes between calls, yet the per-call kernel re-derives it for every
//! column tile of every forward. [`PackedWeights`] hoists that transpose
//! to layer construction: it stores the **identical** panel layout the
//! per-call kernel would build (`panel[k * NR + nj] = b[(j0 + nj) * kk + k]`
//! for each full `NR`-wide tile at column `j0`), so the prepacked GEMM
//! reads the same values in the same ascending-k order and stays
//! bit-identical to both the per-call blocked kernel and the reference
//! loop nest.
//!
//! Ragged edge columns (`n % NR != 0`) are deliberately *not* packed
//! here: both the per-call kernel and the prepacked path pack their
//! zero-padded `NR`-wide panel per call from the original weight matrix,
//! so the two read the same values.
//!
//! Scope: only the NT product with a *constant* right-hand side benefits.
//! `Linear` (`y = x·Wᵀ`) and therefore every `MultiHeadAttention`
//! projection pre-pack. Attention's `q·kᵀ` has a data-dependent right-hand
//! side, so it keeps the per-call pack (drawn from the scratch arena);
//! `Conv2d` lowers to the NN kernel, which streams `b` row-major and never
//! packs at all.

use crate::error::{Result, TensorError};
use crate::gemm;
use crate::matrix::Matrix;

/// A weight matrix's NT-GEMM panels, transposed k-major once at
/// construction and reused by every forward pass.
///
/// Packed from an `out × in` weight matrix (the right-hand side `b` of
/// `a · bᵀ`): one `in × NR` k-major panel per full `NR`-wide tile of
/// output columns. See the module docs for the exact layout contract.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    /// `b.rows()` — output features of the owning layer.
    rows: usize,
    /// `b.cols()` — the shared inner (k) dimension.
    inner: usize,
    /// Concatenated `inner × NR` panels for the `rows / NR` full tiles.
    panels: Vec<f32>,
}

impl PackedWeights {
    /// Columns per packed panel (the microkernel's `NR`).
    pub const TILE_COLS: usize = gemm::NR;

    /// Packs `weight` (shape `out × in`) into k-major `NR`-wide panels.
    pub fn pack(weight: &Matrix) -> Self {
        let rows = weight.rows();
        let inner = weight.cols();
        let nr = Self::TILE_COLS;
        let full = rows - rows % nr;
        let b = weight.as_slice();
        let mut panels = vec![0.0f32; full * inner];
        for (tile, j0) in (0..full).step_by(nr).enumerate() {
            let panel = &mut panels[tile * inner * nr..(tile + 1) * inner * nr];
            for k in 0..inner {
                for nj in 0..nr {
                    panel[k * nr + nj] = b[(j0 + nj) * inner + k];
                }
            }
        }
        Self { rows, inner, panels }
    }

    /// Output-feature count of the packed weight (`b.rows()`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Inner (k) dimension of the packed weight (`b.cols()`).
    pub fn inner_dim(&self) -> usize {
        self.inner
    }

    /// Number of full `NR`-wide tiles that were packed; the remaining
    /// `rows % NR` ragged columns are packed per call from the original
    /// matrix.
    pub fn full_tiles(&self) -> usize {
        self.rows / Self::TILE_COLS
    }

    /// The k-major panel for full tile `tile` (length `inner × NR`).
    ///
    /// # Panics
    ///
    /// Panics if `tile >= full_tiles()`.
    pub fn panel(&self, tile: usize) -> &[f32] {
        let span = self.inner * Self::TILE_COLS;
        &self.panels[tile * span..(tile + 1) * span]
    }

    /// All full-tile panels concatenated (the layout the NT microkernel
    /// consumes directly).
    pub(crate) fn all_panels(&self) -> &[f32] {
        &self.panels
    }

    /// Whether this pack was built from a matrix of `weight`'s shape.
    pub fn matches_shape(&self, weight: &Matrix) -> bool {
        self.rows == weight.rows() && self.inner == weight.cols()
    }
}

/// Prepacked `a · weightᵀ`: the blocked NT product reusing `packed`'s
/// construction-time panels instead of re-packing per call. Bit-identical
/// to [`crate::gemm::matmul_nt_blocked`] (and, for finite inputs, to
/// `a.matmul(&weight.transpose())`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() ==
/// weight.cols()` and `packed` was built from a matrix of `weight`'s
/// shape.
pub fn matmul_nt_packed(a: &Matrix, weight: &Matrix, packed: &PackedWeights) -> Result<Matrix> {
    if a.cols() != weight.cols() || !packed.matches_shape(weight) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt_packed",
            lhs: vec![a.rows(), a.cols()],
            rhs: vec![packed.rows(), packed.inner_dim()],
        });
    }
    let mut out = Matrix::zeros(a.rows(), weight.rows());
    gemm::gemm_nt_prepacked(
        a.rows(),
        a.cols(),
        weight.rows(),
        a.as_slice(),
        packed,
        weight.as_slice(),
        out.as_mut_slice(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(rows: usize, cols: usize, phase: f32) -> Matrix {
        let data = (0..rows * cols).map(|i| ((i as f32) * 0.53 + phase).sin() * 2.5).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn panel_layout_matches_the_per_call_pack() {
        // The per-call kernel fills pack[k*NR + nj] = b[(j0+nj)*kk + k];
        // the construction-time panels must hold the same values.
        let nr = PackedWeights::TILE_COLS;
        let weight = noisy(3 * nr + 5, 7, 0.9); // 3 full tiles + ragged tail
        let packed = PackedWeights::pack(&weight);
        assert_eq!(packed.full_tiles(), 3);
        for tile in 0..packed.full_tiles() {
            let j0 = tile * nr;
            let panel = packed.panel(tile);
            for k in 0..weight.cols() {
                for nj in 0..nr {
                    assert_eq!(panel[k * nr + nj], weight.at(j0 + nj, k), "tile {tile} k {k}");
                }
            }
        }
    }

    #[test]
    fn prepacked_matches_per_call_blocked_across_shapes() {
        // Shapes straddling tile boundaries, including NR-ragged and
        // fully-ragged (n < NR) column counts.
        for (m, kk, n) in
            [(1, 1, 1), (5, 6, 9), (12, 24, 12), (3, 2, 17), (4, 8, 8), (7, 3, 23), (2, 5, 7)]
        {
            let a = noisy(m, kk, 0.7);
            let weight = noisy(n, kk, 1.3);
            let packed = PackedWeights::pack(&weight);
            assert_eq!(
                matmul_nt_packed(&a, &weight, &packed).unwrap(),
                gemm::matmul_nt_blocked(&a, &weight).unwrap(),
                "shape ({m},{kk},{n})"
            );
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = noisy(2, 4, 0.0);
        let weight = noisy(9, 4, 0.1);
        let packed = PackedWeights::pack(&weight);
        // a's inner dim disagrees with the weight.
        assert!(matmul_nt_packed(&noisy(2, 3, 0.2), &weight, &packed).is_err());
        // pack built from a different weight shape.
        let stale = PackedWeights::pack(&noisy(8, 4, 0.3));
        assert!(matmul_nt_packed(&a, &weight, &stale).is_err());
        assert!(matmul_nt_packed(&a, &weight, &packed).is_ok());
    }
}
