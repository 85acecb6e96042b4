//! Scaled dot-product and multi-head attention.
//!
//! Attention is the *global mixing* primitive: every output token is a
//! softmax-weighted combination of **all** value tokens, so a perturbation
//! anywhere in the image influences every token downstream. This is the
//! architectural channel the paper blames for DETR's susceptibility to
//! butterfly effects ("attention mechanisms connecting two arbitrary regions
//! in an image").

use crate::activation::softmax_rows_inplace;
use crate::error::{Result, TensorError};
use crate::gemm::KernelPolicy;
use crate::init::WeightInit;
use crate::linear::Linear;
use crate::matrix::Matrix;

/// Computes scaled dot-product attention `softmax(QKᵀ/√d)·V`.
///
/// `queries` is `n_q × d`, `keys` and `values` are `n_k × d_k` / `n_k × d_v`
/// with `d == d_k`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the query/key widths differ or
/// the key/value row counts differ.
pub fn scaled_dot_attention(queries: &Matrix, keys: &Matrix, values: &Matrix) -> Result<Matrix> {
    scaled_dot_attention_policy(queries, keys, values, KernelPolicy::default())
}

/// [`scaled_dot_attention`] under an explicit [`KernelPolicy`] for the two
/// matmuls (`q·kᵀ` and `softmax·v`). Outputs are `==`-identical across
/// policies.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the query/key widths differ or
/// the key/value row counts differ.
pub fn scaled_dot_attention_policy(
    queries: &Matrix,
    keys: &Matrix,
    values: &Matrix,
    policy: KernelPolicy,
) -> Result<Matrix> {
    if queries.cols() != keys.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "attention q/k width",
            lhs: vec![queries.rows(), queries.cols()],
            rhs: vec![keys.rows(), keys.cols()],
        });
    }
    if keys.rows() != values.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "attention k/v rows",
            lhs: vec![keys.rows(), keys.cols()],
            rhs: vec![values.rows(), values.cols()],
        });
    }
    let scale = 1.0 / (queries.cols().max(1) as f32).sqrt();
    let mut scores = queries.matmul_nt_policy(keys, policy)?.scale(scale);
    softmax_rows_inplace(&mut scores);
    scores.matmul_policy(values, policy)
}

/// Returns the attention weight matrix `softmax(QKᵀ/√d)` without applying it
/// to the values (used for heatmap introspection).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the query/key widths differ.
pub fn attention_weights(queries: &Matrix, keys: &Matrix) -> Result<Matrix> {
    if queries.cols() != keys.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "attention q/k width",
            lhs: vec![queries.rows(), queries.cols()],
            rhs: vec![keys.rows(), keys.cols()],
        });
    }
    let scale = 1.0 / (queries.cols().max(1) as f32).sqrt();
    let mut scores = queries.matmul(&keys.transpose())?.scale(scale);
    softmax_rows_inplace(&mut scores);
    Ok(scores)
}

/// A multi-head attention layer with learned Q/K/V/output projections.
///
/// # Examples
///
/// ```
/// use bea_tensor::{MultiHeadAttention, Matrix, WeightInit};
///
/// # fn main() -> Result<(), bea_tensor::TensorError> {
/// let mut init = WeightInit::from_seed(1);
/// let mha = MultiHeadAttention::seeded(8, 2, &mut init)?;
/// let tokens = Matrix::zeros(5, 8);
/// let out = mha.forward(&tokens, &tokens, &tokens)?;
/// assert_eq!(out.shape(), (5, 8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    heads: usize,
    model_dim: usize,
    head_dim: usize,
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
    policy: KernelPolicy,
}

// Manual impl: the kernel dispatch policy does not change what the layer
// computes, so it is excluded from equality (mirroring `Linear`).
impl PartialEq for MultiHeadAttention {
    fn eq(&self, other: &Self) -> bool {
        self.heads == other.heads
            && self.model_dim == other.model_dim
            && self.q_proj == other.q_proj
            && self.k_proj == other.k_proj
            && self.v_proj == other.v_proj
            && self.out_proj == other.out_proj
    }
}

impl MultiHeadAttention {
    /// Builds a seeded multi-head attention layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConfig`] if `model_dim` is not divisible
    /// by `heads` or either is zero.
    pub fn seeded(model_dim: usize, heads: usize, init: &mut WeightInit) -> Result<Self> {
        if heads == 0 || model_dim == 0 || !model_dim.is_multiple_of(heads) {
            return Err(TensorError::InvalidConfig {
                what: format!("model_dim {model_dim} must be a positive multiple of heads {heads}"),
            });
        }
        Ok(Self {
            heads,
            model_dim,
            head_dim: model_dim / heads,
            q_proj: Linear::seeded(model_dim, model_dim, init),
            k_proj: Linear::seeded(model_dim, model_dim, init),
            v_proj: Linear::seeded(model_dim, model_dim, init),
            out_proj: Linear::seeded(model_dim, model_dim, init),
            policy: KernelPolicy::default(),
        })
    }

    /// The kernel dispatch policy currently in effect.
    pub fn kernel_policy(&self) -> KernelPolicy {
        self.policy
    }

    /// Selects the matmul kernels used by [`Self::forward`]: propagated to
    /// all four projections and to the per-head attention products.
    /// Outputs are `==`-identical across policies.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
        self.q_proj.set_kernel_policy(policy);
        self.k_proj.set_kernel_policy(policy);
        self.v_proj.set_kernel_policy(policy);
        self.out_proj.set_kernel_policy(policy);
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model (embedding) dimensionality.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Per-head dimensionality (`model_dim / heads`).
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The query projection (read access for the autodiff tape, which
    /// re-composes [`Self::forward`] from these layers op by op).
    pub fn q_proj(&self) -> &Linear {
        &self.q_proj
    }

    /// The key projection.
    pub fn k_proj(&self) -> &Linear {
        &self.k_proj
    }

    /// The value projection.
    pub fn v_proj(&self) -> &Linear {
        &self.v_proj
    }

    /// The output projection applied to the concatenated head outputs.
    pub fn out_proj(&self) -> &Linear {
        &self.out_proj
    }

    /// Applies multi-head attention.
    ///
    /// `queries`, `keys` and `values` all have `model_dim` columns; for
    /// self-attention pass the same token matrix three times, for
    /// cross-attention (the DETR decoder) pass object queries as `queries`
    /// and encoder tokens as `keys`/`values`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if any operand width differs
    /// from `model_dim` or key/value row counts differ.
    pub fn forward(&self, queries: &Matrix, keys: &Matrix, values: &Matrix) -> Result<Matrix> {
        let q = self.q_proj.forward(queries)?;
        let k = self.k_proj.forward(keys)?;
        let v = self.v_proj.forward(values)?;
        // Write each head's output straight into its column range of a
        // preallocated concat matrix. The incremental `hconcat` this
        // replaces copied the accumulated prefix once per head (O(heads²)
        // copies plus a fresh allocation each round); the values placed in
        // each column are identical.
        let mut concat = Matrix::zeros(q.rows(), self.model_dim);
        for h in 0..self.heads {
            let start = h * self.head_dim;
            let qh = q.columns(start, self.head_dim);
            let kh = k.columns(start, self.head_dim);
            let vh = v.columns(start, self.head_dim);
            let head_out = scaled_dot_attention_policy(&qh, &kh, &vh, self.policy)?;
            for r in 0..concat.rows() {
                concat.row_mut(r)[start..start + self.head_dim].copy_from_slice(head_out.row(r));
            }
        }
        self.out_proj.forward(&concat)
    }

    /// [`Self::forward`] over a row-stacked batch of `item_rows`-row token
    /// matrices (see [`Matrix::vstack`]).
    ///
    /// The four projections run **once** over the stacked matrix — their
    /// GEMMs compute every output row independently, so this streams the
    /// pre-packed weight panels once per batch while producing each row
    /// bit-identically to the per-item call. Attention itself mixes rows,
    /// so `softmax(q·kᵀ)·v` runs per item block with exactly the per-item
    /// operands; the result equals [`Self::forward`] on each item alone,
    /// `==`-element for element, regardless of what else shares the batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand row counts
    /// are not equal multiples of `item_rows` (or `item_rows` is zero),
    /// or on any width mismatch [`Self::forward`] would reject.
    pub fn forward_batched(
        &self,
        queries: &Matrix,
        keys: &Matrix,
        values: &Matrix,
        item_rows: usize,
    ) -> Result<Matrix> {
        if item_rows == 0
            || !queries.rows().is_multiple_of(item_rows)
            || keys.rows() != queries.rows()
            || values.rows() != queries.rows()
        {
            return Err(TensorError::ShapeMismatch {
                op: "attention batch rows",
                lhs: vec![queries.rows(), keys.rows(), values.rows()],
                rhs: vec![item_rows],
            });
        }
        let q = self.q_proj.forward(queries)?;
        let k = self.k_proj.forward(keys)?;
        let v = self.v_proj.forward(values)?;
        let items = q.rows() / item_rows;
        let mut concat = Matrix::zeros(q.rows(), self.model_dim);
        for item in 0..items {
            let r0 = item * item_rows;
            let qb = q.row_block(r0, item_rows);
            let kb = k.row_block(r0, item_rows);
            let vb = v.row_block(r0, item_rows);
            for h in 0..self.heads {
                let start = h * self.head_dim;
                let qh = qb.columns(start, self.head_dim);
                let kh = kb.columns(start, self.head_dim);
                let vh = vb.columns(start, self.head_dim);
                let head_out = scaled_dot_attention_policy(&qh, &kh, &vh, self.policy)?;
                for r in 0..item_rows {
                    concat.row_mut(r0 + r)[start..start + self.head_dim]
                        .copy_from_slice(head_out.row(r));
                }
            }
        }
        self.out_proj.forward(&concat)
    }

    /// Averaged per-head attention weights from `queries` to `keys`
    /// (for heatmap introspection).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on operand width mismatch.
    pub fn average_attention(&self, queries: &Matrix, keys: &Matrix) -> Result<Matrix> {
        let q = self.q_proj.forward(queries)?;
        let k = self.k_proj.forward(keys)?;
        let mut acc = Matrix::zeros(q.rows(), k.rows());
        for h in 0..self.heads {
            let start = h * self.head_dim;
            let qh = q.columns(start, self.head_dim);
            let kh = k.columns(start, self.head_dim);
            acc = acc.add(&attention_weights(&qh, &kh)?)?;
        }
        Ok(acc.scale(1.0 / self.heads as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_rows_are_convex_combinations() {
        let q = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let v = Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 10.0]]).unwrap();
        let out = scaled_dot_attention(&q, &k, &v).unwrap();
        // Output must lie inside the convex hull of value rows.
        assert!(out.at(0, 0) > 0.0 && out.at(0, 0) < 10.0);
        assert!((out.at(0, 0) + out.at(0, 1) - 10.0).abs() < 1e-4);
        // The query matches key 0 more strongly.
        assert!(out.at(0, 0) > out.at(0, 1));
    }

    #[test]
    fn attention_weight_rows_sum_to_one() {
        let q = Matrix::from_rows(&[&[0.3, -0.7], &[1.5, 0.2]]).unwrap();
        let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let w = attention_weights(&q, &k).unwrap();
        assert_eq!(w.shape(), (2, 3));
        for r in 0..2 {
            let sum: f32 = w.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(w.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn attention_shape_mismatch_errors() {
        let q = Matrix::zeros(1, 3);
        let k = Matrix::zeros(2, 4);
        let v = Matrix::zeros(2, 4);
        assert!(scaled_dot_attention(&q, &k, &v).is_err());
        let k2 = Matrix::zeros(2, 3);
        let v2 = Matrix::zeros(3, 4);
        assert!(scaled_dot_attention(&q, &k2, &v2).is_err());
    }

    #[test]
    fn mha_shapes() {
        let mut init = WeightInit::from_seed(2);
        let mha = MultiHeadAttention::seeded(12, 3, &mut init).unwrap();
        let tokens = Matrix::filled(7, 12, 0.1);
        let out = mha.forward(&tokens, &tokens, &tokens).unwrap();
        assert_eq!(out.shape(), (7, 12));
    }

    #[test]
    fn mha_rejects_bad_config() {
        let mut init = WeightInit::from_seed(3);
        assert!(MultiHeadAttention::seeded(10, 3, &mut init).is_err());
        assert!(MultiHeadAttention::seeded(0, 1, &mut init).is_err());
        assert!(MultiHeadAttention::seeded(8, 0, &mut init).is_err());
    }

    #[test]
    fn attention_propagates_remote_changes() {
        // The butterfly channel: perturbing ONE token changes EVERY output
        // token, in contrast to conv locality (see conv::tests::conv_output_is_local).
        let mut init = WeightInit::from_seed(4);
        let mha = MultiHeadAttention::seeded(8, 2, &mut init).unwrap();
        let mut tokens = Matrix::zeros(6, 8);
        for r in 0..6 {
            for c in 0..8 {
                tokens.set(r, c, ((r * 8 + c) as f32 * 0.01).sin());
            }
        }
        let base = mha.forward(&tokens, &tokens, &tokens).unwrap();
        let mut perturbed = tokens.clone();
        perturbed.set(5, 0, perturbed.at(5, 0) + 1.0); // poke the last token
        let out = mha.forward(&perturbed, &perturbed, &perturbed).unwrap();
        for r in 0..5 {
            let moved: f32 = (0..8).map(|c| (base.at(r, c) - out.at(r, c)).abs()).sum();
            assert!(moved > 0.0, "token {r} should feel the remote perturbation");
        }
    }

    #[test]
    fn mha_forward_is_policy_invariant() {
        let mut init = WeightInit::from_seed(6);
        let mha = MultiHeadAttention::seeded(12, 3, &mut init).unwrap();
        let mut tokens = Matrix::zeros(9, 12);
        for (i, v) in tokens.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32) * 0.23).sin();
        }
        let mut reference = mha.clone();
        reference.set_kernel_policy(KernelPolicy::Reference);
        let mut blocked = mha.clone();
        blocked.set_kernel_policy(KernelPolicy::Blocked);
        assert_eq!(
            reference.forward(&tokens, &tokens, &tokens).unwrap(),
            blocked.forward(&tokens, &tokens, &tokens).unwrap()
        );
        assert_eq!(reference, blocked, "policy must be excluded from equality");
    }

    #[test]
    fn batched_forward_matches_per_item_forward_bitwise() {
        for policy in KernelPolicy::ALL {
            let mut init = WeightInit::from_seed(8);
            let mut mha = MultiHeadAttention::seeded(12, 3, &mut init).unwrap();
            mha.set_kernel_policy(policy);
            let items: Vec<Matrix> = (0..3)
                .map(|i| {
                    let mut tokens = Matrix::zeros(7, 12);
                    for (j, v) in tokens.as_mut_slice().iter_mut().enumerate() {
                        *v = ((j as f32) * 0.19 + i as f32).sin();
                    }
                    tokens
                })
                .collect();
            let refs: Vec<&Matrix> = items.iter().collect();
            let stacked = Matrix::vstack(&refs).unwrap();
            let batched = mha.forward_batched(&stacked, &stacked, &stacked, 7).unwrap();
            for (i, item) in items.iter().enumerate() {
                assert_eq!(
                    batched.row_block(i * 7, 7),
                    mha.forward(item, item, item).unwrap(),
                    "{policy} item {i}"
                );
            }
        }
    }

    #[test]
    fn batched_forward_validates_item_rows() {
        let mut init = WeightInit::from_seed(9);
        let mha = MultiHeadAttention::seeded(8, 2, &mut init).unwrap();
        let tokens = Matrix::zeros(6, 8);
        assert!(mha.forward_batched(&tokens, &tokens, &tokens, 0).is_err());
        assert!(mha.forward_batched(&tokens, &tokens, &tokens, 4).is_err());
        assert!(mha.forward_batched(&tokens, &tokens, &Matrix::zeros(4, 8), 3).is_err());
        assert!(mha.forward_batched(&tokens, &tokens, &tokens, 3).is_ok());
    }

    #[test]
    fn cross_attention_shapes() {
        let mut init = WeightInit::from_seed(5);
        let mha = MultiHeadAttention::seeded(8, 2, &mut init).unwrap();
        let queries = Matrix::filled(4, 8, 0.5); // object queries
        let memory = Matrix::filled(20, 8, 0.25); // encoder tokens
        let out = mha.forward(&queries, &memory, &memory).unwrap();
        assert_eq!(out.shape(), (4, 8));
        let w = mha.average_attention(&queries, &memory).unwrap();
        assert_eq!(w.shape(), (4, 20));
    }
}
