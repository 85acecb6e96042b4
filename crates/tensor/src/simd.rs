//! Explicit 8-lane `f32` vector used by the GEMM microkernels.
//!
//! The crate forbids `unsafe`, which rules out `std::arch` intrinsics, so
//! "explicit SIMD" here means a fixed-width lane array whose operations are
//! straight-line per-lane loops over `[f32; 8]` — the exact shape LLVM's
//! loop/SLP vectoriser lowers to packed `mulps`/`addps` on every release
//! build (fixed trip count, no bounds checks after the array conversion,
//! no cross-lane dependencies). The win over open-coded slice loops is that
//! the width is pinned at the type level: the microkernel can neither
//! accidentally introduce a reduction across lanes nor fall back to scalar
//! code when a slice length is opaque to the optimiser.
//!
//! **Exactness contract.** Every lane holds one independent output element.
//! [`F32x8::mul_add`] evaluates `slot += a * b[lane]` per lane — a separate
//! multiply and add, never an FMA contraction (Rust only contracts through
//! the explicit `f32::mul_add` intrinsic, which this module never calls).
//! A sequence of `mul_add` calls therefore accumulates each lane in exactly
//! the order the calls are made, with a single `f32` accumulator per lane —
//! the same arithmetic, in the same order, as the scalar reference loops.
//! The lane type cannot change results, only throughput.

/// Lane width, chosen to match the microkernel tile width `NR`.
pub const LANES: usize = 8;

/// Eight independent `f32` accumulator lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads eight contiguous values.
    ///
    /// # Panics
    ///
    /// Panics if `slice` holds fewer than [`LANES`] values.
    #[inline(always)]
    pub fn load(slice: &[f32]) -> Self {
        let lanes: &[f32; LANES] = slice[..LANES].try_into().expect("LANES-wide load");
        Self(*lanes)
    }

    /// Per-lane `self[lane] += a * b[lane]` — separate multiply and add,
    /// matching the scalar reference expression exactly (no FMA).
    #[inline(always)]
    pub fn mul_add(&mut self, a: f32, b: Self) {
        for (slot, bv) in self.0.iter_mut().zip(b.0) {
            *slot += a * bv;
        }
    }

    /// Stores the lanes into eight contiguous output values.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than [`LANES`] values.
    #[inline(always)]
    pub fn store(self, out: &mut [f32]) {
        out[..LANES].copy_from_slice(&self.0);
    }

    /// Stores the first `live` lanes into `out[..live]` — the partial
    /// store of an edge tile whose remaining lanes are padding.
    ///
    /// # Panics
    ///
    /// Panics if `live > LANES` or `out` holds fewer than `live` values.
    #[inline(always)]
    pub fn store_prefix(self, out: &mut [f32], live: usize) {
        out[..live].copy_from_slice(&self.0[..live]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_add_matches_scalar_bitwise() {
        // The lane op must be the identical expression `acc += a * b`,
        // evaluated per lane — compare against a scalar accumulator.
        let terms: Vec<(f32, [f32; LANES])> = (0..23)
            .map(|k| {
                let a = ((k as f32) * 0.37 + 0.1).sin() * 3.0;
                let mut b = [0.0f32; LANES];
                for (j, slot) in b.iter_mut().enumerate() {
                    *slot = ((k * LANES + j) as f32 * 0.53 - 1.0).cos() * 2.5;
                }
                (a, b)
            })
            .collect();
        let mut vec_acc = F32x8::splat(0.25);
        let mut scalar_acc = [0.25f32; LANES];
        for (a, b) in &terms {
            vec_acc.mul_add(*a, F32x8(*b));
            for (slot, bv) in scalar_acc.iter_mut().zip(b) {
                *slot += a * bv;
            }
        }
        assert_eq!(vec_acc.0, scalar_acc);
    }

    #[test]
    fn load_store_round_trip() {
        let data: Vec<f32> = (0..LANES as i32).map(|i| i as f32 - 3.5).collect();
        let v = F32x8::load(&data);
        let mut out = [0.0f32; LANES];
        v.store(&mut out);
        assert_eq!(out.as_slice(), data.as_slice());
        assert_eq!(F32x8::splat(2.0).0, [2.0; LANES]);
        let mut prefix = [9.0f32; LANES];
        v.store_prefix(&mut prefix, 3);
        assert_eq!(&prefix[..3], &data[..3]);
        assert_eq!(&prefix[3..], &[9.0; LANES - 3]);
    }
}
