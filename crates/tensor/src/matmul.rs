//! Matrix multiplication kernels, including the transposed variants used by
//! backpropagation (`dX = dY·Wᵀ`, `dW = Xᵀ·dY`).
//!
//! All kernels operate on flat row-major slices so they can be reused on
//! tensor views without reshaping.
//!
//! # One kernel
//!
//! Every variant is one call shape of [`simd::gemm_acc`],
//! `c[r·n + j] += Σ_p a[r·ars + p·aps] · b[p·n + j]`. The variants differ
//! only in how `A` is strided and whether zero `A` entries are skipped:
//!
//! | entry point                          | `ars` | `aps` | zero skip |
//! |--------------------------------------|-------|-------|-----------|
//! | [`matmul_flat`], [`matmul_flat_acc`] | `k`   | `1`   | on        |
//! | [`matmul_at_flat_acc`]               | `1`   | `k`   | on        |
//! | [`matmul_bt_flat`]                   | `k`   | `1`   | off       |
//!
//! [`matmul_bt_flat`] first transposes `B` into a scratch panel so its
//! right operand has the `[k, n]` layout the kernel streams. The panel
//! belongs to the calling thread and is reused across calls, so it holds
//! as much memory as the largest `B` that thread has transposed.
//!
//! # Threading & determinism
//!
//! Large multiplies run row-parallel (threads own disjoint blocks of
//! output rows, see `crate::parallel`) and visit the shared dimension in
//! `KC`-row panels so a panel of `B` stays cache-resident across output
//! rows — but only when more than one thread will actually engage: the
//! single-thread path runs the kernel once over the whole shared
//! dimension. Every output element is one running sum, `c += a·b` with
//! `p` ascending and a separate multiply and add (never FMA), whatever
//! the path: row-parallelism only partitions independent output rows,
//! the panels are visited in ascending order, and the kernel is bitwise
//! identical at every [`crate::simd`] level. So results are *bitwise
//! identical* to the plain serial loops for every input (NaN, ±inf and
//! −0.0 included) — i-k-j with the `av == 0.0` skip for the standard and
//! `Aᵀ·B` kernels, and, for `A·Bᵀ`, the running-sum dot product
//! `acc = 0.0; for p { acc += a·b }`: with the skip off, each output
//! lane of the transposed-panel product adds exactly those products in
//! exactly that order, starting from the same `+0.0`. Training replicas
//! rely on this: identical inputs must produce identical models on every
//! rank regardless of `GTOPK_THREADS` or `GTOPK_SIMD`.

use crate::{parallel, simd};
use crate::{Result, Shape, Tensor, TensorError};
use std::cell::RefCell;

/// Shared-dimension block size: a `KC × n` panel of `B` (`KC` rows) is
/// reused across all output rows before moving on.
const KC: usize = 128;

/// Below this many fused multiply-adds a multiply stays serial.
const PAR_MIN_FLOPS: usize = 1 << 20;

thread_local! {
    /// [`matmul_bt_flat`]'s transposed-`B` panel, reused across calls.
    static BT_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Minimum output rows per thread so each spawn amortizes over at least
/// `PAR_MIN_FLOPS` work.
fn min_rows_for(flops_per_row: usize) -> usize {
    (PAR_MIN_FLOPS / flops_per_row.max(1)).max(1)
}

/// `C[rows,n] += A·B` over all rows of `c` (see [`simd::gemm_acc`] for
/// the strides). When more than one thread engages, threads own disjoint
/// row blocks and visit the shared dimension in ascending `KC` panels;
/// otherwise one unblocked kernel call covers everything (blocking
/// without sharing only re-reads `C`). Bitwise identical either way (see
/// module docs).
fn gemm<const SKIP: bool>(
    a: &[f32],
    ars: usize,
    aps: usize,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
) {
    let min_rows = min_rows_for(k * n);
    if k == 0 || parallel::chunk_count(c.len() / n, min_rows) <= 1 {
        simd::gemm_acc::<SKIP>(a, ars, aps, b, c, k, n);
        return;
    }
    parallel::for_each_row_block_mut(c, n, min_rows, |first_row, cblock| {
        let ablock = &a[first_row * ars..];
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + KC).min(k);
            let bpanel = &b[p0 * n..p1 * n];
            simd::gemm_acc::<SKIP>(&ablock[p0 * aps..], ars, aps, bpanel, cblock, p1 - p0, n);
            p0 = p1;
        }
    });
}

/// `C[m,n] = A[m,k] · B[k,n]` over flat row-major slices.
///
/// Blocked and row-parallel for large inputs; bitwise identical to the
/// serial loop for any thread count (see module docs).
///
/// # Panics
///
/// Debug-asserts that slice lengths match the given dimensions.
pub fn matmul_flat(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    c.iter_mut().for_each(|v| *v = 0.0);
    matmul_flat_acc(a, b, c, m, k, n);
}

/// `C[m,n] += A[m,k] · B[k,n]` (accumulating variant).
pub fn matmul_flat_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    gemm::<true>(a, k, 1, b, c, k, n);
}

/// `dst[c·rows + r] = src[r·cols + c]`: the `[cols, rows]` transpose of a
/// row-major `[rows, cols]` matrix.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` — right operand stored transposed.
///
/// This is the `dX = dY · Wᵀ` step of a linear layer's backward pass when
/// `W` is stored `[n_out, n_in]`. Each output element is the running-sum
/// dot product of an `A` row and a `B` row, bitwise (see module docs).
pub fn matmul_bt_flat(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    c.iter_mut().for_each(|v| *v = 0.0);
    BT_PANEL.with_borrow_mut(|panel| {
        panel.resize(k * n, 0.0);
        transpose_into(b, n, k, panel);
        gemm::<false>(a, k, 1, panel, c, k, n);
    });
}

/// `C[k,n] += A[m,k]ᵀ · B[m,n]` — left operand transposed, accumulating.
///
/// This is the `dW += Xᵀ · dY` step of a linear layer's backward pass.
/// Threads own disjoint blocks of `C` rows (columns of `A`); each walks
/// `i` ascending, so the result is bitwise identical to the serial loop.
pub fn matmul_at_flat_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    gemm::<true>(a, 1, k, b, c, m, n);
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is `[m,k]` and
    /// `other` is `[k,n]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gtopk_tensor::{Shape, Tensor};
    /// let a = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 2.0]).unwrap();
    /// let b = Tensor::from_vec(Shape::d2(2, 1), vec![3.0, 4.0]).unwrap();
    /// assert_eq!(a.matmul(&b).unwrap().data(), &[11.0]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (ls, rs) = (self.shape(), other.shape());
        if ls.rank() != 2 || rs.rank() != 2 || ls.dim(1) != rs.dim(0) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: ls.dims().to_vec(),
                rhs: rs.dims().to_vec(),
            });
        }
        let (m, k, n) = (ls.dim(0), ls.dim(1), rs.dim(1));
        let mut out = Tensor::zeros(Shape::d2(m, n));
        matmul_flat(self.data(), other.data(), out.data_mut(), m, k, n);
        Ok(out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for non-rank-2 tensors.
    pub fn transpose2(&self) -> Result<Tensor> {
        let s = self.shape();
        if s.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "transpose2",
                lhs: s.dims().to_vec(),
                rhs: vec![],
            });
        }
        let (m, n) = (s.dim(0), s.dim(1));
        let mut out = Tensor::zeros(Shape::d2(n, m));
        transpose_into(self.data(), m, n, out.data_mut());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut c = vec![0.0; m * n];
        matmul_flat(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let (m, k, n) = (2, 3, 4);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        // b stored [n, k]
        let b: Vec<f32> = (0..n * k).map(|i| (i as f32) * 0.5).collect();
        // build bT [k, n]
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        matmul_bt_flat(&a, &b, &mut c1, m, k, n);
        let c2 = naive(&a, &bt, m, k, n);
        assert_eq!(c1, c2);
    }

    #[test]
    fn matmul_at_acc_matches_explicit_transpose() {
        let (m, k, n) = (4, 2, 3);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 3.0).collect();
        let b: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.25).collect();
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c1 = vec![1.0; k * n]; // accumulates onto existing
        matmul_at_flat_acc(&a, &b, &mut c1, m, k, n);
        let mut c2 = naive(&at, &b, k, m, n);
        for v in &mut c2 {
            *v += 1.0;
        }
        for (x, y) in c1.iter().zip(c2.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn acc_variant_accumulates() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut c = [10.0, 10.0, 10.0, 10.0];
        matmul_flat_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn serial_blocked_and_simd_dispatch_bitwise_identical() {
        use crate::parallel::{with_min_chunk, with_thread_limit};
        use crate::simd::{self, SimdLevel};
        // k > KC exercises the p-blocked kernel on the parallel path vs
        // the unblocked kernel on the single-thread path; irrational
        // inputs make any reassociation visible in the low bits.
        let (m, k, n) = (7, 2 * KC + 13, 9);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.61).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect();
        let run = || {
            let mut c = vec![0.0f32; m * n];
            matmul_flat(&a, &b, &mut c, m, k, n);
            c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let reference = with_thread_limit(1, || simd::with_simd_level(SimdLevel::Scalar, run));
        for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
            simd::with_simd_level(level, || {
                assert_eq!(with_thread_limit(1, run), reference, "serial {level}");
                with_thread_limit(4, || {
                    with_min_chunk(1, || assert_eq!(run(), reference, "parallel {level}"));
                });
            });
        }
    }

    #[test]
    fn tensor_matmul_shape_errors() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 3));
        assert!(a.matmul(&b).is_err());
        let c = Tensor::zeros(Shape::d1(3));
        assert!(a.matmul(&c).is_err());
    }

    #[test]
    fn transpose2_roundtrip() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let at = a.transpose2().unwrap();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.data(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(at.transpose2().unwrap(), a);
    }
}
