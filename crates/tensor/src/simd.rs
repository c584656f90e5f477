//! Runtime-dispatched SIMD kernels for the gradient hot path.
//!
//! Every per-element pass the per-step critical path performs — residual
//! accumulate (`acc += g`), magnitude scans (max / count-above-threshold),
//! threshold compaction (emit the indices where `|v| > thr`), the fused
//! accumulate-and-compact pass, and the register-tiled matmul kernel
//! every matmul variant runs ([`gemm_acc`]) — funnels through this
//! module, which picks an AVX2, SSE2, or portable-scalar implementation
//! at runtime.
//!
//! # Dispatch
//!
//! The level is resolved, in priority order, from:
//!
//! 1. a thread-local override installed by [`with_simd_level`] (used by the
//!    identity tests and benchmarks to compare levels on the same inputs),
//! 2. the `GTOPK_SIMD` environment variable (read once per process;
//!    `auto`, `avx2`, `sse2`, or `scalar` — anything else falls back to
//!    `auto`), mirroring `GTOPK_THREADS`,
//! 3. feature detection (`is_x86_feature_detected!`): AVX2 when the CPU
//!    has it, otherwise SSE2 (always present on `x86_64`), otherwise —
//!    on non-x86 targets — scalar.
//!
//! A requested level the CPU cannot execute is clamped down to the best
//! detected one, so `GTOPK_SIMD=avx2` on an SSE2-only host degrades
//! gracefully instead of faulting.
//!
//! # Determinism
//!
//! Every kernel here is **bitwise identical** to its serial scalar
//! counterpart at every level — the same contract the threading layer
//! ([`crate::parallel`]) gives, and for the same reason: replicas must
//! not diverge just because one host has AVX2 and another does not.
//! The identity holds by construction, not by tolerance:
//!
//! - the elementwise kernels (`acc += g`, `c += a·b`) perform exactly one
//!   IEEE-754 rounding per element per operation in lane order; vector
//!   `addps`/`mulps` round each lane exactly like the scalar ops. The
//!   matmul kernel deliberately uses separate multiply and add
//!   instructions — **no FMA** — because fusing would drop the
//!   intermediate rounding the scalar loop performs. Holding a C strip
//!   in registers across the shared dimension changes only where the
//!   running sum lives between products, not its value.
//! - the comparison kernels use ordered, non-signaling predicates
//!   (`_CMP_GT_OQ` / `cmpgtps`), which treat NaN as *not greater* — the
//!   same verdict the scalar `v.abs() > thr` reaches (and the same one
//!   the top-k comparator's NaN-counts-as-zero magnitude produces for
//!   any threshold ≥ 0).
//! - [`max_abs`] masks NaN lanes to `+0.0` before taking lane maxima;
//!   max over non-NaN, non-negative floats is associative and
//!   commutative, so the horizontal reduction order cannot matter.
//! - compaction walks each lane mask in ascending bit order, so indices
//!   are emitted in exactly the serial order.
//! - denormals behave identically: Rust never enables FTZ/DAZ, and the
//!   scalar f32 ops on `x86_64` execute on the same SSE units.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// A SIMD instruction-set level the kernels can dispatch to.
///
/// Ordered by capability: `Scalar < Sse2 < Avx2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference implementation every other
    /// level must match bitwise.
    Scalar,
    /// 128-bit SSE2 (4 × f32 lanes) — baseline on every `x86_64`.
    Sse2,
    /// 256-bit AVX2 (8 × f32 lanes).
    Avx2,
}

impl SimdLevel {
    /// All levels, weakest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];

    /// Lower-case name as accepted by `GTOPK_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this level.
    pub fn available(self) -> bool {
        self <= detect_best()
    }

    /// Parses a `GTOPK_SIMD` value. `auto` and unrecognized strings give
    /// `None` (= use detection).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Best level the running CPU supports.
#[cfg(target_arch = "x86_64")]
pub fn detect_best() -> SimdLevel {
    static BEST: OnceLock<SimdLevel> = OnceLock::new();
    *BEST.get_or_init(|| {
        if std::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline ABI.
            SimdLevel::Sse2
        }
    })
}

/// Best level the running CPU supports.
#[cfg(not(target_arch = "x86_64"))]
pub fn detect_best() -> SimdLevel {
    SimdLevel::Scalar
}

/// Detected CPU SIMD features as a space-separated string (for bench
/// metadata), e.g. `"avx2 sse2"`.
pub fn features_string() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if std::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        feats.push("sse2");
    }
    if feats.is_empty() {
        feats.push("none");
    }
    feats.join(" ")
}

static DEFAULT_LEVEL: OnceLock<SimdLevel> = OnceLock::new();

thread_local! {
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The SIMD level kernels will dispatch to on this thread.
///
/// Resolution order: [`with_simd_level`] override, then `GTOPK_SIMD`,
/// then [`detect_best`]. The result is always executable on this CPU
/// (requests above the detected capability are clamped down).
pub fn level() -> SimdLevel {
    let requested = if let Some(l) = LEVEL_OVERRIDE.with(|c| c.get()) {
        l
    } else {
        *DEFAULT_LEVEL.get_or_init(|| {
            std::env::var("GTOPK_SIMD")
                .ok()
                .and_then(|v| SimdLevel::parse(&v))
                .unwrap_or_else(detect_best)
        })
    };
    requested.min(detect_best())
}

/// Runs `f` with the dispatch level pinned to `level` on this thread.
///
/// The override nests (the previous value is restored on exit, even on
/// panic) and only affects kernels invoked from the calling thread —
/// exactly what the bitwise-identity tests need to compare levels on the
/// same inputs within one process. Levels above the CPU's capability are
/// clamped down by [`level`], same as the environment override.
pub fn with_simd_level<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LEVEL_OVERRIDE.with(|c| c.replace(Some(level))));
    f()
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. Every SIMD path must match these bitwise.
// ---------------------------------------------------------------------------

fn axpy_scalar(acc: &mut [f32], x: &[f32]) {
    for (a, &g) in acc.iter_mut().zip(x.iter()) {
        *a += g;
    }
}

fn gemm_acc_scalar<const SKIP: bool>(g: Gemm<'_>, c: &mut [f32]) {
    for (r, crow) in c.chunks_exact_mut(g.n).enumerate() {
        for p in 0..g.k {
            let av = g.a[r * g.ars + p * g.aps];
            if SKIP && av == 0.0 {
                continue;
            }
            for (cv, &bv) in crow.iter_mut().zip(&g.b[p * g.n..(p + 1) * g.n]) {
                *cv += av * bv;
            }
        }
    }
}

/// Columns `[j0, j0 + c.len())` of C row `r`, one running sum per column
/// held across the whole shared dimension — the SSE2 kernel's sub-lane
/// tail.
fn gemm_cols_scalar<const SKIP: bool>(g: Gemm<'_>, r: usize, j0: usize, c: &mut [f32]) {
    for (j, cv) in c.iter_mut().enumerate() {
        let mut acc = *cv;
        for p in 0..g.k {
            let av = g.a[r * g.ars + p * g.aps];
            if SKIP && av == 0.0 {
                continue;
            }
            acc += av * g.b[p * g.n + j0 + j];
        }
        *cv = acc;
    }
}

/// `|v|` with NaN mapped to +0.0 — the top-k comparator's magnitude.
#[inline]
fn mag(v: f32) -> f32 {
    let m = v.abs();
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

fn max_abs_scalar(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(mag(x)))
}

fn count_above_scalar(v: &[f32], thr: f32) -> usize {
    v.iter().filter(|&&x| x.abs() > thr).count()
}

fn compact_above_scalar(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
    for (i, &x) in v.iter().enumerate() {
        if x.abs() > thr {
            out.push(base + i as u32);
        }
    }
}

fn accumulate_compact_above_scalar(
    acc: &mut [f32],
    g: &[f32],
    thr: f32,
    base: u32,
    out: &mut Vec<u32>,
) {
    for (i, (a, &gv)) in acc.iter_mut().zip(g.iter()).enumerate() {
        let s = *a + gv;
        *a = s;
        if s.abs() > thr {
            out.push(base + i as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 SIMD kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{
        accumulate_compact_above_scalar, axpy_scalar, compact_above_scalar, count_above_scalar,
        gemm_cols_scalar, max_abs_scalar, Gemm,
    };
    use core::arch::x86_64::*;

    // Every function in this module requires the caller to guarantee the
    // named target feature is available (enforced by `super::level()`
    // clamping to `detect_best()`); the pointer arithmetic stays inside
    // the slice bounds by construction of the `i + LANES <= n` loops.

    /// Emits `base + i + lane` for every set lane of `mask`, in ascending
    /// lane order — the exact order the scalar loop visits them.
    #[inline(always)]
    fn emit_mask(mut mask: u32, base: u32, i: usize, out: &mut Vec<u32>) {
        while mask != 0 {
            let lane = mask.trailing_zeros();
            out.push(base + i as u32 + lane);
            mask &= mask - 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(acc: &mut [f32], x: &[f32]) {
        let n = acc.len();
        debug_assert_eq!(n, x.len());
        let pa = acc.as_mut_ptr();
        let px = x.as_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let va = _mm256_loadu_ps(pa.add(i));
            let vx = _mm256_loadu_ps(px.add(i));
            _mm256_storeu_ps(pa.add(i), _mm256_add_ps(va, vx));
            i += 8;
        }
        axpy_scalar(&mut acc[i..], &x[i..]);
    }

    pub fn axpy_sse2(acc: &mut [f32], x: &[f32]) {
        let n = acc.len();
        debug_assert_eq!(n, x.len());
        let pa = acc.as_mut_ptr();
        let px = x.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps both 128-bit accesses in bounds;
            // SSE2 is baseline on x86_64.
            unsafe {
                let va = _mm_loadu_ps(pa.add(i));
                let vx = _mm_loadu_ps(px.add(i));
                _mm_storeu_ps(pa.add(i), _mm_add_ps(va, vx));
            }
            i += 4;
        }
        axpy_scalar(&mut acc[i..], &x[i..]);
    }

    /// `R` 8-lane registers (`8·R` columns of one C row, starting at
    /// `c`) held in registers across the whole shared dimension: one load
    /// and one store of C per strip instead of one per product.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `a[p·aps]` and `b[p·n .. p·n + 8·R]` must
    /// be readable for every `p < k`, and `c[.. 8·R]` writable.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemm_strip_avx2<const SKIP: bool, const R: usize>(
        a: *const f32,
        aps: usize,
        b: *const f32,
        c: *mut f32,
        k: usize,
        n: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); R];
        for (w, v) in acc.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(c.add(8 * w));
        }
        for p in 0..k {
            let av = *a.add(p * aps);
            if SKIP && av == 0.0 {
                continue;
            }
            let va = _mm256_set1_ps(av);
            let bp = b.add(p * n);
            for (w, v) in acc.iter_mut().enumerate() {
                // Separate mul + add (no FMA): the scalar loop rounds the
                // product before the add, and bitwise identity requires
                // the same two roundings here.
                *v = _mm256_add_ps(*v, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8 * w))));
            }
        }
        for (w, v) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.add(8 * w), *v);
        }
    }

    /// The last `rem < 8` columns of a C row as one masked register.
    /// Masked-off lanes are never loaded from or stored to; whatever
    /// they compute in between is discarded.
    ///
    /// # Safety
    ///
    /// As `gemm_strip_avx2`, for `rem` columns instead of `8·R`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemm_tail_avx2<const SKIP: bool>(
        a: *const f32,
        aps: usize,
        b: *const f32,
        c: *mut f32,
        k: usize,
        n: usize,
        rem: usize,
    ) {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), lanes);
        let mut v = _mm256_maskload_ps(c, mask);
        for p in 0..k {
            let av = *a.add(p * aps);
            if SKIP && av == 0.0 {
                continue;
            }
            let vb = _mm256_maskload_ps(b.add(p * n), mask);
            v = _mm256_add_ps(v, _mm256_mul_ps(_mm256_set1_ps(av), vb));
        }
        _mm256_maskstore_ps(c, mask, v);
    }

    /// # Safety
    ///
    /// AVX2 must be available, and `c` must hold whole rows of `g.n`
    /// (every other index is bounded by `Gemm::new`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_acc_avx2<const SKIP: bool>(g: Gemm<'_>, c: &mut [f32]) {
        let Gemm {
            a,
            ars,
            aps,
            b,
            k,
            n,
        } = g;
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        for r in 0..c.len() / n {
            let (ar, cr) = (pa.add(r * ars), pc.add(r * n));
            let mut j = 0usize;
            while j + 32 <= n {
                gemm_strip_avx2::<SKIP, 4>(ar, aps, pb.add(j), cr.add(j), k, n);
                j += 32;
            }
            if j + 16 <= n {
                gemm_strip_avx2::<SKIP, 2>(ar, aps, pb.add(j), cr.add(j), k, n);
                j += 16;
            }
            if j + 8 <= n {
                gemm_strip_avx2::<SKIP, 1>(ar, aps, pb.add(j), cr.add(j), k, n);
                j += 8;
            }
            if j < n {
                gemm_tail_avx2::<SKIP>(ar, aps, pb.add(j), cr.add(j), k, n, n - j);
            }
        }
    }

    /// SSE2 twin of `gemm_strip_avx2`: `R` 4-lane registers.
    ///
    /// # Safety
    ///
    /// As `gemm_strip_avx2`, for `4·R` columns (SSE2 is baseline).
    #[inline]
    unsafe fn gemm_strip_sse2<const SKIP: bool, const R: usize>(
        a: *const f32,
        aps: usize,
        b: *const f32,
        c: *mut f32,
        k: usize,
        n: usize,
    ) {
        let mut acc = [_mm_setzero_ps(); R];
        for (w, v) in acc.iter_mut().enumerate() {
            *v = _mm_loadu_ps(c.add(4 * w));
        }
        for p in 0..k {
            let av = *a.add(p * aps);
            if SKIP && av == 0.0 {
                continue;
            }
            let va = _mm_set1_ps(av);
            let bp = b.add(p * n);
            for (w, v) in acc.iter_mut().enumerate() {
                *v = _mm_add_ps(*v, _mm_mul_ps(va, _mm_loadu_ps(bp.add(4 * w))));
            }
        }
        for (w, v) in acc.iter().enumerate() {
            _mm_storeu_ps(c.add(4 * w), *v);
        }
    }

    pub fn gemm_acc_sse2<const SKIP: bool>(g: Gemm<'_>, c: &mut [f32]) {
        let n = g.n;
        let (pa, pb) = (g.a.as_ptr(), g.b.as_ptr());
        for (r, crow) in c.chunks_exact_mut(n).enumerate() {
            let pc = crow.as_mut_ptr();
            let mut j = 0usize;
            // SAFETY: `Gemm::new` bounds every `a`/`b` index the strips
            // touch, each strip stays inside this C row (`j + width <= n`),
            // and SSE2 is baseline on x86_64.
            unsafe {
                let ar = pa.add(r * g.ars);
                while j + 32 <= n {
                    gemm_strip_sse2::<SKIP, 8>(ar, g.aps, pb.add(j), pc.add(j), g.k, n);
                    j += 32;
                }
                if j + 16 <= n {
                    gemm_strip_sse2::<SKIP, 4>(ar, g.aps, pb.add(j), pc.add(j), g.k, n);
                    j += 16;
                }
                if j + 8 <= n {
                    gemm_strip_sse2::<SKIP, 2>(ar, g.aps, pb.add(j), pc.add(j), g.k, n);
                    j += 8;
                }
                if j + 4 <= n {
                    gemm_strip_sse2::<SKIP, 1>(ar, g.aps, pb.add(j), pc.add(j), g.k, n);
                    j += 4;
                }
            }
            gemm_cols_scalar::<SKIP>(g, r, j, &mut crow[j..]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs_avx2(v: &[f32]) -> f32 {
        let n = v.len();
        let pv = v.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let mut best = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(pv.add(i));
            // |x|, then force NaN lanes to +0.0 (the scalar `mag`).
            let m = _mm256_andnot_ps(sign, x);
            let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(x, x);
            best = _mm256_max_ps(best, _mm256_and_ps(m, ordered));
            i += 8;
        }
        // Horizontal max — order-free over non-NaN, non-negative lanes.
        let lo = _mm256_castps256_ps128(best);
        let hi = _mm256_extractf128_ps::<1>(best);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<0b01>(m2, m2));
        let mut out = _mm_cvtss_f32(m1);
        out = out.max(max_abs_scalar(&v[i..]));
        out
    }

    pub fn max_abs_sse2(v: &[f32]) -> f32 {
        let n = v.len();
        let pv = v.as_ptr();
        let mut i = 0usize;
        // SAFETY: i + 4 <= n keeps the loads in bounds; SSE2 is baseline.
        let head = unsafe {
            let sign = _mm_set1_ps(-0.0);
            let mut best = _mm_setzero_ps();
            while i + 4 <= n {
                let x = _mm_loadu_ps(pv.add(i));
                let m = _mm_andnot_ps(sign, x);
                let ordered = _mm_cmpord_ps(x, x);
                best = _mm_max_ps(best, _mm_and_ps(m, ordered));
                i += 4;
            }
            let m2 = _mm_max_ps(best, _mm_movehl_ps(best, best));
            let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<0b01>(m2, m2));
            _mm_cvtss_f32(m1)
        };
        head.max(max_abs_scalar(&v[i..]))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn count_above_avx2(v: &[f32], thr: f32) -> usize {
        let n = v.len();
        let pv = v.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let vthr = _mm256_set1_ps(thr);
        let mut count = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(pv.add(i));
            let m = _mm256_andnot_ps(sign, x);
            // GT_OQ: NaN compares not-greater, same as scalar `>`.
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(m, vthr);
            count += (_mm256_movemask_ps(gt) as u32).count_ones() as usize;
            i += 8;
        }
        count + count_above_scalar(&v[i..], thr)
    }

    pub fn count_above_sse2(v: &[f32], thr: f32) -> usize {
        let n = v.len();
        let pv = v.as_ptr();
        let mut count = 0usize;
        let mut i = 0usize;
        // SAFETY: i + 4 <= n keeps the loads in bounds; SSE2 is baseline.
        unsafe {
            let sign = _mm_set1_ps(-0.0);
            let vthr = _mm_set1_ps(thr);
            while i + 4 <= n {
                let x = _mm_loadu_ps(pv.add(i));
                let m = _mm_andnot_ps(sign, x);
                let gt = _mm_cmpgt_ps(m, vthr);
                count += (_mm_movemask_ps(gt) as u32).count_ones() as usize;
                i += 4;
            }
        }
        count + count_above_scalar(&v[i..], thr)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn compact_above_avx2(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
        let n = v.len();
        let pv = v.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let vthr = _mm256_set1_ps(thr);
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(pv.add(i));
            let m = _mm256_andnot_ps(sign, x);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(m, vthr);
            emit_mask(_mm256_movemask_ps(gt) as u32, base, i, out);
            i += 8;
        }
        compact_above_scalar(&v[i..], thr, base + i as u32, out);
    }

    pub fn compact_above_sse2(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
        let n = v.len();
        let pv = v.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps the load in bounds; SSE2 is baseline.
            let mask = unsafe {
                let x = _mm_loadu_ps(pv.add(i));
                let m = _mm_andnot_ps(_mm_set1_ps(-0.0), x);
                _mm_movemask_ps(_mm_cmpgt_ps(m, _mm_set1_ps(thr))) as u32
            };
            emit_mask(mask, base, i, out);
            i += 4;
        }
        compact_above_scalar(&v[i..], thr, base + i as u32, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_compact_above_avx2(
        acc: &mut [f32],
        g: &[f32],
        thr: f32,
        base: u32,
        out: &mut Vec<u32>,
    ) {
        let n = acc.len();
        debug_assert_eq!(n, g.len());
        let pa = acc.as_mut_ptr();
        let pg = g.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let vthr = _mm256_set1_ps(thr);
        let mut i = 0usize;
        while i + 8 <= n {
            let s = _mm256_add_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pg.add(i)));
            _mm256_storeu_ps(pa.add(i), s);
            let m = _mm256_andnot_ps(sign, s);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(m, vthr);
            emit_mask(_mm256_movemask_ps(gt) as u32, base, i, out);
            i += 8;
        }
        accumulate_compact_above_scalar(&mut acc[i..], &g[i..], thr, base + i as u32, out);
    }

    pub fn accumulate_compact_above_sse2(
        acc: &mut [f32],
        g: &[f32],
        thr: f32,
        base: u32,
        out: &mut Vec<u32>,
    ) {
        let n = acc.len();
        debug_assert_eq!(n, g.len());
        let pa = acc.as_mut_ptr();
        let pg = g.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps the accesses in bounds; SSE2 is
            // baseline.
            let mask = unsafe {
                let s = _mm_add_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pg.add(i)));
                _mm_storeu_ps(pa.add(i), s);
                let m = _mm_andnot_ps(_mm_set1_ps(-0.0), s);
                _mm_movemask_ps(_mm_cmpgt_ps(m, _mm_set1_ps(thr))) as u32
            };
            emit_mask(mask, base, i, out);
            i += 4;
        }
        accumulate_compact_above_scalar(&mut acc[i..], &g[i..], thr, base + i as u32, out);
    }
}

// ---------------------------------------------------------------------------
// Public dispatching kernels.
// ---------------------------------------------------------------------------

/// `acc[i] += x[i]` — the residual-accumulate kernel.
///
/// Bitwise identical at every dispatch level: one `addps` rounding per
/// element, in order.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(acc, x) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::axpy_sse2(acc, x),
        _ => axpy_scalar(acc, x),
    }
}

/// The operands of one [`gemm_acc`] call, bounds-checked once by
/// [`Gemm::new`] so the SIMD kernels can index without checks.
#[derive(Clone, Copy)]
struct Gemm<'a> {
    a: &'a [f32],
    ars: usize,
    aps: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
}

impl<'a> Gemm<'a> {
    /// # Panics
    ///
    /// Panics unless `b` holds `k` rows of `n` and `a` holds every
    /// `a[r·ars + p·aps]` for `r < rows`, `p < k`.
    fn new(
        a: &'a [f32],
        ars: usize,
        aps: usize,
        b: &'a [f32],
        rows: usize,
        k: usize,
        n: usize,
    ) -> Self {
        // Checked arithmetic: the SIMD kernels' memory safety rests on
        // these bounds, so an overflowing product must not pass them.
        assert!(
            k.checked_mul(n).is_some_and(|kn| b.len() >= kn),
            "gemm_acc: B holds fewer than k rows"
        );
        if rows > 0 && k > 0 {
            let last = (rows - 1)
                .checked_mul(ars)
                .zip((k - 1).checked_mul(aps))
                .and_then(|(r, p)| r.checked_add(p));
            assert!(
                last.is_some_and(|i| i < a.len()),
                "gemm_acc: A too short for its strides"
            );
        }
        Gemm {
            a,
            ars,
            aps,
            b,
            k,
            n,
        }
    }
}

/// `c[r·n + j] += Σ_p a[r·ars + p·aps] · b[p·n + j]` over the `rows =
/// c.len() / n` rows of `c`, `p` ascending from 0 to `k` — THE matmul
/// kernel: every variant in [`crate::matmul`] is this call with
/// different `A` strides (`ars` between rows, `aps` along the shared
/// dimension). With `SKIP`, products whose `A` factor is `±0.0` are not
/// added at all.
///
/// The AVX2 and SSE2 levels hold a strip of up to 32 columns of one C
/// row in registers across the whole `p` loop, so C is loaded and stored
/// once per strip instead of once per product. Each output element is
/// still one running sum, `c += a·b` in ascending `p` with a separate
/// multiply and add (never FMA), so every level is bitwise identical to
/// the scalar i-k-j loop. The level is resolved once per call.
///
/// # Panics
///
/// Panics if `n == 0`, `c.len()` is not a multiple of `n`, or `a`/`b`
/// are too short for the given strides and sizes.
pub fn gemm_acc<const SKIP: bool>(
    a: &[f32],
    ars: usize,
    aps: usize,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
) {
    assert!(
        n > 0 && c.len().is_multiple_of(n),
        "gemm_acc: C is not whole rows of n"
    );
    let g = Gemm::new(a, ars, aps, b, c.len() / n, k, n);
    if k == 0 || c.is_empty() {
        return;
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`;
        // `Gemm::new` checked every index the kernel touches.
        SimdLevel::Avx2 => unsafe { x86::gemm_acc_avx2::<SKIP>(g, c) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::gemm_acc_sse2::<SKIP>(g, c),
        _ => gemm_acc_scalar::<SKIP>(g, c),
    }
}

/// `c[j] += a * b[j]` — one row of [`gemm_acc`] with a shared
/// dimension of 1 (no zero skip).
///
/// Uses separate multiply and add (never FMA) so the two per-element
/// roundings match the scalar loop exactly.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn row_axpy(c: &mut [f32], b: &[f32], a: f32) {
    assert_eq!(c.len(), b.len(), "row_axpy length mismatch");
    if !c.is_empty() {
        gemm_acc::<false>(&[a], 0, 0, b, c, 1, c.len());
    }
}

/// Maximum magnitude `max_i |v[i]|`, with NaN entries counting as `+0.0`
/// (the top-k comparator's convention). Returns `0.0` for an empty slice.
pub fn max_abs(v: &[f32]) -> f32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::max_abs_avx2(v) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::max_abs_sse2(v),
        _ => max_abs_scalar(v),
    }
}

/// Number of entries with `|v[i]| > thr` (strict; NaN never counts).
pub fn count_above(v: &[f32], thr: f32) -> usize {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::count_above_avx2(v, thr) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::count_above_sse2(v, thr),
        _ => count_above_scalar(v, thr),
    }
}

/// Appends `base + i` to `out` for every entry with `|v[i]| > thr`
/// (strict; NaN never passes), in ascending index order.
pub fn compact_above(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::compact_above_avx2(v, thr, base, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::compact_above_sse2(v, thr, base, out),
        _ => compact_above_scalar(v, thr, base, out),
    }
}

/// The fused hot-path kernel: `acc[i] += g[i]`, and `base + i` is
/// appended to `out` wherever the *accumulated* value satisfies
/// `|acc[i]| > thr` — residual accumulate, threshold scan, and
/// compaction in a single memory pass.
///
/// Bitwise identical (accumulated values *and* emitted indices) to
/// [`axpy`] followed by [`compact_above`] at every dispatch level.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accumulate_compact_above(
    acc: &mut [f32],
    g: &[f32],
    thr: f32,
    base: u32,
    out: &mut Vec<u32>,
) {
    assert_eq!(acc.len(), g.len(), "accumulate_compact length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::accumulate_compact_above_avx2(acc, g, thr, base, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::accumulate_compact_above_sse2(acc, g, thr, base, out),
        _ => accumulate_compact_above_scalar(acc, g, thr, base, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Levels that can actually run on this CPU.
    fn runnable_levels() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|l| l.available())
            .collect()
    }

    /// Inputs covering lane remainders, NaN, ±0.0, denormals, and ties.
    fn nasty_input(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| match i % 9 {
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => 1.0e-40, // denormal
                4 => -1.0e-40,
                5 => 2.5,
                6 => -2.5, // magnitude tie with 5
                7 => f32::INFINITY,
                _ => (i as f32 * 0.37).sin() * 3.0,
            })
            .collect()
    }

    #[test]
    fn level_override_nests_and_restores() {
        with_simd_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
            with_simd_level(SimdLevel::Sse2, || {
                assert_eq!(level(), SimdLevel::Sse2.min(detect_best()));
            });
            assert_eq!(level(), SimdLevel::Scalar);
        });
        assert!(level() <= detect_best());
    }

    #[test]
    fn unavailable_level_clamps_to_detected() {
        with_simd_level(SimdLevel::Avx2, || {
            assert!(level() <= detect_best());
        });
    }

    #[test]
    fn parse_accepts_known_names_only() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse(" SSE2 "), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse("avx2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn display_matches_env_names() {
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert!(!features_string().is_empty());
    }

    #[test]
    fn all_levels_match_scalar_on_nasty_inputs() {
        // Lengths straddling the 4- and 8-lane boundaries.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let v = nasty_input(n);
            let g = nasty_input(n + 1)[1..].to_vec();
            for thr in [0.0f32, 1.0, 2.5, f32::NAN] {
                let expect_cnt = with_simd_level(SimdLevel::Scalar, || count_above(&v, thr));
                let mut expect_idx = Vec::new();
                with_simd_level(SimdLevel::Scalar, || {
                    compact_above(&v, thr, 7, &mut expect_idx)
                });
                let expect_max = with_simd_level(SimdLevel::Scalar, || max_abs(&v)).to_bits();
                let mut expect_acc = v.clone();
                let mut expect_fused = Vec::new();
                with_simd_level(SimdLevel::Scalar, || {
                    accumulate_compact_above(&mut expect_acc, &g, thr, 3, &mut expect_fused)
                });
                for l in runnable_levels() {
                    with_simd_level(l, || {
                        assert_eq!(count_above(&v, thr), expect_cnt, "{l} n={n} thr={thr}");
                        let mut idx = Vec::new();
                        compact_above(&v, thr, 7, &mut idx);
                        assert_eq!(idx, expect_idx, "{l} n={n} thr={thr}");
                        assert_eq!(max_abs(&v).to_bits(), expect_max, "{l} n={n}");
                        let mut acc = v.clone();
                        let mut fused = Vec::new();
                        accumulate_compact_above(&mut acc, &g, thr, 3, &mut fused);
                        assert_eq!(fused, expect_fused, "{l} n={n} thr={thr}");
                        let ab: Vec<u32> = acc.iter().map(|x| x.to_bits()).collect();
                        let eb: Vec<u32> = expect_acc.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(ab, eb, "{l} n={n} thr={thr}");
                    });
                }
            }
        }
    }

    #[test]
    fn axpy_and_row_axpy_match_scalar_bitwise() {
        for n in [0usize, 1, 5, 8, 13, 16, 33, 100] {
            let base = nasty_input(n);
            let x = nasty_input(n + 2)[2..].to_vec();
            let mut expect = base.clone();
            with_simd_level(SimdLevel::Scalar, || axpy(&mut expect, &x));
            let mut expect_row = base.clone();
            with_simd_level(SimdLevel::Scalar, || row_axpy(&mut expect_row, &x, 0.7));
            for l in runnable_levels() {
                with_simd_level(l, || {
                    let mut acc = base.clone();
                    axpy(&mut acc, &x);
                    let ab: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
                    let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(ab, eb, "axpy {l} n={n}");
                    let mut c = base.clone();
                    row_axpy(&mut c, &x, 0.7);
                    let cb: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
                    let rb: Vec<u32> = expect_row.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(cb, rb, "row_axpy {l} n={n}");
                });
            }
        }
    }

    #[test]
    fn fused_equals_axpy_then_compact() {
        let n = 103;
        let v = nasty_input(n);
        let g = nasty_input(n + 3)[3..].to_vec();
        for l in runnable_levels() {
            with_simd_level(l, || {
                let mut two_pass = v.clone();
                axpy(&mut two_pass, &g);
                let mut expect_idx = Vec::new();
                compact_above(&two_pass, 1.0, 0, &mut expect_idx);

                let mut fused_acc = v.clone();
                let mut idx = Vec::new();
                accumulate_compact_above(&mut fused_acc, &g, 1.0, 0, &mut idx);
                assert_eq!(idx, expect_idx, "{l}");
                let fb: Vec<u32> = fused_acc.iter().map(|x| x.to_bits()).collect();
                let tb: Vec<u32> = two_pass.iter().map(|x| x.to_bits()).collect();
                assert_eq!(fb, tb, "{l}");
            });
        }
    }
}
