//! Top-k selection kernels.
//!
//! The paper selects the `k = ρ·m` gradient coordinates of largest absolute
//! value (Algorithm 1, lines 5–7). We provide an exact kernel
//! ([`topk_indices`] / [`topk_indices_into`]), a plain threshold filter
//! ([`threshold_sparse`]), and a sampled-threshold approximation
//! ([`sampled_topk_sparse`]) of the kind used to cut GPU selection cost —
//! the paper's Fig. 11 flags compression time as a real overhead.
//!
//! # The exact kernel: threshold prefilter, then select
//!
//! On large inputs (`n ≥ 64K` and `n ≥ 16·k`) the exact kernel first tries
//! a **threshold prefilter**: it reads a deterministic strided sample of
//! magnitudes (the midpoint of each of `S` equal strides, no RNG), takes a
//! threshold aimed at about `2k` survivors, and compacts every coordinate
//! *strictly* above it in one SIMD pass. If at least `k` survive, the
//! top-k is necessarily among them — every survivor strictly beats every
//! excluded coordinate — so an exact select over the survivors returns
//! the same answer as a select over everything. If fewer than `k` survive
//! (heavy ties, or an input built against the stride), the kernel falls
//! back to quickselect over all `n`. The result is **bitwise identical**
//! either way; only the running time depends on the data, and the
//! fallback costs at most one extra O(n) compaction. Near-Gaussian
//! gradients take the fast path: the select then touches ~2k candidates
//! instead of `n`.
//!
//! The fused residual paths ([`accumulate_select_compact`], and the
//! exact `Residual::accumulate_extract_topk_into`) run the residual
//! accumulate, the threshold compare and the compaction in a single
//! memory pass. Every path — prefiltered, RNG-estimated, fused or not —
//! finishes its candidates through one exact-select helper under the one
//! comparator, so their answers cannot drift apart.
//!
//! # Threading & determinism
//!
//! The quickselect fallback selects large inputs in parallel: the index
//! space is split into contiguous chunks (see `gtopk_tensor::parallel`),
//! each chunk's local top-k is found independently, and an exact final
//! select runs over the ≤ `threads·k` gathered candidates. This is
//! *bitwise identical* to the serial kernel for any thread count or
//! chunking: the comparator is a strict total order (larger magnitude
//! first, lower index breaks ties, NaN magnitude counts as 0), so the
//! global top-k set is unique, and every member of it is necessarily
//! inside its own chunk's local top-k — fewer than `k` coordinates beat
//! it globally, hence fewer than `k` within its chunk. The candidate union
//! therefore always contains the answer and the final exact select returns
//! exactly the serial result. The prefilter is serial and reads the same
//! sample at every thread count and SIMD level.
//!
//! The determinism is load-bearing: every worker replica must compute an
//! identical selection for identical input, or replicas drift apart.
//!
//! # Scratch reuse
//!
//! The `_into` variants take a [`TopkScratch`] so the O(m) index buffer is
//! allocated once per trainer, not once per step. The plain variants
//! allocate internally and are unchanged in behavior.

use crate::SparseVec;
use gtopk_tensor::{parallel, simd};
use rand::Rng;
use std::cmp::Ordering;

/// Inputs below this many elements per chunk are selected serially —
/// spawn overhead beats quickselect on anything smaller.
const PAR_MIN_CHUNK: usize = 32 * 1024;

/// The exact kernel tries its threshold prefilter only on inputs of at
/// least this many elements: below it a plain quickselect is already
/// cheap (the small merge selects stay on it).
const PREFILTER_MIN_N: usize = 64 * 1024;

/// ... and only while `n ≥ PREFILTER_MIN_RATIO · k`: denser selects keep
/// too large a share of the input for a filter to pay off.
const PREFILTER_MIN_RATIO: usize = 16;

/// Strided samples the prefilter expects at or above the true k-th
/// largest magnitude. The threshold sits on twice that many samples
/// (the `2×` quota margin of [`sampled_threshold`]), so ~2k candidates
/// survive and an undershoot below `k` is a many-sigma event on
/// near-Gaussian data.
const PREFILTER_HITS: usize = 32;

/// Comparison magnitude of a value: `|v|`, with NaN mapped to 0 so the
/// comparator stays a total order (a NaN gradient coordinate sorts as if
/// it were zero instead of poisoning the selection).
#[inline]
fn mag(v: f32) -> f32 {
    let m = v.abs();
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

/// Compares candidate coordinates: larger |value| first, then lower index.
fn tie_cmp(values: &[f32], a: u32, b: u32) -> Ordering {
    let (va, vb) = (mag(values[a as usize]), mag(values[b as usize]));
    // `mag` never returns NaN, so `partial_cmp` is total here; the `None`
    // arm is unreachable but kept so the comparator is safe by inspection.
    match vb.partial_cmp(&va) {
        Some(Ordering::Equal) | None => a.cmp(&b),
        Some(ord) => ord,
    }
}

/// Reusable buffers for [`topk_indices_into`] / [`topk_sparse_into`].
///
/// Holds the O(m) index permutation buffer and the parallel candidate
/// buffer, so steady-state selection performs zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct TopkScratch {
    /// Index buffer: 0..n, partially selected in place (per chunk when
    /// running parallel).
    idx: Vec<u32>,
    /// Gathered per-chunk candidates (≤ chunks·k entries), and the
    /// strictly-above-threshold candidates of the prefilter and estimate
    /// paths.
    cand: Vec<u32>,
    /// Sampled magnitudes of the prefilter and estimate paths — kept here
    /// so threshold sampling allocates nothing per call.
    mags: Vec<f32>,
}

impl TopkScratch {
    /// Empty scratch; buffers grow to the input size on first use.
    pub fn new() -> Self {
        TopkScratch::default()
    }
}

/// Whether the exact kernel tries the threshold prefilter for a
/// top-`k`-of-`n` select (internal limits, not a tuning knob).
fn prefilter_applies(n: usize, k: usize) -> bool {
    k > 0 && n >= PREFILTER_MIN_N && n >= PREFILTER_MIN_RATIO * k
}

/// Number of strided samples the prefilter reads: about
/// `PREFILTER_HITS · n / k`, capped at `n / 8` so sampling stays a small
/// share of the pass even for tiny `k`.
fn prefilter_sample_size(n: usize, k: usize) -> usize {
    (PREFILTER_HITS * n).div_ceil(k).min(n / 8)
}

/// Index the prefilter samples in stride `j` of `s`: the stride's midpoint.
fn stride_midpoint(j: usize, n: usize, s: usize) -> usize {
    ((2 * j as u64 + 1) * n as u64 / (2 * s as u64)) as usize
}

/// The strict selection threshold for a top-`k`-of-`n` select, read off
/// the sampled magnitudes in `mags` (reordered in place): the magnitude a
/// share `2k/n` of the sample reaches. The `2×` margin makes the strict
/// filter overshoot `k` with high probability — a slightly large
/// candidate set costs one cheap select, an undershoot a full rescan.
fn sampled_threshold(n: usize, k: usize, mags: &mut [f32]) -> f32 {
    let sample = mags.len();
    let quota = ((k as f64 / n as f64) * sample as f64).ceil() as usize;
    let quota = quota.saturating_mul(2).clamp(1, sample);
    // `mag` outputs are never NaN, so this comparator is total.
    mags.select_nth_unstable_by(quota - 1, |a, b| {
        b.partial_cmp(a).unwrap_or(Ordering::Equal)
    });
    mags[quota - 1]
}

/// The prefilter threshold of the exact kernel, from a deterministic
/// strided sample of the magnitudes supplied by `value_at` (one read per
/// stride midpoint, no RNG), reusing the `mags` scratch buffer.
fn strided_threshold(
    n: usize,
    k: usize,
    mags: &mut Vec<f32>,
    value_at: impl Fn(usize) -> f32,
) -> f32 {
    let s = prefilter_sample_size(n, k);
    mags.clear();
    mags.extend((0..s).map(|j| mag(value_at(stride_midpoint(j, n, s)))));
    sampled_threshold(n, k, mags)
}

/// Estimates the strict selection threshold for a top-`k`-of-`n` select
/// from `sample` uniform draws of the magnitudes supplied by `value_at`,
/// reusing the `mags` scratch buffer (no allocation at steady state).
///
/// Consumes exactly `sample` RNG draws. Shared by the unfused
/// ([`threshold_estimate_topk_into`]) and fused
/// ([`accumulate_select_compact`]) estimate paths so their thresholds —
/// and therefore their selections — cannot drift apart.
fn estimate_threshold(
    n: usize,
    k: usize,
    sample: usize,
    rng: &mut impl Rng,
    mags: &mut Vec<f32>,
    value_at: impl Fn(usize) -> f32,
) -> f32 {
    mags.clear();
    mags.extend((0..sample).map(|_| mag(value_at(rng.gen_range(0..n)))));
    sampled_threshold(n, k, mags)
}

/// Exact top-`k` of `values` (`0 < k < n`) by quickselect over all
/// indices, ascending into `out` — the kernel without prefilter, and the
/// fallback of every threshold path. Runs chunk-parallel for large
/// inputs with a bitwise-identical result (see module docs).
fn quickselect_into(values: &[f32], k: usize, scratch: &mut TopkScratch, out: &mut Vec<u32>) {
    let n = values.len();
    out.clear();
    scratch.idx.clear();
    scratch.idx.extend(0..n as u32);
    let chunks = parallel::chunk_count(n, PAR_MIN_CHUNK);
    // Parallel selection only pays off while the per-chunk top-k is much
    // smaller than the chunks themselves; otherwise nearly every element
    // becomes a candidate and the final select repeats the full work.
    if chunks > 1 && 2 * chunks * k < n {
        parallel::for_each_chunk_mut(&mut scratch.idx, PAR_MIN_CHUNK, |_, _, chunk| {
            if k < chunk.len() {
                chunk.select_nth_unstable_by(k - 1, |&a, &b| tie_cmp(values, a, b));
            }
        });
        let (idx, cand) = (&scratch.idx, &mut scratch.cand);
        cand.clear();
        for (start, end) in parallel::chunk_bounds(n, PAR_MIN_CHUNK) {
            cand.extend_from_slice(&idx[start..start + k.min(end - start)]);
        }
        if k < cand.len() {
            cand.select_nth_unstable_by(k - 1, |&a, &b| tie_cmp(values, a, b));
            cand.truncate(k);
        }
        out.extend_from_slice(cand);
    } else {
        scratch
            .idx
            .select_nth_unstable_by(k - 1, |&a, &b| tie_cmp(values, a, b));
        out.extend_from_slice(&scratch.idx[..k]);
    }
    out.sort_unstable();
}

/// Finishes a threshold path (`0 < k < n`): `scratch.cand` holds, in any
/// order, every index whose magnitude is strictly above some threshold.
///
/// With at least `k` candidates the exact top-k is among them (each
/// candidate strictly beats each excluded coordinate), so an exact select
/// over the candidates under [`tie_cmp`] gives the same answer as one
/// over all of `values`. With fewer, it falls back to [`quickselect_into`].
/// Writes the top-k, ascending, into `out` and returns the number of
/// coordinates the final exact select examined: the candidate count, or
/// `n` on the fallback.
fn finish_select(values: &[f32], k: usize, scratch: &mut TopkScratch, out: &mut Vec<u32>) -> usize {
    let cand = &mut scratch.cand;
    let examined = cand.len();
    if examined < k {
        quickselect_into(values, k, scratch, out);
        return values.len();
    }
    if examined > k {
        cand.select_nth_unstable_by(k - 1, |&a, &b| tie_cmp(values, a, b));
        cand.truncate(k);
    }
    cand.sort_unstable();
    out.clear();
    out.extend_from_slice(cand);
    examined
}

/// [`topk_indices_into`], returning the number of coordinates the final
/// exact select examined: the prefilter's candidate count when it
/// succeeded, `n` otherwise.
fn topk_indices_counted(
    values: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut Vec<u32>,
) -> usize {
    out.clear();
    let n = values.len();
    if k == 0 || n == 0 {
        return n;
    }
    if k >= n {
        out.extend(0..n as u32);
        return n;
    }
    if !prefilter_applies(n, k) {
        quickselect_into(values, k, scratch, out);
        return n;
    }
    let thr = strided_threshold(n, k, &mut scratch.mags, |i| values[i]);
    // `|v| > thr` and `mag(v) > thr` agree for every thr ≥ 0 because NaN
    // fails both.
    scratch.cand.clear();
    simd::compact_above(values, thr, 0, &mut scratch.cand);
    finish_select(values, k, scratch, out)
}

/// Writes the indices of the `k` entries of largest absolute value into
/// `out`, ascending, reusing `scratch` buffers.
///
/// Writes all indices if `k >= values.len()`. Large inputs go through the
/// strided-threshold prefilter with a quickselect fallback; smaller ones
/// straight to an expected-O(m) quickselect, chunk-parallel when large.
/// The result is bitwise identical on every path, thread count and SIMD
/// level (see module docs). Deterministic under ties (lower index wins).
/// Draws no random numbers.
pub fn topk_indices_into(values: &[f32], k: usize, scratch: &mut TopkScratch, out: &mut Vec<u32>) {
    topk_indices_counted(values, k, scratch, out);
}

/// Indices of the `k` entries of largest absolute value, ascending order.
///
/// Allocating wrapper around [`topk_indices_into`]; hot paths hold a
/// [`TopkScratch`] and call the `_into` variant instead.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::topk_indices;
/// assert_eq!(topk_indices(&[1.0, -9.0, 3.0], 2), vec![1, 2]);
/// ```
pub fn topk_indices(values: &[f32], k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    topk_indices_into(values, k, &mut TopkScratch::new(), &mut out);
    out
}

/// Sets `out`'s values to `dense` at its (already written) indices.
fn gather_values(dense: &[f32], out: &mut SparseVec) {
    out.dim = dense.len();
    out.values.clear();
    out.values
        .extend(out.indices.iter().map(|&i| dense[i as usize]));
}

/// Sparsifies a dense vector into `out`, keeping the `k` entries of
/// largest |value| and reusing `scratch` buffers.
///
/// This is exactly `G̃ = G ⊙ Mask` of Algorithm 1, allocation-free in
/// steady state.
pub fn topk_sparse_into(dense: &[f32], k: usize, scratch: &mut TopkScratch, out: &mut SparseVec) {
    topk_indices_into(dense, k, scratch, &mut out.indices);
    gather_values(dense, out);
}

/// Sparsifies a dense vector keeping the `k` entries of largest |value|.
///
/// Allocating wrapper around [`topk_sparse_into`].
pub fn topk_sparse(dense: &[f32], k: usize) -> SparseVec {
    let mut out = SparseVec::empty(dense.len());
    topk_sparse_into(dense, k, &mut TopkScratch::new(), &mut out);
    out
}

/// Sparsifies by keeping every entry with `|value| > thr`.
///
/// Runs chunk-parallel for large inputs; chunks are contiguous and
/// gathered in order, so the result is identical to the serial filter.
pub fn threshold_sparse(dense: &[f32], thr: f32) -> SparseVec {
    let parts = parallel::map_chunks(dense, PAR_MIN_CHUNK, |_, start, chunk| {
        // SIMD compaction emits the surviving indices in order; the
        // (short) value gather reads only the survivors back.
        let mut indices = Vec::new();
        simd::compact_above(chunk, thr, start as u32, &mut indices);
        let values: Vec<f32> = indices.iter().map(|&i| dense[i as usize]).collect();
        (indices, values)
    });
    let total: usize = parts.iter().map(|(i, _)| i.len()).sum();
    let mut indices = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    for (i, v) in parts {
        indices.extend_from_slice(&i);
        values.extend_from_slice(&v);
    }
    SparseVec::from_sorted(dense.len(), indices, values)
}

/// Approximate top-k via sampled-threshold estimation, returning exactly
/// `min(k, len)` entries.
///
/// A uniform sample of `sample` coordinates estimates the k-th largest
/// magnitude; a threshold pass collects candidates; the candidate set is
/// then trimmed (exact top-k over candidates) or, if the estimate was too
/// aggressive, the threshold is relaxed geometrically until enough
/// candidates exist. This mirrors the DGC-style sampling trick and is the
/// cheaper of the two selection kernels for large `m` on hardware where a
/// full quickselect is expensive.
///
/// # Panics
///
/// Panics if `sample == 0` while `k > 0` and the input is non-empty.
pub fn sampled_topk_sparse(
    dense: &[f32],
    k: usize,
    sample: usize,
    rng: &mut impl Rng,
) -> SparseVec {
    let n = dense.len();
    if k == 0 || n == 0 {
        return SparseVec::empty(n);
    }
    if k >= n {
        return topk_sparse(dense, k);
    }
    assert!(sample > 0, "sample size must be positive");
    let sample = sample.min(n);
    // Sample |values| uniformly with replacement (NaN counted as 0, like
    // the exact kernel's comparator).
    let mut mags: Vec<f32> = (0..sample)
        .map(|_| mag(dense[rng.gen_range(0..n)]))
        .collect();
    // Estimated threshold: the value such that a fraction k/n of samples
    // exceeds it — deliberately relaxed by a 4x margin so the candidate
    // pass overshoots k (a slightly-too-large candidate set costs one
    // cheap exact pass over ~4k entries; an undershoot costs a full
    // O(m) rescan).
    let quota = ((k as f64 / n as f64) * sample as f64).ceil() as usize;
    let quota = (quota.saturating_mul(4)).clamp(1, sample);
    // `mag` outputs are never NaN, so this sort is total.
    mags.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
    let mut thr = mags[quota - 1];
    // Collect candidates, relaxing the threshold a bounded number of
    // times before falling back to the exact kernel (an unbounded relax
    // loop can rescan the full buffer many times and lose to
    // quickselect outright).
    for _ in 0..3 {
        let cand = threshold_sparse(dense, thr);
        if cand.nnz() >= k {
            if cand.nnz() == k {
                return cand;
            }
            // Exact top-k over the (small) candidate set.
            let pairs: Vec<(u32, f32)> = cand.iter().collect();
            let vals: Vec<f32> = pairs.iter().map(|&(_, v)| v).collect();
            let local = topk_indices(&vals, k);
            let selected: Vec<(u32, f32)> = local.iter().map(|&li| pairs[li as usize]).collect();
            return SparseVec::from_pairs(n, selected);
        }
        if thr <= 0.0 {
            break;
        }
        thr *= 0.25;
        if thr < 1e-30 {
            thr = 0.0;
        }
    }
    // Estimate failed (pathological distribution): exact fallback.
    topk_sparse(dense, k)
}

/// Exact top-k via sampled-threshold estimation with an exact-`k` fixup:
/// the fast path of the `ThresholdEstimate` selector.
///
/// A uniform sample of `sample` coordinates estimates the k-th largest
/// magnitude; one single pass collects every coordinate *strictly* above
/// the estimate, and the exact kernel's candidate finish (select over the
/// candidates under the same total order, or quickselect over all `n`
/// when fewer than `k` survive) completes it. The output is **bitwise
/// identical** to [`topk_indices_into`]; only the running time is
/// probabilistic. It differs from the exact kernel's own prefilter only
/// in where the sample comes from: this path draws it from `rng`, so its
/// checkpointed RNG stream replays exactly.
///
/// Returns the number of coordinates the final exact select examined:
/// the candidate count on the fast path, `n` on the fallback — the
/// speed-vs-exactness test uses it to show the fast path engages.
pub fn threshold_estimate_topk_into(
    dense: &[f32],
    k: usize,
    sample: usize,
    rng: &mut impl Rng,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    let n = dense.len();
    if k == 0 || n == 0 || k >= n {
        topk_sparse_into(dense, k, scratch, out);
        return n;
    }
    assert!(sample > 0, "sample size must be positive");
    let sample = sample.min(n);
    let thr = estimate_threshold(n, k, sample, rng, &mut scratch.mags, |i| dense[i]);
    scratch.cand.clear();
    simd::compact_above(dense, thr, 0, &mut scratch.cand);
    let examined = finish_select(dense, k, scratch, &mut out.indices);
    gather_values(dense, out);
    examined
}

/// The single memory pass of both fused paths: `acc += grad` while
/// compacting every index whose *accumulated* magnitude is strictly
/// above `thr`, then the exact candidate finish. Writes the exact top-`k`
/// (`0 < k < n`) of the accumulated buffer into `out`, zeroes it in
/// `acc`, and returns the number of coordinates examined.
fn fused_extract(
    acc: &mut [f32],
    grad: &[f32],
    k: usize,
    thr: f32,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    scratch.cand.clear();
    simd::accumulate_compact_above(acc, grad, thr, 0, &mut scratch.cand);
    let examined = finish_select(acc, k, scratch, &mut out.indices);
    gather_values(acc, out);
    zero_selected(acc, out);
    examined
}

/// The unfused form of a fused path, for the selects a threshold cannot
/// help: accumulate, exact top-`k`, zero the selection. Returns `n`.
fn accumulate_then_extract(
    acc: &mut [f32],
    grad: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    simd::axpy(acc, grad);
    topk_sparse_into(acc, k, scratch, out);
    zero_selected(acc, out);
    acc.len()
}

/// Zeroes the coordinates `out` selected from `acc`.
fn zero_selected(acc: &mut [f32], out: &SparseVec) {
    for &i in out.indices() {
        acc[i as usize] = 0.0;
    }
}

/// Fused residual-accumulate + threshold-estimate top-k extraction: the
/// per-step gradient hot loop in **one memory pass** instead of three.
///
/// Semantically identical — bitwise, including the RNG stream — to the
/// unfused sequence
///
/// 1. `acc[i] += grad[i]` (residual accumulate),
/// 2. [`threshold_estimate_topk_into`] over the accumulated buffer,
/// 3. zeroing the selected coordinates in `acc`,
///
/// but the accumulate, the threshold scan, and the candidate compaction
/// all happen in a single traversal (`gtopk_tensor::simd::
/// accumulate_compact_above`), so the big buffer crosses the memory bus
/// once rather than three times. The threshold is estimated *before*
/// the pass by sampling `mag(acc[i] + grad[i])` — the identical floats
/// (one IEEE rounding per add) the unfused path samples after
/// accumulating, drawn from the identical RNG sequence via the shared
/// [`estimate_threshold`] helper.
///
/// Writes the exact top-`k` of the accumulated buffer into `out` and
/// zeroes the selected coordinates in `acc`. Returns the number of
/// coordinates the final exact select examined, like
/// [`threshold_estimate_topk_into`].
///
/// # Panics
///
/// Panics if `grad.len() != acc.len()`, or if `sample == 0` while the
/// estimate path is taken (`0 < k < n`).
pub fn accumulate_select_compact(
    acc: &mut [f32],
    grad: &[f32],
    k: usize,
    sample: usize,
    rng: &mut impl Rng,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    let n = acc.len();
    assert_eq!(grad.len(), n, "gradient length mismatch");
    if k == 0 || n == 0 || k >= n {
        // Degenerate select: mirrors the unfused path's delegation.
        return accumulate_then_extract(acc, grad, k, scratch, out);
    }
    assert!(sample > 0, "sample size must be positive");
    let sample = sample.min(n);
    let thr = estimate_threshold(n, k, sample, rng, &mut scratch.mags, |i| acc[i] + grad[i]);
    fused_extract(acc, grad, k, thr, scratch, out)
}

/// Fused residual-accumulate + exact top-k extraction: the exact
/// kernel's prefiltered select in one memory pass.
///
/// Bitwise identical to `acc[i] += grad[i]`, then [`topk_sparse_into`]
/// over the accumulated buffer, then zeroing the selected coordinates.
/// The strided prefilter sample is read before the pass as
/// `mag(acc[i] + grad[i])` — the floats the unfused kernel samples after
/// accumulating — so the threshold, and with it the examined count, is
/// the unfused one too. Draws no random numbers. Selects the prefilter
/// does not apply to accumulate first and quickselect after.
///
/// Returns the number of coordinates the final exact select examined.
///
/// # Panics
///
/// Panics if `grad.len() != acc.len()`.
pub(crate) fn accumulate_topk_compact(
    acc: &mut [f32],
    grad: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    let n = acc.len();
    assert_eq!(grad.len(), n, "gradient length mismatch");
    if !prefilter_applies(n, k) {
        return accumulate_then_extract(acc, grad, k, scratch, out);
    }
    let thr = strided_threshold(n, k, &mut scratch.mags, |i| acc[i] + grad[i]);
    fused_extract(acc, grad, k, thr, scratch, out)
}

/// Allocating wrapper around [`threshold_estimate_topk_into`].
pub fn threshold_estimate_topk_sparse(
    dense: &[f32],
    k: usize,
    sample: usize,
    rng: &mut impl Rng,
) -> SparseVec {
    let mut out = SparseVec::empty(dense.len());
    threshold_estimate_topk_into(dense, k, sample, rng, &mut TopkScratch::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_tensor::parallel::{with_min_chunk, with_thread_limit};
    use gtopk_tensor::simd::{with_simd_level, SimdLevel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selects_largest_magnitudes() {
        let v = [0.5, -2.0, 0.1, 1.5, -0.7];
        assert_eq!(topk_indices(&v, 2), vec![1, 3]);
        let sv = topk_sparse(&v, 2);
        assert_eq!(sv.values(), &[-2.0, 1.5]);
    }

    #[test]
    fn k_zero_and_k_oversized() {
        let v = [1.0, 2.0];
        assert!(topk_indices(&v, 0).is_empty());
        assert_eq!(topk_indices(&v, 5), vec![0, 1]);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let v = [1.0, -1.0, 1.0, 1.0];
        assert_eq!(topk_indices(&v, 2), vec![0, 1]);
    }

    #[test]
    fn nan_and_infinity_are_handled_deterministically() {
        let v = [
            f32::NAN,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.0,
            f32::NAN,
        ];
        // ±inf dominate; NaN sorts as magnitude 0, below every finite value.
        assert_eq!(topk_indices(&v, 2), vec![2, 3]);
        assert_eq!(topk_indices(&v, 3), vec![1, 2, 3]);
        // Top-5 set is {2, 3} (±inf), {1, 4} (finite), then index 0 (the
        // lower-indexed NaN); output is the set sorted ascending.
        assert_eq!(topk_indices(&v, 5), vec![0, 1, 2, 3, 4]);
        // The full selection (k = n) must also terminate and stay sorted —
        // this hangs or panics if the comparator is not a total order.
        assert_eq!(topk_indices(&v, 6), vec![0, 1, 2, 3, 4, 5]);
        // All-NaN input: pure index order.
        let nans = [f32::NAN; 5];
        assert_eq!(topk_indices(&nans, 2), vec![0, 1]);
        let sv = threshold_sparse(&v, 10.0);
        assert_eq!(sv.indices(), &[2, 3]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let mut scratch = TopkScratch::new();
        let mut out = Vec::new();
        let mut sv = SparseVec::empty(0);
        for seed in 0..5u64 {
            let v: Vec<f32> = (0..500)
                .map(|i| (((i as u64 + 1) * (seed + 3) * 2_654_435_761) % 1000) as f32 - 500.0)
                .collect();
            topk_indices_into(&v, 17, &mut scratch, &mut out);
            assert_eq!(out, topk_indices(&v, 17), "seed {seed}");
            topk_sparse_into(&v, 17, &mut scratch, &mut sv);
            assert_eq!(sv, topk_sparse(&v, 17), "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_serial_on_forced_chunking() {
        let v: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64 as usize) % 997) as f32 - 498.0)
            .collect();
        for k in [1usize, 7, 100, 999] {
            let serial = with_thread_limit(1, || topk_indices(&v, k));
            for threads in [2, 3, 4, 8] {
                let par = with_thread_limit(threads, || with_min_chunk(64, || topk_indices(&v, k)));
                assert_eq!(par, serial, "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn threshold_filters_strictly() {
        let v = [0.5, -2.0, 2.0, 1.0];
        let sv = threshold_sparse(&v, 1.0);
        assert_eq!(sv.indices(), &[1, 2]);
    }

    #[test]
    fn threshold_parallel_matches_serial() {
        let v: Vec<f32> = (0..5000).map(|i| ((i % 13) as f32) - 6.0).collect();
        let serial = with_thread_limit(1, || threshold_sparse(&v, 3.0));
        let par = with_thread_limit(4, || with_min_chunk(32, || threshold_sparse(&v, 3.0)));
        assert_eq!(par, serial);
    }

    #[test]
    fn sampled_topk_exact_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let dense: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919) % 997) as f32 - 498.0)
            .collect();
        for k in [1usize, 10, 100] {
            let sv = sampled_topk_sparse(&dense, k, 64, &mut rng);
            assert_eq!(sv.nnz(), k, "k={k}");
        }
    }

    #[test]
    fn sampled_topk_overlaps_exact_heavily() {
        let mut rng = StdRng::seed_from_u64(9);
        let dense: Vec<f32> = (0..2000)
            .map(|i| {
                if i % 100 == 0 {
                    50.0 + i as f32
                } else {
                    (i % 7) as f32 * 0.01
                }
            })
            .collect();
        let k = 20;
        let approx = sampled_topk_sparse(&dense, k, 256, &mut rng);
        let exact = topk_sparse(&dense, k);
        let overlap = approx
            .indices()
            .iter()
            .filter(|i| exact.contains(**i))
            .count();
        // With a clear heavy-hitter structure the approximation should agree.
        assert!(overlap >= k * 9 / 10, "overlap {overlap} of {k}");
    }

    #[test]
    fn threshold_estimate_fast_path_engages_and_stays_exact() {
        // 5% heavy hitters: the sampled threshold lands inside the heavy
        // band, so the strict filter examines a few hundred candidates
        // instead of all n — while the output stays bitwise exact.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000usize;
        let dense: Vec<f32> = (0..n)
            .map(|i| {
                if i % 20 == 0 {
                    100.0 + i as f32 * 1e-3
                } else {
                    (i % 7) as f32 * 1e-4
                }
            })
            .collect();
        let mut scratch = TopkScratch::new();
        let mut out = SparseVec::empty(0);
        let k = 150;
        let examined =
            threshold_estimate_topk_into(&dense, k, 512, &mut rng, &mut scratch, &mut out);
        assert_eq!(out, topk_sparse(&dense, k), "must be bitwise exact");
        assert!(
            examined < n / 4,
            "fast path should examine far fewer than n candidates, examined {examined}"
        );
    }

    #[test]
    fn threshold_estimate_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(threshold_estimate_topk_sparse(&[], 3, 8, &mut rng).is_empty());
        let v = [1.0f32, -2.0];
        assert!(threshold_estimate_topk_sparse(&v, 0, 8, &mut rng).is_empty());
        assert_eq!(
            threshold_estimate_topk_sparse(&v, 5, 8, &mut rng),
            topk_sparse(&v, 5)
        );
    }

    #[test]
    fn fused_fast_path_engages_and_stays_exact() {
        // Same heavy-hitter structure as the unfused fast-path test: the
        // fused pass must stay exact while examining far fewer than n.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000usize;
        let acc0: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 1e-5).collect();
        let grad: Vec<f32> = (0..n)
            .map(|i| {
                if i % 20 == 0 {
                    100.0 + i as f32 * 1e-3
                } else {
                    (i % 7) as f32 * 1e-4
                }
            })
            .collect();
        let mut acc = acc0.clone();
        let mut scratch = TopkScratch::new();
        let mut out = SparseVec::empty(0);
        let k = 150;
        let examined =
            accumulate_select_compact(&mut acc, &grad, k, 512, &mut rng, &mut scratch, &mut out);
        let mut expect_dense = acc0;
        for (a, &g) in expect_dense.iter_mut().zip(grad.iter()) {
            *a += g;
        }
        assert_eq!(out, topk_sparse(&expect_dense, k), "must be bitwise exact");
        assert!(
            examined < n / 4,
            "fast path should examine far fewer than n candidates, examined {examined}"
        );
        // Selected coordinates zeroed, everything else untouched.
        for (i, (&got, &exp)) in acc.iter().zip(expect_dense.iter()).enumerate() {
            let want = if out.contains(i as u32) { 0.0 } else { exp };
            assert_eq!(got.to_bits(), want.to_bits(), "coord {i}");
        }
    }

    /// Sort-based reference: every index ordered by `tie_cmp`, the first
    /// `k` kept, ascending — independent of the select kernels.
    fn oracle_topk(values: &[f32], k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..values.len() as u32).collect();
        all.sort_by(|&a, &b| tie_cmp(values, a, b));
        all.truncate(k);
        all.sort_unstable();
        all
    }

    /// Near-Gaussian values (Box–Muller), the shape of real gradients.
    fn gaussian(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let v: f64 = rng.gen_range(0.0..1.0);
                ((-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()) as f32
            })
            .collect()
    }

    /// Runs the exact kernel and its fused residual form under 1 and 4
    /// threads at every runnable SIMD level, checks each against the
    /// oracle, and returns the examined count (which must not vary).
    ///
    /// The fused form accumulates `values` onto a copy of itself: the
    /// doubling is exact, so ties, zeros, NaNs and infinities keep their
    /// shape, and its oracle runs over the scalar-loop sum.
    fn assert_exact_everywhere(values: &[f32], k: usize) -> usize {
        let expect = oracle_topk(values, k);
        let summed: Vec<f32> = values.iter().map(|&v| v + v).collect();
        let expect_fused = oracle_topk(&summed, k);
        let mut seen = None;
        for threads in [1, 4] {
            for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                let ctx = format!("threads={threads} simd={}", level.name());
                let (got, examined, fused, fused_examined, acc) =
                    with_thread_limit(threads, || {
                        with_simd_level(level, || {
                            let mut scratch = TopkScratch::new();
                            let mut got = Vec::new();
                            let examined = topk_indices_counted(values, k, &mut scratch, &mut got);
                            let mut acc = values.to_vec();
                            let mut fused = SparseVec::empty(0);
                            let fused_examined = accumulate_topk_compact(
                                &mut acc,
                                values,
                                k,
                                &mut scratch,
                                &mut fused,
                            );
                            (got, examined, fused, fused_examined, acc)
                        })
                    });
                assert_eq!(got, expect, "{ctx}");
                assert_eq!(fused.indices(), &expect_fused[..], "fused {ctx}");
                assert_eq!(fused_examined, examined, "fused threshold differs, {ctx}");
                for (i, (&a, &s)) in acc.iter().zip(summed.iter()).enumerate() {
                    let (want, value) = match fused.indices().binary_search(&(i as u32)) {
                        Ok(j) => (0.0, Some(fused.values()[j])),
                        Err(_) => (s, None),
                    };
                    assert_eq!(a.to_bits(), want.to_bits(), "coord {i}, {ctx}");
                    if let Some(v) = value {
                        assert_eq!(v.to_bits(), s.to_bits(), "value {i}, {ctx}");
                    }
                }
                assert_eq!(*seen.get_or_insert(examined), examined, "{ctx}");
            }
        }
        seen.expect("the scalar level always runs")
    }

    /// Large magnitudes on exactly the strided-sample positions: the
    /// threshold lands on the spikes, nothing is strictly above it, and
    /// the exact kernel must fall back — with the exact answer.
    #[test]
    fn prefilter_falls_back_on_spikes_at_the_sample_stride() {
        let (n, k) = (100_000usize, 100usize);
        let s = prefilter_sample_size(n, k);
        assert!(s > k, "the spikes must outnumber k");
        let mut values: Vec<f32> = gaussian(n, 1).iter().map(|v| v * 1e-3).collect();
        for j in 0..s {
            values[stride_midpoint(j, n, s)] = if j % 2 == 0 { 5.0 } else { -5.0 };
        }
        assert_eq!(
            assert_exact_everywhere(&values, k),
            n,
            "fallback must engage"
        );
    }

    /// Near-Gaussian input: the strided threshold keeps ~2k candidates,
    /// so the final select examines a tiny share of `n`.
    #[test]
    fn prefilter_fast_path_engages_on_near_gaussian_input() {
        let (n, k) = (1usize << 19, 500usize);
        let examined = assert_exact_everywhere(&gaussian(n, 2), k);
        assert!(
            (k..=4 * k).contains(&examined),
            "fast path should examine about 2k candidates, examined {examined}"
        );
    }

    #[test]
    fn prefilter_is_exact_on_all_equal_magnitudes() {
        let values: Vec<f32> = (0..70_000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert_eq!(assert_exact_everywhere(&values, 500), values.len());
    }

    #[test]
    fn prefilter_is_exact_with_ties_at_the_threshold() {
        // 64 magnitude levels: the threshold is one of them, the k-th
        // largest sits inside a tie run, and index order must break it.
        let values: Vec<f32> = (0..100_000u64).map(|i| ((i * 7919) % 64) as f32).collect();
        let examined = assert_exact_everywhere(&values, 3_000);
        assert!(
            examined < values.len(),
            "the level above the threshold suffices"
        );
        // Too few strictly-above coordinates: the ties at the threshold
        // force the fallback.
        let values: Vec<f32> = (0..100_000)
            .map(|i| if i % 100 == 7 { 2.0 } else { 1.0 })
            .collect();
        assert_eq!(assert_exact_everywhere(&values, 3_000), values.len());
    }

    #[test]
    fn prefilter_is_exact_on_mostly_zero_input_with_k_above_nnz() {
        let values: Vec<f32> = (0..80_000)
            .map(|i| match i {
                _ if i % 1999 == 5 => 1.0 + i as f32,
                _ if i % 2 == 0 => -0.0,
                _ => 0.0,
            })
            .collect();
        assert_eq!(assert_exact_everywhere(&values, 200), values.len());
    }

    #[test]
    fn prefilter_is_exact_with_nan_and_infinities() {
        let mut values = gaussian(100_000, 3);
        for (i, v) in values.iter_mut().enumerate() {
            if i % 3 == 1 {
                *v = f32::NAN;
            } else if i % 997 == 0 {
                *v = if i % 2 == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }
        }
        assert!(assert_exact_everywhere(&values, 1_000) < values.len());
        // Infinities crowd the sample: the threshold is +inf, nothing is
        // strictly above it, and the fallback orders them by index.
        let values: Vec<f32> = (0..100_000)
            .map(|i| match i % 4 {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => f32::NAN,
                _ => 1.0,
            })
            .collect();
        assert_eq!(assert_exact_everywhere(&values, 1_000), values.len());
    }

    #[test]
    fn prefilter_applies_from_64k_elements() {
        let k = 100;
        for n in [PREFILTER_MIN_N - 1, PREFILTER_MIN_N] {
            let examined = assert_exact_everywhere(&gaussian(n, 4), k);
            if n < PREFILTER_MIN_N {
                assert_eq!(examined, n, "below the limit: plain quickselect");
            } else {
                assert!(
                    examined < n / 8,
                    "at the limit: prefiltered, examined {examined}"
                );
            }
        }
    }

    proptest! {
        /// The fused accumulate+select+compact kernel is bitwise
        /// identical — extracted vector, buffer state, and RNG
        /// consumption — to the unfused three-pass sequence (accumulate,
        /// estimate-select, zero), for any state, gradient, k, and seed.
        /// Ties, NaNs, and degenerate k included.
        #[test]
        fn prop_fused_bitwise_equals_unfused(
            base in proptest::collection::vec(-6i32..6, 1..300),
            k in 0usize..48,
            seed in 0u64..25,
        ) {
            let acc0: Vec<f32> = base.iter().enumerate()
                .map(|(i, &v)| if i % 17 == 16 { f32::NAN } else { v as f32 * 0.5 })
                .collect();
            let grad: Vec<f32> = base.iter().enumerate()
                .map(|(i, &v)| if i % 13 == 12 { f32::NAN } else { (v as f32 * 0.7).cos() })
                .collect();

            // Unfused reference: accumulate, select, zero.
            let mut acc_ref = acc0.clone();
            for (a, &g) in acc_ref.iter_mut().zip(grad.iter()) { *a += g; }
            let mut rng_ref = StdRng::seed_from_u64(seed);
            let mut out_ref = SparseVec::empty(0);
            threshold_estimate_topk_into(
                &acc_ref, k, 16, &mut rng_ref, &mut TopkScratch::new(), &mut out_ref);
            for &i in out_ref.indices() { acc_ref[i as usize] = 0.0; }

            let mut acc = acc0;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = SparseVec::empty(0);
            accumulate_select_compact(
                &mut acc, &grad, k, 16, &mut rng, &mut TopkScratch::new(), &mut out);

            prop_assert_eq!(out.indices(), out_ref.indices());
            let vb: Vec<u32> = out.values().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = out_ref.values().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(vb, rb);
            let ab: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = acc_ref.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(ab, eb, "buffer state diverged");
            // Both paths must have consumed the identical rng prefix.
            prop_assert_eq!(rng.gen_range(0..u32::MAX), rng_ref.gen_range(0..u32::MAX));
        }

        /// The threshold-estimate selector is bitwise identical to the
        /// exact kernel for any input, k, and rng seed — only its running
        /// time is probabilistic. Ties and NaNs included.
        #[test]
        fn prop_threshold_estimate_bitwise_equals_exact(
            values in proptest::collection::vec(-8i32..8, 1..300),
            k in 0usize..48,
            seed in 0u64..25,
        ) {
            let values: Vec<f32> = values.iter().enumerate()
                .map(|(i, &v)| if i % 13 == 12 { f32::NAN } else { v as f32 })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let got = threshold_estimate_topk_sparse(&values, k, 16, &mut rng);
            let exact = topk_sparse(&values, k);
            prop_assert_eq!(got.indices(), exact.indices());
            // Compare bit patterns so NaN values also count as equal.
            let gb: Vec<u32> = got.values().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = exact.values().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, eb);
        }

        /// Exact top-k always matches a full sort of magnitudes.
        #[test]
        fn prop_topk_matches_sort(values in proptest::collection::vec(-100.0f32..100.0, 1..200),
                                  k in 0usize..64) {
            let got = topk_indices(&values, k);
            let mut by_sort: Vec<u32> = (0..values.len() as u32).collect();
            by_sort.sort_by(|&a, &b| tie_cmp(&values, a, b));
            let mut expect: Vec<u32> = by_sort.into_iter().take(k.min(values.len())).collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        /// The selected set's minimum magnitude dominates the rejected set's
        /// maximum magnitude.
        #[test]
        fn prop_topk_dominates_rest(values in proptest::collection::vec(-10.0f32..10.0, 1..100),
                                    k in 1usize..32) {
            let sel = topk_indices(&values, k);
            if sel.len() < values.len() {
                let min_sel = sel.iter().map(|&i| values[i as usize].abs())
                    .fold(f32::INFINITY, f32::min);
                let max_rest = (0..values.len() as u32)
                    .filter(|i| sel.binary_search(i).is_err())
                    .map(|i| values[i as usize].abs())
                    .fold(0.0f32, f32::max);
                prop_assert!(min_sel >= max_rest);
            }
        }

        /// Parallel selection is bitwise-identical to serial for any thread
        /// count and chunking, including tie-heavy and NaN-bearing inputs.
        #[test]
        fn prop_parallel_topk_identical_to_serial(
            values in proptest::collection::vec(-8i32..8, 1..400),
            k in 0usize..48,
            threads in 1usize..8,
            min_chunk in 4usize..64,
        ) {
            // Integer-derived values make magnitude ties extremely common;
            // sprinkle NaNs at a fixed stride.
            let values: Vec<f32> = values.iter().enumerate()
                .map(|(i, &v)| if i % 11 == 10 { f32::NAN } else { v as f32 })
                .collect();
            let serial = with_thread_limit(1, || topk_indices(&values, k));
            let par = with_thread_limit(threads, || {
                with_min_chunk(min_chunk, || topk_indices(&values, k))
            });
            prop_assert_eq!(par, serial);
        }

        /// Sampled top-k returns exactly min(k, n) entries and each selected
        /// value matches the dense source.
        #[test]
        fn prop_sampled_topk_consistent(values in proptest::collection::vec(-5.0f32..5.0, 1..300),
                                        k in 0usize..40, seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sv = sampled_topk_sparse(&values, k, 32, &mut rng);
            prop_assert_eq!(sv.nnz(), k.min(values.len()));
            for (i, v) in sv.iter() {
                prop_assert_eq!(v, values[i as usize]);
            }
        }
    }
}
