//! Local top-k selection kernel choice.
//!
//! The paper's Fig. 11 flags local sparsification as a real per-iteration
//! overhead ("Top-k selection on GPU is inefficient... We will leave this
//! as our future optimization direction"). This module makes the
//! selection kernel a configuration axis: the exact kernel (a strided
//! threshold prefilter with a quickselect fallback, fused with the
//! residual accumulate), or the cheaper sampled-threshold estimation.

use gtopk_sparse::{Residual, SparseVec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which kernel extracts the local top-k from the residual buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selector {
    /// Exact top-k (default). On large inputs a deterministic strided
    /// sample sets a threshold, one pass — fused with the residual
    /// accumulate in [`SelectorState::accumulate_extract`] — compacts the
    /// coordinates strictly above it, and an exact select over those
    /// candidates finishes; when fewer than `k` survive it falls back to
    /// quickselect over the whole buffer. The result is bitwise exact on
    /// every path, and this selector draws no random numbers.
    #[default]
    Exact,
    /// Sampled-threshold estimation with the given sample size —
    /// exactly `k` coordinates are still returned, but the threshold is
    /// estimated from a sample instead of a full selection pass.
    Sampled {
        /// Number of magnitude samples used to estimate the threshold.
        sample: usize,
    },
    /// Sampling-estimated threshold with exact-`k` fixup: one O(m)
    /// single pass collects strictly-above-threshold candidates and an
    /// exact select over the (small) candidate set finishes the job. The
    /// result is **bitwise identical** to [`Selector::Exact`] — only the
    /// selection cost is probabilistic (it falls back to quickselect when
    /// the estimate overshoots). It is `Exact`'s prefilter with the
    /// sample drawn from the rank's RNG stream instead of fixed strides.
    ThresholdEstimate {
        /// Number of magnitude samples used to estimate the threshold.
        sample: usize,
    },
}

/// Per-rank selector state (the sampled kernel needs an RNG stream that
/// is deterministic per rank).
#[derive(Debug, Clone)]
pub struct SelectorState {
    selector: Selector,
    rng: StdRng,
}

impl SelectorState {
    /// Creates state for one rank; `rank` decorrelates RNG streams.
    pub fn new(selector: Selector, rank: usize) -> Self {
        SelectorState {
            selector,
            rng: StdRng::seed_from_u64(0xc0ffee ^ (rank as u64).wrapping_mul(0x9e37_79b9)),
        }
    }

    /// The configured selector.
    pub fn selector(&self) -> Selector {
        self.selector
    }

    /// Raw RNG state, for exact serialization in durable checkpoints (the
    /// sampled kernels' threshold draws must replay bit-identically after
    /// a process restart).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds selector state from its parts (see
    /// [`SelectorState::rng_state`]), continuing the RNG stream exactly.
    pub fn from_parts(selector: Selector, rng_state: [u64; 4]) -> Self {
        SelectorState {
            selector,
            rng: StdRng::from_state(rng_state),
        }
    }

    /// Extracts `min(k, dim)` coordinates from the residual using the
    /// configured kernel (zeroing them in the buffer).
    pub fn extract(&mut self, residual: &mut Residual, k: usize) -> SparseVec {
        match self.selector {
            Selector::Exact => residual.extract_topk(k),
            Selector::Sampled { sample } => residual.extract_topk_sampled(k, sample, &mut self.rng),
            Selector::ThresholdEstimate { sample } => {
                residual.extract_topk_threshold(k, sample, &mut self.rng)
            }
        }
    }

    /// Accumulates this iteration's gradient into the residual and
    /// extracts `min(k, dim)` coordinates, in one call.
    ///
    /// For [`Selector::Exact`] and [`Selector::ThresholdEstimate`] this
    /// takes the fused accumulate + threshold-scan + compact kernel
    /// ([`Residual::accumulate_extract_topk`],
    /// [`Residual::accumulate_extract_threshold`]) — one memory pass over
    /// the buffer instead of three, bitwise identical to the unfused
    /// sequence. [`Selector::Sampled`] accumulates and then extracts.
    pub fn accumulate_extract(
        &mut self,
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> SparseVec {
        match self.selector {
            Selector::Exact => residual.accumulate_extract_topk(grad, k),
            Selector::ThresholdEstimate { sample } => {
                residual.accumulate_extract_threshold(grad, k, sample, &mut self.rng)
            }
            Selector::Sampled { .. } => {
                residual.accumulate(grad);
                self.extract(residual, k)
            }
        }
    }

    /// Like [`SelectorState::accumulate_extract`] but writing into a
    /// caller-supplied (typically pooled) vector. Bitwise identical to
    /// the allocating form; for [`Selector::Exact`] and
    /// [`Selector::ThresholdEstimate`] the whole path is allocation-free
    /// in steady state — the Ok-Topk contribution path relies on this.
    pub fn accumulate_extract_into(
        &mut self,
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
        out: &mut SparseVec,
    ) {
        match self.selector {
            Selector::ThresholdEstimate { sample } => {
                residual.accumulate_extract_threshold_into(grad, k, sample, &mut self.rng, out);
            }
            Selector::Exact => residual.accumulate_extract_topk_into(grad, k, out),
            Selector::Sampled { sample } => {
                residual.accumulate(grad);
                *out = residual.extract_topk_sampled(k, sample, &mut self.rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_sampled_return_k_entries() {
        let grad: Vec<f32> = (0..512).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        for selector in [Selector::Exact, Selector::Sampled { sample: 64 }] {
            let mut residual = Residual::new(512);
            residual.accumulate(&grad);
            let mut state = SelectorState::new(selector, 0);
            let sv = state.extract(&mut residual, 16);
            assert_eq!(sv.nnz(), 16, "{selector:?}");
            // extracted coordinates zeroed
            for &i in sv.indices() {
                assert_eq!(residual.dense()[i as usize], 0.0);
            }
        }
    }

    #[test]
    fn sampled_selection_overlaps_exact_heavily() {
        // Heavy-hitter structure: both kernels must find the spikes.
        let mut grad = vec![0.01f32; 1000];
        for i in (0..1000).step_by(100) {
            grad[i] = 10.0 + i as f32;
        }
        let mut r1 = Residual::new(1000);
        r1.accumulate(&grad);
        let mut r2 = r1.clone();
        let exact = SelectorState::new(Selector::Exact, 0).extract(&mut r1, 10);
        let sampled = SelectorState::new(Selector::Sampled { sample: 128 }, 0).extract(&mut r2, 10);
        let overlap = sampled
            .indices()
            .iter()
            .filter(|i| exact.contains(**i))
            .count();
        assert!(overlap >= 9, "overlap {overlap}/10");
    }

    #[test]
    fn different_ranks_use_different_streams() {
        let grad: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
        let extract = |rank: usize| {
            let mut r = Residual::new(256);
            r.accumulate(&grad);
            SelectorState::new(Selector::Sampled { sample: 8 }, rank).extract(&mut r, 32)
        };
        // Streams differ, results may differ (tiny sample), but both are
        // valid selections of 32 entries.
        let a = extract(0);
        let b = extract(1);
        assert_eq!(a.nnz(), 32);
        assert_eq!(b.nnz(), 32);
    }

    #[test]
    fn accumulate_extract_matches_accumulate_then_extract() {
        // Every selector: the one-call form must reproduce the two-call
        // form bitwise — for ThresholdEstimate that exercises the fused
        // single-pass kernel against the three-pass sequence.
        let grads: Vec<Vec<f32>> = (0..3)
            .map(|s: usize| {
                (0..512)
                    .map(|i| ((i * 37 + s * 11) % 101) as f32 - 50.0)
                    .collect()
            })
            .collect();
        for selector in [
            Selector::Exact,
            Selector::Sampled { sample: 64 },
            Selector::ThresholdEstimate { sample: 64 },
        ] {
            let mut r1 = Residual::new(512);
            let mut r2 = Residual::new(512);
            let mut s1 = SelectorState::new(selector, 2);
            let mut s2 = SelectorState::new(selector, 2);
            for g in &grads {
                let fused = s1.accumulate_extract(&mut r1, g, 16);
                r2.accumulate(g);
                let unfused = s2.extract(&mut r2, 16);
                assert_eq!(fused, unfused, "{selector:?}");
                assert_eq!(r1.dense(), r2.dense(), "{selector:?} residual state");
            }
        }
    }

    #[test]
    fn exact_fused_path_matches_unfused_and_draws_no_rng() {
        // Large enough for the exact kernel's threshold prefilter; the
        // fused accumulate + select must match the two-call form bitwise
        // and leave the checkpointed RNG stream untouched.
        let dim = 1 << 16;
        let mut s1 = SelectorState::new(Selector::Exact, 3);
        let start = s1.rng_state();
        let mut r1 = Residual::new(dim);
        let mut r2 = Residual::new(dim);
        for step in 0..3 {
            let g: Vec<f32> = (0..dim)
                .map(|i| ((i * 37 + step * 11) as f32 * 0.013).sin())
                .collect();
            let fused = s1.accumulate_extract(&mut r1, &g, 64);
            r2.accumulate(&g);
            assert_eq!(fused, r2.extract_topk(64), "step {step}");
            assert_eq!(r1.dense(), r2.dense(), "step {step} residual state");
        }
        assert_eq!(s1.rng_state(), start, "Exact must draw no random numbers");
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(Selector::default(), Selector::Exact);
    }

    #[test]
    fn threshold_estimate_is_bitwise_identical_to_exact() {
        // Unlike `Sampled`, the threshold-estimate kernel guarantees the
        // exact result for every rank's rng stream and any k.
        let grad: Vec<f32> = (0..2048)
            .map(|i| ((i * 37) % 101) as f32 - 50.0 + (i as f32 * 0.11).sin())
            .collect();
        for rank in [0usize, 1, 7] {
            for k in [1usize, 16, 333] {
                let mut r1 = Residual::new(grad.len());
                r1.accumulate(&grad);
                let mut r2 = r1.clone();
                let exact = SelectorState::new(Selector::Exact, rank).extract(&mut r1, k);
                let est = SelectorState::new(Selector::ThresholdEstimate { sample: 64 }, rank)
                    .extract(&mut r2, k);
                assert_eq!(est, exact, "rank={rank} k={k}");
                assert_eq!(r1.dense(), r2.dense(), "residual state must match");
            }
        }
    }
}
