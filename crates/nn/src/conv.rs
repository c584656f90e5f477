use crate::Layer;
use gtopk_tensor::{
    kaiming_uniform, matmul_at_flat_acc, matmul_bt_flat, matmul_flat, simd, Shape, Tensor,
};
use rand::Rng;

/// 2-D convolution over `[N, C, H, W]` tensors via im2col + GEMM.
///
/// Weights are stored `[out_c, in_c·kh·kw]` followed by a bias of `out_c`,
/// as one contiguous parameter buffer.
///
/// Each sample is lowered to a `[in_c·k·k, oh·ow]` column matrix in a
/// one-sample buffer the layer keeps, so forward and backward allocate
/// nothing but the tensors they return once the buffers are warm:
/// backward recomputes each sample's columns instead of caching the whole
/// batch's, the input is kept in a reused buffer, and the column and
/// weight-gradient scratch is reused across samples and steps (the column
/// gradient reuses the column buffer once `dW` is done with it). im2col and
/// col2im work on whole valid row ranges (a `copy_from_slice` at stride
/// 1), with no bounds test per element.
///
/// # Examples
///
/// ```
/// use gtopk_nn::{Conv2d, Layer};
/// use gtopk_tensor::{Shape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1); // 3→8 channels, 3×3, stride 1, pad 1
/// let x = Tensor::zeros(Shape::d4(2, 3, 8, 8));
/// let y = conv.forward(&x, true);
/// assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
/// ```
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[W (out_c · in_c·k·k) | b (out_c)]`
    params: Vec<f32>,
    grads: Vec<f32>,
    /// The last forward's input dims; `None` once backward consumed it.
    cached_dims: Option<[usize; 4]>,
    /// The last forward's input data, in a buffer reused across steps.
    cached_input: Vec<f32>,
    /// One sample's im2col matrix `[in_c·k·k, oh·ow]`; in backward, after
    /// `dW`, that sample's column gradient.
    cols: Vec<f32>,
    /// One sample's weight gradient `[out_c, in_c·k·k]`.
    dw: Vec<f32>,
}

/// The geometry of one sample's im2col lowering.
#[derive(Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
    oh: usize,
    ow: usize,
}

/// The output positions `o < out` whose input coordinate `o·s + kk − p`
/// lies in `0..len`, as a half-open range `lo..hi` (`lo == hi` if none).
fn valid_range(out: usize, len: usize, kk: usize, s: usize, p: usize) -> (usize, usize) {
    // o·s + kk ≥ p
    let lo = p.saturating_sub(kk).div_ceil(s).min(out);
    // o·s + kk − p ≤ len − 1
    let hi = if len + p > kk {
        ((len - 1 + p - kk) / s + 1).min(out)
    } else {
        0
    };
    (lo, hi.max(lo))
}

impl Geom {
    /// Calls `f(col, img, len)` for every run of in-bounds taps: entries
    /// `col .. col + len` of the column matrix read image entries `img,
    /// img + s, …` (`len` of them). Runs are visited in `(ci, ky, kx, oy)`
    /// order, the order of the per-element loops, and cover every
    /// in-bounds tap exactly once.
    fn for_each_valid_run(&self, mut f: impl FnMut(usize, usize, usize)) {
        let (h, w, k, s, p) = (self.h, self.w, self.k, self.s, self.p);
        let (oh, ow) = (self.oh, self.ow);
        for ci in 0..self.c {
            for ky in 0..k {
                let (y0, y1) = valid_range(oh, h, ky, s, p);
                for kx in 0..k {
                    let (x0, x1) = valid_range(ow, w, kx, s, p);
                    if x0 == x1 {
                        continue;
                    }
                    let row = (ci * k + ky) * k + kx;
                    for oy in y0..y1 {
                        let iy = oy * s + ky - p;
                        let ix0 = x0 * s + kx - p;
                        f((row * oh + oy) * ow + x0, (ci * h + iy) * w + ix0, x1 - x0);
                    }
                }
            }
        }
    }
}

/// im2col for one sample `x` (`[c, h, w]`) into `cols`
/// (`[c·k·k, oh·ow]`, row-major), overwriting every entry.
fn im2col(g: &Geom, x: &[f32], cols: &mut [f32]) {
    cols.fill(0.0);
    g.for_each_valid_run(|col, img, len| {
        let dst = &mut cols[col..col + len];
        if g.s == 1 {
            dst.copy_from_slice(&x[img..img + len]);
        } else {
            for (d, &v) in dst.iter_mut().zip(x[img..].iter().step_by(g.s)) {
                *d = v;
            }
        }
    });
}

/// col2im: scatter-adds a column matrix back onto one sample's image
/// gradient `dx` (the adjoint of [`im2col`]).
fn col2im(g: &Geom, cols: &[f32], dx: &mut [f32]) {
    g.for_each_valid_run(|col, img, len| {
        let src = &cols[col..col + len];
        if g.s == 1 {
            for (d, &v) in dx[img..img + len].iter_mut().zip(src) {
                *d += v;
            }
        } else {
            for (d, &v) in dx[img..].iter_mut().step_by(g.s).zip(src) {
                *d += v;
            }
        }
    });
}

impl Conv2d {
    /// Creates a square-kernel convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_c`, `out_c`, `k`, `stride` is zero.
    pub fn new(
        rng: &mut impl Rng,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "conv dims must be positive"
        );
        let fan_in = in_c * k * k;
        let mut params = kaiming_uniform(rng, out_c * fan_in, fan_in);
        params.extend(std::iter::repeat_n(0.0, out_c));
        let n = params.len();
        Conv2d {
            in_c,
            out_c,
            k,
            stride,
            pad,
            params,
            grads: vec![0.0; n],
            cached_dims: None,
            cached_input: Vec::new(),
            cols: Vec::new(),
            dw: vec![0.0; out_c * fan_in],
        }
    }

    /// Output spatial size for an input of spatial size `h`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_size(&self, h: usize) -> usize {
        let padded = h + 2 * self.pad;
        assert!(padded >= self.k, "kernel larger than padded input");
        (padded - self.k) / self.stride + 1
    }

    fn geom(&self, h: usize, w: usize) -> Geom {
        Geom {
            c: self.in_c,
            h,
            w,
            k: self.k,
            s: self.stride,
            p: self.pad,
            oh: self.out_size(h),
            ow: self.out_size(w),
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "conv2d expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_c, "channel mismatch");
        let g = self.geom(h, w);
        let l = g.oh * g.ow;
        let ckk = self.in_c * self.k * self.k;
        let (weight, bias) = self.params.split_at(self.out_c * ckk);
        self.cols.resize(ckk * l, 0.0);
        let mut out = Tensor::zeros(Shape::d4(n, self.out_c, g.oh, g.ow));
        for (xin, yout) in input
            .data()
            .chunks_exact(c * h * w)
            .zip(out.data_mut().chunks_exact_mut(self.out_c * l))
        {
            im2col(&g, xin, &mut self.cols);
            matmul_flat(weight, &self.cols, yout, self.out_c, ckk, l);
        }
        // Add bias per output channel.
        for (plane, &b) in out.data_mut().chunks_exact_mut(l).zip(bias.iter().cycle()) {
            for v in plane {
                *v += b;
            }
        }
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input.data());
        self.cached_dims = Some([n, c, h, w]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .cached_dims
            .take()
            .expect("backward called without forward");
        let g = self.geom(h, w);
        let l = g.oh * g.ow;
        let ckk = self.in_c * self.k * self.k;
        assert_eq!(grad_out.len(), n * self.out_c * l);

        let mut grad_in = Tensor::zeros(Shape::d4(n, c, h, w));
        let (weight, _) = self.params.split_at(self.out_c * ckk);
        let (wg, bg) = self.grads.split_at_mut(self.out_c * ckk);
        for ((xin, dy), dxs) in self
            .cached_input
            .chunks_exact(c * h * w)
            .zip(grad_out.data().chunks_exact(self.out_c * l))
            .zip(grad_in.data_mut().chunks_exact_mut(c * h * w))
        {
            im2col(&g, xin, &mut self.cols);
            // dW += dY [oc, l] · colsᵀ [l, ckk]
            matmul_bt_flat(dy, &self.cols, &mut self.dw, self.out_c, l, ckk);
            simd::axpy(wg, &self.dw);
            // db += per-channel sum of dY.
            for (b, dyc) in bg.iter_mut().zip(dy.chunks_exact(l)) {
                *b += dyc.iter().sum::<f32>();
            }
            // dcols = Wᵀ [ckk, oc] · dY [oc, l], into the spent cols.
            self.cols.fill(0.0);
            matmul_at_flat_acc(weight, dy, &mut self.cols, self.out_c, ckk, l);
            col2im(&g, &self.cols, dxs);
        }
        grad_in
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn grads(&self) -> &[f32] {
        &self.grads
    }

    fn param_grad_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.params, &mut self.grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-element im2col the valid-range version replaced, kept as
    /// its oracle.
    fn im2col_oracle(g: &Geom, x: &[f32]) -> Vec<f32> {
        let Geom {
            c,
            h,
            w,
            k,
            s,
            p,
            oh,
            ow,
        } = *g;
        let l = oh * ow;
        let mut cols = vec![0.0f32; c * k * k * l];
        for ci in 0..c {
            let plane = &x[ci * h * w..(ci + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k * k + ky * k + kx) * l;
                    for oy in 0..oh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cols[row + oy * ow + ox] = plane[iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
        cols
    }

    /// The per-element col2im the valid-range version replaced.
    fn col2im_oracle(g: &Geom, cols: &[f32], dx: &mut [f32]) {
        let Geom {
            c,
            h,
            w,
            k,
            s,
            p,
            oh,
            ow,
        } = *g;
        let l = oh * ow;
        for ci in 0..c {
            let plane = &mut dx[ci * h * w..(ci + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k * k + ky * k + kx) * l;
                    for oy in 0..oh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[iy as usize * w + ix as usize] += cols[row + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn im2col_and_col2im_match_per_element_loops() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut cases = 0;
        for stride in [1, 2] {
            for pad in [0, 1] {
                for k in [1, 2, 3] {
                    for (h, w) in [(5, 7), (7, 3), (3, 5), (1, 3)] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let g = Conv2d::new(&mut rng, 2, 1, k, stride, pad).geom(h, w);
                        let x: Vec<f32> = (0..2 * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
                        // Stale contents must be overwritten, padding included.
                        let mut cols = vec![f32::NAN; 2 * k * k * g.oh * g.ow];
                        im2col(&g, &x, &mut cols);
                        let tag = format!("stride={stride} pad={pad} k={k} h={h} w={w}");
                        assert_eq!(bits(&cols), bits(&im2col_oracle(&g, &x)), "im2col {tag}");

                        let dcols: Vec<f32> =
                            (0..cols.len()).map(|i| (i as f32 * 0.91).cos()).collect();
                        let mut dx: Vec<f32> = x.iter().map(|v| v * 0.5).collect();
                        let mut dx_oracle = dx.clone();
                        col2im(&g, &dcols, &mut dx);
                        col2im_oracle(&g, &dcols, &mut dx_oracle);
                        assert_eq!(bits(&dx), bits(&dx_oracle), "col2im {tag}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 40, "only {cases} geometries ran");
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 1, 1, 0);
        conv.params_mut().copy_from_slice(&[1.0, 0.0]); // 1x1 kernel = 1, bias 0
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 3, 1, 1);
        // Sum kernel, bias 0: each output = sum of the 3x3 neighbourhood.
        let mut p = vec![1.0f32; 9];
        p.push(0.0);
        conv.params_mut().copy_from_slice(&p);
        let x = Tensor::full(Shape::d4(1, 1, 3, 3), 1.0);
        let y = conv.forward(&x, true);
        // Center sees 9 ones, corners see 4, edges see 6.
        assert_eq!(y.get(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.get(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.get(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 2, 1);
        let x = Tensor::zeros(Shape::d4(1, 2, 8, 8));
        let y = conv.forward(&x, true);
        assert_eq!(y.shape().dims(), &[1, 3, 4, 4]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 1, 1, 0);
        conv.params_mut().copy_from_slice(&[0.0, 0.0, 5.0, -3.0]); // zero kernels, biases 5 / -3
        let x = Tensor::full(Shape::d4(1, 1, 2, 2), 7.0);
        let y = conv.forward(&x, true);
        assert!(y.data()[..4].iter().all(|&v| v == 5.0));
        assert!(y.data()[4..].iter().all(|&v| v == -3.0));
    }

    #[test]
    fn gradcheck_padded() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        check_layer_gradients(Box::new(conv), Shape::d4(2, 2, 5, 5), 2e-2, 7);
    }

    #[test]
    fn gradcheck_strided_unpadded() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(&mut rng, 1, 2, 2, 2, 0);
        check_layer_gradients(Box::new(conv), Shape::d4(2, 1, 6, 6), 2e-2, 8);
    }
}
