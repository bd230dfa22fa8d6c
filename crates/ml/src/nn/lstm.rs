//! A single LSTM layer with hand-derived backpropagation-through-time.
//!
//! Gate layout in the fused weight matrix (rows of `W ∈ ℝ^{4H×(I+H)}`):
//! `[input i | forget f | cell g | output o]`, each block of `H` rows. The
//! forget-gate bias is initialized to +1 (standard practice for sequence
//! stability).

use super::Param;
use rand::rngs::StdRng;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// One LSTM layer: fused gate weights and biases.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    /// Input dimension.
    pub input_dim: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Fused gate weights, `4H × (I+H)` row-major.
    pub w: Param,
    /// Fused gate biases, `4H`.
    pub b: Param,
}

impl LstmLayer {
    /// Initialize with Xavier weights; forget-gate bias +1.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let cols = input_dim + hidden;
        let w = Param::xavier(4 * hidden * cols, cols, hidden, rng);
        let mut b = Param::zeros(4 * hidden);
        for j in hidden..2 * hidden {
            b.w[j] = 1.0;
        }
        LstmLayer {
            input_dim,
            hidden,
            w,
            b,
        }
    }

    /// Forward one step for a block of independent lanes sharing this
    /// layer's weights: `xs[b]` / `h_prev[b]` / `c_prev[b]` are lane `b`'s
    /// input, hidden and cell state. Returns `(h, c)` per lane; no backward
    /// caches are produced (inference only).
    ///
    /// Every lane's result is bit-identical to running that lane alone:
    /// the fused-gate matmul is blocked over weight rows (see
    /// [`super::batched_matvec_bias`]) so batching changes only memory
    /// traffic, never the per-lane floating-point order.
    pub fn forward_batch(
        &self,
        xs: &[&[f64]],
        h_prev: &[&[f64]],
        c_prev: &[&[f64]],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let hdim = self.hidden;
        assert_eq!(h_prev.len(), xs.len(), "lane count mismatch");
        assert_eq!(c_prev.len(), xs.len(), "lane count mismatch");
        let cols = self.input_dim + hdim;
        let xh: Vec<Vec<f64>> = xs
            .iter()
            .zip(h_prev)
            .map(|(x, h)| {
                assert_eq!(x.len(), self.input_dim, "input dim mismatch");
                assert_eq!(h.len(), hdim, "hidden dim mismatch");
                let mut v = Vec::with_capacity(cols);
                v.extend_from_slice(x);
                v.extend_from_slice(h);
                v
            })
            .collect();
        let xh_refs: Vec<&[f64]> = xh.iter().map(|v| v.as_slice()).collect();
        let z = super::batched_matvec_bias(&self.w.w, 4 * hdim, cols, &self.b.w, &xh_refs);
        let mut hs = Vec::with_capacity(xs.len());
        let mut cs = Vec::with_capacity(xs.len());
        for (lane, z) in z.iter().enumerate() {
            let mut h = vec![0.0; hdim];
            let mut c = vec![0.0; hdim];
            for j in 0..hdim {
                let i = sigmoid(z[j]);
                let f = sigmoid(z[hdim + j]);
                let g = z[2 * hdim + j].tanh();
                let o = sigmoid(z[3 * hdim + j]);
                c[j] = f * c_prev[lane][j] + i * g;
                h[j] = o * c[j].tanh();
            }
            hs.push(h);
            cs.push(c);
        }
        (hs, cs)
    }

    /// Training forward of one step into caller-owned buffers: `xh` holds
    /// `[x; h_prev]` and `c_prev` the previous cell state. Writes the gate
    /// activations `i|f|g|o` (4H) to `acts`, the new cell state to `c`,
    /// `tanh(c)` to `tanh_c` and the new hidden state to `h`; `acts`,
    /// `c_prev` and `tanh_c` are what [`Self::step_backward`] reads.
    ///
    /// Every value is bit-identical to the reference single-step forward:
    /// the fused-gate dot products are interleaved rows at a time (see
    /// [`super::matvec_bias_into`]) but each is still one left-to-right chain.
    pub(crate) fn step_forward(
        &self,
        xh: &[f64],
        c_prev: &[f64],
        acts: &mut [f64],
        c: &mut [f64],
        tanh_c: &mut [f64],
        h: &mut [f64],
    ) {
        let hdim = self.hidden;
        super::matvec_bias_into(&self.w.w, &self.b.w, xh, acts);
        let (i, rest) = acts.split_at_mut(hdim);
        let (f, rest) = rest.split_at_mut(hdim);
        let (g, o) = rest.split_at_mut(hdim);
        for j in 0..hdim {
            i[j] = sigmoid(i[j]);
            f[j] = sigmoid(f[j]);
            g[j] = g[j].tanh();
            o[j] = sigmoid(o[j]);
            c[j] = f[j] * c_prev[j] + i[j] * g[j];
            tanh_c[j] = c[j].tanh();
            h[j] = o[j] * tanh_c[j];
        }
    }

    /// Backward of one step from the cache [`Self::step_forward`] wrote.
    /// `dh` is the gradient flowing into this step's hidden output; `dc`
    /// holds the one flowing into its cell state and is replaced by the
    /// gradient for the previous cell state. Writes the pre-activation
    /// gradient to `dz` (4H) and `Wᵀ·dz` to `dxh[from..]`: pass
    /// `from = input_dim` when the input gradient is not needed.
    ///
    /// The weight gradients are *not* touched: the caller adds `dz` and the
    /// step's `xh` to them with [`accumulate_step`] in whatever order the
    /// minibatch requires.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_backward(
        &self,
        dh: &[f64],
        dc: &mut [f64],
        acts: &[f64],
        c_prev: &[f64],
        tanh_c: &[f64],
        dz: &mut [f64],
        dxh: &mut [f64],
        from: usize,
    ) {
        let hdim = self.hidden;
        let cols = self.input_dim + hdim;
        let (i, rest) = acts.split_at(hdim);
        let (f, rest) = rest.split_at(hdim);
        let (g, o) = rest.split_at(hdim);
        for j in 0..hdim {
            let do_ = dh[j] * tanh_c[j];
            let dcj = dc[j] + dh[j] * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
            let di = dcj * g[j];
            let df = dcj * c_prev[j];
            let dg = dcj * i[j];
            dc[j] = dcj * f[j];
            dz[j] = di * i[j] * (1.0 - i[j]);
            dz[hdim + j] = df * f[j] * (1.0 - f[j]);
            dz[2 * hdim + j] = dg * (1.0 - g[j] * g[j]);
            dz[3 * hdim + j] = do_ * o[j] * (1.0 - o[j]);
        }
        // dxh[c] = Σ_r dz[r]·W[r][c], each column one chain over ascending
        // rows; the column loop is independent and vectorises.
        let dxh = &mut dxh[from..cols];
        dxh.fill(0.0);
        for (row, &d) in self.w.w.chunks_exact(cols).zip(dz.iter()) {
            for (a, &w) in dxh.iter_mut().zip(&row[from..]) {
                *a += d * w;
            }
        }
    }
}

/// Add one step's contribution to a block of gradient rows:
/// `wg[r][c] += dz[r]·xh[c]` and `bg[r] += dz[r]`, where `wg` holds
/// `dz.len()` rows of `xh.len()` columns. Each element receives exactly one
/// addition, so calling this over the steps of a minibatch in the reference
/// order (sample ascending, then step descending) reproduces the
/// per-sample accumulation bit for bit, whichever rows each caller owns.
pub(crate) fn accumulate_step(wg: &mut [f64], bg: &mut [f64], dz: &[f64], xh: &[f64]) {
    for ((row, b), &d) in wg.chunks_exact_mut(xh.len()).zip(bg).zip(dz) {
        *b += d;
        for (g, &x) in row.iter_mut().zip(xh) {
            *g += d * x;
        }
    }
}

/// The per-sample forward/backward the lane-parallel trainer replaced,
/// kept as the bit-identity oracle for the tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{sigmoid, LstmLayer};

    /// Per-timestep forward cache needed by the backward pass.
    #[derive(Debug, Clone)]
    pub(crate) struct StepCache {
        /// Concatenated `[x; h_prev]`.
        pub xh: Vec<f64>,
        /// Previous cell state.
        pub c_prev: Vec<f64>,
        /// Gate activations i, f, g, o (each length H).
        pub i: Vec<f64>,
        /// Forget gate.
        pub f: Vec<f64>,
        /// Candidate cell.
        pub g: Vec<f64>,
        /// Output gate.
        pub o: Vec<f64>,
        /// tanh(c).
        pub tanh_c: Vec<f64>,
    }

    impl LstmLayer {
        /// Forward one step. Returns `(h, c, cache)`.
        pub(crate) fn forward(
            &self,
            x: &[f64],
            h_prev: &[f64],
            c_prev: &[f64],
        ) -> (Vec<f64>, Vec<f64>, StepCache) {
            let hdim = self.hidden;
            assert_eq!(x.len(), self.input_dim, "input dim mismatch");
            assert_eq!(h_prev.len(), hdim, "hidden dim mismatch");
            let cols = self.input_dim + hdim;
            let mut xh = Vec::with_capacity(cols);
            xh.extend_from_slice(x);
            xh.extend_from_slice(h_prev);

            // z = W·xh + b
            let mut z = vec![0.0; 4 * hdim];
            for (r, zr) in z.iter_mut().enumerate() {
                let row = &self.w.w[r * cols..(r + 1) * cols];
                *zr = self.b.w[r] + row.iter().zip(&xh).map(|(a, b)| a * b).sum::<f64>();
            }

            let mut i = vec![0.0; hdim];
            let mut f = vec![0.0; hdim];
            let mut g = vec![0.0; hdim];
            let mut o = vec![0.0; hdim];
            let mut c = vec![0.0; hdim];
            let mut tanh_c = vec![0.0; hdim];
            let mut h = vec![0.0; hdim];
            for j in 0..hdim {
                i[j] = sigmoid(z[j]);
                f[j] = sigmoid(z[hdim + j]);
                g[j] = z[2 * hdim + j].tanh();
                o[j] = sigmoid(z[3 * hdim + j]);
                c[j] = f[j] * c_prev[j] + i[j] * g[j];
                tanh_c[j] = c[j].tanh();
                h[j] = o[j] * tanh_c[j];
            }
            let cache = StepCache {
                xh,
                c_prev: c_prev.to_vec(),
                i,
                f,
                g,
                o,
                tanh_c,
            };
            (h, c, cache)
        }

        /// Backward one step. `dh`/`dc` are gradients flowing into this step's
        /// outputs. Accumulates weight/bias gradients and returns
        /// `(dx, dh_prev, dc_prev)`.
        pub(crate) fn backward(
            &mut self,
            dh: &[f64],
            dc_in: &[f64],
            cache: &StepCache,
        ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
            let hdim = self.hidden;
            let cols = self.input_dim + hdim;
            let mut dz = vec![0.0; 4 * hdim];
            let mut dc_prev = vec![0.0; hdim];
            for j in 0..hdim {
                let do_ = dh[j] * cache.tanh_c[j];
                let dc = dc_in[j] + dh[j] * cache.o[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
                let di = dc * cache.g[j];
                let df = dc * cache.c_prev[j];
                let dg = dc * cache.i[j];
                dc_prev[j] = dc * cache.f[j];
                dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
                dz[hdim + j] = df * cache.f[j] * (1.0 - cache.f[j]);
                dz[2 * hdim + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
                dz[3 * hdim + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
            }
            // dW += dz ⊗ xh ; db += dz ; dxh = Wᵀ dz
            let mut dxh = vec![0.0; cols];
            for (r, &dzr) in dz.iter().enumerate() {
                self.b.g[r] += dzr;
                let row_w = &self.w.w[r * cols..(r + 1) * cols];
                let row_g = &mut self.w.g[r * cols..(r + 1) * cols];
                for cidx in 0..cols {
                    row_g[cidx] += dzr * cache.xh[cidx];
                    dxh[cidx] += dzr * row_w[cidx];
                }
            }
            let dx = dxh[..self.input_dim].to_vec();
            let dh_prev = dxh[self.input_dim..].to_vec();
            (dx, dh_prev, dc_prev)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer(i: usize, h: usize, seed: u64) -> LstmLayer {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmLayer::new(i, h, &mut rng)
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let l = layer(3, 4, 1);
        let (h, c, _) = l.forward(&[0.5, -0.2, 1.0], &[0.0; 4], &[0.0; 4]);
        assert_eq!(h.len(), 4);
        assert_eq!(c.len(), 4);
        // |h| < 1 always (o·tanh(c)).
        assert!(h.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_state_gives_small_output() {
        let l = layer(2, 3, 2);
        let (h, _, _) = l.forward(&[0.0, 0.0], &[0.0; 3], &[0.0; 3]);
        // With zero inputs, z = b; h is bounded by tanh of small cell values.
        assert!(h.iter().all(|v| v.abs() < 0.8));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let l = layer(2, 3, 3);
        for j in 3..6 {
            assert_eq!(l.b.w[j], 1.0);
        }
        assert_eq!(l.b.w[0], 0.0);
    }

    #[test]
    fn forward_batch_bit_matches_forward_per_lane() {
        let l = layer(3, 5, 11);
        let lanes: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..4)
            .map(|b| {
                let s = b as f64;
                (
                    vec![0.1 * s, -0.3, 0.7 - s],
                    vec![0.05 * s, -0.1, 0.2, 0.0, 0.4],
                    vec![0.3, -0.2 * s, 0.1, 0.6, -0.5],
                )
            })
            .collect();
        let xs: Vec<&[f64]> = lanes.iter().map(|(x, _, _)| x.as_slice()).collect();
        let hp: Vec<&[f64]> = lanes.iter().map(|(_, h, _)| h.as_slice()).collect();
        let cp: Vec<&[f64]> = lanes.iter().map(|(_, _, c)| c.as_slice()).collect();
        let (hb, cb) = l.forward_batch(&xs, &hp, &cp);
        for (b, (x, h0, c0)) in lanes.iter().enumerate() {
            let (h1, c1, _) = l.forward(x, h0, c0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&hb[b]), bits(&h1), "lane {b} hidden state diverged");
            assert_eq!(bits(&cb[b]), bits(&c1), "lane {b} cell state diverged");
        }
    }

    /// One training step through the production kernels: returns `h` and
    /// the cache `step_backward` reads, as `(acts, tanh_c)`.
    fn step(l: &LstmLayer, xh: &[f64], c0: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let hd = l.hidden;
        let (mut acts, mut c) = (vec![0.0; 4 * hd], vec![0.0; hd]);
        let (mut tanh_c, mut h) = (vec![0.0; hd], vec![0.0; hd]);
        l.step_forward(xh, c0, &mut acts, &mut c, &mut tanh_c, &mut h);
        (h, acts, tanh_c)
    }

    /// Gradients of loss = Σh² for one step through `step_backward` and
    /// `accumulate_step`: returns `(dxh, W.g, b.g)`.
    fn step_grads(l: &LstmLayer, xh: &[f64], c0: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let hd = l.hidden;
        let (h, acts, tanh_c) = step(l, xh, c0);
        let dh: Vec<f64> = h.iter().map(|v| 2.0 * v).collect();
        let (mut dc, mut dz, mut dxh) = (vec![0.0; hd], vec![0.0; 4 * hd], vec![0.0; xh.len()]);
        l.step_backward(&dh, &mut dc, &acts, c0, &tanh_c, &mut dz, &mut dxh, 0);
        let (mut wg, mut bg) = (vec![0.0; l.w.w.len()], vec![0.0; 4 * hd]);
        accumulate_step(&mut wg, &mut bg, &dz, xh);
        (dxh, wg, bg)
    }

    #[test]
    fn step_kernels_bit_match_reference_forward_and_backward() {
        let mut l = layer(3, 4, 6);
        let x = [0.3, -0.0, 0.0];
        let h0 = [0.1, -0.2, 0.0, 0.4];
        let c0 = [0.2, -0.0, -0.1, 0.7];
        let xh: Vec<f64> = x.iter().chain(&h0).copied().collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let (h_ref, _, cache) = l.forward(&x, &h0, &c0);
        let (h, _, _) = step(&l, &xh, &c0);
        assert_eq!(bits(&h), bits(&h_ref));

        let dh: Vec<f64> = h_ref.iter().map(|v| 2.0 * v).collect();
        let dc_in = [0.05, -0.3, 0.0, 0.2];
        l.w.zero_grad();
        l.b.zero_grad();
        let (dx_ref, dh_ref, dc_ref) = l.backward(&dh, &dc_in, &cache);

        let (_, acts, tanh_c) = step(&l, &xh, &c0);
        let (mut dc, mut dz, mut dxh) = (dc_in.to_vec(), vec![0.0; 16], vec![0.0; 7]);
        l.step_backward(&dh, &mut dc, &acts, &c0, &tanh_c, &mut dz, &mut dxh, 0);
        let (mut wg, mut bg) = (vec![0.0; l.w.w.len()], vec![0.0; 16]);
        accumulate_step(&mut wg, &mut bg, &dz, &xh);
        assert_eq!(bits(&dxh[..3]), bits(&dx_ref));
        assert_eq!(bits(&dxh[3..]), bits(&dh_ref));
        assert_eq!(bits(&dc), bits(&dc_ref));
        assert_eq!(bits(&wg), bits(&l.w.g));
        assert_eq!(bits(&bg), bits(&l.b.g));
    }

    /// Finite-difference gradient check for a single step: loss = Σh².
    #[test]
    fn gradient_check_single_step() {
        let mut l = layer(2, 3, 4);
        let xh = [0.3, -0.7, 0.1, -0.2, 0.05];
        let c0 = [0.2, 0.0, -0.1];

        let loss = |l: &LstmLayer| -> f64 {
            let (h, _, _) = step(l, &xh, &c0);
            h.iter().map(|v| v * v).sum()
        };
        let (_, wg, bg) = step_grads(&l, &xh, &c0);

        // Compare a scattering of weight entries.
        let eps = 1e-6;
        for &idx in &[0usize, 7, 13, 29, 41, 59] {
            let orig = l.w.w[idx];
            l.w.w[idx] = orig + eps;
            let lp = loss(&l);
            l.w.w[idx] = orig - eps;
            let lm = loss(&l);
            l.w.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = wg[idx];
            assert!(
                (numeric - analytic).abs() < 1e-6 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And bias entries.
        for &idx in &[0usize, 4, 8, 11] {
            let orig = l.b.w[idx];
            l.b.w[idx] = orig + eps;
            let lp = loss(&l);
            l.b.w[idx] = orig - eps;
            let lm = loss(&l);
            l.b.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = bg[idx];
            assert!(
                (numeric - analytic).abs() < 1e-6 * (1.0 + numeric.abs()),
                "bias {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// Check the input and recurrent-state gradients (`Wᵀ·dz`) too.
    #[test]
    fn gradient_check_input_gradients() {
        let l = layer(2, 3, 5);
        let xh = [0.4, -0.1, 0.3, 0.0, -0.2];
        let c0 = [0.0; 3];
        let loss_of = |xh: &[f64]| -> f64 {
            let (h, _, _) = step(&l, xh, &c0);
            h.iter().map(|v| v * v).sum()
        };
        let (dxh, _, _) = step_grads(&l, &xh, &c0);

        let eps = 1e-6;
        for j in 0..xh.len() {
            let mut xp = xh;
            xp[j] += eps;
            let mut xm = xh;
            xm[j] -= eps;
            let numeric = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dxh[j]).abs() < 1e-6 * (1.0 + numeric.abs()),
                "dxh[{j}]: numeric {numeric} vs analytic {}",
                dxh[j]
            );
        }
    }
}
