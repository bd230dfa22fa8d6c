//! Neural-network substrate: parameters, Adam, LSTM cells and the Seq2Seq
//! encoder–decoder of §5.2 / Fig 15.
//!
//! Everything is implemented directly on `Vec<f64>` buffers — no BLAS, no
//! autograd. Gradients are hand-derived and validated against finite
//! differences in the test suite (`seq2seq::tests::gradient_check_*`).

pub mod lstm;
pub mod seq2seq;

use rand::rngs::StdRng;
use rand::Rng;

/// A weight tensor with its gradient accumulator and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    /// Weights (row-major for matrices).
    pub w: Vec<f64>,
    /// Gradient accumulator.
    pub g: Vec<f64>,
    /// Adam first moment.
    m: Vec<f64>,
    /// Adam second moment.
    v: Vec<f64>,
}

impl Param {
    /// Xavier-uniform initialized tensor of `len` weights with the given
    /// fan-in/fan-out.
    pub fn xavier(len: usize, fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Param {
            w: (0..len).map(|_| rng.gen_range(-limit..limit)).collect(),
            g: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Zero-initialized tensor (biases).
    pub fn zeros(len: usize) -> Self {
        Param {
            w: vec![0.0; len],
            g: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.g.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Squared L2 norm of the gradient.
    pub fn grad_norm_sq(&self) -> f64 {
        self.g.iter().map(|g| g * g).sum()
    }

    /// Scale the gradient in place (for global-norm clipping).
    pub fn scale_grad(&mut self, s: f64) {
        self.g.iter_mut().for_each(|g| *g *= s);
    }
}

/// Bias + matrix–vector product into `out`: `out[r] = bias[r] + W[r]·x`
/// for the row-major matrix `w` of `out.len()` rows and `x.len()` columns.
/// The row count must be a multiple of four, as an LSTM's `4·hidden` gate
/// rows are.
///
/// One dot product is a serial `fadd` chain that runs at FP-add latency;
/// here four rows advance through `x` together, so the CPU overlaps their
/// independent chains. Each chain still starts from −0.0 (the neutral
/// element `Iterator::sum` folds from) and adds its products left to
/// right, so every result is bit-identical to
/// `bias[r] + row.zip(x).map(|(w, x)| w * x).sum::<f64>()`.
pub(crate) fn matvec_bias_into(w: &[f64], bias: &[f64], x: &[f64], out: &mut [f64]) {
    let cols = x.len();
    assert_eq!(out.len() % 4, 0, "row count must be a multiple of 4");
    assert_eq!(w.len(), out.len() * cols, "weight shape mismatch");
    assert_eq!(bias.len(), out.len(), "bias shape mismatch");
    for ((o, b), rows) in out
        .chunks_exact_mut(4)
        .zip(bias.chunks_exact(4))
        .zip(w.chunks_exact(4 * cols))
    {
        let (r0, rest) = rows.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = [-0.0f64; 4];
        for ((((&x, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            acc[0] += w0 * x;
            acc[1] += w1 * x;
            acc[2] += w2 * x;
            acc[3] += w3 * x;
        }
        for ((o, b), a) in o.iter_mut().zip(b).zip(acc) {
            *o = b + a;
        }
    }
}

/// Adam optimizer state shared across a parameter set.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
    /// Step counter (for bias correction).
    pub t: u64,
}

impl Adam {
    /// Standard Adam with the given learning rate.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Advance the shared step counter; call once per optimizer step before
    /// updating the individual parameters.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Apply one Adam update to `p` using its accumulated gradient.
    pub fn update(&self, p: &mut Param) {
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..p.w.len() {
            p.m[i] = self.beta1 * p.m[i] + (1.0 - self.beta1) * p.g[i];
            p.v[i] = self.beta2 * p.v[i] + (1.0 - self.beta2) * p.g[i] * p.g[i];
            let mhat = p.m[i] / bc1;
            let vhat = p.v[i] / bc2;
            p.w[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_init_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Param::xavier(100, 10, 10, &mut rng);
        let limit = (6.0 / 20.0f64).sqrt();
        assert!(p.w.iter().all(|&w| w.abs() <= limit));
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize (w − 3)² with Adam.
        let mut p = Param::zeros(1);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            p.zero_grad();
            p.g[0] = 2.0 * (p.w[0] - 3.0);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!((p.w[0] - 3.0).abs() < 1e-3, "w = {}", p.w[0]);
    }

    #[test]
    fn matvecs_start_from_the_neutral_element_of_sum() {
        // A row of negative weights against a zero input sums to −0.0 under
        // `Iterator::sum`; with a −0.0 bias only a −0.0 start reproduces it.
        let (rows, cols) = (8, 5);
        let w: Vec<f64> = (0..rows * cols).map(|i| -0.5 - i as f64).collect();
        let bias = vec![-0.0; rows];
        let x = vec![0.0; cols];
        let scalar: Vec<u64> = w
            .chunks(cols)
            .zip(&bias)
            .map(|(row, b)| (b + row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>()).to_bits())
            .collect();
        assert!(scalar.iter().all(|&b| b == (-0.0f64).to_bits()));
        let mut out = vec![1.0; rows];
        matvec_bias_into(&w, &bias, &x, &mut out);
        assert_eq!(out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), scalar);
    }

    #[test]
    fn interleaved_matvec_bit_matches_scalar_matvec() {
        let mut rng = StdRng::seed_from_u64(3);
        for (rows, cols) in [(16, 7), (12, 1), (4, 9)] {
            let w = Param::xavier(rows * cols, cols, rows, &mut rng);
            let bias = Param::xavier(rows, rows, 1, &mut rng);
            let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut out = vec![0.0; rows];
            matvec_bias_into(&w.w, &bias.w, &x, &mut out);
            for (r, got) in out.iter().enumerate() {
                let row = &w.w[r * cols..(r + 1) * cols];
                let scalar = bias.w[r] + row.iter().zip(&x).map(|(a, b)| a * b).sum::<f64>();
                assert_eq!(got.to_bits(), scalar.to_bits(), "{rows}×{cols} row {r}");
            }
        }
    }

    #[test]
    fn grad_clipping_scales() {
        let mut p = Param::zeros(2);
        p.g = vec![3.0, 4.0];
        assert!((p.grad_norm_sq() - 25.0).abs() < 1e-12);
        p.scale_grad(0.5);
        assert_eq!(p.g, vec![1.5, 2.0]);
    }
}
