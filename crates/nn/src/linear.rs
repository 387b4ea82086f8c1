//! Fully-connected layer with explicit gradient buffers.

use crate::mat::Mat;
use rand::Rng;

/// A dense layer computing `y = x @ W^T + b`.
///
/// Gradients accumulate into `grad_w` / `grad_b` across
/// [`Linear::backward`] calls until [`Linear::zero_grad`] is called, matching
/// the usual deep-learning training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weights, shape `(out, in)`.
    pub w: Mat,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    /// Accumulated weight gradients, shape `(out, in)`.
    pub grad_w: Mat,
    /// Accumulated bias gradients, length `out`.
    pub grad_b: Vec<f32>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights (`U(-k, k)`,
    /// `k = sqrt(1/in)`) and zero bias, the PyTorch default.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        let k = (1.0 / in_dim as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-k..=k))
            .collect();
        Linear {
            w: Mat::from_vec(out_dim, in_dim, data),
            b: vec![0.0; out_dim],
            grad_w: Mat::zeros(out_dim, in_dim),
            grad_b: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass: `x @ W^T + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut y = Mat::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass into a reusable output buffer (allocation-free
    /// [`Linear::forward`] once the buffer has warmed up).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_nt_into(&self.w, y);
        y.add_row_broadcast(&self.b);
    }

    /// Forward pass against a caller-supplied pre-packed transpose of the
    /// weights (`wt` must be `self.w` transposed — see
    /// [`crate::mlp::Mlp::pack_weights`]). Bit-identical to
    /// [`Linear::forward_into`] while skipping the per-call transpose pack
    /// — the wide-batch inference fast path.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()` or `wt` is not `w` transposed.
    pub fn forward_prepacked_into(&self, x: &Mat, wt: &Mat, y: &mut Mat) {
        x.matmul_nt_prepacked_bias_into(&self.w, wt, &self.b, y);
    }

    /// Backward pass. `x` must be the input that produced `grad_out`'s
    /// forward pass. Accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    pub fn backward(&mut self, x: &Mat, grad_out: &Mat) -> Mat {
        let mut grad_in = Mat::default();
        self.backward_into(x, grad_out, &mut grad_in);
        grad_in
    }

    /// Backward pass writing the input gradient into a reusable buffer.
    /// Parameter gradients accumulate exactly as in [`Linear::backward`]
    /// (directly into `grad_w` via `matmul_tn_acc` — no temporary matrix).
    pub fn backward_into(&mut self, x: &Mat, grad_out: &Mat, grad_in: &mut Mat) {
        // dW += grad_out^T @ x  (shape out x in)
        grad_out.matmul_tn_acc(x, &mut self.grad_w);
        // db += column sums of grad_out. Summed per column in ascending
        // batch order into a register before one add into `grad_b` — same
        // FP order as the `sum_rows` temporary this replaces, without its
        // per-call allocation.
        for (j, g) in self.grad_b.iter_mut().enumerate() {
            let mut s = 0.0;
            for r in 0..grad_out.rows() {
                s += grad_out.row(r)[j];
            }
            *g += s;
        }
        // dX = grad_out @ W
        grad_out.matmul_into(&self.w, grad_in);
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.map_inplace(|_| 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Visits `(params, grads)` slices in a deterministic order, for
    /// optimizers.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.data_mut(), self.grad_w.data_mut());
        f(&mut self.b, &mut self.grad_b);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.data().len() + self.b.len()
    }

    /// Copies parameters from another layer of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_params_from(&mut self, other: &Linear) {
        assert_eq!(self.w.rows(), other.w.rows());
        assert_eq!(self.w.cols(), other.w.cols());
        self.w = other.w.clone();
        self.b = other.b.clone();
    }

    /// Polyak update: `theta <- tau * other + (1 - tau) * theta`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn polyak_from(&mut self, other: &Linear, tau: f32) {
        assert_eq!(self.w.rows(), other.w.rows());
        assert_eq!(self.w.cols(), other.w.cols());
        for (t, s) in self.w.data_mut().iter_mut().zip(other.w.data()) {
            *t = tau * s + (1.0 - tau) * *t;
        }
        for (t, s) in self.b.iter_mut().zip(&other.b) {
            *t = tau * s + (1.0 - tau) * *t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Linear {
        let mut rng = StdRng::seed_from_u64(42);
        Linear::new(3, 2, &mut rng)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer();
        l.b = vec![1.0, -1.0];
        let x = Mat::zeros(4, 3);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input → pure bias.
        for r in 0..4 {
            assert_eq!(y.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut l = layer();
        let x = Mat::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, 0.3, -0.7]);
        // Loss = sum(y); grad_out = ones.
        let grad_out = Mat::from_vec(2, 2, vec![1.0; 4]);
        l.zero_grad();
        let grad_in = l.backward(&x, &grad_out);

        let eps = 1e-3f32;
        let loss = |l: &Linear, x: &Mat| l.forward(x).data().iter().sum::<f32>();
        // Weight gradient check (spot check a few entries).
        for &(r, c) in &[(0usize, 0usize), (1, 2), (0, 1)] {
            let mut lp = l.clone();
            let v = lp.w.get(r, c);
            lp.w.set(r, c, v + eps);
            let up = loss(&lp, &x);
            lp.w.set(r, c, v - eps);
            let down = loss(&lp, &x);
            let fd = (up - down) / (2.0 * eps);
            let got = l.grad_w.get(r, c);
            assert!((fd - got).abs() < 1e-2, "dW[{r},{c}] fd {fd} vs {got}");
        }
        // Input gradient check.
        for &(r, c) in &[(0usize, 0usize), (1, 1)] {
            let mut xp = x.clone();
            let v = xp.get(r, c);
            xp.set(r, c, v + eps);
            let up = loss(&l, &xp);
            xp.set(r, c, v - eps);
            let down = loss(&l, &xp);
            let fd = (up - down) / (2.0 * eps);
            let got = grad_in.get(r, c);
            assert!((fd - got).abs() < 1e-2, "dX[{r},{c}] fd {fd} vs {got}");
        }
        // Bias gradient: sum over batch of ones = batch size.
        assert_eq!(l.grad_b, vec![2.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer();
        let x = Mat::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let g = Mat::from_vec(1, 2, vec![1.0, 1.0]);
        l.backward(&x, &g);
        let after_one = l.grad_b.clone();
        l.backward(&x, &g);
        assert_eq!(l.grad_b[0], after_one[0] * 2.0);
        l.zero_grad();
        assert_eq!(l.grad_b, vec![0.0, 0.0]);
    }

    #[test]
    fn polyak_moves_towards_source() {
        let mut a = layer();
        let mut rng = StdRng::seed_from_u64(7);
        let b = Linear::new(3, 2, &mut rng);
        let before = a.w.get(0, 0);
        a.polyak_from(&b, 0.5);
        let expect = 0.5 * b.w.get(0, 0) + 0.5 * before;
        assert!((a.w.get(0, 0) - expect).abs() < 1e-7);
        // tau = 1 copies exactly.
        a.polyak_from(&b, 1.0);
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn param_visit_covers_all() {
        let mut l = layer();
        let mut count = 0;
        l.visit_params(&mut |p, g| {
            assert_eq!(p.len(), g.len());
            count += p.len();
        });
        assert_eq!(count, l.param_count());
        assert_eq!(count, 3 * 2 + 2);
    }

    #[test]
    fn init_is_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(Linear::new(4, 4, &mut r1), Linear::new(4, 4, &mut r2));
    }
}
