//! Progressive neural network (PNN) policy: a frozen base column plus a
//! trainable second column with lateral connections.
//!
//! Following Rusu et al. (2016) and Section VI-B of the paper, the first
//! column is the original driving policy and stays frozen; the second column
//! receives, at each layer `i >= 1`, a lateral projection of the base
//! column's hidden activation `h1_{i-1}` in addition to its own `h2_{i-1}`:
//!
//! ```text
//! h2_i = f( W2_i h2_{i-1} + U_i h1_{i-1} + b_i )
//! ```
//!
//! With the laterals zero-initialized and the column weights copied from the
//! base, the PNN starts out *exactly* equivalent to the base policy and only
//! then adapts to adversarial experience — the property that defeats
//! catastrophic forgetting.

use crate::gaussian::{
    act_head, head_backward, randn_mat, sample_head, GaussianPolicy, HeadSample,
};
use crate::linear::Linear;
use crate::mat::Mat;
use crate::mlp::MlpCache;
use crate::scratch::{ActScratch, Scratch};
use rand::Rng;

/// How to initialize the second column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PnnInit {
    /// Copy the base column's weights and zero the laterals: the PNN starts
    /// as an exact functional copy of the base policy.
    CopyBase,
    /// Fresh random column and laterals.
    Random,
}

/// Two-column progressive policy with a tanh-Gaussian head on column 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PnnPolicy {
    base: GaussianPolicy,
    column: Vec<Linear>,
    laterals: Vec<Linear>,
    action_dim: usize,
}

/// Forward intermediates of a PNN pass.
#[derive(Debug, Clone)]
pub struct PnnCache {
    input: Mat,
    base: MlpCache,
    post2: Vec<Mat>,
}

impl PnnCache {
    /// Raw column-2 output `(mean | log_std)`.
    pub fn output(&self) -> &Mat {
        self.post2.last().expect("column is non-empty")
    }
}

/// Sample cache pairing the forward intermediates with the head sample.
#[derive(Debug, Clone)]
pub struct PnnSampleCache {
    forward: PnnCache,
    /// The head sample (actions, log-probs, intermediates).
    pub head: HeadSample,
}

impl PnnSampleCache {
    /// Sampled actions.
    pub fn actions(&self) -> &Mat {
        &self.head.actions
    }

    /// Per-sample log-probabilities.
    pub fn log_prob(&self) -> &[f32] {
        &self.head.log_prob
    }
}

impl PnnPolicy {
    /// Wraps a frozen base policy with a new trainable column.
    pub fn new<R: Rng>(base: GaussianPolicy, init: PnnInit, rng: &mut R) -> Self {
        let action_dim = base.action_dim();
        let layers = base.trunk().layers();
        let column: Vec<Linear> = match init {
            PnnInit::CopyBase => layers.to_vec(),
            PnnInit::Random => layers
                .iter()
                .map(|l| Linear::new(l.in_dim(), l.out_dim(), rng))
                .collect(),
        };
        let mut laterals: Vec<Linear> = layers
            .windows(2)
            .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
            .collect();
        if init == PnnInit::CopyBase {
            for lat in &mut laterals {
                lat.w.map_inplace(|_| 0.0);
                lat.b.iter_mut().for_each(|b| *b = 0.0);
            }
        }
        PnnPolicy {
            base,
            column,
            laterals,
            action_dim,
        }
    }

    /// The frozen base policy (column 1).
    pub fn base(&self) -> &GaussianPolicy {
        &self.base
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.base.obs_dim()
    }

    /// Action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Forward pass through both columns, caching intermediates.
    pub fn forward_cached(&self, obs: &Mat) -> PnnCache {
        let base = self.base.trunk().forward_cached(obs);
        let n = self.column.len();
        let mut post2 = Vec::with_capacity(n);
        let mut h = obs.clone();
        for i in 0..n {
            let mut z = self.column[i].forward(&h);
            if i >= 1 {
                z.add_assign(&self.laterals[i - 1].forward(&base.hidden()[i - 1]));
            }
            let act = self.base.trunk().activation(i);
            h = act.forward(&z);
            post2.push(h.clone());
        }
        PnnCache {
            input: obs.clone(),
            base,
            post2,
        }
    }

    /// Raw column-2 output without caching.
    pub fn forward(&self, obs: &Mat) -> Mat {
        let mut cache = self.forward_cached(obs);
        cache.post2.pop().expect("column is non-empty")
    }

    /// Deterministic action `tanh(mean)`.
    pub fn mean_action(&self, obs: &Mat) -> Mat {
        let raw = self.forward_cached(obs);
        let (mut mean, _) = raw.output().split_cols(self.action_dim);
        mean.map_inplace(f32::tanh);
        mean
    }

    /// Samples actions with reparameterization.
    pub fn sample<R: Rng>(&self, obs: &Mat, rng: &mut R) -> PnnSampleCache {
        let noise = randn_mat(obs.rows(), self.action_dim, rng);
        self.sample_with_noise(obs, noise)
    }

    /// Samples with caller-provided noise.
    pub fn sample_with_noise(&self, obs: &Mat, noise: Mat) -> PnnSampleCache {
        let forward = self.forward_cached(obs);
        let head = sample_head(forward.output(), self.action_dim, noise);
        PnnSampleCache { forward, head }
    }

    /// Backpropagates action / log-prob gradients into the **trainable**
    /// parameters (column 2 and laterals). The base column is frozen: no
    /// gradients are accumulated there.
    pub fn backward_sample(
        &mut self,
        cache: &PnnSampleCache,
        grad_action: &Mat,
        grad_logp: &[f32],
    ) {
        let grad_raw = head_backward(&cache.head, grad_action, grad_logp);
        self.backward_raw(&cache.forward, &grad_raw);
    }

    /// Backpropagates a gradient on the raw column-2 output.
    pub fn backward_raw(&mut self, cache: &PnnCache, grad_out: &Mat) {
        let n = self.column.len();
        assert_eq!(cache.post2.len(), n, "cache/column depth mismatch");
        let mut g = grad_out.clone();
        for i in (0..n).rev() {
            let act = self.base.trunk().activation(i);
            g = act.backward(&cache.post2[i], &g);
            if i >= 1 {
                // Lateral branch: gradient into the adapter parameters; the
                // base column is frozen so its own gradient is discarded.
                let _ = self.laterals[i - 1].backward(&cache.base.hidden()[i - 1], &g);
            }
            let input = if i == 0 {
                &cache.input
            } else {
                &cache.post2[i - 1]
            };
            g = self.column[i].backward(input, &g);
        }
    }

    /// Clears gradients of all trainable parameters.
    pub fn zero_grad(&mut self) {
        for l in &mut self.column {
            l.zero_grad();
        }
        for l in &mut self.laterals {
            l.zero_grad();
        }
    }

    /// Visits trainable `(params, grads)` slices (column 2, then laterals).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for l in &mut self.column {
            l.visit_params(f);
        }
        for l in &mut self.laterals {
            l.visit_params(f);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.column.iter().map(Linear::param_count).sum::<usize>()
            + self.laterals.iter().map(Linear::param_count).sum::<usize>()
    }

    /// The trainable parts `(column, laterals)` — used by checkpointing.
    pub fn parts(&self) -> (&[Linear], &[Linear]) {
        (&self.column, &self.laterals)
    }

    /// Replaces the trainable parts wholesale (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape mismatch.
    pub fn set_parts(&mut self, column: Vec<Linear>, laterals: Vec<Linear>) -> Result<(), String> {
        if column.len() != self.column.len() {
            return Err(format!(
                "column depth {} != expected {}",
                column.len(),
                self.column.len()
            ));
        }
        if laterals.len() != self.laterals.len() {
            return Err(format!(
                "lateral count {} != expected {}",
                laterals.len(),
                self.laterals.len()
            ));
        }
        for (i, (new, old)) in column.iter().zip(&self.column).enumerate() {
            if new.in_dim() != old.in_dim() || new.out_dim() != old.out_dim() {
                return Err(format!("column layer {i} shape mismatch"));
            }
        }
        for (i, (new, old)) in laterals.iter().zip(&self.laterals).enumerate() {
            if new.in_dim() != old.in_dim() || new.out_dim() != old.out_dim() {
                return Err(format!("lateral {i} shape mismatch"));
            }
        }
        self.column = column;
        self.laterals = laterals;
        Ok(())
    }

    /// Convenience: act on a single observation through column 2.
    ///
    /// With `deterministic`, returns `tanh(mean)`; otherwise a sample.
    pub fn act<R: Rng>(&self, obs: &[f32], rng: &mut R, deterministic: bool) -> Vec<f32> {
        let mut s = ActScratch::default();
        self.act_with(obs, rng, deterministic, &mut s);
        s.action
    }

    /// Allocation-free [`PnnPolicy::act`]: runs both columns through the
    /// scratch's reusable buffers and returns a slice of the action held
    /// by the scratch. Actions are bit-identical to [`PnnPolicy::mean_action`]
    /// (deterministic) or [`PnnPolicy::sample`] (stochastic, same RNG
    /// draws), and the head step is the one `GaussianPolicy::act_with`
    /// uses.
    pub fn act_with<'s, R: Rng>(
        &self,
        obs: &[f32],
        rng: &mut R,
        deterministic: bool,
        s: &'s mut ActScratch,
    ) -> &'s [f32] {
        let ActScratch {
            obs: x,
            trunk,
            column,
            lateral,
            action,
        } = s;
        x.copy_from_row(obs);
        let raw = self.forward_with(x, trunk, column, lateral);
        act_head(raw.row(0), self.action_dim, rng, deterministic, action);
        action
    }

    /// Raw column-2 output through reusable buffers, bit-identical to
    /// [`PnnPolicy::forward_cached`]'s: the base column runs layer by layer
    /// through `base` on the sanitized input (as `Mlp::forward_cached`
    /// does) one layer behind column 2, which reads `x` as given and adds
    /// each lateral projection of the previous base activation via
    /// `lateral`. Returns a reference into `column`.
    fn forward_with<'s>(
        &self,
        x: &Mat,
        base: &mut Scratch,
        column: &'s mut Scratch,
        lateral: &mut Mat,
    ) -> &'s Mat {
        let trunk = self.base.trunk();
        let Scratch {
            a: base_a,
            b: base_b,
        } = base;
        let Scratch { a: col_a, b: col_b } = column;
        base_a.copy_from(x);
        base_a.sanitize_nonfinite();
        let n = self.column.len();
        // `base_in_a` / `col_in_a` track where each column's most recent
        // output landed (column 2 has none before layer 0).
        let (mut base_in_a, mut col_in_a) = (true, false);
        for i in 0..n {
            let act = trunk.activation(i);
            let (base_prev, base_next) = if base_in_a {
                (&*base_a, &mut *base_b)
            } else {
                (&*base_b, &mut *base_a)
            };
            let (col_prev, col_next) = if col_in_a {
                (&*col_a, &mut *col_b)
            } else {
                (&*col_b, &mut *col_a)
            };
            self.column[i].forward_into(if i == 0 { x } else { col_prev }, col_next);
            if i >= 1 {
                self.laterals[i - 1].forward_into(base_prev, lateral);
                col_next.add_assign(lateral);
            }
            act.apply_inplace(col_next);
            col_in_a = !col_in_a;
            if i + 1 < n {
                trunk.layers()[i].forward_into(base_prev, base_next);
                act.apply_inplace(base_next);
                base_in_a = !base_in_a;
            }
        }
        if col_in_a {
            col_a
        } else {
            col_b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base() -> GaussianPolicy {
        let mut rng = StdRng::seed_from_u64(21);
        GaussianPolicy::new(5, &[12, 12], 2, &mut rng)
    }

    #[test]
    fn copy_base_init_is_functionally_identical() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(1);
        let pnn = PnnPolicy::new(b.clone(), PnnInit::CopyBase, &mut rng);
        let obs = Mat::from_vec(3, 5, (0..15).map(|i| (i as f32) * 0.1 - 0.7).collect());
        assert_eq!(pnn.mean_action(&obs), b.mean_action(&obs));
        // Same noise → same sample.
        let noise = randn_mat(3, 2, &mut rng);
        let s1 = pnn.sample_with_noise(&obs, noise.clone());
        let s2 = b.sample_with_noise(&obs, noise);
        assert_eq!(s1.actions(), s2.actions());
        assert_eq!(s1.log_prob(), s2.log_prob());
    }

    #[test]
    fn random_init_differs_from_base() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(2);
        let pnn = PnnPolicy::new(b.clone(), PnnInit::Random, &mut rng);
        let obs = Mat::from_vec(1, 5, vec![0.1; 5]);
        assert_ne!(pnn.mean_action(&obs), b.mean_action(&obs));
    }

    #[test]
    fn training_column_leaves_base_untouched() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pnn = PnnPolicy::new(b.clone(), PnnInit::CopyBase, &mut rng);
        let obs = Mat::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.07).sin()).collect());
        // A few gradient steps pushing actions toward +1.
        let mut adam = crate::adam::Adam::with_lr(0.01);
        for _ in 0..20 {
            let noise = randn_mat(4, 2, &mut rng);
            let s = pnn.sample_with_noise(&obs, noise);
            let mut ga = Mat::zeros(4, 2);
            for b_ in 0..4 {
                for i in 0..2 {
                    ga.set(b_, i, s.actions().get(b_, i) - 1.0);
                }
            }
            pnn.zero_grad();
            pnn.backward_sample(&s, &ga, &[0.0; 4]);
            adam.step(|f| pnn.visit_params(f));
        }
        // Base column weights unchanged.
        let b_obs = Mat::from_row(&[0.2, 0.1, -0.3, 0.4, 0.0]);
        assert_eq!(pnn.base().mean_action(&b_obs), b.mean_action(&b_obs));
        // Column 2 has moved.
        assert_ne!(pnn.mean_action(&b_obs), b.mean_action(&b_obs));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let b = base();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pnn = PnnPolicy::new(b, PnnInit::Random, &mut rng);
        let obs = Mat::from_vec(2, 5, (0..10).map(|i| (i as f32 * 0.3).cos()).collect());
        // Loss = sum of raw outputs.
        let cache = pnn.forward_cached(&obs);
        let grad_out = Mat::from_vec(2, 4, vec![1.0; 8]);
        pnn.zero_grad();
        pnn.backward_raw(&cache, &grad_out);

        let loss = |p: &PnnPolicy| p.forward_cached(&obs).output().data().iter().sum::<f32>();
        let eps = 1e-2f32;
        // Column weight check.
        for layer_idx in [0usize, 2] {
            let mut pp = pnn.clone();
            let v = pp.column[layer_idx].w.get(0, 0);
            pp.column[layer_idx].w.set(0, 0, v + eps);
            let up = loss(&pp);
            pp.column[layer_idx].w.set(0, 0, v - eps);
            let down = loss(&pp);
            let fd = (up - down) / (2.0 * eps);
            let got = pnn.column[layer_idx].grad_w.get(0, 0);
            assert!(
                (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
                "column[{layer_idx}] fd {fd} vs {got}"
            );
        }
        // Lateral weight check.
        for lat_idx in [0usize, 1] {
            let mut pp = pnn.clone();
            let v = pp.laterals[lat_idx].w.get(0, 0);
            pp.laterals[lat_idx].w.set(0, 0, v + eps);
            let up = loss(&pp);
            pp.laterals[lat_idx].w.set(0, 0, v - eps);
            let down = loss(&pp);
            let fd = (up - down) / (2.0 * eps);
            let got = pnn.laterals[lat_idx].grad_w.get(0, 0);
            assert!(
                (fd - got).abs() < 0.05 * (1.0 + fd.abs()),
                "lateral[{lat_idx}] fd {fd} vs {got}"
            );
        }
    }

    #[test]
    fn visit_params_excludes_base() {
        let b = base();
        let base_params = b.trunk().param_count();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pnn = PnnPolicy::new(b, PnnInit::CopyBase, &mut rng);
        let mut count = 0;
        pnn.visit_params(&mut |p, _| count += p.len());
        assert_eq!(count, pnn.param_count());
        // Trainable = column (same size as base) + laterals (12*12 + 12 + 12*4 + 4).
        let lateral_params = 12 * 12 + 12 + 12 * 4 + 4;
        assert_eq!(count, base_params + lateral_params);
    }

    /// The allocation-free `act_with` must reproduce the cached forward
    /// pass bit for bit — deterministic `tanh(mean)` and sampled actions
    /// with the same RNG draws — across scratch reuse, with laterals
    /// active (random init) and a non-finite observation entry, which the
    /// base column sanitizes and column 2 reads as given.
    #[test]
    fn act_with_matches_cached_forward_and_rng_stream() {
        let mut rng = StdRng::seed_from_u64(7);
        let pnn = PnnPolicy::new(base(), PnnInit::Random, &mut rng);
        let mut s = ActScratch::default();
        for deterministic in [true, false] {
            let mut r1 = StdRng::seed_from_u64(12);
            let mut r2 = StdRng::seed_from_u64(12);
            for step in 0..5 {
                let mut obs: Vec<f32> = (0..5)
                    .map(|i| ((step * 5 + i) as f32 * 0.41).sin())
                    .collect();
                if step == 3 {
                    obs[1] = f32::INFINITY;
                }
                let m = Mat::from_row(&obs);
                let want = if deterministic {
                    pnn.mean_action(&m).row(0).to_vec()
                } else {
                    pnn.sample(&m, &mut r1).head.actions.row(0).to_vec()
                };
                let got = pnn.act_with(&obs, &mut r2, deterministic, &mut s);
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
                assert!(same, "step {step} det={deterministic}: {got:?} vs {want:?}");
            }
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }

    #[test]
    fn act_is_bounded() {
        let mut rng = StdRng::seed_from_u64(6);
        let pnn = PnnPolicy::new(base(), PnnInit::Random, &mut rng);
        for _ in 0..10 {
            let a = pnn.act(&[0.5; 5], &mut rng, false);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }
}
