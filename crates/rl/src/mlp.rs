//! Dense multi-layer perceptron with exact analytic backpropagation.
//!
//! One execution path: one GEMM per layer ([`Mlp::forward_batch_into`],
//! [`Mlp::backward_batch_into`]) over a whole `[batch × dim]` minibatch
//! into preallocated [`BatchCache`] storage, the hot path of TD3 training,
//! and its single-row form [`Mlp::forward_into`], the per-PTA-step policy
//! inference. [`Mlp::backward_batch_partial_into`] skips the parameter
//! gradients and the input-gradient columns a caller discards;
//! [`Mlp::forward`] is an allocating wrapper over [`Mlp::forward_into`].
//! The per-sample scalar passes the kernels are property-tested against
//! live in the test-only `reference` module.

use crate::kernel::{self, ActScratch, BatchCache};
use rand::Rng;
use std::ops::Range;

#[cfg(test)]
mod reference;

/// Activation function applied between layers or at the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent (used by the TD3 actor output to bound actions).
    Tanh,
}

impl Activation {
    fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Linear => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
        }
    }

    /// Derivative expressed through the *post-activation* value `a = f(z)`,
    /// which is what the backward pass has cached.
    fn deriv_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
        }
    }
}

/// A dense MLP with ReLU hidden layers, a configurable output activation and
/// flat parameter storage (weights then bias per layer), which makes Adam
/// steps and Polyak target updates trivial.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    dims: Vec<usize>,
    output: Activation,
    params: Vec<f64>,
}

impl Mlp {
    /// Creates a network with layer widths `dims` (`[input, h1, …, output]`)
    /// and the given output activation, Xavier-initialized from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(dims: &[usize], output: Activation, rng: &mut impl Rng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let mut params = Vec::with_capacity(Self::count_params(dims));
        for l in 0..dims.len() - 1 {
            let (fan_in, fan_out) = (dims[l], dims[l + 1]);
            let scale = (6.0 / (fan_in + fan_out) as f64).sqrt();
            for _ in 0..fan_in * fan_out {
                params.push(rng.gen_range(-scale..scale));
            }
            params.extend(std::iter::repeat_n(0.0, fan_out));
        }
        Self {
            dims: dims.to_vec(),
            output,
            params,
        }
    }

    /// Creates a zero-initialized network (used when loading parameters
    /// from storage).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn zeroed(dims: &[usize], output: Activation) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        Self {
            dims: dims.to_vec(),
            output,
            params: vec![0.0; Self::count_params(dims)],
        }
    }

    fn count_params(dims: &[usize]) -> usize {
        dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// The layer widths (`[input, hidden…, output]`).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The output activation.
    pub fn output_activation(&self) -> Activation {
        self.output
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().expect("dims nonempty")
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Borrows the flat parameter vector.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Mutably borrows the flat parameter vector (used by the optimizer).
    pub fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    /// Polyak/soft update: `θ ← τ·θ_src + (1−τ)·θ`.
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different shapes.
    pub fn soft_update_from(&mut self, src: &Mlp, tau: f64) {
        assert_eq!(self.dims, src.dims, "shape mismatch in soft update");
        kernel::blend(&mut self.params, &src.params, tau);
    }

    /// Copies all parameters from `src` (hard target sync).
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different shapes.
    pub fn copy_from(&mut self, src: &Mlp) {
        assert_eq!(self.dims, src.dims, "shape mismatch in copy");
        self.params.copy_from_slice(&src.params);
    }

    /// Flat-parameter offset of layer `l`'s weight block (its bias block
    /// follows at `offset + fan_in·fan_out`). `O(L)` with no allocation —
    /// the networks here are three layers deep.
    fn layer_offset(&self, l: usize) -> usize {
        self.dims
            .windows(2)
            .take(l)
            .map(|w| w[0] * w[1] + w[1])
            .sum()
    }

    /// Zero-allocation single-sample forward pass into `out`, ping-ponging
    /// activations through `scratch`. Each layer is a one-row
    /// [`kernel::gemm_nt`] — literally the batched kernel with `m = 1` —
    /// so its result is bit-identical to the corresponding row of any
    /// batched pass (the property the frozen stepping-policy tests rely
    /// on), and single-row inference gets the same four-column register
    /// blocking as training.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`out` lengths disagree with the network shape or the
    /// scratch is narrower than the widest layer.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64], scratch: &mut ActScratch) {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        assert_eq!(out.len(), self.output_dim(), "output buffer mismatch");
        let widest = self.dims.iter().copied().max().unwrap_or(1);
        assert!(scratch.width() >= widest, "scratch narrower than network");
        let n_layers = self.dims.len() - 1;
        let ActScratch { a, b } = scratch;
        let (mut cur, mut nxt) = (&mut a[..], &mut b[..]);
        cur[..x.len()].copy_from_slice(x);
        let mut offset = 0;
        for l in 0..n_layers {
            let (fan_in, fan_out) = (self.dims[l], self.dims[l + 1]);
            let w = &self.params[offset..offset + fan_in * fan_out];
            let bias = &self.params[offset + fan_in * fan_out..offset + fan_in * fan_out + fan_out];
            offset += fan_in * fan_out + fan_out;
            let act = if l == n_layers - 1 {
                self.output
            } else {
                Activation::Relu
            };
            kernel::gemm_nt(&mut nxt[..fan_out], &cur[..fan_in], w, 1, fan_in, fan_out);
            for (z, &bi) in nxt[..fan_out].iter_mut().zip(bias) {
                *z = act.apply(*z + bi);
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        out.copy_from_slice(&cur[..self.output_dim()]);
    }

    /// Batched forward pass: `batch` row-major input rows in `x` flow
    /// through one [`kernel::gemm_nt`] per layer into `cache`'s
    /// preallocated activation slabs. Zero heap allocations. Retrieve the
    /// output rows with [`BatchCache::output`]; the cache then feeds
    /// [`Mlp::backward_batch_into`].
    ///
    /// # Panics
    ///
    /// Panics if the cache was shaped for different dims, `batch` exceeds
    /// its capacity, or `x` is shorter than `batch × input_dim`.
    pub fn forward_batch_into(&self, x: &[f64], batch: usize, cache: &mut BatchCache) {
        assert_eq!(cache.dims(), self.dims.as_slice(), "cache shape mismatch");
        assert!(batch <= cache.max_batch(), "batch exceeds cache capacity");
        assert!(
            x.len() >= batch * self.input_dim(),
            "input slab shorter than batch"
        );
        let n_layers = self.dims.len() - 1;
        let (acts, _, _) = cache.parts_mut();
        acts[0][..batch * self.dims[0]].copy_from_slice(&x[..batch * self.dims[0]]);
        let mut offset = 0;
        for l in 0..n_layers {
            let (fan_in, fan_out) = (self.dims[l], self.dims[l + 1]);
            let w = &self.params[offset..offset + fan_in * fan_out];
            let bias = &self.params[offset + fan_in * fan_out..offset + fan_in * fan_out + fan_out];
            offset += fan_in * fan_out + fan_out;
            let act = if l == n_layers - 1 {
                self.output
            } else {
                Activation::Relu
            };
            let (lo, hi) = acts.split_at_mut(l + 1);
            let prev = &lo[l][..batch * fan_in];
            let out = &mut hi[0];
            kernel::gemm_nt(out, prev, w, batch, fan_in, fan_out);
            for row in out[..batch * fan_out].chunks_exact_mut(fan_out) {
                for (z, &bi) in row.iter_mut().zip(bias) {
                    *z = act.apply(*z + bi);
                }
            }
        }
    }

    /// Batched backward pass over the activations a prior
    /// [`Mlp::forward_batch_into`] left in `cache`: given `batch` rows of
    /// `∂L/∂output` (row-major, summed over the batch: the gradients of
    /// one per-row backward pass each, added up), accumulates
    /// `∂L/∂θ` into `grads` and writes the `[batch × input_dim]` input
    /// gradients into `grad_input`. One [`kernel::gemm_tn_acc`] +
    /// [`kernel::gemm_nn`] pair per layer, zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch between the network, cache and buffers.
    pub fn backward_batch_into(
        &self,
        cache: &mut BatchCache,
        batch: usize,
        grad_output: &[f64],
        grads: &mut [f64],
        grad_input: &mut [f64],
    ) {
        self.backward_batch_partial_into(
            cache,
            batch,
            grad_output,
            Some(grads),
            grad_input,
            0..self.input_dim(),
        );
    }

    /// [`Mlp::backward_batch_into`] for callers that discard part of its
    /// output: parameter gradients are accumulated only when `grads` is
    /// `Some`, and only the input-gradient columns `input_cols` are
    /// written (the rest of `grad_input` is left untouched; an empty range
    /// skips the first layer's input-gradient GEMM). Whatever is computed
    /// carries exactly the bits the full pass gives it.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch between the network, cache and buffers,
    /// or if `input_cols` reaches past the input dimension.
    pub fn backward_batch_partial_into(
        &self,
        cache: &mut BatchCache,
        batch: usize,
        grad_output: &[f64],
        mut grads: Option<&mut [f64]>,
        grad_input: &mut [f64],
        input_cols: Range<usize>,
    ) {
        assert_eq!(cache.dims(), self.dims.as_slice(), "cache shape mismatch");
        assert!(batch <= cache.max_batch(), "batch exceeds cache capacity");
        if let Some(g) = &grads {
            assert_eq!(g.len(), self.num_params(), "gradient buffer mismatch");
        }
        assert!(
            grad_output.len() >= batch * self.output_dim(),
            "output gradient slab shorter than batch"
        );
        assert!(
            grad_input.len() >= batch * self.input_dim(),
            "input gradient slab shorter than batch"
        );
        assert!(
            input_cols.start <= input_cols.end && input_cols.end <= self.input_dim(),
            "input gradient columns outside the input"
        );
        let n_layers = self.dims.len() - 1;
        let (acts, delta_a, delta_b) = cache.parts_mut();
        let (mut g, mut g_next) = (&mut delta_a[..], &mut delta_b[..]);
        g[..batch * self.output_dim()]
            .copy_from_slice(&grad_output[..batch * self.output_dim()]);
        for l in (0..n_layers).rev() {
            let (fan_in, fan_out) = (self.dims[l], self.dims[l + 1]);
            let act = if l == n_layers - 1 {
                self.output
            } else {
                Activation::Relu
            };
            let a_out = &acts[l + 1][..batch * fan_out];
            let a_in = &acts[l][..batch * fan_in];
            // δ = g ⊙ f'(z), in place, with f' recovered from the output.
            for (gi, ai) in g[..batch * fan_out].iter_mut().zip(a_out) {
                *gi *= act.deriv_from_output(*ai);
            }
            let delta = &g[..batch * fan_out];
            let w_off = self.layer_offset(l);
            let b_off = w_off + fan_in * fan_out;
            if let Some(grads) = grads.as_deref_mut() {
                // Weight gradients: Gw += δᵀ · A_in.
                kernel::gemm_tn_acc(
                    &mut grads[w_off..b_off],
                    delta,
                    a_in,
                    batch,
                    fan_out,
                    fan_in,
                );
                // Bias gradients: column sums of δ.
                for row in delta.chunks_exact(fan_out) {
                    for (gb, di) in grads[b_off..b_off + fan_out].iter_mut().zip(row) {
                        *gb += di;
                    }
                }
            }
            // Propagate: G_prev = δ · W.
            let w = &self.params[w_off..b_off];
            if l == 0 {
                let cols = input_cols.clone();
                kernel::gemm_nn_cols(grad_input, delta, w, batch, fan_out, fan_in, cols);
            } else {
                kernel::gemm_nn(g_next, delta, w, batch, fan_out, fan_in);
                std::mem::swap(&mut g, &mut g_next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    /// One forward pass through a fresh scratch.
    fn forward(m: &Mlp, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m.output_dim()];
        m.forward_into(x, &mut out, &mut ActScratch::for_mlp(m));
        out
    }

    #[test]
    fn shapes_and_param_count() {
        let m = Mlp::new(&[3, 8, 2], Activation::Tanh, &mut rng());
        assert_eq!(m.input_dim(), 3);
        assert_eq!(m.output_dim(), 2);
        assert_eq!(m.num_params(), 3 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(forward(&m, &[0.0, 0.0, 0.0]).len(), 2);
    }

    #[test]
    fn tanh_output_is_bounded() {
        let m = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng());
        for x in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let y = forward(&m, &[x, -x])[0];
            assert!((-1.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let m = Mlp::new(&[4, 8, 3], Activation::Linear, &mut rng());
        let x = [0.3, -0.2, 0.9, 0.0];
        assert_eq!(forward(&m, &x), forward(&m, &x));
    }

    #[test]
    fn soft_update_interpolates() {
        let a = Mlp::new(&[2, 4, 1], Activation::Linear, &mut rng());
        let mut b = a.clone();
        let mut src = a.clone();
        for p in src.params_mut() {
            *p += 1.0;
        }
        b.soft_update_from(&src, 0.25);
        for ((pa, pb), ps) in a.params().iter().zip(b.params()).zip(src.params()) {
            let expect = 0.25 * ps + 0.75 * pa;
            assert!((pb - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn copy_from_syncs_exactly() {
        let a = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut rng());
        let mut b = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut StdRng::seed_from_u64(99));
        b.copy_from(&a);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_validates_input() {
        let m = Mlp::new(&[3, 2], Activation::Linear, &mut rng());
        let _ = forward(&m, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn soft_update_validates_shape() {
        let mut a = Mlp::new(&[2, 2], Activation::Linear, &mut rng());
        let b = Mlp::new(&[3, 2], Activation::Linear, &mut rng());
        a.soft_update_from(&b, 0.5);
    }

    #[test]
    fn forward_into_is_bitwise_a_batched_row() {
        let m = Mlp::new(&[5, 8, 2], Activation::Linear, &mut rng());
        let batch = 6;
        let x: Vec<f64> = (0..batch * m.input_dim())
            .map(|i| ((i * 29 % 23) as f64 - 11.0) / 7.0)
            .collect();
        let mut cache = BatchCache::for_mlp(&m, batch);
        m.forward_batch_into(&x, batch, &mut cache);
        let mut scratch = ActScratch::for_mlp(&m);
        let mut out = vec![0.0; m.output_dim()];
        for (r, row) in cache.output(batch).chunks_exact(m.output_dim()).enumerate() {
            m.forward_into(&x[r * 5..(r + 1) * 5], &mut out, &mut scratch);
            assert_eq!(out.as_slice(), row, "row {r} not bit-identical");
        }
    }

    #[test]
    #[should_panic(expected = "cache shape mismatch")]
    fn batched_forward_validates_cache_shape() {
        let m = Mlp::new(&[3, 2], Activation::Linear, &mut rng());
        let mut cache = BatchCache::for_dims(&[4, 2], 2);
        m.forward_batch_into(&[0.0; 6], 2, &mut cache);
    }

    #[test]
    fn relu_hidden_layers_clip_negatives() {
        // A single hidden unit with forced negative pre-activation outputs 0.
        let mut m = Mlp::new(&[1, 1, 1], Activation::Linear, &mut rng());
        // layer0: w=1, b=-10 → z = x − 10 < 0 → relu = 0; layer1: w=5, b=3.
        let p = m.params_mut();
        p[0] = 1.0;
        p[1] = -10.0;
        p[2] = 5.0;
        p[3] = 3.0;
        assert_eq!(forward(&m, &[1.0])[0], 3.0);
    }
}
