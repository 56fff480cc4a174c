//! The per-sample scalar MLP passes: the ground truth the batched GEMM
//! kernels ([`Mlp::forward_batch_into`], [`Mlp::backward_batch_into`],
//! [`Mlp::forward_into`]) are property-tested against. Test-only: no
//! production path runs them.

use super::{Activation, Mlp};

/// Forward-pass cache needed by [`backward`]: the input and every layer's
/// post-activation output.
#[derive(Debug, Clone)]
pub(crate) struct ForwardCache {
    activations: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output this cache was produced with.
    pub(crate) fn output(&self) -> &[f64] {
        self.activations
            .last()
            .expect("cache has at least the input")
    }
}

/// Scalar forward pass.
pub(crate) fn forward(m: &Mlp, x: &[f64]) -> Vec<f64> {
    forward_cached(m, x).output().to_vec()
}

/// Scalar forward pass that retains per-layer activations for
/// [`backward`].
pub(crate) fn forward_cached(m: &Mlp, x: &[f64]) -> ForwardCache {
    assert_eq!(x.len(), m.input_dim(), "input dimension mismatch");
    let n_layers = m.dims.len() - 1;
    let mut activations = Vec::with_capacity(n_layers + 1);
    activations.push(x.to_vec());
    let mut offset = 0;
    for l in 0..n_layers {
        let (fan_in, fan_out) = (m.dims[l], m.dims[l + 1]);
        let w = &m.params[offset..offset + fan_in * fan_out];
        let b = &m.params[offset + fan_in * fan_out..offset + fan_in * fan_out + fan_out];
        offset += fan_in * fan_out + fan_out;
        let act = if l == n_layers - 1 {
            m.output
        } else {
            Activation::Relu
        };
        let prev = &activations[l];
        let mut out = Vec::with_capacity(fan_out);
        for i in 0..fan_out {
            let mut z = b[i];
            let row = &w[i * fan_in..(i + 1) * fan_in];
            for (wij, aj) in row.iter().zip(prev) {
                z += wij * aj;
            }
            out.push(act.apply(z));
        }
        activations.push(out);
    }
    ForwardCache { activations }
}

/// Scalar backward pass: given `∂L/∂output`, accumulates `∂L/∂θ` into
/// `grads` (same layout/length as [`Mlp::params`]) and returns
/// `∂L/∂input`.
pub(crate) fn backward(
    m: &Mlp,
    cache: &ForwardCache,
    grad_output: &[f64],
    grads: &mut [f64],
) -> Vec<f64> {
    assert_eq!(grads.len(), m.num_params(), "gradient buffer mismatch");
    assert_eq!(
        grad_output.len(),
        m.output_dim(),
        "output gradient mismatch"
    );
    let n_layers = m.dims.len() - 1;

    // Layer parameter offsets.
    let mut offsets = Vec::with_capacity(n_layers);
    let mut off = 0;
    for l in 0..n_layers {
        offsets.push(off);
        off += m.dims[l] * m.dims[l + 1] + m.dims[l + 1];
    }

    let mut g = grad_output.to_vec();
    for l in (0..n_layers).rev() {
        let (fan_in, fan_out) = (m.dims[l], m.dims[l + 1]);
        let act = if l == n_layers - 1 {
            m.output
        } else {
            Activation::Relu
        };
        let a_out = &cache.activations[l + 1];
        let a_in = &cache.activations[l];
        // δ = g ⊙ f'(z), with f' recovered from the cached output.
        let delta: Vec<f64> = g
            .iter()
            .zip(a_out)
            .map(|(gi, ai)| gi * act.deriv_from_output(*ai))
            .collect();
        let w_off = offsets[l];
        let b_off = w_off + fan_in * fan_out;
        for i in 0..fan_out {
            let di = delta[i];
            if di != 0.0 {
                let row = &mut grads[w_off + i * fan_in..w_off + (i + 1) * fan_in];
                for (gw, aj) in row.iter_mut().zip(a_in) {
                    *gw += di * aj;
                }
            }
            grads[b_off + i] += di;
        }
        // Propagate to the previous layer: g_prev[j] = Σ_i W[i,j]·δ[i].
        let w = &m.params[w_off..w_off + fan_in * fan_out];
        let mut g_prev = vec![0.0; fan_in];
        for i in 0..fan_out {
            let di = delta[i];
            if di != 0.0 {
                let row = &w[i * fan_in..(i + 1) * fan_in];
                for (j, wij) in row.iter().enumerate() {
                    g_prev[j] += wij * di;
                }
            }
        }
        g = g_prev;
    }
    g
}

mod tests {
    use super::*;
    use crate::BatchCache;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn gradient_check_parameters() {
        // Analytic ∂L/∂θ vs central finite differences, L = Σ output².
        let mut m = Mlp::new(&[3, 6, 5, 2], Activation::Tanh, &mut rng());
        let x = [0.5, -0.3, 0.8];
        let loss = |m: &Mlp| -> f64 { forward(m, &x).iter().map(|v| v * v).sum() };

        let cache = forward_cached(&m, &x);
        let grad_out: Vec<f64> = cache.output().iter().map(|v| 2.0 * v).collect();
        let mut grads = vec![0.0; m.num_params()];
        backward(&m, &cache, &grad_out, &mut grads);

        let h = 1e-6;
        for k in (0..m.num_params()).step_by(7) {
            let orig = m.params()[k];
            m.params_mut()[k] = orig + h;
            let lp = loss(&m);
            m.params_mut()[k] = orig - h;
            let lm = loss(&m);
            m.params_mut()[k] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - grads[k]).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {k}: fd {fd} vs analytic {}",
                grads[k]
            );
        }
    }

    #[test]
    fn gradient_check_inputs() {
        // ∂L/∂x via backward's return value.
        let m = Mlp::new(&[4, 8, 1], Activation::Linear, &mut rng());
        let x = [0.1, 0.7, -0.4, 0.2];
        let cache = forward_cached(&m, &x);
        let mut grads = vec![0.0; m.num_params()];
        let gx = backward(&m, &cache, &[1.0], &mut grads);

        let h = 1e-6;
        for k in 0..x.len() {
            let mut xp = x;
            xp[k] += h;
            let mut xm = x;
            xm[k] -= h;
            let fd = (forward(&m, &xp)[0] - forward(&m, &xm)[0]) / (2.0 * h);
            assert!(
                (fd - gx[k]).abs() < 1e-6 * (1.0 + fd.abs()),
                "input {k}: {fd} vs {}",
                gx[k]
            );
        }
    }

    fn batch_inputs(m: &Mlp, batch: usize) -> Vec<f64> {
        (0..batch * m.input_dim())
            .map(|i| ((i * 29 % 23) as f64 - 11.0) / 7.0)
            .collect()
    }

    #[test]
    fn batched_forward_matches_scalar_reference() {
        let m = Mlp::new(&[4, 9, 6, 3], Activation::Tanh, &mut rng());
        let batch = 17;
        let x = batch_inputs(&m, batch);
        let mut cache = BatchCache::for_mlp(&m, batch);
        m.forward_batch_into(&x, batch, &mut cache);
        for (r, row) in cache.output(batch).chunks_exact(m.output_dim()).enumerate() {
            let scalar = forward(&m, &x[r * 4..(r + 1) * 4]);
            for (a, b) in row.iter().zip(&scalar) {
                assert!(
                    (a - b).abs() < 1e-12 * (1.0 + b.abs()),
                    "row {r}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn batched_backward_matches_scalar_reference() {
        let m = Mlp::new(&[3, 7, 4, 2], Activation::Tanh, &mut rng());
        let batch = 11;
        let x = batch_inputs(&m, batch);
        // Scalar reference: accumulate per-row backward passes.
        let mut ref_grads = vec![0.0; m.num_params()];
        let mut ref_gx = Vec::new();
        for r in 0..batch {
            let cache = forward_cached(&m, &x[r * 3..(r + 1) * 3]);
            let go: Vec<f64> = cache.output().iter().map(|v| 0.3 - v).collect();
            ref_gx.extend(backward(&m, &cache, &go, &mut ref_grads));
        }
        // Batched pass with the same per-row output gradients.
        let mut cache = BatchCache::for_mlp(&m, batch);
        m.forward_batch_into(&x, batch, &mut cache);
        let go: Vec<f64> = cache.output(batch).iter().map(|v| 0.3 - v).collect();
        let mut grads = vec![0.0; m.num_params()];
        let mut gx = vec![0.0; batch * m.input_dim()];
        m.backward_batch_into(&mut cache, batch, &go, &mut grads, &mut gx);
        for (k, (a, b)) in grads.iter().zip(&ref_grads).enumerate() {
            assert!(
                (a - b).abs() < 1e-12 * (1.0 + b.abs()),
                "grad {k}: {a} vs {b}"
            );
        }
        for (k, (a, b)) in gx.iter().zip(&ref_gx).enumerate() {
            assert!(
                (a - b).abs() < 1e-12 * (1.0 + b.abs()),
                "gx {k}: {a} vs {b}"
            );
        }
    }

    /// Deterministic pseudo-random inputs spread across `[-2, 2]`.
    fn inputs(count: usize, salt: u64) -> Vec<f64> {
        (0..count)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(salt * 97) % 1009) as f64
                    / 1009.0)
                    * 4.0
                    - 2.0
            })
            .collect()
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    proptest! {
        /// Batched forward rows equal the scalar forward on every row, for
        /// random depths, widths, batch sizes and output activations.
        #[test]
        fn batched_forward_matches_scalar(
            seed in 0u64..500,
            in_dim in 1usize..6,
            h1 in 1usize..12,
            h2 in 1usize..12,
            out_dim in 1usize..4,
            batch in 1usize..40,
            tanh_out in any::<bool>(),
        ) {
            let act = if tanh_out { Activation::Tanh } else { Activation::Linear };
            let m = Mlp::new(&[in_dim, h1, h2, out_dim], act, &mut StdRng::seed_from_u64(seed));
            let x = inputs(batch * in_dim, seed);
            let mut cache = BatchCache::for_mlp(&m, batch);
            m.forward_batch_into(&x, batch, &mut cache);
            for (r, row) in cache.output(batch).chunks_exact(out_dim).enumerate() {
                let scalar = forward(&m, &x[r * in_dim..(r + 1) * in_dim]);
                for (d, (a, b)) in row.iter().zip(&scalar).enumerate() {
                    prop_assert!(rel_close(*a, *b), "row {r} dim {d}: {a} vs {b}");
                }
            }
        }

        /// Batched backward accumulates the same parameter and input
        /// gradients as running the scalar backward once per row.
        #[test]
        fn batched_backward_matches_scalar(
            seed in 0u64..500,
            in_dim in 1usize..5,
            hidden in 1usize..10,
            out_dim in 1usize..4,
            batch in 1usize..24,
        ) {
            let m = Mlp::new(&[in_dim, hidden, out_dim], Activation::Tanh, &mut StdRng::seed_from_u64(seed));
            let x = inputs(batch * in_dim, seed);
            let go = inputs(batch * out_dim, seed.wrapping_add(31));

            let mut ref_grads = vec![0.0; m.num_params()];
            let mut ref_gx = Vec::new();
            for r in 0..batch {
                let cache = forward_cached(&m, &x[r * in_dim..(r + 1) * in_dim]);
                ref_gx.extend(backward(&m, &cache, &go[r * out_dim..(r + 1) * out_dim], &mut ref_grads));
            }

            let mut cache = BatchCache::for_mlp(&m, batch);
            m.forward_batch_into(&x, batch, &mut cache);
            let mut grads = vec![0.0; m.num_params()];
            let mut gx = vec![0.0; batch * in_dim];
            m.backward_batch_into(&mut cache, batch, &go, &mut grads, &mut gx);

            for (k, (a, b)) in grads.iter().zip(&ref_grads).enumerate() {
                prop_assert!(rel_close(*a, *b), "grad {k}: {a} vs {b}");
            }
            for (k, (a, b)) in gx.iter().zip(&ref_gx).enumerate() {
                prop_assert!(rel_close(*a, *b), "input grad {k}: {a} vs {b}");
            }
        }

        /// Parameter gradients match central finite differences for random
        /// shapes, inputs and output activations.
        #[test]
        fn mlp_gradient_check(
            seed in 0u64..1000,
            in_dim in 1usize..5,
            hidden in 1usize..10,
            out_dim in 1usize..4,
            tanh_out in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let act = if tanh_out { Activation::Tanh } else { Activation::Linear };
            let mut m = Mlp::new(&[in_dim, hidden, out_dim], act, &mut rng);
            let x: Vec<f64> = (0..in_dim).map(|i| (i as f64 * 0.37 + seed as f64 * 0.01).sin()).collect();
            let cache = forward_cached(&m, &x);
            let grad_out: Vec<f64> = cache.output().iter().map(|v| 2.0 * v).collect();
            let mut grads = vec![0.0; m.num_params()];
            backward(&m, &cache, &grad_out, &mut grads);
            let loss = |m: &Mlp| -> f64 { forward(m, &x).iter().map(|v| v * v).sum() };
            let h = 1e-6;
            // Check a subset of parameters for speed.
            let stride = (m.num_params() / 10).max(1);
            for k in (0..m.num_params()).step_by(stride) {
                let orig = m.params()[k];
                m.params_mut()[k] = orig + h;
                let lp = loss(&m);
                m.params_mut()[k] = orig - h;
                let lm = loss(&m);
                m.params_mut()[k] = orig;
                let fd = (lp - lm) / (2.0 * h);
                prop_assert!(
                    (fd - grads[k]).abs() < 1e-4 * (1.0 + fd.abs()),
                    "param {k}: fd {fd} vs {}", grads[k]
                );
            }
        }
    }
}
