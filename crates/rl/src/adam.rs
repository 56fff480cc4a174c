//! Adam optimizer over flat parameter vectors.

/// Adam (Kingma & Ba, 2015) with bias correction, matched to the flat
/// parameter layout of [`Mlp`](crate::Mlp).
///
/// # Example
///
/// ```
/// use rlpta_rl::Adam;
///
/// // Minimize f(x) = (x − 3)² from x = 0.
/// let mut x = vec![0.0];
/// let mut opt = Adam::new(1, 0.1);
/// for _ in 0..500 {
///     let grad = vec![2.0 * (x[0] - 3.0)];
///     opt.step(&mut x, &grad);
/// }
/// assert!((x[0] - 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimizer for `n` parameters with learning rate `lr` and
    /// the standard β₁ = 0.9, β₂ = 0.999, ε = 1e−8.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(n: usize, lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to `params` given `grads`: a single fused
    /// walk of the parameter slab updating moments and parameters together
    /// (`kernel::adam_walk`), with the bias corrections hoisted to
    /// per-step scalars. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the optimizer state.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        self.t += 1;
        crate::kernel::adam_walk(
            crate::kernel::AdamScalars {
                beta1: self.beta1,
                nbeta1: 1.0 - self.beta1,
                beta2: self.beta2,
                nbeta2: 1.0 - self.beta2,
                bias1: 1.0 - self.beta1.powi(self.t as i32),
                bias2: 1.0 - self.beta2.powi(self.t as i32),
                lr: self.lr,
                eps: self.eps,
            },
            params,
            grads,
            &mut self.m,
            &mut self.v,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_magnitude_is_lr() {
        // With bias correction the very first step is ≈ lr·sign(g).
        let mut p = vec![0.0];
        let mut opt = Adam::new(1, 0.01);
        opt.step(&mut p, &[5.0]);
        assert!((p[0] + 0.01).abs() < 1e-6, "step was {}", p[0]);
    }

    #[test]
    fn hand_computed_second_step() {
        let mut p = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        let g = 1.0;
        opt.step(&mut p, &[g]);
        // m1 = 0.1, v1 = 0.001; m̂ = 1, v̂ = 1 → p = −0.1.
        assert!((p[0] + 0.1).abs() < 1e-9);
        opt.step(&mut p, &[g]);
        // m2 = 0.19, v2 = 0.001999; b1t = 0.19, b2t = 0.001999
        // m̂ = 1, v̂ = 1 → another −0.1 step (within ε).
        assert!((p[0] + 0.2).abs() < 1e-6, "p = {}", p[0]);
    }

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut p = vec![5.0, -3.0];
        let mut opt = Adam::new(2, 0.05);
        for _ in 0..2000 {
            let g = vec![2.0 * p[0], 2.0 * p[1]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 1e-3 && p[1].abs() < 1e-3, "p = {p:?}");
    }

    #[test]
    fn zero_gradient_is_stationary() {
        let mut p = vec![1.0];
        let mut opt = Adam::new(1, 0.1);
        opt.step(&mut p, &[0.0]);
        assert_eq!(p[0], 1.0);
    }

    #[test]
    fn tracks_steps() {
        let mut opt = Adam::new(1, 0.1);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut [0.0], &[1.0]);
        assert_eq!(opt.steps(), 1);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn validates_lengths() {
        let mut opt = Adam::new(2, 0.1);
        opt.step(&mut [0.0], &[1.0]);
    }
}
