//! Newton-homotopy continuation.
//!
//! The paper's related work dismisses *device-model* homotopies as hard to
//! deploy ("highly dependent on the device model"); the **Newton homotopy**
//! is the device-independent member of the family and makes a fair extra
//! baseline: deform
//!
//! `H(x, λ) = F(x) − (1 − λ)·F(x₀) = 0`
//!
//! from the trivially-satisfied system at `λ = 0` (where `x = x₀` solves it
//! exactly) to the true system at `λ = 1`, tracking the solution with
//! warm-started Newton and adaptive λ steps. No bifurcation handling — when
//! the curve turns, the step shrinks and the run may fail, which is exactly
//! the weakness the paper ascribes to homotopy methods.

use crate::continuation::{lambda_ramp, RampSteps};
use crate::error::SolvePhase;
use crate::newton::NewtonConfig;
use crate::recovery::BudgetMeter;
use crate::telemetry::Tele;
use crate::{Solution, SolveError};
use rlpta_devices::Stamper;
use rlpta_mna::Circuit;
use std::borrow::Cow;

/// Newton-homotopy DC solver.
///
/// # Example
///
/// ```
/// use rlpta_core::NewtonHomotopy;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = rlpta_netlist::parse(
///     "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)",
/// )?;
/// let sol = NewtonHomotopy::default().solve(&c)?;
/// assert!(sol.stats.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonHomotopy {
    /// Initial λ increment.
    pub initial_step: f64,
    /// Smallest λ increment before declaring failure.
    pub min_step: f64,
    /// Growth factor after an accepted λ step.
    pub growth: f64,
    /// Newton settings per λ point.
    pub newton: NewtonConfig,
}

impl Default for NewtonHomotopy {
    fn default() -> Self {
        Self {
            initial_step: 0.1,
            min_step: 1e-6,
            growth: 1.6,
            newton: NewtonConfig {
                max_iterations: 25,
                ..NewtonConfig::default()
            },
        }
    }
}

impl NewtonHomotopy {
    /// Runs the continuation from `x₀ = 0`.
    ///
    /// # Errors
    ///
    /// [`SolveError::NonConvergent`] when the λ step underflows
    /// [`NewtonHomotopy::min_step`]; [`SolveError::Singular`] for structural
    /// defects.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, SolveError> {
        self.solve_metered(
            circuit,
            &vec![0.0; circuit.dim()],
            &mut BudgetMeter::unlimited(),
            &Tele::disabled(),
        )
    }

    pub(crate) fn solve_metered(
        &self,
        circuit: &Circuit,
        x0: &[f64],
        meter: &mut BudgetMeter,
        tele: &Tele<'_>,
    ) -> Result<Solution, SolveError> {
        // F(x₀): the constant deformation term. A poisoned starting point
        // would contaminate every λ stage, so reject it up front.
        let f0 = circuit.residual(x0);
        if !f0.iter().all(|v| v.is_finite()) {
            return Err(SolveError::NonFinite {
                phase: SolvePhase::Residual,
            });
        }
        let steps = RampSteps {
            initial: self.initial_step,
            min: self.min_step,
            growth: self.growth,
        };
        // H(x, λ) = F(x) − (1−λ)·F(x₀): subtract the deformation from the
        // residual; the Jacobian is untouched.
        let deform = |lambda: f64, st: &mut Stamper<'_>| {
            let scale = 1.0 - lambda;
            for (i, f) in f0.iter().enumerate() {
                st.res_raw(i, -(scale * f));
            }
        };
        let newton_at = |_| Cow::Borrowed(&self.newton);
        lambda_ramp(circuit, x0, steps, newton_at, deform, meter, tele)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewtonRaphson;

    #[test]
    fn matches_newton_on_diode_clamp() {
        let c = rlpta_netlist::parse(
            "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n",
        )
        .unwrap();
        let newton = NewtonRaphson::default().solve(&c).unwrap();
        let hom = NewtonHomotopy::default().solve(&c).unwrap();
        for (a, b) in hom.x.iter().zip(&newton.x) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn solves_bjt_bias_network() {
        let c = rlpta_netlist::parse(
            "t
             V1 vcc 0 12
             R1 vcc b 100k
             R2 b 0 22k
             RC vcc c 2.2k
             RE e 0 1k
             Q1 c b e QN
             .model QN NPN(IS=1e-15 BF=120)",
        )
        .unwrap();
        let sol = NewtonHomotopy::default().solve(&c).unwrap();
        assert!(sol.stats.converged);
        assert!(sol.residual_norm(&c) < 1e-6);
    }

    #[test]
    fn lambda_steps_are_counted_as_stages() {
        let c = rlpta_netlist::parse("t\nV1 a 0 2\nR1 a 0 1k\n").unwrap();
        let sol = NewtonHomotopy::default().solve(&c).unwrap();
        assert!(sol.stats.pta_steps >= 2, "several λ stages expected");
    }

    #[test]
    fn trivial_linear_circuit_converges_fast() {
        let c = rlpta_netlist::parse("t\nV1 a 0 1\nR1 a b 1k\nR2 b 0 1k\n").unwrap();
        let sol = NewtonHomotopy::default().solve(&c).unwrap();
        let b = c.node_index("b").unwrap();
        assert!((sol.x[b] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn solves_benchmark_opamp() {
        let bench = rlpta_circuits_shim();
        let sol = NewtonHomotopy::default().solve(&bench);
        // Homotopy may fail on hard circuits (its documented weakness) but
        // must not panic; on this mid-difficulty op-amp it should succeed.
        assert!(sol.is_ok(), "{:?}", sol.err());
    }

    /// A mid-difficulty op-amp built inline (the circuits crate is not a
    /// dependency of core).
    fn rlpta_circuits_shim() -> Circuit {
        rlpta_netlist::parse(
            "opamp
             V1 vcc 0 15
             V2 vee 0 -15
             RBP vcc inp 100k
             RBP2 inp vee 100k
             RC1 vcc d1 10k
             RC2 vcc d2 10k
             QD1 d1 inp tail QN
             QD2 d2 inp tail QN
             RT tail vee 10k
             QG cg d2 eg QN
             RCG vcc cg 6.8k
             REG eg vee 3.3k
             .model QN NPN(IS=1e-15 BF=100)",
        )
        .unwrap()
    }
}
