//! Classic continuation baselines: Gmin stepping and source stepping, plus
//! the adaptive λ ramp that source stepping shares with the Newton
//! homotopy.

use crate::assembly::NewtonWorkspace;
use crate::newton::{newton_iterate, NewtonConfig};
use crate::recovery::BudgetMeter;
use crate::telemetry::{Payload, StatsFold, Tele};
use crate::{Solution, SolveError};
use rlpta_devices::Stamper;
use rlpta_mna::Circuit;
use std::borrow::Cow;

/// Gmin stepping: solve with a large junction shunt conductance, then relax
/// it geometrically toward the target, warm-starting each stage.
///
/// # Example
///
/// ```
/// use rlpta_core::GminStepping;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = rlpta_netlist::parse(
///     "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)",
/// )?;
/// let sol = GminStepping::default().solve(&c)?;
/// assert!(sol.stats.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GminStepping {
    /// Starting shunt conductance.
    pub gmin_start: f64,
    /// Final (target) Gmin.
    pub gmin_target: f64,
    /// Geometric reduction per stage.
    pub reduction: f64,
    /// Newton configuration per stage.
    pub newton: NewtonConfig,
}

impl Default for GminStepping {
    fn default() -> Self {
        Self {
            gmin_start: 1e-2,
            gmin_target: 1e-12,
            reduction: 10.0,
            newton: NewtonConfig::default(),
        }
    }
}

impl GminStepping {
    /// Runs the continuation.
    ///
    /// # Errors
    ///
    /// [`SolveError::NonConvergent`] when a stage fails even after the ramp,
    /// [`SolveError::Singular`] for defective circuits.
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
        let fold = StatsFold::default();
        let tele = tele.child(&fold);
        let mut x = x0.to_vec();
        // Cold starts keep the historical zeroed limiter state; a warm start
        // seeds the limiter history from the supplied iterate.
        let mut state = if x0.iter().any(|v| *v != 0.0) {
            circuit.seeded_state(x0)
        } else {
            circuit.new_state()
        };
        let mut gmin = self.gmin_start;
        // One LU pattern serves the whole ramp: Gmin only rescales the
        // diagonal stamps. Likewise one stamp plan: the ramp changes values,
        // never structure.
        let mut ws = NewtonWorkspace::new();
        loop {
            meter.charge_step(1)?;
            let cfg = NewtonConfig {
                gmin,
                ..self.newton.clone()
            };
            let out = newton_iterate(
                circuit,
                &cfg,
                &x,
                &mut state,
                &mut |_, _| {},
                meter,
                &mut ws,
                &tele,
            )?;
            tele.emit(Payload::StageStep {
                accepted: out.converged,
                control: gmin,
            });
            if !out.converged {
                return Err(SolveError::NonConvergent {
                    stats: fold.snapshot(),
                });
            }
            x = out.x;
            if gmin <= self.gmin_target {
                tele.emit(Payload::SolveDone { converged: true });
                return Ok(Solution {
                    x,
                    stats: fold.snapshot(),
                    health: None,
                });
            }
            gmin = (gmin / self.reduction).max(self.gmin_target);
        }
    }
}

/// Source stepping: ramp all independent sources from 0 to full value with
/// adaptive increments, warm-starting each stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceStepping {
    /// Initial ramp increment.
    pub initial_increment: f64,
    /// Smallest increment before giving up.
    pub min_increment: f64,
    /// Growth factor after a successful stage.
    pub growth: f64,
    /// Newton configuration per stage.
    pub newton: NewtonConfig,
}

impl Default for SourceStepping {
    fn default() -> Self {
        Self {
            initial_increment: 0.1,
            min_increment: 1e-6,
            growth: 1.5,
            newton: NewtonConfig::default(),
        }
    }
}

impl SourceStepping {
    /// Runs the continuation.
    ///
    /// # Errors
    ///
    /// [`SolveError::NonConvergent`] if the increment underflows
    /// [`SourceStepping::min_increment`].
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
        let steps = RampSteps {
            initial: self.initial_increment,
            min: self.min_increment,
            growth: self.growth,
        };
        // The source ramp scales right-hand sides, not the Jacobian pattern.
        let newton_at = |lambda| {
            Cow::Owned(NewtonConfig {
                source_scale: lambda,
                ..self.newton.clone()
            })
        };
        lambda_ramp(circuit, x0, steps, newton_at, |_, _| {}, meter, tele)
    }
}

/// Increment control of [`lambda_ramp`].
pub(crate) struct RampSteps {
    /// First λ increment.
    pub initial: f64,
    /// Smallest increment before the ramp gives up.
    pub min: f64,
    /// Increment growth factor after an accepted stage.
    pub growth: f64,
}

/// The adaptive λ ramp of source stepping and the Newton homotopy: λ climbs
/// from 0 to 1 in stages, each a Newton run warm-started from the last
/// accepted stage with `newton_at(λ)`'s options and `deform(λ, ·)`'s extra
/// residual stamps. An accepted stage grows the increment by
/// [`RampSteps::growth`]; a rejected one restores the limiter state and
/// quarters it, and an increment below [`RampSteps::min`] fails the ramp
/// with [`SolveError::NonConvergent`]. Each stage charges one budget step
/// and emits one [`Payload::StageStep`] with its target λ.
pub(crate) fn lambda_ramp<'n>(
    circuit: &Circuit,
    x0: &[f64],
    steps: RampSteps,
    newton_at: impl Fn(f64) -> Cow<'n, NewtonConfig>,
    deform: impl Fn(f64, &mut Stamper<'_>),
    meter: &mut BudgetMeter,
    tele: &Tele<'_>,
) -> Result<Solution, SolveError> {
    let fold = StatsFold::default();
    let tele = tele.child(&fold);
    let mut x = x0.to_vec();
    let mut state = if x0.iter().any(|v| *v != 0.0) {
        circuit.seeded_state(x0)
    } else {
        circuit.new_state()
    };
    let mut lambda = 0.0_f64;
    let mut dl = steps.initial;
    // Neither hook touches the Jacobian pattern: every stage replays one
    // symbolic analysis and reuses one stamp plan.
    let mut ws = NewtonWorkspace::new();
    while lambda < 1.0 {
        meter.charge_step(1)?;
        let next = (lambda + dl).min(1.0);
        let saved_state = state.clone();
        let out = newton_iterate(
            circuit,
            &newton_at(next),
            &x,
            &mut state,
            &mut |_, st| deform(next, st),
            meter,
            &mut ws,
            &tele,
        )?;
        tele.emit(Payload::StageStep {
            accepted: out.converged,
            control: next,
        });
        if out.converged {
            lambda = next;
            x = out.x;
            dl *= steps.growth;
        } else {
            state = saved_state;
            dl /= 4.0;
            if dl < steps.min {
                return Err(SolveError::NonConvergent {
                    stats: fold.snapshot(),
                });
            }
        }
    }
    tele.emit(Payload::SolveDone { converged: true });
    Ok(Solution {
        x,
        stats: fold.snapshot(),
        health: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewtonRaphson;

    fn bjt_circuit() -> Circuit {
        rlpta_netlist::parse(
            "t
             V1 vcc 0 12
             R1 vcc b 47k
             R2 b 0 10k
             RC vcc c 4.7k
             RE e 0 1k
             Q1 c b e QN
             .model QN NPN(IS=1e-15 BF=100)",
        )
        .unwrap()
    }

    #[test]
    fn gmin_stepping_matches_direct_newton() {
        let c = bjt_circuit();
        let direct = NewtonRaphson::default().solve(&c).unwrap();
        let gm = GminStepping::default().solve(&c).unwrap();
        for (a, b) in gm.x.iter().zip(&direct.x) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(gm.stats.pta_steps >= 10, "expects ~11 gmin stages");
    }

    #[test]
    fn source_stepping_matches_direct_newton() {
        let c = bjt_circuit();
        let direct = NewtonRaphson::default().solve(&c).unwrap();
        let ss = SourceStepping::default().solve(&c).unwrap();
        for (a, b) in ss.x.iter().zip(&direct.x) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(ss.stats.converged);
    }

    #[test]
    fn gmin_final_stage_uses_target() {
        let c = bjt_circuit();
        let custom = GminStepping {
            gmin_target: 1e-10,
            ..GminStepping::default()
        };
        let sol = custom.solve(&c).unwrap();
        assert!(sol.stats.converged);
    }

    #[test]
    fn source_stepping_counts_stages() {
        let c = bjt_circuit();
        let sol = SourceStepping::default().solve(&c).unwrap();
        assert!(sol.stats.pta_steps >= 2);
        assert!(sol.stats.nr_iterations > sol.stats.pta_steps);
    }
}
