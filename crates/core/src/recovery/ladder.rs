//! The escalation ladder: try every DC strategy in order of cost until one
//! converges.
//!
//! Production SPICE engines never run a single algorithm — they run a
//! *recovery script*: plain Newton first, then Gmin stepping, then source
//! stepping, then pseudo-transient flavours, each more expensive and more
//! robust than the last. [`RobustDcSolver`] is that script as a first-class,
//! configurable object with a global [`SolveBudget`] and a machine-readable
//! failure trail ([`AttemptReport`]).

use crate::assembly::NewtonWorkspace;
use crate::certify::certified;
use crate::continuation::{GminStepping, SourceStepping};
use crate::error::{SolveError, SolvePhase};
use crate::homotopy::NewtonHomotopy;
use crate::newton::{newton_solve, NewtonConfig};
use crate::pta::{PtaConfig, PtaKind, PtaParams, PtaSolver};
use crate::recovery::budget::{BudgetMeter, SolveBudget};
use crate::telemetry::{interest, Payload, Phase, StatsFold, Tele};
use crate::{SimpleStepping, Solution, SolveStats};
use rlpta_mna::Circuit;
use std::time::{Duration, Instant};

/// What one ladder stage did before failing — the post-mortem record inside
/// [`SolveError::AllStrategiesFailed`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptReport {
    /// Stage name (see [`LadderStage::name`]).
    pub strategy: &'static str,
    /// The error that ended the stage.
    pub error: Box<SolveError>,
    /// Work the stage performed, folded from the stage's own telemetry
    /// event stream (so it is exact for every error kind, not just
    /// `NonConvergent`).
    pub stats: SolveStats,
    /// Wall-clock time the stage consumed.
    pub elapsed: Duration,
}

/// One rung of the escalation ladder, carrying its own configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LadderStage {
    /// Damped Newton–Raphson — cheapest, solves most circuits outright.
    DampedNewton(NewtonConfig),
    /// Gmin stepping continuation.
    GminStepping(GminStepping),
    /// Source stepping continuation.
    SourceStepping(SourceStepping),
    /// Compound-element PTA (the paper's most robust flavour).
    Cepta(PtaConfig),
    /// Damped PTA — deliberately run at a *different* pseudo-element
    /// operating point than the CEPTA stage so the two do not fail together.
    Dpta(PtaConfig),
    /// Newton homotopy — last resort; device-independent curve tracking.
    NewtonHomotopy(NewtonHomotopy),
}

impl LadderStage {
    /// Short stable name used in reports and attempt trails.
    pub fn name(&self) -> &'static str {
        match self {
            LadderStage::DampedNewton(_) => "newton",
            LadderStage::GminStepping(_) => "gmin-stepping",
            LadderStage::SourceStepping(_) => "source-stepping",
            LadderStage::Cepta(_) => "cepta",
            LadderStage::Dpta(_) => "dpta",
            LadderStage::NewtonHomotopy(_) => "newton-homotopy",
        }
    }
}

/// DC solver that escalates through a configurable ladder of strategies,
/// carrying warm-start state forward where valid, under one global
/// [`SolveBudget`].
///
/// On success the returned [`Solution::stats`] accumulate the work of
/// *every* stage that ran (failed attempts included), so the cost of the
/// escalation itself is visible. On failure the error is either
/// [`SolveError::AllStrategiesFailed`] with the per-stage trail, or
/// [`SolveError::BudgetExhausted`] when the global budget stopped the
/// ladder early.
///
/// # Example
///
/// ```
/// use rlpta_core::RobustDcSolver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = rlpta_netlist::parse(
///     "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)",
/// )?;
/// let sol = RobustDcSolver::default().solve(&c)?;
/// assert!(sol.stats.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RobustDcSolver {
    stages: Vec<LadderStage>,
    budget: SolveBudget,
}

impl Default for RobustDcSolver {
    fn default() -> Self {
        Self::from_stages(Self::default_ladder())
    }
}

impl RobustDcSolver {
    /// In-crate constructor; the public path is
    /// `DcEngine::builder().ladder(..)` (or `.robust()`).
    pub(crate) fn from_stages(stages: Vec<LadderStage>) -> Self {
        Self {
            stages,
            budget: SolveBudget::UNLIMITED,
        }
    }

    /// Returns a copy with the global budget set (shared by all stages).
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured stages.
    pub fn stages(&self) -> &[LadderStage] {
        &self.stages
    }

    /// The configured budget.
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// The standard escalation order: damped Newton → Gmin stepping →
    /// source stepping → CEPTA → DPTA (retuned) → Newton homotopy.
    pub fn default_ladder() -> Vec<LadderStage> {
        let pta_defaults = PtaConfig::default();
        vec![
            LadderStage::DampedNewton(NewtonConfig {
                max_iterations: 150,
                // Heavier global damping than the plain solver: in ladder
                // position the goal is a usable warm start even when full
                // convergence fails.
                max_voltage_step: 0.5,
                ..NewtonConfig::default()
            }),
            LadderStage::GminStepping(GminStepping::default()),
            LadderStage::SourceStepping(SourceStepping::default()),
            LadderStage::Cepta(PtaConfig {
                max_steps: 8_000,
                ..pta_defaults.clone()
            }),
            LadderStage::Dpta(PtaConfig {
                // Retuned pseudo elements: a stiffer node capacitance and a
                // lighter source inductance than the (1, 1, 1) default, so
                // this rung probes a different relaxation trajectory than
                // the CEPTA rung that just failed.
                params: PtaParams {
                    c_node: 4.0,
                    l_branch: 0.25,
                    tau: 1.0,
                },
                max_steps: 8_000,
                ..pta_defaults
            }),
            LadderStage::NewtonHomotopy(NewtonHomotopy::default()),
        ]
    }

    /// Runs the ladder.
    ///
    /// # Errors
    ///
    /// * [`SolveError::InvalidConfig`] for an empty ladder,
    /// * [`SolveError::BudgetExhausted`] when the global budget ran out,
    /// * [`SolveError::AllStrategiesFailed`] when every stage ran and failed.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, SolveError> {
        self.solve_with(circuit, &Tele::disabled())
    }

    /// Ladder run with a telemetry context: every stage's events flow into
    /// `tele`, failed stages additionally emit a [`Payload::LadderAttempt`]
    /// summary, and both the success totals and the per-attempt stats are
    /// folds over that same stream.
    pub(crate) fn solve_with(
        &self,
        circuit: &Circuit,
        tele: &Tele<'_>,
    ) -> Result<Solution, SolveError> {
        if self.stages.is_empty() {
            return Err(SolveError::InvalidConfig {
                detail: "escalation ladder has no stages".into(),
            });
        }
        let mut meter = self.budget.start();
        let mut attempts: Vec<AttemptReport> = Vec::with_capacity(self.stages.len());
        let mut warm: Option<Vec<f64>> = None;
        // Every stage's raw events pass through this fold, so the success
        // totals include the work of failed attempts without any absorb
        // bookkeeping.
        let total_fold = StatsFold::default();
        let tele = tele.child(&total_fold);
        // One workspace for the run: the Newton rung's, in which every
        // rung's result is certified, on the plan that rung resolved.
        let mut ws = NewtonWorkspace::new();
        for stage in &self.stages {
            meter.set_phase(SolvePhase::Escalation);
            meter.check_deadline()?;
            let t0 = Instant::now();
            let stage_fold = StatsFold::default();
            let stage_tele = tele.child(&stage_fold);
            let stage_timer = stage_tele.timer();
            let (result, carry) = run_stage(
                stage,
                circuit,
                warm.as_deref(),
                &mut meter,
                &mut ws,
                &stage_tele,
            );
            stage_timer.finish(&stage_tele, Phase::LadderStage);
            let elapsed = t0.elapsed();
            // Independent certification gate: a stage claiming convergence
            // is demoted like any other failure when the re-evaluated
            // residual rejects the point (after the refinement rescue).
            let result = result.and_then(|sol| certified(&mut ws, circuit, sol, &tele));
            match result {
                Ok(mut sol) => {
                    sol.stats = total_fold.snapshot();
                    return Ok(sol);
                }
                Err(e @ SolveError::BudgetExhausted { .. }) => {
                    // The budget is global; later stages would trip it on
                    // their first charge. Surface the budget error itself so
                    // callers can match on it.
                    return Err(e);
                }
                Err(e) => {
                    // A failed rung never reads "converged", even when the
                    // rung's own solve did before certification demoted it.
                    let stats = SolveStats {
                        converged: false,
                        ..stage_fold.snapshot()
                    };
                    tele.emit_with(interest!("LadderAttempt"), || Payload::LadderAttempt {
                        strategy: stage.name().to_string(),
                        error: e.to_string(),
                        stats,
                    });
                    attempts.push(AttemptReport {
                        strategy: stage.name(),
                        error: Box::new(e),
                        stats,
                        elapsed,
                    });
                }
            }
            if carry.is_some() {
                warm = carry;
            }
        }
        Err(SolveError::AllStrategiesFailed { attempts })
    }
}

/// Runs one stage. Returns the stage result plus an optional warm-start
/// vector for the next stage (only the Newton stage produces one: its final
/// iterate, when finite, is a legitimate starting point for Gmin stepping
/// and the homotopy). The Newton stage runs in `ws`.
fn run_stage(
    stage: &LadderStage,
    circuit: &Circuit,
    warm: Option<&[f64]>,
    meter: &mut BudgetMeter,
    ws: &mut NewtonWorkspace,
    tele: &Tele<'_>,
) -> (Result<Solution, SolveError>, Option<Vec<f64>>) {
    let zeros = vec![0.0; circuit.dim()];
    let x0: &[f64] = match warm {
        Some(w) if w.len() == circuit.dim() => w,
        _ => &zeros,
    };
    match stage {
        LadderStage::DampedNewton(cfg) => {
            meter.set_phase(SolvePhase::Newton);
            // Afresh, as a standalone solve: a second Newton rung must not
            // replay the first one's LU pattern.
            *ws = NewtonWorkspace::new();
            newton_solve(circuit, cfg, Some(x0), meter, ws, tele)
        }
        LadderStage::GminStepping(gm) => {
            meter.set_phase(SolvePhase::Continuation);
            (gm.solve_metered(circuit, x0, meter, tele), None)
        }
        LadderStage::SourceStepping(ss) => {
            meter.set_phase(SolvePhase::Continuation);
            // Source stepping ramps λ from 0, where the exact solution is the
            // zero state — a warm iterate from full-strength sources would
            // start the ramp *further* from its own curve.
            (ss.solve_metered(circuit, &zeros, meter, tele), None)
        }
        LadderStage::Cepta(cfg) => {
            meter.set_phase(SolvePhase::PseudoTransient);
            let mut solver =
                PtaSolver::with_config(PtaKind::cepta(), SimpleStepping::default(), cfg.clone());
            (solver.solve_metered(circuit, meter, tele), None)
        }
        LadderStage::Dpta(cfg) => {
            meter.set_phase(SolvePhase::PseudoTransient);
            let mut solver =
                PtaSolver::with_config(PtaKind::dpta(), SimpleStepping::default(), cfg.clone());
            (solver.solve_metered(circuit, meter, tele), None)
        }
        LadderStage::NewtonHomotopy(h) => {
            meter.set_phase(SolvePhase::Homotopy);
            (h.solve_metered(circuit, x0, meter, tele), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diode_clamp() -> Circuit {
        rlpta_netlist::parse(
            "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n",
        )
        .unwrap()
    }

    #[test]
    fn default_ladder_solves_linear_circuit_in_first_stage() {
        let c = rlpta_netlist::parse("t\nV1 a 0 10\nR1 a b 2k\nR2 b 0 3k\n").unwrap();
        let sol = RobustDcSolver::default().solve(&c).unwrap();
        assert!(sol.stats.converged);
        assert!((sol.voltage(&c, "b").unwrap() - 6.0).abs() < 1e-9);
        assert!(sol.stats.pta_steps == 0, "no escalation needed");
    }

    #[test]
    fn ladder_escalates_past_a_crippled_newton_stage() {
        let c = diode_clamp();
        let solver = RobustDcSolver::from_stages(vec![
            // One Newton iteration cannot solve a diode clamp…
            LadderStage::DampedNewton(NewtonConfig {
                max_iterations: 1,
                ..NewtonConfig::default()
            }),
            // …but the next rung recovers.
            LadderStage::GminStepping(GminStepping::default()),
        ]);
        let sol = solver.solve(&c).unwrap();
        assert!(sol.stats.converged);
        let v = sol.voltage(&c, "out").unwrap();
        assert!(v > 0.55 && v < 0.85, "diode drop {v}");
        // The failed Newton attempt's work is visible in the totals.
        assert!(sol.stats.pta_steps >= 10, "gmin stages counted");
    }

    #[test]
    fn all_stages_failing_produces_ordered_attempt_trail() {
        let c = diode_clamp();
        let doomed_newton = NewtonConfig {
            max_iterations: 1,
            ..NewtonConfig::default()
        };
        let solver = RobustDcSolver::from_stages(vec![
            LadderStage::DampedNewton(doomed_newton.clone()),
            LadderStage::NewtonHomotopy(NewtonHomotopy {
                initial_step: 0.1,
                min_step: 0.099,
                growth: 1.6,
                newton: doomed_newton,
            }),
        ]);
        match solver.solve(&c) {
            Err(SolveError::AllStrategiesFailed { attempts }) => {
                assert_eq!(attempts.len(), 2);
                assert_eq!(attempts[0].strategy, "newton");
                assert_eq!(attempts[1].strategy, "newton-homotopy");
                for a in &attempts {
                    assert!(
                        matches!(*a.error, SolveError::NonConvergent { .. }),
                        "{:?}",
                        a.error
                    );
                    assert!(a.stats.nr_iterations > 0, "stage stats populated");
                }
            }
            other => panic!("expected AllStrategiesFailed, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_trips_budget_not_trail() {
        let c = diode_clamp();
        let solver =
            RobustDcSolver::default().with_budget(SolveBudget::with_deadline(Duration::ZERO));
        assert!(matches!(
            solver.solve(&c),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn empty_ladder_is_invalid_config() {
        let c = diode_clamp();
        assert!(matches!(
            RobustDcSolver::from_stages(vec![]).solve(&c),
            Err(SolveError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = RobustDcSolver::default_ladder()
            .iter()
            .map(LadderStage::name)
            .collect();
        assert_eq!(
            names,
            vec![
                "newton",
                "gmin-stepping",
                "source-stepping",
                "cepta",
                "dpta",
                "newton-homotopy"
            ]
        );
    }

    #[test]
    fn nr_iteration_cap_stops_ladder() {
        let c = diode_clamp();
        let solver = RobustDcSolver::from_stages(vec![
            LadderStage::DampedNewton(NewtonConfig {
                max_iterations: 1,
                ..NewtonConfig::default()
            }),
            LadderStage::GminStepping(GminStepping::default()),
        ])
        // One iteration is allowed; the second (inside gmin) trips the cap.
        .with_budget(SolveBudget::UNLIMITED.nr_iterations(1));
        assert!(matches!(
            solver.solve(&c),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }
}
